"""Enumeration: structural stream vs. brute-force filter, counts, order."""

import subprocess
import sys
from pathlib import Path

import pytest

import sepstats

from sepstats import enumeration
from sepstats.enumeration import (
    CLASSES,
    FILTER_CAP,
    HARD_CAP,
    count_irreducible,
    count_separable,
    enumerate_filter,
    enumerate_structural,
    iter_separable_bytes,
)
from sepstats.permutations import _stats_of_sequence, is_irreducible, is_separable

SEPARABLE = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098, 1037718]
IRREDUCIBLE = [1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859]


def test_counts_match_frozen_values():
    for n, want in enumerate(SEPARABLE, start=1):
        assert count_separable(n) == want
    for n, want in enumerate(IRREDUCIBLE, start=1):
        assert count_irreducible(n) == want


def test_counts_halving_relation():
    for n in range(2, 13):
        assert count_separable(n) == 2 * count_irreducible(n)


def test_deep_counts_work_cold():
    # a fresh interpreter, so no smaller length has been counted before
    src = Path(sepstats.__file__).resolve().parent.parent
    code = (
        "from sepstats.enumeration import count_irreducible, count_separable\n"
        "assert count_separable(1000) == 2 * count_irreducible(1000)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=src,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_counts_match_the_radical_counting_series():
    from sepstats.closedforms import little_schroeder_gf, schroeder_gf

    sep, irr = schroeder_gf(255), little_schroeder_gf(255)
    for n in range(1, 256):
        assert count_separable(n) == sep.coefficient(n).constant_term()
        assert count_irreducible(n) == irr.coefficient(n).constant_term()


def test_structural_stream_is_strictly_lex_ordered_and_complete():
    for n in range(1, 8):
        seen = list(iter_separable_bytes(n, "all"))
        # strict order implies no duplicates
        assert all(a < b for a, b in zip(seen, seen[1:]))
        assert len(seen) == count_separable(n)


def test_class_streams_partition_the_separables():
    for n in range(2, 8):
        all_set = set(iter_separable_bytes(n, "all"))
        irr = set(iter_separable_bytes(n, "irr"))
        red = set(iter_separable_bytes(n, "red"))
        assert irr | red == all_set
        assert not (irr & red)
        assert len(irr) == count_irreducible(n)


def test_irreducible_stream_agrees_with_predicate():
    from sepstats.permutations import Permutation

    for n in range(1, 7):
        irr_stream = set(iter_separable_bytes(n, "irr"))
        for word in iter_separable_bytes(n, "all"):
            pi = Permutation(tuple(word))
            assert (bytes(word) in irr_stream) == is_irreducible(pi)


def test_filter_equals_structural():
    for n in range(1, 8):
        assert list(enumerate_filter(n)) == list(enumerate_structural(n))


def test_filter_yields_only_separables():
    for pi in enumerate_filter(5):
        assert is_separable(pi)


def test_caps_enforced():
    with pytest.raises(ValueError):
        list(enumerate_structural(HARD_CAP + 1))
    with pytest.raises(ValueError):
        list(enumerate_filter(FILTER_CAP + 1))
    with pytest.raises(ValueError):
        list(enumerate_structural(0))
    with pytest.raises(ValueError):
        iter_separable_bytes(3, "bogus")


def test_reducible_stream_empty_at_n1():
    assert list(iter_separable_bytes(1, "red")) == []


def test_composed_keys_match_the_kernel_on_every_word():
    for n in range(1, 11):
        words = list(iter_separable_bytes(n, "all"))
        want = [
            enumeration._stat_key(_stats_of_sequence(w).monomial()) for w in words
        ]
        assert list(enumeration._key_stream(n, "all")) == want, n
        if n <= 9:
            # the class streams against the kernel's keys of their words
            kernel = dict(zip(words, want))
            for cls in ("irreducible", "reducible"):
                got = list(enumeration._key_stream(n, cls))
                want_cls = [kernel[w] for w in iter_separable_bytes(n, cls)]
                assert got == want_cls, (n, cls)


def test_streams_above_the_memo_cap_equal_the_tables(monkeypatch):
    # lengths above the cap compose words and keys block by block, with
    # heads and tails that are themselves above the cap
    want = {
        (n, cls): (
            list(iter_separable_bytes(n, cls)),
            list(enumeration._key_stream(n, cls)),
        )
        for n in range(1, 8)
        for cls in CLASSES
    }
    monkeypatch.setattr(enumeration, "_MEMO_CAP", 3)
    monkeypatch.setattr(enumeration, "_TABLES", {1: enumeration._TABLES[1]})
    for (n, cls), (words, keys) in want.items():
        assert list(iter_separable_bytes(n, cls)) == words, (n, cls)
        assert list(enumeration._key_stream(n, cls)) == keys, (n, cls)
    assert set(enumeration._TABLES) == {1, 2, 3}


def test_class_streams_read_the_memo_table():
    table = {id(word) for word in iter_separable_bytes(6, "all")}
    for cls in CLASSES:
        words = iter_separable_bytes(6, cls)
        assert all(id(word) in table for word in words), cls
