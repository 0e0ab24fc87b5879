"""Distribution tables: census consistency, marginals, emission, bindings."""

import itertools
import json
from collections import Counter

import pytest

from sepstats import distributions, enumeration
from sepstats.closedforms import SET2_PAIRS, closed_form_pair_set2
from sepstats.distributions import (
    STAT_NAMES,
    STAT_TO_VARIABLE,
    DistTable,
    canonical_class,
    class_count,
    counts_by_variable,
    dist_from_enumeration,
    table_rows,
    render_table,
    series_from_enumeration,
)
from sepstats.enumeration import (
    HARD_CAP,
    count_irreducible,
    count_separable,
    enumerate_filter,
    iter_separable_bytes,
)
from sepstats.permutations import is_irreducible, stats
from sepstats.series import VARIABLES, parse_poly, solve_fixpoint


def test_canonical_class_aliases():
    assert canonical_class("irr") == "irreducible"
    assert canonical_class("red") == "reducible"
    assert canonical_class("all") == "all"
    with pytest.raises(ValueError):
        canonical_class("both")


def test_class_count():
    assert class_count("all", 5) == count_separable(5)
    assert class_count("irreducible", 5) == count_irreducible(5)
    assert class_count("reducible", 5) == count_separable(5) - count_irreducible(5)


def test_row_totals_match_class_counts():
    for n in range(1, 7):
        for cls in ("all", "irreducible", "reducible"):
            table = dist_from_enumeration(n, cls, ("lmax", "rmax"))
            table.check_totals()
            assert table.total(n) == class_count(cls, n)


def test_single_stat_value_counts_sorted():
    table = dist_from_enumeration(4, "all", ("rmax",))
    assert table.value_counts(4) == {1: 6, 2: 9, 3: 6, 4: 1}
    with pytest.raises(ValueError):
        dist_from_enumeration(3, "all", ("lmax", "rmax")).value_counts(3)


def test_joint_marginalizes_to_single():
    for n in range(1, 7):
        joint = dist_from_enumeration(n, "all", ("lmax", "rmax"))
        single = dist_from_enumeration(n, "all", ("lmax",))
        marg: dict = {}
        for (lmax, _rmax), c in joint.row(n).items():
            marg[(lmax,)] = marg.get((lmax,), 0) + c
        assert marg == single.row(n)


def test_csv_and_json_emission():
    table = dist_from_enumeration(3, "all", ("rmax",))
    lines = list(table.csv_lines())
    assert lines[0] == "n,rmax,count"
    assert "3,1,2" in lines and "3,2,3" in lines and "3,3,1" in lines
    doc = json.loads(table.to_json())
    assert doc["class"] == "all"
    assert doc["stats"] == ["rmax"]
    assert doc["rows"]["3"] == [[[1], 2], [[2], 3], [[3], 1]]


def test_series_from_enumeration_matches_dist():
    for n in range(1, 6):
        series = series_from_enumeration(5)
        poly = series.coefficient(n)
        table = dist_from_enumeration(n, "all", STAT_NAMES)
        total = sum(c for _, c in poly.terms())
        assert total == count_separable(n)
        for key, cnt in table.row(n).items():
            # table key order == STAT_NAMES == variable order (p,q,x,y,u,v)
            assert poly.coefficient(key) == cnt


def test_dist_matches_a_tally_over_the_filter_stream():
    # the brute-force filter and the irreducibility predicate share no code
    # with the structural stream the census walks
    in_class = {
        "all": lambda irr: True,
        "irreducible": lambda irr: irr,
        "reducible": lambda irr: not irr,
    }
    for n in range(1, 8):
        perms = [(stats(pi), is_irreducible(pi)) for pi in enumerate_filter(n)]
        for cls, keep in in_class.items():
            for names in (STAT_NAMES, ("rmin", "asc")):
                want = Counter(
                    tuple(getattr(profile, s) for s in names)
                    for profile, irr in perms
                    if keep(irr)
                )
                got = dist_from_enumeration(n, cls, names).row(n)
                assert got == dict(want), (n, cls, names)


def test_census_walks_the_stream_once_per_length_and_class(monkeypatch):
    # every walk starts once, at its own (length, class): its sides are
    # shorter than its length
    walks = []

    def starting(real):
        def step(walk, n, cls, *rest):
            if n == walk.n:
                walks.append((n, cls))
            return real(walk, n, cls, *rest)

        return step

    for step in ("groups", "table"):
        real = getattr(distributions._Walk, step)
        monkeypatch.setattr(distributions._Walk, step, starting(real))
    distributions._census.cache_clear()
    try:
        for cls in ("all", "irr", "irreducible", "red"):
            for names in (("lmax",), ("lmax", "rmax"), ("rmax", "lmin"), STAT_NAMES):
                for n in (4, 5):
                    dist_from_enumeration(n, cls, names)
        series_from_enumeration(5, "irr")
    finally:
        distributions._census.cache_clear()
    want = [(n, cls) for cls in ("all", "irreducible", "reducible") for n in (4, 5)]
    want += [(n, "irreducible") for n in (1, 2, 3)]
    assert sorted(walks) == sorted(want)


@pytest.mark.parametrize("rule", ["_SUM_RULE", "_SKEW_RULE"])
def test_census_rejects_keys_composed_by_a_mutated_rule(
    monkeypatch, fresh_memos, rule
):
    head_mask, tail_mask, _ = getattr(enumeration, rule)
    monkeypatch.setattr(enumeration, rule, (head_mask, tail_mask, 0))  # no junction
    with pytest.raises(AssertionError, match="differ from the kernel"):
        distributions._census(2, "all")


def _checked_words(monkeypatch, n: int, cls: str, stride: int) -> list[bytes]:
    checked = []
    monkeypatch.setattr(distributions, "_SAMPLE_EVERY", stride)
    monkeypatch.setattr(
        distributions, "_check_key", lambda word, key: checked.append(word)
    )
    distributions._census.cache_clear()
    try:
        distributions._census(n, cls)
    finally:
        distributions._census.cache_clear()
    return checked


@pytest.mark.parametrize("cls", ["all", "irreducible", "reducible"])
def test_census_checks_every_word_at_stride_one(monkeypatch, cls):
    checked = _checked_words(monkeypatch, 6, cls, 1)
    assert sorted(checked) == list(distributions.iter_separable_bytes(6, cls))


def _group_order(n: int) -> tuple[list[bytes], set[int]]:
    """The words of length n in the census's group order, while no side is
    past the key cap, and the groups' first and last positions: the
    side with fewer words (the heads on a tie) varies slowest."""
    words, ends = [], set()
    for _, i, head_cls, head_shift, tail_shift, _ in enumeration._groups(n, "all"):
        heads = [h.translate(head_shift) for h in iter_separable_bytes(i, head_cls)]
        tails = [t.translate(tail_shift) for t in iter_separable_bytes(n - i)]
        ends |= {len(words), len(words) + len(heads) * len(tails) - 1}
        if len(heads) <= len(tails):
            words += [h + t for h in heads for t in tails]
        else:
            words += [h + t for t in tails for h in heads]
    return words, ends


@pytest.mark.parametrize(
    "n, stride",
    # the last stride passes the end: only the groups' first and last words
    [(7, 7), (8, distributions._SAMPLE_EVERY), (7, 10**9)],
)
def test_census_checks_words_at_the_sampling_stride(monkeypatch, n, stride):
    words, ends = _group_order(n)
    assert sorted(words) == list(iter_separable_bytes(n))
    checked = _checked_words(monkeypatch, n, "all", stride)
    assert len(set(checked)) == len(checked)
    # every stride-th word of the walk, plus the groups' first and last
    picks = set(range(0, len(words), stride)) | ends
    assert set(checked) == {words[p] for p in picks}


def test_census_walking_sides_past_the_table_sides_matches_the_fixpoint():
    # at this length the sides one longer than the key cap are walked
    # group by group, from the tables
    n = enumeration._KEY_CAP + 2
    S, I = solve_fixpoint(n)
    want = {
        "all": S.coefficient(n),
        "irreducible": I.coefficient(n),
        "reducible": S.coefficient(n) - I.coefficient(n),
    }
    for cls, poly in want.items():
        assert distributions._census(n, cls) == poly, cls


def test_census_is_the_tally_of_its_key_stream():
    for cls in ("all", "irreducible", "reducible"):
        for n in range(1, 9):
            tally = Counter(enumeration._key_stream(n, cls))
            assert distributions._census(n, cls)._terms == dict(tally), (cls, n)


def test_dist_tables_equal_a_per_term_projection_of_the_census():
    for cls in ("all", "irreducible", "reducible"):
        for n in range(1, 9):
            terms = list(distributions._census(n, cls).terms())
            for r in range(1, len(STAT_NAMES) + 1):
                for names in itertools.combinations(STAT_NAMES, r):
                    idx = [STAT_NAMES.index(s) for s in names]
                    want: dict[tuple[int, ...], int] = {}
                    for profile, c in terms:
                        key = tuple(profile[i] for i in idx)
                        want[key] = want.get(key, 0) + c
                    ref = DistTable(cls, names, {n: want})
                    got = dist_from_enumeration(n, cls, names)
                    assert got.row(n) == want, (cls, n, names)
                    assert {type(c) for c in got.row(n).values()} <= {int}
                    assert list(got.csv_lines()) == list(ref.csv_lines())
                    assert got.to_json() == ref.to_json()


def _corrupt_column(monkeypatch, name: str, n: int, corrupt) -> None:
    """Corrupt the census's word or key column of length n, class all."""
    real = getattr(distributions, name)

    def corrupted(m, cls="all"):
        column = list(real(m, cls))
        return iter(corrupt(column) if (m, cls) == (n, "all") else column)

    monkeypatch.setattr(distributions, name, corrupted)


@pytest.mark.parametrize("extra", [-1, 1])
def test_census_rejects_streams_of_different_lengths(
    monkeypatch, fresh_memos, extra
):
    # (3, all) is the tail column of the groups with a head of length 1:
    # a key too few or too many changes the row total
    _corrupt_column(
        monkeypatch,
        "_key_stream",
        3,
        lambda keys: keys[:-1] if extra < 0 else [*keys, keys[-1]],
    )
    with pytest.raises(AssertionError, match="row total"):
        distributions._census(4, "all")


def test_census_rejects_a_word_column_shorter_than_its_keys(
    monkeypatch, fresh_memos
):
    # the tally is whole, but the last word of a group has no word to check
    _corrupt_column(monkeypatch, "iter_separable_bytes", 3, lambda words: words[:-1])
    with pytest.raises(ValueError, match="differ in length"):
        distributions._census(4, "all")


def test_census_rejects_a_swapped_sampled_key(monkeypatch, fresh_memos):
    # the tally is the same multiset, so only the check of a group's first
    # word, 1 + 123 reading the key of 132, sees the swap
    def swapped(keys):
        assert keys[0] != keys[1]
        return [keys[1], keys[0], *keys[2:]]

    _corrupt_column(monkeypatch, "_key_stream", 3, swapped)
    with pytest.raises(AssertionError, match="differ from the kernel"):
        distributions._census(4, "all")


def _swap_masked_keys(m: int, cls: str, mask: int) -> None:
    """Swap the first two keys of the census's memoized masked column."""
    masked = distributions._masked_keys(m, cls, mask)
    assert masked[0] != masked[1]
    masked[0], masked[1] = masked[1], masked[0]


def test_census_rejects_a_swapped_key_in_a_masked_column(fresh_memos):
    # in the group of irreducible heads of length 3 and tails of length 2
    # the census loops over the two tails and reads the heads' column
    # masked by the sum rule's head mask; a swap there leaves the tally's
    # multiset and the key stream as they are, so only the check of the
    # group's first word sees it
    _swap_masked_keys(3, "irreducible", enumeration._SUM_RULE[0])
    with pytest.raises(AssertionError, match="differ from the kernel"):
        distributions._census(5, "all")


def test_census_rejects_a_swapped_key_in_a_single_word_group(fresh_memos):
    # the direct sums with head 1 loop over that one head and read the
    # tails' column (3, all) masked by the sum rule's tail mask
    _swap_masked_keys(3, "all", enumeration._SUM_RULE[1])
    with pytest.raises(AssertionError, match="differ from the kernel"):
        distributions._census(4, "all")


@pytest.fixture
def warm_census_memos():
    """Fill the census's memos before a fixture that must empty them."""
    distributions._census(2, "all")
    distributions._masked_keys(2, "all", enumeration._EVERY_LANE)


def test_fresh_memos_empties_every_memo(warm_census_memos, fresh_memos):
    names = {memo.__name__ for memo in fresh_memos}
    assert names >= {"_census", "_masked_keys", "_sn_profiles", "_extremes"}
    for memo in fresh_memos:
        assert memo.cache_info().currsize == 0, memo.__name__


def test_census_above_the_memo_cap_equals_the_default_census(
    monkeypatch, fresh_memos
):
    # with the key cap at 3, sides of length 4 to 6 are walked group by
    # group
    want = {
        (n, cls): distributions._census(n, cls)
        for n in range(1, 8)
        for cls in ("all", "irreducible", "reducible")
    }
    distributions._census.cache_clear()
    monkeypatch.setattr(enumeration, "_KEY_CAP", 3)
    monkeypatch.setattr(enumeration, "_TABLES", {1: enumeration._TABLES[1]})
    for (n, cls), poly in want.items():
        assert distributions._census(n, cls) == poly, (n, cls)
    assert set(enumeration._TABLES) == {1, 2, 3}


def test_a_cold_census_never_tables_its_own_length(fresh_memos):
    for cls in ("all", "irreducible", "reducible"):
        distributions._census(7, cls)
    assert set(enumeration._TABLES) == {1, 2, 3, 4, 5, 6}
    # nor any length past the key cap
    distributions._census(enumeration._KEY_CAP + 2, "all")
    assert max(enumeration._TABLES) == enumeration._KEY_CAP


def test_series_from_enumeration_cap():
    with pytest.raises(ValueError):
        series_from_enumeration(HARD_CAP + 1)
    with pytest.raises(ValueError):
        series_from_enumeration(0)
    with pytest.raises(ValueError):
        dist_from_enumeration(HARD_CAP + 1, "all", ("rmax",))


def test_counts_by_variable():
    poly = parse_poly("2x^2y + 3xy + y^2")
    assert counts_by_variable(poly, "x") == {0: 1, 1: 3, 2: 2}
    assert counts_by_variable(poly, "y") == {1: 5, 2: 1}
    with pytest.raises(AssertionError):
        counts_by_variable(parse_poly("x") - 2 * parse_poly("x"), "x")


def test_table_rows_and_render():
    rows3 = table_rows(3)
    assert rows3[0] == [1]
    assert rows3[3] == [6, 9, 6, 1]
    rows5 = table_rows(5)
    assert rows5[1] == [1]  # irreducible lmax row for n=2, last column dropped
    text = render_table(4)
    assert text.endswith("\n")
    assert text.splitlines()[7] == "0 1092 1288 1069 607 195 27 1"
    with pytest.raises(ValueError):
        render_table(6)


def test_pair_variable_binding_calibration():
    """Pin the statistic-to-variable binding of the pair closed forms.

    For each ordered pair the closed form must match the census with
    lmax -> x, rmax -> y, lmin -> u, rmin -> v.  Over ALL separables each
    pair distribution happens to be swap-symmetric (a reversal or
    complement exchanges the two statistics), so the binding is pinned on
    the irreducible class, where those symmetries flip reducibility and
    the joint distribution is genuinely asymmetric.
    """
    order = 6
    for cls in ("all", "irreducible", "reducible"):
        census = series_from_enumeration(order, cls)
        for pair in SET2_PAIRS:
            closed = closed_form_pair_set2(order, pair, cls)
            lanes = {STAT_TO_VARIABLE[s] for s in pair}
            projected = census
            for var in VARIABLES:
                if var not in lanes:
                    projected = projected.specialize(var)
            assert closed.first_difference(projected) is None, (cls, pair)
    # asymmetry witness: irreducible 21 has lmax=1, rmax=2, so the
    # irreducible (lmax, rmax) series has xy^2 but not x^2y at order 2
    irr = closed_form_pair_set2(order, ("lmax", "rmax"), "irreducible")
    c2 = irr.coefficient(2)
    assert c2.coefficient((0, 0, 1, 2, 0, 0)) == 1
    assert c2.coefficient((0, 0, 2, 1, 0, 0)) == 0
