"""Distribution tables: census consistency, marginals, emission, bindings."""

import json
from collections import Counter

import pytest

from sepstats import distributions, enumeration
from sepstats.closedforms import SET2_PAIRS, closed_form_pair_set2
from sepstats.distributions import (
    STAT_NAMES,
    STAT_TO_VARIABLE,
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
)
from sepstats.permutations import is_irreducible, stats
from sepstats.series import VARIABLES, parse_poly


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
    walks = []
    real = distributions.iter_separable_bytes

    def counting(n, cls="all"):
        walks.append((n, cls))
        return real(n, cls)

    monkeypatch.setattr(distributions, "iter_separable_bytes", counting)
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


def test_census_checks_words_at_the_sampling_stride(monkeypatch):
    checked = []
    monkeypatch.setattr(
        distributions, "_check_key", lambda word, key: checked.append(word)
    )
    distributions._census.cache_clear()
    try:
        distributions._census(8, "all")
    finally:
        distributions._census.cache_clear()
    words = list(distributions.iter_separable_bytes(8, "all"))
    stride = distributions._SAMPLE_EVERY
    assert checked == words[::stride] + [words[-1]]


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
