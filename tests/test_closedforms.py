"""The closed-form builders: argument spellings, the order rule, the
coefficient types and the memo story."""

import pytest

from sepstats import closedforms
from sepstats.enumeration import CLASSES
from sepstats.series import assert_counting_series

ORDER = 5


@pytest.mark.parametrize(
    "build, stats",
    [
        (closedforms.closed_form_pair_set2, ("lmax", "rmax")),
        (closedforms.closed_form_pair_set2, ("rmin", "lmin")),
        (closedforms.closed_form_pair_set1, ("rmax", "lmin")),
        (closedforms.closed_form_pair_set1, ("lmax", "rmin")),
        (closedforms.closed_form_triple, ("lmax", "rmax", "lmin")),
        (closedforms.closed_form_triple, ("rmax", "rmin", "lmax")),
    ],
)
@pytest.mark.parametrize("alias, cls", [("irr", "irreducible"), ("red", "reducible")])
def test_list_arguments_and_class_aliases_build_the_canonical_series(
    build, stats, alias, cls
):
    assert build(ORDER, list(stats), alias) == build(ORDER, stats, cls)


def test_e_function_accepts_a_list_of_lanes():
    lanes = ("y", "v", "x")
    assert closedforms.e_function(ORDER, list(lanes)) == closedforms.e_function(
        ORDER, lanes
    )


def test_only_the_class_independent_series_are_memoized():
    memoized = {
        name
        for name, obj in vars(closedforms).items()
        if hasattr(obj, "cache_info")
    }
    assert memoized == {
        "discriminant_root",
        "_single_gf_by_lane",
        "_single_split_by_lane",
        "_e_function_by_lanes",
    }


@pytest.mark.parametrize(
    "cls, triples",
    [
        ("irreducible", [(("rmin", "rmax", "lmin"), "all")]),
        (
            "reducible",
            [(("rmax", "rmin", "lmax"), "irreducible"), (("lmin", "rmin", "lmax"), "all")],
        ),
    ],
)
def test_quad_builds_only_the_requested_class(monkeypatch, cls, triples):
    real = closedforms.closed_form_triple
    calls = []

    def recording(order, triple, perm_class="all"):
        calls.append((tuple(triple), perm_class))
        return real(order, triple, perm_class)

    monkeypatch.setattr(closedforms, "closed_form_triple", recording)
    closedforms.closed_form_quad(ORDER, cls)
    assert calls == triples


@pytest.mark.parametrize("stat", ["asc", "des"])
@pytest.mark.parametrize(
    "build",
    [
        closedforms.closed_form_S_single,
        closedforms.closed_form_I_single,
        closedforms.closed_form_R_single,
        lambda order, stat: closedforms.closed_form(order, (stat,)),
    ],
    ids=["S", "I", "R", "closed_form"],
)
def test_single_forms_refuse_ascents_and_descents(build, stat):
    # the two-radical form is stated for the four extreme-value statistics
    with pytest.raises(ValueError, match="no closed form"):
        build(ORDER, stat)


@pytest.mark.parametrize(
    "build, order, message",
    [
        (closedforms.closed_form_S_single, 0, "must be >= 1, got 0"),
        (closedforms.closed_form_pair_set2, 0, "must be >= 1, got 0"),
        (closedforms.closed_form_pair_set1, 0, "must be >= 1, got 0"),
        (closedforms.closed_form_triple, 0, "must be >= 1, got 0"),
        (closedforms.closed_form_quad, 0, "must be >= 1, got 0"),
        (closedforms.e_function, 0, "must be >= 1, got 0"),
        (closedforms.closed_form_S_single, -1, "must be >= 1, got -1"),
        # the radical would need order 256, one past the lane width
        (closedforms.closed_form_quad, 255, "closed-form order 255 .* exceeds 255"),
    ],
)
def test_closed_forms_reject_an_order_as_given(build, order, message):
    with pytest.raises(ValueError, match=message):
        build(order)


@pytest.mark.parametrize("stats", closedforms.FORMS, ids="-".join)
def test_closed_forms_have_non_negative_int_coefficients(stats):
    # MultiPoly equality reads 2 == Fraction(2) as equal, so only a type
    # check catches an int coefficient that drifts to a whole Fraction
    for cls in CLASSES:
        assert_counting_series(
            closedforms.closed_form(12, stats, cls), f"{stats} {cls}"
        )


@pytest.mark.parametrize("lane", ["x", "y", "u", "v"])
def test_the_single_split_matches_its_two_divisions(lane):
    s = closedforms._single_gf_by_lane(20, lane)
    split = closedforms._single_split_by_lane(20, lane)
    assert split == ((s * s).divide(s + 1), s.divide(s + 1))
    for part in split:
        assert_counting_series(part, f"split in {lane}")
