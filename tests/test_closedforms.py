"""The closed-form builders: argument spellings and the memo story."""

import pytest

from sepstats import closedforms

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
