"""The closed-form builders: argument spellings, the order rule, the
coefficient types and the memo story."""

import hashlib
import re

import pytest

from sepstats import closedforms
from sepstats.enumeration import CLASSES
from sepstats.series import MultiPoly, TruncSeries, assert_counting_series

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


@pytest.mark.parametrize(
    "lanes", [("x", "x", "y"), ("x", "y"), ("x", "y", "u", "v"), ("x", "y", "w")]
)
def test_e_function_rejects_lanes_that_are_not_three_distinct_variables(lanes):
    with pytest.raises(ValueError, match=re.escape(f"got {lanes}")):
        closedforms.e_function(ORDER, lanes)


def _memos() -> list:
    return [obj for obj in vars(closedforms).values() if hasattr(obj, "cache_clear")]


#: ``_longest``'s key of every canonical piece: the radical, S(t,z) and
#: its split in each lane, and each multi-lane piece.
_PIECE_KEYS = (
    closedforms._RADICAL,
    *"xyuv",
    *(f"split {lane}" for lane in "xyuv"),
    "set2",
    "set1",
    "E",
    "EQ",
    "quad I",
    "quad R",
)


def test_only_the_canonical_family_series_are_memoized(cold_memos):
    # one prefix memo, one entry per canonical piece; only the one-lane
    # series also keep their renamings, each under its lane
    assert [memo.__name__ for memo in _memos()] == ["_longest"]
    for stats in closedforms.FORMS:
        for cls in CLASSES:
            closedforms.closed_form(ORDER, stats, cls)
    assert all(closedforms._longest(key) for key in _PIECE_KEYS)
    assert closedforms._longest.cache_info().currsize == len(_PIECE_KEYS)


def _as_tuple(build):
    """``build``, which returns one piece or a tuple of them, as a tuple."""

    def pieces(order):
        built = build(order)
        return built if isinstance(built, tuple) else (built,)

    return pieces


#: Every prefix-memo piece, read at a lower and a higher order.
_PREFIX_PIECES = [
    pytest.param(_as_tuple(closedforms.discriminant_root), (14, 40), id="radical"),
    *(
        pytest.param(
            _as_tuple(lambda order, lane=lane: closedforms._single_gf_by_lane(order, lane)),
            (14, 40),
            id=lane,
        )
        for lane in "xyuv"
    ),
    *(
        pytest.param(
            lambda order, lane=lane: closedforms._single_split_by_lane(order, lane),
            (8, 13),
            id=f"split-{lane}",
        )
        for lane in "xu"
    ),
    pytest.param(closedforms._set2_parts, (8, 13), id="set2"),
    pytest.param(closedforms._set1_parts, (8, 13), id="set1"),
    pytest.param(_as_tuple(closedforms._e_xyu), (8, 13), id="E"),
    pytest.param(_as_tuple(closedforms._triple_tail), (8, 13), id="EQ"),
    pytest.param(_as_tuple(closedforms._quad_irreducible), (8, 11), id="quad-I"),
    pytest.param(_as_tuple(closedforms._quad_reducible), (8, 11), id="quad-R"),
]


@pytest.mark.parametrize("build, orders", _PREFIX_PIECES)
def test_the_radical_and_s_memos_truncate_their_longest_series(cold_memos, build, orders):
    # one memo entry per piece: a lower order is the highest one built,
    # truncated, equal to a cold build in values, types and order
    def built(order):
        pieces = build(order)
        assert type(pieces) is tuple and {s.order for s in pieces} == {order}
        return [_typed(s) for s in pieces]

    cold = {}
    for order in orders:
        for memo in _memos():
            memo.cache_clear()
        cold[order] = built(order)
    for ordered in (orders, orders[::-1]):
        for memo in _memos():
            memo.cache_clear()
        for order in ordered:
            assert built(order) == cold[order], (ordered, order)


def test_each_family_is_built_once_per_order(monkeypatch, cold_memos):
    # Every radical, division and inverse (a division of 1) runs once per
    # canonical piece, however many tuples and classes read it.
    calls = {"sqrt": 0, "divide": 0}

    def counting(name):
        real = getattr(TruncSeries, name)

        def wrapper(self, *args):
            calls[name] += 1
            return real(self, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(TruncSeries, name, counting(name))
    for stats in closedforms.FORMS:
        for cls in CLASSES:
            closedforms.closed_form(8, stats, cls)
    # sqrt: the discriminant root and the root inside S(t,x)
    assert calls["sqrt"] == 2
    # divide: S(t,x) and its inner radicand's /16, the split's inverse, the
    # set-2 and set-1 quotients; E and the triples are products of these
    assert calls["divide"] == 5


def _typed(series: TruncSeries) -> list:
    """Every coefficient with its key and int/Fraction type, as equality
    reads 2 == Fraction(2) as equal."""
    return [
        sorted((key, type(c), c) for key, c in poly._terms.items())
        for poly in series.coefficients()
    ]


def _literal_triple_parts(order: int) -> tuple[TruncSeries, TruncSeries, TruncSeries]:
    """E(t, x, y, u), the (lmax, rmax, lmin) triple's full series and its
    bracket as the paper writes them, each by its own division:

    E = t x y u + (S(x)+1)(S(y)+1)(S(u)+1) t^2 x^2 y u
                  / ((1 - S(x)S(u)) (1 - S(x)S(y))),
    E / (1 - A - t y u) and (t x y u + (A + t y u)(E - t x y u)) / (1 - A - t y u)
    with A = S(y) I(u) and I(u) = S(u)^2/(1+S(u)) + t u."""
    s1, s2, s3 = (closedforms._single_gf_by_lane(order, lane) for lane in "xyu")
    x, y, u = map(MultiPoly.variable, "xyu")
    tz123 = TruncSeries.term(order, 1, x * y * u)
    num = (s1 + 1) * (s2 + 1) * (s3 + 1) * TruncSeries.term(order, 2, x * x * y * u)
    e_ser = tz123 + num.divide((1 - s1 * s3) * (1 - s1 * s2))
    tu = TruncSeries.term(order, 1, u)
    i_u = closedforms._single_split_by_lane(order, "u")[0] + tu
    a_tz = s2 * i_u + TruncSeries.term(order, 1, y * u)
    quotient = e_ser.divide(1 - a_tz)
    bracket = (tz123 + a_tz * (e_ser - tz123)).divide(1 - a_tz)
    return e_ser, quotient, bracket


@pytest.mark.parametrize("order", range(1, 15))
def test_e_and_the_triples_equal_the_papers_literal_formulas(order):
    # E from the two set-2 quotients and the triples from the set-1
    # quotient against the paper's divisions, values and types
    e_ser, quotient, bracket = _literal_triple_parts(order)
    triple = ("lmax", "rmax", "lmin")
    assert _typed(closedforms.e_function(order)) == _typed(e_ser)
    assert _typed(closedforms.closed_form_triple(order, triple)) == _typed(quotient)
    assert _typed(
        closedforms.closed_form_triple(order, triple, "irreducible")
    ) == _typed(bracket)


def test_closed_forms_match_their_recorded_coefficients():
    # sha256 of every coefficient, its key and its int/Fraction type, for
    # every tuple and class at order 12, as the per-lane builders gave them
    digest = hashlib.sha256()
    for stats in closedforms.FORMS:
        for cls in CLASSES:
            series = closedforms.closed_form(12, stats, cls)
            for n, poly in enumerate(series.coefficients()):
                for key, c in sorted(poly._terms.items()):
                    digest.update(repr((n, key, type(c).__name__, c)).encode())
    assert digest.hexdigest() == (
        "bb1722add22f7ef35a58cf2b07001d04d7b5c20aa1851421316092066dbc0635"
    )


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
def test_quad_builds_only_the_requested_class(monkeypatch, cold_memos, cls, triples):
    real = closedforms.closed_form_triple
    calls = []

    def recording(order, triple, perm_class="all"):
        calls.append((tuple(triple), perm_class))
        return real(order, triple, perm_class)

    monkeypatch.setattr(closedforms, "closed_form_triple", recording)
    closedforms.closed_form_quad(ORDER, cls)
    assert calls == triples


@pytest.mark.parametrize("cls", CLASSES)
def test_the_quad_asks_its_triples_and_e_one_order_short(monkeypatch, cold_memos, cls):
    # both quad products have factors without a t^0 term, so neither reads
    # a factor's top coefficient
    asked = []
    for name in ("closed_form_triple", "e_function"):
        real = getattr(closedforms, name)

        def recording(order, *args, real=real, name=name):
            asked.append((name, order))
            return real(order, *args)

        monkeypatch.setattr(closedforms, name, recording)
    closedforms.closed_form_quad(9, cls)
    assert asked and {order for _, order in asked} == {8}


def test_the_short_product_is_exact_and_refuses_what_it_cannot_be_exact_for():
    s_x = closedforms._single_gf_by_lane(9, "x")
    s_y = closedforms._single_gf_by_lane(9, "y")
    short = [TruncSeries(s.coefficients()[:9]) for s in (s_x, s_y)]
    assert _typed(closedforms._short_product(9, *short)) == _typed(s_x * s_y)
    with pytest.raises(ValueError, match=r"needs no t\^0 term, got 1"):
        closedforms._short_product(9, short[0] + 1, short[1])
    with pytest.raises(ValueError, match="known to order 7 cannot give a product to order 9"):
        closedforms._short_product(9, short[0], TruncSeries(s_y.coefficients()[:8]))


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
        (closedforms.schroeder_gf, -1, "must be >= 1, got -1"),
        (closedforms.little_schroeder_gf, -1, "must be >= 1, got -1"),
        # the radical would need order 256, one past the lane width; every
        # closed form refuses that order before it asks a lower piece
        *(
            (build, 255, "closed-form order 255 .* exceeds 255")
            for build in (
                closedforms.closed_form_quad,
                closedforms.closed_form_triple,
                closedforms.e_function,
                closedforms.closed_form_pair_set2,
                closedforms.closed_form_pair_set1,
                closedforms.closed_form_I_single,
                closedforms.closed_form_R_single,
            )
        ),
    ],
)
def test_closed_forms_reject_an_order_as_given(build, order, message):
    with pytest.raises(ValueError, match=message):
        build(order)


@pytest.mark.parametrize(
    "build",
    [
        closedforms.discriminant_root,
        closedforms.closed_form_S_single,
        closedforms.closed_form_pair_set2,
        closedforms.closed_form_pair_set1,
        closedforms.closed_form_triple,
        closedforms.e_function,
        closedforms.closed_form_quad,
    ],
)
@pytest.mark.parametrize("bad, good", [(4.0, 4), (True, 1)], ids=["float", "bool"])
def test_an_order_that_is_not_an_int_is_refused_cold_and_warm(cold_memos, build, bad, good):
    with pytest.raises(ValueError, match="must be an integer"):
        build(bad)
    build(good)
    # the memos hold the int order now, and still do not answer for it
    with pytest.raises(ValueError, match="must be an integer"):
        build(bad)


@pytest.mark.parametrize("stats", closedforms.FORMS, ids="-".join)
def test_closed_forms_have_non_negative_int_coefficients(stats):
    # MultiPoly equality reads 2 == Fraction(2) as equal, so only a type
    # check catches an int coefficient that drifts to a whole Fraction
    for cls in CLASSES:
        assert_counting_series(
            closedforms.closed_form(12, stats, cls), f"{stats} {cls}"
        )


@pytest.mark.parametrize(
    "build", [closedforms.schroeder_gf, closedforms.little_schroeder_gf]
)
def test_the_counting_series_have_int_coefficients(build):
    # the radical is halved or quartered, and whole values stay int
    assert_counting_series(build(30), build.__name__)


@pytest.mark.parametrize("lane", ["x", "y", "u", "v"])
def test_the_single_split_matches_its_two_divisions(lane):
    s = closedforms._single_gf_by_lane(20, lane)
    split = closedforms._single_split_by_lane(20, lane)
    assert split == ((s * s).divide(s + 1), s.divide(s + 1))
    for part in split:
        assert_counting_series(part, f"split in {lane}")
