"""Series engine: polynomial arithmetic, series calculus, solver, I/O."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sepstats.series import (
    MAX_ORDER,
    MultiPoly,
    TruncSeries,
    VARIABLES,
    canonical_json,
    document_to_series,
    parse_poly,
    series_to_document,
    solve_fixpoint,
    solve_master_fixpoint,
)


# -- polynomials ------------------------------------------------------------


def test_poly_ring_axioms_on_samples():
    x = MultiPoly.variable("x")
    y = MultiPoly.variable("y")
    a = 2 * x * y + 3
    b = x - y
    c = y * y + 1
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a - a).is_zero()
    assert a + MultiPoly.zero() == a
    assert a * MultiPoly.one() == a


def test_poly_coefficient_lookup_and_terms():
    p = parse_poly("3x^2y + v")
    assert p.coefficient((0, 0, 2, 1, 0, 0)) == 3
    assert p.coefficient((0, 0, 0, 0, 0, 1)) == 1
    assert p.coefficient((1, 0, 0, 0, 0, 0)) == 0
    assert len(list(p.terms())) == 2


def test_poly_specialize_and_map_variables():
    p = parse_poly("x^2y + xy + y")
    assert p.specialize("x") == parse_poly("3y")
    assert p.specialize("y", 0) == MultiPoly.zero()
    q = p.map_variables({"x": "u", "y": "v"})
    assert q == parse_poly("u^2v + uv + v")
    with pytest.raises(ValueError):
        parse_poly("x + y").map_variables({"x": "y"})


def test_poly_fraction_coefficients_normalize():
    p = MultiPoly.variable("x") * Fraction(1, 2)
    assert (p + p) == MultiPoly.variable("x")
    assert (p + p).coefficient((0, 0, 1, 0, 0, 0)) == 1
    # whole Fractions collapse to int so dict equality stays canonical
    q = MultiPoly.variable("x") * Fraction(2, 1)
    assert q == 2 * MultiPoly.variable("x")


def test_parse_poly_round_trip_via_str():
    for text in ("p^2 + 4*p*q + q^2", "x", "2", "x^3y + 2*x^2*y^2 + x*y^3"):
        p = parse_poly(text)
        assert parse_poly(str(p)) == p


def test_parse_poly_rejects_garbage():
    for bad in ("", "x +", "z", "x^", "3..2"):
        with pytest.raises(ValueError):
            parse_poly(bad)


# -- truncated series -------------------------------------------------------


def test_series_geometric_inverse():
    t = TruncSeries.t(8)
    geom = (1 - t).invert()
    assert all(geom.coefficient(n) == MultiPoly.one() for n in range(9))
    assert (geom * (1 - t)).is_one()


def test_series_sqrt_squares_back():
    t = TruncSeries.t(10)
    s = (1 - 6 * t + t * t).sqrt()
    assert s * s == 1 - 6 * t + t * t
    assert s.coefficient(0) == MultiPoly.one()
    with pytest.raises(ValueError):
        (2 + t).sqrt()


def test_series_divide_respects_valuation():
    t = TruncSeries.t(10)
    num = t * t + t * t * t  # valuation 2
    den = t  # valuation 1
    quot = num.divide(den)
    assert quot.coefficient(1) == MultiPoly.one()
    assert quot.coefficient(2) == MultiPoly.one()
    with pytest.raises(ZeroDivisionError):
        t.divide(TruncSeries.zero(10))


def test_series_truncation_on_mixed_order_arithmetic():
    a = TruncSeries.t(8)
    b = TruncSeries.t(5)
    assert (a + b).order == 5
    assert (a * b).order == 5


def test_series_specialize_and_agreement():
    s, i = solve_fixpoint(6, ("x", "y"))
    s_y = s.specialize("x")
    s_plain = solve_fixpoint(6, ("y",))[0]
    assert s_y == s_plain
    assert s_y.first_difference(s_plain, through=6) is None
    assert s_y.first_difference(s) is not None  # different variable sets


# -- the solver -------------------------------------------------------------


def test_fixpoint_counting_specialization():
    s, i = solve_fixpoint(10, ())
    sep = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098]
    irr = [1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049]
    for n in range(1, 11):
        assert s.coefficient(n).constant_term() == sep[n - 1]
        assert i.coefficient(n).constant_term() == irr[n - 1]


def test_series_roots_enforce_the_lane_width():
    from sepstats.closedforms import (
        closed_form_S_single,
        discriminant_root,
        schroeder_gf,
    )

    # the largest accepted order at both roots, which agree there
    s, _ = solve_fixpoint(MAX_ORDER, ())
    assert MAX_ORDER == 255
    assert s.coefficient(MAX_ORDER) == schroeder_gf(MAX_ORDER).coefficient(MAX_ORDER)
    assert discriminant_root(MAX_ORDER).order == MAX_ORDER
    # the first rejected order, before any work is done; a closed form of
    # order n takes the radical at order n + 1
    for root, order in (
        (lambda n: solve_fixpoint(n, ("y",)), MAX_ORDER + 1),
        (discriminant_root, MAX_ORDER + 1),
        (closed_form_S_single, MAX_ORDER),
    ):
        with pytest.raises(ValueError, match="exceeds 255"):
            root(order)


def test_fixpoint_known_low_order_coefficients():
    s, _ = solve_fixpoint(3, ("x", "y"))
    assert s.coefficient(3) == parse_poly("x^3y + 2x^2y^2 + xy^3 + x^2y + xy^2")
    s_pq, i_pq = solve_fixpoint(3, ("p", "q"))
    assert s_pq.coefficient(3) == parse_poly("p^2 + 4pq + q^2")
    assert i_pq.coefficient(3) == parse_poly("2pq + q^2")


def test_solve_master_fixpoint_default_order():
    s, i = solve_master_fixpoint(4)
    assert s.order == 4
    total = sum(c for _, c in s.coefficient(4).terms())
    assert total == 22


def test_fixpoint_rejects_bad_active_set():
    with pytest.raises(ValueError):
        solve_fixpoint(4, ("w",))


def test_counting_series_check_names_the_first_bad_term():
    from sepstats.series import assert_counting_series

    assert_counting_series(TruncSeries([MultiPoly.zero(), parse_poly("x + 2y")]))
    for bad, shown in (
        (parse_poly("x - y"), "(0, 0, 0, 1, 0, 0) is -1"),
        (MultiPoly.constant(Fraction(1, 2)), "(0, 0, 0, 0, 0, 0) is 1/2"),
        (MultiPoly({0: Fraction(3)}), "(0, 0, 0, 0, 0, 0) is 3"),
    ):
        message = re.escape(f"S: coefficient of t^1 monomial {shown}")
        with pytest.raises(AssertionError, match=message):
            assert_counting_series(TruncSeries([MultiPoly.one(), bad]), "S")


# -- serialization ----------------------------------------------------------


def test_series_document_round_trip_bit_exact():
    s, _ = solve_fixpoint(6, ("x", "y", "u"))
    doc = series_to_document("test", s)
    back = document_to_series(doc)
    assert back == s
    # canonical JSON is deterministic
    assert canonical_json(doc) == canonical_json(
        series_to_document("test", back)
    )


def test_series_document_preserves_fractions():
    from sepstats.closedforms import schroeder_gf

    # the radical construction passes through Fractions internally
    s = schroeder_gf(8)
    doc = series_to_document("radical", s)
    assert document_to_series(doc) == s


def test_document_shape():
    t = TruncSeries.term(3, 2, parse_poly("xy"))
    doc = series_to_document("xy-term", t)
    assert doc["order"] == 3
    assert doc["variables"] == list(VARIABLES)
    assert doc["coefficients"]["2"] == [[[0, 0, 1, 1, 0, 0], 1, 1]]
    assert doc["coefficients"]["0"] == []


# -- properties of the series kernel -----------------------------------------

# Integer polynomials in x and y with small exponents and coefficients.
_polys = st.dictionaries(
    st.tuples(st.just(0), st.just(0), st.integers(0, 2), st.integers(0, 2),
              st.just(0), st.just(0)),
    st.integers(-4, 4),
    max_size=3,
).map(MultiPoly.from_exponents)


@st.composite
def _series(draw, constant=None, order=None):
    """A random series of order <= 8; ``constant`` strategy picks t^0."""
    order = draw(st.integers(0, 8)) if order is None else order
    c0 = MultiPoly.constant(draw(constant)) if constant is not None else draw(_polys)
    return TruncSeries([c0] + [draw(_polys) for _ in range(order)])


_nonzero = st.integers(-3, 3).filter(bool)
_unit = st.sampled_from([1, -1])
_kernel = settings(max_examples=40, deadline=None)


@_kernel
@given(_series(constant=_nonzero))
def test_invert_times_series_is_one(a):
    assert (a.invert() * a).is_one()


@_kernel
@given(st.data())
def test_divide_times_divisor_agrees_with_numerator(data):
    order = data.draw(st.integers(0, 8))
    shift = data.draw(st.integers(0, min(order, 2)))
    zeros = [MultiPoly.zero()] * shift
    b = data.draw(_series(constant=_nonzero, order=order - shift))
    a = data.draw(_series(order=order - shift))
    a = TruncSeries(zeros + list(a.coefficients()))
    b = TruncSeries(zeros + list(b.coefficients()))
    quot = a.divide(b)
    assert quot.order == order - shift
    assert (quot * b).first_difference(a) is None


@_kernel
@given(_series(constant=st.just(1)))
def test_sqrt_squares_back(f):
    root = f.sqrt()
    assert root * root == f


def _coefficient_types(series):
    return {type(c) for poly in series.coefficients() for _, c in poly.terms()}


@_kernel
@given(_series(constant=_unit), _series(constant=_unit))
def test_unit_constant_term_keeps_integer_coefficients(a, b):
    assert _coefficient_types(a.invert()) <= {int}
    assert _coefficient_types(a.divide(b)) <= {int}


def test_inexact_division_falls_back_to_fractions():
    t = TruncSeries.t(10)
    inv = (2 - t).invert()
    for n in range(11):
        c = inv.coefficient(n).constant_term()
        assert type(c) is Fraction and c == Fraction(1, 2 ** (n + 1))
    # a quotient that comes out whole is stored as an int
    quot = (4 - 4 * t).divide(2 - 2 * t)
    assert quot.coefficient(0) == MultiPoly.constant(2)
    assert _coefficient_types(quot) == {int}


def test_single_stat_closed_form_matches_fixpoint_at_order_60():
    from sepstats.closedforms import closed_form_S_single

    assert closed_form_S_single(60, "rmax") == solve_fixpoint(60, ("y",))[0]


# -- keep_only: one-pass projection onto a set of variables -----------------

# Polynomials in all six variables with negative and Fraction coefficients.
_six_variable_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 6),
    st.integers(-4, 4) | st.fractions(-3, 3, max_denominator=4),
    max_size=6,
).map(MultiPoly.from_exponents)
_kept = st.lists(st.sampled_from(VARIABLES), unique=True)


def _specialize_others(f, kept):
    for var in VARIABLES:
        if var not in kept:
            f = f.specialize(var)
    return f


@_kernel
@given(_six_variable_polys, _kept)
def test_poly_keep_only_equals_chained_specialize(f, kept):
    assert f.keep_only(kept) == _specialize_others(f, kept)


@_kernel
@given(st.lists(_six_variable_polys, min_size=1, max_size=5), _kept)
def test_series_keep_only_equals_chained_specialize(coeffs, kept):
    f = TruncSeries(coeffs)
    assert f.keep_only(kept) == _specialize_others(f, kept)


def test_keep_only_drops_terms_that_cancel():
    f = parse_poly("x*y - x*u + 2*v") + Fraction(1, 2) * parse_poly("p*q - q")
    kept = f.keep_only(("x", "q"))
    assert kept == parse_poly("2")
    assert len(kept) == 1
    assert f.keep_only(("p",)) == parse_poly("2") + Fraction(1, 2) * parse_poly("p - 1")
    assert MultiPoly.variable("x").keep_only(()) == MultiPoly.one()
    assert (MultiPoly.variable("x") - MultiPoly.variable("y")).keep_only(()).is_zero()


def test_keep_only_rejects_an_unknown_variable():
    f = parse_poly("x*y + 1")
    with pytest.raises(ValueError) as from_specialize:
        f.specialize("z")
    with pytest.raises(ValueError) as from_keep_only:
        f.keep_only(("x", "z"))
    assert str(from_keep_only.value) == str(from_specialize.value)
    with pytest.raises(ValueError, match="unknown variable 'z'"):
        TruncSeries([f, f]).keep_only(["z"])


# -- the lane guard ----------------------------------------------------------


@pytest.mark.parametrize("var", VARIABLES)
def test_product_past_the_lane_limit_raises(var):
    big = MultiPoly.from_exponents({tuple(200 if v == var else 0 for v in VARIABLES): 1})
    small = MultiPoly.from_exponents({tuple(100 if v == var else 0 for v in VARIABLES): 1})
    with pytest.raises(ValueError, match="exceeds 255"):
        big * small


def test_product_at_the_lane_limit_is_accepted():
    assert parse_poly("y^200") * parse_poly("y^55") == parse_poly("y^255")
    assert parse_poly("y^255").coefficient((0, 0, 0, 255, 0, 0)) == 1
    assert str(parse_poly("x^255*y + 2")) == "x^255*y + 2"
    with pytest.raises(ValueError, match="out of range"):
        parse_poly("y^256")


def test_series_products_past_the_lane_limit_raise():
    one, zero, y = MultiPoly.one(), MultiPoly.zero(), parse_poly("y^128")
    at_limit = TruncSeries([one, parse_poly("y^127"), zero])
    assert (at_limit * TruncSeries([one, y, zero])).coefficient(2) == parse_poly("y^255")
    past = TruncSeries([one, y, zero])
    for product in (
        lambda: past * past,  # the symmetric square
        lambda: past * TruncSeries([one, y, zero]),
        lambda: TruncSeries([one, -y, zero]).invert(),
        lambda: past.sqrt(),
    ):
        with pytest.raises(ValueError, match="exceeds 255"):
            product()


# -- the product kernel against a naive reference ----------------------------


def _naive_product(f, g):
    out = {}
    for e1, c1 in f.terms():
        for e2, c2 in g.terms():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return MultiPoly.from_exponents(out)


def _naive_series_product(a, b):
    n = min(a.order, b.order)
    out = []
    for k in range(n + 1):
        acc = MultiPoly.zero()
        for i in range(k + 1):
            acc = acc + _naive_product(a.coefficient(i), b.coefficient(k - i))
        out.append(acc)
    return TruncSeries(out)


_small_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 6),
    st.integers(-4, 4) | st.fractions(-3, 3, max_denominator=4),
    max_size=3,
).map(MultiPoly.from_exponents)
_six_variable_series = st.lists(_small_polys, min_size=1, max_size=4).map(TruncSeries)
_scalars = st.integers(-3, 3).filter(bool) | st.fractions(-2, 2, max_denominator=3).filter(bool)


@st.composite
def _series_with_constant(draw, constant, order=None):
    order = draw(st.integers(0, 3)) if order is None else order
    rest = [draw(_small_polys) for _ in range(order)]
    return TruncSeries([MultiPoly.constant(draw(constant))] + rest)


@_kernel
@given(_six_variable_polys, _six_variable_polys)
def test_poly_product_matches_naive_reference(f, g):
    assert f * g == _naive_product(f, g)
    assert all(c for _, c in (f * g).terms())


@_kernel
@given(_six_variable_series, _six_variable_series)
def test_series_product_matches_naive_reference(a, b):
    assert a * b == _naive_series_product(a, b)


@_kernel
@given(_six_variable_series)
def test_series_square_equals_product_with_a_copy(a):
    copy = TruncSeries(list(a.coefficients()))
    assert copy.coefficients() is not a.coefficients()
    assert a * a == a * copy == _naive_series_product(a, a)


@_kernel
@given(_series_with_constant(_scalars))
def test_invert_matches_naive_reference(a):
    assert _naive_series_product(a.invert(), a).is_one()


@_kernel
@given(_series_with_constant(st.just(1)))
def test_sqrt_matches_naive_reference(f):
    root = f.sqrt()
    assert _naive_series_product(root, root) == f


@_kernel
@given(st.data())
def test_divide_matches_naive_reference(data):
    # the shared power of t cancels: a t^s / b t^s has order a.order
    order = data.draw(st.integers(0, 3))
    zeros = [MultiPoly.zero()] * data.draw(st.integers(0, 2))
    a = TruncSeries([data.draw(_small_polys) for _ in range(order + 1)])
    b = data.draw(_series_with_constant(_scalars, order))
    quot = TruncSeries(zeros + list(a.coefficients())).divide(
        TruncSeries(zeros + list(b.coefficients()))
    )
    assert _naive_series_product(quot, b) == a


@_kernel
@given(_six_variable_series, _six_variable_series, _six_variable_series)
def test_series_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * TruncSeries.one(a.order) == a
    assert (a - a).is_zero() and a + TruncSeries.zero(a.order) == a


_integer_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3) | st.just(255)] * 6),
    st.integers(-5, 5),
    max_size=6,
).map(MultiPoly.from_exponents)


@_kernel
@given(_integer_polys)
def test_str_parse_round_trip(f):
    assert parse_poly(str(f)) == f
