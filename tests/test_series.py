"""Series engine: polynomial arithmetic, series calculus, solver, I/O."""

import json
import re
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from sepstats import series as series_module
from sepstats.cli import SERIES_REGISTRY
from sepstats.series import (
    MAX_ORDER,
    STAT_NAMES,
    STAT_TO_VARIABLE,
    MultiPoly,
    TruncSeries,
    VARIABLES,
    ENGINE_VERSION,
    canonical_json,
    document_to_series,
    document_view,
    parse_poly,
    series_to_document,
    solve_fixpoint,
    stat_lanes,
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


def test_division_needs_a_nonzero_constant_t0_coefficient():
    t = TruncSeries.t(6)
    y = TruncSeries.term(6, 0, MultiPoly.variable("y"))
    for bad in (
        lambda: (t * 3).invert(),  # zero t^0 coefficient
        lambda: (y + t).invert(),  # non-constant t^0 coefficient
        # after the shared t cancels, the divisor starts with y
        lambda: (t * y + t * t).divide(t * y + t * t * y),
    ):
        with pytest.raises(ValueError, match="nonzero constant t\\^0"):
            bad()


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


@pytest.mark.parametrize("bad, good", [(3.0, 3), (True, 1)], ids=["float", "bool"])
def test_a_fixpoint_order_that_is_not_an_int_is_refused_cold_and_warm(bad, good):
    from sepstats.series import check_order

    with pytest.raises(ValueError, match="must be an integer"):
        check_order(bad)
    # (p, v) is a lane set no other test solves, so the first call is cold
    with pytest.raises(ValueError, match="must be an integer"):
        solve_fixpoint(bad, ("p", "v"))
    solve_fixpoint(good, ("p", "v"))
    with pytest.raises(ValueError, match="must be an integer"):
        solve_fixpoint(bad, ("p", "v"))


def test_fixpoint_known_low_order_coefficients():
    s, _ = solve_fixpoint(3, ("x", "y"))
    assert s.coefficient(3) == parse_poly("x^3y + 2x^2y^2 + xy^3 + x^2y + xy^2")
    s_pq, i_pq = solve_fixpoint(3, ("p", "q"))
    assert s_pq.coefficient(3) == parse_poly("p^2 + 4pq + q^2")
    assert i_pq.coefficient(3) == parse_poly("2pq + q^2")
    # all six variables by default
    s6, _ = solve_fixpoint(4)
    assert s6.order == 4
    assert sum(c for _, c in s6.coefficient(4).terms()) == 22


def test_fixpoint_rejects_bad_active_set():
    with pytest.raises(ValueError):
        solve_fixpoint(4, ("w",))


#: Every variable set ``verify`` solves.
_VERIFY_SETS = [(), ("x",), ("y",), ("u",), ("p", "q"), ("x", "y"), ("y", "u"),
                ("x", "y", "u"), VARIABLES]


@pytest.mark.parametrize("active", _VERIFY_SETS, ids=lambda a: "".join(a) or "none")
def test_a_fixpoint_prefix_equals_a_cold_solve_at_its_own_order(active):
    # The memo keeps one prefix per variable set: a lower order is its
    # truncation, a higher one resumes it.  The master stops at 12, as
    # in verify; order 20 would take it seconds.
    top = 12 if active == VARIABLES else 20
    calls = [(9, top), (top, 9), (5, top, 9, 11 if top == 12 else 12)]
    cold = {}
    for order in {n for orders in calls for n in orders}:
        series_module._solve_fixpoint_cached.cache_clear()
        cold[order] = [_typed_terms(part) for part in solve_fixpoint(order, active)]
    for orders in calls:
        series_module._solve_fixpoint_cached.cache_clear()
        for order in orders:
            parts = solve_fixpoint(order, active)
            assert [part.order for part in parts] == [order, order]
            assert [_typed_terms(part) for part in parts] == cold[order], (orders, order)


def test_statistic_i_is_carried_by_variable_i():
    from sepstats.permutations import StatProfile

    assert STAT_NAMES == StatProfile._fields
    assert list(STAT_TO_VARIABLE.items()) == list(zip(STAT_NAMES, VARIABLES))


@pytest.mark.parametrize(
    "stats, message",
    [((), "at least one"), (("rmax", "rmax"), "duplicate"), (("rmax", "up"), "unknown")],
)
def test_stat_lanes_rejects_empty_repeated_and_unknown_statistics(stats, message):
    with pytest.raises(ValueError, match=message):
        stat_lanes(stats)


def test_counting_series_check_names_the_first_bad_term():
    from sepstats.series import assert_counting_series

    assert_counting_series(TruncSeries([MultiPoly.zero(), parse_poly("x + 2y")]))
    bad = TruncSeries([MultiPoly.one(), parse_poly("x - y")])
    message = re.escape("S: coefficient of t^1 monomial (0, 0, 0, 1, 0, 0) is -1")
    with pytest.raises(AssertionError, match=message):
        assert_counting_series(bad, "S")


@pytest.mark.parametrize(
    "build",
    [
        MultiPoly.constant,
        lambda c: MultiPoly.from_exponents({(0, 0, 1, 0, 0, 0): c}),
        lambda c: MultiPoly.variable("x").specialize("x", c),
        lambda c: TruncSeries.term(3, 1, c),
    ],
    ids=["constant", "from_exponents", "specialize", "term"],
)
@pytest.mark.parametrize("bad", [0.5, True, "1"], ids=["float", "bool", "str"])
def test_exact_entry_points_refuse_what_is_not_an_int_or_a_fraction(build, bad):
    with pytest.raises(ValueError, match="must be an integer"):
        build(bad)


@pytest.mark.parametrize("bad", [True, False], ids=["true", "false"])
def test_scalar_multiplication_refuses_a_bool(bad):
    x = MultiPoly.variable("x")
    t = TruncSeries.t(3)
    for op in (lambda: x * bad, lambda: bad * x, lambda: t * bad, lambda: bad * t):
        with pytest.raises(ValueError, match="coefficient must be an integer"):
            op()


def test_a_float_factor_or_summand_is_a_type_error():
    t = TruncSeries.t(3)
    for op in (lambda: t * 0.5, lambda: 0.5 * t, lambda: t + 0.5, lambda: t - 0.5):
        with pytest.raises(TypeError):
            op()


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


def test_document_shape():
    t = TruncSeries.term(3, 2, parse_poly("xy"))
    doc = series_to_document("xy-term", t)
    assert doc["order"] == 3
    assert doc["variables"] == list(VARIABLES)
    assert doc["coefficients"]["2"] == [[[0, 0, 1, 1, 0, 0], 1, 1]]
    assert doc["coefficients"]["0"] == []


# Data for the codec and renderer properties: exponent vectors over all six
# variables up to MAX_ORDER (small ones often, so degrees tie), the constant
# monomial, and nonzero int coefficients of either sign.
_lane = st.one_of(st.integers(0, 2), st.integers(0, MAX_ORDER))
_monomial = st.one_of(st.just((0,) * 6), st.tuples(*[_lane] * 6))
_coeff = st.integers(-(10**20), 10**20).filter(bool)
_poly_data = st.dictionaries(_monomial, _coeff, max_size=12)


def _reference_str(data):
    """The renderer by its first algorithm: sort by (-degree, negated
    exponents), then write each term from the exponent vector."""
    if not data:
        return "0"
    pieces = []
    for exps in sorted(data, key=lambda e: (-sum(e), tuple(-x for x in e))):
        c = data[exps]
        factors = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(VARIABLES, exps) if e
        ]
        if not factors:
            body = str(c)
        elif c == 1:
            body = "*".join(factors)
        elif c == -1:
            body = "-" + "*".join(factors)
        else:
            body = "*".join([str(c)] + factors)
        pieces.append(body)
    return " + ".join(pieces).replace("+ -", "- ")


def _reference_json(name, polys_data):
    """The document by its first algorithm: triples [exponents, c, 1] in
    key order, which is the order of the reversed exponent vectors."""
    coefficients = {}
    for n, data in enumerate(polys_data):
        triples = []
        for exps in sorted(data, key=lambda e: e[::-1]):
            triples.append([list(exps), data[exps], 1])
        coefficients[str(n)] = triples
    return json.dumps(
        {
            "engine": 1,
            "name": name,
            "order": len(polys_data) - 1,
            "variables": list(VARIABLES),
            "coefficients": coefficients,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


_codec = settings(max_examples=60, deadline=None)


@_codec
@given(_poly_data)
# exponents near 255 on both sides of the renderer's half split (x | y)
# and within the high half (u, v), and degrees that tie
@example({
    (0, 0, 255, 254, 0, 0): -37,
    (0, 0, 254, 255, 0, 0): 1,
    (0, 0, 0, 0, 255, 254): -1,
    (0, 0, 0, 0, 254, 255): 52,
    (1, 0, 255, 255, 255, 255): 2,
    (0, 0, 0, 255, 0, 0): -1,
    (0, 0, 255, 0, 0, 0): 13,
    (0, 0, 0, 0, 0, 0): -12,
})
def test_render_matches_reference_renderer(data):
    assert str(MultiPoly.from_exponents(data)) == _reference_str(data)


@_codec
@given(st.lists(_poly_data, min_size=1, max_size=4))
def test_document_matches_reference_encoder(polys_data):
    s = TruncSeries([MultiPoly.from_exponents(d) for d in polys_data])
    want = _reference_json("p", polys_data)
    assert canonical_json(series_to_document("p", s)) == want


def _typed_terms(series):
    return [
        [(e, c, type(c)) for e, c in poly.terms()] for poly in series.coefficients()
    ]


@_codec
@given(st.lists(_poly_data, min_size=1, max_size=4))
def test_document_round_trip_keeps_values_and_types(polys_data):
    s = TruncSeries([MultiPoly.from_exponents(d) for d in polys_data])
    doc = series_to_document("p", s)
    text = canonical_json(doc)
    for copy in (doc, document_view(text)):
        assert _typed_terms(document_to_series(copy)) == _typed_terms(s)


def test_decoder_reads_only_the_documents_of_the_encoder_and_the_view():
    doc = json.loads(canonical_json(series_to_document("p", TruncSeries.t(1))))
    with pytest.raises(ValueError, match="series_to_document or document_view"):
        document_to_series(doc)
    assert document_to_series(document_view(canonical_json(doc))) == TruncSeries.t(1)


def _tree_encoding(name, series):
    """The document text by the encoder the streamed one replaced: the
    whole tree of triples as lists, then one json.dumps of it."""
    coefficients = {}
    for n, poly in enumerate(series.coefficients()):
        triples = []
        for exps, c in poly.terms():
            triples.append([list(exps), c, 1])
        coefficients[str(n)] = triples
    tree = {
        "engine": ENGINE_VERSION,
        "name": name,
        "order": series.order,
        "variables": list(VARIABLES),
        "coefficients": coefficients,
    }
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(SERIES_REGISTRY))
def test_streamed_document_is_the_tree_encoding_of_every_registry_series(name):
    for cls in ("all", "irreducible", "reducible"):
        s = SERIES_REGISTRY[name](8, cls)
        doc_name = f"{name}[{cls}]"
        text = canonical_json(series_to_document(doc_name, s))
        assert text == _tree_encoding(doc_name, s), cls
        assert _typed_terms(document_to_series(document_view(text))) == _typed_terms(s), cls


def test_a_document_is_read_only():
    doc = series_to_document("t", TruncSeries.t(2))
    with pytest.raises(TypeError):
        doc["order"] = 3
    with pytest.raises(TypeError):
        doc["coefficients"]["1"] = []
    view = document_view(canonical_json(doc))
    with pytest.raises(TypeError):
        view["coefficients"]["2"] = []


def _order_2_document() -> dict:
    """The document of x*t + 2t^2, as a dict: three coefficients."""
    s = TruncSeries([MultiPoly.zero(), parse_poly("x"), MultiPoly.constant(2)])
    return json.loads(canonical_json(series_to_document("t2", s)))


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


def _set_coefficient(key, value):
    return lambda doc: doc["coefficients"].__setitem__(key, value)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("order", True), "document order must be an integer, got True"),
        (_set("order", "2"), "document order must be an integer, got '2'"),
        (_set("order", 2.9), "document order must be an integer, got 2.9"),
        (_set("order", -1), "document order must be >= 0, got -1"),
        (_set("order", 256), "document order is capped at 255, got 256"),
        (_set_coefficient("7", []), r"coefficient keys are not exactly 0\.\.2"),
        (_set_coefficient("02", []), r"coefficient keys are not exactly 0\.\.2"),
        (lambda doc: doc["coefficients"].pop("2"), r"keys are not exactly 0\.\.2"),
    ],
    ids=["true", "string", "float", "negative", "too-big", "extra-key", "padded-key", "missing-key"],
)
def test_decoder_gates_the_document_order_and_coefficient_keys(edit, message):
    doc = _order_2_document()
    # the unedited document decodes
    assert document_to_series(document_view(canonical_json(doc))).order == 2
    edit(doc)
    with pytest.raises(ValueError, match=message):
        document_to_series(document_view(canonical_json(doc)))


def _respelled(edit):
    """An edit of the document's tree, written back with canonical JSON's
    separators and sorted keys: only the content is not canonical."""

    def apply(text: str) -> str:
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    return apply


# Each text holds the series of the clean text, or a well-formed one, but
# not as canonical_json writes it: the view and the decoder reject it
# instead of reading it by position or normalizing it.
@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace('"engine":1,"name":"xy"', '"name":"xy","engine":1'),
        lambda text: text.replace('"order":10,', '"order":10, '),
        lambda text: text.replace(",", ", ", 1),
        lambda text: text.replace('"1":', '"01":'),
        lambda text: text.replace(",1,1]", ",2,2]", 1),
        lambda text: text.replace(",1,1]", ",-0,1]", 1),
        lambda text: text.replace(",1,1]", ",1.0,1]", 1),
        lambda text: text.replace(",1,1]", ",true,1]", 1),
        lambda text: text.replace(",2,1]", ",4,2]", 1),
        lambda text: text.replace(",2,1]", ",1,2]", 1),
        lambda text: text + " ",
        lambda text: " " + text,
        _respelled(lambda doc: doc["coefficients"]["3"].reverse()),
        _respelled(lambda doc: doc["coefficients"]["3"].append([[0] * 6, 0, 1])),
        _respelled(lambda doc: doc["coefficients"]["3"].append(doc["coefficients"]["3"].pop(0))),
        lambda text: text.replace('"10":[]', "").replace('"1":[]', '"1":[],"10":[]'),
    ],
    ids=[
        "tail-keys-reordered",
        "space-in-tail",
        "space-in-a-coefficient",
        "padded-key",
        "int-as-unreduced-fraction",
        "minus-zero",
        "float",
        "true",
        "unreduced-fraction",
        "denominator-2",
        "trailing-space",
        "leading-space",
        "triples-reversed",
        "zero-coefficient",
        "first-triple-last",
        "keys-in-numeric-order",
    ],
)
def test_text_view_rejects_text_that_is_not_canonical(edit):
    xy = TruncSeries(
        [MultiPoly.zero(), MultiPoly.zero(), MultiPoly.zero(),
         parse_poly("x^2 + 3xy + y") + MultiPoly.constant(2)]
        + [MultiPoly.zero()] * 7
    )
    text = canonical_json(series_to_document("xy", xy))
    assert document_to_series(document_view(text)) == xy
    edited = edit(text)
    assert edited != text
    with pytest.raises(ValueError):
        document_to_series(document_view(edited))


def _splice(at, cut, new, text):
    """``text`` with the ``cut`` characters at ``at`` (modulo its length)
    replaced by ``new``."""
    i = at % len(text)
    return text[:i] + new + text[i + cut :]


def _replace(old, new, text):
    return text.replace(old, new, 1)


_NESTED = "[" * 10**5 + "]" * 10**5
_X_T = [{}, {(0, 0, 1, 0, 0, 0): 1}]  # x*t, whose one triple ends ",1,1]"


# One character inserted, deleted or replaced anywhere, and the texts that
# once escaped the decoder as another exception than ValueError: a zero
# denominator (ZeroDivisionError), a float numerator (TypeError), and a
# coefficient or a member after it nested past the parser's depth
# (RecursionError).  The decoder reads an edited text only if it is
# exactly the canonical text of what it reads.
@_codec
@given(
    st.lists(st.dictionaries(_monomial, _coeff, max_size=3), min_size=1, max_size=3),
    st.builds(
        partial,
        st.just(_splice),
        st.integers(0, 10**4),
        st.sampled_from([0, 1]),
        st.text(st.sampled_from('0123456789-,[]{}":. e\u0663'), max_size=1),
    ),
)
@example(_X_T, partial(_replace, ",1,1]", ",1,0]"))
@example(_X_T, partial(_replace, ",1,1]", ",1.0,1]"))
@example(_X_T, partial(_replace, '"1":[', f'"1":[{_NESTED},'))
@example(_X_T, partial(_replace, '"engine":1', f'"engine":{_NESTED}'))
def test_decoder_reads_an_edited_text_only_if_it_is_canonical(polys_data, edit):
    s = TruncSeries([MultiPoly.from_exponents(d) for d in polys_data])
    edited = edit(canonical_json(series_to_document("p", s)))
    try:
        doc = document_view(edited)
        back = document_to_series(doc)
    except ValueError:
        return
    coefficients = series_to_document("p", back)["coefficients"]
    assert canonical_json({**doc, "coefficients": coefficients}) == edited


def _vectors(doc):
    return [t[0] for triples in doc["coefficients"].values() for t in triples]


_NOT_WRITTEN = "not written canonically"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: [v.pop() for v in _vectors(doc)], _NOT_WRITTEN),
        (lambda doc: [v.append(0) for v in _vectors(doc)], _NOT_WRITTEN),
        (
            lambda doc: doc["coefficients"]["2"].append([[0, 0, 1, 1, 0, 0], 3, 1]),
            _NOT_WRITTEN,
        ),
        (lambda doc: doc["variables"].reverse(), "document variables"),
        (lambda doc: _vectors(doc)[0].__setitem__(0, True), _NOT_WRITTEN),
        (lambda doc: _vectors(doc)[0].__setitem__(1, 1.0), _NOT_WRITTEN),
        (lambda doc: _vectors(doc)[0].__setitem__(2, 256), _NOT_WRITTEN),
        (lambda doc: _vectors(doc)[0].__setitem__(3, -1), _NOT_WRITTEN),
    ],
    ids=[
        "short", "long", "repeated", "variables", "bool", "float", "too-big", "negative"
    ],
)
def test_decoder_rejects_a_document_of_another_series(edit, message):
    xy = TruncSeries.term(3, 2, parse_poly("xy"))
    doc = json.loads(canonical_json(series_to_document("xy", xy)))
    assert document_to_series(document_view(canonical_json(doc))) == xy
    edit(doc)
    with pytest.raises(ValueError, match=message):
        document_to_series(document_view(canonical_json(doc)))


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
@given(_series(constant=_unit))
def test_invert_times_series_is_one(a):
    assert (a.invert() * a).is_one()


@_kernel
@given(st.data())
def test_divide_times_divisor_agrees_with_numerator(data):
    order = data.draw(st.integers(0, 8))
    shift = data.draw(st.integers(0, min(order, 2)))
    zeros = [MultiPoly.zero()] * shift
    b = data.draw(_series(constant=_unit, order=order - shift))
    a = data.draw(_series(order=order - shift))
    a = TruncSeries(zeros + list(a.coefficients()))
    b = TruncSeries(zeros + list(b.coefficients()))
    quot = a.divide(b)
    assert quot.order == order - shift
    assert (quot * b).first_difference(a) is None


@_kernel
@given(_series(constant=st.just(1)))
def test_sqrt_squares_back(g):
    f = g * g
    root = f.sqrt()
    assert root == g and root * root == f


def _coefficient_types(series):
    return {type(c) for poly in series.coefficients() for _, c in poly.terms()}


@_kernel
@given(_series(constant=_unit), _series(constant=_unit))
def test_unit_constant_term_keeps_integer_coefficients(a, b):
    assert _coefficient_types(a.invert()) <= {int}
    assert _coefficient_types(a.divide(b)) <= {int}


_t = TruncSeries.t(10)


@pytest.mark.parametrize(
    "call, power",
    [
        (lambda: (2 - _t).invert(), 0),
        (lambda: (1 + _t).sqrt(), 1),
        (lambda: (1 - 3 * _t).divide(3), 0),
        (lambda: (2 + 2 * _t + _t * _t).divide(2), 2),
        (lambda: (4 - 4 * _t + _t * _t * _t).divide(2 - 2 * _t), 3),
        (lambda: (1 + 2 * _t + 2 * _t * _t).sqrt(), 2),
    ],
    ids=["invert", "sqrt", "divide-by-int", "divide-late", "divide-by-series", "sqrt-late"],
)
def test_a_result_that_is_not_integral_raises_naming_its_power_of_t(call, power):
    with pytest.raises(ValueError, match=rf"^not exact over the integers at t\^{power}: "):
        call()


def test_a_whole_quotient_by_a_non_unit_is_exact():
    quot = (4 - 4 * _t).divide(2 - 2 * _t)
    assert quot == TruncSeries.one(10) * 2
    assert (6 * _t * _t).divide(3) == 2 * _t * _t


def test_single_stat_closed_form_matches_fixpoint_at_order_60():
    from sepstats.closedforms import closed_form_S_single

    assert closed_form_S_single(60, "rmax") == solve_fixpoint(60, ("y",))[0]


# -- keep_only: one-pass projection onto a set of variables -----------------

# Polynomials in all six variables with negative coefficients.
_six_variable_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 6),
    st.integers(-4, 4),
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


# Exponents 0 or 1 and few coefficient values: substituting for one
# variable often merges terms, and some of the merged sums cancel to 0.
_cancelling_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 1)] * 6),
    st.sampled_from([-2, -1, 1, 2]),
    max_size=12,
).map(MultiPoly.from_exponents)


def _substituted(f, var, value):
    """specialize through exponent vectors: the reference."""
    i = VARIABLES.index(var)
    out = {}
    for exps, c in f.terms():
        key = (*exps[:i], 0, *exps[i + 1 :])
        out[key] = out.get(key, 0) + c * value ** exps[i]
    return MultiPoly.from_exponents(out)


@_kernel
@given(
    _six_variable_polys | _cancelling_polys,
    st.sampled_from(VARIABLES),
    st.just(1) | st.integers(-2, 2),
)
def test_specialize_equals_the_exponent_vector_reference(f, var, value):
    assert f.specialize(var, value) == _substituted(f, var, value)


def test_keep_only_drops_terms_that_cancel():
    f = parse_poly("x*y - x*u + 2*v") + 3 * parse_poly("p*q - q")
    kept = f.keep_only(("x", "q"))
    assert kept == parse_poly("2")
    assert len(kept) == 1
    assert f.keep_only(("p",)) == parse_poly("2") + 3 * parse_poly("p - 1")
    assert MultiPoly.variable("x").keep_only(()) == MultiPoly.one()
    assert (MultiPoly.variable("x") - MultiPoly.variable("y")).keep_only(()).is_zero()


def test_every_variable_site_rejects_an_unknown_variable_alike():
    from sepstats.distributions import counts_by_variable

    f = parse_poly("x*y + 1")
    for call in (
        lambda: MultiPoly.variable("z"),
        lambda: f.specialize("z"),
        lambda: f.keep_only(("x", "z")),
        lambda: TruncSeries([f, f]).keep_only(["z"]),
        lambda: f.map_variables({"z": "x"}),
        lambda: f.map_variables({"x": "z"}),
        lambda: solve_fixpoint(3, ("x", "z")),
        lambda: counts_by_variable(f, "z"),
    ):
        with pytest.raises(ValueError) as error:
            call()
        assert str(error.value) == f"unknown variable 'z'; expected one of {VARIABLES}"


def _renamed(f, mapping):
    """map_variables through exponent vectors: the reference."""
    index = {v: i for i, v in enumerate(VARIABLES)}
    out = {}
    for exps, c in f.terms():
        new = list(exps)
        for src in mapping:
            new[index[src]] = 0
        for src, dst in mapping.items():
            if dst not in mapping and exps[index[dst]]:
                raise ValueError("variable renaming collides with existing lanes")
            new[index[dst]] = exps[index[src]]
        out[tuple(new)] = c
    return MultiPoly.from_exponents(out)


@_kernel
@given(_six_variable_polys, st.data())
def test_map_variables_matches_renaming_the_exponent_vectors(f, data):
    sources = data.draw(st.lists(st.sampled_from(VARIABLES), unique=True))
    # a permutation of the sources never collides; other lanes may
    pool = sources if data.draw(st.booleans()) else VARIABLES
    dests = data.draw(st.permutations(pool))[: len(sources)]
    mapping = dict(zip(sources, dests))
    try:
        want = _renamed(f, mapping)
    except ValueError as error:
        with pytest.raises(ValueError, match=str(error)):
            f.map_variables(mapping)
    else:
        assert f.map_variables(mapping) == want


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
        lambda: TruncSeries([one, 2 * y, zero]).sqrt(),
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
    st.integers(-4, 4),
    max_size=3,
).map(MultiPoly.from_exponents)
_six_variable_series = st.lists(_small_polys, min_size=1, max_size=4).map(TruncSeries)


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
@given(_series_with_constant(_unit))
def test_invert_matches_naive_reference(a):
    assert _naive_series_product(a.invert(), a).is_one()


@_kernel
@given(_series_with_constant(st.just(1)))
def test_sqrt_matches_naive_reference(g):
    f = _naive_series_product(g, g)
    root = f.sqrt()
    assert root == g and _naive_series_product(root, root) == f


@_kernel
@given(st.data())
def test_divide_matches_naive_reference(data):
    # the shared power of t cancels: a t^s / b t^s has order a.order
    order = data.draw(st.integers(0, 3))
    zeros = [MultiPoly.zero()] * data.draw(st.integers(0, 2))
    a = TruncSeries([data.draw(_small_polys) for _ in range(order + 1)])
    b = data.draw(_series_with_constant(_unit, order))
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


# -- the lane-packed product path against the term kernel --------------------

_SHIFTS = series_module._SHIFT
# Small and multi-word coefficients of both signs.
_coefficients = st.integers(-9, 9) | st.integers(-(2**80), 2**80)


@st.composite
def _lane_polys(draw, lanes, max_exp=4, max_size=8):
    """An integer polynomial in ``lanes`` only."""
    exps = st.tuples(*[st.integers(0, max_exp) if v in lanes else st.just(0) for v in VARIABLES])
    return MultiPoly.from_exponents(draw(st.dictionaries(exps, _coefficients, max_size=max_size)))


def _term_kernel(pairs, doubled=False, mid=None):
    """The sum of products on term dicts only: the packed path's oracle."""
    out = {}
    for a, b in pairs:
        series_module._mul_into(out, a._terms, b._terms)
    if doubled:
        out = {k: v + v for k, v in out.items()}
    if mid is not None:
        series_module._mul_into(out, mid._terms, mid._terms)
    return series_module._finished(out)


def _typed(poly):
    return {k: (type(c), c) for k, c in poly._terms.items()}


_packed = settings(max_examples=25, deadline=None)


@st.composite
def _packed_case(draw):
    """Lanes in use (1 to 6), a lane to pack, and a memo that packs it."""
    lanes = draw(st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=6, unique=True))
    lane = draw(st.sampled_from(VARIABLES))
    return lanes, {"lane": _SHIFTS[lane]}


@_packed
@given(_packed_case(), st.data())
def test_packed_sums_of_products_match_the_term_kernel(case, data):
    lanes, memo = case
    polys = _lane_polys(lanes)
    # several sums on one memo: packs are reused, and dropped when the
    # coefficients grow past the slot width
    for _ in range(data.draw(st.integers(1, 3))):
        pairs = data.draw(st.lists(st.tuples(polys, polys), min_size=1, max_size=4))
        got = series_module._sum_of_products(pairs, memo)
        assert _typed(got) == _typed(_term_kernel(pairs))
    assert memo["width"] % 64 == 0 and "packs" in memo


@pytest.mark.parametrize("sign", [1, -1])
def test_packed_slots_hold_products_at_the_width_boundary(sign):
    """A coefficient just past 2**63 in size needs 128-bit slots: 64 bits
    hold its magnitude but not its sign."""

    def poly(*coeffs):  # coeffs[e] is the coefficient of x^e * y
        return MultiPoly.from_exponents({(0, 0, e, 1, 0, 0): c for e, c in enumerate(coeffs) if c})

    memo = {"lane": _SHIFTS["x"]}
    small, one = poly(1, -1, 2), poly(1)
    pairs = [(small, poly(3, 0, 1))]
    assert series_module._sum_of_products(pairs, memo) == _term_kernel(pairs)
    assert memo["width"] == 64
    # the x*y^2 coefficient is sign * (2**63 + 1) - 1; ``small`` is
    # repacked at the wider slots
    pairs = [(poly(5, sign * (2**63 + 1)), one), (small, one)]
    assert series_module._sum_of_products(pairs, memo) == _term_kernel(pairs)
    assert memo["width"] == 128
    # doubled: 2 * (2**31 + 1)**2 passes 2**63 though the product does not
    c = [poly(0, 2**31 + 1), poly(sign * (2**31 + 1))]
    memo = {"lane": _SHIFTS["x"]}
    assert series_module._square_sum(c, 1, 0, memo) == _term_kernel([tuple(c)], True)
    assert memo["width"] == 128


@_packed
@given(_packed_case(), st.data())
def test_packed_square_sums_match_the_term_kernel(case, data):
    lanes, memo = case
    c = data.draw(st.lists(_lane_polys(lanes), min_size=1, max_size=7))
    lo = data.draw(st.integers(0, 1))
    for n in range(2 * lo, len(c)):  # odd n: no middle square; even n: one
        got = series_module._square_sum(c, n, lo, memo)
        pairs = [(c[i], c[n - i]) for i in range(lo, (n + 1) // 2)]
        mid = c[n // 2] if n % 2 == 0 else None
        assert _typed(got) == _typed(_term_kernel(pairs, True, mid))


_box = [(0, 0, i, j, 0, 0) for i in range(8) for j in range(8)]


@settings(max_examples=15, deadline=None)
@given(st.lists(st.lists(_coefficients, min_size=64, max_size=64), min_size=2, max_size=4))
def test_dense_sums_pick_a_lane_by_themselves(rows):
    polys = [MultiPoly.from_exponents(dict(zip(_box, row))) for row in rows]
    pairs = list(zip(polys, polys[1:]))
    work = sum(len(a) * len(b) for a, b in pairs)
    memo = {}
    got = series_module._sum_of_products(pairs, memo)
    assert _typed(got) == _typed(_term_kernel(pairs))
    if work >= series_module._PACK_MIN_PAIRS:
        assert memo["lane"] in (_SHIFTS["x"], _SHIFTS["y"])
    else:
        assert "lane" not in memo


@pytest.mark.parametrize("var", VARIABLES)
def test_packed_products_past_the_lane_limit_raise_the_same_error(var):
    def power(e, c=1):
        return MultiPoly.from_exponents({tuple(e if v == var else 1 for v in VARIABLES): c})

    cases = [
        [(power(200), power(100))],
        # the two products cancel, but an exponent past 255 was formed
        [(power(200), power(56)), (power(200), power(56, -1))],
        [(power(10), power(20)), (power(255), power(1))],
    ]
    for pairs in cases:
        with pytest.raises(ValueError) as want:
            _term_kernel(pairs)
        for lane in VARIABLES:
            with pytest.raises(ValueError) as got:
                series_module._sum_of_products(pairs, {"lane": _SHIFTS[lane]})
            assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="exceeds 255"):
        series_module._square_sum([power(0), power(128), power(200)], 2, 0, {"lane": _SHIFTS[var]})
    assert series_module._sum_of_products(
        [(power(200), power(55))], {"lane": _SHIFTS[var]}
    ) == _term_kernel([(power(200), power(55))])


@pytest.fixture
def lane_decisions(monkeypatch):
    """Every lane choice a pack memo makes, in order (None for none)."""
    decisions = []
    real = series_module._best_lane

    def recorded(*args):
        decisions.append(real(*args))
        return decisions[-1]

    monkeypatch.setattr(series_module, "_best_lane", recorded)
    return decisions


def test_the_master_solve_stays_on_term_dicts_and_a_three_lane_product_packs(
    lane_decisions,
):
    # one decision per fixpoint stream, the q-sum's and the p-sum's
    series_module._solve_fixpoint_cached.cache_clear()
    solve_fixpoint(12, VARIABLES)
    assert lane_decisions == [None, None]
    S, I = solve_fixpoint(20, ("x", "y", "u"))
    lane_decisions.clear()
    product = S * I
    assert len(lane_decisions) == 1 and lane_decisions[0] is not None
    assert product.coefficient(20) == _term_kernel(
        [(S.coefficient(i), I.coefficient(20 - i)) for i in range(21)]
    )


def test_each_fixpoint_stream_picks_its_own_lane(lane_decisions):
    # the q-sum, (S - I)|v=1 times S|x=1, groups best by y; the p-sum,
    # S|y=1 times I|u=1, by x.  The q-sum decides first.
    series_module._solve_fixpoint_cached.cache_clear()
    solve_fixpoint(20, ("x", "y", "u"))
    assert lane_decisions == [_SHIFTS["y"], _SHIFTS["x"]]


# -- one canonical form ------------------------------------------------------


def _assert_canonical(poly):
    """Every coefficient a nonzero ``int``."""
    for c in poly._terms.values():
        assert type(c) is int and c != 0


@_kernel
@given(_polys, _polys, _nonzero)
def test_every_polynomial_result_is_canonical(f, g, scalar):
    for got in (
        f + g, f - g, f * scalar, scalar * f, f * 0, f * g,
        f.keep_only(("x",)), f.keep_only(()),
        f.specialize("x"), f.specialize("y", scalar), f.specialize("y", 0),
    ):
        _assert_canonical(got)
    assert (f + g) - g == f and hash((f + g) - g) == hash(f)


@_kernel
@given(_polys, _polys, _nonzero, _unit)
def test_every_series_result_is_canonical(f, g, scalar, unit):
    a = TruncSeries([MultiPoly.constant(unit), f, g, f * g])
    b = TruncSeries([MultiPoly.one(), g, f, g * scalar])
    for got in (a * b, a * a, a * scalar, a.divide(b), b.divide(a), (b * b).sqrt()):
        for poly in got.coefficients():
            _assert_canonical(poly)
    for s in (a, b, a * b, (b * b).sqrt()):
        back = document_to_series(series_to_document("p", s))
        assert _typed_terms(back) == _typed_terms(s)
