"""Closed-form generating functions for separable permutation statistics.

Each builder evaluates an explicit algebraic formula — radicals, rational
expressions in the single-statistic series S(t,z), and the auxiliary
E-function — using only exact series primitives, and returns a
:class:`~sepstats.series.TruncSeries` in the canonical variable lanes
(lmax -> x, rmax -> y, lmin -> u, rmin -> v).  None of these formulas is
taken on faith: the verifier compares every one against the functional
equation fixpoint and against direct enumeration.

Conventions for multi-statistic forms:

* set-2 pairs (first statistic from {lmax, rmin}, second from
  {rmax, lmin}): z1 is the first statistic's lane, z2 the second's;
* set-1 pairs: (rmax, lmin) and (lmax, rmin), again in listed order;
* triples: (lmax, rmax, lmin), (lmin, rmin, lmax), (rmin, rmax, lmin),
  (rmax, rmin, lmax) with lanes z1, z2, z3 in listed order.

Memos: the paper's equidistribution results make each family one series
in different lanes, so each family is built once in canonical lanes and
renamed (``TruncSeries.map_variables``) into every other tuple; a class
is that renaming plus at most one sum or difference.  No builder uses the
reverse or complement symmetry.  Every piece lives in one prefix memo,
``_longest``, under its key: each keeps its highest order built and
truncates it for a lower one (``series._longest_prefix``).  The pieces:

* the radical ``discriminant_root`` and S(t,z) in each lane,
  ``_single_gf_by_lane``;
* the split S^2/(1+S), S/(1+S) in each lane, as its one-lane renamings
  are kept too: ``_single_split_by_lane``;
* the set-2 irreducible and reducible series in (x, y): ``_set2_parts``;
* the set-1 quotient Q and its numerator K + T in (y, u), K = S(y) I(u)
  the core and T = t y u: ``_set1_parts``;
* E and the triples' one product E Q in (x, y, u): ``_e_xyu``,
  ``_triple_tail``;
* the quadruple's irreducible and reducible parts, each on its own so
  that one class never builds the other's product: ``_quad_irreducible``,
  ``_quad_reducible``.

Renamed copies of multi-lane series are not kept.  One rule,
:func:`_reading`, reads the classes of the singles, set-1 pairs and triples.

One order short: the t^n coefficient of a product of two series without
a t^0 term never reads either factor's t^n.  So every such factor, S and
I in the pair quotients, the set-2 parts in E, E and Q in E Q, and E and
the triples in the quadruple, is asked one order below its product
(:func:`_short_product`), and is a truncation wherever a higher order
was already built.

E and the triples take no division of their own.  E's denominator
(1 - S(x)S(u))(1 - S(x)S(y)) splits across two set-2 quotients, so
E = t x y u + S2(x, u) I2(x, y), the whole set-2 series in (x, u) times
the irreducible one in (x, y).  With Q = (A + T)/(1 - A - T) the set-1
quotient, 1/(1 - A - T) = 1 + Q, so the triples' quotient E/(1 - A - T)
is E + E Q and their bracket is t x y u + E Q.

>>> [schroeder_gf(6).coefficient(n).constant_term() for n in range(1, 7)]
[1, 2, 6, 22, 90, 394]
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

from .enumeration import canonical_class
from .series import (
    MAX_ORDER,
    MultiPoly,
    TruncSeries,
    VARIABLES,
    _longest_prefix,
    check_order,
    solve_fixpoint,
    stat_lanes,
)

__all__ = [
    "SINGLES",
    "SET2_PAIRS",
    "SET1_PAIRS",
    "TRIPLES",
    "QUAD",
    "FORMS",
    "discriminant_root",
    "schroeder_gf",
    "little_schroeder_gf",
    "closed_form_S_single",
    "closed_form_I_single",
    "closed_form_R_single",
    "closed_form_pair_set2",
    "closed_form_pair_set1",
    "e_function",
    "closed_form_triple",
    "closed_form_quad",
    "closed_form",
    "asc_des_cubic_residual",
    "asc_des_irr_residual",
    "des_cubic_residual",
]

#: The single statistics with closed forms, as one-statistic tuples.
SINGLES: tuple[tuple[str], ...] = (("lmax",), ("rmax",), ("lmin",), ("rmin",))

#: Ordered statistic pairs whose joint distribution is a rational function
#: of two single-statistic series (the "set 2" family).
SET2_PAIRS: tuple[tuple[str, str], ...] = (
    ("lmax", "rmax"),
    ("lmax", "lmin"),
    ("rmin", "rmax"),
    ("rmin", "lmin"),
)

#: Ordered statistic pairs of the "set 1" family.
SET1_PAIRS: tuple[tuple[str, str], ...] = (
    ("rmax", "lmin"),
    ("lmax", "rmin"),
)

#: Ordered triples with closed forms; the first two are the "E-side" group
#: (irreducible part given by E itself is the *second* group below).
TRIPLES: tuple[tuple[str, str, str], ...] = (
    ("lmax", "rmax", "lmin"),
    ("lmin", "rmin", "lmax"),
    ("rmin", "rmax", "lmin"),
    ("rmax", "rmin", "lmax"),
)

#: The four-statistic tuple with a closed form.
QUAD: tuple[tuple[str, str, str, str], ...] = (("lmax", "rmax", "lmin", "rmin"),)

#: Every statistic tuple with a closed form, family by family.
FORMS: tuple[tuple[str, ...], ...] = SINGLES + SET2_PAIRS + SET1_PAIRS + TRIPLES + QUAD


def _lanes(
    stats: tuple[str, ...], family: tuple[tuple[str, ...], ...]
) -> tuple[str, ...]:
    """The lanes of ``stats``, which must be a tuple of ``family``."""
    if stats not in family:
        raise ValueError(f"no closed form for {stats}; expected one of {family}")
    return stat_lanes(stats)


#: ``_longest``'s key for the radical; S(t,z) is keyed by its lane, the
#: split by "split" and its lane, and every other piece by its name.
_RADICAL = ""


# typed, as every memo in the package
@functools.lru_cache(maxsize=None, typed=True)
def _longest(key: str) -> list[TruncSeries]:
    """The memo of one closed-form piece: its series at the highest order
    built, in a list empty before the first build, read through
    ``_longest_prefix``."""
    return []


def _check_closed_order(order: int) -> None:
    """The gate of every closed form: ``check_order``, and no order at
    which S(t,z) would take its radical past ``MAX_ORDER``."""
    check_order(order)
    if order == MAX_ORDER:
        raise ValueError(
            f"closed-form order {order} takes its radical at order "
            f"{order + 1}, which exceeds {MAX_ORDER}"
        )


def _one_short(order: int) -> int:
    """The order a factor of :func:`_short_product` is asked at; at order
    1, the pieces at 1, truncated by the product."""
    return max(order - 1, 1)


def _short_product(order: int, a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """a b to ``order``, from factors without a t^0 term known to at least
    ``order - 1``: each is cut there and given a zero t^order coefficient,
    which no coefficient of the product reads, so the product is exact."""
    zero = MultiPoly.zero()
    padded = []
    for factor in (a, b):
        if factor.coefficient(0):
            raise ValueError(
                f"a factor one order short needs no t^0 term, got {factor.coefficient(0)}"
            )
        if factor.order < order - 1:
            raise ValueError(
                f"a factor known to order {factor.order} cannot give a product "
                f"to order {order}"
            )
        padded.append(TruncSeries((*factor.coefficients()[:order], zero)))
    return padded[0] * padded[1]


def discriminant_root(order: int) -> TruncSeries:
    """sqrt(1 - 6t + t^2), the radical shared by all closed forms.

    Every closed form builds on it, at one order above its own where a
    division cancels a power of t.
    """
    check_order(order)

    def built() -> list[TruncSeries]:
        t = TruncSeries.t(order)
        return [(1 - 6 * t + t * t).sqrt()]

    return _longest_prefix(_longest(_RADICAL), order, built)[0]


def schroeder_gf(order: int) -> TruncSeries:
    """Counting series of separable permutations: (1 - t - sqrt(1-6t+t^2))/2.

    >>> schroeder_gf(8).coefficient(7).constant_term()
    1806
    """
    check_order(order)
    t = TruncSeries.t(order)
    return (1 - t - discriminant_root(order)).divide(2)


def little_schroeder_gf(order: int) -> TruncSeries:
    """Counting series of irreducible ones: (1 + t - sqrt(1-6t+t^2))/4.

    >>> little_schroeder_gf(8).coefficient(7).constant_term()
    903
    """
    check_order(order)
    t = TruncSeries.t(order)
    return (1 + t - discriminant_root(order)).divide(4)


def _renamed(
    series: TruncSeries, canonical: tuple[str, ...], lanes: tuple[str, ...]
) -> TruncSeries:
    """``series``, built in the ``canonical`` lanes, moved lane by lane
    into ``lanes``."""
    mapping = {src: dst for src, dst in zip(canonical, lanes) if src != dst}
    return series.map_variables(mapping) if mapping else series


def _t_times(order: int, lanes: Sequence[str]) -> TruncSeries:
    """t times the product of the variables ``lanes``."""
    mono = MultiPoly.one()
    for lane in lanes:
        mono = mono * MultiPoly.variable(lane)
    return TruncSeries.term(order, 1, mono)


def _rmax_lmin_tailed(stats: Sequence[str]) -> bool:
    """Whether ``stats`` ends in rmax or lmin; see :func:`_reading`."""
    return stats[-1] in ("rmax", "lmin")


#: A two-sided family's parts (P, M), each built only when called.
_Parts = tuple[Callable[[], TruncSeries], Callable[[], TruncSeries]]


def _reading(
    order: int, stats: tuple[str, ...], cls: str, lanes: tuple[str, ...], parts: _Parts
) -> TruncSeries:
    """The irreducible or reducible (``cls``) series of ``stats`` from its
    family's ``parts`` (P, M) in ``lanes``.  Reverse and complement swap
    the classes of the singles, the set-1 pairs and the triples, so one
    rule reads them all: a tuple that ends in rmax or lmin reads P + zt and
    M - zt, z the product of ``lanes``, and any other reads M and P.
    (P, M) is (S^2/(1+S), S/(1+S)) for the singles, (Q - K - T, K + T) for
    the set-1 pairs and (E Q, E) for the triples."""
    plus, minus = parts
    if not _rmax_lmin_tailed(stats):
        return minus() if cls == "irreducible" else plus()
    zt = _t_times(order, lanes)
    return plus() + zt if cls == "irreducible" else minus() - zt


def _single_gf_by_lane(order: int, lane: str) -> TruncSeries:
    # The final division cancels one power of t, so the work runs one
    # order higher.
    _check_closed_order(order)
    return _longest_prefix(
        _longest(lane), order, lambda: [_single_gf_built(order, lane)]
    )[0]


def _single_gf_built(order: int, lane: str) -> TruncSeries:
    # S(t,z) is one formula whichever lane z is: it is evaluated in x and
    # renamed into the others.
    if lane != "x":
        return _single_gf_by_lane(order, "x").map_variables({"x": lane})
    w = order + 1
    t = TruncSeries.t(w)
    z = MultiPoly.variable("x")
    r = discriminant_root(w)
    # four times the base (5 - r + t)/4 - zt, so that every step is over
    # the integers: inner = base^2 + r - t - 1 has constant term 1
    base4 = 5 - r + t - t * z * 4
    inner = (base4 * base4 + (r - t - 1) * 16).divide(16)
    num = inner.sqrt() * 4 - r + t * z * 4 + t - 3
    den = (r - t - 1) * 2
    return num.divide(den)


def closed_form_S_single(order: int, stat: str = "rmax") -> TruncSeries:
    """The two-radical closed form for S(t,z), z marking one of the four
    extreme-value statistics (they are equidistributed; the series lives in
    the lane of the requested statistic).

    >>> S = closed_form_S_single(6)
    >>> from sepstats.distributions import counts_by_variable
    >>> list(counts_by_variable(S.coefficient(5), "y").values())
    [22, 31, 26, 10, 1]
    >>> S.specialize("y") == schroeder_gf(6)
    True
    """
    (lane,) = _lanes((stat,), SINGLES)
    return _single_gf_by_lane(order, lane)


def _single_split_by_lane(order: int, lane: str) -> tuple[TruncSeries, TruncSeries]:
    """S^2/(1+S) and S/(1+S) for S = S(t,z) in the given lane; the class
    readings of the single form add or subtract zt to them.

    Both come from one inverse, taken in x: S/(1+S) = 1 - 1/(1+S), and
    S^2/(1+S) = S - S/(1+S)."""

    def built() -> list[TruncSeries]:
        if lane != "x":
            return [
                part.map_variables({"x": lane})
                for part in _single_split_by_lane(order, "x")
            ]
        s = _single_gf_by_lane(order, "x")
        linear = 1 - (s + 1).invert()
        return [s - linear, linear]

    square, linear = _longest_prefix(_longest("split " + lane), order, built)
    return square, linear


def _single_class(order: int, stat: str, cls: str) -> TruncSeries:
    """The ``cls`` series of the single statistic ``stat``."""
    _check_closed_order(order)
    if cls == "all":
        return closed_form_S_single(order, stat)
    (lane,) = _lanes((stat,), SINGLES)
    square, linear = _single_split_by_lane(order, lane)
    return _reading(order, (stat,), cls, (lane,), (lambda: square, lambda: linear))


def closed_form_I_single(order: int, stat: str = "rmax") -> TruncSeries:
    """Irreducible-class single-statistic closed form.

    For stat in {rmax, lmin} this is S^2/(1+S) + zt; for {lmax, rmin} it is
    S/(1+S).  (The two pairs are exchanged by the reverse map, which also
    exchanges irreducible and reducible for lengths >= 2.)

    >>> from sepstats.distributions import counts_by_variable
    >>> counts_by_variable(closed_form_I_single(4, "rmax").coefficient(4), "y")
    {2: 5, 3: 5, 4: 1}
    >>> counts_by_variable(closed_form_I_single(4, "lmax").coefficient(4), "x")
    {1: 6, 2: 4, 3: 1}
    """
    return _single_class(order, stat, "irreducible")


def closed_form_R_single(order: int, stat: str = "rmax") -> TruncSeries:
    """Reducible-class single-statistic closed form (complement of
    :func:`closed_form_I_single` inside :func:`closed_form_S_single`):
    S/(1+S) - zt for stat in {rmax, lmin}, S^2/(1+S) for {lmax, rmin}."""
    return _single_class(order, stat, "reducible")


#: The lanes each multi-lane family is built in, once per order; every
#: other tuple of the family is the same series with its lanes renamed.
_SET2_LANES = ("x", "y")  # (lmax, rmax)
_SET1_LANES = ("y", "u")  # (rmax, lmin)
_TRIPLE_LANES = ("x", "y", "u")  # (lmax, rmax, lmin)


def _set2_parts(order: int) -> tuple[TruncSeries, TruncSeries]:
    """The irreducible and reducible set-2 series in (x, y), from one
    division: (S(y)+1) t x y / (1 - S(x)S(y)), and S(x) times it."""

    def built() -> list[TruncSeries]:
        low = _one_short(order)
        s1 = _single_gf_by_lane(low, "x")
        s2 = _single_gf_by_lane(low, "y")
        txy = _t_times(order, _SET2_LANES)
        # (S(y)+1) t x y, as t x y + S(y) t x y
        numerator = txy + _short_product(order, s2, txy)
        irreducible = numerator.divide(1 - _short_product(order, s1, s2))
        return [irreducible, _short_product(order, s1, irreducible)]

    irreducible, reducible = _longest_prefix(_longest("set2"), order, built)
    return irreducible, reducible


def closed_form_pair_set2(
    order: int, pair: Sequence[str] = ("lmax", "rmax"), perm_class: str = "all"
) -> TruncSeries:
    """Joint closed form for a set-2 pair.

    S = (S(z1)+1)(S(z2)+1) t z1 z2 / (1 - S(z1)S(z2)), with the
    irreducible part dropping the S(z1)+1 factor and the reducible part
    replacing it by S(z1).

    >>> from sepstats.series import parse_poly
    >>> c3 = closed_form_pair_set2(3, ("lmax", "rmax")).coefficient(3)
    >>> c3 == parse_poly("x^3y + 2x^2y^2 + xy^3 + x^2y + xy^2")
    True
    """
    _check_closed_order(order)
    cls = canonical_class(perm_class)
    lanes = _lanes(tuple(pair), SET2_PAIRS)
    irreducible, reducible = _set2_parts(order)
    if cls == "all":
        part = irreducible + reducible
    else:
        part = irreducible if cls == "irreducible" else reducible
    return _renamed(part, _SET2_LANES, lanes)


def _set1_parts(order: int) -> tuple[TruncSeries, TruncSeries]:
    """Q = (K + T)/(1 - K - T), the (rmax, lmin) series in (y, u), and
    K + T, with K = S(y) I(u) the set-1 core and T = t y u.  K is also the
    triples' A-function, and 1 - K - T their divisor."""

    def built() -> list[TruncSeries]:
        low = _one_short(order)
        s_y = _single_gf_by_lane(low, "y")
        i_u = closed_form_I_single(low, "lmin")
        core_tz = _short_product(order, s_y, i_u) + _t_times(order, _SET1_LANES)
        return [core_tz.divide(1 - core_tz), core_tz]

    quotient, core_tz = _longest_prefix(_longest("set1"), order, built)
    return quotient, core_tz


def closed_form_pair_set1(
    order: int, pair: Sequence[str] = ("rmax", "lmin"), perm_class: str = "all"
) -> TruncSeries:
    """Joint closed form for a set-1 pair.

    With K = S(z1) I(z2) (where I is the rmax/lmin-side irreducible single
    form) and T = t z1 z2:  S = (K + T)/(1 - K - T).  The class split
    depends on the pair: for (rmax, lmin), I = S - K and R = K; for
    (lmax, rmin), I = K + T and R = S - K - T.

    >>> from sepstats.distributions import counts_by_variable
    >>> c4 = closed_form_pair_set1(4, ("rmax", "lmin"), "irreducible").coefficient(4)
    >>> sum(c for _, c in c4.terms())
    11
    """
    _check_closed_order(order)
    cls = canonical_class(perm_class)
    pair = tuple(pair)
    lanes = _lanes(pair, SET1_PAIRS)
    quotient, core_tz = _set1_parts(order)
    if cls == "all":
        part = quotient
    else:
        parts = (lambda: quotient - core_tz, lambda: core_tz)
        part = _reading(order, pair, cls, _SET1_LANES, parts)
    return _renamed(part, _SET1_LANES, lanes)


def _e_xyu(order: int) -> TruncSeries:
    """E(t, x, y, u); see :func:`e_function`."""

    def built() -> list[TruncSeries]:
        irreducible, reducible = _set2_parts(_one_short(order))
        s_xu = (irreducible + reducible).map_variables({"y": "u"})
        return [_t_times(order, _TRIPLE_LANES) + _short_product(order, s_xu, irreducible)]

    return _longest_prefix(_longest("E"), order, built)[0]


def e_function(order: int, lanes: Sequence[str] = ("x", "y", "u")) -> TruncSeries:
    """The auxiliary E(t, z1, z2, z3) used by the triple and quadruple forms:

    E = z1 z2 z3 t
        + (S(z1)+1)(S(z2)+1)(S(z3)+1) t^2 z1^2 z2 z3
          / ((1 - S(z1)S(z3)) (1 - S(z1)S(z2)))

    in three distinct lanes z1, z2, z3: built in (x, y, u), then renamed.
    It is evaluated as z1 z2 z3 t + S(z1,z3) I(z1,z2), the whole set-2
    series of (z1, z3) times the irreducible one of (z1, z2), each of which
    carries one factor of the denominator.
    """
    _check_closed_order(order)
    lanes = tuple(lanes)
    if len(lanes) != 3 or len(set(lanes)) != 3 or not set(lanes) <= set(VARIABLES):
        raise ValueError(
            f"E needs three distinct variables of {VARIABLES} as its lanes, "
            f"got {lanes}"
        )
    return _renamed(_e_xyu(order), _TRIPLE_LANES, lanes)


def _triple_tail(order: int) -> TruncSeries:
    """E Q in (x, y, u), Q the set-1 series (A + t y u)/(1 - A - t y u):
    the triples' one product; see :func:`closed_form_triple`."""

    def built() -> list[TruncSeries]:
        low = _one_short(order)
        return [_short_product(order, _e_xyu(low), _set1_parts(low)[0])]

    return _longest_prefix(_longest("EQ"), order, built)[0]


def closed_form_triple(
    order: int,
    triple: Sequence[str] = ("lmax", "rmax", "lmin"),
    perm_class: str = "all",
) -> TruncSeries:
    """Joint closed form for one of the four statistic triples.

    S = E / (1 - A - t z2 z3) with A = S(z2) I(z3), where
    I(z3) = z3 t + S(z3)^2/(S(z3)+1) is the lmin irreducible single form;
    A is the set-1 core, renamed.
    For the (., rmax, lmin)-tailed triples the reducible part is
    E - z1 z2 z3 t; for the (., rmin, lmax)-tailed ones the irreducible
    part is E.  The remaining parts share one bracket,
    (z1 z2 z3 t + (A + t z2 z3)(E - z1 z2 z3 t)) / (1 - A - t z2 z3).

    Evaluated with Q = (A + t z2 z3)/(1 - A - t z2 z3), the set-1 series:
    S = E + E Q and the bracket is z1 z2 z3 t + E Q.
    """
    _check_closed_order(order)
    cls = canonical_class(perm_class)
    triple = tuple(triple)
    lanes = _lanes(triple, TRIPLES)
    if cls == "all":
        part = _e_xyu(order) + _triple_tail(order)
    else:
        parts = (lambda: _triple_tail(order), lambda: _e_xyu(order))
        part = _reading(order, triple, cls, _TRIPLE_LANES, parts)
    return _renamed(part, _TRIPLE_LANES, lanes)


def _quad_irreducible(order: int) -> TruncSeries:
    """I = xyuvt + E(t,x,y,u) S(t,y,u,v)."""

    def built() -> list[TruncSeries]:
        low = _one_short(order)
        e_xyu = e_function(low, ("x", "y", "u"))
        s_yuv = closed_form_triple(low, ("rmin", "rmax", "lmin"))
        xyuv = _t_times(order, ("x", "y", "u", "v"))
        return [xyuv + _short_product(order, e_xyu, s_yuv)]

    return _longest_prefix(_longest("quad I"), order, built)[0]


def _quad_reducible(order: int) -> TruncSeries:
    """R = I(t,x,y,v) S(t,x,u,v)."""

    def built() -> list[TruncSeries]:
        low = _one_short(order)
        i_xyv = closed_form_triple(low, ("rmax", "rmin", "lmax"), "irreducible")
        s_xuv = closed_form_triple(low, ("lmin", "rmin", "lmax"))
        return [_short_product(order, i_xyv, s_xuv)]

    return _longest_prefix(_longest("quad R"), order, built)[0]


def closed_form_quad(order: int, perm_class: str = "all") -> TruncSeries:
    """Closed form for the joint distribution of (lmax, rmax, lmin, rmin).

    S(t,x,y,u,v) = I(t,x,y,u,v) + R(t,x,y,u,v) where

    * I = xyuvt + E(t,x,y,u) S(t,y,u,v): here E with z-slots (x, y, u) is
      the reducible (lmax, rmax, lmin) triple series plus xyut, and
      S(t,y,u,v) is the (rmin, rmax, lmin) triple closed form;
    * R = I(t,x,y,v) S(t,x,u,v): the irreducible series of the statistics
      marked by x, y, v is the (rmax, rmin, lmax) triple (z-slots y, v, x
      — not the literal variable listing), times the (lmin, rmin, lmax)
      triple closed form.

    I and R are memoized each on its own, so one class never builds the
    other's product.

    >>> from sepstats.series import MultiPoly
    >>> c1 = closed_form_quad(3).coefficient(1)
    >>> c1 == MultiPoly.from_exponents({(0, 0, 1, 1, 1, 1): 1})
    True
    """
    _check_closed_order(order)
    cls = canonical_class(perm_class)
    if cls == "irreducible":
        return _quad_irreducible(order)
    if cls == "reducible":
        return _quad_reducible(order)
    return _quad_irreducible(order) + _quad_reducible(order)


def closed_form(
    order: int, stats: Sequence[str], perm_class: str = "all"
) -> TruncSeries:
    """Dispatch to the closed form of a statistic tuple in ``FORMS``."""
    _check_closed_order(order)
    stats = tuple(stats)
    _lanes(stats, FORMS)  # a tuple without a closed form is a ValueError
    if stats in SINGLES:
        return _single_class(order, stats[0], canonical_class(perm_class))
    if stats in SET2_PAIRS:
        return closed_form_pair_set2(order, stats, perm_class)
    if stats in SET1_PAIRS:
        return closed_form_pair_set1(order, stats, perm_class)
    if stats in TRIPLES:
        return closed_form_triple(order, stats, perm_class)
    return closed_form_quad(order, perm_class)


# ---------------------------------------------------------------------------
# Residuals for the ascent/descent relations
# ---------------------------------------------------------------------------


def asc_des_cubic_residual(order: int) -> TruncSeries:
    """pq S^3 + pq t S^2 + ((p+q)t - 1) S + t for the fixpoint S(t,p,q);
    identically zero when the cubic relation holds."""
    s, _ = solve_fixpoint(order, ("p", "q"))
    t = TruncSeries.t(order)
    p = MultiPoly.variable("p")
    q = MultiPoly.variable("q")
    return (p * q) * (s * s * s) + (p * q) * (t * s * s) + (t * (p + q) - 1) * s + t


def asc_des_irr_residual(order: int) -> TruncSeries:
    """I(t,p,q) - (t + q(t+S)S)/(1+qS) for the fixpoint pair; zero when the
    irreducible closed form holds."""
    s, i = solve_fixpoint(order, ("p", "q"))
    t = TruncSeries.t(order)
    q = MultiPoly.variable("q")
    closed = (t + q * ((t + s) * s)).divide(1 + q * s)
    return i - closed


def des_cubic_residual(order: int) -> TruncSeries:
    """q S^3 + qt S^2 + ((1+q)t - 1) S + t for S(t,q) (the p = 1
    specialization of the cubic); zero when the descent-only relation
    holds."""
    s_pq, _ = solve_fixpoint(order, ("p", "q"))
    s = s_pq.specialize("p")
    t = TruncSeries.t(order)
    q = MultiPoly.variable("q")
    return q * (s * s * s) + q * (t * s * s) + (t * (q + 1) - 1) * s + t
