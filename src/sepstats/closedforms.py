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

Memos: a series is memoized only when it does not depend on the class
and is asked for again, under canonical keys (order, lane names): the
radical, S(t,z) and its split S^2/(1+S), S/(1+S) per lane, and E per lane
triple.  Each class of a pair, triple or quad form is built from them.

>>> counts = [int(schroeder_gf(6).coefficient(n).constant_term()) for n in range(1, 7)]
>>> counts
[1, 2, 6, 22, 90, 394]
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from .distributions import STAT_TO_VARIABLE
from .enumeration import canonical_class
from .series import MultiPoly, TruncSeries, check_order, solve_fixpoint

__all__ = [
    "SINGLES",
    "SET2_PAIRS",
    "SET1_PAIRS",
    "TRIPLES",
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
_TRIPLES_RMAX_LMIN_TAIL = {("lmax", "rmax", "lmin"), ("rmin", "rmax", "lmin")}


def _lane(stat: str) -> str:
    try:
        return STAT_TO_VARIABLE[stat]
    except KeyError:
        raise ValueError(
            f"unknown statistic {stat!r}; expected one of "
            f"{tuple(STAT_TO_VARIABLE)}"
        ) from None


@functools.lru_cache(maxsize=None)
def discriminant_root(order: int) -> TruncSeries:
    """sqrt(1 - 6t + t^2), the radical shared by all closed forms.

    Every closed form builds on it, at one order above its own where a
    division cancels a power of t, so this is where their order is checked.
    """
    check_order(order)
    t = TruncSeries.t(order)
    return (1 - 6 * t + t * t).sqrt()


def schroeder_gf(order: int) -> TruncSeries:
    """Counting series of separable permutations: (1 - t - sqrt(1-6t+t^2))/2.

    >>> int(schroeder_gf(8).coefficient(7).constant_term())
    1806
    """
    t = TruncSeries.t(order)
    return (1 - t - discriminant_root(order)) * Fraction(1, 2)


def little_schroeder_gf(order: int) -> TruncSeries:
    """Counting series of irreducible ones: (1 + t - sqrt(1-6t+t^2))/4.

    >>> int(little_schroeder_gf(8).coefficient(7).constant_term())
    903
    """
    t = TruncSeries.t(order)
    return (1 + t - discriminant_root(order)) * Fraction(1, 4)


@functools.lru_cache(maxsize=None)
def _single_gf_by_lane(order: int, lane: str) -> TruncSeries:
    # Work one order higher: the final division cancels one power of t.
    w = order + 1
    t = TruncSeries.t(w)
    z = MultiPoly.variable(lane)
    r = discriminant_root(w)
    base = r * Fraction(-1, 4) - t * z + t * Fraction(1, 4) + Fraction(5, 4)
    inner = base * base + r - t - 1
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
    return _single_gf_by_lane(order, _lane(stat))


@functools.lru_cache(maxsize=None)
def _single_split_by_lane(order: int, lane: str) -> tuple[TruncSeries, TruncSeries]:
    """S^2/(1+S) and S/(1+S) for S = S(t,z) in the given lane; the class
    readings of the single form add or subtract zt to them."""
    s = _single_gf_by_lane(order, lane)
    one_plus = s + 1
    return (s * s).divide(one_plus), s.divide(one_plus)


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
    lane = _lane(stat)
    if stat in ("rmax", "lmin"):
        return _irr_aux(order, lane)
    return _single_split_by_lane(order, lane)[1]


def closed_form_R_single(order: int, stat: str = "rmax") -> TruncSeries:
    """Reducible-class single-statistic closed form (complement of
    :func:`closed_form_I_single` inside :func:`closed_form_S_single`):
    S/(1+S) - zt for stat in {rmax, lmin}, S^2/(1+S) for {lmax, rmin}."""
    lane = _lane(stat)
    square, linear = _single_split_by_lane(order, lane)
    if stat in ("rmax", "lmin"):
        return linear - TruncSeries.term(order, 1, MultiPoly.variable(lane))
    return square


def _irr_aux(order: int, lane: str) -> TruncSeries:
    """The I(t,z) that feeds the set-1 pair and A-function formulas:
    S^2/(1+S) + zt in the given lane."""
    square = _single_split_by_lane(order, lane)[0]
    return square + TruncSeries.term(order, 1, MultiPoly.variable(lane))


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
    cls = canonical_class(perm_class)
    if tuple(pair) not in SET2_PAIRS:
        raise ValueError(f"pair {pair} is not one of {SET2_PAIRS}")
    lane1, lane2 = _lane(pair[0]), _lane(pair[1])
    s1 = _single_gf_by_lane(order, lane1)
    s2 = _single_gf_by_lane(order, lane2)
    tz = TruncSeries.term(
        order, 1, MultiPoly.variable(lane1) * MultiPoly.variable(lane2)
    )
    den = 1 - s1 * s2
    if cls == "all":
        num = (s1 + 1) * (s2 + 1) * tz
    elif cls == "irreducible":
        num = (s2 + 1) * tz
    else:
        num = s1 * (s2 + 1) * tz
    return num.divide(den)


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
    cls = canonical_class(perm_class)
    pair = tuple(pair)
    if pair not in SET1_PAIRS:
        raise ValueError(f"pair {pair} is not one of {SET1_PAIRS}")
    lane1, lane2 = _lane(pair[0]), _lane(pair[1])
    core = _single_gf_by_lane(order, lane1) * _irr_aux(order, lane2)
    tz = TruncSeries.term(
        order, 1, MultiPoly.variable(lane1) * MultiPoly.variable(lane2)
    )
    s_pair = (core + tz).divide(1 - core - tz)
    if cls == "all":
        return s_pair
    if pair == ("rmax", "lmin"):
        return s_pair - core if cls == "irreducible" else core
    if cls == "irreducible":
        return core + tz
    return s_pair - core - tz


def e_function(order: int, lanes: Sequence[str] = ("x", "y", "u")) -> TruncSeries:
    """The auxiliary E(t, z1, z2, z3) used by the triple and quadruple forms:

    E = z1 z2 z3 t
        + (S(z1)+1)(S(z2)+1)(S(z3)+1) t^2 z1^2 z2 z3
          / ((1 - S(z1)S(z3)) (1 - S(z1)S(z2)))
    """
    return _e_function_by_lanes(order, tuple(lanes))


@functools.lru_cache(maxsize=None)
def _e_function_by_lanes(order: int, lanes: tuple[str, str, str]) -> TruncSeries:
    l1, l2, l3 = lanes
    s1 = _single_gf_by_lane(order, l1)
    s2 = _single_gf_by_lane(order, l2)
    s3 = _single_gf_by_lane(order, l3)
    z1 = MultiPoly.variable(l1)
    z2 = MultiPoly.variable(l2)
    z3 = MultiPoly.variable(l3)
    first = TruncSeries.term(order, 1, z1 * z2 * z3)
    num = (s1 + 1) * (s2 + 1) * (s3 + 1) * TruncSeries.term(
        order, 2, z1 * z1 * z2 * z3
    )
    den = (1 - s1 * s3) * (1 - s1 * s2)
    return first + num.divide(den)


def closed_form_triple(
    order: int,
    triple: Sequence[str] = ("lmax", "rmax", "lmin"),
    perm_class: str = "all",
) -> TruncSeries:
    """Joint closed form for one of the four statistic triples.

    S = E / (1 - A - t z2 z3) with A = S(z2) I(z3), where
    I(z3) = z3 t + S(z3)^2/(S(z3)+1) is the memoized :func:`_irr_aux`.
    For the (., rmax, lmin)-tailed triples the reducible part is
    E - z1 z2 z3 t; for the (., rmin, lmax)-tailed ones the irreducible
    part is E; the remaining parts share one bracket expression.
    """
    cls = canonical_class(perm_class)
    triple = tuple(triple)
    if triple not in TRIPLES:
        raise ValueError(f"triple {triple} is not one of {TRIPLES}")
    l1, l2, l3 = (_lane(s) for s in triple)
    z1 = MultiPoly.variable(l1)
    z2 = MultiPoly.variable(l2)
    z3 = MultiPoly.variable(l3)
    e_ser = e_function(order, (l1, l2, l3))
    tz123 = TruncSeries.term(order, 1, z1 * z2 * z3)
    rmax_lmin_tail = triple in _TRIPLES_RMAX_LMIN_TAIL
    if rmax_lmin_tail and cls == "reducible":
        return e_ser - tz123
    if not rmax_lmin_tail and cls == "irreducible":
        return e_ser
    a_func = _single_gf_by_lane(order, l2) * _irr_aux(order, l3)
    tz23 = TruncSeries.term(order, 1, z2 * z3)
    den = 1 - a_func - tz23
    if cls == "all":
        return e_ser.divide(den)
    bracket = (tz123 + (a_func + tz23) * (e_ser - tz123)).divide(den)
    return bracket if rmax_lmin_tail else bracket - tz123


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

    >>> from sepstats.series import MultiPoly
    >>> c1 = closed_form_quad(3).coefficient(1)
    >>> c1 == MultiPoly.from_exponents({(0, 0, 1, 1, 1, 1): 1})
    True
    """
    cls = canonical_class(perm_class)
    parts = []
    if cls != "reducible":
        xyuvt = TruncSeries.term(
            order,
            1,
            MultiPoly.variable("x")
            * MultiPoly.variable("y")
            * MultiPoly.variable("u")
            * MultiPoly.variable("v"),
        )
        e_xyu = e_function(order, ("x", "y", "u"))
        s_yuv = closed_form_triple(order, ("rmin", "rmax", "lmin"))
        parts.append(xyuvt + e_xyu * s_yuv)
    if cls != "irreducible":
        i_xyv = closed_form_triple(order, ("rmax", "rmin", "lmax"), "irreducible")
        s_xuv = closed_form_triple(order, ("lmin", "rmin", "lmax"))
        parts.append(i_xyv * s_xuv)
    return sum(parts[1:], parts[0])


def closed_form(
    order: int, stats: Sequence[str], perm_class: str = "all"
) -> TruncSeries:
    """Dispatch to the closed form for a 1-, 2-, 3-, or 4-statistic tuple."""
    stats = tuple(stats)
    if len(stats) == 1:
        cls = canonical_class(perm_class)
        if cls == "all":
            return closed_form_S_single(order, stats[0])
        if cls == "irreducible":
            return closed_form_I_single(order, stats[0])
        return closed_form_R_single(order, stats[0])
    if len(stats) == 2:
        if stats in SET2_PAIRS:
            return closed_form_pair_set2(order, stats, perm_class)
        if stats in SET1_PAIRS:
            return closed_form_pair_set1(order, stats, perm_class)
        raise ValueError(
            f"pair {stats} has no closed form; expected one of "
            f"{SET2_PAIRS + SET1_PAIRS}"
        )
    if len(stats) == 3:
        return closed_form_triple(order, stats, perm_class)
    if len(stats) == 4:
        if stats != ("lmax", "rmax", "lmin", "rmin"):
            raise ValueError(
                "the four-statistic closed form is stated for "
                "('lmax', 'rmax', 'lmin', 'rmin')"
            )
        return closed_form_quad(order, perm_class)
    raise ValueError(f"no closed form for {len(stats)} statistics")


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
