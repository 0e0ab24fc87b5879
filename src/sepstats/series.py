"""Truncated formal power series over exact multivariate polynomials.

The coefficient ring is Z[p, q, x, y, u, v]: every coefficient is an
``int``, and a ``divide``, ``invert`` or ``sqrt`` whose result is not
integral is a ``ValueError`` naming the power of t where it is not.  A
:class:`MultiPoly` is a sparse map from monomials to coefficients, with the
six exponents packed into one integer key (9 bits per variable: 8 value
bits and a guard bit) so that monomial multiplication is integer addition.
A :class:`TruncSeries` is a series in ``t`` truncated at a fixed order, one
polynomial per power of t.

The centerpiece is :func:`solve_fixpoint`, which solves the coupled
functional equations

    S = xyuvt + p * S|y=1 * I|u=1 + q * (S|v=1 - I|v=1 + xyut) * S|x=1
    I = xyuvt +                     q * (S|v=1 - I|v=1 + xyut) * S|x=1

for the joint distribution series S (all separable permutations) and I
(irreducible ones) order by order: every product on the right has
t-valuation at least 2, so the coefficient of t^n depends only on lower
orders.  Any subset of the six variables may be pre-set to 1, which solves
the correspondingly specialized system directly.  The solves are memoized
by variable set alone: each keeps its longest (S, I) prefix, answers a
lower order by truncation and resumes the recurrence for a higher one.

>>> S, I = solve_fixpoint(3, active=("p", "q"))
>>> str(S.coefficient(3))
'p^2 + 4*p*q + q^2'
>>> str(I.coefficient(3))
'2*p*q + q^2'
"""

from __future__ import annotations

import functools
import json
import operator
import re
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from types import MappingProxyType

from .numbers import _check_int

__all__ = [
    "VARIABLES",
    "STAT_NAMES",
    "STAT_TO_VARIABLE",
    "stat_lanes",
    "ENGINE_VERSION",
    "MAX_ORDER",
    "check_order",
    "MultiPoly",
    "TruncSeries",
    "parse_poly",
    "solve_fixpoint",
    "series_to_document",
    "document_view",
    "document_to_series",
    "canonical_json",
]

#: Fixed variable order; variable i carries statistic i of ``STAT_NAMES``.
VARIABLES: tuple[str, ...] = ("p", "q", "x", "y", "u", "v")

#: The six statistics: ascents, descents, left-to-right maxima,
#: right-to-left maxima, left-to-right minima and right-to-left minima.
STAT_NAMES: tuple[str, ...] = ("asc", "des", "lmax", "rmax", "lmin", "rmin")

#: Which series variable carries which statistic.
STAT_TO_VARIABLE: dict[str, str] = dict(zip(STAT_NAMES, VARIABLES))


def stat_lanes(stats: Iterable[str]) -> tuple[str, ...]:
    """The variables carrying ``stats``, in order.  An empty, repeated or
    unknown statistic is a ``ValueError``.

    >>> stat_lanes(("rmax", "asc"))
    ('y', 'p')
    """
    stats = tuple(stats)
    if not stats:
        raise ValueError("at least one statistic is required")
    unknown = [s for s in stats if s not in STAT_TO_VARIABLE]
    if unknown:
        raise ValueError(
            f"unknown statistics {unknown}; choose from {', '.join(STAT_NAMES)}"
        )
    if len(set(stats)) != len(stats):
        raise ValueError(f"duplicate statistics in {stats}")
    return tuple(STAT_TO_VARIABLE[s] for s in stats)


#: Bumped whenever the serialized format or the solver semantics change;
#: part of every cache key.
ENGINE_VERSION = 1

#: Value bits per variable in a packed monomial key.
LANE_BITS = 8
#: Largest truncation order the series roots accept.  A coefficient of t^n
#: has no exponent above n, so this is the largest exponent a lane holds.
MAX_ORDER = (1 << LANE_BITS) - 1

# Each variable's field is one bit wider than its value bits.  A product of
# two in-range monomials sums exponents to at most 2 * MAX_ORDER, which fits
# the field, so an overflow sets that field's top (guard) bit instead of
# carrying into the next variable.
_SHIFT: dict[str, int] = {name: (LANE_BITS + 1) * i for i, name in enumerate(VARIABLES)}
_LANE: dict[str, int] = {name: MAX_ORDER << s for name, s in _SHIFT.items()}
_GUARD = sum(1 << (s + LANE_BITS) for s in _SHIFT.values())
_S_P, _S_Q, _S_X, _S_Y, _S_U, _S_V = _SHIFT.values()


def _shift(name: str) -> int:
    """The lane offset of variable ``name``: the one check that a name is
    a variable."""
    try:
        return _SHIFT[name]
    except KeyError:
        raise ValueError(
            f"unknown variable {name!r}; expected one of {VARIABLES}"
        ) from None


Exponents = tuple[int, int, int, int, int, int]


def _pack(exps: Sequence[int]) -> int:
    """The key of an exponent vector over ``VARIABLES``: exactly one ``int``
    (not ``bool``) in 0..``MAX_ORDER`` per variable, else ``ValueError``."""
    if len(exps) != len(VARIABLES):
        raise ValueError(
            f"exponent vector {list(exps)} has {len(exps)} entries, "
            f"expected one per variable of {VARIABLES}"
        )
    key = 0
    for name, e in zip(VARIABLES, exps):
        if type(e) is not int:
            raise ValueError(f"exponent of {name} is not an integer: {e!r}")
        if not 0 <= e <= MAX_ORDER:
            raise ValueError(f"exponent of {name} out of range: {e}")
        key |= e << _SHIFT[name]
    return key


def _unpack(key: int) -> Exponents:
    m = MAX_ORDER
    return (
        key >> _S_P & m,
        key >> _S_Q & m,
        key >> _S_X & m,
        key >> _S_Y & m,
        key >> _S_U & m,
        key >> _S_V & m,
    )


#: ``_FACTOR_TEXT[i][e]`` is how ``str`` writes ``VARIABLES[i]`` to the
#: power e: for x, ``""`` (e = 0), ``"x"``, ``"x^2"``, ..., ``"x^255"``.
_FACTOR_TEXT: tuple[tuple[str, ...], ...] = tuple(
    ("", name, *(f"{name}^{e}" for e in range(2, MAX_ORDER + 1))) for name in VARIABLES
)


#: A packed key's low half holds p, q, x and its high half y, u, v.
_HALF_BITS = 3 * (LANE_BITS + 1)
_HALF_MASK = (1 << _HALF_BITS) - 1


def _half_row(half: int, first: int) -> tuple[int, int, str]:
    """Degree, exponents as one int (first lane highest) and factor text of
    one half key over ``VARIABLES[first:first + 3]``."""
    a, b, c = half & MAX_ORDER, half >> _S_Q & MAX_ORDER, half >> _S_X & MAX_ORDER
    lanes = _FACTOR_TEXT[first : first + 3]
    text = "*".join(filter(None, map(operator.getitem, lanes, (a, b, c))))
    return a + b + c, a << _S_X | b << _S_Q | c, text


def check_order(order: int) -> None:
    """Reject an order that is not an ``int`` (a ``bool``, a float), one
    below 1, or one whose exponents could overflow a lane."""
    _check_int(order, "series order", 1)
    if order > MAX_ORDER:
        raise ValueError(
            f"series order {order} exceeds {MAX_ORDER}, the largest exponent "
            f"one {LANE_BITS}-bit lane holds"
        )


def _canonical(out: dict[int, int]) -> "MultiPoly":
    """The one finisher: ``out`` without the coefficients that cancelled,
    as a MultiPoly."""
    if 0 in out.values():
        out = {k: c for k, c in out.items() if c}
    return MultiPoly(out)


# -- the product kernel ------------------------------------------------------
#
# Every polynomial product, and every sum of products in the series algebra
# and the fixpoint, accumulates term products into one dict, which is then
# checked for lane overflow and cleared of zeros once.
#
# Each stream of sums of products (a series product, divide or sqrt; each
# of the fixpoint loop's two sums) also hands the kernel one pack memo, a
# dict that lives as long as the stream.  The first sum of products in it
# with at least _PACK_MIN_PAIRS term pairs picks one lane for the whole
# stream: the lane whose grouping (terms that agree on the other five
# lanes) cuts the pair count the most, if that is at least
# _PACK_MIN_GAIN-fold, else none.
# Packed, each group is one Python int with one slot per exponent of the
# lane (Kronecker substitution), the group ints multiply as big integers in
# the same dict loop, and each output int is read back once as signed
# digits.  Each coefficient is packed once per stream and slot width.
# Small sums and MultiPoly products stay on the term dicts of _mul_into,
# which is also the packed path's test oracle.  So do the six-variable
# master's two streams, though grouping does cut their late sums (about 4x
# at t^12, where S has 8,378 terms in 1,983 groups by x): each stream
# decides at its first sum of at least _PACK_MIN_PAIRS pairs (2,553),
# where the best lane cuts only 2.5x.  A gain of 2 would pack them, about
# 1.7-2.4x faster at orders 16-18 but for 2-3 MB more peak memory, so the
# gain stays 4.

#: Fewest term pairs in one sum of products before a stream picks a lane.
_PACK_MIN_PAIRS = 2048
#: Least factor by which the chosen lane's grouping must cut the pair count.
_PACK_MIN_GAIN = 4
#: Slot widths are multiples of this many bits, so packs outlive small growth.
_SLOT_STEP = 64

_LANE_OVERFLOW = (
    f"product exponent exceeds {MAX_ORDER}, the largest exponent one "
    f"{LANE_BITS}-bit lane holds"
)


def _mul_into(out: dict[int, int], a: dict[int, int], b: dict[int, int]) -> None:
    """Add every term product of ``a`` and ``b`` into ``out``."""
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            v = get(k)
            out[k] = c1 * c2 if v is None else v + c1 * c2


def _check_guards(out: dict[int, int]) -> None:
    """Reject keys of which one sets a guard bit: an exponent past ``MAX_ORDER``."""
    if out and functools.reduce(operator.or_, out) & _GUARD:
        raise ValueError(_LANE_OVERFLOW)


def _finished(out: dict[int, int]) -> "MultiPoly":
    """A product's term dict, guard-checked, through :func:`_canonical`."""
    _check_guards(out)
    return _canonical(out)


def _best_lane(
    pairs: list[tuple["MultiPoly", "MultiPoly"]], mid: "MultiPoly | None", work: int
) -> int | None:
    """The shift of the lane whose grouping leaves the fewest group pairs,
    if that cuts ``work`` term pairs at least ``_PACK_MIN_GAIN``-fold."""
    polys = {id(p): p for pair in pairs for p in pair}
    if mid is not None:
        polys[id(mid)] = mid
    best, fewest = None, work // _PACK_MIN_GAIN + 1
    for shift in _SHIFT.values():
        rest = ~(MAX_ORDER << shift)
        groups = {i: len({k & rest for k in p._terms}) for i, p in polys.items()}
        grouped = sum(groups[id(a)] * groups[id(b)] for a, b in pairs)
        if mid is not None:
            grouped += groups[id(mid)] ** 2
        if grouped < fewest:
            best, fewest = shift, grouped
    return best


def _pack_lane(terms: dict[int, int], shift: int, width: int) -> tuple[dict[int, int], int]:
    """Group ``terms`` by their key outside the lane at ``shift``: each
    group is one int, sum(c << width * e) over its terms of lane exponent
    e.  Also returns the largest exponent in the lane."""
    rest = ~(MAX_ORDER << shift)
    groups: dict[int, int] = {}
    get = groups.get
    top = 0
    for k, c in terms.items():
        e = k >> shift & MAX_ORDER
        if e > top:
            top = e
        r = k & rest
        v = get(r)
        c <<= width * e
        groups[r] = c if v is None else v + c
    return groups, top


def _packing(
    memo: dict,
    pairs: list[tuple["MultiPoly", "MultiPoly"]],
    doubled: bool,
    mid: "MultiPoly | None",
) -> tuple[int, int, list[tuple[dict, dict]], dict | None] | None:
    """How one sum of products runs packed: (lane shift, slot width, the
    group dicts of each pair, those of ``mid``), or None for the term
    dicts.  ``memo`` holds the stream's choice of lane ("lane", None
    for none), each operand's l1 norm ("norms") and its packs at the
    current slot width ("width", "packs"); operands are keyed by ``id``
    and kept alive there."""
    decided = "lane" in memo
    if decided and memo["lane"] is None:
        return None
    if not decided:
        work = sum(len(a._terms) * len(b._terms) for a, b in pairs)
        if mid is not None:
            work += len(mid._terms) ** 2
        if work < _PACK_MIN_PAIRS:
            return None
    norms = memo.setdefault("norms", {})

    def norm(p: MultiPoly) -> int:
        entry = norms.get(id(p))
        if entry is None:
            entry = norms[id(p)] = (p, sum(map(abs, p._terms.values())))
        return entry[1]

    bound = sum(norm(a) * norm(b) for a, b in pairs)
    if doubled:
        bound += bound
    if mid is not None:
        bound += norm(mid) ** 2
    if not decided:
        memo["lane"] = _best_lane(pairs, mid, work)
        if memo["lane"] is None:
            return None
    shift = memo["lane"]
    # every output digit has |d| <= bound; one more bit holds its sign
    width = -(-(bound.bit_length() + 1) // _SLOT_STEP) * _SLOT_STEP
    if width > memo.get("width", 0):
        memo["width"] = width
        memo["packs"] = {}
    width = memo["width"]
    packs = memo["packs"]

    def pack(p: MultiPoly) -> tuple[dict[int, int], int]:
        entry = packs.get(id(p))
        if entry is None:
            entry = packs[id(p)] = (p, *_pack_lane(p._terms, shift, width))
        return entry[1], entry[2]

    grouped = []
    top = 0
    for a, b in pairs:
        (ga, ta), (gb, tb) = pack(a), pack(b)
        top = max(top, ta + tb)
        grouped.append((ga, gb))
    gm = None
    if mid is not None:
        gm, tm = pack(mid)
        top = max(top, tm + tm)
    if top > MAX_ORDER:
        raise ValueError(_LANE_OVERFLOW)
    return shift, width, grouped, gm


def _unpacked(out: dict[int, int], shift: int, width: int) -> "MultiPoly":
    """The polynomial of packed group ints: each is read as balanced digits
    in -2**(width-1)..2**(width-1)-1, one per exponent of the lane at
    ``shift``, keeping the nonzero ones.  Canonical by construction: a
    zero group int unpacks to no term."""
    full = 1 << width
    half = full >> 1
    mask = full - 1
    step = 1 << shift
    terms: dict[int, int] = {}
    for key, v in out.items():
        while v:
            d = v & mask
            v >>= width
            if d >= half:
                d -= full
                v += 1
            if d:
                terms[key] = d
            key += step
    return MultiPoly(terms)


def _kernel(
    memo: dict,
    pairs: list[tuple["MultiPoly", "MultiPoly"]],
    doubled: bool,
    mid: "MultiPoly | None",
) -> "MultiPoly":
    """sum(a * b for a, b in pairs), doubled if ``doubled``, plus
    ``mid * mid``; packed where :func:`_packing` allows."""
    plan = _packing(memo, pairs, doubled, mid)
    if plan is None:
        grouped = [(a._terms, b._terms) for a, b in pairs]
        gm = None if mid is None else mid._terms
    else:
        shift, width, grouped, gm = plan
    out: dict[int, int] = {}
    for ga, gb in grouped:
        _mul_into(out, ga, gb)
    if doubled:
        for k, v in out.items():
            out[k] = v + v
    if gm is not None:
        _mul_into(out, gm, gm)
    if plan is None:
        return _finished(out)
    _check_guards(out)  # the other five lanes; _packing checked the packed one
    return _unpacked(out, shift, width)


def _sum_of_products(
    pairs: Iterable[tuple["MultiPoly", "MultiPoly"]], memo: dict
) -> "MultiPoly":
    """sum(a * b for a, b in pairs), accumulated in one dict; ``memo`` is
    the calling stream's pack memo."""
    return _kernel(memo, [(a, b) for a, b in pairs if a._terms and b._terms], False, None)


def _square_sum(c: Sequence["MultiPoly"], n: int, lo: int, memo: dict) -> "MultiPoly":
    """sum(c[i] * c[n - i] for i in lo..n - lo), by symmetry: each pair
    below the middle is multiplied once and doubled, and the middle square
    (n even) is added once; ``memo`` is the calling stream's pack memo."""
    pairs = [(c[i], c[n - i]) for i in range(lo, (n + 1) // 2) if c[i] and c[n - i]]
    mid = c[n // 2] if n % 2 == 0 and c[n // 2] else None
    return _kernel(memo, pairs, True, mid)


class MultiPoly:
    """Sparse exact polynomial in the fixed variables p, q, x, y, u, v.

    Instances are immutable by convention; all operations return fresh
    objects.  Every instance is canonical: every coefficient a nonzero
    ``int``, no exponent past ``MAX_ORDER``.  Every coefficient a caller
    gives passes :func:`~sepstats.numbers._check_int`, so a ``bool``, a
    float or a fraction is a ``ValueError``.  The raw constructor trusts
    its dict to be canonical; every other result is canonical by
    construction or returns through :func:`_canonical`.

    Each exponent lives in a ``LANE_BITS``-wide lane, so no exponent may
    exceed ``MAX_ORDER`` (255).  Constructors check this, and every product
    raises ``ValueError`` when an exponent sum passes 255.  Series code
    stays inside the limit because :func:`solve_fixpoint` and the closed
    forms' radical reject orders above ``MAX_ORDER``.

    >>> f = MultiPoly.variable("x") + 2 * MultiPoly.variable("y")
    >>> str(f * f)
    'x^2 + 4*x*y + 4*y^2'
    >>> str(f.specialize("y"))
    'x + 2'
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, int]) -> None:
        self._terms = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls({})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls({0: 1})

    @classmethod
    def constant(cls, c: int) -> "MultiPoly":
        _check_int(c, "coefficient", None)
        return _canonical({0: c})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls({1 << _shift(name): 1})

    @classmethod
    def from_exponents(cls, data: Mapping[Sequence[int], int]) -> "MultiPoly":
        """Build from {exponent-vector: coefficient} with vectors over
        (p, q, x, y, u, v)."""
        terms: dict[int, int] = {}
        for exps, c in data.items():
            _check_int(c, "coefficient", None)
            if c:
                key = _pack(tuple(exps))
                terms[key] = terms.get(key, 0) + c
        return _canonical(terms)

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponents, int]]:
        """Iterate (exponent-vector, coefficient) in canonical order."""
        for key in sorted(self._terms):
            yield _unpack(key), self._terms[key]

    def coefficient(self, exps: Sequence[int]) -> int:
        return self._terms.get(_pack(tuple(exps)), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def constant_term(self) -> int:
        return self._terms.get(0, 0)

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self._terms)
        get = out.get
        for k, c in other._terms.items():
            out[k] = get(k, 0) + c
        return _canonical(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        # canonical by construction: each value stays a nonzero int
        return MultiPoly({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self._terms)
        get = out.get
        for k, c in other._terms.items():
            out[k] = get(k, 0) - c
        return _canonical(out)

    def __rsub__(self, other: int) -> "MultiPoly":
        return MultiPoly.constant(other) - self

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, MultiPoly):
            out: dict[int, int] = {}
            _mul_into(out, self._terms, other._terms)
            return _finished(out)
        if isinstance(other, TruncSeries):
            return NotImplemented  # the series scales each coefficient
        _check_int(other, "coefficient", None)
        return MultiPoly({k: c * other for k, c in self._terms.items()} if other else {})

    __rmul__ = __mul__

    def specialize(self, var: str, value: int = 1) -> "MultiPoly":
        """Substitute the integer ``value`` (default 1) for ``var``."""
        shift = _shift(var)
        mask = MAX_ORDER << shift
        _check_int(value, "specialize value", None)
        if value == 1:
            return self._masked(~mask)
        out: dict[int, int] = {}
        get = out.get
        for k, c in self._terms.items():
            e = (k & mask) >> shift
            if e:
                c = c * value**e
            k &= ~mask
            out[k] = get(k, 0) + c
        return _canonical(out)

    def keep_only(self, names: Iterable[str]) -> "MultiPoly":
        """Set every variable outside ``names`` to 1, in one pass.

        Same result as chaining :meth:`specialize` over the other variables.

        >>> f = parse_poly("x^2*y*u + x^2*u^3 - 2*y")
        >>> str(f.keep_only(("x",)))
        '2*x^2 - 2'
        >>> str(f.keep_only(()))
        '0'
        """
        mask = 0
        for name in names:
            mask |= MAX_ORDER << _shift(name)
        return self._masked(mask)

    def _masked(self, mask: int) -> "MultiPoly":
        """Set to 1 every variable whose lane ``mask`` clears: the one
        projection loop behind :meth:`keep_only` and :meth:`specialize`
        at 1.  Sums that cancel are dropped."""
        out: dict[int, int] = {}
        get = out.get
        for k, c in self._terms.items():
            k &= mask
            out[k] = get(k, 0) + c
        return _canonical(out)

    def map_variables(self, mapping: Mapping[str, str]) -> "MultiPoly":
        """Rename variables according to ``mapping`` (a lane renaming).

        The mapping must be injective, and a destination variable may not
        already occur in the polynomial unless it is itself renamed away —
        renaming never merges distinct lanes.
        """
        for var in (*mapping, *mapping.values()):
            _shift(var)
        dests = list(mapping.values())
        if len(set(dests)) != len(dests):
            raise ValueError("variable renaming maps two sources to one lane")
        blocked = 0
        for dst in dests:
            if dst not in mapping:
                blocked |= _LANE[dst]
        used = functools.reduce(operator.or_, self._terms, 0)
        if used & blocked:
            raise ValueError("variable renaming collides with existing lanes")
        # (source lane mask, left shift, right shift) per lane that moves
        moves = [
            (_LANE[src], max(d, 0), max(-d, 0))
            for src, dst in mapping.items()
            if (d := _SHIFT[dst] - _SHIFT[src]) and used & _LANE[src]
        ]
        stay = ~sum(mask for mask, _, _ in moves)
        # Injective, onto free lanes: distinct keys stay distinct (canonical).
        out: dict[int, int] = {}
        for k, c in self._terms.items():
            k2 = k & stay
            for mask, left, right in moves:
                k2 |= (k & mask) << left >> right
            out[k2] = c
        return MultiPoly(out)

    # -- comparison / hashing / display ------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = _canonical({0: other})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        # Highest total degree first, then descending exponent vectors.  A
        # key splits into its (p, q, x) and (y, u, v) halves, each distinct
        # half is read once by _half_row, and so a term costs two dict
        # lookups and sorts on one int: its degree, then p, q, x, y, u, v.
        lows: dict[int, tuple[int, int, str]] = {}
        highs: dict[int, tuple[int, int, str]] = {}
        pieces: dict[int, str] = {}
        for key, c in self._terms.items():
            low = key & _HALF_MASK
            high = key >> _HALF_BITS
            lo = lows.get(low)
            if lo is None:
                lo = lows[low] = _half_row(low, 0)
            hi = highs.get(high)
            if hi is None:
                hi = highs[high] = _half_row(high, 3)
            lo_degree, lo_order, factors = lo
            hi_degree, hi_order, hi_text = hi
            if hi_text:
                factors = f"{factors}*{hi_text}" if factors else hi_text
            # each piece carries its separator: " - " for a negative one
            sep = " - " if c < 0 else " + "
            c = abs(c)
            if not factors:
                piece = f"{sep}{c}"
            elif c == 1:
                piece = sep + factors
            else:
                piece = f"{sep}{c}*{factors}"
            degree = lo_degree + hi_degree
            pieces[degree << 2 * _HALF_BITS | lo_order << _HALF_BITS | hi_order] = piece
        parts = [pieces[k] for k in sorted(pieces, reverse=True)]
        # the tables are not live while the text is joined
        del lows, highs, pieces
        # the first piece keeps only its sign
        lead = parts[0]
        parts[0] = lead[3:] if lead[1] == "+" else "-" + lead[3:]
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<MultiPoly {self}>"


_TERM_RE = re.compile(r"\s*(?P<sign>[+-])?\s*(?P<body>[^+-]+)")
_FACTOR_RE = re.compile(r"(?P<num>\d+)|(?P<var>[pqxyuv])(?:\^(?P<exp>\d+))?")


def parse_poly(text: str) -> MultiPoly:
    """Parse a polynomial literal like ``'3*u^3*x^2*y^3 + x*y'``.

    Juxtaposition is allowed (``'3u^3x^2y^3'``); variables are the fixed
    six.  Inverse of ``str`` on integer polynomials.

    >>> parse_poly("u^2xy^2 + ux^2y") == parse_poly("x*y^2*u^2 + u*x^2*y")
    True
    >>> str(parse_poly("2x - x"))
    'x'
    >>> parse_poly("1 - 6t")
    Traceback (most recent call last):
    ...
    ValueError: cannot parse factor at 't'
    """
    data: dict[Exponents, int] = {}
    pos = 0
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial literal")
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or not m.group("body").strip():
            raise ValueError(f"cannot parse polynomial at {text[pos:]!r}")
        pos = m.end()
        sign = -1 if m.group("sign") == "-" else 1
        body = m.group("body").replace("*", " ")
        coeff = sign
        exps = [0, 0, 0, 0, 0, 0]
        bpos = 0
        seen = False
        while bpos < len(body):
            if body[bpos].isspace():
                bpos += 1
                continue
            fm = _FACTOR_RE.match(body, bpos)
            if not fm:
                raise ValueError(f"cannot parse factor at {body[bpos:]!r}")
            bpos = fm.end()
            seen = True
            if fm.group("num") is not None:
                coeff *= int(fm.group("num"))
            else:
                var = fm.group("var")
                e = int(fm.group("exp") or 1)
                exps[VARIABLES.index(var)] += e
        if not seen:
            raise ValueError(f"empty term in {text!r}")
        key = tuple(exps)
        data[key] = data.get(key, 0) + coeff
    return MultiPoly.from_exponents(data)


class TruncSeries:
    """A series in t of fixed truncation order with MultiPoly coefficients.

    ``coefficient(n)`` is the exact coefficient of t^n for 0 <= n <= order.
    Binary operations truncate to the smaller operand order; ``divide``
    additionally loses the valuation of the divisor, as documented there.

    >>> t = TruncSeries.t(5)
    >>> geom = (1 - t).invert()
    >>> str(geom.coefficient(5))
    '1'
    >>> (geom * (1 - t)).is_one()
    True
    """

    __slots__ = ("order", "_coeffs")

    def __init__(self, coeffs: Sequence[MultiPoly]) -> None:
        if not coeffs:
            raise ValueError("a TruncSeries needs at least the t^0 coefficient")
        self.order = len(coeffs) - 1
        self._coeffs = tuple(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls.term(order, 0, MultiPoly.zero())

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.term(order, 0, MultiPoly.one())

    @classmethod
    def t(cls, order: int) -> "TruncSeries":
        """The series t."""
        return cls.term(order, 1, MultiPoly.one())

    @classmethod
    def term(cls, order: int, power: int, poly: MultiPoly | int) -> "TruncSeries":
        """The single-term series poly * t^power, truncated at ``order``:
        the one constructor that gates an order and a power of t."""
        _check_int(order, "truncation order")
        _check_int(power, "t power")
        if not isinstance(poly, MultiPoly):
            poly = MultiPoly.constant(poly)
        coeffs = [MultiPoly.zero()] * (order + 1)
        if power <= order:
            coeffs[power] = poly
        return cls(coeffs)

    # -- inspection --------------------------------------------------------

    def coefficient(self, n: int) -> MultiPoly:
        if not 0 <= n <= self.order:
            raise IndexError(f"order {n} outside truncation 0..{self.order}")
        return self._coeffs[n]

    def coefficients(self) -> tuple[MultiPoly, ...]:
        return self._coeffs

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient (None for the zero series)."""
        for n, c in enumerate(self._coeffs):
            if c:
                return n
        return None

    def is_zero(self) -> bool:
        return all(not c for c in self._coeffs)

    def is_one(self) -> bool:
        return self._coeffs[0] == MultiPoly.one() and all(
            not c for c in self._coeffs[1:]
        )

    def first_difference(
        self, other: "TruncSeries", through: int | None = None
    ) -> int | None:
        """Smallest order where the two series differ, or None."""
        limit = min(self.order, other.order)
        if through is not None:
            limit = min(limit, through)
        for n in range(limit + 1):
            if self._coeffs[n] != other._coeffs[n]:
                return n
        return None

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value: "TruncSeries | MultiPoly | int", order: int) -> "TruncSeries":
        if isinstance(value, TruncSeries):
            return value
        if not isinstance(value, (int, MultiPoly)):
            raise TypeError(f"cannot combine a TruncSeries with {type(value).__name__}")
        return TruncSeries.term(order, 0, value)

    def __add__(self, other: "TruncSeries | MultiPoly | int") -> "TruncSeries":
        other = self._coerce(other, self.order)
        n = min(self.order, other.order)
        return TruncSeries(
            [self._coeffs[k] + other._coeffs[k] for k in range(n + 1)]
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries([-c for c in self._coeffs])

    def __sub__(self, other: "TruncSeries | MultiPoly | int") -> "TruncSeries":
        other = self._coerce(other, self.order)
        n = min(self.order, other.order)
        return TruncSeries(
            [self._coeffs[k] - other._coeffs[k] for k in range(n + 1)]
        )

    def __rsub__(self, other: "MultiPoly | int") -> "TruncSeries":
        return self._coerce(other, self.order) - self

    def __mul__(self, other: "TruncSeries | MultiPoly | int") -> "TruncSeries":
        # a scalar takes MultiPoly's scalar path, which gates it
        if isinstance(other, (int, MultiPoly)):
            return TruncSeries([c * other for c in self._coeffs])
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a = self._coeffs
        b = other._coeffs
        memo: dict = {}
        if a is b:
            return TruncSeries([_square_sum(a, k, 0, memo) for k in range(n + 1)])
        return TruncSeries([
            _sum_of_products(((a[i], b[k - i]) for i in range(k + 1)), memo)
            for k in range(n + 1)
        ])

    __rmul__ = __mul__

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse, the division of 1 by this series;
        requires a nonzero constant t^0 coefficient, and is exact over the
        integers only where :meth:`divide` is (a constant term of 1 or -1
        always is).

        >>> t = TruncSeries.t(4)
        >>> str((1 - t).invert().coefficient(3))
        '1'
        """
        c0 = self._coeffs[0]
        if not c0.is_constant() or not c0.constant_term():
            raise ValueError(
                "invert requires a nonzero constant t^0 coefficient, got "
                f"{c0}"
            )
        return TruncSeries.one(self.order).divide(self)

    def divide(self, divisor: "TruncSeries | MultiPoly | int") -> "TruncSeries":
        """Exact series division over the integers; a polynomial or ``int``
        divisor is the constant series, as for ``+``, ``-`` and ``*``.

        Requires t-valuation(self) >= t-valuation(divisor); the shared
        power of t is cancelled, and the remaining divisor b must have a
        nonzero constant t^0 coefficient b_0.  The quotient q of the
        remaining numerator a solves b q = a order by order:
        q_n = (a_n - sum_{k=1..n} b_k q_{n-k}) / b_0, exact to order
        min(orders) - valuation(divisor).  A q_n that b_0 does not divide
        is a ``ValueError`` naming t^n.

        >>> t = TruncSeries.t(4)
        >>> str((t * t - t).divide(t - t * t * 2).coefficient(2))
        '-2'
        >>> (1 - 3 * t).divide(3)
        Traceback (most recent call last):
        ...
        ValueError: not exact over the integers at t^0: 1 is not a multiple of 3
        """
        divisor = self._coerce(divisor, self.order)
        vb = divisor.valuation()
        if vb is None:
            raise ZeroDivisionError("series division by the zero series")
        va = self.valuation()
        if va is not None and va < vb:
            raise ValueError(
                f"valuation mismatch in divide: numerator has valuation {va}, "
                f"denominator {vb}"
            )
        order = min(self.order, divisor.order) - vb
        if order < 0:
            raise ValueError("divisor valuation exceeds truncation order")
        a = self._coeffs[vb:]
        b = divisor._coeffs[vb:]
        c0 = b[0]
        if not c0.is_constant():
            raise ValueError(
                "divide requires a nonzero constant t^0 coefficient in the "
                f"divisor once the shared power of t cancels, got {c0}"
            )
        b0 = c0.constant_term()
        q: list[MultiPoly] = []
        memo: dict = {}
        for n in range(order + 1):
            acc = _sum_of_products(((b[k], q[n - k]) for k in range(1, n + 1)), memo)
            q.append(_divide_exact(a[n] - acc, b0, n))
        return TruncSeries(q)

    def sqrt(self) -> "TruncSeries":
        """Square root of a series with constant term exactly 1, by the
        recurrence g_0 = 1, g_n = (f_n - sum_{k=1..n-1} g_k g_{n-k}) / 2;
        a g_n that is not integral is a ``ValueError`` naming t^n.

        >>> t = TruncSeries.t(6)
        >>> s = (1 - 6 * t + t * t).sqrt()
        >>> [int(s.coefficient(n).constant_term()) for n in range(5)]
        [1, -3, -4, -12, -44]
        """
        if self._coeffs[0] != MultiPoly.one():
            raise ValueError("sqrt requires constant term exactly 1")
        g = [MultiPoly.one()]
        memo: dict = {}
        for n in range(1, self.order + 1):
            g.append(_divide_exact(self._coeffs[n] - _square_sum(g, n, 1, memo), 2, n))
        return TruncSeries(g)

    # -- specialization ----------------------------------------------------

    def specialize(self, var: str, value: int = 1) -> "TruncSeries":
        """Substitute the integer ``value`` (default 1) for ``var`` in every
        coefficient."""
        return TruncSeries([c.specialize(var, value) for c in self._coeffs])

    def keep_only(self, names: Iterable[str]) -> "TruncSeries":
        """Set every variable outside ``names`` to 1 in every coefficient.

        >>> S, _ = solve_fixpoint(3)
        >>> str(S.keep_only(("p", "q")).coefficient(3))
        'p^2 + 4*p*q + q^2'
        """
        names = tuple(names)
        return TruncSeries([c.keep_only(names) for c in self._coeffs])

    def map_variables(self, mapping: Mapping[str, str]) -> "TruncSeries":
        """Rename variable lanes in every coefficient."""
        return TruncSeries([c.map_variables(mapping) for c in self._coeffs])

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.order, self._coeffs))

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self._coeffs):
            if not c:
                continue
            if n == 0:
                parts.append(str(c))
            else:
                body = str(c)
                if len(c) > 1 or (len(c) == 1 and "-" in body):
                    body = f"({body})"
                parts.append(f"{body}*t" + (f"^{n}" if n > 1 else ""))
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<TruncSeries order={self.order}: {self}>"


def _divide_exact(poly: MultiPoly, d: int, n: int) -> MultiPoly:
    """``poly / d`` coefficientwise for a nonzero ``int`` ``d``, ``poly``
    being the coefficient of t^n: a ``ValueError`` naming t^n unless ``d``
    divides every coefficient.  Canonical by construction, as ``poly`` is
    and ``d`` is nonzero."""
    out: dict[int, int] = {}
    for k, c in poly._terms.items():
        q, r = divmod(c, d)
        if r:
            raise ValueError(
                f"not exact over the integers at t^{n}: {c} is not a multiple of {d}"
            )
        out[k] = q
    return MultiPoly(out)


def assert_counting_series(series: TruncSeries, what: str = "series") -> None:
    """Assert all coefficients are polynomials with non-negative integers."""
    for n, poly in enumerate(series.coefficients()):
        _assert_counting(poly, n, what)


def _assert_counting(poly: MultiPoly, n: int, what: str) -> None:
    """Assert ``poly``, the coefficient of t^n, has non-negative int values."""
    if min(poly._terms.values(), default=0) >= 0:
        return
    for exps, c in poly.terms():
        if c < 0:
            raise AssertionError(
                f"{what}: coefficient of t^{n} monomial {exps} is {c}, "
                "expected a non-negative integer"
            )


def _longest_prefix(
    held: list[TruncSeries], order: int, grow: Callable[[], list[TruncSeries]]
) -> list[TruncSeries]:
    """The one policy of the prefix memos: ``held``, the longest series
    built so far, first replaced by ``grow()`` if shorter than ``order``,
    and truncated at ``order``, sharing its coefficients."""
    if not held or held[0].order < order:
        held[:] = grow()
    return [s if s.order == order else TruncSeries(s._coeffs[: order + 1]) for s in held]


# ---------------------------------------------------------------------------
# The master functional equations
# ---------------------------------------------------------------------------


def _normalize_active(active: Iterable[str]) -> tuple[str, ...]:
    shifts = {*map(_shift, active)}
    return tuple(v for v in VARIABLES if _SHIFT[v] in shifts)


# typed, as every memo in the package
@functools.lru_cache(maxsize=None, typed=True)
def _solve_fixpoint_cached(active: tuple[str, ...]) -> list[TruncSeries]:
    """The fixpoint memo of one normalized variable set: [S, I] at the
    highest order solved, empty before the first solve."""
    return []


def _resumed(
    order: int, active: tuple[str, ...], held: list[TruncSeries]
) -> list[TruncSeries]:
    """[S, I] to ``order``, the recurrence resumed from ``held`` ([S, I]
    at a lower order, or empty for a cold start)."""
    present = set(active)
    one = MultiPoly.one()
    p, q, x, y, u, v = (MultiPoly.variable(n) if n in present else one for n in VARIABLES)
    xyu = x * y * u
    xyuv = xyu * v

    def spec(poly: MultiPoly, name: str) -> MultiPoly:
        return poly.specialize(name) if name in present else poly

    zero = MultiPoly.zero()
    s_coeffs = [*held[0].coefficients()] if held else [zero, xyuv]
    i_coeffs = [*held[1].coefficients()] if held else [zero, xyuv]
    # The projections that t^n reads, of every coefficient below it: rebuilt
    # on each resume, not kept, and never taken of the top coefficient.
    s_y1 = [spec(c, "y") for c in s_coeffs]
    s_x1 = [spec(c, "x") for c in s_coeffs]
    i_u1 = [spec(c, "u") for c in i_coeffs]
    # the q-term's first factor (S - I)|v=1 + xyut; S and I agree at t^1
    red_v1 = [zero, xyu, *(spec(a - b, "v") for a, b in zip(s_coeffs[2:], i_coeffs[2:]))]

    # the two product streams group best by different lanes, so each
    # keeps its own pack memo
    q_memo: dict = {}
    p_memo: dict = {}
    for n in range(len(s_coeffs), order + 1):
        q_sum = _sum_of_products(((red_v1[i], s_x1[n - i]) for i in range(1, n)), q_memo)
        i_n = q * q_sum
        p_sum = _sum_of_products(((s_y1[i], i_u1[n - i]) for i in range(1, n)), p_memo)
        # the p-term is exactly s_n - i_n, the reducible coefficient
        p_term = p * p_sum
        s_n = i_n + p_term
        _assert_counting(s_n, n, "fixpoint S")
        _assert_counting(i_n, n, "fixpoint I")
        s_coeffs.append(s_n)
        i_coeffs.append(i_n)
        if n < order:
            s_y1.append(spec(s_n, "y"))
            s_x1.append(spec(s_n, "x"))
            i_u1.append(spec(i_n, "u"))
            red_v1.append(spec(p_term, "v"))
    return [TruncSeries(s_coeffs), TruncSeries(i_coeffs)]


def solve_fixpoint(
    order: int, active: Iterable[str] = VARIABLES
) -> tuple[TruncSeries, TruncSeries]:
    """Solve the master equations with the given variables active.

    Variables not listed in ``active`` are set to 1 throughout, which
    yields the exact specialized system.  Returns ``(S, I)`` truncated at
    ``order``.  The memo keeps one (S, I) prefix per variable set, the
    longest solved: a lower order is read off it by truncation, and a
    higher one resumes the recurrence from it.

    >>> S, I = solve_fixpoint(4, active=())
    >>> [int(S.coefficient(n).constant_term()) for n in range(5)]
    [0, 1, 2, 6, 22]
    >>> [int(I.coefficient(n).constant_term()) for n in range(5)]
    [0, 1, 1, 3, 11]
    """
    check_order(order)
    active = _normalize_active(active)
    held = _solve_fixpoint_cached(active)
    s, i = _longest_prefix(held, order, lambda: _resumed(order, active, held))
    return s, i


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
#
# A series document is {"coefficients": {"0": ..., str(order): ...},
# "engine", "name", "order", "variables"}: the coefficient of t^n is a list
# of [exponents, coefficient, 1] triples in ascending key order (the last
# field, a denominator that is always 1, keeps the text earlier versions
# wrote),
# and the document's one text is json.dumps(doc, sort_keys=True,
# separators=(",", ":")).  Both ends work one coefficient at a time, so
# neither holds the document tree (two lists per term, about 200 B): the
# encoder writes each coefficient's array from the text of its two half
# keys, and a read slices each array out of the document text.  The decoder
# reads only such text, by one triple pattern, and keeps a coefficient only
# if re-encoding it gives back exactly its text: a document is read only
# in the one form it is written in.

_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


class _HalfText(dict):
    """Half key -> ``"a,b,c"``, its three exponents as JSON array items
    (a key's low half holds p, q, x and its high half y, u, v)."""

    def __missing__(self, half: int) -> str:
        m = MAX_ORDER
        text = self[half] = f"{half & m},{half >> _S_Q & m},{half >> _S_X & m}"
        return text


def _coefficient_text(terms: dict[int, int], halves: _HalfText) -> str:
    """The canonical JSON array of one coefficient's triples: the one way
    a coefficient is written.  ``halves`` caches the text of each half key
    across the coefficients of a document."""
    low, bits = _HALF_MASK, _HALF_BITS
    parts = [
        f"[[{halves[key & low]},{halves[key >> bits]}],{terms[key]},1]" for key in sorted(terms)
    ]
    return f"[{','.join(parts)}]"


#: One triple of a coefficient's canonical text, in ASCII digits: the text
#: of its two half keys, its coefficient and the denominator 1.
_TRIPLE = re.compile(r"\[\[([0-9]+,[0-9]+,[0-9]+),([0-9]+,[0-9]+,[0-9]+)\],(-?[0-9]+),1\]")


class _HalfKey(dict):
    """``"a,b,c"`` -> the half key it writes: the inverse of :class:`_HalfText`."""

    def __missing__(self, text: str) -> int:
        a, b, c = map(int, text.split(","))
        half = self[text] = a | b << _S_Q | c << _S_X
        return half


class _Coefficients(Mapping):
    """A document's read-only "coefficients" member.  ``text(key)`` is one
    coefficient's canonical array text, written from a series' polynomial
    or sliced out of a document's text, and a value is parsed from that
    text only when asked for."""

    __slots__ = ("_sources", "_text")

    def __init__(self, sources: dict[str, object], text: Callable[[object], str]) -> None:
        self._sources = sources
        self._text = text

    def text(self, key: str) -> str:
        return self._text(self._sources[key])

    def __getitem__(self, key: str) -> list:
        return json.loads(self.text(key))

    def __iter__(self) -> Iterator[str]:
        return iter(self._sources)

    def __len__(self) -> int:
        return len(self._sources)


def series_to_document(name: str, series: TruncSeries) -> Mapping:
    """Read-only document of a series: "order" and "coefficients", which
    maps "0".."order" to the coefficient's triples ``[exponents,
    coefficient, 1]`` in ascending key order.  Nothing is written
    until asked for: :func:`canonical_json` writes the document one
    coefficient at a time, and :func:`document_view` reads its text back
    the same way, which is why a cache file must be canonical."""
    halves = _HalfText()
    return MappingProxyType({
        "engine": ENGINE_VERSION,
        "name": name,
        "order": series.order,
        "variables": list(VARIABLES),
        "coefficients": _Coefficients(
            {str(n): poly._terms for n, poly in enumerate(series.coefficients())},
            lambda terms: _coefficient_text(terms, halves),
        ),
    })


#: How a canonical document's text begins: "coefficients" sorts first.
_OPEN = '{"coefficients":{'
#: The members after "coefficients", in canonical order.
_TAIL_KEYS = ["engine", "name", "order", "variables"]
_NOT_CANONICAL = "the document text is not canonical"


def document_view(text: str) -> Mapping:
    """Read-only document of ``text``, which must be laid out as
    :func:`canonical_json` writes a document, else a ``ValueError``.  The
    members after "coefficients" are parsed now; each coefficient's array
    is sliced out of ``text`` and parsed only when asked for, so a read
    never holds the whole document tree.  :func:`document_to_series`
    checks that each coefficient's text is canonical as it decodes it."""
    if not text.startswith(_OPEN):
        raise ValueError(_NOT_CANONICAL)
    spans: dict[str, slice] = {}
    key = ""
    start = len(_OPEN)
    while True:
        # an array holds no '"', so the next one opens the next key, or
        # "engine" after the '},' that closes the coefficients
        colon = text.find('":', start)
        stop = text.find('"', colon + 2)
        if not text.startswith('"', start) or colon < 0 or stop < 0 or text[stop - 1] != ",":
            raise ValueError(_NOT_CANONICAL)
        previous, key = key, text[start + 1 : colon]
        if spans and key <= previous:
            raise ValueError(_NOT_CANONICAL)
        last = text[stop - 2] == "}"
        spans[key] = slice(colon + 2, stop - 2 if last else stop - 1)
        start = stop
        if last:
            break
    tail = "{" + text[start:]
    try:
        members = json.loads(tail)
        canonical = list(members) == _TAIL_KEYS and _dumps(members) == tail
    except RecursionError:  # a member nested past the parser's depth
        canonical = False
    if not canonical:
        raise ValueError(_NOT_CANONICAL)
    members["coefficients"] = _Coefficients(spans, text.__getitem__)
    return MappingProxyType(members)


def document_to_series(doc: Mapping) -> TruncSeries:
    """Inverse of :func:`series_to_document` (bit-exact round trip: each
    coefficient keeps its ``int`` value), and the reader of a
    :func:`document_view`, one coefficient at a time.  Any other document,
    a plain dict too, is a ``ValueError``.

    So is a document of another series: other variables, an order that is
    not an ``int`` in 0..``MAX_ORDER``, or coefficient keys other than
    "0".."order".  Each coefficient is read by one triple pattern and kept
    only if re-encoding it gives back exactly its text: that one check
    rejects every other fault (a character no triple matches, a repeated
    monomial, an exponent above ``MAX_ORDER``, a zero coefficient, any
    denominator other than 1).
    """
    coefficients = doc.get("coefficients")
    if not isinstance(coefficients, _Coefficients):
        raise ValueError("not a document from series_to_document or document_view")
    if doc["variables"] != list(VARIABLES):
        raise ValueError(
            f"document variables {doc['variables']!r} are not {list(VARIABLES)}"
        )
    order = doc["order"]
    _check_int(order, "document order", 0, MAX_ORDER)
    keys = [*map(str, range(order + 1))]
    if {*coefficients} != {*keys}:
        raise ValueError(f"document coefficient keys are not exactly 0..{order}")
    halves, half_keys = _HalfText(), _HalfKey()
    coeffs: list[MultiPoly] = []
    for n, name in enumerate(keys):
        text = coefficients.text(name)
        terms: dict[int, int] = {}
        for low, high, c in map(re.Match.groups, _TRIPLE.finditer(text)):
            terms[half_keys[low] | half_keys[high] << _HALF_BITS] = int(c)
        poly = _canonical(terms)
        if _coefficient_text(poly._terms, halves) != text:
            raise ValueError(f"the coefficient of t^{n} is not written canonically")
        coeffs.append(poly)
    return TruncSeries(coeffs)


def canonical_json(doc: Mapping) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace): the text
    of ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``, written
    member by member, and a document's coefficients one at a time from
    their canonical text, never as a tree.  This text is the one form a
    cache file may take: :func:`document_view` reads only it."""
    members = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, _Coefficients):
            text = ",".join([f"{_dumps(k)}:{value.text(k)}" for k in sorted(value)])
            text = f"{{{text}}}"
        else:
            text = _dumps(value)
        members.append(f"{_dumps(key)}:{text}")
    return f"{{{','.join(members)}}}"
