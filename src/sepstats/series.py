"""Truncated formal power series over exact multivariate polynomials.

The coefficient ring is Z[p, q, x, y, u, v] (with exact rationals admitted
in intermediate results of ``sqrt``/``divide``/``invert``).  A
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
the correspondingly specialized system directly.

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
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "VARIABLES",
    "ENGINE_VERSION",
    "MAX_ORDER",
    "check_order",
    "MultiPoly",
    "TruncSeries",
    "parse_poly",
    "solve_fixpoint",
    "solve_master_fixpoint",
    "series_to_document",
    "document_to_series",
    "canonical_json",
]

#: Fixed variable order: p, q track ascents and descents; x, y, u, v track
#: left-to-right maxima, right-to-left maxima, left-to-right minima, and
#: right-to-left minima respectively.
VARIABLES: tuple[str, ...] = ("p", "q", "x", "y", "u", "v")

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
_FIELDS = tuple(zip(_LANE.values(), _SHIFT.values()))

Coeff = int | Fraction
Exponents = tuple[int, int, int, int, int, int]


def _pack(exps: Sequence[int]) -> int:
    key = 0
    for name, e in zip(VARIABLES, exps):
        if not 0 <= e <= MAX_ORDER:
            raise ValueError(f"exponent of {name} out of range: {e}")
        key |= e << _SHIFT[name]
    return key


def _unpack(key: int) -> Exponents:
    return tuple((key & lane) >> s for lane, s in _FIELDS)  # type: ignore[return-value]


def check_order(order: int) -> None:
    """Reject a truncation order whose exponents could overflow a lane."""
    if order > MAX_ORDER:
        raise ValueError(
            f"series order {order} exceeds {MAX_ORDER}, the largest exponent "
            f"one {LANE_BITS}-bit lane holds"
        )


def _normalize_coeff(c: Coeff) -> Coeff:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


# -- the product kernel ------------------------------------------------------
#
# Every polynomial product, and every sum of products in the series algebra
# and the fixpoint, accumulates term products into one dict, which is then
# checked for lane overflow and cleared of zeros once.


def _mul_into(out: dict[int, Coeff], a: dict[int, Coeff], b: dict[int, Coeff]) -> None:
    """Add every term product of ``a`` and ``b`` into ``out``."""
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            v = get(k)
            out[k] = c1 * c2 if v is None else v + c1 * c2


def _finished(out: dict[int, Coeff]) -> "MultiPoly":
    """The polynomial of a kernel output: reject an exponent past
    ``MAX_ORDER``, then drop the coefficients that cancelled."""
    if out and functools.reduce(operator.or_, out) & _GUARD:
        raise ValueError(
            f"product exponent exceeds {MAX_ORDER}, the largest exponent one "
            f"{LANE_BITS}-bit lane holds"
        )
    if 0 in out.values():
        out = {k: c for k, c in out.items() if c}
    return MultiPoly(out)


def _sum_of_products(pairs: Iterable[tuple["MultiPoly", "MultiPoly"]]) -> "MultiPoly":
    """sum(a * b for a, b in pairs), accumulated in one dict."""
    out: dict[int, Coeff] = {}
    for a, b in pairs:
        _mul_into(out, a._terms, b._terms)
    return _finished(out)


def _square_sum(c: Sequence["MultiPoly"], n: int, lo: int) -> "MultiPoly":
    """sum(c[i] * c[n - i] for i in lo..n - lo), by symmetry: each pair
    below the middle is multiplied once and doubled, and the middle square
    (n even) is added once."""
    out: dict[int, Coeff] = {}
    for i in range(lo, (n + 1) // 2):
        _mul_into(out, c[i]._terms, c[n - i]._terms)
    for k, v in out.items():
        out[k] = v + v
    if n % 2 == 0:
        mid = c[n // 2]._terms
        _mul_into(out, mid, mid)
    return _finished(out)


class MultiPoly:
    """Sparse exact polynomial in the fixed variables p, q, x, y, u, v.

    Instances are immutable by convention; all operations return fresh
    objects.  The raw constructor trusts its dict (packed keys, no zero
    coefficients) — use the classmethod constructors for external data.

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

    def __init__(self, terms: dict[int, Coeff]) -> None:
        self._terms = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls({})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls({0: 1})

    @classmethod
    def constant(cls, c: Coeff) -> "MultiPoly":
        c = _normalize_coeff(c)
        return cls({0: c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        if name not in _SHIFT:
            raise ValueError(f"unknown variable {name!r}; expected one of {VARIABLES}")
        return cls({1 << _SHIFT[name]: 1})

    @classmethod
    def from_exponents(cls, data: Mapping[Sequence[int], Coeff]) -> "MultiPoly":
        """Build from {exponent-vector: coefficient} with vectors over
        (p, q, x, y, u, v)."""
        terms: dict[int, Coeff] = {}
        for exps, c in data.items():
            c = _normalize_coeff(c)
            if c:
                key = _pack(tuple(exps))
                terms[key] = terms.get(key, 0) + c
        return cls({k: c for k, c in terms.items() if c})

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponents, Coeff]]:
        """Iterate (exponent-vector, coefficient) in canonical order."""
        for key in sorted(self._terms):
            yield _unpack(key), self._terms[key]

    def coefficient(self, exps: Sequence[int]) -> Coeff:
        return self._terms.get(_pack(tuple(exps)), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def constant_term(self) -> Coeff:
        return self._terms.get(0, 0)

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MultiPoly | Coeff") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "MultiPoly | Coeff") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) - c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return MultiPoly(out)

    def __rsub__(self, other: Coeff) -> "MultiPoly":
        return MultiPoly.constant(other) - self

    def __mul__(self, other: "MultiPoly | Coeff") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return MultiPoly.zero()
            other = _normalize_coeff(other)
            return MultiPoly(
                {k: _normalize_coeff(c * other) for k, c in self._terms.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out: dict[int, Coeff] = {}
        _mul_into(out, self._terms, other._terms)
        return _finished(out)

    __rmul__ = __mul__

    def specialize(self, var: str, value: Coeff = 1) -> "MultiPoly":
        """Substitute ``value`` (default 1) for ``var``."""
        if var not in _SHIFT:
            raise ValueError(f"unknown variable {var!r}; expected one of {VARIABLES}")
        shift = _SHIFT[var]
        mask = _LANE[var]
        out: dict[int, Coeff] = {}
        for k, c in self._terms.items():
            e = (k & mask) >> shift
            if e and value != 1:
                c = c * value**e
            k2 = k & ~mask
            s = out.get(k2, 0) + c
            if s:
                out[k2] = s
            elif k2 in out:
                del out[k2]
        return MultiPoly(out)

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
            if name not in _LANE:
                raise ValueError(f"unknown variable {name!r}; expected one of {VARIABLES}")
            mask |= _LANE[name]
        out: dict[int, Coeff] = {}
        get = out.get
        for k, c in self._terms.items():
            k &= mask
            out[k] = get(k, 0) + c
        return MultiPoly({k: c for k, c in out.items() if c})

    def map_variables(self, mapping: Mapping[str, str]) -> "MultiPoly":
        """Rename variables according to ``mapping`` (a lane renaming).

        The mapping must be injective, and a destination variable may not
        already occur in the polynomial unless it is itself renamed away —
        renaming never merges distinct lanes.
        """
        for var in (*mapping, *mapping.values()):
            if var not in _SHIFT:
                raise ValueError(
                    f"unknown variable {var!r}; expected one of {VARIABLES}"
                )
        dests = list(mapping.values())
        if len(set(dests)) != len(dests):
            raise ValueError("variable renaming maps two sources to one lane")
        blocked = [_LANE[dst] for dst in dests if dst not in mapping]
        out: dict[int, Coeff] = {}
        for k, c in self._terms.items():
            if any(k & lane for lane in blocked):
                raise ValueError("variable renaming collides with existing lanes")
            k2 = k
            moved = 0
            for src, dst in mapping.items():
                e = (k & _LANE[src]) >> _SHIFT[src]
                k2 &= ~_LANE[src]
                moved |= e << _SHIFT[dst]
            k2 |= moved
            out[k2] = out.get(k2, 0) + c
        return MultiPoly({k: c for k, c in out.items() if c})

    # -- comparison / hashing / display ------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset((k, Fraction(c)) for k, c in self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []

        def sort_key(k: int) -> tuple:
            exps = _unpack(k)
            return (-sum(exps), tuple(-e for e in exps))

        for key in sorted(self._terms, key=sort_key):
            c = self._terms[key]
            exps = _unpack(key)
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(VARIABLES, exps)
                if e
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
        text = " + ".join(pieces)
        return text.replace("+ -", "- ")

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
    >>> str(parse_poly("1 - 6t")) if False else str(parse_poly("2x - x"))
    'x'
    """
    data: dict[Exponents, Coeff] = {}
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
        return cls([MultiPoly.zero()] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls([MultiPoly.one()] + [MultiPoly.zero()] * order)

    @classmethod
    def t(cls, order: int) -> "TruncSeries":
        """The series t."""
        return cls.term(order, 1, MultiPoly.one())

    @classmethod
    def term(cls, order: int, power: int, poly: MultiPoly | Coeff) -> "TruncSeries":
        """The single-term series poly * t^power."""
        if isinstance(poly, (int, Fraction)):
            poly = MultiPoly.constant(poly)
        coeffs = [MultiPoly.zero()] * (order + 1)
        if power < 0:
            raise ValueError(f"negative t power: {power}")
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

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError(
                f"cannot extend a series of order {self.order} to {order}"
            )
        return TruncSeries(self._coeffs[: order + 1])

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
    def _coerce(value: "TruncSeries | MultiPoly | Coeff", order: int) -> "TruncSeries":
        if isinstance(value, TruncSeries):
            return value
        if isinstance(value, (int, Fraction)):
            value = MultiPoly.constant(value)
        return TruncSeries.term(order, 0, value)

    def __add__(self, other: "TruncSeries | MultiPoly | Coeff") -> "TruncSeries":
        other = self._coerce(other, self.order)
        n = min(self.order, other.order)
        return TruncSeries(
            [self._coeffs[k] + other._coeffs[k] for k in range(n + 1)]
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries([-c for c in self._coeffs])

    def __sub__(self, other: "TruncSeries | MultiPoly | Coeff") -> "TruncSeries":
        other = self._coerce(other, self.order)
        n = min(self.order, other.order)
        return TruncSeries(
            [self._coeffs[k] - other._coeffs[k] for k in range(n + 1)]
        )

    def __rsub__(self, other: "MultiPoly | Coeff") -> "TruncSeries":
        return self._coerce(other, self.order) - self

    def __mul__(self, other: "TruncSeries | MultiPoly | Coeff") -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if isinstance(other, MultiPoly):
            return TruncSeries([c * other for c in self._coeffs])
        n = min(self.order, other.order)
        a = self._coeffs
        b = other._coeffs
        if a is b:
            return TruncSeries([_square_sum(a, k, 0) for k in range(n + 1)])
        return TruncSeries([
            _sum_of_products((a[i], b[k - i]) for i in range(k + 1))
            for k in range(n + 1)
        ])

    __rmul__ = __mul__

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse; requires an invertible constant term.

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
        b0 = c0.constant_term()
        b = self._coeffs
        out = [_divide_exact(MultiPoly.one(), b0)]
        for n in range(1, self.order + 1):
            # b_0 out_n = -sum_{k=1..n} b_k out_{n-k}
            acc = _sum_of_products((b[k], out[n - k]) for k in range(1, n + 1))
            out.append(_divide_exact(acc, -b0))
        return TruncSeries(out)

    def divide(self, divisor: "TruncSeries") -> "TruncSeries":
        """Exact series division.

        Requires t-valuation(self) >= t-valuation(divisor); the shared
        power of t is cancelled and the remaining divisor must have an
        invertible constant term.  The result is exact to order
        min(orders) - valuation(divisor).
        """
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
        num = TruncSeries(list(self._coeffs[vb : self.order + 1]))
        den = TruncSeries(list(divisor._coeffs[vb : divisor.order + 1]))
        quot = (num.truncate(order) * den.truncate(order).invert()).truncate(order)
        return TruncSeries([_normalized_poly(c) for c in quot._coeffs])

    def sqrt(self) -> "TruncSeries":
        """Square root of a series with constant term exactly 1, by the
        recurrence g_0 = 1, g_n = (f_n - sum_{k=1..n-1} g_k g_{n-k}) / 2.

        >>> t = TruncSeries.t(6)
        >>> s = (1 - 6 * t + t * t).sqrt()
        >>> [int(s.coefficient(n).constant_term()) for n in range(5)]
        [1, -3, -4, -12, -44]
        """
        if self._coeffs[0] != MultiPoly.one():
            raise ValueError("sqrt requires constant term exactly 1")
        g = [MultiPoly.one()]
        for n in range(1, self.order + 1):
            g.append(_divide_exact(self._coeffs[n] - _square_sum(g, n, 1), 2))
        return TruncSeries(g)

    # -- specialization ----------------------------------------------------

    def specialize(self, var: str, value: Coeff = 1) -> "TruncSeries":
        """Substitute ``value`` (default 1) for ``var`` in every coefficient."""
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


def _normalized_poly(poly: MultiPoly) -> MultiPoly:
    terms = {k: _normalize_coeff(c) for k, c in poly._terms.items() if c}
    return MultiPoly(terms)


def _divide_exact(poly: MultiPoly, d: Coeff) -> MultiPoly:
    """``poly / d`` coefficientwise for a nonzero scalar ``d``: an ``int``
    wherever the quotient is whole, a ``Fraction`` otherwise."""
    out: dict[int, Coeff] = {}
    for k, c in poly._terms.items():
        q, r = divmod(c, d)
        out[k] = Fraction(c) / d if r else q
    return MultiPoly(out)


def assert_counting_series(series: TruncSeries, what: str = "series") -> None:
    """Assert all coefficients are polynomials with non-negative integers."""
    for n, poly in enumerate(series.coefficients()):
        values = poly._terms.values()
        if all(isinstance(c, int) for c in values) and min(values, default=0) >= 0:
            continue
        for exps, c in poly.terms():
            if not isinstance(c, int) or c < 0:
                raise AssertionError(
                    f"{what}: coefficient of t^{n} monomial {exps} is {c}, "
                    "expected a non-negative integer"
                )


# ---------------------------------------------------------------------------
# The master functional equations
# ---------------------------------------------------------------------------


def _normalize_active(active: Iterable[str]) -> tuple[str, ...]:
    names = set(active)
    unknown = names - set(VARIABLES)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}; expected {VARIABLES}")
    return tuple(v for v in VARIABLES if v in names)


@functools.lru_cache(maxsize=None)
def _solve_fixpoint_cached(
    order: int, active: tuple[str, ...]
) -> tuple[TruncSeries, TruncSeries]:
    if order < 1:
        raise ValueError(f"fixpoint order must be >= 1, got {order}")
    check_order(order)
    present = set(active)

    def var_or_one(name: str) -> MultiPoly:
        return MultiPoly.variable(name) if name in present else MultiPoly.one()

    def prod(names: str) -> MultiPoly:
        out = MultiPoly.one()
        for name in names:
            if name in present:
                out = out * MultiPoly.variable(name)
        return out

    xyuv = prod("xyuv")
    xyu = prod("xyu")
    p_factor = var_or_one("p")
    q_factor = var_or_one("q")

    def spec(poly: MultiPoly, name: str) -> MultiPoly:
        return poly.specialize(name) if name in present else poly

    zero = MultiPoly.zero()
    s_coeffs: list[MultiPoly] = [zero, xyuv]
    i_coeffs: list[MultiPoly] = [zero, xyuv]
    s_y1 = [zero, spec(xyuv, "y")]
    s_x1 = [zero, spec(xyuv, "x")]
    i_u1 = [zero, spec(xyuv, "u")]
    # the q-term's first factor (S - I)|v=1 + xyut; S and I agree at t^1
    red_v1 = [zero, xyu]

    for n in range(2, order + 1):
        q_sum = _sum_of_products((red_v1[i], s_x1[n - i]) for i in range(1, n))
        i_n = q_factor * q_sum
        p_sum = _sum_of_products((s_y1[i], i_u1[n - i]) for i in range(1, n))
        s_n = i_n + p_factor * p_sum
        s_coeffs.append(s_n)
        i_coeffs.append(i_n)
        s_y1.append(spec(s_n, "y"))
        s_x1.append(spec(s_n, "x"))
        i_u1.append(spec(i_n, "u"))
        red_v1.append(spec(s_n - i_n, "v"))

    s_series = TruncSeries(s_coeffs[: order + 1])
    i_series = TruncSeries(i_coeffs[: order + 1])
    assert_counting_series(s_series, "fixpoint S")
    assert_counting_series(i_series, "fixpoint I")
    return s_series, i_series


def solve_fixpoint(
    order: int, active: Iterable[str] = VARIABLES
) -> tuple[TruncSeries, TruncSeries]:
    """Solve the master equations with the given variables active.

    Variables not listed in ``active`` are set to 1 throughout, which
    yields the exact specialized system.  Returns ``(S, I)`` truncated at
    ``order``.  Results are cached per (order, variable set).

    >>> S, I = solve_fixpoint(4, active=())
    >>> [int(S.coefficient(n).constant_term()) for n in range(5)]
    [0, 1, 2, 6, 22]
    >>> [int(I.coefficient(n).constant_term()) for n in range(5)]
    [0, 1, 1, 3, 11]
    """
    return _solve_fixpoint_cached(order, _normalize_active(active))


def solve_master_fixpoint(order: int = 12) -> tuple[TruncSeries, TruncSeries]:
    """Solve the full six-variable master system (see module docstring).

    The default order 12 is sized for desk-scale verification; lower it for
    quick interactive use.
    """
    return solve_fixpoint(order, VARIABLES)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def series_to_document(name: str, series: TruncSeries) -> dict:
    """JSON-ready document for a series: order -> sorted coefficient triples."""
    coefficients: dict[str, list] = {}
    for n in range(series.order + 1):
        triples = []
        for exps, c in series.coefficient(n).terms():
            frac = Fraction(c)
            triples.append([list(exps), frac.numerator, frac.denominator])
        coefficients[str(n)] = triples
    return {
        "engine": ENGINE_VERSION,
        "name": name,
        "order": series.order,
        "variables": list(VARIABLES),
        "coefficients": coefficients,
    }


def document_to_series(doc: Mapping) -> TruncSeries:
    """Inverse of :func:`series_to_document` (bit-exact round trip)."""
    order = int(doc["order"])
    coeffs: list[MultiPoly] = []
    for n in range(order + 1):
        data: dict[Exponents, Coeff] = {}
        for exps, num, den in doc["coefficients"][str(n)]:
            data[tuple(exps)] = Fraction(num, den)
        coeffs.append(MultiPoly.from_exponents(data))
    return TruncSeries(coeffs)


def canonical_json(doc: Mapping) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
