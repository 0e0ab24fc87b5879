"""Permutations, their statistics, symmetries, and separability structure.

A permutation of length n is a rearrangement of {1, ..., n}, held here in
one-line notation as an immutable tuple of 1-based values.  The empty
permutation is deliberately excluded from the API: every operation requires
length at least 1, and length-0 requests raise ``ValueError``.

The module provides

* the three classical symmetries (reverse, complement, group inverse),
* the direct sum and skew sum composition operations,
* the six statistics asc, des, lmax, rmax, lmin, rmin,
* classical pattern containment by generic backtracking search,
* the separability test (avoidance of 2413 and 3142) by a direct O(n^2)
  scan for just those two patterns, with :func:`contains_pattern` as its
  test oracle,
* the decomposition into irreducible components, and
* the L/R interval-block decomposition of a separable permutation around
  its maximum value.

>>> p = Permutation.parse("423165")
>>> str(reverse(p)), str(complement(p))
('561324', '354612')
>>> stats(Permutation.parse("561423")).des
2
>>> is_separable(Permutation.parse("2413"))
False
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

__all__ = [
    "Permutation",
    "StatProfile",
    "reverse",
    "complement",
    "inverse",
    "direct_sum",
    "skew_sum",
    "stats",
    "contains_pattern",
    "is_separable",
    "components",
    "is_irreducible",
    "block_decompose",
    "reassemble_blocks",
]

#: The two patterns whose simultaneous avoidance characterizes separability.
FORBIDDEN_PATTERNS: tuple[tuple[int, ...], ...] = ((2, 4, 1, 3), (3, 1, 4, 2))


class _Record:
    """An immutable record whose fields are its ``__slots__``: equal only to
    instances of its own class with equal fields, hashed by its fields,
    and picklable.  Assigning or deleting an attribute raises
    ``AttributeError``."""

    __slots__ = ()

    def _init(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self) -> tuple:
        return (self.__class__, self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields())
        )
        return f"{type(self).__name__}({fields})"


class Permutation(_Record):
    """A permutation in one-line notation with 1-based values.

    ``values`` must be ``int``s forming a bijection on {1, ..., n} with
    n >= 1.  Instances are immutable: assigning an attribute raises
    ``AttributeError``.

    >>> Permutation((2, 1, 3))
    Permutation((2, 1, 3))
    >>> len(Permutation((1,)))
    1
    >>> Permutation(())
    Traceback (most recent call last):
        ...
    ValueError: the empty permutation is not supported
    """

    __slots__ = ("values",)

    values: tuple[int, ...]

    def __init__(self, values: tuple[int, ...]) -> None:
        values = tuple(values)
        self._init(values)
        n = len(values)
        if n == 0:
            raise ValueError("the empty permutation is not supported")
        # ints only: 1.0 and True equal 1, but are no values of a permutation
        ints = {*map(type, values)} <= {int}
        if not ints or sorted(values) != list(range(1, n + 1)):
            raise ValueError(
                f"values must be a bijection on 1..{n}, got {values!r}"
            )

    @classmethod
    def _trusted(cls, values: tuple[int, ...]) -> "Permutation":
        """Wrap a tuple the caller knows to be a bijection on 1..n, n >= 1,
        without the validating sort; for images and candidates that are
        permutations by construction."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "values", values)
        return obj

    @classmethod
    def of(cls, *values: int) -> "Permutation":
        """Build from individual values.

        >>> Permutation.of(3, 1, 2)
        Permutation((3, 1, 2))
        """
        return cls(tuple(values))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse the serialized form.

        Permutations of length <= 9 serialize as comma-free digit strings;
        longer ones as comma-separated integers.

        >>> Permutation.parse("231")
        Permutation((2, 3, 1))
        >>> Permutation.parse("10,3,1,2,4,5,6,7,8,9")[0]
        10
        """
        text = text.strip()
        if not text:
            raise ValueError("cannot parse an empty permutation string")
        if "," in text:
            values = tuple(int(part) for part in text.split(","))
        else:
            values = tuple(int(ch) for ch in text)
        return cls(values)

    def __str__(self) -> str:
        """Serialize: digits for n <= 9, comma-separated integers otherwise.

        >>> str(Permutation((2, 3, 1)))
        '231'
        >>> str(Permutation(tuple([10] + list(range(1, 10)))))
        '10,1,2,3,4,5,6,7,8,9'
        """
        return ("" if len(self.values) <= 9 else ",").join(map(str, self.values))

    def __repr__(self) -> str:
        return f"Permutation({self.values!r})"

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)


class StatProfile(NamedTuple):
    """The six statistic values of one permutation.

    Invariants (checked in tests): ``asc + des == n - 1`` and each of the
    four maxima/minima counts lies in [1, n].

    >>> StatProfile(3, 2, 2, 3, 2, 3).monomial()
    (3, 2, 2, 3, 2, 3)
    """

    asc: int
    des: int
    lmax: int
    rmax: int
    lmin: int
    rmin: int

    def monomial(self) -> tuple[int, int, int, int, int, int]:
        """Exponent vector in the fixed variable order (p, q, x, y, u, v)."""
        return tuple(self)


def reverse(pi: Permutation) -> Permutation:
    """Reverse: position i maps to position n + 1 - i.

    >>> str(reverse(Permutation.parse("423165")))
    '561324'
    >>> str(reverse(Permutation.parse("12")))
    '21'
    """
    return Permutation._trusted(pi.values[::-1])


def complement(pi: Permutation) -> Permutation:
    """Complement: each value v maps to n + 1 - v.

    >>> str(complement(Permutation.parse("423165")))
    '354612'
    >>> str(complement(Permutation.parse("21")))
    '12'
    """
    top = len(pi) + 1
    return Permutation._trusted(tuple([top - v for v in pi.values]))


def inverse(pi: Permutation) -> Permutation:
    """Group-theoretic inverse: result sigma satisfies sigma[pi[i]] = i.

    >>> str(inverse(Permutation.parse("231")))
    '312'
    >>> str(inverse(Permutation.parse("12")))
    '12'
    """
    n = len(pi)
    out = [0] * n
    for i, v in enumerate(pi.values, 1):
        out[v - 1] = i
    return Permutation._trusted(tuple(out))


def direct_sum(pi: Permutation, sigma: Permutation) -> Permutation:
    """Direct sum: concatenate with sigma's values shifted above pi's.

    >>> str(direct_sum(Permutation.parse("14325"), Permutation.parse("4231")))
    '143259786'
    >>> str(direct_sum(Permutation.parse("1"), Permutation.parse("1")))
    '12'
    """
    m = len(pi)
    return Permutation(pi.values + tuple(v + m for v in sigma.values))


def skew_sum(pi: Permutation, sigma: Permutation) -> Permutation:
    """Skew sum: concatenate with pi's values shifted above sigma's.

    >>> str(skew_sum(Permutation.parse("14325"), Permutation.parse("4231")))
    '587694231'
    >>> str(skew_sum(Permutation.parse("1"), Permutation.parse("1")))
    '21'
    """
    n = len(sigma)
    return Permutation(tuple(v + n for v in pi.values) + sigma.values)


def stats(pi: Permutation) -> StatProfile:
    """Compute all six statistics of ``pi``.

    asc/des count adjacent rises/falls; lmax/lmin count left-to-right
    maxima/minima; rmax/rmin count right-to-left maxima/minima.  Endpoints
    always count for the maxima/minima statistics.

    >>> stats(Permutation.parse("561423"))
    StatProfile(asc=3, des=2, lmax=2, rmax=3, lmin=2, rmin=3)
    >>> stats(Permutation.parse("426513")).rmax
    3
    >>> stats(Permutation.parse("426153")).rmin
    2
    >>> stats(Permutation.parse("425163")).lmax
    3
    >>> stats(Permutation.parse("426153")).lmin
    3
    """
    return _stats_of_sequence(pi.values)


_new_tuple = tuple.__new__


def _stats_of_sequence(vals: Sequence[int]) -> StatProfile:
    """Statistics of a sequence of distinct integers (internal fast path).

    One left-to-right pass counts ascents and the left-to-right maxima and
    minima (a new maximum is always an ascent, a new minimum a descent);
    one right-to-left pass counts the right-to-left maxima and minima.
    """
    prev = hi = lo = vals[0]
    asc = 0
    lmax = lmin = 1
    for v in vals:
        if v > prev:
            asc += 1
            if v > hi:
                hi = v
                lmax += 1
        elif v < lo:
            lo = v
            lmin += 1
        prev = v
    hi = lo = vals[-1]
    rmax = rmin = 1
    for v in reversed(vals):
        if v > hi:
            hi = v
            rmax += 1
        elif v < lo:
            lo = v
            rmin += 1
    # tuple.__new__ skips the NamedTuple's keyword-parsing __new__; the
    # values are in field order.
    return _new_tuple(StatProfile, (asc, len(vals) - 1 - asc, lmax, rmax, lmin, rmin))


def contains_pattern(pi: Permutation, pattern: Permutation) -> bool:
    """True iff some subsequence of ``pi`` is order-isomorphic to ``pattern``.

    Straightforward backtracking subsequence search; intended for short
    inputs (length up to roughly 14).

    >>> contains_pattern(Permutation.parse("2413"), Permutation.parse("2413"))
    True
    >>> contains_pattern(Permutation.parse("1234"), Permutation.parse("2413"))
    False
    >>> contains_pattern(Permutation.parse("35142"), Permutation.parse("3142"))
    True
    """
    return _contains(pi.values, pattern.values)


def _contains(vals: Sequence[int], pat: Sequence[int]) -> bool:
    """Backtracking pattern containment on raw value sequences."""
    k = len(pat)
    n = len(vals)
    if k > n:
        return False
    # chosen[j] = index in vals of the j-th pattern letter matched so far
    chosen: list[int] = []

    def extend(start: int) -> bool:
        j = len(chosen)
        if j == k:
            return True
        for i in range(start, n - (k - j) + 1):
            v = vals[i]
            ok = True
            for jj, ii in enumerate(chosen):
                w = vals[ii]
                if (pat[jj] < pat[j]) != (w < v):
                    ok = False
                    break
            if ok:
                chosen.append(i)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    return extend(0)


def _has_2413_or_3142(vals: Sequence[int]) -> bool:
    """True iff the word ``vals``, a permutation of 1..n, contains 2413 or
    3142.

    A detector dedicated to the two fixed patterns, in the spirit of
    Albert, Aldred, Atkinson and Holton, "Algorithms for pattern involvement
    in permutations" (ISAAC 2001): O(n^2) steps on n-bit masks.  Value v is
    bit v of a mask; ``left`` holds the values left of position j, and
    ``seen`` those at positions <= k.  Each middle pair j < k with values
    a, b is completed greedily:

    * a > b (the "4" and "1" of 2413): the smallest "2" left of j in (b, a)
      leaves the widest room for a "3" right of k in ("2", a);
    * a < b (the "1" and "4" of 3142): the largest "3" left of j in (a, b)
      leaves the widest room for a "2" right of k in (a, "3").

    The values right of k are ``every ^ seen``, with ``every`` the bits
    1..n: that complement holds only because ``vals`` is a permutation of
    1..n, so no list of suffix masks is built before the scan can stop.

    >>> _has_2413_or_3142((5, 2, 6, 1, 4, 3)), _has_2413_or_3142((2, 1, 4, 3))
    (True, False)
    """
    n = len(vals)
    if n < 4:
        return False
    every = (2 << n) - 2
    left = 1 << vals[0]
    for j in range(1, n - 2):
        a = vals[j]
        top = 1 << a
        above = 2 << a
        seen = left | top
        for k in range(j + 1, n - 1):
            b = vals[k]
            seen |= 1 << b
            # (top - (2 << b)) keeps the bits strictly between b and a
            if a > b:
                twos = left & (top - (2 << b))
                if twos and (every ^ seen) & (top - ((twos & -twos) << 1)):
                    return True
            else:
                threes = left & ((1 << b) - above)
                if threes and (every ^ seen) & (
                    (1 << (threes.bit_length() - 1)) - above
                ):
                    return True
        left |= top
    return False


def is_separable(pi: Permutation) -> bool:
    """True iff ``pi`` avoids both 2413 and 3142.

    A pattern test on the word itself, by the direct two-pattern scan
    ``_has_2413_or_3142``; :func:`contains_pattern` is its test oracle.
    A ``Permutation`` holds a bijection on 1..n, which is the scan's
    precondition: it reads the values right of a position as the
    complement of those up to it.  It uses no sum/skew decomposition, so
    it stays independent of the structural enumerator it is checked
    against.

    >>> is_separable(Permutation.parse("2413"))
    False
    >>> is_separable(Permutation.parse("3142"))
    False
    >>> is_separable(Permutation.parse("1"))
    True
    >>> sum(1 for p in __import__("itertools").permutations(range(1, 5))
    ...     if is_separable(Permutation(p)))
    22
    """
    return not _has_2413_or_3142(pi.values)


def components(pi: Permutation) -> tuple[Permutation, ...]:
    """Split into irreducible components, each flattened to a pattern.

    A cut is possible after position i when the first i values are exactly
    {1, ..., i}; components are the segments between consecutive cuts,
    value-shifted back down to permutations.  Rebuilding with
    ``direct_sum`` reproduces ``pi``.

    >>> [str(c) for c in components(Permutation.parse("312546978"))]
    ['312', '21', '1', '312']
    >>> components(Permutation.parse("42513"))
    (Permutation((4, 2, 5, 1, 3)),)
    >>> components(Permutation.parse("1"))
    (Permutation((1,)),)
    """
    vals = pi.values
    parts: list[Permutation] = []
    start = 0
    running_max = 0
    for i, v in enumerate(vals):
        if v > running_max:
            running_max = v
        if running_max == i + 1:
            parts.append(Permutation(tuple(w - start for w in vals[start : i + 1])))
            start = i + 1
            # running_max == start here, so the scan continues cleanly
    return tuple(parts)


def is_irreducible(pi: Permutation) -> bool:
    """True iff ``pi`` has exactly one irreducible component.

    >>> is_irreducible(Permutation.parse("42513"))
    True
    >>> is_irreducible(Permutation.parse("1"))
    True
    >>> is_irreducible(Permutation.parse("12"))
    False
    """
    vals = pi.values
    running_max = 0
    for i in range(len(vals) - 1):
        v = vals[i]
        if v > running_max:
            running_max = v
        if running_max == i + 1:
            return False
    return True


def block_decompose(
    pi: Permutation,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Decompose a separable permutation into interval blocks around n.

    A separable permutation has the shape ``L_1 ... L_m n R_m ... R_1`` where
    every block is an interval of values, blocks interleave in value as
    ``L_1 < R_1 < L_2 < R_2 < ... < L_m < R_m`` (all below n), and only
    ``L_1`` and ``R_m`` may be empty.  Returns ``(L_blocks, R_blocks)`` with
    the L blocks in position order ``L_1 ... L_m`` and the R blocks in
    position order ``R_m ... R_1``; blocks keep their original values and
    empty blocks are empty tuples.

    Blocks are peeled greedily from the top value downward, alternating
    sides; maximality of each peel is forced because blocks are value
    intervals.  Non-separable input is rejected.

    >>> block_decompose(Permutation.parse("2165743"))
    (((2, 1), (6, 5)), ((), (4, 3)))
    >>> block_decompose(Permutation.parse("1"))
    ((), ())
    >>> block_decompose(Permutation.parse("2413"))
    Traceback (most recent call last):
        ...
    ValueError: block_decompose requires a separable permutation, got 2413
    """
    if not is_separable(pi):
        raise ValueError(
            f"block_decompose requires a separable permutation, got {pi}"
        )
    vals = pi.values
    n = len(vals)
    pos_n = vals.index(n)
    left = vals[:pos_n]  # holds L_1 ... L_m
    right = vals[pos_n + 1 :]  # holds R_m ... R_1
    li = len(left)  # left frontier: next L block ends at left[li - 1]
    ri = 0  # right frontier: next R block starts at right[ri]
    ceiling = n - 1  # largest value not yet assigned to a block
    l_rev: list[tuple[int, ...]] = []  # collected L_m, L_{m-1}, ..., L_1
    r_rev: list[tuple[int, ...]] = []  # collected R_m, R_{m-1}, ..., R_1

    while li > 0 or ri < len(right):
        # R block: maximal run right[ri:ri+c] forming the value interval
        # [ceiling - c + 1, ceiling]
        best = 0
        low = ceiling + 1
        for j in range(len(right) - ri):
            low = min(low, right[ri + j])
            if low == ceiling - j:
                best = j + 1
        r_rev.append(tuple(right[ri : ri + best]))
        ri += best
        ceiling -= best
        # L block: maximal run left[li-c:li] forming the value interval
        # [ceiling - c + 1, ceiling]
        best = 0
        low = ceiling + 1
        for j in range(li):
            low = min(low, left[li - 1 - j])
            if low == ceiling - j:
                best = j + 1
        l_rev.append(tuple(left[li - best : li]))
        li -= best
        ceiling -= best
        if r_rev[-1] == () and l_rev[-1] == ():
            raise ValueError(
                f"block peeling stalled on {pi}; permutation is not separable"
            )

    return tuple(reversed(l_rev)), tuple(r_rev)


def reassemble_blocks(
    l_blocks: Sequence[Sequence[int]],
    r_blocks: Sequence[Sequence[int]],
    n: int,
) -> Permutation:
    """Rebuild a permutation from ``block_decompose`` output.

    >>> reassemble_blocks(((2, 1), (6, 5)), ((), (4, 3)), 7)
    Permutation((2, 1, 6, 5, 7, 4, 3))
    """
    flat: list[int] = []
    for block in l_blocks:
        flat.extend(block)
    flat.append(n)
    for block in r_blocks:
        flat.extend(block)
    return Permutation(tuple(flat))
