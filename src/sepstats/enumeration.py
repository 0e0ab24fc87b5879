"""Enumeration of separable permutations by two independent methods.

``enumerate_filter`` walks all of S_n and keeps the permutations avoiding
2413 and 3142; it is the brute-force oracle and is capped at n <= 9.

``enumerate_structural`` builds separable permutations bottom-up from the
singleton by direct and skew sums, using the unique maximal decomposition:
every separable permutation of length >= 2 is either a direct sum whose
first summand is sum-indecomposable, or a skew sum whose first summand is
skew-indecomposable, and never both.  Each permutation is therefore
generated exactly once, with no deduplication.

Both enumerators yield streams in lexicographic order of one-line notation,
so they can be compared without sorting.  The structural generator works on
raw ``bytes`` internally (value k stored as byte k) and exposes that fast
path as :func:`iter_separable_bytes` for census-scale consumers.

Every structural word is built as head + tail, so its six statistics follow
from its two summands' in O(1) (the composition rules ``_SUM_RULE`` and
``_SKEW_RULE``).  A private key stream, aligned word for word with
:func:`iter_separable_bytes`, carries them packed into one int per word for
the census.

Lexicographic order comes for free from a block decomposition of the output
space: for two distinct (shifted) first summands, neither is a byte-prefix
of the other — a proper prefix that is itself a permutation of the involved
values would force a forbidden cut — hence distinct first summands span
disjoint lexicographic intervals, ordered like the summands themselves.

>>> [str(p) for p in enumerate_structural(3)]
['123', '132', '213', '231', '312', '321']
>>> count_separable(7), count_irreducible(7)
(1806, 903)
"""

from __future__ import annotations

import functools
import heapq
import itertools
from array import array
from typing import Iterator, TypeVar

from .permutations import Permutation, is_separable

__all__ = [
    "HARD_CAP",
    "FILTER_CAP",
    "CLASSES",
    "CLASS_ALIASES",
    "canonical_class",
    "class_part",
    "enumerate_filter",
    "enumerate_structural",
    "iter_separable_bytes",
    "count_separable",
    "count_irreducible",
]

#: Largest length accepted by the structural enumerator.
HARD_CAP = 14
#: Largest length accepted by the brute-force filter enumerator.
FILTER_CAP = 9
#: Lengths up to this value keep fully materialized memo tables.
_MEMO_CAP = 11

_ONE = bytes((1,))

#: The permutation classes, by canonical name.
CLASSES: tuple[str, ...] = ("all", "irreducible", "reducible")
#: Accepted permutation-class spellings -> canonical class name.
CLASS_ALIASES: dict[str, str] = {
    **{cls: cls for cls in CLASSES},
    "irr": "irreducible",
    "red": "reducible",
}


def canonical_class(perm_class: str) -> str:
    """Normalize a permutation-class name ('irr' -> 'irreducible', ...).

    >>> canonical_class("red")
    'reducible'
    """
    try:
        return CLASS_ALIASES[perm_class]
    except KeyError:
        raise ValueError(
            f"unknown permutation class {perm_class!r}; "
            f"expected one of {sorted(CLASS_ALIASES)}"
        ) from None


_T = TypeVar("_T")


def class_part(perm_class: str, whole: _T, irreducible: _T) -> _T:
    """Select the class's share from the whole and irreducible quantities
    (counts, series, ...): the reducible share is their difference.

    >>> class_part("red", 22, 11)
    11
    """
    cls = canonical_class(perm_class)
    if cls == "all":
        return whole
    if cls == "irreducible":
        return irreducible
    return whole - irreducible


@functools.lru_cache(maxsize=None)
def _shift_table(s: int) -> bytes:
    """Translation table adding ``s`` to every byte value (modulo 256)."""
    return bytes((i + s) & 0xFF for i in range(256))


# Packed statistic keys.  A key holds the six statistics of one word in
# 5-bit fields, in the order (asc, des, lmax, rmax, lmin, rmin) of
# ``StatProfile.monomial``; every value is at most HARD_CAP < 32, so a key
# fits the 32-bit items of ``array("I")``.
_FIELD_BITS = 5
_FIELD = (1 << _FIELD_BITS) - 1
_ASC, _DES, _LMAX, _RMAX, _LMIN, _RMIN = range(6)
_EVERY_FIELD = (1 << 6 * _FIELD_BITS) - 1


def _field(stat: int) -> int:
    return _FIELD << _FIELD_BITS * stat


def _stat_key(exps: tuple[int, ...]) -> int:
    """Pack a six-statistic exponent vector into one key.

    >>> _key_exponents(_stat_key((1, 2, 3, 4, 5, 6)))
    (1, 2, 3, 4, 5, 6)
    """
    key = 0
    for stat, e in enumerate(exps):
        key |= e << _FIELD_BITS * stat
    return key


def _key_exponents(key: int) -> tuple[int, ...]:
    """The exponent vector a key packs."""
    return tuple(key >> _FIELD_BITS * stat & _FIELD for stat in range(6))


# Composition rules: (head mask, tail mask, junction).  The key of a sum of
# two words is (head key & head mask) + (tail key & tail mask) + junction.
#: alpha + beta: asc adds plus 1 at the junction; des, lmax and rmin add;
#: lmin is alpha's and rmax is beta's.
_SUM_RULE = (
    _EVERY_FIELD & ~_field(_RMAX),
    _EVERY_FIELD & ~_field(_LMIN),
    1 << _FIELD_BITS * _ASC,
)
#: alpha - beta: des adds plus 1 at the junction; asc, rmax and lmin add;
#: lmax is alpha's and rmin is beta's.
_SKEW_RULE = (
    _EVERY_FIELD & ~_field(_RMIN),
    _EVERY_FIELD & ~_field(_LMAX),
    1 << _FIELD_BITS * _DES,
)

#: The parts of a length's separables: all of them, the sum-indecomposable
#: ones (the irreducible class) and the skew-indecomposable ones (the
#: reducible class, for length >= 2).
_ALL, _SUM_INDEC, _SKEW_INDEC = range(3)

# Memo tables: length -> (words, keys, sum_indec, skew_indec): the
# separables of that length as a lex-sorted list of bytes, an array of their
# keys aligned with it, and one 0/1 selector per word for each of the two
# indecomposable parts.
_TABLES: dict[int, tuple[list[bytes], array, bytes, bytes]] = {
    1: ([_ONE], array("I", [_stat_key((0, 0, 1, 1, 1, 1))]), b"\1", b"\1")
}


def _table(n: int) -> tuple[list[bytes], array, bytes, bytes]:
    """The memo-table entry of length n (n <= _MEMO_CAP), filling it and
    every shorter length first."""
    entry = _TABLES.get(n)
    if entry is None:
        for k in range(2, n + 1):
            if k not in _TABLES:
                _TABLES[k] = _build_table(k)
        entry = _TABLES[n]
    return entry


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _build_table(n: int) -> tuple[list[bytes], array, bytes, bytes]:
    """Words, keys and selectors of length n, block by block, from the
    shorter tables."""
    words: list[bytes] = []
    keys = array("I")
    # 1 for a sum-indecomposable word, 0 for a skew-indecomposable one: at
    # length >= 2 every separable is exactly one of the two
    sum_indec = bytearray()
    for head, head_key, mask, shift, part in _blocks(n, _ALL):
        tail_words, tail_keys = _TABLES[n - len(head)][:2]
        if shift is None:
            words += [head + rho for rho in tail_words]
        else:
            words += [head + rho.translate(shift) for rho in tail_words]
        keys.extend(head_key + (k & mask) for k in tail_keys)
        sum_indec += (b"\1" if part == _SUM_INDEC else b"\0") * len(tail_words)
    selector = bytes(sum_indec)
    return words, keys, selector, selector.translate(_FLIP)


def _from_table(n: int, part: int, column: int) -> Iterator:
    """Column 0 (words) or 1 (keys) of the length-n table, restricted to a
    part."""
    entry = _table(n)
    if part == _ALL:
        return iter(entry[column])
    return itertools.compress(entry[column], entry[1 + part])


def _words(n: int, part: int) -> Iterator[bytes]:
    """The words of a part at length n, lex order."""
    if n <= _MEMO_CAP:
        return _from_table(n, part, 0)
    return _block_words(n, part)


def _keys(n: int, part: int) -> Iterator[int]:
    """The keys of a part at length n, aligned with :func:`_words`."""
    if n <= _MEMO_CAP:
        return _from_table(n, part, 1)
    return _block_keys(n, part)


def _block_words(n: int, part: int) -> Iterator[bytes]:
    _table(_MEMO_CAP)  # tails up to the cap come from the tables
    for head, _, _, shift, _ in _blocks(n, part):
        m = n - len(head)
        tails = _TABLES[m][0] if m <= _MEMO_CAP else _block_words(m, _ALL)
        if shift is None:
            for rho in tails:
                yield head + rho
        else:
            for rho in tails:
                yield head + rho.translate(shift)


def _block_keys(n: int, part: int) -> Iterator[int]:
    _table(_MEMO_CAP)  # tails up to the cap come from the tables
    for head, head_key, mask, _, _ in _blocks(n, part):
        m = n - len(head)
        for k in _TABLES[m][1] if m <= _MEMO_CAP else _block_keys(m, _ALL):
            yield head_key + (k & mask)


def _pairs(n: int, part: int) -> Iterator[tuple[bytes, int]]:
    return zip(_words(n, part), _keys(n, part))


def _blocks(n: int, part: int) -> Iterator[tuple]:
    """The lex-ordered blocks of a part at length n >= 2.

    A block is every word with one head (first summand): (head, the head's
    key with its share of the composition rule applied, the tail key mask,
    the shift table for the tails or None, the part the block's words belong
    to besides all).  Its words are head + tail for every separable tail of
    length n - len(head), in the tails' lex order.  No head is a prefix of
    another, so each block spans a lex interval and the blocks come in the
    order of their heads.
    """
    streams = []
    if part != _SUM_INDEC:
        streams += [_sum_blocks(n, i) for i in range(1, n)]
    if part != _SKEW_INDEC:
        streams += [_skew_blocks(n, i) for i in range(1, n)]
    return heapq.merge(*streams)


def _sum_blocks(n: int, i: int) -> Iterator[tuple]:
    """Direct sums alpha + rho of length n: alpha sum-indecomposable of
    length i, rho any separable."""
    head_mask, tail_mask, junction = _SUM_RULE
    shift = _shift_table(i)
    for alpha, key in _pairs(i, _SUM_INDEC):
        head_key = (key & head_mask) + junction
        yield alpha, head_key, tail_mask, shift, _SKEW_INDEC


def _skew_blocks(n: int, i: int) -> Iterator[tuple]:
    """Skew sums beta - rho of length n: beta skew-indecomposable of length
    i, shifted above the n - i values of rho, any separable."""
    head_mask, tail_mask, junction = _SKEW_RULE
    shift = _shift_table(n - i)
    for beta, key in _pairs(i, _SKEW_INDEC):
        head_key = (key & head_mask) + junction
        yield beta.translate(shift), head_key, tail_mask, None, _SUM_INDEC


def _check_structural_n(n: int) -> None:
    if not 1 <= n <= HARD_CAP:
        raise ValueError(
            f"structural enumeration is capped at 1 <= n <= {HARD_CAP}, got {n}"
        )


def _class_part(n: int, cls: str) -> int | None:
    """The part holding the class at length n; None for the empty
    reducible class at n = 1."""
    _check_structural_n(n)
    cls = canonical_class(cls)
    if cls == "all":
        return _ALL
    if cls == "irreducible":
        return _SUM_INDEC
    return None if n == 1 else _SKEW_INDEC


def iter_separable_bytes(n: int, cls: str = "all") -> Iterator[bytes]:
    """Low-level stream of separable permutations as bytes, lex order.

    ``cls`` selects the permutation class in any spelling that
    :func:`canonical_class` accepts: ``"all"``, ``"irreducible"``/``"irr"``
    (sum-indecomposable), or ``"reducible"``/``"red"``.  For n = 1 the
    reducible class is empty.

    >>> [list(b) for b in iter_separable_bytes(3, "irr")]
    [[2, 3, 1], [3, 1, 2], [3, 2, 1]]
    """
    part = _class_part(n, cls)
    return iter(()) if part is None else _words(n, part)


def _key_stream(n: int, cls: str = "all") -> Iterator[int]:
    """The packed statistic keys of :func:`iter_separable_bytes`, word for
    word: each composed in O(1) from the keys of the word's two summands.

    >>> [_key_exponents(k) for k in _key_stream(2)]
    [(1, 0, 2, 1, 1, 2), (0, 1, 1, 2, 2, 1)]
    """
    part = _class_part(n, cls)
    return iter(()) if part is None else _keys(n, part)


def enumerate_structural(n: int) -> Iterator[Permutation]:
    """All separable permutations of length n via sum/skew composition.

    Yields each permutation exactly once, in lexicographic order.

    >>> [str(p) for p in enumerate_structural(1)]
    ['1']
    >>> sum(1 for _ in enumerate_structural(8))
    8558
    """
    _check_structural_n(n)
    return (Permutation(tuple(b)) for b in _words(n, _ALL))


def enumerate_filter(n: int) -> Iterator[Permutation]:
    """Separable permutations of length n by filtering all of S_n.

    Brute-force oracle: every permutation is tested for avoidance of 2413
    and 3142.  Capped at n <= 9.

    >>> [str(p) for p in enumerate_filter(1)]
    ['1']
    >>> sum(1 for _ in enumerate_filter(4))
    22
    """
    if not 1 <= n <= FILTER_CAP:
        raise ValueError(
            f"filter enumeration is capped at 1 <= n <= {FILTER_CAP}, got {n}"
        )
    return (
        pi
        for pi in map(Permutation, itertools.permutations(range(1, n + 1)))
        if is_separable(pi)
    )


#: Separable and irreducible separable counts by length (index 0 unused).
_SEPARABLE_COUNTS: list[int] = [0, 1]
_IRREDUCIBLE_COUNTS: list[int] = [0, 1]


def _extend_counts(n: int) -> None:
    """Fill the count tables from the bottom up through length ``n``: the
    sum-decomposables of length m (a sum-indecomposable head of length i,
    any separable tail) are half of them, the irreducibles the other half."""
    sep, irr = _SEPARABLE_COUNTS, _IRREDUCIBLE_COUNTS
    for m in range(len(sep), n + 1):
        half = sum(irr[i] * sep[m - i] for i in range(1, m))
        sep.append(2 * half)
        irr.append(half)


def count_separable(n: int) -> int:
    """Number of separable permutations of length n (large Schroeder numbers).

    Computed by the structural convolution recurrence, independently of the
    binomial and Dyck-path formulas in :mod:`sepstats.numbers`.

    >>> [count_separable(n) for n in range(1, 8)]
    [1, 2, 6, 22, 90, 394, 1806]
    """
    if n < 1:
        raise ValueError(f"count_separable requires n >= 1, got {n}")
    _extend_counts(n)
    return _SEPARABLE_COUNTS[n]


def count_irreducible(n: int) -> int:
    """Number of irreducible separable permutations of length n.

    For n >= 2 this equals half the separable count: the sum-decomposable
    and skew-decomposable permutations split S_n(2413, 3142) evenly, and the
    irreducible ones are exactly the skew-decomposables plus nothing else.

    >>> [count_irreducible(n) for n in range(1, 8)]
    [1, 1, 3, 11, 45, 197, 903]
    """
    if n < 1:
        raise ValueError(f"count_irreducible requires n >= 1, got {n}")
    _extend_counts(n)
    return _IRREDUCIBLE_COUNTS[n]
