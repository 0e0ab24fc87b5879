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


# Memo tables: length -> (all, sum_indec, skew_indec), each a lex-sorted list
# of bytes.  The three lists share their bytes objects.
_TABLES: dict[int, tuple[list[bytes], list[bytes], list[bytes]]] = {
    1: ([_ONE], [_ONE], [_ONE])
}


def _materialize(n: int) -> None:
    """Fill the memo tables for all lengths up to ``n`` (n <= _MEMO_CAP)."""
    for k in range(2, n + 1):
        if k in _TABLES:
            continue
        sum_dec = list(_sum_decomposables(k))
        skew_dec = list(_skew_decomposables(k))
        merged = list(heapq.merge(sum_dec, skew_dec))
        # sum-indecomposable = skew-decomposable and vice versa (length >= 2)
        _TABLES[k] = (merged, skew_dec, sum_dec)


def _all_stream(n: int) -> Iterator[bytes]:
    """All separable permutations of length n, lex order, as bytes."""
    if n <= _MEMO_CAP:
        _materialize(n)
        return iter(_TABLES[n][0])
    return heapq.merge(_sum_decomposables(n), _skew_decomposables(n))


def _sum_indec_stream(n: int) -> Iterator[bytes]:
    """Sum-indecomposable (irreducible) separables of length n, lex order."""
    if n == 1:
        return iter((_ONE,))
    if n <= _MEMO_CAP:
        _materialize(n)
        return iter(_TABLES[n][1])
    return _skew_decomposables(n)


def _skew_indec_stream(n: int) -> Iterator[bytes]:
    """Skew-indecomposable separables of length n, lex order."""
    if n == 1:
        return iter((_ONE,))
    if n <= _MEMO_CAP:
        _materialize(n)
        return iter(_TABLES[n][2])
    return _sum_decomposables(n)


def _sum_decomposables(n: int) -> Iterator[bytes]:
    """Direct sums alpha + rho: alpha sum-indecomposable, rho any separable.

    Heads (first summands) are merged lex across lengths; each head spans a
    contiguous lex block, so the output is fully lex sorted.
    """
    heads = heapq.merge(*(_sum_indec_stream(i) for i in range(1, n)))
    for head in heads:
        i = len(head)
        table = _shift_table(i)
        for rho in _all_stream(n - i):
            yield head + rho.translate(table)


def _shifted(stream: Iterator[bytes], s: int) -> Iterator[bytes]:
    """Add ``s`` to every value of every permutation in ``stream``."""
    table = _shift_table(s)
    return (b.translate(table) for b in stream)


def _skew_decomposables(n: int) -> Iterator[bytes]:
    """Skew sums beta - rho: beta skew-indecomposable, rho any separable.

    The head is beta shifted above the remaining n - len(beta) values.
    """
    heads = heapq.merge(
        *(_shifted(_skew_indec_stream(i), n - i) for i in range(1, n))
    )
    for head in heads:
        i = len(head)
        for rho in _all_stream(n - i):
            yield head + rho


def _check_structural_n(n: int) -> None:
    if not 1 <= n <= HARD_CAP:
        raise ValueError(
            f"structural enumeration is capped at 1 <= n <= {HARD_CAP}, got {n}"
        )


def iter_separable_bytes(n: int, cls: str = "all") -> Iterator[bytes]:
    """Low-level stream of separable permutations as bytes, lex order.

    ``cls`` selects the permutation class in any spelling that
    :func:`canonical_class` accepts: ``"all"``, ``"irreducible"``/``"irr"``
    (sum-indecomposable), or ``"reducible"``/``"red"``.  For n = 1 the
    reducible class is empty.

    >>> [list(b) for b in iter_separable_bytes(3, "irr")]
    [[2, 3, 1], [3, 1, 2], [3, 2, 1]]
    """
    _check_structural_n(n)
    cls = canonical_class(cls)
    if cls == "all":
        return _all_stream(n)
    if cls == "irreducible":
        return _sum_indec_stream(n)
    if n == 1:
        return iter(())
    return _sum_decomposables(n)


def enumerate_structural(n: int) -> Iterator[Permutation]:
    """All separable permutations of length n via sum/skew composition.

    Yields each permutation exactly once, in lexicographic order.

    >>> [str(p) for p in enumerate_structural(1)]
    ['1']
    >>> sum(1 for _ in enumerate_structural(8))
    8558
    """
    _check_structural_n(n)
    return (Permutation(tuple(b)) for b in _all_stream(n))


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
