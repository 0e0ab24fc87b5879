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

Every layer, from :func:`iter_separable_bytes` down to the memo tables,
names its words by the three classes of :data:`CLASSES`.  The irreducible
words are the sum-indecomposable ones.  Past length 1 the reducible words
are the skew-indecomposable ones, so a skew sum's head is a reducible word
or the singleton, whose class is all.

Every structural word is built as head + tail, so its six statistics follow
from its two summands' in O(1) (the composition rules ``_SUM_RULE`` and
``_SKEW_RULE``).  The memo tables of lengths up to ``_MEMO_CAP`` hold the
words and one selector per class besides all; those up to ``_KEY_CAP``
also hold the statistics packed into one int per word, in a key column
aligned word for word with :func:`iter_separable_bytes`.  The census is
the one reader of key columns, so no longer table composes one.  A stream
of a length above ``_KEY_CAP`` merges its words from the shorter tables
and tables only those, unless its own table is already there.  The words
of one composition rule and one head length form a group
(:func:`_groups`); the census tallies a length group by group from the
shorter tables, without the lex order, so it never tables its own length
nor reads a key column above ``_KEY_CAP``.

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

from .numbers import _check_int
from .permutations import Permutation, is_separable
from .series import _LANE, _SHIFT, STAT_TO_VARIABLE, _pack

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
#: Lengths up to this value keep fully materialized memo tables: those above
#: ``_KEY_CAP`` only once a longer stream reads them as tails.
_MEMO_CAP = 11
#: Lengths up to this value (at most ``_MEMO_CAP``) keep a key column in
#: their memo table, and the census reads its sides up to this length from
#: them; a longer side it walks group by group in turn.  So a census fills
#: only the small tables, and every group keeps one side within this length
#: up to n = 2 * 8 + 1 > HARD_CAP.
_KEY_CAP = 8

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


@functools.lru_cache(maxsize=None, typed=True)
def _shift_table(s: int) -> bytes:
    """Translation table adding ``s`` to every byte value (modulo 256)."""
    return bytes((i + s) & 0xFF for i in range(256))


# Packed statistic keys.  A key is the series key (``series._pack``) of the
# word's monomial p^asc q^des x^lmax y^rmax u^lmin v^rmin, each statistic in
# its variable's lane; every value is at most HARD_CAP, far inside a lane,
# and a key fits the 64-bit items of ``array("Q")``.
_EVERY_LANE = sum(_LANE.values())

# Composition rules: (head mask, tail mask, junction).  The key of a sum of
# two words is (head key & head mask) + (tail key & tail mask) + junction.
# The masks are nonnegative ints: a negative one (``~lane``) makes every
# ``&`` slower.
#: alpha + beta: asc adds plus 1 at the junction; des, lmax and rmin add;
#: lmin is alpha's and rmax is beta's.
_SUM_RULE = (
    _EVERY_LANE & ~_LANE[STAT_TO_VARIABLE["rmax"]],
    _EVERY_LANE & ~_LANE[STAT_TO_VARIABLE["lmin"]],
    1 << _SHIFT[STAT_TO_VARIABLE["asc"]],
)
#: alpha - beta: des adds plus 1 at the junction; asc, rmax and lmin add;
#: lmax is alpha's and rmin is beta's.
_SKEW_RULE = (
    _EVERY_LANE & ~_LANE[STAT_TO_VARIABLE["rmin"]],
    _EVERY_LANE & ~_LANE[STAT_TO_VARIABLE["lmax"]],
    1 << _SHIFT[STAT_TO_VARIABLE["des"]],
)

# Memo tables: length -> (words, keys, irreducible, reducible): the
# separables of that length as a lex-sorted list of bytes, an array of their
# keys aligned with it (None above _KEY_CAP), and one 0/1 selector per word
# for each of the two classes besides all.  The singleton is irreducible,
# and no word of length 1 is reducible.
_TABLES: dict[int, tuple[list[bytes], array | None, bytes, bytes]] = {
    1: ([_ONE], array("Q", [_pack((0, 0, 1, 1, 1, 1))]), b"\1", b"\0")
}


def _table(n: int) -> tuple[list[bytes], array | None, bytes, bytes]:
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


def _build_table(n: int) -> tuple[list[bytes], array | None, bytes, bytes]:
    """Words, keys (up to _KEY_CAP, else None) and selectors of length n,
    block by block, from the shorter tables."""
    words: list[bytes] = []
    keys = array("Q") if n <= _KEY_CAP else None
    # at length >= 2 every separable is irreducible or reducible
    irreducible = bytearray()
    for head, head_key, mask, shift, cls in _blocks(n, "all"):
        tail_words, tail_keys = _TABLES[n - len(head)][:2]
        if shift is None:
            words += [head + rho for rho in tail_words]
        else:
            words += [head + rho.translate(shift) for rho in tail_words]
        if keys is not None:
            keys.extend(head_key + (k & mask) for k in tail_keys)
        irreducible += (b"\1" if cls == "irreducible" else b"\0") * len(tail_words)
    selector = bytes(irreducible)
    return words, keys, selector, selector.translate(_FLIP)


def _from_table(n: int, cls: str, column: int) -> Iterator:
    """Column 0 (words) or 1 (keys) of the length-n table, restricted to a
    canonical class."""
    entry = _table(n)
    if cls == "all":
        return iter(entry[column])
    # the selectors follow the two columns, in the order of CLASSES
    return itertools.compress(entry[column], entry[1 + CLASSES.index(cls)])


def _words(n: int, cls: str) -> Iterator[bytes]:
    """The words of a canonical class at length n, lex order: read from
    the table up to the key cap or once it is there, else merged from the
    shorter tables."""
    if n <= _KEY_CAP or n in _TABLES:
        return _from_table(n, cls, 0)
    return _block_words(n, cls)


def _block_words(n: int, cls: str) -> Iterator[bytes]:
    _table(min(n - 1, _MEMO_CAP))  # tails up to the cap come from the tables
    for head, _, _, shift, _ in _blocks(n, cls):
        m = n - len(head)
        tails = _TABLES[m][0] if m <= _MEMO_CAP else _block_words(m, "all")
        if shift is None:
            for rho in tails:
                yield head + rho
        else:
            for rho in tails:
                yield head + rho.translate(shift)


def _heads(n: int, cls: str) -> Iterator[tuple[bytes, int | None]]:
    """The words of a canonical class at length n with their keys, lex
    order.  Keys exist only up to _KEY_CAP: above it, only the census
    composes them, on its own walk."""
    keys = _from_table(n, cls, 1) if n <= _KEY_CAP else itertools.repeat(None)
    return zip(_words(n, cls), keys)


def _groups(n: int, cls: str) -> list[tuple]:
    """The groups of a canonical class at length n >= 2, one for each
    composition rule and head length i: (rule, i, head class, head shift,
    tail shift, the class the group's words belong to besides all).

    A group's words are head.translate(head shift) + tail.translate(tail
    shift) for every head of the head class at length i and every
    separable tail of length n - i; a shift of None leaves its summand as
    it is.
    """
    groups = []
    if cls != "irreducible":
        # direct sums alpha + rho: alpha irreducible (sum-indecomposable),
        # rho shifted above alpha's i values
        groups += [
            (_SUM_RULE, i, "irreducible", None, _shift_table(i), "reducible")
            for i in range(1, n)
        ]
    if cls != "reducible":
        # skew sums beta - rho: beta skew-indecomposable, shifted above the
        # n - i values of rho.  Past length 1 those are the reducible
        # words; at length 1 the singleton, which is no reducible word.
        groups += [
            (
                _SKEW_RULE,
                i,
                "reducible" if i > 1 else "all",
                _shift_table(n - i),
                None,
                "irreducible",
            )
            for i in range(1, n)
        ]
    return groups


def _blocks(n: int, cls: str) -> Iterator[tuple]:
    """The lex-ordered blocks of a canonical class at length n >= 2.

    A block is every word with one head (first summand): (head, the head's
    key with its share of the composition rule applied, or None above
    _KEY_CAP, the tail key mask, the shift table for the tails or None, the
    class the block's words belong to besides all).  Its words are head +
    tail for every separable tail of length n - len(head), in the tails'
    lex order.  No head is a prefix of another, so each block spans a lex
    interval and the blocks come in the order of their heads.
    """
    return heapq.merge(*(_group_blocks(*group) for group in _groups(n, cls)))


def _group_blocks(
    rule: tuple[int, int, int],
    i: int,
    head_cls: str,
    head_shift: bytes | None,
    tail_shift: bytes | None,
    cls: str,
) -> Iterator[tuple]:
    """The blocks of one group (see :func:`_groups`), in the lex order of
    its heads."""
    head_mask, tail_mask, junction = rule
    for head, key in _heads(i, head_cls):
        if head_shift is not None:
            head = head.translate(head_shift)
        head_key = None if key is None else (key & head_mask) + junction
        yield head, head_key, tail_mask, tail_shift, cls


def _check_structural_n(n: int) -> None:
    """The lengths the structural stream and the census take: 1..HARD_CAP."""
    _check_int(n, "structural enumeration length", 1, HARD_CAP)


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
    return _words(n, canonical_class(cls))


def _key_stream(n: int, cls: str = "all") -> Iterator[int]:
    """The packed statistic keys of :func:`iter_separable_bytes`, word for
    word, at n <= _KEY_CAP: the memo table's key column, each key composed
    in O(1) from the keys of the word's two summands.  Above the key cap no
    key column exists; the census composes those keys on its own walk.

    >>> from sepstats.series import _unpack
    >>> [_unpack(k) for k in _key_stream(2)]
    [(1, 0, 2, 1, 1, 2), (0, 1, 1, 2, 2, 1)]
    """
    _check_structural_n(n)
    cls = canonical_class(cls)
    if n > _KEY_CAP:
        raise ValueError(f"key columns stop at the key cap {_KEY_CAP}, asked for {n}")
    return _from_table(n, cls, 1)


def enumerate_structural(n: int) -> Iterator[Permutation]:
    """All separable permutations of length n via sum/skew composition.

    Yields each permutation exactly once, in lexicographic order.

    >>> [str(p) for p in enumerate_structural(1)]
    ['1']
    >>> sum(1 for _ in enumerate_structural(8))
    8558
    """
    _check_structural_n(n)
    # every word of the stream is a bijection by construction
    return map(Permutation._trusted, map(tuple, _words(n, "all")))


def enumerate_filter(n: int) -> Iterator[Permutation]:
    """Separable permutations of length n by filtering all of S_n.

    Brute-force oracle: every permutation is tested for avoidance of 2413
    and 3142.  Capped at n <= 9.

    >>> [str(p) for p in enumerate_filter(1)]
    ['1']
    >>> sum(1 for _ in enumerate_filter(4))
    22
    """
    _check_int(n, "filter enumeration length", 1, FILTER_CAP)
    # itertools.permutations yields bijections: no validation needed
    return (
        pi
        for pi in map(Permutation._trusted, itertools.permutations(range(1, n + 1)))
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
    _check_int(n, "count_separable n", 1)
    _extend_counts(n)
    return _SEPARABLE_COUNTS[n]


def count_irreducible(n: int) -> int:
    """Number of irreducible separable permutations of length n.

    For n >= 2 this equals half the separable count: the sum-decomposable
    and skew-decomposable permutations split S_n(2413, 3142) evenly, and the
    irreducible ones are exactly the skew-decomposable ones.  At n = 1 the
    one irreducible permutation is the singleton.

    >>> [count_irreducible(n) for n in range(1, 8)]
    [1, 1, 3, 11, 45, 197, 903]
    """
    _check_int(n, "count_irreducible n", 1)
    _extend_counts(n)
    return _IRREDUCIBLE_COUNTS[n]
