"""Exact statistic distributions over separable permutation classes.

Two independent routes produce distribution data:

* a census route that tallies the six statistics of every word of a
  (length, class) once and memoizes the tally, from which every
  :func:`dist_from_enumeration` table and :func:`series_from_enumeration`
  coefficient is read.  It walks the length group by group (one group per
  composition rule and head length), composing each word's statistics
  from its head's and its tail's in the shorter enumeration tables, and
  checks sampled words against the per-word statistics kernel.  Its
  groups and sides are named by the classes of :mod:`sepstats.enumeration`
  and read through that module's streams; and
* the series route in :mod:`sepstats.series` / :mod:`sepstats.closedforms`
  built from functional equations.

Keeping both routes intact is the point: each one checks the other.

>>> table = dist_from_enumeration(3, "all", ("rmax",))
>>> table.value_counts(3)
{1: 2, 2: 3, 3: 1}
>>> dist_from_enumeration(4, "irreducible", ("rmax",)).value_counts(4)
{2: 5, 3: 5, 4: 1}
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from array import array
from collections import Counter
from typing import Callable, Iterator, Sequence

from . import enumeration
from .enumeration import (
    _EVERY_LANE,
    _check_structural_n,
    _groups,
    _key_stream,
    canonical_class,
    class_part,
    count_irreducible,
    count_separable,
    iter_separable_bytes,
)
from .numbers import _check_int
from .permutations import _Record, _stats_of_sequence
from .series import (
    STAT_NAMES,
    STAT_TO_VARIABLE,
    VARIABLES,
    MultiPoly,
    TruncSeries,
    _unpack,
    stat_lanes,
)

__all__ = [
    "STAT_NAMES",
    "STAT_TO_VARIABLE",
    "DistTable",
    "dist_from_enumeration",
    "series_from_enumeration",
    "counts_by_variable",
    "render_table",
    "TABLE_NUMBERS",
]


def class_count(perm_class: str, n: int) -> int:
    """Number of length-n permutations in the given class."""
    return class_part(perm_class, count_separable(n), count_irreducible(n))


class DistTable(_Record):
    """Sparse distribution rows for one permutation class and statistic tuple.

    ``rows[n]`` maps a tuple of statistic values (in the order of ``stats``)
    to the exact number of class permutations of length n realizing it.
    Instances are immutable: assigning an attribute raises
    ``AttributeError``.
    """

    __slots__ = ("perm_class", "stats", "rows")

    perm_class: str
    stats: tuple[str, ...]
    rows: dict[int, dict[tuple[int, ...], int]]

    def __init__(
        self,
        perm_class: str,
        stats: tuple[str, ...],
        rows: dict[int, dict[tuple[int, ...], int]] | None = None,
    ) -> None:
        self._init(perm_class, stats, {} if rows is None else rows)

    def lengths(self) -> list[int]:
        return sorted(self.rows)

    def row(self, n: int) -> dict[tuple[int, ...], int]:
        return self.rows[n]

    def value_counts(self, n: int) -> dict[int, int]:
        """Single-statistic row with scalar keys, sorted by value."""
        if len(self.stats) != 1:
            raise ValueError(
                f"value_counts needs a single statistic, have {self.stats}"
            )
        return {key[0]: c for key, c in sorted(self.rows[n].items())}

    def total(self, n: int) -> int:
        return sum(self.rows[n].values())

    def check_totals(self) -> None:
        for n in self.rows:
            expected = class_count(self.perm_class, n)
            if self.total(n) != expected:
                raise AssertionError(
                    f"row total for n={n} is {self.total(n)}, expected "
                    f"{expected} ({self.perm_class})"
                )

    # -- emission ----------------------------------------------------------

    def csv_lines(self) -> Iterator[str]:
        """CSV rows: n, one column per statistic, count."""
        yield ",".join(["n", *self.stats, "count"])
        for n in self.lengths():
            for key in sorted(self.rows[n]):
                yield ",".join(map(str, [n, *key, self.rows[n][key]]))

    def to_jsonable(self) -> dict:
        return {
            "class": self.perm_class,
            "stats": list(self.stats),
            "rows": {
                str(n): [[list(key), c] for key, c in sorted(self.rows[n].items())]
                for n in self.lengths()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=2)


#: The census checks the first and the last word of every group, and every
#: word at this stride of its walk in group order, against the statistics
#: kernel.
_SAMPLE_EVERY = 1021

def _check_key(word: bytes, key: int) -> None:
    """Anchor a composed statistic key to the kernel on its word."""
    want = _stats_of_sequence(word).monomial()
    if _unpack(key) != want:
        raise AssertionError(
            f"composed statistics {_unpack(key)} of {list(word)} "
            f"differ from the kernel's {want}"
        )


def _column(m: int, cls: str) -> Iterator[tuple[bytes, int]]:
    """(word, key) for each word of a class at a length with a table."""
    return zip(iter_separable_bytes(m, cls), _key_stream(m, cls))


#: A wrap: a side's word -> the census word it stands for.
_Wrap = Callable[[bytes], bytes]


def _whole(word: bytes) -> bytes:
    return word


def _with_head(wrap: _Wrap, head: bytes, tail_shift, tail: bytes) -> bytes:
    return wrap(head + tail.translate(tail_shift))


def _with_tail(wrap: _Wrap, head_shift, tail: bytes, head: bytes) -> bytes:
    return wrap(head.translate(head_shift) + tail)


@functools.lru_cache(maxsize=None, typed=True)
def _masked_keys(m: int, cls: str, mask: int) -> array:
    """The key column of a class at a length with a table, each key
    ``& mask``: one column for every walk and group that reads this side
    under this mask."""
    return array("Q", map(operator.and_, _key_stream(m, cls), itertools.repeat(mask)))


class _Walk:
    """One census walk: every word's composed key, tallied group by group
    from the shorter tables, and the words sampled for the kernel check.

    A word of a side is tallied as (its key & mask) + offset, read from
    :func:`_masked_keys`, and ``wrap(word)`` is the census word it stands
    for: the masks, offsets and wraps compose the side's words with the
    fixed summands around them.
    """

    def __init__(self, n: int) -> None:
        #: the census's length: only its own groups have their ends checked
        self.n = n
        #: the longest side read from its table
        self.cap = enumeration._KEY_CAP
        self.tally: Counter[int] = Counter()
        #: position in group order of the next word tallied
        self.pos = 0
        #: the first and last positions of the groups not yet walked past
        self.ends: list[int] = []
        #: (length, class) -> (index, key as tallied, wrap) for each sampled
        #: word of that column
        self.samples: dict[tuple[int, str], list[tuple]] = {}

    def groups(self, n: int, cls: str, mask: int, offset: int, wrap: _Wrap) -> None:
        """Tally the words of a class at length n >= 2, group by group.

        Python loops over the side with fewer words, which is a table, and
        each of its words maps the other side at C speed.  A side longer
        than ``self.cap`` is walked the same way, once per word of the
        other side: that one is always a table while n <= 2 * cap + 1.
        """
        cap = self.cap
        for rule, i, head_cls, head_shift, tail_shift, _ in _groups(n, cls):
            head_mask, tail_mask, junction = rule
            heads, tails = class_count(head_cls, i), class_count("all", n - i)
            if n == self.n:
                self.ends += (self.pos, self.pos + heads * tails - 1)
            if n - i > cap or (i <= cap and heads <= tails):
                for head, key in _column(i, head_cls):
                    share = ((key & head_mask) + junction) & mask
                    head = head.translate(head_shift)
                    fixed = functools.partial(_with_head, wrap, head, tail_shift)
                    self.side(n - i, "all", mask & tail_mask, offset + share, fixed)
            else:
                for tail, key in _column(n - i, "all"):
                    share = ((key & tail_mask) + junction) & mask
                    tail = tail.translate(tail_shift)
                    fixed = functools.partial(_with_tail, wrap, head_shift, tail)
                    self.side(i, head_cls, mask & head_mask, offset + share, fixed)

    def side(self, m: int, cls: str, mask: int, offset: int, wrap: _Wrap) -> None:
        """Tally the words of a class at a side's length m: from its table
        within the cap, else group by group."""
        if m <= self.cap:
            self.table(m, cls, mask, offset, wrap)
        else:
            self.groups(m, cls, mask, offset, wrap)

    def table(self, m: int, cls: str, mask: int, offset: int, wrap: _Wrap) -> None:
        """Tally a table's masked key column plus the offset, and note its
        sampled words with their keys as tallied."""
        masked = _masked_keys(m, cls, mask)
        start = self.pos
        self.pos += class_count(cls, m)
        picks = {p - start for p in self.ends if p < self.pos}
        self.ends = [p for p in self.ends if p >= self.pos]
        picks.update(range(-start % _SAMPLE_EVERY, self.pos - start, _SAMPLE_EVERY))
        self.tally.update(map(operator.add, masked, itertools.repeat(offset)))
        # a pick past a short column is left to the row total
        self.samples.setdefault((m, cls), []).extend(
            (j, masked[j] + offset, wrap) for j in picks if j < len(masked)
        )

    def check(self) -> None:
        """Check every sampled word's key, as tallied, against the kernel,
        reading each word column once."""
        for (m, cls), picks in self.samples.items():
            words = iter_separable_bytes(m, cls)
            at, word = -1, None
            for j, key, wrap in sorted(picks, key=operator.itemgetter(0)):
                if j != at:
                    word = next(itertools.islice(words, j - at - 1, None), None)
                    at = j
                if word is None:
                    raise ValueError(
                        f"the word and key columns of length {m} differ in length"
                    )
                _check_key(wrap(word), key)


@functools.lru_cache(maxsize=None, typed=True)
def _census(n: int, cls: str) -> MultiPoly:
    """Sum of p^asc q^des x^lmax y^rmax u^lmin v^rmin over the length-n
    permutations of the canonical class ``cls``: one walk per (n, class),
    tallying each word's key composed from its head's and its tail's.  The
    keys are the series' packed monomials, so the tally is the
    polynomial's term dict.  The walk reads only the tables of lengths up
    to ``enumeration._KEY_CAP`` and below n (length 1 is always there).
    Its callers check n."""
    walk = _Walk(n)
    if n == 1:
        walk.table(1, cls, _EVERY_LANE, 0, _whole)
    else:
        walk.groups(n, cls, _EVERY_LANE, 0, _whole)
    # a key column of the wrong length fails the total before any word is
    # read for the kernel
    DistTable(cls, STAT_NAMES, {n: walk.tally}).check_totals()
    walk.check()
    # canonical by construction: each value is a positive int count
    return MultiPoly(dict(walk.tally))


def dist_from_enumeration(
    n: int,
    perm_class: str = "all",
    stats: Sequence[str] = STAT_NAMES,
) -> DistTable:
    """Exact census distribution of ``stats`` on the class at length ``n``.

    >>> dist_from_enumeration(1, "irreducible", ("rmax",)).value_counts(1)
    {1: 1}
    """
    _check_structural_n(n)
    cls = canonical_class(perm_class)
    lanes = stat_lanes(stats)
    indices = [VARIABLES.index(v) for v in lanes]
    counts = {
        tuple(profile[i] for i in indices): c
        for profile, c in _census(n, cls).keep_only(lanes).terms()
    }
    return DistTable(cls, tuple(stats), {n: counts})


def series_from_enumeration(order: int, perm_class: str = "all") -> TruncSeries:
    """The six-variable joint distribution series built by direct census.

    The coefficient of t^n is the sum over class permutations of length n
    of p^asc q^des x^lmax y^rmax u^lmin v^rmin.  This is the
    enumeration-side oracle for the functional-equation solver.

    >>> S = series_from_enumeration(1)
    >>> str(S.coefficient(1))
    'x*y*u*v'
    """
    _check_structural_n(order)
    cls = canonical_class(perm_class)
    coeffs = [_census(n, cls) for n in range(1, order + 1)]
    return TruncSeries([MultiPoly.zero(), *coeffs])


def counts_by_variable(poly: MultiPoly, var: str) -> dict[int, int]:
    """Marginal distribution read off a series coefficient.

    Substitutes 1 for every other variable (:meth:`MultiPoly.keep_only`)
    and reads each remaining term's exponent of ``var``, in order.  Values
    are asserted to be non-negative integers, as befits counts.
    """
    marginal = poly.keep_only((var,))
    idx = VARIABLES.index(var)
    out = {exps[idx]: c for exps, c in marginal.terms()}
    for k, c in out.items():
        if c < 0:
            raise AssertionError(
                f"marginal count for {var}^{k} is {c}, expected a "
                "non-negative integer"
            )
    return out


# ---------------------------------------------------------------------------
# Distribution-triangle rendering (tables 3, 4, 5)
# ---------------------------------------------------------------------------

#: Table number -> (class, statistic, column-range function).  Table 3 is
#: the distribution of any one of lmax/rmax/lmin/rmin on all separable
#: permutations (the four coincide; rmax is used).  Table 4 is rmax on
#: irreducible ones (k = 1 is structurally 0 for n >= 2 and is printed).
#: Table 5 is lmax on irreducible ones; its rows stop at k = n - 1 because
#: lmax = n forces the identity permutation, which is reducible for n >= 2.
TABLE_NUMBERS = (3, 4, 5)
_TABLE_SPECS: dict[int, tuple[str, str, str]] = {
    3: ("all", "rmax", "full"),
    4: ("irreducible", "rmax", "full"),
    5: ("irreducible", "lmax", "drop_last"),
}
_TABLE_ROWS = 8


def table_rows(which: int, max_n: int = _TABLE_ROWS) -> list[list[int]]:
    """Table rows as integer lists, row n listing counts for k = 1.. ."""
    _check_int(which, "table number", None)
    if which not in _TABLE_SPECS:
        raise ValueError(f"no such table {which}; expected one of {TABLE_NUMBERS}")
    _check_structural_n(max_n)
    perm_class, stat, shape = _TABLE_SPECS[which]
    rows = []
    for n in range(1, max_n + 1):
        counts = dist_from_enumeration(n, perm_class, (stat,)).value_counts(n)
        top = n if shape == "full" else max(1, n - 1)
        rows.append([counts.get(k, 0) for k in range(1, top + 1)])
    return rows


def render_table(which: int, max_n: int = _TABLE_ROWS) -> str:
    """Render a table exactly as printed: one line per n, space-separated.

    >>> print(render_table(3, max_n=4))
    1
    1 1
    2 3 1
    6 9 6 1
    <BLANKLINE>
    """
    lines = [" ".join(map(str, row)) for row in table_rows(which, max_n)]
    return "\n".join(lines) + "\n"
