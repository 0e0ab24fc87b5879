"""Exact statistic distributions over separable permutation classes.

Two independent routes produce distribution data:

* a census route that tallies the six statistics over the structural
  enumeration stream once per (length, class) and memoizes the tally, from
  which every :func:`dist_from_enumeration` table and
  :func:`series_from_enumeration` coefficient is read, and
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
from collections import Counter
from typing import Iterator, Sequence

from .enumeration import (
    HARD_CAP,
    _key_stream,
    canonical_class,
    class_part,
    count_irreducible,
    count_separable,
    iter_separable_bytes,
)
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


#: The census checks the first word, the last word and every word at this
#: stride of each walk against the statistics kernel.
_SAMPLE_EVERY = 1021


def _check_key(word: bytes, key: int) -> None:
    """Anchor a composed statistic key to the kernel on its word."""
    want = _stats_of_sequence(word).monomial()
    if _unpack(key) != want:
        raise AssertionError(
            f"composed statistics {_unpack(key)} of {list(word)} "
            f"differ from the kernel's {want}"
        )


@functools.lru_cache(maxsize=None)
def _census(n: int, cls: str) -> MultiPoly:
    """Sum of p^asc q^des x^lmax y^rmax u^lmin v^rmin over the length-n
    permutations of the canonical class ``cls``: the one walk of the
    stream per (n, class), tallying each word's composed statistic key.
    The keys are the series' packed monomials, so the tally is the
    polynomial's term dict."""
    tally: Counter[int] = Counter()
    words = iter_separable_bytes(n, cls)
    keys = _key_stream(n, cls)
    last: tuple[list[bytes], list[int]] = ([], [])
    while True:
        word_chunk = list(itertools.islice(words, _SAMPLE_EVERY))
        key_chunk = list(itertools.islice(keys, _SAMPLE_EVERY))
        if len(word_chunk) != len(key_chunk):
            raise ValueError(
                f"the word and key streams of ({n}, {cls}) differ in length"
            )
        if not key_chunk:
            break
        _check_key(word_chunk[0], key_chunk[0])
        tally.update(key_chunk)
        last = (word_chunk, key_chunk)
    if len(last[1]) > 1:
        _check_key(last[0][-1], last[1][-1])
    DistTable(cls, STAT_NAMES, {n: tally}).check_totals()
    return MultiPoly(dict(tally))


def dist_from_enumeration(
    n: int,
    perm_class: str = "all",
    stats: Sequence[str] = STAT_NAMES,
) -> DistTable:
    """Exact census distribution of ``stats`` on the class at length ``n``.

    >>> dist_from_enumeration(1, "irreducible", ("rmax",)).value_counts(1)
    {1: 1}
    """
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
    cls = canonical_class(perm_class)
    if not 1 <= order <= HARD_CAP:
        raise ValueError(
            f"the census is capped at 1 <= order <= {HARD_CAP}, got {order}"
        )
    coeffs = [_census(n, cls) for n in range(1, order + 1)]
    return TruncSeries([MultiPoly.zero(), *coeffs])


def counts_by_variable(poly: MultiPoly, var: str) -> dict[int, int]:
    """Marginal distribution read off a series coefficient.

    Groups the coefficient's monomials by the exponent of ``var`` and sums
    (equivalently: substitutes 1 for every other variable).  Values are
    asserted to be non-negative integers, as befits counts.
    """
    idx = VARIABLES.index(var)
    out: dict[int, int] = {}
    for exps, c in poly.terms():
        out[exps[idx]] = out.get(exps[idx], 0) + c
    for k, c in out.items():
        if not isinstance(c, int) or c < 0:
            raise AssertionError(
                f"marginal count for {var}^{k} is {c}, expected a "
                "non-negative integer"
            )
    return dict(sorted(out.items()))


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
    if which not in _TABLE_SPECS:
        raise ValueError(f"no such table {which}; expected one of {TABLE_NUMBERS}")
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
