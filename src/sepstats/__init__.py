"""sepstats: exact enumerative combinatorics of separable permutations.

Separable permutations are those avoiding the patterns 2413 and 3142;
equivalently, those built from the singleton by direct and skew sums.
This package enumerates them (two independent methods), tallies six
classical statistics (ascents, descents, left-to-right/right-to-left
maxima and minima), solves the defining functional equations as truncated
exact power series, evaluates the known closed-form generating functions,
and cross-checks all of these against one another.

Quick tour:

>>> from sepstats import Permutation, stats, is_separable
>>> is_separable(Permutation.parse("3142"))
False
>>> stats(Permutation.parse("231")).rmax
2
>>> from sepstats import count_separable
>>> [count_separable(n) for n in range(1, 7)]
[1, 2, 6, 22, 90, 394]
"""

from .permutations import (
    Permutation,
    StatProfile,
    stats,
    reverse,
    complement,
    inverse,
    direct_sum,
    skew_sum,
    is_separable,
    is_irreducible,
    components,
    block_decompose,
)
from .enumeration import (
    enumerate_structural,
    enumerate_filter,
    count_separable,
    count_irreducible,
)
from .numbers import (
    schroeder_eq1,
    schroeder_eq2,
    catalan,
    binomial,
)
from .series import (
    MultiPoly,
    TruncSeries,
    parse_poly,
    solve_fixpoint,
)
from .distributions import (
    DistTable,
    dist_from_enumeration,
    series_from_enumeration,
)

__version__ = "0.1.0"

__all__ = [
    "Permutation",
    "StatProfile",
    "stats",
    "reverse",
    "complement",
    "inverse",
    "direct_sum",
    "skew_sum",
    "is_separable",
    "is_irreducible",
    "components",
    "block_decompose",
    "enumerate_structural",
    "enumerate_filter",
    "count_separable",
    "count_irreducible",
    "schroeder_eq1",
    "schroeder_eq2",
    "catalan",
    "binomial",
    "MultiPoly",
    "TruncSeries",
    "parse_poly",
    "solve_fixpoint",
    "DistTable",
    "dist_from_enumeration",
    "series_from_enumeration",
    "__version__",
]
