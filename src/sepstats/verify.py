"""One named, machine-checkable verdict per structural claim.

Every identity the package relies on — counting formulas, functional
equations, closed forms, equidistribution classes, symmetry transfers,
frozen reference expansions, printed tables, and the unimodality
conjectures — gets an independent check here.  Each check compares two
routes that should agree (formula vs. recurrence, closed form vs.
fixpoint, fixpoint vs. census, series vs. exhaustive search) with exact
arithmetic and zero tolerance; a failing check always carries a concrete
witness.

A check is written once, as its body under ``@_check(check_id)``: the
body returns its detail text or raises :class:`CheckFailure` with a
witness, and the decorator turns that into the timed :class:`CheckReport`.
The suite, ``ALL_CHECKS``, reads each check's id from the check itself.

Conjecture checks are finite-range evidence by construction: a pass means
the stated pattern holds over the computed range, nothing more, and the
report says so.

>>> report = verify_counts(max_n=6)
>>> report.verdict
'pass'
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from . import closedforms as cf
from . import numbers
from .distributions import (
    counts_by_variable,
    dist_from_enumeration,
    render_table,
    series_from_enumeration,
)
from .enumeration import (
    CLASSES,
    class_part,
    count_irreducible,
    count_separable,
    iter_separable_bytes,
)
from .permutations import (
    Permutation,
    _Record,
    _stats_of_sequence,
    complement,
    inverse,
    is_irreducible,
    is_separable,
    reverse,
)
from .series import (
    MAX_ORDER,
    STAT_NAMES,
    STAT_TO_VARIABLE,
    MultiPoly,
    TruncSeries,
    VARIABLES,
    parse_poly,
    solve_fixpoint,
    stat_lanes,
)

__all__ = [
    "CheckReport",
    "CheckFailure",
    "unimodality",
    "verify_counts",
    "verify_counting_gfs",
    "verify_asc_des",
    "verify_single_stat_closed_forms",
    "verify_pair_set2_closed_forms",
    "verify_pair_set1_closed_forms",
    "verify_triple_closed_forms",
    "verify_quad_closed_form",
    "verify_e_function_identities",
    "verify_equidistribution",
    "verify_negative_control",
    "verify_symmetries",
    "verify_factorization",
    "verify_transfer",
    "verify_snippets",
    "verify_specialized_systems",
    "verify_specialization_consistency",
    "verify_master_vs_enumeration",
    "verify_tables_golden",
    "verify_rising_factorial",
    "verify_eulerian",
    "check_conjectures",
    "ALL_CHECKS",
    "run_all",
]


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


class CheckReport(_Record):
    """Outcome of one verification check.  Immutable: assigning an
    attribute raises ``AttributeError``."""

    __slots__ = ("check_id", "verdict", "detail", "first_fail", "witness", "runtime")

    check_id: str
    verdict: str  # "pass" | "fail"
    detail: str
    first_fail: int | None
    witness: str | None
    runtime: float

    def __init__(
        self,
        check_id: str,
        verdict: str,
        detail: str,
        first_fail: int | None = None,
        witness: str | None = None,
        runtime: float = 0.0,
    ) -> None:
        self._init(check_id, verdict, detail, first_fail, witness, runtime)
        if verdict not in ("pass", "fail"):
            raise ValueError(f"verdict must be pass or fail, got {verdict!r}")
        if verdict == "fail" and not witness:
            raise ValueError("a failing report must carry a witness")

    def line(self) -> str:
        text = f"{self.check_id:36s} {self.verdict.upper():4s}  {self.detail}"
        if self.witness:
            text += f"  [witness: {self.witness}]"
        return text + f"  ({self.runtime:.2f}s)"

    def to_jsonable(self) -> dict:
        return {
            "check": self.check_id,
            "verdict": self.verdict,
            "detail": self.detail,
            "first_fail": self.first_fail,
            "witness": self.witness,
            "runtime": round(self.runtime, 4),
        }


class CheckFailure(Exception):
    """Raised inside a check body to report a failure with its witness."""

    def __init__(self, witness: str, first_fail: int | None = None) -> None:
        super().__init__(witness)
        self.witness = witness
        self.first_fail = first_fail


def _report(check_id: str, body: Callable[[], str]) -> CheckReport:
    start = time.perf_counter()
    try:
        detail = body()
        return CheckReport(
            check_id, "pass", detail, runtime=time.perf_counter() - start
        )
    except CheckFailure as fail:
        return CheckReport(
            check_id,
            "fail",
            "mismatch found",
            first_fail=fail.first_fail,
            witness=fail.witness,
            runtime=time.perf_counter() - start,
        )


def _check(check_id: str) -> Callable[[Callable[..., str]], Callable[..., CheckReport]]:
    """Make a check of a body that returns its detail text or raises
    :class:`CheckFailure`: the check takes the body's arguments and
    returns the timed report under ``check_id``, which it also carries as
    its ``check_id`` attribute.  Every parameter of a body is a depth (an
    order or a largest n), so each value the body would see, passed or
    default, must be an int >= 1 before the body runs: a check at depth 0
    would pass having checked nothing."""

    def decorate(body: Callable[..., str]) -> Callable[..., CheckReport]:
        code = body.__code__
        names = code.co_varnames[: code.co_argcount]
        defaults = dict(zip(reversed(names), reversed(body.__defaults__ or ())))

        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckReport:
            bound = {**defaults, **dict(zip(names, args)), **kwargs}
            for name in names:
                if name in bound:
                    numbers._check_int(bound[name], f"{body.__name__} {name}", 1)
            return _report(check_id, functools.partial(body, *args, **kwargs))

        check.check_id = check_id
        return check

    return decorate


def _expect_zero(series: TruncSeries, label: str) -> None:
    val = series.valuation()
    if val is not None:
        raise CheckFailure(
            f"{label}: residual t^{val} coefficient {series.coefficient(val)}",
            first_fail=val,
        )


def _expect_agree(
    got: TruncSeries, want: TruncSeries, through: int, label: str
) -> None:
    n = got.first_difference(want, through=through)
    if n is not None:
        raise CheckFailure(
            f"{label}: t^{n} coefficient {got.coefficient(n)} != "
            f"{want.coefficient(n)}",
            first_fail=n,
        )


# ---------------------------------------------------------------------------
# Unimodality
# ---------------------------------------------------------------------------


def unimodality(row: Mapping[int, int] | Sequence[int]) -> tuple[bool, int | None, bool]:
    """(weakly_unimodal, peak, strictly_unimodal) for a distribution row.

    The row is read from its first to its last positive count, a missing
    or zero count inside that span counting as 0, so an internal zero
    breaks unimodality; weak unimodality means non-decreasing up to a peak
    then non-increasing, plateaus allowed; the reported peak is the
    smallest statistic value attaining the maximum.  A sequence input is
    read as counts for k = 1, 2, ....

    >>> unimodality([22, 31, 26, 10, 1])
    (True, 2, True)
    >>> unimodality({1: 0, 2: 1092, 3: 1288, 4: 1069})
    (True, 3, True)
    >>> unimodality([1, 2, 1, 2])[0]
    False
    >>> unimodality([1, 3, 3, 2])
    (True, 2, False)
    >>> unimodality({1: 3, 3: 3})
    (False, 1, False)
    """
    if not isinstance(row, Mapping):
        row = {k: c for k, c in enumerate(row, start=1)}
    support = [k for k in sorted(row) if row[k] > 0]
    if any(row[k] < 0 for k in row):
        raise ValueError("distribution rows cannot contain negative counts")
    if not support:
        return True, None, True
    span = range(support[0], support[-1] + 1)
    seq = [row.get(k, 0) for k in span]
    peak_pos = seq.index(max(seq))
    weak = all(seq[i] <= seq[i + 1] for i in range(peak_pos)) and all(
        seq[i] >= seq[i + 1] for i in range(peak_pos, len(seq) - 1)
    )
    strict = all(seq[i] < seq[i + 1] for i in range(peak_pos)) and all(
        seq[i] > seq[i + 1] for i in range(peak_pos, len(seq) - 1)
    )
    return weak, span[peak_pos], strict


# ---------------------------------------------------------------------------
# Counting checks
# ---------------------------------------------------------------------------


@_check("counting-identities")
def verify_counts(max_n: int = 12, stream_n: int = 7) -> str:
    """Structural enumeration vs. the two summation formulas and the
    halving relation between all and irreducible counts."""
    for n in range(1, stream_n + 1):
        streamed = sum(1 for _ in iter_separable_bytes(n, "all"))
        if streamed != count_separable(n):
            raise CheckFailure(
                f"stream count at n={n}: {streamed} != {count_separable(n)}",
                first_fail=n,
            )
        irr_streamed = sum(1 for _ in iter_separable_bytes(n, "irr"))
        if irr_streamed != count_irreducible(n):
            raise CheckFailure(
                f"irreducible stream count at n={n}: {irr_streamed} != "
                f"{count_irreducible(n)}",
                first_fail=n,
            )
    for n in range(1, max_n + 1):
        # the summation formulas index from s_0 = 1, so length n
        # corresponds to argument n - 1
        want = count_separable(n)
        eq1 = numbers.schroeder_eq1(n - 1)
        if eq1 != want:
            raise CheckFailure(
                f"binomial-Catalan sum at n={n}: {eq1} != {want}",
                first_fail=n,
            )
        eq2 = numbers.schroeder_eq2(n - 1)
        if eq2 != want:
            raise CheckFailure(
                f"peak-weighted sum at n={n}: {eq2} != {want}",
                first_fail=n,
            )
        irr = count_irreducible(n)
        if n >= 2 and 2 * irr != want:
            raise CheckFailure(
                f"irreducible halving at n={n}: 2*{irr} != {want}",
                first_fail=n,
            )
    return (
        f"streams to n={stream_n}, formulas to n={max_n}, "
        f"s_{max_n}={count_separable(max_n)}"
    )


@_check("counting-gf-radicals")
def verify_counting_gfs(order: int = 12) -> str:
    """Radical counting generating functions vs. the count recurrences."""
    s_gf = cf.schroeder_gf(order)
    i_gf = cf.little_schroeder_gf(order)
    for n in range(1, order + 1):
        got = s_gf.coefficient(n).constant_term()
        if got != count_separable(n):
            raise CheckFailure(
                f"separable gf t^{n}: {got} != {count_separable(n)}",
                first_fail=n,
            )
        got_i = i_gf.coefficient(n).constant_term()
        if got_i != count_irreducible(n):
            raise CheckFailure(
                f"irreducible gf t^{n}: {got_i} != {count_irreducible(n)}",
                first_fail=n,
            )
    # I(t) = t + (S(t) - t)/2 as a series identity, doubled
    t = TruncSeries.t(order)
    _expect_zero((i_gf - t) * 2 - (s_gf - t), "half-shift relation")
    return f"radical gfs match counts to order {order}"


# ---------------------------------------------------------------------------
# Ascent/descent relations
# ---------------------------------------------------------------------------


@_check("asc-des-relations")
def verify_asc_des(order: int = 20) -> str:
    """The cubic relation for S(t,p,q), the closed form for I(t,p,q), the
    p=1 specialization, and the p=q=1 reduction to the counting series."""
    _expect_zero(cf.asc_des_cubic_residual(order), "cubic in S(t,p,q)")
    _expect_zero(cf.asc_des_irr_residual(order), "I(t,p,q) closed form")
    _expect_zero(cf.des_cubic_residual(order), "descent-only cubic")
    s = cf.schroeder_gf(order)
    t = TruncSeries.t(order)
    _expect_zero(
        s * s * s + t * (s * s) + (2 * t - 1) * s + t,
        "p=q=1 cubic on the radical series",
    )
    return f"all residuals zero to order {order}"


# ---------------------------------------------------------------------------
# Closed forms vs. fixpoint and census
# ---------------------------------------------------------------------------

#: The variables of lmax, rmax, lmin and rmin: every closed form lives in them.
_EXTREME_LANES = ("x", "y", "u", "v")


def _exchange_identity(order: int) -> str:
    s_y, i_y = solve_fixpoint(order, ("y",))
    s_u, i_u = solve_fixpoint(order, ("u",))
    _expect_zero(s_u * i_y - i_u * s_y, "S/I exchange identity")
    return "; exchange identity holds"


@functools.lru_cache(maxsize=None, typed=True)
def _extremes(route: str, order: int) -> tuple[TruncSeries, TruncSeries]:
    """The irreducible and reducible series to ``order`` of the master
    fixpoint (``route="fixpoint"``) or of the census (``"census"``),
    projected onto the four extreme lanes: what the closed-form checks,
    ``e-function-identities``, ``transfer-identity`` and
    ``series-snippets`` read."""
    if route == "fixpoint":
        s, i = solve_fixpoint(order, VARIABLES)
    else:
        s, i = (series_from_enumeration(order, cls) for cls in ("all", "irreducible"))
    return i.keep_only(_EXTREME_LANES), (s - i).keep_only(_EXTREME_LANES)


def _classes_in(
    parts: tuple[TruncSeries, TruncSeries], lanes: tuple[str, ...]
) -> dict[str, TruncSeries]:
    """Every class of a projected (irreducible, reducible) pair, in
    ``lanes``; keep_only composes."""
    irreducible, reducible = (part.keep_only(lanes) for part in parts)
    return {
        "all": irreducible + reducible,
        "irreducible": irreducible,
        "reducible": reducible,
    }


def _closed_form_detail(
    label: str, tuples: Sequence[tuple[str, ...]], order: int, census_order: int
) -> str:
    """Every class of each tuple's closed form against the fixpoint to
    ``order`` and the census to ``census_order``; ``label`` opens each
    witness."""
    master, census = _extremes("fixpoint", order), _extremes("census", census_order)
    for stats_tuple in tuples:
        name = "-".join(stats_tuple)
        lanes = stat_lanes(stats_tuple)
        want_fix = _classes_in(master, lanes)
        want_cen = _classes_in(census, lanes)
        for cls in CLASSES:
            closed = cf.closed_form(order, stats_tuple, cls)
            _expect_agree(
                closed, want_fix[cls], order, f"{label} {name} {cls} vs fixpoint"
            )
            _expect_agree(
                closed,
                want_cen[cls],
                census_order,
                f"{label} {name} {cls} vs census",
            )
    return (
        f"{len(tuples) * len(CLASSES)} series match fixpoint to order "
        f"{order} and census to order {census_order}"
    )


@_check("single-stat-closed-forms")
def verify_single_stat_closed_forms(order: int = 12, census_order: int = 9) -> str:
    """Two-radical S(t,z) and its irreducible/reducible split, per statistic."""
    return _closed_form_detail("single", cf.SINGLES, order, census_order)


@_check("pair-set2-closed-forms")
def verify_pair_set2_closed_forms(order: int = 12, census_order: int = 9) -> str:
    """Product-style pair closed forms, all four ordered pairs, all classes."""
    return _closed_form_detail("pair", cf.SET2_PAIRS, order, census_order)


@_check("pair-set1-closed-forms")
def verify_pair_set1_closed_forms(order: int = 12, census_order: int = 9) -> str:
    """Composite pair closed forms plus the S(t,a)I(t,b) = I(t,a)S(t,b)
    exchange identity they rely on."""
    detail = _closed_form_detail("pair", cf.SET1_PAIRS, order, census_order)
    return detail + _exchange_identity(order)


@_check("triple-closed-forms")
def verify_triple_closed_forms(order: int = 12, census_order: int = 9) -> str:
    """Triple closed forms (E- and A-function based), all four triples."""
    return _closed_form_detail("triple", cf.TRIPLES, order, census_order)


@_check("quad-closed-form")
def verify_quad_closed_form(order: int = 12, census_order: int = 9) -> str:
    """The four-statistic closed form and its class split."""
    return _closed_form_detail("quad", cf.QUAD, order, census_order)


@_check("e-function-identities")
def verify_e_function_identities(order: int = 12) -> str:
    """E(t,z1,z2,z3) against the fixpoint: for (., rmax, lmin)-tailed
    triples E is the reducible series plus z1z2z3 t; for the
    (., rmin, lmax)-tailed ones E is the irreducible series itself."""
    irreducible, reducible = _extremes("fixpoint", order)
    for triple in cf.TRIPLES:
        lanes = stat_lanes(triple)
        e_ser = cf.e_function(order, lanes)
        if cf._rmax_lmin_tailed(triple):
            want = reducible.keep_only(lanes) + cf._t_times(order, lanes)
            label = f"E{lanes} as reducible + t*z1z2z3"
        else:
            want = irreducible.keep_only(lanes)
            label = f"E{lanes} as irreducible"
        _expect_agree(e_ser, want, order, label)
    return f"all four E readings match the fixpoint to order {order}"


# ---------------------------------------------------------------------------
# Exhaustive small-n checks: equidistribution and symmetries
# ---------------------------------------------------------------------------

@_check("equidistribution-classes")
def verify_equidistribution(max_n: int = 8) -> str:
    """The four equidistribution families, exhaustively on separable
    permutations up to length max_n."""
    for n in range(1, max_n + 1):
        for ref_name, *others in (cf.SINGLES, cf.SET2_PAIRS, cf.SET1_PAIRS, cf.TRIPLES):
            reference = dist_from_enumeration(n, "all", ref_name).row(n)
            for stats_tuple in others:
                if dist_from_enumeration(n, "all", stats_tuple).row(n) != reference:
                    raise CheckFailure(
                        f"n={n}: {stats_tuple} differs from {ref_name}",
                        first_fail=n,
                    )
    return f"singles, both pair families, triples identical for n <= {max_n}"


@_check("equidistribution-negative-control")
def verify_negative_control(max_n: int = 4) -> str:
    """(lmax, rmax) and (rmax, lmin) must NOT be jointly equidistributed;
    the check passes when a small witness length is found."""
    for n in range(1, max_n + 1):
        a = dist_from_enumeration(n, "all", ("lmax", "rmax")).row(n)
        b = dist_from_enumeration(n, "all", ("rmax", "lmin")).row(n)
        if a != b:
            return (
                f"distinguished at n={n}: {dict(sorted(a.items()))} "
                f"vs {dict(sorted(b.items()))}"
            )
    raise CheckFailure(
        f"(lmax,rmax) and (rmax,lmin) agree for all n <= {max_n}, "
        "expected a difference",
        first_fail=max_n,
    )


#: Each symmetry of the separable class once, as (map, statistic map,
#: flips reducibility past length 1).  The statistic map sends each
#: statistic of an image, in STAT_NAMES order, to the statistic of the
#: source that it equals; inverse does not carry asc and des.
_SYMMETRIES = (
    (
        reverse,
        {"asc": "des", "des": "asc", "lmax": "rmax", "rmax": "lmax",
         "lmin": "rmin", "rmin": "lmin"},
        True,
    ),
    (
        complement,
        {"asc": "des", "des": "asc", "lmax": "lmin", "rmax": "rmin",
         "lmin": "lmax", "rmin": "rmax"},
        True,
    ),
    (inverse, {"lmax": "rmin", "rmax": "rmax", "lmin": "lmin", "rmin": "lmax"}, False),
)


@_check("symmetry-reducibility-flips")
def verify_symmetries(max_n: int = 8) -> str:
    """Pointwise statistic transport under reverse/complement/inverse and
    the reducibility flips, exhaustively on separable permutations."""
    # per symmetry, the carried statistics of an image and the statistics
    # of the source they equal, each read off a profile
    transports = [
        (
            op,
            itemgetter(*map(STAT_NAMES.index, stat_map)),
            itemgetter(*map(STAT_NAMES.index, stat_map.values())),
            flips,
        )
        for op, stat_map, flips in _SYMMETRIES
    ]
    for n in range(1, max_n + 1):
        # Every image of a length-n word is a length-n word, so each
        # distinct word's (separable, profile, irreducible) is computed
        # once per length.  The three functions are pure, so the first
        # failure and its message are those of computing every time.
        facts: dict[tuple[int, ...], tuple[bool, tuple[int, ...], bool]] = {}

        def fact(perm: Permutation) -> tuple[bool, tuple[int, ...], bool]:
            found = facts.get(perm.values)
            if found is None:
                found = facts[perm.values] = (
                    is_separable(perm),
                    _stats_of_sequence(perm.values).monomial(),
                    is_irreducible(perm),
                )
            return found

        for word in iter_separable_bytes(n, "all"):
            pi = Permutation._trusted(tuple(word))
            _, prof, irr = fact(pi)
            for op, carried, source, flips in transports:
                separable, image_prof, image_irr = fact(op(pi))
                if not separable:
                    raise CheckFailure(
                        f"{op.__name__}({pi}) left the class", first_fail=n
                    )
                got, want = carried(image_prof), source(prof)
                if got != want:
                    raise CheckFailure(
                        f"{op.__name__}({pi}) statistics {got} != {want}",
                        first_fail=n,
                    )
                if n >= 2 and (image_irr != irr) != flips:
                    raise CheckFailure(
                        f"{op.__name__}({pi}) "
                        f"{'did not flip' if flips else 'changed'} reducibility",
                        first_fail=n,
                    )
    return f"reverse/complement/inverse transport verified for n <= {max_n}"


# ---------------------------------------------------------------------------
# Series identities on the master fixpoint
# ---------------------------------------------------------------------------


@_check("reducible-factorization")
def verify_factorization(order: int = 12) -> str:
    """The reducible part factors two ways:
    S - I = p * I|y=1 * S|u=1 = p * I|u=1 * S|y=1."""
    s, i = solve_fixpoint(order, VARIABLES)
    p = MultiPoly.variable("p")
    red = s - i
    _expect_zero(
        red - p * (i.specialize("y") * s.specialize("u")),
        "first factorization",
    )
    _expect_zero(
        red - p * (i.specialize("u") * s.specialize("y")),
        "second factorization",
    )
    return f"both factorizations hold to order {order}"


@_check("transfer-identity")
def verify_transfer(order: int = 12) -> str:
    """The reverse/complement transfer on the four extreme lanes: with I
    and R the irreducible and reducible parts of the master there, and g
    a symmetry that flips reducibility, renaming each variable as g moves
    its statistic, I - xyuv t = g(R) and R + xyuv t = g(I).  Setting lanes
    to 1 commutes with g (onto the image lanes), so every statistic tuple
    of the closed forms inherits both identities."""
    irreducible, reducible = _extremes("fixpoint", order)
    zt = cf._t_times(order, _EXTREME_LANES)
    names = []
    for op, stat_map, flips in _SYMMETRIES:
        if not flips:
            continue
        g = {
            STAT_TO_VARIABLE[source]: STAT_TO_VARIABLE[image]
            for image, source in stat_map.items()
        }
        _expect_agree(
            irreducible - zt,
            reducible.map_variables(g),
            order,
            f"{op.__name__}: I - zt vs image R",
        )
        _expect_agree(
            reducible + zt,
            irreducible.map_variables(g),
            order,
            f"{op.__name__}: R + zt vs image I",
        )
        names.append(op.__name__)
    return (
        f"I - zt and R + zt are the images of R and I under "
        f"{' and '.join(names)} on the four extreme lanes to order {order}"
    )


@_check("master-vs-enumeration")
def verify_master_vs_enumeration(order: int = 9) -> str:
    """The fixpoint solution of the functional equations against the
    permutation-by-permutation census, in all six variables."""
    s_fix, i_fix = solve_fixpoint(order, VARIABLES)
    s_cen = series_from_enumeration(order, "all")
    i_cen = series_from_enumeration(order, "irreducible")
    _expect_agree(s_fix, s_cen, order, "S fixpoint vs census")
    _expect_agree(i_fix, i_cen, order, "I fixpoint vs census")
    return f"S and I agree with the census to order {order}"


@_check("fixpoint-specialization-consistency")
def verify_specialization_consistency(order: int = 12) -> str:
    """Direct subset solves vs. substitution into the six-variable solve."""
    # The master is projected once onto each of two disjoint lane sets;
    # the smaller subsets are read off (x, y, u), since keep_only composes.
    master = solve_fixpoint(order, VARIABLES)
    projected = {
        lanes: [big.keep_only(lanes) for big in master]
        for lanes in (("p", "q"), ("x", "y", "u"))
    }
    for active in (("p", "q"), ("y",), ("x", "y"), ("y", "u"), ("x", "y", "u")):
        want = projected.get(active) or [
            big.keep_only(active) for big in projected["x", "y", "u"]
        ]
        for which, sub, big in zip("SI", solve_fixpoint(order, active), want):
            _expect_agree(sub, big, order, f"{which} with active {active}")
    return f"subset solves equal master specializations to order {order}"


@_check("specialized-systems")
def verify_specialized_systems(order: int = 20) -> str:
    """Residuals of the low-variable functional-equation systems that the
    solved series must satisfy (ascent/descent, one statistic, the three
    statistic pairs/triples, and the rearranged triple system)."""
    checked = 0

    def expect_zero(residual: TruncSeries, label: str) -> None:
        nonlocal checked
        _expect_zero(residual, label)
        checked += 1

    t = TruncSeries.t(order)
    p = MultiPoly.variable("p")
    q = MultiPoly.variable("q")
    x = MultiPoly.variable("x")
    y = MultiPoly.variable("y")
    u = MultiPoly.variable("u")

    s0, i0 = solve_fixpoint(order, ())

    # Each product that two residuals share is computed once, and
    # released before the closing division.
    s_pq, i_pq = solve_fixpoint(order, ("p", "q"))
    is_pq = i_pq * s_pq
    expect_zero((s_pq - i_pq) - p * is_pq, "reducible split in (p,q)")
    expect_zero(
        s_pq - t * (q * s_pq + 1) - p * q * (is_pq * s_pq) - p * is_pq,
        "S system in (p,q)",
    )
    del is_pq
    expect_zero(
        i_pq - t * (q * s_pq + 1) - q * ((s_pq - i_pq) * s_pq),
        "I system in (p,q)",
    )

    s_y, i_y = solve_fixpoint(order, ("y",))
    yt = TruncSeries.term(order, 1, y)
    expect_zero((s_y - i_y) - i0 * s_y, "reducible split in (y), first form")
    expect_zero((s_y - i_y) - i_y * s0, "reducible split in (y), second form")
    expect_zero(
        s_y - yt * (s_y + 1) - i0 * ((s_y + 1) * s_y), "S system in (y)"
    )
    expect_zero(
        i_y - yt * (s_y + 1) - (s_y - i_y) * s_y, "I system in (y)"
    )

    s_xy, i_xy = solve_fixpoint(order, ("x", "y"))
    s_y_of_xy = s_xy.specialize("x")
    i_x_of_xy = i_xy.specialize("y")
    s_x_of_xy = s_xy.specialize("y")
    xyt = TruncSeries.term(order, 1, x * y)
    si_xy = s_xy * i_x_of_xy
    expect_zero(
        (s_xy - i_xy) - s_x_of_xy * i_xy, "reducible split in (x,y), first form"
    )
    expect_zero((s_xy - i_xy) - si_xy, "reducible split in (x,y), second form")
    expect_zero(
        s_xy - xyt * (s_y_of_xy + 1) - si_xy * (s_y_of_xy + 1),
        "S system in (x,y)",
    )
    del si_xy
    expect_zero(
        i_xy - xyt * (s_y_of_xy + 1) - (s_xy - i_xy) * s_y_of_xy,
        "I system in (x,y)",
    )

    s_yu, i_yu = solve_fixpoint(order, ("y", "u"))
    s_u_of_yu = s_yu.specialize("y")
    i_y_of_yu = i_yu.specialize("u")
    yut = TruncSeries.term(order, 1, y * u)
    q_term_yu = (s_yu - i_yu + yut) * s_yu
    expect_zero(
        s_yu - yut - s_u_of_yu * i_y_of_yu - q_term_yu, "S system in (y,u)"
    )
    expect_zero(i_yu - yut - q_term_yu, "I system in (y,u)")
    del q_term_yu

    s3, i3 = solve_fixpoint(order, ("x", "y", "u"))
    s_xu = s3.specialize("y")
    i_xy3 = i3.specialize("u")
    s_yu3 = s3.specialize("x")
    xyut = TruncSeries.term(order, 1, x * y * u)
    p_term3 = s_xu * i_xy3
    q_term3 = (s3 - i3 + xyut) * s_yu3
    expect_zero(s3 - xyut - p_term3 - q_term3, "S system in (x,y,u)")
    expect_zero(i3 - xyut - q_term3, "I system in (x,y,u)")
    expect_zero(s3 - p_term3 - i3, "rearranged S relation in (x,y,u)")
    del p_term3, q_term3
    expect_zero(
        i3 - (xyut + (s3 + xyut) * s_yu3).divide(s_yu3 + 1),
        "solved I relation in (x,y,u)",
    )
    return f"all {checked} specialized residuals zero to order {order}"


# ---------------------------------------------------------------------------
# Frozen reference expansions
# ---------------------------------------------------------------------------

#: Initial expansions of the specialized series, frozen as text so any
#: regression in the solver or the closed forms shows up as a diff against
#: an independently recorded value.  Keys: (statistic tuple, class);
#: values: list of (order, polynomial).
_SNIPPETS: dict[tuple[tuple[str, ...], str], list[tuple[int, str]]] = {
    (("lmax", "rmax"), "all"): [
        (1, "xy"),
        (2, "x^2y + xy^2"),
        (3, "x^3y + 2x^2y^2 + xy^3 + x^2y + xy^2"),
        (4, "x^4y + 3x^3y^2 + 3x^2y^3 + xy^4 + 3x^3y + 4x^2y^2 + 3xy^3 + 2x^2y + 2xy^2"),
    ],
    (("lmax", "rmax"), "irreducible"): [
        (1, "xy"),
        (2, "xy^2"),
        (3, "x^2y^2 + xy^3 + xy^2"),
        (4, "x^3y^2 + 2x^2y^3 + xy^4 + 2x^2y^2 + 3xy^3 + 2xy^2"),
        (5, "x^4y^2 + 3x^3y^3 + 3x^2y^4 + xy^5 + 4x^3y^2 + 7x^2y^3 + 6xy^4 + 5x^2y^2 + 9xy^3 + 6xy^2"),
    ],
    (("rmax", "lmin"), "all"): [
        (1, "uy"),
        (2, "u^2y^2 + uy"),
        (3, "u^3y^3 + 2u^2y^2 + u^2y + uy^2 + uy"),
        (4, "u^4y^4 + 3u^3y^3 + 2u^3y^2 + 2u^2y^3 + u^3y + 4u^2y^2 + uy^3 + 3u^2y + 3uy^2 + 2uy"),
    ],
    (("rmax", "lmin"), "irreducible"): [
        (1, "uy"),
        (2, "u^2y^2"),
        (3, "u^3y^3 + 2u^2y^2"),
        (4, "u^4y^4 + 3u^3y^3 + 2u^3y^2 + 2u^2y^3 + 3u^2y^2"),
        (5, "u^5y^5 + 4u^4y^4 + 3u^4y^3 + 3u^3y^4 + 2u^4y^2 + 8u^3y^3 + 2u^2y^4 + 8u^3y^2 + 8u^2y^3 + 6u^2y^2"),
    ],
    (("lmax", "rmax", "lmin"), "all"): [
        (1, "uxy"),
        (2, "u^2xy^2 + ux^2y"),
        (3, "u^3xy^3 + u^2x^2y^2 + u^2x^2y + ux^3y + u^2xy^2 + ux^2y^2"),
        (4, "u^4xy^4 + u^3x^2y^3 + u^3x^2y^2 + u^2x^3y^2 + 2u^3xy^3 + u^2x^2y^3 + u^3x^2y + 2u^2x^3y + ux^4y + u^3xy^2 + 2u^2x^2y^2 + 2ux^3y^2 + u^2xy^3 + ux^2y^3 + u^2x^2y + ux^3y + u^2xy^2 + ux^2y^2"),
    ],
    (("lmax", "rmax", "lmin"), "irreducible"): [
        (1, "uxy"),
        (2, "u^2xy^2"),
        (3, "u^3xy^3 + u^2x^2y^2 + u^2xy^2"),
        (4, "u^4xy^4 + u^3x^2y^3 + u^3x^2y^2 + u^2x^3y^2 + 2u^3xy^3 + u^2x^2y^3 + u^3xy^2 + u^2x^2y^2 + u^2xy^3 + u^2xy^2"),
    ],
    (cf.QUAD[0], "all"): [
        (1, "uvxy"),
        (2, "uv^2x^2y + u^2vxy^2"),
        (3, "uv^3x^3y + u^3vxy^3 + u^2v^2x^2y + u^2v^2xy^2 + u^2vx^2y^2 + uv^2x^2y^2"),
        (4, "uv^4x^4y + u^4vxy^4 + u^2v^3x^3y + uv^3x^3y^2 + u^3v^2xy^3 + u^3vx^2y^3 + u^3v^2x^2y + u^2v^3x^2y + u^2v^2x^3y + uv^3x^3y + u^3v^2xy^2 + u^2v^3xy^2 + u^3vx^2y^2 + 2u^2v^2x^2y^2 + uv^3x^2y^2 + u^2vx^3y^2 + uv^2x^3y^2 + u^3vxy^3 + u^2v^2xy^3 + u^2vx^2y^3 + uv^2x^2y^3"),
    ],
    (cf.QUAD[0], "irreducible"): [
        (1, "uvxy"),
        (2, "u^2vxy^2"),
        (3, "u^3vxy^3 + u^2v^2xy^2 + u^2vx^2y^2"),
        (4, "u^4vxy^4 + u^3v^2xy^3 + u^3vx^2y^3 + u^3v^2xy^2 + u^2v^3xy^2 + u^3vx^2y^2 + u^2v^2x^2y^2 + u^2vx^3y^2 + u^3vxy^3 + u^2v^2xy^3 + u^2vx^2y^3"),
    ],
}


@_check("series-snippets")
def verify_snippets() -> str:
    """The frozen initial expansions of eight specialized series, matched
    exactly against the fixpoint solution."""
    max_order = max(
        order for rows in _SNIPPETS.values() for order, _ in rows
    )
    master = _extremes("fixpoint", max_order)
    for (stats_tuple, cls), rows in _SNIPPETS.items():
        series = _classes_in(master, stat_lanes(stats_tuple))[cls]
        for order, text in rows:
            want = parse_poly(text)
            got = series.coefficient(order)
            if got != want:
                raise CheckFailure(
                    f"{cls} {stats_tuple} t^{order}: {got} != {want}",
                    first_fail=order,
                )
    return f"all {len(_SNIPPETS)} frozen expansions match exactly"


# ---------------------------------------------------------------------------
# Printed tables and conjectures
# ---------------------------------------------------------------------------


def _golden_table_text(which: int) -> str:
    from importlib import resources

    return (
        resources.files("sepstats")
        .joinpath(f"data/table{which}.txt")
        .read_text(encoding="utf-8")
    )


@_check("tables-golden")
def verify_tables_golden() -> str:
    """Recomputed distribution tables byte-match the packaged golden files."""
    for which in (3, 4, 5):
        got = render_table(which)
        want = _golden_table_text(which)
        if got != want:
            # the rows with their line ends rebuild each text, so two
            # texts that differ differ at some row, a missing one included
            first = next(
                k + 1
                for k, (a, b) in enumerate(
                    itertools.zip_longest(
                        got.splitlines(keepends=True), want.splitlines(keepends=True)
                    )
                )
                if a != b
            )
            raise CheckFailure(
                f"table {which} differs at row n={first}", first_fail=first
            )
    return "tables 3, 4, 5 byte-match their golden files"


_CONJECTURES = {
    "conjecture-all-single-peak2": {
        "perm_class": "all",
        "stat": "rmax",
        "peak": 2,
        "from_n": 3,
    },
    "conjecture-irr-rmax-peak3": {
        "perm_class": "irreducible",
        "stat": "rmax",
        "peak": 3,
        "from_n": 5,
    },
    "conjecture-irr-lmax-peak1": {
        "perm_class": "irreducible",
        "stat": "lmax",
        "peak": 1,
        "from_n": 1,
    },
}
#: Smallest evidence depth that reaches every conjecture's stated range.
_MIN_CONJECTURE_N = max(spec["from_n"] for spec in _CONJECTURES.values())


def _check_conjecture_n(max_n: int) -> None:
    numbers._check_int(max_n, "conjecture evidence max_n", _MIN_CONJECTURE_N, MAX_ORDER)


def conjecture_rows(
    perm_class: str, stat: str, max_n: int
) -> dict[int, dict[int, int]]:
    """Distribution rows n -> {k: count} from the series route (the
    one-variable fixpoint, verified against census and closed forms by the
    other checks)."""
    lane = STAT_TO_VARIABLE[stat]
    s, i = solve_fixpoint(max_n, (lane,))
    series = class_part(perm_class, s, i)
    return {
        n: counts_by_variable(series.coefficient(n), lane)
        for n in range(1, max_n + 1)
    }


def _conjecture_evidence(
    max_n: int,
) -> list[tuple[str, dict[int, dict[int, int]], CheckReport]]:
    """(check id, rows, report) for each conjecture: its rows are computed
    once, inside its timed report."""
    _check_conjecture_n(max_n)
    evidence = []
    for check_id, spec in _CONJECTURES.items():
        rows: dict[int, dict[int, int]] = {}

        def body(spec=spec, rows=rows) -> str:
            rows.update(conjecture_rows(spec["perm_class"], spec["stat"], max_n))
            strict_everywhere = True
            for n in range(spec["from_n"], max_n + 1):
                weak, peak, strict = unimodality(rows[n])
                if not weak:
                    raise CheckFailure(
                        f"n={n} row not unimodal: {rows[n]}", first_fail=n
                    )
                if peak != spec["peak"]:
                    raise CheckFailure(
                        f"n={n} peak at k={peak}, stated k={spec['peak']}",
                        first_fail=n,
                    )
                strict_everywhere = strict_everywhere and strict
            # below from_n only plain unimodality is claimed, not the peak
            for n in range(1, spec["from_n"]):
                weak, _, _ = unimodality(rows[n])
                if not weak:
                    raise CheckFailure(
                        f"n={n} row not unimodal: {rows[n]}", first_fail=n
                    )
            strictness = "strict" if strict_everywhere else "plateaus present"
            return (
                f"evidence only, n <= {max_n}: unimodal with peak k="
                f"{spec['peak']} for n >= {spec['from_n']} ({strictness})"
            )

        evidence.append((check_id, rows, _report(check_id, body)))
    return evidence


def check_conjectures(max_n: int = 12) -> list[CheckReport]:
    """Unimodality and peak-position evidence for the three conjectures.

    A pass certifies the claim over n <= max_n only; these are open
    conjectures and the reports are explicit about the finite range.
    """
    return [report for _, _, report in _conjecture_evidence(max_n)]


# ---------------------------------------------------------------------------
# Cross-oracle checks on classical ground truth
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None, typed=True)
def _sn_profiles(n: int) -> Counter:
    """How many of the n! permutations of 1..n have each statistic
    profile: the one exhaustive walk of S_n behind the classical oracles."""
    return Counter(map(_stats_of_sequence, itertools.permutations(range(1, n + 1))))


def _sn_marginal(n: int, stat: str) -> dict[int, int]:
    """The distribution of ``stat`` over all of S_n."""
    got: dict[int, int] = {}
    for profile, c in _sn_profiles(n).items():
        k = getattr(profile, stat)
        got[k] = got.get(k, 0) + c
    return got


@_check("rising-factorial-rmax")
def verify_rising_factorial(max_n: int = 8) -> str:
    """Over ALL permutations of n, the rmax distribution has generating
    polynomial y(y+1)...(y+n-1); checked against exhaustive search."""
    for n in range(1, max_n + 1):
        want = numbers.rising_factorial_coeffs(n)
        got = _sn_marginal(n, "rmax")
        if got != want:
            raise CheckFailure(
                f"n={n}: exhaustive {dict(sorted(got.items()))} != "
                f"rising factorial {dict(sorted(want.items()))}",
                first_fail=n,
            )
    return f"rmax on all of S_n matches the rising factorial for n <= {max_n}"


@_check("eulerian-descents")
def verify_eulerian(max_n: int = 8) -> str:
    """Descents over ALL permutations of n against the Eulerian polynomial
    computed from Stirling numbers."""
    for n in range(1, max_n + 1):
        want = numbers.eulerian_poly(n)
        got = _sn_marginal(n, "des")
        if got != want:
            raise CheckFailure(
                f"n={n}: exhaustive {dict(sorted(got.items()))} != "
                f"Eulerian {dict(sorted(want.items()))}",
                first_fail=n,
            )
    return f"descent counts match Eulerian polynomials for n <= {max_n}"


# ---------------------------------------------------------------------------
# The full suite
# ---------------------------------------------------------------------------

#: Check id -> zero-argument callable returning one or more CheckReports,
#: with the suite's default parameters, in suite order.
ALL_CHECKS: dict[str, Callable[[], CheckReport | list[CheckReport]]] = {
    **{
        check.check_id: check
        for check in (
            verify_counts,
            verify_counting_gfs,
            verify_asc_des,
            verify_master_vs_enumeration,
            verify_specialization_consistency,
            verify_specialized_systems,
            verify_single_stat_closed_forms,
            verify_pair_set2_closed_forms,
            verify_pair_set1_closed_forms,
            verify_triple_closed_forms,
            verify_quad_closed_form,
            verify_e_function_identities,
            verify_equidistribution,
            verify_negative_control,
            verify_symmetries,
            verify_factorization,
            verify_transfer,
            verify_snippets,
            verify_tables_golden,
            verify_rising_factorial,
            verify_eulerian,
        )
    },
    "conjectures": check_conjectures,
}


def run_all(
    selection: Iterable[str] | None = None, *, conjecture_n: int = 12
) -> list[CheckReport]:
    """Run the selected checks (default: everything) and collect reports.

    ``conjecture_n`` deepens the conjecture-evidence range only; all other
    checks run at their calibrated default orders.  It is validated before
    any check runs, whatever the selection.
    """
    if selection is None:
        names = list(ALL_CHECKS)
    else:
        names = list(selection)
        unknown = [n for n in names if n not in ALL_CHECKS]
        if unknown:
            raise ValueError(
                f"unknown checks {unknown}; available: {sorted(ALL_CHECKS)}"
            )
    _check_conjecture_n(conjecture_n)
    reports: list[CheckReport] = []
    for name in names:
        if name == "conjectures":
            outcome = check_conjectures(conjecture_n)
        else:
            outcome = ALL_CHECKS[name]()
        if isinstance(outcome, CheckReport):
            reports.append(outcome)
        else:
            reports.extend(outcome)
    return reports
