"""One named, machine-checkable verdict per structural claim.

Every identity the package relies on — counting formulas, functional
equations, closed forms, equidistribution classes, symmetry transfers,
frozen reference expansions, printed tables, and the unimodality
conjectures — gets an independent check here.  Each check compares two
routes that should agree (formula vs. recurrence, closed form vs.
fixpoint, fixpoint vs. census, series vs. exhaustive search) with exact
arithmetic and zero tolerance; a failing check always carries a concrete
witness.

Conjecture checks are finite-range evidence by construction: a pass means
the stated pattern holds over the computed range, nothing more, and the
report says so.

>>> report = verify_counts(max_n=6)
>>> report.verdict
'pass'
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from . import closedforms as cf
from . import numbers
from .distributions import (
    STAT_NAMES,
    STAT_TO_VARIABLE,
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
    _stats_of_sequence,
    complement,
    inverse,
    is_irreducible,
    is_separable,
    reverse,
    stats,
)
from .series import (
    MultiPoly,
    TruncSeries,
    VARIABLES,
    check_order,
    parse_poly,
    solve_fixpoint,
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


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check."""

    check_id: str
    verdict: str  # "pass" | "fail"
    detail: str
    first_fail: int | None = None
    witness: str | None = None
    runtime: float = 0.0

    def __post_init__(self) -> None:
        if self.verdict not in ("pass", "fail"):
            raise ValueError(f"verdict must be pass or fail, got {self.verdict!r}")
        if self.verdict == "fail" and not self.witness:
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


def _lanes(stats_tuple: Sequence[str]) -> tuple[str, ...]:
    return tuple(STAT_TO_VARIABLE[s] for s in stats_tuple)


# ---------------------------------------------------------------------------
# Unimodality
# ---------------------------------------------------------------------------


def unimodality(row: Mapping[int, int] | Sequence[int]) -> tuple[bool, int | None, bool]:
    """(weakly_unimodal, peak, strictly_unimodal) for a distribution row.

    The row is restricted to its positive support; weak unimodality means
    non-decreasing up to a peak then non-increasing, plateaus allowed; the
    reported peak is the smallest statistic value attaining the maximum.
    A sequence input is read as counts for k = 1, 2, ....

    >>> unimodality([22, 31, 26, 10, 1])
    (True, 2, True)
    >>> unimodality({1: 0, 2: 1092, 3: 1288, 4: 1069})
    (True, 3, True)
    >>> unimodality([1, 2, 1, 2])[0]
    False
    >>> unimodality([1, 3, 3, 2])
    (True, 2, False)
    """
    if not isinstance(row, Mapping):
        row = {k: c for k, c in enumerate(row, start=1)}
    support = [k for k in sorted(row) if row[k] > 0]
    if any(row[k] < 0 for k in row):
        raise ValueError("distribution rows cannot contain negative counts")
    if not support:
        return True, None, True
    seq = [row[k] for k in support]
    peak_pos = seq.index(max(seq))
    weak = all(seq[i] <= seq[i + 1] for i in range(peak_pos)) and all(
        seq[i] >= seq[i + 1] for i in range(peak_pos, len(seq) - 1)
    )
    strict = all(seq[i] < seq[i + 1] for i in range(peak_pos)) and all(
        seq[i] > seq[i + 1] for i in range(peak_pos, len(seq) - 1)
    )
    return weak, support[peak_pos], strict


# ---------------------------------------------------------------------------
# Counting checks
# ---------------------------------------------------------------------------


def verify_counts(max_n: int = 12, stream_n: int = 7) -> CheckReport:
    """Structural enumeration vs. the two summation formulas and the
    halving relation between all and irreducible counts."""

    def body() -> str:
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

    return _report("counting-identities", body)


def verify_counting_gfs(order: int = 12) -> CheckReport:
    """Radical counting generating functions vs. the count recurrences."""

    def body() -> str:
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
        # I(t) = t + (S(t) - t)/2 as a series identity
        t = TruncSeries.t(order)
        _expect_zero(i_gf - t - (s_gf - t) * Fraction(1, 2), "half-shift relation")
        return f"radical gfs match counts to order {order}"

    return _report("counting-gf-radicals", body)


# ---------------------------------------------------------------------------
# Ascent/descent relations
# ---------------------------------------------------------------------------


def verify_asc_des(order: int = 20) -> CheckReport:
    """The cubic relation for S(t,p,q), the closed form for I(t,p,q), the
    p=1 specialization, and the p=q=1 reduction to the counting series."""

    def body() -> str:
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

    return _report("asc-des-relations", body)


# ---------------------------------------------------------------------------
# Closed forms vs. fixpoint and census
# ---------------------------------------------------------------------------

def _master(order: int) -> dict[str, TruncSeries]:
    s, i = solve_fixpoint(order, VARIABLES)
    return {cls: class_part(cls, s, i) for cls in CLASSES}


def _census(order: int) -> dict[str, TruncSeries]:
    s = series_from_enumeration(order, "all")
    i = series_from_enumeration(order, "irreducible")
    return {cls: class_part(cls, s, i) for cls in CLASSES}


#: The variables of lmax, rmax, lmin and rmin: every closed form lives in them.
_EXTREME_LANES = ("x", "y", "u", "v")


def _exchange_identity(order: int) -> str:
    s_y, i_y = solve_fixpoint(order, ("y",))
    s_u, i_u = solve_fixpoint(order, ("u",))
    _expect_zero(s_u * i_y - i_u * s_y, "S/I exchange identity")
    return "; exchange identity holds"


#: Closed-form check id -> (witness label, statistic tuples, extra step).
#: Every tuple's closed form is checked in every class against the fixpoint
#: and the census; the extra step, if any, adds to the report's detail.
_CLOSED_FORM_CHECKS: dict[
    str,
    tuple[str, Sequence[tuple[str, ...]], Callable[[int], str] | None],
] = {
    "single-stat-closed-forms": ("single", cf.SINGLES, None),
    "pair-set2-closed-forms": ("pair", cf.SET2_PAIRS, None),
    "pair-set1-closed-forms": ("pair", cf.SET1_PAIRS, _exchange_identity),
    "triple-closed-forms": ("triple", cf.TRIPLES, None),
    "quad-closed-form": ("quad", [("lmax", "rmax", "lmin", "rmin")], None),
}


def _check_closed_forms(check_id: str, order: int, census_order: int) -> CheckReport:
    label, tuples, extra = _CLOSED_FORM_CHECKS[check_id]

    def body() -> str:
        # Project each class onto the four lanes the tuples use once, then
        # each tuple from that; keep_only composes.
        lanes4 = _EXTREME_LANES
        master = {cls: s.keep_only(lanes4) for cls, s in _master(order).items()}
        census = {cls: s.keep_only(lanes4) for cls, s in _census(census_order).items()}
        for stats_tuple in tuples:
            name = "-".join(stats_tuple)
            lanes = _lanes(stats_tuple)
            for cls in CLASSES:
                closed = cf.closed_form(order, stats_tuple, cls)
                want_fix = master[cls].keep_only(lanes)
                _expect_agree(
                    closed, want_fix, order, f"{label} {name} {cls} vs fixpoint"
                )
                want_cen = census[cls].keep_only(lanes)
                _expect_agree(
                    closed, want_cen, census_order, f"{label} {name} {cls} vs census"
                )
        detail = (
            f"{len(tuples) * len(CLASSES)} series match fixpoint to order "
            f"{order} and census to order {census_order}"
        )
        return detail + extra(order) if extra else detail

    return _report(check_id, body)


def verify_single_stat_closed_forms(
    order: int = 12, census_order: int = 9
) -> CheckReport:
    """Two-radical S(t,z) and its irreducible/reducible split, per statistic."""
    return _check_closed_forms("single-stat-closed-forms", order, census_order)


def verify_pair_set2_closed_forms(
    order: int = 12, census_order: int = 9
) -> CheckReport:
    """Product-style pair closed forms, all four ordered pairs, all classes."""
    return _check_closed_forms("pair-set2-closed-forms", order, census_order)


def verify_pair_set1_closed_forms(
    order: int = 12, census_order: int = 9
) -> CheckReport:
    """Composite pair closed forms plus the S(t,a)I(t,b) = I(t,a)S(t,b)
    exchange identity they rely on."""
    return _check_closed_forms("pair-set1-closed-forms", order, census_order)


def verify_triple_closed_forms(
    order: int = 12, census_order: int = 9
) -> CheckReport:
    """Triple closed forms (E- and A-function based), all four triples."""
    return _check_closed_forms("triple-closed-forms", order, census_order)


def verify_quad_closed_form(order: int = 12, census_order: int = 9) -> CheckReport:
    """The four-statistic closed form and its class split."""
    return _check_closed_forms("quad-closed-form", order, census_order)


def verify_e_function_identities(order: int = 12) -> CheckReport:
    """E(t,z1,z2,z3) against the fixpoint: for (., rmax, lmin)-tailed
    triples E is the reducible series plus z1z2z3 t; for the
    (., rmin, lmax)-tailed ones E is the irreducible series itself."""

    def body() -> str:
        master = _master(order)
        for triple in cf.TRIPLES:
            lanes = _lanes(triple)
            e_ser = cf.e_function(order, lanes)
            tz = TruncSeries.term(
                order,
                1,
                MultiPoly.variable(lanes[0])
                * MultiPoly.variable(lanes[1])
                * MultiPoly.variable(lanes[2]),
            )
            if triple in cf._TRIPLES_RMAX_LMIN_TAIL:
                want = master["reducible"].keep_only(lanes) + tz
                label = f"E{lanes} as reducible + t*z1z2z3"
            else:
                want = master["irreducible"].keep_only(lanes)
                label = f"E{lanes} as irreducible"
            _expect_agree(e_ser, want, order, label)
        return f"all four E readings match the fixpoint to order {order}"

    return _report("e-function-identities", body)


# ---------------------------------------------------------------------------
# Exhaustive small-n checks: equidistribution and symmetries
# ---------------------------------------------------------------------------

_SET2 = (("lmax", "rmax"), ("lmin", "rmin"), ("lmin", "lmax"), ("rmin", "rmax"))


def verify_equidistribution(max_n: int = 8) -> CheckReport:
    """The four equidistribution families, exhaustively on separable
    permutations up to length max_n."""

    def body() -> str:
        for n in range(1, max_n + 1):
            for family in (
                cf.SINGLES,
                _SET2,
                cf.SET1_PAIRS,
                cf.TRIPLES,
            ):
                reference = None
                ref_name = family[0]
                for stats_tuple in family:
                    row = dist_from_enumeration(n, "all", stats_tuple).row(n)
                    if reference is None:
                        reference, ref_name = row, stats_tuple
                    elif row != reference:
                        raise CheckFailure(
                            f"n={n}: {stats_tuple} differs from {ref_name}",
                            first_fail=n,
                        )
        return f"singles, both pair families, triples identical for n <= {max_n}"

    return _report("equidistribution-classes", body)


def verify_negative_control(max_n: int = 4) -> CheckReport:
    """(lmax, rmax) and (rmax, lmin) must NOT be jointly equidistributed;
    the check passes when a small witness length is found."""

    def body() -> str:
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

    return _report("equidistribution-negative-control", body)


_REVERSE_STAT = {
    "asc": "des",
    "des": "asc",
    "lmax": "rmax",
    "rmax": "lmax",
    "lmin": "rmin",
    "rmin": "lmin",
}
_COMPLEMENT_STAT = {
    "asc": "des",
    "des": "asc",
    "lmax": "lmin",
    "lmin": "lmax",
    "rmax": "rmin",
    "rmin": "rmax",
}


def verify_symmetries(max_n: int = 8) -> CheckReport:
    """Pointwise statistic transport under reverse/complement/inverse and
    the reducibility flips, exhaustively on separable permutations."""

    def body() -> str:
        stat_index = {s: k for k, s in enumerate(STAT_NAMES)}
        for n in range(1, max_n + 1):
            for word in iter_separable_bytes(n, "all"):
                pi = Permutation(tuple(word))
                prof = stats(pi).monomial()
                irr = is_irreducible(pi)
                for op, stat_map, flips in (
                    (reverse, _REVERSE_STAT, True),
                    (complement, _COMPLEMENT_STAT, True),
                ):
                    image = op(pi)
                    if not is_separable(image):
                        raise CheckFailure(
                            f"{op.__name__}({pi}) left the class", first_fail=n
                        )
                    got = stats(image).monomial()
                    want = tuple(prof[stat_index[stat_map[s]]] for s in STAT_NAMES)
                    if got != want:
                        raise CheckFailure(
                            f"{op.__name__}({pi}) statistics {got} != {want}",
                            first_fail=n,
                        )
                    if n >= 2 and is_irreducible(image) != (not irr):
                        raise CheckFailure(
                            f"{op.__name__}({pi}) did not flip reducibility",
                            first_fail=n,
                        )
                image = inverse(pi)
                if not is_separable(image):
                    raise CheckFailure(f"inverse({pi}) left the class", first_fail=n)
                if is_irreducible(image) != irr:
                    raise CheckFailure(
                        f"inverse({pi}) changed reducibility", first_fail=n
                    )
                inv_prof = stats(image).monomial()
                # under inverse: rmax and lmin are preserved; lmax <-> rmin
                if (
                    inv_prof[3] != prof[3]
                    or inv_prof[4] != prof[4]
                    or inv_prof[2] != prof[5]
                    or inv_prof[5] != prof[2]
                ):
                    raise CheckFailure(
                        f"inverse({pi}) statistic transport failed: "
                        f"{inv_prof} vs {prof}",
                        first_fail=n,
                    )
        return f"reverse/complement/inverse transport verified for n <= {max_n}"

    return _report("symmetry-reducibility-flips", body)


# ---------------------------------------------------------------------------
# Series identities on the master fixpoint
# ---------------------------------------------------------------------------


def verify_factorization(order: int = 12) -> CheckReport:
    """The reducible part factors two ways:
    S - I = p * I|y=1 * S|u=1 = p * I|u=1 * S|y=1."""

    def body() -> str:
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

    return _report("reducible-factorization", body)


_TRANSFER_TUPLES = cf.SINGLES + cf.SET2_PAIRS + cf.SET1_PAIRS + cf.TRIPLES


def verify_transfer(order: int = 12) -> CheckReport:
    """The reverse/complement transfer: if I and R give the irreducible
    and reducible distributions of a statistic tuple, then I - (z...z)t
    and R + (z...z)t give the reducible and irreducible distributions of
    the image tuple, with each variable following its statistic."""

    def body() -> str:
        # Project the six-variable master series once onto the four lanes
        # the tuples use, then each lane set once; keep_only composes.
        master = _master(order)
        i4 = master["irreducible"].keep_only(_EXTREME_LANES)
        r4 = master["reducible"].keep_only(_EXTREME_LANES)
        projected: dict[frozenset[str], tuple[TruncSeries, TruncSeries]] = {}

        def project(lanes: tuple[str, ...]) -> tuple[TruncSeries, TruncSeries]:
            key = frozenset(lanes)
            if key not in projected:
                projected[key] = (i4.keep_only(key), r4.keep_only(key))
            return projected[key]

        checked = 0
        for op_name, stat_map in (
            ("reverse", _REVERSE_STAT),
            ("complement", _COMPLEMENT_STAT),
        ):
            for stats_tuple in _TRANSFER_TUPLES:
                image = tuple(stat_map[s] for s in stats_tuple)
                lanes = _lanes(stats_tuple)
                image_lanes = _lanes(image)
                relabel = {
                    src: dst
                    for src, dst in zip(image_lanes, lanes)
                    if src != dst
                }
                zt = TruncSeries.term(
                    order,
                    1,
                    MultiPoly.from_exponents(
                        {
                            tuple(
                                1 if v in lanes else 0 for v in VARIABLES
                            ): 1
                        }
                    ),
                )
                i_here, r_here = project(lanes)
                i_image, r_image = project(image_lanes)
                _expect_agree(
                    i_here - zt,
                    r_image.map_variables(relabel),
                    order,
                    f"{op_name} {stats_tuple}: I - zt vs image R",
                )
                _expect_agree(
                    r_here + zt,
                    i_image.map_variables(relabel),
                    order,
                    f"{op_name} {stats_tuple}: R + zt vs image I",
                )
                checked += 1
        return f"{checked} tuple/operation combinations hold to order {order}"

    return _report("transfer-identity", body)


def verify_master_vs_enumeration(order: int = 9) -> CheckReport:
    """The fixpoint solution of the functional equations against the
    permutation-by-permutation census, in all six variables."""

    def body() -> str:
        s_fix, i_fix = solve_fixpoint(order, VARIABLES)
        s_cen = series_from_enumeration(order, "all")
        i_cen = series_from_enumeration(order, "irreducible")
        _expect_agree(s_fix, s_cen, order, "S fixpoint vs census")
        _expect_agree(i_fix, i_cen, order, "I fixpoint vs census")
        return f"S and I agree with the census to order {order}"

    return _report("master-vs-enumeration", body)


def verify_specialization_consistency(order: int = 12) -> CheckReport:
    """Direct subset solves vs. substitution into the six-variable solve."""

    def body() -> str:
        master = solve_fixpoint(order, VARIABLES)
        for active in (("p", "q"), ("y",), ("x", "y"), ("y", "u"), ("x", "y", "u")):
            sub_s, sub_i = solve_fixpoint(order, active)
            for which, sub in (("S", sub_s), ("I", sub_i)):
                big = master[0] if which == "S" else master[1]
                _expect_agree(
                    sub,
                    big.keep_only(active),
                    order,
                    f"{which} with active {active}",
                )
        return f"subset solves equal master specializations to order {order}"

    return _report("fixpoint-specialization-consistency", body)


def verify_specialized_systems(order: int = 20) -> CheckReport:
    """Residuals of the low-variable functional-equation systems that the
    solved series must satisfy (ascent/descent, one statistic, the three
    statistic pairs/triples, and the rearranged triple system)."""

    def body() -> str:
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
        _expect_zero((s_pq - i_pq) - p * is_pq, "reducible split in (p,q)")
        _expect_zero(
            s_pq - t * (q * s_pq + 1) - p * q * (is_pq * s_pq) - p * is_pq,
            "S system in (p,q)",
        )
        del is_pq
        _expect_zero(
            i_pq - t * (q * s_pq + 1) - q * ((s_pq - i_pq) * s_pq),
            "I system in (p,q)",
        )

        s_y, i_y = solve_fixpoint(order, ("y",))
        yt = TruncSeries.term(order, 1, y)
        _expect_zero((s_y - i_y) - i0 * s_y, "reducible split in (y), first form")
        _expect_zero((s_y - i_y) - i_y * s0, "reducible split in (y), second form")
        _expect_zero(
            s_y - yt * (s_y + 1) - i0 * ((s_y + 1) * s_y), "S system in (y)"
        )
        _expect_zero(
            i_y - yt * (s_y + 1) - (s_y - i_y) * s_y, "I system in (y)"
        )

        s_xy, i_xy = solve_fixpoint(order, ("x", "y"))
        s_y_of_xy = s_xy.specialize("x")
        i_x_of_xy = i_xy.specialize("y")
        s_x_of_xy = s_xy.specialize("y")
        xyt = TruncSeries.term(order, 1, x * y)
        si_xy = s_xy * i_x_of_xy
        _expect_zero(
            (s_xy - i_xy) - s_x_of_xy * i_xy, "reducible split in (x,y), first form"
        )
        _expect_zero((s_xy - i_xy) - si_xy, "reducible split in (x,y), second form")
        _expect_zero(
            s_xy - xyt * (s_y_of_xy + 1) - si_xy * (s_y_of_xy + 1),
            "S system in (x,y)",
        )
        del si_xy
        _expect_zero(
            i_xy - xyt * (s_y_of_xy + 1) - (s_xy - i_xy) * s_y_of_xy,
            "I system in (x,y)",
        )

        s_yu, i_yu = solve_fixpoint(order, ("y", "u"))
        s_u_of_yu = s_yu.specialize("y")
        i_y_of_yu = i_yu.specialize("u")
        yut = TruncSeries.term(order, 1, y * u)
        q_term_yu = (s_yu - i_yu + yut) * s_yu
        _expect_zero(
            s_yu - yut - s_u_of_yu * i_y_of_yu - q_term_yu, "S system in (y,u)"
        )
        _expect_zero(i_yu - yut - q_term_yu, "I system in (y,u)")
        del q_term_yu

        s3, i3 = solve_fixpoint(order, ("x", "y", "u"))
        s_xu = s3.specialize("y")
        i_xy3 = i3.specialize("u")
        s_yu3 = s3.specialize("x")
        xyut = TruncSeries.term(order, 1, x * y * u)
        p_term3 = s_xu * i_xy3
        q_term3 = (s3 - i3 + xyut) * s_yu3
        _expect_zero(s3 - xyut - p_term3 - q_term3, "S system in (x,y,u)")
        _expect_zero(i3 - xyut - q_term3, "I system in (x,y,u)")
        _expect_zero(s3 - p_term3 - i3, "rearranged S relation in (x,y,u)")
        del p_term3, q_term3
        _expect_zero(
            i3 - (xyut + (s3 + xyut) * s_yu3).divide(s_yu3 + 1),
            "solved I relation in (x,y,u)",
        )
        return f"all fifteen specialized residuals zero to order {order}"

    return _report("specialized-systems", body)


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
    (("lmax", "rmax", "lmin", "rmin"), "all"): [
        (1, "uvxy"),
        (2, "uv^2x^2y + u^2vxy^2"),
        (3, "uv^3x^3y + u^3vxy^3 + u^2v^2x^2y + u^2v^2xy^2 + u^2vx^2y^2 + uv^2x^2y^2"),
        (4, "uv^4x^4y + u^4vxy^4 + u^2v^3x^3y + uv^3x^3y^2 + u^3v^2xy^3 + u^3vx^2y^3 + u^3v^2x^2y + u^2v^3x^2y + u^2v^2x^3y + uv^3x^3y + u^3v^2xy^2 + u^2v^3xy^2 + u^3vx^2y^2 + 2u^2v^2x^2y^2 + uv^3x^2y^2 + u^2vx^3y^2 + uv^2x^3y^2 + u^3vxy^3 + u^2v^2xy^3 + u^2vx^2y^3 + uv^2x^2y^3"),
    ],
    (("lmax", "rmax", "lmin", "rmin"), "irreducible"): [
        (1, "uvxy"),
        (2, "u^2vxy^2"),
        (3, "u^3vxy^3 + u^2v^2xy^2 + u^2vx^2y^2"),
        (4, "u^4vxy^4 + u^3v^2xy^3 + u^3vx^2y^3 + u^3v^2xy^2 + u^2v^3xy^2 + u^3vx^2y^2 + u^2v^2x^2y^2 + u^2vx^3y^2 + u^3vxy^3 + u^2v^2xy^3 + u^2vx^2y^3"),
    ],
}


def verify_snippets() -> CheckReport:
    """The frozen initial expansions of eight specialized series, matched
    exactly against the fixpoint solution."""

    def body() -> str:
        max_order = max(
            order for rows in _SNIPPETS.values() for order, _ in rows
        )
        master = _master(max_order)
        for (stats_tuple, cls), rows in _SNIPPETS.items():
            series = master[cls].keep_only(_lanes(stats_tuple))
            for order, text in rows:
                want = parse_poly(text)
                got = series.coefficient(order)
                if got != want:
                    raise CheckFailure(
                        f"{cls} {stats_tuple} t^{order}: {got} != {want}",
                        first_fail=order,
                    )
        return f"all {len(_SNIPPETS)} frozen expansions match exactly"

    return _report("series-snippets", body)


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


def verify_tables_golden() -> CheckReport:
    """Recomputed distribution tables byte-match the packaged golden files."""

    def body() -> str:
        for which in (3, 4, 5):
            got = render_table(which)
            want = _golden_table_text(which)
            if got != want:
                first = next(
                    (
                        k + 1
                        for k, (a, b) in enumerate(
                            zip(got.splitlines(), want.splitlines())
                        )
                        if a != b
                    ),
                    None,
                )
                raise CheckFailure(
                    f"table {which} differs at row n={first}", first_fail=first
                )
        return "tables 3, 4, 5 byte-match their golden files"

    return _report("tables-golden", body)


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
    if max_n < _MIN_CONJECTURE_N:
        raise ValueError(
            f"conjecture evidence needs max_n >= {_MIN_CONJECTURE_N}, got {max_n}"
        )
    check_order(max_n)


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


def check_conjectures(max_n: int = 12) -> list[CheckReport]:
    """Unimodality and peak-position evidence for the three conjectures.

    A pass certifies the claim over n <= max_n only; these are open
    conjectures and the reports are explicit about the finite range.
    """
    _check_conjecture_n(max_n)
    reports = []
    for check_id, spec in _CONJECTURES.items():
        def body(spec=spec) -> str:
            rows = conjecture_rows(spec["perm_class"], spec["stat"], max_n)
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

        reports.append(_report(check_id, body))
    return reports


# ---------------------------------------------------------------------------
# Cross-oracle checks on classical ground truth
# ---------------------------------------------------------------------------


def verify_rising_factorial(max_n: int = 8) -> CheckReport:
    """Over ALL permutations of n, the rmax distribution has generating
    polynomial y(y+1)...(y+n-1); checked against exhaustive search."""

    def body() -> str:
        for n in range(1, max_n + 1):
            want = numbers.rising_factorial_coeffs(n)
            got: dict[int, int] = {}
            for perm in itertools.permutations(range(1, n + 1)):
                k = _stats_of_sequence(perm).rmax
                got[k] = got.get(k, 0) + 1
            if got != want:
                raise CheckFailure(
                    f"n={n}: exhaustive {dict(sorted(got.items()))} != "
                    f"rising factorial {dict(sorted(want.items()))}",
                    first_fail=n,
                )
        return f"rmax on all of S_n matches the rising factorial for n <= {max_n}"

    return _report("rising-factorial-rmax", body)


def verify_eulerian(max_n: int = 8) -> CheckReport:
    """Descents over ALL permutations of n against the Eulerian polynomial
    computed from Stirling numbers."""

    def body() -> str:
        for n in range(1, max_n + 1):
            want = numbers.eulerian_poly(n)
            got: dict[int, int] = {}
            for perm in itertools.permutations(range(1, n + 1)):
                k = _stats_of_sequence(perm).des
                got[k] = got.get(k, 0) + 1
            if got != want:
                raise CheckFailure(
                    f"n={n}: exhaustive {dict(sorted(got.items()))} != "
                    f"Eulerian {dict(sorted(want.items()))}",
                    first_fail=n,
                )
        return f"descent counts match Eulerian polynomials for n <= {max_n}"

    return _report("eulerian-descents", body)


# ---------------------------------------------------------------------------
# The full suite
# ---------------------------------------------------------------------------

#: Check id -> zero-argument callable returning one or more CheckReports,
#: with the suite's default parameters.
ALL_CHECKS: dict[str, Callable[[], CheckReport | list[CheckReport]]] = {
    "counting-identities": verify_counts,
    "counting-gf-radicals": verify_counting_gfs,
    "asc-des-relations": verify_asc_des,
    "master-vs-enumeration": verify_master_vs_enumeration,
    "fixpoint-specialization-consistency": verify_specialization_consistency,
    "specialized-systems": verify_specialized_systems,
    "single-stat-closed-forms": verify_single_stat_closed_forms,
    "pair-set2-closed-forms": verify_pair_set2_closed_forms,
    "pair-set1-closed-forms": verify_pair_set1_closed_forms,
    "triple-closed-forms": verify_triple_closed_forms,
    "quad-closed-form": verify_quad_closed_form,
    "e-function-identities": verify_e_function_identities,
    "equidistribution-classes": verify_equidistribution,
    "equidistribution-negative-control": verify_negative_control,
    "symmetry-reducibility-flips": verify_symmetries,
    "reducible-factorization": verify_factorization,
    "transfer-identity": verify_transfer,
    "series-snippets": verify_snippets,
    "tables-golden": verify_tables_golden,
    "rising-factorial-rmax": verify_rising_factorial,
    "eulerian-descents": verify_eulerian,
    "conjectures": check_conjectures,
}


def run_all(
    selection: Iterable[str] | None = None, *, conjecture_n: int = 12
) -> list[CheckReport]:
    """Run the selected checks (default: everything) and collect reports.

    ``conjecture_n`` deepens the conjecture-evidence range only; all other
    checks run at their calibrated default orders.
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
    if "conjectures" in names:
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
