"""The verifier itself: green on the real code, red under injected faults."""

import copy
import pickle

import pytest

from sepstats import closedforms, distributions, enumeration, numbers, verify
from sepstats.distributions import STAT_TO_VARIABLE, DistTable
from sepstats.permutations import Permutation
from sepstats.series import VARIABLES, MultiPoly, TruncSeries

# -- report plumbing --------------------------------------------------------


def test_report_requires_witness_on_failure():
    with pytest.raises(ValueError):
        verify.CheckReport("x", "fail", "broken")
    with pytest.raises(ValueError):
        verify.CheckReport("x", "maybe", "odd verdict")
    ok = verify.CheckReport("x", "pass", "fine")
    assert "PASS" in ok.line() and "x" in ok.line()


def test_report_jsonable_shape():
    rep = verify.CheckReport("demo", "fail", "mismatch", 3, "t^3 differs", 0.1)
    doc = rep.to_jsonable()
    assert doc["check"] == "demo"
    assert doc["verdict"] == "fail"
    assert doc["first_fail"] == 3
    assert doc["witness"] == "t^3 differs"


@pytest.mark.parametrize(
    "make, other, text",
    [
        (
            lambda: verify.CheckReport("demo", "fail", "mismatch", 3, "t^3 differs", 0.1),
            verify.CheckReport("demo", "fail", "mismatch", 3, "t^3 differs", 0.2),
            "CheckReport(check_id='demo', verdict='fail', detail='mismatch', "
            "first_fail=3, witness='t^3 differs', runtime=0.1)",
        ),
        (
            lambda: Permutation([2, 1, 3]),
            Permutation((1, 2, 3)),
            "Permutation((2, 1, 3))",
        ),
        (
            lambda: DistTable("all", ("rmax",), {2: {(1,): 1, (2,): 1}}),
            DistTable("all", ("rmax",)),
            "DistTable(perm_class='all', stats=('rmax',), rows={2: {(1,): 1, (2,): 1}})",
        ),
    ],
    ids=["CheckReport", "Permutation", "DistTable"],
)
def test_value_classes_compare_by_fields_and_are_immutable(make, other, text):
    a, b = make(), make()
    assert a == b and a != other and repr(a) == text
    assert a.__eq__(()) is NotImplemented  # only instances of its class
    if isinstance(a, DistTable):
        with pytest.raises(TypeError):  # its rows are a dict
            hash(a)
        assert other.rows == {}
    else:
        assert hash(a) == hash(b)
    for name in ("detail", "values", "rows", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a)


# -- unimodality helper -----------------------------------------------------


def test_unimodality_cases():
    assert verify.unimodality([22, 31, 26, 10, 1]) == (True, 2, True)
    assert verify.unimodality({1: 0, 2: 5, 3: 5, 4: 1}) == (True, 2, False)
    assert verify.unimodality([1, 2, 1, 2])[0] is False
    assert verify.unimodality([]) == (True, None, True)
    assert verify.unimodality({2: 0, 5: 0}) == (True, None, True)
    assert verify.unimodality([7]) == (True, 1, True)
    # an internal zero, written or missing, breaks unimodality
    assert verify.unimodality([5, 0, 5]) == (False, 1, False)
    assert verify.unimodality({1: 3, 3: 3}) == (False, 1, False)
    with pytest.raises(ValueError):
        verify.unimodality({1: -2})


# -- selected checks pass on the real implementation ------------------------


def test_fast_checks_pass():
    reports = verify.run_all(
        [
            "counting-identities",
            "counting-gf-radicals",
            "asc-des-relations",
            "equidistribution-negative-control",
            "series-snippets",
            "tables-golden",
            "conjectures",
        ]
    )
    assert all(r.verdict == "pass" for r in reports)
    # conjectures expand to three reports
    assert len(reports) == 9
    assert all("evidence only" in r.detail for r in reports[-3:])


def test_run_all_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown checks"):
        verify.run_all(["no-such-check"])


def test_conjecture_depth_is_forwarded():
    reports = verify.run_all(["conjectures"], conjecture_n=6)
    assert all("n <= 6" in r.detail for r in reports)


# -- negative controls: each oracle seam must be able to fail ----------------


def test_corrupted_count_formula_fails_with_witness(monkeypatch):
    monkeypatch.setattr(numbers, "schroeder_eq2", lambda n: 2**n)
    report = verify.verify_counts()
    assert report.verdict == "fail"
    assert report.witness is not None
    assert "peak-weighted" in report.witness
    assert report.first_fail == 3  # 2^(n-1) = 1, 2, 4 first diverges at length 3


def test_corrupted_class_selector_fails_the_stream_count(fresh_memos):
    # one flipped byte of the length-4 irreducible selector moves a word
    # into or out of the irreducible stream
    words, keys, irreducible, reducible = enumeration._table(4)
    flipped = bytes([irreducible[0] ^ 1]) + irreducible[1:]
    enumeration._TABLES[4] = (words, keys, flipped, reducible)
    report = verify.verify_counts()
    assert report.verdict == "fail"
    assert report.witness.startswith("irreducible stream count at n=4")
    assert report.first_fail == 4


def test_corrupted_closed_form_fails_with_witness(monkeypatch):
    real = closedforms.closed_form_S_single

    def tampered(order, stat="rmax"):
        bump = TruncSeries.term(order, 5, MultiPoly.variable("x"))
        return real(order, stat) + bump

    monkeypatch.setattr(closedforms, "closed_form_S_single", tampered)
    report = verify.verify_single_stat_closed_forms(order=8, census_order=6)
    assert report.verdict == "fail"
    assert report.first_fail == 5
    assert "t^5" in report.witness


@pytest.mark.parametrize(
    "check_id",
    [
        "single-stat-closed-forms",
        "pair-set2-closed-forms",
        "pair-set1-closed-forms",
        "triple-closed-forms",
        "quad-closed-form",
    ],
)
def test_every_closed_form_check_fails_on_a_bumped_coefficient(
    monkeypatch, check_id
):
    real = closedforms.closed_form
    k = 4

    def tampered(order, stats, perm_class="all"):
        lane = STAT_TO_VARIABLE[stats[0]]
        return real(order, stats, perm_class) + TruncSeries.term(
            order, k, MultiPoly.variable(lane)
        )

    monkeypatch.setattr(closedforms, "closed_form", tampered)
    report = verify.ALL_CHECKS[check_id](order=6, census_order=5)
    assert report.verdict == "fail"
    assert report.first_fail == k
    assert f"t^{k}" in report.witness


def test_the_closed_form_checks_project_the_master_and_the_census_once(fresh_memos):
    check_ids = [cid for cid in verify.ALL_CHECKS if "closed-form" in cid]
    assert len(check_ids) == 5
    for check_id in check_ids:
        assert verify.ALL_CHECKS[check_id](order=6, census_order=5).verdict == "pass"
    info = verify._extremes.cache_info()
    assert (info.misses, info.hits) == (2, 2 * (len(check_ids) - 1))


def test_counting_gf_check_fails_on_a_bumped_coefficient(monkeypatch):
    real = closedforms.schroeder_gf
    k = 5

    def tampered(order):
        return real(order) + TruncSeries.term(order, k, MultiPoly.one())

    monkeypatch.setattr(closedforms, "schroeder_gf", tampered)
    report = verify.verify_counting_gfs(order=8)
    assert report.verdict == "fail"
    assert report.first_fail == k
    assert report.witness == f"separable gf t^{k}: 91 != 90"


def test_e_function_check_fails_on_a_bumped_coefficient(monkeypatch):
    real = closedforms.e_function
    k = 4

    def tampered(order, lanes=("x", "y", "u")):
        return real(order, lanes) + TruncSeries.term(
            order, k, MultiPoly.variable(lanes[0])
        )

    monkeypatch.setattr(closedforms, "e_function", tampered)
    report = verify.verify_e_function_identities(order=6)
    assert report.verdict == "fail"
    assert report.first_fail == k
    assert report.witness.startswith(f"E('x', 'y', 'u') as reducible + t*z1z2z3: t^{k}")


def _plus_term(series: TruncSeries, k: int, lanes: str) -> TruncSeries:
    """``series`` with its t^k coefficient raised by the product of ``lanes``."""
    mono = MultiPoly.one()
    for lane in lanes:
        mono = mono * MultiPoly.variable(lane)
    return series + TruncSeries.term(series.order, k, mono)


_PAIR_SEAM_CHECKS = {
    "e-function-identities": lambda: verify.verify_e_function_identities(order=6),
    "triple-closed-forms": lambda: verify.verify_triple_closed_forms(
        order=6, census_order=5
    ),
    "quad-closed-form": lambda: verify.verify_quad_closed_form(order=6, census_order=5),
}


def _bumped_set2(parts: tuple[TruncSeries, TruncSeries]) -> tuple[TruncSeries, TruncSeries]:
    irreducible, reducible = parts
    return _plus_term(irreducible, 3, "xy"), reducible


def _bumped_set1(parts: tuple[TruncSeries, TruncSeries]) -> tuple[TruncSeries, TruncSeries]:
    quotient, core_tz = parts
    return _plus_term(quotient, 3, "yu"), core_tz


@pytest.mark.parametrize(
    "seam, tamper, check_id, first_fail",
    [
        ("_set2_parts", _bumped_set2, "e-function-identities", 4),
        ("_set2_parts", _bumped_set2, "triple-closed-forms", 4),
        ("_set2_parts", _bumped_set2, "quad-closed-form", 5),
        ("_set1_parts", _bumped_set1, "triple-closed-forms", 4),
    ],
)
def test_e_and_the_triples_fail_on_a_bumped_pair_series(
    monkeypatch, cold_memos, seam, tamper, check_id, first_fail
):
    # E is built from the set-2 pair series and the triples from the set-1
    # one: a t^3 bump there shows one power of t later, where a factor of
    # valuation 1 multiplies it (two in the quad)
    real = getattr(closedforms, seam)
    monkeypatch.setattr(closedforms, seam, lambda order: tamper(real(order)))
    report = _PAIR_SEAM_CHECKS[check_id]()
    assert report.verdict == "fail"
    assert report.first_fail == first_fail


def test_corrupted_table_fails(monkeypatch):
    real = verify.render_table

    def tampered(which, max_n=8):
        text = real(which, max_n)
        return text.replace("1806", "1807") if which == 3 else text

    monkeypatch.setattr(verify, "render_table", tampered)
    report = verify.verify_tables_golden()
    assert report.verdict == "fail"
    assert "table 3" in report.witness


@pytest.mark.parametrize(
    "cut",
    [
        lambda text: text[: text.rindex("\n", 0, -1) + 1],  # the last row
        lambda text: text[:-1],  # the trailing newline
    ],
    ids=["last-row", "trailing-newline"],
)
def test_a_truncated_table_fails_at_its_last_row(monkeypatch, cut):
    real = verify.render_table

    def tampered(which, max_n=8):
        text = real(which, max_n)
        return cut(text) if which == 3 else text

    monkeypatch.setattr(verify, "render_table", tampered)
    report = verify.verify_tables_golden()
    assert report.verdict == "fail"
    assert report.witness == "table 3 differs at row n=8"
    assert report.first_fail == 8


def test_snippet_check_detects_coefficient_drift(monkeypatch):
    tampered = dict(verify._SNIPPETS)
    key = (("lmax", "rmax"), "all")
    rows = list(tampered[key])
    order, text = rows[2]
    rows[2] = (order, text.replace("2x^2y^2", "3x^2y^2"))
    tampered[key] = rows
    monkeypatch.setattr(verify, "_SNIPPETS", tampered)
    report = verify.verify_snippets()
    assert report.verdict == "fail"
    assert report.first_fail == order


def test_non_unimodal_row_fails_conjecture(monkeypatch):
    real = verify.conjecture_rows

    def fake_rows(perm_class, stat, max_n):
        rows = real(perm_class, stat, max_n)
        rows[max_n] = {1: 1, 2: 3, 3: 1, 4: 2}  # dip then rise
        return rows

    monkeypatch.setattr(verify, "conjecture_rows", fake_rows)
    reports = verify.check_conjectures(max_n=6)
    assert all(r.verdict == "fail" for r in reports)
    assert all("not unimodal" in r.witness for r in reports)


def test_equidistribution_check_has_teeth(monkeypatch):
    # feeding a wrong distribution for one family member must fail the check
    real = verify.dist_from_enumeration

    def tampered(n, perm_class="all", stats=None, **kw):
        table = real(n, perm_class, stats, **kw)
        if stats == ("rmin",) and n == 3:
            rows = {k: dict(v) for k, v in table.rows.items()}
            rows[3] = {(1,): 6}
            return type(table)(table.perm_class, table.stats, rows)
        return table

    monkeypatch.setattr(verify, "dist_from_enumeration", tampered)
    report = verify.verify_equidistribution(max_n=4)
    assert report.verdict == "fail"
    assert report.first_fail == 3


def test_symmetry_check_fails_when_an_image_is_rejected(monkeypatch):
    real = verify.is_separable
    monkeypatch.setattr(verify, "is_separable", lambda pi: str(pi) != "231" and real(pi))
    report = verify.verify_symmetries(max_n=4)
    assert report.verdict == "fail"
    assert report.first_fail == 3
    assert report.witness == "reverse(132) left the class"


def test_symmetry_check_computes_each_word_once(monkeypatch):
    # every image of a separable word is a separable word of the same
    # length, so each of the 1+2+6+22+90+394 words is scanned and profiled
    # exactly once
    calls = {"is_separable": 0, "_stats_of_sequence": 0}
    for name in calls:
        real = getattr(verify, name)

        def counted(arg, real=real, name=name):
            calls[name] += 1
            return real(arg)

        monkeypatch.setattr(verify, name, counted)
    assert verify.verify_symmetries(max_n=6).verdict == "pass"
    assert calls == {"is_separable": 515, "_stats_of_sequence": 515}


def test_symmetry_check_fails_on_a_bumped_profile(monkeypatch):
    real = verify._stats_of_sequence

    def bumped(vals):
        prof = real(vals)
        if tuple(vals) == (1, 3, 2):
            return prof._replace(rmax=prof.rmax + 1)
        return prof

    monkeypatch.setattr(verify, "_stats_of_sequence", bumped)
    report = verify.verify_symmetries(max_n=4)
    assert report.verdict == "fail"
    assert report.first_fail == 3
    assert report.witness == (
        "reverse(132) statistics (1, 1, 2, 2, 2, 1) != (1, 1, 3, 2, 2, 1)"
    )


def test_symmetry_check_fails_when_inverse_is_the_identity(monkeypatch):
    def inverse(pi):
        return pi

    table = [
        (inverse if op is verify.inverse else op, stat_map, flips)
        for op, stat_map, flips in verify._SYMMETRIES
    ]
    monkeypatch.setattr(verify, "_SYMMETRIES", tuple(table))
    report = verify.verify_symmetries(max_n=4)
    assert report.verdict == "fail"
    assert report.first_fail == 3
    # (lmax, rmax, lmin, rmin) of the image against (rmin, rmax, lmin, lmax)
    assert report.witness == "inverse(231) statistics (2, 2, 2, 1) != (1, 2, 2, 2)"


def test_transfer_check_fails_on_a_bumped_irreducible_coefficient(
    monkeypatch, fresh_memos
):
    real = verify.solve_fixpoint
    k = 4

    def tampered(order, active=VARIABLES):
        # S and I bumped alike: only the irreducible part moves
        bump = TruncSeries.term(order, k, MultiPoly.variable("x"))
        s, i = real(order, active)
        return s + bump, i + bump

    monkeypatch.setattr(verify, "solve_fixpoint", tampered)
    report = verify.verify_transfer(order=6)
    assert report.verdict == "fail"
    assert report.first_fail == k
    assert f"I - zt vs image R: t^{k}" in report.witness


def test_transfer_check_fails_on_a_bump_no_three_lane_projection_sees(
    monkeypatch, fresh_memos
):
    # (x-1)(y-1)(u-1)(v-1) vanishes once any extreme lane is set to 1, so
    # only the four-lane identity can see this bump
    real = verify.solve_fixpoint
    k = 4
    bump = MultiPoly.one()
    for lane in "xyuv":
        z = MultiPoly.variable(lane)
        bump = bump * (z - 1) * z

    def tampered(order, active=VARIABLES):
        # S and I bumped alike: only the irreducible part moves
        term = TruncSeries.term(order, k, bump)
        s, i = real(order, active)
        return s + term, i + term

    monkeypatch.setattr(verify, "solve_fixpoint", tampered)
    report = verify.verify_transfer(order=6)
    assert report.verdict == "fail"
    assert report.first_fail == k
    assert report.witness.startswith(f"reverse: I - zt vs image R: t^{k}")


@pytest.mark.parametrize(
    "which, active",
    [
        ("S", ("p", "q")),
        ("I", ("y",)),
        ("S", ("x", "y")),
        ("I", ("y", "u")),
        ("S", ("x", "y", "u")),
    ],
)
def test_specialization_consistency_fails_on_an_off_subset_solve(
    monkeypatch, which, active
):
    real = verify.solve_fixpoint
    k = 5

    def tampered(order, active_set=VARIABLES):
        s, i = real(order, active_set)
        if tuple(active_set) == active:
            if which == "S":
                s = s + TruncSeries.term(order, k, 1)
            else:
                i = i + TruncSeries.term(order, k, 1)
        return s, i

    monkeypatch.setattr(verify, "solve_fixpoint", tampered)
    report = verify.verify_specialization_consistency(order=6)
    assert report.verdict == "fail"
    assert report.first_fail == k
    assert report.witness.startswith(f"{which} with active {active}: t^{k} coefficient")


def test_specialization_consistency_projects_the_master_once_per_lane_set(
    monkeypatch,
):
    # (p, q) and (x, y, u) from the master; (y), (x, y) and (y, u) from
    # the (x, y, u) projection
    order = 6
    master = verify.solve_fixpoint(order, VARIABLES)
    projections = []
    real = TruncSeries.keep_only

    def counted(self, names):
        if any(self == big for big in master):
            projections.append(tuple(names))
        return real(self, names)

    monkeypatch.setattr(TruncSeries, "keep_only", counted)
    assert verify.verify_specialization_consistency(order=order).verdict == "pass"
    assert sorted(projections) == [("p", "q")] * 2 + [("x", "y", "u")] * 2


@pytest.mark.parametrize(
    "active, bump, label",
    [
        (("p", "q"), "p", "reducible split in (p,q)"),
        (("y", "u"), "y", "S system in (y,u)"),
        (("x", "y", "u"), "x", "S system in (x,y,u)"),
    ],
)
def test_specialized_systems_fail_on_a_bumped_fixpoint(monkeypatch, active, bump, label):
    real = verify.solve_fixpoint
    k = 5

    def tampered(order, active_set=VARIABLES):
        s, i = real(order, active_set)
        if tuple(active_set) == active:
            s = s + TruncSeries.term(order, k, MultiPoly.variable(bump))
        return s, i

    monkeypatch.setattr(verify, "solve_fixpoint", tampered)
    report = verify.verify_specialized_systems(order=8)
    assert report.verdict == "fail"
    assert report.first_fail == k
    assert report.witness == f"{label}: residual t^{k} coefficient {bump}"


def test_specialized_systems_detail_counts_the_residuals_it_checks(monkeypatch):
    real = verify._expect_zero
    checked = []

    def counting(series, label):
        real(series, label)
        checked.append(label)

    monkeypatch.setattr(verify, "_expect_zero", counting)
    report = verify.verify_specialized_systems(order=8)
    assert report.verdict == "pass"
    assert len(checked) == len(set(checked)) == 17
    assert report.detail == f"all {len(checked)} specialized residuals zero to order 8"


def test_transfer_reuses_the_master_projection_of_the_closed_form_checks(
    fresh_memos,
):
    assert verify.verify_single_stat_closed_forms(order=6, census_order=5).verdict == "pass"
    before = verify._extremes.cache_info()
    assert verify.verify_transfer(order=6).verdict == "pass"
    after = verify._extremes.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


def test_factorization_check_fails_on_a_bumped_fixpoint(monkeypatch):
    real = verify.solve_fixpoint
    k = 4

    def tampered(order, active=VARIABLES):
        s, i = real(order, active)
        return s + TruncSeries.term(order, k, MultiPoly.variable("x")), i

    monkeypatch.setattr(verify, "solve_fixpoint", tampered)
    report = verify.verify_factorization(order=6)
    assert report.verdict == "fail"
    assert report.first_fail == k
    assert report.witness == f"first factorization: residual t^{k} coefficient x"


@pytest.mark.parametrize(
    "target, label, coefficient",
    [
        ("S", "cubic in S(t,p,q)", "-q"),
        ("I", "I(t,p,q) closed form", "q"),
        ("radical", "p=q=1 cubic on the radical series", "-1"),
    ],
)
def test_asc_des_check_fails_on_a_bumped_input(monkeypatch, target, label, coefficient):
    k = 5
    if target == "radical":
        real_gf = closedforms.schroeder_gf
        monkeypatch.setattr(
            closedforms,
            "schroeder_gf",
            lambda order: real_gf(order) + TruncSeries.term(order, k, 1),
        )
    else:
        real = closedforms.solve_fixpoint

        def tampered(order, active=VARIABLES):
            s, i = real(order, active)
            bump = TruncSeries.term(order, k, MultiPoly.variable("q"))
            return (s + bump, i) if target == "S" else (s, i + bump)

        monkeypatch.setattr(closedforms, "solve_fixpoint", tampered)
    report = verify.verify_asc_des(order=8)
    assert report.verdict == "fail"
    assert report.first_fail == k
    assert report.witness == f"{label}: residual t^{k} coefficient {coefficient}"


def test_run_all_rejects_a_too_deep_conjecture_range_before_any_check(monkeypatch):
    def must_not_run():
        raise AssertionError("a check ran before the depth was rejected")

    monkeypatch.setitem(verify.ALL_CHECKS, "counting-identities", must_not_run)
    with pytest.raises(ValueError, match="max_n is capped at 255, got 256"):
        verify.run_all(conjecture_n=256)


# -- full suite smoke (kept after the targeted tests for cache warmth) -------


#: Every default report's id and detail: all 24 pass with exactly these.
_DEFAULT_DETAILS = [
    ("counting-identities", "streams to n=7, formulas to n=12, s_12=5293446"),
    ("counting-gf-radicals", "radical gfs match counts to order 12"),
    ("asc-des-relations", "all residuals zero to order 20"),
    ("master-vs-enumeration", "S and I agree with the census to order 9"),
    (
        "fixpoint-specialization-consistency",
        "subset solves equal master specializations to order 12",
    ),
    ("specialized-systems", "all 17 specialized residuals zero to order 20"),
    (
        "single-stat-closed-forms",
        "12 series match fixpoint to order 12 and census to order 9",
    ),
    (
        "pair-set2-closed-forms",
        "12 series match fixpoint to order 12 and census to order 9",
    ),
    (
        "pair-set1-closed-forms",
        "6 series match fixpoint to order 12 and census to order 9; "
        "exchange identity holds",
    ),
    (
        "triple-closed-forms",
        "12 series match fixpoint to order 12 and census to order 9",
    ),
    ("quad-closed-form", "3 series match fixpoint to order 12 and census to order 9"),
    ("e-function-identities", "all four E readings match the fixpoint to order 12"),
    (
        "equidistribution-classes",
        "singles, both pair families, triples identical for n <= 8",
    ),
    (
        "equidistribution-negative-control",
        "distinguished at n=2: {(1, 2): 1, (2, 1): 1} vs {(1, 1): 1, (2, 2): 1}",
    ),
    (
        "symmetry-reducibility-flips",
        "reverse/complement/inverse transport verified for n <= 8",
    ),
    ("reducible-factorization", "both factorizations hold to order 12"),
    (
        "transfer-identity",
        "I - zt and R + zt are the images of R and I under reverse and "
        "complement on the four extreme lanes to order 12",
    ),
    ("series-snippets", "all 8 frozen expansions match exactly"),
    ("tables-golden", "tables 3, 4, 5 byte-match their golden files"),
    (
        "rising-factorial-rmax",
        "rmax on all of S_n matches the rising factorial for n <= 8",
    ),
    ("eulerian-descents", "descent counts match Eulerian polynomials for n <= 8"),
    *(
        (
            f"conjecture-{name}",
            f"evidence only, n <= 12: unimodal with peak k={peak} "
            f"for n >= {from_n} (strict)",
        )
        for name, peak, from_n in (
            ("all-single-peak2", 2, 3),
            ("irr-rmax-peak3", 3, 5),
            ("irr-lmax-peak1", 1, 1),
        )
    ),
]


def test_full_suite_green():
    reports = verify.run_all()
    failing = [r.line() for r in reports if r.verdict != "pass"]
    assert not failing, "\n".join(failing)
    assert len(reports) == 24
    assert [(r.check_id, r.verdict, r.detail) for r in reports] == [
        (check_id, "pass", detail) for check_id, detail in _DEFAULT_DETAILS
    ]


def test_the_suite_keeps_its_order_and_each_check_reports_under_its_key():
    assert list(verify.ALL_CHECKS) == [
        "counting-identities",
        "counting-gf-radicals",
        "asc-des-relations",
        "master-vs-enumeration",
        "fixpoint-specialization-consistency",
        "specialized-systems",
        "single-stat-closed-forms",
        "pair-set2-closed-forms",
        "pair-set1-closed-forms",
        "triple-closed-forms",
        "quad-closed-form",
        "e-function-identities",
        "equidistribution-classes",
        "equidistribution-negative-control",
        "symmetry-reducibility-flips",
        "reducible-factorization",
        "transfer-identity",
        "series-snippets",
        "tables-golden",
        "rising-factorial-rmax",
        "eulerian-descents",
        "conjectures",
    ]
    for check_id, check in verify.ALL_CHECKS.items():
        if check is not verify.check_conjectures:
            report = check()
            assert isinstance(report, verify.CheckReport)
            assert report.check_id == check_id


def test_master_vs_enumeration_fails_on_a_mutated_composition_rule(
    monkeypatch, fresh_memos
):
    # drop the +1 at the direct-sum junction, and blind the census's own
    # sampled kernel check: the fixpoint comparison alone must catch it
    head_mask, tail_mask, _ = enumeration._SUM_RULE
    monkeypatch.setattr(enumeration, "_SUM_RULE", (head_mask, tail_mask, 0))
    monkeypatch.setattr(distributions, "_check_key", lambda word, key: None)
    report = verify.verify_master_vs_enumeration(order=3)
    assert report.verdict == "fail"
    assert report.first_fail == 2
    assert report.witness == (
        "S fixpoint vs census: t^2 coefficient p*x^2*y*u*v^2 + q*x*y^2*u^2*v "
        "!= q*x*y^2*u^2*v + x^2*y*u*v^2"
    )


def test_negative_control_fails_when_the_rows_agree(monkeypatch):
    real = verify.dist_from_enumeration

    def tampered(n, perm_class="all", stats=()):
        if tuple(stats) == ("rmax", "lmin"):
            stats = ("lmax", "rmax")
        return real(n, perm_class, stats)

    monkeypatch.setattr(verify, "dist_from_enumeration", tampered)
    report = verify.verify_negative_control()
    assert report.verdict == "fail"
    assert report.first_fail == 4
    assert report.witness == (
        "(lmax,rmax) and (rmax,lmin) agree for all n <= 4, expected a difference"
    )


@pytest.mark.parametrize(
    "check, reference, at, label, want",
    [
        (
            verify.verify_rising_factorial,
            "rising_factorial_coeffs",
            2,
            "rising factorial",
            {1: 2, 2: 3, 3: 1},
        ),
        (verify.verify_eulerian, "eulerian_poly", 1, "Eulerian", {0: 1, 1: 4, 2: 1}),
    ],
)
def test_classical_cross_oracles_fail_on_a_bumped_reference(
    monkeypatch, check, reference, at, label, want
):
    real = getattr(numbers, reference)

    def tampered(n):
        coeffs = real(n)
        return {**coeffs, at: coeffs[at] + 1} if n == 3 else coeffs

    monkeypatch.setattr(numbers, reference, tampered)
    report = check(max_n=4)
    assert report.verdict == "fail"
    assert report.first_fail == 3
    bumped = {**want, at: want[at] + 1}
    assert report.witness == f"n=3: exhaustive {want} != {label} {bumped}"


def test_classical_oracles_walk_s_n_once(monkeypatch, fresh_memos):
    calls = 0
    real = verify._stats_of_sequence

    def counted(vals):
        nonlocal calls
        calls += 1
        return real(vals)

    monkeypatch.setattr(verify, "_stats_of_sequence", counted)
    assert verify.verify_rising_factorial(max_n=8).verdict == "pass"
    assert verify.verify_eulerian(max_n=8).verdict == "pass"
    assert calls == sum(numbers.factorial(n) for n in range(1, 9)) == 46_233


def test_classical_oracles_fail_on_a_bumped_kernel(monkeypatch, fresh_memos):
    real = verify._stats_of_sequence

    def bumped(vals):
        prof = real(vals)
        if tuple(vals) == (1, 3, 2):
            return prof._replace(des=prof.des + 1, rmax=prof.rmax + 1)
        return prof

    monkeypatch.setattr(verify, "_stats_of_sequence", bumped)
    rising = verify.verify_rising_factorial(max_n=4)
    eulerian = verify.verify_eulerian(max_n=4)
    assert (rising.verdict, rising.first_fail) == ("fail", 3)
    assert rising.witness == (
        "n=3: exhaustive {1: 2, 2: 2, 3: 2} != rising factorial {1: 2, 2: 3, 3: 1}"
    )
    assert (eulerian.verdict, eulerian.first_fail) == ("fail", 3)
    assert eulerian.witness == (
        "n=3: exhaustive {0: 1, 1: 3, 2: 2} != Eulerian {0: 1, 1: 4, 2: 1}"
    )
