"""The verifier itself: green on the real code, red under injected faults."""

import pytest

from sepstats import closedforms, distributions, enumeration, numbers, verify
from sepstats.distributions import STAT_TO_VARIABLE
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


# -- unimodality helper -----------------------------------------------------


def test_unimodality_cases():
    assert verify.unimodality([22, 31, 26, 10, 1]) == (True, 2, True)
    assert verify.unimodality({1: 0, 2: 5, 3: 5, 4: 1}) == (True, 2, False)
    assert verify.unimodality([1, 2, 1, 2])[0] is False
    assert verify.unimodality([]) == (True, None, True)
    assert verify.unimodality({2: 0, 5: 0}) == (True, None, True)
    assert verify.unimodality([7]) == (True, 1, True)
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


def test_corrupted_table_fails(monkeypatch):
    real = verify.render_table

    def tampered(which, max_n=8):
        text = real(which, max_n)
        return text.replace("1806", "1807") if which == 3 else text

    monkeypatch.setattr(verify, "render_table", tampered)
    report = verify.verify_tables_golden()
    assert report.verdict == "fail"
    assert "table 3" in report.witness


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


def test_transfer_check_fails_on_a_bumped_irreducible_coefficient(monkeypatch):
    real = verify._master
    k = 4

    def tampered(order):
        master = dict(real(order))
        master["irreducible"] = master["irreducible"] + TruncSeries.term(
            order, k, MultiPoly.variable("x")
        )
        return master

    monkeypatch.setattr(verify, "_master", tampered)
    report = verify.verify_transfer(order=6)
    assert report.verdict == "fail"
    assert report.first_fail == k
    assert f"I - zt vs image R: t^{k}" in report.witness


def test_specialization_consistency_fails_on_an_off_subset_solve(monkeypatch):
    real = verify.solve_fixpoint
    k = 5

    def tampered(order, active=VARIABLES):
        s, i = real(order, active)
        if tuple(active) == ("x", "y"):
            s = s + TruncSeries.term(order, k, 1)
        return s, i

    monkeypatch.setattr(verify, "solve_fixpoint", tampered)
    report = verify.verify_specialization_consistency(order=6)
    assert report.verdict == "fail"
    assert report.first_fail == k
    assert report.witness.startswith(f"S with active ('x', 'y'): t^{k} coefficient")


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
    with pytest.raises(ValueError, match="exceeds 255"):
        verify.run_all(conjecture_n=256)


# -- full suite smoke (kept after the targeted tests for cache warmth) -------


def test_full_suite_green():
    reports = verify.run_all()
    failing = [r.line() for r in reports if r.verdict != "pass"]
    assert not failing, "\n".join(failing)
    assert len(reports) == 24


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
