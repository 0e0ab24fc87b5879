"""The benchmark tracer's hooks: every name it wraps still exists, its
wrappers see the census's and the filter's calls, and uninstalling
restores everything."""

import importlib.util
from pathlib import Path

from sepstats import (
    cli,
    closedforms,
    distributions,
    enumeration,
    permutations,
    series,
    verify,
)

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
MODULES = (cli, closedforms, distributions, enumeration, permutations, series, verify)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot() -> dict:
    owners = (*MODULES, series.MultiPoly, series.TruncSeries)
    out = {owner: dict(vars(owner)) for owner in owners}
    out["ALL_CHECKS"] = dict(verify.ALL_CHECKS)
    return out


def _assert_same_objects(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    for owner, names in before.items():
        assert names.keys() == after[owner].keys(), owner
        changed = [k for k, v in names.items() if after[owner][k] is not v]
        assert not changed, (owner, changed)


def test_tracer_hooks_install_and_uninstall_cleanly():
    tracing = _load_tracer()
    before = _snapshot()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        hooks = [
            (series.TruncSeries, "invert"),
            (series.TruncSeries, "sqrt"),
            (series.TruncSeries, "divide"),
            (distributions, "series_from_enumeration"),
            (distributions, "dist_from_enumeration"),
            (distributions, "iter_separable_bytes"),
            (distributions, "_stats_of_sequence"),
            (verify, "series_from_enumeration"),
            (verify, "dist_from_enumeration"),
            (cli, "dist_from_enumeration"),
            (enumeration, "is_separable"),
            (verify, "is_separable"),
        ]
        for owner, attr in hooks:
            assert getattr(owner, attr) is not before[owner][attr], (owner, attr)
        assert "sepstats.series._solve_fixpoint_cached" in tracing.lru_caches(series)

        # the census reaches the stream and the statistics kernel through
        # the names the tracer wraps
        distributions._census.cache_clear()
        distributions.series_from_enumeration(4)
        totals = tracer.totals()
        assert totals["distributions.census"][0] == 1
        assert totals["distributions.iter_separable_bytes"][0] == 4
        # the kernel checks the first and the last word of each walk (one
        # word at n = 1), as no walk reaches the sampling stride
        assert totals["permutations._stats_of_sequence"][0] == 1 + 2 + 2 + 2

        # the brute-force filter tests every candidate through the wrapped
        # name; the census workload's filter_candidates reads these calls
        assert len(list(enumeration.enumerate_filter(5))) == 90
        calls, _, _, separable = tracer.totals()["enumeration.is_separable"]
        assert (calls, separable) == (120, 90)
    finally:
        uninstall()
        distributions._census.cache_clear()
    _assert_same_objects(before, _snapshot())


def test_closed_forms_reach_the_series_spans_the_benchmark_probes():
    # Tier-1 mirror of the benchmark self-test's liveness probe for the
    # closed_forms workload: its toy body must record polynomial products,
    # inverses and square roots through the names the tracer wraps.
    tracing = _load_tracer()
    memos = tracing.lru_caches(closedforms).values()
    for memo in memos:
        memo.cache_clear()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        closedforms.closed_form_S_single(8)
        closedforms.closed_form_quad(5, "all")
        totals = tracer.totals()
    finally:
        uninstall()
        for memo in memos:
            memo.cache_clear()
    for name in ("series.poly_mul", "series.invert", "series.sqrt"):
        assert totals.get(name, [0])[0] > 0, name
