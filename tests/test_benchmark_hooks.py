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
        # n = 1 reads its one column to check its word; n = 2, 3, 4 read,
        # for each of their 2, 4, 6 groups, the side looped over in Python,
        # then each of the 1, 2, 4 distinct columns they sample, once
        assert totals["distributions.iter_separable_bytes"][0] == 1 + 3 + 6 + 10
        # the kernel checks the first and the last word of each group: the
        # groups have 1 and 1 words at n = 2, 2, 1, 2, 1 at n = 3 and 6, 2,
        # 3, 6, 2, 3 at n = 4; no walk reaches the sampling stride
        assert totals["permutations._stats_of_sequence"][0] == 1 + 2 + 6 + 12

        # the brute-force filter tests every candidate through the wrapped
        # name; the census workload's filter_candidates reads these calls
        assert len(list(enumeration.enumerate_filter(5))) == 90
        calls, _, _, separable = tracer.totals()["enumeration.is_separable"]
        assert (calls, separable) == (120, 90)
    finally:
        uninstall()
        distributions._census.cache_clear()
    _assert_same_objects(before, _snapshot())


def _load_workloads():
    path = TRACER_PATH.with_name("workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_reaches_the_stream_and_kernel_the_benchmark_probes(fresh_memos):
    # Tier-1 mirror of the benchmark self-test's liveness probe for the
    # census workload: its toy body, on cold tables, must read stream words
    # through the wrapped distributions.iter_separable_bytes, check words
    # through the wrapped kernel and test filter candidates.
    tracing, workloads = _load_tracer(), _load_workloads()
    ops = workloads.census_ops(workloads.make_inputs("census", 3, "toy"))
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        for _, op in ops:
            op()
        totals = tracer.totals()
    finally:
        uninstall()
    assert totals["distributions.census"][0] == 2
    assert totals["distributions.dist"][0] == 2
    assert totals["distributions.iter_separable_bytes"][0] > 0
    assert totals["enumeration.stream"][3] > 0  # words yielded
    assert totals["permutations._stats_of_sequence"][0] > 0
    assert totals["enumeration.is_separable"][0] == 120


def test_closed_forms_reach_the_series_spans_the_benchmark_probes():
    # Tier-1 mirror of the benchmark self-test's liveness probe for the
    # closed_forms workload: its toy body must record polynomial products,
    # inverses, square roots and divisions through the names the tracer
    # wraps, whichever lane the seed picks.  S(t,z) is built in x and
    # renamed, so lmin is a lane the build itself never uses.
    tracing = _load_tracer()
    memos = tracing.lru_caches(closedforms).values()
    for stat in ("rmax", "lmin"):
        for memo in memos:
            memo.cache_clear()
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            closedforms.closed_form_S_single(8, stat)
            single = tracer.totals()
            closedforms.closed_form_quad(5, "all")
            totals = tracer.totals()
        finally:
            uninstall()
            for memo in memos:
                memo.cache_clear()
        for name in ("series.sqrt", "series.divide"):
            assert single.get(name, [0])[0] > 0, (stat, name)
        for name in ("series.poly_mul", "series.invert", "series.sqrt", "series.divide"):
            assert totals.get(name, [0])[0] > 0, (stat, name)


def test_series_cache_io_goes_through_the_names_the_benchmark_probes(
    tmp_path, capsys
):
    # Tier-1 mirror of the benchmark self-test's liveness probe for the
    # cli_cache workload: a miss serializes and renders through the wrapped
    # names and decodes nothing; a hit decodes once, through cli's
    # document_to_series (how the benchmark counts hits), and writes no file.
    tracing = _load_tracer()
    argv = ["series", "joint", "--order", "4", "--cache-dir", str(tmp_path)]
    totals = []
    for _ in ("miss", "hit"):
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            assert cli.main(argv) == 0
        finally:
            uninstall()
        totals.append(tracer.totals())
    capsys.readouterr()
    miss, hit = totals
    assert miss["series.serialize"][0] > 0
    assert miss["series.render"][0] > 0
    assert "series.deserialize" not in miss
    assert hit["series.deserialize"][0] == 1
    assert hit["series.render"][0] > 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files
