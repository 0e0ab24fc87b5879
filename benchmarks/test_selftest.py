"""Self-test of the benchmark at toy sizes.

Run with ``python3 -m pytest benchmarks/test_selftest.py`` from the
repository root.  The tier-1 suite does not collect it (``testpaths`` is
``tests`` and ``src``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_toy(workload: str, trace: int, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        capture_output=True, text=True, cwd=cwd, timeout=170, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if proc.returncode == 0 and lines else None)


def test_benchmark_json_matches_layer_table():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == layers.METRICS
    assert "setup_s" in {m["name"] for m in BENCH["end_to_end"]}


def test_seed_chooses_only_equal_work_inputs():
    from sepstats import closedforms, verify

    assert list(verify.ALL_CHECKS) == list(layers.VERIFY_CHECK_IDS)
    assert list(workloads.DIST_PAIRS) == list(closedforms.SET2_PAIRS + closedforms.SET1_PAIRS)
    for seed in range(20):
        a = workloads.make_inputs("cli_cache", seed)
        assert a == workloads.make_inputs("cli_cache", seed)
        assert a["lane"] in workloads.LANES and tuple(a["pair"]) in workloads.DIST_PAIRS
        sizes = {k: v for k, v in a.items() if k not in ("lane", "pair")}
        assert sizes == workloads.SIZES["full"]["cli_cache"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics(workload):
    proc, result = run_toy(workload, 0)
    assert result is not None, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "error_rate   0.0000" in proc.stdout


# Per workload: metrics its layers must move even at toy sizes.
LIVE = {
    "census": ["permutations.stats_calls", "enumeration.stream_words", "enumeration.filter_candidates",
               "distributions.census_s", "distributions.dist_s"],
    "closed_forms": ["series.poly_mul_calls", "series.invert_calls", "series.sqrt_s",
                     "closedforms.S_single_s", "closedforms.quad_s"],
    "verify": ["verify.reports", "verify.check.counting-identities_s", "series.fixpoint_calls"],
    "cli_cache": ["cli.series_joint_miss_s", "cli.cache_hits", "cli.cache_misses", "cli.stdout_bytes",
                  "series.serialize_s", "series.deserialize_s", "series.render_s"],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_metrics(workload):
    proc, result = run_toy(workload, 1)
    assert result is not None, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layers.UNITS
    for name in LIVE[workload] + ["cli.import_s"]:
        assert result["metrics"][name]["value"] > 0, name
    assert result["metrics"]["verify.reports_failed"]["value"] == 0
    if workload == "cli_cache":
        assert result["metrics"]["cli.cache_hits"]["value"] == 2
        assert result["metrics"]["cli.cache_misses"]["value"] == 2
    spans = json.loads((ROOT / ".bench_out" / "spans" / f"{workload}.json").read_text())
    assert spans["spans"] or spans["aggregates"] or spans.get("children")


def test_body_time_takes_each_operations_fastest_time_at_reference_speed():
    import run

    slow = 2 * run.REFERENCE_S  # the reference ran at half the quiet speed

    def rep(a, b, ref_a, ref_b):
        return {"error": None, "op_wall_s": {"a": a, "b": b}, "op_cpu_s": {"a": a, "b": b},
                "op_ref_s": {"a": ref_a, "b": ref_b}}

    record = {"reps": {"plain": [rep(1.0, 5.0, slow, 3 * slow), rep(2.0, 3.0, 2 * slow, slow),
                                 {"error": "worker exited 1"}]}}
    assert run.body_time(record, "wall_s") == pytest.approx(2.0)
    assert run.body_time(record, "cpu_s") == pytest.approx(2.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = run_toy("census", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_cold_start_guard_rejects_warm_caches():
    code = (
        "import sys; sys.path.insert(0, 'benchmarks');"
        "import worker, tracer;"
        "from sepstats import series, closedforms;"
        "caches = tracer.lru_caches(series, closedforms);"
        "worker.cold_start_guard(caches);"
        "closedforms.schroeder_gf(4);"
        "worker.cold_start_guard(caches)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT,
                          env={"PYTHONPATH": str(ROOT / "src")}, timeout=60, check=False)
    assert proc.returncode != 0 and "lru caches are warm" in proc.stderr


def test_self_time_excludes_nested_records():
    import time

    t = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    counted_leaf = t.counted("leaf", leaf)

    def outer():
        time.sleep(0.01)
        counted_leaf()
        counted_leaf()

    t.span("outer", outer)()
    totals = t.totals()
    assert totals["leaf"][0] == 2
    assert totals["outer"][0] == 1
    assert 0.04 <= totals["leaf"][1] < 0.1
    assert 0.01 <= totals["outer"][1] < 0.03
    assert totals["outer"][2] >= totals["outer"][1] + totals["leaf"][1] - 1e-6
