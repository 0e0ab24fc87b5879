"""The sepstats benchmark: cold, single-client, closed-loop workloads.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

Each run repeats cold runs ("reps") of one workload for about ``--seconds``
seconds, one at a time.  A rep is a fresh interpreter (``worker.py``) whose
caches are guarded to be empty; it times the workload body, then checks
every operation against an independent route.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` and ``cpu_s``
(the body's times corrected for the host's speed, see ``body_time``),
``peak_rss_mb`` and ``setup_s`` (medians over the reps); the error rate
is ``failed / attempted`` in the result line.  The human-readable lines
also give the raw median and tail over the reps.  ``--trace 1`` alternates
untraced and traced reps and reports the per-layer metrics of
``layers.METRICS`` (medians over the traced reps) plus ``trace_overhead_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of the run
(environment, inputs, every rep) is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
#: Metrics of the body's time, condensed by ``body_time``; the others are
#: medians over the reps.
BODY_TIMES = {"wall_s": "op_wall_s", "cpu_s": "op_cpu_s"}
#: Seconds one ``worker.reference()`` call takes when the host is quiet
#: (fastest calls seen on a 2-vCPU Intel Xeon VM at 2.1 GHz, CPython 3.11):
#: the host speed at which the result line states the body's times.
REFERENCE_S = 0.0075
#: A rep that has not finished by then is killed and counted as failed.
REP_TIMEOUT_S = 120.0
#: Reps below these counts are run even past --seconds.
MIN_REPS = {0: {"plain": 3}, 1: {"plain": 1, "traced": 1}}
#: Set-up-only spawns (the worker exits once ready) before each rep, so that
#: setup_s has samples spread over the whole run.
SETUPS_PER_REP = 1


def environment(seed: int) -> dict:
    """Python version, git revision, CPUs and load: the stamp on every result."""
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain"],
                capture_output=True, text=True, check=True,
            ).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_rep(workload: str, inputs: dict, run_dir: Path, trace_out: Path | None, setup_only: bool = False) -> dict:
    """Start one worker, wait for it, and return its measurements.

    ``setup_s`` runs from the spawn to the worker's ``ready`` line.  A rep
    that crashes or times out comes back with ``"error"`` set.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--inputs", json.dumps(inputs),
        "--run-dir", str(run_dir),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.perf_counter()
    # Own process group, so a timeout also ends the worker's CLI children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, start_new_session=True)
    killer = threading.Timer(REP_TIMEOUT_S, kill_group, (proc.pid,))
    killer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            kill_group(proc.pid)
            proc.wait()
        proc.stdout.close()
    if first != b"ready\n" or rc != 0:
        return {"error": f"worker exited {rc}", "setup_s": ready - spawned}
    if setup_only:
        return {"setup_s": ready - spawned, "error": None}
    try:
        rep = json.loads(rest.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": "worker printed no result", "setup_s": ready - spawned}
    rep["setup_s"] = ready - spawned
    rep["error"] = None
    return rep


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """All reps of one workload; returns the full record of the run."""
    inputs = workloads.make_inputs(workload, seed, scale)
    # Scratch space of this run's workers; the first rep stores the
    # independent-route references there for the later reps.
    run_dir = OUT / "tmp" / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return run_reps(workload, inputs, run_dir, seconds, trace, scale)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_reps(workload: str, inputs: dict, run_dir: Path, seconds: float, trace: int, scale: str) -> dict:
    # The first start compiles bytecode and fills the page cache; untimed.
    warm = run_rep(workload, inputs, run_dir, None, setup_only=True)
    if warm["error"]:
        raise RuntimeError(f"the worker cannot start: {warm['error']}")
    start = time.perf_counter()
    setups = []
    kinds = ("plain", "traced") if trace else ("plain",)
    reps: dict[str, list[dict]] = {kind: [] for kind in kinds}
    durations: dict[str, list[float]] = {kind: [] for kind in kinds}
    turn = 0
    while True:
        kind = kinds[turn % len(kinds)]
        elapsed = time.perf_counter() - start
        below_min = any(len(reps[k]) < n for k, n in MIN_REPS[trace].items())
        estimate = statistics.median(durations[kind]) if durations[kind] else 0.0
        # Start another rep when it would end nearer to --seconds than
        # stopping now does, so that a run lasts --seconds on average.
        if not below_min and elapsed + estimate / 2 > seconds:
            break
        trace_out = OUT / "spans" / f"{workload}.json" if kind == "traced" else None
        t0 = time.perf_counter()
        setups += [run_rep(workload, inputs, run_dir, None, setup_only=True) for _ in range(SETUPS_PER_REP)]
        rep = run_rep(workload, inputs, run_dir, trace_out)
        durations[kind].append(time.perf_counter() - t0)
        reps[kind].append(rep)
        turn += 1
    return {"workload": workload, "inputs": inputs, "scale": scale, "reps": reps, "setups": setups}


def samples(record: dict, name: str) -> list[float]:
    """One end-to-end metric over the successful untraced reps; setup_s
    also over the set-up-only spawns."""
    values = [rep[name] for rep in record["reps"]["plain"] if not rep["error"]]
    if name == "setup_s":
        values += [s["setup_s"] for s in record["setups"] if not s["error"]]
    return values


def floor(reps: list[dict], key: str) -> float:
    """Sum over the operations of each one's lowest ``key`` time among reps."""
    return sum(min(rep[key][op] for rep in reps) for op in reps[0][key])


def body_time(record: dict, name: str) -> float:
    """The body's time over the successful untraced reps, with each
    operation at its fastest in the run, stated at the host speed at which
    a ``worker.reference()`` call takes ``REFERENCE_S``.

    This machine shares its host, and other tenants slow it by up to 1.8x
    for seconds to minutes at a time, often for a whole run.  Taking each
    operation's lowest time drops the slow stretches inside a run; scaling
    by the reference calls, timed right after each operation and taken at
    their lowest the same way, cancels a stretch that spans the run.  A
    change to the program moves the operations' times and not the
    reference's, so it moves this figure in proportion.
    """
    reps = [rep for rep in record["reps"]["plain"] if not rep["error"]]
    speed = len(reps[0]["op_ref_s"]) * REFERENCE_S / floor(reps, "op_ref_s")
    return floor(reps, BODY_TIMES[name]) * speed


def summarize(record: dict, trace: int) -> dict:
    """The contract's result object for one workload run."""
    all_reps = [rep for kind in record["reps"].values() for rep in kind]
    # A rep that crashed or timed out counts as one failed operation.
    attempted = sum(1 if rep["error"] else rep["attempted"] for rep in all_reps)
    failed = sum(1 if rep["error"] else rep["failed"] for rep in all_reps)
    plain = [rep for rep in record["reps"]["plain"] if not rep["error"]]
    metrics: dict[str, dict] = {}
    if trace == 0:
        for name, unit in E2E_UNITS.items():
            values = samples(record, name)
            if values:
                value = body_time(record, name) if name in BODY_TIMES else statistics.median(values)
                metrics[name] = {"value": value, "unit": unit}
    else:
        traced = [rep for rep in record["reps"]["traced"] if not rep["error"] and rep["layers"]]
        for name, unit, _better in layers.METRICS:
            values = [rep["layers"][name] for rep in traced]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        if plain and traced:
            overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
                r["wall_s"] for r in plain
            )
            metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    expected = E2E_UNITS if trace == 0 else layers.UNITS
    correct = (
        failed == 0
        and all(not rep["error"] for rep in all_reps + record["setups"])
        and set(metrics) == set(expected)
    )
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def tail_percentile(n: int) -> int | None:
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) >= 1000:
            return p
    return None


def report_lines(record: dict, result: dict, trace: int) -> list[str]:
    """Human-readable lines: every metric with unit and sample count."""
    wl = record["workload"]
    lines = [f"# workload {wl}  inputs {json.dumps(record['inputs'])}"]
    if trace == 0:
        for name, unit in E2E_UNITS.items():
            values = sorted(samples(record, name))
            if not values:
                lines.append(f"{wl:12s} {name:12s} no successful rep")
                continue
            p = tail_percentile(len(values))
            tail = (
                f"p{p} {values[min(len(values) - 1, (len(values) * p) // 100)]:.4f}"
                if p else "no tail percentile (needs >= 20 samples)"
            )
            lines.append(
                f"{wl:12s} {name:12s} median {statistics.median(values):10.4f} {unit:3s} "
                f"n={len(values)}  {tail}"
                + (f"  result (host-corrected) {body_time(record, name):.4f}" if name in BODY_TIMES else "")
            )
    else:
        n = len([r for r in record["reps"]["traced"] if not r["error"]])
        for name, value in result["metrics"].items():
            lines.append(f"{wl:12s} {name:50s} {value['value']:14.6g} {value['unit']:6s} n={n}")
    rate = result["failed"] / result["attempted"]
    lines.append(
        f"{wl:12s} error_rate   {rate:.4f} ({result['failed']} failed of "
        f"{result['attempted']} operations)"
    )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="problem sizes; 'toy' is for the self-test")
    args = parser.parse_args()
    # Let a terminated run stop its worker (see run_rep's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "sepstats" / "__init__.py").is_file():
        print(f"error: no sepstats sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for wl in names:
        try:
            record = run_workload(wl, args.seed, args.seconds, args.trace, args.scale)
        except RuntimeError as exc:
            print(f"error: {wl}: {exc}", file=sys.stderr)
            return 2
        result = summarize(record, args.trace)
        record["env"] = dict(env, loadavg_end=os.getloadavg(), cold=all(
            rep["error"] is None for kind in record["reps"].values() for rep in kind
        ))
        record["result"] = result
        OUT.mkdir(exist_ok=True)
        out_file = OUT / f"{wl}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps(record, indent=1), encoding="utf-8")
        print("\n".join(report_lines(record, result, args.trace)))
        results[wl] = result
    print(f"# env {json.dumps(record['env'])}")
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
