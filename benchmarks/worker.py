"""One cold run of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout:
the line ``ready`` once set-up is done (interpreter start, ``import
sepstats.cli``, inputs decoded, temporary cache directory made, cold-start
guard passed), then one JSON line with the run's measurements.  Anything
the library prints goes to stderr.

The timed body is the workload's operations, one after another, each
timed on its own.  After each operation the worker also times one call of
``reference()``, a fixed loop outside the body, as a gauge of the host's
speed at that point of the rep.  The independent-route checks run after
the timer stops; an operation fails if it raises, exits nonzero or
disagrees with its check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cold_start_guard(caches: dict) -> None:
    """Refuse to time anything a previous computation has warmed."""
    from sepstats import enumeration

    if set(enumeration._TABLES) != {1}:
        raise RuntimeError(f"enumeration._TABLES is warm: lengths {sorted(enumeration._TABLES)}")
    warm = {name: fn.cache_info().currsize for name, fn in caches.items() if fn.cache_info().currsize}
    if warm:
        raise RuntimeError(f"lru caches are warm: {warm}")


def reference() -> int:
    """A fixed piece of pure-Python work (tuples, a dict, integer
    arithmetic), the kind the library spends its time on; ``run.py`` scales
    the body's times by how fast this ran."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(40_000):
        key = (i & 255, i % 7)
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def cpu_seconds() -> float:
    """User+sys CPU seconds of this process and its finished children."""
    return sum(
        r.ru_utime + r.ru_stime
        for r in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def cli_layer_values(op_names: list[str], run) -> tuple[dict, dict]:
    """Per-layer quantities summed over the traced CLI children, and the
    cli.* metrics (one command each)."""
    raw: dict[str, float] = {}
    for child in run.children:
        for key, value in child.get("raw", {}).items():
            raw[key] = raw.get(key, 0) + value
    cli = {f"cli.{name}_s": child.get("main_s", 0.0) for name, child in zip(op_names, run.children)}
    imports = sorted(child.get("import_s", 0.0) for child in run.children)
    cli["cli.import_s"] = imports[len(imports) // 2] if imports else 0.0
    for key in ("cache_hits", "cache_misses", "cache_bytes_written", "cache_bytes_read", "stdout_bytes"):
        cli[f"cli.{key}"] = sum(child.get(key, 0) for child in run.children)
    return raw, cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, help="JSON object from workloads.make_inputs")
    parser.add_argument("--run-dir", required=True, type=Path, help="scratch space shared by a run's reps")
    parser.add_argument("--trace-out", type=Path, default=None, help="trace this run; write spans here")
    parser.add_argument("--setup-only", action="store_true", help="exit once set-up is done")
    args = parser.parse_args()

    proto = sys.stdout
    sys.stdout = sys.stderr
    t0 = time.perf_counter()
    import sepstats.cli  # noqa: F401  (the import every workload pays)

    import_s = time.perf_counter() - t0
    import sepstats

    if Path(sepstats.__file__).resolve().parent != ROOT / "src" / "sepstats":
        raise RuntimeError(f"sepstats imported from {sepstats.__file__}, not from {ROOT / 'src'}")

    import tracer as tracing
    import layers
    import workloads
    from sepstats import closedforms, distributions, enumeration, numbers, series

    if list(workloads.DIST_PAIRS) != list(closedforms.SET2_PAIRS + closedforms.SET1_PAIRS):
        raise RuntimeError("workloads.DIST_PAIRS no longer matches the package's closed-form pairs")
    inp = json.loads(args.inputs)
    traced = args.trace_out is not None
    caches = tracing.lru_caches(series, closedforms, distributions, enumeration, numbers)
    with tempfile.TemporaryDirectory(dir=args.run_dir) as tmp_name:
        tmp = Path(tmp_name)
        runner = None
        if args.workload == "cli_cache":
            runner = workloads.CliRunner(tmp, traced)
            ops = workloads.cli_cache_ops(inp, runner)
            if any(runner.cache_dir.iterdir()):
                raise RuntimeError("the CLI cache directory is not empty")
        else:
            ops = getattr(workloads, f"{args.workload}_ops")(inp)
        cold_start_guard(caches)
        proto.write("ready\n")
        proto.flush()
        if args.setup_only:
            return 0

        tracer = tracing.Tracer() if traced else None
        uninstall = tracing.install(tracer) if traced else None
        results, errors = {}, {}
        op_wall, op_cpu, op_ref = {}, {}, {}
        load_start = os.getloadavg()
        for name, thunk in ops:
            t0, c0 = time.perf_counter(), cpu_seconds()
            try:
                results[name] = thunk()
            except Exception:
                errors[name] = traceback.format_exc()
            op_wall[name], op_cpu[name] = time.perf_counter() - t0, cpu_seconds() - c0
            t0 = time.perf_counter()
            reference()
            op_ref[name] = time.perf_counter() - t0
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        load_end = os.getloadavg()
        if uninstall is not None:
            uninstall()
        rss_kb = kids1.ru_maxrss if args.workload == "cli_cache" else self1.ru_maxrss

        layer = None
        if traced:
            raw = layers.raw_from_trace(tracer.totals(), tracer.counters)
            raw.update(layers.cache_counts(caches))
            raw["enumeration.memo_words"] = layers.memo_words()
            raw["cli.import_s"] = import_s
            if runner is not None:
                child_raw, cli_values = cli_layer_values([name for name, _ in ops], runner)
                for key, value in child_raw.items():
                    raw[key] = raw.get(key, 0) + value
                raw.update(cli_values)
            if args.workload == "verify":
                reports = [r for entry in results.values() for r in entry]
                raw["verify.reports"] = len(reports)
                raw["verify.reports_failed"] = sum(r.verdict != "pass" for r in reports)
            layer = layers.finish(raw)
            doc = tracer.document()
            if runner is not None:
                doc["children"] = [child.pop("trace", None) for child in runner.children]
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            args.trace_out.write_text(json.dumps(doc), encoding="utf-8")

        ref = workloads.References(args.run_dir / "references")
        try:
            if runner is not None:
                verdicts = workloads.cli_cache_check(inp, results, ref, runner)
            else:
                verdicts = getattr(workloads, f"{args.workload}_check")(inp, results, ref)
        except Exception:
            traceback.print_exc()
            verdicts = {name: False for name, _ in ops}
    for name, text in errors.items():
        print(f"error in operation {name}:\n{text}", file=sys.stderr)
        verdicts[name] = False
    failed = sorted(name for name, good in verdicts.items() if not good)
    for name in failed:
        print(f"check failed: {args.workload} {name}", file=sys.stderr)
    proto.write(json.dumps({
        "wall_s": sum(op_wall.values()),
        "cpu_s": sum(op_cpu.values()),
        "op_wall_s": op_wall,
        "op_cpu_s": op_cpu,
        "op_ref_s": op_ref,
        "peak_rss_mb": rss_kb / 1024,
        "import_s": import_s,
        "attempted": len(verdicts),
        "failed": len(failed),
        "failed_ops": failed,
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "layers": layer,
    }) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
