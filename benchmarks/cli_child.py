"""Run one ``sepstats`` command with the layer tracer installed.

Usage: ``python cli_child.py OUT.json ARGV...``.  The command's stdout and
exit code are those of ``sepstats ARGV...``; the trace summary goes to
OUT.json.  Used by the traced runs of the ``cli_cache`` workload, one
fresh interpreter per command.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _cache_files(argv: list[str]) -> dict[str, int]:
    """Size of every file in the command's --cache-dir, by name."""
    if "--cache-dir" not in argv:
        return {}
    cache_dir = Path(argv[argv.index("--cache-dir") + 1])
    if not cache_dir.is_dir():
        return {}
    return {p.name: p.stat().st_size for p in cache_dir.iterdir()}


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    from sepstats import cli

    import_s = time.perf_counter() - t0
    import layers
    import tracer as tracing
    from sepstats import closedforms, series

    caches = tracing.lru_caches(series, closedforms)
    before = _cache_files(argv)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout.flush()
        main_s = time.perf_counter() - start
        uninstall()
    after = _cache_files(argv)
    totals = tracer.totals()
    hit = totals.get("series.deserialize", [0])[0] > 0
    if hit and argv[0] == "series":
        order = argv[argv.index("--order") + 1]
        key = f"{argv[1]}-all-order{order}-v"
        read = sum(size for name, size in before.items() if name.startswith(key))
    else:
        read = 0
    written = sum(size for name, size in after.items() if before.get(name) != size)
    raw = layers.raw_from_trace(totals, tracer.counters)
    raw.update(layers.cache_counts(caches))
    raw["enumeration.memo_words"] = layers.memo_words()
    out.write_text(json.dumps({
        "rc": rc,
        "import_s": import_s,
        "main_s": main_s,
        "raw": raw,
        "cache_hits": int(hit),
        "cache_misses": int(argv[0] == "series" and written > 0),
        "cache_bytes_written": written,
        "cache_bytes_read": read,
        "trace": tracer.document(),
    }))
    return rc


if __name__ == "__main__":
    sys.exit(main())
