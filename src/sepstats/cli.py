"""Command-line interface.

Subcommands
-----------

``enumerate``
    Stream separable permutations of a given length, by structural
    composition (default, n <= 14) or by brute-force pattern filtering
    (cross-check method, n <= 9).

``dist``
    Joint distribution of chosen statistics over a permutation class,
    as CSV, JSON, or an aligned text table.

``tables``
    The three printed distribution triangles (all/rmax, irreducible/rmax,
    irreducible/lmax), byte-identical to the packaged golden files.

``series``
    Initial coefficients of a named generating function, computed exactly
    and optionally cached as canonical JSON documents.

``verify``
    The verification suite: one line and one pass/fail verdict per check,
    nonzero exit status if anything fails.

``conjectures``
    Unimodality evidence rows for the three open conjectures.

Examples
--------

::

    sepstats enumerate 4
    sepstats dist 5 --stats lmax,rmax --format csv
    sepstats tables 3
    sepstats series rmax --class irreducible --order 10
    sepstats verify
    sepstats conjectures --max-n 12
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from . import closedforms
from . import verify as verify_mod
from .distributions import STAT_NAMES, dist_from_enumeration, render_table
from .enumeration import (
    CLASS_ALIASES,
    canonical_class,
    class_part,
    enumerate_filter,
    iter_separable_bytes,
)
from .permutations import Permutation, is_irreducible
from .series import (
    ENGINE_VERSION,
    TruncSeries,
    VARIABLES,
    canonical_json,
    document_to_series,
    series_to_document,
    solve_fixpoint,
)

_CLASS_CHOICES = tuple(CLASS_ALIASES)


# ---------------------------------------------------------------------------
# Named series registry
# ---------------------------------------------------------------------------


def _build_counting(order: int, perm_class: str) -> TruncSeries:
    return class_part(
        perm_class,
        closedforms.schroeder_gf(order),
        closedforms.little_schroeder_gf(order),
    )


def _build_asc_des(order: int, perm_class: str) -> TruncSeries:
    return class_part(perm_class, *solve_fixpoint(order, ("p", "q")))


def _build_joint(order: int, perm_class: str) -> TruncSeries:
    return class_part(perm_class, *solve_fixpoint(order, VARIABLES))


def _stat_builder(stats: tuple[str, ...]) -> Callable[[int, str], TruncSeries]:
    def build(order: int, perm_class: str) -> TruncSeries:
        return closedforms.closed_form(order, stats, perm_class)

    return build


#: name -> builder(order, perm_class); statistic-tuple names use closed forms.
SERIES_REGISTRY: dict[str, Callable[[int, str], TruncSeries]] = {
    "counting": _build_counting,
    "asc-des": _build_asc_des,
    "joint": _build_joint,
}
for _stats in (
    list(closedforms.SINGLES)
    + list(closedforms.SET2_PAIRS)
    + list(closedforms.SET1_PAIRS)
    + list(closedforms.TRIPLES)
    + [("lmax", "rmax", "lmin", "rmin")]
):
    SERIES_REGISTRY["-".join(_stats)] = _stat_builder(_stats)
del _stats

_DEFAULT_ORDER = {"joint": 12}


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    if args.method == "filter":
        perms = enumerate_filter(n)
        cls = canonical_class(args.perm_class)
        if cls != "all":
            want_irr = cls == "irreducible"
            perms = (p for p in perms if is_irreducible(p) == want_irr)
    else:
        perms = (
            Permutation(tuple(word))
            for word in iter_separable_bytes(n, args.perm_class)
        )

    if args.count:
        print(sum(1 for _ in perms))
        return 0
    if args.format == "json":
        print(json.dumps([list(p.values) for p in perms]))
        return 0
    for p in perms:
        print(p)
    return 0


def _parse_stats(text: str) -> tuple[str, ...]:
    stats = tuple(s.strip() for s in text.split(",") if s.strip())
    unknown = [s for s in stats if s not in STAT_NAMES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown statistics {unknown}; choose from {', '.join(STAT_NAMES)}"
        )
    if len(set(stats)) != len(stats):
        raise argparse.ArgumentTypeError(f"duplicate statistics in {text!r}")
    if not stats:
        raise argparse.ArgumentTypeError("at least one statistic is required")
    return stats


def _cmd_dist(args: argparse.Namespace) -> int:
    table = dist_from_enumeration(args.n, args.perm_class, args.stats)
    if args.format == "json":
        print(table.to_json())
    elif args.format == "csv":
        for line in table.csv_lines():
            print(line)
    else:  # aligned text table
        header = ["n", *table.stats, "count"]
        rows = [
            [str(args.n), *map(str, key), str(c)]
            for key, c in sorted(table.row(args.n).items())
        ]
        widths = [
            max(len(header[k]), *(len(r[k]) for r in rows)) for k in range(len(header))
        ]
        print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    sys.stdout.write(render_table(args.which))
    return 0


def _default_cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "sepstats"


def _cmd_series(args: argparse.Namespace) -> int:
    name = args.name
    builder = SERIES_REGISTRY[name]
    order = args.order if args.order is not None else _DEFAULT_ORDER.get(name, 16)
    cls = canonical_class(args.perm_class)
    doc_name = f"{name}[{cls}]"

    series: TruncSeries | None = None
    cache_file: Path | None = None
    if not args.no_cache:
        cache_dir = args.cache_dir or _default_cache_dir()
        cache_file = (
            cache_dir / f"{name}-{cls}-order{order}-v{ENGINE_VERSION}.json"
        )
        if cache_file.is_file():
            # A file that does not decode to a series document is a miss.
            try:
                doc = json.loads(cache_file.read_text(encoding="utf-8"))
                key = (doc["engine"], doc["name"], doc["order"])
                if key == (ENGINE_VERSION, doc_name, order):
                    series = document_to_series(doc)
            except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
                print(
                    f"note: recomputing unreadable cache file {cache_file} "
                    f"({type(exc).__name__}: {exc})",
                    file=sys.stderr,
                )

    if series is None:
        series = builder(order, cls)
        if cache_file is not None:
            cache_file.parent.mkdir(parents=True, exist_ok=True)
            doc = series_to_document(doc_name, series)
            # Write beside the target under a name that is not *.json, then
            # rename: readers never see a torn file.
            tmp = cache_file.with_name(f"{cache_file.name}.{os.getpid()}.tmp")
            tmp.write_text(canonical_json(doc), encoding="utf-8")
            os.replace(tmp, cache_file)

    if args.format == "json":
        print(canonical_json(series_to_document(doc_name, series)))
    else:
        for n in range(1, series.order + 1):
            print(f"t^{n}: {series.coefficient(n)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.list:
        for check in verify_mod.ALL_CHECKS:
            print(check)
        return 0
    selection = args.checks or None
    reports = verify_mod.run_all(selection, conjecture_n=args.max_n)
    if args.json:
        print(json.dumps([r.to_jsonable() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.line())
        failed = sum(r.verdict != "pass" for r in reports)
        print(
            f"{len(reports)} checks: {len(reports) - failed} passed, "
            f"{failed} failed"
        )
    return 1 if any(r.verdict != "pass" for r in reports) else 0


def _cmd_conjectures(args: argparse.Namespace) -> int:
    reports = verify_mod.check_conjectures(args.max_n)
    for check_id, spec in verify_mod._CONJECTURES.items():
        rows = verify_mod.conjecture_rows(
            spec["perm_class"], spec["stat"], args.max_n
        )
        print(f"{check_id}  ({spec['perm_class']} permutations, {spec['stat']})")
        for n in sorted(rows):
            counts = " ".join(
                str(rows[n].get(k, 0)) for k in range(1, max(rows[n], default=0) + 1)
            )
            print(f"  n={n:2d}: {counts}")
    for report in reports:
        print(report.line())
    return 1 if any(r.verdict != "pass" for r in reports) else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepstats",
        description="Exact enumeration and statistics of separable permutations.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser(
        "enumerate", help="stream separable permutations of length n"
    )
    p_enum.add_argument("n", type=int)
    p_enum.add_argument(
        "--method",
        choices=("structural", "filter"),
        default="structural",
        help="structural composition (default) or brute-force pattern filter",
    )
    p_enum.add_argument(
        "--class",
        dest="perm_class",
        choices=_CLASS_CHOICES,
        default="all",
        help="restrict to irreducible or reducible permutations",
    )
    p_enum.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    p_enum.add_argument(
        "--count", action="store_true", help="print only the number of results"
    )
    p_enum.set_defaults(func=_cmd_enumerate)

    p_dist = sub.add_parser(
        "dist", help="joint statistic distribution at length n"
    )
    p_dist.add_argument("n", type=int)
    p_dist.add_argument(
        "--class", dest="perm_class", choices=_CLASS_CHOICES, default="all"
    )
    p_dist.add_argument(
        "--stats",
        type=_parse_stats,
        default=STAT_NAMES,
        metavar="S1,S2,...",
        help=f"comma-separated from {{{','.join(STAT_NAMES)}}} "
        "(default: all six)",
    )
    p_dist.add_argument(
        "--format", choices=("table", "csv", "json"), default="table"
    )
    p_dist.set_defaults(func=_cmd_dist)

    p_tab = sub.add_parser(
        "tables", help="print distribution triangle 3, 4, or 5"
    )
    p_tab.add_argument("which", type=int, choices=(3, 4, 5))
    p_tab.set_defaults(func=_cmd_tables)

    p_ser = sub.add_parser(
        "series", help="coefficients of a named generating function"
    )
    p_ser.add_argument(
        "name",
        choices=sorted(SERIES_REGISTRY),
        metavar="name",
        help=f"one of: {', '.join(SERIES_REGISTRY)}",
    )
    p_ser.add_argument(
        "--order", type=int, default=None, help="truncation order (default 16)"
    )
    p_ser.add_argument(
        "--class", dest="perm_class", choices=_CLASS_CHOICES, default="all"
    )
    p_ser.add_argument("--format", choices=("text", "json"), default="text")
    p_ser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="where to store computed series documents "
        "(default: $XDG_CACHE_HOME/sepstats or ~/.cache/sepstats)",
    )
    p_ser.add_argument(
        "--no-cache", action="store_true", help="do not read or write the cache"
    )
    p_ser.set_defaults(func=_cmd_series)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument(
        "checks",
        nargs="*",
        metavar="check",
        help="check ids to run (default: all; see --list)",
    )
    p_ver.add_argument(
        "--list", action="store_true", help="list available check ids and exit"
    )
    p_ver.add_argument("--json", action="store_true", help="emit JSON reports")
    p_ver.add_argument(
        "--max-n",
        type=int,
        default=12,
        help="evidence depth for the conjecture checks (default 12)",
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_con = sub.add_parser(
        "conjectures", help="evidence rows for the unimodality conjectures"
    )
    p_con.add_argument(
        "--max-n",
        type=int,
        default=12,
        help="largest length to tabulate (default 12)",
    )
    p_con.set_defaults(func=_cmd_conjectures)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`sepstats enumerate 12 | head`).
        # Point stdout at devnull so that the interpreter's last flush does
        # not fail again, and end quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ValueError as exc:
        # Invalid input rejected by the library; anything else is a bug and
        # keeps its traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
