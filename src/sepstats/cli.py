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
import contextlib
import json
import os
import sys
import zlib
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain
from pathlib import Path

from . import __version__
from . import closedforms
from .distributions import class_count, dist_from_enumeration, render_table
from .enumeration import (
    CLASS_ALIASES,
    canonical_class,
    class_part,
    enumerate_filter,
    iter_separable_bytes,
)
from .numbers import _check_int
from .permutations import Permutation, is_irreducible
from .series import (
    ENGINE_VERSION,
    STAT_NAMES,
    TruncSeries,
    VARIABLES,
    canonical_json,
    check_order,
    document_to_series,
    document_view,
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
    **{"-".join(stats): _stat_builder(stats) for stats in closedforms.FORMS},
}

_DEFAULT_ORDER = {"joint": 12}
#: Order caps below the lane width, each the largest order that finishes
#: cold within 5 s: ``series joint --no-cache`` took 3.3-4.6 s at order 19
#: and about 8 s at 20 on a 2-CPU host, and the six-lane solve grows about
#: 1.7x per order.
_ORDER_CAP = {"joint": 19}


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    if args.method == "filter":
        results = enumerate_filter(n)
        cls = canonical_class(args.perm_class)
        if cls != "all":
            want_irr = cls == "irreducible"
            results = (p for p in results if is_irreducible(p) == want_irr)
    elif args.count:
        # counting the stream's words needs no Permutation
        results = iter_separable_bytes(n, args.perm_class)
    else:
        # every word of the stream is a bijection by construction
        results = map(
            Permutation._trusted, map(tuple, iter_separable_bytes(n, args.perm_class))
        )

    if args.count:
        print(sum(1 for _ in results))
        return 0
    if args.format == "json":
        # streamed, byte for byte as json.dumps of the whole list would be
        write = sys.stdout.write
        write("[")
        sep = ""
        for p in results:
            write(f"{sep}[{', '.join(map(str, p.values))}]")
            sep = ", "
        write("]\n")
        return 0
    sys.stdout.writelines(f"{p}\n" for p in results)
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    stats = tuple(s.strip() for s in args.stats.split(",") if s.strip())
    table = dist_from_enumeration(args.n, args.perm_class, stats)
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
        widths = [max(map(len, column)) for column in zip(header, *rows)]
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


#: The checksum field of a cache file.  "crc32" sorts between the document's
#: "coefficients" and "engine" keys, so the field sits before "engine".
_CRC_FIELD = ',"crc32":"'
#: Characters the cache code encodes at a time, so that neither the
#: checksum nor a write holds an encoded copy of the file.
_CHUNK = 1 << 16


def _chunks(text: str, start: int, stop: int) -> Iterator[str]:
    """``text[start:stop]`` in slices of at most ``_CHUNK`` characters."""
    for k in range(start, stop, _CHUNK):
        yield text[k : min(k + _CHUNK, stop)]


def _checksum(pieces: Iterable[str]) -> str:
    """CRC-32, in 8 hex digits, of the concatenated ``pieces``: zlib.crc32's
    running value chained over them."""
    crc = 0
    for piece in pieces:
        crc = zlib.crc32(piece.encode(), crc)
    return f"{crc:08x}"


def _sealed(text: str) -> Iterator[str]:
    """The cache file of canonical document ``text``, in pieces: the same
    canonical document with a "crc32" field added, the CRC-32 of the file
    with that value zeroed."""
    i = text.rindex(',"engine":')
    zeroed = f'{_CRC_FIELD}00000000"'
    crc = _checksum(chain(_chunks(text, 0, i), [zeroed], _chunks(text, i, len(text))))
    yield from _chunks(text, 0, i)
    yield f'{_CRC_FIELD}{crc}"'
    yield from _chunks(text, i, len(text))


def _unsealed(text: str) -> str:
    """The document text of cache file ``text``, its checksum field cut
    out; a ValueError if the field is missing or does not match.  The
    checksum catches damage, not edits: anyone can recompute it."""
    i = text.rfind(_CRC_FIELD)
    if i < 0:
        raise ValueError("it has no crc32 checksum")
    j = i + len(_CRC_FIELD)
    zeroed = chain(_chunks(text, 0, j), ["00000000"], _chunks(text, j + 8, len(text)))
    if text[j : j + 8] != _checksum(zeroed):
        raise ValueError("its crc32 checksum does not match")
    return text[:i] + text[j + 9 :]


def _write_cache(cache_file: Path, pieces: Iterable[str]) -> None:
    """Write ``pieces`` beside the target under a name that is not *.json,
    then rename: readers never see a torn file.  A directory or file that
    cannot be created or written is a ValueError, with no temporary file
    left."""
    tmp = cache_file.with_name(f"{cache_file.name}.{os.getpid()}.tmp")
    try:
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("w", encoding="utf-8") as f:
            f.writelines(pieces)
        os.replace(tmp, cache_file)
    except OSError as exc:
        with contextlib.suppress(OSError):  # no tmp, or no directory to hold one
            tmp.unlink()
        raise ValueError(f"cannot write cache file {cache_file}: {exc}") from exc


def _counting(series: TruncSeries, perm_class: str) -> TruncSeries:
    """``series``, if it counts the permutations of ``perm_class`` as every
    registry series does: non-negative int coefficients whose values sum
    to 0 at t^0 and to class_count(perm_class, n) at t^n, else a
    ValueError."""
    for n, poly in enumerate(series.coefficients()):
        values = poly._terms.values()
        if min(values, default=0) < 0:
            raise ValueError(f"its t^{n} coefficients are not all non-negative")
        total = sum(values)
        want = class_count(perm_class, n) if n else 0
        if total != want:
            raise ValueError(f"its t^{n} coefficients sum to {total}, not {want}")
    return series


def _read_cache(
    cache_file: Path, doc_name: str, order: int, perm_class: str
) -> tuple[TruncSeries, str]:
    """The series in ``cache_file`` and its canonical document text.  A
    file whose checksum fails, that is not canonical, that holds another
    document than ``doc_name`` at ``order``, or that does not decode to a
    series counting the class's permutations is a ValueError; a file that
    cannot be read is an OSError."""
    plain = _unsealed(cache_file.read_text(encoding="utf-8"))
    doc = document_view(plain)
    got = [doc["engine"], doc["name"], doc["order"]]
    want = [ENGINE_VERSION, doc_name, order]
    if json.dumps(got) != json.dumps(want):  # typed: true is not 1
        raise ValueError(f"it holds {got}, not {want}")
    return _counting(document_to_series(doc), perm_class), plain


def _cmd_series(args: argparse.Namespace) -> int:
    name = args.name
    builder = SERIES_REGISTRY[name]
    order = args.order if args.order is not None else _DEFAULT_ORDER.get(name, 16)
    check_order(order)
    _check_int(order, f"series {name} order", 1, _ORDER_CAP.get(name))
    cls = canonical_class(args.perm_class)
    doc_name = f"{name}[{cls}]"

    series: TruncSeries | None = None
    text: str | None = None  # the series' canonical document, once known
    cache_file: Path | None = None
    if not args.no_cache:
        cache_dir = args.cache_dir or _default_cache_dir()
        cache_file = (
            cache_dir / f"{name}-{cls}-order{order}-v{ENGINE_VERSION}.json"
        )
        if cache_file.is_file():
            try:
                series, text = _read_cache(cache_file, doc_name, order, cls)
            except (OSError, ValueError) as exc:
                print(
                    f"note: recomputing unreadable cache file {cache_file} "
                    f"({type(exc).__name__}: {exc})",
                    file=sys.stderr,
                )

    if series is None:
        series = builder(order, cls)
        if cache_file is not None:
            text = canonical_json(series_to_document(doc_name, series))
            _write_cache(cache_file, _sealed(text))

    if args.format == "json":
        if text is None:
            text = canonical_json(series_to_document(doc_name, series))
        print(text)
    else:
        text = None  # the render needs only the series: free the text first
        for n in range(1, series.order + 1):
            print(f"t^{n}: {series.coefficient(n)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # imported here, so that the other commands do not load the suite
    from . import verify as verify_mod

    if args.list:
        if args.json:
            print(json.dumps(list(verify_mod.ALL_CHECKS), indent=2))
        else:
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
    from . import verify as verify_mod

    evidence = verify_mod._conjecture_evidence(args.max_n)
    for check_id, rows, _ in evidence:
        spec = verify_mod._CONJECTURES[check_id]
        print(f"{check_id}  ({spec['perm_class']} permutations, {spec['stat']})")
        for n in sorted(rows):
            counts = " ".join(
                str(rows[n].get(k, 0)) for k in range(1, max(rows[n], default=0) + 1)
            )
            print(f"  n={n:2d}: {counts}")
    reports = [report for _, _, report in evidence]
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
        default=",".join(STAT_NAMES),
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
        "--order",
        type=int,
        default=None,
        help=(
            f"truncation order (default 16; joint {_DEFAULT_ORDER['joint']}, "
            f"at most {_ORDER_CAP['joint']})"
        ),
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
