"""The four benchmark workloads: inputs from a seed, operations, checks.

Importing this module does not import sepstats, so ``run.py`` can build
inputs before any worker starts.  Each workload is closed-loop and
single-client: one operation at a time, each started after the previous
one returned.

A seed only chooses among inputs that cost the same work: the
single-statistic lane among the four equidistributed ones and the
``dist`` statistic pair among the closed-form pairs.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("census", "closed_forms", "verify", "cli_cache")

#: The four equidistributed extreme-value statistics.
LANES = ("lmax", "rmax", "lmin", "rmin")
#: ``closedforms.SET2_PAIRS + closedforms.SET1_PAIRS``; the worker checks
#: that the copy still matches the package.
DIST_PAIRS = (
    ("lmax", "rmax"),
    ("lmax", "lmin"),
    ("rmin", "rmax"),
    ("rmin", "lmin"),
    ("rmax", "lmin"),
    ("lmax", "rmin"),
)

#: Problem sizes.  "full" is what the benchmark measures; "toy" is for the
#: self-test only.
SIZES = {
    "full": {
        "census": {"order": 10, "irr_order": 9, "dist_n": 9, "filter_n": 7},
        "closed_forms": {"single_order": 40, "quad_order": 14},
        "verify": {"checks": None},
        "cli_cache": {"joint_order": 12, "lane_order": 30, "dist_n": 9},
    },
    "toy": {
        "census": {"order": 5, "irr_order": 4, "dist_n": 4, "filter_n": 5},
        "closed_forms": {"single_order": 8, "quad_order": 5},
        "verify": {"checks": ["counting-identities", "series-snippets", "conjectures"]},
        "cli_cache": {"joint_order": 4, "lane_order": 8, "dist_n": 4},
    },
}


def make_inputs(workload: str, seed: int, scale: str = "full") -> dict:
    """The inputs a worker receives; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    inputs = dict(SIZES[scale][workload])
    if workload == "census":
        inputs["pairs"] = [list(p) for p in rng.sample(DIST_PAIRS, 2)]
    elif workload == "closed_forms":
        inputs["lane"] = rng.choice(LANES)
    elif workload == "cli_cache":
        inputs["lane"] = rng.choice(LANES)
        inputs["pair"] = list(rng.choice(DIST_PAIRS))
    return inputs


# ---------------------------------------------------------------------------
# Operations.  Each op is (name, thunk); the thunk's return value is what the
# check for that op inspects.  Everything an op returns is fully computed
# inside the timed region.  Checks run after the timer stops.
# ---------------------------------------------------------------------------


class References:
    """Independent-route results, computed by the first rep of a run and
    read back by the later ones, so that every rep is checked without each
    paying for the reference computation.  The directory belongs to one
    run and holds only what this class wrote."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory

    def __call__(self, key: str, compute):
        path = self.directory / f"{key}.pickle"
        if path.is_file():
            return pickle.loads(path.read_bytes())
        value = compute()
        self.directory.mkdir(exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_bytes(pickle.dumps(value))
        os.replace(tmp, path)
        return value


def census_ops(inp: dict):
    from sepstats import distributions, enumeration

    ops = [
        ("census_all", lambda: distributions.series_from_enumeration(inp["order"], "all")),
        (
            "census_irreducible",
            lambda: distributions.series_from_enumeration(inp["irr_order"], "irreducible"),
        ),
    ]
    for pair in inp["pairs"]:
        ops.append((
            "dist_" + "_".join(pair),
            lambda pair=pair: distributions.dist_from_enumeration(inp["dist_n"], "all", tuple(pair)),
        ))
    ops.append(
        ("filter", lambda: [p.values for p in enumeration.enumerate_filter(inp["filter_n"])])
    )
    return ops


def census_check(inp: dict, results: dict, ref: References) -> dict[str, bool]:
    """Census vs fixpoint, dist tables vs census projection, filter vs
    structural stream."""
    from sepstats import enumeration, series

    verdicts = {}
    s_fix = ref("fixpoint_S", lambda: series.solve_fixpoint(inp["order"])[0])
    verdicts["census_all"] = results.get("census_all") == s_fix
    i_fix = ref("fixpoint_I", lambda: series.solve_fixpoint(inp["irr_order"])[1])
    verdicts["census_irreducible"] = results.get("census_irreducible") == i_fix
    census = results.get("census_all")
    for pair in inp["pairs"]:
        name = "dist_" + "_".join(pair)
        table = results.get(name)
        verdicts[name] = (
            census is not None
            and table is not None
            and table.row(inp["dist_n"]) == _project(census.coefficient(inp["dist_n"]), pair)
        )
    structural = ref(
        "structural", lambda: [tuple(w) for w in enumeration.iter_separable_bytes(inp["filter_n"])]
    )
    verdicts["filter"] = results.get("filter") == structural
    return verdicts


def _project(poly, stats) -> dict[tuple[int, ...], int]:
    """Marginal of a series coefficient on the given statistics."""
    from sepstats.distributions import STAT_NAMES

    idx = [STAT_NAMES.index(s) for s in stats]
    out: dict[tuple[int, ...], int] = {}
    for exps, c in poly.terms():
        key = tuple(exps[i] for i in idx)
        out[key] = out.get(key, 0) + c
    return out


_QUAD_CLASSES = ("all", "irreducible", "reducible")


def closed_forms_ops(inp: dict):
    from sepstats import closedforms

    ops = [(
        "S_single",
        lambda: closedforms.closed_form_S_single(inp["single_order"], inp["lane"]),
    )]
    for cls in _QUAD_CLASSES:
        ops.append((
            f"quad_{cls}",
            lambda cls=cls: closedforms.closed_form_quad(inp["quad_order"], cls),
        ))
    return ops


def closed_forms_check(inp: dict, results: dict, ref: References) -> dict[str, bool]:
    """Closed forms vs the fixpoint with every other lane set to 1."""
    from sepstats import series
    from sepstats.distributions import STAT_TO_VARIABLE

    verdicts = {}
    lane = (STAT_TO_VARIABLE[inp["lane"]],)
    s_fix = ref("fixpoint_single", lambda: series.solve_fixpoint(inp["single_order"], lane)[0])
    verdicts["S_single"] = results.get("S_single") == s_fix
    s, i = ref("fixpoint_quad", lambda: series.solve_fixpoint(inp["quad_order"], ("x", "y", "u", "v")))
    want = {"all": s, "irreducible": i, "reducible": s - i}
    for cls in _QUAD_CLASSES:
        verdicts[f"quad_{cls}"] = results.get(f"quad_{cls}") == want[cls]
    return verdicts


def verify_ops(inp: dict):
    """``verify.run_all()``, one suite entry per call, in suite order: the
    same work in one process, timed per entry."""
    from sepstats import verify

    ids = inp["checks"] or list(verify.ALL_CHECKS)
    return [(check_id, lambda check_id=check_id: verify.run_all([check_id])) for check_id in ids]


def verify_check(inp: dict, results: dict, ref: References) -> dict[str, bool]:
    """Every report of the suite passes; a report is one operation, and a
    suite entry that raised is one failed operation."""
    verdicts = {}
    for reports in results.values():
        verdicts.update({r.check_id: r.verdict == "pass" for r in reports})
    return verdicts


# -- cli_cache: each operation is one `sepstats` process ---------------------


class CliRunner:
    """Runs ``sepstats`` commands one at a time in fresh interpreters."""

    def __init__(self, tmp: Path, traced: bool) -> None:
        self.cache_dir = tmp / "cache"
        self.cache_dir.mkdir()
        # Any write under XDG_CACHE_HOME would land here; the run checks it
        # stays absent, so the user's cache is never read or written.
        self.xdg = tmp / "xdg-must-stay-absent"
        self.traced = traced
        self.tmp = tmp
        self.children: list[dict] = []
        self.env = dict(os.environ, XDG_CACHE_HOME=str(self.xdg))

    def __call__(self, argv: list[str]) -> tuple[int, bytes]:
        if self.traced:
            out = self.tmp / f"child{len(self.children)}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(out), *argv]
        else:
            cmd = [sys.executable, "-m", "sepstats.cli", *argv]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=self.env, check=False)
        if self.traced:
            record = json.loads(out.read_text()) if out.is_file() else {}
            record["stdout_bytes"] = len(proc.stdout)
            self.children.append(record)
        return proc.returncode, proc.stdout


def cli_cache_ops(inp: dict, run: CliRunner):
    cache = ["--cache-dir", str(run.cache_dir)]
    joint = ["series", "joint", "--order", str(inp["joint_order"]), *cache]
    lane = ["series", inp["lane"], "--order", str(inp["lane_order"]), *cache]
    # Op names double as the cli.<name>_s metric names.
    return [
        ("series_joint_miss", lambda: run(joint)),
        ("series_joint_hit", lambda: run(joint)),
        ("series_lane_miss", lambda: run(lane)),
        ("series_lane_hit", lambda: run(lane)),
        ("tables", lambda: run(["tables", "3"])),
        (
            "dist",
            lambda: run(["dist", str(inp["dist_n"]), "--stats", ",".join(inp["pair"]), "--format", "csv"]),
        ),
    ]


def cli_cache_check(inp: dict, results: dict, ref: References, run: CliRunner) -> dict[str, bool]:
    """Exit codes 0; a hit prints what its miss printed; the lane series and
    the dist table agree with the fixpoint; tables 3 is the golden file."""
    from sepstats import series
    from sepstats.distributions import STAT_TO_VARIABLE

    def ok(name: str) -> bytes | None:
        rc, out = results.get(name, (None, b""))
        return out if rc == 0 else None

    def rendered(s) -> bytes:
        return "".join(f"t^{n}: {s.coefficient(n)}\n" for n in range(1, s.order + 1)).encode()

    verdicts = {}
    joint_files = list(run.cache_dir.glob(f"joint-all-order{inp['joint_order']}-v*.json"))
    miss, hit = ok("series_joint_miss"), ok("series_joint_hit")
    verdicts["series_joint_miss"] = miss is not None and len(joint_files) == 1
    verdicts["series_joint_hit"] = hit is not None and hit == miss
    lane = (STAT_TO_VARIABLE[inp["lane"]],)
    s_lane = ref("fixpoint_lane", lambda: series.solve_fixpoint(inp["lane_order"], lane)[0])
    miss, hit = ok("series_lane_miss"), ok("series_lane_hit")
    verdicts["series_lane_miss"] = miss == rendered(s_lane)
    verdicts["series_lane_hit"] = hit is not None and hit == miss
    golden = (ROOT / "src" / "sepstats" / "data" / "table3.txt").read_bytes()
    verdicts["tables"] = ok("tables") == golden
    n = inp["dist_n"]
    lanes = [STAT_TO_VARIABLE[s] for s in inp["pair"]]
    s_pair = ref("fixpoint_pair", lambda: series.solve_fixpoint(n, lanes)[0])
    want = _project(s_pair.coefficient(n), inp["pair"])
    got = None
    if ok("dist") is not None:
        lines = ok("dist").decode().splitlines()
        if lines and lines[0] == ",".join(["n", *inp["pair"], "count"]):
            got = {}
            for line in lines[1:]:
                fields = [int(f) for f in line.split(",")]
                if fields[0] == n:
                    got[tuple(fields[1:-1])] = fields[-1]
    verdicts["dist"] = got == want
    if run.xdg.exists():
        verdicts = {name: False for name in verdicts}
        print("error: a CLI command wrote under XDG_CACHE_HOME", file=sys.stderr)
    return verdicts
