"""CLI: subcommand behavior, formats, exit codes, caching."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sepstats
from sepstats.cli import SERIES_REGISTRY, build_parser, main
from sepstats.series import ENGINE_VERSION


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- enumerate --------------------------------------------------------------


def test_enumerate_text_output(capsys):
    code, out, _ = run(capsys, "enumerate", "3")
    assert code == 0
    assert out.splitlines() == ["123", "132", "213", "231", "312", "321"]


def test_enumerate_count_and_class(capsys):
    code, out, _ = run(capsys, "enumerate", "5", "--count")
    assert (code, out.strip()) == (0, "90")
    code, out, _ = run(capsys, "enumerate", "5", "--class", "irr", "--count")
    assert (code, out.strip()) == (0, "45")
    code, out, _ = run(capsys, "enumerate", "5", "--class", "reducible", "--count")
    assert (code, out.strip()) == (0, "45")


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[1, 2], [2, 1]]


def test_enumerate_methods_agree(capsys):
    _, structural, _ = run(capsys, "enumerate", "6")
    _, filtered, _ = run(capsys, "enumerate", "6", "--method", "filter")
    assert structural == filtered


def test_enumerate_filter_respects_class(capsys):
    code, out, _ = run(
        capsys, "enumerate", "4", "--method", "filter", "--class", "irr", "--count"
    )
    assert (code, out.strip()) == (0, "11")


def test_enumerate_cap_errors(capsys):
    code, _, err = run(capsys, "enumerate", "15")
    assert code == 2 and "capped" in err
    code, _, err = run(capsys, "enumerate", "10", "--method", "filter")
    assert code == 2 and "filter" in err


# -- dist -------------------------------------------------------------------


def test_dist_csv(capsys):
    code, out, _ = run(
        capsys, "dist", "3", "--stats", "rmax", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["n,rmax,count", "3,1,2", "3,2,3", "3,3,1"]


def test_dist_table_default(capsys):
    code, out, _ = run(capsys, "dist", "2", "--stats", "lmax,rmax")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "lmax", "rmax", "count"]
    assert len(lines) == 3  # header + two value rows


def test_dist_json(capsys):
    code, out, _ = run(
        capsys, "dist", "4", "--class", "irr", "--stats", "rmax", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "irreducible"
    assert doc["rows"]["4"] == [[[2], 5], [[3], 5], [[4], 1]]


def test_dist_rejects_bad_stats(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dist", "3", "--stats", "rmax,bogus"])
    assert exc.value.code == 2


def test_dist_cap(capsys):
    code, _, err = run(capsys, "dist", "15")
    assert code == 2 and "capped" in err


# -- tables -----------------------------------------------------------------


def test_tables_match_packaged_goldens(capsys):
    from importlib import resources

    for which in ("3", "4", "5"):
        code, out, _ = run(capsys, "tables", which)
        assert code == 0
        want = (
            resources.files("sepstats")
            .joinpath(f"data/table{which}.txt")
            .read_text(encoding="utf-8")
        )
        assert out == want


def test_tables_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "7"])
    assert exc.value.code == 2


# -- series -----------------------------------------------------------------


def test_series_text(capsys):
    code, out, _ = run(
        capsys, "series", "counting", "--order", "5", "--no-cache"
    )
    assert code == 0
    assert out.splitlines() == [
        "t^1: 1",
        "t^2: 2",
        "t^3: 6",
        "t^4: 22",
        "t^5: 90",
    ]


def test_series_json_document(capsys):
    code, out, _ = run(
        capsys, "series", "rmax", "--order", "3", "--no-cache", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 3
    assert doc["name"] == "rmax[all]"
    assert doc["engine"] == 1


def test_series_cache_round_trip(tmp_path, capsys):
    args = (
        "series", "lmax-rmax", "--class", "irreducible", "--order", "4",
        "--cache-dir", str(tmp_path),
    )
    code1, out1, _ = run(capsys, *args)
    cached = list(tmp_path.glob("*.json"))
    assert code1 == 0 and len(cached) == 1
    before = cached[0].read_bytes()
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0
    assert out1 == out2
    assert cached[0].read_bytes() == before  # cache reused, not rewritten


@pytest.mark.parametrize(
    "damage",
    [
        lambda good: good[: len(good) // 2],  # truncated by a crash
        lambda good: json.dumps({**json.loads(good), "coefficients": {}}),
        lambda good: "[]",
    ],
    ids=["truncated", "missing-coefficients", "not-a-document"],
)
def test_series_bad_cache_file_is_recomputed(tmp_path, capsys, damage):
    args = ("series", "rmax", "--class", "irr", "--order", "5")
    name = f"rmax-irreducible-order5-v{ENGINE_VERSION}.json"
    clean_dir, bad_dir = tmp_path / "clean", tmp_path / "bad"
    _, clean_out, _ = run(capsys, *args, "--cache-dir", str(clean_dir))
    good = (clean_dir / name).read_text()
    bad_dir.mkdir()
    (bad_dir / name).write_text(damage(good))
    code, out, err = run(capsys, *args, "--cache-dir", str(bad_dir))
    assert code == 0
    assert out == clean_out
    assert err.startswith("note:") and err.count("\n") == 1
    assert [p.name for p in bad_dir.iterdir()] == [name]  # no temporary left
    assert (bad_dir / name).read_text() == good


def test_series_registry_covers_all_closed_forms():
    assert {"counting", "asc-des", "joint", "rmax", "lmax-rmax",
            "rmax-lmin", "lmax-rmax-lmin", "lmax-rmax-lmin-rmin"} <= set(
        SERIES_REGISTRY
    )


# -- verify and conjectures -------------------------------------------------


def test_verify_selected_checks(capsys):
    code, out, _ = run(
        capsys, "verify", "counting-identities", "tables-golden"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3  # two reports + summary
    assert all("PASS" in line for line in lines[:2])
    assert lines[2] == "2 checks: 2 passed, 0 failed"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "series-snippets", "--json")
    assert code == 0
    docs = json.loads(out)
    assert docs[0]["check"] == "series-snippets"
    assert docs[0]["verdict"] == "pass"


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    assert "quad-closed-form" in out.splitlines()


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "bogus-check")
    assert code == 2 and "unknown checks" in err


def test_conjectures_output(capsys):
    code, out, _ = run(capsys, "conjectures", "--max-n", "6")
    assert code == 0
    assert "conjecture-irr-rmax-peak3" in out
    assert "n= 6: 0 60 73 49 14 1" in out
    assert out.count("PASS") == 3


# -- errors and global flags ------------------------------------------------


@pytest.mark.parametrize(
    "argv, starts",
    [
        ("series joint --order 0", "error:"),
        ("series asc-des --order 0", "error:"),
        ("series rmax --order 300", "error:"),
        ("conjectures --max-n 0", "error:"),
        ("conjectures --max-n 300", "error:"),
        ("verify --max-n 2 conjectures", "error:"),
        ("dist 0", "error:"),
        ("enumerate 0", "error:"),
        ("--threads 2 enumerate 3", "usage:"),  # the flag is gone
    ],
)
def test_bad_input_exits_2_without_traceback(
    capsys, monkeypatch, tmp_path, argv, starts
):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    try:
        code = main(argv.split())
    except SystemExit as exc:  # argparse rejects the command line itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(starts)
    assert "Traceback" not in captured.err


def test_verify_rejects_a_too_deep_conjecture_range_before_any_check(
    capsys, monkeypatch
):
    from sepstats import verify

    def must_not_run():
        raise AssertionError("a check ran before the depth was rejected")

    for check in verify.ALL_CHECKS:
        monkeypatch.setitem(verify.ALL_CHECKS, check, must_not_run)
    code, out, err = run(capsys, "verify", "--max-n", "300")
    assert code == 2
    assert out == ""
    assert err.startswith("error: series order 300 exceeds 255")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


def test_closed_stdout_ends_quietly():
    # the reader is gone before the first write, as with `| head` on a
    # long listing
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(sepstats.__file__).resolve().parent.parent
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sepstats.cli", "enumerate", "7", "--class", "red"],
            cwd=src,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
