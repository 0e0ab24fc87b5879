"""CLI: subcommand behavior, formats, exit codes, caching."""

import contextlib
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sepstats
from sepstats import cli
from sepstats.cli import SERIES_REGISTRY, build_parser, main
from sepstats.series import (
    ENGINE_VERSION,
    canonical_json,
    document_to_series,
    document_view,
    series_to_document,
    solve_fixpoint,
)


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


def test_enumerate_count_builds_no_permutation(capsys, monkeypatch):
    class NoPermutation:
        def __init__(self, *args):
            raise AssertionError("--count built a Permutation")

        _trusted = __init__

    monkeypatch.setattr("sepstats.cli.Permutation", NoPermutation)
    code, out, _ = run(capsys, "enumerate", "7", "--count")
    assert (code, out.strip()) == (0, "1806")


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[1, 2], [2, 1]]


@pytest.mark.parametrize("method", ["structural", "filter"])
@pytest.mark.parametrize("cls", ["all", "irr", "red"])
def test_enumerate_json_streams_what_json_dumps_prints(capsys, method, cls):
    for n in range(1, 7):
        _, listing, _ = run(capsys, "enumerate", str(n), "--class", cls, "--method", method)
        code, out, _ = run(
            capsys, "enumerate", str(n), "--class", cls, "--method", method,
            "--format", "json",
        )
        perms = [[int(v) for v in line] for line in listing.splitlines()]
        assert (code, out) == (0, json.dumps(perms) + "\n")


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


@pytest.mark.parametrize(
    "fmt, want",
    [
        ("table", "n  asc  des  lmax  rmax  lmin  rmin  count\n"),
        ("csv", "n,asc,des,lmax,rmax,lmin,rmin,count\n"),
        ("json", None),
    ],
)
def test_dist_of_an_empty_class_prints_no_rows(capsys, fmt, want):
    # no permutation of length 1 is reducible
    code, out, err = run(capsys, "dist", "1", "--class", "red", "--format", fmt)
    assert (code, err) == (0, "")
    if want is None:
        assert json.loads(out)["rows"] == {"1": []}
    else:
        assert out == want


def test_dist_rejects_bad_stats(capsys):
    code, out, err = run(capsys, "dist", "3", "--stats", "rmax,bogus")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown statistics ['bogus']")


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


@pytest.mark.parametrize("name, order", [("counting", 16), ("joint", 12)])
def test_series_default_orders(capsys, name, order):
    code, out, _ = run(capsys, "series", name, "--no-cache")
    assert code == 0
    assert out.splitlines()[-1].startswith(f"t^{order}:")


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


def _coefficient(doc: dict, n: int) -> list:
    """The first [exponents, numerator, denominator] triple at t^n."""
    return doc["coefficients"][str(n)][0]


def _edited(edit):
    """A damage that applies ``edit`` to the decoded document."""

    def damage(good: str) -> str:
        doc = json.loads(good)
        edit(doc, [t[0] for triples in doc["coefficients"].values() for t in triples])
        return json.dumps(doc)

    return damage


def _resealed(edit):
    """A damage that applies ``edit`` to the document text and reseals it:
    the checksum matches, only the text is wrong."""

    def damage(good: str) -> str:
        return "".join(cli._sealed(edit(cli._unsealed(good))))

    return damage


def _reordered(text: str) -> str:
    """The document with its keys after "coefficients" in another order."""
    doc = json.loads(text)
    keys = ["coefficients", "engine", "variables", "name", "order"]
    return json.dumps({k: doc[k] for k in keys}, separators=(",", ":"))


def _retyped(key, value):
    def edit(text: str) -> str:
        doc = json.loads(text)
        doc[key] = value
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    return edit


# The edited documents below still decode, to a different series, when each
# vector is read by position against VARIABLES and a repeated monomial keeps
# its last coefficient: the decoder must reject them instead.
@pytest.mark.parametrize(
    "damage",
    [
        lambda good: good[: len(good) // 2],  # truncated by a crash
        lambda good: json.dumps({**json.loads(good), "coefficients": {}}),
        lambda good: "[]",
        _edited(lambda doc, vectors: [v.pop(0) for v in vectors]),
        _edited(lambda doc, vectors: [v.insert(0, 0) for v in vectors]),
        _edited(
            lambda doc, vectors: doc["coefficients"]["5"].append(
                [vectors[-1], 7, 1]
            )
        ),
        _edited(
            lambda doc, vectors: [v.reverse() for v in [doc["variables"], *vectors]]
        ),
        _edited(lambda doc, vectors: vectors[0].__setitem__(0, True)),
        # well-formed documents of series that do not count rmax over the
        # irreducible separable permutations
        _edited(lambda doc, vectors: _coefficient(doc, 3).__setitem__(1, 3)),
        _edited(lambda doc, vectors: doc["coefficients"]["0"].append([[0] * 6, 1, 1])),
        _edited(lambda doc, vectors: _coefficient(doc, 4).__setitem__(2, 2)),
        _edited(lambda doc, vectors: _coefficient(doc, 5).__setitem__(1, -1)),
        # resealed: the checksum matches a document that is not canonical,
        # or whose order is not the int its file name says
        _resealed(_reordered),
        _resealed(lambda text: text.replace("],[[", "], [[", 1)),
        _resealed(lambda text: text.replace(",1,1]", ",2,2]", 1)),
        _resealed(_retyped("order", 5.0)),
        _resealed(_retyped("order", True)),
        _resealed(lambda text: text.replace('"5":', '"7":[],"5":')),
        _resealed(lambda text: text.replace('"2":[', '"2":[' + "[" * 10**5 + "]" * 10**5 + ",")),
        _resealed(lambda text: text.replace(",1,1]", ",1,0]", 1)),
        _resealed(lambda text: text.replace('"engine":1', '"engine":' + "[" * 10**5 + "]" * 10**5)),
    ],
    ids=[
        "truncated",
        "missing-coefficients",
        "not-a-document",
        "short-vectors",
        "long-vectors",
        "repeated-monomial",
        "other-variable-order",
        "bool-exponent",
        "one-count-edited",
        "constant-term",
        "a-half",
        "negative",
        "resealed-keys-reordered",
        "resealed-space",
        "resealed-unreduced",
        "resealed-float-order",
        "resealed-true-order",
        "resealed-extra-key",
        "resealed-deep-nesting",
        "resealed-zero-denominator",
        "resealed-deep-tail",
    ],
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


def _rmax6(capsys, cache_dir):
    """Run ``series rmax --order 6`` on ``cache_dir``: (exit code, stdout,
    stderr, the cache file)."""
    code, out, err = run(
        capsys, "series", "rmax", "--order", "6", "--cache-dir", str(cache_dir)
    )
    return code, out, err, cache_dir / f"rmax-all-order6-v{ENGINE_VERSION}.json"


def test_series_cache_file_is_a_canonical_document_with_a_checksum(
    tmp_path, capsys
):
    _, _, _, path = _rmax6(capsys, tmp_path)
    good = path.read_text()
    doc = json.loads(good)
    assert canonical_json(doc) == good
    assert re.fullmatch("[0-9a-f]{8}", doc.pop("crc32"))
    assert list(doc) == ["coefficients", "engine", "name", "order", "variables"]


def test_series_cache_edit_that_keeps_every_count_check_is_recomputed(
    tmp_path, capsys
):
    # +1 on one t^4 monomial and -1 on another: each t^n total stays the
    # class's count, so only the checksum tells the file from the answer
    _, clean_out, _, path = _rmax6(capsys, tmp_path)
    good = path.read_text()
    doc = json.loads(good)
    first, second = doc["coefficients"]["4"][:2]
    first[1] += 1
    second[1] -= 1
    assert second[1] > 0
    # the edited document passes every decoder check
    plain = canonical_json({k: v for k, v in doc.items() if k != "crc32"})
    cli._counting(document_to_series(document_view(plain)), "all")
    path.write_text(canonical_json(doc))
    code, out, err, _ = _rmax6(capsys, tmp_path)
    assert code == 0 and out == clean_out
    assert err.startswith("note: recomputing unreadable cache file ")
    assert "crc32" in err and err.count("\n") == 1
    assert path.read_text() == good


def test_series_cache_file_without_a_checksum_is_rewritten_once(tmp_path, capsys):
    # a file written before cache files carried a checksum
    _, clean_out, _, path = _rmax6(capsys, tmp_path)
    good = path.read_text()
    doc = json.loads(good)
    del doc["crc32"]
    path.write_text(canonical_json(doc))
    code, out, err, _ = _rmax6(capsys, tmp_path)
    assert code == 0 and out == clean_out
    assert err.startswith("note:") and "no crc32" in err and err.count("\n") == 1
    assert path.read_text() == good
    assert _rmax6(capsys, tmp_path)[1:3] == (clean_out, "")


@pytest.mark.parametrize(
    "name, order", [("joint", 5), ("rmax", 8), ("lmax-rmax-lmin-rmin", 8)]
)
def test_series_json_hit_prints_the_verified_file(
    tmp_path, capsys, monkeypatch, name, order
):
    args = (
        "series", name, "--order", str(order), "--format", "json",
        "--cache-dir", str(tmp_path),
    )
    _, miss, _ = run(capsys, *args)

    def refuse(*_):
        raise AssertionError("a hit re-encoded the series")

    monkeypatch.setattr(cli, "series_to_document", refuse)
    monkeypatch.setattr(cli, "canonical_json", refuse)
    code, hit, err = run(capsys, *args)
    assert (code, err) == (0, "")
    assert hit == miss
    (path,) = tmp_path.iterdir()
    decoded = document_to_series(document_view(cli._unsealed(path.read_text())))
    assert hit == canonical_json(series_to_document(f"{name}[all]", decoded)) + "\n"


def test_series_cache_io_never_holds_the_document_tree(tmp_path, capsys):
    # The fixpoint is warm, so the miss's trace holds the encode, the cache
    # write and the render, not the solve.  Each run's traced peak stays
    # below what json.loads of the cache file alone allocates.  The render
    # goes to a sink that keeps nothing, so no capture buffer grows inside
    # a trace, and each trace starts after a collection.
    solve_fixpoint(10)
    args = ["series", "joint", "--order", "10", "--cache-dir", str(tmp_path)]
    peaks = {}
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for run_kind in ("miss", "hit"):
            gc.collect()
            tracemalloc.start()
            try:
                assert main(args) == 0
                peaks[run_kind] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert capsys.readouterr().err == ""
    (path,) = tmp_path.iterdir()
    text = path.read_text()
    gc.collect()
    tracemalloc.start()
    try:
        tree = json.loads(text)
        tree_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tree["order"] == 10
    assert max(peaks.values()) < tree_bytes, (peaks, tree_bytes)


# sha256 of `sepstats series joint --order 12` stdout, as text and as JSON
JOINT_12_SHA256 = {
    "text": "b822b595d8e75f22cbc208bf9461cfaa6df1bed53119def2602c343168e2a4b7",
    "json": "3b8f4bb21c83416ba41234614a7e41e43cb837f059cca1e2892dd018c3bddd22",
}


@pytest.mark.parametrize("fmt", sorted(JOINT_12_SHA256))
def test_series_joint_bytes_are_pinned_on_a_miss_and_a_hit(tmp_path, capsys, fmt):
    args = (
        "series", "joint", "--order", "12", "--format", fmt,
        "--cache-dir", str(tmp_path),
    )
    for run_kind in ("miss", "hit"):
        code, out, err = run(capsys, *args)
        assert (code, err) == (0, ""), run_kind
        assert hashlib.sha256(out.encode()).hexdigest() == JOINT_12_SHA256[fmt], run_kind


def _series_child(*argv, prelude=""):
    """Run the CLI in a child interpreter, after ``prelude``."""
    src = Path(sepstats.__file__).resolve().parent.parent
    code = (
        f"{prelude}\nfrom sepstats.cli import main\n"
        f"raise SystemExit(main({list(argv)!r}))"
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_loads_verify_only_for_verify_and_conjectures():
    src = Path(sepstats.__file__).resolve().parent.parent
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, sepstats.cli; print('sepstats.verify' in sys.modules)",
        ],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (probe.returncode, probe.stdout) == (0, "False\n")
    checked = _series_child("verify", "counting-identities")
    assert checked.returncode == 0
    assert checked.stdout.endswith("1 checks: 1 passed, 0 failed\n")
    rows = _series_child("conjectures", "--max-n", "5")
    assert rows.returncode == 0
    assert rows.stdout.count("PASS") == 3


def test_package_import_leaves_out_dataclasses_and_inspect():
    # ``dataclasses`` imports ``inspect``, ``ast``, ``dis`` and ``tokenize``,
    # and ``fractions`` imports ``decimal`` and ``numbers``: a start-up cost
    # every interpreter importing the package would pay
    src = Path(sepstats.__file__).resolve().parent.parent
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, sepstats.cli, sepstats.verify\n"
            "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))",
        ],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (probe.returncode, probe.stdout) == (0, "[]\n")


@pytest.mark.parametrize("where", ["file", "below-a-file", "name-is-a-directory"])
def test_series_unwritable_cache_is_an_error_not_a_traceback(tmp_path, where):
    name = f"joint-all-order3-v{ENGINE_VERSION}.json"
    blocker = tmp_path / "F"
    blocker.write_text("")
    cache_dir = {
        "file": blocker,
        "below-a-file": blocker / "sub",
        "name-is-a-directory": tmp_path,
    }[where]
    if where == "name-is-a-directory":
        (tmp_path / name).mkdir()
    proc = _series_child(
        "series", "joint", "--order", "3", "--cache-dir", str(cache_dir)
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write cache file ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not list(tmp_path.rglob("*.tmp"))  # the failed write left nothing


def test_series_unreadable_cache_file_is_a_miss(tmp_path):
    name = f"joint-all-order3-v{ENGINE_VERSION}.json"
    args = ("series", "joint", "--order", "3", "--cache-dir", str(tmp_path))
    clean = _series_child(*args)
    assert clean.returncode == 0 and (tmp_path / name).is_file()
    # reading the cached document fails as on a file the user may not read
    prelude = (
        "import pathlib\n"
        "def refuse(self, *a, **k):\n"
        "    raise PermissionError(13, 'Permission denied', str(self))\n"
        "pathlib.Path.read_text = refuse"
    )
    proc = _series_child(*args, prelude=prelude)
    assert proc.returncode == 0
    assert proc.stdout == clean.stdout
    assert proc.stderr.startswith("note: recomputing unreadable cache file ")
    assert "PermissionError" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_series_registry_covers_all_closed_forms():
    from sepstats.closedforms import FORMS

    assert {"counting", "asc-des", "joint", "rmax", "lmax-rmax",
            "rmax-lmin", "lmax-rmax-lmin", "lmax-rmax-lmin-rmin"} <= set(
        SERIES_REGISTRY
    )
    closed = set(SERIES_REGISTRY) - {"counting", "asc-des", "joint"}
    assert closed == {"-".join(t) for t in FORMS}
    assert len(SERIES_REGISTRY) == 3 + len(FORMS)


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


def test_verify_list_json_is_an_array_of_the_ids(capsys):
    from sepstats.verify import ALL_CHECKS

    code, out, _ = run(capsys, "verify", "--list", "--json")
    assert code == 0
    assert json.loads(out) == list(ALL_CHECKS)


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "bogus-check")
    assert code == 2 and "unknown checks" in err


def test_conjectures_output(capsys):
    code, out, _ = run(capsys, "conjectures", "--max-n", "6")
    assert code == 0
    assert "conjecture-irr-rmax-peak3" in out
    assert "n= 6: 0 60 73 49 14 1" in out
    assert out.count("PASS") == 3


def test_conjectures_computes_each_conjectures_rows_once(capsys, monkeypatch):
    from sepstats import verify

    calls = []
    real = verify.conjecture_rows

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "conjecture_rows", counted)
    code, out, _ = run(capsys, "conjectures", "--max-n", "6")
    assert code == 0 and out.count("PASS") == 3
    assert calls == [
        ("all", "rmax", 6),
        ("irreducible", "rmax", 6),
        ("irreducible", "lmax", 6),
    ]


# -- errors and global flags ------------------------------------------------


@pytest.mark.parametrize(
    "argv, starts",
    [
        ("series joint --order 0", "error:"),
        # the six-lane master is capped below the lane width
        ("series joint --order 20", "error: series joint order is capped at 19, got 20"),
        ("series asc-des --order 0", "error:"),
        ("series rmax --order 0", "error:"),
        ("series rmax --order -1", "error:"),
        ("series counting --order 0", "error:"),
        ("series lmax-rmax --order 0", "error:"),
        ("series lmax-rmax-lmin-rmin --order 0", "error:"),
        ("series rmax --order 300", "error:"),
        # the closed form would take its radical at order 256
        ("series rmax --order 255", "error: closed-form order 255 "),
        ("conjectures --max-n 0", "error:"),
        ("conjectures --max-n 300", "error:"),
        ("verify --max-n 2 conjectures", "error:"),
        # the depth is checked whatever the selection
        ("verify --max-n 256 counting-identities", "error: conjecture evidence max_n is capped"),
        ("verify --max-n 2 counting-identities", "error:"),
        ("dist 0", "error:"),
        ("dist 3 --stats rmax,bogus", "error: unknown statistics ['bogus']"),
        ("dist 3 --stats rmax,rmax", "error: duplicate statistics"),
        ("dist 3 --stats ,", "error: at least one statistic is required"),
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
    assert err.startswith("error: conjecture evidence max_n is capped at 255, got 300")


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


# -- fuzz --------------------------------------------------------------------

# Numbers that no command accepts, spellings that name nothing, and valid
# values kept small so that each case runs in well under half a second:
# n <= 8 (filter n <= 7), series orders <= 14 (joint <= 8), max-n <= 20
# and only verify checks that finish in milliseconds.
_BAD_NUMBERS = ["-1", "0", "256", str(10**30), "3.0", ""]
_CLASSES = ["all", "irr", "red", "irreducible", "reducible", "irreducable", "ALL"]
_STATS = ["asc", "lmax,rmax", "asc,des,lmin", "rmax,rmax", "rmx", "lmax,", ""]
_CHEAP_CHECKS = [
    "counting-identities",
    "counting-gf-radicals",
    "asc-des-relations",
    "equidistribution-negative-control",
    "series-snippets",
    "tables-golden",
    "eulerian-descents",
    "conjectures",
    "countng-identities",
    "tables",
]
_SERIES_NAMES = [*SERIES_REGISTRY, "jiont", "lmax-rmax-rmin", "Counting"]


def _number(top):
    return st.integers(1, top).map(str) | st.sampled_from(_BAD_NUMBERS)


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def _argv(draw, cache_dir):
    command = draw(st.sampled_from([
        "enumerate", "dist", "tables", "series", "verify", "conjectures",
        "enumerat", "serie", "--version",
    ]))
    argv = [command]
    if command == "enumerate":
        method = draw(st.sampled_from(["structural", "filter", "brute"]))
        argv += [draw(_number(7 if method == "filter" else 8)), "--method", method]
        argv += draw(_option("--class", st.sampled_from(_CLASSES)))
        argv += draw(_option("--format", st.sampled_from(["text", "json", "xml"])))
        argv += draw(st.sampled_from([[], ["--count"]]))
    elif command == "dist":
        argv += [draw(_number(8))]
        argv += draw(_option("--class", st.sampled_from(_CLASSES)))
        argv += draw(_option("--stats", st.sampled_from(_STATS)))
        argv += draw(_option("--format", st.sampled_from(["table", "csv", "json", "tsv"])))
    elif command == "tables":
        argv += [draw(st.sampled_from(["3", "4", "5", "6", "0", "three"]))]
    elif command == "series":
        name = draw(st.sampled_from(_SERIES_NAMES))
        argv += [name, "--order", draw(_number(8 if name == "joint" else 14))]
        argv += draw(_option("--class", st.sampled_from(_CLASSES)))
        argv += draw(_option("--format", st.sampled_from(["text", "json", "yaml"])))
        argv += draw(st.sampled_from([["--no-cache"], ["--cache-dir", str(cache_dir)], []]))
    elif command == "verify":
        argv += draw(st.lists(st.sampled_from(_CHEAP_CHECKS), min_size=1, max_size=3))
        argv += draw(_option("--max-n", _number(20)))
        argv += draw(st.sampled_from([[], ["--json"], ["--list"]]))
    elif command == "conjectures":
        argv += draw(_option("--max-n", _number(20)))
    # now and then a stray token: a flag without its value, or one no
    # command knows
    argv += draw(st.sampled_from([[]] * 8 + [["--order"], ["--bogus"], ["-x"], ["7"]]))
    return argv


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_fuzzed_argv_exits_cleanly(tmp_path, monkeypatch, capsys, data):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    argv = data.draw(_argv(tmp_path / "cache"), label="argv")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: a usage error, --version or --help
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 or err.startswith("usage: "), err
