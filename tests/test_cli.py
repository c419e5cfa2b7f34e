"""CLI behaviour: exit codes, determinism, manifests, file formats."""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from curvealg import ainfinity, cli
from curvealg.hochschild import Cochain, HochschildComplex, reduced_complex
from curvealg.linalg import ONE, rank_of_columns
from curvealg.quiver import SubspaceW, build_ew
from test_hochschild import fraction_delta


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "curvealg.cli", *args],
                          capture_output=True, text=True)


def test_version():
    out = run_cli("--version")
    assert out.returncode == 0
    assert out.stdout.strip()


def test_usage_error_exit_2():
    assert run_cli("hh").returncode == 2          # missing --n
    assert run_cli("nonsense").returncode == 2
    assert run_cli("hh", "--n", "2", "--g", "1", "--w", "1,1;2,2").returncode == 2


def test_hh_vanishing_example():
    out = run_cli("hh", "--n", "1", "--g", "1", "--w", "", "--i-max", "2",
                  "--t-min", "-8")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    for row in payload["cells"]:
        if row["i"] in (0, 1) and row["t"] < 0:
            assert row["dim_HH"] == 0
    manifest = json.loads(out.stderr)
    assert manifest["subcommand"] == "hh"
    assert manifest["version"]


def test_hilbert_example_csv():
    out = run_cli("genus1", "hilbert", "--u", "1", "--v", "1", "--nmax", "7",
                  "--format", "csv")
    assert out.returncode == 0
    dims = [int(line.split(",")[1]) for line in out.stdout.splitlines()[1:]]
    assert dims == [1, 0, 1, 1, 2, 1, 3, 2]


def test_determinism_same_seed_same_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        out = run_cli("ainf", "random", "--n", "2", "--g", "1", "--w", "1,1",
                      "--order", "5", "--seed", "11", "--out", str(path))
        assert out.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json.manifest.json").exists()


def test_normalize_round_trip_via_files(tmp_path):
    m = tmp_path / "m.json"
    run_cli("ainf", "random", "--n", "1", "--g", "1", "--w", "", "--order", "5",
            "--seed", "4", "--out", str(m))
    out = run_cli("ainf", "normalize", "--input", str(m))
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["normal_form"]["components"] == {}


def test_equiv_and_extend(tmp_path):
    m = tmp_path / "m.json"
    m2 = tmp_path / "m2.json"
    run_cli("ainf", "random", "--n", "1", "--g", "1", "--w", "", "--order", "5",
            "--seed", "5", "--out", str(m))
    run_cli("ainf", "random", "--n", "1", "--g", "1", "--w", "", "--order", "5",
            "--seed", "6", "--out", str(m2))
    assert run_cli("ainf", "equiv", "--input", str(m), "--input2", str(m2)).returncode == 0
    assert run_cli("ainf", "extend", "--input", str(m)).returncode == 0


def test_curve_verdict_gating():
    assert run_cli("curve", "special", "--n", "2", "--s", "1", "--a", "2").returncode == 0
    assert run_cli("curve", "basis", "--n", "2", "--s", "1", "--a", "2",
                   "--deg-bound", "8").returncode == 0
    assert run_cli("curve", "krichever", "--n", "2", "--s", "1", "--a", "2",
                   "--depth", "8").returncode == 0
    out = run_cli("curve", "glue", "--n", "1", "--s", "1", "--n2", "1", "--s2", "",
                  "--q", "0,1", "--q2", "0,2", "--depth", "10")
    assert out.returncode == 0
    assert json.loads(out.stdout)["genus"] == 1


def test_poly_closure_gating(tmp_path):
    good = {"generators": [{"name": "f", "degree": 2}, {"name": "h", "degree": 3}],
            "order_weights": [36, 55],
            "relations": ["h^2 - f^3"]}
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(good))
    assert run_cli("poly", "closure", "--input", str(p)).returncode == 0
    bad = {"generators": [{"name": "hS", "degree": 1}, {"name": "f", "degree": 2},
                          {"name": "h", "degree": 3}],
           "order_weights": [20, 36, 55],
           "relations": ["h^2 - f^3", "f*hS - 2*h", "h*hS - 3*f^2"]}
    p2 = tmp_path / "bad.json"
    p2.write_text(json.dumps(bad))
    out = run_cli("poly", "closure", "--input", str(p2))
    assert out.returncode == 1
    payload = json.loads(out.stdout)
    assert payload["closure"]["verdict"] == "FAIL"
    assert payload["closure"]["failures"]  # machine-readable witness


def test_genus1_gating():
    assert run_cli("genus1", "transition", "--symbolic").returncode == 0
    assert run_cli("genus1", "transition", "--a12", "2", "--b12", "1/2",
                   "--e12", "1", "--pi1", "-1").returncode == 0
    assert run_cli("genus1", "compare", "--u", "1", "--v", "1",
                   "--nmax", "30").returncode == 0
    assert run_cli("genus1", "compare", "--u", "1/2", "--v", "1/2",
                   "--nmax", "10").returncode == 1
    assert run_cli("genus1", "bundle", "--symbolic").returncode == 0


def test_genus1_transition_and_bundle_run_with_default_flags():
    # both need a12 invertible, so --a12 defaults to 1 there; relations
    # accepts a12 = 0 and keeps that default
    out = run_cli("genus1", "transition")
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["certificate"]["verdict"] == "PASS"
    assert payload["chart"]["a12"] == "1" and payload["involutive"] is True
    out = run_cli("genus1", "bundle")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["verdict"] == "PASS"
    out = run_cli("genus1", "relations")
    assert json.loads(out.stdout)["chart"]["a12"] == "0"


def test_ew_dump_and_tangent():
    out = run_cli("ew", "--n", "2", "--g", "1", "--w", "1,1")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["g"] == 1 and len(payload["basis"]) == 10
    out2 = run_cli("ainf", "tangent", "--n", "2", "--g", "1", "--w", "1,1",
                   "--order", "6")
    assert json.loads(out2.stdout)["total"] == 4


def test_malformed_structure_file_is_usage_error(tmp_path):
    good = tmp_path / "m.json"
    run_cli("ainf", "random", "--n", "1", "--g", "1", "--w", "", "--order", "4",
            "--seed", "3", "--out", str(good))
    obj = json.loads(good.read_text())
    unknown_label = json.loads(good.read_text())
    unknown_label["components"]["3"]["entries"][0]["args"][0] = "zz"
    off_basis = json.loads(good.read_text())
    first = obj["components"]["3"]["entries"][0]
    off_basis["components"]["3"]["entries"].append(
        {"args": [first["args"][0]] * 3, "value": {"A1": "1"}})
    # a key or an entry named twice: the later one used to win silently
    bad_keys = []
    for key in ("04", "+4", " 4"):
        bad_keys.append(json.loads(good.read_text()))
        bad_keys[-1]["components"][key] = obj["components"]["4"]
    repeated = json.loads(good.read_text())
    repeated["components"]["3"]["entries"].append(
        dict(first, value={lab: "0" for lab in first["value"]}))
    # the key "3" written twice: a plain json.load keeps the later copy
    spliced = json.dumps(obj).replace(
        '"components": {',
        '"components": {"3": %s, ' % json.dumps(obj["components"]["3"]), 1)
    assert spliced.count('"3": ') == 2
    for i, bad in enumerate(({"algebra": {"n": 1}}, unknown_label, off_basis, [1, 2],
                             *bad_keys, repeated, spliced)):
        path = tmp_path / ("bad%d.json" % i)
        path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        for sub in ("normalize", "extend"):
            out = run_cli("ainf", sub, "--input", str(path))
            assert out.returncode == 2, (bad, sub, out.stderr)
            assert "malformed structure file" in out.stderr
            assert "Traceback" not in out.stderr


def test_malformed_relation_system_file_is_usage_error(tmp_path):
    x = {"name": "x", "degree": 1}
    for i, bad in enumerate(({}, [x], {"generators": [{"name": "x"}], "relations": []},
                             {"generators": [dict(x, degree="a")], "relations": ["x^2"]},
                             {"generators": [dict(x, degree=1.5)], "relations": ["x^2"]},
                             {"generators": [x], "relations": ["x^2"],
                              "order_weights": [1, 2]},
                             # a negative weight made the rewriting recurse
                             # without end; a repeated name was read as one
                             {"generators": [dict(x, degree=-1), dict(x, name="y")],
                              "relations": ["x^2 - x", "x*y"]},
                             {"generators": [x, dict(x, name="y")],
                              "order_weights": [-1, 2], "relations": ["x^2 - x", "x*y"]},
                             {"generators": [x, x], "relations": ["x^2"]},
                             # a key written twice, where the later copy used
                             # to win
                             '{"generators": [{"name": "x", "degree": 1}], '
                             '"relations": ["x^2"], "relations": ["x^3"]}',
                             '{"generators": [{"name": "x", "degree": 1, "degree": 2}], '
                             '"relations": ["x^2"]}')):
        path = tmp_path / ("bad%d.json" % i)
        path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        out = run_cli("poly", "closure", "--input", str(path))
        assert out.returncode == 2, (bad, out.stderr)
        assert out.stdout == ""
        assert out.stderr.startswith("error: malformed relation system file")
        assert "Traceback" not in out.stderr
    path = tmp_path / "good.json"
    path.write_text(json.dumps({"generators": [x], "relations": ["x^2"]}))
    assert run_cli("poly", "closure", "--input", str(path)).returncode == 0


def test_non_flat_structure_is_usage_error(tmp_path):
    # a structure file that parses but is not defect-free: normalize and
    # equiv (with either side bent) report one usage error, not an
    # internal error
    E = build_ew(SubspaceW.zero(1))
    good = tmp_path / "good.json"
    bent = tmp_path / "bent.json"
    good.write_text(json.dumps(cli.structure_file_json(
        E, ainfinity.random_structure(E, 4, random.Random(3)))))
    values = {key: {w: ONE} for key, w in reduced_complex(E).basis(3, -1)}
    m = ainfinity.AnStructure(E, 4, {3: Cochain(E, 3, -1, values)})
    assert not ainfinity.is_flat(m)
    bent.write_text(json.dumps(cli.structure_file_json(E, m)))
    for args in (("normalize", "--input", bent),
                 ("equiv", "--input", bent, "--input2", good),
                 ("equiv", "--input", good, "--input2", bent)):
        out = run_cli("ainf", *map(str, args))
        assert out.returncode == 2, (args, out.stderr)
        errors = [line for line in out.stderr.splitlines() if line.startswith("error:")]
        assert errors == ["error: normalize requires a defect-free structure"]
        assert "Traceback" not in out.stderr


def test_out_of_range_flags_rejected():
    for args in (("ainf", "tangent", "--n", "1", "--g", "1", "--w", "", "--order", "2"),
                 ("ainf", "equations", "--n", "1", "--g", "1", "--w", "", "--order", "2"),
                 ("genus1", "hilbert", "--u", "1", "--v", "1", "--nmax", "-1"),
                 ("genus1", "compare", "--u", "1", "--v", "1", "--nmax", "-1")):
        out = run_cli(*args)
        assert out.returncode == 2, args
        assert "must be at least" in out.stderr
    # --g outside 0..n, with no --w given
    for g, n in (("-1", "1"), ("5", "2")):
        out = run_cli("hh", "--n", n, "--g", g)
        assert out.returncode == 2, (n, g)
        assert [line for line in out.stderr.splitlines() if "error:" in line] == \
            ["error: --g must be at least 0 and at most n=%s, got %s" % (n, g)]
    for args in (("hh", "--n", "-1", "--g", "0"), ("ew", "--n", "-1"),
                 ("ainf", "tangent", "--n", "-1")):
        out = run_cli(*args)
        assert out.returncode == 2, args
        assert [line for line in out.stderr.splitlines() if "error:" in line] == \
            ["error: --n must be at least 0, got -1"]
    # --w rows of the wrong length or dependent
    for args, err in ((("--n", "1", "--w", "1,2"),
                       "error: --w row 1 has 2 entries, expected n=1"),
                      (("--n", "2", "--w", "1,1;2,2"),
                       "error: --w rows are not linearly independent")):
        out = run_cli("hh", *args)
        assert out.returncode == 2, args
        assert [line for line in out.stderr.splitlines() if "error:" in line] == [err]
    # a malformed rational or integer names its flag
    for args, err in ((("ew", "--n", "2", "--w", "1,x"),
                       "error: --w: 'x' is not a rational number"),
                      (("curve", "basis", "--n", "2", "--s", "x"),
                       "error: --s: invalid literal for int() with base 10: 'x'"),
                      (("curve", "glue", "--n", "1", "--s", "1", "--n2", "1",
                        "--s2", "1,", "--q", "0,1", "--q2", "0,2"),
                       "error: --s2: invalid literal for int() with base 10: ''"),
                      (("curve", "special", "--n", "2", "--s", "1", "--a", "x"),
                       "error: --a: 'x' is not a rational number"),
                      (("genus1", "hilbert", "--u", "x", "--v", "1"),
                       "error: --u: 'x' is not a rational number"),
                      (("genus1", "transition", "--a12", "y"),
                       "error: --a12: 'y' is not a rational number")):
        out = run_cli(*args)
        assert out.returncode == 2, args
        assert [line for line in out.stderr.splitlines() if "error:" in line] == [err]
    assert run_cli("genus1", "hilbert", "--u", "1", "--v", "1",
                   "--nmax", "0").returncode == 0
    assert run_cli("ainf", "tangent", "--n", "1", "--g", "1", "--w", "",
                   "--order", "3").returncode == 0


def test_seed_and_format_only_where_read():
    # only ainf random draws from a seed, and only hh and genus1 hilbert
    # print a CSV table
    assert run_cli("ew", "--n", "1", "--seed", "3").returncode == 2
    assert run_cli("ew", "--n", "1", "--format", "csv").returncode == 2
    assert run_cli("ew", "--n", "1").returncode == 0


def test_negative_bounds_and_short_random_order_rejected():
    for args in (("hh", "--n", "1", "--g", "1", "--w", "", "--i-max", "-1"),
                 ("curve", "basis", "--n", "2", "--s", "1", "--a", "2",
                  "--deg-bound", "-3"),
                 ("curve", "special", "--n", "2", "--s", "1", "--a", "2",
                  "--deg-bound", "-1"),
                 ("curve", "krichever", "--n", "2", "--s", "1", "--a", "2",
                  "--depth", "-1"),
                 ("curve", "glue", "--n", "1", "--s", "1", "--n2", "1", "--s2", "",
                  "--q", "0,1", "--q2", "0,2", "--depth", "-1"),
                 # a special curve has n >= 1 marked points
                 ("curve", "special", "--n", "-2"),
                 ("curve", "basis", "--n", "0"),
                 ("curve", "glue", "--n", "0", "--n2", "1", "--s2", "1",
                  "--q", "0,1", "--q2", "0,2"),
                 ("genus1", "relations", "--deg-bound", "-1"),
                 ("poly", "closure", "--input", "unused.json", "--deg-bound", "-1"),
                 ("ainf", "random", "--n", "1", "--g", "1", "--w", "", "--order", "2")):
        out = run_cli(*args)
        assert out.returncode == 2, args
        assert "must be at least" in out.stderr
        assert len([line for line in out.stderr.splitlines()
                    if "error:" in line]) == 1, args
        assert "Traceback" not in out.stderr
    # a gluing point on a branch the model does not have
    for q, q2, branch in (("7,1", "0,2", 7), ("0,1", "1,2", 1)):
        out = run_cli("curve", "glue", "--n", "1", "--s", "1", "--n2", "1", "--s2", "",
                      "--q", q, "--q2", q2, "--depth", "10")
        assert out.returncode == 2, (q, q2)
        assert out.stdout == ""
        assert [line for line in out.stderr.splitlines()
                if line.startswith("error:")] == \
            ["error: gluing branch must be in 0..0, got %d" % branch]
        assert "Traceback" not in out.stderr
    for t_min in ("2", "0"):
        # t_min = 0 would check HH^0 and HH^1 vanishing on the empty range
        # t in [0, -1], a vacuous PASS
        out = run_cli("hh", "--n", "1", "--g", "1", "--w", "", "--t-min", t_min)
        assert out.returncode == 2
        assert "--t-min must be at most -1" in out.stderr
        assert "Traceback" not in out.stderr
    out = run_cli("hh", "--n", "1", "--g", "1", "--w", "", "--i-max", "1",
                  "--t-min", "-1")
    assert out.returncode == 0
    assert json.loads(out.stdout)["low_degree_vanishing"] is True
    out = run_cli("hh", "--n", "1", "--g", "1", "--w", "", "--i-max", "0")
    assert out.returncode == 0
    assert [row["i"] for row in json.loads(out.stdout)["cells"]] == [0] * 7
    assert run_cli("curve", "basis", "--n", "2", "--s", "1", "--a", "2",
                   "--deg-bound", "0").returncode == 0
    assert run_cli("ainf", "random", "--n", "1", "--g", "1", "--w", "",
                   "--order", "3").returncode == 0


def test_undersized_degree_bound_is_usage_error(tmp_path):
    system = {"generators": [{"name": "hS", "degree": 1}, {"name": "f", "degree": 2},
                             {"name": "h", "degree": 3}],
              "order_weights": [20, 36, 55],
              "relations": ["h^2 - f^3", "f*hS - 2*h", "h*hS - 2*f^2"]}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system))
    assert run_cli("poly", "closure", "--input", str(path)).returncode == 0
    for args in (("curve", "special", "--n", "2", "--s", "1", "--a", "2",
                  "--deg-bound", "0"),
                 ("genus1", "relations", "--deg-bound", "0"),
                 ("poly", "closure", "--input", str(path), "--deg-bound", "3")):
        out = run_cli(*args)
        assert out.returncode == 2, args
        assert out.stdout == ""
        assert "exceeds bound" in out.stderr
        assert "Traceback" not in out.stderr


def test_manifest_records_backend_and_python():
    out = run_cli("curve", "basis", "--n", "2", "--s", "1", "--a", "2",
                  "--deg-bound", "6")
    assert out.returncode == 0
    manifest = json.loads(out.stderr)
    assert manifest["rational_backend"] == type(ONE).__name__
    assert manifest["python"] == platform.python_version()
    assert json.loads(out.stdout) == {
        "curve": {"n": 2, "S": [1], "a": [["2"]]},
        "basis": {"verdict": "PASS", "reason": ""}}


# -- in-process runs: internal errors and fuzzed inputs -------------------------


def run_in_process(argv):
    """(exit code, stdout, stderr) of cli.main; argparse's SystemExit is
    taken as the exit code it carries, any other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_hh_cells_match_full_fraction_delta_ranks():
    # the cleared integer ranks behind `curvealg hh` against the ranks of
    # the whole Fraction delta, for every cell of the (2,1) table
    code, out, _ = run_in_process(["hh", "--n", "2", "--g", "1", "--w", "1,1",
                                   "--t-min", "-6"])
    assert code == 0
    cx = HochschildComplex(build_ew(SubspaceW(2, [[1, 1]])))

    def rank(s, t):
        if s < 0:
            return 0
        cols = fraction_delta(cx, s, t)
        assert all(type(c) is type(ONE) for col in cols for c in col.values())
        return rank_of_columns(cols)

    cells = json.loads(out)["cells"]
    assert [(c["i"], c["t"]) for c in cells] == \
        sorted((i, t) for i in range(3) for t in range(-6, 1))
    for c in cells:
        s = c["i"] - c["t"]
        dim = len(cx.basis(s, c["t"]))
        cocycles = dim - rank(s, c["t"])
        coboundaries = rank(s - 1, c["t"])
        assert (c["dim_cochain"], c["dim_cocycle"], c["dim_coboundary"],
                c["dim_HH"]) == (dim, cocycles, coboundaries,
                                 cocycles - coboundaries), c
    assert sum(c["dim_HH"] for c in cells if c["i"] == 2 and c["t"] < 0) == 3


def test_glue_depth_below_window_and_malformed_points_exit_2():
    curves = ["curve", "glue", "--n", "1", "--s", "1", "--n2", "1", "--s2", ""]
    # the glued curve has genus 1, so its window needs depth 2g+4 = 6; at
    # depth 0 the window read genus 0 and the command exited 1
    for depth in ("0", "5"):
        code, out, err = run_in_process(curves + ["--q", "0,1", "--q2", "0,2",
                                                  "--depth", depth])
        assert code == 2 and out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == \
            ["error: depth must be at least 2g+4 = 6 for a trustworthy window "
             "of genus 1, got %s" % depth]
    code, out, _ = run_in_process(curves + ["--q", "0,1", "--q2", "0,2",
                                            "--depth", "6"])
    assert code == 0 and json.loads(out)["genus"] == 1
    for flag, other in (("--q", "--q2"), ("--q2", "--q")):
        for bad in ("7", "0,1,2", "a,1", "0,x", "", "0,1/0"):
            code, out, err = run_in_process(curves + [flag, bad, other, "0,2"])
            assert code == 2 and out == "", (flag, bad)
            assert [line for line in err.splitlines() if line.startswith("error:")] == \
                ["error: %s must be 'branch,point' (an integer and a rational), "
                 "got %r" % (flag, bad)], (flag, bad)


def _window_json(branches, depth, dim, codim, codim_matches=True):
    verdicts = {"complement_condition": True, "intersection_is_constants": True}
    if codim_matches is not None:
        verdicts["codim_matches"] = codim_matches
    return {"branches": branches, "codim": codim, "depth": depth,
            "dim_subspace": dim, "intersection_dim": 1, "verdicts": verdicts}


@pytest.mark.parametrize("argv, expected", [
    (["curve", "krichever", "--n", "2", "--s", "1", "--a", "2", "--depth", "8"],
     _window_json(2, 8, 16, 1)),
    (["curve", "krichever", "--n", "1", "--s", "1", "--depth", "6"],
     _window_json(1, 6, 6, 1)),
    (["curve", "glue", "--n", "1", "--s", "1", "--n2", "1", "--s2", "1",
      "--q", "0,1", "--q2", "0,1", "--depth", "10"],
     {"additive": True, "branches": 2, "expected_genus": 2, "genus": 2,
      "window": _window_json(2, 10, 19, 2, codim_matches=None)}),
])
def test_window_json_is_pinned(argv, expected):
    # the whole stdout of the window commands, as the branch polynomials
    # give it; a glued window carries no codim verdict
    code, out, _ = run_in_process(argv)
    assert code == 0
    assert json.loads(out) == expected


@pytest.mark.parametrize("argv, digests", [
    (["--n", "1", "--g", "1", "--w", "", "--order", "5", "--seed", "3"],
     {"random": "a6ded847324652b93bed1ad1c3eff0e189c17b8bdb670b6cf70dd5dae58928d3",
      "normalize": "37630c697cc1cff6c68cb1737e2699ef746040969a6c4cbe295c8cd408ea0c6f",
      "extend": "29cdaa89372307cb5279df4a2d70a0350ccdd01a5a6fe839c71b60235eb6fed3"}),
    (["--n", "2", "--g", "1", "--w", "1,1", "--order", "5", "--seed", "4"],
     {"random": "9238899c0f7b8b8e32c1a41d41891f9ee00b8b60bef053b93b5e8b8953fcbb4e",
      "normalize": "ab69a80796640fe078550af5ae4115beb596e993703f32f1c51c8ebf3b325685",
      "extend": "29782f73b6c2796bed1b1e471f9cc221bc46474b3e3bdc6a467c27e178d7c83d"}),
], ids=["E11", "E21"])
def test_ainf_stdout_is_pinned(tmp_path, argv, digests):
    # the whole stdout of a seeded random structure, its normal form with
    # witness and its extension, byte for byte: the gauge action, compose
    # and the structure residual all feed these
    code, out, _ = run_in_process(["ainf", "random"] + argv)
    assert code == 0
    got = {"random": hashlib.sha256(out.encode()).hexdigest()}
    path = tmp_path / "m.json"
    path.write_text(out)
    for cmd in ("normalize", "extend"):
        code, out, _ = run_in_process(["ainf", cmd, "--input", str(path)])
        assert code == 0
        got[cmd] = hashlib.sha256(out.encode()).hexdigest()
    assert got == digests


@pytest.mark.parametrize("argv, digest", [
    (["--n", "1", "--g", "1", "--w", "", "--order", "6"],
     "ab1524125d86a29208d1e49b4060f0956ea9c8afa9a338dac020112be7ed788c"),
    (["--n", "2", "--g", "1", "--w", "1,1", "--order", "5"],
     "52fb5aa1d2d35a38eeda1e4dab75e70c8dd58b16fac63830de218817322a44a4"),
], ids=["E11", "E21"])
def test_ainf_equations_stdout_is_pinned(argv, digest):
    # the whole stdout of the moduli equations on the canonical section,
    # byte for byte: the complements' free indices name the unknowns
    code, out, _ = run_in_process(["ainf", "equations"] + argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digests", [
    (["--n", "1", "--g", "1", "--i-max", "3", "--t-min", "-6"],
     {"json": "6cb3c7c08cc6e50576934d5ced5b7cf8c6645a885d0aec69a4fdf5a35c0e4d10",
      "csv": "d26f9a87812e36e2ae342132d70abe65da3da9700b14c73842cfb2a96b769775"}),
    (["--n", "2", "--g", "1", "--w", "1/2,-2/3", "--i-max", "3", "--t-min", "-5"],
     {"json": "3ac9e540cabd73a19cc2068c4eeccc401a14b53ac49cb6e78565e6d3fbf0c27e",
      "csv": "25cb5856220560e5e57ad049c55f6393ccd47b9d046757165f99a92b28d338be"}),
], ids=["E11", "E21-nonintegral"])
def test_hh_stdout_is_pinned(argv, digests):
    # the whole stdout of the HH table, as JSON and as CSV, byte for byte:
    # every cleared rank of the reduced complex feeds it
    got = {}
    for fmt in ("json", "csv"):
        code, out, _ = run_in_process(["hh"] + argv + ["--format", fmt])
        assert code == 0
        got[fmt] = hashlib.sha256(out.encode()).hexdigest()
    assert got == digests


def test_curve_special_stdout_is_pinned():
    # the relations of a curve with rational a, printed from its rules
    code, out, _ = run_in_process(["curve", "special", "--n", "3", "--s", "1",
                                   "--a", "1/2,3/2"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "1d201c660834d2c5876b0ac39550f100dbeb63ce68d3cb09da3fe33caabba2f3"


def test_poly_closure_stdout_is_pinned_on_rational_rules(tmp_path):
    # the closure fails, so the printed remainders are normal forms whose
    # rule tails mix ints (h^2 -> f^3) and Fractions (f*hS -> 1/2*h)
    system = {"generators": [{"name": "hS", "degree": 1}, {"name": "f", "degree": 2},
                             {"name": "h", "degree": 3}],
              "order_weights": [20, 36, 55],
              "relations": ["h^2 - f^3", "f*hS - 1/2*h", "h*hS - 2/3*f^2"]}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system))
    code, out, _ = run_in_process(["poly", "closure", "--input", str(path)])
    assert code == 1
    assert [f["remainder"] for f in json.loads(out)["closure"]["failures"]] == \
        ["1/6*f^2*h", "1/6*f^3"]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "a0bed1ef193494f8a88b981368f6410663aae2cf7f5d068192a232e195bd1712"


def _non_dyadic_structure(E, N):
    """The trivial structure gauged by a gauge on every other cochain basis
    element, with the denominators 3, 5 and 7 in turn."""
    cx = reduced_complex(E)
    comps = {}
    for k in range(2, N):
        values = {}
        for i, (key, w) in enumerate(cx.basis(k, 1 - k)):
            if i % 2 == 0:
                values.setdefault(key, {})[w] = Fraction((-1) ** (i // 2) * (i % 4 + 1),
                                                         (3, 5, 7)[i // 2 % 3])
        comps[k] = Cochain(E, k, 1 - k, values)
    f = ainfinity.GaugeTransform(E, N, comps)
    return ainfinity.gauge_act(f, ainfinity.AnStructure.trivial(E, N))


def _denominator(fam):
    return math.lcm(*(x.denominator for c in fam.comps.values()
                      for vec in c.values.values() for x in vec.values()))


@pytest.mark.parametrize("n, rows, order, digest", [
    (1, [], 6, "1872111bf9a1e92bf0a3ba175215a568ba1b1d54ac0cb3acacab92d0e6c0abee"),
    (2, [[Fraction(1, 2), Fraction(-2, 3)]], 5,
     "492e22a5192ee3faf21219399fbe9bbc3350ec59516c981398d38ed54cfae22e"),
], ids=["E11", "E21-nonintegral"])
def test_ainf_normalize_stdout_is_pinned_with_non_dyadic_steps(tmp_path, n, rows,
                                                                order, digest):
    # the step gauges bring denominators the structure does not have, so
    # the common denominator of witness and structure grows along the sweep
    E = build_ew(SubspaceW(n, rows))
    m = _non_dyadic_structure(E, order)
    _, wit = ainfinity.normalize(m)
    assert _denominator(wit) % 3 == 0 and _denominator(wit) % 7 == 0
    assert math.lcm(E.denominator, _denominator(m), _denominator(wit)) != \
        math.lcm(E.denominator, _denominator(m))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cli.structure_file_json(E, m)))
    code, out, _ = run_in_process(["ainf", "normalize", "--input", str(path)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _leaf_paths(parser, head=()):
    """The command path of every leaf subcommand under parser."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        return [head]
    return [path for name, p in groups[0].choices.items()
            for path in _leaf_paths(p, head + (name,))]


_SMALL_E11 = ["--n", "1", "--g", "1", "--w", ""]
_SMALL_CURVE = ["--n", "1", "--s", "1"]
_LEAF_RUNS = [
    (("ew",), _SMALL_E11),
    (("hh",), _SMALL_E11 + ["--i-max", "1", "--t-min", "-1"]),
    (("hh",), _SMALL_E11 + ["--i-max", "1", "--t-min", "-1", "--format", "csv"]),
    (("ainf", "normalize"), ["--input", "{structure}"]),
    (("ainf", "equiv"), ["--input", "{structure}", "--input2", "{structure}"]),
    (("ainf", "extend"), ["--input", "{structure}"]),
    (("ainf", "equations"), _SMALL_E11 + ["--order", "3"]),
    (("ainf", "tangent"), _SMALL_E11 + ["--order", "3"]),
    (("ainf", "random"), _SMALL_E11 + ["--order", "3"]),
    (("curve", "special"), _SMALL_CURVE + ["--deg-bound", "6"]),
    (("curve", "basis"), _SMALL_CURVE + ["--deg-bound", "4"]),
    (("curve", "component"), _SMALL_CURVE),
    (("curve", "krichever"), _SMALL_CURVE + ["--depth", "6"]),
    (("curve", "glue"), _SMALL_CURVE + ["--n2", "1", "--s2", "", "--q", "0,1",
                                        "--q2", "0,2", "--depth", "6"]),
    (("genus1", "relations"), []),
    (("genus1", "transition"), []),
    (("genus1", "hilbert"), ["--u", "1", "--v", "1", "--nmax", "3"]),
    (("genus1", "hilbert"), ["--u", "1", "--v", "1", "--nmax", "3", "--format", "csv"]),
    (("genus1", "compare"), ["--u", "1", "--v", "1", "--nmax", "3"]),
    (("genus1", "bundle"), []),
    (("poly", "closure"), ["--input", "{system}"]),
]


def test_leaf_runs_cover_every_subcommand():
    assert sorted(_leaf_paths(cli.build_parser())) == \
        sorted({path for path, _ in _LEAF_RUNS})


@pytest.mark.parametrize("path, args", _LEAF_RUNS,
                         ids=[" ".join(path + tuple(args[-2:] if "--format" in args else ()))
                              for path, args in _LEAF_RUNS])
def test_every_subcommand_names_itself_and_writes_out(tmp_path, path, args):
    # the manifest names the command path, and --out takes both the output
    # and the manifest, leaving stdout and stderr empty
    (tmp_path / "m.json").write_text(_valid_structure_text())
    (tmp_path / "sys.json").write_text(json.dumps(
        {"generators": [{"name": "x", "degree": 1}], "relations": ["x^2"]}))
    argv = list(path) + [a.format(structure=tmp_path / "m.json",
                                  system=tmp_path / "sys.json") for a in args]
    code, out, err = run_in_process(argv)
    assert code == 0, err
    manifest = json.loads(err)
    assert manifest["subcommand"] == " ".join(path)
    target = tmp_path / "out.txt"
    code, out2, err2 = run_in_process(argv + ["--out", str(target)])
    assert (code, out2, err2) == (0, "", "")
    assert target.read_text() == out
    written = json.loads((tmp_path / "out.txt.manifest.json").read_text())
    assert written["parameters"].pop("out") == str(target)
    del written["wall_time_s"], manifest["wall_time_s"]
    assert written == manifest


def test_internal_error_exit_3(tmp_path, monkeypatch):
    path = str(tmp_path / "m.json")
    code, _, _ = run_in_process(["ainf", "random", "--n", "1", "--g", "1", "--w", "",
                                 "--order", "4", "--seed", "3", "--out", path])
    assert code == 0

    def broken(m):
        raise AssertionError("gauge step did not land on the complement")

    monkeypatch.setattr(ainfinity, "normalize", broken)
    code, out, err = run_in_process(["ainf", "normalize", "--input", path])
    assert code == 3
    assert out == ""
    assert err == "internal error: gauge step did not land on the complement\n"


@functools.lru_cache(maxsize=None)
def _valid_structure_text():
    """A valid order-4 structure file on E_W for n = g = 1, built on first
    use and kept as text so each caller parses a fresh copy."""
    E = build_ew(SubspaceW.zero(1))
    m = ainfinity.random_structure(E, 4, random.Random(3))
    return json.dumps(cli.structure_file_json(E, m))


_junk = st.one_of(
    st.sampled_from([None, True, 0, -1, 2, 3, 4.0, 2.5, -1.0, float("inf"),
                     float("nan"), "", "x", "1/0", "-1/2", "A1", "e_O", "zz",
                     [], [[1]], [["1/0"]], [[float("inf")]], {}]),
    st.integers(-3, 8), st.text(max_size=3))


def _field_paths(obj):
    """Paths to the structure file's fields by kind: the order, the
    algebra data, each component's arity, t and entry list, and each
    entry's arguments, value labels and coefficients."""
    kinds = {"top": [("order",), ("components",), ("algebra",)],
             "algebra": [("algebra", "n"), ("algebra", "w")],
             "component": [], "entry": [], "arg": [], "coefficient": []}
    for k, comp in obj["components"].items():
        at = ("components", k)
        kinds["component"] += [at + ("arity",), at + ("t",), at + ("entries",)]
        for e, ent in enumerate(comp["entries"]):
            kinds["entry"] += [at + ("entries", e, "args"), at + ("entries", e, "value")]
            kinds["arg"] += [at + ("entries", e, "args", i) for i in range(len(ent["args"]))]
            kinds["coefficient"] += [at + ("entries", e, "value", lab) for lab in ent["value"]]
    return kinds


@st.composite
def _edits(draw):
    """(path, action, value): one change that may break the file: a key
    deleted or renamed, a value replaced, a list grown or shortened."""
    kinds = _field_paths(json.loads(_valid_structure_text()))
    path = draw(st.sampled_from(kinds[draw(st.sampled_from(sorted(kinds)))]))
    action = draw(st.sampled_from(["delete", "replace", "append", "drop", "relabel"]))
    value = draw(st.sampled_from(["zz", "e_O", "A1", "3", "9", "-1"])
                 if action == "relabel" else _junk)
    return path, action, value


def _edited(path, action, value):
    obj = json.loads(_valid_structure_text())
    *head, key = path
    parent = obj
    for k in head:
        parent = parent[k]
    if action == "delete" and isinstance(parent, dict):
        del parent[key]
    elif action == "relabel" and isinstance(parent, dict):
        parent[value] = parent.pop(key)
    elif action == "append" and isinstance(parent[key], list):
        parent[key].append(value)
    elif action == "drop" and isinstance(parent[key], list):
        parent[key] = parent[key][:-1]
    else:
        parent[key] = value
    return obj


@given(_edits(), st.sampled_from(["normalize", "extend", "equiv"]))
@example((("order",), "replace", 4.0), "normalize")
@example((("algebra", "n"), "replace", -1), "normalize")
@example((("algebra", "w"), "replace", [[float("inf")]]), "extend")
@example((("components", "3", "arity"), "replace", 3.0), "normalize")
@example((("components", "3", "entries", 0, "value", "A1"), "replace", float("inf")), "extend")
@example((("components", "3", "entries", 0, "value", "A1"), "replace", "1/0"), "equiv")
def test_fuzz_malformed_structure_files(edit, sub):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as fh:
            json.dump(_edited(*edit), fh)
        argv = ["ainf", sub, "--input", path]
        if sub == "equiv":
            good = os.path.join(tmp, "good.json")
            with open(good, "w") as fh:
                fh.write(_valid_structure_text())
            argv += ["--input2", good]
        code, _, err = run_in_process(argv)
    assert code in (0, 1, 2, 3), (code, err)


def test_misshaped_a_matrix_is_usage_error():
    # on n = 3, S = {1} the a-matrix is 1 x 2: a short row, an extra row and
    # a long row are each one error line and exit 2, never a traceback or a
    # silently truncated matrix; the line names the flag of the bad matrix
    curve = ["--n", "3", "--s", "1"]
    good = curve + ["--q", "0,1", "--depth", "4"]
    runs = []
    for a in ("2", "1,2;3", "1,2,3"):
        runs += [("--a", ["curve", "basis", *curve, "--a", a, "--deg-bound", "4"]),
                 ("--a", ["curve", "special", *curve, "--a", a, "--deg-bound", "8"]),
                 ("--a", ["curve", "component", *curve, "--a", a]),
                 ("--a", ["curve", "krichever", *curve, "--a", a, "--depth", "4"]),
                 ("--a", ["curve", "glue", *good, "--a", a, "--n2", "3", "--s2", "1",
                          "--a2", "1,2", "--q2", "0,2"]),
                 ("--a2", ["curve", "glue", *good, "--a", "1,2", "--n2", "3",
                           "--s2", "1", "--a2", a, "--q2", "0,2"])]
    for flag, argv in runs:
        code, out, err = run_in_process(argv)
        assert code == 2, (argv, err)
        assert out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == ["error: %s must be a 1 x 2 matrix (|S| x (n - |S|))"
                          % flag], argv
    code, _, err = run_in_process(["curve", "basis", *curve, "--a", "1,2",
                                   "--deg-bound", "4"])
    assert code == 0, err


def test_repeated_or_unordered_s_is_usage_error():
    # the rows of --a follow S in increasing order, so --s 3,1 --a "5;7"
    # would put 5 on branch 1; a repeated index would be read as a smaller S
    runs = [("--s", ["curve", "component", "--n", "3", "--s", "3,1", "--a", "5;7"]),
            ("--s", ["curve", "component", "--n", "3", "--s", "1,1"]),
            ("--s", ["curve", "basis", "--n", "3", "--s", "1,1", "--a", "1",
                     "--deg-bound", "4"]),
            ("--s2", ["curve", "glue", "--n", "1", "--s", "1", "--q", "0,1",
                      "--n2", "3", "--s2", "3,1", "--a2", "5;7", "--q2", "0,2",
                      "--depth", "8"]),
            ("--s2", ["curve", "glue", "--n", "1", "--s", "1", "--q", "0,1",
                      "--n2", "3", "--s2", "2,2", "--q2", "0,2", "--depth", "8"])]
    for flag, argv in runs:
        code, out, err = run_in_process(argv)
        assert code == 2, (argv, err)
        assert out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: %s " % flag), (argv, err)
    code, _, err = run_in_process(["curve", "component", "--n", "3", "--s", "1,3",
                                   "--a", "5;7"])
    assert code == 0, err


_flag_runs = st.one_of(
    st.tuples(st.just(("ainf", "random", "--n", "1", "--g", "1", "--w", "", "--order")),
              st.integers(-3, 4)),
    st.tuples(st.just(("ainf", "tangent", "--n", "1", "--g", "1", "--w", "", "--order")),
              st.integers(-3, 5)),
    st.tuples(st.just(("hh", "--n", "1", "--g", "1", "--w", "", "--t-min", "-2",
                       "--i-max")), st.integers(-3, 1)),
    st.tuples(st.just(("genus1", "hilbert", "--u", "1", "--v", "1", "--nmax")),
              st.integers(-3, 6)),
    st.tuples(st.just(("curve", "basis", "--n", "2", "--s", "1", "--a", "2",
                       "--deg-bound")), st.integers(-3, 4)),
    st.tuples(st.just(("curve", "basis", "--n", "3", "--s", "1", "--deg-bound", "4",
                       "--a")),
              st.sampled_from(["", "2", "1,2", "1,2,3", "1,2;3", "1;2", ";", "1/0,1"])),
    st.tuples(st.just(("ew", "--g", "0", "--n")), st.integers(-2, 2)),
    st.tuples(st.just(("ew", "--n", "2", "--g", "1", "--w")),
              st.sampled_from(["", "1,1", "1/0,1", "a,b", "1,1;2,2", "1", ";", "0,0"])),
)


@given(_flag_runs)
def test_fuzz_flag_values(run):
    head, value = run
    code, _, err = run_in_process(list(head) + [str(value)])
    assert code in (0, 1, 2, 3), (code, err)
