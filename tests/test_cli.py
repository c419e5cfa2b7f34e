"""CLI behaviour: exit codes, determinism, manifests, file formats."""

import json
import subprocess
import sys


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
    for i, bad in enumerate(({"algebra": {"n": 1}}, unknown_label, off_basis, [1, 2])):
        path = tmp_path / ("bad%d.json" % i)
        path.write_text(json.dumps(bad))
        for sub in ("normalize", "extend"):
            out = run_cli("ainf", sub, "--input", str(path))
            assert out.returncode == 2, (bad, sub, out.stderr)
            assert "malformed structure file" in out.stderr
            assert "Traceback" not in out.stderr


def test_out_of_range_flags_rejected():
    for args in (("ainf", "tangent", "--n", "1", "--g", "1", "--w", "", "--order", "2"),
                 ("ainf", "equations", "--n", "1", "--g", "1", "--w", "", "--order", "2"),
                 ("genus1", "hilbert", "--u", "1", "--v", "1", "--nmax", "-1"),
                 ("genus1", "compare", "--u", "1", "--v", "1", "--nmax", "-1")):
        out = run_cli(*args)
        assert out.returncode == 2, args
        assert "must be at least" in out.stderr
    assert run_cli("genus1", "hilbert", "--u", "1", "--v", "1",
                   "--nmax", "0").returncode == 0
    assert run_cli("ainf", "tangent", "--n", "1", "--g", "1", "--w", "",
                   "--order", "3").returncode == 0
