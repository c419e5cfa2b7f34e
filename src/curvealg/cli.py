"""Command-line driver: every computation as a subcommand with JSON output
(and CSV for the tables of hh and genus1 hilbert), reproducible run
manifests, and exit codes that gate on verdicts (0 = PASS, 1 = FAIL,
2 = usage error, 3 = internal invariant violated) so the acceptance suite
can be run as a shell script.  Each cmd_* function returns its payload and
verdict; `main` alone writes the output and the manifest.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from functools import partial

from . import __version__
from .linalg import ONE, rat, rat_str
from .quiver import SubspaceW, build_ew
from .hochschild import vanishing_scan
from . import ainfinity as ainf
from .curves import (SpecialCurveData, special_curve_algebra, verify_basis,
                     component_type, grassmannian_point, krichever_window,
                     branch_model, glue)
from .genus_one import (U1Chart, u1_relations, transition, transition_symbolic,
                        bundle_glue_check, HilbertSpec, hilbert_A,
                        weighted_proj_compare)
from .poly import BoundExceededError, RelationSystem


def _rat(text, flag):
    """rat(text); a malformed value is a ValueError naming the flag."""
    try:
        return rat(text)
    except ValueError as exc:
        raise ValueError("%s: %s" % (flag, exc)) from None


def _parse_rows(text, flag):
    return [[_rat(x, flag) for x in row.split(",")]
            for row in (text or "").split(";") if row.strip()]


def _parse_ints(text, flag):
    """The comma-separated integers of text; a malformed entry is a
    ValueError naming the flag."""
    if text is None or text.strip() == "":
        return []
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValueError("%s: %s" % (flag, exc)) from None


def _subspace(args):
    n = args.n
    if n < 0:
        raise ValueError("--n must be at least 0, got %d" % n)
    if args.g is not None and not 0 <= args.g <= n:
        raise ValueError("--g must be at least 0 and at most n=%d, got %d"
                         % (n, args.g))
    if args.w is not None:
        rows = _parse_rows(args.w, "--w")
        try:
            w = SubspaceW(n, rows)
        except ValueError as exc:
            raise ValueError("--w %s" % exc) from None
    else:
        g = args.g if args.g is not None else 0
        w = SubspaceW(n, [[1 if j == i else 0 for j in range(n)] for i in range(n - g)])
    if args.g is not None and w.g != args.g:
        raise ValueError("W has corank %d, not g=%d" % (w.g, args.g))
    return w


def _curve_data(args, suffix=""):
    n = getattr(args, "n" + suffix)
    S = _parse_ints(getattr(args, "s" + suffix), "--s" + suffix)
    rows = _parse_rows(getattr(args, "a" + suffix, None), "--a" + suffix)
    if rows:
        return SpecialCurveData.from_rows(n, S, rows, name="--a" + suffix,
                                          s_name="--s" + suffix)
    return SpecialCurveData(n, S, s_name="--s" + suffix)


def _chart(args):
    """The U1Chart of the --a12, --b12, --e12 and --pi1 flags."""
    return U1Chart(*(_rat(getattr(args, f), "--" + f)
                     for f in ("a12", "b12", "e12", "pi1")))


def _gluing_point(text, flag):
    """(branch, x) from 'branch,point', an integer and a rational; other
    text is a ValueError naming the flag."""
    parts = text.split(",")
    try:
        if len(parts) != 2:
            raise ValueError
        return int(parts[0]), rat(parts[1])
    except ValueError:
        raise ValueError("%s must be 'branch,point' (an integer and a "
                         "rational), got %r" % (flag, text)) from None


def _from_file(path, kind, parse):
    """parse(JSON content of path); a malformed file raises ValueError,
    and so does one that repeats a key within an object."""
    with open(path) as fh:
        try:
            return parse(json.load(fh, object_pairs_hook=_unique_keys))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError("malformed %s file %s: %s %s"
                             % (kind, path, type(exc).__name__, exc)) from None


def _unique_keys(pairs):
    """A JSON object as a dict; a key given twice raises ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError("repeated key %r" % key)
        obj[key] = value
    return obj


def _parse_algebra(obj):
    return build_ew(SubspaceW(obj["algebra"]["n"], [[rat(x) for x in row]
                                                    for row in obj["algebra"]["w"]]))


def _parse_structure(obj):
    E = _parse_algebra(obj)
    return E, ainf.AnStructure.from_json(E, obj)


def structure_file_json(E, m):
    out = m.to_json()
    out["algebra"] = {"n": E.n, "g": E.g, "w": E.w.to_json()["rows"]}
    return out


# -- subcommand implementations ----------------------------------------------
# Each returns (payload, ok), and hh and genus1 hilbert also their CSV text.


def cmd_ew(args):
    E = build_ew(_subspace(args))
    return E.to_json(), True


def cmd_hh(args):
    if args.t_min > -1:
        raise ValueError("--t-min must be at most -1, got %d" % args.t_min)
    E = build_ew(_subspace(args))
    table = vanishing_scan(E, args.i_max, args.t_min)
    ok = all(table.hh(i, t) == 0
             for i in (0, 1) if i <= args.i_max
             for t in range(args.t_min, 0))
    payload = table.to_json()
    payload["low_degree_vanishing"] = ok
    return payload, ok, table.to_csv()


def cmd_ainf_normalize(args):
    E, m = _from_file(args.input, "structure", _parse_structure)
    nf, wit = ainf.normalize(m)
    payload = {"normal_form": structure_file_json(E, nf),
               "witness": wit.to_json()}
    return payload, True


def cmd_ainf_equiv(args):
    E, m = _from_file(args.input, "structure", _parse_structure)
    if _from_file(args.input2, "structure", _parse_algebra).to_json() != E.to_json():
        raise ValueError("structures live on different algebras")
    m2 = _from_file(args.input2, "structure", partial(ainf.AnStructure.from_json, E))
    res = ainf.equivalent(m, m2)
    payload = {"equal": res.equal, "hh1_vanishing_verified": res.hh1_verified}
    return payload, res.equal


def cmd_ainf_extend(args):
    E, m = _from_file(args.input, "structure", _parse_structure)
    res = ainf.extend_step(m)
    payload = {"solvable": res.solvable}
    if res.solvable:
        payload["m_next"] = res.candidate.to_json()
    else:
        payload["obstruction"] = res.obstruction.to_json()
    return payload, res.solvable


def cmd_ainf_equations(args):
    E = build_ew(_subspace(args))
    eqs = ainf.emit_moduli_equations(E, args.order)
    want = ainf.tangent_dims(E, args.order)["hh2_total"]
    corank = eqs.corank_at_zero()
    payload = eqs.to_json()
    payload["corank_at_zero"] = corank
    payload["sum_hh2"] = want
    return payload, corank == want


def cmd_ainf_tangent(args):
    E = build_ew(_subspace(args))
    dims = ainf.tangent_dims(E, args.order)
    payload = {"hh2_by_order": {str(k): v for k, v in dims["hh2_by_order"].items()},
               "hh2_total": dims["hh2_total"],
               "grassmannian": dims["grassmannian"],
               "total": dims["total"]}
    return payload, True


def cmd_ainf_random(args):
    E = build_ew(_subspace(args))
    rng = random.Random(args.seed)
    m = ainf.random_structure(E, args.order, rng)
    return structure_file_json(E, m), True


def cmd_curve_special(args):
    data = _curve_data(args)
    pres = special_curve_algebra(data)
    rep = pres.system.closure_check(args.deg_bound)
    payload = {"curve": data.to_json(),
               "relations": pres.system.to_json(),
               "closure": rep.to_json()}
    return payload, rep.passed


def cmd_curve_basis(args):
    data = _curve_data(args)
    rep = verify_basis(data, args.deg_bound)
    payload = {"curve": data.to_json(), "basis": rep.to_json()}
    return payload, rep.passed


def cmd_curve_component(args):
    data = _curve_data(args)
    kinds = {str(i): component_type(data, i) for i in data.S}
    w = grassmannian_point(data)
    payload = {"components": kinds, "grassmannian_point": w.to_json()}
    return payload, True


def cmd_curve_krichever(args):
    data = _curve_data(args)
    win = krichever_window(data, args.depth)
    return win.to_json(), all(win.verdicts.values())


def cmd_curve_glue(args):
    q, q2 = _gluing_point(args.q, "--q"), _gluing_point(args.q2, "--q2")
    left = branch_model(_curve_data(args), args.depth)
    right = branch_model(_curve_data(args, "2"), args.depth)
    _, report = glue(left, q, right, q2)
    return report, report["additive"]


def cmd_genus1_relations(args):
    chart = _chart(args)
    rs = u1_relations(chart)
    rep = rs.closure_check(args.deg_bound)
    payload = {"chart": chart.to_json(), "relations": rs.to_json(),
               "closure": rep.to_json()}
    return payload, rep.passed


def cmd_genus1_transition(args):
    if args.symbolic:
        cert = transition_symbolic()
        payload = {"symbolic": True, "certificate": cert.to_json()}
        return payload, cert.passed
    chart = _chart(args)
    cert = transition(chart)
    back = transition(cert.chart2)
    payload = {"chart": chart.to_json(), "chart2": cert.chart2.to_json(),
               "certificate": cert.to_json(),
               "involutive": back.chart2 == chart}
    return payload, cert.passed and back.chart2 == chart


def cmd_genus1_hilbert(args):
    spec = HilbertSpec(_rat(args.u, "--u"), _rat(args.v, "--v"), args.nmax)
    dims = hilbert_A(spec)
    csv_text = "n,dim\n" + "".join("%d,%d\n" % (n, d) for n, d in enumerate(dims))
    return {"u": rat_str(spec.u), "v": rat_str(spec.v), "dims": dims}, True, csv_text


def cmd_genus1_compare(args):
    spec = HilbertSpec(_rat(args.u, "--u"), _rat(args.v, "--v"), args.nmax)
    rep = weighted_proj_compare(spec)
    return rep.to_json(), rep.passed


def cmd_genus1_bundle(args):
    if args.symbolic:
        rep = bundle_glue_check(None, symbolic=True)
    else:
        rep = bundle_glue_check(_chart(args))
    return rep, rep["verdict"] == "PASS"


def cmd_poly_closure(args):
    rs = _from_file(args.input, "relation system", RelationSystem.from_json)
    rep = rs.closure_check(args.deg_bound)
    return {"closure": rep.to_json()}, rep.passed


# -- argument wiring -----------------------------------------------------------


def _int_at_least(low):
    """argparse type: an integer no smaller than `low`."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value
    parse.__name__ = "integer"
    return parse


def _flag(*names, **kwargs):
    """A parser step adding one argument."""
    return lambda p: p.add_argument(*names, **kwargs)


_INPUT = _flag("--input", required=True, help="input JSON file")
_ORDER = _flag("--order", type=_int_at_least(3), default=6)
_DEG_BOUND = _flag("--deg-bound", type=_int_at_least(0), default=12)
_SYMBOLIC = _flag("--symbolic", action="store_true")


def _add_subspace(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int)
    p.add_argument("--w", help="rows of W: comma-separated rationals, rows ';'-separated")


def _add_curve(p, suffix=""):
    p.add_argument("--n" + suffix, type=int, required=True)
    p.add_argument("--s" + suffix, default="", help="the subset S, e.g. '1,3'")
    p.add_argument("--a" + suffix, default="", help="a-matrix rows ';'-separated")


def _add_chart(p, a12="0"):
    # transition and bundle need a12 invertible and pass a12="1", so their
    # bare commands run
    p.add_argument("--a12", default=a12)
    p.add_argument("--b12", default="0")
    p.add_argument("--e12", default="0")
    p.add_argument("--pi1", default="0")


def _add_hilbert_spec(p):
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--nmax", type=_int_at_least(0), default=40)


def _leaf(sub, name, func, *steps, csv=False, **kwargs):
    """Subcommand `name` of `sub`, running `func`: the arguments of `steps`,
    then --out, then --format where `csv` says the command has a table."""
    p = sub.add_parser(name, **kwargs)
    for step in steps:
        step(p)
    p.add_argument("--out", help="write output to this path (manifest beside it)")
    if csv:
        p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=func)


def build_parser():
    top = argparse.ArgumentParser(
        prog="curvealg",
        description="exact workbench for quiver algebra deformations and "
                    "special-curve moduli computations")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def group(name, description):
        # main reads the leaf's name from <name>_command
        return sub.add_parser(name, help=description).add_subparsers(
            dest=name + "_command", required=True)

    _leaf(sub, "ew", cmd_ew, _add_subspace, help="build and dump the quiver algebra of W")
    _leaf(sub, "hh", cmd_hh, _add_subspace,
          _flag("--i-max", type=_int_at_least(0), default=2),
          _flag("--t-min", type=int, default=-6),
          csv=True, help="bidegree scan of Hochschild cohomology")

    asub = group("ainf", "A_n structure computations")
    _leaf(asub, "normalize", cmd_ainf_normalize, _INPUT)
    _leaf(asub, "equiv", cmd_ainf_equiv, _INPUT, _flag("--input2", required=True))
    _leaf(asub, "extend", cmd_ainf_extend, _INPUT)
    _leaf(asub, "equations", cmd_ainf_equations, _add_subspace, _ORDER)
    _leaf(asub, "tangent", cmd_ainf_tangent, _add_subspace, _ORDER)
    _leaf(asub, "random", cmd_ainf_random, _add_subspace, _ORDER,
          _flag("--seed", type=int, default=0))

    csub = group("curve", "special-curve computations")
    _leaf(csub, "special", cmd_curve_special, _add_curve, _DEG_BOUND)
    _leaf(csub, "basis", cmd_curve_basis, _add_curve, _DEG_BOUND)
    _leaf(csub, "component", cmd_curve_component, _add_curve)
    _leaf(csub, "krichever", cmd_curve_krichever, _add_curve,
          _flag("--depth", type=_int_at_least(0), default=8))
    _leaf(csub, "glue", cmd_curve_glue, _add_curve, partial(_add_curve, suffix="2"),
          _flag("--q", required=True, help="left gluing point 'branch,point'"),
          _flag("--q2", required=True, help="right gluing point 'branch,point'"),
          _flag("--depth", type=_int_at_least(0), default=10))

    gsub = group("genus1", "genus-1 two-point chart computations")
    _leaf(gsub, "relations", cmd_genus1_relations, _add_chart, _DEG_BOUND)
    _leaf(gsub, "transition", cmd_genus1_transition, partial(_add_chart, a12="1"),
          _SYMBOLIC)
    _leaf(gsub, "hilbert", cmd_genus1_hilbert, _add_hilbert_spec, csv=True)
    _leaf(gsub, "compare", cmd_genus1_compare, _add_hilbert_spec)
    _leaf(gsub, "bundle", cmd_genus1_bundle, partial(_add_chart, a12="1"), _SYMBOLIC)

    psub = group("poly", "relation-system utilities")
    _leaf(psub, "closure", cmd_poly_closure, _INPUT, _DEG_BOUND)

    return top


def _write(path, text, stream):
    """text to the file at path, or to stream when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        stream.write(text)


def main(argv=None):
    """Run one subcommand: its output goes to --out or stdout, and its
    manifest beside --out or to stderr; the exit code is 0 (PASS), 1 (FAIL),
    2 (usage error) or 3 (internal invariant violated)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        payload, ok, *table = args.func(args)
        if getattr(args, "format", "json") == "csv":
            text = table[0]
        else:
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write(args.out, text, sys.stdout)
        manifest = {
            "subcommand": " ".join(filter(None, (
                args.command, getattr(args, args.command + "_command", None)))),
            "parameters": {k: v for k, v in sorted(vars(args).items())
                           if k != "func" and v is not None},
            "seed": getattr(args, "seed", None),
            "version": __version__,
            "python": platform.python_version(),
            "rational_backend": type(ONE).__name__,
            "wall_time_s": round(time.time() - t0, 6),
        }
        _write(args.out and args.out + ".manifest.json",
               json.dumps(manifest, sort_keys=True) + "\n", sys.stderr)
        return 0 if ok else 1
    except (ValueError, OSError, json.JSONDecodeError, BoundExceededError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        parser.print_usage(sys.stderr)
        return 2
    except AssertionError as exc:
        sys.stderr.write("internal error: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
