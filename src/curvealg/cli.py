"""Command-line driver: every computation as a subcommand with JSON/CSV
output, reproducible run manifests, and exit codes that gate on verdicts
(0 = PASS, 1 = FAIL, 2 = usage error) so the acceptance suite can be run
as a shell script.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import __version__
from .linalg import rat, rat_str
from .quiver import SubspaceW, build_ew
from .hochschild import reduced_complex, vanishing_scan
from . import ainfinity as ainf
from .curves import (SpecialCurveData, special_curve_algebra, verify_basis,
                     component_type, grassmannian_point, krichever_window,
                     branch_model, glue)
from .genus_one import (U1Chart, u1_relations, transition, transition_symbolic,
                        bundle_glue_check, HilbertSpec, hilbert_A,
                        weighted_proj_compare)
from .poly import RelationSystem


def _parse_rows(text):
    if text is None or text.strip() == "":
        return []
    return [[rat(x) for x in row.split(",")] for row in text.split(";") if row.strip()]


def _parse_ints(text):
    if text is None or text.strip() == "":
        return []
    return [int(x) for x in text.split(",")]


def _subspace(args):
    n = args.n
    if args.w is not None:
        rows = _parse_rows(args.w)
    else:
        g = args.g if args.g is not None else 0
        rows = [[1 if j == i else 0 for j in range(n)] for i in range(n - g)]
    w = SubspaceW(n, rows)
    if args.g is not None and w.g != args.g:
        raise ValueError("W has corank %d, not g=%d" % (w.g, args.g))
    return w


def _curve_data(args, suffix=""):
    n = getattr(args, "n" + suffix)
    S = _parse_ints(getattr(args, "s" + suffix))
    rows = _parse_rows(getattr(args, "a" + suffix, None) or "")
    if rows:
        return SpecialCurveData.from_rows(n, S, rows)
    return SpecialCurveData(n, S)


def _structure_from_file(path):
    """Read a structure file; a malformed one raises ValueError."""
    with open(path) as fh:
        obj = json.load(fh)
    try:
        w = SubspaceW(obj["algebra"]["n"], [[rat(x) for x in row]
                                            for row in obj["algebra"]["w"]])
        E = build_ew(w)
        m = ainf.AnStructure.from_json(E, obj)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError("malformed structure file %s: %s %s"
                         % (path, type(exc).__name__, exc)) from None
    cx = reduced_complex(E)
    for k, c in m.comps.items():
        index = cx.index(k, 2 - k)
        if any((key, x) not in index for key, vec in c.values.items() for x in vec):
            raise ValueError("malformed structure file %s: m_%d has an entry "
                             "outside its cochain basis" % (path, k))
    return E, m


def structure_file_json(E, m):
    out = m.to_json()
    out["algebra"] = {"n": E.n, "g": E.g, "w": E.w.matrix.to_json()}
    return out


class Run:
    """Output and manifest handling for one CLI invocation."""

    def __init__(self, args, subcommand):
        self.args = args
        self.subcommand = subcommand
        self.t0 = time.time()

    def emit(self, payload, csv_text=None, ok=True):
        args = self.args
        fmt = getattr(args, "format", "json")
        if fmt == "csv":
            if csv_text is None:
                raise ValueError("this subcommand has no CSV form")
            text = csv_text
        else:
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if getattr(args, "out", None):
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        manifest = {
            "subcommand": self.subcommand,
            "parameters": {k: v for k, v in sorted(vars(args).items())
                           if k not in ("func",) and v is not None},
            "seed": getattr(args, "seed", None),
            "version": __version__,
            "wall_time_s": round(time.time() - self.t0, 6),
        }
        mtext = json.dumps(manifest, sort_keys=True) + "\n"
        if getattr(args, "out", None):
            with open(args.out + ".manifest.json", "w") as fh:
                fh.write(mtext)
        else:
            sys.stderr.write(mtext)
        return 0 if ok else 1


# -- subcommand implementations ----------------------------------------------


def cmd_ew(args):
    run = Run(args, "ew")
    E = build_ew(_subspace(args))
    return run.emit(E.to_json())


def cmd_hh(args):
    run = Run(args, "hh")
    E = build_ew(_subspace(args))
    table = vanishing_scan(E, args.i_max, args.t_min)
    ok = all(table.hh(i, t) == 0
             for i in (0, 1) if i <= args.i_max
             for t in range(args.t_min, 0))
    payload = table.to_json()
    payload["low_degree_vanishing"] = ok
    return run.emit(payload, csv_text=table.to_csv(), ok=ok)


def cmd_ainf_normalize(args):
    run = Run(args, "ainf normalize")
    E, m = _structure_from_file(args.input)
    nf, wit = ainf.normalize(m)
    payload = {"normal_form": structure_file_json(E, nf),
               "witness": wit.to_json()}
    return run.emit(payload)


def cmd_ainf_equiv(args):
    run = Run(args, "ainf equiv")
    E, m = _structure_from_file(args.input)
    E2, m2 = _structure_from_file(args.input2)
    if E.to_json() != E2.to_json():
        raise ValueError("structures live on different algebras")
    m2 = ainf.AnStructure(E, m2.N, {k: ainf.Cochain.from_json(E, c.to_json())
                                    for k, c in m2.comps.items()})
    res = ainf.equivalent(m, m2)
    payload = {"equal": res.equal, "hh1_vanishing_verified": res.hh1_verified}
    return run.emit(payload, ok=res.equal)


def cmd_ainf_extend(args):
    run = Run(args, "ainf extend")
    E, m = _structure_from_file(args.input)
    res = ainf.extend_step(m)
    payload = {"solvable": res.solvable}
    if res.solvable:
        payload["m_next"] = res.candidate.to_json()
    else:
        payload["obstruction"] = res.obstruction.to_json()
    return run.emit(payload, ok=res.solvable)


def cmd_ainf_equations(args):
    run = Run(args, "ainf equations")
    E = build_ew(_subspace(args))
    eqs = ainf.emit_moduli_equations(E, args.order)
    cx = reduced_complex(E)
    want = sum(cx.hh_dim(2, 2 - k) for k in range(3, args.order + 1))
    corank = eqs.corank_at_zero()
    payload = eqs.to_json()
    payload["corank_at_zero"] = corank
    payload["sum_hh2"] = want
    return run.emit(payload, ok=corank == want)


def cmd_ainf_tangent(args):
    run = Run(args, "ainf tangent")
    E = build_ew(_subspace(args))
    dims = ainf.tangent_dims(E, args.order)
    payload = {"hh2_by_order": {str(k): v for k, v in dims["hh2_by_order"].items()},
               "hh2_total": dims["hh2_total"],
               "grassmannian": dims["grassmannian"],
               "total": dims["total"]}
    return run.emit(payload)


def cmd_ainf_random(args):
    run = Run(args, "ainf random")
    E = build_ew(_subspace(args))
    rng = random.Random(args.seed)
    m = ainf.random_structure(E, args.order, rng)
    return run.emit(structure_file_json(E, m))


def cmd_curve_special(args):
    run = Run(args, "curve special")
    data = _curve_data(args)
    pres = special_curve_algebra(data)
    rep = pres.system.closure_check(args.deg_bound)
    payload = {"curve": data.to_json(),
               "relations": pres.system.to_json(),
               "closure": rep.to_json()}
    return run.emit(payload, ok=rep.passed)


def cmd_curve_basis(args):
    run = Run(args, "curve basis")
    data = _curve_data(args)
    rep = verify_basis(data, args.deg_bound)
    payload = {"curve": data.to_json(), "basis": rep.to_json()}
    return run.emit(payload, ok=rep.passed)


def cmd_curve_component(args):
    run = Run(args, "curve component")
    data = _curve_data(args)
    kinds = {str(i): component_type(data, i) for i in data.S}
    w = grassmannian_point(data)
    payload = {"components": kinds, "grassmannian_point": w.to_json()}
    return run.emit(payload)


def cmd_curve_krichever(args):
    run = Run(args, "curve krichever")
    data = _curve_data(args)
    win = krichever_window(data, args.depth)
    ok = all(v for v in win.verdicts.values() if v is not None) and \
        win.verdicts["codim_matches"]
    return run.emit(win.to_json(), ok=ok)


def cmd_curve_glue(args):
    run = Run(args, "curve glue")
    left = branch_model(_curve_data(args), args.depth)
    right = branch_model(_curve_data(args, "2"), args.depth)
    qb, qx = args.q.split(",")
    qb2, qx2 = args.q2.split(",")
    _, report = glue(left, (int(qb), rat(qx)), right, (int(qb2), rat(qx2)))
    return run.emit(report, ok=report["additive"])


def cmd_genus1_relations(args):
    run = Run(args, "genus1 relations")
    chart = U1Chart(args.a12, args.b12, args.e12, args.pi1)
    rs = u1_relations(chart)
    rep = rs.closure_check(args.deg_bound)
    payload = {"chart": chart.to_json(), "relations": rs.to_json(),
               "closure": rep.to_json()}
    return run.emit(payload, ok=rep.passed)


def cmd_genus1_transition(args):
    run = Run(args, "genus1 transition")
    if args.symbolic:
        cert = transition_symbolic()
        payload = {"symbolic": True, "certificate": cert.to_json()}
        return run.emit(payload, ok=cert.passed)
    chart = U1Chart(args.a12, args.b12, args.e12, args.pi1)
    cert = transition(chart)
    back = transition(cert.chart2)
    payload = {"chart": chart.to_json(), "chart2": cert.chart2.to_json(),
               "certificate": cert.to_json(),
               "involutive": back.chart2 == chart}
    return run.emit(payload, ok=cert.passed and back.chart2 == chart)


def cmd_genus1_hilbert(args):
    run = Run(args, "genus1 hilbert")
    spec = HilbertSpec(rat(args.u), rat(args.v), args.nmax)
    dims = hilbert_A(spec)
    csv_text = "n,dim\n" + "".join("%d,%d\n" % (n, d) for n, d in enumerate(dims))
    return run.emit({"u": rat_str(spec.u), "v": rat_str(spec.v), "dims": dims},
                    csv_text=csv_text)


def cmd_genus1_compare(args):
    run = Run(args, "genus1 compare")
    spec = HilbertSpec(rat(args.u), rat(args.v), args.nmax)
    rep = weighted_proj_compare(spec)
    return run.emit(rep.to_json(), ok=rep.passed)


def cmd_genus1_bundle(args):
    run = Run(args, "genus1 bundle")
    if args.symbolic:
        rep = bundle_glue_check(None, symbolic=True)
    else:
        rep = bundle_glue_check(U1Chart(args.a12, args.b12, args.e12, args.pi1))
    return run.emit(rep, ok=rep["verdict"] == "PASS")


def cmd_poly_closure(args):
    run = Run(args, "poly closure")
    with open(args.input) as fh:
        rs = RelationSystem.from_json(json.load(fh))
    rep = rs.closure_check(args.deg_bound)
    return run.emit({"closure": rep.to_json()}, ok=rep.passed)


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


def _add_common(p):
    p.add_argument("--out", help="write output to this path (manifest beside it)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--seed", type=int, default=0)


def _add_subspace(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int)
    p.add_argument("--w", help="rows of W: comma-separated rationals, rows ';'-separated")


def _add_curve(p, suffix=""):
    p.add_argument("--n" + suffix, type=int, required=True)
    p.add_argument("--s" + suffix, default="", help="the subset S, e.g. '1,3'")
    p.add_argument("--a" + suffix, default="", help="a-matrix rows ';'-separated")


def _add_chart(p):
    p.add_argument("--a12", default="0")
    p.add_argument("--b12", default="0")
    p.add_argument("--e12", default="0")
    p.add_argument("--pi1", default="0")


def build_parser():
    top = argparse.ArgumentParser(
        prog="curvealg",
        description="exact workbench for quiver algebra deformations and "
                    "special-curve moduli computations")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ew", help="build and dump the quiver algebra of W")
    _add_subspace(p)
    _add_common(p)
    p.set_defaults(func=cmd_ew)

    p = sub.add_parser("hh", help="bidegree scan of Hochschild cohomology")
    _add_subspace(p)
    p.add_argument("--i-max", type=int, default=2)
    p.add_argument("--t-min", type=int, default=-6)
    _add_common(p)
    p.set_defaults(func=cmd_hh)

    ap = sub.add_parser("ainf", help="A_n structure computations")
    asub = ap.add_subparsers(dest="ainf_command", required=True)

    p = asub.add_parser("normalize")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ainf_normalize)

    p = asub.add_parser("equiv")
    p.add_argument("--input", required=True)
    p.add_argument("--input2", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ainf_equiv)

    p = asub.add_parser("extend")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ainf_extend)

    p = asub.add_parser("equations")
    _add_subspace(p)
    p.add_argument("--order", type=_int_at_least(3), default=6)
    _add_common(p)
    p.set_defaults(func=cmd_ainf_equations)

    p = asub.add_parser("tangent")
    _add_subspace(p)
    p.add_argument("--order", type=_int_at_least(3), default=6)
    _add_common(p)
    p.set_defaults(func=cmd_ainf_tangent)

    p = asub.add_parser("random")
    _add_subspace(p)
    p.add_argument("--order", type=int, default=6)
    _add_common(p)
    p.set_defaults(func=cmd_ainf_random)

    cp = sub.add_parser("curve", help="special-curve computations")
    csub = cp.add_subparsers(dest="curve_command", required=True)

    p = csub.add_parser("special")
    _add_curve(p)
    p.add_argument("--deg-bound", type=int, default=12)
    _add_common(p)
    p.set_defaults(func=cmd_curve_special)

    p = csub.add_parser("basis")
    _add_curve(p)
    p.add_argument("--deg-bound", type=int, default=12)
    _add_common(p)
    p.set_defaults(func=cmd_curve_basis)

    p = csub.add_parser("component")
    _add_curve(p)
    _add_common(p)
    p.set_defaults(func=cmd_curve_component)

    p = csub.add_parser("krichever")
    _add_curve(p)
    p.add_argument("--depth", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=cmd_curve_krichever)

    p = csub.add_parser("glue")
    _add_curve(p)
    _add_curve(p, suffix="2")
    p.add_argument("--q", required=True, help="left gluing point 'branch,xvalue'")
    p.add_argument("--q2", required=True, help="right gluing point 'branch,xvalue'")
    p.add_argument("--depth", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_curve_glue)

    gp = sub.add_parser("genus1", help="genus-1 two-point chart computations")
    gsub = gp.add_subparsers(dest="genus1_command", required=True)

    p = gsub.add_parser("relations")
    _add_chart(p)
    p.add_argument("--deg-bound", type=int, default=12)
    _add_common(p)
    p.set_defaults(func=cmd_genus1_relations)

    p = gsub.add_parser("transition")
    _add_chart(p)
    p.add_argument("--symbolic", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_genus1_transition)

    p = gsub.add_parser("hilbert")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--nmax", type=_int_at_least(0), default=40)
    _add_common(p)
    p.set_defaults(func=cmd_genus1_hilbert)

    p = gsub.add_parser("compare")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--nmax", type=_int_at_least(0), default=40)
    _add_common(p)
    p.set_defaults(func=cmd_genus1_compare)

    p = gsub.add_parser("bundle")
    _add_chart(p)
    p.add_argument("--symbolic", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_genus1_bundle)

    pp = sub.add_parser("poly", help="relation-system utilities")
    psub = pp.add_subparsers(dest="poly_command", required=True)

    p = psub.add_parser("closure")
    p.add_argument("--input", required=True, help="relation system JSON file")
    p.add_argument("--deg-bound", type=int, default=12)
    _add_common(p)
    p.set_defaults(func=cmd_poly_closure)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        parser.print_usage(sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
