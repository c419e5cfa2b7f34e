"""Seeded inputs, operations and answer checks of the benchmark workloads.

An input is a plain JSON-able dict, so the inputs can be generated in one
process and run in another.  `make_inputs` returns the operations of one
round; `run_op` runs one of them cold (fresh algebra or presentation, no
cache carried over from an earlier operation) and returns the list of
failed checks, empty when the answer is right.

Every check compares against an independent computation or a property the
method must have, never against stored output.
"""

from __future__ import annotations

import itertools
import random

from curvealg import ainfinity, curves, hochschild, quiver
from curvealg.ainfinity import AnStructure, GaugeTransform
from curvealg.hochschild import Cochain
from curvealg.linalg import rat, rat_str
from curvealg.quiver import SubspaceW

# hh-crosscheck: the `curvealg hh` table i <= 3 from the reduced complex and
# from the unnormalized oracle.  The full window t in [-6, 0] on (2,1) costs
# 22 s in the oracle alone (15 s of it at t = -6) on a 2-core Python 3.11
# machine, longer than a run, and a run needs several rounds for steady
# medians.  So the reduced table stops at t = -5 on (2,1) and the oracle one
# degree short of the reduced table; (1,1) keeps t = -6, where the last
# HH^2 of its tangent sum sits.  A round takes about 7 s there.
HH_I_MAX = 3
HH_T_MIN = {(1, 1): -6, (2, 1): -5}
HH_ORACLE_T_MIN = {(1, 1): -5, (2, 1): -4}

GAUGE_ORDER = 6
GAUGE_MAGNITUDES = ("1", "2", "1/2", "3/2")

CURVE_N_MAX = 4
CURVE_DEGREE = 10


def _nonintegral(rng):
    """A seeded rational p/q with q in {2, 3} that is not an integer."""
    while True:
        p = rng.choice((1, 2, 3, 4, 5)) * rng.choice((1, -1))
        q = rng.choice((2, 3))
        if p % q:
            return "%d/%d" % (p, q)


def _line(rng, n):
    """A seeded line in Q^n with every coordinate nonzero and non-integral,
    so the algebra has the same sparsity pattern for every seed."""
    return [[_nonintegral(rng) for _ in range(n)]]


# -- input generation ---------------------------------------------------------


def make_inputs(workload, seed, quick=False):
    """The operations of one round of `workload` for `seed`.  `quick` gives
    tiny inputs that still run every kind of operation and check."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "hh-crosscheck":
        return _hh_inputs(rng, quick)
    if workload == "gauge-normalize":
        return _gauge_inputs(rng, quick)
    if workload == "curve-basis":
        return _curve_inputs(rng, quick)
    raise ValueError("unknown workload %r" % workload)


def _hh_inputs(rng, quick):
    algebras = [(1, [])] if quick else [(1, []), (2, _line(rng, 2))]
    return [{"kind": "hh", "n": n, "rows": rows,
             "t_min": HH_T_MIN[(n, 1)],
             "oracle_t_min": -3 if quick else HH_ORACLE_T_MIN[(n, 1)]}
            for n, rows in algebras]


def _random_gauge_json(n, rows, order, rng):
    """A seeded gauge on E_W: every other cochain basis element (a support
    that does not depend on the seed) gets a coefficient of seeded
    magnitude and sign."""
    E = quiver.build_ew(SubspaceW(n, [[rat(x) for x in r] for r in rows]))
    cx = hochschild.reduced_complex(E)
    comps = {}
    for k in range(2, order):
        values = {}
        for i, (key, w) in enumerate(cx.basis(k, 1 - k)):
            if i % 2 == 0:
                c = rat(rng.choice(GAUGE_MAGNITUDES)) * rng.choice((1, -1))
                values.setdefault(key, {})[w] = c
        comps[k] = Cochain(E, k, 1 - k, values)
    return GaugeTransform(E, order, comps).to_json()


def _gauge_inputs(rng, quick):
    algebras = [(1, [])] if quick else \
        [(1, []), (1, []), (2, _line(rng, 2)), (2, _line(rng, 2))]
    order = 4 if quick else GAUGE_ORDER
    return [{"kind": "gauge", "n": n, "rows": rows, "order": order,
             "gauge": _random_gauge_json(n, rows, order, rng)}
            for n, rows in algebras]


def _curve_inputs(rng, quick):
    n_max, degree = (2, 6) if quick else (CURVE_N_MAX, CURVE_DEGREE)
    ops = []
    for n in range(1, n_max + 1):
        for size in range(n + 1):
            for S in itertools.combinations(range(1, n + 1), size):
                comp = [j for j in range(1, n + 1) if j not in S]
                ops.append({"kind": "curve", "n": n, "S": list(S),
                            "a": [[_nonintegral(rng) for _ in comp] for _ in S],
                            "degree": degree})
    # Corrupted control: the (n, S) = (2, {1}) curve with the sign of a_12
    # flipped in the image of hS_2.  verify_basis must reject it.
    base = next(op for op in ops if op["n"] == 2 and op["S"] == [1])
    a12 = rat(base["a"][0][0])
    ops.append(dict(base, kind="curve-control",
                    corrupt={"hS_2": [[1, 1, "1"], [0, 1, rat_str(-a12)]]}))
    return ops


# -- operations ---------------------------------------------------------------


def run_op(op):
    """Run one operation cold; returns the failed checks."""
    return _OPS[op["kind"]](op)


def _algebra(op):
    return quiver.build_ew(SubspaceW(op["n"], [[rat(x) for x in r] for r in op["rows"]]))


def hh_table(cx, t_min):
    return {(i, t): cx.hh_dim(i, t)
            for t in range(t_min, 1) for i in range(HH_I_MAX + 1)}


def _hh_op(op):
    E = _algebra(op)
    reduced = hh_table(hochschild.reduced_complex(E), op["t_min"])
    oracle = hh_table(hochschild.unnormalized_complex(E), op["oracle_t_min"])
    return check_hh(E.n, E.g, reduced, oracle)


def check_hh(n, g, reduced, oracle):
    """Reduced and unnormalized dimensions agree on every cell both cover;
    HH^0 and HH^1 vanish below t = 0; the negative HH^2 plus the
    Grassmannian term g(n-g) is dim U^ns_{g,n} = 3g - 3 + 2n."""
    errors = []
    for cell, dim in sorted(oracle.items()):
        if reduced.get(cell) != dim:
            errors.append("(n,g)=(%d,%d) HH^%d_%d: reduced %s, unnormalized %d"
                          % (n, g, cell[0], cell[1], reduced.get(cell), dim))
    for (i, t), dim in sorted(reduced.items()):
        if i <= 1 and t < 0 and dim:
            errors.append("(n,g)=(%d,%d) HH^%d_%d = %d, expected 0" % (n, g, i, t, dim))
    tangent = sum(dim for (i, t), dim in reduced.items() if i == 2 and t < 0)
    if tangent + g * (n - g) != 3 * g - 3 + 2 * n:
        errors.append("(n,g)=(%d,%d) tangent dimension %d + %d, expected %d"
                      % (n, g, tangent, g * (n - g), 3 * g - 3 + 2 * n))
    return errors


def _gauge_op(op):
    E = _algebra(op)
    f = GaugeTransform.from_json(E, op["gauge"])
    m = ainfinity.gauge_act(f, AnStructure.trivial(E, op["order"]))
    nf, witness = ainfinity.normalize(m)
    return check_gauge(f, m, nf, witness)


def check_gauge(f, m, nf, witness):
    """m = gauge_act(f, trivial) normalizes to the trivial structure, the
    witness carries m to the normal form, and the composition law
    gauge_act(w, gauge_act(f, 0)) = gauge_act(compose(w, f), 0) holds."""
    errors = []
    if not nf.is_trivial():
        errors.append("normal form of a gauge of the trivial structure is %r" % nf)
    moved = ainfinity.gauge_act(witness, m)
    if moved != nf:
        errors.append("gauge_act(witness, m) differs from the normal form")
    composed = ainfinity.gauge_act(ainfinity.gauge_compose(witness, f),
                                   AnStructure.trivial(m.E, m.N))
    if composed != moved:
        errors.append("gauge_act(compose(w, f), 0) differs from gauge_act(w, gauge_act(f, 0))")
    return errors


def _curve_data(op):
    S = op["S"]
    comp = [j for j in range(1, op["n"] + 1) if j not in S]
    a = {(i, j): rat(op["a"][r][c]) for r, i in enumerate(S) for c, j in enumerate(comp)}
    return curves.SpecialCurveData(op["n"], S, a)


def _corrupt_images(op):
    return {name: {(b, e): rat(c) for b, e, c in terms}
            for name, terms in op["corrupt"].items()}


def _curve_op(op):
    data = _curve_data(op)
    # The curve's point W of the Grassmannian names the algebra E_W of the
    # identification; its loop count must be the genus |S|.
    E = quiver.build_ew(curves.grassmannian_point(data))
    report = curves.verify_basis(data, op["degree"])
    return check_curve(data, op["degree"], report, E)


def check_curve(data, degree, report, E):
    """verify_basis passes; the claimed basis has 1, n-g, n, n, ...
    monomials in degrees 0, 1, 2, ... (Riemann-Roch for the nonspecial
    divisor p_1 + ... + p_n); E_W has g loops."""
    n, g = data.n, data.g
    errors = []
    if not report.passed:
        errors.append("%r: verify_basis failed: %s" % (data, report.reason))
    pres = curves.special_curve_algebra(data)
    counts = [0] * (degree + 1)
    for e in pres.claimed_basis_monomials(degree):
        counts[pres.ring.wdeg(e)] += 1
    expected = [1, n - g] + [n] * (degree - 1)
    if counts != expected[:degree + 1]:
        errors.append("%r: claimed basis counts %s, Riemann-Roch gives %s"
                      % (data, counts, expected[:degree + 1]))
    if E.g != g:
        errors.append("%r: E_W of the Grassmannian point has %d loops" % (data, E.g))
    return errors


def _curve_control_op(op):
    report = curves.verify_basis(_curve_data(op), op["degree"], corrupt=_corrupt_images(op))
    return check_control(report)


def check_control(report):
    """A curve with a corrupted generator image must fail verification."""
    if report.passed:
        return ["verify_basis accepted a corrupted generator image"]
    return []


_OPS = {"hh": _hh_op, "gauge": _gauge_op, "curve": _curve_op,
        "curve-control": _curve_control_op}
