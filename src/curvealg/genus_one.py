"""Explicit genus-1, two-point computations: the first affine chart of the
moduli space, the chart-to-chart transition with its polynomial certificate,
Hilbert functions of the twisted invariant algebras, and the comparison with
the weight-(2, 3, 4) projective plane.

The chart has coordinates (a12, b12, e12, pi1); the universal affine curve
over it is cut out by three relations in generators h12 (degree 1), f1
(degree 2), h1 (degree 3), with the derived constant
s1 = e12^2 - b12 (pi1 + b12^2).  The transition to the second chart inverts
a12; it is verified both on rational charts and once and for all over the
function field, by adjoining an inverse of a12 as a variable with the
rewrite rule a * a_inv -> 1 and reducing every certificate polynomial to
exactly zero.
"""

from __future__ import annotations

from .curves import ORDER_W_F, ORDER_W_H, ORDER_W_HS
from .linalg import rat, rat_str
from .poly import PolyRing, RelationSystem

GEN_NAMES = ("h12", "f1", "h1")
GEN_WEIGHTS = (1, 2, 3)
# the special curves' monomial order on h12, f1, h1, which play hS_2, f_1, h_1
GEN_ORDER_W = (ORDER_W_HS, ORDER_W_F, ORDER_W_H)


class U1Chart:
    """A point (or symbolic point) of the first chart; s1 is always derived,
    never stored."""

    __slots__ = ("a12", "b12", "e12", "pi1")

    def __init__(self, a12, b12, e12, pi1):
        self.a12 = rat(a12) if isinstance(a12, (int, str)) else a12
        self.b12 = rat(b12) if isinstance(b12, (int, str)) else b12
        self.e12 = rat(e12) if isinstance(e12, (int, str)) else e12
        self.pi1 = rat(pi1) if isinstance(pi1, (int, str)) else pi1

    @property
    def s1(self):
        return self.e12 * self.e12 - self.b12 * (self.pi1 + self.b12 * self.b12)

    def astuple(self):
        return (self.a12, self.b12, self.e12, self.pi1)

    def __eq__(self, other):
        return isinstance(other, U1Chart) and self.astuple() == other.astuple()

    def __repr__(self):
        return "U1Chart(a=%s, b=%s, e=%s, pi=%s)" % self.astuple()

    def to_json(self):
        return {"a12": rat_str(self.a12), "b12": rat_str(self.b12),
                "e12": rat_str(self.e12), "pi1": rat_str(self.pi1),
                "s1": rat_str(self.s1)}


def _chart_relations(gens, chart):
    """The three chart relations in the generators gens = (h12, f1, h1); the
    chart's coordinates may be rational constants or coefficient variables
    of the generators' ring."""
    h12, f1, h1 = gens
    a, b, e, pi = chart.astuple()
    r1 = h1 * h1 - (f1 ** 3 + f1 * pi + chart.s1)
    r2 = f1 * h12 - (h1 * a + h12 * b + a * e)
    r3 = h1 * h12 - (f1 ** 2 * a + h12 * e + f1 * a * b + a * (pi + b * b))
    return [r1, r2, r3]


def u1_relations(chart) -> RelationSystem:
    """Relation system of the universal affine curve over one chart point."""
    ring = PolyRing(GEN_NAMES, GEN_WEIGHTS, GEN_ORDER_W)
    rels = _chart_relations([ring.var(n) for n in GEN_NAMES], chart)
    return RelationSystem(ring, rels, claimed_basis="h12^m, f1^m, f1^m h1")


class TransitionCertificate:
    __slots__ = ("chart2", "remainders", "s2_consistent")

    def __init__(self, chart2, remainders, s2_consistent):
        self.chart2 = chart2
        self.remainders = remainders
        self.s2_consistent = s2_consistent

    @property
    def passed(self):
        return self.s2_consistent and all(not r for r in self.remainders.values())

    def to_json(self):
        return {"verdict": "PASS" if self.passed else "FAIL",
                "s2_consistent": self.s2_consistent,
                "remainders": {k: str(v) for k, v in self.remainders.items()}}


def transition(chart) -> TransitionCertificate:
    """Numeric transition: computes the second-chart constants and certifies,
    by normal-form reduction in the first chart's quotient ring, that the
    transformed generators satisfy the second-chart relations."""
    a = chart.a12
    if not a:
        raise ValueError("transition needs a12 invertible")
    chart2, remainders = _certify(u1_relations(chart), chart, 1 / a, bound=16)
    return TransitionCertificate(chart2, remainders, chart2.s1 == a ** 6 * chart.s1)


def _second_chart(chart, ainv):
    """(a21, b21, e21, pi2) = (1/a12, a12^2 b12, a12^3 e12, a12^4 pi1)."""
    a, b, e, pi = chart.astuple()
    return U1Chart(ainv, a * a * b, a ** 3 * e, a ** 4 * pi)


def _certify(rs, chart, ainv, bound):
    """The second chart, and the normal forms in rs of its three relations
    in the transformed generators
        f2 = h12^2 - a^2 f1 - a^2 b,
        h2 = h12^3 - a^3 h1 - 3 a^2 b h12 - 2 a^3 e,   h21 = h12 / a;
    ainv stands for 1/a in rs's ring."""
    h12, f1, h1 = (rs.ring.var(n) for n in GEN_NAMES)
    a, b, e, _ = chart.astuple()
    f2 = h12 ** 2 - f1 * a * a - a * a * b
    h2 = h12 ** 3 - h1 * a ** 3 - h12 * (3 * a * a * b) - 2 * a ** 3 * e
    chart2 = _second_chart(chart, ainv)
    labels = ("h2^2 = f2^3 + pi2 f2 + s2", "f2 h21 = a21 h2 + b21 h21 + a21 e21",
              "h2 h21 = a21 f2^2 + e21 h21 + a21 b21 f2 + a21(pi2+b21^2)")
    certificate = _chart_relations((h12 * ainv, f2, h2), chart2)
    return chart2, {label: rs.normal_form(c, bound)
                    for label, c in zip(labels, certificate)}


def transition_symbolic():
    """The chart transition as an exact identity over the function field:
    generators together with coefficient variables a, b, e, pi and a formal
    inverse ai of a subject to a*ai = 1.  Every certificate polynomial must
    reduce to zero."""
    names = GEN_NAMES + ("a", "ai", "b", "e", "pi")
    weights = GEN_WEIGHTS + (0, 0, 0, 0, 0)
    order_w = GEN_ORDER_W + (0, 0, 0, 0, 0)
    ring = PolyRing(names, weights, order_w)
    h12, f1, h1, a, ai, b, e, pi = (ring.var(n) for n in names)
    chart = U1Chart(a, b, e, pi)
    rels = _chart_relations((h12, f1, h1), chart) + [a * ai - 1]
    rs = RelationSystem(ring, rels, claimed_basis="chart basis over Q(a,b,e,pi)")
    chart2, remainders = _certify(rs, chart, ai, bound=20)
    # the two evaluations of s2 agree identically
    remainders["s2 = a^6 s1"] = rs.normal_form(a ** 6 * chart.s1 - chart2.s1, 20)
    return TransitionCertificate(chart2, remainders, True)


def bundle_glue_check(chart, symbolic=False):
    """The three cocycle identities t1^2 b21 = t2^2 b12, t1^3 e21 = t2^3 e12,
    t1^4 pi2 = t2^4 pi1 at (t1 : t2) = (1 : a12); symbolically over
    Q[a, b, e, pi], or at a chart point together with its transition
    certificate."""
    if symbolic:
        ring = PolyRing(("a", "b", "e", "pi"), (1, 1, 1, 1))
        chart = U1Chart(*(ring.var(n) for n in ("a", "b", "e", "pi")))
        # no inverse of a here; the identities do not read a21
        chart2, passed, show = _second_chart(chart, None), True, str
    else:
        if not chart.a12:
            raise ValueError("bundle gluing needs a12 nonzero")
        cert = transition(chart)
        chart2, passed, show = cert.chart2, cert.passed, rat_str
    a = chart.a12
    checks = {
        "t1^2 b21 = t2^2 b12": chart2.b12 - a * a * chart.b12,
        "t1^3 e21 = t2^3 e12": chart2.e12 - a ** 3 * chart.e12,
        "t1^4 pi2 = t2^4 pi1": chart2.pi1 - a ** 4 * chart.pi1,
    }
    passed = passed and all(not v for v in checks.values())
    return {"verdict": "PASS" if passed else "FAIL",
            "identities": {k: show(v) for k, v in checks.items()}}


# ---------------------------------------------------------------------------
# Hilbert functions of the invariant algebras


class HilbertSpec:
    __slots__ = ("u", "v", "n_max")

    def __init__(self, u, v, n_max):
        self.u = rat(u)
        self.v = rat(v)
        self.n_max = n_max


def _degrees(spec):
    """{n: n(u + v - 1)} over the n <= n_max at which nu, nv and that
    degree are all nonnegative integers; A(u, v)_n is zero at the others."""
    u, v = spec.u, spec.v
    degs = {}
    for n in range(spec.n_max + 1):
        d = n * (u + v - 1)
        if all(x >= 0 and x.denominator == 1 for x in (n * u, n * v, d)):
            degs[n] = int(d)
    return degs


def hilbert_A(spec):
    """dim A(u, v)_n for n = 0..n_max: the number of monomials
    t1^{nu} t2^{nv} x^k y^l z^m with nu, nv nonnegative integers and
    2k + 3l + 4m = n(u + v - 1)."""
    degs = _degrees(spec)
    return [_count_234(degs[n]) if n in degs else 0 for n in range(spec.n_max + 1)]


def _count_234(d):
    count = 0
    for m in range(d // 4 + 1):
        for l in range((d - 4 * m) // 3 + 1):
            if (d - 4 * m - 3 * l) % 2 == 0:
                count += 1
    return count


def _ring_234_dims(dmax):
    """Graded dimensions of the weight-(2,3,4) polynomial ring, by the
    coin-counting recurrence (the independent enumeration path)."""
    dp = [0] * (dmax + 1)
    dp[0] = 1
    for w in (2, 3, 4):
        for d in range(w, dmax + 1):
            dp[d] += dp[d - w]
    return dp


class CompareReport:
    __slots__ = ("status", "passed", "veronese_step", "mismatches", "dims")

    def __init__(self, status, passed, veronese_step=None, mismatches=None,
                 dims=None):
        self.status = status
        self.passed = passed
        self.veronese_step = veronese_step
        self.mismatches = mismatches or []
        self.dims = dims or []

    def __bool__(self):
        return self.passed

    def to_json(self):
        return {"status": self.status,
                "verdict": "PASS" if self.passed else "FAIL",
                "veronese_step": self.veronese_step,
                "mismatches": self.mismatches,
                "dims": self.dims}


def weighted_proj_compare(spec):
    """Compare dim A(u, v)_n against the graded dimensions of the
    weight-(2,3,4) ring.  Outside the u, v >= 0, u + v > 1 regime the
    algebra degenerates and the comparison is refused with the documented
    status."""
    u, v = spec.u, spec.v
    if u < 0 or v < 0:
        return CompareReport("degenerate: u or v negative, A reduces to constants",
                             False)
    if u + v < 1:
        return CompareReport("degenerate: u+v < 1, A reduces to constants", False)
    if u + v == 1:
        return CompareReport(
            "degenerate: u+v = 1, A is a polynomial ring in one variable and "
            "the quotient reduces to a point", False)
    lhs = hilbert_A(spec)
    degs = _degrees(spec)
    dp = _ring_234_dims(max(degs.values(), default=0))
    step = None
    mismatches = []
    dims = []
    for n in range(spec.n_max + 1):
        rhs = dp[degs[n]] if n in degs else 0
        dims.append({"n": n, "dim_A": lhs[n], "dim_ring": rhs})
        if n in degs and n > 0 and lhs[n] > 0 and step is None:
            step = degs[n]
        if lhs[n] != rhs:
            mismatches.append(n)
    return CompareReport("compared", not mismatches, step, mismatches, dims)
