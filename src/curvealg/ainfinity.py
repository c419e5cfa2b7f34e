"""Truncated minimal A_n-structures on the quiver algebra, gauge action via
the bar coalgebra, canonical normalization onto pivot-rule complements,
obstruction classes, tangent data, and the moduli equation systems.

An order-N structure stores the higher products m_3, ..., m_N (m_1 = 0 and
m_2 = the algebra multiplication are implicit); m_k is a cochain of arity k
and internal degree 2-k.  A gauge transform stores f_2, ..., f_{N-1} with
f_k of arity k and internal degree 1-k (f_1 = id implicit).

The gauge action is computed by conjugating the coderivation of the
structure with the coalgebra morphism of the gauge on the truncated tensor
coalgebra of the suspended radical, so all signs come mechanically from the
Koszul rule.  The composition convention is fixed so that a gauge with only
an f_2 component sends m_3 to m_3 + delta(f_2), and the action law
gauge_act(f, gauge_act(g, m)) = gauge_act(compose(f, g), m) holds exactly.

Only terms that can be nonzero are evaluated.  Block compositions are
enumerated with block sizes in {1} and the support of the gauge, once per
(arity, support).  gauge_act factors the conjugate H o (b2 + m) o F through
its middle layer: the sum of m_q over the F-blocks of a sub-tuple is
computed once per sub-tuple, in a memo local to the call, and then fed to
every outer split.  Arities up to the lowest gauge component are copied
unchanged, which covers every step gauge f_{k-1} of normalize.
"""

from __future__ import annotations

import functools

from .linalg import (ExactMatrix, ONE, canonical_complement, image_basis,
                     rat, solve)
from .hochschild import (Cochain, _accum, _sign, compose as cochain_compose,
                         differential_apply, eval_b2, reduced_complex)
from .poly import PolyRing


class AnStructure:
    """Minimal A_N-structure data: components m_k for 3 <= k <= N."""

    __slots__ = ("E", "N", "comps")

    def __init__(self, E, N, comps=None):
        if N < 2:
            raise ValueError("order must be at least 2")
        self.E = E
        self.N = N
        self.comps = {}
        for k, c in (comps or {}).items():
            if not 3 <= k <= N:
                raise ValueError("component m_%d out of range" % k)
            if (c.s, c.t) != (k, 2 - k):
                raise ValueError("m_%d must have arity %d and degree %d" % (k, k, 2 - k))
            if not c.is_zero():
                self.comps[k] = c

    @classmethod
    def trivial(cls, E, N):
        return cls(E, N)

    def component(self, k):
        got = self.comps.get(k)
        return got if got is not None else Cochain(self.E, k, 2 - k)

    def is_trivial(self):
        return not self.comps

    def __eq__(self, other):
        return (isinstance(other, AnStructure) and self.E is other.E
                and self.N == other.N and self.comps == other.comps)

    def to_json(self):
        return {"order": self.N,
                "components": {str(k): self.comps[k].to_json()
                               for k in sorted(self.comps)}}

    @classmethod
    def from_json(cls, E, obj):
        comps = {int(k): Cochain.from_json(E, v)
                 for k, v in obj["components"].items()}
        return cls(E, obj["order"], comps)

    def __repr__(self):
        return "AnStructure(N=%d, nonzero at %s)" % (self.N, sorted(self.comps))


class GaugeTransform:
    """Gauge transform data: components f_k for 2 <= k <= N-1, f_1 = id."""

    __slots__ = ("E", "N", "comps")

    def __init__(self, E, N, comps=None):
        self.E = E
        self.N = N
        self.comps = {}
        for k, c in (comps or {}).items():
            if not 2 <= k <= N - 1:
                raise ValueError("component f_%d out of range" % k)
            if (c.s, c.t) != (k, 1 - k):
                raise ValueError("f_%d must have arity %d and degree %d" % (k, k, 1 - k))
            if not c.is_zero():
                self.comps[k] = c

    @classmethod
    def identity(cls, E, N):
        return cls(E, N)

    def component(self, k):
        got = self.comps.get(k)
        return got if got is not None else Cochain(self.E, k, 1 - k)

    def is_identity(self):
        return not self.comps

    def __eq__(self, other):
        return (isinstance(other, GaugeTransform) and self.E is other.E
                and self.N == other.N and self.comps == other.comps)

    def to_json(self):
        return {"order": self.N,
                "components": {str(k): self.comps[k].to_json()
                               for k in sorted(self.comps)}}

    @classmethod
    def from_json(cls, E, obj):
        comps = {int(k): Cochain.from_json(E, v)
                 for k, v in obj["components"].items()}
        return cls(E, obj["order"], comps)

    def __repr__(self):
        return "GaugeTransform(N=%d, nonzero at %s)" % (self.N, sorted(self.comps))


# ---------------------------------------------------------------------------
# coalgebra-morphism calculus (componentwise, truncated at tensor length N)


@functools.lru_cache(maxsize=None)
def _compositions_in(r, sizes):
    """All compositions of r with parts in `sizes` (ascending, starting at
    1), in lexicographic order."""
    out = []
    acc = []

    def rec(rest):
        if rest == 0:
            out.append(tuple(acc))
            return
        for j in sizes:
            if j > rest:
                break
            acc.append(j)
            rec(rest - j)
            acc.pop()

    rec(r)
    return tuple(out)


def _block_sizes(f):
    """The block sizes a gauge can feed: 1 (f_1 = id) and its support."""
    return (1,) + tuple(sorted(f.comps))


def _layer_values(f, T, parts):
    """Apply gauge components to consecutive blocks of a basis tuple.

    Every part must be 1 or in the support of f.  Returns None if some
    block evaluates to zero, else the list of E-vectors."""
    ys = []
    pos = 0
    for j in parts:
        if j == 1:
            ys.append({T[pos]: ONE})
        else:
            val = f.comps[j].values.get(T[pos:pos + j])
            if not val:
                return None
            ys.append(val)
        pos += j
    return ys


def gauge_compose(f, g):
    """Product of gauge transforms: the components of the coalgebra morphism
    G o F, so that gauge_act(f, gauge_act(g, m)) = gauge_act(compose, m)."""
    if f.E is not g.E or f.N != g.N:
        raise ValueError("mismatched gauges")
    E, N = f.E, f.N
    cx = reduced_complex(E)
    sizes = _block_sizes(f)
    comps = {}
    for r in range(2, N):
        t = 1 - r
        values = {}
        for T in cx.tuple_keys(r, t):
            val = {}
            for parts in _compositions_in(r, sizes):
                p = len(parts)
                if p == 1:
                    term = f.comps[r].values.get(T)
                else:
                    gp = g.comps.get(p)
                    if gp is None:
                        continue
                    ys = _layer_values(f, T, parts)
                    if ys is None:
                        continue
                    term = gp.eval_multilinear(ys)
                if term:
                    for k, c in term.items():
                        _accum(val, k, c)
            if val:
                values[T] = val
        if values:
            comps[r] = Cochain(E, r, t, values)
    return GaugeTransform(E, N, comps)


def gauge_inverse(f):
    """The inverse gauge: compose(f, inverse(f)) = identity."""
    E, N = f.E, f.N
    cx = reduced_complex(E)
    sizes = _block_sizes(f)
    inv_comps = {}
    for r in range(2, N):
        t = 1 - r
        values = {}
        for T in cx.tuple_keys(r, t):
            val = {}
            fr = f.comps.get(r)
            if fr:
                term = fr.values.get(T)
                if term:
                    for k, c in term.items():
                        _accum(val, k, -c)
            for parts in _compositions_in(r, sizes):
                hp = inv_comps.get(len(parts))
                if hp is None:
                    continue
                ys = _layer_values(f, T, parts)
                if ys is None:
                    continue
                term = hp.eval_multilinear(ys)
                if term:
                    for k, c in term.items():
                        _accum(val, k, -c)
            if val:
                values[T] = val
        if values:
            inv_comps[r] = Cochain(E, r, t, values)
    return GaugeTransform(E, N, inv_comps)


def gauge_act(f, m):
    """Conjugate the coderivation of m by the coalgebra morphism of f,
    truncated at tensor length N.  m_2 is unchanged.

    The result is H o (b2 + m) o F with H = f^{-1}.  On a tuple T it is the
    sum over 0 <= i < j <= len(T), j - i >= 2, of
    (-1)^{|T[:i]|} h(F-blocks of T[:i], P(T[i:j]), F-blocks of T[j:]),
    where the middle layer P(S) sums m_q (b2 for q = 2) over the splits of
    S into q >= 2 nonzero F-blocks, and h_1 = id.  P is computed once per
    sub-tuple S.  Arities up to the lowest gauge component are unchanged:
    there every block of size > 1 and every h_k with k > 1 is too long to
    contribute."""
    if f.E is not m.E or f.N != m.N:
        raise ValueError("gauge and structure must share algebra and order")
    E, N = m.E, m.N
    low = min(f.comps, default=N)
    comps = {r: c for r, c in m.comps.items() if r <= low}
    cx = reduced_complex(E)
    h = gauge_inverse(f)  # outer layer
    sizes = _block_sizes(f)
    layers = {}  # prefix or suffix tuple -> its nonzero F-block value lists
    inner = {}  # tuple S -> P(S)

    def f_layers(U):
        got = layers.get(U)
        if got is None:
            got = []
            for parts in _compositions_in(len(U), sizes):
                ys = _layer_values(f, U, parts)
                if ys is not None:
                    got.append(ys)
            layers[U] = got
        return got

    def middle(S):
        got = inner.get(S)
        if got is None:
            got = {}
            for parts in _compositions_in(len(S), sizes):
                q = len(parts)
                if q == 1 or (q > 2 and q not in m.comps):
                    continue
                ys = _layer_values(f, S, parts)
                if ys is None:
                    continue
                if q == 2:
                    term = eval_b2(E, ys[0], ys[1])
                else:
                    term = m.comps[q].eval_multilinear(ys)
                for k, c in term.items():
                    _accum(got, k, c)
            inner[S] = got
        return got

    for r in range(low + 1, N + 1):
        t = 2 - r
        values = {}
        for T in cx.tuple_keys(r, t):
            val = {}
            presum = 0
            for i in range(r - 1):
                sgn = _sign(presum)
                presum += E.deg[T[i]] - 1
                lefts = f_layers(T[:i])
                for j in range(i + 2, r + 1):
                    mid = middle(T[i:j])
                    if not mid:
                        continue
                    if i == 0 and j == r:
                        for k, c in mid.items():
                            _accum(val, k, c)
                        continue
                    for left in lefts:
                        for right in f_layers(T[j:]):
                            hc = h.comps.get(len(left) + len(right) + 1)
                            if hc is None:
                                continue
                            term = hc.eval_multilinear(left + [mid] + right)
                            for k, c in term.items():
                                _accum(val, k, sgn * c)
            if val:
                values[T] = val
        if values:
            comps[r] = Cochain(E, r, t, values)
    return AnStructure(E, N, comps)


# ---------------------------------------------------------------------------
# the A_N equations


def defect(m):
    """Residual cochains of the truncated structure equations, indexed by
    arity r = 3..N+1.  The r-th residual is the sum of all insertions
    m_i o m_j with i + j = r + 1 (m_2 included); m is a valid structure iff
    all of them vanish.  The r = 3 residual is associativity and is always
    zero."""
    E, N = m.E, m.N
    out = {}
    for r in range(3, N + 2):
        t = 3 - r
        total = Cochain(E, r, t)
        for i in range(2, r):
            j = r + 1 - i
            if j < 2 or i > N or j > N:
                continue
            mi = Cochain.mul2(E) if i == 2 else m.comps.get(i)
            mj = Cochain.mul2(E) if j == 2 else m.comps.get(j)
            if mi is None or mj is None:
                continue
            total = total.add(cochain_compose(mi, mj))
        out[r] = total
    return out


def is_flat(m):
    return all(c.is_zero() for c in defect(m).values())


# ---------------------------------------------------------------------------
# canonical normalization


class ComplementData:
    __slots__ = ("delta", "im", "K", "mix")

    def __init__(self, delta, im, K):
        self.delta = delta
        self.im = im
        self.K = K
        cols = [dict(v) for v in K.basis] + [dict(v) for v in im.basis]
        self.mix = ExactMatrix.from_columns(cols, K.ambient_dim)


def complement_data(E, k):
    """Pivot-rule complement K_{2-k} to im(delta^1) inside the arity-k
    cochain space, cached per algebra and k."""
    cx = reduced_complex(E)
    if not hasattr(E, "_complements"):
        E._complements = {}
    got = E._complements.get(k)
    if got is None:
        t = 2 - k
        D = cx.delta_matrix(k - 1, t)
        im = image_basis(D)
        K = canonical_complement(im)
        got = ComplementData(D, im, K)
        E._complements[k] = got
    return got


def in_complement(m):
    """True iff every component of m lies in its canonical complement."""
    cx = reduced_complex(m.E)
    for k, c in m.comps.items():
        data = complement_data(m.E, k)
        v = cx.cochain_to_vector(c)
        coords = solve(data.mix, v)
        nk = len(data.K.basis)
        if any(i >= nk and x for i, x in coords.items()):
            return False
    return True


def normalize(m):
    """Canonical normal form: inductively split m_k = kappa + delta(x) with
    kappa in K_{2-k} and gauge by f_{k-1} = -x.  Returns (normal form,
    gauge witness) with gauge_act(witness, m) equal to the normal form."""
    if not is_flat(m):
        raise ValueError("normalize requires a defect-free structure")
    E, N = m.E, m.N
    cx = reduced_complex(E)
    witness = GaugeTransform.identity(E, N)
    current = m
    for k in range(3, N + 1):
        mk = current.comps.get(k)
        if mk is None:
            continue
        data = complement_data(E, k)
        v = cx.cochain_to_vector(mk)
        coords = solve(data.mix, v)
        if coords is None:
            raise AssertionError("component not in cochain space span")
        nk = len(data.K.basis)
        kappa = {}
        for i, c in coords.items():
            if i < nk:
                for j, b in data.K.basis[i].items():
                    _accum(kappa, j, c * b)
        w_im = dict(v)
        for j, c in kappa.items():
            _accum(w_im, j, -c)
        if not w_im:
            continue
        x = solve(data.delta, w_im)
        if x is None:
            raise AssertionError("image coordinates not in the image")
        step = GaugeTransform(E, N, {
            k - 1: cx.vector_to_cochain(k - 1, 2 - k,
                                        {i: -c for i, c in x.items()})})
        current = gauge_act(step, current)
        witness = gauge_compose(step, witness)
        got = cx.cochain_to_vector(current.component(k))
        if got != kappa:
            raise AssertionError("gauge step did not land on the complement")
    return current, witness


class EquivalenceResult:
    __slots__ = ("equal", "hh1_verified", "left_normal", "right_normal")

    def __init__(self, equal, hh1_verified, left_normal, right_normal):
        self.equal = equal
        self.hh1_verified = hh1_verified
        self.left_normal = left_normal
        self.right_normal = right_normal

    def __bool__(self):
        return self.equal


def equivalent(m, m2):
    """Gauge equivalence test via canonical normal forms.

    The uniqueness of the normal form relies on HH^1(E)_{-j} = 0 for
    j = 1..N-2; that hypothesis is checked and reported on the result."""
    if m.E is not m2.E or m.N != m2.N:
        raise ValueError("structures must share algebra and order")
    cx = reduced_complex(m.E)
    hh1_ok = all(cx.hh_dim(1, -j) == 0 for j in range(1, m.N - 1))
    n1, _ = normalize(m)
    n2, _ = normalize(m2)
    return EquivalenceResult(n1.comps == n2.comps, hh1_ok, n1, n2)


# ---------------------------------------------------------------------------
# extension and tangent data


class ExtensionResult:
    __slots__ = ("candidate", "obstruction", "solvable")

    def __init__(self, candidate, obstruction, solvable):
        self.candidate = candidate
        self.obstruction = obstruction
        self.solvable = solvable


def extension_residual(m):
    """The arity-(N+2) residual of an order-N structure: the obstruction
    cocycle o with delta(m_{N+1}) + o = 0 for any extension."""
    E, N = m.E, m.N
    total = Cochain(E, N + 2, 1 - N)
    for i in range(3, N + 1):
        j = N + 3 - i
        if not 3 <= j <= N:
            continue
        mi = m.comps.get(i)
        mj = m.comps.get(j)
        if mi is None or mj is None:
            continue
        total = total.add(cochain_compose(mi, mj))
    return total


def extend_step(m, check_cocycle=True):
    """Extend a defect-free order-N structure by one order, or report the
    obstruction class in HH^3(E)_{1-N}."""
    if not is_flat(m):
        raise ValueError("extend_step requires a defect-free structure")
    E, N = m.E, m.N
    cx = reduced_complex(E)
    o = extension_residual(m)
    if check_cocycle and not differential_apply(o).is_zero():
        raise AssertionError("extension residual is not a cocycle")
    t = 1 - N
    D = cx.delta_matrix(N + 1, t)
    ov = cx.cochain_to_vector(o)
    c = solve(D, ov)
    if c is None:
        return ExtensionResult(None, o, False)
    cand = cx.vector_to_cochain(N + 1, t, {i: -x for i, x in c.items()})
    return ExtensionResult(cand, None, True)


def tangent_dims(E, N):
    """Per-order tangent dimensions dim HH^2(E)_{2-k} for k = 3..N, plus
    the Grassmannian term g(n-g)."""
    cx = reduced_complex(E)
    by_order = {k: cx.hh_dim(2, 2 - k) for k in range(3, N + 1)}
    grass = E.g * (E.n - E.g)
    return {"hh2_by_order": by_order,
            "hh2_total": sum(by_order.values()),
            "grassmannian": grass,
            "total": sum(by_order.values()) + grass}


# ---------------------------------------------------------------------------
# moduli equations on the canonical section


class ModuliEquations:
    __slots__ = ("E", "N", "ring", "unknowns", "equations")

    def __init__(self, E, N, ring, unknowns, equations):
        self.E = E
        self.N = N
        self.ring = ring
        self.unknowns = unknowns  # list of (k, index_in_K_basis)
        self.equations = equations

    def jacobian_at_zero(self):
        """Matrix of the linear parts of the equations at the origin."""
        nu = len(self.unknowns)
        mat = ExactMatrix(len(self.equations), nu)
        for row, eq in enumerate(self.equations):
            for exps, c in eq.terms.items():
                if sum(exps) != 1:
                    continue
                col = exps.index(1)
                mat.set(row, col, c)
        return mat

    def corank_at_zero(self):
        from .linalg import rank
        return len(self.unknowns) - rank(self.jacobian_at_zero())

    def to_json(self):
        return {"order": self.N,
                "unknowns": [self.ring.names[i] for i in range(len(self.unknowns))],
                "equations": [str(e) for e in self.equations]}


def emit_moduli_equations(E, N):
    """Polynomial equations for A_N structures with every component in the
    canonical complement, in coordinates on those complements."""
    unknowns = []
    kbases = {}
    for k in range(3, N + 1):
        data = complement_data(E, k)
        kbases[k] = data.K.basis
        for a in range(len(data.K.basis)):
            unknowns.append((k, a))
    names = ["u_%d_%d" % (k, a) for k, a in unknowns]
    ring = PolyRing(names, [1] * len(names))
    cx = reduced_complex(E)
    comps = {}
    pos = 0
    for k in range(3, N + 1):
        vec = {}
        for a, bvec in enumerate(kbases[k]):
            u = ring.var(names[pos + a])
            for j, c in bvec.items():
                cur = vec.get(j, ring.zero()) + u.scale(c)
                vec[j] = cur
        pos += len(kbases[k])
        if vec:
            comps[k] = cx.vector_to_cochain(k, 2 - k, vec)
    m = AnStructure(E, N, comps)
    equations = []
    for r, res in defect(m).items():
        if r == 3:
            continue
        for key in sorted(res.values):
            for j in sorted(res.values[key]):
                equations.append(res.values[key][j])
    return ModuliEquations(E, N, ring, unknowns, equations)


# ---------------------------------------------------------------------------
# random data for property suites


def random_gauge(E, N, rng, density=0.5, max_num=3):
    """Seeded random gauge transform with small rational entries."""
    cx = reduced_complex(E)
    comps = {}
    for k in range(2, N):
        t = 1 - k
        values = {}
        for key, w in cx.basis(k, t):
            if rng.random() < density:
                num = rng.randint(-max_num, max_num)
                if not num:
                    continue
                den = rng.choice([1, 1, 2])
                values.setdefault(key, {})[w] = rat(num, den)
        if values:
            comps[k] = Cochain(E, k, t, values)
    return GaugeTransform(E, N, comps)


def random_structure(E, N, rng, density=0.5, max_num=3):
    """Random defect-free structure: a random gauge acting on the trivial
    structure."""
    return gauge_act(random_gauge(E, N, rng, density, max_num),
                     AnStructure.trivial(E, N))
