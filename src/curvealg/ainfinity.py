"""Truncated minimal A_n-structures on the quiver algebra, gauge action via
the bar coalgebra, canonical normalization onto pivot-rule complements,
obstruction classes, tangent data, and the moduli equation systems.

An order-N structure stores the higher products m_3, ..., m_N (m_1 = 0 and
m_2 = the algebra multiplication are implicit); m_k is a cochain of arity k
and internal degree 2-k.  A gauge transform stores f_2, ..., f_{N-1} with
f_k of arity k and internal degree 1-k (f_1 = id implicit).

The gauge action is read off the A-infinity morphism equation F o D' = D o F
on the truncated tensor coalgebra of the suspended radical, where F is the
coalgebra morphism of the gauge and D, D' the coderivations of the old and
new structure; all signs come mechanically from the Koszul rule.  The
composition convention is fixed so that a gauge with only an f_2 component
sends m_3 to m_3 + delta(f_2), and the action law
gauge_act(f, gauge_act(g, m)) = gauge_act(compose(f, g), m) holds exactly.

Only terms that can be nonzero are evaluated.  Block compositions are
enumerated with block sizes in {1} and the support of the gauge, once per
(arity, support), and one block evaluator applies a cochain to the F-blocks
of a tuple, multiplying only the gauge-valued slots.  One F-block sum, over
the compositions of an arity, serves gauge_act, gauge_compose and
gauge_inverse; the inverse is compose's arity step solved for its unknown
h_r.  gauge_act solves the morphism equation arity by arity: the new m'_r
on a tuple T is D o F on T minus the F o D' terms whose inner m' has lower
arity, so it needs neither the inverse gauge nor any product over outer
blocks.  Arities below the lowest gauge component are copied unchanged, in
gauge_act and gauge_compose alike, which covers every step gauge f_{k-1}
of normalize.  normalize reads one exact elimination per arity, which the
Hochschild complex keeps per cell (HochschildComplex.echelon) and
extend_step shares, makes no solves, and checks flatness once, on the
normal form.
"""

from __future__ import annotations

import functools
import itertools

from .linalg import ONE, accum, rank_of_columns, rat, solve, vec_addmul
from .hochschild import (Cochain, compose as cochain_compose,
                         differential_apply, eval_b2, reduced_complex)
from .poly import PolyRing


class _Components:
    """Components c_k of arity k and internal degree SHIFT - k, for the
    arities whose degrees run from -1 down to 2 - N: SHIFT + 1 <= k <=
    N + SHIFT - 2.  Zero components are not stored."""

    __slots__ = ("E", "N", "comps")

    def __init__(self, E, N, comps=None):
        if N < 2:
            raise ValueError("order must be at least 2")
        self.E = E
        self.N = N
        self.comps = {}
        name, shift = self.LETTER, self.SHIFT
        for k, c in (comps or {}).items():
            if not shift + 1 <= k <= N + shift - 2:
                raise ValueError("component %s_%d out of range" % (name, k))
            if (c.s, c.t) != (k, shift - k):
                raise ValueError("%s_%d must have arity %d and degree %d"
                                 % (name, k, k, shift - k))
            if not c.is_zero():
                self.comps[k] = c

    def component(self, k):
        got = self.comps.get(k)
        return got if got is not None else Cochain(self.E, k, self.SHIFT - k)

    def __eq__(self, other):
        return (type(other) is type(self) and self.E is other.E
                and self.N == other.N and self.comps == other.comps)

    def to_json(self):
        return {"order": self.N,
                "components": {str(k): self.comps[k].to_json()
                               for k in sorted(self.comps)}}

    @classmethod
    def from_json(cls, E, obj):
        order = obj["order"]
        if type(order) is not int:
            raise ValueError("order must be an integer, not %r" % (order,))
        return cls(E, order, {int(k): Cochain.from_json(E, v)
                              for k, v in obj["components"].items()})

    def __repr__(self):
        return "%s(N=%d, nonzero at %s)" % (type(self).__name__, self.N,
                                            sorted(self.comps))


class AnStructure(_Components):
    """Minimal A_N-structure data: components m_k for 3 <= k <= N."""

    __slots__ = ()
    LETTER, SHIFT = "m", 2

    @classmethod
    def trivial(cls, E, N):
        return cls(E, N)

    def is_trivial(self):
        return not self.comps


class GaugeTransform(_Components):
    """Gauge transform data: components f_k for 2 <= k <= N-1, f_1 = id."""

    __slots__ = ()
    LETTER, SHIFT = "f", 1

    @classmethod
    def identity(cls, E, N):
        return cls(E, N)

    def is_identity(self):
        return not self.comps


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


def _block(f, B):
    """The F-block value of a block B of a tuple, of size 1 or in supp f."""
    return {B[0]: ONE} if len(B) == 1 else f.comps[len(B)].values.get(B)


def _add_on_blocks(out, c, f, T, parts):
    """out += c(F-blocks of T), for a normalized cochain c.

    Every part must be 1 or in the support of f.  A size-1 slot is T's own
    basis element and goes straight into the key; the product runs over the
    gauge-valued slots only, expanded over their radical components (the
    normalized extension drops idempotent parts)."""
    radset = c.E.radical_set
    key = []
    slots = []  # (slot index, radical components of the gauge value)
    pos = 0
    for j in parts:
        if j == 1:
            key.append(T[pos])
        else:
            val = f.comps[j].values.get(T[pos:pos + j])
            items = [(z, cz) for z, cz in val.items() if z in radset] if val else ()
            if not items:
                return
            slots.append((len(key), items))
            key.append(None)
        pos += j
    values = c.values
    for pick in itertools.product(*(items for _, items in slots)):
        coef = None
        for (a, _), (z, cz) in zip(slots, pick):
            key[a] = z
            coef = cz if coef is None else coef * cz
        val = values.get(tuple(key))
        if val:
            for k, x in val.items():
                accum(out, k, x if coef is None else coef * x)


def _add_block_sum(out, family, f, T, sizes):
    """out += sum of family[len(parts)](F-blocks of T) over the compositions
    `parts` of len(T) into sizes = _block_sizes(f), for the lengths family
    has."""
    for parts in _compositions_in(len(T), sizes):
        c = family.get(len(parts))
        if c is not None:
            _add_on_blocks(out, c, f, T, parts)


def _compose_values(f, family, r):
    """The values of f_r + sum_{p >= 2} family[p](F-blocks): the arity-r
    component of G o F for the gauge G with components family."""
    fr = f.comps.get(r)
    sizes = _block_sizes(f)
    values = {}
    for T in reduced_complex(f.E).tuple_keys(r, 1 - r):
        val = dict(fr.values.get(T, {})) if fr else {}
        _add_block_sum(val, family, f, T, sizes)
        if val:
            values[T] = val
    return values


def gauge_compose(f, g):
    """Product of gauge transforms: the components of the coalgebra morphism
    G o F, so that gauge_act(f, gauge_act(g, m)) = gauge_act(compose, m).

    Below the lowest component of f the only block composition is all ones,
    so those arities are copied from g."""
    if f.E is not g.E or f.N != g.N:
        raise ValueError("mismatched gauges")
    E, N = f.E, f.N
    low = min(f.comps, default=N)
    comps = {r: c for r, c in g.comps.items() if r < low}
    for r in range(max(low, 2), N):
        comps[r] = Cochain(E, r, 1 - r, _compose_values(f, g.comps, r))
    return GaugeTransform(E, N, comps)


def gauge_inverse(f):
    """The inverse gauge h, compose(f, h) = identity: compose's arity step
    solved for its unknown, h_r = -(f_r + sum_{2 <= q < r} h_q(F-blocks)).
    The all-ones composition reads h_r, which is not yet set."""
    E, N = f.E, f.N
    inv = {}
    for r in range(2, N):
        h = Cochain(E, r, 1 - r, _compose_values(f, inv, r)).scale(-1)
        if not h.is_zero():
            inv[r] = h
    return GaugeTransform(E, N, inv)


def gauge_act(f, m):
    """The structure m' = f . m, with m_2 = b2 unchanged, from the
    A-infinity morphism equation F o D' = D o F, where D and D' are the
    coderivations of b2 + m and b2 + m' and F is the coalgebra morphism of
    f (Lefevre-Hasegawa 2003), truncated at tensor length N.

    Arity by arity, with |x| = deg x - 1,
        m'_r(T) = P(T) - sum (-1)^{|T[:i]|} f_k(T[:i], m'_{j-i}(T[i:j]), T[j:])
    over 0 <= i < j <= r, j - i >= 2, k = r - (j - i) + 1 in supp f (so
    (i, j) = (0, r), where k = 1, is the left side).  P(T) sums m_q
    over the splits of T into q >= 2 F-blocks: b2 on the two-block splits,
    and the F-block sum of m for q > 2.  m'_{j-i} is b2 or an arity already
    computed, and f_k is fed only the radical components of m'_{j-i}.  No
    flatness is needed, and neither the inverse gauge nor any product over
    outer blocks.  Arities up to the lowest gauge component are unchanged:
    there every F-block has size 1 and no f_k term fits."""
    if f.E is not m.E or f.N != m.N:
        raise ValueError("gauge and structure must share algebra and order")
    E, N = m.E, m.N
    low = min(f.comps, default=N)
    comps = {r: c for r, c in m.comps.items() if r <= low}
    cx = reduced_complex(E)
    sizes = _block_sizes(f)
    radset = E.radical_set
    table, deg = E.table, E.deg
    for r in range(low + 1, N + 1):
        t = 2 - r
        # (f_k values, inner width s = j - i, m'_s values or None for b2)
        feeds = []
        for k, fk in f.comps.items():
            s = r + 1 - k
            if s == 2:
                feeds.append((fk.values, s, None))
            elif s > 2 and s in comps:
                feeds.append((fk.values, s, comps[s].values))
        splits = [j for j in sizes if r - j in sizes]
        values = {}
        for T in cx.tuple_keys(r, t):
            val = {}
            for j in splits:
                left = _block(f, T[:j])
                right = left and _block(f, T[j:])
                if right:
                    for k, c in eval_b2(E, left, right).items():
                        accum(val, k, c)
            _add_block_sum(val, m.comps, f, T, sizes)
            signs = [-1]  # -(-1)^{|T[:i]|}
            for x in T[:-2]:
                signs.append(signs[-1] if deg[x] == 1 else -signs[-1])
            for fvals, s, inner in feeds:
                for i in range(r - s + 1):
                    j = i + s
                    if inner is None:
                        # b2(x, y) = (-1)^{|x|} x y
                        mid = table.get((T[i], T[i + 1]))
                        sgn = signs[i] if deg[T[i]] == 1 else -signs[i]
                    else:
                        mid = inner.get(T[i:j])
                        sgn = signs[i]
                    if not mid:
                        continue
                    head, tail = T[:i], T[j:]
                    for z, cz in mid.items():
                        if z not in radset:
                            continue
                        fv = fvals.get(head + (z,) + tail)
                        if fv:
                            vec_addmul(val, sgn * cz, fv)
            if val:
                values[T] = val
        if values:
            comps[r] = Cochain(E, r, t, values)
    return AnStructure(E, N, comps)


# ---------------------------------------------------------------------------
# the A_N equations


def _residual(m, r):
    """The arity-r residual of the structure equations: the sum of all
    insertions m_i o m_j with i + j = r + 1, m_2 = b2 included."""
    total = Cochain(m.E, r, 3 - r)
    for i in range(2, r):
        j = r + 1 - i
        mi = Cochain.mul2(m.E) if i == 2 else m.comps.get(i)
        mj = Cochain.mul2(m.E) if j == 2 else m.comps.get(j)
        if mi is not None and mj is not None:
            total = total.add(cochain_compose(mi, mj))
    return total


def defect(m):
    """Residual cochains of the truncated structure equations, indexed by
    arity r = 3..N+1; m is a valid structure iff all of them vanish.  The
    r = 3 residual is associativity and is always zero."""
    return {r: _residual(m, r) for r in range(3, m.N + 2)}


def is_flat(m):
    return all(c.is_zero() for c in defect(m).values())


# ---------------------------------------------------------------------------
# canonical normalization


def complement_data(E, k):
    """Splitting of the arity-k cochain space as K_{2-k} + im(delta) with
    delta = delta^1: C^{k-1} -> C^k: the complex's Echelon of delta.

    Its `rows` map each pivot index q of the RREF basis of im(delta) to
    (R_q, X_q) with R_q = delta(X_q), and `split(v)` returns (kappa, x)
    with v = kappa + delta(x).  K_{2-k}, the pivot-rule complement of
    im(delta), is spanned by the standard vectors off `rows` and holds
    kappa."""
    return reduced_complex(E).echelon(k - 1, 2 - k)


def in_complement(m):
    """True iff every component of m lies in its canonical complement, that
    is, has no support on the pivot indices of im(delta)."""
    cx = reduced_complex(m.E)
    for k, c in m.comps.items():
        rows = complement_data(m.E, k).rows
        if any(i in rows for i in cx.cochain_to_vector(c)):
            return False
    return True


def normalize(m):
    """Canonical normal form: inductively split m_k = kappa + delta(x) with
    kappa in K_{2-k} and gauge by f_{k-1} = -x.  Returns (normal form,
    gauge witness) with gauge_act(witness, m) equal to the normal form.

    Each step is a sparse combination of the rows of complement_data, the
    complex's Echelon of delta: no solve and no new elimination.  A step
    gauge f_{k-1} leaves the arities below k alone and changes m_k by
    exactly delta(f_{k-1}) = -delta(x), whether or not m is flat, so each
    step checks that the gauged m_k equals kappa.

    Flatness is checked once, on the normal form.  The action is
    conjugation by the invertible coalgebra morphism F of the witness
    (Lefevre-Hasegawa 2003): D' = F^-1 D F, hence D'^2 = F^-1 D^2 F, and
    m is flat iff its normal form is.  The normal form lies in the sparse
    complements, so its defect is cheap; a non-flat m raises ValueError
    after the steps, which never fail on it."""
    E, N = m.E, m.N
    cx = reduced_complex(E)
    witness = GaugeTransform.identity(E, N)
    current = m
    for k in range(3, N + 1):
        mk = current.comps.get(k)
        if mk is None:
            continue
        kappa, x = complement_data(E, k).split(cx.cochain_to_vector(mk))
        if not x:
            continue
        step = GaugeTransform(E, N, {k - 1: cx.vector_to_cochain(
            k - 1, 2 - k, {p: -c for p, c in x.items()})})
        current = gauge_act(step, current)
        witness = gauge_compose(step, witness)
        if cx.cochain_to_vector(current.component(k)) != kappa:
            raise AssertionError("gauge step did not land on the complement")
    if not is_flat(current):
        raise ValueError("normalize requires a defect-free structure")
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
    cocycle o with delta(m_{N+1}) + o = 0 for any extension.  Its b2 terms
    drop out, since m_{N+1} = 0."""
    return _residual(m, m.N + 2)


def extend_step(m):
    """Extend a defect-free order-N structure by one order, or report the
    obstruction class in HH^3(E)_{1-N}."""
    if not is_flat(m):
        raise ValueError("extend_step requires a defect-free structure")
    E, N = m.E, m.N
    cx = reduced_complex(E)
    o = extension_residual(m)
    if not differential_apply(o).is_zero():
        raise AssertionError("extension residual is not a cocycle")
    t = 1 - N
    c = solve(cx.echelon(N + 1, t), cx.cochain_to_vector(o))
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
        """The linear parts of the equations at the origin: one sparse
        column per unknown, indexed by equation."""
        cols = [{} for _ in self.unknowns]
        for row, eq in enumerate(self.equations):
            for exps, c in eq.terms.items():
                if sum(exps) == 1:
                    cols[exps.index(1)][row] = c
        return cols

    def corank_at_zero(self):
        return len(self.unknowns) - rank_of_columns(self.jacobian_at_zero())

    def to_json(self):
        return {"order": self.N,
                "unknowns": [self.ring.names[i] for i in range(len(self.unknowns))],
                "equations": [str(e) for e in self.equations]}


def emit_moduli_equations(E, N):
    """Polynomial equations for A_N structures with every component in the
    canonical complement, in coordinates on those complements: unknown
    u_k_a is the coefficient at the a-th index off the pivots of im(delta)
    in the arity-k cochain space."""
    cx = reduced_complex(E)
    free = {}
    for k in range(3, N + 1):
        rows = complement_data(E, k).rows
        free[k] = [i for i in range(cx.dim(k, 2 - k)) if i not in rows]
    unknowns = [(k, a) for k, idx in free.items() for a in range(len(idx))]
    names = ["u_%d_%d" % (k, a) for k, a in unknowns]
    ring = PolyRing(names, [1] * len(names))
    m = AnStructure(E, N, {k: cx.vector_to_cochain(
        k, 2 - k, {i: ring.var("u_%d_%d" % (k, a)) for a, i in enumerate(idx)})
        for k, idx in free.items()})
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
