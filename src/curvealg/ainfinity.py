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

Every term is pushed from stored nonzero entries, not looked up on each
tuple: b2 pairs the F-block entries whose values multiply to nonzero, the
F-block sum (_add_block_sums) expands each key only at the slots that take
a block longer than one element (a block of one element is the element
itself, as F_1 = id), placing the extra length depth-first, and each
inner entry of the morphism equation goes into every gauge key that holds
its radical value, through hochschild._insert, the insertion that
the brace sum of the structure residual pushes through too.  A push also
reaches keys outside the normalized basis, so an arity keeps only its
tuple_keys, in order (hochschild._on_tuples).  One F-block sum
serves gauge_act, gauge_compose and gauge_inverse, each of which indexes
its gauge's F-blocks once (_index) for all arities; the inverse is
compose's arity step solved for its unknown h_r.  gauge_act solves the
morphism equation arity by arity: the new m'_r on a tuple T is D o F on T
minus the F o D' terms whose inner m' has lower arity, so it needs neither
the inverse gauge nor any product over outer blocks.  Each operation runs
one loop over all its arities; below the lowest gauge component every
F-block has one element, and the step gives the input's component there.

The gauge layer computes on Python ints.  Give f_k weight k-1, m_q and
m'_q weight q-2 and a table constant weight 0, and let L be the lcm of
E.denominator and of every denominator of the gauges and structures at
hand.  A gauge component of weight w is scaled by L^(2w); a structure
component or a table constant by L^(2w+1).  Each term of the action's
recurrence has one factor of the second kind and weights add, so every
term of m'_r scales by L^(2r-3), and every term of a composed or inverse
gauge by L^(2r-2); all scaled values are ints.  Each operation converts
its inputs once (_Components.scaled: exponent 2k-1-SHIFT), runs on ints
and divides each output entry once.

normalize sweeps the arities once.  By the action law the structure after
its steps below k is gauge_act(witness, m), whose arities below k are the
kappas found, so its m_k is the one arity of the action's recurrence on
the witness, m and those kappas.  It reads one exact elimination per
arity, which the Hochschild complex keeps per cell
(HochschildComplex.echelon) and extend_step shares, makes no solves, and
checks flatness once, on the normal form.  Like the gauge layer, that
elimination and its splits run on ints: the arity's scaled ints go to the
split as they are, and only kappa and x become Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .linalg import rank_of_columns, rat, solve, vec_addmul
from .hochschild import (Cochain, _b2, _brace_sum, _insert, _on_tuples,
                         differential_apply, reduced_complex)
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

    def scaled(self, L, top=None):
        """The values of c_k times L^(2k-1-SHIFT), as ints, for k <= top:
        with L from _scale, the weight argument of the module docstring."""
        return {k: _scaled_values(c.values, L ** (2 * k - 1 - self.SHIFT))
                for k, c in self.comps.items() if top is None or k <= top}

    def __eq__(self, other):
        return (type(other) is type(self) and self.E is other.E
                and self.N == other.N and self.comps == other.comps)

    def to_json(self):
        return {"order": self.N,
                "components": {str(k): self.comps[k].to_json()
                               for k in sorted(self.comps)}}

    @classmethod
    def from_json(cls, E, obj):
        """Inverse of to_json.  Raises ValueError for a component key that
        is not str(k), as to_json writes it, so no two keys name one k."""
        order = obj["order"]
        if type(order) is not int:
            raise ValueError("order must be an integer, not %r" % (order,))
        keys = list(obj["components"])
        if keys != [str(int(k)) for k in keys]:
            raise ValueError("component keys %s are not all of the form str(k)" % keys)
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


# ---------------------------------------------------------------------------
# coalgebra-morphism calculus (componentwise, truncated at tensor length N,
# on ints at scale L; see the module docstring)


def _scale(E, *families):
    """L: the lcm of E.denominator and of every denominator in families."""
    return lcm(E.denominator, *{x.denominator for fam in families
                                for c in fam.comps.values()
                                for vec in c.values.values() for x in vec.values()})


def _scaled_values(values, S):
    """Cochain values times S, a multiple of every denominator, as ints."""
    return {T: {z: c.numerator * (S // c.denominator) for z, c in vec.items()}
            for T, vec in values.items()}


def _unscaled(E, s, t, values, S):
    """The cochain of the int values divided by S, as Fractions."""
    return Cochain(E, s, t, {T: {z: Fraction(c, S) for z, c in vec.items()}
                             for T, vec in values.items()})


def _index(F, radset):
    """(blocks, pre) over the F-blocks that stand for an element z in a
    split, (z,) for radical z and the keys U of each F_j: blocks[j][z]
    lists (U, c) over the entries c z of F_j(U), and pre[z][j], j >= 2,
    those with radical z (the normalized extension drops idempotent
    parts).  Built once per operation, or per normalize step, and read at
    every arity."""
    blocks = {1: {z: [((z,), 1)] for z in radset}}
    pre = {}
    for j, fj in F.items():
        bj = blocks[j] = {}
        for U, vec in fj.items():
            for z, c in vec.items():
                bj.setdefault(z, []).append((U, c))
                if z in radset:
                    pre.setdefault(z, {}).setdefault(j, []).append((U, c))
    return blocks, pre


def _add_block_sums(acc, family, pre, r, top):
    """acc[T] += family[p](F-blocks of T) over the splits of r-tuples T
    into p blocks of at most top elements.  A block of one element is the
    element itself with coefficient 1 (F_1 = id), so a key K of family[p]
    is expanded only at the slots that take a longer block, from pre: the
    r - p extra elements are placed depth-first over the slots, each
    taking at most top - 1 of them, and T is built from the slices of K
    between those slots."""
    room = top - 1
    for p, fp in family.items():
        if not p <= r <= p * top:
            continue
        if p == r:  # r blocks of one element: T = K
            for K, val in fp.items():
                vec_addmul(acc.setdefault(K, {}), 1, val)
            continue
        for K, val in fp.items():
            # (first slot still free, extra elements left, T up to it, coefficient)
            stack = [(0, r - p, (), 1)]
            while stack:
                i, left, head, c = stack.pop()
                # slot a takes a long block only while the slots from a
                # on, at most room extra each, can still take all left
                for a in range(i, p - (left - 1) // room):
                    sizes = pre.get(K[a])
                    if sizes is None:
                        continue
                    lead = head + K[i:a]
                    for j in range(max(2, left + 1 - (p - a - 1) * room), min(top, left + 1) + 1):
                        rest = left + 1 - j
                        for U, cu in sizes.get(j, ()):
                            if rest:
                                stack.append((a + 1, rest, lead + U, c * cu))
                            else:
                                vec_addmul(acc.setdefault(lead + U + K[a + 1:], {}), c * cu, val)


def _compose_values(E, F, pre, family, r):
    """F_r + sum_{p >= 2} family[p](F-blocks) on each tuple of arity r: the
    arity-r component of G o F for the gauge G with components family;
    pre is that of _index(F)."""
    acc = {T: dict(vec) for T, vec in F.get(r, {}).items()}
    _add_block_sums(acc, family, pre, r, max(F, default=1))
    return _on_tuples(E, acc, r, 1 - r)


def gauge_compose(f, g):
    """Product of gauge transforms: the components of the coalgebra morphism
    G o F, so that gauge_act(f, gauge_act(g, m)) = gauge_act(compose, m).
    One loop runs every arity: below the lowest component of f the only
    block composition is all ones, and the step gives g_r there."""
    if f.E is not g.E or f.N != g.N:
        raise ValueError("mismatched gauges")
    E, N = f.E, f.N
    L = _scale(E, f, g)
    F, G = f.scaled(L), g.scaled(L)
    pre = _index(F, E.radical_set)[1]
    comps = {r: _unscaled(E, r, 1 - r, _compose_values(E, F, pre, G, r),
                          L ** (2 * r - 2)) for r in range(2, N)}
    return GaugeTransform(E, N, comps)


def gauge_inverse(f):
    """The inverse gauge h, compose(f, h) = identity: compose's arity step
    solved for its unknown, h_r = -(f_r + sum_{2 <= q < r} h_q(F-blocks)).
    The all-ones composition reads h_r, which is not yet set."""
    E, N = f.E, f.N
    L = _scale(E, f)
    F = f.scaled(L)
    pre = _index(F, E.radical_set)[1]
    inv, comps = {}, {}
    for r in range(2, N):
        h = {T: {z: -c for z, c in vec.items()}
             for T, vec in _compose_values(E, F, pre, inv, r).items()}
        if h:
            inv[r] = h
            comps[r] = _unscaled(E, r, 1 - r, h, L ** (2 * r - 2))
    return GaugeTransform(E, N, comps)


def _act_arity(E, F, index, M, lower, r, ratio):
    """L^(2r-3) m'_r, the arity r of gauge_act's recurrence on ints, from
    the gauge F, its _index, and structure M at scale L and the scaled
    m'_s, s < r, that `lower` holds; ratio = L / E.denominator brings
    E.int_table to scale L.  Each term is pushed from stored nonzero
    entries."""
    radset, deg, products = E.radical_set, E.deg, E.right_products
    blocks, pre = index
    acc = {}
    # b2(x, y) = (-1)^{|x|} x y on two F-blocks, x y != 0
    for j in range(1, r):
        left, right = blocks.get(j), blocks.get(r - j)
        for x, us in left.items() if left and right else ():
            c = ratio if deg[x] == 1 else -ratio
            for y, prod in products[x]:
                for V, cr in right.get(y, ()):
                    for U, cl in us:
                        vec_addmul(acc.setdefault(U + V, {}), c * cl * cr, prod)
    _add_block_sums(acc, M, pre, r, max(F, default=1))
    # f_k(T[:i], m'_s(V), T[i+s:]) for an inner entry V = T[i:i+s], fed
    # to f_k at each radical slot i that holds a component of m'_s(V),
    # with the sign -(-1)^{|T[:i]|}
    for k, fk in F.items():
        if k == r - 1:
            _insert(E, acc, _b2(E, E.int_table, radset), fk, 1, -ratio)
        elif r + 1 - k in lower:
            _insert(E, acc, lower[r + 1 - k], fk, 1, -1)
    return _on_tuples(E, acc, r, 2 - r)


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
    outer blocks.  One loop runs every arity: up to the lowest gauge
    component every F-block has size 1 and no f_k term fits, so the step
    gives m_r there."""
    if f.E is not m.E or f.N != m.N:
        raise ValueError("gauge and structure must share algebra and order")
    E, N = m.E, m.N
    L = _scale(E, f, m)
    F, M = f.scaled(L), m.scaled(L)
    index = _index(F, E.radical_set)
    lower, comps = {}, {}
    for r in range(3, N + 1):
        values = _act_arity(E, F, index, M, lower, r, L // E.denominator)
        if values:
            lower[r] = values
            comps[r] = _unscaled(E, r, 2 - r, values, L ** (2 * r - 3))
    return AnStructure(E, N, comps)


# ---------------------------------------------------------------------------
# the A_N equations


def _residual(m, r):
    """The arity-r residual of the structure equations: the sum of all
    insertions m_i o m_j with i + j = r + 1, m_2 = b2 included."""
    comps = {2: Cochain.mul2(m.E), **m.comps}
    return _brace_sum(m.E, r, 3 - r, [(1, comps[i], comps[r + 1 - i])
                                      for i in range(2, r)
                                      if i in comps and r + 1 - i in comps])


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

    Its `rows` map each pivot index q of im(delta), the least index of a
    nonzero vector of the image, to the ints (r, x, d) of a triangular
    basis row, r = delta(x) and d = r[q]; `row(q)` gives the RREF row
    (R_q, X_q) with R_q = delta(X_q), and `split(v)` returns (kappa, x)
    with v = kappa + delta(x).  K_{2-k}, the pivot-rule complement of
    im(delta), is spanned by the standard vectors off `rows` and holds
    kappa."""
    return reduced_complex(E).echelon(k - 1, 2 - k)


def normalize(m):
    """Canonical normal form: inductively split m_k = kappa + delta(x) with
    kappa in K_{2-k} and gauge by f_{k-1} = -x.  Returns (normal form,
    gauge witness) with gauge_act(witness, m) equal to the normal form.

    One sweep: m_k after the steps below k is one arity of the action's
    recurrence (see the module docstring).  Each split is a sparse
    combination of the rows of complement_data, the complex's Echelon of
    delta: no solve and no new elimination.  A step gauge f_{k-1} leaves
    the arities below k alone and changes m_k by exactly
    delta(f_{k-1}) = -delta(x), whether or not m is flat, so each step
    checks, on the arity-k pass of the step gauge alone, that the gauged
    m_k equals kappa.

    Flatness is checked once, on the normal form: the action is
    conjugation by the invertible coalgebra morphism F of the witness
    (Lefevre-Hasegawa 2003), D' = F^-1 D F, so m is flat iff its normal
    form is.  The normal form lies in the sparse complements, so its
    defect is cheap; a non-flat m raises ValueError after the steps, which
    never fail on it."""
    E, N = m.E, m.N
    cx = reduced_complex(E)
    witness = GaugeTransform.identity(E, N)
    nf = AnStructure(E, N)
    for k in range(3, N + 1):
        L = _scale(E, witness, m, nf)
        F = witness.scaled(L, k - 1)
        values = _act_arity(E, F, _index(F, E.radical_set), m.scaled(L, k),
                            nf.scaled(L), k, L // E.denominator)
        if not values:
            continue
        # values are P m_k, P = L^(2k-3), and its split comes as ints over
        # S, so kappa and x are divided by S P once
        mk = cx.cochain_to_vector(Cochain(E, k, 2 - k, values))
        kappa, x, S = complement_data(E, k).reduce(mk)
        unscale = Fraction(1, S * L ** (2 * k - 3))
        if x:
            # the step's own terms at arity k, m left out, are kappa - m_k;
            # at step scale S P (values -x) and ratio 1 (table scale D)
            # they are D (kappa - S mk)
            D = E.denominator
            step = cx.vector_to_cochain(k - 1, 2 - k, {p: -c for p, c in x.items()})
            change = vec_addmul({p: D * c for p, c in kappa.items()}, -D * S, mk)
            F = {k - 1: step.values}
            if _act_arity(E, F, _index(F, E.radical_set), {}, {}, k, 1) \
                    != cx.vector_to_cochain(k, 2 - k, change).values:
                raise AssertionError("gauge step did not land on the complement")
            witness = gauge_compose(GaugeTransform(E, N, {k - 1: step.scale(unscale)}),
                                    witness)
        if kappa:
            nf.comps[k] = cx.vector_to_cochain(k, 2 - k, kappa).scale(unscale)
    if not is_flat(nf):
        raise ValueError("normalize requires a defect-free structure")
    return nf, witness


class EquivalenceResult:
    __slots__ = ("equal", "hh1_verified")

    def __init__(self, equal, hh1_verified):
        self.equal = equal
        self.hh1_verified = hh1_verified

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
    return EquivalenceResult(n1.comps == n2.comps, hh1_ok)


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


def random_gauge(E, N, rng, density=0.5):
    """Seeded random gauge transform with small rational entries."""
    cx = reduced_complex(E)
    comps = {}
    for k in range(2, N):
        t = 1 - k
        values = {}
        for key, w in cx.basis(k, t):
            if rng.random() < density:
                num = rng.randint(-3, 3)
                if not num:
                    continue
                den = rng.choice([1, 1, 2])
                values.setdefault(key, {})[w] = rat(num, den)
        if values:
            comps[k] = Cochain(E, k, t, values)
    return GaugeTransform(E, N, comps)


def random_structure(E, N, rng, density=0.5):
    """Random defect-free structure: a random gauge acting on the trivial
    structure."""
    return gauge_act(random_gauge(E, N, rng, density),
                     AnStructure.trivial(E, N))
