"""Special-curve coordinate algebras, the branchwise polynomial embedding,
basis verification, Krichever windows, Grassmannian points, and transversal
gluing.

A special curve is encoded by (n, S, a): n branches, a subset S of branch
indices of size g, and a rational matrix a = (a_{ij}) indexed by i in S,
j not in S.  Its affine coordinate ring is generated by h_{S,j} (degree 1,
j not in S), f_i (degree 2) and h_i (degree 3) for i in S, and embeds into
a direct sum of polynomial rings, one per branch, by
    f_i -> x_i^2,   h_i -> x_i^3,   h_{S,j} -> x_j + sum_i a_{ij} x_i.
The marked point of each branch sits at x = infinity with local parameter
t = 1/x, so re-expanding an embedded function into the Krichever model is
exponent negation.  For D != 0, H_j = D h_{S,j} satisfies the relations of
(n, S, D a), whose rules keep their leads, so N(H^e) = D^|e| N(h_S^e) and
rho(H^e) = D^|e| rho(h_S^e), |e| the h_S-degree of e; verify_basis uses it.
"""

from __future__ import annotations

import itertools
from math import lcm

from .linalg import (Echelon, ONE, ZERO, accum, as_int, kernel_basis,
                     rank_of_columns, rat, rat_str, vec_addmul)
from .poly import MultiPoly, PolyRing, RelationSystem
from .quiver import SubspaceW

# order weights making every relation template's left side leading:
# they satisfy 2*w_s > w_f, w_f + w_s > w_h, w_h + w_s > 2*w_f, 2*w_h > 3*w_f.
ORDER_W_HS = 20
ORDER_W_F = 36
ORDER_W_H = 55


class SpecialCurveData:
    """(n, S, a) with |S| = g and a rational matrix (a_{ij})_{i in S, j not in S}."""

    __slots__ = ("n", "S", "a")

    def __init__(self, n, S, a=None, s_name="S"):
        if n < 1:
            raise ValueError("n must be at least 1, got %d" % n)
        self.n = n
        self.S = tuple(sorted(set(S)))
        if len(self.S) != len(S):
            raise ValueError("%s repeats an index: %s" % (s_name, list(S)))
        if any(not 1 <= i <= n for i in self.S):
            raise ValueError("S must be a subset of 1..n")
        self.a = {}
        comp = self.complement()
        if a:
            for (i, j), c in a.items():
                if i not in self.S or j not in comp:
                    raise ValueError("a is indexed by S x complement")
                c = rat(c)
                if c:
                    self.a[(i, j)] = c

    @property
    def g(self):
        return len(self.S)

    def complement(self):
        sset = set(self.S)
        return tuple(j for j in range(1, self.n + 1) if j not in sset)

    def a_entry(self, i, j):
        return self.a.get((i, j), ZERO)

    @classmethod
    def from_rows(cls, n, S, rows, name="a", s_name="S"):
        """a given as a dense matrix, rows over S, columns over the sorted
        complement; S must be strictly increasing, so that the rows follow
        it.  A shape error calls the matrix `name`, an error in S calls it
        `s_name`."""
        d = cls(n, S, s_name=s_name)
        if list(S) != list(d.S):
            raise ValueError("%s must be increasing, since the rows of %s follow it: %s"
                             % (s_name, name, list(S)))
        comp = d.complement()
        if [len(row) for row in rows] != [len(comp)] * d.g:
            raise ValueError("%s must be a %d x %d matrix (|S| x (n - |S|))"
                             % (name, d.g, len(comp)))
        a = {}
        for r, i in enumerate(d.S):
            for c, j in enumerate(comp):
                a[(i, j)] = rat(rows[r][c])
        return cls(n, S, a)

    def to_json(self):
        comp = self.complement()
        return {"n": self.n, "S": list(self.S),
                "a": [[rat_str(self.a_entry(i, j)) for j in comp] for i in self.S]}

    def __repr__(self):
        return "SpecialCurveData(n=%d, S=%s)" % (self.n, list(self.S))


class CurveAlgebraPresentation:
    """The graded relation system of a special curve, with generator
    bookkeeping and the claimed-basis predicate."""

    def __init__(self, data):
        self.data = data
        n, S, comp = data.n, data.S, data.complement()
        names = (["hS_%d" % j for j in comp] + ["f_%d" % i for i in S]
                 + ["h_%d" % i for i in S])
        weights = [1] * len(comp) + [2] * len(S) + [3] * len(S)
        order_w = [ORDER_W_HS] * len(comp) + [ORDER_W_F] * len(S) + [ORDER_W_H] * len(S)
        ring = PolyRing(names, weights, order_w)
        self.ring = ring

        # variable positions, and the exponent tuple of a product of them
        nhs, ns = len(comp), len(S)
        hs = {j: k for k, j in enumerate(comp)}
        f = {i: nhs + k for k, i in enumerate(S)}
        h = {i: nhs + ns + k for k, i in enumerate(S)}
        zero = (0,) * ring.nvars()

        def mono(*ks):
            e = list(zero)
            for k in ks:
                e[k] += 1
            return tuple(e)

        # each relation's terms, leading product first
        rels = []
        for i, ip in itertools.combinations(S, 2):
            rels.append({mono(f[i], f[ip]): ONE})
            rels.append({mono(h[i], h[ip]): ONE})
        for i in S:
            for ip in S:
                if i != ip:
                    rels.append({mono(f[i], h[ip]): ONE})
        for i in S:
            rels.append({mono(h[i], h[i]): ONE, mono(f[i], f[i], f[i]): -ONE})
        for j, jp in itertools.combinations(comp, 2):
            rel = {mono(hs[j], hs[jp]): ONE}
            for i in S:
                rel[mono(f[i])] = -(data.a_entry(i, j) * data.a_entry(i, jp))
            rels.append(rel)
        for i in S:
            for j in comp:
                a = data.a_entry(i, j)
                rels.append({mono(f[i], hs[j]): ONE, mono(h[i]): -a})
                rels.append({mono(h[i], hs[j]): ONE, mono(f[i], f[i]): -a})

        # a claimed monomial uses one block, a single h_S_j or a pair
        # (f_i, h_i), and h_i at most once
        block = [*range(nhs), *range(nhs, nhs + ns), *range(nhs, nhs + ns)]

        def claimed(exps):
            return (len({block[k] for k, e in enumerate(exps) if e}) <= 1
                    and all(e <= 1 for e in exps[nhs + ns:]))

        self.system = RelationSystem(
            ring, [MultiPoly(ring, rel) for rel in rels],
            claimed_basis="powers of a single h_S_j, or f_i^m, or f_i^m h_i",
            is_claimed_basis_monomial=claimed)
        # the unclaimed monomials are the multiples of these: a product of
        # two generators from different blocks, or h_i^2
        self.unclaimed_generators = [
            mono(k, l) for k, l in itertools.combinations(range(ring.nvars()), 2)
            if block[k] != block[l]] + [mono(h[i], h[i]) for i in S]
        # the claimed monomials other than 1, as base * x_k^m for m >= low
        self._powers = ([(zero, k, 1) for k in hs.values()]
                        + [(zero, f[i], 1) for i in S]
                        + [(mono(h[i]), f[i], 0) for i in S])

    def single_block_monomials(self, degree_bound):
        """Every monomial that uses one block and h_i at most once, up to
        the bound, in lexicographic order: 1, hS_j^m, f_i^m and f_i^m h_i."""
        ring = self.ring
        out = [(0,) * ring.nvars()] if degree_bound >= 0 else []
        for base, k, low in self._powers:
            top = (degree_bound - ring.wdeg(base)) // ring.weights[k]
            out.extend(base[:k] + (m,) + base[k + 1:] for m in range(low, top + 1))
        out.sort()
        return out

    def claimed_basis_monomials(self, degree_bound):
        """The claimed monomials up to the bound, in lexicographic order.
        The predicate is applied to the single-block monomials, the most it
        can claim."""
        return [e for e in self.single_block_monomials(degree_bound)
                if self.system.is_claimed_basis_monomial(e)]


def special_curve_algebra(data) -> CurveAlgebraPresentation:
    return CurveAlgebraPresentation(data)


# ---------------------------------------------------------------------------
# the branchwise embedding


def rho_generator_images(data, corrupt=None):
    """Images of the generators as branch polynomials {(branch, exp): c},
    branches numbered 0..n-1 for points 1..n.  corrupt maps a generator name
    to a replacement image (used by the adversarial tests)."""
    images = {}
    for j in data.complement():
        img = {(j - 1, 1): ONE}
        for i in data.S:
            c = data.a_entry(i, j)
            if c:
                img[(i - 1, 1)] = c
        images["hS_%d" % j] = img
    for i in data.S:
        images["f_%d" % i] = {(i - 1, 2): ONE}
        images["h_%d" % i] = {(i - 1, 3): ONE}
    if corrupt:
        images.update(corrupt)
    return images


def bp_mul(u, v):
    """Branchwise product of branch polynomials.  A coefficient 1 on either
    side, as on the images of f_i and h_i, is not multiplied."""
    out = {}
    for (b1, e1), c1 in u.items():
        one = c1 == 1
        for (b2, e2), c2 in v.items():
            if b1 == b2:
                accum(out, (b1, e1 + e2), c2 if one else c1 if c2 == 1 else c1 * c2)
    return out


def bp_eval(u, branch, value):
    """Value at the point of the given branch with coordinate x = value."""
    total = ZERO
    for (b, e), c in u.items():
        if b != branch:
            continue
        term = c
        for _ in range(e):
            term = term * value
        total += term
    return total


def rho_monomial(pres, exps, images=None):
    """rho of a monomial in the generators, by multiplicative substitution."""
    data = pres.data
    if images is None:
        images = rho_generator_images(data)
    out = {(b, 0): ONE for b in range(data.n)}
    for name, e in zip(pres.ring.names, exps):
        img = images[name]
        for _ in range(e):
            out = bp_mul(out, img)
    return out


def rho_embed(pres, p, images=None):
    """rho of a polynomial in the presentation's generators."""
    out = {}
    for exps, c in p.terms.items():
        vec_addmul(out, c, rho_monomial(pres, exps, images))
    return out


# ---------------------------------------------------------------------------
# basis verification


class BasisReport:
    __slots__ = ("passed", "reason")

    def __init__(self, passed, reason=""):
        self.passed = passed
        self.reason = reason

    def __bool__(self):
        return self.passed

    def to_json(self):
        return {"verdict": "PASS" if self.passed else "FAIL", "reason": self.reason}


def verify_basis(data, degree_bound, corrupt=None):
    """Check, degree by degree up to the bound, that the claimed monomials
    embed to an independent family, that every monomial's image lies in
    their span, and that reduction by the relations is compatible with the
    embedding (rho of a monomial equals rho of its normal form).

    It runs on ints, on the curve (n, S, D a), D the lcm of a's denominators,
    with hS_j sent to D times its image, corrupt or not: as in the module
    docstring, every check below holds for e exactly when it did on (n, S, a).

    rho(e) is built when first needed, as rho(e - unit_k) times the image
    of generator k, for the last generator k that e uses.  Each degree's
    claimed monomials go into one echelon basis, which gives the
    independence verdict.

    The other two checks cannot fail at a degree d when rho kills every
    relation and every unclaimed monomial of degree d is reducible.  rho
    is a ring map and N(e) - e lies in the ideal of the relations, so
    rho(N(e)) = rho(e); the terms of N(e) are irreducible, hence claimed,
    so rho(e) lies in the span.  The unclaimed monomials are not walked to
    see that.  A monomial is reducible iff some rule's lead divides it, so
    reducibility passes to its multiples (Becker-Weispfenning, Groebner
    Bases, GTM 141), and the monomials outside the single-block ones are
    the multiples of the presentation's unclaimed_generators: the products
    of two generators from different blocks, and the h_i^2.  So when every
    such generator is reducible, it is enough that every single-block
    monomial of degree d that the predicate rejects is.  Such a degree
    builds images of its claimed monomials only and checks independence
    only.  At any other degree each monomial, listed once for all such
    degrees, is reduced once by the relations, and its image is reduced
    against the echelon basis only when the normal form does not already
    prove it lies in the span.
    """
    D = lcm(*[c.denominator for c in data.a.values()])
    pres = special_curve_algebra(
        SpecialCurveData(data.n, data.S, {ij: D * c for ij, c in data.a.items()}))
    images = rho_generator_images(data, corrupt)
    ring, system = pres.ring, pres.system
    factors = [{k: as_int(D * c if name.startswith("hS_") else c)
                for k, c in images[name].items()} for name in ring.names]
    rho = {(0,) * len(factors): {(b, 0): 1 for b in range(data.n)}}

    def image(e):
        if e not in rho:
            k = max(k for k, x in enumerate(e) if x)
            rho[e] = bp_mul(image(e[:k] + (e[k] - 1,) + e[k + 1:]), factors[k])
        return rho[e]

    def embed(p):
        out = {}
        for t, c in p.terms.items():
            vec_addmul(out, as_int(c), image(t))
        return out

    relations_vanish = not any(embed(r) for r in system.relations)
    covered = not any(system.is_irreducible(e) for e in pres.unclaimed_generators)
    candidates = {}
    for e in pres.single_block_monomials(degree_bound):
        candidates.setdefault(ring.wdeg(e), []).append(e)
    by_deg_all = None
    for d in range(degree_bound + 1):
        single = candidates.get(d, [])
        claimed = {e for e in single if system.is_claimed_basis_monomial(e)}
        span = Echelon()
        for e in single:
            if e in claimed and not span.add(image(e)):
                return BasisReport(False, "degree %d: claimed monomials dependent" % d)
        if relations_vanish and covered and not any(
                system.is_irreducible(e) for e in single if e not in claimed):
            continue
        if by_deg_all is None:
            by_deg_all = {}
            for e in ring.monomials_up_to(degree_bound):
                by_deg_all.setdefault(ring.wdeg(e), []).append(e)
        for e in by_deg_all.get(d, []):
            # Every relation of the presentation is homogeneous, so this
            # cannot raise BoundExceededError at d <= degree_bound, and
            # reducing before the span test changes no verdict.
            nf = system.normal_form(MultiPoly(ring, {e: 1}), degree_bound)
            kept = embed(nf) == image(e)
            # a kept image with every normal-form term claimed is a
            # combination of claimed images, so it lies in the span
            if not (kept and claimed.issuperset(nf.terms)) and not span.contains(image(e)):
                return BasisReport(False, "degree %d: image of %s escapes the span"
                                   % (d, e))
            if not kept:
                return BasisReport(False, "degree %d: reduction of %s changes the image"
                                   % (d, e))
    return BasisReport(True)


def component_type(data, i):
    """cuspidal iff the a-row of branch i vanishes identically."""
    if i not in data.S:
        raise ValueError("component type is defined for i in S")
    if all(not data.a_entry(i, j) for j in data.complement()):
        return "cuspidal"
    return "rational"


def grassmannian_point(data) -> SubspaceW:
    """The subspace spanned by e_j + sum_i a_{ij} e_i for j not in S."""
    rows = []
    for j in data.complement():
        row = [ZERO] * data.n
        row[j - 1] = ONE
        for i in data.S:
            row[i - 1] = data.a_entry(i, j)
        rows.append(row)
    return SubspaceW(data.n, rows)


# ---------------------------------------------------------------------------
# branch models


class CurveModel:
    """A curve presented by branch polynomials: a filtered basis of its
    affine algebra inside a direct sum of polynomial rings."""

    __slots__ = ("branches", "depth", "basis", "genus")

    def __init__(self, branches, depth, basis, genus):
        self.branches = branches
        self.depth = depth
        self.basis = basis
        self.genus = genus


def branch_model(data, depth) -> CurveModel:
    pres = special_curve_algebra(data)
    images = rho_generator_images(data)
    basis = [rho_monomial(pres, e, images)
             for e in pres.claimed_basis_monomials(depth)]
    return CurveModel(data.n, depth, basis, data.g)


# ---------------------------------------------------------------------------
# Krichever windows


class KricheverWindow:
    """Window model of the subspace of branchwise Laurent expansions of the
    curve algebra, with the three nonspecial-subalgebra verdicts."""

    __slots__ = ("branches", "depth", "subspace", "intersection_dim", "codim",
                 "verdicts")

    def __init__(self, branches, depth, subspace, intersection_dim, codim,
                 complement_filled):
        self.branches = branches
        self.depth = depth
        self.subspace = subspace
        self.intersection_dim = intersection_dim
        self.codim = codim
        self.verdicts = {
            "intersection_is_constants": intersection_dim == 1,
            "codim_matches": None,  # filled by callers who know g
            "complement_condition": complement_filled,
        }

    def to_json(self):
        return {
            "branches": self.branches,
            "depth": self.depth,
            "dim_subspace": len(self.subspace),
            "intersection_dim": self.intersection_dim,
            "codim": self.codim,
            "verdicts": {k: v for k, v in self.verdicts.items() if v is not None},
        }


def window_from_vectors(basis, branches, depth):
    """Verdict computations for branch polynomials {(branch, x-exponent): c}
    with exponents in [-depth, depth]; with t = 1/x the x-exponent e is the
    window exponent -e."""
    wcols = []
    for bp in basis:
        if any(not -depth <= e <= depth for _, e in bp):
            raise ValueError("vector outside window")
        wcols.append({(b, -e): c for (b, e), c in bp.items()})
    total = branches * (2 * depth + 1)
    nonneg = [{(b, e): ONE} for b in range(branches) for e in range(0, depth + 1)]
    geq_m1 = [{(b, e): ONE} for b in range(branches) for e in range(-1, depth + 1)]
    r_w = rank_of_columns(wcols)
    r_w_nonneg = rank_of_columns(wcols + nonneg)
    inter = r_w + len(nonneg) - r_w_nonneg
    codim = total - r_w_nonneg
    filled = rank_of_columns(wcols + geq_m1) == total
    return KricheverWindow(branches, depth, basis, inter, codim, filled)


class WindowUnderflowError(ValueError):
    """A window is too shallow for the requested computation."""


def _check_window_depth(depth, g):
    """A window of depth below 2g+4 cannot be trusted to show genus g."""
    if depth < 2 * g + 4:
        raise WindowUnderflowError(
            "depth must be at least 2g+4 = %d for a trustworthy window of "
            "genus %d, got %d" % (2 * g + 4, g, depth))


def krichever_window(data, depth):
    """Window model for a special curve: basis monomials of weighted degree
    <= depth, re-expanded with x_i = 1/t_i."""
    _check_window_depth(depth, data.g)
    win = window_from_vectors(branch_model(data, depth).basis, data.n, depth)
    win.verdicts["codim_matches"] = win.codim == data.g
    return win


# ---------------------------------------------------------------------------
# gluing


def glue(left, q_left, right, q_right):
    """Transversal gluing of two curve models at the points q = (branch,
    x-value); the glued algebra is the pairs of functions agreeing at the
    glued point.  Returns (glued CurveModel, report).  The depth must be at
    least 2g+4 for the glued genus g, as in krichever_window."""
    for side, q in ((left, q_left), (right, q_right)):
        if q[1] is None:
            raise ValueError("gluing at a marked point (x = infinity) is not allowed")
        if not 0 <= q[0] < side.branches:
            raise ValueError("gluing branch must be in 0..%d, got %d"
                             % (side.branches - 1, q[0]))
    if left.depth != right.depth:
        raise ValueError("models must share the filtration depth")
    depth = left.depth
    _check_window_depth(depth, left.genus + right.genus)
    bl, vl = q_left[0], rat(q_left[1])
    br, vr = q_right[0], rat(q_right[1])
    # kernel of (f, g) -> f(q_left) - g(q_right) on the concatenated basis
    values = ([bp_eval(f, bl, vl) for f in left.basis]
              + [-bp_eval(gfun, br, vr) for gfun in right.basis])
    ker = kernel_basis([{0: c} if c else {} for c in values])
    off = len(left.basis)
    branches = left.branches + right.branches
    glued = []
    for v in ker:
        bp = {}
        for idx, c in v.items():
            if idx < off:
                vec_addmul(bp, c, left.basis[idx])
            else:
                for (b, e), x in right.basis[idx - off].items():
                    accum(bp, (b + left.branches, e), c * x)
        glued.append(bp)
    model = CurveModel(branches, depth, glued, left.genus + right.genus)
    win = window_from_vectors(glued, branches, depth)
    report = {
        "genus": win.codim,
        "expected_genus": left.genus + right.genus,
        "additive": win.codim == left.genus + right.genus,
        "branches": branches,
        "window": win.to_json(),
    }
    return model, report
