"""The finite-dimensional graded quiver algebra attached to a subspace
W of Q^n.

The quiver has vertices O, p_1, ..., p_n and arrows A_i: p_i -> O (degree 0),
B_i: O -> p_i (degree 1).  Composition is read left to right, so A_i B_i is
the loop at p_i and B_i A_i the loop at O.  The defining relations kill
A_i B_i A_i, B_i A_i B_i, A_i B_j (i != j), and impose
sum x_i B_i A_i = 0 for every (x_i) in W.  The resulting algebra has basis:
the n+1 vertex idempotents, the arrows A_i and B_i, the loops l_i = A_i B_i,
and g = n - rank-deficiency independent loop classes at O; its dimension is
4n + g + 1.  Its nonzero products form three families, which EWAlgebra
writes straight into its table: the vertex idempotents act as units,
A_i B_i = l_i, and B_i A_i is the class of e_i in Q^n / W.  The table is
kept as Fractions and, scaled by the lcm D of their denominators, as ints
(int_table); the neighbour lists that delta reads hold the ints.

The loop classes at O are the classes of e_i in Q^n / W at the columns
that are not pivots of W, the least indices of its nonzero vectors, as
in its reduced row echelon basis (the canonical-complement pivot rule,
read off linalg.Echelon), which makes the basis deterministic.
"""

from __future__ import annotations

from math import lcm

from .linalg import Echelon, ONE, rat, rat_str, vec_addmul


class SubspaceW:
    """An (n-g)-dimensional subspace of Q^n, given by full-rank rows.
    `rows` holds them as dense rational tuples; `echelon` is their
    Echelon, which has one row per pivot column of W, and whose row(j)
    is the reduced row echelon row at pivot j."""

    __slots__ = ("n", "g", "rows", "echelon")

    def __init__(self, n, rows):
        if n < 0:
            raise ValueError("n must be at least 0, got %d" % n)
        self.n = n
        self.rows = tuple(tuple(rat(c) for c in row) for row in rows)
        for i, row in enumerate(self.rows, 1):
            if len(row) != n:
                raise ValueError("row %d has %d entries, expected n=%d"
                                 % (i, len(row), n))
        self.echelon = Echelon({j: c for j, c in enumerate(row) if c}
                               for row in self.rows)
        if len(self.echelon) != len(self.rows):
            raise ValueError("rows are not linearly independent")
        self.g = n - len(self.rows)

    def scaled(self, lam):
        """Componentwise rescaling (lambda_1 x_1, ..., lambda_n x_n)."""
        return SubspaceW(self.n, [[l * c for l, c in zip(lam, row)]
                                  for row in self.rows])

    @classmethod
    def zero(cls, n):
        return cls(n, [])

    def to_json(self):
        return {"n": self.n, "rows": [[rat_str(c) for c in row] for row in self.rows]}


class EWAlgebra:
    """Basis-indexed model of the quotient algebra with explicit structure
    constants, Z-grading and quiver source/target data.

    Vertices are numbered 0 (the hub O) and 1..n (the p_i).
    """

    def __init__(self, w: SubspaceW):
        n, g = w.n, w.g
        self.n = n
        self.g = g
        self.w = w

        labels = ["e_O"] + ["e_p%d" % i for i in range(1, n + 1)]
        labels += ["A%d" % i for i in range(1, n + 1)]
        labels += ["B%d" % i for i in range(1, n + 1)]
        labels += ["l%d" % i for i in range(1, n + 1)]

        reduced = w.echelon.rows
        nonpivots = [j for j in range(n) if j not in reduced]
        labels += ["w%d" % (s + 1) for s in range(len(nonpivots))]
        assert len(nonpivots) == g

        self.labels = labels
        self.dim = len(labels)
        assert self.dim == 4 * n + g + 1
        self.index = {lab: k for k, lab in enumerate(labels)}
        self.loop_columns = nonpivots  # w_s represents the class of e_{nonpivots[s]}

        self.e_idx = list(range(n + 1))
        self.a_idx = [n + 1 + i for i in range(n)]          # A_{i+1}
        self.b_idx = [2 * n + 1 + i for i in range(n)]      # B_{i+1}
        self.l_idx = [3 * n + 1 + i for i in range(n)]      # l_{i+1}
        self.w_idx = [4 * n + 1 + s for s in range(g)]
        self.radical = self.a_idx + self.b_idx + self.l_idx + self.w_idx
        self.radical_set = frozenset(self.radical)

        deg = [0] * (n + 1) + [0] * n + [1] * n + [1] * n + [1] * g
        self.deg = deg

        src = list(range(n + 1)) + [i + 1 for i in range(n)] + [0] * n \
            + [i + 1 for i in range(n)] + [0] * g
        tgt = list(range(n + 1)) + [0] * n + [i + 1 for i in range(n)] \
            + [i + 1 for i in range(n)] + [0] * g
        self.src = src
        self.tgt = tgt
        homs = {}
        for k in range(self.dim):
            homs.setdefault((src[k], tgt[k], deg[k]), []).append(k)
        self._homs = {key: tuple(ks) for key, ks in homs.items()}

        # class of e_j in Q^n/W on the basis (e_c)_{c in nonpivots}:
        # for a pivot column p the reduced row R_p gives
        # e_p = -sum_{c nonpivot} R_p[c] e_c  (mod W)
        coset = []
        for j in range(n):
            if j in reduced:
                row = w.echelon.row(j)[0]
                coset.append({s: -row[c] for s, c in enumerate(nonpivots) if c in row})
            else:
                coset.append({nonpivots.index(j): ONE})
        self.coset_coords = coset  # index j-1 shifted: entry per column 0..n-1

        # the three product families of the module docstring; B_i A_i is
        # zero when e_i lies in W
        table = {}
        for k in range(self.dim):
            table[(src[k], k)] = {k: ONE}
            table[(k, tgt[k])] = {k: ONE}
        for i in range(n):
            table[(self.a_idx[i], self.b_idx[i])] = {self.l_idx[i]: ONE}
            if coset[i]:
                table[(self.b_idx[i], self.a_idx[i])] = {
                    self.w_idx[s]: c for s, c in coset[i].items()}
        self.table = dict(sorted(table.items()))
        # lcm of the structure constants' denominators: denominator * c is
        # an integer for every constant c of the table, kept in int_table
        self.denominator = lcm(*[c.denominator for prod in self.table.values()
                                 for c in prod.values()])
        self.int_table = {km: {z: c.numerator * (self.denominator // c.denominator)
                               for z, c in prod.items()}
                          for km, prod in self.table.items()}
        # right_products[k] = [(m, k*m)], left_products[m] = [(k, k*m)] over
        # nonzero products in int_table, ascending as the table is sorted
        self.right_products = [[] for _ in range(self.dim)]
        self.left_products = [[] for _ in range(self.dim)]
        for (k, m), prod in self.int_table.items():
            self.right_products[k].append((m, prod))
            self.left_products[m].append((k, prod))

        # filled on first use by hochschild.reduced_complex
        self._hochschild_complex = None

    # -- multiplication -----------------------------------------------------

    def mul_basis(self, k, m):
        """Structure constants of basis_k * basis_m as a sparse vector."""
        return dict(self.table.get((k, m), ()))

    def mul(self, u, v):
        """Product of sparse E-vectors (dict basis index -> coefficient)."""
        out = {}
        for k, ck in u.items():
            for m, cm in v.items():
                prod = self.table.get((k, m))
                if prod:
                    vec_addmul(out, ck * cm, prod)
        return out

    # -- views --------------------------------------------------------------

    def hom_basis(self, u, v, d):
        """Basis indices of the degree-d part of e_u E e_v, ascending, read
        from a (source, target, degree) table built once per algebra."""
        return self._homs.get((u, v, d), ())

    def graded_dims(self):
        out = {}
        for k in range(self.dim):
            out[self.deg[k]] = out.get(self.deg[k], 0) + 1
        return out

    def to_json(self):
        sc = {}
        for (k, m), prod in sorted(self.table.items()):
            sc["%s.%s" % (self.labels[k], self.labels[m])] = {
                self.labels[r]: rat_str(c) for r, c in sorted(prod.items())}
        return {
            "n": self.n,
            "g": self.g,
            "w": self.w.to_json(),
            "basis": list(self.labels),
            "grading": {self.labels[k]: self.deg[k] for k in range(self.dim)},
            "structure_constants": sc,
        }

    def __repr__(self):
        return "EWAlgebra(n=%d, g=%d, dim=%d)" % (self.n, self.g, self.dim)


def build_ew(w: SubspaceW) -> EWAlgebra:
    return EWAlgebra(w)


class AlgebraMap:
    """A linear map between two EWAlgebras given on basis elements."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = images  # list of sparse vectors, one per source basis elt

    def apply(self, u):
        out = {}
        for k, c in u.items():
            vec_addmul(out, c, self.images[k])
        return out

    def intertwines(self):
        """Check map(x*y) == map(x)*map(y) on every basis pair."""
        E, F = self.source, self.target
        for a in range(E.dim):
            for b in range(E.dim):
                lhs = self.apply(E.mul_basis(a, b))
                rhs = F.mul(self.images[a], self.images[b])
                if lhs != rhs:
                    return False
        return True


def gm_rescale(e: EWAlgebra, lam) -> AlgebraMap:
    """The torus isomorphism A_i -> A_i, B_i -> lambda_i B_i onto the algebra
    of the componentwise-rescaled subspace."""
    lam = [rat(x) for x in lam]
    if len(lam) != e.n:
        raise ValueError("need one scalar per marked point")
    if any(not x for x in lam):
        raise ValueError("all rescaling factors must be nonzero")
    target = EWAlgebra(e.w.scaled(lam))
    images = []
    for k in range(e.dim):
        if k in e.e_idx or k in e.a_idx:
            images.append({k: ONE})
        elif k in e.b_idx:
            i = e.b_idx.index(k)
            images.append({k: lam[i]})
        elif k in e.l_idx:
            i = e.l_idx.index(k)
            images.append({k: lam[i]})
        else:
            s = e.w_idx.index(k)
            col = e.loop_columns[s]
            # image of the loop B_c A_c scaled by lambda_c, in target coordinates
            img = {target.w_idx[s2]: lam[col] * c
                   for s2, c in target.coset_coords[col].items()}
            images.append(img)
    return AlgebraMap(e, target, images)
