"""Exact rational linear algebra: echelon bases, kernels, solves, ranks.

Everything is computed over Q with exact arithmetic (fractions.Fraction);
no floating point anywhere.  Vectors are dicts index -> coefficient with
no stored zeros, and a matrix is a list of sparse columns.  accum is the
one place that writes the accumulation rule for such dicts (store c
itself for a new key, drop the key when the sum cancels); every sparse
sum in the package goes through it or vec_addmul, except the integer
elimination in _component_pivot_rows, which tracks row use as keys come
and go.

Echelon is the one Fraction elimination: it keeps the reduced row echelon
basis of a span together with each row's coordinates on the added
vectors, and kernel_basis, solve, the loop classes of quiver and the
curve-basis checks all read it.  The Hochschild complex keeps one per
cell of delta (HochschildComplex.echelon), which the pivot-rule
complements and the extension solves of ainfinity share.  The textbook
reduced row echelon form is kept in the tests, as the reference.

rank_of_columns, which the Hochschild and Laurent-window ranks run on,
eliminates fraction-free on Python ints instead (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 1968): each column is scaled to coprime integers, and a column is
reduced against a pivot column by integer combination followed by
division by its content.  Both steps are rank-preserving column
operations, so the rank is exact without any rational division.  It
can also report its pivot rows, onto which the span projects
bijectively; the Hochschild ranks use them to clear columns of the next
differential.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(a, b=None):
    """Exact rational from ints, strings like "p/q", or another rational.
    Input naming no rational (a zero denominator, an infinite float)
    raises ValueError, like a malformed string."""
    try:
        if b is None:
            return Fraction(a.strip() if isinstance(a, str) else a)
        return Fraction(a) / Fraction(b)
    except (ZeroDivisionError, OverflowError):
        raise ValueError("%r is not a rational number"
                         % (a if b is None else "%s/%s" % (a, b))) from None


def rat_str(x):
    """Serialize as "p" or "p/q" with positive denominator."""
    return str(x)


# ---------------------------------------------------------------------------
# sparse vectors


def accum(u, i, c):
    """u[i] += c, storing c itself for a new key and dropping zeros."""
    if not c:
        return
    s = u.get(i)
    if s is None:
        u[i] = c
    else:
        s += c
        if s:
            u[i] = s
        else:
            del u[i]


def vec_scale(u, c):
    if not c:
        return {}
    return {i: c * x for i, x in u.items()}


def vec_addmul(u, c, v):
    """u += c*v in place, dropping zeros."""
    if c:
        for i, x in v.items():
            accum(u, i, c * x)
    return u


# ---------------------------------------------------------------------------
# elimination


class Echelon:
    """The reduced row echelon basis of the span of the sparse vectors added
    so far, with the coordinates of each row on those vectors.

    `rows` maps each pivot q to (R_q, X_q).  R_q has entry 1 at q, which is
    the least index of its support, and is zero at every other pivot;
    X_q holds its coordinates on the added vectors, numbered in the order
    they were added, so R_q = sum_j X_q[j] v_j.  The rows are the RREF basis
    of the span whatever order the vectors came in, and X_q is supported
    on the vectors that enlarged the span of those before them.
    """

    __slots__ = ("rows", "added")

    def __init__(self, vectors=()):
        self.rows = {}
        self.added = 0
        for v in vectors:
            self.add(v)

    def __len__(self):
        return len(self.rows)

    def split(self, v):
        """(kappa, x) with v = kappa + sum_j x_j v_j and kappa zero at every
        pivot: kappa = v - sum_q v_q R_q and x = sum_q v_q X_q."""
        kappa = dict(v)
        x = {}
        for q, c in v.items():
            row = self.rows.get(q)
            if row is not None:
                vec_addmul(kappa, -c, row[0])
                vec_addmul(x, c, row[1])
        return kappa, x

    def contains(self, v):
        """v lies in the span: split's kappa is zero, found without
        building x."""
        kappa = dict(v)
        for q, c in v.items():
            row = self.rows.get(q)
            if row is not None:
                vec_addmul(kappa, -c, row[0])
        return not kappa

    def add(self, v):
        """Add v as the next vector; True iff it enlarged the span."""
        j = self.added
        self.added += 1
        r, x = self.split(v)
        if not r:
            return False
        q = min(r)
        inv = ONE / r[q]
        r, x = vec_scale(r, inv), {p: -c * inv for p, c in x.items()}
        x[j] = inv
        for rq, xq in self.rows.values():
            c = rq.get(q)
            if c:
                vec_addmul(rq, -c, r)
                vec_addmul(xq, -c, x)
        self.rows[q] = (r, x)
        return True


def kernel_basis(columns):
    """Basis of the null space of the matrix with these sparse columns, as
    a Subspace of Q^len(columns) of dimension len(columns) - rank.

    One basis vector e_j - x per column j that the columns before it span,
    with x its coordinates on the pivot columns, in increasing column
    order: the free coordinate is 1 and the others are zero (the
    presentation read off the reduced row echelon form of the matrix).
    """
    ech = Echelon()
    basis = []
    for j, col in enumerate(columns):
        if not ech.add(col):
            x = ech.split(col)[1]
            basis.append({j: ONE} | {p: -x[p] for p in sorted(x)})
    return Subspace(len(columns), basis)


def solve(echelon, b):
    """Some x with sum_j x_j v_j = b over the vectors v_j added to the
    Echelon, or None.  x is supported on the vectors that enlarged the
    span (free variables are zero), which makes it unique, and its keys
    are in increasing order."""
    kappa, x = echelon.split(b)
    if kappa:
        return None
    return {j: x[j] for j in sorted(x)}


class Subspace:
    """A subspace of Q^n given by an independent list of sparse vectors."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis):
        self.ambient_dim = ambient_dim
        self.basis = list(basis)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        return Echelon(self.basis).contains(v)

    def __eq__(self, other):
        if not isinstance(other, Subspace) or self.ambient_dim != other.ambient_dim:
            return False
        if self.dim != other.dim:
            return False
        return len(Echelon(self.basis + other.basis)) == self.dim


# ---------------------------------------------------------------------------
# fast rank for large sparse systems


def rank_of_columns(columns, pivots=None):
    """Rank of the span of sparse column vectors; the inputs are not
    changed.  Given a set `pivots`, the pivot rows of the elimination are
    added to it: one row per unit of rank, and projecting the span onto
    the coordinates in those rows is injective, hence bijective.

    Each column is scaled to coprime integers, which keeps the rank, and
    the incidence graph is split into connected components.  Each
    component is then eliminated fraction-free on Python ints: the
    sparsest live column is the next pivot column (ties to the lower
    index), its pivot row is the one used by the fewest other columns,
    and every other column k meeting that row becomes a*k - b*pivot with
    a/b the reduced ratio of the two pivot-row entries, divided by its
    content.  Each step is an exact rank-preserving column operation, so
    no fraction, modulus or certificate is needed.  A pivot column is
    zero at every earlier pivot row, since it was live when that row was
    cleared, so the pivot columns, which span the input, are triangular
    with nonzero diagonal on the pivot rows.  Any pivot strategy yields
    the same rank, so this path is free to be greedy while Echelon keeps
    the canonical pivot rule.
    """
    cols = [_integer_column(c) for c in columns if c]
    if not cols:
        return 0
    # union-find over row indices
    parent = {}

    def find(x):
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for c in cols:
        it = iter(c)
        first = next(it)
        if first not in parent:
            parent[first] = first
        rf = find(first)
        for i in it:
            if i not in parent:
                parent[i] = i
            ri = find(i)
            if ri != rf:
                parent[ri] = rf
    groups = {}
    for c in cols:
        key = find(next(iter(c)))
        groups.setdefault(key, []).append(c)
    rank = 0
    for g in groups.values():
        rows = _component_pivot_rows(g)
        rank += len(rows)
        if pivots is not None:
            pivots.update(rows)
    return rank


def _integer_column(col):
    """The column times the lcm of its denominators, over the gcd of the
    resulting integers: a new dict of coprime Python ints."""
    den = lcm(*[c.denominator for c in col.values()])
    ints = {i: c.numerator * (den // c.denominator) for i, c in col.items()}
    g = gcd(*ints.values())
    if g != 1:
        ints = {i: v // g for i, v in ints.items()}
    return ints


def _component_pivot_rows(cols):
    """Fraction-free elimination of integer columns (modified in place);
    the pivot rows in the order they were chosen."""
    pivots = []
    # row -> set of column indices still containing it
    row_use = {}
    for k, col in enumerate(cols):
        for i in col:
            row_use.setdefault(i, set()).add(k)
    # lazy heap of (length, index); an entry whose length is out of date
    # or whose column is done is skipped
    heap = [(len(col), k) for k, col in enumerate(cols)]
    heapify(heap)
    done = [False] * len(cols)
    while heap:
        n, ci = heappop(heap)
        col = cols[ci]
        if done[ci] or n != len(col):
            continue
        done[ci] = True
        if not col:
            continue
        for i in col:
            row_use[i].discard(ci)
        # pick pivot row used by fewest other columns
        pr = min(col, key=lambda i: (len(row_use[i]), i))
        pivots.append(pr)
        pc = col[pr]
        for k in list(row_use[pr]):
            other = cols[k]
            x = other[pr]
            g = gcd(pc, x)
            a, b = pc // g, x // g
            if a != 1:
                for i in other:
                    other[i] *= a
            # written out, not accum: each added or dropped key also
            # updates row_use
            for i, v in col.items():
                s = other.get(i, 0) - b * v
                if s:
                    if i not in other:
                        row_use[i].add(k)
                    other[i] = s
                else:
                    del other[i]
                    row_use[i].discard(k)
            if other:
                g = gcd(*other.values())
                if g != 1:
                    for i in other:
                        other[i] //= g
            heappush(heap, (len(other), k))
    return pivots
