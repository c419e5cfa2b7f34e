"""Exact rational linear algebra: rref, rank, kernels, echelon bases, solves.

Everything is computed over Q with exact arithmetic (fractions.Fraction);
no floating point anywhere.  Matrices are stored sparsely; vectors are
dicts index -> coefficient with no stored zeros.  accum is the one place
that writes the accumulation rule for such dicts (store c itself for a new
key, drop the key when the sum cancels); every sparse sum in the package
goes through it or vec_addmul, except the integer elimination in
_rank_component, which tracks row use as keys come and go.

rref is the canonical exact reference.  rank_of_columns, which the
Hochschild ranks and the curve-basis checks run on, eliminates
fraction-free on Python ints instead (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 1968):
each column is scaled to coprime integers, and a column is reduced
against a pivot column by integer combination followed by division by its
content.  Both steps are rank-preserving column operations, so the rank is
exact without any rational division.
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


def vec_from_list(xs):
    return {i: rat(x) for i, x in enumerate(xs) if rat(x)}


def vec_to_list(u, n):
    return [u.get(i, ZERO) for i in range(n)]


# ---------------------------------------------------------------------------
# matrices


class ExactMatrix:
    """Sparse matrix over Q. Entries are kept as rows: dict i -> {j: c}."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        self.data = {}
        if data:
            for (i, j), c in data.items():
                self.set(i, j, c)

    @classmethod
    def from_rows(cls, rowlists):
        rows = len(rowlists)
        cols = len(rowlists[0]) if rows else 0
        m = cls(rows, cols)
        for i, row in enumerate(rowlists):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, c in enumerate(row):
                m.set(i, j, rat(c))
        return m

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.set(i, i, ONE)
        return m

    @classmethod
    def from_columns(cls, columns, nrows):
        m = cls(nrows, len(columns))
        for j, col in enumerate(columns):
            for i, c in col.items():
                m.set(i, j, c)
        return m

    def set(self, i, j, c):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        c = rat(c)
        row = self.data.get(i)
        if c:
            if row is None:
                row = self.data[i] = {}
            row[j] = c
        elif row is not None:
            row.pop(j, None)
            if not row:
                del self.data[i]

    def get(self, i, j):
        return self.data.get(i, {}).get(j, ZERO)

    def row(self, i):
        return dict(self.data.get(i, {}))

    def column(self, j):
        return {i: row[j] for i, row in self.data.items() if j in row}

    def columns(self):
        cols = [dict() for _ in range(self.cols)]
        for i, row in self.data.items():
            for j, c in row.items():
                cols[j][i] = c
        return cols

    def nnz(self):
        return sum(len(r) for r in self.data.values())

    def transpose(self):
        m = ExactMatrix(self.cols, self.rows)
        for i, row in self.data.items():
            for j, c in row.items():
                m.set(j, i, c)
        return m

    def apply(self, v):
        """Matrix times sparse vector (dict)."""
        out = {}
        for i, row in self.data.items():
            s = ZERO
            for j, c in row.items():
                x = v.get(j)
                if x is not None:
                    s += c * x
            if s:
                out[i] = s
        return out

    def matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = ExactMatrix(self.rows, other.cols)
        for i, row in self.data.items():
            acc = {}
            for k, c in row.items():
                orow = other.data.get(k)
                if orow:
                    vec_addmul(acc, c, orow)
            for j, c in acc.items():
                out.set(i, j, c)
        return out

    def to_lists(self):
        return [[self.get(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def copy(self):
        m = ExactMatrix(self.rows, self.cols)
        m.data = {i: dict(row) for i, row in self.data.items()}
        return m

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return "ExactMatrix(%d x %d, nnz=%d)" % (self.rows, self.cols, self.nnz())

    def is_zero(self):
        return not self.data

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return [[rat_str(self.get(i, j)) for j in range(self.cols)]
                for i in range(self.rows)]

    @classmethod
    def from_json(cls, obj):
        return cls.from_rows([[rat(x) for x in row] for row in obj])


# ---------------------------------------------------------------------------
# elimination


def rref(m):
    """Reduced row echelon form. Returns (ExactMatrix, pivot column list).

    The RREF is unique, hence deterministic regardless of pivot choices.
    """
    work = [dict(m.data.get(i, {})) for i in range(m.rows)]
    pivots = []
    pivot_rows = []  # parallel to pivots: row dict holding that pivot
    next_row = 0
    for j in range(m.cols):
        sel = None
        for i in range(next_row, m.rows):
            if work[i].get(j):
                sel = i
                break
        if sel is None:
            continue
        work[next_row], work[sel] = work[sel], work[next_row]
        prow = work[next_row]
        inv = ONE / prow[j]
        if inv != ONE:
            for k in list(prow):
                prow[k] *= inv
        for i in range(m.rows):
            if i != next_row and work[i].get(j):
                vec_addmul(work[i], -work[i][j], prow)
        pivots.append(j)
        pivot_rows.append(prow)
        next_row += 1
    out = ExactMatrix(m.rows, m.cols)
    out.data = {i: row for i, row in enumerate(work) if row}
    return out, pivots


def rank(m):
    return rank_of_columns(m.columns())


def kernel_basis(m):
    """Basis of the null space, as a Subspace of dimension cols - rank.

    One basis vector per free column, in increasing column order; the free
    coordinate is set to 1 (deterministic presentation).
    """
    r, pivots = rref(m)
    pivset = set(pivots)
    basis = []
    # row index of each pivot column
    prow_of = {j: i for i, j in enumerate(pivots)}
    for j in range(m.cols):
        if j in pivset:
            continue
        v = {j: ONE}
        for pj, pi in prow_of.items():
            c = r.get(pi, j)
            if c:
                v[pj] = -c
        basis.append(v)
    return Subspace(m.cols, basis)


def image_basis(m):
    """Basis of the column span: the original columns at rref pivot indices."""
    _, pivots = rref(m)
    return Subspace(m.rows, [m.column(j) for j in pivots])


def solve(m, b):
    """Some x with m x = b, or None. Free variables are set to zero."""
    aug = m.copy()
    bcol = ExactMatrix(m.rows, m.cols + 1)
    bcol.data = {i: dict(row) for i, row in aug.data.items()}
    bcol.cols = m.cols + 1
    for i, c in b.items():
        bcol.set(i, m.cols, c)
    r, pivots = rref(bcol)
    if pivots and pivots[-1] == m.cols:
        return None
    x = {}
    for row_i, j in enumerate(pivots):
        c = r.get(row_i, m.cols)
        if c:
            x[j] = c
    return x


class Subspace:
    """A subspace of Q^n given by an independent list of sparse vectors."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis, check=False):
        self.ambient_dim = ambient_dim
        self.basis = list(basis)
        if check and rank(self.matrix()) != len(self.basis):
            raise ValueError("basis vectors are dependent")

    @property
    def dim(self):
        return len(self.basis)

    def matrix(self):
        """Matrix with the basis vectors as rows."""
        m = ExactMatrix(len(self.basis), self.ambient_dim)
        for i, v in enumerate(self.basis):
            for j, c in v.items():
                m.set(i, j, c)
        return m

    def contains(self, v):
        return Echelon(self.basis).contains(v)

    def __eq__(self, other):
        if not isinstance(other, Subspace) or self.ambient_dim != other.ambient_dim:
            return False
        if self.dim != other.dim:
            return False
        return len(Echelon(self.basis + other.basis)) == self.dim


class Echelon:
    """Exact echelon basis of the span of the sparse vectors added so far.

    Each stored vector has a pivot entry 1 and is zero at the pivots stored
    before it, so reducing a vector against the stored ones in order clears
    every pivot, and the remainder is zero exactly when the vector lies in
    the span.
    """

    __slots__ = ("rows",)

    def __init__(self, vectors=()):
        self.rows = []  # (pivot index, vector with that entry 1)
        for v in vectors:
            self.add(v)

    def __len__(self):
        return len(self.rows)

    def _reduce(self, v):
        v = dict(v)
        for p, row in self.rows:
            c = v.get(p)
            if c:
                vec_addmul(v, -c, row)
        return v

    def add(self, v):
        """Add v to the span; True iff it was independent of the span."""
        v = self._reduce(v)
        if not v:
            return False
        p = next(iter(v))
        self.rows.append((p, vec_scale(v, ONE / v[p])))
        return True

    def contains(self, v):
        return not self._reduce(v)


# ---------------------------------------------------------------------------
# fast rank for large sparse systems


def rank_of_columns(columns):
    """Rank of the span of sparse column vectors; the inputs are not changed.

    Each column is scaled to coprime integers, which keeps the rank, and
    the incidence graph is split into connected components.  Each
    component is then eliminated fraction-free on Python ints: the
    sparsest live column is the next pivot column (ties to the lower
    index), its pivot row is the one used by the fewest other columns,
    and every other column k meeting that row becomes a*k - b*pivot with
    a/b the reduced ratio of the two pivot-row entries, divided by its
    content.  Each step is an exact rank-preserving column operation, so
    no fraction, modulus or certificate is needed.  Any pivot strategy
    yields the same rank, so this path is free to be greedy while rref
    stays canonical.
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
    return sum(_rank_component(g) for g in groups.values())


def _integer_column(col):
    """The column times the lcm of its denominators, over the gcd of the
    resulting integers: a new dict of coprime Python ints."""
    den = lcm(*[c.denominator for c in col.values()])
    ints = {i: c.numerator * (den // c.denominator) for i, c in col.items()}
    g = gcd(*ints.values())
    if g != 1:
        ints = {i: v // g for i, v in ints.items()}
    return ints


def _rank_component(cols):
    """Fraction-free elimination of integer columns (modified in place)."""
    rk = 0
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
        rk += 1
        for i in col:
            row_use[i].discard(ci)
        # pick pivot row used by fewest other columns
        pr = min(col, key=lambda i: (len(row_use[i]), i))
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
    return rk
