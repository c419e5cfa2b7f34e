"""Exact rational linear algebra: echelon bases, kernels, solves, ranks.

Everything is computed over Q with exact arithmetic (Fraction and int);
no floating point anywhere.  Vectors are dicts index -> coefficient with
no stored zeros, and a matrix is a list of sparse columns.  accum is the
one place that writes the accumulation rule for such dicts (store c
itself for a new key, drop the key when the sum cancels); every sparse
sum in the package goes through it or vec_addmul.

Both eliminations run fraction-free on Python ints (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 1968).  Echelon is the one exact elimination: it keeps a
triangular basis of a span, one row per pivot (the least index of the
row) that no later vector rewrites, together with each row's
coordinates on the added vectors.  A split clears the pivots a vector
meets in increasing order, and row(q) back-substitutes on request to
the reduced row echelon row; the pivots, splits and rows are those of
the reduced row echelon basis, whatever the order of the vectors.
kernel_basis, solve, the loop classes of quiver and the curve-basis
checks all read it.  The Hochschild complex keeps one per cell of delta
(HochschildComplex.echelon), which the pivot-rule complements and the
extension solves of ainfinity share.  The textbook reduced row echelon
form is kept in the tests, as the reference.

rank_of_columns, which the Hochschild and Laurent-window ranks run on,
keeps no coordinates: it is the standard column reduction of persistent
homology (Zomorodian and Carlsson, "Computing persistent homology",
Discrete Comput. Geom. 2005) on the least row.  An integer column (the
Hochschild ranks pass E.denominator * delta), told apart by the type of
its sum, is read as it is, a rational one is scaled to coprime integers,
and a column is reduced against a pivot column by integer combination
followed by division by its content.  These are rank-preserving column operations, so the rank
is exact without any rational division.  It can also report its pivot
rows, onto which the span projects bijectively; the Hochschild ranks use
them to clear columns of the next differential.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(a, b=None):
    """Exact rational from ints, strings like "p/q", or another rational.
    Input naming no rational (a malformed string, a zero denominator, an
    infinite float) raises one ValueError, "... is not a rational number"."""
    try:
        if b is None:
            return Fraction(a.strip() if isinstance(a, str) else a)
        return Fraction(a) / Fraction(b)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError("%r is not a rational number"
                         % (a if b is None else "%s/%s" % (a, b))) from None


def rat_str(x):
    """Serialize as "p" or "p/q" with positive denominator."""
    return str(x)


def as_int(c):
    """An integral rational as a Python int; any other rational as it is."""
    return c.numerator if c.denominator == 1 else c


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


def vec_addmul(u, c, v):
    """u += c*v in place, dropping zeros."""
    if c:
        for i, x in v.items():
            accum(u, i, c * x)
    return u


# ---------------------------------------------------------------------------
# elimination


class Echelon:
    """A triangular basis of the span of the sparse vectors added so far,
    with the coordinates of each row on those vectors.

    The stored row at pivot q is the vector that raised the span, reduced
    against the rows before it: its least index is q, it is zero at every
    pivot known when it came, and no later vector rewrites it.  So a row is
    supported at or above its pivot, and clearing a vector's pivot entries
    in increasing order (reduce) meets each pivot once.  `rows` maps q to
    ints (r, x, d), d = r[q] > 0 and gcd 1, with r = sum_j x_j v_j over the
    added vectors, numbered in the order they were added; x is supported on
    the vectors that enlarged the span of those before them.  row(q)
    back-substitutes on request and gives the reduced row echelon row
    (R_q, X_q): R_q has entry 1 at q and is zero at every other pivot, and
    R_q = sum_j X_q[j] v_j.  Whatever order the vectors came in, the pivots
    are the least indices of the span's nonzero vectors, and a split's
    kappa (the one vector of v + span that is zero at every pivot) and x
    (the one coordinate vector on the vectors that grew the span) are those
    of the reduced row echelon basis.  A vector is scaled to ints once, is
    scaled again only when a row's d does not divide its entry at the
    pivot, and every value that leaves is a Fraction.
    """

    __slots__ = ("rows", "added")

    def __init__(self, vectors=()):
        self.rows = {}
        self.added = 0
        for v in vectors:
            self.add(v)

    def __len__(self):
        return len(self.rows)

    def row(self, q):
        """(R_q, X_q) as Fractions, the reduced row echelon row at pivot q
        and its coordinates: the stored row with its entries at the later
        pivots cleared, least first, as reduce clears a vector."""
        r, x, d = self.rows[q]
        # k + y.v stays 0 (y.v is -r at the start); R_q = k/S, X_q = -y/S
        k, y, S = self._clear(dict(r), {j: -c for j, c in x.items()}, d,
                              [p for p in r if p != q and p in self.rows])
        return ({i: Fraction(c, S) for i, c in k.items()},
                {j: Fraction(-c, S) for j, c in y.items()})

    def reduce(self, v):
        """Ints (k, y, S) with split(v) = (k/S, y/S); v may hold ints.  v is
        scaled to ints once and its pivot entries are cleared in increasing
        order, from a heap of the pivots it meets (_clear)."""
        S = lcm(*[c.denominator for c in v.values()])
        k = {i: c.numerator * (S // c.denominator) for i, c in v.items()}
        return self._clear(k, {}, S, [q for q in k if q in self.rows])

    def _clear(self, k, y, S, heap):
        """Clear k's entries at the pivots, least first, from the heap of
        those it holds: k becomes a k - b r and y becomes a y + b x for the
        row (r, x, d) at the pivot, with b/a = k_q/d in lowest terms, and
        S becomes a S.  So k + y.v over S keeps its value.  A row is zero
        below its pivot, so it adds entries only at later indices, and the
        new pivots among them join the heap."""
        rows = self.rows
        heapify(heap)
        while heap:
            q = heappop(heap)
            b = k.get(q)
            if b is None:  # queued twice and cleared, or cancelled
                continue
            r, x, d = rows[q]
            g = gcd(b, d)
            a, b = d // g, b // g
            if a != 1:
                S *= a
                for i in k:
                    k[i] *= a
                for j in y:
                    y[j] *= a
            for i in r:
                if i not in k and i in rows:
                    heappush(heap, i)
            vec_addmul(k, -b, r)
            vec_addmul(y, b, x)
        return k, y, S

    def split(self, v):
        """(kappa, x) with v = kappa + sum_j x_j v_j and kappa zero at every
        pivot: kappa = v - sum_q v_q R_q and x = sum_q v_q X_q."""
        kappa, x, S = self.reduce(v)
        return ({i: Fraction(c, S) for i, c in kappa.items()},
                {j: Fraction(c, S) for j, c in x.items()})

    def contains(self, v):
        """v lies in the span: split's kappa is zero."""
        return not self.reduce(v)[0]

    def add(self, v):
        """Add v as the next vector; True iff it enlarged the span."""
        return self._adjoin(*self.reduce(v))

    def _adjoin(self, r, x, S):
        """add, given reduce(v) = (r, x, S): store r, which is zero at
        every pivot, as the row at its least index q.  No stored row
        changes."""
        j = self.added
        self.added += 1
        if not r:
            return False
        # r = S v_j - sum x_p v_p
        q = min(r)
        self.rows[q] = _primitive(r, {p: -c for p, c in x.items()} | {j: S}, q)
        return True

    def scale_coordinates(self, k):
        """Multiply every X_q by the int k > 0: the coordinates on the
        vectors meant, when k times them were added."""
        for q, (r, x, d) in self.rows.items():
            self.rows[q] = _primitive(r, {j: c * k for j, c in x.items()}, q)


def _primitive(r, x, q):
    """(r, x, r[q]) over the gcd of their entries, signed so that r[q] > 0."""
    g = gcd(*r.values(), *x.values()) * (1 if r[q] > 0 else -1)
    if g != 1:
        r = {i: c // g for i, c in r.items()}
        x = {j: c // g for j, c in x.items()}
    return r, x, r[q]


def kernel_basis(columns):
    """Basis of the null space of the matrix with these sparse columns: a
    list of len(columns) - rank sparse vectors in Q^len(columns).

    One basis vector e_j - x per column j that the columns before it span,
    with x its coordinates on the pivot columns, in increasing column
    order: the free coordinate is 1 and the others are zero (the
    presentation read off the reduced row echelon form of the matrix).
    """
    ech = Echelon()
    basis = []
    for j, col in enumerate(columns):
        # one reduction per column: its coordinates when it is dependent
        k, x, S = ech.reduce(col)
        if not ech._adjoin(k, x, S):
            basis.append({j: ONE} | {p: Fraction(-x[p], S) for p in sorted(x)})
    return basis


def solve(echelon, b):
    """Some x with sum_j x_j v_j = b over the vectors v_j added to the
    Echelon, or None.  x is supported on the vectors that enlarged the
    span (free variables are zero), which makes it unique, and its keys
    are in increasing order."""
    kappa, x = echelon.split(b)
    if kappa:
        return None
    return {j: x[j] for j in sorted(x)}


# ---------------------------------------------------------------------------
# fast rank for large sparse systems


def rank_of_columns(columns, pivots=None):
    """Rank of the span of sparse column vectors; the inputs are not
    changed.  Given a set `pivots`, the pivot rows of the elimination are
    added to it: one row per unit of rank, and projecting the span onto
    the coordinates in those rows is injective, hence bijective.

    A column of nonzero Python ints is read as it is, any other is scaled
    to coprime integers; either keeps the rank.  The columns are then
    reduced in their given order: while a column is nonzero, let p be its
    least row.  If no pivot column owns p, the column becomes the pivot
    column of p; otherwise it becomes a*col - b*pivot, with a/b the
    reduced ratio of the two entries at p, divided by its content.  Each
    step is an exact rank-preserving column operation, so no fraction,
    modulus or certificate is needed, and the pivot rule reads only the
    order of the columns and of the rows.  A pivot column is zero at every
    row less than its pivot row, so the pivot columns, which span the
    input, are triangular with nonzero diagonal on the pivot rows.
    """
    rows = _pivot_rows([_integer_column(c) for c in columns if c])
    if pivots is not None:
        pivots.update(rows)
    return len(rows)


def _integer_column(col):
    """The column's nonzero entries as Python ints: the column itself when
    they already are, else a new dict of the column times the lcm of its
    denominators over the gcd of the resulting integers.  A sum of ints
    is an int and any Fraction term makes the sum a Fraction, so the type
    of the sum tells an int column apart without a scan of the types."""
    values = col.values()
    if type(sum(values)) is int and all(values):
        return col
    den = lcm(*[c.denominator for c in values])
    ints = {i: c.numerator * (den // c.denominator) for i, c in col.items() if c}
    g = gcd(*ints.values())
    if g != 1:
        ints = {i: v // g for i, v in ints.items()}
    return ints


def _pivot_rows(cols):
    """Fraction-free column reduction of integer columns; the pivot rows,
    in the order their columns were found.  A column is copied at its
    first reduction, so the given dicts are not changed, and a pivot
    column is never changed once stored."""
    owner = {}  # pivot row -> the pivot column whose least row it is
    for col in cols:
        given = col
        while col:
            p = min(col)
            piv = owner.get(p)
            if piv is None:
                owner[p] = col
                break
            g = gcd(piv[p], col[p])
            a, b = piv[p] // g, col[p] // g
            if col is given:
                col = dict(col)
            if a != 1:
                for i in col:
                    col[i] *= a
            vec_addmul(col, -b, piv)
            g = gcd(*col.values())
            if g > 1:
                for i in col:
                    col[i] //= g
    return list(owner)
