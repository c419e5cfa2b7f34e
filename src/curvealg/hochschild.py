"""Bigraded Hochschild cochains of the quiver algebra, the differential,
the Gerstenhaber bracket, and cohomology dimensions.

Cochains are normalized relative to the span of the vertex idempotents:
arguments run over composable tuples of radical basis elements and values
live in the full algebra.  A cochain of arity s and internal degree t sends
a tuple of total degree d to a value of degree t + d; the cohomological
degree is i = s + t.

Signs follow the suspended (bar) convention throughout: a basis element x
contributes |x| = deg(x) - 1, a cochain of arity s and internal degree t has
suspended degree s + t - 1, and the suspended product is
b2(x, y) = (-1)^{|x|} x y.  With this convention b2 o b2 = 0 is literally
associativity, the differential is [b2, .], and all higher identities
(delta^2 = 0, graded Jacobi) hold on the nose; the tests assert them.

The brace insertion is written once, in _insert, as a push: each stored
entry of the inner cochain goes into every key of the outer one that
holds one of its radical components, with the Koszul sign of the slot's
prefix, and only the output's tuple_keys stay (_on_tuples).  A sum of
insertions c (f o g) is written once too, in _brace_sum: every term goes
into one accumulator, whose tuple_keys are kept once, with values in any
ring.  gerstenhaber, and so differential_apply, passes it two terms, the
structure residual every pair m_i o m_j; the gauge action's feed step
calls _insert itself.

The unnormalized complex serves as the cross-check oracle for cohomology
dimensions.  It shares tuple enumeration, bases and ranks with the reduced
complex, and differs in its element set (idempotents included) and in its
differential, the textbook one with classic unsuspended signs.  The terms
of that differential which insert an idempotent cancel in pairs, gap by
gap, save one (e, e) term per idempotent slot, so they are summed in that
closed form rather than built; the tests pin every column to the textbook
differential as first written (unnormalized_delta_reference).  Both read
products from the algebra's neighbour lists and fix each sign
once per table entry and bidegree, not once per matrix entry.  The lists
hold the int constants of E.int_table, so delta_columns(s, t) is always
the integer matrix D*delta (D = E.denominator), which has the rank of
delta.  The shared delta_rank assembles only the columns that clearing
leaves, and echelon(s, t) is delta's one exact elimination, on ints, kept
per cell for the A-infinity layer.

The rows of delta are labelled by codes, not basis positions: the basis
element (T, w) of arity s has the code whose base-B digits (B = E.dim)
are T_1, ..., T_s and then w (at arity 0 the vertex stands for T).
Within one (s, t) cell the codes sort exactly as the basis positions do,
so a term's row is found by arithmetic on its column's code, and a rank
never enumerates the target basis C^{s+1}.  echelon(s, t) turns codes into
positions once, through positions().

A rank sweep streams its cells: _walk yields a cell's argument keys
depth-first with their codes, delta_columns reads its columns straight from
the walk, and dim counts a cell without walking it.  So cell, dim,
delta_rank and delta_columns keep no basis, tuple list or index; a complex
caches ranks, pivot sets and echelons.  basis, tuple_keys and index are
built only on request, by the cochain and gauge layer, and then kept.
"""

from __future__ import annotations

from .linalg import Echelon, accum, rank_of_columns, rat, rat_str, vec_addmul


def _sign(k):
    return -1 if k % 2 else 1


class Cochain:
    """A normalized Hochschild cochain given by its values on composable
    radical tuples.  Arity-0 cochains are keyed by vertex index instead."""

    __slots__ = ("E", "s", "t", "values", "is_mul")

    def __init__(self, E, s, t, values=None, is_mul=False):
        self.E = E
        self.s = s
        self.t = t
        self.is_mul = is_mul
        self.values = {}
        if values:
            for key, vec in values.items():
                vec = {k: c for k, c in vec.items() if c}
                if vec:
                    self.values[key] = vec

    @classmethod
    def mul2(cls, E):
        """The suspended multiplication b2 (not a normalized cochain: it
        acts on idempotents too, and _brace_sum reads it from E.table)."""
        return cls(E, 2, 0, None, is_mul=True)

    def susdeg(self):
        return self.s + self.t - 1

    def is_zero(self):
        return not self.is_mul and not self.values

    def scale(self, c):
        if not c:
            return Cochain(self.E, self.s, self.t)
        return Cochain(self.E, self.s, self.t,
                       {key: {k: c * x for k, x in vec.items()}
                        for key, vec in self.values.items()})

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.s == other.s
                and self.t == other.t and self.is_mul == other.is_mul
                and self.values == other.values)

    def to_json(self):
        E = self.E
        entries = []
        for key in sorted(self.values):
            vec = self.values[key]
            if self.s == 0:
                args = ["@%d" % key]
            else:
                args = [E.labels[k] for k in key]
            entries.append({"args": args,
                            "value": {E.labels[k]: rat_str(c)
                                      for k, c in sorted(vec.items())}})
        return {"arity": self.s, "t": self.t, "entries": entries}

    @classmethod
    def from_json(cls, E, obj):
        """Inverse of to_json.  Raises ValueError for an unknown label, a
        wrong argument count, arguments given twice or an entry outside the
        (s, t) cochain basis."""
        s, t = obj["arity"], obj["t"]
        if type(s) is not int or type(t) is not int:
            raise ValueError("arity and t must be integers, not %r and %r" % (s, t))
        index = reduced_complex(E).index(s, t)
        values = {}
        for ent in obj["entries"]:
            args = ent["args"]
            if len(args) != max(s, 1):
                raise ValueError("entry %s has %d arguments, not %d"
                                 % (args, len(args), max(s, 1)))
            try:
                if s == 0:
                    key = int(args[0][1:])
                else:
                    key = tuple(E.index[a] for a in args)
                vec = {E.index[lab]: rat(c) for lab, c in ent["value"].items()}
            except KeyError as exc:
                raise ValueError("unknown label %s" % exc) from None
            if key in values:
                raise ValueError("entry %s is given twice" % (args,))
            for k in vec:
                if (key, k) not in index:
                    raise ValueError("entry %s -> %s is outside the (%d, %d) "
                                     "cochain basis" % (args, E.labels[k], s, t))
            values[key] = vec
        return cls(E, s, t, values)

    def __repr__(self):
        return "Cochain(s=%d, t=%d, %d entries)" % (self.s, self.t, len(self.values))


def _b2(E, table, elements):
    """b2(x, y) = (-1)^{|x|} x y on the pairs of elements whose product in
    table (E.table or E.int_table) is nonzero, as values keyed by (x, y)."""
    return {(x, y): prod if E.deg[x] == 1 else {z: -c for z, c in prod.items()}
            for (x, y), prod in table.items() if x in elements and y in elements}


def _insert(E, acc, inner, outer, odd, c=1, into=None):
    """The brace insertion, pushed from stored nonzero entries: for each
    inner entry (V, v) and each outer key U with an element z = U[a] of
    into (the radical unless given), acc[U[:a] + V + U[a+1:]] gains
    c (-1)^{odd |U[:a]|} v_z outer[U], where |x| = deg x - 1.

    An inner key V that is a vertex (arity 0) stands for the empty block
    and goes only into slots whose vertex is V, the target of the element
    before the slot or else the source of the one after it; an output of
    arity 0 is keyed by V.  A push also reaches keys outside the
    normalized basis, so callers keep only _on_tuples of acc."""
    deg, src, tgt = E.deg, E.src, E.tgt
    into = E.radical_set if into is None else into
    at = {}  # z -> sign -> [(U[:a], U[a+1:], outer[U])]
    for U, fv in outer.items():
        sgn = c
        for a, z in enumerate(U):
            if z in into:
                at.setdefault(z, {}).setdefault(sgn, []).append((U[:a], U[a + 1:], fv))
            if odd and deg[z] == 0:
                sgn = -sgn
    for V, v in inner.items():
        block = () if type(V) is int else V
        for z, cz in v.items():
            for sgn, slots in at.get(z, {}).items():
                cs = sgn * cz
                for head, tail, fv in slots:
                    if block is not V and V != (tgt[head[-1]] if head else
                                                src[tail[0]] if tail else V):
                        continue
                    # only an arity-0 output has an empty key, and it is V
                    vec_addmul(acc.setdefault(head + block + tail or V, {}), cs, fv)


def _on_tuples(E, acc, s, t):
    """The nonzero values of acc at tuple_keys(s, t), in that order; a
    push also reaches keys outside the normalized basis, which drop.  An
    empty acc enumerates no tuples."""
    if not acc:
        return {}
    return {T: acc[T] for T in reduced_complex(E).tuple_keys(s, t) if acc.get(T)}


def _brace_sum(E, s, t, terms):
    """The arity-s, degree-t cochain sum of c (f o g) over terms (c, f, g):
    brace insertions with Koszul signs in suspended degrees, each pushed by
    _insert from the stored entries of g into the keys of f, all into one
    accumulator, whose tuple_keys are kept once.

    Inserting into a normalized cochain projects the inserted value to the
    radical; inserting into b2 keeps the full value (that is what makes
    [b2, .] the differential of the normalized complex).  b2 enters as its
    nonzero products: every pair of E.table as the outer cochain, and the
    radical pairs as the inner one.  An arity-0 f has no slot: f o g = 0.
    """
    acc = {}
    for c, f, g in terms:
        if f.s:
            _insert(E, acc, _b2(E, E.table, E.radical_set) if g.is_mul else g.values,
                    _b2(E, E.table, range(E.dim)) if f.is_mul else f.values,
                    g.susdeg() % 2, c, into=range(E.dim) if f.is_mul else None)
    return Cochain(E, s, t, _on_tuples(E, acc, s, t))


def gerstenhaber(f, g):
    """[f, g] = f o g - (-1)^{|f||g|} g o f in suspended degrees."""
    return _brace_sum(f.E, max(f.s + g.s - 1, 0), f.t + g.t,
                      [(1, f, g), (-_sign(f.susdeg() * g.susdeg()), g, f)])


def differential_apply(phi):
    """delta(phi) = [b2, phi] on the cochain itself.  extend_step checks
    with it that the extension residual is a cocycle, and the tests check
    it against the matrix columns of delta."""
    b2 = Cochain.mul2(phi.E)
    return gerstenhaber(b2, phi)


# ---------------------------------------------------------------------------
# the reduced complex


# The shared methods live in this class body, not on a base class:
# perfbench/spans.py traces basis and tuple_keys through vars(HochschildComplex).
class HochschildComplex:
    """Cochain bases, the columns of delta, and cohomology dimensions for
    the normalized (radical-tuple) complex of one algebra.  It caches the
    ranks of delta, the pivot rows of the last s swept at each t and the
    echelons; a basis, tuple list or index is built only when basis,
    tuple_keys or index asks for it, never by a rank sweep."""

    def __init__(self, E):
        self.E = E
        self._tuples = {}
        self._basis = {}
        self._index = {}
        self._rank = {}
        self._pivots = {}  # t -> (last s swept, pivot rows of delta^s)
        self._echelon = {}
        self._fact = None
        # what may follow a vertex (None: anything), ascending
        self._after = after = {None: sorted(self.elements())}
        for x in after[None]:
            after.setdefault(E.src[x], []).append(x)

    # -- tuple and basis enumeration ----------------------------------------

    def elements(self):
        return self.E.radical

    def _walk(self, s, t):
        """The (s, t) argument keys in lexicographic order, each as (key,
        its code, the hom basis its values range over).  The keys are the
        composable s-tuples of elements() whose degree sum d allows a value
        of degree t + d in {0, 1}, with the values running from the first
        source to the last target; at arity 0 they are the vertices, each
        valued in its own hom space of degree t.  A key whose hom basis is
        empty carries no basis element and is not yielded.

        A depth-first walk on an explicit stack: each path carries its key,
        code and degree sum, and grows only while degrees 0 and 1 can still
        bring its sum into [-t, 1 - t].  The choices for the next slot are
        found once per (last target, degree sum, room) of the path, and for
        the last slot, with their hom bases, once per (first source, last
        target, degree sum)."""
        E = self.E
        hom = E.hom_basis
        if s == 0:
            for v in range(E.n + 1):
                ws = hom(v, v, t)
                if ws:
                    yield v, v, ws
            return
        deg, src, tgt, B = E.deg, E.src, E.tgt, E.dim
        after = self._after
        stack = [((), 0, 0, None)]  # paths to grow, the least on top
        grow = {}  # (v, d, room) -> [(x, d + deg x, tgt x)], descending
        last = {}  # (first source, v, d) -> [(x, hom basis)] for the last slot
        while stack:
            T, c, d, v = stack.pop()
            room = s - 1 - len(T)  # slots after the next one
            if room:
                kids = grow.get((v, d, room))
                if kids is None:
                    kids = grow[(v, d, room)] = [
                        (x, d + deg[x], tgt[x]) for x in reversed(after.get(v, ()))
                        if -t - room <= d + deg[x] <= 1 - t]
                stack += [(T + (x,), c * B + x, e, w) for x, e, w in kids]
                continue
            u = src[T[0]] if T else None
            kids = last.get((u, v, d))
            if kids is None:
                kids = last[(u, v, d)] = [
                    (x, ws) for x in after.get(v, ()) if -t <= d + deg[x] <= 1 - t
                    for ws in [hom(src[x] if u is None else u, tgt[x], t + d + deg[x])]
                    if ws]
            for x, ws in kids:
                yield T + (x,), c * B + x, ws

    def _keep(self, s, t):
        """Walk the (s, t) cell once for both tuple_keys and basis."""
        walk = list(self._walk(s, t))
        self._tuples[(s, t)] = [key for key, _, _ in walk]
        self._basis[(s, t)] = [(key, w) for key, _, ws in walk for w in ws]

    def tuple_keys(self, s, t):
        """Composable argument keys whose total degree d allows a value of
        degree t + d in {0, 1} and a nonzero value space from the first
        source to the last target (at arity 0, the vertices v with
        e_v E_t e_v nonzero), so that they are the keys of basis(s, t) in
        its order.  Built on first use."""
        if (s, t) not in self._tuples:
            self._keep(s, t)
        return self._tuples[(s, t)]

    def basis(self, s, t):
        """Ordered cochain basis: (argument key, target basis index),
        lexicographic in the tuple then in the target, built on first use."""
        if (s, t) not in self._basis:
            self._keep(s, t)
        return self._basis[(s, t)]

    def dim(self, s, t):
        """len(basis(s, t)), counted without enumerating the cell: a
        dynamic program counts the composable s-tuples by (first source,
        last target, degree sum), and each count is weighted by the size
        of its hom basis."""
        if s < 0:
            return 0
        E = self.E
        deg, tgt = E.deg, E.tgt
        count = {(v, v, 0): 1 for v in range(E.n + 1)}
        for room in range(s - 1, -1, -1):
            grown = {}
            for (u, v, d), c in count.items():
                for x in self._after.get(v, ()):
                    e = d + deg[x]
                    if -t - room <= e <= 1 - t:
                        key = (u, tgt[x], e)
                        grown[key] = grown.get(key, 0) + c
            count = grown
        return sum(c * len(E.hom_basis(u, v, t + d)) for (u, v, d), c in count.items())

    def index(self, s, t):
        """(argument key, target) -> position in basis(s, t), built on
        first use."""
        got = self._index.get((s, t))
        if got is None:
            got = self._index[(s, t)] = {bk: i for i, bk in enumerate(self.basis(s, t))}
        return got

    def code(self, s, key, w):
        """The row code of the (s, t) basis element (key, w): the digits
        of key (a vertex at arity 0) and then w, in base E.dim.  Every
        digit is below E.dim, so codes sort as the basis does,
        lexicographically in the tuple and then in the target."""
        B = self.E.dim
        c = 0
        for x in key if s else (key,):
            c = c * B + x
        return c * B + w

    def positions(self, cols, s, t):
        """cols with each row code of the (s, t) cell replaced by its
        position in basis(s, t), keys in the same order."""
        pos = {self.code(s, key, w): i for i, (key, w) in enumerate(self.basis(s, t))}
        return [{pos[r]: c for r, c in col.items()} for col in cols]

    def factorizations(self):
        """fact[z] = [(x, y, c)] over pairs of elements(), in (x, y) order,
        with c = (x*y)_z the int constant of E.int_table."""
        if self._fact is None:
            els = set(self.elements())
            fact = self._fact = {}
            for (x, y), prod in self.E.int_table.items():
                if x in els and y in els:
                    for z, c in prod.items():
                        fact.setdefault(z, []).append((x, y, c))
        return self._fact

    # -- the differential ----------------------------------------------------

    def delta_columns(self, s, t, skip=()):
        """Columns of D*delta: C^{s} -> C^{s+1} at internal degree t
        (D = E.denominator), one per (s, t) basis element in basis order,
        each a dict from row code to int coefficient.  Every term of delta
        carries exactly one structure constant c, which enters as the int
        D*c of E.int_table.

        A row is labelled by the code of its (s+1, t) basis element, found
        by arithmetic on the column's code (see code).  With B = E.dim and
        ct the code of T alone (0 at arity 0), a right product w.x -> w'
        lands on row (ct*B + x)*B + w', a left product x.w -> w' on
        x*B^{s+1} + ct*B + w', and a contraction of T[a] to x y on the
        column's code with the two digits x, y in place of the digit T[a].
        So C^{s+1} is never enumerated; positions() turns codes into
        basis positions where those are needed.

        The columns whose code is in skip are left out."""
        E = self.E
        deg, rad = E.deg, E.radical_set
        B = E.dim
        power = [B ** k for k in range(s + 3)]
        sus = s + t - 1
        # signs fixed once per table entry: (-1)^{|w|} on w.x,
        # (-1)^{(sus+1)|x|} on x.w; rows less the part read from T
        right = [[(x * B + wp, -c if (deg[w] - 1) % 2 else c)
                  for x, prod in E.right_products[w] if x in rad
                  for wp, c in prod.items()]
                 for w in range(E.dim)]
        left = [[(x * power[s + 1] + wp, -c if (sus + 1) * (deg[x] - 1) % 2 else c)
                 for x, prod in E.left_products[w] if x in rad
                 for wp, c in prod.items()]
                for w in range(E.dim)]
        # contraction sign -(-1)^{sus + |T[:a]| + |x|}, by the parity of
        # sus + 1 + |T[:a]|; per slot, the digits x y at their place
        even = {z: [(x * B + y, -cf if (deg[x] - 1) % 2 else cf) for x, y, cf in xs]
                for z, xs in self.factorizations().items()}
        slots = []
        for a in range(s):
            plus = {z: [(xy * power[s - a], cf) for xy, cf in xs]
                    for z, xs in even.items()}
            slots.append((plus, {z: [(r, -cf) for r, cf in xs]
                                 for z, xs in plus.items()}))
        cols = []
        for key, ck, ws in self._walk(s, t):
            T, ct = (key, ck) if s else ((), 0)
            for w in ws:
                code = ck * B + w
                if code in skip:
                    continue
                col = {}
                at = ct * B * B
                for r, c in right[w]:
                    accum(col, at + r, c)
                at = ct * B
                for r, c in left[w]:
                    accum(col, at + r, c)
                parity = sus + 1
                for a in range(s):
                    terms = slots[a][parity % 2].get(T[a])
                    if terms:
                        # the a head digits move up one place; the tail and w stay
                        head, low = divmod(code, power[s - a + 1])
                        at = head * power[s - a + 2] + low % power[s - a]
                        for r, cf in terms:
                            accum(col, at + r, cf)
                    parity += deg[T[a]] - 1
                cols.append(col)
        return cols

    def echelon(self, s, t):
        """The Echelon of delta: C^s -> C^{s+1} at internal degree t, its
        columns added in basis order, built once per (s, t).  Its rows are
        a triangular basis of im delta, one per pivot and each with its
        coordinates on C^s; its pivots, splits and row(q) are those of the
        RREF basis, so split and solve against im delta need no further
        elimination.
        Row codes become (s+1, t) basis positions first; codes sort as
        positions do, so the pivots are those of the coded columns.  The
        int columns of D*delta (D = E.denominator) go in; X is scaled by D."""
        got = self._echelon.get((s, t))
        if got is None:
            got = self._echelon[(s, t)] = Echelon(
                self.positions(self.delta_columns(s, t), s + 1, t))
            got.scale_coordinates(self.E.denominator)
        return got

    def delta_rank(self, s, t):
        """Rank of delta: C^s -> C^{s+1} at internal degree t.

        The ranks at one t are found sweeping s upward with clearing (Chen
        and Kerber, "Persistent homology computation with a twist", 2011;
        Bauer, Kerber and Reininghaus, "Clear and compress", 2014).  Let P
        be the pivot rows of the elimination of delta^{s-1}, a set of
        (s, t) row codes.  The image of delta^{s-1} projects
        bijectively onto the coordinates in P (linalg.rank_of_columns), so
        C^s = span{e_j : j not in P} + im delta^{s-1}, a direct sum by
        dimension.  As im delta^{s-1} lies in ker delta^s, the image of
        delta^s is spanned by its columns outside P, so only those are
        assembled; they span all of im delta^s, so their pivot rows serve
        the next s in the same way.  The columns are those of the integer
        matrix E.denominator * delta, which has the same rank.

        P and the skipped columns are row codes, so no sweep enumerates
        the (s+1, t) basis.  rank_of_columns pivots on the least row label,
        and codes sort as basis positions do, so it picks the pivots it
        would pick on positions: every rank and cleared set is that of the
        basis-indexed matrix.  Ranks are cached; the pivot set is kept
        only for the last s swept at each t, and every lower s has its
        rank cached, so any order of calls gives the same sweeps.  A sweep
        walks each (r, t) cell once, in delta_columns, and caches no basis.
        """
        if s < 0:
            return 0
        got = self._rank.get((s, t))
        if got is None:
            swept, pivots = self._pivots.get(t, (-1, set()))
            for r in range(swept + 1, s + 1):
                cleared, pivots = pivots, set()
                self._rank[(r, t)] = rank_of_columns(
                    self.delta_columns(r, t, cleared), pivots)
            self._pivots[t] = (s, pivots)
            got = self._rank[(s, t)]
        return got

    # -- cohomology ----------------------------------------------------------

    def hh_dim(self, i, t):
        """dim HH^i in internal degree t (arity s = i - t)."""
        return self.cell(i, t)[3]

    def cell(self, i, t):
        """(dim cochains, dim cocycles, dim coboundaries, dim HH); an empty
        cell sweeps no rank."""
        s = i - t
        d = self.dim(s, t)
        if d == 0:
            return (0, 0, 0, 0)
        cocycles = d - self.delta_rank(s, t)
        coboundaries = self.delta_rank(s - 1, t)
        return (d, cocycles, coboundaries, cocycles - coboundaries)

    # -- coordinates ---------------------------------------------------------

    def cochain_to_vector(self, phi):
        idx = self.index(phi.s, phi.t)
        v = {}
        for key, vec in phi.values.items():
            for k, c in vec.items():
                v[idx[(key, k)]] = c
        return v

    def vector_to_cochain(self, s, t, v):
        basis = self.basis(s, t)
        values = {}
        for i, c in v.items():
            if not c:
                continue
            key, w = basis[i]
            values.setdefault(key, {})[w] = c
        return Cochain(self.E, s, t, values)


def reduced_complex(E) -> HochschildComplex:
    if E._hochschild_complex is None:
        E._hochschild_complex = HochschildComplex(E)
    return E._hochschild_complex


# ---------------------------------------------------------------------------
# bidegree scan


class BidegreeTable:
    def __init__(self, cells):
        self.cells = cells  # (i, t) -> (dim_c, cocycles, coboundaries, hh)

    def hh(self, i, t):
        return self.cells.get((i, t), (0, 0, 0, 0))[3]

    def max_nonzero(self, i):
        """Largest j with HH^i_{-j} != 0 inside the scanned range, or None."""
        js = [-t for (ii, t), cell in self.cells.items()
              if ii == i and t < 0 and cell[3]]
        return max(js) if js else None

    def to_json(self):
        rows = []
        for (i, t) in sorted(self.cells):
            d, zc, bd, hh = self.cells[(i, t)]
            rows.append({"i": i, "t": t, "dim_cochain": d, "dim_cocycle": zc,
                         "dim_coboundary": bd, "dim_HH": hh})
        return {"cells": rows,
                "stabilization": {"max_j_HH2": self.max_nonzero(2),
                                  "max_j_HH3": self.max_nonzero(3)}}

    def to_csv(self):
        lines = ["i,t,dim_cochain,dim_cocycle,dim_coboundary,dim_HH"]
        for (i, t) in sorted(self.cells):
            d, zc, bd, hh = self.cells[(i, t)]
            lines.append("%d,%d,%d,%d,%d,%d" % (i, t, d, zc, bd, hh))
        return "\n".join(lines) + "\n"


def vanishing_scan(E, i_max, t_min):
    """Dimension table for 0 <= i <= i_max, t_min <= t <= 0, with the largest
    nonvanishing internal degrees of HH^2 and HH^3 in range."""
    cx = reduced_complex(E)
    cells = {}
    for i in range(i_max + 1):
        for t in range(t_min, 1):
            cells[(i, t)] = cx.cell(i, t)
    return BidegreeTable(cells)


# ---------------------------------------------------------------------------
# independent oracle: composable tuples with idempotents allowed, classic
# (unsuspended) sign convention


class UnnormalizedComplex(HochschildComplex):
    """The relative Hochschild complex without normalization: arguments are
    composable tuples of arbitrary basis elements (idempotents included).

    It shares tuple enumeration, bases and ranks with HochschildComplex and
    differs in its element set and in its differential, the textbook form
    (delta f)(a_1,...,a_{s+1}) =
        (-1)^{deg(a_1) * t} a_1 f(a_2, ...)
      + sum_i (-1)^i f(..., a_i a_{i+1}, ...)
      + (-1)^{s+1} f(...) a_{s+1}.

    Its unit terms, those that put an idempotent e into a key T of arity
    s, are summed in closed form.  Gap g = 0..s of T (before T[g]) has one
    idempotent e, which enters twice with the constant D, both times at
    the row of T with e put in at g: from the left (e.w at g = 0, else
    T[g-1] = T[g-1] e at slot g-1) with sign (-1)^g, and from the right
    (T[g] = e T[g] at slot g, else w.e at g = s) with sign (-1)^{g+1}.
    Each gap's pair cancels, except that an idempotent T[a] = e has the
    one factorization e = e e, which is both the right term of gap a and
    the left term of gap a+1.  So the unit terms of a column sum to
    (-1)^a D at T[:a] + (e, e) + T[a+1:] for each idempotent T[a].  This
    is the identity axiom applied gap by gap, not the normalization
    theorem, so the oracle stays independent of the reduced complex.  The
    tests pin every column, key for key and in order, to the textbook
    differential as first written (unnormalized_delta_reference).
    Cohomology dimensions agree with the reduced complex; that agreement is
    an acceptance criterion, not an assumption.
    """

    def elements(self):
        return range(self.E.dim)

    def delta_columns(self, s, t, skip=()):
        """As HochschildComplex.delta_columns: the int columns of D*delta
        on row codes, skip included.  Only the products by radical
        elements, the contractions into radical pairs and the (e, e) term
        of each idempotent slot are built, in the textbook order; the unit
        terms that cancel are not (see the class docstring)."""
        E = self.E
        rad = E.radical_set
        B = E.dim
        power = [B ** k for k in range(s + 3)]
        # signs fixed once per table entry: (-1)^{deg(a_1) t} on a_1 . f,
        # (-1)^{s+1} on f . a_{s+1}, (-1)^{a+1} on the a-th contraction and
        # (-1)^a on its (e, e) term; rows less the part read from T
        left = [[(x * power[s + 1] + wp, -c if E.deg[x] * t % 2 else c)
                 for x, prod in E.left_products[w] if x in rad
                 for wp, c in prod.items()]
                for w in range(E.dim)]
        right = [[(x * B + wp, c if s % 2 else -c)
                  for x, prod in E.right_products[w] if x in rad
                  for wp, c in prod.items()]
                 for w in range(E.dim)]
        # the factorizations into radical pairs, or at an idempotent e its
        # one factorization (e, e)
        pairs = {z: [(x * B + y, cf if z in rad else -cf) for x, y, cf in xs
                     if x in rad and y in rad or z not in rad]
                 for z, xs in self.factorizations().items()}
        slots = [{z: [(xy * power[s - a], cf if a % 2 else -cf) for xy, cf in xs]
                  for z, xs in pairs.items() if xs}
                 for a in range(s)]
        cols = []
        for key, ck, ws in self._walk(s, t):
            T, ct = (key, ck) if s else ((), 0)
            for w in ws:
                code = ck * B + w
                if code in skip:
                    continue
                col = {}
                # a_1 . f(a_2 ... a_{s+1})
                at = ct * B
                for r, c in left[w]:
                    accum(col, at + r, c)
                # contractions
                for a in range(s):
                    terms = slots[a].get(T[a])
                    if terms:
                        head, low = divmod(code, power[s - a + 1])
                        at = head * power[s - a + 2] + low % power[s - a]
                        for r, cf in terms:
                            accum(col, at + r, cf)
                # f(a_1 ... a_s) . a_{s+1}
                at = ct * B * B
                for r, c in right[w]:
                    accum(col, at + r, c)
                cols.append(col)
        return cols


def unnormalized_complex(E) -> UnnormalizedComplex:
    return UnnormalizedComplex(E)
