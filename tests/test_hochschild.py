"""Hochschild cochains: bases, the differential, the bracket, cohomology
dimensions, and agreement with independently built complexes."""

import itertools
import math
import random

import pytest

from curvealg import hochschild, linalg
from curvealg.linalg import ONE, accum, rank_of_columns, rat, vec_addmul
from curvealg.quiver import SubspaceW, build_ew
from curvealg.hochschild import (Cochain, HochschildComplex, UnnormalizedComplex,
                                 _sign, compose, differential_apply, gerstenhaber,
                                 reduced_complex, unnormalized_complex,
                                 vanishing_scan)
from test_linalg import apply


def E11():
    return build_ew(SubspaceW.zero(1))


def E21():
    return build_ew(SubspaceW(2, [[1, 1]]))


def fraction_delta(cx, s, t):
    """delta itself at (s, t) on row codes, as Fractions: the columns of
    the integer matrix D*delta (D = E.denominator) divided by D."""
    D = cx.E.denominator
    return [{r: rat(c, D) for r, c in col.items()} for col in cx.delta_columns(s, t)]


def random_cochain(E, s, t, rng, density=0.6):
    cx = reduced_complex(E)
    values = {}
    for key, w in cx.basis(s, t):
        if rng.random() < density:
            c = rat(rng.randint(-3, 3))
            if c:
                values.setdefault(key, {})[w] = c
    return Cochain(E, s, t, values)


# -- bases ---------------------------------------------------------------------


def test_zero_cochains_are_per_vertex():
    E = E21()
    basis0 = reduced_complex(E).basis(0, 0)
    # one idempotent-central direction per vertex
    assert [key for key, _ in basis0] == [0, 1, 2]
    basis1 = reduced_complex(E).basis(0, 1)
    # degree-1 loops: g at the hub, one at each leaf
    assert len(basis1) == E.g + E.n


def test_cochain_dimension_by_direct_enumeration():
    E = E11()
    s, t = 2, 0
    # independent count: composable radical pairs with a degree-0 defect
    count = 0
    for x in E.radical:
        for y in E.radical:
            if E.tgt[x] != E.src[y]:
                continue
            d = t + E.deg[x] + E.deg[y]
            if d not in (0, 1):
                continue
            count += len(E.hom_basis(E.src[x], E.tgt[y], d))
    assert count == len(reduced_complex(E).basis(s, t))
    assert count > 0
    # both complexes share one enumerator: check it tuple by tuple against
    # a brute-force product over each complex's own element set
    for E in (E11(), build_ew(SubspaceW(2, [["1/2", "-2/3"]]))):
        for cx in (reduced_complex(E), unnormalized_complex(E)):
            for s in range(1, 5):
                for t in range(-s, 2):
                    want = []
                    for T in itertools.product(cx.elements(), repeat=s):
                        if any(E.tgt[x] != E.src[y] for x, y in zip(T, T[1:])):
                            continue
                        d = t + sum(E.deg[x] for x in T)
                        if d not in (0, 1):
                            continue
                        want += [(T, w) for w in E.hom_basis(E.src[T[0]], E.tgt[T[-1]], d)]
                    assert cx.basis(s, t) == want, (type(cx).__name__, s, t)


def _seeded_line(seed):
    """A seeded line in Q^2 with both coordinates nonzero and non-integral."""
    rng = random.Random(seed)
    return SubspaceW(2, [[rat(rng.choice((1, -1, 5, -5)), rng.choice((2, 3)))
                          for _ in range(2)]])


def test_dim_counts_the_basis_on_every_cell():
    # dim counts tuples by (source, target, degree sum) without walking
    # them; each basis is built on a fresh complex, so none is kept
    for w in (SubspaceW.zero(1), _seeded_line(17), SubspaceW.zero(2)):
        E = build_ew(w)
        for cls in (HochschildComplex, UnnormalizedComplex):
            cx = cls(E)
            for s in range(9):
                for t in range(-6, 2):
                    assert cx.dim(s, t) == len(cls(E).basis(s, t)), (cls.__name__, s, t)
            assert not cx._basis and not cx._tuples, cls.__name__
        assert reduced_complex(E).dim(-1, 0) == 0


def _walk_reference(cx, s, t):
    """The (s, t) keys of cx, lexicographic, each with its hom basis, empty
    ones included: the vertices at arity 0, and from arity 1 on the
    composable s-tuples of elements() whose degree sum d has t + d in
    {0, 1}."""
    E = cx.E
    if s == 0:
        return [(v, E.hom_basis(v, v, t)) for v in range(E.n + 1)]
    els = sorted(cx.elements())
    out = []

    def grow(T, d):
        if len(T) == s:
            if -t <= d:
                out.append((T, E.hom_basis(E.src[T[0]], E.tgt[T[-1]], t + d)))
            return
        room = s - len(T) - 1  # every degree is 0 or 1
        for x in els:
            if ((not T or E.tgt[T[-1]] == E.src[x])
                    and -t <= d + E.deg[x] + room and d + E.deg[x] <= 1 - t):
                grow(T + (x,), d + E.deg[x])

    grow((), 0)
    return out


def test_walk_yields_only_keys_with_values():
    # a composable key whose value space is empty carries no basis element
    # and is not walked; basis, dim and the order of tuple_keys are those
    # of the walk over every composable key
    for w in (SubspaceW.zero(1), _seeded_line(17), SubspaceW.zero(2)):
        E = build_ew(w)
        for cls in (HochschildComplex, UnnormalizedComplex):
            cx = cls(E)
            dropped = 0
            for s in range(9):
                for t in range(-6, 2):
                    assert all(ws for _, _, ws in cx._walk(s, t)), (cls.__name__, s, t)
                    full = _walk_reference(cx, s, t)
                    assert cx.tuple_keys(s, t) == [T for T, ws in full if ws]
                    assert cx.basis(s, t) == [(T, v) for T, ws in full for v in ws]
                    assert cx.dim(s, t) == len(cx.basis(s, t))
                    dropped += sum(not ws for _, ws in full)
            assert dropped > 0, cls.__name__


def test_delta_columns_do_not_depend_on_a_cached_basis():
    rng = random.Random(19)
    for w in (SubspaceW.zero(1), _seeded_line(17), SubspaceW.zero(2)):
        E = build_ew(w)
        for cls in (HochschildComplex, UnnormalizedComplex):
            for s in range(5):
                for t in range(-s - 1, 2):
                    cached = cls(E)
                    codes = [cached.code(s, key, v) for key, v in cached.basis(s, t)]
                    for skip in ((), {c for c in codes if rng.random() < 0.5}):
                        assert cls(E).delta_columns(s, t, skip) == \
                            cached.delta_columns(s, t, skip), (cls.__name__, s, t)


def test_low_t_cochains_empty():
    E = E11()
    for s in range(0, 4):
        assert reduced_complex(E).basis(s, -s - 1) == []
        assert reduced_complex(E).basis(s, -s - 3) == []


def test_basis_is_sorted():
    E = E21()
    b = reduced_complex(E).basis(2, -1)
    assert b == sorted(b)


def _decode(E, s, code):
    """(key, w) from a row code: its base-E.dim digits, the last one w and
    the others the argument tuple (one vertex at arity 0)."""
    digits = []
    for _ in range(max(s, 1) + 1):
        code, d = divmod(code, E.dim)
        digits.append(d)
    assert code == 0
    w, *key = digits
    key = tuple(reversed(key))
    return (key if s else key[0]), w


def test_codes_sort_as_basis_and_decode():
    # delta names its rows by code, and clearing reads pivots by code, so
    # within a cell codes must order the basis exactly as positions do
    for w in (SubspaceW.zero(1), SubspaceW(2, [["1/2", "-2/3"]]),
              SubspaceW(2, [[1, 0], [0, 1]]), SubspaceW.zero(2)):
        E = build_ew(w)
        for cx in (HochschildComplex(E), UnnormalizedComplex(E)):
            checked = 0
            for s in range(6):
                for t in range(-s, 2):
                    basis = cx.basis(s, t)
                    codes = [cx.code(s, key, v) for key, v in basis]
                    assert all(a < b for a, b in zip(codes, codes[1:])), (s, t)
                    assert [_decode(E, s, c) for c in codes] == basis, (s, t)
                    checked += len(codes)
            assert checked > 100


# -- differential ---------------------------------------------------------------


def test_delta_of_central_zero_cochain_vanishes():
    E = E21()
    # the identity-like 0-cochain: e_v at every vertex
    c = Cochain(E, 0, 0, {v: {E.e_idx[v]: ONE} for v in range(E.n + 1)})
    assert differential_apply(c).is_zero()
    # a non-central 0-cochain has nonzero differential
    c2 = Cochain(E, 0, 0, {0: {E.e_idx[0]: ONE}})
    assert not differential_apply(c2).is_zero()


def test_delta_squared_zero_grid():
    for E in (E11(), E21()):
        cx = reduced_complex(E)
        for t in range(-4, 1):
            for s in range(0, 6 - max(0, -t)):
                d2 = cx.delta_columns(s + 1, t)
                assert not any(apply(d2, col) for col in
                               cx.positions(cx.delta_columns(s, t), s + 1, t))


def test_bracket_equals_matrix_differential():
    rng = random.Random(13)
    E = E11()
    cx = reduced_complex(E)
    cases = [(0, 0), (1, 0), (1, -1), (2, -1), (2, 0), (3, -2), (4, -3)]
    done = 0
    for s, t in cases:
        for _ in range(3):
            phi = random_cochain(E, s, t, rng)
            lhs = cx.cochain_to_vector(differential_apply(phi))
            rhs = apply(cx.positions(fraction_delta(cx, s, t), s + 1, t),
                        cx.cochain_to_vector(phi))
            assert lhs == rhs
            done += 1
    assert done >= 20


def test_hh_dims_match_unnormalized_complex_31():
    # a wider-grid spot check of the two complexes beyond the acceptance grid
    E = build_ew(SubspaceW(3, [[1, 2, -1], [0, 1, 1]]))
    cx = reduced_complex(E)
    ucx = unnormalized_complex(E)
    for i in range(0, 3):
        for t in range(-3, 1):
            assert cx.hh_dim(i, t) == ucx.hh_dim(i, t), (i, t)


def test_delta_rank_matches_unnormalized_complex():
    E = E11()
    cx = reduced_complex(E)
    ucx = unnormalized_complex(E)
    s, t = 2, -1
    # ranks differ between the complexes, but the cohomology must not
    assert cx.hh_dim(2, -1) == ucx.hh_dim(2, -1)
    assert cx.hh_dim(3, -1) == ucx.hh_dim(3, -1)
    # and the unnormalized differential squares to zero too
    for s in range(0, 4):
        d2 = ucx.delta_columns(s + 1, t)
        assert not any(apply(d2, col) for col in
                       ucx.positions(ucx.delta_columns(s, t), s + 1, t))


# -- bracket identities ----------------------------------------------------------


def test_mul_bracket_with_itself_vanishes():
    for E in (E11(), E21()):
        b2 = Cochain.mul2(E)
        assert gerstenhaber(b2, b2).is_zero()


def test_self_bracket_parity():
    # [f, f] = 2 f o f for odd suspended degree and 0 for even: the sign
    # convention consistency check
    from curvealg.hochschild import compose
    rng = random.Random(23)
    E = E11()
    odd = random_cochain(E, 2, 0, rng)  # suspended degree 1
    assert odd.susdeg() % 2 == 1
    assert gerstenhaber(odd, odd) == compose(odd, odd).scale(2)
    even = random_cochain(E, 2, -1, rng)  # suspended degree 0
    assert even.susdeg() % 2 == 0
    assert gerstenhaber(even, even).is_zero()


def test_graded_jacobi():
    # [[a,b],c] = [a,[b,c]] - (-1)^{|a||b|} [b,[a,c]] with suspended degrees
    rng = random.Random(31)
    E = E11()
    shapes = [(1, 0), (2, -1), (2, -2), (3, -2), (1, -1), (2, 0)]
    for _ in range(12):
        sa, ta = shapes[rng.randrange(len(shapes))]
        sb, tb = shapes[rng.randrange(len(shapes))]
        sc, tc = shapes[rng.randrange(len(shapes))]
        a = random_cochain(E, sa, ta, rng)
        b = random_cochain(E, sb, tb, rng)
        c = random_cochain(E, sc, tc, rng)
        lhs = gerstenhaber(gerstenhaber(a, b), c)
        rhs = gerstenhaber(a, gerstenhaber(b, c)).add(
            gerstenhaber(b, gerstenhaber(a, c)).scale(
                -1 if (a.susdeg() * b.susdeg()) % 2 == 0 else 1))
        assert lhs == rhs


# -- cohomology -------------------------------------------------------------------


def test_hh0_is_one_dimensional_in_degree_zero():
    rng = random.Random(3)
    for n, g in [(1, 1), (2, 1), (2, 0), (3, 2)]:
        rows = []
        while True:
            try:
                rows = [[rat(rng.randint(-2, 2)) for _ in range(n)]
                        for _ in range(n - g)]
                w = SubspaceW(n, rows)
                break
            except ValueError:
                continue
        assert reduced_complex(build_ew(w)).hh_dim(0, 0) == 1


def test_hh1_negative_vanishing_spec_grid():
    cases = [
        SubspaceW.zero(1),
        SubspaceW(2, [[1, 1]]),
        SubspaceW.zero(2),
        SubspaceW(3, [[1, 1, 1], [0, 1, -1]]),
        SubspaceW.zero(3),
    ]
    for w in cases:
        E = build_ew(w)
        cx = reduced_complex(E)
        for j in range(1, 7):
            assert cx.hh_dim(0, -j) == 0
            assert cx.hh_dim(1, -j) == 0


def test_hh2_total_cuspidal():
    E = E11()
    cx = reduced_complex(E)
    dims = {t: cx.hh_dim(2, t) for t in range(-8, 0)}
    assert sum(dims.values()) == 2
    assert dims[-4] == 1 and dims[-6] == 1


def test_vanishing_scan_grid_cases():
    # one-line, one-point case: outside the scope of the moduli statements (those need
    # n >= 2 when g = 0) and indeed carries a single HH^1 class in degree -1;
    # confirmed against the absolute complex in
    # test_reduced_matches_absolute_complex_small
    table = vanishing_scan(build_ew(SubspaceW(1, [[1]])), 3, -6)
    nonzero = {(i, t): cell[3] for (i, t), cell in table.cells.items()
               if t < 0 and cell[3]}
    assert nonzero == {(1, -1): 1}
    # two lines through a point: HH^0/HH^1 vanish below zero, one modulus
    # of weight 2 (the curve x1 x2 = t)
    table20 = vanishing_scan(build_ew(SubspaceW(2, [[1, 0], [0, 1]])), 2, -6)
    assert all(table20.hh(i, t) == 0 for i in (0, 1) for t in range(-6, 0))
    assert {t: table20.hh(2, t) for t in range(-6, 0) if table20.hh(2, t)} == {-2: 1}
    # (2,1): HH^2 negative part totals 3
    table21 = vanishing_scan(E21(), 2, -6)
    assert sum(table21.hh(2, t) for t in range(-6, 0)) == 3
    assert table21.max_nonzero(2) == 4
    # (1,1): HH^1 vanishes throughout
    table11 = vanishing_scan(E11(), 1, -6)
    assert all(table11.hh(1, t) == 0 for t in range(-6, 0))


def test_bidegree_table_formats():
    table = vanishing_scan(E11(), 1, -2)
    csv = table.to_csv()
    assert csv.splitlines()[0] == "i,t,dim_cochain,dim_cocycle,dim_coboundary,dim_HH"
    assert len(csv.splitlines()) == 1 + 2 * 3
    j = table.to_json()
    assert {"cells", "stabilization"} <= set(j)
    for row in j["cells"]:
        assert row["dim_HH"] == row["dim_cocycle"] - row["dim_coboundary"]
        assert row["dim_HH"] >= 0


# -- absolute-complex oracle (all tuples, composable or not) -----------------------


def absolute_hh(E, i, t):
    """HH^i_t from the plain bar complex Hom(E^{x s}, E) with the classic
    differential; small cases only."""

    def basis(s):
        if s == 0:
            return [((), w) for w in range(E.dim) if E.deg[w] == t]
        out = []
        tuples = [()]
        for _ in range(s):
            tuples = [tp + (x,) for tp in tuples for x in range(E.dim)]
        for tp in tuples:
            d = t + sum(E.deg[x] for x in tp)
            if d in (0, 1):
                out.extend((tp, w) for w in range(E.dim) if E.deg[w] == d)
        return out

    def delta_cols(s):
        rows = {bk: r for r, bk in enumerate(basis(s + 1))}
        cols = []
        for tp, w in basis(s):
            col = {}

            def add(key, c):
                r = rows.get(key)
                if r is None:
                    return
                cur = col.get(r, rat(0)) + c
                if cur:
                    col[r] = cur
                else:
                    col.pop(r, None)

            for x in range(E.dim):
                sg = -1 if (E.deg[x] * t) % 2 else 1
                for wp, c in E.table.get((x, w), {}).items():
                    add(((x,) + tp, wp), sg * c)
            for a in range(s):
                sg = -1 if (a + 1) % 2 else 1
                for x in range(E.dim):
                    for y in range(E.dim):
                        c = E.table.get((x, y), {}).get(tp[a])
                        if c:
                            add((tp[:a] + (x, y) + tp[a + 1:], w), sg * c)
            sg = -1 if (s + 1) % 2 else 1
            for x in range(E.dim):
                for wp, c in E.table.get((w, x), {}).items():
                    add((tp + (x,), wp), sg * c)
            cols.append(col)
        return cols

    s = i - t
    if s < 0:
        return 0
    dim = len(basis(s))
    if dim == 0:
        return 0
    r_out = rank_of_columns(delta_cols(s)) if basis(s + 1) else 0
    r_in = rank_of_columns(delta_cols(s - 1)) if s > 0 and basis(s - 1) else 0
    return dim - r_out - r_in


def test_reduced_matches_absolute_complex_small():
    for E in (build_ew(SubspaceW.zero(1)), build_ew(SubspaceW(1, [[1]]))):
        cx = reduced_complex(E)
        for i in range(0, 3):
            for t in range(-2, 1):
                assert cx.hh_dim(i, t) == absolute_hh(E, i, t), (i, t)


# -- delta assembly against the Fraction-accumulating reference ---------------------


def _accum_reference(out, key, c):
    s = out.get(key, rat(0)) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _sign_reference(k):
    return -1 if k % 2 else 1


def _factorizations_reference(E, elements):
    """fact[z] = [(x, y, c)] over pairs of elements with (x*y)_z = c, read
    from the Fraction table."""
    fact = {}
    for x in elements:
        for y in elements:
            for z, c in E.table.get((x, y), {}).items():
                fact.setdefault(z, []).append((x, y, c))
    return fact


def reduced_delta_reference(cx, s, t):
    """HochschildComplex.delta_columns as first written: signs multiplied
    in as ints, sums started from a rational zero."""
    E = cx.E
    cols = []
    rindex = cx.index(s + 1, t)
    fact = _factorizations_reference(E, cx.elements())
    sus = s + t - 1
    for key, w in cx.basis(s, t):
        col = {}
        wsign = _sign_reference(E.deg[w] - 1)
        if s == 0:
            v = key
            for x in cx.elements():
                if E.src[x] == v:
                    for wp, c in E.table.get((w, x), {}).items():
                        _accum_reference(col, rindex[((x,), wp)], wsign * c)
            for x in cx.elements():
                if E.tgt[x] == v:
                    sg = _sign_reference((sus + 1) * (E.deg[x] - 1))
                    for wp, c in E.table.get((x, w), {}).items():
                        _accum_reference(col, rindex[((x,), wp)], sg * c)
        else:
            T = key
            for x in cx.elements():
                if E.src[x] == E.tgt[w]:
                    for wp, c in E.table.get((w, x), {}).items():
                        _accum_reference(col, rindex[(T + (x,), wp)], wsign * c)
            for x in cx.elements():
                if E.tgt[x] == E.src[w]:
                    sg = _sign_reference((sus + 1) * (E.deg[x] - 1))
                    for wp, c in E.table.get((x, w), {}).items():
                        _accum_reference(col, rindex[((x,) + T, wp)], sg * c)
            front = -_sign_reference(sus)
            presum = 0
            for a in range(s):
                for x, y, cf in fact.get(T[a], ()):
                    Tp = T[:a] + (x, y) + T[a + 1:]
                    sg = front * _sign_reference(presum) * _sign_reference(E.deg[x] - 1)
                    _accum_reference(col, rindex[(Tp, w)], sg * cf)
                presum += E.deg[T[a]] - 1
        cols.append(col)
    return cols


def unnormalized_delta_reference(ucx, s, t):
    """UnnormalizedComplex.delta_columns as first written."""
    E = ucx.E
    rindex = ucx.index(s + 1, t)
    fact = _factorizations_reference(E, ucx.elements())
    cols = []
    for key, w in ucx.basis(s, t):
        col = {}
        if s == 0:
            v = key
            for x in range(E.dim):
                if E.tgt[x] == v:
                    sg = _sign_reference(E.deg[x] * t)
                    for wp, c in E.table.get((x, w), {}).items():
                        _accum_reference(col, rindex[((x,), wp)], sg * c)
            for x in range(E.dim):
                if E.src[x] == v:
                    for wp, c in E.table.get((w, x), {}).items():
                        _accum_reference(col, rindex[((x,), wp)], -c)
        else:
            T = key
            for x in range(E.dim):
                if E.tgt[x] == E.src[w]:
                    sg = _sign_reference(E.deg[x] * t)
                    for wp, c in E.table.get((x, w), {}).items():
                        _accum_reference(col, rindex[((x,) + T, wp)], sg * c)
            for a in range(s):
                sg = _sign_reference(a + 1)
                for x, y, cf in fact.get(T[a], ()):
                    Tp = T[:a] + (x, y) + T[a + 1:]
                    _accum_reference(col, rindex[(Tp, w)], sg * cf)
            sg = _sign_reference(s + 1)
            for x in range(E.dim):
                if E.src[x] == E.tgt[w]:
                    for wp, c in E.table.get((w, x), {}).items():
                        _accum_reference(col, rindex[(T + (x,), wp)], sg * c)
        cols.append(col)
    return cols


def test_accum_matches_reference_accumulation():
    steps = [(3, rat(1, 2)), (1, rat(2)), (3, rat(1, 4)), (2, rat(0)), (1, rat(-2)),
             (5, rat(-1)), (1, rat(7)), (3, rat(-3, 4)), (5, rat(1, 3))]
    got, want = {}, {}
    for key, c in steps:
        accum(got, key, c)
        _accum_reference(want, key, c)
        assert list(got.items()) == list(want.items())
    assert list(got.items()) == [(5, rat(-2, 3)), (1, rat(7))]


def eval_b2(E, u, v):
    """Suspended product of two E-vectors: sum (-1)^{|x|} x y."""
    return E.mul({k: ck if E.deg[k] == 1 else -ck for k, ck in u.items()}, v)


def eval_multilinear(phi, args):
    """Value of the cochain phi on a tuple of E-vectors, expanding over
    radical components only (the normalized extension drops idempotent
    parts)."""
    E = phi.E
    radset = E.radical_set
    choices = []
    for a in args:
        items = [(k, c) for k, c in a.items() if k in radset]
        if not items:
            return {}
        choices.append(items)
    out = {}
    for pick in itertools.product(*choices):
        key = tuple(k for k, _ in pick)
        val = phi.values.get(key)
        if not val:
            continue
        c = ONE
        for _, ci in pick:
            c = c * ci
        vec_addmul(out, c, val)
    return out


def _eval_b2_reference(E, u, v):
    """eval_b2 as first written: its own signed triple loop over the table."""
    out = {}
    for k, ck in u.items():
        sk = ck if E.deg[k] == 1 else -ck
        for m, cm in v.items():
            prod = E.table.get((k, m))
            if not prod:
                continue
            c = sk * cm
            for r, cr in prod.items():
                accum(out, r, c * cr)
    return out


def test_eval_b2_matches_reference_loop_exactly():
    rng = random.Random(7)
    coeffs = [rat(1), rat(-1), rat(2), rat(1, 2), rat(-2, 3)]
    for E in (E11(), E21(), build_ew(SubspaceW(2, [["1/2", "-2/3"]]))):
        pairs = [({k: ONE}, {m: ONE}) for k in range(E.dim) for m in range(E.dim)]
        for _ in range(40):
            pairs.append(tuple({k: rng.choice(coeffs)
                                for k in rng.sample(range(E.dim), rng.randint(1, 4))}
                               for _ in range(2)))
        for u, v in pairs:
            got, want = eval_b2(E, u, v), _eval_b2_reference(E, u, v)
            assert list(got.items()) == list(want.items()), (u, v)
            assert all(type(c) is type(ONE) for c in got.values())


def value(phi, key):
    """The value of the cochain phi at key, {} where it has none."""
    return phi.values.get(key, {})


def _compose_reference(f, g):
    """compose as first written: for every key of tuple_keys(r, t) it
    probes every insertion slot and pulls the values of g and f there.

    Brace insertion sum f o g with Koszul signs in suspended degrees.

    Inserting into a normalized cochain projects the inserted value to the
    radical; inserting into b2 keeps the full value (that is what makes
    [b2, .] the differential of the normalized complex).
    """
    E = f.E
    p, q = f.s, g.s
    r = p + q - 1
    t = f.t + g.t
    if p == 0 or r < 0:
        return Cochain(E, max(r, 0), t)
    cx = reduced_complex(E)
    gsus = g.susdeg()
    out = {}
    for key in cx.tuple_keys(r, t):
        T = key if r > 0 else ()
        val = {}
        for a in range(p):
            # value of g on the block starting at slot a
            if q == 0:
                if r == 0:
                    v = key
                elif a == 0:
                    v = E.src[T[0]]
                else:
                    v = E.tgt[T[a - 1]]
                gv = value(g, v)
            elif g.is_mul:
                x, y = T[a], T[a + 1]
                prod = E.table.get((x, y))
                sx = _sign(E.deg[x] - 1)
                gv = {k: sx * c for k, c in prod.items()} if prod else {}
            else:
                gv = value(g, T[a:a + q])
            if not gv:
                continue
            presum = sum(E.deg[x] - 1 for x in T[:a])
            sgn = _sign(gsus * presum)
            rest = T[a + q:]
            if f.is_mul:
                if a == 0:
                    term = eval_b2(E, gv, {rest[0]: ONE})
                else:
                    term = eval_b2(E, {T[0]: ONE}, gv)
            else:
                term = {}
                for z, cz in gv.items():
                    if z not in E.radical_set:
                        continue
                    fv = f.values.get(T[:a] + (z,) + rest)
                    if fv:
                        vec_addmul(term, cz, fv)
            vec_addmul(val, sgn, term)
        if val:
            out[key] = val
    return Cochain(E, r, t, out)


def assert_same_composition(f, g):
    """compose(f, g) equals the pull reference: the same keys in the same
    (tuple_keys) order, the same values and the same value types."""
    got, want = compose(f, g), _compose_reference(f, g)
    assert (got.s, got.t) == (want.s, want.t)
    assert list(got.values) == list(want.values), (f, g)
    assert got == want, (f, g)
    assert all(type(c) is type(want.values[key][z])
               for key, vec in got.values.items() for z, c in vec.items())
    return got


@pytest.mark.parametrize("w", [SubspaceW.zero(1), SubspaceW(2, [["1/2", "-2/3"]]),
                               SubspaceW(3, [[1, 2, -1], [0, 1, 1]])],
                         ids=["E11", "E21-nonintegral", "E31"])
def test_compose_matches_the_pull_reference_on_every_shape_pair(w):
    # every (s, t) with s <= 4 whose window holds a value, and b2 on either
    # side, b2 o b2 included; arity-0 cochains hold idempotent values too
    E = build_ew(w)
    rng = random.Random(41)
    b2 = Cochain.mul2(E)
    shapes = [b2] + [random_cochain(E, s, t, rng) for s in range(5)
                     for t in range(-s, 2)]
    seen = set()
    for f in shapes:
        for g in shapes:
            got = assert_same_composition(f, g)
            if not got.is_zero():
                seen.add((f.is_mul, g.is_mul, f.s if g.s == 0 else None, got.s))
    assert {(True, False, None, 4), (False, True, None, 4),
            (True, False, 2, 1), (False, False, 1, 0)} <= seen
    assert compose(b2, b2).is_zero() and _compose_reference(b2, b2).is_zero()


def _idempotent_runs(E, key):
    """(length, place) of every maximal run of two or more equal
    idempotents in key, the place being front, middle or end."""
    runs = set()
    for x, group in itertools.groupby(enumerate(key), key=lambda ax: ax[1]):
        at = [a for a, _ in group]
        if x not in E.radical_set and len(at) > 1:
            runs.add((len(at), "front" if at[0] == 0 else
                      "end" if at[-1] == len(key) - 1 else "middle"))
    return runs


def test_delta_columns_match_reference_exactly():
    cases = [(0, 0), (0, 1), (1, -1), (1, 0), (2, -2), (2, -1), (3, -3), (3, -2),
             (4, -3)]
    # the oracle sums its cancelling unit terms in closed form, so it is
    # also compared up to s = 7, where its keys hold runs of idempotents
    oracle_cases = cases + [(5, -4), (5, -3), (5, -2), (5, -1), (5, 0), (5, 1),
                            (6, -2), (6, -1), (6, 0), (6, 1), (7, -1), (7, 0), (7, 1)]
    # g = 1, then g = 0 (no loop classes w_s) and g = n (no relation among
    # them); the oracle also on (1, 1) and on a (3, 1) algebra
    for w in (SubspaceW(2, [["1/2", "-2/3"]]), SubspaceW(2, [[1, 0], [0, 1]]),
              SubspaceW.zero(2), SubspaceW.zero(1),
              SubspaceW(3, [[1, 0, 0], [0, 1, 0]])):
        E = build_ew(w)
        checks = [(unnormalized_complex(E), unnormalized_delta_reference, oracle_cases)]
        if E.n == 2:
            checks.insert(0, (reduced_complex(E), reduced_delta_reference, cases))
        for cx, reference, cells in checks:
            nnz = 0
            runs = set()
            for s, t in cells:
                got = cx.positions(fraction_delta(cx, s, t), s + 1, t)
                want = reference(cx, s, t)
                # same keys in the same order, same values of the same type
                assert [list(c.items()) for c in got] == [list(c.items()) for c in want], \
                    (E.n, E.g, s, t)
                assert all(type(x) is type(y) for c, d in zip(got, want)
                           for x, y in zip(c.values(), d.values()))
                nnz += sum(len(c) for c in got)
                # delta o delta = 0
                d2 = cx.delta_columns(s + 1, t)
                assert not any(apply(d2, col) for col in got), (E.n, E.g, s, t)
                if s:
                    for key, _ in cx.basis(s, t):
                        runs |= _idempotent_runs(E, key)
            assert nnz > 100
            if isinstance(cx, UnnormalizedComplex):
                # degenerate columns: runs of 2 and 3 equal idempotents at
                # the front, in the middle and at the end of their keys
                assert {(k, place) for k in (2, 3) for place in
                        ("front", "middle", "end")} <= runs, (E.n, E.g)


def test_oracle_builds_few_terms_beyond_its_nonzeros(monkeypatch):
    # a fill-in-style tripwire: over the oracle's HH table i <= 3, t >= -4
    # of the (2, 1) algebra of the line (2/3, -3/2), the accum calls inside
    # UnnormalizedComplex.delta_columns stay below 1.5 times the nonzeros
    # it returns.  Building the cancelling unit terms of the textbook
    # differential makes 151 201 calls for 58 717 nonzeros; summing them
    # in closed form makes 60 139
    counts = {"accum": 0, "inside": 0, "nonzeros": 0}
    real_accum, oracle_columns = hochschild.accum, UnnormalizedComplex.delta_columns

    def counted_accum(u, i, c):
        counts["accum"] += 1
        return real_accum(u, i, c)

    def counted_columns(cx, s, t, skip=()):
        before = counts["accum"]
        cols = oracle_columns(cx, s, t, skip)
        counts["inside"] += counts["accum"] - before
        counts["nonzeros"] += sum(map(len, cols))
        return cols

    monkeypatch.setattr(hochschild, "accum", counted_accum)
    monkeypatch.setattr(UnnormalizedComplex, "delta_columns", counted_columns)
    cx = unnormalized_complex(build_ew(SubspaceW(2, [["2/3", "-3/2"]])))
    for t in range(-4, 1):
        for i in range(4):
            cx.hh_dim(i, t)
    assert counts["nonzeros"] == 58717
    assert 0 < counts["inside"] < 1.5 * counts["nonzeros"], counts


# -- cleared integer ranks against the full Fraction delta ----------------------------


CLEARING_ALGEBRAS = (SubspaceW.zero(1), SubspaceW(2, [["1/2", "-2/3"]]),
                     SubspaceW(2, [[1, 0], [0, 1]]), SubspaceW.zero(2))


def test_cleared_ranks_match_full_delta_in_any_call_order():
    rng = random.Random(12)
    for w in CLEARING_ALGEBRAS:
        E = build_ew(w)
        # every delta that HH^i reads for i <= 3 (reduced) or i <= 2 (oracle;
        # its delta at s = 3 - t, t = -5 on g = n = 2 has 65 548 columns)
        for cls, i_max in ((HochschildComplex, 3), (UnnormalizedComplex, 2)):
            full = cls(E)
            pairs = [(s, t) for t in range(-5, 1) for s in range(i_max - t + 1)]
            want = {(s, t): rank_of_columns(full.delta_columns(s, t))
                    for s, t in pairs}
            shuffled = list(pairs)
            rng.shuffle(shuffled)
            top_first = sorted(pairs, key=lambda st: (-st[0], st[1]))
            for order in (pairs, top_first, shuffled):
                cx = cls(E)
                got = {(s, t): cx.delta_rank(s, t) for s, t in order}
                assert got == want, (w.rows, cls.__name__)
            # each swept t keeps one pivot set, at the top s it reached
            assert {t: s for t, (s, _) in cx._pivots.items()} == \
                {t: i_max - t for t in range(-5, 1)}
            assert sum(want.values()) > 100


def test_cleared_pivot_sets_are_those_of_the_basis_indexed_delta():
    # the sweep of delta_rank on coded integer columns, and the same sweep
    # on the Fraction delta indexed by basis position, clear the same
    # columns and pick the same pivot rows
    for w in CLEARING_ALGEBRAS:
        E = build_ew(w)
        for cls, i_max in ((HochschildComplex, 3), (UnnormalizedComplex, 2)):
            cx = cls(E)
            total = 0
            for t in range(-4, 1):
                coded, indexed = set(), set()
                for s in range(i_max - t + 1):
                    skip, coded = coded, set()
                    rank_of_columns(cx.delta_columns(s, t, skip), coded)
                    cleared, indexed = indexed, set()
                    cols = cx.positions(fraction_delta(cx, s, t), s + 1, t)
                    rank_of_columns([c for j, c in enumerate(cols) if j not in cleared],
                                    indexed)
                    at = cx.positions([dict.fromkeys(coded)], s + 1, t)[0]
                    assert set(at) == indexed, (w.rows, cls.__name__, s, t)
                    assert len(indexed) == cx.delta_rank(s, t)
                    total += len(indexed)
            assert total > 100, (w.rows, cls.__name__)


def test_cleared_sweep_reduces_fewer_columns_than_delta_has_nonzeros(monkeypatch):
    # a fill-in tripwire: over the cleared sweep of the largest clearing
    # algebra (g = n = 2, W = 0), in both complexes, the column reductions
    # of rank_of_columns stay below the nonzeros of the columns it is given
    # (the least-row reduction makes 3 429 against 76 469 and 2 512 against
    # 133 273), so a pivot rule that blows up fill fails here
    counts = {"reductions": 0, "nonzeros": 0}
    reduce_column, pivot_rows = linalg.vec_addmul, linalg._pivot_rows

    def counted_reduction(u, c, v):
        counts["reductions"] += 1
        return reduce_column(u, c, v)

    def counted_input(cols):
        counts["nonzeros"] += sum(map(len, cols))
        return pivot_rows(cols)

    monkeypatch.setattr(linalg, "vec_addmul", counted_reduction)
    monkeypatch.setattr(linalg, "_pivot_rows", counted_input)
    E = build_ew(CLEARING_ALGEBRAS[-1])
    for cls, i_max in ((HochschildComplex, 3), (UnnormalizedComplex, 2)):
        counts.update(reductions=0, nonzeros=0)
        cx = cls(E)
        for t in range(-5, 1):
            cx.delta_rank(i_max - t, t)
        assert 0 < counts["reductions"] < counts["nonzeros"], (cls.__name__, counts)


def test_empty_cell_sweeps_no_rank():
    # C^1 at t = 2 is empty (no value has degree 2 + d for d >= 0), so
    # HH^3_2 is 0 with no rank computed
    for cls in (HochschildComplex, UnnormalizedComplex):
        cx = cls(E21())
        assert cx.dim(1, 2) == 0
        assert cx.cell(3, 2) == (0, 0, 0, 0)
        assert cx.hh_dim(3, 2) == 0
        assert cx._rank == {} and cx._pivots == {}, cls.__name__


def test_hh_sweep_never_enumerates_its_target(monkeypatch):
    # an i <= 3 table reads delta^{3-t} at each t, whose rows lie in the
    # (4 - t, t) cell; the rows are codes, so that cell is never walked,
    # and the sweep streams its columns, caching no basis, tuple or index
    walked = []
    walk = HochschildComplex._walk

    def spy(cx, s, t):
        walked.append((type(cx), s, t))
        return walk(cx, s, t)

    monkeypatch.setattr(HochschildComplex, "_walk", spy)
    E = build_ew(SubspaceW(2, [["1/2", "-2/3"]]))
    for cls in (HochschildComplex, UnnormalizedComplex):
        cx = cls(E)
        for t in range(-3, 1):
            for i in range(4):
                cx.hh_dim(i, t)
        cells = {(s, t) for c, s, t in walked if c is cls}
        # an empty cell sweeps no rank; dim counts without walking
        live = [t for t in range(-3, 1) if cx.dim(3 - t, t)]
        assert len(live) >= 3 and all((3 - t, t) in cells for t in live), cls.__name__
        assert not any((4 - t, t) in cells for t in range(-3, 1)), cls.__name__
        assert not cx._basis and not cx._tuples and not cx._index, cls.__name__


def test_integer_delta_is_denominator_times_fraction_delta():
    E = build_ew(SubspaceW(2, [["1/2", "-2/3"]]))
    D = E.denominator
    assert D == math.lcm(*[c.denominator for prod in E.table.values()
                           for c in prod.values()]) == 3
    rng = random.Random(5)
    for cx, reference in ((reduced_complex(E), reduced_delta_reference),
                          (unnormalized_complex(E), unnormalized_delta_reference)):
        nnz = 0
        for s, t in ((0, 0), (0, 1), (1, -1), (1, 0), (2, -2), (2, -1), (3, -3),
                     (3, -2), (4, -3), (5, -4)):
            # the Fraction delta, built from the Fraction table
            frac = reference(cx, s, t)
            ints = cx.delta_columns(s, t)
            assert [list(c.items()) for c in cx.positions(ints, s + 1, t)] == \
                [[(i, D * x) for i, x in c.items()] for c in frac], (s, t)
            assert all(type(x) is int for c in ints for x in c.values())
            nnz += sum(len(c) for c in ints)
            # skipped columns, named by code, are left out, the others
            # kept in order
            codes = [cx.code(s, key, w) for key, w in cx.basis(s, t)]
            skip = {codes[j] for j in range(len(frac)) if rng.random() < 0.5}
            kept = cx.delta_columns(s, t, skip=skip)
            assert kept == [c for j, c in enumerate(ints) if codes[j] not in skip]
        # some entry of delta has denominator 3, so the scaling shows
        assert any(x % D for c in cx.delta_columns(2, -1) for x in c.values())
        assert nnz > 100


# -- cochain deserialization ----------------------------------------------------------


def test_cochain_from_json_rejects_malformed_entries():
    E = E21()
    rng = random.Random(3)
    for s, t in ((0, 0), (2, -1), (3, -1)):
        phi = random_cochain(E, s, t, rng, density=1.0)
        assert Cochain.from_json(E, phi.to_json()) == phi
    obj = random_cochain(E, 3, -1, rng, density=1.0).to_json()
    entry = obj["entries"][0]
    bad_label = dict(obj, entries=[dict(entry, args=["zz"] + entry["args"][1:])])
    bad_target = dict(obj, entries=[dict(entry, value={"zz": "1"})])
    short = dict(obj, entries=[dict(entry, args=entry["args"][:2])])
    # a second entry on the same arguments would silently replace the first
    twice = dict(obj, entries=obj["entries"] + [dict(entry, value={})])
    # a composable radical triple whose degree does not fit (3, -1)
    x = next(k for k in E.radical if E.src[k] == E.tgt[k])
    off_basis = dict(obj, entries=[{"args": [E.labels[x]] * 3,
                                    "value": {E.labels[x]: "1"}}])
    zero_arity = Cochain(E, 0, 0, {0: {E.e_idx[0]: ONE}}).to_json()
    zero_wrong = dict(zero_arity, entries=[dict(zero_arity["entries"][0],
                                                args=["@0", "@1"])])
    for bad, why in ((bad_label, "unknown label"), (bad_target, "unknown label"),
                     (short, "2 arguments, not 3"), (off_basis, "outside the"),
                     (twice, "given twice"),
                     (zero_wrong, "2 arguments, not 1")):
        with pytest.raises(ValueError, match=why):
            Cochain.from_json(E, bad)
