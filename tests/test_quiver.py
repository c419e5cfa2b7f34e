"""The quiver algebra: examples, a path-enumeration oracle, and the torus
rescaling isomorphisms."""

import random

import pytest

from curvealg.linalg import ONE, rank_of_columns, rat
from curvealg.quiver import SubspaceW, build_ew, gm_rescale
from test_linalg import rref, sparse


def random_w(n, g, rng):
    while True:
        rows = [[rat(rng.randint(-3, 3), rng.choice([1, 1, 2]))
                 for _ in range(n)] for _ in range(n - g)]
        try:
            return SubspaceW(n, rows)
        except ValueError:
            continue


def test_cuspidal_case():
    E = build_ew(SubspaceW.zero(1))
    assert E.dim == 6
    assert E.graded_dims() == {0: 3, 1: 3}
    # B A is the loop generator at the hub
    assert E.mul_basis(E.b_idx[0], E.a_idx[0]) == {E.w_idx[0]: ONE}
    assert E.mul_basis(E.a_idx[0], E.b_idx[0]) == {E.l_idx[0]: ONE}


def test_full_w_kills_the_loop():
    E = build_ew(SubspaceW(1, [[1]]))
    assert E.dim == 5
    assert E.mul_basis(E.b_idx[0], E.a_idx[0]) == {}


def test_two_point_coset_relation():
    E = build_ew(SubspaceW(2, [[1, 1]]))
    assert E.dim == 10
    b1a1 = E.mul_basis(E.b_idx[0], E.a_idx[0])
    b2a2 = E.mul_basis(E.b_idx[1], E.a_idx[1])
    assert b1a1 == {k: -c for k, c in b2a2.items()}
    assert b2a2 == {E.w_idx[0]: ONE}


def test_rank_deficient_w_rejected():
    with pytest.raises(ValueError):
        SubspaceW(2, [[1, 1], [2, 2]])


def _loop_classes_reference(w):
    """Non-pivot columns of rref(W), and the class of each e_j in Q^n/W on
    the e_c at those columns: e_p = -sum_c R[row of p][c] e_c mod W."""
    red, pivots = rref(sparse(w.rows), w.n)
    nonpivots = [j for j in range(w.n) if j not in pivots]
    coset = []
    for j in range(w.n):
        if j in pivots:
            row = red[pivots.index(j)]
            coset.append({s: -row[c] for s, c in enumerate(nonpivots) if c in row})
        else:
            coset.append({nonpivots.index(j): ONE})
    return nonpivots, coset


def test_loop_classes_match_rref_reference():
    rng = random.Random(2)
    cases = [SubspaceW.zero(1), SubspaceW(1, [[1]]), SubspaceW(2, [[1, 1]]),
             SubspaceW(2, [[1, -2]]), SubspaceW(2, [[rat(1, 2), rat(-2, 3)]]),
             SubspaceW(3, [[1, 2, 0], [0, 1, 3]]),
             SubspaceW(4, [[1, rat(1, 2), 0, 3], [0, 0, 1, rat(-2, 3)]]),
             SubspaceW(3, [[0, 0, 1], [0, 2, 5]])]
    cases += [random_w(n, g, rng) for n in (1, 2, 3) for g in range(n + 1)]
    for w in cases:
        E = build_ew(w)
        nonpivots, coset = _loop_classes_reference(w)
        assert E.loop_columns == nonpivots
        assert [list(v.items()) for v in E.coset_coords] == \
            [list(v.items()) for v in coset]


def test_dimension_and_grading_grid():
    rng = random.Random(2)
    for n in (1, 2, 3):
        for g in range(0, n + 1):
            w = random_w(n, g, rng)
            E = build_ew(w)
            assert E.dim == 4 * n + g + 1
            assert E.graded_dims() == {0: 2 * n + 1, 1: 2 * n + g}
            assert all(E.mul(E.mul_basis(a, b), {c: ONE})
                       == E.mul({a: ONE}, E.mul_basis(b, c))
                       for a in range(E.dim) for b in range(E.dim)
                       for c in range(E.dim))


def test_triple_radical_products_vanish():
    E = build_ew(SubspaceW(3, [[1, 2, 3], [0, 1, 1]]))
    for a in E.radical:
        for b in E.radical:
            ab = E.mul_basis(a, b)
            for c in E.radical:
                assert E.mul({k: v for k, v in ab.items()}, {c: ONE}) == {}


def _table_scan(E):
    """The structure constants by a scan of every basis pair (k, m) under
    the quiver relations, in (k, m) order: idempotents are units,
    A_i B_i = l_i, B_i A_i is the class of e_i in Q^n/W (from the rref
    reference), and every other product of radical elements is zero."""
    _, coset = _loop_classes_reference(E.w)
    table = {}
    for k in range(E.dim):
        for m in range(E.dim):
            if E.tgt[k] != E.src[m]:
                continue
            if k in E.e_idx:
                prod = {m: ONE}
            elif m in E.e_idx:
                prod = {k: ONE}
            elif k in E.a_idx and m == E.b_idx[E.a_idx.index(k)]:
                prod = {E.l_idx[E.a_idx.index(k)]: ONE}
            elif k in E.b_idx and m == E.a_idx[E.b_idx.index(k)]:
                prod = {E.w_idx[s]: c for s, c in coset[E.b_idx.index(k)].items()}
            else:
                prod = {}
            if prod:
                table[(k, m)] = prod
    return table


def _items(table):
    return [(km, list(prod.items())) for km, prod in table.items()]


LOOKUP_ALGEBRAS = (SubspaceW.zero(1), SubspaceW(2, [[1, 1]]),
                   SubspaceW(2, [["1/2", "-2/3"]]),
                   SubspaceW(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), SubspaceW.zero(2))


def test_table_matches_the_relation_scan():
    rng = random.Random(22)
    cases = list(LOOKUP_ALGEBRAS) + [
        SubspaceW(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])]
    cases += [random_w(n, g, rng) for n in (1, 2, 3, 4) for g in range(n + 1)]
    denominators = set()
    for w in cases:
        E = build_ew(w)
        want = _table_scan(E)
        # same items in the same key order, and in the same value order
        assert _items(E.table) == _items(want), w.rows
        D = E.denominator
        assert _items(E.int_table) == \
            [(km, [(z, int(D * c)) for z, c in prod]) for km, prod in _items(want)]
        assert all(type(c) is int for prod in E.int_table.values() for c in prod.values())
        denominators.add(D)
    assert max(denominators) > 1


def test_lookup_tables_match_a_scan():
    algebras = [build_ew(w) for w in LOOKUP_ALGEBRAS]
    for E in algebras:
        for u in range(E.n + 1):
            for v in range(E.n + 1):
                for d in (-1, 0, 1, 2):
                    want = [k for k in range(E.dim)
                            if E.src[k] == u and E.tgt[k] == v and E.deg[k] == d]
                    assert list(E.hom_basis(u, v, d)) == want, (E, u, v, d)
        # the neighbour lists hold the int constants, D times the table's
        D = E.denominator
        ints = {km: {z: int(D * c) for z, c in prod.items()}
                for km, prod in E.table.items()}
        for k in range(E.dim):
            assert E.right_products[k] == [(m, ints[(k, m)]) for m in range(E.dim)
                                           if (k, m) in ints]
            assert E.left_products[k] == [(m, ints[(m, k)]) for m in range(E.dim)
                                          if (m, k) in ints]
    # what a caller gets back cannot change the table
    E = algebras[1]
    want = list(E.hom_basis(0, 0, 1))
    assert want == E.w_idx
    for mutate in (lambda xs: xs.append(0), lambda xs: xs.__setitem__(0, 0),
                   lambda xs: xs.clear()):
        try:
            mutate(E.hom_basis(0, 0, 1))
        except (AttributeError, TypeError):
            pass
    assert list(E.hom_basis(0, 0, 1)) == want


# -- path-enumeration oracle ---------------------------------------------------


def enumerate_paths(n, max_len):
    """Paths of the star quiver as (source, target, word) with words over
    arrows ('A', i) : p_i -> O and ('B', i) : O -> p_i, left to right."""
    paths = [(v, v, ()) for v in range(n + 1)]
    frontier = list(paths)
    for _ in range(max_len):
        new = []
        for (s, t, w) in frontier:
            for i in range(1, n + 1):
                if t == i:  # can append A_i : p_i -> O
                    new.append((s, 0, w + (("A", i),)))
                if t == 0:
                    new.append((s, i, w + (("B", i),)))
        paths.extend(new)
        frontier = new
    return paths


def test_structure_constants_against_path_oracle():
    rng = random.Random(8)
    for n, g in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        w = random_w(n, g, rng)
        E = build_ew(w)

        def image_of_word(src, word):
            vec = {E.e_idx[src]: ONE}
            for (kind, i) in word:
                gen = E.a_idx[i - 1] if kind == "A" else E.b_idx[i - 1]
                vec = E.mul(vec, {gen: ONE})
            return vec

        paths = enumerate_paths(n, 4)
        # relation generators must die in E
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    assert image_of_word(i, (("A", i), ("B", j))) == {}
            assert image_of_word(i, (("A", i), ("B", i), ("A", i))) == {}
            assert image_of_word(0, (("B", i), ("A", i), ("B", i))) == {}
        for row in w.rows:
            vec = {}
            for i in range(1, n + 1):
                x = row[i - 1]
                if x:
                    img = image_of_word(0, (("B", i), ("A", i)))
                    for k, c in img.items():
                        s = vec.get(k, rat(0)) + x * c
                        if s:
                            vec[k] = s
                        else:
                            del vec[k]
            assert vec == {}
        # multiplicativity: image(w1 . w2) = image(w1) * image(w2)
        for (s1, t1, w1) in paths:
            for (s2, t2, w2) in paths:
                if len(w1) + len(w2) > 4 or t1 != s2:
                    continue
                lhs = image_of_word(s1, w1 + w2)
                rhs = E.mul(image_of_word(s1, w1), image_of_word(s2, w2))
                assert lhs == rhs
        # dimension: paths of length <= 2 modulo the degree-2 relation span
        short = [p for p in paths if len(p[2]) <= 2]
        index = {p: k for k, p in enumerate(short)}
        rel_cols = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    rel_cols.append({index[(i, j, (("A", i), ("B", j)))]: ONE})
        for row in w.rows:
            col = {}
            for i in range(1, n + 1):
                x = row[i - 1]
                if x:
                    col[index[(0, 0, (("B", i), ("A", i)))]] = x
            rel_cols.append(col)
        assert E.dim == len(short) - rank_of_columns(rel_cols)


# -- torus rescalings ----------------------------------------------------------


def _is_identity(source, target, images):
    """True iff a map with these images is the identity of one algebra."""
    return (source is target or source.labels == target.labels) and \
        all(img == {k: ONE} for k, img in enumerate(images))


def test_rescale_identity():
    E = build_ew(SubspaceW(2, [[1, 1]]))
    m = gm_rescale(E, [1, 1])
    assert _is_identity(m.source, m.target, m.images)
    assert m.intertwines()


def test_rescale_two_point_example():
    E = build_ew(SubspaceW(2, [[1, 1]]))
    m = gm_rescale(E, [2, 1])
    # componentwise rescaling of W = span(e1+e2) gives span(2 e1 + e2)
    assert rref(sparse(m.target.w.rows), 2)[0] == [{0: rat(1), 1: rat(1, 2)}]
    assert m.intertwines()


def test_rescale_composition_law():
    rng = random.Random(21)
    E = build_ew(random_w(3, 1, rng))
    lam = [rat(2), rat(-1, 2), rat(3)]
    mu = [rat(1, 3), rat(5), rat(-1)]
    first = gm_rescale(E, mu)
    second = gm_rescale(first.target, lam)
    combined = gm_rescale(E, [l * m for l, m in zip(lam, mu)])
    both = [second.apply(img) for img in first.images]
    assert combined.target.w.rows == second.target.w.rows
    assert [sorted(v.items()) for v in combined.images] == \
        [sorted(v.items()) for v in both]


def test_rescale_minus_one_involution():
    E = build_ew(SubspaceW(2, [[1, -2]]))
    m = gm_rescale(E, [-1, -1])
    back = gm_rescale(m.target, [-1, -1])
    assert back.target.w.rows == E.w.rows
    assert _is_identity(m.source, back.target, [back.apply(img) for img in m.images])


def test_rescale_rejects_zero():
    E = build_ew(SubspaceW.zero(1))
    with pytest.raises(ValueError):
        gm_rescale(E, [0])


def test_json_dump():
    E = build_ew(SubspaceW(2, [[1, 1]]))
    j = E.to_json()
    assert j["n"] == 2 and j["g"] == 1
    assert set(j["basis"]) == set(E.labels)
    assert j["structure_constants"]["B1.A1"] == {"w1": "-1"}
