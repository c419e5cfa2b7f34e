"""Exact linear algebra: examples and randomized exact properties."""

import copy
import math
import random
from fractions import Fraction

from hypothesis import example, given, strategies as st

from curvealg import linalg
from curvealg.linalg import (Echelon, ONE, accum, kernel_basis,
                             rank_of_columns, rat, rat_str, solve, vec_addmul)


def sparse(dense):
    """Sparse vectors from dense lists of rationals."""
    return [{j: rat(c) for j, c in enumerate(v) if rat(c)} for v in dense]


def M(rows):
    """The sparse columns of the matrix with these dense rows."""
    return sparse(zip(*rows))


def identity(n):
    return [{i: ONE} for i in range(n)]


def transpose(columns):
    """The sparse rows of the matrix with these sparse columns, up to its
    last nonzero row."""
    rows = []
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows += [{} for _ in range(i + 1 - len(rows))]
            rows[i][j] = c
    return rows


def apply(columns, v):
    """The matrix with these sparse columns times the sparse vector v."""
    out = {}
    for j, c in v.items():
        vec_addmul(out, c, columns[j])
    return out


# -- references: the textbook reduced row echelon form and what reads it ---------
#
# The package's one Fraction elimination is Echelon; these are the independent
# references that its answers are checked against.


def rref(rows, ncols):
    """Reduced row echelon form of the matrix with these sparse rows and
    ncols columns.  Returns (its nonzero rows, pivot column list).

    The RREF is unique, hence deterministic regardless of pivot choices.
    """
    work = [dict(row) for row in rows]
    pivots = []
    next_row = 0
    for j in range(ncols):
        sel = None
        for i in range(next_row, len(work)):
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
        for i in range(len(work)):
            if i != next_row and work[i].get(j):
                vec_addmul(work[i], -work[i][j], prow)
        pivots.append(j)
        next_row += 1
    return work[:next_row], pivots


def image_basis(columns):
    """Basis of the column span: the original columns at rref pivot indices."""
    _, pivots = rref(transpose(columns), len(columns))
    return [columns[j] for j in pivots]


def kernel_basis_reference(columns):
    """One null vector per free column of the rref, in increasing column
    order, with the free coordinate 1."""
    r, pivots = rref(transpose(columns), len(columns))
    basis = []
    for j in range(len(columns)):
        if j in pivots:
            continue
        v = {j: ONE}
        for row, pj in zip(r, pivots):
            c = row.get(j)
            if c:
                v[pj] = -c
        basis.append(v)
    return basis


def solve_reference(columns, b):
    """rref of [columns | b]: None if b's column is a pivot, else the
    solution with free variables zero, keyed in pivot order."""
    n = len(columns)
    r, pivots = rref(transpose(columns + [b]), n + 1)
    if pivots and pivots[-1] == n:
        return None
    x = {}
    for row, j in zip(r, pivots):
        c = row.get(n)
        if c:
            x[j] = c
    return x


def canonical_complement(basis, ambient_dim):
    """Basis of the span of the standard basis vectors at the non-pivot
    columns of rref(basis-as-rows), basis independent in Q^ambient_dim: the
    reference for the pivot-rule complements that ainfinity.complement_data
    reads off the complex's Echelon of delta.

    Depends only on the span of basis, not on basis itself, and satisfies
    span + complement = ambient with zero intersection.
    """
    _, pivots = rref(basis, ambient_dim)
    pivset = set(pivots)
    return [{j: ONE} for j in range(ambient_dim) if j not in pivset]


def test_rref_identity():
    r, piv = rref(identity(3), 3)
    assert r == identity(3)
    assert piv == [0, 1, 2]


def test_rref_zero():
    r, piv = rref([{}, {}], 2)
    assert r == []
    assert piv == []


def test_rref_hand_elimination():
    # [[2,4],[1,2]] -> [[1,2],[0,0]] by hand
    r, piv = rref(sparse([[2, 4], [1, 2]]), 2)
    assert r == sparse([[1, 2]])
    assert piv == [0]


def test_rref_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        rows = [[rat(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                 for _ in range(rng.randint(1, 5))]]
        cols = len(rows[0])
        for _ in range(rng.randint(0, 4)):
            rows.append([rat(rng.randint(-4, 4)) for _ in range(cols)])
        r, piv = rref(sparse(rows), cols)
        r2, piv2 = rref(r, cols)
        assert r == r2 and piv == piv2


def test_kernel_examples():
    k = kernel_basis(M([[1, 1]]))
    # deterministic presentation: the free coordinate is set to 1
    assert len(k) == 1 and k[0] == {0: -ONE, 1: ONE}
    assert Echelon(k).contains({0: ONE, 1: -ONE})  # spans (1, -1)
    assert len(kernel_basis(identity(4))) == 0
    assert len(kernel_basis(M([[1, 2, 3], [2, 4, 6]]))) == 2


def test_image_examples():
    assert len(image_basis([{}, {}, {}])) == 0
    full = image_basis(identity(3))
    assert len(full) == 3
    im = image_basis(M([[1, 1], [1, 1]]))
    assert len(im) == 1 and im[0] == {0: ONE, 1: ONE}


def test_complement_examples():
    c = canonical_complement([{0: ONE}, {1: ONE}], 3)
    assert c == [{2: ONE}]
    assert len(canonical_complement([], 2)) == 2
    c2 = canonical_complement([{0: ONE, 1: ONE}], 2)
    assert c2 == [{1: ONE}]  # pivot at column 0


def test_solve_examples():
    b = {0: rat(3), 2: rat(-1)}
    assert solve(Echelon(identity(3)), b) == b
    assert solve(Echelon([{}, {}]), {0: ONE}) is None
    assert solve(Echelon(M([[1, 2], [2, 4]])), {0: ONE}) is None  # inconsistent
    assert solve(Echelon(M([[1, 1]])), {0: rat(3)}) == {0: rat(3)}  # free var set to 0


def test_rank_nullity_random():
    rng = random.Random(5)
    for _ in range(40):
        rcount = rng.randint(1, 6)
        ccount = rng.randint(1, 6)
        rows = [[rat(rng.randint(-3, 3)) if rng.random() < 0.6 else 0
                 for _ in range(ccount)] for _ in range(rcount)]
        cols = M(rows)
        rk = rank_of_columns(cols)
        assert rk + len(kernel_basis(cols)) == ccount
        assert len(image_basis(cols)) == rk
        assert rk == len(rref(sparse(rows), ccount)[1])


def test_complement_direct_sum_and_invariance():
    rng = random.Random(17)
    for _ in range(30):
        ambient = rng.randint(1, 6)
        dim = rng.randint(0, ambient)
        vectors = []
        while len(vectors) < dim:
            v = {j: rat(rng.randint(-3, 3)) for j in range(ambient)
                 if rng.random() < 0.7}
            v = {j: c for j, c in v.items() if c}
            if rank_of_columns([dict(x) for x in vectors] + [dict(v)]) > len(vectors):
                vectors.append(v)
        c = canonical_complement(vectors, ambient)
        assert len(vectors) + len(c) == ambient
        joint = [dict(v) for v in vectors] + [dict(v) for v in c]
        assert rank_of_columns(joint) == ambient
        # invariance under a random invertible recombination of the basis
        if vectors:
            recomb = []
            for i in range(len(vectors)):
                v = dict(vectors[i])
                for k in range(len(vectors)):
                    if k != i and rng.random() < 0.5:
                        for j, x in vectors[k].items():
                            cur = v.get(j, rat(0)) + rat(rng.randint(1, 2)) * x
                            if cur:
                                v[j] = cur
                            else:
                                v.pop(j, None)
                recomb.append(v)
            if rank_of_columns([dict(v) for v in recomb]) == len(vectors):
                c2 = canonical_complement(recomb, ambient)
                assert c2 == c


def test_serialization_roundtrip():
    assert [rat_str(rat(x)) for x in ("1/2", -3, 0, "7/3")] == ["1/2", "-3", "0", "7/3"]
    assert rat_str(rat(-6, 4)) == "-3/2"
    assert rat("3") == rat(3) and rat("-7/2") == rat(-7, 2)


# -- the sparse accumulation kernel against plain Fraction sums -------------------


def _accum_reference(u, i, c):
    """u[i] += c by summing Fractions from zero and dropping a zero sum."""
    s = u.get(i, Fraction(0)) + c
    if s:
        u[i] = s
    else:
        u.pop(i, None)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _accumulations(draw):
    """(key, c) steps over few keys; some steps recur negated, interleaved,
    so that sums cancel and keys are dropped and re-added."""
    steps = draw(st.lists(st.tuples(st.integers(0, 5), _small), max_size=20))
    undo = draw(st.lists(st.sampled_from(steps), max_size=len(steps))) if steps else []
    return draw(st.permutations(steps + [(k, -c) for k, c in undo]))


def _assert_clean_and_equal(got, want):
    assert list(got.items()) == list(want.items())
    assert all(type(x) is Fraction and x for x in got.values())


@given(_accumulations())
def test_accum_matches_fraction_reference(steps):
    got, want = {}, {}
    for i, c in steps:
        before = list(got.items())
        accum(got, i, c)
        _accum_reference(want, i, c)
        _assert_clean_and_equal(got, want)
        if not c:
            assert list(got.items()) == before


@given(_accumulations(), _small, _accumulations())
def test_vec_addmul_matches_fraction_reference(u_steps, c, v_steps):
    u, v = {}, {}
    for i, x in u_steps:
        _accum_reference(u, i, x)
    for i, x in v_steps:
        _accum_reference(v, i, x)
    # v also holds -u / c where it can, so that whole entries cancel
    if c:
        for i, x in list(u.items())[::2]:
            v[i] = -x / c
    want = dict(u)
    for i, x in v.items():
        _accum_reference(want, i, c * x)
    v_before = dict(v)
    got = vec_addmul(u, c, v)
    assert got is u
    assert v == v_before
    _assert_clean_and_equal(got, want)


# -- fraction-free rank against rref, on inputs built to stress it ----------------


def assert_rank_matches_rref(cols):
    """rank_of_columns agrees with rref and leaves its input untouched."""
    before = copy.deepcopy(cols)
    rk = rank_of_columns(cols)
    assert [list(c.items()) for c in cols] == [list(c.items()) for c in before]
    assert rk == len(rref(transpose(cols), len(cols))[1])
    return rk


def integer_forms(cols):
    """cols, each scaled by the lcm of its denominators, three ways: with
    Fraction values, with Python ints, and alternating int and Fraction
    within and across columns."""
    scaled = [{i: c * math.lcm(*[x.denominator for x in col.values()])
               for i, c in col.items()} for col in cols]
    ints = [{i: int(c) for i, c in col.items()} for col in scaled]
    mixed = [{i: int(c) if (j + k) % 2 else c for j, (i, c) in enumerate(col.items())}
             for k, col in enumerate(scaled)]
    return scaled, ints, mixed


def combination(cols, coeffs):
    out = {}
    for c, col in zip(coeffs, cols):
        vec_addmul(out, c, col)
    return out


NROWS = 7
# denominators up to 10^6, including the largest primes below it, so the lcm
# of a column can reach about 10^42
_denominators = st.one_of(st.integers(1, 10 ** 6),
                          st.sampled_from([999983, 999979, 999961, 999959]))
_entries = st.builds(rat, st.integers(-10 ** 6, 10 ** 6).filter(bool),
                     _denominators)
_columns = st.dictionaries(st.integers(0, NROWS - 1), _entries, min_size=1,
                           max_size=4)
_coeffs = st.lists(st.builds(rat, st.integers(-9, 9), st.integers(1, 9)),
                   min_size=1, max_size=6)


@given(st.lists(_columns, min_size=1, max_size=6), st.lists(_coeffs, max_size=4))
def test_rank_of_sparse_rational_columns_matches_rref(base, mixes):
    # appended rational combinations of the drawn columns make the rank
    # drop and make entries cancel during elimination
    cols = base + [combination(base, c) for c in mixes]
    cols = [c for c in cols if c]
    rk = assert_rank_matches_rref(cols)
    assert rk <= len(base)
    # int columns go in as they are, and a mix of int and Fraction too
    assert all(assert_rank_matches_rref(form) == rk for form in integer_forms(cols))


def test_rank_of_hilbert_matrix_and_dependent_column():
    n = 8
    hilbert = [{i: rat(1, i + j + 1) for i in range(n)} for j in range(n)]
    assert assert_rank_matches_rref(hilbert) == n
    coeffs = [rat(3, 7), rat(-5, 11), rat(1, 13), rat(2), rat(-17, 19),
              rat(1, 999983), rat(-4, 3), rat(6, 5)]
    extra = combination(hilbert, coeffs)
    assert len(extra) == n
    assert assert_rank_matches_rref(hilbert + [extra]) == n
    # the dependent column first, so it is the one eliminated to nothing
    assert assert_rank_matches_rref([extra] + hilbert) == n


def test_rank_with_columns_cancelling_mid_elimination():
    # c0 pivots first and leaves c1 and c2 proportional; c1 then clears c2
    cols = [{0: rat(1)}, {0: rat(2), 1: rat(3)}, {0: rat(1, 2), 1: rat(3, 4)}]
    assert assert_rank_matches_rref(cols) == 2
    # a rank-deficient block on rows 0..3 next to a full-rank block on rows
    # 5 and 6; no column meets both
    u = {0: rat(2, 3), 1: rat(-1), 2: rat(5, 7)}
    v = {1: rat(4), 2: rat(-1, 2), 3: rat(9)}
    dependent = [combination([u, v], [rat(a), rat(b, 3)])
                 for a, b in ((1, 1), (-2, 5), (3, -7), (1, 0))]
    cols = [u, v] + dependent + [{5: rat(1), 6: rat(-1)}, {6: rat(2)}]
    assert assert_rank_matches_rref(cols) == 4
    rng = random.Random(23)
    for _ in range(40):
        base = [{i: rat(rng.randint(-5, 5) or 1, rng.randint(1, 6))
                 for i in rng.sample(range(8), rng.randint(1, 4))}
                for _ in range(rng.randint(1, 4))]
        mixes = [combination(base, [rat(rng.randint(-3, 3), rng.randint(1, 4))
                                    for _ in base])
                 for _ in range(rng.randint(1, 5))]
        cols = [c for c in mixes + base if c]
        assert assert_rank_matches_rref(cols) <= len(base)


def assert_pivot_rows_project_injectively(cols):
    """The pivot rows that rank_of_columns reports are as many as the rref
    rank, the input is untouched, and the span projects injectively onto
    the pivot rows: the columns cut down to those rows keep the rank."""
    before = copy.deepcopy(cols)
    rows = {"already there"}
    rk = rank_of_columns(cols, rows)
    assert [list(c.items()) for c in cols] == [list(c.items()) for c in before]
    rows.remove("already there")
    assert len(rows) == rk == len(rref(transpose(cols), len(cols))[1])
    assert rows <= {i for c in cols for i in c}
    cut = [{i: c for i, c in col.items() if i in rows} for col in cols]
    assert len(rref(transpose(cut), len(cut))[1]) == rk
    return rows


@given(st.lists(_columns, min_size=1, max_size=6), st.lists(_coeffs, max_size=4))
@example([{0: rat(1)}, {0: rat(2), 1: rat(3)}, {0: rat(1, 2), 1: rat(3, 4)}], [])
@example([{0: rat(2, 3), 1: rat(-1), 2: rat(5, 7)}, {1: rat(4), 2: rat(-1, 2), 3: rat(9)}],
         [[rat(1), rat(1, 3)], [rat(-2), rat(5, 3)], [rat(3), rat(-7, 3)], [rat(1)]])
@example([{0: ONE, 1: rat(2)}, {1: ONE}], [[rat(-2), rat(4)]])
def test_pivot_rows_give_rank_and_an_injective_projection(base, mixes):
    # the appended combinations cancel part-way through the elimination,
    # as in test_rank_with_columns_cancelling_mid_elimination, whose
    # inputs are the first two examples
    cols = [c for c in base + [combination(base, c) for c in mixes] if c]
    rows = assert_pivot_rows_project_injectively(cols)
    assert len(rows) <= len(base)
    # scaling a column changes no pivot decision, whatever type its
    # values have (the last example mixes Fraction(1) with ints)
    assert all(assert_pivot_rows_project_injectively(form) == rows
               for form in integer_forms(cols))


def test_rank_of_interleaved_blocks_is_the_sum_of_block_ranks():
    # two blocks on disjoint rows, their columns shuffled together, the
    # second rank deficient: the one elimination over all columns picks
    # in each block the pivot rows it picks on that block alone
    rng = random.Random(41)

    def column(rows):
        return {i: rat(rng.randint(-9, 9) or 1, rng.randint(1, 5))
                for i in rng.sample(rows, rng.randint(1, 4))}

    for _ in range(30):
        first = [column(range(6)) for _ in range(rng.randint(1, 6))]
        base = [column(range(10, 16)) for _ in range(2)]
        second = [c for c in base + [combination(base, [rat(rng.randint(1, 5)),
                                                        rat(-rng.randint(1, 5), 3)])
                                     for _ in range(3)] if c]
        cols = first + second
        rng.shuffle(cols)
        rows = assert_pivot_rows_project_injectively(cols)
        # each block alone, its columns in their order in cols
        first = [c for c in cols if min(c) < 10]
        second = [c for c in cols if min(c) >= 10]
        block_rows = [set(), set()]
        ranks = [rank_of_columns(b, r) for b, r in zip((first, second), block_rows)]
        assert ranks == [assert_rank_matches_rref(first), assert_rank_matches_rref(second)]
        assert ranks[1] < len(second)
        assert len(rows) == sum(ranks) and rows == block_rows[0] | block_rows[1]


def test_rank_with_a_dense_row_every_column_meets():
    # row 0 is in every column, so every column after the first is reduced
    # against the pivot column of row 0
    rng = random.Random(43)
    for ncols in (1, 2, 30, 150):
        cols = [{0: rat(rng.randint(1, 9))}
                | {i: rat(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                   for i in rng.sample(range(1, 40), rng.randint(0, 3))}
                for _ in range(ncols)]
        rows = assert_pivot_rows_project_injectively(cols)
        for form in integer_forms(cols):
            assert assert_pivot_rows_project_injectively(form) == rows
    # only the dense row: every column is a multiple of the first
    cols = [{0: rat(k, 7)} for k in range(1, 60)]
    assert assert_pivot_rows_project_injectively(cols) == {0}
    assert assert_pivot_rows_project_injectively([{0: k} for k in range(1, 60)]) == {0}


def test_rank_ignores_stored_zeros():
    # a stored zero could become the pivot entry: the first input ranked 3,
    # the second raised; neither path copies a zero
    for cols, rk in (([{3: rat(-2)}, {1: rat(0), 0: rat(-2)},
                       {3: rat(2), 0: rat(-2), 2: rat(0)}], 2),
                     ([{0: Fraction(0)}], 0)):
        assert assert_rank_matches_rref(cols) == rk
        rows = assert_pivot_rows_project_injectively(cols)
        assert len(rows) == rk
        for form in integer_forms(cols)[1:]:
            assert assert_rank_matches_rref(form) == rk
            assert assert_pivot_rows_project_injectively(form) == rows


def test_integer_column_tells_int_columns_by_the_type_of_their_sum():
    # an int column, even one whose sum cancels to 0, is read as it is; one
    # Fraction, integral or not, makes the sum a Fraction and the column is
    # scaled to coprime ints, as is an int column with a stored zero
    kept = [{0: 3, 4: -6, 9: 12}, {1: 5, 2: -5}, {0: 2 ** 90, 3: -(2 ** 90) - 1}]
    for col in kept:
        assert linalg._integer_column(col) is col
    scaled = [({0: 3, 4: Fraction(1, 2), 9: -2}, {0: 6, 4: 1, 9: -4}),
              ({0: Fraction(4), 1: Fraction(-6)}, {0: 2, 1: -3}),
              ({0: 2, 1: Fraction(4)}, {0: 1, 1: 2}),
              ({0: Fraction(1, 2), 1: Fraction(1, 2)}, {0: 1, 1: 1}),
              ({0: 4, 1: 0, 2: -6}, {0: 2, 2: -3})]
    for col, want in scaled:
        got = linalg._integer_column(col)
        assert got is not col and list(got.items()) == list(want.items())
        assert all(type(c) is int for c in got.values())
    # three of the five lie in rows 0 and 1; every rank is that of rref
    assert assert_rank_matches_rref([col for col, _ in scaled]) == 4
    assert assert_rank_matches_rref([{0: 2, 1: Fraction(4)}, {0: Fraction(1, 2), 1: 1},
                                     {0: -3, 1: -6}]) == 1
    assert assert_rank_matches_rref([{0: Fraction(4), 1: Fraction(-6)}, {0: -2, 1: 3},
                                     {0: 1, 1: 1}]) == 2
    assert assert_rank_matches_rref(kept + [{1: Fraction(1, 3), 2: Fraction(-1, 3)}]) == 3


def test_pivot_rows_of_no_columns_or_zero_columns_are_empty():
    for cols in ([], [{}, {}]):
        rows = set()
        assert rank_of_columns(cols, rows) == 0 and rows == set()


def test_rank_with_entries_beyond_2_to_the_80():
    rng = random.Random(31)
    big = 2 ** 80
    for _ in range(20):
        nrows = rng.randint(2, 6)
        base = [{i: rat(rng.randrange(big, big ** 2) * rng.choice((1, -1)),
                        rng.choice((1, rng.randrange(big, big ** 2))))
                 for i in rng.sample(range(nrows), rng.randint(1, nrows))}
                for _ in range(rng.randint(1, nrows))]
        mixes = [combination(base, [rat(rng.randrange(1, big), rng.randrange(1, big))
                                    for _ in base])
                 for _ in range(rng.randint(1, 3))]
        cols = [c for c in base + mixes if c]
        assert assert_rank_matches_rref(cols) <= len(base)
    # a Vandermonde matrix on nodes >= 2^80 has full rank
    nodes = [big + 3 ** k for k in range(5)]
    vander = [{i: rat(x) ** i for i in range(5)} for x in nodes]
    assert assert_rank_matches_rref(vander) == 5


# -- the column reduction on inputs built to stress its pivot rule ---------------


def recorded_reductions(monkeypatch):
    """Count the reduction steps of rank_of_columns: the returned list gets,
    per step, the largest absolute entry of the column just reduced."""
    sizes = []

    def step(u, c, v):
        vec_addmul(u, c, v)
        sizes.append(max(map(abs, u.values()), default=0))
        return u

    monkeypatch.setattr(linalg, "vec_addmul", step)
    return sizes


def pivot_chain(k, rng):
    """Columns P_j = {j: a_j, j + 1: b_j}, j < k, with random nonzero
    rationals: a column with least row 0 is reduced against each in turn."""
    return [{j: rat(rng.randint(2, 9) * rng.choice((1, -1)), rng.randint(1, 7)),
             j + 1: rat(rng.randint(1, 9), rng.randint(1, 7))} for j in range(k)]


def test_reduction_through_a_chain_of_pivots(monkeypatch):
    # a column with least row 0 is reduced against the pivot of row 0, and
    # each step uncovers the next row, which the next pivot owns.  {0: c}
    # ends at row k, which no pivot owns, and becomes its pivot column; a
    # combination c_0 P_0 + ... of the chain ends at zero, since after the
    # pivot of row j it is a multiple of sum_{i > j} c_i P_i
    rng = random.Random(47)
    sizes = recorded_reductions(monkeypatch)
    for k in (4, 5, 9):
        chain = pivot_chain(k, rng)
        pivots = list(chain)
        rng.shuffle(pivots)
        new = {0: rat(rng.randint(1, 9), rng.randint(1, 5))}
        dependent = combination(chain, [rat(rng.randint(1, 5) * rng.choice((1, -1)),
                                            rng.randint(1, 4)) for _ in chain])
        for last, rank in ((new, k + 1), (dependent, k)):
            for form in (pivots + [last], *integer_forms(pivots + [last])):
                sizes.clear()
                assert assert_pivot_rows_project_injectively(form) == set(range(rank))
                assert len(sizes) == k and bool(sizes[-1]) == (last is new)


def test_reduction_whose_entries_grow_beyond_2_to_the_80(monkeypatch):
    # each step multiplies the column by a pivot entry near 2^30 and leaves
    # +-1 at the next row, so no content divides out and the entry at the
    # shared row 50 grows to about 2^120 while every input entry stays
    # below 2^31
    sizes = recorded_reductions(monkeypatch)
    chain = [{j: 2 ** 30 + 2 * j + 1, j + 1: 1, 50: 1} for j in range(4)]
    cols = chain[::-1] + [{0: 1, 50: 1}]
    for form in (cols, *integer_forms(cols)):
        sizes.clear()
        assert assert_pivot_rows_project_injectively(form) == set(range(5))
        assert len(sizes) == 4 and max(sizes) > 2 ** 80
    assert assert_rank_matches_rref(cols + [combination(chain, [1, -1, 1, -1])]) == 5


def test_shuffled_triangular_columns_pivot_on_their_least_rows(monkeypatch):
    rng = random.Random(53)
    sizes = recorded_reductions(monkeypatch)
    for _ in range(20):
        n = rng.randint(1, 12)
        least = rng.sample(range(3 * n), n)
        tri = [{r: rat(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 5))}
               | {i: rat(rng.randint(-9, 9) or 1, rng.randint(1, 5))
                  for i in rng.sample(range(r + 1, r + 8), rng.randint(0, 3))}
               for r in least]
        # no two columns share a least row, so none is reduced
        for form in (tri, *integer_forms(tri)):
            sizes.clear()
            assert assert_pivot_rows_project_injectively(form) == set(least)
            assert sizes == []
        # with combinations of them shuffled in, each column beyond the rank
        # is reduced to zero, and the pivot rows are still the least rows of
        # the triangle
        mixed = [c for c in tri + [combination(tri, [rat(rng.randint(-4, 4), rng.randint(1, 3))
                                                     for _ in tri])
                                   for _ in range(rng.randint(1, 4))] if c]
        rng.shuffle(mixed)
        for form in (mixed, *integer_forms(mixed)):
            sizes.clear()
            assert assert_pivot_rows_project_injectively(form) == set(least)
            assert len(sizes) >= len(mixed) - n


# -- echelon membership against rank ---------------------------------------------------


@given(st.lists(_columns, min_size=1, max_size=6), st.lists(_coeffs, max_size=4),
       st.lists(_columns, max_size=4))
def test_echelon_add_and_contains_match_rank(base, mixes, probes):
    # add(v) is True exactly when v raises the rank of the columns added so
    # far, and contains(v) exactly when it does not
    cols = base + [combination(base, c) for c in mixes] + [{}]
    ech = Echelon()
    for k, col in enumerate(cols):
        before = copy.deepcopy(col)
        grows = rank_of_columns(cols[:k + 1]) > rank_of_columns(cols[:k])
        assert ech.contains(col) == (not grows)
        assert ech.add(col) == grows
        assert col == before
        assert len(ech) == rank_of_columns(cols[:k + 1])
    for v in probes + [combination(cols, [rat(k - 2, 3) for k in range(len(cols))])]:
        assert ech.contains(v) == (rank_of_columns(cols + [v]) == len(ech))


# -- Echelon against the rref references --------------------------------------------


@st.composite
def _vector_lists(draw):
    """Sparse rational vectors in a shuffled order: independent draws, their
    rational combinations (dependent), negated copies and near-negated
    copies that cancel all but one entry during elimination, and {}."""
    base = draw(st.lists(_columns, min_size=1, max_size=5))
    vectors = base + [combination(base, c)
                      for c in draw(st.lists(_coeffs, max_size=3))]
    u = draw(st.sampled_from(base))
    vectors.append({i: -c for i, c in u.items()})
    near = {i: -c for i, c in u.items()}
    accum(near, draw(st.integers(0, NROWS - 1)), draw(_entries))
    vectors += [near, {}]
    return draw(st.permutations(vectors))


def assert_primitive_rows(ech):
    """Each row (r, x, d) at pivot q holds ints with d > 0, r[q] = d and
    gcd 1: the guard on coefficient growth."""
    for q, (r, x, d) in ech.rows.items():
        assert type(d) is int and d > 0 and r[q] == d and min(r) == q
        assert all(type(c) is int for c in [*r.values(), *x.values()])
        assert math.gcd(*r.values(), *x.values()) == 1


def assert_echelon_matches_rref(vectors, probes):
    """Echelon(vectors), checked for primitive rows after every add, has
    the rref rows of the span (keys of any sortable kind, in sorted
    order) with exact coordinates on the vectors that grew the span, and
    splits each probe exactly, every value a Fraction."""
    ech = Echelon()
    for v in vectors:
        ech.add(v)
        assert_primitive_rows(ech)
    keys = sorted({i for v in vectors for i in v})
    pos = {i: n for n, i in enumerate(keys)}
    R, pivots = rref([{pos[i]: c for i, c in v.items()} for v in vectors], len(keys))
    assert [pos[q] for q in sorted(ech.rows)] == pivots
    assert ech.added == len(vectors)
    independent = {j for j in range(len(vectors))
                   if rank_of_columns(vectors[:j + 1]) > rank_of_columns(vectors[:j])}
    for q, Rq in zip(sorted(ech.rows), R):
        row, coords = ech.row(q)
        assert row == {keys[n]: c for n, c in Rq.items()} and min(row) == q
        assert set(coords) <= independent
        assert combination([vectors[j] for j in coords], coords.values()) == row
    # split writes v as kappa plus a combination of the added vectors, with
    # kappa zero at every pivot; contains agrees with kappa
    for v in probes + [combination(vectors, [rat(j + 1, 2) for j in range(len(vectors))])]:
        kappa, x = ech.split(v)
        assert not set(kappa) & set(ech.rows)
        assert all(type(c) is Fraction for c in [*kappa.values(), *x.values()])
        whole = combination([vectors[j] for j in x], x.values())
        for i, c in kappa.items():
            accum(whole, i, c)
        assert whole == v
        assert ech.contains(v) == (not kappa)
    return ech


@given(_vector_lists(), st.lists(_columns, max_size=3))
def test_echelon_rows_are_rref_of_span_with_exact_coordinates(vectors, probes):
    assert_echelon_matches_rref(vectors, probes)


def test_echelon_on_vandermonde_rows_with_nodes_beyond_2_to_the_80():
    # nodes (2^80 + 3^k)/p_k over distinct primes: the rows' d are large
    # and coprime, and every later vector meets every earlier row
    primes = [5, 7, 11, 13, 17]
    nodes = [rat(2 ** 80 + 3 ** k, p) for k, p in enumerate(primes)]
    vander = [{i: x ** i for i in range(5)} for x in nodes]
    for vectors in (vander, vander[::-1], [{i: -c for i, c in v.items()} for v in vander]):
        ech = assert_echelon_matches_rref(
            vectors[:4], [vectors[4], {4: ONE}, {0: rat(1, 3), 4: -nodes[0]}])
        assert len(ech) == 4 and not ech.contains({4: ONE})
        assert len(assert_echelon_matches_rref(vectors, [])) == 5


def test_echelon_with_negative_pivot_entries():
    # every pivot entry met is negative, so each new row flips its sign
    vectors = sparse([[-3, 2, 0, 1], [-6, 4, -5, 0], [0, -7, 1, rat(-1, 2)],
                      [0, 0, rat(-2, 9), -4], [-3, -5, 1, 0]])
    ech = assert_echelon_matches_rref(vectors, sparse([[-1, 0, 0, 0], [0, 0, 0, -5]]))
    assert len(ech) == 4
    assert_echelon_matches_rref([{0: rat(-2, 3)}, {0: rat(-4, 5), 1: rat(-1, 7)}], [])


def test_echelon_split_that_cancels_only_over_both_rows_denominators():
    # R_0 = e0 + e2/2 and R_1 = e1 + e2/3 have d = 2 and d = 3: v's last
    # entry 5/6 cancels only over their common denominator 6
    ech = assert_echelon_matches_rref(
        [{0: rat(2), 2: ONE}, {1: rat(3), 2: ONE}],
        [{0: ONE, 1: ONE, 2: rat(5, 6)}, {0: ONE, 1: ONE, 2: ONE}])
    assert [ech.rows[q][2] for q in (0, 1)] == [2, 3]
    assert ech.split({0: ONE, 1: ONE, 2: rat(5, 6)}) == ({}, {0: rat(1, 2), 1: rat(1, 3)})
    assert ech.split({0: ONE, 1: ONE, 2: ONE}) == ({2: rat(1, 6)}, {0: rat(1, 2), 1: rat(1, 3)})


def test_echelon_with_tuple_keys():
    # verify_basis keys its vectors by (branch, exponent) pairs
    vectors = [{(0, 2): rat(3), (1, 0): rat(-1, 2)}, {(0, 2): rat(-6), (0, 5): ONE},
               {(0, 5): rat(2, 3), (1, 0): rat(4)}, {(1, 0): rat(-7, 5), (1, 3): ONE},
               {(0, 2): ONE, (1, 3): rat(1, 9)}]
    ech = assert_echelon_matches_rref(vectors, [{(0, 0): ONE, (1, 3): rat(2)}])
    assert sorted(ech.rows) == [(0, 2), (0, 5), (1, 0), (1, 3)]


def assert_adds_keep_stored_rows(vectors):
    """Echelon(vectors), checked after every add: the add stores at most
    one new row and leaves every earlier rows[q] the same object with the
    same entries."""
    ech = Echelon()
    for v in vectors:
        before = dict(ech.rows)
        copies = copy.deepcopy(before)
        grew = ech.add(v)
        assert len(ech.rows) == len(before) + grew
        for q, stored in before.items():
            assert ech.rows[q] is stored and stored == copies[q]
    return ech


@given(_vector_lists())
def test_no_add_replaces_or_mutates_a_stored_row(vectors):
    assert_adds_keep_stored_rows(vectors)


def test_no_add_rewrites_a_stored_row_of_vandermonde_vectors():
    # every later vector meets every earlier row, and its new pivot is
    # held by the rows before it
    primes = [5, 7, 11, 13, 17]
    nodes = [rat(2 ** 80 + 3 ** k, p) for k, p in enumerate(primes)]
    vander = [{i: x ** i for i in range(5)} for x in nodes]
    for vectors in (vander, vander[::-1]):
        ech = assert_adds_keep_stored_rows(vectors)
        assert len(ech) == 5
        assert any(len(r) > 1 for r, _, _ in ech.rows.values())


def test_echelon_on_a_chain_that_cascades_through_every_row():
    # v_k = e_k + c_k e_{k+1} with c_k = -(k+2)/(k+1): added in increasing
    # pivot order the stored rows are the chain itself, so splitting e_0
    # clears every pivot in turn; added in reverse pivot order, each add
    # clears every row before it.  Both match the rref references, and
    # e_0 has a coordinate on every vector.
    n = 40
    chain = [{k: ONE, k + 1: rat(-(k + 2), k + 1)} for k in range(n)]
    probes = [{0: ONE}, {0: rat(3, 7), n: ONE}, {n: ONE}, {n - 1: rat(-2)}]
    for vectors in (chain, chain[::-1]):
        ech = assert_echelon_matches_rref(vectors, probes)
        assert len(ech) == n and ech.contains({0: ONE, n: rat(-(n + 1))})
        kappa, x = ech.split({0: ONE})
        assert list(kappa) == [n] and len(x) == n
    triangular = Echelon(chain)
    assert [r for r, _, _ in triangular.rows.values()] == \
        [{k: k + 1, k + 1: -(k + 2)} for k in range(n)]


def test_kernel_basis_reduces_each_column_once(monkeypatch):
    reduced = []
    reduce = Echelon.reduce

    def counting(self, v):
        reduced.append(v)
        return reduce(self, v)

    monkeypatch.setattr(Echelon, "reduce", counting)
    cols = M([[1, 2, 0, 3, 1], [2, 4, 1, 6, 0], [0, 0, 1, 0, -2]])
    ker = kernel_basis(cols)
    assert reduced == cols
    assert [list(v.items()) for v in ker] == \
        [list(v.items()) for v in kernel_basis_reference(cols)]
    assert len(ker) == 3


@given(_vector_lists(), _columns, _coeffs)
@example([], {0: ONE}, [ONE])
@example([{}, {}, {}], {0: ONE}, [ONE])
def test_kernel_basis_and_solve_match_rref_references(vectors, b, coeffs):
    assert [list(v.items()) for v in kernel_basis(vectors)] == \
        [list(v.items()) for v in kernel_basis_reference(vectors)]
    # a consistent right-hand side, one that may not be, and one that is
    # not: no column reaches row NROWS
    ech = Echelon(vectors)
    for rhs in (combination(vectors, coeffs), b, {}, {NROWS: ONE}):
        got, want = solve(ech, rhs), solve_reference(vectors, rhs)
        assert (got is None) == (want is None)
        if want is not None:
            assert list(got.items()) == list(want.items())
            assert apply(vectors, got) == rhs
    assert solve(ech, {NROWS: ONE}) is None
