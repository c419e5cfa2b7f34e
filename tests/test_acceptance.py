"""Acceptance suite: one test per criterion, each printing a PASS line.

Every assertion is exact (tolerance 0); expected values come from the
quoted formulas or from the independent oracles built in the package and
in the unit tests.  Run with `pytest -s tests/test_acceptance.py` to see
the per-criterion lines.
"""

import itertools
import random

from curvealg.linalg import rat
from curvealg.quiver import SubspaceW, build_ew
from curvealg.hochschild import (Cochain, differential_apply, gerstenhaber,
                                 reduced_complex, unnormalized_complex)
from curvealg.ainfinity import (AnStructure, extension_residual, gauge_act,
                                gauge_compose, is_flat, normalize,
                                random_gauge, random_structure)
from curvealg.curves import (SpecialCurveData, branch_model, glue,
                             krichever_window, verify_basis)
from curvealg.genus_one import (HilbertSpec, U1Chart, hilbert_A, transition,
                                transition_symbolic, weighted_proj_compare)
from test_hochschild import cochain_sum
from test_linalg import apply

_algebras = {}


def algebra(key, w):
    if key not in _algebras:
        _algebras[key] = build_ew(w)
    return _algebras[key]


def random_w(n, g, rng):
    if g == n:
        return SubspaceW.zero(n)
    if g == 0:
        return SubspaceW(n, [[int(i == j) for j in range(n)] for i in range(n)])
    while True:
        rows = [[rat(rng.randint(-3, 3), rng.choice([1, 1, 2]))
                 for _ in range(n)] for _ in range(n - g)]
        try:
            return SubspaceW(n, rows)
        except ValueError:
            continue


def random_curve(n, S, rng):
    comp = [j for j in range(1, n + 1) if j not in set(S)]
    a = {(i, j): rat(rng.randint(-3, 3), rng.choice([1, 1, 2]))
         for i in S for j in comp}
    return SpecialCurveData(n, S, a)


def test_criterion_01_hh_vanishing():
    """HH^0 and HH^1 vanish in internal degrees -1..-6 across the grid."""
    rng = random.Random(101)
    grid = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (2, 0), (3, 0)]
    checked = 0
    for n, g in grid:
        for _ in range(3):
            E = build_ew(random_w(n, g, rng))
            cx = reduced_complex(E)
            for j in range(1, 7):
                assert cx.hh_dim(0, -j) == 0, (n, g, j)
                assert cx.hh_dim(1, -j) == 0, (n, g, j)
                checked += 2
    print("\n[PASS] criterion 1: HH^0/HH^1 vanish in degrees -1..-6 "
          "(%d cells over %d curves)" % (checked, 3 * len(grid)))


def test_criterion_02_tangent_dimensions():
    """Sum of negative HH^2 plus g(n-g) equals 2 for (1,1) and 4 for (2,1)."""
    E11 = algebra("11", SubspaceW.zero(1))
    cx = reduced_complex(E11)
    total = sum(cx.hh_dim(2, t) for t in range(-8, 0))
    assert cx.hh_dim(2, -7) == cx.hh_dim(2, -8) == 0  # stabilized in range
    assert total + 1 * (1 - 1) == 2
    rng = random.Random(102)
    tested = []
    ws = [SubspaceW(2, [[1, 1]]), SubspaceW(2, [[1, 0]]), SubspaceW(2, [[0, 1]])]
    ws += [random_w(2, 1, rng) for _ in range(3)]
    for w in ws:
        E = build_ew(w)
        cx21 = reduced_complex(E)
        total21 = sum(cx21.hh_dim(2, t) for t in range(-8, 0))
        assert cx21.hh_dim(2, -7) == cx21.hh_dim(2, -8) == 0
        assert total21 + 1 * (2 - 1) == 4, w.rows
        tested.append(total21)
    print("\n[PASS] criterion 2: tangent dimensions 2 at (1,1) and 4 at (2,1) "
          "for %d subspaces" % len(ws))


def test_criterion_02_tangent_dimensions_beyond_n_2():
    """Sum of negative HH^2 plus g(n-g) equals 3g - 3 + 2n for (2,0), (3,0),
    (3,1) and (3,2).

    The sum runs over t in [-7, -1] only.  That this window holds every
    nonzero negative HH^2 is an assumption, not a result: the cochain
    counts of the small Anick-type complex suggest HH^2_t = 0 for t <= -7,
    and the cells at t = -7 are checked to be zero, but nothing here
    proves that no class returns further down."""
    cases = [(SubspaceW(2, [[1, 0], [0, 1]]), 1),
             (SubspaceW(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3),
             (SubspaceW(3, [[1, 0, 2], [0, 1, 3]]), 6),
             (SubspaceW(3, [[1, 2, 3]]), 9)]
    for w, want in cases:
        n, g = w.n, w.g
        assert want == 3 * g - 3 + 2 * n
        cx = reduced_complex(build_ew(w))
        hh2 = [cx.hh_dim(2, t) for t in range(-7, 0)]
        assert hh2[0] == 0, (n, g, hh2)
        assert sum(hh2) + g * (n - g) == want, (n, g, hh2)
    print("\n[PASS] criterion 2: tangent dimensions 1, 3, 6 and 9 at (2,0), "
          "(3,0), (3,1) and (3,2), HH^2 summed over t in [-7, -1]")


def test_criterion_03_reduced_vs_unreduced():
    """Equal HH dims from the reduced and unnormalized complexes,
    i <= 3, t in [-6, 0], (n,g) up to (2,2)."""
    cases = [
        ("10", SubspaceW(1, [[1]])),
        ("11", SubspaceW.zero(1)),
        ("20", SubspaceW(2, [[1, 0], [0, 1]])),
        ("21", SubspaceW(2, [[1, 1]])),
        ("22", SubspaceW.zero(2)),
    ]
    cells = 0
    for key, w in cases:
        E = algebra(key, w)
        cx = reduced_complex(E)
        ucx = unnormalized_complex(E)
        for i in range(0, 4):
            for t in range(-6, 1):
                a = cx.hh_dim(i, t)
                b = ucx.hh_dim(i, t)
                assert a == b, (key, i, t, a, b)
                cells += 1
    print("\n[PASS] criterion 3: reduced == unnormalized HH dims on %d cells "
          "over %d algebras" % (cells, len(cases)))


def test_criterion_04_ainf_round_trip():
    """100 random gauge transforms of the trivial structure normalize back
    to it; the gauge composition law holds on 100 random triples."""
    rng = random.Random(104)
    count = 0
    for key, w in [("11", SubspaceW.zero(1)), ("21", SubspaceW(2, [[1, 1]]))]:
        E = algebra(key, w)
        for _ in range(50):
            f = random_gauge(E, 6, rng)
            m = gauge_act(f, AnStructure.trivial(E, 6))
            nf, wit = normalize(m)
            assert nf.is_trivial(), key
            assert gauge_act(wit, m) == nf
            count += 1
    assert count == 100
    laws = 0
    for key, w in [("11", SubspaceW.zero(1)), ("21", SubspaceW(2, [[1, 1]]))]:
        E = algebra(key, w)
        for _ in range(50):
            f = random_gauge(E, 6, rng)
            g = random_gauge(E, 6, rng)
            m = random_structure(E, 6, rng)
            assert gauge_act(f, gauge_act(g, m)) == \
                gauge_act(gauge_compose(f, g), m)
            laws += 1
    assert laws == 100
    print("\n[PASS] criterion 4: 100 normalize round-trips and 100 gauge "
          "composition laws, exact")


def test_criterion_05_special_curve_bases():
    """verify_basis passes at D=12 for all S, n <= 4, 3 random a each;
    the corrupted control fails."""
    rng = random.Random(105)
    curves = 0
    for n in range(1, 5):
        for size in range(0, n + 1):
            for S in itertools.combinations(range(1, n + 1), size):
                for _ in range(3):
                    d = random_curve(n, list(S), rng)
                    assert verify_basis(d, 12), (n, S, d.a)
                    curves += 1
    bad = verify_basis(SpecialCurveData(2, [1], {(1, 2): 2}), 8,
                       corrupt={"hS_2": {(1, 1): rat(1)}})
    assert not bad.passed
    print("\n[PASS] criterion 5: bases verified at D=12 for %d curves; "
          "corrupted control FAILs" % curves)


def test_criterion_06_krichever_conditions():
    """Windows recover codimension g and pass the three membership verdicts,
    stably from D to D+2."""
    rng = random.Random(106)
    windows = 0
    for n in range(1, 5):
        for size in range(0, n + 1):
            for S in itertools.combinations(range(1, n + 1), size):
                for _ in range(3):
                    d = random_curve(n, list(S), rng)
                    depth = 2 * d.g + 4
                    w1 = krichever_window(d, depth)
                    w2 = krichever_window(d, depth + 2)
                    for win in (w1, w2):
                        assert win.codim == d.g, (n, S)
                        assert win.verdicts["intersection_is_constants"]
                        assert win.verdicts["codim_matches"]
                        assert win.verdicts["complement_condition"]
                    windows += 2
    print("\n[PASS] criterion 6: Krichever verdicts and codim g stable "
          "under D -> D+2 on %d windows" % windows)


def test_criterion_07_gluing_genus_additivity():
    """Every tested glue pair reports genus = g_left + g_right."""
    rng = random.Random(107)
    pairs = [
        (SpecialCurveData(1, []), SpecialCurveData(1, []), (0, 0), (0, 0)),
        (SpecialCurveData(1, [1]), SpecialCurveData(1, [1]), (0, 1), (0, 1)),
        (SpecialCurveData(1, [1]), SpecialCurveData(1, []), (0, 1), (0, 2)),
        (SpecialCurveData(2, [1], {(1, 2): 2}), SpecialCurveData(1, [1]),
         (1, 3), (0, 1)),
        (random_curve(2, [1, 2], rng), random_curve(2, [2], rng), (0, 1), (1, 2)),
        (random_curve(3, [2], rng), SpecialCurveData(2, []), (2, 1), (0, 5)),
    ]
    for dl, dr, ql, qr in pairs:
        depth = 2 * (dl.g + dr.g) + 6
        _, rep = glue(branch_model(dl, depth), ql, branch_model(dr, depth), qr)
        assert rep["additive"], (dl, dr)
        assert rep["genus"] == dl.g + dr.g
    print("\n[PASS] criterion 7: gluing genus additivity on %d pairs"
          % len(pairs))


def test_criterion_08_transition_symbolic():
    """The chart transition as an exact identity over Q(a, b, e, pi), plus
    involutivity."""
    cert = transition_symbolic()
    assert cert.passed
    for name, rem in cert.remainders.items():
        assert not rem, name
    rng = random.Random(108)
    for _ in range(10):
        c = U1Chart(rat(rng.randint(1, 6), rng.choice([1, 2])),
                    rat(rng.randint(-4, 4), 2), rng.randint(-3, 3),
                    rng.randint(-3, 3))
        cert_c = transition(c)
        assert cert_c.passed
        assert transition(cert_c.chart2).chart2 == c
    print("\n[PASS] criterion 8: symbolic transition certificate reduces to 0; "
          "involutivity on 10 rational charts")


def test_criterion_09_git_hilbert_comparison():
    """hilbert_A equals the weight-(2,3,4) count for the stated (u,v) up to
    n = 40; degenerate regimes return the documented constants."""
    for u, v in [(1, 1), (2, 1), (rat(3, 2), rat(3, 2))]:
        rep = weighted_proj_compare(HilbertSpec(u, v, 40))
        assert rep.passed, (u, v)
    assert hilbert_A(HilbertSpec(-1, 1, 6)) == [1, 0, 0, 0, 0, 0, 0]
    assert hilbert_A(HilbertSpec(rat(1, 2), rat(1, 2), 6)) == [1, 0, 1, 0, 1, 0, 1]
    # u + v < 1: the algebra is constants only, even at integral n u
    assert hilbert_A(HilbertSpec(rat(1, 4), rat(1, 4), 8)) == [1] + [0] * 8
    rep = weighted_proj_compare(HilbertSpec(rat(1, 2), rat(1, 2), 10))
    assert not rep.passed and "point" in rep.status
    print("\n[PASS] criterion 9: Hilbert functions match the weighted "
          "projective plane up to n=40; degenerate regimes documented")


def test_criterion_10_infrastructure_identities():
    """delta^2 = 0 at every computed bidegree; graded Jacobi on 50 random
    triples; extension residuals are cocycles on 50 random structures."""
    shapes = [(1, 0), (2, -1), (2, -2), (3, -2), (1, -1), (2, 0), (3, -1)]
    rng = random.Random(110)

    def rand_cochain(E, s, t):
        cx = reduced_complex(E)
        values = {}
        for key, w in cx.basis(s, t):
            if rng.random() < 0.5:
                c = rat(rng.randint(-2, 2))
                if c:
                    values.setdefault(key, {})[w] = c
        return Cochain(E, s, t, values)

    grids = [("11", SubspaceW.zero(1), 9), ("21", SubspaceW(2, [[1, 1]]), 7)]
    cells = 0
    for key, w, smax in grids:
        E = algebra(key, w)
        cx = reduced_complex(E)
        for t in range(-6, 1):
            for s in range(0, smax):
                d2 = cx.delta_columns(s + 1, t)
                assert not any(apply(d2, col) for col in
                               cx.positions(cx.delta_columns(s, t), s + 1, t)), \
                    (key, s, t)
                cells += 1
    jacobi = 0
    E = algebra("11", SubspaceW.zero(1))
    while jacobi < 50:
        sa, ta = shapes[rng.randrange(len(shapes))]
        sb, tb = shapes[rng.randrange(len(shapes))]
        sc, tc = shapes[rng.randrange(len(shapes))]
        a = rand_cochain(E, sa, ta)
        b = rand_cochain(E, sb, tb)
        c = rand_cochain(E, sc, tc)
        lhs = gerstenhaber(gerstenhaber(a, b), c)
        sign = -1 if (a.susdeg() * b.susdeg()) % 2 == 0 else 1
        rhs = cochain_sum(gerstenhaber(a, gerstenhaber(b, c)),
                          gerstenhaber(b, gerstenhaber(a, c)).scale(sign))
        assert lhs == rhs
        jacobi += 1
    residuals = 0
    for key, w in [("11", SubspaceW.zero(1)), ("21", SubspaceW(2, [[1, 1]]))]:
        E = algebra(key, w)
        for _ in range(25):
            m = random_structure(E, 5, rng)
            assert is_flat(m)
            o = extension_residual(m)
            assert differential_apply(o).is_zero()
            residuals += 1
    assert residuals == 50
    print("\n[PASS] criterion 10: delta^2 = 0 on %d bidegrees, Jacobi on 50 "
          "triples, 50 extension residuals are cocycles" % cells)
