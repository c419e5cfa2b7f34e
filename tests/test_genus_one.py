"""Genus-1 two-point charts: relations, transitions, Hilbert functions,
and the weighted projective comparison."""

import random

import pytest

from curvealg.linalg import rat
from curvealg.genus_one import (HilbertSpec, U1Chart, bundle_glue_check,
                                hilbert_A, transition, transition_symbolic,
                                u1_relations, weighted_proj_compare)


def random_chart(rng, invertible=True):
    a = rat(rng.randint(1, 6), rng.choice([1, 2])) if invertible \
        else rat(rng.randint(-5, 5), rng.choice([1, 2]))
    return U1Chart(a, rat(rng.randint(-4, 4), 2), rng.randint(-3, 3),
                   rng.randint(-3, 3))


# -- chart relations -----------------------------------------------------------


def test_special_fiber_relations():
    c = U1Chart(0, 0, 0, 0)
    assert c.s1 == 0
    rs = u1_relations(c)
    assert [str(r) for r in rs.relations] == \
        ["h1^2 - f1^3", "h12*f1", "h12*h1"]
    assert rs.closure_check(12).passed


def test_s1_formula():
    assert U1Chart(1, 1, 0, 0).s1 == -1
    assert U1Chart(5, 2, 3, -1).s1 == rat(9) - 2 * (-1 + 4)


def test_random_chart_closure():
    rng = random.Random(1)
    for _ in range(6):
        c = random_chart(rng, invertible=False)
        assert u1_relations(c).closure_check(12).passed


def test_chart_basis_is_the_claimed_one():
    # the claimed basis h12^m, f1^m, f1^m h1 that the system's
    # claimed_basis text names, on exponents (h12, f1, h1)
    def claimed(exps):
        nz = [k for k, v in enumerate(exps) if v]
        if len(nz) > 1:
            return exps[0] == 0 and exps[2] <= 1
        return exps[2] <= 1 if exps[2] else True

    rng = random.Random(2)
    rs = u1_relations(random_chart(rng))
    assert rs.claimed_basis == "h12^m, f1^m, f1^m h1"
    irr = set(filter(rs.is_irreducible, rs.ring.monomials_up_to(8)))
    assert irr == set(filter(claimed, rs.ring.monomials_up_to(8)))


# -- transitions ----------------------------------------------------------------


def test_transition_example_values():
    cert = transition(U1Chart(1, 1, 0, 0))
    c2 = cert.chart2
    assert (c2.a12, c2.b12, c2.e12, c2.pi1) == (1, 1, 0, 0)
    assert c2.s1 == -1
    assert cert.passed


def test_transition_random_and_involution():
    rng = random.Random(3)
    for _ in range(6):
        c = random_chart(rng)
        cert = transition(c)
        assert cert.passed, c
        assert cert.s2_consistent
        back = transition(cert.chart2)
        assert back.chart2 == c


def test_transition_rejects_degenerate():
    with pytest.raises(ValueError):
        transition(U1Chart(0, 1, 1, 1))


def test_transition_symbolic_identity():
    cert = transition_symbolic()
    assert cert.passed
    for rem in cert.remainders.values():
        assert not rem  # each certificate polynomial reduces to exactly 0


def test_bundle_glue_check():
    assert bundle_glue_check(U1Chart(1, 1, 0, 0))["verdict"] == "PASS"
    rng = random.Random(4)
    for _ in range(4):
        assert bundle_glue_check(random_chart(rng))["verdict"] == "PASS"
    assert bundle_glue_check(None, symbolic=True)["verdict"] == "PASS"


# -- Hilbert functions --------------------------------------------------------------


def test_hilbert_values_by_direct_enumeration():
    dims = hilbert_A(HilbertSpec(1, 1, 7))
    assert dims == [1, 0, 1, 1, 2, 1, 3, 2]
    # independent recount for n = 6: solutions of 2k+3l+4m = 6
    sols = [(k, l, m) for k in range(4) for l in range(3) for m in range(2)
            if 2 * k + 3 * l + 4 * m == 6]
    assert len(sols) == dims[6] == 3


def test_hilbert_degenerate_regimes():
    assert hilbert_A(HilbertSpec(-1, 1, 5)) == [1, 0, 0, 0, 0, 0]
    assert hilbert_A(HilbertSpec(1, -2, 5)) == [1, 0, 0, 0, 0, 0]
    assert hilbert_A(HilbertSpec(rat(1, 2), rat(1, 2), 6)) == [1, 0, 1, 0, 1, 0, 1]
    assert hilbert_A(HilbertSpec(rat(1, 4), rat(1, 4), 8))[:9] == \
        [1, 0, 0, 0, 0, 0, 0, 0, 0]


def test_hilbert_swap_symmetry():
    rng = random.Random(5)
    for _ in range(6):
        u = rat(rng.randint(0, 6), rng.choice([1, 2, 3]))
        v = rat(rng.randint(0, 6), rng.choice([1, 2, 3]))
        assert hilbert_A(HilbertSpec(u, v, 24)) == hilbert_A(HilbertSpec(v, u, 24))


def test_weighted_proj_compare_grid():
    assert weighted_proj_compare(HilbertSpec(1, 1, 40)).passed
    assert weighted_proj_compare(HilbertSpec(2, 1, 40)).passed
    assert weighted_proj_compare(HilbertSpec(rat(3, 2), rat(3, 2), 40)).passed
    grid = [(1, 2), (3, 1), (rat(5, 2), rat(1, 2)), (rat(2, 3), rat(2, 3)),
            (4, 4), (rat(7, 3), 2)]
    for u, v in grid:
        rep = weighted_proj_compare(HilbertSpec(u, v, 40))
        assert rep.passed, (u, v)


def test_weighted_proj_compare_veronese_step():
    rep = weighted_proj_compare(HilbertSpec(1, 1, 40))
    assert rep.veronese_step == 2  # smallest positive degree with monomials
    rep2 = weighted_proj_compare(HilbertSpec(2, 1, 40))
    assert rep2.veronese_step == 2


def test_weighted_proj_compare_degenerate():
    rep = weighted_proj_compare(HilbertSpec(rat(1, 2), rat(1, 2), 10))
    assert not rep.passed and "point" in rep.status
    assert not weighted_proj_compare(HilbertSpec(-1, 3, 10)).passed
    assert not weighted_proj_compare(HilbertSpec(rat(1, 4), rat(1, 4), 10)).passed
