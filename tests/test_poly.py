"""Polynomials, bounded rewriting, closure checks."""

import itertools
import random

import pytest

from curvealg.linalg import as_int, rat
from curvealg.poly import (BoundExceededError, MultiPoly, PolyRing, RelationSystem,
                           parse_poly)
from curvealg.curves import SpecialCurveData, special_curve_algebra
from curvealg import genus_one


def cusp_system():
    ring = PolyRing(["f", "h"], [2, 3], [36, 55])
    f, h = ring.var("f"), ring.var("h")
    return ring, RelationSystem(ring, [h * h - f ** 3])


def test_poly_arithmetic():
    ring = PolyRing(["x", "y"], [1, 1])
    x, y = ring.var("x"), ring.var("y")
    p = x * x + y.scale(rat(1, 2))
    assert p * ring.one() == p
    assert (x + y) * (x - y) == x * x - y * y
    ring23 = PolyRing(["f", "h"], [2, 3])
    fh = ring23.var("f") * ring23.var("h")
    assert [ring23.wdeg(e) for e in fh.terms] == [5]


def test_variable_mismatch():
    r1 = PolyRing(["x"], [1])
    r2 = PolyRing(["y"], [1])
    with pytest.raises(ValueError):
        r1.var("x") * r2.var("y")


def test_normal_form_single_rewrite():
    ring, rs = cusp_system()
    f, h = ring.var("f"), ring.var("h")
    assert rs.normal_form(h * h, 12) == f ** 3
    assert rs.normal_form(f * h, 12) == f * h  # already reduced


def test_normal_form_special_curve_paper_value():
    # f_1 h_{S,2} = a h_1 with a = 2
    d = SpecialCurveData(2, [1], {(1, 2): 2})
    pres = special_curve_algebra(d)
    f1, h1, hs2 = (pres.ring.var(x) for x in ("f_1", "h_1", "hS_2"))
    nf = pres.system.normal_form(f1 * hs2, 12)
    assert nf == h1.scale(2)


def test_normal_form_idempotent_on_output():
    d = SpecialCurveData(2, [1], {(1, 2): rat(3, 2)})
    rs = special_curve_algebra(d).system
    rng = random.Random(3)
    monos = rs.ring.monomials_up_to(8)
    for _ in range(20):
        p = rs.ring.zero()
        for _ in range(4):
            p = p + rs.ring.monomial(rng.choice(monos), rat(rng.randint(-3, 3)))
        nf = rs.normal_form(p, 20)
        assert rs.normal_form(nf, 20) == nf


def test_closure_cuspidal_no_overlaps():
    _, rs = cusp_system()
    assert rs.closure_check(12).passed


def test_closure_special_curve_and_perturbation():
    d = SpecialCurveData(2, [1], {(1, 2): 2})
    pres = special_curve_algebra(d)
    assert pres.system.closure_check(12).passed
    # replacing h1 h_{S,2} = 2 f1^2 by 3 f1^2 breaks confluence
    bad_rels = []
    f1, h1, hs2 = (pres.ring.var(x) for x in ("f_1", "h_1", "hS_2"))
    target = h1 * hs2 - (f1 ** 2).scale(2)
    for r in pres.system.relations:
        if r == target:
            bad_rels.append(h1 * hs2 - (f1 ** 2).scale(3))
        else:
            bad_rels.append(r)
    rep = RelationSystem(pres.ring, bad_rels).closure_check(12)
    assert not rep.passed
    assert rep.failures and all(rem for _, _, rem in rep.failures)


def test_bound_exceeded():
    # order weights make x^2 the lead of x^2 - y although y has higher
    # weighted degree, so reduction climbs out of a tight degree window
    ring = PolyRing(["x", "y"], [1, 3], [10, 1])
    x, y = ring.var("x"), ring.var("y")
    rs = RelationSystem(ring, [x * x - y])
    assert rs.normal_form(x ** 4, 6) == y * y
    with pytest.raises(BoundExceededError):
        rs.normal_form(x ** 4, 5)


def test_bound_checked_after_memo_filled_at_a_looser_bound():
    # x^4 reduces through x^2 y (degree 5) to y^2 (degree 6); the memo
    # entry must still raise at bound 5 once it was filled at bound 6, and
    # an aborted computation at bound 5 must leave nothing that spoils bound 6
    ring = PolyRing(["x", "y"], [1, 3], [10, 1])
    x, y = ring.var("x"), ring.var("y")
    loose_first = RelationSystem(ring, [x * x - y])
    assert loose_first.normal_form(x ** 4, 6) == y * y
    with pytest.raises(BoundExceededError):
        loose_first.normal_form(x ** 4, 5)
    with pytest.raises(BoundExceededError):
        loose_first.normal_form(x ** 5 - x ** 4, 6)
    tight_first = RelationSystem(ring, [x * x - y])
    with pytest.raises(BoundExceededError):
        tight_first.normal_form(x ** 4, 5)
    # the reduction stopped at y^2, so neither x^4 nor x^2 y was stored
    assert (4, 0) not in tight_first._normal_forms
    assert (2, 1) not in tight_first._normal_forms
    assert tight_first.normal_form(x ** 4, 6) == y * y
    with pytest.raises(BoundExceededError):
        tight_first.normal_form(x ** 4, 5)


# -- memoized normal forms against the step-by-step reduction -----------------------


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _tails_reference(rs):
    """Each relation r of rs as (lead, lead coefficient, lead_c*x^lead - r),
    the tail computed by MultiPoly arithmetic."""
    out = []
    for r in rs.relations:
        lead_e, lead_c = r.lead()
        out.append((lead_e, lead_c, rs.ring.monomial(lead_e, lead_c) - r))
    return out


def _normal_form_reference(rs, p, degree_bound):
    """Step-by-step reduction: rewrite the order-largest reducible term by
    the first rule whose lead divides it, checking the bound on every
    intermediate polynomial.  The rules are read off rs.relations."""
    ring = rs.ring
    rules = _tails_reference(rs)
    p = MultiPoly(ring, p.terms)
    while True:
        if p and (top := max(map(ring.wdeg, p.terms))) > degree_bound:
            raise BoundExceededError(
                "term of degree %d exceeds bound %d" % (top, degree_bound))
        e = None
        for t in p.terms:
            if any(_divides(lead_e, t) for lead_e, _, _ in rules):
                if e is None or ring.order_key(t) > ring.order_key(e):
                    e = t
        if e is None:
            return p
        c = p.terms[e]
        for lead_e, lead_c, tail in rules:
            if _divides(lead_e, e):
                shift = tuple(a - b for a, b in zip(e, lead_e))
                p = p - ring.monomial(e, c)
                p = p + ring.monomial(shift, c / lead_c) * tail
                break


def assert_normal_forms_match(rs, polys, bound):
    for p in polys:
        assert rs.normal_form(p, bound).terms == _normal_form_reference(rs, p, bound).terms, p


def _curve_data(n, S, rng):
    comp = [j for j in range(1, n + 1) if j not in S]
    return SpecialCurveData(n, S, {(i, j): rat(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                                   for i in S for j in comp})


def test_normal_form_matches_reference_on_curve_monomials():
    rng = random.Random(12)
    for n in (1, 2, 3):
        for size in range(n + 1):
            for S in itertools.combinations(range(1, n + 1), size):
                rs = special_curve_algebra(_curve_data(n, list(S), rng)).system
                monos = [rs.ring.monomial(e) for e in rs.ring.monomials_up_to(10)]
                assert_normal_forms_match(rs, monos, 10)


def test_normal_form_matches_reference_on_cancelling_inputs():
    # relations, their multiples and S-polynomials reduce to zero through
    # cancelling terms; random mixes cancel part of the way
    rng = random.Random(13)
    for n, S in ((2, [1]), (3, [1, 2]), (3, [2])):
        rs = special_curve_algebra(_curve_data(n, S, rng)).system
        ring = rs.ring
        monos = ring.monomials_up_to(4)
        polys = list(rs.relations)
        polys += [rs.spoly(i, j)[0] for i in range(len(rs.rules))
                  for j in range(i + 1, len(rs.rules))]
        for _ in range(20):
            p = ring.monomial(rng.choice(monos), rat(rng.randint(1, 3)))
            p = p * rng.choice(rs.relations)
            p = p + ring.monomial(rng.choice(monos), rat(rng.randint(-2, 2), 3))
            polys.append(p)
        assert_normal_forms_match(rs, polys, 16)
        assert all(not rs.normal_form(r, 16) for r in rs.relations)


def test_irreducible_monomials_match_lead_divisibility():
    # is_irreducible matches leads on their support; the reference zips the
    # whole exponent tuple
    rng = random.Random(19)
    systems = [special_curve_algebra(_curve_data(4, [1, 3], rng)).system,
               special_curve_algebra(_curve_data(3, [2], rng)).system,
               genus_one.u1_relations(genus_one.U1Chart(2, rat(1, 2), 1, -1)),
               cusp_system()[1]]
    for rs in systems:
        for e in rs.ring.monomials_up_to(8):
            assert rs.is_irreducible(e) == (
                not any(_divides(lead_e, e) for lead_e, _, _ in _tails_reference(rs))), e


def _rules_reference(rs):
    """Each rule as (lead, lead coefficient, lead support, scaled tail), from
    the tails of _tails_reference."""
    return [(lead_e, lead_c, [(i, k) for i, k in enumerate(lead_e) if k],
             [(tuple(a - b for a, b in zip(t, lead_e)), as_int(c / lead_c))
              for t, c in tail.terms.items()])
            for lead_e, lead_c, tail in _tails_reference(rs)]


def test_rules_match_the_arithmetic_reference():
    # the leads, their supports, the scaled tails and their term order
    # equal those of lead_c*x^lead - r on curve presentations (a has zero
    # entries among them), chart systems and a system read from JSON whose
    # leads are not written first
    rng = random.Random(20)
    curves = [_curve_data(n, list(S), rng) for n in range(1, 5) for size in range(n + 1)
              for S in itertools.combinations(range(1, n + 1), size)]
    assert any(len(d.a) < d.g * (d.n - d.g) for d in curves)
    systems = [special_curve_algebra(d).system for d in curves]
    systems += [genus_one.u1_relations(genus_one.U1Chart(2, rat(1, 2), 1, -1)),
                genus_one.u1_relations(genus_one.U1Chart(0, 0, 0, 0))]
    systems.append(RelationSystem.from_json({
        "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 2}],
        "relations": ["1/2*x - 3*x^2*y + y^3/3", "7 - 2*x^3 + x*y", "-y^2"]}))
    for rs in systems:
        assert rs.rules == _rules_reference(rs)


def test_monomials_up_to_is_every_monomial_in_lexicographic_order():
    # verify_basis reports the first failing monomial of a degree in this order
    ring = PolyRing(["a", "b", "c", "d"], [1, 2, 2, 3])
    brute = [e for e in itertools.product(range(8), repeat=4) if ring.wdeg(e) <= 7]
    assert ring.monomials_up_to(7) == brute
    assert PolyRing(["x"], [2]).monomials_up_to(5) == [(0,), (1,), (2,)]


def test_normal_form_matches_reference_on_non_confluent_system():
    # the perturbed system of test_closure_special_curve_and_perturbation:
    # h1 hS2 -> 3 f1^2 disagrees with the other rules, so the rule chosen
    # for a monomial divisible by two leads changes the normal form
    d = SpecialCurveData(2, [1], {(1, 2): 2})
    pres = special_curve_algebra(d)
    f1, h1, hs2 = (pres.ring.var(x) for x in ("f_1", "h_1", "hS_2"))
    target = h1 * hs2 - (f1 ** 2).scale(2)
    bad_rels = [h1 * hs2 - (f1 ** 2).scale(3) if r == target else r
                for r in pres.system.relations]
    rs = RelationSystem(pres.ring, bad_rels)
    monos = [rs.ring.monomial(e) for e in rs.ring.monomials_up_to(10)]
    assert_normal_forms_match(rs, monos, 10)
    spolys = [rs.spoly(i, j)[0] for i in range(len(rs.rules))
              for j in range(i + 1, len(rs.rules))]
    assert_normal_forms_match(rs, spolys, 12)
    refs = [_normal_form_reference(rs, s, 12) for s in spolys]
    assert [str(rem) for _, _, rem in rs.closure_check(12).failures] == \
        [str(r) for r in refs if r]


def test_normal_form_matches_reference_on_genus_one_systems(monkeypatch):
    charts = [genus_one.U1Chart(2, rat(1, 2), 1, -1),
              genus_one.U1Chart(rat(-3, 2), 0, rat(2, 5), 3)]
    for chart in charts:
        rs = genus_one.u1_relations(chart)
        monos = [rs.ring.monomial(e) for e in rs.ring.monomials_up_to(10)]
        assert_normal_forms_match(rs, monos, 10)
        spolys = [rs.spoly(i, j)[0] for i in range(len(rs.rules))
                  for j in range(i + 1, len(rs.rules))]
        assert_normal_forms_match(rs, spolys, 16)
    memo = [genus_one.transition(c).remainders for c in charts]
    memo.append(genus_one.transition_symbolic().remainders)
    monkeypatch.setattr(RelationSystem, "normal_form", _normal_form_reference)
    ref = [genus_one.transition(c).remainders for c in charts]
    ref.append(genus_one.transition_symbolic().remainders)
    for got, want in zip(memo, ref):
        assert list(got) == list(want)
        assert [(r.terms, str(r)) for r in got.values()] == \
            [(r.terms, str(r)) for r in want.values()]


def test_basis_count_cuspidal():
    # irreducible monomials by hand: 1, f, h, f^2, fh, f^3 up to degree 6,
    # plus f^2 h at degree 7
    _, rs = cusp_system()
    assert sum(map(rs.is_irreducible, rs.ring.monomials_up_to(6))) == 6
    assert sum(map(rs.is_irreducible, rs.ring.monomials_up_to(7))) == 7


def test_basis_count_polynomial_ring():
    ring = PolyRing(["x"], [1])
    rs = RelationSystem(ring, [ring.var("x") ** 9])  # inert up to the bound
    assert sum(map(rs.is_irreducible, ring.monomials_up_to(3))) == 4


def test_basis_count_matches_claimed_basis():
    d = SpecialCurveData(2, [1], {(1, 2): rat(5, 3)})
    pres = special_curve_algebra(d)
    for bound in (3, 6, 12):
        irr = set(filter(pres.system.is_irreducible, pres.ring.monomials_up_to(bound)))
        claimed = set(pres.claimed_basis_monomials(bound))
        assert irr == claimed


def test_closure_implies_basis_support():
    # products of claimed basis monomials reduce to claimed basis support
    d = SpecialCurveData(3, [1, 2], {(1, 3): 2, (2, 3): rat(-1, 2)})
    pres = special_curve_algebra(d)
    assert pres.system.closure_check(12).passed
    rng = random.Random(9)
    basis = pres.claimed_basis_monomials(5)
    for _ in range(15):
        p = pres.ring.zero()
        q = pres.ring.zero()
        for _ in range(3):
            p = p + pres.ring.monomial(rng.choice(basis), rat(rng.randint(-2, 2)))
            q = q + pres.ring.monomial(rng.choice(basis), rat(rng.randint(-2, 2)))
        nf = pres.system.normal_form(p * q, 24)
        for e in nf.terms:
            assert pres.system.is_claimed_basis_monomial(e)


def test_parser_and_json_roundtrip():
    ring = PolyRing(["f", "h"], [2, 3])
    p = parse_poly(ring, "h^2 - f^3 + 1/2*f - 7")
    assert p.terms.get((0, 2), 0) == 1 and p.terms.get((3, 0), 0) == -1
    assert p.terms.get((1, 0), 0) == rat(1, 2) and p.constant() == -7
    rs = RelationSystem(ring, [p])
    rs2 = RelationSystem.from_json(rs.to_json())
    assert rs2.relations[0] == parse_poly(rs2.ring, str(p))
    assert rs2.ring.weights == ring.weights

