"""Special curves: presentations, the embedding, bases, Krichever windows,
Grassmannian points, gluing."""

import itertools
import random
from fractions import Fraction

import pytest

from curvealg import curves
from curvealg.linalg import Echelon, ONE, rank_of_columns, rat
from curvealg.poly import MultiPoly, PolyRing, RelationSystem
from curvealg.curves import (SpecialCurveData, branch_model, bp_eval, bp_mul,
                             component_type, glue, grassmannian_point,
                             krichever_window, rho_embed, rho_generator_images,
                             rho_monomial, special_curve_algebra, verify_basis,
                             window_from_vectors, WindowUnderflowError)
from curvealg.quiver import build_ew


def random_data(n, S, rng, dens=0.8):
    a = {}
    comp = [j for j in range(1, n + 1) if j not in set(S)]
    for i in S:
        for j in comp:
            if rng.random() < dens:
                a[(i, j)] = rat(rng.randint(-3, 3), rng.choice([1, 1, 2]))
    return SpecialCurveData(n, S, a)


# -- presentations -----------------------------------------------------------------


def test_cuspidal_presentation():
    pres = special_curve_algebra(SpecialCurveData(1, [1]))
    assert [str(r) for r in pres.system.relations] == ["h_1^2 - f_1^3"]


def test_two_point_presentation_paper_values():
    pres = special_curve_algebra(SpecialCurveData(2, [1], {(1, 2): 2}))
    rels = {str(r) for r in pres.system.relations}
    assert rels == {"h_1^2 - f_1^3", "hS_2*f_1 - 2*h_1", "hS_2*h_1 - 2*f_1^2"}


def test_genus_zero_presentation():
    # S empty: the only relation family is h_{S,j} h_{S,j'} = 0
    pres = special_curve_algebra(SpecialCurveData(3, []))
    rels = [str(r) for r in pres.system.relations]
    assert sorted(rels) == ["hS_1*hS_2", "hS_1*hS_3", "hS_2*hS_3"]


def _relations_reference(data):
    """The presentation's relations built by MultiPoly arithmetic from its
    generators, in the presentation's order."""
    pres = special_curve_algebra(data)
    S, comp, var = data.S, data.complement(), pres.ring.var
    f = {i: var("f_%d" % i) for i in S}
    h = {i: var("h_%d" % i) for i in S}
    hs = {j: var("hS_%d" % j) for j in comp}
    rels = []
    for i, ip in itertools.combinations(S, 2):
        rels.append(f[i] * f[ip])
        rels.append(h[i] * h[ip])
    for i in S:
        for ip in S:
            if i != ip:
                rels.append(f[i] * h[ip])
    for i in S:
        rels.append(h[i] ** 2 - f[i] ** 3)
    for j, jp in itertools.combinations(comp, 2):
        rhs = pres.ring.zero()
        for i in S:
            rhs = rhs + f[i].scale(data.a_entry(i, j) * data.a_entry(i, jp))
        rels.append(hs[j] * hs[jp] - rhs)
    for i in S:
        for j in comp:
            rels.append(f[i] * hs[j] - h[i].scale(data.a_entry(i, j)))
            rels.append(h[i] * hs[j] - (f[i] ** 2).scale(data.a_entry(i, j)))
    return rels


def test_presentation_relations_match_the_arithmetic_reference():
    # the terms in order, their values, and the printed relation, for every
    # (n, S) with n <= 4, with every entry of a nonzero and with about half
    # of them zero
    rng = random.Random(19)
    zero_entries = 0
    for d in (random_data(n, list(S), rng, dens) for n in range(1, 5)
              for size in range(n + 1) for S in itertools.combinations(range(1, n + 1), size)
              for dens in (1.0, 0.5)):
        zero_entries += d.g * (d.n - d.g) - len(d.a)
        got = special_curve_algebra(d).system.relations
        want = _relations_reference(d)
        assert [list(r.terms.items()) for r in got] == \
            [list(r.terms.items()) for r in want], d
        assert [str(r) for r in got] == [str(r) for r in want], d
    assert zero_entries > 0


def test_presentation_builds_one_multipoly_per_relation(monkeypatch):
    # a presentation writes each relation once as a MultiPoly and builds no
    # generator handle or rule tail besides
    built = []
    init = MultiPoly.__init__

    def counting(self, ring, terms):
        built.append(terms)
        init(self, ring, terms)

    monkeypatch.setattr(MultiPoly, "__init__", counting)
    rng = random.Random(21)
    for n, S in ((1, [1]), (2, []), (3, [1, 3]), (4, [2])):
        built.clear()
        pres = special_curve_algebra(random_data(n, S, rng))
        assert len(built) == len(pres.system.relations) > 0, (n, S)


def test_claimed_basis_monomials_match_the_full_walk(monkeypatch):
    # the single-block monomials filtered by the predicate are the claimed
    # monomials of the whole walk, in the same order, also when the
    # predicate is patched to claim fewer
    for n in range(1, 5):
        for size in range(0, n + 1):
            for S in itertools.combinations(range(1, n + 1), size):
                d = SpecialCurveData(n, S)
                names = special_curve_algebra(d).ring.names
                for drop in (None, (names[0], 2), (names[-1], 1)):
                    monkeypatch.undo()
                    if drop:
                        _drop_claimed(monkeypatch, *drop)
                    pres = curves.special_curve_algebra(d)
                    claimed = pres.system.is_claimed_basis_monomial
                    for bound in range(11):
                        assert pres.claimed_basis_monomials(bound) == [
                            e for e in pres.ring.monomials_up_to(bound) if claimed(e)], \
                            (n, S, drop, bound)


def test_relations_weighted_homogeneous():
    rng = random.Random(1)
    d = random_data(4, [1, 3], rng)
    pres = special_curve_algebra(d)
    for r in pres.system.relations:
        assert len({r.ring.wdeg(e) for e in r.terms}) <= 1


# -- the embedding -----------------------------------------------------------------


def test_rho_generator_images():
    d = SpecialCurveData(2, [1], {(1, 2): 2})
    img = rho_generator_images(d)
    assert img["f_1"] == {(0, 2): ONE}
    assert img["h_1"] == {(0, 3): ONE}
    assert img["hS_2"] == {(1, 1): ONE, (0, 1): rat(2)}


def test_rho_is_ring_homomorphism_on_products():
    rng = random.Random(2)
    d = random_data(3, [1, 2], rng)
    pres = special_curve_algebra(d)
    monos = pres.ring.monomials_up_to(5)
    for _ in range(25):
        p = pres.ring.monomial(rng.choice(monos), rat(rng.randint(-2, 2)))
        q = pres.ring.monomial(rng.choice(monos), rat(rng.randint(-2, 2)))
        assert rho_embed(pres, p * q) == bp_mul(rho_embed(pres, p),
                                                rho_embed(pres, q))


class _NoMul(type(ONE)):
    """A rational that fails when multiplied."""

    def __mul__(self, other):
        raise AssertionError("a unit coefficient was multiplied")

    __rmul__ = __mul__


def test_bp_mul_skips_unit_coefficients_and_matches_the_product():
    # a coefficient 1 on either side is taken as is; every other pair is
    # multiplied, and the result equals the termwise product exactly
    u = {(0, 1): _NoMul(1), (0, 2): rat(3, 2), (1, 0): rat(-2)}
    v = {(0, 3): rat(5, 7), (1, 1): _NoMul(1), (1, 4): rat(1, 3)}
    got = bp_mul(u, v)
    want = {}
    for (b1, e1), c1 in u.items():
        for (b2, e2), c2 in v.items():
            if b1 == b2:
                key = (b1, e1 + e2)
                want[key] = want.get(key, 0) + type(ONE)(c1) * type(ONE)(c2)
    assert got == {k: c for k, c in want.items() if c}
    assert all(type(c) is type(ONE) for c in got.values())
    with pytest.raises(AssertionError, match="unit coefficient was multiplied"):
        bp_mul({(0, 1): _NoMul(2)}, {(0, 1): rat(3)})


def test_rho_kills_the_relations():
    rng = random.Random(3)
    for n, S in [(1, [1]), (2, [1]), (3, [1, 2]), (4, [2, 4])]:
        d = random_data(n, S, rng)
        pres = special_curve_algebra(d)
        for r in pres.system.relations:
            assert rho_embed(pres, r) == {}


def test_cusp_identity():
    pres = special_curve_algebra(SpecialCurveData(1, [1]))
    diff = pres.ring.var("h_1") ** 2 - pres.ring.var("f_1") ** 3
    assert rho_embed(pres, diff) == {}


# -- basis verification --------------------------------------------------------------


def test_verify_basis_examples():
    assert verify_basis(SpecialCurveData(1, [1]), 12)
    assert verify_basis(SpecialCurveData(2, [1], {(1, 2): 2}), 12)


def test_verify_basis_grid_small():
    rng = random.Random(4)
    for n in (1, 2, 3):
        for size in range(0, n + 1):
            for S in itertools.combinations(range(1, n + 1), size):
                d = random_data(n, list(S), rng)
                assert verify_basis(d, 8), (n, S)


def test_verify_basis_detects_corruption():
    d = SpecialCurveData(2, [1], {(1, 2): 2})
    rep = verify_basis(d, 8, corrupt={"hS_2": {(1, 1): ONE}})
    assert not rep.passed


def _verify_basis_reference(data, degree_bound, corrupt=None):
    """verify_basis rebuilding every image from 1 and re-ranking the
    claimed images plus one column for every monomial.  It reads the
    presentation through the module, as verify_basis does, so a test that
    patches curves.special_curve_algebra patches both."""
    pres = curves.special_curve_algebra(data)
    images = rho_generator_images(data, corrupt)
    ring = pres.ring
    by_deg_basis = {}
    by_deg_all = {}
    for e in ring.monomials_up_to(degree_bound):
        d = ring.wdeg(e)
        by_deg_all.setdefault(d, []).append(e)
        if pres.system.is_claimed_basis_monomial(e):
            by_deg_basis.setdefault(d, []).append(e)
    for d in range(degree_bound + 1):
        basis_cols = [rho_monomial(pres, e, images) for e in by_deg_basis.get(d, [])]
        r_basis = rank_of_columns(basis_cols)
        if r_basis != len(basis_cols):
            return False, "degree %d: claimed monomials dependent" % d
        for e in by_deg_all.get(d, []):
            col = rho_monomial(pres, e, images)
            if rank_of_columns(basis_cols + [col]) != r_basis:
                return False, "degree %d: image of %s escapes the span" % (d, e)
            nf = pres.system.normal_form(ring.monomial(e), degree_bound)
            if rho_embed(pres, nf, images=images) != col:
                return False, "degree %d: reduction of %s changes the image" % (d, e)
    return True, ""


def assert_verify_basis_matches_reference(data, degree_bound, corrupt=None):
    rep = verify_basis(data, degree_bound, corrupt)
    assert (rep.passed, rep.reason) == _verify_basis_reference(data, degree_bound, corrupt)
    return rep


def _corruptions(images):
    """Each generator image with its sign flipped, and with each of its
    terms dropped, or raised one degree, in turn."""
    for name, img in images.items():
        yield {name: {k: -c for k, c in img.items()}}
        for k in img:
            rest = {k2: c for k2, c in img.items() if k2 != k}
            yield {name: rest}
            yield {name: {**rest, (k[0], k[1] + 1): img[k]}}


def test_verify_basis_matches_reference_on_every_small_curve():
    rng = random.Random(14)
    for n in (1, 2, 3):
        for size in range(0, n + 1):
            for S in itertools.combinations(range(1, n + 1), size):
                d = random_data(n, list(S), rng, dens=1.0)
                assert assert_verify_basis_matches_reference(d, 8).passed, (n, S)


def test_verify_basis_matches_reference_on_n4_curves():
    # the benchmark's heaviest shapes are (4,1) and (4,2)
    rng = random.Random(16)
    for size in range(0, 5):
        for S in itertools.combinations(range(1, 5), size):
            d = random_data(4, list(S), rng, dens=1.0)
            assert assert_verify_basis_matches_reference(d, 6).passed, S
    d = random_data(4, [1, 3], rng, dens=1.0)
    reasons = set()
    for corrupt in _corruptions(rho_generator_images(d)):
        rep = assert_verify_basis_matches_reference(d, 6, corrupt)
        reasons.add(rep.reason.split(": ")[1].split(" ")[0] if rep.reason else "")
    assert reasons == {"", "claimed", "image", "reduction"}


def _drop_claimed(monkeypatch, name, power):
    """Patch curves.special_curve_algebra so that the claimed-basis predicate
    of every presentation it returns drops generator `name` to `power`."""
    build = curves.special_curve_algebra

    def patched(data):
        pres = build(data)
        e = tuple(power if x == name else 0 for x in pres.ring.names)
        claimed = pres.system.is_claimed_basis_monomial
        pres.system.is_claimed_basis_monomial = lambda m: m != e and claimed(m)
        return pres

    monkeypatch.setattr(curves, "special_curve_algebra", patched)


def test_verify_basis_runs_the_span_test_when_a_normal_form_leaves_the_claimed_set(
        monkeypatch):
    # f_1^2 is irreducible, so it is its own normal form and reduction keeps
    # its image; only the span test sees that it is no longer claimed
    contains = Echelon.contains
    seen = []

    def counted(self, v):
        seen.append(v)
        return contains(self, v)

    monkeypatch.setattr(Echelon, "contains", counted)
    _drop_claimed(monkeypatch, "f_1", 2)
    rng = random.Random(17)
    for n, S in ((2, [1]), (4, [1, 2])):
        d = random_data(n, S, rng, dens=1.0)
        del seen[:]
        rep = assert_verify_basis_matches_reference(d, 8)
        assert (rep.passed, rep.reason) == (
            False, "degree 4: image of %s escapes the span"
            % (tuple(2 if x == "f_1" else 0
                     for x in special_curve_algebra(d).ring.names),))
        assert {(0, 4): ONE} in seen


def test_verify_basis_reduces_each_monomial_once(monkeypatch):
    # perfbench counts curves.monomials as the normal_form calls made inside
    # verify_basis.  A passing curve's relations vanish under rho, so it
    # reduces nothing; a corrupted curve reduces each monomial at most once
    normal_form = RelationSystem.normal_form
    calls = []

    def counted(self, p, degree_bound):
        calls.append(p)
        return normal_form(self, p, degree_bound)

    monkeypatch.setattr(RelationSystem, "normal_form", counted)
    d = random_data(3, [2], random.Random(18), dens=1.0)
    assert verify_basis(d, 8)
    assert calls == []
    monomials = set(special_curve_algebra(d).ring.monomials_up_to(8))
    reduced_any = False
    for corrupt in _corruptions(rho_generator_images(d)):
        del calls[:]
        verify_basis(d, 8, corrupt)
        reduced = [next(iter(p.terms)) for p in calls]
        assert len(set(reduced)) == len(reduced) and monomials.issuperset(reduced)
        assert all(list(p.terms.values()) == [ONE] for p in calls)
        reduced_any = reduced_any or bool(reduced)
    assert reduced_any


def _tripwire(*args):
    raise AssertionError("called on a path that needs no reduction or span test")


def test_verify_basis_checks_only_independence_when_the_relations_vanish(monkeypatch):
    # the benchmark's heaviest shape at its degree, with a non-integral a:
    # rho kills every relation and every unclaimed monomial is reducible,
    # so no degree reduces a monomial or reduces an image against the span
    d = SpecialCurveData.from_rows(4, [1, 3], [["1/2", "-2/3"], ["5/6", "3"]])
    expected = _verify_basis_reference(d, 10)
    monkeypatch.setattr(RelationSystem, "normal_form", _tripwire)
    monkeypatch.setattr(Echelon, "contains", _tripwire)
    rep = verify_basis(d, 10)
    assert (rep.passed, rep.reason) == expected == (True, "")


def test_verify_basis_walks_no_monomial_list_on_a_passing_curve(monkeypatch):
    # the leads cover every product across blocks and every h_i^2, so the
    # unclaimed monomials are reducible without listing them
    d = SpecialCurveData.from_rows(4, [1, 3], [["1/2", "-2/3"], ["5/6", "3"]])
    expected = _verify_basis_reference(d, 10)
    monkeypatch.setattr(PolyRing, "monomials_up_to", _tripwire)
    rep = verify_basis(d, 10)
    assert (rep.passed, rep.reason) == expected == (True, "")


def test_verify_basis_walks_every_monomial_when_an_unclaimed_generator_is_not_a_lead(
        monkeypatch):
    # without the relation h_1*hS_2 = a_12 f_1^2, or h_1^2 = f_1^3, that
    # product is irreducible and unclaimed: the cover fails, so every degree
    # lists and checks all its monomials, with the reference's verdicts
    build = curves.special_curve_algebra
    removed = []

    def without_lead(data):
        pres = build(data)
        lead = tuple(removed.count(x) for x in pres.ring.names)
        system = pres.system
        pres.system = RelationSystem(
            pres.ring, [r for r in system.relations if r.lead()[0] != lead],
            system.claimed_basis, system.is_claimed_basis_monomial)
        assert len(pres.system.relations) == len(system.relations) - 1
        return pres

    monkeypatch.setattr(curves, "special_curve_algebra", without_lead)
    walks = []
    monomials_up_to = PolyRing.monomials_up_to

    def counted(self, bound):
        walks.append(bound)
        return monomials_up_to(self, bound)

    monkeypatch.setattr(PolyRing, "monomials_up_to", counted)
    rng = random.Random(20)
    cases = [random_data(2, [1], rng, dens=1.0), random_data(3, [1], rng, dens=1.0),
             SpecialCurveData(3, [1, 3]), random_data(4, [1, 3], rng, dens=1.0)]
    for lead in (["h_1", "hS_2"], ["h_1", "h_1"]):
        removed[:] = lead
        for d in cases:
            for bound in (6, 8):
                del walks[:]
                assert assert_verify_basis_matches_reference(d, bound).passed
                # one walk in verify_basis, one in the reference
                assert walks == [bound, bound], (lead, d, bound)
        reasons = set()
        for corrupt in _corruptions(rho_generator_images(cases[1])):
            for bound in (6, 8):
                rep = assert_verify_basis_matches_reference(cases[1], bound, corrupt)
                reasons.add(rep.reason.split(": ")[1].split(" ")[0] if rep.reason else "")
        assert reasons == {"", "claimed", "image", "reduction"}, lead


def test_unclaimed_monomials_are_the_multiples_of_the_unclaimed_generators():
    # the premise of verify_basis's cover: a monomial is unclaimed exactly
    # when one of the presentation's unclaimed generators divides it
    for n in range(1, 5):
        for size in range(0, n + 1):
            for S in itertools.combinations(range(1, n + 1), size):
                pres = special_curve_algebra(SpecialCurveData(n, S))
                gens = pres.unclaimed_generators
                for e in pres.ring.monomials_up_to(8):
                    divided = any(all(a <= b for a, b in zip(g, e)) for g in gens)
                    assert divided != pres.system.is_claimed_basis_monomial(e), (n, S, e)


def test_verify_basis_matches_reference_when_only_a_relation_above_the_bound_breaks():
    # h_1 -> x^4 on the cuspidal curve breaks only h_1^2 - f_1^3, of
    # degree 6: bound 5 passes, and at 6 the image of h_1^2 leaves the span
    # of f_1^3's
    d = SpecialCurveData(1, [1])
    corrupt = {"h_1": {(0, 4): ONE}}
    assert assert_verify_basis_matches_reference(d, 5, corrupt)
    rep = assert_verify_basis_matches_reference(d, 6, corrupt)
    assert rep.reason == "degree 6: image of (0, 2) escapes the span"


def test_verify_basis_matches_reference_on_corrupted_images():
    rng = random.Random(15)
    reasons = set()
    cases = [(random_data(n, S, rng, dens=1.0), 8)
             for n, S in ((1, [1]), (2, [1]), (3, [1]), (3, [1, 3]), (3, [2]))]
    # the benchmark's heaviest shape at its degree, with a non-integral a
    cases.append((SpecialCurveData.from_rows(
        4, [1, 3], [["1/2", "-2/3"], ["5/6", "3"]]), 10))
    for d, bound in cases:
        for corrupt in _corruptions(rho_generator_images(d)):
            rep = assert_verify_basis_matches_reference(d, bound, corrupt)
            reasons.add(rep.reason.split(": ")[1].split(" ")[0] if rep.reason else "")
    # every kind of failure shows up among the corruptions; h_1 -> -x^3 on
    # the cuspidal curve is an automorphism and passes
    assert reasons == {"", "claimed", "image", "reduction"}


def test_verify_basis_reports_dependent_claimed_monomials():
    # f_1 sent to the image of hS_2^2 makes the degree-2 claimed monomials
    # hS_2^2 and f_1 dependent
    d = SpecialCurveData(2, [1], {(1, 2): 2})
    corrupt = {"f_1": bp_mul(rho_generator_images(d)["hS_2"],
                             rho_generator_images(d)["hS_2"])}
    rep = assert_verify_basis_matches_reference(d, 8, corrupt)
    assert rep.reason == "degree 2: claimed monomials dependent"


def test_verify_basis_matches_reference_when_a_has_denominators_beyond_2():
    # verify_basis checks the integral curve (n, S, D a) with hS_j sent to D
    # times its image; random_data draws denominators 1 and 2 only, so these
    # curves have D = 6 and D = 2^61 - 1, and a corruption that raises a
    # term of an hS image carries the factor D into the higher degree
    p = 2 ** 61 - 1
    cases = [(3, [1], [["1/2", "-2/3"]], 8),
             (3, [1, 3], [["-5/6"], ["4/3"]], 8),
             (4, [1, 3], [["1/2", "-2/3"], ["-5/6", "7/3"]], 6),
             (3, [2], [["3/%d" % p, "%d/%d" % (2 - p, p)]], 8)]
    reasons = set()
    for n, S, rows, bound in cases:
        d = SpecialCurveData.from_rows(n, S, rows)
        assert any(c.denominator > 2 for c in d.a.values())
        assert assert_verify_basis_matches_reference(d, bound).passed, (n, S)
        for corrupt in _corruptions(rho_generator_images(d)):
            rep = assert_verify_basis_matches_reference(d, bound, corrupt)
            reasons.add(rep.reason.split(": ")[1].split(" ")[0] if rep.reason else "")
    assert reasons == {"", "claimed", "image", "reduction"}


def test_verify_basis_does_the_same_fraction_work_at_every_degree_bound(monkeypatch):
    # only building the presentation and scaling the generator images touch
    # a Fraction; every image, normal form and echelon row is an int, so
    # raising the degree bound adds no Fraction arithmetic or comparison
    d = SpecialCurveData.from_rows(4, [1, 3], [["1/2", "-2/3"], ["5/6", "3"]])
    counts = []
    for bound in (4, 10):
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__eq__"):
            def counted(a, b, op=getattr(Fraction, name), name=name):
                calls.append(name)
                return op(a, b)
            monkeypatch.setattr(Fraction, name, counted)
        rep = verify_basis(d, bound)
        monkeypatch.undo()
        assert rep.passed
        counts.append(len(calls))
    assert counts[0] == counts[1]


# -- components and the Grassmannian point ---------------------------------------------


def test_component_types():
    assert component_type(SpecialCurveData(1, [1]), 1) == "cuspidal"
    assert component_type(SpecialCurveData(2, [1], {(1, 2): 2}), 1) == "rational"
    assert component_type(SpecialCurveData(2, [1]), 1) == "cuspidal"
    with pytest.raises(ValueError):
        component_type(SpecialCurveData(2, [1]), 2)


def test_grassmannian_point_examples():
    w = grassmannian_point(SpecialCurveData(2, [1], {(1, 2): 2}))
    assert w.rows == ((rat(2), ONE),)
    assert grassmannian_point(SpecialCurveData(1, [1])).rows == ()
    full = grassmannian_point(SpecialCurveData(3, []))
    assert full.g == 0 and len(full.rows) == 3


def test_grassmannian_point_in_open_cell():
    # W + k^S = k^n for every curve datum
    rng = random.Random(5)
    for n in (2, 3, 4):
        for size in range(0, n + 1):
            for S in itertools.combinations(range(1, n + 1), size):
                d = random_data(n, list(S), rng)
                w = grassmannian_point(d)
                cols = [{j: c for j, c in enumerate(row) if c} for row in w.rows]
                cols += [{i - 1: ONE} for i in S]
                assert rank_of_columns(cols) == n


def test_grassmannian_point_matches_quiver_dimension():
    d = SpecialCurveData(3, [2], {(2, 1): 1, (2, 3): rat(1, 2)})
    E = build_ew(grassmannian_point(d))
    assert E.g == d.g and E.dim == 4 * 3 + 1 + 1


# -- Krichever windows ------------------------------------------------------------------


def test_krichever_cuspidal():
    win = krichever_window(SpecialCurveData(1, [1]), 8)
    assert win.verdicts["intersection_is_constants"]
    assert win.codim == 1 and win.verdicts["codim_matches"]
    assert win.verdicts["complement_condition"]
    # the window span contains 1, and pole orders 2 and 3 (x^2 = t^-2 and
    # x^3 = t^-3) but not 1
    assert {(0, 0): ONE} in win.subspace
    assert {(0, 2): ONE} in win.subspace and {(0, 3): ONE} in win.subspace


def test_krichever_two_point_and_lines():
    win = krichever_window(SpecialCurveData(2, [1], {(1, 2): 2}), 8)
    assert win.codim == 1
    assert all(v for v in win.verdicts.values())
    win0 = krichever_window(SpecialCurveData(2, []), 6)
    assert win0.codim == 0
    assert win0.verdicts["intersection_is_constants"]
    assert win0.verdicts["complement_condition"]


def test_krichever_depth_guard_and_stability():
    with pytest.raises(WindowUnderflowError):
        krichever_window(SpecialCurveData(1, [1]), 5)
    rng = random.Random(6)
    for n, S in [(2, [1]), (3, [1, 2]), (3, [3])]:
        d = random_data(n, S, rng)
        base = 2 * d.g + 4
        w1 = krichever_window(d, base)
        w2 = krichever_window(d, base + 2)
        assert w1.codim == w2.codim == d.g
        assert w1.verdicts == w2.verdicts


# -- gluing -----------------------------------------------------------------------------


def test_glue_examples():
    line = branch_model(SpecialCurveData(1, []), 10)
    cusp = branch_model(SpecialCurveData(1, [1]), 10)
    _, rep = glue(line, (0, 0), line, (0, 0))
    assert rep["genus"] == 0 and rep["branches"] == 2 and rep["additive"]
    _, rep = glue(cusp, (0, 1), cusp, (0, 1))
    assert rep["genus"] == 2 and rep["additive"]
    _, rep = glue(cusp, (0, 1), line, (0, 2))
    assert rep["genus"] == 1 and rep["additive"]


def test_glue_more_pairs():
    rng = random.Random(7)
    pairs = [
        (SpecialCurveData(2, [1], {(1, 2): 2}), SpecialCurveData(1, [1])),
        (SpecialCurveData(2, []), SpecialCurveData(2, [2], {(2, 1): 1})),
        (random_data(2, [1, 2], rng), SpecialCurveData(1, [])),
    ]
    for dl, dr in pairs:
        depth = 2 * (dl.g + dr.g) + 6
        left = branch_model(dl, depth)
        right = branch_model(dr, depth)
        _, rep = glue(left, (0, 1), right, (0, 1))
        assert rep["additive"], (dl, dr)


def test_glue_rejects_marked_point():
    line = branch_model(SpecialCurveData(1, []), 8)
    with pytest.raises(ValueError):
        glue(line, (0, None), line, (0, 0))


def test_glue_rejects_branch_outside_model():
    # a point on a missing branch would evaluate every function to 0 there
    # and drop the gluing condition; branches are numbered 0..n-1
    line = branch_model(SpecialCurveData(1, []), 8)
    pair = branch_model(SpecialCurveData(2, []), 8)
    for q_left, q_right in (((7, 1), (0, 2)), ((0, 1), (1, 2)), ((-1, 1), (0, 2))):
        with pytest.raises(ValueError, match="gluing branch"):
            glue(line, q_left, line, q_right)
    _, rep = glue(pair, (1, 1), line, (0, 2))
    assert rep["additive"]


def test_special_curve_needs_a_marked_point():
    for n in (0, -2):
        with pytest.raises(ValueError, match="n must be at least 1"):
            SpecialCurveData(n, [])


def test_glued_algebra_is_the_fiber_product():
    cusp = branch_model(SpecialCurveData(1, [1]), 8)
    line = branch_model(SpecialCurveData(1, []), 8)
    model, _ = glue(cusp, (0, 1), line, (0, 2))
    # every glued element agrees at the two glued points
    for bp in model.basis:
        assert bp_eval(bp, 0, rat(1)) == bp_eval(bp, 1, rat(2))
    # and 1 lies in the glued algebra
    one = {(0, 0): ONE, (1, 0): ONE}
    cols = [dict(b) for b in model.basis]
    assert rank_of_columns(cols + [one]) == rank_of_columns(cols)


def test_window_negative_controls():
    # verdicts must fail on corrupted window subspaces
    d = SpecialCurveData(2, [1], {(1, 2): 2})
    win = krichever_window(d, 8)
    # dropping the constant vector breaks the intersection verdict
    no_const = [bp for bp in win.subspace
                if bp != {(b, 0): ONE for b in range(2)}]
    assert len(no_const) == len(win.subspace) - 1
    broken = window_from_vectors(no_const, 2, 8)
    assert broken.intersection_dim != 1
    # adding a stray regular vector, t^1 = x^-1, breaks it in the other direction
    stray = {(0, -1): ONE}
    padded = window_from_vectors(win.subspace + [stray], 2, 8)
    assert not padded.verdicts["intersection_is_constants"]
    # a genus-starved subspace reports codim > g
    half = win.subspace[: len(win.subspace) // 2]
    starved = window_from_vectors(half, 2, 8)
    assert starved.codim > d.g
    # an exponent beyond the depth has no place in the window
    for e in (9, -9):
        with pytest.raises(ValueError, match="outside window"):
            window_from_vectors(win.subspace + [{(1, e): ONE}], 2, 8)


def test_basis_count_matches_embedding_rank():
    # the irreducible-monomial count of weighted degree <= d equals the rank
    # of the embedded images of all monomials of degree <= d (the dimension
    # of the filtration step), computed independently
    rng = random.Random(8)
    for d in [SpecialCurveData(2, [1], {(1, 2): 2}), random_data(3, [1, 3], rng)]:
        pres = special_curve_algebra(d)
        for bound in (3, 6, 9):
            cols = [dict(rho_monomial(pres, e))
                    for e in pres.ring.monomials_up_to(bound)]
            assert rank_of_columns(cols) == \
                sum(map(pres.system.is_irreducible, pres.ring.monomials_up_to(bound)))


def test_json_serialization():
    d = SpecialCurveData(3, [1, 3], {(1, 2): rat(1, 2), (3, 2): -2})
    j = d.to_json()
    assert j == {"n": 3, "S": [1, 3], "a": [["1/2"], ["-2"]]}
    d2 = SpecialCurveData.from_rows(j["n"], j["S"], j["a"])
    assert d2.n == d.n and d2.S == d.S and d2.a == d.a
    # no matrix is zero for every S; a mis-shaped one is refused
    for S in ([], [1], [1, 2, 3]):
        d3 = SpecialCurveData(3, S)
        assert d3.S == tuple(S) and d3.a == {}
    for a in ([], [["1"]], [["1", "2"], ["3", "4"], ["5", "6"]]):
        with pytest.raises(ValueError, match="1 x 2"):
            SpecialCurveData.from_rows(3, [2], a)
