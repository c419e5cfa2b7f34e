"""Truncated A_n structures: gauge action, normalization, extension,
tangent data, moduli equations."""

import json
import random

import pytest

from curvealg.linalg import ONE, rank, rat
from curvealg.quiver import SubspaceW, build_ew
from curvealg.hochschild import (Cochain, _accum, _sign, differential_apply,
                                 eval_b2, reduced_complex)
from curvealg.ainfinity import (AnStructure, GaugeTransform, complement_data,
                                defect, emit_moduli_equations, equivalent,
                                extend_step, extension_residual, gauge_act,
                                gauge_compose, gauge_inverse, in_complement,
                                is_flat, normalize, random_gauge,
                                random_structure, tangent_dims)


def E11():
    return build_ew(SubspaceW.zero(1))


def E21():
    return build_ew(SubspaceW(2, [[1, 1]]))


# -- defect ---------------------------------------------------------------------


def test_trivial_structure_is_flat():
    m = AnStructure.trivial(E11(), 6)
    assert is_flat(m)
    assert all(c.is_zero() for c in defect(m).values())


def test_residual_of_bare_m3_is_its_differential():
    rng = random.Random(1)
    E = E11()
    cx = reduced_complex(E)
    values = {}
    for key, w in cx.basis(3, -1):
        values.setdefault(key, {})[w] = rat(rng.randint(-2, 2))
    m3 = Cochain(E, 3, -1, values)
    m = AnStructure(E, 4, {3: m3})
    res = defect(m)
    assert res[3].is_zero()
    assert res[4] == differential_apply(m3)


def test_gauge_orbit_of_trivial_is_flat():
    rng = random.Random(2)
    for E in (E11(), E21()):
        for _ in range(5):
            f = random_gauge(E, 6, rng)
            m = gauge_act(f, AnStructure.trivial(E, 6))
            assert is_flat(m)


# -- gauge action ------------------------------------------------------------------


def test_identity_gauge_acts_trivially():
    rng = random.Random(3)
    E = E11()
    m = random_structure(E, 6, rng)
    assert gauge_act(GaugeTransform.identity(E, 6), m) == m


def test_leading_order_of_f2_action():
    rng = random.Random(4)
    E = E21()
    f = random_gauge(E, 6, rng)
    f2only = GaugeTransform(E, 6, {2: f.component(2)})
    m = gauge_act(f2only, AnStructure.trivial(E, 6))
    assert m.component(3) == differential_apply(f2only.component(2))


def test_gauge_action_law_and_inverse():
    rng = random.Random(5)
    for E in (E11(), E21()):
        for _ in range(3):
            f = random_gauge(E, 6, rng)
            g = random_gauge(E, 6, rng)
            m = random_structure(E, 6, rng)
            assert gauge_act(f, gauge_act(g, m)) == gauge_act(gauge_compose(f, g), m)
            inv = gauge_inverse(f)
            assert gauge_compose(f, inv).is_identity()
            assert gauge_compose(inv, f).is_identity()
            assert gauge_act(inv, gauge_act(f, m)) == m


# -- reference path: every composition, no memo, no support filter ------------


def _compositions(r, p):
    """All (j_1, ..., j_p) of positive integers summing to r."""
    if p == 1:
        yield (r,)
        return
    for first in range(1, r - p + 2):
        for rest in _compositions(r - first, p - 1):
            yield (first,) + rest


def _reference_layer(f, T, parts):
    ys, ydegs, pos = [], [], 0
    for j in parts:
        block = T[pos:pos + j]
        pos += j
        if j == 1:
            ys.append({block[0]: ONE})
        else:
            comp = f.comps.get(j)
            val = comp.values.get(block) if comp else None
            if not val:
                return None, None
            ys.append(val)
        ydegs.append(sum(f.E.deg[x] - 1 for x in block))
    return ys, ydegs


def _gauge_inverse_reference(f):
    E, N = f.E, f.N
    cx = reduced_complex(E)
    inv_comps = {}
    for r in range(2, N):
        values = {}
        for T in cx.tuple_keys(r, 1 - r):
            val = {}
            for k, c in f.component(r).values.get(T, {}).items():
                _accum(val, k, -c)
            for p in range(2, r):
                hp = inv_comps.get(p)
                if hp is None:
                    continue
                for parts in _compositions(r, p):
                    ys, _ = _reference_layer(f, T, parts)
                    if ys is None:
                        continue
                    for k, c in hp.eval_multilinear(ys).items():
                        _accum(val, k, -c)
            if val:
                values[T] = val
        if values:
            inv_comps[r] = Cochain(E, r, 1 - r, values)
    return GaugeTransform(E, N, inv_comps)


def _gauge_compose_reference(f, g):
    E, N = f.E, f.N
    cx = reduced_complex(E)
    comps = {}
    for r in range(2, N):
        values = {}
        for T in cx.tuple_keys(r, 1 - r):
            val = {}
            for p in range(1, r + 1):
                for parts in _compositions(r, p):
                    if p == 1:
                        term = f.component(r).values.get(T)
                    elif p == r:
                        term = g.component(r).values.get(T)
                    else:
                        ys, _ = _reference_layer(f, T, parts)
                        if ys is None:
                            continue
                        term = g.component(p).eval_multilinear(ys)
                    for k, c in (term or {}).items():
                        _accum(val, k, c)
            if val:
                values[T] = val
        if values:
            comps[r] = Cochain(E, r, 1 - r, values)
    return GaugeTransform(E, N, comps)


def _gauge_act_reference(f, m):
    """The unfactored action H o (b2 + m) o F: for every composition of
    every arity, every m_q on every run of q blocks, re-evaluated for each
    split of the outer blocks."""
    E, N = m.E, m.N
    cx = reduced_complex(E)
    h = _gauge_inverse_reference(f)
    comps = {}
    for r in range(3, N + 1):
        values = {}
        for T in cx.tuple_keys(r, 2 - r):
            val = {}
            for p in range(1, r + 1):
                for parts in _compositions(r, p):
                    ys, ydegs = _reference_layer(f, T, parts)
                    if ys is None:
                        continue
                    for q in range(2, p + 1):
                        if q > 2 and q not in m.comps:
                            continue
                        for a in range(p - q + 1):
                            if q == 2:
                                mid = eval_b2(E, ys[a], ys[a + 1])
                            else:
                                mid = m.comps[q].eval_multilinear(ys[a:a + q])
                            if not mid:
                                continue
                            outer = p - q + 1
                            if outer == 1:
                                term = mid
                            elif outer in h.comps:
                                term = h.comps[outer].eval_multilinear(
                                    ys[:a] + [mid] + ys[a + q:])
                            else:
                                continue
                            sgn = _sign(sum(ydegs[:a]))
                            for k, c in term.items():
                                _accum(val, k, sgn * c)
            if val:
                values[T] = val
        if values:
            comps[r] = Cochain(E, r, 2 - r, values)
    return AnStructure(E, N, comps)


def _random_cochains(E, arities, rng, deg_shift):
    """Seeded cochains of arity k and degree deg_shift - k, not flat."""
    cx = reduced_complex(E)
    comps = {}
    for k in arities:
        values = {}
        for key, w in cx.basis(k, deg_shift - k):
            if rng.random() < 0.5:
                values.setdefault(key, {})[w] = rat(rng.randint(1, 3), rng.choice([1, 2]))
        comps[k] = Cochain(E, k, deg_shift - k, values)
    return comps


@pytest.mark.parametrize("E", [E11(), build_ew(SubspaceW(2, [[rat(1, 2), rat(-2, 3)]]))],
                         ids=["E11", "E21-nonintegral"])
def test_gauge_action_matches_reference_path(E):
    # supports with gaps and a lowest component above 2 trip the
    # support-filtered compositions and the copy of the arities below it;
    # the non-flat m has components at arities those gauges skip
    rng = random.Random(15)
    for N in (5, 6):
        full = random_gauge(E, N, rng, density=0.3)
        flat = random_structure(E, N, rng, density=0.3)
        bent = AnStructure(E, N, _random_cochains(E, range(3, N + 1), rng, 2))
        for support in ({3}, {2, 4}, {4}, set(), set(range(2, N))):
            f = GaugeTransform(E, N, {k: full.component(k) for k in support})
            assert gauge_inverse(f) == _gauge_inverse_reference(f)
            assert gauge_compose(f, full) == _gauge_compose_reference(f, full)
            for m in (flat, bent):
                assert gauge_act(f, m) == _gauge_act_reference(f, m), (N, support)


def test_gauge_mismatch_rejected():
    with pytest.raises(ValueError):
        gauge_act(GaugeTransform.identity(E11(), 6),
                  AnStructure.trivial(E11(), 5))


# -- normalization ------------------------------------------------------------------


def test_normalize_trivial():
    m = AnStructure.trivial(E11(), 6)
    nf, wit = normalize(m)
    assert nf.is_trivial()
    assert wit.is_identity()


def test_normalize_round_trip():
    rng = random.Random(6)
    for E in (E11(), E21()):
        for _ in range(10):
            m = random_structure(E, 6, rng)
            nf, wit = normalize(m)
            assert nf.is_trivial()
            assert gauge_act(wit, m) == nf


def _section_cocycle(E, k):
    """A nonzero element of K_{2-k} that is also a cocycle (exists whenever
    HH^2_{2-k} is nonzero)."""
    from curvealg.linalg import ExactMatrix, kernel_basis
    cx = reduced_complex(E)
    data = complement_data(E, k)
    D2 = cx.delta_matrix(k, 2 - k)
    cols = [D2.apply(v) for v in data.K.basis]
    ker = kernel_basis(ExactMatrix.from_columns(cols, D2.rows))
    assert ker.dim == cx.hh_dim(2, 2 - k)
    coeffs = ker.basis[0]
    kappa = {}
    for i, c in coeffs.items():
        for j, b in data.K.basis[i].items():
            cur = kappa.get(j, rat(0)) + c * b
            if cur:
                kappa[j] = cur
            else:
                del kappa[j]
    return kappa


def test_normalize_is_projection_and_gauge_invariant():
    rng = random.Random(7)
    E = E11()
    # a flat structure with nonzero normal form: a cocycle in K at order 6
    cx = reduced_complex(E)
    kappa = _section_cocycle(E, 6)
    assert kappa
    m = AnStructure(E, 6, {6: cx.vector_to_cochain(6, -4, kappa)})
    assert is_flat(m)
    nf, wit = normalize(m)
    assert in_complement(nf)
    assert nf == m  # already on the section
    nf2, _ = normalize(nf)
    assert nf2 == nf
    # gauge invariance of the normal form
    f = random_gauge(E, 6, rng)
    nf3, _ = normalize(gauge_act(f, m))
    assert nf3 == nf


def test_normalize_strips_exact_components():
    # m3 = delta(x) completed trivially: normal form has kappa_3 = 0
    rng = random.Random(8)
    E = E21()
    f = GaugeTransform(E, 6, {2: random_gauge(E, 6, rng).component(2)})
    m = gauge_act(f, AnStructure.trivial(E, 6))
    assert not m.component(3).is_zero()
    nf, _ = normalize(m)
    assert nf.component(3).is_zero()


def test_normalize_rejects_defective_input():
    rng = random.Random(9)
    E = E11()
    cx = reduced_complex(E)
    values = {}
    for key, w in cx.basis(3, -1):
        values.setdefault(key, {})[w] = ONE
    m3 = Cochain(E, 3, -1, values)
    m = AnStructure(E, 4, {3: m3})
    if not is_flat(m):
        with pytest.raises(ValueError):
            normalize(m)


# -- equivalence ----------------------------------------------------------------------


def test_equivalent_gauge_orbit():
    rng = random.Random(10)
    E = E21()
    m = random_structure(E, 6, rng)
    f = random_gauge(E, 6, rng)
    res = equivalent(m, gauge_act(f, m))
    assert res.equal and res.hh1_verified


def test_inequivalent_nonzero_section_point():
    E = E11()
    cx = reduced_complex(E)
    kappa = _section_cocycle(E, 6)
    m = AnStructure(E, 6, {6: cx.vector_to_cochain(6, -4, kappa)})
    res = equivalent(m, AnStructure.trivial(E, 6))
    assert not res.equal and res.hh1_verified


def test_two_gauges_of_one_structure_equivalent():
    rng = random.Random(11)
    E = E11()
    m = random_structure(E, 8, rng)
    f, g = random_gauge(E, 8, rng), random_gauge(E, 8, rng)
    assert equivalent(gauge_act(f, m), gauge_act(g, m)).equal


# -- extension ---------------------------------------------------------------------------


def test_extend_trivial():
    res = extend_step(AnStructure.trivial(E11(), 5))
    assert res.solvable and res.candidate.is_zero()


def test_extension_residual_is_cocycle():
    rng = random.Random(12)
    for E in (E11(), E21()):
        for _ in range(5):
            m = random_structure(E, 5, rng)
            o = extension_residual(m)
            assert differential_apply(o).is_zero()


def test_cuspidal_structures_extend():
    # the moduli here is a smooth plane, so obstruction classes vanish even
    # though the ambient HH^3 groups do not
    rng = random.Random(13)
    E = E11()
    cx = reduced_complex(E)
    assert cx.hh_dim(3, -4) == 1  # the space itself is nonzero
    for N in (4, 5, 6):
        for _ in range(3):
            m = random_structure(E, N, rng)
            res = extend_step(m)
            assert res.solvable
            m2 = AnStructure(E, N + 1, dict(m.comps) | (
                {} if res.candidate.is_zero() else {N + 1: res.candidate}))
            assert is_flat(m2)


# -- tangent data -----------------------------------------------------------------------


def test_tangent_dims_cuspidal():
    dims = tangent_dims(E11(), 8)
    assert dims["hh2_total"] == 2
    assert dims["grassmannian"] == 0
    assert dims["total"] == 2
    assert dims["hh2_by_order"][6] == 1 and dims["hh2_by_order"][8] == 1


def test_tangent_dims_two_point():
    dims = tangent_dims(E21(), 6)
    assert dims["hh2_total"] == 3
    assert dims["grassmannian"] == 1
    assert dims["total"] == 4


def test_tangent_dims_golden_22():
    dims = tangent_dims(build_ew(SubspaceW.zero(2)), 6)
    assert dims["grassmannian"] == 0
    assert dims["hh2_by_order"] == {3: 2, 4: 4, 5: 2, 6: 2}
    assert dims["total"] == 10


# -- moduli equations ----------------------------------------------------------------------


def test_moduli_equations_empty_when_complements_vanish():
    # engineered case: orders where K = 0 give no unknowns and no equations
    E = E11()
    found = False
    for k in (3, 4, 5):
        if not complement_data(E, k).K.basis:
            found = True
    eqs = emit_moduli_equations(E, 5)
    if found and not eqs.unknowns:
        assert not eqs.equations


def test_moduli_equations_rigid_origin():
    # one line, one point: K is nonzero but the linearization has full rank,
    # so the section meets the equations only at the origin to first order
    E = build_ew(SubspaceW.full(1))
    eqs = emit_moduli_equations(E, 6)
    assert eqs.unknowns
    assert eqs.corank_at_zero() == 0


def test_moduli_equations_corank_matches_hh2():
    for E, N in ((E11(), 8), (E21(), 6)):
        cx = reduced_complex(E)
        eqs = emit_moduli_equations(E, N)
        want = sum(cx.hh_dim(2, 2 - k) for k in range(3, N + 1))
        assert eqs.corank_at_zero() == want
        jac = eqs.jacobian_at_zero()
        assert rank(jac) == len(eqs.unknowns) - want


# -- serialization ---------------------------------------------------------------------------


def test_structure_json_roundtrip_bit_exact():
    rng = random.Random(14)
    E = E21()
    m = random_structure(E, 6, rng)
    blob = json.dumps(m.to_json(), sort_keys=True)
    m2 = AnStructure.from_json(E, json.loads(blob))
    assert m2 == m
    assert json.dumps(m2.to_json(), sort_keys=True) == blob
    f = random_gauge(E, 6, rng)
    f2 = GaugeTransform.from_json(E, json.loads(json.dumps(f.to_json())))
    assert f2 == f


def test_nontrivial_section_structure_extends_and_normalizes():
    # start from a nonzero cocycle in the canonical complement at order 4 of
    # the two-point algebra (a genuine modulus, not a gauge artifact), extend
    # twice, and normalize: the result must stay on the section and stay
    # inequivalent to the trivial structure
    E = E21()
    cx = reduced_complex(E)
    kappa = _section_cocycle(E, 4)
    m = AnStructure(E, 4, {4: cx.vector_to_cochain(4, -2, kappa)})
    assert is_flat(m)
    for N in (4, 5):
        res = extend_step(m)
        assert res.solvable
        comps = dict(m.comps)
        if not res.candidate.is_zero():
            comps[N + 1] = res.candidate
        m = AnStructure(E, N + 1, comps)
        assert is_flat(m)
    nf, wit = normalize(m)
    assert in_complement(nf)
    assert not nf.is_trivial()
    assert nf.component(4) == cx.vector_to_cochain(4, -2, kappa)
    assert gauge_act(wit, m) == nf
    rng = random.Random(55)
    res = equivalent(gauge_act(random_gauge(E, 6, rng), m),
                     AnStructure.trivial(E, 6))
    assert not res.equal and res.hh1_verified


def test_hh_dims_invariant_under_rescaling():
    # E_W and E_{lambda W} are isomorphic, so every cohomology dimension
    # agrees even though the loop bases and coset coordinates differ
    from curvealg.quiver import gm_rescale
    E = build_ew(SubspaceW(2, [[1, 1]]))
    iso = gm_rescale(E, [rat(2), rat(-1, 3)])
    assert iso.intertwines()
    cxa, cxb = reduced_complex(E), reduced_complex(iso.target)
    for i in range(0, 3):
        for t in range(-4, 1):
            assert cxa.hh_dim(i, t) == cxb.hh_dim(i, t), (i, t)


def test_normal_forms_deterministic_across_instances():
    # the pivot-rule complement and the free-variables-zero solve make the
    # normal form and witness reproducible bit for bit, even on freshly
    # built algebra instances
    blobs = []
    for _ in range(2):
        E = build_ew(SubspaceW(2, [[1, 1]]))
        rng = random.Random(99)
        m = random_structure(E, 6, rng)
        nf, wit = normalize(m)
        blobs.append(json.dumps({"m": m.to_json(), "nf": nf.to_json(),
                                 "wit": wit.to_json()}, sort_keys=True))
    assert blobs[0] == blobs[1]


def test_component_bidegree_validation():
    E = E11()
    with pytest.raises(ValueError):
        AnStructure(E, 4, {3: Cochain(E, 3, -2, {})})
    with pytest.raises(ValueError):
        GaugeTransform(E, 4, {5: Cochain(E, 5, -4, {})})
