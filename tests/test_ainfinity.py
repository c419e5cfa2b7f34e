"""Truncated A_n structures: gauge action, normalization, extension,
tangent data, moduli equations."""

import functools
import json
import random
from fractions import Fraction

import pytest

from curvealg import ainfinity
from curvealg.linalg import ONE, accum, kernel_basis, rank_of_columns, rat, vec_addmul
from curvealg.poly import MultiPoly
from curvealg.quiver import SubspaceW, build_ew
from curvealg.hochschild import (Cochain, HochschildComplex, _on_tuples, _sign,
                                 differential_apply, reduced_complex)
from curvealg.ainfinity import (AnStructure, GaugeTransform, complement_data,
                                defect, emit_moduli_equations, equivalent,
                                extend_step, extension_residual, gauge_act,
                                gauge_compose, gauge_inverse, is_flat,
                                normalize, random_gauge, random_structure,
                                tangent_dims)
from test_hochschild import (assert_same_composition, eval_b2, eval_multilinear,
                             fraction_delta, random_cochain)
from test_linalg import (apply, assert_primitive_rows, canonical_complement, rref,
                         solve_reference, transpose)


def E11():
    return build_ew(SubspaceW.zero(1))


def E21():
    return build_ew(SubspaceW(2, [[1, 1]]))


def E21_nonintegral():
    return build_ew(SubspaceW(2, [[rat(1, 2), rat(-2, 3)]]))


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
    f2only = GaugeTransform(E, 6, {2: f.comps[2]})
    m = gauge_act(f2only, AnStructure.trivial(E, 6))
    assert m.comps.get(3) == differential_apply(f2only.comps[2])


def test_gauge_action_law_and_inverse():
    rng = random.Random(5)
    for E in (E11(), E21()):
        for _ in range(3):
            f = random_gauge(E, 6, rng)
            g = random_gauge(E, 6, rng)
            m = random_structure(E, 6, rng)
            assert gauge_act(f, gauge_act(g, m)) == gauge_act(gauge_compose(f, g), m)
            inv = gauge_inverse(f)
            assert not gauge_compose(f, inv).comps
            assert not gauge_compose(inv, f).comps
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
        values, zero = {}, Cochain(E, r, 1 - r)
        for T in cx.tuple_keys(r, 1 - r):
            val = {}
            for k, c in f.comps.get(r, zero).values.get(T, {}).items():
                accum(val, k, -c)
            for p in range(2, r):
                hp = inv_comps.get(p)
                if hp is None:
                    continue
                for parts in _compositions(r, p):
                    ys, _ = _reference_layer(f, T, parts)
                    if ys is None:
                        continue
                    for k, c in eval_multilinear(hp, ys).items():
                        accum(val, k, -c)
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
        values, zero = {}, Cochain(E, r, 1 - r)
        for T in cx.tuple_keys(r, 1 - r):
            val = {}
            for p in range(1, r + 1):
                for parts in _compositions(r, p):
                    if p == 1:
                        term = f.comps.get(r, zero).values.get(T)
                    elif p == r:
                        term = g.comps.get(r, zero).values.get(T)
                    else:
                        ys, _ = _reference_layer(f, T, parts)
                        if ys is None:
                            continue
                        term = eval_multilinear(g.comps.get(p, Cochain(E, p, 1 - p)), ys)
                    for k, c in (term or {}).items():
                        accum(val, k, c)
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
                                mid = eval_multilinear(m.comps[q], ys[a:a + q])
                            if not mid:
                                continue
                            outer = p - q + 1
                            if outer == 1:
                                term = mid
                            elif outer in h.comps:
                                term = eval_multilinear(
                                    h.comps[outer], ys[:a] + [mid] + ys[a + q:])
                            else:
                                continue
                            sgn = _sign(sum(ydegs[:a]))
                            for k, c in term.items():
                                accum(val, k, sgn * c)
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


@pytest.mark.parametrize("E, orders", [
    (E11(), (5, 6)), (build_ew(SubspaceW(2, [[rat(1, 2), rat(-2, 3)]])), (5, 6)),
    (build_ew(SubspaceW.zero(2)), (5,))], ids=["E11", "E21-nonintegral", "E22"])
def test_gauge_action_matches_reference_path(E, orders):
    # supports with gaps and a lowest component above 2 trip the
    # support-filtered compositions and the copy of the arities below it;
    # the non-flat m has components at arities those gauges skip.  (2,2)
    # at W = 0 has two loops, so longer preimage lists; its reference at
    # order 6 takes several times as long as at 5
    rng = random.Random(15)
    for N in orders:
        full = random_gauge(E, N, rng, density=0.3)
        flat = random_structure(E, N, rng, density=0.3)
        bent = AnStructure(E, N, _random_cochains(E, range(3, N + 1), rng, 2))
        for support in ({3}, {2, 4}, {4}, set(), set(range(2, N))):
            f = GaugeTransform(E, N, {k: c for k, c in full.comps.items() if k in support})
            assert gauge_inverse(f) == _gauge_inverse_reference(f)
            assert gauge_compose(f, full) == _gauge_compose_reference(f, full)
            for m in (flat, bent):
                assert gauge_act(f, m) == _gauge_act_reference(f, m), (N, support)


def _adversarial_gauge(E, N, rng, density=0.2):
    """Seeded gauge whose entries have numerators near 10^12 over the
    coprime primes 7, 11 and 13."""
    cx = reduced_complex(E)
    comps = {}
    for k in range(2, N):
        values = {}
        for key, w in cx.basis(k, 1 - k):
            if rng.random() < density:
                num = (10 ** 12 + rng.randint(1, 999)) * rng.choice((1, -1))
                values.setdefault(key, {})[w] = rat(num, rng.choice((7, 11, 13)))
        comps[k] = Cochain(E, k, 1 - k, values)
    return GaugeTransform(E, N, comps)


def _only_fractions(*families):
    return all(type(x) is type(ONE) for fam in families for c in fam.comps.values()
               for vec in c.values.values() for x in vec.values())


def test_scaled_integer_path_matches_fraction_references():
    # order 8 on a non-integral W: the arity-8 action runs at scale L^13,
    # with L a multiple of E.denominator = 3 and of 7 * 11 * 13, and the
    # entries reach far beyond machine words
    E = E21_nonintegral()
    assert E.denominator == 3
    rng = random.Random(20)
    N = 8
    f, g = _adversarial_gauge(E, N, rng), _adversarial_gauge(E, N, rng)
    inv, comp = gauge_inverse(f), gauge_compose(f, g)
    assert inv == _gauge_inverse_reference(f)
    assert comp == _gauge_compose_reference(f, g)
    m = gauge_act(g, AnStructure.trivial(E, N))
    moved = gauge_act(f, m)
    assert 8 in moved.comps
    assert moved == _gauge_act_reference(f, m)
    nf, wit = normalize(moved)
    assert (nf, wit) == _normalize_reference(moved)
    assert nf.is_trivial() and gauge_act(wit, moved) == nf
    assert _only_fractions(inv, comp, m, moved, wit)


def test_normalize_makes_no_gauge_act_call(monkeypatch):
    # normalize reads each arity once off the action's recurrence; it never
    # re-acts on the whole structure
    rng = random.Random(21)
    E = E21()
    m = random_structure(E, 6, rng)
    want = _normalize_reference(m)
    assert want[1].comps

    def forbidden(f, m):
        raise AssertionError("normalize called gauge_act")

    monkeypatch.setattr(ainfinity, "gauge_act", forbidden)
    assert normalize(m) == want


def _with_idempotent_values(E, base, rng):
    """`base` (a dict k -> Cochain) with every basis entry whose value is a
    vertex idempotent set, so gauge values and structure values carry
    idempotent components, plus entries keyed on an idempotent: each key
    of the result with one slot replaced by an idempotent.  Those keys lie
    outside the normalized basis, where a normalized cochain is zero, so a
    path that feeds an idempotent component into a cochain without
    dropping it reads them and goes wrong."""
    cx = reduced_complex(E)
    out = {}
    for k, c in base.items():
        values = {key: dict(vec) for key, vec in c.values.items()}
        for key, w in cx.basis(c.s, c.t):
            if w in E.e_idx:
                values.setdefault(key, {})[w] = rat(rng.randint(1, 3), rng.choice([1, 2]))
        for key, vec in list(values.items()):
            for a in range(len(key)):
                for e in E.e_idx:
                    values[key[:a] + (e,) + key[a + 1:]] = dict(vec)
        out[k] = Cochain(E, c.s, c.t, values)
    return out


@pytest.mark.parametrize("E", [E11(), build_ew(SubspaceW(2, [[rat(1, 2), rat(-2, 3)]]))],
                         ids=["E11", "E21-nonintegral"])
def test_idempotent_components_are_dropped(E):
    # gauge values of arity 2 and structure values of arity >= 4 have
    # idempotent components; the block evaluator and the m'(T[i:j]) feed
    # of the morphism equation must drop them, as the reference does.
    # Neither structure is flat once the idempotent entries are added.
    rng = random.Random(16)
    N = 6
    f = GaugeTransform(E, N, _with_idempotent_values(
        E, random_gauge(E, N, rng, density=0.3).comps, rng))
    g = GaugeTransform(E, N, _with_idempotent_values(
        E, random_gauge(E, N, rng, density=0.3).comps, rng))
    bent = AnStructure(E, N, _with_idempotent_values(
        E, _random_cochains(E, range(3, N + 1), rng, 2), rng))
    gauged = AnStructure(E, N, _with_idempotent_values(
        E, random_structure(E, N, rng, density=0.3).comps, rng))
    assert 2 in f.comps and 4 in bent.comps and 4 in gauged.comps
    assert any(w in E.e_idx for vec in f.comps[2].values.values() for w in vec)
    assert gauge_compose(f, g) == _gauge_compose_reference(f, g)
    assert gauge_inverse(f) == _gauge_inverse_reference(f)
    for m in (bent, gauged):
        assert any(w in E.e_idx for vec in m.comps[4].values.values() for w in vec)
        assert gauge_act(f, m) == _gauge_act_reference(f, m)


def _with_junk_keys(E, base, rng, window=True):
    """`base` (a dict k -> Cochain) plus entries at radical keys that are
    not composable (from arity 2 on) and, if window, at composable keys
    whose degree sum lies outside the cochain's window (those of
    tuple_keys(s, t -+ 2)).  Neither lies in the normalized basis, where a
    normalized cochain is zero, so a path that builds terms from every
    stored entry reaches them and must drop what it builds there.  At
    arity 0 those keys are all the vertices, whose values become one
    random radical element, in general outside e_v E e_v."""
    cx = reduced_complex(E)
    out = {}
    for k, c in base.items():
        values = {key: dict(vec) for key, vec in c.values.items()}
        keys = []
        # every tuple of length 0 or 1 is composable
        while c.s >= 2 and len(keys) < 10:
            key = tuple(rng.choice(E.radical) for _ in range(c.s))
            if any(E.tgt[a] != E.src[b] for a, b in zip(key, key[1:])):
                keys.append(key)
        for t in (c.t - 2, c.t + 2) if window else ():
            found = cx.tuple_keys(c.s, t) if c.s else list(range(E.n + 1))
            keys += rng.sample(found, min(10, len(found)))
        for key in keys:
            values[key] = {rng.choice(E.radical): rat(rng.randint(1, 3), rng.choice([1, 2]))}
        out[k] = Cochain(E, c.s, c.t, values)
    return out


@pytest.mark.parametrize("E", [E11(), E21_nonintegral()], ids=["E11", "E21-nonintegral"])
def test_junk_keys_never_reach_the_output(E):
    # compose and inverse read a gauge only at F-blocks and keys of the
    # output tuples, as their references do.  The action and normalize
    # never read a non-composable key, nor a structure key outside its
    # window (a split of a tuple in the window has its key in the window),
    # so those give the references of the clean inputs.  A gauge key
    # outside its window can be an F-block of a tuple in the window and is
    # read, so the action's gauge carries non-composable junk only.  f has
    # an f_2, so it copies no arity; f_high has none and copies the
    # arities up to its lowest component, which keep only their
    # tuple_keys as well.  normalize's step gauges have only an f_{k-1},
    # so each step copies the witness arities below k-1, which compose
    # built on their tuple_keys.
    rng = random.Random(23)
    N = 6
    cx = reduced_complex(E)
    f0 = random_gauge(E, N, rng, density=0.3)
    assert 2 in f0.comps
    f = GaugeTransform(E, N, _with_junk_keys(E, f0.comps, rng))
    g = GaugeTransform(E, N, _with_junk_keys(
        E, random_gauge(E, N, rng, density=0.3).comps, rng))
    f_nc = GaugeTransform(E, N, _with_junk_keys(E, f0.comps, rng, window=False))
    flat = random_structure(E, N, rng, density=0.3)
    bent = AnStructure(E, N, _random_cochains(E, range(3, N + 1), rng, 2))
    outputs = [gauge_compose(f, g), gauge_inverse(f)]
    assert outputs == [_gauge_compose_reference(f, g), _gauge_inverse_reference(f)]
    for m in (flat, bent):
        moved = gauge_act(f_nc, AnStructure(E, N, _with_junk_keys(E, m.comps, rng)))
        assert moved == _gauge_act_reference(f0, m)
        outputs.append(moved)
    normal = normalize(AnStructure(E, N, _with_junk_keys(E, flat.comps, rng)))
    assert normal == _normalize_reference(flat)
    outputs += normal
    f0_high = GaugeTransform(E, N, {k: c for k, c in f0.comps.items() if k > 2})
    assert f0_high.comps
    f_high = GaugeTransform(E, N, _with_junk_keys(E, f0_high.comps, rng, window=False))
    outputs.append(gauge_compose(f_high, g))
    assert outputs[-1] == _gauge_compose_reference(f_high, g)
    for m in (flat, bent):
        moved = gauge_act(f_high, AnStructure(E, N, _with_junk_keys(E, m.comps, rng)))
        assert moved == _gauge_act_reference(f0_high, m)
        outputs.append(moved)
    for fam in outputs:
        for c in fam.comps.values():
            # each key found after the one before: a subsequence, in order
            keys = iter(cx.tuple_keys(c.s, c.t))
            assert all(T in keys for T in c.values), (c.s, c.t)


@pytest.mark.parametrize("E", [E11(), E21_nonintegral()], ids=["E11", "E21-nonintegral"])
def test_compose_matches_the_pull_reference_on_junk_keys(E):
    # the push builds terms from every stored entry, junk included, and
    # keeps only tuple_keys; an arity-0 value goes only into slots of its
    # vertex, as the pull reads it, even where it lies outside e_v E e_v
    rng = random.Random(29)
    shapes = {}
    for s in range(5):
        for t in range(-s, 2):
            c = random_cochain(E, s, t, rng)
            shapes[(s, t)] = _with_junk_keys(E, {s: c}, rng)[s]
    assert any(E.src[z] != v or E.tgt[z] != v
               for v, vec in shapes[(0, 0)].values.items() for z in vec)
    cochains = [Cochain.mul2(E)] + list(shapes.values())
    nonzero = 0
    for f in cochains:
        for g in cochains:
            nonzero += not assert_same_composition(f, g).is_zero()
    assert nonzero > 100


def test_compose_matches_the_pull_reference_on_polynomial_values(monkeypatch):
    # the unknown structure of emit_moduli_equations, whose values are
    # polynomials in the coordinates u on the complements
    E, N = E11(), 5
    seen = []
    real_defect = ainfinity.defect
    monkeypatch.setattr(ainfinity, "defect", lambda m: seen.append(m) or real_defect(m))
    emit_moduli_equations(E, N)
    (m,) = seen
    comps = {2: Cochain.mul2(E), **m.comps}
    assert set(comps) == set(range(2, N + 1))
    nonzero = 0
    for mi in comps.values():
        for mj in comps.values():
            got = assert_same_composition(mi, mj)
            nonzero += not got.is_zero()
            assert all(isinstance(c, MultiPoly) for vec in got.values.values()
                       for c in vec.values())
    assert nonzero >= 10


def _block_sums_reference(acc, family, pre, r, top):
    """The F-block sum as first pushed: each key K of family[p] is expanded
    slot by slot, slot z becoming a block of pre[z] of a size that leaves
    the later slots room to fill r exactly (pre from _slot_blocks)."""
    for p, fp in family.items():
        for K, val in fp.items() if p <= r <= p * top else ():
            if p == r:  # r blocks of one element: T = K
                vec_addmul(acc.setdefault(K, {}), 1, val)
                continue
            heads = [((), 1)]
            for a, z in enumerate(K):
                lo, hi = r - (p - a - 1) * top, r - (p - a - 1)
                sizes = pre.get(z, {})
                heads = [(T + U, c * cu) for T, c in heads
                         for j in range(max(lo - len(T), 1), hi - len(T) + 1)
                         for U, cu in sizes.get(j, ())]
            for T, c in heads:
                vec_addmul(acc.setdefault(T, {}), c, val)


def _slot_blocks(F, radset):
    """pre as the slot-by-slot reference reads it: pre[z][j] lists (U, c)
    over the entries c z of F_j(U) for radical z, and pre[z][1] is the
    block (z,) of one element with coefficient 1."""
    pre = {z: {1: [((z,), 1)]} for z in radset}
    for j, fj in F.items():
        for U, vec in fj.items():
            for z, c in vec.items():
                if z in radset:
                    pre[z].setdefault(j, []).append((U, c))
    return pre


@pytest.mark.parametrize("E", [E11(), E21(), E21_nonintegral(), build_ew(SubspaceW.zero(2))],
                         ids=["E11", "E21", "E21-nonintegral", "E22"])
def test_block_sums_match_the_slot_by_slot_reference(E):
    # a block of one element is the element itself (F_1 = id), so the
    # expansion places only the r - p extra elements, at the slots that
    # take a longer block.  On the tuple keys it sums what the slot-by-slot
    # reference sums, for r <= 7 and every top = max(F) of the gauge cut at
    # its arities, on gauge and structure families with and without junk
    # keys, on a gauge with an f_2 and on one without (where every
    # placement that needs a block of two is dead), and at r = p.
    rng = random.Random(37)
    N, density = (7, 0.3) if E.n == 1 else (6, 0.1)
    f = random_gauge(E, N, rng, density)
    gauges = [f, GaugeTransform(E, N, {k: c for k, c in f.comps.items() if k > 2})]
    families = [(random_gauge(E, N, rng, density), 1),
                (random_structure(E, N, rng, density), 2)]
    sums = {"long": 0, "r = p": 0}
    for junk in (False, True):
        for g in gauges:
            whole = {k: c.values for k, c in
                     (_with_junk_keys(E, g.comps, rng) if junk else g.comps).items()}
            for fam, shift in families:
                family = {k: c.values for k, c in
                          (_with_junk_keys(E, fam.comps, rng) if junk else fam.comps).items()}
                for top in [1, *sorted(whole)]:
                    F = {j: fj for j, fj in whole.items() if j <= top}
                    pre, slots = ainfinity._index(F, E.radical_set)[1], _slot_blocks(F, E.radical_set)
                    for r in range(1, 8):
                        got, want = {}, {}
                        ainfinity._add_block_sums(got, family, pre, r, top)
                        _block_sums_reference(want, family, slots, r, top)
                        kept = _on_tuples(E, got, r, shift - r)
                        assert kept == _on_tuples(E, want, r, shift - r), (junk, top, r)
                        if kept:
                            sums["r = p" if r in family and top == 1 else "long"] += 1
    assert sums["long"] > 100 and sums["r = p"] > 20, sums


def test_gauge_mismatch_rejected():
    with pytest.raises(ValueError):
        gauge_act(GaugeTransform.identity(E11(), 6),
                  AnStructure.trivial(E11(), 5))


# -- normalization ------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _parent_complement(E, k):
    """The splitting built from two rrefs: the pivot columns of delta, im
    spanned by delta's columns there, K = canonical_complement(im, dim), and
    the square matrix `mix` with the K basis and then the im basis as its
    columns."""
    cx = reduced_complex(E)
    D = cx.positions(fraction_delta(cx, k - 1, 2 - k), k, 2 - k)
    _, pivots = rref(transpose(D), len(D))
    im = [D[j] for j in pivots]
    K = canonical_complement(im, cx.dim(k, 2 - k))
    return pivots, im, K, K + im


def _complement_basis(E, k):
    """The basis of K_{2-k}: the standard vectors off the pivot indices of
    complement_data(E, k), in increasing order."""
    rows = complement_data(E, k).rows
    return [{i: ONE} for i in range(reduced_complex(E).dim(k, 2 - k))
            if i not in rows]


def _normalize_reference(m):
    """Two solves per step on the two-rref splitting: coordinates on
    K + im for kappa, then a preimage of the image part under delta with
    free variables zero."""
    E, N = m.E, m.N
    cx = reduced_complex(E)
    witness = GaugeTransform.identity(E, N)
    current = m
    for k in range(3, N + 1):
        mk = current.comps.get(k)
        if mk is None:
            continue
        _, _, K, mix = _parent_complement(E, k)
        v = cx.cochain_to_vector(mk)
        coords = solve_reference(mix, v)
        kappa = {}
        for i, c in coords.items():
            if i < len(K):
                for j, b in K[i].items():
                    accum(kappa, j, c * b)
        w_im = dict(v)
        for j, c in kappa.items():
            accum(w_im, j, -c)
        if not w_im:
            continue
        x = solve_reference(cx.positions(fraction_delta(cx, k - 1, 2 - k), k, 2 - k),
                            w_im)
        step = GaugeTransform(E, N, {
            k - 1: cx.vector_to_cochain(k - 1, 2 - k, {i: -c for i, c in x.items()})})
        current = gauge_act(step, current)
        witness = gauge_compose(step, witness)
    return current, witness


def _split_reference(E, k, v):
    """(kappa, x) from the coordinates of v on K + im: kappa is the K part
    and x holds the im coordinates at delta's pivot columns."""
    pivots, _, K, mix = _parent_complement(E, k)
    kappa, x = {}, {}
    for i, c in solve_reference(mix, v).items():
        if i < len(K):
            for j, b in K[i].items():
                accum(kappa, j, c * b)
        else:
            x[pivots[i - len(K)]] = c
    return kappa, x


def in_complement(m):
    """True iff every component of m lies in its canonical complement, that
    is, has no support on the pivot indices of im(delta)."""
    cx = reduced_complex(m.E)
    for k, c in m.comps.items():
        rows = complement_data(m.E, k).rows
        if any(i in rows for i in cx.cochain_to_vector(c)):
            return False
    return True


@pytest.mark.parametrize("E", [E11(), E21(), E21_nonintegral()],
                         ids=["E11", "E21", "E21-nonintegral"])
def test_complement_data_matches_two_rref_construction(E):
    rng = random.Random(18)
    cx = reduced_complex(E)
    for k in range(3, 8):
        data = complement_data(E, k)
        pivots, im, K, _ = _parent_complement(E, k)
        # delta's pivot columns are those the rows' coordinates use
        assert sorted(set().union(*(data.row(q)[1] for q in data.rows))) == pivots, k
        assert _complement_basis(E, k) == K
        R, qs = rref(im, cx.dim(k, 2 - k))
        assert sorted(data.rows) == qs
        D = cx.positions(fraction_delta(cx, k - 1, 2 - k), k, 2 - k)
        for i, q in enumerate(qs):
            row, coords = data.row(q)
            assert row == R[i]
            assert set(coords) <= set(pivots)
            assert apply(D, coords) == row
        # random vectors, their K parts, and K parts with one entry added
        # at a pivot index of im
        dim = cx.dim(k, 2 - k)
        for _ in range(10):
            v = {i: rat(rng.randint(-3, 3), rng.choice([1, 2]))
                 for i in range(dim) if rng.random() < 0.3}
            v = {i: c for i, c in v.items() if c}
            kappa, x = _split_reference(E, k, v)
            assert data.split(v) == (kappa, x)
            cases = [(v, not x), (kappa, True)]
            if qs:
                cases.append((dict(kappa) | {rng.choice(qs): ONE}, False))
            for w, inside in cases:
                m = AnStructure(E, k, {k: cx.vector_to_cochain(k, 2 - k, w)})
                assert in_complement(m) == inside


def _on_section(E, N, rng):
    """A flat order-N structure whose normal form is not trivial, gauged
    away from the section, or None if HH^2 vanishes at every order <= N."""
    cx = reduced_complex(E)
    for k in range(3, N + 1):
        if cx.hh_dim(2, 2 - k):
            break
    else:
        return None
    m = AnStructure(E, k, {k: cx.vector_to_cochain(k, 2 - k, _section_cocycle(E, k))})
    while m.N < N:
        res = extend_step(m)
        assert res.solvable
        comps = dict(m.comps)
        if not res.candidate.is_zero():
            comps[m.N + 1] = res.candidate
        m = AnStructure(E, m.N + 1, comps)
    return gauge_act(random_gauge(E, N, rng), m)


@pytest.mark.parametrize("E", [E11(), E21(),
                               build_ew(SubspaceW(2, [[rat(1, 2), rat(-2, 3)]]))],
                         ids=["E11", "E21", "E21-nonintegral"])
def test_normalize_matches_two_solve_reference(E):
    rng = random.Random(17)
    seen_section = False
    for N in (5, 6):
        cases = [random_structure(E, N, rng) for _ in range(2)]
        section = _on_section(E, N, rng)
        if section is not None:
            cases.append(section)
        for m in cases:
            nf, wit = normalize(m)
            ref_nf, ref_wit = _normalize_reference(m)
            assert nf == ref_nf and wit == ref_wit
            assert json.dumps(nf.to_json()) == json.dumps(ref_nf.to_json())
            assert json.dumps(wit.to_json()) == json.dumps(ref_wit.to_json())
            seen_section |= not nf.is_trivial()
    assert seen_section


def test_normalize_trivial():
    m = AnStructure.trivial(E11(), 6)
    nf, wit = normalize(m)
    assert nf.is_trivial()
    assert not wit.comps


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
    cx = reduced_complex(E)
    K = _complement_basis(E, k)
    D2 = cx.delta_columns(k, 2 - k)
    ker = kernel_basis([apply(D2, v) for v in K])
    assert len(ker) == cx.hh_dim(2, 2 - k)
    coeffs = ker[0]
    kappa = {}
    for i, c in coeffs.items():
        for j, b in K[i].items():
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
    f = GaugeTransform(E, 6, {2: random_gauge(E, 6, rng).comps[2]})
    m = gauge_act(f, AnStructure.trivial(E, 6))
    assert m.comps.get(3) is not None
    nf, _ = normalize(m)
    assert nf.comps.get(3) is None


def _nonzero_residuals(m):
    return sorted(r for r, c in defect(m).items() if not c.is_zero())


def _bent_at(E, k, N, rng):
    """An order-N structure whose only component m_k is not a cocycle."""
    while True:
        m = AnStructure(E, N, _random_cochains(E, [k], rng, 2))
        if _nonzero_residuals(m):
            return m


def test_normalize_rejects_defective_input():
    # the defect sits in residuals 4 and 5, only in the top residual N + 1,
    # only in a middle one, and anywhere on a non-integral algebra; each
    # structure is also tried gauged, so normalize takes steps on it
    rng = random.Random(9)
    E = E11()
    cx = reduced_complex(E)
    values = {}
    for key, w in cx.basis(3, -1):
        values.setdefault(key, {})[w] = ONE
    ones = AnStructure(E, 4, {3: Cochain(E, 3, -1, values)})
    top = _bent_at(E, 5, 5, rng)
    middle = _bent_at(E21(), 5, 6, rng)
    E2 = E21_nonintegral()
    bent = AnStructure(E2, 5, _random_cochains(E2, range(3, 6), rng, 2))
    assert _nonzero_residuals(ones) == [4, 5]
    assert _nonzero_residuals(top) == [6]
    assert _nonzero_residuals(middle) == [6]
    for m in (ones, top, middle, bent):
        assert not is_flat(m)
        for case in (m, gauge_act(random_gauge(m.E, m.N, rng), m)):
            with pytest.raises(ValueError, match="defect-free"):
                normalize(case)


@pytest.mark.parametrize("E", [E11(), E21_nonintegral()], ids=["E11", "E21-nonintegral"])
def test_gauge_action_preserves_flatness(E):
    # the action is conjugation by an invertible coalgebra morphism, so it
    # keeps the defect zero or nonzero; normalize checks flatness on its
    # output on the strength of this
    rng = random.Random(19)
    for N in (5, 6):
        flat = random_structure(E, N, rng)
        bent = AnStructure(E, N, _random_cochains(E, range(3, N + 1), rng, 2))
        cases = [(flat, True), (bent, False), (_bent_at(E, N, N, rng), False)]
        for m, want in cases:
            assert is_flat(m) == want
            for _ in range(2):
                assert is_flat(gauge_act(random_gauge(E, N, rng), m)) == want


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


def test_second_extension_assembles_no_delta(monkeypatch):
    # extend_step solves against the complex's one elimination of delta at
    # (N + 1, 1 - N): a second extension at the same (E, N) assembles none
    E = E21()
    m = random_structure(E, 5, random.Random(4))
    calls = []
    assemble = HochschildComplex.delta_columns

    def counted(cx, *args, **kwargs):
        calls.append(args)
        return assemble(cx, *args, **kwargs)

    monkeypatch.setattr(HochschildComplex, "delta_columns", counted)
    first = extend_step(m)
    assert calls
    calls.clear()
    second = extend_step(m)
    assert calls == []
    assert (second.solvable, second.candidate, second.obstruction) == \
        (first.solvable, first.candidate, first.obstruction)


def test_deep_delta_echelon_has_the_rank_pivots_and_exact_splits():
    # (2,2) at W = 0, echelon(7, -5), rank 3 420: its pivots are the pivot
    # rows of the least-row rank reduction of the same position columns
    # (both the least indices of the image's nonzero vectors), and seeded
    # splits write v = kappa + sum_j x_j delta(e_j), kappa zero at every
    # pivot; a v in the image has kappa = 0
    E = build_ew(SubspaceW.zero(2))
    cx = reduced_complex(E)
    s, t = 7, -5
    ech = cx.echelon(s, t)
    cols = cx.positions(cx.delta_columns(s, t), s + 1, t)  # D * delta
    pivots = set()
    assert rank_of_columns(cols, pivots) == len(ech) == 3420
    assert pivots == set(ech.rows)
    rng = random.Random(31)
    dim, D = cx.dim(s + 1, t), E.denominator
    probes = [{i: rat(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
               for i in rng.sample(range(dim), 60)} for _ in range(5)]
    image = {i: c / D for i, c in apply(cols, {j: rat(rng.randint(1, 4)) for j in
                                               rng.sample(range(len(cols)), 30)}).items()}
    for v in probes + [image]:
        kappa, x = ech.split(v)
        assert not set(kappa) & pivots
        whole = {i: c / D for i, c in apply(cols, x).items()}
        for i, c in kappa.items():
            accum(whole, i, c)
        assert whole == v
        assert bool(kappa) == (v is not image)


def test_delta_echelon_and_its_splits_do_no_fraction_arithmetic(monkeypatch):
    # the complex eliminates delta on ints, from the columns of D*delta:
    # building a cell's echelon and splitting Fraction vectors against it
    # adds, subtracts, multiplies and divides no Fraction, and every value
    # that leaves is a Fraction
    E = E21_nonintegral()
    assert E.denominator > 1
    cx = reduced_complex(E)
    rng = random.Random(19)
    dim = cx.dim(4, -2)
    probes = [{i: rat(rng.randint(1, 5), rng.choice([1, 2, 3])) * rng.choice([1, -1])
               for i in range(dim) if rng.random() < 0.3} for _ in range(5)]
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        def counted(a, b, op=getattr(Fraction, name), name=name):
            calls.append(name)
            return op(a, b)
        monkeypatch.setattr(Fraction, name, counted)
    ech = cx.echelon(3, -2)
    splits = [ech.split(v) for v in probes]
    monkeypatch.undo()
    assert calls == []
    assert len(ech) == cx.delta_rank(3, -2) > 0
    assert_primitive_rows(ech)
    assert all(x for _, x in splits)
    assert all(type(c) is Fraction
               for kappa, x in splits for c in [*kappa.values(), *x.values()])


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


@pytest.mark.parametrize("E", [E11(), E21()], ids=["E11", "E21"])
def test_moduli_unknowns_sit_off_the_pivots(E, monkeypatch):
    # order k has one unknown at each index off the pivots of im(delta), in
    # increasing order, and dim C^k - rank delta^{k-1} of them
    cx = reduced_complex(E)
    seen = []
    monkeypatch.setattr(ainfinity, "defect",
                        lambda m: seen.append(m) or defect(m))
    eqs = emit_moduli_equations(E, 5)
    [m] = seen
    for k in range(3, 6):
        rows = complement_data(E, k).rows
        off = [i for i in range(cx.dim(k, 2 - k)) if i not in rows]
        assert len(off) == cx.dim(k, 2 - k) - cx.delta_rank(k - 1, 2 - k)
        names = ["u_%d_%d" % (k, a) for a in range(len(off))]
        assert [(kk, a) for kk, a in eqs.unknowns if kk == k] == \
            [(k, a) for a in range(len(off))]
        assert cx.cochain_to_vector(m.comps[k]) == \
            {i: eqs.ring.var(name) for i, name in zip(off, names)}


def test_moduli_equations_rigid_origin():
    # one line, one point: K is nonzero but the linearization has full rank,
    # so the section meets the equations only at the origin to first order
    E = build_ew(SubspaceW(1, [[1]]))
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
        assert len(jac) == len(eqs.unknowns)
        assert rank_of_columns(jac) == len(eqs.unknowns) - want


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
    assert nf.comps.get(4) == cx.vector_to_cochain(4, -2, kappa)
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


def test_order_below_two_rejected():
    # structures and gauges share one constructor: both need N >= 2, built
    # directly or read from a file
    E = E11()
    for cls in (AnStructure, GaugeTransform):
        with pytest.raises(ValueError, match="order must be at least 2"):
            cls(E, -3)
        with pytest.raises(ValueError, match="order must be at least 2"):
            cls.from_json(E, {"order": 0, "components": {}})
        with pytest.raises(ValueError, match="order must be an integer"):
            cls.from_json(E, {"order": 4.0, "components": {}})
        assert cls.from_json(E, {"order": 2, "components": {}}) == cls(E, 2)


def test_component_errors_and_repr_name_their_family():
    E = E11()
    with pytest.raises(ValueError, match="component m_2 out of range"):
        AnStructure(E, 4, {2: Cochain(E, 2, 0)})
    with pytest.raises(ValueError, match="f_3 must have arity 3 and degree -2"):
        GaugeTransform(E, 4, {3: Cochain(E, 3, -1)})
    m = random_structure(E, 5, random.Random(3))
    assert repr(m) == "AnStructure(N=5, nonzero at %s)" % sorted(m.comps)
    assert repr(GaugeTransform.identity(E, 5)) == "GaugeTransform(N=5, nonzero at [])"
    assert m != GaugeTransform(E, 5) and AnStructure(E, 5) != GaugeTransform(E, 5)
