import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

import algdeg

from algdeg.gfield import make_field, primitive_element
from algdeg.structvec import (
    DualVector, StructureVector, Vector, act_coords, basis_vector, flat, product, unit,
    weight_classes,
)
from algdeg.canon import (
    Bases, basis_C, basis_K, basis_Mstarstar, delta, epsilon, epsilon_tilde, eta,
    predicate_C, predicate_Mstar, predicate_Mstarstar,
)
from algdeg import spinmx, structvec
from algdeg.exactla import Echelon, GroupElement
from algdeg.spinmx import rational_generators, spin, spin_contains, standard_generators
from algdeg import degen
from algdeg.degen import (
    TransvectionSpec, _alternating_radical, _class_projector, _find_span_escape_pair,
    _g5_closed_form, _independent_pair_pool, _reach_member,
    lindeg_suite, lindeg_theorem_check, q_truncate,
    reach_delta, reach_delta_suite, reach_eta, reach_eta_suite,
    sample_in_between, transvection_g5, verify_lindeg, weights,
)
from algdeg.cli import main
from oracles import zeta_bracket_row

GF3 = make_field(3)
GF4 = make_field(2, 2)
GF5 = make_field(5)


def sv(ctx, n, *terms):
    coords = [ctx.zero()] * n ** 3
    for c, i, j, k in terms:
        coords[flat(n, i, j, k)] = ctx.add(coords[flat(n, i, j, k)], ctx.from_int(c))
    return StructureVector(ctx, n, coords)


def test_q_truncate_zero_weights():
    lam = sv(GF5, 3, (2, 3, 3, 1), (1, 1, 1, 2))
    assert q_truncate(lam, [0, 0, 0]) == lam


def test_q_truncate_kills_positive_weight():
    lam = sv(GF5, 3, (1, 3, 3, 1), (1, 1, 1, 2))
    assert q_truncate(lam, [0, 0, 1]) == sv(GF5, 3, (1, 1, 1, 2))


def test_q_truncate_keeps_eta():
    lam = eta(GF5, 3)
    assert q_truncate(lam, [1, 1, 2]) == lam


def test_q_truncate_length_check():
    with pytest.raises(ValueError):
        q_truncate(eta(GF5, 3), [0, 0])
    with pytest.raises(ValueError, match="length must match the dimension"):
        lindeg_theorem_check(eta(GF5, 3), [0, 0])
    with pytest.raises(ValueError, match="needs a finite field"):
        lindeg_theorem_check(eta(make_field(0), 3), [0, 0, 0])


def test_theorem_check_ones_and_twos():
    rng = random.Random(0)
    lam = StructureVector(GF5, 3, [rng.randrange(5) for _ in range(27)])
    applicable, mw = lindeg_theorem_check(lam, [1, 1, 2])
    assert mw == 3
    assert applicable  # no negative weights, 3 < |F| - 1 = 4
    applicable, _ = lindeg_theorem_check(lam, [0, 0, 0])
    assert applicable


def test_theorem_check_gf4_example():
    lam = sv(GF4, 3, (1, 3, 3, 1), (1, 1, 1, 2))
    applicable, mw = lindeg_theorem_check(lam, [0, 0, 1])
    assert applicable and mw == 2


def test_theorem_check_rejects_negative_weight_coord():
    lam = sv(GF5, 3, (1, 1, 1, 3))  # weight 0+0-1 < 0 under q = (0,0,1)
    applicable, _ = lindeg_theorem_check(lam, [0, 0, 1])
    assert not applicable


def test_verify_lindeg_trivial_q():
    gens = standard_generators(GF5, 3)
    assert verify_lindeg(unit(GF5, 3, 1, 2, 3), [0, 0, 0], gens)


def test_verify_lindeg_requires_applicable():
    gens = standard_generators(GF3, 3)
    rng = random.Random(1)
    lam = StructureVector(GF3, 3, [rng.randrange(3) for _ in range(27)])
    with pytest.raises(ValueError):
        verify_lindeg(lam, [1, 1, 2], gens)  # max weight 3 >= |F| - 1 = 2


# max weights 0, 0, 1, 2, 3, 3, 3 and 8, four with a negative entry; each field
# takes those below |F| - 1 (GF(2) only the two of weight 0)
LINDEG_Q = [[0, 0, 0], [-1, -1, -2], [1, 1, 1], [0, 0, 1], [0, 1, -1], [1, 1, 2],
            [-1, 0, 1], [3, -2, 1]]


@pytest.mark.parametrize("ctx", [make_field(2), GF3, GF4, GF5, make_field(7), make_field(2, 3),
                                 make_field(3, 2), make_field(5, 2)], ids=repr)
def test_seeded_verify_lindeg_matches_the_full_spin(ctx):
    gens = standard_generators(ctx, 3)
    rng = random.Random(ctx.order)
    cases = 0
    for q in LINDEG_Q:
        ws = weights(q)
        if max(ws) >= ctx.order - 1:
            continue
        for _ in range(2):
            lam = StructureVector(ctx, 3, [0 if w < 0 else rng.randrange(ctx.order)
                                           for w in ws])
            assert lindeg_theorem_check(lam, q)[0]
            full = spin(lam, gens).contains(q_truncate(lam, q).coords)
            assert verify_lindeg(lam, q, gens) == full
            cases += 1
    assert cases >= 4


@pytest.fixture
def closure_dims(monkeypatch):
    """The echelon dimension at which each `spinmx._span_closure` returned."""
    dims, span_closure = [], spinmx._span_closure

    def closing(*args, **kwargs):
        ech, hit = span_closure(*args, **kwargs)
        dims.append(ech.dim)
        return ech, hit

    monkeypatch.setattr(spinmx, "_span_closure", closing)
    return dims


@pytest.mark.parametrize("q", [[0, 1, 1, 0], [0, 1, -1, 0]])
def test_verify_lindeg_hits_among_the_torus_translates(monkeypatch, closure_dims, q):
    # the projector maps lam onto the truncation, so no generator image is
    # taken: every action is one of the max_weight Lagrange factors' diagonal,
    # and the probe hits at closure dimension 2
    tags = []

    def recording(coords, g, n, ctx):
        tags.append(g.tag[0])
        return act_coords(coords, g, n, ctx)

    monkeypatch.setattr(structvec, "act_coords", recording)
    monkeypatch.setattr(spinmx, "act_coords", recording)
    gens = standard_generators(GF5, 4)
    rng = random.Random(4)
    ws = weights(q)
    for _ in range(5):
        lam = StructureVector(GF5, 4, [0 if w < 0 else rng.randrange(5) for w in ws])
        applicable, mw = lindeg_theorem_check(lam, q)
        assert applicable and q_truncate(lam, q) != lam
        tags.clear()
        assert verify_lindeg(lam, q, gens)
        assert tags and set(tags) == {"diagonal"} and len(tags) == mw and closure_dims[-1] == 2


def test_seeded_spin_contains_still_rejects_a_probe_outside():
    # eta spins to U, which does not hold delta; a projection of eta is a
    # member of U, so the closure stays U and the answer is still False,
    # whether the projection is eta itself (its own class) or 0 (delta's)
    gens = standard_generators(GF5, 3)
    for target in (eta(GF5, 3), delta(GF5, 3)):
        projector = _target_projector(target)
        assert projector
        assert not spin_contains(eta(GF5, 3), gens, delta(GF5, 3), projector=projector)
        assert spin_contains(eta(GF5, 3), gens, eta(GF5, 3), projector=projector)
    rat = make_field(0, 1)
    with pytest.raises(ValueError, match="full group"):
        spin_contains(eta(rat, 3), rational_generators(rat, 3), eta(rat, 3),
                      projector=[(GroupElement.diagonal(rat, [2, 1, 1]), rat.one(), rat.one())])


SEEDED_FIELDS = [GF5, make_field(7), make_field(2, 3), make_field(3, 2), make_field(5, 2)]
# every field of the modulus table and the primes 3..13
PROJECTED_FIELDS = [make_field(p, k) for p, k in
                    [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                     (2, 2), (2, 3), (3, 2), (5, 2)]]


def _target_projector(target):
    return _class_projector(target.ctx, target.n, target.ctx.lead(target.coords))


def _weight_class(ctx, n, f):
    """The flat indices of coordinate f's torus-weight class."""
    classes = weight_classes(ctx, n)
    return tuple(g for g, c in enumerate(classes) if c == classes[f])


def _projection(lam, projector):
    """lam*x for the product x of the factors v -> s (v*g - a v), through `act`."""
    for g, a, s in projector:
        lam = (structvec.act(lam, g) - lam.scale(a)).scale(s)
    return lam


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("ctx", PROJECTED_FIELDS, ids=repr)
def test_seeded_reach_probe_matches_the_unseeded_probe(ctx, n):
    gens, bases = standard_generators(ctx, n), Bases(ctx, n)
    rng = random.Random(ctx.order * 10 + n)
    e, d = eta(ctx, n), delta(ctx, n)
    # eta's class in another position, and 113: zero components on the classes
    eta_132 = unit(ctx, n, 1, 3, 2) - unit(ctx, n, 3, 1, 2)
    cases = [(e, e, True), (eta_132, e, True), (d, d, True), (unit(ctx, n, 1, 1, 3), d, True)]
    cases += [(sample_in_between(ctx, n, bases["Mstarstar"], predicate_Mstar, rng), e, True)
              for _ in range(3)]
    cases += [(sample_in_between(ctx, n, bases["C"], predicate_Mstarstar, rng), d, True)
              for _ in range(3)]
    # misses: delta from vectors of M**, a proper submodule
    cases += [(v, d, False) for v in [e] + [
        sample_in_between(ctx, n, bases["Mstarstar"], lambda v: False, rng) for _ in range(2)]]
    for lam, target, member in cases:
        projector = _target_projector(target)
        want = spin_contains(lam, gens, target)
        assert want == member
        # the projection is a combination of group translates of lam, so it
        # never changes the verdict, whether or not lam's class component is
        # a multiple of target
        assert spin_contains(lam, gens, target, projector=projector) == want
        assert _reach_member(lam, gens, target) == want
    assert _reach_member(eta_132, gens, e) and _reach_member(unit(ctx, n, 1, 1, 3), gens, d)


@pytest.mark.parametrize("ctx", SEEDED_FIELDS, ids=repr)
def test_seeded_delta_probe_rejects_a_vector_of_mstarstar(ctx):
    # delta lies outside M**, so no vector of M** reaches it, projected or not
    n = 3
    gens, mss = standard_generators(ctx, n), Bases(ctx, n)["Mstarstar"]
    projector = _target_projector(delta(ctx, n))
    rng = random.Random(ctx.order)
    lams = [eta(ctx, n)] + [sample_in_between(ctx, n, mss, lambda v: False, rng)
                            for _ in range(2)]
    for lam in lams:
        assert predicate_Mstarstar(lam)
        assert not spin_contains(lam, gens, delta(ctx, n))
        assert not spin_contains(lam, gens, delta(ctx, n), projector=projector)
        assert not _reach_member(lam, gens, delta(ctx, n))


@pytest.mark.parametrize("ctx", [GF3, GF4, GF5], ids=repr)
def test_reach_probe_always_takes_the_class_projector(monkeypatch, ctx):
    # every probe is seeded with lam's component on the target's class,
    # whether it is a multiple of the target, zero, or neither (123 for eta)
    n = 3
    gens, e, d = standard_generators(ctx, n), eta(ctx, n), delta(ctx, n)
    seen = []

    def recording(lam, gens, probe, projector=()):
        seen.append(projector)
        return spin_contains(lam, gens, probe, projector=projector)

    monkeypatch.setattr(degen, "spin_contains", recording)
    # off 112 but on its class over GF(3) and GF(4); over GF(5) that class is {112}
    off = {3: unit(ctx, n, 1, 2, 1) + unit(ctx, n, 2, 1, 1),
           4: unit(ctx, n, 2, 2, 1)}.get(ctx.order, unit(ctx, n, 1, 1, 3))
    cases = [(e, e), (d, d), (unit(ctx, n, 1, 2, 3), e), (e + off, e),
             (unit(ctx, n, 1, 1, 3), d), (d + off, d), (e, d)]
    unlike = 0
    for lam, target in cases:
        f = ctx.lead(target.coords)
        cls = _weight_class(ctx, n, f)
        rows = [[lam.coords[g] for g in cls], [target.coords[g] for g in cls]]
        unlike += Echelon(ctx, len(cls), rows).dim == 2 or not any(rows[0])
        seen.clear()
        assert _reach_member(lam, gens, target) == spin_contains(lam, gens, target)
        assert seen == [_class_projector(ctx, n, f)] and seen[0]
    assert unlike >= 3


def _stage_diagonals(ctx, n):
    """The tags of d_m = diag(1, ..., zeta, ..., 1), zeta primitive at m."""
    one, zeta = ctx.one(), primitive_element(ctx)
    return {("diagonal", tuple(zeta if r == m else one for r in range(n))) for m in range(n)}


def test_translate_counts():
    # every factor of a class projector acts through a stage diagonal d_m:
    # 4 for delta, and 6 for eta at n >= 4 (5 at n = 3, where the third
    # weight entry is forced), against 7 and 23 (11) torus translates
    for ctx in SEEDED_FIELDS:
        for n in (3, 4, 5):
            for target, count in ((delta(ctx, n), 4), (eta(ctx, n), 5 if n == 3 else 6)):
                projector = _target_projector(target)
                assert len(projector) == count
                assert {g.tag for g, _, _ in projector} <= _stage_diagonals(ctx, n)
    # from |F| = 3 on each field has a projector; GF(2) and Q have none
    for ctx in (GF3, GF4):
        for n in (3, 4):
            for target in (delta(ctx, n), eta(ctx, n)):
                projector = _target_projector(target)
                assert 0 < len(projector) <= (5 if target == eta(ctx, n) else 4)
                assert {g.tag for g, _, _ in projector} <= _stage_diagonals(ctx, n)
    for ctx in (make_field(2), make_field(0, 1)):
        for n in (3, 4):
            assert _target_projector(delta(ctx, n)) == ()
            assert _target_projector(eta(ctx, n)) == ()
    # over GF(7) the classes of the targets are their supports, and the
    # projectors keep exactly those coordinates of a vector with full support
    gf7, n = make_field(7), 4
    lam = StructureVector(gf7, n, [1 + g % 6 for g in range(n ** 3)])
    for target, support in ((eta(gf7, n), (flat(n, 1, 2, 3), flat(n, 2, 1, 3))),
                            (delta(gf7, n), (flat(n, 1, 1, 2),))):
        assert _weight_class(gf7, n, gf7.lead(target.coords)) == support
        assert _projection(lam, _target_projector(target)).coords == [
            x if g in support else 0 for g, x in enumerate(lam.coords)]


@pytest.mark.parametrize("ctx", [GF3, GF4, GF5, make_field(7), make_field(2, 3),
                                 make_field(3, 2), make_field(5, 2)], ids=repr)
def test_class_projector_maps_lam_onto_its_class_component(ctx):
    # through the group action, the projector keeps lam's coordinates on the
    # class of f and kills every other one, for every coordinate f
    n, rng = 3, random.Random(ctx.order)
    lam = StructureVector(ctx, n, [rng.randrange(ctx.order) for _ in range(n ** 3)])
    for f in range(n ** 3):
        kept = set(_weight_class(ctx, n, f))
        assert f in kept
        assert _projection(lam, _class_projector(ctx, n, f)).coords == [
            x if g in kept else ctx.zero() for g, x in enumerate(lam.coords)]


@pytest.mark.parametrize("target", ["delta", "eta"])
def test_reach_probe_hits_among_the_torus_translates(monkeypatch, closure_dims, target):
    # at (4, GF7) with lam's class component a nonzero multiple of the target,
    # the probe takes no generator image: each action is a stage diagonal of
    # the projector, at most 6 for eta and 4 for delta, and the probe hits at
    # closure dimension 2
    ctx, n = make_field(7), 4
    gens, bases = standard_generators(ctx, n), Bases(ctx, n)
    tags, probing = [], []

    def recording(coords, g, n, ctx):
        if probing:
            tags.append(g.tag)
        return act_coords(coords, g, n, ctx)

    def probe(*args, **kwargs):
        probing.append(True)
        try:
            return spin_contains(*args, **kwargs)
        finally:
            probing.clear()

    monkeypatch.setattr(structvec, "act_coords", recording)
    monkeypatch.setattr(spinmx, "act_coords", recording)
    monkeypatch.setattr(degen, "spin_contains", probe)
    goal = eta(ctx, n) if target == "eta" else delta(ctx, n)
    projector = _target_projector(goal)
    assert len(projector) == (6 if target == "eta" else 4)
    inside, outside = ((bases["Mstarstar"], predicate_Mstar) if target == "eta"
                       else (bases["C"], predicate_Mstarstar))
    reach = reach_eta if target == "eta" else reach_delta
    rng = random.Random(7)
    lams = [goal] + [sample_in_between(ctx, n, inside, outside, rng) for _ in range(4)]
    probed = 0
    for lam in lams:
        if not lam.coords[ctx.lead(goal.coords)]:
            continue
        tags.clear()
        cert = reach(lam, gens)
        assert cert.success and cert.spin_member
        # the target itself hits at lam, before the projection
        assert set(tags) <= _stage_diagonals(ctx, n) and len(tags) <= len(projector)
        assert closure_dims[-1] == (2 if tags else 1)
        probed += bool(tags)
    assert probed >= 2


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("ctx", PROJECTED_FIELDS, ids=repr)
def test_projected_lindeg_probe_matches_the_unseeded_probe(ctx, n):
    # applicable (lam, q) with a positive max weight; over GF(3) only
    # q = (1, ..., 1) applies, whose truncation is 0
    gens, rng, cases = standard_generators(ctx, n), random.Random(ctx.order * 10 + n), 0
    for q in ([1] * n, [0, 1] + [0] * (n - 2), [1, 0, 1] + [0] * (n - 3),
              [0, 1, -1] + [0] * (n - 3)):
        ws = weights(q)
        if max(ws) >= ctx.order - 1:
            continue
        lam = StructureVector(ctx, n, [0 if w < 0 else rng.randrange(ctx.order) for w in ws])
        assert lindeg_theorem_check(lam, q)[0]
        assert verify_lindeg(lam, q, gens) == spin_contains(lam, gens, q_truncate(lam, q))
        cases += 1
    assert cases == (1 if ctx.order == 3 else 3 if ctx.order == 4 else 4)


def test_eta_probe_over_gf4_hits_at_closure_dimension_two(monkeypatch, closure_dims):
    # over GF(4) eta's class is still {123, 213}, and its projector takes
    # stage diagonals only: the probe hits at lam and one projection
    ctx, n = GF4, 3
    gens, tags = standard_generators(ctx, n), []

    def recording(coords, g, n, ctx):
        tags.append(g.tag)
        return act_coords(coords, g, n, ctx)

    monkeypatch.setattr(spinmx, "act_coords", recording)
    e = eta(ctx, n)
    assert _weight_class(ctx, n, ctx.lead(e.coords)) == (flat(n, 1, 2, 3), flat(n, 2, 1, 3))
    assert _target_projector(e)
    lams = [e.scale(primitive_element(ctx)) + unit(ctx, n, 1, 3, 2) - unit(ctx, n, 3, 1, 2),
            e + unit(ctx, n, 1, 1, 1) + unit(ctx, n, 2, 3, 3)]
    for lam in lams:
        tags.clear()
        assert _reach_member(lam, gens, e)
        assert closure_dims[-1] == 2 and tags and set(tags) <= _stage_diagonals(ctx, n)


@pytest.mark.parametrize("ctx", [make_field(p, k) for p, k in [(2, 2), (2, 3), (3, 2), (5, 2)]],
                         ids=repr)
def test_the_cached_pair_pool_finds_the_pair_of_a_fresh_pool(monkeypatch, ctx):
    rng = random.Random(ctx.order)
    for n in (3, 4):
        mss = Bases(ctx, n)["Mstarstar"]
        lams = [eta(ctx, n)] + [sample_in_between(ctx, n, mss, predicate_Mstar, rng)
                                for _ in range(3)]
        cached = [_find_span_escape_pair(lam) for lam in lams]
        assert _independent_pair_pool(ctx, n) is _independent_pair_pool(ctx, n)
        with monkeypatch.context() as m:
            m.setattr(degen, "_independent_pair_pool", _independent_pair_pool.__wrapped__)
            fresh = [_find_span_escape_pair(lam) for lam in lams]
        assert cached == fresh
        # the certificates hand on the pool's coordinate lists, and none changes them
        gens = standard_generators(ctx, n)
        assert all(reach_eta(lam, gens).success for lam in lams)
        assert _independent_pair_pool(ctx, n) == _independent_pair_pool.__wrapped__(ctx, n)


@pytest.mark.parametrize("ctx,n", [(make_field(7), 4), (make_field(3, 2), 3)], ids=repr)
@pytest.mark.parametrize("target", ["delta", "eta"])
def test_reach_acts_through_rank_one_elements_and_one_basis_change(monkeypatch, ctx, n,
                                                                   target):
    # outside the membership probe a certificate acts through g_1, g_alpha
    # (and g_alpha2 for delta), each tagged rank-one, and through one
    # untagged element, the basis change h
    gens, bases = standard_generators(ctx, n), Bases(ctx, n)
    acts, probing = [], []

    def recording(coords, g, n, ctx):
        if not probing:
            acts.append(g)
        return act_coords(coords, g, n, ctx)

    def probe(*args, **kwargs):
        probing.append(True)
        try:
            return spin_contains(*args, **kwargs)
        finally:
            probing.clear()

    monkeypatch.setattr(structvec, "act_coords", recording)
    monkeypatch.setattr(spinmx, "act_coords", recording)
    monkeypatch.setattr(degen, "spin_contains", probe)
    goal = eta(ctx, n) if target == "eta" else delta(ctx, n)
    inside, outside = ((bases["Mstarstar"], predicate_Mstar) if target == "eta"
                       else (bases["C"], predicate_Mstarstar))
    reach = reach_eta if target == "eta" else reach_delta
    rng = random.Random(11)
    for lam in [goal] + [sample_in_between(ctx, n, inside, outside, rng) for _ in range(3)]:
        acts.clear()
        cert = reach(lam, gens)
        assert cert.success
        *transvections, h = acts
        assert h.tag is None and h.mat.rows() == cert.basis_change
        tags = [g.tag for g in transvections]
        assert len(tags) == (2 if target == "eta" else 3)
        for tag in tags:
            assert tag[:3] == ("rank-one", tuple(cert.z), tuple(cert.zeta))
        assert tags[0][3] == ctx.one()


def test_g5_pipeline_matches_hand_computation():
    # lam = 332, zeta = dual of v2, z = v3: the rescaled second difference is
    # -222 + (alpha+1)*223 + 233 + 323
    for ctx in (GF5, make_field(7)):
        for alpha in range(2, ctx.order - 1):
            lam = sv(ctx, 3, (1, 3, 3, 2))
            spec = TransvectionSpec(
                z=basis_vector(ctx, 3, 3),
                zeta=DualVector(ctx, 3, [0, 1, 0]),
                alpha=ctx.from_int(alpha))
            out = transvection_g5(lam, spec)
            expect = sv(ctx, 3, (-1, 2, 2, 2), (alpha + 1, 2, 2, 3),
                        (1, 2, 3, 3), (1, 3, 2, 3))
            assert out == expect


def test_g5_zero_vector():
    spec = TransvectionSpec(z=basis_vector(GF5, 3, 3),
                            zeta=DualVector(GF5, 3, [0, 1, 0]), alpha=2)
    out = transvection_g5(sv(GF5, 3), spec)
    assert out.is_zero()


def test_g5_collapses_on_square_zero():
    # for square-zero lam the [z,z] terms vanish:
    # bracket = zeta(u) zeta([z,v]) z + zeta(v) zeta([u,z]) z
    rng = random.Random(6)
    K = basis_K(GF5, 3)
    for _ in range(10):
        coords = [GF5.zero()] * 27
        for row in K.rows:
            coords = GF5.row_addmul(coords, row, rng.randrange(5))
        lam = StructureVector(GF5, 3, coords)
        z = basis_vector(GF5, 3, 1)
        zeta = DualVector(GF5, 3, [0, 0, 1])
        out = transvection_g5(lam, TransvectionSpec(z=z, zeta=zeta, alpha=3))
        expect = [GF5.zero()] * 27
        for i in range(1, 4):
            vi = basis_vector(GF5, 3, i)
            for j in range(1, 4):
                vj = basis_vector(GF5, 3, j)
                c = GF5.add(
                    GF5.mul(zeta.coords[i - 1], zeta(product(lam, z, vj))),
                    GF5.mul(zeta.coords[j - 1], zeta(product(lam, vi, z))))
                for k in range(1, 4):
                    expect[flat(3, i, j, k)] = GF5.mul(c, z.coords[k - 1])
        assert out.coords == expect


def test_g5_random_cross_check():
    # the pipeline/closed-form comparison inside transvection_g5 is the check;
    # run it across random data and fields
    for ctx in (GF5, GF4, GF3):
        rng = random.Random(ctx.order)
        for _ in range(50 if ctx is GF5 else 10):
            lam = StructureVector(ctx, 3, [rng.randrange(ctx.order) for _ in range(27)])
            z = Vector(ctx, 3, [1, 0, rng.randrange(ctx.order)])
            zeta = DualVector(ctx, 3, [0, 1, 0])
            alphas = [a for a in ctx.raw_elements() if a not in (0, 1)]
            alpha = alphas[rng.randrange(len(alphas))]
            out = transvection_g5(lam, TransvectionSpec(z=z, zeta=zeta, alpha=alpha))
            assert out is not None


# -- the row-kernel closed form against the scalar bracket ---------------------

G5_FIELDS = [make_field(p, k) for p, k in
             ((2, 2), (2, 3), (3, 2), (5, 2), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (0, 1))]


def _random_scalar(ctx, rng):
    if ctx.kind == "rational":
        return ctx.from_int(rng.randrange(-4, 5)) / rng.randrange(1, 4)
    return rng.randrange(ctx.order)


def _random_spec(ctx, n, rng):
    """Random z, zeta with zeta(z) = 0 and both nonzero, and alpha outside {0, 1}."""
    zero = ctx.zero()
    while True:
        z = [_random_scalar(ctx, rng) for _ in range(n)]
        zeta = [_random_scalar(ctx, rng) for _ in range(n)]
        k = next((i for i, x in enumerate(z) if x != zero), None)
        if k is None:
            continue
        zeta[k] = zero
        zeta[k] = ctx.neg(ctx.mul(DualVector(ctx, n, zeta)(Vector(ctx, n, z)), ctx.inv(z[k])))
        alpha = _random_scalar(ctx, rng)
        if any(x != zero for x in zeta) and alpha not in (zero, ctx.one()):
            return TransvectionSpec(Vector(ctx, n, z), DualVector(ctx, n, zeta), alpha)


def _g5_scalar_reference(lam, spec):
    """The bracket [u,v]_5 coordinate by coordinate, with one scalar operation at a time."""
    ctx, n = lam.ctx, lam.n
    z, zeta, alpha = spec.z, spec.zeta, spec.alpha
    add, mul = ctx.add, ctx.mul
    zz = product(lam, z, z)
    zeta_zz = zeta(zz)
    ap1 = add(alpha, ctx.one())
    units = [basis_vector(ctx, n, i) for i in range(1, n + 1)]
    viz = [zeta(product(lam, v, z)) for v in units]
    zvj = [zeta(product(lam, z, v)) for v in units]
    coords = []
    for zi, vi_z in zip(zeta.coords, viz):
        for zj, z_vj in zip(zeta.coords, zvj):
            cz = add(mul(zi, z_vj), mul(zj, vi_z))
            cz = add(cz, mul(ap1, mul(mul(zi, zj), zeta_zz)))
            czz = ctx.neg(mul(zi, zj))
            coords.extend(add(mul(cz, zk), mul(czz, zzk))
                          for zk, zzk in zip(z.coords, zz.coords))
    return StructureVector(ctx, n, coords)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("ctx", G5_FIELDS, ids=repr)
def test_g5_closed_form_matches_the_scalar_reference(ctx, n):
    rng = random.Random(1000 * n + (ctx.order or 0))
    for trial in range(6 if n < 5 else 3):
        # the zero vector first, then random ones
        lam = StructureVector(ctx, n, [_random_scalar(ctx, rng) if trial else ctx.zero()
                                       for _ in range(n ** 3)])
        spec = _random_spec(ctx, n, rng)
        want = _g5_scalar_reference(lam, spec)
        assert _g5_closed_form(lam, spec) == want
        assert transvection_g5(lam, spec) == want


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("ctx", G5_FIELDS, ids=repr)
def test_alternating_radical_reads_the_scalar_zeta_bracket(ctx, n):
    # zeta' = zeta([z, .]) from the shared contraction, against one product
    # and one evaluation per basis vector
    rng = random.Random(2000 * n + (ctx.order or 0))
    for trial in range(4):
        lam = StructureVector(ctx, n, [_random_scalar(ctx, rng) if trial else ctx.zero()
                                       for _ in range(n ** 3)])
        spec = _random_spec(ctx, n, rng)
        zeta_prime, radical = _alternating_radical(lam, spec.z, spec.zeta)
        assert zeta_prime.coords == zeta_bracket_row(lam, spec.z, spec.zeta)
        # zeta(z) = 0, so z lies in the radical exactly when zeta([z,z]) = 0
        assert radical.contains(spec.z.coords) == (zeta_prime(spec.z) == ctx.zero())


@pytest.mark.parametrize("ctx", G5_FIELDS, ids=repr)
def test_transvection_inverse_in_closed_form_is_the_rref_inverse(ctx):
    rng = random.Random(ctx.order or 0)
    for n in (3, 4, 5):
        spec = _random_spec(ctx, n, rng)
        for scale in (None, spec.alpha):
            g = spec.group_element(scale)
            assert g.inv == g.mat.inverse()
            c = ctx.one() if scale is None else scale
            assert g.tag == ("rank-one", tuple(spec.z.coords), tuple(spec.zeta.coords), c)


def test_g5_result_in_spin():
    gens = standard_generators(GF5, 3)
    rng = random.Random(77)
    for _ in range(5):
        lam = StructureVector(GF5, 3, [rng.randrange(5) for _ in range(27)])
        spec = TransvectionSpec(z=basis_vector(GF5, 3, 2),
                                zeta=DualVector(GF5, 3, [1, 0, 0]), alpha=2)
        out = transvection_g5(lam, spec)
        assert spin_contains(lam, gens, out)


def test_transvection_spec_validation():
    with pytest.raises(ValueError):
        TransvectionSpec(z=basis_vector(GF5, 3, 1),
                         zeta=DualVector(GF5, 3, [1, 0, 0]), alpha=2)
    with pytest.raises(ValueError):
        TransvectionSpec(z=basis_vector(GF5, 3, 1),
                         zeta=DualVector(GF5, 3, [0, 1, 0]), alpha=1)
    with pytest.raises(ValueError):
        TransvectionSpec(z=Vector(GF5, 3, [0, 0, 0]),
                         zeta=DualVector(GF5, 3, [0, 1, 0]), alpha=2)


def test_reach_eta_on_eta():
    gens = standard_generators(GF5, 3)
    cert = reach_eta(eta(GF5, 3), gens)
    assert cert.success and cert.branch == "symplectic"
    assert cert.spin_member


def test_reach_eta_eta_plus_eps():
    gens = standard_generators(GF5, 3)
    lam = eta(GF5, 3) + epsilon(GF5, 3, 1)
    assert predicate_Mstarstar(lam) and not predicate_Mstar(lam)
    cert = reach_eta(lam, gens)
    assert cert.success
    assert spin_contains(lam, gens, eta(GF5, 3))


def test_reach_eta_rejects_mstar():
    gens = standard_generators(GF5, 3)
    with pytest.raises(ValueError, match="lies in the span-preserving submodule"):
        reach_eta(epsilon(GF5, 3, 1), gens)
    with pytest.raises(ValueError, match="outside the square-factor submodule"):
        reach_eta(unit(GF5, 3, 1, 1, 2), gens)
    gf2 = make_field(2)
    with pytest.raises(ValueError, match=r"needs \|F\| > 2"):
        reach_eta(eta(gf2, 3), standard_generators(gf2, 3))


def test_the_pipeline_refuses_gf2():
    # no alpha of GF(2) avoids 0 and 1, so the spec comes from GF(5): the
    # refusal reads the vector's field before the spec is used
    spec = TransvectionSpec(z=basis_vector(GF5, 3, 3),
                            zeta=DualVector(GF5, 3, [0, 1, 0]), alpha=2)
    with pytest.raises(ValueError, match=r"the pipeline needs \|F\| > 2"):
        transvection_g5(eta(make_field(2), 3), spec)


def test_reach_eta_k_sample_n4_gf3():
    gens = standard_generators(GF3, 4)
    rng = random.Random(4)
    K = basis_K(GF3, 4)
    lam = sample_in_between(GF3, 4, K, predicate_Mstar, rng)
    cert = reach_eta(lam, gens)
    assert cert.success


def test_reach_delta_on_delta():
    gens = standard_generators(GF5, 3)
    cert = reach_delta(delta(GF5, 3), gens)
    assert cert.success and cert.branch == "big-field"


def test_reach_delta_symmetric_cube():
    gens = standard_generators(GF5, 3)
    lam = sv(GF5, 3, (1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1))
    assert predicate_C(lam) and not predicate_Mstarstar(lam)
    cert = reach_delta(lam, gens)
    assert cert.success
    assert spin_contains(lam, gens, delta(GF5, 3))


def test_reach_delta_gf3_branches():
    gens = standard_generators(GF3, 3)
    zero_branch = sv(GF3, 3, (1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1))
    cert = reach_delta(zero_branch, gens)
    assert cert.success and cert.branch == "gf3-zero"
    nonzero_branch = sv(GF3, 3, (1, 1, 1, 2), (2, 1, 2, 2), (2, 2, 1, 2))
    cert = reach_delta(nonzero_branch, gens)
    assert cert.success and cert.branch == "gf3-nonzero"


def test_reach_delta_gf4():
    gens = standard_generators(GF4, 3)
    rng = random.Random(9)
    lam = sample_in_between(GF4, 3, basis_C(GF4, 3), predicate_Mstarstar, rng)
    cert = reach_delta(lam, gens)
    assert cert.success and cert.branch == "big-field"


def test_reach_delta_rejects():
    gens = standard_generators(GF5, 3)
    with pytest.raises(ValueError, match="vector is not commutative"):
        reach_delta(eta(GF5, 3), gens)
    # eps_1 + eps~_1 is commutative and lies in C ^ M* = M*_(1,1) inside M**
    with pytest.raises(ValueError, match="vector lies in the square-factor submodule"):
        reach_delta(epsilon(GF5, 3, 1) + epsilon_tilde(GF5, 3, 1), gens)
    gf2 = make_field(2)
    with pytest.raises(ValueError, match=r"needs \|F\| > 2"):
        reach_delta(delta(gf2, 3), standard_generators(gf2, 3))


def test_lindeg_suite_small():
    gens = standard_generators(GF5, 3)
    rep = lindeg_suite(gens, 123, 15)
    assert rep["checked"] == 15 and not rep["failures"]


def test_lindeg_suite_lists_every_failed_sample(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(degen, "verify_lindeg", lambda lam, q, gens: False)
    rep = lindeg_suite(standard_generators(GF5, 3), 123, 4)
    assert rep["checked"] == 4 and len(rep["failures"]) == 4
    for f in rep["failures"]:
        assert set(f) == {"q", "lam", "max_weight"}
        assert lindeg_theorem_check(StructureVector.from_json(f["lam"]), f["q"]) == (
            True, f["max_weight"])
    path = tmp_path / "r.json"
    assert main(["--json", str(path), "--no-timing", "verify-all", "--n-list", "3",
                 "--fields", "5"]) == 1
    capsys.readouterr()
    claims = {c["id"]: c for c in json.loads(path.read_text())["claims"]}
    assert claims["n3.q5.degen.lindeg"]["status"] == "falsified"
    assert [c for c in claims if claims[c]["status"] != "verified"] == ["n3.q5.degen.lindeg"]


def test_reach_suites_small():
    gens, bases = standard_generators(GF5, 3), Bases(GF5, 3)
    rep = reach_eta_suite(bases, gens, 5, 5)
    assert not rep["failures"]
    rep = reach_delta_suite(bases, gens, 5, 5)
    assert not rep["failures"] and rep["branches"] == ["big-field"]


def test_reach_delta_suite_gf3_covers_branches():
    gens = standard_generators(GF3, 3)
    rep = reach_delta_suite(Bases(GF3, 3), gens, 5, 8)
    assert not rep["failures"]
    assert set(rep["branches"]) >= {"gf3-nonzero", "gf3-zero"}


# -- certificates that fail ------------------------------------------------------

GF3_BRANCH_VECTORS = {
    "gf3-zero": sv(GF3, 3, (1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1)),
    "gf3-nonzero": sv(GF3, 3, (1, 1, 1, 2), (2, 1, 2, 2), (2, 2, 1, 2)),
}
BRANCH_CASES = [(reach_eta, eta(GF5, 3) + epsilon(GF5, 3, 1), "symplectic"),
                (reach_delta, sv(GF5, 3, (1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1)),
                 "big-field")]
BRANCH_CASES += [(reach_delta, lam, branch) for branch, lam in GF3_BRANCH_VECTORS.items()]


@pytest.mark.parametrize("reach,lam,branch", BRANCH_CASES, ids=[b for _, _, b in BRANCH_CASES])
def test_a_probe_that_misses_fails_every_branch(monkeypatch, reach, lam, branch):
    gens = standard_generators(lam.ctx, lam.n)
    assert reach(lam, gens).success
    monkeypatch.setattr(degen, "_reach_member", lambda lam, gens, target: False)
    cert = reach(lam, gens)
    assert cert.branch == branch
    assert (cert.success, cert.spin_member) == (False, False)


@pytest.mark.parametrize("reach,lam,branch", BRANCH_CASES[:2], ids=["symplectic", "big-field"])
def test_a_wrong_basis_change_fails_the_certificate(monkeypatch, reach, lam, branch):
    # the GF(3) branches already end at the identity basis change, so the
    # patch below changes nothing there
    gens = standard_generators(lam.ctx, lam.n)
    ident = GroupElement.diagonal(lam.ctx, [lam.ctx.one()] * lam.n)
    assert reach(lam, gens).basis_change != ident.mat.rows()
    monkeypatch.setattr(degen, "_basis_change", lambda ctx, cols: ident)
    cert = reach(lam, gens)
    assert cert.branch == branch
    assert (cert.success, cert.spin_member) == (False, True)


@pytest.mark.parametrize("ctx", [GF3, GF5], ids=repr)
def test_the_suites_list_every_failing_vector(monkeypatch, ctx):
    # every draw goes through the module's sample_in_between, and the
    # GF(3) fixtures come first
    gens, bases = standard_generators(ctx, 3), Bases(ctx, 3)
    drawn = []

    def recording(*args):
        drawn.append(sample_in_between(*args))
        return drawn[-1]

    monkeypatch.setattr(degen, "sample_in_between", recording)
    monkeypatch.setattr(degen, "_reach_member", lambda lam, gens, target: False)
    rep = reach_eta_suite(bases, gens, 3, 4)
    assert rep == {"checked": 4, "failures": [lam.to_json() for lam in drawn]}
    drawn.clear()
    rep = reach_delta_suite(bases, gens, 3, 4)
    fixtures = list(GF3_BRANCH_VECTORS.values()) if ctx.order == 3 else []
    assert len(drawn) == 4 - len(fixtures)
    assert rep["failures"] == [lam.to_json() for lam in fixtures + drawn]
    assert rep["checked"] == 4 and rep["branches"]


def test_truncation_application_square_factor_vectors():
    # applicable ones-and-twos weights over GF(5); vectors between the two
    # span conditions also reach 123-213
    gens = standard_generators(GF5, 3)
    rng = random.Random(15)
    for _ in range(5):
        lam = sample_in_between(GF5, 3, basis_Mstarstar(GF5, 3), predicate_Mstar, rng)
        applicable, mw = lindeg_theorem_check(lam, [1, 1, 2])
        assert applicable and mw == 3
        assert verify_lindeg(lam, [1, 1, 2], gens)
        assert spin_contains(lam, gens, eta(GF5, 3))


def test_truncation_application_outside_square_factor():
    # vectors outside the square-factor submodule reach 112 in their spin
    gens = standard_generators(GF5, 3)
    rng = random.Random(16)
    for _ in range(5):
        while True:
            lam = StructureVector(GF5, 3, [rng.randrange(5) for _ in range(27)])
            if not predicate_Mstarstar(lam):
                break
        assert verify_lindeg(lam, [1, 2, 2], gens)
        assert spin_contains(lam, gens, delta(GF5, 3))


def test_proof_checks_survive_optimize():
    # under python -O the proof steps still run and still raise when broken
    script = textwrap.dedent("""
        import json, sys
        from algdeg import gamma2
        from algdeg.canon import Bases
        from algdeg.degen import reach_delta_suite
        from algdeg.gfield import make_field
        from algdeg.spinmx import standard_generators

        gf3, gf4 = make_field(3), make_field(2, 2)
        out = {"optimize": sys.flags.optimize}
        seed = gamma2.SemilinearMap.unit(gf4, 3, 1, 2)
        out["replay"] = gamma2.replay_irreducible_from(seed).reached_full
        rep = reach_delta_suite(Bases(gf3, 3), standard_generators(gf3, 3), 5, 4)
        out["delta"] = [len(rep["failures"]), rep["branches"]]
        # break one proof step: the relabeling permutations become the identity
        gamma2._perm_mapping = lambda ctx, n, want: gamma2.GroupElement.diagonal(
            ctx, [ctx.one()] * n)
        try:
            gamma2.replay_irreducible_from(seed)
            out["broken"] = "returned"
        except AssertionError:
            out["broken"] = "raised"
        print(json.dumps(out))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(algdeg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    assert out["replay"] is True
    assert out["delta"][0] == 0
    assert {"gf3-nonzero", "gf3-zero"} <= set(out["delta"][1])
    assert out["broken"] == "raised"
