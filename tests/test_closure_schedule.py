"""The applier-yield schedule of `spinmx._span_closure` against the LIFO closure.

`_lifo_closure` is the worklist loop the schedule replaced: pop the newest
row, map it by every applier in turn, insert each image.  It is kept here as
the reference: every entry point that spins (`spin`, `spin_contains`,
`close_subspace`, `handle_spin` and the Norton spins) must return the same
subspace and the same probe verdict through either loop.
"""

import random
from itertools import chain

import pytest

from algdeg import spinmx
from algdeg.canon import (
    Bases, basis_K, basis_Mstar, basis_N, basis_U, delta, eta, predicate_Mstarstar,
    submodule,
)
from algdeg.degen import _class_projector, _reach_member, sample_in_between
from algdeg.exactla import Echelon, Subspace, combiner
from algdeg.gfield import make_field
from algdeg.spinmx import (
    _first_proper_spin, _handle_appliers, _span_closure, _structvec_appliers,
    _transpose_rows, close_subspace, dual_space_handle, handle_spin, module_handle,
    norton_irreducible, rational_generators, spin, spin_contains, standard_generators,
)
from algdeg.structvec import StructureVector, unit
from test_degen import _projection

QQ = make_field(0, 1)
# the prime fields, every field of the modulus table, and Q
CLOSURE_FIELDS = [make_field(p, k) for p, k in
                  [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                   (2, 2), (2, 3), (3, 2), (5, 2)]] + [QQ]


def _lifo_closure(seed_rows, appliers, ambient, ctx, probe=None):
    """The closure as a LIFO worklist: the newest row meets every applier at once."""
    ech = Echelon(ctx, ambient)
    residual = None if probe is None else ctx.pack(probe)
    if residual is not None and len(residual) != ambient:
        raise ValueError("probe length does not match the ambient dimension")
    queue, batch = [], seed_rows
    while True:
        for v in batch:
            added = ech.add(v)
            if added is None:
                continue
            queue.append(added)
            if residual is not None:
                residual = ech.reduce(residual)
                if ctx.lead(residual) == ambient:
                    return ech, True
        if not queue or ech.dim == ambient:
            return ech, residual is not None and ctx.lead(residual) == ambient
        r = queue.pop()
        batch = (f(r) for f in appliers)


@pytest.fixture
def both(monkeypatch):
    """run(f) -> (f() through the scheduled closure, f() through the LIFO one)."""
    def run(f):
        new = f()
        with monkeypatch.context() as m:
            m.setattr(spinmx, "_span_closure", _lifo_closure)
            old = f()
        return new, old
    return run


def _gens(ctx, n):
    return rational_generators(ctx, n) if ctx.kind == "rational" else standard_generators(ctx, n)


def _random_vector(ctx, n, rng, sub=None):
    if sub is None:
        return StructureVector(ctx, n, [ctx.from_int(rng.randrange(ctx.order or 5))
                                        for _ in range(n ** 3)])
    return StructureVector(ctx, n, combiner(sub.rows, ctx)(
        [ctx.from_int(rng.randrange(ctx.order or 5)) for _ in sub.rows]))


def _same(new, old):
    """The same verdict, and after a miss or a closure without probe the same span.

    A hit stops each loop at some partial span, which depends on the order."""
    (ech, hit), (ech_old, hit_old) = new, old
    assert hit == hit_old
    if not hit:
        assert ech.subspace().rows == ech_old.subspace().rows   # the canonical RREF


@pytest.mark.parametrize("ctx", CLOSURE_FIELDS, ids=repr)
def test_structure_vector_spins_match_the_lifo_closure(ctx, both):
    # eta spins to U and delta to N (proper), a random vector to a full spin
    # (or, over Q, to whatever the subgroup reaches)
    n, rng = 3, random.Random(ctx.order)
    gens = _gens(ctx, n)
    lams = [eta(ctx, n), delta(ctx, n), unit(ctx, n, 1, 1, 2),
            _random_vector(ctx, n, rng), _random_vector(ctx, n, rng, basis_K(ctx, n))]
    appliers = _structvec_appliers(gens)
    for lam in lams:
        new, old = both(lambda: spin(lam, gens))
        assert new == old and new.rows == old.rows
        _same(_span_closure([lam.coords], appliers, n ** 3, ctx),
              _lifo_closure([lam.coords], appliers, n ** 3, ctx))
    assert spin(eta(ctx, n), gens) <= basis_U(ctx, n)


@pytest.mark.parametrize("ctx", [make_field(3), make_field(5), make_field(2, 2)], ids=repr)
def test_spins_at_n_4_match_the_lifo_closure(ctx, both):
    gens, rng = standard_generators(ctx, 4), random.Random(4)
    for lam in (eta(ctx, 4), delta(ctx, 4), _random_vector(ctx, 4, rng)):
        new, old = both(lambda: spin(lam, gens))
        assert new.rows == old.rows


@pytest.mark.parametrize("ctx", CLOSURE_FIELDS, ids=repr)
def test_close_subspace_matches_the_lifo_closure(ctx, both):
    n, rng = 3, random.Random(11)
    gens = _gens(ctx, n)
    subs = [Subspace(ctx, n ** 3, [unit(ctx, n, 1, 1, 2).coords]) | basis_K(ctx, n),
            Subspace(ctx, n ** 3, [eta(ctx, n).coords, delta(ctx, n).coords]),
            Subspace(ctx, n ** 3, [_random_vector(ctx, n, rng, basis_Mstar(ctx, n)).coords
                                   for _ in range(2)]),
            Subspace.zero(ctx, n ** 3)]
    for sub in subs:
        new, old = both(lambda: close_subspace(sub, gens))
        assert new.rows == old.rows


def _handles(ctx, n):
    gens = _gens(ctx, n)
    lam = submodule("Lambda", ctx, n)
    mss = submodule("Mstarstar", ctx, n)
    return [module_handle(gens, basis_U(ctx, n), label="U"),
            module_handle(gens, basis_N(ctx, n), label="N"),
            module_handle(gens, basis_Mstar(ctx, n), label="M*"),
            module_handle(gens, lam, sub=mss, label="Lambda/M**"),
            dual_space_handle(gens)]


@pytest.mark.parametrize("ctx", CLOSURE_FIELDS, ids=repr)
def test_handle_spins_on_both_sides_match_the_lifo_closure(ctx, both):
    rng = random.Random(ctx.order)
    for h in _handles(ctx, 3):
        d = h.dim
        vectors = [[ctx.one()] + [ctx.zero()] * (d - 1),
                   [ctx.zero()] * (d - 1) + [ctx.one()],
                   [ctx.from_int(rng.randrange(ctx.order or 5)) for _ in range(d)]]
        action_t = [_transpose_rows(m, ctx) for m in h.action]
        for v in vectors:
            new, old = both(lambda: handle_spin(h, v))
            _same(new, old)
            for action in (h.action, action_t):
                appliers = _handle_appliers(action, ctx)
                _same(_span_closure([v], appliers, d, ctx),
                      _lifo_closure([v], appliers, d, ctx))
                new, old = both(lambda: _first_proper_spin(action, [v], d, ctx))
                assert (new is None) == (old is None)
                assert new is None or new.rows == old.rows


@pytest.mark.parametrize("ctx", [make_field(5), make_field(7), make_field(2, 3),
                                 make_field(3, 2), make_field(5, 2)], ids=repr)
def test_spin_contains_matches_the_lifo_closure(ctx, both):
    # hits: delta from delta itself and from vectors of C outside M**;
    # misses: delta from vectors of M**, which is a proper submodule
    n, rng = 3, random.Random(ctx.order)
    gens = standard_generators(ctx, n)
    target = delta(ctx, n)
    f = ctx.lead(target.coords)
    projector = _class_projector(ctx, n, f)
    assert projector
    C, mss = submodule("C", ctx, n), submodule("Mstarstar", ctx, n)
    hits = [delta(ctx, n), unit(ctx, n, 1, 1, 2) + unit(ctx, n, 1, 2, 1) + unit(ctx, n, 2, 1, 1)]
    hits += [sample_in_between(ctx, n, C, predicate_Mstarstar, rng) for _ in range(3)]
    misses = [eta(ctx, n)] + [_random_vector(ctx, n, rng, mss) for _ in range(3)]
    for lam, want in chain(((h, True) for h in hits), ((m, False) for m in misses)):
        for factors in ((), projector):
            new, old = both(lambda: spin_contains(lam, gens, target, projector=factors))
            assert new == old == want
            seeds = [lam.coords] + ([_projection(lam, factors).coords] if factors else [])
            appliers = _structvec_appliers(gens, gens.probe_elements)
            _same(_span_closure(seeds, appliers, n ** 3, ctx, probe=target.coords),
                  _lifo_closure(seeds, appliers, n ** 3, ctx, probe=target.coords))
        new, old = both(lambda: _reach_member(lam, gens, target))
        assert new == old == want


def test_rational_probes_match_the_lifo_closure(both):
    gens = rational_generators(QQ, 3)
    for lam, probe in ((eta(QQ, 3), eta(QQ, 3)), (eta(QQ, 3), delta(QQ, 3)),
                       (delta(QQ, 3), delta(QQ, 3)), (delta(QQ, 3), eta(QQ, 3))):
        new, old = both(lambda: spin_contains(lam, gens, probe))
        assert new == old


def test_a_closure_without_appliers_is_the_span_of_its_seeds():
    ctx = make_field(5)
    rows = [[1, 2, 0], [2, 4, 0], [0, 0, 3]]
    ech, hit = _span_closure(rows, [], 3, ctx, probe=[1, 2, 3])
    assert hit and ech.dim == 2
    ech, hit = _span_closure(rows, [], 3, ctx, probe=[0, 1, 0])
    assert not hit and ech.subspace() == Subspace(ctx, 3, rows)


# -- work counts --------------------------------------------------------------

def _counted(appliers):
    calls = [0]

    def wrap(f):
        def g(r):
            calls[0] += 1
            return f(r)
        return g
    return [wrap(f) for f in appliers], calls


GF5 = make_field(5)


def test_full_spin_of_n_at_5_gf5_stays_within_its_applier_budget():
    # N's handle at (5, GF(5)) from its first basis vector: the LIFO loop
    # maps nearly every new row by all four generators (272 calls for 70
    # rows), the scheduled closure 135
    h = module_handle(standard_generators(GF5, 5), basis_N(GF5, 5), label="N")
    v = [GF5.one()] + [GF5.zero()] * (h.dim - 1)
    budget = 160
    appliers, calls = _counted(_handle_appliers(h.action, GF5))
    ech, _ = _span_closure([v], appliers, h.dim, GF5)
    assert ech.dim == h.dim and calls[0] <= budget
    appliers, old_calls = _counted(_handle_appliers(h.action, GF5))
    assert _lifo_closure([v], appliers, h.dim, GF5)[0].dim == h.dim
    assert old_calls[0] >= 1.25 * budget


def test_delta_reach_probe_at_5_gf5_stays_within_its_applier_budget(monkeypatch):
    # a seeded vector of C outside M** with lam_112 = 0, so the probe for
    # delta projects lam onto 0 (4 act_coords calls) and spins from lam: 82
    # calls in the LIFO loop, 22 in the scheduled one
    n = 5
    gens = standard_generators(GF5, n)
    lam = sample_in_between(GF5, n, submodule("C", GF5, n), predicate_Mstarstar,
                            random.Random(2))
    assert lam.coords[1] == GF5.zero()
    calls = [0]
    act_coords = spinmx.act_coords

    def counting(*args):
        calls[0] += 1
        return act_coords(*args)
    monkeypatch.setattr(spinmx, "act_coords", counting)
    budget = 30
    assert _reach_member(lam, gens, delta(GF5, n))
    new_calls, calls[0] = calls[0], 0
    monkeypatch.setattr(spinmx, "_span_closure", _lifo_closure)
    assert _reach_member(lam, gens, delta(GF5, n))
    assert new_calls <= budget and calls[0] >= 1.25 * budget


def test_condensed_tests_at_8_gf3_stay_within_their_closure_budget(monkeypatch):
    # U and (N+M**)/M** at (8, GF(3)) have a smallest weight class of 3
    # vectors: spinning each of its 13 lines and one vector on the transpose
    # took 14 closures each; condensed to that class, the first draw has no
    # shift of nullity 1 and spins one kernel vector, and the second decides
    # at a shift of nullity 1 with one spin on each side
    gens, b = standard_generators(make_field(3), 8), Bases(make_field(3), 8)
    for h in (module_handle(gens, b["U"], label="U"),
              module_handle(gens, b["N"] | b["Mstarstar"], sub=b["Mstarstar"],
                            label="(N+M**)/M**")):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return _span_closure(*args, **kwargs)

        monkeypatch.setattr(spinmx, "_span_closure", counting)
        res = norton_irreducible(h)
        assert res.verdict == "irreducible", h.label
        assert res.detail == {"attempt": 1, "shift": 2, "nullity": 1}, h.label
        assert calls == [h.dim] * 3, h.label
