import dataclasses
import json
import random
import tracemalloc
from itertools import product as iproduct
from operator import mul

import pytest

from algdeg import spinmx
from algdeg.cli import DIM_ORDER, main
from algdeg.gfield import make_field
from algdeg.exactla import Echelon, Subspace, combiner, kernel_rows
from algdeg.gamma2 import gamma_handle
from algdeg.structvec import StructureVector, act, unit
from algdeg.canon import (
    Bases, ProjectivePoint, basis_C, basis_K, basis_Mstar, basis_MstarP, basis_N,
    basis_U, delta, epsilon, eta, expected_dims, submodule,
)
from algdeg.spinmx import (
    ModuleHandle, composition_series, close_subspace, derive_seed, dual_space_handle,
    handle_spin, hom_space, module_handle, norton_irreducible, norton_random,
    rational_generators, spin, spin_contains, standard_generators,
    survey_submodules, verify_lattice_diagrams, is_generator_stable,
)
from oracles import dual_act, dual_basis_vector, random_invertible, vector_act
from test_packed import FIELDS
from algdeg.spinmx import (
    _all_lines, _first_proper_spin, _handle_appliers, _lines_of, _random_envelope,
    _restricted_handle, _shift, _simple_types, _span_closure, _structvec_appliers,
    _transpose_rows,
)

GF3 = make_field(3)
GF4 = make_field(2, 2)
GF5 = make_field(5)
GF25 = make_field(5, 2)


def gens_for(ctx, n):
    return standard_generators(ctx, n)


def test_a_module_handle_holds_its_rows_packed():
    """N's handle at (8, GF(3)), of dim 280, holds 0.4 MB in packed reps and
    action rows; as lists of ints they take 4 MB."""
    N = Bases(GF3, 8)["N"]
    gens = gens_for(GF3, 8)
    module_handle(gens, N, label="N")        # fill the caches the appliers share
    tracemalloc.start()
    try:
        h = module_handle(gens, N, label="N")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert h.dim == N.dim == 280
    assert held < 1e6


def test_standard_generator_count():
    # x_12(1), the n-cycle, the transposition (1 2), diag(zeta, 1, ..., 1);
    # the membership probe keeps the unit transvections plus the diagonal
    for ctx, n, count, probe in ((GF3, 3, 4, 7), (GF5, 4, 4, 13), (make_field(2), 3, 3, 6)):
        gens = standard_generators(ctx, n)
        assert len(gens.elements) == count and len(gens.probe_elements) == probe
        assert [g.tag[0] for g in gens.elements[:3]] == ["transvection", "permutation",
                                                         "permutation"]


def _bfs_group_order(ctx, mats, n):
    """Size of the group the matrices generate, by BFS over right products.

    A matrix is a tuple of columns; column j of g*s sums the columns k of g
    scaled by the nonzero s_kj.
    """
    els = ctx.raw_elements()
    add = [[ctx.add(a, b) for b in els] for a in els]
    mul = [[ctx.mul(a, b) for b in els] for a in els]
    zero = ctx.zero()

    def column_terms(entries):
        return [[(k, entries[k * n + j]) for k in range(n) if entries[k * n + j] != zero]
                for j in range(n)]

    def times(g, terms):
        out = []
        for col in terms:
            acc = (zero,) * n
            for k, c in col:
                acc = tuple(add[x][mul[c][y]] for x, y in zip(acc, g[k]))
            out.append(acc)
        return tuple(out)

    gens = [column_terms(m) for m in mats]
    start = tuple(tuple(ctx.one() if i == j else zero for i in range(n)) for j in range(n))
    seen, todo = {start}, [start]
    while todo:
        g = todo.pop()
        for t in gens:
            h = times(g, t)
            if h not in seen:
                seen.add(h)
                todo.append(h)
    return len(seen)


@pytest.mark.parametrize("n, p, k, order", [
    (3, 2, 1, 168), (3, 3, 1, 11232), (4, 2, 1, 20160), (2, 2, 2, 180),
    (2, 5, 1, 480), (2, 7, 1, 2016), (2, 2, 3, 3528), (2, 3, 2, 5760)])
def test_standard_generators_generate_the_general_linear_group(n, p, k, order):
    ctx = make_field(p, k)
    q = ctx.order
    gl = 1
    for i in range(n):
        gl *= q ** n - q ** i
    assert gl == order
    gens = standard_generators(ctx, n)
    assert _bfs_group_order(ctx, [g.mat.entries for g in gens.elements], n) == order


@pytest.mark.parametrize("ctx", [c for c in FIELDS if c.kind == "finite"], ids=repr)
def test_spin_is_the_same_with_the_transvection_set(ctx):
    gens = standard_generators(ctx, 3)
    old = dataclasses.replace(gens, elements=gens.probe_elements)
    rng = random.Random(derive_seed(5, ctx.order))
    vectors = [eta(ctx, 3), delta(ctx, 3), unit(ctx, 3, 1, 2, 3)]
    vectors += [StructureVector(ctx, 3, [rng.randrange(ctx.order) if rng.random() < 0.2 else 0
                                         for _ in range(27)]) for _ in range(3)]
    for lam in vectors:
        assert spin(lam, gens) == spin(lam, old)


def test_a_witness_that_is_not_invariant_is_an_internal_error(monkeypatch, capsys):
    h = module_handle(gens_for(GF5, 3), basis_K(GF5, 3), label="K")
    e1 = [1] + [0] * (h.dim - 1)
    assert not is_generator_stable(h.preimage([e1]), gens_for(GF5, 3))
    for witness, message in (([e1], "is not invariant"), ([], "has dimension 0 of 9")):
        monkeypatch.setattr(spinmx, "_first_proper_spin",
                            lambda action, lines, d, ctx: Subspace(ctx, d, witness))
        with pytest.raises(RuntimeError, match=message):
            norton_irreducible(h)
    # through the command line the check is an internal error, exit 4
    assert main(["lattice", "--n", "3", "--field", "5"]) == 4
    assert "RuntimeError: the witness for" in capsys.readouterr().err


def test_generators_act_transitively_on_dual():
    # spinning any nonzero dual vector fills the dual space
    for ctx in (GF3, GF4, GF5):
        gens = gens_for(ctx, 3)
        h = dual_space_handle(gens)
        for lead in range(3):
            v = [ctx.zero()] * 3
            v[lead] = ctx.one()
            ech, _ = handle_spin(h, v)
            assert ech.dim == 3


def test_spin_zero():
    gens = gens_for(GF3, 3)
    assert spin([GF3.zero()] * 27, gens).dim == 0


# GF(25) at n = 3 only; the ids keep the n-ctxI form of test_spin_delta_is_N
@pytest.mark.parametrize("ctx,n", [
    pytest.param(ctx, n, id=f"{n}-ctx{i}")
    for n in (3, 4) for i, ctx in enumerate((GF3, GF4, GF5))
] + [pytest.param(GF25, 3, id="3-ctx3")])
def test_spin_eta_is_U(ctx, n):
    gens = gens_for(ctx, n)
    assert spin(eta(ctx, n), gens) == basis_U(ctx, n)


@pytest.mark.parametrize("ctx", [GF3, GF4, GF5])
@pytest.mark.parametrize("n", [3, 4])
def test_spin_delta_is_N(ctx, n):
    gens = gens_for(ctx, n)
    assert spin(delta(ctx, n), gens) == basis_N(ctx, n)


def test_spin_is_stable_and_orbit_invariant():
    rng = random.Random(31)
    gens = gens_for(GF5, 3)
    lam = eta(GF5, 3)
    s = spin(lam, gens)
    for _ in range(20):
        g = random_invertible(GF5, 3, rng)
        assert spin(act(lam, g), gens) == s
        for row in s.rows:
            assert s.contains(act(StructureVector(GF5, 3, list(row)), g).coords)


def test_close_subspace_fixed_point():
    gens = gens_for(GF5, 3)
    C = basis_C(GF5, 3)
    assert close_subspace(C, gens) == C


def test_close_112_plus_K_is_C_over_gf4():
    gens = gens_for(GF4, 3)
    s = spin(unit(GF4, 3, 1, 1, 2), gens)
    assert s | basis_K(GF4, 3) == basis_C(GF4, 3)


def test_spin_contains_probe():
    # the probe residual kept inside the closure agrees with membership in the
    # finished spin: probes met at the seed, at the last insert, or never
    for ctx in (GF3, GF4, GF5):
        gens = gens_for(ctx, 3)
        assert spin_contains(eta(ctx, 3), gens, eta(ctx, 3))
        assert not spin_contains(eta(ctx, 3), gens, delta(ctx, 3))
        lam = delta(ctx, 3)
        full = spin(lam, gens)
        rng = random.Random(7)
        for _ in range(20):
            late = combiner(full.rows, ctx)([rng.randrange(ctx.order) for _ in full.rows])
            ech, hit = _span_closure([lam.coords], _structvec_appliers(gens), 27, ctx,
                                     probe=late)
            if hit and ech.dim == full.dim:
                break
        assert hit and ech.dim == full.dim
        outside = ctx.row_addmul(late, unit(ctx, 3, 1, 2, 3).coords, ctx.one())
        for probe in (lam.coords, eta(ctx, 3).coords, unit(ctx, 3, 1, 1, 1).coords,
                      late, outside, list(full.rows[-1])):
            assert spin_contains(lam, gens, probe) == full.contains(probe)


def test_rational_spin_eta():
    # subgroup caveat: certify by checking the target is generator-stable
    # and contained in the spin
    ctx = make_field(0, 1)
    gens = rational_generators(ctx, 3)
    assert gens.subgroup_caveat
    s = spin(eta(ctx, 3), gens)
    U = basis_U(ctx, 3)
    assert U <= s and s <= U
    assert is_generator_stable(U, gens)


def test_standard_generators_reject_rationals():
    with pytest.raises(ValueError):
        standard_generators(make_field(0, 1), 3)


def test_module_handle_round_trip():
    gens = gens_for(GF5, 3)
    U = basis_U(GF5, 3)
    h = module_handle(gens, U, label="U")
    assert h.dim == 6
    # action matrices are invertible and compatible with the ambient action
    for g, m in zip(gens.elements, h.action):
        for i, rep in enumerate(h.reps):
            moved = act(StructureVector(GF5, 3, list(rep)), g)
            lifted = h.lift([m[i]])
            assert lifted.contains(moved.coords) and lifted.dim == (0 if moved.is_zero() else 1)


def test_module_handle_rejects_unstable():
    gens = gens_for(GF5, 3)
    bad = Subspace(GF5, 27, [unit(GF5, 3, 1, 2, 3).coords])
    K = basis_K(GF5, 3)
    # an unstable carrier, an unstable sub inside K, an unstable sub of the full space
    for carrier, sub, part in ((bad, None, "carrier"),
                               (K, Subspace(GF5, 27, [K.rows[0]]), "sub"),
                               (Subspace.full(GF5, 27), bad, "sub")):
        with pytest.raises(ValueError, match=f"^{part} of 'bad' is not generator-stable$"):
            module_handle(gens, carrier, sub=sub, label="bad")


# an envelope element of N over GF(4) at n = 3, one row per string
_THETA_N_GF4 = [
    "010010000000100", "110110000100010", "001001000000001", "000010000000000",
    "000010100000100", "000000010000000", "000000010100000", "000000110001100",
    "001000000000000", "110010000000000", "010000000000000", "000001000000000",
    "000100010100000", "000000000010000", "000000001000001",
]


def test_norton_lemma_one_dual_vector_decides(monkeypatch):
    """Once every line of ker(theta) spins full, the lines of ker(theta^T) spin
    all full (irreducible module) or all proper (reducible module)."""
    GF8 = make_field(2, 3)
    NM = basis_N(GF4, 3) | submodule("Mstarstar", GF4, 3)
    lam_nm = module_handle(gens_for(GF4, 3), Subspace.full(GF4, 27), sub=NM,
                           label="Lambda/(N+M**)")
    rng = random.Random(2024)
    for h, irreducible in ((lam_nm, False),
                           (gamma_handle(gens_for(GF8, 3)), True),
                           (module_handle(gens_for(GF5, 3), basis_U(GF5, 3), label="U"), True)):
        ctx, d = h.ctx, h.dim
        action_t = [_transpose_rows(m, ctx) for m in h.action]
        decided = 0
        for _ in range(300):
            theta = _random_envelope(h, rng)
            ker = kernel_rows(_transpose_rows(theta, ctx), d, ctx)
            lines = _lines_of(ker, ctx) if 0 < len(ker) < d else None
            if lines is None or _first_proper_spin(h.action, lines, d, ctx) is not None:
                continue
            ker_t = kernel_rows(theta, d, ctx)
            assert len(ker_t) == len(ker)
            full = {_first_proper_spin(action_t, [v], d, ctx) is None
                    for v in _lines_of(ker_t, ctx)}
            assert full == {irreducible}, h.label
            decided += 1
            if decided == 8:
                break
        assert decided == 8, h.label
    # on N over GF(4), the random test with this draw decides on the dual side
    # at nullity 2, where the kernel of the shift's transpose has five lines
    N = basis_N(GF4, 3)
    theta = [GF4.pack([int(c) for c in row]) for row in _THETA_N_GF4]
    monkeypatch.setattr(spinmx, "_random_envelope", lambda handle, rng: theta)
    res = norton_random(module_handle(gens_for(GF4, 3), N, label="N"))
    assert res.verdict == "reducible" and res.detail["side"] == "dual"
    assert res.detail["nullity"] == 2
    assert Subspace.zero(GF4, 27) < res.witness < N
    assert is_generator_stable(res.witness, gens_for(GF4, 3))


def test_norton_dual_space_irreducible():
    for ctx in (GF3, GF4, GF5):
        res = norton_irreducible(dual_space_handle(gens_for(ctx, 3)))
        assert res.verdict == "irreducible"


def test_norton_K_reducible_gf5():
    gens = gens_for(GF5, 3)
    h = module_handle(gens, basis_K(GF5, 3), label="K")
    res = norton_irreducible(h)
    assert res.verdict == "reducible"
    U = basis_U(GF5, 3)
    M = basis_MstarP(GF5, 3, ProjectivePoint(GF5, 1, GF5.neg(1)))
    assert res.witness in (U, M)


def test_norton_CK_quotient_irreducible_gf4():
    gens = gens_for(GF4, 3)
    h = module_handle(gens, basis_C(GF4, 3), sub=basis_K(GF4, 3), label="C/K")
    res = norton_irreducible(h)
    assert res.verdict == "irreducible"
    assert h.dim == 9


def test_norton_mstar_reducible_with_witness():
    gens = gens_for(GF3, 3)
    h = module_handle(gens, basis_Mstar(GF3, 3), label="M*")
    res = norton_irreducible(h)
    assert res.verdict == "reducible"
    # the witness must be one of the projective-line pieces
    pieces = [basis_MstarP(GF3, 3, p) for p in ProjectivePoint.enumerate(GF3)]
    assert res.witness in pieces


def test_norton_deterministic():
    gens = gens_for(GF5, 3)
    h = module_handle(gens, basis_K(GF5, 3), label="K")
    r1 = norton_irreducible(h)
    r2 = norton_irreducible(h)
    assert r1.verdict == r2.verdict and r1.witness == r2.witness


def test_the_random_test_does_not_read_the_label():
    # two handles that differ only in their display name get the same draws
    gens, N = gens_for(GF4, 3), basis_N(GF4, 3)
    r1, r2 = (norton_random(module_handle(gens, N, label=label)) for label in ("N", "other"))
    assert r1.detail == r2.detail and "attempt" in r1.detail
    assert r1.verdict == r2.verdict and r1.witness == r2.witness


def test_composition_series_K_gf5_both_refinements():
    gens = gens_for(GF5, 3)
    K = basis_K(GF5, 3)
    U = basis_U(GF5, 3)
    M = basis_MstarP(GF5, 3, ProjectivePoint(GF5, 1, GF5.neg(1)))
    zero = Subspace.zero(GF5, 27)
    assert (U & M).dim == 0 and (U | M) == K
    for mid in (U, M):
        rep = composition_series([zero, mid, K], gens)
        assert rep["certified"] and rep["conclusive"]
    rep = composition_series([zero, M, K], gens)
    assert rep["factors"][1]["dim"] == 6


def test_composition_series_rejects_non_nested():
    gens = gens_for(GF5, 3)
    with pytest.raises(ValueError):
        composition_series([basis_U(GF5, 3), Subspace.zero(GF5, 27)], gens)
    with pytest.raises(ValueError, match="a chain needs at least two terms"):
        composition_series([basis_U(GF5, 3)], gens)


def test_the_length_two_factor_is_falsified_by_an_irreducible_verdict(monkeypatch):
    # at (3, GF(4)) the factor over N + M** must split; an irreducible verdict
    # on it is the opposite one
    real = spinmx.norton_irreducible

    def calls_it_irreducible(handle):
        if handle.label == "Lambda/(N+M**)":
            return spinmx.NortonResult("irreducible", None, None, {})
        return real(handle)

    monkeypatch.setattr(spinmx, "norton_irreducible", calls_it_irreducible)
    claims = {c["id"]: c for c in verify_lattice_diagrams(Bases(GF4, 3), gens_for(GF4, 3))}
    odd = claims["LambdaOverNplusMss.odd"]
    assert odd["status"] == "falsified"
    assert odd["data"] == {"verdict": "irreducible", "dim": 6}


def test_the_kernel_vector_test_refuses_an_empty_module():
    h = module_handle(gens_for(GF5, 3), Subspace.zero(GF5, 27), label="0")
    assert h.dim == 0
    with pytest.raises(ValueError, match="empty module"):
        norton_irreducible(h)


def test_composition_series_reports_reducible_factor():
    # chain 0 < U < N < C over GF(4): first factor U is reducible there
    gens = gens_for(GF4, 3)
    chain = [Subspace.zero(GF4, 27), basis_U(GF4, 3), basis_N(GF4, 3), basis_C(GF4, 3)]
    rep = composition_series(chain, gens)
    assert not rep["certified"]
    assert rep["factors"][0]["verdict"] == "reducible"
    assert rep["factors"][0]["witness_dim"] == 3


def test_survey_mstar_gf3():
    gens = gens_for(GF3, 3)
    h = module_handle(gens, basis_Mstar(GF3, 3), label="M*")
    lattice = survey_submodules(h)
    proper = [s for s in lattice if 0 < s.dim < 6]
    expect = {basis_MstarP(GF3, 3, p) for p in ProjectivePoint.enumerate(GF3)}
    assert set(proper) == expect
    assert len(lattice) == len(expect) + 2


@pytest.mark.parametrize("name, n, ctx, count", [
    ("K", 4, GF3, 4), ("Mstarstar", 4, GF3, 12), ("C", 4, GF3, 4),
    ("Lambda", 3, GF3, 24), ("Lambda", 3, GF4, 28), ("Lambda", 3, GF5, 32),
], ids=str)
def test_survey_of_a_large_carrier_is_a_lattice_holding_the_named_submodules(name, n, ctx,
                                                                           count):
    # carriers of |F|^dim far past 2^22: the cover walk lists no line, so
    # their size does not bound the survey.  The named submodules of the
    # dimension table and the q + 1 pieces of M* inside the carrier are members
    bases = Bases(ctx, n)
    carrier = bases[name]
    lattice = survey_submodules(module_handle(gens_for(ctx, n), carrier, label=name))
    assert len(lattice) == count
    assert lattice[0].dim == 0 and lattice[-1] == carrier
    members = set(lattice)
    for i, a in enumerate(lattice):
        for b in lattice[i + 1:]:
            assert (a | b) in members and (a & b) in members
    named = [bases[m] for m in DIM_ORDER] + [bases[p] for p in ProjectivePoint.enumerate(ctx)]
    assert all(sub in members for sub in named if sub <= carrier)


def test_survey_irreducible_carrier():
    gens = gens_for(GF3, 3)
    h = module_handle(gens, basis_U(GF3, 3), label="U")
    lattice = survey_submodules(h)
    assert [s.dim for s in lattice] == [0, 6]


def test_hom_space_identity_and_zero():
    gens = gens_for(GF5, 3)
    v = dual_space_handle(gens)
    dim_end, _ = hom_space(v, v)
    assert dim_end == 1  # absolutely irreducible
    hU = module_handle(gens, basis_U(GF5, 3), label="U")
    dim_uv, _ = hom_space(hU, v)
    assert dim_uv == 0


def test_hom_space_rejects_handles_over_different_generator_sets():
    v3 = dual_space_handle(gens_for(GF5, 3))
    v4 = dual_space_handle(gens_for(GF5, 4))
    with pytest.raises(ValueError):
        hom_space(v3, v4)
    bare = dataclasses.replace(v3, gens=None)
    for other in (dataclasses.replace(dual_space_handle(gens_for(GF3, 3)), gens=None),
                  dataclasses.replace(bare, action=bare.action[:2])):
        with pytest.raises(ValueError):
            hom_space(bare, other)
    # one generator set built twice is the same set, and so is no set at all
    assert hom_space(v3, dual_space_handle(gens_for(GF5, 3)))[0] == 1
    assert hom_space(bare, dataclasses.replace(v3, gens=None))[0] == 1


@pytest.mark.parametrize("ctx", [GF5, make_field(3, 2)], ids=repr)
def test_hom_space_basis_maps_commute_with_every_generator(ctx):
    gens = gens_for(ctx, 3)
    ha = module_handle(gens, basis_Mstar(ctx, 3), label="M*")
    hb = dual_space_handle(gens)
    dim, basis = hom_space(ha, hb)
    assert dim == len(basis) == 2
    da, db = ha.dim, hb.dim
    for vec in basis:
        x = [vec[i * db:(i + 1) * db] for i in range(da)]
        for a, b in zip(ha.action, hb.action):
            assert ([list(combiner(x, ctx)(r)) for r in a]
                    == [list(combiner(b, ctx)(r)) for r in x])


@pytest.mark.parametrize("ctx,n", [(GF5, 3), (GF3, 3), (GF5, 5), (make_field(3, 2), 4)])
def test_lattice_diagrams_generic(ctx, n):
    for c in verify_lattice_diagrams(Bases(ctx, n), standard_generators(ctx, n)):
        assert c["status"] == "verified", (c["id"], c["anchor"], c["data"])


def test_lattice_diagrams_char2():
    for c in verify_lattice_diagrams(Bases(GF4, 3), standard_generators(GF4, 3)):
        assert c["status"] == "verified", (c["id"], c["anchor"], c["data"])


SPLIT_CELLS = [(make_field(7), 3), (GF3, 4), (GF5, 5)]   # char odd, not dividing n+1


@pytest.mark.parametrize("ctx,n", SPLIT_CELLS, ids=repr)
def test_the_quotient_by_mss_carries_the_verdict_of_n(ctx, n, monkeypatch):
    bases, tested = Bases(ctx, n), []

    def recording(handle):
        tested.append(handle)
        return norton_irreducible(handle)

    monkeypatch.setattr(spinmx, "norton_irreducible", recording)
    claims = {c["id"]: c for c in verify_lattice_diagrams(bases, standard_generators(ctx, n))}
    assert [h.label for h in tested].count("N") == 1
    assert not any(h.carrier == bases["Lambda"] and h.sub == bases["Mstarstar"] for h in tested)
    carried = claims["LambdaOverMss.irr"]
    assert carried["status"] == "verified"
    assert carried["data"] == {"verdict": claims["N.irr"]["data"]["verdict"],
                               "dim": expected_dims(n)["N"]}


def test_an_n_that_meets_mss_falsifies_the_quotient_claim():
    ctx, n = make_field(7), 3
    bases = Bases(ctx, n)
    bases._built["N"] = bases["U"]
    claims = {c["id"]: c for c in verify_lattice_diagrams(bases, standard_generators(ctx, n))}
    assert claims["LambdaSplit"]["status"] == "falsified"
    assert claims["LambdaOverMss.irr"]["status"] == "falsified"


@pytest.mark.parametrize("ctx,n", SPLIT_CELLS, ids=repr)
def test_the_quotient_handle_agrees_with_the_carried_verdict(ctx, n):
    # the Norton test on the quotient's own handle, which the diagrams no longer run
    bases, gens = Bases(ctx, n), standard_generators(ctx, n)
    quotient = module_handle(gens, bases["Lambda"], sub=bases["Mstarstar"], label="Lambda/M**")
    claims = {c["id"]: c for c in verify_lattice_diagrams(bases, gens)}
    verdict = norton_irreducible(quotient).verdict
    assert claims["LambdaOverMss.irr"]["data"]["verdict"] == verdict == "irreducible"


def test_lambda_over_t_catches_a_trace_matrix_with_another_kernel(monkeypatch):
    # tr~'s matrix has rank n as well, so with it in place of tr's, T is built
    # as T~, of the right dimension; only the per-vector trace tells them apart
    from algdeg import canon, structvec
    for module in (structvec, canon):
        monkeypatch.setattr(module, "tr_matrix_rows", structvec.tr_op_matrix_rows)
    claims = verify_lattice_diagrams(Bases(GF5, 3), standard_generators(GF5, 3))
    status = {c["id"]: c["status"] for c in claims}
    assert status["LambdaOverT"] == "falsified"


def test_derive_seed_stable():
    assert derive_seed(1, "x") == derive_seed(1, "x")
    assert derive_seed(1, "x") != derive_seed(1, "y")
    assert derive_seed(1, "x") != derive_seed(2, "x")


def test_survey_members_fixed_by_closure_and_meataxe_agrees():
    # soundness cross-checks on the surveyed carriers: every lattice member is
    # closure-stable, and the kernel-vector verdict matches the lattice
    gens = gens_for(GF3, 3)
    for name in ("Mstar", "U"):
        carrier = submodule(name, GF3, 3)
        h = module_handle(gens, carrier, label=name)
        lattice = survey_submodules(h)
        for s in lattice:
            if s.dim:
                assert close_subspace(s, gens) == s
        res = norton_irreducible(h)
        lattice_says_irreducible = len(lattice) == 2
        assert (res.verdict == "irreducible") == lattice_says_irreducible
        if res.verdict == "reducible":
            assert res.witness in lattice


def test_vector_spin_transitive_on_V():
    # spinning any nonzero column vector under the left action fills V
    from algdeg.spinmx import _span_closure
    from algdeg.structvec import Vector
    for ctx in (GF3, GF5):
        gens = gens_for(ctx, 3)
        appliers = [lambda r, g=g: vector_act(g, Vector(ctx, 3, r)).coords
                    for g in gens.elements]
        for lead in range(3):
            v = [ctx.zero()] * 3
            v[lead] = ctx.one()
            ech, _ = _span_closure([v], appliers, 3, ctx)
            assert ech.dim == 3


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
@pytest.mark.parametrize("n", [3, 4])
def test_dual_space_handle_matches_the_dual_action(ctx, n):
    # the handle's applier on V* against the row vector times [g], over
    # the standard generators (the rational ones over Q)
    gens = gens_for(ctx, n) if ctx.kind == "finite" else rational_generators(ctx, n)
    handle = dual_space_handle(gens)
    # V* is the piece M*_(1,0), with epsilon_1..epsilon_n as its reps
    assert handle.carrier == Bases(ctx, n)[ProjectivePoint(ctx, 1, 0)]
    assert [list(rep) for rep in handle.reps] == [
        epsilon(ctx, n, k).coords for k in range(1, n + 1)]
    for g, action in zip(gens.elements, handle.action):
        for k in range(n):
            assert list(action[k]) == dual_act(dual_basis_vector(ctx, n, k + 1), g).coords


def test_close_span_of_111_over_gf5():
    # the cyclic module of 111 is a stable submodule containing the (1,1)
    # projective piece (in fact all of C here)
    gens = gens_for(GF5, 3)
    s = spin(unit(GF5, 3, 1, 1, 1), gens)
    assert basis_MstarP(GF5, 3, ProjectivePoint(GF5, 1, 1)) <= s
    assert s == basis_C(GF5, 3)
    rng = random.Random(44)
    for _ in range(20):
        g = random_invertible(GF5, 3, rng)
        for row in s.rows:
            assert s.contains(act(StructureVector(GF5, 3, list(row)), g).coords)


def test_handle_action_matrices_invertible():
    from algdeg.exactla import Matrix
    gens = gens_for(GF5, 3)
    for name, sub in (("U", None), ("C", "N")):
        carrier = submodule(name, GF5, 3)
        subsp = submodule(sub, GF5, 3) if sub else None
        h = module_handle(gens, carrier, sub=subsp, label=name)
        for m in h.action:
            assert Matrix.from_rows(GF5, m).rank() == h.dim


def test_spin_matches_full_group_orbit_span():
    # independent oracle: the span of the orbit of lam under every invertible
    # matrix over GF(3) equals the generator-closure spin
    from itertools import product as iproduct
    from algdeg.exactla import Matrix, GroupElement
    from algdeg.structvec import act_coords
    ctx, n = GF3, 3
    gens = gens_for(ctx, n)
    group = []
    for entries in iproduct(range(3), repeat=9):
        m = Matrix(ctx, 3, 3, list(entries))
        try:
            inv = m.inverse()
        except ValueError:
            continue
        group.append(GroupElement(m, inv))
    assert len(group) == 11232  # |GL(3,3)|
    for lam in (eta(ctx, n), delta(ctx, n), unit(ctx, n, 1, 1, 1)):
        from algdeg.exactla import Echelon
        ech = Echelon(ctx, 27)
        for g in group:
            ech.add(act_coords(lam.coords, g, n, ctx))
            if ech.dim == 27:
                break
        assert ech.subspace() == spin(lam, gens)


def _brute_force_survey(handle):
    """The survey by its definition: spin every scalar line, close, lift."""
    ctx, d = handle.ctx, handle.dim
    appliers = _handle_appliers(handle.action, ctx)
    subs = {_span_closure([v], appliers, d, ctx)[0].subspace()
            for v in _all_lines(ctx, d)}
    subs |= {Subspace.zero(ctx, d), Subspace.full(ctx, d)}
    while True:
        new = {c for a in subs for b in subs for c in (a.sum(b), a.intersect(b))} - subs
        if not new:
            break
        subs |= new
    lifted = [handle.lift([list(r) for r in s.rows]) for s in subs]
    return sorted(lifted, key=lambda s: (s.dim, s.rows))


@pytest.mark.parametrize("name,ctx", [("K", GF3), ("Mstar", GF3), ("Mstar", GF4), ("U", GF5),
                                      ("Mstar(1,1)", GF25), ("Mstar(1,1)", make_field(17))])
def test_survey_matches_spinning_every_line(name, ctx):
    h = module_handle(gens_for(ctx, 3), submodule(name, ctx, 3), label=name)
    assert survey_submodules(h) == _brute_force_survey(h)


def _diag_handle(diagonal):
    d = len(diagonal)
    rows = [[int(i == j) * c for j in range(d)] for i, c in enumerate(diagonal)]
    return ModuleHandle(GF3, "diag", Subspace.full(GF3, d), None,
                        [[int(i == j) for j in range(d)] for i in range(d)], [rows], None)


@pytest.mark.parametrize("diagonal", [[1, 1], [1, 1, 2]])
def test_survey_reaches_submodules_that_are_not_cyclic(diagonal):
    # a diagonal action with a repeated eigenvalue: the eigenspace of 1 is a
    # submodule that no single vector spins to, only a sum of spins
    d = len(diagonal)
    h = _diag_handle(diagonal)
    lattice = survey_submodules(h)
    assert lattice == _brute_force_survey(h)
    assert Subspace(GF3, d, [[1, 0] + [0] * (d - 2), [0, 1] + [0] * (d - 2)]) in lattice


def _line_orbit_reps(action, ctx, d):
    """The first line, in `_all_lines` order, of each orbit of the action's group.

    A line is marked by the base-q code of its representative with first
    nonzero entry 1 (first coordinate most significant), so `_all_lines`
    order is ascending code order within each leading position.  A line's
    image is the sum of the tabled images of its first d // 2 digits and of
    the rest.  The orbit of a line still unmarked is disjoint from every
    orbit walked so far, so that line is the first of its orbit.
    """
    q, one = ctx.order, ctx.one()
    inv = [None] + [ctx.inv(c) for c in range(1, q)]
    split, places = q ** (d - d // 2), [q ** (d - 1 - i) for i in range(d)]

    def table(rows):
        times = combiner(rows, ctx)
        return [times(cs) for cs in iproduct(range(q), repeat=len(rows))] if rows else [[0] * d]

    tables = [(table(m[:d // 2]), table(m[d // 2:])) for m in action]

    def images(code):
        hi, lo = divmod(code, split)
        for high, low in tables:
            v = ctx.row_addmul(high[hi], low[lo], one)
            c = v[ctx.lead(v)]
            yield sum(map(mul, v if c == one else ctx.row_scale(v, inv[c]), places))

    seen = bytearray(q ** d)
    for start in places:
        code = seen.find(0, start, 2 * start)
        while code != -1:
            seen[code] = 1
            yield [code // p % q for p in places]
            stack = [code]
            while stack:
                for c in images(stack.pop()):
                    if not seen[c]:
                        seen[c] = 1
                        stack.append(c)
            code = seen.find(0, code + 1, 2 * start)


def _orbit_walk_survey(handle):
    """The survey as the orbit walk: spin the first line of each orbit, close under sums.

    A generator maps a spin into itself and has finite order, so every line
    of an orbit has the same spin.
    """
    ctx, d = handle.ctx, handle.dim
    appliers = _handle_appliers(handle.action, ctx)
    cyclic = {_span_closure([v], appliers, d, ctx)[0].subspace()
              for v in _line_orbit_reps(handle.action, ctx, d)}
    todo = [Subspace.zero(ctx, d)]
    subs = set(todo)
    while todo:
        s = todo.pop()
        for t in {s.sum(c) for c in cyclic} - subs:
            subs.add(t)
            todo.append(t)
    lifted = [handle.lift([list(r) for r in s.rows]) for s in subs]
    return sorted(lifted, key=lambda s: (s.dim, s.rows))


_GF9 = make_field(3, 2)


@pytest.mark.parametrize("name,ctx", [
    ("K", GF3), ("Mstar", GF3), ("Mstarstar", GF3), ("U", GF3),
    ("Mstar", GF4), ("U", GF4), ("Mstar", GF5), ("U", GF5), ("Mstar", _GF9), ("U", _GF9),
    ("Mstar", make_field(7)), ("Mstar", make_field(2, 3))])
def test_survey_matches_the_orbit_walk_at_every_seed(name, ctx):
    h = module_handle(gens_for(ctx, 3), submodule(name, ctx, 3), label=name)
    assert survey_submodules(h) == _orbit_walk_survey(h)


def test_survey_matches_the_orbit_walk_on_criterion_06():
    gens = gens_for(GF3, 3)
    for name, label in (("K", "K"), ("Mstar", "M*")):
        h = module_handle(gens, submodule(name, GF3, 3), label=label)
        assert survey_submodules(h) == _orbit_walk_survey(h)


def dimension_decided(handle):
    """The simple types of the handle's module and the survey members U != M
    with dim M/U below twice the least type dimension, each with its quotient
    handle M/U: the members `survey_submodules` settles without building one."""
    ctx, d = handle.ctx, handle.dim
    appliers = _handle_appliers(handle.action, ctx)

    def quotient(top, bottom, label):
        return _restricted_handle(handle.gens, appliers, top, bottom,
                                  f"{handle.label}:{label}", handle.classes)

    full = Subspace.full(ctx, d)
    types = _simple_types(quotient, full)
    least = min((t.dim for t in types), default=d)
    # the lattice comes back lifted; read it in handle coordinates over the reps
    reps = Echelon.from_rref(ctx, handle.carrier.ambient, handle.reps,
                             map(ctx.lead, handle.reps))
    none = Echelon(ctx, handle.carrier.ambient)
    members = [Subspace(ctx, d, [none.quotient_coords(r, reps) for r in s._ech.rows])
               for s in survey_submodules(handle)]
    decided = [(u, quotient(full, u, f"/{u.dim}")) for u in members
               if 0 < d - u.dim < 2 * least]
    return types, decided


def test_survey_of_mstar_at_gf7_builds_and_solves_only_above_the_simple_quotients(monkeypatch):
    # M* = V* + V* of dim 6, one type of dim 3: every proper member but 0
    # has a simple quotient, so the walk builds M/0 only; the two hom spaces
    # are the isomorphism test in `_simple_types` and the one into M/0
    builds, homs = [], []
    build, hom = spinmx._restricted_handle, spinmx.hom_space
    monkeypatch.setattr(spinmx, "_restricted_handle",
                        lambda *a, **k: builds.append(a[4]) or build(*a, **k))
    monkeypatch.setattr(spinmx, "hom_space", lambda ha, hb: homs.append(hb.label) or hom(ha, hb))
    ctx = make_field(7)
    lattice = survey_submodules(module_handle(gens_for(ctx, 3), submodule("Mstar", ctx, 3),
                                              label="M*"))
    assert [s.dim for s in lattice] == [0] + [3] * 8 + [6]
    assert len(builds) == 5 and builds[0] == "M*" and builds[-1] == "M*:/0"
    assert len(homs) == 2 and homs[-1] == "M*:/0"


# the five surveys of the benchmark's lattice workload, and the full space
@pytest.mark.parametrize("name,ctx,n", [
    ("K", GF3, 3), ("Mstar", GF3, 4), ("Mstar", GF5, 3), ("U", GF5, 3),
    ("Mstar", make_field(7), 3), ("Lambda", GF3, 3)])
def test_members_decided_by_dimension_have_a_simple_quotient(name, ctx, n):
    h = module_handle(gens_for(ctx, n), submodule(name, ctx, n), label=name)
    types, decided = dimension_decided(h)
    assert decided
    for u, top in decided:
        assert norton_irreducible(top).verdict == "irreducible", u.dim
        assert sum(hom_space(t, top)[0] > 0 for t in types) == 1, u.dim


@pytest.mark.parametrize("ctx", [make_field(7), make_field(2, 3), _GF9], ids=repr)
def test_mstar_survey_decides_its_copies_of_the_dual_by_dimension(ctx):
    # the lattices match the orbit walk in
    # test_survey_matches_the_orbit_walk_at_every_seed
    h = module_handle(gens_for(ctx, 3), submodule("Mstar", ctx, 3), label="M*")
    _, decided = dimension_decided(h)
    assert len(decided) == ctx.order + 1 and {u.dim for u, _ in decided} == {3}


def test_survey_refuses_an_unstable_member_it_decides_by_dimension(monkeypatch):
    # once the types are found, every cover the walk lifts is replaced by a
    # line of M* = V* + V*; no line is stable, and its quotient of dimension
    # 5 < 2 * 3 is never built, so the explicit check refuses it with the
    # error the build would raise
    ctx = make_field(7)
    h = module_handle(gens_for(ctx, 3), submodule("Mstar", ctx, 3), label="M*")
    line = Subspace(ctx, h.dim, [[1, 0, 0, 0, 0, 2]])
    assert handle_spin(h, line._ech.rows[0])[0].dim > 1
    simple_types = spinmx._simple_types

    def then_lift_to_the_line(*args):
        types = simple_types(*args)
        monkeypatch.setattr(ModuleHandle, "preimage", lambda self, rows: line)
        return types

    monkeypatch.setattr(spinmx, "_simple_types", then_lift_to_the_line)
    with pytest.raises(ValueError, match=r"^sub of 'M\*:/1' is not generator-stable$"):
        survey_submodules(h)


_GF2 = make_field(2)
# J = [[0,1],[2,0]] has minimal polynomial x^2 + 1, irreducible over GF(3),
# and the companion matrix of x^3 + x + 1 is irreducible over GF(2): F^e under
# either is simple with endomorphisms GF(q^e), and not absolutely irreducible
_BLOCKS = {"J": (GF3, [[0, 1], [2, 0]]), "C3": (_GF2, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])}


def _copies_handle(block, copies):
    """The block-diagonal action of `copies` copies of a block, as a handle on F^d."""
    ctx, m = _BLOCKS[block]
    e = len(m)
    d = e * copies
    action = [[0] * d for _ in range(d)]
    for b in range(0, d, e):
        for i in range(e):
            action[b + i][b:b + e] = m[i]
    ident = [[int(i == j) for j in range(d)] for i in range(d)]
    return ModuleHandle(ctx, f"{block}x{copies}", Subspace.full(ctx, d), None, ident,
                        [action], None)


@pytest.mark.parametrize("block,copies,members,simple", [
    pytest.param("J", 2, 12, 10, id="2-12-10"), pytest.param("J", 3, 184, 91, id="3-184-91"),
    ("C3", 1, 2, 1), ("C3", 2, 11, 9)])
def test_survey_of_copies_of_a_factor_that_is_not_absolutely_irreducible(block, copies,
                                                                         members, simple):
    # the submodules of `copies` copies of a block of size e are the
    # GF(q^e)-subspaces of GF(q^e)^copies; `simple` counts those of dimension e
    h = _copies_handle(block, copies)
    e = len(_BLOCKS[block][1])
    lattice = survey_submodules(h)
    assert len(lattice) == members
    assert sum(s.dim == e for s in lattice) == simple
    assert lattice == _brute_force_survey(h)


@pytest.mark.parametrize("make", [
    lambda: _copies_handle("J", 1), lambda: _copies_handle("J", 2),
    lambda: _copies_handle("J", 3), lambda: _diag_handle([1, 1]),
    lambda: _copies_handle("C3", 1), lambda: _copies_handle("C3", 2)],
    ids=["J", "JJ", "JJJ", "diag11", "C3", "C3C3"])
def test_norton_on_modules_that_are_not_absolutely_irreducible(make):
    # no shift of a draw here has a kernel of 1..LINE_CAP lines that is not
    # the whole space, so the first NORTON_ATTEMPTS draws are all redrawn and
    # the general draws decide; the module is reducible exactly when some
    # line spins to a proper submodule
    h = make()
    ctx, d = h.ctx, h.dim
    brute = _first_proper_spin(h.action, _all_lines(ctx, d), d, ctx)
    appliers = _handle_appliers(h.action, ctx)
    res = norton_irreducible(h)
    assert res.detail["attempt"] >= spinmx.NORTON_ATTEMPTS
    assert res.verdict == ("irreducible" if brute is None else "reducible")
    if res.verdict == "reducible":
        wit = Subspace(ctx, d, res.witness_coords)
        assert 0 < wit.dim < d
        assert all(wit.contains(f(r)) for f in appliers for r in wit.rows)
        assert res.witness == h.preimage(res.witness_coords)


@pytest.mark.parametrize("name,ctx,verdict", [
    ("K", GF3, "reducible"), ("Mstar", GF4, "reducible"), ("U", GF5, "irreducible")])
def test_general_draws_alone_decide_the_canonical_modules(monkeypatch, name, ctx, verdict):
    # every draw general: the modules the exhaustive test was checked on keep
    # their verdicts, and a witness is a proper submodule; the handles are
    # graded, so the random test is called by name
    h = module_handle(gens_for(ctx, 3), submodule(name, ctx, 3), label=name)
    shift, draws = spinmx._shift, []

    def general(theta, ctx, _):
        draws.append(theta)
        return shift(theta, ctx, True)

    monkeypatch.setattr(spinmx, "_shift", general)
    res = norton_random(h)
    assert res.verdict == verdict
    if verdict == "reducible":
        assert Subspace.zero(ctx, 27) < res.witness < h.carrier
        assert is_generator_stable(res.witness, h.gens)
    assert draws


def _counting_closures(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return _span_closure(*args, **kwargs)

    monkeypatch.setattr(spinmx, "_span_closure", counting)
    return calls


def _recording_root_shifts(monkeypatch):
    """Patch `_root_shifts` to record (shift key, nullity) of each shift the test takes."""
    taken, root_shifts = [], spinmx._root_shifts

    def recording(theta, ctx):
        for key, shifted, ker in root_shifts(theta, ctx):
            taken.append((key, len(ker)))
            yield key, shifted, ker

    monkeypatch.setattr(spinmx, "_root_shifts", recording)
    return taken


def test_a_first_draw_decides_only_at_a_shift_of_nullity_one(monkeypatch):
    # the semilinear module at (3, GF(8)): the first draw has the eigenvalues
    # 0 and 1 in F, both of nullity 3, whose 73 lines the test does not spin;
    # one spin of the first kernel vector at shift 0 is full, and the second
    # draw, whose eigenvalue 0 has nullity 4, decides at its next one, 1, of
    # nullity 1, with one spin on the module and one on the transpose
    h = gamma_handle(gens_for(make_field(2, 3), 3))
    taken = _recording_root_shifts(monkeypatch)
    calls = _counting_closures(monkeypatch)
    res = norton_random(h)
    assert res.verdict == "irreducible"
    assert res.detail == {"attempt": 1, "shift": 1, "nullity": 1}
    assert taken == [({"shift": 0}, 3), ({"shift": 1}, 3), ({"shift": 0}, 4), ({"shift": 1}, 1)]
    assert calls == [9, 9, 9]


def _two_dual_copies(ctx, n):
    """V* (+) V* as an ungraded handle on F^(2n): each action matrix twice on the diagonal."""
    dual = dual_space_handle(gens_for(ctx, n))
    zero = [0] * n
    action = [[ctx.pack(list(r) + zero) for r in m] + [ctx.pack(zero + list(r)) for r in m]
              for m in dual.action]
    ident = [ctx.pack([int(i == j) for j in range(2 * n)]) for i in range(2 * n)]
    return ModuleHandle(ctx, "V*+V*", Subspace.full(ctx, 2 * n), None, ident, action, None)


def test_two_dual_copies_split_at_a_first_kernel_vector_before_the_general_draws(monkeypatch):
    # every envelope element is A (+) A, so every root shift has an even
    # nullity of at least 2 and no first draw decides; at nullity 2 (A - a of
    # nullity 1, kernel u (x) F^2) every kernel vector lies in one of the q + 1
    # copies of V*, so the one vector spun gives a checked witness of
    # dimension n before the general draws
    ctx, n = GF3, 3
    h = _two_dual_copies(ctx, n)
    taken = _recording_root_shifts(monkeypatch)
    calls = _counting_closures(monkeypatch)
    res = norton_irreducible(h)
    nullities = [k for _, k in taken]
    assert res.verdict == "reducible" and res.detail["side"] == "module"
    assert res.detail["attempt"] < spinmx.NORTON_ATTEMPTS
    assert nullities and min(nullities) >= 2 and all(k % 2 == 0 for k in nullities)
    assert res.detail["nullity"] == 2
    assert len(calls) <= res.detail["attempt"] + 1      # one spin per draw at most
    wit = Subspace(ctx, 2 * n, res.witness_coords)
    assert wit.dim == n and res.witness == wit
    assert all(wit.contains(f(r)) for f in _handle_appliers(h.action, ctx) for r in wit.rows)


def _block_sum(ctx, *blocks):
    """The block-diagonal matrix of square blocks of integers, read in ctx, as packed rows."""
    d = sum(map(len, blocks))
    rows, at = [], 0
    for b in blocks:
        rows += [[0] * at + [ctx.from_int(x) for x in r] + [0] * (d - at - len(b)) for r in b]
        at += len(b)
    return [ctx.pack(r) for r in rows]


CUBIC = [[0, 1, 0], [0, 0, 1], [2, 1, 0]]    # companion of x^3 + 2x + 1, irreducible over GF(3)
QUADRATIC = [[0, 1], [2, 0]]                  # companion of x^2 + 1, irreducible over GF(3)


def test_general_shift_stops_at_the_least_degree_with_a_kernel():
    # theta = CUBIC (+) diag(1, 2) has the eigenvalues 1 and 2 in GF(3),
    # e_1's cyclic subspace (the cubic block) none: each draw decides at the
    # first one, 1, of nullity 1, on its one kernel vector
    theta = _block_sum(GF3, CUBIC, [[1]], [[2]])
    for general in (False, True):
        key, shifted, ker, lines = _shift(theta, GF3, general)
        assert key == {"shift": 1} and ker == [GF3.pack([0, 0, 0, 1, 0])] and lines == ker
    # with no eigenvalue in F the degree shift is taken at the least e with a
    # kernel: QUADRATIC (+) CUBIC stops at e = 2 with the quadratic block as
    # its kernel, where nullity e makes one vector decide
    theta = _block_sum(GF3, QUADRATIC, CUBIC)
    assert _shift(theta, GF3, general=False) is None
    key, _, ker, lines = _shift(theta, GF3, general=True)
    assert key == {"degree": 2} and len(lines) == 1
    assert Subspace(GF3, 5, ker) == Subspace(GF3, 5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    # two quadratic blocks give nullity 4 at e = 2, and all 40 lines decide
    key, _, ker, lines = _shift(_block_sum(GF3, QUADRATIC, QUADRATIC, CUBIC), GF3, general=True)
    assert key == {"degree": 2} and len(ker) == 4 and len(lines) == 40
    assert {Subspace(GF3, 7, [v]) for v in lines} == {
        Subspace(GF3, 7, [list(v) + [0, 0, 0]]) for v in _all_lines(GF3, 4)}
    # the cubic block alone is a field element of degree 3
    key, _, ker, lines = _shift(_block_sum(GF3, CUBIC), GF3, general=True)
    assert key == {"degree": 3} and len(ker) == 3 and len(lines) == 1


def _brute_eigenvalues(theta, ctx):
    """{a: lines of ker(theta - a*I)} over the a in F with a nonzero kernel, by
    testing every line v of F^d for v theta = a v."""
    times_theta = combiner(theta, ctx)
    out = {}
    for v in _all_lines(ctx, len(theta)):
        w = list(times_theta(ctx.pack(v)))
        a = w[v.index(ctx.one())]
        if w == [ctx.mul(a, x) for x in v]:
            out.setdefault(a, []).append(v)
    return out


@pytest.mark.parametrize("ctx", [make_field(2), GF3, GF4, GF5, make_field(2, 3),
                                 make_field(3, 2), make_field(13)], ids=str)
def test_root_shifts_are_the_eigenvalues_with_their_kernels(ctx):
    # differential: _root_shifts yields exactly the a in F with
    # ker(theta - a*I) != 0, in raw_elements order, with that whole kernel
    rng = random.Random(ctx.order)
    thetas = [[[rng.randrange(ctx.order) for _ in range(3)] for _ in range(3)]
              for _ in range(6)]
    thetas += [[[c if i == j else 0 for j in range(3)] for i in range(3)]
               for c in (0, ctx.order - 1)]
    thetas.append(list(map(list, _block_sum(ctx, CUBIC, [[1]], [[2]]))))
    for rows in thetas:
        theta = [ctx.pack(r) for r in rows]
        d, brute = len(theta), _brute_eigenvalues(theta, ctx)
        got = list(spinmx._root_shifts(theta, ctx))
        assert [key for key, _, _ in got] == [
            {"shift": a} for a in ctx.raw_elements() if a in brute]
        for key, shifted, ker in got:
            a = key["shift"]
            assert [list(r) for r in shifted] == [
                [ctx.sub(x, a) if i == j else x for j, x in enumerate(r)]
                for i, r in enumerate(rows)]
            k, q = len(ker), ctx.order
            assert Echelon(ctx, d, ker).dim == k and len(brute[a]) == (q ** k - 1) // (q - 1)
            assert all(Subspace(ctx, d, ker).contains(ctx.pack(v)) for v in brute[a])


def test_survey_refuses_a_factor_without_a_verdict(monkeypatch, tmp_path, capsys):
    # a factor with no kernel-vector verdict leaves the lattice undecided: the
    # survey claim is inconclusive (exit 3), not an internal error (exit 4)
    h = module_handle(gens_for(GF3, 3), basis_U(GF3, 3), label="U")
    monkeypatch.setattr(spinmx, "norton_irreducible",
                        lambda handle: spinmx.NortonResult("inconclusive", None, None))
    with pytest.raises(spinmx.InconclusiveFactor) as exc:
        survey_submodules(h)
    assert (exc.value.label, exc.value.dim) == ("U:6/0", 6)
    path = tmp_path / "survey.json"
    assert main(["survey", "--module", "U", "--n", "3", "--field", "3",
                 "--json", str(path), "--no-timing"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "internal error" not in err
    (c,) = json.loads(path.read_text())["claims"]
    assert (c["id"], c["status"]) == ("survey", "inconclusive")
    assert c["data"] == {"factor": "U:6/0", "dim": 6}


_GF3_GENS = standard_generators(GF3, 3)


@pytest.mark.parametrize("call", [
    lambda: spin(eta(GF5, 3), _GF3_GENS),
    lambda: spin([0] * 64, _GF3_GENS),
    lambda: spin_contains(eta(GF5, 3), _GF3_GENS, eta(GF5, 3)),
    lambda: spin_contains(eta(GF3, 3), _GF3_GENS, eta(GF3, 4)),
    lambda: close_subspace(basis_U(GF5, 3), _GF3_GENS),
    lambda: close_subspace(basis_U(GF3, 4), _GF3_GENS),
    lambda: module_handle(_GF3_GENS, basis_C(GF5, 3), label="C"),
    lambda: module_handle(_GF3_GENS, Subspace.full(GF5, 3)),
    lambda: module_handle(_GF3_GENS, Subspace.full(GF3, 3)),
], ids=["spin-field", "spin-n", "spin_contains-field", "spin_contains-n",
        "close_subspace-field", "close_subspace-n", "module_handle-field",
        "module_handle-dual-field", "module_handle-dual-ambient"])
def test_entry_points_reject_data_off_the_generator_set(call):
    with pytest.raises(ValueError):
        call()
