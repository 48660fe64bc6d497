import random

import pytest

from algdeg import gamma2
from algdeg.gfield import make_field, primitive_element
from algdeg.exactla import Echelon, GroupElement, Matrix
from algdeg.structvec import StructureVector, act, unit
from algdeg.canon import Bases, basis_C, basis_K, basis_N, basis_U
from algdeg.spinmx import norton_irreducible, standard_generators
from algdeg.gamma2 import (
    ReplayResult, SemilinearMap, _ef_elements, _perm_mapping, _replay_seeds, e_and_f,
    eq15_identity_holds, gamma_handle, replay_irreducible_from, sigma,
    sigma_gmap_claims, star, verify_gamma_irreducible,
)
from oracles import (
    random_invertible, semilinear_scale_entries, semilinear_sum_entries,
    semilinear_unit_entries,
)

GF4 = make_field(2, 2)
GF8 = make_field(2, 3)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("ctx", [GF4, GF8], ids=repr)
def test_semilinear_sums_scales_and_units_match_the_entrywise_references(ctx, n):
    rng = random.Random(10 * n + ctx.order)
    maps = [SemilinearMap.zero(ctx, n)]
    maps += [SemilinearMap(Matrix(ctx, n, n, [rng.randrange(ctx.order) for _ in range(n * n)]))
             for _ in range(4)]
    for a in maps:
        for b in maps:
            assert (a + b).mat.entries == semilinear_sum_entries(a, b)
        for c in ctx.raw_elements():
            assert a.scale(c).mat.entries == semilinear_scale_entries(a, c)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            e = SemilinearMap.unit(ctx, n, i, j)
            assert (e.n, e.mat.nrows, e.mat.ncols) == (n, n, n)
            assert e.mat.entries == semilinear_unit_entries(ctx, n, i, j)


def test_sigma_of_unit_jji():
    # sigma(jji) is the matrix unit e_ij
    for i in range(1, 4):
        for j in range(1, 4):
            lam = unit(GF4, 3, j, j, i)
            assert sigma(lam) == SemilinearMap.unit(GF4, 3, i, j)


def test_sigma_vanishes_on_K():
    for row in basis_K(GF4, 3).rows:
        assert sigma(StructureVector(GF4, 3, list(row))).is_zero()


def test_sigma_rejects_noncommutative_and_odd_char():
    with pytest.raises(ValueError):
        sigma(unit(GF4, 3, 1, 2, 3))
    with pytest.raises(ValueError):
        sigma(unit(make_field(3), 3, 1, 1, 1))


def test_star_identity_and_right_action():
    rng = random.Random(2)
    for ctx in (GF4, GF8):
        ident = GroupElement.diagonal(ctx, [ctx.one()] * 3)
        phi = SemilinearMap.from_rows(ctx, [[rng.randrange(ctx.order) for _ in range(3)]
                                            for _ in range(3)])
        assert star(phi, ident) == phi
        for _ in range(15):
            g = random_invertible(ctx, 3, rng)
            h = random_invertible(ctx, 3, rng)
            assert star(star(phi, g), h) == star(phi, g.compose(h))


def test_star_of_permutation_is_conjugation():
    # permutation matrices have subfield entries, so the twist disappears
    rng = random.Random(5)
    phi = SemilinearMap.from_rows(GF4, [[rng.randrange(4) for _ in range(3)]
                                        for _ in range(3)])
    p = GroupElement.permutation(GF4, [2, 3, 1])
    assert star(phi, p) == SemilinearMap(p.inv.mul(phi.mat).mul(p.mat))


def test_sigma_is_g_map():
    rng = random.Random(11)
    for _ in range(10):
        g = random_invertible(GF4, 3, rng)
        coords = [GF4.zero()] * 27
        for row in basis_C(GF4, 3).rows:
            coords = GF4.row_addmul(coords, row, rng.randrange(4))
        lam = StructureVector(GF4, 3, coords)
        assert sigma(act(lam, g)) == star(sigma(lam), g)


def test_eq15_identity():
    g_rows = Matrix.identity(GF4, 3).rows()
    alpha = 2  # the generator x of GF(4)
    g_rows[1][0] = alpha
    g = GroupElement(Matrix.from_rows(GF4, g_rows))
    e12 = SemilinearMap.unit(GF4, 3, 1, 2)
    lhs = star(e12, g) + e12
    a2 = GF4.mul(alpha, alpha)
    a3 = GF4.mul(a2, alpha)
    rhs = (SemilinearMap.unit(GF4, 3, 2, 2).scale(alpha)
           + SemilinearMap.unit(GF4, 3, 1, 1).scale(a2)
           + SemilinearMap.unit(GF4, 3, 2, 1).scale(a3))
    assert lhs == rhs
    assert eq15_identity_holds(GF4)
    assert eq15_identity_holds(GF8)


def test_e_and_f_example():
    rng = random.Random(3)
    phi = SemilinearMap.from_rows(GF8, [[rng.randrange(8) for _ in range(3)]
                                        for _ in range(3)])
    out = e_and_f(phi, (2, 1), (3, 1))
    expect = (SemilinearMap.unit(GF8, 3, 3, 1).scale(phi[1, 2])
              + SemilinearMap.unit(GF8, 3, 2, 1).scale(phi[1, 3]))
    assert out == expect


def test_e_and_f_zero_and_validation():
    assert e_and_f(SemilinearMap.zero(GF4, 3), (2, 1), (3, 1)).is_zero()
    phi = SemilinearMap.unit(GF4, 3, 1, 2)
    with pytest.raises(ValueError):
        e_and_f(phi, (1, 2), (2, 3))  # ef != 0
    with pytest.raises(ValueError):
        e_and_f(phi, (1, 1), (2, 3))


@pytest.mark.parametrize("i,j", [(0, 1), (-1, 2), (4, 1), (1, 0), (2, 4)])
def test_a_matrix_unit_outside_one_to_n_is_refused(i, j):
    # index 0 used to wrap to e_3j and -1 to e_2j; 4 was an IndexError
    with pytest.raises(ValueError, match=r"outside 1\.\.3"):
        SemilinearMap.unit(GF4, 3, i, j)
    with pytest.raises(ValueError, match=r"outside 1\.\.3"):
        SemilinearMap.unit(GF4, 3, 1, 2)[i, j]


@pytest.mark.parametrize("e,f", [((0, 1), (3, 1)), ((2, 1), (3, 4)), ((1, -1), (2, 3))])
def test_e_and_f_refuses_indices_outside_one_to_n(e, f):
    # ((0, 1), (3, 1)) used to give the zero map
    phi = SemilinearMap.from_rows(GF4, [[1, 2, 3], [0, 1, 2], [3, 0, 1]])
    with pytest.raises(ValueError, match=r"outside 1\.\.3"):
        e_and_f(phi, e, f)


def test_e_and_f_closed_form_random_gf8():
    # the four-term star sum vs the two-sided product form, on random maps
    rng = random.Random(17)
    pairs = [((2, 1), (3, 1)), ((1, 3), (2, 3)), ((3, 2), (1, 2))]
    for _ in range(50):
        phi = SemilinearMap.from_rows(GF8, [[rng.randrange(8) for _ in range(3)]
                                            for _ in range(3)])
        for e, f in pairs:
            e_and_f(phi, e, f)  # raises internally on mismatch


def test_dim_gamma_matches_C_mod_K():
    for ctx, n in ((GF4, 3), (GF4, 4), (GF8, 3)):
        assert basis_C(ctx, n).dim - basis_K(ctx, n).dim == n * n


def test_sigma_gmap_claims():
    for c in sigma_gmap_claims(Bases(GF4, 3), standard_generators(GF4, 3)):
        assert c["status"] == "verified"


def test_sigma_gmap_is_falsified_when_the_star_ignores_g(monkeypatch):
    # with phi * g = phi the intertwining fails, while the rank and kernel
    # check, which never acts, still holds
    monkeypatch.setattr(gamma2, "_star", lambda phi, ginv, gsq: phi)
    claims = sigma_gmap_claims(Bases(GF4, 3), standard_generators(GF4, 3))
    assert {c["id"]: c["status"] for c in claims} == {"sigmaGmap": "falsified",
                                                      "sigmaKernel": "verified"}


def test_eq15_fails_when_the_star_ignores_g(monkeypatch):
    # e_12 * g + e_12 is then 0 in characteristic 2, not a e_22 + a^2 e_11 + a^3 e_21
    monkeypatch.setattr(gamma2, "star", lambda phi, g: phi)
    assert not eq15_identity_holds(GF4)
    assert not eq15_identity_holds(GF8)


def test_replay_from_every_unit():
    for i in range(1, 4):
        for j in range(1, 4):
            res = replay_irreducible_from(SemilinearMap.unit(GF4, 3, i, j))
            assert res.reached_full


def test_replay_scalar_seed():
    phi = SemilinearMap(Matrix.identity(GF4, 3))
    res = replay_irreducible_from(phi)
    assert res.reached_full
    assert any(s[0] == "diagonal-twist" for s in res.steps)


def test_replay_rejects_gf2():
    ctx2 = make_field(2)
    with pytest.raises(ValueError):
        replay_irreducible_from(SemilinearMap.unit(ctx2, 3, 1, 2))


def test_gamma_norton_irreducible():
    gens = standard_generators(GF4, 3)
    res = norton_irreducible(gamma_handle(gens))
    assert res.verdict == "irreducible"


@pytest.mark.parametrize("ctx,n", [(GF4, 3), (GF8, 3), (GF4, 4)])
def test_verify_gamma_irreducible(ctx, n):
    for c in verify_gamma_irreducible(standard_generators(ctx, n), 2):
        assert c["status"] == "verified", c


def test_char2_diamond_dims():
    # C/N and K/U both have the dual dimension; N/U matches the semilinear space
    for ctx, n in ((GF4, 3), (GF8, 3)):
        assert basis_C(ctx, n).dim - basis_N(ctx, n).dim == n
        assert basis_K(ctx, n).dim - basis_U(ctx, n).dim == n
        assert basis_C(ctx, n).dim - basis_K(ctx, n).dim == n * n


# -- the shared replay tail against the whole replay, seed by seed -------------

def _reference_replay(phi):
    """The whole replay for one seed, written out move by move.

    Every element gets its inverse from an rref, and the span collects each
    map the moves produce.
    """
    ctx, n = phi.ctx, phi.n
    steps = []
    span = Echelon(ctx, n * n)
    span.add(phi.coords())
    zero = ctx.zero()

    def offdiag(p):
        return next(((i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                     if i != j and p[i, j] != zero), None)

    def shear(i, j, a):
        rows = Matrix.identity(ctx, n).rows()
        rows[i - 1][j - 1] = a
        return GroupElement(Matrix.from_rows(ctx, rows))

    pos = offdiag(phi)
    if pos is None:
        d = [phi[i, i] for i in range(1, n + 1)]
        distinct = next(((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                         if d[i - 1] != d[j - 1]), None)
        if distinct is None:
            gamma = primitive_element(ctx)
            rows = Matrix.identity(ctx, n).rows()
            rows[0][0] = gamma
            e11_like = star(phi, GroupElement(Matrix.from_rows(ctx, rows))) + phi
            steps.append(("diagonal-twist", ctx.raw_to_json(gamma)))
            span.add(e11_like.coords())
            phi = star(e11_like, shear(1, 2, 1)) + e11_like
            steps.append(("unit-seed-shear", (1, 2)))
        else:
            i, j = distinct
            moved = star(phi, _perm_mapping(ctx, n, {1: i, 2: j}))
            steps.append(("relabel", (i, j)))
            phi = star(moved, shear(1, 2, 1)) + moved
            steps.append(("diagonal-shear", None))
        span.add(phi.coords())
        pos = offdiag(phi)
    i, j = pos
    phi12 = star(phi, _perm_mapping(ctx, n, {1: i, 2: j}))
    steps.append(("relabel", (i, j)))
    span.add(phi12.coords())
    psi1 = e_and_f(phi12, (2, 1), (3, 1))
    steps.append(("e&f", ((2, 1), (3, 1))))
    span.add(psi1.coords())
    psi2 = e_and_f(psi1, (1, 3), (2, 3))
    steps.append(("e&f", ((1, 3), (2, 3))))
    e23 = psi2.scale(ctx.inv(psi2[2, 3]))
    steps.append(("scale", None))
    span.add(e23.coords())
    units = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b:
                units[(a, b)] = star(e23, _perm_mapping(ctx, n, {a: 2, b: 3}))
                assert units[(a, b)] == SemilinearMap.unit(ctx, n, a, b)
                span.add(units[(a, b)].coords())
    steps.append(("permutation-closure", "off-diagonal units"))
    alphas = [a for a in ctx.raw_elements() if a != zero][:2]
    extracted = []
    for a in alphas:
        t = star(units[(1, 2)], shear(2, 1, a)) + units[(1, 2)]
        t = t + units[(2, 1)].scale(ctx.mul(ctx.mul(a, a), a))
        extracted.append(t.scale(ctx.inv(a)))
    e11 = (extracted[0] + extracted[1]).scale(ctx.inv(ctx.add(alphas[0], alphas[1])))
    steps.append(("shear-identity", [ctx.raw_to_json(a) for a in alphas]))
    assert e11 == SemilinearMap.unit(ctx, n, 1, 1)
    span.add(e11.coords())
    for a in range(1, n + 1):
        span.add(star(e11, _perm_mapping(ctx, n, {a: 1})).coords())
    steps.append(("permutation-closure", "diagonal units"))
    return ReplayResult(span.dim == n * n, steps)


def _replay_test_seeds(ctx, n):
    """Every matrix unit, random maps, diagonal maps with distinct entries, and scalars."""
    rng = random.Random(ctx.order * 10 + n)
    seeds = [SemilinearMap.unit(ctx, n, i, j)
             for i in range(1, n + 1) for j in range(1, n + 1)]
    for _ in range(6):
        phi = SemilinearMap.from_rows(ctx, [[rng.randrange(ctx.order) for _ in range(n)]
                                            for _ in range(n)])
        if not phi.is_zero():
            seeds.append(phi)
    for _ in range(4):
        diag = [rng.randrange(ctx.order) for _ in range(n)]
        if len(set(diag)) > 1:
            seeds.append(SemilinearMap.from_rows(
                ctx, [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]))
    for c in ctx.raw_elements()[1:]:
        seeds.append(SemilinearMap(Matrix.identity(ctx, n)).scale(c))
    return seeds


@pytest.mark.parametrize("ctx,n", [(GF4, 3), (GF4, 4), (GF8, 3), (GF8, 4)],
                         ids=["GF4-3", "GF4-4", "GF8-3", "GF8-4"])
def test_shared_tail_replay_matches_the_whole_replay_of_each_seed(ctx, n):
    seeds = _replay_test_seeds(ctx, n)
    kinds = {s[0] for phi in seeds for s in _reference_replay(phi).steps}
    assert {"diagonal-twist", "diagonal-shear"} <= kinds
    want = [_reference_replay(phi) for phi in seeds]
    assert all(r.reached_full for r in want)
    assert _replay_seeds(seeds) == want
    assert [replay_irreducible_from(phi) for phi in seeds] == want


def test_one_gamma_verification_builds_the_replay_tail_once(monkeypatch):
    # the diagonal units come from e_11 by the one-point relabelings {a: 1},
    # which only the tail makes: n of them per tail, not n per seed
    calls = []

    def counting(ctx, n, want):
        calls.append(len(want))
        return _perm_mapping(ctx, n, want)

    monkeypatch.setattr(gamma2, "_perm_mapping", counting)
    for ctx, n in ((GF4, 3), (GF8, 4)):
        calls.clear()
        claims = verify_gamma_irreducible(standard_generators(ctx, n), 3)
        assert claims[0]["id"] == "gammaReplay" and claims[0]["status"] == "verified"
        assert claims[0]["data"]["seeds"] > 1
        assert calls.count(1) == n


def test_one_gamma_verification_builds_each_head_element_once(monkeypatch):
    # the e&f quadruples and the permutations (the heads' relabelings and
    # the tail's) are built once per verification, not once per seed
    perms, quadruples = [], []

    def counting_perm(ctx, n, want):
        perms.append(frozenset(want.items()))
        return _perm_mapping(ctx, n, want)

    def counting_ef(ctx, n, e, f):
        quadruples.append((e, f))
        return _ef_elements(ctx, n, e, f)

    monkeypatch.setattr(gamma2, "_perm_mapping", counting_perm)
    monkeypatch.setattr(gamma2, "_ef_elements", counting_ef)
    for ctx, n in ((GF4, 3), (GF8, 4)):
        perms.clear()
        quadruples.clear()
        claims = verify_gamma_irreducible(standard_generators(ctx, n), 3)
        assert claims[0]["id"] == "gammaReplay" and claims[0]["status"] == "verified"
        seeds = claims[0]["data"]["seeds"]
        assert seeds > n * n
        assert sorted(quadruples) == sorted([((2, 1), (3, 1)), ((1, 3), (2, 3))])
        assert len(perms) == len(set(perms))
        # each off-diagonal unit seed takes its own relabeling {1: i, 2: j}
        assert sum({k for k, _ in p} == {1, 2} for p in perms) == n * (n - 1)


def test_a_closed_form_with_one_entry_flipped_is_refused(monkeypatch):
    # the four-term star sum is checked against e phi f + f phi e entry for
    # entry: one wrong entry of the closed form stops e&f and the replay
    closed_form = gamma2._ef_closed_form

    def flipped(phi, e, f):
        out = closed_form(phi, e, f)
        entries = list(out.mat.entries)
        entries[0] = phi.ctx.add(entries[0], phi.ctx.one())
        return SemilinearMap(Matrix(phi.ctx, phi.n, phi.n, entries))

    phi = SemilinearMap.from_rows(GF8, [[1, 2, 3], [4, 5, 6], [7, 0, 1]])
    assert e_and_f(phi, (2, 1), (3, 1)) == closed_form(phi, (2, 1), (3, 1))
    monkeypatch.setattr(gamma2, "_ef_closed_form", flipped)
    with pytest.raises(AssertionError, match="four-term star sum"):
        e_and_f(phi, (2, 1), (3, 1))
    with pytest.raises(AssertionError, match="four-term star sum"):
        replay_irreducible_from(SemilinearMap.unit(GF4, 3, 1, 2))


# -- closed-form inverses against the rref inverse -----------------------------

class _RecordingElement(GroupElement):
    """A GroupElement that records each inverse it is handed instead of computing."""

    __slots__ = ()
    given = []

    def __init__(self, mat, inv=None, tag=None):
        if inv is not None:
            _RecordingElement.given.append((mat, inv))
        super().__init__(mat, inv, tag)


def test_gamma_closed_form_inverses_equal_the_rref_inverse(monkeypatch):
    monkeypatch.setattr(gamma2, "GroupElement", _RecordingElement)
    given = _RecordingElement.given
    rng = random.Random(23)
    for ctx in (GF4, GF8):
        phi = SemilinearMap.from_rows(ctx, [[rng.randrange(ctx.order) for _ in range(3)]
                                            for _ in range(3)])
        sources = {
            "e&f": lambda: e_and_f(phi, (2, 1), (3, 1)),
            "eq15": lambda: eq15_identity_holds(ctx, 4),
            "replay": lambda: replay_irreducible_from(phi),
        }
        for name, call in sources.items():
            given.clear()
            call()
            assert given, name
            for mat, inv in given:
                assert inv == mat.inverse(), name
