import random

import pytest

from algdeg.gfield import make_field
from algdeg.exactla import Subspace, random_invertible
from algdeg.structvec import (
    StructureVector, Vector, act, basis_vector, dual_basis_vector, flat,
    plus_tilde, product, tr, tr_op, unit,
)
from algdeg import canon
from algdeg.canon import (
    ProjectivePoint, basis_C, basis_K, basis_Mstar, basis_MstarP,
    basis_Mstarstar, basis_N, basis_T, basis_TcapTtilde, basis_Ttilde, basis_U,
    check_trace_biconditional, delta, epsilon, epsilon_tilde, eta,
    expected_dims, intersection_table, mu_alpha_delta, named_vector, omega,
    omega_preimage, predicate_C, predicate_K, predicate_Mstar,
    predicate_Mstarstar, submodule, trace_kernel_witness,
)

GF3 = make_field(3)
GF4 = make_field(2, 2)
GF5 = make_field(5)
GF7 = make_field(7)

PREDICATES = {
    "C": predicate_C,
    "K": predicate_K,
    "Mstar": predicate_Mstar,
    "Mstarstar": predicate_Mstarstar,
}


def rand_sv(ctx, n, rng):
    return StructureVector(ctx, n, [rng.randrange(ctx.order) for _ in range(n ** 3)])


@pytest.mark.parametrize("ctx", [GF3, GF4, GF5])
@pytest.mark.parametrize("n", [3, 4])
def test_dimension_formulas(ctx, n):
    dims = expected_dims(n)
    assert basis_C(ctx, n).dim == dims["C"]
    assert basis_K(ctx, n).dim == dims["K"]
    assert basis_Mstar(ctx, n).dim == dims["Mstar"]
    assert basis_Mstarstar(ctx, n).dim == dims["Mstarstar"]
    assert basis_T(ctx, n).dim == dims["T"]
    assert basis_Ttilde(ctx, n).dim == dims["Ttilde"]
    assert basis_TcapTtilde(ctx, n).dim == dims["TcapTtilde"]
    assert basis_N(ctx, n).dim == dims["N"]
    assert basis_U(ctx, n).dim == dims["U"]


def test_dims_n3_gf3_table():
    assert basis_C(GF3, 3).dim == 18
    assert basis_K(GF3, 3).dim == 9
    assert basis_Mstar(GF3, 3).dim == 6
    assert basis_Mstarstar(GF3, 3).dim == 12
    assert basis_T(GF3, 3).dim == 24
    assert basis_TcapTtilde(GF3, 3).dim == 21
    assert basis_N(GF3, 3).dim == 15
    assert basis_U(GF3, 3).dim == 6


def test_membership_of_named_vectors():
    for ctx in (GF3, GF4, GF5):
        one11 = unit(ctx, 3, 1, 1, 1)
        assert predicate_C(one11) and not predicate_K(one11)
        e = eta(ctx, 3)
        assert predicate_K(e)
        assert predicate_Mstarstar(e)
        assert not predicate_Mstar(e)
        d = unit(ctx, 3, 1, 1, 2)
        assert predicate_C(d) and not predicate_K(d)
        assert not predicate_Mstarstar(d)
        assert eta(ctx, 3).coords in basis_U(ctx, 3)
        assert delta(ctx, 3).coords in basis_N(ctx, 3)


@pytest.mark.parametrize("ctx", [GF3, GF4, GF5])
def test_predicate_matches_subspace_membership(ctx):
    n = 3
    spaces = {name: submodule(name, ctx, n) for name in PREDICATES}
    rng = random.Random(1000 + ctx.order)
    samples = [unit(ctx, n, a, b, c)
               for a in range(1, 4) for b in range(1, 4) for c in range(1, 4)]
    samples += [rand_sv(ctx, n, rng) for _ in range(200)]
    # membership-biased samples so the predicates see plenty of true cases
    for name, space in spaces.items():
        for _ in range(20):
            v = [ctx.zero()] * n ** 3
            for row in space.rows:
                v = ctx.row_addmul(v, row, rng.randrange(ctx.order))
            samples.append(StructureVector(ctx, n, v))
    for lam in samples:
        for name, pred in PREDICATES.items():
            assert pred(lam) == spaces[name].contains(lam.coords), name


def test_direct_sum_odd_characteristic():
    for ctx in (GF5, GF3, GF7):
        C, K = basis_C(ctx, 3), basis_K(ctx, 3)
        assert (C & K).dim == 0
        assert (C | K) == Subspace.full(ctx, 27)


def test_char2_containment():
    C, K = basis_C(GF4, 3), basis_K(GF4, 3)
    assert K <= C
    assert (C | K) == C


def test_N_three_constructions_agree():
    for ctx in (GF3, GF4, GF5):
        table = basis_N(ctx, 3)
        assert table == basis_C(ctx, 3) & basis_T(ctx, 3)
        C = basis_C(ctx, 3)
        assert table == canon._restricted_kernel(
            C, [tr(StructureVector(ctx, 3, list(r))).coords for r in C.rows], ctx)


def test_U_and_TcapTtilde_constructions_agree():
    for ctx in (GF3, GF4, GF5):
        assert basis_U(ctx, 3) == basis_K(ctx, 3) & basis_T(ctx, 3)
        assert basis_TcapTtilde(ctx, 3) == basis_T(ctx, 3) & basis_Ttilde(ctx, 3)


def test_TcapTtilde_decomposition_odd_char():
    for ctx in (GF3, GF5):
        U, N = basis_U(ctx, 3), basis_N(ctx, 3)
        both = basis_TcapTtilde(ctx, 3)
        assert (U & N).dim == 0
        assert (U | N) == both


def test_plus_tilde_kernel_char2():
    # kernel of lam -> lam + lam~ on the whole space is C in characteristic 2
    rows = []
    for f in range(27):
        coords = [GF4.zero()] * 27
        coords[f] = GF4.one()
        rows.append(plus_tilde(StructureVector(GF4, 3, coords)).coords)
    restT = [[rows[i][j] for i in range(27)] for j in range(27)]
    from algdeg.exactla import kernel_rows
    ker = Subspace(GF4, 27, kernel_rows(restT, 27, GF4))
    assert ker == basis_C(GF4, 3)


def test_plus_tilde_on_TcapTtilde_char2():
    # restricted to T ^ T~ the map has kernel N and image U
    both = basis_TcapTtilde(GF4, 3)
    N, U = basis_N(GF4, 3), basis_U(GF4, 3)
    images = []
    kers = []
    for row in both.rows:
        img = plus_tilde(StructureVector(GF4, 3, list(row)))
        images.append(img.coords)
    img_space = Subspace(GF4, 27, images)
    assert img_space == U
    # kernel inside the carrier: vectors of T ^ T~ that are symmetric
    inter = both & basis_C(GF4, 3)
    assert inter == N


def test_trace_restrictions_surjective():
    # tr maps K onto the dual with kernel U and C onto the dual with kernel N
    for ctx in (GF3, GF4, GF5):
        for name, ker in (("K", "U"), ("C", "N")):
            carrier = submodule(name, ctx, 3)
            images = [tr(StructureVector(ctx, 3, list(r))).coords for r in carrier.rows]
            values = Subspace(ctx, 3, images)
            assert values.dim == 3
            assert canon._restricted_kernel(carrier, images, ctx) == submodule(ker, ctx, 3)


def test_mstar_members_and_action():
    rng = random.Random(99)
    for ctx in (GF5, GF4):
        n = 3
        Ms = basis_Mstar(ctx, n)
        assert Ms.dim == 2 * n
        alpha = dual_basis_vector(ctx, n, 1)
        assert mu_alpha_delta(alpha, alpha.scale(0)) == epsilon(ctx, n, 1)
        for _ in range(10):
            a = [rng.randrange(ctx.order) for _ in range(n)]
            d = [rng.randrange(ctx.order) for _ in range(n)]
            from algdeg.structvec import DualVector, dual_act
            alpha, dl = DualVector(ctx, n, a), DualVector(ctx, n, d)
            mu = mu_alpha_delta(alpha, dl)
            assert predicate_Mstar(mu)
            assert mu.coords in Ms
            g = random_invertible(ctx, n, rng)
            assert act(mu, g) == mu_alpha_delta(dual_act(alpha, g), dual_act(dl, g))


def test_mu_product_rule():
    # [u, v] = alpha(v) u + delta(u) v, checked through the product evaluator
    rng = random.Random(5)
    ctx, n = GF7, 3
    from algdeg.structvec import DualVector
    alpha = DualVector(ctx, n, [rng.randrange(7) for _ in range(n)])
    dl = DualVector(ctx, n, [rng.randrange(7) for _ in range(n)])
    mu = mu_alpha_delta(alpha, dl)
    for _ in range(20):
        u = Vector(ctx, n, [rng.randrange(7) for _ in range(n)])
        v = Vector(ctx, n, [rng.randrange(7) for _ in range(n)])
        assert product(mu, u, v) == u.scale(alpha(v).raw) + v.scale(dl(u).raw)


def test_projective_points():
    pts = ProjectivePoint.enumerate(GF3)
    assert len(pts) == 4
    assert ProjectivePoint(GF3, 2, 1) == ProjectivePoint(GF3, 1, 2)  # scaled by 2
    with pytest.raises(ValueError):
        ProjectivePoint(GF3, 0, 0)
    # in characteristic 2 the labels (1,1) and (1,-1) collapse to one point
    assert ProjectivePoint(GF4, 1, GF4.neg(1)) == ProjectivePoint(GF4, 1, 1)


def test_mstarp_basics():
    for ctx in (GF3, GF5):
        p10 = basis_MstarP(ctx, 3, ProjectivePoint(ctx, 1, 0))
        p01 = basis_MstarP(ctx, 3, ProjectivePoint(ctx, 0, 1))
        assert p10.dim == 3 and p01.dim == 3
        assert (p10 & p01).dim == 0
        assert p10 <= basis_Mstar(ctx, 3)


@pytest.mark.parametrize("ctx,n", [(GF5, 3), (GF4, 3), (GF7, 3),
                                   (GF3, 4), (GF5, 4)])
def test_intersection_table_all_verified(ctx, n):
    for c in intersection_table(ctx, n):
        assert c["status"] == "verified", c["anchor"]


def test_intersection_witness_cases():
    # char | n-1 at (4, GF(3)): U ^ M* jumps to the (1,-1) line
    table = {c["id"]: c for c in intersection_table(GF3, 4)}
    got = Subspace.from_json(table["UmeetMstar"]["computed"])
    assert got == basis_MstarP(GF3, 4, ProjectivePoint(GF3, 1, GF3.neg(1)))
    assert got.dim == 4
    # char | n+1 at (4, GF(5)): N ^ M** is the (1,1) line
    table = {c["id"]: c for c in intersection_table(GF5, 4)}
    got = Subspace.from_json(table["NmeetMstarstar"]["computed"])
    assert got == basis_MstarP(GF5, 4, ProjectivePoint(GF5, 1, 1))
    # and away from the divisibility: U ^ M* = 0 at (3, GF(5))
    table = {c["id"]: c for c in intersection_table(GF5, 3)}
    assert Subspace.from_json(table["UmeetMstar"]["computed"]).dim == 0


def test_omega_values():
    # the i-th coordinate of omega is the iii coordinate of lam
    for i in (1, 2, 3):
        lam = omega_preimage(dual_basis_vector(GF5, 3, i))
        assert lam[i, i, i] == 1
        assert omega(lam) == dual_basis_vector(GF5, 3, i)
    for row in basis_K(GF5, 3).rows:
        assert omega(StructureVector(GF5, 3, list(row))).is_zero()
    rng = random.Random(8)
    from algdeg.structvec import DualVector
    alpha = DualVector(GF5, 3, [1, 2, 0])
    dl = DualVector(GF5, 3, [4, 0, 3])
    assert omega(mu_alpha_delta(alpha, dl)) == alpha + dl


def test_omega_square_factor_property():
    rng = random.Random(21)
    ctx, n = GF5, 3
    Mss = basis_Mstarstar(ctx, n)
    for _ in range(25):
        coords = [ctx.zero()] * n ** 3
        for row in Mss.rows:
            coords = ctx.row_addmul(coords, row, rng.randrange(5))
        lam = StructureVector(ctx, n, coords)
        w = omega(lam)
        for _ in range(5):
            v = Vector(ctx, n, [rng.randrange(5) for _ in range(n)])
            assert product(lam, v, v) == v.scale(w(v).raw)


def test_omega_rejects_outside():
    with pytest.raises(ValueError):
        omega(unit(GF5, 3, 1, 1, 2))
    with pytest.raises(ValueError):
        omega(unit(make_field(2), 3, 1, 1, 1))


def test_omega_equivariance():
    rng = random.Random(3)
    from algdeg.structvec import dual_act
    for _ in range(10):
        g = random_invertible(GF5, 3, rng)
        coords = [GF5.zero()] * 27
        for row in basis_Mstarstar(GF5, 3).rows:
            coords = GF5.row_addmul(coords, row, rng.randrange(5))
        lam = StructureVector(GF5, 3, coords)
        assert omega(act(lam, g)) == dual_act(omega(lam), g)


def test_omega_preimage():
    from algdeg.structvec import DualVector
    assert omega_preimage(DualVector(GF5, 3, [0, 0, 0])).is_zero()
    got = omega_preimage(dual_basis_vector(GF5, 3, 1))
    expect = [GF5.zero()] * 27
    expect[flat(3, 1, 1, 1)] = 1
    expect[flat(3, 2, 1, 2)] = 1
    expect[flat(3, 3, 1, 3)] = 1
    assert got.coords == expect
    rng = random.Random(14)
    for _ in range(20):
        mu = DualVector(GF7, 3, [rng.randrange(7) for _ in range(3)])
        lam = omega_preimage(mu)
        assert predicate_Mstarstar(lam)
        assert omega(lam) == mu


def test_kernel_of_omega_on_mstarstar_is_K():
    for ctx in (GF5, GF4):
        Mss = basis_Mstarstar(ctx, 3)
        K = basis_K(ctx, 3)
        kers = []
        for row in Mss.rows:
            lam = StructureVector(ctx, 3, list(row))
            kers.append(omega(lam).coords)
        rest = [[kers[i][j] for i in range(len(kers))] for j in range(3)]
        from algdeg.exactla import kernel_rows
        coeffs = kernel_rows(rest, len(kers), ctx)
        lifted = []
        for x in coeffs:
            v = [ctx.zero()] * 27
            for c, row in zip(x, Mss.rows):
                v = ctx.row_addmul(v, row, c)
            lifted.append(v)
        assert Subspace(ctx, 27, lifted) == K


def test_submodules_are_g_stable():
    rng = random.Random(7)
    for ctx in (GF3, GF4, GF5):
        for name in ("C", "K", "Mstar", "Mstarstar", "T", "Ttilde",
                     "TcapTtilde", "N", "U"):
            space = submodule(name, ctx, 3)
            for _ in range(5):
                g = random_invertible(ctx, 3, rng)
                for row in space.rows:
                    moved = act(StructureVector(ctx, 3, list(row)), g)
                    assert space.contains(moved.coords), (name, ctx)


def test_mstarp_is_g_stable():
    rng = random.Random(70)
    for ctx in (GF3, GF5):
        for pt in ProjectivePoint.enumerate(ctx):
            space = basis_MstarP(ctx, 3, pt)
            for _ in range(3):
                g = random_invertible(ctx, 3, rng)
                for row in space.rows:
                    assert space.contains(act(StructureVector(ctx, 3, list(row)), g).coords)


def test_trace_biconditional():
    assert check_trace_biconditional(GF5, 4)["status"] == "verified"
    assert check_trace_biconditional(GF5, 3)["status"] == "verified"
    assert check_trace_biconditional(GF7, 3)["status"] == "verified"
    w = trace_kernel_witness(GF5, 3)
    assert predicate_Mstarstar(w)
    assert tr_op(w).is_zero()
    assert not tr(w).is_zero()


def test_named_vector_parser():
    assert named_vector("eta", GF3, 3) == eta(GF3, 3)
    assert named_vector("delta", GF3, 3) == delta(GF3, 3)
    assert named_vector("eps2", GF3, 3) == epsilon(GF3, 3, 2)
    assert named_vector("epst2", GF3, 3) == epsilon_tilde(GF3, 3, 2)
    assert named_vector("unit112", GF3, 3) == unit(GF3, 3, 1, 1, 2)
    with pytest.raises(ValueError):
        named_vector("nope", GF3, 3)


def test_submodule_name_parser():
    assert submodule("MstarP:1,-1", GF5, 3) == basis_MstarP(GF5, 3, ProjectivePoint(GF5, 1, GF5.neg(1)))
    assert submodule("Mstar(1,-1)", GF5, 3) == submodule("MstarP:1,-1", GF5, 3)
    assert submodule("0", GF5, 3).dim == 0
    with pytest.raises(ValueError):
        submodule("bogus", GF5, 3)


# -- Bases: one build per submodule, the same subspaces as `submodule` ---------

BASES_NAMES = ("Lambda", "0", "C", "K", "Mstar", "Mstarstar", "T", "Ttilde", "TcapTtilde",
               "N", "U")
BASES_CASES = ([(make_field(p, k), 3) for p, k in
                ((2, 2), (2, 3), (3, 2), (5, 2), (2, 1), (3, 1), (5, 1), (7, 1), (11, 1),
                 (13, 1))]
               + [(make_field(p, k), 4) for p, k in ((2, 1), (3, 1), (2, 2), (5, 1))])


@pytest.mark.parametrize("ctx,n", BASES_CASES, ids=lambda x: repr(x))
def test_bases_match_submodule_and_are_built_once(ctx, n):
    bases = canon.Bases(ctx, n)
    for name in BASES_NAMES:
        sub = bases[name]
        assert sub == submodule(name, ctx, n), name
        assert bases[name] is sub, name
    # every spelling of a projective piece with integer coordinates shares one object
    for a, d in [(1, x) for x in range(ctx.char)] + [(0, 1)]:
        spellings = [f"MstarP:{a},{d}", f"MstarP({a},{d})", f"Mstar({a},{d})"]
        sub = bases[spellings[0]]
        assert sub == submodule(spellings[0], ctx, n)
        assert all(bases[s] is sub for s in spellings)
        assert bases.piece(ProjectivePoint(ctx, ctx.from_int(a), ctx.from_int(d))) is sub
    for point in ProjectivePoint.enumerate(ctx):
        sub = bases.piece(point)
        assert sub == basis_MstarP(ctx, n, point)
        assert bases.piece(point) is sub


def test_bases_reject_unknown_names_and_other_shapes():
    bases = canon.Bases(GF5, 3)
    with pytest.raises(ValueError):
        bases["bogus"]
    assert canon.bases_for(GF5, 3, bases) is bases
    for ctx, n in ((GF7, 3), (GF5, 4)):
        with pytest.raises(ValueError):
            intersection_table(ctx, n, bases)


def test_basis_U_from_a_given_K_is_basis_U():
    K = basis_K(GF5, 4)
    assert basis_U(GF5, 4, K) == basis_U(GF5, 4)
