import random

import pytest

from algdeg.gfield import make_field
from algdeg.exactla import GroupElement, Matrix
from algdeg.structvec import (
    DualVector, StructureVector, Vector, flat, unit, basis_vector, act, product, tr, tr_op,
)
from oracles import (
    act_on_basis, action_matrix, dual_act, dual_basis_vector, opposite,
    random_invertible, vector_act, zero_structure_vector,
)

GF3 = make_field(3)
GF5 = make_field(5)
GF7 = make_field(7)


def sv(ctx, n, *terms):
    """Structure vector from (coeff, i, j, k) terms."""
    coords = [ctx.zero()] * n ** 3
    for c, i, j, k in terms:
        coords[flat(n, i, j, k)] = ctx.add(coords[flat(n, i, j, k)], ctx.from_int(c))
    return StructureVector(ctx, n, coords)


def eta(ctx, n=3):
    return sv(ctx, n, (1, 1, 2, 3), (-1, 2, 1, 3))


def test_flat_round_trip():
    from algdeg.structvec import unflat
    n = 4
    for f in range(n ** 3):
        i, j, k = unflat(n, f)
        assert flat(n, i, j, k) == f


@pytest.mark.parametrize("index", [0, 4, -1])
def test_indices_outside_1_to_n_are_rejected(index):
    with pytest.raises(ValueError):
        flat(3, 1, index, 1)
    with pytest.raises(ValueError):
        basis_vector(GF3, 3, index)
    with pytest.raises(ValueError):
        dual_basis_vector(GF3, 3, index)


def test_act_identity():
    lam = sv(GF5, 3, (2, 1, 1, 2), (3, 3, 2, 1))
    g = GroupElement.diagonal(GF5, [GF5.one()] * 3)
    assert act(lam, g) == lam


def test_act_112_permuting_matrix():
    # [g] = [[1,1,0],[0,0,1],[0,1,0]] sends 112 to 113 + 223 + 123 + 213
    g = GroupElement(Matrix.from_rows(GF5, [[1, 1, 0], [0, 0, 1], [0, 1, 0]]))
    out = act(unit(GF5, 3, 1, 1, 2), g)
    assert out == sv(GF5, 3, (1, 1, 1, 3), (1, 2, 2, 3), (1, 1, 2, 3), (1, 2, 1, 3))


def test_act_112_swap():
    swap = GroupElement.permutation(GF5, [2, 1, 3])
    assert act(unit(GF5, 3, 1, 1, 2), swap) == unit(GF5, 3, 2, 2, 1)


def test_act_on_basis_112_shear():
    # [g] = I + e_12 sends 112 to
    # -111 + 112 - 221 + 222 - (121 + 211) + (122 + 212)
    g = GroupElement.transvection(GF5, 3, 1, 2)
    out = act_on_basis(GF5, 3, 1, 1, 2, g)
    expect = sv(GF5, 3,
                (-1, 1, 1, 1), (1, 1, 1, 2), (-1, 2, 2, 1), (1, 2, 2, 2),
                (-1, 1, 2, 1), (-1, 2, 1, 1), (1, 1, 2, 2), (1, 2, 1, 2))
    assert out == expect


def test_act_on_basis_identity():
    ident = GroupElement.diagonal(GF3, [GF3.one()] * 3)
    assert act_on_basis(GF3, 3, 2, 3, 1, ident) == unit(GF3, 3, 2, 3, 1)


def test_act_on_basis_range_check():
    with pytest.raises(ValueError):
        act_on_basis(GF3, 3, 0, 1, 1, GroupElement.diagonal(GF3, [GF3.one()] * 3))


def test_act_matches_act_on_basis_random():
    rng = random.Random(101)
    for _ in range(50):
        g = random_invertible(GF5, 3, rng)
        a, b, c = (rng.randrange(1, 4) for _ in range(3))
        assert act(unit(GF5, 3, a, b, c), g) == act_on_basis(GF5, 3, a, b, c, g)


@pytest.mark.parametrize("ctx,n", [(GF3, 3), (GF5, 3), (GF7, 3), (make_field(2, 2), 3),
                                   (make_field(2, 3), 3), (make_field(3, 2), 3),
                                   (GF3, 4), (GF5, 4)])
def test_act_is_right_action(ctx, n):
    rng = random.Random(7 * n + ctx.order)
    for _ in range(10):
        g = random_invertible(ctx, n, rng)
        h = random_invertible(ctx, n, rng)
        lam = StructureVector(ctx, n, [rng.randrange(ctx.order) for _ in range(n ** 3)])
        assert act(act(lam, g), h) == act(lam, g.compose(h))


def test_act_fast_paths_match_general():
    # tagged transvection/diagonal elements against the untagged same matrix
    for ctx, n in [(GF5, 3), (make_field(2, 3), 3), (GF3, 4)]:
        rng = random.Random(ctx.order + n)
        lam = StructureVector(ctx, n, [rng.randrange(ctx.order) for _ in range(n ** 3)])
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                t = GroupElement.transvection(ctx, n, i, j)
                plain = GroupElement(t.mat, t.inv)
                assert act(lam, t) == act(lam, plain)
        diag = [2] + [1] * (n - 1)
        d = GroupElement.diagonal(ctx, diag)
        assert act(lam, d) == act(lam, GroupElement(d.mat, d.inv))


def test_act_linear_in_lambda():
    rng = random.Random(55)
    g = random_invertible(GF7, 3, rng)
    a = StructureVector(GF7, 3, [rng.randrange(7) for _ in range(27)])
    b = StructureVector(GF7, 3, [rng.randrange(7) for _ in range(27)])
    assert act(a + b, g) == act(a, g) + act(b, g)
    assert act(a.scale(3), g) == act(a, g).scale(3)


def test_action_matrix_matches_act():
    rng = random.Random(4)
    g = random_invertible(GF3, 3, rng)
    m = action_matrix(g, 3)
    lam = StructureVector(GF3, 3, [rng.randrange(3) for _ in range(27)])
    out = [GF3.zero()] * 27
    for i, c in enumerate(lam.coords):
        if c:
            out = GF3.row_addmul(out, m.row(i), c)
    assert list(out) == act(lam, g).coords


def test_opposite_basics():
    assert opposite(unit(GF3, 3, 1, 2, 3)) == unit(GF3, 3, 2, 1, 3)
    rng = random.Random(9)
    lam = StructureVector(GF5, 4, [rng.randrange(5) for _ in range(64)])
    assert opposite(opposite(lam)) == lam
    assert opposite(eta(GF5)) == -eta(GF5)


def test_opposite_commutes_with_act():
    rng = random.Random(2)
    for _ in range(20):
        g = random_invertible(GF5, 3, rng)
        lam = StructureVector(GF5, 3, [rng.randrange(5) for _ in range(27)])
        assert opposite(act(lam, g)) == act(opposite(lam), g)


def test_product_unit():
    lam = unit(GF5, 3, 1, 1, 2)
    v1 = basis_vector(GF5, 3, 1)
    assert product(lam, v1, v1) == basis_vector(GF5, 3, 2)


def test_product_eta():
    lam = eta(GF5)
    v1, v2, v3 = (basis_vector(GF5, 3, i) for i in (1, 2, 3))
    assert product(lam, v1, v2) == v3
    assert product(lam, v2, v1) == -v3


def test_product_bilinear():
    rng = random.Random(42)
    lam = StructureVector(GF7, 3, [rng.randrange(7) for _ in range(27)])
    for _ in range(20):
        u1 = Vector(GF7, 3, [rng.randrange(7) for _ in range(3)])
        u2 = Vector(GF7, 3, [rng.randrange(7) for _ in range(3)])
        v = Vector(GF7, 3, [rng.randrange(7) for _ in range(3)])
        assert product(lam, u1 + u2, v) == product(lam, u1, v) + product(lam, u2, v)
        assert product(lam, v, u1 + u2) == product(lam, v, u1) + product(lam, v, u2)
        assert product(lam, u1.scale(3), v) == product(lam, u1, v).scale(3)


def test_product_isomorphism_identity():
    # g*[u,v]' = [gu, gv] for the moved product
    rng = random.Random(77)
    for _ in range(20):
        g = random_invertible(GF5, 3, rng)
        lam = StructureVector(GF5, 3, [rng.randrange(5) for _ in range(27)])
        u = Vector(GF5, 3, [rng.randrange(5) for _ in range(3)])
        v = Vector(GF5, 3, [rng.randrange(5) for _ in range(3)])
        left = vector_act(g, product(act(lam, g), u, v))
        right = product(lam, vector_act(g, u), vector_act(g, v))
        assert left == right


def test_tr_unit_diagonal():
    for i in (1, 2, 3):
        assert tr(unit(GF5, 3, i, i, i)) == dual_basis_vector(GF5, 3, i)
        assert tr_op(unit(GF5, 3, i, i, i)) == dual_basis_vector(GF5, 3, i)


def test_tr_eta_zero():
    assert tr(eta(GF5)).is_zero()
    assert tr_op(eta(GF5)).is_zero()


def test_tr_mu():
    mu = sv(GF5, 3, (1, 1, 2, 2), (1, 2, 1, 2), (-1, 3, 1, 3))
    assert tr(mu) == dual_basis_vector(GF5, 3, 1)


def test_tr_op_121():
    assert tr_op(unit(GF5, 3, 1, 2, 1)) == dual_basis_vector(GF5, 3, 2)


def test_trace_form_evaluates():
    lam = sv(GF5, 3, (2, 1, 2, 2), (1, 1, 1, 1))
    u = Vector(GF5, 3, [1, 0, 0])
    assert tr(lam)(u) == 3
    assert tr_op(lam) == tr(opposite(lam))


def test_tr_equivariance():
    rng = random.Random(12)
    for _ in range(20):
        g = random_invertible(GF7, 3, rng)
        lam = StructureVector(GF7, 3, [rng.randrange(7) for _ in range(27)])
        assert tr(act(lam, g)) == dual_act(tr(lam), g)
        assert tr_op(act(lam, g)) == dual_act(tr_op(lam), g)


def test_actions_reject_an_element_of_another_size_or_field():
    v, phi = basis_vector(GF5, 3, 1), dual_basis_vector(GF5, 3, 1)
    lam = unit(GF5, 3, 1, 1, 1)
    for g in (GroupElement.transvection(GF5, 4, 1, 2), GroupElement.transvection(GF7, 3, 1, 2)):
        for apply in (lambda: vector_act(g, v), lambda: dual_act(phi, g), lambda: act(lam, g)):
            with pytest.raises(ValueError):
                apply()


def test_functionals_and_products_refuse_vectors_of_another_field_or_size():
    # unchecked, zip would truncate a longer vector and GF(7) codes would be
    # read as GF(5) codes
    lam, phi = eta(GF5), DualVector(GF5, 3, [1, 1, 1])
    u = basis_vector(GF5, 3, 1)
    assert phi(Vector(GF5, 3, [2, 2, 2])) == 1
    for bad in (Vector(GF5, 4, [1, 1, 1, 1]), Vector(GF7, 3, [6, 6, 6]),
                Vector(GF5, 2, [1, 1]), dual_basis_vector(GF5, 3, 1)):
        with pytest.raises(ValueError, match="different spaces"):
            phi(bad)
        with pytest.raises(ValueError, match="different spaces"):
            product(lam, bad, u)
        with pytest.raises(ValueError, match="different spaces"):
            product(lam, u, bad)


def test_psi():
    # psi = tr + tr~
    lam = unit(GF5, 3, 1, 1, 1)
    assert tr(lam) + tr_op(lam) == dual_basis_vector(GF5, 3, 1).scale(2)
    assert (tr(eta(GF5)) + tr_op(eta(GF5))).is_zero()


def test_plus_tilde():
    # lam~ = lam + opposite(lam)
    lam = unit(GF5, 3, 1, 2, 3)
    assert lam + opposite(lam) == sv(GF5, 3, (1, 1, 2, 3), (1, 2, 1, 3))
    lam = eta(make_field(2, 2))
    assert (lam + opposite(lam)).is_zero()


def test_trace_pairing_against_adjoint_matrix():
    # independent oracle: trace of the literal adjoint matrix of u
    rng = random.Random(31)
    n = 3
    for _ in range(20):
        lam = StructureVector(GF7, n, [rng.randrange(7) for _ in range(27)])
        u = Vector(GF7, n, [rng.randrange(7) for _ in range(3)])
        acc = GF7.zero()
        for j in range(1, n + 1):
            w = product(lam, u, basis_vector(GF7, n, j))
            acc = GF7.add(acc, w.coords[j - 1])
        assert tr(lam)(u) == acc


def test_json_round_trip():
    lam = sv(GF3, 3, (2, 3, 1, 2))
    assert StructureVector.from_json(lam.to_json()) == lam


def test_zero_vector():
    assert zero_structure_vector(GF3, 3).is_zero()
    with pytest.raises(ValueError):
        StructureVector(GF3, 2, [0] * 8)


def test_psi_vanishes_on_commutative_char2():
    from algdeg.canon import basis_C
    ctx = make_field(2, 2)
    for row in basis_C(ctx, 3).rows:
        lam = StructureVector(ctx, 3, list(row))
        assert (tr(lam) + tr_op(lam)).is_zero()


def test_coordinate_validation_keeps_the_per_coordinate_results():
    # plain codes in 0..q-1 are taken as they are; every other entry goes
    # through FieldCtx._coerce, with the same result or error as before
    from fractions import Fraction
    gf4, q = make_field(2, 2), make_field(0)
    codes = [x % 4 for x in range(27)]
    lam = StructureVector(gf4, 3, codes)
    assert lam.coords == codes and lam.coords is not codes
    assert StructureVector(GF5, 3, bytes(27)).coords == [0] * 27
    # bools become the ints 0 and 1
    flags = StructureVector(GF5, 3, [True, False] + [0] * 25).coords
    assert flags[:2] == [1, 0] and set(map(type, flags)) == {int}
    # over GF(p) an integer reads mod p, also negative or above p
    assert StructureVector(GF5, 3, [-1, 7] + [0] * 25).coords[:2] == [4, 2]
    # over GF(p^k) an integer outside the codes is refused
    with pytest.raises(ValueError, match="outside 0..3"):
        StructureVector(gf4, 3, [4] + [0] * 26)
    with pytest.raises(ValueError, match="outside 0..3"):
        StructureVector(gf4, 3, [-1] + [0] * 26)
    # over Q every entry becomes a Fraction
    rat = StructureVector(q, 3, [1, Fraction(1, 2)] + [0] * 25).coords
    assert rat[:2] == [1, Fraction(1, 2)] and set(map(type, rat)) == {Fraction}
    with pytest.raises(TypeError):
        StructureVector(GF5, 3, ["1"] + [0] * 26)
    with pytest.raises(ValueError, match="wrong length"):
        Vector(GF5, 3, [0, 1])
