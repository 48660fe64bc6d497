import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from algdeg.canon import Bases
from algdeg.gfield import make_field
from algdeg.exactla import (
    Echelon, Matrix, Subspace, GroupElement, null_space, kernel_rows,
    quotient_coords, rref_rows,
)
from oracles import random_invertible
from test_packed import FIELDS

GF3 = make_field(3)
GF5 = make_field(5)


def span(ctx, ambient, *rows):
    return Subspace(ctx, ambient, [list(r) for r in rows])


def e(ambient, i, c=1):
    v = [0] * ambient
    v[i] = c
    return v


def test_rref_identity():
    m = Matrix.identity(GF3, 3)
    red, pivots = rref_rows(m.rows(), GF3)
    assert Matrix.from_rows(GF3, red) == m
    assert pivots == [0, 1, 2]


def test_rref_zero():
    m = Matrix.zeros(GF3, 2, 3)
    red, pivots = rref_rows(m.rows(), GF3)
    assert red == []
    assert pivots == []


def test_rref_dependent_rows():
    # second row is twice the first over GF(3)
    m = Matrix.from_rows(GF3, [[1, 2], [2, 4]])
    red, pivots = rref_rows(m.rows(), GF3)
    assert pivots == [0]
    assert red == [[1, 2]]


def test_null_space_invertible():
    m = Matrix.from_rows(GF3, [[1, 1], [0, 1]])
    assert null_space(m).dim == 0


def test_null_space_zero_matrix():
    m = Matrix.zeros(GF3, 4, 4)
    ns = null_space(m)
    assert ns.dim == 4
    assert ns == Subspace.full(GF3, 4)


def test_null_space_rank_nullity():
    m = Matrix.from_rows(GF3, [[1, 1, 1]])
    ns = null_space(m)
    assert ns.dim == 2
    for row in ns.rows:
        assert sum(row) % 3 == 0


def test_matrix_inverse_round_trip():
    rng = random.Random(11)
    for ctx in (GF3, GF5, make_field(2, 2)):
        g = random_invertible(ctx, 4, rng)
        assert g.mat.mul(g.inv) == Matrix.identity(ctx, 4)
        assert g.inv.mul(g.mat) == Matrix.identity(ctx, 4)


def test_inverse_rejects_singular():
    m = Matrix.from_rows(GF3, [[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        m.inverse()


def test_subspace_idempotence():
    a = span(GF3, 4, [1, 1, 0, 0], [0, 0, 1, 0])
    assert a.sum(a) == a
    assert a.intersect(a) == a


def test_subspace_sum_and_intersection_basic():
    a = span(GF3, 3, e(3, 0))
    b = span(GF3, 3, e(3, 1))
    assert a.sum(b).dim == 2
    assert a.intersect(b).dim == 0


def test_subspace_trivial_intersection_dim4():
    # span{e1+e2, e3} meets span{e2, e3+e4} trivially; together they fill F^4
    a = span(GF3, 4, [1, 1, 0, 0], [0, 0, 1, 0])
    b = span(GF3, 4, [0, 1, 0, 0], [0, 0, 1, 1])
    assert a.intersect(b).dim == 0
    assert a.sum(b).dim == 4


def test_subspace_canonical_under_generator_mixing():
    rng = random.Random(5)
    base = [[1, 2, 0, 1], [0, 1, 1, 1]]
    ref = span(GF3, 4, *base)
    for _ in range(20):
        a = rng.randrange(1, 3)
        rows = [base[0], GF3.row_addmul(base[1], base[0], a)]
        if rng.random() < 0.5:
            rows.reverse()
        rows.append(GF3.row_addmul(rows[0], rows[1], rng.randrange(3)))
        assert span(GF3, 4, *rows) == ref


def test_dim_formula_exhaustive_gf3_dims_up_to_4():
    # every subspace of F_3^d for d <= 4, via lines, line-pair sums, and
    # hyperplane kernels; then check dim(a+b) + dim(a meet b) = dim a + dim b
    for d in (2, 3, 4):
        subs = {Subspace.zero(GF3, d), Subspace.full(GF3, d)}
        vecs = []
        for code in range(1, 3 ** d):
            v = [(code // 3 ** t) % 3 for t in range(d)]
            vecs.append(v)
            subs.add(span(GF3, d, v))
        lines = [s for s in subs if s.dim == 1]
        for i, a in enumerate(lines):
            for b in lines[i + 1:]:
                subs.add(a.sum(b))
        for v in vecs:
            subs.add(Subspace(GF3, d, kernel_rows([v], d, GF3)))
        if d == 4:
            # planes from line pairs cover all dim-2 subspaces
            assert sum(1 for s in subs if s.dim == 2) == 130
        subs = sorted(subs, key=lambda s: (s.dim, s.rows))
        for a in subs:
            for b in subs:
                assert (a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim)


def test_modular_law_random():
    rng = random.Random(17)
    d = 5
    for _ in range(40):
        rows = [[rng.randrange(3) for _ in range(d)] for _ in range(rng.randrange(1, 4))]
        a_extra = [[rng.randrange(3) for _ in range(d)] for _ in range(2)]
        b = span(GF3, d, *rows)
        a = b.sum(span(GF3, d, *a_extra))  # guarantees b <= a
        c = span(GF3, d, *[[rng.randrange(3) for _ in range(d)] for _ in range(2)])
        left = a.intersect(b.sum(c))
        right = b.sum(a.intersect(c))
        assert left == right


def test_contains_and_ordering():
    a = span(GF5, 3, [1, 0, 0], [0, 1, 0])
    assert [1, 2, 0] in a
    assert [0, 0, 1] not in a
    b = span(GF5, 3, [1, 1, 0])
    assert b <= a
    assert not a <= b
    with pytest.raises(ValueError):
        a.contains([1, 0])


def test_quotient_dim_and_reps():
    full = Subspace.full(GF3, 3)
    line = span(GF3, 3, e(3, 0))
    assert full.quotient_dim(full) == 0
    assert full.coset_representatives(full) == []
    reps = full.coset_representatives(line)
    assert len(reps) == 2
    for r in reps:
        assert r in full
        assert r not in line
    with pytest.raises(ValueError):
        line.quotient_dim(full)


def test_coset_representatives_rejects_a_sub_outside_the_space():
    plane = span(GF3, 3, e(3, 0), e(3, 1))
    with pytest.raises(ValueError, match="not a subspace of this space"):
        plane.coset_representatives(span(GF3, 3, e(3, 2)))
    with pytest.raises(ValueError, match="not a subspace of this space"):
        plane.coset_representatives(Subspace.full(GF3, 3))
    with pytest.raises(ValueError, match="different ambient spaces"):
        plane.coset_representatives(Subspace.full(GF3, 2))
    with pytest.raises(ValueError, match="different ambient spaces"):
        plane.coset_representatives(span(GF5, 3, [1, 0, 0]))


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_quotient_coords_reconstructs(ctx):
    def vec(*xs):
        return [ctx.from_int(x) for x in xs]

    sub = span(ctx, 5, vec(1, 1, 0, 0, 0))
    big = span(ctx, 5, vec(1, 1, 0, 0, 0), vec(0, 1, 1, 0, 1), vec(0, 0, 1, 1, 0),
               vec(0, 0, 0, 1, 1))
    reps = big.coset_representatives(sub)
    rep_pivots = [next(j for j, x in enumerate(r) if x) for r in reps]
    rng = random.Random(3)
    for _ in range(25):
        v = [ctx.zero()] * 5
        for row in big.rows:
            v = ctx.row_addmul(v, row, _scalar(ctx, rng))
        coeffs = quotient_coords(v, sub.rows, sub.pivots, reps, rep_pivots, ctx)
        assert len(coeffs) == len(reps) == 3
        back = [ctx.zero()] * 5
        for c, r in zip(coeffs, reps):
            back = ctx.row_addmul(back, r, c)
        assert ctx.row_submul(v, back, ctx.one()) in sub


def test_group_element_constructors():
    t = GroupElement.transvection(GF3, 3, 1, 2)
    assert t.mat.rows() == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    assert t.inv.rows() == [[1, 2, 0], [0, 1, 0], [0, 0, 1]]
    d = GroupElement.diagonal(GF5, [2, 1, 1])
    assert d.inv.rows()[0][0] == 3
    p = GroupElement.permutation(GF3, [2, 1, 3])
    assert p.mat.rows() == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert p.tag == ("permutation", (2, 1, 3))
    with pytest.raises(ValueError):
        GroupElement.transvection(GF3, 3, 2, 2)
    # an unchecked index outside 1..n writes a wrapped-round matrix entry
    # that the tag, which the fast action reads, does not describe
    for i, j in ((1, 4), (0, 2), (2, 0), (4, 1), (-1, 2)):
        with pytest.raises(ValueError, match=r"outside 1\.\.3"):
            GroupElement.transvection(GF5, 3, i, j)
    for images in ([1, 1, 2], [0, 1, 2], [1, 2, 4]):
        with pytest.raises(ValueError, match="is not a permutation"):
            GroupElement.permutation(GF3, images)
    # a zero entry has no inverse; it was refused only by FieldCtx.inv's ZeroDivisionError
    for ctx, diag in ((GF5, [0, 1, 1]), (GF5, [2, 1, 0]), (make_field(0, 1), [Fraction(0), 1, 2])):
        with pytest.raises(ValueError, match="must be nonzero"):
            GroupElement.diagonal(ctx, diag)


def test_group_element_compose():
    rng = random.Random(23)
    g = random_invertible(GF5, 3, rng)
    h = random_invertible(GF5, 3, rng)
    gh = g.compose(h)
    assert gh.mat == g.mat.mul(h.mat)
    assert gh.mat.mul(gh.inv) == Matrix.identity(GF5, 3)


def test_subspace_json_round_trip():
    a = span(make_field(2, 2), 3, [1, 2, 3], [0, 1, 1])
    assert Subspace.from_json(a.to_json()) == a


def test_rref_deterministic_first_nonzero():
    rows = [[0, 2, 1], [1, 0, 2], [1, 2, 0]]
    red1, piv1 = rref_rows(rows, GF3)
    red2, piv2 = rref_rows(list(reversed(rows)), GF3)
    assert red1 == red2 and piv1 == piv2


def test_quotient_reps_commutative_over_square_zero():
    # over GF(4) the square-zero space sits inside the commutative one and the
    # quotient has 9 representatives; over GF(3) the containment fails and the
    # precondition error fires
    from algdeg.gfield import make_field
    from algdeg.canon import basis_C, basis_K
    gf4 = make_field(2, 2)
    C, K = basis_C(gf4, 3), basis_K(gf4, 3)
    reps = C.coset_representatives(K)
    assert len(reps) == 9 == C.quotient_dim(K)
    for r in reps:
        assert r in C and r not in K
    gf3 = make_field(3)
    with pytest.raises(ValueError):
        basis_C(gf3, 3).quotient_dim(basis_K(gf3, 3))


# -- the elimination engine against a scalar Gauss-Jordan reference ------------

ENGINE_FIELDS = [make_field(p, k) for p, k in
                 ((3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (0, 1))]
ENGINE_SHAPES = [(1, 1), (1, 4), (3, 2), (2, 5), (4, 4), (6, 3), (3, 7), (7, 6)]


def _scalar(ctx, rng):
    if ctx.kind == "rational":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.randrange(ctx.order)


def _random_rows(ctx, nrows, ncols, rng):
    """nrows rows of length ncols: random, zero, and combinations of earlier rows."""
    rows = []
    for _ in range(nrows):
        kind = rng.randrange(4) if rows else 0
        if kind == 1:
            rows.append([ctx.zero()] * ncols)
        elif kind == 2:
            v = [ctx.zero()] * ncols
            for r in rng.sample(rows, min(2, len(rows))):
                v = ctx.row_addmul(v, r, _scalar(ctx, rng))
            rows.append(v)
        else:
            rows.append([_scalar(ctx, rng) for _ in range(ncols)])
    rng.shuffle(rows)
    return rows


def _reference_rref(rows, ctx):
    """Gauss-Jordan one column at a time, scalar operations only."""
    rows = [list(r) for r in rows]
    zero, pivots, r = ctx.zero(), [], 0
    for col in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows)) if rows[i][col] != zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = ctx.inv(rows[r][col])
        rows[r] = [ctx.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != r and c != zero:
                rows[i] = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def _dot(ctx, u, v):
    out = ctx.zero()
    for x, y in zip(u, v):
        out = ctx.add(out, ctx.mul(x, y))
    return out


def _engine_cases():
    rng = random.Random(61)
    for ctx in ENGINE_FIELDS:
        for nrows, ncols in ENGINE_SHAPES:
            for _ in range(3):
                yield ctx, _random_rows(ctx, nrows, ncols, rng)


def test_rref_rows_is_the_reduced_form_of_the_row_space():
    for ctx, rows in _engine_cases():
        zero, one = ctx.zero(), ctx.one()
        red, pivots = rref_rows(rows, ctx)
        assert (red, pivots) == _reference_rref(rows, ctx)
        assert pivots == sorted(set(pivots))
        for r, p in zip(red, pivots):
            assert r[p] == one and all(x == zero for x in r[:p])
            assert all(s[p] == zero for s in red if s is not r)
        # every input row is the combination of red given by its pivot entries
        for v in rows:
            back = [zero] * len(v)
            for r, p in zip(red, pivots):
                back = [ctx.add(x, ctx.mul(v[p], y)) for x, y in zip(back, r)]
            assert back == list(v)


def _brute_span(rows, ncols):
    return {tuple(sum(c * x for c, x in zip(cs, col)) % 3 for col in zip(*rows))
            for cs in product(range(3), repeat=len(rows))} if rows else {(0,) * ncols}


def test_rref_rows_row_space_brute_force_gf3():
    rng = random.Random(67)
    for nrows, ncols in ENGINE_SHAPES[:6]:
        for _ in range(4):
            rows = _random_rows(GF3, nrows, ncols, rng)
            red, _ = rref_rows(rows, GF3)
            assert _brute_span(red, ncols) == _brute_span(rows, ncols)
            assert len(_brute_span(red, ncols)) == 3 ** len(red)


def test_rank_plus_kernel_is_the_column_count():
    for ctx, rows in _engine_cases():
        ncols = len(rows[0])
        ker = kernel_rows(rows, ncols, ctx)
        assert Matrix.from_rows(ctx, rows).rank() + len(ker) == ncols
        assert Matrix.from_rows(ctx, rows).rank() == len(_reference_rref(rows, ctx)[1])
        for k in ker:
            assert all(_dot(ctx, r, k) == ctx.zero() for r in rows)


def test_intersection_dimension_formula():
    cases = list(_engine_cases())
    for (ctx, a_rows), (ctx_b, b_rows) in zip(cases, cases[1:]):
        if ctx_b != ctx or len(a_rows[0]) != len(b_rows[0]):
            continue
        d = len(a_rows[0])
        a, b = Subspace(ctx, d, a_rows), Subspace(ctx, d, b_rows)
        meet = a.intersect(b)
        assert meet <= a and meet <= b
        assert a.sum(b).dim + meet.dim == a.dim + b.dim


def test_rows_of_the_wrong_length_are_rejected():
    for ctx in ENGINE_FIELDS:
        zero = ctx.zero()
        with pytest.raises(ValueError):
            Subspace(ctx, 3, [[zero, zero]])
        with pytest.raises(ValueError):
            Subspace(ctx, 2, [[ctx.one(), zero], [zero, ctx.one(), zero]])
        with pytest.raises(ValueError):
            rref_rows([[ctx.one(), zero], [ctx.one()]], ctx)
        with pytest.raises(ValueError):
            Echelon(ctx, 3).add([ctx.one()] * 4)


def _nonzero_scalar(ctx, rng):
    while True:
        c = _scalar(ctx, rng)
        if c:
            return c


def _respan(ctx, rows, rng):
    """The rows shuffled and scaled, with dependent and zero rows added."""
    out = [ctx.row_scale(r, _nonzero_scalar(ctx, rng)) for r in rows]
    zero = [ctx.zero()] * len(rows[0])
    out += [ctx.row_addmul(rng.choice(rows), rng.choice(rows), _scalar(ctx, rng)), zero]
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_one_subspace_spanned_two_ways_is_one_set_member(ctx):
    rng = random.Random(71)
    d = 7
    rows = [[_scalar(ctx, rng) for _ in range(d)] for _ in range(4)]
    want = Subspace(ctx, d, rows)
    a = Subspace(ctx, d, _respan(ctx, rows, rng))
    b = Echelon(ctx, d, _respan(ctx, rows, rng)).subspace()
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a.rows == b.rows == want.rows
    assert a.pivots == b.pivots == want.pivots


CANONICAL = ("C", "K", "Mstar", "Mstarstar", "T", "Ttilde", "TcapTtilde", "N", "U")


def test_the_canonical_submodules_hold_each_basis_once():
    """At (6, GF(3)) the nine canonical submodules hold 0.6 MB in packed
    echelon rows; a second tuple copy of each basis takes it to 2.6 MB."""
    for name in CANONICAL:                # fill the caches the builds share
        Bases(GF3, 6)[name]
    tracemalloc.start()
    try:
        bases = Bases(GF3, 6)             # which keeps every submodule it builds
        for name in CANONICAL:
            bases[name]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1.5e6


def test_the_full_space_is_built_one_unit_row_at_a_time():
    """F^512 over GF(3) peaks at 0.5 MB in packed rows and their int views; an
    identity matrix of lists built first takes the peak to 4.7 MB."""
    tracemalloc.start()
    try:
        full = Subspace.full(GF3, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert full.dim == 512 and full.pivots == tuple(range(512))
    assert peak < 1e6
