"""Differential tests of the packed row kernels against plain list references.

Over GF(p), p <= 13, and GF(2^k) a row is packed into `bytes`; over the other
fields rows stay lists.  Every kernel and every packed path of the engine is
compared here with a reference written on the scalar operations alone, over
every field in the modulus table, two packed primes above 7, and Q; the row
kernels also over GF(17), whose rows are lists of codes.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from algdeg import canon, cli, spinmx
from algdeg.canon import Bases
from algdeg.exactla import (
    Echelon, GroupElement, Matrix, Subspace, combiner, kernel_rows, quotient_coords,
    reduce_with_coeffs, rref_rows,
)
from algdeg.gfield import FieldCtx, make_field
from algdeg.structvec import StructureVector, _act_general, _act_rank_one, act, act_coords
from oracles import action_matrix, trace_images

FIELDS = [make_field(p, k) for p, k in
          [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (5, 2), (0, 1)]]
PACKED = {"GF(3)", "GF(2^2)", "GF(5)", "GF(7)", "GF(2^3)", "GF(11)", "GF(13)"}

SETTINGS = settings(max_examples=25, deadline=None)
per_field = pytest.mark.parametrize("ctx", FIELDS, ids=repr)
# the row kernels' list branch over a prime field, which no packed field reaches
per_row_field = pytest.mark.parametrize("ctx", FIELDS + [make_field(17)], ids=repr)


def _scalars(ctx):
    if ctx.kind == "rational":
        return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    return st.integers(0, ctx.order - 1)


@st.composite
def field_rows(draw, ctx, count=1, max_len=40):
    """`count` rows of one length over ctx, zero rows drawn often."""
    d = draw(st.integers(1, max_len))
    rows = []
    for _ in range(count):
        if draw(st.integers(0, 4)) == 0:
            rows.append([ctx.zero()] * d)
        else:
            rows.append(draw(st.lists(_scalars(ctx), min_size=d, max_size=d)))
    return rows


# -- list references ------------------------------------------------------------

def ref_submul(ctx, u, v, c):
    return [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(u, v)]


def ref_addmul(ctx, u, v, c):
    return [ctx.add(x, ctx.mul(c, y)) for x, y in zip(u, v)]


def ref_scale(ctx, v, c):
    return [ctx.mul(c, y) for y in v]


def ref_lead(v):
    for j, x in enumerate(v):
        if x:
            return j
    return len(v)


def _forms(ctx, row):
    """The row as a list, a tuple and (over packed fields) packed bytes."""
    out = [list(row), tuple(row)]
    if ctx.packed:
        out.append(bytes(row))
    return out


# -- the kernels ------------------------------------------------------------------

def test_packed_fields_are_exactly_the_small_primes_and_char_2():
    assert {repr(ctx) for ctx in FIELDS if ctx.packed} == PACKED


@per_field
def test_each_field_has_one_context(ctx):
    assert make_field(ctx.char, ctx.degree) is make_field(ctx.char, ctx.degree) is ctx
    assert FieldCtx.from_json(ctx.to_json()) is ctx


@per_row_field
@SETTINGS
@given(data=st.data())
def test_row_submul_and_addmul_match_the_list_reference(ctx, data):
    u, v = data.draw(field_rows(ctx, count=2))
    for c in (ctx.zero(), ctx.one(), data.draw(_scalars(ctx))):
        for uf in _forms(ctx, u):
            for vf in _forms(ctx, v):
                sub = ctx.row_submul(uf, vf, c)
                add = ctx.row_addmul(uf, vf, c)
                assert list(sub) == ref_submul(ctx, u, v, c)
                assert list(add) == ref_addmul(ctx, u, v, c)
                # every form comes back in the field's row form
                want = bytes if ctx.packed else list
                assert type(sub) is want and type(add) is want


@per_row_field
@SETTINGS
@given(data=st.data())
def test_row_scale_matches_the_list_reference(ctx, data):
    (v,) = data.draw(field_rows(ctx))
    for c in (ctx.zero(), ctx.one(), data.draw(_scalars(ctx))):
        for vf in _forms(ctx, v):
            out = ctx.row_scale(vf, c)
            assert list(out) == ref_scale(ctx, v, c)
            assert type(out) is (bytes if ctx.packed else list)


@per_field
@SETTINGS
@given(data=st.data())
def test_lead_matches_the_list_reference(ctx, data):
    (v,) = data.draw(field_rows(ctx, max_len=12))
    v = [ctx.zero()] * data.draw(st.integers(0, 12)) + v
    for vf in _forms(ctx, v) + [ctx.pack(v)]:
        assert ctx.lead(vf) == ref_lead(v)


def test_pack_keeps_codes_and_order():
    for ctx in FIELDS:
        if ctx.packed:
            rows = [[a, b] for a in ctx.raw_elements() for b in ctx.raw_elements()]
            assert [list(ctx.pack(r)) for r in rows] == rows
            assert sorted(rows) == [list(r) for r in sorted(map(ctx.pack, rows))]
        else:
            assert type(ctx.pack((ctx.one(),))) is list


# -- the transvection action ---------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _transvection_matrix(ctx, n, i, j, t):
    g = GroupElement.transvection(ctx, n, i, j, t)
    return g, action_matrix(g, n).rows()


@per_field
@pytest.mark.parametrize("n", [3, 4])
@SETTINGS
@given(data=st.data())
def test_transvection_action_matches_the_action_matrix(ctx, n, data):
    i, j = data.draw(st.permutations(range(1, n + 1)))[:2]
    t = data.draw(_scalars(ctx).filter(bool)) if data.draw(st.booleans()) else ctx.one()
    g, rows = _transvection_matrix(ctx, n, i, j, t)
    _check_action(ctx, n, g, rows, data)


def _check_action(ctx, n, g, rows, data):
    """act_coords on a drawn vector, in every row form, against the action matrix."""
    coords = data.draw(st.lists(_scalars(ctx), min_size=n ** 3, max_size=n ** 3))
    expect = [ctx.zero()] * n ** 3
    for x, row in zip(coords, rows):
        expect = ref_addmul(ctx, expect, row, x)
    for cf in _forms(ctx, coords):
        assert list(act_coords(cf, g, n, ctx)) == expect


@per_field
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", ["diagonal", "general"])
@settings(max_examples=10, deadline=None)   # each example builds an n^3 x n^3 matrix
@given(data=st.data())
def test_diagonal_and_general_actions_match_the_action_matrix(ctx, n, kind, data):
    if kind == "diagonal":
        diag = data.draw(st.lists(_scalars(ctx).filter(bool), min_size=n, max_size=n))
        g = GroupElement.diagonal(ctx, diag)
    else:
        entries = data.draw(st.lists(_scalars(ctx), min_size=n * n, max_size=n * n))
        mat = Matrix(ctx, n, n, entries)
        assume(mat.rank() == n)
        g = GroupElement(mat)
        assert g.tag is None
    _check_action(ctx, n, g, action_matrix(g, n).rows(), data)


@per_field
@pytest.mark.parametrize("n", [3, 4])
@settings(max_examples=10, deadline=None)   # each example builds an n^3 x n^3 matrix
@given(data=st.data())
def test_permutation_gather_matches_the_action_matrix(ctx, n, data):
    sigma = data.draw(st.permutations(range(1, n + 1)))
    tau = data.draw(st.permutations(range(1, n + 1)))
    g, h = GroupElement.permutation(ctx, sigma), GroupElement.permutation(ctx, tau)
    assert g.tag == ("permutation", tuple(sigma))
    _check_action(ctx, n, g, action_matrix(g, n).rows(), data)
    # act(act(lam, sigma), tau) = act(lam, sigma tau); the product is gathered
    # when tagged (g h v_j = v_sigma(tau(j))) and contracted when untagged
    lam = StructureVector(ctx, n, data.draw(
        st.lists(_scalars(ctx), min_size=n ** 3, max_size=n ** 3)))
    gh = GroupElement.permutation(ctx, [sigma[t - 1] for t in tau])
    assert gh == g * h and (g * h).tag is None
    assert act(act(lam, g), h) == act(lam, gh) == act(lam, g * h)


# -- whole-row shifts: transvections and diagonals on int views ---------------------------
#
# Over packed fields `_act_transvection` runs `FieldCtx.row_shift_add` and
# `_act_diagonal` runs `FieldCtx.row_slot_scale` on the int view of the row;
# the list fields keep the slice loop.  The reference is the defining sum
# (lam g)_ijk = sum g_ai g_bj (g^-1)_kc lam_abc over the nonzero entries of g.

def ref_act(ctx, coords, g, n):
    gm, gi = g.mat.entries, g.inv.entries
    zero = ctx.zero()
    col = [[(a, gm[a * n + i]) for a in range(n) if gm[a * n + i] != zero] for i in range(n)]
    row = [[(c, gi[k * n + c]) for c in range(n) if gi[k * n + c] != zero] for k in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = zero
                for a, x in col[i]:
                    for b, y in col[j]:
                        xy = ctx.mul(x, y)
                        for c, z in row[k]:
                            acc = ctx.add(acc, ctx.mul(ctx.mul(xy, z),
                                                       coords[(a * n + b) * n + c]))
                out.append(acc)
    return out


@per_field
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@SETTINGS
@given(data=st.data())
def test_transvection_and_diagonal_match_the_defining_sum(ctx, n, data):
    coords = data.draw(st.lists(_scalars(ctx), min_size=n ** 3, max_size=n ** 3))
    r, s = data.draw(st.permutations(range(1, n + 1)))[:2]
    t = data.draw(_scalars(ctx).filter(bool))
    diag = data.draw(st.lists(_scalars(ctx).filter(bool), min_size=n, max_size=n))
    for g in (GroupElement.transvection(ctx, n, r, s, t), GroupElement.diagonal(ctx, diag)):
        expect = ref_act(ctx, coords, g, n)
        for cf in _forms(ctx, coords):
            got = act_coords(cf, g, n, ctx)
            assert type(got) is (bytes if ctx.packed else list)
            assert list(got) == expect


@pytest.mark.parametrize("ctx", [c for c in FIELDS if c.char in (11, 13)], ids=repr)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_transvections_with_every_slot_and_t_at_p_minus_1(ctx, n):
    # the largest slot the lazy bound allows: every entry p - 1, and t = p - 1
    # (steps 1 and 2 add (p-1) times a slot, step 3 adds 1 times one)
    top = ctx.char - 1
    coords = [top] * n ** 3
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            if r != s:
                for t in (top, 1):
                    g = GroupElement.transvection(ctx, n, r, s, t)
                    assert list(act_coords(coords, g, n, ctx)) == ref_act(ctx, coords, g, n)


@pytest.mark.parametrize("ctx", [c for c in FIELDS if c.char == 2 and c.degree > 1], ids=repr)
@pytest.mark.parametrize("n", [3, 4])
def test_gf2k_transvections_with_t_not_1(ctx, n):
    rng = random.Random(n)
    coords = [rng.randrange(ctx.order) for _ in range(n ** 3)]
    for t in range(2, ctx.order):
        g = GroupElement.transvection(ctx, n, 1, n, t)
        h = GroupElement.transvection(ctx, n, n, 2, t)
        for x in (g, h):
            assert list(act_coords(bytes(coords), x, n, ctx)) == ref_act(ctx, coords, x, n)


@st.composite
def shift_steps(draw, ctx, d):
    """(c, mask, shift) steps whose moved slots stay inside the row and miss the sources."""
    steps, moves = [], []
    for _ in range(draw(st.integers(0, 6))):
        m = draw(st.integers(1 - d, d - 1).filter(bool)) if d > 1 else 0
        if not m:
            continue
        src = set()
        for f in draw(st.permutations(range(max(0, -m), min(d, d - m)))):
            if f + m not in src and f - m not in src and draw(st.booleans()):
                src.add(f)
        c = draw(st.sampled_from([ctx.order - 1, 1] + list(range(ctx.order))))
        steps.append((c, sum(0xFF << 8 * (d - 1 - f) for f in src), -8 * m))
        moves.append((c, src, m))
    return steps, moves


@pytest.mark.parametrize("ctx", [c for c in FIELDS if c.packed], ids=repr)
@SETTINGS
@given(data=st.data())
def test_row_shift_add_matches_the_list_reference(ctx, data):
    d = data.draw(st.integers(1, 40))
    top = data.draw(st.booleans())
    row = ([ctx.order - 1] * d if top else
           data.draw(st.lists(_scalars(ctx), min_size=d, max_size=d)))
    steps, moves = data.draw(shift_steps(ctx, d))
    expect = list(row)
    for c, src, m in moves:
        old = list(expect)
        for f in src:
            expect[f + m] = ctx.add(old[f + m], ctx.mul(c, old[f]))
    for rf in _forms(ctx, row):
        assert ctx.row_shift_add(rf, steps) == bytes(expect)


@pytest.mark.parametrize("ctx", [c for c in FIELDS if c.packed], ids=repr)
@SETTINGS
@given(data=st.data())
def test_row_slot_scale_matches_the_list_reference(ctx, data):
    d = data.draw(st.integers(1, 40))
    row = data.draw(st.lists(_scalars(ctx), min_size=d, max_size=d))
    scalar_of = data.draw(st.lists(_scalars(ctx), min_size=d, max_size=d))
    parts = {}
    for f, c in enumerate(scalar_of):
        parts[c] = parts.get(c, 0) | 0xFF << 8 * (d - 1 - f)
    expect = [ctx.mul(c, x) for c, x in zip(scalar_of, row)]
    for rf in _forms(ctx, row):
        assert ctx.row_slot_scale(rf, tuple(parts.items())) == bytes(expect)


# -- rank-one transvections and trace images on int views -------------------------------

def _some_scalars(ctx):
    return ctx.raw_elements() if ctx.order else [Fraction(a, b) for a in range(-3, 4)
                                                 for b in (1, 2)]


def _rank_one_cases(ctx, n, rng):
    """(z, zeta) pairs with zeta(z) = 0: dense, with zero entries, and single units."""
    scalars, zero = _some_scalars(ctx), ctx.zero()
    cases = [([ctx.one()] + [zero] * (n - 1), [zero] * (n - 1) + [ctx.one()])]
    while len(cases) < 6:
        sparse = len(cases) % 2
        z = [zero if sparse and rng.random() < 0.5 else rng.choice(scalars) for _ in range(n)]
        zeta = [zero if sparse and rng.random() < 0.5 else rng.choice(scalars)
                for _ in range(n)]
        k = next((i for i, x in enumerate(z) if x != zero), None)
        if k is None:
            continue
        zeta[k] = zero
        acc = zero
        for a, b in zip(z, zeta):
            acc = ctx.add(acc, ctx.mul(a, b))
        zeta[k] = ctx.neg(ctx.mul(acc, ctx.inv(z[k])))
        if any(x != zero for x in zeta):
            cases.append((z, zeta))
    return cases


@per_field
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rank_one_action_matches_the_general_action(ctx, n):
    # every scale a certificate uses (1 and alpha), and c = -1; over the list
    # fields the tagged element takes the general action itself
    rng = random.Random(10 * n + (ctx.order or 0))
    one = ctx.one()
    alpha = next(x for x in (ctx.raw_elements() if ctx.order else [Fraction(2)])
                 if x not in (ctx.zero(), one))
    scalars = _some_scalars(ctx)
    top = [scalars[-1]] * n ** 3   # over GF(p) every slot at p - 1
    for z, zeta in _rank_one_cases(ctx, n, rng):
        for c in (one, alpha, ctx.neg(one)):
            g = GroupElement.rank_one(ctx, z, zeta, c)
            assert g.tag == ("rank-one", tuple(z), tuple(zeta), c)
            for coords in (top, [rng.choice(scalars) for _ in range(n ** 3)]):
                expect = list(_act_general(coords, g.mat, g.inv, n, ctx))
                if ctx.packed:
                    assert list(_act_rank_one(bytes(coords), n, ctx, *g.tag[1:])) == expect
                for cf in _forms(ctx, coords):
                    got = act_coords(cf, g, n, ctx)
                    assert type(got) is (bytes if ctx.packed else list)
                    assert list(got) == expect


@per_field
def test_rank_one_refuses_a_zeta_that_does_not_vanish_on_z(ctx):
    zero, one = ctx.zero(), ctx.one()
    z = [one, zero, zero]
    with pytest.raises(ValueError, match="cached inverse is wrong"):
        GroupElement.rank_one(ctx, z, z, one)
    with pytest.raises(ValueError, match="different lengths"):
        GroupElement.rank_one(ctx, z, [zero, one], one)


@per_field
@pytest.mark.parametrize("n", [3, 4, 5])
def test_trace_images_match_the_trace_of_each_structure_vector(ctx, n):
    bases = Bases(ctx, n)
    rng = random.Random(n + (ctx.order or 0))
    q = ctx.order or 7
    full = Subspace.full(ctx, n ** 3)._ech.rows
    picked = Subspace(ctx, n ** 3, [combiner(full, ctx)([ctx.from_int(rng.randrange(q))
                                                         for _ in full]) for _ in range(5)])
    for sub in [bases[name] for name in ("T", "K", "C", "Lambda")] + [picked]:
        images = canon._trace_images(sub, n)
        assert images == trace_images(sub, n)
        assert all(type(r) is list for r in images)


# -- the echelon engine ----------------------------------------------------------------

@per_field
@SETTINGS
@given(data=st.data())
def test_echelon_on_mixed_rows_matches_all_list_input(ctx, data):
    rows = data.draw(field_rows(ctx, count=data.draw(st.integers(1, 8)), max_len=10))
    d = len(rows[0])
    mixed = [data.draw(st.sampled_from(_forms(ctx, r))) for r in rows]
    ech = Echelon(ctx, d, mixed)
    assert all(type(r) is (bytes if ctx.packed else list) for r in ech.rows)
    sub = ech.subspace()
    assert sub == Subspace(ctx, d, rows)
    # and the result is the reduced form of a space holding every input row
    assert all(sub.contains(r) for r in rows)
    basis = sub.rows
    for r, p in zip(basis, sub.pivots):
        assert ref_lead(r) == p and r[p] == ctx.one()
        assert all(s[p] == ctx.zero() for s in basis if s is not r)


# -- jump elimination and lazily reduced combiner -----------------------------------------
#
# Over packed fields `Echelon.reduce` runs `FieldCtx.row_eliminate` on int views
# and `combiner` runs `FieldCtx.row_combine`, both reducing slots mod p only
# every `_lazy_terms` terms.  The references below run the textbook loops on
# the scalar operations alone.

def ref_insert(ctx, rows, pivots, vec):
    """Textbook echelon insertion: (rows, pivots) after adding vec, or None if dependent."""
    v = ref_reduce(ctx, vec, rows, pivots)
    lead = ref_lead(v)
    if lead == len(v):
        return None
    v = ref_scale(ctx, v, ctx.inv(v[lead]))
    at = sum(1 for p in pivots if p < lead)
    return rows[:at] + [v] + rows[at:], pivots[:at] + [lead] + pivots[at:]


def ref_reduce(ctx, vec, rows, pivots):
    """Clear each pivot column of vec, one stored row at a time in pivot order."""
    v = list(vec)
    for row, p in sorted(zip(rows, pivots), key=lambda rp: rp[1]):
        if v[p]:
            v = ref_submul(ctx, v, row, v[p])
    return v


def ref_combine(ctx, coeffs, rows):
    out = [ctx.zero()] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = ref_addmul(ctx, out, row, c)
    return out


def _check_views(ech):
    """The int views and the pivot mask agree with the stored rows."""
    if not ech.ctx.packed:
        return
    d = ech.ambient
    assert ech._ints == {(d - 1 - p) * 8: int.from_bytes(r, "big")
                         for r, p in zip(ech.rows, ech.pivots)}
    assert ech._mask == sum(0xFF << (d - 1 - p) * 8 for p in ech.pivots)


def test_lazy_terms_keep_every_slot_below_256():
    got = {ctx.char: ctx._lazy_terms for ctx in FIELDS if ctx.packed and ctx.char != 2}
    assert got == {3: 63, 5: 15, 7: 6, 11: 2, 13: 1}
    for p, k in got.items():
        assert (p - 1) + k * (p - 1) ** 2 <= 255 < (p - 1) + (k + 1) * (p - 1) ** 2


@per_field
@SETTINGS
@given(data=st.data())
def test_echelon_add_and_reduce_match_the_textbook_loop(ctx, data):
    rows = data.draw(field_rows(ctx, count=data.draw(st.integers(1, 12)), max_len=24))
    d = len(rows[0])
    ech = Echelon(ctx, d)
    ref_rows, ref_pivots = [], []
    for r in rows:
        added = ech.add(r)
        step = ref_insert(ctx, ref_rows, ref_pivots, r)
        assert (added is None) == (step is None)
        if step is not None:
            ref_rows, ref_pivots = step
            assert list(added) == ref_rows[ref_pivots.index(ref_lead(added))]
        assert [list(x) for x in ech.rows] == ref_rows and ech.pivots == ref_pivots
        _check_views(ech)
    v = data.draw(st.lists(_scalars(ctx), min_size=d, max_size=d))
    assert list(ech.reduce(v)) == ref_reduce(ctx, v, ref_rows, ref_pivots)


@per_field
@SETTINGS
@given(data=st.data())
def test_reduced_then_more_adds_keeps_the_views_consistent(ctx, data):
    rows = data.draw(field_rows(ctx, count=data.draw(st.integers(2, 12)), max_len=16))
    d = len(rows[0])
    split = data.draw(st.integers(1, len(rows) - 1))
    ech = Echelon(ctx, d, rows[:split])
    red, pivots = ech.reduced()
    _check_views(ech)
    assert [list(r) for r in red] == [list(r) for r in Subspace(ctx, d, rows[:split]).rows]
    for r in rows[split:]:
        ech.add(r)
        _check_views(ech)
    ref_rows, ref_pivots = [list(r) for r in ech.rows], list(ech.pivots)
    for r in rows:
        assert ref_lead(ech.reduce(r)) == d
    v = data.draw(st.lists(_scalars(ctx), min_size=d, max_size=d))
    assert list(ech.reduce(v)) == ref_reduce(ctx, v, ref_rows, ref_pivots)
    assert ech.subspace() == Subspace(ctx, d, rows)
    _check_views(ech)


# every packed field: GF(p) for p <= 13, and GF(2^k)
PACKED_FIELDS = [make_field(p, k) for p, k in
                 [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (2, 2), (2, 3)]]


def _insert_cases(ctx, d, rng):
    """Rows of length d >= 2|F| + 4 for an echelon: a zero row; three rows led
    by 1 at the last odd slots; for each nonzero c two rows led by c at the
    next free slots on the left, one zero at every pivot slot (it touches no
    pivot) and one nonzero at every pivot slot (the elimination runs and keeps
    c as its lead); a combination of the rows so far (dependent); the zero row."""
    q, zero = ctx.order, ctx.zero()
    base = [d - 1, d - 3, d - 5]
    cases = [[zero] * d] + [[zero] * p + [ctx.one()] + [rng.randrange(q) for _ in range(d - p - 1)]
                            for p in base]
    for j in range(2 * (q - 1)):
        row = [zero] * j + [1 + j // 2] + [rng.randrange(1, q) if m in base else
                                          rng.randrange(q) for m in range(j + 1, d)]
        if j % 2 == 0:
            row = [zero if m in base else x for m, x in enumerate(row)]
        cases.append(row)
    cases.append(ref_combine(ctx, [rng.randrange(q) for _ in cases], cases))
    cases.append([zero] * d)
    return cases


@pytest.mark.parametrize("ctx", PACKED_FIELDS, ids=repr)
def test_one_pass_insert_and_reduce_match_the_scalar_semi_echelon(ctx):
    assert ctx.packed
    d, rng = 2 * ctx.order + 4, random.Random(ctx.order)
    cases = _insert_cases(ctx, d, rng)
    probes = cases + [[rng.randrange(ctx.order) for _ in range(d)] for _ in range(6)]
    for form in range(3):
        ech, ref_rows, ref_pivots = Echelon(ctx, d), [], []
        for row in cases:
            shaped = _forms(ctx, row)[form]
            assert list(ech.reduce(shaped)) == ref_reduce(ctx, row, ref_rows, ref_pivots)
            added = ech.add(shaped)
            step = ref_insert(ctx, ref_rows, ref_pivots, row)
            assert (added is None) == (step is None)
            if step is not None:
                ref_rows, ref_pivots = step
                assert type(added) is bytes
                assert list(added) == ref_rows[ref_pivots.index(ref_lead(added))]
            assert [list(r) for r in ech.rows] == ref_rows and ech.pivots == ref_pivots
            _check_views(ech)
        for row in probes:
            got = ech.reduce(_forms(ctx, row)[form])
            assert type(got) is bytes
            assert list(got) == ref_reduce(ctx, row, ref_rows, ref_pivots)
        red, pivots = ech.reduced()
        assert [list(r) for r in red] == [list(r) for r in Subspace(ctx, d, cases).rows]
        _check_views(ech)
        for bad in ([ctx.one()] * (d - 1), [ctx.one()] * (d + 1)):
            for method in (ech.add, ech.reduce):
                with pytest.raises(ValueError, match="ambient dimension"):
                    method(_forms(ctx, bad)[form])
        assert ech.pivots == pivots
        _check_views(ech)


def test_the_insert_cases_reach_every_pivot_value():
    # each nonzero scalar leads one row that meets no pivot slot and one that
    # meets all of them, so `add` normalizes by each on both of its paths
    for ctx in PACKED_FIELDS:
        d = 2 * ctx.order + 4
        cases = _insert_cases(ctx, d, random.Random(ctx.order))
        base = [d - 1, d - 3, d - 5]
        led = [r for r in cases if ref_lead(r) < base[-1]]
        assert {r[ref_lead(r)] for r in led if not any(r[p] for p in base)} == set(
            range(1, ctx.order))
        assert {r[ref_lead(r)] for r in led if all(r[p] for p in base)} == set(
            range(1, ctx.order))
        assert sum(all(x == 0 for x in r) for r in cases) == 2


@per_field
@SETTINGS
@given(data=st.data())
def test_combine_matches_the_list_reference(ctx, data):
    rows = data.draw(field_rows(ctx, count=data.draw(st.integers(1, 40)), max_len=12))
    coeffs = [data.draw(_scalars(ctx)) for _ in rows]
    want = ref_combine(ctx, coeffs, rows)
    for form in range(len(_forms(ctx, rows[0]))):
        shaped = [_forms(ctx, r)[form] for r in rows]
        assert list(combiner(shaped, ctx)(coeffs)) == want
        assert list(combiner(shaped, ctx)(bytes(coeffs) if ctx.packed else coeffs)) == want


@per_field
@SETTINGS
@given(data=st.data())
def test_quotient_coords_and_contains_match_the_list_path(ctx, data):
    rows = data.draw(field_rows(ctx, count=data.draw(st.integers(2, 8)), max_len=12))
    d = len(rows[0])
    big = Subspace(ctx, d, rows)
    sub = Subspace(ctx, d, rows[:data.draw(st.integers(0, len(rows) - 1))])
    reps = big.coset_representatives(sub)
    rep_pivots = [ref_lead(r) for r in reps]
    coeffs = [data.draw(_scalars(ctx)) for _ in big.rows]
    v = ref_combine(ctx, coeffs, big.rows) if big.rows else [ctx.zero()] * d
    got = quotient_coords(v, sub.rows, sub.pivots, reps, rep_pivots, ctx)
    # the list path: clear sub's pivots, read the reps' pivots, clear those too
    t = ref_reduce(ctx, v, [list(r) for r in sub.rows], list(sub.pivots))
    assert list(got) == [t[p] for p in rep_pivots]
    assert ref_lead(ref_reduce(ctx, t, reps, rep_pivots)) == d
    res, cs = reduce_with_coeffs(t, reps, rep_pivots, ctx)
    assert cs == got and ref_lead(res) == d
    w = [data.draw(_scalars(ctx)) for _ in range(d)]
    assert big.contains(w) == (ref_lead(ref_reduce(ctx, w, [list(r) for r in big.rows],
                                                     list(big.pivots))) == d)
    assert sub.contains(v) == (ref_lead(t) == d)
    # the pivot gather of an echelon with 0, 1, then more pivots, the same
    # echelon gathered again after each row it takes, and the full space
    grown = Echelon(ctx, d)
    for row in rows + [None]:
        for _ in range(2):
            res, cs = grown.reduce_with_coeffs(w)
            assert list(cs) == [w[p] for p in grown.pivots]
            assert res == grown.reduce(w)
        if row is not None:
            grown.add(row)
    assert grown.dim == big.dim
    assert list(Subspace.full(ctx, d)._ech.reduce_with_coeffs(w)[1]) == w


def _count_reductions(monkeypatch, ctx):
    calls = []
    reduce = ctx._reduced_int
    monkeypatch.setattr(ctx, "_reduced_int", lambda x, d: calls.append(1) or reduce(x, d))
    return calls


def test_gf13_reduces_before_every_further_term(monkeypatch):
    ctx = make_field(13)
    rng = random.Random(13)
    rows = [[rng.randrange(13) for _ in range(30)] for _ in range(25)]
    ech = Echelon(ctx, 30, rows)
    calls = _count_reductions(monkeypatch, ctx)
    v = [12] * 30
    want = ref_reduce(ctx, v, [list(r) for r in ech.rows], ech.pivots)
    assert list(ech.reduce(v)) == want
    assert calls                                    # K = 1: a reduction per term after the first
    coeffs = [rng.randrange(1, 13) for _ in rows]
    del calls[:]
    assert list(combiner(rows, ctx)(coeffs)) == ref_combine(ctx, coeffs, rows)
    assert len(calls) == len(rows) - 1


def test_gf5_reduces_midway_after_fifteen_row_operations(monkeypatch):
    # rows e_i + 4 e_20: clearing twenty 1s adds 4*4 = 16 to the last slot
    # each time, 1 + 20*16 = 321 > 255 without a reduction on the way
    ctx, d = make_field(5), 21
    rows = [[1 if j == i else 4 if j == 20 else 0 for j in range(d)] for i in range(20)]
    ech = Echelon(ctx, d, rows)
    calls = _count_reductions(monkeypatch, ctx)
    res = ech.reduce([1] * d)
    assert list(res) == ref_reduce(ctx, [1] * d, rows, list(range(20))) == [0] * 20 + [1]
    assert len(calls) == 1                          # after the 15th of 20 row operations
    del calls[:]
    assert list(combiner(rows, ctx)([4] * 20)) == ref_combine(ctx, [4] * 20, rows)
    assert len(calls) == 1


def test_a_pivot_slot_that_is_a_nonzero_multiple_of_p_is_skipped():
    # over GF(3): clearing pivot 0 of v = [1, 2, 1, 0] with r0 = [1, 2, 0, 0]
    # adds 2*r0, so the unreduced pivot-1 slot holds 2 + 4 = 6 = 2p; r1 must
    # be skipped and pivot 2 still cleared
    ctx = make_field(3)
    ech = Echelon(ctx, 4, [[1, 2, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1]])
    assert ech.pivots == [0, 1, 2]
    v = [1, 2, 1, 0]
    want = ref_reduce(ctx, v, [list(r) for r in ech.rows], ech.pivots)
    assert list(ech.reduce(v)) == want == [0, 0, 0, 2]


@pytest.mark.parametrize("ctx", [make_field(2, 2), make_field(2, 3)], ids=repr)
def test_gf2k_scales_the_row_when_the_pivot_entry_is_not_one(ctx):
    rng = random.Random(ctx.order)
    rows = [[rng.randrange(ctx.order) for _ in range(12)] for _ in range(8)]
    ech = Echelon(ctx, 12, rows)
    for c in range(2, ctx.order):
        v = ctx.row_scale(list(ech.rows[0]), c)
        v = ctx.row_addmul(v, list(ech.rows[-1]), c)
        assert ref_lead(ech.reduce(v)) == 12
        w = [rng.randrange(ctx.order) for _ in range(12)]
        assert list(ech.reduce(w)) == ref_reduce(ctx, w, [list(r) for r in ech.rows],
                                                 ech.pivots)
        coeffs = [c] * len(rows)
        assert list(combiner(rows, ctx)(coeffs)) == ref_combine(ctx, coeffs, rows)


# -- no bytes leave the engine -----------------------------------------------------------

def _holds_bytes(x):
    if isinstance(x, (bytes, bytearray)):
        return True
    if isinstance(x, dict):
        return any(_holds_bytes(v) for v in x.values())
    if isinstance(x, (list, tuple)):
        return any(_holds_bytes(v) for v in x)
    return False


def test_values_leaving_the_engine_hold_no_bytes(capsys):
    for ctx in FIELDS:
        if not ctx.packed:
            continue
        g = GroupElement.transvection(ctx, 3, 1, 2)
        lam = StructureVector(ctx, 3, [x % ctx.order for x in range(27)])
        assert type(act(lam, g).coords) is list
        assert type(lam.scale(ctx.one()).coords) is list
        assert type((lam + lam).coords) is list
        red, _ = rref_rows([lam.coords, act(lam, g).coords], ctx)
        assert all(type(r) is list for r in red)
        sub = Subspace(ctx, 27, red)
        assert type(sub.rows) is tuple and all(type(r) is tuple for r in sub.rows)
        assert not _holds_bytes(sub.rows) and not _holds_bytes(sub.to_json())
    for field in ("3", "2^2"):
        args = cli.build_parser().parse_args(
            ["survey", "--module", "Mstar", "--n", "3", "--field", field])
        assert args.field.packed
        assert not _holds_bytes(cli.command(args)(args).claims)
        handle = spinmx.dual_space_handle(spinmx.standard_generators(args.field, 3))
        assert _holds_bytes(handle.reps) and _holds_bytes(handle.action)
    for argv in (["series", "--chain", "0,Mstar(1,-1),K", "--n", "3", "--field", "5"],
                 ["lattice", "--n", "4", "--field", "3"],
                 ["gamma", "--n", "3", "--field", "2^2"],
                 ["verify-all", "--n-list", "3", "--fields", "3,2^2"]):
        args = cli.build_parser().parse_args(argv)
        assert not _holds_bytes(cli.command(args)(args).to_json()), argv
    capsys.readouterr()


@per_field
def test_rows_inside_the_engine_take_the_row_form_of_their_field(ctx):
    """Handles, kernels, complements, quotient coordinates and hom-space bases
    hold `bytes` rows over a packed field and lists elsewhere, whatever the
    form of the rows they are given."""
    form = bytes if ctx.packed else list

    def in_form(rows):
        return bool(rows) and all(type(r) is form for r in rows)

    gens = (spinmx.standard_generators(ctx, 3) if ctx.kind == "finite"
            else spinmx.rational_generators(ctx, 3))
    bases = Bases(ctx, 3)
    Ms, Mss = bases["Mstar"], bases["Mstarstar"]
    handles = [spinmx.dual_space_handle(gens), spinmx.module_handle(gens, Ms),
               spinmx.module_handle(gens, Mss, sub=Ms)]
    for h in handles:
        assert in_form(h.reps) and all(in_form(m) for m in h.action), h.label
        assert in_form(spinmx._transpose_rows(h.action[0], ctx)), h.label
        dim, basis = spinmx.hom_space(h, h)
        assert dim == len(basis) and in_form(basis), h.label
    rows = [[ctx.one(), ctx.zero(), ctx.one()], [ctx.zero(), ctx.one(), ctx.one()]]
    for shaped in (rows, [tuple(r) for r in rows], [ctx.pack(r) for r in rows]):
        assert in_form(spinmx._transpose_rows(shaped, ctx))
        assert in_form(kernel_rows(shaped, 3, ctx))
        big, sub = Subspace(ctx, 3, shaped), Subspace(ctx, 3, shaped[:1])
        reps = big.coset_representatives(sub)
        assert in_form(reps)
        coeffs = quotient_coords(shaped[1], sub.rows, sub.pivots, reps,
                                 [ctx.lead(r) for r in reps], ctx)
        assert type(coeffs) is form and list(coeffs) == [ctx.one()]
