"""Reference constructions the tests compare `algdeg` against.

These are the slow, direct versions of maps that `algdeg` computes another
way, plus helpers that build test data.  The commands never call them, so
they live here rather than in `src/`.  Pytest does not collect this module;
tests import from it the way they import `FIELDS` from `test_packed`:

    from oracles import act_on_basis, dual_act
"""

from algdeg.canon import _pairs, _triples, epsilon, epsilon_tilde
from algdeg.exactla import GroupElement, Matrix, combiner
from algdeg.structvec import (
    DualVector, StructureVector, _check_element, _check_index, _swap_ij, basis_vector, flat,
    product, tr,
)


def act_on_basis(ctx, n, a, b, c, g):
    """Direct expansion of the basis action: abc*g = sum g_ai g_bj (g^-1)_kc ijk."""
    if not (1 <= a <= n and 1 <= b <= n and 1 <= c <= n):
        raise ValueError("basis indices out of range")
    if g.n != n or g.ctx != ctx:
        raise ValueError("group element does not match the structure space")
    zero = ctx.zero()
    mul, add = ctx.mul, ctx.add
    gm, gi = g.mat.entries, g.inv.entries
    coords = [zero] * n ** 3
    f = 0
    for i in range(n):
        ga = gm[(a - 1) * n + i]
        for j in range(n):
            gab = mul(ga, gm[(b - 1) * n + j])
            for k in range(n):
                coords[f] = add(coords[f], mul(gab, gi[k * n + (c - 1)]))
                f += 1
    return StructureVector(ctx, n, coords)


def action_matrix(g, n):
    """The n^3 x n^3 matrix of the action, rows indexed by source basis triples."""
    ctx = g.ctx
    rows = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                rows.append(act_on_basis(ctx, n, a, b, c, g).coords)
    return Matrix.from_rows(ctx, rows)


def vector_act(g, v):
    """Left action on V: coordinates [g][v], the columns of [g] combined by v."""
    _check_element(g, v)
    gm, n = g.mat.entries, v.n
    return v._like(combiner([gm[j::n] for j in range(n)], v.ctx)(v.coords))


def dual_act(phi, g):
    """Right action on the dual: row vector times [g], the rows of [g] combined by phi."""
    _check_element(g, phi)
    gm, n = g.mat.entries, phi.n
    return phi._like(combiner([gm[i * n:i * n + n] for i in range(n)], phi.ctx)(phi.coords))


def dual_basis_vector(ctx, n, i):
    _check_index(n, i)
    coords = [ctx.zero()] * n
    coords[i - 1] = ctx.one()
    return DualVector(ctx, n, coords)


def opposite(lam):
    """Structure vector of the opposite algebra: indices (i,j,k) -> (j,i,k)."""
    return lam._like(_swap_ij(lam.coords, lam.n, lam.ctx))


def zero_structure_vector(ctx, n):
    return StructureVector(ctx, n, [ctx.zero()] * n ** 3)


def mu_alpha_delta(alpha, delta):
    """Structure vector of the product [u,v] = alpha(v)u + delta(u)v."""
    ctx, n = alpha.ctx, alpha.n
    if delta.ctx != ctx or delta.n != n:
        raise ValueError("covector pair over mismatched spaces")
    out = zero_structure_vector(ctx, n)
    for a in range(1, n + 1):
        ca, cd = alpha.coords[a - 1], delta.coords[a - 1]
        if ca != ctx.zero():
            out = out + epsilon(ctx, n, a).scale(ca)
        if cd != ctx.zero():
            out = out + epsilon_tilde(ctx, n, a).scale(cd)
    return out


def random_invertible(ctx, n, rng):
    """Uniform-ish random GroupElement: resample raw matrices until invertible."""
    q = ctx.order
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        m = Matrix.from_rows(ctx, rows)
        try:
            inv = m.inverse()
        except ValueError:
            continue
        return GroupElement(m, inv)


def trace_images(carrier, n):
    """tr of each basis row of a carrier, through one StructureVector per row."""
    return [tr(StructureVector(carrier.ctx, n, r)).coords for r in carrier._ech.rows]


# -- the coordinate-condition predicates, one bounds-checked `flat` per read ------

def predicate_C(lam):
    n = lam.n
    c = lam.coords
    for i, j in _pairs(n):
        if c[flat(n, i, j, j)] != c[flat(n, j, i, j)]:
            return False
    for i, j, k in _triples(n):
        if c[flat(n, i, j, k)] != c[flat(n, j, i, k)]:
            return False
    return True


def predicate_K(lam):
    ctx, n = lam.ctx, lam.n
    c = lam.coords
    zero = ctx.zero()
    for i in range(1, n + 1):
        if c[flat(n, i, i, i)] != zero:
            return False
    for i, j in _pairs(n):
        if c[flat(n, i, i, j)] != zero:
            return False
        if ctx.add(c[flat(n, i, j, i)], c[flat(n, j, i, i)]) != zero:
            return False
    for i, j, k in _triples(n):
        if ctx.add(c[flat(n, i, j, k)], c[flat(n, j, i, k)]) != zero:
            return False
    return True


def predicate_Mstar(lam):
    ctx, n = lam.ctx, lam.n
    c = lam.coords
    zero = ctx.zero()
    for i, j in _pairs(n):
        if c[flat(n, i, i, j)] != zero:
            return False
    for i, j, k in _triples(n):
        if c[flat(n, i, j, k)] != zero:
            return False
        if c[flat(n, i, j, j)] != c[flat(n, i, k, k)]:
            return False
        if c[flat(n, j, i, j)] != c[flat(n, k, i, k)]:
            return False
    for i, j in _pairs(n):
        want = ctx.add(c[flat(n, i, j, j)], c[flat(n, j, i, j)])
        if c[flat(n, i, i, i)] != want:
            return False
    return True


def predicate_Mstarstar(lam):
    ctx, n = lam.ctx, lam.n
    c = lam.coords
    zero = ctx.zero()
    for i, j in _pairs(n):
        if c[flat(n, i, i, j)] != zero:
            return False
        if ctx.add(c[flat(n, i, j, i)], c[flat(n, j, i, i)]) != c[flat(n, j, j, j)]:
            return False
    for i, j, k in _triples(n):
        if ctx.add(c[flat(n, i, j, k)], c[flat(n, j, i, k)]) != zero:
            return False
    return True


def omega_coords(lam):
    """The coordinates lam_iii of the square factor functional."""
    n = lam.n
    return [lam.coords[flat(n, i, i, i)] for i in range(1, n + 1)]


def sigma_rows(lam):
    """The rows of the squaring map's matrix: entry (k, j) is lam_jjk."""
    n = lam.n
    return [[lam.coords[flat(n, j, j, k)] for j in range(1, n + 1)] for k in range(1, n + 1)]


def zeta_bracket_row(lam, z, zeta):
    """zeta([z, e_j]) over j, through one `product` and one evaluation per j."""
    ctx, n = lam.ctx, lam.n
    return [zeta(product(lam, z, basis_vector(ctx, n, j))) for j in range(1, n + 1)]


# -- semilinear maps, entry by entry ----------------------------------------------

def semilinear_sum_entries(a, b):
    return [a.ctx.add(x, y) for x, y in zip(a.mat.entries, b.mat.entries)]


def semilinear_scale_entries(phi, c):
    return [phi.ctx.mul(c, x) for x in phi.mat.entries]


def semilinear_unit_entries(ctx, n, i, j):
    """The entries of the matrix unit e_ij (1-based), row-major."""
    return [ctx.one() if (a, b) == (i, j) else ctx.zero()
            for a in range(1, n + 1) for b in range(1, n + 1)]
