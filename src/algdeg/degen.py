"""Linear degenerations: weight truncation and the transvection pipeline.

The weight truncation keeps exactly the coordinates with q_i + q_j - q_k = 0;
when the negative-weight coordinates of lam vanish and the maximal weight is
below |F| - 1, the truncation stays inside the cyclic module lam(FG) (the
evaluation polynomial of any annihilating functional has degree < |F| - 1 and
|F| - 1 roots, hence is zero).

The transvection pipeline produces new members of lam(FG) from g: v -> v +
zeta(v) z with zeta(z) = 0: subtracting lam from lam*g, repeating with
alpha*zeta, recombining and rescaling leaves the bracket

    [u,v]_5 = zeta(u) zeta([z,v]) z + zeta(v) zeta([u,z]) z
              - zeta(u) zeta(v) [z,z]
              + (alpha+1) zeta(u) zeta(v) zeta([z,z]) z

(the sign of the last term is fixed by the pipeline itself; the difference
construction below cross-checks the closed form coordinate-exactly).  Chosen
witnesses turn this bracket into the canonical generators: a rank-2
alternating form reaches 123 - 213, and a second difference reaches 112.
"""

import random
from dataclasses import dataclass, field
from itertools import combinations

from .canon import bases_for
from .canon import delta as delta_vector
from .canon import eta as eta_vector
from .canon import omega, predicate_C, predicate_Mstar, predicate_Mstarstar
from .exactla import (
    Echelon, GroupElement, Matrix, Subspace, combine, kernel_rows, solve_right,
)
from .gfield import primitive_element
from .structvec import (
    DualVector, StructureVector, Vector, act, basis_vector, flat, product, unit,
)
from .spinmx import derive_seed, spin_contains


def weights(q):
    """The weight q_i + q_j - q_k of every coordinate (i, j, k), in storage order."""
    return [qi + qj - qk for qi in q for qj in q for qk in q]


def q_truncate(lam, q):
    """Keep the coordinates of weight zero, kill the rest."""
    if len(q) != lam.n:
        raise ValueError("weight sequence length must match the dimension")
    zero = lam.ctx.zero()
    return lam._like([x if w == 0 else zero for x, w in zip(lam.coords, weights(q))])


def lindeg_theorem_check(lam, q):
    """(applicable, max_weight): negative-weight coords vanish and max < |F|-1."""
    ctx, n = lam.ctx, lam.n
    if ctx.kind != "finite":
        raise ValueError("the degeneration bound needs a finite field")
    if len(q) != n:
        raise ValueError("weight sequence length must match the dimension")
    zero = ctx.zero()
    ws = weights(q)
    max_weight = max(ws)
    vanishing = all(x == zero for x, w in zip(lam.coords, ws) if w < 0)
    applicable = vanishing and max_weight < ctx.order - 1
    return applicable, max_weight


def verify_lindeg(lam, q, gens):
    """Membership of the truncation in the cyclic module (the checkable claim)."""
    applicable, _ = lindeg_theorem_check(lam, q)
    if not applicable:
        raise ValueError("hypotheses of the degeneration bound do not hold")
    return spin_contains(lam, gens, q_truncate(lam, q))


# -- transvection pipeline -----------------------------------------------------

@dataclass
class TransvectionSpec:
    """z, zeta, alpha with zeta(z) = 0, z != 0, zeta != 0, alpha not in {0, 1}."""
    z: Vector
    zeta: DualVector
    alpha: object  # raw field scalar

    def __post_init__(self):
        ctx = self.z.ctx
        self.alpha = ctx._coerce(self.alpha)
        if self.z.is_zero() or self.zeta.is_zero():
            raise ValueError("transvection data must be nonzero")
        if self.zeta(self.z).raw != ctx.zero():
            raise ValueError("zeta must vanish on z")
        if self.alpha in (ctx.zero(), ctx.one()):
            raise ValueError("alpha must avoid 0 and 1")

    def group_element(self, scale=None):
        """The transvection v -> v + c zeta(v) z (c defaults to 1)."""
        ctx, n = self.z.ctx, self.z.n
        c = ctx.one() if scale is None else ctx._coerce(scale)
        rows = Matrix.identity(ctx, n).rows()
        for i in range(n):
            zi = ctx.mul(c, self.z.coords[i])
            if zi != ctx.zero():
                rows[i] = ctx.row_addmul(rows[i], self.zeta.coords, zi)
        return GroupElement.from_rows(ctx, rows)


def _g5_closed_form(lam, spec):
    ctx, n = lam.ctx, lam.n
    z, zeta, alpha = spec.z, spec.zeta, spec.alpha
    add, mul = ctx.add, ctx.mul
    zz = product(lam, z, z)
    zeta_zz = zeta(zz).raw
    ap1 = add(alpha, ctx.one())
    units = [basis_vector(ctx, n, i) for i in range(1, n + 1)]
    viz = [zeta(product(lam, v, z)).raw for v in units]
    zvj = [zeta(product(lam, z, v)).raw for v in units]
    coords = []
    for zi, vi_z in zip(zeta.coords, viz):
        for zj, z_vj in zip(zeta.coords, zvj):
            # coefficient of z in the bracket
            cz = add(mul(zi, z_vj), mul(zj, vi_z))
            cz = add(cz, mul(ap1, mul(mul(zi, zj), zeta_zz)))
            czz = ctx.neg(mul(zi, zj))  # coefficient of [z,z]
            coords.extend(add(mul(cz, zk), mul(czz, zzk))
                          for zk, zzk in zip(z.coords, zz.coords))
    return StructureVector(ctx, n, coords)


def transvection_g5(lam, spec):
    """The rescaled second difference of lam along the transvection family.

    Built through the explicit member chain of lam(FG) and cross-checked
    against the closed bracket form; the result is guaranteed to lie in
    lam(FG).
    """
    ctx = lam.ctx
    if ctx.kind == "finite" and ctx.order <= 2:
        raise ValueError("the pipeline needs |F| > 2")
    alpha = spec.alpha
    g1 = spec.group_element()
    galpha = spec.group_element(scale=alpha)
    lam2 = act(lam, g1) - lam
    lam3 = act(lam, galpha) - lam
    lam4 = lam3 - lam2.scale(alpha)
    denom = ctx.neg(ctx.sub(ctx.mul(alpha, alpha), alpha))  # -(alpha^2 - alpha)
    lam5 = lam4.scale(ctx.inv(denom))
    closed = _g5_closed_form(lam, spec)
    if lam5 != closed:
        raise ValueError("pipeline and closed form disagree on the given data")
    return lam5


# -- witness searches ------------------------------------------------------------

def _rank(rows, ctx):
    return Echelon(ctx, len(rows[0]), rows).dim


def _independent_pair_pool(ctx, n):
    pool = [basis_vector(ctx, n, i) for i in range(1, n + 1)]
    for a, b in combinations(range(1, n + 1), 2):
        v = basis_vector(ctx, n, a) + basis_vector(ctx, n, b)
        pool.append(v)
    return pool


def _find_span_escape_pair(lam):
    """Vectors a, b with a, b, [a,b] independent; exists outside the
    span-preserving submodule, and the pool of standard vectors and pair sums
    is enough to exhibit it."""
    ctx, n = lam.ctx, lam.n
    pool = _independent_pair_pool(ctx, n)
    for a in pool:
        for b in pool:
            ab = product(lam, a, b)
            if _rank([a.coords, b.coords, ab.coords], ctx) == 3:
                return a, b
    return None


def _find_square_escape(lam):
    """z with z, [z,z] independent; searched over units then two-index sums.

    For a commutative vector outside the square-factor submodule at most one
    coefficient ratio per index pair fails, so the pool below always hits.
    """
    ctx, n = lam.ctx, lam.n
    scalars = (ctx.raw_elements()[1:] if ctx.kind == "finite"
               else [ctx.one(), ctx.from_int(2)])
    candidates = [basis_vector(ctx, n, i) for i in range(1, n + 1)]
    for i, j in combinations(range(1, n + 1), 2):
        for c in scalars:
            candidates.append(basis_vector(ctx, n, i)
                              + basis_vector(ctx, n, j).scale(c))
    for z in candidates:
        zz = product(lam, z, z)
        if _rank([z.coords, zz.coords], ctx) == 2:
            return z, zz
    return None


def _functional_with_values(ctx, rows, values):
    x = solve_right(rows, values, ctx)
    if x is None:
        raise AssertionError("functional system inconsistent on independent rows")
    return DualVector(ctx, len(rows[0]), x)


def _complement_in(space_rows, inside, ctx, n):
    """Complement rows of span(space_rows) inside the subspace `inside`."""
    sub = Subspace(ctx, n, space_rows)
    return inside.coset_representatives(sub)


@dataclass
class ReachCertificate:
    success: bool
    target: str
    branch: str
    z: list
    zeta: list
    basis_change: list
    final: list
    spin_member: bool
    data: dict = field(default_factory=dict)


def reach_eta(lam, gens):
    """Drive a span-escaping square-zero-factor vector onto 123 - 213.

    Requires lam in the [v,v]-in-span(v) submodule but outside the
    [u,v]-in-span(u,v) one; certifies both by an explicit basis change and by
    spin membership.
    """
    ctx, n = lam.ctx, lam.n
    if ctx.kind == "finite" and ctx.order <= 2:
        raise ValueError("needs |F| > 2")
    if not predicate_Mstarstar(lam):
        raise ValueError("vector is outside the square-factor submodule")
    if predicate_Mstar(lam):
        raise ValueError("vector lies in the span-preserving submodule; no "
                         "independent triple exists")
    pair = _find_span_escape_pair(lam)
    if pair is None:
        raise AssertionError("no independent triple found; contradicts the "
                             "membership predicates")
    a, b = pair
    w_fn = omega(lam)
    zero = ctx.zero()
    # z in span(a,b) with omega(z) = 0: at most one ratio is excluded
    if w_fn(a).raw == zero:
        z, w = a, b
    elif w_fn(b).raw == zero:
        z, w = b, a
    else:
        z = a.scale(w_fn(b).raw) - b.scale(w_fn(a).raw)
        w = a
    zw = product(lam, z, w)
    if _rank([z.coords, w.coords, zw.coords], ctx) != 3:
        raise AssertionError("degenerate witness triple; pool search is wrong")
    zeta = _functional_with_values(
        ctx, [z.coords, w.coords, zw.coords], [zero, zero, ctx.one()])
    alpha = primitive_element(ctx).raw
    spec = TransvectionSpec(z, zeta, alpha)
    mu5 = transvection_g5(lam, spec)
    # rank-2 alternating form zeta(u) zeta'(v) - zeta(v) zeta'(u):
    # radical = ker zeta ^ ker zeta', and z sits inside it
    zeta_prime = DualVector(
        ctx, n, [zeta(product(lam, z, basis_vector(ctx, n, j))).raw
                 for j in range(1, n + 1)])
    radical = Subspace(ctx, n, kernel_rows([zeta.coords, zeta_prime.coords], n, ctx))
    if not radical.contains(z.coords):
        raise AssertionError("z lies outside the radical of the alternating form")
    rad_rest = _complement_in([z.coords], radical, ctx, n)
    cols = [w.coords, (-zw).coords, z.coords] + rad_rest
    h = GroupElement(Matrix.from_rows(ctx, cols).transpose())
    final = act(mu5, h)
    target = eta_vector(ctx, n)
    ok = final == target
    member = spin_contains(lam, gens, target)
    return ReachCertificate(
        success=ok and member, target="eta", branch="symplectic",
        z=z.coords, zeta=zeta.coords,
        basis_change=h.mat.rows(),
        final=final.coords, spin_member=member,
        data={"a": a.coords, "b": b.coords, "alpha": ctx.raw_to_json(alpha)})


def reach_delta(lam, gens):
    """Drive a square-escaping commutative vector onto 112.

    Over fields with more than three elements a second difference of the
    pipeline isolates zeta(u) zeta(v) z; over the three-element field the two
    documented fallback branches apply, keyed on zeta([z, [z,z]]).
    """
    ctx, n = lam.ctx, lam.n
    if ctx.kind == "finite" and ctx.order <= 2:
        raise ValueError("needs |F| > 2")
    if not predicate_C(lam):
        raise ValueError("vector is not commutative")
    if predicate_Mstarstar(lam):
        raise ValueError("vector lies in the square-factor submodule; no "
                         "escaping square exists")
    found = _find_square_escape(lam)
    if found is None:
        raise AssertionError("no escaping square found; contradicts the predicates")
    z, w = found  # w = [z,z], independent of z
    zero, one = ctx.zero(), ctx.one()
    zeta = _functional_with_values(ctx, [z.coords, w.coords], [zero, one])
    target = delta_vector(ctx, n)
    if ctx.kind == "rational" or ctx.order > 3:
        alpha = primitive_element(ctx).raw if ctx.kind == "finite" else ctx.from_int(2)
        alpha2 = next(e for e in (ctx.raw_elements() if ctx.kind == "finite"
                                  else [ctx.from_int(3)])
                      if e not in (zero, one, alpha))
        mu5 = transvection_g5(lam, TransvectionSpec(z, zeta, alpha))
        mu5p = transvection_g5(lam, TransvectionSpec(z, zeta, alpha2))
        lam6 = (mu5p - mu5).scale(ctx.inv(ctx.sub(alpha2, alpha)))
        # closed form: zeta(u) zeta(v) z
        coords = [zero] * n ** 3
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                c = ctx.mul(zeta.coords[i - 1], zeta.coords[j - 1])
                if c != zero:
                    for k in range(1, n + 1):
                        coords[flat(n, i, j, k)] = ctx.mul(c, z.coords[k - 1])
        if lam6.coords != coords:
            raise AssertionError("second difference disagrees with zeta(u) zeta(v) z")
        ker = Subspace(ctx, n, kernel_rows([zeta.coords], n, ctx))
        rest = _complement_in([z.coords], ker, ctx, n)
        cols = [w.coords, z.coords] + rest
        h = GroupElement(Matrix.from_rows(ctx, cols).transpose())
        final = act(lam6, h)
        ok = final == target
        branch = "big-field"
        steps = {"alpha": ctx.raw_to_json(alpha), "alpha2": ctx.raw_to_json(alpha2)}
    else:
        # |F| = 3: alpha is forced to 2 = -1 and the zeta([z,z]) term drops out
        mu5 = transvection_g5(lam, TransvectionSpec(z, zeta, ctx.from_int(2)))
        zeta_prime = DualVector(
            ctx, n, [zeta(product(lam, z, basis_vector(ctx, n, j))).raw
                     for j in range(1, n + 1)])
        radical = Subspace(ctx, n, kernel_rows([zeta.coords, zeta_prime.coords],
                                               n, ctx))
        cols = [z.coords, w.coords] + [list(r) for r in radical.rows]
        h = GroupElement(Matrix.from_rows(ctx, cols).transpose())
        nu = act(mu5, h)
        c = zeta_prime(w).raw
        expect = (unit(ctx, n, 1, 2, 1) + unit(ctx, n, 2, 1, 1)
                  - unit(ctx, n, 2, 2, 1).scale(c) - unit(ctx, n, 2, 2, 2))
        if nu != expect:
            raise AssertionError("GF(3) basis change missed its normal form")
        if c != zero:
            flip = GroupElement.diagonal(ctx, [ctx.neg(one)] + [one] * (n - 1))
            diff = act(nu, flip) - nu          # 2c * 221 = -c * 221
            v221 = diff.scale(ctx.inv(ctx.neg(c)))
            if v221 != unit(ctx, n, 2, 2, 1):
                raise AssertionError("the sign flip did not isolate 221")
            swap = GroupElement.permutation(ctx, [2, 1] + list(range(3, n + 1)))
            final = act(v221, swap)
            branch = "gf3-nonzero"
        else:
            shear = GroupElement.transvection(ctx, n, 3, 2)
            diff = act(nu, shear) - nu
            if diff != unit(ctx, n, 2, 2, 3):
                raise AssertionError("the shear did not isolate 223")
            cyc = GroupElement.permutation(ctx, [2, 3, 1] + list(range(4, n + 1)))
            final = act(diff, cyc)
            branch = "gf3-zero"
        ok = final == target
        steps = {"zeta_prime_w": ctx.raw_to_json(c)}
    member = spin_contains(lam, gens, target)
    return ReachCertificate(
        success=ok and member, target="delta", branch=branch,
        z=z.coords, zeta=zeta.coords,
        basis_change=h.mat.rows(),
        final=final.coords, spin_member=member, data=steps)


# -- seeded suites ---------------------------------------------------------------

def sample_in_between(ctx, n, inside, outside_pred, rng, tries=200):
    """A random vector of `inside` failing `outside_pred` (rejection sampling)."""
    q = ctx.order
    for _ in range(tries):
        coeffs = [rng.randrange(q) for _ in inside.rows]
        lam = StructureVector(ctx, n, combine(coeffs, inside.rows, ctx))
        if not lam.is_zero() and not outside_pred(lam):
            return lam
    raise RuntimeError("rejection sampling failed; the strata are too thin")


def lindeg_suite(ctx, n, gens, seed, count=100):
    """Random applicable pairs (lam, q): truncation stays in the spin, always."""
    rng = random.Random(derive_seed(seed, "lindeg", ctx.order, n))
    q_max = (ctx.order - 2) // 2
    checked = 0
    failures = []
    while checked < count:
        q = [rng.randrange(0, q_max + 1) for _ in range(n)]
        coords = [ctx.from_int(rng.randrange(ctx.order)) for _ in range(n ** 3)]
        # satisfy the vanishing hypothesis by construction
        lam = StructureVector(ctx, n, [ctx.zero() if w < 0 else x
                                       for x, w in zip(coords, weights(q))])
        applicable, mw = lindeg_theorem_check(lam, q)
        if not applicable or lam.is_zero():
            continue
        checked += 1
        if not verify_lindeg(lam, q, gens):
            failures.append({"q": q, "lam": lam.to_json(), "max_weight": mw})
    return {"checked": checked, "failures": failures}


def reach_eta_suite(ctx, n, gens, seed, count=50, bases=None):
    rng = random.Random(derive_seed(seed, "reach-eta", ctx.order, n))
    inside = bases_for(ctx, n, bases)["Mstarstar"]
    failures = []
    for _ in range(count):
        lam = sample_in_between(ctx, n, inside, predicate_Mstar, rng)
        cert = reach_eta(lam, gens)
        if not cert.success:
            failures.append(lam.to_json())
    return {"checked": count, "failures": failures}


def reach_delta_suite(ctx, n, gens, seed, count=50, bases=None):
    rng = random.Random(derive_seed(seed, "reach-delta", ctx.order, n))
    inside = bases_for(ctx, n, bases)["C"]
    fixtures = []
    if ctx.order == 3:
        # deterministic fixtures covering both |F| = 3 proof branches
        fixtures = [
            unit(ctx, n, 1, 1, 2) + unit(ctx, n, 1, 2, 1) + unit(ctx, n, 2, 1, 1),
            unit(ctx, n, 1, 1, 2) + (unit(ctx, n, 1, 2, 2)
                                     + unit(ctx, n, 2, 1, 2)).scale(2),
        ]
    failures = []
    branches = set()
    for i in range(count):
        if i < len(fixtures):
            lam = fixtures[i]
        else:
            lam = sample_in_between(ctx, n, inside, predicate_Mstarstar, rng)
        cert = reach_delta(lam, gens)
        branches.add(cert.branch)
        if not cert.success:
            failures.append(lam.to_json())
    return {"checked": count, "failures": failures, "branches": sorted(branches)}
