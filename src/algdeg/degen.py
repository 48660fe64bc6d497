"""Linear degenerations: weight truncation and the transvection pipeline.

The weight truncation keeps exactly the coordinates with q_i + q_j - q_k = 0;
when the negative-weight coordinates of lam vanish and the maximal weight M
is below |F| - 1, the truncation stays inside the cyclic module lam(FG).  The
torus element t = diag(zeta^q_1, ..., zeta^q_n) (zeta primitive) scales the
weight-w part of lam by zeta^w, and the M + 1 values zeta^w over the weights
0..M are distinct, so the Lagrange factors (t - zeta^u)/(1 - zeta^u) for
u = 1..M kill every weight part but the zeroth: their product, applied to
lam through the group action, is the truncation.  `verify_lindeg` seeds its
membership closure with lam and that projection, so the truncation is found
at closure dimension 2 before any generator image is taken.

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
Each reach is also probed by spin membership, seeded with lam and its
component on the target's torus-weight class (`_class_projector`), whose
factors, like the truncation's, come from `_lagrange_factors`.
"""

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice

from .canon import delta as delta_vector
from .canon import eta as eta_vector
from .canon import omega, predicate_C, predicate_Mstar, predicate_Mstarstar
from .exactla import (
    Echelon, GroupElement, Matrix, Subspace, combiner, kernel_rows, solve_right,
)
from .gfield import primitive_element
from .structvec import (
    DualVector, StructureVector, Vector, act, basis_vector, product, unit,
    weight_classes,
)
from .spinmx import check_cell_shape, spin_contains


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
    """Membership of the truncation in the cyclic module (the checkable claim).

    The probe's projector (`spin_contains`) is the product of the Lagrange
    factors (t - zeta^u)/(1 - zeta^u) (`_lagrange_factors`), u =
    1..max_weight, with t = diag(zeta^q_1, ..., zeta^q_n).  Each factor is a
    combination of t and the identity, so the projection of lam is a member
    of lam(FG), the closure is lam(FG) and the verdict is the full spin's;
    under the hypotheses the projection is the truncation, so the probe hits
    at it.
    """
    applicable, max_weight = lindeg_theorem_check(lam, q)
    if not applicable:
        raise ValueError("hypotheses of the degeneration bound do not hold")
    ctx = lam.ctx
    projector = ()
    # at max weight 0 lam is the truncation, and GF(2) has no primitive element
    if max_weight >= 1:
        zeta = primitive_element(ctx)
        t = GroupElement.diagonal(ctx, [ctx.pow(zeta, qi) for qi in q])
        powers = [ctx.pow(zeta, u) for u in range(1, max_weight + 1)]
        projector = _lagrange_factors(ctx, t, ctx.one(), powers)
    return spin_contains(lam, gens, q_truncate(lam, q), projector=projector)


def _lagrange_factors(ctx, g, kept, killed):
    """The `spin_contains` factors (g, a, 1/(kept - a)) over the eigenvalues a
    in killed, each acting as v -> (v*g - a v)/(kept - a): it kills the
    eigenvectors of g with eigenvalue a and fixes those with eigenvalue kept.
    """
    return tuple((g, a, ctx.inv(ctx.sub(kept, a))) for a in killed)


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
        if self.zeta(self.z) != ctx.zero():
            raise ValueError("zeta must vanish on z")
        if self.alpha in (ctx.zero(), ctx.one()):
            raise ValueError("alpha must avoid 0 and 1")

    def group_element(self, scale=None):
        """The transvection v -> v + c zeta(v) z (c defaults to 1), tagged rank-one.

        Its matrix is I + c z (x) zeta, and as zeta(z) = 0 its inverse is
        I - c z (x) zeta (`GroupElement.rank_one`, which still checks the
        product).  Over packed fields the tag lets `structvec.act_coords`
        apply it as three rank-one updates; elsewhere it takes the general
        action.
        """
        ctx = self.z.ctx
        c = ctx.one() if scale is None else scale
        return GroupElement.rank_one(ctx, self.z.coords, self.zeta.coords, c)


def _outer(ctx, coeffs, row):
    """coeffs (x) row, flattened: block i is coeffs[i] * row."""
    return [x for c in coeffs for x in ctx.row_scale(row, c)]


def _zeta_brackets(lam, z, zeta):
    """The rows zeta([e_i, z]) over i and zeta([z, e_j]) over j, for raw z and
    zeta: lam contracted with zeta, w[i,j] = zeta([e_i,e_j]), then w with z."""
    ctx, n, src = lam.ctx, lam.n, lam.coords
    w = combiner([src[k::n] for k in range(n)], ctx)(zeta)
    return (combiner([w[j::n] for j in range(n)], ctx)(z),
            combiner([w[i * n:i * n + n] for i in range(n)], ctx)(z))


def _g5_closed_form(lam, spec):
    """[u,v]_5 from the closed bracket form, regrouped for the row kernels.

    At the basis pair (e_i, e_j) it is (zeta_i r_j + zeta([e_i,z]) zeta_j) z
    - zeta_i zeta_j [z,z], with r_j = zeta([z,e_j]) + (alpha+1) zeta([z,z])
    zeta_j.  It reads `_zeta_brackets` and `product`; the outer products are
    a `row_scale` per block or one `combiner`.
    """
    ctx, n = lam.ctx, lam.n
    z, zeta = spec.z.coords, spec.zeta.coords
    iz, zj = _zeta_brackets(lam, z, zeta)
    zz = product(lam, spec.z, spec.z)
    r = ctx.row_addmul(zj, zeta, ctx.mul(ctx.add(spec.alpha, ctx.one()), spec.zeta(zz)))
    x = ctx.row_submul(_outer(ctx, r, z), _outer(ctx, zeta, zz.coords), ctx.one())
    y = _outer(ctx, zeta, z)
    # block i is zeta_i x + zeta([e_i,z]) y
    xy = combiner([x, y], ctx)
    coords = [v for ab in zip(zeta, iz) for v in xy(ab)]
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
    return _g5_from_first_difference(lam, spec, act(lam, spec.group_element()) - lam)


def _g5_from_first_difference(lam, spec, lam2):
    """`transvection_g5` given its first difference lam2 = lam*g_1 - lam.

    g_1 = I + z (x) zeta does not depend on alpha, so the pipelines of one
    (z, zeta) at several alphas share lam2.
    """
    ctx, alpha = lam.ctx, spec.alpha
    lam3 = act(lam, spec.group_element(scale=alpha)) - lam
    lam4 = lam3 - lam2.scale(alpha)
    denom = ctx.neg(ctx.sub(ctx.mul(alpha, alpha), alpha))  # -(alpha^2 - alpha)
    lam5 = lam4.scale(ctx.inv(denom))
    closed = _g5_closed_form(lam, spec)
    if lam5 != closed:
        raise AssertionError("pipeline and closed form disagree on the given data")
    return lam5


# -- witness searches ------------------------------------------------------------

@lru_cache(maxsize=64)
def _independent_pair_pool(ctx, n):
    """The standard vectors, then the pair sums e_a + e_b (a < b), built once per (ctx, n)."""
    units = [basis_vector(ctx, n, i) for i in range(1, n + 1)]
    return tuple(units) + tuple(units[a] + units[b] for a, b in combinations(range(n), 2))


def _find_span_escape_pair(lam):
    """Vectors a, b with a, b, [a,b] independent; exists outside the
    span-preserving submodule, and the pool of standard vectors and pair sums
    is enough to exhibit it, so an exhausted pool is an AssertionError."""
    ctx, n = lam.ctx, lam.n
    pool = _independent_pair_pool(ctx, n)
    for a in pool:
        for b in pool:
            ab = product(lam, a, b)
            if Echelon(ctx, n, [a.coords, b.coords, ab.coords]).dim == 3:
                return a, b
    raise AssertionError("no independent triple found; contradicts the "
                         "membership predicates")


def _find_square_escape(lam):
    """z with z, [z,z] independent; searched over units then two-index sums.

    For a commutative vector outside the square-factor submodule at most one
    coefficient ratio per index pair fails, so the pool below always hits and
    an exhausted pool is an AssertionError.
    """
    ctx, n = lam.ctx, lam.n
    scalars = (ctx.raw_elements()[1:] if ctx.kind == "finite"
               else [ctx.one(), ctx.from_int(2)])
    units = [basis_vector(ctx, n, i) for i in range(1, n + 1)]
    # built lazily: the first candidate nearly always escapes
    candidates = chain(units, (units[i] + units[j].scale(c)
                               for i, j in combinations(range(n), 2) for c in scalars))
    for z in candidates:
        zz = product(lam, z, z)
        if Echelon(ctx, n, [z.coords, zz.coords]).dim == 2:
            return z, zz
    raise AssertionError("no escaping square found; contradicts the predicates")


def _functional_with_values(ctx, rows, values):
    x = solve_right(rows, values, ctx)
    if x is None:
        raise AssertionError("functional system inconsistent on independent rows")
    return DualVector(ctx, len(rows[0]), x)


def _alternating_radical(lam, z, zeta):
    """zeta' = zeta([z, .]) (`_zeta_brackets`) and the radical ker zeta ^
    ker zeta' of the alternating form zeta(u) zeta'(v) - zeta(v) zeta'(u)."""
    ctx, n = lam.ctx, lam.n
    zeta_prime = DualVector(ctx, n, _zeta_brackets(lam, z.coords, zeta.coords)[1])
    return zeta_prime, Subspace(ctx, n, kernel_rows([zeta.coords, zeta_prime.coords], n, ctx))


def _basis_change(ctx, cols):
    """The group element whose matrix has the given columns."""
    return GroupElement(Matrix.from_rows(ctx, cols).transpose())


@lru_cache(maxsize=64)
def _class_projector(ctx, n, f):
    """The factors (g, a, s) of the `spin_contains` projector that maps any
    lam onto its component on coordinate f's torus-weight class
    (`weight_classes`).

    Coordinate (i, j, k) has weight e_i + e_j - e_k (`torus_weights`), and
    over GF(q) its class is that weight mod q - 1; d_m = diag(1, ..., zeta,
    ..., 1), with the primitive zeta at m, scales it by zeta^(w_m).  Stage m
    keeps the coordinates whose first m - 1 class entries are f's; for each
    other residue u of the m-th entry among them, the factor v -> (v d_m -
    zeta^u v)/(zeta^(f_m) - zeta^u) (`_lagrange_factors`) kills the
    coordinates with entry u and fixes those with f's entry f_m (the zeta^u
    are distinct over residues mod q - 1).  After the last stage only f's
    class is left.  That is 6 factors for eta's class {123, 213} at n >= 4
    (5 at n = 3) and 4 for delta's {112} from |F| = 5 on, and fewer over
    GF(3) and GF(4).  There are none over GF(2), whose torus is trivial, or
    over Q.
    """
    if ctx.kind != "finite" or ctx.order < 3:
        return ()
    classes = weight_classes(ctx, n)
    zeta, one = primitive_element(ctx), ctx.one()
    left, factors = classes, []
    for m, fm in enumerate(classes[f]):
        d = GroupElement.diagonal(ctx, [zeta if r == m else one for r in range(n)])
        others = sorted({c[m] for c in left} - {fm})
        factors += _lagrange_factors(ctx, d, ctx.pow(zeta, fm),
                                     [ctx.pow(zeta, u) for u in others])
        left = [c for c in left if c[m] == fm]
    return tuple(factors)


def _reach_member(lam, gens, target):
    """Whether target lies in lam(FG), as `spin_contains` decides it.

    The support of target lies in one torus-weight class (eta's {123, 213},
    delta's {112}), and the probe is seeded with lam and its component on
    that class (`_class_projector`).  When that component is a nonzero
    multiple of target the probe hits at closure dimension 2.  The projector depends on
    target's weight only, never on lam or the pipeline's witnesses, and each
    factor is a combination of a group element and the identity, so the
    closure is lam(FG) and the verdict is the full spin's.
    """
    projector = _class_projector(lam.ctx, lam.n, lam.ctx.lead(target.coords))
    return spin_contains(lam, gens, target, projector=projector)


@dataclass
class ReachCertificate:
    success: bool
    target: str
    branch: str
    z: list
    zeta: list
    basis_change: list
    spin_member: bool


def _certificate(lam, gens, target, name, branch, z, zeta, h, final):
    """A reach's certificate: success is final == target and a hit of the
    probe (`_reach_member`), which always runs."""
    member = _reach_member(lam, gens, target)
    return ReachCertificate(
        success=final == target and member, target=name, branch=branch,
        z=z.coords, zeta=zeta.coords, basis_change=h.mat.rows(), spin_member=member)


def reach_eta(lam, gens):
    """Drive a span-escaping square-zero-factor vector onto 123 - 213.

    Requires lam in the [v,v]-in-span(v) submodule but outside the
    [u,v]-in-span(u,v) one; certifies both by an explicit basis change and by
    spin membership (`_certificate`).
    """
    ctx, n = lam.ctx, lam.n
    if ctx.kind == "finite" and ctx.order <= 2:
        raise ValueError("needs |F| > 2")
    if not predicate_Mstarstar(lam):
        raise ValueError("vector is outside the square-factor submodule")
    if predicate_Mstar(lam):
        raise ValueError("vector lies in the span-preserving submodule; no "
                         "independent triple exists")
    a, b = _find_span_escape_pair(lam)
    w_fn = omega(lam)
    zero = ctx.zero()
    # z in span(a,b) with omega(z) = 0: at most one ratio is excluded
    if w_fn(a) == zero:
        z, w = a, b
    elif w_fn(b) == zero:
        z, w = b, a
    else:
        z = a.scale(w_fn(b)) - b.scale(w_fn(a))
        w = a
    zw = product(lam, z, w)
    if Echelon(ctx, n, [z.coords, w.coords, zw.coords]).dim != 3:
        raise AssertionError("degenerate witness triple; pool search is wrong")
    zeta = _functional_with_values(
        ctx, [z.coords, w.coords, zw.coords], [zero, zero, ctx.one()])
    alpha = primitive_element(ctx)
    spec = TransvectionSpec(z, zeta, alpha)
    mu5 = transvection_g5(lam, spec)
    # the alternating form has rank 2 and z sits inside its radical
    _, radical = _alternating_radical(lam, z, zeta)
    if not radical.contains(z.coords):
        raise AssertionError("z lies outside the radical of the alternating form")
    rad_rest = radical.coset_representatives(Subspace(ctx, n, [z.coords]))
    h = _basis_change(ctx, [w.coords, (-zw).coords, z.coords] + rad_rest)
    return _certificate(lam, gens, eta_vector(ctx, n), "eta", "symplectic", z, zeta, h,
                        act(mu5, h))


def reach_delta(lam, gens):
    """Drive a square-escaping commutative vector onto 112.

    Over fields with more than three elements a second difference of the
    pipeline isolates zeta(u) zeta(v) z; over the three-element field the two
    documented fallback branches apply, keyed on zeta([z, [z,z]]).  Every
    branch ends in one `_certificate`.
    """
    ctx, n = lam.ctx, lam.n
    if ctx.kind == "finite" and ctx.order <= 2:
        raise ValueError("needs |F| > 2")
    if not predicate_C(lam):
        raise ValueError("vector is not commutative")
    if predicate_Mstarstar(lam):
        raise ValueError("vector lies in the square-factor submodule; no "
                         "escaping square exists")
    z, w = _find_square_escape(lam)  # w = [z,z], independent of z
    zero, one = ctx.zero(), ctx.one()
    zeta = _functional_with_values(ctx, [z.coords, w.coords], [zero, one])
    if ctx.kind == "rational" or ctx.order > 3:
        alpha = primitive_element(ctx) if ctx.kind == "finite" else ctx.from_int(2)
        alpha2 = next(e for e in (ctx.raw_elements() if ctx.kind == "finite"
                                  else [ctx.from_int(3)])
                      if e not in (zero, one, alpha))
        spec = TransvectionSpec(z, zeta, alpha)
        lam2 = act(lam, spec.group_element()) - lam     # one first difference for both
        mu5 = _g5_from_first_difference(lam, spec, lam2)
        mu5p = _g5_from_first_difference(lam, TransvectionSpec(z, zeta, alpha2), lam2)
        lam6 = (mu5p - mu5).scale(ctx.inv(ctx.sub(alpha2, alpha)))
        # closed form: zeta(u) zeta(v) z
        coords = _outer(ctx, zeta.coords, _outer(ctx, zeta.coords, z.coords))
        if lam6.coords != coords:
            raise AssertionError("second difference disagrees with zeta(u) zeta(v) z")
        ker = Subspace(ctx, n, kernel_rows([zeta.coords], n, ctx))
        rest = ker.coset_representatives(Subspace(ctx, n, [z.coords]))
        h = _basis_change(ctx, [w.coords, z.coords] + rest)
        final = act(lam6, h)
        branch = "big-field"
    else:
        # |F| = 3: alpha is forced to 2 = -1 and the zeta([z,z]) term drops out
        mu5 = transvection_g5(lam, TransvectionSpec(z, zeta, ctx.from_int(2)))
        zeta_prime, radical = _alternating_radical(lam, z, zeta)
        h = _basis_change(ctx, [z.coords, w.coords] + radical._ech.rows)
        nu = act(mu5, h)
        c = zeta_prime(w)
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
    return _certificate(lam, gens, delta_vector(ctx, n), "delta", branch, z, zeta, h, final)


# -- seeded suites ---------------------------------------------------------------

def sample_in_between(ctx, n, inside, outside_pred, rng):
    """A random vector of `inside` failing `outside_pred` (rejection sampling)."""
    q = ctx.order
    times = combiner(inside._ech.rows, ctx)
    for _ in range(200):
        coeffs = [rng.randrange(q) for _ in range(inside.dim)]
        lam = StructureVector(ctx, n, times(coeffs))
        if not lam.is_zero() and not outside_pred(lam):
            return lam
    raise RuntimeError("rejection sampling failed; the strata are too thin")


def lindeg_suite(gens, seed, count):
    """Random applicable pairs (lam, q) over gens' (field, n): truncation stays in the spin."""
    ctx, n = gens.ctx, gens.n
    rng = random.Random(f"{seed}/lindeg/{ctx.order}/{n}")
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


def _reach_suite(bases, gens, seed, count, tag, inside, outside, reach, fixtures=None):
    """The report {checked, failures} of `count` certificates of `reach`, and
    their sorted branches.

    The vectors are `fixtures(ctx, n)` when given, then draws from
    bases[inside] that fail `outside`, seeded by `seed/tag/q/n`.  `reach` and
    `sample_in_between` are read from the module's globals at call time.
    """
    check_cell_shape(bases, gens)
    ctx, n = bases.ctx, bases.n
    rng = random.Random(f"{seed}/{tag}/{ctx.order}/{n}")
    draws = (sample_in_between(ctx, n, bases[inside], outside, rng) for _ in range(count))
    failures, branches = [], set()
    for lam in islice(chain(fixtures(ctx, n) if fixtures else (), draws), count):
        cert = reach(lam, gens)
        branches.add(cert.branch)
        if not cert.success:
            failures.append(lam.to_json())
    return {"checked": count, "failures": failures}, sorted(branches)


def _gf3_fixtures(ctx, n):
    """Over GF(3), one vector for each |F| = 3 branch of `reach_delta`."""
    if ctx.order != 3:
        return []
    return [unit(ctx, n, 1, 1, 2) + unit(ctx, n, 1, 2, 1) + unit(ctx, n, 2, 1, 1),
            unit(ctx, n, 1, 1, 2) + (unit(ctx, n, 1, 2, 2) + unit(ctx, n, 2, 1, 2)).scale(2)]


def reach_eta_suite(bases, gens, seed, count):
    """Random vectors of M** outside M*, over bases' (field, n), each reaching eta."""
    report, _ = _reach_suite(bases, gens, seed, count, "reach-eta", "Mstarstar",
                             predicate_Mstar, reach_eta)
    return report


def reach_delta_suite(bases, gens, seed, count):
    """Random vectors of C outside M** (over GF(3) after `_gf3_fixtures`), over
    bases' (field, n), each reaching delta."""
    report, branches = _reach_suite(bases, gens, seed, count, "reach-delta", "C",
                                    predicate_Mstarstar, reach_delta, _gf3_fixtures)
    return {**report, "branches": branches}
