"""Characteristic-2 analysis of commutative-mod-skew structure via squaring.

Over a finite field of characteristic 2 the squaring map of a commutative
algebra, v -> [v, v], is additive and twisted-linear for the Frobenius; such
maps form the n^2-dimensional space of semilinear endomorphisms.  The right
action matching the structure-vector action is

    phi * g = g^-1 phi g^(2)        (g^(2): entries squared)

and lam -> squaring(lam) intertwines the two actions with kernel the
square-zero submodule.  The irreducibility of the semilinear space is
verified twice: by replaying the explicit extraction moves (permutations,
the e&f operator, the shear identity needing |F| >= 4), and independently by
the kernel-vector criterion.
"""

import random
from dataclasses import dataclass

from .canon import _restricted_kernel, bases_for, predicate_C
from .exactla import Echelon, GroupElement, Matrix, Subspace
from .gfield import primitive_element
from .report import claim, norton_claim
from .spinmx import (
    ModuleHandle, derive_seed, norton_irreducible, standard_generators,
)
from .structvec import StructureVector, act, flat


class SemilinearMap:
    """A Frobenius-semilinear endomorphism, kept as its n x n matrix."""

    __slots__ = ("ctx", "n", "mat")

    def __init__(self, mat):
        ctx = mat.ctx
        if ctx.kind != "finite" or ctx.char != 2:
            raise ValueError("semilinear maps need a finite field of characteristic 2")
        if mat.nrows != mat.ncols:
            raise ValueError("semilinear maps are square")
        self.ctx = ctx
        self.n = mat.nrows
        self.mat = mat

    @classmethod
    def from_rows(cls, ctx, rows):
        return cls(Matrix.from_rows(ctx, rows))

    @classmethod
    def unit(cls, ctx, n, i, j):
        """The matrix unit e_ij (1-based)."""
        rows = Matrix.zeros(ctx, n, n).rows()
        rows[i - 1][j - 1] = ctx.one()
        return cls(Matrix.from_rows(ctx, rows))

    @classmethod
    def zero(cls, ctx, n):
        return cls(Matrix.zeros(ctx, n, n))

    def __add__(self, other):
        ctx = self.ctx
        rows = [ctx.row_addmul(a, b, ctx.one())
                for a, b in zip(self.mat.rows(), other.mat.rows())]
        return SemilinearMap.from_rows(ctx, rows)

    __sub__ = __add__  # characteristic 2

    def scale(self, c):
        ctx = self.ctx
        c = ctx._coerce(c)
        return SemilinearMap.from_rows(ctx, [ctx.row_scale(r, c) for r in self.mat.rows()])

    def __eq__(self, other):
        return isinstance(other, SemilinearMap) and self.mat == other.mat

    def __getitem__(self, ij):
        i, j = ij
        return self.mat[i - 1, j - 1]

    def is_zero(self):
        zero = self.ctx.zero()
        return all(x == zero for x in self.mat.entries)

    def coords(self):
        """Flat coordinates over the matrix units, row-major (i, j)."""
        return list(self.mat.entries)

    def __repr__(self):
        return f"SemilinearMap({self.mat.rows()})"


def sigma(lam):
    """The squaring map of a commutative vector: column j is [v_j, v_j]."""
    ctx, n = lam.ctx, lam.n
    if ctx.kind != "finite" or ctx.char != 2:
        raise ValueError("the squaring map needs characteristic 2")
    if not predicate_C(lam):
        raise ValueError("the squaring map is additive only on commutative vectors")
    rows = Matrix.zeros(ctx, n, n).rows()
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            rows[k - 1][j - 1] = lam.coords[flat(n, j, j, k)]
    return SemilinearMap.from_rows(ctx, rows)


def _frobenius_matrix(ctx, mat):
    return Matrix(ctx, mat.nrows, mat.ncols,
                  [ctx.mul(x, x) for x in mat.entries])


def star(phi, g):
    """phi * g = g^-1 phi g^(2); a right action compatible with sigma."""
    ctx = phi.ctx
    if g.ctx != ctx or g.n != phi.n:
        raise ValueError("group element does not match the map")
    gsq = _frobenius_matrix(ctx, g.mat)
    return SemilinearMap(g.inv.mul(phi.mat).mul(gsq))


def e_and_f(phi, e, f):
    """The four-term star average over {I, I+e, I+f, I+e+f}; equals e phi f + f phi e.

    e and f are 1-based index pairs of off-diagonal matrix units with
    ef = fe = 0; both evaluations are computed and compared.
    """
    ctx, n = phi.ctx, phi.n
    (ei, ej), (fi, fj) = e, f
    if ei == ej or fi == fj:
        raise ValueError("matrix units must be off-diagonal")
    if ej == fi or fj == ei:
        raise ValueError("matrix units must satisfy ef = fe = 0")
    eu = SemilinearMap.unit(ctx, n, ei, ej)
    fu = SemilinearMap.unit(ctx, n, fi, fj)
    ident = Matrix.identity(ctx, n)
    total = SemilinearMap.zero(ctx, n)
    for parts in ((), (eu,), (fu,), (eu, fu)):
        m = ident
        for p in parts:
            m = Matrix(ctx, n, n, [ctx.add(a, b) for a, b in zip(m.entries, p.mat.entries)])
        total = total + star(phi, GroupElement(m))
    closed = SemilinearMap(eu.mat.mul(phi.mat).mul(fu.mat)) \
        + SemilinearMap(fu.mat.mul(phi.mat).mul(eu.mat))
    if total != closed:
        raise AssertionError("four-term star sum disagrees with e phi f + f phi e")
    return total


def eq15_identity_holds(ctx, n=3):
    """e_12 * (I + a e_21) + e_12 = a e_22 + a^2 e_11 + a^3 e_21 for every a != 0."""
    one = ctx.one()
    for a in ctx.raw_elements()[1:]:
        g_rows = Matrix.identity(ctx, n).rows()
        g_rows[1][0] = a
        g = GroupElement(Matrix.from_rows(ctx, g_rows))
        lhs = star(SemilinearMap.unit(ctx, n, 1, 2), g) + SemilinearMap.unit(ctx, n, 1, 2)
        a2, a3 = ctx.mul(a, a), ctx.mul(ctx.mul(a, a), a)
        rhs = (SemilinearMap.unit(ctx, n, 2, 2).scale(a)
               + SemilinearMap.unit(ctx, n, 1, 1).scale(a2)
               + SemilinearMap.unit(ctx, n, 2, 1).scale(a3))
        if lhs != rhs:
            return False
    return True


def gamma_handle(gens, label="semilinear"):
    """The semilinear space as an abstract module over the generator set."""
    ctx, n = gens.ctx, gens.n
    if ctx.char != 2:
        raise ValueError("the semilinear module needs characteristic 2")
    action = []
    for g in gens.elements:
        rows = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                rows.append(star(SemilinearMap.unit(ctx, n, i, j), g).coords())
        action.append(rows)
    carrier = Subspace.full(ctx, n * n)
    reps = [list(r) for r in carrier.rows]
    return ModuleHandle(ctx, label, carrier, None, reps, action, gens)


def sigma_gmap_claims(ctx, n, gens=None, bases=None):
    """sigma intertwines the two actions and has kernel K on C (both checked)."""
    if gens is None:
        gens = standard_generators(ctx, n)
    bases = bases_for(ctx, n, bases)
    C = bases["C"]
    ok = True
    for g in gens.elements:
        for row in C.rows:
            lam = StructureVector(ctx, n, list(row))
            if sigma(act(lam, g)) != star(sigma(lam), g):
                ok = False
    # kernel of sigma restricted to C equals K, and sigma is onto (rank n^2)
    values = [sigma(StructureVector(ctx, n, list(r))).coords() for r in C.rows]
    rank = Matrix.from_rows(ctx, values).rank()
    ok2 = rank == n * n and _restricted_kernel(C, values, ctx) == bases["K"]
    return [claim("sigmaGmap", "sigma(lam g) = sigma(lam) * g on the commutative submodule",
                  ok),
            claim("sigmaKernel", "sigma maps C onto the semilinear space with kernel K",
                  ok2, {"rank": rank, "expected_rank": n * n})]


# -- constructive irreducibility replay -----------------------------------------

@dataclass
class ReplayResult:
    reached_full: bool
    steps: list


def replay_irreducible_from(phi):
    """Extract every matrix unit from phi by the documented moves.

    Moves: relabeling permutations, e&f collapses, the shear identity that
    needs two distinct nonzero scalars (|F| >= 4), and the diagonal seed
    escapes.  Returns the recorded step list; raises if some move finds no
    footing (which would falsify the irreducibility argument).
    """
    ctx, n = phi.ctx, phi.n
    if ctx.order < 4:
        raise ValueError("the extraction argument needs |F| >= 4")
    if phi.is_zero():
        raise ValueError("seed must be nonzero")
    steps = []
    span = Echelon(ctx, n * n)
    span.add(phi.coords())
    zero = ctx.zero()

    def offdiag(p):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j and p[i, j] != zero:
                    return i, j
        return None

    pos = offdiag(phi)
    if pos is None:
        # diagonal seed: escape to an off-diagonal entry
        d = [phi[i, i] for i in range(1, n + 1)]
        distinct = next(((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                         if d[i - 1] != d[j - 1]), None)
        if distinct is None:
            # scalar matrix: d * I. Twist by diag(gamma, 1, ..) to isolate e_11.
            gamma = primitive_element(ctx).raw
            g = GroupElement.diagonal(ctx, [gamma] + [ctx.one()] * (n - 1))
            e11_like = star(phi, g) + phi     # d (gamma + 1) e_11
            steps.append(("diagonal-twist", ctx.raw_to_json(gamma)))
            span.add(e11_like.coords())
            shear = GroupElement.transvection(ctx, n, 1, 2)
            phi = star(e11_like, shear) + e11_like   # multiple of e_12
            steps.append(("unit-seed-shear", (1, 2)))
        else:
            i, j = distinct
            perm = _perm_mapping(ctx, n, {1: i, 2: j})
            moved = star(phi, perm)
            steps.append(("relabel", (i, j)))
            shear = GroupElement.transvection(ctx, n, 1, 2)
            phi = star(moved, shear) + moved  # (d_i + d_j) e_12
            steps.append(("diagonal-shear", None))
        span.add(phi.coords())
        pos = offdiag(phi)
        if pos is None:
            raise AssertionError("the diagonal escape left no off-diagonal entry")
    i, j = pos
    perm = _perm_mapping(ctx, n, {1: i, 2: j})
    phi12 = star(phi, perm)
    steps.append(("relabel", (i, j)))
    span.add(phi12.coords())
    psi1 = e_and_f(phi12, (2, 1), (3, 1))     # phi_12 e_31 + phi_13 e_21
    steps.append(("e&f", ((2, 1), (3, 1))))
    span.add(psi1.coords())
    psi2 = e_and_f(psi1, (1, 3), (2, 3))      # phi_12 e_23
    steps.append(("e&f", ((1, 3), (2, 3))))
    e23 = psi2.scale(ctx.inv(psi2[2, 3]))
    steps.append(("scale", None))
    span.add(e23.coords())
    # permutations reach every off-diagonal unit: e_23 * P = e_{s^-1(2), s^-1(3)}
    units = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b:
                perm = _perm_mapping(ctx, n, {a: 2, b: 3})
                units[(a, b)] = star(e23, perm)
                if units[(a, b)] != SemilinearMap.unit(ctx, n, a, b):
                    raise AssertionError(f"relabeling e_23 did not give e_{a}{b}")
                span.add(units[(a, b)].coords())
    steps.append(("permutation-closure", "off-diagonal units"))
    # shear identity: two distinct nonzero alphas isolate e_11
    alphas = [a for a in ctx.raw_elements() if a != zero][:2]
    extracted = []
    for a in alphas:
        rows = Matrix.identity(ctx, n).rows()
        rows[1][0] = a
        g = GroupElement(Matrix.from_rows(ctx, rows))
        t = star(units[(1, 2)], g) + units[(1, 2)]   # a e22 + a^2 e11 + a^3 e21
        t = t + units[(2, 1)].scale(ctx.mul(ctx.mul(a, a), a))
        extracted.append(t.scale(ctx.inv(a)))        # e22 + a e11
    diff = extracted[0] + extracted[1]
    e11 = diff.scale(ctx.inv(ctx.add(alphas[0], alphas[1])))
    steps.append(("shear-identity", [ctx.raw_to_json(a) for a in alphas]))
    if e11 != SemilinearMap.unit(ctx, n, 1, 1):
        raise AssertionError("the shear identity did not isolate e_11")
    span.add(e11.coords())
    for a in range(1, n + 1):
        perm = _perm_mapping(ctx, n, {a: 1})
        span.add(star(e11, perm).coords())
    steps.append(("permutation-closure", "diagonal units"))
    return ReplayResult(span.dim == n * n, steps)


def _perm_mapping(ctx, n, want):
    """A permutation element with sigma(src) = dst for each want[src] = dst."""
    images = [0] * (n + 1)
    used = set()
    for src, dst in want.items():
        images[src] = dst
        used.add(dst)
    rest = [k for k in range(1, n + 1) if k not in used]
    it = iter(rest)
    for k in range(1, n + 1):
        if images[k] == 0:
            images[k] = next(it)
    return GroupElement.permutation(ctx, images[1:])


def verify_gamma_irreducible(ctx, n, seed=0, gens=None):
    """Both-ways irreducibility report for the semilinear module.

    The constructive replay is run from every matrix unit and from seeded
    random elements; the kernel-vector test runs on the abstract module.
    """
    if ctx.kind != "finite" or ctx.char != 2 or ctx.order < 4:
        raise ValueError("needs a finite field of characteristic 2 with |F| >= 4")
    if gens is None:
        gens = standard_generators(ctx, n)
    seeds = [SemilinearMap.unit(ctx, n, i, j)
             for i in range(1, n + 1) for j in range(1, n + 1)]
    rng = random.Random(derive_seed(seed, "gamma-seeds", ctx.order, n))
    for _ in range(5):
        rows = [[rng.randrange(ctx.order) for _ in range(n)] for _ in range(n)]
        phi = SemilinearMap.from_rows(ctx, rows)
        if not phi.is_zero():
            seeds.append(phi)
    replay_ok = True
    total_steps = 0
    for phi in seeds:
        res = replay_irreducible_from(phi)
        total_steps += len(res.steps)
        if not res.reached_full:
            replay_ok = False
    replay = claim("gammaReplay",
                   "every nonzero seed generates the full semilinear space via the "
                   "documented moves", replay_ok, {"seeds": len(seeds), "steps": total_steps})
    res = norton_irreducible(gamma_handle(gens), derive_seed(seed, "gamma-norton"))
    return [replay,
            norton_claim("gammaMeatAxe",
                         "the semilinear module passes the kernel-vector irreducibility test",
                         res, "irreducible", res.detail),
            claim("eq15", "the shear identity holds for every nonzero scalar",
                  eq15_identity_holds(ctx, n))]
