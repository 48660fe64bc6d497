"""Characteristic-2 analysis of commutative-mod-skew structure via squaring.

Over a finite field of characteristic 2 the squaring map of a commutative
algebra, v -> [v, v], is additive and twisted-linear for the Frobenius; such
maps form the n^2-dimensional space of semilinear endomorphisms.  The right
action matching the structure-vector action is

    phi * g = g^-1 phi g^(2)        (g^(2): entries squared)

and lam -> squaring(lam) intertwines the two actions with kernel the
square-zero submodule.  For a fixed g the star is F-linear in phi: on the
n^2 coordinates of phi it is one n^2 x n^2 matrix K, built once per element
(`_star_pair`), and each star is one linear combination of the rows of K
(`_star`).  The irreducibility of the semilinear space is
verified twice: by replaying the explicit extraction moves (permutations,
the e&f operator, the shear identity needing |F| >= 4), and independently by
the kernel-vector criterion.
"""

import random
from dataclasses import dataclass

from .canon import _cells, _restricted_kernel, predicate_C
from .exactla import Echelon, GroupElement, Matrix, Subspace, combiner
from .gfield import primitive_element
from .report import claim, norton_claim
from .spinmx import _restricted_handle, check_cell_shape, norton_irreducible
from .structvec import StructureVector, _check_index, act


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
        """The matrix unit e_ij (1-based); an index outside 1..n is a ValueError."""
        _check_index(n, i)
        _check_index(n, j)
        entries = [ctx.zero()] * (n * n)
        entries[(i - 1) * n + j - 1] = ctx.one()
        return cls(Matrix(ctx, n, n, entries))

    @classmethod
    def zero(cls, ctx, n):
        return cls(Matrix.zeros(ctx, n, n))

    def __add__(self, other):
        ctx, n = self.ctx, self.n
        entries = ctx.row_addmul(self.mat.entries, other.mat.entries, ctx.one())
        return SemilinearMap(Matrix(ctx, n, n, entries))

    __sub__ = __add__  # characteristic 2

    def scale(self, c):
        ctx, n = self.ctx, self.n
        return SemilinearMap(Matrix(ctx, n, n, ctx.row_scale(self.mat.entries, ctx._coerce(c))))

    def __eq__(self, other):
        return isinstance(other, SemilinearMap) and self.mat == other.mat

    def __getitem__(self, ij):
        """The (i, j) entry (1-based); an index outside 1..n is a ValueError."""
        i, j = ij
        _check_index(self.n, i)
        _check_index(self.n, j)
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
    c = lam.coords
    return SemilinearMap(Matrix(ctx, n, n, [c[f] for f in _cells(n)["kj", "jjk"]]))


def star(phi, g):
    """phi * g = g^-1 phi g^(2); a right action compatible with sigma."""
    if g.ctx != phi.ctx or g.n != phi.n:
        raise ValueError("group element does not match the map")
    return _star(phi, _star_pair(g))


def _star_pair(g):
    """The star by g as one linear map on the n^2 coordinates: a `combiner`
    over the rows of K, which `_star` applies; callers that reuse g keep it.

    (g^-1 phi g^(2))_il = sum_jk (g^-1)_ij phi_jk (g^(2))_kl, so vec(phi * g)
    = vec(phi) K with K[(j,k), (i,l)] = (g^-1)_ij (g^(2))_kl: row (j, k) of
    K is column j of g^-1 times row k of g^(2), block by block over i.
    """
    ctx, n, gi = g.ctx, g.n, g.inv.entries
    sq = [ctx.pack([ctx.mul(x, x) for x in g.mat.row(k)]) for k in range(n)]
    return combiner([[x for i in range(n) for x in ctx.row_scale(sq[k], gi[i * n + j])]
                     for j in range(n) for k in range(n)], ctx)


def _star(phi, times):
    """phi * g from the linear map of g (`_star_pair`): one combination of its rows."""
    ctx, n = phi.ctx, phi.n
    return SemilinearMap(Matrix(ctx, n, n, times(phi.mat.entries)))


def e_and_f(phi, e, f, elements=None):
    """The four-term star average over {I, I+e, I+f, I+e+f}; equals e phi f + f phi e.

    e and f are 1-based index pairs of off-diagonal matrix units with
    ef = fe = 0; both evaluations are computed and compared.  `elements`
    are the star maps (`_star_pair`) of the four group elements from `_ef_elements`,
    which a caller applying one pair to many maps builds once; by default
    they are built here.
    """
    ctx, n = phi.ctx, phi.n
    if elements is None:
        elements = _ef_elements(ctx, n, e, f)
    total = SemilinearMap.zero(ctx, n)
    for times in elements:
        total = total + _star(phi, times)
    if total != _ef_closed_form(phi, e, f):
        raise AssertionError("four-term star sum disagrees with e phi f + f phi e")
    return total


def _ef_elements(ctx, n, e, f):
    """The star maps of g = I, I + e, I + f and I + e + f, each a checked `GroupElement`.

    (I + e + f)(I - e - f) = I - (e + f)^2 = I as ef = fe = 0, and in
    characteristic 2 I - e - f = I + e + f: each element is its own inverse.
    """
    eu, fu = SemilinearMap.unit(ctx, n, *e), SemilinearMap.unit(ctx, n, *f)
    (ei, ej), (fi, fj) = e, f
    if ei == ej or fi == fj:
        raise ValueError("matrix units must be off-diagonal")
    if ej == fi or fj == ei:
        raise ValueError("matrix units must satisfy ef = fe = 0")
    ident = SemilinearMap(Matrix.identity(ctx, n))
    return [_star_pair(GroupElement(m.mat, m.mat))
            for m in (ident, ident + eu, ident + fu, ident + eu + fu)]


def _ef_closed_form(phi, e, f):
    """e phi f + f phi e for e = e_ab and f = e_cd: phi_bc e_ad + phi_da e_cb."""
    ctx, n = phi.ctx, phi.n
    (a, b), (c, d) = e, f
    entries = [ctx.zero()] * (n * n)
    entries[(a - 1) * n + d - 1] = phi[b, c]
    k = (c - 1) * n + b - 1
    entries[k] = ctx.add(entries[k], phi[d, a])
    return SemilinearMap(Matrix(ctx, n, n, entries))


def eq15_identity_holds(ctx, n=3):
    """e_12 * (I + a e_21) + e_12 = a e_22 + a^2 e_11 + a^3 e_21 for every a != 0."""
    for a in ctx.raw_elements()[1:]:
        g = GroupElement.transvection(ctx, n, 2, 1, a)
        lhs = star(SemilinearMap.unit(ctx, n, 1, 2), g) + SemilinearMap.unit(ctx, n, 1, 2)
        a2, a3 = ctx.mul(a, a), ctx.mul(ctx.mul(a, a), a)
        rhs = (SemilinearMap.unit(ctx, n, 2, 2).scale(a)
               + SemilinearMap.unit(ctx, n, 1, 1).scale(a2)
               + SemilinearMap.unit(ctx, n, 2, 1).scale(a3))
        if lhs != rhs:
            return False
    return True


def gamma_handle(gens):
    """The semilinear space as a module over the generator set, one star applier per element.

    Coordinates are over the matrix units, row-major, so a row r is the map
    with matrix r and its image under g is star(r, g): the applier of g is
    its star map (`_star_pair`), built once per generator.
    """
    ctx, n = gens.ctx, gens.n
    if ctx.char != 2:
        raise ValueError("the semilinear module needs characteristic 2")
    appliers = [_star_pair(g) for g in gens.elements]
    return _restricted_handle(gens, appliers, Subspace.full(ctx, n * n), None, "semilinear")


def sigma_gmap_claims(bases, gens):
    """sigma intertwines the two actions and has kernel K on C (both checked).

    The field, n, C and K come from `bases`.  sigma(lam) is computed once per
    row lam of C and the star map once per generator; the rank and kernel
    check reuses the same sigma values.
    """
    check_cell_shape(bases, gens)
    ctx, n = bases.ctx, bases.n
    C = bases["C"]
    lams = [StructureVector(ctx, n, row) for row in C._ech.rows]
    sigmas = [sigma(lam) for lam in lams]
    ok = True
    for g in gens.elements:
        times = _star_pair(g)
        for lam, s in zip(lams, sigmas):
            if sigma(act(lam, g)) != _star(s, times):
                ok = False
    # kernel of sigma restricted to C equals K, and sigma is onto (rank n^2)
    values = [s.coords() for s in sigmas]
    rank = Echelon(ctx, n * n, values).dim
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
    return _replay_seeds([phi])[0]


def _replay_seeds(seeds):
    """`replay_irreducible_from` of each seed, with one tail shared by all of them.

    A seed's replay is its own head, the moves down to e_23, followed by the
    tail from e_23 on, which does not depend on the seed.  The group elements
    of the moves are built once for the call (`_ReplayElements`).
    """
    elements = _ReplayElements(seeds[0].ctx, seeds[0].n)
    tail = _replay_tail(elements)
    return [ReplayResult(tail.reached_full, _replay_head(phi, elements) + tail.steps)
            for phi in seeds]


class _ReplayElements:
    """The group elements of one batch of replays, as star maps (`_star_pair`).

    Each is built, and passes the `GroupElement` check, once per batch and
    is shared by every move that uses it: the quadruples of both e&f pairs
    and the shear x_12(1) up front, each permutation on first use.
    """

    EF_PAIRS = (((2, 1), (3, 1)), ((1, 3), (2, 3)))

    def __init__(self, ctx, n):
        self.ctx, self.n = ctx, n
        self.ef = {pair: _ef_elements(ctx, n, *pair) for pair in self.EF_PAIRS}
        self.shear = _star_pair(GroupElement.transvection(ctx, n, 1, 2))
        self._perms = {}

    def perm(self, want):
        """The permutation `_perm_mapping(ctx, n, want)`."""
        key = frozenset(want.items())
        if key not in self._perms:
            self._perms[key] = _star_pair(_perm_mapping(self.ctx, self.n, want))
        return self._perms[key]


def _replay_head(phi, elements):
    """The steps that take phi exactly to e_23 (checked), by the batch's elements."""
    ctx, n = phi.ctx, phi.n
    if phi.is_zero():
        raise ValueError("seed must be nonzero")
    steps = []
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
            gamma = primitive_element(ctx)
            g = GroupElement.diagonal(ctx, [gamma] + [ctx.one()] * (n - 1))
            e11_like = star(phi, g) + phi     # d (gamma + 1) e_11
            steps.append(("diagonal-twist", ctx.raw_to_json(gamma)))
            phi = _star(e11_like, elements.shear) + e11_like   # multiple of e_12
            steps.append(("unit-seed-shear", (1, 2)))
        else:
            i, j = distinct
            moved = _star(phi, elements.perm({1: i, 2: j}))
            steps.append(("relabel", (i, j)))
            phi = _star(moved, elements.shear) + moved  # (d_i + d_j) e_12
            steps.append(("diagonal-shear", None))
        pos = offdiag(phi)
        if pos is None:
            raise AssertionError("the diagonal escape left no off-diagonal entry")
    i, j = pos
    phi12 = _star(phi, elements.perm({1: i, 2: j}))
    steps.append(("relabel", (i, j)))
    psi = phi12
    for e, f in elements.EF_PAIRS:   # phi_12 e_31 + phi_13 e_21, then phi_12 e_23
        psi = e_and_f(psi, e, f, elements.ef[e, f])
        steps.append(("e&f", (e, f)))
    e23 = psi.scale(ctx.inv(psi[2, 3]))
    steps.append(("scale", None))
    if e23 != SemilinearMap.unit(ctx, n, 2, 3):
        raise AssertionError("the e&f moves did not reach e_23")
    return steps


def _replay_tail(elements):
    """Every matrix unit from e_23: permutations, the shear identity, permutations.

    Each extracted unit is checked to be exactly the unit it should be, and
    `reached_full` says that together they span the n^2-dimensional space.
    """
    ctx, n = elements.ctx, elements.n
    if ctx.order < 4:
        raise ValueError("the extraction argument needs |F| >= 4")
    steps = []
    span = Echelon(ctx, n * n)
    zero = ctx.zero()
    e23 = SemilinearMap.unit(ctx, n, 2, 3)
    # permutations reach every off-diagonal unit: e_23 * P = e_{s^-1(2), s^-1(3)}
    units = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b:
                units[(a, b)] = _star(e23, elements.perm({a: 2, b: 3}))
                if units[(a, b)] != SemilinearMap.unit(ctx, n, a, b):
                    raise AssertionError(f"relabeling e_23 did not give e_{a}{b}")
                span.add(units[(a, b)].coords())
    steps.append(("permutation-closure", "off-diagonal units"))
    # shear identity: two distinct nonzero alphas isolate e_11
    alphas = [a for a in ctx.raw_elements() if a != zero][:2]
    extracted = []
    for a in alphas:
        g = GroupElement.transvection(ctx, n, 2, 1, a)
        t = star(units[(1, 2)], g) + units[(1, 2)]   # a e22 + a^2 e11 + a^3 e21
        t = t + units[(2, 1)].scale(ctx.mul(ctx.mul(a, a), a))
        extracted.append(t.scale(ctx.inv(a)))        # e22 + a e11
    diff = extracted[0] + extracted[1]
    e11 = diff.scale(ctx.inv(ctx.add(alphas[0], alphas[1])))
    steps.append(("shear-identity", [ctx.raw_to_json(a) for a in alphas]))
    if e11 != SemilinearMap.unit(ctx, n, 1, 1):
        raise AssertionError("the shear identity did not isolate e_11")
    for a in range(1, n + 1):
        span.add(_star(e11, elements.perm({a: 1})).coords())
    steps.append(("permutation-closure", "diagonal units"))
    return ReplayResult(span.dim == n * n, steps)


def _perm_mapping(ctx, n, want):
    """A permutation element with sigma(src) = dst for each want[src] = dst,
    and the other points sent to the unused targets in increasing order."""
    rest = iter(sorted(set(range(1, n + 1)) - set(want.values())))
    return GroupElement.permutation(
        ctx, [want[k] if k in want else next(rest) for k in range(1, n + 1)])


def verify_gamma_irreducible(gens, seed):
    """Both-ways irreducibility report for the semilinear module over gens' (field, n).

    The constructive replay is run from every matrix unit and from seeded
    random elements, each seed down to e_23 and one shared tail from e_23 on
    (`_replay_seeds`); the kernel-vector test runs on the abstract module.
    """
    ctx, n = gens.ctx, gens.n
    if ctx.kind != "finite" or ctx.char != 2 or ctx.order < 4:
        raise ValueError("needs a finite field of characteristic 2 with |F| >= 4")
    seeds = [SemilinearMap.unit(ctx, n, i, j)
             for i in range(1, n + 1) for j in range(1, n + 1)]
    rng = random.Random(f"{seed}/gamma-seeds/{ctx.order}/{n}")
    for _ in range(5):
        rows = [[rng.randrange(ctx.order) for _ in range(n)] for _ in range(n)]
        phi = SemilinearMap.from_rows(ctx, rows)
        if not phi.is_zero():
            seeds.append(phi)
    results = _replay_seeds(seeds)
    replay = claim("gammaReplay",
                   "every nonzero seed generates the full semilinear space via the "
                   "documented moves", all(r.reached_full for r in results),
                   {"seeds": len(seeds), "steps": sum(len(r.steps) for r in results)})
    res = norton_irreducible(gamma_handle(gens))
    return [replay,
            norton_claim("gammaMeatAxe",
                         "the semilinear module passes the kernel-vector irreducibility test",
                         res, "irreducible", res.detail),
            claim("eq15", "the shear identity holds for every nonzero scalar",
                  eq15_identity_holds(ctx, n))]
