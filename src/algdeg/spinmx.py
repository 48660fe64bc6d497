"""FG-module machinery over the structure-vector space.

Spinning realizes the cyclic module lam(FG) as the closure of lam under a
finite generator set; over a finite field the generators have finite order, so
closure under each g is closure under g^-1 and the generator closure equals
the full group closure.

Over a finite field the standard generators grade every module handle by
torus weight (`ModuleHandle.classes`).  Every handle lies in the structure
space, the dual V* as its piece M*_(1,0), so one table, `weight_classes`,
grades them all.  The diagonal torus T has order prime to p, so a stable
subspace is the sum of its parts on the weight classes, and every basis
vector of a handle is a weight vector, which `_restricted_handle` checks.
On a graded handle the irreducibility test is condensed to its smallest
weight class c, of k basis vectors.  The projection P_c onto that weight
space lies in F[T], inside the envelope, so with theta in the envelope so
is theta' = P_c theta P_c - a*P_c + (I - P_c), and the kernel of theta', and
of its transpose, is that of B - a*I for B the k x k block of theta on the
class, placed at the class's indices.  Each draw is therefore read on k
rows and columns, its shifts and kernels are found in F^k, and a class of
one vector needs no draw at all.  This is the condensation of Lux, Mueller
& Ringe ("Peakword condensation and submodule lattices", J. Symb. Comput.
17, 1994).  An ungraded handle (rational generators, the semilinear module
of `gamma2`, handles built by hand) and one with a single class (over
GF(2) the torus is trivial) are tested on every basis vector.  (On weight
spaces: Green, "Polynomial Representations of GL_n", LNM 830, section 3.)

The test is the classical kernel-vector criterion with Holt-Rees
shifts: draw theta in the enveloping algebra; every shift theta - a*I lies
in the envelope too, and it is singular exactly at each eigenvalue a of
theta in F, found by its kernel: these root shifts are the linear factors
of theta's characteristic polynomial, whose factors the MeatAxe tests.
Each of the first `NORTON_ATTEMPTS` draws is decided at its first root
shift of nullity 1, as the MeatAxe decides only at a shift whose nullity
equals its degree; when every root shift of the draw has a larger proper
kernel, the first kernel vector of the first one is spun, which can only
find a witness, and the draw is redrawn.  If some kernel-line spin (or
transposed-side spin) is proper the module is reducible with an exhibited
witness, checked invariant before it is returned.  If every line of
ker(theta - a*I) spins to the whole module, a proper
submodule S meets that kernel in 0, so theta - a*I is invertible on S,
S lies in its image, and all of ker((theta - a*I)^T) lies in the annihilator
of S, a proper submodule of the transpose.  So one vector of that kernel
decides (Norton's lemma): it spins full exactly when the module is
irreducible.  The same holds for any singular N in the envelope whose
kernel meets every proper submodule in 0.  Draws past the first
`NORTON_ATTEMPTS` reach the modules that are not absolutely irreducible,
where every shift may have a large kernel: they spin every line of the
first root shift whose kernel has at most `LINE_CAP` lines, and with no
eigenvalue of theta in F they test N = theta^(q^e) - theta at the
least e with a nonzero kernel.  When its nullity is e, ker N is a simple
F[theta]-module, so a submodule meeting it contains it, and one kernel
vector stands for every line.  (Holt & Rees, "Testing modules for
irreducibility", J. Austral. Math. Soc. A 57, 1994.)  The draws come from
one fixed stream, `random.Random(0)` made fresh on each call, as the MeatAxe
takes its test elements from a fixed sequence (Parker 1984): a verdict and
its witness are a function of the module's action matrices, and the test
takes no seed.  On a graded handle all of this runs on the block B, whose
shifts and powers are those of theta' on the class.

Every closure, the Norton spins included, runs through `_span_closure`,
scheduled by applier yield as in the MeatAxe's spinning (Parker 1984): a
generator keeps mapping rows while its images are new and hands over at its
first dependent image.  That changes the work, never the span.
"""

import random
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, product as iproduct
from operator import itemgetter
from typing import Optional

from . import canon
from .exactla import Echelon, GroupElement, Subspace, combiner, kernel_rows
from .gfield import FieldCtx, primitive_element
from .report import claim, norton_claim
from .structvec import act_coords, tr_matrix_rows, tr_op_matrix_rows, weight_classes

LINE_CAP = 128           # max kernel lines spun for one shift of a theta draw
NORTON_ATTEMPTS = 64


@dataclass
class GeneratorSet:
    """Group generators; which set they are follows from ctx.kind.

    Over a finite field, `standard_generators`: x_12(1), the n-cycle, the
    transposition (1 2) and one primitive diagonal, which generate the full
    matrix group.  Over Q, `rational_generators`: integer transvections and
    a 2-power diagonal, which generate a subgroup only, so results spun with
    them carry a caveat (`subgroup_caveat`).
    `probe_elements` generates the same group as `elements` and is what the
    early-exit membership probe `spin_contains` spins with: for the standard
    set the unit transvections plus its diagonal, which reach the probes of
    `degen` with about half the applier calls the four elements need;
    otherwise `elements` itself.  It is built on first use, since most
    commands never probe.
    """
    elements: list
    ctx: FieldCtx
    n: int

    @property
    def subgroup_caveat(self):
        return self.ctx.kind != "finite"

    @cached_property
    def probe_elements(self):
        if self.subgroup_caveat:
            return self.elements
        ctx, n = self.ctx, self.n
        probe = [GroupElement.transvection(ctx, n, i, j)
                 for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        return probe + [g for g in self.elements if g.tag and g.tag[0] == "diagonal"]


def standard_generators(ctx, n):
    """x_12(1), the n-cycle (1 2 ... n), the transposition (1 2) and diag(zeta, 1, ..., 1).

    The permutations generate the symmetric group, which conjugates x_12(1)
    to every x_ij(1).  Conjugating x_1j(1) by powers of the diagonal gives
    x_1j(zeta^k), the powers of the primitive zeta span F additively, so
    products reach every x_ij(t); these generate SL(n, q), and the diagonal's
    determinant zeta then gives GL(n, q).  Over GF(2) the diagonal is the
    identity and is dropped, and at n = 2 the cycle is the transposition.
    """
    if ctx.kind != "finite":
        raise ValueError("standard generators need a finite field")
    cycle = list(range(2, n + 1)) + [1]
    swap = [2, 1] + list(range(3, n + 1))
    gens = [GroupElement.transvection(ctx, n, 1, 2), GroupElement.permutation(ctx, cycle)]
    if swap != cycle:
        gens.append(GroupElement.permutation(ctx, swap))
    if ctx.order > 2:
        zeta = primitive_element(ctx)
        gens.append(GroupElement.diagonal(ctx, [zeta] + [ctx.one()] * (n - 1)))
    return GeneratorSet(gens, ctx, n)


def rational_generators(ctx, n):
    """x_ij(1), x_ij(-1), diag(2,...), diag(1/2,...): closed under inverses."""
    if ctx.kind != "rational":
        raise ValueError("rational generators need the rational field")
    gens = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                gens.append(GroupElement.transvection(ctx, n, i, j, 1))
                gens.append(GroupElement.transvection(ctx, n, i, j, -1))
    two = ctx.from_int(2)
    gens.append(GroupElement.diagonal(ctx, [two] + [ctx.one()] * (n - 1)))
    gens.append(GroupElement.diagonal(ctx, [ctx.inv(two)] + [ctx.one()] * (n - 1)))
    return GeneratorSet(gens, ctx, n)


def _span_closure(seed_rows, appliers, ambient, ctx, probe=None):
    """Smallest subspace containing the seeds and closed under every applier.

    Scheduled by applier yield: each applier keeps a stack of the rows it
    has not mapped yet, and every new row of the echelon goes onto every
    stack.  The current applier maps the top of its stack while its images
    are new; after a dependent image the next applier in cyclic order with
    rows left takes over.  The closure ends when the echelon is full, the
    probe hits, or every stack is empty.  In the last case every row has
    met every applier, and the images of a spanning set lie in the span, so
    the span is the smallest stable one whatever the order: the schedule
    changes the work, never the subspace, its canonical basis or a probe's
    verdict.  The saving is in closures that end full or on a hit: a
    unipotent or nearly scalar applier (x_12(1), the diagonal) adds few
    directions, and it hands over after its first dependent image instead
    of mapping every row as the row comes up, so the echelon fills after
    fewer images.  A proper closure still maps every row by every applier.

    With `probe` set, stops as soon as probe lies in the span and returns
    (echelon, True); otherwise runs to closure.  The probe's residual is
    kept reduced against the echelon: it is zero at every older pivot, and
    each new row is zero there too, so an insert costs it at most one row
    operation, and it vanishes exactly when the probe lies in the span.
    """
    ech = Echelon(ctx, ambient)
    residual = None if probe is None else ctx.pack(probe)
    if residual is not None and len(residual) != ambient:
        raise ValueError("probe length does not match the ambient dimension")
    stacks = [[] for _ in appliers]
    k, i, seeds = len(appliers), 0, iter(seed_rows)
    while ech.dim < ambient:
        v = next(seeds, None)
        image = v is None
        if image:
            # the seeds are in: the current applier, or the next one in
            # cyclic order with rows left, maps the top of its stack
            for _ in range(k):
                if stacks[i]:
                    break
                i = i + 1 if i + 1 < k else 0
            else:
                break                         # every stack is empty: closed
            v = appliers[i](stacks[i].pop())
        added = ech.add(v)
        if added is None:
            if image:
                i = i + 1 if i + 1 < k else 0   # a dependent image ends the turn
            continue
        for stack in stacks:
            stack.append(added)
        if residual is not None:
            residual = ech.reduce(residual)
            if ctx.lead(residual) == ambient:
                return ech, True
    return ech, residual is not None and ctx.lead(residual) == ambient


def _structvec_appliers(gens, elements=None):
    ctx, n = gens.ctx, gens.n
    return [lambda r, g=g: act_coords(r, g, n, ctx)
            for g in (gens.elements if elements is None else elements)]


def _check_field(gens, *data):
    """Reject vectors and subspaces over another field (`Echelon` checks lengths)."""
    for x in data:
        if getattr(x, "ctx", gens.ctx) != gens.ctx:
            raise ValueError(f"data over {x.ctx!r} given to generators over {gens.ctx!r}")


def check_cell_shape(bases, gens):
    """Reject a cell check's Bases and generator set of different fields or n."""
    if (bases.ctx, bases.n) != (gens.ctx, gens.n):
        raise ValueError(f"bases over {bases.ctx!r}, n = {bases.n}; "
                         f"generators over {gens.ctx!r}, n = {gens.n}")


def spin(lam, gens):
    """The cyclic module lam(FG): smallest generator-stable subspace around lam."""
    _check_field(gens, lam)
    ech, _ = _span_closure([getattr(lam, "coords", lam)], _structvec_appliers(gens),
                           gens.n ** 3, gens.ctx)
    return ech.subspace()


def spin_contains(lam, gens, probe, projector=()):
    """Whether probe lies in lam(FG); the probe runs inside the closure loop
    (early exit on success).

    Spins with `gens.probe_elements`, which generate the same group as
    `gens.elements`, so the closure and the answer are the same.  With a
    `projector`, factors (g, a, s) each acting as v -> s (v*g - a v), the
    closure is seeded with lam and then with lam*x, x the product of the
    factors (built here, lazily, so a hit at lam skips it).  Each g is an
    element of the full group, so each factor maps lam(FG) into itself,
    lam*x is a member, and the closure of the two seeds is lam(FG) again:
    the second seed only lets a probe in span(lam, lam*x) hit before any
    generator image is taken, and a probe outside lam(FG) still gives False
    after the full spin.  The rational generators reach a subgroup only, so
    they take no projector.
    """
    _check_field(gens, lam, probe, *(g for g, _, _ in projector))
    if projector and gens.subgroup_caveat:
        raise ValueError("a projector needs generators of the full group")
    _, hit = _span_closure(_projected(getattr(lam, "coords", lam), projector, gens.n, gens.ctx),
                           _structvec_appliers(gens, gens.probe_elements),
                           gens.n ** 3, gens.ctx, probe=getattr(probe, "coords", probe))
    return hit


def _projected(row, projector, n, ctx):
    """row, then (with factors) row*x for x the product of v -> s (v*g - a v)."""
    yield row
    if projector:
        for g, a, s in projector:
            row = ctx.row_scale(ctx.row_submul(act_coords(row, g, n, ctx), row, a), s)
        yield row


def close_subspace(sub, gens):
    """Smallest generator-stable subspace containing the given subspace."""
    _check_field(gens, sub)
    ech, _ = _span_closure(sub._ech.rows, _structvec_appliers(gens),
                           gens.n ** 3, gens.ctx)
    return ech.subspace()


def _maps_into_itself(sub, appliers):
    """Whether every applier maps every basis row of sub back into sub."""
    return all(sub.contains(f(row)) for f in appliers for row in sub._ech.rows)


def is_generator_stable(sub, gens):
    return _maps_into_itself(sub, _structvec_appliers(gens))


# -- module handles ----------------------------------------------------------

@dataclass
class ModuleHandle:
    """A module carrier with the generator action restricted to its basis.

    Coordinates are over the complement basis `reps` of `sub` inside
    `carrier` (sub=None means the plain submodule).  Right action:
    coords' = coords * action[i].  `reps` and the rows of each action matrix
    are in the field's row form (`FieldCtx.pack`).  `classes` holds the torus
    weight class of each rep, or None when the handle is ungraded; on a graded
    handle every rep is a weight vector, so the torus acts on the coordinates
    diagonally.
    """
    ctx: FieldCtx
    label: str
    carrier: Subspace
    sub: Optional[Subspace]
    reps: list
    action: list            # one matrix per generator, a list of rows
    gens: GeneratorSet
    classes: Optional[tuple] = None

    @property
    def dim(self):
        return len(self.reps)

    def lift(self, coeff_rows):
        """Handle-coordinate rows back to the carrier's ambient space."""
        return Subspace(self.ctx, self.carrier.ambient,
                        map(combiner(self.reps, self.ctx), coeff_rows))

    def preimage(self, coeff_rows):
        """The lift of the rows plus the sub: the carrier vectors whose cosets they span."""
        lifted = self.lift(coeff_rows)
        return lifted if self.sub is None else lifted | self.sub


def module_handle(gens, carrier, sub=None, label="module"):
    """Restrict (and quotient) the generator action to carrier/sub, checking both
    stable.  The carrier lies in the structure space F^(n^3); any other
    ambient is a ValueError (the dual is the piece M*_(1,0), see
    `dual_space_handle`).

    The handle is graded by `weight_classes` exactly when the generators
    carry no subgroup caveat: a finite field's standard generators generate
    the full group, so its torus, and the rational ones reach a subgroup only.
    """
    _check_field(gens, carrier, sub)
    ctx, n = gens.ctx, gens.n
    if carrier.ambient != n ** 3:
        raise ValueError(f"no generator action on ambient dimension {carrier.ambient}")
    return _restricted_handle(gens, _structvec_appliers(gens), carrier, sub, label,
                              None if gens.subgroup_caveat else weight_classes(ctx, n))


def _restricted_handle(gens, appliers, carrier, sub, label, classes=None):
    """The handle of carrier/sub under the appliers, in any ambient dimension.

    `coset_representatives` checks sub <= carrier.  Each sub row must map into
    sub; each complement row's image gets its coordinates from
    `quotient_coords`, whose vanishing residual proves the image lies in sub +
    complement = carrier.  Together these prove both subspaces stable.

    `classes`, the weight classes of the ambient coordinates, grades the
    handle: a stable subspace is torus-stable, the sum of its parts on the
    classes, so its RREF rows and the reps reduced against them are weight
    vectors.  A rep whose support meets two classes is a ValueError.
    """
    ctx = carrier.ctx
    if sub is None or sub.dim == 0:
        sub, sub_ech, rep_ech = None, Echelon(ctx, carrier.ambient), carrier._ech
    else:
        reps = carrier.coset_representatives(sub)
        sub_ech = sub._ech
        rep_ech = Echelon.from_rref(ctx, carrier.ambient, reps, map(ctx.lead, reps))
    reps = rep_ech.rows
    try:
        action = [[sub_ech.quotient_coords(f(rep), rep_ech) for rep in reps]
                  for f in appliers]
    except ValueError:
        raise ValueError(f"carrier of {label!r} is not generator-stable") from None
    if sub is not None and not _maps_into_itself(sub, appliers):
        raise ValueError(f"sub of {label!r} is not generator-stable")
    graded = None if classes is None else _rep_classes(reps, classes, label)
    return ModuleHandle(ctx, label, carrier, sub, reps, action, gens, graded)


def _rep_classes(reps, classes, label):
    """The weight class of each rep, which must have its support in one class."""
    out = []
    for rep in reps:
        support = set(compress(classes, rep))     # raw zeros are falsy
        if len(support) != 1:
            raise ValueError(f"a basis vector of {label!r} is not a torus weight vector")
        out.append(support.pop())
    return tuple(out)


def dual_space_handle(gens):
    """The dual V* as a right module: the projective piece M*_(1,0) of the
    structure space, spanned by epsilon_1..epsilon_n.

    epsilon(mu), the structure vector of [u, v] = mu(v) u, satisfies
    epsilon(mu) g = epsilon(mu [g]), so in the reps epsilon_1..epsilon_n
    (pivot order) the action matrices are those of row vectors times [g],
    and epsilon_k has the weight e_k of the dual's unit vector e_k.
    """
    return module_handle(gens, canon.basis_MstarP(gens.ctx, gens.n, (1, 0)), label="dual")


def handle_spin(handle, coeff_row):
    """The spin of one handle-coordinate row, as (echelon, hit) from `_span_closure`."""
    return _span_closure([coeff_row], _handle_appliers(handle.action, handle.ctx),
                         handle.dim, handle.ctx)


def _handle_appliers(action, ctx):
    """One applier per action matrix: the row vector times the matrix."""
    return [combiner(m, ctx) for m in action]


# -- the irreducibility test ---------------------------------------------------

@dataclass
class NortonResult:
    verdict: str                      # irreducible | reducible | inconclusive
    witness: Optional[Subspace]       # preimage in the carrier ambient
    witness_coords: Optional[list]    # its rows in handle coordinates, in the row form
    detail: dict = field(default_factory=dict)


class InconclusiveFactor(Exception):
    """A composition factor got no kernel-vector verdict, so its lattice is undecided."""

    def __init__(self, label, dim):
        super().__init__(f"no verdict on the factor {label!r} (dim {dim})")
        self.label, self.dim = label, dim


def _matmul_rows(a, b, ctx):
    return list(map(combiner(b, ctx), a))


def _transpose_rows(rows, ctx):
    return [ctx.pack(col) for col in zip(*rows)]


def _random_envelope(handle, rng, block):
    """Rows and columns `block` of identity + random words in the generator
    action, randomly weighted: each word is built on those rows alone."""
    ctx, action, d = handle.ctx, handle.action, handle.dim
    q, zero = ctx.order, ctx.zero()
    c0 = ctx.from_int(rng.randrange(q))
    theta = [ctx.pack([zero] * i + [c0] + [zero] * (d - 1 - i)) for i in block]
    terms = [[m[i] for i in block] for m in action]
    for _ in range(rng.randrange(2, 5)):
        g = action[rng.randrange(len(action))]
        word = [g[i] for i in block]
        for _ in range(rng.randrange(0, 3)):
            word = _matmul_rows(word, action[rng.randrange(len(action))], ctx)
        terms.append(word)
    for t in terms:
        c = ctx.from_int(rng.randrange(q))
        if c != zero:
            theta = [ctx.row_addmul(tr_, wr, c) for tr_, wr in zip(theta, t)]
    cols = itemgetter(*block)
    return [ctx.pack(cols(r)) for r in theta]


def _root_shifts(theta, ctx):
    """(key, shifted rows, module-side kernel rows) of theta - a*I at each
    eigenvalue a of theta in F, found by its kernel, in `raw_elements` order."""
    d = len(theta)
    for a in ctx.raw_elements():
        shifted = [r[:i] + ctx.pack([ctx.sub(r[i], a)]) + r[i + 1:] for i, r in enumerate(theta)]
        ker = kernel_rows(_transpose_rows(shifted, ctx), d, ctx)
        if ker:
            yield {"shift": ctx.raw_to_json(a)}, shifted, ker


def _deciding_lines(ker, e, d, ctx):
    """The kernel vectors whose spins decide a shift of degree e, or None.

    One vector when the nullity is e (see `_degree_shift`), else every line
    when the kernel has 1..`LINE_CAP` lines and is not the whole space.
    """
    k, q = len(ker), ctx.order
    if k == e:
        return ker[:1]
    if k < d and (q ** k - 1) // (q - 1) <= LINE_CAP:
        return list(map(combiner(ker, ctx), _all_lines(ctx, k)))
    return None


def _degree_shift(theta, ctx):
    """theta^(q^e) - theta at the least e >= 1 with a nonzero kernel, as (key, shifted, ker).

    x^(q^e) - x is the product of the monic irreducibles over F of degree
    dividing e, each once.  An irreducible factor f of theta's characteristic
    polynomial has ker f(theta) != 0, so some e <= d qualifies, and at the
    least one the kernel is the direct sum of ker f(theta) over the factors f
    of degree e.  Each of those is a vector space over F[x]/(f), of
    F-dimension a multiple of e, so nullity e means a single f with
    nullity(f(theta)) = deg f.
    """
    d, one = len(theta), ctx.one()
    power = theta
    for e in range(1, d + 1):
        base = power
        for _ in range(ctx.order - 1):
            power = _matmul_rows(power, base, ctx)
        shifted = [ctx.row_submul(p, t, one) for p, t in zip(power, theta)]
        ker = kernel_rows(_transpose_rows(shifted, ctx), d, ctx)
        if ker:
            return {"degree": e}, shifted, ker
    raise RuntimeError("theta^(q^e) - theta is invertible for every e <= d")


def _shift(theta, ctx, general, d):
    """The shift a draw is tested at: (key, shifted rows, kernel rows, lines), or None.

    theta is a draw's block (`_random_envelope`) and d the module's
    dimension: a kernel is proper, and its lines may decide, when it has
    fewer than d rows.  The root shifts are theta - a*I at each eigenvalue
    a of theta in F, found by its kernel (`_root_shifts`).  A draw among
    the first `NORTON_ATTEMPTS` decides only at a root shift of nullity 1,
    the first one met, where one kernel vector stands for the kernel (the
    MeatAxe's rule).  Without one it takes the first root shift of a
    larger, proper kernel, or None when there is none (a scalar theta of d
    rows has only the zero shift).  A general draw (`general`) decides at the first root shift
    whose kernel has deciding lines; without one it takes the first root
    shift, or with no eigenvalue in F `_degree_shift`'s.  `lines` are the
    deciding kernel vectors, or None when only the first kernel vector may
    be spun, which can only give a reducible witness (this covers
    theta - a*I = 0 on d rows too).
    """
    first = None
    for key, shifted, ker in _root_shifts(theta, ctx):
        lines = _deciding_lines(ker, 1, d, ctx) if general or len(ker) == 1 else None
        if lines:
            return key, shifted, ker, lines
        if first is None and (general or len(ker) < d):
            first = key, shifted, ker, None
    if first is None and general:
        key, shifted, ker = _degree_shift(theta, ctx)
        first = key, shifted, ker, _deciding_lines(ker, key["degree"], d, ctx)
    return first


def _reducible(handle, rows, detail):
    """The reducible verdict on witness rows in handle coordinates, checked first.

    The rows must span a proper nonzero subspace that every action matrix
    maps into itself; otherwise the test itself is wrong, which is a
    RuntimeError (an internal error), never a verdict.
    """
    ctx, d = handle.ctx, handle.dim
    wit = Subspace(ctx, d, rows)
    if not 0 < wit.dim < d:
        raise RuntimeError(f"the witness for {handle.label!r} has dimension {wit.dim} of {d}")
    if not _maps_into_itself(wit, _handle_appliers(handle.action, ctx)):
        raise RuntimeError(f"the witness for {handle.label!r} is not invariant")
    return NortonResult("reducible", handle.preimage(rows), rows, detail)


def _module_witness(handle, lines, detail):
    """The reducible verdict on the first line that spins proper, or None."""
    proper = _first_proper_spin(handle.action, lines, handle.dim, handle.ctx)
    if proper is None:
        return None
    return _reducible(handle, proper._ech.rows, {**detail, "side": "module"})


def _dual_verdict(handle, vector, detail):
    """Norton's lemma, once every deciding line spun full on the module: one
    kernel vector of the transpose spins full exactly when the module is
    irreducible, and a proper spin's annihilator is the witness."""
    ctx, d = handle.ctx, handle.dim
    action_t = [_transpose_rows(m, ctx) for m in handle.action]
    proper_t = _first_proper_spin(action_t, [vector], d, ctx)
    if proper_t is None:
        return NortonResult("irreducible", None, None, detail)
    ann = kernel_rows(proper_t._ech.rows, d, ctx)
    return _reducible(handle, ann, {**detail, "side": "dual"})


def norton_irreducible(handle):
    """Kernel-vector irreducibility test with Holt-Rees shifts of random
    draws, condensed to the block of the handle's smallest weight class.

    The block is that class, the first met on a tie, or every basis vector
    of an ungraded handle.  Each draw is read on the block's rows and
    columns (`_random_envelope`), its shifts are found there and judged
    proper against the module's dimension (`_shift`), and their kernel
    vectors are placed at the block's indices and spun on the module (see
    the module docstring).  A one-vector class takes no draw: every block is
    a scalar b, and the shift at b has the unit vector as its kernel on both
    sides (detail: nullity 1 with no attempt).
    Each of the first `NORTON_ATTEMPTS` draws is decided at the first
    eigenvalue a of the block in F, found by its kernel, with a shift of
    nullity 1; without one, the first kernel vector of the first root shift
    of a larger proper kernel is spun, which can only give a witness, and
    the draw is redone.  The next `NORTON_ATTEMPTS` draws are general: they
    decide at the first root shift of at most `LINE_CAP` kernel lines, else
    at the degree shift (`_shift`); a general draw without deciding kernel
    vectors can still give a witness.
    Reducible verdicts always carry an explicit witness subspace, checked
    invariant (`_reducible`).  Irreducible verdicts require the deciding
    kernel vectors of the shift to spin full on the module, and one vector
    of the kernel of its transpose to spin full on the transpose (Norton's
    lemma).  An inconclusive detail counts the draws made.  The draws need
    a finite field: past dimension 1 any other field is a ValueError.  Each
    call draws from a fresh `random.Random(0)`, so the result depends on the
    action matrices alone, not on the label.
    """
    ctx, d = handle.ctx, handle.dim
    if d == 0:
        raise ValueError("empty module")
    if d == 1:
        return NortonResult("irreducible", None, None, {"reason": "dimension 1"})
    if ctx.kind != "finite":
        raise ValueError(f"the kernel-vector test draws from a finite field, not {ctx!r}")
    block, zero, one = _smallest_class(handle), ctx.zero(), ctx.one()
    units = [ctx.pack([one if j == i else zero for j in range(d)]) for i in block]
    if len(units) == 1:
        return (_module_witness(handle, units, {"nullity": 1})
                or _dual_verdict(handle, units[0], {"nullity": 1}))
    lift, rng = combiner(units, ctx), random.Random(0)
    for attempt in range(2 * NORTON_ATTEMPTS):
        found = _shift(_random_envelope(handle, rng, block), ctx, attempt >= NORTON_ATTEMPTS, d)
        if found is None:
            continue
        key, shifted, ker, lines = found
        detail = {"attempt": attempt, **key, "nullity": len(ker)}
        res = _module_witness(handle, list(map(lift, lines or ker[:1])), detail)
        if res is None and lines is not None:
            # the transpose has the same nullity; its first kernel row decides
            res = _dual_verdict(handle, lift(kernel_rows(shifted, len(block), ctx)[0]), detail)
        if res is not None:
            return res
    return NortonResult("inconclusive", None, None, {"attempts": 2 * NORTON_ATTEMPTS})


def _smallest_class(handle):
    """Indices of the handle's smallest weight class, the first met on a tie;
    every index when the handle is ungraded."""
    members = {}
    for i, c in enumerate(handle.classes or [None] * handle.dim):
        members.setdefault(c, []).append(i)
    return min(members.values(), key=len)


def _first_proper_spin(action, lines, d, ctx):
    appliers = _handle_appliers(action, ctx)
    for v in lines:
        ech, _ = _span_closure([v], appliers, d, ctx)
        if ech.dim < d:
            return ech.subspace()
    return None


def _all_lines(ctx, d):
    """One representative per scalar line of F^d: first nonzero entry 1."""
    els = ctx.raw_elements()
    zero, one = ctx.zero(), ctx.one()
    for lead in range(d):
        head = [zero] * lead + [one]
        for tail in iproduct(els, repeat=d - lead - 1):
            yield head + list(tail)


# -- composition series --------------------------------------------------------

def composition_series(chain, gens):
    """Certify a chain of subspaces as a composition series via factor tests;
    `certified` when every factor is irreducible, `conclusive` when none is inconclusive.
    The factor tests take no seed, so the report is a function of the chain."""
    if len(chain) < 2:
        raise ValueError("a chain needs at least two terms")
    for a, b in zip(chain, chain[1:]):
        if not a < b:
            raise ValueError("chain must be strictly increasing")
    factors = []
    for i, (a, b) in enumerate(zip(chain, chain[1:])):
        handle = module_handle(gens, b, sub=a, label=f"factor{i}")
        res = norton_irreducible(handle)
        facts = {
            "index": i,
            "dim": handle.dim,
            "verdict": res.verdict,
        }
        if res.verdict == "reducible":
            facts["witness_dim"] = len(res.witness_coords)
            facts["witness"] = res.witness.to_json()
        factors.append(facts)
    verdicts = {f["verdict"] for f in factors}
    return {
        "factors": factors,
        "certified": verdicts == {"irreducible"},
        "conclusive": "inconclusive" not in verdicts,
        "dims": [s.dim for s in chain],
    }


# -- submodule survey -------------------------------------------------------------

def survey_submodules(handle):
    """Every submodule of the handle's module, from its composition factors and covers.

    Repeated kernel-vector splitting chops the module into composition
    factors, kept one per isomorphism class (`_simple_types`).  A cover of a
    submodule U is the preimage of a simple submodule of M/U; each of those is
    the image of a nonzero map S -> M/U from a simple type S, and every such
    map is injective, so its row space is simple.  Walking covers up from 0
    reaches every submodule, since each has a composition series starting at
    0.  Every composition factor of M is one of the types (Jordan-Hoelder),
    so when dim M/U is below twice the least type dimension only one factor
    fits, M/U is simple and M is the one cover of U: that member gets no
    quotient handle and no hom space, only the check that U maps into
    itself, which its quotient handle would have made.  No line of M is
    listed, so the cost follows the members and the hom spaces, not the
    size of the carrier.  Returns the lattice lifted to the
    carrier's ambient space, sorted by (dim, basis).  The kernel-vector
    tests take no seed, so neither the splitting nor the lattice depends on
    one.  A factor whose test stays inconclusive raises `InconclusiveFactor`.
    """
    ctx, d = handle.ctx, handle.dim
    appliers = _handle_appliers(handle.action, ctx)
    full = Subspace.full(ctx, d)

    def quotient(top, bottom, label):
        # in handle coordinates, graded by the base handle's classes
        return _restricted_handle(handle.gens, appliers, top, bottom,
                                  f"{handle.label}:{label}", handle.classes)

    types = _simple_types(quotient, full)
    simple_below = 2 * min((t.dim for t in types), default=d)
    lattice = [Subspace.zero(ctx, d)]
    found = set(lattice)
    for u in lattice:                    # breadth first: covers are appended as found
        if u.dim == d:
            continue
        if d - u.dim < simple_below:     # one composition factor fits: M/U is simple
            if not _maps_into_itself(u, appliers):      # what its quotient handle proved
                label = f"{handle.label}:/{u.dim}"
                raise ValueError(f"sub of {label!r} is not generator-stable")
            if full not in found:
                found.add(full)
                lattice.append(full)
            continue
        top = quotient(full, u, f"/{u.dim}")
        for s in types:
            _, basis = hom_space(s, top)
            maps = map(combiner(basis, ctx), _all_lines(ctx, len(basis)))
            images = {Subspace(ctx, top.dim, [x[i * top.dim:(i + 1) * top.dim]
                                              for i in range(s.dim)]) for x in maps}
            for image in images:
                cover = top.preimage(image._ech.rows)
                if cover not in found:
                    found.add(cover)
                    lattice.append(cover)
    lifted = [handle.lift(s._ech.rows) for s in lattice]
    lifted.sort(key=lambda s: (s.dim, s._ech.rows))
    return lifted


def _simple_types(quotient, full):
    """One handle per isomorphism class of composition factors of the module on `full`.

    Each pair (top, bottom) still to chop is split at the witness of a
    reducible verdict, which is invariant and contains bottom.  Two simple
    factors are isomorphic exactly when a nonzero map joins them.
    """
    types = []
    todo = [(full, Subspace.zero(full.ctx, full.ambient))] if full.dim else []
    while todo:
        top, bottom = todo.pop()
        h = quotient(top, bottom, f"{top.dim}/{bottom.dim}")
        res = norton_irreducible(h)
        if res.verdict == "reducible":
            todo += [(res.witness, bottom), (top, res.witness)]
        elif res.verdict != "irreducible":
            raise InconclusiveFactor(h.label, h.dim)
        elif not any(t.dim == h.dim and hom_space(t, h)[0] for t in types):
            types.append(h)
    return types


# -- homomorphism spaces ---------------------------------------------------------

def hom_space(ha, hb):
    """Dimension and packed basis of the space of module maps between two handles.

    A map is X (da x db) with A X = X B for each action pair, flattened row
    by row.  A module map commutes with the torus, so on graded handles it
    maps each weight class into the same class: X is zero off the blocks
    ha.classes[k] == hb.classes[l], and only those entries are unknowns,
    kept in row-major order.  Unknown X_kl puts A[i][k] into equation (i, l)
    of A X - X B for each nonzero A[i][k], and -B[l][j] into equation (k, j)
    for each nonzero B[l][j]; an equation is made when an unknown first
    touches it, so an (i, j) no unknown meets is never built.  Each
    generator's equations go into one echelon, which drops the zero ones (a
    torus generator's two terms cancel) and holds at most one row per
    unknown.  The dense system has the same kernel, zero off the blocks, so the
    same free columns, and `kernel_rows` returns the same reduced basis,
    scattered back to the da*db layout.  An ungraded pair (either `classes`
    None) is one block, the whole da x db system.  The pairs mean something
    only when both handles come from one generator set, so different fields,
    `gens` or action counts are a ValueError.
    """
    if ha.ctx != hb.ctx or ha.gens != hb.gens or len(ha.action) != len(hb.action):
        raise ValueError(f"{ha.label!r} and {hb.label!r} are over different generator sets")
    ctx = ha.ctx
    da, db = ha.dim, hb.dim
    ca, cb = ha.classes, hb.classes
    if ca is None or cb is None:
        ca, cb = (0,) * da, (0,) * db
    unknowns = [(k, l) for k in range(da) for l in range(db) if ca[k] == cb[l]]
    ks, ls = {k for k, _ in unknowns}, {l for _, l in unknowns}
    zero, width = ctx.zero(), len(unknowns)
    ech = Echelon(ctx, width)
    for ga, gb in zip(ha.action, hb.action):
        col = {k: [(i, a[k]) for i, a in enumerate(ga) if a[k]] for k in ks}
        row = {l: [(j, b) for j, b in enumerate(gb[l]) if b] for l in ls}
        eqs = defaultdict(lambda: [zero] * width)
        for p, (k, l) in enumerate(unknowns):
            for i, a in col[k]:
                eqs[i, l][p] = a
            for j, b in row[l]:
                eq = eqs[k, j]
                eq[p] = ctx.sub(eq[p], b)
        for eq in eqs.values():
            ech.add(eq)
    basis = []
    for v in kernel_rows(ech.reduced()[0], width, ctx):
        x = [zero] * (da * db)
        for (k, l), c in zip(unknowns, v):
            x[k * db + l] = c
        basis.append(ctx.pack(x))
    return len(basis), basis


# -- diagram verification ----------------------------------------------------------

def verify_lattice_diagrams(bases, gens):
    """Check the submodule diagrams branch by branch for one (n, field).

    Covers the two diagrams over M** (split by char | n-1), the three over
    the full space (split by char | n+1 and char 2), and the three dual-space
    filtration factors, each by explicit subspace computation plus kernel-
    vector irreducibility verdicts.  The field, n and the submodules come
    from `bases`; the handles act by `gens`.  Away from char | n+1 the
    quotient by M** gets no handle of its own: `LambdaOverMss.irr` carries
    N's verdict, and holds when the split N (+) M** = Lambda, the quotient's
    dimension and the stability of M** do.
    """
    check_cell_shape(bases, gens)
    ctx, n = bases.ctx, bases.n
    if ctx.kind != "finite" or ctx.order <= 2:
        raise ValueError("diagram verification assumes a finite field, |F| > 2")
    claims = []
    dims = canon.expected_dims(n)

    C, K, Ms, Mss, T, TcT, N, U, Lam = (bases[name] for name in (
        "C", "K", "Mstar", "Mstarstar", "T", "TcapTtilde", "N", "U", "Lambda"))
    one = ctx.one()
    char2 = ctx.char == 2

    add = claims.append

    def factor(cid, anchor, carrier, sub, label, want="irreducible", rest=None):
        """Build carrier/sub's handle, run the kernel-vector test, add the claim.

        `rest(handle, result)` gives the claim's extra data and its
        deterministic part.  Returns the test's result.
        """
        h = module_handle(gens, carrier, sub=sub, label=label)
        res = norton_irreducible(h)
        extra, holds = rest(h, res) if rest else ({}, True)
        add(norton_claim(cid, anchor, res, want, {"verdict": res.verdict, **extra}, holds))
        return res

    def dual_top(cid, anchor, sub, top, sub_key, top_key):
        """Claim hom(sub, dual) = 0 and hom(top, dual) != 0; sub and top are
        `module_handle` (carrier, sub, label), built after the dual handle."""
        v_handle = dual_space_handle(gens)
        d_sub, _ = hom_space(module_handle(gens, *sub), v_handle)
        d_top, _ = hom_space(module_handle(gens, *top), v_handle)
        add(claim(cid, anchor, d_sub == 0 and d_top >= 1, {sub_key: d_sub, top_key: d_top}))

    # dual-space filtration factors via the explicit trace surjections.  T and
    # U are built as kernels of tr, so they are checked against the
    # per-vector tr and the dimension a rank-n map leaves; N is a table basis
    tr_rows = tr_matrix_rows(ctx, n)
    add(claim("LambdaOverT", "tr maps the full space onto the dual with kernel T",
              Echelon(ctx, n ** 3, tr_rows).dim == n and T.dim == n ** 3 - n
              and not any(map(any, canon._trace_images(T, n)))))
    add(claim("KOverU", "tr restricted to K is onto the dual with kernel U",
              Echelon(ctx, n, canon._trace_images(K, n)).dim == n
              and U <= K and U <= T and U.dim == K.dim - n))
    values = canon._trace_images(C, n)
    add(claim("COverN", "tr restricted to C is onto the dual with kernel N",
              Echelon(ctx, n, values).dim == n
              and canon._restricted_kernel(C, values, ctx) == N))

    # diagram over M**
    if (n - 1) % ctx.char == 0:
        UM = U | Ms
        M1m1 = bases[canon.ProjectivePoint(ctx, one, ctx.neg(one))]
        add(claim("UmeetMstar.branch", "U ^ M* = M*_(1,-1) when char | n-1",
                  bases.meet("U", "Mstar") == M1m1))
        add(claim("UplusMstar.dim", "dim(U + M*) = n^3/2 - n^2/2 when char | n-1",
                  UM.dim == (n ** 3 - n ** 2) // 2, {"dim": UM.dim}))
        add(claim("MssOverU.split", "K and U+M* are distinct complements over U inside M**",
                  (K & UM) == U and (K | UM) == Mss))
        factor("UplusMstarOverMstar.irr", "(U + M*)/M* is irreducible", UM, Ms, "(U+M*)/M*")
        dual_top("MssOverMstar.notU",
                 "the dual is a top factor of M**/M* but not of U (hom-space dims)",
                 (U, None, "U"), (Mss, Ms, "M**/M*"), "hom(U,dual)", "hom(M**/M*,dual)")
    else:
        add(claim("MssSplit", "M** = U (+) M* when char does not divide n-1",
                  bases.meet("U", "Mstar").dim == 0 and (U | Ms) == Mss))
        factor("U.irr", "U is irreducible when char does not divide n-1", U, None, "U")
        factor("Mstar.red", "M* is reducible (a sum of two dual copies)", Ms, None, "M*",
               "reducible", lambda h, res: ({"witness_dim": len(res.witness_coords or [])}, True))

    # diagram over the full space
    if char2:
        NM = N | Mss
        add(claim("NmeetMss.char2", "N ^ M** = U in characteristic 2",
                  bases.meet("N", "Mstarstar") == U))
        add(claim("NplusMss.dim.char2", "dim(N + M**) = n^3/2 + n^2/2 + n",
                  NM.dim == (n ** 3 + n ** 2) // 2 + n, {"dim": NM.dim}))
        TM = TcT | Mss
        add(claim("TTplusMss.proper", "(T ^ T~) + M** properly contains N + M**",
                  NM < TM, {"lower": NM.dim, "upper": TM.dim}))
        if n % 2 == 1:
            # char 2 and n odd is a char | n+1 case, so the triple intersection
            # is T ^ M** and the sum has codimension n
            add(claim("TTplusMss.dim", "dim((T ^ T~) + M**) = n^3 - n (odd n)",
                      TM.dim == n ** 3 - n, {"dim": TM.dim}))
            factor("LambdaOverTTplusMss.irr",
                   "the top factor over (T ^ T~) + M** is irreducible",
                   Lam, TM, "Lambda/(TT+M**)", rest=lambda h, res: ({"dim": n}, True))
            factor("TTplusMssOverNplusMss.irr", "((T ^ T~) + M**)/(N + M**) is irreducible",
                   TM, NM, "(TT+M**)/(N+M**)")
        else:
            # for even n the traces satisfy tr + tr~ = omega on M**, so the
            # triple intersection collapses to U and the sum is everything;
            # the n^3 - n value would need char | n+1
            add(claim("TTmeetMss.even", "(T ^ T~) ^ M** = U (char 2, even n)",
                      bases.meet("TcapTtilde", "Mstarstar") == U))
            add(claim("TTplusMss.even", "(T ^ T~) + M** is the whole space (char 2, even n)",
                      TM.dim == n ** 3, {"dim": TM.dim}))
        du = dims["U"]
        if n % 2 == 0:
            factor("LambdaOverNplusMss.even",
                   "the factor over N + M** is irreducible of dim U for even n",
                   Lam, NM, "Lambda/(N+M**)", rest=lambda h, res: ({"dim": h.dim}, h.dim == du))
        else:
            def length_two(h, res):
                if res.verdict != "reducible":
                    return {"dim": h.dim}, True
                m = len(res.witness_coords)
                factor_dims = sorted((m, h.dim - m))
                return ({"dim": h.dim, "factor_dims": factor_dims},
                        factor_dims == sorted((n, du - n)))

            factor("LambdaOverNplusMss.odd",
                   "the factor over N + M** has length two with the factor dims of U (odd n)",
                   Lam, NM, "Lambda/(N+M**)", "reducible", length_two)
    elif (n + 1) % ctx.char == 0:
        NM = N | Mss
        M11 = bases[canon.ProjectivePoint(ctx, one, one)]
        add(claim("NmeetMss.divides", "N ^ M** = M*_(1,1) when char | n+1",
                  bases.meet("N", "Mstarstar") == M11))
        add(claim("NplusMss.dim", "dim(N + M**) = n^3 - n",
                  NM.dim == n ** 3 - n, {"dim": NM.dim}))
        psi_rows = [ctx.row_addmul(a, b, one) for a, b in
                    zip(tr_rows, tr_op_matrix_rows(ctx, n))]
        ker_psi = Subspace(ctx, n ** 3, kernel_rows(psi_rows, n ** 3, ctx))
        add(claim("kerPsi", "ker(tr + tr~) = N + M**, so the top factor is the dual",
                  Echelon(ctx, n ** 3, psi_rows).dim == n and ker_psi == NM))
        factor("NplusMssOverMss.irr", "(N + M**)/M** is irreducible", NM, Mss, "(N+M**)/M**")
        dual_top("LambdaOverMss.notN",
                 "the dual is a top factor of the quotient by M** but not of N",
                 (N, None, "N"), (Lam, Mss, "Lambda/M**"), "hom(N,dual)", "hom(L/M**,dual)")
    else:
        split = bases.meet("N", "Mstarstar").dim == 0 and (N | Mss) == Lam
        add(claim("LambdaSplit", "the full space is N (+) M** away from char | n+1", split))
        # N's handle proves N stable; with M** stable and the split, N maps
        # isomorphically onto the quotient, so N's verdict is the quotient's
        res = factor("N.irr", "N is irreducible when char does not divide n+1", N, None, "N")
        dim = Lam.dim - Mss.dim
        add(norton_claim("LambdaOverMss.irr",
                         "the quotient by M** is irreducible of the dimension of N",
                         res, "irreducible", {"verdict": res.verdict, "dim": dim},
                         split and dim == dims["N"] and is_generator_stable(Mss, gens)))
    return claims
