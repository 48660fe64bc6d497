"""FG-module machinery over the structure-vector space.

Spinning realizes the cyclic module lam(FG) as a worklist closure under a
finite generator set; over a finite field the generators have finite order, so
closure under each g is closure under g^-1 and the generator closure equals
the full group closure.  The irreducibility test is the classical kernel-
vector criterion with Holt-Rees shifts: draw theta in the enveloping algebra;
every shift theta - a*I lies in the envelope too, and a root a of the order
polynomial of e_1 under theta makes it singular.  The first such shift whose
kernel has at most `LINE_CAP` lines is tested, and a draw with none is
redrawn.  If some kernel-line spin (or transposed-side spin) is proper the
module is reducible with an exhibited witness, checked invariant before it is
returned.  If every line of ker(theta - a*I) spins to the whole module, a
proper submodule S meets that kernel in 0, so theta - a*I is invertible on S,
S lies in its image, and all of ker((theta - a*I)^T) lies in the annihilator
of S, a proper submodule of the transpose.  So one vector of that kernel
decides (Norton's lemma): it spins full exactly when the module is
irreducible.  (Holt & Rees, "Testing modules for irreducibility", J. Austral.
Math. Soc. A 57, 1994.)
"""

import hashlib
import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product as iproduct
from typing import Optional

from .exactla import (
    Echelon, GroupElement, Matrix, Subspace, combiner, kernel_rows,
)
from .gfield import FieldCtx, primitive_element
from .report import claim, norton_claim
from .structvec import act_coords

LINE_CAP = 128           # max kernel lines spun for one shift of a theta draw
NORTON_ATTEMPTS = 64
SURVEY_BUDGET = 2 ** 22  # max |F|^dim for surveys and the exhaustive Norton fallback


def derive_seed(base, *tags):
    """Stable per-operation seed split (independent of PYTHONHASHSEED)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(base).encode())
    for t in tags:
        h.update(b"/")
        h.update(str(t).encode())
    return int.from_bytes(h.digest(), "big")


@dataclass
class GeneratorSet:
    """Group generators with provenance.

    standard-finite: x_12(1), the n-cycle, the transposition (1 2) and one
    primitive diagonal; they generate the full matrix group over a finite
    field.  rational-subgroup: integer transvections and a 2-power diagonal;
    they generate a subgroup only, so results spun with it carry a caveat.
    `probe_elements` generates the same group as `elements` and is what the
    early-exit membership probe `spin_contains` spins with: for the standard
    set the unit transvections plus its diagonal, which reach the probes of
    `degen` with about half the applier calls the four elements need;
    otherwise `elements` itself.  It is built on first use, since most
    commands never probe.
    """
    elements: list
    provenance: str
    ctx: FieldCtx
    n: int

    @property
    def subgroup_caveat(self):
        return self.provenance == "rational-subgroup"

    @cached_property
    def probe_elements(self):
        if self.provenance != "standard-finite":
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
        zeta = primitive_element(ctx).raw
        gens.append(GroupElement.diagonal(ctx, [zeta] + [ctx.one()] * (n - 1)))
    return GeneratorSet(gens, "standard-finite", ctx, n)


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
    return GeneratorSet(gens, "rational-subgroup", ctx, n)


def _span_closure(seed_rows, appliers, ambient, ctx, probe=None):
    """Smallest subspace containing the seeds and closed under every applier.

    Stops as soon as the echelon is full.  With `probe` set, stops early as
    soon as probe lies in the span and returns (echelon, True); otherwise
    runs to closure.  The probe's residual is kept reduced against the
    echelon: it is zero at every older pivot, and each new row is zero
    there too, so an insert costs it at most one row operation, and it
    vanishes exactly when the probe lies in the span.
    """
    ech = Echelon(ctx, ambient)
    residual = None if probe is None else ctx.pack(probe)
    if residual is not None and len(residual) != ambient:
        raise ValueError("probe length does not match the ambient dimension")
    queue, batch = [], seed_rows
    while True:
        for v in batch:
            added = ech.add(v)
            if added is None:
                continue
            queue.append(added)
            if residual is not None:
                residual = ech.reduce(residual)
                if ctx.lead(residual) == ambient:
                    return ech, True
        if not queue or ech.dim == ambient:
            return ech, residual is not None and ctx.lead(residual) == ambient
        r = queue.pop()
        batch = (f(r) for f in appliers)     # lazy: a probe hit skips the rest


def _structvec_appliers(gens, elements=None):
    ctx, n = gens.ctx, gens.n
    return [lambda r, g=g: act_coords(r, g, n, ctx)
            for g in (gens.elements if elements is None else elements)]


def _check_field(gens, *data):
    """Reject vectors and subspaces over another field (`Echelon` checks lengths)."""
    for x in data:
        if getattr(x, "ctx", gens.ctx) != gens.ctx:
            raise ValueError(f"data over {x.ctx!r} given to generators over {gens.ctx!r}")


def spin(lam, gens):
    """The cyclic module lam(FG): smallest generator-stable subspace around lam."""
    _check_field(gens, lam)
    ech, _ = _span_closure([getattr(lam, "coords", lam)], _structvec_appliers(gens),
                           gens.n ** 3, gens.ctx)
    return ech.subspace()


def spin_contains(lam, gens, probe):
    """Membership probe ran inside the closure loop (early exit on success).

    Spins with `gens.probe_elements`, which generate the same group as
    `gens.elements`, so the closure and the answer are the same.
    """
    _check_field(gens, lam, probe)
    _, hit = _span_closure([getattr(lam, "coords", lam)],
                           _structvec_appliers(gens, gens.probe_elements),
                           gens.n ** 3, gens.ctx, probe=getattr(probe, "coords", probe))
    return hit


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
    coords' = coords * action[i].
    """
    ctx: FieldCtx
    label: str
    carrier: Subspace
    sub: Optional[Subspace]
    reps: list
    action: list            # one row-list matrix per generator
    gens: GeneratorSet

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


def _ambient_appliers(gens, ambient):
    n = gens.n
    if ambient == n ** 3:
        return _structvec_appliers(gens)
    if ambient == n:
        # the dual space: row vectors acted on by right multiplication with [g]
        return _handle_appliers([g.mat.rows() for g in gens.elements], gens.ctx)
    raise ValueError(f"no generator action on ambient dimension {ambient}")


def module_handle(gens, carrier, sub=None, label="module"):
    """Restrict (and quotient) the generator action to carrier/sub, checking both stable."""
    _check_field(gens, carrier, sub)
    return _restricted_handle(gens, _ambient_appliers(gens, carrier.ambient),
                              carrier, sub, label)


def _restricted_handle(gens, appliers, carrier, sub, label):
    """The handle of carrier/sub under the appliers, in any ambient dimension.

    `coset_representatives` checks sub <= carrier.  Each sub row must map into
    sub; each complement row's image gets its coordinates from
    `quotient_coords`, whose vanishing residual proves the image lies in sub +
    complement = carrier.  Together these prove both subspaces stable.
    """
    ctx = carrier.ctx
    if sub is None or sub.dim == 0:
        sub = None
        sub_ech = Echelon(ctx, carrier.ambient)
        reps = [list(r) for r in carrier.rows]
    else:
        sub_ech = sub._ech
        reps = carrier.coset_representatives(sub)
    packed = [ctx.pack(r) for r in reps]
    rep_ech = Echelon.from_rref(ctx, carrier.ambient, packed, map(ctx.lead, packed))
    try:
        action = [[sub_ech.quotient_coords(f(rep), rep_ech) for rep in packed]
                  for f in appliers]
    except ValueError:
        raise ValueError(f"carrier of {label!r} is not generator-stable") from None
    if sub is not None and not _maps_into_itself(sub, appliers):
        raise ValueError(f"sub of {label!r} is not generator-stable")
    return ModuleHandle(ctx, label, carrier, sub, reps, action, gens)


def dual_space_handle(gens, label="dual"):
    """The n-dimensional dual space as a right module."""
    ctx, n = gens.ctx, gens.n
    return module_handle(gens, Subspace.full(ctx, n), label=label)


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
    witness_coords: Optional[list]
    detail: dict = field(default_factory=dict)


def _matmul_rows(a, b, ctx):
    return list(map(combiner(b, ctx), a))


def _transpose_rows(rows):
    return [list(col) for col in zip(*rows)]


def _lines_of(rows, ctx, cap):
    """All scalar-line representatives inside the span of independent rows."""
    k = len(rows)
    q = ctx.order
    if (q ** k - 1) // (q - 1) > cap:
        return None
    return list(map(combiner(rows, ctx), _all_lines(ctx, k)))


def _random_envelope(handle, rng):
    """Identity + random words in the generator action, randomly weighted."""
    ctx, d = handle.ctx, handle.dim
    q = ctx.order
    ident = Matrix.identity(ctx, d).rows()
    c0 = ctx.from_int(rng.randrange(q))
    theta = [ctx.row_scale(r, c0) for r in ident]
    terms = list(handle.action)
    for _ in range(rng.randrange(2, 5)):
        word = handle.action[rng.randrange(len(handle.action))]
        for _ in range(rng.randrange(0, 3)):
            word = _matmul_rows(word, handle.action[rng.randrange(len(handle.action))], ctx)
        terms.append(word)
    for t in terms:
        c = ctx.from_int(rng.randrange(q))
        if c != ctx.zero():
            theta = [ctx.row_addmul(tr_, wr, c) for tr_, wr in zip(theta, t)]
    return theta


def _eigenvalue_candidates(theta, ctx):
    """The roots in F of the order polynomial of e_1 under theta (rows act on the right).

    Echelon rows [e_1 theta^k | x^k] of length 2d + 1: the first one whose
    vector part reduces to zero carries in its tail a nonzero multiple of the
    least polynomial p with e_1 p(theta) = 0.  Each root a of p is an
    eigenvalue, so theta - a*I is singular.  Roots are tested by Horner.
    """
    d = len(theta)
    times_theta = combiner(theta, ctx)
    zero, one = ctx.zero(), ctx.one()
    ech = Echelon(ctx, 2 * d + 1)
    v = ctx.pack([one] + [zero] * (d - 1))
    for k in range(d + 1):
        row = ech.add(v + ctx.pack([zero] * k + [one] + [zero] * (d - k)))
        if ctx.lead(row) >= d:
            poly = row[d:d + k + 1]
            break
        v = times_theta(v)
    roots = []
    for a in ctx.raw_elements():
        acc = zero
        for c in reversed(poly):
            acc = ctx.add(ctx.mul(acc, a), c)
        if acc == zero:
            roots.append(a)
    return roots


def _small_shift(theta, ctx):
    """The first shift theta - a*I at a root a whose kernel has 1..`LINE_CAP` lines.

    Returns (a, shifted rows, module-side kernel rows, kernel lines), or None.
    """
    d = len(theta)
    for a in _eigenvalue_candidates(theta, ctx):
        shifted = [list(r) for r in theta]
        for i, r in enumerate(shifted):
            r[i] = ctx.sub(r[i], a)
        ker = kernel_rows(_transpose_rows(shifted), d, ctx)
        lines = _lines_of(ker, ctx, LINE_CAP) if len(ker) < d else None
        if lines:
            return a, shifted, ker, lines
    return None


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


def norton_irreducible(handle, seed):
    """Kernel-vector irreducibility test with Holt-Rees shifts and exhaustive fallback.

    Each draw theta is tested at the first root a (`_small_shift`) whose
    kernel of theta - a*I has at most `LINE_CAP` lines, or redrawn.
    Reducible verdicts always carry an explicit witness subspace, checked
    invariant (`_reducible`).  Irreducible verdicts require every kernel line
    of that shift to spin full on the module, and one vector of the kernel of
    its transpose to spin full on the transpose (Norton's lemma; see the
    module docstring).
    """
    ctx, d = handle.ctx, handle.dim
    if d == 0:
        raise ValueError("empty module")
    if d == 1:
        return NortonResult("irreducible", None, None, {"reason": "dimension 1"})
    rng = random.Random(derive_seed(seed, "norton", handle.label, d))
    for attempt in range(NORTON_ATTEMPTS):
        found = _small_shift(_random_envelope(handle, rng), ctx)
        if found is None:
            continue
        a, shifted, ker, lines = found
        detail = {"attempt": attempt, "shift": ctx.raw_to_json(a), "nullity": len(ker)}
        proper = _first_proper_spin(handle.action, lines, d, ctx)
        if proper is not None:
            return _reducible(handle, [list(r) for r in proper.rows],
                              {**detail, "side": "module"})
        # the transpose has the same nullity; its first kernel row decides
        ker_t = kernel_rows(shifted, d, ctx)
        action_t = [_transpose_rows(m) for m in handle.action]
        proper_t = _first_proper_spin(action_t, ker_t[:1], d, ctx)
        if proper_t is not None:
            ann = kernel_rows([list(r) for r in proper_t.rows], d, ctx)
            return _reducible(handle, ann, {**detail, "side": "dual"})
        return NortonResult("irreducible", None, None, detail)
    if ctx.order ** d <= SURVEY_BUDGET:
        lines = _line_orbit_reps(handle.action, ctx, d)
        proper = _first_proper_spin(handle.action, lines, d, ctx)
        if proper is not None:
            return _reducible(handle, [list(r) for r in proper.rows], {"mode": "exhaustive"})
        return NortonResult("irreducible", None, None, {"mode": "exhaustive"})
    return NortonResult("inconclusive", None, None, {"attempts": NORTON_ATTEMPTS})


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

def composition_series(chain, gens, seed):
    """Certify a chain of subspaces as a composition series via factor tests."""
    if len(chain) < 2:
        raise ValueError("a chain needs at least two terms")
    for a, b in zip(chain, chain[1:]):
        if not a < b:
            raise ValueError("chain must be strictly increasing")
    factors = []
    certified = True
    conclusive = True
    for i, (a, b) in enumerate(zip(chain, chain[1:])):
        handle = module_handle(gens, b, sub=a if a.dim else None,
                               label=f"factor{i}")
        res = norton_irreducible(handle, derive_seed(seed, "series", i))
        facts = {
            "index": i,
            "dim": handle.dim,
            "verdict": res.verdict,
        }
        if res.verdict == "reducible":
            certified = False
            facts["witness_dim"] = len(res.witness_coords)
            facts["witness"] = res.witness.to_json()
        elif res.verdict == "inconclusive":
            certified = False
            conclusive = False
        factors.append(facts)
    return {
        "factors": factors,
        "certified": certified,
        "conclusive": conclusive,
        "dims": [s.dim for s in chain],
    }


# -- submodule survey -------------------------------------------------------------

def survey_submodules(handle, budget=SURVEY_BUDGET, seed=0):
    """Every submodule of the handle's module, from its composition factors and covers.

    Repeated kernel-vector splitting chops the module into composition
    factors, kept one per isomorphism class (`_simple_types`).  A cover of a
    submodule U is the preimage of a simple submodule of M/U; each of those is
    the image of a nonzero map S -> M/U from a simple type S, and every such
    map is injective, so its row space is simple.  Walking covers up from 0
    reaches every submodule, since each has a composition series starting at
    0, and no line of M is listed.  Returns the lattice lifted to the
    carrier's ambient space, sorted by (dim, basis).  `seed` drives the
    splitting only; the lattice does not depend on it.
    """
    ctx, d = handle.ctx, handle.dim
    if ctx.order ** d > budget:
        raise ValueError(f"survey budget exceeded: {ctx.order}^{d} > {budget}")
    appliers = _handle_appliers(handle.action, ctx)
    full = Subspace.full(ctx, d)

    def quotient(top, bottom, label):
        return _restricted_handle(handle.gens, appliers, top, bottom, f"{handle.label}:{label}")

    types = _simple_types(quotient, full, seed)
    lattice = [Subspace.zero(ctx, d)]
    found = set(lattice)
    for u in lattice:                    # breadth first: covers are appended as found
        if u.dim == d:
            continue
        top = quotient(full, u, f"/{u.dim}")
        for s in types:
            _, basis = hom_space(s, top)
            maps = map(combiner(basis, ctx), _all_lines(ctx, len(basis)))
            images = {Subspace(ctx, top.dim, [x[i * top.dim:(i + 1) * top.dim]
                                              for i in range(s.dim)]) for x in maps}
            for image in images:
                cover = top.preimage([list(r) for r in image.rows])
                if cover not in found:
                    found.add(cover)
                    lattice.append(cover)
    lifted = [handle.lift([list(r) for r in s.rows]) for s in lattice]
    lifted.sort(key=lambda s: (s.dim, s.rows))
    return lifted


def _simple_types(quotient, full, seed):
    """One handle per isomorphism class of composition factors of the module on `full`.

    Each pair (top, bottom) still to chop is split at the witness of a
    reducible verdict, which is invariant and contains bottom.  Two simple
    factors are isomorphic exactly when a nonzero map joins them.
    """
    types = []
    todo = [(full, Subspace.zero(full.ctx, full.ambient))] if full.dim else []
    step = 0
    while todo:
        top, bottom = todo.pop()
        h = quotient(top, bottom, f"{top.dim}/{bottom.dim}")
        res = norton_irreducible(h, derive_seed(seed, "survey", step))
        step += 1
        if res.verdict == "reducible":
            todo += [(res.witness, bottom), (top, res.witness)]
        elif res.verdict != "irreducible":
            raise RuntimeError(f"no verdict on the factor {h.label!r} inside the survey budget")
        elif not any(t.dim == h.dim and hom_space(t, h)[0] for t in types):
            types.append(h)
    return types


def _line_orbit_reps(action, ctx, d):
    """The first line, in `_all_lines` order, of each orbit of the action's group.

    The group is the one the action matrices generate, acting on the scalar
    lines of F^d.  A line is marked by the base-q code of its representative
    with first nonzero entry 1 (first coordinate most significant), so
    `_all_lines` order is ascending code order within each leading position.
    A line is yielded before its orbit is walked, and the orbit of a line
    still unmarked is disjoint from every orbit walked so far, so that line
    is the first of its orbit.
    """
    q = ctx.order
    images = _line_image_codes(action, ctx, d)
    seen = bytearray(q ** d)
    for lead in range(d):
        start = q ** (d - 1 - lead)
        code = seen.find(0, start, 2 * start)
        while code != -1:
            seen[code] = 1
            yield _decode(code, q, d)
            stack = [code]
            while stack:
                for c in images(stack.pop()):
                    if not seen[c]:
                        seen[c] = 1
                        stack.append(c)
            code = seen.find(0, code + 1, 2 * start)


def _decode(code, q, d):
    w = [0] * d
    for i in range(d - 1, -1, -1):
        code, w[i] = divmod(code, q)
    return w


def _line_image_codes(action, ctx, d):
    """A function from a line's code to the codes of its images, one per matrix.

    A line's image is the sum of the images of its first d // 2 coordinates
    and of the rest, tabled per matrix in `view` form for `FieldCtx.line_codes`
    (with d = 1 the high table holds just the zero row).
    """
    q = ctx.order

    def table(rows):
        if not rows:
            return [ctx.view(ctx.pack([ctx.zero()] * d))]
        times = combiner(rows, ctx)
        return [ctx.view(times(cs)) for cs in iproduct(range(q), repeat=len(rows))]

    tables = [(table(m[:d // 2]), table(m[d // 2:])) for m in action]
    return partial(ctx.line_codes, tables, q ** (d - d // 2), [q ** (d - 1 - i) for i in range(d)])


# -- homomorphism spaces ---------------------------------------------------------

def hom_space(ha, hb):
    """Dimension and basis of the space of module maps between two handles.

    The unknowns are X (da x db, row by row) with A X = X B for each action
    pair: entry (i, j) is row i of A on slots j::db minus column j of B on block i.
    The pairs mean something only when both handles come from one generator
    set, so different fields, `gens` or action counts are a ValueError.
    """
    if ha.ctx != hb.ctx or ha.gens != hb.gens or len(ha.action) != len(hb.action):
        raise ValueError(f"{ha.label!r} and {hb.label!r} are over different generator sets")
    ctx = ha.ctx
    da, db = ha.dim, hb.dim
    zero, one = ctx.zero(), ctx.one()
    rows = []
    for ga, gb in zip(ha.action, hb.action):
        cols = _transpose_rows(gb)
        for i in range(da):
            block = slice(i * db, (i + 1) * db)
            for j in range(db):
                row = [zero] * (da * db)
                row[j::db] = ga[i]
                row[block] = ctx.row_submul(row[block], cols[j], one)
                rows.append(row)
    basis = kernel_rows(rows, da * db, ctx)
    return len(basis), basis


# -- diagram verification ----------------------------------------------------------

def verify_lattice_diagrams(ctx, n, seed=0, gens=None, bases=None):
    """Check the submodule diagrams branch by branch for one (n, field).

    Covers the two diagrams over M** (split by char | n-1), the three over
    the full space (split by char | n+1 and char 2), and the three dual-space
    filtration factors, each by explicit subspace computation plus kernel-
    vector irreducibility verdicts.  The submodules come from `bases` (a
    `canon.Bases` over (ctx, n), fresh if None).
    """
    from . import canon
    from .structvec import tr_matrix_rows, tr_op_matrix_rows

    if ctx.kind != "finite" or ctx.order <= 2:
        raise ValueError("diagram verification assumes a finite field, |F| > 2")
    if gens is None:
        gens = standard_generators(ctx, n)
    claims = []
    dims = canon.expected_dims(n)

    bases = canon.bases_for(ctx, n, bases)
    C, K, Ms, Mss, T, TcT, N, U, Lam = (bases[name] for name in (
        "C", "K", "Mstar", "Mstarstar", "T", "TcapTtilde", "N", "U", "Lambda"))
    one = ctx.one()
    char2 = ctx.char == 2

    add = claims.append

    def factor(cid, anchor, carrier, sub, label, tag, want="irreducible", rest=None):
        """Build carrier/sub's handle, run the kernel-vector test, add the claim.

        `rest(handle, result)` gives the claim's extra data and its
        deterministic part.
        """
        h = module_handle(gens, carrier, sub=sub, label=label)
        res = norton_irreducible(h, derive_seed(seed, tag))
        extra, holds = rest(h, res) if rest else ({}, True)
        add(norton_claim(cid, anchor, res, want, {"verdict": res.verdict, **extra}, holds))

    # dual-space filtration factors via the explicit trace surjections
    tr_rows = tr_matrix_rows(ctx, n)
    add(claim("LambdaOverT", "tr maps the full space onto the dual with kernel T",
              Matrix.from_rows(ctx, tr_rows).rank() == n
              and Subspace(ctx, n ** 3, kernel_rows(tr_rows, n ** 3, ctx)) == T))
    for name, anchor, carrier, ker in (
            ("KOverU", "tr restricted to K is onto the dual with kernel U", K, U),
            ("COverN", "tr restricted to C is onto the dual with kernel N", C, N)):
        values = canon._trace_images(carrier, n)
        rank = Matrix.from_rows(ctx, values).rank() if values else 0
        restr_ker = canon._restricted_kernel(carrier, values, ctx)
        add(claim(name, anchor, rank == n and restr_ker == ker))

    v_handle = dual_space_handle(gens)

    # diagram over M**
    if (n - 1) % ctx.char == 0:
        UM = U | Ms
        add(claim("UmeetMstar.branch", "U ^ M* = M*_(1,-1) when char | n-1",
                  (U & Ms) == bases.piece(canon.ProjectivePoint(ctx, one, ctx.neg(one)))))
        add(claim("UplusMstar.dim", "dim(U + M*) = n^3/2 - n^2/2 when char | n-1",
                  UM.dim == (n ** 3 - n ** 2) // 2, {"dim": UM.dim}))
        add(claim("MssOverU.split", "K and U+M* are distinct complements over U inside M**",
                  (K & UM) == U and (K | UM) == Mss))
        factor("UplusMstarOverMstar.irr", "(U + M*)/M* is irreducible",
               UM, Ms, "(U+M*)/M*", "UM/M*")
        hU = module_handle(gens, U, label="U")
        dU, _ = hom_space(hU, v_handle)
        hQ = module_handle(gens, Mss, sub=Ms, label="M**/M*")
        dQ, _ = hom_space(hQ, v_handle)
        add(claim("MssOverMstar.notU",
                  "the dual is a top factor of M**/M* but not of U (hom-space dims)",
                  dU == 0 and dQ >= 1, {"hom(U,dual)": dU, "hom(M**/M*,dual)": dQ}))
    else:
        add(claim("MssSplit", "M** = U (+) M* when char does not divide n-1",
                  (U & Ms).dim == 0 and (U | Ms) == Mss))
        factor("U.irr", "U is irreducible when char does not divide n-1", U, None, "U", "U")
        factor("Mstar.red", "M* is reducible (a sum of two dual copies)", Ms, None, "M*", "M*",
               "reducible", lambda h, res: ({"witness_dim": len(res.witness_coords or [])}, True))

    # diagram over the full space
    if char2:
        NM = N | Mss
        add(claim("NmeetMss.char2", "N ^ M** = U in characteristic 2", (N & Mss) == U))
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
                   Lam, TM, "Lambda/(TT+M**)", "L/TTM", rest=lambda h, res: ({"dim": n}, True))
            factor("TTplusMssOverNplusMss.irr", "((T ^ T~) + M**)/(N + M**) is irreducible",
                   TM, NM, "(TT+M**)/(N+M**)", "TTM/NM")
        else:
            # for even n the traces satisfy tr + tr~ = omega on M**, so the
            # triple intersection collapses to U and the sum is everything;
            # the n^3 - n value would need char | n+1
            add(claim("TTmeetMss.even", "(T ^ T~) ^ M** = U (char 2, even n)",
                      (TcT & Mss) == U))
            add(claim("TTplusMss.even", "(T ^ T~) + M** is the whole space (char 2, even n)",
                      TM.dim == n ** 3, {"dim": TM.dim}))
        du = dims["U"]
        if n % 2 == 0:
            factor("LambdaOverNplusMss.even",
                   "the factor over N + M** is irreducible of dim U for even n",
                   Lam, NM, "Lambda/(N+M**)", "L/NM",
                   rest=lambda h, res: ({"dim": h.dim}, h.dim == du))
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
                   Lam, NM, "Lambda/(N+M**)", "L/NM", "reducible", length_two)
    elif (n + 1) % ctx.char == 0:
        NM = N | Mss
        M11 = bases.piece(canon.ProjectivePoint(ctx, one, one))
        add(claim("NmeetMss.divides", "N ^ M** = M*_(1,1) when char | n+1", (N & Mss) == M11))
        add(claim("NplusMss.dim", "dim(N + M**) = n^3 - n",
                  NM.dim == n ** 3 - n, {"dim": NM.dim}))
        psi_rows = [ctx.row_addmul(a, b, one) for a, b in
                    zip(tr_rows, tr_op_matrix_rows(ctx, n))]
        ker_psi = Subspace(ctx, n ** 3, kernel_rows(psi_rows, n ** 3, ctx))
        add(claim("kerPsi", "ker(tr + tr~) = N + M**, so the top factor is the dual",
                  Matrix.from_rows(ctx, psi_rows).rank() == n and ker_psi == NM))
        factor("NplusMssOverMss.irr", "(N + M**)/M** is irreducible",
               NM, Mss, "(N+M**)/M**", "NM/Mss")
        hN = module_handle(gens, N, label="N")
        dN, _ = hom_space(hN, v_handle)
        hQ = module_handle(gens, Lam, sub=Mss, label="Lambda/M**")
        dQ, _ = hom_space(hQ, v_handle)
        add(claim("LambdaOverMss.notN",
                  "the dual is a top factor of the quotient by M** but not of N",
                  dN == 0 and dQ >= 1, {"hom(N,dual)": dN, "hom(L/M**,dual)": dQ}))
    else:
        add(claim("LambdaSplit", "the full space is N (+) M** away from char | n+1",
                  (N & Mss).dim == 0 and (N | Mss) == Lam))
        factor("N.irr", "N is irreducible when char does not divide n+1", N, None, "N", "N")
        factor("LambdaOverMss.irr", "the quotient by M** is irreducible of the dimension of N",
               Lam, Mss, "Lambda/M**", "L/Mss",
               rest=lambda h, res: ({"dim": h.dim}, h.dim == dims["N"]))
    return claims
