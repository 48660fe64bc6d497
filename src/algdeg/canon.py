"""Canonical G-submodules of the structure-vector space.

Each submodule is available two ways: as a coordinate-condition predicate and
as an explicit Subspace (from a basis table or a kernel computation).  The two
constructions are deliberately redundant; the test suite asserts they agree,
which catches index-convention mistakes that a single construction would hide.

Dictionary of submodules for an n-dimensional algebra space over F:

    C          commutative products            dim n^3/2 + n^2/2
    K          square-zero ("skew") products   dim n^3/2 - n^2/2
    M*         [u,v] in span(u,v)              dim 2n
    M*_P       projective piece at P = (a, d)  dim n, a copy of V*
               (M*_(1,0), spanned by the epsilon_k, is the dual's handle)
    M**        [v,v] in span(v)                dim n^3/2 - n^2/2 + n
    T, T~      kernels of the trace pairs      codim n each
    U = K^T    unimodular skew                 dim (n^3-n^2)/2 - n
    N = C^T                                    dim n^3/2 + n^2/2 - n
"""

from functools import lru_cache

from .exactla import Subspace, combiner, kernel_rows
from .report import claim
from .structvec import (
    DualVector, StructureVector, _trace_coords, flat, unit, tr, tr_op,
    tr_matrix_rows, tr_op_matrix_rows,
)


def _pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def _triples(n):
    return [(i, j, k) for i in range(1, n + 1) for j in range(1, n + 1)
            for k in range(1, n + 1) if i != j and j != k and i != k]


# -- dimension formulas ------------------------------------------------------

def expected_dims(n):
    """Closed-form dimensions; n^3 +/- n^2 is always even so // is exact."""
    return {
        "Lambda": n ** 3,
        "C": (n ** 3 + n ** 2) // 2,
        "K": (n ** 3 - n ** 2) // 2,
        "Mstar": 2 * n,
        "Mstarstar": (n ** 3 - n ** 2) // 2 + n,
        "T": n ** 3 - n,
        "Ttilde": n ** 3 - n,
        "TcapTtilde": n ** 3 - 2 * n,
        "N": (n ** 3 + n ** 2) // 2 - n,
        "U": (n ** 3 - n ** 2) // 2 - n,
        "MstarP": n,
    }


# -- predicates (defining coordinate conditions) -----------------------------
#
# Each predicate checks its condition families in the order of the loops
# over `_pairs` and `_triples` the conditions are stated with, and stops at
# the first failure.  The flat indices come from `_cells(n)`, one table per
# n built with `flat` from those same loops, so a check reads its
# coordinates without computing or bound-checking an index.

@lru_cache(maxsize=64)
def _cells(n):
    """Flat indices of the coordinate cells the predicates, `omega` and
    `gamma2.sigma` read, keyed (family, pattern).

    The family names the loop: "i" over 1..n, "ij" over the index pairs of
    `_pairs(n)`, "ijk" over the triples of `_triples(n)`, and "kj" over
    every (k, j) with k outer.  The pattern spells the cell in those
    letters, so ("ij", "jij") holds flat(n, j, i, j) for each pair in loop
    order.
    """
    families = {"i": [(i,) for i in range(1, n + 1)], "ij": _pairs(n), "ijk": _triples(n),
                "kj": [(k, j) for k in range(1, n + 1) for j in range(1, n + 1)]}
    patterns = {"i": ("iii",), "ij": ("iii", "iij", "ijj", "jij", "iji", "jii", "jjj"),
                "ijk": ("ijk", "jik", "ijj", "ikk", "jij", "kik"), "kj": ("jjk",)}
    return {(f, p): tuple(flat(n, *(dict(zip(f, t))[c] for c in p)) for t in families[f])
            for f in families for p in patterns[f]}


def predicate_C(lam):
    """[u,v] = [v,u]: lam_ijj = lam_jij and lam_ijk = lam_jik, distinct letters."""
    c, t = lam.coords, _cells(lam.n)
    for a, b in zip(t["ij", "ijj"], t["ij", "jij"]):
        if c[a] != c[b]:
            return False
    for a, b in zip(t["ijk", "ijk"], t["ijk", "jik"]):
        if c[a] != c[b]:
            return False
    return True


def predicate_K(lam):
    """[v,v] = 0: lam_iii = lam_iij = 0, lam_ijk + lam_jik = 0, lam_iji + lam_jii = 0."""
    ctx, c, t = lam.ctx, lam.coords, _cells(lam.n)
    zero, add = ctx.zero(), ctx.add
    for a in t["i", "iii"]:
        if c[a] != zero:
            return False
    for a, b, e in zip(t["ij", "iij"], t["ij", "iji"], t["ij", "jii"]):
        if c[a] != zero:
            return False
        if add(c[b], c[e]) != zero:
            return False
    for a, b in zip(t["ijk", "ijk"], t["ijk", "jik"]):
        if add(c[a], c[b]) != zero:
            return False
    return True


def predicate_Mstar(lam):
    """[u,v] in span(u,v), as the five coordinate-condition families."""
    ctx, c, t = lam.ctx, lam.coords, _cells(lam.n)
    zero = ctx.zero()
    for a in t["ij", "iij"]:
        if c[a] != zero:
            return False
    for a, ij, ik, ji, ki in zip(t["ijk", "ijk"], t["ijk", "ijj"], t["ijk", "ikk"],
                                 t["ijk", "jij"], t["ijk", "kik"]):
        if c[a] != zero:
            return False
        if c[ij] != c[ik]:
            return False
        if c[ji] != c[ki]:
            return False
    for a, ij, ji in zip(t["ij", "iii"], t["ij", "ijj"], t["ij", "jij"]):
        if c[a] != ctx.add(c[ij], c[ji]):
            return False
    return True


def predicate_Mstarstar(lam):
    """[v,v] in span(v): lam_ijk + lam_jik = 0, lam_iij = 0, lam_iji + lam_jii = lam_jjj."""
    ctx, c, t = lam.ctx, lam.coords, _cells(lam.n)
    zero, add = ctx.zero(), ctx.add
    for a, b, e, f in zip(t["ij", "iij"], t["ij", "iji"], t["ij", "jii"], t["ij", "jjj"]):
        if c[a] != zero:
            return False
        if add(c[b], c[e]) != c[f]:
            return False
    for a, b in zip(t["ijk", "ijk"], t["ijk", "jik"]):
        if add(c[a], c[b]) != zero:
            return False
    return True


# -- explicit bases ----------------------------------------------------------

def _table_row(ctx, n, terms):
    """The raw row of sum coeff * (i j k) over (coeff, i, j, k) terms with int coeffs."""
    row = [ctx.zero()] * n ** 3
    for coeff, i, j, k in terms:
        row[flat(n, i, j, k)] = ctx.add(row[flat(n, i, j, k)], ctx.from_int(coeff))
    return row


def _swap_rows(ctx, n, sign):
    """The rows ijk + sign * jik over the triples of distinct letters with i < j."""
    return [_table_row(ctx, n, [(1, i, j, k), (sign, j, i, k)]) for i, j, k in _triples(n) if i < j]


def basis_C(ctx, n):
    rows = []
    for i in range(1, n + 1):
        rows.append(_table_row(ctx, n, [(1, i, i, i)]))
    for i, j in _pairs(n):
        rows.append(_table_row(ctx, n, [(1, i, i, j)]))
        rows.append(_table_row(ctx, n, [(1, i, j, i), (1, j, i, i)]))
    return Subspace(ctx, n ** 3, rows + _swap_rows(ctx, n, 1))


def basis_K(ctx, n):
    rows = []
    for i, j in _pairs(n):
        rows.append(_table_row(ctx, n, [(1, i, j, i), (-1, j, i, i)]))
    return Subspace(ctx, n ** 3, rows + _swap_rows(ctx, n, -1))


def basis_N(ctx, n):
    """The explicit table basis of N = C meet T."""
    rows = _swap_rows(ctx, n, 1)
    for i, j in _pairs(n):
        rows.append(_table_row(ctx, n, [(1, i, i, j)]))
        rows.append(_table_row(ctx, n, [(1, i, j, j), (1, j, i, j), (-1, i, i, i)]))
    return Subspace(ctx, n ** 3, rows)


def basis_T(ctx, n):
    return Subspace(ctx, n ** 3, kernel_rows(tr_matrix_rows(ctx, n), n ** 3, ctx))


def basis_Ttilde(ctx, n):
    return Subspace(ctx, n ** 3, kernel_rows(tr_op_matrix_rows(ctx, n), n ** 3, ctx))


def basis_TcapTtilde(ctx, n):
    rows = tr_matrix_rows(ctx, n) + tr_op_matrix_rows(ctx, n)
    return Subspace(ctx, n ** 3, kernel_rows(rows, n ** 3, ctx))


def _restricted_kernel(carrier, images, ctx):
    """Kernel of a linear map restricted to a subspace, lifted back to ambient.

    images[i] is the image of carrier.rows[i] under the map.
    """
    # row kernel {x : x * images = 0} = right kernel of images^T
    imagesT = [list(col) for col in zip(*images)]
    lifted = map(combiner(carrier._ech.rows, ctx), kernel_rows(imagesT, len(images), ctx))
    return Subspace(ctx, carrier.ambient, lifted)


def _trace_images(carrier, n):
    """tr of each basis row of a carrier inside the structure-vector space, as
    lists: `tr`'s stride loop (`_trace_coords`) on each raw row, building no
    per-row vector.  The strides are apart from the flat indices of
    `tr_matrix_rows`, so `LambdaOverT` still compares two constructions of tr.
    """
    return [_trace_coords(r, n, carrier.ctx) for r in carrier._ech.rows]


def basis_U(ctx, n, K=None):
    """U = K meet T, computed as the kernel of tr restricted to K (built unless given)."""
    if K is None:
        K = basis_K(ctx, n)
    return _restricted_kernel(K, _trace_images(K, n), ctx)


def basis_Mstarstar(ctx, n):
    """Kernel of the defining condition functionals."""
    rows = []
    for i, j in _pairs(n):
        rows.append(_table_row(ctx, n, [(1, i, i, j)]))
        rows.append(_table_row(ctx, n, [(1, i, j, i), (1, j, i, i), (-1, j, j, j)]))
    return Subspace(ctx, n ** 3, kernel_rows(rows + _swap_rows(ctx, n, 1), n ** 3, ctx))


# -- the 2n-dimensional submodule and its projective pieces ------------------

def epsilon(ctx, n, a):
    """sum_i (i a i), the structure vector of u,v -> v_a-coefficient scaling u."""
    return StructureVector(ctx, n, _table_row(ctx, n, [(1, i, a, i) for i in range(1, n + 1)]))


def epsilon_tilde(ctx, n, a):
    """sum_j (a j j)."""
    return StructureVector(ctx, n, _table_row(ctx, n, [(1, a, j, j) for j in range(1, n + 1)]))


def basis_Mstar(ctx, n):
    rows = [epsilon(ctx, n, a).coords for a in range(1, n + 1)]
    rows += [epsilon_tilde(ctx, n, a).coords for a in range(1, n + 1)]
    return Subspace(ctx, n ** 3, rows)


class ProjectivePoint:
    """A point of the projective line: nonzero pair with first nonzero entry 1."""

    __slots__ = ("ctx", "pair")

    def __init__(self, ctx, a, d):
        a, d = ctx._coerce(a), ctx._coerce(d)
        zero = ctx.zero()
        if a == zero and d == zero:
            raise ValueError("projective point needs a nonzero pair")
        if a != zero:
            inv = ctx.inv(a)
            a, d = ctx.one(), ctx.mul(inv, d)
        else:
            d = ctx.one()
        self.ctx = ctx
        self.pair = (a, d)

    @staticmethod
    def enumerate(ctx):
        """Canonical order: (1, x) for each x in repr order, then (0, 1)."""
        pts = [ProjectivePoint(ctx, 1, x) for x in ctx.raw_elements()]
        pts.append(ProjectivePoint(ctx, 0, 1))
        return pts

    def __eq__(self, other):
        return (isinstance(other, ProjectivePoint) and self.ctx == other.ctx
                and self.pair == other.pair)

    def __hash__(self):
        return hash((self.ctx, self.pair))

    def __repr__(self):
        return f"P({self.pair[0]},{self.pair[1]})"


def basis_MstarP(ctx, n, point):
    """The line of covector pairs proportional to `point`, inside M*."""
    if not isinstance(point, ProjectivePoint):
        point = ProjectivePoint(ctx, *point)
    pa, pd = point.pair
    rows = []
    for i in range(1, n + 1):
        v = epsilon(ctx, n, i).scale(pa) + epsilon_tilde(ctx, n, i).scale(pd)
        rows.append(v.coords)
    return Subspace(ctx, n ** 3, rows)


# -- the square factor functional --------------------------------------------

def omega(lam):
    """The functional with [v,v] = omega(v) v; i-th coordinate lam_iii."""
    ctx, n = lam.ctx, lam.n
    if ctx.kind == "finite" and ctx.order <= 2:
        raise ValueError("square factor needs |F| > 2")
    if not predicate_Mstarstar(lam):
        raise ValueError("square factor only defined on the [v,v]-in-span(v) submodule")
    return DualVector(ctx, n, [lam.coords[f] for f in _cells(n)["i", "iii"]])


def omega_preimage(mu):
    """A canonical preimage of mu under omega: lam_iii = mu_i, lam_iji = mu_j."""
    ctx, n = mu.ctx, mu.n
    if ctx.kind == "finite" and ctx.order <= 2:
        raise ValueError("preimage construction needs |F| > 2")
    coords = [ctx.zero()] * n ** 3
    for i in range(1, n + 1):
        coords[flat(n, i, i, i)] = mu.coords[i - 1]
        for j in range(1, n + 1):
            if j != i:
                coords[flat(n, i, j, i)] = mu.coords[j - 1]
    return StructureVector(ctx, n, coords)


# -- named vectors -----------------------------------------------------------

def eta(ctx, n):
    """123 - 213, the canonical generator of U."""
    return StructureVector(ctx, n, _table_row(ctx, n, [(1, 1, 2, 3), (-1, 2, 1, 3)]))


def delta(ctx, n):
    """112, the canonical generator of N."""
    return unit(ctx, n, 1, 1, 2)


def named_vector(name, ctx, n):
    if name == "eta":
        return eta(ctx, n)
    if name == "delta":
        return delta(ctx, n)
    # an index is decimal digits, so 'eps', 'epst' and 'unit1a2' are unknown names
    for prefix, build in (("eps~", epsilon_tilde), ("epst", epsilon_tilde), ("eps", epsilon)):
        if name.startswith(prefix) and name[len(prefix):].isdecimal():
            return build(ctx, n, int(name[len(prefix):]))
    if name.startswith("unit") and len(name) == 7 and name[4:].isdecimal():
        return unit(ctx, n, *map(int, name[4:]))
    raise ValueError(f"unknown vector name {name!r}")


def submodule(name, ctx, n):
    """Canonical submodule by name; 'MstarP:a,d' selects a projective piece."""
    return Bases(ctx, n)[name]


class Bases:
    """The canonical submodules of one (field, n), each built on first use.

    `bases[name]` accepts every name `submodule` does, and `bases[point]` the
    projective piece of M* at a ProjectivePoint; a later lookup returns the
    same object, and every spelling of a piece shares one.  The builds go
    through the `basis_*` functions of this module, looked up when called,
    and U is cut out of the shared K.  `meet(a, b)` intersects two of them
    once, for every check of the cell that needs that intersection.  Nothing
    is kept beyond the object itself.
    """

    def __init__(self, ctx, n):
        self.ctx, self.n = ctx, n
        self._built = {}
        self._meets = {}

    def __getitem__(self, name):
        sub = self._built.get(name)
        if sub is None:
            sub = self._built[name] = self._build(name)
        return sub

    def _build(self, name):
        ctx, n = self.ctx, self.n
        if isinstance(name, ProjectivePoint):
            return basis_MstarP(ctx, n, name)
        builders = {
            "Lambda": lambda: Subspace.full(ctx, n ** 3),
            "C": lambda: basis_C(ctx, n),
            "K": lambda: basis_K(ctx, n),
            "Mstar": lambda: basis_Mstar(ctx, n),
            "Mstarstar": lambda: basis_Mstarstar(ctx, n),
            "T": lambda: basis_T(ctx, n),
            "Ttilde": lambda: basis_Ttilde(ctx, n),
            "TcapTtilde": lambda: basis_TcapTtilde(ctx, n),
            "N": lambda: basis_N(ctx, n),
            "U": lambda: basis_U(ctx, n, self["K"]),
            "0": lambda: Subspace.zero(ctx, n ** 3),
        }
        if name in builders:
            return builders[name]()
        point = parse_point(name, ctx)
        if point is not None:
            return self[point]
        raise ValueError(f"unknown submodule name {name!r}")

    def meet(self, a, b):
        """bases[a] & bases[b], computed on the first request for either order of a, b."""
        key = (a, b) if a <= b else (b, a)
        sub = self._meets.get(key)
        if sub is None:
            sub = self._meets[key] = self[a] & self[b]
        return sub


def parse_point(name, ctx):
    """Accepts 'MstarP:a,d', 'MstarP(a,d)' and 'Mstar(a,d)' spellings.

    A parenthesised spelling ends in exactly one ')', and 'MstarP:' takes none.
    """
    for prefix, close in (("MstarP:", ""), ("MstarP(", ")"), ("Mstar(", ")")):
        if name.startswith(prefix):
            break
    else:
        return None
    try:
        if not name.endswith(close):
            raise ValueError
        a, d = (int(x) for x in name[len(prefix):len(name) - len(close)].split(","))
    except ValueError:
        raise ValueError(f"bad projective point {name!r}: expected two integers a,d") from None
    return ProjectivePoint(ctx, ctx.from_int(a), ctx.from_int(d))


# -- intersection dictionary --------------------------------------------------

def _char_divides(ctx, m):
    return m % ctx.char == 0


def intersection_table(bases):
    """Evaluate every claimed intersection with M* / M** and report per claim.

    Claims are dicts {id, anchor, status, computed}: `report.claim` sets the
    status, and the computed subspace (as JSON) or dimension stands in place
    of data.  A falsified claim also carries `expected`; a verified one states
    that the two are equal.  Branching follows the divisibility of n-1 and
    n+1 by the characteristic.  The field, n and the submodules come from
    `bases`.
    """
    ctx, n = bases.ctx, bases.n
    if ctx.kind != "finite" or ctx.order <= 2:
        raise ValueError("the intersection dictionary assumes a finite field, |F| > 2")
    char2 = ctx.char == 2
    one = ctx.one()
    mone = ctx.neg(one)
    nval = ctx.from_int(n)

    K, Mss, N, U, zero_sub = (bases[name] for name in ("K", "Mstarstar", "N", "U", "0"))
    meet = bases.meet

    def mp(a, d):
        return bases[ProjectivePoint(ctx, a, d)]

    claims = []

    def check(cid, anchor, computed, expected, show=Subspace.to_json):
        entry = claim(cid, anchor, computed == expected)
        del entry["data"]
        entry["computed"] = show(computed)
        if entry["status"] == "falsified":
            entry["expected"] = show(expected)
        claims.append(entry)

    check("CmeetMstar", "C ^ M* = M*_(1,1)", meet("C", "Mstar"), mp(one, one))
    check("KmeetMstar", "K ^ M* = M*_(1,-1)", meet("K", "Mstar"), mp(one, mone))
    check("TmeetMstar", "T ^ M* = M*_(-n,1)", meet("T", "Mstar"), mp(ctx.neg(nval), one))
    check("TtildemeetMstar", "T~ ^ M* = M*_(1,-n)", meet("Ttilde", "Mstar"),
          mp(one, ctx.neg(nval)))

    if _char_divides(ctx, n - 1):
        check("UmeetMstar", "U ^ M* = M*_(1,-1) when char | n-1", meet("U", "Mstar"),
              mp(one, mone))
    else:
        check("UmeetMstar", "U ^ M* = 0 when char does not divide n-1", meet("U", "Mstar"),
              zero_sub)

    if _char_divides(ctx, n + 1):
        check("NmeetMstar", "N ^ M* = M*_(1,1) when char | n+1", meet("N", "Mstar"),
              mp(one, one))
    else:
        check("NmeetMstar", "N ^ M* = 0 when char does not divide n+1", meet("N", "Mstar"),
              zero_sub)

    if char2:
        check("CmeetMstarstar", "C ^ M** = K in characteristic 2 (|F| > 2)",
              meet("C", "Mstarstar"), K)
        check("NmeetMstarstar", "N ^ M** = U in characteristic 2",
              meet("N", "Mstarstar"), U)
        check("dimNplusMstarstar", "dim(N + M**) = n^3/2 + n^2/2 + n in characteristic 2",
              (N | Mss).dim, (n ** 3 + n ** 2) // 2 + n, show=int)
    else:
        check("CmeetMstarstar", "C ^ M** = C ^ M* = M*_(1,1) in odd characteristic",
              meet("C", "Mstarstar"), mp(one, one))
        if _char_divides(ctx, n + 1):
            check("NmeetMstarstar", "N ^ M** = M*_(1,1) when char | n+1",
                  meet("N", "Mstarstar"), mp(one, one))
        else:
            check("NmeetMstarstar", "N ^ M** = 0 when char does not divide n+1",
                  meet("N", "Mstarstar"), zero_sub)

    if _char_divides(ctx, n + 1):
        tm = meet("TcapTtilde", "Mstarstar")
        check("TcapTtildemeetMstarstar",
              "(T ^ T~) ^ M** = T ^ M** when char | n+1", tm, meet("T", "Mstarstar"))
        check("dimTcapTtildemeetMstarstar",
              "dim((T ^ T~) ^ M**) = n^3/2 - n^2/2 when char | n+1",
              tm.dim, (n ** 3 - n ** 2) // 2, show=int)
    return claims


def trace_kernel_witness(ctx, n):
    """The explicit vector in (T~ ^ M**) - T when char does not divide n+1."""
    terms = [(1, 1, 1, 1), (-1, 2, 1, 2), (2, 1, 2, 2)] + [(1, 1, j, j) for j in range(3, n + 1)]
    return StructureVector(ctx, n, _table_row(ctx, n, terms))


def check_trace_biconditional(bases):
    """T ^ M** = T~ ^ M** exactly when char | n+1 (both directions), at bases' field and n."""
    ctx, n = bases.ctx, bases.n
    left, right = bases.meet("T", "Mstarstar"), bases.meet("Ttilde", "Mstarstar")
    if _char_divides(ctx, n + 1):
        ok = left == right
        data = {"branch": "char divides n+1", "equal": left == right}
    else:
        w = trace_kernel_witness(ctx, n)
        in_meet = predicate_Mstarstar(w) and tr_op(w).is_zero()
        outside_t = not tr(w).is_zero()
        equal = left == right
        ok = in_meet and outside_t and not equal
        data = {"branch": "char does not divide n+1",
                "witness_in_Ttilde_meet_Mstarstar": in_meet,
                "witness_outside_T": outside_t, "equal": equal}
    return claim("TmeetMstarstarBiconditional", "T ^ M** = T~ ^ M** iff char | n+1", ok, data)
