"""Canonical G-submodules of the structure-vector space.

Each submodule is available two ways: as a coordinate-condition predicate and
as an explicit Subspace (from a basis table or a kernel computation).  The two
constructions are deliberately redundant; the test suite asserts they agree,
which catches index-convention mistakes that a single construction would hide.

Dictionary of submodules for an n-dimensional algebra space over F:

    C          commutative products            dim n^3/2 + n^2/2
    K          square-zero ("skew") products   dim n^3/2 - n^2/2
    M*         [u,v] in span(u,v)              dim 2n
    M**        [v,v] in span(v)                dim n^3/2 - n^2/2 + n
    T, T~      kernels of the trace pairs      codim n each
    U = K^T    unimodular skew                 dim (n^3-n^2)/2 - n
    N = C^T                                    dim n^3/2 + n^2/2 - n
"""

from .exactla import Subspace, combine, kernel_rows
from .report import claim
from .structvec import (
    DualVector, StructureVector, flat, unit, tr, tr_op,
    tr_matrix_rows, tr_op_matrix_rows, zero_structure_vector,
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

def predicate_C(lam):
    """[u,v] = [v,u]: lam_ijj = lam_jij and lam_ijk = lam_jik, distinct letters."""
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
    """[v,v] = 0: lam_iii = lam_iij = 0, lam_ijk + lam_jik = 0, lam_iji + lam_jii = 0."""
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
    """[u,v] in span(u,v), as the five coordinate-condition families."""
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
    """[v,v] in span(v): lam_ijk + lam_jik = 0, lam_iij = 0, lam_iji + lam_jii = lam_jjj."""
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


# -- explicit bases ----------------------------------------------------------

def _table_row(ctx, n, terms):
    row = [ctx.zero()] * n ** 3
    for coeff, i, j, k in terms:
        row[flat(n, i, j, k)] = ctx.add(row[flat(n, i, j, k)], ctx.from_int(coeff))
    return row


def basis_C(ctx, n):
    rows = []
    for i in range(1, n + 1):
        rows.append(_table_row(ctx, n, [(1, i, i, i)]))
    for i, j in _pairs(n):
        rows.append(_table_row(ctx, n, [(1, i, i, j)]))
        rows.append(_table_row(ctx, n, [(1, i, j, i), (1, j, i, i)]))
    for i, j, k in _triples(n):
        if i < j:
            rows.append(_table_row(ctx, n, [(1, i, j, k), (1, j, i, k)]))
    return Subspace(ctx, n ** 3, rows)


def basis_K(ctx, n):
    rows = []
    for i, j in _pairs(n):
        rows.append(_table_row(ctx, n, [(1, i, j, i), (-1, j, i, i)]))
    for i, j, k in _triples(n):
        if i < j:
            rows.append(_table_row(ctx, n, [(1, i, j, k), (-1, j, i, k)]))
    return Subspace(ctx, n ** 3, rows)


def basis_N(ctx, n):
    """The explicit table basis of N = C meet T."""
    rows = []
    for i, j, k in _triples(n):
        if i < j:
            rows.append(_table_row(ctx, n, [(1, i, j, k), (1, j, i, k)]))
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
    lifted = [combine(x, carrier.rows, ctx)
              for x in kernel_rows(imagesT, len(images), ctx)]
    return Subspace(ctx, carrier.ambient, lifted)


def _trace_images(carrier, n):
    """tr of each basis row of a carrier inside the structure-vector space."""
    return [tr(StructureVector(carrier.ctx, n, r)).coords for r in carrier.rows]


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
    for i, j, k in _triples(n):
        if i < j:
            rows.append(_table_row(ctx, n, [(1, i, j, k), (1, j, i, k)]))
    return Subspace(ctx, n ** 3, kernel_rows(rows, n ** 3, ctx))


# -- the 2n-dimensional submodule and its projective pieces ------------------

def epsilon(ctx, n, a):
    """sum_i (i a i), the structure vector of u,v -> v_a-coefficient scaling u."""
    coords = [ctx.zero()] * n ** 3
    for i in range(1, n + 1):
        coords[flat(n, i, a, i)] = ctx.one()
    return StructureVector(ctx, n, coords)


def epsilon_tilde(ctx, n, a):
    """sum_j (a j j)."""
    coords = [ctx.zero()] * n ** 3
    for j in range(1, n + 1):
        coords[flat(n, a, j, j)] = ctx.one()
    return StructureVector(ctx, n, coords)


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
    return DualVector(ctx, n, [lam.coords[flat(n, i, i, i)] for i in range(1, n + 1)])


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
    coords = [ctx.zero()] * n ** 3
    coords[flat(n, 1, 2, 3)] = ctx.one()
    coords[flat(n, 2, 1, 3)] = ctx.neg(ctx.one())
    return StructureVector(ctx, n, coords)


def delta(ctx, n):
    """112, the canonical generator of N."""
    return unit(ctx, n, 1, 1, 2)


def named_vector(name, ctx, n):
    if name == "eta":
        return eta(ctx, n)
    if name == "delta":
        return delta(ctx, n)
    if name.startswith("eps~") or name.startswith("epst"):
        return epsilon_tilde(ctx, n, int(name[4:]))
    if name.startswith("eps"):
        return epsilon(ctx, n, int(name[3:]))
    if name.startswith("unit") and len(name) == 7:
        a, b, c = (int(ch) for ch in name[4:])
        return unit(ctx, n, a, b, c)
    raise ValueError(f"unknown vector name {name!r}")


def submodule(name, ctx, n):
    """Canonical submodule by name; 'MstarP:a,d' selects a projective piece."""
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
        "U": lambda: basis_U(ctx, n),
        "0": lambda: Subspace.zero(ctx, n ** 3),
    }
    if name in builders:
        return builders[name]()
    point = parse_point(name, ctx)
    if point is not None:
        return basis_MstarP(ctx, n, point)
    raise ValueError(f"unknown submodule name {name!r}")


class Bases:
    """The canonical submodules of one (field, n), each built on first use.

    `bases[name]` accepts every name `submodule` does and returns the same
    Subspace; a later lookup returns the same object, and every spelling of
    a projective piece shares one.  The builds go through `submodule` and the
    `basis_*` functions of this module, looked up when called, and U is cut
    out of the shared K.  Nothing is kept beyond the object itself.
    """

    def __init__(self, ctx, n):
        self.ctx, self.n = ctx, n
        self._built = {}

    def __getitem__(self, name):
        sub = self._built.get(name)
        if sub is None:
            sub = self._built[name] = self._build(name)
        return sub

    def _build(self, name):
        if name == "U":
            return basis_U(self.ctx, self.n, self["K"])
        point = parse_point(name, self.ctx)
        if point is not None:
            return self.piece(point)
        return submodule(name, self.ctx, self.n)

    def piece(self, point):
        """The projective piece of M* at a ProjectivePoint."""
        sub = self._built.get(point)
        if sub is None:
            sub = self._built[point] = basis_MstarP(self.ctx, self.n, point)
        return sub


def bases_for(ctx, n, bases=None):
    """`bases` if given, else a fresh Bases; bases over another (field, n) are a ValueError."""
    if bases is None:
        return Bases(ctx, n)
    if bases.ctx != ctx or bases.n != n:
        raise ValueError(f"bases over {bases.ctx!r} with n = {bases.n} given for "
                         f"{ctx!r} with n = {n}")
    return bases


def parse_point(name, ctx):
    """Accepts 'MstarP:a,d', 'MstarP(a,d)' and 'Mstar(a,d)' spellings."""
    body = None
    for prefix in ("MstarP:", "MstarP(", "Mstar("):
        if name.startswith(prefix):
            body = name[len(prefix):].rstrip(")")
            break
    if body is None:
        return None
    a, d = (int(x) for x in body.split(","))
    return ProjectivePoint(ctx, ctx.from_int(a), ctx.from_int(d))


# -- intersection dictionary --------------------------------------------------

def _char_divides(ctx, m):
    return m % ctx.char == 0


def intersection_table(ctx, n, bases=None):
    """Evaluate every claimed intersection with M* / M** and report per claim.

    Claims are dicts {id, anchor, status, computed, expected}: `report.claim`
    sets the status, and the computed and expected subspaces (as JSON) or
    dimensions stand in place of data.  Branching follows the divisibility of
    n-1 and n+1 by the characteristic.  The submodules come from `bases`
    (a `Bases` over (ctx, n), fresh if None).
    """
    if ctx.kind != "finite" or ctx.order <= 2:
        raise ValueError("the intersection dictionary assumes a finite field, |F| > 2")
    char2 = ctx.char == 2
    one = ctx.one()
    mone = ctx.neg(one)
    nval = ctx.from_int(n)

    bases = bases_for(ctx, n, bases)
    C, K, Ms, Mss, T, Tt, TcT, N, U, zero_sub = (bases[name] for name in (
        "C", "K", "Mstar", "Mstarstar", "T", "Ttilde", "TcapTtilde", "N", "U", "0"))

    def mp(a, d):
        return bases.piece(ProjectivePoint(ctx, a, d))

    claims = []

    def check(cid, anchor, computed, expected, show=Subspace.to_json):
        entry = claim(cid, anchor, computed == expected)
        del entry["data"]
        entry.update(computed=show(computed), expected=show(expected))
        claims.append(entry)

    check("CmeetMstar", "C ^ M* = M*_(1,1)", C & Ms, mp(one, one))
    check("KmeetMstar", "K ^ M* = M*_(1,-1)", K & Ms, mp(one, mone))
    check("TmeetMstar", "T ^ M* = M*_(-n,1)", T & Ms, mp(ctx.neg(nval), one))
    check("TtildemeetMstar", "T~ ^ M* = M*_(1,-n)", Tt & Ms, mp(one, ctx.neg(nval)))

    if _char_divides(ctx, n - 1):
        check("UmeetMstar", "U ^ M* = M*_(1,-1) when char | n-1", U & Ms, mp(one, mone))
    else:
        check("UmeetMstar", "U ^ M* = 0 when char does not divide n-1", U & Ms, zero_sub)

    if _char_divides(ctx, n + 1):
        check("NmeetMstar", "N ^ M* = M*_(1,1) when char | n+1", N & Ms, mp(one, one))
    else:
        check("NmeetMstar", "N ^ M* = 0 when char does not divide n+1", N & Ms, zero_sub)

    if char2:
        check("CmeetMstarstar", "C ^ M** = K in characteristic 2 (|F| > 2)",
              C & Mss, K)
        check("NmeetMstarstar", "N ^ M** = U in characteristic 2", N & Mss, U)
        check("dimNplusMstarstar", "dim(N + M**) = n^3/2 + n^2/2 + n in characteristic 2",
              (N | Mss).dim, (n ** 3 + n ** 2) // 2 + n, show=int)
    else:
        check("CmeetMstarstar", "C ^ M** = C ^ M* = M*_(1,1) in odd characteristic",
              C & Mss, mp(one, one))
        if _char_divides(ctx, n + 1):
            check("NmeetMstarstar", "N ^ M** = M*_(1,1) when char | n+1",
                  N & Mss, mp(one, one))
        else:
            check("NmeetMstarstar", "N ^ M** = 0 when char does not divide n+1",
                  N & Mss, zero_sub)

    if _char_divides(ctx, n + 1):
        tm = TcT & Mss
        check("TcapTtildemeetMstarstar",
              "(T ^ T~) ^ M** = T ^ M** when char | n+1", tm, T & Mss)
        check("dimTcapTtildemeetMstarstar",
              "dim((T ^ T~) ^ M**) = n^3/2 - n^2/2 when char | n+1",
              tm.dim, (n ** 3 - n ** 2) // 2, show=int)
    return claims


def trace_kernel_witness(ctx, n):
    """The explicit vector in (T~ ^ M**) - T when char does not divide n+1."""
    coords = [ctx.zero()] * n ** 3
    coords[flat(n, 1, 1, 1)] = ctx.one()
    coords[flat(n, 2, 1, 2)] = ctx.neg(ctx.one())
    coords[flat(n, 1, 2, 2)] = ctx.from_int(2)
    for j in range(3, n + 1):
        coords[flat(n, 1, j, j)] = ctx.one()
    return StructureVector(ctx, n, coords)


def check_trace_biconditional(ctx, n, bases=None):
    """T ^ M** = T~ ^ M** holds exactly when char | n+1; both directions."""
    bases = bases_for(ctx, n, bases)
    T, Tt, Mss = bases["T"], bases["Ttilde"], bases["Mstarstar"]
    left, right = T & Mss, Tt & Mss
    if _char_divides(ctx, n + 1):
        ok = left == right
        data = {"branch": "char divides n+1", "equal": left == right}
    else:
        w = trace_kernel_witness(ctx, n)
        ok = (predicate_Mstarstar(w) and tr_op(w).is_zero() and not tr(w).is_zero()
              and left != right)
        data = {"branch": "char does not divide n+1",
                "witness_in_Ttilde_meet_Mstarstar": predicate_Mstarstar(w) and tr_op(w).is_zero(),
                "witness_outside_T": not tr(w).is_zero(),
                "equal": left == right}
    return claim("TmeetMstarstarBiconditional", "T ^ M** = T~ ^ M** iff char | n+1", ok, data)
