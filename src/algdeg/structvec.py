"""The space of structure vectors F^(n^3), its right group action, and traces.

A structure vector lam encodes an algebra product on F^n through the basis
products [v_i, v_j] = sum_k lam_ijk v_k.  Coordinates are stored flat,
row-major in (i, j, k); the API is 1-based like the classical index notation,
storage is 0-based.  The right action of g rewrites the products in the basis
g v_1, ..., g v_n:

    (lam g)_ijk = sum_{a,b,c} g_ai g_bj (g^-1)_kc lam_abc

computed as three mode contractions (O(n^4) each), with fast paths for
tagged group elements.  A permutation sigma (g v_j = v_sigma(j)) only
relabels coordinates, (lam g)_ijk = lam_{sigma i, sigma j, sigma k}, which is
one cached `itemgetter` gather.  Where `FieldCtx.packed` holds, a
transvection x_rs(t) is three whole-row steps on the row's int view (block s
+= t*block r, run s += t*run r in every block, column r -= t*column s), each
one cached mask and one shift (`FieldCtx.row_shift_add`), and a diagonal is
one cached mask per distinct scalar d_i d_j d_k^-1 (`FieldCtx.row_slot_scale`).
A rank-one transvection I + c z (x) zeta with zeta(z) = 0 (the transvection
pipeline's elements) changes each tensor index by a rank-one update, slice
s += u_s * sum_a w_a slice_a; where `FieldCtx.packed` holds that is two
`FieldCtx.row_combine` calls per index on the int view, through one cached
mask and n shifts, and over the list fields it takes the general path.
The general path, and transvections and diagonals over the list fields,
are slice updates through the field's row kernels (`row_submul`,
`row_scale`, `combiner`): on a `bytearray` where `FieldCtx.packed` holds,
on a list otherwise.  Over packed fields
`act_coords` returns `bytes`; `StructureVector.coords` is always a list.
"""

from functools import lru_cache
from operator import itemgetter

from .exactla import combiner
from .gfield import FieldCtx


def flat(n, i, j, k):
    """Flat storage index of the 1-based coordinate triple (i, j, k)."""
    if not (0 < i <= n and 0 < j <= n and 0 < k <= n):
        raise ValueError(f"index ({i}, {j}, {k}) outside 1..{n}")
    return (i - 1) * n * n + (j - 1) * n + (k - 1)


def unflat(n, f):
    k = f % n
    j = (f // n) % n
    i = f // (n * n)
    return (i + 1, j + 1, k + 1)


@lru_cache(maxsize=64)
def torus_weights(n):
    """The torus weight e_i + e_j - e_k of every coordinate (i, j, k), in storage order.

    diag(t_1, ..., t_n) scales coordinate (i, j, k) by t_i t_j t_k^-1, the
    character with this exponent vector.
    """
    return tuple(tuple(int(r == i) + int(r == j) - int(r == k) for r in range(n))
                 for i in range(n) for j in range(n) for k in range(n))


@lru_cache(maxsize=64)
def weight_classes(ctx, n):
    """The torus weight class of every coordinate (i, j, k), in storage order:
    the one grading table of every graded module handle.

    Over GF(q) two characters agree exactly when their exponent vectors
    agree mod q - 1, so the class is the weight (`torus_weights`) mod q - 1
    (one class over GF(2)); over Q it is the weight itself.
    """
    ws = torus_weights(n)
    if ctx.kind != "finite":
        return ws
    m = ctx.order - 1
    return tuple(tuple(x % m for x in w) for w in ws)


def _check_space(x, cls, ctx, n):
    """Refuse x unless it is a `cls` of size n over ctx."""
    if type(x) is not cls or x.ctx != ctx or x.n != n:
        raise ValueError("operands live in different spaces")


class _Coords:
    """Shared plumbing for coordinate-tuple wrappers, of length n by default."""

    __slots__ = ("ctx", "n", "coords")

    def __init__(self, ctx, n, coords):
        self.ctx = ctx
        self.n = n
        coords = list(coords)
        # over a finite field a list of plain ints in 0..q-1 already is raw
        # codes; anything else (bools, other ints, Q) is coerced
        if not (ctx.kind == "finite" and coords and set(map(type, coords)) == {int}
                and min(coords) >= 0 and max(coords) < ctx.order):
            coords = [ctx._coerce(x) for x in coords]
        self.coords = coords
        if len(self.coords) != self._expected_len():
            raise ValueError("coordinate list has the wrong length")

    def _expected_len(self):
        return self.n

    def __repr__(self):
        return f"{type(self).__name__}({self.coords})"

    def _like(self, coords):
        """A new vector of this type; kernel rows (possibly `bytes`) become a list."""
        out = object.__new__(type(self))
        out.ctx = self.ctx
        out.n = self.n
        out.coords = coords if type(coords) is list else list(coords)
        return out

    def __add__(self, other):
        _check_space(other, type(self), self.ctx, self.n)
        return self._like(self.ctx.row_addmul(self.coords, other.coords, self.ctx.one()))

    def __sub__(self, other):
        _check_space(other, type(self), self.ctx, self.n)
        return self._like(self.ctx.row_submul(self.coords, other.coords, self.ctx.one()))

    def __neg__(self):
        return self.scale(self.ctx.neg(self.ctx.one()))

    def scale(self, c):
        c = self.ctx._coerce(c)
        return self._like(self.ctx.row_scale(self.coords, c))

    def __rmul__(self, c):
        return self.scale(c)

    def is_zero(self):
        zero = self.ctx.zero()
        return all(x == zero for x in self.coords)

    def __eq__(self, other):
        return (type(other) is type(self) and self.ctx == other.ctx
                and self.n == other.n and self.coords == other.coords)

    def __hash__(self):
        return hash((type(self).__name__, self.ctx, self.n, tuple(self.coords)))


class StructureVector(_Coords):
    """Element of F^(n^3); requires n >= 3."""

    def __init__(self, ctx, n, coords):
        if n < 3:
            raise ValueError("structure vectors need n >= 3")
        super().__init__(ctx, n, coords)

    def _expected_len(self):
        return self.n ** 3

    def __getitem__(self, ijk):
        i, j, k = ijk
        return self.coords[flat(self.n, i, j, k)]

    def __repr__(self):
        terms = []
        for f, c in enumerate(self.coords):
            if c != self.ctx.zero():
                i, j, k = unflat(self.n, f)
                terms.append(f"{c}*{i}{j}{k}")
        return "SV(" + (" + ".join(terms) if terms else "0") + ")"

    def to_json(self):
        ctx = self.ctx
        return {"n": self.n, "field": ctx.to_json(),
                "coords": [ctx.raw_to_json(x) for x in self.coords]}

    @staticmethod
    def from_json(d):
        if (not isinstance(d, dict) or type(d.get("n")) is not int
                or not isinstance(d.get("coords"), list)):
            raise ValueError("a structure vector is an object with an integer n, "
                             "a field and a coords list")
        ctx = FieldCtx.from_json(d.get("field"))
        return StructureVector(ctx, d["n"], [ctx.raw_from_json(x) for x in d["coords"]])


class Vector(_Coords):
    """Coordinate vector of an element of V over the standard basis."""


class DualVector(_Coords):
    """Coefficients of a linear functional over the dual basis."""

    def __call__(self, v):
        """The raw scalar this functional takes at the Vector v."""
        ctx = self.ctx
        _check_space(v, Vector, ctx, self.n)
        acc = ctx.zero()
        for c, x in zip(self.coords, v.coords):
            acc = ctx.add(acc, ctx.mul(c, x))
        return acc


def unit(ctx, n, a, b, c):
    """The standard basis vector 'abc': coordinate 1 at (a, b, c)."""
    coords = [ctx.zero()] * n ** 3
    coords[flat(n, a, b, c)] = ctx.one()
    return StructureVector(ctx, n, coords)


def _check_index(n, i):
    if not 0 < i <= n:
        raise ValueError(f"index {i} outside 1..{n}")


def basis_vector(ctx, n, i):
    _check_index(n, i)
    coords = [ctx.zero()] * n
    coords[i - 1] = ctx.one()
    return Vector(ctx, n, coords)


# -- the right action -----------------------------------------------------

def act_coords(coords, g, n, ctx):
    """Raw-coordinate action; dispatches on the group element's tag when present.

    Permutations, transvections and diagonals have a fast path over every
    field, rank-one elements over packed fields only; every other element,
    and a rank-one element over a list field, takes `_act_general` with its
    matrix and cached inverse.
    """
    tag = g.tag
    if tag is not None:
        if tag[0] == "permutation":
            return ctx.pack(_gather(n, tag[1])(coords))
        if tag[0] == "transvection":
            return _act_transvection(coords, n, ctx, tag[1], tag[2], tag[3])
        if tag[0] == "diagonal":
            return _act_diagonal(coords, n, ctx, tag[1])
        if tag[0] == "rank-one" and ctx.packed:
            return _act_rank_one(coords, n, ctx, tag[1], tag[2], tag[3])
    return _act_general(coords, g.mat, g.inv, n, ctx)


@lru_cache(maxsize=256)
def _gather(n, images):
    """The getter of out[i, j, k] = in[sigma i, sigma j, sigma k] over flat indices."""
    s = [im - 1 for im in images]
    nn = n * n
    return itemgetter(*[a * nn + b * n + c for a in s for b in s for c in s])


def _work(coords, ctx):
    """A mutable copy of a row: a `bytearray` over packed fields, else a list."""
    return bytearray(coords) if ctx.packed else list(coords)


def _swap_ij(coords, n, ctx):
    """The coordinates with the first two indices exchanged: (i, j, k) -> (j, i, k)."""
    out = _work(coords, ctx)
    nn = n * n
    for i in range(n):
        for j in range(n):
            a, b = i * nn + j * n, j * nn + i * n
            out[a:a + n] = coords[b:b + n]
    return out


def _act_general(coords, gmat, ginv, n, ctx):
    # index i: block i = sum_a g_ai * block a, over the n blocks of n^2; index
    # j: the same between two exchanges of i and j; index k: column k =
    # sum_c (g^-1)_kc * column c, over the stride-n columns
    gm, gi = gmat.entries, ginv.entries
    nn = n * n

    def contract_first(src):
        out = _work(src, ctx)
        times = combiner([src[a:a + nn] for a in range(0, n * nn, nn)], ctx)
        for i in range(n):
            out[i * nn:i * nn + nn] = times(gm[i::n])
        return out

    out = _swap_ij(contract_first(_swap_ij(contract_first(coords), n, ctx)), n, ctx)
    times = combiner([out[c::n] for c in range(n)], ctx)
    for k in range(n):
        out[k::n] = times(gi[k * n:k * n + n])
    return ctx.pack(out)


def _slot_mask(d, slots):
    """The int view of a row of length d with 0xFF at the given slots."""
    row = bytearray(d)
    for f in slots:
        row[f] = 255
    return int.from_bytes(row, "big")


@lru_cache(maxsize=256)
def _transvection_moves(n, r, s):
    """The (mask, shift) of each step of x_rs on the int view of a row of length n^3.

    Slot f sits at bit 8*(n^3 - 1 - f), so moving a slot from index a to
    index b is a shift of 8*(a - b) bits (left when positive).
    """
    nn, d = n * n, n ** 3
    return ((_slot_mask(d, range(r * nn, r * nn + nn)), 8 * (r - s) * nn),
            (_slot_mask(d, (b + r * n + k for b in range(0, d, nn) for k in range(n))),
             8 * (r - s) * n),
            (_slot_mask(d, range(s, d, n)), 8 * (s - r)))


@lru_cache(maxsize=256)
def _diagonal_parts(ctx, n, diag):
    """The (c, mask) parts of diag(d_1..d_n): slot (i, j, k) has c = d_i d_j d_k^-1."""
    d, mul = n ** 3, ctx.mul
    inv = [ctx.inv(dk) for dk in diag]
    slots = {}
    f = 0
    for di in diag:
        for dj in diag:
            dij = mul(di, dj)
            for ik in inv:
                slots.setdefault(mul(dij, ik), []).append(f)
                f += 1
    return tuple((c, _slot_mask(d, fs)) for c, fs in slots.items())


def _act_transvection(coords, n, ctx, r, s, t):
    # g = I + t*e_rs (0-based r != s), three steps in turn: block s += t*block
    # r; in each block, run s += t*run r; the stride-n column r -= t*column s
    if ctx.packed:
        (m1, h1), (m2, h2), (m3, h3) = _transvection_moves(n, r, s)
        return ctx.row_shift_add(coords, ((t, m1, h1), (t, m2, h2), (ctx.neg(t), m3, h3)))
    nn = n * n
    out = list(coords)
    mt = ctx.neg(t)
    sub = ctx.row_submul
    bs, br = s * nn, r * nn
    out[bs:bs + nn] = sub(out[bs:bs + nn], out[br:br + nn], mt)
    for i in range(0, n * nn, nn):
        os_, or_ = i + s * n, i + r * n
        out[os_:os_ + n] = sub(out[os_:os_ + n], out[or_:or_ + n], mt)
    out[r::n] = sub(out[r::n], out[s::n], t)
    return out


def _act_diagonal(coords, n, ctx, diag):
    # (lam g)_ijk = d_i d_j d_k^-1 lam_ijk: over packed fields one masked
    # part per distinct scalar; else scale each run (i, j) by d_i d_j, then
    # each stride-n column k by d_k^-1
    if ctx.packed:
        return ctx.row_slot_scale(coords, _diagonal_parts(ctx, n, diag))
    one, mul, scale = ctx.one(), ctx.mul, ctx.row_scale
    out = list(coords)
    f = 0
    for di in diag:
        for dj in diag:
            c = mul(di, dj)
            if c != one:
                out[f:f + n] = scale(out[f:f + n], c)
            f += n
    for k, dk in enumerate(diag):
        if dk != one:
            out[k::n] = scale(out[k::n], ctx.inv(dk))
    return out


@lru_cache(maxsize=64)
def _rank_one_moves(n):
    """The (mask, shifts) of each tensor index on the int view of a row of length n^3.

    The slices of index i, j, k are the blocks, the runs in each block and
    the stride-n columns.  The mask is 0xFF at the slots of the last slice,
    and shifts[a] moves slice a onto it, to the right (and back to the left).
    """
    nn, d = n * n, n ** 3
    last = (range(d - nn, d),
            (b + nn - n + k for b in range(0, d, nn) for k in range(n)),
            range(n - 1, d, n))
    return tuple((_slot_mask(d, slots), tuple(8 * (n - 1 - a) * step for a in range(n)))
                 for slots, step in zip(last, (nn, n, 1)))


def _act_rank_one(coords, n, ctx, z, zeta, c):
    # g = I + c z(x)zeta with zeta(z) = 0, so g_ai = delta_ai + c z_a zeta_i
    # and (g^-1)_kc = delta_kc - c z_k zeta_c.  Each index in turn is two
    # `row_combine` calls on the int view x: the first gathers sum_a w_a *
    # slice_a into the last slice (w = z for i and j, zeta for k), the second
    # adds u_s times that sum to each slice s (u = c zeta for i and j, -c z
    # for k).  Packed fields only.
    d, mul, mc = n ** 3, ctx.mul, ctx.neg(c)
    spreads = ([mul(c, x) for x in zeta],) * 2 + ([mul(mc, x) for x in z],)
    x = int.from_bytes(coords, "big")
    for (mask, shifts), gather, spread in zip(_rank_one_moves(n), (z, z, zeta), spreads):
        s = int.from_bytes(ctx.row_combine(
            [(w, x >> sh & mask) for w, sh in zip(gather, shifts) if w], d), "big")
        if s:
            x = int.from_bytes(ctx.row_combine(
                [(1, x)] + [(u, s << sh) for u, sh in zip(spread, shifts) if u], d), "big")
    return x.to_bytes(d, "big")


def _check_element(g, x):
    if g.n != x.n or g.ctx != x.ctx:
        raise ValueError("group element does not match the space it acts on")


def act(lam, g):
    """Right action lam |-> lam*g; act(act(lam,g),h) == act(lam, g*h)."""
    _check_element(g, lam)
    return lam._like(act_coords(lam.coords, g, lam.n, lam.ctx))


# -- algebra structure ------------------------------------------------------

def product(lam, u, v):
    """The algebra product [u, v] determined by lam, as a Vector."""
    ctx, n = lam.ctx, lam.n
    _check_space(u, Vector, ctx, n)
    _check_space(v, Vector, ctx, n)
    zero = ctx.zero()
    mul, add = ctx.mul, ctx.add
    out = [zero] * n
    src = lam.coords
    nn = n * n
    for i, ui in enumerate(u.coords):
        if ui == zero:
            continue
        for j, vj in enumerate(v.coords):
            if vj == zero:
                continue
            c = mul(ui, vj)
            base = i * nn + j * n
            for k in range(n):
                x = src[base + k]
                if x != zero:
                    out[k] = add(out[k], mul(c, x))
    return Vector(ctx, n, out)


def _trace_coords(src, n, ctx, opposite=False):
    """The raw coordinates sum_j lam_ijj (sum_j lam_jij if opposite) of a raw row lam."""
    a, b = (n, n * n + 1) if opposite else (n * n, n + 1)
    out = []
    for i in range(n):
        acc = ctx.zero()
        for j in range(n):
            acc = ctx.add(acc, src[i * a + j * b])
        out.append(acc)
    return out


def _trace(lam, opposite):
    """i-th coordinate sum_j lam_ijj, or sum_j lam_jij if opposite."""
    return DualVector(lam.ctx, lam.n, _trace_coords(lam.coords, lam.n, lam.ctx, opposite))


def tr(lam):
    """Adjoint trace functional: i-th coordinate sum_j lam_ijj."""
    return _trace(lam, False)


def tr_op(lam):
    """Opposite trace functional: i-th coordinate sum_j lam_jij."""
    return _trace(lam, True)


def _trace_rows(ctx, n, opposite):
    """The trace matrix, built from flat indices apart from `_trace`'s strides."""
    zero, one = ctx.zero(), ctx.one()
    rows = []
    for i in range(1, n + 1):
        row = [zero] * n ** 3
        for j in range(1, n + 1):
            row[flat(n, j, i, j) if opposite else flat(n, i, j, j)] = one
        rows.append(row)
    return rows


def tr_matrix_rows(ctx, n):
    """Rows of the n x n^3 matrix of tr over the standard bases."""
    return _trace_rows(ctx, n, False)


def tr_op_matrix_rows(ctx, n):
    return _trace_rows(ctx, n, True)
