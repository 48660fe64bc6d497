"""Dense exact linear algebra over a FieldCtx.

Matrices are row-major lists of raw scalars.  `Echelon` is the one elimination
engine: every rref, rank, kernel, sum and intersection runs on it.  Inside
the engine a row has one form, its field's row form (`FieldCtx.pack`:
`bytes` over GF(p), p <= 13, and GF(2^k), a list elsewhere).  The echelon
packs each input row once and stores packed rows.  Over packed fields the
echelon also holds an int view of each row and a pivot mask, and every
reduction against echelon rows is one `FieldCtx.row_eliminate`, which jumps
from one pivot to clear to the next, so a reduction costs one step per row
operation rather than one per stored row.  There `add` inserts in one pass
over the row's int view: it eliminates only when the row meets a pivot
slot, reads the zero test and the new pivot off the int, and scales the
pivot entry to 1 with one `translate`.  Over the list fields the stored
rows are walked in pivot order.  Every row the engine hands on is in the
row form too, the coefficients of `reduce_with_coeffs` and `quotient_coords`
included; rows become lists or tuples of raw scalars only where they leave
the engine: `rref_rows`, `Subspace.rows`, `Matrix.entries`,
`StructureVector.coords` and `to_json`.  A Subspace
holds only the `Echelon` of its canonical reduced row-echelon basis, so
equal subspaces compare equal as data, and builds `rows` and `pivots` from
it on access.
Pivots are first nonzero entries: exact arithmetic makes stability a
non-issue and the unique reduced form makes outputs diffable.
"""
from bisect import bisect_left
from operator import itemgetter

from .gfield import FieldCtx


def rref_rows(rows, ctx):
    """Reduced row echelon form of a list of raw rows.

    Returns (list rows, pivots) with zero rows dropped; the input is not modified.
    """
    if not rows:
        return [], []
    red, pivots = Echelon(ctx, len(rows[0]), rows).reduced()
    return [list(r) for r in red], pivots


def reduce_against(vec, rows, pivots, ctx):
    """Residual of vec after elimination against rref rows, as a packed row."""
    return Echelon.from_rref(ctx, len(vec), rows, pivots).reduce(vec)


class Echelon:
    """Pivot-sorted row-echelon store with incremental insertion.

    Each stored row is 1 at its pivot and 0 left of it and at every older
    pivot, so reducing a vector against the rows in pivot order clears every
    pivot column: the residual is unique, and zero exactly for members of the
    span.  `reduced` back-substitutes to the reduced row echelon form.

    Over packed fields the echelon also keeps an int view of each row, keyed
    by the bit shift of its pivot slot, and one pivot mask, 0xFF at each
    pivot slot; `add`, `reduce` and `reduced` hand them to
    `FieldCtx.row_eliminate`, which goes straight to the next pivot to
    clear.  Elsewhere the stored rows are walked in pivot order (`_clear`).
    `_gather` caches (pivot count, itemgetter over the pivots) for
    `reduce_with_coeffs`; pivots only grow, so the count tells it is stale.
    """

    __slots__ = ("ctx", "ambient", "rows", "pivots", "_ints", "_mask", "_gather")

    def __init__(self, ctx, ambient, rows=()):
        self.ctx = ctx
        self.ambient = ambient
        self.rows = []
        self.pivots = []
        self._ints = {} if ctx.packed else None
        self._mask = 0
        self._gather = (-1, None)
        for r in rows:
            self.add(r)

    @classmethod
    def from_rref(cls, ctx, ambient, rows, pivots):
        """The echelon of rows already in echelon form with these pivots, without elimination."""
        ech = cls(ctx, ambient)
        ech.rows = [ctx.pack(r) for r in rows]
        ech.pivots = list(pivots)
        if ech._ints is not None:
            for r, p in zip(ech.rows, ech.pivots):
                ech._view(r, p)
        return ech

    def copy(self):
        out = Echelon(self.ctx, self.ambient)
        out.rows, out.pivots, out._mask = list(self.rows), list(self.pivots), self._mask
        if self._ints is not None:
            out._ints = dict(self._ints)
        return out

    def _view(self, row, pivot):
        sh = (self.ambient - 1 - pivot) << 3
        self._ints[sh] = int.from_bytes(row, "big")
        self._mask |= 0xFF << sh

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residual of vec after clearing every stored pivot, as a packed row."""
        v = self.ctx.pack(vec)
        if len(v) != self.ambient:
            raise ValueError("row length does not match the ambient dimension")
        return self._clear(v, 0)

    def _clear(self, v, start):
        """The packed row v with the pivots of rows[start:] cleared: the one elimination loop."""
        ctx, rows, pivots = self.ctx, self.rows, self.pivots
        if self._ints is None:
            for j in range(start, len(rows)):
                c = v[pivots[j]]
                if c:
                    v = ctx.row_submul(v, rows[j], c)
            return v
        mask = self._mask
        if start:
            mask &= (1 << ((self.ambient - 1 - pivots[start - 1]) << 3)) - 1
        x = int.from_bytes(v, "big")
        if not x & mask:
            return v
        return ctx.row_eliminate(x, mask, self._ints, self.ambient)

    def add(self, vec):
        """Insert if independent; returns the reduced, normalized packed row or None.

        Over packed fields this is one pass over the row's int view x:
        `FieldCtx.row_eliminate` runs only when x meets a pivot slot, x is
        tested for zero and the new pivot slot is read from its bit length,
        and one `translate` through `FieldCtx.unscale_bytes` makes the pivot
        entry 1.  The residual modulo the span is unique, so the stored row
        is the one the textbook loop (reduce, find the lead, scale by its
        inverse) gives.
        """
        ints = self._ints
        if ints is None:
            ctx = self.ctx
            v = self.reduce(vec)
            lead = ctx.lead(v)
            if lead == self.ambient:
                return None
            c = v[lead]
            if c != ctx.one():
                v = ctx.row_scale(v, ctx.inv(c))
        else:
            d, mask = self.ambient, self._mask
            v = vec if type(vec) is bytes else bytes(vec)
            if len(v) != d:
                raise ValueError("row length does not match the ambient dimension")
            x = int.from_bytes(v, "big")
            if x & mask:
                v = self.ctx.row_eliminate(x, mask, ints, d)
                x = int.from_bytes(v, "big")
            if not x:
                return None
            sh = (x.bit_length() - 1) & -8
            c = x >> sh
            if c != 1:
                v = v.translate(self.ctx.unscale_bytes[c])
                x = int.from_bytes(v, "big")
            lead = d - 1 - (sh >> 3)
            ints[sh] = x
            self._mask = mask | 0xFF << sh
        at = bisect_left(self.pivots, lead)
        self.rows.insert(at, v)
        self.pivots.insert(at, lead)
        return v

    def reduced(self):
        """Back-substitute in place, bottom row first; returns the packed RREF (rows, pivots).

        Each row is reduced against the rows below it, which are already
        reduced, so each is zero at every pivot but its own.
        """
        rows, pivots, ints = self.rows, self.pivots, self._ints
        for j in range(len(rows) - 2, -1, -1):
            row = self._clear(rows[j], j + 1)
            if row is not rows[j]:
                rows[j] = row
                if ints is not None:
                    ints[(self.ambient - 1 - pivots[j]) << 3] = int.from_bytes(row, "big")
        return rows, pivots

    def reduce_with_coeffs(self, vec):
        """Packed residual and packed coefficients c (vec = sum c_i rows_i + residual).

        The rows must be rref rows: each is zero at every pivot but its own,
        so the coefficient of a row is vec's entry at its pivot.
        """
        ctx, pivots = self.ctx, self.pivots
        count, get = self._gather
        if count != len(pivots):
            # itemgetter(p) returns a bare scalar and itemgetter() is an error,
            # so fewer than two pivots take a slice
            get = (itemgetter(*pivots) if len(pivots) > 1 else
                   itemgetter(slice(pivots[0], pivots[0] + 1) if pivots else slice(0)))
            self._gather = (len(pivots), get)
        v = ctx.pack(vec)
        return self.reduce(v), ctx.pack(get(v))

    def quotient_coords(self, vec, reps):
        """Coordinates of vec + span(rows) over the rref echelon `reps`; the residual must vanish."""
        res, coeffs = reps.reduce_with_coeffs(self.reduce(vec))
        if self.ctx.lead(res) != len(res):
            raise ValueError("vector does not lie in the given span")
        return coeffs

    def subspace(self):
        self.reduced()
        return Subspace._of(self.copy())


def reduce_with_coeffs(vec, rows, pivots, ctx):
    """One-shot `Echelon.reduce_with_coeffs` against rref rows."""
    return Echelon.from_rref(ctx, len(vec), rows, pivots).reduce_with_coeffs(vec)


def combiner(rows, ctx):
    """coeffs -> sum_i coeffs[i] * rows[i] as a packed row, skipping zero coefficients.

    The rows are read into the kernel's form once, when the combiner is made.
    """
    d = len(rows[0]) if rows else 0
    if ctx.packed:
        ints = [int.from_bytes(r, "big") for r in rows]
        return lambda coeffs: ctx.row_combine(zip(coeffs, ints), d)

    def times(coeffs):
        out = [ctx.zero()] * d
        for c, row in zip(coeffs, rows):
            if c:
                out = ctx.row_addmul(out, row, c)
        return out
    return times


class Matrix:
    """Immutable dense matrix with raw entries over one FieldCtx."""

    __slots__ = ("ctx", "nrows", "ncols", "entries")

    def __init__(self, ctx, nrows, ncols, entries):
        if len(entries) != nrows * ncols:
            raise ValueError("entry count does not match the shape")
        self.ctx = ctx
        self.nrows = nrows
        self.ncols = ncols
        self.entries = list(entries)

    @classmethod
    def from_rows(cls, ctx, rows):
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(ctx._coerce(x) for x in r)
        return cls(ctx, nrows, ncols, flat)

    @classmethod
    def identity(cls, ctx, n):
        zero, one = ctx.zero(), ctx.one()
        flat = [one if i == j else zero for i in range(n) for j in range(n)]
        return cls(ctx, n, n, flat)

    @classmethod
    def zeros(cls, ctx, nrows, ncols):
        return cls(ctx, nrows, ncols, [ctx.zero()] * (nrows * ncols))

    def row(self, i):
        return self.entries[i * self.ncols:(i + 1) * self.ncols]

    def rows(self):
        return [self.row(i) for i in range(self.nrows)]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.ncols + j]

    def transpose(self):
        e = self.entries
        nc = self.ncols
        flat = [e[i * nc + j] for j in range(nc) for i in range(self.nrows)]
        return Matrix(self.ctx, nc, self.nrows, flat)

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        if other.nrows == 0:
            return Matrix.zeros(self.ctx, self.nrows, other.ncols)
        times = combiner(other.rows(), self.ctx)
        flat = [x for i in range(self.nrows) for x in times(self.row(i))]
        return Matrix(self.ctx, self.nrows, other.ncols, flat)

    def __mul__(self, other):
        return self.mul(other)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ctx == other.ctx
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.entries == other.entries)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.ctx!r})"

    def rank(self):
        return Echelon(self.ctx, self.ncols, self.rows()).dim

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("only square matrices invert")
        n = self.nrows
        ctx = self.ctx
        ident = Matrix.identity(ctx, n)
        aug = [self.row(i) + ident.row(i) for i in range(n)]
        red, pivots = rref_rows(aug, ctx)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix.from_rows(ctx, [r[n:] for r in red])


def kernel_rows(rows, ncols, ctx):
    """Right kernel {v : M v^T = 0} of the matrix with the given rows, as packed rows."""
    red, pivots = Echelon(ctx, ncols, rows).reduced()
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    zero, one = ctx.zero(), ctx.one()
    mone = ctx.neg(one)
    cols = list(zip(*red)) or [()] * ncols
    out = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for p, x in zip(pivots, ctx.row_scale(cols[f], mone)):
            v[p] = x
        out.append(ctx.pack(v))
    return out


class Subspace:
    """A subspace of F^d held as its canonical rref basis (no zero rows).

    The only copy of the basis is `_ech`, the `Echelon` over it in packed
    form (`FieldCtx.pack`), which every membership test and quotient reduces
    against; `rows` (a tuple of tuples of raw scalars) and `pivots` are built
    from it on each access.
    """

    __slots__ = ("ctx", "ambient", "_ech")

    def __init__(self, ctx, ambient, rows):
        ech = Echelon(ctx, ambient, rows)
        ech.reduced()
        self.ctx, self.ambient, self._ech = ctx, ambient, ech

    @classmethod
    def _of(cls, ech):
        """The subspace of a reduced echelon, which it takes over."""
        out = object.__new__(cls)
        out.ctx, out.ambient, out._ech = ech.ctx, ech.ambient, ech
        return out

    @property
    def rows(self):
        return tuple(map(tuple, self._ech.rows))

    @property
    def pivots(self):
        return tuple(self._ech.pivots)

    @classmethod
    def zero(cls, ctx, ambient):
        return cls._of(Echelon(ctx, ambient))

    @classmethod
    def full(cls, ctx, ambient):
        zero, one = ctx.zero(), ctx.one()
        units = ([zero] * i + [one] + [zero] * (ambient - 1 - i) for i in range(ambient))
        return cls._of(Echelon.from_rref(ctx, ambient, units, range(ambient)))

    @property
    def dim(self):
        return len(self._ech.rows)

    def contains(self, vec):
        vec = getattr(vec, "coords", vec)
        if len(vec) != self.ambient:
            raise ValueError("vector length does not match the ambient dimension")
        return self.ctx.lead(self._ech.reduce(vec)) == self.ambient

    def __contains__(self, vec):
        return self.contains(vec)

    def __le__(self, other):
        self._check_compatible(other)
        return all(other.contains(r) for r in self._ech.rows)

    def __lt__(self, other):
        return self <= other and self.dim < other.dim

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ctx == other.ctx
                and self.ambient == other.ambient and self._ech.rows == other._ech.rows)

    def __hash__(self):
        return hash((self.ctx, self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient} over {self.ctx!r})"

    def _check_compatible(self, other):
        if self.ctx != other.ctx or self.ambient != other.ambient:
            raise ValueError("subspaces live in different ambient spaces")

    def sum(self, other):
        self._check_compatible(other)
        big, small = (self, other) if self.dim >= other.dim else (other, self)
        ech = big._ech.copy()
        for r in small._ech.rows:
            ech.add(r)
        ech.reduced()
        return Subspace._of(ech)

    def __or__(self, other):
        return self.sum(other)

    def intersect(self, other):
        """Zassenhaus: echelon of [[A|A],[B|0]]; rows with pivot >= d carry the intersection."""
        self._check_compatible(other)
        ctx, d = self.ctx, self.ambient
        pad = ctx.pack([ctx.zero()] * d)
        stacked = [ctx.pack(r) * 2 for r in self._ech.rows]
        stacked += [ctx.pack(r) + pad for r in other._ech.rows]
        ech = Echelon(ctx, 2 * d, stacked)
        out = [r[d:] for r, p in zip(ech.rows, ech.pivots) if p >= d]
        return Subspace(ctx, d, out)

    def __and__(self, other):
        return self.intersect(other)

    def quotient_dim(self, sub):
        if not sub <= self:
            raise ValueError("not a subspace of this space")
        return self.dim - sub.dim

    def coset_representatives(self, sub):
        """Packed rref basis of a complement of sub in self; cosets form a quotient basis."""
        self._check_compatible(sub)
        ech = sub._ech.copy()
        reps = [t for t in map(ech.add, self._ech.rows) if t is not None]
        # sub + self has the dimension of self exactly when sub lies in self
        if ech.dim != self.dim:
            raise ValueError("not a subspace of this space")
        return Echelon(self.ctx, self.ambient, reps).reduced()[0]

    def to_json(self):
        ctx = self.ctx
        return {
            "field": ctx.to_json(),
            "ambient": self.ambient,
            "basis": [[ctx.raw_to_json(x) for x in r] for r in self._ech.rows],
        }

    @staticmethod
    def from_json(d):
        ctx = FieldCtx.from_json(d["field"])
        rows = [[ctx.raw_from_json(x) for x in r] for r in d["basis"]]
        return Subspace(ctx, d["ambient"], rows)


def null_space(m):
    """Right kernel of a Matrix as a Subspace of row vectors."""
    return Subspace(m.ctx, m.ncols, kernel_rows(m.rows(), m.ncols, m.ctx))


def solve_right(rows, rhs, ctx):
    """One solution x of A x = rhs (free variables zero), or None if inconsistent."""
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref_rows(aug, ctx)
    zero = ctx.zero()
    x = [zero] * ncols
    for r, p in zip(red, pivots):
        if p == ncols:
            return None
        x[p] = r[ncols]
    return x


def quotient_coords(vec, sub_rows, sub_pivots, reps, rep_pivots, ctx):
    """One-shot `Echelon.quotient_coords`: vec + sub over the complement basis reps."""
    d = len(vec)
    return Echelon.from_rref(ctx, d, sub_rows, sub_pivots).quotient_coords(
        vec, Echelon.from_rref(ctx, d, reps, rep_pivots))


class GroupElement:
    """Invertible n x n matrix with its inverse cached at construction.

    `tag` marks the structured elements so the structure-vector action can
    take its fast path (`structvec.act_coords`):
    ("transvection", r, s, t) for I + t*e_rs (0-based r != s),
    ("diagonal", (d_1, ..., d_n)), ("permutation", (sigma 1, ..., sigma n)),
    and ("rank-one", z, zeta, c) for I + c*z (x) zeta with zeta(z) = 0, z and
    zeta tuples of raw scalars.  An untagged element takes the general
    action; so does every product, whatever its factors.  Every element,
    tagged or not, passes the mat * inv = I check.
    """

    __slots__ = ("ctx", "n", "mat", "inv", "tag")

    def __init__(self, mat, inv=None, tag=None):
        if mat.nrows != mat.ncols:
            raise ValueError("group elements are square")
        self.ctx = mat.ctx
        self.n = mat.nrows
        self.mat = mat
        self.inv = inv if inv is not None else mat.inverse()
        if self.mat.mul(self.inv) != Matrix.identity(self.ctx, self.n):
            raise ValueError("cached inverse is wrong")
        self.tag = tag

    @classmethod
    def transvection(cls, ctx, n, i, j, t=1):
        """I + t*e_ij for 1-based i != j."""
        if not (0 < i <= n and 0 < j <= n):
            raise ValueError(f"index ({i}, {j}) outside 1..{n}")
        if i == j:
            raise ValueError("transvections need i != j")
        t = ctx._coerce(t)
        mat = Matrix.identity(ctx, n)
        inv = Matrix.identity(ctx, n)
        mat.entries[(i - 1) * n + (j - 1)] = t
        inv.entries[(i - 1) * n + (j - 1)] = ctx.neg(t)
        return cls(mat, inv, tag=("transvection", i - 1, j - 1, t))

    @classmethod
    def diagonal(cls, ctx, diag):
        diag = [ctx._coerce(d) for d in diag]
        if ctx.zero() in diag:
            raise ValueError("diagonal entries must be nonzero")
        n = len(diag)
        mat = Matrix.identity(ctx, n)
        inv = Matrix.identity(ctx, n)
        for i, d in enumerate(diag):
            mat.entries[i * n + i] = d
            inv.entries[i * n + i] = ctx.inv(d)
        return cls(mat, inv, tag=("diagonal", tuple(diag)))

    @classmethod
    def rank_one(cls, ctx, z, zeta, c):
        """I + c*z (x) zeta, entry (i, j) = delta_ij + c z_i zeta_j, for raw z, zeta in F^n.

        The inverse is I - c*z (x) zeta, written entry by entry beside it;
        it is the inverse exactly when zeta(z) = 0 (or c z (x) zeta = 0),
        and the mat * inv = I check of the constructor refuses any other
        z, zeta.
        """
        z, zeta, c = tuple(map(ctx._coerce, z)), tuple(map(ctx._coerce, zeta)), ctx._coerce(c)
        n = len(z)
        if len(zeta) != n:
            raise ValueError("z and zeta have different lengths")
        mat = Matrix.identity(ctx, n)
        inv = Matrix.identity(ctx, n)
        for i, zi in enumerate(z):
            czi = ctx.mul(c, zi)
            if czi:
                for j, zj in enumerate(zeta):
                    e = ctx.mul(czi, zj)
                    mat.entries[i * n + j] = ctx.add(mat.entries[i * n + j], e)
                    inv.entries[i * n + j] = ctx.sub(inv.entries[i * n + j], e)
        return cls(mat, inv, tag=("rank-one", z, zeta, c))

    @classmethod
    def permutation(cls, ctx, images):
        """g v_j = v_sigma(j) for the 1-based image list sigma; the inverse is the transpose."""
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{list(images)} is not a permutation of 1..{n}")
        mat = Matrix.zeros(ctx, n, n)
        for j, im in enumerate(images):
            mat.entries[(im - 1) * n + j] = ctx.one()
        return cls(mat, mat.transpose(), tag=("permutation", images))

    def compose(self, other):
        """Product g*h as transformations (apply h's matrix on the right of [g])."""
        return GroupElement(self.mat.mul(other.mat), other.inv.mul(self.inv))

    def __mul__(self, other):
        return self.compose(other)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.mat == other.mat

    def __repr__(self):
        return f"GroupElement({self.n}x{self.n} over {self.ctx!r})"
