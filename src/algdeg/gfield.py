"""Exact scalar arithmetic: prime fields GF(p), small extensions GF(p^k), rationals.

A FieldCtx owns the arithmetic on raw scalars, the package's one scalar
form: plain ints (finite fields, encoding polynomial-basis coefficients base
p) or Fractions (rationals).
Hot loops in the linear algebra work on raw rows through the ctx kernels
(`row_submul`, `row_scale`, `lead`).  Over GF(p), p <= 13, GF(2^k), GF(9)
and GF(25) a row is packed: a `bytes` object holding one raw code per byte,
and a row update is one big-int operation plus one `bytes.translate` (the
packed-row method of Boothby & Bradshaw, arXiv:0901.1413).  Eliminations and
linear combinations run on the rows read as big ints (`row_eliminate`,
`row_combine`): they add whole rows and, over GF(p), reduce the slots mod p
with one `translate` only when a slot could next pass 255.  Over GF(9) and
GF(25) the kernels first translate each code a0 + p*a1 to the byte
a0 | a1 << 4, so that the two base-p digits add in separate nibbles, and
reduce the digits before one could pass 15.  The structure-vector action's
transvections and diagonals run on int views too (`row_shift_add`,
`row_slot_scale`).  Larger primes and Q keep rows as lists.  Every row
kernel returns its field's row form (`FieldCtx.pack`) whatever form its
input takes.
"""

from fractions import Fraction
from functools import lru_cache

# Fixed irreducible moduli, ascending coefficients c0..ck with ck = 1.
# Frozen so serialized data is reproducible across runs and machines.
_MODULI = {
    (2, 2): (1, 1, 1),      # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),   # x^3 + x + 1
    (3, 2): (1, 0, 1),      # x^2 + 1
    (5, 2): (1, 1, 1),      # x^2 + x + 1
}


def _is_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _poly_mul_mod(a, b, modulus, p):
    """Product of coefficient lists a, b reduced mod (modulus, p)."""
    k = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: subtract x^(deg) * modulus while degree >= k
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            for t in range(k + 1):
                prod[d - k + t] = (prod[d - k + t] - c * modulus[t]) % p
    return [c % p for c in prod[:k]] + [0] * max(0, k - len(prod))


class FieldCtx:
    """Immutable arithmetic context: GF(p^k) for the frozen modulus table, or Q.

    Two contexts are interchangeable iff (char, degree, modulus) agree.
    All operations are pure.

    `packed` is true over GF(p), p <= 13, GF(2^k) and GF(p^2) for p = 3, 5.
    There the row kernels work on `bytes` rows, one raw code per byte: they
    accept lists, tuples or `bytes`, and return `bytes`, the form `pack`
    turns any row into.  Over GF(p) a slot of u + (p-c)*v is at most
    (p-1) + p(p-1) = p^2 - 1 < 256, so the slots of the big-int sum never
    carry and one `translate` reduces them mod p.  Over GF(2^k) addition is
    XOR.  Over GF(p^2) the kernels add the rows' nibble views
    (`_build_nibble_tables`) and read the sum back as codes with one
    `translate`.  Every other field (larger primes, Q) keeps rows as lists.
    The byte of a code is the code itself, so packed rows order and
    serialize like the lists they replace.
    `unscale_bytes[c]` is the `translate` table of multiplication by c^-1,
    with which `Echelon.add` makes a new pivot entry 1.
    """

    def __init__(self, char, degree=1):
        self.packed = False
        if char == 0:
            if degree != 1:
                raise ValueError("rational field has degree 1")
            self.kind = "rational"
            self.char = 0
            self.degree = 1
            self.order = None
            self.modulus = None
            return
        if not _is_prime(char):
            raise ValueError(f"characteristic {char} is not prime")
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.kind = "finite"
        self.char = char
        self.degree = degree
        self.order = char ** degree
        if degree == 1:
            self.modulus = None
        else:
            try:
                self.modulus = _MODULI[(char, degree)]
            except KeyError:
                raise ValueError(f"no modulus on file for GF({char}^{degree})")
            self._build_tables()
        # GF(p^2) packs while a sum of two digits fits a nibble: p <= 7
        if char == 2 or char <= 13 and degree == 1 or char <= 7 and degree == 2:
            self.packed = True
            q = self.order
            # translate tables: multiplication by each scalar, by the inverse of
            # each nonzero scalar (the echelon's normalization), and reduction mod p
            mul = (self._mul_table if degree > 1 else
                   [[c * x % char for x in range(q)] for c in range(q)])
            self._scale_bytes = [bytes(row) + bytes(256 - q) for row in mul]
            self.unscale_bytes = [None] + [self._scale_bytes[self.inv(c)] for c in range(1, q)]
            if char == 2 or degree == 1:
                self._mod_bytes = bytes(x % char for x in range(256))
                # terms a reduced slot takes before it could pass 255: each adds
                # at most (p-1)^2 to a slot of at most p-1
                self._lazy_terms = (256 - char) // (char - 1) ** 2
            else:
                self._build_nibble_tables()

    def _decode(self, r):
        """Integer repr -> coefficient list, least-significant (constant) first."""
        p = self.char
        return [(r // p ** t) % p for t in range(self.degree)]

    def _encode(self, coeffs):
        p = self.char
        return sum(c % p * p ** t for t, c in enumerate(coeffs))

    def _build_tables(self):
        q, p = self.order, self.char
        mod = list(self.modulus)
        digits = [self._decode(a) for a in range(q)]
        self._add_table = [[self._encode([x + y for x, y in zip(da, db)]) for db in digits]
                           for da in digits]
        self._neg_table = [self._encode([-x for x in da]) for da in digits]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                v = self._encode(_poly_mul_mod(digits[a], digits[b], mod, p))
                mul[a][b] = v
                mul[b][a] = v
        inv = [None] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
            else:
                # a finite commutative ring is a field iff every nonzero element
                # has an inverse, so this search proves the modulus irreducible
                raise ValueError(f"modulus for GF({p}^{self.degree}) is reducible")
        self._mul_table = mul
        self._inv_table = inv

    def _build_nibble_tables(self):
        """The nibble view of GF(p^2), p odd: code a0 + p*a1 is the byte a0 | a1 << 4.

        `_nib_bytes` maps a code to its nibble byte and `_nib_scale[c]` a code
        to the nibble byte of c times it, built from the rows of `_mul_table`.
        A sum of nibble views adds each digit in its own nibble, which holds
        15 before it carries; `_mod_bytes` reduces both digits of a byte mod p,
        `_code_bytes` reads a byte back as a code, and `_any_scale[c]` maps any
        byte to the nibble byte of c times its code.
        """
        p, q = self.char, self.order
        self._nib_bytes = bytes([x % p | x // p << 4 for x in range(q)]) + bytes(256 - q)
        self._nib_scale = [row.translate(self._nib_bytes) for row in self._scale_bytes]
        digit = [x % p for x in range(16)]      # byte hi << 4 | lo has digits lo, hi mod p
        self._mod_bytes = bytes([lo | hi << 4 for hi in digit for lo in digit])
        self._code_bytes = bytes([lo + hi * p for hi in digit for lo in digit])
        self._any_scale = [self._code_bytes.translate(t) for t in self._nib_scale]
        # terms a reduced digit takes before it could pass 15: each adds at
        # most p-1 to a digit of at most p-1
        self._lazy_terms = (16 - p) // (p - 1)

    # -- raw scalar operations ------------------------------------------

    def zero(self):
        return Fraction(0) if self.kind == "rational" else 0

    def one(self):
        return Fraction(1) if self.kind == "rational" else 1

    def from_int(self, m):
        if self.kind == "rational":
            return Fraction(m)
        # the code of a constant polynomial is the constant
        return m % self.char

    def add(self, a, b):
        if self.kind == "rational":
            return a + b
        if self.degree == 1:
            return (a + b) % self.char
        return self._add_table[a][b]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        if self.kind == "rational":
            return -a
        if self.degree == 1:
            return (-a) % self.char
        return self._neg_table[a]

    def mul(self, a, b):
        if self.kind == "rational":
            return a * b
        if self.degree == 1:
            return (a * b) % self.char
        return self._mul_table[a][b]

    def inv(self, a):
        if self.kind == "rational":
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / a
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.degree == 1:
            return pow(a, self.char - 2, self.char)
        return self._inv_table[a]

    def pow(self, a, e):
        """a^e; for e < 0 the inverse of a is raised, so 0^e raises ZeroDivisionError."""
        if e < 0:
            a, e = self.inv(a), -e
        r = self.one()
        for _ in range(e):
            r = self.mul(r, a)
        return r

    def raw_elements(self):
        if self.kind != "finite":
            raise ValueError("enumeration needs a finite field")
        return list(range(self.order))

    # -- row kernels (hot paths of the exact linear algebra) ------------

    def pack(self, vec):
        """A row in this field's row form: `bytes` when packed, else a new list."""
        return bytes(vec) if self.packed else list(vec)

    def lead(self, v):
        """Index of the first nonzero entry of a row; len(v) for the zero row."""
        if type(v) is bytes:
            return len(v) - len(v.lstrip(b"\0"))
        for j, x in enumerate(v):
            if x:
                return j
        return len(v)

    def row_submul(self, u, v, c):
        """u - c*v, elementwise on raw rows, in the row form (`pack`)."""
        if self.packed:
            d = len(u)
            if self.char == 2:
                if c != 1:
                    v = bytes(v).translate(self._scale_bytes[c])
                return (int.from_bytes(u, "big") ^ int.from_bytes(v, "big")).to_bytes(d, "big")
            p = self.char
            if self.degree == 1:
                return (int.from_bytes(u, "big") + (p - c % p) * int.from_bytes(v, "big")
                        ).to_bytes(d, "big").translate(self._mod_bytes)
            scale = self._nib_scale[self._neg_table[c]]
            return (int.from_bytes(bytes(u).translate(self._nib_bytes), "big")
                    + int.from_bytes(bytes(v).translate(scale), "big")
                    ).to_bytes(d, "big").translate(self._code_bytes)
        if self.kind == "finite":
            p = self.char
            return [(x - c * y) % p for x, y in zip(u, v)]
        return [x - c * y for x, y in zip(u, v)]

    def row_addmul(self, u, v, c):
        """u + c*v, elementwise on raw rows."""
        return self.row_submul(u, v, self.neg(c))

    def row_scale(self, v, c):
        """c*v on a raw row, in the row form (`pack`)."""
        if self.packed:
            return bytes(v).translate(self._scale_bytes[c])
        if self.kind == "finite":
            p = self.char
            return [(c * y) % p for y in v]
        return [c * y for y in v]

    # -- big-int row kernels (packed fields only) --------------------------
    #
    # An int view is `int.from_bytes(row, "big")` of a packed row: slot j of a
    # row of length d is the byte at bit shift 8*(d-1-j).  Over GF(p) the
    # kernels add whole rows and reduce the slots only once they could pass
    # 255, every `_lazy_terms` terms (63 for GF(3), 15 for GF(5), 6 for GF(7),
    # 2 for GF(11), 1 for GF(13)) and once at the end; over GF(2^k) they XOR.
    # Over GF(p^2) they translate each term to nibbles, scaled on the way,
    # add, and reduce the digits every `_lazy_terms` terms (6 for GF(9), 2 for
    # GF(25)); the int views they take and give are of codes all the same.
    # `row_combine` and `row_eliminate` take int views; `row_shift_add` and
    # `row_slot_scale` take a row in any form and move or scale masked slots
    # of its int view.  All return packed rows.

    def _reduced_int(self, x, d):
        return int.from_bytes(x.to_bytes(d, "big").translate(self._mod_bytes), "big")

    def row_combine(self, terms, d):
        """sum c*y over the (c, y) pairs, y the int view of a row, as a packed row of length d."""
        if self.char == 2:
            scale = self._scale_bytes
            x = 0
            for c, y in terms:
                if c == 1:
                    x ^= y
                elif c:
                    x ^= int.from_bytes(y.to_bytes(d, "big").translate(scale[c]), "big")
            return x.to_bytes(d, "big")
        lazy = left = self._lazy_terms
        x = 0
        if self.degree == 1:
            for c, y in terms:
                if c:
                    if not left:
                        x, left = self._reduced_int(x, d), lazy
                    x += c * y
                    left -= 1
            return x.to_bytes(d, "big").translate(self._mod_bytes)
        scale = self._nib_scale
        for c, y in terms:
            if c:
                if not left:
                    x, left = self._reduced_int(x, d), lazy
                x += int.from_bytes(y.to_bytes(d, "big").translate(scale[c]), "big")
                left -= 1
        return x.to_bytes(d, "big").translate(self._code_bytes)

    def row_eliminate(self, x, mask, rows, d):
        """The int view x with every pivot slot under `mask` cleared, as a packed row of length d.

        `mask` is 0xFF at each pivot slot, and `rows` maps the bit shift of
        each pivot slot to the int view of its echelon row: 1 at that slot
        and 0 at the pivot slots left of it (above it).  The next slot to
        clear is the top byte of x & mask, so the loop takes one step per
        row operation, not one per stored row; each step clears its slot
        and changes x only to the right (below), so the slots above stay
        clear.  Over GF(p) an unreduced slot is read mod p, so a slot that
        is a nonzero multiple of p is skipped; over GF(p^2) x is cleared in
        its nibble view, and a slot is read through `_code_bytes`.
        """
        m = x & mask
        if self.char == 2:
            scale = self._scale_bytes
            while m:
                sh = (m.bit_length() - 1) & -8
                c = m >> sh
                y = rows[sh]
                if c != 1:
                    y = int.from_bytes(y.to_bytes(d, "big").translate(scale[c]), "big")
                x ^= y
                m = x & mask & ((1 << sh) - 1)
            return x.to_bytes(d, "big")
        p = self.char
        lazy = left = self._lazy_terms
        if self.degree == 1:
            while m:
                sh = (m.bit_length() - 1) & -8
                c = (m >> sh) % p
                if c:
                    if not left:
                        x, left = self._reduced_int(x, d), lazy
                    x += (p - c) * rows[sh]
                    left -= 1
                m = x & mask & ((1 << sh) - 1)
            return x.to_bytes(d, "big").translate(self._mod_bytes)
        code, neg, scale = self._code_bytes, self._neg_table, self._nib_scale
        x = int.from_bytes(x.to_bytes(d, "big").translate(self._nib_bytes), "big")
        m = x & mask
        while m:
            sh = (m.bit_length() - 1) & -8
            c = code[m >> sh]
            if c:
                if not left:
                    x, left = self._reduced_int(x, d), lazy
                x += int.from_bytes(rows[sh].to_bytes(d, "big").translate(scale[neg[c]]), "big")
                left -= 1
            m = x & mask & ((1 << sh) - 1)
        return x.to_bytes(d, "big").translate(code)

    def row_shift_add(self, row, steps):
        """The row after each (c, mask, shift) step in turn, as a packed row.

        A step adds c times the slots of the int view under `mask` (0xFF at
        each source slot), moved by `shift` bits: left when positive, right
        when negative.  The moved slots must stay inside the row and miss
        the source slots.  Over GF(p) a step takes the largest slot from b
        to at most b + c*b; the slots are reduced before a step that could
        take one past 255, and once at the end.  Over GF(2^k) a step is an
        XOR, and c != 1 scales the source slots with one `translate`.  Over
        GF(p^2) a step scales the source slots of the nibble view with one
        `translate` (`_any_scale`), which adds at most p-1 to each digit.
        """
        d = len(row)
        x = int.from_bytes(row, "big")
        if self.char == 2:
            scale = self._scale_bytes
            for c, mask, sh in steps:
                if c:
                    y = x & mask
                    if c != 1:
                        y = int.from_bytes(y.to_bytes(d, "big").translate(scale[c]), "big")
                    x ^= y << sh if sh > 0 else y >> -sh
            return x.to_bytes(d, "big")
        if self.degree > 1:
            scale = self._any_scale
            lazy = left = self._lazy_terms
            x = int.from_bytes(bytes(row).translate(self._nib_bytes), "big")
            for c, mask, sh in steps:
                if c:
                    if not left:
                        x, left = self._reduced_int(x, d), lazy
                    y = int.from_bytes((x & mask).to_bytes(d, "big").translate(scale[c]), "big")
                    x += y << sh if sh > 0 else y >> -sh
                    left -= 1
            return x.to_bytes(d, "big").translate(self._code_bytes)
        top = self.char - 1
        for c, mask, sh in steps:
            if c:
                if top * (c + 1) > 255:
                    x, top = self._reduced_int(x, d), self.char - 1
                top *= c + 1
                y = x & mask
                x += c * (y << sh if sh > 0 else y >> -sh)
        return x.to_bytes(d, "big").translate(self._mod_bytes)

    def row_slot_scale(self, row, parts):
        """The row with the slots under each (c, mask) part scaled by c, as a packed row.

        The masks (0xFF at each slot) partition the slots.  Over GF(p) a
        scaled slot is at most (p-1)^2 < 256, so the parts are summed and
        reduced by one `translate`; over GF(2^k) and GF(p^2) each part
        c != 1 is scaled by one `translate` of the row.
        """
        d = len(row)
        row = bytes(row)
        x = int.from_bytes(row, "big")
        if self.char == 2 or self.degree > 1:
            scale = self._scale_bytes
            out = 0
            for c, mask in parts:
                out |= (x if c == 1 else int.from_bytes(row.translate(scale[c]), "big")) & mask
            return out.to_bytes(d, "big")
        return sum(c * (x & mask) for c, mask in parts).to_bytes(d, "big").translate(
            self._mod_bytes)

    # -- identity / serialization ----------------------------------------

    def _key(self):
        return (self.char, self.degree, self.modulus)

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.kind == "rational":
            return "Q"
        if self.degree == 1:
            return f"GF({self.char})"
        return f"GF({self.char}^{self.degree})"

    def _coerce(self, raw):
        if self.kind == "rational" and isinstance(raw, (int, Fraction)):
            return Fraction(raw)
        if isinstance(raw, int):
            # over GF(p) a code and an integer read the same; over GF(p^k) they
            # differ, so an integer outside the codes is refused
            if 0 <= raw < self.order or self.degree == 1:
                return raw % self.order
            raise ValueError(f"raw code {raw} outside 0..{self.order - 1} for {self!r}; "
                             "use from_int for an integer")
        raise TypeError(f"cannot coerce {raw!r} into {self!r}")

    def to_json(self):
        d = {"char": self.char, "degree": self.degree}
        if self.modulus is not None:
            d["modulus"] = list(self.modulus)
        return d

    @staticmethod
    def from_json(d):
        if (not isinstance(d, dict) or type(d.get("char")) is not int
                or type(d.get("degree", 1)) is not int
                or not isinstance(d.get("modulus", []), list)):
            raise ValueError(f"field descriptor {d!r} is not an object with an integer "
                             "char, an integer degree and a modulus list")
        ctx = make_field(d["char"], d.get("degree", 1))
        if "modulus" in d and tuple(d["modulus"]) != ctx.modulus:
            raise ValueError("modulus in descriptor disagrees with the frozen table")
        return ctx

    def raw_to_json(self, raw):
        if self.kind == "rational":
            return f"{raw.numerator}/{raw.denominator}"
        return raw

    def raw_from_json(self, v):
        if self.kind == "rational":
            if type(v) is int:
                return Fraction(v)
            if isinstance(v, str):
                try:
                    num, den = v.split("/")
                    return Fraction(int(num), int(den))
                except (ValueError, ZeroDivisionError):
                    pass
            raise ValueError(f"{v!r} is not a rational 'p/q' or an integer")
        if type(v) is not int or not 0 <= v < self.order:
            raise ValueError(f"raw code {v!r} is not an integer in 0..{self.order - 1} "
                             f"for {self!r}")
        return v


def make_field(char, degree=1):
    """The one (immutable) context of GF(p^k) for (p, k), of the rationals for (0, 1)."""
    return _field_ctx(char, degree)


_field_ctx = lru_cache(maxsize=None)(FieldCtx)


def multiplicative_order(ctx, raw):
    if raw == 0:
        raise ValueError("0 has no multiplicative order")
    r, e = raw, 1
    while r != 1:
        r = ctx.mul(r, raw)
        e += 1
    return e


def primitive_element(ctx):
    """The least raw code generating the multiplicative group."""
    if ctx.kind != "finite":
        raise ValueError("primitive element needs a finite field")
    if ctx.order < 3:
        raise ValueError("GF(2) has no generator other than 1")
    target = ctx.order - 1
    for r in range(1, ctx.order):
        if multiplicative_order(ctx, r) == target:
            return r
    raise AssertionError("no generator found in a finite field")

