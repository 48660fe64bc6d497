import pytest
from fractions import Fraction
from itertools import product

import algdeg
from algdeg import gfield
from algdeg.gfield import FieldCtx, make_field, primitive_element, multiplicative_order
from algdeg.exactla import GroupElement, Matrix
from algdeg.structvec import StructureVector

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]


def test_make_field_prime():
    ctx = make_field(3, 1)
    assert ctx.kind == "finite"
    assert ctx.order == 3
    assert ctx.modulus is None


def test_make_field_gf4_modulus():
    ctx = make_field(2, 2)
    assert ctx.order == 4
    # x^2 + x + 1 has no root in GF(2), hence is irreducible
    for r in (0, 1):
        assert (r * r + r + 1) % 2 != 0
    assert ctx.modulus == (1, 1, 1)


def test_make_field_rejects_nonprime():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(1, 1)
    with pytest.raises(ValueError, match="rational field has degree 1"):
        make_field(0, 2)
    with pytest.raises(ValueError, match="degree must be >= 1, got 0"):
        make_field(3, 0)


def test_make_field_rejects_unknown_extension():
    with pytest.raises(ValueError):
        make_field(7, 2)


def test_reducible_modulus_is_rejected_when_the_context_is_built(monkeypatch):
    # x^2 + 2 = (x - 1)(x + 1) over GF(3): x - 1 and x + 1 have no inverse
    monkeypatch.setitem(gfield._MODULI, (3, 2), (2, 0, 1))
    with pytest.raises(ValueError, match=r"modulus for GF\(3\^2\) is reducible"):
        FieldCtx(3, 2)


def test_rationals():
    ctx = make_field(0, 1)
    assert ctx.kind == "rational"
    a = ctx._coerce(Fraction(2, 4))
    assert a == Fraction(1, 2)
    assert ctx.add(a, a) == 1
    with pytest.raises(ValueError, match="enumeration needs a finite field"):
        ctx.raw_elements()


def test_rational_scalars_are_ints_and_fractions_only():
    # a float is a binary fraction, not the decimal it prints as, and a string
    # is no scalar: both are refused over Q as over every finite field
    q = make_field(0, 1)
    assert q._coerce(3) == 3
    assert q._coerce(True) == 1 and q._coerce(False) == 0
    assert q._coerce(Fraction(1, 2)) == Fraction(1, 2)
    assert all(type(q._coerce(x)) is Fraction for x in (3, True, Fraction(1, 2)))
    for bad in (0.1, 1.0, "1/3"):
        with pytest.raises(TypeError, match="cannot coerce"):
            q._coerce(bad)
        with pytest.raises(TypeError, match="cannot coerce"):
            StructureVector(q, 3, [bad] + [0] * 26)
        with pytest.raises(TypeError, match="cannot coerce"):
            Matrix.from_rows(q, [[bad, 0], [0, 1]])
        with pytest.raises(TypeError, match="cannot coerce"):
            GroupElement.diagonal(q, [bad, 1, 1])


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, k):
    # associativity, commutativity, distributivity, inverses for order <= 9
    ctx = make_field(p, k)
    els = ctx.raw_elements()
    assert len(els) == p ** k
    for a, b in product(els, repeat=2):
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.add(a, ctx.neg(a)) == 0
        if a != 0:
            assert ctx.mul(a, ctx.inv(a)) == 1
    for a, b, c in product(els, repeat=3):
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


def test_enumerate_order():
    assert make_field(3).raw_elements() == [0, 1, 2]
    assert make_field(2, 2).raw_elements() == [0, 1, 2, 3]
    assert len(make_field(3, 2).raw_elements()) == 9


def test_primitive_element_gf3():
    assert primitive_element(make_field(3)) == 2


def test_primitive_element_gf4():
    # x has order 3 under x^2 + x + 1
    ctx = make_field(2, 2)
    g = primitive_element(ctx)
    assert g == 2
    assert multiplicative_order(ctx, g) == 3


def test_primitive_element_gf9():
    # under x^2 + 1: x has order 4, so the least generator is x + 1 (repr 4)
    ctx = make_field(3, 2)
    assert multiplicative_order(ctx, 3) == 4
    g = primitive_element(ctx)
    assert g == 4
    assert multiplicative_order(ctx, 4) == 8


def test_primitive_element_rejects():
    with pytest.raises(ValueError):
        primitive_element(make_field(2))
    with pytest.raises(ValueError):
        primitive_element(make_field(0, 1))


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_primitive_element_order(p, k):
    if p ** k == 2:
        return
    ctx = make_field(p, k)
    g = primitive_element(ctx)
    target = ctx.order - 1
    assert ctx.pow(g, target) == 1
    for d in range(1, target):
        if target % d == 0 and d < target:
            assert ctx.pow(g, d) != 1 or d == target


MODULUS_TABLE_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1)] + sorted(gfield._MODULI)


def test_the_api_is_nine_names_and_its_scalars_are_raw_codes():
    assert algdeg.__all__ == ["FieldCtx", "make_field", "primitive_element", "Matrix",
                              "Subspace", "GroupElement", "StructureVector", "Vector",
                              "DualVector"]
    for p, k in sorted(MODULUS_TABLE_FIELDS):
        if p ** k > 2:
            g = primitive_element(make_field(p, k))
            assert type(g) is int and 0 < g < p ** k


def test_negative_powers_are_powers_of_the_inverse():
    assert make_field(5).pow(2, -1) == 3
    assert make_field(3, 2).pow(3, -1) == 6
    for p, k in MODULUS_TABLE_FIELDS:
        ctx = make_field(p, k)
        for a in range(1, ctx.order):
            inv = ctx.inv(a)
            assert ctx.pow(a, -1) == inv
            for e in range(1, ctx.order + 1):
                assert ctx.pow(a, -e) == ctx.pow(inv, e)
                assert ctx.mul(ctx.pow(a, -e), ctx.pow(a, e)) == 1
        assert ctx.pow(0, 0) == 1
        with pytest.raises(ZeroDivisionError):
            ctx.pow(0, -1)
        with pytest.raises(ZeroDivisionError):
            ctx.pow(0, -2)
    q = make_field(0, 1)
    assert q.pow(Fraction(2, 3), -2) == Fraction(9, 4)
    with pytest.raises(ZeroDivisionError):
        q.pow(0, -1)


def test_frobenius_gf4():
    # x^2 = x + 1 under x^2 + x + 1
    assert make_field(2, 2).pow(2, 2) == 3


def test_frobenius_fixes_prime_field():
    ctx = make_field(5)
    for a in ctx.raw_elements():
        assert ctx.pow(a, 5) == a


def test_frobenius_gf9():
    # x^3 = -x under x^2 + 1
    ctx = make_field(3, 2)
    assert ctx.pow(3, 3) == ctx.neg(3)


@pytest.mark.parametrize("p,k", sorted(gfield._MODULI))
def test_frobenius_is_automorphism(p, k):
    # x -> x^p is additive and multiplicative, and its k-th power is the identity
    ctx = make_field(p, k)
    els = ctx.raw_elements()

    def frob(a):
        return ctx.pow(a, p)

    for a, b in product(els, repeat=2):
        assert frob(ctx.add(a, b)) == ctx.add(frob(a), frob(b))
        assert frob(ctx.mul(a, b)) == ctx.mul(frob(a), frob(b))
    moved = 0
    for a in els:
        r = a
        for _ in range(k):
            r = frob(r)
        assert r == a
        moved += frob(a) != a
    # it fixes the prime field only, so it is not the identity
    assert moved == p ** k - p


def test_ctx_identity():
    assert make_field(3, 2) == make_field(3, 2)
    assert make_field(3) != make_field(5)
    assert make_field(0, 1) == make_field(0, 1)


def test_json_round_trip():
    for p, k in [(3, 1), (2, 3), (5, 2)]:
        ctx = make_field(p, k)
        assert FieldCtx.from_json(ctx.to_json()) == ctx
    q = make_field(0, 1)
    raw = q.raw_from_json("3/4")
    assert raw == Fraction(3, 4)
    assert q.raw_to_json(raw) == "3/4"


@pytest.mark.parametrize("d", [
    {"char": 5, "modulus": [9, 9, 9]}, {"char": 5, "degree": 1, "modulus": []},
    {"char": 0, "modulus": [1, 0, 1]}, {"char": 2, "degree": 2, "modulus": [1, 0, 1]}])
def test_json_refuses_a_modulus_the_frozen_table_does_not_hold(d):
    # a prime field and Q have no modulus, so a descriptor that gives one is refused
    with pytest.raises(ValueError, match="disagrees with the frozen table"):
        FieldCtx.from_json(d)


def _digits(r, p, k):
    return [(r // p ** t) % p for t in range(k)]


def _undigits(ds, p):
    return sum(d % p * p ** t for t, d in enumerate(ds))


def test_row_kernels_match_scalar_ops():
    # every tabled field; add/neg against base-p digit arithmetic
    for p, k in [(3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2)]:
        ctx = make_field(p, k)
        els = ctx.raw_elements()
        for a in els:
            da = _digits(a, p, k)
            assert ctx.neg(a) == _undigits([-x for x in da], p)
            for b in els:
                db = _digits(b, p, k)
                assert ctx.add(a, b) == _undigits([x + y for x, y in zip(da, db)], p)
        u = els[: min(6, len(els))]
        v = list(reversed(u))
        for c in els:
            expect = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(u, v)]
            assert list(ctx.row_submul(u, v, c)) == expect
            assert list(ctx.row_scale(u, c)) == [ctx.mul(c, x) for x in u]


def test_gf25_constructible():
    ctx = make_field(5, 2)
    assert ctx.order == 25
    assert ctx.modulus == (1, 1, 1)
    g = primitive_element(ctx)
    assert multiplicative_order(ctx, g) == 24


def test_raw_codes_outside_the_field_are_rejected():
    for p, k in [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (5, 2)]:
        ctx = make_field(p, k)
        q = ctx.order
        assert ctx.raw_from_json(q - 1) == q - 1
        for code in (-1, q, q + 3, 1.5, 1.0, True, "1"):
            with pytest.raises(ValueError):
                ctx.raw_from_json(code)
        for code in (-1, q, q + 3):
            if k == 1:
                # over GF(p) the integer and the code readings agree
                assert ctx._coerce(code) == code % p
            else:
                with pytest.raises(ValueError):
                    ctx._coerce(code)
    gf9 = make_field(3, 2)
    assert gf9._coerce(5) == 5
    assert gf9.from_int(10) == 1
    # over Q a raw code is a non-bool integer or a 'p/q' string, never a float
    rationals = make_field(0)
    assert rationals.raw_from_json(-3) == -3
    assert rationals.raw_from_json("-3/4") == Fraction(-3, 4)
    for code in (0.1, 1.0, float("inf"), float("nan"), True, False, None, "3", "1/0",
                 "1/2/3", [1, 2]):
        with pytest.raises(ValueError):
            rationals.raw_from_json(code)
