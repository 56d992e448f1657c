"""Field and polynomial arithmetic over F_{2^m}."""
from __future__ import annotations

import pytest

from ucyclic.errors import TooLarge
from ucyclic.gf import (MAX_M, FieldCtx, P_ONE, P_ZERO, _factorint,
                        default_modulus, f2x_degree, f2x_is_irreducible,
                        f2x_mul, f2x_mulmod, poly_add,
                        poly_degree, poly_divmod, poly_ext_gcd, poly_from_key,
                        poly_gcd, poly_key, poly_mod, poly_monic, poly_mul,
                        poly_mulmod, poly_powmod, poly_trim, reciprocal)


def test_f2x_basics():
    # (y+1)(y+1) = y^2+1; (y^2+y+1)(y+1) = y^3+1
    assert f2x_mul(0b11, 0b11) == 0b101
    assert f2x_mul(0b111, 0b11) == 0b1001
    assert f2x_degree(0b1001) == 3
    assert f2x_is_irreducible(0b111)          # y^2+y+1
    assert not f2x_is_irreducible(0b101)      # (y+1)^2
    assert f2x_is_irreducible(0b10011)        # y^4+y+1
    assert f2x_is_irreducible(0b11111)        # y^4+y^3+y^2+y+1 (ord_5(2) = 4)
    assert not f2x_is_irreducible(0b10101)    # y^4+y^2+1 = (y^2+y+1)^2


def test_default_moduli():
    assert [default_modulus(m) for m in (1, 2, 3, 4)] == [0x3, 0x7, 0xb, 0x13]
    with pytest.raises(ValueError):
        default_modulus(0)


def test_fieldctx_rejects_bad_modulus():
    with pytest.raises(ValueError):
        FieldCtx(2, 0b101)     # (y+1)^2 is reducible
    with pytest.raises(ValueError):
        FieldCtx(2, 0b1011)    # degree 3 != m


def test_fieldctx_refuses_m_above_the_cap():
    assert MAX_M == 16
    with pytest.raises(TooLarge, match="m=17 is above the cap of 16"):
        FieldCtx(17)
    with pytest.raises(TooLarge):          # a valid modulus changes nothing
        FieldCtx(17, default_modulus(17))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_field_inverses(m):
    ctx = FieldCtx(m)
    for a in range(1, ctx.order):
        assert ctx.mul(a, ctx.inv(a)) == 1
    # Frobenius fixed field: a^2 = a iff a in {0, 1}
    frob_fixed = [a for a in range(ctx.order) if ctx.mul(a, a) == a]
    assert frob_fixed == [0, 1]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_field_mul_is_the_product_mod_the_modulus(m):
    ctx = FieldCtx(m)
    for a in range(ctx.order):
        for b in range(ctx.order):
            assert ctx.mul(a, b) == f2x_mulmod(a, b, ctx.modulus), (a, b)


def test_gf16_power_table():
    # F_16 with y^4 = y + 1: y^4 = 0b0011, y^7 = y^3+y+1 = 0b1011
    ctx = FieldCtx(4, 0x13)
    p = 1
    for _ in range(4):
        p = ctx.mul(p, 2)
    assert p == 0b0011
    p = 1
    for _ in range(7):
        p = ctx.mul(p, 2)
    assert p == 0b1011


def test_poly_trim_and_key():
    ctx = FieldCtx(2)
    assert poly_trim([1, 0, 2, 0, 0]) == (1, 0, 2)
    assert poly_trim([0, 0]) == ()
    for key in range(64):
        assert poly_key(ctx, poly_from_key(ctx, key)) == key
    assert poly_degree(()) == -1
    assert poly_from_key(ctx, 1 << (3 * ctx.m)) == (0, 0, 0, 1)   # x^3


def test_poly_arith_identities():
    ctx = FieldCtx(3)
    a = (1, 5, 0, 3)          # F_8 coefficients
    b = (4, 1)
    q, r = poly_divmod(ctx, a, b)
    assert poly_add(poly_mul(ctx, q, b), r) == a
    assert poly_degree(r) < poly_degree(b)
    assert poly_mod(ctx, a, b) == r
    assert poly_mul(ctx, a, b) == poly_mul(ctx, b, a)
    assert poly_mul(ctx, a, P_ONE) == a
    assert poly_mul(ctx, a, P_ZERO) == ()


def test_poly_gcd_and_ext_gcd():
    ctx = FieldCtx(1)
    # gcd(x^4+1, x^3+1) = x+1 over F_2
    a, b = (1, 0, 0, 0, 1), (1, 0, 0, 1)
    g, s, t = poly_ext_gcd(ctx, a, b)
    assert g == (1, 1)
    assert poly_add(poly_mul(ctx, s, a), poly_mul(ctx, t, b)) == g
    assert poly_gcd(ctx, a, b) == poly_gcd(ctx, b, a) == g
    # coprime pair gives a usable inverse
    f, mod = (1, 1), (1, 1, 1)
    g3, s3, _ = poly_ext_gcd(ctx, f, mod)
    assert g3 == P_ONE
    assert poly_mulmod(ctx, f, s3, mod) == P_ONE
    assert poly_gcd(ctx, f, mod) == P_ONE
    # over F_4 the gcd comes out monic: gcd(w(x+1)(x+w), w^2(x+1)) = x+1
    ctx4 = FieldCtx(2)
    w = 2
    lin = (1, 1)
    a4 = poly_mul(ctx4, (w,), poly_mul(ctx4, lin, (w, 1)))
    b4 = poly_mul(ctx4, (ctx4.mul(w, w),), lin)
    assert poly_gcd(ctx4, a4, b4) == poly_ext_gcd(ctx4, a4, b4)[0] == lin


def test_poly_powmod_fermat():
    ctx = FieldCtx(1)
    mod = (1, 1, 0, 1)  # irreducible cubic: x^3 + x + 1
    # x^(2^3) = x in F_8
    assert poly_powmod(ctx, (0, 1), 8, mod) == (0, 1)


def test_reciprocal_and_monic():
    ctx = FieldCtx(2)
    a = (2, 0, 1, 3)
    assert reciprocal(a) == (3, 1, 0, 2)
    assert reciprocal(reciprocal(a)) == a
    assert reciprocal((0, 0, 1)) == (1,)      # trailing zeros trimmed
    mon = poly_monic(ctx, a)
    assert mon[-1] == 1
    assert poly_monic(ctx, mon) == mon


def _trial_primes(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def test_factorint_small_values():
    for n in range(1, 5000):
        assert _factorint(n) == tuple(_trial_primes(n)), n
    # squares, cubes and products of primes above 1000, up to 10^12
    for n in (1009 ** 2, 1009 * 1013, 1009 ** 3 * 1013, 999983 * 1000003):
        assert _factorint(n) == tuple(_trial_primes(n)), n
