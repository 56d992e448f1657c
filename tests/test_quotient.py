"""Component quotient rings F_{2^m}[x]/(f) and /(f^2) through gf, the unit
walk of ideals.u_units, and the reciprocal transport on FactorData."""
from __future__ import annotations

import pytest

from literal_oracles import field_elements
from ucyclic.cyclotomic import factor_xn_minus_1
from ucyclic.gf import (P_ONE, P_X, P_ZERO, poly_ext_gcd, poly_key,
                        poly_mod, poly_mul, poly_mulmod, poly_powmod)
from ucyclic.ideals import u_units


def _inv(ctx, a, f):
    """a^(-1) mod f, by the extended gcd; None when a is no unit."""
    g, s, _ = poly_ext_gcd(ctx, poly_mod(ctx, a, f), f)
    return poly_mod(ctx, s, f) if g == P_ONE else None


def test_quot_ring_basics(fdata):
    fd = fdata(7, 1)
    ctx, f = fd.ctx, fd.factors[1]        # F_2[x]/(x^3+x+1) = F_8
    els = field_elements(fd, 1)
    assert len(els) == 8 and els[0] == () and els[1] == P_ONE
    for a in els[1:]:
        assert poly_mulmod(ctx, a, _inv(ctx, a, f), f) == P_ONE
    assert _inv(ctx, P_ZERO, f) is None
    # chain ring F_2[x]/(f^2): f is nilpotent, not invertible
    fsq = poly_mul(ctx, f, f)
    assert poly_mulmod(ctx, f, f, fsq) == ()
    assert _inv(ctx, f, fsq) is None


@pytest.mark.parametrize("s", [1, 2, 3])
def test_u_units_and_inverses(fdata, s):
    fd = fdata(3, 1)
    ctx, f = fd.ctx, fd.factors[1]        # F_4
    units = list(u_units(ctx, fd.degree(1), s))
    q = len(field_elements(fd, 1))
    assert len(units) == (q - 1) * q ** (s - 1)
    assert len(set(units)) == len(units)
    # a u-expansion is a unit iff its constant term is invertible
    for w in units:
        assert len(w) == s and w[0] != P_ZERO
        assert poly_mulmod(ctx, w[0], _inv(ctx, w[0], f), f) == P_ONE


def test_x_inverse(fdata):
    for (n, m, j) in [(7, 1, 1), (7, 1, 2), (15, 1, 2), (5, 2, 1)]:
        fd = fdata(n, m)
        assert poly_mulmod(fd.ctx, fd.x_inv(j), P_X, fd.factors[j]) == P_ONE


def test_hat_involution_selfrec(fdata):
    fd = fdata(15, 1)
    for j in (1, 2):                      # self-reciprocal components
        ctx, f = fd.ctx, fd.factors[j]
        for a in field_elements(fd, j):
            assert fd.hat(j, fd.hat(j, a)) == a
        # hat is a ring morphism
        a, b = (1, 1), (0, 1)
        assert fd.hat(j, poly_mulmod(ctx, a, b, f)) == poly_mulmod(
            ctx, fd.hat(j, a), fd.hat(j, b), f)


def test_hat_pair_roundtrip(fdata):
    fd = fdata(7, 1)
    j, jm = 1, 2
    for a in field_elements(fd, j):
        b = fd.hat(j, a)                  # lands mod f_mate
        assert fd.hat(jm, b) == a


def test_omega_prime_roundtrip(fdata):
    # omega'' = delta^2 x^(-2d) hat(hat(w)) = w since delta in F_{2^m},
    # hat an involution on the pair, and x^(-d) transported consistently
    for (n, m) in [(7, 1), (15, 1), (3, 2)]:
        fd = fdata(n, m)
        for j in fd.component_indices():
            for s in (1, 2):
                for w in list(u_units(fd.ctx, fd.degree(j), s))[:6]:
                    wp = fd.omega_prime(j, w)
                    wpp = fd.omega_prime(fd.mate(j), wp)
                    assert wpp == w


def test_u_key_orders(fdata):
    fd = fdata(3, 1)
    units = list(u_units(fd.ctx, fd.degree(1), 2))
    keys = [tuple(poly_key(fd.ctx, x) for x in w) for w in units]
    assert len(set(keys)) == len(keys)
    assert all(k[0] != 0 for k in keys)   # unit constant term
    # mixed-radix counter order, a_0 fastest
    assert [k[::-1] for k in keys] == sorted(k[::-1] for k in keys)


# ---------------------------------------------------------------------------
# per-factor constants kept on FactorData
# ---------------------------------------------------------------------------

def _fresh_constants(fd, j):
    """The per-factor constants derived from scratch through gf."""
    ctx, d, jm = fd.ctx, fd.degree(j), fd.mate(j)
    f, fm = fd.factors[j], fd.factors[jm]
    xi, xim = _inv(ctx, P_X, f), _inv(ctx, P_X, fm)
    return {
        "f_eps": poly_mulmod(ctx, fd.factors[j], fd.idempotents[j],
                             fd.modulus_2n()),
        "x_inv": xi,
        "hat_basis": tuple(poly_powmod(ctx, xi, i, f) for i in range(d)),
        "transport_basis": tuple(
            poly_mulmod(ctx, (fd.delta[j],), poly_powmod(ctx, xim, d + i, fm),
                        fm)
            for i in range(d)),
    }


@pytest.mark.parametrize("n,m,modulus", [(1, 2, None), (7, 1, None),
                                         (15, 1, None), (5, 2, None),
                                         (9, 2, None), (7, 3, 0xd),
                                         (3, 4, 0x19)])
def test_factor_constants_match_fresh_derivation(n, m, modulus):
    fd = factor_xn_minus_1(n, m, modulus)
    assert not fd._consts  # nothing is derived up front
    for j in range(fd.r):
        for name, want in _fresh_constants(fd, j).items():
            got = getattr(fd, name)(j)
            assert got == want, (n, m, j, name)
            assert getattr(fd, name)(j) is got  # derived once, then kept
        assert fd.omega_prime(j, (P_ONE,)) == (fd.transport_basis(j)[0],)


def test_factor_constants_not_shared_across_moduli():
    # F_8 under y^3+y+1 and under y^3+y^2+1: same (n, m), different fields
    fa = factor_xn_minus_1(7, 3)
    fb = factor_xn_minus_1(7, 3, 0xd)
    assert fa.ctx != fb.ctx and fa._consts is not fb._consts
    assert factor_xn_minus_1(7, 3) is not fa  # no process-wide cache
    for fd in (fa, fb):
        for j in range(fd.r):
            for name, want in _fresh_constants(fd, j).items():
                assert getattr(fd, name)(j) == want, (fd.ctx, j, name)
    assert any(fa.f_eps(j) != fb.f_eps(j) for j in range(fa.r))
