"""Component quotient rings, truncated u-arithmetic, and unit transport."""
from __future__ import annotations

import pytest

from ucyclic.cyclotomic import factor_xn_minus_1
from ucyclic.gf import P_ONE, P_X, P_ZERO, poly_key, poly_mulmod
from ucyclic import quotient as qt


def test_quot_ring_basics(fdata):
    fd = fdata(7, 1)
    ring = qt.field_ring(fd, 1)           # F_2[x]/(x^3+x+1) = F_8
    assert ring.size() == 8
    els = list(ring.elements())
    assert len(els) == 8 and els[0] == () and els[1] == P_ONE
    for a in els[1:]:
        assert ring.mul(a, ring.inv(a)) == P_ONE
    with pytest.raises(ZeroDivisionError):
        ring.inv(P_ZERO)
    # chain ring: f is nilpotent, not invertible
    cring = qt.chain_ring(fd, 1)
    f = fd.factors[1]
    assert cring.mul(f, f) == ()
    with pytest.raises(ZeroDivisionError):
        cring.inv(f)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_u_units_and_inverses(fdata, s):
    fd = fdata(3, 1)
    ring = qt.field_ring(fd, 1)           # F_4
    units = list(qt.u_units(ring, s))
    q = ring.size()
    assert len(units) == (q - 1) * q ** (s - 1)
    assert len(set(units)) == len(units)
    # a u-expansion is a unit iff its constant term is invertible
    for w in units:
        assert len(w) == s and w[0] != P_ZERO
        assert ring.mul(w[0], ring.inv(w[0])) == P_ONE


def test_x_inverse(fdata):
    for (n, m, j) in [(7, 1, 1), (7, 1, 2), (15, 1, 2), (5, 2, 1)]:
        fd = fdata(n, m)
        ring = qt.field_ring(fd, j)
        assert ring.mul(fd.x_inv(j), P_X) == P_ONE


def test_hat_involution_selfrec(fdata):
    fd = fdata(15, 1)
    for j in (1, 2):                      # self-reciprocal components
        ring = qt.field_ring(fd, j)
        for a in ring.elements():
            assert qt.hat(fd, j, qt.hat(fd, j, a)) == a
        # hat is a ring morphism
        a, b = (1, 1), (0, 1)
        assert qt.hat(fd, j, ring.mul(a, b)) == ring.mul(
            qt.hat(fd, j, a), qt.hat(fd, j, b))


def test_hat_pair_roundtrip(fdata):
    fd = fdata(7, 1)
    j, jm = 1, 2
    ring_src = qt.field_ring(fd, j)
    for a in ring_src.elements():
        b = qt.hat(fd, j, a)              # lands mod f_mate
        assert qt.hat(fd, jm, b) == a


def test_omega_prime_roundtrip(fdata):
    # omega'' = delta^2 x^(-2d) hat(hat(w)) = w since delta in F_{2^m},
    # hat an involution on the pair, and x^(-d) transported consistently
    for (n, m) in [(7, 1), (15, 1), (3, 2)]:
        fd = fdata(n, m)
        for j in fd.component_indices():
            ring = qt.field_ring(fd, j)
            for s in (1, 2):
                for w in list(qt.u_units(ring, s))[:6]:
                    wp = qt.omega_prime(fd, j, w)
                    wpp = qt.omega_prime(fd, fd.mate(j), wp)
                    assert wpp == w


def test_u_key_orders(fdata):
    fd = fdata(3, 1)
    ring = qt.field_ring(fd, 1)
    units = list(qt.u_units(ring, 2))
    keys = [tuple(poly_key(fd.ctx, x) for x in w) for w in units]
    assert len(set(keys)) == len(keys)
    assert all(k[0] != 0 for k in keys)   # unit constant term
    # mixed-radix counter order, a_0 fastest
    assert [k[::-1] for k in keys] == sorted(k[::-1] for k in keys)


# ---------------------------------------------------------------------------
# per-factor constants kept on FactorData
# ---------------------------------------------------------------------------

def _fresh_constants(fd, j):
    """The per-factor constants derived from scratch through gf/quotient."""
    ctx, d, jm = fd.ctx, fd.degree(j), fd.mate(j)
    ring, ring_m = qt.field_ring(fd, j), qt.field_ring(fd, jm)
    xi = ring.inv(P_X)
    return {
        "f_eps": poly_mulmod(ctx, fd.factors[j], fd.idempotents[j],
                             fd.modulus_2n()),
        "x_inv": xi,
        "hat_basis": tuple(ring.pow(xi, i) for i in range(d)),
        "transport_basis": tuple(
            ring_m.mul((fd.delta[j],), ring_m.pow(P_X, -(d + i)))
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
        assert qt.omega_prime(fd, j, (P_ONE,)) == (fd.transport_basis(j)[0],)


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
