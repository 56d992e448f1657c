"""Quotient rings attached to each factor and u-truncated arithmetic.

For a factor f of x^n - 1 over F_{2^m} there are two quotients in play:

* the field F_f  = F_{2^m}[x]/(f), and
* the chain ring K_f = F_{2^m}[x]/(f^2), whose maximal ideal is (f).

Ring elements are the polynomial tuples of :mod:`ucyclic.gf`, reduced mod the
respective modulus.  On top of either ring sits the truncated polynomial ring
ring[u]/(u^s): a "u-element" is a plain tuple of s ring elements, constant
u-coefficient first.
"""

from __future__ import annotations

from .gf import (FieldCtx, Poly, P_ONE, P_ZERO, poly_add, poly_degree,
                 poly_ext_gcd, poly_from_key, poly_mod, poly_mul, poly_mulmod,
                 poly_powmod, poly_scale)


class QuotRing:
    """F_{2^m}[x] modulo a fixed polynomial."""

    __slots__ = ("ctx", "modulus", "deg")

    def __init__(self, ctx: FieldCtx, modulus: Poly):
        self.ctx = ctx
        self.modulus = modulus
        self.deg = poly_degree(modulus)

    def reduce(self, a: Poly) -> Poly:
        return poly_mod(self.ctx, a, self.modulus)

    def mul(self, a: Poly, b: Poly) -> Poly:
        return poly_mulmod(self.ctx, a, b, self.modulus)

    def pow(self, a: Poly, e: int) -> Poly:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return poly_powmod(self.ctx, a, e, self.modulus)

    def inv(self, a: Poly) -> Poly:
        g, s, _ = poly_ext_gcd(self.ctx, self.reduce(a), self.modulus)
        if g != P_ONE:
            raise ZeroDivisionError(f"{a} is not a unit")
        return self.reduce(s)

    def elements(self):
        """All elements, in canonical key order (2^(m*deg) of them)."""
        for key in range(1 << (self.ctx.m * self.deg)):
            yield poly_from_key(self.ctx, key)

    def size(self) -> int:
        return 1 << (self.ctx.m * self.deg)

    def __repr__(self):
        return f"QuotRing(m={self.ctx.m}, modulus={self.modulus})"


def field_ring(fd, j: int) -> QuotRing:
    """F_{2^m}[x]/(f_j)."""
    return QuotRing(fd.ctx, fd.factors[j])


def chain_ring(fd, j: int) -> QuotRing:
    """F_{2^m}[x]/(f_j^2)."""
    f = fd.factors[j]
    return QuotRing(fd.ctx, poly_mul(fd.ctx, f, f))


# ---------------------------------------------------------------------------
# ring[u]/(u^s)
# ---------------------------------------------------------------------------

UElem = tuple  # tuple of s ring elements, u^0 coefficient first


def u_units(ring: QuotRing, s: int):
    """All units of ring[u]/(u^s) for a *field* base ring, in canonical order.

    Order: constant term key ascending within each tail, tails ascending; i.e.
    the mixed-radix counter (a_0, a_1, ..., a_{s-1}) with a_0 fastest.
    """
    size = ring.size()
    for w in range(size ** s):
        digits = []
        t = w
        for _ in range(s):
            digits.append(t % size)
            t //= size
        if digits[0] == 0:
            continue
        yield tuple(poly_from_key(ring.ctx, d) for d in digits)


# ---------------------------------------------------------------------------
# the x -> x^(-1) substitution and the omega' transport
# ---------------------------------------------------------------------------

def _combine(ctx: FieldCtx, basis, a: Poly) -> Poly:
    """sum a_i * basis[i]: the linear map with those basis images at a."""
    if len(a) > len(basis):
        raise ValueError(f"{a} is not reduced mod the factor")
    out = P_ZERO
    for c, p in zip(a, basis):
        if c:
            out = poly_add(out, poly_scale(ctx, p, c))
    return out


def hat(fd, j: int, a: Poly) -> Poly:
    """a(x^(-1)) reduced mod f_{mate(j)}, for ``a`` reduced mod f_j.

    For self-reciprocal factors this is an involution of F_{f}; for a pair it
    carries F_{f_j} onto F_{f_mate}.
    """
    return _combine(fd.ctx, fd.hat_basis(fd.mate(j)), a)


def omega_prime(fd, j: int, omega: UElem) -> UElem:
    """Transport of a unit: delta_j * x^(-d_j) * hat(omega), mod f_{mate(j)}.

    This is the omega' appearing in the reciprocal-pair matching of ideals
    (``selfdual.mate_label``); for self-reciprocal factors the target is f_j
    itself.
    """
    basis = fd.transport_basis(j)
    return tuple(_combine(fd.ctx, basis, x) for x in omega)
