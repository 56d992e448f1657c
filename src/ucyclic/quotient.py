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
                 poly_from_key, poly_key, poly_mod, poly_mul, poly_mulmod,
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

    def add(self, a: Poly, b: Poly) -> Poly:
        return poly_add(a, b)

    def mul(self, a: Poly, b: Poly) -> Poly:
        return poly_mulmod(self.ctx, a, b, self.modulus)

    def pow(self, a: Poly, e: int) -> Poly:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return poly_powmod(self.ctx, a, e, self.modulus)

    def inv(self, a: Poly) -> Poly:
        from .gf import poly_ext_gcd
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


def u_zero(s: int) -> UElem:
    return (P_ZERO,) * s


def u_one(s: int) -> UElem:
    return (P_ONE,) + (P_ZERO,) * (s - 1)


def u_add(a: UElem, b: UElem) -> UElem:
    return tuple(poly_add(x, y) for x, y in zip(a, b))


def u_mul(ring: QuotRing, a: UElem, b: UElem) -> UElem:
    """Product in ring[u]/(u^s), s = len(a) = len(b)."""
    s = len(a)
    out = [P_ZERO] * s
    for i, x in enumerate(a):
        if not x:
            continue
        for j in range(s - i):
            y = b[j]
            if y:
                out[i + j] = poly_add(out[i + j], ring.mul(x, y))
    return tuple(out)


def u_scale(ring: QuotRing, a: UElem, c: Poly) -> UElem:
    return tuple(ring.mul(x, c) for x in a)


def is_unit(ring: QuotRing, a: UElem) -> bool:
    """Units of ring[u]/(u^s) are exactly those with a unit constant term."""
    try:
        ring.inv(a[0])
    except ZeroDivisionError:
        return False
    return True


def u_inv(ring: QuotRing, a: UElem) -> UElem:
    """Series inverse in ring[u]/(u^s)."""
    s = len(a)
    b0 = ring.inv(a[0])
    out = [b0] + [P_ZERO] * (s - 1)
    for i in range(1, s):
        acc = P_ZERO
        for j in range(1, i + 1):
            acc = poly_add(acc, ring.mul(a[j], out[i - j]))
        out[i] = ring.mul(b0, acc)  # char 2: -acc == acc
    return tuple(out)


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


def u_key(ctx: FieldCtx, a: UElem) -> tuple[int, ...]:
    """Canonical sort key for u-elements."""
    return tuple(poly_key(ctx, x) for x in a)


# ---------------------------------------------------------------------------
# the x -> x^(-1) substitution and the omega' transport
# ---------------------------------------------------------------------------

def x_inverse(fd, j: int) -> Poly:
    """x^(-1) = x^(n-1) reduced mod f_j (valid since f_j divides x^n - 1)."""
    return fd.x_inv(j)


def _combine(ctx: FieldCtx, basis, a: Poly) -> Poly:
    """sum a_i * basis[i]: the linear map with those basis images at a."""
    if len(a) > len(basis):
        raise ValueError(f"{a} is not reduced mod the factor")
    out = P_ZERO
    for c, p in zip(a, basis):
        if c:
            out = poly_add(out, poly_scale(ctx, p, c))
    return out


def hat(fd, j_src: int, a: Poly, j_dst: int | None = None) -> Poly:
    """a(x^(-1)) reduced mod f_{j_dst} (default: the mate of j_src).

    For self-reciprocal factors this is an involution of F_{f}; for a pair it
    carries F_{f_j} onto F_{f_mate}.  ``a`` is reduced mod f_{j_src}.
    """
    if j_dst is None:
        j_dst = fd.mate(j_src)
    return _combine(fd.ctx, fd.hat_basis(j_dst), a)


def hat_u(fd, j_src: int, a: UElem, j_dst: int | None = None) -> UElem:
    """hat applied to every u-coefficient."""
    return tuple(hat(fd, j_src, x, j_dst) for x in a)


def omega_prime(fd, j: int, omega: UElem) -> UElem:
    """Transport of a unit: delta_j * x^(-d_j) * hat(omega), mod f_{mate(j)}.

    This is the omega' appearing in the reciprocal-pair matching of ideals and
    in the k = 2 dual tables; for self-reciprocal factors the target is f_j
    itself.
    """
    basis = fd.transport_basis(j)
    return tuple(_combine(fd.ctx, basis, x) for x in omega)
