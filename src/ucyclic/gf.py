"""Arithmetic in F_{2^m} and for polynomials over F_{2^m}.

Two layers live here:

* GF(2)[y] polynomials encoded as nonnegative ints (bit i = coefficient of y^i),
  used for field moduli.  Helpers are prefixed ``f2x_``.
* Field elements of F_{2^m} = F_2[y]/(modulus), also plain ints (< 2^m).
  A :class:`FieldCtx` owns the modulus and its log/antilog tables.
* Polynomials over F_{2^m} as tuples of ints with no trailing zeros; the zero
  polynomial is the empty tuple.  Helpers are prefixed ``poly_``.

The canonical order on polynomials over F_{2^m} is by the integer key
sum(c_i * 2^(m*i)); every "first"/"smallest" choice in the package refers to
this key.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import TooLarge

# Largest m of any field the package builds: a FieldCtx holds log and
# antilog tables of 2^m entries each.
MAX_M = 16


# ---------------------------------------------------------------------------
# GF(2)[y] as ints
# ---------------------------------------------------------------------------

def f2x_degree(a: int) -> int:
    """Degree of the int-encoded GF(2) polynomial a (-1 for zero)."""
    return a.bit_length() - 1


def f2x_mul(a: int, b: int) -> int:
    """Carry-less product of int-encoded GF(2) polynomials."""
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def f2x_mod(a: int, b: int) -> int:
    """Remainder of a modulo b (b != 0)."""
    if b == 0:
        raise ZeroDivisionError("mod by zero polynomial")
    db = f2x_degree(b)
    while a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def f2x_mulmod(a: int, b: int, mod: int) -> int:
    return f2x_mod(f2x_mul(a, b), mod)


def f2x_powmod(a: int, e: int, mod: int) -> int:
    """a^e modulo mod, for e >= 0."""
    r = f2x_mod(1, mod)
    while e:
        if e & 1:
            r = f2x_mulmod(r, a, mod)
        a = f2x_mulmod(a, a, mod)
        e >>= 1
    return r


def f2x_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, f2x_mod(a, b)
    return a


def f2x_is_irreducible(a: int) -> bool:
    """Rabin irreducibility test over GF(2).

    a of degree d >= 1 is irreducible iff y^(2^d) = y mod a and, for every
    prime p dividing d, gcd(y^(2^(d/p)) - y, a) = 1.
    """
    d = f2x_degree(a)
    if d < 1:
        return False
    if d == 1:
        return True
    if not a & 1:  # divisible by y
        return False
    checks = {d // p for p in _factorint(d)}
    h = 0b10
    for i in range(1, d + 1):
        h = f2x_mulmod(h, h, a)
        if i in checks and f2x_gcd(h ^ 0b10, a) != 1:
            return False
    return h == 0b10


@lru_cache(maxsize=None)
def default_modulus(m: int) -> int:
    """Smallest int encoding an irreducible degree-m polynomial over GF(2).

    Gives y+1 (0x3), y^2+y+1 (0x7), y^3+y+1 (0xb), y^4+y+1 (0x13), ...
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    # nonzero constant term, so m=1 gives y+1 rather than y
    for a in range((1 << m) | 1, 1 << (m + 1), 2):
        if f2x_is_irreducible(a):
            return a
    raise AssertionError("unreachable: an irreducible of each degree exists")


@lru_cache(maxsize=None)
def _factorint(nval: int) -> tuple[int, ...]:
    """Distinct prime factors of nval >= 1, ascending, by trial division.

    The package factors only small degrees and 2^e - 1 for field orders
    2^e with e <= 24, so the divisors tried stay below 2^12.
    """
    primes, p = [], 2
    while p * p <= nval:
        if nval % p == 0:
            primes.append(p)
            while nval % p == 0:
                nval //= p
        p += 1
    return tuple(primes + [nval] if nval > 1 else primes)


# ---------------------------------------------------------------------------
# F_{2^m}
# ---------------------------------------------------------------------------

def check_modulus(m: int, modulus: int | None = None) -> int:
    """The modulus of F_{2^m} (default per m); ValueError unless it is an
    irreducible of degree m, TooLarge for m above MAX_M."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > MAX_M:
        raise TooLarge(f"m={m} is above the cap of {MAX_M}")
    if modulus is None:
        return default_modulus(m)
    if f2x_degree(modulus) != m:
        raise ValueError(f"modulus degree {f2x_degree(modulus)} != m={m}")
    if not f2x_is_irreducible(modulus):
        raise ValueError(f"modulus {modulus:#x} is reducible")
    return modulus


class FieldCtx:
    """The field F_{2^m} = F_2[y]/(modulus), elements as ints < 2^m."""

    __slots__ = ("m", "modulus", "order", "_exp", "_log")

    def __init__(self, m: int, modulus: int | None = None):
        modulus = check_modulus(m, modulus)
        self.m = m
        self.modulus = modulus
        self.order = 1 << m
        exp = [1] * (self.order - 1)
        g = find_generator(m, modulus)
        for i in range(1, len(exp)):
            exp[i] = f2x_mulmod(exp[i - 1], g, modulus)
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp + exp   # any sum of two logs indexes it unreduced
        self._log = log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[self.order - 1 - self._log[a]]

    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and self.m == other.m and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.m, self.modulus))

    def __repr__(self):
        return f"FieldCtx(m={self.m}, modulus={self.modulus:#x})"


def find_generator(m: int, modulus: int) -> int:
    """Smallest int generating the multiplicative group of F_2[y]/(modulus),
    for an irreducible modulus of degree m (not capped at MAX_M, but
    2^m - 1 is factored by trial division)."""
    q1 = (1 << m) - 1
    if q1 == 1:
        return 1
    exps = [q1 // p for p in _factorint(q1)]
    for g in range(2, q1 + 1):
        if all(f2x_powmod(g, e, modulus) != 1 for e in exps):
            return g
    raise AssertionError("no field generator found")


# ---------------------------------------------------------------------------
# Polynomials over F_{2^m}: tuples of ints, no trailing zeros
# ---------------------------------------------------------------------------

Poly = tuple  # alias used in signatures

P_ZERO: Poly = ()
P_ONE: Poly = (1,)
P_X: Poly = (0, 1)


def poly_trim(cs) -> Poly:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_degree(a: Poly) -> int:
    return len(a) - 1


def poly_add(a: Poly, b: Poly) -> Poly:
    """Sum (== difference) of polynomials; coefficientwise xor."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] ^= c
    return poly_trim(out)


def poly_mul(ctx: FieldCtx, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return P_ZERO
    out = [0] * (len(a) + len(b) - 1)
    mul = ctx.mul
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] ^= mul(ca, cb)
    return poly_trim(out)


def poly_scale(ctx: FieldCtx, a: Poly, c: int) -> Poly:
    if c == 0:
        return P_ZERO
    if c == 1:
        return a
    return poly_trim(ctx.mul(x, c) for x in a)


def poly_divmod(ctx: FieldCtx, a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    db = poly_degree(b)
    lead_inv = ctx.inv(b[-1])
    rem = list(a)
    if poly_degree(a) < db:
        return P_ZERO, a
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        f = ctx.mul(c, lead_inv)
        quot[i - db] = f
        for j, cb in enumerate(b):
            rem[i - db + j] ^= ctx.mul(f, cb)
    return poly_trim(quot), poly_trim(rem)


def poly_mod(ctx: FieldCtx, a: Poly, b: Poly) -> Poly:
    return poly_divmod(ctx, a, b)[1]


def poly_monic(ctx: FieldCtx, a: Poly) -> Poly:
    if not a or a[-1] == 1:
        return a
    return poly_scale(ctx, a, ctx.inv(a[-1]))


def poly_gcd(ctx: FieldCtx, a: Poly, b: Poly) -> Poly:
    """The monic gcd(a, b), without the Bezout cofactors."""
    while b:
        a, b = b, poly_mod(ctx, a, b)
    return poly_monic(ctx, a)


def poly_ext_gcd(ctx: FieldCtx, a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b), g monic."""
    s, s1 = P_ONE, P_ZERO
    t, t1 = P_ZERO, P_ONE
    while b:
        q, r = poly_divmod(ctx, a, b)
        a, b = b, r
        s, s1 = s1, poly_add(s, poly_mul(ctx, q, s1))
        t, t1 = t1, poly_add(t, poly_mul(ctx, q, t1))
    if a and a[-1] != 1:
        c = ctx.inv(a[-1])
        a = poly_scale(ctx, a, c)
        s = poly_scale(ctx, s, c)
        t = poly_scale(ctx, t, c)
    return a, s, t


def poly_mulmod(ctx: FieldCtx, a: Poly, b: Poly, mod: Poly) -> Poly:
    return poly_mod(ctx, poly_mul(ctx, a, b), mod)


def poly_powmod(ctx: FieldCtx, a: Poly, e: int, mod: Poly) -> Poly:
    r = poly_mod(ctx, P_ONE, mod)
    a = poly_mod(ctx, a, mod)
    while e:
        if e & 1:
            r = poly_mulmod(ctx, r, a, mod)
        a = poly_mulmod(ctx, a, a, mod)
        e >>= 1
    return r


def reciprocal(a: Poly) -> Poly:
    """x^deg(a) * a(1/x): the coefficient tuple reversed (then trimmed)."""
    return poly_trim(reversed(a))


def poly_key(ctx: FieldCtx, a) -> int:
    """Canonical integer key: sum of c_i * 2^(m*i), for any sequence of
    field elements (also the lane-packed form of a row of symbols)."""
    key = 0
    for i, c in enumerate(a):
        key |= c << (ctx.m * i)
    return key


def poly_from_key(ctx: FieldCtx, key: int) -> Poly:
    mask = ctx.order - 1
    cs = []
    while key:
        cs.append(key & mask)
        key >>= ctx.m
    return tuple(cs)

