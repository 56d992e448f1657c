"""Factorization of x^n - 1 over F_{2^m} (n odd) and the CRT idempotents.

x^n - 1 splits into distinct monic irreducibles f_1 ... f_r with f_1 = x - 1;
squaring gives the repeated-root factorization of x^(2n) - 1.  Factors come
from cyclotomic cosets mod n under multiplication by 2^m: the coset of i
yields the minimal polynomial of gamma^i for a primitive n-th root of unity
gamma living in the splitting field F_{2^(m*t)}, t = ord_n(2^m).

Factor ordering (fixed, everything downstream depends on it):

* index 0: x - 1,
* then the remaining self-reciprocal factors, by (degree, canonical key),
* then one representative per reciprocal pair, by (degree, canonical key of
  the representative), where the representative is the pair's canonically
  smaller member; the mates follow in the same order, so factor j's mate sits
  at j + num_pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import gf
from .errors import TooLarge
from .gf import (FieldCtx, Poly, P_ONE, P_X, check_modulus, poly_add,
                 poly_degree, poly_divmod, poly_ext_gcd, poly_key, poly_mod,
                 poly_mul, poly_mulmod, poly_powmod, poly_scale, poly_trim,
                 reciprocal)

# Largest m accepted by factor_xn_minus_1: the field tables and the subfield
# embedding of the splitting field hold 2^m entries each.
MAX_M = 16


def cyclotomic_cosets(n: int, q: int) -> list[tuple[int, ...]]:
    """Cosets of {0..n-1} under multiplication by q mod n, sorted by minimum."""
    if n < 1:
        raise ValueError("n must be >= 1")
    seen = [False] * n
    cosets = []
    for a in range(n):
        if seen[a]:
            continue
        cur = a
        coset = []
        while not seen[cur]:
            seen[cur] = True
            coset.append(cur)
            cur = cur * q % n
        cosets.append(tuple(sorted(coset)))
    return cosets


def _mult_order(a: int, n: int) -> int:
    t, cur = 1, a % n
    while cur != 1:
        cur = cur * a % n
        t += 1
    return t


class _SplittingField:
    """F_{2^M} containing F_{2^m} and a primitive n-th root of unity."""

    def __init__(self, base: FieldCtx, n: int):
        t = _mult_order(base.order % n, n) if n > 1 else 1
        self.big = FieldCtx(base.m * t) if t > 1 else base
        self.base = base
        g = gf.find_generator(self.big)
        self.root = self.big.pow(g, (self.big.order - 1) // n)  # order exactly n
        self._build_embedding(g)

    def _build_embedding(self, g: int):
        """``to_base`` maps the image of each base element back to it (None
        when the base field already holds the roots)."""
        base, big = self.base, self.big
        self.to_base = None
        if big is base:
            return
        # The subfield of size 2^m is generated by eta of order 2^m - 1;
        # the embedding sends y to a root z of base.modulus inside it.
        sub = {0, 1}
        if base.order > 2:
            eta = big.pow(g, (big.order - 1) // (base.order - 1))
            x = 1
            for _ in range(base.order - 1):
                sub.add(x)
                x = big.mul(x, eta)
        roots = sorted(z for z in sub
                       if _eval_f2poly(big, base.modulus, z) == 0)
        if not roots:
            raise AssertionError("modulus has no root in the splitting field")
        z = roots[0]
        self.to_base = {}
        for a in range(base.order):
            acc, zp = 0, 1
            for i in range(base.m):
                if (a >> i) & 1:
                    acc ^= zp
                zp = big.mul(zp, z)
            self.to_base[acc] = a


def _eval_f2poly(ctx: FieldCtx, bits: int, x0: int) -> int:
    """Evaluate an int-encoded GF(2) polynomial at x0 in ctx."""
    r = 0
    i = bits.bit_length() - 1
    while i >= 0:
        r = ctx.mul(r, x0) ^ ((bits >> i) & 1)
        i -= 1
    return r


def _coset_factor(sf: _SplittingField, coset) -> Poly:
    """prod_{i in coset} (x - gamma^i), with coefficients mapped back to the base."""
    big = sf.big
    f = [1]
    for i in coset:
        root = big.pow(sf.root, i)
        # multiply f by (x + root)
        nxt = [0] * (len(f) + 1)
        for j, c in enumerate(f):
            nxt[j + 1] ^= c
            nxt[j] ^= big.mul(c, root)
        f = nxt
    if sf.to_base is None:
        return poly_trim(f)
    if any(c not in sf.to_base for c in f):
        raise AssertionError("factor coefficient not in the base field")
    return poly_trim(sf.to_base[c] for c in f)


@dataclass
class FactorData:
    """Everything derived from a (n, m, modulus) choice.

    ``factors[j]`` is the monic irreducible f at index j (0-based, ordering in
    the module docstring), ``mate[j]`` the index of its reciprocal partner
    (== j for self-reciprocal factors), ``delta[j]`` the field scalar with
    reciprocal(f_j) == delta_j * f_{mate[j]}, and ``idempotents[j]`` the CRT
    idempotent for the f_j^2 component of F_{2^m}[x]/(x^(2n)-1).

    The idempotents and the per-factor constants below (``f_eps``, ``x_inv``,
    ``hat_basis``, ``transport_basis``) are derived on first use and kept on
    the instance: every code built on this FactorData shares them, and
    nothing is derived up front.
    """

    n: int
    m: int
    ctx: FieldCtx
    factors: tuple[Poly, ...]
    num_selfrec: int      # count of self-reciprocal factors (index 0 included)
    num_pairs: int        # count of reciprocal pairs
    delta: tuple[int, ...]
    _consts: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @property
    def r(self) -> int:
        return len(self.factors)

    def degree(self, j: int) -> int:
        return poly_degree(self.factors[j])

    def mate(self, j: int) -> int:
        lam, eps = self.num_selfrec, self.num_pairs
        if j < lam:
            return j
        if j < lam + eps:
            return j + eps
        return j - eps

    def component_indices(self):
        """Indices driving enumeration: all self-reciprocal plus pair reps."""
        return range(self.num_selfrec + self.num_pairs)

    def modulus_2n(self) -> Poly:
        out = [0] * (2 * self.n + 1)
        out[0] = 1
        out[-1] = 1
        return tuple(out)

    def _once(self, name: str, j: int, derive):
        key = (name, j)
        if key not in self._consts:
            self._consts[key] = derive()
        return self._consts[key]

    @property
    def idempotents(self) -> tuple[Poly, ...]:
        return self._once("idempotents", None,
                          lambda: compute_idempotents(self))

    def f_eps(self, j: int) -> Poly:
        """f_j * idempotent_j mod x^(2n) - 1."""
        return self._once("f_eps", j, lambda: poly_mulmod(
            self.ctx, self.factors[j], self.idempotents[j], self.modulus_2n()))

    def x_inv(self, j: int) -> Poly:
        """x^(-1) = x^(n-1) mod f_j (f_j divides x^n - 1)."""
        return self._once("x_inv", j, lambda: poly_powmod(
            self.ctx, P_X, self.n - 1, self.factors[j]))

    def hat_basis(self, j: int) -> tuple[Poly, ...]:
        """x^(-i) mod f_j for i < d_j: a(x^(-1)) = sum a_i x^(-i)."""
        def derive():
            f, xi = self.factors[j], self.x_inv(j)
            out = [poly_mod(self.ctx, P_ONE, f)]
            for _ in range(1, self.degree(j)):
                out.append(poly_mulmod(self.ctx, out[-1], xi, f))
            return tuple(out)
        return self._once("hat_basis", j, derive)

    def transport_basis(self, j: int) -> tuple[Poly, ...]:
        """delta_j x^(-d_j - i) mod f_mate(j) for i < d_j; entry 0 is the
        factor delta_j x^(-d_j) of omega', the rest carry hat along."""
        def derive():
            jm = self.mate(j)
            f, xi = self.factors[jm], self.x_inv(jm)
            fac = poly_scale(self.ctx, poly_powmod(
                self.ctx, xi, self.degree(j), f), self.delta[j])
            return tuple(poly_mulmod(self.ctx, fac, p, f)
                         for p in self.hat_basis(jm))
        return self._once("transport_basis", j, derive)


def _check_nm(n: int, m: int) -> None:
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and >= 1")
    if m > MAX_M:
        raise TooLarge(f"m={m} is above the cap of {MAX_M}")


def factor_data(n: int, m: int, fd: FactorData | None = None,
                modulus: int | None = None) -> FactorData:
    """The factorisation of x^n - 1 over F_{2^m} (modulus ``modulus``, or the
    default): ``fd`` when given, else a fresh :func:`factor_xn_minus_1`.

    ValueError when ``fd`` was built for another n or m, or for another
    modulus than the one named (``modulus=None`` accepts fd's).
    """
    if fd is None:
        return factor_xn_minus_1(n, m, modulus)
    if (fd.n, fd.m) != (n, m) or (modulus is not None
                                  and modulus != fd.ctx.modulus):
        named = "" if modulus is None else f", modulus {modulus:#x}"
        raise ValueError(
            f"factor data for n={fd.n}, m={fd.m}, modulus {fd.ctx.modulus:#x}"
            f" does not match n={n}, m={m}{named}")
    return fd


def factor_degrees(n: int, m: int, fd: FactorData | None = None,
                   modulus: int | None = None):
    """Degrees of the self-reciprocal factors of x^n - 1 over F_{2^m} other
    than x - 1, and of one member of each reciprocal pair, each ascending.

    They come from the cosets mod n under 2^m alone, with nothing factored:
    a coset is a factor of its size, and that factor is self-reciprocal iff
    the coset holds minus its least element.  ``fd``, when given, must match
    (n, m, modulus) (see :func:`factor_data`).  The errors are those of
    :func:`factor_xn_minus_1`.
    """
    if fd is not None:
        modulus = factor_data(n, m, fd, modulus).ctx.modulus
    _check_nm(n, m)
    check_modulus(m, modulus)
    selfrec, pairs = [], []
    for c in cyclotomic_cosets(n, 1 << m)[1:]:
        if -c[0] % n in c:
            selfrec.append(len(c))
        elif c[0] < min(-a % n for a in c):
            pairs.append(len(c))
    return sorted(selfrec), sorted(pairs)


def factor_xn_minus_1(n: int, m: int, modulus: int | None = None) -> FactorData:
    """Factor x^n - 1 over F_{2^m} and fix the component ordering."""
    _check_nm(n, m)
    ctx = FieldCtx(m, modulus)
    sf = _SplittingField(ctx, n)
    raw = [_coset_factor(sf, c) for c in cyclotomic_cosets(n, ctx.order)]

    by_key = {poly_key(ctx, f): f for f in raw}
    selfrec, pairs = [], []
    for f in raw:
        rec = gf.poly_monic(ctx, reciprocal(f))
        if rec == f:
            selfrec.append(f)
        else:
            kf, kr = poly_key(ctx, f), poly_key(ctx, rec)
            if kr not in by_key:
                raise AssertionError("reciprocal of a factor is not a factor")
            if kf < kr:
                pairs.append((f, by_key[kr]))
    x_minus_1 = (1, 1)
    assert x_minus_1 in selfrec
    selfrec.remove(x_minus_1)
    selfrec.sort(key=lambda f: (poly_degree(f), poly_key(ctx, f)))
    pairs.sort(key=lambda fg: (poly_degree(fg[0]), poly_key(ctx, fg[0])))

    factors = [x_minus_1] + selfrec + [f for f, _ in pairs] + [g for _, g in pairs]
    lam = 1 + len(selfrec)
    eps = len(pairs)

    delta = []
    for j, f in enumerate(factors):
        rec = reciprocal(f)
        dj = rec[-1]  # leading coefficient; the monic part must be the mate
        mate_idx = j if j < lam else (j + eps if j < lam + eps else j - eps)
        assert gf.poly_monic(ctx, rec) == factors[mate_idx]
        delta.append(dj)
    for j in range(lam):
        assert delta[j] == 1, "self-reciprocal factors must satisfy rec(f) == f"

    return FactorData(n=n, m=m, ctx=ctx, factors=tuple(factors),
                      num_selfrec=lam, num_pairs=eps, delta=tuple(delta))


def compute_idempotents(fd: FactorData) -> tuple[Poly, ...]:
    """CRT idempotents for the f_j^2 components of F_{2^m}[x]/(x^(2n)-1).

    For each j, with F = (x^(2n)-1)/f_j^2 and a*F + b*f_j^2 = 1, the idempotent
    is a*F mod (x^(2n)-1).
    """
    ctx = fd.ctx
    big = fd.modulus_2n()
    out = []
    for f in fd.factors:
        fsq = poly_mul(ctx, f, f)
        cof, rem = poly_divmod(ctx, big, fsq)
        assert not rem, "f^2 must divide x^(2n)-1"
        g, a, _ = poly_ext_gcd(ctx, cof, fsq)
        assert g == P_ONE, "cofactor and f^2 must be coprime"
        out.append(poly_mod(ctx, poly_mul(ctx, a, cof), big))
    eps = tuple(out)
    # Idempotent sanity: orthogonal, idempotent, summing to 1.
    total = ()
    for e in eps:
        total = poly_add(total, e)
    assert total == P_ONE
    return eps
