"""Brute-force ground truth, independent of the table-driven modules.

Everything here works on bit-packed vectors of R^(2n), R = F_{2^m}[u]/(u^k):
coordinate c (0-based), u-slot l, field bit b map to packed bit (c*k + l)*m + b.
The elements of one CRT component K_j[u]/(u^k) are packed the same way,
2*d_j*m bits per u-slot (:func:`pack_uelem`).
A cyclic code is handled as its F_2 row space together with closure under the
monomial maps (multiply by x, by u, and by the field generator when m > 1);
:class:`DenseCode` keeps the canonical reduced row-echelon basis, so equality
and inclusion tests are exact without materializing word sets.

Only :func:`brute_all_ideals` enumerates an ambient space, and it enforces the
hard 2^24 cap (:class:`ucyclic.errors.TooLarge`).  The module imports only
``errors`` and ``gf``; what it needs of a factorisation it reads off the
``FactorData`` it is handed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import TooLarge
from .gf import (P_X, P_ZERO, FieldCtx, f2x_mod, poly_add, poly_from_key,
                 poly_key, poly_mul, poly_mulmod, poly_powmod, poly_scale)

AMBIENT_CAP_LOG2 = 24
WORDS_CAP_LOG2 = 20


# ---------------------------------------------------------------------------
# F_2 linear algebra on bit-rows
# ---------------------------------------------------------------------------

def _reduce(piv: dict[int, int], v: int) -> int:
    """v less the rows of ``piv`` (leading bit -> row) at its leading bit,
    until that bit is no pivot: 0 iff v lies in the span of the rows."""
    while v:
        row = piv.get(v.bit_length() - 1)
        if row is None:
            break
        v ^= row
    return v


def _back_substitute(piv: dict[int, int], low: bool = False) -> list[int]:
    """Clear each pivot bit of ``piv`` off every other row, in place, and
    return the pivots descending.  Pivots are leading bits, walked upward,
    or with ``low`` lowest bits, walked downward: a row meets only pivot
    rows already reduced."""
    done = 0                                     # pivot bits already reduced
    for p in sorted(piv, reverse=low):
        row = piv[p]
        hits = row & done
        while hits:
            q = hits.bit_length() - 1
            row ^= piv[q]                        # piv[q] has no other pivot bit
            hits ^= 1 << q
        piv[p] = row
        done |= 1 << p
    return sorted(piv, reverse=True)


def rref_bits(rows, ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Rows must lie below bit ``ncols``.  Each row is reduced (:func:`_reduce`)
    into a map from leading bit to pivot row, then :func:`_back_substitute`
    clears every pivot bit off the other rows.  Rows and pivots come out
    sorted descending.
    """
    piv: dict[int, int] = {}
    for r in rows:
        v = _reduce(piv, int(r))
        if v:
            piv[v.bit_length() - 1] = v
    pivots = _back_substitute(piv)
    return [piv[p] for p in pivots], pivots


def _rref_tuple(piv: dict[int, int]) -> tuple[int, ...]:
    """The canonical RREF rows, descending, of a leading-bit pivot map."""
    return tuple([piv[p] for p in _back_substitute(piv)])


def tabulate_map(images) -> tuple[tuple[int, ...], ...]:
    """Byte tables of the F_2-linear map with per-bit images ``images``:
    table i holds the image of every value of bits 8i .. 8i+7."""
    tables = []
    for lo in range(0, len(images), 8):
        chunk = images[lo:lo + 8]
        table = [0] * (1 << len(chunk))
        for v in range(1, len(table)):
            low = v & -v
            table[v] = table[v ^ low] ^ chunk[low.bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)


def apply_map(tables, v: int) -> int:
    """Image of v under a linear map, one table lookup per byte of v."""
    out = 0
    for table in tables:
        if not v:
            break
        out ^= table[v & 0xFF]
        v >>= 8
    return out


def map_closure(gens, maps) -> dict[int, int]:
    """XOR basis of the smallest F_2 subspace holding gens and closed under
    every map in ``maps`` (byte tables, see :func:`tabulate_map`), as a map
    from leading bit to row, not reduced (see :func:`_rref_tuple`).
    """
    piv: dict[int, int] = {}
    pending = [int(g) for g in gens]
    while pending:
        v = _reduce(piv, pending.pop())
        if v:
            piv[v.bit_length() - 1] = v
            pending.extend(apply_map(tables, v) for tables in maps)
    return piv


def span_words(basis) -> frozenset[int]:
    """Every F_2 combination of the (independent) basis rows."""
    out = {0}
    for row in basis:
        out |= {w ^ row for w in out}
    return frozenset(out)


@dataclass(frozen=True)
class DenseCode:
    """A cyclic code as an explicit F_2 subspace of packed R^(2n) vectors."""

    n: int
    m: int
    k: int
    basis: tuple[int, ...]  # canonical RREF rows, descending

    @property
    def nbits(self) -> int:
        return 2 * self.n * self.k * self.m

    @property
    def rank(self) -> int:
        return len(self.basis)

    def size_log2(self) -> int:
        return len(self.basis)

    @cached_property
    def _pivots(self) -> dict[int, int]:
        return {row.bit_length() - 1: row for row in self.basis}

    def contains(self, v: int) -> bool:
        return not _reduce(self._pivots, v)

    def issubset(self, other: DenseCode) -> bool:
        return all(other.contains(r) for r in self.basis)

    def words(self) -> frozenset[int]:
        """Materialized word set (refuses above 2^20 words)."""
        if self.rank > WORDS_CAP_LOG2:
            raise TooLarge(f"2^{self.rank} words")
        return span_words(self.basis)


# ---------------------------------------------------------------------------
# the ambient module R^(2n) and its monomial maps
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def ambient_maps(n: int, m: int, k: int, modulus: int | None = None):
    """(nbits, monomial maps, invertible maps) for R^(2n): byte tables
    (:func:`tabulate_map`) of multiply-by-x (cyclic coordinate shift),
    multiply-by-u (slot shift) and, for m > 1, by the field generator y;
    the invertible ones, x, y and the unit 1 + u, keep a vector's closure.
    """
    ctx = FieldCtx(m, modulus)
    length = 2 * n
    nbits = length * k * m

    def bit(c, l, b):
        return (c * k + l) * m + b

    xmap = [0] * nbits
    umap = [0] * nbits
    ymap = [0] * nbits
    for c in range(length):
        for l in range(k):
            for b in range(m):
                xmap[bit(c, l, b)] = 1 << bit((c + 1) % length, l, b)
                if l + 1 < k:
                    umap[bit(c, l, b)] = 1 << bit(c, l + 1, b)
                img = f2x_mod(1 << (b + 1), ctx.modulus)
                acc = 0
                for bb in range(m):
                    if (img >> bb) & 1:
                        acc |= 1 << bit(c, l, bb)
                ymap[bit(c, l, b)] = acc
    maps = tuple(map(tabulate_map, [xmap, umap] + ([ymap] if m > 1 else [])))
    return nbits, maps, maps[::2] + (tabulate_map(
        [(1 << i) ^ img for i, img in enumerate(umap)]),)


def span_code(n: int, m: int, k: int, gens, modulus: int | None = None) -> DenseCode:
    """Smallest cyclic code (ideal) containing the packed generators."""
    _, maps, _ = ambient_maps(n, m, k, modulus)
    return DenseCode(n, m, k, _rref_tuple(map_closure(gens, maps)))


# ---------------------------------------------------------------------------
# duals, intersections
# ---------------------------------------------------------------------------

def _r_mul(ctx: FieldCtx, k: int, a: int, b: int) -> int:
    """Product in R = F_{2^m}[u]/(u^k), operands packed in k*m bits."""
    mask = (1 << ctx.m) - 1
    out = 0
    for i in range(k):
        ai = (a >> (i * ctx.m)) & mask
        if not ai:
            continue
        for j in range(k - i):
            bj = (b >> (j * ctx.m)) & mask
            if bj:
                out ^= ctx.mul(ai, bj) << ((i + j) * ctx.m)
    return out


@lru_cache(maxsize=None)
def _form_map(n: int, m: int, k: int, modulus: int | None = None):
    """Byte tables of b -> its k*m constraint rows, row o (bits o*nbits
    and up) the functional v -> bit o of <b, v>: bit c*k*m + t of b is e_t
    at coordinate c, and <e_t at c, v> = e_t * v_c.  One per ambient."""
    ctx = FieldCtx(m, modulus)
    step = k * m
    nbits = 2 * n * step
    units = []
    for t in range(step):
        prods = [_r_mul(ctx, k, 1 << t, 1 << s) for s in range(step)]
        units.append(sum(((p >> o) & 1) << (o * nbits + s)
                         for o in range(step) for s, p in enumerate(prods)))
    return tabulate_map([u << (c * step) for c in range(2 * n) for u in units])


def brute_dual(code: DenseCode, modulus: int | None = None) -> DenseCode:
    """Euclidean dual, via the F_2 linear system <b, v> = 0 in R.

    Each basis vector's constraint rows (one ``_form_map`` lookup) are
    reduced on their lowest set bit and back-substituted.  For each free
    bit f, v_f = e_f + sum(e_p : the row with low pivot p holds bit f) has
    leading bit f and no other free bit: sorted, the canonical basis.
    """
    nbits = code.nbits
    mask = (1 << nbits) - 1
    tables = _form_map(code.n, code.m, code.k, modulus)
    piv: dict[int, int] = {}                     # lowest bit -> row
    for b in code.basis:
        w = apply_map(tables, b)
        while w:
            v = w & mask
            w >>= nbits
            while v:
                p = (v & -v).bit_length() - 1
                row = piv.get(p)
                if row is None:
                    piv[p] = v
                    break
                v ^= row
    _back_substitute(piv, low=True)
    dual = {f: 1 << f for f in range(nbits) if f not in piv}
    for p, row in piv.items():
        rest = row ^ (1 << p)
        while rest:
            f = rest.bit_length() - 1
            dual[f] |= 1 << p
            rest ^= 1 << f
    return DenseCode(code.n, code.m, code.k,
                     tuple([dual[f] for f in reversed(dual)]))


def brute_intersect(a: DenseCode, b: DenseCode) -> DenseCode:
    """Intersection of two codes (Zassenhaus on packed rows): the reduced
    rows with a zero upper half, which are its canonical basis."""
    nbits = a.nbits
    assert (a.n, a.m, a.k) == (b.n, b.m, b.k)
    rows = [(r << nbits) | r for r in a.basis] + [(r << nbits) for r in b.basis]
    red, _ = rref_bits(rows, 2 * nbits)
    return DenseCode(a.n, a.m, a.k, tuple([r for r in red if not r >> nbits]))


def brute_is_selfdual(code: DenseCode, modulus: int | None = None) -> bool:
    return brute_dual(code, modulus) == code


def brute_is_selforthogonal(code: DenseCode, modulus: int | None = None) -> bool:
    return code.issubset(brute_dual(code, modulus))


# ---------------------------------------------------------------------------
# full ideal census
# ---------------------------------------------------------------------------

def _all_ideals_generic(nbits: int, maps, invertible) -> list[tuple[int, ...]]:
    """All map-closed F_2 subspaces, as canonical bases.

    Correctness: every ideal is a sum of single-generator closures, all
    single-generator closures are produced, and the pairwise-sum pass closes
    the collection (each unordered pair once, so the order of the list is
    the order of discovery); vectors are deduplicated by their orbit under
    the invertible maps first (same closure).  A sum of two ideals is an
    ideal, so the pass reduces the smaller basis into the larger ideal's
    pivot map; if nothing survives, the sum is the larger ideal.
    """
    if nbits > AMBIENT_CAP_LOG2:
        raise TooLarge(f"ambient space has 2^{nbits} elements")

    seen_vec = bytearray(1 << nbits)
    found: dict[tuple[int, ...], dict[int, int]] = {(): {}}  # basis -> pivots
    for v in range(1, 1 << nbits):
        if seen_vec[v]:
            continue
        # orbit of v under the invertible monomial maps
        orbit = {v}
        stack = [v]
        while stack:
            w = stack.pop()
            for im in invertible:
                img = apply_map(im, w)
                if img not in orbit:
                    orbit.add(img)
                    stack.append(img)
        for w in orbit:
            seen_vec[w] = 1
        piv = map_closure([v], maps)
        found[_rref_tuple(piv)] = piv

    # close under sums, each unordered pair once: every ideal, in the order
    # it was found, is summed with the ones found before it
    pool = list(found.items())
    for i, (a, pa) in enumerate(pool):          # pool grows as it is walked
        for b, pb in pool[:i]:
            small, big = (b, pa) if len(a) >= len(b) else (a, pb)
            piv = big
            for r in small:
                r = _reduce(piv, r)
                if r:
                    if piv is big:
                        piv = dict(big)
                    piv[r.bit_length() - 1] = r
            if piv is not big and (s := _rref_tuple(piv)) not in found:
                found[s] = piv
                pool.append((s, piv))
    return [basis for basis, _ in pool]


def brute_all_ideals(n: int, m: int, k: int,
                     modulus: int | None = None) -> list[DenseCode]:
    """Every cyclic code of length 2n over R, by exhaustive closure."""
    nbits, maps, invertible = ambient_maps(n, m, k, modulus)
    return [DenseCode(n, m, k, basis)
            for basis in _all_ideals_generic(nbits, maps, invertible)]


# ---------------------------------------------------------------------------
# one CRT component K_j[u]/(u^k), K_j = F_{2^m}[x]/(f_j^2)
# ---------------------------------------------------------------------------

def pack_uelem(fd, j: int, k: int, elem: tuple) -> int:
    """Bit-pack a K[u]/(u^k) element (K-coefficients of degree < 2d)."""
    bits = 2 * fd.degree(j) * fd.m
    return sum(poly_key(fd.ctx, c) << (l * bits) for l, c in enumerate(elem))


def unpack_uelem(fd, j: int, k: int, packed: int) -> tuple:
    bits = 2 * fd.degree(j) * fd.m
    mask = (1 << bits) - 1
    return tuple(poly_from_key(fd.ctx, (packed >> (l * bits)) & mask)
                 for l in range(k))


def _component_monomial_maps(fd, j: int, k: int):
    """Linear maps (mult by x, by u, by the field generator) on packed bits,
    as byte tables, built once per (fd, j, k)."""
    nbits = 2 * fd.degree(j) * fd.m * k

    def tabulate(fn):
        return tabulate_map([pack_uelem(fd, j, k, fn(unpack_uelem(
            fd, j, k, 1 << b))) for b in range(nbits)])

    def derive():
        ctx, f = fd.ctx, fd.factors[j]
        fsq = poly_mul(ctx, f, f)

        def times(a):       # multiplication by a, mod f^2
            return tabulate(lambda e: tuple(poly_mulmod(ctx, c, a, fsq)
                                            for c in e))

        maps = [times(P_X), tabulate(lambda e: (P_ZERO,) + e[:-1])]
        if fd.m > 1:
            maps.append(times((2,)))
        return nbits, tuple(maps)
    return fd._once(f"monomial_maps_{k}", j, derive)


def ideal_members(fd, j: int, k: int, gens) -> frozenset[int]:
    """Every member, bit-packed, of the ideal of K_j[u]/(u^k) generated by
    the elements ``gens`` (e.g. ``ideals.ideal_generators``); guarded by
    the 2^24 ambient cap."""
    nbits, maps = _component_monomial_maps(fd, j, k)
    if nbits > AMBIENT_CAP_LOG2:
        raise TooLarge(f"component ring has 2^{nbits} elements")
    return span_words(map_closure([pack_uelem(fd, j, k, g) for g in gens],
                                  maps).values())


def brute_component_ideals(fd, j: int, k: int) -> list[frozenset[int]]:
    """Every ideal of K[u]/(u^k) for component j, as packed member sets."""
    nbits, maps = _component_monomial_maps(fd, j, k)
    if nbits > AMBIENT_CAP_LOG2:
        raise TooLarge(f"component ring has 2^{nbits} elements")
    invertible = [maps[0]] + ([maps[2]] if fd.m > 1 else [])
    return [span_words(basis)
            for basis in _all_ideals_generic(nbits, maps, invertible)]


def theta_congruence_filter(fd, j: int, s: int):
    """Units w of F_j[u]/(u^s) with w + delta_j x^(2n-d_j) w(x^(-1)) = 0.

    Enumerate-and-filter route to the self-dual unit parameter sets, fully
    independent of the closed-form construction in :mod:`ucyclic.selfdual`.
    The substitution acts on each u-coefficient on its own, so it is applied
    literally once per field element a of F_j (a + delta_j x^(2n-d_j) a(x^(-1))
    computed and compared with 0); then the units (a_0, ..., a_(s-1)) whose
    every slot passed are walked in key order, a_0 fastest.
    Only meaningful on self-reciprocal components.
    """
    if not 0 <= j < fd.num_selfrec:
        raise ValueError(f"component {j} is not self-reciprocal")
    d = fd.degree(j)
    if d * fd.m * s > AMBIENT_CAP_LOG2:
        raise TooLarge(f"unit group of size ~2^{d * fd.m * s} too big to filter")
    ctx, f = fd.ctx, fd.factors[j]
    xfac = poly_powmod(ctx, P_X, 2 * fd.n - d, f)   # x^(2n-d) reduced mod f_j
    delta = fd.delta[j]
    field = (poly_from_key(ctx, key) for key in range(1 << (fd.m * d)))
    slots = [a for a in field if not poly_add(
        a, poly_scale(ctx, poly_mulmod(ctx, xfac, fd.hat(j, a), f), delta))]
    units = [a for a in slots if a]
    return [w[::-1] for w in itertools.product(*[slots] * (s - 1), units)]
