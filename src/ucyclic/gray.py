"""Gray images of cyclic codes over F_{2^m}[u]/(u^2).

The Gray map sends a + bu to the symbol pair (b, a+b), applied
coordinatewise: an R-vector (a_0+b_0 u, ..., a_{2n-1}+b_{2n-1} u) maps to
the length-4n vector (b_0..b_{2n-1}, a_0+b_0..a_{2n-1}+b_{2n-1}) over
F_{2^m}.  Lee weight on R matches Hamming weight downstairs, duality is
preserved, and the image of a cyclic code is 2-quasi-cyclic.

A :class:`GenMatrix` stores its rows lane-packed (``gm.rows`` unpacks them).
The generator matrix of the image of any code is assembled from circulant
blocks E = [eps_j]_{d_j}, F = [f_j eps_j]_{d_j} and W = [(1+f_j w) eps_j]_{d_j},
d_j x 4n each: every component takes the blocks of its label's exponents
(a, b) from one table, each block's rows packed once per FactorData by lane
rotation.  :func:`gray_image_matrix` is their reduced row echelon form.

Weight distributions walk the full message space with Gray-code row
updates; every m dispatches to :mod:`ucyclic._kernels`.  Minimum distances
enumerate only low-weight messages on information sets (Brouwer-Zimmermann,
:func:`min_distance`); the census is their oracle.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

from ._kernels import MAX_CENSUS_DIM, weight_census
from .errors import DimensionTooLarge, MinDistOfTrivial, UnsupportedK
from .cyclotomic import FactorData
from .gf import FieldCtx, Poly, poly_add, poly_key, poly_mulmod
from .ideals import exponents
from .oracle import span_code
from .selfdual import CyclicCode, to_ambient_generators

__all__ = [
    "GenMatrix", "gray_map", "gray_map_packed", "unpack_ambient",
    "generator_matrix", "gray_image_matrix", "weight_distribution",
    "min_distance", "is_2_quasi_cyclic", "gram_is_zero", "lee_weight",
    "lee_distribution", "rref_fq",
]


# ---------------------------------------------------------------------------
# lane-packed rows over F_{2^m}
# ---------------------------------------------------------------------------
#
# A row of symbols is one int with symbol i at bits [m*i, m*i + m) (the
# layout of the ``gray`` CLI's hex rows; ``poly_key`` packs a row of symbols
# this way, ``_unpack`` reads it back).  Adding rows is one XOR; scaling by
# a field constant c multiplies each bit plane (v >> t) & low, which holds one
# 0/1 bit per lane, by the symbol c * y^t, so no product crosses a lane.

def _lane_low(m: int, ncols: int) -> int:
    """The int with bit 0 of each of the ncols lanes set."""
    return ((1 << (m * ncols)) - 1) // ((1 << m) - 1)


def _unpack(m: int, v: int, ncols: int) -> tuple[int, ...]:
    mask = (1 << m) - 1
    return tuple((v >> (m * i)) & mask for i in range(ncols))


def _scale(ctx: FieldCtx, v: int, c: int, low: int) -> int:
    """c * v for a lane-packed row v."""
    if c == 1:
        return v
    out = 0
    for t in range(ctx.m):
        out ^= ((v >> t) & low) * ctx.mul(c, 1 << t)
    return out


def _reduce(ctx: FieldCtx, v: int, basis: dict[int, int], low: int) -> int:
    """v minus its part in the span of an echelon basis, lowest lanes first;
    0 iff v lies in that span."""
    m, mask = ctx.m, ctx.order - 1
    while v:
        lane = ((v & -v).bit_length() - 1) // m
        piv = basis.get(lane)
        if piv is None:
            return v
        v ^= _scale(ctx, piv, (v >> (m * lane)) & mask, low)
    return 0


def _echelon(ctx: FieldCtx, packed, low: int) -> dict[int, int]:
    """Echelon basis of the span: pivot lane -> row whose lowest nonzero
    symbol is a 1 in that lane."""
    m, mask = ctx.m, ctx.order - 1
    basis: dict[int, int] = {}
    for v in packed:
        v = _reduce(ctx, v, basis, low)
        if v:
            lane = ((v & -v).bit_length() - 1) // m
            basis[lane] = _scale(ctx, v, ctx.inv((v >> (m * lane)) & mask),
                                 low)
    return basis


def _systematic(ctx: FieldCtx, rows, lanes, low: int):
    """Reduced form of independent lane-packed rows, pivoting on the lanes of
    ``lanes`` in order wherever a pivot can go.  Returns (rows, pivot lanes):
    row i has a 1 at pivot i and 0 at every other pivot, so on the pivots a
    codeword reads its message."""
    m, mask = ctx.m, ctx.order - 1
    rows, pivots = list(rows), []
    for lane in lanes:
        done = len(pivots)
        if done == len(rows):
            break
        shift = m * lane
        i = next((i for i in range(done, len(rows))
                  if rows[i] >> shift & mask), None)
        if i is None:
            continue
        v = _scale(ctx, rows[i], ctx.inv(rows[i] >> shift & mask), low)
        rows[i], rows[done] = rows[done], v
        for j, r in enumerate(rows):
            c = r >> shift & mask
            if c and j != done:
                rows[j] = r ^ _scale(ctx, v, c, low)
        pivots.append(lane)
    return rows, pivots


def _rref(ctx: FieldCtx, packed, ncols: int):
    """Reduced row echelon form of lane-packed rows: (rows, pivot lanes)."""
    low = _lane_low(ctx.m, ncols)
    return _systematic(ctx, _echelon(ctx, packed, low).values(), range(ncols),
                       low)


def rref_fq(ctx: FieldCtx, rows) -> tuple[list[tuple[int, ...]], list[int]]:
    """Reduced row echelon form over F_{2^m}; leftmost-pivot convention."""
    rows = [tuple(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    reduced, pivots = _rref(ctx, [poly_key(ctx, r) for r in rows], ncols)
    return [_unpack(ctx.m, v, ncols) for v in reduced], pivots


# ---------------------------------------------------------------------------
# the Gray map
# ---------------------------------------------------------------------------

def unpack_ambient(v: int, n: int, m: int, k: int):
    """Bit-packed vector of R^(2n) -> tuple of k-tuples of field symbols."""
    mask = (1 << m) - 1
    out = []
    for c in range(2 * n):
        out.append(tuple((v >> ((c * k + l) * m)) & mask for l in range(k)))
    return tuple(out)


def _gray_lanes(v: int, n2: int, m: int) -> int:
    """Lane-packed Gray image (b | a+b) of a length-n2 ambient vector in the
    oracle bit layout, where coordinate c holds a in m-bit slot 2c and b in
    slot 2c + 1."""
    digits = format(v, f"0{2 * m * n2}b")         # highest slot first
    slots = [digits[i:i + m] for i in range(0, len(digits), m)]
    a = int("".join(slots[1::2]), 2)
    b = int("".join(slots[0::2]), 2)
    return b | (a ^ b) << (m * n2)


def gray_map_packed(v: int, n: int, m: int, k: int = 2) -> tuple[int, ...]:
    """Gray image of a bit-packed ambient vector (oracle bit layout)."""
    if k != 2:
        raise UnsupportedK("the Gray map is defined for k=2 coefficients")
    v &= (1 << (4 * m * n)) - 1
    return _unpack(m, _gray_lanes(v, 2 * n, m), 4 * n)


def gray_map(xi) -> tuple[int, ...]:
    """Gray image (b | a+b) of an R-vector given as (a_i, b_i) pairs of
    non-negative symbols, through the lane-packed map."""
    pairs = [tuple(p) for p in xi]
    if any(len(p) != 2 for p in pairs):
        raise UnsupportedK("the Gray map is defined for k=2 coefficients")
    syms = [x for p in pairs for x in p]
    if min(syms, default=0) < 0:
        raise ValueError("symbols must be non-negative")
    m = max((x.bit_length() for x in syms), default=0) or 1
    v = sum(x << (m * i) for i, x in enumerate(syms))
    return _unpack(m, _gray_lanes(v, len(pairs), m), len(syms)) if syms else ()


def lee_weight(a: int, b: int) -> int:
    """Lee weight of the single symbol a + bu: Hamming weight of (b, a+b)."""
    return (b != 0) + ((a ^ b) != 0)


def lee_distribution(code: CyclicCode) -> dict[int, int]:
    """Lee weight histogram of C: the Gray map is an isometry from Lee to
    Hamming weight, so this is the image's weight distribution."""
    return weight_distribution(generator_matrix(code))


# ---------------------------------------------------------------------------
# generator matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class GenMatrix:
    """A matrix over F_{2^m} with 4n columns, rows stored lane-packed.

    ``packed`` holds one int per row, symbol i at bits [m*i, m*i + m); rank
    and the structure checks work on it, and ``rows`` unpacks it into symbol
    tuples on every read.  ``GenMatrix(ctx, n, rows)`` packs rows of
    symbols, each of which must lie in range(2^m); ``packed=`` takes rows
    already packed, unchecked.

    ``parts`` splits the rows, in order, into groups of one row count (a
    self-reciprocal component j) or two (j, then mate(j)), as
    ``generator_matrix`` records them; the default is one group of every
    row.  The checks take each count's rows, unchecked, as a CRT summand:
    independent of the others, shift-invariant, and orthogonal to every
    part but its mate's (eps_j eps_l^* = 0 for l != mate(j)).
    """

    ctx: FieldCtx = field(compare=False)
    n: int
    packed: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...] = field(compare=False)

    def __init__(self, ctx: FieldCtx, n: int = 0, rows=(), packed=None,
                 parts=None):
        if packed is None:
            for i, r in enumerate(rows):
                if len(r) != 4 * n:
                    raise ValueError(f"row {i}: width {len(r)} != {4 * n}")
                for c, x in enumerate(r):
                    if not 0 <= x < ctx.order:
                        raise ValueError(f"row {i}, column {c}: symbol {x!r}"
                                         f" is not in range({ctx.order})")
            packed = tuple(poly_key(ctx, tuple(r)) for r in rows)
        if parts is None:
            parts = ((len(packed),),)
        elif (any(len(g) not in (1, 2) or min(g) < 0 for g in parts)
              or sum(map(sum, parts)) != len(packed)):
            raise ValueError(f"parts {parts!r} do not split {len(packed)}"
                             " rows into groups of one or two counts")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "parts", parts)

    @property
    def cols(self) -> int:
        return 4 * self.n

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows as symbol tuples, unpacked from ``packed``."""
        return tuple(_unpack(self.ctx.m, v, self.cols) for v in self.packed)

    def _groups(self) -> list[list[tuple[int, ...]]]:
        """The packed rows of each group of ``parts``, one tuple per part."""
        out, at = [], 0
        for group in self.parts:
            out.append([])
            for count in group:
                out[-1].append(self.packed[at:at + count])
                at += count
        return out

    def rank(self) -> int:
        low = _lane_low(self.ctx.m, self.cols)
        return sum(len(_echelon(self.ctx, rows, low))
                   for group in self._groups() for rows in group)


# The blocks of one component, keyed by its label's exponents (a, b) (the
# ideal (u^a + u^t f w, u^b f), ``ideals.exponents``).  Each block is d_j rows
# [left | right] of circulants, the Gray images (b | a + b) of x^i g for
# i < d_j and one generator g: 0|E for g = 1, E|E for u, 0|F for f and F|F
# for uf, with E = eps and F = f eps.  A label with a unit w has u + f w in
# place of u, whose image is E|W with W = (1 + f w) eps.  The ideal has
# q^(4 - a - b) elements, so it takes 4 - a - b blocks.
_BLOCKS = {
    (0, 0): (("0", "E"), ("E", "E"), ("0", "F"), ("F", "F")),
    (1, 1): (("E", "E"), ("F", "F")),
    (2, 0): (("0", "F"), ("F", "F")),
    (2, 1): (("F", "F"),),
    (1, 0): (("E", "E"), ("F", "F"), ("0", "F")),
    (2, 2): (),
}


def _block(fd: FactorData, left: str, right: str, j: int,
           w: Poly | None) -> tuple[int, ...]:
    """The d_j lane-packed rows [x^i left | x^i right] of a block at
    component j, derived once per FactorData (a W block once per unit w):
    row 0 is the two seeds side by side, each next row rotates both halves
    by one lane, moving the last lane of each half to its first."""
    def seed(name: str) -> int:
        if name == "0":
            return 0
        poly = fd.idempotents[j] if name == "E" else fd.f_eps(j)
        if name == "W":                # (1 + f w) eps = eps + (f eps) w
            poly = poly_add(fd.idempotents[j],
                            poly_mulmod(fd.ctx, poly, w, fd.modulus_2n()))
        return poly_key(fd.ctx, poly)

    def derive():
        m, hw = fd.m, 2 * fd.n * fd.m          # bits per half
        last = (((1 << m) - 1) << (hw - m)) * (1 + (1 << hw))
        rows = [seed(left) | seed(right) << hw]
        for _ in range(fd.degree(j) - 1):
            top = rows[-1] & last
            rows.append((rows[-1] ^ top) << m | top >> (hw - m))
        return tuple(rows)
    return fd._once("gray_block", (left, right, j, w), derive)


def generator_matrix(code: CyclicCode) -> GenMatrix:
    """The block generator matrix of the Gray image of a cyclic code (k=2).

    Component by component, j and then mate(j) when it differs (so a
    self-dual code gets the pair-by-pair matrix of the paper), the blocks of
    each label's (a, b) from ``_BLOCKS``, stacked; ``code.dim()`` rows in
    total, all independent.  ``parts`` records one group per j: the row
    count of j, then of mate(j) when it differs.
    """
    if code.k != 2:
        raise UnsupportedK("the Gray map is defined for k=2")
    fd = code.fd
    rows: list[int] = []
    parts = []
    for j in fd.component_indices():
        group = []
        for at in dict.fromkeys((j, fd.mate(j))):
            start = len(rows)
            label = code.components[at]
            for left, right in _BLOCKS[exponents(label, 2)]:
                w = None
                if label.omega and (left, right) == ("E", "E"):
                    right, w = "W", label.omega[0]
                rows += _block(fd, left, right, at, w)
            group.append(len(rows) - start)
        parts.append(tuple(group))
    assert len(rows) == code.dim()
    # equal partitions share one tuple, so a matrix kept costs one reference
    parts = tuple(parts)
    return GenMatrix(fd.ctx, fd.n, packed=tuple(rows),
                     parts=fd._once("gray_parts", parts, lambda: parts))


def gray_image_matrix(code: CyclicCode) -> GenMatrix:
    """The reduced row echelon form of ``generator_matrix(code)``: one
    matrix per Gray image of a cyclic code (k=2)."""
    gm = generator_matrix(code)
    rows, _ = _rref(gm.ctx, gm.packed, gm.cols)
    return GenMatrix(gm.ctx, gm.n, packed=tuple(rows))


def _span_image_matrix(code: CyclicCode) -> GenMatrix:
    """``gray_image_matrix`` by the generic route, kept as its oracle.

    Spans the code as an F_2 space with the oracle's closure, Gray-maps each
    basis vector to a lane-packed row and row-reduces over F_{2^m}; it
    shares only the elimination with the block route.
    """
    if code.k != 2:
        raise UnsupportedK("the Gray map is defined for k=2")
    fd = code.fd
    dc = span_code(fd.n, fd.m, 2, to_ambient_generators(code),
                   modulus=fd.ctx.modulus)
    rows, _ = _rref(fd.ctx, [_gray_lanes(v, 2 * fd.n, fd.m) for v in dc.basis],
                    4 * fd.n)
    return GenMatrix(fd.ctx, fd.n, packed=tuple(rows))


# ---------------------------------------------------------------------------
# weight distributions: the census walk
# ---------------------------------------------------------------------------

def weight_distribution(gm: GenMatrix, threads: int = 1) -> dict[int, int]:
    """Full Hamming weight distribution of the row space of gm.

    Walks all q^rank messages as the F_2 span of the basis {y^t * row}
    ((1, y, ..., y^(m-1)) spans F_{2^m} over F_2), counting nonzero symbols.
    Rejects m * rank > 32 with DimensionTooLarge.
    """
    ctx = gm.ctx
    low = _lane_low(ctx.m, gm.cols)
    basis = [_scale(ctx, v, 1 << t, low)
             for v in _echelon(ctx, gm.packed, low).values()
             for t in range(ctx.m)]
    hist = weight_census(basis, ctx.m * gm.cols, threads=threads, m=ctx.m)
    return {w: c for w, c in enumerate(hist) if c}


# ---------------------------------------------------------------------------
# minimum distance by information sets (Brouwer-Zimmermann)
# ---------------------------------------------------------------------------

def _information_sets(ctx: FieldCtx, basis, ncols: int, low: int):
    """Systematic forms on successive information sets, each pivoting first
    on the lanes that no earlier form pivots on.  Returns (rows, fresh)
    pairs, fresh the number of such new pivots; stops when none is new."""
    used: set[int] = set()
    forms = []
    while True:
        order = [c for c in range(ncols) if c not in used] + sorted(used)
        rows, pivots = _systematic(ctx, basis, order, low)
        fresh = [p for p in pivots if p not in used]
        if not fresh:
            return forms
        forms.append((rows, len(fresh)))
        used.update(fresh)


def _multiples(ctx: FieldCtx, v: int, low: int) -> list[int]:
    """c * v for c = 1, ..., q - 1, by linearity over the planes y^t * v."""
    planes = [_scale(ctx, v, 1 << t, low) for t in range(ctx.m)]
    table = [0]
    for c in range(1, ctx.order):
        table.append(table[c & (c - 1)] ^ planes[(c & -c).bit_length() - 1])
    return table[1:]


def _least_weight(mults: list[list[int]], w: int, weight) -> int:
    """Least weight of the words sum c_i * row_i over w of the rows, the
    first coefficient 1 (weights do not change under scaling) and the others
    nonzero; mults[i] lists the nonzero multiples of row i, row i first."""
    k = len(mults)

    def rest(acc: int, start: int, left: int) -> int:
        if left == 1:
            return min(weight(acc ^ x) for ms in mults[start:] for x in ms)
        return min(rest(acc ^ x, i + 1, left - 1)
                   for i in range(start, k - left + 1) for x in mults[i])

    if w == 1:
        return min(weight(ms[0]) for ms in mults)
    return min(rest(ms[0], i + 1, w - 1)
               for i, ms in enumerate(mults[:k - w + 1]))


def min_distance(gm: GenMatrix, threads: int = 1) -> int:
    """Minimum Hamming distance of the row space, by Brouwer-Zimmermann.

    The codewords are enumerated on systematic forms over successive
    information sets (:func:`_information_sets`): for w = 1, 2, ... the
    weight-w messages of each form, the least weight seen being an upper
    bound.  A codeword not yet seen has w + 1 or more nonzero symbols on the
    pivots of each form, at most k - r_j of them on pivots of earlier forms
    (r_j the form's new pivots), so its weight is at least
    sum_j max(0, w + 1 - (k - r_j)); the search stops when the upper bound
    reaches that lower bound.  A self-dual image needs two disjoint forms.

    Keeps the census's cap: m * rank > 32 raises DimensionTooLarge.
    ``threads`` is accepted for the census's signature; this route runs on
    one thread and does not use it.
    """
    ctx, ncols = gm.ctx, gm.cols
    m, low = ctx.m, _lane_low(ctx.m, gm.cols)
    basis = list(_echelon(ctx, gm.packed, low).values())
    k = len(basis)
    if not k:
        raise MinDistOfTrivial("the zero code has no minimum distance")
    if m * k > MAX_CENSUS_DIM:
        raise DimensionTooLarge(f"minimum distance over 2^{m * k} words "
                                f"exceeds the 2^{MAX_CENSUS_DIM} cap")
    if m == 1:
        weight = int.bit_count
    else:
        def weight(v: int) -> int:     # nonzero m-bit lanes
            x = v
            for t in range(1, m):
                x |= v >> t
            return (x & low).bit_count()
    forms = [([_multiples(ctx, v, low) for v in rows], k - fresh)
             for rows, fresh in _information_sets(ctx, basis, ncols, low)]
    upper = ncols
    for w in range(1, k + 1):
        for j, (mults, _) in enumerate(forms):
            upper = min(upper, _least_weight(mults, w, weight))
            lower = sum(max(0, w + (i <= j) - old)
                        for i, (_, old) in enumerate(forms))
            # after w = k on the first form, every codeword has been seen
            if upper <= lower or w == k:
                return upper
    return upper


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------

def is_2_quasi_cyclic(gm: GenMatrix) -> bool:
    """Does the simultaneous cyclic shift of both halves fix the row space?
    Each shifted row is reduced against its own part's span only."""
    if gm.cols % 2:
        raise ValueError("need an even number of columns")
    m = gm.ctx.m
    hw = m * (gm.cols // 2)            # bits per half
    half = (1 << hw) - 1
    low = _lane_low(m, gm.cols)

    def shift(x: int) -> int:          # symbol i -> i + 1, the last to 0
        return ((x << m) & half) | (x >> (hw - m))

    for group in gm._groups():
        for rows in group:
            basis = _echelon(gm.ctx, rows, low)
            if any(_reduce(gm.ctx, shift(v & half) | (shift(v >> hw) << hw),
                           basis, low) for v in rows):
                return False
    return True


@functools.cache
def _coefficient_images(ctx: FieldCtx) -> tuple[tuple[int, ...], ...]:
    """images[r][t]: the symbol whose bit s is coefficient r of y^(t + s)."""
    return tuple(tuple(sum((ctx.mul(1 << t, 1 << s) >> r & 1) << s
                           for s in range(ctx.m)) for t in range(ctx.m))
                 for r in range(ctx.m))


def _coefficient_rows(ctx: FieldCtx, rows, low: int) -> list:
    """For r < m, the rows a_r, one per row a, with parity(a_r & b) equal to
    coefficient r of <a, b> over F_{2^m}: lane i of a_r holds, at bit s,
    coefficient r of a_i * y^s, an F_2-linear map of a_i that sends y^t to
    ``_coefficient_images(ctx)[r][t]``.  Over F_2, a_0 = a."""
    if ctx.m == 1:
        return [rows]
    return [[functools.reduce(operator.xor, [((a >> t) & low) * c
                                             for t, c in enumerate(images)])
             for a in rows] for images in _coefficient_images(ctx)]


def _block_is_zero(ctx: FieldCtx, left, right, low: int,
                   upper: bool) -> bool:
    """Is <a, b> zero for a row a of ``left`` and b of ``right``?  With
    ``upper`` (right is left) only b at or after a."""
    return not any((f & b).bit_count() & 1
                   for forms in _coefficient_rows(ctx, left, low)
                   for i, f in enumerate(forms)
                   for b in (right[i:] if upper else right))


def gram_is_zero(gm: GenMatrix) -> bool:
    """Is G * G^T the zero matrix over F_{2^m}?

    By ``parts`` only the upper triangle of a one-count group and the
    j x mate(j) block of a pair can hold a nonzero entry: for codewords x of
    component j and y of component l with Euclidean product
    x . y = c_0 + c_1 u, the Gray images have <phi(x), phi(y)> = c_0 + c_1,
    and x . y = 0 unless l = mate(j), as eps_j eps_l^* = 0.
    """
    low = _lane_low(gm.ctx.m, gm.cols)
    return all(_block_is_zero(gm.ctx, group[0], group[-1], low,
                              len(group) == 1)
               for group in gm._groups())
