"""Gray images of cyclic codes over F_{2^m}[u]/(u^2).

The Gray map sends a + bu to the symbol pair (b, a+b), applied
coordinatewise: an R-vector (a_0+b_0 u, ..., a_{2n-1}+b_{2n-1} u) maps to
the length-4n vector (b_0..b_{2n-1}, a_0+b_0..a_{2n-1}+b_{2n-1}) over
F_{2^m}.  Lee weight on R matches Hamming weight downstairs, duality is
preserved, and the image of a cyclic code is 2-quasi-cyclic.

For self-dual codes the generator matrix of the image is assembled from
circulant blocks E = [eps_j]_{d_j}, F = [f_j eps_j]_{d_j} and
W = [(1+f_j w) eps_j]_{d_j}: one 2d_j x 4n block per self-reciprocal
component and one 4d_j x 4n block per reciprocal pair, by a fixed shape
table.  Arbitrary (non-self-dual) codes get a matrix from the generic
basis route (:func:`gray_image_matrix`).

Weight distributions walk the full message space with Gray-code row
updates; every m dispatches to :mod:`ucyclic._kernels`.  Minimum distances
enumerate only low-weight messages on information sets (Brouwer-Zimmermann,
:func:`min_distance`); the census is their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ._kernels import MAX_CENSUS_DIM, weight_census
from .duality import shape_k2
from .errors import (DimensionTooLarge, MinDistOfTrivial, NotSelfDual,
                     UnsupportedK)
from .gf import FieldCtx, P_ZERO, Poly, f2x_mod, poly_add, poly_mulmod
from .oracle import span_code
from .selfdual import CyclicCode, is_self_dual, to_ambient_generators

__all__ = [
    "GenMatrix", "gray_map", "gray_map_packed", "unpack_ambient", "circulant",
    "generator_matrix", "gray_image_matrix", "weight_distribution",
    "min_distance", "is_2_quasi_cyclic", "gram_is_zero", "lee_weight",
    "lee_weight_vector", "lee_distribution", "rref_fq",
]


# ---------------------------------------------------------------------------
# lane-packed rows over F_{2^m}
# ---------------------------------------------------------------------------
#
# A row of symbols is one int with symbol i at bits [m*i, m*i + m) (the
# layout of the ``gray`` CLI's hex rows).  Adding rows is one XOR; scaling by
# a field constant c multiplies each bit plane (v >> t) & low, which holds one
# 0/1 bit per lane, by the symbol c * y^t, so no product crosses a lane.

def _lane_low(m: int, ncols: int) -> int:
    """The int with bit 0 of each of the ncols lanes set."""
    return ((1 << (m * ncols)) - 1) // ((1 << m) - 1)


_DIGITS = bytes.maketrans(bytes(range(32)), b"0123456789abcdefghijklmnopqrstuv")


def _pack(m: int, row) -> int:
    """Lane-pack a sequence of symbols."""
    if m <= 5:  # one base-2^m digit per symbol, last symbol first
        return int(bytes(row[::-1]).translate(_DIGITS) or b"0", 1 << m)
    v = 0
    for i, x in enumerate(row):
        v |= x << (m * i)
    return v


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


def rref_fq(ctx: FieldCtx, rows) -> tuple[list[tuple[int, ...]], list[int]]:
    """Reduced row echelon form over F_{2^m}; leftmost-pivot convention."""
    rows = list(rows)
    if not rows:
        return [], []
    ncols, m = len(rows[0]), ctx.m
    low = _lane_low(m, ncols)
    basis = _echelon(ctx, [_pack(m, tuple(r)) for r in rows], low)
    reduced, pivots = _systematic(ctx, basis.values(), range(ncols), low)
    return [_unpack(m, v, ncols) for v in reduced], pivots


# ---------------------------------------------------------------------------
# the Gray map
# ---------------------------------------------------------------------------

def gray_map(xi) -> tuple[int, ...]:
    """Map an R-vector, given as (a_i, b_i) pairs, to (b | a+b) over F_{2^m}."""
    pairs = list(xi)
    for p in pairs:
        if len(p) != 2:
            raise UnsupportedK("the Gray map is defined for k=2 coefficients")
    return (tuple(b for _, b in pairs)
            + tuple(a ^ b for a, b in pairs))


def unpack_ambient(v: int, n: int, m: int, k: int):
    """Bit-packed vector of R^(2n) -> tuple of k-tuples of field symbols."""
    mask = (1 << m) - 1
    out = []
    for c in range(2 * n):
        out.append(tuple((v >> ((c * k + l) * m)) & mask for l in range(k)))
    return tuple(out)


def gray_map_packed(v: int, n: int, m: int, k: int = 2) -> tuple[int, ...]:
    """Gray image of a bit-packed ambient vector (oracle bit layout)."""
    if k != 2:
        raise UnsupportedK("the Gray map is defined for k=2 coefficients")
    return gray_map(unpack_ambient(v, n, m, 2))


def lee_weight(a: int, b: int) -> int:
    """Lee weight of the single symbol a + bu: Hamming weight of (b, a+b)."""
    return (b != 0) + ((a ^ b) != 0)


def lee_weight_vector(xi) -> int:
    return sum(lee_weight(a, b) for a, b in xi)


def lee_distribution(code: CyclicCode) -> dict[int, int]:
    """Lee weight histogram of C, censused directly from the codewords."""
    if code.k != 2:
        raise UnsupportedK("Lee weights are defined for k=2")
    n, m = code.n, code.m
    dc = span_code(n, m, 2, to_ambient_generators(code),
                   modulus=code.fd.ctx.modulus)
    hist: dict[int, int] = {}
    for w in dc.words():
        lw = lee_weight_vector(unpack_ambient(w, n, m, 2))
        hist[lw] = hist.get(lw, 0) + 1
    return hist


# ---------------------------------------------------------------------------
# generator matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenMatrix:
    """A matrix over F_{2^m} with 4n columns, rows as symbol tuples.

    ``packed`` is the lane-packed view of the rows, computed once; rank and
    the structure checks work on it.
    """

    ctx: FieldCtx = field(compare=False)
    n: int = 0
    rows: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        for r in self.rows:
            if len(r) != self.cols:
                raise ValueError(f"row width {len(r)} != {self.cols}")

    @property
    def cols(self) -> int:
        return 4 * self.n

    @cached_property
    def packed(self) -> tuple[int, ...]:
        """The rows lane-packed: symbol i at bits [m*i, m*i + m)."""
        m = self.ctx.m
        return tuple(_pack(m, r) for r in self.rows)

    def rank(self) -> int:
        low = _lane_low(self.ctx.m, self.cols)
        return len(_echelon(self.ctx, self.packed, low))


def circulant(a: Poly, s: int, n2: int) -> tuple[tuple[int, ...], ...]:
    """s x n2 block [a]_s: row i is the coefficient vector of x^i a mod x^n2-1."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if len(a) > n2:
        raise ValueError("reduce a mod x^n2 - 1 first")
    row = tuple(a) + (0,) * (n2 - len(a))
    out = [row]
    for _ in range(s - 1):
        row = (row[-1],) + row[:-1]
        out.append(row)
    return tuple(out)


def _hblock(left: Poly, right: Poly, s: int, n2: int):
    """s rows of the 2-block [left | right], each half a circulant."""
    return [lr + rr for lr, rr in zip(circulant(left, s, n2),
                                      circulant(right, s, n2))]


# Blocks of the image of a component pair, keyed by the shapes (C_j, C_mate):
# each block is d_j rows [left | right] of circulants, left and right one of
# 0, E = eps, F = f eps or W = (1 + f w) eps, taken at j (side 0) or at the
# mate (side 1).  A self-reciprocal component is its own mate and takes the
# side-0 blocks of its (shape, shape) entry.
_PAIR_BLOCKS = {
    ("one", "zero"): (("0", "E", 0), ("E", "E", 0), ("0", "F", 0),
                      ("F", "F", 0)),
    ("zero", "one"): (("0", "E", 1), ("E", "E", 1), ("0", "F", 1),
                      ("F", "F", 1)),
    ("u", "u"): (("E", "E", 0), ("F", "F", 0), ("E", "E", 1), ("F", "F", 1)),
    ("f", "f"): (("0", "F", 0), ("F", "F", 0), ("0", "F", 1), ("F", "F", 1)),
    ("mixed", "mixed"): (("E", "W", 0), ("F", "F", 0), ("E", "W", 1),
                         ("F", "F", 1)),
    ("uf", "top"): (("F", "F", 0), ("E", "E", 1), ("F", "F", 1),
                    ("0", "F", 1)),
    ("top", "uf"): (("E", "E", 0), ("F", "F", 0), ("0", "F", 0),
                    ("F", "F", 1)),
}


def generator_matrix(code: CyclicCode) -> GenMatrix:
    """The block generator matrix of the Gray image of a self-dual code.

    One 2d_j x 4n block per self-reciprocal component and one 4d_j x 4n
    block per reciprocal pair, stacked; 2n rows in total, all independent.
    """
    if code.k != 2:
        raise UnsupportedK("generator matrices are tabulated for k=2")
    if not is_self_dual(code):
        raise NotSelfDual("the block table assumes a self-dual code; "
                          "use gray_image_matrix for arbitrary codes")
    fd = code.fd
    ctx = fd.ctx
    n2 = 2 * fd.n

    def poly(name: str, j: int) -> Poly:
        if name == "0":
            return P_ZERO
        if name == "E":
            return fd.idempotents[j]
        if name == "F":
            return fd.f_eps(j)
        # W = (1 + f w) eps = eps + (f eps) w
        w = code.components[j].omega[0]
        return poly_add(fd.idempotents[j],
                        poly_mulmod(ctx, fd.f_eps(j), w, fd.modulus_2n()))

    rows: list[tuple[int, ...]] = []
    for j in fd.component_indices():
        jm = fd.mate(j)
        shapes = (shape_k2(code.components[j]), shape_k2(code.components[jm]))
        blocks = _PAIR_BLOCKS.get(shapes)
        if blocks is None:  # unreachable behind the is_self_dual gate
            raise NotSelfDual(f"pair shapes {shapes} have no self-dual block")
        if jm == j:
            blocks = [b for b in blocks if b[2] == 0]
        d = fd.degree(j)
        for left, right, side in blocks:
            at = (j, jm)[side]
            rows += _hblock(poly(left, at), poly(right, at), d, n2)
    gm = GenMatrix(ctx, fd.n, tuple(rows))
    assert len(rows) == n2
    return gm


def gray_image_matrix(code: CyclicCode) -> GenMatrix:
    """Generator matrix of the Gray image of ANY cyclic code (k=2).

    Generic route: span the code as an F_2 space with the oracle, apply the
    Gray map to each basis vector, and row-reduce over F_{2^m}.
    """
    if code.k != 2:
        raise UnsupportedK("the Gray map is defined for k=2")
    fd = code.fd
    dc = span_code(fd.n, fd.m, 2, to_ambient_generators(code),
                   modulus=fd.ctx.modulus)
    img = [gray_map_packed(v, fd.n, fd.m) for v in dc.basis]
    rows, _ = rref_fq(fd.ctx, img) if img else ([], [])
    return GenMatrix(fd.ctx, fd.n, tuple(rows))


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
    """Does the simultaneous cyclic shift of both halves fix the row space?"""
    if gm.cols % 2:
        raise ValueError("need an even number of columns")
    m = gm.ctx.m
    hw = m * (gm.cols // 2)            # bits per half
    half = (1 << hw) - 1
    low = _lane_low(m, gm.cols)
    basis = _echelon(gm.ctx, gm.packed, low)

    def shift(x: int) -> int:          # symbol i -> i + 1, the last to 0
        return ((x << m) & half) | (x >> (hw - m))

    return not any(
        _reduce(gm.ctx, shift(v & half) | (shift(v >> hw) << hw), basis, low)
        for v in gm.packed)


def gram_is_zero(gm: GenMatrix) -> bool:
    """Is G * G^T the zero matrix over F_{2^m}?

    Entry <a, b> is the F_2[y] polynomial sum over t, s of
    parity(a_t & b_s) y^(t+s) on the bit planes a_t = (a >> t) & low, reduced
    mod the field modulus.
    """
    rows = gm.packed
    if gm.ctx.m == 1:
        return all((a & b).bit_count() & 1 == 0
                   for i, a in enumerate(rows) for b in rows[i:])
    low, mod = _lane_low(gm.ctx.m, gm.cols), gm.ctx.modulus
    planes = [[(v >> t) & low for t in range(gm.ctx.m)] for v in rows]
    for i, pa in enumerate(planes):
        for pb in planes[i:]:
            acc = 0
            for t, a in enumerate(pa):
                for s, b in enumerate(pb):
                    acc ^= ((a & b).bit_count() & 1) << (t + s)
            if acc and f2x_mod(acc, mod):
                return False
    return True
