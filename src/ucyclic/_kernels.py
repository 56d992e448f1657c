"""Weight census: the weight histogram of the F_2 span of bit-packed rows.

``weight_census(rows, nbits, threads, m)`` visits all 2^len(rows) subset XORs
of ``rows`` and counts them by weight, the number of nonzero m-bit lanes
(lane i at bits [m*i, m*i + m)): the Hamming weight at m = 1, the number of
nonzero F_{2^m} symbols for m > 1.

Meet in the middle: a table holds the XORs of the first rows, and the rest
are walked in Gray-code order, one accumulator XOR per step; each step scores
the table against the accumulator with numpy popcounts, a fixed-size slice at
a time.  Words are split into 64-bit columns of 64 // m whole lanes, and for
m > 1 each lane is OR-collapsed onto its low bit before the popcount.  The
walk is split into contiguous index ranges, one per thread; numpy ufuncs
release the GIL, and each thread keeps its own accumulator, slice buffers and
histogram.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DimensionTooLarge

MAX_CENSUS_DIM = 32      # the one cap on exhaustive walks: 2^32 words
_TABLE_LOG2 = 20         # the table: 2^20 words, 8 MB per 64-bit column
_SLICE = 1 << 16         # table entries scored per numpy call
_MAX_THREADS = 64

__all__ = ["MAX_CENSUS_DIM", "weight_census"]


def _columns(rows: list[int], nbits: int, m: int) -> np.ndarray:
    """The rows as a (len(rows), ncols) uint64 array of 64 // m lanes each."""
    width = 64 // m * m
    ncols = max(1, -(-nbits // width))
    mask = (1 << width) - 1
    return np.array([[(r >> (width * c)) & mask for c in range(ncols)]
                     for r in rows], dtype=np.uint64)


def _collapse_shifts(m: int) -> list[np.uint64]:
    """Right shifts whose successive ORs leave at bit j the OR of bits
    [j, j + m); each one at most doubles the span covered so far."""
    shifts, span = [], 1
    while span < m:
        step = min(span, m - span)
        shifts.append(np.uint64(step))
        span += step
    return shifts


def weight_census(rows: list[int], nbits: int, threads: int = 1,
                  m: int = 1) -> list[int]:
    """Weight histogram of the span walk: index w counts the subset XORs of
    ``rows`` (ints of ``nbits`` bits, a multiple of the lane width ``m``)
    with w nonzero m-bit lanes.  The histogram has nbits // m + 1 entries
    and sums to 2^len(rows)."""
    d = len(rows)
    if d > MAX_CENSUS_DIM:
        raise DimensionTooLarge(
            f"walk over 2^{d} words exceeds the 2^{MAX_CENSUS_DIM} cap")
    if not 0 < m <= 64 or nbits % m:
        raise ValueError(f"{nbits} bits do not split into {m}-bit lanes")
    nlanes = nbits // m
    if d == 0:
        return [1] + [0] * nlanes
    packed = _columns(rows, nbits, m)
    ncols = packed.shape[1]
    d1 = min(d, _TABLE_LOG2)
    table = np.zeros((ncols, 1 << d1), dtype=np.uint64)
    for j in range(d1):
        np.bitwise_xor(table[:, :1 << j], packed[j, :, None],
                       out=table[:, 1 << j:2 << j])
    size = min(_SLICE, 1 << d1)
    shifts = _collapse_shifts(m)
    low = np.uint64(((1 << (64 // m * m)) - 1) // ((1 << m) - 1))
    weight_type = np.min_scalar_type(nlanes)

    def walk(start: int, stop: int) -> np.ndarray:
        """Histogram of outer Gray indices [start, stop)."""
        hist = np.zeros(nlanes + 1, dtype=np.int64)
        word = np.empty(size, dtype=np.uint64)
        spare = np.empty(size, dtype=np.uint64)
        weight = np.empty(size, dtype=weight_type)
        lanes = np.empty(size, dtype=np.uint8)
        gray = start ^ (start >> 1)
        acc = np.zeros(ncols, dtype=np.uint64)
        for j in range(d - d1):
            if gray >> j & 1:
                acc ^= packed[d1 + j]
        for t in range(start, stop):
            if t > start:
                acc ^= packed[d1 + (t & -t).bit_length() - 1]
            for s in range(0, 1 << d1, size):
                for c in range(ncols):
                    np.bitwise_xor(table[c, s:s + size], acc[c], out=word)
                    if shifts:
                        for k in shifts:
                            np.right_shift(word, k, out=spare)
                            np.bitwise_or(word, spare, out=word)
                        np.bitwise_and(word, low, out=word)
                    np.bitwise_count(word, out=weight if c == 0 else lanes)
                    if c:
                        np.add(weight, lanes, out=weight)
                hist += np.bincount(weight, minlength=nlanes + 1)
        return hist

    outer = 1 << (d - d1)
    threads = max(1, min(threads, outer, _MAX_THREADS))
    bounds = [outer * i // threads for i in range(threads + 1)]
    with ThreadPoolExecutor(threads) as pool:
        return sum(pool.map(walk, bounds[:-1], bounds[1:])).tolist()
