"""The weight census against per-word brute-force counts."""
from __future__ import annotations

import itertools
import random
import sys
from collections import Counter

import pytest

from ucyclic._kernels import MAX_CENSUS_DIM, weight_census
from ucyclic.errors import TooLarge
from ucyclic.gf import FieldCtx
from ucyclic.gray import GenMatrix, weight_distribution


def brute_hist(rows, nbits, m=1):
    """Histogram of nonzero m-bit lanes over all subset XORs, word by word."""
    lane = (1 << m) - 1
    hist = [0] * (nbits // m + 1)
    for mask in range(1 << len(rows)):
        v = 0
        for i, r in enumerate(rows):
            if (mask >> i) & 1:
                v ^= r
        hist[sum((v >> (m * i)) & lane != 0 for i in range(nbits // m))] += 1
    return hist


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("nbits", [1, 7, 31, 60, 64])
def test_pure_kernel_matches_bruteforce(seed, nbits):
    rng = random.Random((seed, nbits).__hash__())
    rows = [rng.getrandbits(nbits) for _ in range(9)]
    want = brute_hist(rows, nbits)
    assert weight_census(rows, nbits) == want


def test_wide_rows_pure_only():
    rng = random.Random(9)
    rows = [rng.getrandbits(100) for _ in range(8)]
    want = brute_hist(rows, 100)
    assert weight_census(rows, 100) == want


@pytest.mark.parametrize("nbits,m", [(84, 3), (72, 2), (100, 5), (40, 8)])
def test_lanes_match_bruteforce(nbits, m):
    # m = 3: 21 lanes a column, so 64 does not split into whole lanes
    rng = random.Random(nbits * m)
    rows = [rng.getrandbits(nbits) for _ in range(9)]
    rows.append(rng.getrandbits(m) << (nbits - m))   # only the last lane
    assert weight_census(rows, nbits, m=m) == brute_hist(rows, nbits, m)


@pytest.mark.parametrize("m,modulus,ncols,nrows", [
    (2, 0x7, 36, 5),     # y^2 + y + 1 is the only modulus of degree 2
    (3, 0xd, 28, 4),     # non-default; 84 bits, lanes do not divide 64
    (5, 0x3d, 20, 3),    # non-default; 100 bits
])
def test_symbol_weights_match_bruteforce(m, modulus, ncols, nrows):
    ctx = FieldCtx(m, modulus)
    rng = random.Random(m)
    rows = [tuple(rng.randrange(ctx.order) for _ in range(ncols))
            for _ in range(nrows - 1)]
    # a dependent row: the census walks the span, not the messages
    c = rng.randrange(2, ctx.order)
    rows.append(tuple(ctx.mul(c, a) ^ b for a, b in zip(rows[0], rows[1])))
    words = set()
    for msg in itertools.product(range(ctx.order), repeat=nrows):
        word = [0] * ncols
        for coef, row in zip(msg, rows):
            for i, x in enumerate(row):
                word[i] ^= ctx.mul(coef, x)
        words.add(tuple(word))
    want = Counter(sum(x != 0 for x in w) for w in words)
    gm = GenMatrix(ctx, ncols // 4, tuple(rows))
    assert weight_distribution(gm) == dict(want)
    assert weight_distribution(gm, threads=2) == dict(want)


@pytest.mark.parametrize("nbits,m", [(60, 1), (70, 2)])
def test_threads_agree(nbits, m):
    # dims 0, 5, 21, 23: no walk, one outer step, and outer loops of 2 and 8
    # steps split over 1, 2 and 3 threads (3 splits 8 unevenly)
    rng = random.Random(nbits)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for dim in (0, 5, 21, 23):
            rows = [rng.getrandbits(nbits) for _ in range(dim)]
            hists = [weight_census(rows, nbits, threads=t, m=m)
                     for t in (1, 2, 3)]
            assert hists[1] == hists[0] and hists[2] == hists[0]
            assert sum(hists[0]) == 1 << dim
    finally:
        sys.setswitchinterval(switch)


def test_zero_dimension():
    assert weight_census([], 10) == [1] + [0] * 10


def test_duplicate_rows_reduce_rank_effects():
    # duplicate rows double the histogram (the map is 2-to-1 per codeword)
    rows = [0b1011, 0b0110]
    twice = weight_census(rows + [rows[0]], 4)
    once = weight_census(rows, 4)
    assert twice == [2 * c for c in once]


def test_dimension_cap():
    rows = [1 << i for i in range(MAX_CENSUS_DIM + 1)]
    with pytest.raises(TooLarge):
        weight_census(rows, MAX_CENSUS_DIM + 1)


def test_total_count():
    rng = random.Random(3)
    rows = [rng.getrandbits(50) for _ in range(14)]
    hist = weight_census(rows, 50)
    assert sum(hist) == 1 << 14
