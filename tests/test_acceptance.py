"""End-to-end acceptance checks with pinned time budgets.

One test per contract item.  Budgets are wall-clock upper bounds measured
around the work itself (not imports or fixtures).  The minimum-distance
check covers all 48 codes of the [60, 30, 8] family, one of them also by
the census walk.

test_05_selforth_reference_table pins the self-orthogonal count table for
lengths 6-98.  Twelve of its rows were corrected after exhaustive censuses
and the pair-lattice count refuted the values first tabulated; the comment
above the table keeps each old value and the reason it was replaced.
"""
from __future__ import annotations

import os
import random
import time

import pytest

from literal_oracles import (count_ideals_closed, lee_distribution_by_words,
                             selfdual_k345_list)
from ucyclic import duality as du
from ucyclic import oracle as orc
from ucyclic.cyclotomic import factor_xn_minus_1
from ucyclic.gray import generator_matrix, min_distance, weight_distribution
from ucyclic.ideals import count_ideals, enumerate_ideals
from ucyclic.selfdual import (count_selfdual, enumerate_cyclic,
                              enumerate_selfdual, family_60_30_8, theta_set,
                              to_ambient_generators)

_FD: dict = {}


def fd_of(n: int, m: int):
    if (n, m) not in _FD:
        _FD[(n, m)] = factor_xn_minus_1(n, m)
    return _FD[(n, m)]


def dense(code):
    return orc.span_code(code.n, code.m, code.k,
                         to_ambient_generators(code), code.fd.ctx.modulus)


def test_01_component_ideal_counts():
    count_ideals(2, 2)                    # warm any caches
    t0 = time.perf_counter()
    got = [count_ideals(2, k) for k in range(2, 10)]
    elapsed = time.perf_counter() - t0
    assert got == [7, 13, 23, 37, 59, 89, 135, 197]
    assert elapsed < 0.001


def test_02_ideal_enumeration_cross_check():
    t0 = time.perf_counter()
    for q in (2, 4, 8, 16):
        fd = fd_of(1, q.bit_length() - 1)
        for k in (2, 3, 4, 5):
            labels = list(enumerate_ideals(fd, 0, k))
            assert len(labels) == count_ideals(q, k) == count_ideals_closed(q, k)
    assert time.perf_counter() - t0 < 1.0


def test_03_ideal_census_oracle():
    t0 = time.perf_counter()
    fd1 = fd_of(1, 1)
    for k in (2, 3, 4):                   # residue field F_2, degree 1
        assert len(orc.brute_component_ideals(fd1, 0, k)) == count_ideals(2, k)
    fd3 = fd_of(3, 1)                     # degree-2 component: F_4
    assert len(orc.brute_component_ideals(fd3, 1, 2)) == count_ideals(4, 2)
    assert time.perf_counter() - t0 < 120.0


SELFDUAL_TABLE = {
    6: 9, 10: 15, 14: 39, 18: 81, 22: 99, 26: 195, 30: 945, 34: 867,
    38: 1539, 42: 8073, 46: 6159, 50: 15375, 54: 41553, 58: 49155,
    62: 151959, 66: 323433, 70: 799695, 74: 786435, 78: 2399085,
    82: 3151875, 86: 6440067, 90: 34879005, 94: 25165839, 98: 81789123,
}


def test_04_selfdual_count_table():
    t0 = time.perf_counter()
    got = {2 * n: count_selfdual(n, 1, 2) for n in range(3, 50, 2)}
    assert got == SELFDUAL_TABLE
    assert time.perf_counter() - t0 < 1.0


# The reference table for self-orthogonal counts over F_2 + uF_2:
# (3 + 2^m) * prod (3 + sigma_j) * prod (15 + 5 q_j) over the self-reciprocal
# factors and the reciprocal pairs of x^n - 1.  The per-pair factor is
# 15 + 5q: the component ideal lattice of a pair is the chain
# 0 < <uf> < {<u>, <f>, q - 1 mixed} < <u, f> < <1> (q + 5 ideals), C_j
# bounds C_{j*} by its annihilator, which runs over the same lattice in
# reverse order, so the self-orthogonal pairs are the pairs J <= I in that
# lattice: 1 + 2 + 3(q + 1) + (q + 4) + (q + 5) = 15 + 5q.  The exhaustive
# censuses agree (length 10 -> 35, 14 -> 275, 18 -> 275 over F_2 + uF_2, and
# length 6 -> 245 over F_4 + uF_4; see test_duality.py).
#
# Twelve rows were first tabulated with values this refutes; old -> new:
#   nine rows used the per-pair factor 14 + 5q instead of 15 + 5q:
#     14: 270 -> 275                 5(15+5*2^3)
#     30: 16450 -> 16625             5(15+5*2^4)(3+2^2)(3+2)
#     42: 450900 -> 460625           5(15+5*2^6)(15+5*2^3)(3+2)
#     46: 51270 -> 51275             5(15+5*2^11)
#     62: 26340120 -> 26796875       5(15+5*2^5)^3
#     70: 38733660 -> 39452875       5(15+5*2^12)(15+5*2^3)(3+2^2)
#     78: 34327450 -> 34329125       5(15+5*2^12)(3+2^6)(3+2)
#     94: 209715270 -> 209715275     5(15+5*2^23)
#     98: 2831158980 -> 2883588125   5(15+5*2^21)(15+5*2^3)
#   three rows matched neither pair factor:
#     10: 45 -> 35                   5(3+2^2); the old row's own printed
#                                    factorization already gave 35
#     66: 982600 -> 1071875          5(3+2)(3+2^5)^3; the old row's own
#                                    printed factorization gave 1071875
#     90: 25209157050 -> 3748023125  5(15+5*2^12)(15+5*2^4)(3+2^3)(3+2^2)
#                                    (3+2); 14 + 5q would give 3708389300
# The other twelve rows have no reciprocal pair, so both pair factors give
# the same value there, and they are unchanged.
REFERENCE_SELFORTH_TABLE = {
    6: 25, 10: 35, 14: 275, 18: 275, 22: 175, 26: 335, 30: 16625,
    34: 1805, 38: 2575, 42: 460625, 46: 51275, 50: 35945, 54: 141625,
    58: 81935, 62: 26796875, 66: 1071875, 70: 39452875, 74: 1310735,
    78: 34329125, 82: 5273645, 86: 11240455, 90: 3748023125,
    94: 209715275, 98: 2883588125,
}


def test_05_selforth_reference_table():
    t0 = time.perf_counter()
    got = {2 * n: du.count_selforthogonal(n, 1) for n in range(3, 50, 2)}
    elapsed = time.perf_counter() - t0
    mismatches = [
        f"  length {n2}: reference {REFERENCE_SELFORTH_TABLE[n2]}, "
        f"census-consistent {got[n2]}"
        for n2 in sorted(REFERENCE_SELFORTH_TABLE)
        if got[n2] != REFERENCE_SELFORTH_TABLE[n2]
    ]
    assert not mismatches, (
        "count_selforthogonal disagrees with the reference table on "
        f"{len(mismatches)} of 24 rows:\n" + "\n".join(mismatches) +
        "\nThe table follows the census-anchored closed form; see "
        "test_duality.py::test_selforth_census_brute and "
        "test_selforth_census_brute_f4."
    )
    assert elapsed < 1.0


def _packed(gm):
    return [sum(c << i for i, c in enumerate(row)) for row in gm.rows]


def test_06_945_codes_gray_matrices():
    t0 = time.perf_counter()
    fd = fd_of(15, 1)
    codes = list(enumerate_selfdual(15, 1, 2, fd))
    assert len(codes) == len(set(codes)) == 945
    for code in codes:
        rows = _packed(generator_matrix(code))
        red, _ = orc.rref_bits(rows, 60)
        assert len(red) == 30             # rank
        for i, a in enumerate(rows):      # G . G^T = 0
            for b in rows[i:]:
                assert bin(a & b).count("1") % 2 == 0
    assert time.perf_counter() - t0 < 60.0


def test_07_60_30_8_min_distance():
    fd = fd_of(15, 1)
    fam = family_60_30_8(fd)
    assert len(fam) == 48
    for code in fam:
        t0 = time.perf_counter()
        assert min_distance(generator_matrix(code)) == 8
        assert time.perf_counter() - t0 < 120.0
    # one member against the census walk of all 2^30 codewords
    t0 = time.perf_counter()
    threads = max(1, min(4, os.cpu_count() or 1))
    dist = weight_distribution(generator_matrix(fam[0]), threads=threads)
    assert min(w for w in dist if w) == 8
    assert time.perf_counter() - t0 < 120.0


def test_08_selfdual_oracle_both_directions():
    t0 = time.perf_counter()
    for (n, m, k) in [(1, 1, 2), (1, 1, 3), (1, 1, 4), (3, 1, 2), (1, 2, 2)]:
        fd = fd_of(n, m)
        mine = {tuple(sorted(dense(c).basis))
                for c in enumerate_selfdual(n, m, k, fd)}
        assert len(mine) == count_selfdual(n, m, k, fd)
        brute = {tuple(sorted(c.basis))
                 for c in orc.brute_all_ideals(n, m, k, fd.ctx.modulus)
                 if orc.brute_is_selfdual(c, fd.ctx.modulus)}
        assert mine == brute
    assert time.perf_counter() - t0 < 300.0


def test_09_hull_oracle():
    t0 = time.perf_counter()

    def check(code, fd):
        d = dense(code)
        brute = orc.brute_intersect(d, orc.brute_dual(d, fd.ctx.modulus))
        assert sorted(dense(du.hull(code)).basis) == sorted(brute.basis)

    for (n, m) in [(1, 1), (3, 1), (5, 1), (1, 2)]:
        fd = fd_of(n, m)
        for code in enumerate_cyclic(n, m, 2, fd):
            check(code, fd)
    fd7 = fd_of(7, 1)
    pool = list(enumerate_cyclic(7, 1, 2, fd7))
    for code in random.Random(0).sample(pool, 500):
        check(code, fd7)
    assert time.perf_counter() - t0 < 600.0


def test_10_theta_set_exactness():
    t0 = time.perf_counter()
    worked = fd_of(15, 1)
    from ucyclic.gf import poly_key

    def keys(ws):
        return {tuple(poly_key(worked.ctx, c) for c in w) for w in ws}

    assert keys(theta_set(worked, 1, 1)) == {(0b11,)}
    assert keys(theta_set(worked, 2, 1)) == {(0b1000,), (0b1011,), (0b11,)}

    for (n, m) in [(3, 1), (5, 1), (7, 1), (9, 1), (15, 1), (1, 2), (5, 2),
                   (3, 3)]:
        fd = fd_of(n, m)
        for j in range(1, fd.num_selfrec):
            d = fd.degree(j)
            for s in (1, 2, 3, 4):
                if d * m * s <= 16:
                    assert sorted(orc.theta_congruence_filter(fd, j, s)) == \
                        sorted(theta_set(fd, j, s).members)
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.parametrize("k", [3, 4, 5])
def test_11_k345_cross_generation(k):
    t0 = time.perf_counter()
    for (n, m) in [(1, 1), (3, 1), (5, 1)]:
        fd = fd_of(n, m)
        assert set(selfdual_k345_list(n, m, k, fd)) == \
            set(enumerate_selfdual(n, m, k, fd))
    # three k values share a single two-minute budget
    assert time.perf_counter() - t0 < 40.0


def test_12_lee_hamming_identity():
    t0 = time.perf_counter()
    for (n, m) in [(1, 1), (3, 1)]:
        fd = fd_of(n, m)
        for code in enumerate_selfdual(n, m, 2, fd):
            assert weight_distribution(generator_matrix(code)) == \
                lee_distribution_by_words(code)
    assert time.perf_counter() - t0 < 60.0


# Minimum distance of the Gray image -> number of the 945 self-dual codes of
# length 30 over F_2 + uF_2.  The paper's 48 are a strict subset of the 72
# codes with [60, 30, 8] images.
LENGTH_30_DISTANCE_SPECTRUM = {2: 3, 4: 852, 6: 18, 8: 72}


def test_13_length_30_distance_spectrum():
    t0 = time.perf_counter()
    fd = fd_of(15, 1)
    spectrum: dict[int, int] = {}
    distance_8 = set()
    for code in enumerate_selfdual(15, 1, 2, fd):
        d = min_distance(generator_matrix(code))
        spectrum[d] = spectrum.get(d, 0) + 1
        if d == 8:
            distance_8.add(code)
    assert spectrum == LENGTH_30_DISTANCE_SPECTRUM
    assert set(family_60_30_8(fd)) < distance_8
    assert time.perf_counter() - t0 < 60.0
