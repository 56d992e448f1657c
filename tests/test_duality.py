"""Duals, hulls, and self-orthogonal enumeration for k = 2.

The self-orthogonal counting here is the census-consistent one: the
(3 + 2^m) * prod (3 + sigma_j) * prod (15 + 5 q_j) closed form is pinned
against exhaustive brute-force censuses over the full cyclic-code lattice
at (5, 1), (7, 1), (9, 1) and (3, 2).  See test_selforth_census_brute and
test_selforth_census_brute_f4.
"""
from __future__ import annotations

import random

import pytest

from ucyclic import duality as du
from ucyclic.errors import UnsupportedK
from ucyclic.gf import poly_from_key
from ucyclic.ideals import IdealLabel, enumerate_ideals, ideal_generators
from ucyclic.oracle import (brute_component_ideals, brute_dual,
                            brute_intersect, brute_is_selfdual,
                            brute_is_selforthogonal, ideal_members, span_code)
from ucyclic.selfdual import (CyclicCode, enumerate_cyclic,
                              enumerate_selfdual, is_self_dual, mate_label,
                              to_ambient_generators)


def dense(code):
    return span_code(code.n, code.m, 2, to_ambient_generators(code),
                     code.fd.ctx.modulus)


def sample_codes(fd, count, seed):
    """``count`` k = 2 codes, one uniform label choice per component."""
    rng = random.Random(seed)
    per = [list(enumerate_ideals(fd, j, 2)) for j in range(fd.r)]
    return [CyclicCode(fd, 2, tuple(rng.choice(labels) for labels in per))
            for _ in range(count)]


# the k = 2 labels of a component other than mixed_one (i=1, t=0, w)
K2_FIXED = (IdealLabel("u_pow", i=0), IdealLabel("u_pow", i=1),
            IdealLabel("u_pow", i=2), IdealLabel("u_f", s=0),
            IdealLabel("u_f", s=1), IdealLabel("two_gen", i=1, s=0))


def k2_label(fd, j, r):
    """Label number r < q + 5 of component j at k = 2, with nothing listed:
    the six fixed labels, then mixed_one with the residue w of key r - 5."""
    if r < len(K2_FIXED):
        return K2_FIXED[r]
    return IdealLabel("mixed_one", i=1, t=0,
                      omega=(poly_from_key(fd.ctx, r - 5),))


def draw_k2_code(fd, rng):
    """A k = 2 code with one uniform label per component, drawn by number,
    so components with 2^21 labels cost no more than small ones."""
    return CyclicCode(fd, 2, tuple(
        k2_label(fd, j, rng.randrange((1 << fd.m * fd.degree(j)) + 5))
        for j in range(fd.r)))


@pytest.mark.parametrize("n,m,modulus", [(3, 1, None), (15, 1, None),
                                         (3, 2, None), (7, 3, 0xd)])
def test_k2_label_numbers_every_label_once(fdata, n, m, modulus):
    fd = fdata(n, m, modulus)
    for j in range(fd.r):
        q = 1 << (m * fd.degree(j))
        labels = {k2_label(fd, j, r) for r in range(q + 5)}
        assert len(labels) == q + 5
        assert labels == set(enumerate_ideals(fd, j, 2))


def test_shape_k2_partition(fdata):
    from literal_oracles import shape_k2
    fd = fdata(3, 1)
    shapes = {}
    for lab in enumerate_ideals(fd, 1, 2):
        shapes.setdefault(shape_k2(lab), []).append(lab)
    assert set(shapes) == {"zero", "one", "u", "f", "uf", "mixed", "top"}
    assert len(shapes["mixed"]) == 3     # one per unit of F_4
    for key in ("zero", "one", "u", "f", "uf", "top"):
        assert len(shapes[key]) == 1


# (n, m, modulus, j, q): self-reciprocal components at q = 2, 4, 16 and pair
# representatives at q = 4, 16, plus q = 8, the smallest pair over F_2 (x + 1
# is the only linear factor there, and it is self-reciprocal)
LATTICE_COMPONENTS = [(1, 1, None, 0, 2), (3, 1, None, 1, 4),
                      (5, 1, None, 1, 16), (3, 2, None, 1, 4),
                      (3, 4, 0x19, 1, 16), (7, 1, None, 1, 8)]


@pytest.mark.parametrize("n,m,modulus,j,q", LATTICE_COMPONENTS)
def test_level_rule_matches_component_ideals(fdata, n, m, modulus, j, q):
    """The lattice facts hull and the self-orthogonal enumerator rest on,
    against the oracle's member sets of every ideal of one component: a
    label's level is log2 of its size in units of m*d; c lies in d iff c == d
    or c sits lower; c meets d in the lower of the two or, for distinct
    middle ideals, in <uf>; and the dual label sits on level 4 - level."""
    fd = fdata(n, m, modulus)
    assert 1 << (m * fd.degree(j)) == q
    members = {lab: ideal_members(fd, j, 2,
                                  ideal_generators(fd, j, 2, lab))
               for lab in enumerate_ideals(fd, j, 2)}
    assert len(members) == q + 5
    assert set(members.values()) == set(brute_component_ideals(fd, j, 2))
    uf = members[IdealLabel("u_f", s=1)]
    for c, cm in members.items():
        level = du._level(c)
        assert len(cm) == q ** level
        assert du._level(mate_label(fd, j, c, 2)) == 4 - level
        for d, dm in members.items():
            inside = c == d or level < du._level(d)
            assert (cm <= dm) == inside
            meet = cm if inside else dm if dm <= cm else uf
            assert cm & dm == meet


@pytest.mark.parametrize("n,m", [(1, 1), (3, 1), (1, 2)])
def test_dual_equals_brute(fdata, n, m):
    fd = fdata(n, m)
    for code in enumerate_cyclic(n, m, 2, fd):
        mine = dense(du.dual_code(code))
        brute = brute_dual(dense(code), fd.ctx.modulus)
        assert sorted(mine.basis) == sorted(brute.basis)


def test_dual_involution_and_size(fdata):
    for (n, m) in [(3, 1), (7, 1), (1, 2)]:
        fd = fdata(n, m)
        for code in enumerate_cyclic(n, m, 2, fd):
            dc = du.dual_code(code)
            assert du.dual_code(dc) == code
            assert code.size_log2() + dc.size_log2() == 2 * n * m * 2


@pytest.mark.parametrize("n,m", [(1, 1), (3, 1), (5, 1), (1, 2)])
def test_hull_equals_brute_full(fdata, n, m):
    fd = fdata(n, m)
    for code in enumerate_cyclic(n, m, 2, fd):
        d = dense(code)
        brute = brute_intersect(d, brute_dual(d, fd.ctx.modulus))
        mine = dense(du.hull(code))
        assert sorted(mine.basis) == sorted(brute.basis)


def test_hull_equals_brute_sample_7(fdata):
    fd = fdata(7, 1)
    pool = list(enumerate_cyclic(7, 1, 2, fd))
    for code in random.Random(7).sample(pool, 300):
        d = dense(code)
        brute = brute_intersect(d, brute_dual(d, fd.ctx.modulus))
        mine = dense(du.hull(code))
        assert sorted(mine.basis) == sorted(brute.basis)


@pytest.mark.parametrize("n,m,modulus", [(3, 3, 0xd), (15, 1, None)])
def test_hull_and_selforth_equal_brute_sampled(fdata, n, m, modulus):
    fd = fdata(n, m, modulus)
    for code in sample_codes(fd, 200, seed=n):
        d = dense(code)
        brute = brute_intersect(d, brute_dual(d, fd.ctx.modulus))
        assert sorted(dense(du.hull(code)).basis) == sorted(brute.basis)
        assert du.is_self_orthogonal(code) == (len(brute.basis)
                                               == len(d.basis))


@pytest.mark.parametrize("n", range(1, 50, 2))
def test_dual_and_hull_equal_brute_every_odd_n(fdata, n):
    """20 drawn codes at each length 2n <= 98 over F_2 + uF_2, listing no
    component (the largest at n = 41, 47 and 49 have 2^20 and more labels)."""
    fd = fdata(n, 1)
    rng = random.Random(n)
    for _ in range(20):
        code = draw_k2_code(fd, rng)
        d = dense(code)
        brute = brute_dual(d, fd.ctx.modulus)
        assert sorted(dense(du.dual_code(code)).basis) == sorted(brute.basis)
        assert sorted(dense(du.hull(code)).basis) == sorted(
            brute_intersect(d, brute).basis)


def test_hull_properties(fdata):
    fd = fdata(7, 1)
    for code in enumerate_cyclic(7, 1, 2, fd):
        h = du.hull(code)
        assert du.hull(du.dual_code(code)) == h
        assert du.hull_dimension(code) * code.m == h.size_log2()
    # worked facts: hull of <1> is <0>; hull of <u> is <u> (dim 2n)
    full = CyclicCode(fd, 2, tuple(IdealLabel("u_pow", i=0)
                                   for _ in range(fd.r)))
    assert du.hull_dimension(full) == 0
    uonly = CyclicCode(fd, 2, tuple(IdealLabel("u_pow", i=1)
                                    for _ in range(fd.r)))
    assert du.hull(uonly) == uonly
    assert du.hull_dimension(uonly) == 2 * 7


def test_hull_of_selfdual_is_itself(fdata):
    fd = fdata(15, 1)
    for code in random.Random(1).sample(
            list(enumerate_selfdual(15, 1, 2, fd)), 50):
        assert du.hull(code) == code
        assert du.is_self_orthogonal(code)


@pytest.mark.parametrize("n,m", [(1, 1), (3, 1), (5, 1), (7, 1), (1, 2)])
def test_selforth_enumeration_equals_filter(fdata, n, m):
    fd = fdata(n, m)
    mine = set(du.enumerate_selforthogonal(n, m, fd))
    filt = {c for c in enumerate_cyclic(n, m, 2, fd)
            if brute_is_selforthogonal(dense(c), fd.ctx.modulus)}
    assert mine == filt
    assert len(mine) == du.count_selforthogonal(n, m, fd)


@pytest.mark.parametrize("n,m", [(1, 1), (3, 1), (1, 2)])
def test_is_selforth_equals_brute(fdata, n, m):
    fd = fdata(n, m)
    for code in enumerate_cyclic(n, m, 2, fd):
        assert du.is_self_orthogonal(code) == brute_is_selforthogonal(
            dense(code), fd.ctx.modulus)


@pytest.mark.parametrize("n,expected", [(5, 35), (7, 275), (9, 275)])
def test_selforth_census_brute(fdata, n, expected):
    """Frozen exhaustive censuses: every cyclic code over F_2+uF_2 of length
    2n is span-checked against the brute-force dual.  These three numbers
    anchor the 15 + 5q pair factor of count_selforthogonal."""
    fd = fdata(n, 1)
    got = sum(1 for c in enumerate_cyclic(n, 1, 2, fd)
              if brute_is_selforthogonal(dense(c), fd.ctx.modulus))
    assert got == expected
    assert du.count_selforthogonal(n, 1, fd) == expected


def test_selforth_census_brute_f4(fdata):
    """The same census over F_4 + uF_4 at length 6: 245 of the 729 cyclic
    codes are self-orthogonal, (3 + 4)(15 + 5*4), where 14 + 5q would give
    238.  This checks the pair factor at a second residue field size."""
    fd = fdata(3, 2)
    codes = list(enumerate_cyclic(3, 2, 2, fd))
    assert len(codes) == 729
    got = sum(1 for c in codes
              if brute_is_selforthogonal(dense(c), fd.ctx.modulus))
    assert got == 245
    assert du.count_selforthogonal(3, 2, fd) == 245


def test_selfdual_subset_of_selforth(fdata):
    for (n, m) in [(3, 1), (7, 1)]:
        fd = fdata(n, m)
        sd = set(enumerate_selfdual(n, m, 2, fd))
        so = set(du.enumerate_selforthogonal(n, m, fd))
        assert sd < so
        for c in so - sd:
            assert not brute_is_selfdual(dense(c), fd.ctx.modulus)


CORRECTED_SELFORTH = {
    6: 25, 10: 35, 14: 275, 18: 275, 22: 175, 26: 335, 30: 16625,
    34: 1805, 38: 2575, 42: 460625, 46: 51275, 50: 35945, 54: 141625,
    58: 81935, 62: 26796875, 66: 1071875, 70: 39452875, 74: 1310735,
    78: 34329125, 82: 5273645, 86: 11240455, 90: 3748023125,
    94: 209715275, 98: 2883588125,
}


def test_selforth_count_table_census_consistent():
    """The full m = 1 table of the census-consistent closed form.  At
    lengths 10, 14, and 18 the values are directly confirmed by the
    exhaustive censuses above (35, 275, 275)."""
    for n2, want in CORRECTED_SELFORTH.items():
        assert du.count_selforthogonal(n2 // 2, 1) == want


def test_k2_only(fdata):
    fd = fdata(3, 1)
    code = next(iter(enumerate_selfdual(3, 1, 3, fd)))
    with pytest.raises(UnsupportedK):
        du.dual_code(code)
    with pytest.raises(UnsupportedK):
        du.hull(code)
    with pytest.raises(UnsupportedK):
        du.is_self_orthogonal(code)
    with pytest.raises(UnsupportedK):
        du.hull_dimension(code)
