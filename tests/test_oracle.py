"""The brute-force oracle layer itself: packed linear algebra, span closure,
duals by linear systems, and exhaustive ideal censuses."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from literal_oracles import (all_ideals_every_pair, apply_map_per_bit,
                             brute_dual_by_blocks, canon, intersect_then_canon,
                             map_closure_by_min, nullspace_bits,
                             theta_congruence_filter_full_walk)

from ucyclic import quotient as qt
from ucyclic.errors import TooLarge
from ucyclic.gf import FieldCtx, poly_add, poly_scale
from ucyclic.ideals import count_ideals
from ucyclic.oracle import (AMBIENT_CAP_LOG2, DenseCode, _r_mul,
                            ambient_maps, apply_map, brute_all_ideals,
                            brute_component_ideals, brute_dual,
                            brute_intersect, brute_is_selfdual,
                            brute_is_selforthogonal, map_closure, rref_bits,
                            span_code, span_words, tabulate_map,
                            theta_congruence_filter)
from ucyclic.selfdual import count_selfdual, theta_set


def test_rref_bits():
    rows = [0b110, 0b011, 0b101]
    red, pivots = rref_bits(rows, 3)
    assert len(red) == 2                  # rank 2: rows sum to zero
    # reduced basis: distinct pivots, pivot bit absent from other rows
    for i, r in enumerate(red):
        for j, r2 in enumerate(red):
            if i != j:
                assert not (r2 >> pivots[i]) & 1
    assert rref_bits([], 4) == ([], [])


def test_nullspace_bits():
    # x0 + x1 = 0, x2 = 0  ->  nullspace {000, 110}
    rows = [0b011, 0b100]
    null = nullspace_bits(rows, 3)
    assert sorted(null) == [0b011]
    for v in null:
        for r in rows:
            assert bin(v & r).count("1") % 2 == 0
    assert len(nullspace_bits([], 3)) == 3


def test_span_code_shapes():
    # <u> at n=1, m=1, k=2: codewords {0, u, ux, u+ux}
    dc = span_code(1, 1, 2, [0b10])       # u in coordinate 0
    assert len(dc.basis) == 2
    assert sorted(dc.words()) == [0, 0b10, 0b1000, 0b1010]


def _word_closure(gens, maps, nbits):
    """Smallest map-closed subspace holding gens, grown word by word."""
    words = {0}
    queue = list(gens)
    while queue:
        w = queue.pop()
        if w in words:
            continue
        fresh = {w ^ x for x in words}
        words |= fresh
        for v in fresh:
            for tables in maps:         # bit b's image: one entry of its byte
                img = 0
                for b in range(nbits):
                    if (v >> b) & 1:
                        img ^= tables[b >> 3][1 << (b & 7)]
                queue.append(img)
    return words


# ambient spaces of 2^12 words: m = 1, 2 and 3 (the last under y^3+y^2+1)
@pytest.mark.parametrize("n,m,k,modulus", [(3, 1, 2, None), (1, 2, 3, None),
                                           (3, 2, 1, None), (1, 3, 2, 0xd)])
def test_map_closure_matches_word_bfs(n, m, k, modulus):
    nbits, maps, _ = ambient_maps(n, m, k, modulus)
    assert nbits == 12
    rng = random.Random(nbits * 100 + m * 10 + k)
    sizes = set()
    for _ in range(12):
        # sparse generators keep some spans proper
        gens = [sum(1 << rng.randrange(nbits)
                    for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 2))]
        piv = map_closure(gens, maps)
        want = _word_closure(gens, maps, nbits)
        assert span_words(piv.values()) == want
        assert all(p == r.bit_length() - 1 for p, r in piv.items())
        assert span_code(n, m, k, gens, modulus).words() == want
        sizes.add(len(want))
    assert len(sizes) > 1


@st.composite
def _maps_and_vectors(draw):
    """1..40 bits, one to three linear maps as per-bit images (zero, one bit
    or any vector, so some spans stay proper), and a few vectors."""
    nbits = draw(st.integers(1, 40))
    vec = st.integers(0, (1 << nbits) - 1)
    image = st.one_of(st.just(0), st.builds(lambda b: 1 << b,
                                            st.integers(0, nbits - 1)), vec)
    maps = draw(st.lists(st.lists(image, min_size=nbits, max_size=nbits),
                         min_size=1, max_size=3))
    return nbits, maps, draw(st.lists(vec, min_size=1, max_size=4))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_maps_and_vectors())
def test_tabled_core_matches_per_bit_core(drawn):
    """Byte tables apply a map as its per-bit images do, at every width, and
    the pivot closure spans what the min-reduction closure spans, each row
    keyed by its leading bit."""
    nbits, maps, vectors = drawn
    tabled = [tabulate_map(images) for images in maps]
    for images, tables in zip(maps, tabled):
        for v in vectors:
            assert apply_map(tables, v) == apply_map_per_bit(images, v)
    piv = map_closure(vectors, tabled)
    assert canon(piv.values(), nbits) == canon(
        map_closure_by_min(vectors, maps), nbits)
    assert all(p == r.bit_length() - 1 for p, r in piv.items())


def test_brute_dual_hand_checked():
    # repetition code <(1,1)> over F_2 + uF_2 at 2n = 2: dual is the
    # 8-element code of (a, b) with a + b = 0 ... over R: <(1,1)> has dual
    # {(r, s): r + s = 0} = <(1,1)> itself of size 16? no: <(1,1)> as an
    # R-module has 4 elements; its Euclidean dual has 16/4 = 4.
    dc = span_code(1, 1, 2, [0b0101])     # (1, 1)
    dd = brute_dual(dc)
    assert len(dd.basis) == 2
    assert brute_is_selfdual(dc)
    # <u(1,1)>: self-orthogonal, not self-dual
    du_ = span_code(1, 1, 2, [0b1010])
    assert brute_is_selforthogonal(du_)
    assert not brute_is_selfdual(du_)


def test_dual_of_dual():
    for gens in ([0b0101], [0b10], [0b0001], [0b1111]):
        dc = span_code(1, 1, 2, gens)
        assert brute_dual(brute_dual(dc)) == dc


def test_brute_intersect():
    a = span_code(1, 1, 2, [0b0101])
    b = span_code(1, 1, 2, [0b1010])      # u * the first
    inter = brute_intersect(a, b)
    assert len(inter.basis) == 1
    assert inter.basis[0] == 0b1010


def test_words_cap():
    with pytest.raises(TooLarge):
        DenseCode(11, 1, 2, tuple(1 << i for i in range(44))).words()


@pytest.mark.parametrize("k,want", [(2, 7), (3, 13), (4, 23)])
def test_component_census_q2(fdata, k, want):
    fd = fdata(1, 1)
    assert len(brute_component_ideals(fd, 0, k)) == want == count_ideals(2, k)


def test_component_census_q4(fdata):
    fd = fdata(3, 1)                      # j = 1 has degree 2: q = 4
    assert len(brute_component_ideals(fd, 1, 2)) == 9 == count_ideals(4, 2)


@pytest.mark.parametrize("k", [6, 7])
def test_selfdual_census_brute_high_k(k):
    # every cyclic code of length 2 over F_2[u]/(u^k), dual by linear algebra
    got = sum(brute_is_selfdual(c) for c in brute_all_ideals(1, 1, k))
    assert got == 15 == count_selfdual(1, 1, k)


def test_all_ideals_census(fdata):
    # length-2 codes over F_2+uF_2: 7 cyclic codes (ideals of R[x]/(x^2-1))
    assert len(brute_all_ideals(1, 1, 2)) == 7
    # and the (3, 1) lattice has 7 * 9 = 63
    assert len(brute_all_ideals(3, 1, 2)) == 63


@pytest.mark.parametrize("n,m,j,s", [(15, 1, 1, 1), (15, 1, 2, 1),
                                     (9, 1, 1, 1), (5, 1, 1, 1),
                                     (5, 1, 1, 2), (5, 2, 1, 1)])
def test_theta_congruence_matches_theta_set(fdata, n, m, j, s):
    fd = fdata(n, m)
    assert sorted(theta_congruence_filter(fd, j, s)) == \
        sorted(theta_set(fd, j, s).members)


def test_theta_congruence_rejects_pairs(fdata):
    fd = fdata(7, 1)
    with pytest.raises(ValueError):
        theta_congruence_filter(fd, 1, 1)   # j = 1 is a pair representative


def _theta_whole_units(fd, j, s):
    """Every unit of F_j[u]/(u^s), with the substitution applied to each
    coefficient of each unit (the reference for the per-element verdicts)."""
    ring = qt.field_ring(fd, j)
    xfac = ring.pow((0, 1), 2 * fd.n - fd.degree(j))
    out = []
    for w in qt.u_units(ring, s):
        if all(not poly_add(a, poly_scale(fd.ctx,
                                          ring.mul(xfac, qt.hat(fd, j, a)),
                                          fd.delta[j]))
               for a in w):
            out.append(w)
    return out


# the (n, m) of test_10_theta_set_exactness
THETA_NM = [(3, 1), (5, 1), (7, 1), (9, 1), (15, 1), (1, 2), (5, 2), (3, 3)]


# plus m = 3 under y^3 + y^2 + 1
@pytest.mark.parametrize("n,m,modulus", [(n, m, None) for n, m in THETA_NM]
                         + [(3, 3, 0xd)])
def test_theta_congruence_matches_whole_unit_loop(fdata, n, m, modulus):
    fd = fdata(n, m, modulus)
    cases = 0
    for j in range(fd.num_selfrec):
        for s in (1, 2, 3, 4):
            if fd.degree(j) * m * s <= 12:
                assert theta_congruence_filter(fd, j, s) == \
                    _theta_whole_units(fd, j, s)
                cases += 1
    assert cases


@pytest.mark.parametrize("n,m", THETA_NM)
def test_theta_congruence_matches_full_walk(fdata, n, m):
    """The walk over passing slots lists what the walk over all digit
    tuples lists, in the same order, on test_10's every (j, s)."""
    fd = fdata(n, m)
    for j in range(1, fd.num_selfrec):
        for s in (1, 2, 3, 4):
            if fd.degree(j) * m * s <= 16:
                assert theta_congruence_filter(fd, j, s) == \
                    theta_congruence_filter_full_walk(fd, j, s)


def _inner(ctx, n, k, v, w):
    """Euclidean inner product over R of two packed vectors, whole-vector."""
    step = k * ctx.m
    mask = (1 << step) - 1
    out = 0
    for c in range(2 * n):
        vc = (v >> (c * step)) & mask
        wc = (w >> (c * step)) & mask
        if vc and wc:
            out ^= _r_mul(ctx, k, vc, wc)
    return out


def _dual_by_columns(code, ctx):
    """Dual from the columns <b, e_j>, each a full inner product."""
    rows = []
    for b in code.basis:
        cols = [_inner(ctx, code.n, code.k, b, 1 << j)
                for j in range(code.nbits)]
        rows += [sum(((val >> o) & 1) << j for j, val in enumerate(cols))
                 for o in range(code.k * code.m)]
    return canon(nullspace_bits(rows, code.nbits), code.nbits)


# every ambient space of at most 2^12 words named here, m = 3 under 0xd
DUAL_AMBIENTS = [(3, 1, 2, None), (1, 2, 3, None), (1, 3, 2, 0xd)] + \
    [(1, 1, k, None) for k in range(1, 7)]


@pytest.mark.parametrize("n,m,k,modulus", DUAL_AMBIENTS)
def test_brute_dual_matches_inner_products(n, m, k, modulus):
    ctx = FieldCtx(m, modulus)
    codes = brute_all_ideals(n, m, k, modulus)
    nbits = codes[0].nbits
    assert nbits <= 12
    for code in codes:
        dual = brute_dual(code, modulus)
        assert dual.basis == _dual_by_columns(code, ctx)
        walked = {v for v in range(1 << nbits)
                  if not any(_inner(ctx, n, k, b, v) for b in code.basis)}
        assert dual.words() == walked
        assert code.rank + dual.rank == nbits     # |C| |C^perp| = |R|^(2n)


# m = 3 under both irreducible cubics
SUBSPACE_FIELDS = [(1, None), (2, None), (3, 0xb), (3, 0xd)]


@st.composite
def _subspace_pair(draw):
    """An ambient R^(2n), n in {1, 3, 5} and k in 1..4, and two arbitrary
    F_2 subspaces of it (not only ideals), as canonical bases of a few
    vectors, some of them one symbol in one coordinate."""
    n = draw(st.sampled_from([1, 3, 5]))
    m, modulus = draw(st.sampled_from(SUBSPACE_FIELDS))
    k = draw(st.integers(1, 4))
    step = k * m
    nbits = 2 * n * step
    symbol = st.builds(lambda c, s: s << (c * step), st.integers(0, 2 * n - 1),
                       st.integers(1, (1 << step) - 1))
    vectors = st.lists(st.one_of(st.integers(0, (1 << nbits) - 1), symbol),
                       max_size=5)
    a, b = (DenseCode(n, m, k, canon(draw(vectors), nbits)) for _ in "ab")
    return modulus, a, b


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_subspace_pair())
def test_one_elimination_matches_reducing_twice(drawn):
    """The dual and the intersection read their canonical bases off one
    elimination, as the routes that reduce their result again find them."""
    modulus, a, b = drawn
    dual = brute_dual(a, modulus)
    assert dual == brute_dual_by_blocks(a, modulus)
    assert dual.basis == canon(dual.basis, a.nbits)
    for other in (b, dual):
        assert brute_intersect(a, other) == intersect_then_canon(a, other)


@pytest.mark.parametrize("n,m,k,modulus", [
    (3, 1, 2, None), (1, 1, 4, None), (1, 2, 2, None), (1, 1, 6, None),
    (3, 1, 3, None), (1, 3, 2, 0xd)])
def test_census_matches_every_pair_census(n, m, k, modulus):
    """Skipping the sums that lie in the larger ideal loses no ideal and
    keeps the order of discovery."""
    assert [c.basis for c in brute_all_ideals(n, m, k, modulus)] == \
        all_ideals_every_pair(n, m, k, modulus)
