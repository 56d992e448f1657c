"""Gray map, Lee weights, structured generator matrices, distributions."""
from __future__ import annotations

import functools
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucyclic
from literal_oracles import (circulant, generator_matrix_rows, gray_map,
                             last_modulus, lee_distribution_by_words,
                             nullspace_bits)
from ucyclic import duality as du
from ucyclic.errors import DimensionTooLarge, MinDistOfTrivial, UnsupportedK
from ucyclic.cyclotomic import factor_xn_minus_1
from ucyclic.gf import (FieldCtx, P_ONE, f2x_is_irreducible, f2x_mod,
                        poly_from_key)
from ucyclic.gray import (GenMatrix, _lane_low, _span_image_matrix,
                          generator_matrix, gray_image_matrix, gray_map_packed,
                          gram_is_zero, is_2_quasi_cyclic, lee_distribution,
                          lee_weight, min_distance, rref_fq, unpack_ambient,
                          weight_distribution)
from ucyclic.ideals import IdealLabel
from ucyclic.oracle import span_code
from ucyclic.selfdual import (CyclicCode, enumerate_cyclic,
                              enumerate_selfdual, family_60_30_8,
                              is_self_dual, to_ambient_generators)


def test_gray_map_basics():
    # xi = u at length 2 maps to (1, 0, 1, 0): b-half then (a+b)-half
    assert gray_map([(0, 1), (0, 0)]) == (1, 0, 1, 0)
    assert gray_map([(1, 0), (0, 0)]) == (0, 0, 1, 0)
    assert gray_map([(0, 0)] * 3) == (0,) * 6
    with pytest.raises(UnsupportedK):
        gray_map([(1, 0, 0)])


def test_public_gray_map_equals_tuple_route():
    # the public pair-form map goes through the lane-packed route
    rng = random.Random(7)
    for m in (1, 2, 5, 8):
        for npairs in (0, 1, 3, 8):
            xi = [(rng.randrange(1 << m), rng.randrange(1 << m))
                  for _ in range(npairs)]
            assert ucyclic.gray_map(xi) == gray_map(xi)
            assert ucyclic.gray_map(iter(xi)) == gray_map(xi)
    assert ucyclic.gray_map([(0, 0)] * 3) == (0,) * 6
    with pytest.raises(UnsupportedK):
        ucyclic.gray_map([(1, 0, 0)])
    with pytest.raises(ValueError):
        ucyclic.gray_map([(1, -1)])


@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (3, 3), (5, 1), (2, 6)])
def test_gray_map_packed_equals_tuple_route(n, m):
    rng = random.Random(n * m)
    width = 4 * n * m
    for v in [0, (1 << width) - 1] + [rng.getrandbits(width)
                                       for _ in range(200)]:
        want = gray_map(unpack_ambient(v, n, m, 2))
        assert gray_map_packed(v, n, m) == want
        # bits above the vector are not part of it
        assert gray_map_packed(v | 1 << (width + 3), n, m) == want


def test_gray_map_linear_injective():
    seen = {}
    for v in range(256):                 # all of R^2 at n=1, m=2
        img = gray_map_packed(v, 1, 2)
        assert img not in seen.values()
        seen[v] = img
    for a in (3, 17, 130):
        for b in (9, 77, 255):
            want = tuple(x ^ y for x, y in zip(seen[a], seen[b]))
            assert gray_map_packed(a ^ b, 1, 2) == want


def test_lee_weight():
    # w_L(a + bu) = wt(b) + wt(a + b) coordinatewise
    assert lee_weight(0, 0) == 0
    assert lee_weight(1, 0) == 1          # a=1: (0, 1)
    assert lee_weight(0, 1) == 2          # a=0, b=1: u has Lee weight 2
    assert lee_weight(1, 1) == 1          # 1+u: b=1, a+b=0
    for a in range(4):
        for b in range(4):                # m = 2 symbols
            img = gray_map_packed((b << 2) | a, 1, 2)[:2]
            # one coordinate of the pair (b, a+b)
            assert lee_weight(a, b) == sum(1 for x in (b, a ^ b) if x)


def test_circulant():
    assert circulant(P_ONE, 2, 4) == ((1, 0, 0, 0), (0, 1, 0, 0))
    assert circulant((0, 0, 0, 1), 2, 4) == ((0, 0, 0, 1), (1, 0, 0, 0))
    a = (1, 1, 0)
    rows = circulant(a, 3, 5)
    assert rows[1] == (0, 1, 1, 0, 0) and rows[2] == (0, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        circulant(a, 0, 5)


def _packed(m, rows):
    return tuple(sum(x << (m * i) for i, x in enumerate(r)) for r in rows)


@pytest.mark.parametrize("n, m, modulus", [(15, 1, None), (9, 2, None),
                                           (5, 3, None), (7, 3, 0xd)])
def test_generator_matrix_equals_circulant_oracle(fdata, n, m, modulus):
    # the lane rotation against the circulants of the block polynomials, on
    # every self-dual code
    fd = fdata(n, m, modulus)
    for code in enumerate_selfdual(n, m, 2, fd):
        assert generator_matrix(code).packed == \
            _packed(m, generator_matrix_rows(code))


@pytest.mark.parametrize("n, m", [(9, 1), (3, 2)])
def test_gray_image_matrix_equals_tuple_route(fdata, n, m):
    # Gray map of the oracle basis as symbol tuples, then rref_fq
    fd = fdata(n, m)
    pool = [c for c in enumerate_cyclic(n, m, 2, fd) if not is_self_dual(c)]
    for code in random.Random(20 + m).sample(pool, 100):
        dc = span_code(n, m, 2, to_ambient_generators(code), fd.ctx.modulus)
        img = [gray_map(unpack_ambient(v, n, m, 2)) for v in dc.basis]
        want = rref_fq(fd.ctx, img)[0] if img else []
        assert gray_image_matrix(code).rows == tuple(want)


def test_generator_matrix_reuses_blocks(fdata, monkeypatch):
    # a second generator_matrix on a warm FactorData multiplies nothing
    fd = fdata(7, 3, 0xd)
    codes = list(enumerate_selfdual(7, 3, 2, fd))[::500]
    first = [generator_matrix(code).packed for code in codes]
    calls = []
    for mod in list(sys.modules.values()):
        real = getattr(mod, "poly_mulmod", None)
        if real is not None and mod.__name__.startswith("ucyclic"):
            def counting(*args, _real=real):
                calls.append(args)
                return _real(*args)
            monkeypatch.setattr(mod, "poly_mulmod", counting)
    assert [generator_matrix(code).packed for code in codes] == first
    assert calls == []


def test_genmatrix_rejects_symbols_outside_the_field():
    for m in (1, 6):
        ctx, q = FieldCtx(m), 1 << m
        ok = GenMatrix(ctx, 1, ((q - 1, 0, 0, 1),))
        assert ok.rows == ((q - 1, 0, 0, 1),) and ok.rank() == 1
        for bad in (q, -1, 3 * q):
            with pytest.raises(ValueError, match=r"row 1, column 2"):
                GenMatrix(ctx, 1, ((0, 1, 0, 0), (0, 0, bad, 0)))
    with pytest.raises(ValueError, match=r"row 0: width 3 != 4"):
        GenMatrix(FieldCtx(1), 1, ((0, 1, 0),))


def _phi_census(code):
    dc = span_code(code.n, code.m, 2, to_ambient_generators(code),
                   code.fd.ctx.modulus)
    hist = {}
    for w in dc.words():
        wt = sum(1 for x in gray_map_packed(w, code.n, code.m) if x)
        hist[wt] = hist.get(wt, 0) + 1
    return hist


@pytest.mark.parametrize("n,m", [(1, 1), (3, 1), (7, 1), (1, 2), (3, 2)])
def test_generator_matrix_selfdual(fdata, n, m):
    fd = fdata(n, m)
    for code in enumerate_selfdual(n, m, 2, fd):
        gm = generator_matrix(code)
        assert gm.cols == 4 * n and len(gm.rows) == 2 * n
        assert gm.rank() == 2 * n
        assert gram_is_zero(gm)
        assert is_2_quasi_cyclic(gm)
        # row space equals the actual Gray image
        assert tuple(rref_fq(gm.ctx, gm.rows)[0]) == \
            tuple(_span_image_matrix(code).rows)


def test_generator_matrix_sample_945(fdata):
    fd = fdata(15, 1)
    codes = list(enumerate_selfdual(15, 1, 2, fd))
    for code in random.Random(3).sample(codes, 40):
        gm = generator_matrix(code)
        assert gm.rank() == 30 and gram_is_zero(gm)
        assert tuple(rref_fq(gm.ctx, gm.rows)[0]) == \
            tuple(_span_image_matrix(code).rows)


@pytest.mark.parametrize("n, m, modulus", [(3, 1, None), (7, 1, None),
                                           (3, 2, None), (1, 3, None),
                                           (3, 3, 0xd)])
def test_generator_matrix_every_code(fdata, n, m, modulus):
    # the (a, b) block table on every cyclic code, self-dual or not:
    # independent rows spanning the image the oracle's closure spans
    fd = fdata(n, m, modulus)
    for code in enumerate_cyclic(n, m, 2, fd):
        gm = generator_matrix(code)
        assert len(gm.packed) == gm.rank() == code.dim()
        assert gray_image_matrix(code) == _span_image_matrix(code)


def test_generator_matrix_of_full_space(fdata):
    fd = fdata(3, 1)
    full = CyclicCode(fd, 2, tuple(IdealLabel("u_pow", i=0)
                                   for _ in range(fd.r)))
    assert generator_matrix(full).rank() == 12


def _cross_gram_is_zero(ctx, left, right) -> bool:
    """Is every inner product of a row of ``left`` with a row of ``right``
    zero over F_{2^m}?  (Bit planes as in ``gram_is_zero``.)"""
    low = _lane_low(ctx.m, left.cols)
    planes = [[(v >> t) & low for t in range(ctx.m)] for v in right.packed]
    for a in left.packed:
        pa = [(a >> t) & low for t in range(ctx.m)]
        for pb in planes:
            acc = 0
            for t, x in enumerate(pa):
                for s, y in enumerate(pb):
                    acc ^= ((x & y).bit_count() & 1) << (t + s)
            if f2x_mod(acc, ctx.modulus):
                return False
    return True


@pytest.mark.parametrize("n, m, modulus", [(3, 1, None), (7, 1, None),
                                           (3, 2, None), (3, 3, 0xd)])
def test_gray_image_of_dual_is_dual_of_image(fdata, n, m, modulus):
    # phi(C^perp) = phi(C)^perp on every cyclic code: complementary ranks and
    # orthogonal rows; the hull's image has the hull's dimension
    fd = fdata(n, m, modulus)
    for code in enumerate_cyclic(n, m, 2, fd):
        gm, dm = generator_matrix(code), generator_matrix(du.dual_code(code))
        assert gm.rank() + dm.rank() == 4 * n
        assert _cross_gram_is_zero(fd.ctx, gm, dm)
        assert du.hull_dimension(code) == \
            generator_matrix(du.hull(code)).rank()


def test_gray_image_matrix_arbitrary(fdata):
    fd = fdata(7, 1)
    pool = list(enumerate_cyclic(7, 1, 2, fd))
    for code in random.Random(5).sample(pool, 30):
        gm = gray_image_matrix(code)
        assert len(gm.rows) == code.dim()
        assert is_2_quasi_cyclic(gm)
        if code.dim() <= 14:
            assert weight_distribution(gm) == _phi_census(code)


@pytest.mark.parametrize("n,m", [(1, 1), (3, 1), (1, 2)])
def test_weight_distribution_equals_member_census(fdata, n, m):
    fd = fdata(n, m)
    for code in enumerate_selfdual(n, m, 2, fd):
        gm = generator_matrix(code)
        wd = weight_distribution(gm)
        assert wd == _phi_census(code)
        assert lee_distribution(code) == lee_distribution_by_words(code) == wd
        assert sum(wd.values()) == 1 << code.size_log2()


def test_hull_commutes_with_gray(fdata):
    from ucyclic.oracle import rref_bits
    fd = fdata(7, 1)
    pool = list(enumerate_cyclic(7, 1, 2, fd))
    for code in random.Random(11).sample(pool, 20):
        gm = gray_image_matrix(code)
        rows = [sum(x << i for i, x in enumerate(r)) for r in gm.rows]
        dual = nullspace_bits(rows, 28)
        big = [(r << 28) | r for r in rows] + [r << 28 for r in dual]
        red, _ = rref_bits(big, 56)
        want = sorted(r & ((1 << 28) - 1) for r in red
                      if (r >> 28) == 0 and r & ((1 << 28) - 1))
        hm = gray_image_matrix(du.hull(code))
        got = sorted(rref_bits(
            [sum(x << i for i, x in enumerate(r)) for r in hm.rows], 28)[0])
        assert got == want


def test_min_distance_60_30_8(fdata):
    fd = fdata(15, 1)
    gm = generator_matrix(family_60_30_8(fd)[0])
    assert min_distance(gm, threads=2) == 8


def _least_census_weight(gm) -> int:
    """The oracle for min_distance: the census walk's least nonzero weight."""
    return min(w for w in weight_distribution(gm, threads=2) if w)


@pytest.mark.parametrize("n, m, modulus", [
    (3, 1, None), (5, 1, None), (7, 1, None), (11, 1, None), (1, 2, None),
    (3, 2, None), (5, 2, None), (1, 3, None), (3, 3, None), (1, 3, 0xd),
    (3, 3, 0xd)])
def test_min_distance_matches_census(fdata, n, m, modulus):
    fd = fdata(n, m, modulus)
    for code in enumerate_selfdual(n, m, 2, fd):
        gm = generator_matrix(code)
        assert min_distance(gm) == _least_census_weight(gm)


@pytest.mark.parametrize("n, m", [(5, 1), (7, 1), (9, 1), (3, 2)])
def test_min_distance_matches_census_arbitrary(fdata, n, m):
    # arbitrary cyclic codes, not self-dual: every rank-1 image and a seeded
    # sample of the rest whose walk has at most 2^20 words
    pool = [c for c in enumerate_cyclic(n, m, 2, fdata(n, m))
            if 0 < c.size_log2() <= 20]
    rank1 = [c for c in pool if c.size_log2() == m]
    assert rank1
    for code in rank1 + random.Random(10 * n + m).sample(pool, 40):
        gm = gray_image_matrix(code)
        assert min_distance(gm) == _least_census_weight(gm)


def test_min_distance_dimension_cap():
    # the census's cap, m * rank <= 32, holds for min_distance too; repeated
    # rows and zero columns do not count towards the rank
    for m, rank in ((1, 32), (2, 16), (1, 33), (2, 17)):
        rows = tuple(tuple(1 if c == r else 0 for c in range(40))
                     for r in range(rank))
        gm = GenMatrix(FieldCtx(m), 10, rows + rows)
        if m * rank > 32:
            with pytest.raises(DimensionTooLarge):
                min_distance(gm)
        else:
            assert min_distance(gm) == 1


def test_min_distance_of_zero_code(fdata):
    fd = fdata(3, 1)
    zero = CyclicCode(fd, 2, tuple(IdealLabel("u_pow", i=2)
                                   for _ in range(fd.r)))
    with pytest.raises(MinDistOfTrivial):
        min_distance(gray_image_matrix(zero))


def test_weight_distribution_dimension_cap():
    ctx = FieldCtx(1)
    rows = tuple(tuple(1 if c == r else 0 for c in range(40))
                 for r in range(36))
    with pytest.raises(DimensionTooLarge):
        weight_distribution(GenMatrix(ctx, 10, rows))


def test_quasi_cyclic_negative():
    ctx = FieldCtx(1)
    gm = GenMatrix(ctx, 1, ((1, 0, 0, 0),))
    assert not is_2_quasi_cyclic(gm)
    gm2 = GenMatrix(ctx, 1, ((1, 0, 1, 0), (0, 1, 0, 1)))
    assert is_2_quasi_cyclic(gm2)


def test_k2_only_surface(fdata):
    fd = fdata(3, 1)
    code = next(iter(enumerate_selfdual(3, 1, 3, fd)))
    with pytest.raises(UnsupportedK):
        generator_matrix(code)
    with pytest.raises(UnsupportedK):
        gray_image_matrix(code)
    with pytest.raises(UnsupportedK):
        lee_distribution(code)


# ---------------------------------------------------------------------------
# lane-packed row routines against the symbol-tuple reference
# ---------------------------------------------------------------------------
#
# The reference is the elimination and dot product on tuples of field
# symbols that the packed routines replaced; it stays here as the oracle.

def _ref_add_scaled(ctx, dst, src, c):
    if not c:
        return dst
    return tuple(x ^ ctx.mul(c, y) for x, y in zip(dst, src))


def _ref_rref(ctx, rows):
    mat = [tuple(r) for r in rows]
    out, pivots = [], []
    for c in range(len(mat[0]) if mat else 0):
        src = next((i for i, r in enumerate(mat) if r[c]), None)
        if src is None:
            continue
        piv = mat.pop(src)
        inv = ctx.inv(piv[c])
        piv = tuple(ctx.mul(inv, x) for x in piv)
        mat = [_ref_add_scaled(ctx, r, piv, r[c]) for r in mat]
        out = [_ref_add_scaled(ctx, r, piv, r[c]) for r in out]
        out.append(piv)
        pivots.append(c)
    return out, pivots


def _ref_gram_is_zero(ctx, rows):
    def dot(a, b):
        acc = 0
        for x, y in zip(a, b):
            acc ^= ctx.mul(x, y)
        return acc
    return all(dot(a, b) == 0 for i, a in enumerate(rows) for b in rows[i:])


def _ref_quasi_cyclic(ctx, rows):
    basis, pivots = _ref_rref(ctx, rows)
    for row in rows:
        h = len(row) // 2
        left, right = row[:h], row[h:]
        v = (left[-1],) + left[:-1] + (right[-1],) + right[:-1]
        for piv, c in zip(basis, pivots):
            v = _ref_add_scaled(ctx, v, piv, v[c])
        if any(v):
            return False
    return True


def _random_matrices(rng, ctx, count):
    """Random matrices of width 4n with zero rows, repeated rows, rank
    deficiency and (mostly) nonzero Gram matrices."""
    q = ctx.order
    for _ in range(count):
        n = rng.randint(1, 4)
        width = 4 * n
        shape = rng.choice(("dense", "sparse", "zero-rows", "repeated",
                            "deficient"))
        nrows = rng.randint(1, 2 * width)
        if shape == "deficient":
            gens = [tuple(rng.randrange(q) for _ in range(width))
                    for _ in range(rng.randint(1, 3))]
            rows = []
            for _ in range(nrows):
                v = (0,) * width
                for g in gens:
                    v = _ref_add_scaled(ctx, v, g, rng.randrange(q))
                rows.append(v)
        else:
            density = 0.2 if shape == "sparse" else 0.8
            rows = [tuple(rng.randrange(1, q) if rng.random() < density
                          else 0 for _ in range(width))
                    for _ in range(nrows)]
            if shape == "zero-rows":
                rows[rng.randrange(nrows)] = (0,) * width
                rows.insert(rng.randrange(nrows + 1), (0,) * width)
            if shape == "repeated":
                rows += rng.sample(rows, rng.randint(1, len(rows)))
                rng.shuffle(rows)
        yield n, tuple(rows)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])    # m = 6 packs lane by lane
def test_packed_routines_match_tuple_reference(m):
    from ucyclic.oracle import rref_bits
    ctx = FieldCtx(m, last_modulus(m))
    rng = random.Random(100 + m)
    seen_gram_zero = 0
    for n, rows in _random_matrices(rng, ctx, 150):
        gm = GenMatrix(ctx, n, rows)
        want = _ref_rref(ctx, rows)
        assert rref_fq(ctx, rows) == want
        assert gm.rank() == len(want[0])
        gram = _ref_gram_is_zero(ctx, rows)
        seen_gram_zero += gram
        assert gram_is_zero(gm) == gram
        assert is_2_quasi_cyclic(gm) == _ref_quasi_cyclic(ctx, rows)
        assert gm.packed == tuple(sum(x << (m * i) for i, x in enumerate(r))
                                  for r in rows)
        if m == 1:
            assert gm.rank() == len(rref_bits(list(gm.packed), 4 * n)[0])
    assert seen_gram_zero  # the all-zero-Gram case was exercised too


@pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (3, 3), (1, 4)])
def test_packed_routines_on_selfdual_images(n, m):
    from ucyclic.cyclotomic import factor_xn_minus_1
    fd = factor_xn_minus_1(n, m, last_modulus(m))
    codes = list(enumerate_selfdual(n, m, 2, fd))
    for code in random.Random(7).sample(codes, min(len(codes), 25)):
        gm = generator_matrix(code)
        assert _ref_gram_is_zero(fd.ctx, gm.rows) and gram_is_zero(gm)
        assert rref_fq(fd.ctx, gm.rows) == _ref_rref(fd.ctx, gm.rows)
        # perturb one symbol: the Gram matrix is no longer zero or the
        # rank is unchanged, and both routes agree either way
        rows = [list(r) for r in gm.rows]
        rows[0][0] ^= 1
        bent = GenMatrix(fd.ctx, n, tuple(map(tuple, rows)))
        assert gram_is_zero(bent) == _ref_gram_is_zero(fd.ctx, bent.rows)
        assert bent.rank() == len(_ref_rref(fd.ctx, bent.rows)[0])


@pytest.mark.parametrize("n,m,modulus", [(7, 1, None), (3, 2, None),
                                         (3, 3, 0xd)])
def test_cli_rows_are_the_packed_view(capsys, n, m, modulus):
    import json

    from ucyclic import cli
    from ucyclic.cyclotomic import factor_xn_minus_1
    fd = factor_xn_minus_1(n, m, modulus)
    codes = list(enumerate_selfdual(n, m, 2, fd))
    for code in random.Random(1).sample(codes, 3):
        assert cli.main(["gray", "--code",
                         json.dumps(cli.format_code(code))]) == 0
        obj = json.loads(capsys.readouterr().out)
        gm = generator_matrix(code)
        assert obj["rows"] == [hex(v) for v in gm.packed]
        assert obj["rows"] == [hex(sum(x << (m * i) for i, x in enumerate(r)))
                               for r in gm.rows]


# ---------------------------------------------------------------------------
# CRT parts: rank, Gram and shift checks part by part
# ---------------------------------------------------------------------------

def _check_parts(fd, code):
    """The checks of ``generator_matrix(code)`` by its parts against the
    same rows unpartitioned and the tuple reference; the rows of components
    j and l != mate(j) are orthogonal.  Returns the Gram verdict."""
    ctx, n = fd.ctx, fd.n
    gm = generator_matrix(code)
    flat = GenMatrix(ctx, n, packed=gm.packed)
    rows = gm.rows
    assert gm.rank() == flat.rank() == len(_ref_rref(ctx, rows)[0]) \
        == code.dim()
    gram = gram_is_zero(gm)
    assert gram == gram_is_zero(flat) == _ref_gram_is_zero(ctx, rows) \
        == du.is_self_orthogonal(code)
    assert is_2_quasi_cyclic(gm) and is_2_quasi_cyclic(flat)
    order = [at for j in fd.component_indices()
             for at in dict.fromkeys((j, fd.mate(j)))]
    part = dict(zip(order, (GenMatrix(ctx, n, packed=p)
                            for group in gm._groups() for p in group),
                    strict=True))
    for j, l in itertools.combinations_with_replacement(range(fd.r), 2):
        if l != fd.mate(j):
            assert _cross_gram_is_zero(ctx, part[j], part[l])
    return gram


@pytest.mark.parametrize("n, m, modulus", [
    (3, 1, None), (5, 1, None), (7, 1, None), (9, 1, None), (3, 2, None),
    (5, 2, None), (1, 3, 0xb), (1, 3, 0xd), (3, 3, 0xb), (3, 3, 0xd),
    (1, 4, None)])
def test_parts_match_flat_route_every_code(fdata, n, m, modulus):
    # every cyclic code: a nonzero Gram matrix is found for each code that
    # is not self-orthogonal, and some are not
    fd = fdata(n, m, modulus)
    grams = [_check_parts(fd, code) for code in enumerate_cyclic(n, m, 2, fd)]
    assert not all(grams)


_fd = functools.cache(factor_xn_minus_1)
_FIXED_LABELS = (
    [IdealLabel("u_pow", i=i) for i in range(3)]
    + [IdealLabel("u_f", s=s) for s in range(2)]
    + [IdealLabel("two_gen", i=1, s=0)])


@st.composite
def _drawn_codes(draw):
    """A k = 2 cyclic code at odd n <= 21, m <= 3, a random irreducible
    modulus and a uniform label per component (the q + 5 labels of a
    component: six fixed ones and mixed_one with each unit of F_j)."""
    n = draw(st.integers(0, 10)) * 2 + 1
    m = draw(st.integers(1, 3))
    modulus = draw(st.sampled_from([a for a in range(1 << m, 2 << m)
                                    if f2x_is_irreducible(a)]))
    fd = _fd(n, m, modulus)
    labels = []
    for j in range(fd.r):
        x = draw(st.integers(0, (1 << (m * fd.degree(j))) + 4))
        labels.append(_FIXED_LABELS[x] if x < 6 else IdealLabel(
            "mixed_one", i=1, t=0, omega=(poly_from_key(fd.ctx, x - 5),)))
    return fd, CyclicCode(fd, 2, tuple(labels))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_drawn_codes())
def test_parts_match_flat_route_drawn(drawn):
    fd, code = drawn
    _check_parts(fd, code)
    gm = generator_matrix(code)
    assert is_2_quasi_cyclic(gm) == _ref_quasi_cyclic(fd.ctx, gm.rows)


def test_genmatrix_rejects_bad_parts():
    ctx = FieldCtx(1)
    packed = (0b0001, 0b0010, 0b0100)
    for bad in (((1,), (1,)), ((1,), (1, 1, 1)), ((), (3,)), ((1, 1, 1),),
                ((4,), (-1,)), ((1, 2), (0, 0, 0))):
        with pytest.raises(ValueError, match=r"do not split 3 rows"):
            GenMatrix(ctx, 1, packed=packed, parts=bad)
    ok = GenMatrix(ctx, 1, packed=packed, parts=((1,), (0, 2)))
    assert ok.parts == ((1,), (0, 2)) and ok.rank() == 3
    assert ok == GenMatrix(ctx, 1, packed=packed)
    assert GenMatrix(ctx, 1, packed=packed).parts == ((3,),)
