"""Factoring x^n - 1, component ordering, pairing, and CRT idempotents."""
from __future__ import annotations

import pytest

from literal_oracles import factor_by_splitting_field, last_modulus
from ucyclic.gf import (P_ONE, default_modulus, poly_add, poly_degree,
                        poly_key, poly_mod, poly_monic, poly_mul, poly_mulmod,
                        reciprocal)
from ucyclic.cyclotomic import (MAX_M, cyclotomic_cosets, factor_degrees,
                                factor_xn_minus_1)
from ucyclic.duality import count_selforthogonal
from ucyclic.errors import TooLarge
from ucyclic.selfdual import count_cyclic, count_selfdual


def xn_minus_1(n: int):
    return (1,) + (0,) * (n - 1) + (1,)


def test_cyclotomic_cosets_structure():
    cosets = cyclotomic_cosets(15, 2)
    assert sorted(len(c) for c in cosets) == [1, 2, 4, 4, 4]
    flat = sorted(x for c in cosets for x in c)
    assert flat == list(range(15))
    assert (0,) in [tuple(c) for c in cosets]
    # over F_4 the cosets refine: multiplier is 4
    cosets4 = cyclotomic_cosets(15, 4)
    assert sorted(len(c) for c in cosets4) == [1, 1, 1, 2, 2, 2, 2, 2, 2]


@pytest.mark.parametrize("n,m", [(1, 1), (3, 1), (5, 1), (7, 1), (9, 1),
                                 (15, 1), (3, 2), (5, 2), (7, 2), (3, 3)])
def test_factorization_product(fdata, n, m):
    fd = fdata(n, m)
    prod = P_ONE
    for f in fd.factors:
        prod = poly_mul(fd.ctx, prod, f)
    assert prod == xn_minus_1(n)
    for f in fd.factors:
        assert f[-1] == 1  # monic


def test_ordering_and_pairing(fdata):
    fd = fdata(15, 1)
    assert fd.factors[0] == (1, 1)
    assert fd.num_selfrec == 3 and fd.num_pairs == 1
    assert fd.r == 5
    # self-reciprocal block sorted by (degree, key); pair reps after
    assert [fd.degree(j) for j in range(fd.r)] == [1, 2, 4, 4, 4]
    for j in range(fd.r):
        fm = fd.factors[fd.mate(j)]
        assert poly_monic(fd.ctx, reciprocal(fd.factors[j])) == fm
        assert fd.mate(fd.mate(j)) == j
    assert [fd.mate(j) for j in range(fd.r)] == [0, 1, 2, 4, 3]
    assert list(fd.component_indices()) == [0, 1, 2, 3]


def test_delta_scalars(fdata):
    for (n, m) in [(7, 1), (3, 2), (7, 2), (5, 2)]:
        fd = fdata(n, m)
        for j, f in enumerate(fd.factors):
            # delta_j * f_mate == reciprocal(f), with f_mate monic, so
            # delta_j is the leading (= original constant) coefficient
            lhs = reciprocal(f)
            assert poly_monic(fd.ctx, lhs) == fd.factors[fd.mate(j)]
            assert lhs[-1] == fd.delta[j] == f[0]
        for j in range(fd.num_selfrec):
            assert fd.delta[j] == 1


@pytest.mark.parametrize("n,m", [(1, 1), (3, 1), (7, 1), (15, 1), (3, 2),
                                 (5, 2)])
def test_idempotents(fdata, n, m):
    fd = fdata(n, m)
    ctx = fd.ctx
    mod2n = fd.modulus_2n()
    total = ()
    for j, eps in enumerate(fd.idempotents):
        assert poly_mulmod(ctx, eps, eps, mod2n) == eps
        total = poly_add(total, eps)
        fsq = poly_mul(ctx, fd.factors[j], fd.factors[j])
        # eps_j = 1 mod f_j^2 and 0 mod f_i^2 for i != j
        assert poly_mod(ctx, poly_add(eps, P_ONE), fsq) == ()
        for i in range(fd.r):
            if i != j:
                fsq_i = poly_mul(ctx, fd.factors[i], fd.factors[i])
                assert poly_mod(ctx, eps, fsq_i) == ()
    assert total == P_ONE
    for i in range(fd.r):
        for j in range(i + 1, fd.r):
            assert poly_mulmod(ctx, fd.idempotents[i],
                               fd.idempotents[j], mod2n) == ()


def test_rejects_even_or_nonpositive_n():
    with pytest.raises(ValueError):
        factor_xn_minus_1(4, 1)
    with pytest.raises(ValueError):
        factor_xn_minus_1(0, 1)


def test_modulus_override(fdata):
    # the two irreducible quartics y^4+y+1 and y^4+y^3+1 both present F_16
    fd_a = factor_xn_minus_1(3, 4, 0x13)
    fd_b = factor_xn_minus_1(3, 4, 0x19)
    assert fd_a.ctx.modulus == 0x13 and fd_b.ctx.modulus == 0x19
    assert fd_a.r == fd_b.r == 3   # x^3-1 splits into linears over F_16
    assert all(fd_a.degree(j) == 1 for j in range(3))


@pytest.mark.parametrize("m, modulus", [(1, None), (2, None), (3, None),
                                        (3, 0xd)])
def test_factor_degrees_match_factoring(fdata, m, modulus):
    # the coset route (nothing factored) against the factored FactorData
    for n in range(1, 50, 2):
        fd = fdata(n, m, modulus)
        lam, eps = fd.num_selfrec, fd.num_pairs
        assert factor_degrees(n, m, None, modulus) == (
            [fd.degree(j) for j in range(1, lam)],
            [fd.degree(j) for j in range(lam, lam + eps)]), (n, m, modulus)


@pytest.mark.parametrize("n, m, modulus, error", [
    (4, 1, None, ValueError),          # even n
    (-3, 1, None, ValueError),
    (3, 0, None, ValueError),          # m below 1
    (3, MAX_M + 1, None, TooLarge),
    (7, 3, 0xf, ValueError),           # reducible: (y + 1)(y^2 + y + 1)
    (7, 3, 0x13, ValueError),          # degree 4, not 3
])
def test_counts_refuse_what_factoring_refuses(n, m, modulus, error):
    with pytest.raises(error) as want:
        factor_xn_minus_1(n, m, modulus)
    for count in (lambda: count_selfdual(n, m, 2, None, modulus),
                  lambda: count_selforthogonal(n, m, None, modulus),
                  lambda: count_cyclic(n, m, 2, None, modulus)):
        with pytest.raises(error) as got:
            count()
        assert str(got.value) == str(want.value)


def _extension_degree(n: int, m: int) -> int:
    """t = ord_n(2^m): the splitting field of x^n - 1 is F_{2^(m*t)}."""
    return next(t for t in range(1, n + 1) if ((1 << m * t) - 1) % n == 0)


def _moduli(m: int) -> list[int]:
    """The smallest and the largest irreducible of degree m."""
    return sorted({default_modulus(m), last_modulus(m)})


def _oracle_fields(m: int) -> list[tuple[int, int]]:
    """(n, modulus) where the splitting-field oracle stays cheap: every odd
    n <= 49 with m*t <= 20 up to m = 6, then n in {3, 5, 7, 9} with
    m*t <= 24."""
    ns, cap = (range(1, 50, 2), 20) if m <= 6 else ((3, 5, 7, 9), 24)
    return [(n, mod) for n in ns if m * _extension_degree(n, m) <= cap
            for mod in _moduli(m)]


@pytest.mark.parametrize("m", range(1, 13))
def test_factoring_matches_splitting_field_oracle(m):
    """Same factors in the same order, the same pairing and delta, as the
    route through the splitting field, under both extreme moduli."""
    for n, mod in _oracle_fields(m):
        got = factor_xn_minus_1(n, m, mod)
        want = factor_by_splitting_field(n, m, mod)
        assert (got.factors, got.delta, got.num_selfrec, got.num_pairs) == (
            want.factors, want.delta, want.num_selfrec, want.num_pairs), (
            n, m, hex(mod))


@pytest.mark.parametrize("m", range(9, MAX_M + 1))
def test_factoring_at_large_m(m):
    """Where the oracle's 2^m subfield walk is too slow: exactly one monic
    non-constant factor per coset whose product is x^n - 1 (so each factor
    is irreducible), with the coset degrees."""
    for n in (3, 5, 7, 9, 15):
        r = len(cyclotomic_cosets(n, 1 << m))
        for mod in _moduli(m):
            fd = factor_xn_minus_1(n, m, mod)
            assert fd.r == r
            prod = P_ONE
            for f in fd.factors:
                assert poly_degree(f) >= 1 and f[-1] == 1
                prod = poly_mul(fd.ctx, prod, f)
            assert prod == xn_minus_1(n)
            lam, eps = fd.num_selfrec, fd.num_pairs
            assert factor_degrees(n, m, None, mod) == (
                [fd.degree(j) for j in range(1, lam)],
                [fd.degree(j) for j in range(lam, lam + eps)]), (n, hex(mod))
