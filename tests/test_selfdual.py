"""Theta sets, mate labels, and self-dual code enumeration."""
from __future__ import annotations

import itertools
import random

import pytest

from literal_oracles import (TABLE_FIELDS, selfdual_component_labels_by_hand,
                             selfdual_k2_list, selfdual_k345_list)
from ucyclic import duality as du
from ucyclic import quotient as qt
from ucyclic.cyclotomic import factor_degrees
from ucyclic.errors import BadDescriptor, UnsupportedK
from ucyclic.gf import (P_ONE, P_X, P_ZERO, f2x_is_irreducible, poly_gcd,
                        poly_key, poly_mulmod, poly_scale)
from ucyclic.ideals import ideal_generators
from ucyclic.ideals import IdealLabel, enumerate_ideals, validate_label
from ucyclic.oracle import (brute_is_selfdual, span_code,
                            theta_congruence_filter)
from ucyclic.selfdual import (CyclicCode, _derive_mate_label, _mate_label,
                              count_cyclic, count_selfdual, enumerate_cyclic,
                              enumerate_selfdual, family_60_30_8,
                              is_self_dual, mate_label,
                              selfdual_component_labels, theta_level_one,
                              theta_set, to_ambient_generators)


def _polyset(ctx, ts):
    return {tuple(poly_key(ctx, c) for c in w) for w in ts.members}


def test_theta_worked_sets(fdata):
    fd = fdata(15, 1)
    # degree-2 component: the single unit x+1; degree-4 component at index 2:
    # {x^3, x^3+x+1, x+1}
    t2 = theta_set(fd, 1, 1)
    assert _polyset(fd.ctx, t2) == {(0b11,)}
    t3 = theta_set(fd, 2, 1)
    assert _polyset(fd.ctx, t3) == {(0b1000,), (0b1011,), (0b11,)}


@pytest.mark.parametrize("n,m,j,s", [(15, 1, 1, 1), (15, 1, 2, 1),
                                     (15, 1, 2, 2), (9, 1, 1, 1),
                                     (5, 1, 1, 2), (5, 2, 1, 1), (3, 1, 1, 3)])
def test_theta_sizes(fdata, n, m, j, s):
    fd = fdata(n, m)
    sigma = 1 << (fd.degree(j) * m // 2)
    ts = theta_set(fd, j, s)
    assert len(ts) == (sigma - 1) * sigma ** (s - 1)
    assert len(set(ts.members)) == len(ts)


def test_theta_zero_component_is_all_units(fdata):
    fd = fdata(3, 2)
    ring = qt.field_ring(fd, 0)
    for s in (1, 2, 3):
        ts = theta_set(fd, 0, s)
        assert set(ts.members) == set(qt.u_units(ring, s))


def test_theta_members_satisfy_fixed_point(fdata):
    # w = delta x^(-d) hat(w) per u-slot, the defining fixed-point property
    for (n, m, j, s) in [(15, 1, 1, 1), (15, 1, 2, 2), (9, 1, 1, 1),
                         (5, 2, 1, 2)]:
        fd = fdata(n, m)
        for w in theta_set(fd, j, s):
            assert qt.omega_prime(fd, j, w) == w


def _extreme_moduli(m):
    """The smallest and the largest irreducible of degree m with constant
    term 1 (one modulus when they coincide)."""
    irreducible = [a for a in range((1 << m) | 1, 1 << (m + 1), 2)
                   if f2x_is_irreducible(a)]
    return sorted({irreducible[0], irreducible[-1]})


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_theta_equals_congruence_filter_every_odd_n(fdata, m):
    # every self-reciprocal j >= 1 of every odd n <= 49, under both extreme
    # moduli, wherever the unit group filtered has at most 2^12 elements
    cases = 0
    for modulus in _extreme_moduli(m):
        for n in range(1, 50, 2):
            fd = fdata(n, m, modulus)
            for j in range(1, fd.num_selfrec):
                for s in range(1, 12 // (fd.degree(j) * m) + 1):
                    assert sorted(theta_congruence_filter(fd, j, s)) == \
                        sorted(theta_set(fd, j, s).members), (n, modulus, j, s)
                    cases += 1
    assert cases


# (n, m, j) with d_j * m > 24, where the congruence filter refuses
@pytest.mark.parametrize("n, m, j", [(3, 13, 1), (5, 7, 1), (9, 5, 2)])
def test_theta_level_one_beyond_the_filter(fdata, n, m, j):
    fd = fdata(n, m)
    d, f = fd.degree(j), fd.factors[j]
    assert d * m > 24
    ring = qt.field_ring(fd, j)
    xfac = ring.pow(P_X, 2 * n - d)                  # x^(-d) mod f_j
    members = theta_level_one(fd, j)
    # the solutions of the congruence and 0 form an F_{2^m}-subspace of
    # size sqrt(q) (x^(-d/2) times the fixed field of the hat involution),
    # so sqrt(q) - 1 distinct nonzero solutions are all of them
    assert len(set(members)) == len(members) == (1 << (d * m // 2)) - 1
    for w in members:
        assert len(w) <= d and poly_gcd(fd.ctx, w, f) == P_ONE
        assert poly_scale(fd.ctx, ring.mul(xfac, qt.hat(fd, j, w)),
                          fd.delta[j]) == w


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_mate_label_involution(fdata, k):
    for (n, m) in [(7, 1), (15, 1), (1, 2), (5, 2)]:
        fd = fdata(n, m)
        for j in range(fd.r):               # pair mates included
            jm = fd.mate(j)
            for lab in enumerate_ideals(fd, j, k):
                mate = mate_label(fd, j, lab, k)
                back = mate_label(fd, jm, mate, k)
                assert back == lab, (n, m, j, lab)


def test_mate_label_k2_shapes(fdata):
    fd = fdata(3, 1)
    cases = {
        IdealLabel("u_pow", i=0): IdealLabel("u_pow", i=2),
        IdealLabel("u_pow", i=1): IdealLabel("u_pow", i=1),
        IdealLabel("u_f", s=0): IdealLabel("u_f", s=0),
        IdealLabel("u_f", s=1): IdealLabel("two_gen", i=1, s=0),
        IdealLabel("two_gen", i=1, s=0): IdealLabel("u_f", s=1),
    }
    for lab, want in cases.items():
        assert mate_label(fd, 0, lab, 2) == want
    # the public function checks its label; the core behind it does not
    for bad in (IdealLabel("u_pow", i=3), IdealLabel("u_f", s=2),
                IdealLabel("mixed_one", i=1, t=0, omega=(0,)),
                IdealLabel("mixed_one", i=1, t=0, omega=(1, 1))):
        with pytest.raises(ValueError):
            mate_label(fd, 0, bad, 2)


@pytest.mark.parametrize("n, m, k, modulus", [(15, 1, 2, None),
                                              (5, 2, 3, None), (7, 3, 2, 0xd)])
def test_mate_label_memo_matches_derivation(fdata, n, m, k, modulus):
    fd = fdata(n, m, modulus)
    for _ in range(2):                      # cold, then from the memo
        for j in range(fd.r):
            for lab in enumerate_ideals(fd, j, k):
                mate = _mate_label(fd, j, lab, k)
                assert mate == _derive_mate_label(fd, j, lab, k)
                assert _mate_label(fd, fd.mate(j), mate, k) == lab


def test_mate_label_validates_on_a_warm_memo(fdata):
    # the memo holds mates of labels that are not canonical, which only the
    # core computes; the public function still refuses them
    fd = fdata(15, 1)
    for lab in enumerate_ideals(fd, 1, 2):
        mate_label(fd, 1, lab, 2)
    for bad, why in ((IdealLabel("u_pow", i=3), "out-of-range"),
                     (IdealLabel("u_f", s=2), "out-of-range"),
                     (IdealLabel("mixed_one", i=1, t=0, omega=(P_ZERO,)),
                      "nonzero constant term")):
        _mate_label(fd, 1, bad, 2)
        with pytest.raises(ValueError, match=why):
            mate_label(fd, 1, bad, 2)


def _fresh_ambient(code):
    """Each component generator times its idempotent, packed, with nothing
    kept between calls."""
    fd, k, m = code.fd, code.k, code.m
    out = []
    for j, label in enumerate(code.components):
        for g in ideal_generators(fd, j, k, label):
            v = 0
            for l, coeff in enumerate(g):
                prod = poly_mulmod(fd.ctx, fd.idempotents[j], coeff,
                                   fd.modulus_2n())
                v |= sum(val << ((c * k + l) * m)
                         for c, val in enumerate(prod))
            out.append(v)
    return out


@pytest.mark.parametrize("n, m, modulus", [(9, 1, None), (3, 2, None),
                                           (7, 3, 0xd)])
def test_ambient_generators_memo_matches_derivation(fdata, n, m, modulus):
    fd = fdata(n, m, modulus)
    lists = [list(enumerate_ideals(fd, j, 2)) for j in range(fd.r)]
    rng = random.Random(n + 10 * m)
    for _ in range(200):
        code = CyclicCode(fd, 2, tuple(map(rng.choice, lists)))
        want = _fresh_ambient(code)
        assert to_ambient_generators(code) == want
        assert to_ambient_generators(code) == want


def test_is_self_dual_positive_and_negative(fdata):
    fd = fdata(7, 1)
    for code in enumerate_selfdual(7, 1, 2, fd):
        assert is_self_dual(code)
    # <1> at every component is the full ring, not self-dual
    full = CyclicCode(fd, 2, tuple(IdealLabel("u_pow", i=0)
                                   for _ in range(fd.r)))
    assert not is_self_dual(full)


COUNTS = [
    # (n, m, k) -> expected number of self-dual codes
    (1, 1, 2, 3), (3, 1, 2, 9), (7, 1, 2, 39), (15, 1, 2, 945),
    (9, 1, 2, 81), (1, 2, 2, 5), (1, 1, 3, 3), (1, 1, 4, 7), (1, 1, 5, 7),
    (3, 1, 3, 9), (3, 2, 2, 45),
    (1, 1, 6, 15), (1, 1, 7, 15), (1, 1, 8, 31),
    (1, 2, 6, 85), (1, 2, 7, 85), (1, 2, 8, 341),
    (3, 1, 6, 225), (3, 1, 7, 225), (3, 1, 8, 961),
]


@pytest.mark.parametrize("n,m,k,want", COUNTS)
def test_count_and_enumeration_agree(fdata, n, m, k, want):
    fd = fdata(n, m)
    codes = list(enumerate_selfdual(n, m, k, fd))
    assert count_selfdual(n, m, k, fd) == want
    assert len(codes) == len(set(codes)) == want
    for code in codes:
        # self-dual => |C|^2 = |ambient| = 2^(2 n m k)
        assert code.size_log2() * 2 == 2 * n * m * k


HIGH_K = [(n, m, k) for n, m in ((1, 1), (1, 2), (3, 1)) for k in (6, 7, 8)]


def test_enumerated_codes_are_brute_selfdual(fdata):
    for (n, m, k) in [(1, 1, 2), (1, 1, 3), (3, 1, 2), (1, 2, 2)] + HIGH_K:
        fd = fdata(n, m)
        for code in enumerate_selfdual(n, m, k, fd):
            dense = span_code(n, m, k, to_ambient_generators(code),
                              fd.ctx.modulus)
            assert brute_is_selfdual(dense, fd.ctx.modulus)


def test_k2_list_equals_enumeration(fdata):
    for (n, m) in [(3, 1), (7, 1), (15, 1), (1, 2)]:
        fd = fdata(n, m)
        assert set(selfdual_k2_list(n, m, fd)) == \
            set(enumerate_selfdual(n, m, 2, fd))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_k345_list_equals_enumeration_small(fdata, k):
    for (n, m) in [(1, 1), (3, 1)]:
        fd = fdata(n, m)
        assert set(selfdual_k345_list(n, m, k, fd)) == \
            set(enumerate_selfdual(n, m, k, fd))


@pytest.mark.parametrize("n,m,modulus", TABLE_FIELDS)
def test_component_labels_match_hand_list(fdata, n, m, modulus):
    """The self-dual classes of the class table (a + b = k, sorted) yield
    the hand-written even/odd list in its order, k = 2..8, on every
    self-reciprocal component with d*m*floor(k/2) <= 18."""
    fd = fdata(n, m, modulus)
    for k in range(2, 9):
        for j in range(fd.num_selfrec):
            if fd.degree(j) * m * (k // 2) <= 18:
                assert (list(selfdual_component_labels(fd, j, k))
                        == list(selfdual_component_labels_by_hand(fd, j, k)))


def test_k345_list_rejects_other_k(fdata):
    with pytest.raises(UnsupportedK):
        selfdual_k345_list(3, 1, 2, fdata(3, 1))
    with pytest.raises(UnsupportedK):
        enumerate_selfdual(3, 1, 1, fdata(3, 1))
    with pytest.raises(UnsupportedK):
        count_selfdual(3, 1, 1, fdata(3, 1))


def test_cyclic_code_validation(fdata):
    fd = fdata(3, 1)
    with pytest.raises(BadDescriptor):
        CyclicCode(fd, 2, (IdealLabel("u_pow", i=1),))   # wrong count
    with pytest.raises(ValueError):
        CyclicCode(fd, 2, (IdealLabel("u_pow", i=9),
                           IdealLabel("u_pow", i=1)))    # out of range


def _assert_canonical(code):
    assert len(code.components) == code.fd.r
    for j, label in enumerate(code.components):
        validate_label(label, code.k, code.fd.degree(j))


@pytest.mark.parametrize("n, m, modulus", [(3, 1, None), (7, 1, None),
                                           (3, 2, None), (3, 3, 0xd),
                                           (7, 3, 0xd)])
def test_package_built_codes_are_canonical(fdata, n, m, modulus):
    # these codes skip the validate_label pass of CyclicCode(...), so the
    # labels they carry are checked here instead
    fd = fdata(n, m, modulus)
    for k in range(2, 6):
        for code in itertools.islice(enumerate_selfdual(n, m, k, fd), 6000):
            _assert_canonical(code)
    for code in itertools.islice(du.enumerate_selforthogonal(n, m, fd), 6000):
        _assert_canonical(code)
    for code in itertools.islice(enumerate_cyclic(n, m, 2, fd), 2000):
        _assert_canonical(code)
        _assert_canonical(du.dual_code(code))
        _assert_canonical(du.hull(code))
    for k in (1, 3):
        for code in itertools.islice(enumerate_cyclic(n, m, k, fd), 2000):
            _assert_canonical(code)


def test_family_60_30_8_is_canonical(fdata):
    for code in family_60_30_8(fdata(15, 1)):
        _assert_canonical(code)


def test_count_cyclic(fdata):
    # product of per-component ideal counts
    assert count_cyclic(3, 1, 2, fdata(3, 1)) == 7 * 9
    assert count_cyclic(7, 1, 2, fdata(7, 1)) == 7 * 13 * 13
    assert sum(1 for _ in enumerate_cyclic(3, 1, 2, fdata(3, 1))) == 63


def test_factor_data_must_match_n_m_and_modulus(fdata):
    """A passed FactorData is checked against (n, m, modulus) rather than
    overriding them, at the call and not at the first code drawn; matching
    calls, positional as perfbench makes them, count and list what the
    unfactored calls do."""
    fd15, fd3, fd7 = fdata(15, 1), fdata(3, 1), fdata(7, 3, 0xd)
    refused = [
        lambda: count_selfdual(3, 1, 2, fd15),      # was 945, the n = 15 count
        lambda: count_selfdual(3, 2, 2, fd15),      # was 110,925, fd15 at m = 2
        lambda: count_selfdual(3, 2, 2, fd3),
        lambda: enumerate_selfdual(3, 1, 2, fd15),     # was length 30
        lambda: count_cyclic(3, 1, 2, fd15),
        lambda: enumerate_cyclic(3, 1, 2, fd15),
        lambda: du.count_selforthogonal(3, 1, fd15),
        lambda: du.enumerate_selforthogonal(3, 1, fd15),
        lambda: factor_degrees(3, 1, fd15),
        lambda: count_selfdual(7, 3, 2, fd7, modulus=0xb),
        lambda: family_60_30_8(fd3),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="does not match"):
            call()
    assert count_selfdual(3, 1, 2) == count_selfdual(3, 1, 2, fd3) == 9
    codes = list(enumerate_selfdual(3, 1, 2, fd3))
    assert len(codes) == 9 and all(c.fd is fd3 and c.n == 3 for c in codes)
    assert count_selfdual(15, 1, 2, fd15) == 945
    assert (count_selfdual(7, 3, 2, fd7) == count_selfdual(7, 3, 2, fd7, 0xd)
            == count_selfdual(7, 3, 2, modulus=0xd))
    assert du.count_selforthogonal(3, 1, fd3) == len(
        list(du.enumerate_selforthogonal(3, 1, fd3)))
    assert factor_degrees(15, 1, fd15) == factor_degrees(15, 1)


def test_family_60_30_8_structure(fdata):
    fd = fdata(15, 1)
    fam = family_60_30_8(fd)
    assert len(fam) == len(set(fam)) == 48
    all945 = set(enumerate_selfdual(15, 1, 2, fd))
    for code in fam:
        assert code in all945
        assert code.dim() == 30
        # the two quartic pair components carry <1> and <0> in some order
        kinds = {code.components[3].kind, code.components[4].kind}
        assert kinds == {"u_pow"}
        assert {code.components[3].i, code.components[4].i} == {0, 2}


def test_ambient_generators_span_right_size(fdata):
    fd = fdata(7, 1)
    for code in itertools.islice(enumerate_cyclic(7, 1, 2, fd), 40):
        dense = span_code(7, 1, 2, to_ambient_generators(code),
                          fd.ctx.modulus)
        assert len(dense.basis) == code.size_log2()
