"""The six-shape ideal taxonomy of K[u]/(u^k), K = F_q[x]/(f^2): labels,
counts, sizes, generators, and member sets."""
from __future__ import annotations

import pytest

from literal_oracles import count_ideals_by_shape, count_ideals_closed
from ucyclic import quotient as qt
from ucyclic.ideals import (IdealLabel, count_ideals, enumerate_ideals,
                            ideal_generators, ideal_members, ideal_size_log2,
                            validate_label)


def test_lk_values():
    assert [count_ideals(2, k) for k in range(2, 10)] == \
        [7, 13, 23, 37, 59, 89, 135, 197]


@pytest.mark.parametrize("q", [2, 4, 8, 16])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_count_matches_closed_form(q, k):
    assert count_ideals(q, k) == count_ideals_closed(q, k)


def test_small_closed_forms():
    for q in (2, 4, 8, 16, 64):
        assert count_ideals(q, 2) == 5 + q
        assert count_ideals(q, 3) == 7 + 3 * q
        assert count_ideals(q, 4) == 9 + 5 * q + q * q
        assert count_ideals(q, 5) == 11 + 7 * q + 3 * q * q


def test_shape_counts_sum(fdata):
    for q, k in [(2, 2), (4, 3), (8, 4), (2, 7)]:
        shapes = count_ideals_by_shape(q, k)
        assert sum(shapes.values()) == count_ideals(q, k)


VALID = [
    (IdealLabel("u_pow", i=0), 2),
    (IdealLabel("u_pow", i=2), 2),
    (IdealLabel("u_f", s=1), 2),
    (IdealLabel("mixed_one", i=1, t=0, omega=((1,),)), 2),
    (IdealLabel("two_gen", i=1, s=0), 2),
    (IdealLabel("mixed_two", i=2, t=0, omega=((1,),)), 3),
    (IdealLabel("two_gen_omega", i=2, t=0, s=1, omega=((1,),)), 4),
]

INVALID = [
    (IdealLabel("u_pow", i=3), 2),                      # i > k
    (IdealLabel("u_pow"), 2),                           # missing i
    (IdealLabel("u_f", s=2), 2),                        # s > k-1
    (IdealLabel("mixed_one", i=1, t=1, omega=((1,),)), 2),   # t == i
    (IdealLabel("mixed_one", i=1, t=0), 2),             # missing omega
    (IdealLabel("mixed_one", i=1, t=0, omega=((),)), 2),     # omega not unit
    (IdealLabel("mixed_one", i=2, t=0, omega=((1,), (1,))), 3),  # t < 2i-k
    (IdealLabel("mixed_two", i=1, t=0, omega=((1,),)), 2),   # t >= 2i-k
    (IdealLabel("two_gen", i=1, s=1), 2),               # s == i
    (IdealLabel("two_gen", i=1, s=0, omega=((1,),)), 2),     # stray omega
    (IdealLabel("two_gen_omega", i=2, t=0, s=1, omega=((1,),)), 3),  # i+s > k+t-1
    (IdealLabel("nonsense", i=0), 2),                   # unknown kind
]


def test_validate_label_accepts():
    for label, k in VALID:
        validate_label(label, k)


def test_validate_label_rejects():
    for label, k in INVALID:
        with pytest.raises(ValueError):
            validate_label(label, k, d=1)


def test_validate_label_checks_omega_degree():
    # coefficients must be reduced mod f (degree < d)
    label = IdealLabel("mixed_one", i=1, t=0, omega=((1, 1, 0, 1),))
    validate_label(label, 2)            # no d given: not checked
    validate_label(label, 2, d=4)
    with pytest.raises(ValueError):
        validate_label(label, 2, d=3)


@pytest.mark.parametrize("q,k", [(2, 2), (4, 2), (2, 3), (4, 3), (8, 2),
                                 (2, 4), (4, 4), (2, 5)])
def test_enumerate_matches_count(fdata, q, k):
    m = q.bit_length() - 1
    fd = fdata(1, m)                    # single degree-1 component, F_q
    labels = list(enumerate_ideals(fd, 0, k))
    assert len(labels) == len(set(labels)) == count_ideals(q, k)
    for lab in labels:
        validate_label(lab, k, d=1)


def test_size_log2_spot_values():
    # q = 2, k = 2, d = 1, m = 1: the seven ideals and their sizes
    sizes = {
        IdealLabel("u_pow", i=0): 4,            # whole ring
        IdealLabel("u_pow", i=1): 2,
        IdealLabel("u_pow", i=2): 0,            # zero ideal
        IdealLabel("u_f", s=0): 2,
        IdealLabel("u_f", s=1): 1,
        IdealLabel("mixed_one", i=1, t=0, omega=((1,),)): 2,
        IdealLabel("two_gen", i=1, s=0): 3,
    }
    for lab, want in sizes.items():
        assert ideal_size_log2(lab, 1, 1, 2) == want


MEMBER_CASES = [(1, 1, 0, 2, None), (1, 1, 0, 3, None), (3, 1, 1, 2, None),
                (1, 2, 0, 2, None), (1, 1, 0, 4, None), (1, 3, 0, 2, 0xd)]


@pytest.mark.parametrize(
    "n,m,j,k,modulus", MEMBER_CASES,
    ids=["-".join(map(str, c[:4])) + (f"-{c[4]:#x}" if c[4] else "")
         for c in MEMBER_CASES])
def test_members_match_size(fdata, n, m, j, k, modulus):
    fd = fdata(n, m, modulus)
    d = fd.degree(j)
    for lab in enumerate_ideals(fd, j, k):
        members = ideal_members(fd, j, k, lab)
        assert len(members) == 1 << ideal_size_log2(lab, m, d, k)


def test_members_distinct_ideals(fdata):
    # distinct labels give distinct member sets (canonicity at q=2, k=3)
    fd = fdata(1, 1)
    seen = {}
    for lab in enumerate_ideals(fd, 0, 3):
        members = ideal_members(fd, 0, 3, lab)
        assert members not in seen.values()
        seen[lab] = members


def test_generators_lie_in_members(fdata):
    fd = fdata(3, 1)
    for k in (2, 3):
        for lab in enumerate_ideals(fd, 1, k):
            members = ideal_members(fd, 1, k, lab)
            from ucyclic.ideals import pack_uelem
            for g in ideal_generators(fd, 1, k, lab):
                assert pack_uelem(fd, 1, k, g) in members


def test_k_below_one_rejected(fdata):
    fd = fdata(1, 1)
    for k in (0, -1):
        with pytest.raises(ValueError):
            count_ideals(4, k)
        with pytest.raises(ValueError):
            list(enumerate_ideals(fd, 0, k))
    assert count_ideals(4, 1) == 3 == len(list(enumerate_ideals(fd, 0, 1)))
