"""The six-shape ideal taxonomy of K[u]/(u^k), K = F_q[x]/(f^2): the class
table, labels, counts, sizes, generators, and member sets."""
from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from literal_oracles import (TABLE_FIELDS, count_ideals_by_shape,
                             count_ideals_closed, enumerate_ideals_by_loops,
                             generators_by_kind, mate_label_by_kind,
                             size_log2_by_kind, validate_label_by_kind)
from ucyclic.cyclotomic import factor_xn_minus_1
from ucyclic.gf import poly_from_key
from ucyclic.errors import TooLarge
from ucyclic.ideals import (KINDS, MAX_K, IdealLabel, canonical_label,
                            count_ideals, enumerate_ideals, exponents,
                            ideal_generators, ideal_size_log2, label_classes,
                            validate_label)
from ucyclic.oracle import ideal_members, pack_uelem
from ucyclic.selfdual import _derive_mate_label, mate_label


def label_members(fd, j, k, lab):
    return ideal_members(fd, j, k, ideal_generators(fd, j, k, lab))


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


# ---------------------------------------------------------------------------
# the class table against the hand-written loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,m,modulus", TABLE_FIELDS)
def test_enumerate_matches_hand_loops(fdata, n, m, modulus):
    """The class-table walk yields the six hand loops' labels in their
    order, k = 1..8, on every component with d*m*k <= 16."""
    fd = fdata(n, m, modulus)
    checked = 0
    for k in range(1, 9):
        for j in range(fd.r):
            if fd.degree(j) * m * k <= 16:
                assert (list(enumerate_ideals(fd, j, k))
                        == list(enumerate_ideals_by_loops(fd, j, k)))
                checked += 1
    assert checked


def test_class_sizes_sum_to_count():
    """A class holds (q - 1) * q^(b - t - 1) labels if it has a unit, else
    one; the classes of each k add up to the closed-form census."""
    for k in range(1, 10):
        for e in range(1, 17):
            q = 1 << e
            assert sum(1 if c.t is None else (q - 1) * q ** (c.b - c.t - 1)
                       for c in label_classes(k)) == count_ideals(q, k)


def test_classes_are_canonical_labels_of_their_exponents():
    """Each class is the canonical label of its own (a, b, t), so the map
    (a, b, t) -> class is one to one."""
    for k in range(0, 13):
        rows = label_classes(k)
        assert len({(c.a, c.b, c.t) for c in rows}) == len(rows)
        for c in rows:
            assert (canonical_label(k, c.a, c.b, c.t)
                    == IdealLabel(c.kind, c.i, c.t, c.s))
    assert canonical_label(2, 1, 2) is None         # b above a: no class


def test_class_table_cap():
    assert len(label_classes(MAX_K)) == 24497
    with pytest.raises(TooLarge):
        label_classes(MAX_K + 1)
    with pytest.raises(TooLarge):
        validate_label(IdealLabel("u_pow", i=0), MAX_K + 1)


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
        members = label_members(fd, j, k, lab)
        assert len(members) == 1 << ideal_size_log2(lab, m, d, k)


def test_members_distinct_ideals(fdata):
    # distinct labels give distinct member sets (canonicity at q=2, k=3)
    fd = fdata(1, 1)
    seen = {}
    for lab in enumerate_ideals(fd, 0, 3):
        members = label_members(fd, 0, 3, lab)
        assert members not in seen.values()
        seen[lab] = members


def test_generators_lie_in_members(fdata):
    fd = fdata(3, 1)
    for k in (2, 3):
        for lab in enumerate_ideals(fd, 1, k):
            members = label_members(fd, 1, k, lab)
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


# ---------------------------------------------------------------------------
# the (a, b) rule against the kind-by-kind case tables
# ---------------------------------------------------------------------------

# (n, m, modulus): their components hold 215,652 labels over k = 1..8
FIELDS = [(1, 1, None), (3, 1, None), (5, 1, None), (7, 1, None),
          (1, 2, None), (3, 2, None), (7, 3, 0xd)]

_factored = functools.cache(factor_xn_minus_1)


def _label_sample(fd, j, k):
    """Every (kind, i, t, s) of component j, each with its first, middle
    and last unit in enumeration order."""
    out = []
    for _, group in itertools.groupby(
            enumerate_ideals(fd, j, k),
            key=lambda lab: (lab.kind, lab.i, lab.t, lab.s)):
        group = list(group)
        out += {id(lab): lab for lab in
                (group[0], group[len(group) // 2], group[-1])}.values()
    return out


@pytest.mark.parametrize("n,m,modulus", FIELDS)
def test_exponent_route_matches_case_tables(n, m, modulus):
    """Size, unit length, generators and dual label from (a, b) equal the
    kind-by-kind tables on every parameter choice of every component at
    k = 1..8, three units each."""
    fd = _factored(n, m, modulus)
    for k in range(1, 9):
        for j in range(fd.r):
            d = fd.degree(j)
            for lab in _label_sample(fd, j, k):
                assert (ideal_size_log2(lab, m, d, k)
                        == size_log2_by_kind(lab, m, d, k)), lab
                assert (ideal_generators(fd, j, k, lab)
                        == generators_by_kind(fd, j, k, lab)), lab
                assert (_derive_mate_label(fd, j, lab, k)
                        == mate_label_by_kind(fd, j, lab, k)), lab


def _outcome(validate, label, k, d):
    try:
        validate(label, k, d)
    except ValueError as exc:
        return str(exc)
    return None


def test_validation_matches_case_tables():
    """Accept/reject and the message agree with the case tables on a grid of
    arbitrary labels: every kind (and an unknown one), every presence and
    value of i, t, s in -1..k+1, and units of each length, zero constant
    term or unreduced coefficient."""
    vals = (None, -1, 0, 1, 2, 3, 4, 5)
    omegas = (None, (), ((1,),), ((),), ((1, 1),), ((1,), ()),
              ((1,), (1,)), ((1,), (1,), (1,)))
    seen = set()
    for k in range(1, 5):
        for kind in KINDS + ("bogus",):
            for i, t, s in itertools.product(vals[:k + 3], repeat=3):
                for w in omegas:
                    label = IdealLabel(kind, i=i, t=t, s=s, omega=w)
                    for d in (None, 1):
                        want = _outcome(validate_label_by_kind, label, k, d)
                        assert _outcome(validate_label, label, k, d) == want
                        seen.add(want is None)
    assert seen == {True, False}


@st.composite
def _labels(draw):
    """(fd, j, k, (a, b), label), the label built from drawn exponents."""
    n, m, modulus = draw(st.sampled_from(FIELDS))
    fd = _factored(n, m, modulus)
    j = draw(st.integers(0, fd.r - 1))
    k = draw(st.integers(1, 8))
    a = draw(st.integers(0, k))
    if 0 < a < k and draw(st.booleans()):
        t = draw(st.integers(0, a - 1))
        b = draw(st.integers(t + 1, min(a, k - a + t)))
        q = 1 << (m * fd.degree(j))
        keys = [draw(st.integers(1, q - 1))] + draw(st.lists(
            st.integers(0, q - 1), min_size=b - t - 1, max_size=b - t - 1))
        w = tuple(poly_from_key(fd.ctx, key) for key in keys)
    else:
        t, w = None, None
        b = draw(st.integers(0, a))
    return fd, j, k, (a, b), canonical_label(k, a, b, t, w)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_labels())
def test_mate_label_properties(drawn):
    """A label built from any (a, b, t, w) is valid and keeps its (a, b);
    its mate is valid, mates back to it, and the two sizes add up to the
    whole component: size(label) + size(mate) = 2k*m*d."""
    fd, j, k, (a, b), label = drawn
    d = fd.degree(j)
    validate_label(label, k, d)
    assert exponents(label, k) == (a, b)
    mate = mate_label(fd, j, label, k)
    validate_label(mate, k, fd.degree(fd.mate(j)))
    assert mate_label(fd, fd.mate(j), mate, k) == label
    assert exponents(mate, k) == (k - b, k - a)
    assert (ideal_size_log2(label, fd.m, d, k)
            + ideal_size_log2(mate, fd.m, d, k)) == 2 * k * fd.m * d
