"""Literal cross-check routes: answers the package computes another way.

The package has one route per answer.  These are the independent second
routes the tests hold it to:

* ``selfdual_k2_list`` / ``selfdual_k345_list`` regenerate the self-dual codes
  for k = 2..5 from hand-written per-k label tables, one list per
  component, through the same builder (``selfdual._build_code``) as
  ``enumerate_selfdual``;
* ``enumerate_ideals_by_loops`` and ``selfdual_component_labels_by_hand``
  list the ideal labels of one component, and its self-dual ones, by one
  hand loop per shape, where the package walks the class table
  ``ideals.label_classes``;
* ``count_ideals_closed`` is the closed rational form of ``count_ideals``,
  and ``count_ideals_by_shape`` counts the ideals shape by shape
  (``omega1``, ``omega2`` and ``gamma``);
* ``validate_label_by_kind``, ``omega_truncation_by_kind``,
  ``size_log2_by_kind``, ``generators_by_kind`` and ``mate_label_by_kind``
  are the case tables over the six label kinds that ``ideals.exponents``
  and ``ideals.canonical_label`` replace with one (a, b) rule;
* ``generator_matrix_rows`` assembles the block generator matrix of a
  self-dual code's Gray image as symbol tuples, from the pair-shape table
  ``PAIR_BLOCKS`` keyed on ``shape_k2``, each block a pair of ``circulant``
  matrices of its polynomials, where ``gray.generator_matrix`` rotates
  lane-packed rows picked by one per-component (a, b) table; ``gray_map``
  maps (a_i, b_i) symbol pairs to their Gray image, where the package maps
  a packed vector lane by lane;
* ``lee_distribution_by_words`` walks every codeword of the oracle's span
  and sums Lee weights, where ``gray.lee_distribution`` takes the Hamming
  weight distribution of the Gray image;
* ``factor_by_splitting_field`` factors x^n - 1 from the roots of unity in
  the splitting field F_{2^(m*t)}, one cyclotomic coset per factor, and
  orders the factors by its own loop, where ``factor_xn_minus_1`` splits
  over F_{2^m} itself;
* ``apply_map_per_bit`` and ``map_closure_by_min`` apply a linear map one
  set bit at a time and close a span by reducing each vector against the
  whole sorted basis, where ``oracle.apply_map`` looks up one byte table
  per 8 bits and ``oracle.map_closure`` reduces through a pivot map;
* ``theta_congruence_filter_full_walk`` walks all q^s digit tuples of
  F_j[u]/(u^s) and keeps those whose every slot passes the congruence,
  where ``oracle.theta_congruence_filter`` walks the passing slots only.
"""
from __future__ import annotations

import itertools

from ucyclic import quotient as qt
from ucyclic.cyclotomic import FactorData, cyclotomic_cosets, factor_xn_minus_1
from ucyclic.errors import UnsupportedK
from ucyclic.gf import (P_ONE, P_ZERO, FieldCtx, Poly, default_modulus,
                        f2x_is_irreducible, f2x_mulmod, f2x_powmod,
                        find_generator, poly_add, poly_degree,
                        poly_from_key, poly_key, poly_monic, poly_mulmod,
                        poly_scale, reciprocal)
from ucyclic.gray import lee_weight, unpack_ambient
from ucyclic.ideals import IdealLabel
from ucyclic.oracle import span_code
from ucyclic.selfdual import (CyclicCode, _build_code, theta_set,
                              to_ambient_generators)

_lab = IdealLabel


# ---------------------------------------------------------------------------
# ideal counts
# ---------------------------------------------------------------------------

def omega1(q: int, k: int) -> int:
    """Number of mixed_one ideals."""
    if k % 2 == 0:
        return (q ** (k // 2 + 1) + q ** (k // 2) - 2) // (q - 1) - (k + 1)
    return 2 * (q ** ((k + 1) // 2) - 1) // (q - 1) - (k + 1)


def omega2(q: int, k: int) -> int:
    """Number of mixed_two ideals."""
    return (q - 1) * sum((2 * i - k) * q ** (k - i - 1)
                         for i in range(k // 2 + 1, k))


def gamma(q: int, rho: int) -> int:
    """two_gen_omega ideal count is (q-1)*gamma(q, k)."""
    if rho <= 3:
        return 0
    if rho == 4:
        return 1
    return gamma(q, rho - 1) + sum((rho - 2 * s - 1) * q ** (s - 1)
                                   for s in range(1, rho // 2))


def count_ideals_by_shape(q: int, k: int) -> dict[str, int]:
    return {
        "u_pow": k + 1,
        "u_f": k,
        "mixed_one": omega1(q, k),
        "mixed_two": omega2(q, k),
        "two_gen": k * (k - 1) // 2,
        "two_gen_omega": (q - 1) * gamma(q, k),
    }


def count_ideals_closed(q: int, k: int) -> int:
    """Closed rational form of count_ideals (cross-check)."""
    if k % 2 == 0:
        num = (q + 3) * q ** (k // 2 + 1) - q * (2 * k + 5) + 2 * k + 1
    else:
        num = (3 * q + 1) * q ** ((k - 1) // 2 + 1) - q * (2 * k + 5) + 2 * k + 1
    den = (q - 1) ** 2
    assert num % den == 0
    return num // den


# ---------------------------------------------------------------------------
# label lists from hand-written loops
# ---------------------------------------------------------------------------

# (n, m, modulus) of the fields on which the tests hold the class table to
# these loops
TABLE_FIELDS = [(15, 1, None), (7, 1, None), (9, 2, None), (5, 2, None),
                (17, 1, None), (1, 1, None), (3, 4, None), (3, 3, 0xd)]


def enumerate_ideals_by_loops(fd, j: int, k: int):
    """Every ideal label of component j, one hand loop per shape, in the
    order of ``ideals.enumerate_ideals`` (cross-check)."""
    ring = qt.field_ring(fd, j)
    for i in range(k + 1):
        yield _lab("u_pow", i=i)
    for s in range(k):
        yield _lab("u_f", s=s)
    for i in range(1, k):
        for t in range(max(0, 2 * i - k), i):
            for w in qt.u_units(ring, i - t):
                yield _lab("mixed_one", i=i, t=t, omega=w)
    for i in range(k // 2 + 1, k):
        for t in range(0, 2 * i - k):
            for w in qt.u_units(ring, k - i):
                yield _lab("mixed_two", i=i, t=t, omega=w)
    for i in range(1, k):
        for s in range(i):
            yield _lab("two_gen", i=i, s=s)
    for i in range(1, k):
        for s in range(1, i):
            for t in range(0, s):
                if i + s > k + t - 1:
                    continue
                for w in qt.u_units(ring, s - t):
                    yield _lab("two_gen_omega", i=i, t=t, s=s, omega=w)


def selfdual_component_labels_by_hand(fd, j: int, k: int):
    """Self-dual labels of self-reciprocal component j, written out for
    even and odd k, in the order of ``selfdual.selfdual_component_labels``
    (cross-check)."""
    theta = {s: theta_set(fd, j, s).members for s in range(1, k // 2 + 1)}
    if k % 2 == 0:
        yield _lab("u_pow", i=k // 2)
        yield _lab("u_f", s=0)
        for t in range(k // 2):
            for w in theta[k // 2 - t]:
                yield _lab("mixed_one", i=k // 2, t=t, omega=w)
        lo = k // 2 + 1
    else:
        yield _lab("u_f", s=0)
        lo = (k + 1) // 2
    for i in range(lo, k):
        for w in theta[k - i]:
            yield _lab("mixed_two", i=i, t=0, omega=w)
        yield _lab("two_gen", i=i, s=k - i)
        for t in range(1, k - i):
            for w in theta[k - i - t]:
                yield _lab("two_gen_omega", i=i, t=t, s=k - i, omega=w)


# ---------------------------------------------------------------------------
# label case tables, kind by kind
# ---------------------------------------------------------------------------

def omega_truncation_by_kind(label: IdealLabel, k: int) -> int | None:
    """Length of the unit expansion attached to a label, if any."""
    if label.kind == "mixed_one":
        return label.i - label.t
    if label.kind == "mixed_two":
        return k - label.i
    if label.kind == "two_gen_omega":
        return label.s - label.t
    return None


def validate_label_by_kind(label: IdealLabel, k: int,
                           d: int | None = None) -> None:
    """Raise ValueError unless the label is canonical for nilpotency index k."""
    kind, i, t, s = label.kind, label.i, label.t, label.s
    ok = True
    if kind == "u_pow":
        ok = i is not None and 0 <= i <= k and t is None and s is None
    elif kind == "u_f":
        ok = s is not None and 0 <= s <= k - 1 and i is None and t is None
    elif kind == "mixed_one":
        ok = (i is not None and t is not None and s is None
              and 0 <= t < i <= k - 1 and t >= 2 * i - k)
    elif kind == "mixed_two":
        ok = (i is not None and t is not None and s is None
              and 0 <= t < i <= k - 1 and t < 2 * i - k)
    elif kind == "two_gen":
        ok = (i is not None and s is not None and t is None
              and 0 <= s < i <= k - 1)
    elif kind == "two_gen_omega":
        ok = (i is not None and t is not None and s is not None
              and 0 <= t < s < i <= k - 1 and i + s <= k + t - 1)
    else:
        raise ValueError(f"unknown ideal kind {kind!r}")
    if not ok:
        raise ValueError(f"out-of-range parameters for {label}")
    trunc = omega_truncation_by_kind(label, k)
    if trunc is None:
        if label.omega is not None:
            raise ValueError(f"{kind} takes no unit parameter")
    else:
        w = label.omega
        if w is None or len(w) != trunc:
            raise ValueError(f"{kind} needs a unit expansion of length {trunc}")
        if not w[0]:
            raise ValueError("unit expansion must have nonzero constant term")
        if d is not None and any(poly_degree(c) >= d for c in w):
            raise ValueError("unit coefficients must be reduced mod f")


def size_log2_by_kind(label: IdealLabel, m: int, d: int, k: int) -> int:
    """log2 of the ideal's cardinality."""
    kind = label.kind
    if kind in ("u_pow", "mixed_one"):
        return 2 * m * d * (k - label.i)
    if kind == "u_f":
        return m * d * (k - label.s)
    if kind == "mixed_two":
        return m * d * (k - label.t)
    return m * d * (2 * k - label.i - label.s)      # two_gen, two_gen_omega


def generators_by_kind(fd, j: int, k: int, label: IdealLabel):
    """Generators as elements of K[u]/(u^k), each a k-tuple of K-elements."""
    validate_label_by_kind(label, k, fd.degree(j))
    ring = qt.chain_ring(fd, j)
    f = fd.factors[j]
    kind = label.kind

    def u_pow_elem(i):
        out = [P_ZERO] * k
        if i < k:
            out[i] = P_ONE
        return tuple(out)

    def usf_elem(s):
        out = [P_ZERO] * k
        out[s] = ring.reduce(f)
        return tuple(out)

    def mixed_elem(i, t, w):
        out = [P_ZERO] * k
        out[i] = P_ONE
        for l, wl in enumerate(w):
            if wl:
                out[t + l] = poly_add(out[t + l], ring.mul(f, wl))
        return tuple(out)

    if kind == "u_pow":
        return [u_pow_elem(label.i)]
    if kind == "u_f":
        return [usf_elem(label.s)]
    if kind in ("mixed_one", "mixed_two"):
        return [mixed_elem(label.i, label.t, label.omega)]
    if kind == "two_gen":
        return [u_pow_elem(label.i), usf_elem(label.s)]
    return [mixed_elem(label.i, label.t, label.omega), usf_elem(label.s)]


def mate_label_by_kind(fd, j: int, label: IdealLabel, k: int) -> IdealLabel:
    """Label of the dual ideal (annihilator, then reciprocal transport)."""
    kind, i, t, s, w = label.kind, label.i, label.t, label.s, label.omega
    wp = qt.omega_prime(fd, j, w) if w is not None else None
    if kind == "u_pow":
        return _lab("u_pow", i=k - i)
    if kind == "u_f":
        if s == 0:
            return _lab("u_f", s=0)
        return _lab("two_gen", i=k - s, s=0)
    if kind == "mixed_one":
        return _lab("mixed_one", i=k - i, t=k + t - 2 * i, omega=wp)
    if kind == "mixed_two":
        if t == 0:
            return _lab("mixed_two", i=i, t=0, omega=wp)
        return _lab("two_gen_omega", i=i - t, t=0, s=k - i, omega=wp)
    if kind == "two_gen":
        if s == 0:
            return _lab("u_f", s=k - i)
        return _lab("two_gen", i=k - s, s=k - i)
    if t == 0:                                      # two_gen_omega
        return _lab("mixed_two", i=k - s, t=k - i - s, omega=wp)
    return _lab("two_gen_omega", i=k - s, t=k + t - i - s, s=k - i, omega=wp)


# ---------------------------------------------------------------------------
# self-dual codes from per-k literal tables
# ---------------------------------------------------------------------------

def _k2_selfrec(theta1):
    yield _lab("u_pow", i=1)
    yield _lab("u_f", s=0)
    for w in theta1:
        yield _lab("mixed_one", i=1, t=0, omega=(w,))


def _k2_pairs(fd, j):
    for i in range(3):
        yield _lab("u_pow", i=i), _lab("u_pow", i=2 - i)
    yield _lab("u_f", s=0), _lab("u_f", s=0)
    yield _lab("u_f", s=1), _lab("two_gen", i=1, s=0)
    yield _lab("two_gen", i=1, s=0), _lab("u_f", s=1)
    ring = qt.field_ring(fd, j)
    for w in ring.elements():
        if w == P_ZERO:
            continue
        wp = qt.omega_prime(fd, j, (w,))
        yield (_lab("mixed_one", i=1, t=0, omega=(w,)),
               _lab("mixed_one", i=1, t=0, omega=wp))


def _k3_selfrec(theta1):
    yield _lab("u_f", s=0)
    yield _lab("two_gen", i=2, s=1)
    for w in theta1:
        yield _lab("mixed_two", i=2, t=0, omega=(w,))


def _k3_pairs(fd, j):
    for i in range(4):
        yield _lab("u_pow", i=i), _lab("u_pow", i=3 - i)
    yield _lab("u_f", s=0), _lab("u_f", s=0)
    for s_ in (1, 2):
        yield _lab("u_f", s=s_), _lab("two_gen", i=3 - s_, s=0)
    ring = qt.field_ring(fd, j)
    nz = [w for w in ring.elements() if w != P_ZERO]
    for w in nz:
        wp = qt.omega_prime(fd, j, (w,))
        yield (_lab("mixed_one", i=1, t=0, omega=(w,)),
               _lab("mixed_one", i=2, t=1, omega=wp))
        yield (_lab("mixed_one", i=2, t=1, omega=(w,)),
               _lab("mixed_one", i=1, t=0, omega=wp))
        yield (_lab("mixed_two", i=2, t=0, omega=(w,)),
               _lab("mixed_two", i=2, t=0, omega=wp))
    for i in range(1, 3):
        for s_ in range(i):
            mate = (_lab("u_f", s=3 - i) if s_ == 0
                    else _lab("two_gen", i=3 - s_, s=3 - i))
            yield _lab("two_gen", i=i, s=s_), mate


def _k4_selfrec(theta1):
    yield _lab("u_pow", i=2)
    yield _lab("u_f", s=0)
    for w in theta1:
        yield _lab("mixed_one", i=2, t=1, omega=(w,))
    rest = (P_ZERO,) + tuple(theta1)
    for a0 in theta1:
        for a1 in rest:
            yield _lab("mixed_one", i=2, t=0, omega=(a0, a1))
    for w in theta1:
        yield _lab("mixed_two", i=3, t=0, omega=(w,))
    yield _lab("two_gen", i=3, s=1)


def _k4_pairs(fd, j):
    for i in range(5):
        yield _lab("u_pow", i=i), _lab("u_pow", i=4 - i)
    yield _lab("u_f", s=0), _lab("u_f", s=0)
    for s_ in (1, 2, 3):
        yield _lab("u_f", s=s_), _lab("two_gen", i=4 - s_, s=0)
    ring = qt.field_ring(fd, j)
    nz = [w for w in ring.elements() if w != P_ZERO]
    for i in (1, 2, 3):
        for w in nz:
            wp = qt.omega_prime(fd, j, (w,))
            yield (_lab("mixed_one", i=i, t=i - 1, omega=(w,)),
                   _lab("mixed_one", i=4 - i, t=3 - i, omega=wp))
    for a0 in nz:
        for a1 in ring.elements():
            th = (a0, a1)
            thp = qt.omega_prime(fd, j, th)
            yield (_lab("mixed_one", i=2, t=0, omega=th),
                   _lab("mixed_one", i=2, t=0, omega=thp))
    for w in nz:
        wp = qt.omega_prime(fd, j, (w,))
        yield (_lab("mixed_two", i=3, t=0, omega=(w,)),
               _lab("mixed_two", i=3, t=0, omega=wp))
        yield (_lab("mixed_two", i=3, t=1, omega=(w,)),
               _lab("two_gen_omega", i=2, t=0, s=1, omega=wp))
        yield (_lab("two_gen_omega", i=2, t=0, s=1, omega=(w,)),
               _lab("mixed_two", i=3, t=1, omega=wp))
    for i in range(1, 4):
        for s_ in range(i):
            mate = (_lab("u_f", s=4 - i) if s_ == 0
                    else _lab("two_gen", i=4 - s_, s=4 - i))
            yield _lab("two_gen", i=i, s=s_), mate


def _k5_selfrec(theta1):
    yield _lab("u_f", s=0)
    rest = (P_ZERO,) + tuple(theta1)
    for a0 in theta1:
        for a1 in rest:
            yield _lab("mixed_two", i=3, t=0, omega=(a0, a1))
    for w in theta1:
        yield _lab("mixed_two", i=4, t=0, omega=(w,))
    yield _lab("two_gen", i=3, s=2)
    yield _lab("two_gen", i=4, s=1)
    for w in theta1:
        yield _lab("two_gen_omega", i=3, t=1, s=2, omega=(w,))


def _k5_pairs(fd, j):
    for i in range(6):
        yield _lab("u_pow", i=i), _lab("u_pow", i=5 - i)
    yield _lab("u_f", s=0), _lab("u_f", s=0)
    for s_ in (1, 2, 3, 4):
        yield _lab("u_f", s=s_), _lab("two_gen", i=5 - s_, s=0)
    ring = qt.field_ring(fd, j)
    nz = [w for w in ring.elements() if w != P_ZERO]
    for i in (1, 2, 3, 4):
        for w in nz:
            wp = qt.omega_prime(fd, j, (w,))
            yield (_lab("mixed_one", i=i, t=i - 1, omega=(w,)),
                   _lab("mixed_one", i=5 - i, t=4 - i, omega=wp))
    for a0 in nz:
        for a1 in ring.elements():
            th = (a0, a1)
            thp = qt.omega_prime(fd, j, th)
            yield (_lab("mixed_one", i=2, t=0, omega=th),
                   _lab("mixed_one", i=3, t=1, omega=thp))
            yield (_lab("mixed_one", i=3, t=1, omega=th),
                   _lab("mixed_one", i=2, t=0, omega=thp))
            yield (_lab("mixed_two", i=3, t=0, omega=th),
                   _lab("mixed_two", i=3, t=0, omega=thp))
    for w in nz:
        wp = qt.omega_prime(fd, j, (w,))
        yield (_lab("mixed_two", i=4, t=0, omega=(w,)),
               _lab("mixed_two", i=4, t=0, omega=wp))
        yield (_lab("mixed_two", i=4, t=1, omega=(w,)),
               _lab("two_gen_omega", i=3, t=0, s=1, omega=wp))
        yield (_lab("mixed_two", i=4, t=2, omega=(w,)),
               _lab("two_gen_omega", i=2, t=0, s=1, omega=wp))
        yield (_lab("two_gen_omega", i=2, t=0, s=1, omega=(w,)),
               _lab("mixed_two", i=4, t=2, omega=wp))
        yield (_lab("two_gen_omega", i=3, t=0, s=1, omega=(w,)),
               _lab("mixed_two", i=4, t=1, omega=wp))
        yield (_lab("two_gen_omega", i=3, t=1, s=2, omega=(w,)),
               _lab("two_gen_omega", i=3, t=1, s=2, omega=wp))
    for i in range(1, 5):
        for s_ in range(i):
            mate = (_lab("u_f", s=5 - i) if s_ == 0
                    else _lab("two_gen", i=5 - s_, s=5 - i))
            yield _lab("two_gen", i=i, s=s_), mate


_SELFREC_TABLES = {2: _k2_selfrec, 3: _k3_selfrec, 4: _k4_selfrec,
                   5: _k5_selfrec}
_PAIR_TABLES = {2: _k2_pairs, 3: _k3_pairs, 4: _k4_pairs, 5: _k5_pairs}


def _list_from_tables(fd: FactorData, k: int):
    selfrec_fn, pair_fn = _SELFREC_TABLES[k], _PAIR_TABLES[k]
    lists = [list(selfrec_fn([w[0] for w in theta_set(fd, j, 1).members]))
             if j < fd.num_selfrec else list(pair_fn(fd, j))
             for j in fd.component_indices()]
    return (_build_code(fd, k, choice) for choice in itertools.product(*lists))


def selfdual_k2_list(n: int, m: int, fd: FactorData | None = None,
                     modulus: int | None = None):
    """Self-dual codes for k=2 from the literal closed table (cross-check)."""
    if fd is None:
        fd = factor_xn_minus_1(n, m, modulus)
    return _list_from_tables(fd, 2)


def selfdual_k345_list(n: int, m: int, k: int,
                       fd: FactorData | None = None,
                       modulus: int | None = None):
    """Self-dual codes for k in {3,4,5} from literal tables (cross-check)."""
    if k not in (3, 4, 5):
        raise UnsupportedK(f"no literal table for k={k}")
    if fd is None:
        fd = factor_xn_minus_1(n, m, modulus)
    return _list_from_tables(fd, k)


# ---------------------------------------------------------------------------
# the Gray map and Gray-image generator matrices on symbol tuples
# ---------------------------------------------------------------------------

def gray_map(xi) -> tuple[int, ...]:
    """Map an R-vector, given as (a_i, b_i) pairs, to (b | a+b) over F_{2^m}."""
    pairs = list(xi)
    for p in pairs:
        if len(p) != 2:
            raise UnsupportedK("the Gray map is defined for k=2 coefficients")
    return (tuple(b for _, b in pairs)
            + tuple(a ^ b for a, b in pairs))


def circulant(a: Poly, s: int, n2: int) -> tuple[tuple[int, ...], ...]:
    """s x n2 block [a]_s: row i is the coefficient vector of x^i a mod x^n2-1."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if len(a) > n2:
        raise ValueError("reduce a mod x^n2 - 1 first")
    row = tuple(a) + (0,) * (n2 - len(a))
    out = [row]
    for _ in range(s - 1):
        row = (row[-1],) + row[:-1]
        out.append(row)
    return tuple(out)


def _hblock(left: Poly, right: Poly, s: int, n2: int):
    """s rows of the 2-block [left | right], each half a circulant."""
    return [lr + rr for lr, rr in zip(circulant(left, s, n2),
                                      circulant(right, s, n2))]


def shape_k2(label: IdealLabel) -> str:
    """Shape tag of a k=2 component label: zero/one/u/f/uf/mixed/top."""
    if label.kind == "u_pow":
        return ("one", "u", "zero")[label.i]
    if label.kind == "u_f":
        return ("f", "uf")[label.s]
    if label.kind == "mixed_one":
        return "mixed"
    if label.kind == "two_gen":
        return "top"
    raise ValueError(f"not a k=2 label: {label}")


# Blocks of the image of a self-dual code at a component pair, keyed by the
# shapes (C_j, C_mate): each block is d_j rows [left | right] of circulants,
# left and right one of 0, E = eps, F = f eps or W = (1 + f w) eps, taken at
# j (side 0) or at the mate (side 1).  A self-reciprocal component is its
# own mate and takes the side-0 blocks of its (shape, shape) entry.
PAIR_BLOCKS = {
    ("one", "zero"): (("0", "E", 0), ("E", "E", 0), ("0", "F", 0),
                      ("F", "F", 0)),
    ("zero", "one"): (("0", "E", 1), ("E", "E", 1), ("0", "F", 1),
                      ("F", "F", 1)),
    ("u", "u"): (("E", "E", 0), ("F", "F", 0), ("E", "E", 1), ("F", "F", 1)),
    ("f", "f"): (("0", "F", 0), ("F", "F", 0), ("0", "F", 1), ("F", "F", 1)),
    ("mixed", "mixed"): (("E", "W", 0), ("F", "F", 0), ("E", "W", 1),
                         ("F", "F", 1)),
    ("uf", "top"): (("F", "F", 0), ("E", "E", 1), ("F", "F", 1),
                    ("0", "F", 1)),
    ("top", "uf"): (("E", "E", 0), ("F", "F", 0), ("0", "F", 0),
                    ("F", "F", 1)),
}


def generator_matrix_rows(code: CyclicCode) -> list[tuple[int, ...]]:
    """The rows of ``gray.generator_matrix(code)`` as symbol tuples, built
    from circulants of E = eps_j, F = f_j eps_j and W = (1 + f_j w) eps_j by
    the pair-shape table; ``code`` must be self-dual with k = 2.  Every
    polynomial is computed afresh on each call."""
    fd = code.fd
    n2 = 2 * fd.n

    def poly(name: str, j: int) -> Poly:
        if name == "0":
            return P_ZERO
        if name == "E":
            return fd.idempotents[j]
        f_eps = poly_mulmod(fd.ctx, fd.factors[j], fd.idempotents[j],
                            fd.modulus_2n())
        if name == "F":
            return f_eps
        w = code.components[j].omega[0]
        return poly_add(fd.idempotents[j], poly_mulmod(
            fd.ctx, f_eps, w, fd.modulus_2n()))

    rows = []
    for j in fd.component_indices():
        jm = fd.mate(j)
        blocks = PAIR_BLOCKS[(shape_k2(code.components[j]),
                              shape_k2(code.components[jm]))]
        for left, right, side in blocks:
            if side == 0 or jm != j:
                at = (j, jm)[side]
                rows += _hblock(poly(left, at), poly(right, at),
                                fd.degree(j), n2)
    return rows


def lee_distribution_by_words(code: CyclicCode) -> dict[int, int]:
    """Lee weight histogram of a k = 2 code, one codeword of the oracle's
    F_2 span at a time."""
    n, m = code.n, code.m
    dc = span_code(n, m, 2, to_ambient_generators(code),
                   modulus=code.fd.ctx.modulus)
    hist: dict[int, int] = {}
    for w in dc.words():
        lw = sum(lee_weight(a, b) for a, b in unpack_ambient(w, n, m, 2))
        hist[lw] = hist.get(lw, 0) + 1
    return hist


# ---------------------------------------------------------------------------
# factoring x^n - 1 in the splitting field
# ---------------------------------------------------------------------------

def last_modulus(m: int) -> int:
    """The largest irreducible of degree m: not the default for m >= 3
    (y^2 + y + 1 is the only irreducible of degree 2)."""
    return next(a for a in range((1 << (m + 1)) - 1, 1 << m, -1)
                if f2x_is_irreducible(a))


def factor_by_splitting_field(n: int, m: int,
                              modulus: int | None = None) -> FactorData:
    """``factor_xn_minus_1`` through F_{2^M}, M = m*t, t = ord_n(2^m).

    The coset of i gives prod (x - gamma^e), e in the coset, for gamma of
    order n in F_{2^M}; its coefficients lie in the subfield of size 2^m,
    and a root z of the modulus there maps them back (z^i -> y^i).  Another
    root changes each factor by a Frobenius map of F_{2^m}, which permutes
    the factors, so the set found does not depend on z.  Big-field products
    are ``f2x_mulmod`` on ints, so M may exceed the field cap; the subfield
    is walked element by element until a root turns up, so the cost grows
    as 2^m.
    """
    ctx = FieldCtx(m, modulus)
    q = ctx.order
    t = next(t for t in range(1, n + 1) if (q ** t - 1) % n == 0)
    big = ctx.modulus if t == 1 else default_modulus(m * t)
    q1 = (1 << (m * t)) - 1
    g = find_generator(m * t, big)
    gamma = f2x_powmod(g, q1 // n, big)

    def is_root(z: int) -> bool:
        acc = 0
        for i in range(m, -1, -1):
            acc = f2x_mulmod(acc, z, big) ^ (ctx.modulus >> i & 1)
        return acc == 0

    z, eta = (1, f2x_powmod(g, q1 // (q - 1), big)) if t > 1 else (0b10, 1)
    while not is_root(z):
        z = f2x_mulmod(z, eta, big)
    z_pows = [f2x_powmod(z, i, big) for i in range(m)]
    to_base = {}
    for a in range(q):
        acc = 0
        for i in range(m):
            if a >> i & 1:
                acc ^= z_pows[i]
        to_base[acc] = a

    raw = []
    for coset in cyclotomic_cosets(n, q):
        f = [1]
        for e in coset:
            root = f2x_powmod(gamma, e, big)
            f = [a ^ f2x_mulmod(b, root, big)
                 for a, b in zip([0] + f, f + [0])]
        raw.append(tuple(to_base[c] for c in f))

    def key(f):
        return poly_degree(f), poly_key(ctx, f)

    def mate(f):
        return poly_monic(ctx, reciprocal(f))

    selfrec = sorted((f for f in raw if mate(f) == f and f != (1, 1)),
                     key=key)
    reps = sorted((f for f in raw if poly_key(ctx, f) < poly_key(ctx, mate(f))),
                  key=key)
    factors = ((1, 1), *selfrec, *reps, *map(mate, reps))
    return FactorData(n=n, m=m, ctx=ctx, factors=factors,
                      num_selfrec=1 + len(selfrec), num_pairs=len(reps),
                      delta=tuple(reciprocal(f)[-1] for f in factors))


# ---------------------------------------------------------------------------
# the oracle's F_2 core, one bit and one basis row at a time
# ---------------------------------------------------------------------------

def apply_map_per_bit(images, v: int) -> int:
    """Image of v under the F_2-linear map with per-bit images ``images``."""
    out = 0
    while v:
        low = v & -v
        out ^= images[low.bit_length() - 1]
        v ^= low
    return out


def map_closure_by_min(gens, maps) -> list[int]:
    """XOR basis, distinct leading bits, sorted descending, of the smallest
    F_2 subspace holding gens and closed under every map in ``maps``
    (per-bit image tuples): each vector is reduced by ``min(v, v ^ row)``
    against every basis row."""
    basis: list[int] = []
    pending = [int(g) for g in gens]
    while pending:
        v = pending.pop()
        for row in basis:
            v = min(v, v ^ row)
        if not v:
            continue
        basis.append(v)
        basis.sort(reverse=True)
        pending.extend(apply_map_per_bit(images, v) for images in maps)
    return basis


def theta_congruence_filter_full_walk(fd, j: int, s: int):
    """``oracle.theta_congruence_filter`` by walking every digit tuple
    (a_0, ..., a_(s-1)) of F_j[u]/(u^s) in counter order, a_0 fastest, and
    keeping the units whose every slot passes the congruence."""
    ring = qt.field_ring(fd, j)
    xfac = ring.pow((0, 1), 2 * fd.n - fd.degree(j))
    delta = fd.delta[j]
    good = [not poly_add(a, poly_scale(fd.ctx, ring.mul(xfac, qt.hat(fd, j, a)),
                                       delta))
            for a in ring.elements()]
    out = []
    for digits in itertools.product(range(ring.size()), repeat=s):
        w = digits[::-1]
        if w[0] and all(good[a] for a in w):
            out.append(tuple(poly_from_key(fd.ctx, a) for a in w))
    return out
