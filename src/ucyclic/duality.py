"""Duals, hulls, and self-orthogonal cyclic codes over F_{2^m}[u]/(u^2).

Everything here is k=2 only.  At nilpotency index 2 the ideals of one CRT
component form a lattice

    <0>  <  <uf>  <  {<u>, <f>, <u+fw>}  <  <u,f>  <  <1>

In the exponents (a, b) of the ideal (u^a + u^t f w, u^b f)
(``ideals.exponents``) these are (2, 2), (2, 1), {(1, 1), (2, 0), (1, 1)},
(1, 0) and (0, 0), and the lattice is graded by level 4 - a - b, the log2 of
the ideal's size in units of m*d_j (0 to 4).  Two ideals on different levels
are comparable, and distinct middle ideals meet in <uf>.  The dual of a code
moves the label at component j to its ``mate_label`` at component mate(j),
taking (a, b) to (2 - b, 2 - a), so from level l to level 4 - l.  So for the
two labels of a code at (j, mate(j)) the level sum decides: below 4 the code
lies inside its dual there, above 4 the dual lies inside the code, and at 4
the two agree iff the second label is the first one's mate, else both sides
meet in <uf>.  ``hull``, ``is_self_orthogonal`` and
``enumerate_selforthogonal`` all follow from this one rule; a
self-reciprocal component is the case j == mate(j).  ``UnsupportedK`` is
raised for any other k — general-k duals are only available through the
brute-force oracle.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

from .cyclotomic import FactorData, factor_data, factor_degrees
from .errors import UnsupportedK
from .ideals import IdealLabel, enumerate_ideals, exponents
from .selfdual import (CyclicCode, _build_code, _mate_label,
                       selfdual_component_labels)

__all__ = [
    "dual_code", "hull", "hull_dimension", "is_self_orthogonal",
    "enumerate_selforthogonal", "count_selforthogonal",
]

L_ZERO = IdealLabel("u_pow", i=2)
L_UF = IdealLabel("u_f", s=1)


def _level(label: IdealLabel) -> int:
    """Level of a k=2 label in its component lattice: 0 (<0>) to 4 (<1>)."""
    a, b = exponents(label, 2)
    return 4 - a - b


def _require_k2(code: CyclicCode) -> None:
    if code.k != 2:
        raise UnsupportedK(
            f"duals and hulls are tabulated for k=2 only (got k={code.k}); "
            "use the brute-force oracle for other k")


def dual_code(code: CyclicCode) -> CyclicCode:
    """The Euclidean dual: label a at component j becomes
    ``mate_label(j, a)`` at component mate(j)."""
    _require_k2(code)
    fd = code.fd
    comps: list[IdealLabel | None] = [None] * fd.r
    for j, lab in enumerate(code.components):
        comps[fd.mate(j)] = _mate_label(fd, j, lab, 2)
    dual = CyclicCode._trusted(fd, 2, tuple(comps))
    assert code.size_log2() + dual.size_log2() == 4 * fd.m * fd.n, \
        "|C|*|C_dual| must equal |R|^(2n)"
    return dual


def _hull_pair(fd: FactorData, j: int, a: IdealLabel,
               b: IdealLabel) -> tuple[IdealLabel, IdealLabel]:
    """Hull labels at (j, mate(j)) of a code with labels (a, b) there.

    The dual holds mate_label(mate(j), b) at j and mate_label(j, a) at
    mate(j).  A transport is made only when the level sum reaches 4, and then
    at most one of a, b carries a unit.
    """
    s = _level(a) + _level(b)
    if s > 4:       # the dual lies inside the code
        return _mate_label(fd, fd.mate(j), b, 2), _mate_label(fd, j, a, 2)
    if s < 4 or b == _mate_label(fd, j, a, 2):      # the code lies inside it
        return a, b
    return L_UF, L_UF       # distinct middle ideals on both sides


def hull(code: CyclicCode) -> CyclicCode:
    """Hull(C) = C intersect dual(C), pair by pair from the level rule."""
    _require_k2(code)
    fd = code.fd
    comps = list(code.components)
    for j in fd.component_indices():
        jm = fd.mate(j)
        comps[j], comps[jm] = _hull_pair(fd, j, comps[j], comps[jm])
    return CyclicCode._trusted(fd, 2, tuple(comps))


def hull_dimension(code: CyclicCode) -> int:
    """Dimension over F_{2^m} of the Gray image of Hull(C)."""
    return hull(code).dim()


def is_self_orthogonal(code: CyclicCode) -> bool:
    """True iff C is contained in its dual, i.e. Hull(C) = C."""
    return hull(code) == code


# ---------------------------------------------------------------------------
# all self-orthogonal codes (k=2)
# ---------------------------------------------------------------------------

def _selforth_pairs(fd: FactorData, j: int):
    """(C_j, C_mate(j)) label pairs of a reciprocal pair inside the dual.

    b lies inside a's dual label d = mate_label(j, a) iff b == d or b sits on
    a lower level, so the partners of a are a prefix of the mate's ideals
    sorted by level, then d.  Counted over a, that is the 15 + 5q comparable
    pairs of the (q + 5)-ideal lattice.
    """
    mates = sorted(enumerate_ideals(fd, fd.mate(j), 2), key=_level)
    levels = [_level(b) for b in mates]
    for a in enumerate_ideals(fd, j, 2):
        for b in mates[:bisect_left(levels, 4 - _level(a))]:
            yield a, b
        yield a, _mate_label(fd, j, a, 2)


def _selforth_lists(fd: FactorData) -> list[list]:
    """The per-component lists of the self-orthogonal codes, k=2 (see
    ``selfdual._build_code``).

    At a self-reciprocal component b == a, so the level sum is 2*level(a):
    the labels below level 2, and on level 2 the self-dual ones.  Those come
    from the Theta sets; filtering all q + 1 middle ideals would cost q
    transports for sqrt(q) + 1 labels.
    """
    return [[L_ZERO, L_UF, *selfdual_component_labels(fd, j, 2)]
            if j < fd.num_selfrec else list(_selforth_pairs(fd, j))
            for j in fd.component_indices()]


def enumerate_selforthogonal(n: int, m: int,
                             fd: FactorData | None = None,
                             modulus: int | None = None):
    """All distinct self-orthogonal cyclic codes of length 2n, k=2."""
    fd = factor_data(n, m, fd, modulus)
    return (_build_code(fd, 2, choice)
            for choice in itertools.product(*_selforth_lists(fd)))


def count_selforthogonal(n: int, m: int,
                         fd: FactorData | None = None,
                         modulus: int | None = None) -> int:
    """Number of self-orthogonal cyclic codes of length 2n, k=2.

    (3 + 2^m) * prod over self-reciprocal j>=1 of (3 + 2^(d_j m/2))
    * prod over pairs of (15 + 5*2^(d_j m)); every factor brute-verified
    by the oracle censuses in the test suite.
    """
    selfrec, pairs = factor_degrees(n, m, fd, modulus)
    total = 3 + (1 << m)
    for d in selfrec:
        total *= 3 + (1 << (d * m // 2))
    for d in pairs:
        total *= 15 + 5 * (1 << (d * m))
    return total
