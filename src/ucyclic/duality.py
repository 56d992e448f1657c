"""Duals, hulls, and self-orthogonal cyclic codes over F_{2^m}[u]/(u^2).

Everything here is k=2 only: at nilpotency index 2 each CRT component
carries one of exactly seven ideal shapes

    <0>  <uf>  <u>  <f>  <u+fw>  <u,f>  <1>

ordered by inclusion as <0> < <uf> < {<u>, <f>, <u+fw>} < <u,f> < <1>, with
distinct middle ideals meeting in <uf>.  The dual of a code permutes
components by the reciprocal-pair map and sends each shape to a fixed
partner shape; the hull (C intersect dual) then follows from a finite case
analysis on the shape pair.  ``UnsupportedK`` is raised for any other k —
general-k duals are only available through the brute-force oracle.
"""

from __future__ import annotations

from .cyclotomic import FactorData, factor_degrees, factor_xn_minus_1
from .errors import UnsupportedK
from .gf import P_ZERO
from .ideals import IdealLabel
from .quotient import field_ring
from .selfdual import CyclicCode, assemble_codes, mate_label, theta_set

__all__ = [
    "dual_code", "hull", "hull_dimension", "is_self_orthogonal",
    "enumerate_selforthogonal", "count_selforthogonal", "shape_k2",
]

# the seven component shapes at k=2, as canonical labels
L_ZERO = IdealLabel("u_pow", i=2)
L_ONE = IdealLabel("u_pow", i=0)
L_U = IdealLabel("u_pow", i=1)
L_F = IdealLabel("u_f", s=0)
L_UF = IdealLabel("u_f", s=1)
L_TOP = IdealLabel("two_gen", i=1, s=0)


def _mixed(w) -> IdealLabel:
    return IdealLabel("mixed_one", i=1, t=0, omega=(w,))


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


# dimension over F_{2^m} of each shape, in units of d_j
_KAPPA = {"zero": 0, "one": 4, "u": 2, "f": 2, "uf": 1, "mixed": 2, "top": 3}


def _require_k2(code: CyclicCode) -> None:
    if code.k != 2:
        raise UnsupportedK(
            f"duals and hulls are tabulated for k=2 only (got k={code.k}); "
            "use the brute-force oracle for other k")


def dual_code(code: CyclicCode) -> CyclicCode:
    """The Euclidean dual, componentwise from the k=2 shape table."""
    _require_k2(code)
    fd = code.fd
    comps: list[IdealLabel | None] = [None] * fd.r
    for j, lab in enumerate(code.components):
        comps[fd.mate(j)] = mate_label(fd, j, lab, 2)
    dual = CyclicCode._trusted(fd, 2, tuple(comps))
    assert code.size_log2() + dual.size_log2() == 4 * fd.m * fd.n, \
        "|C|*|C_dual| must equal |R|^(2n)"
    return dual


def _in_theta1(fd: FactorData, j: int, omega: tuple) -> bool:
    """Is the mixed-shape unit in the self-dual parameter set Theta_{j,1}?"""
    if j == 0:
        return True  # every nonzero scalar qualifies at the x-1 component
    return omega in fd.theta1(j)


def _hull_selfrec(fd: FactorData, j: int, lab: IdealLabel) -> IdealLabel:
    sh = shape_k2(lab)
    if sh in ("zero", "one"):
        return L_ZERO
    if sh in ("uf", "top"):
        return L_UF
    if sh == "f":
        return L_F
    if sh == "u":
        return lab
    # mixed: own hull iff the unit lies in Theta_{j,1}, else <uf>
    return lab if _in_theta1(fd, j, lab.omega) else L_UF


def _hull_pair(fd: FactorData, j: int, a: IdealLabel,
               b: IdealLabel) -> tuple[IdealLabel, IdealLabel]:
    """Hull components (H_j, H_mate) for a reciprocal pair with C_j=a."""
    sa, sb = shape_k2(a), shape_k2(b)
    if sa == "zero":
        return L_ZERO, b
    if sa == "uf":
        if sb == "one":
            return L_ZERO, L_TOP
        return L_UF, b
    if sa == "f":
        if sb == "f":
            return L_F, L_F
        if sb == "top":
            return L_UF, L_F
        if sb == "one":
            return L_ZERO, L_F
        if sb in ("uf", "zero"):
            return L_F, b
        return L_UF, L_UF  # <u> or any <u+fw>
    if sa in ("u", "mixed"):
        partner = mate_label(fd, j, a, 2)  # <u+f w0'> (or <u> when w0=0)
        if b == partner or sb in ("uf", "zero"):
            return a, b
        if sb == "top":
            return L_UF, partner
        if sb == "one":
            return L_ZERO, partner
        return L_UF, L_UF  # <f>, or a mixed/<u> shape other than the partner
    if sa == "top":
        if sb == "zero":
            return L_TOP, L_ZERO
        return mate_label(fd, fd.mate(j), b, 2), L_UF
    # sa == "one"
    return mate_label(fd, fd.mate(j), b, 2), L_ZERO


def hull(code: CyclicCode) -> CyclicCode:
    """Hull(C) = C intersect dual(C), by the per-component case tables."""
    _require_k2(code)
    fd = code.fd
    comps: list[IdealLabel | None] = [None] * fd.r
    for j in range(fd.num_selfrec):
        comps[j] = _hull_selfrec(fd, j, code.components[j])
    for j in range(fd.num_selfrec, fd.num_selfrec + fd.num_pairs):
        jm = fd.mate(j)
        comps[j], comps[jm] = _hull_pair(fd, j, code.components[j],
                                         code.components[jm])
    return CyclicCode._trusted(fd, 2, tuple(comps))


def hull_dimension(code: CyclicCode) -> int:
    """dim over F_{2^m} of Hull(C), summing the per-shape kappa values."""
    h = hull(code)
    fd = code.fd
    dim = sum(_KAPPA[shape_k2(lab)] * fd.degree(j)
              for j, lab in enumerate(h.components))
    assert dim == h.size_log2() // fd.m
    return dim


def is_self_orthogonal(code: CyclicCode) -> bool:
    """True iff C is contained in its dual, i.e. Hull(C) = C."""
    _require_k2(code)
    return hull(code) == code


# ---------------------------------------------------------------------------
# all self-orthogonal codes (k=2)
# ---------------------------------------------------------------------------

def _selforth_selfrec(fd: FactorData, j: int) -> list[IdealLabel]:
    """Self-orthogonal component ideals at a self-reciprocal factor."""
    out = [L_ZERO, L_UF, L_F, L_U]
    if j == 0:
        ring = field_ring(fd, 0)
        out += [_mixed(w) for w in ring.elements() if w != P_ZERO]
    else:
        out += [_mixed(w[0]) for w in theta_set(fd, j, 1).members]
    return out


def _selforth_pairs(fd: FactorData, j: int):
    """Self-orthogonal (C_j, C_mate) assignments for a reciprocal pair.

    15 + 5q assignments in total, q = |F_j|.  Note the (<u,f>, <uf>) row:
    that assignment is its own dual (see the shape table), so it belongs
    here even though no other partner works for <u,f> besides <0>.
    """
    ring = field_ring(fd, j)
    mixeds = [_mixed(w) for w in ring.elements() if w != P_ZERO]
    everything = [L_ZERO, L_ONE, L_U, L_F, L_UF, L_TOP] + mixeds
    out = [(L_ZERO, b) for b in everything]
    out += [(L_UF, b) for b in everything if b != L_ONE]
    out += [(L_F, b) for b in (L_F, L_UF, L_ZERO)]
    for a in [L_U] + mixeds:
        partner = mate_label(fd, j, a, 2)
        out += [(a, b) for b in (partner, L_UF, L_ZERO)]
    out += [(L_TOP, L_UF), (L_TOP, L_ZERO), (L_ONE, L_ZERO)]
    return out


def enumerate_selforthogonal(n: int, m: int,
                             fd: FactorData | None = None,
                             modulus: int | None = None):
    """All distinct self-orthogonal cyclic codes of length 2n, k=2."""
    if fd is None:
        fd = factor_xn_minus_1(n, m, modulus)
    return assemble_codes(fd, 2, lambda j: _selforth_selfrec(fd, j),
                          lambda j: _selforth_pairs(fd, j))


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
