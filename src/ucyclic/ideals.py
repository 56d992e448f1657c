"""Ideals of K[u]/(u^k) for K = F_{2^m}[x]/(f^2), f irreducible of degree d.

Every ideal of this local ring falls into exactly one of six shapes, described
by an :class:`IdealLabel` (q = 2^(m*d) is the residue field size throughout).
Each label is the ideal (u^a + u^t f w, u^b f) for its :func:`exponents`
(a, b): a = i, or k when the label has no i; b = s, or else the least
u-power of f that the first generator already brings in, a with no unit and
min(a, k - a + t) with one.

==============  ======================  ==========  ========================
kind            generators              (a, b)      parameter ranges
==============  ======================  ==========  ========================
u_pow           (u^i)                   (i, i)      0 <= i <= k
u_f             (u^s f)                 (k, s)      0 <= s <= k-1
mixed_one       (u^i + u^t f w)         (i, i)      0 <= t < i <= k-1,
                w unit of F[u]/(u^(i-t))            t >= 2i-k
mixed_two       (u^i + u^t f w)         (i, k-i+t)  0 <= t < i <= k-1,
                w unit of F[u]/(u^(k-i))            t < 2i-k
two_gen         (u^i, u^s f)            (i, s)      0 <= s < i <= k-1
two_gen_omega   (u^i + u^t f w, u^s f)  (i, s)      0 <= t < s < i <= k-1,
                w unit of F[u]/(u^(s-t))            i + s <= k + t - 1
==============  ======================  ==========  ========================

Here F = F_{2^m}[x]/(f) is the residue field and units w are u-expansions with
nonzero constant coefficient.  In (a, b) form every row reads the same way:
the ideal has q^(2k - a - b) elements, its unit has length b - t, and its
dual (the annihilator under the reciprocal map, ``selfdual.mate_label``) is
(u^(k-b) + u^(t+k-a-b) f w', u^(k-a) f), with w' the transported unit
(``FactorData.omega_prime``), so it is its own dual's shape iff a + b = k.

:func:`label_classes` is this classification, the one place it is written
out: a class per (kind, i, t, s) in the ranges above, with its (a, b), in
enumeration order.  A label is valid iff its (kind, i, t, s) is a class and
its unit fits; each class is the :func:`canonical_label` of its (a, b, t),
0 <= t < b <= a <= k.  ``count_ideals`` gives the total from the
closed-form census; the tests check it against ``enumerate_ideals``, the
brute-force census, the class sizes and the shape-by-shape counts.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass

from .errors import TooLarge
from .gf import P_ONE, P_ZERO, FieldCtx, poly_degree, poly_from_key, poly_mul

KINDS = ("u_pow", "u_f", "mixed_one", "mixed_two", "two_gen", "two_gen_omega")

MAX_K = 64      # the largest k with a class table (24,497 classes, ~k^3/12)


@dataclass(frozen=True)
class IdealLabel:
    kind: str
    i: int | None = None
    t: int | None = None
    s: int | None = None
    omega: tuple | None = None  # tuple of residue-field polys, u^0 first


def exponents(label: IdealLabel, k: int) -> tuple[int, int]:
    """(a, b) with the label's ideal equal to (u^a + u^t f w, u^b f)."""
    a = k if label.i is None else label.i
    if label.s is not None:
        return a, label.s
    t = label.t
    if t is None or a + a <= k + t:
        return a, a
    return a, k - a + t


# The labels (kind, i, t, s, w) for every unit w of length b - t (one label,
# w None, when t is None); (a, b) are their exponents.
LabelClass = namedtuple("LabelClass", "kind i t s a b")


@functools.cache
def label_classes(k: int) -> tuple[LabelClass, ...]:
    """Every label class of K[u]/(u^k) in enumeration order: kinds in table
    order, then i, t, s ascending (two_gen_omega: i, s, t); k <= MAX_K."""
    if k > MAX_K:
        raise TooLarge(f"k={k} is above the cap of {MAX_K}")
    r = range
    params = [
        *(("u_pow", i, None, None) for i in r(k + 1)),
        *(("u_f", None, None, s) for s in r(k)),
        *(("mixed_one", i, t, None)
          for i in r(1, k) for t in r(max(0, 2 * i - k), i)),
        *(("mixed_two", i, t, None) for i in r(k // 2 + 1, k)
          for t in r(2 * i - k)),
        *(("two_gen", i, None, s) for i in r(1, k) for s in r(i)),
        *(("two_gen_omega", i, t, s) for i in r(1, k) for s in r(1, i)
          for t in r(max(0, i + s + 1 - k), s)),
    ]
    return tuple(LabelClass(*p, *exponents(IdealLabel(*p), k))
                 for p in params)


@functools.cache
def _class_index(k: int) -> dict[tuple, LabelClass]:
    """The classes of ``label_classes(k)`` keyed by their (kind, i, t, s)
    and again by their (a, b, t)."""
    rows = label_classes(k)
    return {c[:4]: c for c in rows} | {(c.a, c.b, c.t): c for c in rows}


def canonical_label(k: int, a: int, b: int, t: int | None = None,
                    omega: tuple | None = None) -> IdealLabel | None:
    """The label of the ideal (u^a + u^t f w, u^b f) of K[u]/(u^k), w =
    ``omega`` (no unit term when t is None); None unless 0 <= t < b <= a <= k
    and b is at most the u-power of f that u^a + u^t f w brings in."""
    row = _class_index(k).get((a, b, t))
    return row and IdealLabel(row.kind, row.i, t, row.s, omega)


def validate_label(label: IdealLabel, k: int, d: int | None = None) -> None:
    """Raise ValueError unless the label is canonical for nilpotency index k
    (its (kind, i, t, s) is a class of ``label_classes(k)``, its unit fits)."""
    kind, t = label.kind, label.t
    if kind not in KINDS:
        raise ValueError(f"unknown ideal kind {kind!r}")
    row = _class_index(k).get((kind, label.i, t, label.s))
    if row is None:
        raise ValueError(f"out-of-range parameters for {label}")
    w = label.omega
    if t is None:
        if w is not None:
            raise ValueError(f"{kind} takes no unit parameter")
        return
    length = row.b - t
    if w is None or len(w) != length:
        raise ValueError(f"{kind} needs a unit expansion of length {length}")
    if not w[0]:
        raise ValueError("unit expansion must have nonzero constant term")
    if d is not None and any(poly_degree(c) >= d for c in w):
        raise ValueError("unit coefficients must be reduced mod f")


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def _require_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"nilpotency index k must be >= 1, got {k}")
    if k > MAX_K:
        raise TooLarge(f"k={k} is above the cap of {MAX_K}")


def count_ideals(q: int, k: int) -> int:
    """Total number of ideals of K[u]/(u^k), residue field of size q."""
    _require_k(k)
    if k % 2 == 0:
        return sum((1 + 4 * i) * q ** (k // 2 - i) for i in range(k // 2 + 1))
    return sum((3 + 4 * i) * q ** ((k - 1) // 2 - i)
               for i in range((k + 1) // 2))


def ideal_size_log2(label: IdealLabel, m: int, d: int, k: int) -> int:
    """log2 of the ideal's cardinality, q^(2k - a - b)."""
    a, b = exponents(label, k)
    return m * d * (2 * k - a - b)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def u_units(ctx: FieldCtx, d: int, s: int):
    """Every unit of F[u]/(u^s), F = F_{2^m}[x]/(f) with deg f = d, in
    canonical order: the mixed-radix counter (a_0, ..., a_{s-1}) of
    coefficient keys, a_0 fastest, skipping a_0 = 0."""
    bits = ctx.m * d
    mask = (1 << bits) - 1
    for w in range(1 << (bits * s)):
        if w & mask:
            yield tuple(poly_from_key(ctx, (w >> (bits * l)) & mask)
                        for l in range(s))


def enumerate_ideals(fd, j: int, k: int):
    """Yield every ideal label for component j, in a fixed documented order.

    Order: the classes of :func:`label_classes`, each with its unit
    expansions in the canonical counter order of :func:`u_units`.
    """
    _require_k(k)
    ctx, d = fd.ctx, fd.degree(j)
    for c in label_classes(k):
        for w in (None,) if c.t is None else u_units(ctx, d, c.b - c.t):
            yield IdealLabel(*c[:4], w)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def ideal_generators(fd, j: int, k: int, label: IdealLabel) -> list[tuple]:
    """Generators as elements of K[u]/(u^k), each a k-tuple of K-elements:
    u^i + u^t f w when the label has i, then u^s f when it has s.  The unit
    coefficients are reduced mod f, so f w needs no reduction mod f^2."""
    validate_label(label, k, fd.degree(j))
    f = fd.factors[j]
    i, t, s = label.i, label.t, label.s
    gens = []
    if i is not None:
        g = [P_ZERO] * k
        if i < k:
            g[i] = P_ONE
        for l, wl in enumerate(label.omega or ()):
            if wl:
                g[t + l] = poly_mul(fd.ctx, f, wl)
        gens.append(tuple(g))
    if s is not None:
        g = [P_ZERO] * k
        g[s] = f
        gens.append(tuple(g))
    return gens
