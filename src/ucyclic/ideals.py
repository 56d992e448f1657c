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
(``quotient.omega_prime``).  The ranges say that the label is the
:func:`canonical_label` of its own (a, b, t, w), with 0 <= t < b <= a <= k.
``count_ideals`` gives the total from the closed-form census; the tests check
it against ``enumerate_ideals``, the brute-force census and the shape-by-shape
counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import quotient as qt
from .gf import P_ONE, P_ZERO, poly_degree

KINDS = ("u_pow", "u_f", "mixed_one", "mixed_two", "two_gen", "two_gen_omega")


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


def _shape(k: int, a: int, b: int, t: int | None):
    """(kind, i, s) of the canonical label of (u^a + u^t f w, u^b f), for
    b no larger than the u-power of f the first generator brings in."""
    if t is None:
        if b == a:
            return "u_pow", a, None
        return ("u_f", None, b) if a == k else ("two_gen", a, b)
    if b < a and b < k - a + t:
        return "two_gen_omega", a, b
    return ("mixed_one" if a <= k - a + t else "mixed_two"), a, None


def canonical_label(k: int, a: int, b: int, t: int | None = None,
                    omega: tuple | None = None) -> IdealLabel:
    """The label of the ideal (u^a + u^t f w, u^b f) of K[u]/(u^k), w =
    ``omega`` (no unit term when t is None); needs 0 <= t < b <= a <= k and
    b at most the u-power of f that u^a + u^t f w brings in."""
    kind, i, s = _shape(k, a, b, t)
    return IdealLabel(kind, i=i, t=t, s=s, omega=omega)


def omega_truncation(label: IdealLabel, k: int) -> int | None:
    """Length of the unit expansion attached to a label, if any."""
    return None if label.t is None else exponents(label, k)[1] - label.t


def validate_label(label: IdealLabel, k: int, d: int | None = None) -> None:
    """Raise ValueError unless the label is canonical for nilpotency index k."""
    kind, t = label.kind, label.t
    if kind not in KINDS:
        raise ValueError(f"unknown ideal kind {kind!r}")
    a, b = exponents(label, k)
    if not (0 <= b <= a <= k and (t is None or 0 <= t < b)
            and _shape(k, a, b, t) == (kind, label.i, label.s)):
        raise ValueError(f"out-of-range parameters for {label}")
    w = label.omega
    if t is None:
        if w is not None:
            raise ValueError(f"{kind} takes no unit parameter")
        return
    if w is None or len(w) != b - t:
        raise ValueError(f"{kind} needs a unit expansion of length {b - t}")
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

def enumerate_ideals(fd, j: int, k: int):
    """Yield every ideal label for component j, in a fixed documented order.

    Order: shapes in the table order of the module docstring; within a shape,
    indices ascending (i, then t, then s) and unit expansions in the canonical
    counter order of :func:`ucyclic.quotient.u_units`.
    """
    _require_k(k)
    ring = qt.field_ring(fd, j)
    for i in range(k + 1):
        yield IdealLabel("u_pow", i=i)
    for s in range(k):
        yield IdealLabel("u_f", s=s)
    for i in range(1, k):
        for t in range(max(0, 2 * i - k), i):
            for w in qt.u_units(ring, i - t):
                yield IdealLabel("mixed_one", i=i, t=t, omega=w)
    for i in range(k // 2 + 1, k):
        for t in range(0, 2 * i - k):
            for w in qt.u_units(ring, k - i):
                yield IdealLabel("mixed_two", i=i, t=t, omega=w)
    for i in range(1, k):
        for s in range(i):
            yield IdealLabel("two_gen", i=i, s=s)
    for i in range(1, k):
        for s in range(1, i):
            for t in range(0, s):
                if i + s > k + t - 1:
                    continue
                for w in qt.u_units(ring, s - t):
                    yield IdealLabel("two_gen_omega", i=i, t=t, s=s, omega=w)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def ideal_generators(fd, j: int, k: int, label: IdealLabel) -> list[qt.UElem]:
    """Generators as elements of K[u]/(u^k), each a k-tuple of K-elements:
    u^i + u^t f w when the label has i, then u^s f when it has s."""
    validate_label(label, k, fd.degree(j))
    ring = qt.chain_ring(fd, j)
    f = fd.factors[j]
    i, t, s = label.i, label.t, label.s
    gens = []
    if i is not None:
        g = [P_ZERO] * k
        if i < k:
            g[i] = P_ONE
        for l, wl in enumerate(label.omega or ()):
            if wl:
                g[t + l] = ring.mul(f, wl)
        gens.append(tuple(g))
    if s is not None:
        g = [P_ZERO] * k
        g[s] = ring.reduce(f)
        gens.append(tuple(g))
    return gens
