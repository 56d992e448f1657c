"""Ideals of K[u]/(u^k) for K = F_{2^m}[x]/(f^2), f irreducible of degree d.

Every ideal of this local ring falls into exactly one of six shapes, described
by an :class:`IdealLabel` (q = 2^(m*d) is the residue field size throughout):

==============  ====================================  =======================
kind            generators                            parameter ranges
==============  ====================================  =======================
u_pow           (u^i)                                 0 <= i <= k
u_f             (u^s f)                               0 <= s <= k-1
mixed_one       (u^i + u^t f w)                       0 <= t < i <= k-1,
                w unit of F[u]/(u^(i-t))              t >= 2i-k
mixed_two       (u^i + u^t f w)                       0 <= t < i <= k-1,
                w unit of F[u]/(u^(k-i))              t < 2i-k
two_gen         (u^i, u^s f)                          0 <= s < i <= k-1
two_gen_omega   (u^i + u^t f w, u^s f)                0 <= t < s < i <= k-1,
                w unit of F[u]/(u^(s-t))              i + s <= k + t - 1
==============  ====================================  =======================

Here F = F_{2^m}[x]/(f) is the residue field and units w are u-expansions with
nonzero constant coefficient.  ``count_ideals`` gives the total from the
closed-form census; the tests check it against ``enumerate_ideals``, the
brute-force census and the shape-by-shape counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import quotient as qt
from .gf import (P_ONE, P_ZERO, poly_add, poly_degree, poly_from_key,
                 poly_key)
from .errors import TooLarge
from .oracle import map_closure, span_words

KINDS = ("u_pow", "u_f", "mixed_one", "mixed_two", "two_gen", "two_gen_omega")

MEMBER_CAP_LOG2 = 24


@dataclass(frozen=True)
class IdealLabel:
    kind: str
    i: int | None = None
    t: int | None = None
    s: int | None = None
    omega: tuple | None = None  # tuple of residue-field polys, u^0 first

    def params(self) -> dict:
        out = {"kind": self.kind}
        for name in ("i", "t", "s"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        if self.omega is not None:
            out["omega"] = self.omega
        return out


def omega_truncation(label: IdealLabel, k: int) -> int | None:
    """Length of the unit expansion attached to a label, if any."""
    if label.kind == "mixed_one":
        return label.i - label.t
    if label.kind == "mixed_two":
        return k - label.i
    if label.kind == "two_gen_omega":
        return label.s - label.t
    return None


def validate_label(label: IdealLabel, k: int, d: int | None = None) -> None:
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
    trunc = omega_truncation(label, k)
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
    """log2 of the ideal's cardinality."""
    kind = label.kind
    if kind in ("u_pow", "mixed_one"):
        return 2 * m * d * (k - label.i)
    if kind == "u_f":
        return m * d * (k - label.s)
    if kind == "mixed_two":
        return m * d * (k - label.t)
    # two_gen, two_gen_omega
    return m * d * (2 * k - label.i - label.s)


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
# members
# ---------------------------------------------------------------------------

def ideal_generators(fd, j: int, k: int, label: IdealLabel) -> list[qt.UElem]:
    """Generators as elements of K[u]/(u^k), each a k-tuple of K-elements."""
    validate_label(label, k, fd.degree(j))
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


def pack_uelem(fd, j: int, k: int, elem: qt.UElem) -> int:
    """Bit-pack a K[u]/(u^k) element (K-coefficients of degree < 2d)."""
    bits = 2 * fd.degree(j) * fd.m
    return sum(poly_key(fd.ctx, c) << (l * bits) for l, c in enumerate(elem))


def unpack_uelem(fd, j: int, k: int, packed: int) -> qt.UElem:
    bits = 2 * fd.degree(j) * fd.m
    mask = (1 << bits) - 1
    return tuple(poly_from_key(fd.ctx, (packed >> (l * bits)) & mask)
                 for l in range(k))


def _component_monomial_maps(fd, j: int, k: int):
    """Linear maps (mult by x, by u, by the field generator) on packed bits."""
    ring = qt.chain_ring(fd, j)
    nbits = 2 * fd.degree(j) * fd.m * k
    maps = []

    def tabulate(fn):
        images = []
        for b in range(nbits):
            e = unpack_uelem(fd, j, k, 1 << b)
            images.append(pack_uelem(fd, j, k, fn(e)))
        return tuple(images)

    maps.append(tabulate(lambda e: tuple(ring.mul(c, (0, 1)) for c in e)))
    maps.append(tabulate(lambda e: (P_ZERO,) + e[:-1]))
    if fd.m > 1:
        maps.append(tabulate(lambda e: tuple(ring.mul(c, (2,)) for c in e)))
    return nbits, maps


def ideal_members(fd, j: int, k: int, label: IdealLabel) -> frozenset[int]:
    """All members, bit-packed; guarded by the 2^24 ambient cap."""
    nbits, maps = _component_monomial_maps(fd, j, k)
    if nbits > MEMBER_CAP_LOG2:
        raise TooLarge(f"component ring has 2^{nbits} elements")
    gens = [pack_uelem(fd, j, k, g) for g in ideal_generators(fd, j, k, label)]
    return span_words(map_closure(gens, maps))
