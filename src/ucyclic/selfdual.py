"""Self-dual cyclic codes of length 2n over R = F_{2^m}[u]/(u^k), n odd.

A cyclic code of length 2n over R decomposes uniquely across the CRT
components of F_{2^m}[x]/(x^(2n)-1): one ideal label per irreducible factor
of x^n-1 (see :mod:`ucyclic.ideals`).  :class:`CyclicCode` stores that label
vector.  Self-duality is a per-component condition:

* self-reciprocal component: the label must be its own dual, which pins it
  to a class of ``ideals.label_classes`` with a + b = k, its unit
  parameters ranging over a Theta set — the units fixed by
  ``w == delta * x^(-d) * w(x^(-1))``;
* reciprocal pair: the label on the partner component is a deterministic
  function (:func:`mate_label`) of the label on the representative.

``enumerate_selfdual`` walks the Cartesian product of those per-component
lists; ``count_selfdual`` is the closed-form product.  The literal per-k
tables that regenerate the same codes independently live with the tests
(``tests/literal_oracles.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import quotient as qt
from .cyclotomic import FactorData, factor_data, factor_degrees
from .errors import BadDescriptor, UnsupportedK
from .gf import (P_ZERO, Poly, poly_add, poly_from_key, poly_key, poly_mulmod,
                 poly_scale)
from .ideals import (IdealLabel, canonical_label, count_ideals,
                     enumerate_ideals, exponents, ideal_generators,
                     ideal_size_log2, label_classes, validate_label)
from .oracle import span_words

__all__ = [
    "CyclicCode", "ThetaSet", "theta_set", "mate_label", "is_self_dual",
    "enumerate_selfdual", "count_selfdual", "enumerate_cyclic", "count_cyclic",
    "family_60_30_8", "to_ambient_generators",
]


# ---------------------------------------------------------------------------
# codes as per-component label vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicCode:
    """A cyclic code of length 2n over F_{2^m}[u]/(u^k) in CRT-label form.

    ``components[j]`` is the ideal label at factor index j (all r factors,
    pair partners included).  Equality and hashing use (k, components) only;
    two codes built from the same FactorData are equal iff they are the same
    set of codewords.

    ``CyclicCode(...)`` checks every label; codes that this package builds
    from labels it made or already holds come from :meth:`_trusted`.
    """

    fd: FactorData = field(compare=False)
    k: int = 2
    components: tuple[IdealLabel, ...] = ()

    def __post_init__(self):
        if len(self.components) != self.fd.r:
            raise BadDescriptor(
                f"need {self.fd.r} component labels, got {len(self.components)}")
        for j, label in enumerate(self.components):
            validate_label(label, self.k, self.fd.degree(j))

    @classmethod
    def _trusted(cls, fd: FactorData, k: int,
                 components: tuple[IdealLabel, ...]) -> "CyclicCode":
        """A code from labels known to be canonical, built unchecked."""
        code = object.__new__(cls)
        object.__setattr__(code, "fd", fd)
        object.__setattr__(code, "k", k)
        object.__setattr__(code, "components", components)
        return code

    @property
    def n(self) -> int:
        return self.fd.n

    @property
    def m(self) -> int:
        return self.fd.m

    def size_log2(self) -> int:
        """log2 of the number of codewords."""
        return sum(ideal_size_log2(lab, self.fd.m, self.fd.degree(j), self.k)
                   for j, lab in enumerate(self.components))

    def dim(self) -> int:
        """Dimension of the Gray image over F_{2^m} (= size_log2 / m)."""
        assert self.size_log2() % self.m == 0
        return self.size_log2() // self.m


# ---------------------------------------------------------------------------
# Theta sets: units fixed by the reciprocal-transport involution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaSet:
    """Units w of F_j[u]/(u^s) with w == delta_j x^(-d_j) w(x^(-1))."""

    j: int
    s: int
    members: tuple[qt.UElem, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def theta_level_one(fd: FactorData, j: int) -> tuple[Poly, ...]:
    """The length-1 Theta set of a self-reciprocal component, sorted by key.

    With d = deg f_j, h = d // 2 and q = 2^(m d), the set is
    x^(-h) * F_sqrt(q)^*.  For d > 1 the one involution of
    Gal(F_j / F_{2^m}), a -> a^sqrt(q), sends the root x to x^(-1), so it is
    the hat map a(x) -> a(x^(-1)) and its fixed field F_sqrt(q) is spanned
    over F_{2^m} by 1 and the x^i + x^(-i), 0 < i < h.  Times x^(-h) that
    is the span of x^(-h) and the x^(-(h-i)) + x^(-(h+i)), entries and sums
    of entries of ``fd.hat_basis(j)``; taken over F_2 with the y^s
    multiples it is every member and 0.  For component 0 (d = 1, h = 0) the
    span of 1 gives every nonzero scalar.
    """
    if not 0 <= j < fd.num_selfrec:
        raise ValueError(f"component {j} is not self-reciprocal")
    ctx, hb = fd.ctx, fd.hat_basis(j)
    h = fd.degree(j) // 2
    span = [hb[h]] + [poly_add(hb[h - i], hb[h + i]) for i in range(1, h)]
    keys = span_words(poly_key(ctx, poly_scale(ctx, b, 1 << s))
                      for b in span for s in range(ctx.m))
    return tuple(poly_from_key(ctx, key) for key in sorted(keys)[1:])


def theta_set(fd: FactorData, j: int, s: int) -> ThetaSet:
    """Theta_{j,s}: the unit parameters of self-dual component ideals.

    Component 0: all units of F_{2^m}[u]/(u^s).  Components 1..num_selfrec-1:
    u-expansions whose constant coefficient lies in the length-1 set and the
    rest in {0} union that set.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if j == 0:
        members = tuple(qt.u_units(qt.field_ring(fd, 0), s))
    else:
        lvl1 = theta_level_one(fd, j)
        rest = (P_ZERO,) + lvl1
        members = tuple((a0,) + tail for a0 in lvl1
                        for tail in itertools.product(rest, repeat=s - 1))
    return ThetaSet(j, s, members)


# ---------------------------------------------------------------------------
# the dual-partner label (annihilator + reciprocal transport)
# ---------------------------------------------------------------------------

def mate_label(fd: FactorData, j: int, label: IdealLabel, k: int) -> IdealLabel:
    """Label of the dual ideal, living on component ``fd.mate(j)``.

    For a pair representative j this is the unique partner label making the
    two components jointly self-dual; for self-reciprocal j it is the dual
    ideal of the same component (unit parameters transported by
    w -> delta * x^(-d) * w(x^(-1))).  The map is an involution.
    """
    validate_label(label, k, fd.degree(j))
    return _mate_label(fd, j, label, k)


def _mate_label(fd: FactorData, j: int, label: IdealLabel,
                k: int) -> IdealLabel:
    """:func:`mate_label` for a label already known to be canonical, derived
    once per FactorData."""
    return fd._once("mate_label", (j, label, k),
                    lambda: _derive_mate_label(fd, j, label, k))


def _derive_mate_label(fd: FactorData, j: int, label: IdealLabel,
                       k: int) -> IdealLabel:
    """(u^a + u^t f w, u^b f) -> (u^(k-b) + u^(t+k-a-b) f w', u^(k-a) f)."""
    a, b = exponents(label, k)
    t = label.t
    if t is None:
        return canonical_label(k, k - b, k - a)
    return canonical_label(k, k - b, k - a, t + k - a - b,
                           qt.omega_prime(fd, j, label.omega))


def is_self_dual(code: CyclicCode) -> bool:
    """Componentwise self-duality test (any k)."""
    fd, k = code.fd, code.k
    for j in fd.component_indices():
        label = code.components[j]
        if code.components[fd.mate(j)] != _mate_label(fd, j, label, k):
            return False
    return True


# ---------------------------------------------------------------------------
# per-component self-dual lists (general k)
# ---------------------------------------------------------------------------

def selfdual_component_labels(fd: FactorData, j: int, k: int):
    """Self-dual ideal labels for self-reciprocal component j, general k.

    The mate of a class (a, b) is (k - b, k - a), so the self-dual classes
    are those of ``ideals.label_classes`` with a + b = k, every w running
    over the Theta set of length b - t.  They come in table order, but those
    with 0 < b < a grouped by i: for even k, (u^(k/2)); (f);
    (u^(k/2)+u^t f w); then for each i > k/2, (u^i+f w), (u^i, u^(k-i) f)
    and (u^i+u^t f w, u^(k-i) f).  Odd k has no u^(k/2) shapes.
    """
    classes = sorted((c for c in label_classes(k) if c.a + c.b == k),
                     key=lambda c: c.a if 0 < c.b < c.a else 0)
    theta = {s: theta_set(fd, j, s).members for s in range(1, k // 2 + 1)}
    for c in classes:
        for w in (None,) if c.t is None else theta[c.b - c.t]:
            yield IdealLabel(*c[:4], w)


def _build_code(fd: FactorData, k: int, choice) -> CyclicCode:
    """The code taking one entry from each per-component list: a label per
    self-reciprocal component, then a (label, mate label) tuple per pair
    representative j, the mate label going to component ``fd.mate(j)``."""
    lam = fd.num_selfrec
    return CyclicCode._trusted(fd, k,
                               sum(zip(*choice[lam:]), tuple(choice[:lam])))


def _selfdual_lists(fd: FactorData, k: int) -> list[list]:
    """The per-component lists of the self-dual codes (see _build_code)."""
    return [list(selfdual_component_labels(fd, j, k)) if j < fd.num_selfrec
            else [(lab, _mate_label(fd, j, lab, k))
                  for lab in enumerate_ideals(fd, j, k)]
            for j in fd.component_indices()]


def _check_k(k: int) -> None:
    """UnsupportedK unless k >= 2, the least k with self-dual codes."""
    if k < 2:
        raise UnsupportedK("self-duality needs k >= 2")


def enumerate_selfdual(n: int, m: int, k: int,
                       fd: FactorData | None = None,
                       modulus: int | None = None):
    """All distinct self-dual cyclic codes of length 2n over F_{2^m}[u]/(u^k).

    Streaming, in ``itertools.product`` order over the per-component lists;
    the number of codes is ``count_selfdual(n, m, k)``.
    """
    _check_k(k)
    fd = factor_data(n, m, fd, modulus)
    return (_build_code(fd, k, choice)
            for choice in itertools.product(*_selfdual_lists(fd, k)))


def count_selfdual(n: int, m: int, k: int,
                   fd: FactorData | None = None,
                   modulus: int | None = None) -> int:
    """Number of self-dual cyclic codes of length 2n over F_{2^m}[u]/(u^k)."""
    _check_k(k)
    selfrec, pairs = factor_degrees(n, m, fd, modulus)
    total = sum(1 << (m * s) for s in range(k // 2 + 1))
    for d in selfrec:
        total *= sum(1 << (d * m * s // 2) for s in range(k // 2 + 1))
    for d in pairs:
        total *= count_ideals(1 << (d * m), k)
    return total


# ---------------------------------------------------------------------------
# all cyclic codes (no duality constraint)
# ---------------------------------------------------------------------------

def enumerate_cyclic(n: int, m: int, k: int,
                     fd: FactorData | None = None,
                     modulus: int | None = None):
    """Every cyclic code of length 2n over F_{2^m}[u]/(u^k), streaming."""
    fd = factor_data(n, m, fd, modulus)
    per_factor = [list(enumerate_ideals(fd, j, k)) for j in range(fd.r)]
    return (CyclicCode._trusted(fd, k, combo)
            for combo in itertools.product(*per_factor))


def count_cyclic(n: int, m: int, k: int,
                 fd: FactorData | None = None,
                 modulus: int | None = None) -> int:
    selfrec, pairs = factor_degrees(n, m, fd, modulus)
    total = 1
    for d in [1] + selfrec + pairs + pairs:
        total *= count_ideals(1 << (d * m), k)
    return total


# ---------------------------------------------------------------------------
# the designated [60, 30, 8] family (n=15, m=1, k=2)
# ---------------------------------------------------------------------------

def family_60_30_8(fd: FactorData | None = None) -> list[CyclicCode]:
    """The 48 self-dual codes of length 30 over F_2[u]/(u^2) whose Gray
    images are [60, 30, 8] binary codes.

    Component indices for n=15, m=1: 0 -> x+1, 1 -> x^2+x+1,
    2 -> x^4+x^3+x^2+x+1, 3/4 -> the reciprocal pair x^4+x+1, x^4+x^3+1.
    """
    fd = factor_data(15, 1, fd)
    u = IdealLabel("u_pow", i=1)
    f = IdealLabel("u_f", s=0)

    def mixed(w):
        return IdealLabel("mixed_one", i=1, t=0, omega=(w,))

    theta3 = [w[0] for w in theta_set(fd, 2, 1).members]    # 3 units
    x3 = (0, 0, 0, 1)
    x3x1 = (1, 1, 0, 1)
    assert x3 in theta3 and x3x1 in theta3
    c1_c3 = ([(u, c3) for c3 in [f] + [mixed(w) for w in theta3]]
             + [(f, c3) for c3 in [u] + [mixed(w) for w in theta3]]
             + [(mixed((1,)), c3) for c3 in
                [u, f, mixed(x3), mixed(x3x1)]])
    c2_choices = [u, mixed(theta_set(fd, 1, 1).members[0][0])]
    pair_choices = [(IdealLabel("u_pow", i=0), IdealLabel("u_pow", i=2)),
                    (IdealLabel("u_pow", i=2), IdealLabel("u_pow", i=0))]
    out = []
    for (c1, c3) in c1_c3:
        for c2 in c2_choices:
            for (c4, c5) in pair_choices:
                out.append(CyclicCode._trusted(fd, 2, (c1, c2, c3, c4, c5)))
    assert len(out) == 48
    return out


# ---------------------------------------------------------------------------
# bridge to explicit vectors
# ---------------------------------------------------------------------------

def to_ambient_generators(code: CyclicCode) -> list[int]:
    """Bit-packed generators of the code inside R^(2n).

    Each component generator g (an element of K_j[u]/(u^k)) is lifted to
    sum_l u^l * (idempotent_j * g_l) mod x^(2n)-1 and packed with the oracle
    bit layout ((coord*k + slot)*m + bit); the lift of each (component,
    label) is derived once per FactorData.
    """
    fd, k = code.fd, code.k
    return [g for j, label in enumerate(code.components)
            for g in fd._once("ambient", (j, label, k),
                              lambda: _lift_generators(fd, j, label, k))]


def _lift_generators(fd: FactorData, j: int, label: IdealLabel,
                     k: int) -> tuple[int, ...]:
    """The packed lifts of the generators of ``label`` at component j."""
    m, mod, eps = fd.m, fd.modulus_2n(), fd.idempotents[j]
    return tuple(sum(val << ((c * k + l) * m) for l, coeff in enumerate(g)
                     for c, val in enumerate(
                         poly_mulmod(fd.ctx, eps, coeff, mod)))
                 for g in ideal_generators(fd, j, k, label))
