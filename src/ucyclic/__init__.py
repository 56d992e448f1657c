"""Self-dual cyclic codes over F_{2^m}[u]/(u^k) and their binary Gray images.

The ambient ring is R[x]/(x^(2n) - 1) with n odd and R = F_{2^m}[u]/(u^k), a
chain ring; x^(2n) - 1 = prod f_j(x)^2 for the distinct irreducible factors
f_j of x^n - 1, and a cyclic code (an ideal) splits CRT-fashion into one
ideal per factor.  This package represents codes by those per-component
ideal labels, enumerates and counts the self-dual and self-orthogonal ones,
computes duals and hulls, and maps k = 2 codes through the Gray map to
2-quasi-cyclic codes of length 4n over F_{2^m}, each with a block
generator matrix read off its component labels.  Everything is
cross-checked against brute-force oracles (`ucyclic.oracle`,
`ucyclic verify`) at small sizes.

Layering: gf (field/polynomial arithmetic) -> cyclotomic (factorization,
idempotents) -> quotient (component rings) -> ideals (the six-shape ideal
taxonomy) -> selfdual (Theta sets, mates, enumeration) -> duality (duals,
hulls, self-orthogonality, k = 2) and gray (Gray map, generator matrices,
weight distributions), side by side -> cli.
"""
from __future__ import annotations

from .cyclotomic import FactorData, cyclotomic_cosets, factor_xn_minus_1
from .duality import (count_selforthogonal, dual_code, enumerate_selforthogonal,
                      hull, hull_dimension, is_self_orthogonal)
from .errors import (BadDescriptor, DimensionTooLarge, MinDistOfTrivial,
                     TooLarge, UcyclicError, UnsupportedK)
from .gf import FieldCtx, default_modulus
from .gray import (GenMatrix, generator_matrix, gray_image_matrix,
                   gray_map, gray_map_packed, gram_is_zero, is_2_quasi_cyclic,
                   lee_distribution, lee_weight, min_distance,
                   weight_distribution)
from .ideals import IdealLabel, count_ideals, enumerate_ideals, ideal_size_log2
from .selfdual import (CyclicCode, ThetaSet, count_cyclic, count_selfdual,
                       enumerate_cyclic, enumerate_selfdual, family_60_30_8,
                       is_self_dual, mate_label, theta_set,
                       to_ambient_generators)

__version__ = "0.1.0"

__all__ = [
    "BadDescriptor", "CyclicCode", "DimensionTooLarge", "FactorData",
    "FieldCtx", "GenMatrix", "IdealLabel", "MinDistOfTrivial", "ThetaSet",
    "TooLarge", "UcyclicError", "UnsupportedK", "__version__",
    "count_cyclic", "count_ideals", "count_selfdual", "count_selforthogonal",
    "cyclotomic_cosets", "default_modulus", "dual_code", "enumerate_cyclic",
    "enumerate_ideals", "enumerate_selfdual", "enumerate_selforthogonal",
    "factor_xn_minus_1", "family_60_30_8", "generator_matrix", "gram_is_zero",
    "gray_image_matrix", "gray_map", "gray_map_packed", "hull",
    "hull_dimension", "ideal_size_log2", "is_2_quasi_cyclic", "is_self_dual",
    "is_self_orthogonal", "lee_distribution", "lee_weight", "mate_label",
    "min_distance", "theta_set", "to_ambient_generators",
    "weight_distribution",
]
