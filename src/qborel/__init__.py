"""Exact computations for quantum Borel algebras at generic q.

The package builds finite root systems from Cartan data, works with Weyl
group combinatorics (reduced words, inversion sets, Bruhat order), and runs
an exact kernel for the positive and non-negative parts of the quantized
enveloping algebra: PBW bases, braid symmetries, straightening relations,
coproducts and the twisting construction used to classify right coideal
subalgebras.  All arithmetic is exact over the rational function field Q(q).
"""

from .coeffs import QRat, q_binomial, q_factorial, q_integer
from .rootsys import LatticeSubgroup, RootSystem, build_root_system
from .strata import (
    CharacterData,
    ClassificationReport,
    CoidealTriple,
    Stratum,
    ThetaSet,
    character,
    classify,
    enumerate_Tw,
    enumerate_strata,
    kappa,
    kappa_inverse,
    max_admissible_lattice,
    theta_set,
    validate_triple,
)
from .weyl import (
    ReducedWord,
    WeylElt,
    bruhat_le,
    canonical_word,
    from_word,
    normalize_reflection_sequence,
    weyl_bruhat_equiv,
    weyl_group,
)

__all__ = [
    "QRat",
    "q_integer",
    "q_factorial",
    "q_binomial",
    "RootSystem",
    "LatticeSubgroup",
    "build_root_system",
    "WeylElt",
    "ReducedWord",
    "from_word",
    "canonical_word",
    "weyl_group",
    "bruhat_le",
    "weyl_bruhat_equiv",
    "normalize_reflection_sequence",
    "ThetaSet",
    "theta_set",
    "enumerate_Tw",
    "kappa",
    "kappa_inverse",
    "Stratum",
    "enumerate_strata",
    "CharacterData",
    "character",
    "max_admissible_lattice",
    "CoidealTriple",
    "validate_triple",
    "ClassificationReport",
    "classify",
]
