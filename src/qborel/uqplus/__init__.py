"""Exact kernel for U^+ and U^{>=0}: normal forms, PBW bases, Hopf structure."""

from .free import FreeElt, NFContext, kostant_dim, serre_relation, word_weight
from .full import UAlgebra, UElt, lusztig_T, root_vectors
from .hopf import (
    TensorElt,
    check_coassociativity,
    check_counit_law,
    check_graded_compatibility,
    coideal_check,
    coproduct,
    counit,
    psi_apply,
    span_is_Q_graded,
    twist_generators,
)
from .pbw import (
    PBWVec,
    char_eval,
    char_well_defined,
    enumerate_polynomial_ideals,
    ls_relation,
    pbw_contract,
    pbw_data,
    pbw_expand,
    quotient_is_commutative_polynomial,
)

__all__ = [
    "FreeElt",
    "NFContext",
    "word_weight",
    "serre_relation",
    "kostant_dim",
    "UElt",
    "UAlgebra",
    "lusztig_T",
    "root_vectors",
    "PBWVec",
    "pbw_data",
    "pbw_expand",
    "pbw_contract",
    "ls_relation",
    "char_eval",
    "char_well_defined",
    "quotient_is_commutative_polynomial",
    "enumerate_polynomial_ideals",
    "TensorElt",
    "coproduct",
    "counit",
    "check_counit_law",
    "check_coassociativity",
    "check_graded_compatibility",
    "psi_apply",
    "twist_generators",
    "coideal_check",
    "span_is_Q_graded",
]
