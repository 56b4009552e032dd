"""Exact symbolic computation in a q-deformed W(2,2) algebra.

The package exposes three layers:

* :mod:`qw22.laurent` -- integer Laurent polynomials in q, or in q and p.
* :mod:`qw22.algebra` -- PBW normal ordering, products, brackets, and
  numeric evaluation for the standard and two-parameter profiles.
* :mod:`qw22.hopf` -- coproduct, counit, antipode, and axiom checks on
  the standard profile.

:mod:`qw22.oscillator` gives an independent oscillator module used to
cross-check the rewrite system, :mod:`qw22.exprparse` a small expression
language, and :mod:`qw22.suites` the named verification suites behind
``qw22 check``.
"""

from .algebra import (
    GENERALIZED,
    STANDARD,
    DeformationProfile,
    Element,
    GeneratorSymbol,
    L,
    NormalWord,
    NumericElement,
    T,
    T_INV,
    UNIT_WORD,
    W,
    classical_limit,
    element_from,
    element_text,
    evaluate,
    is_normal,
    multiply,
    normalize,
    q_bracket,
    substitute_p_inverse,
)
from .errors import (
    ArithmeticBoundError,
    EvaluationDomainError,
    ParseError,
    ProfileError,
    UnsupportedInverseError,
)
from .exprparse import parse_element
from .hopf import (
    TensorElement,
    antipode,
    check_axiom,
    coproduct,
    counit,
    flip,
    power_closed_form,
    tensor_multiply,
    tensor_of,
    tensor_text,
)
from .laurent import EXPONENT_BOUND, LaurentPoly, q_identity_check, q_int
from .oscillator import (
    CLASSICAL,
    Q_DEFORMED,
    TWO_PARAM,
    ModuleVector,
    OscillatorProfile,
    apply_element,
    apply_generator,
    apply_ladder,
    apply_word,
    basis_vector,
    check_relation,
    ladder_weight,
    oracle_consistency,
    shift,
)

__version__ = "0.1.0"

__all__ = [
    "ArithmeticBoundError",
    "CLASSICAL",
    "classical_limit",
    "check_axiom",
    "check_relation",
    "antipode",
    "apply_element",
    "apply_generator",
    "apply_ladder",
    "apply_word",
    "basis_vector",
    "coproduct",
    "counit",
    "DeformationProfile",
    "Element",
    "element_from",
    "element_text",
    "EvaluationDomainError",
    "evaluate",
    "EXPONENT_BOUND",
    "flip",
    "GENERALIZED",
    "GeneratorSymbol",
    "is_normal",
    "L",
    "ladder_weight",
    "LaurentPoly",
    "ModuleVector",
    "multiply",
    "NormalWord",
    "normalize",
    "NumericElement",
    "oracle_consistency",
    "OscillatorProfile",
    "ParseError",
    "parse_element",
    "power_closed_form",
    "ProfileError",
    "Q_DEFORMED",
    "q_bracket",
    "q_identity_check",
    "q_int",
    "shift",
    "STANDARD",
    "substitute_p_inverse",
    "T",
    "T_INV",
    "TensorElement",
    "tensor_multiply",
    "tensor_of",
    "tensor_text",
    "TWO_PARAM",
    "UNIT_WORD",
    "UnsupportedInverseError",
    "W",
]
