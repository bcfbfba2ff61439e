"""bvgraph: exact graph cochains from contractible DG Frobenius algebras.

The engine builds the same numbers two independent ways (a BV/Wick expectation
and a Feynman amplitude over graphs) and verifies every identity relating them
in exact rational arithmetic.
"""
from .graded import EVEN, ODD, SuperSpace, koszul_sign, tensor_space
from .superpoly import SuperPolynomial, VectorField, divergence
from .forms import FormContext
from .symplectic import (BilinearForm, LagrangianSubspace, SymplecticSpace,
                         canonical_lagrangian, duality_map,
                         lagrangian_from_generating_function, upsilon)

__all__ = [
    "EVEN", "ODD", "SuperSpace", "koszul_sign", "tensor_space",
    "SuperPolynomial", "VectorField", "divergence",
    "FormContext", "BilinearForm", "SymplecticSpace", "LagrangianSubspace",
    "canonical_lagrangian", "lagrangian_from_generating_function",
    "duality_map", "upsilon",
]
