"""bvgraph: exact graph cochains from contractible DG Frobenius algebras.

The engine builds the same numbers two independent ways (a BV/Wick expectation
and a Feynman amplitude over graphs) and verifies every identity relating them
in exact rational arithmetic.

The top level exports the graded spaces, polynomials and the symplectic
layer.  ``forms`` (the differential-form algebra) and ``sampling`` (seeded
random inputs) serve the tests and the benchmark only: no engine module
imports them, so they load only when named.
"""
from .graded import EVEN, ODD, SuperSpace, koszul_sign, tensor_space
from .superpoly import SuperPolynomial, VectorField, divergence
from .symplectic import BilinearForm, LagrangianSubspace, SymplecticSpace

__all__ = [
    "EVEN", "ODD", "SuperSpace", "koszul_sign", "tensor_space",
    "SuperPolynomial", "VectorField", "divergence",
    "BilinearForm", "SymplecticSpace", "LagrangianSubspace",
]
