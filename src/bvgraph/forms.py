"""Polynomial differential forms, de Rham differential, contraction, Lie derivative.

Forms on W are polynomials over the doubled variable set {y_i} + {dy_i} with
parity(dy_i) = parity(y_i) + 1; the Omega^1 relation then holds automatically
and one polynomial engine serves functions and forms alike.
"""
from __future__ import annotations

from fractions import Fraction

from .graded import ODD, SuperSpace
from .superpoly import SuperPolynomial, VectorField, apply_derivation


class FormContext:
    """Form algebra Omega(W) for a base superspace W."""

    def __init__(self, base: SuperSpace):
        self.base = base
        n = len(base)
        names = list(base.names) + ["d" + nm for nm in base.names]
        parities = list(base.parities) + [(p + 1) % 2 for p in base.parities]
        self.space = SuperSpace(names, parities)
        self.n = n

    # -- embeddings ---------------------------------------------------------
    def inject(self, f: SuperPolynomial) -> SuperPolynomial:
        if f.space != self.base:
            raise ValueError("polynomial not over the base space")
        return SuperPolynomial(self.space, dict(f.terms))

    def project_function(self, w: SuperPolynomial) -> SuperPolynomial:
        """Degree-0 part, as a polynomial on the base space."""
        out = {k: v for k, v in w.terms.items() if all(i < self.n for i in k)}
        return SuperPolynomial(self.base, out)

    def dy(self, i: int) -> SuperPolynomial:
        return SuperPolynomial.variable(self.space, self.n + i)

    def y(self, i: int) -> SuperPolynomial:
        return SuperPolynomial.variable(self.space, i)

    def form_degree(self, key) -> int:
        return sum(1 for i in key if i >= self.n)

    def is_constant_form(self, w: SuperPolynomial) -> bool:
        return all(all(i >= self.n for i in k) for k in w.terms)

    # -- the three operators --------------------------------------------------
    def d(self, w: SuperPolynomial) -> SuperPolynomial:
        """De Rham differential: odd derivation, d(y)=dy, d(dy)=0."""
        imgs = [self.dy(i) for i in range(self.n)]
        imgs += [SuperPolynomial.zero(self.space) for _ in range(self.n)]
        return apply_derivation(self.space, imgs, w)

    def contract(self, eta: VectorField, w: SuperPolynomial) -> SuperPolynomial:
        """i_eta: derivation with i_eta(y)=0, i_eta(dy)=eta(y)."""
        self._check_field(eta)
        imgs = [SuperPolynomial.zero(self.space) for _ in range(self.n)]
        imgs += [self.inject(eta.images[i]) for i in range(self.n)]
        return apply_derivation(self.space, imgs, w)

    def lie(self, eta: VectorField, w: SuperPolynomial) -> SuperPolynomial:
        """L_eta: derivation with L(y)=eta(y), L(dy)=(-1)^{|eta|} d(eta(y))."""
        self._check_field(eta)
        sgn = -1 if eta.parity == ODD else 1
        imgs = [self.inject(eta.images[i]) for i in range(self.n)]
        imgs += [sgn * self.d(self.inject(eta.images[i])) for i in range(self.n)]
        return apply_derivation(self.space, imgs, w)

    def _check_field(self, eta: VectorField):
        if eta.space != self.base:
            raise ValueError("field not over the base space")
        if eta.parity is None:
            raise ValueError("field must be parity homogeneous")

    # -- 1-form plumbing ------------------------------------------------------
    def one_form_coefficients(self, w: SuperPolynomial):
        """Write a 1-form as sum_v c_v * dy_v; returns the list [c_v] on the base.

        Canonical monomial order puts the single d-generator last, so the
        coefficient polynomials read off without extra signs, and each
        monomial of w gives its own term of one coefficient.
        """
        coeffs = [{} for _ in range(self.n)]
        for key, val in w.terms.items():
            dpart = [i for i in key if i >= self.n]
            if len(dpart) != 1:
                raise ValueError("not a 1-form")
            v = dpart[0] - self.n
            ykey = tuple(i for i in key if i < self.n)
            if key != ykey + (dpart[0],):
                raise AssertionError("monomial not in canonical y..dy order")
            coeffs[v][ykey] = val
        return [SuperPolynomial(self.base, c) for c in coeffs]

    def one_form(self, coeffs) -> SuperPolynomial:
        return SuperPolynomial.sum(
            self.space, (self.inject(c) * self.dy(v) for v, c in enumerate(coeffs)))

    def euler_field(self) -> VectorField:
        imgs = [SuperPolynomial.variable(self.base, i) for i in range(self.n)]
        return VectorField(self.base, imgs)

    def poincare_integrate(self, lam: SuperPolynomial) -> SuperPolynomial:
        """Solve d(h) = lam for a closed 1-form lam; h has no constant term.

        Uses L_E = i_E d + d i_E degreewise: h_k = i_E(lam_k) / (k+1) where k is
        the coefficient polynomial degree.
        """
        if not self.d(lam).is_zero():
            raise ValueError("1-form is not closed")
        e = self.euler_field()
        h = SuperPolynomial.sum(self.base, (
            self.project_function(
                self.contract(e, SuperPolynomial(self.space, {key: val})))
            * Fraction(1, len(key) - self.form_degree(key) + 1)
            for key, val in lam.terms.items()))
        if not (self.d(self.inject(h)) - lam).is_zero():
            raise AssertionError("Poincare integration failed to invert d")
        return h
