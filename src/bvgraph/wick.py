"""Chord diagrams, algebraic Gaussian expectation values and Stokes lemmas.

The Wick sum over chord diagrams *is* the definition of the Gaussian integral
here; analytic input survives only in the Berezin integrals and in the test
suite's moment oracle, with its sign rule for negative weights.
"""
from __future__ import annotations

from fractions import Fraction

from .graded import EVEN, ODD, SuperSpace, koszul_sign, memoised
from .superpoly import SuperPolynomial, VectorField, divergence
from .symplectic import (BilinearForm, SymplecticSpace, i2_of_quadratic,
                         pi2_of_form, restrict_polynomial)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# Bound the lists of ``chord_diagrams`` by k and each weight's ``monomial_vev``
# by key, each cleared when full; a commute benchmark pass makes 1,305 calls.
_CHORD_DIAGRAMS_SIZE = 16
_chord_diagrams = {}
_VEV_SIZE = 1 << 16


def chord_diagrams(k: int):
    """All perfect matchings of {0..2k-1} as tuples of (i, j) pairs, i < j,
    sorted by first point.  There are (2k-1)!! of them, listed once per k."""
    def compute():
        out = []

        def rec(points, acc):
            if not points:
                out.append(tuple(acc))
                return
            first = points[0]
            for idx in range(1, len(points)):
                pair = (first, points[idx])
                rest = points[1:idx] + points[idx + 1:]
                rec(rest, acc + [pair])

        rec(tuple(range(2 * k)), [])
        return tuple(out)
    return memoised(_chord_diagrams, _CHORD_DIAGRAMS_SIZE, k, compute)


def chord_sign(parities, chord) -> int:
    """Koszul sign of reordering the factors into (i1, j1, i2, j2, ...)."""
    order = [p for pair in chord for p in pair]
    return koszul_sign(order, parities)


def live_chords(parities, idxs, matrix):
    """Yield (chord, beta_c) for the chord diagrams on the factors ``idxs``
    whose contraction beta_c = chord_sign * prod_{(i, j) in c}
    matrix[idxs[i]][idxs[j]] is nonzero, in the order of ``chord_diagrams``.

    Like ``chord_diagrams`` it pairs the first open point with each later
    point in turn, but only with a point whose matrix entry is nonzero, and
    carries the running product; the chord sign is taken at a leaf.  A pair
    with a zero entry makes the product of every diagram containing it 0, so
    the diagrams skipped are exactly those with beta_c = 0, and the order of
    the rest is unchanged.

    The running product starts from the int 1, so on a matrix of ints it
    stays a plain int.  A caller that scaled its matrix by D to make it so
    divides each beta_c by D^|c|, |c| = len(idxs) / 2 the number of chords:
    each diagram multiplies exactly |c| entries.
    """
    if len(idxs) % 2:
        return
    chord = []

    def rec(points, prod):
        if not points:
            done = tuple(chord)
            yield done, chord_sign(parities, done) * prod
            return
        row = matrix[idxs[points[0]]]
        for pos in range(1, len(points)):
            entry = row[idxs[points[pos]]]
            if entry:
                chord.append((points[0], points[pos]))
                yield from rec(points[1:pos] + points[pos + 1:], prod * entry)
                chord.pop()

    yield from rec(tuple(range(len(idxs))), 1)


class QuadraticWeight:
    """Even symmetric nondegenerate bilinear form driving a Gaussian expectation."""

    def __init__(self, form: BilinearForm):
        if form.parity != EVEN or form.symmetry != "sym":
            raise ValueError("weight must be an even symmetric form")
        try:
            self.inverse = form.inverse()
        except ValueError:
            raise ValueError("weight form is degenerate") from None
        self.space = form.space
        self.form = form
        self._memo = {}

    @classmethod
    def from_sigma(cls, sigma: SuperPolynomial) -> "QuadraticWeight":
        return cls(BilinearForm(sigma.space, i2_of_quadratic(sigma), EVEN, "sym"))

    def sigma(self) -> SuperPolynomial:
        return pi2_of_form(self.form)

    # -- expectation ---------------------------------------------------------
    def monomial_vev(self, key) -> Fraction:
        """<y_{k1} ... y_{k_2m}>_0 by the Wick sum, evaluated recursively.

        The recursion pairs the first factor with each later one; it is the
        chord-diagram sum reassociated (asserted equal in the test suite).
        """
        if len(key) % 2:
            return Fraction(0)
        return memoised(self._memo, _VEV_SIZE, key, lambda: self._vev(tuple(key)))

    def _vev(self, key) -> Fraction:
        if not key:
            return Fraction(1)
        pars = self.space.parities
        inv = self.inverse.rows
        first = key[0]
        total = Fraction(0)
        sign = 1
        for j in range(1, len(key)):
            entry = inv[first][key[j]]
            if entry:
                rest = key[1:j] + key[j + 1:]
                total += sign * entry * self.monomial_vev(rest)
            if pars[key[j]] and pars[first]:
                sign = -sign
        return total

    def expectation(self, f: SuperPolynomial) -> Fraction:
        if f.space != self.space:
            raise ValueError("observable lives on the wrong space")
        total = Fraction(0)
        for key, val in f.terms.items():
            total += val * self.monomial_vev(key)
        return total


# ---------------------------------------------------------------------------
# Berezin integration

def right_deriv(f: SuperPolynomial, var: int) -> SuperPolynomial:
    """Right-acting partial derivative (odd integration convention): for an odd
    var, the grading involution of the left one, (-1)^{|m| - 1} on a monomial m."""
    d = f.deriv_left(var)
    return d.grading_involution() if f.space.parities[var] else d


def berezin_integrate(f: SuperPolynomial, odd_vars) -> SuperPolynomial:
    """Iterated odd integral; the listed operators act right to left."""
    for var in reversed(list(odd_vars)):
        f = right_deriv(f, var)
    return f


# ---------------------------------------------------------------------------
# Stokes lemmas

def gaussian_stokes_even(p: SuperPolynomial, var: int,
                         weight: QuadraticWeight) -> Fraction:
    """integral of d/dx_var [p e^{-sigma}]; must be exactly 0."""
    sigma = weight.sigma()
    integrand = p.deriv_left(var) - p * sigma.deriv_left(var)
    return weight.expectation(integrand)


def laplacian_exponential_expansion(q: SuperPolynomial, sigma: SuperPolynomial,
                                    symp: SymplecticSpace) -> SuperPolynomial:
    """The bracket polynomial R with Delta(q e^{-sigma}) = R e^{-sigma}:

        R = Delta q - {q, sigma} + (-1)^{|q|} q ({sigma, sigma}/2 - Delta sigma),

    the sign (-1)^{|q|} taken termwise, as the grading involution of q.
    """
    lap = symp.odd_laplacian
    br = symp.antibracket
    master = br(sigma, sigma) / 2 - lap(sigma)
    return SuperPolynomial.sum(symp.space, (lap(q), -br(q, sigma),
                                            q.grading_involution() * master))


def bv_stokes_value(q: SuperPolynomial, sigma: SuperPolynomial,
                    symp: SymplecticSpace, lagrangian) -> Fraction:
    """Normalized integral over the gauge of Delta(q e^{-sigma}); exactly 0."""
    r = laplacian_exponential_expansion(q, sigma, symp)
    sub = lagrangian.subspace()
    sigma_l = restrict_polynomial(sigma, lagrangian.vectors, sub)
    weight = QuadraticWeight.from_sigma(sigma_l)
    return weight.expectation(restrict_polynomial(r, lagrangian.vectors, sub))


# ---------------------------------------------------------------------------
# Infinitesimal Berezin change of variables

def standard_even_weight(space: SuperSpace) -> SuperPolynomial:
    """sigma_0 = 1/2 sum x_i^2 over the even variables."""
    return SuperPolynomial.sum(space, (
        SuperPolynomial.monomial(space, (i, i), Fraction(1, 2))
        for i, p in enumerate(space.parities) if p == EVEN))


def flat_integral(f: SuperPolynomial) -> Fraction:
    """integral of f e^{-1/2 sum x^2} over R^{n|m}, divided by (2 pi)^{n/2}.

    Odd variables integrate by right derivatives (top coefficient), even
    variables by the unit Gaussian moments.
    """
    space = f.space
    odds = [i for i in range(len(space)) if space.parities[i] == ODD]
    g = berezin_integrate(f, odds)
    total = Fraction(0)
    for key, val in g.terms.items():
        contrib = val
        for i in set(key):
            deg = key.count(i)
            if deg % 2:
                contrib = Fraction(0)
                break
            contrib *= double_factorial(deg - 1)
        total += contrib
    return total


def berezin_change_of_variables(eta: VectorField, f: SuperPolynomial):
    """Both sides of: integral eta(g) = -integral nabla(eta) g, g = f e^{-sigma0}.

    Returns (lhs, rhs) as exact rationals (they must be equal).
    """
    space = f.space
    sigma0 = standard_even_weight(space)
    if eta.parity is None:
        raise ValueError("field must be parity homogeneous")
    lhs = flat_integral(eta(f) - (f.grading_involution() if eta.parity else f) * eta(sigma0))
    rhs = -flat_integral(divergence(eta) * f)
    return lhs, rhs
