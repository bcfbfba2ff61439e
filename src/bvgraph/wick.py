"""Chord diagrams, algebraic Gaussian expectation values and Stokes lemmas.

The Wick sum over chord diagrams *is* the definition of the Gaussian integral
here; analytic input survives only in the Berezin/moment oracle's sign rule
for negative weights.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .graded import EVEN, ODD, SuperSpace, koszul_sign
from .superpoly import SuperPolynomial, VectorField, divergence
from .symplectic import BilinearForm, SymplecticSpace, i2_of_quadratic


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@lru_cache(maxsize=None)
def chord_diagrams(k: int):
    """All perfect matchings of {0..2k-1} as tuples of (i, j) pairs, i < j,
    sorted by first point.  There are (2k-1)!! of them."""
    if k == 0:
        return ((),)
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


def chord_sign(parities, chord) -> int:
    """Koszul sign of reordering the factors into (i1, j1, i2, j2, ...)."""
    order = [p for pair in chord for p in pair]
    return koszul_sign(order, parities)


def beta_contract_indices(parities, idxs, chord, matrix) -> Fraction:
    """beta_c on a pure tensor of basis vectors given by index list `idxs`."""
    val = Fraction(1)
    for (i, j) in chord:
        entry = matrix[idxs[i]][idxs[j]]
        if not entry:  # the sign is needed only for a nonzero product
            return Fraction(0)
        val *= entry
    return chord_sign(parities, chord) * val


def beta_contract(factors, chord, form: BilinearForm) -> Fraction:
    """beta_c on a sequence of linear functions over form.space (multilinear)."""
    if any(f.max_degree() > 1 or f.min_degree() < 1 for f in factors if not f.is_zero()):
        raise ValueError("factors must be linear")
    space = form.space
    total = Fraction(0)

    def rec(slot, idxs, coeff, parities):
        nonlocal total
        if coeff == 0:
            return
        if slot == len(factors):
            total += coeff * beta_contract_indices(parities, idxs, chord, form.rows)
            return
        for key, c in factors[slot].terms.items():
            rec(slot + 1, idxs + [key[0]], coeff * c,
                parities + [space.parities[key[0]]])

    rec(0, [], Fraction(1), [])
    return total


class QuadraticWeight:
    """Even symmetric nondegenerate bilinear form driving a Gaussian expectation."""

    def __init__(self, space: SuperSpace, form: BilinearForm):
        if form.parity != EVEN or form.symmetry != "sym":
            raise ValueError("weight must be an even symmetric form")
        if not form.is_nondegenerate():
            raise ValueError("weight form is degenerate")
        self.space = space
        self.form = form
        self.inverse = form.inverse()
        self._memo = {}

    @classmethod
    def from_sigma(cls, sigma: SuperPolynomial) -> "QuadraticWeight":
        space = sigma.space
        rows = i2_of_quadratic(sigma)
        return cls(space, BilinearForm(space, rows, EVEN, "sym"))

    def sigma(self) -> SuperPolynomial:
        from .symplectic import pi2_of_form
        return pi2_of_form(self.form)

    # -- expectation ---------------------------------------------------------
    def monomial_vev(self, key) -> Fraction:
        """<y_{k1} ... y_{k_2m}>_0 by the Wick sum, evaluated recursively.

        The recursion pairs the first factor with each later one; it is the
        chord-diagram sum reassociated (asserted equal in the test suite).
        """
        if len(key) % 2:
            return Fraction(0)
        if key in self._memo:
            return self._memo[key]
        val = self._vev(tuple(key))
        self._memo[key] = val
        return val

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

    def monomial_vev_chords(self, key) -> Fraction:
        """Literal sum of beta_c over chd(k) with the inverse form."""
        if len(key) % 2:
            return Fraction(0)
        pars = [self.space.parities[i] for i in key]
        total = Fraction(0)
        for chord in chord_diagrams(len(key) // 2):
            total += beta_contract_indices(pars, key, chord, self.inverse.rows)
        return total

    def expectation(self, f: SuperPolynomial) -> Fraction:
        if f.space != self.space:
            raise ValueError("observable lives on the wrong space")
        total = Fraction(0)
        for key, val in f.terms.items():
            total += val * self.monomial_vev(key)
        return total


# ---------------------------------------------------------------------------
# Berezin / moment oracle for split-diagonal weights

def right_deriv(f: SuperPolynomial, var: int) -> SuperPolynomial:
    """Right-acting partial derivative (odd integration convention)."""
    pars = f.space.parities
    out = {}
    for key, val in f.terms.items():
        seen = set()
        for pos in range(len(key) - 1, -1, -1):
            v = key[pos]
            if v != var or v in seen:
                continue
            seen.add(v)
            odd_after = sum(1 for w in key[pos + 1:] if pars[w])
            sign = -1 if (pars[var] and odd_after % 2) else 1
            mult = key.count(v) if not pars[var] else 1
            rest = key[:pos] + key[pos + 1:]
            out[rest] = out.get(rest, Fraction(0)) + val * sign * mult
    return SuperPolynomial(f.space, out)


def berezin_integrate(f: SuperPolynomial, odd_vars) -> SuperPolynomial:
    """Iterated odd integral; the listed operators act right to left."""
    for var in reversed(list(odd_vars)):
        f = right_deriv(f, var)
    return f


class SplitWeight:
    """Weight in split-diagonal shape: diagonal even block, odd standard pairs."""

    def __init__(self, weight: QuadraticWeight):
        self.weight = weight
        space = weight.space
        rows = weight.form.rows
        n = len(space)
        evens = [i for i in range(n) if space.parities[i] == EVEN]
        odds = [i for i in range(n) if space.parities[i] == ODD]
        for i in evens:
            for j in evens:
                if i != j and rows[i][j] != 0:
                    raise ValueError("even block is not diagonal")
            if rows[i][i] == 0:
                raise ValueError("degenerate even entry")
        pairs = []
        used = set()
        for a in odds:
            if a in used:
                continue
            partners = [b for b in odds if b not in used and b != a and rows[a][b] != 0]
            if len(partners) != 1:
                raise ValueError("odd block is not in standard pairs")
            b = partners[0]
            used.update((a, b))
            pairs.append((a, b) if a < b else (b, a))
        self.evens = evens
        self.pairs = pairs
        self.block_of = {}
        for r, i in enumerate(evens):
            self.block_of[i] = ("even", r)
        for r, (a, b) in enumerate(pairs):
            self.block_of[a] = ("odd", r)
            self.block_of[b] = ("odd", r)
        self.pair_vevs = [self._pair_vev_table(a, b, rows[a][b]) for (a, b) in pairs]

    def _pair_vev_table(self, a, b, c):
        """Literal iterated-integral vevs on one odd pair with sigma = c xi xi'."""
        sp = SuperSpace(("u", "v"), (ODD, ODD))
        u = SuperPolynomial.variable(sp, 0)
        v = SuperPolynomial.variable(sp, 1)
        expw = SuperPolynomial.scalar(sp, 1) - c * (u * v)  # e^{-c u v}
        denom = berezin_integrate(expw, (0, 1)).terms.get((), Fraction(0))
        if denom == 0:
            raise ValueError("degenerate odd pair")
        table = {}
        for mono in ((), (0,), (1,), (0, 1)):
            num = berezin_integrate(SuperPolynomial.monomial(sp, mono, 1) * expw, (0, 1))
            table[mono] = num.terms.get((), Fraction(0)) / denom
        return table

    def monomial_vev(self, key) -> Fraction:
        space = self.weight.space
        pars = [space.parities[i] for i in key]
        # stable-group the factors block by block, tracking the Koszul sign
        tagged = sorted(range(len(key)),
                        key=lambda p: (self.block_of[key[p]], key[p]))
        sign = koszul_sign(tagged, pars)
        value = Fraction(sign)
        groups = {}
        for p in tagged:
            groups.setdefault(self.block_of[key[p]], []).append(key[p])
        for (kind, r), vars_ in groups.items():
            if kind == "even":
                i = self.evens[r]
                deg = len(vars_)
                if deg % 2:
                    return Fraction(0)
                eps = self.weight.form.rows[i][i]
                value *= Fraction(double_factorial(deg - 1)) / (eps ** (deg // 2))
            else:
                a, b = self.pairs[r]
                mono = tuple(0 if v == a else 1 for v in vars_)
                if len(set(vars_)) != len(vars_):
                    return Fraction(0)
                value *= self.pair_vevs[r][tuple(sorted(mono))]
            if value == 0:
                return value
        return value

    def expectation(self, f: SuperPolynomial) -> Fraction:
        total = Fraction(0)
        for key, val in f.terms.items():
            total += val * self.monomial_vev(key)
        return total


def berezin_oracle(f: SuperPolynomial, weight: QuadraticWeight) -> Fraction:
    """Moment/Berezin value of <f>_0; requires a split-diagonal weight."""
    return SplitWeight(weight).expectation(f)


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
    """The bracket polynomial R with Delta(q e^{-sigma}) = R e^{-sigma}."""
    lap = symp.odd_laplacian
    br = symp.antibracket
    master = br(sigma, sigma) / 2 - lap(sigma)
    return SuperPolynomial.sum(symp.space, (
        term for part in q.parity_components() if not part.is_zero()
        for term in (lap(part), -br(part, sigma),
                     (-1 if part.parity() else 1) * (part * master))))


def bv_stokes_value(q: SuperPolynomial, sigma: SuperPolynomial,
                    symp: SymplecticSpace, lagrangian) -> Fraction:
    """Normalized integral over the gauge of Delta(q e^{-sigma}); exactly 0."""
    from .symplectic import restrict_polynomial
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
    lhs_poly = SuperPolynomial.sum(space, (
        term for part in f.parity_components() if not part.is_zero()
        for term in (eta(part), (1 if (eta.parity and part.parity()) else -1)
                     * (part * eta(sigma0)))))
    lhs = flat_integral(lhs_poly)
    rhs = -flat_integral(divergence(eta) * f)
    return lhs, rhs
