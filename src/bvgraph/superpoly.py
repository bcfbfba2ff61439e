"""Polynomial superfunctions and graded vector fields.

Monomials are tuples of variable indices sorted ascending; odd variables never
repeat (their square is zero) and the Koszul sign of every reordering is folded
into the coefficient, so equality of polynomials is plain dict equality.

Polynomials are summed only through ``SuperPolynomial.sum``, the polynomial
case of ``graded.sparse_sum``: it adds the terms of all its parts into one
dict and drops zeros once.  ``+`` and ``-`` are its two-part cases; an
accumulation passes its parts as a generator rather than folding
``out = out + part``, which copies and re-filters the whole running sum at
each step.  Products and derivatives sum their terms through ``sparse_sum``
as well.

The product of two polynomials runs over integers.  Each factor's
coefficients are scaled by the lcm D of their denominators
(``graded.integer_terms``), the signed products of the scaled numerators
are added as plain ints for each merged key, and each sum n is divided once,
as the Fraction n / (D_1 D_2).  That is exact: every term pair contributes
one coefficient of each factor, so every summand carries exactly the scale
D_1 D_2.  The values and the key order are those of the term-by-term
Fraction product, which costs a Fraction product and a Fraction sum (each a
gcd) per term pair instead.

``substitute``, the graded algebra map, is that product applied factor by
factor to each term, the terms' images summed by ``SuperPolynomial.sum``.

Odd partial derivatives act from the LEFT throughout the package; every
downstream sign (odd Laplacian values, divergences) inherits this single
convention, defined once by ``left_partials``: ``SuperPolynomial.deriv_left``
reads it, and ``divergence`` is derived from that through the grading
involution.

Derivations and vector fields take no declared parity: each sign is the
Koszul sign of one term, read off with ``graded.monomial_parity``, so a field
or a polynomial of mixed parity is never split into its parity parts.

``VectorField`` is the one format of a formal vector field: a map in
Hom(S^n W, W) is the field whose images all have degree n.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .graded import (EVEN, SuperSpace, integer_terms, monomial_parity,
                     sort_indices_with_sign, sparse_sum)


def merge_keys(space: SuperSpace, k1, k2):
    """Merge two canonical monomials; (key, sign) or (None, 0) on an odd square."""
    pars = space.parities
    sign = 1
    for b in k2:
        if not pars[b]:
            continue
        for a in k1:
            if a == b:
                return None, 0
            if a > b and pars[a]:
                sign = -sign
    return tuple(sorted(k1 + k2)), sign


def left_partials(pars, key):
    """{v: (pos, f)} for each variable v of the canonical monomial key, in key
    order, in one walk: pos is the first position of v and d^L_v y_key = f *
    y_rest with rest the key without that position.  f is the multiplicity
    of an even v, and (-1)^{|P|} for an odd v after the prefix P (odd
    variables never repeat, so |P| is the count of odd ones before).  It is
    the one definition of the left derivative's factor."""
    out = {}
    odd = 0
    for pos, v in enumerate(key):
        if pars[v]:
            out[v] = (pos, -1 if odd else 1)
            odd ^= 1
        elif v not in out:
            out[v] = (pos, key.count(v))
    return out


def merged_products(space: SuperSpace, left, right):
    """(key, sign * a * b) for each pair of terms (k1, a) of `left` and
    (k2, b) of `right` whose merged key is no odd square, in pair order."""
    for k1, a in left:
        for k2, b in right:
            key, sign = merge_keys(space, k1, k2)
            if key is not None:
                yield key, sign * a * b


class SuperPolynomial:
    __slots__ = ("space", "terms")

    def __init__(self, space: SuperSpace, terms=None):
        self.space = space
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, space):
        return cls(space)

    @classmethod
    def scalar(cls, space, c):
        c = Fraction(c)
        return cls(space, {(): c} if c else {})

    @classmethod
    def variable(cls, space, i):
        return cls(space, {(i,): Fraction(1)})

    @classmethod
    def monomial(cls, space, seq, coeff=1):
        """Monomial from an arbitrarily ordered index sequence (sign folded in)."""
        key, sign = sort_indices_with_sign(space, tuple(seq))
        if key is None:
            return cls(space)
        return cls(space, {key: Fraction(coeff) * sign})

    @classmethod
    def sum(cls, space, parts):
        """The sum of the polynomials `parts`, each on `space`; zeros dropped once."""
        def terms(part):
            if part.space is not space and part.space != space:
                raise ValueError("polynomials live on different variable spaces")
            return part.terms.items()
        return cls(space, sparse_sum(chain.from_iterable(map(terms, parts))))

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        return SuperPolynomial.sum(self.space, (self, other))

    def __sub__(self, other):
        return SuperPolynomial.sum(self.space, (self, -other))

    def __neg__(self):
        return SuperPolynomial(self.space, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        """The product, or the multiple by a scalar.

        Two polynomials multiply over integer-scaled coefficients, c * D for
        D the lcm of a factor's denominators, and divide once per output
        term by D_1 D_2.  That is exact because every term pair contributes
        one coefficient of each factor, so every summand carries that scale.
        """
        if isinstance(other, SuperPolynomial):
            if self.space != other.space:
                raise ValueError("polynomials live on different variable spaces")
            space = self.space
            d1, left = integer_terms(self.terms)
            d2, right = integer_terms(other.terms)
            return SuperPolynomial(
                space, sparse_sum(merged_products(space, left, right), d1 * d2))
        c = Fraction(other)
        return SuperPolynomial(self.space, {k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (Fraction(1) / Fraction(c))

    def __eq__(self, other):
        return (isinstance(other, SuperPolynomial)
                and self.space == other.space and self.terms == other.terms)

    def is_zero(self):
        return not self.terms

    # -- structure ----------------------------------------------------------
    def grading_involution(self) -> "SuperPolynomial":
        """(-1)^{|m|} on each monomial m: the odd terms change sign, in one pass."""
        space = self.space
        return SuperPolynomial(space, {k: -v if monomial_parity(space, k) else v
                                       for k, v in self.terms.items()})

    # -- calculus -----------------------------------------------------------
    def deriv_left(self, var: int) -> "SuperPolynomial":
        """Left partial derivative with respect to variable `var`: y_key goes
        to f * y_key with its first y_var dropped, f the factor
        ``left_partials`` gives."""
        pars = self.space.parities

        def terms():
            for key, val in self.terms.items():
                if var in key:
                    pos, f = left_partials(pars, key)[var]
                    yield key[:pos] + key[pos + 1:], f * val
        return SuperPolynomial(self.space, sparse_sum(terms()))

    def substitute(self, images, target_space: SuperSpace) -> "SuperPolynomial":
        """Graded algebra map sending variable i to images[i]: each term
        c y_{v_1} ... y_{v_deg} goes to c images[v_1] ... images[v_deg].

        Every term of images[i] must have the parity of variable i; a zero
        image is allowed.  Mixed images break graded commutativity: even y, z
        sent to x + xi and x + theta commute, but their images differ by
        2 xi theta in the two orders.
        """
        pars = self.space.parities
        if any(monomial_parity(target_space, k) != pars[i]
               for i, img in enumerate(images) for k in img.terms):
            raise ValueError("substitution must preserve parity")

        def image(key, c):
            out = SuperPolynomial.scalar(target_space, c)
            for v in key:
                out = out * images[v]
            return out
        return SuperPolynomial.sum(target_space,
                                   (image(key, c) for key, c in self.terms.items()))

    def render(self) -> str:
        if not self.terms:
            return "0"
        names = self.space.names
        bits = []
        for key in sorted(self.terms, key=lambda k: (len(k), k)):
            v = self.terms[key]
            factors = []
            i = 0
            while i < len(key):
                j = i
                while j < len(key) and key[j] == key[i]:
                    j += 1
                factors.append(names[key[i]] + (f"^{j - i}" if j - i > 1 else ""))
                i = j
            m = "*".join(factors) if factors else "1"
            bits.append(f"({v})*{m}" if factors else f"({v})")
        return " + ".join(bits)

    __repr__ = render


class VectorField:
    """Graded derivation of S(W*), given by its images on the coordinates.

    A term t of the image of y_i lies in the part of the field of parity
    |t| + p_i.  ``parity`` is read off the terms: their common parity, EVEN
    for the zero field and None when the terms disagree.
    """

    __slots__ = ("space", "images", "parity")

    def __init__(self, space: SuperSpace, images):
        self.space = space
        self.images = tuple(images)
        if len(self.images) != len(space):
            raise ValueError("need one image per variable")
        ps = {(monomial_parity(space, k) + p) % 2
              for img, p in zip(self.images, space.parities) for k in img.terms} or {EVEN}
        self.parity = ps.pop() if len(ps) == 1 else None

    @classmethod
    def coordinate(cls, space, i):
        """The left partial d/dy_i as a field."""
        imgs = [SuperPolynomial.zero(space) for _ in space.names]
        imgs[i] = SuperPolynomial.scalar(space, 1)
        return cls(space, imgs)

    def __call__(self, f: SuperPolynomial) -> SuperPolynomial:
        return apply_derivation(self.space, self.images, f)

    def is_zero(self):
        return all(img.is_zero() for img in self.images)


def apply_derivation(space, images, f: SuperPolynomial) -> SuperPolynomial:
    """Apply the graded derivation with the generator images `images` to f.

    Neither the derivation nor f need be parity homogeneous.  A term t of
    images[v] lies in the part of the derivation of parity |t| + p_v, so at
    an occurrence of y_v after an odd prefix of a monomial of f it takes the
    sign (-1)^{|t| + p_v}.  The output term is prefix * t * suffix, sorted
    with its Koszul sign.
    """
    pars = space.parities

    def terms():
        for key, val in f.terms.items():
            odd_prefix = 0
            for pos, v in enumerate(key):
                for t, c in images[v].terms.items():
                    seq = key[:pos] + t + key[pos + 1:]
                    out, sign = sort_indices_with_sign(space, seq)
                    if out is not None:
                        if odd_prefix and (monomial_parity(space, t) + pars[v]) % 2:
                            sign = -sign
                        yield out, sign * val * c
                odd_prefix ^= pars[v]
    return SuperPolynomial(space, sparse_sum(terms()))


def divergence(eta: VectorField) -> SuperPolynomial:
    """nabla(eta) = sum_i (-1)^{p_i + p_i|eta|} d/dy_i [eta(y_i)].

    A monomial m of eta(y_i) lies in the part of eta of parity |m| + p_i, so
    it takes the sign (-1)^{p_i + p_i(|m| + p_i)} = (-1)^{p_i|m|}; a field of
    mixed parity needs no splitting.  For an odd y_i, d^L_i m has parity
    |m| - 1, so the sign is minus the grading involution of d^L_i eta(y_i).
    """
    space = eta.space
    return SuperPolynomial.sum(space, (
        -img.deriv_left(i).grading_involution() if p else img.deriv_left(i)
        for i, (img, p) in enumerate(zip(eta.images, space.parities))))
