"""Polynomial superfunctions, graded vector fields and multilinear maps.

Monomials are tuples of variable indices sorted ascending; odd variables never
repeat (their square is zero) and the Koszul sign of every reordering is folded
into the coefficient, so equality of polynomials is plain dict equality.

Polynomials are summed only through ``SuperPolynomial.sum``, the polynomial
case of ``graded.sparse_sum``: it adds the terms of all its parts into one
dict and drops zeros once.  ``+`` and ``-`` are its two-part cases; an
accumulation passes its parts as a generator rather than folding
``out = out + part``, which copies and re-filters the whole running sum at
each step.  Products, derivatives and multilinear maps sum their terms
through ``sparse_sum`` as well.

The product of two polynomials runs over integers.  Each factor's
coefficients are scaled by the lcm D of their denominators
(``graded.integer_terms``), the signed products of the scaled numerators
are added as plain ints for each merged key, and each sum n is divided once,
as the Fraction n / (D_1 D_2).  That is exact: every term pair contributes
one coefficient of each factor, so every summand carries exactly the scale
D_1 D_2.  The values and the key order are those of the term-by-term
Fraction product, which costs a Fraction product and a Fraction sum (each a
gcd) per term pair instead.

The restriction ``substitute`` runs over integers the same way: every
image is scaled once, to one common D, each term is multiplied out factor
by factor over ints with equal keys collapsed after each factor, a term of
lower degree is padded by the missing powers of D, and each output
coefficient is divided once by D_0 D^top, D_0 the scale of the
coefficients and top the largest degree.

Odd partial derivatives act from the LEFT throughout the package; every
downstream sign (odd Laplacian values, Berezin integrals) inherits this single
convention, defined once by ``left_partials``: ``SuperPolynomial.deriv_left``
reads it, and ``wick.right_deriv`` and ``divergence`` are derived from that
through the grading involution.

Derivations and vector fields take no declared parity: each sign is the
Koszul sign of one term, read off with ``graded.monomial_parity``, so a field
or a polynomial of mixed parity is never split into its parity parts.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial

from .graded import (EVEN, SuperSpace, integer_terms, is_symmetric_tensor,
                     monomial_parity, sort_indices_with_sign, sparse_sum,
                     symmetrize_tensor)


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
            self._check(other)
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

    def _check(self, other):
        if self.space != other.space:
            raise ValueError("polynomials live on different variable spaces")

    # -- structure ----------------------------------------------------------
    def grading_involution(self) -> "SuperPolynomial":
        """(-1)^{|m|} on each monomial m: the odd terms change sign, in one pass."""
        space = self.space
        return SuperPolynomial(space, {k: -v if monomial_parity(space, k) else v
                                       for k, v in self.terms.items()})

    def max_degree(self):
        return max((len(k) for k in self.terms), default=0)

    def min_degree(self):
        return min((len(k) for k in self.terms), default=0)

    def coefficient(self, seq):
        key, sign = sort_indices_with_sign(self.space, tuple(seq))
        if key is None:
            return Fraction(0)
        return sign * self.terms.get(key, Fraction(0))

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
        """Graded algebra map sending variable i to images[i].

        Every term of images[i] must have the parity of variable i; a zero
        image is allowed.  Mixed images break graded commutativity: even y, z
        sent to x + xi and x + theta commute, but their images differ by
        2 xi theta in the two orders.

        It runs over integers: the images are scaled once by one lcm D of all
        their denominators, and the coefficients by their lcm D_0.  A term
        c y_{v_1} ... y_{v_deg} starts from c * D_0 * D^(top - deg), top the
        largest degree of the polynomial, and takes the scaled images in one
        factor at a time, collapsing equal keys as ints after each factor, so
        the work is bounded by the distinct monomials of the partial
        products, not by the paths through the image terms.  Every summand
        then carries the scale D_0 * D^top, and each output coefficient is
        one Fraction n / (D_0 * D^top).  The values and the key order are
        those of the product taken factor by factor over Fractions.
        """
        pars = self.space.parities
        if any(monomial_parity(target_space, k) != pars[i]
               for i, img in enumerate(images) for k in img.terms):
            raise ValueError("substitution must preserve parity")
        d, scaled = integer_terms({(i, k): c for i, img in enumerate(images)
                                   for k, c in img.terms.items()})
        imgs = [[] for _ in images]
        for (i, k), c in scaled:
            imgs[i].append((k, c))
        d0, terms = integer_terms(self.terms)
        top = self.max_degree()

        def image(key, n):
            partial = {(): n * d ** (top - len(key))}
            for v in key:
                partial = sparse_sum(
                    merged_products(target_space, partial.items(), imgs[v]), None)
                if not partial:
                    break
            return partial.items()
        return SuperPolynomial(target_space, sparse_sum(
            chain.from_iterable(image(key, n) for key, n in terms), d0 * d ** top))

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

    def scale_by_poly(self, p: SuperPolynomial) -> "VectorField":
        return VectorField(self.space, [p * img for img in self.images])

    def commutator(self, other: "VectorField") -> "VectorField":
        if self.parity is None or other.parity is None:
            raise ValueError("commutator needs homogeneous fields")
        sgn = -1 if (self.parity and other.parity) else 1
        imgs = []
        for i in range(len(self.space)):
            imgs.append(self(other.images[i]) - sgn * other(self.images[i]))
        return VectorField(self.space, imgs)

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


class MultilinearMap:
    """Koszul-symmetric tensor in Hom(S^n(W), W), stored sparsely.

    Entries map (args tuple of basis indices, out index) -> coefficient.
    Symmetrizing and the symmetry test are ``graded``'s sparse-tensor
    helpers on the flattened keys ``args + (out,)``, acting on the n
    argument slots only.
    """

    __slots__ = ("space", "rank", "entries")

    def __init__(self, space: SuperSpace, rank: int, entries=None):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.space = space
        self.rank = rank
        self.entries = {k: v for k, v in (entries or {}).items() if v != 0}

    def _flat(self) -> dict:
        return {args + (out,): v for (args, out), v in self.entries.items()}

    def symmetrized(self) -> "MultilinearMap":
        """Average over all Koszul-signed argument permutations."""
        fact = factorial(self.rank)
        flat = symmetrize_tensor(self.space, self._flat(), self.rank)
        return MultilinearMap(self.space, self.rank,
                              {(k[:-1], k[-1]): v / fact for k, v in flat.items()})

    def is_symmetric(self) -> bool:
        return is_symmetric_tensor(self.space, self._flat(), self.rank)

    def evaluate(self, vectors):
        """Value on a tuple of coefficient vectors; a dict {out index: Fraction}."""
        if len(vectors) != self.rank:
            raise ValueError("argument count mismatch")

        def terms():
            for (args, tgt), val in self.entries.items():
                c = val
                for slot, a in enumerate(args):
                    c *= vectors[slot][a] if a < len(vectors[slot]) else 0
                    if c == 0:
                        break
                if c:
                    yield tgt, c
        return sparse_sum(terms())

    def to_field(self) -> VectorField:
        """The vector field pi_n(y) * d_alpha for each entry y (x) alpha.

        The 1/n! of the averaging map is folded in here; the normalization is
        pinned by the divergence-as-supertrace cross-check.
        """
        space = self.space
        fact = factorial(self.rank)
        imgs = [SuperPolynomial.sum(space, (
            SuperPolynomial.monomial(space, args, Fraction(1, fact) * val)
            for (args, t), val in self.entries.items() if t == tgt))
            for tgt in range(len(space))]
        return VectorField(space, imgs)

    @classmethod
    def from_field(cls, eta: VectorField, degree: int) -> "MultilinearMap":
        """Inverse of to_field on fields whose images are pure degree n."""
        flat = {}
        for tgt, img in enumerate(eta.images):
            for key, val in img.terms.items():
                if len(key) != degree:
                    raise ValueError("field images must be homogeneous of the degree")
                flat[key + (tgt,)] = val
        flat = symmetrize_tensor(eta.space, flat, degree)
        return cls(eta.space, degree, {(k[:-1], k[-1]): v for k, v in flat.items()})

    def supertrace_form(self, vectors) -> Fraction:
        """tr[x -> zeta(args, x)] for n-1 argument vectors."""
        if len(vectors) != self.rank - 1:
            raise ValueError("argument count mismatch")
        total = Fraction(0)
        n = len(self.space)
        for j in range(n):
            basis = [Fraction(0)] * n
            basis[j] = Fraction(1)
            val = self.evaluate(list(vectors) + [basis]).get(j, Fraction(0))
            total += (-1 if self.space.parities[j] else 1) * val
        return total
