"""Chevalley-Eilenberg chains on the cubic-and-up Hamiltonians, delta, osp action.

Chains are stored on representatives: sparse combinations of wedge words of
canonically sorted monomials; wedge antisymmetry with Koszul signs is enforced
on construction.  Coinvariance is certified downstream by testing the
functionals against the osp action rather than building the quotient.
"""
from __future__ import annotations

from fractions import Fraction

from .graded import EVEN, koszul_sign, monomial_parity, perm_parity, sparse_sum
from .superpoly import SuperPolynomial
from .symplectic import SymplecticSpace


def sort_wedge_word(space, word):
    """Canonical order for a word of monomial keys; (word, sign) or (None, 0).

    Adjacent transposition of factors h, h' costs -(-1)^{|h||h'|}; a repeated
    even factor kills the word, repeated odd factors are allowed.
    """
    pars = [monomial_parity(space, key) for key in word]
    order = sorted(range(len(word)), key=lambda i: (len(word[i]), word[i]))
    for a, b in zip(order, order[1:]):
        if word[a] == word[b] and pars[a] == EVEN:
            return None, 0  # repeated even factor: w ^ w = 0
    return (tuple(word[i] for i in order),
            perm_parity(order) * koszul_sign(order, pars))


class CEChain:
    """Formal rational combination of wedge words over a fixed even V_{2n|m}.

    It is built from (word, coefficient) pairs, or a dict of them: each word
    is sorted with its sign (``sort_wedge_word``), and the signed terms are
    summed through ``graded.sparse_sum``.
    """

    def __init__(self, symp: SymplecticSpace, terms=()):
        if symp.parity != EVEN:
            raise ValueError("CE chains live over an even symplectic space")
        self.symp = symp
        space = symp.space

        def sorted_terms():
            for word, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if any(len(key) < 3 for key in word):
                    raise ValueError("wedge factors must have degree >= 3")
                sword, sign = sort_wedge_word(space, word)
                if sword is not None:
                    yield sword, sign * coeff
        self.terms = sparse_sum(sorted_terms())

    @classmethod
    def from_polynomials(cls, symp, polys):
        """Wedge of polynomials, expanded multilinearly into monomial words."""
        words = [((), Fraction(1))]
        for p in polys:
            if p.space != symp.space:
                raise ValueError("factor on the wrong space")
            words = [(w + (key,), c * v)
                     for (w, c) in words for key, v in p.terms.items()]
        return cls(symp, words)

    def _with_terms(self, terms) -> "CEChain":
        """A chain over this space from words that are sorted already."""
        out = CEChain(self.symp)
        out.terms = terms
        return out

    def add(self, other: "CEChain") -> "CEChain":
        if other.symp.space != self.symp.space:
            raise ValueError("chains over different symplectic spaces")
        return self._with_terms(sparse_sum([*self.terms.items(), *other.terms.items()]))

    def scale(self, c) -> "CEChain":
        c = Fraction(c)
        return self._with_terms({w: v * c for w, v in self.terms.items()} if c else {})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, CEChain)
                and self.symp.space == other.symp.space
                and self.terms == other.terms)

    def word_parities(self, word):
        return [monomial_parity(self.symp.space, k) for k in word]

    def render(self):
        bits = []
        for word, c in sorted(self.terms.items()):
            monos = [SuperPolynomial(self.symp.space, {k: Fraction(1)}).render()
                     for k in word]
            bits.append(f"({c})*[" + " ^ ".join(monos) + "]")
        return " + ".join(bits) if bits else "0"

    __repr__ = render

    def to_json(self):
        names = self.symp.space.names
        out = []
        for word, c in sorted(self.terms.items()):
            out.append({"coeff": str(c),
                        "word": ["*".join(names[i] for i in key) for key in word]})
        return out


def ce_differential(chain: CEChain) -> CEChain:
    """delta(g_1 ^ ... ^ g_m) = sum_{i<j} (-1)^{p(g)} [g_i,g_j] ^ rest.

    p(g) = |g_i|(|g_1|+..+|g_{i-1}|) + |g_j|(|g_1|+..+|g_{j-1}|) + |g_i||g_j|
           + i + j - 1, with 1-based positions, exactly as printed.
    """
    symp = chain.symp

    def terms():
        for word, coeff in chain.terms.items():
            pars = chain.word_parities(word)
            m = len(word)
            for i in range(m):
                for j in range(i + 1, m):
                    p = (pars[i] * sum(pars[:i]) + pars[j] * sum(pars[:j])
                         + pars[i] * pars[j] + (i + 1) + (j + 1) - 1)
                    sign = -1 if p % 2 else 1
                    gi = SuperPolynomial(symp.space, {word[i]: Fraction(1)})
                    gj = SuperPolynomial(symp.space, {word[j]: Fraction(1)})
                    bracket = symp.poisson(gi, gj)
                    rest = tuple(word[t] for t in range(m) if t not in (i, j))
                    for bkey, bval in bracket.terms.items():
                        yield (bkey,) + rest, sign * coeff * bval
    return CEChain(symp, terms())


def osp_action(eta: SuperPolynomial, chain: CEChain) -> CEChain:
    """Adjoint action of a quadratic Hamiltonian, extended by the Leibniz rule.

    The odd part of eta takes a sign passing an odd prefix of the word, so
    after an odd prefix the factor is bracketed with the grading involution
    eta_even - eta_odd; eta need not be parity homogeneous.
    """
    if any(len(k) != 2 for k in eta.terms):
        raise ValueError("osp elements are quadratic Hamiltonians")
    symp = chain.symp
    after_prefix = (eta, eta.grading_involution())  # indexed by the parity of the prefix

    def terms():
        for word, coeff in chain.terms.items():
            pars = chain.word_parities(word)
            for i in range(len(word)):
                gi = SuperPolynomial(symp.space, {word[i]: Fraction(1)})
                bracket = symp.poisson(after_prefix[sum(pars[:i]) % 2], gi)
                for bkey, bval in bracket.terms.items():
                    yield word[:i] + (bkey,) + word[i + 1:], coeff * bval
    return CEChain(symp, terms())
