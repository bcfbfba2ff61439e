import random
from fractions import Fraction
from itertools import product

import pytest

from bvgraph.superpoly import SuperPolynomial
from bvgraph.symplectic import SymplecticSpace
from bvgraph.ce import CEChain, ce_differential, osp_action, sort_wedge_word
from bvgraph import sampling


def v21():
    return SymplecticSpace.canonical_even(1, 1)  # p, q, x (odd)


def cubic(symp, rng, parity=None):
    return sampling.homogeneous_monomial(rng, symp.space, 3, parity=parity)


def test_wedge_antisymmetry_even_factors():
    symp = v21()
    p = SuperPolynomial.variable(symp.space, 0)
    q = SuperPolynomial.variable(symp.space, 1)
    a, b = p * p * q, q * q * p
    c1 = CEChain.from_polynomials(symp, [a, b])
    c2 = CEChain.from_polynomials(symp, [b, a])
    assert c1.add(c2).is_zero()  # even-even swap costs -1


def test_wedge_even_square_dies():
    symp = v21()
    p = SuperPolynomial.variable(symp.space, 0)
    a = p * p * p
    assert CEChain.from_polynomials(symp, [a, a]).is_zero()


def test_wedge_odd_square_survives():
    symp = v21()
    p = SuperPolynomial.variable(symp.space, 0)
    x = SuperPolynomial.variable(symp.space, 2)
    h = p * p * x  # odd cubic
    assert not CEChain.from_polynomials(symp, [h, h]).is_zero()


def test_odd_odd_swap_is_plus():
    symp = v21()
    p = SuperPolynomial.variable(symp.space, 0)
    q = SuperPolynomial.variable(symp.space, 1)
    x = SuperPolynomial.variable(symp.space, 2)
    h1, h2 = p * p * x, q * q * x
    c1 = CEChain.from_polynomials(symp, [h1, h2])
    c2 = CEChain.from_polynomials(symp, [h2, h1])
    assert c1.terms == c2.terms


def bubble_sort_wedge(space, word):
    """Sort by adjacent transpositions, each swap of h, h' costing -(-1)^{|h||h'|}."""
    word = list(word)
    pars = [sum(space.parities[i] for i in key) % 2 for key in word]
    sign = 1
    for end in range(len(word) - 1, 0, -1):
        for i in range(end):
            if (len(word[i]), word[i]) > (len(word[i + 1]), word[i + 1]):
                word[i], word[i + 1] = word[i + 1], word[i]
                pars[i], pars[i + 1] = pars[i + 1], pars[i]
                sign *= 1 if pars[i] and pars[i + 1] else -1
    if any(a == b and not p for a, b, p in zip(word, word[1:], pars)):
        return None, 0
    return tuple(word), sign


def test_sort_wedge_word_matches_adjacent_transpositions():
    space = v21().space
    keys = sampling.monomial_keys(space, 3) + sampling.monomial_keys(space, 4)
    words = [w for n in range(4) for w in product(keys, repeat=n)]
    assert len(words) == 4369
    for word in words:
        assert sort_wedge_word(space, word) == bubble_sort_wedge(space, word)


def test_add_rejects_a_chain_over_another_space():
    symp = v21()
    p, q = (SuperPolynomial.variable(symp.space, i) for i in (0, 1))
    chain = CEChain.from_polynomials(symp, [p * p * q])
    same = CEChain.from_polynomials(v21(), [p * p * q])  # equal space, new object
    assert chain.add(same).terms == {((0, 0, 1),): Fraction(2)}
    v20 = SymplecticSpace.canonical_even(1, 0)
    other = CEChain.from_polynomials(
        v20, [SuperPolynomial.monomial(v20.space, (0, 0, 1))])
    with pytest.raises(ValueError, match="different symplectic spaces"):
        chain.add(other)


def test_chains_over_equal_spaces_compare_equal():
    # equality asks what add asks: an equal space, not the same object
    symp = v21()
    p, q = (SuperPolynomial.variable(symp.space, i) for i in (0, 1))
    chain = CEChain.from_polynomials(symp, [p * p * q])
    same = CEChain.from_polynomials(v21(), [p * p * q])
    assert same.symp is not chain.symp
    assert chain == same
    assert chain.add(same) == chain.scale(2)
    v20 = SymplecticSpace.canonical_even(1, 0)
    other = CEChain(v20, dict(chain.terms))  # the same words over V_{2|0}
    assert other.terms == chain.terms and other != chain


def test_scale_and_add_keep_the_sorted_words():
    # scale and add take words that are sorted already: the same chains, in
    # the same key order, as sending every word back through the constructor;
    # and 0 times a chain is the zero chain
    symp = v21()
    rng = random.Random(5)
    keys = sampling.monomial_keys(symp.space, 4)
    quartics = [SuperPolynomial.sum(symp.space, (
        SuperPolynomial.monomial(symp.space, key, sampling.rational(rng, zero_ok=False))
        for key in keys)) for _ in range(3)]
    chain = CEChain.from_polynomials(symp, quartics)
    assert len(chain.terms) == 120
    c = Fraction(-2, 3)
    rebuilt = CEChain(symp, ((w, v * c) for w, v in chain.terms.items()))
    assert list(chain.scale(c).terms.items()) == list(rebuilt.terms.items())
    summed = CEChain(symp, [*chain.terms.items(), *rebuilt.terms.items()])
    assert list(chain.add(rebuilt).terms.items()) == list(summed.terms.items())
    assert chain.scale(c).scale(1 / c) == chain
    assert chain.scale(0).is_zero() and chain.scale(0) == CEChain(symp)


def test_degree_filter():
    symp = v21()
    p = SuperPolynomial.variable(symp.space, 0)
    with pytest.raises(ValueError):
        CEChain.from_polynomials(symp, [p * p])


def test_delta_on_single_wedge_is_zero():
    symp = v21()
    rng = random.Random(1)
    c = CEChain.from_polynomials(symp, [cubic(symp, rng)])
    assert ce_differential(c).is_zero()


def test_delta_on_2_wedge_is_the_bracket():
    symp = v21()
    rng = random.Random(2)
    for _ in range(6):
        h1, h2 = cubic(symp, rng), cubic(symp, rng)
        c = CEChain.from_polynomials(symp, [h1, h2])
        br = symp.poisson(h1, h2)
        # p(g) at (i,j) = (1,2) is even for every parity combination
        expect = CEChain(symp, (((key,), val) for key, val in br.terms.items()))
        lhs = ce_differential(c)
        # compare through the coefficient dicts of single-factor words
        assert lhs.terms == expect.terms


def test_delta_squared_zero_on_wedges():
    rng = random.Random(3)
    symp = v21()
    for trial in range(10):
        length = rng.choice((3, 4))
        polys = [cubic(symp, rng) for _ in range(length)]
        chain = CEChain.from_polynomials(symp, polys)
        assert ce_differential(ce_differential(chain)).is_zero()


def test_delta_degree_bookkeeping():
    rng = random.Random(4)
    symp = v21()
    h1 = sampling.homogeneous_monomial(rng, symp.space, 3)
    h2 = sampling.homogeneous_monomial(rng, symp.space, 4)
    chain = CEChain.from_polynomials(symp, [h1, h2])
    for word in ce_differential(chain).terms:
        assert sorted(len(k) for k in word) == [5]


def test_osp_action_single_factor():
    rng = random.Random(5)
    symp = v21()
    eta = sampling.homogeneous_monomial(rng, symp.space, 2)
    h = cubic(symp, rng)
    lhs = osp_action(eta, CEChain.from_polynomials(symp, [h]))
    rhs = CEChain.from_polynomials(symp, [symp.poisson(eta, h)]) \
        if not symp.poisson(eta, h).is_zero() else CEChain(symp)
    assert lhs.terms == rhs.terms


def test_osp_action_commutes_with_delta():
    rng = random.Random(6)
    symp = v21()
    for _ in range(8):
        eta = sampling.homogeneous_monomial(rng, symp.space, 2)
        polys = [cubic(symp, rng), cubic(symp, rng)]
        chain = CEChain.from_polynomials(symp, polys)
        lhs = ce_differential(osp_action(eta, chain))
        rhs = osp_action(eta, ce_differential(chain))
        assert lhs.terms == rhs.terms


def test_osp_action_is_linear_in_a_mixed_parity_eta():
    # the odd part px of eta takes the Koszul sign past the odd prefix pqx
    symp = v21()
    p, q, x = (SuperPolynomial.variable(symp.space, i) for i in range(3))
    chain = CEChain.from_polynomials(symp, [p * p * q, p * q * x, q * q * x])
    even, odd = p * p, p * x
    mixed = osp_action(even + odd, chain)
    assert mixed == osp_action(even, chain).add(osp_action(odd, chain))
    assert mixed.terms[((0, 0, 1), (0, 1, 1), (0, 1, 2))] == -1


def test_constants_act_as_zero():
    symp = v21()
    rng = random.Random(7)
    chain = CEChain.from_polynomials(symp, [cubic(symp, rng)])
    with pytest.raises(ValueError):
        osp_action(SuperPolynomial.scalar(symp.space, 1), chain)
