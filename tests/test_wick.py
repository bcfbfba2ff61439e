import random
from fractions import Fraction

import pytest

from bvgraph.graded import EVEN, ODD, SuperSpace, koszul_sign
from bvgraph.superpoly import SuperPolynomial, VectorField, divergence
from bvgraph.symplectic import BilinearForm, SymplecticSpace, restrict_polynomial
from bvgraph.wick import (QuadraticWeight, berezin_change_of_variables,
                          bv_stokes_value, chord_diagrams,
                          gaussian_stokes_even, laplacian_exponential_expansion,
                          MatchingSupport, live_chords, right_deriv)
from bvgraph import sampling, wick
from oracles import (SplitWeight, berezin_oracle, beta_contract,
                     beta_contract_indices, coordinate_lagrangian, double_factorial,
                     monomial_vev_chords_oracle, unmatched_oracle)


def unit_weight_1d():
    w = SuperSpace(("x",), (EVEN,))
    return QuadraticWeight(BilinearForm(w, [[1]], EVEN, "sym"))


def test_chord_counts():
    assert len(chord_diagrams(1)) == 1
    assert len(chord_diagrams(2)) == 3
    assert len(chord_diagrams(3)) == 15
    for k in range(5):
        assert len(chord_diagrams(k)) == double_factorial(2 * k - 1)
        assert len(set(chord_diagrams(k))) == len(chord_diagrams(k))


def test_live_chords_are_the_nonzero_diagrams_in_order():
    # a sparse matrix over mixed parities: live_chords lists exactly the
    # diagrams with beta_c != 0, with their beta_c, in chord_diagrams order
    rng = random.Random(6)
    n = 5
    parities = [EVEN, EVEN, ODD, ODD, ODD]
    live = total = 0
    for _ in range(20):
        matrix = [[sampling.rational(rng) if rng.random() < 0.6 else 0
                   for _ in range(n)] for _ in range(n)]
        k = rng.choice((1, 2, 3, 4))
        idxs = [rng.randrange(n) for _ in range(2 * k)]
        pars = [parities[i] for i in idxs]
        expected = [(c, beta_contract_indices(pars, idxs, c, matrix))
                    for c in chord_diagrams(k)]
        assert list(live_chords(pars, idxs, MatchingSupport(matrix))) == \
            [(c, val) for c, val in expected if val]
        live += sum(1 for _, val in expected if val)
        total += len(expected)
    assert 0 < live < total
    assert list(live_chords([EVEN], [0], MatchingSupport([[1]]))) == []


def component_matrix(rng):
    """A symmetric 8 x 8 matrix of random nonzero entries on its support, a
    path, a triangle and a self-pair under a random relabelling."""
    perm = list(range(8))
    rng.shuffle(perm)
    path, triangle, loop = perm[:4], perm[4:7], perm[7]
    matrix = [[0] * 8 for _ in range(8)]
    for a, b in (list(zip(path, path[1:])) + list(zip(triangle, triangle[1:] + triangle[:1]))
                 + [(loop, loop)]):
        matrix[a][b] = matrix[b][a] = sampling.rational(rng, zero_ok=False)
    return matrix, path, triangle, loop


def test_matching_support_colours_its_components():
    matrix, path, triangle, loop = component_matrix(random.Random(1))
    support = MatchingSupport(matrix)
    assert support.rows is matrix
    comps = [support.component[i] for i in (path[0], triangle[0], loop)]
    assert all(support.component[i] == comps[0] for i in path)
    assert all(support.component[i] == comps[1] for i in triangle)
    assert len(set(comps)) == 3
    assert [support.bipartite[c] for c in comps] == [True, False, False]
    assert [support.side[i] for i in path] in ([1, -1, 1, -1], [-1, 1, -1, 1])
    # the two ends of the path lie on opposite sides, so they balance, yet
    # no matching pairs them: the deficiency is a lower bound only
    assert support.deficiency([path[0], path[3]]) == 0
    assert unmatched_oracle(matrix, [path[0], path[3]]) == 2
    assert support.deficiency([path[0], path[2]]) == 2
    assert support.deficiency([loop] * 3) == 1
    assert support.deficiency(triangle[:2] + [triangle[0]]) == 1


def test_deficiency_bounds_the_unmatched_points_and_moves_by_one():
    # against every matching of seeded multisets; with one more variable the
    # deficiency moves by exactly one, so dropping at deficiency > R is exact
    rng = random.Random(2)
    seen = set()
    for _ in range(30):
        matrix = component_matrix(rng)[0]
        support = MatchingSupport(matrix)
        for _ in range(10):
            key = [rng.randrange(8) for _ in range(rng.randint(0, 8))]
            d, unmatched = support.deficiency(key), unmatched_oracle(matrix, key)
            assert d <= unmatched and d % 2 == unmatched % 2 == len(key) % 2
            seen.add((d > 0, unmatched > 0))
            extra = rng.randrange(8)
            assert abs(support.deficiency(key + [extra]) - d) == 1
            assert support.completable(support.tally(key), d)
            assert not support.completable(support.tally(key), d - 1)
    assert seen == {(False, False), (False, True), (True, True)}


def test_live_chords_match_the_nonzero_diagrams_on_component_supports():
    # supports with a path, an odd cycle and a self-pair: the walk gives the
    # nonzero diagrams of chord_diagrams, nothing on a multiset of nonzero
    # deficiency, and both kinds of multiset are drawn
    rng = random.Random(3)
    parities = [EVEN] * 6 + [ODD] * 2
    kinds = {True: 0, False: 0}
    for _ in range(40):
        matrix, *_ = component_matrix(rng)
        support = MatchingSupport(matrix)
        k = rng.choice((1, 2, 3))
        idxs = [rng.randrange(8) for _ in range(2 * k)]
        pars = [parities[i] for i in idxs]
        expected = [(c, beta_contract_indices(pars, idxs, c, matrix))
                    for c in chord_diagrams(k)]
        live = list(live_chords(pars, idxs, support))
        assert live == [(c, val) for c, val in expected if val]
        kinds[support.deficiency(idxs) == 0] += 1
        if support.deficiency(idxs):
            assert live == []
    assert min(kinds.values()) >= 5


def test_live_chords_take_no_sign_on_an_unbalanced_word(monkeypatch):
    # p^3 q over V_{2|0}: p pairs only with q, so no diagram is walked
    v = SymplecticSpace.canonical_even(1, 0)
    support = MatchingSupport(v.inverse.rows)
    signs = []

    def counted(parities, chord):
        signs.append(chord)
        return 1

    monkeypatch.setattr(wick, "chord_sign", counted)
    assert list(live_chords([EVEN] * 4, [0, 0, 0, 1], support)) == []
    assert signs == []
    assert len(list(live_chords([EVEN] * 4, [0, 0, 1, 1], support))) == 2
    assert len(signs) == 2


def test_monomial_vev_of_an_unmatchable_key_is_zero_without_recursing(monkeypatch):
    # p, q pair with each other, y with itself and s with t: keys of nonzero
    # deficiency are 0 at once, and nothing is memoised for them
    space = SuperSpace(("p", "q", "y", "s", "t"), (EVEN, EVEN, EVEN, ODD, ODD))
    rows = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 2, 0, 0],
            [0, 0, 0, 0, 1], [0, 0, 0, -1, 0]]
    wt = QuadraticWeight(BilinearForm(space, rows, EVEN, "sym"))
    assert wt.support.bipartite == (True, True, False)  # the bipartite ones first
    assert wt.monomial_vev((0, 1, 2, 2, 3, 4)) == monomial_vev_chords_oracle(
        wt, (0, 1, 2, 2, 3, 4)) != 0

    def refused(key):
        raise AssertionError(f"recursed into {key}")

    monkeypatch.setattr(wt, "_vev", refused)
    memo = dict(wt._memo)
    for key in ((0, 0), (0, 0, 0, 1), (2,), (0, 1, 2), (3, 3), (0, 1, 2, 2, 3)):
        assert wt.support.deficiency(key) > 0
        assert wt.monomial_vev(key) == 0 == monomial_vev_chords_oracle(wt, key)
    assert wt._memo == memo


def test_beta_contract_simple():
    w = SuperSpace(("x",), (EVEN,))
    form = BilinearForm(w, [[1]], EVEN, "sym")
    x = SuperPolynomial.variable(w, 0)
    assert beta_contract([x, x], ((0, 1),), form) == 1


def test_beta_contract_even_no_signs():
    w = SuperSpace(("a", "b"), (EVEN, EVEN))
    form = BilinearForm(w, [[1, 0], [0, 1]], EVEN, "sym")
    a = SuperPolynomial.variable(w, 0)
    b = SuperPolynomial.variable(w, 1)
    for chord in chord_diagrams(2):
        val = beta_contract([a, a, b, b], chord, form)
        assert val in (0, 1)


def test_beta_contract_odd_swap_flips_sign():
    w = SuperSpace(("s", "t"), (ODD, ODD))
    form = BilinearForm(w, [[0, 1], [-1, 0]], EVEN, "sym")
    s = SuperPolynomial.variable(w, 0)
    t = SuperPolynomial.variable(w, 1)
    assert beta_contract([s, t], ((0, 1),), form) == 1
    assert beta_contract([t, s], ((0, 1),), form) == -1
    # 4-factor case: the sign is exactly the Koszul unshuffle sign
    chord = ((0, 2), (1, 3))
    v = beta_contract([s, s, t, t], chord, form)
    assert v == koszul_sign((0, 2, 1, 3), (1, 1, 1, 1)) * 1 * 1 == -1


def test_expectation_one_and_moments():
    wt = unit_weight_1d()
    sp = wt.space
    one = SuperPolynomial.scalar(sp, 1)
    x = SuperPolynomial.variable(sp, 0)
    assert wt.expectation(one) == 1
    assert wt.expectation(x * x) == 1
    assert wt.expectation(x * x * x * x) == 3
    assert wt.expectation(x * x * x) == 0


def test_expectation_matches_literal_chord_sum():
    rng = random.Random(1)
    space = SuperSpace(("x1", "x2", "s", "t"), (EVEN, EVEN, ODD, ODD))
    for _ in range(12):
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        rows[0][0] = sampling.rational(rng, zero_ok=False)
        rows[1][1] = sampling.rational(rng, zero_ok=False)
        rows[0][1] = rows[1][0] = sampling.rational(rng)
        c = sampling.rational(rng, zero_ok=False)
        rows[2][3] = c
        rows[3][2] = -c
        try:
            wt = QuadraticWeight(BilinearForm(space, rows, EVEN, "sym"))
        except ValueError:
            continue
        for _ in range(8):
            key = tuple(sorted(rng.choices(range(2), k=rng.choice((2, 4))))) \
                + tuple(i for i in (2, 3) if rng.random() < 0.5)
            key = tuple(sorted(key))
            assert wt.monomial_vev(key) == monomial_vev_chords_oracle(wt, key)


def test_expectation_odd_parity_vanishes():
    space = SuperSpace(("x", "s", "t"), (EVEN, ODD, ODD))
    rows = [[1, 0, 0], [0, 0, 1], [0, -1, 0]]
    wt = QuadraticWeight(BilinearForm(space, rows, EVEN, "sym"))
    rng = random.Random(2)
    for _ in range(20):
        f = sampling.polynomial(rng, space, 4, parity=ODD)
        assert wt.expectation(f) == 0


def test_expectation_factor_order_invariance():
    # reshuffling the factors of a monomial (as a polynomial identity) cannot
    # change the expectation: build the same monomial two ways
    space = SuperSpace(("x", "s", "t"), (EVEN, ODD, ODD))
    rows = [[1, 0, 0], [0, 0, 2], [0, -2, 0]]
    wt = QuadraticWeight(BilinearForm(space, rows, EVEN, "sym"))
    x, s, t = (SuperPolynomial.variable(space, i) for i in range(3))
    orderings = [x * s * t * x, x * x * s * t, s * x * t * x, -(s * t) * x * x * -1]
    vals = {wt.expectation(f) for f in orderings}
    assert len(vals) == 1
    # reordering two odd factors negates the monomial, hence the expectation
    assert wt.expectation(t * s * x * x) == -wt.expectation(s * t * x * x)


def test_block_multiplicativity():
    space = SuperSpace(("x1", "x2"), (EVEN, EVEN))
    rows = [[1, 0], [0, -2]]
    wt = QuadraticWeight(BilinearForm(space, rows, EVEN, "sym"))
    x1 = SuperPolynomial.variable(space, 0)
    x2 = SuperPolynomial.variable(space, 1)
    f1 = x1 * x1
    f2 = x2 * x2
    assert wt.expectation(f1 * f2) == wt.expectation(f1) * wt.expectation(f2)


def test_right_derivative():
    space = SuperSpace(("s", "t"), (ODD, ODD))
    s = SuperPolynomial.variable(space, 0)
    t = SuperPolynomial.variable(space, 1)
    assert right_deriv(s * t, 0) == -t
    assert right_deriv(s * t, 1) == s


def test_berezin_pair_value():
    space = SuperSpace(("s", "t"), (ODD, ODD))
    c = Fraction(3)
    rows = [[0, c], [-c, 0]]
    wt = QuadraticWeight(BilinearForm(space, rows, EVEN, "sym"))
    st = SuperPolynomial.monomial(space, (0, 1), 1)
    assert wt.expectation(st) == Fraction(-1, 3)
    assert berezin_oracle(st, wt) == Fraction(-1, 3)


def test_oracle_negative_definite_even():
    space = SuperSpace(("x",), (EVEN,))
    wt = QuadraticWeight(BilinearForm(space, [[-1]], EVEN, "sym"))
    x = SuperPolynomial.variable(space, 0)
    assert wt.expectation(x * x) == -1
    assert berezin_oracle(x * x, wt) == -1
    assert berezin_oracle(x * x * x * x, wt) == 3


def test_oracle_agrees_with_wick_up_to_22_degree_6():
    rng = random.Random(3)
    space = SuperSpace(("x1", "x2", "s", "t"), (EVEN, EVEN, ODD, ODD))
    for eps1 in (1, -1, 2):
        for eps2 in (1, -1):
            for c in (1, -1, Fraction(1, 2)):
                rows = [[Fraction(0)] * 4 for _ in range(4)]
                rows[0][0], rows[1][1] = Fraction(eps1), Fraction(eps2)
                rows[2][3], rows[3][2] = Fraction(c), Fraction(-c)
                wt = QuadraticWeight(BilinearForm(space, rows, EVEN, "sym"))
                for _ in range(6):
                    f = sampling.polynomial(rng, space, 6, terms=4)
                    assert wt.expectation(f) == berezin_oracle(f, wt)


def test_oracle_rejects_non_split():
    space = SuperSpace(("x1", "x2"), (EVEN, EVEN))
    rows = [[1, 1], [1, 1]]
    with pytest.raises(ValueError, match="degenerate"):
        QuadraticWeight(BilinearForm(space, rows, EVEN, "sym"))
    rows = [[2, 1], [1, 2]]
    wt = QuadraticWeight(BilinearForm(space, rows, EVEN, "sym"))
    with pytest.raises(ValueError):
        SplitWeight(wt)


def test_even_stokes_monomials():
    wt = unit_weight_1d()
    sp = wt.space
    x = SuperPolynomial.variable(sp, 0)
    p = SuperPolynomial.scalar(sp, 1)
    for r in range(7):
        assert gaussian_stokes_even(p, 0, wt) == 0
        p = p * x


def test_bv_stokes_trivial_q():
    # note even symmetric forms need an even-dimensional odd block, so the
    # valid canonical gauges on U_{2|2} are L_{2|0} and L_{0|2}
    u = SymplecticSpace.canonical_odd(2)
    lag = coordinate_lagrangian(u, 2)
    sigma = _nondeg_sigma_on(u, lag)
    one = SuperPolynomial.scalar(u.space, 1)
    assert bv_stokes_value(one, sigma, u, lag) == 0


def _nondeg_sigma_on(u, lag, rng=None, extra=0):
    # canonical sigma with nondegenerate restriction to the gauge, plus an
    # optional random even quadratic perturbation vanishing on the gauge check
    rng = rng or random.Random(0)
    space = u.space
    n = len(space) // 2
    sigma = SuperPolynomial.zero(space)
    for i in range(n):
        sigma = sigma + SuperPolynomial.monomial(space, (i, i), Fraction(1, 2))
    sigma = sigma + SuperPolynomial.monomial(space, (n, n + 1), 1)
    for _ in range(extra):
        sigma = sigma + sampling.homogeneous_monomial(rng, space, 2, parity=EVEN)
    return sigma


def test_bv_stokes_random_degree_4():
    rng = random.Random(4)
    u = SymplecticSpace.canonical_odd(2)
    checked = 0
    for _ in range(40):
        lag = coordinate_lagrangian(u, rng.choice((0, 2)))
        sigma = _nondeg_sigma_on(u, lag, rng, extra=1)
        sub = lag.subspace()
        try:
            QuadraticWeight.from_sigma(restrict_polynomial(sigma, lag.vectors, sub))
        except ValueError:
            continue
        q = sampling.polynomial(rng, u.space, 4, terms=3)
        assert bv_stokes_value(q, sigma, u, lag) == 0
        checked += 1
    assert checked >= 20


def test_laplacian_exponential_expansion_on_a_nilpotent_sigma():
    # sigma = x1 xi1 xi2 squares to 0, so e^{-sigma} = 1 - sigma exactly, and
    # Delta(sigma) = xi2 makes the (-1)^{|q|} q (master) term nonzero
    rng = random.Random(8)
    u = SymplecticSpace.canonical_odd(2)
    sigma = SuperPolynomial.monomial(u.space, (0, 2, 3))
    assert u.odd_laplacian(sigma) == SuperPolynomial.variable(u.space, 3)
    exp = SuperPolynomial.scalar(u.space, 1) - sigma
    for _ in range(10):
        q = sampling.polynomial(rng, u.space, 3, terms=4)
        r = laplacian_exponential_expansion(q, sigma, u)
        assert u.odd_laplacian(q * exp) == r * exp


def test_berezin_change_of_variables_examples():
    space = SuperSpace(("x",), (EVEN,))
    x = SuperPolynomial.variable(space, 0)
    ddx = VectorField.coordinate(space, 0)
    lhs, rhs = berezin_change_of_variables(ddx, x)
    assert lhs == rhs == 0  # constant field, zero divergence, odd integrand
    euler = VectorField(space, [x])
    lhs, rhs = berezin_change_of_variables(euler, x * x)
    assert lhs == rhs == -1  # <2x^2 - x^4> = 2 - 3 against -<x^2> = -1


def test_berezin_change_of_variables_random():
    rng = random.Random(5)
    space = SuperSpace(("x1", "x2", "s", "t"), (EVEN, EVEN, ODD, ODD))
    zero_div = 0
    for _ in range(40):
        eta = sampling.vector_field(rng, space, rng.choice((0, 1)), 2)
        f = sampling.polynomial(rng, space, 3, terms=3)
        lhs, rhs = berezin_change_of_variables(eta, f)
        assert lhs == rhs
        if divergence(eta).is_zero():
            zero_div += 1
            assert lhs == 0
