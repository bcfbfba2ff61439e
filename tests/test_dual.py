import random
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

import pytest

from bvgraph.graded import (EVEN, ODD, SuperSpace, integer_matrix, integer_terms,
                            koszul_sign, monomial_parity, perm_parity)
from bvgraph.superpoly import SuperPolynomial, VectorField, divergence, merge_keys
from bvgraph.symplectic import BilinearForm, SymplecticSpace
from bvgraph.frobenius import (FrobeniusAlgebra, Gauge, direct_sum, g3, g3_gauge,
                               gauge_at, k2, partner_lists, so3_reduced,
                               verify_axioms, vertex_tensor_on_vectors)
from bvgraph.ce import CEChain, ce_differential
from bvgraph.graphs import (CanonicalGraph, GraphChain, canonicalize_directed,
                            cycle_space, enumerate_graphs)
from bvgraph.wick import chord_diagrams
from bvgraph.dual import (GaugeModel, TensorModel, feynman_cochain,
                          feynman_on_chain, feynman_value, psi_field, psi_of_word, s_functional,
                          shuffle_sign, tensor_index,
                          verify_cocycle_chains,
                          verify_cocycle_graphs, verify_commute,
                          verify_gauge_independence,
                          verify_kontsevich_chain_map, verify_master_equations,
                          verify_osp_invariance, verify_vanishing_divergence,
                          wedge_sign, wick_map)
from bvgraph import ce, dual, frobenius, graded, sampling, symplectic, wick
import oracles
from oracles import (beta_contract_indices, connected_components,
                     feynman_leaf_sign_oracle, feynman_product_oracle,
                     feynman_value_oracle, g5, g5_gauge, graph_from_chord,
                     hamiltonian_field_form_oracle, matchable_word_oracle,
                     max_degree, min_degree, odd_laplacian_form_oracle, polynomial_parity,
                     psi_monomial_oracle, rescaled, restricted_mu_oracle,
                     restricted_product_oracle, restricted_weight_oracle,
                     restricted_word_oracle, restriction_images,
                     s_functional_oracle, so3_weight_oracle, substitute_oracle,
                     symmetrize_tensor, theta_graph, wick_map_live_oracle, wick_map_oracle)


V20 = SymplecticSpace.canonical_even(1, 0)
V21 = SymplecticSpace.canonical_even(1, 1)


def model_k2(v=V20):
    return TensorModel(k2(), v)


def model_g3(v=V20):
    return TensorModel(g3(), v)


def psi(model, h):
    """Psi of a Hamiltonian h on V, term by term through the engine's Psi of
    a monomial."""
    return SuperPolynomial.sum(model.space, (
        c * model._psi_monomial(key) for key, c in h.terms.items()))


# -- Psi at the Hamiltonian level ------------------------------------------

def test_psi_on_k2_cubic_matches_mu_patterns():
    model = model_k2()
    q3 = SuperPolynomial.monomial(V20.space, (1, 1, 1), 1)
    img = psi(model, q3)
    # mu_3 on K2 is supported on permutations of (1, 1, xi); all three give
    # the same monomial z_{1,q}^2 z_{xi,q} with coefficient 1 each
    zq1 = tensor_index(model.nv, 0, 1)
    zqx = tensor_index(model.nv, 1, 1)
    assert img == SuperPolynomial.monomial(model.space, (zq1, zq1, zqx), 3)


def test_psi_degree_preserved_parity_reversed():
    rng = random.Random(1)
    model = model_g3(V21)
    for _ in range(8):
        deg = rng.choice((3, 4))
        par = rng.choice((0, 1))
        try:
            h = sampling.homogeneous_monomial(rng, V21.space, deg, parity=par)
        except ValueError:
            continue
        img = psi(model, h)
        if img.is_zero():
            continue
        assert max_degree(img) == deg and min_degree(img) == deg
        assert polynomial_parity(img) == (par + 1) % 2


def so3_scaled():
    # mu_k has denominators 2, 3 and 5, so Psi runs over mu_k * D
    scales = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), 1, Fraction(5, 2), 3]
    return rescaled(so3_reduced(), [Fraction(s) for s in scales])


@pytest.mark.parametrize("alg", [g3, so3_reduced, so3_scaled])
@pytest.mark.parametrize("v", [V20, V21], ids=["V20", "V21"])
def test_psi_monomial_matches_the_per_entry_oracle(alg, v):
    model = TensorModel(alg(), v)
    nonzero = 0
    denominators = set()
    for degree in range(2, 6):
        for key in sampling.monomial_keys(v.space, degree):
            psi = model._psi_monomial(key)
            ref = psi_monomial_oracle(model, key)
            assert psi.terms == ref.terms
            assert list(psi.terms) == list(ref.terms)
            assert all(type(c) is Fraction for c in psi.terms.values())
            nonzero += not psi.is_zero()
            denominators |= {c.denominator for c in psi.terms.values()}
    assert nonzero
    if alg is so3_scaled:
        assert verify_axioms(model.alg)["ok"]
        assert all(any(d % p == 0 for d in denominators) for p in (2, 3, 5))


def test_psi_rejects_low_order():
    # mu_1 is no vertex tensor, so Psi of a linear monomial is refused
    model = model_k2()
    p = SuperPolynomial.variable(V20.space, 0)
    with pytest.raises(ValueError):
        psi(model, p)


def test_psi_is_shifted_lie_map():
    # {psi(a), psi(b)} = (-1)^{|a|} psi({a,b}); the (-1)^{|a|} is the parity
    # shift transported through Pi, same decoration as the Hamiltonian square.
    # Every quadratic a with every cubic b reaches Psi's mu_2 branch.
    rng = random.Random(2)
    quadratic_pairs = [(SuperPolynomial.monomial(V21.space, ka),
                        SuperPolynomial.monomial(V21.space, kb))
                       for ka in sampling.monomial_keys(V21.space, 2)
                       for kb in sampling.monomial_keys(V21.space, 3)]
    for model in (model_k2(V21), model_g3(V21)):
        cubic_pairs = []
        for _ in range(10):
            pa, pb = rng.choice((0, 1)), rng.choice((0, 1))
            try:
                a = sampling.homogeneous_monomial(rng, V21.space, 3, parity=pa)
                b = sampling.homogeneous_monomial(rng, V21.space, 3, parity=pb)
            except ValueError:
                continue
            cubic_pairs.append((a, b))
        assert len(cubic_pairs) >= 6
        nonzero = 0
        for a, b in cubic_pairs + quadratic_pairs:
            lhs = model.symp.antibracket(psi(model, a), psi(model, b))
            rhs = psi(model, V21.poisson(a, b))
            sgn = -1 if polynomial_parity(a) else 1
            assert (lhs - sgn * rhs).is_zero()
            nonzero += not lhs.is_zero()
        assert nonzero >= len(quadratic_pairs) // 2


def test_psi_field_compatibility_square():
    # The two routes h -> field on A (x) V agree: the Hamiltonian field of
    # Psi(h), and Psi of the Hamiltonian field of h.  For odd h that needs
    # the parity twist (-1)^{|h| (|a_alpha| + 1)} at the variable
    # a_alpha (x) w_i, which ``psi_field`` takes itself.  The rescaled
    # algebras have structure constants with denominators, so Psi divides
    # its integer products by their scale.
    rng = random.Random(3)
    g3_scaled = rescaled(g3(), [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), 1,
                                Fraction(5, 2), 3, Fraction(-1, 4), 7])
    odd = 0
    for model in (model_k2(V21), model_g3(V21), TensorModel(so3_reduced(), V21),
                  TensorModel(g3_scaled, V21), TensorModel(so3_scaled(), V21)):
        for _ in range(5):
            deg = rng.choice((3, 4))
            h = sampling.homogeneous_monomial(rng, V21.space, deg)
            lhs = model.symp.hamiltonian_field(psi(model, h))
            rhs = psi_field(model.alg, V21.hamiltonian_field(h))
            assert rhs.space == model.space
            assert lhs.images == rhs.images
            odd += polynomial_parity(h) == ODD and not lhs.is_zero()
    assert odd >= 5


# -- sigma tilde -------------------------------------------------------------

def test_master_equations_and_printed_dform():
    for v in (V20, V21):
        for alg in (k2(), g3()):
            rep = verify_master_equations(TensorModel(alg, v))
            assert rep["status"] == "pass", rep["witnesses"]


def test_sigma_pairs_k2_through_dform():
    model = model_k2()
    # <xi (x) w, xi (x) w'> = <xi,xi>_d <w,w'>_V = -<w,w'>_V ; all other pairs 0
    b, nv = model.dform, model.nv
    for i in (0, 1):
        for j in (0, 1):
            assert b.rows[tensor_index(nv, 1, i)][tensor_index(nv, 1, j)] == -V20.form.rows[i][j]
            assert b.rows[tensor_index(nv, 0, i)][tensor_index(nv, 0, j)] == 0
            assert b.rows[tensor_index(nv, 0, i)][tensor_index(nv, 1, j)] == 0


def test_sigma_bracket_with_psi_vanishes():
    rng = random.Random(5)
    for model in (model_k2(V21), model_g3(V21)):
        for _ in range(6):
            h = sampling.homogeneous_monomial(rng, V21.space, rng.choice((3, 4)))
            assert model.symp.antibracket(model.sigma, psi(model, h)).is_zero()


# -- the intertwining Psi delta = Delta Psi ----------------------------------

def intertwining_sides(model, chain):
    """(Psi(delta chain), Delta(Psi chain)) on the model space."""
    lhs = SuperPolynomial.sum(model.space, (
        c * psi_of_word(model, word) for word, c in ce_differential(chain).terms.items()))
    rhs = SuperPolynomial.sum(model.space, (
        c * model.symp.odd_laplacian(psi_of_word(model, word))
        for word, c in chain.terms.items()))
    return lhs, rhs


def test_mapcmplx_intertwining():
    rng = random.Random(6)
    for model in (model_k2(V21), model_g3(V21)):
        for _ in range(6):
            l = rng.choice((2, 3))
            polys = [sampling.homogeneous_monomial(rng, V21.space, 3)
                     for _ in range(l)]
            chain = CEChain.from_polynomials(V21, polys)
            if chain.is_zero():
                continue
            lhs, rhs = intertwining_sides(model, chain)
            assert (lhs - rhs).is_zero()


def test_intertwining_and_form_route_fail_on_a_flipped_odd_prefix_sign(monkeypatch):
    # the mutant drops the sign (-1)^{|P|} of an odd variable after an odd
    # prefix in the one-pass walk that the Laplacian and the Hamiltonian
    # fields (so the Poisson bracket inside delta) read their signs from
    walk = symplectic.left_partials

    def flipped(pars, key):
        return {v: (pos, 1 if pars[v] else f) for v, (pos, f) in walk(pars, key).items()}

    polys = [SuperPolynomial.monomial(V21.space, key) for key in ((0, 1, 2), (0, 0, 1))]
    chain = CEChain.from_polynomials(V21, polys)
    for model in (model_k2(V21), model_g3(V21)):
        psi = psi_of_word(model, next(iter(chain.terms)))
        lhs, rhs = intertwining_sides(model, chain)
        assert lhs == rhs and not lhs.is_zero()
        assert model.symp.odd_laplacian(psi) == odd_laplacian_form_oracle(model.symp, psi)
        with monkeypatch.context() as m:
            m.setattr(symplectic, "left_partials", flipped)
            lhs, rhs = intertwining_sides(model, chain)
            assert lhs != rhs
            assert model.symp.odd_laplacian(psi) != odd_laplacian_form_oracle(model.symp, psi)
            assert (model.symp.hamiltonian_field(psi).images
                    != hamiltonian_field_form_oracle(model.symp, psi).images)


# -- S functional -------------------------------------------------------------

def test_s_vanishes_at_the_gauge_of_k2():
    rng = random.Random(7)
    model = model_k2()
    gm = GaugeModel(model, gauge_at(model.alg, ()))
    for _ in range(6):
        polys = [sampling.homogeneous_monomial(rng, V20.space, 3)
                 for _ in range(2)]
        chain = CEChain.from_polynomials(V20, polys)
        assert s_functional(model, gm, chain) == 0


def test_s_vanishes_on_odd_half_edge_count():
    model = model_g3()
    gm = GaugeModel(model, g3_gauge(0, 0, 0, 1, alg=model.alg))
    p = SuperPolynomial.variable(V20.space, 0)
    q = SuperPolynomial.variable(V20.space, 1)
    chain = CEChain.from_polynomials(V20, [p * p * p, q * q * q * q])
    assert s_functional(model, gm, chain) == 0


def test_s_equals_f_after_i_on_quintic_wedge_with_live_cancellation():
    # at the gauge (1,1,1,1) the wedge p^5 ^ q^5 produces nonzero monomial
    # expectations that must cancel exactly against F(I(chain)) = 0
    model = model_g3()
    gm = GaugeModel(model, g3_gauge(1, 1, 1, 1, alg=model.alg))
    p = SuperPolynomial.variable(V20.space, 0)
    q = SuperPolynomial.variable(V20.space, 1)
    chain = CEChain.from_polynomials(V20, [p * p * p * p * p, q * q * q * q * q])
    word = next(iter(chain.terms))
    poly = restricted_product_oracle(gm, word)
    live = [key for key, val in poly.terms.items()
            if val != 0 and gm.weight.monomial_vev(key) != 0]
    assert len(live) >= 4  # the zero is a genuine cancellation, not vacuous
    s = s_functional(model, gm, chain)
    fi = feynman_on_chain(gm.gauge, wick_map(chain))
    assert s == fi == 0


# The wedges of the commute benchmark pool (G3 at gauge (1,1,1,1)); keys
# index p, q (even) and, on V_{2|1}, x (odd).
COMMUTE_WEDGES = (
    (V20, ((0, 0, 0), (1, 1, 1))), (V20, ((0, 0, 1), (0, 0, 1, 1, 1))),
    (V20, ((0, 0, 0, 1), (1, 1, 1, 1))), (V20, ((0, 1, 1, 1), (0, 0, 0, 1))),
    (V20, ((1, 1, 1, 1, 1), (0, 1, 1, 1, 1))),
    (V20, ((0, 0, 1), (1, 1, 1), (0, 0, 0, 0))),
    (V20, ((0, 1, 1), (0, 0, 1), (0, 0, 0, 1))),
    (V20, ((1, 1, 1, 1), (0, 0, 1, 1), (0, 1, 1, 1))),
    (V20, ((1, 1, 1), (0, 0, 1), (0, 0, 0), (0, 1, 1))),
    (V21, ((0, 0, 0), (0, 1, 1))), (V21, ((0, 0, 1), (1, 1, 1, 1, 2))),
    (V21, ((0, 0, 2), (0, 1, 1, 1, 2))), (V21, ((0, 1, 1, 1), (0, 0, 0, 1))),
    (V21, ((0, 1, 1, 2), (0, 0, 0, 1))),
    (V20, ((0, 0, 0), (0, 0, 1), (1, 1, 1, 1))),
    (V20, ((0, 0, 1), (0, 0, 0), (0, 1, 1, 1))),
    (V21, ((1, 1, 1), (0, 0, 0))), (V21, ((0, 0, 1), (1, 1, 1), (0, 0, 1, 1))),
    (V21, ((0, 0, 1), (1, 1, 2), (1, 1, 1, 2))),
    (V20, ((0, 0, 1, 1), (0, 0, 0, 0))), (V20, ((0, 0, 0, 0), (1, 1, 1, 1))),
    (V20, ((0, 0, 1), (0, 1, 1), (0, 1, 1, 1))),
    (V20, ((1, 1, 1), (0, 0, 1), (0, 1, 1, 1))),
    (V21, ((0, 1, 2), (0, 0, 2))), (V21, ((0, 0, 0, 1), (0, 0, 1, 2))),
    (V21, ((1, 1, 2), (0, 0, 1, 1, 1))),
)


def wedge(v, keys):
    return CEChain.from_polynomials(
        v, [SuperPolynomial.monomial(v.space, k) for k in keys])


def matchable_part(gm, poly):
    """The terms of poly of deficiency 0 under the gauge model's weight."""
    support = gm.weight.support
    return SuperPolynomial(poly.space, {k: c for k, c in poly.terms.items()
                                        if not support.deficiency(k)})


def test_restricted_product_matches_full_space_oracle():
    # the product of the restricted Psi factors equals the product over all
    # of A (x) V restricted afterwards, and the cut product of S keeps
    # exactly its terms of deficiency 0.  The words are those of the commute
    # pool's wedges and of their delta, plus p^3 ^ q^3 on so(3); some carry
    # the wedge sign -1 and are nonzero.
    cases = []
    for v in (V20, V21):
        model = model_g3(v)
        gm = GaugeModel(model, g3_gauge(1, 1, 1, 1, alg=model.alg))
        words = set()
        for w, keys in COMMUTE_WEDGES:
            if w is v:
                chain = wedge(v, keys)
                words.update(chain.terms, ce_differential(chain).terms)
        cases += [(model, gm, word) for word in sorted(words)]
    so3 = TensorModel(so3_reduced(), V20)
    cases.append((so3, GaugeModel(so3, gauge_at(so3.alg, ())),
                  ((0, 0, 0), (1, 1, 1))))
    assert len(cases) == 64
    nonzero = odd_sign = 0
    for model, gm, word in cases:
        poly = restricted_product_oracle(gm, word)
        assert poly.space == gm.space
        assert poly == restricted_word_oracle(model, gm, word), word
        assert gm.matchable_word(word) == matchable_part(gm, poly), word
        nonzero += not poly.is_zero()
        odd_sign += not poly.is_zero() and wedge_sign(model.v.space, word) < 0
    assert nonzero >= len(cases) // 2
    assert odd_sign >= 1


# A dense point of the gauge family of so3red + G3: its mu_3 ... mu_6 have
# 90, 404, 1,760 and 6,528 entries
DENSE = (-1, 2, -2, 0, -2, 1, 1, 1, 1, -1)
# the pinned so3red + G3 gauge, at which F is pinned on (2,3), (4,6) and (6,9)
PINNED = (1, 1, 0, 0, 0, 0, 0, 0, 1, 0)


def seeded_wedges(rng, v, sizes, count):
    """`count` wedges of cubics and quartics on v, of a length in `sizes`:
    all but the first have deficiency 0 under the inverse form of v, so I
    and S may be nonzero on them."""
    keys = sampling.monomial_keys(v.space, 3) + sampling.monomial_keys(v.space, 4)
    support = wick.MatchingSupport(v.inverse.rows)
    out = [wedge(v, [rng.choice(keys) for _ in range(max(sizes))])]
    while len(out) < count:
        word = [rng.choice(keys) for _ in range(rng.choice(sizes))]
        chain = wedge(v, word)
        if chain.terms and not support.deficiency([i for key in word for i in key]):
            out.append(chain)
    return out


@pytest.mark.parametrize("v", [V20, V21], ids=["V20", "V21"])
def test_cut_s_equals_the_uncut_route(v):
    # seeded wedges at three G3 gauges, so3red's one gauge and a dense
    # so3red + G3 gauge: the cut S equals the expectation of the uncut
    # restricted product, and the cut product is that product's part of
    # deficiency 0.  Over V_{2|1} every weight has a component that is not
    # bipartite, so the parity branch runs.
    rng = random.Random(29)
    dense = direct_sum(so3_reduced(), g3())
    nonzero = parity = 0
    for alg, gauge, sizes in ((g3(), lambda a: g3_gauge(1, 1, 1, 1, alg=a), (2, 3)),
                              (g3(), lambda a: g3_gauge(0, 0, 0, 1, alg=a), (2, 3)),
                              (g3(), lambda a: g3_gauge(1, 2, 3, 4, alg=a), (2, 3)),
                              (so3_reduced(), lambda a: gauge_at(a, ()), (2, 3)),
                              (dense, lambda a: gauge_at(a, DENSE), (2,))):
        model = TensorModel(alg, v)
        gm = GaugeModel(model, gauge(alg))
        parity += not all(gm.weight.support.bipartite)
        for chain in seeded_wedges(rng, v, sizes, 8):
            for word in chain.terms:
                assert gm.matchable_word(word) == matchable_part(
                    gm, restricted_product_oracle(gm, word)), word
            s = s_functional(model, gm, chain)
            assert s == s_functional_oracle(gm, chain), chain.render()
            nonzero += s != 0
    assert nonzero >= 3
    assert parity == (5 if v is V21 else 0)


def dense_wedge_case():
    """so3red + G3 at the dense gauge over V_{4|0}, with the 4-wedge
    p1^2 p2 ^ p1 q2^2 ^ p2 q1^2 ^ p2 q1 q2."""
    v40 = SymplecticSpace.canonical_even(2, 0)
    alg = direct_sum(so3_reduced(), g3())
    model = TensorModel(alg, v40)
    gm = GaugeModel(model, gauge_at(alg, DENSE))
    return model, gm, wedge(v40, ((0, 0, 1), (0, 3, 3), (1, 2, 2), (1, 2, 3)))


def test_commute_pins_s_equal_f_of_i_at_a_dense_gauge():
    # the uncut restricted product of this wedge has about a million
    # monomials; the cut forms only those a perfect matching can complete
    model, gm, chain = dense_wedge_case()
    rep = verify_commute(model, gm, chain)
    assert rep["status"] == "pass", rep["witnesses"]
    assert s_functional(model, gm, chain) == -48
    assert feynman_on_chain(gm.gauge, wick_map(chain)) == -48
    p3q3 = wedge(V20, ((0, 0, 0), (1, 1, 1)))
    model20 = TensorModel(model.alg, V20)
    gm20 = GaugeModel(model20, gm.gauge)
    assert s_functional(model20, gm20, p3q3) == -36 == s_functional_oracle(gm20, p3q3)
    assert feynman_on_chain(gm.gauge, wick_map(p3q3)) == -36


@pytest.mark.parametrize("last_factor_exact", [False, True])
def test_s_pins_fail_when_the_cut_drops_at_deficiency_r(monkeypatch, last_factor_exact):
    # the mutant drops a partial product at deficiency >= R, one too early.
    # The cut runs inside each half of a word, where R counts the other
    # half's variables and so is never 0: both mutants drop terms that
    # complete, and the dense wedge reads -5664.  p^3 ^ q^3 has halves of one
    # factor each, which no cut tests, so its S stays right
    def early(self, tally, more):
        d = self._deficiency(tally)
        return d < more or (last_factor_exact and d == more == 0)

    monkeypatch.setattr(wick.MatchingSupport, "completable", early)
    model, gm, chain = so3_commute_case()
    assert verify_commute(model, gm, chain)["status"] == "pass"
    model, gm, chain = dense_wedge_case()
    rep = verify_commute(model, gm, chain)
    assert rep["status"] == "fail"
    assert rep["witnesses"][0]["S"] == "-5664"
    assert rep["witnesses"][0]["F_I"] == "-48"


def test_commute_fails_when_the_join_looks_up_the_complement_at_plus_t(monkeypatch):
    # the mutant joins the left group of tally t with the right groups of
    # tally +t, whose sum has deficiency 0 only where t is 0 on the
    # bipartite components: S loses its nonzero terms
    residue = wick.MatchingSupport.residue
    monkeypatch.setattr(wick.MatchingSupport, "residue",
                        lambda self, tally, sign=1: residue(self, tally))
    for case, f_of_i in ((so3_commute_case, "-36"), (dense_wedge_case, "-48")):
        model, gm, chain = case()
        rep = verify_commute(model, gm, chain)
        assert rep["status"] == "fail"
        assert (rep["witnesses"][0]["S"], rep["witnesses"][0]["F_I"]) == ("0", f_of_i)


# words of 1-4 monomials for the join, by V: over V_{2|1} and V_{2|2}, p, q
# and x1 are 0, 1 and 2 (x2 is 3); over V_{4|1}, p1, p2, q1, q2 and x are
# 0-4.  Each has deficiency 0 under the inverse form of V.  The words of odd
# length give 0 at every gauge of ``join_cases``; the others mostly do not
JOIN_WORDS = {
    (1, 1): (((0, 0, 1, 1),), ((0, 0, 1), (0, 1, 1), (0, 0, 1, 1)),
             ((0, 0, 0), (1, 1, 1)), ((0, 0, 2), (1, 1, 2)),
             ((0, 0, 1), (0, 0, 0), (1, 1, 2), (1, 1, 2)),
             ((1, 1, 2), (1, 1, 1), (0, 0, 0), (0, 0, 2))),
    (1, 2): (((0, 0, 1, 1),), ((0, 0, 1), (0, 1, 1), (0, 0, 1, 1)),
             ((0, 1, 1), (0, 0, 1)), ((0, 0, 2), (1, 1, 2)),
             ((0, 0, 1), (1, 1, 3), (0, 0, 0), (1, 1, 3)),
             ((0, 1, 1), (0, 0, 2), (1, 1, 1), (0, 0, 2))),
    (2, 1): (((0, 1, 2, 3),), ((0, 1, 2), (0, 2, 3), (1, 1, 3, 3)),
             ((0, 0, 1), (2, 2, 3)), ((1, 2, 3), (0, 0, 2)),
             ((1, 2, 4), (0, 1, 2), (0, 3, 4), (0, 2, 3))),
}


def join_cases():
    """(gauge model, words): the ``JOIN_WORDS`` over V_{2|1}, V_{2|2} and
    V_{4|1}, at so3red's gauge, at the pinned and the dense so3red + G3
    gauges and at G5's seed-2 gauge.  The 4-word over V_{4|1} is left out at
    the last two, where its half products hold thousands of terms."""
    so3, dense, five = so3_reduced(), direct_sum(so3_reduced(), g3()), g5()
    gauges = ((so3, lambda a: gauge_at(a, ())),
              (dense, lambda a: gauge_at(a, PINNED)),
              (dense, lambda a: gauge_at(a, DENSE)),
              (five, lambda a: g5_gauge(a, 2)))
    cases = []
    for (n, m), words in JOIN_WORDS.items():
        v = SymplecticSpace.canonical_even(n, m)
        models = {alg: TensorModel(alg, v) for alg in (so3, dense, five)}
        for r, (alg, gauge) in enumerate(gauges):
            cases.append((GaugeModel(models[alg], gauge(alg)),
                          [w for w in words if r < 2 or n == 1 or len(w) < 4]))
    return cases


def half_merges(gm, word):
    """(whether both half products of the word are nonempty, the pairs of a
    left and a right half term of the join with the merge sign -1)."""
    half = len(word) // 2
    support = gm.weight.support
    _, left = gm._half_product(word[:half], sum(map(len, word[half:])))
    _, right = gm._half_product(word[half:], sum(map(len, word[:half])))
    complements = {}
    for u, group in right:
        complements.setdefault(support.residue(u), []).extend(group)
    odd = sum(merge_keys(gm.space, k1, k2)[1] < 0 for t, group in left for k1, _ in group
              for k2, _ in complements.get(support.residue(t, -1), ()))
    return bool(left and right), odd


def test_join_of_half_products_matches_the_pairwise_cut(monkeypatch):
    # the join equals the pairwise cut of the whole word as polynomials, on
    # words of every length 1-4, and so on uneven halves (l = 1, 3): there
    # both halves are nonempty and no pair completes.  Some merges of a left
    # and a right half term that complete have the merge sign -1.  With the
    # parity test on the non-bipartite components dropped, the join keeps
    # terms of nonzero deficiency: S reads them as 0, but the polynomials
    # differ
    nonzero = {length: 0 for length in (1, 2, 3, 4)}
    uneven = odd = 0
    cases = join_cases()
    for gm, words in cases:
        for word in words:
            poly = gm.matchable_word(word)
            assert poly == matchable_word_oracle(gm, word), word
            nonzero[len(word)] += not poly.is_zero()
            both, merges = half_merges(gm, word)
            uneven += len(word) % 2 and both
            odd += merges
    assert nonzero[2] >= 20 and nonzero[4] >= 8 and uneven >= 12 and odd
    residue = wick.MatchingSupport.residue
    monkeypatch.setattr(wick.MatchingSupport, "residue",
                        lambda self, tally, sign=1: residue(self, tally, sign)[:self._split])
    assert any(gm.matchable_word(word) != matchable_word_oracle(gm, word)
               for gm, words in cases for word in words)


def test_mu_k_on_the_a_basis_is_graded_symmetric():
    # the premise of the restricted table: swapping two neighbouring
    # arguments of mu_k costs (-1)^{|x||y|} on every fixture algebra
    for alg in (k2(), g3(), so3_reduced(), so3_scaled(), direct_sum(so3_reduced(), g3()), g5()):
        pars = alg.space.parities
        for k in range(2, 7):
            mu = alg.vertex_tensors.mu(k)
            for idx, x in mu.items():
                for r in range(k - 1):
                    swapped = idx[:r] + (idx[r + 1], idx[r]) + idx[r + 2:]
                    sign = -1 if pars[idx[r]] and pars[idx[r + 1]] else 1
                    assert mu.get(swapped) == sign * x, (alg.name, idx)
    assert g5().vertex_tensors.mu(6)


def expand_graded_symmetric(gm, k):
    """The entries of ``restricted_mu(k)`` at every ordering of each sorted
    tuple of gauge indices, by the Koszul sign of the ordering."""
    scale, entries = gm.restricted_mu(k)
    pars = gm.gauge.parities
    out = {}
    for s, n in entries:
        assert list(s) == sorted(s)
        for perm in permutations(range(k)):
            out[tuple(s[i] for i in perm)] = koszul_sign(perm, [pars[t] for t in s]) * Fraction(n, scale)
    return out


def test_symmetric_restricted_mu_expands_to_the_index_by_index_contraction():
    # on the gauge of every fixture, one with D_L = 2 among them, and every
    # valence 2..6, the table at sorted indices, expanded by the Koszul sign
    # of each ordering, is mu_k on the gauge basis at every index tuple
    two = k2()
    gms = [gm for gm, _ in tallied_factor_cases() if gm.model.v is V20 or gm.model.alg.name != "G3"]
    gms.append(GaugeModel(TensorModel(two, V20), gauge_at(two, ())))
    assert any(integer_matrix(gm.gauge.vectors)[0] > 1 for gm in gms)
    sizes = set()
    for gm in gms:
        for k in range(2, 7):
            full = restricted_mu_oracle(gm, k)
            assert expand_graded_symmetric(gm, k) == full, (gm.gauge.label, k)
            sizes.add((len(gm.restricted_mu(k)[1]), len(full)))
    # G3 at (1, 1, 1, 1) at k = 5, the dense so3red + G3 gauge at k = 6
    assert {(5, 80), (48, 6528)} <= sizes


def test_restricted_psi_is_memoised_per_gauge_model():
    # the restricted Psi of a monomial is kept once per key and gauge model,
    # over ints and grouped by tally (GaugeModel._tallied_factor)
    model = model_g3(V21)
    gm = GaugeModel(model, g3_gauge(1, 1, 1, 1, alg=model.alg))
    key = (0, 1, 2)
    assert gm._tallied_factor(key) is gm._tallied_factor(key)
    d, groups = gm._tallied_factor(key)
    restricted = gm.restrict(model._psi_monomial(key))
    scale, terms = integer_terms(restricted.terms)
    assert terms and d == scale
    # each group as a dict: the values, not the order of the terms
    assert {t: dict(group) for t, group in groups} == {
        t: dict(group) for t, group in gm.weight.support.group(terms).items()}
    twin = GaugeModel(model, gm.gauge)
    assert twin._tallied_factor(key) is not gm._tallied_factor(key)


def weight_cases():
    """Gauge models over V_{2|0}, V_{2|1}, V_{2|2} and V_{4|1}: so3red's
    gauge, the pinned and the dense so3red + G3 gauges, G3 at (1,1,1,1),
    (1,2,3,4) and at a Fraction coordinate, whose basis has D_L = 2, and G5
    at seed 2."""
    so3, dense, three, five = so3_reduced(), direct_sum(so3_reduced(), g3()), g3(), g5()
    gauges = ((so3, lambda a: gauge_at(a, ())),
              (dense, lambda a: gauge_at(a, PINNED)),
              (dense, lambda a: gauge_at(a, DENSE)),
              (three, lambda a: g3_gauge(1, 1, 1, 1, alg=a)),
              (three, lambda a: g3_gauge(1, 2, 3, 4, alg=a)),
              (three, lambda a: g3_gauge(Fraction(1, 2), 0, 1, 1, alg=a)),
              (five, lambda a: g5_gauge(a, 2)))
    for v in (V20, V21, SymplecticSpace.canonical_even(1, 2),
              SymplecticSpace.canonical_even(2, 1)):
        models = {alg: TensorModel(alg, v) for alg in (so3, dense, three, five)}
        for alg, gauge in gauges:
            yield GaugeModel(models[alg], gauge(alg))


def test_weight_is_sigma_restricted_by_substitution():
    # the weight is the Gram matrix C^T B C of the tensor model's form on
    # the columns of the inclusion L (x) V -> A (x) V; it equals i_2 of
    # sigma-tilde restricted term by term, entry for entry, on every case,
    # entries between two odd variables and a basis with D_L = 2 included
    scales, odd_entries, cases = set(), 0, 0
    for gm in weight_cases():
        rows = gm.weight.form.rows
        assert rows == restricted_weight_oracle(gm.model, gm).rows, gm.gauge.label
        pars = gm.space.parities
        odd_entries += sum(1 for i, row in enumerate(rows) for j, x in enumerate(row)
                           if x and pars[i] and pars[j])
        scales.add(integer_matrix(gm.gauge.vectors)[0])
        cases += 1
    assert cases == 28 and odd_entries and 2 in scales


def tallied_factor_cases():
    """(gauge model, top degree): G3 over V_{2|0}, V_{2|1} and V_{2|2} at
    the three benchmark gauges and at one with a Fraction coordinate, whose
    basis has D_L = 2; so3red over V_{4|1} and, rescaled so that mu_k has
    denominators, over V_{2|1}; the dense so3red + G3 gauge; G5 at seed 2.
    A sorted key has its odd variables last, so only V_{2|2}, with two of
    them, reaches a shuffle sign of -1."""
    v41 = SymplecticSpace.canonical_even(2, 1)
    dense = direct_sum(so3_reduced(), g3())
    five = g5()
    cases = []
    for v in (V20, V21, SymplecticSpace.canonical_even(1, 2)):
        model = model_g3(v)
        cases += [(GaugeModel(model, g3_gauge(*params, alg=model.alg)), 5)
                  for params in ((0, 0, 0, 1), (1, 1, 1, 1), (1, 2, 3, 4),
                                 (Fraction(1, 2), 0, 1, 1))]
    so3 = TensorModel(so3_reduced(), v41)
    cases.append((GaugeModel(so3, gauge_at(so3.alg, ())), 5))
    scaled = TensorModel(so3_scaled(), V21)
    cases.append((GaugeModel(scaled, gauge_at(scaled.alg, ())), 5))
    cases.append((GaugeModel(TensorModel(dense, V20), gauge_at(dense, DENSE)), 3))
    cases.append((GaugeModel(TensorModel(five, V20), g5_gauge(five, 2)), 5))
    return cases


def test_tallied_factor_matches_the_restricted_full_space_oracle():
    # Psi of every monomial of degree 2..5 restricted after the lift over A
    # (the per-entry oracle, then the substitution oracle) equals the
    # factor lifted from mu_k on the gauge basis, value by value and tally
    # by tally, with D the lcm of its denominators.  The gcd step runs on a
    # gauge basis with D_L > 1 and on restricted factors with D > 1
    nonzero = 0
    scales = set()
    for gm, top in tallied_factor_cases():
        scales.add(integer_matrix(gm.gauge.vectors)[0])
        for degree in range(2, top + 1):
            for key in sampling.monomial_keys(gm.model.v.space, degree):
                d, groups = gm._tallied_factor(key)
                ref = substitute_oracle(psi_monomial_oracle(gm.model, key),
                                        restriction_images(gm), gm.space)
                assert d == integer_terms(ref.terms)[0], key
                assert {t: {k: Fraction(n, d) for k, n in group} for t, group in groups} == {
                    t: dict(group) for t, group in
                    gm.weight.support.group(ref.terms.items()).items()}, key
                nonzero += bool(groups)
                scales.add(d)
    assert nonzero and {2, 5} <= scales


def test_psi_vev_vertex_tensor_and_diagram_memos_stay_within_their_bounds(monkeypatch):
    # with every bound below what S = -36 on p^3 q^3 reads, each memo is
    # cleared when full and the values stay the same.  S restricts no
    # full-space Psi, so it leaves the tensor model's Psi memo empty
    monkeypatch.setattr(dual, "_PSI_SIZE", 1)
    monkeypatch.setattr(dual, "_RESTRICTED_MU_SIZE", 1)
    monkeypatch.setattr(wick, "_VEV_SIZE", 2)
    monkeypatch.setattr(frobenius, "_VALENCES_SIZE", 1)
    monkeypatch.setattr(wick, "_CHORD_DIAGRAMS_SIZE", 1)
    monkeypatch.setattr(wick, "_chord_diagrams", {})
    model, gm, chain = so3_commute_case()
    vevs = []
    vev = gm.weight._vev

    def watched(key):
        out = vev(key)
        vevs.append(len(gm.weight._memo))
        return out

    monkeypatch.setattr(gm.weight, "_vev", watched)
    assert s_functional(model, gm, chain) == -36
    assert max(vevs) == 2 and (2, 1) in zip(vevs, vevs[1:])
    assert len(model._psi_cache) == 0 and len(gm._tallied) == 1
    mu3 = gm.restricted_mu(3)
    assert [gm.restricted_mu(k) for k in (3, 2, 3)] == [
        mu3, GaugeModel(model, gm.gauge).restricted_mu(2), mu3]
    assert len(gm._mu_tables) == 1
    table = model.vertex_tensors
    assert [table.mu(k) for k in (3, 2, 3)] == [frobenius.vertex_tensor(model.alg, k)
                                                 for k in (3, 2, 3)]
    assert len(table._integer_mu) == 1
    assert [len(chord_diagrams(k)) for k in (3, 2, 3)] == [15, 3, 15]
    assert len(wick._chord_diagrams) == 1


def test_cocycle_graphs_rejects_a_foreign_gauge_model():
    # F would be computed at the other model's gauge and reported under
    # this model's algebra
    model = model_g3()
    other = TensorModel(so3_reduced(), V20)
    gm = GaugeModel(other, gauge_at(other.alg, ()))
    with pytest.raises(ValueError, match="different tensor model"):
        verify_cocycle_graphs(model, gm, 2, 3)
    twin = TensorModel(model.alg, V20)
    with pytest.raises(ValueError, match="different tensor model"):
        verify_cocycle_graphs(model, GaugeModel(twin, g3_gauge(1, 1, 1, 1, alg=model.alg)), 2, 3)


def test_s_functional_rejects_a_foreign_gauge_model():
    model = model_g3()
    other = TensorModel(model.alg, V20)
    gm = GaugeModel(other, g3_gauge(1, 1, 1, 1, alg=model.alg))
    with pytest.raises(ValueError):
        s_functional(model, gm, wedge(V20, ((0, 0, 0), (1, 1, 1))))


# -- Feynman amplitudes --------------------------------------------------------

def test_feynman_k2_all_zero():
    gauge = gauge_at(k2(), ())
    for (v, e) in ((2, 3), (2, 5), (4, 6)):
        vals = feynman_cochain(gauge, v, e)
        assert all(x == 0 for x in vals.values())


def test_feynman_theta_value_is_gauge_independent_zero():
    # theta is a cycle that cannot bound (bidegree (3,4) is empty), so its
    # amplitude is gauge independent; the product gauge eta*C has identically
    # vanishing interactions, forcing zero for the whole G3 family
    for params in ((0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 1), (1, 2, 3, 4)):
        assert feynman_value(g3_gauge(*params), theta_graph()) == 0


def test_feynman_vanishes_on_g3_at_5_8_and_6_9():
    # the reach of the cut recursion: mu_3 and mu_4 at gauge (1,1,1,1) over
    # every graph of (5,8) and (6,9); the amplitudes vanish as on the rest of
    # the G3 family
    gauge = g3_gauge(1, 1, 1, 1)
    for (v, e), count in (((5, 8), 4), ((6, 9), 7)):
        vals = feynman_cochain(gauge, v, e)
        assert len(vals) == count
        assert all(x == 0 for x in vals.values())


def test_gauge_owns_its_feynman_data():
    # the propagator is taken once, when the gauge is built, its integer
    # form and row supports with it, and mu_k with its integer form once per
    # valence; a gauge model carries neither
    alg = g3()
    for params in ((0, 0, 0, 0), (1, 1, 1, 1), (1, 2, 3, 4)):
        gauge = g3_gauge(*params, alg=alg)
        assert gauge.propagator == gauge.restricted_form().inverse().rows
        d_p, prop = gauge.integer_propagator
        assert gauge.integer_propagator is gauge.integer_propagator
        assert prop == [[x * d_p for x in row] for row in gauge.propagator]
        assert gauge.partners == partner_lists(gauge.propagator)
        table = gauge.vertex_tensors
        for k in (3, 4):
            assert table.mu(k) == vertex_tensor_on_vectors(alg, gauge.vectors, k)
            scale, entries = table.integer_mu(k)
            assert table.integer_mu(k) is table.integer_mu(k)
            assert list(table.mu(k).items()) == [(key, Fraction(val, scale))
                                                 for key, val in entries]
        assert feynman_value(gauge, theta_graph()) == 0
    model = model_g3()
    gm = GaugeModel(model, g3_gauge(1, 1, 1, 1, alg=model.alg))
    assert not hasattr(gm, "mu") and not hasattr(gm, "propagator")


def test_shuffle_sign_is_koszul_sign():
    # a_1..a_k w_1..w_k rearranged to a_1 w_1 a_2 w_2 ... a_k w_k
    for k in range(1, 5):
        order = [s for r in range(k) for s in (r, k + r)]
        for bits in range(4 ** k):
            pars = [(bits >> i) & 1 for i in range(2 * k)]
            apar, vpar = pars[:k], pars[k:]
            assert shuffle_sign(vpar, apar) == koszul_sign(order, pars)


def test_product_gauge_has_no_interactions():
    # The vanishing theorem, first half.  With a unit 1 = d(xi), the gauge
    # xi A is isotropic and square-zero, so mu_k vanishes on it for every
    # k >= 3: K2's gauge is xi A, and G3's (0,0,0,0) is eta * C with
    # eta = xi1 - xi123.
    for gauge in (gauge_at(k2(), ()), g3_gauge(0, 0, 0, 0)):
        for k in (3, 4, 5, 6):
            assert vertex_tensor_on_vectors(gauge.alg, gauge.vectors, k) == {}


def test_feynman_vanishes_on_cycles_at_a_gauge_with_interactions():
    # The vanishing theorem, second half: F = 0 on cycles at the square-zero
    # gauge, hence at every gauge.  At (1,1,1,1) mu_3..mu_6 are nonempty, yet
    # F vanishes on the cycle_space bases of (2,3) and (4,6).
    gauge = g3_gauge(1, 1, 1, 1)
    assert [len(gauge.vertex_tensors.mu(k)) for k in (3, 4, 5, 6)] == [12, 32, 80, 192]
    for (v, e), n_cycles in (((2, 3), 1), ((4, 6), 2)):
        _, cycles = cycle_space(v, e)
        assert len(cycles) == n_cycles
        assert [feynman_on_chain(gauge, z) for z in cycles] == [0] * n_cycles


def test_so3_fixture_gives_nonzero_amplitudes(monkeypatch):
    # the reduced so(3) algebra has no unit, so the vanishing theorem does not
    # apply: F(theta) = 6 and F is nonzero on the cycle_space bases, up to
    # the 6 cycles of loop order 5.  F reads the bare gauge: no tensor model
    # is built.
    def no_model(*args):
        raise AssertionError("F built a tensor model")

    monkeypatch.setattr(TensorModel, "__init__", no_model)
    gauge = gauge_at(so3_reduced(), ())
    assert feynman_value(gauge, theta_graph()) == 6
    for (v, e), values in (((2, 3), [6]), ((4, 6), [36, -42]),
                           ((6, 9), [216, -252, 138]),
                           ((8, 12), [1296, -1512, 828, 1764, -4824, -1582])):
        _, cycles = cycle_space(v, e)
        assert [feynman_on_chain(gauge, z) for z in cycles] == values


# the trivalent bidegrees through (10,15); so3red's mu_4 and beyond vanish
SO3_BIDEGREES = ((2, 3), (4, 6), (6, 9), (8, 12), (10, 15))


def so3_weight_mismatches(feynman, bidegrees):
    """(graph, F, weight) for each graph of the bidegrees where F at so3red's
    one gauge differs from ``so3_weight_oracle``."""
    gauge = gauge_at(so3_reduced(), ())
    return [(g, f, w) for v, e in bidegrees for g in enumerate_graphs(v, e)
            if (f := feynman(gauge, g)) != (w := so3_weight_oracle(g))]


def test_feynman_value_is_the_so3_weight_system():
    # at so3red's one gauge mu_3 is eps and the propagator is -delta, so F is
    # the so(3) weight system, read off the graph alone; it catches a fault
    # that F and the chord sign of I would share.  All but one graph of
    # (10,15) are nonzero
    assert so3_weight_mismatches(feynman_value, SO3_BIDEGREES) == []
    assert [sum(1 for g in enumerate_graphs(v, e) if so3_weight_oracle(g))
            for v, e in SO3_BIDEGREES] == [1, 3, 7, 24, 85]


def test_so3_weight_system_sees_a_dropped_chord_sign_of_f(monkeypatch):
    # F is the recursion that takes the chord sign at each leaf; it agrees
    # with the weight system, and with that sign dropped theta reads -6
    # against 6, and the (4,6) graphs 36, 12, 6 against 36, -12, -6
    bidegrees = ((2, 3), (4, 6))
    assert so3_weight_mismatches(feynman_leaf_sign_oracle, bidegrees) == []
    monkeypatch.setattr(oracles, "chord_sign", lambda parities, chord: 1)
    assert [(g.graph_id(), f, w) for g, f, w in
            so3_weight_mismatches(feynman_leaf_sign_oracle, bidegrees)] == [
        ("v2e3:0-1,0-1,0-1", -6, 6), ("v4e6:0-1,0-1,0-2,1-3,2-3,2-3", 12, -12),
        ("v4e6:0-1,0-2,0-3,1-2,1-3,2-3", 6, -6)]


def test_so3_cycles_of_10_15_are_pinned():
    # the nine cycles of (10,15) at so3red's one gauge, F and the weight
    # system graph by graph alike
    gauge = gauge_at(so3_reduced(), ())
    _, cycles = cycle_space(10, 15)
    values = [7776, -9072, 4968, 10584, -28944, -9492, -5796, -20736, Fraction(79518, 5)]
    assert [feynman_on_chain(gauge, z) for z in cycles] == values
    assert [sum(c * so3_weight_oracle(g) for g, c in z.terms.items())
            for z in cycles] == values


def test_amplitudes_are_computed_once_and_stay_within_their_bound(monkeypatch):
    # one feynman_value call per (gauge, graph) while the memo holds it; a
    # full memo is cleared, so it never holds more than its bound
    monkeypatch.setattr(dual, "_AMPLITUDES_SIZE", 3)
    gauge = gauge_at(so3_reduced(), ())
    kernel = dual.feynman_value
    calls = []

    def counted(g, graph):
        assert len(g.amplitudes) <= 3
        calls.append(graph)
        return kernel(g, graph)

    monkeypatch.setattr(dual, "feynman_value", counted)
    values = [216, -72, -36, 24, -24, 12, 6]
    assert list(feynman_cochain(gauge, 6, 9).values()) == values
    assert calls == enumerate_graphs(6, 9) and len(gauge.amplitudes) <= 3
    # the last clear left the last graph alone in the memo
    last = GraphChain({calls[-1]: Fraction(1)})
    assert feynman_on_chain(gauge, last) == 6 and len(calls) == 7
    assert list(feynman_cochain(gauge, 6, 9).values()) == values
    assert len(calls) == 14 and len(gauge.amplitudes) <= 3


def test_a_patched_feynman_value_shows_on_fresh_gauges(monkeypatch):
    # a fault injected into feynman_value reaches the suites only through
    # gauges whose amplitudes it computes: a warm gauge answers from its memo,
    # so a fault-injection test builds its gauges fresh
    warm = so3_commute_case()
    assert verify_commute(*warm)["status"] == "pass"
    kernel = dual.feynman_value
    monkeypatch.setattr(dual, "feynman_value", lambda g, graph: -kernel(g, graph))
    assert verify_commute(*warm)["status"] == "pass"
    model, gm, chain = so3_commute_case()
    rep = verify_commute(model, gm, chain)
    assert rep["status"] == "fail"
    assert rep["witnesses"] == [{"S": "-36", "F_I": "36", "chain": chain.to_json()}]


def test_so3_amplitudes_are_multiplicative_on_disjoint_unions():
    # F of a disconnected graph is the product of F on its components, up to
    # the signs of presenting the components as consecutive vertex blocks
    gauge = gauge_at(so3_reduced(), ())

    def value(g):
        return feynman_value(gauge, g)

    disconnected = nonzero = 0
    for v, e in ((4, 6), (6, 9), (8, 12)):
        for g in enumerate_graphs(v, e):
            if len(connected_components(g)) == 1:
                continue
            product = feynman_product_oracle(value, g)
            assert value(g) == product, g
            disconnected += 1
            nonzero += product != 0
    assert (disconnected, nonzero) == (14, 14)


def test_feynman_value_is_exact_on_fractional_tensors():
    # F does not depend on the basis of L.  Scaled by 1/2, -2/3 and 3/5, mu_3
    # has denominator 5 and the propagator 4 and 9, so the recursion runs over
    # mu_3 times its table's scale and prop * 36: a dropped division by the
    # scales, or a wrong exponent, changes every value below
    gauge = gauge_at(so3_reduced(), ())
    scales = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5))
    scaled = Gauge(gauge.alg, [[s * x for x in v] for s, v in zip(scales, gauge.vectors)])
    assert {m.denominator for m in scaled.vertex_tensors.mu(3).values()} == {5}
    assert {p.denominator for row in scaled.propagator for p in row} == {1, 4, 9}
    theta = feynman_value(scaled, theta_graph())
    assert theta == 6 and type(theta) is Fraction
    for (v, e), values in (((4, 6), [36, -12, -6]),
                           ((6, 9), [216, -72, -36, 24, -24, 12, 6])):
        cochain = feynman_cochain(scaled, v, e)
        assert list(cochain.values()) == values
        assert cochain == feynman_cochain(gauge, v, e)
        assert all(type(x) is Fraction for x in cochain.values())
        if v == 4:
            assert all(x == feynman_value_oracle(scaled, g) for g, x in cochain.items())


def test_feynman_values_at_a_mixed_parity_dense_gauge():
    # so3red + G3 at a gauge whose L has even and odd vectors: unlike on
    # so3red's all-odd L, the parity test of the folded chord sign decides
    # these nonzero values; each is checked against the recursion that
    # takes the chord sign by koszul_sign at every leaf
    alg = direct_sum(so3_reduced(), g3())
    assert verify_axioms(alg)["ok"]
    gauge = gauge_at(alg, (1, 1, 0, 0, 0, 0, 0, 0, 1, 0))
    assert gauge.parities == [ODD] * 4 + [EVEN] * 2 + [ODD]
    assert [len(gauge.vertex_tensors.mu(k)) for k in (3, 4, 5, 6)] == [33, 76, 165, 306]
    theta = feynman_value(gauge, theta_graph())
    assert theta == 6 == feynman_value_oracle(gauge, theta_graph())
    assert theta == feynman_leaf_sign_oracle(gauge, theta_graph())
    for (v, e), values in (((4, 6), [36, -12, -6]),
                           ((6, 9), [216, -72, -36, 24, -24, 12, 6])):
        cochain = feynman_cochain(gauge, v, e)
        assert list(cochain.values()) == values
        assert all(x == feynman_leaf_sign_oracle(gauge, g) for g, x in cochain.items())


def test_so3_fixture_makes_s_equal_f_of_i_compare_nonzero_values():
    model = TensorModel(so3_reduced(), V20)
    gm = GaugeModel(model, gauge_at(model.alg, ()))
    chain = wedge(V20, ((0, 0, 0), (1, 1, 1)))  # p^3 ^ q^3
    rep = verify_commute(model, gm, chain)
    assert rep["status"] == "pass", rep["witnesses"]
    assert s_functional(model, gm, chain) == -36
    assert feynman_on_chain(gm.gauge, wick_map(chain)) == -36
    # q^3 ^ p^3 sorts to -(p^3 ^ q^3): an adjacent swap of even factors costs -1
    assert s_functional(model, gm, wedge(V20, ((1, 1, 1), (0, 0, 0)))) == 36


def test_s_equals_f_of_i_on_a_fractional_so3_gauge():
    # S and F do not depend on the basis of L.  Scaled by 1/2, -2/3 and 3/5,
    # the restriction's columns have denominators 2, 3 and 5, so mu_k on the
    # gauge basis runs over ints at D_L = 30 and divides by 30^k; a wrong
    # exponent changes S, and the restricted Psi is checked against the
    # oracle that restricts by Fraction products
    model = TensorModel(so3_reduced(), V20)
    gauge = gauge_at(model.alg, ())
    scales = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5))
    scaled = Gauge(gauge.alg, [[s * x for x in v] for s, v in zip(scales, gauge.vectors)])
    gm = GaugeModel(model, scaled)
    assert {c.denominator for v in gm.vectors for c in v if c} == {2, 3, 5}
    chain = wedge(V20, ((0, 0, 0), (1, 1, 1)))  # p^3 ^ q^3
    word = next(iter(chain.terms))
    poly = restricted_product_oracle(gm, word)
    assert not poly.is_zero() and poly == restricted_word_oracle(model, gm, word)
    rep = verify_commute(model, gm, chain)
    assert rep["status"] == "pass", rep["witnesses"]
    s = s_functional(model, gm, chain)
    assert s == -36 and type(s) is Fraction
    assert feynman_on_chain(gm.gauge, wick_map(chain)) == -36


def test_feynman_value_invariant_under_slot_assignment():
    # beta_c(mu (x) ... (x) mu) must not depend on which half-edge slot of a
    # vertex an edge consumes; checked synthetically with nonzero data
    rng = random.Random(8)
    space = SuperSpace(("a", "b", "s", "t"), (EVEN, EVEN, ODD, ODD))
    for _ in range(6):
        raw = {tuple(rng.randrange(4) for _ in range(3)):
               sampling.rational(rng, zero_ok=False) for _ in range(5)}
        mu3 = symmetrize_tensor(space, raw, 3)
        mu4 = dict(mu3)
        form = _random_even_skew(rng, space)
        prop = form.inverse().rows
        chord = ((0, 3), (1, 4), (2, 5))
        vals = set()
        for sig1 in permutations(range(3)):
            for sig2 in permutations(range(3)):
                total = Fraction(0)
                for k1, v1 in mu3.items():
                    for k2, v2 in mu4.items():
                        assign = [k1[sig1[r]] for r in range(3)] \
                            + [k2[sig2[r]] for r in range(3)]
                        sgn1 = koszul_sign(sig1, [space.parities[i] for i in k1])
                        sgn2 = koszul_sign(sig2, [space.parities[i] for i in k2])
                        pars = [space.parities[i] for i in assign]
                        total += sgn1 * sgn2 * v1 * v2 * beta_contract_indices(
                            pars, assign, chord, prop)
                vals.add(total)
        assert len(vals) == 1


def _random_even_skew(rng, space):
    n = len(space)
    while True:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if (space.parities[i] + space.parities[j]) % 2:
                    continue
                c = sampling.rational(rng)
                k = -1 if (space.parities[i] and space.parities[j]) else 1
                if i == j:
                    if k == -1:
                        rows[i][i] = c
                else:
                    rows[i][j] = c
                    rows[j][i] = -k * c
        b = BilinearForm(space, rows, EVEN, "skew")
        if b.is_nondegenerate():
            return b


class SyntheticGauge:
    """What ``feynman_value`` reads from a gauge, drawn at random over a
    4-dimensional space: graded-symmetric mu_3..mu_5 of odd total parity, and
    the inverse of an even skew form as propagator (zero between opposite
    parities, so the recursion's cut is exercised), each also in its integer
    form, the propagator's row supports ``partners``, and the empty
    ``amplitudes`` that the suites read F through.  ``vertex_tensors``
    gives mu_k as ``mu(k)``, which the oracles read with ``propagator``, and
    as ``integer_mu(k)``, which ``feynman_value`` reads."""

    def __init__(self, seed, parities):
        rng = random.Random(seed)
        space = SuperSpace(("a", "b", "c", "d"), parities)
        self.parities = list(parities)
        self.propagator = _random_even_skew(rng, space).inverse().rows
        self.amplitudes = {}
        self._mu = {}
        for k in (3, 4, 5):
            raw = {}
            while len(raw) < 4:
                key = tuple(rng.randrange(4) for _ in range(k))
                if sum(parities[i] for i in key) % 2:
                    raw[key] = sampling.rational(rng, zero_ok=False)
            self._mu[k] = symmetrize_tensor(space, raw, k)
        self.vertex_tensors = SimpleNamespace(
            mu=self._mu.__getitem__, integer_mu=lambda k: integer_terms(self._mu[k]))

    @property
    def integer_propagator(self):
        return integer_matrix(self.propagator)

    @property
    def partners(self):
        return partner_lists(self.propagator)


SYNTHETIC_SETTINGS = [(seed, parities) for seed in (0, 1, 2)
                      for parities in ((EVEN, EVEN, ODD, ODD),
                                       (ODD, EVEN, ODD, EVEN))]


def _synthetic_graphs():
    """The graphs of (2,3)..(4,6) whose valences mu_3..mu_5 cover."""
    return [g for v, e in ((2, 3), (2, 4), (2, 5), (3, 5), (3, 6), (4, 6))
            for g in enumerate_graphs(v, e) if max(g.valences()) <= 5]


def test_feynman_value_matches_oracle_on_synthetic_data():
    # every canonical chord runs from an earlier block to a later one, and F
    # reads its entry as prop[a][x], a at the earlier end.  A graded-skew
    # propagator hides a read of prop[x][a] instead, which only flips signs,
    # so each gauge is also taken with its propagator made lopsided: 1 added
    # above the diagonal between indices of one parity.  An all-zero
    # propagator leaves every partner list empty, and F is 0
    graphs = _synthetic_graphs()
    assert len(graphs) == 7
    values = []
    for seed, parities in SYNTHETIC_SETTINGS:
        gauge = SyntheticGauge(seed, parities)
        skew = gauge.propagator
        lopsided = [[p + (a < b and parities[a] == parities[b]) for b, p in enumerate(row)]
                    for a, row in enumerate(skew)]
        zero = [[Fraction(0)] * len(skew) for _ in skew]
        for prop in (skew, zero, lopsided):
            gauge.propagator = prop
            for g in graphs:
                val = feynman_value(gauge, g)
                assert val == feynman_value_oracle(gauge, g), (seed, parities, g)
                assert val == feynman_leaf_sign_oracle(gauge, g), (seed, parities, g)
                values.append(val)
    assert (len(values), sum(1 for x in values if x)) == (126, 48)


def test_feynman_value_relabeling_law_on_synthetic_data():
    # relabeling the vertices by perm, then redirecting each edge small to
    # large, multiplies F by perm_parity(perm) * (-1)^flips, the sign
    # canonicalize_directed assigns
    rng = random.Random(22)
    graphs = _synthetic_graphs()
    nonzero = total = 0
    for seed, parities in SYNTHETIC_SETTINGS:
        gauge = SyntheticGauge(seed, parities)
        for g in graphs:
            base = feynman_value(gauge, g)
            for _ in range(3):
                perm = list(range(g.n_vertices))
                rng.shuffle(perm)
                moved = [(perm[a], perm[b]) for a, b in g.edges]
                flips = sum(a > b for a, b in moved)
                sign = perm_parity(perm) * (-1 if flips % 2 else 1)
                relabeled = CanonicalGraph(g.n_vertices, [sorted(e) for e in moved])
                assert feynman_value(gauge, relabeled) == sign * base, \
                    (seed, parities, g, perm)
                total += 1
                nonzero += base != 0
    assert 3 * nonzero >= total


def test_tensor_beta_factorization_nonzero():
    # the commute theorem's engine: beta over (L (x) V)* with the tensored
    # inverse form factorizes into the L-side and V-side contractions times
    # the interleaving Koszul sign; random nondegenerate data, nonzero values
    rng = random.Random(9)
    L = SuperSpace(("a", "b", "s", "t"), (EVEN, EVEN, ODD, ODD))
    V = SuperSpace(("u", "v", "x"), (EVEN, EVEN, ODD))
    BL = _random_even_skew(rng, L)
    BV = _random_even_skew(rng, V)
    T = BL.tensor_with(BV)
    TI = T.inverse().rows
    BLI = BL.inverse().rows
    BVI = BV.inverse().rows
    nv = len(V)
    lpairs = [(i, j) for i in range(len(L)) for j in range(len(L))
              if BLI[i][j] != 0]
    vpairs = [(i, j) for i in range(len(V)) for j in range(len(V))
              if BVI[i][j] != 0]
    nonzero = total = 0
    for trial in range(80):
        k = rng.choice((1, 2, 3))
        if trial % 2:
            ls = [rng.randrange(len(L)) for _ in range(2 * k)]
            vs = [rng.randrange(len(V)) for _ in range(2 * k)]
        else:
            # seed the factor lists from nonzero inverse entries so that the
            # identity is exercised away from zero
            ls, vs = [], []
            for _ in range(k):
                la, lb = lpairs[rng.randrange(len(lpairs))]
                va, vb = vpairs[rng.randrange(len(vpairs))]
                ls.extend((la, lb))
                vs.extend((va, vb))
        lp = [L.parities[i] for i in ls]
        vp = [V.parities[i] for i in vs]
        zp = [(lp[t] + vp[t]) % 2 for t in range(2 * k)]
        zi = [ls[t] * nv + vs[t] for t in range(2 * k)]
        sh = sum(vp[r] * lp[t] for r in range(2 * k)
                 for t in range(r + 1, 2 * k)) % 2
        sign = -1 if sh else 1
        for c in chord_diagrams(k):
            total += 1
            lhs = beta_contract_indices(zp, zi, c, TI)
            rhs = sign * beta_contract_indices(lp, ls, c, BLI) \
                * beta_contract_indices(vp, vs, c, BVI)
            assert lhs == rhs
            if lhs != 0:
                nonzero += 1
    assert nonzero >= 10


# -- the map I ---------------------------------------------------------------

def test_wick_map_single_wedge_is_zero():
    rng = random.Random(10)
    for _ in range(5):
        h = sampling.homogeneous_monomial(rng, V20.space, 4)
        chain = CEChain.from_polynomials(V20, [h])
        assert wick_map(chain).is_zero()


def test_wick_map_cubic_2_wedge_hits_theta():
    p = SuperPolynomial.variable(V20.space, 0)
    q = SuperPolynomial.variable(V20.space, 1)
    chain = CEChain.from_polynomials(V20, [p * p * p, q * q * q])
    img = wick_map(chain)
    # six cross matchings, each contributing <p*,q*>^{-1}^3 = (-1)^3
    assert list(img.terms) == [theta_graph()]
    assert img.terms[theta_graph()] == -6


def test_wick_map_diagram_census_on_cubic_wedge():
    # 6 of the 15 diagrams are cross matchings (theta); 9 give loop graphs
    cross = loops = 0
    for chord in chord_diagrams(3):
        nv, edges = graph_from_chord([3, 3], chord)
        rep, sign = canonicalize_directed(nv, edges)
        if sign == 0:
            loops += 1
        else:
            cross += 1
    assert (cross, loops) == (6, 9)


# The wedges of the graph_complex benchmark pool's chain-map checks, and the
# (4,5,5) wedge p^3q ^ p^4q ^ q^5, whose image under I is nonzero.
KONTSEVICH_WEDGES = (
    (V20, ((0, 0, 0, 1), (0, 0, 1, 1), (1, 1, 1, 1))),
    (V20, ((0, 1, 1, 1), (1, 1, 1, 1), (0, 0, 0, 0))),
    (V21, ((0, 0, 1, 2), (1, 1, 1, 1), (0, 1, 1, 2))),
    (V21, ((0, 0, 0, 2), (0, 1, 1, 1), (0, 0, 0, 1))),
    (V20, ((0, 0, 0, 1), (0, 0, 0, 0, 1), (1, 1, 1, 1, 1))),
)


def test_wick_map_matches_the_all_diagram_oracle():
    # wick_map visits only the chord diagrams with beta_c != 0; the oracle
    # contracts all of them.  The images agree term by term and in key order
    # on the commute and Kontsevich wedges and their delta (p^3 ^ q^3, the
    # so(3) wedge, is the first commute wedge).  Over V_{2|0} and V_{2|1}
    # every live chord sign is +1, so two wedges over V_{2|2}, whose live
    # chords cross the odd factors x1, x2, pin the sign.
    v22 = SymplecticSpace.canonical_even(1, 2)
    odd_cases = ((v22, ((1, 2, 3), (0, 2, 3))),
                 (v22, ((0, 1, 2, 3), (0, 2, 3), (0, 1, 1))))
    nonzero = 0
    for v, keys in COMMUTE_WEDGES + KONTSEVICH_WEDGES + odd_cases:
        chain = wedge(v, keys)
        for c in (chain, ce_differential(chain)):
            img = wick_map(c)
            assert list(img.terms.items()) == \
                list(wick_map_oracle(c).terms.items()), keys
            nonzero += not img.is_zero()
    assert nonzero >= 5


def test_wick_map_matches_the_oracle_on_a_fractional_form():
    # V_{2|2} with b(p, q) = 2 and the odd block [[-3, 1], [1, -5]]: the
    # inverse form has denominators 2 and 14, so the live chords run over
    # the inverse * 14 and divide by 14^|c|.  The wedges are the commute
    # wedges, whose V_{2|0} and V_{2|1} keys name p, q and x1 here, and the
    # two V_{2|2} wedges of the test above
    rows = [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, -3, 1], [0, 0, 1, -5]]
    v = SymplecticSpace(BilinearForm(SymplecticSpace.canonical_even(1, 2).space,
                                     rows, EVEN, "skew"))
    assert {x.denominator for row in v.inverse.rows for x in row} == {1, 2, 14}
    odd_cases = (((1, 2, 3), (0, 2, 3)), ((0, 1, 2, 3), (0, 2, 3), (0, 1, 1)))
    denominators = set()
    nonzero = 0
    for keys in [keys for _, keys in COMMUTE_WEDGES] + list(odd_cases):
        chain = wedge(v, keys)
        for c in (chain, ce_differential(chain)):
            img = wick_map(c)
            assert list(img.terms.items()) == \
                list(wick_map_oracle(c).terms.items()), keys
            denominators |= {x.denominator for x in img.terms.values()}
            nonzero += not img.is_zero()
    assert nonzero >= 5
    assert any(d % 2 == 0 for d in denominators) and any(d % 7 == 0 for d in denominators)


V40 = SymplecticSpace.canonical_even(2, 0)


def test_wick_map_matches_the_live_chord_oracle_on_a_6_wedge():
    # a weight-0 6-wedge of cubics over V_{4|0}: 17!! diagrams, too many for
    # wick_map_oracle; the oracle that walks the live diagrams one at a time
    # gives the same image, term by term and in key order, on seven graphs
    chain = wedge(V40, ((0, 0, 3), (0, 1, 1), (1, 1, 1), (1, 2, 2), (2, 3, 3), (3, 3, 3)))
    img = wick_map(chain)
    assert len(img.terms) == 7
    assert list(img.terms.items()) == list(wick_map_live_oracle(chain).terms.items())


def test_wick_map_pins_an_8_wedge_of_cubics():
    # a weight-0 8-wedge of cubics over V_{4|0}, bidegree (8, 12): the
    # values were computed once by wick_map_live_oracle (15 s)
    chain = wedge(V40, ((0, 0, 0), (0, 0, 3), (0, 2, 3), (0, 3, 3),
                        (1, 1, 2), (1, 1, 3), (1, 2, 2), (2, 2, 2)))
    img = wick_map(chain)
    assert [(g.graph_id(), str(c)) for g, c in img.terms.items()] == [
        ("v8e12:" + edges, c) for edges, c in (
            ("0-1,0-1,0-2,1-3,2-4,2-5,3-4,3-6,4-7,5-6,5-7,6-7", "5760"),
            ("0-1,0-2,0-3,1-4,1-5,2-4,2-6,3-5,3-7,4-7,5-6,6-7", "-2304"),
            ("0-1,0-2,0-3,1-2,1-4,2-5,3-4,3-6,4-7,5-6,5-7,6-7", "-1152"),
            ("0-1,0-1,0-2,1-3,2-4,2-5,3-4,3-6,4-5,5-7,6-7,6-7", "2880"),
            ("0-1,0-1,0-2,1-3,2-4,2-4,3-5,3-6,4-7,5-6,5-7,6-7", "-2880"),
            ("0-1,0-1,0-2,1-3,2-3,2-4,3-5,4-6,4-7,5-6,5-7,6-7", "-5760"),
            ("0-1,0-1,0-2,1-3,2-4,2-5,3-4,3-5,4-6,5-7,6-7,6-7", "-3744"),
            ("0-1,0-1,0-2,1-3,2-4,2-5,3-6,3-7,4-5,4-6,5-7,6-7", "-1152"),
            ("0-1,0-1,0-2,1-3,2-3,2-4,3-5,4-5,4-6,5-7,6-7,6-7", "864"),
            ("0-1,0-1,0-1,2-3,2-3,2-4,3-5,4-6,4-7,5-6,5-7,6-7", "-1344"),
            ("0-1,0-1,0-1,2-3,2-4,2-5,3-4,3-6,4-7,5-6,5-7,6-7", "1344"),
            ("0-1,0-2,0-3,1-2,1-3,2-4,3-5,4-6,4-7,5-6,5-7,6-7", "-1152"),
            ("0-1,0-1,0-2,1-3,2-3,2-4,3-5,4-6,4-6,5-7,5-7,6-7", "2016"),
            ("0-1,0-1,0-2,1-3,2-4,2-4,3-5,3-5,4-6,5-7,6-7,6-7", "-576"),
            ("0-1,0-1,0-1,2-3,2-3,2-4,3-5,4-5,4-6,5-7,6-7,6-7", "-240"),
            ("0-1,0-1,0-1,2-3,2-3,2-4,3-5,4-6,4-6,5-7,5-7,6-7", "-288"),
            ("0-1,0-1,0-2,1-3,2-3,2-3,4-5,4-6,4-7,5-6,5-7,6-7", "-576"),
            ("0-1,0-1,0-2,1-3,2-3,2-3,4-5,4-5,4-6,5-7,6-7,6-7", "144"),
            ("0-1,0-1,0-1,2-3,2-3,2-3,4-5,4-6,4-7,5-6,5-7,6-7", "-192"),
            ("0-1,0-1,0-1,2-3,2-3,2-3,4-5,4-5,4-6,5-7,6-7,6-7", "48"),
        )]


def test_kontsevich_chain_map():
    rng = random.Random(11)
    for v in (V20, V21):
        for _ in range(8):
            l = rng.choice((2, 3))
            degs = [3] * l if l == 2 else [3, 3, 4]
            polys = [sampling.homogeneous_monomial(rng, v.space, d)
                     for d in degs]
            chain = CEChain.from_polynomials(v, polys)
            if chain.is_zero():
                continue
            rep = verify_kontsevich_chain_map(chain)
            assert rep["status"] == "pass", rep["witnesses"]


# -- vanishing theorem ---------------------------------------------------------

def test_vanishing_divergence_k2_and_g3():
    rng = random.Random(12)
    for alg in (k2(), g3()):
        for _ in range(5):
            eta = sampling.multilinear(rng, V20.space, 3, terms=4)
            rep = verify_vanishing_divergence(alg, eta)
            assert rep["status"] == "pass", rep["witnesses"]


def mixed_parity_fields(rng, degree, count):
    """`count` fields over V_{2|1} with images of `degree`, each with terms
    of both parities."""
    fields = []
    while len(fields) < count:
        eta = sampling.multilinear(rng, V21.space, degree, terms=6)
        if eta.parity is None:
            fields.append(eta)
    return fields


@pytest.mark.parametrize("make_alg", [k2, g3, so3_reduced,
                                      lambda: direct_sum(so3_reduced(), g3())],
                         ids=["K2", "G3", "so3red", "so3red+G3"])
def test_vanishing_divergence_on_mixed_parity_fields(make_alg):
    # over V_{2|1} a field has an odd part, on which Psi needs its twist;
    # so3red's triple products vanish, so its degree-3 images are 0
    rng = random.Random(17)
    alg = make_alg()
    nonzero = 0
    for degree in (1, 2, 3):
        for eta in mixed_parity_fields(rng, degree, 3):
            rep = verify_vanishing_divergence(alg, eta)
            assert rep["status"] == "pass", rep["witnesses"]
            nonzero += not psi_field(alg, eta).is_zero()
    assert nonzero >= 6


def untwisted(alg, field):
    """A field on A (x) V with psi_field's twist (-1)^{|t|(|a_beta| + 1)}
    applied once more, on each term t of the image of z_{(beta, w)}: that
    undoes it."""
    space = field.space
    nv = len(space) // len(alg.space)
    apar = alg.space.parities

    def image(z, img):
        return SuperPolynomial(space, {
            k: -c if (monomial_parity(space, k) + space.parities[z]) % 2
            and not apar[z // nv] else c for k, c in img.terms.items()})
    return VectorField(space, [image(z, img) for z, img in enumerate(field.images)])


def test_psi_field_twist_is_needed_for_vanishing():
    # without the twist, nabla Psi(eta) fails on odd fields; with it, it holds
    rng = random.Random(18)
    for alg in (k2(), g3()):
        fails = 0
        for degree in (2, 3):
            for eta in mixed_parity_fields(rng, degree, 3):
                gamma = psi_field(alg, eta)
                assert divergence(gamma).is_zero()
                fails += not divergence(untwisted(alg, gamma)).is_zero()
        assert fails >= 2


def test_psi_field_refuses_a_constant_term():
    # a constant image term would be level 0 of the walk of products
    x = SuperPolynomial.variable(V20.space, 0)
    eta = VectorField(V20.space, [x * x, SuperPolynomial.scalar(V20.space, 1)])
    with pytest.raises(ValueError, match="level 1"):
        psi_field(g3(), eta)


def test_psi_field_divides_int_coefficients_exactly():
    # a plain int coefficient is divided by the walk's scale as a Fraction,
    # on an algebra whose structure constants have denominators
    alg = so3_scaled()
    assert alg.vertex_tensors.product_scale(2) > 1
    images = [{(0, 1): 3}, {(0, 0): -2, (1, 1): 5}]
    as_ints, as_fractions = (
        psi_field(alg, VectorField(V20.space, [SuperPolynomial(V20.space, {
            k: kind(c) for k, c in img.items()}) for img in images]))
        for kind in (int, Fraction))
    coeffs = [c for img in as_ints.images for c in img.terms.values()]
    assert coeffs and all(type(c) is Fraction for c in coeffs)
    assert as_ints.images == as_fractions.images


def even_pairing_control_algebra():
    """R[t]/(t^2) with even pairing <1,t> = 1; Frobenius but NOT odd-paired."""
    space = SuperSpace(("1", "t"), (EVEN, EVEN))
    mult = {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)},
            (1, 0): {1: Fraction(1)}, (1, 1): {}}
    diff = [[Fraction(0)] * 2 for _ in range(2)]
    pairing = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    return FrobeniusAlgebra(space, mult, diff, pairing, name="EvenControl")


def test_vanishing_fails_for_even_pairing_control():
    rng = random.Random(13)
    alg = even_pairing_control_algebra()
    found_nonzero = False
    for _ in range(10):
        eta = sampling.multilinear(rng, V20.space, 2, terms=3)
        if verify_vanishing_divergence(alg, eta)["status"] == "fail":
            found_nonzero = True
            break
    assert found_nonzero


# -- theorem-level suites --------------------------------------------------------

def test_cocycle_graph_side():
    model = model_g3()
    gm = GaugeModel(model, g3_gauge(0, 0, 0, 1, alg=model.alg))
    for (v, e) in ((2, 3), (2, 4), (2, 5), (3, 5), (4, 6)):
        rep = verify_cocycle_graphs(model, gm, v, e)
        assert rep["status"] == "pass", rep["witnesses"]


def test_cocycle_chain_side():
    rng = random.Random(14)
    model = model_g3(V21)
    gm = GaugeModel(model, g3_gauge(1, 1, 1, 1, alg=model.alg))
    chains = []
    for _ in range(5):
        l = rng.choice((2, 3))
        degs = [3] * l if l == 2 else [3, 3, 4]
        polys = [sampling.homogeneous_monomial(rng, V21.space, d) for d in degs]
        ch = CEChain.from_polynomials(V21, polys)
        if not ch.is_zero():
            chains.append(ch)
    rep = verify_cocycle_chains(model, gm, chains)
    assert rep["status"] == "pass", rep["witnesses"]
    assert rep["inputs"]["samples"] == len(chains)
    # an iterator of chains is counted too, not exhausted before the count
    rep = verify_cocycle_chains(model, gm, (ch for ch in chains[:2]))
    assert rep["status"] == "pass" and rep["inputs"]["samples"] == 2


def test_gauge_independence_on_cycles():
    model = model_g3()
    pairs = [((0, 0, 0, 0), (0, 0, 0, 1)),
             ((0, 0, 0, 1), (1, 1, 1, 1)),
             ((1, 0, 0, 0), (1, 2, 3, 4))]
    for p0, p1 in pairs:
        g0 = g3_gauge(*p0, alg=model.alg)
        g1 = g3_gauge(*p1, alg=model.alg)
        for (v, e) in ((2, 3), (4, 6)):
            rep = verify_gauge_independence(model, g0, g1, v, e)
            assert rep["status"] == "pass", rep["witnesses"]


def g5_case():
    """G5 over V_{2|0} with fresh gauges at seeds 1 and 2: the first
    fixture on which the (4,6) cycles cancel between nonzero graphs."""
    model = TensorModel(g5(), V20)
    return model, g5_gauge(model.alg, 1), g5_gauge(model.alg, 2)


def test_g5_gauges_pin_vertex_tensors_and_amplitudes():
    # at seed 2 the (4,6) cycles read 0 by 3 * 8 - 24 = 0; at seed 1 every
    # graph reads 0
    model, g1, g2 = g5_case()
    assert [len(g1.vertex_tensors.mu(k)) for k in (3, 4, 5)] == [126, 684, 3130]
    assert [len(g2.vertex_tensors.mu(k)) for k in (3, 4, 5)] == [135, 744, 3110]
    graphs = enumerate_graphs(4, 6)
    assert [feynman_value(g1, g) for g in graphs] == [0, 0, 0]
    assert [feynman_value(g2, g) for g in graphs] == [0, 8, -24]
    _, cycles = cycle_space(4, 6)
    for gauge in (g1, g2):
        assert [feynman_on_chain(gauge, z) for z in cycles] == [0, 0]
    rep = verify_gauge_independence(model, g1, g2, 4, 6)
    assert rep["status"] == "pass", rep["witnesses"]


def test_g5_pins_s_equal_f_of_i():
    model, _, g2 = g5_case()
    gm = GaugeModel(model, g2)
    p = SuperPolynomial.variable(V20.space, 0)
    q = SuperPolynomial.variable(V20.space, 1)
    chain = CEChain.from_polynomials(V20, [p * p * p, p * q * q, q * q * q, p * p * q])
    rep = verify_commute(model, gm, chain)
    assert rep["status"] == "pass", rep["witnesses"]
    assert s_functional(model, gm, chain) == -4320
    assert feynman_on_chain(g2, wick_map(chain)) == -4320


def test_gauge_independence_same_gauge_trivial():
    model = model_g3()
    g = g3_gauge(0, 0, 0, 1, alg=model.alg)
    rep = verify_gauge_independence(model, g, g, 2, 3)
    assert rep["status"] == "pass"


def test_gauge_independence_builds_no_gauge_model(monkeypatch):
    # F reads the gauges alone, so the check builds no gauge model; it still
    # rejects a gauge of another algebra, in either slot
    def no_gauge_model(*args):
        raise AssertionError("F built a gauge model")

    monkeypatch.setattr(dual, "GaugeModel", no_gauge_model)
    model = model_g3()
    g0 = g3_gauge(0, 0, 0, 1, alg=model.alg)
    g1 = g3_gauge(1, 1, 1, 1, alg=model.alg)
    rep = verify_gauge_independence(model, g0, g1, 4, 6)
    assert rep["status"] == "pass" and rep["inputs"]["n_cycles"] == 2
    foreign = g3_gauge(1, 1, 1, 1)
    for pair in ((foreign, g1), (g0, foreign)):
        with pytest.raises(ValueError):
            verify_gauge_independence(model, *pair, 2, 3)


def test_commute_theorem_sampled():
    rng = random.Random(15)
    for v in (V20, V21):
        model = model_g3(v)
        for params in ((0, 0, 0, 1), (1, 1, 1, 1)):
            gm = GaugeModel(model, g3_gauge(*params, alg=model.alg))
            for _ in range(4):
                l = rng.choice((2, 3))
                degs = [rng.choice((3, 4)) for _ in range(l)]
                polys = [sampling.homogeneous_monomial(rng, v.space, d)
                         for d in degs]
                chain = CEChain.from_polynomials(v, polys)
                if chain.is_zero():
                    continue
                rep = verify_commute(model, gm, chain)
                assert rep["status"] == "pass", rep["witnesses"]


def test_osp_invariance():
    rng = random.Random(16)
    model = model_g3(V21)
    gm = GaugeModel(model, g3_gauge(1, 1, 1, 1, alg=model.alg))
    for _ in range(5):
        eta = sampling.homogeneous_monomial(rng, V21.space, 2)
        polys = [sampling.homogeneous_monomial(rng, V21.space, 3)
                 for _ in range(rng.choice((2, 3)))]
        chain = CEChain.from_polynomials(V21, polys)
        if chain.is_zero():
            continue
        rep = verify_osp_invariance(model, gm, eta, chain)
        assert rep["status"] == "pass", rep["witnesses"]


# -- every suite can fail ---------------------------------------------------------
# On the so(3) fixture over V_{2|0} with the wedge p^3 ^ q^3, where S = F o I
# = -36, each suite is handed one fault and must report it with its witness.

def so3_commute_case():
    model = TensorModel(so3_reduced(), V20)
    gauge = gauge_at(model.alg, ())
    return model, GaugeModel(model, gauge), wedge(V20, ((0, 0, 0), (1, 1, 1)))


class NegatedGauge(Gauge):
    """A gauge built on the negated restricted d-form, so its propagator,
    integer propagator and partners are those of the negated propagator."""

    def restricted_form(self):
        form = super().restricted_form()
        return BilinearForm(form.space, [[-x for x in row] for row in form.rows],
                            EVEN, "skew")


def negated_propagator(gauge):
    out = NegatedGauge(gauge.alg, gauge.vectors, label="negated")
    assert out.propagator == tuple(tuple(-x for x in row) for row in gauge.propagator)
    return out


def test_master_equations_fail_on_a_perturbed_sigma():
    model = TensorModel(so3_reduced(), V20)
    sigma = model.sigma
    # an even cubic keeps sigma even; an odd one makes it inhomogeneous
    for key, witness in (((0, 1, 6), "(2)*xi1(x)p1*xi1(x)q1*xi3(x)p1"),
                         ((0, 6, 8), "(2)*xi1(x)p1*xi2(x)p1*xi12(x)p1"
                                     " + (-2)*xi1(x)p1*xi3(x)p1*xi13(x)p1")):
        model.sigma = sigma + SuperPolynomial.monomial(model.space, key)
        rep = verify_master_equations(model)
        assert rep["status"] == "fail"
        assert rep["witnesses"] == [{"classical_master": witness}]


def test_master_equations_fail_on_an_odd_quadratic_in_sigma():
    # z_u z_v with Phi^{-1}[u][v] != 0 (u, v of opposite parity) has
    # Delta = -1 and breaks the classical equation too
    model = TensorModel(so3_reduced(), V20)
    u, v = next((u, v) for u, row in enumerate(model.symp.inverse.rows)
                for v, c in enumerate(row) if c)
    assert model.space.parities[u] != model.space.parities[v]
    model.sigma = model.sigma + SuperPolynomial.monomial(model.space, (u, v))
    rep = verify_master_equations(model)
    assert rep["status"] == "fail"
    assert rep["witnesses"] == [{"quantum_master": "(-1)"},
                                {"classical_master": "(-2)*xi1(x)p1*xi1(x)q1"}]


def test_master_equations_fail_on_a_perturbed_dform():
    model = TensorModel(so3_reduced(), V20)
    rows = [list(row) for row in model.dform.rows]
    rows[0][0] += 1
    model.dform = BilinearForm(model.space, rows, EVEN, "sym", check=False)
    rep = verify_master_equations(model)
    assert rep["status"] == "fail"
    assert rep["witnesses"] == [
        {"dform": "i2(sigma) differs from the printed tensored form"}]


def test_commute_fails_on_a_negated_propagator():
    model, gm, chain = so3_commute_case()
    gm.gauge = negated_propagator(gm.gauge)
    rep = verify_commute(model, gm, chain)
    assert rep["status"] == "fail"
    assert rep["witnesses"] == [{"S": "-36", "F_I": "36", "chain": chain.to_json()}]
    assert chain.render() == "(1)*[(1)*p1^3 ^ (1)*q1^3]"


def so3_odd_chord_case():
    """so3red's one gauge over V_{4|1} with p1^2 x ^ p2^2 x ^ q1^2 x ^ q2^2 x:
    every factor has an odd half-edge, so I contracts odd chords."""
    v41 = SymplecticSpace.canonical_even(2, 1)
    model = TensorModel(so3_reduced(), v41)
    gm = GaugeModel(model, gauge_at(model.alg, ()))
    return model, gm, wedge(v41, ((0, 0, 4), (1, 1, 4), (2, 2, 4), (3, 3, 4)))


def test_commute_pins_s_equal_f_of_i_over_odd_chords():
    model, gm, chain = so3_odd_chord_case()
    rep = verify_commute(model, gm, chain)
    assert rep["status"] == "pass", rep["witnesses"]
    assert s_functional(model, gm, chain) == 240
    assert feynman_on_chain(gm.gauge, wick_map(chain)) == 240


class Sealed:
    """A stand-in for a gauge's Feynman data that fails on any access."""

    def __getattribute__(self, name):
        raise AssertionError(f"S read {name} of the gauge's Feynman data")

    def _refuse(self, *args):
        raise AssertionError("S read the gauge's Feynman data")

    __getitem__ = __iter__ = __len__ = __bool__ = __contains__ = __eq__ = _refuse


def test_s_reads_none_of_the_gauges_feynman_data():
    # with the vertex tensors, propagator, partners and amplitudes of the
    # gauge sealed after the gauge model is built, S keeps its three pins
    for case, value in ((so3_commute_case, -36), (so3_odd_chord_case, 240),
                        (dense_wedge_case, -48)):
        model, gm, chain = case()
        for name in ("vertex_tensors", "integer_propagator", "partners", "amplitudes"):
            setattr(gm.gauge, name, Sealed())
        with pytest.raises(AssertionError, match="Feynman data"):
            feynman_on_chain(gm.gauge, wick_map(chain))
        assert s_functional(model, gm, chain) == value


def test_commute_fails_without_the_chord_sign_of_i(monkeypatch):
    # over V_{2n|0} every chord is even and the chord sign of I is 1 anyway;
    # here dropping it turns F o I from 240 into -48, while S stays 240
    model, gm, chain = so3_odd_chord_case()
    monkeypatch.setattr(wick, "chord_sign", lambda parities, chord: 1)
    rep = verify_commute(model, gm, chain)
    assert rep["status"] == "fail"
    assert rep["witnesses"] == [{"S": "240", "F_I": "-48", "chain": chain.to_json()}]


def test_commute_fails_on_a_koszul_sign_flipped_on_six_factors(monkeypatch):
    # F takes its chord sign inline, so the flip reaches I (through
    # wick.chord_sign) and not F: on p^3 ^ q^3 at the dense so3red + G3
    # gauge F o I turns from -36 into 36, while S stays -36.  The case is
    # built before the patch, and every copy of koszul_sign is patched.
    alg = direct_sum(so3_reduced(), g3())
    model = TensorModel(alg, V20)
    gm = GaugeModel(model, gauge_at(alg, DENSE))
    chain = wedge(V20, ((0, 0, 0), (1, 1, 1)))

    def flipped(order, parities):
        return (-1 if len(order) == 6 else 1) * koszul_sign(order, parities)

    for module in (graded, wick, ce, frobenius):
        monkeypatch.setattr(module, "koszul_sign", flipped)
    rep = verify_commute(model, gm, chain)
    assert rep["status"] == "fail"
    assert rep["witnesses"] == [{"S": "-36", "F_I": "36", "chain": chain.to_json()}]


def test_commute_fails_with_each_chord_class_counted_once(monkeypatch):
    # I sums a class of chord diagrams as its size times their common beta_c;
    # on p^3 ^ q^3 the one class holds all 3! cross matchings, so counting it
    # once turns F o I at the dense so3red + G3 gauge from -36 into -6
    alg = direct_sum(so3_reduced(), g3())
    model = TensorModel(alg, V20)
    gm = GaugeModel(model, gauge_at(alg, DENSE))
    chain = wedge(V20, ((0, 0, 0), (1, 1, 1)))

    def counted_once(parities, word, support):
        return ((edges, 1, beta) for edges, _, beta in wick.chord_classes(parities, word, support))

    monkeypatch.setattr(dual, "chord_classes", counted_once)
    rep = verify_commute(model, gm, chain)
    assert rep["status"] == "fail"
    assert rep["witnesses"] == [{"S": "-36", "F_I": "-6", "chain": chain.to_json()}]


def test_commute_fails_without_the_shuffle_sign(monkeypatch):
    # over V_{2|2} the factor p x1 x2 lifts to keys with two odd variables of
    # V, the only keys whose shuffle sign can be -1; at the pinned so3red + G3
    # gauge S = F o I = 0 on p^3 ^ p x1 x2 ^ q^2 x1 ^ q^2 x2, and with
    # shuffle_sign := 1 S reads -576
    v22 = SymplecticSpace.canonical_even(1, 2)
    alg = direct_sum(so3_reduced(), g3())
    chain = wedge(v22, ((0, 0, 0), (0, 2, 3), (1, 1, 2), (1, 1, 3)))

    def case():
        model = TensorModel(alg, v22)
        return model, GaugeModel(model, gauge_at(alg, (1, 1, 0, 0, 0, 0, 0, 0, 1, 0)))

    rep = verify_commute(*case(), chain)
    assert rep["status"] == "pass", rep["witnesses"]
    monkeypatch.setattr(dual, "shuffle_sign", lambda vpar, apar: 1)
    rep = verify_commute(*case(), chain)
    assert rep["status"] == "fail"
    assert rep["witnesses"] == [{"S": "-576", "F_I": "0", "chain": chain.to_json()}]


def test_gauge_independence_fails_without_the_chord_sign_of_f(monkeypatch):
    # F is the recursion that takes the chord sign at each leaf; with that
    # sign kept G5's (4,6) cycles read 0 at both gauges, and with it
    # dropped they read 576 and 384 at seed 2 but still 0 at seed 1
    monkeypatch.setattr(dual, "feynman_value", feynman_leaf_sign_oracle)
    rep = verify_gauge_independence(*g5_case(), 4, 6)
    assert rep["status"] == "pass", rep["witnesses"]
    monkeypatch.setattr(oracles, "chord_sign", lambda parities, chord: 1)
    rep = verify_gauge_independence(*g5_case(), 4, 6)
    assert rep["status"] == "fail"
    assert [(w["F_L0"], w["F_L1"]) for w in rep["witnesses"]] == [("0", "576"), ("0", "384")]


def test_gauge_independence_fails_on_a_negated_propagator():
    model, gm, _ = so3_commute_case()
    rep = verify_gauge_independence(model, gm.gauge, negated_propagator(gm.gauge), 2, 3)
    assert rep["status"] == "fail"
    assert rep["witnesses"] == [{"cycle": [{"graph": "v2e3:0-1,0-1,0-1", "coeff": "1"}],
                                 "F_L0": "6", "F_L1": "-6"}]


def test_cocycle_graphs_fail_on_synthetic_vertex_tensors():
    # random symmetric mu_3..mu_5 satisfy no cocycle relation; the suite
    # reads only the gauge of the gauge model, its model and the algebra's
    # name
    gauge = SyntheticGauge(0, (EVEN, EVEN, ODD, ODD))
    gauge.label = "synthetic"
    model = SimpleNamespace(alg=SimpleNamespace(name="synthetic"))
    rep = verify_cocycle_graphs(model, SimpleNamespace(gauge=gauge, model=model), 3, 6)
    assert rep["status"] == "fail"
    assert rep["witnesses"] == [{"graph": "v3e6:0-1,0-1,0-1,0-2,0-2,1-2",
                                 "F_boundary": "245/116"}]


# so(3) has only mu_3, so no fault in the data fails the three suites below at
# this size; each is handed an identity in place of delta, the osp action or
# the graph boundary, and then compares S = -36 (or I = -6 theta) with 0.

def test_cocycle_chains_fail_when_delta_is_the_identity(monkeypatch):
    model, gm, chain = so3_commute_case()
    monkeypatch.setattr(dual, "ce_differential", lambda c: c)
    rep = verify_cocycle_chains(model, gm, [chain])
    assert rep["status"] == "fail"
    assert rep["witnesses"] == [{"chain": chain.to_json(), "S_delta": "-36"}]


def test_osp_invariance_fails_when_the_action_is_the_identity(monkeypatch):
    model, gm, chain = so3_commute_case()
    eta = SuperPolynomial.monomial(V20.space, (0, 1))
    monkeypatch.setattr(dual, "osp_action", lambda e, c: c)
    rep = verify_osp_invariance(model, gm, eta, chain)
    assert rep["status"] == "fail"
    assert rep["witnesses"] == [{"S_of_action": "-36", "eta": "(1)*p1*q1"}]


def test_kontsevich_chain_map_fails_when_the_boundary_is_the_identity(monkeypatch):
    _, _, chain = so3_commute_case()
    monkeypatch.setattr(dual, "boundary", lambda c: c)
    rep = verify_kontsevich_chain_map(chain)
    assert rep["status"] == "fail"
    assert rep["witnesses"] == [{
        "I_delta_minus_boundary_I": [{"graph": "v2e3:0-1,0-1,0-1", "coeff": "6"}],
        "chain": chain.to_json()}]


def test_report_shape():
    model = model_k2()
    rep = verify_master_equations(model)
    assert set(rep) == {"check", "inputs", "status", "witnesses"}
