import random
from fractions import Fraction

import pytest

from bvgraph import linalg
from bvgraph.graded import EVEN, ODD, SuperSpace
from bvgraph.superpoly import SuperPolynomial, VectorField, divergence
from bvgraph import sampling
from oracles import (commutator, field_tensor, is_symmetric_tensor, parity_components,
                     polynomial_parity, polynomial_product_oracle, substitute_oracle,
                     supertrace_oracle, symmetrize_tensor)


def space_11():
    return SuperSpace(("x", "xi"), (EVEN, ODD))


def space_22():
    return SuperSpace(("x1", "x2", "t1", "t2"), (EVEN, EVEN, ODD, ODD))


def test_graded_commutativity_and_odd_squares():
    w = space_11()
    x = SuperPolynomial.variable(w, 0)
    xi = SuperPolynomial.variable(w, 1)
    assert x * xi == xi * x
    assert (xi * xi).is_zero()
    w2 = space_22()
    t1 = SuperPolynomial.variable(w2, 2)
    t2 = SuperPolynomial.variable(w2, 3)
    assert t1 * t2 == -(t2 * t1)


def assert_same_terms(p, q):
    """Equal values and the same key order."""
    assert p.terms == q.terms
    assert list(p.terms) == list(q.terms)


def test_product_matches_the_fraction_oracle():
    # x, y even and s, t, u odd; denominators 2, 3, 5, 7 and products of them
    w = SuperSpace(("x", "s", "t", "y", "u"), (EVEN, ODD, ODD, EVEN, ODD))
    keys = [k for d in range(4) for k in sampling.monomial_keys(w, d)]
    rng = random.Random(15)

    def draw():
        return SuperPolynomial.sum(w, (
            SuperPolynomial.monomial(w, rng.choice(keys),
                                     Fraction(rng.choice([-7, -3, -1, 1, 2, 5, 6]),
                                              rng.choice([1, 2, 3, 5, 7, 6, 35])))
            for _ in range(rng.randint(1, 6))))

    x, s, t = (SuperPolynomial.variable(w, i) for i in range(3))
    zero = SuperPolynomial.zero(w)
    scalar = SuperPolynomial.scalar(w, Fraction(-3, 7))
    cases = [(x + s, x - s),  # s x - x s cancels: a key inserted, then dropped
             (s + t, s + t),  # s t + t s = 0: the whole product cancels
             (s, s), (t * x, t),  # odd squares
             (zero, x + t), (x + t, zero), (scalar, x / 5 - t / 2),
             (x / 2 - t / 3, scalar)]
    cases += [(draw(), draw()) for _ in range(300)]
    denominators = set()
    for a, b in cases:
        prod = a * b
        assert_same_terms(prod, polynomial_product_oracle(a, b))
        denominators |= {v.denominator for v in prod.terms.values()}
    assert (x + s) * (x - s) == x * x
    assert ((s + t) * (s + t)).is_zero()
    assert all(any(d % p == 0 for d in denominators) for p in (2, 3, 5, 7))


def test_grading_involution_flips_the_odd_terms():
    w = space_22()
    rng = random.Random(4)
    for _ in range(30):
        a = sampling.polynomial(rng, w, 3, terms=5)
        even, odd = parity_components(a)
        flipped = a.grading_involution()
        assert flipped == even - odd
        assert list(flipped.terms) == list(a.terms)


def test_mul_associative_and_commutative_exhaustive_deg4():
    # all monomials of degree <= 2 over (2|2), pairwise products
    w = space_22()
    monos = [SuperPolynomial.monomial(w, k) for d in range(3)
             for k in sampling.monomial_keys(w, d)]
    for a in monos:
        for b in monos:
            pa, pb = polynomial_parity(a), polynomial_parity(b)
            sgn = -1 if (pa and pb) else 1
            assert a * b == sgn * (b * a)
    rng = random.Random(0)
    for _ in range(40):
        a = sampling.polynomial(rng, w, 2)
        b = sampling.polynomial(rng, w, 2)
        c = sampling.polynomial(rng, w, 2)
        assert (a * b) * c == a * (b * c)


def random_parts(seed, count=6):
    rng = random.Random(seed)
    w = space_22()
    return w, [sampling.polynomial(rng, w, 3, terms=rng.randrange(1, 5))
               for _ in range(count)]


def test_sum_equals_pairwise_fold_and_termwise_oracle():
    for seed in range(20):
        w, parts = random_parts(seed)
        fold = SuperPolynomial.zero(w)
        for p in parts:
            fold = fold + p
        total = SuperPolynomial.sum(w, (p for p in parts))
        assert total == fold
        keys = {k for p in parts for k in p.terms}
        coeffs = {k: sum(p.terms.get(k, Fraction(0)) for p in parts) for k in keys}
        assert total.terms == {k: c for k, c in coeffs.items() if c != 0}
        assert SuperPolynomial.sum(w, reversed(parts)) == total


def test_sum_that_cancels_stores_no_zero_coefficients():
    w, parts = random_parts(7)
    p, q = parts[0], parts[1]
    cancel = SuperPolynomial.sum(w, iter([p, q, -p, -q]))
    assert cancel.terms == {}
    partial = SuperPolynomial.sum(w, iter([p, q, -p]))
    assert partial.terms == q.terms
    assert all(v != 0 for v in partial.terms.values())


def test_sum_of_no_parts_is_zero():
    w = space_22()
    total = SuperPolynomial.sum(w, iter(()))
    assert total.is_zero() and total.space == w
    assert total == SuperPolynomial.zero(w)


def test_sum_rejects_a_part_on_another_space():
    w, parts = random_parts(3, count=2)
    stray = SuperPolynomial.variable(space_11(), 0)
    with pytest.raises(ValueError):
        SuperPolynomial.sum(w, iter(parts + [stray]))
    with pytest.raises(ValueError):
        parts[0] + stray


def test_euler_field_on_cubic():
    w = SuperSpace(("x",), (EVEN,))
    x = SuperPolynomial.variable(w, 0)
    eta = VectorField(w, [x])
    assert eta(x * x * x) == 3 * (x * x * x)


def test_left_derivative_convention():
    w = space_11()
    x = SuperPolynomial.variable(w, 0)
    xi = SuperPolynomial.variable(w, 1)
    d_xi = VectorField.coordinate(w, 1)
    assert d_xi(x * xi) == x


def test_derivation_law_with_odd_coefficient_field():
    w = space_11()
    x = SuperPolynomial.variable(w, 0)
    xi = SuperPolynomial.variable(w, 1)
    eta = VectorField(w, [xi, SuperPolynomial.zero(w)])  # xi d/dx
    assert eta(x * x) == 2 * x * xi


def test_derivation_law_random():
    rng = random.Random(5)
    w = space_22()
    for _ in range(25):
        par = rng.choice((EVEN, ODD))
        eta = sampling.vector_field(rng, w, par, 2)
        a = sampling.polynomial(rng, w, 2)
        b = sampling.polynomial(rng, w, 2)
        for apart in parity_components(a):
            if apart.is_zero():
                continue
            sgn = -1 if (par and polynomial_parity(apart)) else 1
            assert eta(apart * b) == eta(apart) * b + sgn * apart * eta(b)


def test_commutator_closes_and_is_a_derivation():
    rng = random.Random(6)
    w = space_22()
    for _ in range(10):
        p1, p2 = rng.choice((0, 1)), rng.choice((0, 1))
        eta = sampling.vector_field(rng, w, p1, 2)
        gam = sampling.vector_field(rng, w, p2, 2)
        com = commutator(eta, gam)
        f = sampling.polynomial(rng, w, 2)
        sgn = -1 if (p1 and p2) else 1
        assert com(f) == eta(gam(f)) - sgn * gam(eta(f))


def test_field_parity_is_read_off_the_terms():
    w = space_22()
    zero = SuperPolynomial.zero(w)
    assert VectorField(w, [zero] * 4).parity == EVEN
    for i, p in enumerate(w.parities):
        assert VectorField.coordinate(w, i).parity == p
    x1 = SuperPolynomial.variable(w, 0)
    t1 = SuperPolynomial.variable(w, 2)
    assert VectorField(w, [x1, zero, t1, zero]).parity == EVEN
    assert VectorField(w, [t1, zero, zero, zero]).parity == ODD
    assert VectorField(w, [x1 + t1, zero, zero, zero]).parity is None
    assert VectorField(w, [x1, zero, x1, zero]).parity is None


def test_mixed_field_on_a_monomial():
    # eta = (y + xi) d/dx + x d/dxi sends x y xi to x^2 y + y^2 xi
    w = SuperSpace(("x", "y", "xi"), (EVEN, EVEN, ODD))
    x, y, xi = (SuperPolynomial.variable(w, i) for i in range(3))
    eta = VectorField(w, [y + xi, SuperPolynomial.zero(w), x])
    assert eta.parity is None
    assert eta(x * y * xi) == x * x * y + y * y * xi


def test_mixed_field_is_the_sum_of_its_parity_parts():
    rng = random.Random(12)
    w = space_22()
    mixed = 0
    for _ in range(20):
        even = sampling.vector_field(rng, w, EVEN, 2)
        odd = sampling.vector_field(rng, w, ODD, 2)
        eta = VectorField(w, [a + b for a, b in zip(even.images, odd.images)])
        mixed += eta.parity is None
        f = sampling.polynomial(rng, w, 3, terms=4)
        assert eta(f) == even(f) + odd(f)
        assert divergence(eta) == divergence(even) + divergence(odd)
    assert mixed == 20


def test_divergence_examples():
    w1 = SuperSpace(("x",), (EVEN,))
    x = SuperPolynomial.variable(w1, 0)
    assert divergence(VectorField(w1, [x])) == SuperPolynomial.scalar(w1, 1)
    assert divergence(VectorField(w1, [x * x])) == 2 * x

    w2 = SuperSpace(("xi",), (ODD,))
    xi = SuperPolynomial.variable(w2, 0)
    assert divergence(VectorField(w2, [xi])) == SuperPolynomial.scalar(w2, -1)


def test_divergence_commutator_law():
    rng = random.Random(9)
    w = space_22()
    for _ in range(15):
        p1, p2 = rng.choice((0, 1)), rng.choice((0, 1))
        eta = sampling.vector_field(rng, w, p1, 3)
        gam = sampling.vector_field(rng, w, p2, 3)
        sgn = -1 if (p1 and p2) else 1
        lhs = divergence(commutator(eta, gam))
        rhs = eta(divergence(gam)) - sgn * gam(divergence(eta))
        assert lhs == rhs


def test_divergence_product_law():
    rng = random.Random(10)
    w = space_22()
    for _ in range(15):
        p1 = rng.choice((0, 1))
        pf = rng.choice((0, 1))
        eta = sampling.vector_field(rng, w, p1, 2)
        f = sampling.polynomial(rng, w, 2, parity=pf)
        sgn = -1 if (pf and p1) else 1
        lhs = divergence(VectorField(w, [f * img for img in eta.images]))
        rhs = f * divergence(eta) + sgn * eta(f)
        assert lhs == rhs


def test_divergence_basis_independence():
    rng = random.Random(11)
    w = space_22()
    for _ in range(8):
        p = rng.choice((0, 1))
        eta = sampling.vector_field(rng, w, p, 2)
        m = sampling.invertible_graded_matrix(rng, w)
        minv = linalg.inverse(m)
        phi = [SuperPolynomial(w, {(i,): m[i][j] for i in range(4) if m[i][j]})
               for j in range(4)]
        phi_inv = [SuperPolynomial(w, {(i,): minv[i][j] for i in range(4) if minv[i][j]})
                   for j in range(4)]

        def conj(f):
            return f.substitute(phi, w)

        def conj_inv(f):
            return f.substitute(phi_inv, w)

        imgs = [conj_inv(eta(conj(SuperPolynomial.variable(w, i)))) for i in range(4)]
        eta_t = VectorField(w, imgs)
        assert divergence(eta_t) == conj_inv(divergence(eta))


def test_substitution_rejects_a_mixed_image():
    # y, z -> x + xi, x + theta: y z = z y, but the image products differ by
    # 2 xi theta, so the map is no algebra map
    source = SuperSpace(("y", "z"), (EVEN, EVEN))
    target = SuperSpace(("x", "xi", "theta"), (EVEN, ODD, ODD))
    x, xi, theta = (SuperPolynomial.variable(target, i) for i in range(3))
    assert (x + xi) * (x + theta) - (x + theta) * (x + xi) == 2 * xi * theta
    yz = SuperPolynomial.monomial(source, (0, 1))
    with pytest.raises(ValueError):
        yz.substitute([x + xi, x + theta], target)
    zero = SuperPolynomial.zero(target)
    assert yz.substitute([x, zero], target).is_zero()


def test_substitute_matches_the_fraction_oracle():
    # y, z even and eta, zeta odd go to images over x, w even and xi, theta
    # odd.  The first images have denominators 2, 3 and 5, so they are scaled
    # by D = 30, and the inputs are not homogeneous, so a term below the top
    # degree is padded by a power of D: a dropped or wrong exponent changes
    # its coefficient.  The second set has a zero image and sends eta and
    # zeta to the same odd image, whose square cancels; the third has
    # nonlinear images.
    source = SuperSpace(("y", "z", "eta", "zeta"), (EVEN, EVEN, ODD, ODD))
    target = SuperSpace(("x", "w", "xi", "theta"), (EVEN, EVEN, ODD, ODD))
    x, w, xi, theta = (SuperPolynomial.variable(target, i) for i in range(4))
    zero = SuperPolynomial.zero(target)
    odd = xi / 5 + theta / 3
    image_sets = [[x / 2 - w / 3, x * 3 / 5 + w, xi / 3 + theta / 2, xi - theta * 2 / 5],
                  [x / 2, zero, odd, odd],
                  [x + xi * theta / 3, w * x / 2, x * xi / 5 + theta, xi * w]]
    y, z, eta, zeta = (SuperPolynomial.variable(source, i) for i in range(4))
    one = SuperPolynomial.scalar(source, Fraction(1, 7))
    rng = random.Random(19)
    cases = [one + y, y * z + eta * zeta, eta * zeta, y * y * eta + one, z]
    cases += [sampling.polynomial(rng, source, 4, terms=6) for _ in range(40)]
    denominators = set()
    nonzero = 0
    for images in image_sets:
        for f in cases:
            out = f.substitute(images, target)
            assert_same_terms(out, substitute_oracle(f, images, target))
            assert all(type(v) is Fraction for v in out.terms.values())
            denominators |= {v.denominator for v in out.terms.values()}
            nonzero += not out.is_zero()
    assert nonzero > 60
    assert all(any(d % p == 0 for d in denominators) for p in (2, 3, 5))
    first, second, _ = image_sets
    assert (one + y).substitute(first, target) == \
        SuperPolynomial.scalar(target, Fraction(1, 7)) + x / 2 - w / 3
    # the odd squares drop: (xi/3 + theta/2)(xi - 2 theta/5) = -19/30 xi theta
    assert (eta * zeta).substitute(first, target) == xi * theta * Fraction(-19, 30)
    assert (eta * zeta).substitute(second, target).is_zero()
    assert (y * z + eta).substitute(second, target) == odd


def test_supertrace_identity_maps():
    we = SuperSpace(("x",), (EVEN,))
    assert supertrace_oracle(VectorField(we, [SuperPolynomial.variable(we, 0)]), []) == 1
    wo = SuperSpace(("xi",), (ODD,))
    assert supertrace_oracle(VectorField(wo, [SuperPolynomial.variable(wo, 0)]), []) == -1


def tensor_evaluate(space, t, vectors):
    total = Fraction(0)
    for key, val in t.items():
        c = val
        for slot, idx in enumerate(key):
            c *= vectors[slot][idx]
            if c == 0:
                break
        total += c
    return total


def test_divergence_equals_supertrace_dual_path():
    # Prop. divsupertrace: i_{n-1} nabla(eta) evaluated on arguments equals
    # the supertrace of the field's Koszul-symmetric map, read off its
    # symmetrised tensor by the oracle; this pins the 1/n! between the two.
    rng = random.Random(13)
    w = space_11()
    for _ in range(25):
        rank = rng.choice((2, 3))
        eta = sampling.multilinear(rng, w, rank, terms=5)
        div = divergence(eta)
        args = [sampling.vector(rng, w) for _ in range(rank - 1)]
        # lift div (degree rank-1) to the invariant tensor i_{rank-1}
        inv = symmetrize_tensor(w, div.terms, rank - 1)
        lhs = tensor_evaluate(w, inv, args)
        rhs = supertrace_oracle(eta, args)
        assert lhs == rhs


def test_supertrace_dual_path_rank3_on_11():
    rng = random.Random(14)
    w = space_11()
    eta = sampling.multilinear(rng, w, 3, terms=6)
    assert all(len(k) == 3 for img in eta.images for k in img.terms)
    _, zeta = field_tensor(eta)
    assert is_symmetric_tensor(w, zeta, 3)
    # negating one entry with two distinct arguments breaks the symmetry
    key, val = next((k, v) for k, v in zeta.items() if len(set(k[:-1])) > 1)
    assert not is_symmetric_tensor(w, {**zeta, key: -val}, 3)


def test_multilinear_to_field_respects_commutators():
    # the commutator of fields of degrees 2 and 3, drawn by the sampler of
    # Koszul-symmetric maps, is again a field of the right degree shift
    rng = random.Random(16)
    w = space_11()
    z2 = sampling.multilinear(rng, w, 2, terms=4, parity=0)
    z3 = sampling.multilinear(rng, w, 3, terms=4, parity=1)
    assert (z2.parity, z3.parity) == (0, 1)
    com = commutator(z2, z3)
    assert all(img.is_zero() or img.max_degree() == 4 for img in com.images)
    assert not com.is_zero()
