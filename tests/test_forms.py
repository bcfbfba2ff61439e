import random

from bvgraph.graded import EVEN, ODD, SuperSpace
from bvgraph.superpoly import SuperPolynomial, VectorField
from bvgraph.forms import FormContext
from bvgraph import sampling
from oracles import commutator, parity_components, polynomial_parity


def ctx_11():
    return FormContext(SuperSpace(("x", "xi"), (EVEN, ODD)))


def ctx_22():
    return FormContext(SuperSpace(("x1", "x2", "t1", "t2"),
                                  (EVEN, EVEN, ODD, ODD)))


def test_d_of_square():
    c = ctx_11()
    x = c.y(0)
    assert c.d(x * x) == 2 * x * c.dy(0)


def test_d_of_dx_is_zero():
    c = ctx_11()
    assert c.d(c.dy(0)).is_zero()


def test_d_squared_zero_on_mixed_monomial():
    c = ctx_11()
    w = c.y(0) * c.y(1)
    dw = c.d(w)
    # left convention: d(x xi) = -xi dx + x dxi
    assert dw == -(c.y(1) * c.dy(0)) + c.y(0) * c.dy(1)
    assert c.d(dw).is_zero()


def test_dy_squares():
    c = ctx_11()
    assert (c.dy(0) * c.dy(0)).is_zero()      # dx odd
    assert not (c.dy(1) * c.dy(1)).is_zero()  # dxi even, may repeat


def test_contraction_basics():
    c = ctx_11()
    ddx = VectorField.coordinate(c.base, 0)
    assert c.contract(ddx, c.dy(0)) == SuperPolynomial.scalar(c.space, 1)
    assert c.contract(ddx, c.y(0)).is_zero()


def test_contraction_derivation_rule():
    rng = random.Random(2)
    c = ctx_22()
    for _ in range(10):
        eta = sampling.vector_field(rng, c.base, rng.choice((0, 1)), 2)
        w = sampling.form(rng, c, 3, 1)
        v = sampling.form(rng, c, 3, 1)
        ip = (eta.parity + 1) % 2
        for wpart in parity_components(w):
            if wpart.is_zero():
                continue
            sgn = -1 if (ip and polynomial_parity(wpart)) else 1
            assert (c.contract(eta, wpart * v)
                    == c.contract(eta, wpart) * v + sgn * wpart * c.contract(eta, v))


def test_lie_derivative_examples():
    c = ctx_11()
    ddx = VectorField.coordinate(c.base, 0)
    x = c.y(0)
    assert c.lie(ddx, x * c.dy(0)) == c.dy(0)
    euler_x = VectorField(c.base, [SuperPolynomial.variable(c.base, 0),
                                   SuperPolynomial.zero(c.base)])
    assert c.lie(euler_x, c.dy(0)) == c.dy(0)


def test_lie_vanishes_on_constants_for_fields_vanishing_at_zero():
    rng = random.Random(3)
    c = ctx_22()
    eta = sampling.vector_field(rng, c.base, EVEN, 2)
    one = SuperPolynomial.scalar(c.space, 5)
    assert c.lie(eta, one).is_zero()


def _random_pair(rng, c, deg=3):
    p1 = rng.choice((0, 1))
    eta = sampling.vector_field(rng, c.base, p1, deg, terms=2)
    w = sampling.form(rng, c, deg, 2, terms=3)
    return eta, w


def test_cartan_identity_suite():
    """The five operator identities plus d^2 = 0 on random pairs over (2|2)."""
    rng = random.Random(4)
    c = ctx_22()
    for _ in range(25):
        eta, w = _random_pair(rng, c)
        gam = sampling.vector_field(rng, c.base, rng.choice((0, 1)), 3, terms=2)
        pe, pg = eta.parity, gam.parity

        # (1) L_eta = [i_eta, d]
        s1 = -1 if ((pe + 1) % 2) else 1
        assert c.lie(eta, w) == c.contract(eta, c.d(w)) - s1 * c.d(c.contract(eta, w))
        # (2) [L_eta, i_gam] = i_{[eta,gam]}
        s2 = -1 if (pe and (pg + 1) % 2) else 1
        lhs = c.lie(eta, c.contract(gam, w)) - s2 * c.contract(gam, c.lie(eta, w))
        assert lhs == c.contract(commutator(eta, gam), w)
        # (3) L_{[eta,gam]} = [L_eta, L_gam]
        s3 = -1 if (pe and pg) else 1
        assert (c.lie(commutator(eta, gam), w)
                == c.lie(eta, c.lie(gam, w)) - s3 * c.lie(gam, c.lie(eta, w)))
        # (4) [i_eta, i_gam] = 0
        s4 = -1 if ((pe + 1) % 2 and (pg + 1) % 2) else 1
        assert (c.contract(eta, c.contract(gam, w))
                == s4 * c.contract(gam, c.contract(eta, w)))
        # (5) [L_eta, d] = 0
        s5 = -1 if pe else 1
        assert c.lie(eta, c.d(w)) == s5 * c.d(c.lie(eta, w))
        # d^2 = 0
        assert c.d(c.d(w)).is_zero()


def test_one_form_coefficients_round_trip():
    rng = random.Random(5)
    c = ctx_22()
    for _ in range(10):
        coeffs = [sampling.polynomial(rng, c.base, 2) for _ in range(4)]
        lam = c.one_form(coeffs)
        back = c.one_form_coefficients(lam)
        assert c.one_form(back) == lam


def test_poincare_integrate_inverts_d():
    rng = random.Random(6)
    c = ctx_22()
    for _ in range(10):
        h = sampling.polynomial(rng, c.base, 3, terms=3)
        h = h - SuperPolynomial.scalar(c.base, h.terms.get((), 0))
        lam = c.d(c.inject(h))
        assert c.poincare_integrate(lam) == h
