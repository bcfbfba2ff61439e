import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from bvgraph.graded import EVEN, ODD, SuperSpace
from bvgraph.superpoly import SuperPolynomial, VectorField
from bvgraph.forms import FormContext
from bvgraph.symplectic import (BilinearForm, LagrangianSubspace, SymplecticSpace,
                                i2_of_quadratic, restrict_polynomial)
from bvgraph.frobenius import FrobeniusAlgebra, Gauge, g3, k2, so3_reduced, verify_axioms
from bvgraph.dual import TensorModel, psi_of_word
from bvgraph import linalg, sampling
from oracles import (canonical_laplacian_oracle, contraction_matrix_oracle,
                     coordinate_lagrangian, duality_map, hamiltonian_field_form_oracle,
                     max_degree, min_degree, odd_laplacian_form_oracle, parity_components,
                     pi2_of_form, polynomial_parity, upsilon_inverse)


# Upsilon sends a constant 2-form to its super-skew matrix b; the library
# keeps b, and tests/oracles.py rebuilds omega = Upsilon^{-1}(b) for the
# form routes

def test_upsilon_on_dp_dq():
    v = SymplecticSpace.canonical_even(1, 0)
    ctx = FormContext(v.space)
    omega = SuperPolynomial.monomial(ctx.space, (2, 3), 1)  # dp dq
    assert v.form.rows == ((0, 1), (-1, 0))
    assert upsilon_inverse(ctx, v.form) == omega


def test_upsilon_on_odd_square_form():
    v = SymplecticSpace.canonical_even(0, 1)
    ctx = FormContext(v.space)
    omega = SuperPolynomial.monomial(ctx.space, (1, 1), Fraction(1, 2))  # 1/2 dx dx
    assert v.form.rows == ((-1,),)
    assert upsilon_inverse(ctx, v.form) == omega


def test_upsilon_on_canonical_odd_form():
    u = SymplecticSpace.canonical_odd(2)
    ctx = FormContext(u.space)
    omega = SuperPolynomial.sum(ctx.space, (  # dx1 dxi1 + dx2 dxi2
        SuperPolynomial.monomial(ctx.space, (4 + i, 6 + i), 1) for i in range(2)))
    assert upsilon_inverse(ctx, u.form) == omega


def test_upsilon_round_trip_random():
    # b -> omega = Upsilon^{-1}(b) -> Phi, read off the contractions
    # i_{d/dy_u}(omega) in the form algebra, gives back Phi[v][u] =
    # (-1)^{p_u} b[u][v], degenerate b included
    rng = random.Random(1)
    w = SuperSpace(("a", "b", "s", "t"), (EVEN, EVEN, ODD, ODD))
    for parity in (EVEN, ODD):
        for _ in range(10):
            n = len(w)
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if (w.parities[i] + w.parities[j]) % 2 != parity:
                        continue
                    c = sampling.rational(rng)
                    koszul = -1 if (w.parities[i] and w.parities[j]) else 1
                    if i == j:
                        if koszul == -1:
                            rows[i][i] = c  # odd diagonal allowed for skew
                    else:
                        rows[i][j] = c
                        rows[j][i] = -koszul * c
            b = BilinearForm(w, rows, parity, "skew")
            _, _, phi = contraction_matrix_oracle(SimpleNamespace(space=w, form=b))
            assert phi == [[(-1 if w.parities[u] else 1) * rows[u][v] for u in range(n)]
                           for v in range(n)]


def test_inverse_form_even_identity():
    w = SuperSpace(("e",), (EVEN,))
    b = BilinearForm(w, [[1]], EVEN, "sym")
    assert b.inverse().rows == ((1,),)


def test_inverse_form_of_k2s_restricted_d_form():
    w = SuperSpace(("xi",), (ODD,))
    b = BilinearForm(w, [[-1]], EVEN, "skew")
    assert b.inverse().rows == ((-1,),)


def test_inverse_form_odd_symmetric_is_antisymmetric():
    w = SuperSpace(("e0", "e1"), (EVEN, ODD))
    b = BilinearForm(w, [[0, 1], [1, 0]], ODD, "sym")
    inv = b.inverse()
    assert inv.symmetry == "skew"
    assert inv.rows == ((0, -1), (1, 0))


def test_inverse_form_commutes_with_tensor():
    # <-,->^{-1}_{A(x)W} = <-,->_A^{-1} (x) <-,->_W^{-1}, as the vanishing
    # theorem's proof uses.
    a = SuperSpace(("one", "xi"), (EVEN, ODD))
    pa = BilinearForm(a, [[0, 1], [1, 0]], ODD, "sym")
    v = SymplecticSpace.canonical_even(1, 0)
    tens = pa.tensor_with(v.form)
    lhs = tens.inverse()
    rhs = pa.inverse().tensor_with(v.form.inverse())
    assert lhs.rows == rhs.rows


def test_singular_inverse_raises():
    w = SuperSpace(("e0", "e1"), (EVEN, ODD))
    b = BilinearForm(w, [[0, 0], [0, 0]], ODD, "sym")
    with pytest.raises(ValueError):
        b.inverse()


def test_i2_pi2_round_trip():
    v = SymplecticSpace.canonical_even(1, 1)
    rng = random.Random(3)
    for _ in range(10):
        sigma = sampling.polynomial(rng, v.space, 2, parity=EVEN, min_degree=2)
        sigma = SuperPolynomial(v.space, {k: c for k, c in sigma.terms.items()
                                          if len(k) == 2})
        b = i2_of_quadratic(sigma)
        assert (b.parity, b.symmetry) == (EVEN, "sym")
        assert pi2_of_form(b) == sigma


def test_symplectic_space_needs_a_nondegenerate_skew_form():
    w = SuperSpace(("p", "q"), (EVEN, EVEN))
    with pytest.raises(ValueError, match="super-skew"):
        SymplecticSpace(BilinearForm(w, [[1, 0], [0, 1]], EVEN, "sym"))
    with pytest.raises(ValueError, match="singular"):
        SymplecticSpace(BilinearForm(w, [[0, 0], [0, 0]], EVEN, "skew"))
    u = SuperSpace(("x", "y", "xi"), (EVEN, EVEN, ODD))
    with pytest.raises(ValueError, match="n\\|n"):
        SymplecticSpace(BilinearForm(u, [[0, 0, 1], [0, 0, 0], [-1, 0, 0]], ODD, "skew"))


def test_hamiltonian_of_constant_is_zero_field():
    v = SymplecticSpace.canonical_even(1, 0)
    a = SuperPolynomial.scalar(v.space, 7)
    assert v.hamiltonian_field(a).is_zero()


def has_hamiltonian(symp, eta, form_route):
    """Whether ``hamiltonian_of`` accepts eta, having asserted that it
    raises exactly when L_eta(omega) is nonzero on the form route,
    ``contraction_matrix_oracle(symp)``."""
    ctx, omega, _ = form_route
    try:
        symp.hamiltonian_of(eta)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == ctx.lie(eta, omega).is_zero()
    return accepted


def test_hamiltonian_field_pq():
    v = SymplecticSpace.canonical_even(1, 0)
    p = SuperPolynomial.variable(v.space, 0)
    q = SuperPolynomial.variable(v.space, 1)
    alpha = v.hamiltonian_field(p * q)
    assert alpha.images[0] == p
    assert alpha.images[1] == -q
    assert has_hamiltonian(v, alpha, contraction_matrix_oracle(v))


def test_hamiltonian_field_preserves_omega_odd_case():
    u = SymplecticSpace.canonical_odd(1)
    rng = random.Random(4)
    for _ in range(5):
        a = sampling.polynomial(rng, u.space, 2, min_degree=2)
        for part in parity_components(a):
            if part.is_zero():
                continue
            assert has_hamiltonian(u, u.hamiltonian_field(part), contraction_matrix_oracle(u))


def test_phi_round_trip_and_closedness():
    rng = random.Random(5)
    v = SymplecticSpace.canonical_even(1, 1)
    for _ in range(10):
        par = rng.choice((0, 1))
        a = sampling.polynomial(rng, v.space, 3, parity=par, min_degree=1)
        alpha = v.hamiltonian_field(a)
        ctx, omega, _ = contraction_matrix_oracle(v)
        assert ctx.d(ctx.contract(alpha, omega)).is_zero()
        back = v.hamiltonian_of(alpha)
        diff = back - a
        assert all(k == () for k in diff.terms)


SPACES = {
    "V20": lambda: SymplecticSpace.canonical_even(1, 0),
    "V21": lambda: SymplecticSpace.canonical_even(1, 1),
    "V42": lambda: SymplecticSpace.canonical_even(2, 2),
    "U11": lambda: SymplecticSpace.canonical_odd(1),
    "U22": lambda: SymplecticSpace.canonical_odd(2),
    "G3xV21": lambda: TensorModel(g3(), SymplecticSpace.canonical_even(1, 1)).symp,
    "so3xV21": lambda: TensorModel(so3_reduced(),
                                   SymplecticSpace.canonical_even(1, 1)).symp,
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_phi_and_its_inverse_match_the_contraction_route(name):
    # Phi[v][u] = (-1)^{p_u} b[u][v] and Phi^{-1} = (-1)^{1 + |omega|} b^{-1},
    # read off the operators: hamiltonian_of(d/dy_u) = sum_v Phi[v][u] y_v and
    # hamiltonian_field(y_v)(y_u) = Phi^{-1}[u][v].
    symp = SPACES[name]()
    _, _, phi = contraction_matrix_oracle(symp)
    n, pars, b = len(symp.space), symp.space.parities, symp.form.rows
    assert phi == [[(-1 if pars[u] else 1) * b[u][v] for u in range(n)] for v in range(n)]
    assert phi == [[symp.hamiltonian_of(VectorField.coordinate(symp.space, u))
                    .terms.get((v,), 0) for u in range(n)] for v in range(n)]
    sign = -1 if symp.parity == EVEN else 1
    phi_inv = [[sign * x for x in row] for row in symp.inverse.rows]
    assert phi_inv == linalg.inverse(phi)
    fields = [symp.hamiltonian_field(SuperPolynomial.variable(symp.space, v))
              for v in range(n)]
    assert phi_inv == [[fields[v].images[u].terms.get((), 0) for v in range(n)]
                       for u in range(n)]


def test_hamiltonian_of_rejects_a_non_symplectic_field():
    v = SymplecticSpace.canonical_even(1, 0)
    p = SuperPolynomial.variable(v.space, 0)
    eta = VectorField(v.space, [p, SuperPolynomial.zero(v.space)])
    with pytest.raises(ValueError, match="not symplectic"):
        v.hamiltonian_of(eta)
    assert not has_hamiltonian(v, eta, contraction_matrix_oracle(v))


@pytest.mark.parametrize("name", ["V21", "U22", "G3xV21"])
def test_is_symplectic_field_agrees_with_the_lie_derivative(name):
    # eta is symplectic, L_eta(omega) = 0, exactly when hamiltonian_of
    # accepts it; Hamiltonian fields and random fields give both outcomes
    rng = random.Random(14)
    symp = SPACES[name]()
    form_route = contraction_matrix_oracle(symp)
    outcomes = set()
    for parity in (EVEN, ODD):
        for _ in range(6):
            a = sampling.polynomial(rng, symp.space, 3, parity=(parity + symp.parity) % 2,
                                    min_degree=1)
            for eta in (symp.hamiltonian_field(a),
                        sampling.vector_field(rng, symp.space, parity, 2)):
                symplectic = has_hamiltonian(symp, eta, form_route)
                outcomes.add(symplectic)
                if symplectic:
                    assert symp.hamiltonian_field(symp.hamiltonian_of(eta)).images \
                        == eta.images
    assert outcomes == {True, False}


def test_poisson_pq_is_minus_one():
    v = SymplecticSpace.canonical_even(1, 0)
    p = SuperPolynomial.variable(v.space, 0)
    q = SuperPolynomial.variable(v.space, 1)
    assert v.poisson(p, q) == SuperPolynomial.scalar(v.space, -1)
    assert v.poisson(p, SuperPolynomial.scalar(v.space, 3)).is_zero()


def test_poisson_leibniz_from_derivation():
    v = SymplecticSpace.canonical_even(1, 0)
    p = SuperPolynomial.variable(v.space, 0)
    q = SuperPolynomial.variable(v.space, 1)
    assert v.poisson(p * p, q) == 2 * p * v.poisson(p, q)


def test_poisson_antisymmetry_jacobi_closure():
    rng = random.Random(6)
    v = SymplecticSpace.canonical_even(1, 1)
    for _ in range(8):
        pa, pb, pc = (rng.choice((0, 1)) for _ in range(3))
        a = sampling.polynomial(rng, v.space, 4, parity=pa, min_degree=3, terms=2)
        b = sampling.polynomial(rng, v.space, 4, parity=pb, min_degree=3, terms=2)
        c = sampling.polynomial(rng, v.space, 4, parity=pc, min_degree=3, terms=2)
        sab = -1 if (pa and pb) else 1
        assert v.poisson(a, b) == -sab * v.poisson(b, a)
        jac = v.poisson(a, v.poisson(b, c))
        jac = jac - sab * v.poisson(b, v.poisson(a, c))
        jac = jac - v.poisson(v.poisson(a, b), c)
        assert jac.is_zero()
        # closure of the g-tilde filtration: degrees add minus two
        br = v.poisson(a, b)
        assert br.is_zero() or min_degree(br) >= 4


def test_osp_semidirect_structure():
    rng = random.Random(7)
    v = SymplecticSpace.canonical_even(1, 1)
    for _ in range(8):
        qa = sampling.polynomial(rng, v.space, 2, parity=rng.choice((0, 1)),
                                 min_degree=2, terms=2)
        qb = sampling.polynomial(rng, v.space, 2, parity=rng.choice((0, 1)),
                                 min_degree=2, terms=2)
        g = sampling.polynomial(rng, v.space, 4, parity=rng.choice((0, 1)),
                                min_degree=3, terms=2)
        bqq = v.poisson(qa, qb)
        assert bqq.is_zero() or (min_degree(bqq) >= 2 and max_degree(bqq) <= 2)
        bqg = v.poisson(qa, g)
        assert bqg.is_zero() or min_degree(bqg) >= 3


def test_antibracket_x_xi():
    u = SymplecticSpace.canonical_odd(1)
    x = SuperPolynomial.variable(u.space, 0)
    xi = SuperPolynomial.variable(u.space, 1)
    assert u.antibracket(x, xi) == SuperPolynomial.scalar(u.space, 1)
    assert u.antibracket(SuperPolynomial.scalar(u.space, 2), xi).is_zero()


def test_antibracket_is_linear_in_an_inhomogeneous_first_argument():
    u = SymplecticSpace.canonical_odd(1)
    x = SuperPolynomial.variable(u.space, 0)
    xi = SuperPolynomial.variable(u.space, 1)
    b = x * xi
    bracket = u.antibracket(x * x + xi, b)
    assert bracket == u.antibracket(x * x, b) + u.antibracket(xi, b)
    assert bracket == 2 * x * x + xi


def test_poisson_is_linear_in_an_inhomogeneous_first_argument():
    v = SymplecticSpace.canonical_even(1, 1)
    p, q, x = (SuperPolynomial.variable(v.space, i) for i in range(3))
    b = p * q * x
    bracket = v.poisson(p * p + q * x, b)
    assert bracket == v.poisson(p * p, b) + v.poisson(q * x, b)
    assert bracket == -2 * p * p * x - p * q * q
    rng = random.Random(14)
    mixed = 0
    for _ in range(10):
        a = sampling.polynomial(rng, v.space, 3, terms=4)
        b = sampling.polynomial(rng, v.space, 3, terms=3)
        even, odd = parity_components(a)
        mixed += polynomial_parity(a) is None
        assert v.poisson(a, b) == v.poisson(even, b) + v.poisson(odd, b)
    assert mixed >= 5


def test_antibracket_odd_leibniz():
    rng = random.Random(8)
    u = SymplecticSpace.canonical_odd(2)
    for _ in range(10):
        pa, pb = rng.choice((0, 1)), rng.choice((0, 1))
        a = sampling.polynomial(rng, u.space, 2, parity=pa, terms=2)
        b = sampling.polynomial(rng, u.space, 2, parity=pb, terms=2)
        c = sampling.polynomial(rng, u.space, 2, terms=2)
        sgn = -1 if ((pa + 1) % 2 and pb) else 1
        assert (u.antibracket(a, b * c)
                == u.antibracket(a, b) * c + sgn * b * u.antibracket(a, c))


def test_antibracket_shifted_lie_axioms():
    # The bracket is super-symmetric, {a,b} = (-1)^{ab}{b,a}; transporting the
    # parity shift through [Pi a, Pi b] := (-1)^a Pi{a,b} turns that into
    # antisymmetry of a genuine Lie bracket, whose Jacobi identity reads
    # {a,{b,c}} = (-1)^{a+1}{{a,b},c} + (-1)^{(a+1)(b+1)}{b,{a,c}}.
    rng = random.Random(9)
    u = SymplecticSpace.canonical_odd(2)
    for _ in range(12):
        pa, pb, pc = (rng.choice((0, 1)) for _ in range(3))
        a = sampling.polynomial(rng, u.space, 2, parity=pa, terms=2)
        b = sampling.polynomial(rng, u.space, 2, parity=pb, terms=2)
        c = sampling.polynomial(rng, u.space, 2, parity=pc, terms=2)
        sgn = -1 if (pa and pb) else 1
        assert u.antibracket(a, b) == sgn * u.antibracket(b, a)
        s1 = -1 if (pa + 1) % 2 else 1
        s2 = -1 if ((pa + 1) % 2 and (pb + 1) % 2) else 1
        lhs = u.antibracket(a, u.antibracket(b, c))
        rhs = (s1 * u.antibracket(u.antibracket(a, b), c)
               + s2 * u.antibracket(b, u.antibracket(a, c)))
        assert (lhs - rhs).is_zero()


def test_odd_laplacian_values():
    u = SymplecticSpace.canonical_odd(1)
    x = SuperPolynomial.variable(u.space, 0)
    xi = SuperPolynomial.variable(u.space, 1)
    assert u.odd_laplacian(x * xi) == SuperPolynomial.scalar(u.space, 1)
    assert u.odd_laplacian(x * x).is_zero()
    assert u.odd_laplacian(x * x * xi) == 2 * x


def test_odd_laplacian_matches_canonical_oracle_and_squares_to_zero():
    rng = random.Random(10)
    u = SymplecticSpace.canonical_odd(2)
    for _ in range(12):
        a = sampling.polynomial(rng, u.space, 4, terms=4)
        lap = u.odd_laplacian(a)
        assert lap == canonical_laplacian_oracle(u, a)
        assert u.odd_laplacian(lap).is_zero()


def test_bv_identities_exhaustive_deg4_u22():
    u = SymplecticSpace.canonical_odd(2)
    monos = []
    for d in range(5):
        monos.extend(SuperPolynomial.monomial(u.space, k)
                     for k in sampling.monomial_keys(u.space, d))
    for a in monos:
        pa = polynomial_parity(a)
        sa = -1 if pa else 1
        for b in monos[:30]:
            lhs = u.odd_laplacian(a * b)
            rhs = (u.odd_laplacian(a) * b + sa * a * u.odd_laplacian(b)
                   + u.antibracket(a, b))
            assert lhs == rhs
            br = (u.odd_laplacian(u.antibracket(a, b))
                  + u.antibracket(u.odd_laplacian(a), b)
                  + sa * u.antibracket(a, u.odd_laplacian(b)))
            assert br.is_zero()


# -- the direct operators against the form route -----------------------------

def _matches_form_route(symp, a):
    """Assert that the Hamiltonian field of a, and on an odd space its
    Laplacian, equal the form oracles; return whether the value compared last
    is nonzero."""
    field = symp.hamiltonian_field(a)
    oracle = hamiltonian_field_form_oracle(symp, a)
    assert field.images == oracle.images
    assert field.parity == oracle.parity
    if symp.parity == EVEN:
        return not field.is_zero()
    lap = symp.odd_laplacian(a)
    assert lap == odd_laplacian_form_oracle(symp, a)
    return not lap.is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operators_match_form_route_on_canonical_odd(n):
    rng = random.Random(20 + n)
    u = SymplecticSpace.canonical_odd(n)
    polys = [SuperPolynomial.monomial(u.space, key, 1)
             for d in range(4) for key in sampling.monomial_keys(u.space, d)]
    polys += [sampling.polynomial(rng, u.space, 4, terms=5) for _ in range(20)]
    nonzero = sum(_matches_form_route(u, a) for a in polys)
    assert 3 * nonzero >= len(polys)


K2_V21 = TensorModel(k2(), SymplecticSpace.canonical_even(1, 1)).symp


def odd_space_with_rational_inverse():
    """U_{2|2} with b[x_i][xi_j] = M[i][j] = -b[xi_j][x_i] for the rational,
    non-diagonal M = [[2, 1], [1/3, 1]]: Phi^{-1} has the entries +-3/5,
    -1/5 and 6/5, where every other fixture's are +-1."""
    space = SuperSpace(["x1", "x2", "xi1", "xi2"], [EVEN, EVEN, ODD, ODD])
    m = [[2, 1], [Fraction(1, 3), 1]]
    rows = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            rows[i][2 + j], rows[2 + j][i] = m[i][j], -m[i][j]
    return SymplecticSpace(BilinearForm(space, rows, ODD, "skew"))


U22_RATIONAL = odd_space_with_rational_inverse()
ODD_SPACES = (SymplecticSpace.canonical_odd(2), K2_V21, U22_RATIONAL)


@st.composite
def odd_space_polynomials(draw):
    """(odd symplectic space, inhomogeneous polynomial of degree <= 4)."""
    symp = draw(st.sampled_from(ODD_SPACES))
    keys = [key for d in range(5) for key in sampling.monomial_keys(symp.space, d)]
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    terms = draw(st.dictionaries(st.sampled_from(keys), coeff, max_size=6))
    return symp, SuperPolynomial(symp.space, terms)


@settings(max_examples=60, deadline=None)
@given(odd_space_polynomials())
def test_operators_match_form_route_on_random_polynomials(case):
    # K2 (x) V_{2|1} carries an odd form that is not in canonical coordinates
    symp, a = case
    _matches_form_route(symp, a)
    assert symp.odd_laplacian(symp.odd_laplacian(a)).is_zero()


def test_operators_match_form_route_with_a_rational_inverse():
    # only here do the integer kernels scale Phi^{-1} by a denominator > 1
    symp = U22_RATIONAL
    assert {x.denominator for row in symp.inverse.rows for x in row} == {1, 5}
    rng = random.Random(14)
    polys = [SuperPolynomial.monomial(symp.space, key, Fraction(1, 2))
             for d in range(4) for key in sampling.monomial_keys(symp.space, d)]
    polys += [sampling.polynomial(rng, symp.space, 4, terms=5) for _ in range(20)]
    nonzero = 0
    for a in polys:
        nonzero += _matches_form_route(symp, a)
        assert symp.odd_laplacian(symp.odd_laplacian(a)).is_zero()
    assert 3 * nonzero >= len(polys)


def test_operators_match_form_route_on_psi_words_and_sigma():
    rng = random.Random(12)
    nonzero = compared = 0
    for alg in (k2(), g3(), so3_reduced()):
        for v in (SymplecticSpace.canonical_even(1, 0), SymplecticSpace.canonical_even(1, 1)):
            model = TensorModel(alg, v)
            quadratic = sampling.monomial_keys(v.space, 2)
            cubic = sampling.monomial_keys(v.space, 3)
            words = [(rng.choice(quadratic), rng.choice(cubic)) for _ in range(3)]
            words += [tuple(rng.sample(cubic, 2)) for _ in range(3)]
            polys = [psi_of_word(model, word) for word in words] + [model.sigma]
            nonzero += sum(_matches_form_route(model.symp, a) for a in polys)
            compared += len(polys)
    assert 3 * nonzero >= compared


def test_poisson_fields_match_form_route_on_v21():
    rng = random.Random(13)
    v = SymplecticSpace.canonical_even(1, 1)
    nonzero = compared = 0
    for _ in range(15):
        a = sampling.polynomial(rng, v.space, 4, terms=4)
        b = sampling.polynomial(rng, v.space, 4, terms=4)
        parts = [part for part in parity_components(a) if not part.is_zero()]
        for part in parts:
            nonzero += _matches_form_route(v, part)
            compared += 1
        oracle = SuperPolynomial.sum(v.space, (
            (-1 if polynomial_parity(part) else 1) * hamiltonian_field_form_oracle(v, part)(b)
            for part in parts))
        assert v.poisson(a, b) == oracle
        nonzero += not oracle.is_zero()
        compared += 1
    assert 3 * nonzero >= compared


def test_lagrangian_from_zero_phi_is_canonical():
    # the graph of the gradient of phi = 0 on U_{2|2}, with x1 and xi2 free,
    # is the coordinate Lagrangian span(x1, xi2) of the BV-Stokes tests
    u = SymplecticSpace.canonical_odd(2)
    l = coordinate_lagrangian(u, 1)
    assert l.subspace().dim() == (1, 1)
    assert [list(v) for v in l.vectors] == [[1, 0, 0, 0], [0, 0, 0, 1]]


BAD_BASES = pytest.mark.parametrize("vectors, match", [
    ([(1, 0, 1, 0), (0, 1, 0, 0)], "homogeneous"),   # x1 + xi1
    ([(0, 0, 0, 0), (0, 1, 0, 0)], "nonzero"),
    ([(1, 0, 0, 0)], "total dimension"),
    ([(1, 0, 0, 0), (2, 0, 0, 0)], "dependent"),
    ([(1, 0, 0, 0), (0, 0, 1, 0)], "isotropic"),      # <x1, xi1> = 1
    # one entry per basis vector, checked before anything reads the vectors
    ([(1, 0, 0, 0, 0), (0, 0, 0, 1, 0)], "4 entries"),
    ([(1, 0, 0, 0, 1), (0, 0, 0, 1, 0)], "4 entries"),
    ([(1, 0, 0), (0, 0, 0)], "4 entries"),
], ids=["mixed_parity", "zero_vector", "wrong_count", "dependent", "not_isotropic",
        "trailing_zero", "trailing_one", "short"])


def test_lagrangian_rejects_a_degenerate_form():
    # isotropy is vacuous for the zero form, so [x1, x2] passes every basis
    # check; a Lagrangian is only defined for a nondegenerate form
    u = SymplecticSpace.canonical_odd(2)
    zero = BilinearForm(u.space, [[0] * 4] * 4, ODD, "sym")
    with pytest.raises(ValueError, match="degenerate"):
        LagrangianSubspace(zero, [(1, 0, 0, 0), (0, 1, 0, 0)])


def test_nondegeneracy_is_found_once_per_form(monkeypatch):
    # the rank of a form's matrix is taken at the first Lagrangian of it
    form = SymplecticSpace.canonical_odd(2).form
    ranks = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: ranks.append(len(rows)) or rank(rows))
    for vectors in ([(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)]):
        LagrangianSubspace(form, vectors)
    assert ranks == [4, 2, 2]


def test_forms_keep_one_zero_object():
    # a tensored form's rows are mostly zeros, which all share one Fraction
    form = g3().pairing.tensor_with(SymplecticSpace.canonical_even(1, 1).form)
    entries = [x for row in form.rows for x in row]
    zeros = {id(x) for x in entries if x == 0}
    assert len(zeros) == 1 and len(entries) - sum(x != 0 for x in entries) > 400
    assert all(type(x) is Fraction for x in entries)


@BAD_BASES
def test_lagrangian_rejects_bad_bases(vectors, match):
    u = SymplecticSpace.canonical_odd(2)
    with pytest.raises(ValueError, match=match):
        LagrangianSubspace(u.form, vectors)


@BAD_BASES
def test_gauge_rejects_bad_bases(vectors, match):
    # a gauge is a Lagrangian of the pairing: on U_{2|2}'s space with the odd
    # symmetric pairing <x_i, xi_i> = 1 (zero product and differential) the
    # same bases fail with the same messages
    u = SymplecticSpace.canonical_odd(2)
    alg = FrobeniusAlgebra(u.space, {}, [[0] * 4] * 4,
                           [[abs(c) for c in row] for row in u.form.rows])
    assert verify_axioms(alg)["ok"]
    with pytest.raises(ValueError, match=match):
        Gauge(alg, vectors)


def test_duality_map_examples():
    u = SymplecticSpace.canonical_odd(2)
    one = SuperPolynomial.scalar(u.space, 1)
    ctx, vol = duality_map(u, one)
    assert vol == SuperPolynomial.monomial(ctx.space, (2, 3), 1)
    top = SuperPolynomial.monomial(u.space, (2, 3), 1)  # xi1 xi2
    ctx, c = duality_map(u, top)
    assert ctx.project_function(c) == SuperPolynomial.scalar(ctx.base, 1) or \
        ctx.project_function(c) == SuperPolynomial.scalar(ctx.base, -1)


def test_duality_intertwines_laplacian_and_d():
    rng = random.Random(11)
    for n in (1, 2):
        u = SymplecticSpace.canonical_odd(n)
        for _ in range(10):
            g = sampling.polynomial(rng, u.space, 3, terms=3)
            ctx, dg = duality_map(u, u.odd_laplacian(g))
            ctx2, Dg = duality_map(u, g)
            assert dg == ctx.d(Dg)


def test_duality_bijective_degreewise():
    u = SymplecticSpace.canonical_odd(1)
    x = SuperPolynomial.variable(u.space, 0)
    xi = SuperPolynomial.variable(u.space, 1)
    ctx, d1 = duality_map(u, x * xi)
    assert not d1.is_zero()
    ctx, d2 = duality_map(u, x)
    assert not d2.is_zero()


def test_restrict_polynomial():
    u = SymplecticSpace.canonical_odd(1)
    x = SuperPolynomial.variable(u.space, 0)
    xi = SuperPolynomial.variable(u.space, 1)
    sub = SuperSpace(("s",), (EVEN,))
    r = restrict_polynomial(x * x + x * xi, [(1, 0)], sub)
    s = SuperPolynomial.variable(sub, 0)
    assert r == s * s


def test_gram_restriction_is_pairwise_evaluation():
    # restrict forms B v once per vector and then the dot products; the old
    # definition took evaluate(u, v) pair by pair.  Both must agree on even
    # and odd forms, symmetric and skew, with the vectors dense, sparse or
    # mixed, and with zero and repeated vectors among them
    rng = random.Random(7)
    alg = g3()
    model = TensorModel(alg, SymplecticSpace.canonical_even(1, 1))
    forms = [alg.pairing, alg.d_form, model.dform, model.symp.form]
    assert {(f.parity, f.symmetry) for f in forms} == {
        (ODD, "sym"), (EVEN, "skew"), (EVEN, "sym"), (ODD, "skew")}
    nonzero = 0
    for form in forms:
        n = len(form.space)
        for _ in range(4):
            dense = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) if rng.random() < 0.4
                      else 0 for _ in range(n)] for _ in range(5)]
            dense += [[0] * n, dense[0]]
            sparse = [{i: x for i, x in enumerate(v) if x} for v in dense]
            mixed = [v if r % 2 else s for r, (v, s) in enumerate(zip(dense, sparse))]
            pairwise = [[form.evaluate(u, v) for v in dense] for u in dense]
            for vectors in (dense, sparse, mixed):
                assert form.restrict(vectors) == pairwise
            nonzero += sum(x != 0 for row in pairwise for x in row)
    assert nonzero >= 40
