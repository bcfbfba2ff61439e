from fractions import Fraction
from itertools import permutations, product
from math import lcm

import pytest

from bvgraph.frobenius import (FrobeniusAlgebra, Gauge, VertexTensors,
                               algebra_from_json, algebra_to_json,
                               check_contractible, degenerate_form, g3, g3_gauge,
                               gauge_at, grassmann_algebra, k2, so3_reduced,
                               verify_axioms, vertex_tensor, vertex_tensor_on_vectors)
from bvgraph import frobenius, linalg
from bvgraph.graded import EVEN, ODD, SuperSpace, perm_parity
from bvgraph.symplectic import LagrangianSubspace
from oracles import (g3_gauge_oracle, g5, is_symmetric_tensor, rescaled,
                     vertex_tensor_oracle)

# so3red in a scaled basis: its structure constants and its pairing have
# denominators
SO3_SCALES = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), Fraction(1), Fraction(5, 2),
              Fraction(3)]
# a gauge of so3red + G3 whose L mixes parities, with mu_3..mu_6 all nonzero
DENSE_COORDS = (1, 1, 0, 0, 0, 0, 0, 0, 1, 0)


def so3_rescaled():
    return rescaled(so3_reduced(), SO3_SCALES)


def so3_plus_g3():
    return frobenius.direct_sum(so3_reduced(), g3())


def dense_gauge(alg):
    return gauge_at(alg, DENSE_COORDS)


def scaled_gauge_vectors(alg):
    """The one gauge of so3red, or of its rescaled form, with its basis
    scaled by 1/2, -2/3 and 3/5."""
    return [[s * x for x in v] for s, v in zip((Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5)),
                                               gauge_at(alg, ()).vectors)]


def test_k2_axioms_pass():
    rep = verify_axioms(k2())
    assert rep["ok"], rep["failures"]


def test_g3_axioms_pass():
    rep = verify_axioms(g3())
    assert rep["ok"], rep["failures"]


def test_k2_with_even_d_injected_fails_parity():
    alg = k2()
    broken = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]]  # d(xi)=xi
    bad = type(alg)(alg.space, alg.mult, broken,
                    [list(r) for r in alg.pairing.rows])
    rep = verify_axioms(bad)
    assert not rep["ok"]
    assert any("not odd" in f for f in rep["failures"])


def g3_with_doubled_product(orders):
    """G3 with xi1 xi2 doubled in the given orders of its factors."""
    alg = g3()
    mult = {ij: dict(img) for ij, img in alg.mult.items()}
    for ij in orders:
        mult[ij] = {k: 2 * c for k, c in mult[ij].items()}
    return FrobeniusAlgebra(alg.space, mult, alg.diff, [list(r) for r in alg.pairing.rows])


def test_axioms_fail_on_a_doubled_product():
    # xi1 xi2 = 2 xi12 but xi2 xi1 = -xi12 breaks graded commutativity; with
    # both orders doubled only (xi1 xi2) xi3 = 2 xi123 = 2 xi1 (xi2 xi3)
    # is off, which associativity and invariance both see
    rep = verify_axioms(g3_with_doubled_product([(1, 2)]))
    assert {"graded commutativity fails at (1,2)",
            "associativity fails at (1,2,3)"} <= set(rep["failures"])
    rep = verify_axioms(g3_with_doubled_product([(1, 2), (2, 1)]))
    assert not rep["ok"]
    assert not any("commutativity" in f for f in rep["failures"])
    assert [f for f in rep["failures"] if "(1,2,3)" in f] == [
        "associativity fails at (1,2,3)", "invariance <ab,c>=<a,bc> fails at (1,2,3)"]


def test_degenerate_form_k2():
    alg = k2()
    dform = degenerate_form(alg)
    assert dform.rows[1][1] == -1
    assert dform.rows[0][0] == 0 and dform.rows[0][1] == 0 and dform.rows[1][0] == 0


def test_degenerate_form_kills_closed_elements():
    alg = g3()
    dform = degenerate_form(alg)
    for ker in alg.kernel_of_d():
        for i in range(8):
            row = [Fraction(0)] * 8
            row[i] = Fraction(1)
            assert dform.evaluate(row, ker) == 0


def test_degenerate_form_g3_rank():
    assert linalg.rank(degenerate_form(g3()).matrix()) == 4


def test_contractibility():
    assert check_contractible(k2()) == (True, 1)
    assert check_contractible(g3()) == (True, 4)
    lam3 = grassmann_algebra(3, {})  # d = 0
    flag, _ = check_contractible(lam3)
    assert not flag


def test_k2_unique_gauge():
    alg = k2()
    assert alg.gauge_family == (((0, 1),), ())
    gauge = gauge_at(alg, ())
    assert [list(v) for v in gauge.vectors] == [[0, 1]] and gauge.label == "()"


def test_g3_gauge_family_has_4_parameters():
    # the 16 corners of the box {0, 1}^4 are 16 distinct gauges
    alg = g3()
    assert len(alg.gauge_family[1]) == 4
    gauges = [gauge_at(alg, coords) for coords in product((0, 1), repeat=4)]
    assert len({tuple(g.vectors) for g in gauges}) == 16
    assert gauges[5].label == "(0, 1, 0, 1)"


def test_gauge_at_needs_one_coordinate_per_direction():
    for coords in ((), (1, 2, 3), (0,) * 5):
        with pytest.raises(ValueError, match="G3 has 4 directions"):
            gauge_at(g3(), coords)


def test_named_g3_gauges_validate():
    g0 = g3_gauge(0, 0, 0, 0)
    g1 = g3_gauge(0, 0, 0, 1)
    alg = g3()
    # the (0,0,0,0) member is spanned by the basis vectors xi1, xi12, xi13, xi123
    assert [list(v) for v in g0.vectors] == [
        [int(nm == name) for nm in alg.space.names]
        for name in ("xi1", "xi12", "xi13", "xi123")]
    idx = {nm: i for i, nm in enumerate(alg.space.names)}
    # the d=1 member contains P = xi1xi2 - 1 and w = xi1xi2xi3 + xi3
    p = [Fraction(0)] * 8
    p[idx["xi12"]] = Fraction(1)
    p[idx["1"]] = Fraction(-1)
    w = [Fraction(0)] * 8
    w[idx["xi123"]] = Fraction(1)
    w[idx["xi3"]] = Fraction(1)
    assert list(g1.vectors[1]) == p
    assert list(g1.vectors[3]) == w


def test_named_g3_gauges_lie_in_generic_family():
    # every named member complements d(A), is isotropic, has nondeg d-form;
    # also random members of the family: building a gauge checks all three
    for params in ((0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (2, -1, 3, 1),
                   (Fraction(1, 2), 0, 1, -2)):
        g3_gauge(*params)


@pytest.mark.parametrize("params", (
    (0, 0, 0, 1), (1, 1, 1, 1), (1, 2, 3, 4), (0, 0, 0, 0), (1, 0, 0, 0), (2, -1, 3, 1),
    (Fraction(1, 2), 0, 1, -2), (-3, Fraction(2, 7), Fraction(-5, 3), -1)))
def test_g3_gauge_is_the_closed_form(params):
    # the point (d - b, a - c, c, d) of G3's family is the hand-solved
    # L(a,b,c,d), vector by vector; the first three are the benchmark's
    alg = g3()
    gauge, oracle = g3_gauge(*params, alg=alg), g3_gauge_oracle(*params, alg)
    assert gauge.vectors == oracle.vectors and gauge.label == oracle.label


def test_gauge_of_a_degenerate_pairing_is_rejected():
    # K2's space and differential with the zero pairing: the Lagrangian
    # checks refuse the pairing before any gauge test runs
    base = k2()
    alg = FrobeniusAlgebra(base.space, base.mult, base.diff, [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="degenerate"):
        Gauge(alg, [(0, 1)])


def test_gauge_of_a_pairing_that_is_not_d_invariant_reports_the_d_form():
    # U_{2|2}'s space with <x_i, xi_i> = 1, the zero product and d swapping
    # x1 and xi2: <d x1, x2> = 1 while <x1, d x2> = 0, so the pairing is not
    # d-invariant and <-,->_d fails its own skew check; the gauge [x2, xi1]
    # complements d(A) and reports that error as it is
    space = SuperSpace(("x1", "x2", "xi1", "xi2"), (EVEN, EVEN, ODD, ODD))
    pairing = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    diff = [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]
    alg = FrobeniusAlgebra(space, {}, diff, pairing, name="U22")
    with pytest.raises(ValueError, match=r"declared skewmetry fails at \(0,1\)"):
        Gauge(alg, [(0, 1, 0, 0), (0, 0, 1, 0)])


def test_gauge_basis_is_checked_as_a_lagrangian():
    # a gauge is a Lagrangian of the pairing, so three vectors of a G3 gauge,
    # or a repeated one, fail the Lagrangian's basis checks before the
    # complement test
    alg = g3()
    vectors = g3_gauge(1, 2, 3, 4, alg=alg).vectors
    assert isinstance(g3_gauge(alg=alg), LagrangianSubspace)
    with pytest.raises(ValueError, match="total dimension"):
        Gauge(alg, vectors[:3])
    with pytest.raises(ValueError, match="dependent"):
        Gauge(alg, vectors[:3] + vectors[:1])


def test_so3_reduced_fixture():
    alg = so3_reduced()
    assert alg.space.names == ("xi1", "xi2", "xi3", "xi12", "xi13", "xi23")
    assert alg.space.parities == (ODD,) * 3 + (EVEN,) * 3
    assert verify_axioms(alg)["ok"]
    assert check_contractible(alg) == (True, 3)
    assert alg.gauge_family[1] == ()
    gauge = gauge_at(alg, ())
    assert gauge.parities == [ODD] * 3  # the odd part xi1, xi2, xi3
    assert [list(row) for row in gauge.propagator] == [
        [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    # mu_3 is the Levi-Civita symbol
    assert gauge.mu(3) == {perm: perm_parity(perm)
                           for perm in permutations(range(3))}


def test_non_contractible_input_has_no_gauges():
    with pytest.raises(ValueError, match="not contractible"):
        gauge_at(grassmann_algebra(3, {}), ())
    # contractible, but <d(xi), y> = <e, y> = 1 breaks d-invariance: d(A) =
    # span{e, y} is not isotropic, and no graph over {f, xi} is isotropic
    space = SuperSpace(("e", "f", "xi", "y"), (EVEN, EVEN, ODD, ODD))
    pairing = [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    diff = [[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]]
    alg = FrobeniusAlgebra(space, {}, diff, pairing)
    assert check_contractible(alg) == (True, 2)
    with pytest.raises(ValueError, match="no isotropic complement"):
        gauge_at(alg, ())


def test_vertex_tensor_k2_all_xi_is_zero():
    mu3 = vertex_tensor(k2(), 3)
    assert (1, 1, 1) not in mu3


def test_vertex_tensor_values_on_d1_gauge():
    alg = g3()
    gauge = g3_gauge(0, 0, 0, 1, alg=alg)
    mu3 = vertex_tensor_on_vectors(alg, gauge.vectors, 3)
    # gauge order: v0=xi1, v1=P, v2=xi1xi3, v3=w ; mu3(P,P,w) = <P^2, w> = -1
    assert mu3.get((1, 1, 3)) == -1
    # Koszul symmetry of the swap (P, w) (even*odd -> sign +1)
    assert mu3.get((1, 3, 1)) == mu3.get((1, 1, 3))


def test_vertex_tensor_symmetry_k_up_to_4():
    for gauge in (gauge_at(k2(), ()), g3_gauge(0, 0, 0, 1)):
        alg = gauge.alg
        for k in (3, 4):
            mu = vertex_tensor(alg, k)
            assert is_symmetric_tensor(alg.space, mu, k)
            mul = vertex_tensor_on_vectors(alg, gauge.vectors, k)
            assert is_symmetric_tensor(gauge.subspace(), mul, k)


def test_symmetry_check_catches_one_negated_entry():
    gauge = gauge_at(so3_reduced(), ())
    eps = gauge.mu(3)
    assert is_symmetric_tensor(gauge.subspace(), eps, 3)
    for key in eps:
        broken = dict(eps)
        broken[key] = -broken[key]
        assert not is_symmetric_tensor(gauge.subspace(), broken, 3)


def test_gauge_rejects_a_vector_of_mixed_parity():
    alg = g3()
    idx = {nm: i for i, nm in enumerate(alg.space.names)}
    vectors = [list(v) for v in g3_gauge(alg=alg).vectors]
    vectors[0][idx["1"]] = Fraction(1)  # xi1 + 1: odd plus even
    with pytest.raises(ValueError, match="homogeneous"):
        Gauge(alg, vectors)


VERTEX_TENSOR_CASES = {
    "K2": (k2, lambda alg: linalg.identity(2)),
    "G3": (g3, lambda alg: linalg.identity(8)),
    **{"G3_" + "".join(map(str, params)):
       (g3, lambda alg, p=params: g3_gauge(*p, alg=alg).vectors)
       for params in ((0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 1), (1, 2, 3, 4))},
    "so3": (so3_reduced, lambda alg: gauge_at(alg, ()).vectors),
    # the so(3) gauge with its basis scaled by 1/2, -2/3 and 3/5
    "so3_scaled": (so3_reduced, scaled_gauge_vectors),
    # structure constants with denominators, on the basis and on a gauge
    "so3_rescaled": (so3_rescaled, lambda alg: linalg.identity(6)),
    "so3_rescaled_gauge": (so3_rescaled, scaled_gauge_vectors),
    "so3+G3_dense": (so3_plus_g3, lambda alg: dense_gauge(alg).vectors),
}


@pytest.mark.parametrize("case", sorted(VERTEX_TENSOR_CASES))
def test_vertex_tensor_matches_oracle(case):
    make_alg, make_vectors = VERTEX_TENSOR_CASES[case]
    alg = make_alg()
    vectors = make_vectors(alg)
    for k in (3, 4, 5):
        mu = vertex_tensor_on_vectors(alg, vectors, k)
        # equal entries, and the keys in the same (lexicographic) order
        assert list(mu.items()) == list(vertex_tensor_oracle(alg, vectors, k).items())


def test_vertex_tensors_of_a_rescaled_algebra_divide_once_by_every_scale():
    # the walk runs over the elements * D_e, the structure constants * D_m
    # and the covectors * D_c: a level-n product carries D_e^n D_m^(n-1),
    # so mu_k is divided by D_e^(k-1) D_m^(k-2) D_c
    alg = so3_rescaled()
    assert verify_axioms(alg)["ok"]
    d_m = lcm(*(c.denominator for img in alg.mult.values() for c in img.values()))
    assert alg.integer_mult[0] == d_m == 75
    denominators = set()
    for vectors, scales in ((linalg.identity(6), (1, 75, 30)),
                            (scaled_gauge_vectors(alg), (30, 75, 900))):
        d_e = lcm(*(x.denominator for v in vectors for x in v))
        d_c = lcm(*(c.denominator for v in vectors for row in alg.pairing.rows
                    if (c := sum(r * x for r, x in zip(row, v)))))
        assert (d_e, d_m, d_c) == scales
        table = VertexTensors(alg, vectors)
        for k in (2, 3, 4):
            scale, entries = table.integer_mu(k)
            assert scale == d_e ** (k - 1) * d_m ** (k - 2) * d_c
            assert all(type(val) is int for _, val in entries)
            assert table.mu(k) == {key: Fraction(val, scale) for key, val in entries}
            denominators |= {c.denominator for c in table.mu(k).values()}
    assert all(any(d % p == 0 for d in denominators) for p in (2, 3, 5))


def test_vertex_tensor_matches_oracle_at_valence_6():
    alg = g3()
    vectors = g3_gauge(1, 2, 3, 4, alg=alg).vectors
    mu = vertex_tensor_on_vectors(alg, vectors, 6)
    assert mu
    assert list(mu.items()) == list(vertex_tensor_oracle(alg, vectors, 6).items())


def test_vertex_tensor_rejects_low_valence():
    with pytest.raises(ValueError):
        vertex_tensor(k2(), 1)


def test_vertex_tensors_match_the_oracle_in_any_order():
    # valences asked out of order still read each level of the one walk
    alg = g3()
    vectors = g3_gauge(1, 2, 3, 4, alg=alg).vectors
    table = VertexTensors(alg, vectors)
    for k in (6, 3, 5, 4):
        mu = table.mu(k)
        assert list(mu.items()) == list(vertex_tensor_oracle(alg, vectors, k).items())


def test_vertex_tensors_build_each_level_of_products_once(monkeypatch):
    # mu_3..mu_k multiply each product of levels 1..k-2 by every element
    # once, one step of the integer walk each; a walk per valence would make
    # 1,096 and 1,136 products here
    alg = g3()
    gauge = g3_gauge(1, 2, 3, 4, alg=alg)
    calls = []
    step = frobenius._product_step
    monkeypatch.setattr(frobenius, "_product_step",
                        lambda prod, right: calls.append(1) or step(prod, right))
    for vectors, valences, count in ((gauge.vectors, (3, 4, 5, 6), 760),
                                     (linalg.identity(8), (3, 4, 5), 792)):
        calls.clear()
        table = VertexTensors(alg, vectors)
        for k in valences + valences:
            table.mu(k)
        assert len(calls) == count


def test_vertex_tensors_refuse_a_level_below_one():
    # level 0 would be the empty product; neither the walk nor its scale
    # answers for it, even after a deeper level is built
    table = VertexTensors(g3(), linalg.identity(8))
    table.products(2)
    for n in (0, -3):
        with pytest.raises(ValueError, match="level 1"):
            table.products(n)
        with pytest.raises(ValueError, match="level 1"):
            table.product_scale(n)


@pytest.mark.parametrize("make_alg", (k2, g3, so3_reduced))
def test_mu_2_on_a_basis_is_the_pairing(make_alg):
    alg = make_alg()
    mu2 = VertexTensors(alg, linalg.identity(len(alg.space))).mu(2)
    assert list(mu2.items()) == [((i, j), c) for i, row in enumerate(alg.pairing.rows)
                                 for j, c in enumerate(row) if c]


def test_every_gauge_direction_moves_the_basis():
    # each of the 10 directions displaces the base, and the gauge one unit
    # along it is valid
    alg = so3_plus_g3()
    assert verify_axioms(alg)["ok"]
    assert check_contractible(alg) == (True, 7)
    base, directions = alg.gauge_family
    assert len(directions) == 10
    for j, direction in enumerate(directions):
        assert any(map(any, direction))
        unit = tuple(int(i == j) for i in range(10))
        gauge = gauge_at(alg, unit)
        assert gauge.vectors != list(base) and gauge.label == str(unit)


def test_dense_gauge_of_so3_plus_g3():
    # the basis of the dense gauge, by name: so3red's odd part mixed into
    # G3's, and G3's unit in an even vector
    alg = so3_plus_g3()
    names = alg.space.names
    assert [{names[i]: c for i, c in enumerate(v) if c} for v in dense_gauge(alg).vectors] == [
        {"0.xi1": 1, "1.xi3": -1}, {"0.xi2": 1, "1.xi3": -1}, {"0.xi3": 1},
        {"1.xi1": 1, "1.xi2": 1}, {"0.xi13": -1, "0.xi23": 1, "1.xi12": 1},
        {"1.1": 1, "1.xi13": 1, "1.xi23": 1}, {"1.xi2": 1, "1.xi123": 1}]


def test_g5_fixture():
    # G3 with a second pair xi4 xi5: 16|16, contractible, with 64 gauge
    # directions
    alg = g5()
    assert len(alg.space) == 32
    assert verify_axioms(alg)["ok"]
    assert check_contractible(alg) == (True, 16)
    assert len(alg.gauge_family[1]) == 64


def test_direct_sum_of_an_algebra_with_itself():
    # the blocks' names are prefixed by their position, so A + A is defined;
    # so3red + so3red has no gauge parameter, and its one gauge is the
    # reference complement xi1, xi2, xi3 of each block, with mu_3 on it the
    # two blocks' mu_3 side by side
    alg = frobenius.direct_sum(so3_reduced(), so3_reduced())
    assert alg.name == "so3red+so3red"
    assert alg.space.names[::6] == ("0.xi1", "1.xi1")
    assert verify_axioms(alg)["ok"]
    assert alg.gauge_family[1] == ()
    gauge = gauge_at(alg, ())
    basis = linalg.identity(12)
    assert gauge.vectors == [tuple(basis[i]) for i in (0, 1, 2, 6, 7, 8)]
    assert gauge.parities == [ODD] * 6
    assert len(gauge.mu(3)) == 2 * len(gauge_at(so3_reduced(), ()).mu(3)) == 12


def test_d_image_d_form_and_gauge_family_are_built_once_per_algebra(monkeypatch):
    # d(A), <-,->_d and the gauge family depend on the algebra alone, not on
    # the gauge: one solve of the isotropy system serves every gauge
    calls = {"degenerate_form": 0, "column_space_basis": 0, "solve": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(frobenius, "degenerate_form")
    counted(linalg, "column_space_basis")
    counted(linalg, "solve")
    alg = g3()
    for coords in product((0, 1), repeat=4):
        gauge_at(alg, coords)
    assert calls == {"degenerate_form": 1, "column_space_basis": 1, "solve": 1}


def test_gauge_invariants():
    g = g3_gauge(0, 0, 0, 1)
    # restricted d-form of the d=1 member, computed by hand
    rows = g.restricted_form().matrix()
    assert rows == [[-1, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]


def test_gauge_rejects_non_isotropic():
    # a complement of d(A), so only the isotropy test can reject it:
    # <xi12, xi123 + xi3> = 1
    alg = g3()
    idx = {nm: i for i, nm in enumerate(alg.space.names)}
    bad = []
    for names in (("xi1",), ("xi12",), ("xi13",), ("xi123", "xi3")):
        v = [Fraction(0)] * 8
        for nm in names:
            v[idx[nm]] = Fraction(1)
        bad.append(v)
    assert linalg.rank(bad + [list(v) for v in alg.d_image]) == 8
    with pytest.raises(ValueError, match="isotropic"):
        Gauge(alg, bad)


@pytest.mark.parametrize("edit", ("trailing_zero", "trailing_one", "short"))
def test_gauge_rejects_vectors_of_the_wrong_length(edit):
    # each vector has one entry per basis vector of A, checked before the
    # vertex tensors or the parities read them
    vectors = [list(v) for v in g3_gauge(0, 0, 0, 1).vectors]
    for v in vectors:
        if edit == "short":
            del v[-1]
        else:
            v.append(Fraction(edit == "trailing_one"))
    with pytest.raises(ValueError, match="8 entries"):
        Gauge(g3(), vectors)


def test_json_round_trip():
    for alg in (k2(), g3()):
        data = algebra_to_json(alg)
        back = algebra_from_json(data)
        assert back.space == alg.space
        assert back.mult == alg.mult
        assert back.diff == alg.diff
        assert back.pairing.rows == alg.pairing.rows


@pytest.mark.parametrize("edit", ("flip_pairing_sign", "drop_differential_entry"))
def test_json_algebra_failing_the_axioms_is_rejected(edit):
    data = algebra_to_json(g3())
    if edit == "flip_pairing_sign":
        i, j, c = data["pairing"][0]
        data["pairing"][0] = [i, j, str(-Fraction(c))]
    else:
        del data["differential"][0]
    with pytest.raises(ValueError, match="axioms"):
        algebra_from_json(data)


@pytest.mark.parametrize("field, entry", [
    ("mult", [0, 0, 6, "1"]), ("mult", [-1, 0, 0, "1"]),
    ("pairing", [0, 6, "1"]), ("pairing", [-1, 0, "1"]),
    ("differential", [6, 0, "1"]), ("differential", [0, -1, "1"]),
])
def test_json_index_out_of_range_is_rejected(field, entry):
    data = algebra_to_json(so3_reduced())  # 6 basis elements
    data[field].append(entry)
    with pytest.raises(ValueError, match=f"{field} index out of range"):
        algebra_from_json(data)


@pytest.mark.parametrize("data", [
    {}, {"basis": [{"name": "a"}]}, {"basis": [{"parity": 0}]},
], ids=["no_basis", "no_parity", "no_name"])
def test_json_basis_without_a_field_is_rejected(data):
    with pytest.raises(ValueError, match="name and a parity"):
        algebra_from_json(data)


@pytest.mark.parametrize("field, value", [
    ("pairing", 0.5), ("pairing", True), ("mult", 1.0), ("differential", False),
])
def test_json_inexact_coefficients_are_rejected(field, value):
    # a float loads as its binary value, and a bool is not a number
    data = algebra_to_json(g3())
    data[field][0][-1] = value
    with pytest.raises(ValueError, match=f"{field} coefficient"):
        algebra_from_json(data)


def test_json_coefficients_load_exactly_or_not_at_all():
    # G3 with its pairing entries +-0.1 passes the axioms, and used to load
    # with the pairing 3602879701896397/36028797018963968; as ints it loads
    data = algebra_to_json(g3())
    data["pairing"] = [[i, j, int(c)] for i, j, c in data["pairing"]]
    assert algebra_from_json(data).pairing.rows == g3().pairing.rows
    data["pairing"] = [[i, j, c / 10] for i, j, c in data["pairing"]]
    with pytest.raises(ValueError, match="pairing coefficient"):
        algebra_from_json(data)


@pytest.mark.parametrize("field, slot", [
    ("mult", 0), ("mult", 2), ("pairing", 1), ("differential", 0),
])
def test_json_bool_indices_are_rejected(field, slot):
    # True is an int equal to 1, an index in range
    data = algebra_to_json(g3())
    data[field][0][slot] = True
    with pytest.raises(ValueError, match=f"{field} index"):
        algebra_from_json(data)


def test_json_bool_parity_is_rejected():
    data = algebra_to_json(so3_reduced())
    data["basis"][0]["parity"] = True
    with pytest.raises(ValueError, match="parities"):
        algebra_from_json(data)


def test_json_parity_out_of_range_is_rejected():
    data = algebra_to_json(so3_reduced())
    data["basis"][0]["parity"] = 3
    with pytest.raises(ValueError, match="parities"):
        algebra_from_json(data)
