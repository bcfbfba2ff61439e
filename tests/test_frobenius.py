from fractions import Fraction
from itertools import permutations
from math import lcm

import ast

import pytest

from bvgraph.frobenius import (FrobeniusAlgebra, Gauge, VertexTensors,
                               algebra_from_json, algebra_to_json,
                               check_contractible, degenerate_form, find_gauges,
                               g3, g3_gauge, grassmann_algebra, k2, k2_gauge,
                               so3_reduced, verify_axioms, vertex_tensor,
                               vertex_tensor_on_vectors)
from bvgraph import frobenius, linalg
from bvgraph.graded import EVEN, ODD, is_symmetric_tensor, perm_parity
from oracles import rescaled, vertex_tensor_oracle

# so3red in a scaled basis: its structure constants and its pairing have
# denominators
SO3_SCALES = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), Fraction(1), Fraction(5, 2),
              Fraction(3)]
# a gauge of so3red + G3 whose L mixes parities, with mu_3..mu_6 all nonzero
DENSE_LABEL = "(1, 1, 0, 0, 0, 0, 0, 0, 1, 0)"


def so3_rescaled():
    return rescaled(so3_reduced(), SO3_SCALES)


def so3_plus_g3():
    return frobenius.direct_sum(so3_reduced(), g3())


def dense_gauge(alg):
    return next(g for g in find_gauges(alg)[0] if g.label == DENSE_LABEL)


def scaled_gauge_vectors(alg):
    """The first gauge of alg with its basis scaled by 1/2, -2/3 and 3/5."""
    return [[s * x for x in v] for s, v in zip((Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5)),
                                               find_gauges(alg)[0][0].vectors)]


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
    gauges, info = find_gauges(k2())
    assert info["n_parameters"] == 0
    assert len(gauges) == 1
    assert [list(v) for v in gauges[0].vectors] == [[0, 1]]


def test_g3_gauge_family_has_4_parameters():
    gauges, info = find_gauges(g3())
    assert info["n_parameters"] == 4
    assert len(gauges) == 16
    for g in gauges:
        g.validate()


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
    # also random members of the family validate
    for params in ((0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (2, -1, 3, 1),
                   (Fraction(1, 2), 0, 1, -2)):
        g3_gauge(*params).validate()


def test_gauge_with_a_degenerate_restricted_d_form_is_rejected():
    # K2's space and differential with the zero pairing: xi is isotropic and
    # complements d(A) = span{1}, but <xi, xi>_d = 0, so there is no propagator
    base = k2()
    alg = FrobeniusAlgebra(base.space, base.mult, base.diff, [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="degenerate"):
        Gauge(alg, [(0, 1)])


def test_so3_reduced_fixture():
    alg = so3_reduced()
    assert alg.space.names == ("xi1", "xi2", "xi3", "xi12", "xi13", "xi23")
    assert alg.space.parities == (ODD,) * 3 + (EVEN,) * 3
    assert verify_axioms(alg)["ok"]
    assert check_contractible(alg) == (True, 3)
    gauges, info = find_gauges(alg)
    assert len(gauges) == 1 and info["n_parameters"] == 0
    gauge = gauges[0]
    assert gauge.parities == [ODD] * 3  # the odd part xi1, xi2, xi3
    assert [list(row) for row in gauge.propagator] == [
        [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    # mu_3 is the Levi-Civita symbol
    assert gauge.mu(3) == {perm: perm_parity(perm)
                           for perm in permutations(range(3))}


def test_non_contractible_input_has_no_gauges():
    lam3 = grassmann_algebra(3, {})
    gauges, info = find_gauges(lam3)
    assert gauges == [] and "error" in info


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
    for alg, gauge in ((k2(), k2_gauge()), (g3(), g3_gauge(0, 0, 0, 1))):
        for k in (3, 4):
            mu = vertex_tensor(alg, k)
            assert is_symmetric_tensor(alg.space, mu, k)
            mul = vertex_tensor_on_vectors(alg, gauge.vectors, k)
            assert is_symmetric_tensor(gauge.subspace(), mul, k)


def test_symmetry_check_catches_one_negated_entry():
    gauge = find_gauges(so3_reduced())[0][0]
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
    "so3": (so3_reduced, lambda alg: find_gauges(alg)[0][0].vectors),
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
        assert table.mu(k) is mu


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


@pytest.mark.parametrize("make_alg", (k2, g3, so3_reduced))
def test_mu_2_on_a_basis_is_the_pairing(make_alg):
    alg = make_alg()
    mu2 = VertexTensors(alg, linalg.identity(len(alg.space))).mu(2)
    assert list(mu2.items()) == [((i, j), c) for i, row in enumerate(alg.pairing.rows)
                                 for j, c in enumerate(row) if c]


def test_find_gauges_reaches_every_direction():
    alg = so3_plus_g3()
    assert verify_axioms(alg)["ok"]
    assert check_contractible(alg) == (True, 7)
    gauges, info = find_gauges(alg)
    assert info["n_parameters"] == 10
    assert 0 < len(gauges) <= 64
    lams = [ast.literal_eval(g.label) for g in gauges]
    assert all(any(lam[j] == 1 for lam in lams) for j in range(10))


def test_direct_sum_of_an_algebra_with_itself():
    # the blocks' names are prefixed by their position, so A + A is defined;
    # so3red + so3red has no gauge parameter, and its one gauge is the
    # reference complement xi1, xi2, xi3 of each block, with mu_3 on it the
    # two blocks' mu_3 side by side
    alg = frobenius.direct_sum(so3_reduced(), so3_reduced())
    assert alg.name == "so3red+so3red"
    assert alg.space.names[::6] == ("0.xi1", "1.xi1")
    assert verify_axioms(alg)["ok"]
    gauges, info = find_gauges(alg)
    assert info["n_parameters"] == 0
    assert [g.label for g in gauges] == ["()"]
    basis = linalg.identity(12)
    assert gauges[0].vectors == [tuple(basis[i]) for i in (0, 1, 2, 6, 7, 8)]
    assert gauges[0].parities == [ODD] * 6
    assert len(gauges[0].mu(3)) == 2 * len(find_gauges(so3_reduced())[0][0].mu(3)) == 12


def test_find_gauges_builds_d_image_and_d_form_once_per_algebra(monkeypatch):
    # d(A) and <-,->_d depend on the algebra alone, not on the gauge
    calls = {"degenerate_form": 0, "column_space_basis": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(frobenius, "degenerate_form")
    counted(linalg, "column_space_basis")
    gauges, _ = find_gauges(g3())
    assert len(gauges) == 16
    assert calls == {"degenerate_form": 1, "column_space_basis": 1}


def test_gauge_invariants():
    g = g3_gauge(0, 0, 0, 1)
    # restricted d-form of the d=1 member, computed by hand
    rows = g.restricted_form().matrix()
    assert rows == [[-1, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]


def test_gauge_rejects_non_isotropic():
    alg = g3()
    idx = {nm: i for i, nm in enumerate(alg.space.names)}
    bad = []
    for nm in ("xi1", "xi2", "xi12", "xi123"):
        v = [Fraction(0)] * 8
        v[idx[nm]] = Fraction(1)
        bad.append(v)
    with pytest.raises(ValueError):
        Gauge(alg, bad)


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


def test_json_parity_out_of_range_is_rejected():
    data = algebra_to_json(so3_reduced())
    data["basis"][0]["parity"] = 3
    with pytest.raises(ValueError, match="parities"):
        algebra_from_json(data)
