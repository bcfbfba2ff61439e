import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from bvgraph import graphs
from bvgraph.graded import perm_parity
from bvgraph.graphs import (GraphChain, boundary, boundary_of_graph,
                            canonicalize_directed, contract_directed,
                            cycle_space, enumerate_graphs)
from oracles import (boundary_of_graph_oracle, canonical_multisets_oracle,
                     canonicalize_oracle, enumerate_graphs_oracle, theta_graph,
                     valent_multisets_oracle)


def test_loop_graph_canonicalizes_to_zero():
    # one vertex, two loops (valence 4)
    assert canonicalize_directed(1, ((0, 0), (0, 0))) == (None, 0)


@pytest.mark.parametrize("nv, edges", [
    (2, ((0, 1), (0, 1), (1, 1))),  # a loop
    (2, ((0, 1), (1, 0), (0, 1))),  # a reversed edge
    (2, ((0, 1), (0, 1), (0, 2))),  # a vertex out of range
    (2, ((-1, 1), (0, 1), (0, 1))),
], ids=["loop", "reversed", "out_of_range", "negative"])
def test_canonical_graph_rejects_edges_off_the_normal_form(nv, edges):
    # a canonical graph's edges run small to large between its vertices,
    # the only presentation feynman_value reads
    with pytest.raises(ValueError, match="small to large"):
        graphs.CanonicalGraph(nv, edges)


def test_theta_is_nonzero():
    rep, sign = canonicalize_directed(2, ((0, 1), (0, 1), (0, 1)))
    assert sign != 0
    assert rep.valences() == (3, 3)


def test_theta_vertex_swap_flips_sign():
    rep1, s1 = canonicalize_directed(2, ((0, 1), (0, 1), (0, 1)))
    rep2, s2 = canonicalize_directed(2, ((1, 0), (1, 0), (1, 0)))
    assert rep1 == rep2
    assert s1 == -s2 != 0


def test_single_edge_flip_negates():
    # K4: flipping one edge orientation negates the sign
    edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    rep1, s1 = canonicalize_directed(4, edges)
    flipped = ((1, 0),) + edges[1:]
    rep2, s2 = canonicalize_directed(4, flipped)
    assert rep1 == rep2 and s1 == -s2 != 0


@st.composite
def relabeled_multigraphs(draw):
    """(nv, edges, relabeled edges, sign of the relabeling): loops, multi-edges
    and disconnected graphs included."""
    nv = draw(st.integers(1, 6))
    vertex = st.integers(0, nv - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    perm = draw(st.permutations(range(nv)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    moved = tuple((perm[b], perm[a]) if flip else (perm[a], perm[b])
                  for (a, b), flip in zip(edges, flips))
    rel_sign = perm_parity(perm) * (-1 if sum(flips) % 2 else 1)
    return nv, tuple(edges), moved, rel_sign


@settings(max_examples=100, deadline=None)
@given(relabeled_multigraphs())
def test_canonicalize_constant_on_random_relabelings(case):
    nv, edges, moved, rel_sign = case
    rep, sign = canonicalize_directed(nv, edges)
    assert (rep, sign) == canonicalize_oracle(nv, edges)
    moved_rep, moved_sign = canonicalize_directed(nv, moved)
    assert moved_sign == sign * rel_sign
    assert moved_rep == rep


@st.composite
def loopless_multigraphs(draw):
    nv = draw(st.integers(1, 6))
    pair = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)).filter(
        lambda p: p[0] != p[1])
    edges = draw(st.lists(pair, max_size=10)) if nv > 1 else []
    return nv, tuple(edges)


@settings(max_examples=100, deadline=None)
@given(loopless_multigraphs())
def test_every_prefix_of_a_canonical_code_is_canonical(case):
    # the lemma behind the orderly cut of enumerate_graphs
    nv, edges = case
    code = canonicalize_directed(nv, edges)[0].edges
    for m in range(len(code) + 1):
        assert canonicalize_directed(nv, code[:m])[0].edges == code[:m]


def _smaller_twins(nv, edges, w):
    """The vertices u < w that are w's twins in ``edges``: u and w have the
    same number of edges to every third vertex."""
    count = Counter(tuple(sorted(edge)) for edge in edges)

    def mult(x, y):
        return count[min(x, y), max(x, y)]
    return {u for u in range(w)
            if all(mult(u, x) == mult(w, x) for x in range(nv) if x not in (u, w))}


@pytest.mark.parametrize("v, e", [(5, 9), (6, 9)])
def test_canonical_codes_pass_the_twin_swap_cut(v, e):
    # the lemma behind the twin-swap cut of enumerate_graphs: the pair (a, b)
    # a canonical code adds to its prefix never has a smaller twin of a, nor
    # a smaller twin of b other than a, in that prefix
    codes = {rep.edges for _, (rep, _) in canonical_multisets_oracle(v, e)}
    for code in codes:
        for m, (a, b) in enumerate(code):
            assert not _smaller_twins(v, code[:m], a), (code, m)
            assert _smaller_twins(v, code[:m], b) <= {a}, (code, m)


@pytest.mark.parametrize("v, e", [(5, 9), (6, 9)])
def test_canonical_codes_introduce_vertices_in_label_order(v, e):
    # how canonical codes look: a code reaches its vertices in label order, a
    # new component starting with (s, s+1), and each block gives the vertices
    # it introduces non-increasing multiplicities
    codes = {rep.edges for _, (rep, _) in canonical_multisets_oracle(v, e)}
    disconnected = 0
    for code in codes:
        reached = 0
        intro = {}  # vertex: the block that introduced it, None for a root
        for a, b in code:
            for u in (a, b):
                if u >= reached:
                    assert u == reached, code
                    intro[u] = a if u == b else None
                    reached += 1
        assert reached == v
        count = Counter(code)
        for a in range(v):
            mults = [count[a, b] for b in sorted(intro) if intro[b] == a]
            assert mults == sorted(mults, reverse=True), code
        disconnected += list(intro.values()).count(None) > 1
    assert disconnected or v == 5


def test_canonicalize_disconnected_minimum_at_a_low_degree_vertex():
    # the minimal code labels a degree-3 theta vertex 0, not a degree-4 one,
    # so a search that tries highest degree first misses it
    edges = ((0, 1),) * 3 + ((2, 3),) * 2 + ((2, 4),) * 2 + ((3, 4),)
    rep, sign = canonicalize_directed(5, edges)
    assert (rep, sign) == canonicalize_oracle(5, edges)
    assert rep.edges[:3] == ((0, 1),) * 3 and sign != 0


# Two components whose best vertices tie on the first profile entry.  The
# component that must come first is given the higher vertex indices.
_TRIANGLE_2_2 = ((0, 1),) * 2 + ((1, 2),) * 2 + ((0, 2),) * 2  # profiles (2, 2)
_KITE_2_1_1 = ((0, 1),) * 2 + ((0, 2), (0, 3), (1, 2), (2, 3))  # best (2, 1, 1)
_TRIANGLE_2_1 = ((0, 1),) * 2 + ((0, 2), (1, 2))  # best (2, 1)


def _disjoint(first, n_first, second):
    return first + tuple((a + n_first, b + n_first) for a, b in second)


@pytest.mark.parametrize("nv, edges, block0", [
    # lexicographic: (2, 2) comes before the longer (2, 1, 1)
    (7, _disjoint(_KITE_2_1_1, 4, _TRIANGLE_2_2), ((0, 1),) * 2 + ((0, 2),) * 2),
    # a tie on the common prefix: the longer (2, 1, 1) comes before (2, 1)
    (7, _disjoint(_TRIANGLE_2_1, 3, _KITE_2_1_1), ((0, 1),) * 2 + ((0, 2), (0, 3))),
], ids=["lexicographic", "longer_wins"])
def test_canonicalize_disconnected_tie_on_the_first_profile_entry(nv, edges, block0):
    rep, sign = canonicalize_directed(nv, edges)
    assert (rep, sign) == canonicalize_oracle(nv, edges)
    assert rep.edges[:4] == block0 and rep.edges[4][0] == 1


@pytest.mark.parametrize("v, e", [(4, 8), (5, 9), (6, 9)])
def test_bounded_search_matches_oracle_on_every_prefix(v, e):
    # the canonicity test of enumerate_graphs: None exactly when the prefix
    # is not its own canonical code, and otherwise the prefix with the
    # oracle's sign when the sign is asked for, and no sign when it is not.
    # The bound is read as a code of its own, not as the identity labelling
    # of the graph searched: the prefix relabelled by a seeded permutation,
    # searched with the prefix as its bound, gets the same verdict, and the
    # sign of the relabelled graph, the prefix's times the permutation's
    # parity
    rng = random.Random(0)
    prefixes = {combo[:m] for combo in valent_multisets_oracle(v, e)
                for m in range(e + 1)}
    seen = {"not canonical": 0, "signed": 0}
    for prefix in sorted(prefixes):
        rep, sign = canonicalize_oracle(v, prefix)
        mult = graphs._multiplicities(v, prefix)
        twin = graphs._previous_twins(mult)
        minimal = graphs._minimal_code(mult, prefix, twin, prefix)
        unsigned = graphs._minimal_code(mult, prefix, twin, prefix, signed=False)
        perm = rng.sample(range(v), v)
        moved = tuple((perm[a], perm[b]) for a, b in prefix)
        moved_mult = graphs._multiplicities(v, moved)
        relabelled = graphs._minimal_code(moved_mult, moved, graphs._previous_twins(moved_mult),
                                          prefix)
        if rep.edges != prefix:
            assert minimal is None is unsigned is relabelled, prefix
            seen["not canonical"] += 1
        else:
            assert minimal == (prefix, sign), prefix
            assert unsigned == (prefix, None), prefix
            assert relabelled == (prefix, sign * perm_parity(perm)), (prefix, perm)
            seen["signed"] += sign != 0
    assert all(seen.values())


def _twin_multiplicities(nv, edges):
    """The multiplicity m of each pair of twins u < w, both with an edge:
    vertices with the same number of edges to every third vertex."""
    count = Counter(tuple(sorted(edge)) for edge in edges)

    def mult(x, y):
        return count[min(x, y), max(x, y)]
    touched = {u for edge in edges for u in edge}
    return [mult(u, w) for u in touched for w in touched if u < w
            and all(mult(u, x) == mult(w, x) for x in range(nv) if x not in (u, w))]


def test_canonicalize_matches_oracle_with_isolated_vertices():
    # every loopless multigraph on 5 vertices with at most 6 edges, so that
    # 0 to 5 vertices are isolated; twins u, w make the swap (u w) an
    # automorphism of sign -(-1)^m, m the edges between them
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    signed = {0: 0, 1: 0}
    seen = {"odd swap of twins, zero": 0, "odd twin class, nonzero": 0}
    for e in range(7):
        for edges in combinations_with_replacement(pairs, e):
            rep, sign = canonicalize_directed(5, edges)
            assert (rep, sign) == canonicalize_oracle(5, edges), edges
            n_isolated = 5 - len({v for edge in edges for v in edge})
            if n_isolated < 2 and sign:
                signed[n_isolated] += 1
            twins = _twin_multiplicities(5, edges)
            seen["odd swap of twins, zero"] += not sign and any(m % 2 == 0 for m in twins)
            seen["odd twin class, nonzero"] += bool(sign) and any(m % 2 for m in twins)
    assert signed[0] and signed[1]
    assert all(seen.values()), seen


_K33 = tuple((a, b) for a in range(3) for b in range(3, 6))
_K4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@pytest.mark.parametrize("nv, edges, nonzero", [
    (6, _K33, False),                    # non-adjacent twins: an odd swap
    (4, _K4, True),                      # one twin class, m = 1
    (2, ((0, 1),) * 3, True),            # theta: one twin class, m = 3
    (4, ((0, 1),) * 2 + _K4[1:], False),  # twins 2, 3 with m = 1, 0 and 1 with m = 2
], ids=["K33", "K4", "theta", "K4_doubled_edge"])
def test_canonicalize_matches_oracle_on_twin_graphs(nv, edges, nonzero):
    rep, sign = canonicalize_directed(nv, edges)
    assert (rep, sign) == canonicalize_oracle(nv, edges)
    assert bool(sign) == nonzero


@pytest.mark.parametrize("v, es", [(v, range(10)) for v in range(1, 6)] + [(6, [9])],
                         ids=[f"v{v}" for v in range(1, 6)] + ["v6e9"])
def test_enumerate_graphs_matches_oracle(v, es):
    for e in es:
        assert enumerate_graphs(v, e) == enumerate_graphs_oracle(v, e), (v, e)


@pytest.mark.parametrize("v, e, count, digest", [
    (6, 10, 15, "2c9087d815cd84145747e0c97418fe5132ff8d8b2c684afef6c6bae828bf5fc7"),
    (7, 11, 25, "a4174df812c01d956fada54c556353fdb87bd0fce141cd3c07732baf78865eff"),
    (8, 12, 24, "f2e5e661a0d6b32cdb4ebca19e263641db8b987f31e0204072a7a8d0597982c9"),
    (10, 15, 86, "0845145f8b5f96604e93a5a94a52e4323e91c318988f7ccef9e8262232ce9632"),
], ids=["v6e10", "v7e11", "v8e12", "v10e15"])
def test_enumerate_graphs_at_loop_order_5(v, e, count, digest):
    # pinned from the exhaustive enumerator that canonicalised every
    # valence >= 3 multiset (over 100 s at (8,12)): the graph count and the
    # sha256 of the sorted ids
    ids = sorted(g.graph_id() for g in enumerate_graphs(v, e))
    assert len(ids) == count
    assert hashlib.sha256("\n".join(ids).encode()).hexdigest() == digest


@pytest.mark.parametrize("v, e, n_graphs, n_cycles",
                         [(7, 11, 25, 18), (8, 12, 24, 6), (10, 15, 86, 9),
                          (12, 18, 426, 16)],
                         ids=["v7e11", "v8e12", "v10e15", "v12e18"])
def test_cycle_space_at_loop_order_5(v, e, n_graphs, n_cycles):
    basis, chains = cycle_space(v, e)
    assert (len(basis), len(chains)) == (n_graphs, n_cycles)
    for z in chains:
        assert boundary(z).is_zero()


@pytest.mark.parametrize("v, e", [(5, 9), (6, 9)])
def test_canonicalize_matches_oracle_on_valent_multisets(v, e):
    for combo, expected in canonical_multisets_oracle(v, e):
        assert canonicalize_directed(v, combo) == expected, combo


def test_canonicalize_memoises_by_the_edge_multiset(monkeypatch):
    # neither the code nor the sign depends on the order of the edges, so
    # two orderings of one multiset share one cache entry
    monkeypatch.setattr(graphs, "_canon_cache", {})
    edges = ((0, 1), (2, 1), (0, 2), (1, 3), (3, 2), (0, 3), (0, 1))
    first = canonicalize_directed(4, edges)
    assert canonicalize_directed(4, edges[::-1]) == first == canonicalize_oracle(4, edges)
    assert len(graphs._canon_cache) == 1


def test_canon_cache_stays_within_its_bound(monkeypatch):
    # cycle_space reaches the cache through boundary_of_graph
    expected = cycle_space(5, 9)
    monkeypatch.setattr(graphs, "_canon_cache", {})
    monkeypatch.setattr(graphs, "_CANON_CACHE_SIZE", 16)
    sizes = []
    canonicalize = graphs.canonicalize_directed

    def watched(nv, edges):
        result = canonicalize(nv, edges)
        assert result == canonicalize_oracle(nv, edges)
        sizes.append(len(graphs._canon_cache))
        return result

    monkeypatch.setattr(graphs, "canonicalize_directed", watched)
    basis, chains = cycle_space(5, 9)
    assert basis == expected[0] and chains == expected[1]
    # filled up to the bound, then cleared
    assert max(sizes) == 16 and (16, 1) in zip(sizes, sizes[1:])


def test_graph_lists_stay_within_their_bound(monkeypatch):
    monkeypatch.setattr(graphs, "_graph_lists", {})
    monkeypatch.setattr(graphs, "_GRAPH_LISTS_SIZE", 3)
    sizes = []
    for v, e in [(2, 3), (3, 5), (4, 6), (4, 7), (5, 8), (4, 6)]:
        assert enumerate_graphs(v, e) == enumerate_graphs_oracle(v, e)
        sizes.append(len(graphs._graph_lists))
    assert sizes == [1, 2, 3, 1, 2, 3]
    # every call gets its own list
    first = enumerate_graphs(4, 6)
    first.clear()
    assert enumerate_graphs(4, 6) == enumerate_graphs_oracle(4, 6) != []


def test_cycle_space_enumerates_each_bidegree_once(monkeypatch):
    monkeypatch.setattr(graphs, "_graph_lists", {})
    enumerated = []
    orderly = graphs._orderly_graphs

    def counted(v, e):
        enumerated.append((v, e))
        return orderly(v, e)

    monkeypatch.setattr(graphs, "_orderly_graphs", counted)
    enumerate_graphs(5, 8)
    cycle_space(5, 8)
    cycle_space(6, 9)
    assert enumerated == [(5, 8), (6, 9)]


def test_contract_theta_edge_gives_loops():
    nv, edges, sign = contract_directed(2, ((0, 1), (0, 1), (0, 1)), 0)
    assert nv == 1 and edges == ((0, 0), (0, 0))
    assert canonicalize_directed(nv, edges) == (None, 0)


def test_contract_k4_edge():
    edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    nv, new_edges, sign = contract_directed(4, edges, 0)
    assert nv == 3
    rep, s = canonicalize_directed(nv, new_edges)
    assert sorted(rep.valences(), reverse=True) == [4, 3, 3]


def test_contract_loop_raises():
    with pytest.raises(ValueError):
        contract_directed(1, ((0, 0), (0, 0)), 0)


@pytest.mark.parametrize("v, e", [(5, 8), (5, 9), (6, 9), (8, 12)])
def test_boundary_of_graph_matches_oracle(v, e):
    # the boundary skips edges with a parallel copy; the oracle contracts
    # every edge, and those contractions carry a loop
    skipped = 0
    for g in enumerate_graphs(v, e):
        assert boundary_of_graph(g) == boundary_of_graph_oracle(g), g.graph_id()
        skipped += len(g.edges) - len(set(g.edges))
    assert skipped


def test_boundary_of_theta_is_zero():
    assert boundary_of_graph(theta_graph()).is_zero()


def test_boundary_squared_zero_exhaustive_e_le_6():
    for e in range(1, 7):
        for v in range(2, (2 * e) // 3 + 1):
            for g in enumerate_graphs(v, e):
                chain = GraphChain({g: Fraction(1)})
                assert boundary(boundary(chain)).is_zero(), g.graph_id()


def test_boundary_of_empty_chain():
    assert boundary(GraphChain()).is_zero()


def test_enumerate_2_3_is_exactly_theta():
    graphs = enumerate_graphs(2, 3)
    assert graphs == [theta_graph()]


def test_enumerate_v1_empty():
    for e in range(2, 6):
        assert enumerate_graphs(1, e) == []


def test_enumerate_4_6_contains_k4():
    graphs = enumerate_graphs(4, 6)
    k4, s = canonicalize_directed(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    assert s != 0
    assert k4 in graphs
    # the disconnected union of two thetas lives here too
    tt, s2 = canonicalize_directed(
        4, ((0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3)))
    assert s2 != 0 and tt in graphs


def test_cycle_space_2_3():
    basis, chains = cycle_space(2, 3)
    assert len(basis) == 1 and len(chains) == 1
    assert list(chains[0].terms) == [theta_graph()]


def test_cycle_space_4_6_reported():
    basis, chains = cycle_space(4, 6)
    assert len(basis) >= 2
    for z in chains:
        assert boundary(z).is_zero()


def test_graph_chain_repr_and_json():
    ch = GraphChain({theta_graph(): Fraction(3, 2)})
    assert "3/2" in repr(ch)
    js = ch.to_json()
    assert js[0]["coeff"] == "3/2"
