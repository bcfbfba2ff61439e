"""Oriented graphs, canonical forms with signs, contraction and the boundary.

Orientation data is a vertex ordering plus an orientation of every edge; the
sign group is generated by vertex transpositions and single edge flips, each
contributing -1.  A graph vanishes (sign 0) precisely when some automorphism
induces an odd total sign; loops always do, via the half-edge swap.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from . import linalg
from .graded import perm_parity


class OrientedGraph:
    """Half-edge presentation matching the JSON interchange format."""

    def __init__(self, n_half, vertices, edges, vertex_order=None):
        self.n_half = n_half
        self.vertices = [sorted(block) for block in vertices]
        self.edges = [tuple(e) for e in edges]
        self.vertex_order = list(vertex_order
                                 if vertex_order is not None
                                 else range(len(self.vertices)))
        self.validate()

    def validate(self):
        halves = sorted(h for block in self.vertices for h in block)
        if halves != list(range(1, self.n_half + 1)):
            raise ValueError("vertex blocks must partition the half-edges 1..2E")
        covered = sorted(h for e in self.edges for h in e)
        if covered != list(range(1, self.n_half + 1)):
            raise ValueError("edges must partition the half-edges into pairs")
        if any(len(e) != 2 for e in self.edges):
            raise ValueError("edges must have exactly two half-edges")
        if sorted(self.vertex_order) != list(range(len(self.vertices))):
            raise ValueError("vertex_order must order the vertex blocks")
        if any(len(block) < 3 for block in self.vertices):
            raise ValueError("every vertex must have valence >= 3")

    def directed_multigraph(self):
        """(vertex count, tuple of directed edges over ordered vertex slots)."""
        slot = {}
        for pos, block_idx in enumerate(self.vertex_order):
            for h in self.vertices[block_idx]:
                slot[h] = pos
        return len(self.vertices), tuple((slot[a], slot[b]) for a, b in self.edges)

    def to_json(self):
        return {"half_edges": self.n_half,
                "vertices": [list(b) for b in self.vertices],
                "edges": [list(e) for e in self.edges],
                "vertex_order": list(self.vertex_order)}

    @classmethod
    def from_json(cls, data):
        return cls(data["half_edges"], data["vertices"], data["edges"],
                   data.get("vertex_order"))


class CanonicalGraph:
    """Canonical representative of an isomorphism class: a hashable key."""

    __slots__ = ("n_vertices", "edges")

    def __init__(self, n_vertices, edges):
        self.n_vertices = n_vertices
        self.edges = tuple(sorted(tuple(e) for e in edges))

    def valences(self):
        val = [0] * self.n_vertices
        for a, b in self.edges:
            val[a] += 1
            val[b] += 1
        return tuple(val)

    def key(self):
        return (self.n_vertices, self.edges)

    def graph_id(self) -> str:
        es = ",".join(f"{a}-{b}" for a, b in self.edges)
        return f"v{self.n_vertices}e{len(self.edges)}:{es}"

    def __eq__(self, other):
        return isinstance(other, CanonicalGraph) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return self.graph_id()


_canon_cache = {}


def canonicalize_directed(nv: int, edges) -> tuple:
    """Canonical (CanonicalGraph, sign) for a directed multigraph.

    The representative minimizes the sorted edge code over all vertex
    relabelings with all edges redirected small-to-large; the sign is the
    parity of the relabeling times one -1 per redirected edge, and 0 when two
    relabelings achieve the minimum with opposite signs (odd automorphism).
    """
    edges = tuple(edges)
    cache_key = (nv, edges)
    if cache_key in _canon_cache:
        return _canon_cache[cache_key]
    if any(a == b for a, b in edges):
        rep = CanonicalGraph(nv, tuple((a, b) if a <= b else (b, a)
                                       for a, b in edges))
        _canon_cache[cache_key] = (rep, 0)
        return rep, 0

    best_code = None
    best_signs = set()
    for perm in permutations(range(nv)):
        flips = 0
        code = []
        for a, b in edges:
            na, nb = perm[a], perm[b]
            if na > nb:
                na, nb = nb, na
                flips += 1
            code.append((na, nb))
        code = tuple(sorted(code))
        sign = perm_parity(perm) * (-1 if flips % 2 else 1)
        if best_code is None or code < best_code:
            best_code = code
            best_signs = {sign}
        elif code == best_code:
            best_signs.add(sign)
    rep = CanonicalGraph(nv, best_code)
    sign = best_signs.pop() if len(best_signs) == 1 else 0
    _canon_cache[cache_key] = (rep, sign)
    return rep, sign


def canonicalize(g: OrientedGraph):
    nv, edges = g.directed_multigraph()
    return canonicalize_directed(nv, edges)


def contract_directed(nv: int, edges, edge_index: int):
    """Contract a non-loop directed edge; returns (nv-1, new edges, sign).

    Convention: renumber so the edge's endpoints become vertices 0, 1 with the
    edge oriented 0 -> 1 (tracking the vertex-permutation sign), then merge
    into the new vertex 0.
    """
    a, b = edges[edge_index]
    if a == b:
        raise ValueError("cannot contract a loop")
    order = [a, b] + [v for v in range(nv) if v not in (a, b)]
    # order[newpos] = old vertex; sign of the relabeling as a permutation
    sign = perm_parity(order)
    newpos = {old: pos for pos, old in enumerate(order)}

    def final(v):
        p = newpos[v]
        return 0 if p <= 1 else p - 1

    new_edges = tuple(
        (final(u), final(w))
        for i, (u, w) in enumerate(edges) if i != edge_index)
    return nv - 1, new_edges, sign


class GraphChain:
    """Sparse rational combination of canonical graphs in one bidegree."""

    def __init__(self, terms=None):
        self.terms = {}
        for g, c in (terms or {}).items():
            if c != 0:
                self.terms[g] = Fraction(c)

    def add(self, graph: CanonicalGraph, coeff):
        if coeff == 0:
            return
        cur = self.terms.get(graph, Fraction(0)) + coeff
        if cur:
            self.terms[graph] = cur
        else:
            self.terms.pop(graph, None)

    def __add__(self, other):
        out = GraphChain(self.terms)
        for g, c in other.terms.items():
            out.add(g, c)
        return out

    def scale(self, c):
        return GraphChain({g: v * c for g, v in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, GraphChain) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{g.graph_id()}"
                          for g, c in sorted(self.terms.items(),
                                             key=lambda t: t[0].key()))

    def to_json(self):
        return [{"graph": g.graph_id(), "coeff": str(c)}
                for g, c in sorted(self.terms.items(), key=lambda t: t[0].key())]


def boundary_of_graph(graph: CanonicalGraph) -> GraphChain:
    """Sum of single non-loop edge contractions, canonicalized with signs."""
    out = GraphChain()
    for i in range(len(graph.edges)):
        nv, new_edges, csign = contract_directed(graph.n_vertices, graph.edges, i)
        rep, sign = canonicalize_directed(nv, new_edges)
        out.add(rep, Fraction(csign * sign))
    return out


def boundary(chain: GraphChain) -> GraphChain:
    out = GraphChain()
    for g, c in chain.terms.items():
        for h, v in boundary_of_graph(g).terms.items():
            out.add(h, c * v)
    return out


def enumerate_graphs(v: int, e: int):
    """All nonzero canonical graphs in bidegree (v, e), valence >= 3 everywhere."""
    if v < 1 or e < 0 or 3 * v > 2 * e:
        return []
    if v == 1:
        return []  # every edge would be a loop
    pairs = list(combinations_with_replacement(range(v), 2))
    pairs = [p for p in pairs if p[0] != p[1]]
    seen = {}
    for combo in combinations_with_replacement(pairs, e):
        degs = [0] * v
        for a, b in combo:
            degs[a] += 1
            degs[b] += 1
        if any(d < 3 for d in degs):
            continue
        rep, sign = canonicalize_directed(v, tuple(combo))
        if sign == 0:
            continue
        seen.setdefault(rep.key(), rep)
    return sorted(seen.values(), key=lambda g: g.key())


def cycle_space(v: int, e: int):
    """Exact rational kernel basis of the boundary in bidegree (v, e).

    Returns (basis graphs of the bidegree, list of kernel chains).
    """
    basis = enumerate_graphs(v, e)
    if not basis:
        return [], []
    lower = enumerate_graphs(v - 1, e - 1)
    lower_index = {g.key(): i for i, g in enumerate(lower)}
    rows = [[Fraction(0)] * len(basis) for _ in range(max(1, len(lower)))]
    for col, g in enumerate(basis):
        for h, c in boundary_of_graph(g).terms.items():
            if h.key() not in lower_index:
                raise AssertionError("boundary left the expected bidegree")
            rows[lower_index[h.key()]][col] = c
    kernels = linalg.nullspace(rows)
    chains = []
    for vec in kernels:
        ch = GraphChain()
        for i, c in enumerate(vec):
            ch.add(basis[i], c)
        chains.append(ch)
    return basis, chains


def theta_graph() -> CanonicalGraph:
    rep, sign = canonicalize_directed(2, ((0, 1), (0, 1), (0, 1)))
    assert sign != 0
    return rep
