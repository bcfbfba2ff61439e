"""Oriented graphs, canonical forms with signs, contraction and the boundary.

A graph has one representation: its vertex count and its directed edges
between the ordered vertex slots; ``CanonicalGraph`` represents its class.
The sign group is generated by vertex transpositions and single edge flips,
each contributing -1.  A graph vanishes (sign 0) precisely when some
automorphism induces an odd total sign; loops always do, via the half-edge
swap.
"""
from __future__ import annotations

from fractions import Fraction

from . import linalg
from .graded import memoised, perm_parity, sparse_sum


class CanonicalGraph:
    """Canonical representative of an isomorphism class: a hashable key.
    Its edges (a, b) run small to large, 0 <= a < b < n_vertices, the normal
    form ``dual.feynman_value`` reads; anything else is a ValueError."""

    __slots__ = ("n_vertices", "edges")

    def __init__(self, n_vertices, edges):
        edges = tuple(sorted(tuple(e) for e in edges))
        if not all(0 <= a < b < n_vertices for a, b in edges):
            raise ValueError(f"edges must run small to large on {n_vertices} vertices")
        self.n_vertices = n_vertices
        self.edges = edges

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


# Cleared when full; a graph_complex benchmark pass (109 distinct keys)
# never fills it.
_CANON_CACHE_SIZE = 1 << 14
_canon_cache = {}

# The graph lists of ``enumerate_graphs`` by bidegree (v, e), cleared when
# full: the cocycle and gauge-independence checks read one bidegree again
# and again.
_GRAPH_LISTS_SIZE = 32
_graph_lists = {}


def canonicalize_directed(nv: int, edges) -> tuple:
    """Canonical (CanonicalGraph, sign) for a directed multigraph.

    The representative minimizes the sorted edge code over all vertex
    relabelings with all edges redirected small-to-large; the sign is the
    parity of the relabeling times one -1 per redirected edge, and 0 when two
    relabelings achieve the minimum with opposite signs (odd automorphism).
    A graph with a loop is zero in the graph complex: it gives (None, 0),
    before the cache is consulted.

    The minimum is found by a depth-first search that gives labels 0, 1, 2,
    ... in turn and reaches every minimal relabeling, so the sign is exact.
    Both of its cuts only drop relabelings whose code is strictly larger:

    - Prefix: call the edges (i, j), j > i, of one label i its block.  With
      labels 0..k-1 given, the code is fixed up to the first block i* that
      still has an edge to an unlabelled vertex: every block before i*, then
      the edges of block i* to labels < k, which sort before its edges to
      labels >= k.  A branch whose fixed prefix exceeds the same prefix of
      the best code so far is cut; ties are kept.
    - Candidates: while block i* is open, label k goes only to an unlabelled
      vertex with the most edges to vertex i*.  Giving it to one with fewer
      puts (i*, j > k) where this puts (i*, k), after an equal prefix.  When
      no block is open (label 0, or a new component), label k goes only to
      an unlabelled vertex of the greatest profile: the multiplicities of its
      edges, largest first, compared as lists, so a longer profile wins a
      tie on the common prefix.  Its neighbours are all unlabelled, and the
      cut above gives them labels k+1, k+2, ... in descending multiplicity,
      so for the profile (m_1, m_2, ...) block k is (k, k+1) m_1 times, then
      (k, k+2) m_2 times, and so on, after blocks already fixed: a smaller
      profile gives a larger code.  Degree is not the key: a theta vertex,
      profile (3), comes before one of profile (2, 2).  An isolated vertex
      has the least profile, the empty one, so it is taken only when every
      vertex left is isolated, and then only the one of least index.
    - Isolated vertices: a vertex with no edge is never a candidate while a
      block is open, and any permutation of the isolated vertices is an
      automorphism: it changes no edge.  So a minimal relabeling composed
      with the permutation that puts its isolated vertices in index order is
      again minimal, and the full search reaches it along a path on which
      each isolated vertex is the least unlabelled one when it is labelled;
      the cut search keeps that path, so it finds the same minimum.  It drops
      the other orders of the isolated vertices, and with them the signs they
      carry: with two or more isolated vertices their transposition is an
      automorphism of sign -1 (odd parity, no edge flipped), so the sign is 0.
    """
    edges = tuple(edges)
    if any(a == b for a, b in edges):
        return None, 0

    def compute():
        code, sign = _minimal_code(nv, edges)
        return CanonicalGraph(nv, code), sign
    return memoised(_canon_cache, _CANON_CACHE_SIZE, (nv, edges), compute)


def _minimal_code(nv: int, edges, bound=None, signed=True):
    """(minimal sorted edge code, sign) of a loopless multigraph; see
    ``canonicalize_directed``.

    ``bound``, a sorted edge code of the graph, turns the search into a
    canonicity test: it starts from the bound as the best code so far and
    gives None as soon as a branch's fixed prefix falls strictly below it.
    When no relabeling beats the bound, the bound is the minimum, and the
    search, which keeps every relabeling whose code is <= the bound, still
    visits every minimal one, so the sign is exact.  With ``signed`` false
    the leaves take no sign, and the sign returned is None.
    """
    mult = [[0] * nv for _ in range(nv)]
    for a, b in edges:
        mult[a][b] += 1
        mult[b][a] += 1
    nbrs = [[w for w in range(nv) if row[w]] for row in mult]
    # profile[w]: the multiplicities of w's edges, largest first
    profile = [sorted((row[u] for u in nbrs[w]), reverse=True)
               for w, row in enumerate(mult)]
    open_half = [sum(row) for row in mult]  # half-edges to unlabelled vertices
    label = [-1] * nv
    order = []   # order[i] is the vertex labelled i
    prefix = []  # the code fixed by the labels so far
    best = None if bound is None else list(bound)
    signs = set()

    def search(first_open):
        # first_open: the first label whose vertex has open half-edges, or
        # len(order) when there is none; False once a prefix beats the bound
        nonlocal best, signs
        k = len(order)
        if k == nv:
            if best is None or prefix < best:
                best = prefix[:]
                signs = set()
            if signed:
                flips = sum(1 for a, b in edges if label[a] > label[b])
                signs.add(-perm_parity(label) if flips % 2 else perm_parity(label))
            return True
        if first_open < k:
            row = mult[order[first_open]]
            free = [w for w in nbrs[order[first_open]] if label[w] < 0]
            most = max(row[w] for w in free)
            candidates = [w for w in free if row[w] == most]
        else:
            free = [w for w in range(nv) if label[w] < 0]
            top = max(profile[w] for w in free)
            candidates = [w for w in free if profile[w] == top]
            if not top:
                del candidates[1:]  # isolated: only the least index
        for w in candidates:
            mark = len(prefix)
            label[w] = k
            order.append(w)
            for u in nbrs[w]:
                open_half[u] -= mult[u][w]
            i = first_open
            if i < k:
                prefix.extend([(i, k)] * mult[order[i]][w])
            while i <= k and not open_half[order[i]]:
                i += 1
                if i <= k:
                    row = mult[order[i]]
                    for j in range(i + 1, k + 1):
                        prefix.extend([(i, j)] * row[order[j]])
            head = prefix if best is None else best[:len(prefix)]
            if bound is not None and prefix < head:
                return False
            if prefix <= head and not search(i):
                return False
            del prefix[mark:]
            for u in nbrs[w]:
                open_half[u] += mult[u][w]
            order.pop()
            label[w] = -1
        return True

    if not search(0):
        return None
    if not signed:
        return tuple(best), None
    if sum(not row for row in nbrs) > 1:
        return tuple(best), 0
    return tuple(best), (signs.pop() if len(signs) == 1 else 0)


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
    """Sparse rational combination of canonical graphs in one bidegree.

    It is built from (graph, coefficient) pairs, or a dict of them, through
    ``graded.sparse_sum``: repeated graphs add up and zero sums are dropped.
    """

    def __init__(self, terms=()):
        self.terms = sparse_sum(terms.items() if isinstance(terms, dict) else terms)

    def __add__(self, other):
        return GraphChain([*self.terms.items(), *other.terms.items()])

    def scale(self, c):
        return GraphChain((g, v * c) for g, v in self.terms.items())

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
    def terms():
        for i in range(len(graph.edges)):
            nv, new_edges, csign = contract_directed(graph.n_vertices, graph.edges, i)
            rep, sign = canonicalize_directed(nv, new_edges)
            if sign:
                yield rep, csign * sign
    return GraphChain(terms())


def boundary(chain: GraphChain) -> GraphChain:
    return GraphChain((h, c * v) for g, c in chain.terms.items()
                      for h, v in boundary_of_graph(g).terms.items())


def enumerate_graphs(v: int, e: int):
    """All nonzero canonical graphs in bidegree (v, e), valence >= 3 everywhere.

    A graph of the bidegree is a multiset of e loopless vertex pairs with all
    valences >= 3, taken up to relabeling; its canonical code is the least
    sorted edge code over all relabelings (``canonicalize_directed``), and it
    is listed when its sign is nonzero.  Each bidegree is enumerated once: the
    list is kept in a bounded module cache, and every call gets a fresh copy.

    The multisets are built pair by pair, in the order of
    ``combinations_with_replacement`` over the sorted pairs, so every prefix
    is a sorted code.  A prefix is dropped once a vertex whose last pair has
    passed has valence < 3, or the valence still missing exceeds two per edge
    left, or the prefix is not its own canonical code.  That last test is
    the search of ``canonicalize_directed`` bounded by the prefix itself: it
    stops at the first relabeling that beats it.  Each class then reaches
    exactly one leaf, its canonical code, and the bounded search that passed
    that leaf also gives its sign, since it visits every minimal relabeling;
    the searches of shorter prefixes take no sign.

    The last cut is exact because being canonical passes to prefixes: let P
    be the first m edges of a code C, and suppose a relabeling pi gives
    sorted(pi(P)) < P.  pi(P) is a sub-multiset of pi(C), so the m smallest
    edges of pi(C) are elementwise <= sorted(pi(P)); hence the first m edges
    of sorted(pi(C)) are < P, sorted(pi(C)) < C, and C is not canonical
    either.  So a non-canonical prefix has no canonical extension
    (Read-Faradzev orderly generation).
    """
    return list(memoised(_graph_lists, _GRAPH_LISTS_SIZE, (v, e),
                         lambda: _orderly_graphs(v, e)))


def _orderly_graphs(v: int, e: int) -> tuple:
    """The sorted tuple of ``enumerate_graphs``, by orderly generation."""
    if v < 2:
        return ()  # one vertex carries only loops
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
    # closing[p]: the vertices whose last pair is p - 1
    closing = [[] for _ in range(len(pairs) + 1)]
    for u in range(v):
        closing[max(p for p, pair in enumerate(pairs) if u in pair) + 1].append(u)
    degs = [0] * v
    combo = []
    found = []

    def extend(start, deficit):
        left = e - len(combo)
        if deficit > 2 * left:
            return
        code = tuple(combo)
        minimal = _minimal_code(v, code, code, signed=not left)
        if minimal is None:
            return
        if not left:
            if minimal[1]:
                found.append(CanonicalGraph(v, code))
            return
        for p in range(start, len(pairs)):
            if p > start and any(degs[u] < 3 for u in closing[p]):
                return
            a, b = pairs[p]
            gain = (degs[a] < 3) + (degs[b] < 3)
            degs[a] += 1
            degs[b] += 1
            combo.append(pairs[p])
            extend(p, deficit - gain)
            combo.pop()
            degs[a] -= 1
            degs[b] -= 1

    extend(0, 3 * v)
    return tuple(sorted(found, key=lambda g: g.key()))


def cycle_space(v: int, e: int):
    """Exact rational kernel basis of the boundary in bidegree (v, e).

    Returns (basis graphs of the bidegree, list of kernel chains).  The rows
    of the boundary matrix are the graphs of (v - 1, e - 1) that some
    boundary reaches, in the order they first appear, so the lower bidegree
    is never enumerated: a row that no boundary reaches is zero, and the
    kernel, read off the reduced row echelon form, does not depend on the
    order of the rows.
    """
    basis = enumerate_graphs(v, e)
    if not basis:
        return [], []
    row_of = {}
    entries = []
    for col, g in enumerate(basis):
        for h, c in boundary_of_graph(g).terms.items():
            if (h.n_vertices, len(h.edges)) != (v - 1, e - 1):
                raise AssertionError("boundary left the expected bidegree")
            entries.append((row_of.setdefault(h, len(row_of)), col, c))
    rows = [[Fraction(0)] * len(basis) for _ in range(max(1, len(row_of)))]
    for row, col, c in entries:
        rows[row][col] = c
    return basis, [GraphChain(zip(basis, vec)) for vec in linalg.nullspace(rows)]


def theta_graph() -> CanonicalGraph:
    rep, sign = canonicalize_directed(2, ((0, 1), (0, 1), (0, 1)))
    assert sign != 0
    return rep
