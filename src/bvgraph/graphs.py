"""Oriented graphs, canonical forms with signs, contraction and the boundary.

A graph has one representation: its vertex count and its directed edges
between the ordered vertex slots; ``CanonicalGraph`` represents its class.
The sign group is generated by vertex transpositions and single edge flips,
each contributing -1.  A graph vanishes (sign 0) precisely when some
automorphism induces an odd total sign; loops always do, via the half-edge
swap.
"""
from __future__ import annotations

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


# Keyed by the sorted edges, cleared when full.  Graphs with a loop never
# enter it, and ``enumerate_graphs`` runs its search without it; a
# graph_complex benchmark pass caches 93 graphs and never fills it.
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
    before the cache is consulted.  Neither the code nor the sign depends on
    the order of the edges, so the cache is keyed, and the search run, on
    the sorted edges.

    The minimum is found by a depth-first search that gives labels 0, 1, 2,
    ... in turn and reaches every minimal relabeling up to twin swaps (the
    last cut), so the sign is exact.  Its cuts only drop relabelings whose
    code is strictly larger, or that a twin swap turns into one it keeps:

    - Matrix: two sorted codes of e edges compare in the reverse of the
      lexicographic order of their upper-triangle multiplicity rows, read
      row-major: (0, 1), (0, 2), ..., (1, 2), ...  For let (i, j) be the
      first entry where the matrices differ, with m copies of (i, j) in one
      code and m' < m in the other.  Both codes begin with the same edges
      before (i, j) and m' copies of it; there the first has (i, j) again,
      and the second, which has as many edges left, a larger pair.  So the
      search maximises the matrix.  Call the edges (i, j), j > i, of one
      label i its block.  With labels 0..k-1 given, let block i* be the
      first that still has an edge to an unlabelled vertex: the rows before
      i* are fixed, their zeros beyond k-1 included, and so is row i* up to
      column k-1.  Label k fixes entry (i*, k) and then, for each block that
      closes, its zeros beyond k and the next row up to column k, in
      row-major order; the search compares just these with the same entries
      of the best matrix so far.  A branch whose fixed entries fall below
      the best ones is cut; ties are kept.
    - Candidates: while block i* is open, label k goes only to an unlabelled
      vertex with the most edges to vertex i*.  Giving it to one with fewer
      makes entry (i*, k) smaller after equal entries.  When no block is
      open (label 0, or a new component), label k goes only to an
      unlabelled vertex of the greatest profile: the multiplicities of its
      edges, largest first, compared as lists, so a longer profile wins a
      tie on the common prefix.  Its neighbours are all unlabelled, and the
      cut above gives them labels k+1, k+2, ... in descending multiplicity,
      so for the profile (m_1, m_2, ...) row k reads m_1, m_2, ... from
      column k+1 on, after rows already fixed: a smaller profile gives a
      smaller matrix, so a larger code.  Degree is not the key: a theta
      vertex, profile (3), comes before one of profile (2, 2).
    - Twins: vertices u and w are twins when they have the same number of
      edges to every third vertex x.  Twinship is an equivalence, all pairs
      of one class are joined by the same number m of edges, and twins are
      candidates together, since the rules above see only their edges to
      other vertices.  The transposition (u w) is an automorphism: the edges
      u-x and w-x trade places, and each reverses exactly when its twin
      does, so they flip an even number of edges in all; the m edges u-w
      each reverse.  Its sign is therefore -(-1)^m.  Composing a minimal
      relabeling with a permutation inside a class gives another minimal
      one, so the search labels each class in index order: of the
      unlabelled vertices of a class only the least is a candidate.  When
      some class of two or more has m even (isolated vertices have m = 0)
      the graph has an odd automorphism and the sign is 0.  Otherwise every
      twin swap is even, the minimal relabelings the search drops have the
      signs of those it keeps, and the sign over the kept ones is exact.
    """
    edges = tuple(sorted(edges))
    if any(a == b for a, b in edges):
        return None, 0

    def compute():
        mult = _multiplicities(nv, edges)
        code, sign = _minimal_code(mult, edges, _previous_twins(mult))
        return CanonicalGraph(nv, code), sign
    return memoised(_canon_cache, _CANON_CACHE_SIZE, (nv, edges), compute)


def _multiplicities(nv: int, edges) -> list:
    """mult[u][w]: the number of edges between vertices u and w."""
    mult = [[0] * nv for _ in range(nv)]
    for a, b in edges:
        mult[a][b] += 1
        mult[b][a] += 1
    return mult


def _previous_twins(mult) -> list:
    """For each vertex w, the greatest u < w that is w's twin, else None.

    u and w are twins when their rows agree off {u, w}; as mult[u][w] =
    mult[w][u] and both diagonal entries are 0, that is when row u with
    entries u and w swapped equals row w.
    """
    previous = [None] * len(mult)
    for w in range(1, len(mult)):
        for u in range(w - 1, -1, -1):
            swapped = mult[u][:]
            swapped[u], swapped[w] = swapped[w], 0
            if swapped == mult[w]:
                previous[w] = u
                break
    return previous


def _minimal_code(mult, edges, twin, bound=None, signed=True):
    """(minimal sorted edge code, sign) of the loopless multigraph with
    multiplicity matrix ``mult`` and directed ``edges``; see
    ``canonicalize_directed``.  ``twin`` is ``_previous_twins(mult)``, which
    the caller has at hand.

    ``bound``, a sorted edge code of the graph, turns the search into a
    canonicity test: its own multiplicity matrix is the best matrix so far
    from the start, and the search gives None as soon as a branch's fixed
    entries rise strictly above it, a strictly smaller code.  When no
    relabeling beats the bound, the bound is the minimum, and the search,
    which keeps every relabeling whose code is <= the bound, still visits
    every minimal one up to twin swaps, so the sign is exact.  With
    ``signed`` false the leaves take no sign, and the sign returned is None.

    Each node compares only the entries its label fixed with the same
    entries of the best matrix, and carries down whether its matrix is
    already strictly above the best one; a leaf that raises the best matrix
    makes every node on its path equal to it again.  The code is read off
    the best matrix once, at the end.
    """
    nv = len(mult)
    nbrs = [[w for w, m in enumerate(row) if m] for row in mult]
    # profile[w]: the multiplicities of w's edges, largest first
    profile = [sorted(filter(None, row), reverse=True) for row in mult]
    open_half = [sum(row) for row in mult]  # half-edges to unlabelled vertices
    label = [-1] * nv
    order = []  # order[i] is the vertex labelled i
    # bm[i][j]: the multiplicity matrix of the best relabeling so far
    bm = None if bound is None else _multiplicities(nv, bound)
    signs = set()
    lowered = 0  # how many leaves have lowered the best code
    # an even swap of twins w and twin[w] is an odd automorphism
    zero = signed and any(u is not None and not mult[u][w] % 2
                          for w, u in enumerate(twin))

    def search(first_open, below):
        # first_open: the first label whose vertex has open half-edges, or
        # len(order) when there is none; below: the code is already
        # strictly below best's (always while there is no best)
        nonlocal bm, signs, lowered
        k = len(order)
        if k == nv:
            if below:
                bm = [[mult[u][w] for w in order] for u in order]
                signs = set()
                lowered += 1
            if signed and not zero:
                flips = sum(1 for a, b in edges if label[a] > label[b])
                signs.add(-perm_parity(label) if flips % 2 else perm_parity(label))
            return True
        if first_open < k:
            row = mult[order[first_open]]
            free = [w for w in nbrs[order[first_open]] if label[w] < 0]
            most = max(map(row.__getitem__, free))
            candidates = [w for w in free if row[w] == most]
            if not below:
                # label k fixes entry (first_open, k) to most, whichever
                # candidate it goes to
                if most < bm[first_open][k]:
                    return True
                if most > bm[first_open][k]:
                    if bound is not None:
                        return False
                    below = True
        else:
            free = [w for w in range(nv) if label[w] < 0]
            top = max(map(profile.__getitem__, free))
            candidates = [w for w in free if profile[w] == top]
        if len(candidates) > 1:
            # each class is labelled in index order, so the least unlabelled
            # vertex of a class is the one whose previous twin is labelled
            candidates = [w for w in candidates
                          if twin[w] is None or label[twin[w]] >= 0]
        for w in candidates:
            label[w] = k
            order.append(w)
            row = mult[w]
            for u in nbrs[w]:
                open_half[u] -= row[u]
            # the entries that closing blocks fix, against bm's in row-major
            # order: cmp is 1 once one is larger (a smaller code), -1 once
            # one is smaller
            cmp = 1 if below else 0
            i = first_open
            while cmp >= 0 and i <= k and not open_half[order[i]]:
                if not cmp and any(bm[i][k + 1:]):
                    cmp = -1  # block i closed with zeros where bm has edges
                i += 1
                if i <= k and not cmp:
                    row_i, bm_i = mult[order[i]], bm[i]
                    for j in range(i + 1, k + 1):
                        x, y = row_i[order[j]], bm_i[j]
                        if x != y:
                            cmp = 1 if x > y else -1
                            break
            if cmp > 0 and bound is not None:
                return False
            if cmp >= 0:
                seen = lowered
                if not search(i, cmp > 0):
                    return False
                if lowered != seen:
                    below = False
            for u in nbrs[w]:
                open_half[u] += row[u]
            order.pop()
            label[w] = -1
        return True

    if not search(0, bm is None):
        return None
    code = tuple((i, j) for i in range(nv) for j in range(i + 1, nv)
                 for _ in range(bm[i][j]))
    if not signed:
        return code, None
    return code, (signs.pop() if len(signs) == 1 and not zero else 0)


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
    """Sum of single edge contractions, canonicalized with signs.  An edge
    with a parallel copy is skipped: contracting it turns the copy into a
    loop, so its term is 0."""
    edges = graph.edges

    def terms():
        for i, edge in enumerate(edges):
            if edges.count(edge) > 1:
                continue
            nv, new_edges, csign = contract_directed(graph.n_vertices, edges, i)
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
    the search of ``canonicalize_directed`` run with the prefix itself as
    the best code so far, on the multiplicity matrix the generator keeps
    edge by edge: it stops at the first branch whose code falls below the
    prefix.

    The test is exact because being canonical passes to prefixes: let P
    be the first m edges of a code C, and suppose a relabeling pi gives
    sorted(pi(P)) < P.  pi(P) is a sub-multiset of pi(C), so the m smallest
    edges of pi(C) are elementwise <= sorted(pi(P)); hence the first m edges
    of sorted(pi(C)) are < P, sorted(pi(C)) < C, and C is not canonical
    either.  So a non-canonical prefix has no canonical extension
    (Read-Faradzev orderly generation).  Since the test only drops prefixes,
    it need not run on every one: it runs on a prefix whose last pair opens
    a new block (its first vertex differs from the pair before it) and on
    every full multiset, where it decides: each class reaches exactly one
    full multiset that passes, its canonical code, and that test, the only
    signed one, also gives its sign.

    One more cut drops pairs before any test.  Vertices u and w are twins in
    a prefix P when they have the same number of edges to every third
    vertex; the transposition (u w) then maps P to itself.  The pair (a, b)
    is skipped when a has a twin u < a in P, or b has a twin u < b other
    than a.  The transposition pi of the two twins fixes P and sends (a, b)
    to (u, b), or to (a, u) or (u, a), a pair smaller than (a, b) in each
    case.  As (a, b) is not smaller than any pair of P, inserting a smaller
    pair into P gives a smaller code, so sorted(pi(P + (a, b))) < P + (a, b)
    and the extended prefix is not canonical.  The unreached vertices are
    twins of one another, so a pair reaches the least of them only, and a
    new component starts with the two least; of two vertices that only
    block a has reached, the later gets no more copies of its pair with a
    than the earlier: with as many copies the two are twins.
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
    mult = [[0] * v for _ in range(v)]
    combo = []
    found = []

    def extend(start, deficit, opens):
        # opens: the last pair of combo opens a new block
        left = e - len(combo)
        if deficit > 2 * left:
            return
        twin = _previous_twins(mult)  # read by the canonicity test and the twin cut
        if opens or not left:
            minimal = _minimal_code(mult, combo, twin, combo, signed=not left)
            if minimal is None:
                return
            if not left:
                if minimal[1]:
                    found.append(CanonicalGraph(v, tuple(combo)))
                return
        block = combo[-1][0] if combo else -1
        for p in range(start, len(pairs)):
            if p > start and any(degs[u] < 3 for u in closing[p]):
                return
            a, b = pairs[p]
            if twin[a] is not None or twin[b] not in (None, a):
                continue  # a twin swap moves (a, b) below itself
            gain = (degs[a] < 3) + (degs[b] < 3)
            degs[a] += 1
            degs[b] += 1
            mult[a][b] += 1
            mult[b][a] += 1
            combo.append(pairs[p])
            extend(p, deficit - gain, a != block)
            combo.pop()
            mult[a][b] -= 1
            mult[b][a] -= 1
            degs[a] -= 1
            degs[b] -= 1

    extend(0, 3 * v, False)
    return tuple(sorted(found, key=lambda g: g.key()))


def cycle_space(v: int, e: int):
    """Exact rational kernel basis of the boundary in bidegree (v, e).

    Returns (basis graphs of the bidegree, list of kernel chains).  The rows
    of the boundary matrix are the graphs of (v - 1, e - 1) that some
    boundary reaches, each a sparse {column: coefficient} dict, so the lower
    bidegree is never enumerated and no dense matrix is built: a row that no
    boundary reaches is zero, and the kernel, read off the reduced row
    echelon form of the sparse rows (``linalg.nullspace``), does not depend
    on the order of the rows.
    """
    basis = enumerate_graphs(v, e)
    if not basis:
        return [], []
    rows = {}
    for col, g in enumerate(basis):
        for h, c in boundary_of_graph(g).terms.items():
            if (h.n_vertices, len(h.edges)) != (v - 1, e - 1):
                raise AssertionError("boundary left the expected bidegree")
            rows.setdefault(h, {})[col] = c
    return basis, [GraphChain(zip(basis, vec))
                   for vec in linalg.nullspace(rows.values(), len(basis))]
