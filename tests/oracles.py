"""Brute-force reference implementations that the library's kernels are tested against.

They define their results by exhaustion and are far too slow for the
library.  ``canonicalize_oracle`` tries all nv! relabelings and
``valent_multisets_oracle`` walks every edge multiset of the bidegree.
``vertex_tensor_oracle`` multiplies out every index tuple of mu_k, and
``feynman_value_oracle`` walks the full product of the vertex-tensor supports
with the chord sign taken by adjacent transpositions, not ``koszul_sign``.
``restricted_word_oracle`` multiplies a word of Psi images out over all of
A (x) V and restricts the product to the gauge only then.
"""
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product

from bvgraph.dual import chord_presentation, psi_of_word
from bvgraph.graded import perm_parity
from bvgraph.graphs import CanonicalGraph


@lru_cache(maxsize=None)
def _relabelings(nv):
    """(perm, {directed pair: its relabelled pair, small end first}) for
    every permutation of range(nv)."""
    return [(perm, {(a, b): (min(perm[a], perm[b]), max(perm[a], perm[b]))
                    for a in range(nv) for b in range(nv)})
            for perm in permutations(range(nv))]


def canonicalize_oracle(nv, edges):
    """(CanonicalGraph, sign) by minimising the sorted edge code over all nv! relabelings.

    Each relabeling redirects every edge small-to-large; its sign is the
    parity of the relabeling times one -1 per redirected edge, and the result
    has sign 0 when two minimal relabelings disagree.  A graph with a loop
    gives (None, 0).
    """
    edges = tuple(edges)
    if any(a == b for a, b in edges):
        return None, 0
    best_code = None
    best_signs = set()
    for perm, moved in _relabelings(nv):
        code = sorted(map(moved.__getitem__, edges))
        if best_code is not None and code > best_code:
            continue
        flips = sum(perm[a] > perm[b] for a, b in edges)
        sign = perm_parity(perm) * (-1 if flips % 2 else 1)
        if best_code is None or code < best_code:
            best_code = code
            best_signs = {sign}
        else:
            best_signs.add(sign)
    sign = best_signs.pop() if len(best_signs) == 1 else 0
    return CanonicalGraph(nv, best_code), sign


def valent_multisets_oracle(v, e):
    """Every multiset of e loopless pairs on v vertices with all valences >= 3,
    in the order ``combinations_with_replacement`` yields them."""
    if e > 100:
        raise ValueError("valences must fit in a byte")
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
    # a pair adds 1 to the byte of each of its ends, so the sum over a multiset
    # packs its valences one byte each; adding 125 to a byte sets its top bit
    # exactly when that valence is >= 3
    weight = {(a, b): (1 << 8 * a) + (1 << 8 * b) for a, b in pairs}
    add = sum(125 << 8 * u for u in range(v))
    top = sum(128 << 8 * u for u in range(v))
    return [combo for combo in combinations_with_replacement(pairs, e)
            if (sum(map(weight.__getitem__, combo)) + add) & top == top]


@lru_cache(maxsize=None)
def canonical_multisets_oracle(v, e):
    """Each multiset of ``valent_multisets_oracle(v, e)`` with its
    ``canonicalize_oracle`` (rep, sign); computed once per bidegree."""
    return tuple((combo, canonicalize_oracle(v, combo))
                 for combo in valent_multisets_oracle(v, e))


def enumerate_graphs_oracle(v, e):
    """Sorted nonzero canonical graphs of bidegree (v, e), v >= 1, by exhaustion."""
    reps = {rep.key(): rep for _, (rep, sign) in canonical_multisets_oracle(v, e)
            if sign}
    return sorted(reps.values(), key=lambda g: g.key())


def vertex_tensor_oracle(alg, vectors, k):
    """mu_k on a list of elements: <v_{t_1} ... v_{t_{k-1}}, v_{t_k}> for
    every index tuple t in ``product`` order, nonzero entries only."""
    els = [{i: c for i, c in enumerate(v) if c != 0} for v in vectors]
    out = {}
    for tup in product(range(len(els)), repeat=k):
        prod = alg.mul_chain([els[i] for i in tup[:-1]])
        val = alg.pair(prod, els[tup[-1]])
        if val:
            out[tup] = val
    return out


def chord_sign_oracle(parities, chord):
    """Sign of reordering the factors into (i1, j1, i2, j2, ...), by bubble
    sort: each adjacent swap of two odd factors costs -1."""
    order = [p for pair in chord for p in pair]
    sign = 1
    for end in range(len(order) - 1, 0, -1):
        for i in range(end):
            if order[i] > order[i + 1]:
                order[i], order[i + 1] = order[i + 1], order[i]
                if parities[order[i]] and parities[order[i + 1]]:
                    sign = -sign
    return sign


def feynman_value_oracle(gm, graph):
    """F(Gamma) as the sum over the full product of the mu_k supports of the
    entries, the propagator entries of every chord and the chord sign.

    Reads only ``gm.mu(k)``, ``gm.propagator`` and ``gm.gauge.parities``.
    """
    sizes, chord = chord_presentation(graph)
    prop = gm.propagator
    lpar = gm.gauge.parities
    total = Fraction(0)
    for entries in product(*(gm.mu(k).items() for k in sizes)):
        assigned = [s for idx, _ in entries for s in idx]
        props = [prop[assigned[i]][assigned[j]] for i, j in chord]
        if not all(props):
            continue
        val = Fraction(chord_sign_oracle([lpar[s] for s in assigned], chord))
        for factor in props + [mval for _, mval in entries]:
            val *= factor
        total += val
    return total


def restricted_word_oracle(model, gm, word):
    """(-1)^{p(h)} Psi(h_1) ... Psi(h_l) over all of A (x) V, restricted to
    L (x) V after the product."""
    return gm.restrict(psi_of_word(model, word))
