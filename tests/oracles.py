"""Brute-force reference implementations that the library's kernels are tested against.

They define their results by exhaustion and are far too slow for the
library.  ``canonicalize_oracle`` tries all nv! relabelings and
``valent_multisets_oracle`` walks every edge multiset of the bidegree.
``boundary_of_graph_oracle`` contracts every edge of a graph, parallel ones
included, and canonicalises each contraction with ``canonicalize_oracle``.
``vertex_tensor_oracle`` multiplies out every index tuple of mu_k, and
``feynman_value_oracle`` walks the full product of the vertex-tensor supports
with the chord sign taken by adjacent transpositions, not ``koszul_sign``.
``restricted_word_oracle`` multiplies a word of Psi images out over all of
A (x) V and restricts the product to the gauge only then, with
``substitute_oracle``: that expands each term factor by factor with
``polynomial_product_oracle``, over Fractions, on the images of the
variables of A (x) V that ``restriction_images`` reads off the gauge
model's columns.  ``restricted_weight_oracle`` restricts sigma-tilde the
same way and takes i_2 of it: the route the Gram matrix of the weight
replaced.  ``restricted_product_oracle`` multiplies the restricted Psi
factors with every product formed, and ``s_functional_oracle`` takes the
expectation of that uncut product: the route the matchability cut of S
replaced.  ``matchable_word_oracle`` cuts
that product pair of tally groups by pair, factor by factor, with its own
``tally_deficiency``: the route the join of two half products replaced.
``restricted_mu_oracle`` contracts mu_k with the gauge basis index by index
at every tuple of gauge indices, the route the graded-symmetric table
replaced.  Both restrict Psi of each
monomial as ``psi_monomial_oracle`` sums it.  ``unmatched_oracle`` is the
fewest points a matching along a matrix's support leaves unmatched, by
trying every matching.
``wick_map_oracle`` contracts every chord diagram of a word, zero or not, and
``monomial_vev_chords_oracle`` sums beta_c over all chord diagrams.
``wick_map_live_oracle`` sums I over the live chord diagrams alone, one at
a time (``live_chords``), on words too large for ``wick_map_oracle``;
``graph_from_chord`` is the graph Gamma(c; k) of a chord diagram.
``berezin_oracle`` integrates split-diagonal weights block by block, each
odd pair by ``berezin_integrate``, the iterated odd integral of right
derivatives ``right_deriv``, and ``canonical_laplacian_oracle`` is the
coordinate odd Laplacian of U_{n|n}.  ``pi2_of_form`` is the quadratic
function of a symmetric form, the inverse of ``symplectic.i2_of_quadratic``,
and ``theta_graph`` is the one graph of bidegree (2, 3).
``contraction_matrix_oracle`` rebuilds the 2-form omega from the matrix b of
a symplectic space with ``upsilon_inverse`` and reads Phi off its
contractions in the form algebra on the 2N variables {y, dy};
``hamiltonian_field_form_oracle`` solves i_alpha(omega) = da there, and
``odd_laplacian_form_oracle`` is 1/2 nabla of that field.  ``duality_map``
is the Fourier duality from functions on U_{n|n} to forms on its body, which
sends the odd Laplacian to d, and ``coordinate_lagrangian`` spans a
Lagrangian of U_{n|n} by unit vectors.
``feynman_product_oracle`` evaluates F on a disjoint union from F on its
connected components.
``polynomial_product_oracle`` multiplies two polynomials with one Fraction
product per term pair, each merged key sorted by ``sort_indices_with_sign``,
and ``psi_monomial_oracle`` sums Psi of a monomial as one
``SuperPolynomial.monomial`` per entry of mu_k, with the sign of the explicit
reordering by ``koszul_sign``, not ``dual.shuffle_sign``.
``polynomial_parity`` is the parity of a homogeneous polynomial, for tests
that state a sign (-1)^{|a|}, ``parity_components`` splits a polynomial
into its even and odd parts, for tests that state a rule on each part, and
``min_degree`` and ``max_degree`` are the least and largest degree of its
terms.  ``commutator`` is the graded commutator of two homogeneous vector
fields, by its images on the coordinates.
``feynman_leaf_sign_oracle`` is the cut Feynman recursion that takes the
chord sign by ``koszul_sign`` at each leaf, the route the folded sign of
``feynman_value`` replaced.  ``so3_weight_oracle`` is F at so3red's one
gauge as the so(3) weight system, which colours the edges and reads neither
route's vertex tensors, propagator or chord sign.  ``rescaled`` writes an algebra in a scaled
basis, so that its structure constants and pairing get denominators.
``g3_gauge_oracle`` is G3's gauge family solved by hand, the closed form
``frobenius.g3_gauge`` is pinned to; ``g5`` is G3 with a second pair of
generators, and ``g5_gauge`` draws a sparse point of its gauge family.
``double_factorial`` gives the unit Gaussian moments of ``SplitWeight``.
``dense_rref_oracle`` is dense Gaussian elimination over a full matrix of
Fractions, column by column with row swaps, the route ``linalg.rref``'s sparse
row-by-row kernel replaced, and ``identity`` is the dense identity matrix.
``permute_tensor``, ``symmetrize_tensor``, ``is_symmetric_tensor`` and
``average_tensor`` act on the first `rank` slots of sparse tensor keys, and
``supertrace_oracle`` reads the supertrace of a field's Koszul-symmetric map
off the symmetrised tensor of its terms, without ``divergence``.
"""
import random
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial

from bvgraph import linalg
from bvgraph.dual import chord_presentation, psi_of_word, tensor_index, wedge_sign
from bvgraph.frobenius import FrobeniusAlgebra, Gauge, gauge_at, grassmann_algebra
from bvgraph.forms import FormContext
from bvgraph.graded import (EVEN, ODD, SuperSpace, integer_terms, koszul_sign,
                            monomial_parity, perm_parity, sort_indices_with_sign,
                            sparse_sum)
from bvgraph.graphs import (CanonicalGraph, GraphChain, canonicalize_directed,
                            contract_directed)
from bvgraph.superpoly import SuperPolynomial, VectorField, divergence
from bvgraph.symplectic import LagrangianSubspace, i2_of_quadratic
from bvgraph.wick import chord_diagrams, chord_sign


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


def boundary_of_graph_oracle(graph):
    """The boundary of a graph: every edge contracted, loops and all, and each
    contraction canonicalised by ``canonicalize_oracle``."""
    def terms():
        for i in range(len(graph.edges)):
            nv, edges, csign = contract_directed(graph.n_vertices, graph.edges, i)
            rep, sign = canonicalize_oracle(nv, edges)
            if sign:
                yield rep, csign * sign
    return GraphChain(terms())


def theta_graph():
    """The theta graph: two vertices joined by three edges, of bidegree (2, 3)."""
    rep, sign = canonicalize_directed(2, ((0, 1), (0, 1), (0, 1)))
    assert sign != 0
    return rep


def vertex_tensor_oracle(alg, vectors, k):
    """mu_k on a list of elements: <v_{t_1} ... v_{t_{k-1}}, v_{t_k}> for
    every index tuple t in ``product`` order, nonzero entries only."""
    els = [{i: c for i, c in enumerate(v) if c != 0} for v in vectors]
    out = {}
    for tup in product(range(len(els)), repeat=k):
        prod = reduce(alg.mul, (els[i] for i in tup[:-1]))
        val = alg.pairing.evaluate(prod, els[tup[-1]])
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


def feynman_value_oracle(gauge, graph):
    """F(Gamma) as the sum over the full product of the mu_k supports of the
    entries, the propagator entries of every chord and the chord sign.

    Reads only ``gauge.vertex_tensors.mu(k)``, ``gauge.propagator`` and
    ``gauge.parities``.
    """
    sizes, chord = chord_presentation(graph)
    prop = gauge.propagator
    lpar = gauge.parities
    total = Fraction(0)
    for entries in product(*(gauge.vertex_tensors.mu(k).items() for k in sizes)):
        assigned = [s for idx, _ in entries for s in idx]
        props = [prop[assigned[i]][assigned[j]] for i, j in chord]
        if not all(props):
            continue
        val = Fraction(chord_sign_oracle([lpar[s] for s in assigned], chord))
        for factor in props + [mval for _, mval in entries]:
            val *= factor
        total += val
    return total


def so3_weight_oracle(graph):
    """F(Gamma) at so3red's one gauge as the so(3) weight system, from the
    graph alone: no mu_k, no propagator and no chord sign of either route.

    Each edge is coloured by one of {0, 1, 2}.  A vertex weighs its
    half-edge colours, taken in edge order, by the Levi-Civita symbol:
    ``perm_parity`` of the colours, and 0 on a repeated colour.  The
    propagator at that gauge is -delta, so each edge also gives -1.  The
    sign is ``perm_parity`` of the slot order (i1, j1, i2, j2, ...), with
    the half-edge blocks laid out in vertex order and each filled in edge
    order.  The edges are coloured one at a time, and a vertex is weighed
    as soon as its last edge has a colour.
    """
    edges = graph.edges
    half = [[] for _ in range(graph.n_vertices)]  # the edges at each vertex
    for e, (a, b) in enumerate(edges):
        half[a].append(e)
        half[b].append(e)
    offsets = [0]
    for es in half[:-1]:
        offsets.append(offsets[-1] + len(es))
    slots = [offsets[v] + half[v].index(e) for e, ends in enumerate(edges) for v in ends]
    closes = [[] for _ in edges]  # the vertices whose last edge is e
    for v, es in enumerate(half):
        closes[es[-1]].append(v)
    colour = [0] * len(edges)

    def weight(e):
        if e == len(edges):
            return 1
        total = 0
        for c in range(3):
            colour[e] = c
            eps = 1
            for v in closes[e]:
                colours = [colour[f] for f in half[v]]
                eps *= perm_parity(colours) if sorted(colours) == [0, 1, 2] else 0
            if eps:
                total += eps * weight(e + 1)
        return total

    return perm_parity(slots) * (-1) ** len(edges) * weight(0)


def feynman_leaf_sign_oracle(gauge, graph):
    """F(Gamma) by the cut recursion with the chord sign taken at each leaf.

    It assigns one entry of mu_k per vertex block over the integer entries
    of ``gauge.vertex_tensors.mu(k)`` and of ``gauge.propagator``,
    multiplies in the propagator entries of the chords that close in the
    block and cuts at a zero; each leaf multiplies by ``wick.chord_sign``
    (``koszul_sign``) of all its assigned parities.  Reads only
    ``gauge.vertex_tensors.mu(k)``, ``gauge.propagator`` and
    ``gauge.parities``.
    """
    sizes, chord = chord_presentation(graph)
    scaled = {k: integer_terms(gauge.vertex_tensors.mu(k)) for k in set(sizes)}
    d_p, entries = integer_terms({(i, j): p for i, row in enumerate(gauge.propagator)
                                  for j, p in enumerate(row) if p})
    prop = [[0] * len(gauge.propagator) for _ in gauge.propagator]
    for (i, j), p in entries:
        prop[i][j] = p
    lpar = gauge.parities
    vertex_of = [vtx for vtx, k in enumerate(sizes) for _ in range(k)]
    closes = [[] for _ in sizes]
    for i, j in chord:
        closes[vertex_of[max(i, j)]].append((i, j))
    total = 0

    def rec(vtx, assignment, coeff):
        nonlocal total
        if vtx == len(sizes):
            total += coeff * chord_sign([lpar[s] for s in assignment], chord)
            return
        for idx, mval in scaled[sizes[vtx]][1]:
            assigned = assignment + idx
            val = coeff * mval
            for i, j in closes[vtx]:
                val *= prop[assigned[i]][assigned[j]]
                if not val:
                    break
            else:
                rec(vtx + 1, assigned, val)

    rec(0, (), 1)
    scale = d_p ** len(chord)
    for k in sizes:
        scale *= scaled[k][0]
    return Fraction(total, scale)


def rescaled(alg, scales):
    """The algebra in the basis b_i = scales[i] a_i: b_i b_j =
    sum_k s_i s_j c_ij^k / s_k b_k, d(b_j) = sum_k s_j d_kj / s_k b_k and
    <b_i, b_j> = s_i s_j <a_i, a_j>."""
    n = len(alg.space)
    mult = {(i, j): {k: scales[i] * scales[j] * c / scales[k] for k, c in img.items()}
            for (i, j), img in alg.mult.items()}
    diff = [[scales[j] * alg.diff[k][j] / scales[k] for j in range(n)] for k in range(n)]
    pairing = [[scales[i] * scales[j] * alg.pairing.rows[i][j] for j in range(n)]
               for i in range(n)]
    return FrobeniusAlgebra(alg.space, mult, diff, pairing, name=alg.name + "_scaled")


def g3_gauge_oracle(a, b, c, d, alg):
    """G3's gauge L(a,b,c,d), solved by hand from the isotropy constraints:
    span{xi1 + a xi2 + b xi3, xi1xi2 - d - b xi2xi3, xi1xi3 + c + a xi2xi3,
    xi1xi2xi3 + c xi2 + d xi3}, labelled G3(a,b,c,d)."""
    a, b, c, d = (Fraction(x) for x in (a, b, c, d))
    idx = {nm: i for i, nm in enumerate(alg.space.names)}

    def vec(**comps):
        v = [Fraction(0)] * len(idx)
        for nm, coeff in comps.items():
            v[idx[nm]] = coeff
        return v

    vectors = [vec(xi1=Fraction(1), xi2=a, xi3=b),
               vec(xi12=Fraction(1), **{"1": -d}, xi23=-b),
               vec(xi13=Fraction(1), **{"1": c}, xi23=a),
               vec(xi123=Fraction(1), xi2=c, xi3=d)]
    return Gauge(alg, vectors, label=f"G3({a},{b},{c},{d})")


def g5():
    """G3 with a second pair: Lambda(xi1..xi5) with d(xi1 xi_S) = xi_S +
    (xi2xi3) xi_S + (xi4xi5) xi_S for every S in {2..5}, each product sorted
    with its Koszul sign and dropped where it repeats a generator, and d = 0
    on the subsets without xi1."""
    d_images = {}
    for r in range(5):
        for s in combinations(range(2, 6), r):
            img = d_images[(1,) + s] = {s: Fraction(1)}
            for merged in ((2, 3) + s, (4, 5) + s):
                if len(set(merged)) == len(merged):
                    order = sorted(range(len(merged)), key=merged.__getitem__)
                    img[tuple(sorted(merged))] = Fraction(koszul_sign(order, (ODD,) * len(merged)))
    return grassmann_algebra(5, d_images, name="G5")


def g5_gauge(alg, seed):
    """A sparse random point of G5's 64-direction gauge family: each
    coordinate is uniform in {-1, 0, 1} with probability 0.2, else 0."""
    rng = random.Random(seed)
    coords = [rng.choice((-1, 0, 1)) if rng.random() < 0.2 else 0 for _ in range(64)]
    return gauge_at(alg, coords, label=f"G5 seed {seed}")


def permute_tensor(space: SuperSpace, t: dict, order) -> dict:
    """Apply the signed place permutation to the first len(order) slots of each
    key: slot j of the result holds slot order[j]; later slots stay in place."""
    rank = len(order)
    return sparse_sum(
        (tuple(key[o] for o in order) + key[rank:],
         koszul_sign(order, [space.parities[i] for i in key[:rank]]) * val)
        for key, val in t.items())


def symmetrize_tensor(space: SuperSpace, t: dict, rank: int) -> dict:
    """The map i_n: sum of all Koszul-signed permutations of the first `rank` slots."""
    return sparse_sum(item for order in permutations(range(rank))
                      for item in permute_tensor(space, t, order).items())


def is_symmetric_tensor(space: SuperSpace, t: dict, rank: int) -> bool:
    """Whether every signed adjacent transposition of the first `rank` slots fixes t."""
    t = sparse_sum(t.items())
    for s in range(rank - 1):
        order = list(range(rank))
        order[s], order[s + 1] = s + 1, s
        if permute_tensor(space, t, order) != t:
            return False
    return True


def average_tensor(space: SuperSpace, t: dict, rank: int) -> dict:
    """The map pi_n: project onto the coinvariant representative and divide by n!.

    Keys repeating an odd index represent classes that vanish in the symmetric
    algebra and are dropped.
    """
    fact = factorial(rank)

    def terms():
        for key, val in t.items():
            skey, sign = sort_indices_with_sign(space, key)
            if skey is not None:
                yield skey, Fraction(sign, fact) * val
    return sparse_sum(terms())


def field_tensor(eta):
    """The Koszul-symmetric map zeta in Hom(S^n W, W) of a field eta whose
    images all have degree n, as a sparse tensor keyed args + (out,): the
    symmetrised tensor of eta's terms, so that eta(y_out) = pi_n of zeta."""
    n = {len(k) for img in eta.images for k in img.terms}.pop()
    flat = {key + (w,): c for w, img in enumerate(eta.images) for key, c in img.terms.items()}
    return n, symmetrize_tensor(eta.space, flat, n)


def supertrace_oracle(eta, vectors):
    """tr[x -> zeta(v_1, ..., v_{n-1}, x)] for the map zeta of the field eta
    (``field_tensor``) and n - 1 coefficient vectors v_r."""
    n, zeta = field_tensor(eta)
    if len(vectors) != n - 1:
        raise ValueError("argument count mismatch")
    total = Fraction(0)
    for key, val in zeta.items():
        if key[-2] == key[-1]:
            for slot, v in enumerate(vectors):
                val *= v[key[slot]]
            total += -val if eta.space.parities[key[-1]] else val
    return total


def polynomial_parity(p):
    """The common parity of the terms of p; None if they disagree or p is 0."""
    ps = {monomial_parity(p.space, k) for k in p.terms}
    return ps.pop() if len(ps) == 1 else None


def min_degree(p):
    """The least degree of a term of p, 0 for the zero polynomial."""
    return min(map(len, p.terms), default=0)


def max_degree(p):
    """The largest degree of a term of p, 0 for the zero polynomial."""
    return max(map(len, p.terms), default=0)


def commutator(eta, gam):
    """[eta, gam] of two homogeneous fields: the field whose image of y_i is
    eta(gam(y_i)) - (-1)^{|eta||gam|} gam(eta(y_i))."""
    if eta.parity is None or gam.parity is None:
        raise ValueError("commutator needs homogeneous fields")
    sgn = -1 if (eta.parity and gam.parity) else 1
    return VectorField(eta.space, [eta(b) - sgn * gam(a)
                                   for a, b in zip(eta.images, gam.images)])


def parity_components(p):
    """[even part, odd part] of p."""
    out = [{}, {}]
    for k, v in p.terms.items():
        out[monomial_parity(p.space, k)][k] = v
    return [SuperPolynomial(p.space, terms) for terms in out]


def polynomial_product_oracle(a, b):
    """a * b over Fractions: each term pair's concatenated key sorted with its
    Koszul sign (odd squares dropped), the products added in pair order and
    the zero sums dropped at the end."""
    space = a.space
    out = {}
    for k1, v1 in a.terms.items():
        for k2, v2 in b.terms.items():
            key, sign = sort_indices_with_sign(space, k1 + k2)
            if key is not None:
                out[key] = out.get(key, Fraction(0)) + sign * v1 * v2
    return SuperPolynomial(space, {k: v for k, v in out.items() if v})


def psi_monomial_oracle(model, key):
    """Psi of the monomial key of V on A (x) V: the sum over the entries of
    mu_k (mu_2 the pairing) of one ``SuperPolynomial.monomial`` each,
    prod_r z_{(alpha_r, key_r)} times mu_k[alpha] and the shuffle sign."""
    k = len(key)
    if k == 2:
        mu = {(i, j): c for i, row in enumerate(model.alg.pairing.rows)
              for j, c in enumerate(row) if c}
    else:
        mu = model.mu(k)
    vpar = [model.v.space.parities[i] for i in key]
    apar = model.alg.space.parities
    # a*_1 .. a*_k u_1 .. u_k rearranged to a*_1 u_1 .. a*_k u_k
    order = [s for r in range(k) for s in (r, k + r)]
    return SuperPolynomial.sum(model.space, (
        SuperPolynomial.monomial(
            model.space, tuple(tensor_index(model.nv, alphas[r], key[r]) for r in range(k)),
            koszul_sign(order, [apar[a] for a in alphas] + vpar) * mval)
        for alphas, mval in mu.items()))


def substitute_oracle(f, images, target_space):
    """The graded algebra map sending variable i of f to images[i]: each term
    c y_{v_1} ... y_{v_deg} is the constant c times images[v_1], ...,
    images[v_deg], one ``polynomial_product_oracle`` per factor, and the
    terms' images are summed in term order."""
    def image(key, val):
        out = SuperPolynomial.scalar(target_space, val)
        for v in key:
            out = polynomial_product_oracle(out, images[v])
        return out
    return SuperPolynomial.sum(target_space, (image(key, val)
                                              for key, val in f.terms.items()))


def restricted_product_oracle(gm, word):
    """(-1)^{p(h)} Psi(h_1) ... Psi(h_l) of the restricted factors, every
    product formed: the uncut word product of ``GaugeModel.matchable_word``."""
    out = SuperPolynomial.scalar(gm.space, wedge_sign(gm.model.v.space, word))
    for key in word:
        out = out * gm.restrict(psi_monomial_oracle(gm.model, key))
    return out


def tally_deficiency(support, tally) -> int:
    """The deficiency of a multiset of this tally under ``support``: |t| on
    each bipartite component, t mod 2 on each other one."""
    return sum(abs(t) if bip else t % 2 for t, bip in zip(tally, support.bipartite))


def matchable_word_oracle(gm, word):
    """The terms of deficiency 0 of (-1)^{p(h)} Psi(h_1) ... Psi(h_l)
    restricted to L (x) V, by the pairwise cut: from the unit, factor by
    factor, each tally group of the partial product meets each tally group
    of the next factor, and the pair is multiplied out when its summed tally
    has deficiency (``tally_deficiency``) at most the variables still to
    come.  Each factor restricts Psi of its key as ``psi_monomial_oracle``
    sums it, and each pair of terms merges by ``sort_indices_with_sign``:
    the route the join of two half products replaced."""
    support = gm.weight.support
    more = sum(map(len, word))
    terms = {(): Fraction(wedge_sign(gm.model.v.space, word))}
    for key in word:
        more -= len(key)
        factor = support.group(gm.restrict(psi_monomial_oracle(gm.model, key)).terms.items())
        pairs = []
        for t1, left in support.group(terms.items()).items():
            for t2, right in factor.items():
                if tally_deficiency(support, [a + b for a, b in zip(t1, t2)]) <= more:
                    pairs += [(k1 + k2, a * b) for k1, a in left for k2, b in right]
        merged = ((sort_indices_with_sign(gm.space, k), c) for k, c in pairs)
        terms = sparse_sum((k, sign * c) for (k, sign), c in merged if k is not None)
    return SuperPolynomial(gm.space, terms)


def restricted_mu_oracle(gm, k):
    """{s: mu_k(L_{s_1}, ..., L_{s_k})} at every tuple s of gauge indices,
    as Fractions: the algebra's mu_k on the basis of A contracted with the
    gauge vectors one index at a time, with no symmetry used."""
    vectors = gm.gauge.vectors
    entries = gm.model.mu(k).items()
    for r in range(k):
        entries = sparse_sum(((idx[:r] + (s,) + idx[r + 1:], x * vec[idx[r]])
                              for idx, x in entries for s, vec in enumerate(vectors)
                              if vec[idx[r]])).items()
    return dict(entries)


def s_functional_oracle(gm, chain):
    """S over the uncut restricted word products (``restricted_product_oracle``):
    every product formed, and the expectation of each summed."""
    return sum((coeff * gm.weight.expectation(restricted_product_oracle(gm, word))
                for word, coeff in chain.terms.items()), Fraction(0))


def unmatched_oracle(matrix, key):
    """The fewest points of the multiset key that a matching along the
    nonzero entries of matrix (in either order) leaves unmatched, by trying
    every partner of the first point and leaving it unmatched."""
    if not key:
        return 0
    first, rest = key[0], key[1:]
    best = 1 + unmatched_oracle(matrix, rest)
    for j, other in enumerate(rest):
        if matrix[first][other] or matrix[other][first]:
            best = min(best, unmatched_oracle(matrix, rest[:j] + rest[j + 1:]))
    return best


def restriction_images(gm):
    """The image sum_s vectors[s][z] l_s of each variable z of A (x) V under
    the restriction to L (x) V, read off the columns ``gm.vectors``."""
    return [SuperPolynomial(gm.space, {(s,): v[z] for s, v in enumerate(gm.vectors) if v[z]})
            for z in range(len(gm.model.space))]


def restricted_word_oracle(model, gm, word):
    """(-1)^{p(h)} Psi(h_1) ... Psi(h_l) over all of A (x) V, restricted to
    L (x) V after the product by ``substitute_oracle``."""
    return substitute_oracle(psi_of_word(model, word), restriction_images(gm), gm.space)


def restricted_weight_oracle(model, gm):
    """i_2 of sigma-tilde restricted to L (x) V by ``substitute_oracle``: the
    route the Gram matrix of ``GaugeModel.weight`` replaced."""
    return i2_of_quadratic(substitute_oracle(model.sigma, restriction_images(gm), gm.space))


def connected_components(graph):
    """The vertex sets of the connected components of a canonical graph, each
    sorted, in order of their least vertex."""
    comp = list(range(graph.n_vertices))

    def root(u):
        while comp[u] != u:
            u = comp[u]
        return u

    for a, b in graph.edges:
        comp[root(a)] = root(b)
    blocks = {}
    for u in range(graph.n_vertices):
        blocks.setdefault(root(u), []).append(u)
    return list(blocks.values())


def feynman_product_oracle(value, graph):
    """F(graph) from ``value`` (an F on canonical graphs) on its connected
    components, by multiplicativity on disjoint unions.

    The vertices are relabelled so that each component, taken in order of
    its least vertex, is a block of consecutive labels; that block graph is
    s * graph, s the sign ``canonicalize_directed`` gives it.  Component i,
    shifted to start at label 0, is s_i * rep_i, and
    F(graph) = s * prod_i s_i * value(rep_i).
    """
    blocks = connected_components(graph)
    order = [u for block in blocks for u in block]
    new = {old: pos for pos, old in enumerate(order)}
    rep, total = canonicalize_directed(
        graph.n_vertices, tuple((new[a], new[b]) for a, b in graph.edges))
    assert rep == graph and total
    start = 0
    for block in blocks:
        edges = tuple((new[a] - start, new[b] - start)
                      for a, b in graph.edges if a in block)
        rep_i, sign_i = canonicalize_directed(len(block), edges)
        if not sign_i:
            return Fraction(0)
        total *= sign_i * value(rep_i)
        start += len(block)
    return total


def beta_contract_indices(parities, idxs, chord, matrix):
    """beta_c on a pure tensor of basis vectors given by index list ``idxs``:
    the chord sign times the product of matrix[idxs[i]][idxs[j]] over c."""
    val = Fraction(1)
    for i, j in chord:
        val *= matrix[idxs[i]][idxs[j]]
    return chord_sign_oracle(parities, chord) * val if val else val


def beta_contract(factors, chord, form):
    """beta_c on a sequence of linear functions over form.space (multilinear)."""
    if any(max_degree(f) > 1 or min_degree(f) < 1 for f in factors if not f.is_zero()):
        raise ValueError("factors must be linear")
    pars = form.space.parities
    total = Fraction(0)
    for terms in product(*(f.terms.items() for f in factors)):
        idxs = [key[0] for key, _ in terms]
        coeff = Fraction(1)
        for _, c in terms:
            coeff *= c
        total += coeff * beta_contract_indices([pars[i] for i in idxs], idxs,
                                               chord, form.rows)
    return total


def monomial_vev_chords_oracle(weight, key):
    """<y_{k1} ... y_{k_2m}>_0 as the literal sum of beta_c over all chord
    diagrams, with the inverse form of ``weight``."""
    if len(key) % 2:
        return Fraction(0)
    pars = [weight.space.parities[i] for i in key]
    return sum((beta_contract_indices(pars, key, chord, weight.inverse.rows)
                for chord in chord_diagrams(len(key) // 2)), Fraction(0))


def graph_from_chord(vertex_sizes, chord):
    """Gamma(c; k_1..k_l): consecutive half-edge blocks, chord pairs as edges."""
    vertex_of = []
    for vtx, size in enumerate(vertex_sizes):
        vertex_of.extend([vtx] * size)
    edges = tuple((vertex_of[i], vertex_of[j]) for i, j in chord)
    return len(vertex_sizes), edges


def live_chords(parities, idxs, matrix):
    """Yield (chord, beta_c) for the chord diagrams on the factors ``idxs``
    with beta_c = chord_sign * prod_{(i, j) in c} matrix[idxs[i]][idxs[j]]
    nonzero, in the order of ``chord_diagrams``.  Like ``chord_diagrams`` it
    pairs the first open point with each later point in turn, but only with
    one of nonzero entry, and carries the running product: the diagrams it
    skips are exactly those with beta_c = 0."""
    chord = []

    def rec(points, val):
        if not points:
            done = tuple(chord)
            yield done, chord_sign(parities, done) * val
            return
        row = matrix[idxs[points[0]]]
        for pos in range(1, len(points)):
            entry = row[idxs[points[pos]]]
            if entry:
                chord.append((points[0], points[pos]))
                yield from rec(points[1:pos] + points[pos + 1:], val * entry)
                chord.pop()

    yield from rec(tuple(range(len(idxs))), Fraction(1))


def wick_map_live_oracle(chain):
    """I(chain) one live chord diagram at a time (``live_chords``), each
    adding coeff * beta_c times its graph, canonicalised with its sign: the
    route the class sums of ``wick.chord_classes`` replaced, for words too
    large for ``wick_map_oracle``."""
    inv = chain.symp.inverse.rows
    pars = chain.symp.space.parities
    terms = []
    for word, coeff in chain.terms.items():
        factors = [i for key in word for i in key]
        sizes = [len(key) for key in word]
        for chord, val in live_chords([pars[i] for i in factors], factors, inv):
            rep, sign = canonicalize_directed(*graph_from_chord(sizes, chord))
            if sign:
                terms.append((rep, coeff * val * sign))
    return GraphChain(terms)


def wick_map_oracle(chain):
    """I(chain) from every chord diagram of every word, zero or not: each adds
    coeff * beta_c times its graph, canonicalised with its sign."""
    inv = chain.symp.form.inverse().rows
    pars = chain.symp.space.parities
    terms = []
    for word, coeff in chain.terms.items():
        factors = [i for key in word for i in key]
        if len(factors) % 2:
            continue
        sizes = [len(key) for key in word]
        for chord in chord_diagrams(len(factors) // 2):
            val = beta_contract_indices([pars[i] for i in factors], factors,
                                        chord, inv)
            if val == 0:
                continue
            rep, sign = canonicalize_directed(*graph_from_chord(sizes, chord))
            if sign:
                terms.append((rep, coeff * val * sign))
    return GraphChain(terms)


def canonical_laplacian_oracle(symp, a):
    """sum_i d/dx_i d/dxi_i, valid on the canonical U_{n|n} only."""
    n = len(symp.space) // 2
    return SuperPolynomial.sum(
        symp.space, (a.deriv_left(n + i).deriv_left(i) for i in range(n)))


def upsilon_inverse(ctx, b):
    """The constant 2-form omega with Upsilon(omega) = b, for super-skew b,
    where Upsilon(dx dy) = (-1)^x [x(x)y - (-1)^{xy} y(x)x]."""
    n = ctx.n
    pars = ctx.base.parities
    return SuperPolynomial.sum(ctx.space, (
        SuperPolynomial.monomial(ctx.space, (n + i, n + j),
                                 -v / 2 if i == j else (-1 if pars[i] else 1) * v)
        for i, row in enumerate(b.rows) for j, v in enumerate(row) if v and i <= j))


def duality_map(symp, g):
    """Inverse-Fourier duality D: functions on U_{n|n} -> forms on the body M.

    D(f xi_{i1}..xi_{il}) = i_{d/dx_{i1}} o ... o i_{d/dx_{il}} [f dx_1..dx_n].
    Returns (body FormContext, form).
    """
    n = len(symp.space) // 2
    body = SuperSpace([symp.space.names[i] for i in range(n)], [EVEN] * n)
    ctx = FormContext(body)
    vol_key = tuple(range(n, 2 * n))

    def image(key, val):
        xs = tuple(i for i in key if i < n)
        xis = tuple(i - n for i in key if i >= n)
        base = SuperPolynomial(ctx.space, {xs + vol_key: val})
        for i in reversed(xis):
            base = ctx.contract(VectorField.coordinate(body, i), base)
        return base
    return ctx, SuperPolynomial.sum(
        ctx.space, (image(key, val) for key, val in g.terms.items()))


def coordinate_lagrangian(symp, k):
    """The Lagrangian of canonical U_{n|n} spanned by x_1..x_k and
    xi_{k+1}..xi_n, as unit vectors."""
    n = len(symp.space) // 2
    return LagrangianSubspace(symp.form, [
        [int(i == j) for j in range(2 * n)] for i in list(range(k)) + list(range(n + k, 2 * n))])


def contraction_matrix_oracle(symp):
    """(FormContext, omega, Phi) of a symplectic space by the form route.

    omega = Upsilon^{-1}(b) is the constant 2-form on the 2N variables
    {y, dy}, and Phi is read from the contractions i_{d/dy_u}(omega) =
    sum_v Phi[v][u] dy_v, not from the sign rule the library uses.
    """
    ctx, space = FormContext(symp.space), symp.space
    omega = upsilon_inverse(ctx, symp.form)
    n = len(space)
    phi = [[Fraction(0)] * n for _ in range(n)]
    for u in range(n):
        lam = ctx.contract(VectorField.coordinate(space, u), omega)
        for v, c in enumerate(ctx.one_form_coefficients(lam)):
            phi[v][u] = c.terms.get((), Fraction(0))
    return ctx, omega, phi


def hamiltonian_field_form_oracle(symp, a):
    """Phi^{-1}(da), with da = FormContext.d(a) read off by one_form_coefficients
    and Phi from ``contraction_matrix_oracle``."""
    ctx, _, phi = contraction_matrix_oracle(symp)
    coeffs = ctx.one_form_coefficients(ctx.d(ctx.inject(a)))
    return VectorField(symp.space, [SuperPolynomial.sum(symp.space, (
        coeffs[v] * c for v, c in enumerate(row) if c))
        for row in linalg.inverse(phi)])


def odd_laplacian_form_oracle(symp, a):
    """Delta(a) = 1/2 nabla(Phi^{-1} da) through the form algebra."""
    if symp.parity != ODD:
        raise ValueError("the odd Laplacian needs an odd symplectic form")
    return divergence(hamiltonian_field_form_oracle(symp, a)) / 2


def double_factorial(n: int) -> int:
    """n (n - 2) (n - 4) ... down to 1 or 2; 1 for n <= 1.  (2k - 1)!! is the
    number of chord diagrams on 2k points and the unit Gaussian moment of x^2k."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def pi2_of_form(b):
    """The quadratic Hamiltonian pi_2(<-,->); inverse of i2 on (super)symmetric forms."""
    space = b.space
    return SuperPolynomial.sum(space, (
        SuperPolynomial.monomial(space, (i, j), c / 2)
        for i, row in enumerate(b.rows) for j, c in enumerate(row) if c))


def right_deriv(f, var):
    """Right-acting partial derivative (odd integration convention): for an odd
    var, the grading involution of the left one, (-1)^{|m| - 1} on a monomial m."""
    d = f.deriv_left(var)
    return d.grading_involution() if f.space.parities[var] else d


def berezin_integrate(f, odd_vars):
    """Iterated odd integral; the listed operators act right to left."""
    for var in reversed(list(odd_vars)):
        f = right_deriv(f, var)
    return f


class SplitWeight:
    """Weight in split-diagonal shape: diagonal even block, odd standard pairs."""

    def __init__(self, weight):
        self.weight = weight
        space = weight.space
        rows = weight.form.rows
        n = len(space)
        evens = [i for i in range(n) if space.parities[i] == EVEN]
        odds = [i for i in range(n) if space.parities[i] == ODD]
        for i in evens:
            for j in evens:
                if i != j and rows[i][j] != 0:
                    raise ValueError("even block is not diagonal")
            if rows[i][i] == 0:
                raise ValueError("degenerate even entry")
        pairs = []
        used = set()
        for a in odds:
            if a in used:
                continue
            partners = [b for b in odds if b not in used and b != a and rows[a][b] != 0]
            if len(partners) != 1:
                raise ValueError("odd block is not in standard pairs")
            b = partners[0]
            used.update((a, b))
            pairs.append((a, b) if a < b else (b, a))
        self.evens = evens
        self.pairs = pairs
        self.block_of = {}
        for r, i in enumerate(evens):
            self.block_of[i] = ("even", r)
        for r, (a, b) in enumerate(pairs):
            self.block_of[a] = ("odd", r)
            self.block_of[b] = ("odd", r)
        self.pair_vevs = [self._pair_vev_table(rows[a][b]) for (a, b) in pairs]

    def _pair_vev_table(self, c):
        """Literal iterated-integral vevs on one odd pair with sigma = c xi xi'."""
        sp = SuperSpace(("u", "v"), (ODD, ODD))
        u = SuperPolynomial.variable(sp, 0)
        v = SuperPolynomial.variable(sp, 1)
        expw = SuperPolynomial.scalar(sp, 1) - c * (u * v)  # e^{-c u v}
        denom = berezin_integrate(expw, (0, 1)).terms.get((), Fraction(0))
        if denom == 0:
            raise ValueError("degenerate odd pair")
        table = {}
        for mono in ((), (0,), (1,), (0, 1)):
            num = berezin_integrate(SuperPolynomial.monomial(sp, mono, 1) * expw, (0, 1))
            table[mono] = num.terms.get((), Fraction(0)) / denom
        return table

    def monomial_vev(self, key):
        space = self.weight.space
        pars = [space.parities[i] for i in key]
        # stable-group the factors block by block, tracking the Koszul sign
        tagged = sorted(range(len(key)),
                        key=lambda p: (self.block_of[key[p]], key[p]))
        sign = koszul_sign(tagged, pars)
        value = Fraction(sign)
        groups = {}
        for p in tagged:
            groups.setdefault(self.block_of[key[p]], []).append(key[p])
        for (kind, r), vars_ in groups.items():
            if kind == "even":
                i = self.evens[r]
                deg = len(vars_)
                if deg % 2:
                    return Fraction(0)
                eps = self.weight.form.rows[i][i]
                value *= Fraction(double_factorial(deg - 1)) / (eps ** (deg // 2))
            else:
                a, b = self.pairs[r]
                mono = tuple(0 if v == a else 1 for v in vars_)
                if len(set(vars_)) != len(vars_):
                    return Fraction(0)
                value *= self.pair_vevs[r][tuple(sorted(mono))]
            if value == 0:
                return value
        return value

    def expectation(self, f):
        total = Fraction(0)
        for key, val in f.terms.items():
            total += val * self.monomial_vev(key)
        return total


def berezin_oracle(f, weight):
    """Moment/Berezin value of <f>_0; requires a split-diagonal weight."""
    return SplitWeight(weight).expectation(f)


def identity(n):
    """The n x n identity matrix, as dense rows of Fractions."""
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def dense_rref_oracle(a):
    """(reduced row echelon form as dense rows, pivot column list) of a dense
    matrix, by column-by-column elimination with row swaps."""
    r = [[Fraction(x) for x in row] for row in a]
    m = len(r)
    n = len(r[0]) if m else 0
    pivots = []
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if r[i][col] != 0), None)
        if piv is None:
            continue
        r[row], r[piv] = r[piv], r[row]
        inv = 1 / r[row][col]
        r[row] = [x * inv for x in r[row]]
        for i in range(m):
            f = r[i][col]
            if i != row and f != 0:
                r[i] = [x - f * y for x, y in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return r, pivots
