"""The dual construction: Psi, sigma-tilde, S (BV side), F (Feynman side), I.

Psi lifts a Hamiltonian (``TensorModel.psi``) or a vector field
(``psi_field``) on V to A (x) V through the products of A.

S reads a ``GaugeModel``: the tensor model A (x) V, Psi restricted to L (x) V
and the restricted weight.  F reads a ``frobenius.Gauge`` alone: the vertex
tensors mu_k on L and the propagator, the inverse restricted d-form.  The two
routes share no object, and the commuting-diagram check S = F o I is the
keystone that pins every remaining sign convention end to end.

The kernel ``feynman_value`` reads canonical graphs, whose chords run from an
earlier vertex to a later one: it looks each vertex's entries of mu_k up by
the partners, under the propagator, of the indices already assigned to the
earlier ends of the chords that close there.  The suites read F through the
gauge's bounded ``amplitudes``, so it is computed once per (gauge, graph).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import prod
from operator import add

from . import linalg
from .graded import (EVEN, SuperSpace, integer_matrix, integer_terms, memoised,
                     monomial_parity, sort_indices_with_sign, sparse_sum, tensor_space)
from .superpoly import SuperPolynomial, VectorField, divergence, merged_products
from .symplectic import BilinearForm, SymplecticSpace, i2_of_quadratic
from .frobenius import FrobeniusAlgebra, Gauge, VertexTensors
from .wick import MatchingSupport, QuadraticWeight, live_chords
from .graphs import (CanonicalGraph, GraphChain, boundary, boundary_of_graph,
                     canonicalize_directed, cycle_space, enumerate_graphs)
from .ce import CEChain, ce_differential, osp_action


# ---------------------------------------------------------------------------
# The tensor model A (x) V and its odd symplectic structure

# Bounds each model's memo of Psi of a monomial of V, full or restricted (and
# the gauge model's tallied factors), each cleared when full; a commute
# benchmark pass misses it 33 times.
_PSI_SIZE = 1 << 12


class TensorModel:
    """A (x) V with its odd symplectic form and the quadratic Hamiltonian of d.
    ``mu(k)`` reads one ``VertexTensors`` table on the basis of A: Psi takes
    the integer form of mu_k of every valence from it, mu_2 (the pairing)
    included."""

    def __init__(self, alg: FrobeniusAlgebra, v: SymplecticSpace):
        if v.parity != EVEN:
            raise ValueError("V must carry an even symplectic form")
        self.alg = alg
        self.v = v
        form = alg.pairing.tensor_with(v.form)
        self.space = form.space
        self.nv = len(v.space)
        self.symp = SymplecticSpace(form)
        self.vertex_tensors = VertexTensors(alg, linalg.identity(len(alg.space)))
        self.mu = self.vertex_tensors.mu
        self._psi_cache = {}
        self.sigma = self.symp.hamiltonian_of(self._dtilde_field())
        self.dform = i2_of_quadratic(self.sigma)

    def _dtilde_field(self) -> VectorField:
        """(d (x) 1)^vee: z_{(alpha,i)} -> sum_beta d[alpha][beta] z_{(beta,i)}."""
        imgs = [SuperPolynomial(self.space, {(tensor_index(self.nv, beta, i),): c
                                             for beta, c in enumerate(row)})
                for row in self.alg.diff for i in range(self.nv)]
        return VectorField(self.space, imgs)

    def dform_entrywise(self) -> BilinearForm:
        """The printed tensored form: (-1)^{|w1||a2|} <a1,a2>_d <w1,w2>_W."""
        return self.alg.d_form.tensor_with(self.v.form)

    # -- Psi on Hamiltonians -------------------------------------------------
    def psi(self, h: SuperPolynomial) -> SuperPolynomial:
        """Lift a Hamiltonian on V to A (x) V through the vertex tensors.

        On a degree-k monomial u_1..u_k the image is
        sum mu_k[alpha] * shuffle_sign * prod_r z_{(alpha_r, u_r)},
        the shuffle sign moving each u_r left past the a*'s after it.
        """
        if h.space != self.v.space:
            raise ValueError("Hamiltonian must live on V")
        if not h.is_zero() and h.min_degree() < 2:
            raise ValueError("Psi needs polynomial order >= 2")
        return SuperPolynomial.sum(self.space, (
            coeff * self._psi_monomial(key) for key, coeff in h.terms.items()))

    def _psi_monomial(self, key) -> SuperPolynomial:
        """Psi of one monomial of V, once per key while the bounded memo holds
        it: one ``sparse_sum`` over the entries of mu_k, for k = 2 the
        pairing's <a_i, a_j> in row-major order.  It reads the table's
        integer entries and their scale D (``VertexTensors.integer_mu``), and
        divides each output coefficient once by D."""
        def compute():
            d, mu = self.vertex_tensors.integer_mu(len(key))
            lifted = lift_entries(self.space, self.alg.space.parities,
                                  self.v.space.parities, key, mu)
            return SuperPolynomial(self.space, sparse_sum(
                ((zkey, sign * mval) for zkey, sign, mval in lifted), d))
        return memoised(self._psi_cache, _PSI_SIZE, key, compute)


def tensor_index(nv: int, alpha: int, i: int) -> int:
    """Index of a* (x) w* in A (x) V (``graded.tensor_space``'s order)."""
    return alpha * nv + i


def lift_entries(space: SuperSpace, apar, vpar, key, entries):
    """(sorted key, sign, x) for each (alphas, x) of entries whose lift
    prod_r z_(alpha_r, u_r) of the monomial key of V to space = A (x) V is no
    odd square: the sort's Koszul sign times ``shuffle_sign``.  Psi of
    Hamiltonians and of fields both lift through it."""
    kpar = [vpar[u] for u in key]
    for alphas, x in entries:
        zkey, sign = sort_indices_with_sign(
            space, tuple(tensor_index(len(vpar), a, u) for a, u in zip(alphas, key)))
        if zkey is not None:
            yield zkey, sign * shuffle_sign(kpar, [apar[a] for a in alphas]), x


def shuffle_sign(vpar, apar) -> int:
    """Sign of moving each odd V factor left past the a*'s after it."""
    odd = sum(apar[s] for r, p in enumerate(vpar) if p for s in range(r + 1, len(apar)))
    return -1 if odd % 2 else 1


def psi_field(alg: FrobeniusAlgebra, eta: VectorField) -> VectorField:
    """Psi of a formal vector field eta on V, a field on A (x) V; it needs no
    symplectic data.  A term c y_key of eta(y_w), key = (u_1, ..., u_n), adds
    c * shuffle_sign * (a_alpha_1 ... a_alpha_n)_beta * prod_r z_(alpha_r, u_r)
    to the image of z_(beta, w), for each product of level n of the walk
    (``VertexTensors.products``, so n >= 1), times the parity twist
    (-1)^{|t|(|a_beta| + 1)}, |t| = |key| + p_w: with it X_Psi(h) = Psi(X_h)
    for a Hamiltonian h, and nabla Psi(eta) = 0 for eta of either parity."""
    vspace = eta.space
    space = tensor_space(alg.space, vspace)
    apar, vpar = alg.space.parities, vspace.parities
    table = VertexTensors(alg, linalg.identity(len(alg.space)))

    def terms():
        for w, img in enumerate(eta.images):
            for key, val in img.terms.items():
                coeff = Fraction(val, table.product_scale(len(key)))
                odd = (monomial_parity(vspace, key) + vpar[w]) % 2
                for zkey, sign, prod_vec in lift_entries(space, apar, vpar, key,
                                                         table.products(len(key))):
                    for beta, c in prod_vec.items():
                        twist = -1 if odd and not apar[beta] else 1
                        yield (tensor_index(len(vpar), beta, w), zkey), coeff * (twist * sign * c)
    images = [{} for _ in space.names]
    for (z, zkey), c in sparse_sum(terms()).items():
        images[z][zkey] = c
    return VectorField(space, [SuperPolynomial(space, t) for t in images])


# ---------------------------------------------------------------------------
# Restriction to a gauge and the BV functional

class GaugeModel:
    """The integration locus L (x) V inside A (x) V, with the restricted weight:
    what S reads.  The gauge is kept for its label; F reads the gauge itself."""

    def __init__(self, model: TensorModel, gauge: Gauge):
        if gauge.alg is not model.alg:
            raise ValueError("gauge belongs to a different algebra")
        self.model = model
        self.gauge = gauge
        self.space = tensor_space(gauge.subspace(), model.v.space)
        # restriction sends z_{(alpha,i)} to sum_s L_s[alpha] l_{(s,i)}
        nv = model.nv
        self.images = [SuperPolynomial(self.space, {(tensor_index(nv, s, i),): lvec[alpha]
                                                    for s, lvec in enumerate(gauge.vectors)
                                                    if lvec[alpha]})
                       for alpha in range(len(model.alg.space)) for i in range(nv)]
        self.weight = QuadraticWeight.from_sigma(self.restrict(model.sigma))
        self._psi = {}
        self._tallied = {}

    def restrict(self, f: SuperPolynomial) -> SuperPolynomial:
        return f.substitute(self.images, self.space)

    def psi_monomial(self, key) -> SuperPolynomial:
        """Psi of one monomial of V restricted to L (x) V, once per key.

        It restricts the full-space ``TensorModel._psi_monomial``; a gauge
        model holds no vertex tensor, so S and F share no vertex data.
        """
        return memoised(self._psi, _PSI_SIZE, key,
                        lambda: self.restrict(self.model._psi_monomial(key)))

    def matchable_word(self, word) -> SuperPolynomial:
        """The terms of deficiency 0 under the inverse weight
        (``wick.MatchingSupport``) of (-1)^{p(h)} Psi(h_1) ... Psi(h_l)
        restricted to L (x) V: the only terms with a nonzero expectation.

        Restricted Psi(h_r) is homogeneous of degree |h_r|, so after r
        factors a partial product gains R_r = |h_{r+1}| + ... + |h_l| more
        variables, and its monomials of deficiency > R_r are dropped; at the
        last factor R = 0.  That is exact: every term tuple that reaches a
        final monomial of deficiency 0 passes every cut.  Terms are grouped
        by their tally, which is additive, so one test decides a pair of
        groups, and the pairs it drops never build a key.  As in
        ``SuperPolynomial.__mul__``, each factor is scaled to ints by the
        lcm D_r of its denominators, and each output coefficient is divided
        once by the product of the D_r.
        """
        support = self.weight.support
        more = sum(map(len, word))
        scale = 1
        terms = [((), wedge_sign(self.model.v.space, word))]
        for key in word:
            more -= len(key)
            d, factor = self._tallied_factor(key)
            scale *= d
            kept = []
            for t1, left in support.group(terms).items():
                right = [term for t2, group in factor
                         if support.completable(tuple(map(add, t1, t2)), more) for term in group]
                kept.append(merged_products(self.space, left, right))
            terms = list(sparse_sum(chain.from_iterable(kept), None).items())
            if not terms:
                break
        return SuperPolynomial(self.space, sparse_sum(terms, scale))

    def _tallied_factor(self, key) -> tuple:
        """(D, [(tally, terms)]): restricted Psi of key over ints
        (``integer_terms``), its terms grouped by tally, once per key."""
        def compute():
            d, terms = integer_terms(self.psi_monomial(key).terms)
            return d, list(self.weight.support.group(terms).items())
        return memoised(self._tallied, _PSI_SIZE, key, compute)


def wedge_sign(vspace: SuperSpace, word) -> int:
    """(-1)^{p(h)} of a word of monomial keys on V, from commuting one odd Psi
    past each following factor."""
    l = len(word)
    total = sum((l - 1 - r) * monomial_parity(vspace, key)
                for r, key in enumerate(word))
    return -1 if total % 2 else 1


def psi_of_word(model: TensorModel, word) -> SuperPolynomial:
    """(-1)^{p(h)} Psi(h_1) ... Psi(h_l) for a word of monomial keys; it
    stops at the first zero product."""
    out = SuperPolynomial.scalar(model.space, wedge_sign(model.v.space, word))
    for key in word:
        out = out * model._psi_monomial(key)
        if out.is_zero():
            break
    return out


def s_functional(model: TensorModel, gm: GaugeModel, chain: CEChain) -> Fraction:
    """S = sum over the words of the chain of coeff * (-1)^{p(h)}
    < Psi(h_1) ... Psi(h_l) |_{L (x) V} >_0, the Gaussian expectation over
    L (x) V with the restricted sigma weight.

    It restricts each Psi(h_r) to L (x) V before it multiplies, so the
    product is taken on half the variables.  That is exact: restriction
    pulls back along the inclusion L (x) V -> A (x) V, a map of graded
    commutative algebras, so the restriction of the product is the product
    of the restricted factors.  The products that no perfect matching
    within the inverse weight's support can complete add 0, and are never
    formed (``GaugeModel.matchable_word``).  The cut reads only the weight,
    so S stays independent of F.
    """
    if chain.symp is not model.v and chain.symp.space != model.v.space:
        raise ValueError("chain over the wrong symplectic space")
    if gm.model is not model:
        raise ValueError("gauge model belongs to a different tensor model")
    total = Fraction(0)
    for word, coeff in chain.terms.items():
        total += coeff * gm.weight.expectation(gm.matchable_word(word))
    return total


# ---------------------------------------------------------------------------
# Feynman amplitudes

def graph_from_chord(vertex_sizes, chord):
    """Gamma(c; k_1..k_l): consecutive half-edge blocks, chord pairs as edges."""
    vertex_of = []
    for vtx, size in enumerate(vertex_sizes):
        vertex_of.extend([vtx] * size)
    edges = tuple((vertex_of[i], vertex_of[j]) for i, j in chord)
    return len(vertex_sizes), edges


def chord_presentation(graph: CanonicalGraph):
    """Slots and chord diagram presenting a canonical graph as Gamma(c; k)."""
    sizes = list(graph.valences())
    offsets = [0]
    for s in sizes[:-1]:
        offsets.append(offsets[-1] + s)
    cursor = list(offsets)
    chord = []
    for a, b in graph.edges:
        i = cursor[a]
        cursor[a] += 1
        j = cursor[b]
        cursor[b] += 1
        chord.append((i, j))
    return sizes, tuple(chord)


def feynman_value(gauge: Gauge, graph: CanonicalGraph) -> Fraction:
    """F(Gamma) = beta_c over L* of mu_{k_1} (x) .. (x) mu_{k_l}, with the
    inverse restricted d-form as propagator.  It reads only
    ``gauge.integer_mu(k)``, ``gauge.integer_propagator``, the propagator's
    ``gauge.partners`` and ``gauge.parities``.

    That is the sum, over one entry of each mu_{k_v} (the vertices' half-edge
    blocks in order), of the entries times prod_{(i, j) in c} prop[a_i][a_j]
    times the chord sign of the assigned gauge indices a.  The recursion
    assigns one block at a time.  A canonical graph's edges run small to
    large, so each chord (i, j) closes in the later block, that of j, and
    prop[a_i][x] != 0 only for x a partner of a_i (its row support).  So
    each block's entries are indexed once per call by their indices at the
    later ends of its closing chords (the keys), and a node runs over the
    product of the partner lists of the assigned earlier ends, multiplies
    those propagator entries once per key and looks the key up: the entries
    it never visits are exactly those whose product is 0.  Nothing is
    memoised here; the suites read F through ``gauge.amplitudes``.

    The chord sign is the Koszul sign of reordering the slots into
    (i1, j1, i2, j2, ...): -1 for each inverted pair of slots x > y, x
    before y in that order, whose assigned indices are both odd.  The
    inverted pairs depend on the graph alone, so they are listed once, and
    each is charged at the block where its later slot x is assigned, when y
    is assigned already.  A leaf then only adds its signed product.

    It runs over integers: the table's integer entries of each mu_k at its
    scale S_k (``frobenius.VertexTensors.integer_mu``), and the propagator
    times D_p.  Every leaf multiplies one entry of mu_{k_v} for each vertex
    v and |E| propagator entries, so F = total / (prod_v S_{k_v} * D_p^|E|).
    """
    sizes, chord = chord_presentation(graph)
    scaled = {k: gauge.integer_mu(k) for k in set(sizes)}
    d_p, prop = gauge.integer_propagator
    lpar = gauge.parities
    partners = gauge.partners
    vertex_of = [vtx for vtx, k in enumerate(sizes) for _ in range(k)]
    offsets = [vertex_of.index(vtx) for vtx in range(len(sizes))]
    earlier = [[] for _ in sizes]  # the earlier slot of each chord closing here
    keys = [[] for _ in sizes]     # its later slot, counted in the block
    for i, j in chord:
        vtx = vertex_of[j]
        earlier[vtx].append(i)
        keys[vtx].append(j - offsets[vtx])
    tables = []  # each block's entries by their indices at the keys
    for k, ks in zip(sizes, keys):
        table = {}
        for idx, mval in scaled[k][1]:
            table.setdefault(tuple([idx[s] for s in ks]), []).append((idx, mval))
        tables.append(table)
    order = [s for pair in chord for s in pair]
    crossings = [[] for _ in sizes]
    for a, x in enumerate(order):
        for y in order[a + 1:]:
            if x > y:
                crossings[vertex_of[x]].append((x, y))
    total = 0 if sizes else 1  # the empty graph is the empty product

    def rec(vtx, assignment, coeff):
        nonlocal total
        table, ends, crossed = tables[vtx], earlier[vtx], crossings[vtx]
        leaf = vtx + 1 == len(sizes)
        for key in product(*[partners[assignment[s]] for s in ends]):
            entries = table.get(key)
            if entries is None:
                continue
            key_coeff = coeff
            for s, x in zip(ends, key):
                key_coeff *= prop[assignment[s]][x]
            for idx, mval in entries:
                assigned = assignment + idx
                val = key_coeff * mval
                for x, y in crossed:
                    if lpar[assigned[x]] and lpar[assigned[y]]:
                        val = -val
                if leaf:
                    total += val
                else:
                    rec(vtx + 1, assigned, val)

    if sizes:
        rec(0, (), 1)
    return Fraction(total, prod(scaled[k][0] for k in sizes) * d_p ** len(chord))


# Bounds each gauge's ``amplitudes``, which is cleared when full; a feynman
# benchmark pass reads 18 (gauge, graph) pairs.
_AMPLITUDES_SIZE = 1 << 12


def _amplitude(gauge: Gauge, graph: CanonicalGraph) -> Fraction:
    """F(graph) through the gauge's ``amplitudes``: ``feynman_value`` runs
    once per (gauge, graph) while the memo holds it; a gauge's propagator is
    fixed when it is built, so no amplitude outlives it."""
    return memoised(gauge.amplitudes, _AMPLITUDES_SIZE, graph,
                    lambda: feynman_value(gauge, graph))


def feynman_cochain(gauge: Gauge, v: int, e: int) -> dict:
    return {g: _amplitude(gauge, g) for g in enumerate_graphs(v, e)}


def feynman_on_chain(gauge: Gauge, chain: GraphChain) -> Fraction:
    total = Fraction(0)
    for g, c in chain.terms.items():
        total += c * _amplitude(gauge, g)
    return total


# ---------------------------------------------------------------------------
# The chord-diagram map I

def wick_map(chain: CEChain) -> GraphChain:
    """I: wedge words of monomials to signed sums of graphs, one per diagram.

    A word h_1 ^ ... ^ h_l with coefficient a goes to the sum over the chord
    diagrams c on its factors of a * beta_c * Gamma(c; |h_1|, ..., |h_l|),
    beta_c contracting the factors with the inverse symplectic form.

    Only the diagrams with beta_c != 0 are visited (``wick.live_chords``):
    the walk pairs a factor only with a partner of nonzero inverse-form entry,
    and skips a word of nonzero deficiency (``wick.MatchingSupport``, built
    once per chain).  The others add 0, so the image is the same, and the
    live diagrams come in the order of ``chord_diagrams``, so even its key
    order is unchanged.

    The walk runs over integers: the inverse form is scaled once per chain
    by the lcm d of its denominators (``integer_matrix``), so each live
    diagram yields beta_c * d^|c|, and it is divided once by d^|c|, |c| the
    number of its chords.
    """
    symp = chain.symp
    d, inv = integer_matrix(symp.inverse.rows)
    support = MatchingSupport(inv)

    def terms():
        for word, coeff in chain.terms.items():
            factors = [i for key in word for i in key]
            sizes = [len(key) for key in word]
            pars = [symp.space.parities[i] for i in factors]
            scale = d ** (len(factors) // 2)
            for chord, val in live_chords(pars, factors, support):
                nv, edges = graph_from_chord(sizes, chord)
                rep, sign = canonicalize_directed(nv, edges)
                if sign:
                    yield rep, coeff * Fraction(sign * val, scale)
    return GraphChain(terms())


# ---------------------------------------------------------------------------
# Verification suites (each returns a report dict)

def _report(check, status, witnesses=None, **inputs):
    return {"check": check, "inputs": inputs,
            "status": "pass" if status else "fail",
            "witnesses": witnesses or []}


def verify_vanishing_divergence(alg: FrobeniusAlgebra, eta: VectorField) -> dict:
    div = divergence(psi_field(alg, eta))
    ok = div.is_zero()
    wit = [] if ok else [{"divergence": div.render()}]
    return _report("vanishing_divergence", ok, wit, algebra=alg.name)


def verify_master_equations(model: TensorModel) -> dict:
    lap = model.symp.odd_laplacian(model.sigma)
    br = model.symp.antibracket(model.sigma, model.sigma)
    match = model.dform.rows == model.dform_entrywise().rows
    ok = lap.is_zero() and br.is_zero() and match
    wit = []
    if not lap.is_zero():
        wit.append({"quantum_master": lap.render()})
    if not br.is_zero():
        wit.append({"classical_master": br.render()})
    if not match:
        wit.append({"dform": "i2(sigma) differs from the printed tensored form"})
    return _report("master_equations", ok, wit, algebra=model.alg.name)


def verify_commute(model: TensorModel, gm: GaugeModel, chain: CEChain) -> dict:
    lhs = s_functional(model, gm, chain)
    rhs = feynman_on_chain(gm.gauge, wick_map(chain))
    ok = lhs == rhs
    wit = [] if ok else [{"S": str(lhs), "F_I": str(rhs),
                          "chain": chain.to_json()}]
    return _report("commute", ok, wit, algebra=model.alg.name,
                   gauge=gm.gauge.label)


def verify_cocycle_graphs(model: TensorModel, gm: GaugeModel, v: int,
                          e: int) -> dict:
    wit = []
    for g in enumerate_graphs(v, e):
        val = feynman_on_chain(gm.gauge, boundary_of_graph(g))
        if val != 0:
            wit.append({"graph": g.graph_id(), "F_boundary": str(val)})
    return _report("cocycle_graphs", not wit, wit, bidegree=[v, e],
                   algebra=model.alg.name, gauge=gm.gauge.label)


def verify_cocycle_chains(model: TensorModel, gm: GaugeModel, chains) -> dict:
    chains = list(chains)
    wit = []
    for chain in chains:
        val = s_functional(model, gm, ce_differential(chain))
        if val != 0:
            wit.append({"chain": chain.to_json(), "S_delta": str(val)})
    return _report("cocycle_chains", not wit, wit, samples=len(chains),
                   algebra=model.alg.name, gauge=gm.gauge.label)


def verify_gauge_independence(model: TensorModel, g0: Gauge, g1: Gauge,
                              v: int, e: int) -> dict:
    if g0.alg is not model.alg or g1.alg is not model.alg:
        raise ValueError("gauge belongs to a different algebra")
    _, cycles = cycle_space(v, e)
    wit = []
    for z in cycles:
        v0 = feynman_on_chain(g0, z)
        v1 = feynman_on_chain(g1, z)
        if v0 != v1:
            wit.append({"cycle": z.to_json(), "F_L0": str(v0), "F_L1": str(v1)})
    return _report("gauge_independence", not wit, wit, bidegree=[v, e],
                   n_cycles=len(cycles), gauges=[g0.label, g1.label])


def verify_kontsevich_chain_map(chain: CEChain) -> dict:
    lhs = wick_map(ce_differential(chain))
    rhs = boundary(wick_map(chain))
    diff = lhs + rhs.scale(-1)
    ok = diff.is_zero()
    wit = [] if ok else [{"I_delta_minus_boundary_I": diff.to_json(),
                          "chain": chain.to_json()}]
    return _report("kontsevich_chain_map", ok, wit)


def verify_osp_invariance(model: TensorModel, gm: GaugeModel,
                          eta: SuperPolynomial, chain: CEChain) -> dict:
    val = s_functional(model, gm, osp_action(eta, chain))
    ok = val == 0
    wit = [] if ok else [{"S_of_action": str(val), "eta": eta.render()}]
    return _report("osp_invariance", ok, wit, algebra=model.alg.name,
                   gauge=gm.gauge.label)
