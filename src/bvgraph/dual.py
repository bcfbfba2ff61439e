"""The dual construction: Psi, sigma-tilde, S (BV side), F (Feynman side), I.

Psi lifts a monomial of V (``TensorModel._psi_monomial``, and so a
Hamiltonian, term by term) or a vector field (``psi_field``) on V to
A (x) V through the products of A.

S reads a ``GaugeModel``: the tensor model A (x) V, Psi restricted to L (x) V
and the restricted weight.  Restriction is a map of graded algebras and the
gauge vectors L_s are homogeneous with scalar entries.  So the weight, the
restriction of the quadratic sigma-tilde, is one Gram matrix: the congruence
C^T B C of B = i_2(sigma-tilde) by the inclusion C: L (x) V -> A (x) V.  And
restricted Psi of a monomial is the lift of mu_k(L_{s_1}, ..., L_{s_k}), with
the shuffle sign read off the gauge parities; the gauge model contracts the
algebra's mu_k on the basis of A with the gauge basis once per valence, one
entry per multiset of gauge indices since mu_k is graded-symmetric, and
never forms Psi on all of A (x) V.  A word's product is formed as two halves,
joined by one lookup per tally group (``GaugeModel.matchable_word``).  F
reads a ``frobenius.Gauge`` alone: the gauge's own vertex tensors mu_k on L
and the propagator, the inverse restricted d-form.  The two routes share no
object, and the commuting-diagram check S = F o I is the keystone that pins
every remaining sign convention end to end.

The kernel ``feynman_value`` reads canonical graphs, whose chords run from an
earlier vertex to a later one: it looks each vertex's entries of mu_k up by
the partners, under the propagator, of the indices already assigned to the
earlier ends of the chords that close there.  The suites read F through the
gauge's bounded ``amplitudes``, so it is computed once per (gauge, graph).

I (``wick_map``) sends a CE word to the sum of beta_c Gamma(c) over its chord
diagrams, one class of diagrams with the same chord counts between the
variables of its vertices at a time (``wick.chord_classes``).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, groupby, product
from math import factorial, gcd, prod
from operator import add

from .graded import (EVEN, SuperSpace, integer_matrix, memoised,
                     monomial_parity, sort_indices_with_sign, sparse_sum, tensor_space)
from .superpoly import SuperPolynomial, VectorField, divergence, merged_products
from .symplectic import BilinearForm, SymplecticSpace, i2_of_quadratic, restrict_polynomial
from .frobenius import FrobeniusAlgebra, Gauge
from .wick import MatchingSupport, QuadraticWeight, chord_classes
from .graphs import (CanonicalGraph, GraphChain, boundary, boundary_of_graph,
                     canonicalize_directed, cycle_space, enumerate_graphs)
from .ce import CEChain, ce_differential, osp_action


# ---------------------------------------------------------------------------
# The tensor model A (x) V and its odd symplectic structure

# Bounds a tensor model's memo of Psi of a monomial of V (read by
# ``psi_of_word``) and a gauge model's memo of restricted Psi, tallied
# (``GaugeModel._tallied_factor``), each cleared when full.
_PSI_SIZE = 1 << 12

# Bounds a gauge model's memo of mu_k on the gauge basis by valence k
# (``GaugeModel.restricted_mu``), cleared when full.
_RESTRICTED_MU_SIZE = 64


class TensorModel:
    """A (x) V with its odd symplectic form and the quadratic Hamiltonian of d.
    ``mu(k)`` reads the algebra's ``VertexTensors`` table on the basis of A
    (``FrobeniusAlgebra.vertex_tensors``): Psi takes the integer form of
    mu_k of every valence from it, mu_2 (the pairing) included."""

    def __init__(self, alg: FrobeniusAlgebra, v: SymplecticSpace):
        if v.parity != EVEN:
            raise ValueError("V must carry an even symplectic form")
        self.alg = alg
        self.v = v
        form = alg.pairing.tensor_with(v.form)
        self.space = form.space
        self.nv = len(v.space)
        self.symp = SymplecticSpace(form)
        self.vertex_tensors = alg.vertex_tensors
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

    # -- Psi on monomials ----------------------------------------------------
    def _psi_monomial(self, key) -> SuperPolynomial:
        """Psi of one monomial u_1..u_k of V, k >= 2, lifted to A (x) V
        through the vertex tensors: sum mu_k[alpha] * shuffle_sign *
        prod_r z_{(alpha_r, u_r)}, the shuffle sign moving each u_r left past
        the a*'s after it.  Once per key while the bounded memo holds it: one
        ``sparse_sum`` over the entries of mu_k, for k = 2 the pairing's
        <a_i, a_j> in row-major order.  It reads the table's
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
    of the algebra's table (``alg.vertex_tensors.products``, so n >= 1),
    times the parity twist (-1)^{|t|(|a_beta| + 1)}, |t| = |key| + p_w: with
    it X_Psi(h) = Psi(X_h) for a Hamiltonian h, and nabla Psi(eta) = 0 for
    eta of either parity."""
    vspace = eta.space
    space = tensor_space(alg.space, vspace)
    apar, vpar = alg.space.parities, vspace.parities
    table = alg.vertex_tensors

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
    """The integration locus L (x) V inside A (x) V, with the restricted weight
    and Psi restricted to it: what S reads.  The gauge is kept for its label;
    F reads the gauge itself.

    Restriction pulls back along the inclusion C: L (x) V -> A (x) V, a map
    of graded commutative algebras: z_{(alpha,i)} goes to sum_s L_s[alpha]
    l_{(s,i)}.  ``vectors`` holds the columns of C, l_{(s,i)} -> L_s (x) w_i
    in ``tensor_index`` order, and ``restrict`` pulls a polynomial back along
    them (``symplectic.restrict_polynomial``).  Each L_s is homogeneous with
    scalar entries, so its nonzero entries sit on a_alpha of its own parity.
    So the restricted sigma-tilde, a quadratic, has the Gram matrix C^T B C
    of B = ``model.dform`` = i_2(sigma-tilde) as its form, with no Koszul
    sign: that is the ``weight``, read off the tensor model's form, not off
    the gauge's restricted d-form, which F reads.  And Psi of a monomial
    restricts to the lift of mu_k(L_{s_1}, ..., L_{s_k}), with the shuffle
    sign read off the gauge parities.  Those entries are kept once per
    valence k (``restricted_mu``): they come from the algebra's table on the
    basis of A (``TensorModel.vertex_tensors``) and the gauge basis, and
    never from the gauge's own table, so S and F share no vertex data.

    A is graded commutative and its pairing invariant, so mu_k(x_1, ...,
    x_k) = <x_1 ... x_{k-1}, x_k> is graded-symmetric: swapping two
    neighbouring arguments x, y costs (-1)^{|x||y|}.  So the table keeps one
    entry per multiset of gauge indices."""

    def __init__(self, model: TensorModel, gauge: Gauge):
        if gauge.alg is not model.alg:
            raise ValueError("gauge belongs to a different algebra")
        self.model = model
        self.gauge = gauge
        self._lspace = gauge.subspace()
        self.space = tensor_space(self._lspace, model.v.space)
        # l_{(s,i)} -> L_s (x) w_i, dense on A (x) V, in tensor_index order
        nv = model.nv
        self.vectors = [[x if j == i else 0 for x in lvec for j in range(nv)]
                        for lvec in gauge.vectors for i in range(nv)]
        self.weight = QuadraticWeight(BilinearForm(
            self.space, model.dform.restrict(self.vectors), EVEN, "sym"))
        d_l, rows = integer_matrix(gauge.vectors)
        # the gauge basis over ints, by the index alpha of A: (D_L, [(s, D_L L_s[alpha])])
        self._columns = d_l, [[(s, row[alpha]) for s, row in enumerate(rows) if row[alpha]]
                              for alpha in range(len(model.alg.space))]
        self._mu_tables = {}
        self._tallied = {}

    def restrict(self, f: SuperPolynomial) -> SuperPolynomial:
        return restrict_polynomial(f, self.vectors, self.space)

    def restricted_mu(self, k: int) -> tuple:
        """(D_mu D_L^k, [(s, entry * that scale)]) for the nonzero
        mu_k(L_{s_1}, ..., L_{s_k}) with s_1 <= ... <= s_k, built once per
        valence k >= 2; by graded symmetry every other entry is one of these
        times a Koszul sign over the gauge parities.

        mu_k(L_s) = sum_alpha prod_r L_{s_r}[alpha_r] mu_k(a_alpha), and
        mu_k(a_alpha) is mu_k at the sorted alpha times the Koszul sign of
        the reordering.  So it reads the algebra's integer mu_k (scale D_mu,
        ``VertexTensors.integer_mu``) at sorted alpha alone, and contracts
        one slot at a time: a state (s, rest) sends each distinct index of
        the sorted rest to the slot, with the sign of moving it to the front
        of rest (``fronts``), which walks each ordering of alpha once, and
        appends only gauge indices >= the last of s, times D_L L_s[alpha].
        L_s[alpha] != 0 only where a_alpha has the parity of L_s, and the
        entries of L_s are even, so no other sign enters.  Equal states are
        collapsed as ints after each slot."""
        def compute():
            d_mu, entries = self.model.vertex_tensors.integer_mu(k)
            d_l, columns = self._columns
            apar = self.model.alg.space.parities
            states = [(((), idx), x) for idx, x in entries
                      if all(a <= b for a, b in zip(idx, idx[1:]))]
            for _ in range(k):
                states = sparse_sum((((s + (t,), rest[:j] + rest[j + 1:]), sign * x * c)
                                     for (s, rest), x in states
                                     for j, sign in fronts(apar, rest)
                                     for t, c in columns[rest[j]] if not s or t >= s[-1]),
                                    None).items()
            return d_mu * d_l ** k, [(s, x) for (s, _), x in states]
        return memoised(self._mu_tables, _RESTRICTED_MU_SIZE, k, compute)

    def matchable_word(self, word) -> SuperPolynomial:
        """The terms of deficiency 0 under the inverse weight
        (``wick.MatchingSupport``) of (-1)^{p(h)} Psi(h_1) ... Psi(h_l)
        restricted to L (x) V: the only terms with a nonzero expectation.

        It joins the product of the first floor(l/2) factors with that of
        the rest (``_half_product``).  The product is associative and each
        half's cut is exact, so every term of deficiency 0 is a product of a
        term of each half.  Tallies add, so a left term of tally t completes
        exactly with the right terms of tally -t on the bipartite components
        and t mod 2 on the others: one lookup by ``support.residue`` per
        left group, and every pair merged has deficiency 0.  Each half is
        over ints at the product of its factors' scales, and each output
        coefficient is divided once by both scales times the wedge sign.
        """
        support = self.weight.support
        half = len(word) // 2
        d_left, left = self._half_product(word[:half], sum(map(len, word[half:])))
        d_right, right = self._half_product(word[half:], sum(map(len, word[:half])))
        complements = {}
        for t, group in right:
            complements.setdefault(support.residue(t), []).extend(group)
        joined = chain.from_iterable(
            merged_products(self.space, group, complements.get(support.residue(t, -1), ()))
            for t, group in left)
        return SuperPolynomial(self.space, sparse_sum(
            joined, d_left * d_right * wedge_sign(self.model.v.space, word)))

    def _half_product(self, keys, more: int):
        """(D, [(tally, terms)]): the product of restricted Psi of the keys
        over ints at scale D, grouped by tally, with `more` variables of the
        other half still to come.  Restricted Psi(h_r) is homogeneous of
        degree |h_r|, so after each factor the partial product gains R more
        variables, and its monomials of deficiency > R are dropped.  That is
        exact: every term tuple that reaches deficiency 0 passes every cut.
        Tallies add, so one test decides a pair of groups.  One key is its
        own tallied factor, never multiplied by the unit."""
        support = self.weight.support
        if not keys:
            return 1, [(support.tally(()), [((), 1)])]
        scale, groups = self._tallied_factor(keys[0])
        more += sum(map(len, keys[1:]))
        for key in keys[1:]:
            more -= len(key)
            d, factor = self._tallied_factor(key)
            scale *= d
            kept = [merged_products(self.space, left, right)
                    for t1, left in groups for t2, right in factor
                    if support.completable(tuple(map(add, t1, t2)), more)]
            groups = support.group(sparse_sum(chain.from_iterable(kept), None).items()).items()
        return scale, groups

    def _tallied_factor(self, key) -> tuple:
        """(D, [(tally, terms)]): Psi of the monomial key of V restricted to
        L (x) V over ints, its terms grouped by tally, once per key.  It
        lifts the entries of ``restricted_mu(|key|)`` with the gauge
        parities: restriction is an algebra map, and L_s[alpha] != 0 only
        where a_alpha has the parity of L_s, so the Koszul and shuffle signs
        of the lift over A are those of the lift over L.

        Each multiset s is lifted once per placement on the key's runs of
        equal variables (``placements``), times the orderings of s in its
        orbit.  They lift to one monomial with one value: swapping the gauge
        indices a, b of two slots of a run of u changes mu_k by
        (-1)^{|a||b|}, the sort of the z's by (-1)^{(|a|+|u|)(|b|+|u|)} and
        the shuffle sign by (-1)^{|u|(|a|+|b|)}, in all (-1)^{|u|}, and u is
        even since an odd variable never repeats.  The lifted ints and their
        scale are divided by their gcd, which leaves D the lcm of the
        denominators of the restricted coefficients, as
        ``graded.integer_terms`` scales them."""
        def compute():
            scale, mu = self.restricted_mu(len(key))
            runs = [len(tuple(run)) for _, run in groupby(key)]
            placed = ((p, n * x) for s, x in mu for p, n in placements(self._lspace, s, runs))
            lifted = sparse_sum(((zkey, sign * x) for zkey, sign, x in lift_entries(
                self.space, self._lspace.parities, self.model.v.space.parities, key, placed)),
                None)
            g = gcd(scale, *lifted.values())
            return scale // g, list(self.weight.support.group(
                (zkey, n // g) for zkey, n in lifted.items()).items())
        return memoised(self._tallied, _PSI_SIZE, key, compute)


def fronts(pars, key):
    """(j, sign) for the first position j of each distinct index of the
    sorted key, with the Koszul sign over `pars` of moving key[j] first."""
    odd = 0
    for j, a in enumerate(key):
        if not j or a != key[j - 1]:
            yield j, -1 if odd and pars[a] else 1
        odd ^= pars[a]


def placements(space: SuperSpace, s, runs):
    """(p, n) for each way p to deal the sorted tuple s onto consecutive
    runs of these lengths, each run sorted: n is the number of orderings of
    s that sort run by run to p, the product of the runs' multinomials,
    times the Koszul sign over `space` of reordering s into p."""
    def deal(rest, runs):
        if not runs:
            yield (), 1
            return
        for head in dict.fromkeys(combinations(rest, runs[0])):
            left = list(rest)
            for x in head:
                left.remove(x)
            for tail, n in deal(tuple(left), runs[1:]):
                yield head + tail, n * multinomial(head)
    for p, n in deal(s, runs):
        yield p, sort_indices_with_sign(space, p)[1] * n


def multinomial(key) -> int:
    """The number of distinct orderings of the multiset key."""
    return factorial(len(key)) // prod(factorial(len(tuple(run))) for _, run in groupby(key))


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
    of the restricted factors.  Each restricted factor is lifted from mu_k
    on the gauge basis (``GaugeModel._tallied_factor``): the L_s are
    homogeneous with scalar entries, so the shuffle sign is read off the
    gauge parities.  The products that no perfect matching within the
    inverse weight's support can complete add 0, and are never formed
    (``GaugeModel.matchable_word``).  The cut reads only the weight, and
    the factors only the algebra's mu_k on the basis of A and the gauge
    basis, so S stays independent of F.
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
    inverse restricted d-form as propagator.  It reads only the gauge's
    vertex tensors (``gauge.vertex_tensors.integer_mu(k)``),
    ``gauge.integer_propagator``, the propagator's ``gauge.partners`` and
    ``gauge.parities``.

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
    scaled = {k: gauge.vertex_tensors.integer_mu(k) for k in set(sizes)}
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

    The diagrams are summed by class (``wick.chord_classes``): a class's
    diagrams share one graph and one beta_c, and only the classes with
    beta_c != 0 and no loop are formed.  A word's classes are summed per
    edge multiset, each multiset is canonicalised once, and each graph of
    the word gets one Fraction.  The graphs come in the order of their first
    live diagrams, as in the sum diagram by diagram, unless their terms
    cancel within a word.

    The sums run over integers: the inverse form is scaled once per chain by
    the lcm d of its denominators (``integer_matrix``), so a word of |c|
    chords sums beta_c * d^|c| and divides each graph's sum once by d^|c|.
    """
    symp = chain.symp
    d, inv = integer_matrix(symp.inverse.rows)
    support = MatchingSupport(inv)
    pars = symp.space.parities

    def graphs(word):
        classes = sparse_sum(((edges, size * beta) for edges, size, beta
                              in chord_classes(pars, word, support)), None)
        for edges, val in classes.items():
            rep, sign = canonicalize_directed(len(word), edges)
            if sign:
                yield rep, sign * val

    def terms():
        for word, coeff in chain.terms.items():
            scale = d ** (sum(map(len, word)) // 2)
            for rep, val in sparse_sum(graphs(word), None).items():
                yield rep, coeff * Fraction(val, scale)
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
    if gm.model is not model:
        raise ValueError("gauge model belongs to a different tensor model")
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
