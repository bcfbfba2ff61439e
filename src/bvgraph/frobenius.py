"""Differential graded commutative Frobenius algebras with odd pairing.

An algebra is given by sparse structure constants, a differential matrix and a
pairing matrix over a named basis.  Its product ``mul``, its differential and
its pairing (``BilinearForm.evaluate``) act on sparse coefficient dicts
{basis index: Fraction}, for the axioms.  A gauge is a Lagrangian of the
pairing that complements d(A).  Since d(A) is isotropic, the gauges of an
algebra form one affine family (``FrobeniusAlgebra.gauge_family``), and
``gauge_at`` builds the gauge at a point of it.  The dual construction reads
an algebra through its vertex tensors mu_k, which ``VertexTensors`` builds
from one walk of products over ints: the elements, their covectors and the
structure constants (``FrobeniusAlgebra.integer_mult``) are scaled to ints
once, and each entry of mu_k is divided once by the product of the scales.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, combinations_with_replacement, compress

from . import linalg
from .graded import (EVEN, ODD, SuperSpace, integer_matrix, integer_terms, koszul_sign,
                     memoised, sparse_sum, vector_parity)
from .symplectic import BilinearForm, LagrangianSubspace


class FrobeniusAlgebra:
    def __init__(self, space: SuperSpace, mult, diff, pairing, name=""):
        """mult: {(i,j): {k: coeff}}; diff: matrix d[k][j] with d(a_j) = sum_k d[k][j] a_k;
        pairing: matrix of <a_i, a_j>."""
        self.space = space
        self.name = name
        n = len(space)
        self.mult = {ij: {k: Fraction(c) for k, c in img.items() if c != 0}
                     for ij, img in mult.items()}
        self.diff = [[Fraction(diff[i][j]) for j in range(n)] for i in range(n)]
        self.pairing = BilinearForm(space, pairing, ODD, "sym", check=False)

    # -- element algebra ------------------------------------------------------
    def mul(self, u, v):
        return sparse_sum((k, a * b * c) for i, a in u.items() for j, b in v.items()
                          for k, c in self.mult.get((i, j), {}).items())

    def d_of(self, u):
        return sparse_sum((k, self.diff[k][j] * c) for j, c in u.items()
                          for k in range(len(self.space)) if self.diff[k][j])

    # -- structural data -----------------------------------------------------
    # An algebra is not changed after construction, so d(A) and <-,->_d are
    # built once, for every gauge of it.
    @cached_property
    def d_image(self) -> tuple:
        """A basis of d(A), each vector a tuple."""
        return tuple(map(tuple, linalg.column_space_basis(self.diff)))

    @cached_property
    def d_form(self) -> BilinearForm:
        """The degenerate form <-,->_d (``degenerate_form``)."""
        return degenerate_form(self)

    @cached_property
    def gauge_family(self) -> tuple:
        """(base, directions): the gauges are the bases base + sum_j c_j
        directions[j] (``gauge_at``).  A gauge is the graph of a map
        phi(c0_r) = sum_s t_rs d_s into d(A) that keeps parity, over the first
        standard basis vectors c0_r independent of d(A); as d(A) is
        isotropic, isotropy is linear in t.  base is the graph of
        ``linalg.solve``'s solution, directions[j] is phi at the j-th vector
        of ``linalg.nullspace``.  ValueError if the algebra is not
        contractible or the system has no solution."""
        if not check_contractible(self)[0]:
            raise ValueError("algebra is not contractible")
        img, basis = self.d_image, linalg.identity(len(self.space))
        _, pivots = linalg.rref(linalg.transpose([list(v) for v in img] + basis))
        c0 = [basis[p - len(img)] for p in pivots[len(img):]]
        params = [(r, s) for r, cv in enumerate(c0) for s, iv in enumerate(img)
                  if vector_parity(self.space, cv) == vector_parity(self.space, iv)]
        pair = self.pairing.evaluate
        # <c0_r + phi c0_r, c0_q + phi c0_q> = 0 for r <= q, row by row
        pairs = list(combinations_with_replacement(range(len(c0)), 2))
        rows = [[(pair(img[s], c0[q]) if p == r else 0) + (pair(c0[r], img[s]) if p == q else 0)
                 for p, s in params] for r, q in pairs]
        particular = linalg.solve(rows, [-pair(c0[r], c0[q]) for r, q in pairs])
        if particular is None:
            raise ValueError("no isotropic complement in this parametrization")

        def graph(t, start):  # start + phi(c0_r) for each r
            out = [list(v) for v in start]
            for (r, s), x in zip(params, t):
                if x:
                    out[r] = [a + x * b for a, b in zip(out[r], img[s])]
            return tuple(map(tuple, out))
        zero = [[Fraction(0)] * len(self.space)] * len(c0)
        return graph(particular, c0), tuple(graph(h, zero) for h in linalg.nullspace(rows))

    @cached_property
    def integer_mult(self) -> tuple:
        """(D_m, {(i, j): [(k, c * D_m), ...]}): the structure constants c as
        ints over the lcm D_m of their denominators (``integer_terms``)."""
        d_m, entries = integer_terms({(i, j, k): c for (i, j), img in self.mult.items()
                                      for k, c in img.items()})
        out = {}
        for (i, j, k), c in entries:
            out.setdefault((i, j), []).append((k, c))
        return d_m, out

    def kernel_of_d(self):
        return linalg.nullspace(self.diff)


def verify_axioms(alg: FrobeniusAlgebra) -> dict:
    """Exhaustive check of the DG Frobenius axioms over basis tuples.  Each
    product e_i e_j is formed once; a triple whose inner products are both 0
    has 0 on both sides of associativity and invariance."""
    failures = []
    sp = alg.space
    n = len(sp)
    p = sp.parities
    e = [{i: Fraction(1)} for i in range(n)]
    pair = alg.pairing.evaluate
    table = [[alg.mul(e[i], e[j]) for j in range(n)] for i in range(n)]

    for (i, j), img in alg.mult.items():
        for k, c in img.items():
            if c != 0 and p[k] != (p[i] + p[j]) % 2:
                failures.append(f"product a{i}*a{j} has a component of wrong parity")
    for i in range(n):
        for j in range(n):
            sign = -1 if (p[i] and p[j]) else 1
            if table[i][j] != {k: sign * c for k, c in table[j][i].items()}:
                failures.append(f"graded commutativity fails at ({i},{j})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not (table[i][j] or table[j][k]):
                    continue
                if alg.mul(table[i][j], e[k]) != alg.mul(e[i], table[j][k]):
                    failures.append(f"associativity fails at ({i},{j},{k})")
                if pair(table[i][j], e[k]) != pair(e[i], table[j][k]):
                    failures.append(f"invariance <ab,c>=<a,bc> fails at ({i},{j},{k})")
    try:
        alg.pairing.validate()
    except ValueError as exc:
        failures.append(f"pairing: {exc}")
    if not alg.pairing.is_nondegenerate():
        failures.append("pairing is degenerate")
    for j in range(n):
        for k in range(n):
            if alg.diff[k][j] != 0 and p[k] != (p[j] + 1) % 2:
                failures.append(f"differential is not odd at column {j}")
    for i in range(n):
        for j in range(n):
            lhs = alg.d_of(alg.mul(e[i], e[j]))
            sign = -1 if p[i] else 1
            rhs = sparse_sum(chain(
                alg.mul(alg.d_of(e[i]), e[j]).items(),
                ((k, sign * c) for k, c in alg.mul(e[i], alg.d_of(e[j])).items())))
            if lhs != rhs:
                failures.append(f"Leibniz rule for d fails at ({i},{j})")
    for j in range(n):
        if alg.d_of(alg.d_of(e[j])):
            failures.append(f"d^2 != 0 on basis vector {j}")
    for i in range(n):
        for j in range(n):
            lhs = pair(alg.d_of(e[i]), e[j])
            rhs = pair(e[i], alg.d_of(e[j])) * (-1 if p[i] else 1)
            if lhs + rhs != 0:
                failures.append(f"d-invariance of the pairing fails at ({i},{j})")
    return {"ok": not failures, "failures": sorted(set(failures))}


def degenerate_form(alg: FrobeniusAlgebra) -> BilinearForm:
    """<a,b>_d = (-1)^a <a, d(b)>: the matrix (-1)^{p_i} (P D)_ij, P the
    pairing and D the differential; even, super-antisymmetric, kernel >= ker d."""
    cols = linalg.transpose(alg.diff)
    return BilinearForm(alg.space, [
        [(-1 if p else 1) * sum(a * b for a, b in zip(row, col) if a and b) for col in cols]
        for row, p in zip(alg.pairing.rows, alg.space.parities)], EVEN, "skew")


def check_contractible(alg: FrobeniusAlgebra):
    """ker d = im d test; returns (flag, dim d(A))."""
    img = alg.d_image
    ker = alg.kernel_of_d()
    rk_img = len(img)
    if rk_img != len(ker):
        return False, rk_img
    stacked = [list(v) for v in img] + [list(v) for v in ker]
    return linalg.rank(stacked) == rk_img, rk_img


class Gauge(LagrangianSubspace):
    """A Lagrangian L of the pairing that complements d(A), with <-,->_d
    nondegenerate on it; ``LagrangianSubspace`` checks the basis.  The
    package builds each gauge with ``gauge_at``, from a point of the
    algebra's ``gauge_family``.

    It carries the Feynman data on L, fixed when it is built: the vertex
    tensors ``mu(k)`` and the ``propagator``, the rows of the inverse
    restricted d-form, and their integer forms ``integer_mu(k)`` and
    ``integer_propagator``, and the propagator's row supports ``partners``:
    ``dual.feynman_value`` reads only those and ``parities``.  It also
    carries ``amplitudes``, the values F(Gamma) already computed on it by
    graph, which ``dual.feynman_on_chain`` and ``dual.feynman_cochain`` read
    through; they bound its size.

    The complement test runs before the propagator is taken.
    ``alg.d_form`` checks d-invariance, and then <-,->_d is nondegenerate
    on L: v in its kernel has dv in L^perp = L and in d(A), so dv = 0, v is
    in ker d = d(A)^perp, and v is orthogonal to d(A) + L = A.
    """

    def __init__(self, alg: FrobeniusAlgebra, vectors, label=""):
        super().__init__(alg.pairing, vectors)
        self.alg = alg
        self.label = label
        stacked = [list(v) for v in self.vectors] + [list(v) for v in alg.d_image]
        if linalg.rank(stacked) != len(alg.space):
            raise ValueError("gauge does not complement d(A)")
        self.propagator = self.restricted_form().inverse().rows
        self.integer_propagator = integer_matrix(self.propagator)
        self.partners = partner_lists(self.propagator)
        self.amplitudes = {}
        self.vertex_tensors = VertexTensors(alg, self.vectors)

    def restricted_form(self) -> BilinearForm:
        rows = self.alg.d_form.restrict(self.vectors)
        return BilinearForm(self.subspace(), rows, EVEN, "skew")

    def mu(self, k: int) -> dict:
        """mu_k on the gauge basis, from the gauge's ``VertexTensors`` table."""
        return self.vertex_tensors.mu(k)

    def integer_mu(self, k: int) -> tuple:
        """(scale, integer entries) of mu_k, from the same table."""
        return self.vertex_tensors.integer_mu(k)


def partner_lists(rows) -> list:
    """For each row a of a matrix, the x with rows[a][x] != 0, ascending."""
    return [tuple(compress(range(len(r)), r)) for r in rows]


def gauge_at(alg: FrobeniusAlgebra, coords, label=None) -> Gauge:
    """The gauge base + sum_j coords[j] directions[j] of the algebra's
    ``gauge_family``, labelled ``str(tuple(coords))`` unless a label is
    given: the one builder of gauges.  ValueError unless coords has one entry
    per direction, or if the algebra has no gauge family."""
    base, directions = alg.gauge_family
    if len(coords) != len(directions):
        raise ValueError(f"the gauge family of {alg.name or 'this algebra'} "
                         f"has {len(directions)} directions, not {len(coords)}")
    vectors = [list(v) for v in base]
    for c, direction in zip(coords, directions):
        if c:
            vectors = [[a + c * b for a, b in zip(v, dv)] for v, dv in zip(vectors, direction)]
    return Gauge(alg, vectors, label=str(tuple(coords)) if label is None else label)


# Bounds each table's memo of integer mu_k by valence k, cleared when full.
_VALENCES_SIZE = 64


class VertexTensors:
    """The vertex tensors mu_k(v_1..v_k) = <v_1 ... v_{k-1}, v_k> of a list
    of elements (the basis of A, or a gauge basis), for every k >= 2.

    ``mu(k)`` gives the nonzero entries as Fractions, products taken left to
    right, keyed by index tuples in lexicographic order; ``integer_mu(k)``,
    kept once per valence, is the same table as (scale, [(key, scale *
    entry)]), the form the integer kernels read.  Both pair level k - 1 of
    one walk of products, ``products(k - 1)``, with each element v through its covector c = P v
    (P the pairing matrix): <u, v> = sum_i u_i c_i.  So mu_2 is the pairing
    itself.  Level n lists (t, v_{t_1} ... v_{t_n}) for the tuples t of
    length n with a nonzero product, in lexicographic order; it is built
    once, as level n - 1 times one more element, and kept for every valence.
    That is exact: a product is its prefix product times its last factor,
    and a zero prefix has only zero extensions.

    The walk runs over ints.  The elements are scaled to ints by one common
    D_e, the covectors by one common D_c and the structure constants by D_m
    (``FrobeniusAlgebra.integer_mult``), each the lcm of its list's
    denominators (``graded.integer_terms``).  Each element v is multiplied
    in through its right-multiplication rows u_i -> sum_{j,k} v_j c_ij^k
    a_k, at scale D_e D_m.  Every term of a level-n product multiplies
    exactly n element coefficients and n - 1 structure constants, so level n
    is the exact product times D_e^n D_m^(n-1), and every entry of mu_k,
    which adds one covector coefficient, is the exact value times
    D_e^(k-1) D_m^(k-2) D_c: it is divided once, by that scale.
    """

    def __init__(self, alg: FrobeniusAlgebra, vectors):
        d_e, elements = integer_matrix(vectors)
        d_c, covectors = integer_matrix(
            [[sum(row[j] * x for j, x in enumerate(v) if x) for row in alg.pairing.rows]
             for v in vectors])
        d_m, mult = alg.integer_mult
        elements = [{i: c for i, c in enumerate(row) if c} for row in elements]
        self._covectors = [{i: c for i, c in enumerate(row) if c} for row in covectors]
        self._right = [[tuple(sparse_sum(((k, b * c) for j, b in el.items()
                                          for k, c in mult.get((i, j), ())), None).items())
                        for i in range(len(alg.space))] for el in elements]
        self._scales = d_e, d_m, d_c
        self._levels = [[((i,), el) for i, el in enumerate(elements) if el]]
        self._integer_mu = {}

    def products(self, n: int) -> list:
        """Level n >= 1 of the walk over ints, each product times
        ``product_scale(n)``; each level below it is built first, once."""
        if n < 1:
            raise ValueError("the walk of products starts at level 1")
        while len(self._levels) < n:
            self._levels.append([(t + (i,), p) for t, prod in self._levels[-1]
                                 for i, right in enumerate(self._right)
                                 if (p := _product_step(prod, right))])
        return self._levels[n - 1]

    def product_scale(self, n: int) -> int:
        """D_e^n D_m^(n-1), the scale of level n >= 1 of the walk."""
        if n < 1:
            raise ValueError("the walk of products starts at level 1")
        d_e, d_m, _ = self._scales
        return d_e ** n * d_m ** (n - 1)

    def integer_mu(self, k: int) -> tuple:
        """(D_e^(k-1) D_m^(k-2) D_c, [(key, entry * that scale)]) for mu_k,
        built once per valence k >= 2."""
        if k < 2:
            raise ValueError("vertex tensors need valence >= 2")
        return memoised(self._integer_mu, _VALENCES_SIZE, k, lambda: (
            self.product_scale(k - 1) * self._scales[2], [
                (prefix + (last,), val) for prefix, prod in self.products(k - 1)
                for last, cov in enumerate(self._covectors)
                if (val := sum(a * cov[i] for i, a in prod.items() if i in cov))]))

    def mu(self, k: int) -> dict:
        """mu_k as a sparse dict of Fractions, from ``integer_mu(k)``."""
        scale, entries = self.integer_mu(k)
        return {key: Fraction(val, scale) for key, val in entries}


def _product_step(prod, right) -> dict:
    """One step of the walk: an integer product times one element, given by
    the element's right-multiplication rows."""
    return sparse_sum(((k, a * c) for i, a in prod.items() for k, c in right[i]), None)


def vertex_tensor(alg: FrobeniusAlgebra, k: int) -> dict:
    """mu_k on the basis of A, from a table of its own."""
    return VertexTensors(alg, linalg.identity(len(alg.space))).mu(k)


def vertex_tensor_on_vectors(alg: FrobeniusAlgebra, vectors, k: int) -> dict:
    """mu_k on a list of elements (e.g. a gauge basis), from a table of its own."""
    return VertexTensors(alg, vectors).mu(k)


# ---------------------------------------------------------------------------
# Grassmann fixtures

def _grassmann_mul(a, b):
    """Product of generator subsets, (subset, sign) or (None, 0)."""
    if set(a) & set(b):
        return None, 0
    merged = a + b
    order = sorted(range(len(merged)), key=merged.__getitem__)
    return (tuple(merged[i] for i in order),
            koszul_sign(order, (ODD,) * len(merged)))


def grassmann_algebra(k: int, d_images: dict, name="") -> FrobeniusAlgebra:
    """Lambda(xi_1..xi_k) with top-coefficient pairing and the given differential.

    d_images maps a basis subset to the element dict of its d-image; d is a
    matrix, not a derivation: callers supply every column they need.
    """
    subsets = [s for r in range(k + 1) for s in combinations(range(1, k + 1), r)]
    return _grassmann_span(k, subsets, d_images, name)


def _grassmann_span(k: int, subsets, d_images: dict, name) -> FrobeniusAlgebra:
    """The span of some generator subsets of Lambda(xi_1..xi_k), basis in the
    given order: a product leaving the span is dropped, and <a, b> is the
    coefficient of xi_1..xi_k in the product ab taken in Lambda."""
    index = {s: i for i, s in enumerate(subsets)}
    space = SuperSpace(["xi" + "".join(map(str, s)) if s else "1" for s in subsets],
                       [len(s) % 2 for s in subsets])
    n = len(subsets)
    top = tuple(range(1, k + 1))
    mult = {}
    pairing = [[Fraction(0)] * n for _ in range(n)]
    for i, a in enumerate(subsets):
        for j, b in enumerate(subsets):
            m, sign = _grassmann_mul(a, b)
            if m in index:
                mult[(i, j)] = {index[m]: Fraction(sign)}
            if m == top:
                pairing[i][j] = Fraction(sign)
    diff = [[Fraction(0)] * n for _ in range(n)]
    for s, img in d_images.items():
        for t, c in img.items():
            diff[index[t]][index[s]] = Fraction(c)
    return FrobeniusAlgebra(space, mult, diff, pairing, name=name)


def k2() -> FrobeniusAlgebra:
    """Lambda(xi), d(xi) = 1, <1, xi> = 1 (the minimal 1|1 fixture)."""
    return grassmann_algebra(1, {(1,): {(): Fraction(1)}}, name="K2")


def g3() -> FrobeniusAlgebra:
    """Lambda(xi1,xi2,xi3), d = (1 + xi2 xi3) d/dxi1, top-coefficient pairing."""
    d_images = {
        (1,): {(): Fraction(1), (2, 3): Fraction(1)},
        (1, 2): {(2,): Fraction(1)},
        (1, 3): {(3,): Fraction(1)},
        (1, 2, 3): {(2, 3): Fraction(1)},
    }
    return grassmann_algebra(3, d_images, name="G3")


def so3_reduced() -> FrobeniusAlgebra:
    """The reduced Chevalley-Eilenberg algebra of so(3): the augmentation
    ideal of Lambda(xi1,xi2,xi3) modulo its top element xi1xi2xi3.

    Basis xi1, xi2, xi3 | xi12, xi13, xi23 (3|3), no unit; the products of
    two generators survive and every other product is 0.  d xi1 = xi2xi3,
    d xi2 = -xi1xi3, d xi3 = xi1xi2 and d = 0 on the even part; the pairing
    is the top coefficient, and it is odd.
    """
    d_images = {
        (1,): {(2, 3): Fraction(1)},
        (2,): {(1, 3): Fraction(-1)},
        (3,): {(1, 2): Fraction(1)},
    }
    subsets = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    return _grassmann_span(3, subsets, d_images, name="so3red")


def direct_sum(a: FrobeniusAlgebra, b: FrobeniusAlgebra) -> FrobeniusAlgebra:
    """The block direct sum A + B: the basis of A, then that of B, each name
    prefixed by its block's position, 0 or 1, so that A + A is defined; d
    acts blockwise, and products and the pairing vanish across the blocks.

    The pairing makes the blocks orthogonal, so a gauge may map a
    complement of d in one block into the image of d in the other.  So
    ``direct_sum(so3_reduced(), g3())``, which has no unit since so3red has
    none, has gauges of mixed parity with mu_3 ... mu_6 all nonzero.
    """
    n = len(a.space)
    size = n + len(b.space)
    space = SuperSpace([f"{pos}.{x}" for pos, alg in enumerate((a, b))
                        for x in alg.space.names],
                       a.space.parities + b.space.parities)
    mult = dict(a.mult)
    mult.update({(i + n, j + n): {k + n: c for k, c in img.items()}
                 for (i, j), img in b.mult.items()})

    def blocks(upper, lower):
        rows = [[Fraction(0)] * size for _ in range(size)]
        for off, mat in ((0, upper), (n, lower)):
            for i, row in enumerate(mat):
                for j, c in enumerate(row):
                    rows[off + i][off + j] = c
        return rows
    return FrobeniusAlgebra(space, mult, blocks(a.diff, b.diff),
                            blocks(a.pairing.rows, b.pairing.rows),
                            name=f"{a.name}+{b.name}")


def g3_gauge(a=0, b=0, c=0, d=0, alg=None) -> Gauge:
    """The G3 gauge L(a,b,c,d) = span{xi1 + a xi2 + b xi3,
                                      xi1xi2 - d - b xi2xi3,
                                      xi1xi3 + c + a xi2xi3,
                                      xi1xi2xi3 + c xi2 + d xi3},
    the point (d - b, a - c, c, d) of G3's gauge family."""
    a, b, c, d = (Fraction(x) for x in (a, b, c, d))
    return gauge_at(alg or g3(), (d - b, a - c, c, d), label=f"G3({a},{b},{c},{d})")


# ---------------------------------------------------------------------------
# JSON algebra format (its schema is what algebra_to_json writes)

def algebra_to_json(alg: FrobeniusAlgebra) -> dict:
    mult = []
    for (i, j), img in sorted(alg.mult.items()):
        for k, c in sorted(img.items()):
            mult.append([i, j, k, str(c)])
    pairing = []
    diff = []
    n = len(alg.space)
    for i in range(n):
        for j in range(n):
            if alg.pairing.rows[i][j]:
                pairing.append([i, j, str(alg.pairing.rows[i][j])])
            if alg.diff[i][j]:
                diff.append([i, j, str(alg.diff[i][j])])
    return {"name": alg.name,
            "basis": [{"name": nm, "parity": p}
                      for nm, p in zip(alg.space.names, alg.space.parities)],
            "mult": mult, "pairing": pairing, "differential": diff}


def algebra_from_json(data: dict) -> FrobeniusAlgebra:
    """The algebra a JSON record describes; ValueError unless it has a basis
    of named entries with parities in {0, 1}, its indices lie in [0, n), its
    coefficients are ints or strings, not floats, and it passes verify_axioms.
    A bool is no int here: the checks read type(), not isinstance()."""
    basis = data.get("basis")
    if basis is None or any("name" not in b or "parity" not in b for b in basis):
        raise ValueError("every basis entry needs a name and a parity")
    if any(type(b["parity"]) is not int or b["parity"] not in (EVEN, ODD) for b in basis):
        raise ValueError("basis parities must be 0 or 1")
    space = SuperSpace([b["name"] for b in basis], [b["parity"] for b in basis])
    n = len(space)

    def entries(field, arity):
        for entry in data.get(field, []):
            *idx, c = entry
            if len(idx) != arity or not all(type(i) is int and 0 <= i < n for i in idx):
                raise ValueError(f"{field} index out of range in {entry}")
            if type(c) not in (int, str):
                raise ValueError(f"{field} coefficient must be an int or a string in {entry}")
            yield (*idx, Fraction(c))

    mult = {}
    for i, j, k, c in entries("mult", 3):
        mult.setdefault((i, j), {})[k] = c
    pairing = [[Fraction(0)] * n for _ in range(n)]
    for i, j, c in entries("pairing", 2):
        pairing[i][j] = c
    diff = [[Fraction(0)] * n for _ in range(n)]
    for i, j, c in entries("differential", 2):
        diff[i][j] = c
    alg = FrobeniusAlgebra(space, mult, diff, pairing, name=data.get("name", ""))
    report = verify_axioms(alg)
    if not report["ok"]:
        raise ValueError("JSON algebra fails the DG Frobenius axioms: "
                         + "; ".join(report["failures"]))
    return alg
