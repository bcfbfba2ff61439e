"""Parities, Koszul signs, superspaces and sparse sums.

Everything downstream (polynomials, forms, brackets, Wick sums) reduces its
sign bookkeeping to one primitive: the Koszul sign of rearranging an ordered
list of graded symbols.  That primitive, ``koszul_sign``, lives here.

Three hot loops keep faster special cases of it: ``sort_indices_with_sign``
(below), ``superpoly.merge_keys`` and ``perm_parity`` (the all-odd case).
``tests/test_graded.py`` pins each of them to ``koszul_sign`` exhaustively on
small inputs.  ``dual.wedge_sign`` and ``dual.shuffle_sign`` are closed forms
of the same sign; ``tests/test_dual.py`` pins ``shuffle_sign`` to it.

Every sparse rational combination of the package (polynomial terms, vertex
tensors, graph and Chevalley-Eilenberg chains, algebra elements) is
accumulated by one function, ``sparse_sum``: it adds the values of equal
keys, drops zero sums once and returns each other sum as one Fraction,
divided by a common denominator if one is given, so that integer values add
as plain ints.  ``SuperPolynomial.sum`` is its polynomial case.
The integer kernels (the polynomial product and the restriction
``substitute``, the Hamiltonian field and the odd Laplacian, the walk of
products behind the vertex tensors mu_k, Psi of a monomial, the Feynman
amplitude ``dual.feynman_value`` and the live chords of the map I) scale
their Fraction inputs to plain ints with ``integer_terms``, the one place
that takes the lcm of denominators (``integer_matrix`` is its case for a
whole matrix), and divide once by the product of the scales, mostly by
passing it to ``sparse_sum`` as the denominator.

``dense_vectors`` and ``vector_parity`` are the length and parity tests of
the basis vectors of the gauges of ``frobenius`` and ``symplectic``,
``span_space`` the coordinate space of such a basis, and ``monomial_parity``
the parity of a monomial key: every parity in the package is read off the
terms through it, so no caller declares the parity of a whole polynomial,
field or derivation.  ``memoised`` is the one bounded memo of the package:
every cache of a module or an object goes through it.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

EVEN = 0
ODD = 1


def perm_parity(perm) -> int:
    """Sign (+1/-1) of a permutation given as a sequence of images."""
    perm = list(perm)
    n = len(perm)
    sign = 1
    seen = [False] * n
    for i in range(n):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def koszul_sign(order, parities) -> int:
    """Koszul sign of the rearrangement placing source symbol order[j] at slot j.

    `parities` grades the *source* symbols.  Each inverted pair of odd symbols
    contributes -1; even symbols move freely.  Equivalent to decomposing the
    permutation into adjacent transpositions, each swap of symbols (a, b)
    contributing (-1)^{|a||b|}.
    """
    if len(order) != len(parities):
        raise ValueError("order/parities length mismatch")
    sign = 1
    n = len(order)
    for a in range(n):
        if parities[order[a]] == EVEN:
            continue
        for b in range(a + 1, n):
            if parities[order[b]] == ODD and order[a] > order[b]:
                sign = -sign
    return sign


class SuperSpace:
    """Finite-dimensional Z/2-graded vector space with a named, ordered basis."""

    __slots__ = ("names", "parities")

    def __init__(self, names, parities):
        names = tuple(names)
        parities = tuple(int(p) % 2 for p in parities)
        if len(names) != len(parities):
            raise ValueError("names/parities length mismatch")
        if len(set(names)) != len(names):
            raise ValueError("basis labels must be unique")
        self.names = names
        self.parities = parities

    def __len__(self):
        return len(self.names)

    def dim(self):
        """Dimension pair (n_even, n_odd)."""
        ev = sum(1 for p in self.parities if p == EVEN)
        return (ev, len(self.parities) - ev)

    def __eq__(self, other):
        return (isinstance(other, SuperSpace)
                and self.names == other.names
                and self.parities == other.parities)

    def __hash__(self):
        return hash((self.names, self.parities))

    def __repr__(self):
        ev, od = self.dim()
        return f"SuperSpace({ev}|{od}: {', '.join(self.names)})"


def tensor_space(a: SuperSpace, b: SuperSpace) -> SuperSpace:
    """Tensor product space; basis is ordered pairs, parities add."""
    names = []
    parities = []
    for i, na in enumerate(a.names):
        for j, nb in enumerate(b.names):
            names.append(f"{na}(x){nb}")
            parities.append((a.parities[i] + b.parities[j]) % 2)
    return SuperSpace(names, parities)


# ---------------------------------------------------------------------------
# Sparse combinations: dict {key: Fraction}, zero values never stored

def sparse_sum(pairs, denominator=1) -> dict:
    """The sparse sum of an iterable of (key, value) pairs, over `denominator`.

    Values of equal keys are added as they come, so integer values add as
    plain ints; keys keep the order of their first occurrence, the keys whose
    sum is 0 are dropped once, at the end, and every other sum s becomes one
    Fraction s / denominator.  With `denominator` None each nonzero sum is
    kept as it is, so an integer kernel can collapse equal keys between its
    steps and still divide only once, at the end.
    """
    out = {}
    for k, v in pairs:
        if k in out:
            out[k] += v
        else:
            out[k] = v
    if denominator is None:
        return {k: v for k, v in out.items() if v}
    if denominator == 1:
        return {k: v if type(v) is Fraction else Fraction(v)
                for k, v in out.items() if v}
    return {k: Fraction(v, denominator) for k, v in out.items() if v}


def integer_terms(terms: dict):
    """(D, [(key, c * D)]) for the lcm D of the denominators of the
    coefficients c of `terms`: each c * D is a plain int, so a kernel can add
    products of such ints and divide once by the product of their scales."""
    d = lcm(*(v.denominator for v in terms.values()))
    return d, [(k, v.numerator * (d // v.denominator)) for k, v in terms.items()]


def integer_matrix(rows):
    """(D, the rows times D as lists of ints), one D for the whole matrix:
    the lcm of the denominators of its nonzero entries (``integer_terms``)."""
    d, entries = integer_terms({(i, j): x for i, row in enumerate(rows)
                                for j, x in enumerate(row) if x})
    out = [[0] * len(row) for row in rows]
    for (i, j), x in entries:
        out[i][j] = x
    return d, out


def monomial_parity(space: SuperSpace, key) -> int:
    """Parity of the monomial of basis indices `key`: the sum of their parities."""
    return sum(space.parities[i] for i in key) % 2


def vector_parity(space: SuperSpace, v) -> int:
    """Parity of a dense coefficient vector on `space`; ValueError unless v is
    nonzero and parity homogeneous."""
    ps = {space.parities[i] for i, c in enumerate(v) if c != 0}
    if len(ps) != 1:
        raise ValueError("basis vectors must be nonzero and parity homogeneous")
    return ps.pop()


def dense_vectors(space: SuperSpace, vectors) -> list:
    """The coefficient vectors as tuples of Fractions; ValueError unless each
    has one entry per basis vector of `space`."""
    out = [tuple(Fraction(x) for x in v) for v in vectors]
    if any(len(v) != len(space) for v in out):
        raise ValueError(f"each vector needs {len(space)} entries, one per basis vector")
    return out


def span_space(parities) -> SuperSpace:
    """The coordinates l0, l1, ... of a subspace basis of these parities."""
    return SuperSpace([f"l{i}" for i in range(len(parities))], parities)


def memoised(cache: dict, size: int, key, compute):
    """cache[key], or compute() stored under key, the cache emptied first
    when it holds `size` entries: the one bounded memo of the package."""
    hit = cache.get(key)
    if hit is None:
        hit = compute()
        if len(cache) >= size:
            cache.clear()
        cache[key] = hit
    return hit


def sort_indices_with_sign(space: SuperSpace, key):
    """Sort basis indices ascending; Koszul sign of the sort, None on odd square."""
    key = list(key)
    sign = 1
    n = len(key)
    for a in range(n):
        for b in range(a + 1, n):
            if key[a] > key[b]:
                if space.parities[key[a]] and space.parities[key[b]]:
                    sign = -sign
            elif key[a] == key[b] and space.parities[key[a]]:
                return None, 0
    return tuple(sorted(key)), sign
