"""Chord diagrams and algebraic Gaussian expectation values.

The Wick sum over chord diagrams *is* the definition of the Gaussian integral
here; analytic input survives only in the test suite's Berezin and moment
oracles, with their sign rule for negative weights.
"""
from __future__ import annotations

from fractions import Fraction

from .graded import EVEN, koszul_sign, memoised
from .superpoly import SuperPolynomial
from .symplectic import BilinearForm, i2_of_quadratic


# Bound the lists of ``chord_diagrams`` by k and each weight's ``monomial_vev``
# by key, each cleared when full; a commute benchmark pass makes 1,305 calls.
_CHORD_DIAGRAMS_SIZE = 16
_chord_diagrams = {}
_VEV_SIZE = 1 << 16


def chord_diagrams(k: int):
    """All perfect matchings of {0..2k-1} as tuples of (i, j) pairs, i < j,
    sorted by first point.  There are (2k-1)!! of them, listed once per k."""
    def compute():
        out = []

        def rec(points, acc):
            if not points:
                out.append(tuple(acc))
                return
            first = points[0]
            for idx in range(1, len(points)):
                pair = (first, points[idx])
                rest = points[1:idx] + points[idx + 1:]
                rec(rest, acc + [pair])

        rec(tuple(range(2 * k)), [])
        return tuple(out)
    return memoised(_chord_diagrams, _CHORD_DIAGRAMS_SIZE, k, compute)


def chord_sign(parities, chord) -> int:
    """Koszul sign of reordering the factors into (i1, j1, i2, j2, ...)."""
    order = [p for pair in chord for p in pair]
    return koszul_sign(order, parities)


class MatchingSupport:
    """The support of a matrix as a graph, an edge i - j where entry [i][j]
    or [j][i] is nonzero, split once into connected components and
    2-coloured: variable i lies on side ``side[i]`` (+1 or -1) of component
    ``component[i]``, and ``bipartite[c]`` is False when component c has an
    odd cycle or a self-pair i - i.  The bipartite components come first.

    A Wick sum over the matrix runs over the perfect matchings, along these
    edges, of a multiset of variables.  A bipartite component pairs its two
    sides only with each other, so it leaves at least |#side A - #side B|
    points unmatched, and any other component at least its count mod 2:
    their sum, the deficiency, is 0 for every multiset with a perfect
    matching.  One more variable moves it by exactly one, so a multiset of
    deficiency d > R stays unmatchable after any R more variables, and
    dropping it on d > R is exact.
    """

    def __init__(self, matrix):
        self.rows = matrix
        n = len(matrix)
        edges = [[j for j in range(n) if matrix[i][j] or matrix[j][i]] for i in range(n)]
        component, side, bipartite = [None] * n, [0] * n, []
        for root in range(n):
            if component[root] is not None:
                continue
            c, ok, stack = len(bipartite), True, [root]
            component[root], side[root] = c, 1
            while stack:
                i = stack.pop()
                for j in edges[i]:
                    if component[j] is None:
                        component[j], side[j] = c, -side[i]
                        stack.append(j)
                    elif side[j] == side[i]:
                        ok = False
            bipartite.append(ok)
        order = sorted(range(len(bipartite)), key=lambda c: not bipartite[c])
        rank = {c: r for r, c in enumerate(order)}
        self.component = [rank[c] for c in component]
        self.side = side
        self.bipartite = tuple(bipartite[c] for c in order)
        self._split = sum(bipartite)

    def tally(self, key) -> tuple:
        """Per component, the side-A minus the side-B variables of the
        multiset key; a product's tally is the sum of its factors'."""
        out = [0] * len(self.bipartite)
        for i in key:
            out[self.component[i]] += self.side[i]
        return tuple(out)

    def group(self, terms) -> dict:
        """The (key, value) pairs `terms` grouped by the tally of their key."""
        out = {}
        for key, val in terms:
            out.setdefault(self.tally(key), []).append((key, val))
        return out

    def _deficiency(self, tally) -> int:
        # a signed count has the parity of the count
        b = self._split
        return sum(map(abs, tally[:b])) + sum(t & 1 for t in tally[b:])

    def deficiency(self, key) -> int:
        return self._deficiency(self.tally(key))

    def completable(self, tally, more: int) -> bool:
        """Whether `more` further variables can bring a multiset of this
        tally to deficiency 0."""
        return self._deficiency(tally) <= more


def live_chords(parities, idxs, support: MatchingSupport):
    """Yield (chord, beta_c) for the chord diagrams on the factors ``idxs``
    whose contraction beta_c = chord_sign * prod_{(i, j) in c}
    matrix[idxs[i]][idxs[j]] is nonzero, in the order of ``chord_diagrams``,
    for the matrix ``support.rows``.

    It yields nothing when ``idxs`` has a nonzero deficiency
    (``MatchingSupport``; odd lengths included).  Otherwise, like
    ``chord_diagrams``, it pairs the first open point with each later point
    in turn, but only with a point whose matrix entry is nonzero, and carries
    the running product; the chord sign is taken at a leaf.  A pair with a
    zero entry makes the product of every diagram containing it 0, so the
    diagrams skipped are exactly those with beta_c = 0, and the order of the
    rest is unchanged.  On the canonical forms of V each component is a pair
    {p_i, q_i} or a self-paired odd variable, so a chord keeps every
    component balanced: a word that passes the check never dead-ends.

    The running product starts from the int 1, so on a matrix of ints it
    stays a plain int.  A caller that scaled its matrix by D to make it so
    divides each beta_c by D^|c|, |c| = len(idxs) / 2 the number of chords:
    each diagram multiplies exactly |c| entries.
    """
    if support.deficiency(idxs):
        return
    matrix = support.rows
    chord = []

    def rec(points, prod):
        if not points:
            done = tuple(chord)
            yield done, chord_sign(parities, done) * prod
            return
        row = matrix[idxs[points[0]]]
        for pos in range(1, len(points)):
            entry = row[idxs[points[pos]]]
            if entry:
                chord.append((points[0], points[pos]))
                yield from rec(points[1:pos] + points[pos + 1:], prod * entry)
                chord.pop()

    yield from rec(tuple(range(len(idxs))), 1)


class QuadraticWeight:
    """Even symmetric nondegenerate bilinear form driving a Gaussian expectation."""

    def __init__(self, form: BilinearForm):
        if form.parity != EVEN or form.symmetry != "sym":
            raise ValueError("weight must be an even symmetric form")
        try:
            self.inverse = form.inverse()
        except ValueError:
            raise ValueError("weight form is degenerate") from None
        self.space = form.space
        self.form = form
        self.support = MatchingSupport(self.inverse.rows)
        self._memo = {}

    @classmethod
    def from_sigma(cls, sigma: SuperPolynomial) -> "QuadraticWeight":
        return cls(i2_of_quadratic(sigma))

    # -- expectation ---------------------------------------------------------
    def monomial_vev(self, key) -> Fraction:
        """<y_{k1} ... y_{k_2m}>_0 by the Wick sum, evaluated recursively.

        A key of nonzero deficiency under the inverse form (``support``) has
        no perfect matching: it is 0 at once, without recursing.  The
        recursion pairs the first factor with each later one; it is the
        chord-diagram sum reassociated (asserted equal in the test suite).
        Each pair it removes is an edge of the support, so every key it
        reaches keeps deficiency 0 and needs no check.
        """
        if self.support.deficiency(key):
            return Fraction(0)
        return self._vev(tuple(key))

    def _vev(self, key) -> Fraction:
        def compute():
            if not key:
                return Fraction(1)
            pars = self.space.parities
            inv = self.inverse.rows
            first = key[0]
            total = Fraction(0)
            sign = 1
            for j in range(1, len(key)):
                entry = inv[first][key[j]]
                if entry:
                    total += sign * entry * self._vev(key[1:j] + key[j + 1:])
                if pars[key[j]] and pars[first]:
                    sign = -sign
            return total
        return memoised(self._memo, _VEV_SIZE, key, compute)

    def expectation(self, f: SuperPolynomial) -> Fraction:
        if f.space != self.space:
            raise ValueError("observable lives on the wrong space")
        total = Fraction(0)
        for key, val in f.terms.items():
            total += val * self.monomial_vev(key)
        return total
