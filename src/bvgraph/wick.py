"""Chord diagrams and algebraic Gaussian expectation values.

The Wick sum over chord diagrams *is* the definition of the Gaussian integral
here; analytic input survives only in the test suite's Berezin and moment
oracles, with their sign rule for negative weights.  The map I sums the
chord diagrams of a word by class (``chord_classes``).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import factorial, prod

from .graded import EVEN, koszul_sign, memoised
from .superpoly import SuperPolynomial
from .symplectic import BilinearForm


# Bound the lists of ``chord_diagrams`` by k and each weight's ``monomial_vev``
# by key, each cleared when full.  A commute benchmark pass calls no
# ``chord_diagrams`` (the map I sums ``chord_classes``) and makes 31
# ``monomial_vev`` calls, which leave 11 and 21 keys in its two weights' memos.
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

    def residue(self, tally, sign=1) -> tuple:
        """sign * tally on the bipartite components, tally mod 2 on the
        others.  Two multisets of tallies t and u make one of deficiency 0
        exactly when t + u is 0 on the bipartite components and even on the
        others, that is when residue(u) == residue(t, -1)."""
        b = self._split
        head = tally[:b] if sign > 0 else tuple(-t for t in tally[:b])
        return head + tuple(t & 1 for t in tally[b:])


def chord_classes(parities, word, support: MatchingSupport):
    """Yield (edges, size, beta) per class of the loop-free chord diagrams
    on the slots of ``word`` with beta_c != 0 under the matrix
    ``support.rows``: the class's sorted graph edges (a, b), a < b, its
    number of diagrams and the beta_c they share.

    Key v is vertex v; its slots split into groups, one per variable, of m_g
    slots.  A class fixes the chord counts n_gh between groups at different
    vertices with entry matrix[x_g][x_h] != 0, g before h: it holds
    prod m_g! / prod n_gh! diagrams, each of product prod entry^n_gh.  An
    odd variable repeats in no monomial (a key that does is 0 and yields
    nothing), and the matrix, as the inverse of an even form, pairs odd
    groups only with odd ones, so the diagrams of a class share their odd
    chords and one ``chord_sign`` (``parities`` are the variables').  It is
    taken on the class's first diagram in ``chord_diagrams`` order, whose
    first open slot always pairs with the first open slot of the least group
    left to it: the walk builds just these, so classes come in that order.
    A chord inside a vertex makes a loop, a graph that is 0, and is never
    formed; a word of nonzero deficiency (``MatchingSupport``) yields nothing.
    """
    slots = [i for key in word for i in key]
    if support.deficiency(slots):
        return
    groups, start = [], 0
    for vtx, key in enumerate(word):
        for var, run in groupby(key):
            m = len(tuple(run))
            if m > 1 and parities[var]:
                return
            groups.append((vtx, var, start, m))
            start += m
    matrix, n = support.rows, len(groups)
    left = [m for *_, m in groups]
    size = prod(map(factorial, left))
    pars = [parities[i] for i in slots]
    chord, edges = [], []

    # g is the first group with open slots, low the least partner group left
    # to it and run the chords of g to low so far; denom is prod n_gh!
    def rec(g, low, run, value, denom):
        while g < n and not left[g]:
            g += 1
            low, run = g + 1, 0
        if g == n:
            yield tuple(sorted(edges)), size // denom, chord_sign(pars, chord) * value
            return
        vg, xg, sg, mg = groups[g]
        row = matrix[xg]
        i = sg + mg - left[g]
        left[g] -= 1
        for h in range(low, n):
            vh, xh, sh, mh = groups[h]
            entry = row[xh]
            if entry and left[h] and vh != vg:
                r = run + 1 if h == low else 1
                chord.append((i, sh + mh - left[h]))
                edges.append((vg, vh))
                left[h] -= 1
                yield from rec(g, h, r, value * entry, denom * r)
                left[h] += 1
                edges.pop()
                chord.pop()
        left[g] += 1

    yield from rec(0, 1, 0, 1, 1)


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
