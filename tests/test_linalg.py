"""The sparse elimination kernel against dense elimination.

``rref`` and the answers read off it (``rank``, ``nullspace``, ``solve``,
``inverse``) are checked against ``dense_rref_oracle`` on seeded random
rational matrices: empty, all-zero, rank-deficient, wide, tall and square
ones, each given as dense rows, as sparse dicts and as dicts that keep their
zeros.  The reduced row echelon form is unique, so both routes must agree
exactly.
"""
import random
from fractions import Fraction

import pytest

from bvgraph import linalg
from oracles import dense_rref_oracle, identity


def random_matrix(rng, m, n, k):
    """An m x n matrix of rank at most k, the product of sparse random
    m x k and k x n factors with small rational entries."""
    def factor(rows, cols):
        return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else
                 Fraction(0) for _ in range(cols)] for _ in range(rows)]
    left, right = factor(m, k), factor(k, n)
    return [[sum((left[i][s] * right[s][j] for s in range(k)), Fraction(0))
             for j in range(n)] for i in range(m)]


def matrices():
    rng = random.Random(31)
    shapes = [(0, 0, 0), (0, 3, 0), (3, 0, 0), (4, 5, 0), (1, 1, 1), (5, 5, 5),
              (6, 6, 3), (3, 7, 3), (7, 3, 3), (4, 9, 2), (9, 4, 2), (8, 8, 7),
              (10, 12, 10), (12, 10, 6)]
    return [(random_matrix(rng, m, n, k), n) for m, n, k in shapes for _ in range(3)]


def row_forms(a):
    """The rows of `a` as dense lists, as sparse dicts and as dicts with
    their zeros kept."""
    return ([list(row) for row in a],
            [{j: x for j, x in enumerate(row) if x} for row in a],
            [dict(enumerate(row)) for row in a])


def dense(rows, n):
    return [[r.get(j, 0) for j in range(n)] for r in rows]


def nullspace_from_oracle(a, n):
    r, pivots = dense_rref_oracle(a)
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def solve_from_oracle(a, b, n):
    r, pivots = dense_rref_oracle([list(row) + [y] for row, y in zip(a, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, p in enumerate(pivots):
        x[p] = r[i][n]
    return x


def inverse_from_oracle(a):
    n = len(a)
    r, pivots = dense_rref_oracle([list(row) + e for row, e in zip(a, identity(n))])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in r]


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


def test_rref_matches_the_dense_oracle():
    for a, n in matrices():
        r, pivots = dense_rref_oracle(a)
        for rows in row_forms(a):
            reduced, kernel_pivots = linalg.rref(rows)
            assert kernel_pivots == pivots
            assert dense(reduced, n) == r[:len(pivots)]
            assert not any(map(any, r[len(pivots):]))
            assert all(0 not in row.values() for row in reduced)
            assert all_fractions(row.values() for row in reduced)
            # the reduced row echelon form does not depend on the row order
            assert linalg.rref(rows[::-1]) == (reduced, pivots)
            assert linalg.rank(rows) == len(pivots)


def test_nullspace_matches_the_dense_oracle():
    for a, n in matrices():
        expected = nullspace_from_oracle(a, n)
        assert len(expected) == n - len(dense_rref_oracle(a)[1])
        for rows in row_forms(a):
            basis = linalg.nullspace(rows, n)
            assert basis == expected and all_fractions(basis)
            assert all(sum((x * y for x, y in zip(row, v)), Fraction(0)) == 0
                       for row in a for v in basis)


def test_solve_matches_the_dense_oracle():
    rng = random.Random(7)
    consistent = 0
    for a, n in matrices():
        x0 = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        for b in ([sum((c * x for c, x in zip(row, x0)), Fraction(0)) for row in a],
                  [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in a]):
            expected = solve_from_oracle(a, b, n)
            consistent += expected is not None
            for rows in row_forms(a):
                x = linalg.solve(rows, b, n)
                assert x == expected
                if x is not None:
                    assert all_fractions([x])
                    assert [sum((c * y for c, y in zip(row, x)), Fraction(0))
                            for row in a] == b
    assert consistent > len(matrices())


def test_inverse_matches_the_dense_oracle():
    square = [a for a, n in matrices() if len(a) == n]
    singular = 0
    for a in square:
        expected = inverse_from_oracle(a)
        for rows in row_forms(a):
            if expected is None:
                with pytest.raises(ValueError, match="singular"):
                    linalg.inverse(rows)
            else:
                inv = linalg.inverse(rows)
                assert inv == expected and all_fractions(inv)
        singular += expected is None
    assert 0 < singular < len(square)


def test_inverse_raises_on_a_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse([{0: 1}, {}])
    assert linalg.inverse([[0, 2], [Fraction(1, 3), 0]]) == [[0, 3], [Fraction(1, 2), 0]]


def test_solve_returns_none_on_an_inconsistent_system():
    assert linalg.solve([[1, 1], [2, 2]], [1, 3], 2) is None
    assert linalg.solve([{}], [1], 3) is None
    assert linalg.solve([[1, 1], [2, 2]], [1, 2], 2) == [1, 0]
