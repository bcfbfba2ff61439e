"""Dense exact-rational linear algebra (desk scale, Gaussian elimination)."""
from __future__ import annotations

from fractions import Fraction


def zeros(m, n):
    return [[Fraction(0)] * n for _ in range(m)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def rref(a):
    """Reduced row echelon form; returns (R, pivot column list)."""
    r = [row[:] for row in a]
    m = len(r)
    n = len(r[0]) if m else 0
    pivots = []
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if r[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        r[row], r[piv] = r[piv], r[row]
        inv = 1 / r[row][col]
        prow = r[row] = [x * inv for x in r[row]]
        # a row changes only where the pivot row is nonzero
        support = [j for j, y in enumerate(prow) if y]
        for i in range(m):
            f = r[i][col]
            if i != row and f != 0:
                ri = r[i]
                for j in support:
                    ri[j] -= f * prow[j]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return r, pivots


def rank(a):
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def inverse(a):
    n = len(a)
    aug = [a[i][:] + identity(n)[i] for i in range(n)]
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


def nullspace(a):
    """Basis of the right kernel, as a list of column vectors."""
    if not a:
        return []
    m, n = len(a), len(a[0])
    if n == 0:
        return []
    r, pivots = rref(a)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def solve(a, b):
    """One solution of a x = b, or None if inconsistent."""
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [a[i][:] + [b[i]] for i in range(m)]
    r, pivots = rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, p in enumerate(pivots):
        x[p] = r[i][n]
    return x


def column_space_basis(a):
    """Columns of `a` forming a basis of the column space."""
    if not a or not a[0]:
        return []
    _, pivots = rref(a)
    cols = transpose(a)
    return [cols[p] for p in pivots]
