"""Exact-rational linear algebra over sparse rows, through one elimination kernel.

A row is a dense sequence or a sparse {column: value} dict.  ``rref`` brings
the rows to reduced row echelon form, and ``rank``, ``nullspace``, ``solve``
and ``inverse`` read their answers off it.  The reduced row echelon form of a
matrix is unique, so these answers do not depend on the order of the rows or
on whether they come dense or sparse.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .graded import sparse_sum


def _items(row) -> dict:
    """A row as a {column: value} dict, dense or sparse."""
    return row if isinstance(row, dict) else dict(enumerate(row))


def rref(rows):
    """(the reduced rows as {column: Fraction} dicts, their pivot columns
    ascending) of the matrix with these rows.

    The rows are reduced one at a time against the pivot rows found so far.
    Each pivot row holds 1 at its pivot and 0 at every other pivot, so a row
    loses its entries at the pivots in one sparse sum; the least column left
    in it is the new pivot, which is then cleared from the earlier pivot rows.
    """
    pivot_rows = {}
    for row in rows:
        start = {j: Fraction(x) for j, x in _items(row).items() if x}
        row = sparse_sum(chain(start.items(), (
            (j, -f * x) for p, f in start.items() if p in pivot_rows
            for j, x in pivot_rows[p].items())), None)
        if not row:
            continue
        p = min(row)
        lead = row[p]
        row = {j: x / lead for j, x in row.items()}
        for q in [q for q, prow in pivot_rows.items() if p in prow]:
            f = pivot_rows[q][p]
            pivot_rows[q] = sparse_sum(chain(
                pivot_rows[q].items(), ((j, -f * x) for j, x in row.items())), None)
        pivot_rows[p] = row
    pivots = sorted(pivot_rows)
    return [pivot_rows[p] for p in pivots], pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def inverse(rows):
    """The inverse of a square matrix, as dense rows; ValueError if singular."""
    n = len(rows)
    reduced, pivots = rref({**_items(row), n + i: 1} for i, row in enumerate(rows))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    zero = Fraction(0)
    return [[r.get(n + j, zero) for j in range(n)] for r in reduced]


def nullspace(rows, n: int):
    """A basis of the right kernel of the matrix with these rows and n
    columns, as dense vectors: one per free column f, with 1 at f and 0 at
    the other free columns."""
    reduced, pivots = rref(rows)
    free = sorted(set(range(n)) - set(pivots))
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, p in zip(reduced, pivots):
            if f in r:
                v[p] = -r[f]
        basis.append(v)
    return basis


def solve(rows, b, n: int):
    """One solution x of rows x = b in n unknowns, its free variables 0, or
    None if the system is inconsistent."""
    reduced, pivots = rref({**_items(row), n: y} for row, y in zip(rows, b))
    if n in pivots:
        return None
    zero = Fraction(0)
    x = [zero] * n
    for r, p in zip(reduced, pivots):
        x[p] = r.get(n, zero)
    return x
