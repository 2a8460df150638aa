"""Linear-algebra references shared by the tests: a kernel vector and the
unique solution of a linear system, by back-substitution up the rows of
``core.echelon``.  The library reads its lattice charts off a unimodular
matrix and needs neither; the tests keep them as references."""

from fractions import Fraction
from math import gcd
from typing import Sequence

from latmin.core import echelon


def kernel_vector(rows: Sequence[Sequence], ncols: int):
    """A nonzero integer vector orthogonal to all rows, or None when the rows
    have rank ``ncols``.

    The first non-pivot column gets 1 and the other free columns 0.
    Back-substitution up the echelon rows stays fraction-free: where a pivot
    does not divide its row's remainder, the whole vector is scaled first.
    """
    ech, pivots, _ = echelon(rows, ncols)
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    x = [0] * ncols
    x[free] = 1
    for row, p in zip(reversed(ech), reversed(pivots)):
        s = -sum(a * c for a, c in zip(row[p + 1:], x[p + 1:]))
        g = gcd(s, row[p])
        x = [c * (row[p] // g) for c in x]
        x[p] = s // g
    return tuple(x)


def solve_linear(a_rows: Sequence[Sequence], b: Sequence):
    """The unique x with A x = b over Q, or None when there is no solution or
    more than one.

    x comes from a kernel vector (x, 1) of [A | -b]: the kernel vector ends
    in a nonzero entry exactly when every column of A is a pivot and the
    system is consistent.
    """
    n = len(a_rows[0])
    x = kernel_vector([list(r) + [-c] for r, c in zip(a_rows, b)], n + 1)
    if x is None or x[n] == 0:
        return None
    return tuple(Fraction(c, x[n]) for c in x[:n])
