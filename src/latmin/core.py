"""Exact rational scalars, integer vectors, and lattice rank/span tests.

Every quantity in this package is a ``fractions.Fraction`` (kept in canonical
gcd-reduced form by the stdlib) or a tuple of them; no floating point is used
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InvalidInput, ZeroVector

Rat = Fraction


def rat_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s) -> Fraction:
    """Parse "p/q" or "p" (also accepts ints and Fractions as-is)."""
    if isinstance(s, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    return Fraction(str(s).strip())


def strict_int(value, name: str) -> int:
    """An int as is; floats, booleans, strings and other types are refused, not coerced."""
    if type(value) is not int:
        raise InvalidInput(f"{name} must be an integer, not {type(value).__name__}")
    return value


def as_ratvec(v: Iterable) -> tuple:
    return tuple(Fraction(c) if isinstance(c, (int, Fraction)) else parse_rat(c) for c in v)


def as_intvec(v: Iterable) -> tuple:
    out = []
    for c in v:
        f = Fraction(c)
        if f.denominator != 1:
            raise ValueError(f"not an integer entry: {c}")
        out.append(f.numerator)
    return tuple(out)


def vdot(a: Sequence, b: Sequence) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def vsub(a: Sequence, b: Sequence) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def primitive(v: Sequence[int], canonical_sign: bool = False) -> tuple:
    """Divide an integer vector by the gcd of its entries.

    With ``canonical_sign`` the result is flipped so its first nonzero entry
    is positive; otherwise the direction is preserved.
    """
    w = tuple(int(c) for c in v)
    g = 0
    for c in w:
        g = gcd(g, abs(c))
    if g == 0:
        raise ZeroVector("cannot primitivize the zero vector")
    w = tuple(c // g for c in w)
    if canonical_sign:
        lead = next(c for c in w if c != 0)
        if lead < 0:
            w = tuple(-c for c in w)
    return w


def lattice_span(vectors: Sequence[Sequence[int]], d: int) -> tuple[int, bool]:
    """Rank and lattice-generation test for a set of integer vectors.

    Returns ``(rank_over_Q, generates_full_lattice)`` where the second entry
    is True iff the integer span of the vectors is all of Z^d.  Decided by an
    exact integer echelon form: the span is the full lattice exactly when
    there are d pivots and every pivot equals 1.
    """
    rows = []
    for v in vectors:
        if len(v) != d:
            raise DimensionMismatch(f"vector of length {len(v)} in dimension {d}")
        rows.append([int(c) for c in v])

    pivots = []
    pr = 0
    for col in range(d):
        if pr >= len(rows):
            break
        # gcd-reduce the column below the current pivot row
        while True:
            nz = [i for i in range(pr, len(rows)) if rows[i][col] != 0]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: abs(rows[i][col]))
            for i in nz:
                if i == i0:
                    continue
                q = rows[i][col] // rows[i0][col]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[i0])]
        nz = [i for i in range(pr, len(rows)) if rows[i][col] != 0]
        if nz:
            i0 = nz[0]
            rows[pr], rows[i0] = rows[i0], rows[pr]
            if rows[pr][col] < 0:
                rows[pr] = [-a for a in rows[pr]]
            pivots.append(rows[pr][col])
            pr += 1
    rank = len(pivots)
    return rank, rank == d and all(p == 1 for p in pivots)


# ---------------------------------------------------------------------------
# exact linear algebra over Q, sized for d <= 4


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [[Fraction(c) for c in r] for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    pr = 0
    for col in range(ncols):
        piv = next((i for i in range(pr, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        inv = m[pr][col]
        m[pr] = [a / inv for a in m[pr]]
        for i in range(len(m)):
            if i != pr and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
        pivots.append(col)
        pr += 1
        if pr == len(m):
            break
    return m, pivots


def rank_rational(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def solve_linear(a_rows: Sequence[Sequence], b: Sequence):
    """Particular solution of A x = b over Q (free variables set to 0), or None."""
    aug = [[Fraction(c) for c in row] + [Fraction(bb)] for row, bb in zip(a_rows, b)]
    ncols = len(a_rows[0])
    m, pivots = rref(aug)
    if ncols in pivots:  # pivot in the constants column: inconsistent
        return None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = m[i][-1]
    return tuple(x)


def nullspace_vector(rows: Sequence[Sequence], ncols: int) -> tuple:
    """A nonzero rational vector orthogonal to all rows; requires rank < ncols."""
    if not rows:
        return tuple([Fraction(1)] + [Fraction(0)] * (ncols - 1))
    m, pivots = rref(rows)
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        raise ValueError("row space has full rank, nullspace is trivial")
    x = [Fraction(0)] * ncols
    x[free] = Fraction(1)
    for i, col in enumerate(pivots):
        x[col] = -m[i][free]
    return tuple(x)


def integer_inverse(rows: Sequence[Sequence[int]]) -> list:
    """Inverse of a unimodular integer matrix, as integer rows."""
    d = len(rows)
    m, _ = rref([list(r) + [int(i == j) for j in range(d)] for i, r in enumerate(rows)])
    return [as_intvec(r[d:]) for r in m]


def lll_reduce(gram: Sequence[Sequence]) -> list:
    """LLL-reduced basis of Z^d, with delta = 3/4, for the positive definite
    rational form ``gram``.

    Exact version of Cohen, *A Course in Computational Algebraic Number
    Theory*, Alg. 2.6.3: the Gram-Schmidt coefficients ``mu`` and squared
    lengths ``bstar`` are updated in place by each size reduction and swap,
    and computed from the form only when a new index is reached.  Returns the
    rows b_1..b_d of a unimodular integer matrix with |mu_kj| <= 1/2 and
    bstar_k >= (delta - mu_{k,k-1}^2) bstar_{k-1}.
    """
    d = len(gram)
    delta = Fraction(3, 4)
    basis = [[int(i == j) for j in range(d)] for i in range(d)]
    mu = [[Fraction(0)] * d for _ in range(d)]
    bstar = [Fraction(0)] * d

    def form(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(d) for j in range(d) if x[i] and y[j])

    def gram_schmidt(k):
        for j in range(k):
            s = form(basis[k], basis[j]) - sum(mu[j][i] * mu[k][i] * bstar[i] for i in range(j))
            mu[k][j] = s / bstar[j]
        bstar[k] = form(basis[k], basis[k]) - sum(mu[k][j] ** 2 * bstar[j] for j in range(k))

    def size_reduce(k, l):
        if 2 * abs(mu[k][l]) <= 1:
            return
        q = round(mu[k][l])
        basis[k] = [a - q * b for a, b in zip(basis[k], basis[l])]
        mu[k][l] -= q
        for i in range(l):
            mu[k][i] -= q * mu[l][i]

    def swap(k, kmax):
        basis[k - 1], basis[k] = basis[k], basis[k - 1]
        for j in range(k - 1):
            mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
        m = mu[k][k - 1]
        b = bstar[k] + m * m * bstar[k - 1]
        mu[k][k - 1] = m * bstar[k - 1] / b
        bstar[k] = bstar[k - 1] * bstar[k] / b
        bstar[k - 1] = b
        for i in range(k + 1, kmax + 1):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]

    gram_schmidt(0)
    k, kmax = 1, 0
    while k < d:
        if k > kmax:
            kmax = k
            gram_schmidt(k)
        size_reduce(k, k - 1)
        if bstar[k] < (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return [tuple(r) for r in basis]


def determinant(rows: Sequence[Sequence]) -> Fraction:
    m = [[Fraction(c) for c in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = m[col][col]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] / inv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


class IncrementalRank:
    """Tracks the rational rank of a growing vector set via row elimination."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: list[list[Fraction]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, v: Sequence) -> bool:
        """Add v if it increases the rank; returns whether it did."""
        red = self._reduce(v)
        if red is None:
            return False
        row, piv = red
        inv = row[piv]
        self._rows.append([a / inv for a in row])
        self._pivots.append(piv)
        return True

    def _reduce(self, v: Sequence):
        row = [Fraction(c) for c in v]
        for r, p in zip(self._rows, self._pivots):
            if row[p] != 0:
                f = row[p]
                row = [a - f * b for a, b in zip(row, r)]
        piv = next((j for j, a in enumerate(row) if a != 0), None)
        if piv is None:
            return None
        return row, piv
