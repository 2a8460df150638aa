"""Exact rational scalars, integer vectors, and the two elimination kernels.

No floating point is used anywhere: inputs are read exactly by
``parse_rat``, the kernels clear denominators and work on ints, and a
``fractions.Fraction`` is built only for a rational answer.  Lattice
questions (the greedy basis and so the rank, lattice generation, the
unimodular U of a lattice chart) go to the integer row echelon kernel
``_insert``: each row is put into an echelon basis of at most ``ncols`` rows
by 2 x 2 extended-gcd steps of determinant 1 (HNF by row insertion, Cohen
1993, §2.4), so ``independent`` reads and ``lattice_span`` eliminates no row
past the one that decides its answer, and ``echelon`` returns the whole form
for the charts.  Determinant-type questions go to ``cofactor_normal``, the
signed minors of d - 1 integer vectors in Z^d, written out for d = 2 and 3
and otherwise from one fraction-free Gauss-Jordan elimination: hull facet
normals, vertex-cone edges,
``determinant`` by expansion along the last row, and through ``cofactors``
the adjugate and the inverse transpose of a unimodular matrix.
``lll_reduce`` is the integral LLL: it carries Gram determinants and scaled
Gram-Schmidt coefficients as ints and builds no Fraction.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul, sub
from typing import Sequence

from .errors import DimensionMismatch, InternalError, InvalidInput, ZeroVector


def rat_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1.

    An int (a bool as 0 or 1) or a Fraction is read as it is; any other
    value goes through ``Fraction(x)`` first.  It is written by ``str``, and
    by ``Decimal`` only past Python's limit on the digits of ``str(int)``,
    which guards parsing (see ``parse_rat``), not output, so an exact answer
    of any length is written out.
    """
    if isinstance(x, int):
        x = int(x)
    elif not isinstance(x, Fraction):
        x = Fraction(x)
    try:
        return str(x)
    except ValueError:  # past the digit limit of str(int)
        if x.denominator == 1:
            return str(Decimal(x.numerator))
        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


_RAT_TOKEN = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rat(s) -> Fraction:
    """A Fraction as it is, an int (not a bool) as a Fraction, for callers
    divide, or a string "p" or "p/q" of ASCII digits with an optional
    leading minus and q != 0.

    Anything else, floats, exponents, spaces and zero denominators included,
    raises InvalidInput rather than being rounded or expanded; so does a
    token past Python's limit on the digits of an int parsed from a string.
    """
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return s if type(s) is Fraction else Fraction(s)
    if isinstance(s, str) and _RAT_TOKEN.fullmatch(s):
        num, _, den = s.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError as exc:
            raise InvalidInput(f"rational token too long: {exc}") from None
        if den == 0:
            raise InvalidInput(f"zero denominator in {s!r}")
        return Fraction(num, den)
    raise InvalidInput(f"not an exact rational (int, Fraction or \"p/q\"): {s!r}")


def strict_int(value, name: str) -> int:
    """An int as is; floats, booleans, strings and other types are refused, not coerced."""
    if type(value) is not int:
        raise InvalidInput(f"{name} must be an integer, not {type(value).__name__}")
    return value


def as_ratvec(v: Sequence, d: int | None = None) -> tuple:
    """The entries of a list or tuple, read by parse_rat; any other value, a
    str, bytes, a dict, a set, a range or a generator, is refused with
    InvalidInput, and given d, a vector read whole of another length with
    DimensionMismatch."""
    if not isinstance(v, (list, tuple)):
        raise InvalidInput(f"expected a list of rationals, not a {type(v).__name__}")
    vec = tuple(parse_rat(c) for c in v)
    if d is not None and len(vec) != d:
        raise DimensionMismatch(f"vector of length {len(vec)} in dimension {d}")
    return vec


def as_intvec(v: Sequence, d: int | None = None) -> tuple:
    """The entries of a list or tuple, read by as_ratvec, each of which must
    be an integer, and given d, then of length d (else DimensionMismatch).
    A list or tuple of ints (no bool) is taken as it is, with no Fraction
    made."""
    if isinstance(v, (list, tuple)) and all(type(c) is int for c in v):
        vec = tuple(v)
    else:
        vec = as_ratvec(v)
        for c in vec:
            if c.denominator != 1:
                raise InvalidInput(f"not an integer entry: {rat_str(c)}")
        vec = tuple(c.numerator for c in vec)
    if d is not None and len(vec) != d:
        raise DimensionMismatch(f"vector of length {len(vec)} in dimension {d}")
    return vec


def vdot(a: Sequence, b: Sequence):
    """Exact dot product: an int for two integer vectors, else a Fraction."""
    return sum(map(mul, a, b))


def vsub(a: Sequence, b: Sequence) -> tuple:
    return tuple(map(sub, a, b))


def clear_denominators(vectors: Sequence[Sequence]) -> tuple[int, list]:
    """(L, [L * v for v in vectors]) for the lcm L of the denominators of
    all entries, so that the scaled vectors are integer tuples."""
    m = lcm(*(c.denominator for v in vectors for c in v))
    return m, [tuple(c.numerator * (m // c.denominator) for c in v) for v in vectors]


def primitive(v: Sequence[int]) -> tuple:
    """Divide an integer vector by the gcd of its entries, keeping its direction.

    Entries are ints or Fractions with denominator 1; any other entry, a
    bool, a float or a proper fraction, raises InvalidInput rather than
    being truncated.
    """
    w = tuple(c if type(c) is int else _integer_entry(c) for c in v)
    g = gcd(*w)
    if g == 0:
        raise ZeroVector("cannot primitivize the zero vector")
    return tuple(c // g for c in w)


def _integer_entry(c) -> int:
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    shown = rat_str(c) if isinstance(c, Fraction) else repr(c)
    raise InvalidInput(f"not an integer entry: {shown}")


# ---------------------------------------------------------------------------
# exact linear algebra over Q, sized for d <= 4: the echelon and cofactor kernels


def _insert(basis: list, pivots: list, row: list) -> None:
    """Insert an integer row into the echelon rows ``basis``, of positive
    leading entries in the increasing columns ``pivots``.

    At each pivot column p where the row has an entry e, the basis row b,
    of leading entry a, and the row become s b + t r and (a r - e b) / g,
    for s a + t e = g = gcd(a, e) (Cohen 1993, §2.4): a step of determinant
    1 that leaves g at p and clears the row there.  A row left nonzero is
    made positive and put in place, as a list of its own; a row cleared to
    zero is dropped.
    """
    n, c, ncols = len(basis), 0, len(row)
    for i in range(n):
        p = pivots[i]
        while c < p and not row[c]:
            c += 1
        if c < p:
            break
        e = row[p]
        if e:
            b = basis[i]
            a = b[p]
            g = gcd(a, e)
            t = pow(e // g, -1, a // g)  # 0 when a divides e, and then s = 1
            if t:
                s = (g - t * e) // a
                basis[i] = [s * x + t * y for x, y in zip(b, row)]
            a, e = a // g, e // g
            row = [a * y - e * x for x, y in zip(b, row)]
        c = p + 1
    else:
        i = n
        while c < ncols and not row[c]:
            c += 1
        if c == ncols:
            return
    basis.insert(i, [-x for x in row] if row[c] < 0 else list(row))
    pivots.insert(i, c)


def _rows_of(rows: Sequence[Sequence], ncols: int):
    """Each row as (m, the ints m * row), m the lcm of its denominators, once
    the lengths of all rows are checked: a row of the wrong length raises
    DimensionMismatch however early the reader stops.  A row of ints is
    yielded as it is, with m = 1."""
    for r in rows:
        if len(r) != ncols:
            raise DimensionMismatch(f"row of length {len(r)} with {ncols} columns")
    for r in rows:
        for c in r:
            if type(c) is not int:
                m = lcm(*(c.denominator for c in r))
                yield m, [c.numerator * (m // c.denominator) for c in r]
                break
        else:
            yield 1, r


def echelon(rows: Sequence[Sequence], ncols: int) -> tuple[list, list]:
    """Integer row echelon form of rational rows by unimodular row operations.

    Each row, times the lcm of its denominators, goes in by ``_insert``.
    Returns ``(rows, pivots)``: the nonzero echelon rows, at most ``ncols``,
    and the column of each row's positive leading entry.
    """
    basis, pivots = [], []
    for _, row in _rows_of(rows, ncols):
        _insert(basis, pivots, row)
    return basis, pivots


def lattice_span(vectors: Sequence[Sequence], d: int) -> tuple[int, bool]:
    """Rank and lattice-generation test for a set of vectors in Q^d.

    Returns ``(rank_over_Q, generates_full_lattice)`` where the second entry
    is True iff the integer span of the vectors is all of Z^d: the vectors
    are integers and their echelon rows have d pivots, each equal to 1.
    It is the rank and the test of ``greedy_span``.
    """
    picked, generates = greedy_span(vectors, d)
    return len(picked), generates


def greedy_span(vectors: Sequence[Sequence], d: int) -> tuple[list, bool]:
    """(picked, generates) for vectors in Q^d from one insertion pass: the
    indices of the greedy basis, as ``independent`` picks them, whose length
    is the rank over Q, and the lattice-generation test of ``lattice_span``.

    Insertion stops at rank d after a non-integral row, or at d unit
    pivots, after which the rows left are only checked to be integral.
    """
    basis, pivots, picked, integral = [], [], [], True
    for i, (m, row) in enumerate(_rows_of(vectors, strict_int(d, "dimension"))):
        integral = integral and m == 1
        _insert(basis, pivots, row)
        if len(pivots) > len(picked):
            picked.append(i)
        if len(pivots) == d:
            if not integral:
                return picked, False
            if all(r[p] == 1 for r, p in zip(basis, pivots)):
                return picked, all(type(c) is int or c.denominator == 1
                                   for v in vectors[i + 1:] for c in v)
    return picked, False


def cofactor_normal(rows: Sequence[Sequence[int]]) -> tuple:
    """The generalized cross product of d - 1 integer rows in Z^d: the vector
    n of signed (d-1) x (d-1) minors with n.x = det(rows; x) for every x.

    n is orthogonal to every row, and it is the zero vector exactly when the
    rows are dependent; for independent rows it spans their orthogonal line.
    For d = 2 and 3 n is written out: (-a1, a0) for one row a, and the
    cross product of two rows.  Otherwise one fraction-free Gauss-Jordan
    elimination (each step divides exactly by the previous pivot, as in
    Bareiss's algorithm, and clears the pivot column above the pivot as well
    as below) turns the rows into D * I on their d - 1 pivot columns, D the
    determinant of those columns up to the sign of the row swaps, and into
    Cramer's minors g on the one free column f; n is then +-(D at f, -g
    elsewhere), at a cost of O(d^3).
    """
    d = len(rows) + 1
    for r in rows:
        if len(r) != d:
            raise DimensionMismatch(f"{d - 1} rows not all of length {d}")
    if d == 3:
        (a0, a1, a2), (b0, b1, b2) = rows
        return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    if d == 2:
        a0, a1 = rows[0]
        return (-a1, a0)
    work = list(rows)
    sign, prev, placed, free = 1, 1, 0, d - 1
    for col in range(d):
        if placed == d - 1:
            break
        i = placed
        while i < d - 1 and not work[i][col]:
            i += 1
        if i == d - 1:
            if placed < col:
                return (0,) * d  # a second column without a pivot: rank < d - 1
            free = col
            continue
        if i != placed:
            work[i], work[placed] = work[placed], work[i]
            sign = -sign
        top = work[placed]
        piv = top[col]
        for i in range(d - 1):
            if i != placed:
                a = work[i][col]
                work[i] = [(piv * x - a * y) // prev for x, y in zip(work[i], top)]
        prev = piv
        placed += 1
    # n_f = (-1)^(d-1+f) det(pivot columns); the swaps made D = sign * det
    if (d - 1 + free) % 2:
        sign = -sign
    normal = [-sign * r[free] for r in work]
    normal.insert(free, sign * prev)
    return tuple(normal)


def determinant(rows: Sequence[Sequence]):
    """Determinant of a square rational matrix by cofactor expansion along
    its last row: each row times the lcm m of its denominators, the cofactor
    normal of all but the last dotted with the last, divided by the product
    of the m.  An int when that product is 1, as for integer rows, else a
    Fraction; 1 for the empty matrix."""
    if not rows:
        return 1
    scales, ints = zip(*_rows_of(rows, len(rows)))
    det, scale = vdot(cofactor_normal(ints[:-1]), ints[-1]), prod(scales)
    return det if scale == 1 else Fraction(det, scale)


def matvec(rows: Sequence[Sequence], v: Sequence) -> tuple:
    """The product of a matrix, given by its rows, and a vector."""
    return tuple(vdot(row, v) for row in rows)


def cofactors(M: Sequence[Sequence[int]]) -> tuple[list, int]:
    """The cofactor matrix C of a square integer matrix M, and det M.

    Row i of C is (-1)^(d-1-i) times the cofactor normal of the other rows,
    which moves x from the last row of det(...; x) to row i; expanding along
    row 0 gives det M = C_0 . M_0."""
    d = len(M)
    C = [tuple((-1) ** (d - 1 - i) * c for c in cofactor_normal(M[:i] + M[i + 1:]))
         for i in range(d)]
    return C, vdot(C[0], M[0])


def inverse_transpose(B: Sequence[Sequence[int]]) -> list:
    """B^-T of a unimodular integer matrix B: its cofactor matrix divided by
    det B = +-1."""
    C, det = cofactors(B)
    if det not in (1, -1):
        raise InternalError(f"matrix of determinant {det} is not unimodular")
    return [tuple(det * c for c in row) for row in C]


def independent(vectors: Sequence[Sequence], k: int | None = None) -> list:
    """Indices of the vectors independent of all vectors before them, the
    greedy basis, whose size is the rank over Q; with k, only its first k.
    No vector past the one that brings the count to k, or the rank to full,
    is read."""
    ncols, picked, basis, pivots = len(vectors[0]) if vectors else 0, [], [], []
    k = ncols if k is None else min(k, ncols)
    for i, (_, row) in enumerate(_rows_of(vectors, ncols)):
        _insert(basis, pivots, row)
        if len(pivots) > len(picked):
            picked.append(i)
            if len(picked) == k:
                break
    return picked


def lll_reduce(gram: Sequence[Sequence]) -> list:
    """LLL-reduced basis of Z^d, with delta = 3/4, for the positive definite
    rational form ``gram``; a positive multiple of the form gives the same
    basis, so a form with a Fraction entry is first cleared to ints.

    Integral LLL, Cohen, *A Course in Computational Algebraic Number
    Theory*, Alg. 2.6.7: it carries the Gram determinant d_j of the first j
    rows (d_0 = 1) and lam_kj = d_j mu_kj, all integers, and updates them
    on a swap with exact integer divisions.  Its decisions are those of the
    rational Alg. 2.6.3: mu_kl is rounded half to even, as ``round`` does a
    Fraction, and the swap test bstar_k < (3/4 - mu^2) bstar_{k-1} reads
    4 d_k d_{k-2} < 3 d_{k-1}^2 - 4 lam_{k,k-1}^2.  Returns the rows
    b_1..b_d of a unimodular integer matrix with |mu_kj| <= 1/2 and
    bstar_k >= (delta - mu_{k,k-1}^2) bstar_{k-1}.
    """
    d = len(gram)
    G = gram
    if not all(type(c) is int for r in gram for c in r):
        _, G = clear_denominators(gram)
    basis = [[int(i == j) for j in range(d)] for i in range(d)]
    dets = [1] * (d + 1)  # dets[j] = d_j, the Gram determinant of the first j rows
    lam = [[0] * d for _ in range(d)]  # lam[k][j] = dets[j + 1] mu_kj for rows k > j

    def reduce(k, l):
        x, dl = lam[k][l], dets[l + 1]
        if 2 * abs(x) <= dl:
            return
        q, r = divmod(2 * x + dl, 2 * dl)
        if r == 0 and q % 2:
            q -= 1
        basis[k] = [a - q * b for a, b in zip(basis[k], basis[l])]
        lam[k][l] = x - q * dl
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def extend(k):  # the data of row k, the first time k is reached, while it is e_k
        for j in range(k + 1):
            u = vdot(G[k], basis[j])
            for i in range(j):
                u = (dets[i + 1] * u - lam[k][i] * lam[j][i]) // dets[i]
            if j < k:
                lam[k][j] = u
        if u <= 0:
            raise InvalidInput("the form is not positive definite")
        dets[k + 1] = u

    if d:
        extend(0)
    k, kmax = 1, 0
    while k < d:
        if k > kmax:
            kmax = k
            extend(k)
        reduce(k, k - 1)
        x = lam[k][k - 1]
        if 4 * dets[k + 1] * dets[k - 1] < 3 * dets[k] ** 2 - 4 * x * x:
            basis[k - 1], basis[k] = basis[k], basis[k - 1]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            b = (dets[k - 1] * dets[k + 1] + x * x) // dets[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (dets[k + 1] * lam[i][k - 1] - x * t) // dets[k]
                lam[i][k - 1] = (b * t + x * lam[i][k]) // dets[k + 1]
            dets[k] = b
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return [tuple(r) for r in basis]
