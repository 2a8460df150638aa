"""Linear-algebra references shared by the tests: a kernel vector and the
unique solution of a linear system, by back-substitution up the rows of
``core.echelon``, the rational LLL that recomputes its Gram-Schmidt data
from the form at each step, and Gaussian elimination in Fractions with the
rank, determinant, greedy basis and lattice-generation test read off it,
the suffix-sum box count by Newton difference tables and its volume by
Fraction polynomials, the lattice width by a scan of a dual box, the
flatness data off the list of all interior points, the successive minima
by a scan of the standard box, the width as the first minimum of the
polar of P - P, and the polar by the bipolarity formula in Fractions.
The library reads its lattice charts off a unimodular matrix and needs
neither of the first two, its LLL is the integral one, its elimination
inserts integer rows with unimodular steps, its box count and volume are
O(d^2) integer recurrences, and its flatness report reads two points per
run of the walk; the tests
keep these as references, and the volume by a determinant fan over a
triangulated boundary as well.  The test bodies ``box`` and ``simplex``
live here too."""

import math
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import gcd
from typing import Sequence

from latmin.core import echelon, independent, lattice_span, vdot, vsub
from latmin.errors import InternalError
from latmin.gon import gauge, successive_minima
from latmin.polytope import convex_hull, difference_body, lattice_points, polar
from latmin.postulation import _as_params, box_volume_closed_form


def box(*sides):
    """Hull of prod [0, s_i]."""
    d = len(sides)
    corners = [tuple(s if bit else 0 for s, bit in zip(sides, bits))
               for bits in product((0, 1), repeat=d)]
    return convex_hull(corners, d)


def simplex(d, w=1):
    pts = [tuple(0 for _ in range(d))]
    for i in range(d):
        pts.append(tuple(w if j == i else 0 for j in range(d)))
    return convex_hull(pts, d)


def kernel_vector(rows: Sequence[Sequence], ncols: int):
    """A nonzero integer vector orthogonal to all rows, or None when the rows
    have rank ``ncols``.

    The first non-pivot column gets 1 and the other free columns 0.
    Back-substitution up the echelon rows stays fraction-free: where a pivot
    does not divide its row's remainder, the whole vector is scaled first.
    """
    ech, pivots = echelon(rows, ncols)
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


def lll_reduce(gram: Sequence[Sequence]) -> list:
    """LLL-reduced basis of Z^d, with delta = 3/4, for the positive definite
    rational form ``gram``; a positive multiple of the form gives the same
    basis, so an integer form serves as well.

    Exact version of Cohen, *A Course in Computational Algebraic Number
    Theory*, Alg. 2.6.3, without its swap update: each step computes the
    Gram-Schmidt ``mu`` and ``bstar`` of b_1..b_k from the form, exact values
    equal to the carried ones, so a swap exchanges two rows and nothing else.
    Returns the rows b_1..b_d of a unimodular integer matrix with
    |mu_kj| <= 1/2 and bstar_k >= (delta - mu_{k,k-1}^2) bstar_{k-1}.
    """
    d = len(gram)
    delta = Fraction(3, 4)
    basis = [[int(i == j) for j in range(d)] for i in range(d)]

    def form(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(d) for j in range(d) if x[i] and y[j])

    def gram_schmidt(k):
        mu, bstar = [], []
        for r in range(k + 1):
            mu.append([])
            for j in range(r):
                s = form(basis[r], basis[j]) - sum(mu[j][i] * mu[r][i] * bstar[i] for i in range(j))
                mu[r].append(Fraction(s, bstar[j]))
            bstar.append(form(basis[r], basis[r]) - sum(m * m * b for m, b in zip(mu[r], bstar)))
        return mu, bstar

    def size_reduce(mu, k, l):
        if 2 * abs(mu[k][l]) <= 1:
            return
        q = round(mu[k][l])
        basis[k] = [a - q * b for a, b in zip(basis[k], basis[l])]
        mu[k][l] -= q
        for i in range(l):
            mu[k][i] -= q * mu[l][i]

    k = 1
    while k < d:
        mu, bstar = gram_schmidt(k)
        size_reduce(mu, k, k - 1)
        if bstar[k] < (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            basis[k - 1], basis[k] = basis[k], basis[k - 1]
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(mu, k, l)
            k += 1
    return [tuple(r) for r in basis]


def gauss(rows: Sequence[Sequence], ncols: int) -> tuple[int, Fraction]:
    """(rank, det) by Gaussian elimination over Q in Fractions, with a row
    swap wherever a pivot column has a zero on the diagonal; det is the
    determinant of a square input and 0 for one of lower rank."""
    work = [[Fraction(c) for c in r] for r in rows]
    det, r = Fraction(1), 0
    for col in range(ncols):
        i = next((i for i in range(r, len(work)) if work[i][col]), None)
        if i is None:
            det = Fraction(0)
            continue
        if i != r:
            work[r], work[i] = work[i], work[r]
            det = -det
        det *= work[r][col]
        for j in range(r + 1, len(work)):
            f = work[j][col] / work[r][col]
            work[j] = [a - f * b for a, b in zip(work[j], work[r])]
        r += 1
    return r, det


def greedy_basis(vectors: Sequence[Sequence]) -> list:
    """Indices of the vectors that raise the rank of those before them."""
    picked = []
    for i, v in enumerate(vectors):
        if gauss([vectors[j] for j in picked] + [v], len(v))[0] > len(picked):
            picked.append(i)
    return picked


def generates_lattice(vectors: Sequence[Sequence], d: int) -> bool:
    """Whether the integer span of the vectors is Z^d: they are integral and
    their d x d minors have gcd 1 (Cohen 1993, §2.4)."""
    if any(Fraction(c).denominator != 1 for v in vectors for c in v):
        return False
    minors = [int(gauss(sub, d)[1]) for sub in combinations(vectors, d)]
    return gcd(*minors) == 1


def _sum_below(values, m: int) -> int:
    """Sum of p(s) over 0 <= s < m for the polynomial p through the points
    (s, values[s]): in Newton's form p(s) = sum_k D^k p(0) C(s, k), so the
    sum is sum_k D^k p(0) C(m, k + 1)."""
    total, diffs = 0, list(values)
    for k in range(len(values)):
        total += diffs[0] * math.comb(m, k + 1)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return total


def newton_box_count(t) -> int:
    """Number of lattice points of the suffix-sum box, in O(d^3) integer
    operations whatever the size of the parameters.

    A point is the chain of its suffix sums S_1 >= ... >= S_d >= 0, and since
    S_i <= S_j for j < i the constraints read S_i <= c_i = floor(min(t_1..t_i)),
    so c_1 >= ... >= c_d.  The number g_i(y) of chains S_1..S_i with S_i >= y
    is the running sum of g_{i-1}(s) over y <= s <= c_i.  As y <= c_i <= c_{i-1}
    throughout, g_i is one polynomial of degree i on the range that matters,
    kept by its values at y = 0..i; the count is g_d(0).
    """
    caps = [math.floor(m) for m in accumulate(_as_params(t), min)]
    g = [1]  # g_0 = 1
    for i, c in enumerate(caps):
        top = _sum_below(g, c + 1)
        g = [top - _sum_below(g, y) for y in range(i + 2)]
    return g[0]


def polynomial_box_volume(t) -> Fraction:
    """Exact volume of the suffix-sum box, the integral twin of box_count.

    The map from x to its suffix sums is unimodular, so the volume is that of
    the chains S_1 >= ... >= S_d >= 0 with S_i <= c_i = min(t_1..t_i).  The
    volume h_i(y) of the chains S_1..S_i with S_i >= y is the integral of
    h_{i-1} over [y, c_i], one polynomial of degree i on the range that
    matters, kept by its Fraction coefficients; the volume is h_d(0).

    For d <= 3 the closed form is evaluated as well, at the nonincreasing
    prefix minima c, whose box is the box of t, and must agree.
    """
    caps = list(accumulate(_as_params(t), min))
    h = [Fraction(1)]  # h_0 = 1, coefficients of y^0, y^1, ...
    for c in caps:
        integral = [a / (k + 1) for k, a in enumerate(h)]  # of y^(k+1)
        top = sum(a * c ** (k + 1) for k, a in enumerate(integral))
        h = [top] + [-a for a in integral]
    vol = h[0]
    if len(caps) <= 3:
        closed = box_volume_closed_form(caps)
        if closed != vol:
            raise InternalError(f"closed form {closed} != chain integral {vol}")
    return vol


def volume_by_determinant_fan(L, simplices):
    """Volume of a polytope from a triangulation of its boundary: the cones
    from the least corner, one of its vertices, over the simplices, each d
    integer corners over L, as the sum of their |det| in Fractions over
    L^d d!.  The cones over the simplices through that corner are flat."""
    apex = min(c for s in simplices for c in s)
    d = len(apex)
    total = sum(abs(gauss([vsub(c, apex) for c in s], d)[1]) for s in simplices)
    return total / (L ** d * math.factorial(d))


def width_by_brute_force(P):
    """Minimum functional interval length over an exhaustive dual box.

    The search radius is a verified a-priori bound: the width witness lies in
    w*K_star, so its sup-norm is at most (width along e_1) times the largest
    coordinate magnitude over K_star.
    """
    d = P.ambient_dim
    dual = polar(difference_body(P))
    w1 = min(max(v[j] for v in P.vertices) - min(v[j] for v in P.vertices)
             for j in range(d))
    maxcoord = max(abs(c) for v in dual.vertices for c in v)
    B = -int(-(w1 * maxcoord) // 1)  # ceil
    best = None
    for phi in product(range(-B, B + 1), repeat=d):
        if all(c == 0 for c in phi):
            continue
        vals = [vdot(phi, v) for v in P.vertices]
        length = max(vals) - min(vals)
        if best is None or length < best:
            best = length
    return best


def flatness_by_point_list(P):
    """(count, rank, spans, first point, spanning points) of the interior
    lattice points of a full-dimensional P, off the list of all of them:
    the greedy ``independent`` differences from the first point, and
    ``lattice_span`` of all the differences.  Points are lists; the first
    point is None for an empty interior."""
    interior = lattice_points(P, "interior")
    diffs = [vsub(a, interior[0]) for a in interior]
    rank, spans = lattice_span(diffs, P.ambient_dim)
    span_points = [list(p) for p in interior[:1] + [interior[i] for i in independent(diffs)]]
    return (len(interior), rank, spans, list(interior[0]) if interior else None, span_points)


def standard_box(K):
    """Integer ranges of the bounding box of R*K, R the largest gauge of a unit vector."""
    d = K.ambient_dim
    R = max(gauge(K, tuple(int(i == j) for i in range(d))) for j in range(d))
    return R, [range(math.ceil(R * min(v[j] for v in K.vertices)),
                     math.floor(R * max(v[j] for v in K.vertices)) + 1) for j in range(d)]


def minima_by_standard_basis(K):
    """Reference minima in the standard basis: every nonzero integer point of
    the bounding box of R*K with gauge at most R, ranked by (gauge, x) and
    taken greedily while the rank grows, signs normalized."""
    d = K.ambient_dim
    R, ranges = standard_box(K)
    ranked = sorted((gauge(K, x), x) for x in product(*ranges) if any(x))
    lambdas, witnesses = [], []
    for g, x in ranked:
        if g <= R and lattice_span(witnesses + [x], d)[0] > len(witnesses):
            lambdas.append(g)
            witnesses.append(x)
    assert len(witnesses) == d
    canon = tuple(w if next(c for c in w if c) > 0 else tuple(-c for c in w) for w in witnesses)
    return tuple(lambdas), canon


def width_by_polar_minima(P):
    """Reference: the first minimum of polar(P - P) and its witness."""
    sm = successive_minima(polar(difference_body(P)), 1)
    return sm.lambdas[0], sm.witnesses[0]


def reference_polar(K):
    """Reference: the bipolarity formula in Fractions.  The vertices are the
    a / b of K's facets a.x <= b, and each vertex v of K gives the facet
    (m v / g) . y <= m / g, m the lcm of v's denominators and g the gcd of
    m v."""
    vertices = sorted(tuple(Fraction(c) / b for c in a) for a, b in K.facets)
    facets = []
    for v in K.vertices:
        m = math.lcm(*(Fraction(c).denominator for c in v))
        w = [int(c * m) for c in v]
        g = math.gcd(*w)
        facets.append((tuple(c // g for c in w), Fraction(m, g)))
    return tuple(vertices), tuple(sorted(facets))
