"""Geometry-of-numbers engine.

Gauge functions, successive minima with witness vectors, those of the polar
body read off the body's own vertices, lattice width, and exact verifiers
for the second theorem of Minkowski, the transference theorem, the sharp
two-dimensional transference bound, and the flatness theorem family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .core import (
    as_ratvec,
    clear_denominators,
    cofactors,
    greedy_span,
    independent,
    inverse_transpose,
    lll_reduce,
    rat_str,
    strict_int,
    vdot,
    vsub,
)
from .errors import DimensionDeficient, DimensionMismatch, InvalidInput
from .polytope import Polytope, SymmetricBody, difference_body, volume
from .report import HOLDS, TheoremReport, verdict
from .walk import integer_system, runs


@dataclass(frozen=True)
class SuccessiveMinima:
    """The nondecreasing minima of a symmetric body with independent witnesses."""

    d: int
    lambdas: tuple
    witnesses: tuple

    def to_json(self) -> dict:
        return {
            "lambdas": [rat_str(x) for x in self.lambdas],
            "witnesses": [list(w) for w in self.witnesses],
        }


@dataclass(frozen=True)
class WidthResult:
    width: Fraction
    witness: tuple

    def to_json(self) -> dict:
        return {"width": rat_str(self.width), "witness": list(self.witness)}


def gauge(K: SymmetricBody, x) -> Fraction:
    """min{t >= 0 : x in tK}, the largest facet ratio a.x / b.

    x is scaled once to the integer vector m * x; with (M, W) =
    ``K.dual_vertices``, M times the gauge of m * x is the int max W.(m x),
    so one Fraction is built, for the result.  A point of the wrong length
    raises DimensionMismatch, and a K that is no SymmetricBody InvalidInput.
    """
    if not isinstance(K, SymmetricBody):
        raise InvalidInput(f"the gauge needs a SymmetricBody, not a {type(K).__name__}")
    m, (xs,) = clear_denominators([as_ratvec(x, K.ambient_dim)])
    M, W = K.dual_vertices
    return Fraction(max([vdot(w, xs) for w in W]), M * m)


def successive_minima(K: SymmetricBody, k: int | None = None) -> SuccessiveMinima:
    """Exact first k successive minima of (Z^d, K), each with a witness vector.

    ``k`` defaults to d; a k that is not an int in 1..d, a bool or a float
    included, raises InvalidInput.  Vectors are ranked by (gauge,
    lexicographic order) and a witness is taken greedily whenever it
    increases the rank, so the first k minima are the length-k prefix of all
    d.  Witness signs are normalized so the first nonzero entry is positive.
    The longest result is kept on K and later calls take their prefix of it.
    ``_least`` reads the rows W over M of ``K.dual_vertices``, in the dual
    basis of K's reduction ``_basis``, in the polar box it proves.
    """
    def minima(k):
        M, W = K.dual_vertices
        B, diag = _basis(K)
        L = K.integer_vertices[0]
        return _least(W, M, k, inverse_transpose(B)[::-1], (diag[::-1], (M * L) ** 2))
    return _kept(K, "_minima", k, minima)


def dual_minima(K: SymmetricBody, k: int | None = None) -> SuccessiveMinima:
    """``successive_minima(polar(K), k)``, read off K with no polar body.

    The gauge of polar(K) at a is max |a.x| / L over K's integer vertices x
    over their L, so ``_least`` takes those as its rows, with the scale L,
    in the basis B of K's reduction ``_basis`` and the ellipsoid box of
    those rows; the ranking and the sign rule give the same minima and
    witnesses.  k is checked, and the result kept on K, as by
    ``successive_minima``.
    """
    def minima(k):
        L, xs = K.integer_vertices
        return _least(xs, L, k, _basis(K)[0])
    return _kept(K, "_dual_minima", k, minima)


def _basis(K: SymmetricBody) -> tuple:
    """The reduction (B, diag) both minima passes of K walk in, kept on K:
    the one ``difference_body`` handed to K, else ``_reduce`` of K's
    integer vertices."""
    if K._basis is None:
        K._basis = _reduce(K.ambient_dim, K.integer_vertices[1])
    return K._basis


def _reduce(d: int, points) -> tuple:
    """(B, diag): B = ``lll_reduce`` of the points form G = ``_form`` of
    the integer points x > 0 of ``points``, and diag the diagonal of
    B G B^T."""
    G = _form(d, _half(points))
    B = lll_reduce(G)
    return B, [sum(map(mul, b, [sum(map(mul, row, b)) for row in G])) for b in B]


def _kept(K: SymmetricBody, slot: str, k, minima) -> SuccessiveMinima:
    """The first k minima, k d by default and refused with InvalidInput
    unless an int in 1..d, off the result kept in K's ``slot``, replaced by
    ``minima(k)`` when it is shorter.  A K that is not a SymmetricBody is
    refused with InvalidInput."""
    if not isinstance(K, SymmetricBody):
        raise InvalidInput(f"minima need a SymmetricBody, not a {type(K).__name__}")
    d = K.ambient_dim
    k = d if k is None else strict_int(k, "k")
    if not 1 <= k <= d:
        raise InvalidInput(f"k must be in 1..{d}, got {k}")
    sm = getattr(K, slot)
    if sm is None or len(sm.lambdas) < k:
        sm = minima(k)
        setattr(K, slot, sm)
    if len(sm.lambdas) > k:
        sm = SuccessiveMinima(d, sm.lambdas[:k], sm.witnesses[:k])
    return sm


def lattice_width(P: Polytope) -> WidthResult:
    """Lattice width of P: the least max a.v - min a.v over the vertices v of
    P and the nonzero integer functionals a, which is the first minimum of
    polar(P - P), with a witness a.  Built once per polytope, and never
    builds P - P or its polar itself.

    The support function of P - P is h_P(a) + h_P(-a), so the width along a
    is max |a.x| / L over the differences x = u - v of P's integer vertices
    over their L, the gauge ``dual_minima`` reads off the vertices of a kept
    P - P, which has P's L.  Candidates are ranked alike for any rows and
    any k, so the first dual minimum is the same number and witness:

    * a kept P - P gives ``dual_minima`` of it: all d of them when it
      keeps all d of its minima and no dual minima (transference: a cost
      like that of the minima), else the first, a kept prefix if any;
    * else ``_least`` reads the differences u - v, u > v, with k = 1, in
      the basis of their ``_reduce``, kept on P for its P - P.
    """
    if not P.is_full_dimensional:
        raise DimensionDeficient("width requires a full-dimensional polytope")
    if P._width is None:
        K = P._difference
        if K is None:
            L, verts = P.integer_vertices
            diffs = list({vsub(u, v) for u in verts for v in verts if u > v})
            P._reduction = _reduce(P.ambient_dim, diffs)
            sm = _least(diffs, L, 1, P._reduction[0])
        else:
            full = (K._dual_minima is None and K._minima is not None
                    and len(K._minima.lambdas) == P.ambient_dim)
            sm = dual_minima(K, None if full else 1)
        P._width = WidthResult(sm.lambdas[0], sm.witnesses[0])
    return P._width


def _form(d: int, rows) -> list:
    """The integer form sum of r r^T over the rows r."""
    return _gram([[r[i] for r in rows] for i in range(d)])


def _gram(cols) -> list:
    """The integer form of the columns c_i, whose entry (i, j) is c_i.c_j."""
    return [[sum(map(mul, a, b)) for b in cols] for a in cols]


def _half(rows) -> list:
    """The integer rows r > 0, one of each +- pair of a list closed under
    negation."""
    zero = (0,) * len(rows[0])
    return [r for r in rows if r > zero]


def _least(rows, scale: int, k: int, basis, box=None) -> SuccessiveMinima:
    """First k minima and witnesses of the body {x : |r.x| <= scale for every
    row r}, for integer rows r and an int scale > 0, walked in the
    unimodular integer ``basis`` of Z^d.  The rows come closed under
    negation, or one per +- pair, and only the rows r > 0 are read, so each
    pair once.  ``box`` is (w, q), the box |y_j| <= sqrt(R^2 w_j / q) of the
    walk at radius R; by default it is the rows' own ellipsoid box.  Either
    box holds every point of g <= R:

    * the ellipsoid box.  With m rows the form G = ``_form(d, rows)``
      sandwiches g: g(x)^2 <= x^T G x <= m g(x)^2, so the walked points lie
      in the ellipsoid y^T G_B y <= m R^2, G_B = B G B^T = ``_gram`` of the
      normals' d columns, the lists of the B_j.r over the rows r, whose box
      is |y_j| <= sqrt(m R^2 (G_B^-1)_jj) (Fincke-Pohst): w_j = m C_jj and
      q = det G_B for the cofactors C of G_B.  It is tight when B is
      reduced for G.  The points passes take it.
    * the polar box, which the facets pass of a symmetric body K takes
      with the rows W over M of ``K.dual_vertices``.  Let G be the form of
      a reduction (B', diag) of ``_basis``, on integer points x with
      x / L in K.  The ellipsoid E = {a : a^T G a <= L^2} lies in the
      polar of K, for (a.x)^2 <= a^T G a for each point x, and K is their
      hull.  So the gauge of K at x, the support function of its polar, is
      at least that of E, L sqrt(x^T G^-1 x).  In the basis B = B'^-T,
      x = B^T y gives x^T G^-1 x = y^T G_B'^-1 y, G_B' = B' G B'^T, so a
      point with M times its gauge at most R lies in the ellipsoid y^T
      G_B'^-1 y <= (R / (M L))^2, whose box is |y_j| <= sqrt(R^2
      (G_B')_jj) / (M L): w = diag and q = (M L)^2, with no cofactors.
      B's rows may come in any order, the weights permuted alike, and
      ``successive_minima`` reverses them: the range of y_j grows with
      (G_B')_jj, B' puts its shortest rows first, so the cut y_1 >= 0
      below then falls on the widest range and halves the walk.

    All on ints: scale times the gauge of an integer x is the int g(x) =
    max |r.x|.  At x = B^T y for the basis B, r.x = n.y for the reduced
    normals n = B r, so g(x) is max |n.y| and g of row j of B is max |n_j|.
    R is the k-th smallest of those, so k independent rows of B lie among
    the points y with |n.y| <= R, and one pass finds k witnesses: the walk
    gets the m pairs (n, R), each the row |n.y| <= R, in the box above.
    y -> -y maps x to -x, so only the half y_1 >= 0 of the box is
    enumerated.  Each run carries the values n.prefix of the pairs, so g at
    the run's point prefix + (t,) is max |n.prefix + n_d t|, one product
    per row and no dot product; that is why the rows go to the walk as
    pairs and not as 2m one-sided rows.
    Candidates are ranked by (g, min(x, -x)) in the original coordinates,
    so the result does not depend on B or on the box.  One pass over the
    runs builds x for each walked y != 0, the only point of g = 0 since the
    rows span, as B^T (prefix, 0), once per run, plus t times B's last row;
    every walked point has g <= R.  k = 1 takes the least candidate, else
    the first k ``independent`` ones are taken, with no candidate past the
    k-th read.  A witness is -min(x, -x), whose first nonzero entry is
    positive, and a Fraction g / scale is made only for each minimum
    returned.
    """
    rows = _half(rows)
    d = len(basis)
    reduced = [[sum(map(mul, b, r)) for r in rows] for b in basis]  # the normals' columns
    R = sorted([max(map(abs, col)) for col in reduced])[k - 1]
    if box is None:
        C, det = cofactors(_gram(reduced))  # of G_B
        box = [len(rows) * C[j][j] for j in range(d)], det
    weights, q = box
    his = [math.isqrt(R * R * w // q) for w in weights]
    last, step = reduced[-1], basis[-1]
    to_x = [col[:-1] for col in zip(*basis)]
    candidates = []
    for prefix, lo, hi, values in runs([], [0] + [-h for h in his[1:]], his,
                                       [(n, R) for n in zip(*reduced)]):
        base = [sum(map(mul, col, prefix)) for col in to_x]  # B^T (prefix, 0)
        for t in range(lo, hi + 1):
            g = max([abs(u + c * t) for u, c in zip(values, last)])
            if g:  # the rows span: g = 0 at y = 0 only
                x = tuple([u + c * t for u, c in zip(base, step)])
                candidates.append((g, min(x, tuple([-c for c in x]))))
    candidates.sort()
    picked = candidates[:1] if k == 1 else [
        candidates[i] for i in independent([x for _, x in candidates], k)]
    return SuccessiveMinima(d, tuple(Fraction(g, scale) for g, _ in picked),
                            tuple(tuple(-c for c in v) for _, v in picked))


# ---------------------------------------------------------------------------
# theorem verifiers


def verify_minkowski_second(P: Polytope) -> TheoremReport:
    """Check 1/d! <= vol(P) * prod lambda_i(P - P) <= 1 exactly."""
    if not P.is_full_dimensional:
        raise DimensionDeficient("requires a full-dimensional polytope")
    d = P.ambient_dim
    vol = volume(P)
    sm = successive_minima(difference_body(P))
    prod = vol
    for lam in sm.lambdas:
        prod *= lam
    lower = Fraction(1, math.factorial(d))
    ok = lower <= prod <= 1
    return TheoremReport(
        theorem="minkowski_second",
        quantities={
            "dim": str(d),
            "vol": rat_str(vol),
            "lambda": [rat_str(x) for x in sm.lambdas],
            "product": rat_str(prod),
            "lower": rat_str(lower),
            "upper": "1",
        },
        verdict=verdict(ok),
        witnesses={"minima_witnesses": [list(w) for w in sm.witnesses]},
    )


def verify_transference(K: SymmetricBody) -> TheoremReport:
    """Check 1 <= lambda_i(K) * lambda_{d-i+1}(K*) <= d for every i."""
    d = K.ambient_dim
    sm = successive_minima(K)
    sm_dual = dual_minima(K)
    pairings = [sm.lambdas[i] * sm_dual.lambdas[d - 1 - i] for i in range(d)]
    ok = all(1 <= p <= d for p in pairings)
    return TheoremReport(
        theorem="transference",
        quantities={
            "dim": str(d),
            "lambda": [rat_str(x) for x in sm.lambdas],
            "lambda_dual": [rat_str(x) for x in sm_dual.lambdas],
            "pairings": [rat_str(p) for p in pairings],
            "upper": str(d),
        },
        verdict=verdict(ok),
        witnesses={
            "minima_witnesses": [list(w) for w in sm.witnesses],
            "dual_witnesses": [list(w) for w in sm_dual.witnesses],
        },
    )


def verify_sharp_2d(K: SymmetricBody) -> TheoremReport:
    """Check 1 <= lambda_1(K) * lambda_2(K*) <= 3/2 in dimension two."""
    if K.ambient_dim != 2:
        raise DimensionMismatch("sharp transference bound is two-dimensional")
    sm = successive_minima(K)
    sm_dual = dual_minima(K)
    prod = sm.lambdas[0] * sm_dual.lambdas[1]
    ok = 1 <= prod <= Fraction(3, 2)
    return TheoremReport(
        theorem="sharp_2d_transference",
        quantities={
            "lambda_1": rat_str(sm.lambdas[0]),
            "lambda_2_dual": rat_str(sm_dual.lambdas[1]),
            "product": rat_str(prod),
            "upper": "3/2",
        },
        verdict=verdict(ok),
        witnesses={
            "lambda_1_witness": list(sm.witnesses[0]),
            "lambda_2_dual_witness": list(sm_dual.witnesses[1]),
        },
    )


def flatness_report(P: Polytope) -> TheoremReport:
    """Check the flatness theorem items on P.

    Items: (a) w > d^2 implies an interior lattice point exists; (b)
    w > d(d+1) implies the interior points affinely span R^d; (c) w > 2d^2
    implies their differences generate Z^d; (basis) w > d^2 + d implies d+1
    interior points whose differences form a basis of R^d; (d) the d-th
    power bound d!|A| >= (w/d - d)^d when the right side is nonnegative; (e)
    d! vol >= (w/d)^d.  Conclusions are evaluated even when a hypothesis
    fails, in which case the item is recorded as vacuously holding.

    The interior is read off the walk's runs, with no list: the count sums
    hi - lo + 1, and a run keeps only its points at lo and lo + 1, which
    generate its differences, p_t - p_lo = (t - lo) e_d; so the greedy
    spanning points, the rank and the generation test are those of all.
    One ``greedy_span`` pass over the differences gives all three.
    """
    if not P.is_full_dimensional:
        raise DimensionDeficient("requires a full-dimensional polytope")
    d = P.ambient_dim
    wr = lattice_width(P)
    w = wr.width
    count, points = 0, []
    for prefix, lo, hi, _ in runs(*integer_system(P, "interior")):
        count += hi - lo + 1
        points += [(*prefix, t) for t in range(lo, min(hi, lo + 1) + 1)]
    vol = volume(P)
    picked, spans = greedy_span([vsub(a, points[0]) for a in points], d)
    span_points = points[:1] + [points[i] for i in picked]
    rank = len(picked)

    def item(hypothesis: bool, conclusion: bool) -> str:
        if not hypothesis:
            return "holds_vacuous"
        return HOLDS if conclusion else "violated"

    rhs_d = Fraction(w, d) - d
    items = {
        "a": item(w > d * d, count > 0),
        "b": item(w > d * (d + 1), rank == d),
        "c": item(w > 2 * d * d, spans),
        "basis": item(w > d * d + d, rank == d),
        "d": "holds_vacuous" if rhs_d < 0 else verdict(
            math.factorial(d) * count >= rhs_d ** d),
        "e": verdict(math.factorial(d) * vol >= Fraction(w, d) ** d),
    }
    ok = all(s != "violated" for s in items.values())

    witnesses = {"width_functional": list(wr.witness)}
    if points:
        witnesses["interior_point"] = list(points[0])
        witnesses["spanning_points"] = [list(p) for p in span_points]
    return TheoremReport(
        theorem="flatness",
        quantities={
            "dim": str(d),
            "w": rat_str(w),
            "interior_count": str(count),
            "interior_rank": str(rank),
            "interior_spans": "1" if spans else "0",
            "vol": rat_str(vol),
        },
        verdict=verdict(ok),
        witnesses=witnesses,
        items=items,
    )
