"""Geometry-of-numbers engine.

Gauge functions, successive minima with witness vectors, those of the polar
body read off the body's own vertices, lattice width, and exact verifiers
for the second theorem of Minkowski, the transference theorem, the sharp
two-dimensional transference bound, and the flatness theorem family.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

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
    ``_least`` reads the facets side of K's reduction ``_basis``, the rows
    W over M of ``K.dual_vertices`` in B^-T, and takes its box from the
    points side (``_exact_box``).
    """
    def minima(k):
        points, facets = _basis(K)
        return _least(facets, K.dual_vertices[0], k, _exact_box(K, points))
    return _kept(K, "_minima", k, minima)


def dual_minima(K: SymmetricBody, k: int | None = None) -> SuccessiveMinima:
    """``successive_minima(polar(K), k)``, read off K with no polar body.

    The gauge of polar(K) at a is max |a.x| / L over K's integer vertices x
    over their L, so ``_least`` reads the points side of K's reduction
    ``_basis``, those x in B, with the scale L, and takes its box from the
    facets side (``_exact_box``); the ranking and the sign rule give the
    same minima and witnesses.  k is checked, and the result kept on K, as
    by ``successive_minima``.
    """
    def minima(k):
        points, facets = _basis(K)
        return _least(points, K.integer_vertices[0], k, _exact_box(K, facets))
    return _kept(K, "_dual_minima", k, minima)


def _basis(K: SymmetricBody) -> tuple:
    """The two sides (points, facets) of the reduction B that both minima
    passes of K walk in, kept on K.  B is the one ``difference_body``
    handed to K, else ``_reduce`` of K's integer vertices.  The points side
    is ``_side`` of K's integer vertices in B, the facets side that of the
    rows W of ``K.dual_vertices`` in B^-T, its rows reversed: the range of
    y_j in the facets walk grows with the reach of B's row j, and B puts
    its shortest rows first, so the widest range comes first.
    """
    if K._sides is None:
        B = K._basis or _reduce(K.ambient_dim, K.integer_vertices[1])
        K._sides = (_side(B, K.integer_vertices[1]),
                    _side(inverse_transpose(B)[::-1], K.dual_vertices[1]))
    return K._sides


def _side(basis, rows) -> tuple:
    """(basis, cols, reach) for integer rows closed under negation, or one
    per +- pair: cols[j] lists the products b_j.r of row j of ``basis``
    with the rows r > 0, the j-th entries of the reduced normals n = B r,
    and reach[j] is max |b_j.r|."""
    rows = _half(rows)
    cols = [[sum(map(mul, b, r)) for r in rows] for b in basis]
    return basis, cols, [max(map(abs, col)) for col in cols]


def _exact_box(K: SymmetricBody, other: tuple) -> Callable:
    """The box R -> his of a minima pass of K that reads one side of
    ``_basis(K)``, from the ``other`` side: |y_j| <= R reach_j // (M L), M
    and L the scales of ``K.dual_vertices`` and of K's integer vertices,
    for the other side's reach, reversed.

    It is the exact bounding box of the body the pass walks, on integers.
    The facets pass walks {x : max |W.x| <= R} = (R / M) K, whose vertices
    are R x / (M L) for K's integer vertices x; the points pass walks {a :
    max |a.x| <= R} = (R / L) polar(K), whose vertices are R w / (M L) for
    the rows w of W.  A pass walks y with x = C^T y for its basis C, so
    its coordinate functionals y_j are the rows of C^-T, the other side's
    basis reversed: B^-T for the points pass, B reversed for the facets
    pass.  The max of |y_j| over the body is reached at a vertex, so it is
    R reach_j / (M L) for the other side's reach, reversed.
    """
    ML = K.dual_vertices[0] * K.integer_vertices[0]
    reach = other[2][::-1]
    return lambda R: [R * r // ML for r in reach]


def _ellipsoid_box(cols) -> Callable:
    """The box R -> his of the ellipsoid that holds every point y of g(y)
    <= R for the reduced columns ``cols`` of m rows (Fincke-Pohst).

    The form G = ``_form(d, rows)`` sandwiches g: g(x)^2 <= x^T G x <= m
    g(x)^2, so the points lie in y^T G_B y <= m R^2, G_B = B G B^T =
    ``_gram(cols)``, whose box is |y_j| <= isqrt(m R^2 C_jj // det G_B) for
    the cofactors C of G_B.  It is tight when B is reduced for G.
    """
    C, det = cofactors(_gram(cols))
    weights = [len(cols[0]) * C[j][j] for j in range(len(cols))]
    return lambda R: [math.isqrt(R * R * w // det) for w in weights]


def _reduce(d: int, points) -> list:
    """``lll_reduce`` of the points form G = ``_form`` of the integer points
    x > 0 of ``points``."""
    return lll_reduce(_form(d, _half(points)))


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
      the basis of their ``_reduce``, kept on P for its P - P, and in the
      ``_ellipsoid_box`` of their reduced columns: no P - P is built, so
      no polar vertices give an exact box.
    """
    if not P.is_full_dimensional:
        raise DimensionDeficient("width requires a full-dimensional polytope")
    if P._width is None:
        K = P._difference
        if K is None:
            L, verts = P.integer_vertices
            diffs = list({vsub(u, v) for u in verts for v in verts if u > v})
            P._reduction = _reduce(P.ambient_dim, diffs)
            side = _side(P._reduction, diffs)
            sm = _least(side, L, 1, _ellipsoid_box(side[1]))
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


def _least(side: tuple, scale: int, k: int, box: Callable) -> SuccessiveMinima:
    """First k minima and witnesses of the body {x : |r.x| <= scale for every
    row r}, for the integer rows r of a ``_side`` (basis, cols, reach) and
    an int scale > 0, walked in the side's unimodular integer basis B of
    Z^d.  ``box`` maps a radius R to the box |y_j| <= his[j] that holds
    every point y of g <= R: ``_exact_box`` or ``_ellipsoid_box``.

    All on ints: scale times the gauge of an integer x is the int g(x) =
    max |r.x|.  At x = B^T y, r.x = n.y for the reduced normals n = B r,
    the rows of ``cols``, so g is max |n.y|.  Candidates are ranked by (g,
    min(x, -x)) in the original coordinates and taken greedily while they
    raise the rank, so the result depends on neither B nor the box.

    The radius comes from the unit box (Schnorr-Euchner 1994: find a good
    radius first, then enumerate what it leaves open).  Its points y in
    {-1, 0, 1}^d, y > 0, are built level by level as sums of the rows
    (n_j, B_j), n_j the reduced normals' j-th entries, so each point costs
    one addition of two lists; R is g of the k-th greedy pick among them,
    for k = 1 simply the least g, with no elimination.  They include B's
    rows, so R is at most the k-th smallest g of a row of B, and there are
    k independent points of g <= R.  When ``box(R)`` lies within the unit
    box, every point of g <= R is a unit point, so the picks are the
    result and no walk runs.  Otherwise the walk gets the m pairs (n, R),
    each the row |n.y| <= R, in the pieces of the box past the unit box:
    for each j with his[j] >= 2, the y whose first entry of absolute value
    >= 2 is y_j > 0.  y -> -y maps x to -x, and with the unit half these
    hold one of each +- pair of y != 0 of the box, once.  As every pick has
    g <= R, the picks over them are those over the box; they are taken
    again only if a walked point ranks before the k-th unit pick.  Each run
    carries the values n.prefix of the pairs, so g at the run's point
    prefix + (t,) is max |n.prefix + n_d t|, one product per row and no dot
    product; that is why the rows go to the walk as pairs and not as 2m
    one-sided rows.  One pass over the runs builds x for each walked y as
    B^T (prefix, 0), once per run, plus t times B's last row.

    k = 1 takes the least candidate, else the first k ``independent`` ones
    are taken, with no candidate past the k-th read.  A witness is
    -min(x, -x), whose first nonzero entry is positive, and a Fraction g /
    scale is made only for each minimum returned.
    """
    basis, cols, _ = side
    d, m = len(basis), len(cols[0])
    # (n.y, x) as one list per y in {-1, 0, 1}^d: full holds those of every y
    # that is 0 before level j, half those of every y > 0 met so far
    full, half = [[0] * (m + d)], []
    for j in reversed(range(d)):
        unit = [*cols[j], *basis[j]]
        up = [list(map(add, v, unit)) for v in full]
        half += up
        if j:
            full += up + [[-c for c in v] for v in up]
    candidates = []
    for v in half:
        x = tuple(v[m:])
        candidates.append((max(map(abs, v[:m])), min(x, tuple([-c for c in x]))))
    picked = _greedy(candidates, k)
    R = picked[-1][0]
    his = box(R)
    if max(his) > 1:
        last, step = cols[-1], basis[-1]
        to_x = [col[:-1] for col in zip(*basis)]
        pairs = [(n, R) for n in zip(*cols)]
        pieces = [([-1] * j + [2] + [-h for h in his[j + 1:]], [1] * j + his[j:])
                  for j, h in enumerate(his) if h > 1]
        walked = []
        for los, tops in pieces:
            for prefix, lo, hi, values in runs([], los, tops, pairs):
                base = [sum(map(mul, col, prefix)) for col in to_x]  # B^T (prefix, 0)
                for t in range(lo, hi + 1):
                    x = tuple([u + c * t for u, c in zip(base, step)])
                    walked.append((max([abs(u + c * t) for u, c in zip(values, last)]),
                                   min(x, tuple([-c for c in x]))))
        if walked and min(walked) < picked[-1]:
            picked = _greedy(candidates + walked, k)
    return SuccessiveMinima(d, tuple(Fraction(g, scale) for g, _ in picked),
                            tuple(tuple(-c for c in v) for _, v in picked))


def _greedy(candidates, k: int) -> list:
    """The first k greedy picks of the candidates (g, x) ranked by (g, x):
    the least for k = 1, else the ``independent`` ones of the sorted x."""
    if k == 1:
        return [min(candidates)]
    candidates.sort()
    return [candidates[i] for i in independent([x for _, x in candidates], k)]


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
        points += [prefix + (t,) for t in range(lo, min(hi, lo + 1) + 1)]
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
