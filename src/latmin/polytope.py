"""Exact convex polytope kernel.

Polytopes are stored canonically by their extreme points, sorted and scaled
to integers by a common denominator L, so no later step clears their
denominators again; the rational vertex tuples are made on first read.
Full-dimensional polytopes also carry an exact facet description on the
same ints, each facet a primitive integer outward normal a and an int
offset c with a.x <= c over the integer vertices x, read off the
incremental hull with the vertices; the rational offsets c / L are made on
first read.  A hull also keeps the sum of the cone weights of its facet
simplices, which is its volume up to a known factor; no triangulation is
kept.  Two derived bodies build no hull: the difference
body P - P is read off P's faces as the Minkowski sum P + (-P), and a polar
body off its dual by bipolarity; the volume of each is that of a hull of its
vertices, built when asked.  A lower-dimensional polytope carries an integer
chart of its affine lattice.  Its two checked subclasses, ``SymmetricBody``
and ``toric.MomentPolytope``, go wherever a Polytope does.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations, product, repeat
from operator import mul

from .core import (
    as_ratvec,
    clear_denominators,
    cofactor_normal,
    echelon,
    independent,
    inverse_transpose,
    matvec,
    primitive,
    rat_str,
    strict_int,
    vdot,
    vsub,
)
from .errors import (DimensionDeficient, DimensionMismatch, InternalError, InvalidInput,
                     NotSymmetric)
from .walk import enumerate_points, integer_system, runs


class PointLocation(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class Polytope:
    """Immutable rational polytope, canonical V-representation.

    Build instances through :func:`convex_hull`, :func:`difference_body` or
    :func:`polar`; the constructor trusts its arguments.  The checked
    subclasses :class:`SymmetricBody` and ``toric.MomentPolytope`` take over
    the fields of the Polytope they are built from, and equal and hash as it.
    """

    __slots__ = ("ambient_dim", "affine_dim", "_integer_vertices", "_vertices",
                 "_integer_facets", "_facets", "_cone_weight", "_chart", "_difference",
                 "_reduction", "_width", "_volume")

    def __init__(self, ambient_dim, affine_dim, integer_vertices, integer_facets=None,
                 cone_weight=None, chart=None):
        self.ambient_dim = ambient_dim
        self.affine_dim = affine_dim
        self._integer_vertices = integer_vertices
        self._vertices = None  # set by vertices
        self._integer_facets = integer_facets
        self._facets = None  # set by facets
        # the sum of the hull's cone weights, (d + 1) L^d d! times the volume,
        # see _facet_hyperplane; None for a difference or polar body
        self._cone_weight = cone_weight
        # (origin, unimodular U, d x k basis, inner body in R^k) of a
        # lower-dimensional body, see _lattice_chart
        self._chart = chart
        self._difference = None  # P - P read off P's faces, set by difference_body
        # the lattice reduction of the points of P - P, set by gon.lattice_width
        # and handed to P - P by difference_body
        self._reduction = None
        self._width = None  # set by gon.lattice_width
        self._volume = None  # set by volume

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.ambient_dim

    @property
    def integer_vertices(self) -> tuple:
        """(L, xs): a positive int L, a common denominator of the vertices,
        and the vertices times L as integer tuples, sorted.  Every
        constructor holds them already."""
        return self._integer_vertices

    @property
    def vertices(self) -> tuple:
        """The vertices, sorted, as tuples of Fractions x / L for the
        integer vertices (L, xs), built on first read."""
        if self._vertices is None:
            L, xs = self._integer_vertices
            self._vertices = tuple(tuple(Fraction(c, L) for c in x) for x in xs)
        return self._vertices

    @property
    def integer_facets(self) -> tuple:
        """The facets of a full-dimensional body as (a, c), sorted: a the
        primitive integer outward normal and c the int with a.x <= c over
        the integer vertices (L, xs), on their L.  Every constructor of a
        full-dimensional body holds them already; a lower-dimensional one
        raises DimensionDeficient."""
        if not self.is_full_dimensional:
            raise DimensionDeficient(
                f"affine dimension {self.affine_dim} < ambient {self.ambient_dim}")
        return self._integer_facets

    @property
    def facets(self) -> tuple:
        """The facets as (a, Fraction(c, L)) for the integer facets (a, c),
        the halfspaces a.v <= c / L of the vertices, built on first read."""
        if self._facets is None:
            L = self._integer_vertices[0]
            self._facets = tuple((a, Fraction(c, L)) for a, c in self.integer_facets)
        return self._facets

    def _take_over(self, P, kind: str) -> None:
        """Refuse a P that is no Polytope with InvalidInput, or not full-dimensional,
        then copy every field of P, the results kept on P among them, onto self."""
        if not isinstance(P, Polytope):
            raise InvalidInput(f"{kind} are built from a Polytope, not a {type(P).__name__}")
        if not P.is_full_dimensional:
            raise DimensionDeficient(f"{kind} must be full-dimensional")
        for slot in Polytope.__slots__:
            setattr(self, slot, getattr(P, slot))

    def __eq__(self, other):
        return (isinstance(other, Polytope)
                and self.ambient_dim == other.ambient_dim
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self):
        return (f"{type(self).__name__}(dim={self.ambient_dim}, affine_dim={self.affine_dim}, "
                f"vertices={len(self.vertices)})")

    def to_json(self) -> dict:
        return {
            "dim": self.ambient_dim,
            "vertices": [[rat_str(c) for c in v] for v in self.vertices],
        }


class SymmetricBody(Polytope):
    """A full-dimensional polytope whose vertex set is closed under negation.

    Such a body automatically has the origin in its interior.  It is the
    polytope P it is built from, checked by ``_take_over`` and by a mirror
    test on P's integer vertices, with caches of its dual vertices and minima added.
    """

    __slots__ = ("_dual", "_basis", "_sides", "_minima", "_dual_minima")

    def __init__(self, body: Polytope):
        self._take_over(body, "symmetric bodies")
        L, scaled = self.integer_vertices
        vset = set(scaled)
        for x in scaled:
            if tuple(-c for c in x) not in vset:
                raise NotSymmetric(f"vertex ({', '.join(rat_str(Fraction(c, L)) for c in x)}) "
                                   "has no mirror image")
        self._dual = None  # set by dual_vertices
        # the reduction both minima passes walk in, when difference_body hands it over
        self._basis = None
        self._sides = None  # that reduction's two reduced sides, set by gon._basis
        self._minima = None  # the longest result of gon.successive_minima so far
        self._dual_minima = None  # the longest result of gon.dual_minima so far

    @property
    def dual_vertices(self) -> tuple:
        """(M, W), kept once per body: M the lcm of the numerators p of the
        facet offsets, and W_f = a q (M / p) per facet a.x <= p / q.  The
        W_f / M are the vertices of the polar, and M g(x) = max W_f.x for
        the gauge g of the body.

        Read off the integer facets (a, c) over L: p / q = c / L, so p is
        c / gcd(c, L), and q (M / p) is the int L M / c."""
        if self._dual is None:
            L = self.integer_vertices[0]
            facets = self.integer_facets
            if any(c <= 0 for _, c in facets):
                raise InternalError("origin not interior: a facet offset is not positive")
            M = math.lcm(*(c // math.gcd(c, L) for _, c in facets))
            LM = L * M
            self._dual = M, [tuple(x * (LM // c) for x in a) for a, c in facets]
        return self._dual


# ---------------------------------------------------------------------------
# convex hull


def convex_hull(points, d: int) -> Polytope:
    """Canonical hull of rational points in R^d.

    Keeps exactly the extreme points; computes the affine dimension, and for
    full-dimensional input the facet halfspaces and the cone weight that
    ``volume`` reads.
    The points are multiplied once by the lcm L of their denominators, which
    keeps their lexicographic order and affine rank, and ``_integer_hull``
    works on the ints.  ``points`` is any iterable, a set or a generator
    included.  A list or tuple of d ints (no bool) is taken as it is, as
    ``as_intvec`` does, and any other point is read by ``as_ratvec`` in
    dimension d; with no such point L is 1 and no Fraction is made.  A
    value that is not iterable raises InvalidInput.
    """
    if strict_int(d, "dimension") < 1:
        raise DimensionMismatch("ambient dimension must be positive")
    if not isinstance(points, Iterable):
        raise InvalidInput(f"expected an iterable of points, not a {type(points).__name__}")
    pts, rational = [], False
    for p in points:
        if isinstance(p, (list, tuple)) and len(p) == d and all(type(c) is int for c in p):
            pts.append(tuple(p))
        else:
            pts.append(as_ratvec(p, d))
            rational = True
    if not pts:
        raise DimensionMismatch("need at least one point")
    L, ipts = clear_denominators(pts) if rational else (1, pts)
    return _integer_hull(d, L, sorted(set(ipts)))


def _integer_hull(d, L, ipts) -> Polytope:
    """The hull of the points x / L in R^d for the sorted distinct integer
    points x of ``ipts``.

    The only Fractions made are, for a lower-dimensional input, the base
    point of its lattice chart; the facets are ints over L, and the
    vertices and rational offsets are made on first read.  A
    lower-dimensional input is read through its lattice chart, and its
    chart coordinates, still ints over L, go to the inner hull as they are.
    """
    def point(x):
        return tuple(Fraction(c, L) for c in x)

    diffs = [vsub(p, ipts[0]) for p in ipts]
    basis_idx = independent(diffs)  # diffs[0] = 0 is never picked
    k = len(basis_idx)

    if k < d:
        origin, U, basis = _lattice_chart(point(ipts[0]), [diffs[i] for i in basis_idx], d)
        shift = [c.numerator * (L // c.denominator) for c in origin]  # L * origin
        outer = {}  # chart coordinates times L -> the point times L
        for x in ipts:
            c = matvec(U, vsub(x, shift))
            if any(c[k:]):
                raise InternalError(f"point {point(x)} outside the affine span of the input")
            outer[c[:k]] = x
        # the inner body of a point is the one point of R^0
        inner = (_integer_hull(k, L, sorted(outer)) if k
                 else Polytope(0, 0, (1, ((),)), integer_facets=()))
        ints = tuple(sorted(outer[c] for c in inner.integer_vertices[1]))
        return Polytope(d, k, (L, ints), chart=(origin, U, basis, inner))

    # offsets of the scaled points are ints, as the facets keep them
    facet_simplices = _hull_full_dim(ipts, d, [0] + basis_idx)

    # merge triangulated pieces into geometric facets
    facets = tuple(sorted({(normal, offset) for _, normal, offset, _ in facet_simplices}))

    # an extreme point is a corner in every facet through it, and they meet in
    # it alone; a corner on a face F of positive dimension keeps F's vertices
    corners = {}  # per facet normal, the mask of its simplices' corners
    weight = 0
    for verts_idx, normal, _, w in facet_simplices:
        corners[normal] = corners.get(normal, 0) | sum(1 << i for i in verts_idx)
        weight += w
    meet = _meets((verts_idx, corners[normal]) for verts_idx, normal, _, _ in facet_simplices)
    ints = tuple(ipts[i] for i in sorted(meet) if meet[i] == 1 << i)
    return Polytope(d, d, (L, ints), integer_facets=facets, cone_weight=weight)


def _meets(faces) -> dict:
    """Per key, the AND of the bit masks of the faces through it: the meet
    of those faces, for ``faces`` of (the keys on the face, its mask)."""
    meet = {}
    for keys, mask in faces:
        for key in keys:
            meet[key] = meet.get(key, mask) & mask
    return meet


def _lattice_chart(base, span, d):
    """(origin, U, basis) of the lattice chart x = origin + basis·c of
    base + span(``span``), for k independent integer vectors ``span``.

    One integer echelon turns [spanᵀ | I] into [H | U], U unimodular, so the
    last d - k rows N of U span the integer normals of the span; a lattice
    point x on it has N·x = s = N·base, so exists iff s is integral, and then
    U⁻¹·(0, s) = sum of s_i times row i of U⁻ᵀ, i >= k, is one, the origin,
    and the first k columns of U⁻¹, d x k ``basis``, are a basis of
    Z^d ∩ span (Cohen, §2.4).  With no lattice point the origin is base.
    The chart coordinates of x are then c = (U·(x - origin))[:k], and x lies
    on the span exactly when the other d - k entries of U·(x - origin) are 0.
    """
    k = len(span)
    rows = [[v[i] for v in span] + [int(i == j) for j in range(d)] for i in range(d)]
    U = [r[k:] for r in echelon(rows, k + d)[0]]
    inv_t = inverse_transpose(U)
    basis = tuple(tuple(row[i] for row in inv_t[:k]) for i in range(d))
    s = [vdot(n, base) for n in U[k:]]
    if any(c.denominator != 1 for c in s):
        return base, U, basis
    origin = tuple(sum(int(c) * row[i] for c, row in zip(s, inv_t[k:])) for i in range(d))
    return origin, U, basis


def _facet_hyperplane(points, ref, d):
    """(a, b, w) for d affinely independent integer points: the primitive
    integer outward normal a and integer offset b of their hyperplane,
    oriented away from the interior point ref / (d + 1), and the cone weight
    w of their simplex.

    The cofactor normal n of the d - 1 edges from the first point p is g a,
    g the gcd of its entries, and n.x = det(edges; x) for every x.  So with
    the gap (d + 1) b - a.ref > 0, w = g gap is |det(edges; ref - (d + 1) p)|,
    (d + 1) d! times the volume of the cone over the simplex from
    ref / (d + 1).  These cones tile the hull.
    """
    base = points[0]
    n = cofactor_normal([vsub(p, base) for p in points[1:]])
    g = math.gcd(*n)
    if not g:
        raise InternalError("affinely dependent facet simplex")
    normal = tuple(c // g for c in n)
    offset = vdot(normal, base)
    gap = (d + 1) * offset - vdot(normal, ref)
    if gap < 0:
        normal = tuple(-c for c in normal)
        offset, gap = -offset, -gap
    elif not gap:
        raise InternalError("reference point on facet hyperplane")
    return normal, offset, g * gap


def _hull_full_dim(ipts, d, simplex):
    """Beneath-beyond hull of integer points from the affinely independent
    start ``simplex`` (d + 1 point indices); returns triangulated boundary
    facets as (vertex index tuple, primitive outward normal, int offset,
    cone weight), see ``_facet_hyperplane``.

    The work is on ints and builds no Fraction: ``convex_hull`` clears the
    denominators before, and the offsets stay ints over the same L.  The
    reference point is the sum of the start points, (d + 1) times their
    centroid.  The other points are inserted farthest from the centroid
    first, by decreasing |(d + 1) x - ref|^2 with ties in index order, so
    that the later ones mostly fall inside and make no short-lived facets
    (Clarkson-Shor).
    """
    ref = tuple(map(sum, zip(*(ipts[i] for i in simplex))))
    in_simplex = set(simplex)
    order = sorted((p for p in range(len(ipts)) if p not in in_simplex),
                   key=lambda p: -sum(((d + 1) * c - r) ** 2 for c, r in zip(ipts[p], ref)))

    facets = {}  # sorted corner indices -> (normal, offset, cone weight)
    for subset in combinations(simplex, d):
        verts = tuple(sorted(subset))
        facets[verts] = _facet_hyperplane([ipts[i] for i in verts], ref, d)

    for p in order:
        x = ipts[p]
        visible = [verts for verts, (a, b, _) in facets.items() if vdot(a, x) > b]
        if not visible:
            continue
        ridge_count = {}
        for verts in visible:
            for drop in verts:
                ridge = tuple(v for v in verts if v != drop)
                ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
            del facets[verts]
        for ridge, cnt in ridge_count.items():
            if cnt == 1:  # a new facet holds p, so its key is new
                verts = tuple(sorted(ridge + (p,)))
                facets[verts] = _facet_hyperplane([ipts[i] for i in verts], ref, d)
    return [(verts, a, b, w) for verts, (a, b, w) in facets.items()]


# ---------------------------------------------------------------------------
# membership and enumeration


def locate(P: Polytope, x) -> PointLocation:
    """Classify a point as Interior, Boundary, or Outside of a full-dimensional P.

    x is read by ``as_ratvec`` in P's ambient dimension.  It is scaled once
    to the integer vector xs = m x, m the lcm of its denominators, and an
    integer facet a.y <= c over P's L is compared as L a.xs against c m, on
    ints.
    """
    pt = as_ratvec(x, P.ambient_dim)
    if not P.is_full_dimensional:
        raise DimensionDeficient("locate requires a full-dimensional polytope")
    m, (xs,) = clear_denominators([pt])
    L = P.integer_vertices[0]
    on_boundary = False
    for a, c in P.integer_facets:
        s, r = vdot(a, xs) * L, c * m
        if s > r:
            return PointLocation.OUTSIDE
        if s == r:
            on_boundary = True
    return PointLocation.BOUNDARY if on_boundary else PointLocation.INTERIOR


def contains(P: Polytope, x) -> bool:
    """Membership test valid in any affine dimension, on ints.

    A full-dimensional P holds x iff ``locate`` does not place it OUTSIDE.
    A lower-dimensional P is read through the U of its chart: x is read by
    ``as_ratvec`` in P's ambient dimension, and with m the lcm of the
    denominators of x and the origin, c = m U (x - origin) is integral, x
    lies on aff(P) iff c's last d - k entries are 0, and then L a.c[:k] <=
    b m must hold for each integer facet a.y <= b over the L of the inner
    body.
    """
    if P.is_full_dimensional:
        return locate(P, x) is not PointLocation.OUTSIDE
    origin, U, _, inner = P._chart
    m, (xs, shift) = clear_denominators([as_ratvec(x, P.ambient_dim), origin])
    k = P.affine_dim
    c = matvec(U, vsub(xs, shift))
    L = inner.integer_vertices[0]
    return not any(c[k:]) and all(vdot(a, c[:k]) * L <= b * m for a, b in inner.integer_facets)


def lattice_points(P: Polytope, mode: str = "all") -> list:
    """Integer points of P, sorted lexicographically.

    ``mode`` is "all" or "interior"; the interior mode requires a
    full-dimensional polytope, whose points ``walk.enumerate_points`` finds
    from ``walk.integer_system``.  A lower-dimensional P goes through its
    lattice chart: with no lattice point on its affine span it has none, and
    otherwise its points are origin + basis . c for the integer points c of
    the full-dimensional inner polytope.  Each run of c's, which differ only
    in the last coordinate, maps to one arithmetic progression per
    coordinate, stepping by the last basis column; the points are then
    sorted.
    """
    if mode not in ("all", "interior"):
        raise InvalidInput(f"unknown mode {mode!r}")
    if P.is_full_dimensional:
        return enumerate_points(*integer_system(P, mode))
    if mode == "interior":
        raise DimensionDeficient("interior enumeration requires full dimension")
    origin, _, basis, inner = P._chart
    if any(c.denominator != 1 for c in origin):
        return []
    if not inner.ambient_dim:
        return [origin]
    steps = [row[-1] for row in basis]
    pts = []
    for prefix, lo, hi, _ in runs(*integer_system(inner, "all")):
        starts = [o + vdot(row, prefix) for o, row in zip(origin, basis)]
        pts.extend(zip(*[range(b + s * lo, b + s * (hi + 1), s) if s else repeat(b)
                         for b, s in zip(starts, steps)]))
    pts.sort()
    return pts


def volume(P: Polytope) -> Fraction:
    """Lebesgue volume normalized to the lattice (unit cube has volume 1).

    Lower-dimensional polytopes have volume 0.  Computed once per polytope,
    on first read, from the hull's cone weight, the int sum over its facet
    simplices of (d + 1) d! times the volume of the cone over each from an
    interior point, on the ints over the L of the integer vertices: it is
    divided once by (d + 1) L^d d!.  A difference or polar body takes the
    volume of the hull of its sorted integer vertices over their L.
    """
    d = P.ambient_dim
    if P.affine_dim < d:
        return Fraction(0)
    if P._volume is None:
        if P._cone_weight is None:
            P._volume = volume(_integer_hull(d, *P.integer_vertices))
        else:
            L = P.integer_vertices[0]
            P._volume = Fraction(P._cone_weight, (d + 1) * L ** d * math.factorial(d))
    return P._volume


# ---------------------------------------------------------------------------
# difference and polar bodies


def difference_body(P: Polytope) -> SymmetricBody:
    """The 0-symmetric body P - P of pairwise vertex differences of P, built
    once per polytope and read off P's faces by ``_minkowski_difference``
    with no hull.  It takes the lattice reduction of P's vertex differences
    that ``gon.lattice_width`` may have kept on P, so that P - P makes none
    of its own."""
    if not P.is_full_dimensional:
        raise DimensionDeficient("difference body requires a full-dimensional polytope")
    if P._difference is None:
        P._difference = SymmetricBody(_minkowski_difference(P))
        P._difference._basis = P._reduction
    return P._difference


def _minkowski_difference(P: Polytope) -> Polytope:
    """P - P as the Minkowski sum P + (-P), read off P's facets and faces.

    The face of P - P with outer normal n is F(n) - F(-n), F(n) the face of
    P at max n.v, so n is a facet normal when that difference has dimension
    d - 1 (Fukuda 2004).  The work is on P's vertices scaled to integers by
    the lcm L of their denominators, with each face a bit mask of them:

    * each facet normal a of P gives the facets +-a, with int offset the
      width max a.x - min a.x over P's integer vertices x;
    * any other facet normal n has F(n) and F(-n) of dimension at most
      d - 2, and they contain faces G1 and G2 of dimensions summing to
      d - 1 whose directions are independent (G1 = F(n) and a face of F(-n)
      that a generic section over the directions of F(n) picks out).  Such
      G1 and G2 lie on no common facet, whose normal would be +-n.  So the
      pairs of lower faces of P, its facets' nonempty intersections, with
      those dimensions and no common facet give n as the primitive
      cofactor normal of their direction bases.  n and -n are kept when
      one face lies at max n.v and the other at min n.v: first the normal
      cones must allow it (no direction of one face is positive, or
      negative, on every facet normal at the other; the signs are bit
      masks over the facets, and a face keeps those of its directions in
      one list, each of which must meet the other face's facet mask), then
      one scan of all vertices decides;
    * u - w is a vertex iff the AND of the max masks of the facets S with u
      at their max and w at their min is the bit of u, as in ``convex_hull``:
      then F(c) = {u} for c the sum of S's normals, and P's vertex w lies in
      F(-c), so u - w is a vertex of the face u - F(-c); a vertex u - w is a
      difference in one way only, so S holds every facet through it, and
      their max faces meet in u alone.  The min side need not be read.

    The loops run per entry with no helper call: dot products are sums of
    ``map(mul, ...)`` and the masks are built bit by bit.  No Fraction is
    made: the body's vertices are the integer differences and its offsets
    the integer widths, both over P's L, which become Fractions on first
    read.  The body carries no cone weight; ``volume`` builds a hull for
    one on use.
    """
    d = P.ambient_dim
    L, verts = P.integer_vertices
    bits = {}  # mask -> its set bits, ascending

    def members(mask):
        idx = bits.get(mask)
        if idx is None:
            idx, rest = [], mask
            while rest:
                low = rest & -rest
                idx.append(low.bit_length() - 1)
                rest ^= low
            bits[mask] = idx
        return idx

    def extent(vals):  # L times the width along n, masks at max and min, from the n.v
        top, bottom = max(vals), min(vals)
        up = down = 0
        bit = 1
        for x in vals:
            if x == top:
                up |= bit
            elif x == bottom:  # top > bottom, as P is full-dimensional
                down |= bit
            bit <<= 1
        return top - bottom, up, down

    def keep(n, width, top, bottom):
        body[n] = width, top, bottom
        body[tuple([-c for c in n])] = width, bottom, top

    body = {}  # facet normal of P - P -> (L times its offset, masks of P at max and at min)
    normals = [a for a, _ in P.integer_facets]
    levels = [[sum(map(mul, a, v)) for v in verts] for a in normals]  # a.v per facet and vertex
    facet_masks = []
    for a, row in zip(normals, levels):
        width, top, bottom = extent(row)
        facet_masks.append(top)
        if a not in body:
            keep(a, width, top, bottom)
    at = list(zip(*levels))  # per vertex, its a.v over the facets a

    faces, new = set(), set(facet_masks)
    while new:
        faces |= new
        new = {f & g for f in new for g in facet_masks} - faces - {0}
    # per dimension, each lower face's mask of facets, the sign masks of the
    # vectors of a direction basis in one list, the basis, and one vertex
    by_dim = [[] for _ in range(d - 1)]
    for f in faces - set(facet_masks):
        idx = members(f)
        if len(idx) == 1:
            continue
        r = idx[0]
        diffs = [vsub(verts[i], verts[r]) for i in idx[1:]]
        picked = independent(diffs) if len(diffs) > 1 else [0]
        through, bit = 0, 1
        for g in facet_masks:
            if f & g == f:
                through |= bit
            bit <<= 1
        cone = []  # per direction, the facets a with a.(v_j - v_r) >= 0 and <= 0
        for j in picked:
            up = down = 0
            bit = 1
            for x, y in zip(at[idx[j + 1]], at[r]):
                if x > y:
                    up |= bit
                elif x < y:
                    down |= bit
                else:
                    up |= bit
                    down |= bit
                bit <<= 1
            cone += up, down
        by_dim[len(picked)].append((through, cone, [diffs[j] for j in picked], r))

    for k in range(1, (d - 1) // 2 + 1):
        firsts, seconds = by_dim[k], by_dim[d - 1 - k]
        for i, (mask1, cone1, basis1, r1) in enumerate(firsts):
            for mask2, cone2, basis2, r2 in seconds[i + 1:] if 2 * k == d - 1 else seconds:
                if mask1 & mask2:
                    continue
                # the normal cones: each sign mask of one face meets the other's facets
                for c in cone1:
                    if not mask2 & c:
                        break
                else:
                    for c in cone2:
                        if not mask1 & c:
                            break
                    else:
                        n = cofactor_normal(basis1 + basis2)
                        if not any(n):  # dependent directions
                            continue
                        n = primitive(n)
                        if n not in body:
                            width, top, bottom = extent([sum(map(mul, n, v)) for v in verts])
                            if (top >> r1 & bottom >> r2 | top >> r2 & bottom >> r1) & 1:
                                keep(n, width, top, bottom)

    meet = _meets((product(members(top), members(bottom)), top)
                  for _, top, bottom in body.values())
    points = tuple(sorted([vsub(verts[u], verts[w]) for (u, w), m in meet.items() if m == 1 << u]))
    facets = tuple(sorted((n, width) for n, (width, _, _) in body.items()))
    return Polytope(d, d, (L, points), integer_facets=facets)


def polar(K: SymmetricBody) -> SymmetricBody:
    """Polar body of a symmetric K: functionals bounded by 1 in absolute value on K.

    Read off K by bipolarity, with no hull: the vertices of the polar are the
    facet normals a / b of K, the ints W_f over M of ``K.dual_vertices``,
    and its facets are the vertices v of K, each, for K's integer vertex
    x = L v, as the primitive normal x / g with offset L / g, g the gcd of
    x.  Over the polar's vertex scale M that offset is the int M L / g: x
    lies on a facet a.y <= p / q of K, so g divides a.x = L p / q and so
    L p, and p divides M.  Built anew on each call.  A K that is not a
    SymmetricBody is refused with InvalidInput.
    """
    if not isinstance(K, SymmetricBody):
        raise InvalidInput(f"the polar needs a SymmetricBody, not a {type(K).__name__}")
    M, W = K.dual_vertices
    L, xs = K.integer_vertices
    facets = []
    for x in xs:
        g = math.gcd(*x)
        facets.append((tuple(c // g for c in x), L * M // g))
    return SymmetricBody(Polytope(K.ambient_dim, K.ambient_dim, (M, tuple(sorted(W))),
                                  integer_facets=tuple(sorted(facets))))
