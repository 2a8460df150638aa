import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from counting import counted_fractions, counting_wrapper, time_limit
from latmin import core, gon, polytope, walk
from latmin.errors import (DimensionDeficient, DimensionMismatch, InternalError, InvalidInput,
                           NotSymmetric)
from latmin.generate import SuiteConfig, generate_instance
from latmin.polytope import (
    PointLocation,
    SymmetricBody,
    contains,
    convex_hull,
    difference_body,
    lattice_points,
    locate,
    polar,
    volume,
)
from latmin.toric import MomentPolytope
from reference import (box, gauss, greedy_basis, kernel_vector, simplex, solve_linear,
                       volume_by_determinant_fan)

F = Fraction


small_pts_2d = st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                        min_size=1, max_size=9)


class TestConvexHull:
    def test_interior_point_dropped(self):
        P = convex_hull([(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 4))], 2)
        assert P.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))
        assert P.affine_dim == 2

    def test_collinear(self):
        P = convex_hull([(0, 0), (2, 0), (1, 0)], 2)
        assert P.vertices == ((F(0), F(0)), (F(2), F(0)))
        assert P.affine_dim == 1
        with pytest.raises(DimensionDeficient):
            P.facets

    def test_box_corners_any_order(self):
        pts = [(3, 2), (0, 0), (0, 2), (3, 0)]
        P = convex_hull(pts, 2)
        assert P.vertices == ((F(0), F(0)), (F(0), F(2)), (F(3), F(0)), (F(3), F(2)))

    def test_single_point(self):
        P = convex_hull([(2, 2, 2)], 3)
        assert P.affine_dim == 0
        assert P.vertices == ((F(2), F(2), F(2)),)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            convex_hull([(1, 2, 3)], 2)

    @pytest.mark.parametrize("build", [convex_hull, MomentPolytope.from_points])
    @pytest.mark.parametrize("pts, d", [([(0,), (2,)], True), ([(0, 0), (1, 0), (0, 1)], 2.0),
                                        ([(0, 0), (1, 0), (0, 1)], "2")])
    def test_non_int_dimension_refused(self, build, pts, d):
        # True built a segment whose to_json() wrote "dim": true
        with pytest.raises(InvalidInput):
            build(pts, d)

    def test_string_points_refused(self):
        # "12" is not the point (1, 2), nor b"\x03\x00" the point (3, 0)
        with pytest.raises(InvalidInput):
            convex_hull(["12", "30"], 2)
        with pytest.raises(InvalidInput):
            convex_hull([b"\x00\x00", b"\x03\x00", b"\x00\x03"], 2)

    @given(small_pts_2d)
    @settings(max_examples=50, deadline=None)
    def test_idempotent_and_order_insensitive(self, pts):
        P = convex_hull(pts, 2)
        again = convex_hull(P.vertices, 2)
        assert again == P
        assert convex_hull(list(reversed(pts)), 2) == P

    @given(small_pts_2d)
    @settings(max_examples=40, deadline=None)
    def test_vertices_extreme(self, pts):
        P = convex_hull(pts, 2)
        # dropping any canonical vertex changes the hull
        if len(P.vertices) <= 1:
            return
        for v in P.vertices:
            rest = [p for p in P.vertices if p != v]
            assert convex_hull(rest, 2) != P


class TestFacets:
    def test_unit_square(self):
        P = box(1, 1)
        assert set(P.facets) == {((1, 0), F(1)), ((-1, 0), F(0)),
                                 ((0, 1), F(1)), ((0, -1), F(0))}

    def test_dilated_simplex(self):
        P = simplex(2, 2)
        assert set(P.facets) == {((-1, 0), F(0)), ((0, -1), F(0)), ((1, 1), F(2))}

    def test_hexagon(self):
        P = convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)], 2)
        assert set(P.facets) == {((1, 0), F(1)), ((-1, 0), F(1)),
                                 ((0, 1), F(1)), ((0, -1), F(1)),
                                 ((1, 1), F(1)), ((-1, -1), F(1))}

    def test_facet_consistency_3d(self):
        P = convex_hull([(0, 0, 0), (4, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1),
                         (4, 3, 0), (2, 2, 2)], 3)
        for v in P.vertices:
            assert all(sum(a * c for a, c in zip(n, v)) <= b for n, b in P.facets)
        # every facet supports at least d vertices
        for n, b in P.facets:
            on = [v for v in P.vertices if sum(a * c for a, c in zip(n, v)) == b]
            assert len(on) >= 3


def laplace_det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * laplace_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def cofactor_normal(rows, d):
    """Generalized cross product of d - 1 vectors in Q^d: entry i is (-1)^i
    times the minor with column i deleted, zero iff the rows are dependent."""
    return tuple((-1) ** i * laplace_det([r[:i] + r[i + 1:] for r in rows]) for i in range(d))


def facets_by_enumeration(pts, d):
    """Oracle: supporting hyperplanes spanned by d affinely independent points,
    with normals from the cofactor formula, so it shares no code with the hull."""
    out = set()
    for subset in combinations(pts, d):
        rows = [tuple(a - b for a, b in zip(p, subset[0])) for p in subset[1:]]
        n = cofactor_normal(rows, d)
        if not any(n):
            continue
        den = math.lcm(*(F(c).denominator for c in n))
        ints = [int(c * den) for c in n]
        g = math.gcd(*ints)
        normal = tuple(c // g for c in ints)
        b = sum(a * c for a, c in zip(normal, subset[0]))
        vals = [sum(a * c for a, c in zip(normal, p)) for p in pts]
        if all(v <= b for v in vals):
            out.add((normal, b))
        if all(v >= b for v in vals):
            out.add((tuple(-c for c in normal), -b))
    return out


class TestHullAgainstFacetOracle:
    def test_seeded_random_2d_3d(self):
        from latmin.generate import instance_stream
        for dim, cases, n_pts, bound in ((2, 20, 8, 5), (3, 12, 8, 4)):
            for idx in range(cases):
                rng = instance_stream(7000 + dim, idx)
                pts = [tuple(rng.int_in(-bound, bound) for _ in range(dim))
                       for _ in range(n_pts)]
                P = convex_hull(pts, dim)
                if not P.is_full_dimensional:
                    continue
                pts_frac = [tuple(F(c) for c in p) for p in set(pts)]
                assert set(P.facets) == facets_by_enumeration(pts_frac, dim)


def vertices_by_incidence(pts, facets, d):
    """Oracle: the points on facets whose normals have a nonzero d x d minor
    (Laplace determinant), so that the facets through them meet in a point."""
    out = []
    for p in set(pts):
        active = [a for a, b in facets if sum(c * x for c, x in zip(a, p)) == b]
        if any(laplace_det([list(a) for a in rows])
               for rows in combinations(active, d)):
            out.append(p)
    return tuple(sorted(out))


def cube_facets(d, side):
    return {(tuple(s * int(j == i) for j in range(d)), F(side if s > 0 else 0))
            for i in range(d) for s in (1, -1)}


@st.composite
def rational_point_sets(draw):
    """3-D and 4-D rational points plus midpoints of some pairs, so that many
    input points lie on the boundary without being vertices."""
    d = draw(st.sampled_from((3, 4)))
    coord = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 4))
    pairs = draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), max_size=4))
    pts += [tuple((a + b) / 2 for a, b in zip(p, q)) for p, q in pairs]
    return d, pts


class TestHullVertices:
    def test_grid_3d(self):
        pts = list(product(range(3), repeat=3))
        P = convex_hull(pts, 3)
        facets = facets_by_enumeration([tuple(F(c) for c in p) for p in pts], 3)
        assert facets == cube_facets(3, 2)
        assert P.vertices == vertices_by_incidence(pts, facets, 3)
        assert len(P.vertices) == 8

    def test_grid_4d(self):
        pts = list(product(range(3), repeat=4))
        P = convex_hull(pts, 4)
        assert set(P.facets) == cube_facets(4, 2)
        assert P.vertices == vertices_by_incidence(pts, cube_facets(4, 2), 4)
        assert P.vertices == tuple(product((0, 2), repeat=4))

    @given(rational_point_sets())
    @settings(max_examples=60, deadline=None)
    def test_random_rational(self, case):
        d, pts = case
        P = convex_hull(pts, d)
        assume(P.is_full_dimensional)
        facets = facets_by_enumeration(list(set(pts)), d)
        assert set(P.facets) == facets
        assert P.vertices == vertices_by_incidence(pts, facets, d)

    def test_weak_meet_rule_mutation_is_caught(self, monkeypatch):
        # a meet rule that keeps a corner whose meet has at most three bits
        # keeps the edge points of the grid that are corners, and the oracle
        # sees it
        plant_meet_rule(monkeypatch, at_most_three_bits)
        for d in (3, 4):
            pts = list(product(range(3), repeat=d))
            assert convex_hull(pts, d).vertices != vertices_by_incidence(pts, cube_facets(d, 2), d)

    def test_edge_point_on_d_facets_needs_the_meet(self, monkeypatch):
        # an edge of the 4-dimensional cross-polytope lies in 4 facets, so a
        # corner at its midpoint is on d facets whose normals have rank only
        # d - 1; their meet is the midpoint and the two ends of the edge,
        # which the rule drops and a rule of at most three bits keeps
        corners, midpoints = cross_polytope_with_midpoints(4)
        assert convex_hull(corners + midpoints, 4).vertices == tuple(sorted(corners))
        plant_meet_rule(monkeypatch, at_most_three_bits)
        assert convex_hull(corners + midpoints, 4).vertices != tuple(sorted(corners))


def cross_polytope_with_midpoints(d):
    """The corners +-2 e_i of the d-dimensional cross-polytope, and the
    midpoints of its edges, the pairs of corners that are not opposite."""
    corners = [tuple(s * 2 * int(i == j) for j in range(d)) for i in range(d) for s in (1, -1)]
    midpoints = [tuple((x + y) // 2 for x, y in zip(a, b))
                 for a, b in combinations(corners, 2) if any(x + y for x, y in zip(a, b))]
    return corners, midpoints


def plant_meet_rule(monkeypatch, rule):
    """Replace the vertex rule of the hull and of P - P, that the meet is
    the bit i of the point (of u for a pair (u, w) of P - P), by
    ``rule(meet, i)``."""
    real = polytope._meets

    def meets(pairs):
        out = {}
        for key, meet in real(pairs).items():
            i = key[0] if isinstance(key, tuple) else key
            out[key] = 1 << i if rule(meet, i) else 0
        return out

    monkeypatch.setattr(polytope, "_meets", meets)


def at_most_three_bits(meet, i):
    """A weaker rule than the meet's being the bit i.  "At most two bits"
    would be no mutant: a corner on a face of positive dimension keeps at
    least two vertices of the face in its meet, so that rule drops it too."""
    return meet >> i & 1 and bin(meet).count("1") <= 3


def test_vertex_step_runs_no_elimination(monkeypatch):
    # the hull's start simplex and P - P's face bases are the only rows put
    # into an echelon basis, by ``independent``; the vertex rules of both
    # are meets of bit masks and eliminate nothing
    corners, midpoints = cross_polytope_with_midpoints(4)
    inside, outside, depth = [], [], [0]
    real_insert, real_independent = core._insert, polytope.independent

    def insert(basis, pivots, row):
        (inside if depth[0] else outside).append(row)
        return real_insert(basis, pivots, row)

    def independent(vectors):
        depth[0] += 1
        try:
            return real_independent(vectors)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(core, "_insert", insert)
    monkeypatch.setattr(polytope, "independent", independent)
    P = convex_hull(corners + midpoints, 4)
    K = difference_body(P)
    assert P.vertices == tuple(sorted(corners))
    assert K.vertices == tuple(sorted(tuple(2 * c for c in x) for x in corners))  # P - P = 2P
    assert inside and not outside


class TestHull1D:
    @given(st.lists(st.one_of(st.integers(-9, 9),
                              st.builds(Fraction, st.integers(-20, 20), st.integers(1, 4))),
                    min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_against_min_max(self, xs):
        P = convex_hull([(x,) for x in xs], 1)
        lo, hi = F(min(xs)), F(max(xs))
        inside = range(math.ceil(lo), math.floor(hi) + 1)
        assert lattice_points(P) == [(k,) for k in inside]
        if lo == hi:
            assert P.vertices == ((lo,),) and P.affine_dim == 0
            return
        assert P.vertices == ((lo,), (hi,))
        assert P.facets == (((-1,), -lo), ((1,), hi))
        assert volume(P) == hi - lo
        assert lattice_points(P, "interior") == [(k,) for k in inside if lo < k < hi]


class TestLocate:
    def test_examples(self):
        P = box(2, 2)
        assert locate(P, (1, 1)) is PointLocation.INTERIOR
        assert locate(P, (0, 1)) is PointLocation.BOUNDARY
        assert locate(P, (3, 0)) is PointLocation.OUTSIDE

    def test_rational_point(self):
        P = simplex(2)
        assert locate(P, (F(1, 3), F(1, 3))) is PointLocation.INTERIOR
        assert locate(P, (F(1, 2), F(1, 2))) is PointLocation.BOUNDARY

    def test_errors(self):
        with pytest.raises(DimensionDeficient):
            locate(convex_hull([(0, 0), (1, 0)], 2), (0, 0))
        with pytest.raises(DimensionMismatch):
            locate(box(1, 1), (1, 1, 1))


def locate_by_fractions(P, x):
    """Reference: the side of each facet a.x <= b, in Fractions."""
    pt = tuple(F(c) for c in x)
    sides = [sum((u * c for u, c in zip(a, pt)), F(0)) - b for a, b in P.facets]
    if any(s > 0 for s in sides):
        return PointLocation.OUTSIDE
    return PointLocation.BOUNDARY if any(s == 0 for s in sides) else PointLocation.INTERIOR


@st.composite
def polytopes_and_queries(draw):
    """A full-dimensional hull in d = 2..4 of points with denominators 1..5,
    and rational queries: random points, the vertices, a point on each
    facet (the mean of its vertices) and that point pushed out and in."""
    d = draw(st.integers(2, 4))
    coord = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 5))
    P = convex_hull(draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 5)), d)
    assume(P.is_full_dimensional)
    queries = draw(st.lists(st.tuples(*[st.one_of(st.integers(-4, 4), coord)] * d), max_size=8))
    queries += list(P.vertices)
    h = draw(st.fractions(min_value=F(1, 100), max_value=1))
    for a, b in P.facets:
        on = [v for v in P.vertices if sum((u * c for u, c in zip(a, v)), F(0)) == b]
        mid = tuple(sum(col, F(0)) / len(on) for col in zip(*on))
        queries += [mid, tuple(c + h * u for c, u in zip(mid, a)),
                    tuple(c - h * u for c, u in zip(mid, a))]
    return P, queries


@given(polytopes_and_queries())
@settings(max_examples=100, deadline=None)
def test_locate_and_contains_match_fraction_formula(case):
    # the facet test runs on ints, q a.(m x) against p m
    P, queries = case
    seen = set()
    for x in queries:
        expect = locate_by_fractions(P, x)
        assert locate(P, x) is expect, x
        assert contains(P, x) == (expect is not PointLocation.OUTSIDE), x
        seen.add(expect)
    assert PointLocation.BOUNDARY in seen and PointLocation.OUTSIDE in seen


def test_locate_builds_only_the_parsed_point():
    P = convex_hull([(F(1, 2), 0, 0), (0, F(7, 3), 0), (0, 0, 2), (F(-5, 4), -1, F(-1, 6))], 3)
    points = [(F(1, 5), F(1, 7), F(1, 9)), (0, 0, 0), (F(1, 2), 0, 0), (3, 3, 3)]
    with counted_fractions() as made:
        found = [locate(P, x) for x in points] + [contains(P, x) for x in points]
    # one per int entry parsed (a Fraction is taken as it is), none for the facet tests
    assert made.count == 2 * sum(type(c) is int for x in points for c in x) == 16
    assert found == [locate_by_fractions(P, x) for x in points] + [True, True, True, False]


class TestLatticePoints:
    def test_interior_grid(self):
        pts = lattice_points(box(3, 3), "interior")
        assert pts == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_unimodular_simplex(self):
        assert lattice_points(simplex(2), "interior") == []
        assert lattice_points(simplex(2), "all") == [(0, 0), (0, 1), (1, 0)]

    def test_box_count_formula(self):
        for sides in [(2, 3), (1, 4), (2, 2, 2)]:
            n = len(lattice_points(box(*sides), "all"))
            expect = 1
            for s in sides:
                expect *= s + 1
            assert n == expect

    def test_lower_dimensional_all(self):
        P = convex_hull([(0, 0), (3, 3)], 2)
        assert lattice_points(P, "all") == [(0, 0), (1, 1), (2, 2), (3, 3)]
        with pytest.raises(DimensionDeficient):
            lattice_points(P, "interior")

    def test_interior_subset_of_all(self):
        P = convex_hull([(0, 0), (5, 1), (2, 4), (-1, 2)], 2)
        inside = lattice_points(P, "interior")
        everything = lattice_points(P, "all")
        assert set(inside) <= set(everything)
        for p in inside:
            assert locate(P, p) is PointLocation.INTERIOR
        for p in everything:
            assert locate(P, p) is not PointLocation.OUTSIDE

    def test_count_unimodular_invariance(self):
        P = convex_hull([(0, 0), (5, 1), (2, 4), (-1, 2)], 2)
        n_all = len(lattice_points(P, "all"))
        n_int = len(lattice_points(P, "interior"))
        # unimodular map (x, y) -> (x + y, 2x + 3y) followed by a translation
        Q = convex_hull([(x + y - 3, 2 * x + 3 * y + 1) for x, y in P.vertices], 2)
        assert len(lattice_points(Q, "all")) == n_all
        assert len(lattice_points(Q, "interior")) == n_int


def lattice_points_by_box_scan(P, mode):
    """Reference oracle: every integer point of the vertex bounding box,
    kept by exact point location, or by ``shadow_membership`` for a
    lower-dimensional P."""
    d = P.ambient_dim
    ranges = [range(math.ceil(min(v[j] for v in P.vertices)),
                    math.floor(max(v[j] for v in P.vertices)) + 1)
              for j in range(d)]
    if P.is_full_dimensional:
        keep = ({PointLocation.INTERIOR} if mode == "interior"
                else {PointLocation.INTERIOR, PointLocation.BOUNDARY})
        return [x for x in product(*ranges) if locate(P, x) in keep]
    if mode == "interior":
        raise DimensionDeficient("a lower-dimensional body has no interior points")
    return list(filter(shadow_membership(P), product(*ranges)))


def shadow_membership(P):
    """Reference membership test for a P of affine dimension k < d that
    shares no chart code: a point is in P when the vertices and it still have
    affine rank k, and its projection onto k coordinates, chosen so that the
    projection is injective on aff(P), lies in the hull of the projected
    vertices."""
    d, k, v0 = P.ambient_dim, P.affine_dim, P.vertices[0]
    span = [core.vsub(v, v0) for v in P.vertices]

    def on_span(x):
        return gauss(span + [core.vsub(x, v0)], d)[0] == k

    if k == 0:
        return on_span
    axes = next(c for c in combinations(range(d), k)
                if gauss([[w[i] for i in c] for w in span], k)[0] == k)
    shadow = convex_hull([[v[i] for i in axes] for v in P.vertices], k)
    return lambda x: (locate(shadow, [x[i] for i in axes]) is not PointLocation.OUTSIDE
                      and on_span(x))


@st.composite
def rational_polytopes(draw, denominators=(1, 3)):
    """Full-dimensional 2-D/3-D hulls of points with denominators in the
    given range, 1..3 by default."""
    d = draw(st.sampled_from((2, 3)))
    coord = st.builds(Fraction, st.integers(-12, 12), st.integers(*denominators))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 4))
    P = convex_hull(pts, d)
    assume(P.is_full_dimensional)
    return P


@settings(max_examples=120, deadline=None)
@given(rational_polytopes(), st.sampled_from(("all", "interior")))
def test_lattice_points_match_box_scan(P, mode):
    assert lattice_points(P, mode) == lattice_points_by_box_scan(P, mode)


@settings(max_examples=120, deadline=None)
@given(rational_polytopes((2, 7)), st.sampled_from(("all", "interior")))
def test_integer_box_of_rational_bodies_matches_box_scan(P, mode):
    # the box and the right-hand sides are read off numerators and denominators
    assert lattice_points(P, mode) == lattice_points_by_box_scan(P, mode)


def test_integer_vertex_bodies_build_no_fraction():
    bodies = [box(3, 2), simplex(3, 4), convex_hull([(0, 0, 0), (5, 1, 2), (2, 4, 1), (-1, 2, 3),
                                                     (1, 1, -2)], 3),
              convex_hull([(0, 0, 0), (6, 3, 9)], 3), skew_triangle(5)[0]]
    for P in bodies:
        for mode in ("all", "interior") if P.is_full_dimensional else ("all",):
            expect = lattice_points_by_box_scan(P, mode)
            with counted_fractions() as made:
                pts = lattice_points(P, mode)
            assert pts == expect
            assert made.count == 0, (P, mode)


@st.composite
def lower_dimensional_bodies(draw):
    """Bodies in d = 2..4 of affine dimension k = 0..d - 1: the points p0,
    p0 + w_j and p0 + sum_j t_j w_j for a base point p0, independent integer
    directions w_j and steps t_j in [-1, 1] with denominators 1..3.  The base
    point is integral or rational, or it has x_1 = 1/2 while the directions
    keep x_1 fixed, an affine span with no lattice point."""
    d = draw(st.sampled_from((2, 3, 4)))
    k = draw(st.sampled_from(range(d)))
    kind = draw(st.sampled_from(("integral", "rational", "half-plane")))
    coord = (st.integers(-4, 4) if kind == "integral"
             else st.builds(Fraction, st.integers(-8, 8), st.integers(1, 3)))
    p0 = draw(st.tuples(*[coord] * d))
    entry = st.integers(-2, 2)
    first = st.just(0) if kind == "half-plane" else entry
    if kind == "half-plane":
        p0 = (F(1, 2),) + p0[1:]
    dirs = draw(st.lists(st.tuples(first, *[entry] * (d - 1)), min_size=k, max_size=k))
    step = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)).filter(lambda t: abs(t) <= 1)
    pts = [p0] + [tuple(c + x for c, x in zip(p0, w)) for w in dirs]
    for _ in range(draw(st.integers(0, 3))):
        ts = draw(st.tuples(*[step] * k))
        pts.append(tuple(c + sum(t * w[i] for t, w in zip(ts, dirs)) for i, c in enumerate(p0)))
    P = convex_hull(pts, d)
    assume(P.affine_dim == k)
    return P


@settings(max_examples=200, deadline=None)
@given(lower_dimensional_bodies())
def test_lower_dimensional_lattice_points_match_box_scan(P):
    assert lattice_points(P) == lattice_points_by_box_scan(P, "all")
    for x in lattice_points(P):
        assert contains(P, x)
    with pytest.raises(DimensionDeficient):
        lattice_points(P, "interior")


def membership_queries(P, steps, offsets):
    """Rational points v0 + sum_j t_j (v_j - v0) on aff(P), one for each
    tuple t in ``steps``, and each of them moved off aff(P) by each
    rational in ``offsets`` along every unit vector outside the span."""
    d, v0 = P.ambient_dim, P.vertices[0]
    span = [core.vsub(v, v0) for v in P.vertices[1:]]
    on = [tuple(c + sum((t * w[i] for t, w in zip(ts, span)), F(0)) for i, c in enumerate(v0))
          for ts in steps]
    units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    normal_to = [e for e in units if gauss(span + [e], d)[0] > P.affine_dim]
    off = [tuple(c + h * x for c, x in zip(p, e)) for p in on for e in normal_to for h in offsets]
    return on, off


def assert_contains_matches_shadow(P, steps, offsets):
    member = shadow_membership(P)
    on, off = membership_queries(P, steps, offsets)
    for x in on + off + list(P.vertices):
        assert contains(P, x) == member(x), x
    assert not any(contains(P, x) for x in off)


@settings(max_examples=200, deadline=None)
@given(lower_dimensional_bodies(), st.data())
def test_lower_dimensional_contains_matches_shadow_oracle(P, data):
    # rational points on aff(P), inside and outside P, and points off aff(P)
    t = st.fractions(min_value=-2, max_value=2, max_denominator=6)
    steps = data.draw(st.lists(st.tuples(*[t] * (len(P.vertices) - 1)), min_size=1, max_size=6))
    offsets = data.draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5)
                                 .filter(bool), min_size=1, max_size=2))
    assert_contains_matches_shadow(P, steps, offsets)


FIXED_LOWER_DIMENSIONAL = {
    "rational-point": lambda: convex_hull([(F(1, 2), F(-2, 3), 5)], 3),  # k = 0
    "lattice-point": lambda: convex_hull([(1, 2, 3, 4)], 4),  # k = 0
    "segment": lambda: convex_hull([(0, 0, 0), (4, 2, 6)], 3),
    "rational-segment": lambda: convex_hull([(F(1, 3), 0), (F(7, 3), 1)], 2),  # no lattice point
    "half-plane": lambda: half_offset_triangle(3),  # on x_1 - x_2 = 1/2, no lattice point
}


@pytest.mark.parametrize("name", FIXED_LOWER_DIMENSIONAL)
def test_lower_dimensional_contains_fixed_bodies(name):
    P = FIXED_LOWER_DIMENSIONAL[name]()
    steps = list(product((F(-1, 2), 0, F(1, 3), 1, F(3, 2)), repeat=len(P.vertices) - 1))
    assert_contains_matches_shadow(P, steps, (F(1, 4), -1, 2))


@st.composite
def bodies_and_unimodular_maps(draw):
    """A full- or lower-dimensional body, a unimodular U and an integer
    translation t."""
    P = draw(st.one_of(lower_dimensional_bodies(), rational_polytopes()))
    d = P.ambient_dim
    return P, draw(unimodular_matrices(d)), draw(st.tuples(*[st.integers(-5, 5)] * d))


@settings(max_examples=120, deadline=None)
@given(bodies_and_unimodular_maps())
def test_lattice_points_commute_with_unimodular_maps(case):
    P, U, t = case

    def move(pts):
        return [tuple(c + s for c, s in zip(p, t)) for p in apply(U, pts)]

    Q = convex_hull(move(P.vertices), P.ambient_dim)
    assert lattice_points(Q) == sorted(move(lattice_points(P)))


def enumerate_points(normals, rhs, los, his) -> list:
    """``walk.enumerate_points`` on the one-sided rows a.x <= r."""
    return walk.enumerate_points(list(zip(normals, rhs)), los, his)


def enumerate_points_reference(normals, rhs, los, his) -> list:
    """The recursive enumerator that the walk's runs replaced: a prefix
    carries the partial sums a.prefix, updated point by point, and each
    coordinate is cut to the interval its inequalities leave over the box."""
    d = len(los)
    # tail_min[i][j] = least value of sum_{k>=j} a_k x_k over the box, a = normals[i]
    tail_min = []
    for a in normals:
        tm = [0] * (d + 1)
        for j in range(d - 1, -1, -1):
            tm[j] = tm[j + 1] + min(a[j] * los[j], a[j] * his[j])
        tail_min.append(tm)
    out, stack, partial = [], [], [0] * len(normals)

    def rec(j):
        if j == d:
            out.append(tuple(stack))
            return
        lo, hi = los[j], his[j]
        for i, a in enumerate(normals):
            slack = rhs[i] - partial[i] - tail_min[i][j + 1]
            if a[j] > 0:
                hi = min(hi, slack // a[j])  # floor(slack / a_j)
            elif a[j] < 0:
                lo = max(lo, -(slack // -a[j]))  # ceil(slack / a_j)
            elif slack < 0:
                return
        for x in range(lo, hi + 1):
            stack.append(x)
            for i, a in enumerate(normals):
                partial[i] += a[j] * x
            rec(j + 1)
            for i, a in enumerate(normals):
                partial[i] -= a[j] * x
            stack.pop()

    if all(lo <= hi for lo, hi in zip(los, his)):
        rec(0)
    return out


@st.composite
def inequality_systems(draw):
    """(normals, rhs, los, his) in d = 1..5: coefficients in [-3, 3], so zero
    and negative ones occur, a zero row with a negative right-hand side now
    and then (infeasible), and boxes of width -1..4 per coordinate, so empty
    (lo > hi) and single-point boxes occur."""
    d = draw(st.integers(1, 5))
    coeff = st.integers(-3, 3)
    normals = draw(st.lists(st.tuples(*[coeff] * d), max_size=6))
    rhs = draw(st.lists(st.integers(-8, 12), min_size=len(normals), max_size=len(normals)))
    if draw(st.integers(0, 9)) == 0:
        normals.append((0,) * d)
        rhs.append(-1)
    los = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    widths = st.integers(-1, 4) if d <= 3 else st.integers(-1, 3)
    his = [lo + draw(widths) for lo in los]
    return normals, rhs, los, his


@settings(max_examples=400, deadline=None)
@given(inequality_systems())
def test_enumerate_points_matches_reference(system):
    normals, rhs, los, his = system
    pts = enumerate_points(normals, rhs, los, his)
    assert pts == enumerate_points_reference(normals, rhs, los, his)
    assert all(p < q for p, q in zip(pts, pts[1:]))
    box_scan = [x for x in product(*(range(lo, hi + 1) for lo, hi in zip(los, his)))
                if all(core.vdot(a, x) <= r for a, r in zip(normals, rhs))]
    assert pts == box_scan


def test_enumerate_points_edge_boxes():
    # a single-point box, in and out of the halfspaces
    assert enumerate_points([(1, -2)], [0], [2, 1], [2, 1]) == [(2, 1)]
    assert enumerate_points([(1, -2)], [-1], [2, 1], [2, 1]) == []
    # an empty box, and an infeasible row with a zero normal
    assert enumerate_points([(1, 1)], [5], [0, 3], [4, 2]) == []
    assert enumerate_points([(1, 0), (0, 0)], [3, -1], [0, 0], [4, 4]) == []
    # no inequalities: the whole box, in lexicographic order
    assert enumerate_points([], [], [0, 1], [1, 2]) == [(0, 1), (0, 2), (1, 1), (1, 2)]


# (normals, rhs, los, his) and the number of solutions, for each way the
# walk folds the last level into its parent: rows with a zero last
# coefficient cut the parent's coordinate, the second, from [-2, 2] to
# [-1, 0], or to nothing; a zero row refuses every point; d = 1 folds into
# the virtual level, with a run bounded from both sides; at d = 4 the last
# level has only lower bounds
FOLDED_SYSTEMS = {
    "zero_last_rows_narrow_parent": (
        [(0, 1, 0), (0, -1, 0), (1, 0, 1), (0, 0, -1)], [0, 1, 2, 1], [-2] * 3, [2] * 3, 34),
    "zero_last_rows_empty_parent": (
        [(0, 1, 0), (0, -1, 0), (1, 1, 1)], [-1, 0, 3], [-2] * 3, [2] * 3, 0),
    "zero_row_negative_rhs_d1": ([(1,), (0,)], [2, -1], [-3], [3], 0),
    "zero_row_negative_rhs_d2": ([(1, 1), (0, 0)], [2, -1], [-3, -3], [3, 3], 0),
    "d1_both_signs": ([(2,), (-3,)], [5, 4], [-5], [5], 4),
    "d4_last_level_only_negative": (
        [(1, 1, 1, -1), (1, -1, 0, -2), (-1, 0, 2, 0)], [1, 0, 2], [-1] * 4, [2] * 4, 90),
}


@pytest.mark.parametrize("name", sorted(FOLDED_SYSTEMS))
def test_enumerate_points_folded_last_level(name):
    normals, rhs, los, his, count = FOLDED_SYSTEMS[name]
    pts = enumerate_points(normals, rhs, los, his)
    assert pts == enumerate_points_reference(normals, rhs, los, his)
    assert pts == [x for x in product(*(range(lo, hi + 1) for lo, hi in zip(los, his)))
                   if all(core.vdot(a, x) <= r for a, r in zip(normals, rhs))]
    assert len(pts) == count


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("rhs", [(1, 0), (0, 0), (2, -1)])
def test_enumerate_points_runs_against_box_scan(d, rhs):
    # with S the sum of the first d - 1 coordinates, the last one is cut to
    # S - rhs[1] <= x_d <= rhs[0] - S: the box [-1, 2]^d leaves prefixes
    # whose run is empty (large S), one point long (S = 0 at rhs (0, 0)) or
    # longer, and the swapped box holds no point at all
    normals = [(1,) * d, (1,) * (d - 1) + (-1,)]
    los, his = [-1] * d, [2] * d
    pts = enumerate_points(normals, list(rhs), los, his)
    scan = [x for x in product(*(range(lo, hi + 1) for lo, hi in zip(los, his)))
            if all(core.vdot(a, x) <= r for a, r in zip(normals, rhs))]
    assert type(pts) is list and all(type(p) is tuple for p in pts)
    assert pts == scan
    runs = Counter(x[:-1] for x in pts)
    if d > 1:
        assert len(runs) < 4 ** (d - 1)  # some prefixes of the box have an empty run
    assert (1 in runs.values()) == (rhs == (0, 0))
    assert enumerate_points(normals, list(rhs), his, los) == []


@st.composite
def two_sided_systems(draw):
    """(rows, pairs, los, his) in d = 1..4: one-sided rows (a, r) and pairs
    (a, r) with coefficients in [-3, 3], r >= 0 for a pair, a zero row and a
    zero pair now and then, and boxes as in ``inequality_systems``."""
    d = draw(st.integers(1, 4))
    normal = st.tuples(*[st.integers(-3, 3)] * d)
    rows = draw(st.lists(st.tuples(normal, st.integers(-8, 10)), max_size=4))
    pairs = draw(st.lists(st.tuples(normal, st.integers(0, 10)), max_size=4))
    for kind, r in ((rows, st.integers(-8, 10)), (pairs, st.integers(0, 10))):
        if draw(st.integers(0, 4)) == 0:
            kind.insert(draw(st.integers(0, len(kind))), ((0,) * d, draw(r)))
    los = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    widths = st.integers(-1, 4) if d <= 3 else st.integers(-1, 3)
    return rows, pairs, los, [lo + draw(widths) for lo in los]


@settings(max_examples=400, deadline=None)
@given(two_sided_systems())
# a pair with a zero last coefficient is cut by its parent's interval alone,
# which reads the pair's lower side off its - row: x_1 >= -1 here
@example(([], [((1, 0), 1)], [-3, 0], [3, 0]))
def test_two_sided_rows_walk_the_runs_of_their_one_sided_system(system):
    # a pair |a.x| <= r walks the runs of a.x <= r and -a.x <= r, and each
    # run carries a.prefix for the pairs
    rows, pairs, los, his = system
    one_sided = rows + [(s, r) for a, r in pairs for s in (a, tuple(-c for c in a))]
    runs = list(walk.runs(rows, los, his, pairs))
    assert [run[:3] for run in runs] == [run[:3] for run in walk.runs(one_sided, los, his)]
    for prefix, _, _, values in runs:
        assert list(values) == [core.vdot(a[:-1], prefix) for a, _ in pairs]
    assert [(*prefix, t) for prefix, lo, hi, _ in runs for t in range(lo, hi + 1)] == (
        enumerate_points_reference([a for a, _ in one_sided], [r for _, r in one_sided],
                                   los, his))


def test_pair_outside_the_box_is_cut_at_the_root(monkeypatch):
    # the box leaves x_3 above or below |x_3| <= 1, which the root reads off
    # the pair's zero first coefficient on each side: the walk enters no
    # node below the root, however long the first coordinate's range
    calls = []
    real = walk._interval
    monkeypatch.setattr(walk, "_interval", lambda *args: calls.append(args) or real(*args))
    for los, his in (([0, 0, 5], [1000, 0, 6]), ([0, 0, -6], [1000, 0, -5])):
        assert list(walk.runs([], los, his, [((0, 0, 1), 1)])) == []
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# lattice-point work grows with the answer, not with the bounding box


def skew_triangle(n):
    """conv(0, n u, n v) in R^4 for u = (1, 1, 1, 1) and v = (0, 1, 2, 3),
    which extend to a lattice basis: (n + 1)(n + 2) / 2 lattice points in a
    bounding box of about 6 n^4."""
    u, v = (1, 1, 1, 1), (0, 1, 2, 3)
    return convex_hull([(0,) * 4, tuple(n * c for c in u), tuple(n * c for c in v)], 4), u, v


def half_offset_triangle(n):
    """A rational triangle of side n on the plane x_1 - x_2 = 1/2, which
    holds no lattice point."""
    h = F(1, 2)
    return convex_hull([(h, 0, 0), (h + n, n, 0), (h, 0, n)], 3)


def test_long_segment_lattice_points():
    n = 10 ** 5
    with time_limit(20):
        pts = lattice_points(convex_hull([(0, 0, 0), (n, n, n)], 3))
    assert pts == [(i, i, i) for i in range(n + 1)]


def test_skew_triangle_lattice_points():
    n = 300
    with time_limit(20):
        P, u, v = skew_triangle(n)
        pts = lattice_points(P)
    assert len(pts) == (n + 1) * (n + 2) // 2 == 45451
    assert pts == sorted(tuple(a * x + b * y for x, y in zip(u, v))
                         for a in range(n + 1) for b in range(n + 1 - a))


def test_a_blow_up_in_the_walk_reports_a_timeout():
    # 10^9 parents whose runs are all empty: the limit fires inside the
    # walk's generator frame, and the error it raises formats as a failed
    # test, not as a crash of the test run
    with pytest.raises(TimeoutError) as info:
        with time_limit(0.2):
            list(walk.runs([((0, 1), -1), ((0, -1), -1)], [0, -5], [10 ** 9, 5]))
    info.getrepr()


def test_plane_without_lattice_points_enumerates_nothing(monkeypatch):
    calls = []
    real = walk.runs

    def counting_runs(*args):
        calls.append(args)
        return real(*args)

    # every enumeration, full-dimensional or through a chart, walks the runs
    monkeypatch.setattr(walk, "runs", counting_runs)
    monkeypatch.setattr(polytope, "runs", counting_runs)
    # side 10^6 first: a bounding-box scan, which materialises each coordinate
    # range, then fails on time before side 10^9 asks it for tens of GB
    for n in (10 ** 6, 10 ** 9):
        with time_limit(20):
            assert lattice_points(half_offset_triangle(n)) == []
    assert calls == []


def test_lattice_points_never_test_membership(monkeypatch):
    calls = []
    real = polytope.contains

    def counting_contains(P, x):
        calls.append(x)
        return real(P, x)

    monkeypatch.setattr(polytope, "contains", counting_contains)
    bodies = [box(3, 2), convex_hull([(0, 0, 0), (5, 5, 5)], 3), skew_triangle(4)[0],
              half_offset_triangle(6), convex_hull([(1, 2, 3)], 3),
              convex_hull([(F(1, 2), 0)], 2)]
    counts = [len(lattice_points(P)) for P in bodies]
    assert counts == [12, 6, 15, 0, 1, 0]
    assert calls == []


class TestVolume:
    def test_built_once(self, monkeypatch):
        # the hull's cone weight is divided once on first read, with no
        # determinant and no other minor
        calls = []
        real = polytope.cofactor_normal
        monkeypatch.setattr(polytope, "cofactor_normal",
                            lambda rows: calls.append(rows) or real(rows))
        P = convex_hull([(0, 0, 0), (3, 0, 1), (0, 2, 0), (1, 1, 4), (2, 3, 3)], 3)
        assert calls and P._volume is None
        calls.clear()
        first = volume(P)
        assert first == F(25, 3)
        assert volume(P) is first
        assert calls == []
        assert not hasattr(polytope, "determinant")

    def test_examples(self):
        assert volume(convex_hull(list(product((0, 1), repeat=3)), 3)) == 1
        assert volume(simplex(2)) == F(1, 2)
        assert volume(box(3, 2, 1)) == 6

    def test_lower_dimensional_is_zero(self):
        assert volume(convex_hull([(0, 0), (7, 3)], 2)) == 0

    def test_additive_on_split_boxes(self):
        whole = box(4, 3)
        left = convex_hull([(0, 0), (2, 0), (0, 3), (2, 3)], 2)
        right = convex_hull([(2, 0), (4, 0), (2, 3), (4, 3)], 2)
        assert volume(left) + volume(right) == volume(whole)

    def test_unimodular_and_translation_invariance(self):
        P = convex_hull([(0, 0), (3, 1), (1, 4), (-2, 2), (2, 3)], 2)
        v = volume(P)
        # shear (x, y) -> (x + 2y, y), then translate
        moved = convex_hull([(x + 2 * y + 5, y - 7) for x, y in P.vertices], 2)
        assert volume(moved) == v

    def test_simplex_3d(self):
        assert volume(simplex(3)) == F(1, 6)
        assert volume(simplex(3, 2)) == F(8, 6)


class TestDifferenceBody:
    def test_simplex_gives_hexagon(self):
        for w in (1, 3):
            K = difference_body(simplex(2, w))
            expect = convex_hull([(w, 0), (-w, 0), (0, w), (0, -w), (w, -w), (-w, w)], 2)
            assert K == expect

    def test_box(self):
        K = difference_body(box(3, 2))
        assert K == convex_hull([(3, 2), (3, -2), (-3, 2), (-3, -2)], 2)

    def test_symmetric_body_doubles(self):
        K = convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)], 2)
        D = difference_body(K)
        assert D == convex_hull([(2 * x, 2 * y) for x, y in K.vertices], 2)

    def test_requires_full_dim(self):
        with pytest.raises(DimensionDeficient):
            difference_body(convex_hull([(0, 0), (1, 1)], 2))


class TestSymmetricBody:
    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            SymmetricBody(convex_hull([(0, 0), (1, 0), (0, 1)], 2))

    def test_rejects_lower_dim(self):
        with pytest.raises(DimensionDeficient):
            SymmetricBody(convex_hull([(1, 0), (-1, 0)], 2))

    def test_rejects_what_is_no_polytope(self):
        for x in ([(1, 0), (-1, 0), (0, 1), (0, -1)], None, "K"):
            with pytest.raises(InvalidInput, match="built from a Polytope"):
                SymmetricBody(x)

    def test_mirror_test_builds_no_fraction(self):
        # the vertices are compared as lcm-scaled ints; a rational body
        # with a vertex missing its mirror is still refused
        pts = [(F(1, 2), 0, 1), (0, F(2, 3), -3), (1, 1, F(5, 6))]
        body = convex_hull(pts + [tuple(-c for c in p) for p in pts], 3)
        with counted_fractions() as made:
            SymmetricBody(body)
        assert made.count == 0
        with pytest.raises(NotSymmetric):
            SymmetricBody(convex_hull(pts + [tuple(-c for c in p) for p in pts[1:]], 3))


class TestPolar:
    def test_cube_cross_duality(self):
        for d in (2, 3):
            cube = convex_hull(list(product((-1, 1), repeat=d)), d)
            cross_pts = [tuple(s if j == i else 0 for j in range(d))
                         for i in range(d) for s in (1, -1)]
            cross = convex_hull(cross_pts, d)
            assert polar(SymmetricBody(cube)) == cross
            assert polar(SymmetricBody(cross)) == cube

    def test_simplex_difference_polar_hform(self):
        w = 2
        K = difference_body(simplex(2, w))
        dual = polar(K)
        # facets of the dual are cut out by the vertices of K at level 1
        expect = {((1, 0), F(1, w)), ((-1, 0), F(1, w)),
                  ((0, 1), F(1, w)), ((0, -1), F(1, w)),
                  ((1, -1), F(1, w)), ((-1, 1), F(1, w))}
        assert set(dual.facets) == expect

    def test_sharp_transference_body(self):
        K = SymmetricBody(convex_hull(
            [(1, F(3, 2)), (1, F(-1, 2)), (-1, F(-3, 2)), (-1, F(1, 2))], 2))
        dual = polar(K)
        assert dual == convex_hull(
            [(1, 0), (-1, 0), (F(-1, 2), 1), (F(1, 2), -1)], 2)

    def test_derived_bodies_built_once(self):
        P = convex_hull([(0, 0), (3, 1), (1, 4)], 2)
        K = difference_body(P)
        assert difference_body(P) is K
        assert K == difference_body(convex_hull(P.vertices, 2))

    def test_bipolarity_seeded(self):
        cfg = SuiteConfig("transference", seed=11, count=0, dim=3, coord_bound=4)
        for i in range(25):
            K = generate_instance(cfg, i)
            assert polar(polar(K)) == K


def polar_by_hull(K):
    """Reference: the hull of the dual points a / b of K's facets."""
    return convex_hull([tuple(F(c) / b for c in a) for a, b in K.facets], K.ambient_dim)


def inverse_transpose(U):
    """U^{-T} of a unimodular U, entry (i, j) the signed minor of U[i][j] over det U."""
    det = laplace_det(U)
    return [[(-1) ** (i + j) * laplace_det([r[:j] + r[j + 1:] for k, r in enumerate(U) if k != i])
             // det for j in range(len(U))] for i in range(len(U))]


def apply(U, pts):
    return [tuple(sum(u * c for u, c in zip(row, p)) for row in U) for p in pts]


@st.composite
def unimodular_matrices(draw, d, max_ops=4):
    """Up to ``max_ops`` elementary integer row operations and a sign flip."""
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    for _ in range(draw(st.integers(0, max_ops)) if pairs else 0):
        i, j = draw(st.sampled_from(pairs))
        k = draw(st.integers(-2, 2))
        U[i] = [a + k * b for a, b in zip(U[i], U[j])]
    if draw(st.booleans()):
        U[0] = [-a for a in U[0]]
    return U


@st.composite
def symmetric_bodies_and_maps(draw):
    """A random symmetric body in d = 1..4 with integer or rational vertices,
    and a unimodular map: elementary integer row operations and a sign flip."""
    d = draw(st.integers(1, 4))
    coord = draw(st.sampled_from((st.integers(-3, 3),
                                  st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)))))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d, max_size=d + 2))
    P = convex_hull(pts + [tuple(-c for c in p) for p in pts], d)
    assume(P.is_full_dimensional)
    return SymmetricBody(P), draw(unimodular_matrices(d, 3))


@given(symmetric_bodies_and_maps())
@settings(max_examples=60, deadline=None)
def test_polar_matches_hull_of_dual_points(body_and_map):
    K, U = body_and_map
    d = K.ambient_dim
    dual = polar(K)
    ref = polar_by_hull(K)
    assert dual.vertices == ref.vertices
    assert dual.facets == ref.facets
    assert volume(dual) == volume(ref)
    double = polar(polar(K))
    assert double == K and double.facets == K.facets
    moved = polar(SymmetricBody(convex_hull(apply(U, K.vertices), d)))
    expect = convex_hull(apply(inverse_transpose(U), dual.vertices), d)
    assert moved == expect and moved.facets == expect.facets


def test_polar_builds_no_hull(monkeypatch):
    # polars: the cross-polytope, and the rhombus with vertices (+-2, 0), (0, +-1/3)
    bodies = [(SymmetricBody(convex_hull(list(product((-1, 1), repeat=3)), 3)), F(4, 3)),
              (SymmetricBody(convex_hull([(F(1, 2), 3), (F(-1, 2), 3),
                                          (F(1, 2), -3), (F(-1, 2), -3)], 2)), F(4, 3))]
    calls = []
    real = polytope.convex_hull

    def counting_hull(points, d):
        calls.append(d)
        return real(points, d)

    monkeypatch.setattr(polytope, "convex_hull", counting_hull)
    for K, vol in bodies:
        dual = polar(K)
        assert calls == []
        assert volume(dual) == vol
        calls.clear()


def test_scale_and_json_roundtrip():
    P = convex_hull([(0, 0), (3, 1), (1, 4)], 2)
    half = convex_hull([tuple(c / 2 for c in v) for v in P.vertices], 2)
    assert volume(half) == volume(P) / 4
    data = P.to_json()
    Q = convex_hull([[F(c) for c in v] for v in data["vertices"]], data["dim"])
    assert Q == P


# ---------------------------------------------------------------------------
# the integer beneath-beyond hull against the Fraction one it replaced


def reference_hull_full_dim(pts, d, simplex):
    """Reference: the beneath-beyond hull on Fractions, with the centroid of
    the start simplex as its interior point, inserting the other points in
    the hull's farthest-first order."""
    def hyperplane(points, ref):
        # the cone weight is (d + 1) |det| of the edges and ref - base
        base = points[0]
        edges = [core.vsub(p, base) for p in points[1:]]
        normal = core.primitive(kernel_vector(edges, d))
        offset = sum((a * c for a, c in zip(normal, base)), F(0))
        side = sum((a * c for a, c in zip(normal, ref)), F(0))
        if side > offset:
            normal = tuple(-c for c in normal)
            offset = -offset
        elif side == offset:
            raise AssertionError("reference point on facet hyperplane")
        weight = (d + 1) * abs(gauss(edges + [core.vsub(ref, base)], d)[1])
        return normal, offset, weight

    ref = tuple(sum(coords, F(0)) / (d + 1) for coords in zip(*(pts[i] for i in simplex)))
    facets = {}
    next_id = 0
    for subset in combinations(simplex, d):
        facets[next_id] = (tuple(sorted(subset)),) + hyperplane([pts[i] for i in subset], ref)
        next_id += 1
    # farthest from the centroid first, ties in index order (a stable sort)
    order = sorted((p for p in range(len(pts)) if p not in simplex),
                   key=lambda p: -sum((c - r) ** 2 for c, r in zip(pts[p], ref)))
    for p in order:
        x = pts[p]
        visible = [fid for fid, (_, a, b, _) in facets.items()
                   if sum((u * c for u, c in zip(a, x)), F(0)) > b]
        ridge_count = {}
        for fid in visible:
            verts = facets.pop(fid)[0]
            for drop in verts:
                ridge = tuple(v for v in verts if v != drop)
                ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
        for ridge, cnt in ridge_count.items():
            if cnt == 1:
                new_verts = tuple(sorted(ridge + (p,)))
                facets[next_id] = (new_verts,) + hyperplane([pts[i] for i in new_verts], ref)
                next_id += 1
    return list(facets.values())


def mixed_rational(q):
    """A rational in [-5, 5] with denominator q."""
    return st.integers(-5 * q, 5 * q).map(lambda n: F(n, q))


@st.composite
def mixed_denominator_point_sets(draw):
    """d = 2..4 points whose coordinates each draw their own denominator,
    small or up to 10^12, with integers mixed in."""
    d = draw(st.integers(2, 4))
    coord = st.one_of(st.integers(-5, 5),
                      st.integers(1, 12).flatmap(mixed_rational),
                      st.integers(1, 10 ** 12).flatmap(mixed_rational))
    return d, draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 5))


@given(mixed_denominator_point_sets())
@settings(max_examples=80, deadline=None)
def test_integer_hull_matches_fraction_reference(case):
    d, pts = case
    real = polytope._hull_full_dim
    runs = {real: [], reference_hull_full_dim: []}  # (points, facet simplices) per call

    def recording(hull):
        def run(ipts, d, simplex):
            out = hull(ipts, d, simplex)
            runs[hull].append((ipts, out))
            return out
        return run

    try:
        polytope._hull_full_dim = recording(real)
        P = convex_hull(pts, d)
        polytope._hull_full_dim = recording(reference_hull_full_dim)
        ref = convex_hull(pts, d)
    finally:
        polytope._hull_full_dim = real
    assert P.vertices == ref.vertices
    assert P.affine_dim == ref.affine_dim
    # the same (corners, normal, offset, cone weight) per facet simplex, in order
    assert runs[real] == runs[reference_hull_full_dim]
    if P.is_full_dimensional:
        assert P.facets == ref.facets
        ipts, simplices = runs[reference_hull_full_dim][0]
        triangulation = [[ipts[i] for i in verts] for verts, *_ in simplices]
        assert volume(P) == volume_by_determinant_fan(P.integer_vertices[0], triangulation)
    assert volume(P) == volume(ref)


@st.composite
def hull_volume_cases(draw):
    """Rational points in d = 1..4: d + 1 to d + 4 distinct drawn ones, a
    third of the time all moved onto the hyperplane x_d = c_0 + c.x, so that
    their hull is flat, then duplicates of them, means of some of them,
    inside their hull, and affine combinations of d of them, on their
    hyperplane."""
    d = draw(st.integers(1, 4))
    coord = st.one_of(st.integers(-4, 4), st.builds(F, st.integers(-8, 8), st.integers(1, 3)))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 4, unique=True))
    if not draw(st.integers(0, 2)):
        c = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        pts = [p[:-1] + (c[0] + core.vdot(c[1:], p[:-1]),) for p in pts]
    some = st.lists(st.sampled_from(pts), min_size=1, max_size=d)
    for kind in draw(st.lists(st.sampled_from(("duplicate", "mean", "affine")), max_size=4)):
        chosen = draw(some)
        if kind == "duplicate":
            pts.append(chosen[0])
        elif kind == "mean":
            pts.append(tuple(sum(col, F(0)) / len(chosen) for col in zip(*chosen)))
        else:
            ts = draw(st.lists(st.integers(-2, 2), min_size=len(chosen) - 1,
                               max_size=len(chosen) - 1))
            ts.append(1 - sum(ts))
            pts.append(tuple(sum(t * x for t, x in zip(ts, col)) for col in zip(*chosen)))
    return d, pts


def volume_by_reference_hull(pts, d):
    """0 for points of affine rank below d, else the determinant fan over
    the boundary simplices of ``reference_hull_full_dim``, on the points as
    Fractions."""
    pts = sorted(set(tuple(F(c) for c in p) for p in pts))
    picked = greedy_basis([core.vsub(p, pts[0]) for p in pts])
    if len(picked) < d:
        return 0
    simplices = reference_hull_full_dim(pts, d, [0] + picked)
    return volume_by_determinant_fan(1, [[pts[i] for i in verts] for verts, *_ in simplices])


@given(hull_volume_cases())
@settings(max_examples=200, deadline=None)
def test_hull_volume_is_the_determinant_fan(case):
    # the summed cone weights against a fan of Fraction determinants
    d, pts = case
    assert volume(convex_hull(pts, d)) == volume_by_reference_hull(pts, d)


@st.composite
def point_sets_and_integer_affine_maps(draw):
    """Integer or rational points in d = 2..4, a map x -> U D x + t with U a
    product of elementary integer row operations and a sign flip
    (unimodular), D a diagonal of 1..3, and t an integer translation."""
    d = draw(st.integers(2, 4))
    coord = draw(st.sampled_from((st.integers(-4, 4),
                                  st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4)))))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 4))
    U = draw(unimodular_matrices(d))
    diag = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    M = [[u * k for u, k in zip(row, diag)] for row in U]
    t = draw(st.tuples(*[st.integers(-5, 5)] * d))
    return d, pts, M, t


@given(point_sets_and_integer_affine_maps())
@settings(max_examples=60, deadline=None)
def test_hull_commutes_with_integer_affine_maps(case):
    # facet a.x <= b of P becomes (M^-T a).y <= b + (M^-T a).t on y = Mx + t;
    # the primitive normal n is c M^-T a with c > 0, and the offset c b + n.t
    d, pts, M, t = case
    P = convex_hull(pts, d)
    assume(P.is_full_dimensional)
    moved = [tuple(c + s for c, s in zip(p, t)) for p in apply(M, pts)]
    Q = convex_hull(moved, d)
    assert Q.vertices == tuple(sorted(tuple(c + s for c, s in zip(p, t))
                                      for p in apply(M, P.vertices)))
    expect = []
    for a, b in P.facets:
        w = solve_linear(list(zip(*M)), a)
        n = core.primitive([x * math.lcm(*(y.denominator for y in w)) for x in w])
        c = next(F(x, y) for x, y in zip(n, w) if y)
        expect.append((n, c * b + core.vdot(n, t)))
    assert Q.facets == tuple(sorted(expect))
    assert volume(Q) == abs(laplace_det(M)) * volume(P)


def test_hull_keeps_integer_facets(monkeypatch):
    # the hull proper takes ints, returns int offsets and cone weights and
    # builds no Fraction; the polytope keeps its simplices' distinct (normal,
    # offset) pairs as its integer facets, and no triangulation.  Reading
    # the facets makes one Fraction per facet, once
    pts = list(product(range(3), repeat=3)) + [(1, 1, 5), (-2, 1, 1), (4, 3, -1)]
    ipts = sorted(set(pts))
    start = [0] + core.independent([core.vsub(p, ipts[0]) for p in ipts])
    with counted_fractions() as made:
        simplices = polytope._hull_full_dim(ipts, 3, start)
    assert made.count == 0
    assert simplices and all(type(b) is int and type(w) is int and w > 0
                             for _, _, b, w in simplices)
    calls = counting_wrapper(monkeypatch, polytope)
    P = convex_hull(pts, 3)
    assert calls == []
    assert P.integer_facets == tuple(sorted({(a, b) for _, a, b, _ in simplices}))
    assert len(P.integer_facets) < len(simplices)
    facets = P.facets
    assert len(calls) == len(facets) and P.facets is facets
    assert P._cone_weight == sum(w for *_, w in simplices)
    assert not any("simplices" in slot for slot in polytope.Polytope.__slots__)


@pytest.mark.parametrize("pts, parsed", [
    ([(0, 0, 0), (3, 0, 0), (0, 5, 0), (0, 0, 2), (1, 1, 1), (-1, 2, 1), (1, -2, 1)], 0),
    ([(0, 0, 0), (F(3, 2), 0, 0), (0, F(5, 3), 0), (0, 0, 2), (1, 1, F(1, 2)),
      (F(-1, 2), 1, 1), (1, F(-2, 3), 1)], 10),
], ids=["integer", "rational"])
def test_hull_and_difference_body_make_no_facet_fraction(pts, parsed):
    # the hull takes a point of ints as it is and parses any other, one
    # Fraction per int entry, and makes no other; P - P and its polar make
    # none: the facets are ints over the L of the vertices, and a Fraction
    # offset is made when ``facets`` is first read
    with counted_fractions() as made:
        P = convex_hull(pts, 3)
    assert made.count == parsed
    with counted_fractions() as made:
        K = difference_body(P)
        dual = polar(K)
    assert made.count == 0
    for body in (P, K, dual):
        L = body.integer_vertices[0]
        with counted_fractions() as made:
            facets = body.facets
        assert made.count == len(facets) == len(body.integer_facets)
        assert facets == tuple((a, F(c, L)) for a, c in body.integer_facets)


# P - P read off P's faces against the hull of the n^2 differences it replaced


def fraction_dual_vertices(K):
    """Reference: (M, W) off K's Fraction facets a.x <= p / q, M the lcm of
    the p and W_f = a q (M / p), as they were read before the facets were
    kept as ints."""
    M = math.lcm(*(b.numerator for _, b in K.facets))
    return M, [tuple(c * (b.denominator * (M // b.numerator)) for c in a) for a, b in K.facets]


def reference_difference_body(P):
    """Reference: the hull, through ``convex_hull``, of the distinct
    differences of P's vertices, formed on the vertices scaled to integers
    by the lcm L of their denominators and divided by L once."""
    L, verts = core.clear_denominators(P.vertices)
    diffs = {core.vsub(v, w) for v in verts for w in verts}
    return convex_hull([tuple(F(c, L) for c in x) for x in diffs], P.ambient_dim)


def assert_matches_reference(P):
    body = difference_body(P)
    ref = reference_difference_body(P)
    assert body.vertices == ref.vertices
    assert body.facets == ref.facets


def test_weak_meet_rule_in_the_difference_body_is_caught(monkeypatch):
    # planted once P is built, the rule acts on P - P alone: (2, 2, 0) -
    # (0, 0, 0) lies on an edge of P - P = [-2, 2]^3, and the max side of its
    # meet is the edge x1 = x2 = 2 of P, two bits, which the rule keeps
    P = box(2, 2, 2)
    ref = reference_difference_body(P)
    plant_meet_rule(monkeypatch, at_most_three_bits)
    assert difference_body(P).vertices != ref.vertices


@pytest.mark.parametrize("pts", [
    [(0, 0, 0), (3, 0, 0), (0, 5, 0), (0, 0, 2), (1, 1, 1), (-1, 2, 1), (1, -2, 1)],
    [(0, 0, 0), (F(3, 2), 0, 0), (0, F(5, 3), 0), (0, 0, 2), (1, 1, F(1, 2)),
     (F(-1, 2), 1, 1), (1, F(-2, 3), 1)],
], ids=["integer", "rational"])
def test_difference_body_subtracts_integers(monkeypatch, pts):
    # P - P is read off P's vertices and facets scaled to integers by the
    # lcm of their denominators, and keeps its vertices and facets as ints
    # over that L, so it makes no Fraction; the mirror test runs on ints
    P = convex_hull(pts, 3)
    with counted_fractions() as made:
        body = difference_body(P)
    assert made.count == 0
    assert body.integer_vertices[0] == P.integer_vertices[0]
    assert all(type(c) is int for _, c in body.integer_facets)
    monkeypatch.setattr(polytope, "_hull_full_dim", reference_hull_full_dim)
    assert_matches_reference(P)


def test_difference_body_builds_no_hull(monkeypatch):
    # P - P is built once per polytope with no hull; only its volume asks for
    # one, of its integer vertices over their L, with no rational points parsed
    P = convex_hull([(0, 0, 0), (F(1, 2), 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, F(2, 3))], 3)
    expect = volume(reference_difference_body(P))
    calls = []
    for name in ("convex_hull", "_integer_hull", "_hull_full_dim", "_minkowski_difference"):
        real = getattr(polytope, name)
        monkeypatch.setattr(polytope, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    K = difference_body(P)
    assert difference_body(P) is K
    assert calls == ["_minkowski_difference"]
    assert volume(K) == expect
    assert calls == ["_minkowski_difference", "_integer_hull", "_hull_full_dim"]


def test_verify_path_makes_no_vertex_of_the_difference_body():
    # the minima, transference and flatness read P - P's integer vertices
    # alone, and its Fraction vertices are made when first read, d per vertex
    P = convex_hull([(0, 0, 0), (3, 1, 0), (1, 4, 1), (0, 1, 5), (2, 2, 2), (-2, 1, 1)], 3)
    K = difference_body(P)
    for report in (gon.verify_minkowski_second(P), gon.verify_transference(K),
                   gon.flatness_report(P)):
        assert report.holds
    assert K._vertices is None
    with counted_fractions() as made:
        vertices = K.vertices
    assert made.count == 3 * len(vertices) > 0
    assert K.vertices is vertices


DIFFERENCE_FAMILIES = {
    "segment": ([(F(-2, 3),), (3,)], 1),
    "hexagonal prism": ([(x, y, z) for x, y in [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2),
                                                (1, -2)] for z in (0, 3)], 3),
    "4-cross-polytope": ([tuple(s * int(i == j) for j in range(4))
                          for i in range(4) for s in (1, -1)], 4),
    "square pyramid": ([(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 2)], 3),
    "triangle x triangle": ([p + q for p in [(0, 0), (1, 0), (0, 1)]
                             for q in [(0, 0), (1, 0), (0, 1)]], 4),
    "sheared 4-cube": ([(a + 2 * b, b - c, c + 3 * d, d)
                        for a, b, c, d in product((0, 1), repeat=4)], 4),
    "cyclic 4-polytope": ([tuple(t ** k for k in range(1, 5)) for t in range(-3, 5)], 4),
    "rational octagon": ([(2, F(1, 2)), (F(1, 2), 2), (F(-1, 3), 2), (-2, F(1, 3)),
                          (-2, F(-1, 2)), (F(-1, 2), -2), (F(1, 3), -2), (2, F(-1, 3))], 2),
    # a facet of P - P whose face pair has a direction orthogonal to a facet
    # normal at the other face: the normal cone test must let a 0 through
    "cone boundary": ([(-4, -2, -1, 2), (-3, 1, -2, 2), (-2, -2, -1, 1), (-2, 2, 2, -1),
                       (-2, 4, -3, 0), (3, 2, 3, 0), (4, -1, 4, -1)], 4),
    # the 78 vertices of the hull of the shell 25 <= |x|^2 <= 36, the points
    # with |x|^2 = 35 or 36: the README's largest 3-D body
    "3-D shell": ([x for x in product(range(-6, 7), repeat=3)
                   if 35 <= sum(c * c for c in x) <= 36], 3),
}


@pytest.mark.parametrize("name", list(DIFFERENCE_FAMILIES))
def test_difference_body_families_match_reference(name):
    pts, d = DIFFERENCE_FAMILIES[name]
    P = convex_hull(pts, d)
    assert P.vertices == tuple(sorted(tuple(F(c) for c in p) for p in pts))
    assert_matches_reference(P)


@st.composite
def rational_bodies(draw):
    """Full-dimensional hulls in d = 2..4 of small integer points, whose
    faces are often parallel, or of points with denominators 1..7."""
    d = draw(st.integers(2, 4))
    coord = draw(st.sampled_from((st.integers(-3, 3),
                                  st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)))))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 5))
    P = convex_hull(pts, d)
    assume(P.is_full_dimensional)
    return P


@given(rational_bodies())
@settings(max_examples=80, deadline=None)
def test_difference_body_matches_reference(P):
    assert_matches_reference(P)


@given(rational_bodies())
@settings(max_examples=40, deadline=None)
def test_vertices_made_on_first_read_are_the_integer_vertices_over_l(P):
    # P and P - P make their vertices x / L when first read, sorted, and
    # equal and hash as the hull of those points, which makes its own
    for B in (P, difference_body(P)):
        assert B._vertices is None
        L, xs = B.integer_vertices
        vertices = B.vertices
        assert vertices == tuple(tuple(F(c, L) for c in x) for x in xs)
        assert list(vertices) == sorted(vertices)
        H = convex_hull([[F(c, L) for c in x] for x in xs], B.ambient_dim)
        assert B == H and H == B and hash(B) == hash(H)


@given(rational_bodies(), st.data())
@settings(max_examples=40, deadline=None)
def test_difference_body_commutes_with_translations_and_shears(P, data):
    # (P + t) - (P + t) = P - P, and U(P) - U(P) = U(P - P) for U in GL_d(Z),
    # whose facets a.x <= b become (U^-T a).y <= b with U^-T a primitive
    d = P.ambient_dim
    K = difference_body(P)
    t = data.draw(st.tuples(*[st.integers(-5, 5)] * d))
    moved = difference_body(convex_hull([core.vsub(v, t) for v in P.vertices], d))
    assert moved.vertices == K.vertices and moved.facets == K.facets
    U = data.draw(unimodular_matrices(d))
    sheared = difference_body(convex_hull(apply(U, P.vertices), d))
    assert sheared.vertices == tuple(sorted(apply(U, K.vertices)))
    dual = inverse_transpose(U)
    assert sheared.facets == tuple(sorted((apply(dual, [a])[0], b) for a, b in K.facets))


def test_difference_body_of_simplices_and_cube_is_fast():
    # closed forms: the d-simplex gives 2^(d+1) - 2 facets, one per proper
    # nonempty subset of its vertices, and d(d + 1) vertices e_i - e_j; the
    # unit 5-cube gives [-1, 1]^5
    with time_limit(4):
        for d in (5, 6, 7):
            K = difference_body(simplex(d))
            assert len(K.facets) == 2 ** (d + 1) - 2
            assert len(K.vertices) == d * (d + 1)
        K = difference_body(box(1, 1, 1, 1, 1))
    assert K.vertices == tuple(sorted(product((-1, 1), repeat=5)))
    assert K.facets == tuple(sorted((tuple(s * int(i == j) for j in range(5)), 1)
                                    for i in range(5) for s in (1, -1)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_difference_body_volume_of_simplices(d):
    # Rogers-Shephard: vol(P - P) = C(2d, d) vol(P) exactly for simplices
    rational = [(0,) * d] + [tuple(F(i + 1, 2) if j == i else F(j - i, 3) for j in range(d))
                             for i in range(d)]
    for P in (simplex(d), simplex(d, 3), convex_hull(rational, d)):
        assert volume(difference_body(P)) == math.comb(2 * d, d) * volume(P)


@given(rational_bodies())
@settings(max_examples=30, deadline=None)
def test_difference_body_volume_within_rogers_shephard(P):
    d = P.ambient_dim
    vol = volume(difference_body(P))
    assert 2 ** d * volume(P) <= vol <= math.comb(2 * d, d) * volume(P)


def test_simplex_hull_in_high_dimension_is_fast():
    # the facet normals cost O(d^3) each, not d! products
    for d in (8, 12):
        pts = [(0,) * d] + [tuple(int(i == j) for j in range(d)) for i in range(d)]
        with time_limit(10):
            P = convex_hull(pts, d)
            assert volume(P) == F(1, math.factorial(d))
        assert P.vertices == tuple(sorted(pts))
        assert len(P.facets) == d + 1
        assert ((tuple([1] * d), 1) in P.facets)


def test_dependent_facet_simplex_is_an_internal_error():
    # a zero cofactor normal is a broken hull invariant, not a division by zero
    with pytest.raises(InternalError):
        polytope._facet_hyperplane([(0, 0, 0), (1, 2, 3), (2, 4, 6)], (1, 1, 1), 3)


class TestIntegerVertices:
    @staticmethod
    def assert_scaled(P):
        L, xs = P.integer_vertices
        assert type(L) is int and L > 0
        assert all(type(c) is int for x in xs for c in x)
        assert tuple(tuple(F(c, L) for c in x) for x in xs) == P.vertices

    @settings(max_examples=80, deadline=None)
    @given(mixed_denominator_point_sets())
    def test_every_constructor_carries_them(self, case):
        d, pts = case
        P = convex_hull(pts, d)
        self.assert_scaled(P)
        if P.is_full_dimensional:
            K = difference_body(P)
            for body in (K, polar(K), polar(polar(K))):
                self.assert_scaled(body)
        else:
            self.assert_scaled(P._chart[3])

    @settings(max_examples=80, deadline=None)
    @given(lower_dimensional_bodies())
    def test_lower_dimensional_bodies_carry_them(self, P):
        self.assert_scaled(P)
        self.assert_scaled(P._chart[3])

    @settings(max_examples=80, deadline=None)
    @given(mixed_denominator_point_sets())
    def test_facets_read_off_integer_facets(self, case):
        # each body keeps (a, c), a primitive and c the int max a.x over its
        # integer vertices x, reached on d of them at least; its facets are
        # the (a, c / L) built on first read, and the (M, W) of a symmetric
        # body are those the Fraction offsets give
        d, pts = case
        P = convex_hull(pts, d)
        assume(P.is_full_dimensional)
        K = difference_body(P)
        dual = polar(K)
        for body in (P, K, dual, polar(dual)):
            L, xs = body.integer_vertices
            for a, c in body.integer_facets:
                levels = [core.vdot(a, x) for x in xs]
                assert type(c) is int and math.gcd(*a) == 1
                assert max(levels) == c and levels.count(c) >= d
            assert body._facets is None
            assert body.facets == tuple((a, F(c, L)) for a, c in body.integer_facets)
            assert body.facets is body.facets
        for body in (K, dual):
            assert body.dual_vertices == fraction_dual_vertices(body)

    def test_chart_hull_parses_each_point_once(self, monkeypatch):
        # 3,000 rational points on a 2-plane in R^4: the chart coordinates go
        # to the inner hull as ints, so only the points given are parsed; the
        # build makes a Fraction only for the chart's base point, and the
        # vertices and the inner offsets are made when read
        origin, u, w = (F(1, 2), 0, F(1, 3), 1), (1, 2, 0, -1), (0, 1, 3, 1)
        pts = []
        for i in range(3000):
            s, t = F(i % 97 - 48, 1 + i % 7), F(i % 89 - 44, 1 + i % 5)
            pts.append(tuple(o + s * a + t * b for o, a, b in zip(origin, u, w)))
        parsed = []
        real = polytope.as_ratvec
        monkeypatch.setattr(polytope, "as_ratvec", lambda p, *d: parsed.append(p) or real(p, *d))
        calls = counting_wrapper(monkeypatch, polytope)
        P = convex_hull(pts, 4)
        inner = P._chart[3]
        assert P.affine_dim == 2 and len(parsed) == len(pts)
        assert len(calls) == 4
        assert P.vertices == tuple(sorted(set(pts) & set(P.vertices)))
        assert len(calls) == 4 + 4 * len(P.vertices)
        assert len(inner.facets) == len(inner.integer_facets) > 0
        assert len(calls) == 4 + 4 * len(P.vertices) + len(inner.facets)
        assert len(P.vertices) == len(inner.vertices)

    def test_volume_sums_integer_determinants(self):
        # one Fraction for the result, the hull's int cone weight over
        # (d + 1) L^d d!; rational scaling by 1/s scales the volume by 1/s^d
        for pts, d in ((list(product((0, 1), repeat=3)), 3),
                       ([(0, 0, 0, 0), (3, 1, 0, 2), (0, 2, 5, 1), (1, 1, 4, 0), (2, 3, 3, 3),
                         (4, 0, 1, 1)], 4)):
            for s in (1, 3, 7):
                P = convex_hull([tuple(F(c, s) for c in p) for p in pts], d)
                with counted_fractions() as made:
                    vol = volume(P)
                assert made.count == 1
                assert vol == volume(convex_hull(pts, d)) / s ** d
