from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latmin import toric
from latmin.core import determinant, primitive, vdot, vsub
from latmin.errors import (
    DimensionMismatch,
    InvalidInput,
    InvalidWeights,
    MixedProfile,
    NotAmplePolytope,
    NotAVertex,
    SingularVertex,
)
from latmin.gon import lattice_width, successive_minima
from latmin.generate import SplitMix64, instance_stream
from latmin.polytope import convex_hull, difference_body
from latmin.toric import (
    EpsBracket,
    EpsExact,
    EpsProfile,
    MomentPolytope,
    ProductOfP1,
    ProjectiveSpace,
    eps_at_invariant_point,
    eps_bracket_general,
    exact_eps_family,
    toric_volume,
    verify_m2m,
    vertex_cone,
)
from counting import counted_fractions
from reference import gauss, solve_linear

F = Fraction


def box_mp(*sides):
    d = len(sides)
    corners = [tuple(s if bit else 0 for s, bit in zip(sides, bits))
               for bits in product((0, 1), repeat=d)]
    return MomentPolytope.from_points(corners, d)


def simplex_mp(d, w=1):
    pts = [tuple(0 for _ in range(d))]
    for i in range(d):
        pts.append(tuple(w if j == i else 0 for j in range(d)))
    return MomentPolytope.from_points(pts, d)


def random_mp(seed, index, dim, bound):
    rng = instance_stream(seed, index)
    while True:
        pts = [tuple(rng.int_in(-bound, bound) for _ in range(dim))
               for _ in range(dim + 4)]
        P = convex_hull(pts, dim)
        if P.is_full_dimensional:
            return MomentPolytope(P)


class TestVertexCone:
    def test_box_origin(self):
        cone = vertex_cone(box_mp(3, 2), (0, 0))
        assert cone.edge_generators == ((0, 1), (1, 0))
        assert cone.smooth

    def test_dilated_simplex_far_vertex(self):
        cone = vertex_cone(simplex_mp(2, 2), (2, 0))
        assert set(cone.edge_generators) == {(-1, 0), (-1, 1)}
        assert cone.smooth

    def test_simplex_origin(self):
        cone = vertex_cone(simplex_mp(2, 2), (0, 0))
        assert set(cone.edge_generators) == {(1, 0), (0, 1)}
        assert cone.smooth

    def test_not_a_vertex(self):
        with pytest.raises(NotAVertex):
            vertex_cone(box_mp(3, 2), (1, 1))

    def test_singular_vertex_flagged(self):
        mp = MomentPolytope.from_points([(0, 0), (1, 0), (1, 2)], 2)
        cone = vertex_cone(mp, (0, 0))
        assert set(cone.edge_generators) == {(1, 0), (1, 2)}
        assert not cone.smooth

    def test_nonsimple_vertex_rejected(self):
        pyramid = MomentPolytope.from_points(
            [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)], 3)
        with pytest.raises(NotAmplePolytope):
            vertex_cone(pyramid, (1, 1, 1))


class TestEpsAtInvariantPoint:
    def test_box_32(self):
        prof = eps_at_invariant_point(box_mp(3, 2), (0, 0))
        assert [e.value for e in prof.entries] == [5, 2]
        assert all(e.provenance == "invariant_point" for e in prof.entries)

    def test_simplex_constant(self):
        for d, w in [(2, 1), (2, 3), (3, 2)]:
            prof = eps_at_invariant_point(simplex_mp(d, w), tuple([0] * d))
            assert [e.value for e in prof.entries] == [w] * d

    def test_box_321(self):
        prof = eps_at_invariant_point(box_mp(3, 2, 1), (0, 0, 0))
        assert [e.value for e in prof.entries] == [6, 3, 1]

    def test_smooth_quadrilateral_exceeds_the_sandwich(self):
        # the cone at u = (0, 4) is smooth, with edges (-1, -1) and (0, -1)
        # of lattice lengths 1 and 10: eps_1 = max(4 - y) = 10, eps_2 is the
        # shorter edge, and the area is 23/2, so vol / prod(eps) = 23/10 > 2!
        # and the sandwich's upper half is no property of fixed points
        mp = MomentPolytope.from_points([(-2, -1), (-1, 3), (0, -6), (0, 4)], 2)
        prof = eps_at_invariant_point(mp, (0, 4))
        assert [e.value for e in prof.entries] == [10, 1]
        assert toric_volume(mp) == 23
        rep = verify_m2m(mp, prof)
        assert rep.quantities["ratio"] == "23/10" and not rep.holds

    def test_singular_vertex_raises(self):
        mp = MomentPolytope.from_points([(0, 0), (1, 0), (1, 2)], 2)
        with pytest.raises(SingularVertex):
            eps_at_invariant_point(mp, (0, 0))

    def test_nonsimple_polytope_raises(self):
        pyramid = MomentPolytope.from_points(
            [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)], 3)
        with pytest.raises(NotAmplePolytope):
            eps_at_invariant_point(pyramid, (0, 0, 0))

    def test_nonsimple_checked_before_vertex(self):
        pyramid = MomentPolytope.from_points(
            [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)], 3)
        with pytest.raises(NotAmplePolytope):
            eps_at_invariant_point(pyramid, (1, 1, 0))
        with pytest.raises(NotAVertex):
            eps_at_invariant_point(box_mp(3, 2), (1, 1))

    def test_vertex_of_another_length_builds_no_cone(self, monkeypatch):
        # a zip would read (0, 0, 0) as the vertex (0, 0) of a 2-D body; it
        # is refused before any of the vertex cones is built
        calls = []
        monkeypatch.setattr(toric, "vertex_cone",
                            lambda MP, u, real=vertex_cone: calls.append(u) or real(MP, u))
        mp = box_mp(3, 2)
        for u in ((0, 0, 0), (0,), ()):
            with pytest.raises(DimensionMismatch):
                eps_at_invariant_point(mp, u)
            with pytest.raises(DimensionMismatch):
                vertex_cone(mp, u)
        assert calls == []

    def test_one_cone_per_vertex(self, monkeypatch):
        calls = []

        def counting_vertex_cone(MP, u):
            calls.append(tuple(u))
            return vertex_cone(MP, u)

        monkeypatch.setattr(toric, "vertex_cone", counting_vertex_cone)
        mp = box_mp(3, 2, 1)
        prof = eps_at_invariant_point(mp, (0, 0, 0))
        assert [e.value for e in prof.entries] == [6, 3, 1]
        assert sorted(calls) == sorted(mp.vertices_int)

    def test_every_vertex_agrees_with_family(self):
        prof, mp = exact_eps_family(ProductOfP1((3, 2)))
        expect = [e.value for e in prof.entries]
        for v in mp.vertices_int:
            got = [e.value for e in eps_at_invariant_point(mp, v).entries]
            assert got == expect
        prof, mp = exact_eps_family(ProjectiveSpace(3, 2))
        expect = [e.value for e in prof.entries]
        for v in mp.vertices_int:
            assert [e.value for e in eps_at_invariant_point(mp, v).entries] == expect

    def test_scaling(self):
        base = eps_at_invariant_point(box_mp(3, 2), (0, 0))
        scaled = eps_at_invariant_point(box_mp(9, 6), (0, 0))
        assert [e.value for e in scaled.entries] == \
            [3 * e.value for e in base.entries]

    def test_unimodular_invariance(self):
        mp = box_mp(3, 2)
        base = [e.value for e in eps_at_invariant_point(mp, (0, 0)).entries]
        # apply (x, y) -> (x + y, y) and translate by (5, -1)
        moved = MomentPolytope.from_points(
            [(x + y + 5, y - 1) for x, y in mp.vertices_int], 2)
        got = [e.value for e in eps_at_invariant_point(moved, (5, -1)).entries]
        assert got == base

    def test_monotone_nonincreasing(self):
        for idx in range(6):
            mp = random_mp(101, idx, 2, 4)
            try:
                prof = eps_at_invariant_point(mp, mp.vertices_int[0])
            except (SingularVertex, NotAmplePolytope):
                continue
            vals = [e.value for e in prof.entries]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


@st.composite
def simple_lattice_bodies(draw):
    """A lattice polygon Q, the hull of 3..7 distinct points of [-6, 6]^2, or
    a prism Q x [0, h] with h in 1..5; every vertex of either is simple, so
    ``eps_at_invariant_point`` takes each smooth one."""
    coord = st.integers(-6, 6)
    Q = convex_hull(draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=7,
                                  unique=True)), 2)
    assume(Q.is_full_dimensional)
    if draw(st.booleans()):
        return MomentPolytope(Q)
    h = draw(st.integers(1, 5))
    return MomentPolytope.from_points([(*v, z) for v in Q.vertices for z in (0, h)], 3)


@settings(max_examples=200, deadline=None)
@given(simple_lattice_bodies())
def test_what_holds_at_every_smooth_vertex(MP):
    # at a smooth vertex u: the minima do not increase, eps_d^d <= vol <=
    # eps_1^d, 1/lambda_1(P - P) <= eps_1 and eps_d <= the lattice width (the
    # general-point bracket's lo_1 and hi_d), and eps_d is the shortest
    # lattice length of an edge at u, read off the cone's generators and the
    # facets.  vol <= d! prod eps_i is no fixed-point fact (see the smooth
    # quadrilateral above)
    d = MP.ambient_dim
    vol = toric_volume(MP)
    lam1 = successive_minima(difference_body(MP), 1).lambdas[0]
    width = lattice_width(MP).width
    for u in MP.vertices_int:
        cone = vertex_cone(MP, u)
        if not cone.smooth:
            continue
        eps = [e.value for e in eps_at_invariant_point(MP, u).entries]
        assert all(a >= b for a, b in zip(eps, eps[1:]))
        assert eps[-1] ** d <= vol <= eps[0] ** d
        assert 1 / lam1 <= eps[0]
        assert eps[-1] <= width
        edges = [min(F(b - vdot(a, u)) / vdot(a, g) for a, b in MP.facets if vdot(a, g) > 0)
                 for g in cone.edge_generators]
        assert eps[-1] == min(edges)


def vertex_cone_by_pairs(MP, u):
    """Reference: v is an edge neighbour of u iff the facets through both cut
    a line (rank d - 1); u is simple iff it has exactly d neighbours."""
    d = MP.ambient_dim
    uvec = tuple(F(c) for c in u)
    if uvec not in MP.vertices:
        raise NotAVertex(f"{u} is not a vertex")
    offsets = dict(MP.facets)
    active_u = [a for a, b in offsets.items() if vdot(a, uvec) == b]
    gens = []
    for v in MP.vertices:
        if v == uvec:
            continue
        common = [a for a in active_u if vdot(a, v) == offsets[a]]
        if len(common) >= d - 1 and gauss(common, d)[0] == d - 1:
            gens.append(primitive([int(c) for c in vsub(v, uvec)]))
    if len(gens) != d:
        raise NotAmplePolytope(f"vertex {u} has {len(gens)} edges")
    gens = tuple(sorted(gens))
    return toric.VertexCone(vertex=tuple(u), edge_generators=gens,
                            smooth=abs(determinant(gens)) == 1)


def eps_by_cone_solve(MP, u):
    """Reference: cone coordinates of every vertex solved against the edge
    generators, then the face maxima of eps_at_invariant_point."""
    cones = {v: vertex_cone_by_pairs(MP, v) for v in MP.vertices_int}
    if u not in cones:
        raise NotAVertex(f"{u} is not a vertex")
    if not cones[u].smooth:
        raise SingularVertex(f"vertex cone at {u} is not smooth")
    d = MP.ambient_dim
    cols = list(zip(*cones[u].edge_generators))
    coords = [solve_linear(cols, vsub(v, u)) for v in MP.vertices]
    assert all(c is not None and min(c) >= 0 for c in coords)
    values = []
    for i in range(1, d + 1):
        values.append(min(
            max(sum(c[k] for k in range(d) if k not in J)
                for c in coords if all(c[j] == 0 for j in J))
            for J in combinations(range(d), i - 1)))
    return values


def outcome(f, *args):
    try:
        return f(*args)
    except (NotAmplePolytope, NotAVertex, SingularVertex) as exc:
        return type(exc)


def lattice_polytope_corpus():
    """Random lattice polytopes in d = 2..4: hulls of random subsets of a
    small grid, and unimodular images of boxes and of prisms over a simplex."""
    for d in (2, 3, 4):
        for idx in range(12):
            rng = instance_stream(9000 + d, idx)
            grid = list(product(range(3), repeat=d))
            pts = [grid[rng.int_in(0, len(grid) - 1)] for _ in range(d + 2 + rng.int_in(0, 4))]
            P = convex_hull(pts, d)
            if P.is_full_dimensional:
                yield MomentPolytope(P)
        for idx in range(4):
            rng = instance_stream(9100 + d, idx)
            sides = [rng.int_in(1, 3) for _ in range(d)]
            pts = [tuple(s * b for s, b in zip(sides, bits)) for bits in product((0, 1), repeat=d)]
            if idx % 2:  # prism: a dilated triangle times a box
                pts = [p for p in pts if p[0] * sides[1] + p[1] * sides[0] <= sides[0] * sides[1]]
            U = [[int(i == j) for j in range(d)] for i in range(d)]
            U[d - 1][0] = rng.int_in(-2, 2)  # a shear x_d += k x_1
            yield MomentPolytope.from_points(
                [tuple(sum(u * c for u, c in zip(row, p)) + 3 for row in U) for p in pts], d)


def test_cones_and_eps_match_references():
    seen = set()
    for mp in lattice_polytope_corpus():
        for u in mp.vertices_int + (tuple(c + 1 for c in mp.vertices_int[0]),):
            expect = outcome(vertex_cone_by_pairs, mp, u)
            assert outcome(vertex_cone, mp, u) == expect
            eps = outcome(eps_at_invariant_point, mp, u)
            expect_eps = outcome(eps_by_cone_solve, mp, u)
            if isinstance(eps, toric.EpsProfile):
                eps = [e.value for e in eps.entries]
                seen.add("smooth")
            else:
                seen.add(eps.__name__)
            assert eps == expect_eps
    assert seen == {"smooth", "SingularVertex", "NotAmplePolytope", "NotAVertex"}


class TestEpsBracketGeneral:
    def test_unit_simplex(self):
        prof = eps_bracket_general(simplex_mp(2))
        assert [(e.lo, e.hi) for e in prof.entries] == [(1, 2), (1, 1)]

    def test_box_brackets(self):
        w = (4, 2)
        prof = eps_bracket_general(box_mp(*w))
        true_eps = [sum(w[i:]) for i in range(2)]
        for i, e in enumerate(prof.entries):
            assert e.lo == w[i]
            assert e.hi == (2 - i) * w[i]
            assert e.lo <= true_eps[i] <= e.hi

    def test_unit_cube(self):
        d = 3
        prof = eps_bracket_general(box_mp(1, 1, 1))
        for i, e in enumerate(prof.entries, start=1):
            assert e.lo == 1
            assert e.hi == d - i + 1

    def test_family_soundness(self):
        for fam in [ProjectiveSpace(2, 3), ProjectiveSpace(3, 1),
                    ProductOfP1((3, 2, 1)), ProductOfP1((5, 5))]:
            exact, mp = exact_eps_family(fam)
            brackets = eps_bracket_general(mp)
            for e, b in zip(exact.entries, brackets.entries):
                assert b.lo <= e.value <= b.hi

    def test_ew_sandwich_seeded(self):
        for idx in range(8):
            mp = random_mp(57, idx, 2, 4)
            prof = eps_bracket_general(mp)
            w = lattice_width(mp).width
            last = prof.entries[-1]
            assert F(w, mp.ambient_dim) <= last.lo <= last.hi <= w

    def test_bracket_scaling(self):
        mp = box_mp(3, 2)
        base = eps_bracket_general(mp)
        tripled = eps_bracket_general(box_mp(9, 6))
        for b, t in zip(base.entries, tripled.entries):
            assert (t.lo, t.hi) == (3 * b.lo, 3 * b.hi)


class TestFamilies:
    def test_projective_space(self):
        prof, mp = exact_eps_family(ProjectiveSpace(3, 2))
        assert [e.value for e in prof.entries] == [2, 2, 2]
        assert toric_volume(mp) == 8

    def test_product_examples(self):
        prof, _ = exact_eps_family(ProductOfP1((3, 2, 1)))
        assert [e.value for e in prof.entries] == [6, 3, 1]
        prof, _ = exact_eps_family(ProductOfP1((1, 1)))
        assert [e.value for e in prof.entries] == [2, 1]

    def test_weights_sorted_internally(self):
        a, _ = exact_eps_family(ProductOfP1((1, 3, 2)))
        b, _ = exact_eps_family(ProductOfP1((3, 2, 1)))
        assert a == b

    def test_invalid_weights(self):
        with pytest.raises(InvalidWeights):
            exact_eps_family(ProductOfP1((2, 0)))
        with pytest.raises(InvalidWeights):
            exact_eps_family(ProjectiveSpace(2, 0))

    @pytest.mark.parametrize("family", [ProductOfP1((2.9, 1)), ProductOfP1((2, True)),
                                        ProductOfP1(5), ProductOfP1(b"\x02\x03"),
                                        ProjectiveSpace(True, 2), ProjectiveSpace(2, 2.0)],
                             ids=["float-weight", "bool-weight", "int-weights", "bytes-weights",
                                  "bool-dim", "float-w"])
    def test_non_integer_inputs_refused(self, family):
        with pytest.raises(InvalidInput):
            exact_eps_family(family)


class TestToricVolume:
    def test_examples(self):
        assert toric_volume(simplex_mp(2)) == 1
        assert toric_volume(box_mp(3, 2, 1)) == 36
        for d, w in [(2, 3), (3, 2)]:
            assert toric_volume(simplex_mp(d, w)) == w ** d


class TestVerifyM2m:
    def test_product_321(self):
        prof, mp = exact_eps_family(ProductOfP1((3, 2, 1)))
        rep = verify_m2m(mp, prof)
        assert rep.holds
        assert rep.quantities["vol"] == "36"
        assert rep.quantities["ratio"] == "2"

    def test_p2_o2_lower_equality(self):
        prof, mp = exact_eps_family(ProjectiveSpace(2, 2))
        rep = verify_m2m(mp, prof)
        assert rep.holds
        assert rep.quantities["ratio"] == "1"

    def test_near_sharp_upper(self):
        prof, mp = exact_eps_family(ProductOfP1((100, 1)))
        rep = verify_m2m(mp, prof)
        assert rep.holds
        assert F(rep.quantities["ratio"]) == F(200, 101)

    def test_bracket_mode(self):
        mp = box_mp(4, 2)
        rep = verify_m2m(mp, eps_bracket_general(mp))
        assert rep.holds
        assert "prod_lo" in rep.quantities

    def test_mixed_profile_rejected(self):
        mp = simplex_mp(2)
        mixed = EpsProfile([EpsExact(F(1), "family_formula"), EpsBracket(F(1), F(2))])
        with pytest.raises(MixedProfile):
            verify_m2m(mp, mixed)

    def test_bracket_seeded(self):
        for idx in range(6):
            mp = random_mp(73, idx, 3, 3)
            rep = verify_m2m(mp, eps_bracket_general(mp))
            assert rep.holds

    def test_profile_of_the_wrong_length_is_refused(self):
        # a 2-D body has two minima: one exact value of 2 read as a ratio
        # vol / 2 = 2 would "hold" without saying anything
        mp = box_mp(2, 1)
        with pytest.raises(DimensionMismatch, match="profile of length 1 in dimension 2"):
            verify_m2m(mp, EpsProfile([EpsExact(F(2), "family_formula")]))
        with pytest.raises(DimensionMismatch):
            verify_m2m(mp, EpsProfile([EpsBracket(F(1), F(2))] * 3))

    def test_eps_that_is_no_profile_is_refused(self):
        mp = box_mp(2, 1)
        for eps in ([EpsExact(F(2), "family_formula")] * 2, None, {"eps": []}):
            with pytest.raises(InvalidInput, match="eps must be an EpsProfile"):
                verify_m2m(mp, eps)


class TestEpsProfileValidation:
    def test_rejects_increasing_exact(self):
        with pytest.raises(ValueError):
            EpsProfile([EpsExact(F(1), "family_formula"), EpsExact(F(2), "family_formula")])

    def test_rejects_empty_bracket(self):
        with pytest.raises(ValueError):
            EpsProfile([EpsBracket(F(2), F(1))])

    def test_rejects_entries_that_are_no_list(self):
        for entries in (None, 3, "ab", iter([EpsExact(F(1), "family_formula")])):
            with pytest.raises(InvalidInput, match="entries must be a list"):
                EpsProfile(entries)

    def test_rejects_an_entry_of_another_type(self):
        for entry in (1, F(1), None, (F(1), F(2))):
            with pytest.raises(InvalidInput, match="neither EpsExact nor EpsBracket"):
                EpsProfile([EpsExact(F(2), "family_formula"), entry])

    def test_json(self):
        prof = EpsProfile([EpsExact(F(5), "invariant_point"), EpsBracket(F(1), F(2))])
        assert prof.to_json() == {"eps": [
            {"exact": "5", "provenance": "invariant_point"},
            {"lo": "1", "hi": "2"},
        ]}


def test_moment_polytope_rejects_fractional_vertices():
    with pytest.raises(ValueError):
        MomentPolytope(convex_hull([(0, 0), (1, 0), (0, F(1, 2))], 2))


def test_moment_polytope_makes_no_fraction_vertex():
    # the lattice test and vertices_int read the integer vertices; the input
    # point (1/2, 1/2, 1/2), inside the hull, puts them over L = 2
    for pts in ([(0, 0, 0), (3, 0, 1), (0, 2, 0), (1, 1, 4), (2, 3, 3)],
                [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (F(1, 2), F(1, 2), F(1, 2))]):
        P = convex_hull(pts, 3)
        with counted_fractions() as made:
            mp = MomentPolytope(P)
            ints = mp.vertices_int
        assert made.count == 0 and mp._vertices is None
        assert ints == tuple(tuple(int(c) for c in v) for v in P.vertices)
    assert P.integer_vertices[0] == 2


def test_eps_at_invariant_point_makes_only_its_answers():
    # the cones and the cone coordinates are read off the integer vertices
    # and facets, so the d values are the only Fractions made, also at L = 2
    for pts, u, eps in (
            ([(0, 0, 0), (2, 0, 0), (0, 3, 0), (2, 3, 0), (0, 0, 1), (2, 0, 1), (0, 3, 1),
              (2, 3, 1)], (0, 0, 0), (6, 3, 1)),
            ([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (F(1, 2), F(1, 2), F(1, 2))],
             (0, 0, 0), (2, 2, 2))):
        mp = MomentPolytope(convex_hull(pts, 3))
        with counted_fractions() as made:
            profile = eps_at_invariant_point(mp, u)
            cone = vertex_cone(mp, u)
        assert made.count == 3
        assert [e.value for e in profile.entries] == list(eps) and cone.smooth
        assert mp._vertices is None and mp._facets is None
    assert mp.integer_vertices[0] == 2


def test_moment_polytope_of_anything_but_a_polytope_is_invalid_input():
    for x in ([(0, 0), (1, 0), (0, 1)], None, "P"):
        with pytest.raises(InvalidInput, match="built from a Polytope"):
            MomentPolytope(x)


def test_splitmix_reference_stream():
    # first outputs for seed 0 must match the published SplitMix64 sequence
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


def test_fractional_vertex_is_invalid_input_in_canonical_form():
    with pytest.raises(InvalidInput, match=r"^vertex \(0, 1/2\) is not a lattice point$"):
        MomentPolytope(convex_hull([(0, 0), (1, 0), (0, F(1, 2))], 2))
