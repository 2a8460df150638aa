import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from counting import counted_fractions, counting_wrapper, time_limit
from latmin import core, gon, polytope, toric
from latmin.core import lattice_span, rat_str, vdot
from latmin.errors import DimensionDeficient, DimensionMismatch, InvalidInput
from latmin.gon import (
    SuccessiveMinima,
    dual_minima,
    flatness_report,
    gauge,
    lattice_width,
    successive_minima,
    verify_minkowski_second,
    verify_sharp_2d,
    verify_transference,
)
from latmin.generate import SuiteConfig, generate_instance, instance_stream, random_polytope
from latmin.polytope import (
    PointLocation,
    SymmetricBody,
    convex_hull,
    difference_body,
    locate,
    polar,
)
from latmin.walk import enumerate_points
from reference import (
    box,
    flatness_by_point_list,
    minima_by_standard_basis,
    reference_polar,
    simplex,
    standard_box,
    width_by_brute_force,
    width_by_polar_minima,
)

F = Fraction


def sym(points, d):
    pts = list(points) + [tuple(-c for c in p) for p in points]
    return SymmetricBody(convex_hull(pts, d))


def hexagon(w=1):
    return sym([(w, 0), (0, w), (w, -w)], 2)


def cube(d, r=1):
    return SymmetricBody(convex_hull(list(product((-r, r), repeat=d)), d))


# --- independent oracles -----------------------------------------------------

def gauge_by_bisection(K, x):
    """Exact check that g = gauge(K, x) is min{t : x in tK}, using only
    membership of x/t in K (a different route than the facet-ratio formula)."""
    def member(t):
        if t == 0:
            return all(c == 0 for c in x)
        return locate(K, tuple(F(c) / t for c in x)) is not PointLocation.OUTSIDE

    g = gauge(K, x)
    assert member(g) or (g == 0 and member(F(1))), "gauge value must be attained"
    if g == 0:
        return g
    assert member(g)
    assert not member(g * F(2 ** 40 - 1, 2 ** 40))
    lo, hi = F(0), g + 1
    assert member(hi)
    for _ in range(50):
        mid = (lo + hi) / 2
        if member(mid):
            hi = mid
        else:
            lo = mid
    assert lo < g <= hi
    return g


# --- gauge -------------------------------------------------------------------

class TestGauge:
    def test_sup_norm(self):
        assert gauge(cube(2), (2, 1)) == 2

    def test_hexagon_active_facet(self):
        g = gauge(hexagon(), (1, 1))
        assert g == 2
        assert gauge_by_bisection(hexagon(), (1, 1)) == 2

    def test_stretched_cross(self):
        K = sym([(2, 0), (0, 1)], 2)
        assert gauge(K, (1, 0)) == F(1, 2)

    def test_zero(self):
        assert gauge(hexagon(), (0, 0)) == 0

    def test_bisection_oracle_seeded(self):
        cfg = SuiteConfig("transference", seed=23, count=0, dim=2, coord_bound=5)
        checked = 0
        for i in range(20):
            K = generate_instance(cfg, i)
            for x in [(1, 0), (2, 3), (-1, 4), (0, -2)]:
                gauge_by_bisection(K, x)
                checked += 1
        assert checked == 80


# --- successive minima ---------------------------------------------------------

class TestSuccessiveMinima:
    def test_cube(self):
        for d in (2, 3):
            sm = successive_minima(cube(d))
            assert sm.lambdas == tuple([F(1)] * d)
            for lam, w in zip(sm.lambdas, sm.witnesses):
                assert gauge(cube(d), w) == lam
            assert lattice_span(sm.witnesses, d)[0] == d

    def test_simplex_difference_family(self):
        for d, w in [(2, 1), (2, 3), (3, 2)]:
            K = difference_body(simplex(d, w))
            sm = successive_minima(K)
            assert sm.lambdas == tuple([F(1, w)] * d)

    def test_box_family(self):
        K = difference_body(box(3, 2))
        sm = successive_minima(K)
        assert sm.lambdas == (F(1, 3), F(1, 2))
        K = difference_body(box(5, 4, 2))
        assert successive_minima(K).lambdas == (F(1, 5), F(1, 4), F(1, 2))

    def test_witness_invariants(self):
        cfg = SuiteConfig("transference", seed=31, count=0, dim=3, coord_bound=4)
        for i in range(10):
            K = generate_instance(cfg, i)
            sm = successive_minima(K)
            assert all(a <= b for a, b in zip(sm.lambdas, sm.lambdas[1:]))
            assert all(x > 0 for x in sm.lambdas)
            for lam, wv in zip(sm.lambdas, sm.witnesses):
                assert gauge(K, wv) == lam
                lead = next(c for c in wv if c != 0)
                assert lead > 0
            rank, _ = lattice_span(sm.witnesses, 3)
            assert rank == 3

    def test_homogeneity(self):
        K = hexagon()
        half = SymmetricBody(convex_hull([tuple(c / 2 for c in v) for v in K.vertices], 2))
        assert successive_minima(half).lambdas == tuple(
            2 * x for x in successive_minima(K).lambdas)

    def test_minimality_against_enumeration(self):
        # no nonzero lattice vector has gauge below lambda_1
        K = sym([(3, 1), (1, 2)], 2)
        sm = successive_minima(K)
        lam1 = sm.lambdas[0]
        for x in product(range(-6, 7), repeat=2):
            if any(x):
                assert gauge(K, x) >= lam1


@st.composite
def bodies_and_unimodular_maps(draw):
    """A random symmetric 2-D/3-D body and a product of elementary integer
    row operations and a sign flip, which is unimodular."""
    d = draw(st.sampled_from((2, 3)))
    coord = st.integers(-3, 3)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d, max_size=d + 2))
    P = convex_hull(pts + [tuple(-c for c in p) for p in pts], d)
    assume(P.is_full_dimensional)
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.sampled_from([(i, j) for i in range(d) for j in range(d) if i != j]))
        k = draw(st.integers(-2, 2))
        U[i] = [a + k * b for a, b in zip(U[i], U[j])]
    if draw(st.booleans()):
        U[0] = [-a for a in U[0]]
    return SymmetricBody(P), U


def unimodular_image(K, U):
    d = K.ambient_dim
    return SymmetricBody(convex_hull(
        [tuple(sum(U[i][j] * v[j] for j in range(d)) for i in range(d)) for v in K.vertices],
        d))


@settings(max_examples=60, deadline=None)
@given(bodies_and_unimodular_maps())
def test_minima_unimodular_invariance(body_and_map):
    K, U = body_and_map
    assert successive_minima(unimodular_image(K, U)).lambdas == successive_minima(K).lambdas


@settings(max_examples=60, deadline=None)
@given(bodies_and_unimodular_maps())
def test_minima_match_standard_basis_reference(body_and_map):
    K, U = body_and_map
    image = unimodular_image(K, U)
    assume(math.prod(len(r) for r in standard_box(image)[1]) <= 5000)
    sm = successive_minima(image)
    assert (sm.lambdas, sm.witnesses) == minima_by_standard_basis(image)
    d = image.ambient_dim
    for k in range(1, d + 1):
        # a fresh wrapper of the same polytope has no cached minima
        first_k = successive_minima(SymmetricBody(image), k)
        assert (first_k.lambdas, first_k.witnesses) == (sm.lambdas[:k], sm.witnesses[:k])


def counting_enumerator(monkeypatch, max_box=None):
    """Replace the walk seen by gon with one recording how many points each
    call's runs hold.  With ``max_box`` a call whose integer box holds more
    points fails before it starts, so a blow-up cannot hang."""
    counts = []
    real = gon.runs

    def counting(rows, los, his, pairs=()):
        if max_box is not None:
            assert math.prod(max(0, hi - lo + 1) for lo, hi in zip(los, his)) <= max_box
        found = list(real(rows, los, his, pairs))
        counts.append(sum(hi - lo + 1 for _, lo, hi, _ in found))
        return iter(found)

    monkeypatch.setattr(gon, "runs", counting)
    return counts


def test_minima_cached_on_body(monkeypatch):
    counts = counting_least(monkeypatch)
    K = difference_body(convex_hull([(0, 0), (4, 1), (1, 3)], 2))
    first = successive_minima(K, 1)
    assert len(counts) == 1
    full = successive_minima(K)  # longer than the cached result: a second pass
    assert len(counts) == 2
    assert successive_minima(K) == full
    assert successive_minima(K, 1) == first == SuccessiveMinima(
        2, full.lambdas[:1], full.witnesses[:1])
    assert len(counts) == 2


def test_k_out_of_range():
    for k in (0, 3):
        with pytest.raises(ValueError):
            successive_minima(hexagon(), k)


@pytest.mark.parametrize("k", [True, 1.0, "1"])
def test_k_is_a_strict_int_in_range(k):
    # on a fresh body and on one whose minima are cached
    cached = hexagon()
    successive_minima(cached)
    for K in (hexagon(), cached):
        with pytest.raises(InvalidInput):
            successive_minima(K, k)


def test_dual_minima_cached_on_body(monkeypatch):
    counts = counting_least(monkeypatch)
    K = difference_body(convex_hull([(0, 0), (4, 1), (1, 3)], 2))
    first = dual_minima(K, 1)
    full = dual_minima(K)  # longer than the cached result: a second pass
    assert len(counts) == 2
    assert dual_minima(K) == full
    assert dual_minima(K, 1) == first == SuccessiveMinima(2, full.lambdas[:1], full.witnesses[:1])
    assert len(counts) == 2


@pytest.mark.parametrize("k", [True, 1.0, "1", 0, 3])
def test_dual_minima_k_is_a_strict_int_in_range(k):
    # on a fresh body and on one whose dual minima are cached
    cached = hexagon()
    dual_minima(cached)
    for K in (hexagon(), cached):
        with pytest.raises(InvalidInput):
            dual_minima(K, k)


def thin_triangle(s, t=0):
    """(0,0), (s,0), (0,1/s) under the shear y += t x: width 1/s."""
    return convex_hull([(0, 0), (s, t * s), (0, F(1, s))], 2)


@pytest.mark.parametrize("t", [0, 5])
@pytest.mark.parametrize("s", [10 ** e for e in range(3, 10)])
def test_thin_triangle_width(monkeypatch, s, t):
    # The width 1/s of the thin triangle is attained by (-t, 1); a start at
    # the largest gauge of a unit vector enumerates about s^2 points here,
    # and so do the full dual minima of P - P.  Neither a bare P - P nor one
    # that keeps only its first minimum turns the k = 1 width into them:
    # one k = 1 pass, whose witness and box lie in the unit box, so it walks
    # nothing
    counts = counting_enumerator(monkeypatch, max_box=10 ** 4)
    passes = counting_least(monkeypatch)
    for setup in (lambda P: None, difference_body,
                  lambda P: successive_minima(difference_body(P), 1)):
        thin = thin_triangle(s, t)
        setup(thin)
        del counts[:], passes[:]
        res = lattice_width(thin)
        assert res.width == F(1, s)
        assert res.witness == ((t, -1) if t else (0, 1))
        assert passes == [1] and counts == []


# --- lattice width -------------------------------------------------------------

@st.composite
def rational_bodies_and_integer_affine_maps(draw):
    """Rational points in d = 2..4 with a full-dimensional hull, a product
    U of elementary integer row operations (shears) and a sign flip, and an
    integer translation t."""
    d = draw(st.integers(2, 4))
    coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3)))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 3))
    P = convex_hull(pts, d)
    assume(P.is_full_dimensional)
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.sampled_from([(i, j) for i in range(d) for j in range(d) if i != j]))
        k = draw(st.integers(-3, 3))
        U[i] = [a + k * b for a, b in zip(U[i], U[j])]
    if draw(st.booleans()):
        U[0] = [-a for a in U[0]]
    t = draw(st.tuples(*[st.integers(-5, 5)] * d))
    return P, U, t


@settings(max_examples=60, deadline=None)
@given(rational_bodies_and_integer_affine_maps())
def test_width_matches_polar_minima_reference(case):
    # on P and on its image U P + t the width and witness are those of the
    # reference; the widths agree, and U^T pulls the image's witness back to
    # a functional of the same width on P
    P, U, t = case
    d = P.ambient_dim
    image = convex_hull([tuple(vdot(row, v) + s for row, s in zip(U, t)) for v in P.vertices], d)
    res = lattice_width(P)
    moved = lattice_width(image)
    assert (res.width, res.witness) == width_by_polar_minima(P)
    assert (moved.width, moved.witness) == width_by_polar_minima(image)
    assert moved.width == res.width
    pulled = tuple(vdot(col, moved.witness) for col in zip(*U))
    vals = [vdot(pulled, v) for v in P.vertices]
    assert max(vals) - min(vals) == res.width


def test_width_builds_no_derived_body(monkeypatch):
    # the width reads P's vertices alone, and is kept on P
    calls = wrap_derived_bodies(monkeypatch)
    for P in (convex_hull([(0, 0), (4, 1), (1, 3), (-1, -2)], 2),
              convex_hull([(0, 0, 0), (F(3, 2), 0, 0), (0, 2, 1), (1, 1, F(5, 2))], 3)):
        res = lattice_width(P)
        assert lattice_width(P) is res
    assert calls == []
    successive_minima(polytope.polar(gon.difference_body(P)))  # the wrappers do see other callers
    assert calls == ["difference_body", "polar"]


def counting_least(monkeypatch):
    """Record the k of each call of ``gon._least``, the one minima routine."""
    calls = []
    real = gon._least
    monkeypatch.setattr(gon, "_least", lambda side, scale, k, box: calls.append(k)
                        or real(side, scale, k, box))
    return calls


WIDTH_BODIES = {f"d{d}-seed{seed}": lambda d=d, seed=seed: random_polytope(
    instance_stream(seed, 0), d, 3) for d in (2, 3, 4) for seed in (1, 2, 3)}
WIDTH_BODIES["thin-30"] = lambda: thin_triangle(30)


@pytest.mark.parametrize("fresh", WIDTH_BODIES.values(), ids=WIDTH_BODIES.keys())
def test_width_equal_in_every_call_order(monkeypatch, fresh):
    # the width of a fresh P (vertex differences), of one whose P - P keeps
    # its minima (all d dual minima of P - P, kept on it) and of one whose
    # P - P keeps a dual minimum (read, no pass) is one number and witness,
    # that of the polar reference and of the brute-force scan
    calls = counting_least(monkeypatch)
    P = fresh()
    res = lattice_width(P)
    assert calls == [1]
    after_minima = fresh()
    successive_minima(difference_body(after_minima))
    del calls[:]
    assert lattice_width(after_minima) == res
    dim = after_minima.ambient_dim
    assert calls == [dim]
    assert dual_minima(difference_body(after_minima)).lambdas[0] == res.width
    assert calls == [dim]
    after_dual = fresh()
    dual_minima(difference_body(after_dual), 1)
    del calls[:]
    assert lattice_width(after_dual) == res
    assert calls == []
    assert (res.width, res.witness) == width_by_polar_minima(P)
    assert res.width == width_by_brute_force(P)


def test_verify_d3_body_makes_two_minima_passes(monkeypatch):
    # the minima of P - P and its dual minima, the width read off the latter;
    # the dual minima reach transference and the bracket as kept results
    calls = counting_least(monkeypatch)
    for i in range(6):
        P = random_polytope(instance_stream(1, i), 3, 4)
        del calls[:]
        verify_minkowski_second(P)
        flatness_report(P)
        verify_transference(difference_body(P))
        mp = toric.MomentPolytope(P)
        toric.verify_m2m(mp, toric.eps_bracket_general(mp))
        lattice_width(P)
        assert calls == [3, 3]
    del calls[:]
    flatness_report(random_polytope(instance_stream(1, 0), 3, 4))
    assert calls == [1]


@st.composite
def rational_polytopes(draw):
    """Rational points in d = 1..4 with a full-dimensional hull."""
    d = draw(st.integers(1, 4))
    coord = st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 1, 2, 3)))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 3))
    assume(convex_hull(pts, d).is_full_dimensional)
    return d, pts


def spy_walk_boxes(mp):
    """Check each walk of a minima pass of a body K, made by any caller: its
    pieces are those of the exact bounding box of the body it walks past the
    unit box.  That box is |y_j| <= his_j = R max |C_j.v| // (M L) for its
    radius R, the coordinate functionals C = basis^-T of its basis, and the
    integer vertices v of that body over M L, K's own for the minima and the
    rows W of ``K.dual_vertices`` for the dual minima; the pieces are, for
    each j with his_j >= 2 in order, the box los = [-1] * j + [2] + [-his_i
    for i > j], his = [1] * j + his[j:].  Returns a Counter of the passes of
    a body ("pass") and of those that walked ("walk").  ``mp`` is a pytest
    MonkeyPatch."""
    seen = Counter()
    bodies, bases, walks = [None], [], []
    real_kept, real_least, real_runs = gon._kept, gon._least, gon.runs

    def kept(K, slot, k, minima):
        L, xs = K.integer_vertices
        M, W = K.dual_vertices
        bodies.append((xs if slot == "_minima" else W, M * L))
        try:
            return real_kept(K, slot, k, minima)
        finally:
            bodies.pop()

    def least(side, scale, k, box):
        bases.append(side[0])
        walks.append([])
        sm = real_least(side, scale, k, box)
        pieces = walks.pop()
        if bodies[-1] is not None:
            seen["pass"] += 1
            if pieces:
                exact = pieces[0][1]
                assert [j for j, _ in pieces] == [j for j, h in enumerate(exact) if h >= 2]
                seen["walk"] += 1
        return sm

    def runs(rows, los, his, pairs=()):
        if bodies[-1] is not None:
            vertices, ML = bodies[-1]
            R = pairs[0][1]
            exact = [R * max(abs(vdot(c, v)) for v in vertices) // ML
                     for c in core.inverse_transpose(bases[-1])]
            j = los.index(2)
            assert los == [-1] * j + [2] + [-h for h in exact[j + 1:]]
            assert his == [1] * j + exact[j:]
            walks[-1].append((j, exact))
        return real_runs(rows, los, his, pairs)

    mp.setattr(gon, "_kept", kept)
    mp.setattr(gon, "_least", least)
    mp.setattr(gon, "runs", runs)
    return seen


def scaled(minima, c):
    """Reference minima (lambdas, witnesses) times c, those of K / c."""
    return tuple(c * lam for lam in minima[0]), minima[1]


def test_minima_exact_with_or_without_a_walk():
    # both minima of K = P - P and of its polar, on rational bodies at
    # d = 1..4, are those of the standard-basis reference, whether the unit
    # box holds them or the walk runs in the exact box of the body (checked
    # by the spy); the polar of the thin triangle's K and the sheared
    # polygon walk
    with pytest.MonkeyPatch.context() as mp:
        seen = spy_walk_boxes(mp)

        @settings(max_examples=100, deadline=None)
        @given(rational_polytopes())
        @example((2, [(0, 0), (10, 0), (0, F(1, 10))]))
        @example((2, [(0, 0), (5, 1), (7, 2), (2, 1)]))
        def minima_match(case):
            d, pts = case
            K = difference_body(convex_hull(pts, d))
            dual = SymmetricBody(polar(K))
            for body in (K, dual):
                assume(math.prod(len(r) for r in standard_box(body)[1]) <= 3000)
            expect, expect_dual = minima_by_standard_basis(K), minima_by_standard_basis(dual)
            for S, lam, lam_dual in ((K, expect, expect_dual), (dual, expect_dual, expect)):
                sm, sm_dual = successive_minima(S), dual_minima(S)
                assert (sm.lambdas, sm.witnesses) == lam
                assert (sm_dual.lambdas, sm_dual.witnesses) == lam_dual

        minima_match()
    assert 0 < seen["walk"] < seen["pass"]


@settings(max_examples=100, deadline=None)
@given(rational_polytopes())
@example((2, [(-1, -1), (-1, 1), (1, -1), (1, 1)]))
def test_difference_body_minima_equal_in_every_call_order(case):
    # both minima of P - P are those of the standard-basis reference when
    # the facets pass runs first, the points pass first, or the width of P
    # before P - P is built, whose reduction P - P then takes.  For a
    # symmetric S, K or its polar, S - S = 2S: its width read first hands
    # the reduction of S's differences to 2S while S's minima walk in that
    # of its own vertices, and S's minima read first leave 2S to make its
    # own, also when 2S is built from MomentPolytope(S) by the bracket.
    # Each walk's box is the exact box of the body it walks, checked before
    # the walk
    d, pts = case
    K = difference_body(convex_hull(pts, d))
    dual = SymmetricBody(polar(K))
    for body in (K, dual):
        assume(math.prod(len(r) for r in standard_box(body)[1]) <= 3000)
    expect, expect_dual = minima_by_standard_basis(K), minima_by_standard_basis(dual)
    with pytest.MonkeyPatch.context() as mp:
        spy_walk_boxes(mp)
        for order in ("facets", "points", "width"):
            P = convex_hull(pts, d)
            if order == "width":
                assert lattice_width(P).width == expect_dual[0][0]
            K = difference_body(P)
            if order == "points":
                sm_dual = dual_minima(K)
            sm = successive_minima(K)
            if order != "points":
                sm_dual = dual_minima(K)
            assert (sm.lambdas, sm.witnesses) == expect, order
            assert (sm_dual.lambdas, sm_dual.witnesses) == expect_dual, order
        for name, lam, lam_dual in (("K", expect, expect_dual), ("dual", expect_dual, expect)):
            for order in ("width", "minima", "moment"):
                S = difference_body(convex_hull(pts, d))
                if name == "dual":
                    S = SymmetricBody(polar(S))
                if order == "moment" and S.integer_vertices[0] != 1:
                    continue  # a moment polytope has lattice vertices
                if order == "width":
                    assert lattice_width(S).width == 2 * lam_dual[0][0], name
                sm = successive_minima(S)
                assert (sm.lambdas, sm.witnesses) == lam, (name, order)
                moment = toric.MomentPolytope(S) if order == "moment" else S
                T = difference_body(moment)
                if order == "moment":
                    toric.eps_bracket_general(moment)
                sm, sm_dual = successive_minima(T), dual_minima(T)
                assert (sm.lambdas, sm.witnesses) == scaled(lam, Fraction(1, 2)), (name, order)
                assert (sm_dual.lambdas, sm_dual.witnesses) == scaled(lam_dual, 2), (name, order)


def counting_kernels(monkeypatch):
    """Record the calls of ``lll_reduce``, ``_form`` and the cofactors, as
    (name, last argument): gon's own names, its cofactors those of the
    ellipsoid box, and "core.cofactors", which ``inverse_transpose`` calls."""
    calls = []
    for module, name in ((gon, "lll_reduce"), (gon, "_form"), (gon, "cofactors"),
                         (core, "cofactors")):
        real = getattr(module, name)
        label = "core.cofactors" if module is core else name

        def counting(*args, real=real, label=label):
            calls.append((label, args[-1]))
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_one_reduction_per_difference_body(monkeypatch):
    # a difference body runs lll_reduce once for both of its minima passes:
    # in the verify-d3 op order, minima of P - P first, its reduction reads
    # P - P's vertices; in the width-skew order, width then minima, P keeps
    # the reduction of its vertex differences and hands it to P - P.  The
    # two passes form no sum W W^T and take no cofactors but those of the
    # unimodular B, for B^-T: each reads its box off the other's side
    calls = counting_kernels(monkeypatch)
    for i in range(4):
        P = random_polytope(instance_stream(1, i), 3, 4)
        K = difference_body(P)
        del calls[:]
        verify_minkowski_second(P)
        facets = calls[:]
        flatness_report(P)
        verify_transference(K)
        mp = toric.MomentPolytope(P)
        toric.verify_m2m(mp, toric.eps_bracket_general(mp))
        lattice_width(P)
        assert [name for name, _ in calls].count("lll_reduce") == 1
        assert [name for name, _ in facets] == ["_form", "lll_reduce", "core.cofactors"]
        assert facets[0][1] == gon._half(K.integer_vertices[1])  # the rows of _form
        assert facets[2][1] == K._sides[0][0]  # B itself, for B^-T
        assert calls == facets  # the points pass takes no cofactors
    for pts in ([(14, 2), (7, 1), (9, 1), (6, 1)], [(0, 0), (31, 7), (9, 2), (22, 5), (4, 1)]):
        Q = convex_hull(pts, 2)
        del calls[:]
        lattice_width(Q)
        assert [name for name, _ in calls] == ["_form", "lll_reduce", "cofactors"]  # ellipsoid
        del calls[:]
        K = difference_body(Q)
        assert K._basis is Q._reduction
        successive_minima(K)
        assert calls == [("core.cofactors", K._basis)]


def test_verify_and_width_ops_make_pinned_fraction_counts():
    # the verify-d3 op on 7 integer points in 3-D (hull, minkowski,
    # flatness, transference, bracket and m2m, width) and the width-skew op
    # (hull of 4 integer points, width, minima of P - P) make only the
    # Fractions of their answers: the hull takes int points as they are, and
    # parse_rat returns a Fraction as it is (63 and 11 before)
    bodies = [[(2, -1, -4), (3, -3, 0), (0, 3, 0), (-2, 3, 3), (-2, 3, 2), (1, 2, 2), (0, -1, -4)]]
    bodies += [list(random_polytope(instance_stream(1, i), 3, 4).integer_vertices[1])
               for i in range(3)]
    for pts in bodies:
        with counted_fractions() as made:
            P = convex_hull(pts, 3)
            verify_minkowski_second(P)
            flatness_report(P)
            verify_transference(difference_body(P))
            mp = toric.MomentPolytope(P)
            toric.verify_m2m(mp, toric.eps_bracket_general(mp))
            lattice_width(P)
        assert made.count == 36, pts
    for pts in ([(14, 2), (7, 1), (9, 1), (6, 1)], [(-2, 2), (-1, 1), (1, 1), (-2, 1)]):
        with counted_fractions() as made:
            Q = convex_hull(pts, 2)
            lattice_width(Q)
            successive_minima(difference_body(Q))
        assert made.count == 3, pts


def wrap_derived_bodies(monkeypatch):
    """Record the calls of ``difference_body`` and ``polar`` made through the
    names that gon, toric and polytope hold."""
    calls = []
    for module in (gon, toric, polytope):
        for name in ("difference_body", "polar"):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(module, name,
                                    lambda K, real=real, name=name: calls.append(name) or real(K))
    return calls


class TestLatticeWidth:
    def test_simplex(self):
        for d, w in [(2, 1), (2, 4), (3, 2)]:
            assert lattice_width(simplex(d, w)).width == w

    def test_box(self):
        res = lattice_width(box(3, 2))
        assert res.width == 2
        assert res.witness == (0, 1)

    def test_square_tie(self):
        res = lattice_width(box(5, 5))
        assert res.width == 5
        assert res.witness == (1, 0)

    def test_requires_full_dim(self):
        with pytest.raises(DimensionDeficient):
            lattice_width(convex_hull([(0, 0), (1, 1)], 2))

    def test_brute_force_oracle(self):
        cfg2 = SuiteConfig("minkowski", seed=41, count=0, dim=2, coord_bound=4)
        cfg3 = SuiteConfig("minkowski", seed=42, count=0, dim=3, coord_bound=3)
        for cfg, n in ((cfg2, 15), (cfg3, 10)):
            for i in range(n):
                P = generate_instance(cfg, i)
                assert lattice_width(P).width == width_by_brute_force(P)

    def test_translation_and_unimodular_invariance(self):
        P = convex_hull([(0, 0), (4, 1), (1, 3), (-1, -2)], 2)
        w = lattice_width(P).width
        shifted = convex_hull([(x + 9, y - 4) for x, y in P.vertices], 2)
        assert lattice_width(shifted).width == w
        sheared = convex_hull([(x, 3 * x + y) for x, y in P.vertices], 2)
        assert lattice_width(sheared).width == w

    def test_scaling(self):
        P = convex_hull([(0, 0), (4, 1), (1, 3)], 2)
        tripled = convex_hull([tuple(3 * c for c in v) for v in P.vertices], 2)
        assert lattice_width(tripled).width == 3 * lattice_width(P).width

    def test_witness_transforms_by_inverse_transpose(self):
        # the witness found on U(P) pulls back along U^T to a functional
        # realizing the same width on P
        P = convex_hull([(0, 0), (4, 1), (1, 3), (-1, -2)], 2)
        w = lattice_width(P).width
        mapped = convex_hull([(x + 2 * y, x + 3 * y) for x, y in P.vertices], 2)
        res = lattice_width(mapped)
        assert res.width == w
        a, b = res.witness
        pulled = (a + b, 2 * a + 3 * b)
        vals = [vdot(pulled, v) for v in P.vertices]
        assert max(vals) - min(vals) == w


# --- theorem verifiers ----------------------------------------------------------

class TestMinkowskiSecond:
    def test_unit_square_upper_equality(self):
        rep = verify_minkowski_second(box(1, 1))
        assert rep.holds
        assert rep.quantities["product"] == "1"

    def test_simplex_lower_equality(self):
        rep = verify_minkowski_second(simplex(2))
        assert rep.holds
        assert rep.quantities["product"] == "1/2"

    def test_seeded_random(self):
        for dim, bound, seed in ((2, 5, 7), (3, 3, 8)):
            cfg = SuiteConfig("minkowski", seed=seed, count=0, dim=dim, coord_bound=bound)
            for i in range(25):
                assert verify_minkowski_second(generate_instance(cfg, i)).holds


class TestTransference:
    def test_cube(self):
        rep = verify_transference(cube(2))
        assert rep.holds
        assert rep.quantities["pairings"] == ["1", "1"]

    def test_families(self):
        for d, w in [(2, 2), (3, 1)]:
            rep = verify_transference(difference_body(simplex(d, w)))
            assert rep.holds
            assert all(p == "1" for p in rep.quantities["pairings"])
        rep = verify_transference(difference_body(box(3, 2)))
        assert rep.holds
        assert all(p == "1" for p in rep.quantities["pairings"])

    def test_seeded_random(self):
        cfg = SuiteConfig("transference", seed=13, count=0, dim=3, coord_bound=4)
        for i in range(25):
            assert verify_transference(generate_instance(cfg, i)).holds


class TestSharp2d:
    def test_extremal_body(self):
        K = SymmetricBody(convex_hull(
            [(1, F(3, 2)), (1, F(-1, 2)), (-1, F(-3, 2)), (-1, F(1, 2))], 2))
        rep = verify_sharp_2d(K)
        assert rep.holds
        assert rep.quantities["product"] == "3/2"

    def test_cube_lower_equality(self):
        rep = verify_sharp_2d(cube(2))
        assert rep.holds
        assert rep.quantities["product"] == "1"

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            verify_sharp_2d(cube(3))

    def test_seeded_random(self):
        cfg = SuiteConfig("sharp2d", seed=17, count=0, dim=2, coord_bound=5)
        for i in range(60):
            rep = verify_sharp_2d(generate_instance(cfg, i))
            assert rep.holds
            p = F(rep.quantities["product"])
            assert 1 <= p <= F(3, 2)


class TestFlatness:
    def test_square_side_5(self):
        rep = flatness_report(box(5, 5))
        assert rep.holds
        q = rep.quantities
        assert q["w"] == "5"
        assert q["interior_count"] == "16"
        expected = {(i, j) for i in range(1, 5) for j in range(1, 5)}
        # independent enumeration of the interior points
        assert {(i, j) for i in range(6) for j in range(6)
                if 0 < i < 5 and 0 < j < 5} == expected
        assert q["interior_rank"] == "2"
        assert q["interior_spans"] == "1"
        assert rep.items["a"] == "holds"
        # hypotheses of b, c, basis fail at w=5, conclusions still true
        assert rep.items["b"] == "holds_vacuous"
        assert rep.items["c"] == "holds_vacuous"
        assert rep.items["basis"] == "holds_vacuous"
        assert rep.items["d"] == "holds"
        assert rep.items["e"] == "holds"
        assert rep.witnesses["interior_point"] == [1, 1]
        assert len(rep.witnesses["spanning_points"]) == 3

    def test_unimodular_simplex(self):
        rep = flatness_report(simplex(2))
        assert rep.holds
        assert rep.quantities["w"] == "1"
        assert rep.quantities["interior_count"] == "0"
        assert rep.items["d"] == "holds_vacuous"
        assert rep.items["e"] == "holds"  # 2*(1/2) = 1 >= (1/2)^2

    def test_box_3(self):
        rep = flatness_report(box(3, 3))
        assert rep.holds
        assert rep.quantities["interior_count"] == "4"
        assert rep.items["d"] == "holds_vacuous"  # 3/2 - 2 < 0
        assert rep.items["e"] == "holds"  # 18 >= 9/4

    def test_wide_box_all_items_effective(self):
        rep = flatness_report(box(9, 9))
        assert rep.holds
        assert all(s == "holds" for s in rep.items.values())

    def test_seeded_random(self):
        for dim, bound, seed in ((2, 5, 19), (3, 3, 20)):
            cfg = SuiteConfig("flatness", seed=seed, count=0, dim=dim, coord_bound=bound)
            for i in range(20):
                rep = flatness_report(generate_instance(cfg, i))
                assert rep.holds, rep.quantities


@st.composite
def stretched_bodies(draw):
    """Full-dimensional hulls of rational points in d = 1..4, the last
    coordinate stretched by 1, 9 or 40, so some interiors are empty and
    some are a few long runs."""
    d = draw(st.integers(1, 4))
    coord = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    stretch = draw(st.sampled_from((1, 9, 40)))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 4))
    P = convex_hull([(*p[:-1], p[-1] * stretch) for p in pts], d)
    assume(P.is_full_dimensional)
    return P


@settings(max_examples=150, deadline=None)
@given(stretched_bodies())
@example(simplex(3))
def test_flatness_matches_the_point_list(P):
    # two points per run give the count, rank, generation test and spanning
    # points of the list of all interior points
    rep = flatness_report(P)
    q, wit = rep.quantities, rep.witnesses
    assert (int(q["interior_count"]), int(q["interior_rank"]), q["interior_spans"] == "1",
            wit.get("interior_point"), wit.get("spanning_points", [])) == flatness_by_point_list(P)


@pytest.mark.parametrize("sides, count, rank, vectors", [
    ((2, 2, 10**6), 999_999, 1, 2),
    ((3, 2, 2, 10**5), 199_998, 2, 4),
])
def test_flatness_of_a_few_long_runs(monkeypatch, sides, count, rank, vectors):
    # the interior is hi - lo + 1 points per run, and the one greedy_span
    # pass, for the spanning points, the rank and the generation test, reads two
    seen = []
    real = gon.greedy_span
    monkeypatch.setattr(gon, "greedy_span", lambda vs, d: (seen.append(len(vs)), real(vs, d))[1])
    with time_limit(5):
        rep = flatness_report(box(*sides))
    q = rep.quantities
    assert (q["interior_count"], q["interior_rank"], q["interior_spans"]) == (
        str(count), str(rank), "0")
    assert rep.verdict == "holds"
    assert seen == [vectors]


def test_report_json_key_order():
    rep = verify_minkowski_second(box(1, 1))
    data = rep.to_json()
    assert list(data.keys()) == ["theorem", "verdict", "quantities", "witnesses"]
    assert data["verdict"] == "holds"
    # verdict is recomputable from the quantities alone
    q = data["quantities"]
    assert F(q["lower"]) <= F(q["product"]) <= F(q["upper"])


# --- integer gauge and Gram form against the Fraction formulas -----------------

def reference_gauge(K, x):
    """Reference: the largest facet ratio a.x / b, in Fractions."""
    pt = tuple(F(c) for c in x)
    g = F(0)
    for a, b in K.facets:
        s = sum((u * c for u, c in zip(a, pt)), F(0))
        if s > 0 and s / b > g:
            g = s / b
    return g


def reference_gram_form(K):
    """Reference: G = sum of a a^T / b^2 over the facets, in Fractions."""
    d = K.ambient_dim
    return [[sum((a[i] * a[j] / (b * b) for a, b in K.facets), F(0)) for j in range(d)]
            for i in range(d)]


@st.composite
def bodies_and_points(draw):
    """A symmetric body in d = 1..4 with integer or rational vertices, or its
    polar, and rational points with negative entries and the zero vector."""
    d = draw(st.integers(1, 4))
    rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    coord = draw(st.sampled_from((st.integers(-3, 3), rational)))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d, max_size=d + 2))
    P = convex_hull(pts + [tuple(-c for c in p) for p in pts], d)
    assume(P.is_full_dimensional)
    K = SymmetricBody(P)
    if draw(st.booleans()):
        K = polar(K)
    xs = draw(st.lists(st.tuples(*[st.one_of(st.integers(-7, 7), rational)] * d), max_size=6))
    return K, xs + [(0,) * d]


@given(bodies_and_points())
@settings(max_examples=80, deadline=None)
def test_gauge_and_gram_form_match_fraction_references(case):
    # the minima reduce the form of one row of each +- pair of the dual
    # vertices (M, W): half of sum W W^T, a positive multiple of M^2 G
    K, xs = case
    for x in xs:
        assert gauge(K, x) == reference_gauge(K, x)
    d = K.ambient_dim
    _, W = K.dual_vertices
    G, ref = gon._form(d, [w for w in W if w > (0,) * d]), reference_gram_form(K)
    assert all(type(g) is int for row in G for g in row)
    scale = F(G[0][0]) / ref[0][0]
    assert scale > 0 and G == [[scale * r for r in row] for row in ref]
    assert core.lll_reduce(G) == core.lll_reduce(ref)


def test_gauge_refuses_a_point_of_another_length():
    # on the 2-D cross-polytope a zip would read (1, 0, 5) as (1, 0) and ()
    # as the origin, of gauges 1 and 0
    K = sym([(1, 0), (0, 1)], 2)
    assert gauge(K, (1, 0)) == 1
    for x in ((1, 0, 5), (), (1,)):
        with pytest.raises(DimensionMismatch):
            gauge(K, x)


@pytest.mark.parametrize("call", [
    successive_minima, dual_minima, lambda P: gauge(P, (1, 0)), polar, verify_transference,
    verify_sharp_2d,
], ids=["successive_minima", "dual_minima", "gauge", "polar", "verify_transference",
        "verify_sharp_2d"])
def test_polytope_refused_where_a_symmetric_body_is_needed(call):
    # convex_hull returns a Polytope, which has an ambient_dim but none of a
    # SymmetricBody's slots; it is refused by type, not by an AttributeError
    P = convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)], 2)
    with pytest.raises(InvalidInput):
        call(P)
    assert call(SymmetricBody(P)) is not None


def test_gauge_builds_one_fraction_per_call(monkeypatch):
    K = polar(sym([(3, 1, 0), (0, F(2, 3), 1), (1, 1, F(5, 2))], 3))
    points = [(1, -2, 3), (F(-1, 2), 0, F(7, 3)), (0, 0, 0), (5, 5, -5)]
    calls = counting_wrapper(monkeypatch, gon)
    with counted_fractions() as made:
        values = [gauge(K, x) for x in points]
    assert len(calls) == len(points)
    # d reading each point, one for each result: no Fraction arithmetic
    assert made.count <= len(points) * (3 + 1)
    assert values == [reference_gauge(K, x) for x in points]


@given(bodies_and_points())
@settings(max_examples=80, deadline=None)
def test_polar_matches_bipolarity_formula(case):
    K, xs = case
    dual = polar(K)
    assert (dual.vertices, dual.facets) == reference_polar(K)
    M, ints = dual.integer_vertices
    assert tuple(tuple(F(c, M) for c in w) for w in ints) == dual.vertices
    # the polar's gauge is the support function of K: max v.x over its vertices
    for x in xs:
        assert gauge(polar(K), x) == max(sum((F(a) * c for a, c in zip(v, x)), F(0))
                                         for v in K.vertices)


def test_minima_build_one_fraction_per_minimum():
    # on prebuilt bodies, integer and rational, the minima run on ints and
    # build a Fraction only for each lambda returned
    bodies = [difference_body(convex_hull([(0, 0, 0), (3, 1, 0), (1, 4, 1), (0, 1, 5), (2, 2, 2)], 3)),
              difference_body(simplex(4, 2)), hexagon(3), cube(3, 2)]
    bodies += [polar(K) for K in bodies]
    bodies.append(sym([(F(1, 2), 3, 0), (0, F(2, 3), 1), (1, 1, F(5, 2))], 3))
    for K in bodies:
        for k in range(1, K.ambient_dim + 1):
            K._minima = K._dual_minima = None
            lambdas, _ = minima_by_standard_basis(K)
            dual = successive_minima(SymmetricBody(polar(K)), k)
            with counted_fractions() as made:
                sm = successive_minima(K, k)
            assert made.count == k, (K, k)
            assert sm.lambdas == lambdas[:k]
            with counted_fractions() as made:
                sm = dual_minima(K, k)
            assert made.count == k, (K, k)
            assert sm == dual


def test_minima_box_scales_integer_vertices_by_their_l(monkeypatch):
    # the box of R*K comes from the integer vertices L v with the scale
    # R / (M L); bodies with L = 1000 and L ~ 10^15 keep it small
    counting_enumerator(monkeypatch, max_box=100)
    flat = sym([(F(7, 1000), F(1, 1000)), (F(-2, 1000), F(5, 1000))], 2)
    assert flat.integer_vertices[0] == 1000
    assert successive_minima(flat).lambdas == minima_by_standard_basis(flat)[0]
    small = sym([(F(7, 999), F(1, 1000), 0), (F(-2, 1000), F(5, 1001), F(1, 997)),
                 (0, F(1, 1003), F(3, 1000))], 3)
    assert small.integer_vertices[0] > 10 ** 14
    assert len(successive_minima(small).lambdas) == 3


@given(bodies_and_points())
@settings(max_examples=60, deadline=None)
def test_dual_minima_match_polar_minima(case):
    # read off K's integer vertices, the minima of polar(K) agree in every
    # lambda and witness, for every k and on fresh bodies
    K, _ = case
    d = K.ambient_dim
    full = successive_minima(polar(K))
    assert dual_minima(K) == full
    for k in range(1, d + 1):
        fresh = SymmetricBody(K)
        assert dual_minima(fresh, k) == successive_minima(SymmetricBody(polar(K)), k)
        assert dual_minima(fresh, k) == SuccessiveMinima(d, full.lambdas[:k], full.witnesses[:k])


def test_verifiers_build_no_polar(monkeypatch):
    # transference, the sharp 2-D bound and the bracket read the dual minima
    # off K; their quantities are those of the polar's minima
    P3 = convex_hull([(0, 0, 0), (3, 1, 0), (1, 4, 1), (0, 1, 5), (2, 2, 2)], 3)
    P2 = convex_hull([(0, 0), (4, 1), (1, 3), (-1, -2)], 2)
    K3, K2 = difference_body(P3), difference_body(P2)
    expected = [successive_minima(SymmetricBody(polar(K))) for K in (K3, K2)]
    calls = wrap_derived_bodies(monkeypatch)
    rep = verify_transference(K3)
    assert rep.quantities["lambda_dual"] == [rat_str(x) for x in expected[0].lambdas]
    assert rep.witnesses["dual_witnesses"] == [list(w) for w in expected[0].witnesses]
    rep = verify_sharp_2d(K2)
    assert rep.quantities["lambda_2_dual"] == rat_str(expected[1].lambdas[1])
    assert calls == []
    bracket = toric.eps_bracket_general(toric.MomentPolytope(P3))
    assert calls == ["difference_body"]
    assert [e.hi for e in bracket.entries] == [
        (4 - i) * expected[0].lambdas[3 - i] for i in range(1, 4)]


# bodies whose P - P walks in both passes, and whose bare width walks too
WALKING_3D = [(-4, -2, 2), (-4, 1, 1), (-1, 0, 2), (-1, 3, 1), (3, 1, 2), (4, 0, -3)]
WALKING_4D = [(-3, 1, -3, 2), (-2, 0, -3, -2), (-1, -1, -3, -2), (-1, -1, 0, -2), (0, 0, 1, -3),
              (2, -1, -1, -2), (2, -1, 3, -1), (2, 0, 3, -2)]


def test_minima_enumerate_half_of_each_symmetric_box(monkeypatch):
    # y -> -y maps x to -x: the walk visits only the pieces of the box past
    # the unit box, none of whose points lies in {-1, 0, 1}^d, and the pieces
    # and the unit half y > 0 hold each y != 0 of g <= R of the full box
    # once up to sign; the results are those of the standard-basis
    # reference.  Both passes of each body walk, the unit box holding
    # neither result
    passes = []
    real_least, real_runs = gon._least, gon.runs

    def least(side, scale, k, box):
        def boxed(R):
            # g(y) <= R as the one-sided rows n.y <= R and -n.y <= R
            sides = [(s, R) for n in zip(*side[1]) for s in (n, tuple(-c for c in n))]
            passes.append((sides, box(R), [], []))
            return passes[-1][1]
        return real_least(side, scale, k, boxed)

    def counting(rows, los, his, pairs=()):
        sides, _, walked, pieces = passes[-1]
        walked.extend(enumerate_points(sides, los, his))
        pieces.append(los)
        return real_runs(rows, los, his, pairs)

    monkeypatch.setattr(gon, "_least", least)
    monkeypatch.setattr(gon, "runs", counting)
    thin = convex_hull([(0, 0), (10, 0), (0, F(1, 10))], 2)
    bodies = [polar(difference_body(thin)), difference_body(convex_hull(WALKING_3D, 3)),
              difference_body(convex_hull([(0, 0), (5, 1), (7, 2), (2, 1)], 2)),
              difference_body(convex_hull(WALKING_4D, 4))]
    for K in bodies:
        walks = sum(1 for *_, pieces in passes if pieces)
        sm, sm_dual = successive_minima(K), dual_minima(K)
        assert sum(1 for *_, pieces in passes if pieces) == walks + 2
        assert (sm.lambdas, sm.witnesses) == minima_by_standard_basis(K)
        assert sm_dual == successive_minima(SymmetricBody(polar(K)))
    assert lattice_width(thin).width == F(1, 10)
    for sides, his, walked, _ in passes:
        assert all(max(map(abs, y)) >= 2 for y in walked)
        full = enumerate_points(sides, [-h for h in his], his)
        unit = [y for y in product((-1, 0, 1), repeat=len(his)) if y > (0,) * len(his)
                and all(vdot(n, y) <= R for n, R in sides)]
        up_to_sign = sorted(max(y, tuple(-c for c in y)) for y in walked + unit)
        assert up_to_sign == sorted({max(y, tuple(-c for c in y)) for y in full if any(y)})
    assert {len(his) for _, his, walked, _ in passes if walked} == {2, 4}


def test_minima_hand_the_walk_one_row_per_pair(monkeypatch):
    # the rows of a body's gauge come in +- pairs; _least hands the walk one
    # pair (n, R) per +- pair, m pairs and not 2m one-sided rows
    seen = []
    real = gon.runs

    def counting(rows, los, his, pairs=()):
        assert rows == []
        seen.append(pairs)
        return real(rows, los, his, pairs)

    monkeypatch.setattr(gon, "runs", counting)
    P = convex_hull(WALKING_3D, 3)
    K = difference_body(P)
    successive_minima(K)
    dual_minima(K)
    lattice_width(convex_hull(P.vertices, 3))
    _, W = K.dual_vertices
    L, xs = P.integer_vertices
    differences = {core.vsub(u, v) for u in xs for v in xs if u > v}
    assert [len(pairs) for pairs in seen] == [len(W) // 2, len(K.vertices) // 2, len(differences)]
    assert all(R > 0 for pairs in seen for _, R in pairs)


def test_first_minimum_needs_no_elimination(monkeypatch):
    # k = 1 takes the least candidate; only k > 1 picks independent ones
    calls = []
    real = gon.independent
    monkeypatch.setattr(gon, "independent", lambda xs, *k: calls.append(len(xs)) or real(xs, *k))
    K = hexagon(3)
    P = convex_hull([(0, 0), (4, 1), (1, 3), (-1, -2)], 2)
    assert successive_minima(K, 1).lambdas == minima_by_standard_basis(K)[0][:1]
    assert dual_minima(K, 1) == successive_minima(SymmetricBody(polar(K)), 1)
    assert lattice_width(P).width == width_by_brute_force(P)
    assert calls == []
    successive_minima(K)
    assert len(calls) == 1


def test_minima_stop_inserting_at_the_kth_pick(monkeypatch):
    # for 1 < k < d the greedy basis stops at rank k: at k = 2 on the 4-cube
    # no candidate past the second pick goes into the echelon rows, and the
    # minima are the prefix of the full ones
    K = cube(4)
    full = successive_minima(K)
    inserted, seen = [], []
    real_insert, real_independent = core._insert, gon.independent
    monkeypatch.setattr(core, "_insert", lambda basis, pivots, row: inserted.append(row)
                        or real_insert(basis, pivots, row))

    def spying(vectors, *k):
        picked = real_independent(vectors, *k)
        seen.append((len(vectors), picked))
        return picked

    monkeypatch.setattr(gon, "independent", spying)
    sm = successive_minima(SymmetricBody(K), 2)
    (candidates, picked), = seen
    assert len(picked) == 2 and len(inserted) == picked[-1] + 1 < candidates
    assert sm == SuccessiveMinima(4, full.lambdas[:2], full.witnesses[:2])
