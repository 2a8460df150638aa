"""Acceptance suite: one test per criterion, every comparison exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import math
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from latmin.cli import run
from latmin.core import lattice_span
from latmin.gon import (
    flatness_report,
    gauge,
    lattice_width,
    successive_minima,
    verify_minkowski_second,
    verify_sharp_2d,
    verify_transference,
)
from latmin.generate import SuiteConfig, generate_instance, instance_stream
from latmin.polytope import (
    PointLocation,
    SymmetricBody,
    convex_hull,
    difference_body,
    locate,
    polar,
)
from latmin.postulation import box_volume, box_volume_closed_form, check_vol_bound, flag_h0
from latmin.toric import (
    MomentPolytope,
    ProductOfP1,
    ProjectiveSpace,
    eps_at_invariant_point,
    eps_bracket_general,
    exact_eps_family,
    toric_volume,
    verify_m2m,
)
from reference import box, simplex, width_by_brute_force

F = Fraction


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def corpus(dim, bound, count, seed):
    cfg = SuiteConfig("minkowski", seed=seed, count=count, dim=dim, coord_bound=bound)
    return [generate_instance(cfg, i) for i in range(count)]


CORPUS = {2: corpus(2, 5, 200, seed=1002), 3: corpus(3, 4, 200, seed=1003)}


def test_criterion_1_projective_space_family():
    with criterion(1, "projective space family"):
        for d in (2, 3):
            for w in (1, 2, 3):
                prof, mp = exact_eps_family(ProjectiveSpace(d, w))
                K = difference_body(mp)
                sm = successive_minima(K)
                assert sm.lambdas == tuple([F(1, w)] * d)
                sm_dual = successive_minima(polar(K))
                assert sm_dual.lambdas == tuple([F(w)] * d)
                assert lattice_width(mp).width == w
                for u in mp.vertices_int:
                    got = eps_at_invariant_point(mp, u)
                    assert [e.value for e in got.entries] == [w] * d
                assert [e.value for e in prof.entries] == [w] * d
                assert toric_volume(mp) == F(w) ** d


def test_criterion_2_product_weights_321():
    with criterion(2, "product of lines, weights (3,2,1)"):
        prof, mp = exact_eps_family(ProductOfP1((3, 2, 1)))
        K = difference_body(mp)
        assert successive_minima(K).lambdas == (F(1, 3), F(1, 2), F(1))
        assert successive_minima(polar(K)).lambdas == (F(1), F(2), F(3))
        assert [e.value for e in prof.entries] == [6, 3, 1]
        vol = toric_volume(mp)
        assert vol == 36
        rep = verify_m2m(mp, prof)
        assert rep.holds
        ratio = F(rep.quantities["ratio"])
        assert ratio == 2
        assert 1 <= ratio <= math.factorial(3)


def test_criterion_3_sharp_2d():
    with criterion(3, "sharp two-dimensional transference"):
        K = SymmetricBody(convex_hull(
            [(1, F(3, 2)), (1, F(-1, 2)), (-1, F(-3, 2)), (-1, F(1, 2))], 2))
        dual = polar(K)
        assert dual == convex_hull(
            [(1, 0), (-1, 0), (F(-1, 2), 1), (F(1, 2), -1)], 2)
        prod = successive_minima(K).lambdas[0] * successive_minima(dual).lambdas[1]
        assert prod == F(3, 2)
        cfg = SuiteConfig("sharp2d", seed=1004, count=500, dim=2, coord_bound=5)
        for i in range(500):
            rep = verify_sharp_2d(generate_instance(cfg, i))
            assert rep.holds
            p = F(rep.quantities["product"])
            assert 1 <= p <= F(3, 2)


def test_criterion_4_minkowski_second():
    with criterion(4, "second theorem of Minkowski"):
        for d in (2, 3):
            for P in CORPUS[d]:
                rep = verify_minkowski_second(P)
                assert rep.holds
                prod = F(rep.quantities["product"])
                assert F(1, math.factorial(d)) <= prod <= 1
        cube = convex_hull(list(product((0, 1), repeat=2)), 2)
        assert F(verify_minkowski_second(cube).quantities["product"]) == 1
        assert F(verify_minkowski_second(simplex(2)).quantities["product"]) == F(1, 2)


def test_criterion_5_transference():
    with criterion(5, "transference bound"):
        for d in (2, 3):
            for P in CORPUS[d]:
                rep = verify_transference(difference_body(P))
                assert rep.holds
                for p in rep.quantities["pairings"]:
                    assert 1 <= F(p) <= d


def test_criterion_6_flatness():
    with criterion(6, "flatness theorem suite"):
        for d in (2, 3):
            for P in CORPUS[d]:
                rep = flatness_report(P)
                assert rep.holds, rep.quantities
                assert all(s in ("holds", "holds_vacuous") for s in rep.items.values())
        rep = flatness_report(box(5, 5))
        assert rep.holds
        assert rep.witnesses["interior_point"] == [1, 1]
        # conclusions of the span/basis items hold with explicit witnesses
        assert rep.quantities["interior_count"] == "16"
        assert rep.quantities["interior_rank"] == "2"
        assert rep.quantities["interior_spans"] == "1"
        pts = rep.witnesses["spanning_points"]
        assert len(pts) == 3
        diffs = [tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]
        assert lattice_span(diffs, 2) == (2, True)


def test_criterion_7_ew_sandwich():
    with criterion(7, "width/d <= last bracket <= width"):
        for d in (2, 3):
            for P in CORPUS[d]:
                mp = MomentPolytope(P)
                prof = eps_bracket_general(mp)
                w = lattice_width(P).width
                last = prof.entries[-1]
                assert F(w, d) <= last.lo <= last.hi <= w


def test_criterion_8_volume_vs_minima_families():
    with criterion(8, "volume vs product of minima on exact families"):
        rng = instance_stream(1008, 0)
        for i in range(50):
            d = rng.int_in(2, 4)
            if rng.int_in(0, 1):
                prof, mp = exact_eps_family(ProjectiveSpace(d, rng.int_in(1, 6)))
            else:
                weights = tuple(rng.int_in(1, 6) for _ in range(d))
                prof, mp = exact_eps_family(ProductOfP1(weights))
            rep = verify_m2m(mp, prof)
            assert rep.holds
            ratio = F(rep.quantities["ratio"])
            assert 1 <= ratio <= math.factorial(d)
        prof, mp = exact_eps_family(ProductOfP1((100, 1)))
        ratio = F(verify_m2m(mp, prof).quantities["ratio"])
        assert ratio == F(200, 101)
        assert ratio > 2 * F(100, 101) - F(1, 10 ** 9)


def test_criterion_9_postulation():
    with criterion(9, "postulation combinatorics"):
        # exhaustive telescoping sweep (identity valid once q >= deepest p)
        for d in (1, 2, 3):
            for p in product(range(5), repeat=d):
                for q in range(11):
                    f_q = flag_h0(d, p, q)
                    f_prev = flag_h0(d, p, q - 1) if q else 0
                    if d == 1:
                        assert f_q == max(q - p[0] + 1, 0)
                        continue
                    if q >= p[-1]:
                        assert f_q - f_prev == flag_h0(d - 1, p[:-1], q)
                    else:
                        assert f_q == f_prev == 0
        rng = instance_stream(1009, 0)
        for _ in range(100):
            d = rng.int_in(1, 3)
            t = sorted((F(rng.int_in(0, 20), rng.int_in(1, 4)) for _ in range(d)),
                       reverse=True)
            assert box_volume(t) == box_volume_closed_form(t)
        for _ in range(100):
            d = rng.int_in(1, 4)
            t = [F(rng.int_in(0, 20), rng.int_in(1, 4)) for _ in range(d)]
            assert check_vol_bound(t).holds


def gauge_matches_bisection(K, x):
    def member(t):
        if t == 0:
            return all(c == 0 for c in x)
        return locate(K, tuple(F(c) / t for c in x)) is not PointLocation.OUTSIDE

    g = gauge(K, x)
    if g == 0:
        return all(c == 0 for c in x) or member(F(1, 10 ** 9)) is False
    if not member(g):
        return False
    if member(g * F(2 ** 40 - 1, 2 ** 40)):
        return False
    lo, hi = F(0), g + 1
    for _ in range(50):
        mid = (lo + hi) / 2
        if member(mid):
            hi = mid
        else:
            lo = mid
    return lo < g <= hi


def test_criterion_10_oracles():
    with criterion(10, "independent oracles"):
        for d, bound, seed in ((2, 4, 1010), (3, 3, 1011)):
            cfg = SuiteConfig("minkowski", seed=seed, count=100, dim=d, coord_bound=bound)
            for i in range(100):
                P = generate_instance(cfg, i)
                assert lattice_width(P).width == width_by_brute_force(P)
        cfg = SuiteConfig("transference", seed=1012, count=50, dim=2, coord_bound=5)
        pairs = 0
        for i in range(50):
            K = generate_instance(cfg, i)
            rng = instance_stream(1013, i)
            for _ in range(4):
                x = (rng.int_in(-6, 6), rng.int_in(-6, 6))
                assert gauge_matches_bisection(K, x)
                pairs += 1
        assert pairs == 200
        cfg = SuiteConfig("transference", seed=1014, count=100, dim=3, coord_bound=3)
        for i in range(100):
            K = generate_instance(cfg, i)
            assert polar(polar(K)) == K


def test_criterion_11_determinism():
    with criterion(11, "byte-deterministic verify"):
        for argv in (
            ["verify", "--suite", "sharp2d", "--seed", "7", "--count", "25"],
            ["verify", "--suite", "minkowski", "--seed", "5", "--count", "10",
             "--dim", "3", "--bound", "4"],
            ["verify", "--suite", "postulation", "--seed", "2", "--count", "20",
             "--dim", "3", "--bound", "4"],
        ):
            first = run(argv)
            second = run(argv)
            assert first == second
            assert first[0] == 0
