"""One polytope under its three types: a Polytope P, the SymmetricBody K and
the MomentPolytope MP built from it.  Each function answers alike on every
type it takes and refuses the others with InvalidInput."""

from fractions import Fraction

import pytest

from latmin import gon, polytope, toric
from latmin.errors import InvalidInput
from latmin.polytope import Polytope, SymmetricBody, convex_hull
from latmin.toric import EpsExact, EpsProfile, MomentPolytope

F = Fraction

# twice the smooth hexagon: symmetric, a lattice polygon, and smooth at every vertex
HEXAGON = [(2, 0), (2, 2), (0, 2), (-2, 0), (-2, -2), (0, -2)]
PROBES = [(F(x, 2), F(y, 2)) for x in range(-6, 7) for y in range(-6, 7)]

POLYTOPE_FUNCTIONS = {
    "volume": polytope.volume,
    "lattice_points": polytope.lattice_points,
    "interior_points": lambda B: polytope.lattice_points(B, "interior"),
    "locate": lambda B: [polytope.locate(B, x) for x in PROBES],
    "contains": lambda B: [polytope.contains(B, x) for x in PROBES],
    "difference_body": lambda B: polytope.difference_body(B).vertices,
    "lattice_width": gon.lattice_width,
    "flatness_report": gon.flatness_report,
    "verify_minkowski_second": gon.verify_minkowski_second,
}
SYMMETRIC_FUNCTIONS = {
    "gauge": lambda B: gon.gauge(B, (1, 0)),
    "polar": polytope.polar,
    "successive_minima": gon.successive_minima,
    "dual_minima": gon.dual_minima,
    "verify_transference": gon.verify_transference,
    "verify_sharp_2d": gon.verify_sharp_2d,
}
PROFILE = EpsProfile([EpsExact(F(4), "invariant_point")] * 2)
MOMENT_FUNCTIONS = {
    "vertex_cone": lambda B: toric.vertex_cone(B, (2, 0)),
    "eps_at_invariant_point": lambda B: toric.eps_at_invariant_point(B, (2, 0)),
    "eps_bracket_general": toric.eps_bracket_general,
    "toric_volume": toric.toric_volume,
    "verify_m2m": lambda B: toric.verify_m2m(B, PROFILE),
}


def test_each_function_takes_exactly_its_body_types():
    P = convex_hull(HEXAGON, 2)
    # built before anything is kept on P, so each type computes its own answers
    K, MP = SymmetricBody(P), MomentPolytope(P)
    assert isinstance(K, Polytope) and isinstance(MP, Polytope)
    assert K == P == MP and hash(K) == hash(P) == hash(MP)
    assert repr(K).startswith("SymmetricBody(dim=2, affine_dim=2, vertices=6")
    assert K.to_json() == MP.to_json() == P.to_json()
    assert MomentPolytope(K) == SymmetricBody(MP) == P
    for name, f in POLYTOPE_FUNCTIONS.items():
        assert f(K) == f(MP) == f(P), name
    assert polytope.difference_body(K).vertices == tuple(
        tuple(2 * c for c in v) for v in K.vertices)
    for f in SYMMETRIC_FUNCTIONS.values():
        f(K)
        for B in (P, MP):
            with pytest.raises(InvalidInput, match="SymmetricBody"):
                f(B)
    for f in MOMENT_FUNCTIONS.values():
        f(MP)
        for B in (P, K):
            with pytest.raises(InvalidInput, match="needs a MomentPolytope"):
                f(B)


def test_results_kept_on_the_polytope_carry_over():
    P = convex_hull(HEXAGON, 2)
    D, vol, width = polytope.difference_body(P), polytope.volume(P), gon.lattice_width(P)
    for B in (SymmetricBody(P), MomentPolytope(P)):
        assert polytope.difference_body(B) is D
        assert polytope.volume(B) is vol and gon.lattice_width(B) is width
