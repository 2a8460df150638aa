"""Typed refusals of the public API: each call raises exactly its error type.

A vector is read whole before its length is checked, so a malformed entry
is InvalidInput whatever the vector's length, and a well-formed vector of
another length is DimensionMismatch, at each of the six sites that read a
vector in a known dimension.
"""

from fractions import Fraction

import pytest

from latmin.errors import DimensionMismatch, InvalidInput, MixedProfile
from latmin.gon import WidthResult, gauge
from latmin.polytope import SymmetricBody, contains, convex_hull, locate
from latmin.toric import (EpsBracket, EpsExact, EpsProfile, MomentPolytope,
                          eps_at_invariant_point, vertex_cone, verify_bracket_width,
                          verify_m2m)

F = Fraction

BOX = convex_hull([(0, 0), (2, 0), (0, 1), (2, 1)], 2)
SEGMENT = convex_hull([(0, 0, 0), (1, 1, 0)], 3)  # contains reads it through its chart
CROSS = SymmetricBody(convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1)], 2))
MP = MomentPolytope(BOX)
WIDTH = WidthResult(F(1), (0, 1))  # BOX's, by hand

CASES = {
    # epsilon values are exact positive rationals, brackets 0 <= lo <= hi
    "exact_float": (lambda: EpsExact(2.5, "x"), InvalidInput),
    "exact_zero": (lambda: EpsExact(0, "x"), InvalidInput),
    "exact_negative": (lambda: EpsExact(F(-1, 2), "x"), InvalidInput),
    "exact_none": (lambda: EpsExact(None, "x"), InvalidInput),
    "bracket_none": (lambda: EpsBracket(0, None), InvalidInput),
    "bracket_float": (lambda: EpsBracket(F(1), 1.5), InvalidInput),
    "bracket_negative_lo": (lambda: EpsBracket(-1, 2), InvalidInput),
    "bracket_empty": (lambda: EpsBracket(2, 1), InvalidInput),
    "m2m_float_profile": (lambda: verify_m2m(MP, EpsProfile([EpsExact(2.5, "x"),
                                                             EpsExact(1, "x")])), InvalidInput),
    "m2m_zero_profile": (lambda: verify_m2m(MP, EpsProfile([EpsExact(0, "x")] * 2)),
                         InvalidInput),
    # the width check takes a bracket profile of length d and a WidthResult
    "width_list_profile": (lambda: verify_bracket_width(MP, [EpsBracket(1, 2)] * 2, WIDTH),
                           InvalidInput),
    "width_mixed_profile": (lambda: verify_bracket_width(
        MP, EpsProfile([EpsExact(2, "x"), EpsBracket(1, 2)]), WIDTH), MixedProfile),
    "width_exact_profile": (lambda: verify_bracket_width(
        MP, EpsProfile([EpsExact(2, "x"), EpsExact(1, "x")]), WIDTH), InvalidInput),
    "width_profile_length": (lambda: verify_bracket_width(
        MP, EpsProfile([EpsBracket(1, 2)] * 3), WIDTH), DimensionMismatch),
    "width_tuple_width": (lambda: verify_bracket_width(
        MP, EpsProfile([EpsBracket(1, 2)] * 2), (F(1), (0, 1))), InvalidInput),
    "width_witness_length": (lambda: verify_bracket_width(
        MP, EpsProfile([EpsBracket(1, 2)] * 2), WidthResult(F(1), (0, 1, 0))), DimensionMismatch),
    "width_witness_fraction": (lambda: verify_bracket_width(
        MP, EpsProfile([EpsBracket(1, 2)] * 2), WidthResult(F(1), (0, F(1, 2)))), InvalidInput),
    # the points of a hull are an iterable
    "hull_of_an_int": (lambda: convex_hull(5, 2), InvalidInput),
    "hull_of_none": (lambda: convex_hull(None, 2), InvalidInput),
    # a well-formed vector of another length, at each of the six sites
    "hull_length": (lambda: convex_hull([(0, 0), (1, 0, 0)], 2), DimensionMismatch),
    "locate_length": (lambda: locate(BOX, (0, 0, 0)), DimensionMismatch),
    "contains_length": (lambda: contains(BOX, (0,)), DimensionMismatch),
    "contains_chart_length": (lambda: contains(SEGMENT, (0, 0)), DimensionMismatch),
    "gauge_length": (lambda: gauge(CROSS, (1, 0, 0)), DimensionMismatch),
    "vertex_cone_length": (lambda: vertex_cone(MP, (0,)), DimensionMismatch),
    "eps_length": (lambda: eps_at_invariant_point(MP, (0, 0, 0)), DimensionMismatch),
    # a malformed entry in a vector of another length is still InvalidInput
    "hull_malformed": (lambda: convex_hull([(0, 0), (0.5, 0, 0)], 2), InvalidInput),
    "locate_malformed": (lambda: locate(BOX, (0.5, 0, 0)), InvalidInput),
    "contains_malformed": (lambda: contains(BOX, ("x",)), InvalidInput),
    "contains_chart_malformed": (lambda: contains(SEGMENT, (None, 0)), InvalidInput),
    "gauge_malformed": (lambda: gauge(CROSS, (F(1, 2), 0.5, 0)), InvalidInput),
    "vertex_cone_fraction": (lambda: vertex_cone(MP, (F(1, 2),)), InvalidInput),
    "eps_float": (lambda: eps_at_invariant_point(MP, (0, 0, 0.5)), InvalidInput),
}


@pytest.mark.parametrize("name", CASES)
def test_refusal_has_its_type(name):
    call, expected = CASES[name]
    with pytest.raises(Exception) as caught:
        call()
    assert caught.type is expected, f"{name} raised {caught.type.__name__}: {caught.value}"


def test_eps_values_are_read_as_exact_rationals():
    # "p/q" strings and ints are read like any other rational input
    assert EpsExact("3", "x") == EpsExact(F(3), "x")
    assert EpsBracket("1/2", 2) == EpsBracket(F(1, 2), F(2))
    assert type(EpsExact(3, "x").value) is Fraction
    rep = verify_m2m(MP, EpsProfile([EpsExact("5/2", "x"), EpsExact(1, "x")]))
    assert rep.holds and rep.quantities["ratio"] == "8/5"
