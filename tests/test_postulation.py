import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counting import counted_fractions, time_limit
from latmin import postulation
from latmin.errors import InternalError, InvalidInput, NegativeParameter
from latmin.polytope import convex_hull, volume
from latmin.postulation import (
    box_count,
    box_volume,
    box_volume_closed_form,
    check_vol_bound,
    flag_h0,
)
from reference import newton_box_count, polynomial_box_volume, solve_linear

F = Fraction

rats = st.fractions(min_value=0, max_value=6, max_denominator=4)

# integer entries up to 10^6 and rationals with denominators up to 7
wide_params = st.one_of(st.integers(0, 10 ** 6),
                        st.fractions(min_value=0, max_value=10 ** 6, max_denominator=7))


def box_count_by_grid(t):
    """Oracle: scan the integer grid up to max(t) and test all suffix sums."""
    t = [F(x) for x in t]
    d = len(t)
    top = math.floor(max(t))
    n = 0
    for x in product(range(top + 1), repeat=d):
        if all(sum(x[i:]) <= t[i] for i in range(d)):
            n += 1
    return n


def box_count_by_recursion(t):
    """Reference: exhaustive recursion over the coordinates, each capped by
    the prefix minimum of the parameters minus the suffix sum chosen so far;
    its work grows as T^(d-1)."""
    t = [F(x) for x in t]
    prefix_min = [min(t[:i + 1]) for i in range(len(t))]

    def count(i, s):
        hi = math.floor(prefix_min[i] - s)
        if hi < 0:
            return 0
        if i == 0:
            return hi + 1
        return sum(count(i - 1, s + x) for x in range(hi + 1))

    return count(len(t) - 1, 0)


def box_volume_by_hull(t):
    """Reference: the box's vertices from every d of its 2d halfspaces, then
    the volume of their hull triangulation."""
    t = [F(x) for x in t]
    d = len(t)
    ineqs = [(tuple(-int(j == i) for j in range(d)), F(0)) for i in range(d)]
    ineqs += [(tuple(int(j >= i) for j in range(d)), t[i]) for i in range(d)]
    verts = set()
    for subset in combinations(ineqs, d):
        x = solve_linear([a for a, _ in subset], [b for _, b in subset])
        if x is not None and all(sum(c * y for c, y in zip(a, x)) <= b for a, b in ineqs):
            verts.add(x)
    return volume(convex_hull(verts, d))


class TestBoxCount:
    def test_example_21(self):
        assert box_count([2, 1]) == 5
        assert box_count_by_grid([2, 1]) == 5

    def test_interval(self):
        for t1 in [0, 3, F(7, 2)]:
            assert box_count([t1]) == math.floor(t1) + 1

    def test_floor_identity(self):
        assert box_count([F(5, 2), 1]) == box_count([2, 1])
        assert box_count([F(10, 3), F(7, 2), F(1, 2)]) == box_count([3, 3, 0])

    def test_negative_rejected(self):
        with pytest.raises(NegativeParameter):
            box_count([2, -1])

    @pytest.mark.parametrize("t", [[0.1, 2], [True, 2], ["1e3"], "12", {"3": 1, "2": 0}, []],
                             ids=["float", "bool", "exponent", "string", "object", "empty"])
    def test_inexact_parameters_refused(self, t):
        with pytest.raises(InvalidInput):
            box_count(t)

    @given(st.lists(st.fractions(min_value=0, max_value=12, max_denominator=5),
                    min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_against_recursion(self, t):
        assert box_count(t) == box_count_by_recursion(t)

    @pytest.mark.parametrize("T", [10 ** 5, 10 ** 30])
    def test_large_cube(self, T):
        # the reference recursion takes about T^3 steps here; box_count does not depend on T
        with time_limit(20):
            assert box_count([T] * 4) == math.comb(T + 4, 4)
            assert box_count([T + F(1, 2), T, 2 * T, T]) == math.comb(T + 4, 4)

    @given(st.lists(rats, min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_against_grid_oracle(self, t):
        assert box_count(t) == box_count_by_grid(t)

    @given(st.lists(rats, min_size=2, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_suffix_recursion(self, t):
        total = 0
        for x1 in range(math.floor(t[0]) + 1):
            tail = [min(t[1], t[0] - x1)] + list(t[2:])
            if tail[0] < 0:
                continue
            total += box_count(tail)
        assert total == box_count(t)


class TestBoxVolume:
    def test_examples(self):
        assert box_volume([2, 1]) == F(3, 2)
        assert box_volume([F(7, 3)]) == F(7, 3)
        assert box_volume([3, 2, 1]) == F(8, 3)

    def test_closed_forms(self):
        assert box_volume_closed_form([2, 1]) == F(3, 2)
        assert box_volume_closed_form([3, 2, 1]) == F(8, 3)
        with pytest.raises(ValueError):
            box_volume_closed_form([1, 2])

    def test_degenerate(self):
        assert box_volume([3, 0]) == 0
        assert box_volume([0, 0, 0]) == 0

    def test_closed_form_checked_at_prefix_minima(self, monkeypatch):
        # unsorted t is checked at c = (min(t_1..t_i)), whose box is the box of t
        assert box_volume((1, 2, 3)) == box_volume_closed_form((1, 1, 1))
        monkeypatch.setattr(postulation, "box_volume_closed_form",
                            lambda c: box_volume_closed_form(c) + 1)
        with pytest.raises(InternalError):
            box_volume((1, 2, 3))

    def test_unsorted_input_allowed(self):
        # with t1 <= t2 the deeper cap is inactive: region is the t1-simplex
        assert box_volume([1, 2]) == F(1, 2)
        assert box_volume([1, 2]) == box_volume([1, 1])

    @given(st.lists(rats, min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_closed_form_matches_triangulation(self, t):
        t = sorted(t, reverse=True)
        assert box_volume(t) == box_volume_closed_form(t)

    @given(st.lists(st.fractions(min_value=0, max_value=9, max_denominator=6),
                    min_size=1, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_against_hull_reference(self, t):
        # unsorted parameters included: only a prefix minimum is ever active
        assert box_volume(t) == box_volume_by_hull(t)

    def test_large_cube(self):
        T = 10 ** 30
        with time_limit(20):
            assert box_volume([T] * 4) == F(T ** 4, 24)
            assert box_volume([2 * T, T, T + 1, T]) == F(T ** 4, 24) + F(T ** 4, 6)

    def test_d4_frozen_values(self):
        # equal parameters collapse to a simplex: vol = t^4/4!
        assert box_volume([2, 2, 2, 2]) == F(16, 24)
        # (10,2,2,2): integral of (10 - s) over the 2-simplex in 3 vars,
        # = 10 * 8/6 - 3 * 2^4/24 = 40/3 - 2 = 34/3
        assert box_volume([10, 2, 2, 2]) == F(34, 3)


class TestRecurrences:
    @given(st.lists(wide_params, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_match_references(self, t):
        # the parameters come unsorted: only the prefix minima are active
        assert box_count(t) == newton_box_count(t)
        assert box_volume(t) == polynomial_box_volume(t)

    @pytest.mark.parametrize("t", [[5, 4, 3, 2], [F(7, 2), 3, F(1, 3), 2, 9],
                                   [10 ** 6, F(5, 7), 4, F(2, 3), 1, 0, 8, F(6, 5)]])
    def test_fractions_built(self, t):
        # past the closed form (d >= 4) box_volume builds one Fraction beyond
        # those _as_params parses, one per int entry (a Fraction is taken as
        # it is), for the result, and box_count none
        with counted_fractions() as parsed:
            postulation._as_params(t)
        with counted_fractions() as vol:
            box_volume(t)
        with counted_fractions() as count:
            box_count(t)
        assert parsed.count == sum(type(c) is int for c in t)
        assert vol.count == parsed.count + 1
        assert count.count == parsed.count

    def test_large_d12(self):
        T = 10 ** 30
        with time_limit(20):
            assert box_count([T] * 12) == math.comb(T + 12, 12)
            assert box_volume([T] * 12) == F(T ** 12, math.factorial(12))


class TestVolBound:
    def test_example(self):
        rep = check_vol_bound([2, 1])
        assert rep.holds
        assert rep.quantities == {"vol": "3/2", "bound": "2"}

    def test_degenerate_equality(self):
        rep = check_vol_bound([5, 0, 0])
        assert rep.holds
        assert rep.quantities["vol"] == rep.quantities["bound"] == "0"

    @given(st.lists(rats, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_random_tuples(self, t):
        assert check_vol_bound(t).holds


class TestFlagH0:
    def test_dimension_one(self):
        for p, q in [(0, 4), (2, 7), (5, 5)]:
            assert flag_h0(1, (p,), q) == q - p + 1
        assert flag_h0(1, (4,), 2) == 0

    def test_conics_with_flag(self):
        assert flag_h0(2, (1, 1), 2) == 3
        assert flag_h0(2, (0, 0), 2) == 6

    def test_full_space_binomial(self):
        for d, q in [(1, 5), (2, 4), (3, 3)]:
            assert flag_h0(d, tuple([0] * d), q) == math.comb(q + d, d)

    @pytest.mark.parametrize("d, p, q", [
        (2, [1.9, 1], 2),
        (2, [True, 1], 2),
        (2, [1, F(1)], 2),
        (2, ["1", 1], 2),
        (2.0, [1, 1], 2),
        (True, [1], 2),
        (2, [1, 1], 2.0),
        (2, [1, 1], False),
    ])
    def test_non_integers_refused(self, d, p, q):
        with pytest.raises(InvalidInput):
            flag_h0(d, p, q)

    @pytest.mark.parametrize("d, p, q, error", [
        (2, [1], 2, InvalidInput),
        (0, [], 2, InvalidInput),
        (-1, [], 2, InvalidInput),
        (2, [1, -1], 2, NegativeParameter),
        (1, [0], -1, NegativeParameter),
    ])
    def test_bad_shapes_and_negatives_typed(self, d, p, q, error):
        with pytest.raises(error):
            flag_h0(d, p, q)

    def test_monotonicity(self):
        for q in range(6):
            assert flag_h0(2, (1, 1), q) <= flag_h0(2, (1, 1), q + 1)
        for p1 in range(4):
            assert flag_h0(2, (p1 + 1, 0), 5) <= flag_h0(2, (p1, 0), 5)

    def test_telescoping(self):
        # the difference identity kicks in once q reaches the deepest
        # multiplicity; below it both differenced counts vanish
        for d in (2, 3):
            for p in [tuple(range(1, d + 1)), tuple([2] * d), (3,) + (0,) * (d - 1)]:
                for q in range(1, 9):
                    lhs = flag_h0(d, p, q) - flag_h0(d, p, q - 1)
                    if q >= p[-1]:
                        assert lhs == flag_h0(d - 1, p[:-1], q)
                    else:
                        assert lhs == 0
