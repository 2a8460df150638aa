from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmin.core import (
    determinant,
    integer_inverse,
    lattice_span,
    lll_reduce,
    nullspace_vector,
    parse_rat,
    primitive,
    rank_rational,
    rat_str,
    solve_linear,
    strict_int,
)
from latmin.errors import DimensionMismatch, InvalidInput, ZeroVector

ints = st.integers(min_value=-30, max_value=30)


def test_rat_str_canonical():
    assert rat_str(Fraction(3, 1)) == "3"
    assert rat_str(Fraction(-6, 4)) == "-3/2"
    assert rat_str(Fraction(0)) == "0"


def test_parse_rat_roundtrip():
    for s in ["5", "-7/3", "0", "22/7"]:
        assert rat_str(parse_rat(s)) == s
    assert parse_rat(4) == 4
    with pytest.raises(ValueError):
        parse_rat(True)


class TestPrimitive:
    def test_examples(self):
        assert primitive((4, -6)) == (2, -3)
        assert primitive((0, 5)) == (0, 1)
        assert primitive((3, 7)) == (3, 7)

    def test_zero_rejected(self):
        with pytest.raises(ZeroVector):
            primitive((0, 0, 0))

    def test_canonical_sign(self):
        assert primitive((-2, 4), canonical_sign=True) == (1, -2)
        assert primitive((-2, 4)) == (-1, 2)

    @given(st.lists(ints, min_size=1, max_size=4), st.integers(min_value=1, max_value=9))
    @settings(max_examples=60)
    def test_scaling_invariance(self, v, k):
        if all(c == 0 for c in v):
            return
        assert primitive([k * c for c in v]) == primitive(v)


class TestLatticeSpan:
    def test_standard_basis(self):
        assert lattice_span([(1, 0), (0, 1)], 2) == (2, True)

    def test_index_two_sublattice(self):
        assert lattice_span([(2, 0), (0, 1)], 2) == (2, False)

    def test_unimodular_pair(self):
        # det [[1,2],[2,3]] = -1, so the pair generates Z^2
        assert lattice_span([(1, 2), (2, 3)], 2) == (2, True)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lattice_span([(1, 0, 0)], 2)

    def test_rank_deficient(self):
        assert lattice_span([(2, 4), (1, 2)], 2) == (1, False)
        assert lattice_span([], 3) == (0, False)

    @given(st.lists(st.tuples(ints, ints, ints), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_permutation_and_negation_invariance(self, vecs):
        base = lattice_span(vecs, 3)
        assert lattice_span(list(reversed(vecs)), 3) == base
        assert lattice_span([tuple(-c for c in v) for v in vecs], 3) == base
        rank, full = base
        assert rank <= 3
        if full:
            assert rank == 3


def test_rank_and_solve():
    assert rank_rational([(1, 2), (2, 4)]) == 1
    x = solve_linear([(2, 0), (0, 4)], (6, 8))
    assert x == (3, 2)
    assert solve_linear([(1, 0), (1, 0)], (0, 1)) is None


def test_nullspace_vector_orthogonal():
    rows = [(1, 2, 3), (0, 1, 1)]
    n = nullspace_vector(rows, 3)
    assert any(c != 0 for c in n)
    for r in rows:
        assert sum(a * b for a, b in zip(r, n)) == 0


def test_determinant():
    assert determinant([(1, 2), (2, 3)]) == -1
    assert determinant([(2, 0, 0), (0, 3, 0), (0, 0, 4)]) == 24
    assert determinant([(1, 1), (2, 2)]) == 0
    assert determinant([(Fraction(1, 2), 0), (0, Fraction(1, 3))]) == Fraction(1, 6)


def test_strict_int():
    assert strict_int(7, "n") == 7
    for bad in (7.0, True, "7", Fraction(7)):
        with pytest.raises(InvalidInput):
            strict_int(bad, "n")


# --- LLL -------------------------------------------------------------------------


def gram_schmidt(rows, gram):
    """mu and squared lengths of the Gram-Schmidt vectors of rows under the
    form gram, from scratch in rational coordinates."""
    d = len(rows)

    def form(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(d) for j in range(d))

    star, mu, bstar = [], [[Fraction(0)] * d for _ in range(d)], []
    for k, b in enumerate(rows):
        v = [Fraction(c) for c in b]
        for j in range(k):
            mu[k][j] = form(b, star[j]) / bstar[j]
            v = [a - mu[k][j] * c for a, c in zip(v, star[j])]
        star.append(v)
        bstar.append(form(v, v))
    return mu, bstar


def assert_lll_reduced(gram):
    d = len(gram)
    B = lll_reduce(gram)
    assert all(isinstance(c, int) for row in B for c in row)
    assert abs(determinant(B)) == 1
    mu, bstar = gram_schmidt(B, gram)
    for k in range(1, d):
        assert all(2 * abs(mu[k][j]) <= 1 for j in range(k))
        assert bstar[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * bstar[k - 1]
    inv = integer_inverse(B)
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)] for row in B] == [
        [int(i == j) for j in range(d)] for i in range(d)]
    return B


def test_lll_skewed_form():
    # the form of the lattice spanned by (1, 0) and (100, 1): the reduced
    # basis is (1, 0), (-100, 1) up to signs, of squared lengths 1 and 1
    gram = [[Fraction(1), Fraction(100)], [Fraction(100), Fraction(10001)]]
    B = assert_lll_reduced(gram)
    assert sorted(tuple(abs(c) for c in row) for row in B) == [(1, 0), (100, 1)]
    _, bstar = gram_schmidt(B, gram)
    assert bstar == [1, 1]


@st.composite
def positive_definite_forms(draw):
    """A^T D A for a random nonsingular integer A and positive rational D."""
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-40, 40), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    if determinant(rows) == 0:
        rows = [[int(i == j) for j in range(d)] for i in range(d)]
    weights = draw(st.lists(st.fractions(min_value=Fraction(1, 50), max_value=50),
                            min_size=d, max_size=d))
    return [[sum(rows[k][i] * weights[k] * rows[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)]


@given(positive_definite_forms())
@settings(max_examples=60, deadline=None)
def test_lll_reduced_and_unimodular(gram):
    assert_lll_reduced(gram)
