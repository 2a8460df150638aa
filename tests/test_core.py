import hashlib
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latmin.core import (
    as_intvec,
    as_ratvec,
    cofactor_normal,
    determinant,
    independent,
    inverse_transpose,
    lattice_span,
    lll_reduce,
    parse_rat,
    primitive,
    rat_str,
    strict_int,
    vdot,
)
from latmin.errors import DimensionMismatch, InternalError, InvalidInput, ZeroVector
from latmin.generate import SuiteConfig, generate_instance, instance_stream
from latmin.gon import _form
from latmin.polytope import difference_body, polar
from counting import counted_fractions
from latmin import core
from reference import gauss, generates_lattice, greedy_basis, kernel_vector, solve_linear
from reference import lll_reduce as rational_lll_reduce

ints = st.integers(min_value=-30, max_value=30)


def test_rat_str_canonical():
    assert rat_str(Fraction(3, 1)) == "3"
    assert rat_str(Fraction(-6, 4)) == "-3/2"
    assert rat_str(Fraction(0)) == "0"


@given(st.one_of(st.integers(), st.booleans(),
                 st.fractions(max_denominator=10 ** 30).filter(lambda q: abs(q) < 10 ** 40)))
def test_rat_str_builds_no_fraction_for_ints_and_fractions(x):
    # an int or a Fraction is written as it is, with the bytes of the
    # Fraction(x) path that any other value still takes
    q = Fraction(x)
    expected = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    with counted_fractions() as made:
        text = rat_str(x)
    assert made.count == 0
    assert text == expected == rat_str(str(q))


def test_parse_rat_roundtrip():
    for s in ["5", "-7/3", "0", "22/7"]:
        assert rat_str(parse_rat(s)) == s
    assert parse_rat(4) == 4
    assert parse_rat("7" * 4300) == int("7" * 4300)  # Python's int parsing limit
    with pytest.raises(ValueError):
        parse_rat(True)


@pytest.mark.parametrize("token", ["1/0", "0/0", "1e400", "0.1", " 1", "+1", "1/-2", "",
                                   "1/", "\u0661", 0.5, 2.0, True, None, [1],
                                   pytest.param("7" * 4301, id="4301-digits"),
                                   pytest.param("-1/" + "3" * 5000, id="5000-digit-denominator")])
def test_parse_rat_refuses_inexact_tokens(token):
    with pytest.raises(InvalidInput):
        parse_rat(token)


def test_as_intvec():
    assert as_intvec(["-3", 4, "6/2", Fraction(5)]) == (-3, 4, 3, 5)
    assert as_intvec((1, -2, 0), 3) == (1, -2, 0)  # ints go in as they are
    for bad in (["1/2"], [Fraction(1, 2)], ["0_0"], ["\u0660"], [" 0"], ["+0"], [0.0], [1, True]):
        with pytest.raises(InvalidInput):
            as_intvec(bad)


@pytest.mark.parametrize("read", [as_ratvec, as_intvec])
@pytest.mark.parametrize("vector", ["12", {"1": 0, "2": 0}, {}, b"12", bytearray(b"\x00\x03"),
                                    {1, 2}, frozenset({3, 4}), memoryview(b"12"),
                                    {"1": 0, "2": 0}.keys(), range(2), (c for c in (1, 2))],
                         ids=["string", "object", "empty-object", "bytes", "bytearray", "set",
                              "frozenset", "memoryview", "dict-keys", "range", "generator"])
def test_vectors_refuse_strings_and_objects(read, vector):
    # iterating would read a str digit by digit, bytes and a memoryview byte
    # by byte as ints, a dict by its keys and a set in hash order; only a list
    # or a tuple is a vector
    with pytest.raises(InvalidInput):
        read(vector)


class TestPrimitive:
    def test_examples(self):
        assert primitive((4, -6)) == (2, -3)
        assert primitive((0, 5)) == (0, 1)
        assert primitive((3, 7)) == (3, 7)
        assert primitive((-2, 4)) == (-1, 2)

    def test_zero_rejected(self):
        with pytest.raises(ZeroVector):
            primitive((0, 0, 0))

    @pytest.mark.parametrize("v", [(Fraction(1, 2), 1), (Fraction(3, 2), Fraction(3, 2)),
                                   (2.7, 4), (2.0, 4), (True, 1), ("2", 4)])
    def test_non_integer_entries_refused(self, v):
        # refused, not truncated to (0, 1), (1, 1) or (1, 2)
        with pytest.raises(InvalidInput):
            primitive(v)

    def test_integral_fractions_accepted(self):
        assert primitive((Fraction(4), Fraction(-6, 1))) == (2, -3)
        assert all(type(c) is int for c in primitive((Fraction(4), 6)))

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

    @pytest.mark.parametrize("d", [True, 2.0, "2"])
    def test_non_int_dimension_refused(self, d):
        # True would answer (True, True) for [(1,)]
        with pytest.raises(InvalidInput):
            lattice_span([(1,)] if d is True else [(1, 0), (0, 1)], d)

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
    assert independent([(1, 2), (2, 4)]) == [0]
    x = solve_linear([(2, 0), (0, 4)], (6, 8))
    assert x == (3, 2)
    assert solve_linear([(1, 0), (1, 0)], (0, 1)) is None
    assert solve_linear([(1, 1)], (2,)) is None  # not unique
    assert solve_linear([(Fraction(1, 2), 0), (0, 3), (1, 3)], (1, 1, 3)) == (2, Fraction(1, 3))


def test_nullspace_vector_orthogonal():
    for rows in ([(1, 2, 3), (0, 1, 1)], [(Fraction(1, 2), Fraction(2, 3), 1)], []):
        n = kernel_vector(rows, 3)
        assert any(c != 0 for c in n)
        assert all(isinstance(c, int) for c in n)
        for r in rows:
            assert sum(a * b for a, b in zip(r, n)) == 0
    assert kernel_vector([(1, 2), (3, 4)], 2) is None


def test_determinant():
    assert determinant([(1, 2), (2, 3)]) == -1
    assert determinant([(2, 0, 0), (0, 3, 0), (0, 0, 4)]) == 24
    assert determinant([(1, 1), (2, 2)]) == 0
    assert determinant([(Fraction(1, 2), 0), (0, Fraction(1, 3))]) == Fraction(1, 6)


def test_independent_is_greedy():
    assert independent([(0, 0), (1, 2), (2, 4), (0, 1), (5, 5)]) == [1, 3]
    assert independent([]) == []


# --- the echelon kernel against minors -------------------------------------------


def leibniz_det(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += sign * prod(m[i][perm[i]] for i in range(n))
    return total


def minors(rows, r):
    m, n = len(rows), len(rows[0])
    return [leibniz_det([[rows[i][j] for j in cs] for i in rs])
            for rs in combinations(range(m), r) for cs in combinations(range(n), r)]


@st.composite
def small_matrices(draw):
    """1..4 rows of 1..4 small entries, integer only or with fractions mixed in."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    if draw(st.booleans()):
        entry = st.one_of(entry, st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]


@given(small_matrices(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
def test_kernel_against_minors(rows, x0):
    m, n = len(rows), len(rows[0])
    r = max([k for k in range(1, min(m, n) + 1) if any(minors(rows, k))], default=0)
    assert len(independent(rows)) == r
    if m == n:
        assert determinant(rows) == leibniz_det(rows)
    integral = all(Fraction(c).denominator == 1 for row in rows for c in row)
    generates = integral and m >= n and gcd(*(int(v) for v in minors(rows, n))) == 1
    assert lattice_span(rows, n) == (r, generates)
    kv = kernel_vector(rows, n)
    if r == n:
        assert kv is None
    else:
        assert any(kv) and all(sum(a * c for a, c in zip(row, kv)) == 0 for row in rows)
    b = [sum(a * c for a, c in zip(row, x0)) for row in rows]
    assert solve_linear(rows, b) == (tuple(x0[:n]) if r == n else None)
    cols = list(zip(*rows))
    assert independent(cols) == [j for j in range(n)
                                 if gauss(cols[:j + 1], m)[0] > gauss(cols[:j], m)[0]]


# --- the insertion kernel against Gaussian elimination in Fractions --------------


@st.composite
def row_sets(draw):
    """0..7 rows of 1..4 entries, small integers, often 0 and +-1 so that
    rank and unit pivots are reached early, with fractions mixed in."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.sampled_from((0, 0, 1, -1)), st.integers(-6, 6))
    if draw(st.booleans()):
        entry = st.one_of(entry, st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return n, draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=7))


@given(row_sets())
@settings(max_examples=300, deadline=None)
def test_kernel_against_fraction_elimination(case):
    n, rows = case
    r, det = gauss(rows, n)
    assert len(independent(rows)) == r
    assert lattice_span(rows, n) == (r, generates_lattice(rows, n))
    assert independent(rows) == greedy_basis(rows)
    assert core.greedy_span(rows, n) == (greedy_basis(rows), generates_lattice(rows, n))
    if len(rows) == n:
        assert determinant(rows) == det


class CountingRow(tuple):
    """A row that records its index in ``read`` whenever its entries are read."""

    def __new__(cls, index, entries, read):
        row = super().__new__(cls, entries)
        row.index, row.read = index, read
        return row

    def __iter__(self):
        self.read.append(self.index)
        return super().__iter__()


def counting_rows(rows):
    read = []
    return [CountingRow(i, r, read) for i, r in enumerate(rows)], read


def test_rank_and_independent_read_no_row_past_full_rank():
    # rows 0..3 have rank 3; the rest are never read
    rows, read = counting_rows([(0, 0, 0), (2, 1, 0), (0, 3, 1), (1, 0, 4)] + [(5, -7, 9)] * 20)
    assert independent(rows) == [1, 2, 3]
    assert sorted(set(read)) == [0, 1, 2, 3]
    rows, read = counting_rows([(1, 2), (2, 4), (0, 5)] + [(1, 1)] * 20)
    assert independent(rows) == [0, 2]
    assert sorted(set(read)) == [0, 1, 2]


def test_int_rows_go_in_as_they_are(monkeypatch):
    # an all-int row reaches the echelon kernel with no lcm and no rebuild,
    # and an int form reaches LLL uncleared; the echelon rows are lists of
    # the kernel's own, not the rows given
    rows = [(2, 4, 1), [1, 3, 5], (0, 0, 7)]
    monkeypatch.setattr(core, "lcm", lambda *a: pytest.fail("lcm of an int row"))
    monkeypatch.setattr(core, "clear_denominators", lambda v: pytest.fail("int form cleared"))
    basis, pivots = core.echelon(rows, 3)
    assert all(type(r) is list for r in basis) and not any(r is row for r in basis for row in rows)
    assert pivots == [0, 1, 2] and determinant(rows) == 14
    assert lattice_span(rows, 3) == (3, False) and independent(rows) == [0, 1, 2]
    assert core.greedy_span(rows + [(0, 1, 0), (1, 0, 0)], 3) == ([0, 1, 2], True)
    assert lll_reduce([[2, 1], [1, 2]]) == [(1, 0), (0, 1)]


def test_lattice_span_eliminates_no_row_past_unit_pivots(monkeypatch):
    # (2, 0) and (0, 1) have rank 2 but index 2; (1, 3) makes the pivots
    # units, so (7, 7) and later rows are only checked to be integral
    inserted = []
    real = core._insert
    monkeypatch.setattr(core, "_insert", lambda b, p, row: inserted.append(row) or real(b, p, row))
    assert lattice_span([(2, 0), (0, 1), (1, 3)] + [(7, 7)] * 20, 2) == (2, True)
    assert len(inserted) == 3
    assert lattice_span([(2, 0), (0, 1), (1, 3)] + [(7, 7)] * 20 + [(Fraction(1, 2), 0)], 2) == (2, False)
    inserted.clear()
    # after a non-integral row the answer is False, decided at rank 2
    assert lattice_span([(Fraction(1, 2), 0), (0, 2)] + [(1, 0)] * 20, 2) == (2, False)
    assert len(inserted) == 2


def test_wrong_row_length_past_the_early_exit():
    full = [(1, 0), (0, 1)]
    for bad in ((1, 0, 0), (1,), ()):
        with pytest.raises(DimensionMismatch):
            lattice_span(full + [bad], 2)
        with pytest.raises(DimensionMismatch):
            independent(full + [bad])


# --- the cofactor kernel against the echelon kernel ------------------------------


@st.composite
def cofactor_cases(draw):
    """d - 1 integer rows in Z^d, d = 1..4, and a point x of Z^d; about half
    the time the last row is an integer combination of the others, so that
    the rows are dependent."""
    d = draw(st.integers(1, 4))
    vector = st.lists(st.integers(-6, 6), min_size=d, max_size=d)
    rows = [draw(vector) for _ in range(d - 1)]
    if rows and draw(st.booleans()):
        ks = draw(st.lists(st.integers(-2, 2), min_size=d - 2, max_size=d - 2))
        rows[-1] = [sum(k * r[j] for k, r in zip(ks, rows)) for j in range(d)]
    return rows, draw(vector)


@given(cofactor_cases())
@settings(max_examples=200, deadline=None)
def test_cofactor_normal_against_kernel_vector(case):
    rows, x = case
    d = len(x)
    n = cofactor_normal(rows)
    assert vdot(n, x) == leibniz_det(rows + [x])
    if gauss(rows, d)[0] == d - 1:
        kv = primitive(kernel_vector(rows, d))
        assert primitive(n) in (kv, tuple(-c for c in kv))
    else:
        assert n == (0,) * d


def square_matrices(entry):
    """d x d matrices, d = 5..9, of entries drawn from ``entry``."""
    return st.integers(5, 9).flatmap(
        lambda d: st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))


@given(square_matrices(st.integers(-4, 4)))
@settings(max_examples=60, deadline=None)
def test_cofactor_normal_in_higher_dimension(m):
    # beyond d = 4 the kernel is checked against Gaussian elimination in Fractions
    rows, x = m[:-1], m[-1]
    d = len(x)
    n = cofactor_normal(rows)
    assert vdot(n, x) == gauss(m, d)[1]
    assert all(vdot(n, r) == 0 for r in rows)
    assert any(n) == (gauss(rows, d)[0] == d - 1)


@given(square_matrices(st.one_of(
    st.sampled_from((0, 0, 1, -1)), st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=5))))
@settings(max_examples=60, deadline=None)
def test_determinant_in_higher_dimension(m):
    det = determinant(m)
    assert det == gauss(m, len(m))[1]
    if all(Fraction(c).denominator == 1 for row in m for c in row):
        assert type(det) is int


def test_cofactor_normal_examples():
    assert cofactor_normal([]) == (1,)
    assert cofactor_normal([(3, 5)]) == (-5, 3)
    assert cofactor_normal([(1, 0, 0), (0, 1, 0)]) == (0, 0, 1)
    assert cofactor_normal([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]) == (0, 0, 0, 1)
    # a zero leading column puts the one column without a pivot first
    assert cofactor_normal([(0, 2, 1), (0, 1, 3)]) == (5, 0, 0)
    assert cofactor_normal([(0, 1, 0), (0, 0, 1)]) == (1, 0, 0)
    assert cofactor_normal([(0, 1, 0), (0, 2, 0)]) == (0, 0, 0)
    # d = 30 in O(d^3): the standard basis vectors without e_j give +-e_j
    for j in (0, 17, 29):
        rows = [tuple(int(i == k) for k in range(30)) for i in range(30) if i != j]
        assert cofactor_normal(rows) == tuple((-1) ** (29 - j) * int(k == j) for k in range(30))
    for rows in ([(1, 2), (3, 4)], [(1, 2, 3), (4, 5)]):
        with pytest.raises(DimensionMismatch):
            cofactor_normal(rows)


def test_cofactor_normal_elimination_examples():
    # d = 4 takes the elimination; the values are det(rows; e_i) by Leibniz
    assert cofactor_normal([(0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0)]) == (-1, 0, 0, 0)
    assert cofactor_normal([(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0)]) == (0, 0, 0, -1)
    # a zero leading column puts the one column without a pivot first
    assert cofactor_normal([(0, 2, 1, 0), (0, 1, 3, 0), (0, 0, 0, 1)]) == (-5, 0, 0, 0)
    assert cofactor_normal([(0, 0, 2, 1), (0, 0, 1, 3), (1, 1, 0, 0)]) == (-5, 5, 0, 0)
    # a free column in the middle
    assert cofactor_normal([(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]) == (0, 1, 0, 0)
    # dependent rows leave a second column without a pivot, at once or once a
    # row is cleared to zero
    assert cofactor_normal([(0, 1, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0)]) == (0, 0, 0, 0)
    assert cofactor_normal([(1, 2, 3, 4), (2, 4, 6, 8), (0, 0, 1, 1)]) == (0, 0, 0, 0)


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
    inv_cols = [solve_linear(B, [int(i == j) for i in range(d)]) for j in range(d)]
    assert all(c.denominator == 1 for col in inv_cols for c in col)
    assert [[sum(a * b for a, b in zip(row, col)) for col in inv_cols] for row in B] == [
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


@given(positive_definite_forms(), st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_lll_invariant_under_positive_scaling(gram, c):
    # what lets the minima run LLL on an integer multiple of their Gram form
    B = lll_reduce(gram)
    assert lll_reduce([[c * g for g in row] for row in gram]) == B
    m = lcm(*(g.denominator for row in gram for g in row))
    integer = [[g.numerator * (m // g.denominator) for g in row] for row in gram]
    assert all(type(g) is int for row in integer for g in row)
    assert lll_reduce(integer) == B


@st.composite
def large_integer_forms(draw):
    """A^T D A for a random nonsingular A with entries in [-250, 250] and
    integer weights 1..4, so entries up to 10^6."""
    d = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.integers(-250, 250), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    assume(determinant(rows) != 0)
    weights = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    return [[sum(rows[k][i] * weights[k] * rows[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)]


@given(st.one_of(positive_definite_forms(), large_integer_forms()), st.integers(1, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_integral_lll_matches_rational_reference(gram, c):
    # the same decisions on ints as the rational LLL on Fractions, on the
    # form and on an integer multiple of it
    B = rational_lll_reduce(gram)
    assert lll_reduce(gram) == B
    assert lll_reduce([[c * g for g in row] for row in gram]) == B


def test_integral_lll_rounds_ties_half_to_even():
    # mu = 5/2, -3/2 and 7/2 round to 2, -2 and 4, as round() does a
    # Fraction; the 3-D form has the tie mu_20 = 5/2, reduced against a row
    # that is not the one before
    forms = [[[2, 5], [5, 100]], [[2, -3], [-3, 100]], [[2, 7], [7, 200]],
             [[2, 0, 5], [0, 1000, 0], [5, 0, 1000]]]
    bases = [lll_reduce(g) for g in forms]
    assert bases == [rational_lll_reduce(g) for g in forms]
    assert bases[:3] == [[(1, 0), (-2, 1)], [(1, 0), (2, 1)], [(1, 0), (-4, 1)]]
    assert bases[3] == [(1, 0, 0), (0, 1, 0), (-2, 0, 1)]


def test_integral_lll_builds_no_fraction():
    forms = [g for g in pinned_forms() if all(type(x) is int for row in g for x in row)]
    assert len(forms) >= 180
    expect = [rational_lll_reduce(g) for g in forms]
    with counted_fractions() as made:
        bases = [lll_reduce(g) for g in forms]
    assert made.count == 0
    assert bases == expect


def test_lll_refuses_a_form_that_is_not_positive_definite():
    for gram in ([[1, 2], [2, 1]], [[0, 0], [0, 1]], [[-1]], [[1, 0, 0], [0, 1, 0], [0, 0, 0]]):
        with pytest.raises(InvalidInput):
            lll_reduce(gram)


def pinned_forms():
    """The Gram forms that the minima of P - P and of its polar reduce, over
    one row of each +- pair of their dual vertices, for the minkowski
    instances at seed 0, then 300 forms A^T D A with entries of A in
    [-1000, 1000]."""
    for d, bound in ((2, 4), (3, 4), (4, 3)):
        cfg = SuiteConfig("minkowski", 0, 30, d, bound)
        for i in range(cfg.count):
            K = difference_body(generate_instance(cfg, i))
            for body in (K, polar(K)):
                _, W = body.dual_vertices
                yield _form(d, [w for w in W if w > (0,) * d])
    for i in range(300):
        rng = instance_stream(7, i)
        d = 1 + i % 4
        while True:
            A = [[rng.int_in(-1000, 1000) for _ in range(d)] for _ in range(d)]
            if determinant(A):
                break
        D = [Fraction(rng.int_in(1, 50), rng.int_in(1, 50)) for _ in range(d)]
        yield [[sum(A[k][r] * D[k] * A[k][c] for k in range(d)) for c in range(d)]
               for r in range(d)]


def test_lll_bases_pinned():
    # the exact bases, not only their reducedness: the digest was recorded
    # with the textbook swap update, so a change to any decision shows
    bases = [lll_reduce(g) for g in pinned_forms()]
    assert len(bases) == 480
    assert hashlib.sha256(repr(bases).encode()).hexdigest() == (
        "1e760b996c010b08718078ec4a768c78f8f5e9a49f49b82b81ce43001528392f")


def test_inverse_transpose_matches_solve_linear():
    # B^-T by cofactors against its rows z_j, the solutions of B z = e_j
    for gram in pinned_forms():
        B = lll_reduce(gram)
        d = len(B)
        expect = [solve_linear(B, [int(i == j) for i in range(d)]) for j in range(d)]
        assert inverse_transpose(B) == expect
    with pytest.raises(InternalError):
        inverse_transpose([(2, 0), (0, 1)])
