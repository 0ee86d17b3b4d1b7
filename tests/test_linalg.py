"""Exact linear algebra against independent oracles.

Determinants are cross-checked by cofactor expansion, ranks against numpy's
SVD rank on float copies, and the solvers by substituting solutions back.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from g2torsion import linalg

from .util import (dense_commutator, dense_matvec, is_orthogonal, random_rotation,
                   rational_matrix, reference_rref, vectors)

F = Fraction


def cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        sign = -1 if j % 2 else 1
        total += sign * m[0][j] * cofactor_det(minor)
    return total


@given(rational_matrix(3))
def test_det_matches_cofactor_expansion(m):
    assert linalg.det(m) == cofactor_det(m)


@given(rational_matrix(3), rational_matrix(3))
def test_det_is_multiplicative(a, b):
    assert linalg.det(linalg.matmul(a, b)) == linalg.det(a) * linalg.det(b)


@given(rational_matrix(4))
def test_rank_matches_float_rank(m):
    a = np.array([[float(x) for x in row] for row in m])
    # entries are small rationals, so the float rank is reliable at this size
    assert linalg.rank(m) == np.linalg.matrix_rank(a, tol=1e-9)


@given(rational_matrix(4))
def test_rank_nullity(m):
    kern = linalg.nullspace(m)
    assert linalg.rank(m) + len(kern) == 4
    for v in kern:
        assert all(x == 0 for x in linalg.matvec(m, v))


@given(rational_matrix(3), vectors(3))
def test_solve_substitutes_back(m, rhs):
    x, kernel = linalg.solve_affine(m, rhs)
    if x is None:
        # inconsistent is only possible for singular systems
        assert linalg.det(m) == 0
        assert kernel == []
    else:
        assert linalg.matvec(m, x) == [Fraction(v) for v in rhs]
        # the kernel read from the augmented elimination is nullspace's, entry for entry
        assert kernel == linalg.nullspace(m)


def reference_solution(a, b):
    """x0 of A x = b with free coordinates 0, read off the reference rref of
    [A | b]; None when b adds a pivot."""
    cols = len(a[0])
    r, pivots = reference_rref([row + [x] for row, x in zip(a, b)])
    if cols in pivots:
        return None
    x0 = [F(0)] * cols
    for i, pc in enumerate(pivots):
        x0[pc] = r[i][cols]
    return x0


@pytest.mark.parametrize("seed", range(30))
def test_particular_reads_each_combination_of_one_elimination(seed):
    """A x = sum_i w_i b_i read from one elimination of [A | b_1 b_2 b_3] is
    the reference solve of [A | sum_i w_i b_i], also where b_1 adds a pivot
    of its own and the weights cancel it: b_2 = b_1 + A y."""
    rng = random.Random(seed)

    def rational():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    cols = rng.randint(1, 6)
    base = [[rational() for _ in range(cols)] for _ in range(rng.randint(1, 3))]
    a = [[sum((rng.randint(-2, 2) * x for x in col), F(0)) for col in zip(*base)]
         for _ in range(rng.randint(len(base), 7))]
    y, z = [rational() for _ in range(cols)], [rational() for _ in range(cols)]
    b1 = [rational() for _ in a]
    b2 = [p + q for p, q in zip(b1, linalg.matvec(a, y))]
    b3 = linalg.matvec(a, z)
    elimination = linalg.eliminate(a, [b1, b2, b3])
    assert linalg.kernel(*elimination) == linalg.nullspace(a)
    for w in [(0, 0, 1), (1, 0, 0), (1, -1, 0), (0, 1, 0), (2, -2, F(3, 5)), (0, 0, 0),
              tuple(rational() for _ in range(3))]:
        w = [F(x) for x in w]
        rhs = [sum((wi * bi for wi, bi in zip(w, bs)), F(0)) for bs in zip(b1, b2, b3)]
        got = linalg.particular(elimination, w)
        assert got == reference_solution(a, rhs), w
        if w[0] + w[1] == 0:            # rhs in the column space of A
            assert got is not None and linalg.matvec(a, got) == rhs


def assert_rref_matches_reference(m):
    r, pivots = linalg.rref(m)
    want, want_pivots = reference_rref(m)
    assert pivots == want_pivots
    assert r == want
    assert all(type(x) is Fraction for row in r for x in row)


@pytest.mark.parametrize("m", [
    [],                                                     # no rows
    [[], []],                                               # empty rows
    [[F(1, 2), F(-3), F(0), F(5, 7), F(2)],                 # wide
     [F(4), F(1, 3), F(-1), F(0), F(6, 5)]],
    [[F(1), F(2), F(3)], [F(-1, 2), F(0), F(4)],            # tall
     [F(2), F(2), F(2)], [F(0), F(7, 3), F(-1)],
     [F(5), F(-5), F(1, 9)], [F(1), F(1), F(1)]],
    [[F(1), F(2), F(0), F(3)], [F(0), F(1), F(1), F(1)],    # rank deficient
     [F(1), F(3), F(1), F(4)], [F(2), F(4), F(0), F(6)]],
    [[F(0), F(0), F(0)], [F(0), F(3, 4), F(1)],             # zero rows
     [F(0), F(0), F(0)], [F(2), F(0), F(-1, 6)]],
    [[F(2, 3), F(1), F(-1)], [F(2, 3), F(1), F(-1)],        # duplicate rows
     [F(0), F(5), F(1)], [F(0), F(5), F(1)]],
    [[F(-3), F(1), F(2)], [F(6), F(-7, 2), F(1)],           # negative pivots
     [F(-1, 5), F(0), F(-4)]],
    [[F(0), F(0), F(-2)], [F(0), F(-5), F(1)],              # zero leading columns
     [F(0), F(3), F(3)]],
    [[F(2), F(1), F(0), F(1, 3)], [F(1, 2), F(-1), F(4), F(0)],  # square, full
     [F(0), F(3), F(1, 7), F(-2)], [F(5), F(0), F(0), F(1)]],    # rank: early stop
])
def test_rref_matches_fraction_gauss_jordan(m):
    assert_rref_matches_reference(m)


@given(st.integers(0, 6).flatmap(
    lambda c: st.lists(vectors(c), min_size=0, max_size=7)))
def test_rref_matches_reference_on_random_shapes(m):
    assert_rref_matches_reference(m)


@given(st.integers(1, 6).flatmap(
    lambda c: st.lists(vectors(c), min_size=1, max_size=3).flatmap(
        lambda base: st.lists(st.sampled_from(base + [[F(0)] * c]),
                              min_size=1, max_size=7))))
def test_rref_matches_reference_with_repeated_and_zero_rows(m):
    assert_rref_matches_reference(m)


def sparse_matrix(rng, n, density):
    """Small rationals, ints among them, each entry nonzero with the given
    probability."""
    def entry():
        if rng.random() >= density:
            return rng.choice((0, Fraction(0)))
        if rng.random() < 0.3:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    return [[entry() for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("seed", range(30))
def test_commutator_matches_dense_products(seed):
    """Entry by entry equal to matmul(a, b) - matmul(b, a), every entry a
    Fraction like the dense result's, from all-zero to full matrices."""
    rng = random.Random(seed)
    n = rng.randint(0, 8)
    density = rng.choice((0.0, 0.1, 0.3, 0.6, 1.0))
    a, b = sparse_matrix(rng, n, density), sparse_matrix(rng, n, density)
    got = linalg.commutator(a, b)
    assert got == dense_commutator(a, b)
    assert all(type(x) is Fraction for row in got for x in row)
    assert linalg.commutator(a, a) == linalg.zeros(n, n)


@pytest.mark.parametrize("seed", range(30))
def test_matvec_matches_dense_sum(seed):
    """Entry by entry equal to the dense sum from zero, every entry a
    Fraction, from all-zero to full matrices with all-zero rows among them."""
    rng = random.Random(seed)
    n = rng.randint(0, 8)
    a = sparse_matrix(rng, n, rng.choice((0.0, 0.1, 0.3, 0.6, 1.0)))
    if n:
        a[rng.randrange(n)] = [0] * n
    v = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
    got = linalg.matvec(a, v)
    assert got == dense_matvec(a, v)
    assert all(type(x) is Fraction for x in got)


def test_charpoly_companion_example():
    # companion matrix of x^3 - 2x^2 - 5x + 6 = (x-1)(x+2)(x-3)
    m = [[Fraction(0), Fraction(0), Fraction(-6)],
         [Fraction(1), Fraction(0), Fraction(5)],
         [Fraction(0), Fraction(1), Fraction(2)]]
    assert linalg.has_spectrum(m, {Fraction(1): 1, Fraction(-2): 1, Fraction(3): 1})
    assert not linalg.has_spectrum(m, {Fraction(1): 2, Fraction(3): 1})
    assert not linalg.has_spectrum(m, {Fraction(1): 1, Fraction(2): 1, Fraction(3): 1})


@given(rational_matrix(3))
def test_charpoly_at_zero_is_det_sign(m):
    coeffs = linalg.charpoly(m)
    # p(x) = det(xI - m), so p(0) = det(-m) = (-1)^3 det m
    assert coeffs[-1] == -linalg.det(m)


def test_eigenspace_symmetric_example():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
    spectrum = {Fraction(1): 1, Fraction(3): 1}
    assert linalg.has_spectrum(m, spectrum)
    for lam, mult in spectrum.items():
        space = linalg.eigenspace(m, lam)
        assert len(space) == mult
        for v in space:
            assert linalg.matvec(m, v) == [lam * x for x in v]


def test_random_rotation_is_orthogonal():
    rng = np.random.default_rng(11)
    for _ in range(5):
        q = random_rotation(5, rng)
        assert is_orthogonal(q)
        assert linalg.det(q) == 1


@given(rational_matrix(3))
def test_span_equality_reflexive(m):
    rows = [row for row in m if any(x != 0 for x in row)]
    if not rows:
        return
    scaled = [[2 * x for x in rows[0]]] + rows[1:]
    assert linalg.vectors_span_equal(rows, scaled)
    assert linalg.in_span(rows[0], rows)


def test_empty_list_spans_the_zero_subspace():
    zero = [Fraction(0), Fraction(0)]
    assert linalg.vectors_span_equal([], [zero])
    assert not linalg.vectors_span_equal([], [[Fraction(1), Fraction(0)]])
    assert linalg.in_span(zero, [])
    assert not linalg.in_span([Fraction(0), Fraction(1)], [[Fraction(1), Fraction(0)]])


def test_solve_affine_parameterizes_all_solutions():
    # x + y + z = 3 with one pinned coordinate: a 1-parameter family
    a = [[Fraction(1), Fraction(1), Fraction(1)],
         [Fraction(1), Fraction(0), Fraction(0)]]
    b = [Fraction(3), Fraction(1)]
    particular, directions = linalg.solve_affine(a, b)
    assert linalg.matvec(a, particular) == b
    assert len(directions) == 1
    for d in directions:
        assert all(x == 0 for x in linalg.matvec(a, d))


BOUND = linalg.MAX_EXPONENT


@pytest.mark.parametrize("text, want", [
    ("-3/2", Fraction(-3, 2)),
    (" 1.25 ", Fraction(5, 4)),
    (f"1e{BOUND}", Fraction(10**BOUND)),
    (f"2E-000{BOUND}", Fraction(2, 10**BOUND)),
])
def test_parse_rational_reads_decimals_up_to_the_exponent_bound(text, want):
    assert linalg.parse_rational(text) == want


@pytest.mark.parametrize("text, message", [
    (f"1e{BOUND + 1}", "exponent"),
    (f"1e-{BOUND + 1}", "exponent"),
    ("1e" + "9" * 5000, "exponent"),
    ("٣/٧", "non-ASCII"),
    ("３", "non-ASCII"),
    ("1/0", "zero denominator"),
    ("1/", "Invalid literal"),
])
def test_parse_rational_fails_closed(text, message):
    with pytest.raises(ValueError, match=message):
        linalg.parse_rational(text)
