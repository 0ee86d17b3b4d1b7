"""Exact linear algebra against sympy as an independent oracle.

Characteristic polynomials, spectrum checks (against the linear factors
of sympy's factorization over Q), kernels, affine solution sets and span
tests are compared on seeded random small rational matrices.  sympy is a test-only dependency; without it the module skips.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from g2torsion import linalg

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
SEEDS = range(40)


def random_matrix(rng, rows, cols):
    """Small rationals, about a third of them zero so that ranks drop."""
    return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.65
             else Fraction(0) for _ in range(cols)] for _ in range(rows)]


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in m])


def to_fraction(q):
    q = sympy.Rational(q)
    return Fraction(int(q.p), int(q.q))


def sympy_spectrum(coeffs):
    """({root: multiplicity}, split) from sympy's factorization over Q."""
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs],
                      X, domain="QQ")
    roots, split = {}, True
    for factor, mult in poly.factor_list()[1]:
        if factor.degree() == 1:
            a, b = factor.all_coeffs()
            roots[to_fraction(-b / a)] = mult
        else:
            split = False
    return roots, split


def wrong_spectra(spectrum):
    """Spectra of the same total multiplicity that differ from `spectrum`:
    each value shifted by 1/2, and one multiplicity moved from each value to
    each other one.  Either changes the sum of the eigenvalues."""
    for lam in spectrum:
        shifted = Counter()
        for v, m in spectrum.items():
            shifted[v + Fraction(1, 2) if v == lam else v] += m
        yield dict(shifted)
        for other in spectrum:
            if other != lam:
                moved = Counter(spectrum)
                moved[lam] -= 1
                moved[other] += 1
                yield {v: m for v, m in moved.items() if m}


def companion(coeffs):
    """Companion matrix of a monic polynomial [1, c1, ..., cn]: its
    characteristic polynomial is that polynomial."""
    n = len(coeffs) - 1
    return [[Fraction(int(i == j + 1)) for j in range(n - 1)] + [-coeffs[n - i]]
            for i in range(n)]


@pytest.mark.parametrize("seed", SEEDS)
def test_charpoly_matches_sympy(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    m = random_matrix(rng, n, n)
    want = [to_fraction(c) for c in to_sympy(m).charpoly(X).all_coeffs()]
    assert linalg.charpoly(m) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_rational_roots_of_charpoly_match_sympy(seed):
    """has_spectrum accepts the rational roots that sympy factors out of the
    characteristic polynomial exactly when it splits over Q, and rejects
    every wrong spectrum of the same size."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    m = random_matrix(rng, n, n)
    spectrum, split = sympy_spectrum(linalg.charpoly(m))
    assert linalg.has_spectrum(m, spectrum) == split
    if split:
        for wrong in wrong_spectra(spectrum):
            assert not linalg.has_spectrum(m, wrong), wrong


@pytest.mark.parametrize("seed", SEEDS)
def test_rational_roots_of_built_polynomials_match_sympy(seed):
    """has_spectrum on companion matrices of products of chosen linear
    factors (repeats allowed), sometimes times x^2 + 1 or x^2 - 2, so both
    split and non-split cases occur; no spectrum over Q matches a non-split
    one."""
    rng = random.Random(seed)
    poly = sympy.Poly(1, X, domain="QQ")
    for _ in range(rng.randint(1, 4)):
        r = sympy.Rational(rng.randint(-6, 6), rng.randint(1, 4))
        poly *= sympy.Poly(X - r, X, domain="QQ")
    extra = rng.choice([None, X**2 + 1, X**2 - 2])
    if extra is not None:
        poly *= sympy.Poly(extra, X, domain="QQ")
    m = companion([to_fraction(c) for c in poly.all_coeffs()])
    spectrum, split = sympy_spectrum(linalg.charpoly(m))
    assert split == (extra is None)
    assert linalg.has_spectrum(m, spectrum) == split
    for wrong in wrong_spectra(spectrum):
        assert not linalg.has_spectrum(m, wrong), wrong


@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_matches_sympy(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 6)
    m = random_matrix(rng, rows, cols)
    ours = linalg.nullspace(m)
    theirs = to_sympy(m).nullspace()
    rank = to_sympy(m).rank()
    assert len(ours) == len(theirs) == cols - rank
    for v in ours:
        assert linalg.matvec(m, v) == [Fraction(0)] * rows
    if ours:
        ours_m = to_sympy(ours)
        theirs_m = sympy.Matrix.hstack(*theirs).T
        assert ours_m.rank() == len(ours)
        assert sympy.Matrix.vstack(ours_m, theirs_m).rank() == len(ours)


def random_combination(rng, rows, cols):
    """A random rational combination of `rows` (zero when there are none)."""
    out = [Fraction(0)] * cols
    for row in rows:
        t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        out = [x + t * y for x, y in zip(out, row)]
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_affine_matches_sympy(seed):
    """Half the right-hand sides are built in the column space, so both
    consistent and inconsistent systems occur."""
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 6)
    m = random_matrix(rng, rows, cols)
    if rng.random() < 0.5:
        b = random_combination(rng, linalg.transpose(m), rows)
    else:
        b = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rows)]
    x0, kernel = linalg.solve_affine(m, b)
    a_s = to_sympy(m)
    consistent = a_s.rank() == sympy.Matrix.hstack(a_s, to_sympy([[x] for x in b])).rank()
    assert (x0 is not None) == consistent
    if not consistent:
        assert kernel == []
        return
    assert linalg.matvec(m, x0) == b
    theirs = a_s.nullspace()
    assert len(kernel) == len(theirs)
    for v in kernel:
        assert linalg.matvec(m, v) == [Fraction(0)] * rows
    if kernel:
        ours_m = to_sympy(kernel)
        assert ours_m.rank() == len(kernel)
        assert sympy.Matrix.vstack(ours_m, sympy.Matrix.hstack(*theirs).T).rank() == len(kernel)


@pytest.mark.parametrize("seed", SEEDS)
def test_in_span_matches_sympy(seed):
    rng = random.Random(seed)
    k, n = rng.randint(0, 4), rng.randint(1, 6)
    basis = random_matrix(rng, k, n)
    if rng.random() < 0.5:
        vec = random_combination(rng, basis, n)
    else:
        vec = random_matrix(rng, 1, n)[0]
    want = (to_sympy(basis + [vec]).rank() == to_sympy(basis).rank()) if basis \
        else not any(vec)
    assert linalg.in_span(vec, basis) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_vectors_span_equal_matches_sympy(seed):
    """The second list is either random or a random recombination of the
    first, so both equal and unequal spans occur."""
    rng = random.Random(seed)
    k, n = rng.randint(0, 4), rng.randint(1, 6)
    a = random_matrix(rng, k, n)
    if rng.random() < 0.5:
        b = [random_combination(rng, a, n) for _ in range(rng.randint(0, 4))]
    else:
        b = random_matrix(rng, rng.randint(0, 4), n)

    def rank(vs):
        return to_sympy(vs).rank() if vs else 0

    want = rank(a) == rank(b) == rank(a + b)
    assert linalg.vectors_span_equal(a, b) == want
