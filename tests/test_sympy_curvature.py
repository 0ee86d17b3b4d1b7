"""Curvature of invariant connections against sympy as an independent oracle.

The inputs are the benchmark pipeline's: su(2)_lam on a seeded slot order of
each associative triple and of two other triples, at a seeded lam = +-p/q.
The structure constants are written down from the slots, the connection
matrices rebuilt from the Koszul formula with skew torsion (the
characteristic torsion when the algebra is cocalibrated, omega3 otherwise,
and a third of either), and R(e_i, e_j) = [M_i, M_j] - sum_k c^k_ij M_k,
Ric^nabla, Ric^g and Scal^g recomputed with sympy.Matrix products.  sympy
is a test-only dependency; without it the module skips.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from g2torsion import liegroup as lg
from g2torsion.g2 import char_torsion, standard_omega3, standard_omega4
from g2torsion.spin import OCTONION_TRIPLES

sympy = pytest.importorskip("sympy")
from sympy.combinatorics import Permutation  # noqa: E402

N = 7
OTHER_TRIPLES = [t for t in combinations(range(1, N + 1), 3) if t not in OCTONION_TRIPLES]


def seeded_cases(seed=3):
    """(slots, lam) for each associative triple and two other triples."""
    rng = random.Random(seed)
    out = []
    for triple in list(OCTONION_TRIPLES) + rng.sample(OTHER_TRIPLES, 2):
        slots = list(triple)
        rng.shuffle(slots)
        lam = Fraction(rng.choice((1, -1)) * rng.randint(1, 99), rng.randint(1, 9))
        out.append((tuple(slots), lam))
    return out


def rational(x):
    return sympy.Rational(x.numerator, x.denominator)


def structure_constants(slots, lam):
    """c[i][j][k] = c^k_ij (0-based) of [e_a, e_b] = lam e_c cyclically."""
    c = [[[0] * N for _ in range(N)] for _ in range(N)]
    a, b, d = (s - 1 for s in slots)
    for x, y, z in ((a, b, d), (b, d, a), (d, a, b)):
        c[x][y][z] = rational(lam)
        c[y][x][z] = -rational(lam)
    return c


def torsion_tensor(form):
    """T[i][j][k] (0-based), totally skew, from the form's coefficients."""
    t = [[[0] * N for _ in range(N)] for _ in range(N)]
    for idx, coeff in form.coeffs.items():
        for perm in permutations(range(3)):
            i, j, k = (idx[p] - 1 for p in perm)
            t[i][j][k] = Permutation(list(perm)).signature() * rational(coeff)
    return t


def connection_matrices(c, t):
    """(M_i)_lk = Gamma_ikl with Gamma_ijk = 1/2 (c^k_ij - c^i_jk + c^j_ki + T_ijk)."""
    def gamma(i, j, k):
        return sympy.Rational(1, 2) * (c[i][j][k] - c[j][k][i] + c[k][i][j] + t[i][j][k])

    return [sympy.Matrix(N, N, lambda l, k: gamma(i, k, l)) for i in range(N)]


def riemann(c, t):
    m = connection_matrices(c, t)
    r = {}
    for i in range(N):
        for j in range(N):
            curv = m[i] * m[j] - m[j] * m[i]
            for k in range(N):
                if c[i][j][k]:
                    curv -= c[i][j][k] * m[k]
            r[i, j] = curv
    return r


def ricci(r):
    """Ric(e_j, e_k) = sum_i <R(e_i, e_j) e_k, e_i>."""
    return sympy.Matrix(N, N, lambda j, k: sum(r[i, j][i, k] for i in range(N)))


def to_sympy(m):
    return sympy.Matrix([[rational(x) for x in row] for row in m])


CASES = seeded_cases()


@pytest.mark.parametrize("slots, lam", CASES,
                         ids=[f"slots{''.join(map(str, s))}-lam{lam}" for s, lam in CASES])
def test_curvature_matches_sympy(slots, lam):
    alg = lg.su2(lam, n=N, slots=slots)
    dw4 = alg.ce_d(standard_omega4())
    cocalibrated = dw4.is_zero()
    assert cocalibrated == (tuple(sorted(slots)) in OCTONION_TRIPLES)
    torsion = (char_torsion(alg.ce_d(standard_omega3()), dw4).torsion if cocalibrated
               else standard_omega3())
    c = structure_constants(slots, lam)
    ric_g = ricci(riemann(c, torsion_tensor(torsion.scale(0))))
    # the characteristic connection is flat on these algebras, so a third
    # of the torsion is checked too: that connection's curvature is not zero
    for t in (torsion, torsion.scale(Fraction(1, 3))):
        got = lg.curvature(lg.with_torsion(alg, t))
        r_nabla = riemann(c, torsion_tensor(t))
        for (i, j), want in r_nabla.items():
            assert to_sympy(got.riemann[i][j]) == want
        assert to_sympy(got.ric_nabla) == ricci(r_nabla)
        assert to_sympy(got.ric_g) == ric_g
        assert rational(got.scal_g) == ric_g.trace()
    assert any(m != sympy.zeros(N, N) for m in r_nabla.values())
