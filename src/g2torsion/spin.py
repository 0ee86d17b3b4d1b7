"""Exact spin representation of Cl(7) on the 8-dimensional real spinor space.

The gamma matrices are built as left-multiplication operators of the
octonions, using the same seven antisymmetric triples that define the
calibration 3-form in :mod:`g2torsion.g2`.  All entries are 0 or +-1, so the
representation is exact over the integers.

A form acts on one spinor (:meth:`CliffordRep.act`) by applying the gammas
to it, one sparse matvec per gamma, with no matrix built.  The Clifford
relations are checked the same way, on the basis spinors.  Matrices of forms
(:meth:`CliffordRep.operator`, products of :meth:`CliffordRep.word`) are built
only where a matrix is the object: the -7 eigenline and the selftest's
spectrum check, parallel spinors, the spinor integrability residual and the
spinor-annihilator kernel dimensions.

Sign conventions are checked on construction: the operator of the
calibration 3-form acting on spinors must have a one-dimensional eigenspace
for -7, spanned by the distinguished spinor returned by :func:`find_psi0`.
Its whole spectrum, {-7 (x1), +1 (x7)}, is checked by ``selftest``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import linalg
from .forms import Form, sort_index
from .linalg import frac

ZERO = Fraction(0)
ONE = Fraction(1)

#: Anti-symmetric triples (i, j, k) with coefficient +-1: the multiplication
#: table of imaginary octonion units and simultaneously the coefficients of
#: the calibration 3-form e_127 + e_135 - e_146 - e_236 - e_245 + e_347 + e_567.
OCTONION_TRIPLES = {
    (1, 2, 7): 1,
    (1, 3, 5): 1,
    (1, 4, 6): -1,
    (2, 3, 6): -1,
    (2, 4, 5): -1,
    (3, 4, 7): 1,
    (5, 6, 7): 1,
}

DIM_SPINOR = 8


def _structure_constant(triples, i, j, k):
    """phi_{ijk}, totally antisymmetric extension of the triple table."""
    base, sign = sort_index((i, j, k))
    return sign * triples.get(base, 0)


def _build_gammas(triples):
    """Seven 8x8 integer matrices: left multiplication by imaginary units.

    Spinor coordinates: index 0 is the real octonion unit, indices 1..7 the
    imaginary units.  L_i u_0 = u_i, L_i u_i = -u_0, L_i u_j = phi_{ijk} u_k.
    """
    gammas = []
    for i in range(1, 8):
        m = [[ZERO] * 8 for _ in range(8)]
        m[i][0] = ONE
        m[0][i] = -ONE
        for j in range(1, 8):
            if j == i:
                continue
            for k in range(1, 8):
                c = _structure_constant(triples, i, j, k)
                if c:
                    m[k][j] = frac(c)
        gammas.append(m)
    return gammas


def _clifford_relations_hold(gammas):
    """gamma_i gamma_j + gamma_j gamma_i = -2 delta_ij, checked on each basis
    spinor by applying the gammas to it, with no matrix product."""
    n = len(gammas)
    for b in range(DIM_SPINOR):
        e = [ONE if k == b else ZERO for k in range(DIM_SPINOR)]
        once = [linalg.matvec(g, e) for g in gammas]
        for i in range(n):
            for j in range(i, n):
                anti = [x + y for x, y in zip(linalg.matvec(gammas[i], once[j]),
                                              linalg.matvec(gammas[j], once[i]))]
                want = [-2 * x for x in e] if i == j else [ZERO] * DIM_SPINOR
                if anti != want:
                    return False
    return True


class CliffordRep:
    """Exact Cl(7) representation with a checked -7 eigenline of the
    calibration form."""

    def __init__(self):
        self.gammas = _build_gammas(OCTONION_TRIPLES)
        if not _clifford_relations_hold(self.gammas):
            raise RuntimeError("octonion triple table does not satisfy Clifford relations")
        # the calibration 3-form operator must have a -7 eigenline
        op = self.operator(Form(7, OCTONION_TRIPLES))
        line = linalg.eigenspace(op, frac(-7))
        if len(line) != 1:
            raise RuntimeError("3-form operator's -7 eigenspace is not a line")
        self.psi0 = _primitive(line[0])

    # ---------------- operators ----------------

    def word(self, indices):
        """Clifford product gamma_{i1} ... gamma_{ik} as an 8x8 matrix."""
        m = linalg.identity(DIM_SPINOR)
        for i in indices:
            m = linalg.matmul(m, self.gammas[i - 1])
        return m

    def operator(self, form):
        """Matrix of a form acting on spinors by Clifford multiplication.

        Each basis monomial e_I acts as the ordered product of its gammas.
        """
        acc = linalg.zeros(DIM_SPINOR, DIM_SPINOR)
        for idx, c in form.coeffs.items():
            acc = linalg.mat_add(acc, linalg.mat_scale(c, self.word(idx)))
        return acc

    def act(self, form, spinor):
        """A form acting on a spinor by Clifford multiplication, with no
        matrix built: each monomial c e_I adds c gamma_{i1}(...(gamma_{ik} psi)),
        one sparse matvec per gamma, last index first."""
        acc = [ZERO] * DIM_SPINOR
        for idx, c in form.coeffs.items():
            v = spinor
            for i in reversed(idx):
                v = linalg.matvec(self.gammas[i - 1], v)
            acc = [a + c * x for a, x in zip(acc, v)]
        return acc

    def find_psi0(self):
        """The distinguished unit-direction spinor: it spans the -7
        eigenline of the calibration form acting on spinors.

        Returned with integer-primitive coordinates, first nonzero entry
        positive.  For the standard triple table this is the real octonion
        unit (1, 0, ..., 0).
        """
        return list(self.psi0)


def _primitive(v):
    """The integer-primitive multiple of a nonzero rational vector whose
    first nonzero entry is positive, as a tuple of Fractions."""
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(Fraction(x // g) for x in ints)


@lru_cache(maxsize=1)
def standard_rep():
    return CliffordRep()
