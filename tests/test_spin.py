"""Clifford representation on the 8-dimensional real spinor space.

Oracles: the defining relations e_i e_j + e_j e_i = -2 delta_ij, checked
directly on the generator matrices, the classical operator identity
T.T = |T|^2 - 2 sigma_T for 3-forms, checked as matrices, and the dense
operator matrix times the spinor for the matrix-free action.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from g2torsion import linalg
from g2torsion.forms import Form
from g2torsion.spin import (
    DIM_SPINOR, OCTONION_TRIPLES, _build_gammas, _clifford_relations_hold, standard_rep,
)
from g2torsion.g2 import standard_omega3

from .util import dense_matvec, forms, mat_sub, vectors

rep = standard_rep()


def test_generators_satisfy_clifford_relations():
    ident = linalg.identity(DIM_SPINOR)
    for i in range(1, 8):
        gi = rep.gammas[i - 1]
        for j in range(1, 8):
            gj = rep.gammas[j - 1]
            anti = linalg.mat_add(linalg.matmul(gi, gj), linalg.matmul(gj, gi))
            want = linalg.mat_scale(Fraction(-2 if i == j else 0), ident)
            assert anti == want


def test_relations_check_accepts_the_octonion_table():
    assert _clifford_relations_hold(_build_gammas(OCTONION_TRIPLES))


def test_relations_check_rejects_each_single_sign_flip():
    for triple in OCTONION_TRIPLES:
        flipped = dict(OCTONION_TRIPLES)
        flipped[triple] = -flipped[triple]
        assert not _clifford_relations_hold(_build_gammas(flipped)), triple


def test_relations_check_rejects_a_dropped_triple():
    dropped = {t: c for t, c in OCTONION_TRIPLES.items() if t != (1, 2, 7)}
    assert not _clifford_relations_hold(_build_gammas(dropped))


def test_generators_are_skew():
    for i in range(1, 8):
        g = rep.gammas[i - 1]
        assert linalg.transpose(g) == linalg.mat_scale(Fraction(-1), g)


def test_calibration_spectrum_is_minus7_plus1():
    op = rep.operator(standard_omega3())
    assert linalg.has_spectrum(op, {Fraction(-7): 1, Fraction(1): 7})
    assert not linalg.has_spectrum(op, {Fraction(-7): 2, Fraction(1): 6})
    assert not linalg.has_spectrum(op, {Fraction(7): 1, Fraction(-1): 7})


def test_distinguished_spinor_is_lowest_eigenvector():
    psi0 = rep.find_psi0()
    op = rep.operator(standard_omega3())
    assert linalg.matvec(op, psi0) == [Fraction(-7) * x for x in psi0]


def test_mutating_returned_spinor_leaves_the_cache_intact():
    from g2torsion.classifier import reference_spinors

    psi0 = rep.find_psi0()
    want = list(psi0)
    psi0[0] = Fraction(99)
    psi0.append(Fraction(1))
    assert rep.find_psi0() == want
    reference_spinors.cache_clear()
    assert list(reference_spinors()[0]) == want


def test_word_matches_operator_on_basis_forms():
    for idx in ((1, 2), (2, 5, 7), (1, 3, 5, 7)):
        form = Form.basis(7, *idx)
        assert rep.operator(form) == rep.word(idx)


@given(st.integers(0, 4).flatmap(lambda k: forms(7, k)), vectors(8))
def test_act_matches_dense_operator_times_spinor(form, psi):
    assert rep.act(form, psi) == dense_matvec(rep.operator(form), psi)


def test_basis_actions_match_dense_words():
    from g2torsion.classifier import IDX3, _basis_actions, reference_spinors

    want = {idx: [dense_matvec(rep.word(idx), list(p)) for p in reference_spinors()]
            for idx in IDX3}
    assert _basis_actions() == want


@given(forms(7, 3))
def test_square_identity_for_three_forms(t):
    """T.T = |T|^2 id - 2 sigma_T as operators on spinors."""
    op = rep.operator(t)
    squared = linalg.matmul(op, op)
    rhs = mat_sub(
        linalg.mat_scale(t.norm2(), linalg.identity(DIM_SPINOR)),
        linalg.mat_scale(Fraction(2), rep.operator(t.sigma())),
    )
    assert squared == rhs


@given(forms(7, 1), forms(7, 1))
def test_one_form_clifford_products(a, b):
    """a.b + b.a = -2 (a, b) extends the generator relations linearly."""
    ma, mb = rep.operator(a), rep.operator(b)
    anti = linalg.mat_add(linalg.matmul(ma, mb), linalg.matmul(mb, ma))
    want = linalg.mat_scale(-2 * a.inner(b), linalg.identity(DIM_SPINOR))
    assert anti == want


def test_reference_spinors_are_gamma_slot_times_psi0():
    """Psi_i = gamma_slot . Psi_0 for the slots of EIGEN_SLOTS, in label order."""
    from g2torsion.classifier import EIGEN_SLOTS, reference_spinors

    psi0 = rep.find_psi0()
    psis = reference_spinors()
    assert psis[0] == tuple(psi0)
    for psi, slot in zip(psis[1:], EIGEN_SLOTS, strict=True):
        assert psi == tuple(linalg.matvec(rep.gammas[slot - 1], psi0))
