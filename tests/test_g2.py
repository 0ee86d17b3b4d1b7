"""Decomposition of 3-forms under the 14-dimensional calibration stabilizer.

Oracles: ranks of the component spaces computed by exact row reduction,
annihilation of the distinguished spinor by every 27-component basis form,
and the algebraic identities the characteristic torsion must satisfy.
"""

from fractions import Fraction

import pytest
from hypothesis import given

from g2torsion import linalg
from g2torsion.forms import Form, basis_indices, form_to_vector
from g2torsion.g2 import (
    char_torsion,
    lambda7_basis,
    lambda27_basis,
    project3,
    standard_omega3,
    standard_omega4,
)
from g2torsion.spin import standard_rep

from .util import forms

rep = standard_rep()


def _rank(basis):
    idx = basis_indices(7, 3)
    return linalg.rank([form_to_vector(b, idx) for b in basis])


def test_component_ranks_are_1_7_27():
    assert _rank([standard_omega3()]) == 1
    assert _rank(lambda7_basis()) == 7
    assert _rank(lambda27_basis()) == 27
    all_rows = [standard_omega3()] + list(lambda7_basis()) + list(lambda27_basis())
    assert _rank(all_rows) == 35


def test_27_component_annihilates_distinguished_spinor():
    """Every basis form of the 27-part kills psi0 under Clifford action."""
    psi0 = rep.find_psi0()
    for b in lambda27_basis():
        assert rep.act(b, psi0) == [Fraction(0)] * 8


def test_scalar_and_7_parts_act_by_eigenvalues_on_spinor():
    psi0 = rep.find_psi0()
    assert rep.act(standard_omega3(), psi0) == [Fraction(-7) * x for x in psi0]
    # the 7-part *(theta ^ omega3) acts on psi0 the same way -4 theta does
    for i, b in enumerate(lambda7_basis(), start=1):
        assert rep.act(b, psi0) == [Fraction(-4) * x for x in rep.act(Form.basis(7, i), psi0)]


@given(forms(7, 3))
def test_projection_recomposes_and_is_orthogonal(t):
    parts = project3(t)
    assert parts[1] + parts[7] + parts[27] == t
    assert parts[1].inner(parts[7]) == 0
    assert parts[1].inner(parts[27]) == 0
    assert parts[7].inner(parts[27]) == 0


@given(forms(7, 3))
def test_projection_is_idempotent(t):
    parts = project3(t)
    for k in (1, 7, 27):
        again = project3(parts[k])
        assert again[k] == parts[k]
        for other in (1, 7, 27):
            if other != k:
                assert again[other].is_zero()


def test_project3_rejects_wrong_degree():
    with pytest.raises(ValueError):
        project3(Form.basis(7, 1, 2))


@given(forms(7, 4))
def test_char_torsion_identities(dw3):
    """T = -*dw3 + mu w3 satisfies the two unconditional wedge identities

    whenever dw3 has no 7-part (the raw decomposition makes sense for any
    4-form input; the wedge identities need the pure cocalibrated type).
    """
    dec = char_torsion(dw3)
    assert dec.torsion == dec.t1 + dec.t27
    assert dec.t1 == standard_omega3().scale(dec.mu / 7)
    assert dec.mu == dw3.inner(standard_omega4()) / 6
    star_parts = project3(dw3.hodge())
    if star_parts[7].is_zero():
        w3 = standard_omega3()
        assert dec.torsion.wedge(w3).is_zero()
        assert (dw3.hodge() - w3.scale(dec.mu)).wedge(w3).is_zero()


def test_char_torsion_rejects_noncocalibrated():
    with pytest.raises(ValueError):
        char_torsion(Form.basis(7, 1, 2, 3, 4), d_omega4=Form.basis(7, 1, 2, 3, 4, 5))


def test_char_torsion_on_scalar_type_example():
    """dw3 = 6 w4 has mu = (1/6) * 6 * |w4|^2 = 7 and torsion T = w3."""
    dw3 = standard_omega4().scale(Fraction(6))
    dec = char_torsion(dw3)
    assert dec.mu == 7
    assert dec.torsion == standard_omega3()
    assert dec.t1 == standard_omega3()
    assert dec.t27.is_zero()
    assert dec.torsion.norm2() == 7


def test_torsion_acts_on_spinor_with_minus_mu():
    """For a pure-type example the torsion acts on psi0 by -mu."""
    # build dw3 with no 7-part: scalar part 6*w4 plus a 27-type 4-form
    b27 = lambda27_basis()[0].hodge()
    dw3 = standard_omega4().scale(Fraction(6)) + b27
    dec = char_torsion(dw3)
    psi0 = rep.find_psi0()
    assert rep.act(dec.torsion, psi0) == [-dec.mu * x for x in psi0]
