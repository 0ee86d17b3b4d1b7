"""The standard calibration 3-form on R^7 and the 1 + 7 + 27 splitting.

The stabilizer of the 3-form acts on 3-forms with three irreducible pieces:
the line through the form itself, a 7-dimensional piece spanned by the forms
*(e_i ^ omega3), and a 27-dimensional complement.  The projections here are
computed by exact Gram-matrix solves, so the splitting is exact over Q.

This module also implements the intrinsic-torsion normal form for a
structure whose 4-form *omega3 is closed: the full torsion sits in degrees
1 + 27 of the 3-form splitting, and the scalar part is (1/7) of the
mu-coefficient defined by  mu = (1/6) <d omega3, *omega3>.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .forms import Form, basis_indices, form_to_vector
from .spin import OCTONION_TRIPLES

@lru_cache(maxsize=1)
def standard_omega3():
    """The calibration 3-form e127 + e135 - e146 - e236 - e245 + e347 + e567."""
    return Form(7, {k: Fraction(v) for k, v in OCTONION_TRIPLES.items()})


@lru_cache(maxsize=1)
def standard_omega4():
    """Hodge dual of the calibration form."""
    return standard_omega3().hodge()


@lru_cache(maxsize=1)
def lambda7_basis():
    """Basis *(e_i ^ omega3), i = 1..7, of the 7-dimensional piece."""
    w3 = standard_omega3()
    return [Form.basis(7, i).wedge(w3).hodge() for i in range(1, 8)]


@lru_cache(maxsize=1)
def lambda1_7_rows():
    """The 1 + 7 pieces as coefficient rows over basis_indices(7, 3): a
    3-form lies in the 27-dimensional piece when every row is orthogonal
    to it."""
    idx = basis_indices(7, 3)
    return [form_to_vector(b, idx) for b in [standard_omega3(), *lambda7_basis()]]


@lru_cache(maxsize=1)
def lambda27_basis():
    """A 27-dimensional exact basis of the orthocomplement of 1 + 7 pieces."""
    idx = basis_indices(7, 3)
    return [Form(7, dict(zip(idx, v))) for v in linalg.nullspace(lambda1_7_rows())]


def _project_onto(form, basis):
    """Orthogonal projection onto span(basis) via an exact Gram solve."""
    gram = [[a.inner(b) for b in basis] for a in basis]
    rhs = [b.inner(form) for b in basis]
    coeffs = linalg.solve_affine(gram, rhs)[0]
    out = Form.zero(form.n)
    for c, b in zip(coeffs, basis):
        out = out + b.scale(c)
    return out


def project3(form):
    """Split a 3-form into its (1, 7, 27) components.  Returns a dict."""
    if form.degrees() not in ([], [3]):
        raise ValueError("project3 expects a homogeneous 3-form")
    w3 = standard_omega3()
    p1 = w3.scale(form.inner(w3) / w3.norm2())
    p7 = _project_onto(form, lambda7_basis())
    p27 = form - p1 - p7
    return {1: p1, 7: p7, 27: p27}


@dataclass(frozen=True)
class TorsionDecomposition:
    """Characteristic torsion of a cocalibrated structure, split by type."""

    mu: Fraction          # (1/6) <d omega3, *omega3>
    torsion: Form         # full characteristic torsion T
    t1: Form              # scalar piece, (mu/7) omega3
    t27: Form             # traceless piece


def char_torsion(d_omega3, d_omega4=None):
    """Characteristic torsion of a cocalibrated structure from d(omega3).

    Preconditions: d_omega4 (if supplied) must vanish; d_omega3 must be a
    4-form.  The torsion is T = -*d(omega3) + mu omega3 with
    mu = (1/6) <d omega3, *omega3>, and satisfies T ^ omega3 = 0 when the
    structure really is cocalibrated of pure type.
    """
    if d_omega4 is not None and not d_omega4.is_zero():
        raise ValueError("structure is not cocalibrated: d(*omega3) != 0")
    if d_omega3.degrees() not in ([], [4]):
        raise ValueError("d(omega3) must be a 4-form")
    w3 = standard_omega3()
    w4 = standard_omega4()
    mu = d_omega3.inner(w4) / 6
    torsion = -d_omega3.hodge() + w3.scale(mu)
    t1 = w3.scale(mu / 7)
    t27 = torsion - t1
    return TorsionDecomposition(mu=mu, torsion=torsion, t1=t1, t27=t27)
