"""Floating-point coframe calculus against exact oracles.

The dense float forms are compared with the exact rational Form class:
compound matrices and frame-to-coordinate changes with the exact pullback, wedge
and Hodge star with Form.wedge and Form.hodge.  Curvature is checked on the
flat chart and on the round 2-sphere, where Ric = (1/r^2) Id is classical.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from g2torsion import coframe as co
from g2torsion.forms import Form, basis_indices, form_to_vector

from .util import (fd_convergence_order, fd_frame, flat_coframe, forms, pullback,
                   rational_matrix, sphere_coframe)

RNG = np.random.default_rng(20240817)


def dense(form, k):
    """The degree-k part of an exact form as a float vector over basis_indices."""
    return np.array([float(c) for c in form_to_vector(form, basis_indices(form.n, k))])


# ------------------------------------------------------------ form helpers


@given(rational_matrix(4))
def test_compound_matches_exact_pullback(q):
    """C[I, J] = det q[I, J] is the e_J coefficient of the pullback of e_I."""
    qf = np.array(q, dtype=float)
    for k in range(5):
        basis = basis_indices(4, k)
        want = np.array([dense(pullback(Form.basis(4, *idx), q), k) for idx in basis])
        assert np.allclose(co.compound(qf, k), want, rtol=1e-9, atol=1e-9)


@given(rational_matrix(5), forms(5, 2), forms(5, 3))
def test_frame_to_coords_matches_exact_pullback(q, a2, a3):
    qf = np.array(q, dtype=float)
    for form, k in ((a2, 2), (a3, 3)):
        got = co.frame_to_coords(dense(form, k), qf, k)
        assert np.allclose(got, dense(pullback(form, q), k), rtol=1e-9, atol=1e-9)


@given(forms(5, 2), forms(5, 3), forms(5, 1))
def test_float_wedge_matches_exact(a, b, c):
    got = co.form_wedge(dense(a, 2), dense(b, 3), 5, 2, 3)
    assert np.allclose(got, dense(a.wedge(b), 5), rtol=0, atol=1e-12)
    got = co.form_wedge(dense(c, 1), dense(a, 2), 5, 1, 2)
    assert np.allclose(got, dense(c.wedge(a), 3), rtol=0, atol=1e-12)


@given(forms(6, 3), forms(5, 2))
def test_float_hodge_matches_exact(a, b):
    assert np.array_equal(co.form_hodge(dense(a, 3), 6, 3), dense(a.hodge(), 3))
    assert np.array_equal(co.form_hodge(dense(b, 2), 5, 2), dense(b.hodge(), 3))


def test_perm_sign_and_sort_index():
    assert co.sort_index((1, 2, 3))[1] == 1
    assert co.sort_index((2, 1, 3))[1] == -1
    assert co.sort_index((1, 1, 3))[1] == 0
    assert co.sort_index((3, 1, 2)) == ((1, 2, 3), 1)
    assert co.sort_index((2, 1)) == ((1, 2), -1)
    assert co.sort_index((2, 2)) == ((2, 2), 0)


# ------------------------------------------------------------ frame/coords


def test_frame_coords_roundtrip():
    a = RNG.normal(size=(4, 4)) + 4 * np.eye(4)
    for form, k in ((Form(4, {(1, 2): Fraction(3, 2), (2, 3): Fraction(1, 4)}), 2),
                    (Form(4, {(1, 3, 4): -2}), 3)):
        coords = co.frame_to_coords(dense(form, k), a, k)
        back = co.frame_to_coords(coords, np.linalg.inv(a), k)   # dx^J = det A^-1[J,I] f^I
        assert np.max(np.abs(back - dense(form, k))) < 1e-9


def test_frame_to_coords_on_diagonal_matrix():
    a = np.diag([2.0, 3.0, 5.0])
    out = co.frame_to_coords(np.array([1.0, 0.0, 0.0]), a, 2)    # f^1 ^ f^2
    assert np.array_equal(out, [6.0, 0.0, 0.0])


# ------------------------------------------------------------ curvature


def test_flat_chart_has_zero_curvature():
    cf = flat_coframe(3)
    for p in cf.sample_points(RNG, 4):
        rep = co.riemann_ricci(cf, p)
        assert rep.max_riemann < 1e-10
        assert rep.max_ric < 1e-10
        assert abs(rep.scal) < 1e-10


@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_sphere_ricci_is_inverse_square_radius(radius):
    cf = sphere_coframe(radius)
    want = 1.0 / radius**2
    for p in cf.sample_points(RNG, 5):
        rep = co.riemann_ricci(cf, p)
        assert np.max(np.abs(rep.ric - want * np.eye(2))) < 1e-7
        assert abs(rep.scal - 2 * want) < 1e-7
        # Gauss curvature from the full tensor: R[0,1,0,1] = K
        assert abs(rep.riemann[0, 1, 0, 1] - want) < 1e-7


def test_sphere_structure_functions():
    """df^2 = (cos/ r sin) f^1 ^ f^2 so c^2_{12} = -cot(theta)/r."""
    cf = sphere_coframe(2.0)
    p = np.array([1.1, 0.3])
    c = co.structure_functions(cf, p)
    want = -math.cos(1.1) / (2.0 * math.sin(1.1))
    assert abs(c[1, 0, 1] - want) < 1e-8
    assert abs(c[1, 1, 0] + want) < 1e-8
    assert abs(c[0].max()) < 1e-8


def test_torsion_shifts_connection_not_metricity():
    """Frame-constant skew torsion leaves Ric symmetric-part intact on flat

    charts only through the quadratic correction; here we just pin the
    torsion_ricci formula against an exact hand count."""
    ric = co.torsion_ricci(co.skew_tensor(np.array([2.0]), 3))     # 2 e123
    # T(1, i, j) nonzero for (i,j) = (2,3),(3,2): sum of squares 8, over 4
    assert np.allclose(ric, 2.0 * np.eye(3))


def test_torsion_ricci_matches_exact_module():
    from g2torsion import liegroup as lg

    exact = lg.ric_from_torsion(Form(7, {(1, 2, 7): Fraction(7)}))
    num = co.torsion_ricci(co.skew_tensor(dense(Form(7, {(1, 2, 7): 7}), 3), 7))
    assert np.allclose(num, np.array([[float(x) for x in row] for row in exact]))


def test_curvature_with_torsion_matches_invariant_oracle():
    """Flat chart + frame-constant torsion == invariant connection on the

    abelian algebra: both Riemann and Ricci agree with the exact module."""
    from g2torsion import liegroup as lg

    conn = lg.with_torsion(lg.abelian(3), Form(3, {(1, 2, 3): Fraction(2)}))
    cur = lg.curvature(conn)
    cf = flat_coframe(3)
    rep = co.riemann_ricci(cf, np.array([0.5, 0.5, 0.5]), torsion=np.array([2.0]))
    assert np.allclose(rep.ric, np.array([[float(x) for x in row] for row in cur.ric_nabla]))
    for i in range(3):
        for j in range(3):
            want = np.array([[float(x) for x in row] for row in cur.riemann[i][j]])
            assert np.allclose(rep.riemann[i, j], want)


def test_asymmetric_ricci_raises_without_torsion():
    def matrix(p):
        # garbage non-integrable coframe; a big FD step makes the Ricci
        # visibly asymmetric (needs n >= 3: in 2 dimensions skewness of the
        # curvature endomorphism forces symmetric Ricci identically)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        zero = np.zeros_like(x)
        return np.stack([
            np.stack([1.0 + 0.5 * np.sin(4 * x * y), 0.3 * y * z, 0.1 * z], -1),
            np.stack([zero, 1.0 + 0.5 * np.cos(3 * x + z), 0.2 * x * y], -1),
            np.stack([0.1 * y, zero, 1.0 + 0.4 * np.sin(2 * y)], -1),
        ], -2)

    cf = co.CoframeField(3, ((0.1, 0.9),) * 3, fd_frame(matrix, 3, 0.25), h=0.25)
    with pytest.raises(ValueError, match="asymmetry"):
        co.riemann_ricci(cf, np.array([0.5, 0.5, 0.5]))


def test_numeric_d_on_polynomial_form():
    """d(x^2 dy) = 2x dx ^ dy and d(xy dx) = -x dx ^ dy on R^2."""

    def field(p):
        x, y = p
        return np.array([x * y, x * x])

    got = co.numeric_d(field, 2, 1, np.array([0.7, -0.3]))
    assert abs(got[0] - (2 * 0.7 - 0.7)) < 1e-9


def test_numeric_d_squares_to_zero():
    """d d = 0 on quadratic 1- and 2-form fields on R^4, where central
    differences are exact up to rounding; d itself is far from zero."""

    def one_form(p):
        x, y, z, w = p
        return np.array([x * y + z * w, y * z - x * x, x * w + 2 * y * y,
                         z * x - y * w])

    def two_form(p):
        x, y, z, w = p
        return np.array([x * z, y * w, x * y, z * z, w * x, y * z])

    p = np.array([0.3, -0.7, 1.1, 0.4])
    for form_fn, k in ((one_form, 1), (two_form, 2)):
        d = co.numeric_d(form_fn, 4, k, p, 1e-3)
        assert np.max(np.abs(d)) > 0.5
        dd = co.numeric_d(lambda q: co.numeric_d(form_fn, 4, k, q, 1e-3),
                          4, k + 1, p, 1e-3)
        assert np.max(np.abs(dd)) < 1e-8


def test_fd_convergence_order_is_second_order():
    cf = sphere_coframe(1.0)
    order = fd_convergence_order(cf, np.array([1.0, 0.5]))
    assert order > 1.9
