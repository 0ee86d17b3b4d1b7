"""The batched coframe stencil against per-call references, bit for bit.

``coframe.Stencil`` samples a coframe at p and p +- h e_beta once and reads
curvature, structure functions and d from those rows.  The references in
``tests/util.py`` evaluate the coframe again for every quantity, one point
at a time.  Every result must be equal as floats, not merely close: the
float goldens compare finite-difference noise at 1e-12.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from g2torsion import bundle as bd
from g2torsion import coframe as co
from g2torsion.liouville import solve_liouville

from .util import (fd_frame, flat_coframe, reference_frame_to_coords,
                   reference_levi_civita, reference_numeric_d,
                   reference_riemann_ricci, reference_structure_functions,
                   singular_coframe, sphere_fd_coframe)

BUNDLES = {a: bd.assemble_N5(solve_liouville(a, n=200)) for a in (0.0, 0.25, 0.5)}


def frames():
    """(id, coframe, torsion 3-form or None) for the Kaehler 4-frame and the
    N^5 5-frame, the latter with and without its torsion."""
    for a, data in BUNDLES.items():
        yield f"kahler-{a}", data.base, None
        yield f"N5-{a}", data.total, None
        yield f"N5-{a}-torsion", data.total, data.torsion


FRAMES = list(frames())
PLAIN = [case[:2] for case in FRAMES if case[2] is None]


@pytest.mark.parametrize("cf, torsion", [case[1:] for case in FRAMES],
                         ids=[case[0] for case in FRAMES])
def test_curvature_equals_per_call_reference(cf, torsion):
    for p in cf.sample_points(np.random.default_rng(17), 6):
        got = co.riemann_ricci(cf, p, torsion)
        want = reference_riemann_ricci(cf, p, torsion)
        for name in ("riemann", "ric", "eigenvalues"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.symmetry_error == want.symmetry_error
        assert got.scal == want.scal
        assert np.array_equal(co.structure_functions(cf, p),
                              reference_structure_functions(cf, p))


def test_curvature_with_other_step_equals_reference():
    cf = BUNDLES[0.5].total
    for p in cf.sample_points(np.random.default_rng(4), 3):
        got = co.riemann_ricci(cf, p, BUNDLES[0.5].torsion, h=1e-3)
        want = reference_riemann_ricci(cf, p, BUNDLES[0.5].torsion, h=1e-3)
        assert np.array_equal(got.riemann, want.riemann)


def test_finite_difference_jacobian_equals_reference():
    """A frame whose jacobian is a nested finite difference of its matrix
    differentiates every stencil row by its own displaced evaluations."""
    cf = sphere_fd_coframe(1.5, 1e-4)
    for p in cf.sample_points(np.random.default_rng(8), 5):
        got, want = co.riemann_ricci(cf, p), reference_riemann_ricci(cf, p)
        assert np.array_equal(got.riemann, want.riemann)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)


@pytest.mark.parametrize("cf", [case[1] for case in PLAIN],
                         ids=[case[0] for case in PLAIN])
def test_stencil_d_equals_per_call_reference(cf):
    """d of coordinate forms read from the stencil rows, for every degree."""
    n = cf.n
    for p in cf.sample_points(np.random.default_rng(23), 4):
        for h in (1e-5, 2e-4):
            st = co.Stencil(cf, p[None], h)
            for k in range(n):
                comps = np.arange(1.0, math.comb(n, k) + 1)

                def form(q, comps=comps, k=k):
                    return co.frame_to_coords(comps, cf.frame(q)[0], k)

                want = reference_numeric_d(form, n, k, p, h)
                assert np.array_equal(st.d(co.frame_to_coords(comps, st.a, k), k)[0], want)
                assert np.array_equal(co.numeric_d(form, n, k, p, h), want)


def test_stencil_rows_are_the_displaced_points():
    p = np.array([1.3, -0.2, 0.7])
    pts = co.stencil_points(p, 1e-5)
    assert np.array_equal(pts[0], p)
    for beta in range(3):
        plus, minus = p.copy(), p.copy()
        plus[beta] += 1e-5
        minus[beta] -= 1e-5
        assert np.array_equal(pts[1 + beta], plus)
        assert np.array_equal(pts[4 + beta], minus)


def test_singular_coframe_is_rejected_at_any_row():
    """The singularity check covers the displaced rows, not only p."""
    cf = singular_coframe(0.5 + 1e-5)
    with pytest.raises(ValueError, match="singular"):
        co.Stencil(cf, np.array([[0.5, 0.5]]))


# ------------------------------------------------------------ structure functions


def dense_coframe():
    """A 3-frame with every entry of its matrix varying, for a dense
    finite-difference jacobian (no closed form)."""
    def matrix(p):
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        a = np.empty(p.shape[:-1] + (3, 3))
        for i in range(3):
            for j in range(3):
                a[..., i, j] = (i == j) * 2.0 + 0.3 * np.sin((i + 1) * x + (j + 2) * y
                                                            - (i + j + 1) * z)
        return a

    return co.CoframeField(3, ((0.1, 0.9),) * 3, fd_frame(matrix, 3, 1e-4), h=1e-4)


def contraction_cases():
    """(id, coframe) for jacobians with 5 of n^2 columns nonzero (closed-form
    Kaehler and N^5), 1 of 4 and 9 of 9 (finite differences), and none."""
    for a in (0.25, 0.5):
        yield f"kahler-{a}", BUNDLES[a].base
        yield f"N5-{a}", BUNDLES[a].total
    yield "sphere-fd", sphere_fd_coframe(1.5, 1e-4)
    yield "dense-fd", dense_coframe()
    yield "flat", flat_coframe(4)


CONTRACTIONS = list(contraction_cases())


@pytest.mark.parametrize("cf", [case[1] for case in CONTRACTIONS],
                         ids=[case[0] for case in CONTRACTIONS])
def test_structure_contraction_equals_einsum_bitwise(cf):
    """_structure sums over the jacobian's nonzero (alpha, beta) columns only;
    its structure functions equal the three-operand einsum's in every bit,
    sign bits of zeros included."""
    points = np.array(cf.sample_points(np.random.default_rng(41), co.CHUNK))
    pts = co.stencil_points(points, cf.h)
    _, e, c = co._structure(cf, pts)
    m = np.einsum("...iab,...bj,...ak->...ijk", cf.frame(pts)[1], e, e)
    want = m.swapaxes(-1, -2) - m
    assert np.array_equal(c.view(np.uint64), want.view(np.uint64))


def test_nan_coframe_row_reaches_structure_functions_and_verdict():
    """A NaN coframe matrix at one point's rows makes exactly those rows'
    structure functions NaN, although most jacobian columns are skipped,
    and the Theorem-1 verdict fails instead of raising."""
    data = BUNDLES[0.5]
    points = np.array(data.total.sample_points(np.random.default_rng(43), 3))
    bad_x = points[1, 0]

    def frame(p):
        a, jac = data.total.frame(p)
        a[p[..., 0] == bad_x] = np.nan
        return a, jac

    cf = dataclasses.replace(data.total, frame=frame)
    with np.errstate(invalid="ignore"):
        st = co.Stencil(cf, points)
        rep = bd.strominger_check(dataclasses.replace(data, total=cf), points)
    poisoned = st.c.reshape(st.c.shape[:2] + (-1,))
    hit = co.stencil_points(points, cf.h)[..., 0] == bad_x
    assert hit[1].sum() == 2 * cf.n - 1 and not hit[[0, 2]].any()
    assert np.isnan(poisoned[hit]).all()
    assert np.isfinite(poisoned[~hit]).all()
    assert np.isnan(rep.ricci_eigenvalues[1]).all()
    assert np.isfinite(rep.ricci_eigenvalues[[0, 2]]).all()
    assert math.isnan(rep.residuals["ricci_eigen"])
    assert not bd.theorem1_passed(data.hypotheses, rep, 1e-6)


# ------------------------------------------------------------ stacks of points


@pytest.mark.parametrize("count", [1, 2, 16, 17, 33])
@pytest.mark.parametrize("cf, torsion", [case[1:] for case in FRAMES],
                         ids=[case[0] for case in FRAMES])
def test_batched_stencil_equals_per_point_references(cf, torsion, count):
    """A Stencil over a stack of points, and the chunks of ``stencils``,
    give each point the per-call references' values, at a = 0 as well."""
    points = np.array(cf.sample_points(np.random.default_rng(31), count))
    t = None if torsion is None else co.skew_tensor(torsion, cf.n)
    st = co.Stencil(cf, points)
    rep = st.curvature(t)
    chunked = [s.curvature(t) for s in co.stencils(cf, points)]
    assert len(chunked) == -(-count // co.CHUNK)
    comps = [np.arange(1.0, math.comb(cf.n, k) + 1) for k in range(cf.n)]
    d = [st.d(co.frame_to_coords(comps[k], st.a, k), k) for k in range(cf.n)]
    for q, p in enumerate(points):
        want = reference_riemann_ricci(cf, p, torsion)
        for name in ("riemann", "ric", "eigenvalues"):
            assert np.array_equal(getattr(rep, name)[q], getattr(want, name)), name
        assert rep.symmetry_error[q] == want.symmetry_error
        assert rep.scal[q] == want.scal
        assert np.array_equal(st.c[q, 0], reference_structure_functions(cf, p))
        for k in range(cf.n):
            def form(x, k=k):
                return reference_frame_to_coords(comps[k], cf.frame(x)[0], k)
            assert np.array_equal(d[k][q], reference_numeric_d(form, cf.n, k, p, cf.h))
    for name in ("riemann", "ric", "eigenvalues", "scal"):
        assert np.array_equal(np.concatenate([getattr(r, name) for r in chunked]),
                              getattr(rep, name)), name


@pytest.mark.parametrize("cf", [case[1] for case in PLAIN],
                         ids=[case[0] for case in PLAIN])
def test_one_row_minors_equal_the_full_compound(cf):
    """A frame form with at most one nonzero component reads one row of
    minors; the coordinates equal components @ compound(a, k) bit for bit,
    for the zero form too, on a single matrix and on stencil stacks."""
    n = cf.n
    st = co.Stencil(cf, np.array(cf.sample_points(np.random.default_rng(5), 3)))
    for a in (st.a, st.a[0, 0], st.e[:, 0]):
        for k in range(n + 1):
            size = math.comb(n, k)
            forms = [np.zeros(size)]
            for q in range(size):
                forms.append(np.zeros(size))
                forms[-1][q] = (-1.0) ** q * (0.75 + q)
            for comps in forms:
                got = co.frame_to_coords(comps, a, k)
                assert got.shape == a.shape[:-2] + (size,)
                assert np.array_equal(got, reference_frame_to_coords(comps, a, k))


def test_singular_coframe_at_second_point_raises_the_same_message():
    cf = singular_coframe(0.5)
    points = np.array([[0.3, 0.5], [0.5, 0.5], [0.7, 0.5]])
    with pytest.raises(ValueError, match="^coframe matrix is singular at the sample point$"):
        co.Stencil(cf, points)
    chunks = co.stencils(cf, points)
    assert len(next(chunks).a) == 1     # the point before it comes first
    with pytest.raises(ValueError, match="^coframe matrix is singular at the sample point$"):
        next(chunks)
    with pytest.raises(ValueError, match="^coframe matrix is singular at the sample point$"):
        bd.kahler_ricci_eigenvalues(cf, points)


def test_errors_are_raised_for_the_first_failing_point():
    """A Ricci asymmetry at one point and a singular coframe at the next
    raise in point order, as a loop over single points meets them."""
    def matrix(p):
        # non-integrable; a big FD step makes the Ricci visibly asymmetric
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        a = np.zeros(p.shape[:-1] + (3, 3))
        a[..., 0, 0] = 1.0 + 0.5 * np.sin(4 * x * y)
        a[..., 0, 1] = 0.3 * y * z
        a[..., 1, 1] = 1.0 + 0.5 * np.cos(3 * x + z)
        a[..., 1, 2] = 0.2 * x * y
        a[..., 2, 0] = 0.1 * y * (x - 0.7)
        a[..., 2, 2] = x - 0.7          # singular on x = 0.7
        return a

    cf = co.CoframeField(3, ((0.1, 0.9),) * 3, fd_frame(matrix, 3, 0.25), h=0.25)
    asymmetric, singular = [0.3, 0.5, 0.5], [0.7, 0.5, 0.5]
    # the messages of the per-point loop this replaced
    asymmetry = re.escape("Ricci asymmetry 2.523e+00 exceeds 1.0e-06; step too "
                          "large or point too close to the domain edge")
    with pytest.raises(ValueError, match=f"^{asymmetry}$"):
        bd.kahler_ricci_eigenvalues(cf, [asymmetric, singular])
    with pytest.raises(ValueError, match="^coframe matrix is singular at the sample point$"):
        bd.kahler_ricci_eigenvalues(cf, [singular, asymmetric])
    with pytest.raises(ValueError, match=f"^{asymmetry}$"):
        bd.kahler_ricci_eigenvalues(cf, [asymmetric] * co.CHUNK + [singular])


# ------------------------------------------------------------ bundle reports


def reference_panel(cf, a, points):
    """hypothesis_panel's residuals from the per-call references, at the
    coframe's step."""
    h = cf.h
    omega_frame = bd._frame_form(4, (1, 2), 2.0 * a)
    star_frame = co.form_hodge(omega_frame, 4, 2)

    def omega_coords(p):
        return co.frame_to_coords(omega_frame, cf.frame(p)[0], 2)

    def star_coords(p):
        return co.frame_to_coords(star_frame, cf.frame(p)[0], 2)

    snap_target = np.diag([1.0, 1.0, 0.0, 0.0])
    d_omega = dstar = wedge = f2_int = e2_int = snap = ric_dev = 0.0
    for p in points:
        d_omega = max(d_omega, np.abs(reference_numeric_d(omega_coords, 4, 2, p, h)).max())
        dstar = max(dstar, np.abs(reference_numeric_d(star_coords, 4, 2, p, h)).max())
        oc = omega_coords(p)
        wedge = max(wedge, np.abs(co.form_wedge(oc, oc, 4, 2, 2)).max())
        c = reference_structure_functions(cf, p)
        f2_int = max(f2_int, max(abs(c[m, 0, 1]) for m in (2, 3)))
        e2_int = max(e2_int, max(abs(c[m, 2, 3]) for m in (0, 1)))
        rep = reference_riemann_ricci(cf, p)
        if a != 0:
            proj = bd._f2_projector(rep.ric, 4.0 * a * a)
            snap = max(snap, float(np.max(np.abs(proj - snap_target))))
        ric_dev = max(ric_dev, float(np.max(np.abs(
            rep.ric - 4.0 * a * a * snap_target))))
    return {"d_omega": d_omega, "dstar_omega": dstar, "omega_wedge_omega": wedge,
            "f2_integrability": f2_int, "e2_integrability": e2_int,
            "snap_deviation": snap, "ricci_deviation": ric_dev}


def reference_strominger(data, points, h=1e-5):
    """strominger_check's residuals, the largest |R^nabla| and the Ricci
    eigenvalue rows from the per-call references."""
    cf, a = data.total, data.a
    mu2 = 4.0 * a * a
    t_frame = data.torsion
    tt_ric = co.torsion_ricci(co.skew_tensor(t_frame, 5))
    star_t = co.form_hodge(t_frame, 5, 3)
    target = np.array([0.0, 0.0, 0.5 * mu2, 0.5 * mu2, 0.5 * mu2])
    out = dict.fromkeys(("torsion_norm", "d_torsion", "dstar_torsion", "nabla_eta",
                         "ric_nabla", "oneill", "scal", "ricci_eigen"), 0.0)
    curv = 0.0
    eig_rows = []
    for p in points:
        d_eta = reference_numeric_d(lambda q: cf.frame(q)[0][4], 5, 1, p, h)
        omega_frame = co.frame_to_coords(d_eta, np.linalg.inv(cf.frame(p)[0]), 2)
        t_num = co.form_wedge(omega_frame, bd._frame_form(5, (5,), 1.0), 5, 2, 1)
        out["torsion_norm"] = max(out["torsion_norm"], abs(t_num @ t_num - mu2))
        out["d_torsion"] = max(out["d_torsion"], np.abs(reference_numeric_d(
            lambda q: co.frame_to_coords(t_frame, cf.frame(q)[0], 3), 5, 3, p, h)).max())
        out["dstar_torsion"] = max(out["dstar_torsion"], np.abs(reference_numeric_d(
            lambda q: co.frame_to_coords(star_t, cf.frame(q)[0], 2), 5, 2, p, h)).max())
        gam = (reference_levi_civita(reference_structure_functions(cf, p))
               + 0.5 * co.skew_tensor(t_frame, 5))
        out["nabla_eta"] = max(out["nabla_eta"], float(np.max(np.abs(gam[:, 4, :]))))
        rep_nabla = reference_riemann_ricci(cf, p, t_frame, h=h)
        out["ric_nabla"] = max(out["ric_nabla"], rep_nabla.max_ric)
        curv = max(curv, rep_nabla.max_riemann)
        rep_g = reference_riemann_ricci(cf, p, h=h)
        out["oneill"] = max(out["oneill"], float(np.max(np.abs(rep_g.ric - tt_ric))))
        out["scal"] = max(out["scal"], abs(rep_g.scal - 1.5 * mu2))
        eig_rows.append(rep_g.eigenvalues)
        out["ricci_eigen"] = max(out["ricci_eigen"], float(np.max(np.abs(
            np.sort(rep_g.eigenvalues) - target))))
    return out, curv, np.array(eig_rows)


@pytest.mark.parametrize("a", sorted(BUNDLES))
@pytest.mark.parametrize("h", [1e-5, 3e-5])
def test_hypothesis_panel_equals_reference(a, h):
    """One stencil at the coframe's step serves d and curvature.  At these
    points d * Omega is rounding noise of a size that depends on h (2.8e-12
    against 9.3e-13 at a = 1/4), so reading d at another step shows."""
    cf = dataclasses.replace(BUNDLES[a].base, h=h)
    points = cf.sample_points(np.random.default_rng(2), 4)
    panel = bd.hypothesis_panel(cf, a, points)
    want = reference_panel(cf, a, points)
    assert list(panel) == list(want)
    for name, value in want.items():
        assert panel[name] == value, name


@pytest.mark.parametrize("a", sorted(BUNDLES))
def test_strominger_check_equals_reference(a):
    data = BUNDLES[a]
    points = data.total.sample_points(np.random.default_rng(13), 4)
    rep = bd.strominger_check(data, points)
    want, curv, eigs = reference_strominger(data, points)
    assert list(rep.residuals) == list(want)
    assert rep.residuals == want
    assert rep.max_r_nabla == curv
    assert np.array_equal(rep.ricci_eigenvalues, eigs)
    assert rep.points == len(points)
    assert rep.non_flat == (curv > 0.01)
