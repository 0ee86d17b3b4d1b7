"""The explicit 5-manifold built over the conformally flat Kaehler base.

Residual budgets here rehearse the acceptance targets: the base Ricci
spectrum {0, 0, 4a^2, 4a^2} to 1e-6, the hypothesis panel to 1e-6, the
torsion norm identity and the jacobian residual to 1e-8, and the
characteristic-connection residuals to 1e-6 with visibly nonzero full
curvature.
"""

import collections
import dataclasses
import math

import numpy as np
import pytest

from g2torsion import bundle as bd
from g2torsion import coframe as co
from g2torsion.forms import basis_indices
from g2torsion.liouville import Bernstein, solve_liouville

from .util import fd_convergence_order, fd_frame

A = 0.5
SOL = solve_liouville(A)
RNG = np.random.default_rng(3)


def test_base_ricci_spectrum():
    cf = bd.kahler_coframe(SOL)
    pts = cf.sample_points(np.random.default_rng(5), 10)
    eigs = bd.kahler_ricci_eigenvalues(cf, pts)
    target = np.array([0.0, 0.0, 4 * A * A, 4 * A * A])
    assert np.max(np.abs(eigs - target)) < 1e-6
    assert bd.eigenvalue_multiplicity_gap(eigs, 4 * A * A)


HYPOTHESES = ("d_omega", "dstar_omega", "omega_wedge_omega",
              "f2_integrability", "e2_integrability", "snap_deviation",
              "ricci_deviation")
RESIDUALS = ("torsion_norm", "jacobian_residual", "d_torsion", "dstar_torsion",
             "nabla_eta", "ric_nabla", "oneill", "scal", "ricci_eigen")
#: A conclusion report that holds, for judging the hypotheses alone.
CONCLUSIONS_HOLD = bd.StromingerReport(dict.fromkeys(RESIDUALS, 0.0),
                                       np.zeros((1, 5)), 1.0, 1, True)


def test_hypothesis_panel_passes():
    cf = bd.kahler_coframe(SOL)
    pts = cf.sample_points(np.random.default_rng(5), 6)
    panel = bd.hypothesis_panel(cf, A, pts)
    assert tuple(panel) == HYPOTHESES
    for name, value in panel.items():
        assert value < 1e-6, name
    assert bd.theorem1_passed(panel, CONCLUSIONS_HOLD, 1e-6)


def test_panel_detects_wrong_scale():
    """The panel is a real check: a wrong Ricci target must fail the verdict."""
    cf = bd.kahler_coframe(SOL)
    pts = cf.sample_points(np.random.default_rng(5), 3)
    panel = bd.hypothesis_panel(cf, A + 0.2, pts)
    assert panel["ricci_deviation"] > 1e-6
    assert not bd.theorem1_passed(panel, CONCLUSIONS_HOLD, 1e-6)


def test_assemble_rejects_tampered_solution():
    """Swapping in the conformal factor of a different parameter must fail."""
    other = solve_liouville(0.3)
    tampered = dataclasses.replace(SOL, u=other.u, du=other.du)
    data = bd.assemble_N5(tampered)
    assert data.hypotheses["ricci_deviation"] > 1e-6
    report = bd.strominger_check(
        data, data.total.sample_points(np.random.default_rng(9), 10))
    assert not bd.theorem1_passed(data.hypotheses, report, 1e-6)


def test_bundle_assembly_and_potential():
    data = bd.assemble_N5(SOL)
    assert data.mu == 2 * A
    want = np.zeros(10)
    want[basis_indices(5, 3).index((1, 2, 5))] = 2 * A
    assert np.array_equal(data.torsion, want)
    assert tuple(data.hypotheses) == HYPOTHESES + ("potential_residual",)
    assert all(v < 1e-6 for v in data.hypotheses.values()), data.hypotheses
    # Q(x0) = 0 (integration starts at the left edge) and dQ/dx = 2 a x e^u
    x0 = SOL.config.x0
    assert abs(data.potential(x0)) < 1e-12
    for x in (1.2, 1.5, 1.8):
        fd = (data.potential(x + 1e-6) - data.potential(x - 1e-6)) / 2e-6
        want = 2 * A * x * math.exp(float(SOL.u(x)))
        assert abs(fd - want) < 1e-8


def test_potential_residual_reads_the_spline_not_rounding():
    """potential_residual compares the spline's own derivative with
    2 a x e^u; a +-1e-6 central difference would read ~1e-9 of rounding
    here, far above the potential's ~1e-13 error."""
    data = bd.assemble_N5(solve_liouville(0.53, n=200))
    assert 0.0 < data.hypotheses["potential_residual"] < 1e-11


@pytest.mark.parametrize("a, domain, n", [(0.0, (1.0, 2.0), 200), (0.25, (1.0, 2.0), 200),
                                          (0.53, (1.0, 2.0), 400), (0.3, (0.5, 1.7), 100)])
def test_kept_hypotheses_equal_a_fresh_measurement(a, domain, n):
    """theorem1_bundle's hypotheses, on the miss that measures the panel and
    on the hit that reuses it, are the floats assemble_N5 measures afresh:
    == on every value, since the payload's 12 digits hide a last-bit drift."""
    fresh = bd.assemble_N5(solve_liouville(a, domain, n)).hypotheses
    assert tuple(fresh) == HYPOTHESES + ("potential_residual",)
    for _ in range(2):
        kept = bd.theorem1_bundle(a, domain, n).hypotheses
        assert list(kept.items()) == list(fresh.items())
    assert bd._kept_panel.cache_info().misses == 1


def test_kept_hypotheses_are_a_fresh_dict_per_request():
    """Writing to one request's hypotheses leaves the next request's alone."""
    first = bd.theorem1_bundle(0.25, n=200)
    want = dict(first.hypotheses)
    first.hypotheses["d_omega"] = 1.0
    first.hypotheses.clear()
    assert bd.theorem1_bundle(0.25, n=200).hypotheses == want


def test_kept_panel_is_measured_on_its_own_solution(monkeypatch):
    """theorem1_bundle measures all five hypotheses once per (a, domain, n),
    on a solve of its own; it builds one potential spline per request, for
    eta, and the miss one more for its own measurement."""
    measured, splines = [], []
    hypotheses, spline = bd._hypotheses, bd._potential_spline
    monkeypatch.setattr(bd, "_hypotheses",
                        lambda *args: measured.append(args[0]) or hypotheses(*args))
    monkeypatch.setattr(bd, "_potential_spline",
                        lambda *args: splines.append(None) or spline(*args))
    requests = [bd.theorem1_bundle(0.25, n=200) for _ in range(3)]
    assert (len(measured), len(splines)) == (1, 4)
    assert all(measured[0] is not data.solution for data in requests)
    # assemble_N5 of a given solution measures its own, once
    bd.assemble_N5(SOL)
    assert (len(measured), len(splines)) == (2, 5)
    assert measured[1] is SOL


def test_potential_is_smooth_across_the_chart():
    """jacobian_residual reads Q' by a central difference of the coframe
    matrix, which a jump in Q'' would throw across a node.  At the heaviest
    key it stays within a tenth of TORSION_NORM_TOL along 2,001 x values
    through the whole chart (2.1e-10); the closed form
    Q = (u'(x0) - u')/(4a), only C^2, read about 1.1e-8 in the same central
    difference when the torsion norm took it."""
    data = bd.theorem1_bundle(0.45, (1.0, 2.0), 1600)
    points = [np.array([x, 0.1, -0.2, 0.3, 0.05]) for x in np.linspace(1.02, 1.98, 2001)]
    report = bd.strominger_check(data, points)
    assert report.residuals["jacobian_residual"] <= bd.TORSION_NORM_TOL / 10


def test_bundle_coframe_shape():
    data = bd.assemble_N5(SOL)
    p = np.array([1.5, 0.1, -0.2, 0.3, 0.0])
    m = data.total.frame(p)[0]
    assert m.shape == (5, 5)
    # row 5 is eta = ds + Q(x) dy: unit fiber leg plus the potential in dy
    assert m[4, 4] == 1.0
    assert abs(m[4, 1] - data.potential(1.5)) < 1e-12
    # rows 1..4 embed the base coframe
    base = data.base.frame(p[:4])[0]
    assert np.allclose(m[:4, :4], base)


def test_strominger_conclusions():
    data = bd.assemble_N5(SOL)
    report = bd.strominger_check(
        data, data.total.sample_points(np.random.default_rng(9), 10))
    items = report.residuals
    assert tuple(items) == RESIDUALS
    assert items["torsion_norm"] < 1e-8, items
    assert items["jacobian_residual"] < 1e-8, items
    for name in RESIDUALS[2:]:
        assert items[name] < 1e-6, (name, items[name])
    assert report.max_r_nabla > 0.01          # Ricci-flat but NOT flat
    assert report.non_flat and bd.theorem1_passed(data.hypotheses, report, 1e-6)
    mu2 = (2 * A) ** 2
    target = np.array([0.0, 0.0, mu2 / 2, mu2 / 2, mu2 / 2])
    assert np.max(np.abs(np.sort(report.ricci_eigenvalues, axis=-1) - target)) < 1e-6


def test_theorem1_verdict_holds_torsion_norm_to_its_own_bound():
    """One verdict over hypotheses and conclusions: each within tol, the
    torsion norm and the jacobian residual within their own bound, a NaN
    residual failing, and nabla non-flat."""
    hypotheses = dict.fromkeys(HYPOTHESES + ("potential_residual",), 0.0)

    def passes(non_flat=True, **change):
        report = dataclasses.replace(CONCLUSIONS_HOLD, non_flat=non_flat, residuals={
            k: change.get(k, v) for k, v in CONCLUSIONS_HOLD.residuals.items()})
        hyp = {k: change.get(k, v) for k, v in hypotheses.items()}
        return bd.theorem1_passed(hyp, report, 1e-6)

    assert passes()
    assert passes(torsion_norm=0.5 * bd.TORSION_NORM_TOL)
    assert not passes(torsion_norm=2 * bd.TORSION_NORM_TOL)
    assert passes(jacobian_residual=0.5 * bd.TORSION_NORM_TOL)
    assert not passes(jacobian_residual=2 * bd.TORSION_NORM_TOL)
    assert passes(oneill=0.5e-6)
    assert not passes(oneill=2e-6)
    assert passes(ricci_deviation=0.5e-6)
    assert not passes(ricci_deviation=2e-6)
    assert not passes(potential_residual=2e-6)
    assert not passes(scal=math.nan)
    assert not passes(snap_deviation=math.nan)
    assert not passes(non_flat=False)


def test_degenerate_case_at_zero_parameter():
    """a = 0 kills the torsion and the conformal factor (u = 0); the base

    becomes the hyperkaehler Gibbons-Hawking metric with potential V = x:
    Ricci-flat for the plain Levi-Civita connection, yet visibly curved."""
    sol0 = solve_liouville(0.0)
    data = bd.assemble_N5(sol0)
    assert not data.torsion.any()
    report = bd.strominger_check(
        data, data.total.sample_points(np.random.default_rng(9), 10))
    assert max(report.residuals.values()) < 1e-6
    assert max(data.hypotheses.values()) < 1e-6
    assert np.max(np.abs(report.ricci_eigenvalues)) < 1e-7
    assert report.max_r_nabla > 0.01
    assert report.non_flat


@pytest.mark.parametrize("a", [0.0, 0.25, 0.5])
def test_closed_form_jacobians_match_central_differences(a):
    """The hand-written jacobians of the Kaehler and N^5 frames against a
    central difference of their matrices: second order, and within 1e-7 at
    h = 1e-4 (about 3e-8 at a = 1/2)."""
    data = bd.assemble_N5(solve_liouville(a))
    for cf in (data.base, data.total):
        fd = fd_frame(lambda q, cf=cf: cf.frame(q)[0], cf.n, 1e-4)
        for p in cf.sample_points(np.random.default_rng(19), 5):
            assert 1.9 < fd_convergence_order(cf, p) < 2.1
            assert np.max(np.abs(fd(p)[1] - cf.frame(p)[1])) < 1e-7


def scale_potential(a, j):
    a[..., 4, 1] *= 1.001          # Q in A only, its jacobian left alone


def scale_potential_jacobian(a, j):
    j[..., 4, 1, 0] *= 1.002       # dQ/dx in J only


@pytest.mark.parametrize("edit, caught_by", [
    (scale_potential, ("jacobian_residual",)),
    (scale_potential_jacobian, ("torsion_norm", "jacobian_residual")),
], ids=["Q", "J410"])
def test_frame_whose_matrix_and_jacobian_disagree_fails(edit, caught_by):
    """d of the frame forms reads the structure functions, hence J alone, so
    a frame whose A and J disagree must fail through jacobian_residual (and
    a wrong J through the torsion norm too), even at a loose tolerance."""
    data = bd.assemble_N5(SOL)

    def frame(p):
        a, j = data.total.frame(p)
        edit(a, j)
        return a, j

    broken = dataclasses.replace(data, total=dataclasses.replace(data.total, frame=frame))
    points = data.total.sample_points(np.random.default_rng(9), 10)
    report = bd.strominger_check(broken, points)
    over = [k for k, v in report.residuals.items() if v > bd.TORSION_NORM_TOL]
    assert set(over) >= set(caught_by), report.residuals
    assert not bd.theorem1_passed(data.hypotheses, report, 1e-2)
    assert bd.theorem1_passed(data.hypotheses, bd.strominger_check(data, points), 1e-2)


def test_one_frame_evaluation_per_stencil(monkeypatch):
    """strominger_check over one chunk of 16 points evaluates the quintic u
    at most twice (e^{u/2} in the base frame, e^u in the potential's
    derivative) and u' once, and libm's exp at most twice."""
    data = bd.assemble_N5(SOL)
    points = data.total.sample_points(np.random.default_rng(21), co.CHUNK)
    calls, exps = collections.Counter(), collections.Counter()
    evaluate, libm = Bernstein.__call__, bd.libm

    def counting_evaluate(self, x):
        calls[self] += 1
        return evaluate(self, x)

    def counting_libm(fn, x):
        exps[fn] += 1
        return libm(fn, x)

    monkeypatch.setattr(Bernstein, "__call__", counting_evaluate)
    monkeypatch.setattr(bd, "libm", counting_libm)
    bd.strominger_check(data, points)
    assert calls[SOL.u] <= 2
    assert calls[SOL.du] == 1
    assert exps[math.exp] <= 2
