"""Boundary-value solver for u'' = -8 a^2 x e^u.

Oracles: the a = 0 case is exactly linear; for a > 0 the plugged-back ODE
residual of the packaged evaluator is checked directly on off-grid points,
and the raw discretization converges at second order.
"""

import math

import numpy as np
import pytest

from g2torsion import liouville
from g2torsion.liouville import (POLISH_BELOW, LiouvilleConfig, prolong,
                                 quintic_hermite, solve_liouville,
                                 tridiagonal_solve)

from .util import is_concave, ode_rhs, raw_solve, refinement_orders


def test_zero_parameter_solution_is_linear():
    """At a = 0 the solution is the line through the zero boundary values."""
    sol = solve_liouville(0.0, domain=(1.0, 3.0))
    xs = np.linspace(1.0, 3.0, 17)
    assert np.max(np.abs(sol.u(xs))) < 1e-12
    assert np.max(np.abs(sol.du(xs))) < 1e-10
    assert np.max(np.abs(sol.d2u(xs))) < 1e-10
    assert sol.residual_norm < 1e-12


def test_solution_meets_boundary_and_residual_cap():
    sol = solve_liouville(0.5)
    assert abs(sol.u(1.0)) < 1e-12
    assert abs(sol.u(2.0)) < 1e-12
    assert sol.residual_norm < 1e-10
    assert sol.iterations > 0


@pytest.mark.parametrize("a, n, bound", [(0.5, 400, 2e-7), (0.25, 200, 3e-8),
                                         (0.45, 1600, 5e-8), (0.53, 200, 3e-6)])
def test_evaluator_satisfies_ode_off_grid(a, n, bound):
    """u'' + 8 a^2 x e^u ~ 0 at arbitrary points, not just nodes.

    The defect measures how the Richardson correction reaches the midpoints
    of the doubled grid: with the cubic rule of prolong it is 1.2e-8 to
    1.5e-6 on these grids, carried linearly it is 25 to 350 times larger,
    and left out at the midpoints it is O(1)."""
    sol = solve_liouville(a, n=n)
    xs = np.linspace(1.0, 2.0, 4001)
    residual = sol.d2u(xs) + 8 * a * a * xs * np.exp(sol.u(xs))
    assert np.max(np.abs(residual)) < bound


def test_evaluator_derivative_consistency():
    """The packaged derivative evaluators are the actual derivatives of u."""
    sol = solve_liouville(0.5)
    xs = np.linspace(1.05, 1.95, 19)
    h = 1e-6
    fd_du = (sol.u(xs + h) - sol.u(xs - h)) / (2 * h)
    fd_d2u = (sol.du(xs + h) - sol.du(xs - h)) / (2 * h)
    assert np.max(np.abs(fd_du - sol.du(xs))) < 1e-8
    assert np.max(np.abs(fd_d2u - sol.d2u(xs))) < 1e-6


def test_solution_is_concave_for_positive_parameter():
    sol = solve_liouville(0.5)
    assert is_concave(sol)
    assert np.all(sol.u(np.linspace(1.01, 1.99, 21)) > 0.0)  # above the chord


def test_rhs_helper_matches_definition():
    a = 0.45
    sol = solve_liouville(a)
    xs = np.array([1.25, 1.5, 1.75])
    want = -8 * a * a * xs * np.exp(sol.u(xs))
    assert np.allclose(ode_rhs(sol, xs), want, rtol=0, atol=1e-13)


def test_refinement_is_second_order():
    orders = refinement_orders(0.5, grids=(25, 50, 100))
    assert all(o > 1.9 for o in orders), orders


def test_richardson_improves_raw_solution():
    ref = solve_liouville(0.5, n=1600)
    x, raw, _ = raw_solve(0.5, 50)
    rich = solve_liouville(0.5, n=50)
    err_raw = float(np.max(np.abs(raw - ref.u(x))))
    err_rich = float(np.max(np.abs(rich.values - ref.u(rich.grid))))
    assert err_rich < err_raw / 20


def test_config_validation():
    with pytest.raises(ValueError, match="x0 > 0"):
        LiouvilleConfig(a=0.5, x0=0.0)
    with pytest.raises(ValueError, match="empty domain"):
        LiouvilleConfig(a=0.5, x0=2.0, x1=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        LiouvilleConfig(a=-1.0)
    with pytest.raises(ValueError, match="coarse"):
        LiouvilleConfig(a=0.5, n=2)


def test_residual_cap_is_enforced(monkeypatch):
    """An unreachable cap raises instead of silently returning a bad solve."""
    monkeypatch.setattr(liouville, "RESIDUAL_CAP", 1e-30)
    with pytest.raises(RuntimeError, match=r"cap 1\.0e-30"):
        solve_liouville(0.5, n=8)


def test_supercritical_parameter_fails_cleanly():
    """Beyond the fold (no solution exists) the solver reports divergence

    with its own error instead of leaking overflow from the linear algebra."""
    with pytest.raises(RuntimeError, match="did not converge"):
        solve_liouville(0.7)


@pytest.mark.parametrize("nodes", [5, 3201])
@pytest.mark.parametrize("uniform", [True, False])
def test_quintic_hermite_matches_scipy_bit_for_bit(nodes, uniform):
    BPoly = pytest.importorskip("scipy.interpolate").BPoly
    rng = np.random.default_rng(nodes)
    if uniform:
        x = np.linspace(1.0, 2.0, nodes)
    else:
        x = 1.0 + np.cumsum(rng.random(nodes))
    y, dy, d2y = rng.normal(size=(3, nodes))
    poly = quintic_hermite(x, y, dy, d2y)
    ref = BPoly.from_derivatives(x, np.column_stack([y, dy, d2y]))
    assert np.array_equal(poly.c, ref.c)
    assert np.array_equal(poly.x, ref.x)


def test_newton_trace_and_richardson_correction_are_kept():
    sol = solve_liouville(0.5, n=100)
    coarse, fine = sol.trace
    # the coarse solve starts from u = 0, the fine one from the
    # prolonged coarse solution, whose residual is about 1e-3 at h = 1/200
    assert coarse[0] > 1.0 and fine[0] < 1e-2
    for trace in (coarse, fine):
        assert trace[-1] < 1e-10
        # damped steps only accept a smaller residual; the long-double
        # polish can stall at its own floor
        assert all(b < a for a, b in zip(trace, trace[1:]) if a > 1e-6)
    assert sol.residual_norm == max(coarse[-1], fine[-1])
    # the correction (u_{h/2} - u_h)/3 is O(h^2): about 1e-5 at h = 1/100
    assert 1e-8 < sol.richardson_correction < 1e-4
    _, raw, raw_trace = raw_solve(0.5, 100)
    assert raw_trace == coarse
    # the extrapolant u_h + 4 (u_{h/2} - u_h)/3 moves the raw nodes by 4 corr
    assert np.max(np.abs(sol.values - raw)) == pytest.approx(
        4 * sol.richardson_correction, rel=1e-6)


def test_damped_phase_hands_over_below_the_polish_threshold(monkeypatch):
    """Float64 Newton stops at the first residual below POLISH_BELOW instead
    of grinding on its rounding floor, and the 3200-interval solve starts
    from the 1600-interval solution: 4 tridiagonal solves for a = 0.25 (3
    coarse and 1 fine), where stepping on to the floor from two straight
    lines took 13."""
    solves = []

    def counting(*args):
        solves.append(None)
        return tridiagonal_solve(*args)

    monkeypatch.setattr(liouville, "tridiagonal_solve", counting)
    sol = solve_liouville(0.25, n=1600)
    assert len(solves) <= 4
    assert sol.residual_norm < 1e-12


@pytest.mark.parametrize("n", [4, 5, 100])
def test_prolongation_reproduces_cubics(n):
    """The doubled-grid start keeps the nodes and puts each midpoint on the
    cubic through its four nearest nodes, so any cubic is reproduced on the
    fine nodes to rounding, end intervals included."""
    rng = np.random.default_rng(n)
    x = np.linspace(1.0, 2.0, n + 1)
    fine = np.linspace(1.0, 2.0, 2 * n + 1)
    for _ in range(5):
        cubic = np.polynomial.Polynomial(rng.normal(size=4))
        got = prolong(cubic(x))
        assert np.array_equal(got[::2], cubic(x))
        assert np.max(np.abs(got - cubic(fine))) < 1e-13
    # a quartic is not: inside, its midpoint error is 9/16 h^4
    assert np.max(np.abs(prolong(x ** 4) - fine ** 4)) > 0.5 / n ** 4


@pytest.mark.parametrize("a", [0.05, 0.25, 0.45, 0.5])
@pytest.mark.parametrize("n", [50, 200, 1600])
def test_trace_leaves_float64_at_the_first_residual_below_threshold(a, n):
    """Each trace runs float64 residuals down to the first one below
    POLISH_BELOW; every later entry belongs to the polish, which takes at
    most four steps."""
    for trace in solve_liouville(a, n=n).trace:
        first = next(i for i, t in enumerate(trace) if t < POLISH_BELOW)
        assert len(trace) - (first + 1) <= 4, trace


@pytest.mark.parametrize("n", [200, 1600])
def test_fold_between_053_and_054(n):
    """The solvable range ends between a = 0.53 and 0.54 (the fold of the
    problem on [1, 2] with zero boundary values): the handoff to the polish
    neither loses the last convergent a nor lets the first divergent one
    through."""
    assert solve_liouville(0.53, n=n).residual_norm < 1e-10
    with pytest.raises(RuntimeError, match="did not converge"):
        solve_liouville(0.54, n=n)


def test_tridiagonal_solve_solves_and_fails_closed():
    # [[2, 1, 0], [1, 2, 1], [0, 1, 2]] x = [4, 8, 8] has x = [1, 2, 3]
    assert tridiagonal_solve([1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 1.0],
                             [4.0, 8.0, 8.0]) == pytest.approx([1.0, 2.0, 3.0])
    # a zero first row keeps its order and stops at the zero pivot
    assert tridiagonal_solve([0.0], [0.0, 1.0], [1.0], [1.0, 1.0]) is None
    # singular: rows 1 and 2 of [[1, 1], [1, 1]] coincide; the second pivot is 0
    assert tridiagonal_solve([1.0], [1.0, 1.0], [1.0], [1.0, 2.0]) is None
    # non-finite pivots, one met on the way and one at the end
    inf, nan = math.inf, math.nan
    assert tridiagonal_solve([1.0, 1.0], [1.0, inf, 1.0], [1.0, 1.0],
                             [1.0, 2.0, 3.0]) is None
    assert tridiagonal_solve([1.0], [1.0, nan], [1.0], [1.0, 2.0]) is None
    assert tridiagonal_solve([], [2.0], [], [1.0]) == [0.5]


def test_singular_newton_matrix_is_a_rejected_step(monkeypatch):
    """A Newton matrix with a zero pivot ends the iteration; the solver then
    reports divergence instead of raising from the linear algebra."""
    monkeypatch.setattr(liouville, "tridiagonal_solve", lambda *args: None)
    with pytest.raises(RuntimeError, match="did not converge") as err:
        solve_liouville(0.25, n=50)
    assert "after 0 iterations" in str(err.value)
