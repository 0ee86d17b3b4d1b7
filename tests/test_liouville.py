"""Boundary-value solver for u'' = -8 a^2 x e^u.

Oracles: the a = 0 case is exactly linear; for a > 0 the plugged-back ODE
residual of the packaged evaluator is checked directly on off-grid points,
the Numerov solve converges at fourth order, and the node slopes are exact
for polynomials of degree 6.
"""

import math

import numpy as np
import pytest

from g2torsion import liouville
from g2torsion.liouville import (POLISH_BELOW, LiouvilleConfig, _node_slopes,
                                 _slope_weights, quintic_hermite,
                                 solve_liouville, tridiagonal_solve)

from .util import is_concave, ode_rhs


def test_zero_parameter_solution_is_linear():
    """At a = 0 the solution is the line through the zero boundary values."""
    sol = solve_liouville(0.0, domain=(1.0, 3.0))
    xs = np.linspace(1.0, 3.0, 17)
    assert np.max(np.abs(sol.u(xs))) < 1e-12
    assert np.max(np.abs(sol.du(xs))) < 1e-10
    assert np.max(np.abs(sol.du.derivative()(xs))) < 1e-10
    assert sol.residual_norm < 1e-12


def test_solution_meets_boundary_and_residual_cap():
    sol = solve_liouville(0.5)
    assert abs(sol.u(1.0)) < 1e-12
    assert abs(sol.u(2.0)) < 1e-12
    assert sol.residual_norm < 1e-10
    assert sol.iterations > 0


@pytest.mark.parametrize("a, n, bound", [(0.5, 400, 2e-9), (0.25, 200, 1e-10),
                                         (0.45, 1600, 3e-8), (0.53, 200, 3e-8)])
def test_evaluator_satisfies_ode_off_grid(a, n, bound):
    """u'' + 8 a^2 x e^u ~ 0 at arbitrary points, not just nodes.

    Between the nodes the defect measures the node slopes: with the
    sixth-order slopes it is 2.9e-11 to 9.7e-9 on these grids (8.5e-9 at
    n = 1600, where node rounding divided by h^2 dominates); with 5-point
    fourth-order slopes it is 1.0e-7 to 1.3e-5 at n = 200 and 400."""
    sol = solve_liouville(a, n=n)
    xs = np.linspace(1.0, 2.0, 4001)
    residual = sol.du.derivative()(xs) - ode_rhs(sol, xs)
    assert np.max(np.abs(residual)) < bound


def test_evaluator_derivative_consistency():
    """The packaged derivative evaluator is the actual derivative of u, and
    its own derivative u''."""
    sol = solve_liouville(0.5)
    xs = np.linspace(1.05, 1.95, 19)
    h = 1e-6
    fd_du = (sol.u(xs + h) - sol.u(xs - h)) / (2 * h)
    fd_d2u = (sol.du(xs + h) - sol.du(xs - h)) / (2 * h)
    assert np.max(np.abs(fd_du - sol.du(xs))) < 1e-8
    assert np.max(np.abs(fd_d2u - sol.du.derivative()(xs))) < 1e-6


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


@pytest.mark.parametrize("a", [0.25, 0.5])
def test_refinement_is_fourth_order(a):
    """Halving h divides the nodal error by 16: the observed orders against
    a 1280-interval solve are 3.999 to 4.012 (a second-order residual gives
    about 2)."""
    ref = solve_liouville(a, n=1280)
    errors = []
    for n in (10, 20, 40, 80):
        sol = solve_liouville(a, n=n)
        errors.append(float(np.max(np.abs(sol.values - ref.u(sol.grid)))))
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
    assert all(o > 3.9 for o in orders), orders


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


def test_newton_trace_is_kept():
    sol = solve_liouville(0.5, n=100)
    trace = sol.trace
    # the solve starts from u = 0, where the residual is the averaged
    # 8 a^2 x, about 4
    assert trace[0] > 1.0
    assert trace[-1] < 1e-10
    # damped steps only accept a smaller residual; the long-double polish
    # can stall at its own floor
    assert all(b < a for a, b in zip(trace, trace[1:]) if a > 1e-6)
    assert sol.residual_norm == trace[-1]
    assert sol.iterations == len(trace) - 2      # the polish re-measures once


def test_damped_phase_hands_over_below_the_polish_threshold(monkeypatch):
    """Float64 Newton stops at the first residual below POLISH_BELOW instead
    of grinding on its rounding floor: 3 tridiagonal solves for a = 0.25 on
    1600 intervals, two damped steps and one polish step."""
    solves = []

    def counting(*args):
        solves.append(None)
        return tridiagonal_solve(*args)

    monkeypatch.setattr(liouville, "tridiagonal_solve", counting)
    sol = solve_liouville(0.25, n=1600)
    assert len(solves) <= 3
    assert sol.residual_norm < 1e-12


@pytest.mark.parametrize("n", [4, 5, 6, 100])
def test_node_slopes_reproduce_sextics(n):
    """The node slopes differentiate the degree-6 interpolant through the
    7 nearest nodes (all nodes on 4 and 5 intervals), so they are exact for
    sextics to rounding, end nodes included."""
    rng = np.random.default_rng(n)
    x = np.linspace(1.0, 2.0, n + 1)
    for _ in range(5):
        p = np.polynomial.Polynomial(rng.normal(size=min(6, n) + 1))
        got = _node_slopes(p(x), 1.0 / n)
        assert np.max(np.abs(got - p.deriv()(x))) < 1e-9


def test_slope_weights_are_fornbergs():
    """Sixth-order weights times 60: one-sided at the three nodes nearest
    each end, (-1, 9, -45, 0, 45, -9, 1) inside."""
    want = np.array([[-147, 360, -450, 400, -225, 72, -10],
                     [-10, -77, 150, -100, 50, -15, 2],
                     [2, -24, -35, 80, -30, 8, -1],
                     [-1, 9, -45, 0, 45, -9, 1]])
    want = np.vstack([want, -want[2::-1, ::-1]])
    assert np.allclose(_slope_weights(7) * 60, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("a", [0.05, 0.25, 0.45, 0.5])
@pytest.mark.parametrize("n", [50, 200, 1600])
def test_trace_leaves_float64_at_the_first_residual_below_threshold(a, n):
    """Each trace runs float64 residuals down to the first one below
    POLISH_BELOW; every later entry belongs to the polish, which takes at
    most four steps."""
    trace = solve_liouville(a, n=n).trace
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
