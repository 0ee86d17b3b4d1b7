"""The numpy-only float layer against scipy as an independent oracle.

The Bernstein evaluator and the tridiagonal solve in ``liouville`` repeat
the floating-point steps of scipy's BPoly and solve_banded((1, 1), ...), so
those comparisons are bit for bit.  The solution itself is compared with
scipy's collocation solver solve_bvp, which shares no code with it.  scipy
is a test-only dependency; without it the module skips.
"""

import numpy as np
import pytest

from g2torsion.liouville import (quintic_hermite, solve_liouville,
                                 tridiagonal_solve)

interpolate = pytest.importorskip("scipy.interpolate")
integrate = pytest.importorskip("scipy.integrate")
scipy_linalg = pytest.importorskip("scipy.linalg")


def sample_points(x, seed):
    """Seeded interior points, every node, and both ends."""
    rng = np.random.default_rng(seed)
    inner = x[0] + (x[-1] - x[0]) * rng.random(400)
    return np.concatenate([inner, x, [x[0], x[-1]]])


@pytest.mark.parametrize("a, n", [(0.05, 200), (0.25, 400), (0.45, 1600)])
def test_evaluator_and_derivatives_match_bpoly(a, n):
    sol = solve_liouville(a, n=n)
    xs = sample_points(sol.u.x, n)
    for ours in (sol.u, sol.du, sol.d2u):
        ref = interpolate.BPoly(ours.c, ours.x)
        want = ref(xs)
        assert np.array_equal(ours(xs), want)                       # array path
        assert np.array_equal([ours(float(x)) for x in xs], want)   # one at a time
    bp = interpolate.BPoly(sol.u.c, sol.u.x)
    assert np.array_equal(sol.du.c, bp.derivative().c)
    assert np.array_equal(sol.d2u.c, bp.derivative(2).c)
    assert [len(p.c) - 1 for p in (sol.u, sol.du, sol.d2u)] == [5, 4, 3]


@pytest.mark.parametrize("uniform", [True, False])
def test_antiderivative_matches_bpoly(uniform):
    rng = np.random.default_rng(7)
    x = np.linspace(1.0, 2.0, 401) if uniform else 1.0 + np.cumsum(rng.random(401))
    y, dy, d2y = rng.normal(size=(3, len(x)))
    ours = quintic_hermite(x, y, dy, d2y).antiderivative()
    ref = interpolate.BPoly.from_derivatives(
        x, np.column_stack([y, dy, d2y])).antiderivative()
    assert np.array_equal(ours.c, ref.c)
    xs = sample_points(x, 8)
    assert np.array_equal(ours(xs), ref(xs))
    assert np.array_equal([ours(float(v)) for v in xs], ref(xs))


def solve_banded(lower, diag, upper, rhs):
    band = np.zeros((3, len(diag)))
    band[0, 1:], band[1], band[2, :-1] = upper, diag, lower
    return scipy_linalg.solve_banded((1, 1), band, rhs)


def newton_matrix(a, u, n):
    """(lower, diag, upper) of the solver's Numerov Newton matrix at the
    iterate u on n intervals: 1/h^2 + g[j]/12 in column j off the diagonal,
    -2/h^2 + 10 g[i]/12 on it, with g = 8 a^2 x e^u."""
    h = 1.0 / n
    x = np.linspace(1.0, 2.0, n + 1)
    g = 8.0 * a ** 2 * x * np.exp(u) / 12
    off = 1.0 / h ** 2 + g
    return off[1:-2], -2.0 / h ** 2 + 10 * g[1:-1], off[2:-1]


@pytest.mark.parametrize("a, n", [(0.25, 200), (0.25, 800), (0.45, 1600)])
def test_tridiagonal_solve_matches_solve_banded_on_newton_matrices(a, n):
    """At a = 0.45 on 1600 intervals dgtsv interchanges rows near x = 2."""
    last = solve_liouville(a, n=n).values
    rhs = np.random.default_rng(n).normal(size=n - 1)
    for u in (np.zeros(n + 1), last):                # first and last iterate
        lower, diag, upper = newton_matrix(a, u, n)
        assert not np.array_equal(lower, upper)
        got = tridiagonal_solve(lower.tolist(), diag.tolist(), upper.tolist(),
                                rhs.tolist())
        assert np.array_equal(got, solve_banded(lower, diag, upper, rhs))


def test_tridiagonal_solve_matches_solve_banded_with_row_interchanges():
    """|diag| < |lower| makes dgtsv interchange rows; the port does too."""
    rng = np.random.default_rng(3)
    for n in (2, 3, 17, 200):
        lower = 1.0 + rng.random(n - 1)
        upper, diag, rhs = rng.normal(size=(3, n))
        diag *= 0.1
        got = tridiagonal_solve(lower.tolist(), diag.tolist(),
                                upper[:-1].tolist(), rhs.tolist())
        assert np.array_equal(got, solve_banded(lower, diag, upper[:-1], rhs))


@pytest.mark.parametrize("a", [0.25, 0.45, 0.53])
@pytest.mark.parametrize("n, u_bound, du_bound", [(200, 2e-9, 6e-9),
                                                  (1600, 1e-11, 1e-10)])
def test_solution_matches_solve_bvp(a, n, u_bound, du_bound):
    """u and u' against scipy's collocation solve from a 50-node zero
    start.  The differences are 5.5e-13 to 8.6e-10 in u and at most 2.6e-9
    in u' at n = 200, and at most 3.0e-13 and 2.4e-12 at n = 1600, near
    solve_bvp's own floor of about 1e-13."""
    def rhs(x, y):
        return np.vstack([y[1], -8.0 * a * a * x * np.exp(y[0])])

    mesh = np.linspace(1.0, 2.0, 50)
    ref = integrate.solve_bvp(rhs, lambda ya, yb: np.array([ya[0], yb[0]]),
                              mesh, np.zeros((2, 50)), tol=1e-10,
                              bc_tol=1e-13, max_nodes=10000)
    assert ref.status == 0, ref.message
    xs = np.linspace(1.001, 1.999, 4001)
    want_u, want_du = ref.sol(xs)
    sol = solve_liouville(a, n=n)
    assert np.max(np.abs(sol.u(xs) - want_u)) < u_bound
    assert np.max(np.abs(sol.du(xs) - want_du)) < du_bound
