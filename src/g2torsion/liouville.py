"""Two-point boundary-value solver for the radial Liouville-type equation.

The conformal factor u of the explicit Kaehler metric, reduced to the ansatz
u = u(x), satisfies

    u'' = -8 a^2 x e^u        on [x0, x1], x0 > 0,   u(x0) = u(x1) = 0.

The central finite-difference discretization is solved in two phases: damped
float64 Newton steps carry the iterate into the quadratic region, where the
residual is below POLISH_BELOW, and Newton steps with a long-double residual
then polish it to a strict tolerance, below the ~eps/h^2 floor a float64
residual cannot beat; a solve whose residual ends above RESIDUAL_CAP raises.
The n-interval solve starts from u = 0.  A Richardson pass on a doubled grid
always follows and removes the leading O(h^2) discretization error; that
solve starts from the converged n-interval solution, prolonged to the
2n-interval grid by cubic interpolation (nested iteration), so it needs only
a step or two, and the correction, known on the coarse nodes, reaches the
fine ones through the same prolong.  The result is packaged as a C^2
quintic Hermite evaluator whose second derivative at the nodes is taken
from the ODE itself, so downstream curvature checks see a solution accurate
to ~1e-10.  quintic_hermite builds the Bernstein coefficients of such an
evaluator for all intervals in one vectorised step.

The layer needs numpy only.  The piecewise Bernstein evaluator and the
tridiagonal solve repeat the floating-point steps of scipy's BPoly and
solve_banded((1, 1), ...), so their results agree with scipy's bit for bit;
scipy is a test-time oracle only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Residual max-norm below which the damped float64 Newton phase hands the
# iterate to the long-double polish.  Below it the full step converges
# quadratically, so damping buys nothing, and float64 steps would only grind
# on the rounding floor.
POLISH_BELOW = 1e-6

# Residual max-norm at which a Newton solve stops, the cap on damped float64
# Newton steps, and the residual max-norm above which a solve fails.
NEWTON_TOL = 1e-12
MAX_ITER = 60
RESIDUAL_CAP = 1e-10


class Bernstein:
    """Piecewise polynomial in the Bernstein basis.

    On [x[i], x[i+1]] it is sum_j c[j, i] C(k, j) s^j (1 - s)^(k - j) with
    s = (x - x[i]) / (x[i+1] - x[i]); points outside [x[0], x[-1]] use the
    end pieces.  Evaluation copies scipy's evaluate_bpoly1 operation for
    operation: degree 3 in closed form, every other degree as the sum of
    comb * s**j * s1**(k - j) * c[j] with libm pow, so the values agree with
    BPoly(c, x) bit for bit.  Every argument, a scalar included, is
    evaluated in numpy.
    """

    def __init__(self, c, x):
        self.c = np.ascontiguousarray(c, dtype=float)
        self.x = np.ascontiguousarray(x, dtype=float)
        k = len(self.c) - 1
        self._combs = [1.0]
        for j in range(k):
            self._combs.append(self._combs[-1] * (1.0 * (k - j) / (j + 1.0)))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.x, x, side="right") - 1,
                    0, self.c.shape[1] - 1)
        lo = self.x[i]
        s = (x - lo) / (self.x[i + 1] - lo)
        s1 = 1.0 - s
        c = self.c[:, i]
        k = len(c) - 1
        if k == 3:
            return (c[0] * s1 * s1 * s1 + c[1] * 3.0 * s1 * s1 * s
                    + c[2] * 3.0 * s1 * s * s + c[3] * s * s * s)
        res = np.zeros_like(s)
        for j, comb in enumerate(self._combs):
            res += comb * np.float_power(s, j) * np.float_power(s1, k - j) * c[j]
        return res

    def derivative(self) -> Bernstein:
        """B' = sum_j k (c[j+1] - c[j]) / dx b_{j,k-1}, as BPoly.derivative."""
        k = len(self.c) - 1
        return Bernstein(k * np.diff(self.c, axis=0) / np.diff(self.x)[None, :],
                         self.x)

    def antiderivative(self) -> Bernstein:
        """The antiderivative that vanishes at x[0], as BPoly.antiderivative."""
        c, x = self.c, self.x
        k = len(c)
        c2 = np.zeros((k + 1, c.shape[1]))
        c2[1:] = np.cumsum(c, axis=0) / k
        c2 *= (x[1:] - x[:-1])[None, :]
        # continuity: each piece starts where the previous one ends
        c2[:, 1:] += np.cumsum(c2[k, :])[:-1]
        return Bernstein(c2, x)


def tridiagonal_solve(lower, diag, upper, rhs):
    """Solve a tridiagonal system by Thomas elimination.

    The arguments are lists of floats; lower[i] and upper[i] are the
    entries (i + 1, i) and (i, i + 1) of the matrix.  Each step is LAPACK
    dgtsv's for one right-hand side: the multiplier lower / pivot, then
    diag - m * upper, with rows i and i + 1 interchanged when
    |pivot| < |lower|, then back-substitution.  So the solution agrees with
    scipy's solve_banded((1, 1), ...) bit for bit.  Returns the solution as
    a list, or None when a pivot is zero or not finite.
    """
    rows = []                  # eliminated rows (pivot, upper, fill, rhs)
    p, u, bi = diag[0], (upper[0] if len(upper) else 0.0), rhs[0]
    for lo, d_next, b_next, u_next in zip(lower, diag[1:], rhs[1:],
                                          list(upper[1:]) + [0.0]):
        if abs(p) >= abs(lo):
            if not 0.0 < abs(p) < math.inf:
                return None
            m = lo / p
            rows.append((p, u, 0.0, bi))
            p, u, bi = d_next - m * u, u_next, b_next - m * bi
        else:                  # interchange this row and the next
            if not abs(lo) < math.inf:
                return None
            m = p / lo
            rows.append((lo, d_next, u_next, b_next))
            p, u, bi = u - m * d_next, -m * u_next, bi - m * b_next
    if not 0.0 < abs(p) < math.inf:
        return None
    x1, x2 = bi / p, 0.0
    out = [x1]
    for p, u, fill, bi in reversed(rows):
        x1, x2 = (bi - u * x1 - fill * x2) / p, x1
        out.append(x1)
    out.reverse()
    return out


@dataclass(frozen=True)
class LiouvilleConfig:
    a: float
    x0: float = 1.0
    x1: float = 2.0
    n: int = 400                  # interval count

    def __post_init__(self):
        if self.x0 <= 0:
            raise ValueError("domain must satisfy x0 > 0")
        if self.x1 <= self.x0:
            raise ValueError("empty domain")
        if self.a < 0:
            raise ValueError("parameter a must be nonnegative")
        if not math.isfinite(8.0 * self.a * self.a):
            raise ValueError(f"parameter a = {self.a!r} is out of range: "
                             "8 a^2 is not finite")
        if self.n < 4:
            raise ValueError("grid too coarse")
        # the second differences divide by h^2 on n and on 2n intervals
        width = self.x1 - self.x0
        for m in (self.n, 2 * self.n):
            h2 = (width / m) * (width / m)
            if not (0.0 < h2 < math.inf and 1.0 / h2 < math.inf):
                raise ValueError(f"domain [{self.x0!r}, {self.x1!r}] on {m} "
                                 "intervals gives a spacing h with h^2 or "
                                 "1/h^2 out of range")


@dataclass
class LiouvilleSolution:
    config: LiouvilleConfig
    grid: np.ndarray
    values: np.ndarray
    residual_norm: float          # discrete max-norm of the plugged-back ODE
    iterations: int
    u: Bernstein = field(repr=False)      # the C^2 quintic evaluator of u
    du: Bernstein = field(repr=False)     # u'
    d2u: Bernstein = field(repr=False)    # u''
    # Residual max-norm before and after each Newton step, one tuple per
    # solve: (n-interval solve, doubled-grid Richardson solve).
    trace: tuple
    richardson_correction: float  # max-norm of the correction


def _residual(u, x, h, coeff):
    """The discrete residual u'' + coeff x e^u at the nodes u on the grid x
    of spacing h (0 at the ends), in the precision of the arguments."""
    r = np.zeros_like(u)
    with np.errstate(over="ignore", invalid="ignore"):
        r[1:-1] = (u[:-2] - 2 * u[1:-1] + u[2:]) / h ** 2 \
            + coeff * x[1:-1] * np.exp(u[1:-1])
    return r


def _newton_solve(cfg: LiouvilleConfig, n: int, start=None):
    """Solve the discrete system on n intervals from the n + 1 node values
    ``start``, by default u = 0.

    Returns (grid, u, res, iters, trace), trace being the residual max-norm
    before the first and after every Newton step.

    Two phases.  Damped float64 Newton steps run until the residual is below
    POLISH_BELOW (or NEWTON_TOL, MAX_ITER, or a step the line search cannot
    make descend); then at most four Newton steps with a long-double residual
    take it to NEWTON_TOL, which a float64 residual cannot reach: second
    differences of O(1) values divided by h^2 bottom out at ~eps/h^2.  Raises
    if the final residual still exceeds RESIDUAL_CAP.  A Newton matrix with a
    zero or non-finite pivot ends either phase like a rejected step.
    """
    x = np.linspace(cfg.x0, cfg.x1, n + 1)
    h = (cfg.x1 - cfg.x0) / n
    u = np.zeros(n + 1) if start is None else np.asarray(start, dtype=float)
    coeff = 8.0 * cfg.a ** 2
    off = [1.0 / h ** 2] * (n - 2)

    def newton_step(uv, rhs):
        """Solve J step = rhs for the Newton matrix J at uv (tridiagonal,
        1/h^2 off the diagonal); None when J has a bad pivot."""
        diag = -2.0 / h ** 2 + coeff * x[1:-1] * np.exp(uv[1:-1])
        step = tridiagonal_solve(off, diag.tolist(), off, rhs.tolist())
        return None if step is None else np.array(step)

    res = _residual(u, x, h, coeff)
    norm = float(np.max(np.abs(res)))
    trace = [norm]
    iters = 0
    # phase 1: damped float64 Newton into the quadratic region
    while norm > NEWTON_TOL and norm >= POLISH_BELOW and iters < MAX_ITER:
        step = newton_step(u, -res[1:-1])
        if step is None:
            break          # no step to take: rejected like a non-descent
        lam, improved = 1.0, False
        for _ in range(30):
            trial = u.copy()
            trial[1:-1] += lam * step
            tres = _residual(trial, x, h, coeff)
            tnorm = float(np.max(np.abs(tres)))
            if np.isfinite(tnorm) and tnorm < norm:
                u, res, norm, improved = trial, tres, tnorm, True
                break
            lam *= 0.5
        if not improved:
            break          # no descent: the solve stalled
        trace.append(norm)
        iters += 1

    # phase 2: polish in extended precision.  The float64 residual plateaus
    # at ~eps/h^2; that node-level noise would be blown up by 1/h^2 again in
    # the second derivative of the interpolant, so the iterate is refined
    # with a long-double residual (the Jacobian stays float64).  Skipped when
    # the damped phase stalled far from a solution (the problem has a fold:
    # large a admits no solution and Newton cannot converge); the cap check
    # below then reports the failure.
    xl = x.astype(np.longdouble)
    ul = u.astype(np.longdouble)
    cl = np.longdouble(coeff)
    hl = np.longdouble(cfg.x1 - cfg.x0) / n

    if norm < POLISH_BELOW:
        for _ in range(4):
            rl = _residual(ul, xl, hl, cl)
            norm = float(np.max(np.abs(rl)))
            trace.append(norm)
            if norm <= NEWTON_TOL or not np.isfinite(norm):
                break
            step = newton_step(ul.astype(float), -rl[1:-1].astype(float))
            if step is None:
                break
            ul[1:-1] += step
            iters += 1
    if not np.isfinite(norm) or norm > RESIDUAL_CAP:
        raise RuntimeError(
            f"Newton did not converge: residual {norm:.3e} after {iters} "
            f"iterations (cap {RESIDUAL_CAP:.1e}); trace "
            + " -> ".join(f"{t:.2e}" for t in trace))
    return x, ul, norm, iters, tuple(trace)


def quintic_hermite(x, y, dy, d2y) -> Bernstein:
    """C^2 piecewise quintic with values y, y', y'' at the increasing nodes x.

    Computes the six Bernstein coefficients of every interval at once.  The
    arithmetic is that of BPoly.from_derivatives(x, column_stack([y, dy,
    d2y])), operation for operation (its divisions and products by 1 are
    exact and left out), so the coefficients agree bit for bit; only the
    per-interval Python loop is gone.
    """
    x = np.asarray(x, dtype=float)
    y, dy, d2y = (np.asarray(v, dtype=float) for v in (y, dy, d2y))
    h = np.diff(x)
    # libm pow, as in the scalar (xb - xa)**2 of scipy; h * h (and h ** 2 on
    # an array, which squares) differs from it in the last bit for some h
    h2 = np.float_power(h, 2)
    c = np.empty((6, len(h)))
    # walk left to right from the left node ...
    c[0] = y[:-1]
    c[1] = dy[:-1] / 5.0 * h
    c[1] -= -1.0 * c[0]
    c[2] = d2y[:-1] / 20.0 * h2
    c[2] -= c[0]
    c[2] -= -2.0 * c[1]
    # ... and right to left from the right node
    c[5] = y[1:]
    c[4] = dy[1:] / 5.0 * -1.0 * h
    c[4] -= -1.0 * c[5]
    c[3] = d2y[1:] / 20.0 * h2
    c[3] -= -2.0 * c[4]
    c[3] -= c[5]
    return Bernstein(c, x)


def prolong(u):
    """Node values on the doubled grid of a function given at the nodes of a
    uniform grid: the nodes are kept, and each midpoint takes the cubic
    through the four nearest nodes, (-1, 9, 9, -1)/16 inside and
    (5, 15, -5, 1)/16 at the two end intervals.  Exact for cubics."""
    u = np.asarray(u)
    fine = np.empty(2 * len(u) - 1, dtype=u.dtype)
    fine[::2] = u
    fine[3:-3:2] = (9 * (u[1:-2] + u[2:-1]) - (u[:-3] + u[3:])) / 16
    fine[1] = (5 * u[0] + 15 * u[1] - 5 * u[2] + u[3]) / 16
    fine[-2] = (5 * u[-1] + 15 * u[-2] - 5 * u[-3] + u[-4]) / 16
    return fine


def _fourth_order_first_derivative(x, u):
    """O(h^4) first derivative on a uniform grid (one-sided at the ends)."""
    n = len(u) - 1
    h = x[1] - x[0]
    du = np.zeros(n + 1)
    du[2:-2] = (-u[4:] + 8 * u[3:-1] - 8 * u[1:-3] + u[:-4]) / (12 * h)
    # 5-point one-sided stencils
    du[0] = (-25 * u[0] + 48 * u[1] - 36 * u[2] + 16 * u[3] - 3 * u[4]) / (12 * h)
    du[1] = (-3 * u[0] - 10 * u[1] + 18 * u[2] - 6 * u[3] + u[4]) / (12 * h)
    du[-2] = (3 * u[-1] + 10 * u[-2] - 18 * u[-3] + 6 * u[-4] - u[-5]) / (12 * h)
    du[-1] = (25 * u[-1] - 48 * u[-2] + 36 * u[-3] - 16 * u[-4] + 3 * u[-5]) / (12 * h)
    return du


def solve_liouville(a, domain=(1.0, 2.0), n=400) -> LiouvilleSolution:
    """Solve u'' = -8 a^2 x e^u with zero Dirichlet values on the domain.

    The reported residual is the max-norm of the plugged-back second-order
    discretization on the solve grid; the solver raises if it cannot be
    driven below RESIDUAL_CAP, on the solve grid and on the doubled
    Richardson grid alike.
    """
    cfg = LiouvilleConfig(a=float(a), x0=float(domain[0]), x1=float(domain[1]),
                          n=n)
    x, u, norm, iters, trace = _newton_solve(cfg, cfg.n)
    # nested iteration: the fine solve starts from the coarse solution
    fine, u2, norm2, iters2, trace2 = _newton_solve(cfg, 2 * cfg.n,
                                                    prolong(u))
    # O(h^2) error field on the coarse nodes (which sit at even positions of
    # the fine grid); it is smooth, so the same cubic midpoint rule carries
    # the Richardson correction onto all fine nodes.
    corr = ((u2[::2] - u) / np.longdouble(3)).astype(float)
    u_fine = u2 + prolong(corr)
    du = _fourth_order_first_derivative(fine, u_fine)
    d2u = -8.0 * cfg.a ** 2 * fine * np.exp(u_fine)   # ODE-consistent
    poly = quintic_hermite(fine, u_fine, du, d2u)
    dpoly = poly.derivative()
    d2poly = dpoly.derivative()
    values = u2[::2] + corr      # the extrapolant u2 + (u2 - u)/3
    return LiouvilleSolution(cfg, x, np.asarray(values, dtype=float),
                             max(norm, norm2), iters + iters2, poly, dpoly,
                             d2poly, (trace, trace2),
                             float(np.max(np.abs(corr))))
