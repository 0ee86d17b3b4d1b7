"""Two-point boundary-value solver for the radial Liouville-type equation.

The conformal factor u of the explicit Kaehler metric, reduced to the ansatz
u = u(x), satisfies

    u'' = -8 a^2 x e^u        on [x0, x1], x0 > 0,   u(x0) = u(x1) = 0.

One O(h^4) solve on n intervals uses Numerov's compact three-point scheme,
(u[i-1] - 2 u[i] + u[i+1]) / h^2 + (g[i-1] + 10 g[i] + g[i+1]) / 12 = 0 with
g = 8 a^2 x e^u, whose Newton matrix is tridiagonal.  Damped float64 Newton
steps from u = 0 carry the iterate into the quadratic region, where the
residual is below POLISH_BELOW, and Newton steps with a long-double residual
then polish it below the ~eps/h^2 floor a float64 residual cannot beat; a
solve whose residual ends above RESIDUAL_CAP raises.  The result is a C^2
quintic Hermite evaluator on the same grid, from the node values,
sixth-order node slopes (7-point stencils, one-sided at the three nodes
nearest each end) and u'' at the nodes from the ODE itself, so downstream
curvature checks see a solution accurate to ~1e-10.  quintic_hermite builds
its Bernstein coefficients for all intervals in one vectorised step.

The Newton solve depends only on (a, x0, x1, n), so each process keeps the
last MEMO_SIZE of them, keyed by the frozen LiouvilleConfig: the read-only
node values, the residual, the iteration count and the residual trace.  A
failed solve is kept too, so repeating a divergent parameter raises the same
error without iterating again.  Each solve_liouville call checks the kept
residual against RESIDUAL_CAP and builds its own slopes, evaluators and
arrays from the kept nodes, so no two solutions share a writable array.

The layer needs numpy only.  The piecewise Bernstein evaluator and the
tridiagonal solve repeat the floating-point steps of scipy's BPoly and
solve_banded((1, 1), ...), so their results agree with scipy's bit for bit;
scipy is a test-time oracle only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache

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

# Newton solves kept per process: above the 64 (a, grid) keys a bundle-stream
# block cycles through; an entry holds n + 1 floats and a residual trace.
MEMO_SIZE = 128


class Bernstein:
    """Piecewise polynomial in the Bernstein basis.

    On [x[i], x[i+1]] it is sum_j c[j, i] C(k, j) s^j (1 - s)^(k - j) with
    s = (x - x[i]) / (x[i+1] - x[i]); points outside [x[0], x[-1]] use the
    end pieces.  Evaluation copies scipy's evaluate_bpoly1 operation for
    operation above degree 3 (u, u', Q and dQ/dx have degree 5, 4, 6 and 5):
    the sum of comb * s**j * s1**(k - j) * c[j] with libm pow, so the values
    agree with BPoly(c, x) bit for bit.  Every argument, a scalar included,
    is evaluated in numpy.
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
        # the second differences divide by h^2
        h = (self.x1 - self.x0) / self.n
        if not (0.0 < h * h < math.inf and 1.0 / (h * h) < math.inf):
            raise ValueError(f"domain [{self.x0!r}, {self.x1!r}] on {self.n} "
                             "intervals gives a spacing h with h^2 or 1/h^2 "
                             "out of range")


@dataclass
class LiouvilleSolution:
    config: LiouvilleConfig
    grid: np.ndarray
    values: np.ndarray
    residual_norm: float          # discrete max-norm of the plugged-back ODE
    iterations: int
    u: Bernstein = field(repr=False)      # the C^2 quintic evaluator of u
    du: Bernstein = field(repr=False)     # u'
    # Residual max-norm before the first and after every Newton step.
    trace: tuple


def _residual(u, x, h, coeff):
    """Numerov's residual of u'' + coeff x e^u at the nodes u on the grid x
    of spacing h (0 at the ends), in the precision of the arguments."""
    r = np.zeros_like(u)
    with np.errstate(over="ignore", invalid="ignore"):
        g = coeff * x * np.exp(u)
        r[1:-1] = (u[:-2] - 2 * u[1:-1] + u[2:]) / h ** 2 \
            + (g[:-2] + 10 * g[1:-1] + g[2:]) / 12
    return r


@lru_cache(maxsize=MEMO_SIZE)
def _newton_solve(cfg: LiouvilleConfig):
    """Solve Numerov's system on cfg.n intervals from u = 0.

    Returns (u, norm, iters, trace): the float64 node values (read-only),
    the final residual max-norm, the Newton step count and the residual
    max-norm before the first and after every Newton step.  A solve that
    does not converge returns too; solve_liouville judges it.

    Two phases.  Damped float64 Newton steps run until the residual is below
    POLISH_BELOW (or NEWTON_TOL, MAX_ITER, or a step the line search cannot
    make descend); then at most four Newton steps with a long-double residual
    take it to NEWTON_TOL, which a float64 residual cannot reach: second
    differences of O(1) values divided by h^2 bottom out at ~eps/h^2.  A
    Newton matrix with a zero or non-finite pivot ends either phase like a
    rejected step.
    """
    n = cfg.n
    x = np.linspace(cfg.x0, cfg.x1, n + 1)
    h = (cfg.x1 - cfg.x0) / n
    u = np.zeros(n + 1)
    coeff = 8.0 * cfg.a ** 2

    def newton_step(uv, rhs):
        """Solve J step = rhs for the Newton matrix J at uv: tridiagonal,
        -2/h^2 + 10 g[i]/12 on the diagonal and 1/h^2 + g[j]/12 in column j
        off it; None when J has a bad pivot."""
        g = coeff * x * np.exp(uv) / 12
        off = 1.0 / h ** 2 + g
        diag = -2.0 / h ** 2 + 10 * g[1:-1]
        step = tridiagonal_solve(off[1:-2].tolist(), diag.tolist(),
                                 off[2:-1].tolist(), rhs.tolist())
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
    u = ul.astype(float)
    u.flags.writeable = False      # one kept array serves every caller
    return u, norm, iters, tuple(trace)


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


@cache
def _slope_weights(m):
    """Row r: the weights w with p'(r) = sum_k w[k] p(k) for every
    polynomial p of degree below m, the derivatives at r of the Lagrange
    basis polynomials of the nodes 0..m-1, exact rationals rounded once."""
    def weight(r, k):
        others = [j for j in range(m) if j != k]
        if r == k:
            return sum(Fraction(1, k - j) for j in others)
        return Fraction(math.prod(r - j for j in others if j != r),
                        math.prod(k - j for j in others))
    w = np.array([[float(weight(r, k)) for k in range(m)] for r in range(m)])
    w.flags.writeable = False      # one cached table serves every caller
    return w


def _node_slopes(u, h):
    """Sixth-order u' at the nodes of a uniform grid of spacing h: the
    derivative of the degree-6 interpolant through the 7 nearest nodes
    (Fornberg's weights: (-1, 9, -45, 0, 45, -9, 1)/(60h) inside, one-sided
    at the three nodes nearest each end; all nodes when there are fewer)."""
    m = min(7, len(u))
    i = np.arange(len(u))
    start = np.clip(i - m // 2, 0, len(u) - m)
    window = u[start[:, None] + np.arange(m)]
    return np.sum(_slope_weights(m)[i - start] * window, axis=1) / h


def solve_liouville(a, domain=(1.0, 2.0), n=400) -> LiouvilleSolution:
    """Solve u'' = -8 a^2 x e^u with zero Dirichlet values on the domain.

    One Numerov solve on n intervals; the reported residual is the max-norm
    of the plugged-back Numerov discretization on that grid, and the solver
    raises if it cannot be driven below RESIDUAL_CAP.  The evaluators
    interpolate the nodes with sixth-order slopes and u'' from the ODE.
    The Newton solve is kept per process (see the module docstring).
    """
    cfg = LiouvilleConfig(a=float(a), x0=float(domain[0]), x1=float(domain[1]),
                          n=n)
    u, norm, iters, trace = _newton_solve(cfg)
    if not np.isfinite(norm) or norm > RESIDUAL_CAP:
        raise RuntimeError(
            f"Newton did not converge: residual {norm:.3e} after {iters} "
            f"iterations (cap {RESIDUAL_CAP:.1e}); trace "
            + " -> ".join(f"{t:.2e}" for t in trace))
    x = np.linspace(cfg.x0, cfg.x1, cfg.n + 1)
    u = u.copy()
    du = _node_slopes(u, (cfg.x1 - cfg.x0) / cfg.n)
    d2u = -8.0 * cfg.a ** 2 * x * np.exp(u)   # ODE-consistent
    poly = quintic_hermite(x, u, du, d2u)
    return LiouvilleSolution(cfg, x, u, norm, iters, poly, poly.derivative(), trace)
