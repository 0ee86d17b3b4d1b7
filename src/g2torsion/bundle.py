"""Assembly and verification of the 5-dimensional Ricci-flat-torsion bundle.

Starting from the explicit Kaehler metric

    g = e^u x (dx^2 + dy^2) + x dz^2 + (1/x)(dt + y dz)^2,   x > 0,

with u = u(x) solving u'' = -8 a^2 x e^u, the Ricci tensor of g has
eigenvalues {0, 0, 4a^2, 4a^2}.  The closed 2-form Omega = 2a f^1 wedge f^2
supported on the nonzero-Ricci eigendistribution F^2 integrates to a local
potential by coordinate-line integration, eta = ds + A is the corresponding
unit connection form on the chart N^5 = Z^4 x R, and the metric connection
with torsion T = Omega wedge eta has vanishing Ricci tensor, parallel eta,
closed and coclosed torsion, and non-vanishing curvature.

Everything here is floating-point: hypotheses and conclusions are measured
as residual maxima over sampled interior points, and ``theorem1_passed``
judges both in one verdict at one tolerance.  Nothing here raises on a
failed hypothesis: it is a residual over the tolerance like any conclusion.
d of the frame-constant forms is read from the structure functions, so the
closed-form jacobians are held to a central difference (jacobian_residual).

The five hypotheses depend only on (a, domain, grid), so theorem1_bundle
keeps them per process for each, beside the kept Newton solve; assemble_N5
measures them afresh on whatever solution it is given.  The potential Q is a
quintic spline antiderivative built from the Liouville solution's own nodes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .coframe import (CoframeField, connection_coefficients, form_hodge,
                      form_wedge, frame_d, libm, skew_tensor, stencils,
                      torsion_ricci)
from .forms import basis_indices
from .liouville import (MEMO_SIZE, Bernstein, LiouvilleConfig, LiouvilleSolution,
                        quintic_hermite, solve_liouville)

#: Range of the coordinates y, z, t and of the fiber coordinate s.
BOX = (-1.0, 1.0)
#: The chart keeps this distance from each end of the Liouville interval.
MARGIN = 0.02


# ------------------------------------------------------------ Z^4 coframe


def kahler_coframe(sol: LiouvilleSolution) -> CoframeField:
    """Orthonormal coframe of the explicit Kaehler metric.

    f^1 = e^{u/2} sqrt(x) dx, f^2 = e^{u/2} sqrt(x) dy, f^3 = sqrt(x) dz,
    f^4 = (dt + y dz)/sqrt(x); coordinates (x, y, z, t).  The x-derivatives
    are closed-form in (u, u'), so downstream curvature only differentiates
    the connection coefficients numerically; matrix and jacobian share one
    evaluation of sqrt(x), u, u' and e^{u/2} per point.

    Raises ValueError when the interval leaves no chart inside its margins.
    """
    cfg = sol.config
    xs = (cfg.x0 + MARGIN, cfg.x1 - MARGIN)
    if not xs[0] < xs[1]:
        raise ValueError(f"domain [{cfg.x0!r}, {cfg.x1!r}] is too narrow: the "
                         f"chart keeps a margin of {MARGIN!r} from each end, "
                         f"so x1 - x0 must exceed {2 * MARGIN!r}")

    return CoframeField(4, (xs, BOX, BOX, BOX),
                        lambda p: _kahler_frame(sol, p, sol.u(p[..., 0])))


def _kahler_frame(sol: LiouvilleSolution, p, u):
    """A and J of kahler_coframe(sol) at points p, given u = sol.u(x) there."""
    x, y = p[..., 0], p[..., 1]
    s = np.sqrt(x)
    w = libm(math.exp, 0.5 * u)
    a = np.zeros(p.shape[:-1] + (4, 4))
    a[..., 0, 0] = w * s
    a[..., 1, 1] = w * s
    a[..., 2, 2] = s
    a[..., 3, 2] = y / s
    a[..., 3, 3] = 1.0 / s
    j = np.zeros(p.shape[:-1] + (4, 4, 4))
    dws = w * (0.5 * sol.du(x) * s + 0.5 / s)       # d(e^{u/2} sqrt x)/dx
    j[..., 0, 0, 0] = dws
    j[..., 1, 1, 0] = dws
    j[..., 2, 2, 0] = 0.5 / s
    j[..., 3, 2, 0] = -0.5 * y / (x * s)
    j[..., 3, 2, 1] = 1.0 / s
    j[..., 3, 3, 0] = -0.5 / (x * s)
    return a, j


def kahler_ricci_eigenvalues(cf: CoframeField, points) -> np.ndarray:
    """Sorted Ricci eigenvalues of the Kaehler coframe at each point."""
    return np.concatenate([st.curvature().eigenvalues for st in stencils(cf, points)])


def kahler_ricci_deviation(eigs: np.ndarray, a: float) -> float:
    """Largest distance of the sorted Ricci eigenvalue rows from the
    spectrum {0, 0, 4a^2, 4a^2} of the Kaehler base."""
    target = 4.0 * a * a
    return float(np.max(np.abs(eigs - np.array([0.0, 0.0, target, target]))))


def eigenvalue_multiplicity_gap(eigs: np.ndarray, target: float) -> bool:
    """True when each row splits as {0, 0, target, target} with a clear gap."""
    thr = 1e-4 * max(abs(target), 1.0)
    low, high = eigs[:, :2], eigs[:, 2:]
    return bool(np.all(np.abs(low) < thr) and np.all(np.abs(high - target) < thr))


# ------------------------------------------------------------ hypotheses


def _frame_form(n: int, idx: tuple, value: float) -> np.ndarray:
    """value * f^idx as a vector over basis_indices(n, len(idx))."""
    return np.array([value if i == idx else 0.0 for i in basis_indices(n, len(idx))])


def _f2_projector(ric: np.ndarray, target: float) -> np.ndarray:
    """Spectral projectors onto the near-target eigenvalue pair, stacked."""
    vals, vecs = np.linalg.eigh(0.5 * (ric + ric.swapaxes(-1, -2)))
    cols = np.argsort(np.abs(vals - target), axis=-1)[..., :2]
    v = np.take_along_axis(vecs, cols[..., None, :], axis=-1)
    return v @ v.swapaxes(-1, -2)


def _maxima(*values) -> np.ndarray:
    """Largest |value| of each array of a chunk; NaN propagates."""
    return np.array([np.max(np.abs(v)) for v in values])


def hypothesis_panel(cf: CoframeField, a: float, points) -> dict:
    """Maxima over the sample points of the residuals of hypotheses (1)-(4)
    on Z^4, in payload order:

    (1) d Omega = 0, d * Omega = 0, Omega wedge Omega = 0;
    (2) the eigendistributions F^2 = span(f1, f2), E^2 = span(f3, f4) are
        involutive;
    (3) Omega = 2a f^1 wedge f^2 on the identified F^2 (snap deviation);
    (4) Ric = 4a^2 Id on F^2 and 0 on E^2.

    d of the frame-constant Omega and *Omega is frame_d of the structure
    functions; curvature reads one stencil per chunk, at the coframe's step."""
    omega_frame = _frame_form(4, (1, 2), 2.0 * a)
    star_frame = form_hodge(omega_frame, 4, 2)
    wedge = form_wedge(omega_frame, omega_frame, 4, 2, 2)
    snap_target = np.diag([1.0, 1.0, 0.0, 0.0])
    chunks = []
    for st in stencils(cf, points):
        c = st.c[:, 0]
        ric = st.curvature().ric
        # at a = 0, Omega = 0 holds on every F^2 and Ric cannot pick one
        snap = 0.0 if a == 0 else _f2_projector(ric, 4.0 * a * a) - snap_target
        chunks.append(_maxima(frame_d(c, omega_frame, 4, 2), frame_d(c, star_frame, 4, 2),
                              wedge, c[:, 2:, 0, 1], c[:, :2, 2, 3], snap,
                              ric - 4.0 * a * a * snap_target))
    return dict(zip(("d_omega", "dstar_omega", "omega_wedge_omega", "f2_integrability",
                     "e2_integrability", "snap_deviation", "ricci_deviation"),
                    np.max(chunks, axis=0).tolist()))


# ------------------------------------------------------------ N^5 bundle


@dataclass
class BundleData:
    a: float
    base: CoframeField
    total: CoframeField
    torsion: np.ndarray                  # frame 3-form over basis_indices(5, 3)
    potential: Callable                  # Q with A = Q(x) dy, dA = Omega
    hypotheses: dict                     # hypothesis_panel + potential_residual
    solution: LiouvilleSolution

    @property
    def mu(self):
        return 2.0 * self.a


def _potential_spline(sol: LiouvilleSolution, a: float) -> Bernstein:
    """Antiderivative Q(x) of g = 2 a x e^u by coordinate-line integration.

    g, g' and g'' are closed-form in (u, u', u'') at the solution's own n + 1
    nodes: the node values, the evaluator's slopes there and u'' from the ODE.
    A quintic Hermite interpolant of g on that grid errs by O(h^6) per cell,
    below rounding, so its antiderivative is Q to near machine precision and
    evaluates in constant time.
    """
    x, u = sol.grid, sol.values
    du = sol.du(x)
    eu = np.exp(u)
    d2u = -8.0 * a ** 2 * x * eu
    g = 2.0 * a * x * eu
    dg = 2.0 * a * eu * (1.0 + x * du)
    d2g = 2.0 * a * eu * (du * (1.0 + x * du) + du + x * d2u)
    return quintic_hermite(x, g, dg, d2g).antiderivative()


def _hypotheses(sol: LiouvilleSolution, base: CoframeField, potential) -> dict:
    """Hypotheses (1)-(5) of sol at 10 fixed points, from random.Random(7):
    hypothesis_panel on base = kahler_coframe(sol), then potential_residual,
    the potential spline's own dQ/dx against 2 a x e^u (a finite difference
    would read its own rounding, ~1e-9)."""
    a = sol.config.a
    points = base.sample_points(random.Random(7), 10)
    x = np.asarray(points, dtype=float)[:, 0]
    exact = 2.0 * a * x * libm(math.exp, sol.u(x))
    return dict(hypothesis_panel(base, a, points), potential_residual=float(
        np.max(np.abs(potential.derivative()(x) - exact))))


def _bundle(sol: LiouvilleSolution, base: CoframeField, potential,
            hypotheses: dict) -> BundleData:
    """The N^5 bundle over base = kahler_coframe(sol); eta = ds + potential dy."""
    a = sol.config.a

    def frame5(p):
        x = p[..., 0]
        u = sol.u(x)
        base_a, base_j = _kahler_frame(sol, p[..., :4], u)
        m = np.zeros(p.shape[:-1] + (5, 5))
        m[..., :4, :4] = base_a
        m[..., 4, 4] = 1.0
        m[..., 4, 1] = potential(x)
        j = np.zeros(p.shape[:-1] + (5, 5, 5))
        j[..., :4, :4, :4] = base_j
        j[..., 4, 1, 0] = 2.0 * a * x * libm(math.exp, u)
        return m, j

    total = CoframeField(5, base.domain + (BOX,), frame5)
    torsion = _frame_form(5, (1, 2, 5), 2.0 * a)
    return BundleData(a, base, total, torsion, potential, hypotheses, sol)


def assemble_N5(sol: LiouvilleSolution) -> BundleData:
    """Measure the Theorem-1 hypotheses of sol and build the N^5 coframe.

    The hypotheses are (1)-(4) of hypothesis_panel on Z^4 and (5) the
    coordinate-line potential satisfies dA = Omega (potential_residual);
    theorem1_passed judges them.  They are measured on sol itself, at 10
    points from random.Random(7), with the one potential spline that also
    gives eta = ds + Q(x) dy; the fiber coordinate is realized as a line.
    """
    base = kahler_coframe(sol)
    potential = _potential_spline(sol, sol.config.a)
    return _bundle(sol, base, potential, _hypotheses(sol, base, potential))


@lru_cache(maxsize=MEMO_SIZE)
def _kept_panel(cfg: LiouvilleConfig) -> tuple:
    """assemble_N5's five hypotheses of cfg's solution as a tuple of items,
    measured on a solve_liouville of its own, never on a caller's solution."""
    sol = solve_liouville(cfg.a, (cfg.x0, cfg.x1), cfg.n)
    return tuple(assemble_N5(sol).hypotheses.items())


def theorem1_bundle(a, domain=(1.0, 2.0), n=400) -> BundleData:
    """assemble_N5(solve_liouville(a, domain, n)), with its hypotheses kept
    per process.

    All five depend only on (a, domain, n), so the last MEMO_SIZE records are
    kept, keyed by the frozen LiouvilleConfig like the Newton solve: eight
    floats each, handed out as a fresh dict.  Each request builds its own
    potential spline, for eta only.
    """
    sol = solve_liouville(a, domain, n)
    return _bundle(sol, kahler_coframe(sol), _potential_spline(sol, sol.config.a),
                   dict(_kept_panel(sol.config)))


# ------------------------------------------------------------ conclusions

#: Bound on | ||T||^2 - 4a^2 |; every other residual gets the caller's tolerance.
TORSION_NORM_TOL = 1e-8


@dataclass
class StromingerReport:
    """Max residuals over the sampled points of the Theorem-1 conclusions."""

    residuals: dict                      # name -> max residual, payload order
    ricci_eigenvalues: np.ndarray        # per point, sorted
    max_r_nabla: float
    points: int
    non_flat: bool                       # max_r_nabla > 0.01


def theorem1_passed(hypotheses: dict, report: StromingerReport,
                    tol: float) -> bool:
    """Theorem-1 verdict: every hypothesis and conclusion residual within
    tol, the torsion norm and the jacobian residual within TORSION_NORM_TOL,
    and nabla non-flat."""
    return report.non_flat and all(
        v <= (TORSION_NORM_TOL if k in ("torsion_norm", "jacobian_residual") else tol)
        for k, v in {**hypotheses, **report.residuals}.items())


def strominger_check(bundle: BundleData, points) -> StromingerReport:
    """Numerically verify the bundle conclusions at interior points of the
    total space, such as bundle.total.sample_points(rng, count).  d of eta, T
    and *T is frame_d of c, which reads the closed-form jacobian J; so
    jacobian_residual holds J to a central difference of the matrix A."""
    cf = bundle.total
    a = bundle.a
    mu2 = 4.0 * a * a
    t_frame = bundle.torsion
    t = skew_tensor(t_frame, 5)
    tt_ric = torsion_ricci(t)
    star_t = form_hodge(t_frame, 5, 3)
    eta = _frame_form(5, (5,), 1.0)

    target = np.array([0.0, 0.0, 0.5 * mu2, 0.5 * mu2, 0.5 * mu2])
    chunks, eig_rows = [], []
    for st in stencils(cf, points):
        c = st.c[:, 0]
        # ||T||^2 from the frame: T = (d eta) wedge eta, not the stored torsion
        t_num = form_wedge(frame_d(c, eta, 5, 1), eta, 5, 2, 1)
        norm2 = (t_num[:, None, :] @ t_num[:, :, None])[:, 0, 0]
        rep_nabla = st.curvature(t)
        rep_g = st.curvature()
        eig_rows.append(rep_g.eigenvalues)
        chunks.append(_maxima(norm2 - mu2, st.jacobian_error(), frame_d(c, t_frame, 5, 3),
                              frame_d(c, star_t, 5, 2), connection_coefficients(c, t)[:, :, 4, :],
                              rep_nabla.max_ric, rep_g.ric - tt_ric, rep_g.scal - 1.5 * mu2,
                              np.sort(rep_g.eigenvalues) - target, rep_nabla.max_riemann))
    residuals = dict(zip((
        "torsion_norm",                  # | ||T||^2 - 4a^2 |, from d eta ^ eta
        "jacobian_residual",             # | central difference of A - J |
        "d_torsion", "dstar_torsion", "nabla_eta", "ric_nabla",
        "oneill",                        # || Ric^g - (1/4) sum T T ||
        "scal",                          # | Scal^g - (3/2)||T||^2 |
        "ricci_eigen",                   # vs {0, 0, mu^2/2 x 3}
        "max_r_nabla"), np.max(chunks, axis=0).tolist()))
    max_curv = residuals.pop("max_r_nabla")
    return StromingerReport(residuals, np.concatenate(eig_rows), max_curv,
                            len(points), max_curv > 0.01)
