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

Everything here is floating-point: hypotheses and conclusions are verified
as residual panels at sampled interior points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coframe import (CoframeField, Stencil, connection_coefficients,
                      form_hodge, form_wedge, frame_to_coords, riemann_ricci,
                      skew_tensor, torsion_ricci)
from .forms import basis_indices
from .liouville import Bernstein, LiouvilleSolution, quintic_hermite

DEFAULT_BOX = (-1.0, 1.0)


# ------------------------------------------------------------ Z^4 coframe


def kahler_coframe(sol: LiouvilleSolution, box=DEFAULT_BOX,
                   margin: float = 0.02) -> CoframeField:
    """Orthonormal coframe of the explicit Kaehler metric.

    f^1 = e^{u/2} sqrt(x) dx, f^2 = e^{u/2} sqrt(x) dy, f^3 = sqrt(x) dz,
    f^4 = (dt + y dz)/sqrt(x); coordinates (x, y, z, t).  The x-derivatives
    are closed-form in (u, u'), so downstream curvature only differentiates
    the connection coefficients numerically.
    """
    cfg = sol.config

    def matrix(p):
        x, y = p[0], p[1]
        s = math.sqrt(x)
        w = math.exp(0.5 * sol.u(x))
        a = np.zeros((4, 4))
        a[0, 0] = w * s
        a[1, 1] = w * s
        a[2, 2] = s
        a[3, 2] = y / s
        a[3, 3] = 1.0 / s
        return a

    def matrix_jac(p):
        x, y = p[0], p[1]
        s = math.sqrt(x)
        u = sol.u(x)
        du = sol.du(x)
        w = math.exp(0.5 * u)
        j = np.zeros((4, 4, 4))
        dws = w * (0.5 * du * s + 0.5 / s)       # d(e^{u/2} sqrt x)/dx
        j[0, 0, 0] = dws
        j[1, 1, 0] = dws
        j[2, 2, 0] = 0.5 / s
        j[3, 2, 0] = -0.5 * y / (x * s)
        j[3, 2, 1] = 1.0 / s
        j[3, 3, 0] = -0.5 / (x * s)
        return j

    domain = ((cfg.x0 + margin, cfg.x1 - margin), box, box, box)
    return CoframeField(4, domain, matrix, matrix_jac, name="kahler")


def kahler_ricci_eigenvalues(cf: CoframeField, points) -> np.ndarray:
    """Sorted Ricci eigenvalues of the Kaehler coframe at each point."""
    return np.array([riemann_ricci(cf, p).eigenvalues for p in points])


def kahler_ricci_deviation(eigs: np.ndarray, a: float) -> float:
    """Largest distance of the sorted Ricci eigenvalue rows from the
    spectrum {0, 0, 4a^2, 4a^2} of the Kaehler base."""
    target = 4.0 * a * a
    return float(np.max(np.abs(eigs - np.array([0.0, 0.0, target, target]))))


def eigenvalue_multiplicity_gap(eigs: np.ndarray, target: float,
                                rel_gap: float = 1e-4) -> bool:
    """True when each row splits as {0, 0, target, target} with a clear gap."""
    thr = rel_gap * max(abs(target), 1.0)
    low, high = eigs[:, :2], eigs[:, 2:]
    return bool(np.all(np.abs(low) < thr) and np.all(np.abs(high - target) < thr))


# ------------------------------------------------------------ hypotheses


def _frame_form(n: int, idx: tuple, value: float) -> np.ndarray:
    """value * f^idx as a vector over basis_indices(n, len(idx))."""
    return np.array([value if i == idx else 0.0 for i in basis_indices(n, len(idx))])


@dataclass
class HypothesisPanel:
    """Residuals of the five bundle-construction hypotheses on Z^4.

    (1) d Omega = 0, d * Omega = 0, Omega wedge Omega = 0;
    (2) the eigendistributions F^2 = span(f1, f2), E^2 = span(f3, f4) are
        involutive;
    (3) Omega = 2a f^1 wedge f^2 on the identified F^2 (snap deviation);
    (4) Ric = 4a^2 Id on F^2 and 0 on E^2;
    (5) the coordinate-line potential satisfies dA = Omega.
    """

    d_omega: float
    dstar_omega: float
    omega_wedge_omega: float
    f2_integrability: float
    e2_integrability: float
    snap_deviation: float
    ricci_deviation: float
    potential_residual: float
    tol: float
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures


def _f2_projector(ric: np.ndarray, target: float) -> np.ndarray:
    """Spectral projector onto the near-target eigenvalue pair."""
    vals, vecs = np.linalg.eigh(0.5 * (ric + ric.T))
    cols = np.argsort(np.abs(vals - target))[:2]
    v = vecs[:, cols]
    return v @ v.T


def hypothesis_panel(cf: CoframeField, a: float, points,
                     tol: float = 1e-6, h: float = 1e-5) -> HypothesisPanel:
    """Check conditions (1)-(5) at the sample points; residuals are maxima.

    d is taken with step h, curvature with the coframe's own step."""
    omega_frame = _frame_form(4, (1, 2), 2.0 * a)
    star_frame = form_hodge(omega_frame, 4, 2)
    snap_target = np.diag([1.0, 1.0, 0.0, 0.0])
    d_omega = dstar = wedge = f2_int = e2_int = snap = ric_dev = 0.0
    for p in points:
        st = Stencil(cf, p)
        sd = st if h == st.h else Stencil(cf, p, h)
        omega = frame_to_coords(omega_frame, sd.a, 2)
        d_omega = max(d_omega, np.abs(sd.d(omega, 2)).max())
        dstar = max(dstar, np.abs(sd.d(frame_to_coords(star_frame, sd.a, 2), 2)).max())
        wedge = max(wedge, np.abs(form_wedge(omega[0], omega[0], 4, 2, 2)).max())
        c = st.c[0]
        f2_int = max(f2_int, max(abs(c[m, 0, 1]) for m in (2, 3)))
        e2_int = max(e2_int, max(abs(c[m, 2, 3]) for m in (0, 1)))
        if a != 0:
            rep = st.curvature()
            proj = _f2_projector(rep.ric, 4.0 * a * a)
            snap = max(snap, float(np.max(np.abs(proj - snap_target))))
            ric_dev = max(ric_dev, float(np.max(np.abs(
                rep.ric - 4.0 * a * a * snap_target))))
    panel = HypothesisPanel(d_omega, dstar, wedge, f2_int, e2_int, snap,
                            ric_dev, 0.0, tol)
    checks = [("(1) d Omega != 0", d_omega), ("(1) d * Omega != 0", dstar),
              ("(1) Omega ^ Omega != 0", wedge),
              ("(2) F2 not involutive", f2_int),
              ("(2) E2 not involutive", e2_int),
              ("(3) F2 snap failed", snap),
              ("(4) Ricci eigenstructure failed", ric_dev)]
    panel.failures = [name for name, val in checks if val > tol]
    return panel


# ------------------------------------------------------------ N^5 bundle


@dataclass
class BundleData:
    a: float
    base: CoframeField
    total: CoframeField
    torsion: np.ndarray                  # frame 3-form over basis_indices(5, 3)
    potential: Callable                  # Q with A = Q(x) dy, dA = Omega
    panel: HypothesisPanel
    solution: LiouvilleSolution

    @property
    def mu(self):
        return 2.0 * self.a


def _potential_spline(sol: LiouvilleSolution, a: float) -> Bernstein:
    """Antiderivative Q(x) of 2 a x e^u by coordinate-line integration.

    The integrand and its first two derivatives are closed-form in
    (u, u', u''), so a quintic interpolant integrates it to near machine
    precision and evaluates in constant time.
    """
    grid = np.linspace(sol.config.x0, sol.config.x1, 2 * sol.config.n + 1)
    u = sol.u(grid)
    du = sol.du(grid)
    d2u = sol.d2u(grid)
    eu = np.exp(u)
    g = 2.0 * a * grid * eu
    dg = 2.0 * a * eu * (1.0 + grid * du)
    d2g = 2.0 * a * eu * (du * (1.0 + grid * du) + du + grid * d2u)
    return quintic_hermite(grid, g, dg, d2g).antiderivative()


def assemble_N5(sol: LiouvilleSolution, points=None, box=DEFAULT_BOX,
                tol: float = 1e-6, rng=None) -> BundleData:
    """Verify Theorem-1-style hypotheses on Z^4 and build the N^5 coframe.

    Raises ValueError naming the failed hypothesis when the panel does not
    pass.  The fiber coordinate is realized as a line; eta = ds + Q(x) dy.
    """
    a = sol.config.a
    base = kahler_coframe(sol, box)
    if points is None:
        rng = rng or np.random.default_rng(7)
        points = base.sample_points(rng, 10)
    panel = hypothesis_panel(base, a, points, tol)
    potential = _potential_spline(sol, a)
    # residual of dA = Omega at the base points: dA/dx vs 2 a x e^u
    pot_res = 0.0
    for p in points:
        x = p[0]
        exact = 2.0 * a * x * math.exp(sol.u(x))
        fd = (potential(x + 1e-6) - potential(x - 1e-6)) / 2e-6
        pot_res = max(pot_res, abs(fd - exact))
    panel.potential_residual = pot_res
    if pot_res > tol:
        panel.failures.append("(5) potential residual dA != Omega")
    if panel.failures:
        raise ValueError("hypothesis panel failed: " + "; ".join(panel.failures))

    def matrix5(p):
        a4 = base.matrix(p[:4])
        m = np.zeros((5, 5))
        m[:4, :4] = a4
        m[4, 4] = 1.0
        m[4, 1] = potential(p[0])
        return m

    def jac5(p):
        j4 = base.matrix_jac(p[:4])
        j = np.zeros((5, 5, 5))
        j[:4, :4, :4] = j4
        x = p[0]
        j[4, 1, 0] = 2.0 * a * x * math.exp(sol.u(x))
        return j

    domain5 = base.domain + (DEFAULT_BOX,)
    total = CoframeField(5, domain5, matrix5, jac5, name="N5")
    torsion = _frame_form(5, (1, 2, 5), 2.0 * a)
    return BundleData(a, base, total, torsion, potential, panel, sol)


# ------------------------------------------------------------ conclusions

#: Bound on | ||T||^2 - 4a^2 |; the other residuals get the caller's tolerance.
TORSION_NORM_TOL = 1e-8


@dataclass
class StromingerReport:
    """Max residuals over the sampled points of the Theorem-1 conclusions."""

    torsion_norm_residual: float         # | ||T||^2 - 4a^2 |, from dA ^ eta
    d_torsion: float
    dstar_torsion: float
    nabla_eta: float
    ric_nabla: float
    oneill: float                        # || Ric^g - (1/4) sum T T ||
    scal_residual: float                 # | Scal^g - (3/2)||T||^2 |
    ricci_eigenvalues: np.ndarray        # per point, sorted
    ricci_eigen_residual: float          # vs {0, 0, mu^2/2 x 3}
    max_r_nabla: float
    points: int
    non_flat: bool                       # max_r_nabla > 0.01

    def passed(self, tol: float) -> bool:
        """Theorem-1 verdict: residuals within tol (the torsion norm within
        TORSION_NORM_TOL) and nabla non-flat."""
        return self.non_flat and all(
            v <= (TORSION_NORM_TOL if k == "torsion_norm" else tol)
            for k, v in self.residual_items().items())

    def residual_items(self):
        return {
            "torsion_norm": self.torsion_norm_residual,
            "d_torsion": self.d_torsion,
            "dstar_torsion": self.dstar_torsion,
            "nabla_eta": self.nabla_eta,
            "ric_nabla": self.ric_nabla,
            "oneill": self.oneill,
            "scal": self.scal_residual,
            "ricci_eigen": self.ricci_eigen_residual,
        }


def strominger_check(bundle: BundleData, points=None, h: float = 1e-5,
                     rng=None) -> StromingerReport:
    """Numerically verify the bundle conclusions at sampled interior points."""
    cf = bundle.total
    a = bundle.a
    mu2 = 4.0 * a * a
    if points is None:
        rng = rng or np.random.default_rng(11)
        points = cf.sample_points(rng, 10)
    t_frame = bundle.torsion
    t = skew_tensor(t_frame, 5)
    tt_ric = torsion_ricci(t)
    star_t = form_hodge(t_frame, 5, 3)
    eta = _frame_form(5, (5,), 1.0)

    tn = dt = dst = ne = rn = on = sc = ee = 0.0
    max_curv = 0.0
    eig_rows = []
    target = np.array([0.0, 0.0, 0.5 * mu2, 0.5 * mu2, 0.5 * mu2])
    for p in points:
        st = Stencil(cf, p, h)
        # ||T||^2 via the honest route: T = (d eta) wedge eta numerically
        d_eta = st.d(st.a[:, 4], 1)
        omega_frame = frame_to_coords(d_eta, st.e[0], 2)
        t_num = form_wedge(omega_frame, eta, 5, 2, 1)
        tn = max(tn, abs(t_num @ t_num - mu2))
        dt = max(dt, np.abs(st.d(frame_to_coords(t_frame, st.a, 3), 3)).max())
        dst = max(dst, np.abs(st.d(frame_to_coords(star_t, st.a, 2), 2)).max())
        gam = connection_coefficients(st.c[0], t)
        ne = max(ne, float(np.max(np.abs(gam[:, 4, :]))))
        rep_nabla = st.curvature(t)
        rn = max(rn, rep_nabla.max_ric)
        max_curv = max(max_curv, rep_nabla.max_riemann)
        rep_g = st.curvature()
        on = max(on, float(np.max(np.abs(rep_g.ric - tt_ric))))
        sc = max(sc, abs(rep_g.scal - 1.5 * mu2))
        eig_rows.append(rep_g.eigenvalues)
        ee = max(ee, float(np.max(np.abs(np.sort(rep_g.eigenvalues) - target))))
    return StromingerReport(tn, dt, dst, ne, rn, on, sc,
                            np.array(eig_rows), ee, max_curv, len(points),
                            max_curv > 0.01)
