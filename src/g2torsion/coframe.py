"""Curvature of explicit orthonormal coframes by the method of moving frames.

A coframe field on a chart is a matrix-valued map A(p) with rows the
orthonormal covectors f^i = sum_j A_{ij}(p) dx^j; the metric is sum (f^i)^2.
Structure functions c^i_{jk} are read off from df^i = -1/2 c^i_{jk} f^j wedge
f^k (same sign convention as the invariant calculus in liegroup), the
Levi-Civita coefficients come from the orthonormal-frame Koszul formula, and
curvature follows from the frame version of R(X,Y) = [nabla_X, nabla_Y] -
nabla_[X,Y], with directional derivatives taken by central finite differences.

Every finite difference at a point p reads one ``Stencil``: the coframe at p
and p +- h e_beta, with frame vectors and structure functions of all 2n + 1
rows from one batched pass; its curvature (optionally with frame-constant skew
torsion, nabla = nabla^g + 1/2 T) and d share one central difference.

A float k-form on an n-frame, in frame or coordinate components, is a numpy
vector over ``forms.basis_indices(n, k)``; a change of basis acts on it by
the k-th compound matrix, wedge, Hodge star and d by a signed incidence table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Callable

import numpy as np

from .forms import basis_indices, perm_sign, sort_index

Array = np.ndarray


# ------------------------------------------------------------ float forms


@lru_cache(maxsize=None)
def _wedge_table(n: int, k: int, l: int):
    """e_I ^ e_J = sign e_K as positions (I, J, K) in basis_indices and a
    sign, one entry per nonzero product, in lexicographic (I, J) order."""
    out_pos = {idx: q for q, idx in enumerate(basis_indices(n, k + l))}
    rows = []
    for i, ia in enumerate(basis_indices(n, k)):
        for j, ib in enumerate(basis_indices(n, l)):
            idx, sign = sort_index(ia + ib)
            if sign:
                rows.append((i, j, out_pos[idx], sign))
    table = np.array(rows, dtype=np.intp).T
    table.setflags(write=False)
    return tuple(table)


def compound(a: Array, k: int) -> Array:
    """k-th compound matrix: C[..., I, J] = det a[..., I, J] over basis_indices(n, k)."""
    pos = np.array(basis_indices(a.shape[-1], k), dtype=np.intp) - 1
    # C order keeps each C[q] of a stack laid out as the compound of a[q] alone
    minors = np.ascontiguousarray(a[..., pos[:, None, :, None], pos[None, :, None, :]])
    return np.linalg.det(minors)


def form_wedge(a: Array, b: Array, n: int, k: int, l: int) -> Array:
    """Wedge product of a k-form and an l-form on an n-frame."""
    left, right, out, sign = _wedge_table(n, k, l)
    return np.bincount(out, weights=sign * a[left] * b[right],
                       minlength=math.comb(n, k + l))


def form_hodge(a: Array, n: int, k: int) -> Array:
    """Hodge star of a k-form on an oriented orthonormal n-frame."""
    left, right, _, sign = _wedge_table(n, k, n - k)
    return np.bincount(right, weights=sign * a[left], minlength=math.comb(n, n - k))


def frame_to_coords(components: Array, a_matrix: Array, k: int) -> Array:
    """Rewrite a frame k-form in the coordinate basis: f^I = det A[I,J] dx^J."""
    return components @ compound(a_matrix, k)


def stencil_points(p: Array, h: float) -> Array:
    """Rows p, then p + h e_beta and p - h e_beta for ascending beta."""
    beta = np.arange(len(p))
    pts = np.tile(np.asarray(p, dtype=float), (2 * len(p) + 1, 1))
    pts[1 + beta, beta] += h
    pts[1 + len(p) + beta, beta] -= h
    return pts


def central_partials(values: Array, n: int, h: float) -> Array:
    """d/dx_beta at p, beta ascending, of values given at the stencil rows."""
    return (values[1:n + 1] - values[n + 1:]) / (2 * h)


def central_d(values: Array, n: int, k: int, h: float) -> Array:
    """Exterior derivative at p of a coordinate k-form from its values at the
    rows of stencil_points(p, h), by central differences.

    d alpha = sum_beta dx^beta ^ (d alpha / dx^beta), summed in ascending beta.
    """
    partials = central_partials(values, n, h)
    left, right, out, sign = _wedge_table(n, 1, k)
    return np.bincount(out, weights=sign * partials[left, right],
                       minlength=math.comb(n, k + 1))


def numeric_d(form_fn: Callable[[Array], Array], n: int, k: int, p: Array,
              h: float = 1e-5) -> Array:
    """Exterior derivative of a coordinate k-form field by central FD."""
    return central_d(np.array([form_fn(q) for q in stencil_points(p, h)]), n, k, h)


# ------------------------------------------------------------ coframes


@dataclass
class CoframeField:
    """Orthonormal coframe f^i = sum_j A_{ij}(p) dx^j on a box chart."""

    n: int
    domain: tuple
    matrix: Callable[[Array], Array]
    matrix_jac: Callable[[Array], Array] | None = None
    h: float = 1e-5

    def coeff(self, p: Array) -> Array:
        a = np.asarray(self.matrix(np.asarray(p, dtype=float)), dtype=float)
        if a.shape != (self.n, self.n):
            raise ValueError(f"coframe matrix must be {self.n}x{self.n}")
        return a

    def jacobian(self, p: Array) -> Array:
        """J[i, j, k] = dA_ij / dx_k, closed-form when supplied, else FD."""
        p = np.asarray(p, dtype=float)
        if self.matrix_jac is not None:
            return np.asarray(self.matrix_jac(p), dtype=float)
        return self.fd_jacobian(p, self.h)

    def fd_jacobian(self, p: Array, h: float) -> Array:
        p = np.asarray(p, dtype=float)
        out = np.zeros((self.n, self.n, self.n))
        for k in range(self.n):
            pp, pm = p.copy(), p.copy()
            pp[k] += h
            pm[k] -= h
            out[:, :, k] = (self.coeff(pp) - self.coeff(pm)) / (2 * h)
        return out

    def sample_points(self, rng, count):
        """count points uniform in the middle 80% of each coordinate range."""
        return [np.array([lo + (0.1 + 0.8 * rng.random()) * (hi - lo)
                          for lo, hi in self.domain])
                for _ in range(count)]


def _structure(cf: CoframeField, pts: Array):
    """Coframe matrices A, frame vectors E = A^{-1} (e_j = sum_beta
    E[beta, j] d/dx_beta) and structure functions c at each row of pts."""
    a = np.array([cf.coeff(q) for q in pts])
    if np.any(np.abs(np.linalg.det(a)) < 1e-12):
        raise ValueError("coframe matrix is singular at the sample point")
    e = np.linalg.inv(a)
    jac = np.array([cf.jacobian(q) for q in pts])  # [q, i, alpha, beta] = dA_{i alpha}/dx_beta
    # m[q, i, j, k] = (e_j A_{i alpha}) e[alpha, k]
    m = np.einsum("piab,pbj,pak->pijk", jac, e, e)
    return a, e, m.swapaxes(-1, -2) - m


def structure_functions(cf: CoframeField, p: Array) -> Array:
    """c[i, j, k] = c^i_{jk} with df^i = -1/2 c^i_{jk} f^j wedge f^k."""
    return _structure(cf, np.asarray(p, dtype=float)[None])[2][0]


def levi_civita_cartan(c: Array) -> Array:
    """gamma[..., i, j, k] = <nabla_{e_i} e_j, e_k> from the Koszul formula.

    With lowered structure functions cl_{ijk} = c^k_{ij}:
    gamma_{ijk} = (cl_{ijk} - cl_{jki} + cl_{kij}) / 2; skew in (j, k).
    """
    cl = np.moveaxis(c, -3, -1)
    return 0.5 * (cl - np.moveaxis(cl, -1, -3) + np.moveaxis(cl, -3, -1))


def connection_coefficients(c: Array, t: Array | None = None) -> Array:
    """gamma of the metric connection of a frame with structure functions c,
    with optional frame-constant skew torsion t[i, j, k] = T(e_i, e_j, e_k)."""
    gamma = levi_civita_cartan(c)
    return gamma if t is None else gamma + 0.5 * t


def skew_tensor(torsion: Array, n: int) -> Array:
    """Dense t[i, j, k] = T(e_i, e_j, e_k) of a float 3-form on an n-frame."""
    t = np.zeros((n, n, n))
    for idx, v in zip(basis_indices(n, 3), torsion):
        if v:
            for perm in permutations(idx):
                t[tuple(i - 1 for i in perm)] = perm_sign(perm) * v
    return t


@dataclass
class CurvatureReport:
    riemann: Array            # R[i, j, l, k] = <R(e_i, e_j) e_k, e_l>
    ric: Array                # Ric[j, k]
    eigenvalues: Array
    symmetry_error: float
    scal: float

    @property
    def max_riemann(self):
        return float(np.max(np.abs(self.riemann)))

    @property
    def max_ric(self):
        return float(np.max(np.abs(self.ric)))


class Stencil:
    """A coframe at p and at p +- h e_beta (rows of stencil_points), with the
    coframe matrices ``a``, frame vectors ``e`` and structure functions ``c``
    of every row; row 0 is p.  h defaults to the coframe's step."""

    def __init__(self, cf: CoframeField, p: Array, h: float | None = None):
        self.n = cf.n
        self.h = cf.h if h is None else h
        self.a, self.e, self.c = _structure(cf, stencil_points(p, self.h))

    def d(self, values: Array, k: int) -> Array:
        """d at p of a coordinate k-form given by its values at the rows."""
        return central_d(values, self.n, k, self.h)

    def curvature(self, t: Array | None = None,
                  symmetry_tol: float = 1e-6) -> CurvatureReport:
        """Curvature, Ricci tensor and Ricci eigenvalues at p, for the
        Levi-Civita connection or, given a dense skew tensor t, the metric
        connection with that frame-constant torsion.

        R(e_i, e_j) = e_i(M_j) - e_j(M_i) + [M_i, M_j] - c^m_{ij} M_m with
        (M_i)_{lk} = gamma_{ikl}; Ric_{jk} = sum_i R[i, j, i, k].
        """
        n, c = self.n, self.c[0]
        m = connection_coefficients(self.c, t).swapaxes(-1, -2)  # M[q, i][l][k]
        m0 = m[0]
        # coordinate partials of the M field, then convert to frame directions
        partials = central_partials(m, n, self.h)
        # dm[i, j] = directional derivative of M_j along the frame vector e_i
        dm = np.einsum("bjlk,bi->ijlk", partials, self.e[0])
        prod = m0[:, None] @ m0[None, :]   # prod[i, j] = M_i M_j
        riemann = dm - dm.transpose(1, 0, 2, 3) + prod - prod.transpose(1, 0, 2, 3)
        for mm in range(n):                # nonzero c^m_{ij} only, m ascending
            i, j = np.nonzero(c[mm])
            riemann[i, j] -= c[mm, i, j][:, None, None] * m0[mm]
        ric = np.einsum("ijik->jk", riemann)
        sym_err = float(np.max(np.abs(ric - ric.T)))
        if sym_err > symmetry_tol and t is None:
            raise ValueError(
                f"Ricci asymmetry {sym_err:.3e} exceeds {symmetry_tol:.1e}; "
                "step too large or point too close to the domain edge")
        eig = np.linalg.eigvalsh(0.5 * (ric + ric.T))
        return CurvatureReport(riemann, ric, eig, sym_err, float(np.trace(ric)))


def riemann_ricci(cf: CoframeField, p: Array, torsion: Array | None = None,
                  h: float | None = None, symmetry_tol: float = 1e-6) -> CurvatureReport:
    """Curvature at an interior point p, for an optional frame torsion 3-form."""
    t = None if torsion is None else skew_tensor(torsion, cf.n)
    return Stencil(cf, p, h).curvature(t, symmetry_tol)


def torsion_ricci(t: Array) -> Array:
    """(1/4) sum_{i,j} T(x, e_i, e_j) T(y, e_i, e_j) for a dense skew tensor t."""
    return 0.25 * np.einsum("xij,yij->xy", t, t)


# ------------------------------------------------------------ examples


def flat_coframe(n: int, box=None) -> CoframeField:
    box = box or tuple((0.0, 1.0) for _ in range(n))

    def matrix(p):
        return np.eye(n)

    def jac(p):
        return np.zeros((n, n, n))

    return CoframeField(n, box, matrix, jac)


def sphere_coframe(radius: float = 1.0) -> CoframeField:
    """Round 2-sphere chart: f^1 = r dtheta, f^2 = r sin(theta) dphi."""

    def matrix(p):
        theta = p[0]
        return np.array([[radius, 0.0], [0.0, radius * math.sin(theta)]])

    def jac(p):
        theta = p[0]
        out = np.zeros((2, 2, 2))
        out[1, 1, 0] = radius * math.cos(theta)
        return out

    return CoframeField(2, ((0.4, math.pi - 0.4), (0.0, 2 * math.pi)),
                        matrix, jac)


def fd_convergence_order(cf: CoframeField, p: Array, h: float = 1e-3) -> float:
    """Observed FD order against the closed-form jacobian (needs matrix_jac)."""
    if cf.matrix_jac is None:
        raise ValueError("closed-form jacobian required for the order test")
    exact = cf.jacobian(p)
    e1 = np.max(np.abs(cf.fd_jacobian(p, h) - exact))
    e2 = np.max(np.abs(cf.fd_jacobian(p, h / 2) - exact))
    if e2 == 0:
        return float("inf")
    return math.log(e1 / e2, 2)
