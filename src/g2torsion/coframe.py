"""Curvature of explicit orthonormal coframes by the method of moving frames.

A coframe field on a chart is a matrix-valued map A(p) with rows the
orthonormal covectors f^i = sum_j A_{ij}(p) dx^j; the metric is sum (f^i)^2.
Structure functions c^i_{jk} are read off from df^i = -1/2 c^i_{jk} f^j wedge
f^k (same sign convention as the invariant calculus in liegroup), the
Levi-Civita coefficients come from the orthonormal-frame Koszul formula, and
curvature follows from the frame version of R(X,Y) = [nabla_X, nabla_Y] -
nabla_[X,Y], with directional derivatives taken by central finite differences.

Coframes are evaluated on stacks of points.  Every finite difference reads one
``Stencil``: the coframe at each point p of a chunk and at p +- h e_beta, with
the frame vectors and structure functions of all rows from one batched pass;
its curvature (optionally with frame-constant skew torsion, nabla = nabla^g +
1/2 T) and d share one central difference.

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

from .forms import basis_indices, sort_index

Array = np.ndarray
#: Sample points per Stencil in ``stencils``: memory stays flat for any count.
CHUNK = 16
#: Largest Levi-Civita Ricci asymmetry ``Stencil.curvature`` accepts.
SYMMETRY_TOL = 1e-6


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


def _minors(a: Array, k: int, rows: slice) -> Array:
    """det a[..., I, J] for I in basis_indices(n, k)[rows] and every J."""
    pos = np.array(basis_indices(a.shape[-1], k), dtype=np.intp) - 1
    # C order keeps each C[q] of a stack laid out as the compound of a[q] alone
    minors = np.ascontiguousarray(a[..., pos[rows, None, :, None], pos[None, :, None, :]])
    return np.linalg.det(minors)


def compound(a: Array, k: int) -> Array:
    """k-th compound matrix: C[..., I, J] = det a[..., I, J] over basis_indices(n, k)."""
    return _minors(a, k, slice(None))


def _bincount(index: Array, weights: Array, size: int) -> Array:
    """np.bincount(index, weights, size) along the last axis of a stack."""
    out = np.zeros(weights.shape[:-1] + (size,))
    np.add.at(out, (..., index), weights)
    return out


def form_wedge(a: Array, b: Array, n: int, k: int, l: int) -> Array:
    """Wedge product of k-forms and l-forms on an n-frame (stacks broadcast)."""
    left, right, out, sign = _wedge_table(n, k, l)
    return _bincount(out, sign * a[..., left] * b[..., right], math.comb(n, k + l))


def form_hodge(a: Array, n: int, k: int) -> Array:
    """Hodge star of a k-form on an oriented orthonormal n-frame."""
    left, right, _, sign = _wedge_table(n, k, n - k)
    return _bincount(right, sign * a[..., left], math.comb(n, n - k))


def frame_to_coords(components: Array, a_matrix: Array, k: int) -> Array:
    """Rewrite frame k-forms (one, or a stack) in the coordinate basis:
    f^I = det A[I,J] dx^J; one form with one nonzero f^I needs only row I."""
    nonzero = np.flatnonzero(components)
    if components.ndim > 1 or len(nonzero) > 1:
        return (components[..., None, :] @ compound(a_matrix, k))[..., 0, :]
    q = nonzero[0] if len(nonzero) else 0
    return components[q] * _minors(a_matrix, k, slice(q, q + 1))[..., 0, :]


def stencil_points(p: Array, h: float) -> Array:
    """Rows p, then p + h e_beta and p - h e_beta for ascending beta, of
    each point p of a stack (..., n)."""
    beta = np.arange(np.shape(p)[-1])
    pts = np.repeat(np.asarray(p, dtype=float)[..., None, :], 2 * len(beta) + 1, axis=-2)
    pts[..., 1 + beta, beta] += h
    pts[..., 1 + len(beta) + beta, beta] -= h
    return pts


def central_partials(values: Array, n: int, h: float) -> Array:
    """d/dx_beta, beta ascending, of values[point, row] at the stencil rows."""
    return (values[:, 1:n + 1] - values[:, n + 1:]) / (2 * h)


def central_d(values: Array, n: int, k: int, h: float) -> Array:
    """Exterior derivative at each point of a coordinate k-form from its
    values[point, row] at the rows of stencil_points, by central differences.

    d alpha = sum_beta dx^beta ^ (d alpha / dx^beta), summed in ascending beta.
    """
    left, right, out, sign = _wedge_table(n, 1, k)
    partials = central_partials(values, n, h)
    return _bincount(out, sign * partials[:, left, right], math.comb(n, k + 1))


def numeric_d(form_fn: Callable[[Array], Array], n: int, k: int, p: Array,
              h: float = 1e-5) -> Array:
    """Exterior derivative of a coordinate k-form field by central FD."""
    values = np.array([[form_fn(q) for q in stencil_points(p, h)]])
    return central_d(values, n, k, h)[0]


# ------------------------------------------------------------ coframes


@dataclass
class CoframeField:
    """Orthonormal coframe f^i = sum_j A_{ij}(p) dx^j on a box chart; frame
    maps points (..., n) to the pair (A, J) of the coframe matrices
    (..., n, n) and their jacobians J[..., i, j, k] = dA_ij / dx_k
    (..., n, n, n), from one evaluation."""

    n: int
    domain: tuple
    frame: Callable[[Array], tuple[Array, Array]]
    h: float = 1e-5

    def sample_points(self, rng, count):
        """count points uniform in the middle 80% of each coordinate range,
        from rng.random(), such as random.Random(seed)'s."""
        return [np.array([lo + (0.1 + 0.8 * rng.random()) * (hi - lo)
                          for lo, hi in self.domain])
                for _ in range(count)]


def libm(fn: Callable[[float], float], x: Array) -> Array:
    """fn from math at each element of x (numpy's exp may differ in a bit)."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


class SingularCoframe(ValueError):
    """The coframe matrix is singular at point ``index`` of a stack."""
    def __init__(self, index: int):
        super().__init__("coframe matrix is singular at the sample point")
        self.index = index


def _structure(cf: CoframeField, pts: Array):
    """Coframe matrices A, frame vectors E = A^{-1} (e_j = sum_beta E[beta, j]
    d/dx_beta) and structure functions c at the rows pts[point, row]."""
    a, jac = (np.asarray(v, dtype=float) for v in cf.frame(pts))
    if a.shape != pts.shape[:-1] + (cf.n, cf.n):
        raise ValueError(f"coframe matrix must be {cf.n}x{cf.n}")
    singular = np.any(np.abs(np.linalg.det(a)) < 1e-12, axis=1)
    if singular.any():
        raise SingularCoframe(int(np.argmax(singular)))
    e = np.linalg.inv(a)
    # jac[..., i, alpha, beta] = dA_{i alpha}/dx_beta
    # m[..., i, j, k] = (e_j A_{i alpha}) e[alpha, k], summed over the
    # (alpha, beta) columns where jac is nonzero at some row, in row-major
    # order, with the products and sums of the three-operand einsum
    # "...iab,...bj,...ak->...ijk" in its order: equal to it bit for bit, as a
    # skipped term is an exact zero and a sum begun at +0 never reads -0.
    m = np.zeros(jac.shape[:-2] + (cf.n, cf.n))
    for alpha, beta in np.argwhere(jac.any(axis=tuple(range(jac.ndim - 2)))):
        m += (jac[..., :, alpha, beta, None] * e[..., beta, None, :])[..., None] \
            * e[..., alpha, None, None, :]
    return a, e, m.swapaxes(-1, -2) - m


def structure_functions(cf: CoframeField, p: Array) -> Array:
    """c[i, j, k] = c^i_{jk} with df^i = -1/2 c^i_{jk} f^j wedge f^k."""
    return _structure(cf, np.asarray(p, dtype=float)[None, None])[2][0, 0]


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
                t[tuple(i - 1 for i in perm)] = sort_index(perm)[1] * v
    return t


@dataclass
class CurvatureReport:
    riemann: Array            # R[..., i, j, l, k] = <R(e_i, e_j) e_k, e_l>
    ric: Array                # Ric[..., j, k]
    eigenvalues: Array
    symmetry_error: float | Array
    scal: float | Array

    @property
    def max_riemann(self):
        return float(np.max(np.abs(self.riemann)))

    @property
    def max_ric(self):
        return float(np.max(np.abs(self.ric)))


class Stencil:
    """A coframe at points p (P, n) and p +- h e_beta (rows of stencil_points),
    with coframe matrices ``a``, frame vectors ``e`` and structure functions
    ``c`` indexed [point, row]; row 0 is p.  h defaults to the coframe's step."""

    def __init__(self, cf: CoframeField, points: Array, h: float | None = None):
        self.n = cf.n
        self.h = cf.h if h is None else h
        self.a, self.e, self.c = _structure(cf, stencil_points(points, self.h))

    def d(self, values: Array, k: int) -> Array:
        """d at each point of a coordinate k-form given at the rows."""
        return central_d(values, self.n, k, self.h)

    def curvature(self, t: Array | None = None) -> CurvatureReport:
        """Curvature, Ricci tensor and Ricci eigenvalues at each point, for
        the Levi-Civita connection or, given a dense skew tensor t, the
        metric connection with that frame-constant torsion.  A Levi-Civita
        Ricci tensor asymmetric beyond SYMMETRY_TOL raises for the first such
        point.

        R(e_i, e_j) = e_i(M_j) - e_j(M_i) + [M_i, M_j] - c^m_{ij} M_m with
        (M_i)_{lk} = gamma_{ikl}; Ric_{jk} = sum_i R[i, j, i, k].
        """
        n, c = self.n, self.c[:, 0]
        m = connection_coefficients(self.c, t).swapaxes(-1, -2)  # M[q, row, i][l][k]
        m0 = m[:, 0]
        # coordinate partials of the M field, then convert to frame directions
        partials = central_partials(m, n, self.h)
        # dm[q, i, j] = directional derivative of M_j along the frame vector e_i
        dm = np.einsum("...bjlk,...bi->...ijlk", partials, self.e[:, 0])
        prod = m0[:, :, None] @ m0[:, None, :]   # prod[q, i, j] = M_i M_j
        riemann = dm - dm.swapaxes(1, 2) + prod - prod.swapaxes(1, 2)
        for mm in range(n):   # where c^m_{ij} != 0 only, m ascending, as per point
            np.subtract(riemann, c[:, mm, :, :, None, None] * m0[:, mm, None, None],
                        out=riemann, where=(c[:, mm] != 0)[..., None, None])
        ric = np.einsum("...ijik->...jk", riemann)
        sym_err = np.max(np.abs(ric - ric.swapaxes(-1, -2)), axis=(-2, -1))
        if t is None and np.any(sym_err > SYMMETRY_TOL):
            raise ValueError(
                f"Ricci asymmetry {sym_err[np.argmax(sym_err > SYMMETRY_TOL)]:.3e} "
                f"exceeds {SYMMETRY_TOL:.1e}; "
                "step too large or point too close to the domain edge")
        # a point with a non-finite Ricci tensor gets NaN eigenvalues, which
        # fail every residual check, instead of a LAPACK convergence error
        sym = 0.5 * (ric + ric.swapaxes(-1, -2))
        finite = np.isfinite(sym).all(axis=(-2, -1))
        eig = np.full(sym.shape[:-1], np.nan)
        eig[finite] = np.linalg.eigvalsh(sym[finite])
        return CurvatureReport(riemann, ric, eig, sym_err, np.trace(ric, axis1=1, axis2=2))


def stencils(cf: CoframeField, points):
    """Stencils over runs of CHUNK points in order; at a singular coframe the
    points before it come first, then the error, as a per-point loop has it."""
    for start in range(0, len(points), CHUNK):
        chunk = points[start:start + CHUNK]
        try:
            st = Stencil(cf, chunk)
        except SingularCoframe as exc:
            if exc.index:
                yield Stencil(cf, chunk[:exc.index])
            raise
        yield st


def riemann_ricci(cf: CoframeField, p: Array, torsion: Array | None = None,
                  h: float | None = None) -> CurvatureReport:
    """Curvature at an interior point p, for an optional frame torsion 3-form."""
    t = None if torsion is None else skew_tensor(torsion, cf.n)
    rep = Stencil(cf, np.asarray(p, dtype=float)[None], h).curvature(t)
    return CurvatureReport(*(value[0] for value in vars(rep).values()))


def torsion_ricci(t: Array) -> Array:
    """(1/4) sum_{i,j} T(x, e_i, e_j) T(y, e_i, e_j) for a dense skew tensor t."""
    return 0.25 * np.einsum("xij,yij->xy", t, t)
