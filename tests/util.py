"""Shared hypothesis strategies and small exact helpers for the test suite."""

from fractions import Fraction
from itertools import combinations
from math import comb, cos, inf, isqrt, log, pi, sin

import numpy as np
from hypothesis import strategies as st

from g2torsion import coframe as co
from g2torsion.classifier import reference_spinors
from g2torsion.forms import Form, basis_indices
from g2torsion.g2 import lambda27_basis
from g2torsion.linalg import frac, identity, mat_scale, matmul, nullspace, transpose
from g2torsion.spin import standard_rep

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
nonzero_fractions = small_fractions.filter(lambda x: x != 0)


def forms(n, degree, max_terms=5, coeffs=small_fractions):
    """Strategy for exact k-forms on an n-frame with few nonzero terms."""
    idx = basis_indices(n, degree)

    def build(pairs):
        return Form(n, dict(pairs))

    return st.lists(
        st.tuples(st.sampled_from(idx), coeffs),
        min_size=0, max_size=max_terms, unique_by=lambda kv: kv[0],
    ).map(build)


def vectors(n, coeffs=small_fractions):
    return st.lists(coeffs, min_size=n, max_size=n)


def perm_parity(seq):
    """Inversion-count parity sign, an oracle independent of the library."""
    inv = sum(
        1
        for (i, a), (j, b) in combinations(enumerate(seq), 2)
        if a > b
    )
    return -1 if inv % 2 else 1


def rational_matrix(n, coeffs=small_fractions):
    return st.lists(vectors(n, coeffs), min_size=n, max_size=n)


def as_fraction_vector(values):
    return [Fraction(v) for v in values]


def is_orthogonal(q):
    n = len(q)
    return matmul(transpose(q), q) == identity(n)


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def pullback(form, q):
    """Substitute e_i -> sum_j q[i][j] e_j in every wedge monomial.

    For a k-form alpha the coefficients transform as
    (pullback alpha)_J = sum_I alpha_I det(q[I, J]) with q[I, J] the
    submatrix on rows I and columns J.
    """
    n = form.n
    rows = [Form(n, {(j,): q[i - 1][j - 1] for j in range(1, n + 1)})
            for i in range(1, n + 1)]
    out = Form.zero(n)
    for idx, c in form.coeffs.items():
        term = Form(n, {(): c})
        for i in idx:
            term = term.wedge(rows[i - 1])
        out = out + term
    return out


def is_metric(conn):
    """Gamma_{ijk} = -Gamma_{ikj}: nabla preserves the frame's metric."""
    n = conn.n
    return all(conn.gamma[i][j][k] == -conn.gamma[i][k][j]
               for i in range(n) for j in range(n) for k in range(n))


# a few exact Pythagorean cos/sin pairs for building rational rotations
_PYTH = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
    (Fraction(7, 25), Fraction(24, 25)),
    (Fraction(20, 29), Fraction(21, 29)),
    (Fraction(9, 41), Fraction(40, 41)),
]


def plane_rotation(n, i, j, c, s):
    q = identity(n)
    q[i][i] = c
    q[j][j] = c
    q[i][j] = -s
    q[j][i] = s
    return q


def frame_sigma(form, frame):
    """Form.sigma in the frame given by the rows of an orthogonal matrix:
    (1/2) sum_i (f_i . T)^(f_i . T) with f_i the i-th row."""
    acc = Form.zero(form.n)
    for row in frame:
        part = form.hook(list(row))
        acc = acc + part.wedge(part)
    return acc.scale(Fraction(1, 2))


def random_rotation(n, rng, steps=6):
    """Exactly orthogonal rational matrix: product of Pythagorean plane rotations."""
    q = identity(n)
    for _ in range(steps):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n - 1))
        if j >= i:
            j += 1
        c, s = _PYTH[int(rng.integers(0, len(_PYTH)))]
        if rng.integers(0, 2):
            s = -s
        q = matmul(q, plane_rotation(n, i, j, c, s))
    return q


# Reference implementations in Fraction arithmetic: the library's integer
# and sparse versions must return the same rationals.  Further down,
# per-call float references that the batched coframe stencil must match bit
# for bit.


def reference_rref(m):
    """Gauss-Jordan over Fraction with first-nonzero pivots: (R, pivots)."""
    r = [list(row) for row in m]
    rows = len(r)
    cols = len(r[0]) if rows else 0
    pivots = []
    pr = 0
    for pc in range(cols):
        piv = None
        for i in range(pr, rows):
            if r[i][pc] != 0:
                piv = i
                break
        if piv is None:
            continue
        r[pr], r[piv] = r[piv], r[pr]
        inv = Fraction(1) / r[pr][pc]
        r[pr] = [x * inv for x in r[pr]]
        for i in range(rows):
            if i != pr and r[i][pc] != 0:
                f = r[i][pc]
                r[i] = [x - f * y for x, y in zip(r[i], r[pr])]
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    return r, pivots


def dense_matmul(a, b):
    """AB as a sum from ZERO over every k, zero products included."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in transpose(b)]
            for row in a]


def dense_commutator(a, b):
    return mat_sub(dense_matmul(a, b), dense_matmul(b, a))


def dense_matvec(a, v):
    """Av as a sum from ZERO over every entry, zero products included."""
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def reference_kernel_dims(k):
    """dim {Sigma in Lambda^3_27 : Sigma . Psi_i = 0 for the first k
    spinors}, rebuilding the 27 operators for this k alone and acting on
    the spinors by dense products."""
    basis = lambda27_basis()
    rep = standard_rep()
    ops = [rep.operator(bf) for bf in basis]
    rows = []
    for psi in reference_spinors()[:k]:
        acted = [dense_matvec(op, list(psi)) for op in ops]
        for comp in range(8):
            rows.append([acted[col][comp] for col in range(len(basis))])
    return len(nullspace(rows))


def reference_riemann(conn):
    """R(e_i, e_j) = [M_i, M_j] - sum_k c^k_{ij} M_k for every pair i < j,
    as {(i, j): matrix} (0-based) from dense products of the connection
    matrices."""
    n = conn.n
    mats = [conn.matrix(i) for i in range(1, n + 1)]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            m = dense_commutator(mats[i], mats[j])
            for k in range(n):
                ck = conn.algebra.c(i + 1, j + 1, k + 1)
                if ck:
                    m = mat_sub(m, mat_scale(ck, mats[k]))
            out[(i, j)] = m
    return out


def reference_holonomy_dim(conn):
    """Dimension of the span of the curvature endomorphisms, closed under
    dense brackets with the connection matrices and with each other.  A
    metric connection's span lies in so(n), so the closure stops once it
    has n(n - 1)/2 dimensions."""
    n = conn.n
    mats = [conn.matrix(i) for i in range(1, n + 1)]
    basis = []
    echelon = []            # (pivot, flattened row scaled to 1 at the pivot)

    def grow(candidates):
        grew = False
        for m in candidates:
            v = [x for row in m for x in row]
            for p, row in echelon:
                if v[p]:
                    f = v[p]
                    v = [x - f * y for x, y in zip(v, row)]
            piv = next((k for k, x in enumerate(v) if x), None)
            if piv is not None:
                echelon.append((piv, [x / v[piv] for x in v]))
                basis.append(m)
                grew = True
        return grew

    full = n * (n - 1) // 2
    grow(reference_riemann(conn).values())
    # `|`, not `or`: each round tries both kinds of bracket
    while len(basis) < full and (
            grow([dense_commutator(m, b) for b in list(basis) for m in mats])
            | grow([dense_commutator(x, y) for x, y in combinations(list(basis), 2)])):
        pass
    return len(basis)


def reference_with_torsion(algebra, torsion):
    """Gamma_{ijk} = 1/2 (c^k_{ij} - c^i_{jk} + c^j_{ki} + T_{ijk}), entry by
    entry over all n^3 slots."""
    c = algebra.c
    r = range(1, algebra.n + 1)
    return tuple(
        tuple(
            tuple(Fraction(1, 2) * (c(i, j, k) - c(j, k, i) + c(k, i, j) + torsion[(i, j, k)])
                  for k in r)
            for j in r)
        for i in r)


def reference_torsion_tensor(conn):
    """t_{ijk} = Gamma_{ijk} - Gamma_{jik} - c^k_{ij} over all n^3 slots, as
    a Form; raises unless t_{ijk} = -t_{ikj} at every slot."""
    n = conn.n
    alg = conn.algebra
    t = [[[conn.gamma[i][j][k] - conn.gamma[j][i][k] - alg.c(i + 1, j + 1, k + 1)
           for k in range(n)]
          for j in range(n)]
         for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if t[i][j][k] != -t[i][k][j]:
                    raise ValueError("torsion tensor is not totally skew")
    return Form(n, {(i + 1, j + 1, k + 1): t[i][j][k]
                    for i, j, k in combinations(range(n), 3)})


def reference_ce_d(algebra, form):
    """d as an antiderivation: sum_t (-1)^t e_{I<t} ^ d e_{i_t} ^ e_{I>t},
    with d e^k = -sum_{i<j} c^k_{ij} e^{ij} read through c() and each
    position a pair of wedges."""
    n = algebra.n
    d_basis = [Form(n, {(i, j): -algebra.c(i, j, k)
                        for i, j in combinations(range(1, n + 1), 2)})
               for k in range(1, n + 1)]
    out = Form.zero(n)
    for idx, coeff in form.coeffs.items():
        for t, i in enumerate(idx):
            sign = -1 if t % 2 else 1
            prefix = Form(n, {idx[:t]: sign * coeff})
            suffix = Form(n, {idx[t + 1:]: 1})
            out = out + prefix.wedge(d_basis[i - 1]).wedge(suffix)
    return out


def reference_nabla_form(conn, i, form):
    """nabla_{e_i} of an invariant form, slot by slot:
    (nabla_{e_i} alpha)(e_J) = -sum_s alpha(.., nabla_{e_i} e_{j_s}, ..) with
    nabla_{e_i} e_j = sum_k Gamma_ijk e_k, each value of alpha read from its
    sorted coefficient and the inversion parity of the slots."""
    n = conn.n
    g = conn.gamma[i - 1]

    def value(slots):
        if len(set(slots)) < len(slots):
            return 0
        return perm_parity(slots) * form.coeffs.get(tuple(sorted(slots)), 0)

    out = {}
    for k in {len(idx) for idx in form.coeffs}:
        for J in combinations(range(1, n + 1), k):
            out[J] = -sum(g[j - 1][m - 1] * value(J[:s] + (m,) + J[s + 1:])
                          for s, j in enumerate(J) for m in range(1, n + 1))
    return Form(n, out)


def reference_quadric_member(b, mu):
    """Fraction search for (A, B, C, D) with A + D = b + 2mu/7 and
    (A - D)^2 + 4B^2 + 4C^2 = 2mu^2 - (A + D)^2, or None."""
    b, mu = frac(b), frac(mu)
    s = b + Fraction(2, 7) * mu
    target = 2 * mu * mu - s * s
    if target < 0:
        return None
    for den in (1, 2, 3, 4, 5, 6, 7, 8, 10, 14):
        for bnum in range(0, 30):
            B = Fraction(bnum, den)
            if 4 * B * B > target:
                break
            for cnum in range(0, 30):
                C = Fraction(cnum, den)
                w2 = target - 4 * B * B - 4 * C * C
                if w2 < 0:
                    break
                rn, rd = isqrt(w2.numerator), isqrt(w2.denominator)
                if rn * rn != w2.numerator or rd * rd != w2.denominator:
                    continue
                w = Fraction(rn, rd)
                return ((s + w) / 2, B, C, (s - w) / 2)
    return None


def fd_frame(matrix, n, h):
    """A coframe's frame callable from its matrix alone: the jacobian by
    central differences of step h, one displaced evaluation per coordinate."""
    def frame(p):
        p = np.asarray(p, dtype=float)
        jac = np.zeros(p.shape[:-1] + (n, n, n))
        for k in range(n):
            pp, pm = p.copy(), p.copy()
            pp[..., k] += h
            pm[..., k] -= h
            jac[..., k] = (matrix(pp) - matrix(pm)) / (2 * h)
        return matrix(p), jac

    return frame


def fd_convergence_order(cf, p, h=1e-3):
    """Observed order of the central-difference jacobian, at steps h and h/2,
    against the jacobian the coframe's frame returns."""
    p = np.asarray(p, dtype=float)
    exact = cf.frame(p)[1]

    def error(step):
        fd = fd_frame(lambda q: cf.frame(q)[0], cf.n, step)(p)[1]
        return np.max(np.abs(fd - exact))

    e1, e2 = error(h), error(h / 2)
    return inf if e2 == 0 else log(e1 / e2, 2)


def flat_coframe(n, box=None):
    box = box or tuple((0.0, 1.0) for _ in range(n))

    def frame(p):
        return (np.broadcast_to(np.eye(n), p.shape[:-1] + (n, n)),
                np.zeros(p.shape[:-1] + (n, n, n)))

    return co.CoframeField(n, box, frame)


def sphere_coframe(radius=1.0):
    """Round 2-sphere chart: f^1 = r dtheta, f^2 = r sin(theta) dphi."""

    def frame(p):
        a = np.zeros(p.shape[:-1] + (2, 2))
        a[..., 0, 0] = radius
        a[..., 1, 1] = radius * co.libm(sin, p[..., 0])
        jac = np.zeros(p.shape[:-1] + (2, 2, 2))
        jac[..., 1, 1, 0] = radius * co.libm(cos, p[..., 0])
        return a, jac

    return co.CoframeField(2, ((0.4, pi - 0.4), (0.0, 2 * pi)), frame)


def sphere_fd_coframe(radius, h):
    """The round 2-sphere chart with its jacobian by central differences."""
    sphere = sphere_coframe(radius)
    return co.CoframeField(2, sphere.domain,
                           fd_frame(lambda p: sphere.frame(p)[0], 2, h), h=h)


def singular_coframe(x_singular, h=1e-5):
    """diag(1, x - x_singular) on the unit square: singular on x = x_singular."""
    def matrix(p):
        a = np.zeros(p.shape[:-1] + (2, 2))
        a[..., 0, 0] = 1.0
        a[..., 1, 1] = p[..., 0] - x_singular
        return a

    return co.CoframeField(2, ((0.0, 1.0), (0.0, 1.0)), fd_frame(matrix, 2, h), h=h)


def reference_frame_to_coords(components, a, k):
    """One product with the full k-th compound matrix, for any form."""
    return components @ co.compound(a, k)


def reference_structure_functions(cf, p):
    """c^i_{jk} at one point from its own coframe, inverse and jacobian."""
    p = np.asarray(p, dtype=float)
    a, jac = cf.frame(p)
    if abs(np.linalg.det(a)) < 1e-12:
        raise ValueError("coframe matrix is singular at the sample point")
    e = np.linalg.inv(a)
    m = np.einsum("iab,bj,ak->ijk", jac, e, e)
    return m.transpose(0, 2, 1) - m


def reference_levi_civita(c):
    cl = np.transpose(c, (1, 2, 0))
    return 0.5 * (cl - np.transpose(cl, (2, 0, 1)) + np.transpose(cl, (1, 2, 0)))


def reference_numeric_d(form_fn, n, k, p, h=1e-5):
    """Central-difference d, one form_fn call per displaced point."""
    partials = np.array([(form_fn(p + step) - form_fn(p - step)) / (2 * h)
                         for step in h * np.eye(n)])
    left, right, out, sign = co._wedge_table(n, 1, k)
    return np.bincount(out, weights=sign * partials[left, right],
                       minlength=comb(n, k + 1))


def reference_riemann_ricci(cf, p, torsion=None, h=None):
    """Curvature with structure functions recomputed at every displaced point."""
    p = np.asarray(p, dtype=float)
    h = h if h is not None else cf.h
    n = cf.n
    c = reference_structure_functions(cf, p)
    half_t = None if torsion is None else 0.5 * co.skew_tensor(torsion, n)

    def m_matrices(c_q):
        g = reference_levi_civita(c_q)
        if half_t is not None:
            g = g + half_t
        return g.transpose(0, 2, 1)

    m0 = m_matrices(c)
    partials = np.zeros((n, n, n, n))
    for beta in range(n):
        pp, pm = p.copy(), p.copy()
        pp[beta] += h
        pm[beta] -= h
        partials[beta] = (m_matrices(reference_structure_functions(cf, pp))
                          - m_matrices(reference_structure_functions(cf, pm))) / (2 * h)
    e = np.linalg.inv(cf.frame(p)[0])
    dm = np.einsum("bjlk,bi->ijlk", partials, e)
    prod = m0[:, None] @ m0[None, :]
    riemann = dm - dm.transpose(1, 0, 2, 3) + prod - prod.transpose(1, 0, 2, 3)
    for mm in range(n):
        i, j = np.nonzero(c[mm])
        riemann[i, j] -= c[mm, i, j][:, None, None] * m0[mm]
    ric = np.einsum("ijik->jk", riemann)
    sym_err = float(np.max(np.abs(ric - ric.T)))
    if sym_err > co.SYMMETRY_TOL and torsion is None:
        raise ValueError(f"Ricci asymmetry {sym_err:.3e}")
    eig = np.linalg.eigvalsh(0.5 * (ric + ric.T))
    return co.CurvatureReport(riemann, ric, eig, sym_err, float(np.trace(ric)))


# Checks on a Liouville solution that only the tests use.


def ode_rhs(sol, x):
    """The ODE right-hand side -8 a^2 x e^{u(x)} at x."""
    return -8.0 * sol.config.a ** 2 * np.asarray(x) * np.exp(sol.u(x))


def is_concave(sol):
    return bool(np.all(sol.d2u(sol.grid) <= 1e-12))
