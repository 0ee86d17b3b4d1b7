"""Exact invariant geometry on metric Lie algebras (dimension <= 8).

A left-invariant metric on a Lie group is encoded by structure constants
c^k_{ij} with respect to a frame declared orthonormal.  Everything downstream
— the invariant exterior derivative, Levi-Civita connection,
metric connections with prescribed skew torsion, curvature, Ricci tensors,
infinitesimal holonomy, parallel fields and spinors — is then a finite exact
computation over Q.

Conventions:

* d theta^k = -1/2 sum c^k_{ij} theta^i ^ theta^j, extended as an
  antiderivation (so d theta(X, Y) = -theta([X, Y]));
* Gamma_{ijk} = <nabla_{e_i} e_j, e_k>; connection matrices
  (M_i)_{lk} = Gamma_{ikl} act on coordinate columns;
* torsion T(X,Y,Z) = <nabla_X Y - nabla_Y X - [X,Y], Z>; prescribing a
  3-form T means nabla = nabla^g + 1/2 T(X, Y, -);
* curvature R(X,Y) = [nabla_X, nabla_Y] - nabla_{[X,Y]},
  Ric(Y,Z) = sum_i <R(e_i, Y) Z, e_i>.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .forms import Form
from .linalg import frac, parse_rational
from .spin import standard_rep

ZERO = Fraction(0)
HALF = Fraction(1, 2)


class LieAlgebraData:
    """Structure constants of a metric Lie algebra in an orthonormal frame."""

    def __init__(self, n, structure, check_jacobi=True):
        """structure: dict {(i, j): {k: c^k_{ij}}} for i < j, 1-based."""
        if not 0 < n <= 8:
            raise ValueError("dimension out of supported range 1..8")
        self.n = n
        clean = {}
        for (i, j), comp in structure.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"bracket index ({i},{j}) out of range")
            for k in comp:
                if not 1 <= k <= n:
                    raise ValueError(f"bracket target {k} out of range")
            if i == j:
                if any(frac(v) != 0 for v in comp.values()):
                    raise ValueError("c^k_{ii} must vanish")
                continue
            if i > j:
                i, j = j, i
                comp = {k: -frac(v) for k, v in comp.items()}
            tgt = clean.setdefault((i, j), {})
            for k, v in comp.items():
                v = frac(v)
                if v == 0:
                    continue
                tgt[k] = tgt.get(k, ZERO) + v
                if tgt[k] == 0:
                    del tgt[k]
        self.structure = {ij: comp for ij, comp in clean.items() if comp}
        if check_jacobi and not self.jacobi_holds():
            raise ValueError("structure constants violate the Jacobi identity")

    # ---------------- brackets ----------------

    def c(self, i, j, k):
        """c^k_{ij}; antisymmetric in (i, j)."""
        if i == j:
            return ZERO
        if i < j:
            return self.structure.get((i, j), {}).get(k, ZERO)
        return -self.structure.get((j, i), {}).get(k, ZERO)

    def jacobi_holds(self):
        """[[e_i, e_j], e_k] + cyclic = 0 for all i < j < k, summed over the
        nonzero structure constants only."""
        br = {}
        for (i, j), comp in self.structure.items():
            br[(i, j)] = comp
            br[(j, i)] = {k: -v for k, v in comp.items()}
        n = self.n
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    acc = {}
                    for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, cm in br.get((p, q), {}).items():
                            for l, cl in br.get((m, r), {}).items():
                                acc[l] = acc.get(l, ZERO) + cm * cl
                    if any(acc.values()):
                        return False
        return True

    # ---------------- invariant calculus ----------------

    def ce_d(self, form):
        """Invariant exterior derivative (Chevalley-Eilenberg differential): the
        derivation of degree 1 sending theta^k to d theta^k (Form.derivation)."""
        if form.n != self.n:
            raise ValueError("form frame dimension does not match the algebra")
        return form.derivation(self._d_basis)

    @cached_property
    def _d_basis(self):
        """d theta^k = -sum_{i<j} c^k_{ij} theta^{ij}, one Form per k."""
        basis = [{} for _ in range(self.n)]
        for ij, comp in self.structure.items():
            for k, v in comp.items():
                basis[k - 1][ij] = -v
        return [Form(self.n, b) for b in basis]

    def cartan_three_form(self):
        """The 3-form <[X, Y], Z> of the algebra.

        Only defined when the tensor is totally skew, i.e. the metric is
        ad-invariant (bi-invariant on the group).
        """
        n = self.n
        form = Form(
            n,
            {
                (i, j, k): self.c(i, j, k)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                for k in range(j + 1, n + 1)
            },
        )
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    if form[(i, j, k)] != self.c(i, j, k):
                        raise ValueError("metric is not ad-invariant: <[X,Y],Z> is not a 3-form")
        return form

    def lie_derivative(self, x, form):
        """Lie derivative along the invariant field x, a frame index or
        coordinates as Form.hook takes them.

        Cartan formula: L_X = d (X hook .) + X hook d.
        """
        return self.ce_d(form.hook(x)) + self.ce_d(form).hook(x)


@dataclass(frozen=True)
class InvariantConnection:
    """Metric connection on a metric Lie algebra, by coefficients Gamma_{ijk}."""

    algebra: LieAlgebraData
    gamma: tuple          # gamma[i][j][k] = Gamma_{ijk} = <nabla_{e_i} e_j, e_k>, 0-based
    torsion: Form

    @property
    def n(self):
        return self.algebra.n

    def matrix(self, i):
        """(M_i)_{lk} = Gamma_{ikl}: the matrix of nabla_{e_i} on coordinates."""
        g = self.gamma[i - 1]
        n = self.n
        return [[g[k][l] for k in range(n)] for l in range(n)]

    def torsion_tensor(self):
        """Recompute the torsion 3-tensor from Gamma; returns a Form if skew.

        t_{ijk} = Gamma_{ijk} - Gamma_{jik} - c^k_{ij} from the nonzero Gamma
        and brackets; skewness is checked on the nonzero entries."""
        t = {}
        for i, gi in enumerate(self.gamma):
            for j, gij in enumerate(gi):
                for k, g in enumerate(gij):
                    if g:
                        t[(i, j, k)] = t.get((i, j, k), ZERO) + g
                        t[(j, i, k)] = t.get((j, i, k), ZERO) - g
        for (i, j), comp in self.algebra.structure.items():
            for k, v in comp.items():
                t[(i - 1, j - 1, k - 1)] = t.get((i - 1, j - 1, k - 1), ZERO) - v
                t[(j - 1, i - 1, k - 1)] = t.get((j - 1, i - 1, k - 1), ZERO) + v
        for (i, j, k), v in t.items():
            if v and t.get((i, k, j), ZERO) != -v:
                raise ValueError("torsion tensor is not totally skew")
        return Form(self.n, {(i + 1, j + 1, k + 1): t[(i, j, k)]
                             for i, j, k in sorted(t) if i < j < k})

    # ---------------- derivatives of tensors ----------------

    def nabla_form(self, i, form):
        """Covariant derivative of an invariant form along e_i: the derivation
        of degree 0 sending e_l to -sum_j Gamma_{ijl} e_j (Form.derivation)."""
        g, n = self.gamma[i - 1], self.n
        return form.derivation([Form(n, {(j + 1,): -g[j][l] for j in range(n) if g[j][l]})
                                for l in range(n)])

    def parallel_spinors(self):
        """Basis of constant spinors with nabla psi = 0 (dimension 7).

        The spin lift of nabla_{e_i} is Clifford multiplication by the
        2-form 1/2 sum_{k<l} Gamma_{ikl} e_kl; the parallel spinors are the
        common kernel of the seven stacked operators.
        """
        rep = standard_rep()
        rows = []
        for g in self.gamma:
            two_form = Form(7, {(k + 1, l + 1): HALF * g[k][l]
                                for k in range(7) for l in range(k + 1, 7) if g[k][l]})
            rows.extend(rep.operator(two_form))
        return linalg.nullspace(rows)

    # ---------------- curvature ----------------

    @cached_property
    def riemann(self):
        """riemann[i][j] = matrix of R(e_{i+1}, e_{j+1}), as nested tuples.

        R(e_i, e_j) = [M_i, M_j] - sum_k c^k_{ij} M_k is built from the
        nonzero entries of the connection matrices only (linalg.commutator),
        and each pair i < j is computed once; R(e_j, e_i) = -R(e_i, e_j) and
        R(e_i, e_i) = 0 are filled in by skew symmetry.
        """
        n = self.n
        mats = [self.matrix(i) for i in range(1, n + 1)]
        zero = ((ZERO,) * n,) * n
        r = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m = linalg.commutator(mats[i], mats[j])
                for k, ck in self.algebra.structure.get((i + 1, j + 1), {}).items():
                    for row, mk in zip(m, mats[k - 1]):
                        for l, y in enumerate(mk):
                            if y:
                                row[l] -= ck * y
                r[i][j] = tuple(tuple(row) for row in m)
                r[j][i] = tuple(tuple(-x for x in row) for row in m)
        return tuple(tuple(row) for row in r)


@dataclass(frozen=True)
class CurvatureData:
    connection: InvariantConnection
    riemann: tuple        # connection.riemann: R(e_i, e_j) stored once per pair
                          # i < j, the rest filled by skew symmetry
    ric_nabla: tuple      # Ric(Y,Z) = sum_i <R(e_i,Y)Z, e_i>
    ric_g: tuple          # same for the Levi-Civita connection
    scal_g: Fraction

    def is_nabla_flat(self):
        return all(
            all(all(x == 0 for x in row) for row in self.riemann[i][j])
            for i in range(len(self.riemann))
            for j in range(len(self.riemann))
        )


def levi_civita(algebra):
    """The Levi-Civita connection: the torsion-free case of with_torsion."""
    return with_torsion(algebra, Form.zero(algebra.n))


def with_torsion(algebra, torsion):
    """The metric connection nabla = nabla^g + 1/2 T(X, Y, -).

    Koszul formula with skew torsion in the orthonormal frame:
    Gamma_{ijk} = 1/2 (c^k_{ij} - c^i_{jk} + c^j_{ki} + T_{ijk}).
    """
    if torsion.degrees() not in ([], [3]):
        raise ValueError("torsion must be a 3-form")
    if torsion.n != algebra.n:
        raise ValueError("torsion frame dimension does not match the algebra")
    n = algebra.n
    g = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    # c^k_{ij} enters Gamma_{ijk} and Gamma_{jki} with +, Gamma_{kij} with -, and
    # the (i, j)-swapped slot of each with the opposite sign
    for (i, j), comp in algebra.structure.items():
        for k, v in comp.items():
            h = HALF * v
            for a, b, c, s in ((i, j, k, h), (j, i, k, -h), (k, i, j, -h),
                               (k, j, i, h), (j, k, i, h), (i, k, j, -h)):
                g[a - 1][b - 1][c - 1] += s
    # T_{abc} enters its six permutations with their signs
    for (a, b, c), v in torsion.coeffs.items():
        h = HALF * v
        for p, q, r, s in ((a, b, c, h), (b, c, a, h), (c, a, b, h),
                           (b, a, c, -h), (a, c, b, -h), (c, b, a, -h)):
            g[p - 1][q - 1][r - 1] += s
    gamma = tuple(tuple(tuple(row) for row in gi) for gi in g)
    return InvariantConnection(algebra, gamma, torsion)


def _ricci(riemann):
    """Ric(Y, Z) = sum_i <R(e_i, Y) Z, e_i> from the curvature matrices."""
    n = len(riemann)
    return tuple(
        tuple(sum((riemann[i][j][i][k] for i in range(n)), ZERO) for k in range(n))
        for j in range(n)
    )


def curvature(conn):
    ric_g = _ricci(levi_civita(conn.algebra).riemann)
    return CurvatureData(
        connection=conn,
        riemann=conn.riemann,
        ric_nabla=_ricci(conn.riemann),
        ric_g=ric_g,
        scal_g=sum((ric_g[i][i] for i in range(conn.n)), ZERO),
    )


def ric_from_torsion(torsion):
    """The quadratic Ricci candidate (1/4) sum_{ij} T(X,e_i,e_j) T(Y,e_i,e_j)."""
    if torsion.degrees() not in ([], [3]):
        raise ValueError("expected a 3-form")
    n = torsion.n
    # (e_i hook e_x hook T) has components T(x, i, j) over j; summing the
    # inner products over i covers each ordered pair (i, j) once, and the
    # double sum over ordered pairs is twice the sum over i < j.
    hooks = [[torsion.hook_basis(x).hook_basis(i) for i in range(1, n + 1)] for x in range(1, n + 1)]
    out = linalg.zeros(n, n)
    for x in range(n):
        for y in range(n):
            s = sum((hooks[x][i].inner(hooks[y][i]) for i in range(n)), ZERO)
            out[x][y] = Fraction(1, 4) * s
    return out


def holonomy_algebra(conn):
    """Infinitesimal holonomy: span of curvature endomorphisms, closed under
    bracketing with the nabla matrices and under internal brackets.

    The connection is metric, so the span lies in so(n): the closure stops
    as soon as the basis has n(n - 1)/2 elements.
    """
    n = conn.n
    full = n * (n - 1) // 2
    mats = [conn.matrix(i) for i in range(1, n + 1)]
    basis = []          # list of matrices
    rows = []           # their flattenings, for rank tests

    def candidates():
        for i in range(n):
            for j in range(i + 1, n):
                yield conn.riemann[i][j]
        grew = True
        while grew:
            size = len(basis)
            for b in list(basis):
                for m in mats:
                    yield linalg.commutator(m, b)
            current = list(basis)
            for x in range(len(current)):
                for y in range(x + 1, len(current)):
                    yield linalg.commutator(current[x], current[y])
            grew = len(basis) > size

    for m in candidates():
        v = [x for row in m for x in row]
        if any(v) and not (rows and linalg.in_span(v, rows)):
            basis.append(m)
            rows.append(v)
            if len(basis) == full:
                break
    return basis


def parallel_fields(conn):
    """Basis of invariant fields theta with nabla theta = 0.

    Each returned field is checked against the identity d theta = theta hook T.
    """
    n = conn.n
    stacked = []
    for i in range(1, n + 1):
        stacked.extend(conn.matrix(i))
    kernel = linalg.nullspace(stacked)
    for v in kernel:
        theta = Form(n, {(i,): v[i - 1] for i in range(1, n + 1) if v[i - 1]})
        lhs = conn.algebra.ce_d(theta)
        rhs = conn.torsion.hook(v)
        if lhs != rhs:
            raise AssertionError(
                "parallel field violates d theta = theta hook T — connection data inconsistent"
            )
    return kernel


def integrability_residual(conn, spinors):
    """The three parallel-spinor integrability residuals for a torsion connection.

    Returns one triple (per_direction, r_sigma, r_square) per spinor psi, in
    the order given, where per_direction[i] is the spinor
    ((e_i hook dT) + 2 nabla_{e_i} T) . psi, r_sigma = (3 dT - 2 sigma_T) . psi
    and r_square = T . (T . psi) - |T|^2 psi.  dT and the nine operators
    (seven per direction, sigma and T) depend only on the connection and are
    built once.
    """
    if conn.n != 7:
        raise ValueError("integrability residuals require dimension 7")
    rep = standard_rep()
    t = conn.torsion
    dt = conn.algebra.ce_d(t)
    per_ops = [rep.operator(dt.hook_basis(i) + conn.nabla_form(i, t).scale(2))
               for i in range(1, 8)]
    sigma_op = rep.operator(dt.scale(3) - t.sigma().scale(2))
    t_op = rep.operator(t)
    t2 = t.norm2()
    return [([linalg.matvec(op, psi) for op in per_ops],
             linalg.matvec(sigma_op, psi),
             [x - t2 * y
              for x, y in zip(linalg.matvec(t_op, linalg.matvec(t_op, psi)), psi)])
            for psi in spinors]


# ---------------- constructors ----------------


def abelian(n):
    return LieAlgebraData(n, {})


def su2(lam, n=3, slots=(1, 2, 3)):
    """su(2) scaled by lam on the given slots of an n-dimensional frame:
    [e_a, e_b] = lam e_c cyclically for (a, b, c) = slots."""
    lam = frac(lam)
    a, b, c = slots
    structure = {
        (a, b): {c: lam},
        (b, c): {a: lam},
        (c, a): {b: lam},
    }
    return LieAlgebraData(n, structure)


def r4_su2(lam):
    """R^4 + su(2)_lam inside R^7, with the su(2) frame on the slots (1, 2, 7)."""
    return su2(lam, n=7, slots=(1, 2, 7))


def relabel(algebra, perm):
    """Push the algebra through the frame permutation e_i -> e_{perm[i-1]}."""
    n = algebra.n
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("perm must be a permutation of 1..n")
    structure = {}
    for (i, j), comp in algebra.structure.items():
        structure[(perm[i - 1], perm[j - 1])] = {perm[k - 1]: v for k, v in comp.items()}
    return LieAlgebraData(n, structure)


# ---------------- serialization ----------------


def parse_algebra(text, n=None):
    """Parse 'i j k value' lines (c^k_{ij}); '#' starts a comment.

    A '# dimension N' comment fixes the frame dimension; otherwise it is
    inferred as the largest index seen.  An explicit n argument must agree
    with the header when both are given.  Indices and N are ASCII digits.
    """
    entries = {}
    max_idx = 0
    header_n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        comment = raw.split("#", 1)
        if len(comment) == 2:
            m = re.match(r"\s*dimension\s+(\S+)\s*$", comment[1])
            if m:
                if not re.fullmatch(r"[0-9]+", m.group(1)):
                    raise ValueError(f"line {lineno}: dimension {m.group(1)!r} "
                                     "is not ASCII digits")
                header_n, header_line = int(m.group(1)), lineno
        line = comment[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 'i j k value', got {raw!r}")
        try:
            if not all(re.fullmatch(r"[0-9]+", p) for p in parts[:3]):
                raise ValueError(f"indices {parts[:3]} are not ASCII digits")
            i, j, k = (int(p) for p in parts[:3])
            v = parse_rational(parts[3])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if i == j:
            raise ValueError(f"line {lineno}: c^k_(ii) must vanish")
        max_idx = max(max_idx, i, j, k)
        key = (i, j) if i < j else (j, i)
        sign = 1 if i < j else -1
        tgt = entries.setdefault(key, {})
        prev = tgt.get(k)
        val = sign * v
        if prev is not None and prev != val:
            raise ValueError(f"line {lineno}: inconsistent duplicate for c^{k}_({i}{j})")
        tgt[k] = val
    if n is None:
        n = header_n if header_n is not None else max_idx
    elif header_n is not None and header_n != n:
        raise ValueError(f"line {header_line}: header declares dimension "
                         f"{header_n}, expected {n}")
    return LieAlgebraData(n, entries)

