"""Classification of eigen-torsions in the 27-dimensional 3-form component.

Setting: three distinguished orthonormal directions theta_1 = e_1,
theta_2 = e_2, theta_3 = e_7 (so the calibration form gives
omega3(theta_1, theta_2, theta_3) = 1), the distinguished spinor Psi_0, and
the derived spinors Psi_i = theta_i . Psi_0.  A scalar parameter mu sets the
scale; all relations are homogeneous in mu.

This module solves, exactly over Q:

* the affine family of Sigma in Lambda^3_27 with Sigma . Psi_i = m_i Psi_i
  (dimension 9 for every rational eigentriple), together with its closed-form
  parameterization and the derived invariants a, b, c.  The system's matrix
  does not depend on the triple and its right-hand side is linear in it, so
  the system is eliminated once per process with one right-hand-side column
  per m_i, and each family is combined from the reduced columns: the same
  Fractions as an elimination at that triple, because the reduced row
  echelon form is unique;
* kernel dimensions of the spinor-annihilation conditions (27, 14, 9 for
  one, three, four spinors);
* the quadratic equation m^2 + (2/7) mu m = (48/49) mu^2 for the
  eigenvalues and the induced four-value enumeration of T(theta_1, theta_2,
  theta_3);
* the degenerate-determinant analysis of theta_3 hook T on the
  theta_3-orthogonal complement, in closed form and by brute force;
* the two-parameter torsion normal form when theta_1 hook T =
  theta_2 hook T = 0, its two algebraic branches, and the exclusion of the
  second branch;
* the derived 2-form triple Omega2_i and its derivative/flow identities in
  the 5-dimensional reduced frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt

from . import linalg
from .forms import Form, basis_indices, form_to_vector, vector_to_form
from .g2 import lambda1_7_rows, standard_omega3
from .linalg import frac
from .liegroup import ric_from_torsion
from .spin import standard_rep

ZERO = Fraction(0)
ONE = Fraction(1)

#: the distinguished orthonormal triple (indices into the 7-frame)
THETA_SLOTS = (1, 2, 7)

#: slots whose derived spinors carry the eigenvalue labels m_1, m_2, m_3.
#: The labeling is fixed by requiring the invariants of the solved family to
#: be the linear forms a = -(m_1 - m_2 + m_3)/4 and b = (-m_1 + m_2 + m_3)/4;
#: with labels attached to (e_1, e_2, e_7) instead, b would come out as
#: (m_1 + m_2 - m_3)/4.  The choice is representation-independent.
EIGEN_SLOTS = (7, 2, 1)

#: the reduced 5-frame: f_1, .., f_5 = e_3, e_4, e_5, e_6, e_7
F_TO_E = (3, 4, 5, 6, 7)
E_TO_F = {e: f + 1 for f, e in enumerate(F_TO_E)}

IDX3 = basis_indices(7, 3)


# ---------------------------------------------------------------- spinors


@lru_cache(maxsize=1)
def reference_spinors():
    """(Psi_0, Psi_1, Psi_2, Psi_3): the distinguished spinor and the three
    derived spinors e_slot . Psi_0 in EIGEN_SLOTS label order."""
    rep = standard_rep()
    psi0 = rep.find_psi0()
    out = [psi0] + [rep.act(Form.basis(7, slot), psi0) for slot in EIGEN_SLOTS]
    return tuple(tuple(v) for v in out)


@lru_cache(maxsize=1)
def _basis_actions():
    """For each degree-3 index I and spinor Psi_i: the spinor e_I . Psi_i."""
    rep = standard_rep()
    psis = reference_spinors()
    table = {}
    for idx in IDX3:
        form = Form.basis(7, *idx)
        table[idx] = [rep.act(form, p) for p in psis]
    return table


# ---------------------------------------------------------------- family


@dataclass(frozen=True)
class EigenTriple:
    m1: Fraction
    m2: Fraction
    m3: Fraction

    @classmethod
    def of(cls, m1, m2, m3):
        return cls(frac(m1), frac(m2), frac(m3))

    @property
    def values(self):
        return (self.m1, self.m2, self.m3)

    def a(self):
        return -(self.m1 - self.m2 + self.m3) / 4

    def b(self):
        return (-self.m1 + self.m2 + self.m3) / 4


@dataclass(frozen=True)
class Torsion27Family:
    """Affine solution set {Sigma in Lambda^3_27 : Sigma Psi_i = m_i Psi_i}."""

    m: EigenTriple
    dimension: int                 # -1 when the system is inconsistent
    particular: Form | None
    directions: tuple              # tuple of Forms spanning the linear part
    a: Fraction | None
    b: Fraction | None
    c: Fraction | None

    def is_empty(self):
        return self.dimension < 0

    def contains(self, sigma):
        if self.dimension < 0:
            return False
        rows = [form_to_vector(d, IDX3) for d in self.directions]
        offset = form_to_vector(sigma - self.particular, IDX3)
        return linalg.in_span(offset, rows)

    def matches_lemma(self):
        """The lemma's verdict: dimension 9, a = -(m1 - m2 + m3)/4,
        b = (-m1 + m2 + m3)/4 and c = 0."""
        return (self.dimension == 9 and self.a == self.m.a()
                and self.b == self.m.b() and self.c == 0)

    def equals(self, particular, directions):
        """Is the family the affine set particular + span(directions)?"""
        rows = [form_to_vector(d, IDX3) for d in self.directions]
        return (linalg.vectors_span_equal(rows, [form_to_vector(d, IDX3) for d in directions])
                and self.contains(particular))


def _invariant_abc(form):
    a = form[(2, 3, 6)] + form[(2, 4, 5)]
    b = form[(3, 4, 7)] + form[(5, 6, 7)]
    c = form[(2, 3, 5)] - form[(2, 4, 6)]
    return a, b, c


def _eigen_system():
    """Rows and right-hand-side columns of the eigen-torsion system.

    Unknowns: the 35 coefficients of a 3-form Sigma.  Rows: Sigma lies in
    the 27-dimensional component (8 rows) and Sigma . Psi_i = m_i Psi_i for
    i = 1, 2, 3 (24 rows).  Column i is the right-hand side at m_i = 1 and
    the other two m_j = 0: Psi_i on the 8 rows of Psi_i, 0 elsewhere.
    """
    actions = _basis_actions()
    psis = reference_spinors()
    rows = [list(r) for r in lambda1_7_rows()]
    columns = [[ZERO] * (len(rows) + 24) for _ in range(3)]
    for i in (1, 2, 3):
        for comp in range(8):
            columns[i - 1][len(rows)] = psis[i][comp]
            rows.append([actions[idx][i][comp] for idx in IDX3])
    return rows, columns


def _eliminated(rows, columns):
    """eliminate(rows, columns) with the kernel of the rows as Forms.

    The invariants a, b, c vanish on every kernel direction, so they are
    constant across each family of the system; checked here, once.
    """
    elimination = linalg.eliminate(rows, columns)
    directions = tuple(vector_to_form(7, v, IDX3) for v in linalg.kernel(*elimination))
    for d in directions:
        if _invariant_abc(d) != (ZERO, ZERO, ZERO):
            raise AssertionError("a, b, c are not constant across the family")
    return elimination, directions


@lru_cache(maxsize=1)
def _lemma_system():
    return _eliminated(*_eigen_system())


def _family(m, system, weights):
    """The family of a system from _eliminated whose right-hand side is
    sum_i weights[i] * column i."""
    elimination, directions = system
    x0 = linalg.particular(elimination, weights)
    if x0 is None:
        return Torsion27Family(m, -1, None, (), None, None, None)
    particular = vector_to_form(7, x0, IDX3)
    return Torsion27Family(m, len(directions), particular, directions,
                           *_invariant_abc(particular))


def solve_family(m):
    """Exact affine solve of the eigen-torsion system for a given triple.

    The coefficient matrix does not depend on m, and the right-hand side is
    linear in (m_1, m_2, m_3): the system with one right-hand-side column
    per m_i (see _eigen_system) is eliminated once per process, and each
    call combines the reduced columns with weights m.  The result is the
    same Fractions as an elimination of the system at m, because the
    reduced row echelon form is unique (linalg.particular).
    """
    return _family(m, _lemma_system(), m.values)


#: order of the nine free coefficients in the closed-form parameterization
LEMMA_FREE = ((1, 4, 5), (1, 4, 6), (1, 5, 6), (2, 3, 5), (2, 3, 6), (2, 5, 6),
              (3, 4, 7), (4, 5, 7), (4, 6, 7))


def lemma_member(m1, a, b, t):
    """The closed-form parameterization of the eigen-torsion family.

    t maps the nine free index triples of LEMMA_FREE to rational values; the
    dependent coefficients are t_246 = t_235, t_245 = a - t_236 and
    t_567 = b - t_347.
    """
    m1, a, b = frac(m1), frac(a), frac(b)
    tv = {k: frac(t.get(k, 0)) for k in LEMMA_FREE}
    t145, t146, t156 = tv[(1, 4, 5)], tv[(1, 4, 6)], tv[(1, 5, 6)]
    t235, t236, t256 = tv[(2, 3, 5)], tv[(2, 3, 6)], tv[(2, 5, 6)]
    t347, t457, t467 = tv[(3, 4, 7)], tv[(4, 5, 7)], tv[(4, 6, 7)]
    t246 = t235
    t245 = a - t236
    t567 = b - t347
    return Form(7, {
        (1, 2, 7): -m1 / 2 - b,
        (1, 3, 4): -t156,
        (1, 3, 5): m1 / 2 + t146 + a,
        (1, 3, 6): -t145,
        (1, 4, 5): t145,
        (1, 4, 6): t146,
        (1, 5, 6): t156,
        (2, 3, 4): -t256,
        (2, 3, 5): t235,
        (2, 3, 6): t236,
        (2, 4, 5): t245,
        (2, 4, 6): t246,
        (2, 5, 6): t256,
        (3, 4, 7): t347,
        (3, 5, 7): t467,
        (3, 6, 7): -t457,
        (4, 5, 7): t457,
        (4, 6, 7): t467,
        (5, 6, 7): t567,
    })


def lemma_family(m):
    """The closed-form family as (particular, directions) for rank tests."""
    a, b = m.a(), m.b()
    particular = lemma_member(m.m1, a, b, {})
    directions = []
    for key in LEMMA_FREE:
        unit = lemma_member(m.m1, a, b, {key: 1})
        directions.append(unit - particular)
    return particular, directions


def families_coincide(family, m):
    """Is the solved family the closed-form family?"""
    return not family.is_empty() and family.equals(*lemma_family(m))


# ---------------------------------------------------------------- kernels


#: dimensions of the annihilator of the first k reference spinors, k = 1, 3, 4
PINNED_KERNEL_DIMS = {1: 27, 3: 14, 4: 9}


def kernel_dims():
    """{k: dim {Sigma in Lambda^3_27 : Sigma . Psi_i = 0 for the first k
    spinors}} for k = 1..4.

    The spinor list is (Psi_0, Psi_1, Psi_2, Psi_3); Psi_0 is annihilated by
    the whole 27-dimensional component, so k = 1 gives 27.  The 27 operators
    and the 8 rows of each spinor are built once; k reads the first 8k rows.
    """
    from .g2 import lambda27_basis

    rep = standard_rep()
    ops = [rep.operator(bf) for bf in lambda27_basis()]
    rows = []
    for psi in reference_spinors():
        acted = [linalg.matvec(op, list(psi)) for op in ops]
        rows.extend([col[comp] for col in acted] for comp in range(8))
    return {k: len(linalg.nullspace(rows[:8 * k])) for k in range(1, 5)}


# ---------------------------------------------------------------- values


def root_pair(mu):
    """(6mu/7, -8mu/7), the roots of m^2 + (2/7) mu m - (48/49) mu^2 = 0."""
    mu = frac(mu)
    return Fraction(6, 7) * mu, Fraction(-8, 7) * mu


def eigenvalue_roots(mu):
    """The set of roots of m^2 + (2/7) mu m - (48/49) mu^2 = 0."""
    return set(root_pair(mu))


def torsion_value(m, mu):
    """T(theta_1, theta_2, theta_3) = mu/7 - (m1 + m2 + m3)/4."""
    return frac(mu) / 7 - sum(m.values, ZERO) / 4


def torsion_value_enumeration(mu):
    """All 8 root assignments and the induced values {0, +-mu/2, mu}."""
    table = {}
    for pattern in product(root_pair(mu), repeat=3):
        table[pattern] = torsion_value(EigenTriple(*pattern), mu)
    return table


def torsion_value_fibers(mu):
    """Map value -> number of the 8 root assignments producing it.

    Counts assignments, not distinct patterns: at mu = 0 both roots coincide
    and all 8 assignments give 0 (the pattern table collapses to one entry).
    """
    fibers = {}
    for pattern in product(root_pair(mu), repeat=3):
        val = torsion_value(EigenTriple(*pattern), mu)
        fibers[val] = fibers.get(val, 0) + 1
    return fibers


def expected_fibers(mu):
    """The fibers torsion_value_fibers must have: values 0 and mu/2 three
    times, -mu/2 and mu once, and all 8 assignments at 0 when mu = 0."""
    mu = frac(mu)
    return {ZERO: 3, mu / 2: 3, -mu / 2: 1, mu: 1} if mu else {ZERO: 8}


# ---------------------------------------------------------------- 5-frame


def f_form(coeffs):
    """Build a 7-frame form from 5-frame index tuples (f_1..f_5 = e_3..e_7)."""
    return Form(7, {tuple(F_TO_E[i - 1] for i in idx): v for idx, v in coeffs.items()})


def to_five_frame(form):
    """Rewrite a 7-frame form supported on e_3..e_7 in the 5-frame."""
    out = {}
    for idx, v in form.coeffs.items():
        if any(i not in E_TO_F for i in idx):
            raise ValueError("form is not supported on the reduced frame")
        out[tuple(E_TO_F[i] for i in idx)] = v
    return Form(5, out)


def hodge5(form):
    """Hodge star of the 5-dimensional sub-frame, as a 7-frame form."""
    return f_form(to_five_frame(form).hodge().coeffs)


def two_field_template(a_, b_, c_, d_):
    """T = A f_125 + B (f_135 + f_245) + C (-f_145 + f_235) + D f_345."""
    A, B, C, D = frac(a_), frac(b_), frac(c_), frac(d_)
    return f_form({
        (1, 2, 5): A,
        (1, 3, 5): B,
        (2, 4, 5): B,
        (1, 4, 5): -C,
        (2, 3, 5): C,
        (3, 4, 5): D,
    })


def template_norm_constraint(A, B, C, D):
    return A * A + D * D + 2 * B * B + 2 * C * C


def branch1_member(mu, v1, v2, v3):
    """Rational member of the norm-mu^2 two-field family with A + D = mu.

    Line through the base point (A,B,C,D) = (mu,0,0,0) in direction
    (v1,v2,v3,-v1), intersected a second time with the norm quadric.
    """
    mu, v1, v2, v3 = frac(mu), frac(v1), frac(v2), frac(v3)
    if v1 == 0:
        raise ValueError("direction must have nonzero first coordinate")
    t = -mu * v1 / (v1 * v1 + v2 * v2 + v3 * v3)
    A, B, C, D = mu + t * v1, t * v2, t * v3, -t * v1
    assert A + D == mu and template_norm_constraint(A, B, C, D) == mu * mu
    return (A, B, C, D)


def quadric_member(b, mu):
    """Some rational (A,B,C,D) with A+D = b + 2mu/7 and norm constraint mu^2.

    Searches B = bnum/den, C = cnum/den over a small grid for a rational
    square w^2 = t - 4B^2 - 4C^2, where t = 2mu^2 - (A+D)^2 = n/d; returns
    None when no point is found (the quadric need not have one for arbitrary
    b).  The search runs on integers: w^2 = (n den^2 - 4d(bnum^2 + cnum^2))
    / (d den^2), reduced by the gcd and tested part by part with isqrt.
    """
    b, mu = frac(b), frac(mu)
    s = b + Fraction(2, 7) * mu
    target = 2 * mu * mu - s * s     # w^2 + 4B^2 + 4C^2 with w = A - D
    if target < 0:
        return None
    n, d = target.numerator, target.denominator
    for den in (1, 2, 3, 4, 5, 6, 7, 8, 10, 14):
        top = n * den * den
        bottom = d * den * den
        for bnum in range(0, 30):
            rest = top - 4 * d * bnum * bnum
            if rest < 0:
                break
            for cnum in range(0, 30):
                num = rest - 4 * d * cnum * cnum
                if num < 0:
                    break
                # w^2 = num / bottom must be a rational square
                g = gcd(num, bottom)
                wn, wd = num // g, bottom // g
                rn, rd = isqrt(wn), isqrt(wd)
                if rn * rn != wn or rd * rd != wd:
                    continue
                w = Fraction(rn, rd)
                return ((s + w) / 2, Fraction(bnum, den), Fraction(cnum, den),
                        (s - w) / 2)
    return None


# ---------------------------------------------------------------- det E2


def det_e2_closed_form(b, mu):
    """(1/4) (-b^2 - (4/7) b mu + (45/49) mu^2)^2."""
    b, mu = frac(b), frac(mu)
    inner = -b * b - Fraction(4, 7) * b * mu + Fraction(45, 49) * mu * mu
    return inner * inner / 4


def skew_matrix_of_two_form(eta, slots):
    """Matrix M_{xy} = eta(e_x, e_y) over the given frame slots."""
    return [[eta[(a, b)] for b in slots] for a in slots]


def det_e2(b, mu):
    """Closed-form determinant of theta_3 hook T on the theta_3-complement,
    cross-checked by brute force on a norm-constrained template member.

    Returns a report dict.  The brute-force check uses the 4-dimensional
    theta_3-complement inside the reduced 5-frame, where the statement lives;
    the 6-dimensional complement inside R^7 is also computed and is always
    singular for two-field torsions (the theta_1, theta_2 rows vanish).
    """
    b, mu = frac(b), frac(mu)
    closed = det_e2_closed_form(b, mu)
    report = {"b": b, "mu": mu, "closed_form": closed, "member": None,
              "det4": None, "det6": None}
    member = quadric_member(b, mu)
    if member is not None:
        torsion = two_field_template(*member)
        eta = torsion.hook_basis(7)
        det4 = linalg.det(skew_matrix_of_two_form(eta, (3, 4, 5, 6)))
        det6 = linalg.det(skew_matrix_of_two_form(eta, (1, 2, 3, 4, 5, 6)))
        report.update(member=member, det4=det4, det6=det6)
        if det4 != closed:
            raise AssertionError(
                f"brute-force determinant {det4} disagrees with closed form {closed}"
            )
    return report


# ---------------------------------------------------------------- branches


@dataclass(frozen=True)
class TwoFieldBranch:
    label: str
    m: EigenTriple
    a: Fraction
    b: Fraction
    family: Torsion27Family

    @property
    def dimension(self):
        return self.family.dimension


def _hook_constraint_rows(slot):
    """Rows for theta_slot hook (T_1 + Sigma) = 0 over the 21 2-form indices."""
    idx2 = basis_indices(7, 2)
    cols = [form_to_vector(Form.basis(7, *idx).hook_basis(slot), idx2) for idx in IDX3]
    return linalg.transpose(cols)      # one row per 2-form component


def two_field_branches(mu):
    """The two inequivalent eigentriples compatible with two special fields.

    theta_1 hook T = theta_2 hook T = 0 forces T(theta_1,theta_2,theta_3) = 0,
    i.e. exactly one eigenvalue equals -8mu/7; placing it on m_1 (equivalently
    m_2) or on m_3 gives the two cases.
    """
    hi, lo = root_pair(mu)
    first = EigenTriple(lo, hi, hi)
    second = EigenTriple(hi, hi, lo)
    return first, second


@lru_cache(maxsize=1)
def _two_field_system():
    """The eigen system plus theta_1 hook (T_1 + Sigma) = theta_2 hook
    (T_1 + Sigma) = 0 for T_1 = (mu/7) omega3, eliminated once.  Those rows
    have right-hand side -theta_slot hook T_1, linear in mu/7: a fourth
    column, -theta_slot hook omega3, zero on the eigen rows."""
    rows, columns = _eigen_system()
    idx2 = basis_indices(7, 2)
    hook_rows, hook_rhs = [], []
    for slot in (1, 2):
        hook_rows.extend(_hook_constraint_rows(slot))
        hook_rhs.extend(form_to_vector(standard_omega3().hook_basis(slot).scale(-1), idx2))
    pad = [ZERO] * len(hook_rows)
    columns = [c + pad for c in columns] + [[ZERO] * len(rows) + hook_rhs]
    return _eliminated(rows + hook_rows, columns)


def solve_two_field_branch(m, mu, label):
    """Affine solve of the eigen system plus theta_1, theta_2 hook conditions."""
    mu = frac(mu)
    family = _family(m, _two_field_system(), m.values + (mu / 7,))
    return TwoFieldBranch(label, m, m.a(), m.b(), family)


def branch1_template_matches(branch, mu):
    """Solution set of the first branch == template set {A + D = mu}."""
    mu = frac(mu)
    fam = branch.family
    if fam.is_empty():
        return False
    t1 = standard_omega3().scale(mu / 7)
    # template affine set for the full torsion, shifted to the 27-part
    base_full = two_field_template(mu, 0, 0, 0)
    dirs_full = [
        two_field_template(1, 0, 0, -1),
        two_field_template(0, 1, 0, 0),
        two_field_template(0, 0, 1, 0),
    ]
    return fam.equals(base_full - t1, dirs_full)


def branch2_exclusion_identities():
    """Verify the algebraic identities excluding the second branch.

    On the template with D = -A (that is b = -2mu/7):
      (i)  *_5 T = -(theta_3 hook T)      (= -d theta_3 on a group/manifold),
      (ii) |theta_3 hook T|^2 vol_5 = -theta_3 ^ eta ^ eta.
    Both are polynomial identities in (A, B, C) of degree <= 2 per variable,
    so vanishing on the grid {0,1,2}^3 proves them.
    """
    theta3 = f_form({(5,): 1})
    vol5 = f_form({(1, 2, 3, 4, 5): 1})
    for A, B, C in product((0, 1, 2), repeat=3):
        torsion = two_field_template(A, B, C, -A)
        eta = torsion.hook_basis(7)
        if hodge5(torsion) != eta.scale(-1):
            return False
        lhs = vol5.scale(eta.norm2())
        rhs = theta3.wedge(eta).wedge(eta).scale(-1)
        if lhs != rhs:
            return False
    return True


def two_field_case_analysis(mu):
    """Full report of the two-special-field analysis at scale mu."""
    mu = frac(mu)
    first_m, second_m = two_field_branches(mu)
    first = solve_two_field_branch(first_m, mu, "first")
    second = solve_two_field_branch(second_m, mu, "second")
    report = {
        "mu": mu,
        "first": first,
        "second": second,
        "first_expected_ab": (Fraction(2, 7) * mu, Fraction(5, 7) * mu),
        "second_expected_ab": (Fraction(2, 7) * mu, Fraction(-2, 7) * mu),
        "first_template_matches": branch1_template_matches(first, mu),
        "second_empty": second.family.is_empty() if mu != 0 else None,
        "exclusion_identities_hold": branch2_exclusion_identities(),
    }
    return report


# ---------------------------------------------------------------- Omega^2


@lru_cache(maxsize=1)
def omega2_forms():
    """Omega2_i = theta_i hook (omega3 - theta_1 ^ theta_2 ^ theta_3)."""
    w3 = standard_omega3()
    core = w3 - Form(7, {(1, 2, 7): 1})
    out = []
    for slot in THETA_SLOTS:
        out.append(core.hook_basis(slot))
    return tuple(out)


def parallel_form_d(omega, torsion):
    """d of a parallel form on the reduced frame,
    d Omega = sum_j (f_j hook Omega) ^ (f_j hook T): the derivation sending
    f_j to f_j hook T and e_1, e_2 to 0 (Form.derivation)."""
    zero = Form.zero(7)
    return omega.derivation([torsion.hook_basis(e) if e in F_TO_E else zero
                             for e in range(1, 8)])


def lie_flow_theta3(omega, torsion):
    """Lie derivative along theta_3 via the Cartan formula, with d realized
    by the parallel-form derivative."""
    return parallel_form_d(omega.hook_basis(7), torsion) + parallel_form_d(omega, torsion).hook_basis(7)


def omega_form_identities(torsion, mu):
    """Checklist of the Omega2 identities for a first-branch member."""
    mu = frac(mu)
    o1, o2, o3 = omega2_forms()
    theta3 = Form.basis(7, 7)
    eta = torsion.hook_basis(7)
    report = {}
    report["omega1_frame"] = o1 == f_form({(1, 3): 1, (2, 4): -1})
    report["omega2_frame"] = o2 == f_form({(1, 4): -1, (2, 3): -1})
    report["omega3_frame"] = o3 == f_form({(1, 2): 1, (3, 4): 1})
    report["pair_omega1"] = eta.inner(o1)
    report["pair_omega2"] = eta.inner(o2)
    report["pair_omega3"] = eta.inner(o3)
    report["omega3_from_torsion"] = (
        mu != 0 and (hodge5(torsion) + eta).scale(ONE / mu) == o3
    )
    d1 = parallel_form_d(o1, torsion)
    d2 = parallel_form_d(o2, torsion)
    d3 = parallel_form_d(o3, torsion)
    report["d_omega1"] = d1 == o2.wedge(theta3).scale(mu)
    report["d_omega2"] = d2 == o1.wedge(theta3).scale(-mu)
    report["d_omega3"] = d3.is_zero()
    report["flow_omega1"] = lie_flow_theta3(o1, torsion) == o2.scale(mu)
    report["flow_omega2"] = lie_flow_theta3(o2, torsion) == o1.scale(-mu)
    report["flow_omega3"] = lie_flow_theta3(o3, torsion).is_zero()
    # torsion is theta_3 ^ d theta_3 and its square vanishes
    report["torsion_reconstruct"] = torsion == theta3.wedge(eta)
    report["eta_squared_zero"] = eta.wedge(eta).is_zero()
    # kernel distribution of T inside the 5-frame
    report["kernel_dim"] = len(_torsion_kernel_vectors(torsion))
    # Ricci spectrum on the 5-frame
    ric = ric_from_torsion(torsion)
    five = [i - 1 for i in F_TO_E]
    ric5 = [[ric[i][j] for j in five] for i in five]
    expected = {ZERO: 2, mu * mu / 2: 3} if mu != 0 else {ZERO: 5}
    report["ric5_matches"] = linalg.has_spectrum(ric5, expected)
    return report


def _torsion_kernel_vectors(torsion):
    """Basis of {X in the 5-frame span : X hook T = 0}."""
    idx2 = basis_indices(7, 2)
    cols = [form_to_vector(torsion.hook_basis(e), idx2) for e in F_TO_E]
    return linalg.nullspace(linalg.transpose(cols))
