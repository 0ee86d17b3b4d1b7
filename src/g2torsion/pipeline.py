"""End-to-end exact verification for invariant structures on 7-dimensional
metric Lie algebras carrying the standard calibration 3-form.

Given structure constants (and an optional frame relabeling), the pipeline

* checks cocalibration d(*omega3) = 0 exactly and stops with the residual
  5-form if it fails;
* computes the scalar mu = (1/6) <d omega3, *omega3>, the characteristic
  torsion T = -*d omega3 + mu omega3 and its (1, 27) splitting;
* builds the metric connection with torsion T, verifies that it preserves
  omega3, and computes curvature, both Ricci tensors, infinitesimal
  holonomy, parallel fields and parallel spinors;
* evaluates the three equivalent Ricci-flatness conditions
    (1) Ric = 0,  (2) dT = 0 and d*T = 0,  (3) d(*d omega3) = mu d omega3
  and reports their pairwise agreement (a disagreement is a bug, not a
  property of the input);
* when three parallel fields exist, tests the reconstruction identity

      sum_i (theta_i hook T) ^ theta_i  =  T + 2 T(theta1,theta2,theta3)
                                               theta1 ^ theta2 ^ theta3.

  The commonly quoted version omits the overcount term and only holds when
  T(theta1, theta2, theta3) = 0; the report records both verdicts and the
  exact overcount witness.

Every quantity is an exact rational; the JSON view renders rationals as
"p/q" strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .forms import Form
from .g2 import char_torsion, project3, standard_omega3, standard_omega4
from .linalg import rational_str
from .liegroup import (LieAlgebraData, curvature, holonomy_algebra,
                       integrability_residual, parallel_fields, relabel,
                       with_torsion)
from .spin import standard_rep

ZERO = Fraction(0)
CANONICAL_SLOTS = (1, 2, 7)


def form_mapping(form: Form | None) -> dict:
    """JSON view of an exact form: {'127': 'p/q', ...} with digit-string keys."""
    if form is None:
        return {}
    return {"".join(str(i) for i in idx): rational_str(v)
            for idx, v in sorted(form.coeffs.items())}


@dataclass(frozen=True)
class ChecklistItem:
    name: str
    passed: bool
    witness: str


def exact_json(x):
    """The one renderer of CLI payloads.

    Forms become digit-keyed mappings, rationals 'p/q' strings, floats
    12-significant-digit scientific strings, checklist items
    {name, passed, witness} objects, tuples and lists lists, and dicts are
    rendered entrywise with string keys (a rational key as 'p/q'); None,
    bools, ints and strings pass unchanged.
    """
    if isinstance(x, Form):
        return form_mapping(x)
    if isinstance(x, Fraction):
        return rational_str(x)
    if isinstance(x, float):
        return f"{x:.11e}"
    if isinstance(x, ChecklistItem):
        return {"name": x.name, "passed": x.passed, "witness": x.witness}
    if isinstance(x, (tuple, list)):
        return [exact_json(v) for v in x]
    if isinstance(x, dict):
        return {rational_str(k) if isinstance(k, Fraction) else str(k):
                exact_json(v) for k, v in x.items()}
    return x


@dataclass
class G2Report:
    """Exact verification record for one algebra + frame placement."""

    dim: int
    placement: tuple | None
    cocalibrated: bool
    cocalibration_residual: Form
    checklist: list = field(default_factory=list)
    mu: Fraction | None = None
    torsion: Form | None = None
    t1: Form | None = None
    t27: Form | None = None
    norm2_torsion: Fraction | None = None
    norm2_d_omega3: Fraction | None = None
    ric_nabla: tuple | None = None
    ric_g: tuple | None = None
    scal_g: Fraction | None = None
    holonomy_dim: int | None = None
    parallel_field_count: int | None = None
    parallel_spinor_dim: int | None = None
    conditions: dict | None = None
    t_theta: Fraction | None = None
    t_theta_squared: Fraction | None = None
    reconstruction_literal: bool | None = None
    reconstruction_overcount: Form | None = None

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.checklist)

    def add(self, name, passed, witness=""):
        self.checklist.append(ChecklistItem(name, bool(passed), witness))

    def to_dict(self) -> dict:
        # form fields render as {} both when unset and when zero
        return exact_json({
            "dim": self.dim,
            "placement": self.placement,
            "cocalibrated": self.cocalibrated,
            "cocalibration_residual": self.cocalibration_residual,
            "mu": self.mu,
            "torsion": self.torsion or {},
            "torsion_scalar_part": self.t1 or {},
            "torsion_traceless_part": self.t27 or {},
            "norm2_torsion": self.norm2_torsion,
            "norm2_d_omega3": self.norm2_d_omega3,
            "ric_nabla": self.ric_nabla,
            "ric_g": self.ric_g,
            "scal_g": self.scal_g,
            "holonomy_dim": self.holonomy_dim,
            "parallel_field_count": self.parallel_field_count,
            "parallel_spinor_dim": self.parallel_spinor_dim,
            "conditions": self.conditions,
            "t_theta": self.t_theta,
            "t_theta_squared": self.t_theta_squared,
            "reconstruction_literal": self.reconstruction_literal,
            "reconstruction_overcount": self.reconstruction_overcount or {},
            "passed": self.passed,
            "checklist": self.checklist,
        })


def _parallel_triple(kernel, n):
    """An exactly orthogonal triple spanning (part of) the parallel fields.

    Returns a list of coordinate vectors.  When the whole frame is parallel
    the canonical slots are used so that the calibration volume is +1; for a
    3-dimensional space the kernel basis is orthogonalized without
    normalization (all downstream tests are scale-aware).
    """
    if len(kernel) == n:
        return [[Fraction(int(i == s)) for i in range(1, n + 1)]
                for s in CANONICAL_SLOTS]
    basis = []
    for v in kernel[:3]:
        w = [Fraction(x) for x in v]
        for b in basis:
            nb = sum((x * x for x in b), ZERO)
            coeff = sum((x * y for x, y in zip(w, b)), ZERO) / nb
            w = [x - coeff * y for x, y in zip(w, b)]
        basis.append(w)
    return basis


def run(algebra: LieAlgebraData, placement=None) -> G2Report:
    """Full exact pipeline; see the module docstring for the checklist."""
    if algebra.n != 7:
        raise ValueError("pipeline requires a 7-dimensional algebra")
    if placement is not None:
        placement = tuple(placement)
        algebra = relabel(algebra, placement)
    w3 = standard_omega3()
    w4 = standard_omega4()
    dw3 = algebra.ce_d(w3)
    dw4 = algebra.ce_d(w4)
    report = G2Report(dim=7, placement=placement,
                      cocalibrated=dw4.is_zero(), cocalibration_residual=dw4)
    report.add("cocalibration d(*omega3) = 0", report.cocalibrated,
               "residual " + (str(dw4) if not dw4.is_zero() else "0"))
    if not report.cocalibrated:
        return report

    dec = char_torsion(dw3, dw4)
    t = dec.torsion
    mu = dec.mu
    report.mu = mu
    report.torsion = t
    report.t1 = dec.t1
    report.t27 = dec.t27
    report.norm2_torsion = t.norm2()
    report.norm2_d_omega3 = dw3.norm2()

    conn = with_torsion(algebra, t)
    report.add("prescribed torsion is realized by the connection",
               conn.torsion_tensor() == t)
    nab_w3 = [conn.nabla_form(i, w3) for i in range(1, 8)]
    report.add("connection preserves omega3",
               all(f.is_zero() for f in nab_w3))
    split = project3(t)
    report.add("torsion has no 7-part in the 1+7+27 splitting",
               split[7].is_zero(), "7-part " + str(split[7]))
    report.add("T wedge omega3 = 0", t.wedge(w3).is_zero())
    star_dw3 = dw3.hodge()
    report.add("(*d omega3 - mu omega3) wedge omega3 = 0",
               (star_dw3 - w3.scale(mu)).wedge(w3).is_zero())

    rep = standard_rep()
    psi0 = rep.find_psi0()
    t_psi0 = rep.act(t, psi0)
    want = [-mu * x for x in psi0]
    report.add("T acts on the canonical spinor by -mu",
               t_psi0 == want, f"mu = {rational_str(mu)}")

    curv = curvature(conn)
    report.ric_nabla = curv.ric_nabla
    report.ric_g = curv.ric_g
    report.scal_g = curv.scal_g
    cond1 = all(all(x == 0 for x in row) for row in curv.ric_nabla)
    cond2 = algebra.ce_d(t).is_zero() and algebra.ce_d(t.hodge()).is_zero()
    cond3 = (algebra.ce_d(star_dw3) - dw3.scale(mu)).is_zero()
    report.conditions = {"ric_nabla_zero": cond1,
                         "torsion_closed_and_coclosed": cond2,
                         "d_star_d_omega3_proportional": cond3}
    report.add("equivalent Ricci-flatness conditions agree pairwise",
               cond1 == cond2 == cond3,
               f"({cond1}, {cond2}, {cond3})")

    hol = holonomy_algebra(conn)
    report.holonomy_dim = len(hol)
    kernel = parallel_fields(conn)          # asserts d theta = theta hook T
    report.parallel_field_count = len(kernel)
    report.add("parallel fields satisfy d theta = theta hook T",
               True, f"{len(kernel)} fields")
    spinors = conn.parallel_spinors()
    report.parallel_spinor_dim = len(spinors)

    ric_g = curv.ric_g
    killing_ok = True
    for v in kernel:
        lhs = sum((v[j] * ric_g[j][k] * v[k] for j in range(7)
                   for k in range(7)), ZERO)
        rhs = t.hook(v).norm2() / 2
        if lhs != rhs:
            killing_ok = False
    report.add("Ric^g(theta, theta) = |d theta|^2 / 2 on parallel fields",
               killing_ok)
    count_ok = (len(kernel) in (0, 1, 3) if hol
                else len(kernel) == 7)
    report.add("parallel-field count consistent with holonomy",
               count_ok,
               f"count {len(kernel)}, holonomy dim {len(hol)}")

    if cond1:
        report.add("|d omega3|^2 = 6 mu^2", dw3.norm2() == 6 * mu * mu,
                   f"|d omega3|^2 = {rational_str(dw3.norm2())}")
        report.add("|T|^2 = mu^2", t.norm2() == mu * mu,
                   f"|T|^2 = {rational_str(t.norm2())}")
        report.add("Scal^g = (3/2)|T|^2",
                   curv.scal_g == Fraction(3, 2) * t.norm2(),
                   f"Scal^g = {rational_str(curv.scal_g)}")
    if cond2:
        flows_ok = all(algebra.lie_derivative(v, t).is_zero() for v in kernel)
        report.add("parallel flows preserve T", flows_ok)
    if spinors:
        resid_ok = all(not any(r) for per_dir, r_sigma, r_square
                       in integrability_residual(conn, spinors)
                       for r in (*per_dir, r_sigma, r_square))
        report.add("parallel-spinor integrability residuals vanish",
                   resid_ok, f"{len(spinors)} spinors")

    if len(kernel) >= 3:
        triple = _parallel_triple(kernel, 7)
        norms = [sum((x * x for x in w), ZERO) for w in triple]
        theta_f = [Form(7, {(i,): w[i - 1] for i in range(1, 8) if w[i - 1]})
                   for w in triple]
        vol2 = norms[0] * norms[1] * norms[2]
        w3_val = w3.evaluate(*triple)
        report.add("omega3 volume on the parallel triple is +-1",
                   w3_val * w3_val == vol2,
                   f"omega3(triple)^2 = {rational_str(w3_val * w3_val)}, "
                   f"norm product = {rational_str(vol2)}")
        t_val = t.evaluate(*triple)
        report.t_theta_squared = t_val * t_val / vol2
        if all(nv == 1 for nv in norms):
            report.t_theta = t_val
        recon = Form.zero(7)
        for w, th, nv in zip(triple, theta_f, norms):
            recon = recon + t.hook(w).wedge(th).scale(Fraction(1) / nv)
        wedge123 = theta_f[0].wedge(theta_f[1]).wedge(theta_f[2])
        corrected = t + wedge123.scale(2 * t_val / vol2)
        report.reconstruction_literal = recon == t
        report.reconstruction_overcount = recon - t
        report.add(
            "reconstruction sum (theta_i hook T) ^ theta_i = "
            "T + 2 T(theta) theta123",
            recon == corrected,
            f"T(triple) = {rational_str(t_val)}, overcount "
            + str(recon - t))
    return report
