"""Top-level acceptance battery.

One test per headline claim of the package, so `pytest -v tests/test_acceptance.py`
prints a single pass/fail line per item.  Exact claims use rational
arithmetic with zero tolerance; the two numerical constructions state their
residual budgets inline.  Randomized inputs are seeded and deterministic.
"""

import random
import time
from fractions import Fraction

import numpy as np

from g2torsion import classifier as cl
from g2torsion import bundle as bd
from g2torsion import liegroup as lg
from g2torsion import linalg
from g2torsion import pipeline as pl
from g2torsion.forms import Form, basis_indices, form_to_vector
from g2torsion.g2 import lambda7_basis, lambda27_basis, project3, standard_omega3
from g2torsion.liouville import solve_liouville
from g2torsion.spin import standard_rep

from .util import fd_convergence_order, sphere_coframe

SEED = 20240825


def rand_fraction(rng, lo=-6, hi=6, dens=(1, 2, 3, 4)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def rand_form(rng, n, k, terms=4):
    idx = basis_indices(n, k)
    out = Form.zero(n)
    for _ in range(terms):
        out = out + Form(n, {rng.choice(idx): rand_fraction(rng)})
    return out


# --------------------------------------------------------------------------


def test_criterion_01_spinor_spectrum_of_calibration_form():
    op = standard_rep().operator(standard_omega3())
    assert linalg.has_spectrum(op, {Fraction(-7): 1, Fraction(1): 7})
    assert not linalg.has_spectrum(op, {Fraction(-7): 2, Fraction(1): 6})


def test_criterion_02_component_ranks_and_spinor_annihilation():
    idx = basis_indices(7, 3)

    def rank(forms):
        return linalg.rank([form_to_vector(f, idx) for f in forms])

    assert rank([standard_omega3()]) == 1
    assert rank(lambda7_basis()) == 7
    basis27 = lambda27_basis()
    assert rank(basis27) == 27
    rep = standard_rep()
    psi0 = rep.find_psi0()
    for b in basis27:
        assert rep.act(b, psi0) == [Fraction(0)] * 8


def test_criterion_03_eigen_family_dimension_and_invariants():
    rng = random.Random(SEED)
    triples = [tuple(rand_fraction(rng) for _ in range(3)) for _ in range(18)]
    mu = Fraction(7)
    triples += [(Fraction(-8, 7) * mu, Fraction(6, 7) * mu, Fraction(6, 7) * mu),
                (Fraction(6, 7) * mu, Fraction(6, 7) * mu, Fraction(6, 7) * mu)]
    assert len(triples) == 20
    for m1, m2, m3 in triples:
        m = cl.EigenTriple.of(m1, m2, m3)
        fam = cl.solve_family(m)
        assert fam.dimension == 9
        assert fam.a == -(m1 - m2 + m3) / 4
        assert fam.b == (-m1 + m2 + m3) / 4
        assert fam.c == 0


def test_criterion_04_spinor_annihilator_kernel_dimensions():
    dims = cl.kernel_dims()
    assert dims[1] == 27
    assert dims[3] == 14
    assert dims[4] == 9


def test_criterion_05_eigenvalue_roots_and_value_fibers():
    for mu in (Fraction(7), Fraction(-3), Fraction(5, 2)):
        assert cl.eigenvalue_roots(mu) == {Fraction(6, 7) * mu,
                                           Fraction(-8, 7) * mu}
        values = set(cl.torsion_value_enumeration(mu).values())
        assert values == {Fraction(0), mu / 2, -mu / 2, mu}
        assert cl.torsion_value_fibers(mu) == {
            -mu / 2: 1, Fraction(0): 3, mu / 2: 3, mu: 1}


def test_criterion_06_restricted_determinant_closed_form():
    """Brute-force determinants on 10 random norm-quadric members; the

    closed form tracks the 4x4 block on the theta_3 complement, while the
    larger 6x6 block is singular identically (two frame rows are special)."""
    mu = Fraction(7)
    rng = random.Random(SEED)
    for _ in range(10):
        v = tuple(rand_fraction(rng) for _ in range(4))
        if v[0] == 0:
            v = (Fraction(1),) + v[1:]
        # second intersection of the line from (mu, 0, 0, 0) with the quadric
        q = v[0] * v[0] + v[3] * v[3] + 2 * v[1] * v[1] + 2 * v[2] * v[2]
        t = -2 * mu * v[0] / q
        a_, b_, c_, d_ = mu + t * v[0], t * v[1], t * v[2], t * v[3]
        assert cl.template_norm_constraint(a_, b_, c_, d_) == mu * mu
        b = a_ + d_ - Fraction(2, 7) * mu
        eta = cl.two_field_template(a_, b_, c_, d_).hook_basis(7)
        det4 = linalg.det(cl.skew_matrix_of_two_form(eta, (3, 4, 5, 6)))
        det6 = linalg.det(cl.skew_matrix_of_two_form(eta, (1, 2, 3, 4, 5, 6)))
        assert det4 == cl.det_e2_closed_form(b, mu)
        assert det6 == 0
    report = cl.det_e2(Fraction(5, 7) * mu, mu)
    assert report["closed_form"] == 0
    assert report["det4"] == 0


def test_criterion_07_two_field_branches_and_second_exclusion():
    mu = Fraction(7)
    report = cl.two_field_case_analysis(mu)
    first, second = report["first"], report["second"]
    assert (first.a, first.b) == (Fraction(2, 7) * mu, Fraction(5, 7) * mu)
    assert (second.a, second.b) == (Fraction(2, 7) * mu, Fraction(-2, 7) * mu)
    assert report["first_template_matches"]
    assert report["second_empty"]
    assert report["exclusion_identities_hold"]


def test_criterion_08_reduced_frame_form_identities():
    mu = Fraction(7)
    member = cl.two_field_template(*cl.branch1_member(mu, 1, 1, 1))
    report = cl.omega_form_identities(member, mu)
    assert report["pair_omega3"] == mu
    assert report["d_omega1"]           # d O1 = mu O2 ^ theta3
    assert report["d_omega2"]           # d O2 = -mu O1 ^ theta3
    assert report["d_omega3"]           # d O3 = 0
    assert report["ric5_matches"]       # Ric on the 5-frame: {0 (x2), mu^2/2 (x3)}
    # the Ricci tensor does not depend on mu, so another mu^2 is rejected
    assert not cl.omega_form_identities(member, Fraction(6))["ric5_matches"]


def test_criterion_09_flat_connection_with_minus_cartan_torsion():
    alg = lg.su2(2, n=7, slots=(1, 2, 3))
    conn = lg.with_torsion(alg, alg.cartan_three_form().scale(-1))
    assert lg.curvature(conn).is_nabla_flat()
    assert len(lg.parallel_fields(conn)) == 7


def test_criterion_10_invariant_pipeline_identities():
    """Full pipeline on su(2)_lambda placed on a calibrated triple: norm

    chain, Ricci-flatness equivalences, and the torsion reconstruction.
    The literal sum (theta_i hook T) ^ theta_i (= sum d theta_i ^ theta_i
    for parallel theta_i) overcounts the theta-volume monomial; the true
    identity carries the extra term 2 T(theta_1,theta_2,theta_3) theta_123
    and the literal variant is asserted false with its exact witness."""
    for lam in (Fraction(-7), Fraction(2), Fraction(1, 2)):
        rep = pl.run(lg.su2(lam, n=7, slots=(1, 2, 7)))
        mu = rep.mu
        assert rep.cocalibrated
        assert rep.norm2_d_omega3 == 6 * mu * mu
        assert rep.norm2_torsion == mu * mu
        assert rep.scal_g == Fraction(3, 2) * mu * mu
        assert rep.conditions == {
            "ric_nabla_zero": True,
            "torsion_closed_and_coclosed": True,
            "d_star_d_omega3_proportional": True,
        }
        assert rep.t_theta == mu
        assert rep.passed
        # reconstruction: corrected identity holds, literal one does not
        t = rep.torsion
        total = Form.zero(7)
        for i in (1, 2, 7):
            total = total + t.hook_basis(i).wedge(Form.basis(7, i))
        theta123 = Form(7, {(1, 2, 7): Fraction(1)})
        assert total == t + theta123.scale(2 * mu)
        assert rep.reconstruction_overcount == theta123.scale(2 * mu)
        assert rep.reconstruction_literal is False and total != t


def test_criterion_11_kahler_ricci_spectrum():
    start = time.time()
    sol = solve_liouville(0.5, n=400)
    assert sol.residual_norm < 1e-10
    cf = bd.kahler_coframe(sol)
    pts = cf.sample_points(np.random.default_rng(SEED), 10)
    eigs = bd.kahler_ricci_eigenvalues(cf, pts)
    target = np.array([0.0, 0.0, 1.0, 1.0])     # {0, 0, 4a^2, 4a^2}, a = 1/2
    assert np.max(np.abs(eigs - target)) < 1e-6
    assert time.time() - start < 30.0


def test_criterion_12_bundle_construction_conclusions():
    data = bd.assemble_N5(solve_liouville(0.5, n=400))
    report = bd.strominger_check(
        data, data.total.sample_points(np.random.default_rng(SEED), 10))
    items = report.residuals
    assert items["torsion_norm"] < 1e-8         # | ||T||^2 - 4a^2 |
    assert items["d_torsion"] < 1e-6
    assert items["dstar_torsion"] < 1e-6
    assert items["nabla_eta"] < 1e-6
    assert items["ric_nabla"] < 1e-6
    assert items["oneill"] < 1e-6
    assert report.max_r_nabla > 0.01            # Ricci-flat yet non-flat


def test_criterion_13_randomized_property_suites():
    """100 deterministic random cases per property, exact arithmetic."""
    rng = random.Random(SEED)
    algebras = [lg.abelian(7), lg.r4_su2(1), lg.r4_su2(Fraction(-7)),
                lg.su2(2, n=7, slots=(1, 2, 3))]
    vol = Form(7, {tuple(range(1, 8)): Fraction(1)})
    for case in range(100):
        k = rng.choice((2, 3))
        alpha, beta = rand_form(rng, 7, k), rand_form(rng, 7, k)
        # Hodge isometry and the defining pairing alpha ^ *beta = (a, b) vol
        assert alpha.hodge().inner(beta.hodge()) == alpha.inner(beta)
        assert alpha.wedge(beta.hodge()) == vol.scale(alpha.inner(beta))
        # antiderivation law for the hook along a random vector
        x = [rand_fraction(rng) for _ in range(7)]
        gamma = rand_form(rng, 7, 3, terms=3)
        lhs = alpha.wedge(gamma).hook(x)
        sign = Fraction(-1) ** k
        rhs = alpha.hook(x).wedge(gamma) + alpha.wedge(gamma.hook(x)).scale(sign)
        assert lhs == rhs
        # d^2 = 0 for the invariant differential
        alg = rng.choice(algebras)
        assert alg.ce_d(alg.ce_d(gamma)).is_zero()
        # projector idempotence for the 1 + 7 + 27 splitting
        parts = project3(gamma)
        assert parts[1] + parts[7] + parts[27] == gamma
        for comp in (1, 7, 27):
            again = project3(parts[comp])
            assert again[comp] == parts[comp]
    # finite-difference convergence order on the closed-form sphere chart
    order = fd_convergence_order(sphere_coframe(1.0), np.array([1.0, 0.5]))
    assert order > 1.9
