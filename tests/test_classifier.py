"""Eigen-torsion families, kernel dimensions, and the two-field analysis.

Oracles: exact affine solves of the eigen systems, a test-local Pfaffian
for determinants of skew 4x4 matrices, and direct evaluation of the closed
forms on small rational grids.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings

from g2torsion import classifier as cl
from g2torsion import linalg
from g2torsion.forms import Form, basis_indices, form_to_vector
from g2torsion.g2 import lambda1_7_rows, standard_omega3

from .util import (nonzero_fractions, reference_kernel_dims, reference_quadric_member,
                   reference_rref, small_fractions)

#: reference_quadric_member over seeded_det_e2_inputs(2000); rebuild with
#: PYTHONPATH=src python -m tests.test_classifier
QUADRIC_TABLE = Path(__file__).parent / "data" / "quadric_members.json"


def pfaffian4(m):
    """Pf of a 4x4 skew matrix; det = Pf^2 is the classical oracle."""
    return m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2]


# ---------------------------------------------------------------- families


@settings(max_examples=25)
@given(small_fractions, small_fractions, small_fractions)
def test_eigen_family_dimension_and_invariants(m1, m2, m3):
    """Every rational eigentriple admits a 9-parameter family with pinned

    invariants a = -(m1-m2+m3)/4, b = (-m1+m2+m3)/4, c = 0, and the family
    equals the closed-form parameterization (double inclusion)."""
    m = cl.EigenTriple.of(m1, m2, m3)
    fam = cl.solve_family(m)
    assert fam.dimension == 9
    assert fam.a == m.a() == -(m1 - m2 + m3) / 4
    assert fam.b == m.b() == (-m1 + m2 + m3) / 4
    assert fam.c == 0
    assert cl.families_coincide(fam, m)


def test_family_members_solve_the_eigen_system():
    from g2torsion.spin import standard_rep

    rep = standard_rep()
    m = cl.EigenTriple.of(2, Fraction(-1, 3), 5)
    fam = cl.solve_family(m)
    psis = cl.reference_spinors()
    member = fam.particular
    for t, d in zip([1, 0, Fraction(1, 2), 0, -2, 0, 0, 3, 0], fam.directions, strict=True):
        member = member + d.scale(t)
    for i in (1, 2, 3):
        assert rep.act(member, list(psis[i])) == [m.values[i - 1] * x for x in psis[i]]
    # membership test agrees
    assert fam.contains(member)
    assert not fam.contains(member + Form.basis(7, 1, 2, 3))
    # set equality needs both the linear part and the offset: the closed-form
    # family of m3 = 6 has the same directions but another offset
    assert fam.equals(member, fam.directions)
    assert not fam.equals(member, fam.directions[1:])
    assert cl.families_coincide(fam, m)
    assert not cl.families_coincide(fam, cl.EigenTriple.of(2, Fraction(-1, 3), 6))


def test_lemma_member_dependent_coefficients():
    t = {(2, 3, 5): Fraction(3), (2, 3, 6): Fraction(1, 2), (3, 4, 7): 2}
    member = cl.lemma_member(4, Fraction(1), Fraction(-2), t)
    assert member[(2, 4, 6)] == member[(2, 3, 5)] == 3
    assert member[(2, 4, 5)] == 1 - Fraction(1, 2)
    assert member[(5, 6, 7)] == -2 - 2
    assert member[(1, 2, 7)] == -2 + 2  # -m1/2 - b


def test_eigen_system_rref_matches_fraction_gauss_jordan(monkeypatch):
    """The eliminations behind solve_family, checked against the reference."""
    seen = []
    real = linalg.rref

    def recording(m):
        seen.append(m)
        return real(m)

    # the system is eliminated once per process: drop the cached elimination
    # so that this call runs it again
    cl._lemma_system.cache_clear()
    monkeypatch.setattr(linalg, "rref", recording)
    cl.solve_family(cl.EigenTriple.of(2, Fraction(-1, 3), 5))
    monkeypatch.undo()
    assert seen
    for m in seen:
        assert linalg.rref(m) == reference_rref(m)


@lru_cache(maxsize=2)
def assembled_rows(hooks):
    """Coefficient rows of the eigen system, from the spinor action on each
    basis 3-form; with hooks, plus the rows of theta_slot hook Sigma for
    slots 1, 2 over the 2-form indices."""
    from g2torsion.spin import standard_rep

    rep = standard_rep()
    idx3, idx2 = cl.IDX3, basis_indices(7, 2)
    rows = [list(r) for r in lambda1_7_rows()]
    for psi in cl.reference_spinors()[1:]:
        acted = [rep.act(Form.basis(7, *idx), psi) for idx in idx3]
        rows.extend([col[comp] for col in acted] for comp in range(8))
    if hooks:
        for slot in (1, 2):
            cols = [form_to_vector(Form.basis(7, *idx).hook_basis(slot), idx2) for idx in idx3]
            rows.extend(linalg.transpose(cols))
    return rows


def assembled_family(m, mu=None):
    """(dimension, particular, directions, (a, b, c)) of the eigen system at
    m, assembled whole with its right-hand side and solved by one
    solve_affine; with mu, plus theta_slot hook (T_1 + Sigma) = 0 for slots
    1, 2 and T_1 = (mu/7) omega3."""
    rhs = [Fraction(0)] * len(lambda1_7_rows())
    for i in (1, 2, 3):
        rhs.extend(m.values[i - 1] * x for x in cl.reference_spinors()[i])
    if mu is not None:
        t1 = standard_omega3().scale(Fraction(mu) / 7)
        for slot in (1, 2):
            rhs.extend(form_to_vector(t1.hook_basis(slot).scale(-1), basis_indices(7, 2)))
    x0, kernel = linalg.solve_affine(assembled_rows(mu is not None), rhs)
    if x0 is None:
        return -1, None, [], None
    x = dict(zip(cl.IDX3, x0))
    abc = (x[(2, 3, 6)] + x[(2, 4, 5)], x[(3, 4, 7)] + x[(5, 6, 7)],
           x[(2, 3, 5)] - x[(2, 4, 6)])
    return len(kernel), x0, kernel, abc


def family_parts(fam):
    """The parts of a solved family that assembled_family returns."""
    if fam.is_empty():
        return -1, None, [], None
    return (fam.dimension, form_to_vector(fam.particular, cl.IDX3),
            [form_to_vector(d, cl.IDX3) for d in fam.directions], (fam.a, fam.b, fam.c))


def seeded_eigen_triples():
    """210 triples: zero, repeated values, admissible root assignments at
    several mu, numerators near 10^6 and seeded small fractions."""
    rng = random.Random(23)
    triples = [(0, 0, 0)]
    for q in (Fraction(1), Fraction(-5, 3), Fraction(7, 2)):
        triples += [(q, q, q), (q, q, 0), (0, q, q), (q, -q, q)]
    for mu in (Fraction(7), Fraction(-7), Fraction(1), Fraction(7, 3), Fraction(0)):
        triples += list(product(cl.root_pair(mu), repeat=3))
    big = 10**6
    for _ in range(40):
        triples.append(tuple(Fraction(big + rng.randint(-50, 50) * rng.choice((1, -1)),
                                      rng.choice((1, 3, 7, 11)))
                             * rng.choice((1, -1)) for _ in range(3)))
    while len(triples) < 210:
        triples.append(tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                             for _ in range(3)))
    return [cl.EigenTriple.of(*t) for t in triples]


def test_solve_family_equals_an_elimination_of_the_assembled_system():
    """Each family read from the once-eliminated system is the solve of the
    system assembled whole at m, Fraction for Fraction."""
    triples = seeded_eigen_triples()
    assert len(triples) >= 200
    for m in triples:
        got = family_parts(cl.solve_family(m))
        assert got == assembled_family(m), m
        assert got[0] == 9


@pytest.mark.parametrize("mu", [Fraction(7), Fraction(-7), Fraction(3, 2),
                                Fraction(-22, 5), Fraction(0)])
def test_two_field_branches_equal_an_elimination_of_the_assembled_system(mu):
    for label, m in zip(("first", "second"), cl.two_field_branches(mu)):
        got = family_parts(cl.solve_two_field_branch(m, mu, label).family)
        assert got == assembled_family(m, mu), (label, mu)
    # off the branches the hook rows leave no solution either way
    m = cl.EigenTriple.of(1, 2, 3)
    got = family_parts(cl.solve_two_field_branch(m, mu, "off").family)
    assert got == assembled_family(m, mu)
    assert got[0] == -1


def test_warm_solves_run_no_elimination(monkeypatch):
    """After one call, solve_family and the two-field branches only combine
    reduced columns."""
    cl.solve_family(cl.EigenTriple.of(1, 2, 3))
    cl.solve_two_field_branch(cl.EigenTriple.of(-8, 6, 6), 7, "first")
    calls = []
    real = linalg.rref

    def counting(m):
        calls.append(len(m))
        return real(m)

    monkeypatch.setattr(linalg, "rref", counting)
    for k in range(50):
        cl.solve_family(cl.EigenTriple.of(k, Fraction(1, k + 2), -k))
    for mu in (1, 7, Fraction(-3, 2)):
        for m in cl.two_field_branches(mu):
            cl.solve_two_field_branch(m, mu, "warm")
    assert calls == []


# ---------------------------------------------------------------- kernels


def test_kernel_dimension_chain():
    assert cl.kernel_dims() == {1: 27, 2: 20, 3: 14, 4: 9}


def test_kernel_dims_match_per_k_rebuild():
    dims = cl.kernel_dims()
    assert [dims[k] for k in (1, 2, 3, 4)] == [
        reference_kernel_dims(k) for k in (1, 2, 3, 4)]


# ---------------------------------------------------------------- values


@given(nonzero_fractions)
def test_eigenvalue_roots_solve_the_quadratic(mu):
    roots = cl.eigenvalue_roots(mu)
    assert roots == {Fraction(6, 7) * mu, Fraction(-8, 7) * mu}
    for m in roots:
        assert m * m + Fraction(2, 7) * mu * m - Fraction(48, 49) * mu * mu == 0


@given(nonzero_fractions)
def test_torsion_value_fibers(mu):
    table = cl.torsion_value_enumeration(mu)
    assert len(table) == 8
    hi, lo = Fraction(6, 7) * mu, Fraction(-8, 7) * mu
    for pattern, value in table.items():
        assert value == mu / 7 - sum(pattern) / 4
    fibers = cl.torsion_value_fibers(mu)
    want = {-mu / 2: 1, Fraction(0): 3, mu / 2: 3, mu: 1}
    assert fibers == want
    # all-high pattern gives the mu value; all-low gives mu/7 + 6mu/7 = mu? no:
    assert table[(lo, lo, lo)] == mu / 7 + Fraction(6, 7) * mu == mu
    assert table[(hi, hi, hi)] == mu / 7 - Fraction(9, 14) * mu == -mu / 2


def test_torsion_values_degenerate_at_zero():
    assert cl.torsion_value_fibers(0) == {Fraction(0): 8}


# ---------------------------------------------------------------- det E2


@given(small_fractions, nonzero_fractions)
def test_det_e2_brute_force_and_pfaffian(b, mu):
    report = cl.det_e2(b, mu)
    closed = (-(b * b) - Fraction(4, 7) * b * mu + Fraction(45, 49) * mu * mu) ** 2 / 4
    assert report["closed_form"] == closed
    if report["member"] is None:
        return
    a_, b_, c_, d_ = report["member"]
    assert a_ + d_ == b + Fraction(2, 7) * mu
    assert cl.template_norm_constraint(a_, b_, c_, d_) == mu * mu
    torsion = cl.two_field_template(a_, b_, c_, d_)
    eta = torsion.hook_basis(7)
    m4 = cl.skew_matrix_of_two_form(eta, (3, 4, 5, 6))
    assert report["det4"] == pfaffian4(m4) ** 2 == closed
    assert report["det6"] == 0


def seeded_det_e2_inputs(count, seed=1):
    """(b, mu) pairs drawn like the classifier stream's: +-p/q, p <= 99, q <= 9."""
    rng = random.Random(seed)

    def rational():
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 99), rng.randint(1, 9))

    return [(rational(), rational()) for _ in range(count)]


def load_quadric_table():
    rows = json.loads(QUADRIC_TABLE.read_text())
    return [(Fraction(b), Fraction(mu),
             None if member is None else tuple(Fraction(x) for x in member))
            for b, mu, member in rows]


def test_quadric_member_matches_reference_table():
    """The integer search returns the reference's member on 2,000 inputs."""
    table = load_quadric_table()
    assert [(b, mu) for b, mu, _ in table] == seeded_det_e2_inputs(2000)
    assert sum(member is not None for _, _, member in table) > 200
    for b, mu, member in table:
        got = cl.quadric_member(b, mu)
        assert got == member, (b, mu)
        if got is not None:
            assert all(type(x) is Fraction for x in got)


def test_quadric_table_is_the_reference_output():
    for b, mu, member in load_quadric_table()[::50]:
        assert reference_quadric_member(b, mu) == member, (b, mu)


@pytest.mark.parametrize("b, mu", [
    (100, 7),                           # t < 0: no real point
    (Fraction(123456789, 7), 7),        # t < 0
    (1, 0),                             # t = -1
    (0, 0),                             # t = 0: the member is zero
    (0, 7),                             # found in the search
    (1, 7),                             # found with B = 0
    (Fraction(-3, 2), Fraction(5, 3)),  # t = n/d > 0, n d = 4(8k + 7): none
    (-6, 61),                           # a rational point the grid misses
])
def test_quadric_member_edge_cases_match_reference(b, mu):
    assert cl.quadric_member(b, mu) == reference_quadric_member(b, mu)


def test_det_e2_vanishes_exactly_at_special_ratio():
    for mu in (Fraction(7), Fraction(-3), Fraction(1, 2)):
        b = Fraction(5, 7) * mu
        report = cl.det_e2(b, mu)
        assert report["closed_form"] == 0
        assert report["det4"] == 0


# ---------------------------------------------------------------- branches


def test_two_field_branch_eigentriples():
    first, second = cl.two_field_branches(7)
    assert first.values == (-8, 6, 6)
    assert second.values == (6, 6, -8)
    assert (first.a(), first.b()) == (2, 5)
    assert (second.a(), second.b()) == (2, -2)


@pytest.mark.parametrize("mu", [Fraction(7), Fraction(3, 2)])
def test_two_field_case_analysis(mu):
    report = cl.two_field_case_analysis(mu)
    first, second = report["first"], report["second"]
    assert (first.a, first.b) == report["first_expected_ab"]
    assert (second.a, second.b) == report["second_expected_ab"]
    assert first.dimension == 3
    assert report["first_template_matches"]
    assert report["second_empty"]
    assert report["exclusion_identities_hold"]


@given(nonzero_fractions, small_fractions, small_fractions)
def test_branch1_member_lies_on_quadric(v1, v2, v3):
    mu = Fraction(7)
    a_, b_, c_, d_ = cl.branch1_member(mu, v1, v2, v3)
    assert a_ + d_ == mu
    assert cl.template_norm_constraint(a_, b_, c_, d_) == mu * mu


def test_branch1_member_belongs_to_solved_family():
    mu = Fraction(7)
    report = cl.two_field_case_analysis(mu)
    fam = report["first"].family
    t1 = standard_omega3().scale(mu / 7)
    member = cl.two_field_template(*cl.branch1_member(mu, 2, -1, 3))
    assert fam.contains(member - t1)


@given(small_fractions, small_fractions, small_fractions, small_fractions)
def test_template_norm_identity(a_, b_, c_, d_):
    t = cl.two_field_template(a_, b_, c_, d_)
    assert t.norm2() == cl.template_norm_constraint(a_, b_, c_, d_)


# ---------------------------------------------------------------- Omega^2


def test_omega_identities_on_branch_member():
    mu = Fraction(7)
    member = cl.two_field_template(*cl.branch1_member(mu, 1, 1, 1))
    report = cl.omega_form_identities(member, mu)
    for key in ("omega1_frame", "omega2_frame", "omega3_frame",
                "omega3_from_torsion", "d_omega1", "d_omega2", "d_omega3",
                "flow_omega1", "flow_omega2", "flow_omega3",
                "torsion_reconstruct", "eta_squared_zero", "ric5_matches"):
        assert report[key], key
    assert report["pair_omega1"] == 0
    assert report["pair_omega2"] == 0
    assert report["pair_omega3"] == mu
    assert report["kernel_dim"] == 2
    five = [i - 1 for i in cl.F_TO_E]
    ric = cl.ric_from_torsion(member)
    ric5 = [[ric[i][j] for j in five] for i in five]
    assert linalg.has_spectrum(ric5, {Fraction(0): 2, mu * mu / 2: 3})
    assert not linalg.has_spectrum(ric5, {Fraction(0): 3, mu * mu / 2: 2})
    assert not linalg.has_spectrum(ric5, {Fraction(0): 2, mu * mu: 3})


def test_omega_identities_quadratic_grid():
    """The identities are polynomial of low degree in (A, B, C); holding on

    a 3^3 grid of first-branch members proves them for the whole branch."""
    mu = Fraction(7)
    for v1 in (1, 2, 3):
        for v2 in (0, 1, -2):
            for v3 in (0, 1):
                member = cl.two_field_template(*cl.branch1_member(mu, v1, v2, v3))
                report = cl.omega_form_identities(member, mu)
                assert all(v is True for k, v in report.items()
                           if k.startswith(("d_", "flow_", "torsion", "eta")))


if __name__ == "__main__":
    rows = []
    for b, mu in seeded_det_e2_inputs(2000):
        member = reference_quadric_member(b, mu)
        rows.append([str(b), str(mu), member and [str(x) for x in member]])
    QUADRIC_TABLE.parent.mkdir(exist_ok=True)
    QUADRIC_TABLE.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n")
