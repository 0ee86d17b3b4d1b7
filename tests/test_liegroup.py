"""Invariant calculus on metric Lie algebras.

Oracles: the dense all-slots Koszul formula, torsion tensor and
wedge-by-wedge differential of tests/util, the defining identity
d(theta^k)(e_i, e_j) = -c^k_{ij} for the invariant differential, d^2 = 0 on
algebras satisfying Jacobi, the classical flat connections with skew torsion
+/- the Cartan 3-form, and the dense-product curvature and holonomy closure
of tests/util.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from g2torsion import liegroup as lg
from g2torsion import linalg
from g2torsion.forms import Form, format_form
from g2torsion.g2 import char_torsion, standard_omega3, standard_omega4
from g2torsion.spin import standard_rep

from .util import (forms, is_metric, reference_ce_d, reference_holonomy_dim,
                   reference_nabla_form, reference_riemann, reference_torsion_tensor,
                   reference_with_torsion)

SU2_SLOTTED = lg.su2(2, n=7, slots=(1, 2, 3))
BUNDLED = lg.su2(Fraction(-7), n=7, slots=(1, 2, 7))

ALGEBRAS = st.sampled_from(
    [
        lg.abelian(7),
        lg.r4_su2(1),
        lg.r4_su2(Fraction(-7)),
        SU2_SLOTTED,
        lg.relabel(SU2_SLOTTED, [5, 6, 7, 4, 3, 1, 2]),
    ]
)


def test_differential_matches_structure_constants():
    """d(theta^k)(e_i, e_j) = -c^k_{ij}: checked on every basis 1-form."""
    for alg in (lg.r4_su2(3), SU2_SLOTTED, BUNDLED):
        n = alg.n
        unit = [[Fraction(a == b) for a in range(n)] for b in range(n)]
        for k in range(1, n + 1):
            dk = alg.ce_d(Form.basis(n, k))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    want = -alg.c(i, j, k)
                    assert dk.evaluate(unit[i - 1], unit[j - 1]) == want


@given(ALGEBRAS, st.integers(1, 3).flatmap(lambda k: forms(7, k)))
def test_differential_squares_to_zero(alg, form):
    assert alg.ce_d(alg.ce_d(form)).is_zero()


def test_jacobi_violation_is_rejected():
    bad = {(1, 2): {3: 1}, (1, 3): {1: 1}}
    with pytest.raises(ValueError, match="Jacobi"):
        lg.LieAlgebraData(3, bad)
    lg.LieAlgebraData(3, bad, check_jacobi=False)  # explicit opt-out works


def dense_jacobi_holds(alg):
    """Reference: every component of [[e_i, e_j], e_k] + cyclic from c()."""
    n = alg.n
    c = alg.c
    return all(
        sum((c(i, j, m) * c(m, k, l) + c(j, k, m) * c(m, i, l)
             + c(k, i, m) * c(m, j, l) for m in range(1, n + 1)), Fraction(0)) == 0
        for i in range(1, n + 1) for j in range(i + 1, n + 1)
        for k in range(j + 1, n + 1) for l in range(1, n + 1))


def su2_structure(lam, slots):
    a, b, c = slots
    return {(a, b): {c: lam}, (b, c): {a: lam}, (c, a): {b: lam}}


@pytest.mark.parametrize("n, structure", [
    (3, su2_structure(1, (1, 2, 3))),                         # su(2)
    (7, su2_structure(-7, (1, 2, 7))),                        # r4_su2 slots
    (7, su2_structure(Fraction(5, 3), (4, 1, 6))),
    (3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 2}}),    # unequal scales
    (3, {(1, 2): {3: 1}, (1, 3): {1: 1}}),                    # violates
    (4, {(1, 2): {3: 1}, (3, 4): {1: 1}}),                    # violates
])
def test_sparse_jacobi_agrees_with_dense_sum(n, structure):
    alg = lg.LieAlgebraData(n, structure, check_jacobi=False)
    holds = alg.jacobi_holds()
    assert holds == dense_jacobi_holds(alg)
    if holds:
        assert lg.LieAlgebraData(n, structure).structure == alg.structure
    else:
        with pytest.raises(ValueError, match="Jacobi"):
            lg.LieAlgebraData(n, structure)


def test_cartan_three_form_of_su2():
    assert SU2_SLOTTED.cartan_three_form() == Form(7, {(1, 2, 3): Fraction(2)})


def test_cartan_three_form_rejects_non_ad_invariant():
    heisenberg = lg.LieAlgebraData(3, {(1, 2): {3: 1}})
    with pytest.raises(ValueError, match="ad-invariant"):
        heisenberg.cartan_three_form()


def test_levi_civita_is_metric_and_torsion_free():
    for alg in (SU2_SLOTTED, BUNDLED, lg.abelian(5)):
        conn = lg.levi_civita(alg)
        assert is_metric(conn)
        assert conn.torsion_tensor().is_zero()


@given(forms(7, 3))
def test_with_torsion_realizes_its_torsion(t):
    conn = lg.with_torsion(lg.r4_su2(1), t)
    assert is_metric(conn)
    assert conn.torsion_tensor() == t


def test_flat_connections_with_cartan_torsion():
    """Torsion -C makes the invariant frame parallel (flat, n fields);

    torsion +C is also flat but only the 4 central fields are parallel."""
    c3 = SU2_SLOTTED.cartan_three_form()
    minus = lg.with_torsion(SU2_SLOTTED, c3.scale(-1))
    plus = lg.with_torsion(SU2_SLOTTED, c3)
    assert lg.curvature(minus).is_nabla_flat()
    assert lg.curvature(plus).is_nabla_flat()
    assert len(lg.parallel_fields(minus)) == 7
    assert len(lg.parallel_fields(plus)) == 4
    assert len(lg.holonomy_algebra(minus)) == 0
    assert len(lg.holonomy_algebra(plus)) == 0


def test_holonomy_and_curvature_agree_in_either_order():
    """R is computed once per connection and shared: calling holonomy_algebra
    first or curvature first gives the same Ricci tensors and holonomy."""
    torsion = SU2_SLOTTED.cartan_three_form().scale(Fraction(1, 3))
    first = lg.with_torsion(SU2_SLOTTED, torsion)
    hol_first = lg.holonomy_algebra(first)
    cur_first = lg.curvature(first)
    second = lg.with_torsion(SU2_SLOTTED, torsion)
    cur_second = lg.curvature(second)
    hol_second = lg.holonomy_algebra(second)
    assert cur_first.ric_nabla == cur_second.ric_nabla
    assert cur_first.ric_g == cur_second.ric_g
    assert any(any(row) for row in cur_first.ric_nabla)
    assert len(hol_first) == len(hol_second) > 0
    r = cur_first.riemann
    assert r is first.riemann
    n = len(r)
    zero = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
    for i in range(n):
        assert r[i][i] == zero
        for j in range(n):
            assert r[j][i] == tuple(tuple(-x for x in row) for row in r[i][j])


def test_levi_civita_holonomy_dimension():
    assert len(lg.holonomy_algebra(lg.levi_civita(SU2_SLOTTED))) == 3
    assert len(lg.holonomy_algebra(lg.levi_civita(lg.abelian(7)))) == 0


def test_misplaced_su2_is_not_cocalibrated():
    """su(2) on a non-calibrated triple: d(*omega3) has a pinned witness."""
    mis = lg.su2(Fraction(7), n=7, slots=(1, 2, 3))
    residual = mis.ce_d(standard_omega4())
    assert format_form(residual) == "-7*e12456 -7*e13467 -7*e23457"


def test_bundled_example_full_chain():
    """su(2)_{-7} on the calibrated triple (1,2,7): cocalibrated, flat

    characteristic connection, 7 parallel fields, 8 parallel spinors."""
    dw4 = BUNDLED.ce_d(standard_omega4())
    assert dw4.is_zero()
    dec = char_torsion(BUNDLED.ce_d(standard_omega3()), dw4)
    assert dec.mu == 7
    assert dec.torsion == Form(7, {(1, 2, 7): Fraction(7)})
    conn = lg.with_torsion(BUNDLED, dec.torsion)
    cur = lg.curvature(conn)
    assert cur.is_nabla_flat()
    assert not any(any(row) for row in cur.ric_nabla)
    assert len(lg.parallel_fields(conn)) == 7
    assert len(conn.parallel_spinors()) == 8
    assert cur.scal_g == Fraction(147, 2)


def test_riemannian_ricci_matches_quadratic_torsion_formula():
    """With flat characteristic connection, Ric^g = (1/4) sum T T."""
    dec = char_torsion(BUNDLED.ce_d(standard_omega3()))
    conn = lg.with_torsion(BUNDLED, dec.torsion)
    cur = lg.curvature(conn)
    quad = lg.ric_from_torsion(dec.torsion)
    assert [list(r) for r in cur.ric_g] == quad
    diag = [quad[i][i] for i in range(7)]
    assert diag == [Fraction(49, 2), Fraction(49, 2), 0, 0, 0, 0, Fraction(49, 2)]


def test_parallel_spinors_satisfy_integrability():
    dec = char_torsion(BUNDLED.ce_d(standard_omega3()))
    conn = lg.with_torsion(BUNDLED, dec.torsion)
    zero8 = [Fraction(0)] * 8
    spinors = conn.parallel_spinors()
    for per_direction, r_sigma, r_square in lg.integrability_residual(conn, spinors):
        assert all(r == zero8 for r in per_direction)
        assert r_sigma == zero8
        assert r_square == zero8


def word_spin_lift_kernel(conn):
    """Reference: nabla_{e_i} lifted to spinors as 1/2 sum_{k<l} Gamma_{ikl}
    gamma_k gamma_l, summed word by word; kernel of the seven stacked lifts."""
    rep = standard_rep()
    rows = []
    for i in range(1, 8):
        m = linalg.zeros(8, 8)
        g = conn.gamma[i - 1]
        for k in range(1, 8):
            for l in range(k + 1, 8):
                coeff = g[k - 1][l - 1]
                if coeff:
                    m = linalg.mat_add(
                        m, linalg.mat_scale(Fraction(1, 2) * coeff, rep.word((k, l))))
        rows.extend(m)
    return linalg.nullspace(rows)


CARTAN = SU2_SLOTTED.cartan_three_form()
#: e_7 rotates the planes e_12 and e_34; nabla_{e_7} is the only nonzero
#: Levi-Civita matrix, and its spin lift has a 4-dimensional kernel.
ROTATION = lg.LieAlgebraData(7, {(7, 1): {2: 1}, (7, 2): {1: -1},
                                 (7, 3): {4: 1}, (7, 4): {3: -1}})


@pytest.mark.parametrize("conn, dim", [
    (lg.levi_civita(SU2_SLOTTED), 0),
    (lg.with_torsion(SU2_SLOTTED, CARTAN.scale(-1)), 8),
    (lg.with_torsion(SU2_SLOTTED, CARTAN), 0),
    (lg.with_torsion(SU2_SLOTTED, CARTAN.scale(Fraction(1, 3))), 0),
    (lg.with_torsion(BUNDLED, char_torsion(BUNDLED.ce_d(standard_omega3())).torsion), 8),
    (lg.levi_civita(ROTATION), 4),
])
def test_parallel_spinors_match_word_by_word_spin_lift(conn, dim):
    kernel = conn.parallel_spinors()
    assert kernel == word_spin_lift_kernel(conn)
    assert len(kernel) == dim


def residual_of_one(conn, psi):
    """Reference: the three residuals of one spinor, each operator applied
    through CliffordRep.act."""
    rep = standard_rep()
    t = conn.torsion
    dt = conn.algebra.ce_d(t)
    per_direction = [rep.act(dt.hook_basis(i) + conn.nabla_form(i, t).scale(2), psi)
                     for i in range(1, 8)]
    r_sigma = rep.act(dt.scale(3) - t.sigma().scale(2), psi)
    tt = rep.act(t, rep.act(t, psi))
    return per_direction, r_sigma, [a - t.norm2() * b for a, b in zip(tt, psi)]


def test_integrability_residual_is_one_triple_per_spinor_in_order():
    """Under torsion omega3 on the bundled algebra no basis spinor is
    parallel: every triple is nonzero, so an operator that is always zero
    cannot pass, and the triples follow the input order."""
    conn = lg.with_torsion(BUNDLED, standard_omega3())
    basis = [[Fraction(int(a == b)) for a in range(8)] for b in range(8)]
    got = lg.integrability_residual(conn, basis)
    assert len(got) == 8
    for psi, (per_direction, r_sigma, r_square) in zip(basis, got):
        assert (per_direction, r_sigma, r_square) == residual_of_one(conn, psi)
        assert any(any(r) for r in (*per_direction, r_sigma, r_square))
    assert lg.integrability_residual(conn, basis[::-1]) == got[::-1]
    assert lg.integrability_residual(conn, []) == []


def test_parallel_fields_preserve_torsion():
    """L_theta T = 0 for every parallel field of the bundled example."""
    dec = char_torsion(BUNDLED.ce_d(standard_omega3()))
    conn = lg.with_torsion(BUNDLED, dec.torsion)
    for v in lg.parallel_fields(conn):
        assert BUNDLED.lie_derivative(v, dec.torsion).is_zero()


def test_cartan_form_is_ad_invariant():
    c3 = SU2_SLOTTED.cartan_three_form()
    for i in range(1, 8):
        assert SU2_SLOTTED.lie_derivative(i, c3).is_zero()


def test_relabel_moves_su2_between_slots():
    perm = [1, 2, 7, 4, 5, 6, 3]  # swap frame legs 3 and 7
    moved = lg.relabel(lg.su2(Fraction(-7), n=7, slots=(1, 2, 3)), perm)
    assert moved.structure == BUNDLED.structure


@pytest.mark.parametrize("text, message", [
    ("# dimension ７\n1 2 7 -7\n", "line 1: dimension '７'"),
    ("# dimension 7\n١ ٢ ٧ -٧\n", "line 2: indices .* not ASCII"),
    ("1 2 7 -٧\n", "line 1: non-ASCII"),
    ("1 2 7 1e999999999\n", "line 1: decimal exponent"),
])
def test_parse_algebra_rejects_non_ascii_digits_and_huge_exponents(text, message):
    with pytest.raises(ValueError, match=message):
        lg.parse_algebra(text)


def test_parse_algebra_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        lg.parse_algebra("1 2 3 1\n1 3 oops\n")
    with pytest.raises(ValueError, match="line 1.*vanish"):
        lg.parse_algebra("1 1 2 1\n")
    with pytest.raises(ValueError, match="line 3.*duplicate"):
        lg.parse_algebra("1 2 3 1\n1 3 2 1\n2 1 3 1\n")


@pytest.mark.parametrize("structure", [{(1, 2): {9: 0}}, {(2, 1): {0: 0}},
                                       {(1, 1): {8: 0}}])
def test_algebra_checks_target_range_before_skipping_zeros(structure):
    """A bracket target outside 1..n is an error even when its constant is 0
    (the CLI tests read such a line through parse_algebra)."""
    with pytest.raises(ValueError, match="bracket target . out of range"):
        lg.LieAlgebraData(7, structure)


def seeded_slot_triples(seed=17):
    """su(2)_lam on every slot triple, each in a seeded slot order and at a
    seeded lam = +-p/q (p <= 99, q <= 9), as the pipeline benchmark draws."""
    rng = random.Random(seed)
    out = []
    for triple in combinations(range(1, 8), 3):
        slots = list(triple)
        rng.shuffle(slots)
        lam = Fraction(rng.choice((1, -1)) * rng.randint(1, 99), rng.randint(1, 9))
        out.append((f"su2({lam})-slots{''.join(map(str, slots))}",
                    lg.su2(lam, n=7, slots=tuple(slots))))
    return out


#: Nilpotent algebras: Heisenberg h3 (alone and inside R^7), the filiform
#: n4, the free 2-step algebra on three generators and Heisenberg h7.
NILPOTENT = [
    lg.LieAlgebraData(3, {(1, 2): {3: 1}}),
    lg.LieAlgebraData(7, {(1, 2): {3: Fraction(-5, 2)}}),
    lg.LieAlgebraData(7, {(1, 2): {3: 1}, (1, 3): {4: Fraction(1, 2)}}),
    lg.LieAlgebraData(7, {(1, 2): {4: 1}, (1, 3): {5: 1}, (2, 3): {6: 1}}),
    lg.LieAlgebraData(7, {(1, 2): {7: 1}, (3, 4): {7: 1}, (5, 6): {7: 1}}),
]


def seeded_placements(seed=5, count=2):
    """The named algebras pushed through seeded frame permutations, as
    group-report --placement does."""
    rng = random.Random(seed)
    out = []
    for alg in (SU2_SLOTTED, BUNDLED, NILPOTENT[2], ROTATION):
        for _ in range(count):
            perm = list(range(1, 8))
            rng.shuffle(perm)
            out.append(lg.relabel(alg, perm))
    return out


def connections_of(alg):
    """Levi-Civita and one connection with torsion: the characteristic
    torsion when the algebra is cocalibrated, else omega3 (7-dimensional)
    or e123."""
    if alg.n != 7:
        return [lg.levi_civita(alg), lg.with_torsion(alg, Form(alg.n, {(1, 2, 3): 1}))]
    dw4 = alg.ce_d(standard_omega4())
    t = (char_torsion(alg.ce_d(standard_omega3()), dw4).torsion if dw4.is_zero()
         else standard_omega3())
    return [lg.levi_civita(alg), lg.with_torsion(alg, t)]


PLACEMENTS = seeded_placements()
CURVATURE_CASES = (
    seeded_slot_triples()
    + [(f"r4_su2({lam})", lg.r4_su2(lam)) for lam in (1, Fraction(-7), Fraction(5, 3))]
    + [(f"nilpotent-{k}", alg) for k, alg in enumerate(NILPOTENT)]
    + [(f"placement-{k}", alg) for k, alg in enumerate(PLACEMENTS)]
    + [("su2-slotted", SU2_SLOTTED), ("bundled", BUNDLED), ("rotation", ROTATION),
       ("abelian", lg.abelian(7))]
)


@pytest.mark.parametrize("alg", [a for _, a in CURVATURE_CASES],
                         ids=[name for name, _ in CURVATURE_CASES])
def test_riemann_matches_dense_products(alg):
    """The curvature from sparse products equals the dense-product reference
    entry by entry, each entry a Fraction, for both connections."""
    for conn in connections_of(alg):
        for (i, j), want in reference_riemann(conn).items():
            got = conn.riemann[i][j]
            assert [list(row) for row in got] == want
            assert all(type(x) is Fraction for row in got for x in row)


#: Every connection with Levi-Civita; the torsion connections of a few
#: named algebras: flat ones, two with 14-dimensional holonomy and one with
#: all of so(7); pipeline-stream's inputs, the su(2)_lam, with the torsion
#: of connections_of; and omega3 as torsion on every other 7-dimensional
#: algebra, where most closures reach all of so(7).
HOLONOMY_CASES = (
    [(f"{name}-levi-civita", lg.levi_civita(a)) for name, a in CURVATURE_CASES
     if not name.startswith("su2(")]
    + [(f"{name}-torsion", connections_of(a)[1]) for name, a in CURVATURE_CASES
       if name in ("r4_su2(-7)", "nilpotent-0", "nilpotent-4", "su2-slotted",
                   "bundled", "rotation") or name.startswith("su2(")]
    + [(f"{name}-omega3", lg.with_torsion(a, standard_omega3()))
       for name, a in CURVATURE_CASES if a.n == 7 and not name.startswith("su2(")]
)


@pytest.mark.parametrize("conn", [c for _, c in HOLONOMY_CASES],
                         ids=[name for name, _ in HOLONOMY_CASES])
def test_holonomy_dimension_matches_dense_closure(conn):
    assert len(lg.holonomy_algebra(conn)) == reference_holonomy_dim(conn)


def random_structure(rng, n):
    """Up to five brackets with one to three fractional targets each, some
    pointing back into their own pair; Jacobi is not imposed."""
    pairs = list(combinations(range(1, n + 1), 2))
    return {ij: {rng.randint(1, n): Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                 for _ in range(rng.randint(1, 3))}
            for ij in rng.sample(pairs, min(len(pairs), rng.randint(0, 5)))}


def random_form(rng, n, degrees, terms=4):
    return Form(n, {tuple(sorted(rng.sample(range(1, n + 1), rng.choice(degrees)))):
                    Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                    for _ in range(terms)})


def torsion_or_error(compute):
    """The coefficients of compute(), or the message of its ValueError."""
    try:
        return compute().coeffs
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("n", range(1, 9))
def test_nonzero_entry_connection_matches_dense_koszul(n):
    """Gamma, the recomputed torsion and d from nonzero entries equal the
    dense all-slots references on random structures (Jacobi not imposed)
    with fractional 3-form torsion; a Gamma perturbed at one slot raises
    exactly when the dense skewness check does."""
    rng = random.Random(100 + n)
    outcomes = set()
    for _ in range(40):
        alg = lg.LieAlgebraData(n, random_structure(rng, n), check_jacobi=False)
        t = random_form(rng, n, [3]) if n >= 3 else Form.zero(n)
        conn = lg.with_torsion(alg, t)
        assert conn.gamma == reference_with_torsion(alg, t)
        assert all(type(x) is Fraction for g in conn.gamma for row in g for x in row)
        assert conn.torsion_tensor().coeffs == reference_torsion_tensor(conn).coeffs
        assert conn.torsion_tensor() == t
        gamma = [[list(row) for row in g] for g in conn.gamma]
        i, j, k = (rng.randrange(n) for _ in range(3))
        gamma[i][j][k] += Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
        bent = lg.InvariantConnection(alg, tuple(tuple(map(tuple, g)) for g in gamma), t)
        got = torsion_or_error(bent.torsion_tensor)
        assert got == torsion_or_error(lambda: reference_torsion_tensor(bent))
        outcomes.add(type(got))
        form = random_form(rng, n, range(n + 1))
        assert alg.ce_d(form).coeffs == reference_ce_d(alg, form).coeffs
        assert alg.ce_d(t).coeffs == reference_ce_d(alg, t).coeffs
    if n > 1:
        assert outcomes == {str, dict}      # both branches of the check ran


@pytest.mark.parametrize("n", range(1, 9))
def test_nabla_form_matches_slotwise_reference(n):
    """nabla_{e_i} of a form of mixed degrees equals the slot-by-slot
    reference along every e_i, on seeded torsion connections of random
    metric algebras (Jacobi not imposed) and the connections of the named
    7-dimensional algebras."""
    rng = random.Random(300 + n)
    conns = []
    for _ in range(6):
        alg = lg.LieAlgebraData(n, random_structure(rng, n), check_jacobi=False)
        t = random_form(rng, n, [3]) if n >= 3 else Form.zero(n)
        conns.append(lg.with_torsion(alg, t))
    if n == 7:
        conns += [c for alg in (SU2_SLOTTED, BUNDLED, ROTATION) for c in connections_of(alg)]
    for conn in conns:
        form = random_form(rng, n, range(n + 1))
        for i in range(1, n + 1):
            assert conn.nabla_form(i, form) == reference_nabla_form(conn, i, form)
