"""Exterior algebra over the rationals against independent oracles.

The Hodge star is checked against a test-local implementation whose signs
come from inversion-count parity, and the inner product against explicit
coefficient sums.  The hypothesis suites cover the isometry, duality and
antiderivation laws that the geometric modules rely on.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from g2torsion.forms import Form, basis_indices, form_to_vector, parse_form, format_form
from g2torsion.g2 import standard_omega3

from .util import frame_sigma, forms, perm_parity, pullback, random_rotation, vectors


def oracle_hodge(form):
    """Independent Hodge star: *e_I = sign(I, I^c) e_{I^c} by inversion parity."""
    out = {}
    full = tuple(range(1, form.n + 1))
    for idx, c in form.coeffs.items():
        comp = tuple(i for i in full if i not in idx)
        out[comp] = out.get(comp, Fraction(0)) + perm_parity(idx + comp) * c
    return Form(form.n, out)


@given(st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), forms(n, 2))))
def test_hodge_matches_parity_oracle_deg2(pair):
    n, alpha = pair
    assert alpha.hodge() == oracle_hodge(alpha)


@given(forms(7, 3))
def test_hodge_matches_parity_oracle_deg3(alpha):
    assert alpha.hodge() == oracle_hodge(alpha)


@given(st.integers(1, 7).flatmap(
    lambda n: st.integers(0, n).flatmap(
        lambda k: st.tuples(st.just(n), st.just(k), forms(n, k)))))
def test_double_hodge_sign(triple):
    n, k, alpha = triple
    sign = (-1) ** (k * (n - k))
    assert alpha.hodge().hodge() == alpha.scale(sign)


@given(st.integers(2, 7).flatmap(
    lambda n: st.integers(1, n).flatmap(
        lambda k: st.tuples(st.just(n), forms(n, k), forms(n, k)))))
def test_hodge_isometry_and_volume_duality(triple):
    n, alpha, beta = triple
    # isometry: (*a, *b) = (a, b)
    assert alpha.hodge().inner(beta.hodge()) == alpha.inner(beta)
    # duality: a ^ *b = (a, b) vol
    wedge = alpha.wedge(beta.hodge())
    expected = Form.basis(n, *range(1, n + 1)).scale(alpha.inner(beta))
    assert wedge == expected


@given(forms(6, 2), forms(6, 2))
def test_wedge_graded_commutative(alpha, beta):
    assert alpha.wedge(beta) == beta.wedge(alpha)       # even degree
    gamma = Form.basis(6, 1)
    assert gamma.wedge(alpha) == alpha.wedge(gamma)


@given(forms(6, 1), forms(6, 1))
def test_wedge_anticommutes_on_one_forms(alpha, beta):
    assert alpha.wedge(beta) == -(beta.wedge(alpha))
    assert alpha.wedge(alpha).is_zero()


@given(vectors(6), forms(6, 2), forms(6, 3))
def test_hook_is_an_antiderivation(v, alpha, beta):
    v = [Fraction(x) for x in v]
    lhs = alpha.wedge(beta).hook(v)
    rhs = alpha.hook(v).wedge(beta) + alpha.wedge(beta.hook(v)).scale((-1) ** 2)
    assert lhs == rhs


@given(vectors(5), vectors(5), forms(5, 3))
def test_double_hook_anticommutes(x, y, alpha):
    x = [Fraction(v) for v in x]
    y = [Fraction(v) for v in y]
    assert alpha.hook(x).hook(y) == -(alpha.hook(y).hook(x))


@given(forms(7, 3), vectors(7))
def test_evaluate_agrees_with_hooks(alpha, x):
    x = [Fraction(v) for v in x]
    e2 = [Fraction(int(i == 2)) for i in range(1, 8)]
    e5 = [Fraction(int(i == 5)) for i in range(1, 8)]
    # (x hook T)(y, z) = T(x, y, z): hooks contract the first open slot
    hooked = alpha.hook(x).hook(e2).hook(e5)
    assert alpha.evaluate(x, e2, e5) == hooked.coeffs.get((), Fraction(0))


def derivation_case(n):
    """n, images of one degree q = p + 1 in 0..2, and two forms of degree
    0..3 for the Leibniz rule."""
    return st.integers(0, 2).flatmap(lambda q: st.tuples(
        st.just(n), st.just(q - 1),
        st.lists(forms(n, q, max_terms=3), min_size=n, max_size=n),
        st.integers(0, 3).flatmap(lambda a: st.tuples(st.just(a), forms(n, a))),
        st.integers(0, 3).flatmap(lambda b: forms(n, b))))


@given(derivation_case(5))
def test_derivation_sends_each_covector_to_its_image(case):
    n, _, images, _, _ = case
    for i in range(1, n + 1):
        assert Form.basis(n, i).derivation(images) == images[i - 1]


@given(derivation_case(5))
def test_derivation_obeys_graded_leibniz_rule(case):
    """D(a ^ b) = Da ^ b + (-1)^(p deg a) a ^ Db for a derivation of degree p."""
    n, p, images, (deg, alpha), beta = case
    sign = -1 if p * deg % 2 else 1
    lhs = alpha.wedge(beta).derivation(images)
    rhs = alpha.derivation(images).wedge(beta) + alpha.wedge(beta.derivation(images)).scale(sign)
    assert lhs == rhs


def test_derivation_rejects_mixed_image_degrees_and_wrong_count():
    images = [Form.basis(3, 1), Form.basis(3, 1, 2), Form.zero(3)]
    with pytest.raises(ValueError, match="mixed degrees"):
        Form.basis(3, 2).derivation(images)
    with pytest.raises(ValueError, match="2 derivation images for R\\^3"):
        Form.basis(3, 2).derivation(images[:2])


def test_sigma_of_simple_form_is_zero():
    t = Form(7, {(1, 2, 7): Fraction(5)})
    assert t.sigma().is_zero()


def test_sigma_known_value_two_terms():
    # T = e123 + e145: cross terms survive in sigma
    t = Form(7, {(1, 2, 3): Fraction(1), (1, 4, 5): Fraction(1)})
    # e1 hook T = e23 + e45, squares to 2 e2345; other hooks give simple forms
    assert t.sigma() == Form(7, {(2, 3, 4, 5): Fraction(1)})


@given(forms(7, 3))
def test_sigma_is_frame_independent(t):
    import numpy as np

    rng = np.random.default_rng(3)
    q = random_rotation(7, rng)
    assert frame_sigma(t, q) == t.sigma()


@given(forms(7, 3))
def test_pullback_by_rotation_preserves_inner_products(t):
    import numpy as np

    q = random_rotation(7, np.random.default_rng(5))
    assert pullback(t, q).norm2() == t.norm2()


@given(forms(7, 3))
def test_serialization_roundtrip(t):
    assert parse_form(format_form(t), 7) == t


def test_parse_form_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_form("+1*e123\n+oops\n", 7)


def test_parse_form_detached_signs():
    readme = ("# the standard calibration 3-form\n"
              "+ e127 + e135 - e146 - e236 - e245 + e347 + e567\n")
    assert parse_form(readme, 7) == standard_omega3()
    want = Form.basis(4, 1, 2) - Form.basis(4, 3, 4).scale(Fraction(3, 2))
    assert parse_form("e12 - 3/2 e34", 4) == want


@pytest.mark.parametrize("text, column", [("e12 +", 5), ("+", 1),
                                          ("e12 + - e34", 5)])
def test_parse_form_rejects_sign_without_term(text, column):
    with pytest.raises(ValueError, match=f"line 1, column {column}"):
        parse_form(text, 4)


@pytest.mark.parametrize("text, message", [
    ("٣*e١٢٧", "column 1: cannot parse coefficient .*non-ASCII"),
    ("3*e١٢٧", "column 1: cannot parse index block"),
    ("e12 + 1e999999999*e34", "column 5: cannot parse coefficient .*exponent"),
])
def test_parse_form_rejects_non_ascii_digits_and_huge_exponents(text, message):
    with pytest.raises(ValueError, match=f"line 1, {message}"):
        parse_form(text, 7)


@pytest.mark.parametrize("text, column, idx", [
    ("e18", 1, (1, 8)), ("e18 + e81", 1, (1, 8)), ("0*e19", 1, (1, 9)),
    ("e128 - e128", 1, (1, 2, 8)), ("e127 + 0 e390", 6, (3, 9, 0)),
])
def test_parse_form_rejects_out_of_range_index_whatever_its_coefficient(
        text, column, idx):
    """An index outside 1..n is an error even when its coefficient is zero
    or cancels against another term."""
    message = re.escape(f"index {idx} out of range for R^7")
    with pytest.raises(ValueError, match=f"line 1, column {column}: {message}"):
        parse_form(text, 7)


@pytest.mark.parametrize("coeffs, idx", [
    ({(1, 8): 0}, (1, 8)), ({(8, 8): 1}, (8, 8)), ({(0, 0, 3): 5}, (0, 0, 3)),
    ({(1, 2): 1, (9, 1): Fraction(0)}, (9, 1)),
])
def test_form_rejects_out_of_range_index_whatever_its_coefficient(coeffs, idx):
    """The constructor checks every index against 1..n before it drops a
    zero coefficient or a repeated index."""
    message = re.escape(f"index {idx} out of range for R^7")
    with pytest.raises(ValueError, match=message):
        Form(7, coeffs)


def test_form_vector_roundtrip():
    idx = basis_indices(7, 3)
    t = Form(7, {(1, 2, 7): Fraction(3, 2), (3, 4, 7): Fraction(-1)})
    v = form_to_vector(t, idx)
    assert sum(1 for x in v if x != 0) == 2
    assert len(v) == 35
