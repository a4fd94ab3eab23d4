"""Weight values, Newton-edge selection, and factored-form recognition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylnil import (
    FactoredForm,
    FormDiagnostic,
    FormIssue,
    NewtonData,
    NotNormalizableError,
    Weight,
    WeylElement,
    associated_poly,
    choose_weights,
    commutator,
    factor_form,
    format_bivariate,
    generators,
    weight_value,
)

from conftest import weyl_elements

x, d = generators()


def test_weight_requires_primitive_positive_pair():
    with pytest.raises(ValueError):
        Weight(0, 1)
    with pytest.raises(ValueError):
        Weight(2, 4)
    assert Weight(2, 1).of(1, 1) == 3


def test_weight_value_examples():
    assert weight_value(x**2 * d**3 + x, Weight(1, 2)) == 8
    assert weight_value(x, Weight(3, 5)) == 3
    assert weight_value(d**2 - x, Weight(2, 1)) == 2


def test_weight_value_zero_rejected():
    with pytest.raises(ValueError):
        weight_value(WeylElement.zero(), Weight(1, 1))


def test_associated_poly_quartic():
    e = d**4 + 2 * x * d**2 + 2 * d + x**2
    nd = associated_poly(e, Weight(2, 1))
    assert nd.value == 4
    assert nd.assoc.nums.keys() == frozenset({(0, 4), (1, 2), (2, 0)})
    assert nd.assoc == WeylElement({(0, 4): 1, (1, 2): 2, (2, 0): 1})
    assert format_bivariate(nd.assoc) == "Y^4 + 2*X*Y^2 + X^2"


@pytest.mark.parametrize(
    "assoc, text",
    [
        ({}, "0"),
        ({(0, 2): -1, (1, 0): Fraction(1, 2), (0, 0): -1}, "-Y^2 - 1 + 1/2*X"),
        ({(3, 1): Fraction(-4, 3), (0, 1): 1}, "Y - 4/3*X^3*Y"),
    ],
)
def test_format_bivariate_golden(assoc, text):
    assert format_bivariate(WeylElement(assoc)) == text


def test_associated_poly_airy():
    nd = associated_poly(d**2 - x, Weight(2, 1))
    assert nd.assoc == WeylElement({(0, 2): 1, (1, 0): -1})


def test_associated_poly_single_term():
    nd = associated_poly(x, Weight(1, 1))
    assert nd.assoc == WeylElement({(1, 0): 1})


def _edge_end(e):
    """The chosen weight and the Newton-edge point of greatest coordinate
    exponent, read off the top-weight part."""
    w = choose_weights(e)
    return w, max(associated_poly(e, w).assoc.nums)


def test_choose_weights_airy():
    w, point = _edge_end(d**2 - x)
    assert w.as_tuple() == (2, 1)
    assert point == (1, 0)


def test_choose_weights_cubic():
    w, point = _edge_end(d**3 + x * d)
    assert w.as_tuple() == (2, 1)
    assert point == (1, 1)


def test_choose_weights_greatest_coordinate_tiebreak():
    w, point = _edge_end(d**4 + 2 * x * d**2 + 2 * d + x**2)
    assert w.as_tuple() == (2, 1)
    assert point == (2, 0)


def test_choose_weights_signals_constant_coefficients():
    with pytest.raises(ValueError, match="constant coefficients"):
        choose_weights(d**3 + 2 * d)


def test_choose_weights_rejects_nonconstant_leading():
    with pytest.raises(NotNormalizableError):
        choose_weights(x * d)


def test_choose_weights_bounds_support():
    rng = random.Random(7)
    for _ in range(50):
        terms = {(0, 5): Fraction(1)}
        for _ in range(rng.randint(1, 6)):
            terms[(rng.randint(0, 4), rng.randint(0, 4))] = Fraction(rng.randint(-5, 5))
        e = WeylElement(terms)
        if not e.depends_on_x() or e.order != 5:
            continue
        w = choose_weights(e)
        limit = 5 * w.d_weight
        assert all(w.of(i, j) <= limit for i, j in e.terms)


def test_factor_form_quartic():
    e = d**4 + 2 * x * d**2 + 2 * d + x**2
    nd = associated_poly(e, Weight(2, 1))
    ff = factor_form(nd)
    assert ff == FactoredForm(y_power=0, ratio=2, multiplicity=2, scale=Fraction(-1))
    assert WeylElement(ff.expand()) == nd.assoc


def test_factor_form_positive_y_power():
    nd = associated_poly(d**3 + x * d, Weight(2, 1))
    out = factor_form(nd)
    assert isinstance(out, FormDiagnostic)
    assert out.issue is FormIssue.POSITIVE_Y_POWER
    assert out.partial == FactoredForm(1, 2, 1, Fraction(-1))


def test_factor_form_lambda_inconsistency():
    nd = associated_poly(d**2 + x**2, Weight(1, 1))
    out = factor_form(nd)
    assert isinstance(out, FormDiagnostic)
    assert out.issue is FormIssue.LAMBDA_INCONSISTENT
    assert "cross term" in out.message and "absent" in out.message
    assert out.strictly_semisimple


def test_factor_form_scaled_oscillator_keeps_flag():
    nd = associated_poly(d**2 + 5 * x**2, Weight(1, 1))
    out = factor_form(nd)
    assert isinstance(out, FormDiagnostic)
    assert out.strictly_semisimple


def test_factor_form_ratio_not_integer():
    nd = associated_poly(d**2 + x**3, Weight(2, 3))
    out = factor_form(nd)
    assert isinstance(out, FormDiagnostic)
    assert out.issue is FormIssue.RATIO_NOT_INTEGER


def test_factor_form_monomial():
    nd = associated_poly(d**2 + x, Weight(1, 1))
    out = factor_form(nd)
    assert isinstance(out, FormDiagnostic)
    assert out.issue is FormIssue.MONOMIAL


def test_factor_form_expansion_mismatch():
    # (Y^2 - X)(Y^2 - 2X) has the right corner data but distinct roots
    e = d**4 - 3 * x * d**2 + 2 * x**2
    nd = associated_poly(e, Weight(2, 1))
    out = factor_form(nd)
    assert isinstance(out, FormDiagnostic)
    assert out.issue is FormIssue.LAMBDA_INCONSISTENT


def test_factor_form_requires_monic_corner():
    nd = associated_poly(2 * d**2 - x, Weight(2, 1))
    with pytest.raises(ValueError):
        factor_form(nd)


@given(e=weyl_elements(max_terms=6), rho=st.integers(1, 4), sigma=st.integers(1, 4))
def test_homogeneity_of_top_part(e, rho, sigma):
    from math import gcd

    g = gcd(rho, sigma)
    w = Weight(rho // g, sigma // g)
    if e.is_zero():
        return
    nd = associated_poly(e, w)
    assert all(w.of(i, j) == nd.value for i, j in nd.assoc.nums)
    # complete: the top weight of the support, with every term of that weight
    assert nd.value == max(w.of(i, j) for i, j in e.nums)
    top = {k: Fraction(n, e.den) for k, n in e.nums.items() if w.of(*k) == nd.value}
    assert nd.assoc == WeylElement(top, e.side)


@given(a=weyl_elements(max_terms=4), b=weyl_elements(max_terms=4))
def test_weight_multiplicativity(a, b):
    w = Weight(2, 3)
    if a.is_zero() or b.is_zero():
        return
    assert weight_value(a * b, w) == weight_value(a, w) + weight_value(b, w)


@given(a=weyl_elements(max_terms=4), b=weyl_elements(max_terms=4))
def test_commutator_weight_drop(a, b):
    w = Weight(1, 2)
    c = commutator(a, b)
    if a.is_zero() or b.is_zero() or c.is_zero():
        return
    assert weight_value(c, w) <= weight_value(a, w) + weight_value(b, w) - 1 - 2


def test_edge_inequality_for_multiple_points():
    # accepted operators with coordinate exponent above 1 at the edge point
    # keep the top weight strictly above the weight sum
    from weylnil import random_orbit_element

    checked = 0
    for seed in range(40):
        e, _ = random_orbit_element(seed, word_len=seed % 3, max_deg=4, max_q_deg=3, max_order=12)
        try:
            monic = e / e.d_slice(e.order).constant_value()
            w = choose_weights(monic)
        except (NotNormalizableError, ValueError):
            continue
        nd = associated_poly(monic, w)
        if nd.assoc.x_degree <= 1:
            continue
        if isinstance(factor_form(nd), FormDiagnostic):
            continue
        assert nd.value > w.x_weight + w.d_weight
        checked += 1
    assert checked >= 3


def test_factor_form_rejects_x_degree_above_the_weight_ratio():
    # weight (2, 1) allows X-degree at most order/2 = 1 in an order-2 form
    nd = NewtonData(Weight(2, 1), 4, WeylElement({(0, 2): 1, (2, 0): 1}))
    diag = factor_form(nd)
    assert diag.issue is FormIssue.LAMBDA_INCONSISTENT
    assert diag.message == "X-degree exceeds what the weight ratio allows"


def _expansion_oracle(f, r, order):
    """The outcome kind of factor_form by the full Fraction expansion, with
    the candidate parameters forced as factor_form forces them."""
    k = max(i for i, _ in f)
    n = order - r * k
    if n < 0:
        return FormIssue.LAMBDA_INCONSISTENT
    scale = -f.get((1, n + r * (k - 1)), Fraction(0)) / k
    if scale == 0 or FactoredForm(n, r, k, scale).expand() != f:
        return FormIssue.LAMBDA_INCONSISTENT
    return FormIssue.POSITIVE_Y_POWER if n > 0 else "accepted"


def test_factor_form_agrees_with_the_expansion_oracle():
    rng = random.Random(31)
    kinds = set()
    for _ in range(400):
        r, k, n = rng.randint(1, 4), rng.randint(1, 12), rng.randint(0, 3)
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 40))
        order = n + r * k
        f = FactoredForm(n, r, k, scale).expand()
        edge = [(s, n + r * (k - s)) for s in range(1, k + 1)]
        variant = rng.randrange(4)
        if variant == 1:  # one coefficient perturbed
            key = rng.choice(edge)
            f[key] += Fraction(rng.choice((-1, 1)), rng.randint(1, 7))
            if not f[key]:
                del f[key]
        elif variant == 2 and k > 1:  # one term dropped, leaving a binomial
            del f[rng.choice(edge)]
        elif variant == 3:  # one term added off the binomial support
            s = rng.randint(1, k + 1)
            key = (s, rng.randint(0, order))
            if key in edge:
                key = (s, key[1] + 1)
            f[key] = f.get(key, 0) + Fraction(rng.randint(1, 9), rng.randint(1, 9))
        out = factor_form(NewtonData(Weight(r, 1), order, WeylElement(f)))
        if isinstance(out, FactoredForm):
            kind = "accepted"
        else:
            kind = out.issue
            if kind is FormIssue.POSITIVE_Y_POWER:
                assert out.partial.expand() == f
        assert kind == _expansion_oracle(f, r, order), (r, k, n, scale, variant)
        kinds.add((kind, variant > 0))
    assert kinds >= {
        ("accepted", False),
        (FormIssue.POSITIVE_Y_POWER, False),
        (FormIssue.LAMBDA_INCONSISTENT, True),
    }
