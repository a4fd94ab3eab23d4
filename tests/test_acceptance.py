"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact rational arithmetic, so every comparison is equality.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from weylnil import (
    BoundExhausted,
    EigenObstruction,
    Fourier,
    FourierInverse,
    GenerationWitness,
    NilpotentAt,
    NotStrictlyNilpotent,
    Reason,
    StrictlyNilpotent,
    UniPoly,
    Weight,
    WeylElement,
    ad_nilpotency_test,
    apply_word,
    bispectral_partner,
    ccr_check,
    ccr_to_generators,
    commutator,
    decide,
    generators,
    invert_word,
    parse_expression,
    random_orbit_element,
    verify_certificate,
    weight_value,
)

from conftest import rand_element, rand_word
from oracles import slow_monomial_product

x, d = generators()


def _report(number, label):
    print(f"criterion {number} ({label}): PASS")


@pytest.fixture(scope="module")
def orbit_corpus():
    """200 seeded orbit elements: word length <= 3, shift degrees 3..5,
    certificate polynomial degree <= 4, resulting order <= 16."""
    corpus = []
    seed = 0
    while len(corpus) < 200:
        seed += 1
        element, truth = random_orbit_element(
            seed, word_len=seed % 4, max_deg=5, max_q_deg=4, max_order=16
        )
        assert 0 <= element.order <= 16
        corpus.append((seed, element, truth))
    return corpus


@pytest.fixture(scope="module")
def orbit_verdicts(orbit_corpus):
    started = time.monotonic()
    verdicts = []
    for _, element, _ in orbit_corpus:
        verdict = decide(element)
        assert isinstance(verdict, StrictlyNilpotent), f"rejected: {element}"
        assert verify_certificate(element, verdict.certificate)
        verdicts.append(verdict)
    elapsed = time.monotonic() - started
    return verdicts, elapsed


def test_criterion_1_round_trip_completeness(orbit_corpus, orbit_verdicts):
    verdicts, elapsed = orbit_verdicts
    assert len(verdicts) == 200
    assert all(verify_certificate(e, v.certificate) for (_, e, _), v in zip(orbit_corpus, verdicts))
    assert elapsed < 60, f"decide+verify took {elapsed:.1f}s"
    _report(1, f"round-trip completeness, 200 operators in {elapsed:.1f}s")


def test_no_certified_orbit_operator_takes_the_prologue_swap(orbit_verdicts):
    # decide swaps the representation only when the top coefficient in D is
    # nonconstant, which no orbit image of a polynomial in D is expected to
    # have (test_descent.py's constant-tops property test)
    verdicts, _ = orbit_verdicts
    swaps = (Fourier, FourierInverse)
    assert [v.prologue for v in verdicts if any(isinstance(g, swaps) for g in v.prologue)] == []


def test_criterion_2_rejection_soundness():
    expected = {
        "x*D": Reason.NONCONSTANT_LEADING,
        "D^2 + x^2": Reason.ASSOC_NOT_FACTORED,
        "D^2 + 5*x^2": Reason.ASSOC_NOT_FACTORED,
        "D^3 + x*D": Reason.POSITIVE_Y_MULTIPLICITY,
        "x^2*D^2": Reason.NONCONSTANT_LEADING,
    }
    for text, reason in expected.items():
        operator = parse_expression(text)
        verdict = decide(operator)
        assert isinstance(verdict, NotStrictlyNilpotent), text
        assert verdict.reason is reason, (text, verdict.reason)
        probe = ad_nilpotency_test(operator, x, cap=64)
        assert isinstance(probe, (EigenObstruction, BoundExhausted)), (text, probe)
    # the two oscillator rejections carry the strictly semisimple marker
    for text in ("D^2 + x^2", "D^2 + 5*x^2"):
        verdict = decide(parse_expression(text))
        assert verdict.diagnostic is not None and verdict.diagnostic.strictly_semisimple
    _report(2, "rejection soundness on the fixed negative corpus")


def test_criterion_3_airy_chain():
    airy = parse_expression("D^2 - x")
    verdict = decide(airy)
    assert isinstance(verdict, StrictlyNilpotent)
    assert verify_certificate(airy, verdict.certificate)
    partner = bispectral_partner(airy)
    assert partner.lambda_op == parse_expression("Dz^2 - z")
    # the partner eigenvalue polynomial equals the certificate polynomial,
    # which is forced linear for an order-two operator: f(z) = z
    assert partner.f_poly == UniPoly((0, 1))
    assert commutator(airy, commutator(airy, x)) == WeylElement.scalar(2)
    assert commutator(airy, commutator(airy, commutator(airy, x))).is_zero()
    assert ad_nilpotency_test(airy, x) == NilpotentAt(3)
    _report(3, "airy chain end to end")


def test_criterion_4_algebra_law_suite():
    rng = random.Random(2024)
    for trial in range(1000):
        a = rand_element(rng)
        b = rand_element(rng)
        c = rand_element(rng)
        assert (a * b) * c == a * (b * c)
        assert (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        ).is_zero()
        assert commutator(a, b * c) == commutator(a, b) * c + b * commutator(a, c)
        rho = rng.randint(1, 4)
        sigma = rng.choice([s for s in range(1, 5) if math.gcd(rho, s) == 1])
        w = Weight(rho, sigma)
        if not (a.is_zero() or b.is_zero()):
            va, vb = weight_value(a, w), weight_value(b, w)
            assert weight_value(a * b, w) == va + vb
            bracket = commutator(a, b)
            if not bracket.is_zero():
                assert weight_value(bracket, w) <= va + vb - rho - sigma
    _report(4, "1000 random triples satisfy the algebra laws exactly")


def test_criterion_5_automorphism_suite():
    rng = random.Random(777)
    words = [rand_word(rng, max_len=4, max_deg=5) for _ in range(200)]
    for index, word in enumerate(words):
        # CCR preservation via the generator images
        wd = apply_word(word, d)
        wx = apply_word(word, x)
        assert commutator(wd, wx) == WeylElement.one()
        # homomorphism on a random pair
        a = rand_element(rng, max_terms=2, max_exp=2, max_num=9, max_den=4)
        b = rand_element(rng, max_terms=2, max_exp=2, max_num=9, max_den=4)
        assert apply_word(word, a * b) == apply_word(word, a) * apply_word(word, b)
        # inverse is a two-sided identity on the generators
        inverse = invert_word(word)
        assert apply_word(inverse, wd) == d
        assert apply_word(inverse, wx) == x
        # and on 50 random elements spread across the words
        if index < 50:
            e = rand_element(rng, max_terms=4, max_exp=4, max_num=9, max_den=4)
            assert apply_word(inverse, apply_word(word, e)) == e
    _report(5, "200 random words: CCR, homomorphism, inverse identities")


def test_criterion_6_ccr_witness_suite():
    rng = random.Random(4096)
    for _ in range(100):
        word = rand_word(rng, max_len=3, max_deg=4)
        a = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4))
        tail = UniPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 5))])
        first = apply_word(word, a * d + WeylElement.scalar(b))
        second = apply_word(word, x / a + WeylElement.from_d_poly(tail))
        assert ccr_check(first, second)
        outcome = ccr_to_generators(first, second)
        assert isinstance(outcome, GenerationWitness), outcome
        rebuilt_first = apply_word(
            outcome.word, outcome.a * d + WeylElement.scalar(outcome.b)
        )
        rebuilt_second = apply_word(
            outcome.word, x / outcome.a + WeylElement.from_d_poly(outcome.tail)
        )
        assert rebuilt_first == first
        assert rebuilt_second == second
    _report(6, "100 constructed commutation pairs reduce to generating witnesses")


def test_criterion_7_descent_progress(orbit_corpus, orbit_verdicts):
    verdicts, _ = orbit_verdicts
    for (_, element, _), verdict in zip(orbit_corpus, verdicts):
        stages = verdict.stages
        order = element.order
        if order >= 1:
            assert len(stages) <= math.log2(order) + 1
        else:
            assert not stages
        for record in stages:
            assert 2 * record.form.multiplicity <= record.newton.assoc.order
    _report(7, "stage counts bounded by log2(order) + 1 with halving orders")


def test_criterion_8_oracle_equivalence():
    checked = 0
    for i1 in range(7):
        for j1 in range(7):
            left = x**i1 * d**j1
            for i2 in range(7):
                for j2 in range(7):
                    right = x**i2 * d**j2
                    assert left * right == slow_monomial_product(
                        i1, j1, i2, j2
                    )
                    checked += 1
    assert checked == 2401
    _report(8, "closed-form reordering matches the single-swap oracle on 2401 cases")
