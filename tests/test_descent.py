"""Decision procedure, certificates, partners, and CCR reductions."""

import random
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from weylnil import (
    BoundExhausted,
    Certificate,
    CounterexampleCandidate,
    EigenObstruction,
    FactoredForm,
    FormDiagnostic,
    Fourier,
    FourierInverse,
    GenerationWitness,
    InvariantViolation,
    NilpotentAt,
    NotNormalizableError,
    NotStrictlyNilpotent,
    NotStrictlyNilpotentError,
    Reason,
    ShiftD,
    ShiftX,
    StageRecord,
    StrictlyNilpotent,
    TriviallyConstant,
    UniPoly,
    UnsupportedSideError,
    WeylElement,
    ad_nilpotency_test,
    apply_generator,
    apply_word,
    associated_poly,
    bispectral_partner,
    ccr_check,
    ccr_to_generators,
    centralizer_generator,
    choose_weights,
    commutator,
    coordinate,
    decide,
    derivative,
    descent_step,
    generators,
    invert_word,
    normalize_subleading,
    parse_expression,
    poly_at,
    random_orbit_element,
    shape_bound,
    verify_certificate,
)

from weylnil.wire import verdict_to_doc

from conftest import GENERATORS, rand_element, rand_shift_poly

x, d = generators()
airy = d**2 - x


# ----------------------------------------------------------------------
# normalize_subleading
# ----------------------------------------------------------------------


def test_normalize_subleading_square():
    e = (d - x**2) ** 2
    assert e == d**2 - 2 * x**2 * d + x**4 - 2 * x
    image, gen = normalize_subleading(e)
    assert image == d**2
    assert gen == ShiftD(UniPoly((0, 0, 0, Fraction(-1, 3))))
    assert gen.poly.derivative() == UniPoly((0, 0, -1))  # r' = -x^2


def test_normalize_subleading_identity_when_normalized():
    image, gen = normalize_subleading(d**3)
    assert image == d**3
    assert gen == ShiftD(UniPoly.zero())


def test_normalize_subleading_linear_shift():
    e = d**2 + 2 * x * d
    image, gen = normalize_subleading(e)
    assert gen.poly.derivative() == UniPoly((0, 1))  # r' = x
    assert image.d_slice(1).is_zero()
    assert image == d**2 - x**2 - 1


# ----------------------------------------------------------------------
# descent_step
# ----------------------------------------------------------------------


def test_descent_step_quartic_collapses():
    e = d**4 + 2 * x * d**2 + 2 * d + x**2
    step = descent_step(e)
    assert isinstance(step, StageRecord)
    assert step.shift_image == x**2
    assert step.generators[0] == ShiftX(UniPoly((0, 0, 0, Fraction(-1, 3))))
    assert step.element == d**2
    assert step.form.multiplicity == 2
    # the generators, first entry applied first, replay the stage
    scale = step.form.scale**step.form.multiplicity
    assert apply_word(step.generators[::-1], e) == scale * step.element


def test_descent_step_airy_single_shift():
    step = descent_step(airy)
    assert isinstance(step, StageRecord)
    assert step.shift_image == -x
    assert step.generators[0] == ShiftX(UniPoly((0, 0, 0, Fraction(1, 3))))
    assert step.element == d
    assert step.form.scale**step.form.multiplicity == 1


def test_descent_step_rejects_positive_y_power():
    out = descent_step(d**3 + x * d)
    assert isinstance(out, FormDiagnostic)
    assert NotStrictlyNilpotent(out).reason is Reason.POSITIVE_Y_MULTIPLICITY


def test_descent_step_validates_preconditions():
    with pytest.raises(ValueError):
        descent_step((d - x**2) ** 2)  # next-to-top coefficient nonzero
    with pytest.raises(ValueError):
        descent_step(d**3)  # no coordinate dependence


def test_descent_step_halves_order():
    rng = random.Random(5)
    checked = 0
    for seed in range(60):
        e, _ = random_orbit_element(seed, word_len=2, max_deg=4, max_q_deg=4, max_order=12)
        v = decide(e)
        assert isinstance(v, StrictlyNilpotent)
        for rec in v.stages:
            assert 2 * rec.form.multiplicity <= rec.newton.assoc.order
            # the clearing shift leaves the swapped operator normalized
            assert isinstance(rec.generators[-1], FourierInverse)
            assert not any(isinstance(g, ShiftD) for g in rec.generators)
            checked += 1
    assert checked > 10


# ----------------------------------------------------------------------
# decide
# ----------------------------------------------------------------------


def test_decide_shifted_square():
    e = d**2 - 2 * x**2 * d + x**4 - 2 * x
    v = decide(e)
    assert isinstance(v, StrictlyNilpotent)
    cert = v.certificate
    assert cert.gen_poly == UniPoly((0, 0, 1))
    assert cert.side == "d"
    assert cert.word == (ShiftD(UniPoly((0, 0, 0, Fraction(1, 3)))),)
    assert verify_certificate(e, cert)


def test_decide_pure_coordinate_polynomial():
    v = decide(x**3 + x)
    assert isinstance(v, StrictlyNilpotent)
    assert v.certificate.side == "x"
    assert v.certificate.word == ()
    assert v.certificate.gen_poly == UniPoly((0, 1, 0, 1))


def test_decide_harmonic_oscillator():
    v = decide(d**2 + x**2)
    assert isinstance(v, NotStrictlyNilpotent)
    assert v.reason is Reason.ASSOC_NOT_FACTORED
    assert v.diagnostic is not None and v.diagnostic.strictly_semisimple


def test_decide_euler_operator():
    v = decide(x * d)
    assert isinstance(v, NotStrictlyNilpotent)
    assert v.reason is Reason.NONCONSTANT_LEADING
    assert v.stage == 0


def test_stage_zero_rejection_skips_the_swap_of_large_inputs():
    # the swap of x^4096 D^4096 builds 4097 terms with factorial coefficients
    e = parse_expression("x^4096*D^4096")
    started = time.perf_counter()
    v = decide(e)
    assert time.perf_counter() - started < 1
    assert isinstance(v, NotStrictlyNilpotent)
    assert (v.reason, v.stage) == (Reason.NONCONSTANT_LEADING, 0)
    assert v.diagnostic is None
    assert verdict_to_doc(v)["detail"] == "top coefficient is nonconstant in both representations"


def test_swapped_top_coefficient_is_the_signed_top_x_slice():
    # the premise of the stage-0 test: the inverse swap has order x_degree
    # and top coefficient (-1)^x_degree * x_slice(x_degree) read with D -> x
    rng = random.Random(41)
    for _ in range(200):
        e = rand_element(rng, max_terms=6, max_exp=6)
        if not (e.depends_on_x() and e.depends_on_d()):
            continue
        swapped = apply_generator(FourierInverse(), e)
        sign = -1 if e.x_degree % 2 else 1
        assert swapped.order == e.x_degree
        assert swapped.d_slice(swapped.order) == e.x_slice(e.x_degree) * sign


def _polys(low, high):
    """Polynomials of degree ``low`` to ``high``: coefficients in -3..3, the
    leading one nonzero."""
    body = st.lists(st.integers(-3, 3), min_size=low, max_size=high)
    return st.builds(lambda b, top: UniPoly(b + [top]), body, st.sampled_from((-3, -2, -1, 1, 2, 3)))


@st.composite
def orbit_images(draw, max_slots=400):
    """``phi(q(D))`` for ``q`` of degree 2-4 and a word ``phi`` of 1-5
    generators: shifts by polynomials of degree 2-4, and both swaps.  The
    word is drawn innermost entry first, and a generator that would take the
    image's ``shape_bound`` rectangle past ``max_slots`` slots ends it."""
    q = draw(_polys(2, 4))
    word = []
    for _ in range(draw(st.integers(1, 5))):
        cls = draw(st.sampled_from(GENERATORS))
        candidate = cls(*[draw(_polys(2, 4)) for _ in cls.__match_args__])
        x_deg, order = shape_bound([candidate] + word, 0, q.degree)
        if (x_deg + 1) * (order + 1) > max_slots:
            break
        word.insert(0, candidate)
    return apply_word(word, WeylElement.from_d_poly(q))


@seed(15)
@settings(max_examples=300, deadline=None)
@given(e=orbit_images())
def test_orbit_images_that_depend_on_both_variables_have_constant_tops(e):
    """The statement under test is the Newton-polygon description of strictly
    nilpotent elements attributed to J. Dixmier, "Sur les algebres de Weyl",
    Bull. SMF 96 (1968), and A. Joseph, "The Weyl algebra - semisimple and
    nilpotent elements", Amer. J. Math. 97 (1975): the Newton polygon of a
    strictly nilpotent element that depends on both ``x`` and ``D`` is the
    triangle with vertices (0, 0), (a, 0) and (0, b).  On that triangle the
    only support point of order ``b`` is (0, b) and the only one of x-degree
    ``a`` is (a, 0), so the coefficient of ``D^b`` and that of ``x^a`` are
    both constants.  This statement is unverified here: it was not checked
    against either paper and is not proved, and the test is evidence for
    it.  ``decide`` swaps the representation only when the top coefficient
    in ``D`` is nonconstant, so on the statement that swap never leads to a
    certificate."""
    if e.depends_on_x() and e.depends_on_d():
        assert e.d_slice(e.order).is_constant(), e
        assert e.x_slice(e.x_degree).is_constant(), e


def test_decide_trivially_constant():
    v = decide(WeylElement.scalar(Fraction(7, 2)))
    assert isinstance(v, TriviallyConstant)
    assert v.value == Fraction(7, 2)
    assert isinstance(decide(WeylElement.zero()), TriviallyConstant)


def test_decide_airy_certificate_shape():
    v = decide(airy)
    assert isinstance(v, StrictlyNilpotent)
    cert = v.certificate
    assert cert.side == "d"
    assert cert.gen_poly == UniPoly((0, 1))
    assert cert.word == (ShiftX(UniPoly((0, 0, 0, Fraction(-1, 3)))), Fourier())
    assert verify_certificate(airy, cert)


def test_decide_quartic_square_goes_derivative_side():
    e = (x + d**2) ** 2
    v = decide(e)
    assert isinstance(v, StrictlyNilpotent)
    assert v.certificate.side == "d"
    assert v.certificate.gen_poly == UniPoly((0, 0, 1))
    assert len(v.stages) == 1


def test_decide_swaps_representation_when_needed():
    # coordinate-heavy operator whose swapped form is constant-leading
    e = x**3 + x * d
    v = decide(e)
    assert isinstance(v, NotStrictlyNilpotent)
    assert v.reason is Reason.POSITIVE_Y_MULTIPLICITY
    assert v.stage == 1
    assert v.prologue == (FourierInverse(),)
    assert v.lead == -1
    assert v.stages == ()
    doc = verdict_to_doc(v)
    assert doc["detail"] == "positive Y power: factors as Y*(Y^2 + X)"
    assert doc["prologue"] == [
        "top coefficient depends on the coordinate; representation swapped",
        "scaled monic by -1",
        "stagewise soundness uses invariance of the nilpotency class under the generator maps",
    ]


def test_decide_monic_scaling_absorbed_into_polynomial():
    e = 3 * airy
    v = decide(e)
    assert isinstance(v, StrictlyNilpotent)
    assert v.certificate.gen_poly == UniPoly((0, 3))
    assert verify_certificate(e, v.certificate)


def test_decide_rejections_carry_stage_and_trace():
    v = decide(d**4 + x * d**2)
    assert isinstance(v, NotStrictlyNilpotent)
    assert v.reason is Reason.POSITIVE_Y_MULTIPLICITY
    assert v.stage == 1
    assert verdict_to_doc(v)["prologue"]  # the stagewise-soundness note is always logged


# ----------------------------------------------------------------------
# the verdict kept on the element
# ----------------------------------------------------------------------


@pytest.fixture
def descent_calls(monkeypatch):
    """Calls of the descent's phases, by name, counted through wrappers."""
    import weylnil.descent

    calls = {}
    for name in ("normalize_subleading", "descent_step", "verify_certificate"):
        real = getattr(weylnil.descent, name)
        calls[name] = 0

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(weylnil.descent, name, counted)
    return calls


def test_decide_returns_the_kept_verdict():
    e = d**2 - x
    assert decide(e) is decide(e)


def test_constructions_reuse_the_verdict_and_reverify_it(descent_calls):
    e = d**2 - x  # one stage
    decide(e)
    bispectral_partner(e)
    centralizer_generator(e)
    assert descent_calls == {"normalize_subleading": 1, "descent_step": 1, "verify_certificate": 3}


@pytest.mark.parametrize(
    "e",
    [d**3 + x * d, x * d, x * d + x**2, d**2, x**3, WeylElement.scalar(5)],
    ids=["stage-1-rejection", "stage-0-rejection", "swapped-rejection", "derivative-only", "coordinate-only", "constant"],
)
def test_rejections_and_trivial_verdicts_are_kept_unverified(descent_calls, e):
    first = decide(e)
    assert not isinstance(first, StrictlyNilpotent) or first.certificate.word == ()
    before = dict(descent_calls)
    assert decide(e) is first
    assert descent_calls == before
    assert descent_calls["verify_certificate"] == 0


def test_equal_elements_each_run_the_descent(descent_calls):
    a, b = d**2 - x, d**2 - x
    assert a == b and a is not b
    assert decide(a) == decide(b)
    assert descent_calls == {"normalize_subleading": 2, "descent_step": 2, "verify_certificate": 2}


def test_threads_deciding_one_element_get_equal_verdicts():
    # a race may fill the kept verdict twice, with equal values
    e, _ = random_orbit_element(5, word_len=3, max_deg=5, max_q_deg=4, max_order=16)
    verdicts = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: verdicts.append(decide(e))) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(verdicts) == 6 and isinstance(verdicts[0], StrictlyNilpotent)
    assert all(v == verdicts[0] for v in verdicts) and decide(e) == verdicts[0]


def _replay(v, e):
    """``e`` carried through the verdict's prologue and divided by ``lead``,
    then through each stage's generators and divided by its scale: the input
    of every stage in turn, then the iterate after the last."""
    for g in v.prologue:
        e = apply_generator(g, e)
    e = e / v.lead
    yield e
    for rec in v.stages:
        for g in rec.generators:
            e = apply_generator(g, e)
        e = e / rec.form.scale**rec.form.multiplicity
        yield e


def test_verdicts_replay_from_their_generators():
    # criterion-1 operators, the negative corpus and its images under the
    # last two generators of each seed's word, each also swapped and scaled
    negative = ["x*D", "D^2 + x^2", "D^2 + 5*x^2", "D^3 + x*D", "x^2*D^2"]
    bases = [parse_expression(text) for text in negative]
    for seed in range(120):
        e, cert = random_orbit_element(seed, word_len=seed % 4, max_deg=5, max_q_deg=4, max_order=16)
        bases += [e, apply_word(cert.word[-2:], parse_expression(negative[seed % 5]))]
    positives = rejections = 0
    for base in bases:
        for e in (base, apply_generator(Fourier(), base), base * Fraction(-3, 2)):
            v = decide(e)
            if isinstance(v, StrictlyNilpotent) and v.stages:
                *inputs, last = _replay(v, e)
                assert last == v.stages[-1].element
                positives += 1
            elif isinstance(v, NotStrictlyNilpotent) and v.stage >= 1:
                assert len(v.stages) == v.stage - 1
                *inputs, last = _replay(v, e)
                assert descent_step(last) == v.diagnostic
                rejections += 1
            else:
                continue
            # a stage's order, edge end and order after are read from its
            # form (Y^r - c*X)^k: r*k, X^k and k
            for inp, rec in zip(inputs, v.stages):
                w = choose_weights(inp)
                assert associated_poly(inp, w) == rec.newton
                form, assoc = rec.form, rec.newton.assoc
                assert assoc.order == inp.order == form.ratio * form.multiplicity
                assert max(assoc.nums) == (form.multiplicity, 0)
                assert rec.element.order == form.multiplicity
    assert positives >= 150 and rejections >= 250


# ----------------------------------------------------------------------
# verify_certificate
# ----------------------------------------------------------------------


def test_verify_certificate_trivial():
    assert verify_certificate(d, Certificate((), UniPoly((0, 1)), "d"))


def test_verify_certificate_round_trip():
    v = decide(airy)
    assert verify_certificate(airy, v.certificate)


def test_verify_certificate_rejects_tampering():
    v = decide(airy)
    tampered = Certificate(v.certificate.word, UniPoly((0, 0, 0, 1)), v.certificate.side)
    assert not verify_certificate(airy, tampered)


def test_verify_certificate_coordinate_side():
    e = x**3 + x
    cert = decide(e).certificate
    assert cert.side == "x"
    assert verify_certificate(e, cert)
    tampered = Certificate(cert.word, UniPoly((0, 2, 0, 1)), cert.side)
    assert not verify_certificate(e, tampered)


def test_verify_certificate_coordinate_side_with_word():
    word = (ShiftD(UniPoly((0, 0, 1))), Fourier(), ShiftX(UniPoly((0, 0, 0, 2))))
    q = UniPoly((1, -2, 0, 1))
    e = apply_word(word, poly_at(q, x))
    assert verify_certificate(e, Certificate(word, q, "x"))
    assert not verify_certificate(e, Certificate(word, q, "d"))


# ----------------------------------------------------------------------
# ad_nilpotency_test
# ----------------------------------------------------------------------


def test_ad_test_airy_chain():
    assert ad_nilpotency_test(airy, x) == NilpotentAt(3)
    assert commutator(airy, commutator(airy, x)) == WeylElement.scalar(2)


def test_ad_test_eigen_obstruction():
    assert ad_nilpotency_test(x * d, x) == EigenObstruction(Fraction(1))


def test_ad_test_derivative_on_coordinate():
    assert ad_nilpotency_test(d, x) == NilpotentAt(2)


@pytest.mark.parametrize("seed", range(20))
def test_ad_test_matches_the_generating_word(seed):
    # the paper's characterization, read off the generating word and not
    # from decide: for L = phi(q(D)), ad_L^k(y) = phi(ad_q(D)^k(phi^-1(y))),
    # and ad_q(D) lowers the coordinate degree by exactly one
    L, cert = random_orbit_element(seed, word_len=2, max_deg=4, max_q_deg=3, max_order=10)
    for y in (x, d):
        pre_image = apply_word(invert_word(cert.word), y)
        assert ad_nilpotency_test(L, y) == NilpotentAt(pre_image.x_degree + 1), (seed, y)


def test_ad_test_eigen_obstruction_with_rational_ratios():
    # the ratio comes from cross-multiplied numerators over two denominators
    assert ad_nilpotency_test(Fraction(2, 3) * x * d, x / 5) == EigenObstruction(Fraction(2, 3))
    assert ad_nilpotency_test(-2 * x * d + Fraction(1, 7), x**2 / 3) == EigenObstruction(Fraction(-4))
    assert ad_nilpotency_test(x * d / 4, x**3 * d / 3 + x**2 / 6) == EigenObstruction(Fraction(1, 2))


def test_ad_test_zero_target_is_nilpotent_at_zero():
    # step 0, the target itself, is already zero
    assert ad_nilpotency_test(d, WeylElement.zero()) == NilpotentAt(0)
    assert ad_nilpotency_test(x * d, WeylElement.zero(), cap=1) == NilpotentAt(0)


def test_ad_test_bound_exhausted():
    out = ad_nilpotency_test(d**2 + x**2, x, cap=16)
    assert isinstance(out, BoundExhausted)
    assert out.cap == 16
    assert out.last_weight >= 1


# ----------------------------------------------------------------------
# bispectral partner / centralizer
# ----------------------------------------------------------------------


def test_partner_of_derivative():
    p = bispectral_partner(d)
    assert p.lambda_op == derivative("z")
    assert p.f_poly == UniPoly((0, 1))


def test_partner_of_airy_is_classical_pair():
    p = bispectral_partner(airy)
    assert p.lambda_op == derivative("z") ** 2 - coordinate("z")
    assert p.f_poly == UniPoly((0, 1))


def test_partner_of_shifted_square():
    p = bispectral_partner((d - x**2) ** 2)
    assert p.lambda_op == derivative("z")
    assert p.f_poly == UniPoly((0, 0, 1))


def test_partner_refuses_coordinate_polynomials():
    with pytest.raises(UnsupportedSideError):
        bispectral_partner(x**3 + x)


def test_partner_propagates_rejection():
    with pytest.raises(NotStrictlyNilpotentError) as info:
        bispectral_partner(x * d)
    assert isinstance(info.value.verdict, NotStrictlyNilpotent)


def test_partner_ad_condition_both_sides():
    p = bispectral_partner(airy)
    assert isinstance(ad_nilpotency_test(airy, x), NilpotentAt)
    assert isinstance(ad_nilpotency_test(p.lambda_op, coordinate("z")), NilpotentAt)


def test_centralizer_generator_examples():
    assert centralizer_generator(d**2) == d
    assert centralizer_generator((d - x**2) ** 2) == d - x**2
    assert centralizer_generator(airy) == airy


def test_centralizer_generator_commutes_and_composes():
    e = (d - x**2) ** 2
    gen = centralizer_generator(e)
    assert commutator(e, gen).is_zero()
    v = decide(e)
    assert poly_at(v.certificate.gen_poly, gen) == e


# ----------------------------------------------------------------------
# CCR tooling
# ----------------------------------------------------------------------


def test_ccr_check_examples():
    assert ccr_check(d, x)
    assert not ccr_check(d**2, x)
    assert ccr_check(d - x**2, x)


def test_ccr_to_generators_standard_pair():
    w = ccr_to_generators(d, x)
    assert isinstance(w, GenerationWitness)
    assert w.word == ()
    assert (w.a, w.b) == (1, 0)
    assert w.tail.is_zero()


def test_ccr_to_generators_shifted_pair():
    w = ccr_to_generators(d - x**2, x)
    assert isinstance(w, GenerationWitness)
    assert w.word == (ShiftD(UniPoly((0, 0, 0, Fraction(1, 3)))),)
    assert (w.a, w.b) == (1, 0)
    assert w.tail.is_zero()


def test_ccr_to_generators_with_tail():
    w = ccr_to_generators(d, x + d**5)
    assert isinstance(w, GenerationWitness)
    assert w.word == ()
    assert w.tail == UniPoly((0, 0, 0, 0, 0, 1))


def test_ccr_to_generators_requires_ccr():
    with pytest.raises(ValueError):
        ccr_to_generators(d**2, x)


def test_ccr_to_generators_coordinate_side_member():
    # x and -d + R(x) satisfy the identity with the roles swapped
    mate = -d + x**4
    assert ccr_check(x, mate)
    w = ccr_to_generators(x, mate)
    assert isinstance(w, GenerationWitness)
    assert apply_word(w.word, w.a * d + WeylElement.scalar(w.b)) == x
    assert apply_word(w.word, x / w.a + WeylElement.from_d_poly(w.tail)) == mate


def test_ccr_to_generators_returns_a_rejection_as_a_counterexample_candidate(monkeypatch):
    # no genuine pair is known to be rejected, so decide is made to reject one
    import weylnil.descent

    rejection = decide(d**3 + x * d)
    assert isinstance(rejection, NotStrictlyNilpotent)
    monkeypatch.setattr(weylnil.descent, "decide", lambda e: rejection)
    out = ccr_to_generators(d, x)
    assert isinstance(out, CounterexampleCandidate)
    assert out.verdict is rejection


@pytest.mark.parametrize(
    "word, q, inverse, message",
    [
        ((), UniPoly((0, 0, 1)), None, "must be linear"),
        ((), UniPoly((0, 2)), None, "does not reduce"),
        # an exact inverse always gives back the mate, so only an inverse that
        # is not one reaches the reproduction check: here (ShiftX(t^2),) with
        # the identity as its inverse, which maps x to x + 2D
        ((ShiftX(UniPoly((0, 0, 1))),), UniPoly((0, 1)), lambda word: (), "failed to reproduce"),
    ],
    ids=["nonlinear-q", "mate-does-not-reduce", "witness-does-not-reproduce"],
)
def test_ccr_to_generators_rejects_a_tampered_certificate(monkeypatch, word, q, inverse, message):
    import weylnil.descent

    monkeypatch.setattr(weylnil.descent, "decide", lambda e: StrictlyNilpotent(Certificate(word, q, "d")))
    if inverse is not None:
        monkeypatch.setattr(weylnil.descent, "invert_word", inverse)
    with pytest.raises(InvariantViolation, match=message):
        ccr_to_generators(d, x)


def _shift_images_plus(extra):
    """``apply_generator`` with ``extra`` added to every ``ShiftX`` image."""
    import weylnil.automorphism

    real = weylnil.automorphism.apply_generator
    return lambda gen, e: real(gen, e) + extra if isinstance(gen, ShiftX) else real(gen, e)


def _swap_image_zero():
    """``apply_generator`` with every ``FourierInverse`` image zero."""
    import weylnil.automorphism

    real = weylnil.automorphism.apply_generator
    return lambda gen, e: WeylElement.zero(e.side) if isinstance(gen, FourierInverse) else real(gen, e)


# each descent invariant, broken by a fault injected into a name the descent
# calls; the Airy operator D^2 - x passes one stage: Y^2 - X, ratio 2, k = 1
@pytest.mark.parametrize(
    "call, name, fault, message",
    [
        (
            lambda: normalize_subleading(d**2 + x * d),
            "apply_generator",
            lambda: lambda gen, e: e,
            "next-to-top coefficient survived normalization",
        ),
        (
            lambda: descent_step(airy),
            "factor_form",
            lambda: lambda nd: FactoredForm(0, 1, 2, Fraction(1)),
            "weight ratio 1 after normalization contradicts the vanishing next-to-top coefficient",
        ),
        (
            lambda: descent_step(airy),
            "apply_generator",
            lambda: lambda gen, e: WeylElement.zero(e.side),
            "collapse did not produce the expected top coordinate slice",
        ),
        # the x^0 slice reaches D^2, the ratio
        (
            lambda: descent_step(airy),
            "apply_generator",
            lambda: _shift_images_plus(d**2),
            "next-to-top coordinate slice exceeds the weight bound",
        ),
        # the x^0 slice D is put back after the clearing shift
        (
            lambda: descent_step(airy),
            "apply_generator",
            lambda: _shift_images_plus(d),
            "next-to-top coordinate slice survived the clearing shift",
        ),
        (
            lambda: descent_step(airy),
            "apply_generator",
            _swap_image_zero,
            r"swapped operator is not lam\^k\*D\^k plus terms of order k-2 or less",
        ),
        (
            lambda: decide(airy),
            "verify_certificate",
            lambda: lambda e, cert: False,
            "assembled certificate failed re-verification",
        ),
        (
            lambda: centralizer_generator(airy),
            "commutator",
            lambda: lambda a, b: WeylElement.one(a.side),
            "centralizer generator does not commute with the input",
        ),
    ],
    ids=["normalize", "ratio-1", "collapse", "weight-bound", "clearing", "swap", "reverify", "centralizer"],
)
def test_descent_invariants_raise_on_an_injected_fault(monkeypatch, call, name, fault, message):
    import weylnil.descent

    call()  # the unbroken run passes every check
    monkeypatch.setattr(weylnil.descent, name, fault())
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        call()


# ----------------------------------------------------------------------
# random_orbit_element
# ----------------------------------------------------------------------


def test_random_orbit_trivial_word():
    e, cert = random_orbit_element(3, word_len=0, max_deg=3, max_q_deg=4)
    assert cert.word == ()
    assert e == poly_at(cert.gen_poly, d)
    assert verify_certificate(e, cert)


def test_random_orbit_explicit_shift():
    cert = Certificate((ShiftD(UniPoly((0, 0, 0, Fraction(1, 3)))),), UniPoly((0, 0, 1)), "d")
    assert apply_word(cert.word, poly_at(cert.gen_poly, d)) == (d - x**2) ** 2
    assert verify_certificate((d - x**2) ** 2, cert)


def test_random_orbit_outputs_verify():
    for seed in (1, 7, 19, 64, 101):
        e, cert = random_orbit_element(seed, word_len=seed % 4, max_deg=5, max_q_deg=4)
        assert verify_certificate(e, cert)


def test_random_orbit_is_deterministic():
    a = random_orbit_element(99, 3, 5, 4, max_order=16)
    b = random_orbit_element(99, 3, 5, 4, max_order=16)
    assert a[0] == b[0] and a[1] == b[1]


def test_random_orbit_validates_bounds():
    with pytest.raises(ValueError):
        random_orbit_element(1, word_len=9)
    with pytest.raises(ValueError):
        random_orbit_element(1, max_deg=2)
    with pytest.raises(ValueError):
        random_orbit_element(1, max_q_deg=0)


def test_certified_operators_act_nilpotently_on_coordinate():
    for seed in range(20):
        e, _ = random_orbit_element(seed, word_len=seed % 3, max_deg=4, max_q_deg=3, max_order=10)
        v = decide(e)
        assert isinstance(v, StrictlyNilpotent)
        if v.certificate.side == "d" and e.side == "x":
            assert isinstance(ad_nilpotency_test(e, x, cap=64), NilpotentAt)


def test_eigen_obstruction_inputs_are_rejected_by_decide():
    rng = random.Random(31)
    found = 0
    for _ in range(40):
        # euler-like operators have eigen directions and nonconstant tops
        c = rng.randint(1, 5)
        e = c * x * d + rng.randint(-3, 3)
        out = ad_nilpotency_test(e, x)
        if isinstance(out, EigenObstruction):
            v = decide(e)
            assert isinstance(v, NotStrictlyNilpotent)
            found += 1
    assert found > 0


# ----------------------------------------------------------------------
# metamorphic checks: rejection is orbit-invariant, scaling keeps the kind
# ----------------------------------------------------------------------

# the fixed negative corpus of acceptance criterion 2
NEGATIVE_CORPUS = ("x*D", "D^2 + x^2", "D^2 + 5*x^2", "D^3 + x*D", "x^2*D^2")


def _random_word(rng):
    word = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice((ShiftX, ShiftD, Fourier))
        word.append(Fourier() if kind is Fourier else kind(rand_shift_poly(rng, 1, 5)))
    return tuple(word)


def test_rejection_is_invariant_under_random_words():
    rng = random.Random(41)
    checked = 0
    for text in NEGATIVE_CORPUS:
        operator = parse_expression(text)
        for _ in range(20):
            word = _random_word(rng)
            image = apply_word(word, operator)
            if len(image.terms) > 200:
                continue
            assert isinstance(decide(image), NotStrictlyNilpotent), (text, word)
            checked += 1
    assert checked >= 90


def test_scaling_keeps_the_verdict_kind():
    rng = random.Random(43)
    operators = [
        random_orbit_element(seed, word_len=seed % 4, max_deg=4, max_q_deg=3, max_order=10)[0]
        for seed in range(10)
    ]
    operators += [parse_expression(text) for text in NEGATIVE_CORPUS]
    for e in operators:
        kind = type(decide(e))
        for _ in range(6):
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), rng.randint(1, 20))
            assert type(decide(c * e)) is kind, (e, c)


# inputs whose top coefficient is nonconstant until the prologue swap
SWAP_CORPUS = ("x*D^2 + x^3", "D*x^2 + x^3 + D")


def test_scaling_multiplies_lead_and_certificate_polynomial():
    # decide normalizes before it scales monic, so a scalar factor c must
    # leave every generator and stage alone and only multiply the lead
    # coefficient and the certificate polynomial by c
    operators = [
        random_orbit_element(seed, word_len=seed % 4, max_deg=4, max_q_deg=3, max_order=10)[0]
        for seed in range(10)
    ]
    operators += [parse_expression(text) for text in NEGATIVE_CORPUS + SWAP_CORPUS]
    for text in SWAP_CORPUS:
        assert decide(parse_expression(text)).prologue[0] == FourierInverse()
    for e in operators:
        ref = decide(e)
        for c in (Fraction(-1), Fraction(2), Fraction(-3, 7), Fraction(5, 2)):
            out = decide(c * e)
            assert type(out) is type(ref), (e, c)
            assert out.prologue == ref.prologue and out.stages == ref.stages, (e, c)
            if isinstance(ref, StrictlyNilpotent):
                assert out.certificate.word == ref.certificate.word, (e, c)
                assert out.certificate.side == ref.certificate.side, (e, c)
                assert out.certificate.gen_poly == ref.certificate.gen_poly * c, (e, c)
            else:
                assert out.diagnostic == ref.diagnostic, (e, c)
            if ref.prologue or ref.stages:
                assert out.lead == ref.lead * c, (e, c)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Certificate((), UniPoly((0, 1)), "z"), ValueError, "side must be"),
        (lambda: Certificate((), UniPoly((3,)), "d"), ValueError, "must be nonconstant"),
        (lambda: normalize_subleading(x * d**2 + d), NotNormalizableError, "constant top coefficient"),
        (lambda: descent_step(2 * d**2 + x), NotNormalizableError, "monic operator"),
        (lambda: descent_step(x * d**2 + d**2 + x), NotNormalizableError, "monic operator"),
        (lambda: descent_step(d**2 + x * d + x), ValueError, "vanishing next-to-top"),
        (lambda: descent_step(d**2 + 1), ValueError, "dependence on the coordinate"),
        (lambda: choose_weights(x * d**2 + x), NotNormalizableError, "constant nonzero top coefficient"),
        (lambda: choose_weights(d**2 + 1), ValueError, "no edge to choose"),
        (lambda: normalize_subleading(x**2), NotNormalizableError, "constant top coefficient"),
        (lambda: ad_nilpotency_test(airy, x, cap=0), ValueError, "cap must be positive"),
        (lambda: bispectral_partner(parse_expression("Dz^2 - z")), UnsupportedSideError, "x-side"),
        (lambda: random_orbit_element(1, max_order=0), ValueError, "no draw satisfied the order bound"),
    ],
    ids=[
        "cert-side",
        "cert-constant",
        "normalize-top",
        "stage-monic",
        "stage-monic-row",
        "stage-subleading",
        "stage-coordinate",
        "weights-top",
        "weights-edge",
        "normalize-order",
        "ad-cap",
        "partner-side",
        "orbit-bound",
    ],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
