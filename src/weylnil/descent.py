"""Strict-nilpotency decision procedure and the constructions built on it.

``decide`` classifies an operator by infinite descent on its order.  After
scaling monic and killing the next-to-top coefficient, each stage reads the
Newton-edge weights, demands that the top-weight polynomial is a pure
binomial power ``(Y^r - c*X)^k``, and applies a shift along the derivative
that collapses the operator onto coordinate degree ``k``.  A second shift
clears the ``x^(k-1)`` slice, an inverse Fourier swap returns to a monic
derivative-side operator of order ``k = N/r <= N/2``, and the stage repeats
until the iterate is free of the coordinate.  Inverting the accumulated
generators yields a certificate: an automorphism word and a polynomial whose
evaluation at the derivative reproduces the input exactly.  Failure of the
shape test at any stage is a sound rejection, because a nilpotently acting
operator admits the binomial-power presentation at every stage.

Everything is exact rational arithmetic; every certificate is re-verified by
recomputation before it is returned.  A verdict holds values only: the
prologue generators applied before stage 1, the top coefficient ``lead``
divided out, and one ``StageRecord`` (Newton data, factored form,
generators, elements) per stage.  A stage's order, edge point and order
after are read from its factored form ``(Y^r - c*X)^k``, which fixes them
as ``r*k``, ``X^k`` and ``k``; ``wire`` alone renders them as text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from enum import Enum
from typing import List, Optional, Tuple, Union

from .automorphism import (
    AutoWord,
    Fourier,
    FourierInverse,
    Generator,
    ShiftD,
    ShiftX,
    apply_generator,
    apply_word,
    anti_involution,
    invert_generator,
    invert_word,
    shape_bound,
)
from .element import (
    WeylElement,
    ccr_check,
    commutator,
    coordinate,
    derivative,
)
from .errors import (
    InvariantViolation,
    NotNormalizableError,
    NotStrictlyNilpotentError,
    UnsupportedSideError,
)
from .filtration import (
    FactoredForm,
    FormDiagnostic,
    FormIssue,
    NewtonData,
    Weight,
    associated_poly,
    choose_weights,
    factor_form,
    weight_value,
)
from .poly import UniPoly


class Reason(Enum):
    """Enumerated causes for a negative verdict."""

    NONCONSTANT_LEADING = "nonconstant-leading"
    ASSOC_NOT_FACTORED = "assoc-not-factored"
    POSITIVE_Y_MULTIPLICITY = "positive-y-multiplicity"


@dataclass(frozen=True)
class Certificate:
    """Witness that an operator is an automorphism image of a polynomial.

    ``side`` is ``"d"`` when the generator polynomial is evaluated at the
    derivative and ``"x"`` when at the coordinate;
    ``apply_word(word, gen_poly(side generator))`` reproduces the operator.
    """

    word: AutoWord
    gen_poly: UniPoly
    side: str

    def __post_init__(self):
        if self.side not in ("x", "d"):
            raise ValueError("certificate side must be 'x' or 'd'")
        if self.gen_poly.is_constant():
            raise ValueError("certificate polynomial must be nonconstant")


@dataclass(frozen=True)
class StageRecord:
    """One successful descent stage, kept as values.

    ``newton`` holds the Newton-edge weights and top-weight part of the
    stage's input, and ``form`` factors that part as ``(Y^r - c*X)^k``, so
    the input's order is ``newton.assoc.order == r*k`` and the edge ends at
    ``X^k``.  ``generators`` applied to the input (first entry first) equal
    ``form.scale ** k`` times the monic, normalized ``element`` of order
    ``k = form.multiplicity``; ``shift_image`` is the operator after the
    collapsing shift.  A record's stage number is its position in the
    verdict's ``stages``, from 1.
    """

    newton: NewtonData
    form: FactoredForm
    shift_image: WeylElement
    generators: Tuple[Generator, ...]
    element: WeylElement


@dataclass(frozen=True)
class StrictlyNilpotent:
    """A certified operator.  ``prologue`` holds the generators applied to
    the input before stage 1, first entry first: the ``FourierInverse`` swap
    if one was taken, then the normalizing ``ShiftD`` if it is nonzero;
    ``lead`` is the top coefficient divided out after the swap."""

    certificate: Certificate
    prologue: Tuple[Generator, ...] = ()
    stages: Tuple[StageRecord, ...] = ()
    lead: Fraction = Fraction(1)


@dataclass(frozen=True)
class NotStrictlyNilpotent:
    """A rejection.  ``diagnostic`` is the failed shape test of the rejected
    iterate, or ``None`` when no representation has a constant top
    coefficient; ``prologue``, ``lead`` and ``stages`` lead up to the
    rejected iterate as in ``StrictlyNilpotent``.  The ``reason`` and the
    ``stage`` are read from these, so they cannot disagree with them."""

    diagnostic: Optional[FormDiagnostic] = None
    prologue: Tuple[Generator, ...] = ()
    stages: Tuple[StageRecord, ...] = ()
    lead: Fraction = Fraction(1)

    @property
    def stage(self) -> int:
        """0 without a diagnostic, else the stage after the recorded ones."""
        return 0 if self.diagnostic is None else len(self.stages) + 1

    @property
    def reason(self) -> Reason:
        if self.diagnostic is None:
            return Reason.NONCONSTANT_LEADING
        if self.diagnostic.issue is FormIssue.POSITIVE_Y_POWER:
            return Reason.POSITIVE_Y_MULTIPLICITY
        return Reason.ASSOC_NOT_FACTORED


@dataclass(frozen=True)
class TriviallyConstant:
    value: Fraction


Verdict = Union[StrictlyNilpotent, NotStrictlyNilpotent, TriviallyConstant]


def _derivative_word(cert: Certificate) -> AutoWord:
    """A word sending ``q(D)`` to the certified operator: a coordinate-side
    word gains a trailing ``FourierInverse``, which sends ``q(D)`` to
    ``q(x)``."""
    return cert.word + (FourierInverse(),) if cert.side == "x" else cert.word


def verify_certificate(e: WeylElement, cert: Certificate) -> bool:
    """Recompute the certified image and compare exactly."""
    return apply_word(_derivative_word(cert), WeylElement.from_d_poly(cert.gen_poly, e.side)) == e


def normalize_subleading(e: WeylElement) -> Tuple[WeylElement, Generator]:
    """Clear the coefficient of D^(order-1) with one coordinate shift.

    For an order-N operator with constant top coefficient c the image of
    ``ShiftD(r)`` has next-to-top coefficient ``V - N*c*r'``, so
    ``r' = V/(N*c)`` forces it to vanish; the vanishing is re-checked on the
    computed image.  Returns the image and the generator used (a zero shift
    when nothing had to be done).
    """
    n = e.order
    top = e.d_slice(n)
    if n < 1 or not top.is_constant():
        raise NotNormalizableError("operator must have constant top coefficient of order >= 1")
    sub = e.d_slice(n - 1)
    if sub.is_zero():
        return e, ShiftD(UniPoly.zero())
    gen = ShiftD((sub / (n * top.constant_value())).antiderivative())
    image = apply_generator(gen, e)
    if not image.d_slice(image.order - 1).is_zero():
        raise InvariantViolation("next-to-top coefficient survived normalization")
    return image, gen


def descent_step(e: WeylElement) -> Union[StageRecord, FormDiagnostic]:
    """One order-reducing stage of the descent.

    Requires a monic operator of order >= 1 with vanishing next-to-top
    coefficient that depends on the coordinate.  After the collapse and the
    clearing shift the iterate is ``c*x^k`` plus slices ``x^i q_i(D)`` with
    ``i <= k-2``, which the inverse Fourier swap sends to order ``<= i``; so
    the swapped operator already has a vanishing next-to-top coefficient,
    and one division by its leading coefficient ``lam^k`` makes it monic of
    order ``multiplicity = order/ratio``, ready for the next stage.  A failed
    shape test returns its diagnostic.
    """
    n = e.order
    if n < 1 or e.d_slice(n) != 1:
        raise NotNormalizableError("descent stage requires a monic operator of order >= 1")
    if not e.d_slice(n - 1).is_zero():
        raise ValueError("descent stage requires a vanishing next-to-top coefficient")
    if not e.depends_on_x():
        raise ValueError("descent stage requires dependence on the coordinate")

    nd = associated_poly(e, choose_weights(e))
    ff = factor_form(nd)
    if isinstance(ff, FormDiagnostic):
        return ff
    r, k, lam = ff.ratio, ff.multiplicity, ff.scale
    if r < 2:
        raise InvariantViolation(
            "weight ratio 1 after normalization contradicts the vanishing next-to-top coefficient"
        )

    # collapse the derivative structure: x -> x + lam^-1 D^r
    g_main = ShiftX(UniPoly.monomial(r + 1, Fraction(1, r + 1) / lam))
    cur = shift_image = apply_generator(g_main, e)
    gens: List[Generator] = [g_main]

    c_top = (-lam) ** k
    if cur.x_degree != k or cur.x_slice(k) != c_top:
        raise InvariantViolation("collapse did not produce the expected top coordinate slice")

    # clear the x^(k-1) slice; its degree must sit strictly below the ratio
    edge = cur.x_slice(k - 1)
    if not edge.is_zero():
        if edge.degree >= r:
            raise InvariantViolation("next-to-top coordinate slice exceeds the weight bound")
        g_edge = ShiftX((edge / (-k * c_top)).antiderivative())
        cur = apply_generator(g_edge, cur)
        gens.append(g_edge)
        if not cur.x_slice(k - 1).is_zero():
            raise InvariantViolation("next-to-top coordinate slice survived the clearing shift")

    # swap back to a derivative-side operator, already normalized; rescale monic
    g_swap = FourierInverse()
    cur = apply_generator(g_swap, cur)
    gens.append(g_swap)
    scale = lam**k
    if cur.order != k or cur.d_slice(k) != scale or not cur.d_slice(k - 1).is_zero():
        raise InvariantViolation("swapped operator is not lam^k*D^k plus terms of order k-2 or less")

    return StageRecord(nd, ff, shift_image, tuple(gens), cur / scale)


def decide(e: WeylElement) -> Verdict:
    """Classify an operator, producing a verified certificate or a reason.

    Constants are reported separately; pure coordinate or pure derivative
    polynomials certify immediately with an empty word.  Otherwise the input
    is scaled monic (switching representation through an inverse Fourier
    swap if only the coordinate-leading side is constant), normalized, and
    descended stage by stage.  Every iterate has order at least one, so the
    loop ends on the derivative side, once the iterate is free of the
    coordinate.  The certificate word is the inverse of the prologue
    followed by each stage's generators, and the certificate polynomial
    absorbs ``lead`` and every stage's scale, so the reconstruction is
    exact; it is re-verified before being returned.
    """
    if e.is_constant():
        return TriviallyConstant(e.constant_value())
    if not e.depends_on_d():
        return StrictlyNilpotent(Certificate((), e.d_slice(0), "x"))
    if not e.depends_on_x():
        return StrictlyNilpotent(Certificate((), e.x_slice(0), "d"))

    prologue: List[Generator] = []
    cur = e
    if not cur.d_slice(cur.order).is_constant():
        # the swap sends x^i D^j to (-1)^i x^j D^i plus terms of lower order,
        # so its top coefficient is +-x_slice(x_degree) read with D -> x: test
        # that first and swap only when it is constant
        if not cur.x_slice(cur.x_degree).is_constant():
            return NotStrictlyNilpotent()
        prologue.append(FourierInverse())
        cur = apply_generator(FourierInverse(), cur)

    lead = scale = cur.d_slice(cur.order).constant_value()
    if lead != 1:
        cur = cur / lead
    cur, g_norm = normalize_subleading(cur)
    if not g_norm.poly.is_zero():
        prologue.append(g_norm)

    stages: List[StageRecord] = []
    while cur.depends_on_x():
        out = descent_step(cur)
        if isinstance(out, FormDiagnostic):
            return NotStrictlyNilpotent(out, tuple(prologue), tuple(stages), lead)
        scale *= out.form.scale**out.form.multiplicity
        cur = out.element
        stages.append(out)

    word = tuple(invert_generator(g) for g in prologue + [g for rec in stages for g in rec.generators])
    cert = Certificate(word, cur.x_slice(0) * scale, "d")
    if not verify_certificate(e, cert):
        raise InvariantViolation("assembled certificate failed re-verification")
    return StrictlyNilpotent(cert, tuple(prologue), tuple(stages), lead)


# ----------------------------------------------------------------------
# bracket-iteration probe
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NilpotentAt:
    """Iterated bracket vanished: step ``steps`` is zero, step-1 was not."""

    steps: int


@dataclass(frozen=True)
class EigenObstruction:
    """The bracket fixed a scalar direction, certifying non-nilpotence."""

    eigenvalue: Fraction


@dataclass(frozen=True)
class BoundExhausted:
    """No conclusion within the cap; carries the total degree of the last
    iterate as a coarse progress indicator."""

    cap: int
    last_weight: int


AdTestResult = Union[NilpotentAt, EigenObstruction, BoundExhausted]


def _proportional(a: WeylElement, b: WeylElement) -> Optional[Fraction]:
    """Scalar c with a == c*b, when one exists (b nonzero).

    With ``a = na/da`` and ``b = nb/db`` on their integer pairs, the ratio
    is constant exactly when the cross products ``na[k]*nb[k0]`` and
    ``nb[k]*na[k0]`` agree for every key ``k`` and one fixed ``k0``.
    """
    na, nb = a.nums, b.nums
    if na.keys() != nb.keys():
        return None
    k0 = next(iter(na))
    p, q = na[k0], nb[k0]
    if any(n * q != nb[k] * p for k, n in na.items()):
        return None
    return Fraction(p * b.den, q * a.den)


def ad_nilpotency_test(op: WeylElement, target: WeylElement, cap: int = 64) -> AdTestResult:
    """Iterate the bracket with ``op`` on ``target`` up to ``cap`` steps;
    a zero target is nilpotent at step 0."""
    if cap < 1:
        raise ValueError("cap must be positive")
    if target.is_zero():
        return NilpotentAt(0)
    cur = target
    for m in range(1, cap + 1):
        nxt = commutator(op, cur)
        if nxt.is_zero():
            return NilpotentAt(m)
        ratio = _proportional(nxt, cur)
        if ratio is not None:
            return EigenObstruction(ratio)
        cur = nxt
    return BoundExhausted(cap, weight_value(cur, Weight(1, 1)))


# ----------------------------------------------------------------------
# constructions on top of a certificate
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BispectralPartner:
    """Partner operator in the spectral variable together with its data.

    ``lambda_op`` lives on the z side; for the certified operator L with
    certificate (word, q) the eigenvalue polynomial is ``f(z) = q(z)``.
    The dual eigenvalue function is always the coordinate, ``theta(x) = x``,
    so it is not stored.
    """

    lambda_op: WeylElement
    f_poly: UniPoly


def _derivative_certificate(e: WeylElement, construction: str) -> Certificate:
    """The certificate of ``e``, which must be on the derivative side.

    Raises ``NotStrictlyNilpotentError`` when ``decide`` rejects ``e`` and
    ``UnsupportedSideError``, naming ``construction``, for a coordinate-side
    certificate.
    """
    verdict = decide(e)
    if not isinstance(verdict, StrictlyNilpotent):
        raise NotStrictlyNilpotentError(verdict)
    if verdict.certificate.side == "x":
        raise UnsupportedSideError(
            f"{construction} is unsupported for coordinate-side certificates"
        )
    return verdict.certificate


def bispectral_partner(e: WeylElement) -> BispectralPartner:
    """Partner of a certified derivative-side operator on the x side.

    The partner is the anti-involution image of the inverse word applied to
    the coordinate.  Operators certified on the coordinate side are refused;
    their partners are not ordinary differential operators.
    """
    if e.side != "x":
        raise UnsupportedSideError("partner construction expects an x-side operator")
    cert = _derivative_certificate(e, "partner construction")
    pre_image = apply_word(invert_word(cert.word), coordinate("x"))
    return BispectralPartner(anti_involution(pre_image), cert.gen_poly)


def centralizer_generator(e: WeylElement) -> WeylElement:
    """Element generating the centralizer of a certified operator.

    Returns the word applied to the derivative; the input is the certificate
    polynomial evaluated at the result, and the two commute.
    """
    cert = _derivative_certificate(e, "centralizer generator")
    gen = apply_word(cert.word, derivative(e.side))
    if commutator(e, gen) != WeylElement.zero(e.side):
        raise InvariantViolation("centralizer generator does not commute with the input")
    return gen


@dataclass(frozen=True)
class GenerationWitness:
    """Constructive proof that a commutation pair generates the algebra.

    The first element is ``word(a*D + b)`` and the second is
    ``word(x/a + tail(D))``; since D and x generate, so do the images.
    """

    word: AutoWord
    a: Fraction
    b: Fraction
    tail: UniPoly


@dataclass(frozen=True)
class CounterexampleCandidate:
    """A commutation pair whose first member failed the decision procedure.

    Any genuine instance would separate the commutation identity from
    generation of the algebra; the full verdict is kept for audit.
    """

    verdict: Verdict


def ccr_to_generators(
    op: WeylElement, mate: WeylElement
) -> Union[GenerationWitness, CounterexampleCandidate]:
    """Reduce a commutation pair to the standard generating pair.

    Runs the decision procedure on ``op``; with a certificate (word, q) in
    hand, q must be linear and the preimage of ``mate`` must be
    ``x/a + tail(D)``, which yields the witness.  A rejection of ``op`` is
    returned as a counterexample candidate instead.
    """
    if not ccr_check(op, mate):
        raise ValueError("inputs do not satisfy the commutation identity [a, b] == 1")
    verdict = decide(op)
    if not isinstance(verdict, StrictlyNilpotent):
        return CounterexampleCandidate(verdict)
    cert = verdict.certificate
    word = _derivative_word(cert)
    q = cert.gen_poly
    if q.degree != 1:
        raise InvariantViolation(
            "certificate polynomial of a commutation-pair member must be linear"
        )
    a, b = q.coeff(1), q.coeff(0)
    m = apply_word(invert_word(word), mate)
    if m.x_degree != 1 or m.x_slice(1) != 1 / a:
        raise InvariantViolation("commutation mate does not reduce to the standard form")
    tail = m.x_slice(0)
    witness = GenerationWitness(word, a, b, tail)
    side = op.side
    first = apply_word(word, a * derivative(side) + WeylElement.scalar(b, side))
    second = apply_word(
        word, coordinate(side) / a + WeylElement.from_d_poly(tail, side)
    )
    if first != op or second != mate:
        raise InvariantViolation("generation witness failed to reproduce the pair")
    return witness


# ----------------------------------------------------------------------
# seeded sampling of certified operators
# ----------------------------------------------------------------------


def _random_poly(rng: random.Random, degree: int, low: int) -> UniPoly:
    """A polynomial of degree ``degree``: zero below degree ``low``, drawn
    from -3..3 from ``low`` up to ``degree - 1``, and a nonzero leading
    coefficient drawn from -3..3."""
    coeffs = [0] * low + [rng.randint(-3, 3) for _ in range(low, degree)]
    coeffs.append(rng.choice((-3, -2, -1, 1, 2, 3)))
    return UniPoly(coeffs)


def _draw_word_and_poly(
    rng: random.Random, word_len: int, max_deg: int, max_q_deg: int
) -> Tuple[AutoWord, UniPoly]:
    start_with_d = rng.random() < 0.5
    word: List[Generator] = []
    for idx in range(word_len):
        degree = rng.randint(3, max_deg)
        kind = ShiftD if (idx % 2 == 0) == start_with_d else ShiftX
        word.append(kind(_random_poly(rng, degree, 1)))
    if word_len > 0 and rng.random() < 0.5:
        word.append(Fourier())
    return tuple(word), _random_poly(rng, rng.randint(1, max_q_deg), 0)


def random_orbit_element(
    seed: int,
    word_len: int = 3,
    max_deg: int = 5,
    max_q_deg: int = 4,
    max_order: Optional[int] = None,
) -> Tuple[WeylElement, Certificate]:
    """Deterministically sample a certified operator with its ground truth.

    Draws a word of ``word_len`` alternating coordinate/derivative shifts
    with polynomial degrees in ``3..max_deg`` (optionally with a trailing
    Fourier swap) plus a nonconstant polynomial of degree <= ``max_q_deg``,
    and returns the word applied to the polynomial in the derivative along
    with the generating certificate.  With ``max_order`` set, draws are
    redone (still deterministically) until the resulting order provably
    stays within the bound, which keeps corpus generation cheap.

    Bounds: 0 <= word_len <= 8, 3 <= max_deg <= 9, 1 <= max_q_deg <= 8.
    """
    if not (0 <= word_len <= 8):
        raise ValueError("word_len must be in 0..8")
    if not (3 <= max_deg <= 9):
        raise ValueError("max_deg must be in 3..9")
    if not (1 <= max_q_deg <= 8):
        raise ValueError("max_q_deg must be in 1..8")
    rng = random.Random(seed)
    for _ in range(1000):
        word, q = _draw_word_and_poly(rng, word_len, max_deg, max_q_deg)
        if max_order is None or shape_bound(word, 0, q.degree)[1] <= max_order:
            element = apply_word(word, WeylElement.from_d_poly(q))
            return element, Certificate(word, q, "d")
    raise ValueError("no draw satisfied the order bound; relax max_order")
