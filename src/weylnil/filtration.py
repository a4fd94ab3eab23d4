"""Weight filtrations and the Newton-polygon data used by the descent.

A weight pair assigns ``x_weight*i + d_weight*j`` to the monomial
``x^i * D^j``.  For an operator the terms of maximal weight form a
commutative bivariate polynomial in ``X`` (for the coordinate) and ``Y``
(for the derivative); the descent needs exactly one structural fact about
it, namely whether it is a pure power ``(Y^r - c*X)^k``.  This module
computes the weight data, selects the weights from the upper Newton edge
through ``(0, order)``, and recognizes that factored shape on the integer
pair of the top-weight part, an element whose ``x^i D^j`` reads ``X^i Y^j``.
The edge's points are the keys of that part, so only the weight is chosen;
for the shape ``(Y^r - c*X)^k`` the edge ends at ``X^k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, gcd
from typing import Dict, Optional, Tuple, Union

from .element import WeylElement, _settle
from .errors import InvariantViolation, NotNormalizableError
from .poly import _format_terms

BiPoly = Dict[Tuple[int, int], Fraction]


@dataclass(frozen=True)
class Weight:
    """Primitive positive integer weight pair for the (x, D) grading."""

    x_weight: int
    d_weight: int

    def __post_init__(self):
        if self.x_weight < 1 or self.d_weight < 1:
            raise ValueError("weights must be positive integers")
        if gcd(self.x_weight, self.d_weight) != 1:
            raise ValueError("weight pair must be coprime")

    def of(self, i: int, j: int) -> int:
        return self.x_weight * i + self.d_weight * j

    def as_tuple(self) -> Tuple[int, int]:
        return (self.x_weight, self.d_weight)


def weight_value(e: WeylElement, w: Weight) -> int:
    """Maximal weight over the support; undefined for the zero element."""
    if e.is_zero():
        raise ValueError("weight value of the zero element is undefined")
    return max(w.of(i, j) for i, j in e.nums)


@dataclass(frozen=True)
class NewtonData:
    """Top-weight data of one element for one weight pair.

    ``assoc`` is the top-weight part: the maximal-weight terms as a
    canonical ``WeylElement`` on the element's side, whose key ``(i, j)``
    reads as the commutative ``X^i Y^j`` (X coordinate, Y derivative
    direction); it is weight-homogeneous of weight ``value``.
    """

    weight: Weight
    value: int
    assoc: WeylElement


def associated_poly(e: WeylElement, w: Weight) -> NewtonData:
    """Collect the top-weight terms of ``e`` into a commutative polynomial."""
    v = weight_value(e, w)
    assoc = _settle(((k, n) for k, n in e.nums.items() if w.of(*k) == v), e.den, e.side)
    return NewtonData(w, v, assoc)


def format_bivariate(assoc: WeylElement) -> str:
    """Render a top-weight part like ``Y^4 + 2*X*Y^2 + X^2``, its keys
    ``(i, j)`` read as ``X^i Y^j``."""
    nums = assoc.nums
    keys = sorted(nums, key=lambda k: (-k[1], k[0]))
    return _format_terms((nums[k], assoc.den, (("X", k[0]), ("Y", k[1]))) for k in keys)


def choose_weights(e: WeylElement) -> Weight:
    """Weights from the upper Newton edge anchored at ``(0, order)``.

    Draws the line through ``(0, N)`` and a support point ``(k0, m0)`` with
    ``k0 > 0`` such that all support lies on or below it, then returns the
    primitive positive solution of ``N*sigma == k0*rho + m0*sigma``; every
    point on the line gives the same solution.  An operator that does not
    depend on the coordinate has no such point and raises ``ValueError``.
    """
    n = e.order
    if n < 1 or not e.d_slice(n).is_constant():
        raise NotNormalizableError("operator must have a constant nonzero top coefficient")
    if not e.depends_on_x():
        raise ValueError("operator has constant coefficients; no edge to choose")

    best: Optional[Tuple[int, int]] = None
    for i, j in e.nums:
        if i == 0:
            continue
        if best is None:
            best = (i, j)
            continue
        k0, m0 = best
        # shallower drop wins: (n - j)/i < (n - m0)/k0, compared exactly
        if (n - j) * k0 < (n - m0) * i:
            best = (i, j)
    assert best is not None
    k0, m0 = best
    g = gcd(n - m0, k0)
    w = Weight((n - m0) // g, k0 // g)
    limit = n * w.d_weight
    if any(w.of(i, j) > limit for i, j in e.nums):
        raise InvariantViolation("support escapes above the chosen Newton edge")
    return w


class FormIssue(Enum):
    """Why the top-weight polynomial is not a usable pure binomial power."""

    MONOMIAL = "monomial"
    RATIO_NOT_INTEGER = "ratio-not-integer"
    LAMBDA_INCONSISTENT = "lambda-inconsistent"
    POSITIVE_Y_POWER = "positive-y-power"


@dataclass(frozen=True)
class FactoredForm:
    """Exact presentation ``Y^y_power * (Y^ratio - scale*X)^multiplicity``."""

    y_power: int
    ratio: int
    multiplicity: int
    scale: Fraction

    def expand(self) -> BiPoly:
        out: BiPoly = {}
        for s in range(self.multiplicity + 1):
            c = comb(self.multiplicity, s) * (-self.scale) ** s
            out[(s, self.y_power + self.ratio * (self.multiplicity - s))] = Fraction(c)
        return out

    def format(self) -> str:
        c = self.scale
        inner = _format_terms(((1, 1, (("Y", self.ratio),)), (-c.numerator, c.denominator, (("X", 1),))))
        body = f"({inner})^{self.multiplicity}" if self.multiplicity != 1 else f"({inner})"
        if self.y_power == 0:
            return body
        yy = "Y" if self.y_power == 1 else f"Y^{self.y_power}"
        return f"{yy}*{body}"


@dataclass(frozen=True)
class FormDiagnostic:
    """Structured reason why recognition failed.

    ``strictly_semisimple`` marks the harmonic-oscillator shape
    ``Y^2 + c*X^2`` on the equal-weight edge, whose operator acts diagonally
    rather than nilpotently.
    ``partial`` carries the factorization that was found when the shape is
    correct except for a positive Y power.
    """

    issue: FormIssue
    message: str
    strictly_semisimple: bool = False
    partial: Optional[FactoredForm] = None


def _binomial_terms_match(f: WeylElement, n: int, r: int, k: int, scale: Fraction) -> bool:
    """Whether ``f`` holds every term of ``Y^n * (Y^r - scale*X)^k``."""
    nums, den = f.nums, f.den
    p, q = -scale.numerator, scale.denominator
    pp = qq = 1  # (-scale.numerator)^s and scale.denominator^s
    for s in range(k + 1):
        c = nums.get((s, n + r * (k - s)))
        if c is None or c * qq != comb(k, s) * pp * den:
            return False
        pp *= p
        qq *= q
    return True


def factor_form(nd: NewtonData) -> Union[FactoredForm, FormDiagnostic]:
    """Recognize ``assoc == Y^n * (Y^r - scale*X)^k`` exactly.

    ``order`` is the Y-degree of ``assoc``, the operator's order, since the
    Newton edge is anchored at ``(0, order)``.  The candidate parameters are
    forced: ``k`` is the X-degree, ``r`` the weight ratio,
    ``n = order - r*k``, and ``scale`` is read off the
    coefficient of ``X * Y^(n + r*(k-1))``.  A full comparison then accepts
    or rejects: with ``scale = p/q``, the binomial power has the ``k + 1``
    terms ``C(k, s) * (-p)^s / q^s * X^s * Y^(n + r*(k-s))``, so ``assoc``
    must have ``k + 1`` terms, each equal to its binomial coefficient, which
    is tested on its numerators and ``den`` cross-multiplied with ``p`` and
    ``q``, one integer comparison per ``X^s`` term.
    Success requires ``n == 0``; a matching shape with ``n > 0`` is reported
    as a diagnostic carrying the factorization.
    """
    f = nd.assoc
    nums, den, order = f.nums, f.den, f.order
    if nums.get((0, order)) != den:
        raise ValueError("top-weight polynomial must have monic Y^order term")
    if len(nums) == 1:
        return FormDiagnostic(FormIssue.MONOMIAL, "top-weight part is a single monomial")
    rho, sigma = nd.weight.x_weight, nd.weight.d_weight
    if rho % sigma != 0:
        return FormDiagnostic(
            FormIssue.RATIO_NOT_INTEGER, f"weight ratio {rho}/{sigma} is not an integer"
        )
    r = rho // sigma
    k = f.x_degree
    n = order - r * k
    if n < 0:
        return FormDiagnostic(
            FormIssue.LAMBDA_INCONSISTENT, "X-degree exceeds what the weight ratio allows"
        )
    semisimple = rho == sigma and order == 2 and k == 2 and (2, 0) in nums and (1, 1) not in nums
    cross = (1, n + r * (k - 1))
    scale = Fraction(-nums.get(cross, 0), k * den)
    if scale == 0:
        return FormDiagnostic(
            FormIssue.LAMBDA_INCONSISTENT,
            f"cross term at X*Y^{cross[1]} absent",
            strictly_semisimple=semisimple,
        )
    candidate = FactoredForm(n, r, k, scale)
    if len(nums) != k + 1 or not _binomial_terms_match(f, n, r, k, scale):
        return FormDiagnostic(
            FormIssue.LAMBDA_INCONSISTENT,
            "expansion of the candidate binomial power does not match",
            strictly_semisimple=semisimple,
        )
    if n > 0:
        return FormDiagnostic(
            FormIssue.POSITIVE_Y_POWER,
            f"positive Y power: factors as {candidate.format()}",
            partial=candidate,
        )
    return candidate
