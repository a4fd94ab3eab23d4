"""Weight filtrations and the Newton-polygon data used by the descent.

A weight pair assigns ``x_weight*i + d_weight*j`` to the monomial
``x^i * D^j``.  For an operator the terms of maximal weight form a
commutative bivariate polynomial in ``X`` (for the coordinate) and ``Y``
(for the derivative); the descent needs exactly one structural fact about
it, namely whether it is a pure power ``(Y^r - c*X)^k``.  This module
computes the weight data, selects the weights from the upper Newton edge
through ``(0, order)``, and recognizes that factored shape on the top-weight
part, an element whose ``x^i D^j`` reads ``X^i Y^j``: ``FactoredForm.expand``
is the one construction of the power ``Y^n (Y^r - c*X)^k``, on the integer
pair, and ``factor_form`` accepts when the top-weight part's pair equals it.
The edge's points are the keys of that part, so only the weight is chosen;
for the shape ``(Y^r - c*X)^k`` the edge ends at ``X^k``.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Optional, Tuple, Union

from ._value import Value
from .element import WeylElement, _new, _row_empty, _settle
from .errors import InvariantViolation, NotNormalizableError
from .poly import _format_terms


class Weight(Value):
    """Primitive positive integer weight pair ``(x_weight, d_weight)`` for the (x, D) grading."""

    __slots__ = ("x_weight", "d_weight")

    def __init__(self, x_weight: int, d_weight: int):
        if x_weight < 1 or d_weight < 1:
            raise ValueError("weights must be positive integers")
        if gcd(x_weight, d_weight) != 1:
            raise ValueError("weight pair must be coprime")
        super().__init__(x_weight, d_weight)

    def as_tuple(self) -> Tuple[int, int]:
        return (self.x_weight, self.d_weight)


def weight_value(e: WeylElement, w: Weight) -> int:
    """Maximal weight over the support; undefined for the zero element."""
    if e.is_zero():
        raise ValueError("weight value of the zero element is undefined")
    a, b = w.x_weight, w.d_weight
    return max(a * i + b * j for i, j in e.nums)


class NewtonData(Value):
    """Top-weight data of one element for one weight pair ``weight``.

    ``assoc`` is the top-weight part: the maximal-weight terms as a
    canonical ``WeylElement`` on the element's side, whose key ``(i, j)``
    reads as the commutative ``X^i Y^j`` (X coordinate, Y derivative
    direction); it is weight-homogeneous of weight ``value``.
    """

    __slots__ = ("weight", "value", "assoc")


def associated_poly(e: WeylElement, w: Weight) -> NewtonData:
    """Collect the top-weight terms of ``e`` into a commutative polynomial."""
    v = weight_value(e, w)
    a, b = w.x_weight, w.d_weight
    assoc = _settle((((i, j), n) for (i, j), n in e.nums.items() if a * i + b * j == v), e.den, e.side)
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
    if n < 1 or not _row_empty(e, n, 1):
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
    a, b = w.x_weight, w.d_weight
    limit = n * b
    if any(a * i + b * j > limit for i, j in e.nums):
        raise InvariantViolation("support escapes above the chosen Newton edge")
    return w


class FormIssue(Enum):
    """Why the top-weight polynomial is not a usable pure binomial power."""

    MONOMIAL = "monomial"
    RATIO_NOT_INTEGER = "ratio-not-integer"
    LAMBDA_INCONSISTENT = "lambda-inconsistent"
    POSITIVE_Y_POWER = "positive-y-power"


class FactoredForm(Value):
    """Exact presentation ``Y^y_power * (Y^ratio - scale*X)^multiplicity``;
    ``expand`` builds that power, and ``factor_form`` compares a top-weight
    part with it."""

    __slots__ = ("y_power", "ratio", "multiplicity", "scale")

    def expand(self) -> WeylElement:
        """The power as a canonical x-side element whose key ``(i, j)``
        reads ``X^i Y^j``.  With ``scale = p/q`` in lowest terms it is
        ``sum_s C(k, s) * (-p)^s * q^(k-s) / q^k * X^s * Y^(n + r*(k-s))``,
        canonical as built since ``gcd(q^k, p^k) == 1``; a zero scale
        leaves the one term ``Y^(n + r*k)``.  Each numerator follows from
        the one before by the exact step ``* (k-s) * (-p) / ((s+1) * q)``."""
        n, r, k = self.y_power, self.ratio, self.multiplicity
        p, q = -self.scale.numerator, self.scale.denominator
        den = w = q**k  # w == C(k, s) * (-scale.numerator)^s * scale.denominator^(k-s)
        nums = {}
        for s in range(k + 1 if p else 1):
            nums[(s, n + r * (k - s))] = w
            w = w * (k - s) * p // ((s + 1) * q)
        return _new("x", den, nums)

    def format(self) -> str:
        c = self.scale
        inner = _format_terms(((1, 1, (("Y", self.ratio),)), (-c.numerator, c.denominator, (("X", 1),))))
        body = f"({inner})^{self.multiplicity}" if self.multiplicity != 1 else f"({inner})"
        if self.y_power == 0:
            return body
        yy = "Y" if self.y_power == 1 else f"Y^{self.y_power}"
        return f"{yy}*{body}"


class FormDiagnostic(Value):
    """Structured reason why recognition failed: its ``issue`` and ``message``.

    ``strictly_semisimple`` marks the harmonic-oscillator shape
    ``Y^2 + c*X^2`` on the equal-weight edge, whose operator acts diagonally
    rather than nilpotently.
    ``partial`` carries the factorization that was found when the shape is
    correct except for a positive Y power.
    """

    __slots__ = ("issue", "message", "strictly_semisimple", "partial")
    _defaults = {"strictly_semisimple": False, "partial": None}


def factor_form(nd: NewtonData) -> Union[FactoredForm, FormDiagnostic]:
    """Recognize ``assoc == Y^n * (Y^r - scale*X)^k`` exactly.

    ``order`` is the Y-degree of ``assoc``, the operator's order, since the
    Newton edge is anchored at ``(0, order)``.  The candidate parameters are
    forced: ``k`` is the X-degree, ``r`` the weight ratio,
    ``n = order - r*k``, and ``scale`` is read off the
    coefficient of ``X * Y^(n + r*(k-1))``.  The candidate's ``expand()``
    then accepts or rejects: ``assoc`` matches when its integer pair
    ``(den, nums)`` equals the expansion's.  The pair, not the element, is
    compared, because ``assoc`` keeps the operator's side and the expansion
    is on the x side.
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
    cross = (1, n + r * (k - 1))
    scale = Fraction(-nums.get(cross, 0), k * den)
    if scale == 0:
        # with equal weights, order 2 and X-degree 2 the absent cross term is X*Y
        return FormDiagnostic(
            FormIssue.LAMBDA_INCONSISTENT,
            f"cross term at X*Y^{cross[1]} absent",
            strictly_semisimple=rho == sigma and order == 2 and k == 2 and (2, 0) in nums,
        )
    candidate = FactoredForm(n, r, k, scale)
    power = candidate.expand()
    if power.den != den or power.nums != nums:
        return FormDiagnostic(
            FormIssue.LAMBDA_INCONSISTENT,
            "expansion of the candidate binomial power does not match",
        )
    if n > 0:
        return FormDiagnostic(
            FormIssue.POSITIVE_Y_POWER,
            f"positive Y power: factors as {candidate.format()}",
            partial=candidate,
        )
    return candidate
