"""Univariate polynomials with exact rational coefficients.

Small dense representation used for operator coefficient slices, generator
polynomials of automorphisms, and certificate polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

Scalar = Union[int, Fraction]


def _format_terms(terms: Iterable[Tuple[int, int, Sequence[Tuple[str, int]]]]) -> str:
    """Signed sum of ``(numerator, denominator, factors)`` terms, in the
    order given.

    Each coefficient is a reduced fraction with a positive denominator.
    ``factors`` are ``(symbol, exponent)`` pairs: exponent 0 leaves the
    factor out and 1 prints the bare symbol.  The magnitude of a coefficient
    prints like ``str`` of a ``Fraction``, and not at all when it is one and
    a factor follows; no terms print as ``"0"``.
    """
    parts = []
    for n, q, factors in terms:
        body = [s if e == 1 else f"{s}^{e}" for s, e in factors if e]
        if q != 1 or not body or (n != 1 and n != -1):
            body.insert(0, f"{abs(n)}/{q}" if q != 1 else str(abs(n)))
        parts.append(" - " if n < 0 else " + ")
        parts.append("*".join(body))
    if not parts:
        return "0"
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


class UniPoly:
    """Polynomial in one variable over the rationals.

    Coefficients are stored ascending by degree with trailing zeros removed,
    so structural equality coincides with mathematical equality.  Instances
    are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        # a Fraction is immutable and already reduced, so it is kept as is
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple = tuple(cs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def const(cls, c: Scalar) -> "UniPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, degree: int, coeff: Scalar = 1) -> "UniPoly":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("UniPoly", self.coeffs))

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        return self + (-other if isinstance(other, UniPoly) else UniPoly.const(-Fraction(other)))

    def __rsub__(self, other) -> "UniPoly":
        return (-self) + other

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "UniPoly":
        s = Fraction(scalar)
        return UniPoly(tuple(c / s for c in self.coeffs))

    def __call__(self, value: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def antiderivative(self) -> "UniPoly":
        """Antiderivative with zero constant term."""
        return UniPoly((0,) + tuple(c / (i + 1) for i, c in enumerate(self.coeffs)))

    def drop_constant(self) -> "UniPoly":
        if not self.coeffs:
            return self
        return UniPoly((0,) + self.coeffs[1:])

    def format(self, var: str = "t") -> str:
        cs = self.coeffs
        return _format_terms(
            (cs[d].numerator, cs[d].denominator, ((var, d),)) for d in range(len(cs) - 1, -1, -1) if cs[d]
        )

    def __repr__(self) -> str:
        return f"UniPoly({self.format()!r})"
