"""Univariate polynomials with exact rational coefficients.

Small dense representation used for operator coefficient slices, generator
polynomials of automorphisms, and certificate polynomials.

A polynomial stores integer numerators over one shared denominator, as an
operator does: ``nums`` is a tuple of ``int``s ascending by degree and the
coefficient of ``t^i`` is ``nums[i] / den``.  The pair is canonical:
``den >= 1``, ``gcd(den, *nums) == 1`` and ``nums`` has no trailing zero,
so equal values have equal pairs; the zero polynomial is ``den == 1`` with
no numerators.  Every operation computes on Python integers and settles its
result once with ``_settle``, which drops the trailing zeros and divides
out one ``gcd``; results that are canonical as built, such as a negation,
go to ``_new``.  ``coeff`` reads one coefficient as a ``Fraction``, and
``_format_terms`` reduces each printed term, so no ``Fraction`` copy is kept.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]


def _format_terms(terms: Iterable[Tuple[int, int, Sequence[Tuple[str, int]]]]) -> str:
    """Signed sum of ``(numerator, denominator, factors)`` terms, in the
    order given.

    Each coefficient is a nonzero numerator over a positive denominator,
    such as one numerator of a canonical pair over its shared ``den``; each
    term is reduced here by one ``gcd``.  ``factors`` are ``(symbol,
    exponent)`` pairs: exponent 0 leaves the factor out and 1 prints the
    bare symbol.  The magnitude of a coefficient
    prints like ``str`` of a ``Fraction``, and not at all when it is one and
    a factor follows; no terms print as ``"0"``.
    """
    parts = []
    for n, q, factors in terms:
        g = gcd(n, q)
        if g != 1:
            n //= g
            q //= g
        body = [s if e == 1 else f"{s}^{e}" for s, e in factors if e]
        if q != 1 or not body or (n != 1 and n != -1):
            body.insert(0, f"{abs(n)}/{q}" if q != 1 else str(abs(n)))
        parts.append(" - " if n < 0 else " + ")
        parts.append("*".join(body))
    if not parts:
        return "0"
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


def _new(den: int, nums: tuple) -> "UniPoly":
    p = object.__new__(UniPoly)
    p.den = den
    p.nums = nums
    return p


def _settle(den: int, nums: list) -> "UniPoly":
    """The canonical polynomial with coefficients ``n / den`` for the
    numerators ``nums`` (ascending by degree, ``den >= 1``)."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [n // g for n in nums]
    return _new(den, tuple(nums))


def _coefficient(c) -> Fraction:
    """A constructor coefficient as a ``Fraction``: ``int``, ``Fraction`` and
    ``str`` are exact; anything else, a binary ``float`` among them, is a
    ``TypeError``, as it is in arithmetic."""
    if not isinstance(c, (int, Fraction, str)):
        raise TypeError(f"coefficient must be an int, Fraction or str, got {type(c).__name__}")
    return Fraction(c)


def _operand(other) -> Optional["UniPoly"]:
    """``other`` as a polynomial, or ``None`` when it is not a number."""
    if isinstance(other, UniPoly):
        return other
    if isinstance(other, (int, Fraction)):
        return UniPoly.const(other)
    return None


def _sum(a: "UniPoly", b: "UniPoly", sign: int) -> "UniPoly":
    """``a + sign*b`` on the numerators over ``lcm(a.den, b.den)``."""
    den = lcm(a.den, b.den)
    scale_a, scale_b = den // a.den, sign * (den // b.den)
    out = [n * scale_a for n in a.nums]
    out.extend([0] * (len(b.nums) - len(out)))
    for i, n in enumerate(b.nums):
        out[i] += n * scale_b
    return _settle(den, out)


class UniPoly:
    """Polynomial in one variable over the rationals.

    ``den`` and ``nums`` are the canonical pair described in the module
    docstring, so structural equality coincides with mathematical equality.
    A constant hashes like its ``Fraction`` value, which it also equals.
    Instances are immutable.
    """

    __slots__ = ("den", "nums")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        nums = list(coeffs)
        den = 1
        # bool is an int subclass, so test the exact type
        if not all(type(c) is int for c in nums):
            fs = [_coefficient(c) for c in nums]
            den = lcm(*[f.denominator for f in fs])
            nums = [f.numerator * (den // f.denominator) for f in fs]
        built = _settle(den, nums)
        self.den, self.nums = built.den, built.nums

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
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return len(self.nums) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.nums[0], self.den) if self.nums else Fraction(0)

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.nums):
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    def leading(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.nums
            return self.den == other.denominator and self.nums == (other.numerator,)
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_constant():
            return hash(self.constant_value())
        return hash(("UniPoly", self.den, self.nums))

    def __neg__(self) -> "UniPoly":
        return _new(self.den, tuple(-n for n in self.nums))

    def __add__(self, other) -> "UniPoly":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, -1)

    def __rsub__(self, other) -> "UniPoly":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return _sum(other, self, -1)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            return _settle(self.den * other.denominator, [n * num for n in self.nums])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.nums or not other.nums:
            return UniPoly.zero()
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    out[i + j] += a * b
        return _settle(self.den * other.den, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "UniPoly":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            raise ZeroDivisionError("division of a polynomial by zero")
        # multiply by the reciprocal, with its sign on the numerator
        num, q = scalar.denominator, scalar.numerator
        if q < 0:
            num, q = -num, -q
        return _settle(self.den * q, [n * num for n in self.nums])

    def __call__(self, value: Scalar) -> Fraction:
        """The value at an ``int`` or ``Fraction``; anything else, a binary
        ``float`` among them, is a ``TypeError``, as in the constructor."""
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"polynomial argument must be an int or Fraction, got {type(value).__name__}")
        acc = 0
        for n in reversed(self.nums):
            acc = acc * value + n
        return Fraction(acc) / self.den

    def derivative(self) -> "UniPoly":
        return _settle(self.den, [i * n for i, n in enumerate(self.nums) if i])

    def antiderivative(self) -> "UniPoly":
        """Antiderivative with zero constant term."""
        nums = self.nums
        scale = lcm(*range(1, len(nums) + 1))
        return _settle(self.den * scale, [0] + [n * (scale // (i + 1)) for i, n in enumerate(nums)])

    def drop_constant(self) -> "UniPoly":
        if not self.nums or not self.nums[0]:
            return self
        return _settle(self.den, [0, *self.nums[1:]])

    def format(self, var: str = "t") -> str:
        nums, den = self.nums, self.den
        return _format_terms((nums[d], den, ((var, d),)) for d in range(len(nums) - 1, -1, -1) if nums[d])

    def __repr__(self) -> str:
        return f"UniPoly({self.format()!r})"
