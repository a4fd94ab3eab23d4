"""Exact arithmetic for differential operators with polynomial coefficients.

An element is a finite rational linear combination of normal-ordered
monomials ``x^i * D^j`` where ``D`` is the derivative in ``x`` and the two
generators satisfy ``[D, x] = D*x - x*D = 1``.  Every product is rewritten
back into normal order (coordinate powers to the left of derivative powers)
with the closed-form exchange rule

    D^j * x^i = sum_t  t! * C(j, t) * C(i, t) * x^(i-t) * D^(j-t),

which is what ``_swap_weights`` tabulates.

Coefficients are ``Fraction``s at the API, and ``terms`` is a read-only map
of them.  The product kernel, and the shift and Fourier loops in
``automorphism``, compute on integer numerators over one common denominator
per operand: ``_lift`` scales a term map to integers over the least common
multiple of its denominators, the loop runs on Python integers, and
``_settle`` builds one ``Fraction`` per nonzero output term.

Two independent copies of the algebra are supported, labelled by ``side``:
the ``"x"`` side (printed with ``x``/``D``) and the ``"z"`` side (printed
with ``z``/``Dz``); mixing sides in one operation is an error.

All values are immutable after construction and all operations are pure, so
concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, perm
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Tuple, Union

from .errors import SideMismatchError
from .poly import Scalar, UniPoly

SIDES = ("x", "z")

Key = Tuple[int, int]


@lru_cache(maxsize=None)
def _swap_weights(j: int, i: int) -> tuple:
    """Integer weights for rewriting D^j x^i, indexed by the contraction t."""
    return tuple(perm(i, t) * comb(j, t) for t in range(min(i, j) + 1))


def _lift(terms: Mapping[Key, Fraction], den: Optional[int] = None) -> Tuple[int, list]:
    """``(den, [(key, n), ...])`` with every coefficient equal to ``n / den``.

    ``den`` defaults to the least common multiple of the coefficient
    denominators; a given ``den`` must be a multiple of each of them.
    """
    if den is None:
        den = lcm(*[c.denominator for c in terms.values()])
    return den, [(k, c.numerator * (den // c.denominator)) for k, c in terms.items()]


def _settle(acc: Mapping[Key, int], den: int, side: str) -> "WeylElement":
    """The element with coefficients ``n / den`` for the nonzero ``n`` of ``acc``."""
    el = object.__new__(WeylElement)
    el.side = side
    el.terms = MappingProxyType({k: Fraction(n, den) for k, n in acc.items() if n})
    el._hash = None
    return el


class WeylElement:
    """A normal-ordered operator; the universal operand of the package.

    ``terms`` maps ``(x_exponent, d_exponent)`` pairs to nonzero rational
    coefficients.  The zero element has an empty map, and two elements are
    equal exactly when their sides and term maps agree.
    """

    __slots__ = ("side", "terms", "_hash")

    def __init__(self, terms: Union[Mapping[Key, Scalar], Iterable] = (), side: str = "x"):
        if side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {side!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean = {}
        for key, coeff in items:
            i, j = key
            if not (isinstance(i, int) and isinstance(j, int)) or i < 0 or j < 0:
                raise ValueError(f"exponent pair must be nonnegative integers, got {key!r}")
            c = Fraction(coeff)
            if c:
                clean[(i, j)] = clean[(i, j)] + c if (i, j) in clean else c
        self.side = side
        self.terms = MappingProxyType({k: v for k, v in clean.items() if v})
        self._hash = None

    @classmethod
    def _raw(cls, terms: dict, side: str) -> "WeylElement":
        """Fast path for internal callers holding already-clean Fractions."""
        el = object.__new__(cls)
        el.side = side
        el.terms = MappingProxyType({k: v for k, v in terms.items() if v})
        el._hash = None
        return el

    @classmethod
    def zero(cls, side: str = "x") -> "WeylElement":
        return cls((), side)

    @classmethod
    def one(cls, side: str = "x") -> "WeylElement":
        return cls({(0, 0): 1}, side)

    @classmethod
    def scalar(cls, c: Scalar, side: str = "x") -> "WeylElement":
        return cls({(0, 0): c}, side)

    @classmethod
    def from_x_poly(cls, p: UniPoly, side: str = "x") -> "WeylElement":
        return cls({(i, 0): c for i, c in enumerate(p.coeffs)}, side)

    @classmethod
    def from_d_poly(cls, p: UniPoly, side: str = "x") -> "WeylElement":
        return cls({(0, j): c for j, c in enumerate(p.coeffs)}, side)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("element is not constant")
        return self.terms.get((0, 0), Fraction(0))

    @property
    def order(self) -> int:
        """Maximal derivative exponent; -1 for the zero element."""
        return max((j for _, j in self.terms), default=-1)

    @property
    def x_degree(self) -> int:
        """Maximal coordinate exponent; -1 for the zero element."""
        return max((i for i, _ in self.terms), default=-1)

    def depends_on_x(self) -> bool:
        return self.x_degree > 0

    def depends_on_d(self) -> bool:
        return self.order > 0

    def d_slice(self, j: int) -> UniPoly:
        """Coefficient of D^j, as a polynomial in the coordinate."""
        if j < 0:
            return UniPoly.zero()
        top = max((i for i, jj in self.terms if jj == j), default=-1)
        return UniPoly(tuple(self.terms.get((i, j), 0) for i in range(top + 1)))

    def x_slice(self, i: int) -> UniPoly:
        """Coefficient of x^i, as a polynomial in the derivative."""
        if i < 0:
            return UniPoly.zero()
        top = max((jj for ii, jj in self.terms if ii == i), default=-1)
        return UniPoly(tuple(self.terms.get((i, j), 0) for j in range(top + 1)))

    def to_x_poly(self) -> UniPoly:
        if self.depends_on_d():
            raise ValueError("element depends on the derivative")
        return self.d_slice(0)

    def to_d_poly(self) -> UniPoly:
        if self.depends_on_x():
            raise ValueError("element depends on the coordinate")
        return self.x_slice(0)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return WeylElement.scalar(other, self.side)
        return other

    def _check_side(self, other: "WeylElement"):
        if self.side != other.side:
            raise SideMismatchError(
                f"cannot combine a {self.side}-side element with a {other.side}-side element"
            )

    def __add__(self, other):
        other = self._coerce(other)
        if not isinstance(other, WeylElement):
            return NotImplemented
        self._check_side(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return WeylElement._raw(out, self.side)

    __radd__ = __add__

    def __neg__(self):
        return WeylElement._raw({k: -c for k, c in self.terms.items()}, self.side)

    def __sub__(self, other):
        other = self._coerce(other)
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return WeylElement._raw({k: c * other for k, c in self.terms.items()}, self.side)
        if not isinstance(other, WeylElement):
            return NotImplemented
        self._check_side(other)
        d1, left = _lift(self.terms)
        d2, right = _lift(other.terms)
        out: dict = {}
        get = out.get
        for (i1, j1), n1 in left:
            for (i2, j2), n2 in right:
                n = n1 * n2
                i, j = i1 + i2, j1 + j2
                for t, w in enumerate(_swap_weights(j1, i2)):
                    key = (i - t, j - t)
                    out[key] = get(key, 0) + w * n
        return _settle(out, d1 * d2, self.side)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, scalar):
        s = Fraction(scalar)
        return WeylElement._raw({k: c / s for k, c in self.terms.items()}, self.side)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = WeylElement.one(self.side)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = WeylElement.scalar(other, self.side)
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.side == other.side and dict(self.terms) == dict(other.terms)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.side, tuple(sorted(self.terms.items()))))
        return self._hash

    # ------------------------------------------------------------------
    # printing
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        xs, ds = ("x", "D") if self.side == "x" else ("z", "Dz")
        parts = []
        # leading derivative first, conventional operator notation
        for i, j in sorted(self.terms, key=lambda k: (k[1], k[0]), reverse=True):
            c = self.terms[(i, j)]
            mag = abs(c)
            factors = []
            if i == 1:
                factors.append(xs)
            elif i > 1:
                factors.append(f"{xs}^{i}")
            if j == 1:
                factors.append(ds)
            elif j > 1:
                factors.append(f"{ds}^{j}")
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"WeylElement({str(self)!r}, side={self.side!r})"


def coordinate(side: str = "x") -> WeylElement:
    return WeylElement({(1, 0): 1}, side)


def derivative(side: str = "x") -> WeylElement:
    return WeylElement({(0, 1): 1}, side)


def generators(side: str = "x") -> tuple:
    """The pair (coordinate, derivative) for one side."""
    return coordinate(side), derivative(side)


def normalize_product(a: WeylElement, b: WeylElement) -> WeylElement:
    """Normal-ordered product of two elements of the same side."""
    return a * b


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """a*b - b*a, normal-ordered."""
    return a * b - b * a


def ad_power(op: WeylElement, target: WeylElement, steps: int) -> WeylElement:
    """The ``steps``-fold iterated commutator [op, [op, ... [op, target]]]."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    cur = target
    for _ in range(steps):
        if cur.is_zero():
            return cur
        cur = commutator(op, cur)
    return cur


def poly_at(p: UniPoly, value: WeylElement) -> WeylElement:
    """Evaluate a rational polynomial at an element (Horner scheme)."""
    acc = WeylElement.zero(value.side)
    for c in reversed(p.coeffs):
        acc = acc * value + WeylElement.scalar(c, value.side)
    return acc


@dataclass(frozen=True)
class OperatorProfile:
    """Order plus the two top coefficient polynomials of an operator.

    ``order`` is -1 for the zero element; ``leading`` is the coefficient of
    D^order and ``subleading`` the coefficient of D^(order-1), both as
    polynomials in the coordinate.
    """

    order: int
    leading: UniPoly
    subleading: UniPoly


def profile(e: WeylElement) -> OperatorProfile:
    n = e.order
    if n < 0:
        return OperatorProfile(-1, UniPoly.zero(), UniPoly.zero())
    return OperatorProfile(n, e.d_slice(n), e.d_slice(n - 1))
