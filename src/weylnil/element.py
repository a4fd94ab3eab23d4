"""Exact arithmetic for differential operators with polynomial coefficients.

An element is a finite rational linear combination of normal-ordered
monomials ``x^i * D^j`` where ``D`` is the derivative in ``x`` and the two
generators satisfy ``[D, x] = D*x - x*D = 1``.  Every product is rewritten
back into normal order (coordinate powers to the left of derivative powers)
with the contraction formula

    a * b = sum_t  (1/t!) * (d/dD)^t a * (d/dx)^t b,

whose derivatives act on normal-ordered symbols.  On monomials it reads
``x^i1 D^j1 * x^i2 D^j2 = sum_t C(j1, t) * perm(i2, t) * x^(i1+i2-t)
D^(j1+j2-t)``, so each contraction order ``t`` is one plain commutative
convolution of two weighted term lists, on keys packed into single integers
and already lowered by ``t``.  Each order's lists follow from the previous
order's by one exact integer step per term, so no weight is computed from
scratch and none is kept between calls.  ``_contract`` runs it for both the
product and the bracket, which takes both products from ``t = 1`` on into
one accumulator.  The accumulator is a zero list indexed by the packed key
when the key rectangle has no more slots than the call makes term products,
and a ``defaultdict(int)`` otherwise, so its size is bounded by the work
either way; the result is unpacked and settled once, with no intermediate
pairs.

An element stores integer numerators over one shared denominator: ``nums``
maps ``(i, j)`` to a nonzero ``int`` and the coefficient of ``x^i D^j`` is
``nums[(i, j)] / den``.  The pair is canonical: ``den >= 1`` and
``gcd(den, *nums.values()) == 1``, so ``den`` is the least common multiple
of the reduced coefficient denominators and equal values have equal pairs.
The zero element is ``den == 1`` with no numerators.  Every operation
computes on Python integers over one denominator and settles its result
once: ``_settle`` drops the zeros of its ``(key, numerator)`` pairs and
``_reduce`` divides out one ``gcd``, which ``_contract`` and the shift
substitution call directly on the nonzero numerators they read out; negation, the anti-involution, a parsed monomial
and an element built from a polynomial's pair by ``from_d_poly`` are
canonical as built and go to ``_new``.  The slices ``d_slice`` and
``x_slice`` hand their numerators to the polynomial module's ``_settle``
over the element's ``den``, with no ``Fraction`` in between; ``_row_empty``
and ``_column_empty`` probe the same keys for a check that keeps no
polynomial.  Equality,
hashing and the structural queries read the pair, as other modules do; a
constant element hashes like its ``Fraction`` value.  ``_element`` builds
an element from ``(key, numerator, denominator)`` parts, for the constructor
and the parser.  ``order`` and ``x_degree`` read one shape record, filled in
one pass over the keys on first read; the product, the bracket, the slices
and the shift substitution take their bounds from it.

``str`` and the wire format print from the pair.  ``terms`` is a read-only
map of ``Fraction`` coefficients for readers outside the package, built from
the pair on first read and cached.  The third record filled on first use is
the element's ``decide`` verdict, which only ``decide`` writes; a kept
element keeps its verdict, stage elements included, in memory.

Two independent copies of the algebra are supported, labelled by ``side``:
the ``"x"`` side (printed with ``x``/``D``) and the ``"z"`` side (printed
with ``z``/``Dz``); mixing sides in one operation is an error.

All values are immutable after construction and all operations are pure.
Each record filled on first use is computed from the pair alone, so a race
fills a record twice with equal values, and concurrent use is safe.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, List, Mapping, Tuple, Union

from .errors import SideMismatchError
from .poly import Scalar, UniPoly, _coefficient, _format_terms
from .poly import _settle as _settle_poly

SIDES = ("x", "z")
_SIDE_ELEMENT = {"x": "an x-side element", "z": "a z-side element"}

Key = Tuple[int, int]
# (key, numerator, denominator) of one term
Part = Tuple[Key, int, int]


def _check_side_name(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def _new(side: str, den: int, nums: dict) -> "WeylElement":
    el = object.__new__(WeylElement)
    el.side = side
    el.den = den
    el.nums = nums
    el._terms = None
    el._shape = None
    el._verdict = None
    return el


def _settle(items: Iterable[Tuple[Key, int]], den: int, side: str) -> "WeylElement":
    """The canonical element with coefficients ``n / den`` for the ``(key,
    n)`` pairs of ``items`` (distinct keys, ``den >= 1``), zeros dropped."""
    return _reduce({k: n for k, n in items if n}, den, side)


def _reduce(nums: dict, den: int, side: str) -> "WeylElement":
    """The canonical element with coefficients ``n / den`` for the nonzero
    numerators ``nums`` (``den >= 1``): one ``gcd`` divided out."""
    g = gcd(den, *nums.values())
    if g != 1:
        den //= g
        nums = {k: n // g for k, n in nums.items()}
    return _new(side, den, nums)


def _element(parts: List[Part], side: str) -> "WeylElement":
    """The sum of the terms ``numerator/denominator * x^i D^j`` of ``parts``
    (positive denominators; keys may repeat), as a canonical element."""
    den = lcm(*{d for _, _, d in parts})
    acc: dict = {}
    get = acc.get
    for key, n, d in parts:
        acc[key] = get(key, 0) + n * (den // d)
    return _settle(acc.items(), den, side)


def _sum(a: "WeylElement", b: "WeylElement", sign: int) -> "WeylElement":
    """``a + sign*b`` on the numerators over ``lcm(a.den, b.den)``."""
    den = lcm(a.den, b.den)
    scale_a, scale_b = den // a.den, sign * (den // b.den)
    out = dict(a.nums) if scale_a == 1 else {k: n * scale_a for k, n in a.nums.items()}
    get = out.get
    for k, n in b.nums.items():
        out[k] = get(k, 0) + n * scale_b
    return _settle(out.items(), den, a.side)


def _row_empty(e: "WeylElement", j: int, start: int = 0) -> bool:
    """Whether ``e`` has no term ``x^i D^j`` with ``i >= start``: probes the
    keys of that part of the ``D^j`` row, as ``d_slice`` does, and builds
    no polynomial."""
    return e.nums.keys().isdisjoint(zip(range(start, e.x_degree + 1), repeat(j)))


def _column_empty(e: "WeylElement", i: int, start: int = 0) -> bool:
    """Whether ``e`` has no term ``x^i D^j`` with ``j >= start``, the mirror
    of ``_row_empty`` on the ``x^i`` column."""
    return e.nums.keys().isdisjoint(zip(repeat(i), range(start, e.order + 1)))


def _contract(pairs, low: int) -> "WeylElement":
    """The sum over ``(left, right, sign)`` of ``pairs`` of ``sign`` times
    the contraction terms of ``left * right`` of order ``t >= low``.

    Every pair holds the same two operands of one side, in either order.
    Each key ``(i, j)`` is packed into the integer ``i*m + j``, with ``m``
    the sum of the two orders plus one, above every derivative exponent of
    the result, so the key of a product term is the sum of the two packed
    keys and distinct keys never collide.  Each order ``t`` convolves the
    terms of ``(1/t!) (d/dD)^t left``, with their keys lowered by ``t``, and
    those of ``(d/dx)^t right``.  Each operand's list is built once and
    moved from order ``t - 1`` to ``t`` by ``C(j, t) = C(j, t-1) (j-t+1) /
    t``, with ``j-t+1 = k % m`` on a left key ``k``, and by ``perm(i, t) =
    perm(i, t-1) (i-t+1)``, with ``i-t+1 = k // m`` on a right key; the
    division is exact.

    The lists of every order are built before any is convolved, so the
    number of term products, the sum of their length products, is known
    first.  The convolution adds into a zero list indexed by the packed
    key when the key rectangle, ``(x-degree sum + 1) * m`` slots, is no
    longer than that number, and into a ``defaultdict(int)`` otherwise: the
    list's allocation and its scan never exceed the multiplications made,
    so sparse products such as ``D^4096 * x^4096`` keep the dict.  Each
    order's lists are dropped once convolved.  The sum is unpacked and
    settled once over the product of the denominators: one dict
    comprehension that drops the zeros, then one ``gcd``.  A zero operand
    (order and x-degree -1) takes no order and makes no product, so
    nothing is unpacked when ``m <= 0``.
    """
    a, b, _ = pairs[0]
    m = a.order + b.order + 1
    orders = []
    for left, right, sign in pairs:
        ls = [(i * m + j, sign * n) for (i, j), n in left.nums.items()]
        rs = [(i * m + j, n) for (i, j), n in right.nums.items()]
        for t in range(min(left.order, right.x_degree) + 1):
            if t:
                ls = [(k - 1, n * (k % m) // t) for k, n in ls if k % m]
                rs = [(k - m, n * (k // m)) for k, n in rs if k >= m]
            if t >= low:
                orders.append((ls, rs))
    size = (a.x_degree + b.x_degree + 1) * m
    acc = [0] * size if size <= sum(len(ls) * len(rs) for ls, rs in orders) else defaultdict(int)
    while orders:
        ls, rs = orders.pop()
        for k1, n1 in ls:
            for k2, n2 in rs:
                acc[k1 + k2] += n1 * n2
    keyed = enumerate(acc) if type(acc) is list else acc.items()
    return _reduce({divmod(k, m): n for k, n in keyed if n}, a.den * b.den, a.side)


class WeylElement:
    """A normal-ordered operator; the universal operand of the package.

    ``den`` and ``nums`` are the canonical pair described in the module
    docstring.  ``terms`` maps ``(x_exponent, d_exponent)`` pairs to the
    nonzero ``Fraction`` coefficients.  The zero element has no terms, and
    two elements are equal exactly when their sides and pairs agree.
    """

    __slots__ = ("side", "den", "nums", "_terms", "_shape", "_verdict")

    def __init__(self, terms: Union[Mapping[Key, Scalar], Iterable] = (), side: str = "x"):
        _check_side_name(side)
        items = terms.items() if isinstance(terms, Mapping) else terms
        parts = []
        for key, coeff in items:
            i, j = key
            # bool is an int subclass, so test the exact type
            if not (type(i) is int and type(j) is int) or i < 0 or j < 0:
                raise ValueError(f"exponent pair must be nonnegative integers, got {key!r}")
            c = _coefficient(coeff)
            parts.append(((i, j), c.numerator, c.denominator))
        built = _element(parts, side)
        self.side = side
        self.den, self.nums = built.den, built.nums
        self._terms = None
        self._shape = None
        self._verdict = None

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
    def from_d_poly(cls, p: UniPoly, side: str = "x") -> "WeylElement":
        # a canonical polynomial pair is a canonical element pair
        _check_side_name(side)
        return _new(side, p.den, {(0, j): n for j, n in enumerate(p.nums) if n})

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def terms(self) -> Mapping[Key, Fraction]:
        """Read-only map of the nonzero ``Fraction`` coefficients."""
        if self._terms is None:
            den = self.den
            self._terms = MappingProxyType({k: Fraction(n, den) for k, n in self.nums.items()})
        return self._terms

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return max(self._dims()) <= 0

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("element is not constant")
        return Fraction(self.nums.get((0, 0), 0), self.den)

    def _dims(self) -> Tuple[int, int]:
        """``(x_degree, order)``, from one pass over the keys on first read."""
        if self._shape is None:
            if self.nums:
                xs, js = zip(*self.nums)
                self._shape = (max(xs), max(js))
            else:
                self._shape = (-1, -1)
        return self._shape

    @property
    def order(self) -> int:
        """Maximal derivative exponent; -1 for the zero element."""
        return self._dims()[1]

    @property
    def x_degree(self) -> int:
        """Maximal coordinate exponent; -1 for the zero element."""
        return self._dims()[0]

    def depends_on_x(self) -> bool:
        return self.x_degree > 0

    def depends_on_d(self) -> bool:
        return self.order > 0

    def d_slice(self, j: int) -> UniPoly:
        """Coefficient of D^j, as a polynomial in the coordinate."""
        x_deg, order = self._dims()
        if not 0 <= j <= order:
            return UniPoly.zero()
        get = self.nums.get
        return _settle_poly(self.den, [get((i, j), 0) for i in range(x_deg + 1)])

    def x_slice(self, i: int) -> UniPoly:
        """Coefficient of x^i, as a polynomial in the derivative."""
        x_deg, order = self._dims()
        if not 0 <= i <= x_deg:
            return UniPoly.zero()
        get = self.nums.get
        return _settle_poly(self.den, [get((i, j), 0) for j in range(order + 1)])

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
                f"cannot combine {_SIDE_ELEMENT[self.side]} with {_SIDE_ELEMENT[other.side]}"
            )

    def __add__(self, other):
        other = self._coerce(other)
        if not isinstance(other, WeylElement):
            return NotImplemented
        self._check_side(other)
        return _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.side, self.den, {k: -n for k, n in self.nums.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if not isinstance(other, WeylElement):
            return NotImplemented
        self._check_side(other)
        return _sum(self, other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if not isinstance(other, WeylElement):
            return NotImplemented
        return _sum(other, self, -1)

    def _scaled(self, num: int, den: int) -> "WeylElement":
        """``self * num/den`` for integers with ``den != 0``, settled once."""
        if den < 0:
            num, den = -num, -den
        return _settle(((k, n * num) for k, n in self.nums.items()), self.den * den, self.side)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, WeylElement):
            return NotImplemented
        self._check_side(other)
        return _contract(((self, other, 1),), 0)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        return NotImplemented

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            raise ZeroDivisionError("division of an element by zero")
        return self._scaled(scalar.denominator, scalar.numerator)

    def __pow__(self, n: int):
        # products by the small base cost far less than squares of large powers
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = WeylElement.one(self.side)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = WeylElement.scalar(other, self.side)
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.side == other.side and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        # a constant equals its Fraction value, so it hashes like it
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.side, self.den, frozenset(self.nums.items())))

    # ------------------------------------------------------------------
    # printing
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        nums, den = self.nums, self.den
        xs, ds = ("x", "D") if self.side == "x" else ("z", "Dz")
        # leading derivative first, conventional operator notation
        keys = sorted(nums, key=lambda k: (k[1], k[0]), reverse=True)
        return _format_terms((nums[k], den, ((xs, k[0]), (ds, k[1]))) for k in keys)

    def __repr__(self) -> str:
        return f"WeylElement({str(self)!r}, side={self.side!r})"


def coordinate(side: str = "x") -> WeylElement:
    return WeylElement({(1, 0): 1}, side)


def derivative(side: str = "x") -> WeylElement:
    return WeylElement({(0, 1): 1}, side)


def generators(side: str = "x") -> tuple:
    """The pair (coordinate, derivative) for one side."""
    return coordinate(side), derivative(side)


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """a*b - b*a, normal-ordered.

    The contraction-free (``t = 0``) terms of the two products agree and
    cancel, so both products are taken from ``t = 1`` on, the second with
    sign -1, into one accumulator that is settled once.
    """
    a._check_side(b)
    return _contract(((a, b, 1), (b, a, -1)), 1)


def ccr_check(a: WeylElement, b: WeylElement) -> bool:
    """Exact test of the commutation identity [a, b] == 1."""
    return commutator(a, b) == WeylElement.one(a.side)


def poly_at(p: UniPoly, value: WeylElement) -> WeylElement:
    """Evaluate a rational polynomial at an element: Horner's rule on the
    integer numerators, then one division by the shared denominator."""
    acc = WeylElement.zero(value.side)
    for n in reversed(p.nums):
        acc = acc * value + n
    return acc / p.den

