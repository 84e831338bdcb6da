"""Truncated formal power series with exact rational coefficients.

A ``TruncatedSeries`` of order N stands for sum c_n t^n, n = 0..N.  The
generating functions built here are exponential ones, so it stores the
EGF-scaled values A_n = n!·c_n, which are the sequence itself: integer
numerators ``_num`` over one positive common denominator ``_den`` (1 unless
some value is not an integer, as for Bernoulli numbers and rational
arguments), A_n = ``_num[n] / _den``, in lowest terms.  ``egf_coeff(n)``
returns A_n, an ``int`` when it is integral; ``coeff(n)`` and
``coefficients`` divide by n! and return ``Fraction``s.

In EGF values a product is the binomial convolution
C_m = sum_k C(m,k) A_k B_{m-k}; exp is the division-free recurrence
B_m = sum_{k>=1} C(m-1,k-1) A_k B_{m-k}; and a quotient Q = A / B solves
A_m = sum_k C(m,k) Q_k B_{m-k}, dividing only by B_0.  Each coefficient is
one C-level dot product of numerators over a Pascal row rolled from the
previous one.  A product is its numerators' convolution over the product of
the two denominators; exp and division keep the values they have produced
as numerators over a running common denominator, at the cost of one exact
division per value.  Every result is brought to lowest terms by one gcd.

Binary operations truncate to the smaller order of the two operands and
never read coefficients beyond it.  Asking for a coefficient beyond the
truncation order is an error, not a zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from operator import add, mul
from typing import Iterable, Iterator, Union

__all__ = [
    "TruncatedSeries",
    "SeriesDivisionError",
    "SeriesExpError",
    "expm1",
    "egf_pdb",
    "egf_family",
    "EGF_FAMILIES",
]

Rational = Union[int, Fraction]


class SeriesDivisionError(ArithmeticError):
    """Division by a series whose constant term is zero."""


class SeriesExpError(ArithmeticError):
    """exp() applied to a series whose constant term is nonzero."""


def _exact(num: int, den: int) -> Rational:
    """num / den as an int when den divides num, else as a reduced Fraction."""
    if den == 1:
        return num
    q, rem = divmod(num, den)
    return Fraction(num, den) if rem else q


def _push(nums: list[int], den: int, value: Rational) -> int:
    """Append ``value`` to the numerators ``nums`` over the common denominator
    ``den``, rescaling them if ``value`` needs a larger one; return it."""
    vden = value.denominator
    if den % vden:
        grown = math.lcm(den, vden)
        factor = grown // den
        nums[:] = [x * factor for x in nums]
        den = grown
    nums.append(value.numerator * (den // vden))
    return den


def _pascal_rows() -> Iterator[list[int]]:
    """Pascal rows 0, 1, 2, ... without end, each rolled from the one before."""
    row = [1]
    while True:
        yield row
        row = [1, *map(add, row, row[1:]), 1]


class TruncatedSeries:
    """Immutable truncated power series over exact rationals."""

    __slots__ = ("_num", "_den", "_order")

    def __init__(self, coefficients: Iterable[Rational], order: int | None = None):
        coeffs = [Fraction(c) for c in coefficients]
        if order is None:
            if not coeffs:
                raise ValueError("order is required for an empty coefficient list")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        egf = [c * math.factorial(n) for n, c in enumerate(coeffs[: order + 1])]
        # The lcm of reduced denominators is already the smallest common one.
        den = math.lcm(*(a.denominator for a in egf))
        num = [a.numerator * (den // a.denominator) for a in egf]
        num.extend([0] * (order + 1 - len(num)))
        self._num = tuple(num)
        self._den = den
        self._order = order

    @classmethod
    def _from_egf(cls, num: Iterable[int], den: int, order: int) -> "TruncatedSeries":
        """A series from order + 1 EGF numerators over the positive ``den``,
        brought to lowest terms."""
        s = object.__new__(cls)
        num = tuple(num)
        g = math.gcd(den, *num)
        s._num = num if g == 1 else tuple([x // g for x in num])
        s._den = den // g
        s._order = order
        return s

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1], order)

    @classmethod
    def t(cls, order: int) -> "TruncatedSeries":
        """The monomial t."""
        return cls([0, 1], order)

    @classmethod
    def from_constant(cls, c: Rational, order: int) -> "TruncatedSeries":
        return cls([c], order)

    @property
    def order(self) -> int:
        return self._order

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(a, den * math.factorial(n)) for n, a in enumerate(self._num))

    def _check_index(self, n: int) -> None:
        if n < 0 or n > self._order:
            raise ValueError(
                f"coefficient index {n} outside truncation order {self._order}"
            )

    def coeff(self, n: int) -> Fraction:
        """Coefficient of t**n; n beyond the truncation order is an error."""
        self._check_index(n)
        return Fraction(self._num[n], self._den * math.factorial(n))

    def egf_coeff(self, n: int) -> Rational:
        """n! times the coefficient of t**n, an int when integral."""
        self._check_index(n)
        return _exact(self._num[n], self._den)

    def _common_order(self, other: "TruncatedSeries") -> int:
        return min(self._order, other._order)

    def _plus(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        """self + sign * other, both numerators rescaled to the lcm denominator."""
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        n = self._common_order(other)
        return self._from_egf([fa * x + fb * y for x, y in zip(self._num, other._num)], den, n)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self) -> "TruncatedSeries":
        return self._from_egf([-x for x in self._num], self._den, self._order)

    def scale(self, c: Rational) -> "TruncatedSeries":
        c = Fraction(c)
        k = c.numerator
        return self._from_egf([k * x for x in self._num], self._den * c.denominator, self._order)

    def shift(self, r: int) -> "TruncatedSeries":
        """Multiply by t**r, truncating at the same order."""
        if r < 0:
            raise ValueError(f"r must be nonnegative, got {r}")
        n = self._order
        shifted = [math.perm(m, r) * self._num[m - r] for m in range(r, n + 1)]
        return self._from_egf([0] * min(r, n + 1) + shifted, self._den, n)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common_order(other)
        a, b = self._num, other._num
        out = []
        for m, row in zip(range(n + 1), _pascal_rows()):
            # sum over k of C(m,k) * a_k * b_{m-k}
            out.append(sum(map(mul, map(mul, row, a), b[m::-1])))
        return self._from_egf(out, self._den * other._den, n)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common_order(other)
        a, da = self._num, self._den
        b, db = other._num, other._den
        if b[0] == 0:
            raise SeriesDivisionError(
                "cannot divide by a series with zero constant term"
            )
        # With A = a/da, B = b/db and the quotient so far Q_k = p_k/d:
        # Q_m = (A_m - sum_{k<m} C(m,k) Q_k B_{m-k}) / B_0
        #     = (a_m*d*db - s*da) / (da*d*b_0),  s = sum_{k<m} C(m,k) p_k b_{m-k}.
        p: list[int] = []
        d = 1
        for m, row in zip(range(n + 1), _pascal_rows()):
            s = sum(map(mul, map(mul, row, p), b[m:0:-1]))
            d = _push(p, d, _exact(a[m] * d * db - s * da, da * d * b[0]))
        return self._from_egf(p, d, n)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, by the derivative recurrence."""
        if self._num[0] != 0:
            raise SeriesExpError(
                f"exp requires a zero constant term, got {self.egf_coeff(0)}"
            )
        n = self._order
        a, den = self._num[1:], self._den
        # With A = a/den and the values so far B_j = p_j/d:
        # B_m = sum_{k=1..m} C(m-1,k-1) A_k B_{m-k} = s / (den*d).
        p = [1]
        d = 1
        for row in islice(_pascal_rows(), n):
            d = _push(p, d, _exact(sum(map(mul, map(mul, row, a), reversed(p))), den * d))
        return self._from_egf(p, d, n)

    def pow(self, k: int) -> "TruncatedSeries":
        """Integer power by binary exponentiation, truncated at this order."""
        if k < 0:
            raise ValueError(f"k must be nonnegative, got {k}")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return TruncatedSeries.one(self._order) if result is None else result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self._order, self._den, self._num) == (other._order, other._den, other._num)

    def __hash__(self) -> int:
        return hash((self._order, self._den, self._num))

    def __repr__(self) -> str:
        shown = ", ".join(str(self.coeff(n)) for n in range(min(8, self._order + 1)))
        if self._order >= 8:
            shown += ", ..."
        return f"TruncatedSeries([{shown}], order={self._order})"


def expm1(order: int) -> TruncatedSeries:
    """The series exp(t) - 1 to the given order: every EGF value past the
    first is 1."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    return TruncatedSeries._from_egf([0] + [1] * order, 1, order)


def _deranged(v: TruncatedSeries, r: int = 0) -> TruncatedSeries:
    """v**r / r! * exp(-v) / (1 - v): the partial-derangement series at v."""
    tail = (-v).exp() / (TruncatedSeries.one(v.order) - v)
    return tail if r == 0 else v.pow(r).scale(Fraction(1, math.factorial(r))) * tail


def egf_pdb(r: int, y: Rational, order: int) -> TruncatedSeries:
    """Exponential generating series of the deranged-block polynomials.

    With u = exp(t) - 1 the series is (y*u)**r / r! * exp(-y*u) / (1 - y*u);
    n! times coefficient n equals ``pdb_poly(n, r)`` evaluated at y.
    """
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    return _deranged(expm1(order).scale(y), r)


EGF_FAMILIES = (
    "partial_derangement",
    "ordered_bell",
    "deranged_bell",
    "stirling_column",
    "higher_bernoulli",
)


def bernoulli_base_series(order: int) -> TruncatedSeries:
    """The series t / (exp(t) - 1), built as the inverse of sum t^n/(n+1)!."""
    ratio = TruncatedSeries(
        [Fraction(1, math.factorial(n + 1)) for n in range(order + 1)], order
    )
    return TruncatedSeries.one(order) / ratio


def egf_family(family: str, order: int, param: int | None = None) -> TruncatedSeries:
    """Build a named exponential generating series.

    ``partial_derangement``, ``stirling_column``, and ``higher_bernoulli``
    take an integer ``param`` (the fixed-point count r, the column k, and the
    power r respectively); the other families take none.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if family == "partial_derangement":
        r = _required_param(family, param)
        return _deranged(TruncatedSeries.t(order)).shift(r).scale(Fraction(1, math.factorial(r)))
    if family == "ordered_bell":
        one = TruncatedSeries.one(order)
        return one / (one - expm1(order))
    if family == "deranged_bell":
        return _deranged(expm1(order))
    if family == "stirling_column":
        k = _required_param(family, param)
        return expm1(order).pow(k).scale(Fraction(1, math.factorial(k)))
    if family == "higher_bernoulli":
        r = _required_param(family, param)
        return bernoulli_base_series(order).pow(r)
    raise ValueError(f"unknown generating-series family: {family!r}")


def _required_param(family: str, param: int | None) -> int:
    if param is None:
        raise ValueError(f"family {family!r} requires an integer parameter")
    if param < 0:
        raise ValueError(f"parameter for {family!r} must be nonnegative, got {param}")
    return param
