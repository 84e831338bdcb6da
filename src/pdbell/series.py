"""Truncated formal power series with exact rational coefficients.

A ``TruncatedSeries`` of order N stands for sum c_n t^n, n = 0..N, and
stores the EGF-scaled values A_n = n!·c_n: an ``int`` when A_n is integral,
a ``Fraction`` only otherwise.  The generating functions built here are
exponential ones, so the store holds the sequence itself (rational only for
Bernoulli numbers and rational arguments): ``egf_coeff(n)`` reads A_n
straight from it, while ``coeff(n)`` and ``coefficients`` divide by n! and
return ``Fraction``s.

In EGF values a product is the binomial convolution
C_m = sum_k C(m,k) A_k B_{m-k}; exp is the division-free recurrence
B_m = sum_{k>=1} C(m-1,k-1) A_k B_{m-k}; and a quotient Q = A / B solves
A_m = sum_k C(m,k) Q_k B_{m-k}, dividing only by B_0.  Each coefficient is
one C-level dot product over a Pascal row rolled from the previous one.  An
operand with ``Fraction`` values is first brought to integer numerators
over the lcm of its denominators; exp and division keep the values they
have produced as numerators over a running common denominator.  Either way
a result coefficient costs at most one exact division.

Binary operations truncate to the smaller order of the two operands and
never read coefficients beyond it.  Asking for a coefficient beyond the
truncation order is an error, not a zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterable, Sequence, Union

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


def _normal(value: Rational) -> Rational:
    """An integral Fraction as an int; anything else unchanged."""
    return value.numerator if value.denominator == 1 else value


def _over_lcm(values: Sequence[Rational]) -> tuple[Sequence[int], int]:
    """Integer numerators of ``values`` over the lcm of their denominators."""
    den = math.lcm(*(v.denominator for v in values))
    if den == 1:
        return values, 1
    return [v.numerator * (den // v.denominator) for v in values], den


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


def _next_row(row: list[int]) -> list[int]:
    """Pascal row m + 1 from row m."""
    return [1, *map(add, row, row[1:]), 1]


class TruncatedSeries:
    """Immutable truncated power series over exact rationals."""

    __slots__ = ("_egf", "_order")

    def __init__(self, coefficients: Iterable[Rational], order: int | None = None):
        coeffs = [Fraction(c) for c in coefficients]
        if order is None:
            if not coeffs:
                raise ValueError("order is required for an empty coefficient list")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        egf = [
            _exact(c.numerator * math.factorial(n), c.denominator)
            for n, c in enumerate(coeffs[: order + 1])
        ]
        egf.extend([0] * (order + 1 - len(egf)))
        self._egf = tuple(egf)
        self._order = order

    @classmethod
    def _from_egf(cls, egf: Iterable[Rational], order: int) -> "TruncatedSeries":
        """A series from order + 1 EGF values, already ints where integral."""
        s = object.__new__(cls)
        s._egf = tuple(egf)
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
        return tuple(Fraction(a, math.factorial(n)) for n, a in enumerate(self._egf))

    def _check_index(self, n: int) -> None:
        if n < 0 or n > self._order:
            raise ValueError(
                f"coefficient index {n} outside truncation order {self._order}"
            )

    def coeff(self, n: int) -> Fraction:
        """Coefficient of t**n; n beyond the truncation order is an error."""
        self._check_index(n)
        return Fraction(self._egf[n], math.factorial(n))

    def egf_coeff(self, n: int) -> Rational:
        """n! times the coefficient of t**n, an int when integral."""
        self._check_index(n)
        return self._egf[n]

    def _common_order(self, other: "TruncatedSeries") -> int:
        return min(self._order, other._order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common_order(other)
        return self._from_egf(map(_normal, map(add, self._egf, other._egf)), n)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common_order(other)
        return self._from_egf(map(_normal, map(sub, self._egf, other._egf)), n)

    def __neg__(self) -> "TruncatedSeries":
        return self._from_egf([-a for a in self._egf], self._order)

    def scale(self, c: Rational) -> "TruncatedSeries":
        c = Fraction(c)
        return self._from_egf([_normal(c * a) for a in self._egf], self._order)

    def shift(self, r: int) -> "TruncatedSeries":
        """Multiply by t**r, truncating at the same order."""
        if r < 0:
            raise ValueError(f"r must be nonnegative, got {r}")
        n = self._order
        shifted = [_normal(math.perm(m, r) * self._egf[m - r]) for m in range(r, n + 1)]
        return self._from_egf([0] * min(r, n + 1) + shifted, n)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common_order(other)
        a, da = _over_lcm(self._egf[: n + 1])
        b, db = _over_lcm(other._egf[: n + 1])
        den = da * db
        out = []
        row = [1]
        for m in range(n + 1):
            if m:
                row = _next_row(row)
            # sum over k of C(m,k) * a_k * b_{m-k}
            out.append(_exact(sum(map(mul, map(mul, row, a), b[m::-1])), den))
        return self._from_egf(out, n)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common_order(other)
        if other._egf[0] == 0:
            raise SeriesDivisionError(
                "cannot divide by a series with zero constant term"
            )
        a, da = _over_lcm(self._egf[: n + 1])
        b, db = _over_lcm(other._egf[: n + 1])
        # With A = a/da, B = b/db and the quotient so far Q_k = p_k/d:
        # Q_m = (A_m - sum_{k<m} C(m,k) Q_k B_{m-k}) / B_0
        #     = (a_m*d*db - s*da) / (da*d*b_0),  s = sum_{k<m} C(m,k) p_k b_{m-k}.
        out: list[Rational] = []
        p: list[int] = []
        d = 1
        row = [1]
        for m in range(n + 1):
            if m:
                row = _next_row(row)
            s = sum(map(mul, map(mul, row, p), b[m:0:-1]))
            value = _exact(a[m] * d * db - s * da, da * d * b[0])
            out.append(value)
            d = _push(p, d, value)
        return self._from_egf(out, n)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, by the derivative recurrence."""
        if self._egf[0] != 0:
            raise SeriesExpError(
                f"exp requires a zero constant term, got {self._egf[0]}"
            )
        n = self._order
        a, den = _over_lcm(self._egf)
        a = a[1:]
        # With A = a/den and the values so far B_j = p_j/d:
        # B_m = sum_{k=1..m} C(m-1,k-1) A_k B_{m-k} = s / (den*d).
        out: list[Rational] = [1]
        p = [1]
        d = 1
        row = [1]
        for m in range(1, n + 1):
            if m > 1:
                row = _next_row(row)
            value = _exact(sum(map(mul, map(mul, row, a), reversed(p))), den * d)
            out.append(value)
            d = _push(p, d, value)
        return self._from_egf(out, n)

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
        return self._order == other._order and self._egf == other._egf

    def __hash__(self) -> int:
        return hash((self._order, self._egf))

    def __repr__(self) -> str:
        shown = ", ".join(str(self.coeff(n)) for n in range(min(8, self._order + 1)))
        if self._order >= 8:
            shown += ", ..."
        return f"TruncatedSeries([{shown}], order={self._order})"


def expm1(order: int) -> TruncatedSeries:
    """The series exp(t) - 1 to the given order."""
    return TruncatedSeries.t(order).exp() - TruncatedSeries.one(order)


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
        return _deranged(TruncatedSeries.t(order), _required_param(family, param))
    if family == "ordered_bell":
        exp_t = TruncatedSeries.t(order).exp()
        return TruncatedSeries.one(order) / (TruncatedSeries.from_constant(2, order) - exp_t)
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
