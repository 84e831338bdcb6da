"""Dense integer polynomials in one variable plus the partition polynomial
families built on the sequence kernels.

``IntPolynomial`` is immutable and always canonical: trailing zero
coefficients are stripped, so equality is plain coefficient equality.  The
zero polynomial has an empty coefficient tuple and degree -1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat, starmap, zip_longest
from operator import add, mul, neg, sub
from typing import Iterable, Iterator, Union

from . import sequences as seq

__all__ = [
    "IntPolynomial",
    "weighted_sum",
    "exponential_poly",
    "r_exponential_poly",
    "geometric_poly",
    "pdb_poly",
    "pdb_poly_rows",
]

Scalar = Union[int, Fraction]


class IntPolynomial:
    """Polynomial with integer coefficients, stored lowest degree first."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[int] = ()) -> None:
        coeffs = list(coefficients)
        if not all(map(isinstance, coeffs, repeat(int))):
            bad = next(c for c in coeffs if not isinstance(c, int))
            raise TypeError(f"integer coefficient expected, got {bad!r}")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @classmethod
    def _of(cls, coeffs: list[int]) -> "IntPolynomial":
        """The polynomial of ``coeffs``, a list of ints that it strips in place.

        No coefficient is type-checked: only results that are ints by
        construction come here, while input from outside the class (the
        public constructor, the sequence kernels) goes through ``__init__``.
        """
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        p = object.__new__(cls)
        p._coeffs = tuple(coeffs)
        return p

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, k: int) -> int:
        """Coefficient of y**k (0 beyond the degree)."""
        seq._require_nonnegative(k=k)
        return self._coeffs[k] if k < len(self._coeffs) else 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        pairs = zip_longest(self._coeffs, other._coeffs, fillvalue=0)
        return self._of(list(starmap(add, pairs)))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        pairs = zip_longest(self._coeffs, other._coeffs, fillvalue=0)
        return self._of(list(starmap(sub, pairs)))

    def __neg__(self) -> "IntPolynomial":
        return self._of(list(map(neg, self._coeffs)))

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return self._of([other * c for c in self._coeffs] if other else [])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        # With a zero factor, out is too short (or empty) and stays all zeros.
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return self._of(out)

    def __rmul__(self, other: int) -> "IntPolynomial":
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def evaluate(self, x: Scalar) -> Scalar:
        """Value at x by Horner's rule; exact for int or Fraction input.

        The rule runs on integers, sum_k c_k * a^k * b^(d-k) at x = a/b (b = 1
        at an int), and one Fraction is built at the end, over b^d: an int at
        an int and for the zero polynomial, a Fraction otherwise.  Any other
        argument raises TypeError.
        """
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"int or Fraction expected, got {type(x).__name__}")
        a, b = x.numerator, x.denominator
        acc, power = 0, 1
        for c in reversed(self._coeffs):
            acc = acc * a + c * power
            power *= b
        return Fraction(acc, power // b) if isinstance(x, Fraction) and self._coeffs else acc

    def reflected(self) -> "IntPolynomial":
        """The polynomial p(-y): odd coefficients change sign."""
        out = list(self._coeffs)
        out[1::2] = map(neg, out[1::2])
        return self._of(out)

    def scale_variable(self, c: int) -> "IntPolynomial":
        """The polynomial p(c*y): coefficient k is multiplied by c**k."""
        out = []
        power = 1
        for a in self._coeffs:
            out.append(a * power)
            power *= c
        return self._of(out)

    def times_y_power(self, r: int) -> "IntPolynomial":
        """Multiply by y**r."""
        seq._require_nonnegative(r=r)
        if self.is_zero():
            return self
        return self._of([0] * r + list(self._coeffs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                var = "y" if k == 1 else f"y^{k}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def weighted_sum(pairs: Iterable[tuple[int, IntPolynomial]]) -> IntPolynomial:
    """The polynomial sum of w*p over (w, p) pairs with integer weights w.

    The terms are accumulated in one coefficient list, so no polynomial is
    built per term; zero weights and zero coefficients are skipped.  A
    weight that is not an int raises TypeError: the coefficients of every p
    are ints, so checking each weight keeps the sum integral.
    """
    out: list[int] = []
    for w, p in pairs:
        if not w:
            continue
        if not isinstance(w, int):
            raise TypeError(f"integer coefficient expected, got {w!r}")
        coeffs = p._coeffs
        if len(coeffs) > len(out):
            out.extend(repeat(0, len(coeffs) - len(out)))
        for k, c in enumerate(coeffs):
            if c:
                out[k] += w * c
    return IntPolynomial._of(out)


# Constructors stay cached for library callers, who ask for rows repeatedly
# (IntPolynomial is immutable), and for perfbench's cache_info() counters.


@lru_cache(maxsize=4096)
def exponential_poly(n: int) -> IntPolynomial:
    """Partition polynomial: coefficient of y**k is stirling2(n, k)."""
    seq._require_nonnegative(n=n)
    return IntPolynomial(seq.stirling2_row(n))


@lru_cache(maxsize=4096)
def r_exponential_poly(n: int, r: int) -> IntPolynomial:
    """Restricted partition polynomial.

    Coefficient of y**k is ``r_stirling2(n + r, k + r, r)``, so the constant
    term counts partitions where the r seed elements absorb everything.
    """
    seq._require_nonnegative(n=n, r=r)
    return IntPolynomial([seq.r_stirling2(n + r, k + r, r) for k in range(n + 1)])


@lru_cache(maxsize=4096)
def geometric_poly(n: int) -> IntPolynomial:
    """Ordered partition polynomial: coefficient of y**k is stirling2(n, k)*k!."""
    seq._require_nonnegative(n=n)
    factorials = accumulate(range(1, n + 1), mul, initial=1)
    return IntPolynomial(map(mul, seq.stirling2_row(n), factorials))


@lru_cache(maxsize=4096)
def pdb_poly(n: int, r: int) -> IntPolynomial:
    """Deranged-block polynomial.

    Coefficient of y**k is ``stirling2(n, k) * partial_derangement(k, r)``;
    evaluating at y = 1 gives ``pdb_number(n, r)`` and summing over r gives
    ``geometric_poly(n)``.
    """
    seq._require_nonnegative(n=n, r=r)
    if r > n:
        return IntPolynomial([])
    return _pdb_poly_of(seq.stirling2_row(n), r)


_CACHED = (exponential_poly, r_exponential_poly, geometric_poly, pdb_poly)


def _clear_caches() -> None:
    """Empty the four caches above, as checks.check() and run_all() do first.
    ``_CACHED`` holds them as defined, so rebinding a name hides no cache."""
    for constructor in _CACHED:
        constructor.cache_clear()


def pdb_poly_rows(max_n: int, first: int = 0) -> Iterator[list[IntPolynomial]]:
    """Rows [pdb_poly(n, r) for r = 0..n] for n = first..max_n in turn, each
    read off its row of ``stirling2_rows``: they fill no Stirling memo and
    no ``pdb_poly`` cache, and keep one Stirling row at a time."""
    rows = seq.stirling2_rows(max_n, first)
    return ([_pdb_poly_of(s, r) for r in range(len(s))] for s in rows)


def _pdb_poly_of(s: list[int], r: int) -> IntPolynomial:
    """pdb_poly(n, r) for r <= n, read off the Stirling row s of n."""
    col = seq.partial_derangement_column(r, len(s) - 1)
    return IntPolynomial([0] * r + list(map(mul, s[r:], col)))
