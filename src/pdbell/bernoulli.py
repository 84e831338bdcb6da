"""Exact Bernoulli numbers, classical and higher order.

``higher_bernoulli(n, r)`` is n! times coefficient n of P = f^-r, where
f = (exp(t) - 1) / t, and ``bernoulli(n)`` is the order r = 1, with the
convention ``bernoulli(1) == -1/2``.  Both are read off one recurrence,
J. C. P. Miller's for a power of a series (Knuth, TAOCP Vol. 2, 4.7):
f * P' = -r * f' * P gives, with f_k = 1/(k + 1)!, in EGF values

    n * (n + 1) * B_n = sum_{j<n} ((r - 1) * j - r * n) * C(n + 1, j) * B_j.

(Knuth's sum over k = n - j.)  At r = 1 it is the classical
sum_{j<=n} C(n + 1, j) * B_j = 0.  The sum runs in integers: the stream
keeps D * B_j, with D the lcm of the denominators so far, and reduces
once per entry.  Each order r has one memo (``sequences._Memo``), the
cached prefix of that stream of reduced Fractions.  The series layer
builds the same numbers as powers of t / (exp(t) - 1), an independent
derivation the checks compare against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import accumulate, count, repeat
from operator import mul
from typing import Iterator

from .sequences import _Memo

__all__ = ["bernoulli", "higher_bernoulli"]

_cache: dict[int, _Memo] = {}


def _stream(r: int) -> Iterator[Fraction]:
    """B_0, B_1, ... of order r by Miller's recurrence (module docstring)."""
    scaled, den = [1], 1  # den * B_j for j < n; den is the lcm of their denominators
    yield Fraction(1)
    for n in count(1):
        # C(n + 1, j) for j < n, one exact step each: far cheaper than math.comb.
        binomials = accumulate(range(1, n), lambda c, j: c * (n + 2 - j) // j, initial=1)
        weights = map(mul, count(-r * n, r - 1), binomials)
        value = Fraction(sum(map(mul, weights, scaled)), den * n * (n + 1))
        lcm = math.lcm(den, value.denominator)
        if lcm != den:
            scaled = list(map(mul, scaled, repeat(lcm // den)))
            den = lcm
        scaled.append(value.numerator * (den // value.denominator))
        yield value


def higher_bernoulli(n: int, r: int) -> Fraction:
    """Order-r Bernoulli number: n! times coefficient n of (t/(exp(t)-1))**r.

    ``higher_bernoulli(n, 0)`` is 1 for n = 0 and 0 otherwise;
    ``higher_bernoulli(n, 1)`` is the classical ``bernoulli(n)``.
    """
    if n < 0 or r < 0:
        raise ValueError(f"n and r must be nonnegative, got n={n}, r={r}")
    memo = _cache.get(r)
    if memo is None:
        # setdefault is one atomic dict operation: racing callers all get
        # the memo that was stored first.
        memo = _cache.setdefault(r, _Memo(partial(_stream, r)))
    return memo.upto(n)[n]


def bernoulli(n: int) -> Fraction:
    """Classical Bernoulli number with bernoulli(1) == -1/2."""
    return higher_bernoulli(n, 1)
