"""Exact Bernoulli numbers, classical and higher order.

Both are read off the powers of t / (exp(t) - 1), so there is a single
source of truth: ``bernoulli(n)`` is the first power and uses the convention
``bernoulli(1) == -1/2``.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from . import series as ser

__all__ = ["bernoulli", "higher_bernoulli"]

_cache: dict[int, ser.TruncatedSeries] = {}
_cache_lock = threading.Lock()


def _power_series(r: int, order: int) -> ser.TruncatedSeries:
    cached = _cache.get(r)
    if cached is not None and cached.order >= order:
        return cached
    with _cache_lock:
        cached = _cache.get(r)
        if cached is None or cached.order < order:
            # Grow at least by doubling, so an ascending scan of scalar
            # queries builds O(log n) series, not one per block.
            target = max(16, order, 2 * cached.order if cached is not None else 0)
            cached = ser.egf_family("higher_bernoulli", target, r)
            _cache[r] = cached
    return cached


def higher_bernoulli(n: int, r: int) -> Fraction:
    """Order-r Bernoulli number: n! times coefficient n of (t/(exp(t)-1))**r.

    ``higher_bernoulli(n, 0)`` is 1 for n = 0 and 0 otherwise;
    ``higher_bernoulli(n, 1)`` is the classical ``bernoulli(n)``.
    """
    if n < 0 or r < 0:
        raise ValueError(f"n and r must be nonnegative, got n={n}, r={r}")
    return Fraction(_power_series(r, n).egf_coeff(n))


def bernoulli(n: int) -> Fraction:
    """Classical Bernoulli number with bernoulli(1) == -1/2."""
    return higher_bernoulli(n, 1)
