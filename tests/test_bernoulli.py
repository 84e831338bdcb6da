"""Exact rational Bernoulli numbers, plain and higher order."""

import math
import sys
from fractions import Fraction

import pytest

from pdbell.bernoulli import bernoulli, higher_bernoulli
from pdbell.series import egf_family


def _base_coefficients(order):
    """Coefficients of t/(exp(t)-1) to the given order, by direct inversion.

    Independent of the package's series engine: solves
    (sum_{m} t^m/(m+1)!) * (sum_n c_n t^n) = 1 term by term.
    """
    out = []
    for n in range(order + 1):
        acc = Fraction(1) if n == 0 else Fraction(0)
        for i in range(1, n + 1):
            acc -= Fraction(1, math.factorial(i + 1)) * out[n - i]
        out.append(acc)
    return out


def _cauchy_power(base, r, order):
    """r-fold repeated Cauchy product of a coefficient list."""
    acc = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(r):
        nxt = [Fraction(0)] * (order + 1)
        for i, a in enumerate(acc):
            if a == 0:
                continue
            for j in range(order + 1 - i):
                if base[j]:
                    nxt[i + j] += a * base[j]
        acc = nxt
    return acc


def test_higher_bernoulli_obeys_norlund_recurrence():
    # B_n^(r+1) = (1 - n/r) * B_n^(r) - n * B_(n-1)^(r), from differentiating
    # (t/(e^t - 1))^r; it ties consecutive powers of the series together.
    for r in range(1, 7):
        for n in range(1, 61):
            expected = (1 - Fraction(n, r)) * higher_bernoulli(n, r) - n * higher_bernoulli(
                n - 1, r
            )
            assert higher_bernoulli(n, r + 1) == expected, (n, r)


def test_bernoulli_frozen():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(10) == Fraction(5, 66)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_odd_bernoulli_vanish():
    for n in range(3, 31, 2):
        assert bernoulli(n) == 0


def test_binomial_recurrence_to_30():
    for n in range(1, 31):
        assert sum(math.comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) == 0


def test_first_order_reduction_to_30():
    for n in range(31):
        assert higher_bernoulli(n, 1) == bernoulli(n)


def test_higher_order_frozen():
    assert higher_bernoulli(2, 2) == Fraction(5, 6)
    for r in range(8):
        assert higher_bernoulli(0, r) == 1
        if r >= 1:
            assert higher_bernoulli(1, r) == Fraction(-r, 2)
    for n in range(1, 8):
        assert higher_bernoulli(n, 0) == 0


def test_higher_order_matches_repeated_cauchy_products():
    order = 20
    base = _base_coefficients(order)
    for r in range(7):
        power = _cauchy_power(base, r, order)
        for n in range(order + 1):
            assert higher_bernoulli(n, r) == math.factorial(n) * power[n]


def test_ascending_scan_runs_the_stream_once(monkeypatch):
    # ``pdbell.bernoulli`` is the re-exported function, so reach the module
    # through sys.modules.
    module = sys.modules["pdbell.bernoulli"]
    stream = module._stream
    runs = []

    def counting_stream(r):
        runs.append(r)
        return stream(r)

    monkeypatch.setattr(module, "_cache", {})
    monkeypatch.setattr(module, "_stream", counting_stream)
    values = [higher_bernoulli(n, 3) for n in range(257)]
    assert runs == [3]
    reference = egf_family("higher_bernoulli", 256, 3)
    assert values == [Fraction(reference.egf_coeff(n)) for n in range(257)]


def test_values_are_reduced_fractions():
    v = higher_bernoulli(6, 3)
    assert isinstance(v, Fraction)
    assert math.gcd(v.numerator, v.denominator) == 1
    assert v.denominator > 0


def test_negative_arguments_raise():
    for call in (
        lambda: bernoulli(-1),
        lambda: higher_bernoulli(-1, 1),
        lambda: higher_bernoulli(1, -1),
    ):
        with pytest.raises(ValueError):
            call()


def test_package_attribute_is_the_function_and_the_module_stays_importable():
    import importlib

    import pdbell

    assert pdbell.bernoulli is bernoulli
    assert pdbell.bernoulli(4) == Fraction(-1, 30)
    module = importlib.import_module("pdbell.bernoulli")
    assert module.higher_bernoulli(2, 1) == Fraction(1, 6)
    assert sys.modules["pdbell.bernoulli"] is module
