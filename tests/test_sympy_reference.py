"""Kernels against sympy, a reference that shares no code with this package.

Skipped where sympy is not installed; the package itself never imports it.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

from pdbell import sequences as seq  # noqa: E402
from pdbell.bernoulli import bernoulli  # noqa: E402

N = range(61)


def test_stirling2_matches_sympy():
    for n in N:
        assert seq.stirling2_row(n) == [int(stirling(n, k)) for k in range(n + 1)]


def test_bell_matches_sympy():
    assert [seq.bell(n) for n in N] == [int(sympy.bell(n)) for n in N]


def test_derangement_matches_sympy_subfactorial():
    assert [seq.derangement(n) for n in N] == [int(sympy.subfactorial(n)) for n in N]


def test_bernoulli_matches_sympy():
    # sympy takes B_1 = +1/2; this package takes B_1 = -1/2, and every other
    # Bernoulli number is the same under both conventions.
    for n in N:
        b = sympy.bernoulli(n)
        expected = Fraction(int(b.p), int(b.q))
        assert bernoulli(n) == (-expected if n == 1 else expected)
