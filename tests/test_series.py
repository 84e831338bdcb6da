"""Truncated exact-rational power series and the named generating series."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pdbell import sequences as seq
from pdbell.bernoulli import bernoulli, higher_bernoulli
from pdbell.polynomials import pdb_poly
from pdbell.series import (
    EGF_FAMILIES,
    SeriesDivisionError,
    SeriesExpError,
    TruncatedSeries,
    bernoulli_base_series,
    egf_family,
    egf_pdb,
    expm1,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
series_coeffs = st.lists(rationals, min_size=1, max_size=9)


def make_series(coeffs, order=None):
    if order is None:
        order = len(coeffs) - 1
    return TruncatedSeries(coeffs, order)


# ----------------------------------------------------------------------
# arithmetic contracts


def test_constructors():
    assert TruncatedSeries.zero(3).coefficients == (0, 0, 0, 0)
    assert TruncatedSeries.one(2).coefficients == (1, 0, 0)
    assert TruncatedSeries.t(2).coefficients == (0, 1, 0)
    assert TruncatedSeries.from_constant(Fraction(2, 3), 1).coeff(0) == Fraction(2, 3)


def test_coeff_outside_order_raises():
    s = TruncatedSeries.one(4)
    with pytest.raises(ValueError):
        s.coeff(5)
    with pytest.raises(ValueError):
        s.coeff(-1)


def test_constructor_rejects_missing_or_negative_orders():
    with pytest.raises(ValueError, match="order is required for an empty coefficient list"):
        TruncatedSeries([])
    with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
        TruncatedSeries([1], -1)


@pytest.mark.parametrize(
    "make",
    [
        lambda x: TruncatedSeries([x], 3),
        lambda x: TruncatedSeries([1, x], 3),
        lambda x: TruncatedSeries.from_constant(x, 3),
        lambda x: TruncatedSeries.one(3).scale(x),
        lambda x: egf_pdb(0, x, 3),
    ],
    ids=["init", "init-later-coefficient", "from_constant", "scale", "egf_pdb"],
)
def test_series_take_exact_scalars_only(make):
    # A float, a Decimal or a str would be converted to some nearby rational.
    for x, name in ((0.1, "float"), (Decimal("0.1"), "Decimal"), ("1/3", "str")):
        with pytest.raises(TypeError, match=f"^int or Fraction expected, got {name}$"):
            make(x)
    assert make(Fraction(1, 3)) == make(Fraction(2, 6))


def test_repr_shows_at_most_eight_coefficients():
    assert repr(TruncatedSeries([1, 2, 3])) == "TruncatedSeries([1, 2, 3], order=2)"
    assert repr(TruncatedSeries(range(10))) == (
        "TruncatedSeries([0, 1, 2, 3, 4, 5, 6, 7, ...], order=9)"
    )


def test_arithmetic_with_a_string_raises_type_error():
    s = TruncatedSeries.one(3)
    for operation in (lambda: s + "x", lambda: "x" + s, lambda: s * "x", lambda: "x" * s):
        with pytest.raises(TypeError):
            operation()


def test_results_carry_minimum_order():
    a = TruncatedSeries.one(10)
    b = TruncatedSeries.t(4)
    assert (a + b).order == 4
    assert (a - b).order == 4
    assert (a * b).order == 4
    assert (a / TruncatedSeries.one(6)).order == 6


def test_exp_of_t_gives_reciprocal_factorials():
    e = TruncatedSeries.t(8).exp()
    for n in range(9):
        assert e.coeff(n) == Fraction(1, math.factorial(n))


def test_exp_requires_zero_constant_term():
    with pytest.raises(SeriesExpError):
        TruncatedSeries.one(4).exp()


def test_division_requires_unit_constant_term():
    with pytest.raises(SeriesDivisionError):
        TruncatedSeries.one(4) / TruncatedSeries.t(4)


def test_geometric_inverse_pair():
    order = 12
    one = TruncatedSeries.one(order)
    t = TruncatedSeries.t(order)
    geom = one / (one - t)
    assert (geom * (one - t)).coefficients == one.coefficients
    for n in range(order + 1):
        assert geom.coeff(n) == 1


@given(a=series_coeffs, b=series_coeffs)
def test_div_mul_round_trip(a, b):
    if b[0] == 0:
        b = [Fraction(1)] + b[1:]
    order = min(len(a), len(b)) - 1
    sa = make_series(a[: order + 1], order)
    sb = make_series(b[: order + 1], order)
    assert (sa / sb) * sb == sa
    assert (sa * sb) / sb == sa


@given(a=series_coeffs, k=st.integers(min_value=0, max_value=5))
def test_pow_matches_repeated_multiplication(a, k):
    s = make_series(a)
    by_mul = TruncatedSeries.one(s.order)
    for _ in range(k):
        by_mul = by_mul * s
    assert s.pow(k) == by_mul


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        TruncatedSeries.one(3).pow(-1)


@given(a=series_coeffs, b=series_coeffs)
def test_exp_turns_sums_into_products(a, b):
    order = min(len(a), len(b)) - 1
    sa = make_series([Fraction(0)] + a[1 : order + 1], order)
    sb = make_series([Fraction(0)] + b[1 : order + 1], order)
    assert (sa + sb).exp() == sa.exp() * sb.exp()


def test_shift_multiplies_by_t_power():
    s = make_series([Fraction(1), Fraction(2), Fraction(3)])
    assert s.shift(0) == s
    assert s.shift(2).coefficients == (0, 0, 1)
    with pytest.raises(ValueError):
        s.shift(-1)


def test_equality_and_hash():
    a = TruncatedSeries.one(3)
    b = TruncatedSeries.one(3)
    assert a == b and hash(a) == hash(b)
    assert a != TruncatedSeries.one(4)


def test_equal_series_from_constructor_and_arithmetic_hash_alike():
    # EGF values 1, 1, 3, built from int and from integral-Fraction entries,
    # and by arithmetic on a series whose EGF values 1/2, 1/2, 3/2 are not
    # integral.
    by_ints = TruncatedSeries([1, 1, Fraction(3, 2)])
    by_fractions = TruncatedSeries([Fraction(2, 2), Fraction(3, 3), Fraction(6, 4)])
    half = TruncatedSeries([Fraction(1, 2), Fraction(1, 2), Fraction(3, 4)])
    assert half.egf_coeff(2) == Fraction(3, 2)
    for s in (by_fractions, half + half, half.scale(2)):
        assert s == by_ints and hash(s) == hash(by_ints)
        assert [type(s.egf_coeff(n)) for n in range(3)] == [int, int, int]
    assert len({by_ints, by_fractions, half + half}) == 1
    # A non-integral series reached by two routes: the store is in lowest
    # terms, so scaling up and back down lands on the same one.
    round_trip = half.scale(3).scale(Fraction(1, 3))
    assert round_trip == half and hash(round_trip) == hash(half)
    assert round_trip.egf_coeff(0) == Fraction(1, 2)


def test_egf_coeff_is_n_factorial_times_coeff():
    cases = [
        egf_family("deranged_bell", 30),
        egf_family("higher_bernoulli", 30, 2),
        egf_pdb(1, Fraction(1, 2), 30),
        make_series([Fraction(1, 3), Fraction(-2, 5), 7]),
    ]
    for s in cases:
        for n in range(s.order + 1):
            value = s.egf_coeff(n)
            assert value == math.factorial(n) * s.coeff(n)
            # stored as an int exactly when integral
            assert (type(value) is int) == (Fraction(value).denominator == 1)
        assert all(type(c) is Fraction for c in s.coefficients)
    with pytest.raises(ValueError):
        cases[0].egf_coeff(31)
    with pytest.raises(ValueError):
        cases[0].egf_coeff(-1)


# ----------------------------------------------------------------------
# differential test against schoolbook arithmetic on the raw coefficients


def _ref_mul(a, b):
    n = min(len(a), len(b))
    return [sum((a[i] * b[m - i] for i in range(m + 1)), Fraction(0)) for m in range(n)]


def _ref_div(a, b):
    out = []
    for m in range(min(len(a), len(b))):
        acc = a[m] - sum((b[i] * out[m - i] for i in range(1, m + 1)), Fraction(0))
        out.append(acc / b[0])
    return out


def _ref_exp(a):
    out = [Fraction(1)]
    for m in range(1, len(a)):
        out.append(sum((k * a[k] * out[m - k] for k in range(1, m + 1)), Fraction(0)) / m)
    return out


def _ref_pow(a, k):
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _assert_matches(series, reference):
    assert series.order == len(reference) - 1
    assert series.coefficients == tuple(reference)
    assert all(type(c) is Fraction for c in series.coefficients)
    for n, c in enumerate(reference):
        value = series.egf_coeff(n)
        assert value == c * math.factorial(n)
        assert (type(value) is int) == ((c * math.factorial(n)).denominator == 1)


nonzero_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)


@given(
    a=series_coeffs,
    b=series_coeffs,
    b0=nonzero_rationals,
    c=rationals,
    k=st.integers(min_value=0, max_value=4),
    r=st.integers(min_value=0, max_value=10),
)
def test_arithmetic_matches_schoolbook_fraction_reference(a, b, b0, c, k, r):
    b = [b0] + b[1:]
    sa, sb = make_series(a), make_series(b)
    _assert_matches(sa, a)
    _assert_matches(sa + sb, [x + y for x, y in zip(a, b)])
    _assert_matches(sa - sb, [x - y for x, y in zip(a, b)])
    _assert_matches(-sa, [-x for x in a])
    _assert_matches(sa * sb, _ref_mul(a, b))
    _assert_matches(sa / sb, _ref_div(a, b))
    _assert_matches(sa.scale(c), [c * x for x in a])
    _assert_matches(sa.shift(r), ([Fraction(0)] * r + a)[: len(a)])
    _assert_matches(sa.pow(k), _ref_pow(a, k))
    tail = [Fraction(0)] + a[1:]
    _assert_matches(make_series(tail).exp(), _ref_exp(tail))


# ----------------------------------------------------------------------
# exp(t) - 1


def test_expm1_has_zero_constant_term():
    u = expm1(10)
    assert u.coeff(0) == 0
    for n in range(1, 11):
        assert u.coeff(n) == Fraction(1, math.factorial(n))


def test_expm1_equals_exp_of_t_minus_one():
    for order in range(65):
        assert expm1(order) == TruncatedSeries.t(order).exp() - TruncatedSeries.one(order)
    with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
        expm1(-1)


# ----------------------------------------------------------------------
# named generating series


def test_egf_family_names_are_complete():
    assert set(EGF_FAMILIES) == {
        "partial_derangement",
        "ordered_bell",
        "deranged_bell",
        "stirling_column",
        "higher_bernoulli",
    }


def test_egf_family_matches_direct_values_to_20():
    order = 20
    cases = [
        ("ordered_bell", None, seq.ordered_bell),
        ("deranged_bell", None, seq.deranged_bell),
    ]
    for r in range(4):
        cases.append(("partial_derangement", r, lambda n, r=r: seq.partial_derangement(n, r)))
    for k in range(6):
        cases.append(("stirling_column", k, lambda n, k=k: seq.stirling2(n, k)))
    for r in range(5):
        cases.append(("higher_bernoulli", r, lambda n, r=r: higher_bernoulli(n, r)))
    for family, param, direct in cases:
        series = egf_family(family, order, param)
        for n in range(order + 1):
            assert series.coeff(n) * math.factorial(n) == direct(n), (family, param, n)


def test_egf_family_frozen_spot_values():
    assert egf_family("partial_derangement", 6, 0).coeff(4) * math.factorial(4) == 9
    assert egf_family("deranged_bell", 4, None).coeff(3) * 6 == 5
    assert egf_family("higher_bernoulli", 3, 1).coeff(1) == Fraction(-1, 2)


def test_egf_family_input_errors():
    with pytest.raises(ValueError):
        egf_family("no_such_family", 4)
    with pytest.raises(ValueError):
        egf_family("stirling_column", 4)  # missing parameter
    with pytest.raises(ValueError):
        egf_family("partial_derangement", 4, -1)
    with pytest.raises(ValueError):
        egf_family("ordered_bell", -1)


def test_bernoulli_base_series_matches_kernel():
    base = bernoulli_base_series(16)
    for n in range(17):
        assert base.coeff(n) * math.factorial(n) == bernoulli(n)
    # Its powers, by series products, against the kernel's own recurrence.
    for r in range(9):
        series = egf_family("higher_bernoulli", 120, r)
        for n in range(121):
            assert series.egf_coeff(n) == higher_bernoulli(n, r), (r, n)


def test_egf_pdb_matches_polynomials():
    order = 12
    for r in range(4):
        for y in (1, -1, Fraction(1, 2)):
            series = egf_pdb(r, y, order)
            for n in range(order + 1):
                expected = pdb_poly(n, r).evaluate(y)
                assert series.coeff(n) * math.factorial(n) == expected, (r, y, n)


def test_egf_pdb_frozen_spot_values():
    s0 = egf_pdb(0, 1, 5)
    assert [s0.coeff(n) * math.factorial(n) for n in range(6)] == [1, 0, 1, 5, 28, 199]
    s1 = egf_pdb(1, 1, 4)
    assert s1.coeff(3) * 6 == seq.pdb_number(3, 1) == 4
    sy0 = egf_pdb(0, 0, 6)
    assert sy0.coefficients == TruncatedSeries.one(6).coefficients


def test_egf_pdb_rejects_negative_r():
    with pytest.raises(ValueError):
        egf_pdb(-1, 1, 4)
