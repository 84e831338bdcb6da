"""Dense integer polynomials and the four named polynomial families."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from pdbell import sequences as seq
from pdbell.polynomials import (
    IntPolynomial,
    exponential_poly,
    geometric_poly,
    pdb_poly,
    pdb_poly_rows,
    r_exponential_poly,
    weighted_sum,
)

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)
polys = coeff_lists.map(IntPolynomial)
points = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


# ----------------------------------------------------------------------
# ring structure


def test_canonical_form_strips_trailing_zeros():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coefficients == (1, 2)
    assert p.degree == 1
    assert IntPolynomial([0, 0]).is_zero
    assert IntPolynomial([]).is_zero
    assert IntPolynomial([]).degree == -1


def test_coeff_out_of_range_is_zero():
    p = IntPolynomial([3, 4])
    assert p.coeff(0) == 3
    assert p.coeff(5) == 0


@given(p=polys, q=polys, x=points)
def test_add_mul_evaluate_homomorphism(p, q, x):
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
    assert (p - q).evaluate(x) == p.evaluate(x) - q.evaluate(x)
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


@given(p=polys, q=polys)
def test_ring_commutativity(p, q):
    assert p + q == q + p
    assert p * q == q * p


@given(p=polys, c=st.integers(min_value=-20, max_value=20), x=points)
def test_scalar_multiplication(p, c, x):
    assert (c * p).evaluate(x) == c * p.evaluate(x)
    assert (p * c) == (c * p)


@given(p=polys, x=points)
def test_reflected_evaluates_at_negated_point(p, x):
    assert p.reflected().evaluate(x) == p.evaluate(-x)


@given(p=polys, c=st.integers(min_value=-6, max_value=6), x=st.integers(min_value=-5, max_value=5))
def test_scale_variable(p, c, x):
    assert p.scale_variable(c).evaluate(x) == p.evaluate(c * x)


@given(p=polys, r=st.integers(min_value=0, max_value=5), x=points)
def test_times_y_power(p, r, x):
    assert p.times_y_power(r).evaluate(x) == x**r * p.evaluate(x)


def test_times_y_power_rejects_negative():
    with pytest.raises(ValueError):
        IntPolynomial([1]).times_y_power(-1)


def test_coeff_rejects_negative_index():
    with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
        IntPolynomial([1, 2]).coeff(-1)


def test_arithmetic_with_a_string_raises_type_error():
    p = IntPolynomial([1, 2])
    for operation in (lambda: p + "x", lambda: "x" + p, lambda: p * "x", lambda: "x" * p):
        with pytest.raises(TypeError):
            operation()


def test_evaluate_rejects_other_number_types():
    p = IntPolynomial([1, 2])
    for x, name in ((0.5, "float"), (Decimal("0.5"), "Decimal"), ("1", "str")):
        with pytest.raises(TypeError, match=f"^int or Fraction expected, got {name}$"):
            p.evaluate(x)


def test_evaluate_is_exact_on_fractions():
    p = IntPolynomial([1, -3, 2])
    x = Fraction(1, 3)
    assert p.evaluate(x) == 1 - 3 * x + 2 * x**2
    assert isinstance(p.evaluate(x), Fraction)


@given(p=polys, x=points)
@example(p=IntPolynomial([]), x=Fraction(1, 3))
@example(p=IntPolynomial([5]), x=Fraction(1, 3))
@example(p=IntPolynomial([1, -3, 2]), x=Fraction(3, 1))
@example(p=IntPolynomial([0, 0, 4]), x=Fraction(-7, 2))
def test_evaluate_equals_the_horner_rule_on_fractions(p, x):
    # At a Fraction the rule runs on integers and builds one Fraction at the
    # end; value and type match Horner's rule run on the Fraction itself: an
    # int at an int and for the zero polynomial, a Fraction otherwise.
    acc = 0
    for c in reversed(p.coefficients):
        acc = acc * x + c
    value = p.evaluate(x)
    assert (type(value), value) == (type(acc), acc)


def test_constructor_rejects_non_integer_coefficients():
    for coeffs, shown in (
        ([1.0], "1.0"),
        ([Fraction(1)], "Fraction(1, 1)"),
        ([Fraction(1, 2)], "Fraction(1, 2)"),
        ([1, "x"], "'x'"),
        ([2, 2.5, "x"], "2.5"),  # the first bad value is named
    ):
        message = f"integer coefficient expected, got {shown}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            IntPolynomial(coeffs)


def test_constructor_accepts_bool_coefficients():
    p = IntPolynomial([True, False, True, False])
    assert p == IntPolynomial([1, 0, 1])
    assert p.degree == 2


# ----------------------------------------------------------------------
# arithmetic against a schoolbook per-coefficient reference
#
# Coefficients up to 2**200 in size and lengths up to 40, with scalars that
# may be zero or negative, so an offset or fill-value slip in the
# arithmetic changes some coefficient.

BIG = 2**200
big_ints = st.integers(min_value=-BIG, max_value=BIG)
big_scalars = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3), big_ints)
# Lengths are drawn uniformly, so the longest lists come up as often as short ones.
big_lists = st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.lists(big_scalars, min_size=n, max_size=n)
)
# Two full-length inputs, every coefficient nonzero and of order 2**200,
# are always among the examples.
FULL_A = [(-1) ** k * (BIG - 3**k) for k in range(40)]
FULL_B = [BIG // (k + 2) - 5**k for k in range(40)]


def canonical(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def at(coeffs, k):
    return coeffs[k] if k < len(coeffs) else 0


def ref_add(a, b, sign=1):
    return canonical(at(a, k) + sign * at(b, k) for k in range(max(len(a), len(b))))


def ref_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] += a[i] * b[j]
    return canonical(out)


def assert_canonical(p):
    assert not p.coefficients or p.coefficients[-1] != 0
    assert p.degree == len(p.coefficients) - 1


@given(a=big_lists, b=big_lists)
@example(a=FULL_A, b=FULL_B)
@example(a=FULL_A, b=FULL_B[:7])
def test_add_sub_neg_match_reference(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    for result, expected in (
        (p + q, ref_add(a, b)),
        (p - q, ref_add(a, b, -1)),
        (q - p, ref_add(b, a, -1)),
        (-p, canonical(-c for c in a)),
    ):
        assert_canonical(result)
        assert result.coefficients == expected


@given(a=big_lists, b=big_lists, c=big_scalars)
@example(a=FULL_A, b=FULL_B, c=-BIG)
@example(a=FULL_A[:9], b=FULL_B, c=0)
def test_products_match_reference(a, b, c):
    p, q = IntPolynomial(a), IntPolynomial(b)
    for result, expected in (
        (p * q, ref_mul(a, b)),
        (q * p, ref_mul(a, b)),
        (c * p, canonical(c * x for x in a)),
        (p * c, canonical(c * x for x in a)),
    ):
        assert_canonical(result)
        assert result.coefficients == expected


@given(a=big_lists, c=st.one_of(st.integers(min_value=-7, max_value=7), big_ints))
@example(a=FULL_A, c=-3)
@example(a=FULL_B, c=0)
def test_reflected_and_scale_variable_match_reference(a, c):
    p = IntPolynomial(a)
    assert p.reflected().coefficients == canonical((-1) ** k * x for k, x in enumerate(a))
    assert p.scale_variable(c).coefficients == canonical(x * c**k for k, x in enumerate(a))
    assert_canonical(p.scale_variable(c))


@given(terms=st.lists(st.tuples(big_scalars, big_lists), max_size=8))
@example(terms=[(BIG, FULL_A[:5]), (-7, FULL_B), (0, FULL_A), (3, FULL_A)])
def test_weighted_sum_matches_reference(terms):
    expected: tuple = ()
    for w, a in terms:
        expected = ref_add(expected, canonical(w * x for x in a))
    result = weighted_sum((w, IntPolynomial(a)) for w, a in terms)
    assert_canonical(result)
    assert result.coefficients == expected


@given(a=big_lists, tail=big_lists, w=big_scalars)
def test_cancellation_gives_canonical_results(a, tail, w):
    p = IntPolynomial(a)
    assert (p - p).is_zero() and (p + -p).is_zero()
    assert weighted_sum([(w, p), (-w, p)]).is_zero()
    if p.is_zero():
        return
    # q agrees with -p in its top coefficient, so the top of p + q cancels.
    top = p.coefficients[-1]
    q = IntPolynomial(tail[: p.degree] + [0] * (p.degree - len(tail)) + [-top])
    for result in (p + q, p - (-q), weighted_sum([(1, p), (1, q)])):
        assert_canonical(result)
        assert result.degree < p.degree
        assert result.coefficients == ref_add(a, q.coefficients)
    # The same with weights: w*p + (-w)*p' for p' sharing p's top coefficient.
    if w:
        result = weighted_sum([(w, p), (-w, IntPolynomial(list(q.coefficients[:-1]) + [top]))])
        assert_canonical(result)
        assert result.degree < p.degree


@given(a=big_lists, b=big_lists, c=big_scalars, r=st.integers(min_value=0, max_value=5))
@example(a=FULL_A, b=FULL_B, c=0, r=3)
def test_arithmetic_results_are_what_the_constructor_builds(a, b, c, r):
    # The arithmetic builds its results without the constructor's type
    # check, so each must equal, store and hash as the validated rebuild.
    p, q = IntPolynomial(a), IntPolynomial(b)
    for result in (
        p + q,
        p - q,
        -p,
        p * c,
        c * p,
        p * q,
        p.reflected(),
        p.scale_variable(c),
        p.times_y_power(r),
        weighted_sum([(c, p), (1, q), (-c, p)]),
    ):
        rebuilt = IntPolynomial(list(result.coefficients))
        assert result == rebuilt and hash(result) == hash(rebuilt)
        assert type(result._coeffs) is tuple
        assert all(type(x) is int for x in result._coeffs)
        assert_canonical(result)


def test_weighted_sum_of_nothing_or_zero_weights_is_zero():
    assert weighted_sum([]) == IntPolynomial()
    assert weighted_sum([(0, pdb_poly(6, 1)), (5, IntPolynomial())]) == IntPolynomial()


def test_weighted_sum_rejects_fractional_weights():
    for w in (Fraction(1, 2), Fraction(2), 2.0):
        message = f"integer coefficient expected, got {w!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            weighted_sum([(3, IntPolynomial([1])), (w, IntPolynomial([2, 4]))])


def test_constructors_reading_kernels_reject_non_integer_values(monkeypatch):
    # The uncached constructors, so every one reads the replaced kernels.
    monkeypatch.setattr(seq, "stirling2_row", lambda n: [Fraction(1, 2)] * (n + 1))
    monkeypatch.setattr(seq, "r_stirling2", lambda n, k, r: Fraction(1, 2))
    for build, args in (
        (exponential_poly, (3,)),
        (geometric_poly, (3,)),
        (pdb_poly, (3, 1)),
        (r_exponential_poly, (3, 2)),
    ):
        with pytest.raises(TypeError, match="^integer coefficient expected, got Fraction"):
            build.__wrapped__(*args)


# ----------------------------------------------------------------------
# family constructors: frozen small cases


def test_exponential_poly_frozen():
    assert exponential_poly(0).coefficients == (1,)
    assert exponential_poly(2).coefficients == (0, 1, 1)
    assert exponential_poly(2).evaluate(-1) == 0


def test_r_exponential_poly_frozen():
    for n in range(8):
        assert r_exponential_poly(n, 0) == exponential_poly(n)
    for r in range(8):
        assert r_exponential_poly(1, r).coefficients == ((r, 1) if r else (0, 1))
    assert r_exponential_poly(1, 3).evaluate(-1) == seq.complementary_r_bell(1, 3)


def test_geometric_poly_frozen():
    assert geometric_poly(2).coefficients == (0, 1, 2)
    assert geometric_poly(3).coefficients == (0, 1, 6, 6)


def test_pdb_poly_frozen():
    assert pdb_poly(2, 0).coefficients == (0, 0, 1)
    assert pdb_poly(2, 1).coefficients == (0, 1)
    assert pdb_poly(3, 2).coefficients == (0, 0, 3)


def test_pdb_poly_matches_definition_to_80():
    # Coefficient of y**k is S(n, k) * C(k, r) * D(k - r), one kernel call
    # per term, and 0 below y**r.
    for n in range(81):
        for r in range(n + 3):
            expected = IntPolynomial(
                seq.stirling2(n, k) * math.comb(k, r) * seq.derangement(k - r)
                if k >= r
                else 0
                for k in range(n + 1)
            )
            assert pdb_poly(n, r) == expected, (n, r)


def test_pdb_poly_rows_are_the_cells_and_fill_no_memo(monkeypatch):
    # Read off one Stirling stream, the rows fill no triangle and touch the
    # pdb_poly cache not at all.
    monkeypatch.setattr(seq, "_triangles", {})
    cache = pdb_poly.cache_info()
    rows = list(pdb_poly_rows(30))
    assert (seq._triangles, pdb_poly.cache_info()) == ({}, cache)
    assert rows == [[pdb_poly(n, r) for r in range(n + 1)] for n in range(31)]
    assert list(pdb_poly_rows(30, 28)) == rows[28:]
    assert list(pdb_poly_rows(0)) == [[IntPolynomial([1])]]
    with pytest.raises(ValueError):
        pdb_poly_rows(-1)


def test_geometric_poly_matches_factorial_sums_to_80():
    for n in range(81):
        expected = IntPolynomial(
            seq.stirling2(n, k) * math.factorial(k) for k in range(n + 1)
        )
        assert geometric_poly(n) == expected, n


def test_pdb_poly_past_the_row_is_zero_without_work():
    # r > n is the zero polynomial at once, however large r is.
    assert pdb_poly(2, 10**8) == IntPolynomial([])


def test_family_negative_arguments_raise():
    for call in (
        lambda: exponential_poly(-1),
        lambda: r_exponential_poly(-1, 0),
        lambda: r_exponential_poly(0, -1),
        lambda: geometric_poly(-1),
        lambda: pdb_poly(-1, 0),
        lambda: pdb_poly(0, -1),
    ):
        with pytest.raises(ValueError):
            call()


# ----------------------------------------------------------------------
# family laws on fixed ranges


def test_values_at_one_reduce_to_sequences():
    for n in range(16):
        assert exponential_poly(n).evaluate(1) == seq.bell(n)
        assert exponential_poly(n).evaluate(-1) == seq.complementary_bell(n)
        assert geometric_poly(n).evaluate(1) == seq.ordered_bell(n)
        for r in range(n + 1):
            assert pdb_poly(n, r).evaluate(1) == seq.pdb_number(n, r)
            assert r_exponential_poly(n, r).evaluate(-1) == seq.complementary_r_bell(n, r)
            assert r_exponential_poly(n, r).evaluate(1) == sum(
                seq.r_stirling2(n + r, k + r, r) for k in range(n + 1)
            )


def test_geometric_poly_at_minus_one_to_20():
    for n in range(21):
        assert geometric_poly(n).evaluate(-1) == (-1) ** n


def test_pdb_poly_row_sum_is_geometric_poly_to_20():
    for n in range(21):
        total = IntPolynomial([])
        weighted = IntPolynomial([])
        for r in range(n + 1):
            total = total + pdb_poly(n, r)
            weighted = weighted + r * pdb_poly(n, r)
        assert total == geometric_poly(n)
        if n >= 1:
            # The fixed-count-weighted row sum law needs n >= 1: at n = 0
            # the weighted sum is empty while the geometric side is 1.
            assert weighted == geometric_poly(n)


def test_r_exponential_poly_binomial_expansion_to_15():
    # The restricted family expands over the plain one with binomial
    # weights r^k C(n,k), coefficient-wise.
    for n in range(16):
        for r in range(min(n, 8) + 1):
            expected = IntPolynomial([])
            for k in range(n + 1):
                expected = expected + (math.comb(n, k) * r**k) * exponential_poly(n - k)
            assert r_exponential_poly(n, r) == expected


def test_shifted_binomial_sum_needs_leading_factor_to_15():
    # x * sum_k C(n,k) phi_k(x) = phi_{n+1}(x) holds coefficient-wise;
    # dropping the leading x breaks it (first failure at evaluation
    # point -1, n = 3).
    for n in range(16):
        acc = IntPolynomial([])
        for k in range(n + 1):
            acc = acc + math.comb(n, k) * exponential_poly(k)
        assert acc.times_y_power(1) == exponential_poly(n + 1)
    bad = sum(math.comb(3, k) * exponential_poly(k).evaluate(-1) for k in range(4))
    assert bad == -1
    assert exponential_poly(4).evaluate(-1) == 1


def test_pdb_poly_difference_identity_to_15():
    # pdb_poly(n,r) - (r+1)*pdb_poly(n,r+1) equals
    # y^r * sum_k C(n,k) {k brace r} phi_{n-k}(-y), coefficient-wise.
    for n in range(16):
        for r in range(n + 1):
            lhs = pdb_poly(n, r) - (r + 1) * pdb_poly(n, r + 1)
            rhs = IntPolynomial([])
            for k in range(n + 1):
                term = math.comb(n, k) * seq.stirling2(k, r)
                if term:
                    rhs = rhs + term * exponential_poly(n - k).reflected()
            assert lhs == rhs.times_y_power(r)


# ----------------------------------------------------------------------
# constructor caching must not leak mutable state


def test_cached_constructors_return_equal_values():
    a = pdb_poly(6, 2)
    b = pdb_poly(6, 2)
    assert a == b
    assert a.coefficients == b.coefficients
    # Arithmetic on a cached instance never mutates it.
    _ = a + IntPolynomial([1, 1])
    assert pdb_poly(6, 2).coefficients == b.coefficients
