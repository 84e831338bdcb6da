"""Integer sequence kernel: frozen values, closed laws, and recurrences."""

import importlib
import math
import sys
import threading
from functools import partial
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from pdbell import oracle, sequences as seq

# ``pdbell.bernoulli`` is the re-exported function, not the module.
bern = importlib.import_module("pdbell.bernoulli")

small_n = st.integers(min_value=0, max_value=18)
small_k = st.integers(min_value=0, max_value=18)
small_r = st.integers(min_value=0, max_value=10)


def pdb_by_definition(n, r):
    """w(n, r) = sum_k S(n, k) * C(k, r) * D(k - r), one kernel call per term."""
    return sum(
        seq.stirling2(n, k) * math.comb(k, r) * seq.derangement(k - r)
        for k in range(r, n + 1)
    )


def bell_forms(n):
    """(bell, complementary_bell, deranged_bell, ordered_bell) at n as sums
    over Stirling row n: plain, alternating, times D(k) and times k!."""
    row = seq.stirling2_row(n)
    return (
        sum(row),
        sum(row[0::2]) - sum(row[1::2]),
        sum(v * seq.derangement(k) for k, v in enumerate(row)),
        sum(v * math.factorial(k) for k, v in enumerate(row)),
    )


# ----------------------------------------------------------------------
# frozen values


def test_stirling2_frozen():
    assert seq.stirling2(0, 0) == 1
    assert seq.stirling2(3, 5) == 0
    assert seq.stirling2(4, 2) == 7
    assert [seq.stirling2(4, k) for k in range(5)] == [0, 1, 7, 6, 1]


def test_r_stirling2_frozen():
    # Display-index convention: the first two arguments are the printed
    # upper and lower indices, so the r = 2 table starts at row 2.
    assert seq.r_stirling2(3, 2, 2) == 2
    assert seq.r_stirling2(2, 2, 2) == 1
    for n in range(8):
        for k in range(8):
            assert seq.r_stirling2(n, k, 0) == seq.stirling2(n, k)
    for r in range(5):
        for m in range(r, 8):
            assert seq.r_stirling2(m, m, r) == 1
            assert seq.r_stirling2(m, r - 1, r) == 0 if r else True
            assert seq.r_stirling2(m, m + 1, r) == 0


def test_r_stirling2_below_base_row_is_zero():
    assert seq.r_stirling2(1, 2, 2) == 0
    assert seq.r_stirling2(0, 0, 3) == 0


def test_derangement_frozen():
    assert [seq.derangement(n) for n in range(7)] == [1, 0, 1, 2, 9, 44, 265]


def test_partial_derangement_frozen():
    assert [seq.partial_derangement(3, r) for r in range(4)] == [2, 3, 0, 1]
    assert seq.partial_derangement(5, 2) == 20
    assert seq.partial_derangement(4, 6) == 0
    for n in range(10):
        assert seq.partial_derangement(n, n) == 1


def test_bell_frozen():
    assert [seq.bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


def test_complementary_bell_frozen():
    values = [seq.complementary_bell(n) for n in range(9)]
    assert values == [1, -1, 0, 1, 1, -2, -9, -9, 50]


def test_complementary_r_bell_frozen():
    for r in range(8):
        assert seq.complementary_r_bell(1, r) == r - 1
    assert seq.complementary_r_bell(2, 1) == -1
    for n in range(12):
        assert seq.complementary_r_bell(n, 0) == seq.complementary_bell(n)


def test_ordered_bell_frozen():
    values = [seq.ordered_bell(n) for n in range(9)]
    assert values == [1, 1, 3, 13, 75, 541, 4683, 47293, 545835]


def test_r_ordered_bell_frozen():
    for j in range(10):
        assert seq.r_ordered_bell(1, j) == j + 1
    for n in range(10):
        assert seq.r_ordered_bell(n, 0) == seq.ordered_bell(n)


def test_truncated_ordered_bell_frozen():
    assert [seq.truncated_ordered_bell(3, r) for r in range(4)] == [13, 13, 12, 6]
    for n in range(10):
        assert seq.truncated_ordered_bell(n, 0) == seq.ordered_bell(n)
        assert seq.truncated_ordered_bell(n, n + 1) == 0


def test_deranged_bell_frozen():
    assert [seq.deranged_bell(n) for n in range(6)] == [1, 0, 1, 5, 28, 199]


def test_pdb_frozen():
    assert seq.pdb_number(0, 0) == 1
    assert seq.pdb_row(0) == [1]
    assert seq.pdb_row(1) == [0, 1]
    assert seq.pdb_row(2) == [1, 1, 1]
    assert seq.pdb_row(3) == [5, 4, 3, 1]
    assert seq.pdb_number(7, 9) == 0


# ----------------------------------------------------------------------
# closed laws on fixed ranges


def test_stirling_row_sums_to_30():
    for n in range(31):
        row = [seq.stirling2(n, k) for k in range(n + 1)]
        assert seq.stirling2_row(n) == row
        assert sum(row) == seq.bell(n)
        assert sum((-1) ** k * v for k, v in enumerate(row)) == seq.complementary_bell(n)
        assert sum(math.factorial(k) * v for k, v in enumerate(row)) == seq.ordered_bell(n)


def test_partial_derangement_laws_to_25():
    for n in range(26):
        assert sum(seq.partial_derangement(n, r) for r in range(n + 1)) == math.factorial(n)
        for r in range(n + 1):
            assert seq.partial_derangement(n, r) == math.comb(n, r) * seq.derangement(n - r)
            assert seq.partial_derangement_column(r, n) == [
                seq.partial_derangement(k, r) for k in range(r, n + 1)
            ]
        assert seq.partial_derangement_column(n + 1, n) == []
        assert seq.partial_derangement_row(n) == [
            seq.partial_derangement(n, r) for r in range(n + 1)
        ]
    # Long columns and rows, to n = 200.
    for r in (0, 1, 5, 100, 200):
        assert seq.partial_derangement_column(r, 200) == [
            math.comb(k, r) * seq.derangement(k - r) for k in range(r, 201)
        ], r
    assert seq.partial_derangement_row(200) == [
        math.comb(200, r) * seq.derangement(200 - r) for r in range(201)
    ]


def test_pdb_laws_to_25():
    for n in range(26):
        row = seq.pdb_row(n)
        assert len(row) == n + 1
        assert all(v >= 0 for v in row)
        assert sum(row) == seq.ordered_bell(n)
        assert row[0] == seq.deranged_bell(n)
        w1 = row[1] if n >= 1 else 0
        assert row[0] - w1 == seq.complementary_bell(n)
        assert row == [seq.pdb_number(n, r) for r in range(n + 1)]


def test_r_zero_reductions_to_20():
    for n in range(21):
        for k in range(n + 1):
            assert seq.r_stirling2(n, k, 0) == seq.stirling2(n, k)
        assert seq.r_ordered_bell(n, 0) == seq.ordered_bell(n)
        assert seq.truncated_ordered_bell(n, 0) == seq.ordered_bell(n)
        assert seq.pdb_number(n, 0) == seq.deranged_bell(n)
        assert seq.complementary_r_bell(n, 0) == seq.complementary_bell(n)
        assert seq.partial_derangement(n, 0) == seq.derangement(n)


def test_pdb_kernels_match_definition_to_80():
    for n in range(81):
        expected = [pdb_by_definition(n, r) for r in range(n + 3)]
        assert [seq.pdb_number(n, r) for r in range(n + 3)] == expected
        assert seq.pdb_row(n) == expected[: n + 1]
        terms = [seq.stirling2(n, k) * math.factorial(k) for k in range(n + 1)]
        assert seq.truncated_ordered_bell_row(n) == [
            sum(terms[r:]) for r in range(n + 1)
        ]


def test_ordered_bell_kernels_match_factorial_sums_to_80():
    for n in range(81):
        terms = [seq.stirling2(n, k) * math.factorial(k) for k in range(n + 1)]
        assert seq.ordered_bell(n) == sum(terms), n
        for r in range(n + 3):
            assert seq.truncated_ordered_bell(n, r) == sum(terms[r:]), (n, r)


def test_r_ordered_bell_matches_definition():
    # Triangle r against the kernel's binomial sum over ordered_bell(j).
    for n in range(41):
        for r in range(40):
            expected = sum(
                seq.r_stirling2(n + r, k + r, r) * math.factorial(k)
                for k in range(n + 1)
            )
            assert seq.r_ordered_bell(n, r) == expected, (n, r)
    # The binomial sum itself, over a deterministic sweep.
    for r in (0, 1, 2, 7, 1000):
        for n in range(201):
            expected = sum(
                math.comb(n, j) * r ** (n - j) * seq.ordered_bell(j) for j in range(n + 1)
            )
            assert seq.r_ordered_bell(n, r) == expected, (n, r)


def test_complementary_bell_matches_alternating_stirling_sum_to_80():
    for n in range(81):
        expected = sum((-1) ** k * seq.stirling2(n, k) for k in range(n + 1))
        assert seq.complementary_bell(n) == expected, n


def test_pdb_kernels_do_not_depend_on_query_order(monkeypatch):
    # A fresh triangle memo, grown high first, then read lower, then grown
    # again from the middle, by both entry points.
    monkeypatch.setattr(seq, "_triangles", {})
    queries = [
        ("number", 70, 5),
        ("row", 12, None),
        ("number", 40, 5),
        ("number", 71, 5),
        ("number", 71, 6),
        ("row", 75, None),
        ("number", 3, 0),
        ("row", 0, None),
        ("number", 76, 70),
        ("row", 76, None),
        ("number", 80, 80),
        ("number", 79, 2),
    ]
    for kind, n, r in queries:
        if kind == "number":
            assert seq.pdb_number(n, r) == pdb_by_definition(n, r), (n, r)
        else:
            expected = [pdb_by_definition(n, j) for j in range(n + 1)]
            assert seq.pdb_row(n) == expected, n


@pytest.mark.parametrize("n", [150, 300, 450])
def test_pdb_row_shift_matches_cell_dot_products_at_cap_sizes(n):
    # The row comes from the row before by the EGF's row recurrence, the
    # cell is a dot product with a rencontres column: two derivations.
    assert seq.pdb_row(n) == [seq.pdb_number(n, r) for r in range(n + 1)]


def test_pdb_row_1000_sums_to_ordered_bell(monkeypatch):
    # Both read Q_1000; the Stirling row times 0!..1000! is the independent
    # value (its triangle is dropped after the test).
    monkeypatch.setattr(seq, "_triangles", {})
    total = sum(seq.pdb_row(1000))
    assert total == seq.ordered_bell(1000) == seq.truncated_ordered_bell(1000, 0)


def test_pdb_number_past_the_diagonal_grows_no_memo(monkeypatch):
    monkeypatch.setattr(seq, "_triangles", {})
    monkeypatch.setattr(seq, "_derangements", seq._Memo(seq._derangements._stream))
    assert seq.pdb_number(3, 7) == 0
    assert seq.partial_derangement_column(7, 3) == []
    assert seq._triangles == {}
    assert seq._derangements._rows == []


def test_pdb_row_grows_no_rencontres_memo(monkeypatch):
    # The row and its cells read only the r = 0 triangle and the derangement
    # memo; no memo is kept per r.
    monkeypatch.setattr(seq, "_triangles", {})
    assert seq.pdb_row(60) == [pdb_by_definition(60, r) for r in range(61)]
    assert [seq.pdb_number(60, r) for r in range(61)] == seq.pdb_row(60)
    assert set(seq._triangles) == {0}


def test_pdb_row_reads_no_triangle(monkeypatch):
    monkeypatch.setattr(seq, "_triangles", {})
    row = seq.pdb_row(200)
    assert seq._triangles == {}
    assert sum(row) == seq.truncated_ordered_bell(200, 0)


def test_pdb_rows_yield_every_row_in_turn():
    rows = list(seq.pdb_rows(60))
    assert len(rows) == 61
    assert all(row == seq.pdb_row(n) for n, row in enumerate(rows))
    assert list(seq.pdb_rows(0)) == [[1]]


@pytest.mark.parametrize(
    "rows, cell",
    [
        (seq.pdb_rows, pdb_by_definition),
        (seq.stirling2_rows, seq.stirling2),
        (partial(seq.r_stirling2_rows, r=3), partial(seq.r_stirling2, r=3)),
        (seq.truncated_ordered_bell_rows, seq.truncated_ordered_bell),
    ],
)
def test_row_streams_hand_out_fresh_lists(rows, cell):
    # Changing a row as it is handed out leaves the rows after it intact.
    for n, row in enumerate(rows(12)):
        assert row == [cell(n, k) for k in range(n + 1)], n
        row[:] = [-1] * len(row)


def test_stirling2_rows_grow_no_memo(monkeypatch):
    monkeypatch.setattr(seq, "_triangles", {})
    rows = list(seq.stirling2_rows(40))
    assert seq._triangles == {}
    assert rows == [seq.stirling2_row(n) for n in range(41)]
    assert list(seq.stirling2_rows(0)) == [[1]]


@pytest.mark.parametrize("r", [0, 1, 3, 40, 41, 50])
def test_r_stirling2_and_truncated_ordered_bell_rows_grow_no_memo(monkeypatch, r):
    # Every slice first..max_n of the stream is that slice of the rows, and
    # the rows below r are all zeros.
    monkeypatch.setattr(seq, "_triangles", {})
    rows = list(seq.r_stirling2_rows(40, r))
    sums = list(seq.truncated_ordered_bell_rows(40))
    assert seq._triangles == {}
    assert rows == [[seq.r_stirling2(n, j, r) for j in range(n + 1)] for n in range(41)]
    assert all(row == [0] * (n + 1) for n, row in enumerate(rows[:r]))
    assert sums == [seq.truncated_ordered_bell_row(n) for n in range(41)]
    for first, max_n in ((0, 0), (2, 9), (r, r + 2), (r + 1, r), (38, 40)):
        ns = range(first, max_n + 1)
        assert list(seq.r_stirling2_rows(max_n, r, first)) == [
            [seq.r_stirling2(n, j, r) for j in range(n + 1)] for n in ns
        ]
        assert list(seq.truncated_ordered_bell_rows(max_n, first)) == [
            seq.truncated_ordered_bell_row(n) for n in ns
        ]


def test_pdb_rows_match_enumeration_to_8():
    for n, row in enumerate(seq.pdb_rows(8)):
        assert row == oracle.brute_pdb_row(n), n


def test_bell_kernels_match_stirling_row_forms_to_300(monkeypatch):
    # The four one-index kernels, read off Q_n by a fresh memo, against their
    # sums over Stirling row n.  Neither they nor the r-indexed kernels over
    # them read a Stirling triangle.
    expected = [bell_forms(n) for n in range(301)]
    monkeypatch.setattr(seq, "_triangles", {})
    monkeypatch.setattr(seq, "_bells", seq._Memo(seq._bells._stream))
    kernels = (seq.bell, seq.complementary_bell, seq.deranged_bell, seq.ordered_bell)
    for n in range(301):
        assert tuple(kernel(n) for kernel in kernels) == expected[n], n
    seq.r_ordered_bell(300, 7)
    seq.r_ordered_bell_row(300, 7)
    seq.complementary_r_bell(300, 7)
    assert seq._triangles == {}


@pytest.mark.parametrize("name", ["bells", "triangle_2", "derangements", "bernoulli_3"])
def test_memo_growth_that_raises_restarts_its_stream(monkeypatch, name):
    # A stream that raises part way leaves the entries before the fault; the
    # next growth restarts the factory past them, so no entry goes stale.
    monkeypatch.setattr(seq, "_triangles", {})
    monkeypatch.setattr(bern, "_cache", {})
    seq.r_stirling2(2, 2, 2)
    bern.higher_bernoulli(0, 3)
    memos = {"bells": seq._bells, "derangements": seq._derangements, "bernoulli_3": bern._cache[3]}
    factory, calls = memos.get(name, seq._triangles[2])._stream, []
    expected = seq._Memo(factory).upto(40)[:41]

    def faulty():
        calls.append(len(calls))
        for m, entry in enumerate(factory()):
            if m == 9 and len(calls) == 1:
                raise KeyboardInterrupt
            yield entry

    memo = seq._Memo(faulty)
    with pytest.raises(KeyboardInterrupt):
        memo.upto(20)
    assert memo._rows == expected[:9]
    assert memo.upto(40) == expected
    assert len(calls) == 2


def test_r_indexed_kernels_grow_no_per_r_memo(monkeypatch):
    # Only r_stirling2 keeps a triangle per r; r_ordered_bell reads the
    # one-index Bell memo, whatever r it is asked for.
    monkeypatch.setattr(seq, "_triangles", {})
    previous = None
    for r in range(401):
        value = seq.r_ordered_bell(200, r)
        assert set(seq._triangles) <= {0}, r
        assert r == 0 or value == 2 * previous - (r - 1) ** 200, r
        previous = value


@pytest.mark.parametrize("n", [0, 1, 7, 60, 200])
def test_r_ordered_bell_row_matches_cell_kernel(n):
    # The row runs the shift recurrence from the ordered Bell memo; each cell
    # is a binomial sum over that memo.
    assert seq.r_ordered_bell_row(n, 400) == [seq.r_ordered_bell(n, r) for r in range(401)]
    assert seq.r_ordered_bell_row(n, 0) == [seq.ordered_bell(n)]


def test_r_ordered_bell_row_reads_no_triangle(monkeypatch):
    monkeypatch.setattr(seq, "_triangles", {})
    row = seq.r_ordered_bell_row(200, 3)
    assert seq._triangles == {}
    assert row == [seq.r_ordered_bell(200, r) for r in range(4)]


def test_complementary_bell_residues_match_exact_values_to_1000():
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    got = list(islice(seq.complementary_bell_residues(), 1001))
    assert got == [tuple(seq.complementary_bell(n) % p for p in primes) for n in range(1001)]
    # A later first skips the entries before it.
    assert list(islice(seq.complementary_bell_residues(998), 3)) == got[998:]


@pytest.mark.parametrize("position, period", [(0, 26), (1, 1562)])
def test_complementary_bell_residues_repeat_with_period(position, period):
    # 2*(p^p - 1)/(p - 1) for p = 3 and 5, and no shorter period.
    stream = islice(seq.complementary_bell_residues(), 3 * period)
    values = [residues[position] for residues in stream]
    assert values[period:] == values[: 2 * period]
    shorter = [d for d in range(1, period) if values[d:] == values[: 3 * period - d]]
    assert shorter == []


def test_residues_vanish_together_only_at_n_2_to_10_5():
    stream = islice(seq.complementary_bell_residues(), 10**5 + 1)
    assert [n for n, residues in enumerate(stream) if not any(residues)] == [2]


def test_row_accessors_return_copies():
    row = seq.stirling2_row(6)
    row[2] = -1
    col = seq.partial_derangement_column(2, 6)
    col[0] = -1
    pdb = seq.pdb_row(6)
    pdb[0] = -1
    assert seq.stirling2(6, 2) == 31
    assert seq.partial_derangement(2, 2) == 1
    assert seq.pdb_number(6, 0) == seq.deranged_bell(6)


# ----------------------------------------------------------------------
# recurrences as properties


@given(n=st.integers(min_value=1, max_value=40), k=st.integers(min_value=1, max_value=40))
def test_stirling2_recurrence(n, k):
    assert seq.stirling2(n, k) == seq.stirling2(n - 1, k - 1) + k * seq.stirling2(n - 1, k)


@given(
    m=st.integers(min_value=1, max_value=24),
    j=st.integers(min_value=1, max_value=24),
    r=st.integers(min_value=0, max_value=8),
)
def test_r_stirling2_recurrence(m, j, r):
    # Above the base row the r-restricted triangle obeys the same
    # recurrence as the plain one.
    if m <= r:
        assert seq.r_stirling2(m, j, r) == (1 if m == j == r else 0)
    else:
        expected = seq.r_stirling2(m - 1, j - 1, r) + j * seq.r_stirling2(m - 1, j, r)
        assert seq.r_stirling2(m, j, r) == expected


@given(n=st.integers(min_value=2, max_value=60))
def test_derangement_recurrences(n):
    d = seq.derangement
    assert d(n) == n * d(n - 1) + (-1) ** n
    assert d(n) == (n - 1) * (d(n - 1) + d(n - 2))


@given(n=small_n)
def test_bell_binomial_recurrence(n):
    assert seq.bell(n + 1) == sum(math.comb(n, k) * seq.bell(k) for k in range(n + 1))


@given(n=small_n, r=small_r)
def test_r_ordered_bell_shift_recurrence(n, r):
    assert seq.r_ordered_bell(n, r + 1) == 2 * seq.r_ordered_bell(n, r) - r**n


@given(n=small_n, r=small_r)
def test_complementary_r_bell_binomial_form(n, r):
    expected = sum(
        math.comb(n, k) * r**k * seq.complementary_bell(n - k) for k in range(n + 1)
    )
    assert seq.complementary_r_bell(n, r) == expected


def test_complementary_r_bell_binomial_form_to_200():
    # A deterministic sweep: the kernel shares its loop with r_ordered_bell.
    for r in (0, 1, 2, 7, 1000):
        for n in range(201):
            expected = sum(
                math.comb(n, k) * r**k * seq.complementary_bell(n - k) for k in range(n + 1)
            )
            assert seq.complementary_r_bell(n, r) == expected, (n, r)


@given(n=small_n, r=small_r)
def test_pdb_number_definition_sum(n, r):
    expected = sum(
        seq.stirling2(n, k) * seq.partial_derangement(k, r) for k in range(n + 1)
    )
    assert seq.pdb_number(n, r) == expected


@given(n=small_n, r=small_r)
def test_truncated_ordered_bell_partial_sum(n, r):
    expected = sum(
        seq.stirling2(n, k) * math.factorial(k) for k in range(r, n + 1)
    )
    assert seq.truncated_ordered_bell(n, r) == expected


# ----------------------------------------------------------------------
# domain errors and concurrency


@pytest.mark.parametrize(
    "call",
    [
        lambda: seq.stirling2(-1, 0),
        lambda: seq.stirling2(0, -1),
        lambda: seq.r_stirling2(-1, 0, 0),
        lambda: seq.r_stirling2(0, 0, -1),
        lambda: seq.derangement(-1),
        lambda: seq.partial_derangement(-1, 0),
        lambda: seq.partial_derangement(0, -1),
        lambda: seq.bell(-1),
        lambda: seq.complementary_bell(-3),
        lambda: seq.complementary_r_bell(0, -1),
        lambda: seq.ordered_bell(-1),
        lambda: seq.r_ordered_bell(-1, 0),
        lambda: seq.truncated_ordered_bell(-1, 0),
        lambda: seq.deranged_bell(-1),
        lambda: seq.pdb_number(-1, 0),
        lambda: seq.pdb_number(0, -1),
        lambda: seq.pdb_row(-1),
        lambda: seq.stirling2_row(-1),
        lambda: seq.partial_derangement_column(-1, 0),
        lambda: seq.partial_derangement_column(0, -1),
        lambda: seq.truncated_ordered_bell_row(-1),
        lambda: seq.r_ordered_bell_row(-1, 0),
        lambda: seq.r_ordered_bell_row(0, -1),
        lambda: seq.pdb_rows(-1),
        lambda: seq.stirling2_rows(-1),
        lambda: seq.r_stirling2_rows(-1, 0),
        lambda: seq.r_stirling2_rows(0, -1),
        lambda: seq.r_stirling2_rows(0, 0, -1),
        lambda: seq.truncated_ordered_bell_rows(-1),
        lambda: seq.partial_derangement_row(-1),
        lambda: seq.complementary_bell_residues(-1),
    ],
)
def test_negative_arguments_raise(call):
    with pytest.raises(ValueError):
        call()


def test_concurrent_readers_match_single_threaded():
    # The memo tables behind stirling2 may be hit from many threads at
    # once; every reader must see exactly the single-threaded values.  The
    # reference is the explicit formula k! S(n,k) = sum_i (-1)^(k-i) C(k,i) i^n,
    # which reads no memo.
    failures = []

    def worker(shift):
        for n in range(shift, 60, 4):
            for k in range(0, n + 1, 3):
                alternating = sum(
                    (-1) ** (k - i) * math.comb(k, i) * i**n for i in range(k + 1)
                )
                if seq.stirling2(n, k) * math.factorial(k) != alternating:
                    failures.append((n, k))

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert failures == []


def test_concurrent_pdb_readers_match_definition():
    # Four threads read pdb_number at interleaved n, each call building its
    # rencontres column from the shared derangement memo; every value must
    # be the one of the definition.
    max_n = 64
    expected = {
        (n, r): pdb_by_definition(n, r) for n in range(max_n + 1) for r in range(n + 1)
    }
    failures = []

    def worker(shift):
        for n in range(shift, max_n + 1, 4):
            for r in range(n, -1, -1) if shift % 2 else range(n + 1):
                if seq.pdb_number(n, r) != expected[n, r]:
                    failures.append((n, r))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_concurrent_triangle_and_alternating_bell_readers(monkeypatch):
    # Four threads read r_stirling2 and r_ordered_bell for r = 0..6,
    # complementary_bell, the derangements and the order-3 Bernoulli numbers
    # at interleaved indices while fresh triangle, Bell, derangement and
    # Bernoulli memos grow under them; every value must be the
    # single-threaded one.
    max_m, max_r = 60, 6
    expected_stirling = {
        (m, j, r): seq.r_stirling2(m, j, r)
        for m in range(max_m + 1)
        for j in range(m + 2)
        for r in range(max_r + 1)
    }
    expected_comp = [seq.complementary_bell(m) for m in range(max_m + 1)]
    expected_derangements = [seq.derangement(m) for m in range(max_m + 1)]
    expected_bernoulli = [bern.higher_bernoulli(m, 3) for m in range(max_m + 1)]
    expected_ordered = {
        (m, r): seq.r_ordered_bell(m, r) for m in range(max_m + 1) for r in range(max_r + 1)
    }
    monkeypatch.setattr(seq, "_triangles", {})
    monkeypatch.setattr(seq, "_bells", seq._Memo(seq._bells._stream))
    monkeypatch.setattr(seq, "_derangements", seq._Memo(seq._derangements._stream))
    monkeypatch.setattr(bern, "_cache", {})
    failures = []

    def worker(shift):
        for m in range(shift, max_m + 1, 4):
            if seq.complementary_bell(m) != expected_comp[m]:
                failures.append(("comp", m))
            if seq.partial_derangement_column(0, m) != expected_derangements[: m + 1]:
                failures.append(("derangements", m))
            if bern.higher_bernoulli(m, 3) != expected_bernoulli[m]:
                failures.append(("bernoulli", m))
            for r in range(max_r, -1, -1) if shift % 2 else range(max_r + 1):
                if seq.r_ordered_bell(m, r) != expected_ordered[m, r]:
                    failures.append(("ordered", m, r))
                for j in range(m + 2):
                    if seq.r_stirling2(m, j, r) != expected_stirling[m, j, r]:
                        failures.append((m, j, r))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert sorted(seq._triangles) == list(range(max_r + 1))
    assert list(bern._cache) == [3]
