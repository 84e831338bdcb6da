"""Exact integer kernels for the sequence families around partitions with
deranged blocks.

Everything is computed with Python's arbitrary precision integers; there is
no floating point anywhere in this module.

The memos behind the kernels may be read from several threads at once.
Each is append-only: an entry, once published, never changes, and growth
happens under a lock.  The dot products below read three of them:

* The Stirling triangles, one per ``r``, grow a whole row at a time.
* ``_derangements`` holds D(0), D(1), ... .
* ``_rencontres`` holds the columns of the rencontres matrix: column ``r``
  lists ``partial_derangement(k, r) = C(k, r) * D(k - r)`` for
  ``k = r, r + 1, ...``.  Each column grows on its own, on demand.

A reader checks the length of the very list it is about to read and grows
that list if it is short; the length of some other row or column says
nothing about it.  Given that, concurrent callers always see the
single-threaded values.

The deranged-block numbers are dot products over these lists:
``pdb_number(n, r)`` is Stirling row ``n`` from ``k = r`` on, times
rencontres column ``r``, summed in C with ``sum(map(mul, ...))``.

Conventions:

* ``stirling2(n, k)`` counts partitions of an n-set into k nonempty blocks.
  Queries with ``k > n`` return 0 without growing any table.
* ``r_stirling2(m, j, r)`` takes display indices directly: it counts
  partitions of an m-set into j blocks in which the elements 1..r occupy
  pairwise distinct blocks.  It is 0 when ``j < r``, ``j > m``, or ``m < r``.
* ``partial_derangement(n, r)`` counts permutations of n items with exactly
  r fixed points; it is 0 for ``r > n``.
* Negative indices are domain errors, never zeros.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from itertools import accumulate
from operator import mul

__all__ = [
    "stirling2",
    "stirling2_row",
    "stirling2_explicit",
    "r_stirling2",
    "derangement",
    "partial_derangement",
    "partial_derangement_column",
    "bell",
    "complementary_bell",
    "complementary_r_bell",
    "ordered_bell",
    "r_ordered_bell",
    "truncated_ordered_bell",
    "truncated_ordered_bell_row",
    "deranged_bell",
    "pdb_number",
    "pdb_row",
]


def _require_nonnegative(**values: int) -> None:
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


class _MemoTriangle:
    """Append-only triangle for T(m, j) = T(m-1, j-1) + j*T(m-1, j).

    Seeded with T(r, r) = 1; row m (m >= r) stores entries j = r..m.  The
    ordinary Stirling triangle is the r = 0 instance.  Rows grow on demand
    under a lock and existing cells are never rewritten.
    """

    def __init__(self, r: int = 0) -> None:
        self.r = r
        self._rows: list[list[int]] = [[1]]
        self._lock = threading.Lock()

    def value(self, m: int, j: int) -> int:
        r = self.r
        if m < r or j < r or j > m:
            return 0
        return self.row(m)[j - r]

    def row(self, m: int) -> list[int]:
        """The memo row m (m >= r), entries j = r..m; callers must not mutate it."""
        if m - self.r >= len(self._rows):
            self._grow(m)
        return self._rows[m - self.r]

    def _grow(self, m: int) -> None:
        with self._lock:
            while len(self._rows) <= m - self.r:
                prev = self._rows[-1]
                row_m = self.r + len(self._rows)
                row = []
                for j in range(self.r, row_m + 1):
                    idx = j - self.r
                    v = prev[idx - 1] if 0 <= idx - 1 < len(prev) else 0
                    if idx < len(prev):
                        v += j * prev[idx]
                    row.append(v)
                self._rows.append(row)


_triangles: dict[int, _MemoTriangle] = {}
_triangles_lock = threading.Lock()


def _triangle(r: int) -> _MemoTriangle:
    tri = _triangles.get(r)
    if tri is None:
        with _triangles_lock:
            tri = _triangles.setdefault(r, _MemoTriangle(r))
    return tri


def stirling2(n: int, k: int) -> int:
    """Stirling partition number: partitions of an n-set into k blocks."""
    _require_nonnegative(n=n, k=k)
    return _triangle(0).value(n, k)


def stirling2_row(n: int) -> list[int]:
    """Row [stirling2(n, 0), ..., stirling2(n, n)], as a fresh list."""
    _require_nonnegative(n=n)
    return list(_triangle(0).row(n))


def stirling2_explicit(n: int, k: int) -> int:
    """Alternating binomial sum for the Stirling partition number.

    Evaluated in exact rationals and normalized to an integer.  Kept as an
    independent cross-check of the recurrence-based triangle.
    """
    _require_nonnegative(n=n, k=k)
    total = sum((-1) ** (k - i) * math.comb(k, i) * i**n for i in range(k + 1))
    value = Fraction(total, math.factorial(k))
    if value.denominator != 1:
        raise ArithmeticError(f"non-integer Stirling value for n={n}, k={k}")
    return value.numerator


def r_stirling2(m: int, j: int, r: int) -> int:
    """Restricted Stirling number with display indices.

    Counts partitions of an m-set into j blocks where elements 1..r lie in
    pairwise distinct blocks.  ``r_stirling2(m, j, 0)`` equals
    ``stirling2(m, j)``.
    """
    _require_nonnegative(m=m, j=j, r=r)
    return _triangle(r).value(m, j)


_derangements: list[int] = [1]
_derangements_lock = threading.Lock()


def _derangements_to(n: int) -> list[int]:
    """The memo list ``_derangements``, grown to hold at least D(0..n)."""
    if n >= len(_derangements):
        with _derangements_lock:
            while len(_derangements) <= n:
                m = len(_derangements)
                _derangements.append(m * _derangements[m - 1] + (-1) ** m)
    return _derangements


def derangement(n: int) -> int:
    """Permutations of n items with no fixed point (1 for n = 0)."""
    _require_nonnegative(n=n)
    return _derangements_to(n)[n]


def partial_derangement(n: int, r: int) -> int:
    """Permutations of n items with exactly r fixed points."""
    _require_nonnegative(n=n, r=r)
    if r > n:
        return 0
    return math.comb(n, r) * derangement(n - r)


_rencontres: list[list[int]] = []
_rencontres_lock = threading.Lock()


def _rencontres_column(r: int, n: int) -> list[int]:
    """Memo column r (r <= n): entry i is C(r + i, r) * D(i), for at least
    i = 0..n - r.  The column may be longer; callers must not mutate it.

    The length test is on column r itself: another column being long enough
    says nothing about this one, which another thread may still be growing.
    """
    cols = _rencontres
    if r < len(cols) and len(cols[r]) > n - r:
        return cols[r]
    with _rencontres_lock:
        while len(cols) <= r:
            cols.append([])
        col = cols[r]
        start = len(col)
        if start <= n - r:
            d = _derangements_to(n - r)
            # One extend with a finished list: a reader sees the column
            # either before or after the new entries, never a gap.
            col.extend([math.comb(r + i, r) * d[i] for i in range(start, n - r + 1)])
    return col


def partial_derangement_column(r: int, n: int) -> list[int]:
    """[partial_derangement(k, r) for k = r..n], as a fresh list ([] if r > n)."""
    _require_nonnegative(n=n, r=r)
    if r > n:
        return []
    return _rencontres_column(r, n)[: n - r + 1]


def _factorials(n: int) -> list[int]:
    """[0!, 1!, ..., n!]."""
    return list(accumulate(range(1, n + 1), mul, initial=1))


def bell(n: int) -> int:
    """Number of partitions of an n-set."""
    _require_nonnegative(n=n)
    return sum(_triangle(0).row(n))


_comp_bell: list[int] = [1]
_comp_bell_lock = threading.Lock()


def complementary_bell(n: int) -> int:
    """Alternating Bell number: sum of (-1)^k * stirling2(n, k) over k."""
    _require_nonnegative(n=n)
    if n >= len(_comp_bell):
        with _comp_bell_lock:
            while len(_comp_bell) <= n:
                m = len(_comp_bell)
                row = _triangle(0).row(m)
                _comp_bell.append(sum(row[0::2]) - sum(row[1::2]))
    return _comp_bell[n]


def complementary_r_bell(n: int, r: int) -> int:
    """Restricted variant of the alternating Bell number.

    Computed from the binomial expansion over cached alternating Bell values,
    so each query is O(n) once the base sequence exists.
    """
    _require_nonnegative(n=n, r=r)
    return sum(
        math.comb(n, k) * r**k * complementary_bell(n - k) for k in range(n + 1)
    )


def ordered_bell(n: int) -> int:
    """Number of ordered partitions (partitions with ordered blocks)."""
    _require_nonnegative(n=n)
    return sum(map(mul, _triangle(0).row(n), _factorials(n)))


def r_ordered_bell(n: int, r: int) -> int:
    """Ordered partitions counted with r distinguished seed elements.

    Defined as the sum over k of ``r_stirling2(n + r, k + r, r) * k!``.
    """
    _require_nonnegative(n=n, r=r)
    return sum(
        r_stirling2(n + r, k + r, r) * math.factorial(k) for k in range(n + 1)
    )


def truncated_ordered_bell(n: int, r: int) -> int:
    """Ordered partitions of an n-set using at least r blocks."""
    _require_nonnegative(n=n, r=r)
    if r > n:
        return 0
    return sum(map(mul, _triangle(0).row(n)[r:], _factorials(n)[r:]))


def truncated_ordered_bell_row(n: int) -> list[int]:
    """Row [truncated_ordered_bell(n, r) for r = 0..n]: suffix sums of
    stirling2(n, k) * k!, so O(n) additions for the whole row."""
    _require_nonnegative(n=n)
    terms = list(map(mul, _triangle(0).row(n), _factorials(n)))
    terms.reverse()
    row = list(accumulate(terms))
    row.reverse()
    return row


def deranged_bell(n: int) -> int:
    """Ordered partitions of an n-set in which no block keeps its position.

    Blocks are written in increasing order of their minima; the count weights
    each k-block partition by the derangement number of k.
    """
    _require_nonnegative(n=n)
    return sum(map(mul, _triangle(0).row(n), _derangements_to(n)))


def pdb_number(n: int, r: int) -> int:
    """Ordered partitions of an n-set with exactly r blocks left in place.

    Blocks are ordered by increasing minima; the count weights each k-block
    partition by the number of permutations of k blocks with exactly r fixed
    positions.  ``pdb_number(n, 0)`` equals ``deranged_bell(n)``.
    """
    _require_nonnegative(n=n, r=r)
    if r > n:
        return 0
    return sum(map(mul, _triangle(0).row(n)[r:], _rencontres_column(r, n)))


def pdb_row(n: int) -> list[int]:
    """Row [pdb_number(n, 0), ..., pdb_number(n, n)]; sums to ordered_bell(n)."""
    _require_nonnegative(n=n)
    row = _triangle(0).row(n)
    return [
        sum(map(mul, row[r:], _rencontres_column(r, n))) for r in range(n + 1)
    ]
