"""Exact integer kernels for the sequence families around partitions with
deranged blocks.

Everything is computed with Python's arbitrary precision integers; there is
no floating point anywhere in this module.

Each recurrence is written once, as a step of ``_rows``: a generator that
runs it from the state ``[1]`` and reads every state off.  The row streams
(``stirling2_rows``, ``r_stirling2_rows``, ``truncated_ordered_bell_rows``,
``pdb_rows``, ``pdb_row``) read a ``_rows`` stream once and keep only the
state before.  The other kernels read memos, and a
memo (``_Memo``) is the cached prefix of a stream: an append-only list of
its entries, pulled under the memo's own lock.  ``memo.upto(n)`` returns
the list itself, grown until it holds at least entries ``0..n``.  An
entry, once published, never changes; a growth that raises drops the
stream, and the next one restarts it past the entries kept.  The memos
are:

* ``_triangles[r]``: the Stirling triangle for ``r`` (the ordinary one is
  ``r = 0``), made on first use; entry ``i`` is the whole row ``m = r + i``,
  ``j = r..m``, by the step of ``stirling2_rows``.  Only the two-index
  kernels read a triangle, and only ``r_stirling2`` one for ``r > 0``.  No
  table reads ``_triangles``: each two-index table reads a row stream, or
  ``partial_derangement_row`` per n.
* ``_derangements``: D(0), D(1), ... .
* ``_bells``: (bell, complementary_bell, deranged_bell, ordered_bell) at m,
  by the step of ``pdb_rows``.

The memos may be read from several threads at once, under one rule: a
reader calls ``upto`` on the very memo it is about to read, with the
largest index it will read.  The length of some other memo says nothing
about this one, which another thread may still be growing.  The list
returned may be longer than asked and must not be mutated.  Given that,
concurrent callers always see the single-threaded values.

``pdb_number(n, r)`` is Stirling row ``n`` from ``k = r`` on times the
rencontres column ``C(k, r) * D(k - r)``, built per call, summed in C with
``sum(map(mul, ...))``.  A ``truncated_ordered_bell`` cell is read off its
row.  The r-shifted kernels need no triangle: applying ``x^j -> a_j`` to
``(x + r)^n`` gives the one transform ``_shifted``,

    sum_j C(n, j) * r^(n - j) * a_j,

with ``a_j = ordered_bell(j)`` for ``r_ordered_bell`` and ``a_j =
complementary_bell(j)`` for ``complementary_r_bell``.

Whole rows of the ``pdb`` triangle come one from the other, with no
Stirling row at all.  With ``u = e^t - 1`` the rows ``P_n(x) = sum_r
w(n, r) * x^r`` have the EGF ``F = e^((x - 1) * u) / (1 - u)``.  As
``d/dx F = u * F``,

    (1 - d/dx) F = e^((x - 1) * u) = sum_n Q_n(x) * t^n / n!,

where ``Q_n(x) = sum_k S(n, k) * (x - 1)^k`` is the Touchard polynomial at
``x - 1``.  Since ``d/dt e^(y * u) = y * (1 + u) * e^(y * u)``, these rows
obey ``Q_(n+1) = (x - 1) * (Q_n + Q_n')``, and ``P_n`` is read off ``Q_n``
by ``(1 - d/dx)^-1``: with ``q_m`` the coefficient of ``x^m`` in ``Q_n``,
``w(n, m) = q_m + (m + 1) * w(n, m + 1)`` from the top down.  (Together,
``(1 - d/dx) P_(n+1) = (x - 1) * (P_n - P_n'')``.)
``pdb_rows`` carries ``Q_n`` from ``Q_0 = 1``: O(n) small-by-big products
and additions per row.  Like ``stirling2_rows``, which runs the triangle
recurrence, it keeps only the row before and grows no memo, so a whole
table costs memory for one row.

As the paper writes them, the one-index Bell numbers at ``m`` are read off
``Q_m`` and its row ``w(m, .)``: ``bell = Q_m(2)``, ``complementary_bell =
q_0 = w(m, 0) - w(m, 1)`` (the paper's headline identity), ``deranged_bell
= w(m, 0)`` and ``ordered_bell = sum_r w(m, r)``.  ``_bells`` is the
cached prefix of that stream of read-offs and reads no Stirling triangle.

``complementary_bell_residues``, the residue kernel, streams ``phi(n) % p``
for ``phi = complementary_bell`` and the odd primes p <= 31 by Touchard's
congruence at x = -1, ``phi(n + p) = phi(n + 1) - phi(n) (mod p)``, from
exact seeds; a nonzero residue proves ``phi(n) != 0``.

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
from collections import deque
from functools import partial
from itertools import accumulate, chain, count, islice, repeat
from operator import add, lshift, mul, sub
from typing import Any, Callable, Iterator

__all__ = [
    "stirling2",
    "stirling2_row",
    "stirling2_rows",
    "r_stirling2",
    "r_stirling2_rows",
    "derangement",
    "partial_derangement",
    "partial_derangement_column",
    "partial_derangement_row",
    "bell",
    "complementary_bell",
    "complementary_bell_residues",
    "complementary_r_bell",
    "ordered_bell",
    "r_ordered_bell",
    "r_ordered_bell_row",
    "truncated_ordered_bell",
    "truncated_ordered_bell_row",
    "truncated_ordered_bell_rows",
    "deranged_bell",
    "pdb_number",
    "pdb_row",
    "pdb_rows",
]


def _require_nonnegative(**values: int) -> None:
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


class _Memo:
    """Cached prefix of ``stream()``, a zero-argument stream factory."""

    def __init__(self, stream: Callable[[], Iterator[Any]]) -> None:
        self._rows: list = []
        self._stream = stream
        self._tail: Iterator[Any] | None = None
        self._lock = threading.Lock()

    def upto(self, n: int) -> list:
        """The memo list itself, grown to hold at least entries 0..n."""
        rows = self._rows
        if n >= len(rows):
            with self._lock:
                if self._tail is None:
                    self._tail = islice(self._stream(), len(rows), None)
                try:
                    rows.extend(islice(self._tail, max(0, n + 1 - len(rows))))
                except BaseException:
                    # A stream that raised has ended; the next growth restarts it.
                    self._tail = None
                    raise
        return rows


def _triangle_row(r: int, prev: list[int]) -> list[int]:
    # T(m, j) = T(m-1, j-1) + j*T(m-1, j) for the row m after prev, j = r..m.
    return list(map(add, [0, *prev], map(mul, count(r), [*prev, 0])))


def _rows(
    step: Callable[[list[int]], list[int]],
    read: Callable[[list[int]], Any],
    first: int = 0,
    last: int | None = None,
) -> Iterator[Any]:
    """read(s_n) for n = first..last, or without end if last is None, from
    s_0 = [1] by s_(n+1) = step(s_n), only the state before kept.  read
    returns a tuple or a new list, which the caller may change.  The states
    before first are stepped through but not read."""
    state = [1]
    for n in count() if last is None else range(last + 1):
        if n:
            state = step(state)
        if n >= first:
            yield read(state)


_triangles: dict[int, _Memo] = {}


def _row(r: int, m: int) -> list[int]:
    """Row m (m >= r) of triangle r, entries j = r..m; callers must not mutate it."""
    memo = _triangles.get(r)
    if memo is None:
        # setdefault is one atomic dict operation: racing callers all get
        # the memo that was stored first.
        memo = _triangles.setdefault(r, _Memo(lambda: _rows(partial(_triangle_row, r), list.copy)))
    return memo.upto(m - r)[m - r]


def stirling2(n: int, k: int) -> int:
    """Stirling partition number: partitions of an n-set into k blocks."""
    _require_nonnegative(n=n, k=k)
    return _row(0, n)[k] if k <= n else 0


def stirling2_row(n: int) -> list[int]:
    """Row [stirling2(n, 0), ..., stirling2(n, n)], as a fresh list."""
    _require_nonnegative(n=n)
    return list(_row(0, n))


def stirling2_rows(max_n: int, first: int = 0) -> Iterator[list[int]]:
    """Rows stirling2_row(first), ..., stirling2_row(max_n) in turn, each a
    fresh list, by the triangle recurrence with only the row before kept:
    unlike stirling2_row, they grow no memo."""
    return r_stirling2_rows(max_n, 0, first)


def r_stirling2_rows(max_n: int, r: int, first: int = 0) -> Iterator[list[int]]:
    """Rows [r_stirling2(n, j, r) for j = 0..n] for n = first..max_n in turn,
    each a fresh list, by the recurrence of triangle r with only the row
    before kept; the rows n < r are all zeros.  They grow no memo."""
    _require_nonnegative(max_n=max_n, r=r, first=first)
    zeros = ([0] * (n + 1) for n in range(first, min(r, max_n + 1)))
    rows = _rows(partial(_triangle_row, r), partial(add, [0] * r), max(first - r, 0), max_n - r)
    return chain(zeros, rows)


def r_stirling2(m: int, j: int, r: int) -> int:
    """Restricted Stirling number with display indices.

    Counts partitions of an m-set into j blocks where elements 1..r lie in
    pairwise distinct blocks.  ``r_stirling2(m, j, 0)`` equals
    ``stirling2(m, j)``.
    """
    _require_nonnegative(m=m, j=j, r=r)
    return _row(r, m)[j - r] if r <= j <= m else 0


_derangements = _Memo(lambda: accumulate(count(1), lambda d, m: m * d + (-1) ** m, initial=1))


def derangement(n: int) -> int:
    """Permutations of n items with no fixed point (1 for n = 0)."""
    _require_nonnegative(n=n)
    return _derangements.upto(n)[n]


def partial_derangement(n: int, r: int) -> int:
    """Permutations of n items with exactly r fixed points."""
    _require_nonnegative(n=n, r=r)
    if r > n:
        return 0
    return math.comb(n, r) * _derangements.upto(n - r)[n - r]


def partial_derangement_row(n: int) -> list[int]:
    """Row [partial_derangement(n, r) for r = 0..n]: C(n, r) is carried
    across r by the exact step C * (n - r) // (r + 1), one small-by-big
    product and division per cell."""
    _require_nonnegative(n=n)
    binomials = accumulate(range(n), lambda c, r: c * (n - r) // (r + 1), initial=1)
    return list(map(mul, binomials, _derangements.upto(n)[n::-1]))


def partial_derangement_column(r: int, n: int) -> list[int]:
    """[partial_derangement(k, r) for k = r..n], as a fresh list ([] if r > n)."""
    _require_nonnegative(n=n, r=r)
    if r > n:
        return []
    binomials = map(math.comb, range(r, n + 1), repeat(r))
    return list(map(mul, binomials, _derangements.upto(n - r)))


def _bell_entry(q: list[int]) -> tuple[int, int, int, int]:
    """(bell, complementary_bell, deranged_bell, ordered_bell) read off Q_m."""
    w = _pdb_row_of(q)
    return sum(map(lshift, q, count())), q[0], w[0], sum(w)


_bells = _Memo(lambda: _rows(_next_touchard_row, _bell_entry))


def _shifted(n: int, r: int, i: int) -> int:
    """sum_j C(n, j) * r^(n - j) * _bells[j][i]; the weight is carried from
    j = n down, one exact small-integer step each."""
    bells = _bells.upto(n)
    if not r:
        return bells[n][i]
    total, t = 0, 1
    for j in range(n, -1, -1):
        total += t * bells[j][i]
        t = t * j * r // (n - j + 1)
    return total


def bell(n: int) -> int:
    """Number of partitions of an n-set."""
    _require_nonnegative(n=n)
    return _bells.upto(n)[n][0]


def complementary_bell(n: int) -> int:
    """Alternating Bell number: sum of (-1)^k * stirling2(n, k) over k."""
    _require_nonnegative(n=n)
    return _bells.upto(n)[n][1]


def complementary_bell_residues(first: int = 0) -> Iterator[tuple[int, ...]]:
    """The residues of complementary_bell(n) mod the primes 3, 5, ..., 31, a
    tuple per n = first, first + 1, ... without end; all are 0 at n = 2
    alone for n <= 10**6.  Each stream keeps its last p residues."""
    _require_nonnegative(first=first)
    return islice(zip(*map(_residues, (3, 5, 7, 11, 13, 17, 19, 23, 29, 31))), first, None)


def _residues(p: int) -> Iterator[int]:
    window = deque(maxlen=p)
    for n in count():
        window.append((window[1] - window[0]) % p if n >= p else complementary_bell(n) % p)
        yield window[-1]


def complementary_r_bell(n: int, r: int) -> int:
    """Restricted variant of the alternating Bell number: the sum over j of
    ``C(n, j) * r^(n - j) * complementary_bell(j)``, by ``_shifted``."""
    _require_nonnegative(n=n, r=r)
    return _shifted(n, r, 1)


def ordered_bell(n: int) -> int:
    """Number of ordered partitions (partitions with ordered blocks)."""
    _require_nonnegative(n=n)
    return _bells.upto(n)[n][3]


def r_ordered_bell(n: int, r: int) -> int:
    """Ordered partitions counted with r distinguished seed elements.

    Defined as the sum over k of ``r_stirling2(n + r, k + r, r) * k!``, and
    computed as the sum over j of ``C(n, j) * r^(n - j) * ordered_bell(j)``
    by ``_shifted``, the transform ``complementary_r_bell`` also reads.
    """
    _require_nonnegative(n=n, r=r)
    return _shifted(n, r, 3)


def r_ordered_bell_row(n: int, max_r: int) -> list[int]:
    """Row [r_ordered_bell(n, r) for r = 0..max_r] by the shift recurrence
    r_ordered_bell(n, r + 1) = 2 * r_ordered_bell(n, r) - r^n, which follows
    from F_(r+1) = e^t * F_r for the EGFs F_r in n: one power and one
    subtraction per cell, where ``r_ordered_bell`` is a sum of n + 1 terms.
    The first cell is ``ordered_bell(n)``, read off Q_n with no Stirling
    triangle."""
    _require_nonnegative(n=n, max_r=max_r)
    first = ordered_bell(n)
    return list(accumulate(range(max_r), lambda v, r: 2 * v - r**n, initial=first))


def truncated_ordered_bell(n: int, r: int) -> int:
    """Ordered partitions of an n-set using at least r blocks."""
    _require_nonnegative(n=n, r=r)
    return truncated_ordered_bell_row(n)[r] if r <= n else 0


def truncated_ordered_bell_row(n: int) -> list[int]:
    """Row [truncated_ordered_bell(n, r) for r = 0..n]: suffix sums of
    stirling2(n, k) * k!, so O(n) additions for the whole row."""
    _require_nonnegative(n=n)
    return _suffix_sums_of(_row(0, n))


def truncated_ordered_bell_rows(max_n: int, first: int = 0) -> Iterator[list[int]]:
    """Rows truncated_ordered_bell_row(first), ..., (max_n) in turn, each
    read off its row of ``stirling2_rows``: they grow no memo."""
    return map(_suffix_sums_of, stirling2_rows(max_n, first))


def _suffix_sums_of(s: list[int]) -> list[int]:
    """Suffix sums of s[k] * k! over the Stirling row s, from the top down."""
    terms = list(map(mul, s, accumulate(range(1, len(s)), mul, initial=1)))
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
    return _bells.upto(n)[n][2]


def pdb_number(n: int, r: int) -> int:
    """Ordered partitions of an n-set with exactly r blocks left in place.

    Blocks are ordered by increasing minima; the count weights each k-block
    partition by the number of permutations of k blocks with exactly r fixed
    positions.  ``pdb_number(n, 0)`` equals ``deranged_bell(n)``.
    """
    _require_nonnegative(n=n, r=r)
    if r > n:
        return 0
    return sum(map(mul, _row(0, n)[r:], partial_derangement_column(r, n)))


def pdb_row(n: int) -> list[int]:
    """Row [pdb_number(n, 0), ..., pdb_number(n, n)]; sums to ordered_bell(n).

    The last row of ``pdb_rows(n)``, read off ``Q_n`` alone: O(n^2)
    small-by-big operations in all, with no Stirling row read.  Each call
    reruns Q_0..Q_n, so a loop over n should iterate ``pdb_rows`` instead:
    O(n^2) in all rather than O(n^3).
    """
    _require_nonnegative(n=n)
    return next(_rows(_next_touchard_row, _pdb_row_of, n))


def pdb_rows(max_n: int, first: int = 0) -> Iterator[list[int]]:
    """Rows pdb_row(first), ..., pdb_row(max_n) in turn, each a fresh list.

    The coefficients q = (q_0..q_n) of Q_n = (1 - d/dx) P_n (see the module
    docstring) become those of Q_(n+1) in two passes: g_j = q_j + (j + 1) *
    q_(j+1), then g_(j-1) - g_j for j = 0..n + 1, with g_(-1) = g_(n+1) = 0.
    Each row is read off its q from the top down: w(n, m) = q_m + (m + 1) *
    w(n, m + 1), from w(n, n + 1) = 0.  Only the q before is kept, and the
    rows before first are not read off.
    """
    _require_nonnegative(max_n=max_n, first=first)
    return _rows(_next_touchard_row, _pdb_row_of, first, max_n)


def _next_touchard_row(q: list[int]) -> list[int]:
    g = list(map(add, q, map(mul, count(1), [*q[1:], 0])))
    return list(map(sub, [0, *g], [*g, 0]))


def _pdb_row_of(q: list[int]) -> list[int]:
    w = q.copy()
    acc = 0
    for m in range(len(w) - 1, -1, -1):
        acc = w[m] + (m + 1) * acc
        w[m] = acc
    return w
