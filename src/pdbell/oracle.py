"""Brute-force enumeration oracle.

Set partitions are enumerated as restricted growth strings (RGS): a sequence
a_1..a_n with a_1 = 0 and a_{i+1} <= 1 + max(a_1..a_i).  Element i belongs to
block a_i; numbering blocks by first appearance lists them in increasing
order of their minima, which is the canonical block order everywhere in this
package.  Orderings of a partition are permutations of that canonical block
list, visited in lexicographic order.

Everything here counts literally, one partition or permutation at a time,
with no formulas, so these functions are an independent ground truth for the
sequence kernels.  There is one walk over the restricted growth strings of
length n (``_walk``).  The counts read block counts straight off it, while
``enumerate_partitions``, the public stream, wraps the same walk and
validates every :class:`PartitionRGS` it yields.  The orderings of a
partition depend only on its block count k, so the pairs are tallied by
adding, for each partition with k blocks, the fixed-point tally of the k!
permutations of [k], which is enumerated once per k.  At n = 10 that is
115975 partitions and 3628800 permutations, hence the hard cap.
Enumeration streams are single-consumer generators.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import eq
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "DEFAULT_CAP",
    "CapExceededError",
    "PartitionRGS",
    "is_valid_rgs",
    "enumerate_partitions",
    "brute_pdb_row",
    "brute_pdb",
    "brute_partial_derangement",
    "brute_stirling2",
    "brute_bell",
    "brute_complementary_bell",
    "brute_ordered_bell",
]

DEFAULT_CAP = 10

_COST_HINT = (
    "the enumeration visits every partition of [n] and, once per block "
    "count k, every permutation of [k] (115975 partitions and 3628800 "
    "permutations at n = 10)"
)


class CapExceededError(RuntimeError):
    """Requested enumeration is larger than the configured cap allows."""


def _check_cap(n: int, cap: int, what: str) -> None:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if cap > DEFAULT_CAP:
        raise CapExceededError(
            f"cap {cap} exceeds the hard limit {DEFAULT_CAP}; {_COST_HINT}"
        )
    if n > cap:
        raise CapExceededError(f"{what}: n = {n} exceeds cap {cap}; {_COST_HINT}")


def is_valid_rgs(values: tuple[int, ...]) -> bool:
    """True when the tuple is a restricted growth string."""
    top = -1
    for i, a in enumerate(values):
        if a < 0 or a > top + 1:
            return False
        if i == 0 and a != 0:
            return False
        top = max(top, a)
    return True


class _RGS(NamedTuple):
    rgs: tuple[int, ...]


class PartitionRGS(_RGS):
    """A set partition in restricted growth string form; every construction,
    ``_replace`` included, is validated."""

    __slots__ = ()

    def __new__(cls, rgs: tuple[int, ...]) -> PartitionRGS:
        if not is_valid_rgs(rgs):
            raise ValueError(f"not a restricted growth string: {rgs!r}")
        return tuple.__new__(cls, (rgs,))

    @classmethod
    def _make(cls, iterable: Iterable[tuple[int, ...]]) -> PartitionRGS:
        return cls(*iterable)

    @property
    def block_count(self) -> int:
        return max(self.rgs) + 1 if self.rgs else 0

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as 1-based element tuples, in increasing order of minima."""
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for i, a in enumerate(self.rgs, start=1):
            out[a].append(i)
        return tuple(tuple(b) for b in out)


def _walk(n: int) -> Iterator[tuple[list[int], int]]:
    """Every restricted growth string of length n, in lexicographic order,
    with its block count; the string is one list, changed between yields."""
    if n == 0:
        yield [], 0
        return
    a = [0] * n
    mx = [0] * n  # mx[i] = max(a[0..i])
    while True:
        yield a, mx[-1] + 1
        i = n - 1
        while i > 0 and a[i] > mx[i - 1]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        mx[i] = max(mx[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            mx[j] = mx[i]


def enumerate_partitions(n: int, cap: int = DEFAULT_CAP) -> Iterator[PartitionRGS]:
    """Yield all partitions of an n-set in lexicographic RGS order, each one
    validated as a :class:`PartitionRGS` is."""
    _check_cap(n, cap, "enumerate_partitions")
    for a, _ in _walk(n):
        yield PartitionRGS(tuple(a))


@lru_cache(maxsize=32)
def _fixed_point_tally(n: int) -> tuple[int, ...]:
    tally = [0] * (n + 1)
    ident = range(n)
    for perm in itertools.permutations(ident):
        tally[sum(map(eq, perm, ident))] += 1
    return tuple(tally)


@lru_cache(maxsize=64)
def _tallies(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Partitions of [n] by block count, read off one walk, and (partition,
    block permutation) pairs by fixed blocks."""
    by_blocks = [0] * (n + 1)
    for _, k in _walk(n):
        by_blocks[k] += 1
    by_fixed = [0] * (n + 1)
    for k, partitions in enumerate(by_blocks):
        # The k! orderings of each partition with k blocks, by fixed blocks.
        for r, count in enumerate(_fixed_point_tally(k)):
            by_fixed[r] += partitions * count
    return tuple(by_blocks), tuple(by_fixed)


def brute_pdb_row(n: int, cap: int = DEFAULT_CAP) -> list[int]:
    """Tally every (partition, block permutation) pair of [n] by fixed blocks.

    Entry r counts the pairs in which the permutation keeps exactly r blocks
    of the canonical min-ordered block list in place.
    """
    _check_cap(n, cap, "brute_pdb_row")
    return list(_tallies(n)[1])


def brute_pdb(n: int, r: int, cap: int = DEFAULT_CAP) -> int:
    """Count ordered partitions of [n] with exactly r blocks left in place."""
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    _check_cap(n, cap, "brute_pdb")
    if r > n:
        return 0
    return _tallies(n)[1][r]


def brute_partial_derangement(n: int, r: int, cap: int = DEFAULT_CAP) -> int:
    """Count permutations of [n] with exactly r fixed points, one by one."""
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    _check_cap(n, cap, "brute_partial_derangement")
    if r > n:
        return 0
    return _fixed_point_tally(n)[r]


def brute_stirling2(n: int, k: int, cap: int = DEFAULT_CAP) -> int:
    """Count partitions of [n] with exactly k blocks by enumeration."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    _check_cap(n, cap, "brute_stirling2")
    return _tallies(n)[0][k] if k <= n else 0


def brute_bell(n: int, cap: int = DEFAULT_CAP) -> int:
    """Count all partitions of [n] by enumeration."""
    _check_cap(n, cap, "brute_bell")
    return sum(_tallies(n)[0])


def brute_complementary_bell(n: int, cap: int = DEFAULT_CAP) -> int:
    """Sum (-1)**block_count over all partitions of [n]."""
    _check_cap(n, cap, "brute_complementary_bell")
    return sum((-1) ** k * c for k, c in enumerate(_tallies(n)[0]))


def brute_ordered_bell(n: int, cap: int = DEFAULT_CAP) -> int:
    """Count (partition, block permutation) pairs of [n].

    Sums the tally of :func:`brute_pdb_row`, which counts each pair once.
    """
    _check_cap(n, cap, "brute_ordered_bell")
    return sum(_tallies(n)[1])
