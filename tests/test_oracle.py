"""Brute-force enumeration oracle over set partitions and block permutations."""

import itertools

import pytest
from hypothesis import given, strategies as st

from pdbell import oracle
from pdbell import sequences as seq
from pdbell.oracle import (
    DEFAULT_CAP,
    CapExceededError,
    PartitionRGS,
    brute_bell,
    brute_complementary_bell,
    brute_ordered_bell,
    brute_partial_derangement,
    brute_pdb,
    brute_pdb_row,
    brute_stirling2,
    enumerate_partitions,
    is_valid_rgs,
)


# ----------------------------------------------------------------------
# restricted growth strings


def test_rgs_validity():
    assert is_valid_rgs(())
    assert is_valid_rgs((0,))
    assert is_valid_rgs((0, 0, 1, 1, 2))
    assert not is_valid_rgs((1,))  # must start at 0
    assert not is_valid_rgs((0, 2))  # jumps past 1 + prefix max
    assert not is_valid_rgs((0, -1))


def test_enumeration_order_n3():
    got = [p.rgs for p in enumerate_partitions(3)]
    assert got == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (0, 1, 2),
    ]


def test_enumeration_n0_single_empty_partition():
    parts = list(enumerate_partitions(0))
    assert len(parts) == 1
    assert parts[0].rgs == ()
    assert parts[0].block_count == 0
    assert parts[0].blocks == ()


def test_enumeration_counts_and_uniqueness_to_10():
    for n in range(11):
        seen = set()
        for part in enumerate_partitions(n, DEFAULT_CAP):
            assert is_valid_rgs(part.rgs)
            assert part.rgs not in seen
            seen.add(part.rgs)
        assert len(seen) == seq.bell(n)


def test_enumerate_partitions_validates_what_it_yields(monkeypatch):
    parts = list(enumerate_partitions(5))
    assert len(parts) == 52
    assert all(type(part) is PartitionRGS and is_valid_rgs(part.rgs) for part in parts)
    # Every yielded partition goes through the validating constructor.
    monkeypatch.setattr(oracle, "is_valid_rgs", lambda values: False)
    with pytest.raises(ValueError, match="not a restricted growth string"):
        next(enumerate_partitions(3))


def test_tallies_equal_counts_over_validated_partitions():
    # The counts read block counts off the walk; the public stream, validated
    # partition by partition, must give the same tallies.
    for n in range(9):
        by_blocks, by_fixed = [0] * (n + 1), [0] * (n + 1)
        for part in enumerate_partitions(n):
            by_blocks[part.block_count] += 1
            for r, count in enumerate(oracle._fixed_point_tally(part.block_count)):
                by_fixed[r] += count
        assert oracle._tallies(n) == (tuple(by_blocks), tuple(by_fixed)), n


def test_blocks_are_min_ordered_and_partition_the_set():
    for n in range(7):
        for part in enumerate_partitions(n):
            blocks = part.blocks
            assert len(blocks) == part.block_count
            minima = [b[0] for b in blocks]
            assert minima == sorted(minima)
            assert sorted(x for b in blocks for x in b) == list(range(1, n + 1))


def test_blocks_specific():
    part = PartitionRGS((0, 0, 1, 1, 2))
    assert part.blocks == ((1, 2), (3, 4), (5,))
    assert part.block_count == 3


def test_filtered_block_count():
    two_block = [p for p in enumerate_partitions(4) if p.block_count == 2]
    assert len(two_block) == 7


# ----------------------------------------------------------------------
# fixed-block classification


def test_single_partition_fixed_block_tally():
    # Blocks (1,2),(3,4),(5): the 6 permutations of three blocks split
    # by fixed count as 2,3,0,1; no permutation fixes exactly two.
    part = PartitionRGS((0, 0, 1, 1, 2))
    k = part.block_count
    tally = [0] * (k + 1)
    for perm in itertools.permutations(range(k)):
        fixed = sum(1 for i in range(k) if perm[i] == i)
        tally[fixed] += 1
    assert tally == [2, 3, 0, 1]
    assert tally[k - 1] == 0


def test_no_permutation_fixes_all_but_one_block():
    for n in range(1, 7):
        for part in enumerate_partitions(n):
            k = part.block_count
            for perm in itertools.permutations(range(k)):
                fixed = sum(1 for i in range(k) if perm[i] == i)
                assert fixed != k - 1


def test_brute_pdb_row_frozen():
    assert brute_pdb_row(0) == [1]
    assert brute_pdb_row(1) == [0, 1]
    assert brute_pdb_row(2) == [1, 1, 1]
    assert brute_pdb_row(3) == [5, 4, 3, 1]


def test_brute_pdb_row_matches_literal_pair_count_to_7():
    # Reference: every block permutation of every partition, one at a time.
    for n in range(8):
        tally = [0] * (n + 1)
        for part in enumerate_partitions(n):
            k = part.block_count
            indices = range(k)
            for perm in itertools.permutations(indices):
                fixed = 0
                for i in indices:
                    if perm[i] == i:
                        fixed += 1
                tally[fixed] += 1
        assert brute_pdb_row(n) == tally


def test_brute_pdb_all_blocks_fixed_is_unique():
    for n in range(7):
        assert brute_pdb(n, n) == 1


def test_brute_pdb_out_of_range_r():
    assert brute_pdb(3, 7) == 0
    with pytest.raises(ValueError):
        brute_pdb(3, -1)


# ----------------------------------------------------------------------
# agreement with the closed-form kernel


def test_brute_matches_kernel_to_7():
    for n in range(8):
        assert brute_pdb_row(n) == seq.pdb_row(n)
        assert brute_bell(n) == seq.bell(n)
        assert brute_complementary_bell(n) == seq.complementary_bell(n)
        assert brute_ordered_bell(n) == seq.ordered_bell(n)
        for k in range(n + 2):
            assert brute_stirling2(n, k) == seq.stirling2(n, k)
        for r in range(n + 1):
            assert brute_partial_derangement(n, r) == seq.partial_derangement(n, r)


def test_brute_pdb_row_sums_to_ordered_bell():
    for n in range(8):
        assert sum(brute_pdb_row(n)) == brute_ordered_bell(n)


def test_brute_partial_derangement_never_fixes_all_but_one():
    for k in range(1, 8):
        assert brute_partial_derangement(k, k - 1) == 0


# ----------------------------------------------------------------------
# resource caps


def test_default_caps():
    assert DEFAULT_CAP == 10


def test_cap_exceeded_errors():
    with pytest.raises(CapExceededError):
        list(enumerate_partitions(7, cap=6))
    with pytest.raises(CapExceededError):
        brute_pdb_row(9, cap=8)
    with pytest.raises(CapExceededError):
        brute_partial_derangement(11, 0)


def test_cap_above_hard_limit_rejected():
    # Raising the cap beyond the hard limit is itself an error, with a
    # cost estimate in the message.
    with pytest.raises(CapExceededError) as exc:
        list(enumerate_partitions(4, cap=11))
    assert "3628800" in str(exc.value)
    with pytest.raises(CapExceededError):
        brute_partial_derangement(3, 0, cap=11)


def test_negative_arguments_raise():
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))
    with pytest.raises(ValueError):
        brute_partial_derangement(-1, 0)
    with pytest.raises(ValueError):
        brute_partial_derangement(0, -1)
    with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
        brute_stirling2(3, -1)


@given(n=st.integers(min_value=0, max_value=6))
def test_partition_stream_is_replayable(n):
    # Two independent consumers of the generator see identical streams.
    first = [p.rgs for p in enumerate_partitions(n)]
    second = [p.rgs for p in enumerate_partitions(n)]
    assert first == second
