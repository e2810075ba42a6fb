"""Tests for the causal-balanced zigzag chunk assignment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunking import (
    assignment_imbalance,
    contiguous_assignment,
    zigzag_assignment,
)


class TestZigzagAssignment:
    def test_tokens_partition_the_sequence(self):
        assignments = zigzag_assignment(1000, 4)
        assert sum(a.tokens for a in assignments) == 1000

    def test_rank0_owns_first_and_last_chunks(self):
        assignments = zigzag_assignment(160, 4)
        a0 = assignments[0]
        assert a0.head_chunk[0] == 0
        assert a0.tail_chunk[0] + a0.tail_chunk[1] == 160

    def test_chunks_do_not_overlap(self):
        assignments = zigzag_assignment(97, 3)
        covered = set()
        for a in assignments:
            for start, length in (a.head_chunk, a.tail_chunk):
                span = set(range(start, start + length))
                assert not (covered & span)
                covered |= span
        assert covered == set(range(97))

    def test_causal_pairs_are_balanced(self):
        assignments = zigzag_assignment(8192, 8)
        assert assignment_imbalance(assignments) < 1.05

    def test_total_pairs_equal_causal_total(self):
        seq = 777
        assignments = zigzag_assignment(seq, 5)
        total = sum(a.causal_pairs for a in assignments)
        assert total == pytest.approx(seq * (seq + 1) / 2)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            zigzag_assignment(0, 4)
        with pytest.raises(ValueError):
            zigzag_assignment(100, 0)


class TestContiguousAssignment:
    def test_contiguous_is_more_imbalanced_than_zigzag(self):
        zig = assignment_imbalance(zigzag_assignment(4096, 8))
        contig = assignment_imbalance(contiguous_assignment(4096, 8))
        assert contig > zig
        # With a causal mask the last contiguous chunk does ~2x the average work.
        assert contig > 1.5

    def test_tokens_still_partition(self):
        assignments = contiguous_assignment(513, 4)
        assert sum(a.tokens for a in assignments) == 513


class TestChunkingProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        seq=st.integers(min_value=1, max_value=100000),
        group=st.integers(min_value=1, max_value=32),
    )
    def test_property_partition_and_pair_conservation(self, seq, group):
        """Tokens and causal pairs are conserved; the 2G chunks tile the
        sequence in order, and the first ``seq % 2G`` of them carry one
        extra token."""
        assignments = zigzag_assignment(seq, group)
        assert sum(a.tokens for a in assignments) == seq
        total_pairs = sum(a.causal_pairs for a in assignments)
        assert total_pairs == pytest.approx(seq * (seq + 1) / 2)
        chunks = [a.head_chunk for a in assignments]
        chunks += [a.tail_chunk for a in reversed(assignments)]
        base, extra = divmod(seq, 2 * group)
        assert [length for _, length in chunks] == [
            base + (c < extra) for c in range(2 * group)
        ]
        starts = [start for start, _ in chunks]
        ends = [start + length for start, length in chunks]
        assert starts == [0] + ends[:-1]
        assert ends[-1] == seq

    @settings(max_examples=30, deadline=None)
    @given(
        group=st.integers(min_value=2, max_value=16),
        mult=st.integers(min_value=8, max_value=64),
    )
    def test_property_zigzag_is_near_balanced_for_divisible_lengths(self, group, mult):
        seq = 2 * group * mult
        assignments = zigzag_assignment(seq, group)
        assert assignment_imbalance(assignments) < 1.2
