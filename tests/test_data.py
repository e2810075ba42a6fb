"""Tests for distributions, batch sampling, datasets and packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import (
    SyntheticDataset,
    balanced_case_study_batch,
    single_sequence_batch,
    skewed_case_study_batch,
    uniform_batch,
)
from repro.data.distributions import (
    TABLE2_DISTRIBUTIONS,
    LengthBin,
    LengthDistribution,
    available_distributions,
    get_distribution,
)
from repro.data.packing import (
    PackedBuffer,
    chunk_sequence,
    pack_sequences,
    split_evenly,
)
from repro.data.sampler import Batch, BatchSampler, Sequence


class TestDistributions:
    def test_table2_datasets_registered(self):
        for name in ("arxiv", "github", "prolong64k"):
            dist = get_distribution(name)
            assert abs(sum(b.probability for b in dist.bins) - 1.0) < 1e-9

    def test_unknown_distribution_raises(self):
        with pytest.raises(KeyError):
            get_distribution("c4")

    def test_available_lists_both_families(self):
        names = available_distributions()
        assert "arxiv" in names and "fineweb" in names

    def test_github_has_the_longest_tail(self):
        github = get_distribution("github")
        arxiv = get_distribution("arxiv")
        assert github.long_tail_fraction(64 * 1024) > arxiv.long_tail_fraction(64 * 1024)

    def test_sample_lengths_within_bins(self):
        dist = get_distribution("arxiv")
        rng = np.random.default_rng(0)
        for length in dist.sample_lengths(500, rng):
            assert any(b.contains(length) for b in dist.bins)

    def test_unnormalised_bins_rejected(self):
        with pytest.raises(ValueError, match="must sum to 1"):
            LengthDistribution(
                name="bad", bins=(LengthBin(lo=64, hi=128, probability=0.5),)
            )

    def test_mean_length_ordering(self):
        # ProLong64k is dominated by 32-64k documents; ArXiv is mid-length.
        assert (
            TABLE2_DISTRIBUTIONS["prolong64k"].mean_length
            > TABLE2_DISTRIBUTIONS["arxiv"].mean_length
        )


class TestBatchSampler:
    def test_batch_fills_the_budget(self):
        sampler = BatchSampler(get_distribution("arxiv"), total_context=64 * 1024, seed=1)
        batch = sampler.sample_batch()
        assert batch.total_tokens == 64 * 1024

    def test_reproducible_given_seed(self):
        a = BatchSampler(get_distribution("github"), total_context=32768, seed=7).sample_batch()
        b = BatchSampler(get_distribution("github"), total_context=32768, seed=7).sample_batch()
        assert a.lengths == b.lengths

    def test_different_seeds_differ(self):
        a = BatchSampler(get_distribution("github"), total_context=32768, seed=1).sample_batch()
        b = BatchSampler(get_distribution("github"), total_context=32768, seed=2).sample_batch()
        assert a.lengths != b.lengths

    def test_batches_never_overflow_the_budget(self):
        # The last sequence is cut at the budget; under 64 tokens left over
        # ends the batch instead.
        for seed in range(10):
            sampler = BatchSampler(
                get_distribution("github"), total_context=16384, seed=seed
            )
            for batch in sampler.sample_batches(3):
                assert 16384 - 64 < batch.total_tokens <= 16384

    def test_sequence_ids_unique_across_batches(self):
        sampler = BatchSampler(get_distribution("arxiv"), total_context=16384, seed=5)
        batches = sampler.sample_batches(3)
        all_ids = [s.seq_id for b in batches for s in b]
        assert len(all_ids) == len(set(all_ids))

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            BatchSampler(get_distribution("arxiv"), total_context=10)


class TestBatch:
    def test_from_lengths(self):
        batch = Batch.from_lengths([10, 20, 30])
        assert batch.total_tokens == 60
        assert batch.max_length == 30

    def test_sorted_by_length(self):
        batch = Batch.from_lengths([10, 30, 20])
        assert [s.length for s in batch.sorted_by_length()] == [30, 20, 10]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Batch(sequences=(Sequence(0, 5), Sequence(0, 6)))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            Batch(sequences=())


class TestSyntheticDataset:
    def test_batches_match_budget(self):
        ds = SyntheticDataset(name="arxiv", total_context=32768, seed=0)
        for batch in ds.batches(3):
            assert batch.total_tokens == 32768

    def test_case_study_batches(self):
        balanced = balanced_case_study_batch(total_context=131072)
        skewed = skewed_case_study_batch(total_context=131072)
        assert balanced.total_tokens == 131072
        assert skewed.total_tokens == 131072
        # The skewed batch has one dominant sequence (75% of the budget).
        assert skewed.max_length >= 0.7 * 131072
        assert balanced.max_length < 0.7 * 131072

    def test_single_and_uniform_batches(self):
        assert single_sequence_batch(4096).num_sequences == 1
        uni = uniform_batch(4, 1024)
        assert uni.num_sequences == 4 and uni.total_tokens == 4096


class TestPacking:
    def test_chunk_sequence_covers_length(self):
        assert chunk_sequence(10, 3) == [3, 3, 3, 1]
        assert sum(chunk_sequence(12345, 4096)) == 12345

    def test_split_evenly_differences_at_most_one(self):
        parts = split_evenly(103, 8)
        assert sum(parts) == 103
        assert max(parts) - min(parts) <= 1

    def test_pack_first_fit_decreasing(self):
        batch = Batch.from_lengths([3000, 2000, 2000, 1000])
        buffers = pack_sequences(batch, capacity=4096)
        assert sum(b.used for b in buffers) == batch.total_tokens
        assert all(b.used <= 4096 for b in buffers)
        assert len(buffers) == 2

    def test_oversized_sequence_is_split(self):
        batch = Batch.from_lengths([10000])
        buffers = pack_sequences(batch, capacity=4096)
        assert sum(b.used for b in buffers) == 10000

    def test_oversized_fragments_fill_whole_buffers(self):
        buffers = pack_sequences(Batch.from_lengths([10000]), capacity=4096)
        assert [b.used for b in buffers] == [4096, 4096, 1808]
        assert all(b.segments == [(0, b.used)] for b in buffers)

    def test_buffer_overflow_rejected(self):
        buf = PackedBuffer(capacity=100)
        buf.add(0, 80)
        with pytest.raises(ValueError):
            buf.add(1, 30)

    def test_packed_attention_spans_the_whole_buffer(self):
        # The packed kernel's one causal mask covers both segments.
        packed = PackedBuffer(capacity=100)
        packed.add(0, 50)
        packed.add(1, 50)
        assert packed.attention_cost_tokens_sq() == 100**2 / 2

    @settings(max_examples=30, deadline=None)
    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=9000), min_size=1, max_size=30),
        capacity=st.sampled_from([1024, 4096, 8192]),
    )
    def test_property_packing_conserves_tokens(self, lengths, capacity):
        batch = Batch.from_lengths(lengths)
        buffers = pack_sequences(batch, capacity=capacity)
        assert sum(b.used for b in buffers) == sum(lengths)
        assert all(b.used <= capacity for b in buffers)
