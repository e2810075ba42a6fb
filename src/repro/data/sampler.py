"""Batch construction: sample sequence lengths until a context budget is filled.

The paper's evaluation fixes a *total context length* per iteration (64k, 128k
or 256k tokens, i.e. 4k tokens per GPU) and samples sequence lengths
proportionally to the dataset distribution until the budget is filled (§5,
"batch sequence lengths sampled proportionally to dataset distributions").
:class:`BatchSampler` reproduces that protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.data.distributions import LengthDistribution
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class Sequence:
    """A single training sequence, identified by ``seq_id`` with ``length`` tokens."""

    seq_id: int
    length: int

    def __post_init__(self) -> None:
        check_positive("length", self.length)


@dataclass(frozen=True)
class Batch:
    """One global batch: the set of sequences processed in a training iteration."""

    sequences: tuple[Sequence, ...]
    dataset: str = "synthetic"

    def __post_init__(self) -> None:
        if not self.sequences:
            raise ValueError("a batch must contain at least one sequence")
        ids = [s.seq_id for s in self.sequences]
        if len(ids) != len(set(ids)):
            raise ValueError("sequence ids within a batch must be unique")

    @property
    def total_tokens(self) -> int:
        """Total number of tokens in the batch."""
        return sum(s.length for s in self.sequences)

    @property
    def num_sequences(self) -> int:
        return len(self.sequences)

    @property
    def lengths(self) -> tuple[int, ...]:
        """Sequence lengths in batch order."""
        return tuple(s.length for s in self.sequences)

    @property
    def max_length(self) -> int:
        return max(s.length for s in self.sequences)

    def sorted_by_length(self, descending: bool = True) -> tuple[Sequence, ...]:
        """Sequences sorted by length (descending by default, as in Alg. 1)."""
        return tuple(
            sorted(self.sequences, key=lambda s: s.length, reverse=descending)
        )

    def __iter__(self) -> Iterator[Sequence]:
        return iter(self.sequences)

    def __len__(self) -> int:
        return len(self.sequences)

    @staticmethod
    def from_lengths(lengths: list[int] | tuple[int, ...], dataset: str = "synthetic") -> "Batch":
        """Build a batch from a plain list of lengths (ids assigned in order)."""
        return Batch(
            sequences=tuple(Sequence(seq_id=i, length=int(l)) for i, l in enumerate(lengths)),
            dataset=dataset,
        )


@dataclass
class BatchSampler:
    """Samples batches whose total token count matches a context budget.

    When the final sampled sequence would overflow the budget, it is truncated
    to exactly fill the budget, matching how training recipes cut documents at
    the context boundary.

    Parameters
    ----------
    distribution:
        The dataset length distribution to sample from.
    total_context:
        Target number of tokens per batch (the paper's total sequence length,
        e.g. 64k for 16 GPUs at 4k tokens per GPU).
    seed:
        RNG seed; batches are reproducible given the same seed.
    """

    distribution: LengthDistribution
    total_context: int
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    _next_id: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive("total_context", self.total_context)
        if self.total_context < 64:
            raise ValueError("total_context must be at least 64 tokens")
        self._rng = np.random.default_rng(self.seed)

    def sample_batch(self) -> Batch:
        """Draw one batch filling (approximately) the context budget."""
        remaining = self.total_context
        sequences: list[Sequence] = []
        # Cap iterations defensively: the shortest bin is >= 64 tokens so a
        # budget of T tokens needs at most T/64 sequences.
        max_draws = self.total_context // 64 + 16
        for _ in range(max_draws):
            if remaining <= 0:
                break
            length = self.distribution.sample_lengths(1, self._rng)[0]
            if length > remaining:
                if remaining < 64:
                    break
                length = remaining
            sequences.append(Sequence(seq_id=self._next_id, length=length))
            self._next_id += 1
            remaining -= length
        if not sequences:
            # The budget is smaller than any sampled sequence: emit one
            # truncated sequence so callers always get a valid batch.
            sequences.append(Sequence(seq_id=self._next_id, length=self.total_context))
            self._next_id += 1
        return Batch(sequences=tuple(sequences), dataset=self.distribution.name)

    def sample_batches(self, count: int) -> list[Batch]:
        """Draw ``count`` consecutive batches."""
        check_positive("count", count)
        return [self.sample_batch() for _ in range(count)]
