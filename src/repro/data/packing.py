"""Sequence packing and chunking utilities.

These implement the *input-balanced pack* baseline (Fig. 2.a): sequences are
packed into fixed-capacity buffers (first-fit-decreasing) or chunked so that
every rank receives the same number of tokens.  Packing balances linear-module
work perfectly, but the naive packed kernel's single causal mask wastes
attention compute on cross-sequence positions — the inefficiency Fig. 3.a
quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.sampler import Batch
from repro.utils.validation import check_positive


@dataclass
class PackedBuffer:
    """A fixed-capacity buffer holding (fragments of) packed sequences.

    Attributes
    ----------
    capacity:
        Token capacity of the buffer.
    segments:
        ``(seq_id, length)`` pairs in packing order.  A sequence split across
        buffers appears in several buffers with the same ``seq_id``.
    """

    capacity: int
    segments: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_positive("capacity", self.capacity)

    @property
    def used(self) -> int:
        """Tokens currently packed into the buffer."""
        return sum(length for _, length in self.segments)

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def add(self, seq_id: int, length: int) -> None:
        """Pack ``length`` tokens of sequence ``seq_id`` into this buffer."""
        check_positive("length", length)
        if length > self.free:
            raise ValueError(
                f"segment of {length} tokens does not fit: only {self.free} free"
            )
        self.segments.append((seq_id, length))

    def attention_cost_tokens_sq(self) -> float:
        """Causal-attention cost of this buffer in units of tokens^2.

        The naive packed-attention kernel treats the whole buffer as one causal
        sequence, so the cost is ``used^2 / 2`` whatever its segments.
        """
        return self.used**2 / 2.0


def pack_sequences(batch: Batch, capacity: int) -> list[PackedBuffer]:
    """Pack a batch into fixed-capacity buffers using first-fit-decreasing.

    Sequences longer than ``capacity`` are split into capacity-sized
    fragments.

    Parameters
    ----------
    batch:
        The input batch.
    capacity:
        Per-buffer token capacity (typically the per-rank token budget).

    Returns
    -------
    list[PackedBuffer]
        Buffers in creation order; every token of the batch appears in exactly
        one buffer segment.
    """
    check_positive("capacity", capacity)
    buffers: list[PackedBuffer] = []

    def place(seq_id: int, length: int) -> None:
        for buf in buffers:
            if buf.free >= length:
                buf.add(seq_id, length)
                return
        buf = PackedBuffer(capacity=capacity)
        buf.add(seq_id, length)
        buffers.append(buf)

    for seq in batch.sorted_by_length(descending=True):
        if seq.length > capacity:
            for fragment in chunk_sequence(seq.length, capacity):
                place(seq.seq_id, fragment)
        else:
            place(seq.seq_id, seq.length)
    return buffers


def chunk_sequence(length: int, chunk_size: int) -> list[int]:
    """Split ``length`` tokens into chunks of at most ``chunk_size`` tokens.

    The final chunk carries the remainder.  All chunks are non-empty and sum to
    ``length``.
    """
    check_positive("length", length)
    check_positive("chunk_size", chunk_size)
    chunks = []
    remaining = length
    while remaining > 0:
        take = min(chunk_size, remaining)
        chunks.append(take)
        remaining -= take
    return chunks


def split_evenly(length: int, parts: int) -> list[int]:
    """Split ``length`` tokens into ``parts`` near-equal chunks (all non-negative).

    Chunks differ by at most one token; chunks may be zero only when
    ``parts > length``.
    """
    check_positive("length", length)
    check_positive("parts", parts)
    base = length // parts
    extra = length % parts
    return [base + (1 if i < extra else 0) for i in range(parts)]
