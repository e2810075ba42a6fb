"""Causal-balanced chunk assignment for ring attention (Fig. 6).

Under a lower-triangular (causal) mask, a contiguous even split of a sequence
gives the last rank far more work than the first.  Zeppelin (like striped and
zigzag ring attention) splits each ring sequence into ``2G`` equal chunks and
assigns rank ``i`` the ``i``-th and the ``(2G - 1 - i)``-th chunks, pairing an
early (cheap) chunk with a late (expensive) chunk so every rank performs the
same number of (query, key) pairs up to edge effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from repro.data.packing import split_evenly
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ChunkAssignment:
    """Chunk ownership of one rank within a ring group.

    Attributes
    ----------
    ring_index:
        Position of the rank within the ring (0-based).
    head_chunk:
        ``(start, length)`` of the rank's early chunk (token offsets within the
        sequence).
    tail_chunk:
        ``(start, length)`` of the rank's late chunk.
    """

    ring_index: int
    head_chunk: tuple[int, int]
    tail_chunk: tuple[int, int]

    @property
    def tokens(self) -> int:
        """Total tokens owned by this rank."""
        return self.head_chunk[1] + self.tail_chunk[1]

    @property
    def causal_pairs(self) -> float:
        """Number of (query, key) pairs this rank evaluates under the causal mask.

        Query token at absolute position ``p`` attends to ``p + 1`` keys.
        """
        pairs = 0.0
        for start, length in (self.head_chunk, self.tail_chunk):
            # sum_{p=start}^{start+length-1} (p + 1)
            pairs += length * (start + 1) + length * (length - 1) / 2.0
        return pairs


def _chunk_bounds(seq_len: int, num_chunks: int) -> list[tuple[int, int]]:
    """Split ``seq_len`` tokens into ``num_chunks`` near-equal (start, length) chunks."""
    lengths = split_evenly(seq_len, num_chunks)
    return list(zip(accumulate(lengths, initial=0), lengths))


def zigzag_assignment(seq_len: int, group_size: int) -> list[ChunkAssignment]:
    """Zigzag chunk assignment of a sequence across a ring of ``group_size`` ranks.

    Parameters
    ----------
    seq_len:
        Length of the (portion of the) sequence executed on this ring.
    group_size:
        Ring size ``G``; the sequence is divided into ``2G`` chunks.

    Returns
    -------
    list[ChunkAssignment]
        One assignment per ring index.  Token ownership is a partition of
        ``[0, seq_len)``.
    """
    check_positive("seq_len", seq_len)
    check_positive("group_size", group_size)
    chunks = _chunk_bounds(seq_len, 2 * group_size)
    assignments = []
    for i in range(group_size):
        assignments.append(
            ChunkAssignment(
                ring_index=i,
                head_chunk=chunks[i],
                tail_chunk=chunks[2 * group_size - 1 - i],
            )
        )
    return assignments


def contiguous_assignment(seq_len: int, group_size: int) -> list[ChunkAssignment]:
    """Naive contiguous even split (used as the imbalance baseline in tests).

    Rank ``i`` owns the ``i``-th of ``G`` contiguous chunks; the tail chunk is
    empty.
    """
    check_positive("seq_len", seq_len)
    check_positive("group_size", group_size)
    chunks = _chunk_bounds(seq_len, group_size)
    return [
        ChunkAssignment(ring_index=i, head_chunk=chunks[i], tail_chunk=(chunks[i][0] + chunks[i][1], 0))
        for i in range(group_size)
    ]


def assignment_imbalance(assignments: list[ChunkAssignment]) -> float:
    """Ratio of the heaviest rank's causal work to the mean (1.0 = perfectly balanced)."""
    if not assignments:
        raise ValueError("assignments must be non-empty")
    pairs = [a.causal_pairs for a in assignments]
    mean = sum(pairs) / len(pairs)
    if mean == 0:
        return 1.0
    return max(pairs) / mean
