"""Invariants of ``Session.compare`` that hold for every configuration.

Over random GPU counts (multiples of 8 from 16 to 64, including node counts
that do not divide the context), contexts and seeds, the paper's four
strategies must all plan and simulate the same batches, report the same
``total_tokens``, and Zeppelin's partition must place every token of the
batch exactly once.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import DEFAULT_COMPARISON, Session


@settings(max_examples=25, deadline=None)
@given(
    num_gpus=st.sampled_from(range(16, 65, 8)),
    total_context=st.integers(16 * 1024, 64 * 1024),
    seed=st.integers(0, 2**16),
)
# The shrunk counterexample: 16 ranks do not divide 16385 tokens.  The
# per-rank budget used to round down, leaving the cluster one token short of
# the batch, and planning raised ``CapacityError``.
@example(num_gpus=16, total_context=16 * 1024 + 1, seed=0)
# The cluster an elastic shrink from 32 GPUs leaves behind at 32k tokens.
@example(num_gpus=24, total_context=32 * 1024, seed=0)
def test_compare_plans_every_configuration(num_gpus, total_context, seed):
    session = Session(
        model="3b",
        num_gpus=num_gpus,
        total_context=total_context,
        num_steps=1,
        seed=seed,
    )
    result = session.compare(DEFAULT_COMPARISON)
    assert [run.strategy for run in result] == list(DEFAULT_COMPARISON)
    batch_tokens = sum(batch.total_tokens for batch in session.batches)
    assert {run.total_tokens for run in result} == {batch_tokens}
    assert all(run.tokens_per_second > 0 for run in result)
    zeppelin = session.strategy("zeppelin")
    for batch in session.batches:
        placed = zeppelin.partition(batch).tokens_per_rank()
        assert sum(placed.values()) == batch.total_tokens
