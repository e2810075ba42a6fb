"""Recorded plan goldens: every strategy's one-layer plans, task for task.

Each entry of ``fixtures/plan_goldens.json`` is a SHA-256 over every task of
one plan — its name, kind, exact duration bits, resources, dependencies, rank
and priority — so an optimisation of the planners that changes any emitted
task fails here, without keeping a second frozen planner as an oracle.

Zeppelin's remapping LP is pinned to the greedy solver so the goldens do not
depend on the installed HiGHS release; ``tests/test_core_remapping.py``
checks the LP itself.  Beside the strategies' plans, one direct case runs the
attention engine's ring emitter on a short ring (fewer tokens than ranks, so
some hops carry nothing) that crosses a node boundary and waits on a barrier.
Every plan must also intern its resources in first-use order, so the digests
pin the compiled resource ids too.  After a deliberate change of the emitted
plans, re-record with::

    PYTHONPATH=src python tests/test_plan_goldens.py --record
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import registry
from repro.api import Session
from repro.core.attention_engine import RingGroup
from repro.core.chunking import zigzag_assignment
from repro.core.partitioner import RingSpec
from repro.core.plan import ExecutionPlan, TaskKind
from repro.core.zones import Zone

GOLDENS = Path(__file__).parent / "fixtures" / "plan_goldens.json"

SESSIONS = {
    "7b-128gpu-128k-s0": dict(
        model="7b", num_gpus=128, total_context=128 * 1024, dataset="arxiv", seed=0
    ),
    "3b-16gpu-64k-s0": dict(model="3b", num_gpus=16, total_context=64 * 1024, seed=0),
    "3b-16gpu-64k-s1": dict(model="3b", num_gpus=16, total_context=64 * 1024, seed=1),
    "3b-64gpu-64k-s0": dict(model="3b", num_gpus=64, total_context=64 * 1024, seed=0),
    "3b-64gpu-64k-s1": dict(model="3b", num_gpus=64, total_context=64 * 1024, seed=1),
    "3b-32gpu-64k-s0-clusterB": dict(
        model="3b", num_gpus=32, total_context=64 * 1024, seed=0, cluster_preset="B"
    ),
    "3b-32gpu-64k-s0-clusterC": dict(
        model="3b", num_gpus=32, total_context=64 * 1024, seed=0, cluster_preset="C"
    ),
    "7b-32gpu-64k-s0-tp2": dict(
        model="7b", num_gpus=32, total_context=64 * 1024, seed=0, tensor_parallel=2
    ),
}

STRATEGIES = {
    "te_cp": ("te_cp", {}),
    "te_cp+routing": ("te_cp", {"use_routing": True}),
    "llama_cp": ("llama_cp", {}),
    "hybrid_dp": ("hybrid_dp", {}),
    "zeppelin": ("zeppelin", {"remap_solver": "greedy"}),
    "zeppelin-contiguous": (
        "zeppelin",
        {"balanced_chunking": False, "remap_solver": "greedy"},
    ),
    "zeppelin-noremap": ("zeppelin", {"use_remapping": False}),
    # Fig. 11's "w/ Attn Eng" bar: partitioning and the attention engine only.
    "zeppelin-attn-eng": (
        "zeppelin",
        {"use_routing": False, "use_remapping": False},
    ),
    "packing": ("packing", {}),
}

PHASES = ("forward", "backward")

# The direct ring case: ranks 4-11 of the 16-GPU Cluster A session span both
# nodes, and 3 tokens over 8 ranks leave five ranks without tokens.
RING_CASE = "3b-16gpu-ring4to11-seq3"
RING_SESSION = "3b-16gpu-64k-s0"
RING_RANKS = tuple(range(4, 12))
RING_SEQ_LEN = 3


def plan_digest(plan) -> str:
    """SHA-256 over every task's identity, with durations compared bit for bit."""
    h = hashlib.sha256()
    for t in plan.tasks:
        row = (
            t.name,
            t.kind.value,
            float(t.duration_s).hex(),
            tuple(t.resources),
            tuple(t.deps),
            t.rank,
            t.priority,
        )
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def first_use_order(plan) -> list[str]:
    """Resource names in the order the plan's tasks first hold them."""
    order: dict[str, None] = {}
    for t in plan.tasks:
        order.update(dict.fromkeys(t.resources))
    return list(order)


@functools.lru_cache(maxsize=1)
def _session(session_name: str) -> Session:
    # One session at a time: the 128-GPU batch is only needed by its cases.
    return Session(num_steps=1, **SESSIONS[session_name])


def _strategy(session_name: str, label: str):
    name, kwargs = STRATEGIES[label]
    return registry.STRATEGIES.get(name).obj(_session(session_name).context, **kwargs)


def case_plans(session_name: str, label: str) -> dict[str, ExecutionPlan]:
    """Both phases' plans of one (session, strategy) case, cold planner."""
    strategy = _strategy(session_name, label)
    batch = _session(session_name).batches[0]
    return {
        f"{session_name}/{label}/{phase}": strategy.plan_layer(batch, phase=phase)
        for phase in PHASES
    }


def ring_case_plans() -> dict[str, tuple[ExecutionPlan, dict[int, list[int]]]]:
    """Both phases of Zeppelin's ring emitter on the direct ring case, with
    the attention task ids it reports per rank."""
    strategy = _strategy(RING_SESSION, "zeppelin")
    group = RingGroup(
        spec=RingSpec(
            ring_id=0,
            seq_id=0,
            zone=Zone.INTER_NODE,
            ranks=RING_RANKS,
            seq_len=RING_SEQ_LEN,
        ),
        assignments=tuple(zigzag_assignment(RING_SEQ_LEN, len(RING_RANKS))),
    )
    cases = {}
    for phase in PHASES:
        plan = ExecutionPlan(name=f"ring:{phase}")
        barrier = plan.add("barrier", TaskKind.OTHER, 0.0)
        rank_tasks: dict[int, list[int]] = {r: [] for r in strategy.cluster.iter_ranks()}
        strategy.engine.emit_ring(
            plan,
            group,
            strategy.spec,
            *strategy.phase_factors(phase),
            rank_tasks,
            initial_deps=(barrier,),
        )
        cases[f"{RING_CASE}/zeppelin/{phase}"] = (plan, rank_tasks)
    return cases


def ring_case_digest(plan: ExecutionPlan, rank_tasks: dict[int, list[int]]) -> str:
    h = hashlib.sha256(plan_digest(plan).encode())
    h.update(repr(sorted(rank_tasks.items())).encode())
    return h.hexdigest()


def _cases() -> list[tuple[str, str]]:
    return [(s, label) for s in SESSIONS for label in STRATEGIES]


@pytest.fixture(scope="module")
def goldens() -> dict[str, str]:
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("session_name,label", _cases())
def test_plans_match_recorded_goldens(goldens, session_name, label):
    for key, plan in case_plans(session_name, label).items():
        assert plan_digest(plan) == goldens[key], f"{key}: emitted plan changed"
        assert list(plan.resource_index) == first_use_order(plan), key


def test_ring_case_matches_recorded_golden(goldens):
    for key, (plan, rank_tasks) in ring_case_plans().items():
        assert ring_case_digest(plan, rank_tasks) == goldens[key], key
        assert list(plan.resource_index) == first_use_order(plan), key


def test_goldens_cover_every_case(goldens):
    expected = {
        f"{s}/{label}/{phase}" for s, label in _cases() for phase in PHASES
    } | {f"{RING_CASE}/zeppelin/{phase}" for phase in PHASES}
    assert set(goldens) == expected


def record() -> None:
    digests: dict[str, str] = {}
    for session_name, label in _cases():
        for key, plan in case_plans(session_name, label).items():
            digests[key] = plan_digest(plan)
    for key, (plan, rank_tasks) in ring_case_plans().items():
        digests[key] = ring_case_digest(plan, rank_tasks)
    GOLDENS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} plan digests to {GOLDENS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_plan_goldens.py --record")
    record()
