"""Recorded plan goldens: every strategy's one-layer plans, task for task.

Each entry of ``fixtures/plan_goldens.json`` is a SHA-256 over every task of
one plan — its name, kind, exact duration bits, resources, dependencies, rank
and priority — so an optimisation of the planners that changes any emitted
task fails here, without keeping a second frozen planner as an oracle.

Zeppelin's remapping LP is pinned to the greedy solver so the goldens do not
depend on the installed HiGHS release; ``tests/test_core_remapping.py``
checks the LP itself.  After a deliberate change of the emitted plans,
re-record with::

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

GOLDENS = Path(__file__).parent / "fixtures" / "plan_goldens.json"

SESSIONS = {
    "7b-128gpu-128k-s0": dict(
        model="7b", num_gpus=128, total_context=128 * 1024, dataset="arxiv", seed=0
    ),
    "3b-16gpu-64k-s0": dict(model="3b", num_gpus=16, total_context=64 * 1024, seed=0),
    "3b-16gpu-64k-s1": dict(model="3b", num_gpus=16, total_context=64 * 1024, seed=1),
    "3b-64gpu-64k-s0": dict(model="3b", num_gpus=64, total_context=64 * 1024, seed=0),
    "3b-64gpu-64k-s1": dict(model="3b", num_gpus=64, total_context=64 * 1024, seed=1),
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
}

PHASES = ("forward", "backward")


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


@functools.lru_cache(maxsize=1)
def _session(session_name: str) -> Session:
    # One session at a time: the 128-GPU batch is only needed by its cases.
    return Session(num_steps=1, **SESSIONS[session_name])


def case_digests(session_name: str, label: str) -> dict[str, str]:
    """Both phases' digests of one (session, strategy) case, cold planner."""
    session = _session(session_name)
    name, kwargs = STRATEGIES[label]
    strategy = registry.STRATEGIES.get(name).obj(session.context, **kwargs)
    batch = session.batches[0]
    return {
        f"{session_name}/{label}/{phase}": plan_digest(
            strategy.plan_layer(batch, phase=phase)
        )
        for phase in PHASES
    }


def _cases() -> list[tuple[str, str]]:
    return [(s, label) for s in SESSIONS for label in STRATEGIES]


@pytest.fixture(scope="module")
def goldens() -> dict[str, str]:
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("session_name,label", _cases())
def test_plans_match_recorded_goldens(goldens, session_name, label):
    for key, digest in case_digests(session_name, label).items():
        assert digest == goldens[key], f"{key}: emitted plan changed"


def test_goldens_cover_every_case(goldens):
    expected = {
        f"{s}/{label}/{phase}" for s, label in _cases() for phase in PHASES
    }
    assert set(goldens) == expected


def record() -> None:
    digests: dict[str, str] = {}
    for session_name, label in _cases():
        digests.update(case_digests(session_name, label))
    GOLDENS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} plan digests to {GOLDENS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_plan_goldens.py --record")
    record()
