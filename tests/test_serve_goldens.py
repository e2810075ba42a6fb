"""Recorded serve goldens: every request of a fixed grid of serving runs.

Each entry of ``fixtures/serve_goldens.json`` is a SHA-256 over one run's
``ServeResult.to_json()`` and, per request, its rid, strategy, exact
arrival/start/finish stamps (``float.hex``) and how it was served.  An
optimisation of the serve hot path (queue, admission, batcher, driver) that
changes any admission, dispatch or shedding decision fails here, without
keeping a second frozen driver as an oracle.

The grid covers every admission policy, coalescing under an SLO, trace and
closed-loop arrivals, autoscaling and a run with the result cache off.  The
mix avoids Zeppelin, whose default remapping LP depends on the installed
HiGHS release.  After a deliberate change of serving results, re-record
with::

    PYTHONPATH=src python tests/test_serve_goldens.py --record
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import Session
from repro.serve.arrivals import RequestCell
from repro.serve.driver import ServeSimulation
from repro.serve.spec import ServeSpec

GOLDENS = Path(__file__).parent / "fixtures" / "serve_goldens.json"

SEEDS = (0, 1)

MIX = {"te_cp": 2.0, "llama_cp": 1.0, "hybrid_dp": 1.0}
PRIORITY_MIX = (
    RequestCell("te_cp", weight=2.0),
    RequestCell("llama_cp", priority=1),
    RequestCell("hybrid_dp"),
)
# The hybrid_dp cell pins its own GPU count, so every capacity the
# autoscaler visits resolves it to the same execution identity.
AUTOSCALE_MIX = (
    RequestCell("te_cp", weight=2.0),
    RequestCell("llama_cp"),
    RequestCell("hybrid_dp", overrides={"num_gpus": 16}),
)
TRACE_TIMES = tuple(0.05 * i for i in range(20)) + (1.0, 1.0, 1.01, 1.5)

SPECS = {
    "fifo": ServeSpec(mix=MIX, rate=40.0, duration_s=3.0),
    "priority": ServeSpec(
        mix=PRIORITY_MIX,
        rate=40.0,
        duration_s=3.0,
        admission="priority",
        concurrency=2,
    ),
    "fifo-coalesce-slo": ServeSpec(
        mix=MIX, rate=40.0, duration_s=3.0, coalesce_s=0.1, slo_s=0.5
    ),
    "slo_aware": ServeSpec(
        mix=MIX,
        rate=60.0,
        duration_s=3.0,
        admission="slo_aware",
        slo_s=2.0,
        concurrency=2,
    ),
    "trace": ServeSpec(
        mix=MIX,
        arrival="trace",
        trace_times=TRACE_TIMES,
        trace_period=2.0,
        duration_s=4.0,
    ),
    "closed-fifo": ServeSpec(
        mix=MIX, arrival="closed", clients=16, think_time_s=0.1, duration_s=3.0
    ),
    "closed-slo_aware-autoscale": ServeSpec(
        mix=AUTOSCALE_MIX,
        arrival="closed",
        clients=32,
        think_time_s=0.2,
        duration_s=12.0,
        concurrency=2,
        max_batch=2,
        admission="slo_aware",
        slo_s=3.0,
        scale_policy="queue_depth",
        min_gpus=16,
        max_gpus=64,
    ),
    "fifo-cache-off": ServeSpec(mix=MIX, rate=20.0, duration_s=3.0, cache=False),
}


def _stamp(value: float | None) -> str | None:
    return None if value is None else float(value).hex()


def serve_digest(sim: ServeSimulation) -> str:
    """SHA-256 over the run's result JSON and every request's exact stamps."""
    h = hashlib.sha256(sim.run().to_json().encode())
    for r in sim.requests:
        row = (
            r.rid,
            r.cell.strategy,
            _stamp(r.arrival_s),
            _stamp(r.start_s),
            _stamp(r.finish_s),
            r.served_by,
        )
        h.update(b"\n")
        h.update(repr(row).encode())
    return h.hexdigest()


@functools.lru_cache(maxsize=1)
def _session(seed: int) -> Session:
    return Session(
        model="3b",
        num_gpus=16,
        dataset="arxiv",
        total_context=32 * 1024,
        num_steps=1,
        seed=seed,
    )


def case_digest(spec_name: str, seed: int) -> str:
    return serve_digest(ServeSimulation(_session(seed), spec=SPECS[spec_name]))


def _cases() -> list[tuple[str, int]]:
    return [(name, seed) for seed in SEEDS for name in SPECS]


@pytest.fixture(scope="module")
def goldens() -> dict[str, str]:
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("spec_name,seed", _cases())
def test_serve_runs_match_recorded_goldens(goldens, spec_name, seed):
    key = f"{spec_name}/s{seed}"
    assert case_digest(spec_name, seed) == goldens[key], f"{key}: serving changed"


def test_goldens_cover_every_case(goldens):
    assert set(goldens) == {f"{name}/s{seed}" for name, seed in _cases()}


def record() -> None:
    digests = {f"{name}/s{seed}": case_digest(name, seed) for name, seed in _cases()}
    GOLDENS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} serve digests to {GOLDENS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_serve_goldens.py --record")
    record()
