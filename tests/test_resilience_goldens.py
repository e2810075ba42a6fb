"""Recorded resilience goldens: ``ResilienceResult.to_dict()`` of fixed runs.

``fixtures/resilience_goldens.json`` pins, field for field, every point of
``fig13_resilience.run(seed=s)`` at its defaults (seeds 0 and 1) and one
elastic ``Session.run`` whose NIC degradations start mid-run, so that the
resilience driver's iteration cache misses on factor states that change
while the run is under way.  Floats are stored as JSON numbers,
which round-trip exactly, so any change of a simulated time, goodput or
restart count fails here.  After a deliberate change of resilience outcomes,
re-record with::

    PYTHONPATH=src python tests/test_resilience_goldens.py --record
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import Any

import pytest

from repro.api import Session
from repro.experiments import fig13_resilience

GOLDENS = Path(__file__).parent / "fixtures" / "resilience_goldens.json"

FIG13_SEEDS = (0, 1)

# Two nodes, one failure: elastic recovery finishes on the survivor.  The
# short horizon puts the NIC degradation onsets inside the run, so the
# iteration cache misses on new factor states mid-run.
ELASTIC_SESSION = dict(model="3b", num_gpus=16, total_context=32 * 1024, num_steps=2)
ELASTIC_PERTURBATION = {
    "horizon_s": 10.0,
    "mttf_s": 20.0,
    "max_failures": 1,
    "straggler_frac": 0.125,
    "nic_degrade_frac": 0.5,
}
ELASTIC_KEY = "session/3b-16gpu-32k-s0/zeppelin/elastic"


def _plain(result_dict: dict[str, Any]) -> dict[str, Any]:
    """The JSON form the goldens store (tuples become lists)."""
    return json.loads(json.dumps(result_dict))


@functools.lru_cache(maxsize=None)
def fig13_cases(seed: int) -> dict[str, dict[str, Any]]:
    """Every point of the default fig13 grid at ``seed``, keyed by its axes."""
    result = fig13_resilience.run(seed=seed)
    return {
        "fig13/seed={}/mttf={}/{}/{}".format(seed, *key): _plain(res)
        for key, res in result.extra.items()
        if key != "sweep_meta"
    }


def elastic_case() -> dict[str, Any]:
    session = Session(**ELASTIC_SESSION)
    result = session.run(
        "zeppelin",
        perturbation=ELASTIC_PERTURBATION,
        recovery="elastic",
        num_iterations=24,
    )
    return _plain(result.to_dict())


@pytest.fixture(scope="module")
def goldens() -> dict[str, dict[str, Any]]:
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("seed", FIG13_SEEDS)
def test_fig13_matches_recorded_goldens(goldens, seed):
    cases = fig13_cases(seed)
    assert len(cases) == 18
    for key, observed in cases.items():
        assert observed == goldens[key], f"{key}: resilience outcome changed"


def test_elastic_mid_run_degradation_matches_recorded_golden(goldens):
    observed = elastic_case()
    assert observed["restart_count"] == 1 and observed["final_num_nodes"] == 1
    assert observed == goldens[ELASTIC_KEY]


def test_goldens_cover_every_case(goldens):
    expected = {key for seed in FIG13_SEEDS for key in fig13_cases(seed)}
    assert set(goldens) == expected | {ELASTIC_KEY}


def record() -> None:
    cases: dict[str, dict[str, Any]] = {}
    for seed in FIG13_SEEDS:
        cases.update(fig13_cases(seed))
    cases[ELASTIC_KEY] = elastic_case()
    GOLDENS.write_text(json.dumps(cases, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(cases)} resilience results to {GOLDENS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_resilience_goldens.py --record")
    record()
