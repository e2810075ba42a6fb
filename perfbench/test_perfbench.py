"""Tests of the benchmark itself, on small versions of its workloads."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.layers import OTHER
from perfbench.rep import measure
from perfbench.workloads import (
    WORKLOADS,
    CompareWorkload,
    ResilienceWorkload,
    ServeWorkload,
    digest,
)

ROOT = Path(__file__).resolve().parent.parent

SMALL_COMPARE = CompareWorkload(
    "compare-small",
    "test",
    model="3b",
    num_gpus=16,
    total_context=16 * 1024,
    dataset="arxiv",
    strategies=("te_cp", "llama_cp", "hybrid_dp", "zeppelin"),
)
SMALL_SERVE = ServeWorkload(
    "serve-small",
    "test",
    model="3b",
    num_gpus=16,
    total_context=16 * 1024,
    spec={
        "arrival": "closed",
        "clients": 32,
        "think_time_s": 0.2,
        "duration_s": 3.0,
        "concurrency": 4,
        "slo_s": 2.0,
        "admission": "slo_aware",
        "scale_policy": "queue_depth",
        "min_gpus": 8,
        "max_gpus": 32,
    },
)
SMALL_OPEN = ServeWorkload(
    "serve-open-small",
    "test",
    model="3b",
    num_gpus=16,
    total_context=16 * 1024,
    spec={"duration_s": 2.0, "concurrency": 16, "max_batch": 64},
    paced_rate=200.0,
)


class Exploding(CompareWorkload):
    def prepare(self, seed):
        prepared = super().prepare(seed)

        def run():
            raise RuntimeError("boom")

        return dataclasses.replace(prepared, run=run)


def _summary(workload, records, recorded=None, trace=False):
    """``run.summarize`` over in-process records, at the reference host speed."""
    for record in records:
        record.setdefault("probe_s", bench.REFERENCE_PROBE_S)
    return bench.summarize(workload, records[0]["seed"], trace, records, recorded)


def _counts(record):
    return {
        name: value
        for name, value in record["layers"]["metrics"].items()
        if bench.metric_unit(name) == "count"
    }


@pytest.mark.parametrize(
    "workload", [SMALL_COMPARE, SMALL_SERVE], ids=lambda w: w.name
)
def test_one_seed_repeats_inputs_digest_and_counts(workload):
    first = measure(workload, 3, trace=True)
    second = measure(workload, 3, trace=True)
    assert first["error"] is None and not first["violations"]
    assert (first["inputs"], first["digest"]) == (second["inputs"], second["digest"])
    assert _summary(workload, [first, second], trace=True)["failed"] == 0
    assert _counts(first) == _counts(second)
    other = measure(workload, 4, trace=False)
    assert other["inputs"] != first["inputs"]


def test_paced_arrivals_follow_the_seed():
    times = SMALL_OPEN.arrival_times(1)
    assert times == SMALL_OPEN.arrival_times(1) != SMALL_OPEN.arrival_times(2)
    assert len(times) == 400
    assert all(i / 200 <= t < (i + 1) / 200 for i, t in enumerate(times))
    summary = _summary(SMALL_OPEN, [measure(SMALL_OPEN, 1, trace=False)])
    assert (summary["attempted"], summary["failed"]) == (400, 0)


def test_a_run_can_cover_consecutive_seeds():
    two = ServeWorkload(
        "two-seeds",
        "test",
        model="3b",
        num_gpus=16,
        total_context=16 * 1024,
        spec=SMALL_OPEN.spec,
        paced_rate=200.0,
        seeds_per_run=2,
    )
    assert two.sub_seeds(3) == [6, 7] and SMALL_OPEN.sub_seeds(3) == [3]
    record = measure(two, 3, trace=False)
    assert (_summary(two, [record])["failed"], record["attempted"]) == (0, 800)
    assert record["inputs"] != measure(SMALL_OPEN, 6, trace=False)["inputs"]


@pytest.mark.parametrize(
    "workload", [SMALL_COMPARE, SMALL_SERVE, SMALL_OPEN], ids=lambda w: w.name
)
def test_traced_and_untraced_digests_match(workload):
    untraced = measure(workload, 0, trace=False)
    traced = measure(workload, 0, trace=True)
    assert traced["digest"] == untraced["digest"]
    rows = traced["layers"]["rows"]
    self_total = sum(row[2] for row in rows.values())
    assert self_total == pytest.approx(traced["wall_s"], rel=1e-9)
    assert rows[OTHER][1] == traced["wall_s"]
    metrics = traced["layers"]["metrics"]
    assert metrics["core.plan.tasks"] > 0 and metrics["sim.batch.lanes"] > 0
    served = 0 if workload is SMALL_COMPARE else untraced["attempted"]
    assert metrics["serve.driver.requests"] == served


def test_a_changed_result_field_fails_the_check():
    from repro.api import Session

    prepared = SMALL_COMPARE.prepare(0)
    result = prepared.run()
    before = digest([SMALL_COMPARE.fields(result)])
    runs = list(result.runs)
    runs[-1] = dataclasses.replace(
        runs[-1], tokens_per_second=runs[-1].tokens_per_second * (1 + 1e-12)
    )
    changed = dataclasses.replace(result, runs=tuple(runs))
    assert digest([SMALL_COMPARE.fields(changed)]) != before
    record = measure(SMALL_COMPARE, 0, trace=False)
    assert record["digest"] == before
    summary = _summary(SMALL_COMPARE, [record], recorded="0" * 64)
    assert summary["problems"] and summary["failed"] == summary["attempted"] == 4
    assert _summary(SMALL_COMPARE, [record], recorded=before)["failed"] == 0

    session = Session(model="3b", num_gpus=16, total_context=16 * 1024, num_steps=1)
    served = session.serve("zeppelin", rate=20.0, duration_s=1.0)
    assert SMALL_SERVE.check(served) == []
    lost = dataclasses.replace(served, completed=served.completed - 1)
    assert SMALL_SERVE.check(lost)
    assert SMALL_SERVE.check(
        dataclasses.replace(served, p95_latency_s=served.p99_latency_s + 1.0)
    )


def test_a_raising_workload_is_counted_failed_and_the_next_still_runs():
    exploding = Exploding(
        "exploding",
        "test",
        model="3b",
        num_gpus=16,
        total_context=16 * 1024,
        dataset="arxiv",
        strategies=("te_cp", "zeppelin"),
    )
    failed = measure(exploding, 0, trace=True)
    assert "RuntimeError: boom" in failed["error"]
    healthy = measure(SMALL_COMPARE, 0, trace=False)
    assert healthy["error"] is None
    summaries = [_summary(exploding, [failed]), _summary(SMALL_COMPARE, [healthy])]
    assert [(s["attempted"], s["failed"]) for s in summaries] == [(2, 2), (4, 0)]
    line = bench.result_line(summaries)
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (6, 2)
    wall = line["metrics"]["compare-small/wall_s"]["value"]
    assert wall == healthy["wall_s"] * bench.host_factor(healthy) > 0


def test_no_result_cache_entries_are_left_behind(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.chdir(tmp_path)
    workload = ResilienceWorkload(
        "resilience-small",
        "test",
        num_gpus=16,
        total_context=32 * 1024,
        num_iterations=8,
    )
    record = measure(workload, 0, trace=True)
    assert record["error"] is None and not record["violations"]
    assert record["attempted"] == 18
    assert list(cache_dir.iterdir()) == []
    assert not (tmp_path / ".repro_cache").exists()


def test_a_crashed_repetition_counts_every_seed_it_would_have_run(
    tmp_path, monkeypatch
):
    crashing = tmp_path / "rep.py"
    crashing.write_text("raise SystemExit(3)\n")
    monkeypatch.setattr(bench, "REP_SCRIPT", crashing)
    monkeypatch.setattr(bench, "PROBE_ROUNDS", 1)
    workload = WORKLOADS["resilience-32"]
    record = bench.spawn(workload, 5, False, bench.rep_environment(str(tmp_path)))
    assert "exit code 3" in record["error"] and record["probe_s"] > 0
    summary = bench.summarize(workload, 5, False, [record], recorded=None)
    expected = len(workload.sub_seeds(5)) * workload.operations(None)
    assert summary["attempted"] == summary["failed"] == expected == 36


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    record = measure(SMALL_COMPARE, 0, trace=True)
    reported = [*record["layers"]["metrics"], "obs.tracing_overhead"]
    assert [m["name"] for m in spec["per_layer"]] == reported
    assert all(m["unit"] == bench.metric_unit(m["name"]) for m in spec["per_layer"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare-128"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
