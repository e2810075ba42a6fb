"""Tests for repro.exec: sweep specs, backends, caching and results."""

import json

import pytest

from repro.api import Session
from repro.exec import (
    ProcessBackend,
    ResultCache,
    SerialBackend,
    SweepPoint,
    SweepResult,
    SweepSpec,
    point_key,
    resolve_backend,
    run_sweep,
)
from repro.registry import BACKENDS, EXPERIMENTS
from repro.results import ResilienceResult, RunResult, result_from_dict

# A grid small enough for the suite: 1-node cluster cells simulate in ~100ms.
SMALL_BASE = {"model": "3b", "num_gpus": 16, "total_context": 16 * 1024, "num_steps": 1}


class TestSweepSpecExpansion:
    def test_cartesian_order_rightmost_fastest(self):
        spec = SweepSpec(axes={"a": (1, 2), "b": ("x", "y")})
        combos = [(p["a"], p["b"]) for p in spec]
        assert combos == [(1, "x"), (1, "y"), (2, "x"), (2, "y")]

    def test_base_merged_and_overridden_by_axes(self):
        spec = SweepSpec(base={"a": 0, "c": "keep"}, axes={"a": (1,), "b": (2,)})
        point = spec.points()[0]
        assert point["a"] == 1 and point["b"] == 2 and point["c"] == "keep"

    def test_zip_axes_iterate_in_lockstep(self):
        spec = SweepSpec(
            axes={"m": ("s", "l"), "g": (8, 16), "d": ("a", "b")},
            zip_axes=(("m", "g"),),
        )
        combos = [(p["m"], p["g"], p["d"]) for p in spec]
        assert combos == [
            ("s", 8, "a"), ("s", 8, "b"), ("l", 16, "a"), ("l", 16, "b"),
        ]

    def test_zip_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatched lengths"):
            SweepSpec(axes={"m": ("s",), "g": (8, 16)}, zip_axes=(("m", "g"),))

    def test_zip_unknown_axis_raises(self):
        with pytest.raises(ValueError, match="unknown axis"):
            SweepSpec(axes={"m": ("s",)}, zip_axes=(("m", "nope"),))

    def test_where_filters_combinations(self):
        spec = SweepSpec(
            axes={"a": (1, 2, 3), "b": (1, 2, 3)},
            where=lambda v: v["a"] < v["b"],
        )
        assert all(p["a"] < p["b"] for p in spec)
        assert len(spec) == 3

    def test_derived_fields_materialised(self):
        spec = SweepSpec(
            axes={"num_gpus": (8, 16)},
            derived={"total_context": lambda v: 4096 * v["num_gpus"]},
        )
        assert [p["total_context"] for p in spec] == [8 * 4096, 16 * 4096]

    def test_derived_collision_raises(self):
        with pytest.raises(ValueError, match="collides"):
            SweepSpec(axes={"a": (1,)}, derived={"a": lambda v: 2})

    def test_empty_axis_raises(self):
        with pytest.raises(ValueError, match="no values"):
            SweepSpec(axes={"a": ()})
        with pytest.raises(ValueError, match="at least one axis"):
            SweepSpec(axes={})

    def test_bare_string_axis_raises(self):
        with pytest.raises(ValueError, match="bare string"):
            SweepSpec(axes={"dataset": "arxiv"})

    def test_describe_reports_shape(self):
        spec = SweepSpec(axes={"a": (1, 2), "b": (1, 2, 3)})
        assert "a[2]" in spec.describe() and "6 points" in spec.describe()


class TestSweepPoint:
    def test_field_split(self):
        point = SweepPoint(
            {"model": "3b", "num_gpus": 16, "strategy": "te_cp", "mylabel": "x"}
        )
        assert point.session_fields() == {"model": "3b", "num_gpus": 16}
        assert point.run_fields() == {"strategy": "te_cp"}
        assert point.tags() == {"mylabel": "x"}

    def test_canonical_json_excludes_tags_and_sorts(self):
        a = SweepPoint({"strategy": "te_cp", "model": "3b", "tag": 1})
        b = SweepPoint({"model": "3b", "strategy": "te_cp", "tag": 2})
        assert a.canonical_json() == b.canonical_json()
        assert "tag" not in a.canonical_json()

    def test_non_jsonable_value_raises(self):
        with pytest.raises(TypeError, match="JSON-representable"):
            SweepPoint({"model": object()}).to_dict()

    def test_values_frozen(self):
        point = SweepPoint({"model": "3b"})
        with pytest.raises(TypeError):
            point.values["model"] = "7b"


class TestBackendsRegistry:
    def test_builtin_backends_listed(self):
        assert set(BACKENDS.names()) >= {"serial", "process"}
        assert BACKENDS.get("serial").description

    def test_resolve_backend_picks_by_jobs(self):
        assert resolve_backend(None, jobs=1).name == "serial"
        assert resolve_backend(None, jobs=4).name == "process"
        assert resolve_backend("serial", jobs=4).name == "serial"
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SerialBackend(jobs=0)

    def test_observability_defaults_empty(self):
        assert SerialBackend().observability() == {}


class TestProcessChunksize:
    """Large grids must not degenerate to chunksize 1 (one IPC per point)."""

    def test_targets_about_four_chunks_per_worker(self):
        assert ProcessBackend.chunksize(64, 4) == 4
        assert ProcessBackend.chunksize(1000, 8) == 32

    def test_capped_so_stragglers_cannot_hold_the_tail(self):
        assert ProcessBackend.chunksize(100_000, 4) == 32

    def test_small_grids_floor_at_one(self):
        assert ProcessBackend.chunksize(3, 8) == 1
        assert ProcessBackend.chunksize(1, 1) == 1


class TestRunSweep:
    @pytest.fixture(scope="class")
    def spec(self):
        return SweepSpec(
            base=SMALL_BASE,
            axes={"dataset": ("arxiv",), "strategy": ("te_cp", "zeppelin")},
        )

    def test_matches_session_compare(self, spec):
        sweep = run_sweep(spec)
        session = Session(model="3b", num_gpus=16, total_context=16 * 1024, num_steps=1)
        compare = session.compare(("te_cp", "zeppelin"))
        assert [r.tokens_per_second for r in sweep.results] == [
            r.tokens_per_second for r in compare.runs
        ]

    def test_meta_records_execution(self, spec):
        sweep = run_sweep(spec)
        meta = sweep.meta
        assert meta["backend"] == "serial"
        assert meta["num_points"] == 2
        assert meta["cache_enabled"] is False
        assert meta["executed_points"] == 2
        assert meta["timing"]["wall_time_s"] > 0

    def test_results_are_structured(self, spec):
        sweep = run_sweep(spec)
        assert all(isinstance(r, RunResult) for r in sweep.results)
        payload = json.loads(sweep.to_json())
        assert set(payload) == {"meta", "points", "results"}
        assert len(payload["points"]) == len(payload["results"]) == 2

    def test_identical_identities_deduped_before_fanout(self):
        """Tagged replicas of one execution identity run once and share it."""
        spec = SweepSpec(
            base=SMALL_BASE,
            axes={"strategy": ("te_cp",), "replica": (0, 1, 2)},
        )
        sweep = run_sweep(spec)
        assert sweep.meta["num_points"] == 3
        assert sweep.meta["executed_points"] == 1
        assert sweep.meta["deduped"] == 2
        dicts = [r.to_dict() for r in sweep.results]
        assert dicts[0] == dicts[1] == dicts[2]
        # Opting out ships every payload; results are identical either way.
        full = run_sweep(spec, dedup=False)
        assert full.meta["executed_points"] == 3
        assert full.meta["deduped"] == 0
        assert full.to_dict()["results"] == sweep.to_dict()["results"]


class TestBackendEquivalence:
    """Serial and process backends must produce identical SweepResults."""

    @pytest.fixture(scope="class")
    def dynamics_spec(self):
        # Includes a dynamics axis: each strategy runs healthy and perturbed.
        return SweepSpec(
            base={**SMALL_BASE, "seed": 3, "num_iterations": 4},
            axes={
                "strategy": ("te_cp", "zeppelin"),
                "perturbation": (None, {"straggler_frac": 0.25}),
            },
        )

    def test_serial_equals_process(self, dynamics_spec):
        serial = run_sweep(dynamics_spec, backend="serial")
        process = run_sweep(dynamics_spec, backend="process", jobs=2)
        assert serial.to_dict()["results"] == process.to_dict()["results"]
        assert [p.to_dict() for p in serial.points] == [
            p.to_dict() for p in process.points
        ]
        assert process.meta["backend"] == "process"
        assert process.meta["jobs"] == 2

    def test_perturbed_points_yield_resilience_results(self, dynamics_spec):
        sweep = run_sweep(dynamics_spec)
        for point, result in sweep:
            expected = ResilienceResult if point["perturbation"] else RunResult
            assert isinstance(result, expected)


class TestResultCache:
    @pytest.fixture
    def spec(self):
        return SweepSpec(
            base=SMALL_BASE,
            axes={"dataset": ("arxiv",), "strategy": ("te_cp", "zeppelin")},
        )

    @pytest.fixture
    def counting(self, monkeypatch):
        """Count sweep-worker invocations (the cache must short-circuit them)."""
        import repro.exec.worker as worker_mod

        calls = []
        original = worker_mod.execute_payload

        def wrapper(payload, pool=None):
            calls.append(payload)
            return original(payload, pool=pool)

        monkeypatch.setattr(worker_mod, "execute_payload", wrapper)
        return calls

    def test_warm_cache_short_circuits_execution(self, spec, tmp_path, counting):
        cold = run_sweep(spec, cache=tmp_path / "cache")
        assert len(counting) == 2
        assert cold.meta["cache_hits"] == 0 and cold.meta["cache_misses"] == 2

        warm = run_sweep(spec, cache=tmp_path / "cache")
        assert len(counting) == 2  # zero new worker invocations
        assert warm.meta["cache_hits"] == 2 and warm.meta["executed_points"] == 0
        assert warm.to_dict()["results"] == cold.to_dict()["results"]

    def test_changed_axis_touches_only_new_points(self, spec, tmp_path, counting):
        run_sweep(spec, cache=tmp_path / "cache")
        assert len(counting) == 2
        wider = SweepSpec(
            base=SMALL_BASE,
            axes={"dataset": ("arxiv",), "strategy": ("te_cp", "zeppelin", "llama_cp")},
        )
        sweep = run_sweep(wider, cache=tmp_path / "cache")
        assert len(counting) == 3  # only llama_cp simulated
        assert sweep.meta["cache_hits"] == 2 and sweep.meta["cache_misses"] == 1

    def test_tags_do_not_affect_cache_identity(self, tmp_path, counting):
        tagged = SweepSpec(
            base={**SMALL_BASE, "variant": "v1"},
            axes={"strategy": ("te_cp",)},
        )
        retagged = SweepSpec(
            base={**SMALL_BASE, "variant": "v2"},
            axes={"strategy": ("te_cp",)},
        )
        run_sweep(tagged, cache=tmp_path / "cache")
        sweep = run_sweep(retagged, cache=tmp_path / "cache")
        assert len(counting) == 1
        assert sweep.meta["cache_hits"] == 1

    def test_corrupt_entry_is_a_miss(self, spec, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(spec, cache=cache)
        for path in (tmp_path / "cache").glob("*.json"):
            path.write_text("{not json")
        sweep = run_sweep(spec, cache=cache)
        assert sweep.meta["cache_misses"] == 2

    def test_point_key_is_salted_content_hash(self, spec):
        points = spec.points()
        assert point_key(points[0]) != point_key(points[1])
        assert point_key(points[0]) == point_key(points[0])
        assert point_key(points[0], salt="other") != point_key(points[0])

    def test_cache_len_and_clear(self, spec, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert len(cache) == 0
        run_sweep(spec, cache=cache)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestSweepResultAccessors:
    @pytest.fixture(scope="class")
    def sweep(self):
        spec = SweepSpec(
            base=SMALL_BASE,
            axes={"dataset": ("arxiv", "github"), "strategy": ("te_cp", "zeppelin")},
        )
        return run_sweep(spec)

    def test_column_from_points_and_results(self, sweep):
        assert sweep.column("dataset") == ["arxiv", "arxiv", "github", "github"]
        assert all(v > 0 for v in sweep.column("tokens_per_second"))
        with pytest.raises(KeyError):
            sweep.column("nope")

    def test_pivot(self, sweep):
        table = sweep.pivot("dataset", "strategy")
        assert set(table) == {"arxiv", "github"}
        assert table["arxiv"]["zeppelin"] > table["arxiv"]["te_cp"]

    def test_pivot_duplicate_cell_raises(self, sweep):
        with pytest.raises(ValueError, match="duplicate pivot cell"):
            sweep.pivot("strategy", "strategy")

    def test_groups_preserve_order(self, sweep):
        groups = sweep.groups("dataset")
        assert [key for key, _ in groups] == [("arxiv",), ("github",)]
        for _, cell in groups:
            assert len(cell) == 2

    def test_to_compare(self, sweep):
        _, cell = sweep.groups("dataset")[0]
        compare = cell.to_compare()
        assert compare.baseline == "te_cp"
        assert compare.speedup("zeppelin") > 1.0
        assert compare.config["model"] == "3b"

    def test_mismatched_lengths_raise(self, sweep):
        with pytest.raises(ValueError, match="points but"):
            SweepResult(points=sweep.points, results=sweep.results[:-1])


class TestResultFromDict:
    def test_run_result_round_trip(self):
        result = RunResult(
            strategy="te_cp",
            label="TE CP",
            tokens_per_second=1.5,
            iteration_time_s=2.0,
            total_tokens=3,
            num_batches=1,
            config={"model": "3b"},
        )
        assert result_from_dict(result.to_dict()) == result

    def test_resilience_result_round_trip(self):
        result = ResilienceResult(
            strategy="zeppelin",
            label="Zeppelin",
            recovery="elastic",
            goodput_tokens_per_second=10.0,
            healthy_tokens_per_second=20.0,
            wall_time_s=1.0,
            time_lost_s=0.5,
            restart_count=1,
            num_failures=1,
            completed_iterations=3,
            num_iterations=4,
            final_num_nodes=1,
            total_tokens=10,
            config={"model": "3b"},
            perturbation={"mttf_s": 5.0},
        )
        rebuilt = result_from_dict(result.to_dict())
        assert isinstance(rebuilt, ResilienceResult)
        assert rebuilt == result


class TestExperimentAliases:
    def test_module_basename_resolves(self):
        assert EXPERIMENTS.get("fig09_scalability").name == "fig9"
        assert EXPERIMENTS.get("fig9").name == "fig9"
        assert EXPERIMENTS.get("table2_dataset_distributions").name == "table2"


class TestSessionSweepIntegration:
    def test_sweep_jobs_alone_selects_process_backend(self, monkeypatch):
        import repro.exec.sweep as sweep_mod

        seen = {}
        original = sweep_mod.resolve_backend

        def spy(backend, jobs=1, options=None):
            resolved = original(backend, jobs=jobs, options=options)
            seen["name"] = resolved.name
            return resolved

        monkeypatch.setattr(sweep_mod, "resolve_backend", spy)
        session = Session(model="3b", num_gpus=16, total_context=16 * 1024, num_steps=1)
        session.sweep(datasets=("arxiv",), strategies=("te_cp",), jobs=2)
        assert seen["name"] == "process"

    def test_compare_honours_perturbation_model_subclass(self):
        from repro.dynamics.models import PerturbationConfig, PerturbationModel

        calls = []

        class SpyModel(PerturbationModel):
            def generate(self, cluster, seed=None):
                calls.append(seed)
                return super().generate(cluster, seed=seed)

        session = Session(model="3b", num_gpus=16, total_context=16 * 1024, num_steps=1)
        model = SpyModel(PerturbationConfig(straggler_frac=0.25))
        result = session.compare(
            ("te_cp",), perturbation=model, num_iterations=4
        )
        assert calls, "subclass generate() must be invoked, not a flattened copy"
        assert isinstance(result.runs[0], ResilienceResult)

    def test_session_sweep_accepts_cache(self, tmp_path):
        session = Session(model="3b", num_gpus=16, total_context=16 * 1024, num_steps=1)
        cells = session.sweep(
            datasets=("arxiv",),
            strategies=("te_cp", "zeppelin"),
            cache=tmp_path / "cache",
        )
        again = session.sweep(
            datasets=("arxiv",),
            strategies=("te_cp", "zeppelin"),
            cache=tmp_path / "cache",
        )
        assert len(cells) == len(again) == 1
        assert cells[0].to_dict() == again[0].to_dict()


class TestSessionPool:
    def test_one_session_per_equal_config(self):
        """The pool keys sessions by the frozen config itself."""
        import dataclasses

        from repro.api import SessionConfig
        from repro.exec.worker import SessionPool

        pool = SessionPool()
        config = SessionConfig(**SMALL_BASE)
        first = pool.get(config)
        assert pool.get(SessionConfig(**SMALL_BASE)) is first
        assert first.config == config
        other = pool.get(dataclasses.replace(config, seed=config.seed + 1))
        assert other is not first
        assert len(pool) == 2
