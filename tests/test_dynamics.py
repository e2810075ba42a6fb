"""Tests for repro.dynamics: perturbation models, schedules, recovery, API."""

import pytest

from repro.api import Session
from repro.cluster.presets import cluster_a
from repro.dynamics.events import (
    GpuSlowdown,
    NicDegrade,
    NodeFailure,
    PerturbationSchedule,
)
from repro.dynamics.models import PerturbationConfig, PerturbationModel, as_model
from repro.dynamics.recovery import (
    CheckpointRestart,
    ElasticRepartition,
    FailureContext,
    RecoveryAction,
    as_policy,
    run_resilient,
)
from repro.registry import RECOVERIES
from repro.results import ResilienceResult


@pytest.fixture(scope="module")
def cluster():
    return cluster_a(num_nodes=2)


@pytest.fixture(scope="module")
def session():
    return Session(model="3b", num_gpus=16, total_context=32 * 1024, num_steps=1)


class TestPerturbationConfig:
    def test_null_config_generates_nothing(self, cluster):
        config = PerturbationConfig()
        assert config.is_null
        schedule = PerturbationModel(config).generate(cluster)
        assert len(schedule) == 0 and not schedule

    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbationConfig(straggler_frac=1.5)
        with pytest.raises(ValueError):
            PerturbationConfig(straggler_slowdown=0.0)
        with pytest.raises(ValueError):
            PerturbationConfig(mttf_s=-1.0)
        with pytest.raises(ValueError):
            PerturbationConfig(horizon_s=0.0)

    def test_as_model_accepts_config_model_and_mapping(self):
        config = PerturbationConfig(straggler_frac=0.25)
        assert as_model(config).config is config
        model = PerturbationModel(config)
        assert as_model(model) is model
        assert as_model({"straggler_frac": 0.25}).config.straggler_frac == 0.25
        with pytest.raises(TypeError):
            as_model(42)


class TestPerturbationModel:
    def test_same_seed_same_schedule(self, cluster):
        config = PerturbationConfig(
            seed=7, mttf_s=100.0, straggler_frac=0.25, nic_degrade_frac=0.5
        )
        a = PerturbationModel(config).generate(cluster)
        b = PerturbationModel(config).generate(cluster)
        assert a.events == b.events and len(a) > 0

    def test_different_seed_different_schedule(self, cluster):
        base = PerturbationConfig(mttf_s=100.0, straggler_frac=0.25)
        a = PerturbationModel(base.replace(seed=1)).generate(cluster)
        b = PerturbationModel(base.replace(seed=2)).generate(cluster)
        assert a.events != b.events

    def test_config_seed_overrides_fallback(self, cluster):
        config = PerturbationConfig(seed=5, straggler_frac=0.25)
        model = PerturbationModel(config)
        assert model.generate(cluster, seed=1).events == model.generate(
            cluster, seed=2
        ).events

    def test_fallback_seed_used_when_config_seed_unset(self, cluster):
        model = PerturbationModel(straggler_frac=0.25)
        a = model.generate(cluster, seed=1)
        b = model.generate(cluster, seed=2)
        assert a.events != b.events

    def test_straggler_count_and_bounds(self, cluster):
        schedule = PerturbationModel(
            straggler_frac=0.25, straggler_slowdown=0.6, seed=0
        ).generate(cluster)
        stragglers = [e for e in schedule.events if isinstance(e, GpuSlowdown)]
        assert len(stragglers) == 4  # 25% of 16 GPUs
        assert len({e.rank for e in stragglers}) == 4
        for event in stragglers:
            assert event.time_s == 0.0
            assert 0.0 < event.factor <= 1.0

    def test_failures_respect_cap_horizon_and_topology(self, cluster):
        schedule = PerturbationModel(
            mttf_s=10.0, max_failures=5, horizon_s=1000.0, seed=3
        ).generate(cluster)
        failures = schedule.failures
        # Only 2 nodes exist, so at most 2 failures regardless of the cap.
        assert 1 <= len(failures) <= 2
        assert len({f.node_id for f in failures}) == len(failures)
        for f in failures:
            assert 0 <= f.node_id < cluster.num_nodes
            assert 0.0 < f.time_s <= 1000.0

    def test_nic_degradation_targets_existing_nics(self, cluster):
        schedule = PerturbationModel(nic_degrade_frac=0.5, seed=0).generate(cluster)
        degrades = [e for e in schedule.events if isinstance(e, NicDegrade)]
        assert len(degrades) == 4  # 50% of 8 NICs
        num_nics = cluster.num_nodes * cluster.profile.nics_per_node
        for event in degrades:
            assert 0 <= event.nic_id < num_nics


class TestPerturbationSchedule:
    def test_events_sorted_by_time(self):
        schedule = PerturbationSchedule(
            events=(
                NodeFailure(time_s=5.0, node_id=0),
                GpuSlowdown(time_s=1.0, rank=0, factor=0.5),
            )
        )
        assert [e.time_s for e in schedule.events] == [1.0, 5.0]

    def test_failure_and_slowdown_views(self):
        schedule = PerturbationSchedule(
            events=(
                GpuSlowdown(time_s=0.0, rank=0, factor=0.5),
                NodeFailure(time_s=2.0, node_id=1),
                NodeFailure(time_s=8.0, node_id=0),
            )
        )
        assert len(schedule.failures) == 2
        assert len(schedule.slowdowns) == 1

    def test_active_factors_latest_event_wins(self, cluster):
        schedule = PerturbationSchedule(
            events=(
                GpuSlowdown(time_s=0.0, rank=3, factor=0.5),
                GpuSlowdown(time_s=5.0, rank=3, factor=0.8),
            )
        )
        assert schedule.active_factors(1.0, cluster) == {"compute:3": 0.5}
        assert schedule.active_factors(6.0, cluster) == {"compute:3": 0.8}

    def test_failure_compiles_to_all_node_resources(self, cluster):
        schedule = PerturbationSchedule(events=(NodeFailure(time_s=1.0, node_id=1),))
        (event,) = schedule.resource_events(cluster)
        assert event.is_failure
        # 8 GPUs x (compute + nvl tx/rx) + 4 NICs x (tx/rx) = 32 resources.
        assert len(event.resources) == 32
        assert "compute:8" in event.resources
        assert "nic:4:tx" in event.resources
        assert "compute:0" not in event.resources

    def test_nic_degrade_compiles_to_both_directions(self, cluster):
        schedule = PerturbationSchedule(events=(NicDegrade(time_s=0.0, nic_id=2, factor=0.5),))
        (event,) = schedule.resource_events(cluster)
        assert set(event.resources) == {"nic:2:tx", "nic:2:rx"}
        assert event.factor == 0.5

    def test_to_dicts_round_trips_kinds(self):
        schedule = PerturbationSchedule(
            events=(
                GpuSlowdown(time_s=0.0, rank=1, factor=0.5),
                NicDegrade(time_s=1.0, nic_id=0, factor=0.6),
                NodeFailure(time_s=2.0, node_id=0),
            )
        )
        kinds = [row["kind"] for row in schedule.to_dicts()]
        assert kinds == ["gpu_slowdown", "nic_degrade", "node_failure"]


class TestRecoveryPolicies:
    def test_registry_exposes_builtin_policies(self):
        assert "checkpoint_restart" in RECOVERIES.names()
        assert "elastic" in RECOVERIES.names()
        assert RECOVERIES.get("checkpoint_restart").obj is CheckpointRestart

    def test_as_policy_resolves_names_and_instances(self):
        policy = as_policy("elastic")
        assert isinstance(policy, ElasticRepartition)
        assert as_policy(policy) is policy
        custom = as_policy("checkpoint_restart", restart_cost_s=5.0)
        assert custom.restart_cost_s == 5.0
        with pytest.raises(ValueError):
            as_policy(policy, restart_cost_s=5.0)

    def _context(self, **overrides):
        defaults = dict(
            failure=NodeFailure(time_s=10.0, node_id=0),
            time_s=10.0,
            iteration_index=5,
            partial_iteration_s=0.3,
            alive_nodes=2,
            iters_since_checkpoint=3,
            tokens_since_checkpoint=999,
            time_since_checkpoint_s=2.5,
        )
        defaults.update(overrides)
        return FailureContext(**defaults)

    def test_checkpoint_restart_rolls_back_to_checkpoint(self):
        policy = CheckpointRestart(restart_cost_s=60.0)
        action = policy.recover(self._context())
        assert action.downtime_s == 60.0
        assert action.rollback_iterations == 3
        assert not action.drop_node

    def test_elastic_drops_node_without_rollback(self):
        policy = ElasticRepartition(replan_cost_s=5.0)
        action = policy.recover(self._context())
        assert action.downtime_s == 5.0
        assert action.rollback_iterations == 0
        assert action.drop_node

    def test_recovery_action_validation(self):
        with pytest.raises(ValueError):
            RecoveryAction(downtime_s=-1.0)


class TestRunResilient:
    def test_no_events_matches_healthy_throughput(self, session):
        healthy = session.run("zeppelin")
        report = run_resilient(
            session,
            "zeppelin",
            schedule=PerturbationSchedule(),
            policy=ElasticRepartition(),
            num_iterations=4,
        )
        assert report.num_failures == 0 and report.restart_count == 0
        assert report.goodput_tokens_per_second == pytest.approx(
            healthy.tokens_per_second
        )
        assert report.completed_iterations == 4
        assert report.final_num_nodes == session.config.num_nodes

    def test_failure_with_elastic_shrinks_and_degrades(self, session):
        schedule = PerturbationSchedule(events=(NodeFailure(time_s=0.5, node_id=1),))
        healthy = session.run("zeppelin")
        report = run_resilient(
            session,
            "zeppelin",
            schedule=schedule,
            policy=ElasticRepartition(replan_cost_s=1.0),
            num_iterations=6,
        )
        assert report.num_failures == 1
        assert report.restart_count == 1
        assert report.final_num_nodes == session.config.num_nodes - 1
        assert report.goodput_tokens_per_second < healthy.tokens_per_second
        assert report.time_lost_s > 0
        # All requested iterations still complete on the survivors.
        assert report.completed_iterations == 6

    def test_failure_with_checkpoint_restart_recomputes(self, session):
        schedule = PerturbationSchedule(events=(NodeFailure(time_s=1.0, node_id=0),))
        policy = CheckpointRestart(
            checkpoint_interval=4, checkpoint_cost_s=0.1, restart_cost_s=10.0
        )
        report = run_resilient(
            session, "zeppelin", schedule=schedule, policy=policy, num_iterations=8
        )
        assert report.num_failures == 1
        assert report.final_num_nodes == session.config.num_nodes  # hot spare
        assert report.completed_iterations == 8
        assert report.time_lost_s >= 10.0  # at least the restart cost
        # Useful tokens never exceed the requested workload.
        batch_tokens = session.batches[0].total_tokens
        assert report.useful_tokens == 8 * batch_tokens

    def test_partial_rollback_discards_only_rolled_back_iterations(self, session):
        """A custom policy rolling back 1 of 3 iterations must only discount
        that iteration's tokens (regression: all since-checkpoint tokens were
        subtracted while only one iteration was redone)."""

        class RollbackOne(CheckpointRestart):
            def recover(self, ctx):
                return RecoveryAction(downtime_s=1.0, rollback_iterations=1)

        schedule = PerturbationSchedule(events=(NodeFailure(time_s=1.0, node_id=0),))
        report = run_resilient(
            session,
            "zeppelin",
            schedule=schedule,
            policy=RollbackOne(checkpoint_interval=100, checkpoint_cost_s=0.0),
            num_iterations=8,
        )
        batch_tokens = session.batches[0].total_tokens
        assert report.completed_iterations == 8
        # Every completed iteration's tokens are counted exactly once.
        assert report.useful_tokens == 8 * batch_tokens

    def test_cluster_death_ends_run_early(self, session):
        schedule = PerturbationSchedule(
            events=(
                NodeFailure(time_s=0.2, node_id=0),
                NodeFailure(time_s=0.4, node_id=1),
            )
        )
        report = run_resilient(
            session,
            "zeppelin",
            schedule=schedule,
            policy=ElasticRepartition(replan_cost_s=0.0),
            num_iterations=50,
        )
        assert report.cluster_died
        assert report.final_num_nodes == 0
        assert report.completed_iterations < 50

    def test_stragglers_slow_the_run_down(self, session):
        schedule = PerturbationSchedule(
            events=tuple(
                GpuSlowdown(time_s=0.0, rank=r, factor=0.5) for r in range(4)
            )
        )
        healthy = session.run("zeppelin")
        report = run_resilient(
            session,
            "zeppelin",
            schedule=schedule,
            policy=ElasticRepartition(),
            num_iterations=4,
        )
        assert report.goodput_tokens_per_second < healthy.tokens_per_second


class TestSessionResilienceSurface:
    def test_run_with_perturbation_returns_resilience_result(self, session):
        result = session.run(
            "zeppelin",
            perturbation={"straggler_frac": 0.25},
            recovery="elastic",
            num_iterations=4,
        )
        assert isinstance(result, ResilienceResult)
        assert result.recovery == "elastic"
        assert result.tokens_per_second == result.goodput_tokens_per_second
        assert 0.0 < result.goodput_fraction <= 1.0
        payload = result.to_dict()
        assert payload["perturbation"]["straggler_frac"] == 0.25
        assert payload["config"]["model"] == "3b"

    def test_run_without_perturbation_unchanged(self, session):
        result = session.run("zeppelin")
        assert not isinstance(result, ResilienceResult)

    def test_deterministic_given_seed(self):
        def one() -> dict:
            sess = Session(
                model="3b", num_gpus=16, total_context=32 * 1024, num_steps=1, seed=11
            )
            return sess.run(
                "zeppelin",
                perturbation={"mttf_s": 5.0, "straggler_frac": 0.25},
                recovery="checkpoint_restart",
                num_iterations=8,
            ).to_dict()

        assert one() == one()  # bit-for-bit

    def test_seed_drives_the_perturbation_schedule(self):
        def goodput(seed: int) -> float:
            sess = Session(
                model="3b",
                num_gpus=16,
                total_context=32 * 1024,
                num_steps=1,
                seed=seed,
            )
            return sess.run(
                "zeppelin",
                perturbation={"mttf_s": 3.0},
                num_iterations=8,
            ).goodput_tokens_per_second

        assert goodput(1) != goodput(2)

    def test_compare_under_perturbation(self, session):
        result = session.compare(
            ("te_cp", "zeppelin"),
            perturbation={"straggler_frac": 0.25},
            recovery="elastic",
            num_iterations=4,
        )
        assert [r.strategy for r in result.runs] == ["te_cp", "zeppelin"]
        for run in result.runs:
            assert isinstance(run, ResilienceResult)
        assert result.speedup("te_cp") == pytest.approx(1.0)
        rows = result.rows()
        assert rows[0]["strategy"] == "TE CP"
        result.to_json()  # serialises without error
