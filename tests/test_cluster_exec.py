"""Tests for repro.exec.cluster: job files, submitters, rounds, shared cache."""

import json
import sys
import textwrap

import pytest

from repro.exec import SweepSpec, run_sweep
from repro.exec.cache import cache_salt
from repro.exec.cluster import (
    ClusterBackend,
    ClusterJob,
    FakeSubmitter,
    JOBFILE_SCHEMA_VERSION,
    JobFileError,
    SgeSubmitter,
    SlurmSubmitter,
    read_jobfile,
    read_results,
    result_path_for,
    run_jobs,
    worker_command,
    write_jobfile,
    write_results,
)
from repro.exec.cluster.jobfile import read_rejection, rejection_path_for
from repro.exec.cluster.pbs import PbsSubmitter
from repro.exec.cluster.worker import run_jobfile
from repro.exec.worker import execute_payload
from repro.obs import Telemetry, telemetry_scope, validate_event
from repro.obs.export import ListSink
from repro.registry import BACKENDS, SUBMITTERS

SMALL_BASE = {"model": "3b", "num_gpus": 16, "total_context": 16 * 1024, "num_steps": 1}

SMALL_PAYLOADS = [
    {**SMALL_BASE, "dataset": "arxiv", "strategy": "te_cp"},
    {**SMALL_BASE, "dataset": "arxiv", "strategy": "zeppelin"},
]


def small_spec():
    return SweepSpec(
        base=SMALL_BASE,
        axes={"dataset": ("arxiv",), "strategy": ("te_cp", "zeppelin")},
    )


class TestJobFiles:
    def test_jobfile_round_trip(self, tmp_path):
        path = write_jobfile(
            tmp_path / "job.json", SMALL_PAYLOADS, cache_dir=tmp_path / "cache"
        )
        job = read_jobfile(path)
        assert job["payloads"] == SMALL_PAYLOADS
        assert job["cache_dir"] == str(tmp_path / "cache")

    def test_jobfile_salt_mismatch_raises(self, tmp_path):
        path = write_jobfile(tmp_path / "job.json", SMALL_PAYLOADS)
        doc = json.loads(path.read_text())
        doc["salt"] = "other-version/99"
        path.write_text(json.dumps(doc))
        with pytest.raises(JobFileError, match="code version"):
            read_jobfile(path)

    def test_jobfile_schema_mismatch_raises(self, tmp_path):
        path = write_jobfile(tmp_path / "job.json", SMALL_PAYLOADS)
        doc = json.loads(path.read_text())
        doc["schema"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(JobFileError, match="schema"):
            read_jobfile(path)

    def test_jobfile_corrupt_raises(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text("{not json")
        with pytest.raises(JobFileError, match="cannot read"):
            read_jobfile(path)

    def test_result_round_trip_and_stats(self, tmp_path):
        path = write_results(
            tmp_path / "r.json", [{"a": 1}, {"b": 2}], {"executed": 2}
        )
        doc = read_results(path, expected=2)
        assert doc["results"] == [{"a": 1}, {"b": 2}]
        assert doc["stats"] == {"executed": 2}

    def test_result_missing_or_corrupt_is_none(self, tmp_path):
        assert read_results(tmp_path / "nope.json") is None
        path = tmp_path / "r.json"
        path.write_text("{truncated")
        assert read_results(path) is None

    def test_result_wrong_count_is_none(self, tmp_path):
        path = write_results(tmp_path / "r.json", [{"a": 1}])
        assert read_results(path, expected=2) is None
        assert read_results(path, expected=1) is not None

    def test_result_salt_mismatch_raises(self, tmp_path):
        path = write_results(tmp_path / "r.json", [{"a": 1}])
        doc = json.loads(path.read_text())
        doc["salt"] = "other-version/99"
        path.write_text(json.dumps(doc))
        with pytest.raises(JobFileError, match="code version"):
            read_results(path, expected=1)

    def test_result_path_for(self, tmp_path):
        assert result_path_for(tmp_path / "r01_j000.json") == (
            tmp_path / "r01_j000.result.json"
        )

    def test_no_tmp_files_left_behind(self, tmp_path):
        write_jobfile(tmp_path / "job.json", SMALL_PAYLOADS)
        write_results(tmp_path / "r.json", [{"a": 1}])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json", "r.json"]


class TestWorker:
    def test_run_jobfile_executes_and_caches(self, tmp_path):
        cache_dir = tmp_path / "cache"
        jobfile = write_jobfile(
            tmp_path / "job.json", SMALL_PAYLOADS, cache_dir=cache_dir
        )
        stats = run_jobfile(str(jobfile))
        assert stats == {"payloads": 2, "executed": 2, "cache_hits": 0}
        doc = read_results(result_path_for(jobfile), expected=2)
        expected = [execute_payload(p) for p in SMALL_PAYLOADS]
        assert doc["results"] == expected

        # A second worker over the same payloads hits the shared cache.
        again = tmp_path / "again.json"
        write_jobfile(again, SMALL_PAYLOADS, cache_dir=cache_dir)
        stats = run_jobfile(str(again))
        assert stats == {"payloads": 2, "executed": 0, "cache_hits": 2}
        assert read_results(result_path_for(again), expected=2)["results"] == expected

    def test_run_jobfile_without_cache_dir(self, tmp_path):
        jobfile = write_jobfile(tmp_path / "job.json", SMALL_PAYLOADS[:1])
        stats = run_jobfile(str(jobfile))
        assert stats == {"payloads": 1, "executed": 1, "cache_hits": 0}

    def test_worker_main_entrypoint(self, tmp_path, capsys):
        from repro.exec.cluster.worker import main

        jobfile = write_jobfile(tmp_path / "job.json", SMALL_PAYLOADS[:1])
        out = tmp_path / "custom.result.json"
        assert main([str(jobfile), "--out", str(out)]) == 0
        assert read_results(out, expected=1) is not None
        assert "1 executed" in capsys.readouterr().out


    def test_rejected_jobfile_is_recorded_beside_it(self, tmp_path):
        jobfile = write_jobfile(tmp_path / "job.json", SMALL_PAYLOADS[:1])
        doc = json.loads(jobfile.read_text())
        doc["salt"] = "other-version/99"
        jobfile.write_text(json.dumps(doc))
        with pytest.raises(JobFileError, match="code version"):
            run_jobfile(str(jobfile))
        assert rejection_path_for(jobfile) == tmp_path / "job.rejected.json"
        assert "'other-version/99'" in read_rejection(jobfile)
        assert not result_path_for(jobfile).exists()

    def test_unreadable_or_usable_jobfile_leaves_no_rejection(self, tmp_path):
        # A job file the mount does not show yet may appear for a resubmission.
        missing = tmp_path / "missing.json"
        with pytest.raises(JobFileError, match="cannot read"):
            run_jobfile(str(missing))
        assert read_rejection(missing) is None
        jobfile = write_jobfile(tmp_path / "job.json", [])
        run_jobfile(str(jobfile))
        assert read_rejection(jobfile) is None


class TestSubmitterRegistry:
    def test_builtin_submitters_listed(self):
        assert set(SUBMITTERS.names()) >= {"slurm", "sge", "fake", "pbs"}
        assert SUBMITTERS.get("slurm").obj is SlurmSubmitter
        assert SUBMITTERS.get("pbs").obj is PbsSubmitter
        assert SUBMITTERS.get("fake").description

    def test_cluster_backend_registered(self):
        assert "cluster" in BACKENDS.names()


class _RecordingMixin:
    """Capture scheduler command lines instead of running them."""

    def __init__(self, *args, **kwargs):
        self.calls = []
        self.queue_alive = True
        super().__init__(*args, **kwargs)

    def _run(self, argv):
        self.calls.append(list(argv))
        tool = argv[0]
        if tool in ("sbatch", "qsub"):
            return "4242\n"
        if tool == "squeue":
            return "RUNNING\n" if self.queue_alive else "\n"
        if tool == "qstat" and not self.queue_alive:
            raise FileNotFoundError("job purged")
        return ""


class RecordingSlurm(_RecordingMixin, SlurmSubmitter):
    pass


class RecordingSge(_RecordingMixin, SgeSubmitter):
    pass


class RecordingPbs(_RecordingMixin, PbsSubmitter):
    pass


def _job(tmp_path, name="repro-r01-j000"):
    jobfile = tmp_path / "r01_j000.json"
    return ClusterJob(
        name=name,
        jobfile=jobfile,
        result_file=result_path_for(jobfile),
        log_path=jobfile.with_suffix(".log"),
        num_payloads=2,
    )


class TestSlurmTemplate:
    def test_submit_command_template(self, tmp_path):
        sub = RecordingSlurm(
            batch_options="--partition=long --mem=16G", workdir=tmp_path
        )
        job = _job(tmp_path)
        handle = sub.submit(job)
        assert handle == "4242"
        (argv,) = sub.calls
        assert argv[0:2] == ["sbatch", "--parsable"]
        assert f"--job-name={job.name}" in argv
        assert f"--output={job.log_path}" in argv
        assert f"--chdir={tmp_path}" in argv
        # --batch-options pass through verbatim, shell-split.
        assert "--partition=long" in argv and "--mem=16G" in argv
        # The wrapped command is the worker entry point over the job file.
        wrapped = argv[argv.index("--wrap") + 1]
        assert "repro.exec.cluster.worker" in wrapped
        assert str(job.jobfile) in wrapped

    def test_poll_and_cancel_commands(self, tmp_path):
        sub = RecordingSlurm()
        job = _job(tmp_path)
        handle = sub.submit(job)
        assert sub.is_running(handle) is True
        sub.queue_alive = False
        assert sub.is_running(handle) is False
        sub.cancel(handle)
        tools = [argv[0] for argv in sub.calls]
        assert tools == ["sbatch", "squeue", "squeue", "scancel"]
        assert sub.calls[-1] == ["scancel", "4242"]

    def test_parsable_cluster_suffix_stripped(self, tmp_path):
        class SuffixSlurm(RecordingSlurm):
            def _run(self, argv):
                super()._run(argv)
                return "4242;bigcluster\n"

        assert SuffixSlurm().submit(_job(tmp_path)) == "4242"


class TestSgeTemplate:
    def test_submit_command_template(self, tmp_path):
        sub = RecordingSge(batch_options="-l h_vmem=16G", workdir=tmp_path)
        job = _job(tmp_path)
        handle = sub.submit(job)
        assert handle == "4242"
        (argv,) = sub.calls
        assert argv[0:2] == ["qsub", "-terse"]
        # Binary mode, joined stdout/stderr at our log path.
        assert "-b" in argv and "-j" in argv
        assert str(job.log_path) in argv
        assert "-wd" in argv and str(tmp_path) in argv
        assert "-l" in argv and "h_vmem=16G" in argv
        # The worker command comes last, unwrapped.
        assert argv[-len(job.command()):] == job.command()

    def test_poll_and_cancel_commands(self, tmp_path):
        sub = RecordingSge()
        handle = sub.submit(_job(tmp_path))
        assert sub.is_running(handle) is True
        sub.queue_alive = False
        assert sub.is_running(handle) is False
        sub.cancel(handle)
        tools = [argv[0] for argv in sub.calls]
        assert tools == ["qsub", "qstat", "qstat", "qdel"]


class TestPbsTemplate:
    def test_submit_command_template(self, tmp_path):
        sub = RecordingPbs(batch_options="-q long -l mem=16gb", workdir=tmp_path)
        job = _job(tmp_path)
        handle = sub.submit(job)
        assert handle == "4242"
        (argv,) = sub.calls
        assert argv[0] == "qsub"
        assert argv[argv.index("-N") + 1] == job.name
        # Joined stdout/stderr at our log path.
        assert argv[argv.index("-j") + 1] == "oe"
        assert argv[argv.index("-o") + 1] == str(job.log_path)
        assert argv[argv.index("-d") + 1] == str(tmp_path)
        assert "-q" in argv and "long" in argv
        # Direct-mode separator, then the worker command verbatim and last.
        assert argv[-len(job.command()) - 1] == "--"
        assert argv[-len(job.command()):] == job.command()

    def test_workdir_omitted_without_one(self, tmp_path):
        sub = RecordingPbs()
        sub.submit(_job(tmp_path))
        (argv,) = sub.calls
        assert "-d" not in argv

    def test_poll_and_cancel_commands(self, tmp_path):
        sub = RecordingPbs()
        handle = sub.submit(_job(tmp_path))
        assert sub.is_running(handle) is True
        sub.queue_alive = False
        assert sub.is_running(handle) is False
        sub.cancel(handle)
        tools = [argv[0] for argv in sub.calls]
        assert tools == ["qsub", "qstat", "qstat", "qdel"]


class _ScriptJob(ClusterJob):
    """A job whose command is an arbitrary script (for driver tests)."""

    def __init__(self, *, script: str, **kwargs):
        super().__init__(**kwargs)
        self._script = script

    def command(self):
        return [sys.executable, "-c", self._script]


def _script_job(tmp_path, name, script, num_payloads=0):
    jobfile = tmp_path / f"{name}.json"
    return _ScriptJob(
        name=name,
        jobfile=jobfile,
        result_file=result_path_for(jobfile),
        log_path=jobfile.with_suffix(".log"),
        num_payloads=num_payloads,
        script=script,
    )


def _result_script(path):
    """A fast worker stand-in: write a valid empty result file at ``path``.

    Avoids importing ``repro`` in the subprocess by baking the current salt
    into a plain JSON write.
    """
    doc = {
        "kind": "repro-cluster-result",
        "schema": JOBFILE_SCHEMA_VERSION,
        "salt": cache_salt(),
        "results": [],
        "stats": {},
    }
    return f"import json; json.dump({doc!r}, open({str(path)!r}, 'w'))"


class TestRunJobsDriver:
    def test_timeout_cancels_and_bounded_resubmission(self, tmp_path):
        job = _script_job(tmp_path, "sleeper", "import time; time.sleep(60)")
        outcome = run_jobs(
            FakeSubmitter(),
            [job],
            timeout_s=0.3,
            poll_interval_s=0.02,
            max_resubmits=1,
        )
        assert outcome["completed"] == []
        assert outcome["failed"] == [job]
        assert outcome["resubmissions"] == 1  # retried once, then gave up
        assert "timed out" in job.last_error

    def test_failed_job_is_resubmitted_then_succeeds(self, tmp_path):
        marker = tmp_path / "attempted"
        script = textwrap.dedent(
            f"""
            import pathlib, sys
            marker = pathlib.Path({str(marker)!r})
            if not marker.exists():
                marker.touch()
                sys.exit(1)  # first attempt crashes
            {_result_script(tmp_path / "flaky.result.json")}
            """
        )
        job = _script_job(tmp_path, "flaky", script)
        outcome = run_jobs(
            FakeSubmitter(), [job], poll_interval_s=0.02, max_resubmits=2
        )
        assert outcome["completed"] == [job]
        assert outcome["failed"] == []
        assert outcome["resubmissions"] == 1
        assert job.result == {"results": [], "stats": {}}

    def test_exhausted_resubmissions_reports_log_tail(self, tmp_path):
        script = "import sys; print('boom diagnostics'); sys.exit(3)"
        job = _script_job(tmp_path, "dead", script)
        outcome = run_jobs(
            FakeSubmitter(), [job], poll_interval_s=0.02, max_resubmits=1
        )
        assert outcome["failed"] == [job]
        assert "without writing a result" in job.last_error
        assert "boom diagnostics" in job.last_error

    def test_fake_submitter_bounds_concurrency(self, tmp_path):
        sub = FakeSubmitter(max_concurrent=2)
        jobs = [
            _script_job(tmp_path, f"c{i}", "import time; time.sleep(5)")
            for i in range(5)
        ]
        handles = [sub.submit(job) for job in jobs]
        assert len(sub._running) <= 2
        assert len(sub._queue) >= 3  # the rest are held pending
        for handle in handles:
            sub.cancel(handle)
        assert sub._queue == [] and sub._running == []

    def test_run_jobs_completes_a_queued_batch(self, tmp_path):
        sub = FakeSubmitter(max_concurrent=2)
        jobs = [
            _script_job(
                tmp_path, f"b{i}", _result_script(tmp_path / f"b{i}.result.json")
            )
            for i in range(5)
        ]
        outcome = run_jobs(sub, jobs, poll_interval_s=0.02)
        assert len(outcome["completed"]) == 5
        assert outcome["resubmissions"] == 0

    def test_lifecycle_events_go_to_the_ambient_hub(self, tmp_path):
        marker = tmp_path / "attempted"
        flaky = textwrap.dedent(
            f"""
            import pathlib, sys
            marker = pathlib.Path({str(marker)!r})
            if not marker.exists():
                marker.touch()
                sys.exit(1)  # first attempt crashes
            {_result_script(tmp_path / "flaky.result.json")}
            """
        )
        jobs = [
            _script_job(tmp_path, "flaky", flaky),
            _script_job(tmp_path, "dead", "import sys; sys.exit(3)"),
        ]
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            outcome = run_jobs(
                FakeSubmitter(), jobs, poll_interval_s=0.02, max_resubmits=1
            )
        assert outcome["resubmissions"] == 2
        lifecycle = {
            name: [
                (e["type"], e.get("attempt"))
                for e in sink.events
                if e.get("job") == name
            ]
            for name in ("flaky", "dead")
        }
        assert lifecycle == {
            "flaky": [("job_submit", 0), ("job_resubmit", 1), ("job_complete", None)],
            "dead": [("job_submit", 0), ("job_resubmit", 1), ("job_fail", None)],
        }
        for event in sink.events:
            validate_event(event)


    def test_rejected_job_file_cancels_the_rest_and_raises(self, tmp_path):
        # A real worker over a job file of another code version, beside a
        # job that would run for a minute.
        jobfile = write_jobfile(tmp_path / "foreign.json", SMALL_PAYLOADS[:1])
        doc = json.loads(jobfile.read_text())
        doc["salt"] = "other-version/99"
        jobfile.write_text(json.dumps(doc))
        foreign = ClusterJob(
            name="foreign",
            jobfile=jobfile,
            result_file=result_path_for(jobfile),
            log_path=jobfile.with_suffix(".log"),
            num_payloads=1,
        )
        sleeper = _script_job(tmp_path, "sleeper", "import time; time.sleep(60)")
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            with pytest.raises(JobFileError, match="'other-version/99'"):
                run_jobs(
                    FakeSubmitter(),
                    [foreign, sleeper],
                    poll_interval_s=0.02,
                    max_resubmits=3,
                )
        assert sleeper.handle.cancelled
        assert sleeper.handle.proc.poll() is not None  # killed, not left running
        lifecycle = [(e["type"], e.get("job")) for e in sink.events]
        assert lifecycle == [
            ("job_submit", "foreign"),
            ("job_submit", "sleeper"),
            ("job_fail", "foreign"),
            ("job_cancel", "sleeper"),
        ]
        for event in sink.events:
            validate_event(event)


class TestClusterBackendEndToEnd:
    def test_foreign_salt_fails_the_sweep_at_once(self, tmp_path, monkeypatch):
        # Only the driver writes job files under another salt; the workers
        # import the package as installed and refuse them.
        monkeypatch.setattr(
            "repro.exec.cluster.jobfile.cache_salt", lambda: "driver-only/99"
        )
        backend = ClusterBackend(
            jobs=2,
            batch_system="fake",
            workdir=tmp_path / "work",
            poll_interval_s=0.02,
        )
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            with pytest.raises(JobFileError) as excinfo:
                run_sweep(small_spec(), backend=backend)
        message = str(excinfo.value)
        assert "rejected its job file" in message
        assert "written by code version 'driver-only/99'" in message
        types = [e["type"] for e in sink.events]
        assert types.count("round_start") == 1  # no next round
        assert "job_resubmit" not in types
        assert types.count("job_fail") == 1

    def test_matches_serial_and_records_rounds(self, tmp_path):
        spec = small_spec()
        serial = run_sweep(spec)
        cluster = run_sweep(
            spec,
            backend="cluster",
            jobs=2,
            backend_options={
                "batch_system": "fake",
                "workdir": tmp_path / "work",
                "poll_interval_s": 0.02,
            },
        )
        assert cluster.to_dict()["results"] == serial.to_dict()["results"]
        meta = cluster.meta
        assert meta["backend"] == "cluster"
        assert meta["batch_system"] == "fake"
        assert meta["workdir"] == str(tmp_path / "work")
        (round1,) = meta["rounds"]
        assert round1["jobs"] == 2
        assert round1["payloads"] == 2
        assert round1["completed_jobs"] == 2
        assert round1["worker_executed"] == 2
        assert "wall_time_s" not in round1  # wall clock lives in meta["timing"]
        (round_wall,) = meta["timing"]["round_wall_times_s"]
        assert round_wall > 0
        # Explicit workdirs are kept: job, result and log files remain.
        assert list((tmp_path / "work").glob("r01_j*.json"))

    def test_shared_point_cache_across_maps(self, tmp_path):
        spec = small_spec()
        options = {
            "batch_system": "fake",
            "workdir": tmp_path / "work",
            "cache_dir": tmp_path / "point_cache",
            "poll_interval_s": 0.02,
        }
        cold = run_sweep(spec, backend="cluster", jobs=2, backend_options=options)
        warm = run_sweep(spec, backend="cluster", jobs=2, backend_options=options)
        assert cold.meta["rounds"][0]["worker_executed"] == 2
        assert warm.meta["rounds"][0]["worker_executed"] == 0
        assert warm.meta["rounds"][0]["worker_cache_hits"] == 2
        assert warm.to_dict()["results"] == cold.to_dict()["results"]

    def test_failed_jobs_resplit_over_shrinking_rounds(self, tmp_path, monkeypatch):
        # A wrapper that crashes the first execution of every round-1 job
        # file before the worker writes its result; later executions run the
        # real worker.  With max_resubmits=0 both round-1 jobs fail, so the
        # payloads carry over to a second round with a single, larger job.
        wrapper = tmp_path / "flaky_worker.py"
        wrapper.write_text(
            textwrap.dedent(
                """
                import pathlib, runpy, sys
                jobfile = pathlib.Path(sys.argv[1])
                marker = jobfile.with_suffix(".crashed")
                if "r01_" in jobfile.name and not marker.exists():
                    marker.touch()
                    sys.exit(1)
                runpy.run_module("repro.exec.cluster.worker", run_name="__main__")
                """
            )
        )
        import repro.exec.cluster.submitters as submitters_mod

        real_command = submitters_mod.worker_command

        def wrapped_command(jobfile, result_file=None):
            argv = real_command(jobfile, result_file)
            return [argv[0], str(wrapper)] + argv[3:]

        monkeypatch.setattr(submitters_mod, "worker_command", wrapped_command)

        spec = small_spec()
        backend = ClusterBackend(
            jobs=2,
            batch_system="fake",
            workdir=tmp_path / "work",
            poll_interval_s=0.02,
            max_resubmits=0,  # force failures into the next round
        )
        cluster = run_sweep(spec, backend=backend)
        serial = run_sweep(spec)
        assert cluster.to_dict()["results"] == serial.to_dict()["results"]
        rounds = cluster.meta["rounds"]
        assert len(rounds) == 2
        assert rounds[0]["failed_jobs"] == 2
        # partis discipline: the retry round uses fewer, larger jobs.
        assert rounds[1]["jobs"] == 1
        assert rounds[1]["payloads"] == 2
        assert rounds[1]["completed_jobs"] == 1

    def test_unrecoverable_failure_raises_with_diagnostics(
        self, tmp_path, monkeypatch
    ):
        import repro.exec.cluster.submitters as submitters_mod

        dead = [sys.executable, "-c", "import sys; sys.exit(9)"]
        monkeypatch.setattr(
            submitters_mod, "worker_command", lambda *a, **kw: list(dead)
        )
        backend = ClusterBackend(
            jobs=1,
            batch_system="fake",
            workdir=tmp_path / "work",
            poll_interval_s=0.02,
            max_resubmits=0,
        )
        with pytest.raises(RuntimeError, match="cluster sweep failed"):
            run_sweep(small_spec(), backend=backend)

    def test_empty_payload_list(self):
        backend = ClusterBackend(jobs=4, batch_system="fake")
        assert backend.map([], execute_payload) == []
        assert backend.observability() == {}

    def test_backend_options_with_instance_rejected(self):
        from repro.exec.sweep import resolve_backend

        with pytest.raises(ValueError, match="already-constructed"):
            resolve_backend(
                ClusterBackend(jobs=1), options={"batch_system": "fake"}
            )


class TestAdaptiveJobs:
    """Retry-round sizing from observed per-point wall time."""

    def test_no_signal_falls_back_to_fixed_shrink(self):
        from repro.exec.cluster.backend import SHRINK_FACTOR, _adaptive_jobs

        expected = max(1, min(49, int(50 / SHRINK_FACTOR)))
        assert _adaptive_jobs(100, 0, 0, 0.0, 50) == expected
        assert _adaptive_jobs(100, 0, 5, 2.0, 50) == expected  # nothing done
        assert _adaptive_jobs(100, 50, 10, 0.0, 50) == expected  # no wall time
        assert _adaptive_jobs(3, 0, 0, 0.0, 2) == 1

    def test_sized_from_observed_per_point_time(self):
        from repro.exec.cluster.backend import _adaptive_jobs

        # 50 payloads over 10 jobs in 2s -> 0.4 s/point; target job length
        # 1.6 * 2s = 3.2s; 100 pending points -> 12 jobs, clamped to 9
        # (rounds must strictly shrink).
        assert _adaptive_jobs(100, 50, 10, 2.0, 10) == 9
        # Same rate but only 16 pending -> 2 jobs: the estimate, not the
        # fixed divisor, drives the size.
        assert _adaptive_jobs(16, 50, 10, 2.0, 10) == 2

    def test_fast_points_never_drop_below_one_job(self):
        from repro.exec.cluster.backend import _adaptive_jobs

        assert _adaptive_jobs(4, 96, 12, 1.0, 12) == 1

    def test_min_job_wall_floor_bounds_tiny_rounds(self):
        from repro.exec.cluster.backend import MIN_JOB_WALL_S, _adaptive_jobs

        # A 0.1s round would target 0.16s jobs without the floor; with it
        # the target is MIN_JOB_WALL_S, so 100 points at 0.1 s/point size
        # to 10 jobs -> clamped to 9.
        assert MIN_JOB_WALL_S == 1.0
        assert _adaptive_jobs(100, 10, 10, 0.1, 10) == 9

    def test_always_strictly_shrinks(self):
        from repro.exec.cluster.backend import _adaptive_jobs

        for prev in range(2, 60, 7):
            for wall in (0.0, 0.5, 10.0):
                jobs = _adaptive_jobs(1000, 10, prev, wall, prev)
                assert 1 <= jobs < prev


class TestWorkerCommandEnv:
    def test_worker_command_uses_module_entrypoint(self, tmp_path):
        argv = worker_command(tmp_path / "j.json", tmp_path / "r.json")
        assert argv[0] == sys.executable
        assert argv[1:3] == ["-m", "repro.exec.cluster.worker"]
        assert "--out" in argv

    def test_fake_submitter_env_exports_package_root(self):
        import os
        import pathlib

        import repro

        env = FakeSubmitter()._worker_env()
        pkg_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        assert env["PYTHONPATH"].split(os.pathsep)[0] == pkg_root


class TestClusterAcceptance:
    """The issue's acceptance demo: >=10k points, 50 jobs, fake submitter.

    The grid carries a 2500-value inert ``rep`` tag axis over 4 real
    execution identities, so the run exercises 10,000 payloads end to end
    (job files, 50 submitted workers, result collection) while the shared
    point cache keeps the simulation cost near 4 points — exactly the
    cache-amortised fan-out the subsystem exists to provide.
    """

    def test_10k_points_50_jobs_byte_identical_and_warm_zero(self, tmp_path):
        axes = {
            "dataset": ("arxiv", "github"),
            "strategy": ("te_cp", "zeppelin"),
            "rep": tuple(range(2500)),
        }
        spec = SweepSpec(base=SMALL_BASE, axes=axes)
        assert len(spec.points()) == 10_000

        cache_dir = tmp_path / "sweep_cache"
        options = {
            "batch_system": "fake",
            "workdir": tmp_path / "work",
            "cache_dir": tmp_path / "point_cache",
            "poll_interval_s": 0.05,
        }
        # dedup=False: the fan-out itself is under test here, so ship all
        # 10k payloads instead of letting the driver collapse them to the
        # 4 unique execution identities.
        cold = run_sweep(
            spec, backend="cluster", jobs=50, cache=cache_dir,
            backend_options=options, dedup=False,
        )
        assert cold.meta["executed_points"] == 10_000
        assert cold.meta["deduped"] == 0
        assert sum(r["jobs"] for r in cold.meta["rounds"]) == 50
        # The shared point cache collapses 10k payloads to ~4 simulations
        # (plus at most a handful of racy duplicates across workers).
        executed = sum(r["worker_executed"] for r in cold.meta["rounds"])
        hits = sum(r["worker_cache_hits"] for r in cold.meta["rounds"])
        assert executed + hits == 10_000
        assert executed < 250

        # Byte-identical to the serial backend: every point's result equals
        # the serial result of its unique execution identity.
        unique = SweepSpec(
            base=SMALL_BASE,
            axes={"dataset": axes["dataset"], "strategy": axes["strategy"]},
        )
        serial = run_sweep(unique)
        by_identity = {
            (p["dataset"], p["strategy"]): r.to_dict() for p, r in serial
        }
        for point, result in cold:
            assert result.to_dict() == by_identity[
                (point["dataset"], point["strategy"])
            ]

        # Warm second run: every point is a driver-cache hit, nothing runs.
        warm = run_sweep(
            spec, backend="cluster", jobs=50, cache=cache_dir,
            backend_options=options,
        )
        assert warm.meta["cache_hits"] == 10_000
        assert warm.meta["executed_points"] == 0
        assert warm.to_dict()["results"] == cold.to_dict()["results"]
