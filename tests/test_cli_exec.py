"""Tests for the sweep-execution CLI surface (`repro sweep`, experiment flags)."""

import json
import re

import pytest

from repro.cli import CONFIG_ERROR_EXIT_CODE, build_parser, main
from repro.registry import EXPERIMENTS


class TestSweepParser:
    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.model == "7b"
        assert args.clusters == ["A"]
        assert args.gpus == [16]
        assert args.backend is None
        assert args.jobs == 1
        assert args.no_cache is False

    def test_multi_value_axes(self):
        args = build_parser().parse_args(
            ["sweep", "--gpus", "16", "32", "--datasets", "arxiv", "github",
             "--backend", "process", "--jobs", "4"]
        )
        assert args.gpus == [16, 32]
        assert args.datasets == ["arxiv", "github"]
        assert args.backend == "process"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--backend", "quantum"])

    def test_experiment_accepts_alias(self):
        args = build_parser().parse_args(["experiment", "fig09_scalability"])
        assert args.name == "fig09_scalability"


class TestSweepCommand:
    _SMALL = [
        "sweep", "--model", "3b", "--context-k", "16", "--steps", "1",
        "--strategies", "te_cp", "zeppelin", "--no-cache",
    ]

    def test_table_output_with_meta_line(self, capsys):
        assert main(self._SMALL) == 0
        out = capsys.readouterr().out
        assert "te_cp" in out and "zeppelin" in out
        assert "tokens/second" in out
        assert "via serial backend" in out

    def test_json_output_includes_meta(self, capsys):
        assert main(self._SMALL + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        meta = payload["meta"]
        assert meta["backend"] == "serial"
        assert meta["num_points"] == 2
        assert "cache_hits" in meta and "wall_time_s" in meta["timing"]
        assert len(payload["points"]) == len(payload["results"]) == 2
        assert payload["results"][0]["tokens_per_second"] > 0

    def test_cached_sweep_round_trip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = [a for a in self._SMALL if a != "--no-cache"] + ["--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["meta"]["cache_misses"] == 2
        assert second["meta"]["cache_hits"] == 2
        assert second["meta"]["executed_points"] == 0
        assert first["results"] == second["results"]

    def test_bad_gpus_exit_2(self, capsys):
        assert main(["sweep", "--gpus", "12", "--no-cache"]) == CONFIG_ERROR_EXIT_CODE
        assert "multiple of 8" in capsys.readouterr().err

    def test_bad_axis_values_exit_2(self, capsys):
        assert main(["sweep", "--context-k", "0", "--no-cache"]) == CONFIG_ERROR_EXIT_CODE
        assert "total_context" in capsys.readouterr().err
        assert main(["sweep", "--gpus", "-8", "--no-cache"]) == CONFIG_ERROR_EXIT_CODE
        assert "num_gpus" in capsys.readouterr().err
        assert main(
            ["sweep", "--tensor-parallel", "0", "--no-cache"]
        ) == CONFIG_ERROR_EXIT_CODE
        assert "tensor_parallel" in capsys.readouterr().err

    def test_unknown_dataset_exit_2(self, capsys):
        code = main(["sweep", "--datasets", "nope", "--no-cache"])
        assert code == CONFIG_ERROR_EXIT_CODE
        assert "nope" in capsys.readouterr().err

    def test_dynamics_axis_reports_goodput(self, capsys):
        code = main(
            self._SMALL + ["--straggler-frac", "0.25", "--iterations", "4"]
        )
        assert code == 0
        assert "goodput" in capsys.readouterr().out


class TestExperimentExecutionFlags:
    @pytest.fixture
    def recording(self):
        calls = []

        @EXPERIMENTS.register("_cli_exec_probe", description="probe")
        def probe(seed: int = 0, backend=None, jobs: int = 1, use_cache: bool = False):
            from repro.experiments.common import ExperimentResult

            calls.append({"seed": seed, "backend": backend, "jobs": jobs,
                          "use_cache": use_cache})
            return ExperimentResult(
                name="probe", description="d", headers=["x"], rows=[[1]]
            )

        yield calls
        EXPERIMENTS.unregister("_cli_exec_probe")

    def test_flags_forwarded(self, recording, capsys):
        code = main(
            ["experiment", "_cli_exec_probe", "--backend", "process", "--jobs", "2"]
        )
        assert code == 0
        assert recording == [
            {"seed": 0, "backend": "process", "jobs": 2, "use_cache": True}
        ]

    def test_cache_on_by_default_and_no_cache_disables(self, recording, capsys):
        assert main(["experiment", "_cli_exec_probe"]) == 0
        assert main(["experiment", "_cli_exec_probe", "--no-cache"]) == 0
        assert [c["use_cache"] for c in recording] == [True, False]

    def test_exec_flags_rejected_for_plain_experiments(self, capsys):
        code = main(["experiment", "table2", "--jobs", "2"])
        assert code == CONFIG_ERROR_EXIT_CODE
        assert "sweep execution" in capsys.readouterr().err

    def test_plain_experiment_without_flags_still_works(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "arxiv" in capsys.readouterr().out


class TestListBackends:
    def test_list_shows_execution_backends(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "execution backends:" in out
        assert "serial" in out and "process" in out
        assert "cluster" in out

    def test_list_shows_batch_submitters(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "batch submitters:" in out
        assert "slurm" in out and "sge" in out and "fake" in out
        assert "pbs" in out

    def test_list_shows_analysis_rules(self, capsys):
        """The rules registry renders through the same table as the others."""
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "analysis rules:" in out
        for rule_id in ("d001", "d002", "d003", "e001", "r001", "s001"):
            assert rule_id in out
        # Same table shape as every other section: two-space indent, name
        # padded to the shared width, description starting at one column.
        rows = {
            line.split()[0]: line
            for line in out.splitlines()
            if line.startswith("  ")
        }
        desc_col = re.match(r"  \S+\s+", rows["serial"]).end()
        assert re.match(r"  \S+\s+", rows["d001"]).end() == desc_col


class TestAnalyzeCommand:
    def test_shipped_tree_is_clean(self, capsys):
        assert main(["analyze", "src"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_bad_fixture_exits_one_with_anchors(self, capsys):
        assert main(["analyze", "tests/fixtures/analysis/bad/d001.py"]) == 1
        out = capsys.readouterr().out
        assert "d001.py:" in out and "D001" in out

    def test_rule_filter_and_json(self, capsys):
        rc = main(
            ["analyze", "--rule", "D003", "--json",
             "tests/fixtures/analysis/bad/d003.py"]
        )
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["rules"] == ["D003"]
        assert all(f["rule"] == "D003" for f in doc["findings"])

    def test_unknown_rule_exits_config_error(self, capsys):
        assert main(["analyze", "--rule", "zzz", "src"]) == CONFIG_ERROR_EXIT_CODE


class TestClusterCliFlags:
    _GRID = [
        "sweep", "--model", "3b", "--context-k", "16", "--steps", "1",
        "--strategies", "te_cp", "zeppelin", "--no-cache",
    ]

    def test_parser_accepts_batch_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--batch-system", "fake",
             "--batch-options=--partition=long --mem=16G",
             "--workdir", "/nfs/sweep"]
        )
        assert args.batch_system == "fake"
        assert args.batch_options == "--partition=long --mem=16G"
        assert args.workdir == "/nfs/sweep"

    def test_unknown_batch_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--batch-system", "lsf"])

    def test_batch_system_implies_cluster_backend(self, capsys):
        assert main(self._GRID + ["--batch-system", "fake", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "via cluster backend" in out
        assert "[cluster: fake batch system" in out

    def test_batch_flags_with_other_backend_exit_2(self, capsys):
        code = main(self._GRID + ["--backend", "serial", "--batch-system", "fake"])
        assert code == CONFIG_ERROR_EXIT_CODE
        assert "cluster backend" in capsys.readouterr().err

    def test_cluster_sweep_json_matches_serial(self, capsys):
        assert main(self._GRID + ["--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(self._GRID + ["--batch-system", "fake", "--jobs", "2",
                                  "--json"]) == 0
        cluster = json.loads(capsys.readouterr().out)
        assert cluster["results"] == serial["results"]
        assert cluster["points"] == serial["points"]
        assert cluster["meta"]["backend"] == "cluster"
        assert cluster["meta"]["batch_system"] == "fake"
        assert len(cluster["meta"]["rounds"]) == 1

    def test_experiment_batch_flags_build_cluster_backend(self, capsys):
        from repro.exec import ClusterBackend

        calls = []

        @EXPERIMENTS.register("_cli_cluster_probe", description="probe")
        def probe(seed: int = 0, backend=None, jobs: int = 1,
                  use_cache: bool = False):
            from repro.experiments.common import ExperimentResult

            calls.append(backend)
            return ExperimentResult(
                name="probe", description="d", headers=["x"], rows=[[1]]
            )

        try:
            code = main(["experiment", "_cli_cluster_probe",
                         "--batch-system", "fake", "--jobs", "3"])
        finally:
            EXPERIMENTS.unregister("_cli_cluster_probe")
        assert code == 0
        (backend,) = calls
        assert isinstance(backend, ClusterBackend)
        assert backend.jobs == 3
        assert backend.batch_system == "fake"

    def test_batch_flags_rejected_for_plain_experiments(self, capsys):
        code = main(["experiment", "table2", "--batch-system", "fake"])
        assert code == CONFIG_ERROR_EXIT_CODE
        assert "--batch-system" in capsys.readouterr().err
