"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import CONFIG_ERROR_EXIT_CODE, build_parser, main
from repro.registry import EXPERIMENTS


class TestParser:
    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.model == "7b"
        assert args.gpus == 16
        assert args.strategies == ["te_cp", "llama_cp", "hybrid_dp", "zeppelin"]
        assert args.json is False
        # Dynamics default to off.
        assert args.mttf is None
        assert args.straggler_frac == 0.0
        assert args.recovery == "checkpoint_restart"

    def test_run_parses_strategy_and_dynamics_flags(self):
        args = build_parser().parse_args(
            ["run", "zeppelin", "--mttf", "30", "--recovery", "elastic", "--seed", "7"]
        )
        assert args.strategy == "zeppelin"
        assert args.mttf == 30.0
        assert args.recovery == "elastic"
        assert args.seed == 7

    def test_run_rejects_unknown_recovery(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "zeppelin", "--recovery", "pray"])

    def test_experiment_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_experiment_is_registered_with_a_runner(self):
        for name in EXPERIMENTS.names():
            entry = EXPERIMENTS.get(name)
            assert callable(entry.obj)
            assert entry.description


class TestMain:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "llama-7b" in out
        assert "zeppelin" in out
        assert "fig8" in out
        # Per-strategy descriptions come from the registry.
        assert "TransformerEngine CP" in out

    def test_compare_command_small_config(self, capsys):
        code = main(
            [
                "compare",
                "--model", "3b",
                "--gpus", "16",
                "--dataset", "arxiv",
                "--context-k", "32",
                "--steps", "1",
                "--strategies", "te_cp", "zeppelin",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TE CP" in out and "Zeppelin" in out
        assert "speedup" in out

    def test_compare_json_output(self, capsys):
        code = main(
            [
                "compare",
                "--model", "3b",
                "--gpus", "16",
                "--context-k", "32",
                "--steps", "1",
                "--strategies", "te_cp", "zeppelin",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline"] == "te_cp"
        assert [r["strategy"] for r in payload["runs"]] == ["te_cp", "zeppelin"]
        assert payload["runs"][0]["speedup"] == pytest.approx(1.0)
        assert payload["runs"][1]["speedup"] > 1.0
        assert payload["config"]["model"] == "3b"

    def test_compare_bad_gpu_count_exits_2(self, capsys):
        code = main(["compare", "--gpus", "12", "--steps", "1"])
        assert code == CONFIG_ERROR_EXIT_CODE
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "multiple of 8" in err

    def test_compare_unknown_model_exits_2(self, capsys):
        code = main(["compare", "--model", "gpt-17t", "--steps", "1"])
        assert code == CONFIG_ERROR_EXIT_CODE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "gpt-17t" in err

    def test_compare_unknown_dataset_exits_2(self, capsys):
        code = main(["compare", "--model", "3b", "--dataset", "nope", "--steps", "1"])
        assert code == CONFIG_ERROR_EXIT_CODE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope" in err

    def test_run_command_plain(self, capsys):
        code = main(
            ["run", "zeppelin", "--model", "3b", "--context-k", "32", "--steps", "1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "zeppelin"
        assert payload["tokens_per_second"] > 0
        assert "recovery" not in payload

    def test_run_command_with_dynamics(self, capsys):
        code = main(
            [
                "run", "zeppelin",
                "--model", "3b", "--context-k", "32", "--steps", "1",
                "--straggler-frac", "0.25", "--recovery", "elastic",
                "--iterations", "4", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recovery"] == "elastic"
        assert payload["goodput_tokens_per_second"] > 0
        assert payload["goodput_fraction"] < 1.0
        assert payload["perturbation"]["straggler_frac"] == 0.25

    def test_run_command_table_output(self, capsys):
        code = main(
            ["run", "zeppelin", "--model", "3b", "--context-k", "32", "--steps", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tokens_per_second" in out and "ClusterA" in out

    def test_run_bad_config_exits_2(self, capsys):
        code = main(["run", "zeppelin", "--gpus", "12"])
        assert code == CONFIG_ERROR_EXIT_CODE
        assert "multiple of 8" in capsys.readouterr().err

    def test_run_bad_perturbation_exits_2(self, capsys):
        code = main(["run", "zeppelin", "--model", "3b", "--straggler-frac", "1.5"])
        assert code == CONFIG_ERROR_EXIT_CODE
        assert "straggler_frac" in capsys.readouterr().err

    def test_run_bad_iterations_exits_2(self, capsys):
        code = main(
            ["run", "zeppelin", "--model", "3b", "--straggler-frac", "0.1",
             "--iterations", "0"]
        )
        assert code == CONFIG_ERROR_EXIT_CODE
        assert "iterations" in capsys.readouterr().err

    def test_compare_with_dynamics_reports_goodput(self, capsys):
        code = main(
            [
                "compare",
                "--model", "3b", "--context-k", "32", "--steps", "1",
                "--strategies", "te_cp", "zeppelin",
                "--straggler-frac", "0.25", "--iterations", "4",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all("goodput_tokens_per_second" in r for r in payload["runs"])
        assert payload["runs"][0]["speedup"] == pytest.approx(1.0)

    def test_same_seed_same_dynamics_output(self, capsys):
        argv = [
            "run", "zeppelin",
            "--model", "3b", "--context-k", "32", "--steps", "1",
            "--mttf", "3", "--iterations", "6", "--seed", "13", "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_dynamics_command_lists_policies(self, capsys):
        assert main(["dynamics"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint_restart" in out
        assert "elastic" in out
        assert "mttf_s" in out

    def test_list_includes_recoveries_and_fig13(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "recovery policies:" in out
        assert "fig13_resilience" in out

    def test_experiment_seed_flag(self, capsys):
        assert main(["experiment", "fig1", "--seed", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "fig1"

    def test_experiment_seed_rejected_when_unsupported(self, capsys):
        code = main(["experiment", "table2", "--seed", "5"])
        assert code == CONFIG_ERROR_EXIT_CODE
        assert "does not take a seed" in capsys.readouterr().err

    def test_experiment_command(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "arxiv" in out and "prolong64k" in out

    def test_experiment_json_output(self, capsys):
        assert main(["experiment", "table2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "table2"
        assert payload["headers"][0] == "dataset"
        assert any(row[0] == "arxiv" for row in payload["rows"])

    def test_experiment_result_serialises_nested_tuple_keys(self):
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(name="x", description="d", headers=["a"])
        result.extra["outer"] = {("model", 64): {"inner": 1.0}}
        payload = json.loads(result.to_json())
        assert payload["extra"]["outer"] == {"('model', 64)": {"inner": 1.0}}
