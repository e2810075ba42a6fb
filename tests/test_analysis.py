"""Tests for repro.analysis: the AST determinism & invariant linter."""

import io
import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import AnalysisUsageError, analyze_paths
from repro.analysis.driver import execute
from repro.analysis.model import SourceFile, module_name_for
from repro.registry import RULES

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"
SRC = Path(__file__).resolve().parent.parent / "src"

# rule id -> the fixture files exercising it (R001 needs a table + a plugin).
RULE_FIXTURES = {
    "D001": ("d001.py",),
    "D002": ("d002.py",),
    "D003": ("d003.py",),
    "E001": ("e001.py",),
    "R001": ("r001_registry.py", "r001_plugin.py"),
    "S001": ("s001.py",),
}


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_bad_fixture_flagged(self, rule_id):
        paths = [BAD / name for name in RULE_FIXTURES[rule_id]]
        report = analyze_paths(paths, rules=[rule_id])
        assert report.findings, f"{rule_id} missed its bad fixture"
        assert {f.rule for f in report.findings} == {rule_id}
        for finding in report.findings:
            assert finding.line > 0
            assert finding.path.endswith(".py")

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_good_fixture_clean(self, rule_id):
        paths = [GOOD / name for name in RULE_FIXTURES[rule_id]]
        report = analyze_paths(paths, rules=[rule_id])
        assert report.clean, [f.render() for f in report.findings]

    def test_bad_tree_triggers_every_rule(self):
        report = analyze_paths([BAD])
        assert {f.rule for f in report.findings} == set(RULE_FIXTURES)

    def test_good_tree_clean_under_all_rules(self):
        report = analyze_paths([GOOD])
        assert report.clean, [f.render() for f in report.findings]


# A registry table plus a plugin registering "ghost" on it in three ways the
# R001 reader must resolve: an aliased import, the call (not decorator) form,
# and the registry reached through its module.
R001_TABLE = (
    "from repro.registry import Registry\n\n"
    "_BUILTIN_SUBMITTER_MODULES = {{{entries}}}\n\n"
    'SUBMITTERS = Registry("batch submitter", _BUILTIN_SUBMITTER_MODULES)\n'
)
R001_PLUGINS = {
    "aliased-import": (
        "from repro.registry import SUBMITTERS as subs\n\n\n"
        '@subs.register("ghost")\n'
        "class Ghost:\n"
        "    pass\n"
    ),
    "call-form": (
        "from repro.registry import SUBMITTERS\n\n\n"
        "class Ghost:\n"
        "    pass\n\n\n"
        'SUBMITTERS.register("ghost")(Ghost)\n'
    ),
    "module-attribute": (
        "from repro import registry\n\n\n"
        '@registry.SUBMITTERS.register("ghost")\n'
        "class Ghost:\n"
        "    pass\n"
    ),
}


class TestRegistrationSites:
    def _analyze(self, tmp_path, plugin, listed):
        entries = '"ghost": "plugin"' if listed else ""
        (tmp_path / "table.py").write_text(R001_TABLE.format(entries=entries))
        (tmp_path / "plugin.py").write_text(R001_PLUGINS[plugin])
        return analyze_paths([tmp_path], rules=["R001"])

    @pytest.mark.parametrize("plugin", sorted(R001_PLUGINS))
    def test_unlisted_registration_flagged(self, tmp_path, plugin):
        report = self._analyze(tmp_path, plugin, listed=False)
        assert [f.rule for f in report.findings] == ["R001"]
        assert "'ghost'" in report.findings[0].message
        assert report.findings[0].path.endswith("plugin.py")

    @pytest.mark.parametrize("plugin", sorted(R001_PLUGINS))
    def test_listed_registration_clean(self, tmp_path, plugin):
        report = self._analyze(tmp_path, plugin, listed=True)
        assert report.clean, [f.render() for f in report.findings]

    def test_register_on_other_objects_ignored(self, tmp_path):
        (tmp_path / "table.py").write_text(R001_TABLE.format(entries=""))
        (tmp_path / "plugin.py").write_text(
            "import atexit\n\n"
            'atexit.register("ghost")\n'
        )
        assert analyze_paths([tmp_path], rules=["R001"]).clean


class TestSuppression:
    def test_pragma_suppresses_on_its_line(self):
        report = analyze_paths([GOOD / "suppressed.py"], rules=["D001"])
        assert report.clean
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "D001"

    def test_pragma_is_rule_specific(self, tmp_path):
        target = tmp_path / "wrong_rule.py"
        target.write_text(
            "import time\n\n\n"
            "def stamp():\n"
            "    return time.time()  # repro: allow(D002) wrong rule\n"
        )
        report = analyze_paths([target], rules=["D001"])
        assert not report.clean

    def test_star_pragma_suppresses_everything(self, tmp_path):
        target = tmp_path / "starred.py"
        target.write_text(
            "import time\n\n\n"
            "def stamp():\n"
            "    return time.time()  # repro: allow(*) blanket\n"
        )
        report = analyze_paths([target])
        assert report.clean
        assert report.suppressed


class TestDriverSurface:
    def test_json_schema(self):
        stream = io.StringIO()
        rc = execute([str(BAD / "d001.py")], json_output=True, stream=stream)
        assert rc == 1
        doc = json.loads(stream.getvalue())
        assert doc["version"] == 1
        assert doc["clean"] is False
        assert doc["files_checked"] == 1
        assert set(doc["rules"]) == {r.upper() for r in RULES.names()}
        for finding in doc["findings"]:
            assert set(finding) == {"rule", "path", "line", "col", "message"}
            assert isinstance(finding["line"], int) and finding["line"] > 0
        assert doc["suppressed"] == []

    def test_text_output_has_file_line_anchors(self):
        stream = io.StringIO()
        rc = execute([str(BAD / "d003.py")], stream=stream)
        assert rc == 1
        first = stream.getvalue().splitlines()[0]
        path, line, col, rule = first.split(":")[0:3] + [first.split(" ")[1]]
        assert path.endswith("d003.py")
        assert int(line) > 0 and int(col) >= 0
        assert rule == "D003"

    def test_clean_run_exits_zero(self):
        stream = io.StringIO()
        assert execute([str(GOOD / "d001.py")], stream=stream) == 0
        assert "clean" in stream.getvalue()

    def test_unknown_rule_exits_two(self, capsys):
        assert execute([str(GOOD)], rules=["nope"]) == 2
        assert "unknown analysis rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert execute(["definitely/not/here"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_missing_path_raises_in_api(self):
        with pytest.raises(AnalysisUsageError):
            analyze_paths(["definitely/not/here"])

    def test_syntax_error_becomes_e999_finding(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def oops(:\n")
        report = analyze_paths([target])
        assert [f.rule for f in report.findings] == ["E999"]
        assert not report.clean


class TestSelfCheck:
    def test_shipped_src_tree_is_clean(self):
        report = analyze_paths([SRC])
        assert report.clean, "\n".join(f.render() for f in report.findings)
        assert report.files_checked > 100
        # The justified virtual-time pragmas are the only suppressions.
        assert {f.rule for f in report.suppressed} == {"S001"}

    def test_registry_drift_is_caught(self, tmp_path):
        """Deleting a module from _BUILTIN_SUBMITTER_MODULES fails R001."""
        tree = tmp_path / "src"
        shutil.copytree(SRC / "repro", tree / "repro")
        registry = tree / "repro" / "registry.py"
        original = registry.read_text()
        drifted = original.replace('    "pbs": "repro.exec.cluster.pbs",\n', "")
        assert drifted != original, "pbs entry not found to delete"
        registry.write_text(drifted)
        report = analyze_paths([tree], rules=["R001"])
        assert not report.clean
        assert any(
            f.rule == "R001" and "'pbs'" in f.message for f in report.findings
        )
        # ...and the untouched copy passes, so the drift is the only cause.
        registry.write_text(original)
        assert analyze_paths([tree], rules=["R001"]).clean


class TestModel:
    def test_module_name_walks_init_chain(self):
        assert module_name_for(SRC / "repro" / "exec" / "cache.py") == (
            "repro.exec.cache"
        )
        assert module_name_for(SRC / "repro" / "obs" / "__init__.py") == "repro.obs"
        assert module_name_for(BAD / "d001.py") == "d001"

    def test_import_alias_resolution(self, tmp_path):
        target = tmp_path / "aliased.py"
        target.write_text(
            "import numpy as np\n"
            "from time import monotonic as mono\n"
            "x = np.random.default_rng\n"
            "y = mono\n"
        )
        parsed = SourceFile.parse(target)
        assert parsed.imports["np"] == "numpy"
        assert parsed.imports["mono"] == "time.monotonic"

    def test_aliased_wall_clock_still_caught(self, tmp_path):
        target = tmp_path / "sneaky.py"
        target.write_text(
            "from time import monotonic as innocuous\n\n\n"
            "def stamp():\n"
            "    return innocuous()\n"
        )
        report = analyze_paths([target], rules=["D001"])
        assert not report.clean
