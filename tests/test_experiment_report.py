"""Tests for the ExperimentResult helper, JSON conversion of results and the
experiment registry's coverage of the paper's artifacts."""

import json

import pytest

from repro.experiments.common import ExperimentResult, jsonable
from repro.registry import EXPERIMENTS


class TestExperimentResult:
    def test_add_row_validates_arity(self):
        result = ExperimentResult(name="x", description="d", headers=["a", "b"])
        result.add_row(1, 2)
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_column_extraction(self):
        result = ExperimentResult(name="x", description="d", headers=["a", "b"])
        result.add_row(1, 2)
        result.add_row(3, 4)
        assert result.column("b") == [2, 4]
        with pytest.raises(KeyError):
            result.column("c")

    def test_to_text_contains_title_and_rows(self):
        result = ExperimentResult(name="figX", description="demo", headers=["a"])
        result.add_row(42)
        text = result.to_text()
        assert "figX" in text and "42" in text


class TestReport:
    def test_jsonable_handles_tuple_keys_and_objects(self):
        data = {("a", 1): {"nested": (1, 2.5, None)}, "obj": object()}
        converted = jsonable(data)
        json.dumps(converted)  # must not raise
        assert converted["('a', 1)"]["nested"] == [1, 2.5, None]

    def test_registry_covers_every_paper_artifact(self):
        # The experiment registry is the one list of paper artifacts that
        # `repro experiment NAME --json` can report on.
        assert set(EXPERIMENTS.names()) == {
            "fig1", "fig3", "fig5", "fig8", "fig9", "fig10", "fig11", "fig12",
            "fig13_resilience", "fig14_serving", "table2", "table3",
        }
