"""Tests for repro.config — the sanctioned environment-access chokepoint."""

from repro import config
from repro.exec.cache import DEFAULT_CACHE_DIR, ResultCache


class TestEnvStr:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert config.env_str("REPRO_TEST_KNOB", "fallback") == "fallback"
        assert config.env_str("REPRO_TEST_KNOB") is None

    def test_set_returns_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "value")
        assert config.env_str("REPRO_TEST_KNOB", "fallback") == "value"

    def test_empty_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "")
        assert config.env_str("REPRO_TEST_KNOB", "fallback") == "fallback"


class TestCacheDir:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert config.cache_dir() == config.DEFAULT_CACHE_DIR == DEFAULT_CACHE_DIR
        assert config.cache_dir_override() is None

    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert config.cache_dir() == str(tmp_path / "cache")
        assert config.cache_dir_override() == str(tmp_path / "cache")

    def test_result_cache_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert ResultCache().root == tmp_path / "cache"


class TestWorkerEnviron:
    def test_copy_does_not_leak_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "original")
        env = config.worker_environ()
        assert env["REPRO_TEST_KNOB"] == "original"
        env["REPRO_TEST_KNOB"] = "mutated"
        assert config.env_str("REPRO_TEST_KNOB") == "original"
