"""The benchmark harness's result publishing (``benchmarks/_util.py``)."""

import importlib.util
import json
import os

import pytest

_UTIL = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "_util.py")


@pytest.fixture
def util(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_util_under_test", _UTIL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO_ROOT", str(tmp_path))
    monkeypatch.setattr(module, "RESULTS_DIR", str(tmp_path / "results"))
    return module


def _write(path, payload):
    path.write_text(json.dumps(payload))


def _read(path):
    return json.loads(path.read_text())


class TestPublishJson:
    def test_smoke_run_keeps_a_full_mode_bench_file(self, util, tmp_path):
        bench = tmp_path / "BENCH_netsim.json"
        _write(bench, {"mode": "full", "fig8a": [500]})
        written = util.publish_json("bench_netsim", {"mode": "smoke"}, path=str(bench))
        assert _read(bench) == {"mode": "full", "fig8a": [500]}
        assert written == str(tmp_path / "results" / "bench_netsim.json")
        assert _read(tmp_path / "results" / "bench_netsim.json") == {"mode": "smoke"}

    @pytest.mark.parametrize(
        "old_mode, new_mode",
        [("smoke", "smoke"), ("smoke", "full"), ("full", "full")],
    )
    def test_other_mode_pairs_overwrite(self, util, tmp_path, old_mode, new_mode):
        bench = tmp_path / "BENCH_netsim.json"
        _write(bench, {"mode": old_mode})
        written = util.publish_json("bench_netsim", {"mode": new_mode}, path=str(bench))
        assert written == str(bench)
        assert _read(bench) == {"mode": new_mode}

    def test_only_repo_root_bench_files_are_guarded(self, util, tmp_path):
        other = tmp_path / "results_full.json"
        _write(other, {"mode": "full"})
        util.publish_json("x", {"mode": "smoke"}, path=str(other))
        assert _read(other) == {"mode": "smoke"}

    def test_missing_bench_file_is_written(self, util, tmp_path):
        bench = tmp_path / "BENCH_new.json"
        assert util.publish_json("x", {"mode": "smoke"}, path=str(bench)) == str(bench)
        assert _read(bench) == {"mode": "smoke"}
