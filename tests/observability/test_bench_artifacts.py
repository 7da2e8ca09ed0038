"""The benchmark collector merges a session into the committed artifacts.

A pytest session under ``benchmarks/`` used to rewrite
``BENCH_observability.json`` with only its own entries, so running one
benchmark module cut the committed file down to that module.
"""

import json
import pathlib

from benchmarks.conftest import merge_artifact

ROOT = pathlib.Path(__file__).resolve().parents[2]


def entry(name, seconds):
    return {"name": name, "seconds": seconds, "passed": True}


def test_entries_replace_by_test_id_and_sections_by_key(tmp_path):
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({
        "benchmarks": [entry("a", 1.0), entry("b", 2.0)],
        "metrics": {},
        "cache": {"speedup": 9.0},
        "usage_metering": {"overhead_ratio": 1.5, "budget_ratio": 1.05},
    }))
    merge_artifact(
        path,
        [entry("b", 2.5), entry("c", 3.0)],
        {"metrics": {}, "usage_metering": {"overhead_ratio": 1.2, "budget_ratio": 1.05}},
    )
    assert json.loads(path.read_text()) == {
        "benchmarks": [entry("a", 1.0), entry("b", 2.5), entry("c", 3.0)],
        "metrics": {},
        "cache": {"speedup": 9.0},
        "usage_metering": {"overhead_ratio": 1.2, "budget_ratio": 1.05},
    }


def test_a_missing_artifact_is_created(tmp_path):
    path = tmp_path / "BENCH.json"
    merge_artifact(path, [entry("a", 1.0)], {"metrics": {}})
    assert json.loads(path.read_text()) == {"benchmarks": [entry("a", 1.0)], "metrics": {}}


def test_a_partial_run_keeps_the_committed_file(tmp_path):
    committed = (ROOT / "BENCH_observability.json").read_text()
    path = tmp_path / "BENCH_observability.json"
    path.write_text(committed)
    before = json.loads(committed)
    smoke = "benchmarks/layers/test_layers_smoke.py::test_every_workload_emits_every_metric"
    merge_artifact(path, [entry(smoke, 7.0)], {"metrics": {}})
    after = json.loads(path.read_text())
    assert [e["name"] for e in after["benchmarks"]] == [e["name"] for e in before["benchmarks"]]
    assert after["usage_metering"] == before["usage_metering"]
