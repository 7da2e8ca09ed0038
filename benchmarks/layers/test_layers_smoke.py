"""Smoke test of the layer benchmark: every workload at toy size, traced.

Asserts that every metric ``BENCHMARK.json`` names is emitted with a
finite value, that the correctness oracle passes, that no traceback
reaches stderr, and that an oracle mismatch fails the run.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_every_workload_emits_every_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = tmp_path / "results"
    run = subprocess.run(
        [
            sys.executable, str(ROOT / "benchmarks" / "layers" / "run.py"),
            "--seed", "3", "--seconds", "0.3", "--size", "toy", "--trace", "1",
            "--out", str(out), "--trace-dir", str(tmp_path / "spans"),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr, run.stderr
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        result = json.loads((out / f"{workload}-seed3-trace.json").read_text())
        assert result["correct"], result["failures"]
        assert result["attempted"] >= 1
        emitted = {**result["metrics"], **result["layers"]}
        for entry in spec["end_to_end"] + spec["per_layer"]:
            metric = emitted[entry["name"]]
            assert metric["unit"] == entry["unit"], (workload, entry["name"])
            assert math.isfinite(metric["value"]), (workload, entry["name"])
        assert (tmp_path / "spans" / f"{workload}-seed3.jsonl").stat().st_size > 0


def test_oracle_mismatch_fails_the_run(monkeypatch, capsys):
    from benchmarks.layers import child, workloads

    monkeypatch.setattr(workloads.Reference, "answer", lambda self, tenant, request: None)
    status = child.main(
        ["--workload", "hot_dashboard", "--seed", "3", "--seconds", "0.2", "--size", "toy"]
    )
    assert status == child.EXIT_INCORRECT
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] > 0
