"""Compare two sets of layer-benchmark result files against the bounds.

    python3 benchmarks/layers/run.py compare BASE/ CHANGE/

Each set is a directory of untraced result files written by ``--out``.
For every (end-to-end metric, workload) pair the median and quartiles of
each set are printed with a verdict:

* ``unresolved`` — either set's quartile spread is wider than the bound,
  unless every CHANGE run reads better than every BASE run (``improved``);
* ``regressed`` — CHANGE's median is worse than BASE's by more than the bound;
* ``improved`` — CHANGE's median is better by more than the bound;
* ``within`` — otherwise.

``improved`` only flags a candidate: claiming a gain still takes
alternating paired runs of both commits.  The unbounded timings of each
result's ``detail`` (latency, throughput) are printed after them,
without a verdict.

Operations that fail in CHANGE are always a regression.  Sets whose input
fingerprints or window lengths differ for a workload are refused: they
measured different things.  Exit status: 0 every pair within bounds or
improved, 1 a regression, 2 refused, 3 no regression but a pair
unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Timings each result reports without a bound, printed for information.
DETAIL_TIMINGS = ("p50_ms", "p90_ms", "ops_per_s", "commit_p50_ms")


def load_set(directory: Path) -> dict[str, list[dict]]:
    """Untraced results of a set, by workload."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if not result.get("trace"):
            runs.setdefault(result["workload"], []).append(result)
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], change: list[float], bound: float, lower_better: bool) -> str:
    sign = 1.0 if lower_better else -1.0
    b_q1, b_med, b_q3 = summary(base)
    c_q1, c_med, c_q3 = summary(change)
    worse = sign * (c_med - b_med) / b_med
    spread = max((b_q3 - b_q1) / b_med, (c_q3 - c_q1) / c_med)
    all_better = max(sign * v for v in change) < min(sign * v for v in base)
    if spread > bound:
        return "improved" if all_better else "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "within"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare BASE_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    base, change = load_set(Path(argv[0])), load_set(Path(argv[1]))
    if not set(base) & set(change):
        print("refused: the sets share no workload with untraced results", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    verdicts = set()
    print(f"{'workload':18} {'metric':14} {'base q1/med/q3':>32} {'change q1/med/q3':>32}  verdict")
    for workload in sorted(set(base) & set(change)):
        for key, what in (("fingerprint", "inputs"), ("seconds", "window lengths")):
            if {r[key] for r in base[workload]} != {r[key] for r in change[workload]}:
                print(f"refused: {workload} sets were measured with different {what}", file=sys.stderr)
                return 2
        rows = [(e["name"], "metrics", e) for e in spec["end_to_end"]]
        rows += [(name, "detail", None) for name in DETAIL_TIMINGS if name in base[workload][0]["detail"]]
        for name, section, entry in rows:
            a = [r[section][name]["value"] for r in base[workload]]
            b = [r[section][name]["value"] for r in change[workload]]
            if entry is None:
                result = "unbounded"
            else:
                result = verdict(a, b, entry["bound"], entry["better"] == "lower")
                verdicts.add(result)
            cells = ["/".join(f"{v:.4g}" for v in summary(values)) for values in (a, b)]
            print(f"{workload:18} {name:14} {cells[0]:>32} {cells[1]:>32}  {result}")
        failed = sum(r["failed"] for r in change[workload])
        attempted = sum(r["attempted"] for r in change[workload])
        if failed:
            verdicts.add("regressed")
        print(f"{workload:18} {'failed_share':14} {'':>32} {failed / attempted:>32.4g}  "
              f"{'regressed' if failed else 'within'}")
    if "regressed" in verdicts:
        return 1
    return 3 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
