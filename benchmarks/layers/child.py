"""One workload run, in its own interpreter (started by ``run.py``).

Generates the inputs from the seed, sets the warehouse up
:data:`SETUPS_BEFORE` times, warms up, measures for ``--seconds``, sets
it up :data:`SETUPS_AFTER` more times, then runs the correctness oracle
and prints the result as one JSON line.  With
``--trace 1`` every other operation of each kind is traced, so traced
and untraced operations have the same mix and sample the same stretch of
the run; pairing them by kind gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.layers import workloads as wl  # noqa: E402
from benchmarks.layers.trace import ROOT as ROOT_SPAN, Tracer, layer_metrics  # noqa: E402

#: Set-ups timed before the measured window and after it; ``setup_s`` is
#: the median of all of them.  Timing some after the window spreads them
#: over the run, so one burst of load on a shared host moves fewer.
SETUPS_BEFORE = 4
SETUPS_AFTER = 4

#: The traced run fails when the wrappers leave more than this share of
#: the operation time unattributed, or tracing slows operations by more
#: than MAX_OVERHEAD — judged only over at least MIN_PAIRS pairs of
#: traced and untraced operations, since a few pairs measure noise.
UNATTRIBUTED_PCT = 2.0
MAX_OVERHEAD = 1.15
MIN_PAIRS = 10

#: Exit status of a run whose operations failed or whose answers the
#: oracle rejected, and of a traced run that does not reconcile.
EXIT_INCORRECT = 5
EXIT_UNRECONCILED = 4


def set_up(factory, count: int) -> tuple[wl.Warehouse, list[float]]:
    """Set the warehouse up ``count`` times and keep the last one.

    Each set-up is timed from the generated schema in hand to both
    tenants' first answered statement.
    """
    times: list[float] = []
    warehouse = None
    for _ in range(count):
        if warehouse is not None:
            warehouse.close()
            warehouse = None
        gc.collect()
        start = time.perf_counter()
        warehouse = factory()
        times.append(time.perf_counter() - start)
    return warehouse, times


def measure(runner: wl.Runner, seconds: float, tracer: Tracer | None):
    """Warm up, then run operations until ``seconds`` have passed.

    Returns ``(samples, failures, attempted, durations)``: ``samples``
    holds ``(latency_s, duration_s, commit_s)`` of each untraced
    operation, ``durations`` maps ``(kind, traced)`` to the durations of
    those operations, in order.
    """
    for _ in range(runner.warmup):
        runner.step()
    samples: list[tuple[float, float, float | None]] = []
    failures: list[str] = []
    attempted = 0
    seen: Counter = Counter()
    durations: dict[tuple, list[float]] = defaultdict(list)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        runner.prepare()
        kind = runner.stratum()
        traced = tracer is not None and seen[kind] % 2 == 1
        seen[kind] += 1
        attempted += 1
        start = time.perf_counter()
        try:
            latency, commit = tracer.op(runner.step) if traced else runner.step()
        except Exception as exc:  # noqa: BLE001 - counted, the loop goes on
            failures.append(f"operation {attempted - 1}: {type(exc).__name__}: {exc}")
            continue
        duration = time.perf_counter() - start
        if traced:  # the operation itself, without switching tracing on and off
            op_start, op_end = tracer.ops[-1]
            duration = (op_end - op_start) / 1e9
        durations[(kind, traced)].append(duration)
        if not traced:
            samples.append((latency, duration, commit))
    return samples, failures, attempted, durations


def overhead_pairs(durations: dict[tuple, list[float]]) -> list[float]:
    """traced / untraced time of each pair of same-kind operations."""
    return [
        traced / plain
        for (kind, is_traced), times in durations.items()
        if not is_traced
        for plain, traced in zip(times, durations.get((kind, True), []))
    ]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for start, end in tracer.ops:
            handle.write(json.dumps({"name": ROOT_SPAN, "start_ns": start, "end_ns": end}) + "\n")
        for name, start, end in tracer.spans:
            handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": end}) + "\n")


def run(args: argparse.Namespace) -> dict:
    workload = wl.WORKLOADS[args.workload]
    schema = wl.generate(workload, args.seed, toy=args.size == "toy")
    plan = workload.plan(schema, args.seed)
    digest = wl.fingerprint(schema, plan)
    workdir = ROOT / ".bench_build" / f"layers-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        factory = wl.warehouse_factory(schema, workdir)
        warehouse, setup_times = set_up(factory, SETUPS_BEFORE)
        runner = workload.runner(warehouse, plan, args.seed, factory)
        try:
            tracer = None
            if args.trace:

                def probe() -> dict[str, float]:
                    stats = runner.warehouse.manager.result_cache.stats()
                    return {
                        "hits": stats["hits"],
                        "misses": stats["misses"],
                        "evictions": stats["evictions"],
                        "bytes": stats["bytes"],
                        "wal_bytes": runner.warehouse.txm.wal.size_bytes,
                    }

                tracer = Tracer(probe, lambda: runner.warehouse.manager.snapshot().mvft())
            samples, failures, attempted, durations = measure(runner, args.seconds, tracer)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        finally:
            runner.warehouse.close()
        warehouse, later = set_up(factory, SETUPS_AFTER)
        warehouse.close()
        setup_times += later
        problems = runner.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = sorted(latency * 1e3 for latency, _d, _c in samples)
    commits = [commit * 1e3 for _l, _d, commit in samples if commit is not None]
    failed = len(failures) + len(problems)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "fingerprint": digest,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": (failures + problems)[:20],
        "metrics": {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
        # Reported with every run but carrying no bound: on a shared host
        # their run-to-run spread is wider than a useful bound.
        "detail": {
            "p50_ms": metric(statistics.median(latencies), "ms"),
            "p90_ms": metric(statistics.quantiles(latencies, n=10)[8], "ms"),
            "ops_per_s": metric(len(samples) / sum(d for _l, d, _c in samples), "1/s"),
            "samples": metric(len(samples), "count"),
            "failed_share": metric(failed / attempted, "ratio"),
        },
        "layers": {},
    }
    if commits:
        result["detail"]["commit_p50_ms"] = metric(statistics.median(commits), "ms")
    if tracer is not None:
        pairs = overhead_pairs(durations)
        if not pairs:
            raise SystemExit("error: the window was too short to pair traced and untraced operations")
        values = layer_metrics(tracer, statistics.median(pairs))
        result["detail"]["trace_pairs"] = metric(len(pairs), "count")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
        result["layers"] = {name: metric(v, units[name]) for name, v in values.items()}
        trace_dir = args.trace_dir or ROOT / ".bench_build" / "layers-traces"
        write_spans(tracer, trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one layer-benchmark workload run")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result), flush=True)
    if result["failed"]:
        print(f"error: {result['failed']} failed operations or oracle mismatches:", file=sys.stderr)
        for failure in result["failures"]:
            print(f"  {failure}", file=sys.stderr)
        return EXIT_INCORRECT
    layers = result["layers"]
    if layers and (
        layers["trace.unattributed_pct"]["value"] > UNATTRIBUTED_PCT
        or (
            layers["trace.overhead_ratio"]["value"] > MAX_OVERHEAD
            and result["detail"]["trace_pairs"]["value"] >= MIN_PAIRS
        )
    ):
        print(
            "error: traced run does not reconcile "
            f"(unattributed {layers['trace.unattributed_pct']['value']:.2f}%, "
            f"overhead x{layers['trace.overhead_ratio']['value']:.3f})",
            file=sys.stderr,
        )
        return EXIT_UNRECONCILED
    return 0


if __name__ == "__main__":
    sys.exit(main())
