"""Layer benchmark entry point.

One run of one workload (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/layers/run.py --workload hot_dashboard --seed 1 \\
        --seconds 15 --trace 0 [--out DIR]

Without ``--workload`` every workload runs in turn; ``--seconds``
defaults to ``run_seconds`` in ``BENCHMARK.json``.  ``--trace 1`` makes
the run report per-layer metrics instead of end-to-end ones.  Two sets of
result files compare with::

    python3 benchmarks/layers/run.py compare A/ B/

Each workload runs in a fresh interpreter with ``PYTHONHASHSEED=0``;
this process only starts it, waits for it, and prints its metrics as
``name value unit`` lines followed by one JSON object.  A run whose
operations failed, whose answers the oracle rejected, or whose trace does
not reconcile still prints its result, then exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("hot_dashboard", "adhoc_scan", "ingest_freshness", "evolve_freshness")
CHILD_TIMEOUT_S = 170.0
#: Statuses of a child that ran to the end and printed its result (see child.py).
EXIT_UNRECONCILED, EXIT_INCORRECT = 4, 5


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.layers", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="measured window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="directory for the JSON result files")
    parser.add_argument("--trace-dir", type=Path, help="directory for traced spans (JSONL)")
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    return parser


def _child_command(args: argparse.Namespace, workload: str) -> list[str]:
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
    ]
    if args.trace_dir is not None:
        command += ["--trace-dir", str(args.trace_dir)]
    return command


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = float(spec["run_seconds"])
    env = dict(os.environ, PYTHONHASHSEED="0")
    for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
        try:
            child = subprocess.run(
                _child_command(args, workload),
                cwd=ROOT,
                env=env,
                stdout=subprocess.PIPE,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"error: {workload} did not finish in {CHILD_TIMEOUT_S:g}s", file=sys.stderr)
            return 3
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, EXIT_INCORRECT, EXIT_UNRECONCILED) or not lines:
            print(f"error: {workload} exited with {child.returncode}", file=sys.stderr)
            return child.returncode if child.returncode > 0 else 1
        result = json.loads(lines[-1])
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            suffix = "-trace" if args.trace else ""
            path = args.out / f"{workload}-seed{args.seed}{suffix}.json"
            path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        reported = result["layers"] if args.trace else result["metrics"]
        for name, metric in {**result["metrics"], **result["detail"], **result["layers"]}.items():
            print(f"{workload}.{name} {metric['value']:.6g} {metric['unit']}")
        print(
            json.dumps(
                {
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": reported,
                }
            ),
            flush=True,
        )
        if child.returncode != 0:
            print(f"error: {workload} exited with {child.returncode}", file=sys.stderr)
            return child.returncode
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        sys.path.insert(0, str(ROOT))
        from benchmarks.layers.compare import main as compare_main

        return compare_main(argv[1:])
    if argv[:1] == ["run"]:
        argv = argv[1:]
    return run(_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
