"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures (asserting
exact content, then timing the regeneration) or measures a quantitative
claim the paper makes in prose (storage redundancy, baseline limitations,
scalability of the inference).
"""

import pytest

from repro.core import QueryEngine
from repro.workloads.case_study import build_case_study, build_two_measure_case_study
from repro.workloads.generator import WorkloadConfig, generate_workload


@pytest.fixture(scope="session")
def case_study():
    """The paper's §2.1 case study."""
    return build_case_study()


@pytest.fixture(scope="session")
def two_measure_study():
    """The §5.2 turnover/profit variant (Table 12)."""
    return build_two_measure_case_study()


@pytest.fixture(scope="session")
def mvft(case_study):
    """The inferred MultiVersion fact table."""
    return case_study.schema.multiversion_facts()


@pytest.fixture(scope="session")
def engine(mvft):
    """Query engine over the case study."""
    return QueryEngine(mvft)


@pytest.fixture(scope="session")
def medium_workload():
    """A seeded synthetic workload for scalability probes."""
    return generate_workload(
        WorkloadConfig(seed=42, n_years=5, n_departments=20)
    )


# -- benchmark collector ---------------------------------------------------------
#
# Every benchmark's wall time is collected by a hookwrapper and merged into
# BENCH_observability.json at the repo root when the session ends, together
# with a snapshot of the process-default metrics registry (empty unless a
# benchmark opted in via repro.observability.runtime — the collector itself
# never enables instrumentation, so timings stay unperturbed).

import json
import pathlib
import time

_BENCH_RESULTS = []

# Named sections benchmarks fill with honest numbers (throughput, overhead
# ratios) that land next to the per-test timings in the JSON artifact.
BENCH_SECTIONS: dict = {}


@pytest.fixture(scope="session")
def bench_sections():
    return BENCH_SECTIONS


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    start = time.perf_counter()
    outcome = yield
    seconds = time.perf_counter() - start
    _BENCH_RESULTS.append(
        {
            "name": item.nodeid,
            "seconds": seconds,
            "passed": outcome.excinfo is None,
        }
    )


def merge_artifact(path: pathlib.Path, benchmarks: list, sections: dict) -> None:
    """Merge one session's results into the JSON artifact at ``path``.

    An entry in ``benchmarks`` replaces the one with the same test id, in
    place, and new ids are appended in run order; each of ``sections``
    replaces the section of the same key.  Entries and sections this
    session did not produce are kept, so running a subset of the
    benchmarks never drops the others' numbers."""
    try:
        old = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        old = {}
    fresh = {entry["name"]: entry for entry in benchmarks}
    entries = [fresh.pop(entry["name"], entry) for entry in old.get("benchmarks", [])]
    entries.extend(fresh.values())
    path.write_text(
        json.dumps({**old, "benchmarks": entries, **sections}, indent=2) + "\n"
    )


def pytest_sessionfinish(session, exitstatus):
    if not _BENCH_RESULTS:
        return
    from repro.observability import runtime

    root = pathlib.Path(__file__).resolve().parent.parent
    merge_artifact(
        root / "BENCH_observability.json",
        _BENCH_RESULTS,
        {
            "metrics": (
                runtime.current_metrics().snapshot() if runtime.enabled() else {}
            ),
            **BENCH_SECTIONS,
        },
    )
    # The storage-recovery module gets its own artifact: the row-journaling
    # tax and recover_warehouse replay numbers, tracked release over release.
    storage = [
        r for r in _BENCH_RESULTS if "test_bench_storage_recovery" in r["name"]
    ]
    if storage:
        merge_artifact(root / "BENCH_storage_recovery.json", storage, {})
