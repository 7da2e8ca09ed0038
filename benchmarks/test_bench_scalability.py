"""Scalability — MultiVersion inference and query latency vs history size.

The paper's prototype runs on a commercial stack; our substrate is a pure
Python engine, so absolute numbers differ, but the *shape* should hold:
inference cost grows with (facts × structure versions), tcm queries are
the cheapest interpretation, and mapped-mode queries pay for routing.
"""

import pytest

from repro.core import LevelGroup, Query, QueryEngine, TimeGroup, YEAR
from repro.workloads.generator import WorkloadConfig, generate_workload

QUERY = Query(group_by=(TimeGroup(YEAR), LevelGroup("org", "Division")))


def infer_every_mode(schema):
    """Build the table and fill every version mode: the whole inference."""
    mvft = schema.multiversion_facts()
    mvft.unmapped
    return mvft


@pytest.mark.parametrize("n_years", [3, 5, 7])
def test_bench_mv_inference(benchmark, n_years):
    workload = generate_workload(
        WorkloadConfig(seed=33, n_years=n_years, n_departments=20)
    )

    mvft = benchmark(infer_every_mode, workload.schema)
    assert len(mvft.slice("tcm")) == len(workload.schema.facts)
    print(
        f"\n{n_years} years: {len(workload.schema.facts)} facts, "
        f"{len(workload.schema.structure_versions())} versions, "
        f"{len(mvft)} MV cells"
    )


@pytest.mark.parametrize("n_departments", [10, 30, 60])
def test_bench_mv_inference_vs_dimension_size(benchmark, n_departments):
    workload = generate_workload(
        WorkloadConfig(seed=33, n_years=4, n_departments=n_departments)
    )
    mvft = benchmark(infer_every_mode, workload.schema)
    assert len(mvft) > len(workload.schema.facts)


@pytest.mark.parametrize("mode_kind", ["tcm", "first", "last"])
def test_bench_query_latency_by_mode(benchmark, medium_workload, mode_kind):
    mvft = medium_workload.schema.multiversion_facts()
    engine = QueryEngine(mvft)
    labels = mvft.modes.labels
    label = {"tcm": "tcm", "first": labels[1], "last": labels[-1]}[mode_kind]

    result = benchmark(engine.execute, QUERY.with_mode(label))
    assert len(result) > 0


def test_bench_fact_scan_throughput(benchmark, medium_workload):
    """Raw consistent-table scan speed, the floor under every query."""
    facts = medium_workload.schema.facts

    def scan():
        return sum(
            row.value("amount") or 0.0 for row in facts
        )

    total = benchmark(scan)
    assert total > 0
