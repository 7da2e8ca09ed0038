"""Continuous loading with incremental maintenance and an audit gate.

Real warehouses refresh nightly: facts arrive continuously, structure
changes arrive occasionally.  This example runs such a lifecycle on the
case-study organization:

1. the administrator audits the schema before opening it to analysts
   (:func:`repro.core.audit_schema`);
2. nightly fact batches are folded into the MultiVersion fact table
   *incrementally* (:class:`repro.warehouse.IncrementalMultiVersion`) —
   each batch derives a new table from the previous one, no full rebuild;
3. a mid-life structural change (a department split) makes the next
   access rebuild the table — the table notices the change itself — and
   the audit explains what the change implies;
4. a *sloppy* change (a deletion with no mapping) is caught by the audit
   gate before analysts see stranded facts.

Run with::

    python examples/continuous_load.py
"""

from repro.core import EvolutionManager, Query, QueryEngine, TimeGroup, YEAR, audit_schema, ym
from repro.core.query import LevelGroup
from repro.warehouse import IncrementalMultiVersion
from repro.workloads.case_study import ORG, build_case_study, fact_instant


def main() -> None:
    study = build_case_study(with_facts=False)
    schema = study.schema

    print("== audit before going live ==")
    print(audit_schema(schema).to_text())

    warehouse = IncrementalMultiVersion(schema)
    nightly_batches = {
        2001: [("jones", 100.0), ("smith", 50.0), ("brian", 100.0)],
        2002: [("jones", 100.0), ("smith", 100.0), ("brian", 50.0)],
        2003: [("bill", 150.0), ("paul", 50.0), ("smith", 110.0), ("brian", 40.0)],
    }
    for year, batch in nightly_batches.items():
        for dept, amount in batch:
            warehouse.append_fact({ORG: dept}, fact_instant(year), amount=amount)
        cells = {
            label: len(warehouse.mvft.slice(label))
            for label in warehouse.mvft.modes.labels
        }
        print(f"\nafter the {year} batch: cells per mode = {cells}")

    engine = QueryEngine(warehouse.mvft)
    q = Query(group_by=(TimeGroup(YEAR), LevelGroup(ORG, "Division")), mode="V1")
    print("\nQ1 on the incrementally-maintained table (mode V1):")
    print(engine.execute(q).to_text())

    print("\n== a structural change arrives: Smith's department splits ==")
    manager = EvolutionManager(schema)
    manager.split_member(
        ORG,
        "smith",
        {"smith_a": ("Dpt.Smith-A", 0.5), "smith_b": ("Dpt.Smith-B", 0.5)},
        ym(2004, 1),
    )
    print("audit after the split:")
    print(audit_schema(schema).to_text())
    warehouse.append_fact({ORG: "smith_a"}, fact_instant(2004), amount=70.0)
    print(f"modes now: {warehouse.mvft.modes.labels}")

    print("\n== a sloppy change: deleting Brian with no mapping ==")
    manager.delete_member(ORG, "brian", ym(2005, 1))
    report = audit_schema(schema)
    print(report.to_text())
    if not report.ok:
        print(
            "\nThe audit gate rejects the change: "
            f"{len(report.by_severity('error'))} error(s) must be fixed "
            "(associate Brian's successor, or accept the stranded facts)."
        )


if __name__ == "__main__":
    main()
