#!/usr/bin/env python
"""Tour of the observability subsystem (`repro.obs`).

Runs a small fault-injection campaign with metrics enabled — serially
and fanned out over worker processes — then renders the merged
campaign registry the way `repro stats` does, shows that the parallel
run's telemetry sums to exactly the serial totals, and exports the
serial campaign's trace sidecar (job → chunk → run → phase spans) the
way `repro trace export` does.

Run:  python examples/observability_tour.py
"""

import os
import tempfile

from repro import obs
from repro.faults import (CampaignExecutor, PipelineConfig,
                          clear_caches, generate_category_faults)
from repro.obs.exporters import load_snapshot, render_stats
from repro.obs.traceevent import (TraceContext, export_chrome_trace,
                                  read_entries, trace_sidecar_path,
                                  validate_chrome_trace)
from repro.workloads import suite as workload_suite


def counter_total(snapshot: dict, name: str) -> float:
    return sum(entry["value"] for entry in snapshot["counters"]
               if entry["name"] == name)


def run_campaign(program, config, specs, jobs: int,
                 metrics_path: str, journal: str | None = None) -> dict:
    """One observed campaign; returns the exported snapshot.  With a
    journal the campaign is traced: its spans go to the sidecar."""
    clear_caches()   # cold caches so both runs do identical work
    trace = TraceContext.root("observability-tour") if journal else None
    with obs.session(metrics_path):
        CampaignExecutor(program, config, jobs=jobs, journal=journal,
                         trace=trace).run_specs(specs)
    return load_snapshot(metrics_path)


def main() -> None:
    program = workload_suite.load("254.gap", "test")
    faults = generate_category_faults(program, per_category=4, seed=7)
    specs = [spec for specs in faults.by_category.values()
             for spec in specs]
    config = PipelineConfig("dbt", "rcf")
    print(f"campaign: {len(specs)} faults under {config.label()}\n")

    with tempfile.TemporaryDirectory() as tmp:
        serial_path = os.path.join(tmp, "serial.json")
        parallel_path = os.path.join(tmp, "parallel.json")
        journal = os.path.join(tmp, "serial.jsonl")

        # 1. Serial campaign, metrics captured; the journal makes it a
        #    traced campaign, whose spans land in the trace sidecar.
        serial = run_campaign(program, config, specs, jobs=1,
                              metrics_path=serial_path, journal=journal)

        # 2. The same campaign over 4 workers: each worker drains its
        #    own registry after every chunk, the parent merges the
        #    drains into one campaign-level registry.
        parallel = run_campaign(program, config, specs, jobs=4,
                                metrics_path=parallel_path)

        # 3. The merged parallel registry reports *exactly* the serial
        #    totals — same runs, same instructions, any job count.
        for name in ("interp_instructions_total",
                     "dbt_checks_executed_total",
                     "campaign_runs_total"):
            s = counter_total(serial, name)
            p = counter_total(parallel, name)
            marker = "==" if s == p else "!="
            print(f"{name:30s} serial={s:>10.0f} {marker} "
                  f"parallel={p:>10.0f}")
            assert s == p, name
        print()

        # 4. The human report (what `repro stats parallel.json` prints).
        print(render_stats(parallel))
        print()

        # 5. The trace sidecar, exported as `repro trace export` does:
        #    Chrome trace-event JSON with each run's phases (dbt.run,
        #    dbt.translate, ...) nested under the run span.
        trace = export_chrome_trace(
            read_entries(trace_sidecar_path(journal)),
            os.path.join(tmp, "trace.json"))
        assert validate_chrome_trace(trace) == []
        by_cat: dict[str, int] = {}
        phases: dict[str, int] = {}
        for event in trace["traceEvents"]:
            if event["ph"] != "X":
                continue
            by_cat[event["cat"]] = by_cat.get(event["cat"], 0) + 1
            if event["cat"] == "span":
                phases[event["name"]] = phases.get(event["name"], 0) + 1
        print("trace: " + ", ".join(f"{count} {cat}"
                                    for cat, count in sorted(by_cat.items()))
              + "; phases: " + ", ".join(f"{name} x{count}" for name, count
                                         in sorted(phases.items())))


if __name__ == "__main__":
    main()
