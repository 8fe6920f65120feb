"""Per-layer metrics of the traced run (``README.md`` lists which
end-to-end metric each should move, on which workload).

Run-phase layer times are *self* times: a span's duration minus the
part its child spans cover, so the layers plus ``unattributed`` (the
benchmark's own loop and its host-speed probes) add up to the
run-phase wall time.  Set-up layers
(``faults.profile_s``, ``faults.golden_s``, ``instrument.rewrite_s``)
are inclusive times of the set-up phase.
"""

from __future__ import annotations

#: (name, unit, better)
PER_LAYER = [
    ("dbt.sessions", "count", "lower"),
    ("dbt.session_s", "s", "lower"),
    ("dbt.translations", "count", "lower"),
    ("dbt.translate_s", "s", "lower"),
    ("dbt.retranslate_ratio", "ratio", "lower"),
    ("dbt.dispatch_s", "s", "lower"),
    ("cfg.build_calls", "count", "lower"),
    ("cfg.build_s", "s", "lower"),
    ("exec.blocks_compiled", "count", "lower"),
    ("exec.compile_s", "s", "lower"),
    ("exec.chain_hit_ratio", "ratio", "higher"),
    ("exec.execute_s", "s", "lower"),
    ("faults.injector.hook_calls", "count", "lower"),
    ("faults.injector.hook_s", "s", "lower"),
    ("faults.injector.hooks_per_fire", "ratio", "lower"),
    ("faults.injector.fired_ratio", "ratio", "higher"),
    ("faults.pipeline.self_s", "s", "lower"),
    ("machine.run_s", "s", "lower"),
    ("recovery.checkpoints", "count", "lower"),
    ("recovery.capture_s", "s", "lower"),
    ("recovery.rollbacks", "count", "lower"),
    ("recovery.restore_s", "s", "lower"),
    ("threads.switches", "count", "lower"),
    ("threads.run_s", "s", "lower"),
    ("faults.executor.chunks", "count", "lower"),
    ("faults.executor.wait_s", "s", "lower"),
    ("faults.executor.worker_busy_share", "fraction", "higher"),
    ("faults.journal.appends", "count", "lower"),
    ("faults.journal.append_s", "s", "lower"),
    ("faults.journal.bytes", "bytes", "lower"),
    ("faults.profile_s", "s", "lower"),
    ("faults.golden_s", "s", "lower"),
    ("instrument.rewrite_s", "s", "lower"),
    ("faults.cache.golden_hit_ratio", "ratio", "higher"),
    ("faults.cache.profile_hit_ratio", "ratio", "higher"),
    ("service.submit_ms", "ms", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.job_run_s", "s", "lower"),
    ("service.disk_cache_hit_ratio", "ratio", "higher"),
    ("unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("error_ratio", "fraction", "lower"),
]

#: counts that must repeat exactly across two traced passes
REPEAT_COUNTS = ("dbt.sessions", "dbt.translations", "cfg.build_calls",
                 "exec.blocks_compiled", "faults.injector.hook_calls",
                 "faults.injector.fires", "faults.runs",
                 "recovery.checkpoints", "recovery.rollbacks",
                 "threads.switches", "faults.journal.appends")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _run_phases(workload) -> tuple[str, str]:
    """(phase holding per-run layers, phase holding pool layers)."""
    if workload.name == "recover-mt-pool":
        return "run_serial", "run"
    return "run", "run"


def layer_metrics(tracer, phase, workload) -> dict:
    per_run, pool = _run_phases(workload)
    s = tracer.self_seconds
    c = tracer.counted
    m = {}
    m["dbt.sessions"] = c(per_run, "dbt.sessions")
    m["dbt.session_s"] = s(per_run, "dbt.session")
    m["dbt.translations"] = c(per_run, "dbt.translations")
    m["dbt.translate_s"] = s(per_run, "dbt.translate")
    m["dbt.retranslate_ratio"] = _ratio(
        c(per_run, "dbt.translations") + c("setup", "dbt.translations"),
        len(tracer.distinct_blocks))
    m["dbt.dispatch_s"] = s(per_run, "dbt.dispatch")
    m["cfg.build_calls"] = c(per_run, "cfg.build_calls")
    m["cfg.build_s"] = s(per_run, "cfg.build")
    m["exec.blocks_compiled"] = c(per_run, "exec.blocks_compiled")
    m["exec.compile_s"] = s(per_run, "exec.compile")
    m["exec.chain_hit_ratio"] = _ratio(
        c(per_run, "exec.chain_hits"),
        c(per_run, "exec.chain_hits") + c(per_run, "exec.chain_misses"))
    m["exec.execute_s"] = s(per_run, "exec.execute")
    hooks = c(per_run, "faults.injector.hook_calls")
    fires = c(per_run, "faults.injector.fires")
    m["faults.injector.hook_calls"] = hooks
    m["faults.injector.hook_s"] = s(per_run, "faults.injector.hook")
    m["faults.injector.hooks_per_fire"] = _ratio(hooks, fires)
    m["faults.injector.fired_ratio"] = _ratio(
        fires, c(per_run, "faults.injected_runs"))
    m["faults.pipeline.self_s"] = s(per_run, "faults.pipeline")
    m["machine.run_s"] = s(per_run, "machine.run")
    m["recovery.checkpoints"] = c(per_run, "recovery.checkpoints")
    m["recovery.capture_s"] = s(per_run, "recovery.capture")
    m["recovery.rollbacks"] = c(per_run, "recovery.rollbacks")
    m["recovery.restore_s"] = s(per_run, "recovery.restore")
    m["threads.switches"] = c(per_run, "threads.switches")
    m["threads.run_s"] = s(per_run, "threads.run")
    pool_wall = tracer.total_seconds(pool, "faults.executor.wait")
    m["faults.executor.chunks"] = phase.extra.get("chunks", 0)
    m["faults.executor.wait_s"] = s(pool, "faults.executor.wait")
    m["faults.executor.worker_busy_share"] = _ratio(
        phase.extra.get("worker_run_s", 0.0),
        getattr(workload, "jobs", 1) * pool_wall)
    m["faults.journal.appends"] = c(pool, "faults.journal.appends")
    m["faults.journal.append_s"] = s(pool, "faults.journal.append")
    m["faults.journal.bytes"] = c(pool, "faults.journal.bytes")
    total = tracer.total_seconds
    m["faults.profile_s"] = total("setup", "faults.profile")
    m["faults.golden_s"] = total("setup", "faults.golden")
    m["instrument.rewrite_s"] = total("setup", "instrument.rewrite")
    for kind in ("golden", "profile"):
        hits = sum(c(p, f"faults.cache.{kind}_hit") for p in tracer.counts)
        misses = sum(c(p, f"faults.cache.{kind}_miss")
                     for p in tracer.counts)
        m[f"faults.cache.{kind}_hit_ratio"] = _ratio(hits, hits + misses)
    jobs = phase.extra.get("jobs") or []
    if isinstance(jobs, list) and jobs and isinstance(jobs[0], dict):
        m["service.submit_ms"] = _ratio(
            sum(j["submit_s"] for j in jobs) * 1e3, len(jobs))
        m["service.queue_wait_s"] = sum(j["queue_wait_s"] for j in jobs)
        m["service.job_run_s"] = sum(j["job_run_s"] for j in jobs)
        hits = phase.extra["disk_hits"]
        m["service.disk_cache_hit_ratio"] = _ratio(
            hits, hits + phase.extra["disk_misses"])
    else:
        for name in ("service.submit_ms", "service.queue_wait_s",
                     "service.job_run_s", "service.disk_cache_hit_ratio"):
            m[name] = 0.0
    m["unattributed_s"] = sum(s(pool, name) for name in
                              tracer.aggregates.get(pool, {})
                              if name.startswith("bench."))
    return m


def _accounting(tracer, phase_name) -> list[str]:
    aggregates = tracer.aggregates.get(phase_name, {})
    wall = aggregates.get("bench.run_phase", [0, 0.0, 0.0])[1]
    rows, attributed = [], 0.0
    for name, (calls, _, self_s) in sorted(
            aggregates.items(), key=lambda kv: -kv[1][2]):
        if name.startswith("bench."):
            continue
        attributed += self_s
        rows.append(f"  {name:<26} {self_s:10.4f} s "
                    f"{_ratio(self_s, wall) * 100:6.1f}%  ({calls} spans)")
    unattributed = sum(agg[2] for name, agg in aggregates.items()
                       if name.startswith("bench."))
    rows.append(f"  {'unattributed':<26} {unattributed:10.4f} s "
                f"{_ratio(unattributed, wall) * 100:6.1f}%")
    rows.append(f"  {'sum / run-phase wall':<26} "
                f"{attributed + unattributed:10.4f} s / {wall:.4f} s")
    return rows


def accounting_lines(tracer, workload) -> list[str]:
    per_run, pool = _run_phases(workload)
    lines = []
    if per_run != pool:
        lines.append("self-time accounting, serial per-run pass:")
        lines.extend(_accounting(tracer, per_run))
    lines.append("self-time accounting, run phase:")
    lines.extend(_accounting(tracer, pool))
    return lines


def repeat_counts(tracer) -> dict:
    out = {}
    for phase, counts in tracer.counts.items():
        for key in REPEAT_COUNTS:
            if counts.get(key):
                out[f"{phase}:{key}"] = counts[key]
    return out


def service_counts(phase) -> dict:
    jobs = phase.extra["jobs"]
    return {"jobs": len(jobs),
            "failed": sum(j["status"] != "done" for j in jobs),
            "runs": sum(j["runs"] for j in jobs),
            "disk_hits": phase.extra["disk_hits"],
            "disk_misses": phase.extra["disk_misses"]}


def baseline_lines(tracer) -> list[str]:
    """detect-short shares next to the cProfile baseline of ROADMAP
    item 1 (204 dbt/rcf block runs on 254.gap: ~35% retranslation,
    ~26% injector hook, ~16% block compilation)."""
    wall = tracer.total_seconds("run", "bench.run_phase")
    dbt = sum(tracer.self_seconds("run", name) for name in
              ("dbt.translate", "dbt.session", "cfg.build"))
    hook = tracer.self_seconds("run", "faults.injector.hook")
    compile_s = tracer.self_seconds("run", "exec.compile")
    return [
        "shares of the run phase vs the cProfile baseline (ROADMAP item 1):",
        f"  dbt translate+session+cfg {_ratio(dbt, wall) * 100:5.1f}%   "
        "baseline ~35% (retranslation)",
        f"  injector hook             {_ratio(hook, wall) * 100:5.1f}%   "
        "baseline ~26%",
        f"  block compilation         {_ratio(compile_s, wall) * 100:5.1f}%"
        "   baseline ~16%",
    ]
