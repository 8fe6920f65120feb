"""Campaign benchmark: one workload per invocation.

    python3 perfbench/run.py --workload detect-short --seed 2006 \
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics (set-up repeated with
cold caches, then a closed-loop run phase of whole rounds lasting at
least ``--seconds``) and checks every output.  ``--trace 1`` runs the
separate traced run instead: a fixed amount of work per pass, with
spans around every layer's entry points, and reports the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Other modes:

    python3 perfbench/run.py --record-refs --workload W --seed S
    python3 perfbench/run.py --compare A.jsonl B.jsonl

Results (with samples, quartiles and an environment fingerprint) are
appended to ``.perfbench/results.jsonl``; traced runs also write their
spans to ``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
REFS = os.path.join(HERE, "refs")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    _fail(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
          "is missing")
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import stats  # noqa: E402
from calibrate import HostSpeed  # noqa: E402
from tracer import Tracer, install_layer_spans  # noqa: E402
from workloads import (REFERENCE_SEEDS, SETUP_REPEATS,  # noqa: E402
                       CoverageService, RecoverMtPool, make_workloads,
                       reset_caches, span_factory)

#: end-to-end metric -> unit
E2E_UNITS = {"setup_s": "s", "runs_per_s": "runs/s", "run_ms_p50": "ms",
             "run_ms_p90": "ms", "guest_mips": "Minstr/s",
             "job_s_p50": "s", "peak_rss_mb": "MiB"}


def log(message: str) -> None:
    print(message, flush=True)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def pin_cpu(workload) -> None:
    """Run on one CPU (the server subprocess inherits it), so the
    host-speed probes time the CPU the work runs on; the pooled
    workload keeps every CPU for its workers."""
    if isinstance(workload, RecoverMtPool):
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})


def load_reference(workload: str, seed: int):
    path = os.path.join(REFS, f"{workload}-seed{seed}.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def _work_dir(workload: str, seed: int) -> str:
    path = os.path.join(OUT, "work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


# -- set-up --------------------------------------------------------------------------


def timed_setups(workload, seed, work_dir):
    """Repeat set-up from cold caches; returns (state, [(host seconds,
    host-speed factor)])."""
    times, state = [], None
    for index in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
        reset_caches()
        speed = HostSpeed()
        start = time.perf_counter()
        state = workload.setup(seed, work_dir, index)
        elapsed = time.perf_counter() - start
        times.append((elapsed, speed.end_interval(elapsed)))
    return state, times


# -- end-to-end metrics ----------------------------------------------------------------


def end_to_end(workload, phase, setups, normalise=True) -> tuple:
    """(metric -> value, metric -> sample summary).  With
    ``normalise`` every timed interval is divided by its host-speed
    factor (which also takes off steal); without, the values are raw
    host time."""
    def norm(seconds, factor):
        return seconds / factor if normalise else seconds

    setup = [norm(h, f) for h, f in setups]
    detail = {"setup_s": stats.summary(setup)}
    values = {"setup_s": statistics.median(setup)}
    phase_s = sum((n if normalise else h) for h, n in phase.round_seconds)
    runs = sum(phase.round_runs)
    values["runs_per_s"] = runs / phase_s
    detail["runs_per_s"] = stats.summary(
        [r / (n if normalise else h)
         for r, (h, n) in zip(phase.round_runs, phase.round_seconds)])
    if phase.run_ms is not None:
        latencies = [norm(ms, f) for ms, f in phase.run_ms]
    else:
        latencies = [norm(s.seconds * 1e3, s.factor) for s in phase.samples]
    values["run_ms_p50"] = stats.percentile(latencies, 0.5)
    values["run_ms_p90"] = stats.percentile(latencies, 0.9)
    detail["run_ms"] = stats.summary(latencies)
    if isinstance(workload, CoverageService):
        values["guest_mips"] = phase.extra["instructions"] / phase_s / 1e6
    else:
        values["guest_mips"] = sum(phase.round_icount) / phase_s / 1e6
        detail["guest_mips"] = stats.summary(
            [i / (n if normalise else h) / 1e6
             for i, (h, n) in zip(phase.round_icount, phase.round_seconds)])
    jobs = [norm(h, f) for h, f in phase.jobs]
    values["job_s_p50"] = statistics.median(jobs)
    finite = [j for j in jobs if j != float("inf")]
    detail["job_s"] = dict(stats.summary(finite) if finite else {},
                           failed=len(jobs) - len(finite))
    values["peak_rss_mb"] = peak_rss_mb()
    detail["peak_rss_mb"] = stats.summary([values["peak_rss_mb"]])
    return values, detail


def error_ratio(phase) -> float:
    return phase.failed / max(1, phase.attempted)


# -- modes --------------------------------------------------------------------------


def check_outputs(workload, state, phase, seed) -> bool:
    log(f"run phase: {phase.rounds} round(s), {phase.seconds:.2f} s, "
        f"{phase.attempted} operation(s), {phase.failed} failed "
        f"(error_ratio {error_ratio(phase):.4f})")
    for job in phase.extra.get("jobs", ()):
        log(f"  job {job['program']:<12} {job['status']:<7} "
            f"{job['seconds']:7.3f} s  runs {job['runs']}"
            + (f"  [{job['error'][:60]}]" if job["error"] else ""))
    tallies: dict = {}
    for sample in phase.samples:
        bucket = tallies.setdefault(sample.program, {})
        bucket[sample.outcome] = bucket.get(sample.outcome, 0) + 1
    for program, bucket in tallies.items():
        log(f"  outcomes {program}: {dict(sorted(bucket.items()))}")
    for error in phase.extra.get("errors", [])[:5]:
        log(f"  run raised: {error}")
    return workload.check(state, phase, seed,
                          load_reference(workload.name, seed), log)


def measured_run(workload, seed, seconds, work_dir):
    state, setup_times = timed_setups(workload, seed, work_dir)
    try:
        phase = workload.run_phase(state, seed, seconds, work_dir)
    finally:
        workload.close(state)
    values, detail = end_to_end(workload, phase, setup_times)
    host_values, detail["host"] = end_to_end(workload, phase, setup_times,
                                             normalise=False)
    detail["host_speed"] = stats.summary(phase.factors)
    log(f"run-phase host speed (1.0 = calibration loop at reference): "
        f"median {detail['host_speed']['median']:.3f} "
        f"[{detail['host_speed']['q1']:.3f}..{detail['host_speed']['q3']:.3f}]"
        f" over {detail['host_speed']['n']} probes")
    for name, value in host_values.items():
        log(f"  host time {name:<22} {value:14.6g} {E2E_UNITS[name]}")
    correct = check_outputs(workload, state, phase, seed)
    return values, detail, phase, correct


def traced_pass(workload, seed, work_dir, traced: bool, index: int):
    """Set-up plus a fixed number of rounds from cold caches,
    optionally traced.  Returns (tracer or None, state, phase)."""
    reset_caches()
    tracer = Tracer() if traced else None
    if tracer is not None:
        install_layer_spans(tracer)
    span = span_factory(tracer)
    state = None
    try:
        with span("bench.setup"):
            state = workload.setup(seed, work_dir, 10 + index)
        rounds = workload.traced_rounds
        if tracer is not None and isinstance(workload, RecoverMtPool):
            # Pool workers cannot report spans: per-run layers come from
            # a serial (jobs=1) pass over the same specs, the executor
            # and journal layers from the pooled pass.
            tracer.set_phase("run_serial")
            workload.run_phase(state, seed, 0, work_dir, max_rounds=rounds,
                               tracer=tracer, jobs=1)
        if tracer is not None:
            tracer.set_phase("run")
        phase = workload.run_phase(state, seed, 0, work_dir,
                                   max_rounds=rounds, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.restore()
        if state is not None:
            workload.close(state)
    return tracer, state, phase


def trace_run(workload, seed, work_dir):
    """Traced, untraced, traced: per-layer metrics from the first pass,
    tracing overhead from the first two, and the exact-repeat check of
    the layer counts from the two traced passes."""
    service = isinstance(workload, CoverageService)
    tracer, state, phase = traced_pass(workload, seed, work_dir, True, 0)
    correct = check_outputs(workload, state, phase, seed)
    untraced = traced_pass(workload, seed, work_dir, False, 1)[2]
    second = (None if service
              else traced_pass(workload, seed, work_dir, True, 2)[0])
    rps_traced = sum(phase.round_runs) / sum(
        n for _, n in phase.round_seconds)
    rps_untraced = sum(untraced.round_runs) / sum(
        n for _, n in untraced.round_seconds)
    metrics = layers.layer_metrics(tracer, phase, workload)
    metrics["trace.overhead_ratio"] = rps_untraced / rps_traced
    metrics["error_ratio"] = error_ratio(phase)
    log(f"traced run: {phase.rounds} fixed round(s); runs/s traced "
        f"{rps_traced:.2f} vs untraced {rps_untraced:.2f} "
        f"(overhead x{metrics['trace.overhead_ratio']:.3f})")
    if isinstance(workload, RecoverMtPool):
        log("per-run layers (pipeline, machine, recovery, threads) were "
            "traced in a serial jobs=1 pass over the same specs; pool "
            "workers report no spans, the executor and journal layers "
            f"come from the pooled jobs={workload.jobs} pass")
    for line in layers.accounting_lines(tracer, workload):
        log(line)
    if tracer.missing:
        log("WARNING: layer entry points not found (reported as 0): "
            + ", ".join(tracer.missing))
    if service:
        counts_a = layers.service_counts(phase)
        counts_b = layers.service_counts(untraced)
    else:
        counts_a = layers.repeat_counts(tracer)
        counts_b = layers.repeat_counts(second)
    repeat = counts_a == counts_b
    log(f"layer counts repeat exactly across passes: {repeat} "
        f"{counts_a if repeat else (counts_a, counts_b)}")
    correct = correct and repeat
    if workload.name == "detect-short":
        for line in layers.baseline_lines(tracer):
            log(line)
    path = os.path.join(OUT, f"trace-{workload.name}-{seed}.json")
    tracer.write(path, {"workload": workload.name, "seed": seed,
                        "rounds": phase.rounds})
    log(f"spans written to {os.path.relpath(path, ROOT)} "
        f"({len(tracer.spans)} kept, {tracer.dropped} aggregated only)")
    return metrics, phase, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-refs", action="store_true",
                        help="record the interp jobs=1 references for "
                             "--workload at --seed into perfbench/refs")
    parser.add_argument("--compare", nargs=2, metavar="RESULTS",
                        help="print per-metric deltas between two "
                             "results files")
    parser.add_argument("--results", default=os.path.join(
        OUT, "results.jsonl"), help="results file to append to")
    args = parser.parse_args(argv)

    if args.compare:
        for line in stats.compare(*args.compare):
            print(line)
        return 0
    workloads = make_workloads(ROOT)
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {sorted(workloads)}")
    workload = workloads[args.workload]

    if args.record_refs:
        reference = workload.record_references(args.seed)
        os.makedirs(REFS, exist_ok=True)
        path = os.path.join(REFS, f"{workload.name}-seed{args.seed}.json")
        with open(path, "w") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
        log(f"wrote {os.path.relpath(path, ROOT)}")
        return 0

    pin_cpu(workload)
    work_dir = _work_dir(workload.name, args.seed)
    started = time.time()
    try:
        log(f"workload {workload.name}: {workload.why}")
        if args.seed not in REFERENCE_SEEDS:
            log(f"seed {args.seed}: references are stored for "
                f"{REFERENCE_SEEDS}; outputs are spot-checked on interp")
        if args.trace:
            metrics, phase, correct = trace_run(workload, args.seed,
                                                work_dir)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
            detail = {}
        else:
            metrics, detail, phase, correct = measured_run(
                workload, args.seed, args.seconds, work_dir)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, value in metrics.items():
        spread = detail.get(name.replace("_p50", "").replace("_p90", ""))
        extra = ""
        if spread and "median" in spread:
            extra = (f"   (n={spread['n']} median {spread['median']:.4g} "
                     f"q1 {spread['q1']:.4g} q3 {spread['q3']:.4g})")
        log(f"{name:<34} {value:14.6g} {units[name]}{extra}")
    log(f"correct: {correct}")
    result = {"correct": bool(correct), "attempted": int(phase.attempted),
              "failed": int(phase.failed),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = dict(result, workload=workload.name, seed=args.seed,
                  trace=args.trace, seconds=args.seconds,
                  started=started, detail=detail,
                  error_ratio=error_ratio(phase),
                  environment=stats.fingerprint(ROOT))
    os.makedirs(os.path.dirname(os.path.abspath(args.results)),
                exist_ok=True)
    with open(args.results, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
