"""The four benchmark workloads.

Each workload is a closed loop driven from this process: it submits
one unit of work, waits for it, then submits the next.  The run phase
is made of *rounds*; a round gives every program of the workload one
job (a batch of fault runs, a pooled campaign, or coverage jobs), so
the mix of programs and fault categories is the same however many
rounds fit in ``--seconds``.  The run phase ends at the first round
boundary at or after ``--seconds``.

Fault specs come from ``generate_category_faults(..., seed=seed)``:
round ``r`` takes specs ``r*batch .. r*batch+batch-1`` of every
category (wrapping around when a list runs out), so the specs a run
executes are a pure function of the seed and the round count.

Only public entry points drive the program: ``generate_category_faults``,
``Pipeline`` and ``CampaignExecutor`` (``repro.faults``),
``compute_coverage_matrix`` (``repro.analysis``, for reference
matrices) and ``repro serve`` with ``ServiceClient``.
"""

from __future__ import annotations

import contextlib
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

from calibrate import HostSpeed
from runcpu import RunCpuTimes
from repro.analysis import compute_coverage_matrix
from repro.exec.block import clear_code_cache
from repro.faults import (CampaignExecutor, Outcome, Pipeline,
                          PipelineConfig, clear_caches,
                          generate_category_faults)
from repro.isa.assembler import assemble
from repro.machine import run_native
from repro.obs.traceevent import (TraceContext, read_entries,
                                  trace_sidecar_path)
from repro.service.client import ServiceClient
from repro.workloads import BY_NAME

#: One letter per outcome in the stored references.
OUTCOME_CODES = {
    Outcome.DETECTED_SIGNATURE: "S", Outcome.DETECTED_HARDWARE: "H",
    Outcome.SDC: "D", Outcome.BENIGN: "B", Outcome.HANG: "G",
    Outcome.INFRA_ERROR: "I", Outcome.RECOVERED: "R",
    Outcome.RECOVERY_FAILED: "F",
}
CODE_NAMES = {code: outcome.value for outcome, code in OUTCOME_CODES.items()}

#: Seeds with stored references (``perfbench/refs``): the default and a
#: held-out seed kept for confirming gains on unseen faults.
REFERENCE_SEEDS = (2006, 8128)

#: Set-up is repeated this many times per run (cold caches each time);
#: ``setup_s`` is the median.
SETUP_REPEATS = 5

HERE = os.path.dirname(os.path.abspath(__file__))

#: Wall-clock budget of the interp cross-check on seeds without stored
#: references (at least one run per program is always checked).
SPOT_CHECK_SECONDS = 2.0


def run_cpu_dir(work_dir: str) -> str:
    """Where the fault runs of a run phase record their CPU time."""
    return os.path.join(work_dir, "run-cpu")


def span_factory(tracer):
    """``tracer.span``, or a no-op span when the run is untraced."""
    if tracer is None:
        return lambda name: contextlib.nullcontext()
    return tracer.span


def reset_caches() -> None:
    """Cold start: drop golden/profile caches and compiled blocks."""
    clear_caches()
    clear_code_cache()


@dataclass
class Sample:
    """One fault run as the benchmark saw it."""

    program: str
    category: str
    index: int
    outcome: str
    icount: int
    #: CPU seconds of the run (None when only its pool worker timed it)
    seconds: float | None
    #: CPU-time host-speed factor of the interval the run belongs to
    factor: float = 1.0
    outputs: tuple = ()


@dataclass
class PhaseResult:
    """What a run phase measured.  Timed intervals are kept both in
    host seconds and divided by their host-speed factor (see
    ``calibrate.py``); the end-to-end metrics use the latter."""

    seconds: float = 0.0          #: run-phase wall time, probes included
    rounds: int = 0
    samples: list = field(default_factory=list)
    #: per job: (host seconds to completion, factor); inf = failed job
    jobs: list = field(default_factory=list)
    round_runs: list = field(default_factory=list)
    round_icount: list = field(default_factory=list)
    #: per round: (host seconds, normalised seconds), probes excluded
    round_seconds: list = field(default_factory=list)
    #: (CPU ms, CPU-time factor) per run when timed elsewhere than in
    #: samples
    run_ms: list | None = None
    factors: list = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    extra: dict = field(default_factory=dict)

    def add_round(self, runs: int, icount: int, host_s: float,
                  norm_s: float) -> None:
        self.rounds += 1
        self.round_runs.append(runs)
        self.round_icount.append(icount)
        self.round_seconds.append((host_s, norm_s))

    def done(self, max_rounds, seconds: float, elapsed: float) -> bool:
        if max_rounds is not None:
            return self.rounds >= max_rounds
        return elapsed >= seconds


def _batch(by_category: dict, round_index: int, batch: int):
    """(category, index, spec) of one round's batch for one program."""
    out = []
    for category, specs in by_category.items():
        if not specs:
            continue
        for j in range(batch):
            index = (round_index * batch + j) % len(specs)
            out.append((category.value, index, specs[index]))
    return out


def _record_sample(label, category, index, record, seconds,
                   factor=1.0) -> Sample:
    return Sample(label, category, index, record.outcome.value,
                  record.icount, seconds, factor, record.outputs)


# -- campaign workloads ------------------------------------------------------------


@dataclass
class Item:
    label: str
    program: object
    by_category: dict
    pipeline: Pipeline


class CampaignWorkload:
    """Shared set-up, reference and check logic of the three
    fault-campaign workloads."""

    name = ""
    why = ""
    config: PipelineConfig
    per_category = 0       #: specs per category in each program's list
    batch = 0              #: specs per category in one round
    traced_rounds = 1      #: fixed work of one traced pass
    mt = False

    def programs(self) -> list:
        """[(label, zero-argument assembler)]."""
        raise NotImplementedError

    def build(self, seed: int) -> list[Item]:
        items = []
        for label, make in self.programs():
            program = make()
            faults = generate_category_faults(
                program, per_category=self.per_category, seed=seed,
                mt=self.config if self.mt else None)
            items.append(Item(label, program, faults.by_category,
                              self.make_pipeline(program)))
        return items

    def make_pipeline(self, program) -> Pipeline:
        return Pipeline(program, self.config)

    def setup(self, seed: int, work_dir: str, index: int) -> list[Item]:
        return self.build(seed)

    def close(self, items) -> None:
        pass

    # -- references -------------------------------------------------------------

    def reference_config(self) -> PipelineConfig:
        """The reference path: the ``interp`` backend, in process."""
        return replace(self.config, backend="interp")

    def record_references(self, seed: int) -> dict:
        """Every spec of every program, run serially on ``interp``."""
        reset_caches()
        programs = {}
        for item in self.build(seed):
            pipeline = Pipeline(item.program, self.reference_config())
            programs[item.label] = {
                category.value: "".join(
                    OUTCOME_CODES[pipeline.run(spec).outcome]
                    for spec in specs)
                for category, specs in item.by_category.items()}
        return {"workload": self.name, "seed": seed,
                "backend": "interp", "jobs": 1,
                "per_category": self.per_category, "programs": programs}

    # -- checks -----------------------------------------------------------------

    def native_outputs(self, program) -> tuple:
        cpu, stop = run_native(program)
        return (tuple(cpu.output), tuple(cpu.output_values))

    def check(self, items, phase: PhaseResult, seed: int,
              reference: dict | None, log) -> bool:
        ok = True
        for item in items:
            native = self.native_outputs(item.program)
            if item.pipeline.golden.outputs != native:
                log(f"CHECK FAILED {item.label}: golden outputs under "
                    f"{self.config.label()} differ from the native interp "
                    "run")
                ok = False
        if reference is None:
            return self.spot_check(items, phase, seed, log) and ok
        refs = reference["programs"]
        want: dict = {}
        mismatches = 0
        for s in phase.samples:
            expected = CODE_NAMES[refs[s.program][s.category][s.index]]
            key = (s.program, s.category, expected)
            want[key] = want.get(key, 0) + 1
            if s.outcome != expected:
                mismatches += 1
                if mismatches <= 5:
                    log(f"CHECK FAILED {s.program} {s.category}#{s.index}: "
                        f"{s.outcome}, reference {expected}")
        log(f"check: {len(phase.samples)} runs against stored references "
            f"(seed {seed}): {mismatches} mismatches")
        if want != tally(phase.samples):
            log("CHECK FAILED: per-(program, category, outcome) tallies "
                "differ from the reference")
            ok = False
        return ok and mismatches == 0

    def spot_check(self, items, phase, seed, log) -> bool:
        """Seeds without stored references: re-run a seeded sample of
        the executed specs on the reference path and compare outcome,
        icount and outputs exactly."""
        specs = {item.label: {category.value: specs for category, specs
                              in item.by_category.items()}
                 for item in items}
        reference = {item.label: Pipeline(item.program,
                                          self.reference_config())
                     for item in items}
        order = list(range(len(phase.samples)))
        random.Random(seed).shuffle(order)
        seen_programs: set = set()
        checked = bad = 0
        start = time.perf_counter()
        for position in order:
            sample = phase.samples[position]
            over = time.perf_counter() - start > SPOT_CHECK_SECONDS
            if over and sample.program in seen_programs:
                if len(seen_programs) == len(items):
                    break
                continue
            spec = specs[sample.program][sample.category][sample.index]
            record = reference[sample.program].run(spec)
            checked += 1
            seen_programs.add(sample.program)
            if (record.outcome.value != sample.outcome
                    or record.icount != sample.icount
                    or (sample.outputs and record.outputs != sample.outputs)):
                bad += 1
                if bad <= 5:
                    log(f"CHECK FAILED {sample.program} {sample.category}"
                        f"#{sample.index}: {sample.outcome}/"
                        f"{sample.icount}, interp reference "
                        f"{record.outcome.value}/{record.icount}")
        log(f"check: seed {seed} has no stored references; "
            f"{checked} of {len(phase.samples)} runs re-run on interp "
            f"(jobs=1): {bad} mismatches")
        return bad == 0


def tally(samples) -> dict:
    out: dict = {}
    for s in samples:
        key = (s.program, s.category, s.outcome)
        out[key] = out.get(key, 0) + 1
    return out


def log_error(result: PhaseResult, item: Item, exc: Exception) -> None:
    result.extra.setdefault("errors", []).append(
        f"{item.label}: {type(exc).__name__}: {exc}")


class SerialCampaign(CampaignWorkload):
    """Fault runs issued one at a time through ``Pipeline.run``; a job
    is one round (a batch of specs for every program)."""

    def run_phase(self, items, seed: int, seconds: float, work_dir: str,
                  max_rounds=None, tracer=None, jobs=None) -> PhaseResult:
        span = span_factory(tracer)
        result = PhaseResult()
        clock = time.perf_counter
        with span("bench.run_phase"):
            t0 = clock()
            speed = HostSpeed()
            while True:
                runs = icount = 0
                host_s = norm_s = 0.0
                with span("bench.job"):
                    # One host-speed interval per program batch.
                    for item in items:
                        b0 = clock()
                        batch = []
                        for category, index, spec in _batch(
                                item.by_category, result.rounds,
                                self.batch):
                            a = time.thread_time()
                            try:
                                record = item.pipeline.run(spec)
                            except Exception as exc:  # quarantined
                                result.failed += 1
                                log_error(result, item, exc)
                                continue
                            batch.append(_record_sample(
                                item.label, category, index, record,
                                time.thread_time() - a))
                            if record.outcome is Outcome.INFRA_ERROR:
                                result.failed += 1
                            runs += 1
                            icount += record.icount
                        elapsed = clock() - b0
                        factor = speed.end_interval(elapsed)
                        for sample in batch:
                            sample.factor = speed.cpu_factor
                        result.samples.extend(batch)
                        host_s += elapsed
                        norm_s += elapsed / factor
                result.jobs.append((host_s, host_s / norm_s))
                result.add_round(runs, icount, host_s, norm_s)
                if result.done(max_rounds, seconds, clock() - t0):
                    break
            result.seconds = clock() - t0
        result.factors = speed.factors
        result.attempted = len(result.samples) + result.failed
        return result


class DetectShort(SerialCampaign):
    name = "detect-short"
    why = ("DBT+RCF fault runs that end at the first failed CHECK_SIG in "
           "ms: per-run setup, retranslation, block compile and injector "
           "hook dominate")
    config = PipelineConfig("dbt", "rcf", backend="block")
    per_category = 240
    batch = 4
    traced_rounds = 2

    def programs(self):
        return [(name, lambda name=name: BY_NAME[name].assemble("test"))
                for name in ("254.gap", "176.gcc", "164.gzip", "181.mcf")]


class ExecLong(SerialCampaign):
    name = "exec-long"
    why = ("DBT runs without a technique that execute to completion or "
           "the hang budget: guest execution dominates, per-run setup is "
           "amortised")
    config = PipelineConfig("dbt", None, backend="block")
    per_category = 60
    batch = 1
    traced_rounds = 2
    PROGRAMS = (("254.gap", {"iterations": 8000}),
                ("183.equake", {"rows": 64, "nnz_per_row": 6,
                                "repeats": 100}))

    def programs(self):
        out = []
        for name, params in self.PROGRAMS:
            label = f"{name}@" + ",".join(f"{k}={v}"
                                          for k, v in params.items())
            out.append((label, lambda name=name, params=params, label=label:
                        assemble(BY_NAME[name].generator(**params),
                                 name=label)))
        return out


class RecoverMtPool(CampaignWorkload):
    """Pooled campaigns (jobs=2, journaled) of recovering MT runs; a
    job is one round (a campaign for every program)."""

    name = "recover-mt-pool"
    why = ("static EdgCF with rollback recovery on threaded guests, "
           "interp backend, 2 pool workers and a journal; bypasses the "
           "DBT and the block backend")
    config = PipelineConfig("static", "edgcf", recover=True, threads=True,
                            backend="interp")
    per_category = 384
    batch = 16
    traced_rounds = 1
    mt = True
    #: pool workers: two, but never more than the machine has CPUs
    jobs = min(2, os.cpu_count() or 1)

    #: (program, scale): ``mt.counters4`` at ``small`` scale costs 10-20x
    #: more per run than the other two, so it took most of the run phase
    #: while a run reached only a few dozen of its specs; it runs at
    #: ``test`` scale
    PROGRAMS = (("mt.ledger", "small"), ("mt.relay", "small"),
                ("mt.counters4", "test"))

    def programs(self):
        return [(f"{name}@{scale}",
                 lambda name=name, scale=scale: BY_NAME[name].assemble(scale))
                for name, scale in self.PROGRAMS]

    def reference_config(self) -> PipelineConfig:
        return self.config

    def native_outputs(self, program) -> tuple:
        native = PipelineConfig("native", None, threads=True,
                                quantum=self.config.quantum,
                                sched_policy=self.config.sched_policy,
                                sched_seed=self.config.sched_seed)
        return Pipeline(program, native).golden.outputs

    def setup(self, seed: int, work_dir: str, index: int) -> list[Item]:
        """Build, then start a pool: a two-spec, two-worker warm-up
        campaign."""
        items = self.build(seed)
        item = items[0]
        specs = [spec for specs in item.by_category.values()
                 for spec in specs[:1]][:2]
        CampaignExecutor(item.program, self.config, jobs=self.jobs,
                         chunk_size=1, pipeline=item.pipeline,
                         journal=os.path.join(work_dir, "warmup.jsonl")
                         ).run_specs(specs)
        return items

    def run_phase(self, items, seed: int, seconds: float, work_dir: str,
                  max_rounds=None, tracer=None, jobs=None) -> PhaseResult:
        jobs = self.jobs if jobs is None else jobs
        span = span_factory(tracer)
        result = PhaseResult()
        clock = time.perf_counter
        chunks = [0]
        journals = []
        result.run_ms = []
        cpu_times = RunCpuTimes(run_cpu_dir(work_dir))
        cpu_times.take()        # anything an earlier pass left behind

        def progressed(done, total):
            chunks[0] += 1

        with span("bench.run_phase"), cpu_times:
            t0 = clock()
            # The parent probes between campaigns, and during them while
            # it waits for the workers (at jobs=1 it runs the specs).
            speed = HostSpeed()
            while True:
                runs = icount = 0
                host_s = norm_s = 0.0
                for item in items:
                    batch = _batch(item.by_category, result.rounds,
                                   self.batch)
                    journal = os.path.join(
                        work_dir, f"{item.label}-r{result.rounds}-j{jobs}"
                        ".jsonl")
                    executor = CampaignExecutor(
                        item.program, self.config, jobs=jobs,
                        journal=journal, pipeline=item.pipeline,
                        on_progress=progressed,
                        trace=TraceContext.root(
                            f"{self.name}-{item.label}-{result.rounds}"))
                    with span("bench.job"), (speed.sampling() if jobs > 1
                                             else contextlib.nullcontext()):
                        j0 = clock()
                        records = executor.run_specs(
                            [spec for _, _, spec in batch])
                        elapsed = clock() - j0
                    factor = speed.end_interval(elapsed)
                    journals.append(journal)
                    run_cpu = cpu_times.take()
                    if len(run_cpu) != len(records):
                        raise RuntimeError(
                            f"{len(run_cpu)} of {len(records)} pool runs "
                            "timed: workers must be forked from this "
                            "process")
                    result.run_ms.extend((seconds * 1e3, speed.cpu_factor)
                                         for seconds in run_cpu)
                    host_s += elapsed
                    norm_s += elapsed / factor
                    for (category, index, _), record in zip(batch, records):
                        result.samples.append(_record_sample(
                            item.label, category, index, record, None,
                            factor))
                        if record.outcome is Outcome.INFRA_ERROR:
                            result.failed += 1
                        runs += 1
                        icount += record.icount
                result.jobs.append((host_s, host_s / norm_s))
                result.add_round(runs, icount, host_s, norm_s)
                if result.done(max_rounds, seconds, clock() - t0):
                    break
            result.seconds = clock() - t0
        result.factors = speed.factors
        # Worker wall time of the runs, from the executor's own trace
        # sidecar written next to each journal.
        worker_s = 0.0
        for journal in journals:
            for entry in read_entries(trace_sidecar_path(journal)):
                for run in entry.get("runs", ()):
                    worker_s += run["dur"]
        result.extra["chunks"] = chunks[0]
        result.extra["worker_run_s"] = worker_s
        result.attempted = len(result.samples)
        return result


# -- service workload ---------------------------------------------------------------


class Server:
    """A ``repro serve --workers 1`` subprocess rooted in ``root``,
    recording the CPU time of its fault runs under ``cpu_dir`` (see
    ``serve.py``)."""

    def __init__(self, repo_root: str, root: str, cpu_dir: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(os.path.join(root, "serve.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve.py"), cpu_dir,
             "--root", os.path.join(root, "state"), "--port", "0",
             "--workers", "1"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log)
        line = self.proc.stdout.readline().decode()
        match = re.search(r"http://[\w.]+:\d+", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.client = ServiceClient(match.group(0), timeout=60.0)
        deadline = time.monotonic() + 60
        while True:
            try:
                self.client.health()
                break
            except OSError:
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    self.stop()
                    raise RuntimeError("repro serve never answered /healthz")
                time.sleep(0.005)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class ServiceState:
    """The live server of a service run, replaced on restarts."""

    def __init__(self, workload, work_dir: str, server: Server):
        self.workload, self.work_dir, self.server = workload, work_dir, server
        self.roots = 1

    def restart(self, fresh_root: bool) -> None:
        """Stop the server and start another one: on the same state
        root (its disk artifact cache survives) or on a new, empty one."""
        root = self.server.root
        self.server.stop()
        if fresh_root:
            root = os.path.join(self.work_dir, f"run{self.roots}")
            self.roots += 1
        self.server = Server(self.workload.repo_root, root,
                             run_cpu_dir(self.work_dir))

    def stop(self) -> None:
        self.server.stop()


class CoverageService:
    name = "coverage-service"
    why = ("a client submitting coverage jobs to repro serve --workers 1, "
           "then again after a restart so the disk cache hits; 176.gcc "
           "jobs fail (known RewriteError), counted in error_ratio")
    PROGRAMS = ("254.gap", "164.gzip", "183.equake", "176.gcc")
    per_category = 8
    traced_rounds = 1
    #: the known defect: static rewriting of register-indirect branches
    KNOWN_FAILURE = ("176.gcc", "RewriteError")

    def __init__(self, repo_root: str):
        self.repo_root = repo_root

    def params(self, seed: int) -> dict:
        return {"per_category": self.per_category, "backend": "block",
                "seed": seed}

    def sources(self) -> dict:
        return {name: BY_NAME[name].source("test") for name in self.PROGRAMS}

    def setup(self, seed: int, work_dir: str, index: int) -> ServiceState:
        server = Server(self.repo_root, os.path.join(work_dir, f"srv{index}"),
                        run_cpu_dir(work_dir))
        return ServiceState(self, work_dir, server)

    def close(self, state: ServiceState) -> None:
        state.stop()

    def run_phase(self, state: ServiceState, seed: int, seconds: float,
                  work_dir: str, max_rounds=None, tracer=None,
                  jobs=None) -> PhaseResult:
        """Rounds of two passes over the programs: the first on a
        server with an empty state root, the second after restarting
        that server on the same root, so every resubmission finds its
        golden runs and profiles in the disk artifact cache."""
        span = span_factory(tracer)
        sources = self.sources()
        result = PhaseResult()
        result.extra["jobs"] = []
        clock = time.perf_counter
        # Server timestamps are epoch seconds; map them onto this clock.
        offset = clock() - time.time()
        totals = {"instructions": 0, "disk_hits": 0, "disk_misses": 0}
        result.run_ms = []
        cpu_times = RunCpuTimes(run_cpu_dir(work_dir))
        cpu_times.take()        # runs of an earlier pass

        def harvest() -> None:
            """Fold the live server's metrics in before it stops."""
            metrics = state.server.client.metrics()
            for entry in metrics.get("counters", ()):
                name = entry["name"]
                outcome = entry["labels"].get("result")
                if name == "interp_instructions_total":
                    totals["instructions"] += entry["value"]
                elif name == "service_disk_cache_total" and outcome in (
                        "hit", "miss"):
                    key = "disk_hits" if outcome == "hit" else "disk_misses"
                    totals[key] += entry["value"]

        with span("bench.run_phase"):
            t0 = clock()
            # The client probes between jobs, while the server is idle.
            speed = HostSpeed()
            while True:
                runs = 0
                host_s = norm_s = 0.0
                for cycle in range(2):
                    if cycle or result.rounds:
                        harvest()
                        with span("service.restart"):
                            r0 = clock()
                            state.restart(fresh_root=cycle == 0)
                            elapsed = clock() - r0
                        host_s += elapsed
                        norm_s += elapsed / speed.end_interval(elapsed)
                    client = state.server.client
                    for name in self.PROGRAMS:
                        with span("bench.job"):
                            j0 = clock()
                            with span("service.submit"):
                                job = client.submit({
                                    "kind": "coverage", "name": f"{name}.s",
                                    "program": sources[name],
                                    "params": self.params(seed)})
                            submitted = clock()
                            with speed.sampling():
                                status = client.wait(job["id"], timeout=170)
                            elapsed = clock() - j0
                            if tracer is not None and status.get("started"):
                                started = max(status["started"] + offset,
                                              submitted)
                                finished = min((status.get("finished")
                                                or time.time()) + offset,
                                               clock())
                                tracer.add_child("service.queue_wait",
                                                 submitted, started)
                                tracer.add_child("service.job_run", started,
                                                 finished)
                        factor = speed.end_interval(elapsed)
                        result.run_ms.extend(
                            (seconds * 1e3, speed.cpu_factor)
                            for seconds in cpu_times.take())
                        host_s += elapsed
                        norm_s += elapsed / factor
                        done = status["status"] == "done"
                        configs = (status.get("result") or {}).get(
                            "configs", {}) if done else {}
                        job_runs = sum(sum(bucket.values())
                                       for cats in configs.values()
                                       for bucket in cats.values())
                        runs += job_runs
                        result.jobs.append(
                            (elapsed if done else float("inf"), factor))
                        if not done:
                            result.failed += 1
                        started = status.get("started")
                        result.extra["jobs"].append({
                            "program": name, "pass": cycle,
                            "status": status["status"],
                            "error": status.get("error"), "configs": configs,
                            "runs": job_runs, "seconds": elapsed,
                            "submit_s": submitted - j0,
                            "queue_wait_s": (started - status["created"]
                                             if started else 0.0),
                            "job_run_s": ((status.get("finished") or started)
                                          - started if started else 0.0)})
                result.add_round(runs, 0, host_s, norm_s)
                if result.done(max_rounds, seconds, clock() - t0):
                    break
            result.seconds = clock() - t0
        result.factors = speed.factors
        harvest()
        if len(result.run_ms) < sum(result.round_runs):
            raise RuntimeError(
                f"{len(result.run_ms)} server runs timed, "
                f"{sum(result.round_runs)} in the coverage matrices")
        result.extra.update(totals)
        result.attempted = len(result.jobs)
        return result

    # -- references and checks ---------------------------------------------------

    def reference_matrix(self, name: str, seed: int) -> dict:
        """The coverage verdict recomputed in process on ``interp``
        (jobs=1), in the service's result shape."""
        program = assemble(self.sources()[name], name=f"{name}.s")
        try:
            matrix = compute_coverage_matrix(
                program, per_category=self.per_category, seed=seed,
                backend="interp", jobs=1)
        except Exception as exc:
            return {"status": "failed", "error": type(exc).__name__}
        return {"status": "done", "configs": {
            label: {category.value: {outcome.value: count
                                     for outcome, count in bucket.items()}
                    for category, bucket in result.outcomes.items()}
            for label, result in matrix.results.items()}}

    def record_references(self, seed: int) -> dict:
        reset_caches()
        return {"workload": self.name, "seed": seed, "backend": "interp",
                "jobs": 1, "per_category": self.per_category,
                "programs": {name: self.reference_matrix(name, seed)
                             for name in self.PROGRAMS}}

    def check(self, state, phase: PhaseResult, seed: int,
              reference: dict | None, log) -> bool:
        ok = True
        jobs = phase.extra["jobs"]
        if reference is None:
            # Seeds without stored references: recompute one program's
            # matrix in process (rotating with the seed).
            name = self.PROGRAMS[seed % (len(self.PROGRAMS) - 1)]
            reference = {"programs": {name: self.reference_matrix(name,
                                                                   seed)}}
            log(f"check: seed {seed} has no stored references; {name} "
                "recomputed in process on interp (jobs=1)")
        else:
            log(f"check: coverage matrices against stored references "
                f"(seed {seed})")
        first: dict = {}
        fixed = False
        for job in jobs:
            name = job["program"]
            got = ({"status": "done", "configs": _unlabel(job["configs"])}
                   if job["status"] == "done"
                   else {"status": job["status"],
                         "error": (job["error"] or "").split(":")[0]})
            if name in first and first[name] != got:
                log(f"CHECK FAILED {name}: resubmitted job differs")
                ok = False
            first.setdefault(name, got)
            want = reference["programs"].get(name)
            if want is not None and want["status"] == "done":
                want = dict(want, configs=_unlabel(want["configs"]))
            if got["status"] == "failed" and (
                    name, got.get("error")) == self.KNOWN_FAILURE:
                continue        # the documented defect, counted in failed
            if (want is not None and got["status"] == "done"
                    and (name, want.get("error")) == self.KNOWN_FAILURE):
                fixed = True    # no reference matrix to compare against
                continue
            if want is not None and got != want:
                log(f"CHECK FAILED {name}: coverage job {got['status']} "
                    "differs from the reference matrix")
                ok = False
            elif want is None and got["status"] != "done":
                log(f"CHECK FAILED {name}: job {got['status']}: "
                    f"{job['error']}")
                ok = False
        if fixed:
            log("note: 176.gcc coverage jobs completed - the known "
                "RewriteError defect appears fixed; record new references")
        return ok


def _unlabel(configs: dict) -> dict:
    """Drop the ``@backend`` part of config labels: the matrix is
    backend-invariant, the label is not."""
    return {re.sub(r"@\w+", "", label): cats
            for label, cats in configs.items()}


def make_workloads(repo_root: str) -> dict:
    return {w.name: w for w in (DetectShort(), ExecLong(), RecoverMtPool(),
                                CoverageService(repo_root))}
