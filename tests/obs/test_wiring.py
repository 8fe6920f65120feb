"""Observability wired through the stack: interpreter, DBT, campaigns.

The acceptance contract: **off means free** (no instrumentation state
is touched without an installed registry), and a parallel campaign's
merged registry matches a serial run's totals exactly.
"""

import pytest

from repro import obs
from repro.checking import EdgCF
from repro.dbt import Dbt
from repro.exec import install_backend
from repro.isa import assemble
from repro.machine import Cpu, run_native
from repro.obs.metrics import MetricsRegistry


LOOP = """
.entry main
main:
    movi r1, 0
    movi r2, 1
loop:
    add r1, r1, r2
    addi r2, r2, 1
    cmpi r2, 11
    jl loop
    syscall 1
    movi r1, 0
    syscall 0
"""


def install():
    registry = MetricsRegistry()
    obs.install(registry)
    return registry


def counter_value(registry, name, **labels):
    return registry.counter(name, **labels).value


def span_count(registry, name):
    return registry.histogram("span_seconds", span=name).count


class TestHelpersOff:
    def test_helpers_return_nulls_when_off(self):
        assert obs.get_registry() is None
        assert obs.counter("x") is obs.NULL_COUNTER
        assert obs.gauge("x") is obs.NULL_GAUGE
        assert obs.histogram("x") is obs.NULL_HISTOGRAM
        assert obs.span("x") is obs.span("y")
        assert obs.snapshot() == {}
        assert obs.drain_worker_snapshot() is None

    def test_merge_snapshot_noop_when_off(self):
        obs.merge_snapshot({"counters": [{"name": "x", "value": 1}]})
        assert obs.get_registry() is None


class TestInterpreter:
    def test_off_leaves_cpu_hooks_alone(self):
        cpu = Cpu()
        cpu.load_program(assemble(LOOP))
        cpu.run()
        assert cpu.branch_profiler is None

    def test_instruction_and_cycle_counters_exact(self):
        registry = install()
        cpu, stop = run_native(assemble(LOOP))
        assert counter_value(
            registry, "interp_instructions_total") == cpu.icount
        assert counter_value(
            registry, "interp_cycles_total") == cpu.cycles

    def test_branch_mix_recorded(self):
        registry = install()
        run_native(assemble(LOOP))
        taken = counter_value(registry, "interp_branches_total",
                              direction="taken")
        not_taken = counter_value(registry, "interp_branches_total",
                                  direction="not_taken")
        assert taken == 9      # jl loop taken 9 times
        assert not_taken == 1  # final fall-through

    def test_observed_run_restores_profiler_slot(self):
        install()
        cpu, _ = run_native(assemble(LOOP))
        assert cpu.branch_profiler is None

    def test_existing_profiler_not_displaced(self):
        from repro.machine.profile import BranchProfiler
        registry = install()
        profiler = BranchProfiler()
        cpu, _ = run_native(assemble(LOOP), profiler=profiler)
        assert cpu.branch_profiler is profiler
        assert sum(stats.executions
                   for stats in profiler.branches.values()) == 10
        # the branch mix is counted next to the attached profiler
        assert counter_value(registry, "interp_branches_total",
                             direction="taken") == 9
        assert counter_value(registry, "interp_branches_total",
                             direction="not_taken") == 1
        assert counter_value(
            registry, "interp_instructions_total") == cpu.icount

    @pytest.mark.parametrize("backend", ["interp", "block"])
    @pytest.mark.parametrize("observer", ["branch", "hot", "recorder"])
    def test_branch_mix_independent_of_observers(self, backend, observer):
        from repro.exec.profiler import HotBlockProfiler
        from repro.forensics import FlightRecorder
        from repro.machine.profile import BranchProfiler
        program = assemble(LOOP)
        totals = []
        for attached in (False, True):
            registry = install()
            cpu = Cpu()
            install_backend(cpu, backend)
            cpu.load_program(program)
            if attached and observer == "branch":
                cpu.attach(BranchProfiler())
            elif attached:
                watcher = (HotBlockProfiler() if observer == "hot"
                           else FlightRecorder())
                watcher.attach(cpu)
            cpu.run()
            totals.append(tuple(
                counter_value(registry, "interp_branches_total",
                              direction=direction)
                for direction in ("taken", "not_taken")))
        assert totals == [(9, 1), (9, 1)]

    def test_interp_span_recorded(self):
        registry = install()
        run_native(assemble(LOOP))
        assert span_count(registry, "interp.run") == 1


class TestDbt:
    def test_translation_and_cache_metrics(self):
        registry = install()
        dbt = Dbt(assemble(LOOP), technique=EdgCF())
        result = dbt.run()
        assert result.ok
        translated = counter_value(registry,
                                   "dbt_blocks_translated_total")
        assert translated == len(dbt.blocks)
        assert counter_value(registry, "dbt_cache_lookup_total",
                             result="miss") == translated
        assert counter_value(registry, "dbt_cache_lookup_total",
                             result="hit") >= 1
        assert registry.gauge("dbt_cache_bytes_used").value > 0
        assert span_count(registry, "dbt.translate") == translated
        assert span_count(registry, "dbt.run") == 1

    def test_signature_checks_executed_counted(self):
        registry = install()
        dbt = Dbt(assemble(LOOP), technique=EdgCF())
        dbt.run()
        # every block body executes its CHECK_SIG each time through
        assert counter_value(registry,
                             "dbt_checks_executed_total") > 0

    def test_detection_event_counted(self):
        from repro.faults import DbtInjector, FaultSpec, RedirectFault
        registry = install()
        program = assemble(LOOP)
        dbt = Dbt(program, technique=EdgCF())
        # redirect the loop's jl back to main's head: arriving with the
        # wrong signature must fire a check, counted as a detection
        DbtInjector(FaultSpec(0x1014, 2,
                              RedirectFault(program.symbols["main"])),
                    dbt).install()
        result = dbt.run(max_steps=100_000)
        assert result.detected_error
        assert counter_value(registry, "dbt_detections_total",
                             kind="signature") == 1

    def test_off_means_no_check_site_instrumentation_on_cpu_path(self):
        dbt = Dbt(assemble(LOOP), technique=EdgCF())
        result = dbt.run()
        assert result.ok


class TestWorkerProtocol:
    def test_drain_roundtrip_matches_direct_counts(self):
        worker = MetricsRegistry(worker=True)
        obs.install(worker)
        run_native(assemble(LOOP))
        icount = counter_value(worker, "interp_instructions_total")
        snap = obs.drain_worker_snapshot()
        assert counter_value(worker, "interp_instructions_total") == 0

        parent = MetricsRegistry()
        obs.install(parent)
        obs.merge_snapshot(snap)
        assert counter_value(
            parent, "interp_instructions_total") == icount
        assert span_count(parent, "interp.run") == 1

    def test_parent_registry_never_drains(self):
        registry = install()
        registry.counter("x").inc()
        assert obs.drain_worker_snapshot() is None
        assert registry.counter("x").value == 1


class TestSession:
    def test_session_noop_without_paths(self):
        with obs.session(None):
            assert obs.get_registry() is None

    def test_session_writes_snapshot(self, tmp_path):
        path = tmp_path / "metrics.json"
        with obs.session(str(path)):
            obs.counter("events_total").inc(2)
        assert obs.get_registry() is None
        from repro.obs.exporters import load_snapshot
        snap = load_snapshot(str(path))
        assert snap["counters"][0] == {"name": "events_total",
                                       "labels": {}, "value": 2}


class TestCampaignExactMatch:
    """Acceptance: a parallel campaign's merged registry reports the
    same instruction total as the serial run — per-worker snapshots sum
    exactly."""

    def test_parallel_merge_equals_serial(self):
        from repro.faults import (CampaignExecutor, PipelineConfig,
                                  clear_caches, generate_category_faults)
        from repro.workloads import suite as workload_suite
        program = workload_suite.load("254.gap", "test")
        faults = generate_category_faults(program, per_category=2,
                                          seed=7)
        specs = [spec for specs in faults.by_category.values()
                 for spec in specs]
        config = PipelineConfig("dbt", "rcf")

        def run(jobs):
            clear_caches()
            install()
            records = CampaignExecutor(program, config,
                                       jobs=jobs).run_specs(specs)
            snap = obs.snapshot()
            obs.uninstall()
            return records, snap

        serial_records, serial_snap = run(1)
        parallel_records, parallel_snap = run(2)
        assert serial_records == parallel_records

        def total(snap, name):
            return sum(entry["value"]
                       for entry in snap["counters"]
                       if entry["name"] == name)

        for name in ("interp_instructions_total",
                     "dbt_checks_executed_total",
                     "interp_branches_total"):
            assert total(serial_snap, name) == total(
                parallel_snap, name), name
        outcomes_serial = {
            (entry["labels"]["outcome"], entry["value"])
            for entry in serial_snap["counters"]
            if entry["name"] == "campaign_runs_total"}
        outcomes_parallel = {
            (entry["labels"]["outcome"], entry["value"])
            for entry in parallel_snap["counters"]
            if entry["name"] == "campaign_runs_total"}
        assert outcomes_serial == outcomes_parallel

    def test_parallel_map_merges_worker_metrics(self):
        from repro.faults import parallel_map
        registry = install()
        results = parallel_map(_observed_square, [1, 2, 3, 4], jobs=2)
        assert results == [1, 4, 9, 16]
        assert counter_value(registry, "map_calls_total") == 4


def _observed_square(value):
    obs.counter("map_calls_total").inc()
    return value * value
