"""Fast-forwarded DBT fault runs (repro.faults.timeline): a run started
from a golden-run mark must produce exactly the record of the run that
replays the program from entry."""

from dataclasses import asdict

import pytest

from repro.faults import (CacheFaultSpec, CampaignExecutor, DbtInjector,
                          DirectionFault, FaultSpec, OffsetBitFault,
                          Pipeline, PipelineConfig, RedirectFault,
                          RegisterFaultSpec, enumerate_cache_branch_sites,
                          enumerate_instrumentation_branch_sites,
                          generate_category_faults,
                          generate_register_faults)
from repro.faults.campaign import dbt_session
from repro.faults.injector import MAX_OCCURRENCE
from repro.faults.timeline import MAX_SNAPSHOTS, STRIDE, GoldenTimeline
from repro.isa import assemble
from repro.workloads import BY_NAME
from repro.workloads import suite as workload_suite

PROGRAMS = ("254.gap", "181.mcf", "176.gcc")
TECHNIQUES = (None, "ecf", "edgcf", "rcf")

# Patches ``site`` on the tenth pass of the outer loop, so the golden
# run flushes the code cache and keeps running for thousands of
# instructions on fresh translations (marks after the flush included).
SMC_SRC = """
.entry main
main:
    movi r5, 0
    movi r6, 0
again:
    cmpi r5, 10
    jnz skip_patch
    const r1, site
    const r2, 0x21100063      ; movi r2, 99
    st r2, r1, 0
skip_patch:
    movi r7, 0
inner:
    addi r7, r7, 1
    cmpi r7, 12
    jl inner
site:
    movi r2, 1
    add r6, r6, r2
    addi r5, r5, 1
    cmpi r5, 60
    jl again
    mov r1, r6
    syscall 4
    movi r1, 0
    syscall 0
"""

# ``dead`` holds a branch the golden run never executes.
DEAD_BRANCH_SRC = """
.entry main
main:
    movi r1, 0
    movi r2, 1
loop:
    add r1, r1, r2
    addi r2, r2, 1
    cmpi r2, 400
    jl loop
    cmpi r1, 0
    jz dead
    syscall 4
    movi r1, 0
    syscall 0
dead:
    addi r1, r1, 1
    jmp dead
"""


def from_entry(pipeline, spec):
    return pipeline._execute(spec, pipeline.golden.step_budget,
                             fast_forward=False)


def assert_same_records(pipeline, specs):
    """Each spec's fast-forwarded record equals its from-entry record,
    field for field; returns how many specs were fast-forwarded."""
    forwarded = 0
    for spec in specs:
        entry = from_entry(pipeline, spec)
        if pipeline._timeline is not None and pipeline._timeline.start_for(
                spec, pipeline.golden.step_budget) is not None:
            forwarded += 1
        assert asdict(pipeline.run(spec)) == asdict(entry), spec
    return forwarded


@pytest.fixture(scope="module", params=PROGRAMS)
def suite_program(request):
    program = workload_suite.load(request.param, "test")
    faults = generate_category_faults(program, per_category=2, seed=77)
    return program, [spec for specs in faults.by_category.values()
                     for spec in specs]


class TestRecordIdentity:
    @pytest.mark.parametrize("dataflow", [False, True],
                             ids=["plain", "df"])
    @pytest.mark.parametrize("backend", ["interp", "block"])
    @pytest.mark.parametrize("technique", TECHNIQUES,
                             ids=[t or "none" for t in TECHNIQUES])
    def test_category_specs(self, suite_program, technique, backend,
                            dataflow):
        program, specs = suite_program
        pipeline = Pipeline(program, PipelineConfig(
            "dbt", technique, backend=backend, dataflow=dataflow))
        assert assert_same_records(pipeline, specs) > 0

    @pytest.mark.parametrize("backend", ["interp", "block"])
    def test_register_faults(self, backend):
        program = workload_suite.load("254.gap", "test")
        pipeline = Pipeline(program, PipelineConfig(
            "dbt", "rcf", backend=backend, dataflow=True))
        specs = generate_register_faults(pipeline, count=8, seed=5)
        assert assert_same_records(pipeline, specs) > 0

    @pytest.mark.parametrize("backend", ["interp", "block"])
    def test_cache_faults(self, backend):
        program = workload_suite.load("181.mcf", "test")
        config = PipelineConfig("dbt", "edgcf", backend=backend)
        pipeline = Pipeline(program, config)
        sites = enumerate_instrumentation_branch_sites(program, config)
        specs = [CacheFaultSpec(site, occurrence, bit=3, force_taken=True)
                 for site in sites[::4] for occurrence in (1, 4, 24, 40)]
        assert assert_same_records(pipeline, specs) > 0

    @pytest.mark.parametrize("backend", ["interp", "block"])
    def test_self_modifying_program(self, backend):
        program = assemble(SMC_SRC, name="smc-loop")
        pipeline = Pipeline(program, PipelineConfig("dbt", "rcf",
                                                    backend=backend))
        again = program.symbol("site") + 16        # jl again
        inner = program.symbol("site") - 4         # jl inner
        specs = [FaultSpec(again, occurrence, fault)
                 for occurrence in (3, 12, 25, 40)
                 for fault in (DirectionFault(), OffsetBitFault(2),
                               RedirectFault(program.symbol("inner")))]
        specs += [FaultSpec(inner, occurrence, DirectionFault())
                  for occurrence in (5, 39)]
        assert assert_same_records(pipeline, specs) > 0
        timeline = pipeline._timeline
        assert any(mark.session.flushes for mark in timeline.marks)

    def test_occurrence_past_the_cap(self):
        program = workload_suite.load("254.gap", "test")
        pipeline = Pipeline(program, PipelineConfig("dbt", "rcf"))
        faults = generate_category_faults(program, per_category=1, seed=3)
        branch = faults.by_category[next(iter(faults.by_category))][0]
        spec = FaultSpec(branch.branch_pc, MAX_OCCURRENCE + 1,
                         DirectionFault())
        assert asdict(pipeline.run(spec)) == asdict(
            from_entry(pipeline, spec))
        assert pipeline._timeline.start_for(
            spec, pipeline.golden.step_budget) is None

    def test_branch_never_executed(self):
        program = assemble(DEAD_BRANCH_SRC, name="dead-branch")
        pipeline = Pipeline(program, PipelineConfig("dbt", "edgcf"))
        spec = FaultSpec(program.symbol("dead") + 4, 1, DirectionFault())
        assert asdict(pipeline.run(spec)) == asdict(
            from_entry(pipeline, spec))
        timeline = pipeline._timeline
        assert timeline.finished
        assert timeline.start_for(spec, pipeline.golden.step_budget) is None


class TestFastForwardPath:
    def test_hooks_run_only_after_the_mark(self, monkeypatch):
        program = workload_suite.load("254.gap", "test")
        pipeline = Pipeline(program, PipelineConfig("dbt", "rcf",
                                                    backend="block"))
        specs = [spec for specs in generate_category_faults(
            program, per_category=4, seed=9).by_category.values()
            for spec in specs]
        calls = []
        original = DbtInjector.hook

        def counting(self, cpu, pc, instr):
            calls.append(pc)
            return original(self, cpu, pc, instr)

        monkeypatch.setattr(DbtInjector, "hook", counting)
        for spec in specs:
            from_entry(pipeline, spec)
        entry_calls = len(calls)
        calls.clear()
        for spec in specs:
            pipeline.run(spec)
        assert len(calls) * 5 < entry_calls

    def test_recovery_and_native_keep_the_from_entry_path(self):
        program = workload_suite.load("254.gap", "test")
        spec = generate_category_faults(
            program, per_category=1, seed=4).by_category
        spec = next(iter(spec.values()))[0]
        for config in (PipelineConfig("dbt", "rcf", recover=True),
                       PipelineConfig("native"),
                       PipelineConfig("static", "edgcf")):
            pipeline = Pipeline(program, config)
            pipeline.run(spec)
            assert pipeline._timeline is None

    def test_replay_is_lazy(self):
        program = workload_suite.load("164.gzip", "test")
        pipeline = Pipeline(program, PipelineConfig("dbt", "rcf"))
        assert pipeline._timeline is None
        early = RegisterFaultSpec(icount=3 * STRIDE + 5, reg=1, bit=0)
        pipeline.run(early)
        timeline = pipeline._timeline
        assert not timeline.finished
        assert timeline.icount < 5 * STRIDE

    def test_journals_identical_across_job_counts(self, tmp_path):
        """Each worker replays its own timeline; the journaled chunks
        must not depend on it.  (Pooled chunks are appended in
        completion order, so lines are compared, not files.)"""
        program = workload_suite.load("181.mcf", "test")
        config = PipelineConfig("dbt", "rcf", backend="block")
        faults = generate_category_faults(program, per_category=3, seed=21)
        journals = []
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.jsonl"
            CampaignExecutor(program, config, jobs=jobs,
                             journal=str(path)).run_campaign(faults)
            journals.append(sorted(path.read_bytes().splitlines()))
        assert len(journals[0]) > 1
        assert journals[0] == journals[1]


class TestMarks:
    def test_count_stays_within_cap_on_a_long_run(self):
        # the exec-long benchmark's 254.gap configuration
        program = assemble(
            BY_NAME["254.gap"].generator(iterations=8000), name="gap-long")
        config = PipelineConfig("dbt", None, backend="block")
        timeline = GoldenTimeline(lambda: dbt_session(program, config))
        past_the_end = RegisterFaultSpec(icount=10**9, reg=1, bit=0)
        assert timeline.start_for(past_the_end, 10**10) is not None
        assert timeline.finished
        assert STRIDE * MAX_SNAPSHOTS < timeline.icount
        assert MAX_SNAPSHOTS // 2 <= len(timeline.marks) < MAX_SNAPSHOTS
        steps = [mark.steps for mark in timeline.marks]
        assert all(step % timeline.spacing == 0 for step in steps)
        assert steps == sorted(steps)

    def test_unchanged_pages_are_shared(self):
        program = workload_suite.load("254.gap", "test")
        config = PipelineConfig("dbt", "rcf")
        timeline = GoldenTimeline(lambda: dbt_session(program, config))
        timeline.start_for(RegisterFaultSpec(icount=10**9, reg=1, bit=0),
                           10**10)
        first, last = timeline.marks[0], timeline.marks[-1]
        shared = [page for page, contents in first.session.pages.items()
                  if last.session.pages.get(page) is contents]
        assert shared


class TestCacheSiteEnumeration:
    def test_sites_match_a_dataflow_pipeline_session(self):
        program = workload_suite.load("254.gap", "test")
        config = PipelineConfig("dbt", "rcf", dataflow=True)
        sites = enumerate_instrumentation_branch_sites(program, config)
        pipeline = Pipeline(program, config)
        dbt = pipeline._dbt_session()
        assert dbt.run().ok
        branches = {addr for addr, _ in enumerate_cache_branch_sites(dbt)}
        blocks = list(dbt.blocks.values())
        assert sites
        for site in sites:
            assert site in branches
            owner = next(tb for tb in blocks
                         if tb.cache_start <= site < tb.cache_end)
            assert owner.is_instrumentation(site)
