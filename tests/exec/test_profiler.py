"""HotBlockProfiler: exact attribution on every execution backend.

The acceptance bar is equality, not approximation: the per-block
icount/cycle sums must equal an *uninstrumented* run's final
``cpu.icount``/``cpu.cycles`` to the instruction, on both the
reference interpreter and the block-compiling backend, and (after
reverse-mapping) under the DBT.
"""

import pytest

from repro.exec import BACKEND_NAMES
from repro.exec.profiler import (BlockProfile, HotBlockProfiler,
                                 profile_dbt, profile_native)
from repro.machine import BranchProfiler, StopReason, run_native
from repro.workloads import load

PROGRAMS = ("183.equake", "181.mcf", "164.gzip")
MAX_STEPS = 300_000


def _sums(profiler):
    icount = sum(cell[0] for cell in profiler.samples.values())
    cycles = sum(cell[1] for cell in profiler.samples.values())
    return icount, cycles


class TestExactTotals:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_totals_equal_uninstrumented_run(self, name, backend):
        program = load(name)
        bare_cpu, bare_stop = run_native(program, max_steps=MAX_STEPS,
                                         backend=backend)
        cpu, stop, profiler = profile_native(program, backend=backend,
                                             max_steps=MAX_STEPS)
        assert stop.reason == bare_stop.reason
        assert (cpu.icount, cpu.cycles) == \
            (bare_cpu.icount, bare_cpu.cycles)
        assert profiler.total_icount == bare_cpu.icount
        assert profiler.total_cycles == bare_cpu.cycles
        assert _sums(profiler) == (bare_cpu.icount, bare_cpu.cycles)

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_backends_attribute_identically(self, name):
        program = load(name)
        _, _, interp = profile_native(program, backend="interp",
                                      max_steps=MAX_STEPS)
        _, _, block = profile_native(program, backend="block",
                                     max_steps=MAX_STEPS)
        assert {pc: tuple(cell) for pc, cell in interp.samples.items()} \
            == {pc: tuple(cell) for pc, cell in block.samples.items()}

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_dbt_mapped_totals_exact(self, name):
        program = load(name)
        dbt, result, profiler = profile_dbt(program,
                                            max_steps=MAX_STEPS)
        assert profiler.total_icount == dbt.cpu.icount
        assert profiler.total_cycles == dbt.cpu.cycles
        assert _sums(profiler) == (dbt.cpu.icount, dbt.cpu.cycles)
        # Mapping folds keys but never loses cost: every sample is in
        # a program block or the (outside text) bucket.
        profiles = profiler.block_profiles(program)
        assert sum(p.icount for p in profiles) == profiler.total_icount
        assert sum(p.cycles for p in profiles) == profiler.total_cycles


class TestChaining:
    def test_chained_branch_profiler_still_fed(self):
        program = load("183.equake")
        baseline = BranchProfiler()
        run_native(load("183.equake"), max_steps=MAX_STEPS,
                   profiler=baseline)

        chained = BranchProfiler()
        from repro.machine import Cpu
        cpu = Cpu()
        cpu.load_program(program, executable_text=True)
        cpu.attach(chained)
        hot = HotBlockProfiler()
        hot.attach(cpu)
        cpu.run(max_steps=MAX_STEPS)
        hot.finish()
        assert cpu.branch_profiler is chained  # the only one left
        assert chained.total_executions == baseline.total_executions
        assert {pc: (s.taken, s.not_taken)
                for pc, s in chained.branches.items()} == \
            {pc: (s.taken, s.not_taken)
             for pc, s in baseline.branches.items()}

    def test_double_attach_rejected(self):
        from repro.machine import Cpu
        hot = HotBlockProfiler()
        hot.attach(Cpu())
        with pytest.raises(RuntimeError):
            hot.attach(Cpu())


class TestReporting:
    def test_block_profiles_cover_totals(self):
        program = load("183.equake")
        _, stop, profiler = profile_native(program,
                                           max_steps=MAX_STEPS)
        assert stop.reason == StopReason.HALTED
        profiles = profiler.block_profiles(program)
        assert sum(p.icount for p in profiles) == profiler.total_icount
        assert sum(p.cycles for p in profiles) == profiler.total_cycles
        assert profiles == sorted(profiles,
                                  key=lambda p: (-p.cycles, p.start))

    def test_hot_block_has_listing_and_symbol(self):
        program = load("183.equake")
        _, _, profiler = profile_native(program, max_steps=MAX_STEPS)
        hottest = profiler.block_profiles(program)[0]
        assert hottest.listing, "program-resident block has disasm"
        assert hottest.start >= 0

    def test_as_json_shape(self):
        program = load("181.mcf")
        _, _, profiler = profile_native(program, max_steps=MAX_STEPS)
        data = profiler.as_json(program, top=3)
        assert set(data) == {"total_icount", "total_cycles", "blocks",
                             "block_count"}
        assert len(data["blocks"]) <= 3
        for block in data["blocks"]:
            assert set(block) == {"start", "end", "symbol", "icount",
                                  "cycles", "visits", "share"}
            assert 0.0 <= block["share"] <= 1.0

    def test_render_report_mentions_totals(self):
        program = load("183.equake")
        _, _, profiler = profile_native(program, max_steps=MAX_STEPS)
        report = profiler.render_report(program, top=2)
        assert str(profiler.total_cycles) in report
        assert "#1 " in report and "#2 " in report

    def test_outside_text_bucket(self):
        profiler = HotBlockProfiler()
        profiler.samples[-1] = [5, 9, 1]
        profiler.total_icount, profiler.total_cycles = 5, 9
        profiles = profiler.block_profiles(load("183.equake"))
        assert profiles[0].symbol == "(outside text)"
        assert profiles[0].start == -1


class TestMapped:
    def test_unmapped_keys_pool_under_outside_text(self):
        profiler = HotBlockProfiler()
        profiler.samples = {0x9000: [3, 4, 1], 0x9004: [1, 1, 1]}
        profiler.total_icount, profiler.total_cycles = 4, 5
        mapped = profiler.mapped({0x9000: 0x10})
        assert mapped.samples == {0x10: [3, 4, 1], -1: [1, 1, 1]}
        assert (mapped.total_icount, mapped.total_cycles) == (4, 5)


class TestBlockProfileDataclass:
    def test_defaults(self):
        profile = BlockProfile(start=0, end=8)
        assert (profile.icount, profile.cycles, profile.visits) == \
            (0, 0, 0)
        assert profile.listing == []
