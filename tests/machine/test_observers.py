"""Branch observers on ``Cpu``: attach order, rewrites, derived slots."""

from types import SimpleNamespace

import pytest

from repro.checking import EdgCF
from repro.dbt import Dbt
from repro.exec import install_backend
from repro.faults import DirectionFault, FaultSpec, NativeInjector
from repro.isa import Op, assemble
from repro.machine import BranchProfiler, Cpu

LOOP = """
.entry main
main:
    movi r1, 0
loop:
    addi r1, r1, 1
    cmpi r1, 3
    jl loop
    halt
"""
JL = 0x100C


class Outcomes:
    """Records every direct-branch outcome it is shown."""

    def __init__(self):
        self.seen = []

    def record(self, pc, instr, taken, flags):
        self.seen.append((pc, instr.op, taken))


def hook_observer(calls):
    return SimpleNamespace(
        hook=lambda cpu, pc, instr: calls.append((pc, instr.op)))


def loaded(backend="interp"):
    program = assemble(LOOP)
    cpu = Cpu()
    install_backend(cpu, backend)
    cpu.load_program(program)
    return program, cpu


@pytest.mark.parametrize("backend", ["interp", "block"])
class TestAttach:
    def test_hook_and_recorder_see_every_branch(self, backend):
        _, cpu = loaded(backend)
        calls = []
        outcomes = Outcomes()
        cpu.attach(hook_observer(calls))
        cpu.attach(outcomes)
        cpu.run()
        assert calls == [(JL, Op.JL)] * 3
        assert outcomes.seen == [(JL, Op.JL, True)] * 2 + [
            (JL, Op.JL, False)]

    def test_injector_replacement_reaches_recorder(self, backend):
        program, cpu = loaded(backend)
        # force the third (naturally not-taken) jl taken: one more pass
        NativeInjector(FaultSpec(JL, 3, DirectionFault(taken=True)),
                       program, cpu).install()
        outcomes = Outcomes()
        cpu.attach(outcomes)
        cpu.run()
        assert cpu.regs[1] == 4
        assert outcomes.seen[2] == (JL, Op.JMP, True)
        assert len(outcomes.seen) == 4

    def test_later_hooks_see_earlier_rewrites(self, backend):
        program, cpu = loaded(backend)
        calls = []
        NativeInjector(FaultSpec(JL, 3, DirectionFault(taken=True)),
                       program, cpu).install()
        cpu.attach(hook_observer(calls))
        cpu.run()
        assert [op for _, op in calls] == [Op.JL, Op.JL, Op.JMP, Op.JL]


class TestSlots:
    def test_derived_from_observers(self):
        _, cpu = loaded()
        assert cpu.pre_branch_hook is None and cpu.branch_profiler is None
        profiler = BranchProfiler()
        watcher = hook_observer([])
        cpu.attach(profiler)
        cpu.attach(watcher)
        assert cpu.branch_profiler is profiler
        assert cpu.pre_branch_hook is watcher.hook
        outcomes = Outcomes()
        cpu.attach(outcomes)
        assert cpu.branch_profiler not in (profiler, outcomes)
        cpu.detach(profiler)
        assert cpu.branch_profiler is outcomes

    def test_attach_is_idempotent(self):
        _, cpu = loaded()
        outcomes = Outcomes()
        cpu.attach(outcomes)
        cpu.attach(outcomes)
        cpu.run()
        assert len(outcomes.seen) == 3

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 0, 2)])
    def test_detach_in_any_order_clears(self, order):
        _, cpu = loaded()
        observers = [BranchProfiler(), Outcomes(), hook_observer([])]
        for observer in observers:
            cpu.attach(observer)
        for index in order:
            cpu.detach(observers[index])
        cpu.detach(observers[0])  # detaching again is a no-op
        assert cpu.pre_branch_hook is None and cpu.branch_profiler is None

    def test_observer_under_dbt(self):
        dbt = Dbt(assemble(LOOP), technique=EdgCF())
        calls = []
        dbt.cpu.attach(hook_observer(calls))
        dbt.run()
        # translated code has more branches (checks, traps, chains)
        assert len(calls) >= 3
