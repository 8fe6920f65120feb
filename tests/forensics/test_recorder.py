"""Flight-recorder unit tests: hook discipline, events, checkpoints."""

from repro.isa.registers import PCP, RTS
from repro.machine import Cpu, StopReason
from repro.forensics import FlightRecorder


def run_recorded(program, **kwargs) -> tuple[Cpu, FlightRecorder]:
    cpu = Cpu()
    cpu.load_program(program)
    recorder = FlightRecorder(**kwargs)
    recorder.attach(cpu)
    stop = cpu.run(max_steps=100_000)
    assert stop.reason is StopReason.HALTED
    return cpu, recorder


class TestHookDiscipline:
    def test_attach_installs_in_branch_profiler_slot(self, sum_loop):
        cpu = Cpu()
        cpu.load_program(sum_loop)
        assert cpu.branch_profiler is None  # off means free
        recorder = FlightRecorder()
        recorder.attach(cpu)
        assert cpu.branch_profiler is recorder

    def test_detach_restores_previous_occupant(self, sum_loop):
        cpu = Cpu()
        cpu.load_program(sum_loop)
        recorder = FlightRecorder()
        recorder.attach(cpu)
        recorder.detach()
        assert cpu.branch_profiler is None

    def test_chains_existing_profiler(self, sum_loop):
        from repro.machine.profile import BranchProfiler
        cpu = Cpu()
        cpu.load_program(sum_loop)
        profiler = BranchProfiler()
        cpu.attach(profiler)
        recorder = FlightRecorder()
        recorder.attach(cpu)
        cpu.run(max_steps=100_000)
        # both observers saw the same branch stream
        assert len(recorder.events) == sum(
            stats.executions for stats in profiler.branches.values())
        recorder.detach()
        assert cpu.branch_profiler is profiler

    def test_detach_in_attach_order_leaves_cpu_clear(self, sum_loop):
        # Detaching the recorder first, then a profiler attached after
        # it, must not put the detached recorder back on the CPU.
        from repro.exec.profiler import HotBlockProfiler
        cpu = Cpu()
        cpu.load_program(sum_loop)
        recorder = FlightRecorder()
        recorder.attach(cpu)
        hot = HotBlockProfiler()
        hot.attach(cpu)
        recorder.detach()
        hot.finish()
        assert cpu.branch_profiler is None
        stop = cpu.run(max_steps=100_000)
        assert stop.reason is StopReason.HALTED


class TestEvents:
    def test_records_every_direct_branch(self, sum_loop):
        cpu, recorder = run_recorded(sum_loop, capacity=None)
        # the sum loop executes its jl 10 times (9 taken + 1 fallthrough)
        branch_pc = sum_loop.symbols["loop"] + 12
        at_branch = [e for e in recorder.events if e.pc == branch_pc]
        assert len(at_branch) == 10
        assert sum(e.taken for e in at_branch) == 9

    def test_events_carry_monotonic_icount_and_cycles(self, sum_loop):
        _, recorder = run_recorded(sum_loop, capacity=None)
        events = recorder.event_list()
        icounts = [e.icount for e in events]
        cycles = [e.cycles for e in events]
        assert icounts == sorted(icounts)
        assert cycles == sorted(cycles)

    def test_ring_capacity_bounds_memory(self, sum_loop):
        _, unbounded = run_recorded(sum_loop, capacity=None)
        _, bounded = run_recorded(sum_loop, capacity=4)
        assert len(bounded) == 4
        # the ring keeps the *latest* events
        assert (bounded.event_list()
                == unbounded.event_list()[-4:])


class TestCheckpoints:
    def test_checkpoint_interval(self, sum_loop):
        _, recorder = run_recorded(sum_loop, capacity=None,
                                   checkpoint_interval=3)
        total = len(recorder.events)
        assert len(recorder.checkpoints) == total // 3

    def test_checkpoint_contents(self, sum_loop):
        cpu, recorder = run_recorded(sum_loop, capacity=None,
                                     checkpoint_interval=2,
                                     signature_regs=(PCP, RTS))
        assert recorder.checkpoints
        checkpoint = recorder.checkpoints[-1]
        assert checkpoint.ordinal == len(recorder.checkpoints) - 1
        assert len(checkpoint.regs) == 16
        assert len(checkpoint.signatures) == 2
        assert checkpoint.icount <= cpu.icount

    def test_checkpoint_state_is_a_copy(self, sum_loop):
        """Registers keep mutating after the snapshot; a checkpoint
        must not alias live CPU state."""
        _, recorder = run_recorded(sum_loop, capacity=None,
                                   checkpoint_interval=1)
        first, last = recorder.checkpoints[0], recorder.checkpoints[-1]
        assert first.regs != last.regs  # r1/r2 advanced between them
