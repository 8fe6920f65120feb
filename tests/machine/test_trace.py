"""Instruction-level trace tests."""

from repro.isa import assemble
from repro.machine import Cpu
from repro.machine.trace import format_trace, trace_run


def make_cpu(source: str) -> Cpu:
    cpu = Cpu()
    cpu.load_program(assemble(source))
    return cpu


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


class TestTraceRun:
    def test_full_trace(self):
        cpu = make_cpu(LOOP)
        records, stop = trace_run(cpu, max_steps=100)
        assert stop is not None and stop.reason.value == "halted"
        assert records[0].pc == 0x1000
        assert len(records) == cpu.icount

    def test_watch_registers(self):
        cpu = make_cpu(LOOP)
        records, _ = trace_run(cpu, max_steps=100, watch_regs=(1,))
        # r1 increments through the loop
        values = [r.regs_after[0] for r in records]
        assert max(values) == 3

    def test_step_budget(self):
        cpu = make_cpu("spin: jmp spin")
        records, stop = trace_run(cpu, max_steps=10)
        assert stop is None
        assert len(records) == 10

    def test_format_trace(self):
        cpu = make_cpu(LOOP)
        records, _ = trace_run(cpu, max_steps=100, watch_regs=(1,))
        text = format_trace(records, watch_regs=(1,))
        assert "addi" in text and "r1=" in text
