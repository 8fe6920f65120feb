"""Instruction-level execution traces for debugging short windows.

:func:`trace_run` single-steps a CPU and captures every executed
instruction; :func:`format_trace` renders the result.  To watch only
the branches of a longer run, attach an observer with ``Cpu.attach``
(the forensics flight recorder is one).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.disassembler import format_instruction
from repro.isa.instruction import Instruction
from repro.machine.cpu import Cpu
from repro.machine.faults import StopInfo


@dataclass
class TraceRecord:
    """One instruction of a full trace."""

    pc: int
    instr: Instruction
    regs_after: tuple[int, ...]


def trace_run(cpu: Cpu, max_steps: int = 1000,
              watch_regs: tuple[int, ...] = ()
              ) -> tuple[list[TraceRecord], StopInfo | None]:
    """Single-step ``cpu`` capturing every executed instruction.

    ``watch_regs`` limits the captured register state (empty = none).
    Returns the trace and the stop info (None if the step budget ran
    out first).
    """
    records: list[TraceRecord] = []
    for _ in range(max_steps):
        pc = cpu.pc
        try:
            instr = cpu._decode_at(pc)
        except Exception:
            instr = Instruction.__new__(Instruction)
            object.__setattr__(instr, "op", None)
        stop = cpu.step()
        regs = tuple(cpu.regs[r] for r in watch_regs)
        if getattr(instr, "op", None) is not None:
            records.append(TraceRecord(pc=pc, instr=instr,
                                       regs_after=regs))
        if stop is not None:
            return records, stop
    return records, None


def format_trace(records: list[TraceRecord],
                 watch_regs: tuple[int, ...] = ()) -> str:
    from repro.isa.registers import register_name
    lines = []
    for record in records:
        line = (f"{record.pc:#08x}  "
                f"{format_instruction(record.instr, record.pc)}")
        if watch_regs:
            state = " ".join(
                f"{register_name(reg)}={value:#x}"
                for reg, value in zip(watch_regs, record.regs_after))
            line = f"{line:50s} | {state}"
        lines.append(line)
    return "\n".join(lines)
