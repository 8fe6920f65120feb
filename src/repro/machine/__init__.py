"""The R32 machine: paged memory, interpreter, syscalls, profiling.

This is the hardware substrate of the reproduction — the stand-in for
the paper's Intel Xeon.  It provides the two protection mechanisms the
paper's detection story needs (execute-disable and write protection) and
a deterministic cycle model for the performance figures.
"""

from repro import obs
from repro.machine.cpu import TAKEN_BRANCH_PENALTY, Cpu
from repro.machine.faults import (FaultKind, MachineError, StopInfo,
                                  StopReason)
from repro.machine.memory import (PAGE_SIZE, PERM_R, PERM_RW, PERM_RWX,
                                  PERM_RX, PERM_W, PERM_X, Memory)
from repro.machine.profile import BranchProfiler, BranchStats
from repro.machine.syscalls import Service

__all__ = [
    "TAKEN_BRANCH_PENALTY", "Cpu",
    "FaultKind", "MachineError", "StopInfo", "StopReason",
    "PAGE_SIZE", "PERM_R", "PERM_RW", "PERM_RWX", "PERM_RX", "PERM_W",
    "PERM_X", "Memory",
    "BranchProfiler", "BranchStats",
    "Service",
]


def run_native(program, max_steps: int = 50_000_000,
               profiler: BranchProfiler | None = None,
               backend: str = "interp"):
    """Run a program directly on the machine (no DBT).

    Returns ``(cpu, stop_info)``.  This is the paper's "native code"
    baseline configuration.  ``backend`` selects the execution
    strategy (see :mod:`repro.exec`).
    """
    # Local import: repro.exec imports machine modules at load time.
    from repro.exec import install_backend
    cpu = Cpu()
    install_backend(cpu, backend)
    cpu.load_program(program, executable_text=True)
    if profiler is not None:
        cpu.attach(profiler)
    with obs.span("interp.run",
                  program=getattr(program, "source_name", "?")):
        stop = cpu.run(max_steps=max_steps)
    return cpu, stop
