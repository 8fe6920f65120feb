"""Branch execution profiling.

The paper's error model (Section 2) weights every branch-error category
by *dynamic execution frequency*: "Given that soft-errors are temporal
errors, we have to take into account the execution frequency of each
instruction.  The taken and not taken ratio is also important."

:class:`BranchProfiler` collects exactly the statistics the analytic
model needs:

* per static branch: taken and not-taken execution counts,
* per (static branch, FLAGS value): execution counts, split by outcome —
  the flag-fault analysis depends on the concrete flag values at each
  execution (flipping SF under ``jle`` only matters when ZF is clear...).

FLAGS only has 16 possible values, so the histogram stays tiny and the
whole Figure 2 table can be computed analytically after one profiled
run, instead of re-executing the program once per candidate fault.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Kind


@dataclass
class BranchStats:
    """Dynamic statistics for one static direct branch."""

    pc: int
    instr: Instruction
    taken: int = 0
    not_taken: int = 0
    #: (flags, taken) -> count; only populated for conditional branches.
    flags_hist: Counter = field(default_factory=Counter)

    @property
    def executions(self) -> int:
        return self.taken + self.not_taken

    @property
    def is_conditional(self) -> bool:
        return self.instr.meta.kind is Kind.BRANCH_COND


class BranchProfiler:
    """Accumulates per-branch dynamic statistics during a run.

    Install on a CPU via ``cpu.attach(profiler)``.  Only direct
    branches with an encoded offset are recorded; indirect branches are
    excluded from the error model exactly as in the paper ("we simplify
    the analysis by not accounting the errors in these branches").
    """

    def __init__(self) -> None:
        self.branches: dict[int, BranchStats] = {}

    def record(self, pc: int, instr: Instruction, taken: bool,
               flags: int) -> None:
        stats = self.branches.get(pc)
        if stats is None:
            stats = BranchStats(pc=pc, instr=instr)
            self.branches[pc] = stats
        if taken:
            stats.taken += 1
        else:
            stats.not_taken += 1
        if instr.meta.kind is Kind.BRANCH_COND:
            stats.flags_hist[(flags, taken)] += 1

    @property
    def total_executions(self) -> int:
        return sum(stats.executions for stats in self.branches.values())

    def taken_ratio(self) -> float:
        """Fraction of dynamic direct-branch executions that were taken."""
        total = self.total_executions
        if total == 0:
            return 0.0
        taken = sum(stats.taken for stats in self.branches.values())
        return taken / total
