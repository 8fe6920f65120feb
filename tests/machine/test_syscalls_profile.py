"""Syscall services and the branch profiler."""

from repro.isa import assemble
from repro.machine import BranchProfiler, Cpu, StopReason, run_native
from repro.machine.syscalls import CFC_ERROR_EXIT_CODE, Service


def run_src(source: str):
    cpu = Cpu()
    cpu.load_program(assemble(source))
    stop = cpu.run(max_steps=100_000)
    return cpu, stop


class TestSyscalls:
    def test_exit_code(self):
        cpu, stop = run_src("movi r1, 42\nsyscall 0")
        assert stop.reason is StopReason.HALTED
        assert stop.exit_code == 42

    def test_print_int_signed(self):
        cpu, _ = run_src("movi r1, -7\nsyscall 1\nmovi r1, 0\nsyscall 0")
        assert cpu.output == ["-7"]

    def test_print_char(self):
        cpu, _ = run_src("movi r1, 65\nsyscall 2\nmovi r1, 0\nsyscall 0")
        assert cpu.output == ["A"]

    def test_print_str(self):
        cpu, _ = run_src('.data\ns: .asciz "ok"\n.text\n'
                         "const r1, s\nsyscall 3\nmovi r1, 0\nsyscall 0")
        assert cpu.output == ["ok"]

    def test_emit_word(self):
        cpu, _ = run_src("const r1, 0xABCD\nsyscall 4\n"
                         "movi r1, 0\nsyscall 0")
        assert cpu.output_values == [0xABCD]

    def test_cycles_service(self):
        cpu, _ = run_src("syscall 5\nmov r2, r0\nmovi r1, 0\nsyscall 0")
        assert cpu.regs[2] > 0

    def test_cfc_error_service(self):
        cpu, stop = run_src("syscall 6")
        assert cpu.cfc_error
        assert stop.exit_code == CFC_ERROR_EXIT_CODE

    def test_unknown_service_is_noop(self):
        cpu, stop = run_src("syscall 99\nmovi r1, 0\nsyscall 0")
        assert stop.reason is StopReason.HALTED

    def test_service_enum_values_stable(self):
        assert Service.EXIT == 0
        assert Service.EMIT_WORD == 4
        assert Service.CFC_ERROR == 6


class TestBranchProfiler:
    def test_counts_taken_and_not_taken(self, sum_loop):
        profiler = BranchProfiler()
        run_native(sum_loop, profiler=profiler)
        # the loop branch: 9 taken + 1 fall-through
        [stats] = [s for s in profiler.branches.values()
                   if s.instr.meta.cond is not None]
        assert stats.taken == 9
        assert stats.not_taken == 1
        assert stats.executions == 10

    def test_flags_histogram_partitions_executions(self, sum_loop):
        profiler = BranchProfiler()
        run_native(sum_loop, profiler=profiler)
        [stats] = [s for s in profiler.branches.values()
                   if s.instr.meta.cond is not None]
        assert sum(stats.flags_hist.values()) == stats.executions

    def test_unconditional_jumps_recorded_as_taken(self):
        profiler = BranchProfiler()
        cpu = Cpu()
        cpu.load_program(assemble("jmp next\nnext: halt"))
        cpu.attach(profiler)
        cpu.run()
        [stats] = profiler.branches.values()
        assert stats.taken == 1 and stats.not_taken == 0

    def test_taken_ratio(self, sum_loop):
        profiler = BranchProfiler()
        run_native(sum_loop, profiler=profiler)
        assert 0.0 < profiler.taken_ratio() <= 1.0

    def test_indirect_branches_not_recorded(self, call_program):
        profiler = BranchProfiler()
        run_native(call_program, profiler=profiler)
        from repro.isa.opcodes import Kind
        for stats in profiler.branches.values():
            assert stats.instr.meta.kind not in (Kind.RET,
                                                 Kind.BRANCH_IND)

    def test_jrz_profiled(self):
        profiler = BranchProfiler()
        cpu = Cpu()
        cpu.load_program(assemble(
            "movi r1, 0\njrz r1, done\nnop\ndone: halt"))
        cpu.attach(profiler)
        cpu.run()
        assert any(s.taken for s in profiler.branches.values())
