"""Execution tracer tests."""

from repro.isa import assemble
from repro.machine import Cpu
from repro.machine.trace import Tracer, format_trace, trace_run
from repro.checking import EdgCF
from repro.dbt import Dbt


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


class TestTracer:
    def test_records_branches(self):
        cpu = make_cpu(LOOP)
        tracer = Tracer()
        tracer.attach(cpu)
        cpu.run()
        assert len(tracer) == 3   # three executions of the jl

    def test_capacity_bounds(self):
        cpu = make_cpu(LOOP)
        tracer = Tracer(capacity=2)
        tracer.attach(cpu)
        cpu.run()
        assert len(tracer) == 2

    def test_format_with_symbols(self):
        program = assemble(LOOP)
        cpu = Cpu()
        cpu.load_program(program)
        tracer = Tracer()
        tracer.attach(cpu)
        cpu.run()
        text = tracer.format(symbols=program.symbols)
        assert "jl" in text

    def test_chains_existing_hook(self):
        cpu = make_cpu(LOOP)
        seen = []
        cpu.pre_branch_hook = lambda c, pc, i: seen.append(pc) or None
        tracer = Tracer()
        tracer.attach(cpu)
        cpu.run()
        assert len(seen) == len(tracer) == 3

    def test_wraparound_keeps_most_recent(self):
        # four distinct branch sites; a capacity-2 ring must retain
        # exactly the last two executed, oldest evicted first
        cpu = make_cpu("""
.entry main
main:
    jmp a
a:  jmp b
b:  jmp c
c:  jmp d
d:  halt
""")
        tracer = Tracer(capacity=2)
        tracer.attach(cpu)
        cpu.run()
        pcs = [event.pc for event in tracer.events]
        assert pcs == [0x1008, 0x100C]   # the jumps at b: and c:

    def test_records_before_chained_hook(self):
        cpu = make_cpu(LOOP)
        tracer = Tracer()
        seen_lengths = []
        cpu.pre_branch_hook = (
            lambda c, pc, i: seen_lengths.append(len(tracer)))
        tracer.attach(cpu)
        cpu.run()
        # each chained call already sees the event of its own branch
        assert seen_lengths == [1, 2, 3]

    def test_replacement_from_chained_hook_propagates(self):
        from repro.faults import DirectionFault, FaultSpec, NativeInjector
        program = assemble(LOOP)
        cpu = Cpu()
        cpu.load_program(program)
        NativeInjector(FaultSpec(0x100C, 1, DirectionFault(taken=False)),
                       program, cpu).install()
        tracer = Tracer()
        tracer.attach(cpu)   # chains on top of the injector's hook
        cpu.run()
        # the forced-not-taken jl exits the loop on iteration one, so
        # the injector's replacement instruction made it through the
        # tracer's chain
        assert cpu.regs[1] == 1
        assert len(tracer) == 1

    def test_format_symbol_prefix_only_with_table(self):
        program = assemble(".entry spin\nspin: jmp spin")
        cpu = Cpu()
        cpu.load_program(program)
        tracer = Tracer(capacity=4)
        tracer.attach(cpu)
        cpu.run(max_steps=5)
        with_syms = tracer.format(symbols=program.symbols)
        bare = tracer.format()
        assert "spin: " in with_syms
        assert "spin:" not in bare
        assert "0x001000" in bare

    def test_works_under_dbt(self):
        program = assemble(LOOP)
        dbt = Dbt(program, technique=EdgCF())
        tracer = Tracer()
        tracer.attach(dbt.cpu)
        dbt.run()
        # translated code has more branches (checks, traps, chains)
        assert len(tracer) >= 3


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
