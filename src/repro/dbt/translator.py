"""The Frontend's block translator.

Decodes one guest basic block (translation is on demand: "every time a
non-translated basic block has to be executed, the DBT takes control
... therefore, only executed blocks are translated") and emits its
translation into the code cache:

========================  ==================================================
cache layout              purpose
========================  ==================================================
entry instrumentation     the technique's head code (CHECK_SIG + update)
translated body           original instructions, copied verbatim
exit instrumentation      the technique's GEN_SIG for this exit kind
transfer + exit stubs     the branch plus TRAP stubs the Runtime patches
                          into direct jumps once targets are translated
error stub                per-block ``trap ERROR`` that ErrorBranches hit
========================  ==================================================

Every original instruction's guest address is mapped to its cache
address, which is what lets the guest-level fault injector land
"in the middle of a basic block" *after* the entry instrumentation —
the defining difficulty of branch-error categories C and E.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.isa.encoding import decode
from repro.isa.instruction import WORD_SIZE, Instruction
from repro.isa.opcodes import Kind, Op
from repro.isa.registers import T1, T2
from repro.cfg.basic_block import BasicBlock, ExitKind, classify_exit
from repro.checking.base import (BlockInfo, CondDesc, RawIns, Technique)
from repro.instrument.lowering import (assign_addresses,
                                       check_slot_addresses, encode_snippet,
                                       lower_items)
from repro.dbt.codecache import CodeCache

#: Trap number reserved for signature-check failures.
ERROR_TRAP = 0xFFFF
#: Trap number reserved for the fault injector's redirects.
INJECT_TRAP = 0xFFFE
#: Trap number reserved for data-flow (duplication) check failures.
DF_ERROR_TRAP = 0xFFFD
#: Highest trap number usable as a chainable exit-slot id.
MAX_SLOT = 0xFFF0

MAX_BLOCK_INSTRUCTIONS = 256


@dataclass
class ExitSlot:
    """One patchable block exit."""

    slot_id: int
    kind: str                    #: "direct" or "indirect"
    trap_addr: int               #: cache address of the TRAP stub
    guest_target: int | None     #: known target for direct exits
    block_start: int             #: owning guest block
    patched: bool = False
    #: for the taken direction of a conditional exit: cache address of
    #: the conditional branch, so chaining can re-point it directly at
    #: the translated target (skipping the stub) like a real DBT
    cond_site: int | None = None


@dataclass
class TranslatedBlock:
    """Bookkeeping for one translated guest block."""

    guest_start: int
    guest_end: int
    cache_start: int
    cache_end: int
    exit_kind: ExitKind
    #: guest instruction address -> cache address of its translation
    addr_map: dict[int, int] = field(default_factory=dict)
    exit_slots: list[ExitSlot] = field(default_factory=list)
    error_stub: int = 0
    check_addresses: list[int] = field(default_factory=list)
    #: cache address of the always-executed transfer instruction that
    #: stands in for the guest terminator (None for fallthrough blocks)
    terminator_site: int | None = None
    #: guest address of the terminator
    guest_terminator: int | None = None
    instrumented_entry: bool = True
    #: cache ranges [start, end) holding *inserted* instrumentation
    #: (entry CHECK_SIG code and exit GEN_SIG code)
    instrumentation_ranges: list[tuple[int, int]] = field(
        default_factory=list)

    def is_instrumentation(self, cache_addr: int) -> bool:
        return any(start <= cache_addr < end
                   for start, end in self.instrumentation_ranges)

    def contains_guest(self, addr: int) -> bool:
        return self.guest_start <= addr < self.guest_end


class NullTechnique(Technique):
    """No instrumentation — the DBT-baseline configuration."""

    name = "none"

    def prologue(self, entry_block):
        return []

    def entry_items(self, block, check):
        return []

    def exit_items_direct(self, block, target):
        return []

    def exit_items_cond(self, block, taken, fallthrough, cond):
        return []

    def exit_items_indirect(self, block, target_reg):
        return []


class BlockTranslator:
    """Translates guest blocks into the code cache."""

    def __init__(self, memory, cache: CodeCache, technique: Technique,
                 policy, optimize: bool = False, dataflow=None):
        self.memory = memory
        self.cache = cache
        self.technique = technique
        self.policy = policy
        self.optimize = optimize
        #: optional DataFlowDuplication transformer (SWIFT-style)
        self.dataflow = dataflow
        self._next_slot = 0

    def _new_slot_id(self) -> int:
        slot = self._next_slot
        if slot > MAX_SLOT:
            raise RuntimeError("exit-slot ids exhausted; flush the cache")
        self._next_slot = slot + 1
        return slot

    def reset_slots(self) -> None:
        self._next_slot = 0

    # -- guest decoding -----------------------------------------------------

    def decode_guest_block(self, start: int,
                           stop_before: int | None = None) -> BasicBlock:
        """Decode guest instructions from ``start`` to the terminator.

        ``stop_before``: optional upper bound (used to keep translations
        from overlapping a block already known to start there).
        """
        block = BasicBlock(start=start)
        pc = start
        for _ in range(MAX_BLOCK_INSTRUCTIONS):
            if stop_before is not None and pc >= stop_before:
                break
            word = self.memory.read_word_raw(pc)
            instr = decode(word)  # DecodeError propagates to the runtime
            block.instructions.append((pc, instr))
            kind = classify_exit(instr)
            if instr.is_terminator or kind is ExitKind.EXIT:
                block.exit_kind = kind
                return block
            pc += WORD_SIZE
        block.exit_kind = ExitKind.FALLTHROUGH
        return block

    # -- translation ------------------------------------------------------------

    def translate(self, block: BasicBlock,
                  instrument_entry: bool = True,
                  owner_start: int | None = None) -> TranslatedBlock:
        """Emit ``block``'s translation; returns its bookkeeping record.

        ``instrument_entry=False`` with ``owner_start`` set produces a
        *suffix* translation: code for a landing in the middle of block
        ``owner_start`` (fault-injection landings, SMC resume points).
        No entry check runs — that is the point of a middle landing —
        and GEN_SIG at the exit is computed as if still inside the
        owner, exactly like the tail of the owner's own translation.
        """
        with obs.span("dbt.translate", guest=block.start):
            tb = self._translate(block, instrument_entry, owner_start)
        registry = obs.get_registry()
        if registry is None:
            return tb
        registry.counter("dbt_blocks_translated_total",
                         help="guest blocks translated").inc()
        registry.counter(
            "dbt_translated_words_total",
            help="code-cache words emitted by translation").inc(
            (tb.cache_end - tb.cache_start) // WORD_SIZE)
        if tb.check_addresses:
            registry.counter(
                "dbt_check_sites_total",
                help="signature-check branch sites emitted").inc(
                len(tb.check_addresses))
        return tb

    def _translate(self, block: BasicBlock, instrument_entry: bool,
                   owner_start: int | None) -> TranslatedBlock:
        technique = self.technique
        info = BlockInfo(start=owner_start if owner_start is not None
                         else block.start)
        check = instrument_entry and self.policy.should_check(block)

        entry_items = (technique.entry_items(info, check)
                       if instrument_entry else [])
        # Plan: [entry snippet][body][exit plan][error stub]
        plan = _ExitPlan(self, block, info)
        def sig_resolver(guest_addr):
            return guest_addr  # address IS signature

        exit_item_lists = plan.snippets
        if self.optimize:
            from repro.dbt.backend import optimize_items
            entry_items = optimize_items(entry_items, sig_resolver)
            exit_item_lists = [optimize_items(items, sig_resolver)
                               for items in exit_item_lists]

        entry_snip = lower_items(entry_items, compact=True,
                                 resolver=sig_resolver)
        exit_snips = [lower_items(items, compact=True, resolver=sig_resolver)
                      for items in exit_item_lists]

        # Expand the body: with data-flow duplication each original
        # instruction becomes a protected sequence; elements are either
        # concrete Instructions or the duplication check-branch marker.
        dataflow = self.dataflow
        body_groups: list[tuple[int, list]] = []
        for guest_addr, instr in plan.body_instructions:
            if dataflow is not None:
                body_groups.append(
                    (guest_addr, dataflow.transform(guest_addr, instr)))
            else:
                body_groups.append((guest_addr, [instr]))
        pre_exit = plan.pre_exit_raw
        body_words = (sum(len(seq) for _, seq in body_groups)
                      + len(pre_exit))

        words = (entry_snip.size_words
                 + body_words
                 + sum(s.size_words for s in exit_snips)
                 + len(plan.tail)      # transfer + stubs
                 + 1                   # error stub
                 + (1 if dataflow is not None else 0))  # df error stub
        base = self.cache.allocate(words)

        tb = TranslatedBlock(
            guest_start=block.start, guest_end=block.end,
            cache_start=base, cache_end=base + words * WORD_SIZE,
            exit_kind=block.exit_kind,
            guest_terminator=(block.terminator[0]
                              if block.terminator else None),
            instrumented_entry=instrument_entry)

        cursor = assign_addresses(entry_snip, base)
        tb.check_addresses.extend(check_slot_addresses(entry_snip))
        if cursor > base:
            tb.instrumentation_ranges.append((base, cursor))
        tb.addr_map[block.start] = base

        body_addrs: list[int] = []   # start address of each element
        for guest_addr, seq in body_groups:
            if guest_addr != block.start:
                tb.addr_map[guest_addr] = cursor
            for _ in seq:
                body_addrs.append(cursor)
                cursor += WORD_SIZE
        pre_exit_addrs: list[int] = []
        for _ in pre_exit:
            pre_exit_addrs.append(cursor)
            cursor += WORD_SIZE

        exit_start = cursor
        for snip in exit_snips:
            cursor = assign_addresses(snip, cursor)
            tb.check_addresses.extend(check_slot_addresses(snip))
        if cursor > exit_start:
            tb.instrumentation_ranges.append((exit_start, cursor))
        if (tb.guest_terminator is not None
                and tb.guest_terminator not in tb.addr_map):
            # The guest terminator "lives" at the start of the exit code:
            # a landing on it runs GEN_SIG + the transfer, like landing
            # on the original branch would run just the branch.
            tb.addr_map[tb.guest_terminator] = (
                pre_exit_addrs[0] if pre_exit_addrs else exit_start)

        tail_addrs: list[int] = []
        for _ in plan.tail:
            tail_addrs.append(cursor)
            cursor += WORD_SIZE
        tb.error_stub = cursor
        cursor += WORD_SIZE
        df_stub = None
        if dataflow is not None:
            df_stub = cursor
            cursor += WORD_SIZE

        # ---- emit ----
        error_target = tb.error_stub
        for addr, instr in encode_snippet(entry_snip, sig_resolver,
                                          error_target):
            self.cache.write_instruction(addr, instr)
        elements = [el for _, seq in body_groups for el in seq] + \
            list(pre_exit)
        for element, addr in zip(elements, body_addrs + pre_exit_addrs):
            self._emit_body_element(element, addr, df_stub)
        for snip in exit_snips:
            for addr, instr in encode_snippet(snip, sig_resolver,
                                              error_target):
                self.cache.write_instruction(addr, instr)
        plan.emit_tail(tb, tail_addrs)
        self.cache.write_instruction(
            tb.error_stub, Instruction(op=Op.TRAP, imm=ERROR_TRAP))
        if df_stub is not None:
            self.cache.write_instruction(
                df_stub, Instruction(op=Op.TRAP, imm=DF_ERROR_TRAP))
        return tb

    def _emit_body_element(self, element, addr: int,
                           df_stub: int | None) -> None:
        if isinstance(element, Instruction):
            self.cache.write_instruction(addr, element)
            return
        # Data-flow check marker: jrnz DF2 -> the df error stub.
        from repro.isa.registers import DF2
        assert df_stub is not None
        offset = (df_stub - (addr + WORD_SIZE)) // WORD_SIZE
        self.cache.write_instruction(
            addr, Instruction(op=Op.JRNZ, rd=DF2, imm=offset))


class _ExitPlan:
    """Builds the exit sequence for one block.

    ``snippets``: instrumentation item lists emitted after the body.
    ``tail``: symbolic transfer elements emitted after the snippets —
    ("branch", op, rd, label_index), ("trap", slot), ("ins", instr).
    """

    def __init__(self, translator: BlockTranslator, block: BasicBlock,
                 info: BlockInfo):
        self.translator = translator
        self.block = block
        self.info = info
        self.snippets: list[list] = []
        self.tail: list[tuple] = []
        self.body_instructions = list(block.instructions)
        #: concrete pre-exit elements (instructions / data-flow check
        #: markers) emitted between the body and the exit snippets
        self.pre_exit_raw: list = []
        self._slots: list[tuple[int, str, int | None]] = []
        self._build()

    def _build(self) -> None:
        technique = self.translator.technique
        dataflow = self.translator.dataflow
        block, info = self.block, self.info
        kind = block.exit_kind
        term = block.terminator
        if term is not None and kind not in (ExitKind.EXIT, ExitKind.HALT):
            self.body_instructions = self.body_instructions[:-1]

        if kind is ExitKind.FALLTHROUGH:
            target = block.end
            self.snippets.append(technique.exit_items_direct(info, target))
            self._trap("direct", target)
        elif kind is ExitKind.JUMP:
            pc, instr = term
            target = instr.branch_target(pc)
            self.snippets.append(technique.exit_items_direct(info, target))
            self._trap("direct", target)
        elif kind is ExitKind.COND:
            pc, instr = term
            taken = instr.branch_target(pc)
            fall = pc + WORD_SIZE
            cond = (CondDesc(cond=instr.meta.cond)
                    if instr.meta.kind is Kind.BRANCH_COND
                    else CondDesc(reg_op=instr.op, reg=instr.rd))
            self.snippets.append(
                technique.exit_items_cond(info, taken, fall, cond))
            # taken-branch over the fallthrough stub
            self.tail.append(("branch", instr.op, instr.rd, 2))
            self._trap("direct", fall)
            self._trap("direct", taken)
        elif kind is ExitKind.CALL:
            pc, instr = term
            target = instr.branch_target(pc)
            return_addr = pc + WORD_SIZE
            if dataflow is not None:
                # mirror the sp decrement on the shadow file
                self.pre_exit_raw.extend(
                    dataflow.call_return_shadow_update())
            # Push the *guest* return address so guest stack contents
            # stay architecturally identical.
            self.snippets.append(
                [RawIns(i) for i in _load_const(T2, return_addr)]
                + [RawIns(Instruction(op=Op.PUSH, rd=T2))]
                + technique.exit_items_direct(info, target))
            self._trap("direct", target)
        elif kind is ExitKind.RET:
            if dataflow is not None:
                self.pre_exit_raw.extend(dataflow.ret_shadow_update())
            self.snippets.append(
                [RawIns(Instruction(op=Op.LD, rd=T1, rs=15, imm=0))]
                + technique.exit_items_indirect(info, T1)
                + [RawIns(Instruction(op=Op.LEA, rd=15, rs=15, imm=4))])
            self._trap("indirect", None)
        elif kind is ExitKind.INDIRECT:
            pc, instr = term
            if dataflow is not None:
                # verify the guest-computed target before transferring
                self.pre_exit_raw.extend(
                    dataflow.protect_indirect_target(instr.rd))
                if instr.op is Op.CALLR:
                    self.pre_exit_raw.extend(
                        dataflow.call_return_shadow_update())
            items = [RawIns(Instruction(op=Op.MOV, rd=T1, rs=instr.rd))]
            if instr.op is Op.CALLR:
                return_addr = pc + WORD_SIZE
                items += [RawIns(i) for i in _load_const(T2, return_addr)]
                items.append(RawIns(Instruction(op=Op.PUSH, rd=T2)))
            items += self.translator.technique.exit_items_indirect(
                self.info, T1)
            self.snippets.append(items)
            self._trap("indirect", None)
        elif kind in (ExitKind.HALT, ExitKind.EXIT):
            pass  # the terminator stays in the body and stops the CPU
        else:  # pragma: no cover
            raise AssertionError(kind)

    def _trap(self, kind: str, guest_target: int | None) -> None:
        slot_id = self.translator._new_slot_id()
        self._slots.append((slot_id, kind, guest_target))
        self.tail.append(("trap", slot_id))

    def emit_tail(self, tb: TranslatedBlock, addrs: list[int]) -> None:
        cache = self.translator.cache
        slot_iter = iter(self._slots)
        branch_site: int | None = None
        for element, addr in zip(self.tail, addrs):
            if element[0] == "branch":
                _, op, rd, _skip = element
                # The taken stub is the last tail element.
                target_addr = addrs[-1]
                offset = (target_addr - (addr + WORD_SIZE)) // WORD_SIZE
                cache.write_instruction(
                    addr, Instruction(op=op, rd=rd, imm=offset))
                tb.terminator_site = addr
                branch_site = addr
            elif element[0] == "trap":
                slot_id, kind, guest_target = next(slot_iter)
                cache.write_instruction(
                    addr, Instruction(op=Op.TRAP, imm=slot_id))
                is_taken_stub = (branch_site is not None
                                 and addr == addrs[-1])
                tb.exit_slots.append(ExitSlot(
                    slot_id=slot_id, kind=kind, trap_addr=addr,
                    guest_target=guest_target,
                    block_start=tb.guest_start,
                    cond_site=branch_site if is_taken_stub else None))
                if tb.terminator_site is None and self.block.exit_kind \
                        is not ExitKind.FALLTHROUGH:
                    tb.terminator_site = addr
            else:  # pragma: no cover
                raise AssertionError(element)


def _load_const(rd: int, value: int) -> list[Instruction]:
    value &= 0xFFFFFFFF
    signed = value - 0x100000000 if value >= 0x80000000 else value
    if -0x8000 <= signed <= 0x7FFF:
        return [Instruction(op=Op.MOVI, rd=rd, imm=signed)]
    return [
        Instruction(op=Op.MOVHI, rd=rd, imm=(value >> 16) & 0xFFFF),
        Instruction(op=Op.MOVLO, rd=rd, imm=value & 0xFFFF),
    ]
