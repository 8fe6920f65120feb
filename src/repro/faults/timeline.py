"""Golden-run timeline: fast-forwarded DBT fault runs.

A DBT fault run is identical to the golden run up to the instruction
where its fault fires, yet a from-entry run replays that whole prefix:
a fresh session retranslates every block, and the injector's hook runs
on every branch just to count occurrences.  The timeline replays the
golden run once per :class:`~repro.faults.campaign.Pipeline`, with a
recording branch hook, and keeps two things:

* the golden icount of the first :data:`MAX_OCCURRENCE` executions of
  every translated branch site, counted exactly as
  :class:`~repro.faults.injector.DbtInjector` counts guest branches
  and :class:`~repro.faults.injector.CacheLevelInjector` counts cache
  addresses, so a spec's ``occurrence`` resolves to the icount where
  it fires;
* :class:`Mark` s every ``spacing`` budget steps: a snapshot of the
  whole session plus the injector bookkeeping a from-entry run would
  hold there.  At :data:`MAX_SNAPSHOTS` every other mark is dropped
  and the spacing doubles, so their number is bounded on any run
  length; pages that did not change are shared between snapshots.

A fast-forwarded run restores the last mark at or before the fire
point into a fresh session and installs the injector there with its
count preset: no hook runs over the prefix and the prefix's blocks are
not retranslated.

The replay is lazy and incremental: it advances :data:`STRIDE` steps
at a time, only until the specs asked for so far are resolved, so it
never replays more than one extra copy of the prefix a run skips.  It
runs with metrics off, and a fast-forwarded run's counters cover only
what it executes: ``interp_instructions_total`` is not credited with
the prefix a run skipped, although ``RunRecord.icount`` includes it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro import obs
from repro.dbt.runtime import DbtSnapshot
from repro.machine.faults import StopReason
from repro.machine.memory import PAGE_SHIFT, PAGE_SIZE
from repro.faults.injector import (MAX_OCCURRENCE, CacheFaultSpec,
                                   FaultSpec, RegisterFaultSpec)

#: Marks kept per timeline before thinning.
MAX_SNAPSHOTS = 32
#: Budget steps the replay advances per call, and the initial spacing
#: of marks.
STRIDE = 256


@dataclass(frozen=True)
class Mark:
    """A point of the golden run a fault run can start from."""

    #: dispatch-loop budget consumed to get here (the icount, except
    #: that SMC store re-executions are not charged)
    steps: int
    session: DbtSnapshot
    #: ``DbtInjector._known_translations`` of a from-entry run here
    known_translations: int
    #: terminator site -> guest branches it stands in for; like the
    #: injector's site set it only grows, flushed sites included
    site_owners: dict

    @property
    def icount(self) -> int:
        return self.session.icount

    def sites_of(self, branch_pc: int) -> set[int]:
        """A from-entry ``DbtInjector``'s site set for ``branch_pc``."""
        return {site for site, owners in self.site_owners.items()
                if branch_pc in owners}


class GoldenTimeline:
    """Lazy golden replay of one pipeline configuration.

    ``new_session`` builds a fresh :class:`~repro.dbt.runtime.Dbt`
    laid out exactly like the configuration's fault runs.
    """

    def __init__(self, new_session):
        self._new_session = new_session
        self._dbt = None
        #: budget consumed and icount reached by the replay so far
        self.steps = 0
        self.icount = 0
        #: the replay reached the end of the golden run
        self.finished = False
        self.spacing = STRIDE
        self.marks: list[Mark] = []
        #: guest branch pc -> golden icounts of its executions
        self.branch_hits: dict[int, list[int]] = {}
        #: cache pc -> golden icounts of its executions
        self.cache_hits: dict[int, list[int]] = {}
        #: see :attr:`Mark.site_owners`
        self._site_owners: dict[int, set[int]] = {}
        self._known_translations = -1
        self._scanned = (0, 0)
        self._flushes = 0
        self._pages: dict[int, bytes] = {}

    # -- resolving specs ------------------------------------------------------

    def start_for(self, spec, max_steps: int) -> tuple[Mark, int] | None:
        """Where a fast-forwarded run of ``spec`` starts: the last mark
        at or before the fire point, and how many counted executions of
        the spec's site precede it.  None when the spec takes the
        from-entry path: an occurrence past the cap or one the golden
        run never reaches, a thread-targeted spec, or a fire point
        before the first mark.
        """
        if isinstance(spec, RegisterFaultSpec):
            fire, hits = spec.icount, ()
            self._advance(lambda: self.icount >= fire)
        else:
            if isinstance(spec, CacheFaultSpec):
                table, key = self.cache_hits, spec.cache_addr
            elif isinstance(spec, FaultSpec) and spec.thread is None:
                table, key = self.branch_hits, spec.branch_pc
            else:
                return None
            hits = self._hits(table, key, spec.occurrence)
            if hits is None:
                return None
            fire = hits[spec.occurrence - 1]
        # both columns grow along the replay, so the usable marks are
        # a prefix of the list
        index = min(
            bisect.bisect_right([mark.icount for mark in self.marks], fire),
            bisect.bisect_right([mark.steps for mark in self.marks],
                                max_steps)) - 1
        if index < 0:
            return None
        mark = self.marks[index]
        return mark, bisect.bisect_left(hits, mark.icount)

    def _hits(self, table: dict, key: int, occurrence: int):
        if not 1 <= occurrence <= MAX_OCCURRENCE:
            return None
        self._advance(lambda: len(table.get(key, ())) >= occurrence)
        hits = table.get(key, ())
        return hits if len(hits) >= occurrence else None

    # -- the replay -----------------------------------------------------------

    def _advance(self, reached) -> None:
        # Metrics off: counted work stays a function of the runs, not
        # of how a campaign's specs were spread over worker processes
        # (each worker replays its own timeline).
        with obs.scoped(None):
            while not self.finished and not reached():
                self._step()

    def _step(self) -> None:
        dbt = self._dbt
        if dbt is None:
            dbt = self._dbt = self._new_session()
            # the copy-on-write journal doubles as the written-page log
            dbt.cpu.memory.cow = {}
            dbt.cpu.attach(self)
        result = dbt._run(STRIDE, None)
        self.icount = dbt.cpu.icount
        if result.stop.reason is not StopReason.STEP_LIMIT:
            self.finished = True
            dbt.close()
            self._dbt = None
            self._pages = {}
            return
        self.steps += STRIDE
        if self.steps % self.spacing == 0:
            self._capture(dbt)

    def _capture(self, dbt) -> None:
        memory = dbt.cpu.memory
        data = memory.data
        pages = dict(self._pages)
        for page in memory.cow:
            base = page << PAGE_SHIFT
            pages[page] = bytes(data[base:base + PAGE_SIZE])
        memory.cow = {}
        self._pages = pages
        self.marks.append(Mark(
            steps=self.steps, session=dbt.capture(pages),
            known_translations=self._known_translations,
            site_owners={site: frozenset(owners) for site, owners
                         in self._site_owners.items()}))
        if len(self.marks) >= MAX_SNAPSHOTS:
            self.spacing *= 2
            self.marks = [mark for mark in self.marks
                          if mark.steps % self.spacing == 0]

    def hook(self, cpu, pc, instr):
        """Recording pre-branch hook: never alters the branch."""
        dbt = self._dbt
        count = len(dbt.blocks) + len(dbt._suffixes)
        if count != self._known_translations:
            self._known_translations = count
            self._scan_sites(dbt)
        icount = cpu.icount
        hits = self.cache_hits.get(pc)
        if hits is None:
            self.cache_hits[pc] = [icount]
        elif len(hits) < MAX_OCCURRENCE:
            hits.append(icount)
        owners = self._site_owners.get(pc)
        if owners:
            for branch_pc in owners:
                hits = self.branch_hits.setdefault(branch_pc, [])
                if len(hits) < MAX_OCCURRENCE:
                    hits.append(icount)
        return None

    def _scan_sites(self, dbt) -> None:
        """Mirror ``DbtInjector._refresh_sites`` for every guest branch
        at once.  Between flushes translations are only added, so only
        the new ones need a look; after a flush every current one does.
        """
        if dbt.flushes != self._flushes:
            self._flushes = dbt.flushes
            self._scanned = (0, 0)
        blocks = list(dbt.blocks.values())
        suffixes = list(dbt._suffixes.values())
        done_blocks, done_suffixes = self._scanned
        for tb in blocks[done_blocks:] + suffixes[done_suffixes:]:
            if (tb.guest_terminator is not None
                    and tb.terminator_site is not None):
                self._site_owners.setdefault(
                    tb.terminator_site, set()).add(tb.guest_terminator)
        self._scanned = (len(blocks), len(suffixes))
