"""In-memory span tracer that wraps the program's layer entry points.

Nothing here touches ``src/``: :func:`install_layer_spans` replaces
functions and methods of the loaded ``repro`` modules with wrappers
that open a span around the original call, and :meth:`Tracer.restore`
puts the originals back.  A span records its name, start, end and
parent; per-name aggregates keep the count, the total duration and the
self time (duration minus the part its child spans cover), split by
phase (``setup`` / ``run``).  Counts taken at the same boundaries
(translations, hook calls, checkpoints, switches, ...) live next to
them.

Pool workers fork from a traced parent: a fork handler switches the
child's tracer off, so worker processes run the originals and their
spans never exist (the benchmark traces per-run layers in a serial
pass instead, see ``workloads.py``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter

#: Spans kept individually for the written trace; beyond this only the
#: aggregates grow (the accounting never depends on the kept list).
MAX_SPANS = 200_000

_live_tracers: list["Tracer"] = []


def _disable_in_child() -> None:
    for tracer in _live_tracers:
        tracer.active = False


os.register_at_fork(after_in_child=_disable_in_child)


class Tracer:
    def __init__(self):
        self.active = True
        #: kept spans: [name, start, end, parent_index]
        self.spans: list[list] = []
        self.dropped = 0
        self._stack: list[list] = []
        self.phase = "setup"
        #: phase -> name -> [count, total_s, self_s]
        self.aggregates: dict[str, dict[str, list]] = {}
        #: phase -> Counter of boundary counts
        self.counts: dict[str, Counter] = {}
        self.missing: list[str] = []
        self._patches: list[tuple] = []
        self.distinct_blocks: set = set()
        self.current_program = None
        _live_tracers.append(self)

    # -- spans -----------------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def count(self, key: str, amount=1) -> None:
        self.counts.setdefault(self.phase, Counter())[key] += amount

    def _record(self, name: str, start: float) -> int:
        """Keep a span under the open one; its index, or -1 when the
        kept list is full."""
        if len(self.spans) >= MAX_SPANS:
            self.dropped += 1
            return -1
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append([name, start, None, parent])
        return len(self.spans) - 1

    def push(self, name: str) -> list:
        start = time.perf_counter()
        frame = [name, start, 0.0, self._record(name, start)]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self._close(frame[0], frame[1], end, frame[2], frame[3])

    def _close(self, name, start, end, child_s, index) -> None:
        duration = end - start
        agg = self.aggregates.setdefault(self.phase, {}).setdefault(
            name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][2] = end

    def add_child(self, name: str, start: float, end: float) -> None:
        """A span observed elsewhere (e.g. server-side job timestamps,
        already on this clock), attached under the open span."""
        if end > start:
            self._close(name, start, end, 0.0, self._record(name, start))

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.push(name)
        try:
            yield
        finally:
            self.pop(frame)

    def self_seconds(self, phase: str, name: str) -> float:
        return self.aggregates.get(phase, {}).get(name, [0, 0.0, 0.0])[2]

    def total_seconds(self, phase: str, name: str) -> float:
        return self.aggregates.get(phase, {}).get(name, [0, 0.0, 0.0])[1]

    def counted(self, phase: str, key: str):
        return self.counts.get(phase, Counter())[key]

    # -- wrapping ----------------------------------------------------------------

    def _wrapper(self, name, fn, count=None, pre=None, post=None,
                 span=True):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if count is not None:
                stack = tracer._stack
                if not (stack and stack[-1][0] == name):
                    tracer.count(count)
            token = pre(args) if pre is not None else None
            if span:
                frame = tracer.push(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.pop(frame)
            else:
                result = fn(*args, **kwargs)
            if post is not None:
                post(args, result, token)
            return result
        return wrapper

    def wrap_method(self, cls, attr: str, name: str, **kw) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        setattr(cls, attr, self._wrapper(name, original, **kw))
        self._patches.append((cls, attr, original))

    def wrap_function(self, module_name: str, attr: str, name: str,
                      **kw) -> None:
        """Wrap a module-level function everywhere ``repro`` modules
        hold a reference to it (``from x import f`` copies the name)."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module else None
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = self._wrapper(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def restore(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()
        self.active = False
        if self in _live_tracers:
            _live_tracers.remove(self)

    # -- output ------------------------------------------------------------------

    def write(self, path: str, meta: dict) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "meta": meta,
            "names": names,
            "dropped": self.dropped,
            "columns": ["name", "start_us", "end_us", "parent"],
            "spans": [[index[name], round((start - origin) * 1e6, 1),
                       (round((end - origin) * 1e6, 1)
                        if end is not None else None), parent]
                      for name, start, end, parent in self.spans],
            "aggregates": self.aggregates,
            "counts": {phase: dict(c) for phase, c in self.counts.items()},
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public calls into every layer the benchmark reports."""
    import repro.analysis  # noqa: F401  (load every module wrapped below)
    import repro.cfg  # noqa: F401
    import repro.faults.cache  # noqa: F401
    import repro.faults.campaign
    from repro.dbt.runtime import Dbt
    from repro.dbt.translator import BlockTranslator
    from repro.exec.block import BlockCompileBackend
    from repro.faults.injector import DbtInjector, NativeInjector
    from repro.faults.journal import CampaignJournal
    from repro.faults.supervisor import PoolSupervisor
    from repro.instrument.rewriter import StaticRewriter
    from repro.machine.cpu import Cpu
    from repro.recovery.manager import RecoveryManager
    from repro.threads.machine import ThreadedMachine

    w = tracer.wrap_method

    def session_post(args, result, token):
        tracer.current_program = getattr(args[1], "source_name", id(args[1]))

    w(Dbt, "__init__", "dbt.session", count="dbt.sessions",
      post=session_post)
    w(Dbt, "_run", "dbt.dispatch")

    def translate_post(args, result, token):
        tracer.distinct_blocks.add((tracer.current_program, args[1].start))

    w(BlockTranslator, "translate", "dbt.translate",
      count="dbt.translations", post=translate_post)
    w(BlockTranslator, "decode_guest_block", "dbt.translate")
    tracer.wrap_function("repro.cfg", "build_cfg", "cfg.build",
                         count="cfg.build_calls")
    tracer.wrap_function("repro.cfg", "find_leaders", "cfg.build",
                         count="cfg.build_calls")

    def exec_pre(args):
        stats = args[0]
        return (stats.blocks_compiled, stats.chain_hits, stats.chain_misses)

    def exec_post(args, result, token):
        backend = args[0]
        tracer.count("exec.blocks_compiled",
                     backend.blocks_compiled - token[0])
        tracer.count("exec.chain_hits", backend.chain_hits - token[1])
        tracer.count("exec.chain_misses", backend.chain_misses - token[2])

    w(BlockCompileBackend, "run", "exec.execute", pre=exec_pre,
      post=exec_post)
    w(BlockCompileBackend, "_compile", "exec.compile")
    w(Cpu, "run", "machine.run")

    def hook_pre(args):
        return args[0].fired

    def hook_post(args, result, token):
        if not token and args[0].fired:
            tracer.count("faults.injector.fires")

    for injector in (DbtInjector, NativeInjector):
        w(injector, "hook", "faults.injector.hook",
          count="faults.injector.hook_calls", pre=hook_pre, post=hook_post)

    def pipeline_post(args, result, token):
        fault = args[1] if len(args) > 1 else None
        if fault is not None:
            tracer.count("faults.injected_runs")
        tracer.count(f"outcome.{result.outcome.value}")

    from repro.faults.campaign import Pipeline
    w(Pipeline, "run", "faults.pipeline", count="faults.runs",
      post=pipeline_post)
    w(Pipeline, "_golden_run", "faults.golden")
    tracer.wrap_function("repro.faults.campaign", "_profile_program",
                         "faults.profile")
    w(StaticRewriter, "rewrite", "instrument.rewrite")

    def cache_post(kind):
        def post(args, result, token):
            tracer.count(f"faults.cache.{kind}_"
                         f"{'hit' if result is not None else 'miss'}")
        return post

    tracer.wrap_function("repro.faults.cache", "get_golden", "cache",
                         span=False, post=cache_post("golden"))
    tracer.wrap_function("repro.faults.cache", "get_profile", "cache",
                         span=False, post=cache_post("profile"))

    w(RecoveryManager, "_capture", "recovery.capture",
      count="recovery.checkpoints")
    w(RecoveryManager, "_rollback", "recovery.restore",
      count="recovery.rollbacks")
    w(ThreadedMachine, "run", "threads.run")
    w(ThreadedMachine, "_switch_in", "threads.switch", span=False,
      count="threads.switches")

    # The parent's self time inside the pool is time spent waiting on
    # workers (result handling, e.g. journal appends, are child spans).
    w(PoolSupervisor, "run", "faults.executor.wait")

    def journal_pre(args):
        try:
            return os.path.getsize(args[0].path)
        except OSError:
            return 0

    def journal_post(args, result, token):
        tracer.count("faults.journal.appends")
        tracer.count("faults.journal.bytes",
                     os.path.getsize(args[0].path) - token)

    w(CampaignJournal, "append_chunk", "faults.journal.append",
      pre=journal_pre, post=journal_post)
