"""``repro.obs`` — metrics, spans, and campaign telemetry.

The observability subsystem the perf roadmap hangs off: a metrics
registry (:mod:`repro.obs.metrics`), exporters
(:mod:`repro.obs.exporters`) and cross-process campaign traces
(:mod:`repro.obs.traceevent`), wired through the interpreter, the DBT,
and the campaign engine.

Design rule: **off means free**.  Nothing is recorded — and the
interpreter hot loop takes no extra branch per instruction — unless a
registry has been installed with :func:`install` (usually via the CLI's
``--metrics`` flag or the :func:`session` context manager) or a traced
campaign run is collecting spans.  Instrumentation sites either check
``get_registry() is None`` or go through the module helpers below,
which hand out shared no-op instruments while observability is off.

Spans: ``with obs.span("dbt.translate", guest=pc): ...`` times one
region of the stack.  A finished span is one sample of the registry
histogram ``span_seconds{span=<name>}``, and — inside a traced
campaign run (:func:`run_spans`) — one child of that run's
deterministic span in the campaign's trace sidecar.

Campaign fan-out: each worker process installs a ``worker=True``
registry, drains it after every chunk, and ships the snapshot back on
the existing result pipe; the supervisor's side merges the drains into
the campaign-level registry, so ``coverage --jobs 8 --metrics out.prom``
reports one coherent registry whose totals match a serial run exactly.

Thread scoping: the campaign service (:mod:`repro.service`) runs
several jobs concurrently in one process, each wanting its own
registry.  :func:`scoped` installs a registry for the *calling thread*
only — every instrument helper consults the thread scope first and
falls back to the process-wide installation, so scoped jobs are
isolated from each other and from the global registry without the hot
paths paying more than one extra attribute read.

See ``docs/observability.md`` for the metric catalogue and span names.
"""

from __future__ import annotations

import contextlib
import threading
import time

from repro.obs.metrics import (BUCKET_SHIFT, BUCKETS, Counter, Gauge,
                               Histogram, MetricsRegistry, NULL_COUNTER,
                               NULL_GAUGE, NULL_HISTOGRAM, Timer,
                               bucket_index, bucket_upper_bound)
from repro.obs.timeseries import RollingWindow, TimeSeriesHub
from repro.obs.traceevent import TraceContext, trace_sidecar_path

__all__ = [
    "BUCKETS", "BUCKET_SHIFT", "Counter", "Gauge", "Histogram",
    "MetricsRegistry", "NULL_COUNTER", "NULL_GAUGE", "NULL_HISTOGRAM",
    "RollingWindow", "TimeSeriesHub", "Timer", "TraceContext",
    "bucket_index", "bucket_upper_bound", "counter",
    "drain_worker_snapshot", "enabled", "gauge", "get_registry",
    "histogram", "install", "merge_snapshot", "run_spans", "scoped",
    "session", "snapshot", "span", "trace_sidecar_path", "uninstall",
]

#: The installed registry, or None (observability off).
_registry: MetricsRegistry | None = None

#: Per-thread state: the :func:`scoped` registry override (``active``,
#: ``registry``) and the span list of the traced run in progress
#: (``children``, see :func:`run_spans`).
_scope = threading.local()


def install(registry: MetricsRegistry) -> None:
    """Turn observability on (replacing any previous installation).

    Also clears the calling thread's :func:`scoped` override: a
    campaign worker forked from a scoped service thread inherits the
    parent's thread-local scope, and its ``worker=True`` registry must
    win or its telemetry would accrue in a dead copy of the job
    registry instead of riding the result pipe home.
    """
    global _registry
    _registry = registry
    _scope.registry = None
    _scope.active = False
    _scope.children = None


def uninstall() -> None:
    """Turn observability off; instruments become no-ops again."""
    global _registry
    _registry = None


@contextlib.contextmanager
def scoped(registry: MetricsRegistry | None):
    """Registry override for the calling thread only.

    The service orchestrator wraps each job's execution in
    ``with obs.scoped(job_registry):`` so concurrently-running jobs
    record into isolated registries while the process-wide installation
    (if any) keeps serving every other thread.  Passing ``None``
    explicitly shadows the global registry — observability off for the
    region, traced-run spans included.  Scopes nest; the previous scope
    is restored on exit.
    """
    previous = (getattr(_scope, "registry", None),
                getattr(_scope, "active", False),
                getattr(_scope, "children", None))
    _scope.registry = registry
    _scope.active = True
    _scope.children = None
    try:
        yield registry
    finally:
        _scope.registry, _scope.active, _scope.children = previous


def get_registry() -> MetricsRegistry | None:
    if getattr(_scope, "active", False):
        return _scope.registry
    return _registry


def enabled() -> bool:
    return get_registry() is not None


# -- instrument helpers (no-ops while off) ----------------------------------


def counter(name: str, help: str = "", **labels):
    registry = get_registry()
    if registry is None:
        return NULL_COUNTER
    return registry.counter(name, help=help, **labels)


def gauge(name: str, help: str = "", **labels):
    registry = get_registry()
    if registry is None:
        return NULL_GAUGE
    return registry.gauge(name, help=help, **labels)


def histogram(name: str, help: str = "", **labels):
    registry = get_registry()
    if registry is None:
        return NULL_HISTOGRAM
    return registry.histogram(name, help=help, **labels)


# -- spans --------------------------------------------------------------------


class _Span:
    """One in-flight span; lands in the histogram and/or the run."""

    __slots__ = ("name", "attrs", "registry", "children", "t0")

    def __init__(self, name: str, attrs: dict, registry, children):
        self.name = name
        self.attrs = attrs
        self.registry = registry
        self.children = children

    def __enter__(self) -> "_Span":
        self.t0 = time.time()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.time() - self.t0
        if self.registry is not None:
            self.registry.histogram(
                "span_seconds", help="wall time of one span",
                span=self.name).observe(duration)
        if self.children is not None:
            child = {"name": self.name, "t0": self.t0, "dur": duration}
            if self.attrs:
                child["attrs"] = self.attrs
            self.children.append(child)


#: Shared no-op span handed out while nothing would record it.
_NO_SPAN = contextlib.nullcontext()


def span(name: str, **attrs):
    """A timed region: ``with obs.span("dbt.translate", guest=pc): ...``.

    Returns a shared no-op context manager while no registry is
    installed and no traced run is collecting, so call sites never
    need their own guard.
    """
    registry = get_registry()
    children = getattr(_scope, "children", None)
    if registry is None and children is None:
        return _NO_SPAN
    return _Span(name, attrs, registry, children)


@contextlib.contextmanager
def run_spans():
    """Collect the spans the calling thread finishes inside the block.

    The campaign executor wraps each traced run in this; the yielded
    list receives one ``{"name", "t0", "dur"[, "attrs"]}`` entry per
    finished span (epoch seconds, innermost first), which
    :func:`repro.obs.traceevent.chunk_entry` turns into child spans of
    the run.
    """
    previous = getattr(_scope, "children", None)
    _scope.children = children = []
    try:
        yield children
    finally:
        _scope.children = previous


# -- snapshots across the process boundary ----------------------------------


def snapshot() -> dict:
    """Snapshot the effective registry ({} while off)."""
    registry = get_registry()
    return registry.snapshot() if registry is not None else {}


def drain_worker_snapshot() -> dict | None:
    """Snapshot-and-reset a *worker* registry; None in the parent.

    Campaign workers call this after each chunk so their telemetry
    rides the result pipe exactly once.  The parent's own registry is
    never drained — its metrics are already in the right place.
    """
    registry = get_registry()
    if registry is None or not registry.worker:
        return None
    return registry.drain()


def merge_snapshot(snap: dict | None) -> None:
    """Fold a worker drain into the effective registry (no-op if off)."""
    registry = get_registry()
    if snap is not None and registry is not None:
        registry.merge_snapshot(snap)


@contextlib.contextmanager
def session(metrics_path: str | None = None):
    """Observability for one command: install, run, export, uninstall.

    ``metrics_path`` picks the export format by suffix (``.prom``
    Prometheus text, ``.jsonl`` JSONL events, else the JSON snapshot
    ``repro stats`` reads).  Without it this is a no-op —
    observability stays off.
    """
    if metrics_path is None:
        yield None
        return
    registry = MetricsRegistry()
    install(registry)
    try:
        yield registry
    finally:
        snap = snapshot()
        uninstall()
        from repro.obs.exporters import write_metrics
        write_metrics(metrics_path, snap)
