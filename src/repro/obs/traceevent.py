"""Cross-process trace correlation and Chrome trace-event export.

A campaign is four nested layers of work in different processes: the
service job (orchestrator worker thread), the campaign chunks it fans
out (parent executor), the individual fault runs (pool worker
processes), and inside each run the :func:`repro.obs.span` regions it
finished (``dbt.run``, ``dbt.translate``, ...).  This module gives each
layer a span with a shared ``trace_id`` and a ``parent_span`` link, and
turns the recorded spans into Chrome trace-event JSON that loads
directly in Perfetto or ``chrome://tracing``.

Correlation is **deterministic**: span ids are derived by hashing
``trace_id / parent / kind / index``, so a campaign run serially, in
parallel, or resumed from its journal produces the *same* span ids
for the same chunks and runs — traces can be diffed across
executions just like the journals themselves.  A run's child spans
are keyed by name and occurrence within the run, so they match
wherever the runs did the same work.

The raw spans live in a **sidecar** JSONL file next to the campaign
journal (``<journal>.trace.jsonl``), never in the journal itself: the
journal's byte-identity contract (a service job's journal equals the
CLI run's, byte for byte) must not see wall-clock timings.  The
sidecar follows the forensics bundle's placement convention.

Chrome trace-event fields emitted (the subset Perfetto needs):
``name``, ``ph`` (``"X"`` complete events, ``"M"`` metadata), ``ts``
and ``dur`` in microseconds, ``pid``/``tid`` picking the track, and
``args`` carrying ``trace_id``/``span_id``/``parent_span``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

#: Sidecar suffix, appended to the campaign journal path.
TRACE_SUFFIX = ".trace.jsonl"


def trace_sidecar_path(journal_path: str) -> str:
    """The trace sidecar next to a campaign journal."""
    return str(journal_path) + TRACE_SUFFIX


def derive_span_id(trace_id: str, parent: str, kind: str,
                   index) -> str:
    """Deterministic 16-hex span id for one unit of work."""
    text = f"{trace_id}/{parent}/{kind}/{index}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class TraceContext:
    """A span's identity, passed down the job -> chunk -> run chain."""

    trace_id: str
    span_id: str
    parent_span: str | None = None

    @classmethod
    def root(cls, trace_id: str) -> "TraceContext":
        return cls(trace_id=trace_id,
                   span_id=derive_span_id(trace_id, "", "root", 0))

    @classmethod
    def for_campaign(cls, program_digest: str,
                     config_key) -> "TraceContext":
        """Deterministic root context for a CLI campaign: derived from
        the same (program digest, config key) identity the journal
        uses, so a resumed campaign continues its original trace."""
        trace_id = hashlib.sha256(
            f"{program_digest}/{config_key}".encode()).hexdigest()[:16]
        return cls.root(trace_id)

    def child(self, kind: str, index) -> "TraceContext":
        return TraceContext(
            trace_id=self.trace_id,
            span_id=derive_span_id(self.trace_id, self.span_id, kind,
                                   index),
            parent_span=self.span_id)

    def to_json(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_span": self.parent_span}

    @classmethod
    def from_json(cls, data: dict) -> "TraceContext":
        return cls(trace_id=data["trace_id"], span_id=data["span_id"],
                   parent_span=data.get("parent_span"))


def append_entry(path: str, entry: dict) -> None:
    """Append one span entry to a trace sidecar (atomic enough:
    single ``write`` of one line, matching the journal's discipline)."""
    line = json.dumps(entry, sort_keys=True) + "\n"
    with open(path, "a") as handle:
        handle.write(line)


def read_entries(path: str) -> list[dict]:
    """All entries of a sidecar; torn tails are skipped, not fatal."""
    entries = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except ValueError:
                continue  # torn tail (killed mid-append)
    return entries


def job_entry(ctx: TraceContext, name: str, t0: float, t1: float,
              **attrs) -> dict:
    """The top-level span: a service job or a CLI campaign."""
    entry = {"type": "job", "name": name, "t0": t0, "t1": t1,
             "pid": os.getpid(), **ctx.to_json()}
    entry.update(attrs)
    return entry


def chunk_entry(ctx: TraceContext, index: int, t0: float, t1: float,
                pid: int, runs: list[dict]) -> dict:
    """One executed chunk plus its per-run child spans.

    ``runs`` entries carry ``i`` (global spec index), ``t0`` and
    ``dur`` seconds, and optionally the run's own finished spans
    (``spans``: ``name``/``t0``/``dur``[/``attrs``]).  Run span ids
    are derived here so workers never need to know their chunk index;
    a run's k-th span of one name gets the id of kind ``name``, index
    ``k`` under the run.
    """
    chunk_ctx = ctx.child("chunk", index)
    spans = []
    for run in runs:
        run_ctx = chunk_ctx.child("run", run["i"])
        span = {"i": run["i"], "t0": run["t0"], "dur": run["dur"],
                "span_id": run_ctx.span_id}
        if "outcome" in run:
            span["outcome"] = run["outcome"]
        seen: dict[str, int] = {}
        children = []
        for child in run.get("spans", ()):
            k = seen.get(child["name"], 0)
            seen[child["name"]] = k + 1
            children.append({**child, "span_id": run_ctx.child(
                child["name"], k).span_id})
        if children:
            span["spans"] = children
        spans.append(span)
    return {"type": "chunk", "index": index, "t0": t0, "t1": t1,
            "pid": pid, "runs": spans, **chunk_ctx.to_json()}


# -- Chrome trace-event export ----------------------------------------------


def _us(seconds: float) -> int:
    return int(round(seconds * 1e6))


def _event(name: str, cat: str, t0: float, dur: float, pid: int,
           trace_id: str, span_id: str, parent_span: str | None,
           args: dict) -> dict:
    """One Chrome ``"X"`` (complete) event on process ``pid``'s track."""
    return {"name": name, "cat": cat, "ph": "X", "ts": _us(t0),
            "dur": max(1, _us(dur)), "pid": pid, "tid": 0,
            "args": {**args, "trace_id": trace_id, "span_id": span_id,
                     "parent_span": parent_span}}


def to_chrome_trace(entries: list[dict]) -> dict:
    """Sidecar entries -> Chrome trace-event JSON (dict form).

    Each process gets its own ``pid`` track; the job span sits on the
    parent process track, each chunk, its runs and their spans on the
    worker process that executed them.  Within a track, spans nest by
    ``ts``/``dur`` containment, which holds because a worker runs its
    chunks (and a chunk its runs) sequentially.
    """
    events: list[dict] = []
    pids: dict[int, str] = {}

    # A requeued job (or a resumed CLI campaign) appends a fresh span
    # line per execution attempt under the same deterministic id; the
    # last one wins so the trace carries each span exactly once.
    deduped: dict = {}
    for order, entry in enumerate(entries):
        key = entry.get("span_id")
        deduped[key if key is not None else ("raw", order)] = entry

    for entry in deduped.values():
        pid = entry.get("pid", 0)
        trace_id = entry.get("trace_id")
        if entry.get("type") == "job":
            pids.setdefault(pid, f"campaign {entry.get('name', '?')}")
            events.append(_event(
                entry.get("name", "job"), "job", entry["t0"],
                entry["t1"] - entry["t0"], pid, trace_id,
                entry["span_id"], entry.get("parent_span"),
                {key: value for key, value in entry.items()
                 if key in ("kind", "status", "job")}))
        elif entry.get("type") == "chunk":
            pids.setdefault(pid, "campaign worker")
            events.append(_event(
                f"chunk {entry['index']}", "chunk", entry["t0"],
                entry["t1"] - entry["t0"], pid, trace_id,
                entry["span_id"], entry.get("parent_span"),
                {"index": entry["index"]}))
            for run in entry.get("runs", ()):
                args = {"index": run["i"]}
                if "outcome" in run:
                    args["outcome"] = run["outcome"]
                events.append(_event(
                    f"run {run['i']}", "run", run["t0"], run["dur"], pid,
                    trace_id, run["span_id"], entry["span_id"], args))
                for child in run.get("spans", ()):
                    events.append(_event(
                        child["name"], "span", child["t0"], child["dur"],
                        pid, trace_id, child["span_id"], run["span_id"],
                        child.get("attrs", {})))
    # Widen parents over their children: a resumed campaign (or a
    # requeued service job) keeps first-attempt chunk spans in the
    # sidecar while the surviving job line only covers the final
    # attempt's window — the job span must still contain every chunk.
    by_span = {event["args"]["span_id"]: event for event in events}
    for event in events:
        child = event
        parent_id = child["args"].get("parent_span")
        while parent_id:
            parent = by_span.get(parent_id)
            if parent is None:
                break
            t0 = min(parent["ts"], child["ts"])
            t1 = max(parent["ts"] + parent["dur"],
                     child["ts"] + child["dur"])
            if t0 == parent["ts"] and t1 == parent["ts"] + parent["dur"]:
                break
            parent["ts"], parent["dur"] = t0, t1 - t0
            child = parent
            parent_id = child["args"].get("parent_span")
    metadata = [{"name": "process_name", "ph": "M", "pid": pid,
                 "tid": 0, "args": {"name": role}}
                for pid, role in sorted(pids.items())]
    return {"traceEvents": metadata + events,
            "displayTimeUnit": "ms"}


def validate_chrome_trace(trace: dict) -> list[str]:
    """Structural validation; returns a list of problems (empty = ok).

    Checks the trace-event invariants the export promises: required
    fields on every event, ids on every span, and parent/child
    nesting — every span naming a ``parent_span`` that is present in
    the trace must lie within its parent's ``[ts, ts+dur]`` interval.
    """
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    spans: dict[str, dict] = {}
    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph not in ("X", "M"):
            problems.append(f"event {i}: unexpected ph {ph!r}")
            continue
        for field_name in ("name", "pid", "tid"):
            if field_name not in event:
                problems.append(f"event {i}: missing {field_name}")
        if ph == "M":
            continue
        for field_name in ("ts", "dur"):
            if not isinstance(event.get(field_name), int):
                problems.append(
                    f"event {i}: {field_name} must be integer "
                    "microseconds")
        args = event.get("args", {})
        span_id = args.get("span_id")
        if not span_id or not args.get("trace_id"):
            problems.append(
                f"event {i} ({event.get('name')}): missing "
                "span_id/trace_id")
            continue
        if span_id in spans:
            problems.append(f"duplicate span_id {span_id}")
        spans[span_id] = event
    for span_id, event in spans.items():
        parent_id = event.get("args", {}).get("parent_span")
        if not parent_id or parent_id not in spans:
            continue
        parent = spans[parent_id]
        t0, t1 = event["ts"], event["ts"] + event["dur"]
        p0, p1 = parent["ts"], parent["ts"] + parent["dur"]
        # One-bucket slack: ts values are rounded independently.
        if t0 + 1 < p0 or t1 > p1 + 1:
            problems.append(
                f"span {span_id} ({event['name']}) "
                f"[{t0},{t1}] escapes parent "
                f"{parent_id} ({parent['name']}) [{p0},{p1}]")
    return problems


def export_chrome_trace(entries: list[dict], out_path: str) -> dict:
    """Write Chrome trace JSON; returns the trace dict."""
    trace = to_chrome_trace(entries)
    with open(out_path, "w") as handle:
        json.dump(trace, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return trace
