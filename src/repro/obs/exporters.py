"""Exporters: Prometheus text, JSONL events, and the stats report.

Every exporter consumes the plain-dict *snapshot* form produced by
:func:`repro.obs.snapshot` (spans are its ``span_seconds`` histogram),
so the same code serves a live registry, a worker drain, and a snapshot
file loaded back from disk by ``repro stats``.

Formats
-------
``prometheus_text``  the text exposition format (``# TYPE``/``# HELP``
                     headers, cumulative ``_bucket{le=...}`` series)
``jsonl_text``       one JSON object per instrument line — the
                     campaign journal's shape, easy to ``grep``/``jq``
``render_stats``     the human report: counters, gauges, histogram
                     percentiles (p50/p90/p99) as fixed-width tables
                     via ``analysis.report``
"""

from __future__ import annotations

import json

from repro.analysis.report import format_table
from repro.obs.metrics import Histogram, bucket_upper_bound


def escape_label_value(value) -> str:
    """Escape a label value per the Prometheus exposition format:
    backslash, double quote and newline must be backslash-escaped or
    the line is unparseable."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_suffix(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{escape_label_value(value)}"'
                    for key, value in sorted(labels.items()))
    return "{" + body + "}"


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def prometheus_text(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: list[str] = []
    typed: set[str] = set()

    def header(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", ()):
        header(entry["name"], "counter")
        lines.append(f"{entry['name']}"
                     f"{_label_suffix(entry.get('labels', {}))} "
                     f"{_format_value(entry['value'])}")
    for entry in snapshot.get("gauges", ()):
        header(entry["name"], "gauge")
        lines.append(f"{entry['name']}"
                     f"{_label_suffix(entry.get('labels', {}))} "
                     f"{_format_value(entry['value'])}")
    for entry in snapshot.get("histograms", ()):
        name = entry["name"]
        header(name, "histogram")
        labels = entry.get("labels", {})
        cumulative = 0
        for index, count in entry.get("buckets", ()):
            cumulative += count
            bucket_labels = dict(labels)
            bucket_labels["le"] = _format_value(
                bucket_upper_bound(index))
            lines.append(f"{name}_bucket{_label_suffix(bucket_labels)} "
                         f"{cumulative}")
        inf_labels = dict(labels)
        inf_labels["le"] = "+Inf"
        lines.append(f"{name}_bucket{_label_suffix(inf_labels)} "
                     f"{entry['count']}")
        lines.append(f"{name}_sum{_label_suffix(labels)} "
                     f"{_format_value(entry['sum'])}")
        lines.append(f"{name}_count{_label_suffix(labels)} "
                     f"{entry['count']}")
    return "\n".join(lines) + "\n"


def jsonl_text(snapshot: dict) -> str:
    """One JSON object per line, one line per instrument."""
    lines = []
    for kind in ("counters", "gauges", "histograms"):
        for entry in snapshot.get(kind, ()):
            record = {"type": kind[:-1]}
            record.update(entry)
            lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n" if lines else ""


def _labels_text(labels: dict) -> str:
    return ",".join(f"{key}={value}"
                    for key, value in sorted(labels.items())) or "-"


def _snapshot_histogram(entry: dict) -> Histogram:
    histogram = Histogram(entry["name"])
    histogram.merge_state(entry["count"], entry["sum"],
                          entry.get("buckets", ()))
    return histogram


#: Histogram names carrying the Section-6 detection-latency story,
#: rendered as their own ``repro stats`` section broken out by policy.
_LATENCY_HISTOGRAMS = (
    ("campaign_detection_latency_instructions", "instructions"),
    ("campaign_detection_latency_cycles", "cycles"),
)


def _latency_section(histograms: list) -> str | None:
    """Detection-latency percentiles by policy label (Figure-12-style:
    the sparser the checking policy, the longer the report delay)."""
    rows = []
    for name, unit in _LATENCY_HISTOGRAMS:
        entries = [e for e in histograms if e["name"] == name]
        entries.sort(key=lambda e: e.get("labels", {}).get("policy", ""))
        for entry in entries:
            histogram = _snapshot_histogram(entry)
            policy = entry.get("labels", {}).get("policy", "-")
            rows.append([policy, unit, entry["count"],
                         histogram.percentile(0.50),
                         histogram.percentile(0.90),
                         histogram.percentile(0.99)])
    if not rows:
        return None
    return format_table(
        ["policy", "unit", "detections", "p50", "p90", "p99"], rows,
        title="Detection latency (fault application -> error report)")


#: Rollback/re-execution cost histograms, broken out by policy in the
#: recovery section (sparser checking -> later detection -> longer
#: rollback distance).
_RECOVERY_HISTOGRAMS = (
    ("campaign_rollback_distance_instructions", "instructions"),
    ("campaign_reexec_cycles", "cycles"),
)


def _recovery_section(snapshot: dict) -> str | None:
    """Checkpoint/rollback recovery report (see docs/recovery.md):
    success rate by technique x policy, rollback-distance and
    re-execution percentiles, and checkpoint capture overhead."""
    counters = snapshot.get("counters", [])
    histograms = snapshot.get("histograms", [])
    tallies: dict = {}
    for entry in counters:
        if entry["name"] != "campaign_recovery_total":
            continue
        labels = entry.get("labels", {})
        key = (labels.get("technique", "-"), labels.get("policy", "-"))
        bucket = tallies.setdefault(key, {"recovered": 0, "failed": 0})
        bucket[labels.get("result", "failed")] += entry["value"]
    parts: list[str] = []
    if tallies:
        rows = []
        for (technique, policy), bucket in sorted(tallies.items()):
            total = bucket["recovered"] + bucket["failed"]
            rate = bucket["recovered"] / total if total else 0.0
            rows.append([technique, policy, bucket["recovered"],
                         bucket["failed"], f"{rate:.1%}"])
        parts.append(format_table(
            ["technique", "policy", "recovered", "failed", "success"],
            rows, title="Recovery outcomes (detections survived)"))
    rows = []
    for name, unit in _RECOVERY_HISTOGRAMS:
        entries = [e for e in histograms if e["name"] == name]
        entries.sort(key=lambda e: e.get("labels", {}).get("policy", ""))
        for entry in entries:
            histogram = _snapshot_histogram(entry)
            policy = entry.get("labels", {}).get("policy", "-")
            rows.append([policy, unit, entry["count"],
                         histogram.percentile(0.50),
                         histogram.percentile(0.90),
                         histogram.percentile(0.99)])
    if rows:
        parts.append(format_table(
            ["policy", "unit", "rollbacks", "p50", "p90", "p99"], rows,
            title="Rollback distance / re-execution cost"))
    totals = {e["name"]: e["value"] for e in counters
              if e["name"].startswith("recovery_")}
    captured = totals.get("recovery_checkpoints_total", 0)
    if captured:
        seconds = totals.get("recovery_capture_seconds_total", 0.0)
        pages = totals.get("recovery_pages_preserved_total", 0)
        parts.append(
            f"Checkpoint capture: {captured:.0f} checkpoint(s), "
            f"{pages:.0f} pre-image page(s), "
            f"{seconds * 1e6 / captured:.1f} us/capture "
            f"({seconds:.4f}s total)")
    if not parts:
        return None
    return "\n\n".join(parts)


def render_stats(snapshot: dict) -> str:
    """The human ``repro stats`` report."""
    sections: list[str] = []
    counters = snapshot.get("counters", [])
    if counters:
        sections.append(format_table(
            ["counter", "labels", "value"],
            [[e["name"], _labels_text(e.get("labels", {})), e["value"]]
             for e in counters],
            title="Counters"))
    gauges = snapshot.get("gauges", [])
    if gauges:
        sections.append(format_table(
            ["gauge", "labels", "value"],
            [[e["name"], _labels_text(e.get("labels", {})), e["value"]]
             for e in gauges],
            title="Gauges"))
    histograms = snapshot.get("histograms", [])
    if histograms:
        rows = []
        for entry in histograms:
            histogram = _snapshot_histogram(entry)
            rows.append([entry["name"],
                         _labels_text(entry.get("labels", {})),
                         entry["count"], histogram.mean,
                         histogram.percentile(0.50),
                         histogram.percentile(0.90),
                         histogram.percentile(0.99)])
        sections.append(format_table(
            ["histogram", "labels", "count", "mean", "p50", "p90",
             "p99"], rows, title="Histograms"))
        latency = _latency_section(histograms)
        if latency:
            sections.append(latency)
    recovery = _recovery_section(snapshot)
    if recovery:
        sections.append(recovery)
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)


def write_metrics(path: str, snapshot: dict) -> None:
    """Write a snapshot to ``path``; the suffix picks the format.

    ``.prom`` -> Prometheus text, ``.jsonl`` -> JSONL events, anything
    else -> the JSON snapshot itself (the format ``repro stats`` and
    :func:`load_snapshot` read back).
    """
    if path.endswith(".prom"):
        text = prometheus_text(snapshot)
    elif path.endswith(".jsonl"):
        text = jsonl_text(snapshot)
    else:
        text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as handle:
        handle.write(text)


def load_snapshot(path: str) -> dict:
    """Load a JSON snapshot previously written by ``write_metrics``."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path} is not a JSON metrics snapshot (use a path "
                "without .prom/.jsonl suffix with --metrics to get "
                f"one): {exc}") from None
