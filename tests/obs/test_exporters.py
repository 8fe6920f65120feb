"""Exporters: Prometheus text, JSONL, the stats report, file round-trips."""

import json

import pytest

from repro.obs.exporters import (jsonl_text, load_snapshot,
                                 prometheus_text, render_stats,
                                 write_metrics)
from repro.obs.metrics import MetricsRegistry, bucket_index


@pytest.fixture
def snapshot():
    registry = MetricsRegistry()
    registry.counter("runs_total", help="runs", outcome="sdc").inc(3)
    registry.counter("runs_total", outcome="benign").inc(7)
    registry.gauge("cache_bytes").set(4096)
    histogram = registry.histogram("translate_seconds")
    histogram.observe(0.001)
    histogram.observe(0.002)
    histogram.observe(1.5)
    spans = registry.histogram("span_seconds", span="dbt.run")
    spans.observe(0.25)
    spans.observe(0.25)
    return registry.snapshot()


class TestPrometheus:
    def test_type_headers_once_per_metric(self, snapshot):
        text = prometheus_text(snapshot)
        assert text.count("# TYPE runs_total counter") == 1
        assert "# TYPE cache_bytes gauge" in text
        assert "# TYPE translate_seconds histogram" in text

    def test_label_rendering(self, snapshot):
        text = prometheus_text(snapshot)
        assert 'runs_total{outcome="sdc"} 3' in text
        assert 'runs_total{outcome="benign"} 7' in text

    def test_histogram_series_cumulative(self, snapshot):
        text = prometheus_text(snapshot)
        assert 'translate_seconds_bucket{le="+Inf"} 3' in text
        assert "translate_seconds_sum" in text
        assert "translate_seconds_count 3" in text
        # cumulative counts never decrease down the bucket series
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in text.splitlines()
                  if line.startswith("translate_seconds_bucket")]
        assert counts == sorted(counts)

    def test_span_summary(self, snapshot):
        text = prometheus_text(snapshot)
        assert 'span_seconds_sum{span="dbt.run"} 0.5' in text
        assert 'span_seconds_count{span="dbt.run"} 2' in text

    def test_ends_with_newline(self, snapshot):
        assert prometheus_text(snapshot).endswith("\n")


class TestJsonl:
    def test_one_object_per_line_with_type(self, snapshot):
        lines = [json.loads(line)
                 for line in jsonl_text(snapshot).splitlines()]
        kinds = {line["type"] for line in lines}
        assert kinds == {"counter", "gauge", "histogram"}
        counter = next(line for line in lines
                       if line["type"] == "counter"
                       and line["labels"] == {"outcome": "sdc"})
        assert counter["value"] == 3

    def test_empty_snapshot_is_empty(self):
        assert jsonl_text({}) == ""


class TestRenderStats:
    def test_sections_present(self, snapshot):
        text = render_stats(snapshot)
        assert "Counters" in text
        assert "Gauges" in text
        assert "Histograms" in text
        # spans are rows of the span_seconds histogram, not a section
        assert "span=dbt.run" in text
        assert "Spans" not in text

    def test_histogram_percentile_columns(self, snapshot):
        text = render_stats(snapshot)
        header = next(line for line in text.splitlines()
                      if "p50" in line)
        assert "p90" in header and "p99" in header

    def test_labels_flattened(self, snapshot):
        assert "outcome=sdc" in render_stats(snapshot)

    def test_empty_snapshot_message(self):
        assert render_stats({}) == "(no metrics recorded)"


class TestFiles:
    def test_suffix_dispatch(self, tmp_path, snapshot):
        prom = tmp_path / "m.prom"
        jsonl = tmp_path / "m.jsonl"
        plain = tmp_path / "m.json"
        for path in (prom, jsonl, plain):
            write_metrics(str(path), snapshot)
        assert prom.read_text().startswith("# TYPE")
        assert json.loads(jsonl.read_text().splitlines()[0])
        assert load_snapshot(str(plain)) == snapshot

    def test_load_snapshot_rejects_non_json(self, tmp_path, snapshot):
        path = tmp_path / "m.prom"
        write_metrics(str(path), snapshot)
        with pytest.raises(ValueError, match="not a JSON"):
            load_snapshot(str(path))


def test_bucket_boundary_render_consistency():
    # the le= rendered for a bucket must be >= any value binned into it
    from repro.obs.metrics import bucket_upper_bound
    for value in (0.0001, 0.5, 1.0, 3.0, 1000.0):
        assert value <= bucket_upper_bound(bucket_index(value))


class TestLabelEscaping:
    def test_escape_label_value(self):
        from repro.obs.exporters import escape_label_value
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        assert escape_label_value("plain") == "plain"

    def test_hostile_labels_round_trip_the_exposition_format(self):
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        hostile = 'quote:" slash:\\ newline:\nend'
        registry.counter("runs_total", source=hostile).inc(2)
        text = prometheus_text(registry.snapshot())
        line = next(row for row in text.splitlines()
                    if row.startswith("runs_total{"))
        # one physical line (the newline was escaped) ...
        assert "\n" not in line
        # ... that decodes back to the original value
        body = line[line.index("{") + 1:line.rindex("}")]
        value = body.split("=", 1)[1]
        assert value.startswith('"') and value.endswith('"')
        decoded = (value[1:-1].replace("\\n", "\n")
                   .replace('\\"', '"').replace("\\\\", "\\"))
        assert decoded == hostile
