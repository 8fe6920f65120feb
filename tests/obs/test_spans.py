"""Spans: one registry histogram sample each, plus run children in a
traced campaign run; one shared no-op while neither records them."""

import json
import threading

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.traceevent import (TraceContext, chunk_entry,
                                  to_chrome_trace, validate_chrome_trace)


def span_counts(snap) -> dict:
    return {entry["labels"]["span"]: entry["count"]
            for entry in snap.get("histograms", ())
            if entry["name"] == "span_seconds"}


def traced_chunk(children) -> dict:
    """A one-run chunk line carrying ``children`` as the run's spans."""
    run = {"i": 0, "t0": children[-1]["t0"],
           "dur": children[-1]["dur"], "spans": children}
    return chunk_entry(TraceContext.root("t"), 0, run["t0"],
                       run["t0"] + run["dur"], pid=1, runs=[run])


class TestHistogram:
    def test_span_is_one_histogram_sample(self):
        registry = MetricsRegistry()
        obs.install(registry)
        for _ in range(3):
            with obs.span("unit.work", k="v"):
                pass
        histogram = registry.histogram("span_seconds", span="unit.work")
        assert histogram.count == 3
        assert histogram.sum >= 0.0

    def test_scoped_registry_gets_the_sample(self):
        registry = MetricsRegistry()
        with obs.scoped(registry):
            with obs.span("unit.scoped"):
                pass
        assert span_counts(registry.snapshot()) == {"unit.scoped": 1}


class TestAggregates:
    def test_snapshot_shape_and_order(self):
        obs.install(MetricsRegistry())
        with obs.span("zeta"):
            pass
        with obs.span("alpha"):
            pass
        snap = obs.snapshot()
        assert "spans" not in snap
        entries = [entry for entry in snap["histograms"]
                   if entry["name"] == "span_seconds"]
        assert [entry["labels"] for entry in entries] == [
            {"span": "alpha"}, {"span": "zeta"}]
        assert all(entry["count"] == 1 for entry in entries)

    def test_merge(self):
        obs.install(MetricsRegistry(worker=True))
        with obs.span("x"):
            pass
        with obs.span("y"):
            pass
        snap = obs.drain_worker_snapshot()
        parent = MetricsRegistry()
        obs.install(parent)
        with obs.span("x"):
            pass
        obs.merge_snapshot(snap)
        assert span_counts(parent.snapshot()) == {"x": 2, "y": 1}

    def test_drain_clears(self):
        worker = MetricsRegistry(worker=True)
        obs.install(worker)
        with obs.span("x"):
            pass
        assert span_counts(obs.drain_worker_snapshot()) == {"x": 1}
        assert span_counts(worker.snapshot()) == {"x": 0}

    def test_coverage_span_counts_parallel_equal_serial(self, tmp_path):
        from repro.cli import main
        from repro.faults import clear_caches
        source = tmp_path / "loop.s"
        source.write_text(
            ".entry main\nmain:\n    movi r1, 0\n    movi r2, 1\n"
            "loop:\n    add r1, r1, r2\n    addi r2, r2, 1\n"
            "    cmpi r2, 11\n    jl loop\n    syscall 1\n"
            "    movi r1, 0\n    syscall 0\n")
        counts = []
        for jobs in ("1", "2"):
            clear_caches()      # both legs profile and run goldens
            metrics = tmp_path / f"m{jobs}.json"
            assert main(["coverage", str(source), "--per-category", "2",
                         "--no-cache-level", "--jobs", jobs,
                         "--metrics", str(metrics)]) == 0
            counts.append(span_counts(json.loads(metrics.read_text())))
        assert counts[0]["dbt.run"] > 0 and counts[0]["dbt.translate"] > 0
        assert counts[0] == counts[1]


class TestNesting:
    def test_children_finish_first(self):
        with obs.run_spans() as children:
            with obs.span("a"):
                with obs.span("b"):
                    pass
        assert [child["name"] for child in children] == ["b", "a"]

    def test_attrs_recorded(self):
        with obs.run_spans() as children:
            with obs.span("translate", block=0x1000):
                pass
            with obs.span("plain"):
                pass
        assert children[0]["attrs"] == {"block": 0x1000}
        assert "attrs" not in children[1]
        events = {event["name"]: event for event in to_chrome_trace(
            [traced_chunk(children)])["traceEvents"]}
        assert events["translate"]["args"]["block"] == 0x1000

    def test_durations_nest(self):
        with obs.run_spans() as children:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        inner, outer = children
        assert outer["t0"] <= inner["t0"]
        assert inner["t0"] + inner["dur"] <= outer["t0"] + outer["dur"]

    def test_parent_child_and_depth(self):
        with obs.run_spans() as children:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
            with obs.span("inner"):
                pass
        trace = to_chrome_trace([traced_chunk(children)])
        assert validate_chrome_trace(trace) == []
        events = [event for event in trace["traceEvents"]
                  if event["ph"] == "X"]
        run = next(event for event in events if event["cat"] == "run")
        spans = [event for event in events if event["cat"] == "span"]
        # every span hangs directly off its run; ids are distinct per
        # occurrence of a name
        assert len(spans) == 3
        assert {event["args"]["parent_span"] for event in spans} == \
            {run["args"]["span_id"]}
        assert len({event["args"]["span_id"] for event in spans}) == 3


class TestRunSpans:
    def test_histogram_and_run_both_record(self):
        registry = MetricsRegistry()
        obs.install(registry)
        with obs.run_spans() as children:
            with obs.span("both"):
                pass
        assert [child["name"] for child in children] == ["both"]
        assert span_counts(registry.snapshot()) == {"both": 1}

    def test_scoped_none_silences_run_children(self):
        obs.install(MetricsRegistry())
        with obs.run_spans() as children:
            with obs.scoped(None):
                with obs.span("replay"):
                    pass
            with obs.span("kept"):
                pass
        assert [child["name"] for child in children] == ["kept"]
        assert span_counts(obs.snapshot()) == {"kept": 1}

    def test_collection_ends_with_the_block(self):
        with obs.run_spans() as children:
            pass
        with obs.span("after"):
            pass
        assert children == []

    def test_runs_are_thread_local(self):
        seen = []

        def other():
            with obs.span("elsewhere"):
                pass
            seen.append(True)

        with obs.run_spans() as children:
            thread = threading.Thread(target=other)
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == [True] and children == []


class TestSink:
    def test_jsonl_sink_streams_finished_spans(self, tmp_path):
        """The trace sidecar is the one span sink: a traced campaign's
        chunk lines carry each run's finished spans."""
        from repro.faults import CampaignExecutor, PipelineConfig
        from repro.faults.injector import FaultSpec, OffsetBitFault
        from repro.isa import assemble
        from repro.obs.traceevent import read_entries, trace_sidecar_path
        program = assemble(
            ".entry main\nmain:\n    movi r1, 0\n    movi r2, 1\n"
            "loop:\n    add r1, r1, r2\n    addi r2, r2, 1\n"
            "    cmpi r2, 11\n    jl loop\n    syscall 1\n"
            "    movi r1, 0\n    syscall 0\n")
        journal = str(tmp_path / "j.jsonl")
        spec = FaultSpec(program.symbols["loop"] + 12, 1, OffsetBitFault(2))
        CampaignExecutor(program, PipelineConfig("dbt", "rcf"),
                         journal=journal,
                         trace=TraceContext.root("sink")
                         ).run_specs([spec])
        (entry,) = read_entries(trace_sidecar_path(journal))
        (run,) = entry["runs"]
        names = [child["name"] for child in run["spans"]]
        assert names.count("dbt.run") == 1 and "dbt.translate" in names
        assert all(child["span_id"] for child in run["spans"])
        assert {child["attrs"]["program"] for child in run["spans"]
                if child["name"] == "dbt.run"} == {program.source_name}


def test_null_span_is_reusable():
    assert obs.get_registry() is None
    first, second = obs.span("a"), obs.span("b", k=1)
    assert first is second
    with first:
        with second:
            pass
