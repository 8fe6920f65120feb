"""Executor trace sidecar: deterministic spans across worker counts,
journal byte-identity preserved, resume continues the original trace."""

import pytest

from repro.faults import (CampaignExecutor, PipelineConfig,
                          generate_category_faults)
from repro.obs.traceevent import (TraceContext, read_entries,
                                  to_chrome_trace, trace_sidecar_path,
                                  validate_chrome_trace)
from repro.workloads import suite as workload_suite


@pytest.fixture(scope="module")
def gap():
    return workload_suite.load("254.gap", "test")


@pytest.fixture(scope="module")
def specs(gap):
    faults = generate_category_faults(gap, per_category=6, seed=11)
    return [spec for chunk in faults.by_category.values()
            for spec in chunk]


def _run(gap, specs, tmp_path, jobs, trace, name="j"):
    journal = str(tmp_path / f"{name}.jsonl")
    executor = CampaignExecutor(gap, PipelineConfig("dbt", "rcf"),
                                jobs=jobs, chunk_size=5,
                                journal=journal, trace=trace)
    records = executor.run_specs(specs)
    return journal, records


def _span_ids(sidecar):
    entries = read_entries(sidecar)
    top = {e["span_id"] for e in entries}
    runs = {run["span_id"] for e in entries
            for run in e.get("runs", ())}
    return top, runs


def _child_ids(sidecar):
    """run span id -> its child spans' (name, span id), in order."""
    return {run["span_id"]: [(child["name"], child["span_id"])
                             for child in run.get("spans", ())]
            for entry in read_entries(sidecar)
            for run in entry.get("runs", ())}


#: A sidecar as campaigns wrote it before runs carried child spans.
_OLD_SIDECAR = """\
{"index": 0, "parent_span": "50e26a3ff10d55b1", "pid": 20879, "runs": [\
{"dur": 0.005194664001464844, "i": 0, "outcome": "detected_signature", \
"span_id": "2e6e5b28f0b8c6db", "t0": 1792295746.0296693}, \
{"dur": 0.0020248889923095703, "i": 1, "outcome": "detected_hardware", \
"span_id": "f03febdba4003ba3", "t0": 1792295746.034869}], \
"span_id": "26e2b625b1b74cb7", "t0": 1792295746.0296679, \
"t1": 1792295746.0368981, "trace_id": "64ac0f1df07614c8", "type": "chunk"}
{"kind": "inject", "name": "vprog.s", "parent_span": null, "pid": 20879, \
"span_id": "50e26a3ff10d55b1", "t0": 1792295746.0263193, \
"t1": 1792295746.0375996, "trace_id": "64ac0f1df07614c8", "type": "job"}
"""


class TestSidecar:
    def test_serial_equals_parallel_span_ids(self, gap, specs,
                                             tmp_path):
        trace = TraceContext.root("trace-x")
        serial_journal, serial_records = _run(
            gap, specs, tmp_path, jobs=1, trace=trace, name="s")
        parallel_journal, parallel_records = _run(
            gap, specs, tmp_path, jobs=3, trace=trace, name="p")
        assert serial_records == parallel_records
        assert _span_ids(trace_sidecar_path(serial_journal)) == \
            _span_ids(trace_sidecar_path(parallel_journal))

    def test_sidecar_entries_form_valid_trace(self, gap, specs,
                                              tmp_path):
        trace = TraceContext.root("trace-v")
        journal, _ = _run(gap, specs, tmp_path, jobs=2, trace=trace)
        entries = read_entries(trace_sidecar_path(journal))
        assert entries, "chunks must be traced"
        assert all(e["type"] == "chunk" for e in entries)
        assert all(e["parent_span"] == trace.span_id for e in entries)
        # run count across chunks covers every spec exactly once
        indices = sorted(run["i"] for e in entries
                         for run in e["runs"])
        assert indices == list(range(len(specs)))
        trace_dict = to_chrome_trace(entries)
        assert validate_chrome_trace(trace_dict) == []

    def test_journal_bytes_unaffected_by_tracing(self, gap, specs,
                                                 tmp_path):
        plain, _ = _run(gap, specs, tmp_path, jobs=1, trace=None,
                        name="plain")
        traced, _ = _run(gap, specs, tmp_path, jobs=1,
                         trace=TraceContext.root("t"), name="traced")
        with open(plain, "rb") as a, open(traced, "rb") as b:
            assert a.read() == b.read()

    def test_no_trace_no_sidecar(self, gap, specs, tmp_path):
        journal, _ = _run(gap, specs, tmp_path, jobs=1, trace=None,
                          name="quiet")
        import os
        assert not os.path.exists(trace_sidecar_path(journal))

    def test_resume_continues_original_trace(self, gap, specs,
                                             tmp_path):
        trace = TraceContext.root("trace-r")
        journal = str(tmp_path / "r.jsonl")
        # First leg: only the first chunk's worth of specs.
        first = CampaignExecutor(gap, PipelineConfig("dbt", "rcf"),
                                 jobs=1, chunk_size=5,
                                 journal=journal, trace=trace)
        first.run_specs(specs[:5])
        sidecar = trace_sidecar_path(journal)
        leg_one = read_entries(sidecar)
        assert [e["index"] for e in leg_one] == [0]
        # Second leg: the full spec list, resuming; chunk 0 replays
        # from the journal and must NOT be re-traced.
        second = CampaignExecutor(gap, PipelineConfig("dbt", "rcf"),
                                  jobs=1, chunk_size=5,
                                  journal=journal, resume=True,
                                  trace=trace)
        records = second.run_specs(specs)
        assert len(records) == len(specs)
        entries = read_entries(sidecar)
        assert sorted(e["index"] for e in entries) == \
            sorted(range((len(specs) + 4) // 5))
        assert len(entries) == len({e["index"] for e in entries})
        assert all(e["trace_id"] == trace.trace_id for e in entries)
        trace_dict = to_chrome_trace(entries)
        assert validate_chrome_trace(trace_dict) == []

    def test_run_child_ids_equal_serial_parallel_resumed(self, gap, specs,
                                                         tmp_path):
        trace = TraceContext.root("trace-c")
        serial, _ = _run(gap, specs, tmp_path, jobs=1, trace=trace,
                         name="cs")
        parallel, _ = _run(gap, specs, tmp_path, jobs=2, trace=trace,
                           name="cp")
        resumed = str(tmp_path / "cr.jsonl")
        for leg in (specs[:10], specs):
            CampaignExecutor(gap, PipelineConfig("dbt", "rcf"), jobs=2,
                             chunk_size=5, journal=resumed,
                             resume=leg is specs,
                             trace=trace).run_specs(leg)
        children = _child_ids(trace_sidecar_path(serial))
        assert len(children) == len(specs)
        assert all([name for name, _ in kids].count("dbt.run") == 1
                   for kids in children.values())
        assert _child_ids(trace_sidecar_path(parallel)) == children
        assert _child_ids(trace_sidecar_path(resumed)) == children

    def test_sidecar_without_run_children_still_exports(self, tmp_path):
        sidecar = tmp_path / "old.jsonl.trace.jsonl"
        sidecar.write_text(_OLD_SIDECAR)
        trace_dict = to_chrome_trace(read_entries(str(sidecar)))
        assert validate_chrome_trace(trace_dict) == []
        cats = sorted(event["cat"] for event in trace_dict["traceEvents"]
                      if event["ph"] == "X")
        assert cats == ["chunk", "job", "run", "run"]
