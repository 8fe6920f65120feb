"""Pinned run records: every ``Pipeline`` run path against a recorded
oracle.

A fixed fault batch runs on each pipeline (native, static, DBT), each
execution backend, with recovery off and on, on the threaded machine,
with a forensics probe, and fast-forwarded along the golden timeline.
Every ``RunRecord`` field and the digest of the journal the batch
writes must equal ``data/run_paths.json``.

Regenerate the oracle only for a change that is meant to alter
records, and say so in the change log::

    PYTHONPATH=src python tests/faults/test_run_paths.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import asdict

import pytest

from repro.faults import (CacheFaultSpec, CampaignExecutor, FaultSpec,
                          OffsetBitFault, Pipeline, PipelineConfig,
                          RegisterFaultSpec,
                          enumerate_instrumentation_branch_sites,
                          generate_category_faults)
from repro.faults.campaign import (generate_sched_faults,
                                   generate_thread_faults)
from repro.forensics.divergence import GoldenDivergenceAnalyzer
from repro.isa import assemble
from repro.workloads import BY_NAME
from repro.workloads import suite as workload_suite

ORACLE = os.path.join(os.path.dirname(__file__), "data", "run_paths.json")

# Patches ``site`` on the tenth pass of the outer loop: the DBT flushes
# its code cache mid-run, so a recovery restart after it re-primes the
# entry stub on fresh translations.
SMC_SRC = """
.entry main
main:
    movi r5, 0
    movi r6, 0
again:
    cmpi r5, 10
    jnz skip_patch
    const r1, site
    const r2, 0x21100063      ; movi r2, 99
    st r2, r1, 0
skip_patch:
    movi r7, 0
inner:
    addi r7, r7, 1
    cmpi r7, 12
    jl inner
site:
    movi r2, 1
    add r6, r6, r2
    addi r5, r5, 1
    cmpi r5, 60
    jl again
    mov r1, r6
    syscall 4
    movi r1, 0
    syscall 0
"""

TECHNIQUE = {"native": None, "static": "edgcf", "dbt": "rcf"}
SINGLE = [f"{pipeline}-{backend}-{'rec' if recover else 'plain'}"
          for pipeline in ("native", "static", "dbt")
          for backend in ("interp", "block")
          for recover in (False, True)]
THREADED = [f"mt-{pipeline}-{'rec' if recover else 'plain'}"
            for pipeline in ("native", "static")
            for recover in (False, True)]
SMC = ["smc-dbt-interp-rec", "smc-dbt-block-rec"]
CASES = SINGLE + THREADED + SMC


def _gap():
    return workload_suite.load("254.gap", "test")


def _mt_program():
    return assemble(BY_NAME["mt.counters4"].generator(
        threads=3, iters=15, spin=3), name="mt-counters")


def _single_batch(program, config):
    """Category faults plus a persistent, a register and (DBT) a
    cache-level fault."""
    faults = generate_category_faults(program, per_category=1, seed=13)
    specs = [spec for bucket in faults.by_category.values()
             for spec in bucket]
    first = specs[0]
    specs.append(FaultSpec(first.branch_pc, 2, OffsetBitFault(bit=4),
                           persistent=True))
    specs.append(RegisterFaultSpec(icount=400, reg=2, bit=3))
    if config.pipeline == "dbt":
        sites = enumerate_instrumentation_branch_sites(program, config)
        specs.append(CacheFaultSpec(sites[len(sites) // 2], 1, bit=3,
                                    force_taken=True))
    return specs


def _case(name):
    """(program, config, fault specs) of one pinned case."""
    if name.startswith("smc-"):
        _, pipeline, backend, _ = name.split("-")
        program = assemble(SMC_SRC, name="smc-loop")
        config = PipelineConfig("dbt", "rcf", backend=backend,
                                recover=True, checkpoint_interval=64)
        again = program.symbol("site") + 16          # jl again
        specs = [FaultSpec(again, 20, OffsetBitFault(bit=bit),
                           persistent=persistent)
                 for bit in (1, 3) for persistent in (False, True)]
        return program, config, specs
    if name.startswith("mt-"):
        _, pipeline, mode = name.split("-")
        program = _mt_program()
        config = PipelineConfig(pipeline, TECHNIQUE[pipeline],
                                recover=mode == "rec",
                                checkpoint_interval=64, threads=True,
                                quantum=97, sched_seed=3)
        specs = generate_thread_faults(program, config, tids=[1, 2],
                                       per_thread=2, seed=5)
        specs += generate_sched_faults(count=4, seed=5, threads=3)
        return program, config, specs
    pipeline, backend, mode = name.split("-")
    program = _gap()
    config = PipelineConfig(pipeline, TECHNIQUE[pipeline],
                            backend=backend, recover=mode == "rec",
                            checkpoint_interval=64)
    return program, config, _single_batch(program, config)


def _record_json(record) -> dict:
    data = asdict(record)
    data["outcome"] = record.outcome.value
    data["outputs"] = [list(part) for part in record.outputs]
    return data


def collect(name, tmp_dir) -> dict:
    """Records of one case's batch and the digest of its journal."""
    program, config, specs = _case(name)
    journal = os.path.join(tmp_dir, f"{name}.jsonl")
    records = CampaignExecutor(program, config, jobs=1,
                               journal=journal).run_specs(specs)
    with open(journal, "rb") as handle:
        body = handle.read()
    return {"records": [_record_json(record) for record in records],
            "journal_lines": body.count(b"\n"),
            "journal_sha256": hashlib.sha256(body).hexdigest()}


def collect_probe() -> dict:
    """A forensics-probed DBT run with recovery, and a probed static
    run: the record plus what the probe saw."""
    program = _gap()
    out = {}
    for label, config in (
            ("dbt-rec", PipelineConfig("dbt", "rcf", recover=True,
                                       checkpoint_interval=64)),
            ("static", PipelineConfig("static", "edgcf"))):
        spec = _single_batch(program, config)[0]
        divergence = GoldenDivergenceAnalyzer(program, config).analyze(
            spec)
        out[label] = divergence.to_json()
    return out


def collect_forwarded() -> dict:
    """A DBT run started from a golden-timeline mark."""
    program = _gap()
    config = PipelineConfig("dbt", "rcf", backend="block")
    pipeline = Pipeline(program, config)
    faults = generate_category_faults(program, per_category=2, seed=13)
    spec = max((spec for bucket in faults.by_category.values()
                for spec in bucket), key=lambda spec: spec.occurrence)
    record = pipeline.run(spec)
    assert pipeline._timeline.start_for(
        spec, pipeline.golden.step_budget) is not None
    return _record_json(record)


def collect_all(tmp_dir) -> dict:
    oracle = {name: collect(name, tmp_dir) for name in CASES}
    oracle["probe"] = collect_probe()
    oracle["forwarded"] = collect_forwarded()
    return oracle


@pytest.fixture(scope="module")
def oracle():
    with open(ORACLE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", CASES)
def test_batch_records_and_journal(name, oracle, tmp_path):
    got = collect(name, str(tmp_path))
    want = oracle[name]
    assert got["records"] == want["records"]
    assert got["journal_lines"] == want["journal_lines"]
    assert got["journal_sha256"] == want["journal_sha256"]


def test_probed_runs(oracle):
    assert json.loads(json.dumps(collect_probe())) == oracle["probe"]


def test_forwarded_run(oracle):
    assert collect_forwarded() == oracle["forwarded"]


def test_batches_exercise_every_outcome_path(oracle):
    """The oracle is only worth its name if the batches detect, recover
    and fail recovery somewhere, and measure latency."""
    outcomes = {record["outcome"] for name in CASES
                for record in oracle[name]["records"]}
    assert {"detected_signature", "detected_hardware", "benign",
            "recovered"} <= outcomes
    assert any(record["detection_latency"] is not None
               for name in CASES for record in oracle[name]["records"])
    assert any(record["attempts"] > 1 for name in SMC
               for record in oracle[name]["records"])


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        data = collect_all(tmp)
    os.makedirs(os.path.dirname(ORACLE), exist_ok=True)
    with open(ORACLE, "w") as handle:
        handle.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: {json.dumps(data[name], sort_keys=True)}"
            for name in sorted(data)) + "\n}\n")
    print(f"wrote {ORACLE}", file=sys.stderr)
