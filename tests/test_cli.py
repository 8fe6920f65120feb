"""CLI smoke tests (python -m repro ...)."""

import json

import pytest

from repro.cli import main

DEMO = """
.entry main
main:
    movi r1, 0
    movi r2, 1
loop:
    add r1, r1, r2
    addi r2, r2, 1
    cmpi r2, 11
    jl loop
    syscall 1
    movi r1, 0
    syscall 0
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.s"
    path.write_text(DEMO)
    return str(path)


class TestRun:
    def test_native(self, demo_file, capsys):
        assert main(["run", demo_file, "--pipeline", "native"]) == 0
        out = capsys.readouterr().out
        assert "55" in out and "halted" in out

    def test_dbt_with_technique(self, demo_file, capsys):
        assert main(["run", demo_file, "-t", "rcf"]) == 0
        assert "detected=False" in capsys.readouterr().out

    def test_static_pipeline(self, demo_file, capsys):
        assert main(["run", demo_file, "--pipeline", "static",
                     "-t", "cfcss"]) == 0
        assert "55" in capsys.readouterr().out

    def test_dataflow_flag(self, demo_file, capsys):
        assert main(["run", demo_file, "--dataflow"]) == 0

    def test_policy_choice(self, demo_file):
        assert main(["run", demo_file, "-t", "rcf",
                     "--policy", "end"]) == 0

    def test_output_gets_exactly_one_trailing_newline(self, tmp_path,
                                                      capsys):
        # PRINT_CHAR of "\n" used to be doubled by the unconditional
        # trailing-newline append
        src = (".entry main\nmain:\n    movi r1, 65\n    syscall 2\n"
               "    movi r1, 10\n    syscall 2\n"
               "    movi r1, 0\n    syscall 0\n")
        path = tmp_path / "newline.s"
        path.write_text(src)
        assert main(["run", str(path), "--pipeline", "native"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("A\n[")
        assert "A\n\n" not in out


class TestObservability:
    def test_run_metrics_snapshot_and_stats(self, demo_file, tmp_path,
                                            capsys):
        metrics = str(tmp_path / "metrics.json")
        assert main(["run", demo_file, "-t", "rcf",
                     "--metrics", metrics]) == 0
        capsys.readouterr()
        assert main(["stats", metrics]) == 0
        out = capsys.readouterr().out
        assert "interp_instructions_total" in out
        assert "span_seconds" in out
        assert "span=dbt.run" in out and "span=dbt.translate" in out

    def test_run_prom_export(self, demo_file, tmp_path, capsys):
        metrics = str(tmp_path / "metrics.prom")
        assert main(["run", demo_file, "-t", "rcf",
                     "--metrics", metrics]) == 0
        text = open(metrics).read()
        assert "# TYPE interp_instructions_total counter" in text

    def test_trace_export_nests_run_spans(self, demo_file, tmp_path):
        """Run spans reach the one trace: ``inject --jobs 2 --journal``
        then ``trace export`` gives job -> chunk -> run -> dbt.run, with
        the span ids of the jobs=1 campaign."""
        ids = []
        for jobs in ("1", "2"):
            journal = str(tmp_path / f"j{jobs}.jsonl")
            out = str(tmp_path / f"t{jobs}.json")
            main(["inject", demo_file, "-t", "rcf", "--branch", "loop+12",
                  "--fault", "direction", "--fault", "offset:2",
                  "--jobs", jobs, "--journal", journal])
            assert main(["trace", "export", "--journal", journal,
                         "-o", out]) == 0
            events = [event for event in json.load(open(out))[
                "traceEvents"] if event["ph"] == "X"]
            by_id = {event["args"]["span_id"]: event for event in events}

            def chain(event):
                names = [event["cat"]]
                while event["args"]["parent_span"] in by_id:
                    event = by_id[event["args"]["parent_span"]]
                    names.append(event["cat"])
                return names

            runs = [event for event in events
                    if event["name"] == "dbt.run"]
            assert len(runs) == 2
            assert all(chain(event) == ["span", "run", "chunk", "job"]
                       for event in runs)
            ids.append(sorted(by_id))
        assert ids[0] == ids[1]

    def test_no_subcommand_accepts_trace_flag(self):
        import argparse
        from repro.cli import build_parser
        commands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)).choices
        assert "--metrics" in commands["fuzz"]._option_string_actions
        for name, command in commands.items():
            assert "--trace" not in command._option_string_actions, name

    def test_coverage_parallel_metrics_merge(self, demo_file, tmp_path,
                                             capsys):
        metrics = str(tmp_path / "metrics.json")
        assert main(["coverage", demo_file, "--per-category", "2",
                     "--no-cache-level", "--jobs", "2",
                     "--metrics", metrics]) == 0
        capsys.readouterr()
        assert main(["stats", metrics]) == 0
        out = capsys.readouterr().out
        assert "campaign_runs_total" in out
        assert "campaign_chunk_seconds" in out

    def test_stats_format_variants(self, demo_file, tmp_path, capsys):
        metrics = str(tmp_path / "metrics.json")
        main(["run", demo_file, "--metrics", metrics])
        capsys.readouterr()
        assert main(["stats", metrics, "--format", "prom"]) == 0
        assert "# TYPE" in capsys.readouterr().out
        assert main(["stats", metrics, "--format", "jsonl"]) == 0
        assert '"type"' in capsys.readouterr().out

    def test_stats_rejects_non_snapshot(self, tmp_path, capsys):
        path = tmp_path / "bogus.txt"
        path.write_text("# not json\n")
        assert main(["stats", str(path)]) == 1
        assert "not a JSON" in capsys.readouterr().err

    def test_no_flags_means_observability_off(self, demo_file, capsys):
        from repro import obs
        assert main(["run", demo_file]) == 0
        assert obs.get_registry() is None


class TestDisasm:
    def test_listing(self, demo_file, capsys):
        assert main(["disasm", demo_file]) == 0
        out = capsys.readouterr().out
        assert "main:" in out and "jl" in out


class TestInject:
    def test_offset_fault_detected(self, demo_file, capsys):
        code = main(["inject", demo_file, "-t", "edgcf",
                     "--branch", "loop+12", "--occurrence", "2",
                     "--fault", "offset:0"])
        assert code == 0
        assert "detected_signature" in capsys.readouterr().out

    def test_sdc_exit_code(self, demo_file, capsys):
        code = main(["inject", demo_file,
                     "--branch", "loop+12", "--occurrence", "2",
                     "--fault", "offset:0"])
        out = capsys.readouterr().out
        assert "sdc" in out
        assert code == 2

    def test_direction_fault(self, demo_file, capsys):
        assert main(["inject", demo_file, "-t", "rcf",
                     "--branch", "loop+12", "--fault",
                     "direction"]) == 0

    def test_register_fault_with_dataflow(self, demo_file, capsys):
        code = main(["inject", demo_file, "--dataflow",
                     "--fault", "register:1,8,20"])
        assert code == 0
        assert "detected" in capsys.readouterr().out

    def test_redirect_symbolic(self, demo_file, capsys):
        assert main(["inject", demo_file, "-t", "edgcf",
                     "--branch", "loop+12", "--fault",
                     "redirect:main"]) == 0

    def test_unknown_fault_kind(self, demo_file):
        with pytest.raises(SystemExit):
            main(["inject", demo_file, "--fault", "bogus:1"])

    def test_journal_and_resume(self, demo_file, tmp_path, capsys):
        journal = str(tmp_path / "inject.jsonl")
        args = ["inject", demo_file, "-t", "edgcf",
                "--branch", "loop+12", "--occurrence", "2",
                "--fault", "offset:0", "--fault", "offset:1",
                "--journal", journal]
        assert main(args) == 0
        first = capsys.readouterr().out
        lines = open(journal).readlines()
        assert len(lines) == 2  # header + one chunk
        assert json.loads(lines[0])["header"]["backend"] == "interp"
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first
        # a resume with a different backend must be refused
        assert main(args + ["--resume", "--backend", "block"]) == 2

    def test_fault_at_a_non_branch_refused(self, demo_file):
        # the default --branch 0 lies outside the text section, and
        # "loop" holds an add: neither fault could ever fire
        with pytest.raises(SystemExit, match="no branch instruction"):
            main(["inject", demo_file, "--fault", "offset:3"])
        with pytest.raises(SystemExit, match="no branch instruction"):
            main(["inject", demo_file, "--branch", "loop",
                  "--fault", "direction"])

    def test_retries_and_timeout_flags(self, demo_file):
        assert main(["inject", demo_file, "-t", "rcf",
                     "--branch", "loop+12", "--fault", "direction",
                     "--retries", "1", "--timeout", "30"]) == 0


class TestJournalIdentity:
    """A ``--resume`` must continue the campaign the journal recorded."""

    def test_mixed_inject_resume_refused(self, demo_file, tmp_path,
                                         capsys):
        journal = tmp_path / "inject.jsonl"
        args = ["inject", demo_file, "--branch", "loop+12",
                "--fault", "offset:3", "--journal", str(journal)]
        assert main(args + ["-t", "rcf"]) == 0
        before = journal.read_bytes()
        capsys.readouterr()
        assert main(args + ["-t", "edgcf", "--recover",
                            "--resume"]) == 2
        assert "recorded by a different campaign" in \
            capsys.readouterr().err
        assert journal.read_bytes() == before

    def test_coverage_resume_with_another_seed_refused(
            self, demo_file, tmp_path, capsys):
        journal = tmp_path / "coverage.jsonl"
        args = ["coverage", demo_file, "--per-category", "2",
                "--no-cache-level", "--journal", str(journal)]
        assert main(args + ["--seed", "1"]) == 0
        before = journal.read_bytes()
        assert main(args + ["--seed", "2", "--resume"]) == 2
        assert "seed: journal=1 vs 2" in capsys.readouterr().err
        assert journal.read_bytes() == before

    def test_header_without_identity_keys_still_resumes(
            self, demo_file, tmp_path, capsys):
        journal = tmp_path / "inject.jsonl"
        args = ["inject", demo_file, "-t", "edgcf", "--branch",
                "loop+12", "--fault", "offset:0", "--fault", "flag:0",
                "--journal", str(journal)]
        assert main(args) == 0
        first = capsys.readouterr().out
        lines = journal.read_text().splitlines(keepends=True)
        entry = json.loads(lines[0])
        del entry["header"]["program"], entry["header"]["config"]
        lines[0] = json.dumps(entry, separators=(",", ":")) + "\n"
        journal.write_text("".join(lines))
        before = journal.read_bytes()
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first
        assert journal.read_bytes() == before   # chunks replayed


class TestEmptyProgram:
    @pytest.mark.parametrize("command", ["run", "coverage"])
    def test_refused_with_one_line(self, tmp_path, command):
        path = tmp_path / "empty.s"
        path.write_text(".entry main\nmain:\n")
        with pytest.raises(SystemExit, match="has no code"):
            main([command, str(path)])


class TestAnalysis:
    def test_errormodel(self, demo_file, capsys):
        assert main(["errormodel", demo_file]) == 0
        out = capsys.readouterr().out
        assert "Category A" in out and "No Error" in out

    def test_coverage(self, demo_file, capsys):
        assert main(["coverage", demo_file, "--per-category", "2",
                     "--no-cache-level"]) == 0
        assert "configuration" in capsys.readouterr().out

    def test_coverage_journal_resume(self, demo_file, tmp_path,
                                     capsys):
        journal = str(tmp_path / "coverage.jsonl")
        args = ["coverage", demo_file, "--per-category", "2",
                "--no-cache-level", "--journal", journal]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert open(journal).read().strip()
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_verify_accepts_resilience_flags(self, demo_file, capsys):
        assert main(["verify", demo_file, "-t", "edgcf",
                     "--retries", "1", "--timeout", "60"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_suite_listing(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "164.gzip" in out and "171.swim" in out
