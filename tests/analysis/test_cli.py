"""Tests for the command-line interface."""

import json

import pytest

import repro.analysis.experiments
import repro.cli
import repro.faults.harness
import repro.trace.record
from repro.cli import build_parser, main
from repro.errors import StaleDataError
from repro.trace.format import MAGIC


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("table1", "table2", "table4", "table5", "micro",
                        "run", "chaos", "conform", "sweep", "farm",
                        "trace", "metrics", "profile", "all"):
            extra = (["latex-paper"] if command in ("run", "profile")
                     else ["events", "latex-paper"] if command == "trace"
                     else ["stats"] if command == "farm" else [])
            args = parser.parse_args([command] + extra)
            assert args.command == command

    def test_farm_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--sizes", "32,64", "--jobs", "4",
             "--cache-dir", "/tmp/c", "--no-cache",
             "--timeout", "30", "--trace-events", "ev.jsonl"])
        assert (args.jobs, args.cache_dir, args.no_cache) == \
               (4, "/tmp/c", True)
        assert args.timeout == 30.0 and args.trace_events == "ev.jsonl"

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nonesuch"])

    @pytest.mark.parametrize("argv", [
        ["trace", "replay", "a.trace", "--diff", "g.jsonl"],
        ["trace", "events", "latex-paper", "--inject", "p"],
        ["trace", "events", "latex-paper", "--events-out", "e.jsonl"],
        ["trace", "compile", "afs-bench", "--out", "a", "--diff", "g"],
        ["trace", "compile", "afs-bench"],          # --out is required
        ["trace", "latex-paper"],                   # no mode given
    ])
    def test_trace_flag_for_another_mode_is_an_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err


class TestCommands:
    def test_trace_compile_then_replay(self, tmp_path, capsys):
        artifact = str(tmp_path / "a.trace")
        assert main(["trace", "compile", "latex-paper", "--scale", "0.1",
                     "--out", artifact]) == 0
        assert main(["trace", "replay", artifact]) == 0
        assert "equivalent: true" in capsys.readouterr().out

    def test_table2_prints_the_transition_table(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "CPU-read" in out and "-(flush)->" in out

    def test_micro(self, capsys):
        assert main(["micro", "--iterations", "500"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out

    def test_run_reports_counters(self, capsys):
        assert main(["run", "latex-paper", "--policy", "A",
                     "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "consistency faults" in out
        assert "configuration A" in out

    def test_run_accepts_table5_system_names(self, capsys):
        assert main(["run", "latex-paper", "--policy", "Tut",
                     "--scale", "0.25"]) == 0
        assert "Tut" in capsys.readouterr().out

    def test_table1_small_scale(self, capsys):
        assert main(["table1", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "afs-bench" in out and "kernel-build" in out

    def test_table4_single_workload(self, capsys):
        assert main(["table4", "--scale", "0.25",
                     "--workload", "latex-paper"]) == 0
        out = capsys.readouterr().out
        assert "latex-paper" in out
        assert "overhead" in out

    def test_table5(self, capsys):
        assert main(["table5", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "CMU" in out and "Sun" in out

    def test_table4_chart_flag(self, capsys):
        assert main(["table4", "--scale", "0.25",
                     "--workload", "latex-paper", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "(F = flushes, P = purges)" in out

    def test_run_conform_reports_the_shadow(self, capsys):
        assert main(["run", "latex-paper", "--scale", "0.25",
                     "--conform"]) == 0
        out = capsys.readouterr().out
        assert "conformance:" in out
        assert "no divergences" in out

    def test_conform_sweep_prints_coverage_and_verdict(self, capsys):
        assert main(["conform", "--sequences", "40"]) == 0
        out = capsys.readouterr().out
        assert "arc coverage:" in out
        assert "verdict: conforms to the Table 2 model" in out
        for name in ("afs-bench", "latex-paper", "kernel-build"):
            assert name in out

    def test_conform_mutant_demonstrates_detection(self, capsys):
        assert main(["conform", "--mutant", "skip-dma-read-flush",
                     "--sequences", "20"]) == 0
        out = capsys.readouterr().out
        assert "detected" in out
        assert "shrunk" in out


class TestObservabilityCommands:
    def test_metrics_json(self, capsys):
        assert main(["metrics", "--iterations", "500"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "counters" in data and "flushes" in data
        assert data["cycles"] > 0

    def test_metrics_prom_parses(self, capsys):
        from repro.obs import parse_prometheus

        assert main(["metrics", "--format", "prom",
                     "--iterations", "500"]) == 0
        samples = parse_prometheus(capsys.readouterr().out)
        assert samples[("repro_cycles_total", ())] > 0
        assert ("repro_write_misses_total", ()) in samples

    def test_metrics_workload(self, capsys):
        assert main(["metrics", "afs-bench", "--scale", "0.1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counters"]["dma_reads"] > 0

    def test_profile(self, capsys):
        assert main(["profile", "afs-bench", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "cycle attribution: afs-bench" in out
        assert "workload:afs-bench" in out
        assert "MISMATCH" not in out

    def test_run_trace_events(self, capsys, tmp_path):
        from repro.obs import load_jsonl

        path = tmp_path / "trace.jsonl"
        assert main(["run", "latex-paper", "--scale", "0.25",
                     "--trace-events", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"trace events:" in out and str(path) in out
        events = load_jsonl(path)
        assert events, "trace file is empty"
        kinds = {e["kind"] for e in events}
        assert "fault" in kinds

    def test_run_inject_conform_trace_combined(self, capsys, tmp_path):
        """Satellite: one invocation combining --inject, --conform and
        --trace-events; the injected divergence must surface as
        attributed trace events in the JSONL."""
        from repro.obs import load_jsonl

        path = tmp_path / "trace.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["run", "afs-bench", "--scale", "0.1",
                  "--inject", "pmap.flush.drop:0.3", "--seed", "3",
                  "--conform", "--trace-events", str(path)])
        assert exc.value.code == 1          # fail-stop, as designed
        out = capsys.readouterr().out
        assert "fail-stop after 1 injections" in out
        assert "trace events:" in out
        events = load_jsonl(path)
        injections = [e for e in events if e["kind"] == "injection"]
        divergences = [e for e in events if e["kind"] == "divergence"]
        assert len(injections) == 1
        assert injections[0]["point"] == "pmap.flush.drop"
        assert divergences, "injected divergence never became an event"
        # the divergence is attributed: it names the frame and carries
        # the simulated-cycle timestamp of the moment it was detected
        assert "frame" in divergences[0]
        assert divergences[0]["cycles"] >= injections[0]["cycles"]


class TestBadInput:
    """Bad input is rejected with one line on stderr and exit status 2,
    never a traceback."""

    @staticmethod
    def one_line_error(capsys, expected):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert expected in lines[-1], err
        return lines

    def test_unknown_policy_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "afs-bench", "--policy", "nope"])
        assert excinfo.value.code == 2
        self.one_line_error(capsys, "argument --policy: unknown policy "
                                    "'nope'; valid names:")

    def test_trace_compile_rejects_an_external_policy(self, capsys,
                                                      tmp_path):
        assert main(["trace", "compile", "afs-bench", "--policy", "rlt",
                     "--out", str(tmp_path / "a.trace")]) == 2
        lines = self.one_line_error(capsys, "'rlt' is an external strategy")
        assert lines == [lines[-1]]
        assert lines[0].startswith("repro: error: ")
        assert not (tmp_path / "a.trace").exists()

    def test_trace_replay_rejects_a_non_trace(self, capsys, tmp_path):
        garbage = tmp_path / "garbage.trace"
        garbage.write_bytes(bytes(range(256)) * 4)
        assert main(["trace", "replay", str(garbage)]) == 2
        lines = self.one_line_error(capsys, "is not a trace artifact")
        assert lines == [f"repro: error: {garbage} is not a trace artifact"]

    def test_trace_replay_rejects_a_header_that_misfits_its_images(
            self, capsys, tmp_path):
        # Halving phys_pages leaves the sha256-covered payload intact, so
        # only the shape check stands between it and a numpy broadcast
        # error inside replay.
        artifact = tmp_path / "a.trace"
        assert main(["trace", "compile", "latex-paper", "--scale", "0.1",
                     "--out", str(artifact)]) == 0
        capsys.readouterr()
        blob = artifact.read_bytes()
        nl = blob.index(b"\n", len(MAGIC))
        header = json.loads(blob[len(MAGIC):nl])
        header["config"]["phys_pages"] //= 2
        artifact.write_bytes(MAGIC + json.dumps(header).encode() + blob[nl:])
        assert main(["trace", "replay", str(artifact)]) == 2
        lines = self.one_line_error(capsys, "the memory image has shape")
        assert lines == [lines[-1]]
        assert lines[0].startswith("repro: error: ")

    def test_a_simulator_failure_keeps_its_traceback(self, monkeypatch):
        # A stale read is a consistency defect, not bad input: main()
        # lets it escape instead of printing it as a usage error.
        def stale(*args, **kwargs):
            raise StaleDataError("stale word", paddr=0x40)

        monkeypatch.setattr(repro.analysis.experiments, "run_workload",
                            stale)
        with pytest.raises(StaleDataError, match="stale word"):
            main(["run", "afs-bench", "--scale", "0.01"])

    def test_trace_compile_reports_an_injected_fail_stop(self, capsys,
                                                         tmp_path):
        # The same plan fail-stops `run`; compile reports it the same
        # way and writes no artifact.
        out_path = tmp_path / "x.trace"
        argv = ["latex-paper", "--scale", "0.1",
                "--inject", "disk.read.missing"]
        reports = []
        for command in (["run"], ["trace", "compile"]):
            extra = ["--out", str(out_path)] if command != ["run"] else []
            with pytest.raises(SystemExit) as exc:
                main(command + argv + extra)
            assert exc.value.code == 1
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            reports.append(captured.out)
        assert "fail-stop after 1 injections" in reports[1]
        assert "detected: KernelError" in reports[1]
        assert reports[1] == reports[0]
        assert not out_path.exists()

    def test_trace_compile_failure_keeps_its_traceback(self, monkeypatch,
                                                       tmp_path):
        # Without an injector nothing turns a failure into a result.
        def stale(*args, **kwargs):
            raise StaleDataError("stale word", paddr=0x40)

        monkeypatch.setattr(repro.trace.record, "record_run", stale)
        with pytest.raises(StaleDataError, match="stale word"):
            main(["trace", "compile", "latex-paper", "--scale", "0.1",
                  "--out", str(tmp_path / "x.trace")])

    @pytest.mark.parametrize("plan", ["pmap.flush.drop:abc",
                                      "pmap.flush.drop:0.5:2:9"])
    def test_a_malformed_fault_plan_is_rejected_before_boot(
            self, capsys, monkeypatch, plan):
        def must_not_boot(*args, **kwargs):
            raise AssertionError("kernel booted before the plan was parsed")

        monkeypatch.setattr(repro.analysis.experiments, "Kernel",
                            must_not_boot)
        assert main(["run", "latex-paper", "--inject", plan]) == 2
        lines = self.one_line_error(capsys, f"fault plan item {plan!r}")
        assert lines == [lines[-1]]

    # A missing input file is bad input too: one line, status 2.

    def test_trace_replay_of_a_missing_file(self, capsys, tmp_path):
        missing = tmp_path / "absent.trace"
        assert main(["trace", "replay", str(missing)]) == 2
        lines = self.one_line_error(capsys, f"cannot read {missing}")
        assert lines == [lines[-1]]
        assert lines[0].startswith("repro: error: ")

    def test_trace_events_checks_the_golden_before_running(
            self, capsys, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("workload simulated before the golden "
                                 "was read")

        monkeypatch.setattr(repro.cli, "run_workload", must_not_run)
        missing = tmp_path / "absent.jsonl"
        assert main(["trace", "events", "afs-bench", "--scale", "0.01",
                     "--diff", str(missing)]) == 2
        lines = self.one_line_error(capsys, f"cannot read {missing}")
        assert lines == [lines[-1]]

    @pytest.mark.parametrize("line,message", [
        ('{"params":{}}', "a job spec must have exactly the keys 'kind' "
                          "and 'params', got 'params'"),
        ("not json", "not a JSON job spec"),
        ("[1,2]", "a job spec must be a JSON object, not list"),
        # Kinds and parameters the farm does not have are rejected before
        # any job runs, not run as something else.
        ('{"kind":"replay","params":{"trace":"a.trace"}}',
         "unknown job kind 'replay'; known: chaos, exhaustive, explore, "
         "selftest, serve, smp, workload"),
        ('{"kind":"smp","params":{"n_cpus":2,"aligned":true,'
         '"workload":"server"}}',
         "job kind 'smp' takes no parameter 'workload'"),
    ])
    def test_farm_run_of_a_malformed_spec_line(self, capsys, tmp_path, line,
                                               message):
        specs = tmp_path / "batch.jsonl"
        specs.write_text('{"kind":"selftest","params":{}}\n\n' + line + "\n")
        assert main(["farm", "run", "--specs", str(specs),
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        lines = self.one_line_error(capsys, f"{specs}:3: {message}")
        assert lines == [lines[-1]]
        assert not (tmp_path / "cache").exists()

    def test_farm_run_of_a_failing_job_runs_it_once(self, capsys,
                                                     tmp_path):
        # A job is a pure function of its spec: its exception is final,
        # and the --out record keeps the job's traceback.
        specs = tmp_path / "batch.jsonl"
        specs.write_text('{"kind":"workload","params":'
                         '{"policy":"F","scale":0.1,"workload":"nope"}}\n')
        out = tmp_path / "out.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["farm", "run", "--specs", str(specs), "--no-cache",
                  "--out", str(out)])
        assert exc.value.code == 1
        assert "exception after 1 attempts" in capsys.readouterr().out
        failure = json.loads(out.read_text())["failure"]
        assert failure["attempts"] == 1
        assert failure["traceback"].rstrip().endswith(
            "ConfigurationError: unknown workload 'nope'; known: "
            "afs-bench, kernel-build, latex-paper")

    def test_a_chaos_simulator_failure_keeps_its_traceback(self,
                                                           monkeypatch):
        # The chaos suite always runs as farm jobs; in-process, a job's
        # exception reaches main() as itself.
        def stale(*args, **kwargs):
            raise StaleDataError("stale word", paddr=0x40)

        monkeypatch.setattr(repro.faults.harness, "run_chaos", stale)
        with pytest.raises(StaleDataError, match="stale word"):
            main(["chaos", "--plans", "1", "--steps", "10"])

    def test_farm_run_of_a_missing_spec_batch(self, capsys, tmp_path):
        missing = tmp_path / "absent.jsonl"
        assert main(["farm", "run", "--specs", str(missing),
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        lines = self.one_line_error(capsys, f"cannot read {missing}")
        assert lines == [lines[-1]]
        assert not (tmp_path / "cache").exists()
