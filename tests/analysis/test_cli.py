"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


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
