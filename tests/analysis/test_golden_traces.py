"""Golden-trace regression tests: the consistency event stream of each
paper workload is pinned, event for event, to an artifact under
tests/golden/.  A behaviour change that moves even one flush shows up as
a diff naming the first diverging event.

Regenerate after an *intended* change with::

    python -m repro trace events <workload> --out tests/golden/<workload>.jsonl
"""

from pathlib import Path

import pytest

from repro.analysis.experiments import (evaluation_machine, make_workload,
                                        run_workload)
from repro.analysis.trace import TraceDiff, Tracer, diff_traces
from repro.cli import main
from repro.kernel.kernel import Kernel
from repro.obs import Event, load_jsonl
from repro.vm.policy import NEW_SYSTEM

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
WORKLOAD_NAMES = ("afs-bench", "latex-paper", "kernel-build")
GOLDEN_SCALE = 0.25


def record_trace(name: str) -> Tracer:
    kernel = Kernel(policy=NEW_SYSTEM, config=evaluation_machine(),
                    buffer_cache_pages=48)
    with Tracer(kernel) as tracer:
        run_workload(make_workload(name, GOLDEN_SCALE), NEW_SYSTEM,
                     kernel=kernel)
    return tracer


class TestDiffTraces:
    E1 = {"seq": 0, "cycles": 10, "kind": "flush", "frame": 3}
    E2 = {"seq": 1, "cycles": 20, "kind": "purge", "frame": 4}

    def test_identical_traces_have_no_diff(self):
        assert diff_traces([self.E1, self.E2], [self.E1, self.E2]) is None

    def test_first_divergence_is_pinpointed(self):
        changed = dict(self.E2, frame=9)
        diff = diff_traces([self.E1, self.E2], [self.E1, changed])
        assert diff is not None
        assert diff.index == 1
        assert diff.expected["frame"] == 4
        assert diff.actual["frame"] == 9
        assert "first divergence at event 1" in diff.render()

    def test_short_trace_diverges_at_its_end(self):
        diff = diff_traces([self.E1, self.E2], [self.E1])
        assert diff == TraceDiff(1, self.E2, None)
        assert "<trace ends>" in diff.render()

    def test_long_trace_diverges_past_the_golden_end(self):
        diff = diff_traces([self.E1], [self.E1, self.E2])
        assert diff.index == 1
        assert diff.expected is None

    def test_trace_events_and_dicts_compare_interchangeably(self):
        event = Event(0, 10, "flush", {"frame": 3})
        assert diff_traces([self.E1], [event]) is None


class TestGoldenArtifacts:
    def test_goldens_exist_for_every_workload(self):
        for name in WORKLOAD_NAMES:
            assert (GOLDEN_DIR / f"{name}.jsonl").is_file()

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_matches_its_golden_trace(self, name):
        golden = load_jsonl(GOLDEN_DIR / f"{name}.jsonl")
        tracer = record_trace(name)
        diff = diff_traces(golden, tracer.events)
        assert diff is None, f"{name}: {diff.render()}"
        assert len(tracer.events) == len(golden) > 0


@pytest.mark.conform
class TestTraceCli:
    def test_diff_against_golden_matches(self, capsys):
        assert main(["trace", "events", "latex-paper",
                     "--diff", str(GOLDEN_DIR / "latex-paper.jsonl")]) == 0
        assert "trace matches" in capsys.readouterr().out

    def test_diff_mismatch_pinpoints_the_event_and_exits_nonzero(
            self, capsys):
        # A different scale produces a genuinely different run.
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "events", "latex-paper", "--scale", "0.5",
                  "--diff", str(GOLDEN_DIR / "latex-paper.jsonl")])
        assert excinfo.value.code == 1
        out = capsys.readouterr().out
        assert "DIVERGES" in out
        assert "first divergence at event" in out

    def test_out_writes_jsonl(self, tmp_path, capsys):
        out_file = tmp_path / "t.jsonl"
        assert main(["trace", "events", "latex-paper",
                     "--out", str(out_file)]) == 0
        events = load_jsonl(out_file)
        assert events and all("kind" in e for e in events)
