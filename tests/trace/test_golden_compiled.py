"""Golden-trace regression for one compiled run.

The compiler's output for latex-paper at the golden scale is pinned —
op-stream bytes, value stream, sidecar, clock window and end counters —
to ``tests/golden/latex-paper-compiled.json``.  A change to the recorder
(a new op, a reordered SYNC, a different run split) shows up here as a
digest diff even when replay still verifies, which is the point: the
artifact format is a contract with previously-written traces, not just
with this build's replayer.

Payload values drawn by user processes come from process-global counters
(task names, write tokens), so the compile runs under a counter reset to
be independent of whatever tests ran earlier in the process.

Regenerate after an *intended* compiler change with::

    PYTHONPATH=src python tests/trace/test_golden_compiled.py --regenerate
"""

import hashlib
import itertools
import json
import pathlib
import sys

if __name__ == "__main__":                       # --regenerate entry point
    sys.path.insert(0, str(pathlib.Path(__file__).resolve()
                           .parent.parent.parent / "src"))

import repro.kernel.process as process_mod
from repro.analysis.experiments import make_workload
from repro.kernel.task import Task
from repro.policy import get_policy
from repro.trace import compile_workload, replay_trace

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent.parent / "golden"
               / "latex-paper-compiled.json")
GOLDEN_WORKLOAD = "latex-paper"
GOLDEN_SCALE = 0.25
GOLDEN_POLICY = "F"


def compile_golden_run():
    """Compile the pinned run in a process-history-independent context."""
    names, tokens = Task._names, process_mod._token_counter
    Task._names = itertools.count(1)
    process_mod._token_counter = itertools.count(0x1000)
    try:
        return compile_workload(make_workload(GOLDEN_WORKLOAD, GOLDEN_SCALE),
                                get_policy(GOLDEN_POLICY))
    finally:
        Task._names, process_mod._token_counter = names, tokens


def summarize(trace) -> dict:
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    return {
        "workload": GOLDEN_WORKLOAD,
        "scale": GOLDEN_SCALE,
        "policy": GOLDEN_POLICY,
        "n_ops": int(len(trace.ops)),
        "n_values": int(len(trace.values)),
        "n_sidecar": len(trace.sidecar),
        "ops_sha256": sha(trace.ops.tobytes()),
        "values_sha256": sha(trace.values.tobytes()),
        "sidecar_sha256": sha(json.dumps(
            trace.sidecar, sort_keys=True,
            separators=(",", ":")).encode("utf-8")),
        "cycles": trace.end_clock - trace.start_clock,
        "end_counters": trace.end_counters,
    }


def test_compiled_run_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    trace = compile_golden_run()
    actual = summarize(trace)
    for key in golden:
        assert actual[key] == golden[key], (
            f"compiled {key} diverged from the golden run — if the "
            f"compiler change is intended, regenerate with "
            f"`PYTHONPATH=src python {__file__} --regenerate`")
    assert replay_trace(trace).equivalent


if __name__ == "__main__":
    if "--regenerate" not in sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    summary = summarize(compile_golden_run())
    GOLDEN_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")
