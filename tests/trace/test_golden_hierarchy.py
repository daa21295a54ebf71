"""Golden regressions for the hierarchy matrix: one set-associative
compiled trace and one victim-cache live run.

Two artifacts are pinned, one per representative configuration:

* ``tests/golden/latex-paper-2way-compiled.json`` — digests of the
  compiled op/value/sidecar streams for latex-paper on a **2-way** L1.
  Associativity flows through the artifact's encoded geometry and replay
  reconstructs the set-associative cache through the generic cache
  methods (the interpreter's specialized instructions assume a
  direct-mapped write-back L1; see docs/trace-compiler.md), so the
  trace must still replay bit-identically.
* ``tests/golden/latex-paper-victim8-run.json`` — the measured metrics
  and victim-cache counters of a **live** run (victim/L2 geometries are
  rejected by the compiler: the artifact cannot carry lower-level fill
  costs), pinning the hierarchy's cycle accounting end to end.

Payload values drawn by user processes come from process-global counters
(task names, write tokens), so both runs execute under a counter reset to
be independent of whatever tests ran earlier in the process.

Regenerate after an *intended* change with::

    PYTHONPATH=src python tests/trace/test_golden_hierarchy.py --regenerate
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
from repro.analysis.experiments import make_workload, run_workload
from repro.analysis.sweep import machine_with_dcache
from repro.hw.params import apply_geometry
from repro.kernel.kernel import Kernel
from repro.kernel.task import Task
from repro.policy import get_policy
from repro.trace import compile_workload, replay_trace

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"
COMPILED_GOLDEN = GOLDEN_DIR / "latex-paper-2way-compiled.json"
RUN_GOLDEN = GOLDEN_DIR / "latex-paper-victim8-run.json"

WORKLOAD = "latex-paper"
SCALE = 0.25
POLICY = "F"
#: the live run uses a 32 KiB L1 — small enough that conflict evictions
#: actually recirculate through the victim cache (hits > 0).
RUN_DCACHE_KIB = 32
RUN_GEOMETRY = "victim8"


def _fresh_counters():
    class _Reset:
        def __enter__(self):
            self._saved = Task._names, process_mod._token_counter
            Task._names = itertools.count(1)
            process_mod._token_counter = itertools.count(0x1000)

        def __exit__(self, *exc):
            Task._names, process_mod._token_counter = self._saved
    return _Reset()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compile_2way_run():
    config = apply_geometry(machine_with_dcache(RUN_DCACHE_KIB), "2way")
    with _fresh_counters():
        return compile_workload(make_workload(WORKLOAD, SCALE),
                                get_policy(POLICY), config=config)


def summarize_compiled(trace) -> dict:
    return {
        "workload": WORKLOAD,
        "scale": SCALE,
        "policy": POLICY,
        "geometry": "2way",
        "dcache_kib": RUN_DCACHE_KIB,
        "n_ops": int(len(trace.ops)),
        "n_values": int(len(trace.values)),
        "n_sidecar": len(trace.sidecar),
        "ops_sha256": _sha(trace.ops.tobytes()),
        "values_sha256": _sha(trace.values.tobytes()),
        "sidecar_sha256": _sha(json.dumps(
            trace.sidecar, sort_keys=True,
            separators=(",", ":")).encode("utf-8")),
        "cycles": trace.end_clock - trace.start_clock,
        "end_counters": trace.end_counters,
    }


def run_victim8():
    config = apply_geometry(machine_with_dcache(RUN_DCACHE_KIB),
                            RUN_GEOMETRY)
    policy = get_policy(POLICY)
    with _fresh_counters():
        kernel = Kernel(policy=policy, config=config)
        metrics = run_workload(make_workload(WORKLOAD, SCALE), policy,
                               config=config, kernel=kernel)
    return metrics, kernel.machine.counters


def summarize_run(metrics, counters) -> dict:
    return {
        "workload": WORKLOAD,
        "scale": SCALE,
        "policy": POLICY,
        "geometry": RUN_GEOMETRY,
        "dcache_kib": RUN_DCACHE_KIB,
        "cycles": metrics.cycles,
        "victim_hits": counters.victim_hits,
        "victim_captures": counters.victim_captures,
        "l2_hits": counters.l2_hits,
        "l2_fills": counters.l2_fills,
        "metrics_sha256": _sha(json.dumps(
            metrics.to_dict(), sort_keys=True,
            separators=(",", ":")).encode("utf-8")),
    }


def _assert_matches(actual: dict, golden_path: pathlib.Path):
    golden = json.loads(golden_path.read_text())
    for key in golden:
        assert actual[key] == golden[key], (
            f"{key} diverged from {golden_path.name} — if the change is "
            f"intended, regenerate with "
            f"`PYTHONPATH=src python {__file__} --regenerate`")


def test_two_way_compiled_run_matches_golden():
    trace = compile_2way_run()
    _assert_matches(summarize_compiled(trace), COMPILED_GOLDEN)
    # The non-direct-mapped geometry replays through the generic cache
    # methods and must still verify bit-identically.
    result = replay_trace(trace)
    assert result.equivalent, result.mismatches
    assert result.clock == trace.end_clock


def test_victim_cache_run_matches_golden():
    metrics, counters = run_victim8()
    actual = summarize_run(metrics, counters)
    assert actual["victim_hits"] > 0          # the geometry is exercised
    _assert_matches(actual, RUN_GOLDEN)


if __name__ == "__main__":
    if "--regenerate" not in sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    summary = summarize_compiled(compile_2way_run())
    COMPILED_GOLDEN.write_text(json.dumps(summary, indent=2,
                                          sort_keys=True) + "\n")
    print(f"wrote {COMPILED_GOLDEN}")
    summary = summarize_run(*run_victim8())
    RUN_GOLDEN.write_text(json.dumps(summary, indent=2, sort_keys=True)
                          + "\n")
    print(f"wrote {RUN_GOLDEN}")
