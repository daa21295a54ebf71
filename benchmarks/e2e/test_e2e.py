"""Checks of the end-to-end benchmark itself, on tiny sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import layers
import workloads
from repro.hw.cache import Cache
from repro.kernel.kernel import Kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

LATEX = (("latex-paper", "A"), ("latex-paper", "F"))
TINY = {
    "serve-read": {"users": 160},
    "serve-write": {"users": 160},
    "paper-live": {"pairs": LATEX, "rounds": 2},
    "paper-replay": {"pairs": LATEX, "rounds": 2},
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_passes_agree(name):
    plain = harness.run_pass(name, 3, False, **TINY[name])
    traced = harness.run_pass(name, 3, True, **TINY[name])
    assert plain["failed"] == traced["failed"] == 0
    assert plain["attempted"] == traced["attempted"] > 0
    assert plain["digest"] == traced["digest"]
    assert plain["sim_cycles"] == traced["sim_cycles"]
    # Exactly the layers the workload names ran.
    ran = {layer for layer, t in traced["layers"].items() if t["calls"]}
    assert ran == workloads.WORKLOADS[name].layers_run


def test_a_layer_without_calls_makes_the_run_incorrect():
    calls = {layer: 1 for layer in workloads.LIVE_LAYERS}
    record = {"failed": 0, "attempted": 1, "errors": [], "digest": "d",
              "layers": {layer: {"calls": calls.get(layer, 0)}
                         for layer in layers.LAYERS}}
    assert harness.problems_of("serve-read", 3,
                               {"untraced": [], "traced": [record]}) == []
    record["layers"]["kernel.fault"]["calls"] = 0
    record["layers"]["trace.replay"]["calls"] = 5
    problems = harness.problems_of("serve-read", 3,
                                   {"untraced": [], "traced": [record]})
    assert len(problems) == 2
    assert "kernel.fault" in problems[0] and "trace.replay" in problems[1]


def test_seed_drives_the_serve_mix():
    a = harness.run_pass("serve-read", 3, False, users=80)
    b = harness.run_pass("serve-read", 4, False, users=80)
    assert a["digest"] != b["digest"]
    assert harness.run_pass("serve-read", 3, False, users=80)["digest"] \
        == a["digest"]


def test_self_times_sum_to_the_root_window():
    timer = layers.LayerTimer().start()
    kernel = Kernel(buffer_cache_pages=8)
    timer.attach_kernel(kernel)
    task = kernel.create_task("t")
    vpage = task.allocate_anon(2)
    with timer.span("workload", kernel.machine.clock, request=0):
        task.write_block(vpage, 0, np.arange(8, dtype=np.uint64))
        task.read_block(vpage, 0, 8)
    timer.detach()
    timer.stop()
    assert sum(timer.self_ns) == timer.wall_ns
    assert timer.calls[layers.LAYERS.index("kernel.fault")] > 0
    # The kept request's spans nest under it and carry its id.
    assert timer.spans and all(s["request"] == 0 for s in timer.spans)
    ids = {s["id"] for s in timer.spans}
    assert all(s["parent"] in ids or s["name"] == "workload"
               for s in timer.spans)


def _attribute_state(kernel):
    import repro.kernel.unix_server as unix_server

    machine = kernel.machine
    owners = (kernel.unix_server, kernel.buffer_cache, kernel.disk,
              kernel.pageout, kernel.pmap, machine, machine.tlb,
              machine.dma, machine.oracle, machine.dcache, machine.icache)
    state = [dict(vars(o)) for o in owners]
    state.append(unix_server.transfer_page)
    state.append(dict(vars(Cache)))
    return state


def test_detach_restores_every_wrapped_attribute():
    kernel = Kernel()
    before = _attribute_state(kernel)
    timer = layers.LayerTimer().start()
    timer.attach_kernel(kernel)
    timer.attach_replay()
    assert _attribute_state(kernel) != before
    timer.detach()
    timer.stop()
    after = _attribute_state(kernel)
    assert len(after) == len(before)
    for a, b in zip(after, before):
        if isinstance(a, dict):
            assert a.keys() == b.keys()
            assert all(a[k] is b[k] or a[k] == b[k] for k in a)
        else:
            assert a is b


def test_a_corrupted_page_counts_as_a_failure():
    serve = workloads.ServeRead(3, users=40)
    serve.setup()
    kernel = serve.kernel
    junk = np.full(serve.wpp, 0xBAD, dtype=np.uint64)
    for name in serve.names:
        for page in range(serve.file_pages):
            # The corruption is consistent (the oracle is told), so only
            # the benchmark's own content check can catch it.
            frame = kernel.fs.read_page_frame(name, page)
            kernel.machine.memory.write_page(frame, junk)
            kernel.machine.oracle.note_page_write(
                frame * kernel.machine.page_size, junk)
    result = serve.run()
    assert result.failed > 0
    assert all(e.startswith("Mismatch") for e in result.errors)
    record = {"failed": result.failed, "attempted": result.attempted,
              "errors": result.errors, "digest": result.digest}
    assert harness.problems_of("serve-read", 3,
                               {"untraced": [record], "traced": []})


# ---- the comparison rule ----------------------------------------------------


def _noisy(center, n=10, spread=0.01):
    return [center * (1 + spread * ((i % 5) - 2) / 2) for i in range(n)]


def test_judge_improved_needs_nine_wins_and_a_gap_beyond_the_iqr():
    parent = _noisy(100.0)
    row = harness.judge(parent, _noisy(90.0), "lower", 0.05)
    assert row["verdict"] == "improved" and row["wins"] == 10
    # The same gain over fewer than ten pairs is not claimed.
    assert harness.judge(parent[:6], _noisy(90.0, 6), "lower",
                         0.05)["verdict"] == "unchanged"
    # A gap inside the parent's spread is not a gain.
    assert harness.judge(parent, _noisy(99.8), "lower",
                         0.05)["verdict"] == "unchanged"
    # Direction matters: for a higher-is-better metric, lower is worse.
    assert harness.judge(parent, _noisy(90.0), "higher",
                         0.05)["verdict"] == "regressed"


def test_judge_regressed_unchanged_and_unresolved():
    parent = _noisy(100.0)
    assert harness.judge(parent, _noisy(104.0), "lower",
                         0.05)["verdict"] == "unchanged"
    assert harness.judge(parent, _noisy(106.0), "lower",
                         0.05)["verdict"] == "regressed"
    wide = _noisy(100.0, spread=0.2)
    assert harness.judge(wide, _noisy(101.0, spread=0.2), "lower",
                         0.05)["verdict"] == "unresolved"
    # Unless every change run beats every parent run.
    assert harness.judge(wide, _noisy(70.0, spread=0.01), "lower",
                         0.05)["verdict"] == "improved"


def test_compare_pairs_sets_and_flags_invalid_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def one_set(started, correct=True):
        metrics = {m["name"]: {"value": 100.0, "unit": m["unit"]}
                   for m in spec["end_to_end"] + spec["per_layer"]}
        return {"started": started, "workloads": {
            w["name"]: {"correct": correct, "metrics": metrics}
            for w in spec["workloads"]}}

    parent = [one_set(2 * i + (i % 2)) for i in range(10)]
    change = [one_set(2 * i + 1 - (i % 2)) for i in range(10)]
    report = harness.compare(parent, change, spec)
    assert report["alternated"] and report["pairs"] == 10
    assert {r["verdict"] for r in report["rows"]} == {"unchanged"}
    change[3] = one_set(7, correct=False)
    verdicts = {r["verdict"] for r in harness.compare(parent, change,
                                                      spec)["rows"]}
    assert verdicts == {"invalid"}


def test_fails_without_the_simulator_source(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/harness.py", "--workload",
         "serve-read", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
