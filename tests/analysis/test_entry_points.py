"""Every entry point that runs a paper workload boots the same kernel.

``run_workload``, ``repro run`` with observers attached, a farm
``workload`` job and ``compile_workload`` must report the same cycles and
counters for the same policy and geometry.  kernel-build at scale 0.5
presses on the evaluation buffer cache, so a path that booted a
different buffer cache would read different cycles here.  The 2- and
4-way cells run under both policies: policy A's eager flushes put the
associative page operations and runs on the path.
"""

import functools
import re

import pytest

import repro.analysis.experiments
import repro.cli
from repro.analysis.experiments import (evaluation_machine, make_workload,
                                        run_workload)
from repro.analysis.metrics import RunMetrics, diff_metrics, snapshot_counters
from repro.cli import main
from repro.conformance import apply_mutant
from repro.errors import ConfigurationError
from repro.farm import Executor, JobSpec
from repro.hw.params import apply_geometry
from repro.obs import load_jsonl
from repro.trace import compile_workload
from repro.trace.format import decode_counters

WORKLOAD, SCALE = "kernel-build", 0.5
CELLS = [(policy, geometry) for policy in ("A", "F")
         for geometry in (None, "wt", "victim8", "2way", "4way")]


def config_for(geometry):
    config = evaluation_machine()
    return apply_geometry(config, geometry) if geometry else config


def printed_counts(out: str) -> tuple:
    """The cycles and counters ``repro run`` prints, in metrics order."""
    body = out[out.index("elapsed:"):out.index("VI-cache overhead")]
    body = re.sub(r"\d+\.\d+s", "", body)          # drop the seconds
    return tuple(int(n) for n in re.findall(r"\d+", body.split(
        "cache hierarchy:")[0]))


def metrics_counts(m: RunMetrics) -> tuple:
    return (m.cycles, m.mapping_faults.count, m.consistency_faults.count,
            m.dcache_flushes.count, m.dma_read_flushes.count,
            m.d_to_i_flushes.count, m.dcache_purges.count,
            m.new_mapping_purges.count, m.icache_purges.count,
            m.dma_reads, m.dma_writes)


@pytest.mark.parametrize("policy,geometry", CELLS)
def test_entry_points_agree(policy, geometry, tmp_path, capsys):
    config = config_for(geometry)
    reference = run_workload(make_workload(WORKLOAD, SCALE), policy,
                             config=config)

    events = tmp_path / "events.jsonl"
    argv = ["run", WORKLOAD, "--scale", str(SCALE), "--policy", policy,
            "--conform", "--trace-events", str(events)]
    assert main(argv + (["--geometry", geometry] if geometry else [])) == 0
    out = capsys.readouterr().out
    assert printed_counts(out) == metrics_counts(reference)
    assert "no divergences" in out and load_jsonl(events)

    spec = JobSpec.workload(workload=WORKLOAD, policy=policy, scale=SCALE,
                            **({"geometry": geometry} if geometry else {}))
    (outcome,) = Executor(jobs=1).run([spec])
    assert RunMetrics.from_dict(outcome.payload["metrics"]) == reference

    if config.has_hierarchy:
        with pytest.raises(ConfigurationError):
            compile_workload(make_workload(WORKLOAD, SCALE), policy,
                             config=config)
        return
    trace = compile_workload(make_workload(WORKLOAD, SCALE), policy,
                             config=config)
    compiled = diff_metrics(
        reference.config_name, WORKLOAD,
        snapshot_counters(decode_counters(trace.start_counters)),
        snapshot_counters(decode_counters(trace.end_counters)),
        trace.end_clock - trace.start_clock, config.cost)
    assert compiled == reference


@pytest.mark.parametrize("policy,config", [
    ("rlt", evaluation_machine()),
    ("F", evaluation_machine(n_cpus=2)),
])
def test_compile_rejects_what_replay_cannot_carry(policy, config):
    with pytest.raises(ConfigurationError):
        compile_workload(make_workload(WORKLOAD, SCALE), policy,
                         config=config)


def test_a_divergence_is_a_result_not_a_failure(monkeypatch, capsys):
    """With the staleness oracle off, a seeded bug reaches the lockstep
    shadow: ``run --conform`` lists the divergences and exits 1, and the
    farm job returns ``conform.ok: false`` on its first attempt."""
    unchecked = functools.partial(evaluation_machine,
                                  check_consistency=False)
    monkeypatch.setattr(repro.analysis.experiments, "evaluation_machine",
                        unchecked)
    monkeypatch.setattr(repro.cli, "evaluation_machine", unchecked)
    with apply_mutant("skip-dma-read-flush"):
        spec = JobSpec.workload(workload="latex-paper", policy="F",
                                scale=0.25, conform=True)
        (outcome,) = Executor(jobs=1).run([spec])
        with pytest.raises(SystemExit) as stopped:
            main(["run", "latex-paper", "--scale", "0.25", "--conform"])
    assert outcome.ok and outcome.attempts == 1
    shadow = outcome.payload["conform"]
    assert not shadow["ok"] and shadow["divergences"]
    assert stopped.value.code == 1
    out = capsys.readouterr().out
    assert "DIVERGENCES" in out
    assert all(divergence in out for divergence in shadow["divergences"])
