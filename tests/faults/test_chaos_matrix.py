"""The chaos slice of the entry-point cross-product: every registered
policy on every shipped geometry, on one and two CPUs, holds the
detected-or-harmless invariant with the lockstep shadow attached."""

import pytest

from repro.faults import run_chaos
from repro.faults.harness import chaos_machine
from repro.hw.params import apply_geometry
from repro.policy import all_policies

GEOMETRIES = ("", "wt", "victim8", "2way", "4way", "pi")   # "" = none
CPUS = (1, 2)
PRESETS = ("control", "mixed")
STEPS = 120


@pytest.mark.parametrize("name", [p.name for p in all_policies()])
def test_every_geometry_and_cpu_count_is_detected_or_harmless(name):
    for spec in GEOMETRIES:
        for n in CPUS:
            for preset in PRESETS:
                cell = f"{name} × {spec or 'none'} × {n} CPU × {preset}"
                report = run_chaos(
                    0, preset=preset, steps=STEPS, policy=name,
                    config=apply_geometry(chaos_machine(n_cpus=n), spec))
                assert report.ok, f"{cell}: {report.failures}"
                if preset == "control":
                    assert report.conform_divergences == 0, cell
                assert report.n_cpus == n, cell
                assert set(report.conform_per_cpu) == (
                    set() if n == 1 else {0, 1}), cell
