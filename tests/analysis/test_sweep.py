"""Tests for the parameter-sweep harness."""

import pytest

from repro.analysis.sweep import machine_with_dcache, render_sweep, run_sweep


class TestSweep:
    def test_machine_sizing(self):
        config = machine_with_dcache(64)
        assert config.dcache.size == 64 * 1024
        assert config.icache.size == 32 * 1024

    def test_sweep_produces_one_point_per_size(self):
        points = run_sweep("latex-paper", ("F",), sizes_kib=(32, 256),
                           scale=0.25)["F"]
        assert [p.dcache_kib for p in points] == [32, 256]
        for point in points:
            assert point.metrics.cycles > 0

    def test_render(self):
        points = run_sweep("latex-paper", ("F",), sizes_kib=(64,),
                           scale=0.25)
        text = render_sweep(points, "latex-paper")
        assert "64Ki" in text
        assert "latex-paper" in text

    def test_serial_sweep_runs_external_policies(self):
        points = run_sweep("afs-bench", ("rlt", "vespa"), (32,), scale=0.1)
        assert list(points) == ["rlt", "vespa"]
        for name in points:
            assert [p.dcache_kib for p in points[name]] == [32]
            assert points[name][0].metrics.cycles > 0

    def test_unknown_policy_fails_fast(self):
        with pytest.raises(KeyError, match="unknown policy 'nope'"):
            run_sweep("afs-bench", ("F", "nope"), (32,), scale=0.1)
