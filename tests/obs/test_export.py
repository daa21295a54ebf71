"""Tests for the JSON / Prometheus metrics exporter."""

import dataclasses
import json

import pytest

from repro.hw.stats import Clock, Counters, FaultKind, Reason
from repro.obs.export import (PROM_PREFIX, SCALAR_FIELDS, metrics_dict,
                              parse_prometheus, to_json, to_prometheus,
                              verify_export)


@pytest.fixture
def counters():
    c = Counters()
    c.record_flush("dcache", Reason.DMA_READ, 100)
    c.record_flush("dcache", Reason.D_TO_I_COPY, 50)
    c.record_flush("icache", Reason.EXPLICIT, 10)
    c.record_purge("dcache", Reason.NEW_MAPPING, 30)
    c.record_fault(FaultKind.MAPPING, 300)
    c.record_fault(FaultKind.PROTECTION, 200)
    c.dma_writes = 4
    c.disk_retries = 2
    c.tlb_parity_recoveries = 1
    return c


@pytest.fixture
def clock():
    clock = Clock()
    clock.advance(12345)
    return clock


class TestMetricsDict:
    def test_sections(self, counters, clock):
        data = metrics_dict(counters, clock)
        assert data["counters"] == counters.snapshot()
        assert data["cycles"] == 12345
        assert data["flushes"]["dcache"]["dma-read"] == {
            "count": 1, "cycles": 100}
        assert data["purges"]["dcache"]["new-mapping"] == {
            "count": 1, "cycles": 30}
        assert data["faults"]["protection"] == {"count": 1, "cycles": 200}
        # every fault kind appears even at zero
        assert data["faults"]["consistency"] == {"count": 0, "cycles": 0}

    def test_clock_optional(self, counters):
        assert "cycles" not in metrics_dict(counters)

    def test_extra_merged(self, counters):
        data = metrics_dict(counters, extra={"workload": "afs-bench"})
        assert data["workload"] == "afs-bench"


class TestJson:
    def test_round_trips(self, counters, clock):
        data = json.loads(to_json(counters, clock))
        assert data["counters"]["disk_retries"] == 2
        assert data["cycles"] == 12345

    def test_deterministic(self, counters, clock):
        assert to_json(counters, clock) == to_json(counters, clock)


class TestPrometheus:
    def test_output_parses(self, counters, clock):
        samples = parse_prometheus(to_prometheus(counters, clock))
        assert samples[(f"{PROM_PREFIX}_cycles_total", ())] == 12345
        assert samples[(f"{PROM_PREFIX}_dma_writes_total", ())] == 4

    def test_every_scalar_field_is_a_sample(self, counters):
        samples = parse_prometheus(to_prometheus(counters))
        for field in SCALAR_FIELDS:
            assert (f"{PROM_PREFIX}_{field}_total", ()) in samples

    def test_every_counters_int_field_round_trips(self):
        # Found from the dataclass itself, not from the exported list, so
        # a counter the export misses fails here.
        counters = Counters()
        names = [f.name for f in dataclasses.fields(Counters)
                 if isinstance(getattr(counters, f.name), int)]
        for value, name in enumerate(names, start=1):
            setattr(counters, name, value)
        samples = parse_prometheus(to_prometheus(counters))
        assert {name: samples.get((f"{PROM_PREFIX}_{name}_total", ()))
                for name in names} == {name: value for value, name
                                       in enumerate(names, start=1)}
        verify_export(counters)

    def test_labeled_breakdowns(self, counters):
        samples = parse_prometheus(to_prometheus(counters))
        assert samples[(f"{PROM_PREFIX}_page_flushes_total",
                        (("cache", "dcache"), ("reason", "dma-read")))] == 1
        assert samples[(f"{PROM_PREFIX}_flush_cycles_total",
                        (("cache", "dcache"), ("reason", "dma-read")))] == 100
        assert samples[(f"{PROM_PREFIX}_purge_cycles_total",
                        (("cache", "dcache"),
                         ("reason", "new-mapping")))] == 30
        assert samples[(f"{PROM_PREFIX}_faults_total",
                        (("kind", "protection"),))] == 1

    def test_help_and_type_precede_samples(self, counters):
        lines = to_prometheus(counters).splitlines()
        seen_type = set()
        for line in lines:
            if line.startswith("# TYPE"):
                seen_type.add(line.split()[2])
            elif not line.startswith("#") and line:
                name = line.split("{")[0].split()[0]
                assert name in seen_type, f"sample before TYPE: {line}"


class TestParser:
    def test_rejects_malformed_type(self):
        with pytest.raises(ValueError, match="malformed TYPE"):
            parse_prometheus("# TYPE repro_x histogram\nrepro_x 1\n")

    def test_rejects_sample_before_type(self):
        with pytest.raises(ValueError, match="sample before TYPE"):
            parse_prometheus("repro_x 1\n")

    def test_rejects_non_integer_sample(self):
        with pytest.raises(ValueError, match="non-integer"):
            parse_prometheus(
                "# TYPE repro_x counter\nrepro_x 1.5e3\n")

    def test_rejects_unquoted_label(self):
        with pytest.raises(ValueError, match="unquoted label"):
            parse_prometheus(
                '# TYPE repro_x counter\nrepro_x{cache=dcache} 1\n')

    def test_rejects_unknown_comment(self):
        with pytest.raises(ValueError, match="unknown comment"):
            parse_prometheus("# COMMENT whatever\n")

    def test_blank_lines_ok(self):
        samples = parse_prometheus(
            "\n# HELP repro_x help\n# TYPE repro_x counter\n\nrepro_x 7\n")
        assert samples == {("repro_x", ()): 7}


class TestVerifyExport:
    def test_passes_on_synthetic_counters(self, counters, clock):
        verify_export(counters, clock)

    def test_passes_on_empty_counters(self):
        verify_export(Counters(), Clock())

    def test_passes_on_a_live_run(self):
        from repro.kernel.kernel import Kernel
        from repro.workloads.microbench import run_alias_write_loop

        kernel = Kernel()
        run_alias_write_loop(kernel, 200, aligned=False)
        verify_export(kernel.machine.counters, kernel.machine.clock)

    def test_catches_a_tampered_exporter(self, counters, clock, monkeypatch):
        # sanity: the gate actually gates — drop a section and it must trip
        import repro.obs.export as export

        real = export.metrics_dict

        def tampered(counters, clock=None, extra=None):
            data = real(counters, clock, extra)
            data["flushes"] = {}
            return data

        monkeypatch.setattr(export, "metrics_dict", tampered)
        with pytest.raises(AssertionError):
            export.verify_export(counters, clock)
