"""Tests for the machine: translation, faulting, access paths."""

import numpy as np
import pytest

from repro.errors import AddressError, FaultLoopError, ProtectionError
from repro.hw.machine import Machine
from repro.hw.params import small_machine
from repro.prot import AccessKind, Prot

PAGE = 4096


class SimpleOS:
    """A minimal translation source / fault handler for machine tests."""

    def __init__(self, machine):
        self.machine = machine
        self.mappings = {}         # (asid, vpage) -> (ppage, prot)
        self.faults = []
        machine.translation_source = self.translate
        machine.fault_handler = self.fault

    def map(self, asid, vpage, ppage, prot=Prot.ALL):
        self.mappings[(asid, vpage)] = (ppage, prot)
        self.machine.tlb.invalidate(asid, vpage)

    def translate(self, asid, vpage):
        return self.mappings.get((asid, vpage))

    def fault(self, info):
        self.faults.append(info)
        # Resolve by granting full access to a fixed frame.
        self.map(info.asid, info.vaddr // PAGE, 7, Prot.ALL)


@pytest.fixture
def rig():
    machine = Machine(small_machine())
    return machine, SimpleOS(machine)


class TestTranslation:
    def test_mapped_read_write(self, rig):
        machine, os_ = rig
        os_.map(1, 10, 3)
        machine.write(1, 10 * PAGE + 8, 99)
        assert machine.read(1, 10 * PAGE + 8) == 99
        assert os_.faults == []

    def test_translation_cached_in_tlb(self, rig):
        machine, os_ = rig
        os_.map(1, 10, 3)
        machine.read(1, 10 * PAGE)
        machine.read(1, 10 * PAGE + 4)
        assert machine.counters.tlb_hits >= 1

    def test_fault_resolution_and_retry(self, rig):
        machine, os_ = rig
        value = machine.read(1, 20 * PAGE)    # unmapped: faults, resolves
        assert len(os_.faults) == 1
        assert os_.faults[0].access is AccessKind.READ
        assert value == 0

    def test_write_fault_on_read_only_mapping(self, rig):
        machine, os_ = rig
        os_.map(1, 10, 3, Prot.READ)
        machine.write(1, 10 * PAGE, 5)        # faults, handler grants ALL
        assert len(os_.faults) == 1
        assert os_.faults[0].access is AccessKind.WRITE

    def test_fault_loop_detected(self, rig):
        machine, os_ = rig
        machine.fault_handler = lambda info: None   # never resolves
        with pytest.raises(FaultLoopError):
            machine.read(1, 30 * PAGE)

    def test_no_handler_raises_protection_error(self, rig):
        machine, os_ = rig
        machine.fault_handler = None
        with pytest.raises(ProtectionError):
            machine.read(1, 30 * PAGE)


class TestAccessPaths:
    def test_ifetch_uses_icache(self, rig):
        machine, os_ = rig
        os_.map(1, 10, 3, Prot.READ_EXEC)
        machine.ifetch(1, 10 * PAGE)
        assert machine.counters.read_misses == 1
        machine.ifetch(1, 10 * PAGE)
        assert machine.counters.read_hits == 1

    def test_ifetch_requires_exec(self, rig):
        machine, os_ = rig
        os_.map(1, 10, 3, Prot.READ)
        machine.ifetch(1, 10 * PAGE)          # faults
        assert os_.faults and os_.faults[0].access is AccessKind.EXECUTE

    def test_page_read_write(self, rig):
        machine, os_ = rig
        os_.map(1, 10, 3)
        values = np.arange(1024, dtype=np.uint64)
        machine.write_page(1, 10 * PAGE, values)
        assert np.array_equal(machine.read_page(1, 10 * PAGE), values)

    def test_oracle_checks_cpu_reads(self, rig):
        machine, os_ = rig
        os_.map(1, 10, 3)
        machine.write(1, 10 * PAGE, 42)
        # Sabotage: change cached data behind the oracle's back.
        machine.dcache._data[:] = 0
        from repro.errors import StaleDataError
        with pytest.raises(StaleDataError):
            machine.read(1, 10 * PAGE)

    def test_write_notifier_fires_per_store(self, rig):
        machine, os_ = rig
        os_.map(1, 10, 3)
        notes = []
        machine.write_notifier = lambda asid, vpage: notes.append((asid, vpage))
        machine.write(1, 10 * PAGE, 1)
        machine.write_page(1, 10 * PAGE, np.zeros(1024, dtype=np.uint64))
        assert notes == [(1, 10), (1, 10)]


class TestBlockLengths:
    """A zero-length block charges nothing; a negative one is a typed
    error raised before any translation."""

    @staticmethod
    def counting(machine, os_):
        calls = []
        machine.translation_source = (
            lambda asid, vpage: calls.append(vpage) or os_.translate(asid,
                                                                     vpage))
        machine.write_notifier = lambda asid, vpage: calls.append(vpage)
        return calls

    def test_zero_length_block_charges_nothing(self, rig):
        machine, os_ = rig
        calls = self.counting(machine, os_)
        before = (machine.clock.cycles, machine.counters.snapshot())
        got = machine.read_block(1, 10 * PAGE, 0)
        machine.write_block(1, 10 * PAGE, [])
        assert got.dtype == np.uint64 and got.shape == (0,)
        assert (machine.clock.cycles, machine.counters.snapshot()) == before
        assert calls == [] and os_.faults == [] and len(machine.tlb._map) == 0

    def test_negative_length_block_is_an_address_error(self, rig):
        machine, os_ = rig
        calls = self.counting(machine, os_)
        with pytest.raises(AddressError, match="non-negative"):
            machine.read_block(1, 10 * PAGE, -1)
        assert machine.clock.cycles == 0
        assert machine.counters.tlb_hits == machine.counters.tlb_misses == 0
        assert calls == [] and os_.faults == []


class TestTimeAccounting:
    def test_consume_advances_clock(self, rig):
        machine, os_ = rig
        machine.consume(1000)
        assert machine.clock.cycles >= 1000

    def test_elapsed_seconds(self, rig):
        machine, os_ = rig
        machine.consume(50_000_000)
        assert machine.elapsed_seconds >= 1.0

    def test_aliased_writes_share_page_offset_constraint(self, rig):
        machine, os_ = rig
        # Two unaligned virtual pages onto one frame: the machine handles
        # it (the *correctness* is the OS's job; here only mechanics).
        os_.map(1, 10, 3)
        os_.map(1, 11, 3)
        machine.write(1, 10 * PAGE, 5)
        machine.write(1, 11 * PAGE + 4, 6)
        assert machine.read(1, 10 * PAGE) == 5
