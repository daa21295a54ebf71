"""Tests for the staleness oracle."""

import numpy as np
import pytest

import repro.core.oracle as oracle_mod
from repro.core.oracle import ShadowMemory, Violation
from repro.errors import StaleDataError

PAGE = 4096
WPP = PAGE // 4


def make_oracle(record_only=False):
    return ShadowMemory(num_pages=4, page_size=PAGE, record_only=record_only)


class TestWordTracking:
    def test_fresh_read_of_zeroed_memory(self):
        oracle = make_oracle()
        oracle.check_cpu_read(0, 0)   # everything starts zero

    def test_write_then_correct_read(self):
        oracle = make_oracle()
        oracle.note_cpu_write(64, 42)
        oracle.check_cpu_read(64, 42)

    def test_stale_read_raises(self):
        oracle = make_oracle()
        oracle.note_cpu_write(64, 42)
        with pytest.raises(StaleDataError) as excinfo:
            oracle.check_cpu_read(64, 41)
        assert excinfo.value.paddr == 64
        assert excinfo.value.expected == 42
        assert excinfo.value.actual == 41

    def test_latest_write_wins(self):
        oracle = make_oracle()
        oracle.note_cpu_write(8, 1)
        oracle.note_cpu_write(8, 2)
        oracle.check_cpu_read(8, 2)
        with pytest.raises(StaleDataError):
            oracle.check_cpu_read(8, 1)


class TestPageTracking:
    def test_page_write_then_page_read(self):
        oracle = make_oracle()
        values = np.arange(WPP, dtype=np.uint64)
        oracle.note_page_write(PAGE, values)
        oracle.check_page_read(PAGE, values)

    def test_page_read_detects_single_stale_word(self):
        oracle = make_oracle()
        values = np.arange(WPP, dtype=np.uint64)
        oracle.note_page_write(PAGE, values)
        bad = values.copy()
        bad[17] = 9999
        with pytest.raises(StaleDataError) as excinfo:
            oracle.check_page_read(PAGE, bad)
        assert excinfo.value.paddr == PAGE + 17 * 4

    def test_page_write_updates_word_view(self):
        oracle = make_oracle()
        values = np.full(WPP, 7, dtype=np.uint64)
        oracle.note_page_write(0, values)
        oracle.check_cpu_read(12, 7)
        assert oracle.expected_page(0)[12 // 4] == 7


class TestDmaTracking:
    def test_dma_write_then_dma_read(self):
        oracle = make_oracle()
        values = np.arange(WPP, dtype=np.uint64) + 5
        oracle.note_dma_write(2, values)
        oracle.check_dma_read(2, values)

    def test_dma_read_of_stale_memory_raises(self):
        # A CPU write that never reached memory: the device must not see
        # the old value (Section 2.4).
        oracle = make_oracle()
        oracle.note_cpu_write(2 * PAGE, 123)
        stale_page = np.zeros(WPP, dtype=np.uint64)
        with pytest.raises(StaleDataError):
            oracle.check_dma_read(2, stale_page)


class TestRecordOnlyMode:
    def test_violations_recorded_not_raised(self):
        oracle = make_oracle(record_only=True)
        oracle.note_cpu_write(0, 5)
        oracle.check_cpu_read(0, 4)
        oracle.check_cpu_read(0, 3)
        assert len(oracle.violations) == 2
        assert not oracle.clean

    def test_violation_description(self):
        oracle = make_oracle(record_only=True)
        oracle.note_cpu_write(0, 5)
        oracle.check_cpu_read(0, 4)
        violation = oracle.violations[0]
        assert isinstance(violation, Violation)
        assert violation.kind == "cpu-read"
        assert "expected" in str(violation)

    def test_clean_run_counts_checks(self):
        oracle = make_oracle(record_only=True)
        for i in range(10):
            oracle.check_cpu_read(4 * i, 0)
        assert oracle.checks == 10
        assert oracle.clean

    def test_record_only_toggles_mid_run(self):
        # Each check consults the current flag, so a harness can record
        # during a chaos window and fail fast outside it.
        oracle = make_oracle(record_only=True)
        oracle.note_cpu_write(0, 5)
        oracle.check_cpu_read(0, 4)             # recorded, not raised
        oracle.record_only = False
        with pytest.raises(StaleDataError):
            oracle.check_cpu_read(0, 4)         # same staleness now raises
        oracle.record_only = True
        oracle.check_cpu_read(0, 4)             # and records again
        assert len(oracle.violations) == 3      # every check was recorded

    def test_raised_violations_are_still_recorded(self):
        oracle = make_oracle(record_only=False)
        oracle.note_cpu_write(0, 5)
        with pytest.raises(StaleDataError):
            oracle.check_cpu_read(0, 4)
        assert len(oracle.violations) == 1      # the audit trail survives


class TestRunTracking:
    def test_partial_run_checks_only_its_words(self):
        # A run shorter than a page: staleness just past its end must not
        # trigger (the run's window is [paddr, paddr + len*WORD_SIZE)).
        oracle = make_oracle()
        oracle.note_cpu_write(32, 99)           # stale word at offset 32
        oracle.check_run_read(0, np.zeros(8, dtype=np.uint64))  # words 0..7
        with pytest.raises(StaleDataError) as excinfo:
            oracle.check_run_read(0, np.zeros(9, dtype=np.uint64))
        assert excinfo.value.paddr == 32

    def test_unaligned_partial_run(self):
        oracle = make_oracle()
        oracle.note_run_write(40, np.arange(4, dtype=np.uint64))
        oracle.check_run_read(40, np.arange(4, dtype=np.uint64))
        oracle.check_run_read(44, np.arange(1, 4, dtype=np.uint64))
        with pytest.raises(StaleDataError) as excinfo:
            oracle.check_run_read(44, np.arange(3, dtype=np.uint64))
        assert excinfo.value.paddr == 44
        assert excinfo.value.expected == 1

    def test_checks_count_calls_not_words(self):
        # Documented accounting: one page/run check = one tick of
        # ``checks`` regardless of how many words it compared.
        oracle = make_oracle(record_only=True)
        oracle.check_run_read(0, np.zeros(100, dtype=np.uint64))
        oracle.check_page_read(0, np.zeros(WPP, dtype=np.uint64))
        oracle.check_dma_read(0, np.zeros(WPP, dtype=np.uint64))
        oracle.check_cpu_read(0, 0)
        assert oracle.checks == 4

    def test_run_read_reports_first_stale_word_only(self):
        oracle = make_oracle(record_only=True)
        oracle.note_run_write(0, np.arange(4, dtype=np.uint64) + 1)
        oracle.check_run_read(0, np.zeros(4, dtype=np.uint64))
        assert len(oracle.violations) == 1      # one violation per check
        assert oracle.violations[0].paddr == 0


class TestShortRunBranch:
    """Runs under SCALAR_RUN_WORDS compare word by word; the numpy
    branch must agree with them on every short run."""

    @staticmethod
    def check(monkeypatch, scalar: bool, n: int, stale: list[int],
              record_only: bool):
        # A cutoff of 1 sends every run to the numpy branch, one of 9
        # every run of up to 8 words to the scalar branch.
        monkeypatch.setattr(oracle_mod, "SCALAR_RUN_WORDS", 9 if scalar else 1)
        oracle = make_oracle(record_only=record_only)
        paddr = PAGE + 12                   # a run not aligned to a line
        oracle.note_run_write(paddr, np.arange(100, 100 + n, dtype=np.uint64))
        values = np.arange(100, 100 + n, dtype=np.uint64)
        for i in stale:
            values[i] = 7 + i
        raised = None
        try:
            oracle.check_run_read(paddr, values)
        except StaleDataError as error:
            raised = (error.paddr, error.expected, error.actual)
        assert oracle.checks == 1
        return oracle.violations, raised

    @pytest.mark.parametrize("record_only", [False, True])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_branches_report_the_same_violation(self, monkeypatch, n,
                                                record_only):
        cases = [[]] + [[first] for first in range(n)] \
            + [[first, n - 1] for first in range(n - 1)]
        for stale in cases:
            scalar = self.check(monkeypatch, True, n, stale, record_only)
            vector = self.check(monkeypatch, False, n, stale, record_only)
            assert scalar == vector
            violations, raised = scalar
            if not stale:
                assert violations == [] and raised is None
                continue
            first = stale[0]
            assert violations == [Violation("cpu-read", PAGE + 12 + 4 * first,
                                            100 + first, 7 + first)]
            assert raised == (None if record_only else
                              (PAGE + 12 + 4 * first, 100 + first, 7 + first))


class TestExpectedPage:
    def test_expected_page_reflects_program_order(self):
        oracle = make_oracle()
        values = np.arange(WPP, dtype=np.uint64) + 3
        oracle.note_dma_write(1, values)
        oracle.note_cpu_write(PAGE, 77)
        expected = oracle.expected_page(PAGE)
        assert expected[0] == 77
        assert np.array_equal(expected[1:], values[1:])

    def test_expected_page_is_a_copy(self):
        oracle = make_oracle()
        page = oracle.expected_page(0)
        page[:] = 123
        assert oracle.expected_page(0)[0] == 0


def first_stale(kind: str, paddr: int, expected: np.ndarray, values):
    """The reference violation: an elementwise scan for the first word
    whose value differs, as every check reported it before it had an
    equal-bytes exit.  None for a clean read."""
    for i, (want, got) in enumerate(zip(expected.tolist(), values.tolist())):
        if want != got:
            return Violation(kind, paddr + 4 * i, want, got)
    return None


class TestEqualExits:
    """Each check exits early on an equal read; a stale word anywhere
    must still be reported exactly as the elementwise scan reports it,
    in both modes."""

    # name -> (check, kind, physical address of the first word, words)
    CHECKS = {
        "page": (lambda o, v: o.check_page_read(PAGE, v), "cpu-read",
                 PAGE, WPP),
        "short-run": (lambda o, v: o.check_run_read(PAGE + 12, v),
                      "cpu-read", PAGE + 12, 5),
        "long-run": (lambda o, v: o.check_run_read(PAGE + 12, v),
                     "cpu-read", PAGE + 12, 100),
        "dma": (lambda o, v: o.check_dma_read(1, v), "dma-read", PAGE, WPP),
    }

    @staticmethod
    def armed(record_only: bool):
        """An oracle whose page 1 holds full-width words, each with its
        top bit set (so a word's int64 view is negative)."""
        oracle = make_oracle(record_only=record_only)
        words = np.random.default_rng(7).integers(
            1 << 63, 1 << 64, WPP, dtype=np.uint64, endpoint=False)
        oracle.note_page_write(PAGE, words)
        return oracle

    def run(self, name, values, record_only):
        check, kind, paddr, n = self.CHECKS[name]
        oracle = self.armed(record_only)
        start = (paddr - PAGE) // 4
        expected = oracle.expected_page(PAGE)[start:start + n]
        raised = None
        try:
            check(oracle, values)
        except StaleDataError as error:
            raised = Violation(kind, error.paddr, error.expected,
                               error.actual)
        assert oracle.checks == 1
        return oracle.violations, raised, first_stale(kind, paddr, expected,
                                                      values)

    def words(self, name):
        _, _, paddr, n = self.CHECKS[name]
        start = (paddr - PAGE) // 4
        return self.armed(True).expected_page(PAGE)[start:start + n]

    @pytest.mark.parametrize("record_only", [False, True])
    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_an_equal_read_is_clean(self, name, record_only):
        violations, raised, reference = self.run(name, self.words(name),
                                                 record_only)
        assert reference is None and violations == [] and raised is None

    @pytest.mark.parametrize("record_only", [False, True])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_a_stale_word_is_reported_as_by_the_scan(self, name, where,
                                                     record_only):
        values = self.words(name)
        i = {"first": 0, "middle": len(values) // 2,
             "last": len(values) - 1}[where]
        values[i] ^= np.uint64(1)
        violations, raised, reference = self.run(name, values, record_only)
        assert reference is not None
        assert reference.paddr == self.CHECKS[name][2] + 4 * i
        assert violations == [reference]
        assert raised == (None if record_only else reference)

    @pytest.mark.parametrize("record_only", [False, True])
    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_int64_values_take_the_elementwise_path(self, name, record_only):
        """An int64 view holds the shadow's very bytes, but each word's
        value is negative: the byte compare must not answer for it."""
        values = self.words(name).view(np.int64)
        violations, raised, reference = self.run(name, values, record_only)
        assert reference is not None and reference.actual < 0
        assert reference.paddr == self.CHECKS[name][2]
        assert violations == [reference]
        assert raised == (None if record_only else reference)
