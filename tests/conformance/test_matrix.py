"""The cache-hierarchy conformance matrix: every cell, both checks.

Each :class:`~repro.conformance.matrix.MatrixCell` is verified two ways —
lockstep (a kernel with the cell's geometry runs the alias stressor under
the conformance monitor, shadowed by the table its geometry derives) and
exhaustively (every event sequence to depth 6 against the same table).
The multi-way cells generate tens of thousands of lockstep events (half
the page colors, so far more alias conflicts) and carry the ``hierarchy``
mark; CI's hierarchy job runs them with ``-m hierarchy``.
"""

import pytest

from repro.conformance.matrix import (HIERARCHY_MATRIX, MatrixCell,
                                      cell_by_name, check_cell_exhaustive,
                                      check_cell_lockstep)
from repro.errors import ConfigurationError

#: the quick cells (direct-mapped L1: a few hundred lockstep events) and
#: the slow ones (set-associative L1: ~84k events, ~1s each).
FAST_CELLS = [c for c in HIERARCHY_MATRIX
              if c.config().dcache.associativity == 1]
SLOW_CELLS = [c for c in HIERARCHY_MATRIX
              if c.config().dcache.associativity > 1]


def _names(cells):
    return [c.name for c in cells]


class TestMatrixStructure:
    def test_covers_the_full_architecture_grid(self):
        # {1,2,4}-way × {victim off/on} × {L2 off/on} = 12 architecture
        # cells, plus the four policy rows exercising derived tables.
        assert len(HIERARCHY_MATRIX) == 16
        assert len({c.name for c in HIERARCHY_MATRIX}) == 16
        for ways in (1, 2, 4):
            matching = [c for c in HIERARCHY_MATRIX
                        if c.config().dcache.associativity == ways]
            assert len(matching) >= 4
        assert {c.name for c in HIERARCHY_MATRIX} >= {
            "baseline", "victim8", "l2:64k/4", "victim8+l2:64k/4",
            "wt", "2way+wt", "pi", "pi+wt"}

    def test_cells_resolve_by_name(self):
        cell = cell_by_name("2way+victim8")
        assert cell.geometry == "2way+victim8"
        config = cell.config()
        assert config.dcache.associativity == 2
        assert config.victim_lines == 8
        with pytest.raises(ConfigurationError):
            cell_by_name("8way")

    def test_model_selection_follows_the_geometry(self):
        # Architecture changes keep the canonical table (the Section 3.3
        # claim); only the policy rows switch to a derived table.
        assert cell_by_name("baseline").model_name == "canonical"
        assert cell_by_name("4way+victim8+l2:64k/4").model_name \
            == "canonical"
        assert cell_by_name("wt").model_name == "wt"
        assert cell_by_name("2way+wt").model_name == "wt"
        assert cell_by_name("pi").model_name == "pi"
        assert cell_by_name("pi+wt").model_name == "pi+wt"

    def test_physically_indexed_cells_check_one_cache_page(self):
        # pi hardware maps each frame to exactly one cache page, so
        # multi-target sequences are unreachable; checking them would
        # spuriously violate single-dirty.
        assert cell_by_name("pi").exhaustive_pages == 1
        assert cell_by_name("pi+wt").exhaustive_pages == 1
        assert cell_by_name("baseline").exhaustive_pages == 3

    def test_custom_base_config_is_respected(self):
        from repro.hw.params import small_machine
        base = small_machine(phys_pages=192)
        cell = MatrixCell("2way", "2way")
        config = cell.config(base)
        assert config.dcache.associativity == 2
        assert config.dcache.size == base.dcache.size


class TestFastCells:
    @pytest.mark.parametrize("name", _names(FAST_CELLS))
    def test_lockstep(self, name):
        summary = check_cell_lockstep(cell_by_name(name), steps=300)
        assert summary.divergences == 0
        assert summary.events > 0

    @pytest.mark.parametrize("name", _names(FAST_CELLS))
    def test_exhaustive_depth_6(self, name):
        report = check_cell_exhaustive(cell_by_name(name), depth=6)
        assert report.ok, report
        assert report.sequences > 0


@pytest.mark.hierarchy
class TestSlowCells:
    @pytest.mark.parametrize("name", _names(SLOW_CELLS))
    def test_lockstep(self, name):
        summary = check_cell_lockstep(cell_by_name(name), steps=300)
        assert summary.divergences == 0
        # A run is one monitor event on every geometry (see
        # TestEventGranularity in test_lockstep.py), so a set-associative
        # cell no longer logs an extra event per run word.
        assert summary.events > 0

    @pytest.mark.parametrize("name", _names(SLOW_CELLS))
    def test_exhaustive_depth_6(self, name):
        report = check_cell_exhaustive(cell_by_name(name), depth=6)
        assert report.ok, report
