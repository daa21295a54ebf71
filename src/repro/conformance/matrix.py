"""The cache-hierarchy conformance matrix (Section 3.3, operationally).

Section 3.3's claim is that the consistency model *specializes* per
architecture: write-through collapses Dirty, physical indexing voids the
"others" column, and set-associative caches, victim caches, L2s, and
coherent multiprocessors change **nothing** — the hardware keeps the
extra copies consistent, so the same Table 2 governs the software.  This
module turns that claim into a checked matrix: every supported cache
configuration, paired with the derived table it must obey, verified two
ways —

* **lockstep** — a kernel built with the cell's geometry runs an alias
  stressor under the :class:`~repro.conformance.lockstep.
  ConformanceMonitor`, whose shadow model is selected from the geometry
  (:func:`~repro.core.variants.model_factory_for_geometry`); and
* **exhaustive** — the bounded checker covers every event sequence to a
  given depth against the same derived table
  (:func:`~repro.core.exhaustive.check_all_sequences`).

The matrix rows are *geometry spec strings* (see
:func:`~repro.hw.params.apply_geometry`), so the same cell names drive
the CLI, the farm, and the benchmark gates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.params import MachineConfig, apply_geometry, small_machine


@dataclass(frozen=True)
class MatrixCell:
    """One verified configuration: a name and its geometry spec.

    ``geometry=None`` is the seed machine — direct-mapped, write-back,
    virtually indexed, no lower hierarchy — the baseline every
    degeneracy proof compares against.
    """

    name: str
    geometry: str | None = None

    def config(self, base: MachineConfig | None = None) -> MachineConfig:
        """The cell's machine configuration (small test machine unless a
        base is given)."""
        config = base if base is not None else small_machine(phys_pages=192)
        if self.geometry is None:
            return config
        return apply_geometry(config, self.geometry)

    @property
    def model_name(self) -> str:
        """Which derived Table 2 this cell is verified against."""
        from repro.core.variants import model_name_for_geometry
        return model_name_for_geometry(self.config().dcache)

    @property
    def exhaustive_pages(self) -> int:
        """Cache-page count for the cell's exhaustive run.  The
        physically indexed variants run at 1: their hardware maps each
        frame to a single cache page, so multi-target event sequences
        are unreachable (and would spuriously violate single-dirty)."""
        return 1 if self.model_name in ("pi", "pi+wt") else 3


def _architecture_cells() -> tuple[MatrixCell, ...]:
    cells = []
    for ways in (1, 2, 4):
        for victim in (0, 8):
            for l2 in (False, True):
                tokens = []
                if ways != 1:
                    tokens.append(f"{ways}way")
                if victim:
                    tokens.append(f"victim{victim}")
                if l2:
                    tokens.append("l2:64k/4")
                spec = "+".join(tokens) or None
                cells.append(MatrixCell(spec or "baseline", spec))
    return tuple(cells)


#: every verified configuration: the {1,2,4}-way × {victim off/on} ×
#: {L2 off/on} architecture grid plus the write-through and physically
#: indexed policy rows (which exercise the *derived* tables).
HIERARCHY_MATRIX: tuple[MatrixCell, ...] = _architecture_cells() + (
    MatrixCell("wt", "wt"),
    MatrixCell("2way+wt", "2way+wt"),
    MatrixCell("pi", "pi"),
    MatrixCell("pi+wt", "pi+wt"),
)


def cell_by_name(name: str) -> MatrixCell:
    for cell in HIERARCHY_MATRIX:
        if cell.name == name:
            return cell
    from repro.errors import ConfigurationError
    raise ConfigurationError(
        f"unknown matrix cell {name!r}; expected one of "
        f"{[c.name for c in HIERARCHY_MATRIX]}")


def check_cell_lockstep(cell: MatrixCell, steps: int = 300,
                        seed: int = 0) -> "ConformanceSummary":
    """Run the alias stressor on a kernel with the cell's geometry under
    the lockstep monitor (raise mode: any divergence aborts).  Returns
    the monitor summary; the caller asserts on it."""
    from repro.conformance.lockstep import ConformanceMonitor
    from repro.kernel.kernel import Kernel
    from repro.workloads.random_ops import AliasStressor

    kernel = Kernel(config=cell.config(), buffer_cache_pages=24)
    stressor = AliasStressor(kernel, n_tasks=3, n_pages=4, seed=seed)
    with ConformanceMonitor(kernel) as monitor:
        stressor.run(steps)
    return monitor.summary()


def check_cell_exhaustive(cell: MatrixCell, depth: int = 6) -> "CheckReport":
    """Cover every event sequence to ``depth`` against the cell's
    derived table (see :attr:`MatrixCell.exhaustive_pages`)."""
    from repro.core.exhaustive import check_all_sequences
    from repro.core.variants import model_factory_by_name

    return check_all_sequences(
        num_cache_pages=cell.exhaustive_pages, depth=depth,
        model_factory=model_factory_by_name(cell.model_name))

