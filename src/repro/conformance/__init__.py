"""Lockstep conformance checking against the Table 2 model.

Three layers, one specification:

* :mod:`~repro.conformance.coverage` — which (state x event) arcs of
  Table 2 a run exercised;
* :mod:`~repro.conformance.lockstep` — shadow a running kernel with one
  :class:`~repro.core.model.ConsistencyModel` per physical frame and
  flag any divergence as a structured
  :class:`~repro.errors.ConformanceError`;
* :mod:`~repro.conformance.explorer` — seeded coverage-guided random
  sequences over the model/engine pair, with counterexample shrinking,
  plus the mutants the whole apparatus is validated against.

See docs/conformance.md for the engine design and how to read a
counterexample.
"""

from repro.conformance.coverage import ALL_ARCS, ArcCoverage, arcs_of_event
from repro.conformance.explorer import (Counterexample, ExplorationReport,
                                        Explorer, LockstepPair,
                                        StepDivergence, apply_cache_op)
from repro.conformance.lockstep import (ConformanceMonitor,
                                        ConformanceSummary, Divergence,
                                        ObservedEvent, effective_decode)
from repro.conformance.mutants import MUTANTS, apply_mutant

__all__ = [
    "ALL_ARCS", "ArcCoverage", "arcs_of_event",
    "ConformanceMonitor", "ConformanceSummary", "Divergence",
    "ObservedEvent", "effective_decode",
    "Counterexample", "ExplorationReport", "Explorer", "LockstepPair",
    "StepDivergence", "apply_cache_op",
    "MUTANTS", "apply_mutant",
]
