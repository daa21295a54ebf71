"""Degeneracy: every legacy policy, re-expressed through the hook
interface, is bit-identical to its flag configuration.

The :class:`ConsistencyPolicy` default hooks read the same flags and
call the same pmap internals in the same order as the pre-engine code
path, so ``Kernel(policy="F")`` (the registry singleton) and
``Kernel(policy=CONFIG_F)`` (a fresh generic wrapper around the flag
bag) must agree to the cycle on every workload — counters, clock and
data alike.  The golden-trace suite pins this behaviour to the seed;
this suite pins the two construction paths to each other across the
whole named-policy surface.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import make_workload, run_workload
from repro.policy import get_policy
from repro.vm.policy import CONFIG_GLOBAL, CONFIG_LADDER, TABLE5_SYSTEMS
from repro.workloads.serve import run_serve_cohort

ALL_NAMED = [c.name for c in
             CONFIG_LADDER + (CONFIG_GLOBAL,) + TABLE5_SYSTEMS]
WORKLOADS = ("afs-bench", "latex-paper", "kernel-build")
SCALE = 0.25


@pytest.mark.parametrize("name", ALL_NAMED)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_registry_policy_matches_flag_path(name, workload):
    via_flags = run_workload(make_workload(workload, SCALE),
                             get_policy(name).flags)
    via_registry = run_workload(make_workload(workload, SCALE), name)
    # RunMetrics is a frozen dataclass of counts and cycles; equality is
    # the whole measured surface, clock included.
    assert via_flags == via_registry


@pytest.mark.parametrize("name", ["A", "F", "Tut", "Sun", "G"])
def test_serve_checksum_identical_across_paths(name):
    via_flags = run_serve_cohort(0, 40, policy=get_policy(name).flags)
    via_registry = run_serve_cohort(0, 40, policy=name)
    assert via_flags == via_registry
    assert via_flags.checksum == via_registry.checksum


# ---- ladder cumulativity ---------------------------------------------------

#: the Section 4 optimization flags the ladder accretes one per rung
OPT_FLAGS = ("align_ipc", "align_server_pages", "aligned_prepare",
             "opt_need_data", "opt_will_overwrite")


def _enabled(config) -> frozenset:
    return frozenset(f for f in OPT_FLAGS if getattr(config, f))


@given(st.integers(0, len(CONFIG_LADDER) - 1),
       st.integers(0, len(CONFIG_LADDER) - 1))
@settings(max_examples=50)
def test_ladder_is_cumulative(i, j):
    """Every later rung's optimization set contains every earlier one's."""
    lo, hi = min(i, j), max(i, j)
    assert _enabled(CONFIG_LADDER[lo]) <= _enabled(CONFIG_LADDER[hi])


def test_ladder_rungs_strictly_grow_past_b():
    sets = [_enabled(c) for c in CONFIG_LADDER[1:]]
    for earlier, later in zip(sets, sets[1:]):
        assert earlier < later
