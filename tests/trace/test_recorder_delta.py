"""The recorder's drift check against the counters codec.

:class:`TraceRecorder` marks raw counter state at each op boundary and
builds an encoded delta only from what moved.  These tests hold it to
the codec it replaces on the per-op path: its delta must be exactly
``diff_counters(encode_counters(before), encode_counters(after))``, its
interning key must agree with the canonical JSON spelling, and whole
compiles must produce the same ops, values and sidecar as a reference
recorder that encodes every counter at every op.
"""

import contextlib
import itertools
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernel.process as process_mod
import repro.trace.record as record_mod
from repro.analysis.experiments import (boot, evaluation_machine,
                                        make_workload)
from repro.hw.params import apply_geometry
from repro.hw.stats import SCALAR_FIELDS, Clock, Counters, FaultKind, Reason
from repro.kernel.task import Task
from repro.policy import get_policy
from repro.trace import compile_workload, record_run, save_trace
from repro.trace.format import (COUNTER_KIND_FIELDS, COUNTER_PAIR_FIELDS,
                                COUNTER_SCALARS, OP_BUS, OP_SYNC,
                                UNENCODED_SCALARS,
                                TraceFormatError, diff_counters,
                                encode_counters)
from repro.trace.record import TraceRecorder, _delta_key
from repro.workloads import RandomOps
from repro.workloads.base import Workload

CACHES = ("dcache", "icache")

# ---- one mutation of a Counters instance ------------------------------------

pair_keys = st.tuples(st.sampled_from(CACHES), st.sampled_from(list(Reason)))
amounts = st.integers(min_value=-3, max_value=6)      # zero: a zero entry
mutations = st.one_of(
    st.tuples(st.just("scalar"), st.sampled_from(COUNTER_SCALARS), amounts),
    st.tuples(st.just("pair"), st.sampled_from(COUNTER_PAIR_FIELDS),
              pair_keys, amounts),
    st.tuples(st.just("kind"), st.sampled_from(COUNTER_KIND_FIELDS),
              st.sampled_from(list(FaultKind)), amounts),
    st.tuples(st.just("drop"), st.sampled_from(COUNTER_PAIR_FIELDS
                                               + COUNTER_KIND_FIELDS)),
)


def mutate(counters: Counters, mutation) -> None:
    kind = mutation[0]
    if kind == "scalar":
        _, name, n = mutation
        setattr(counters, name, getattr(counters, name) + n)
    elif kind == "drop":                  # a key leaves the Counter
        counter = getattr(counters, mutation[1])
        if counter:
            del counter[next(iter(counter))]
    else:
        _, name, key, n = mutation
        getattr(counters, name)[key] += n


def bare_recorder() -> TraceRecorder:
    """A recorder over a clock and counters alone, never attached."""
    return TraceRecorder(SimpleNamespace(clock=Clock(), counters=Counters()))


def canonical(entry) -> str:
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


class TestDeltaIsTheCodecsDelta:
    @settings(max_examples=300, deadline=None)
    @given(start=st.lists(mutations, max_size=12),
           window=st.lists(mutations, max_size=12),
           cycles=st.integers(min_value=0, max_value=3))
    def test_sync_entry_equals_diff_of_encodings(self, start, window,
                                                 cycles):
        recorder = bare_recorder()
        counters = recorder.counters
        for mutation in start:
            mutate(counters, mutation)
        recorder._mark()
        before = encode_counters(counters)
        for mutation in window:
            mutate(counters, mutation)
        recorder.clock.advance(cycles)
        expected = diff_counters(before, encode_counters(counters))

        recorder._pre_op()
        if not expected and not cycles:
            assert recorder._ops == []
            return
        [(op, _, clock_delta, _, aux)] = recorder._ops
        assert (op, clock_delta) == (OP_SYNC, cycles)
        if expected:
            assert recorder._sidecar[aux] == expected
            assert canonical(recorder._sidecar[aux]) == canonical(expected)
        else:
            assert aux == -1
        # The mark moved with the SYNC: a second check finds no drift.
        recorder._pre_op()
        assert len(recorder._ops) == 1

    @settings(max_examples=300, deadline=None)
    @given(first=st.lists(mutations, min_size=1, max_size=8),
           second=st.lists(mutations, min_size=1, max_size=8),
           same=st.booleans())
    def test_interning_key_agrees_with_json(self, first, second, same):
        deltas = []
        for window in (first, first if same else second):
            counters = Counters()
            before = encode_counters(counters)
            for mutation in window:
                mutate(counters, mutation)
            deltas.append(diff_counters(before, encode_counters(counters)))
        a, b = deltas
        assert (_delta_key(a) == _delta_key(b)) \
            == (canonical(a) == canonical(b))

    def test_equal_deltas_share_one_sidecar_slot(self):
        recorder = bare_recorder()
        recorder._mark()
        for _ in range(3):
            recorder.counters.record_fault(FaultKind.MAPPING, 7)
            recorder.counters.tlb_misses += 1
            recorder._pre_op()
        recorder.counters.record_fault(FaultKind.CONSISTENCY, 7)
        recorder._pre_op()
        assert [row[4] for row in recorder._ops] == [0, 0, 0, 1]
        assert recorder._sidecar == [
            {"tlb_misses": 1, "faults": {"mapping": 1},
             "fault_cycles": {"mapping": 7}},
            {"faults": {"consistency": 1},
             "fault_cycles": {"consistency": 7}}]


# ---- whole compiles against the encode-per-op reference -----------------------

class EncodingRecorder(TraceRecorder):
    """The reference: encode every counter at every op boundary, diff
    the encodings on drift and intern deltas by their JSON spelling."""

    def _mark(self) -> None:
        self._clock_mark = self.clock.cycles
        self._counters_mark = encode_counters(self.counters)

    def _pre_op(self) -> None:
        clock_now = self.clock.cycles
        state_now = encode_counters(self.counters)
        if clock_now == self._clock_mark and state_now == self._counters_mark:
            return
        delta = diff_counters(self._counters_mark, state_now)
        aux = self._sidecar_ref(delta, canonical(delta)) if delta else -1
        self._ops.append((OP_SYNC, 0, clock_now - self._clock_mark, 0, aux))
        self._clock_mark = clock_now
        self._counters_mark = state_now

    def _post_op(self) -> None:
        self._mark()


@contextlib.contextmanager
def fresh_process_counters():
    """Payload values come from process-global counters (task names,
    write tokens); reset them so two compiles write the same values."""
    names, tokens = Task._names, process_mod._token_counter
    Task._names = itertools.count(1)
    process_mod._token_counter = itertools.count(0x1000)
    try:
        yield
    finally:
        Task._names, process_mod._token_counter = names, tokens


def compiled_bytes(tmp_path, tag, recorder_cls, monkeypatch, build):
    monkeypatch.setattr(record_mod, "TraceRecorder", recorder_cls)
    with fresh_process_counters():
        trace = build()
    monkeypatch.undo()
    path = tmp_path / f"{tag}.trace"
    save_trace(path, trace)
    return trace, path.read_bytes()


def _paper(name, policy, geometry=None, **kw):
    config = evaluation_machine()
    if geometry:
        config = apply_geometry(config, geometry)
    return lambda: compile_workload(make_workload(name, 0.1),
                                    get_policy(policy), config=config, **kw)


def _random_ops(**kw):
    return lambda: compile_workload(RandomOps(scale=0.3, seed=5),
                                    get_policy("F"), **kw)


CASES = {
    "latex-paper/A": _paper("latex-paper", "A"),
    "latex-paper/F": _paper("latex-paper", "F"),
    "afs-bench/A": _paper("afs-bench", "A"),
    "afs-bench/F": _paper("afs-bench", "F"),
    "latex-paper/F/2way": _paper("latex-paper", "F", "2way"),
    "latex-paper/A/wt": _paper("latex-paper", "A", "wt"),
    "random-ops/faults": _random_ops(
        inject="pmap.flush.duplicate:0.3,tlb.entry.corrupt:0.1", seed=5),
    "latex-paper/A/events": _paper("latex-paper", "A", trace_events=True),
    "random-ops/conform": _random_ops(conform=True, trace_events=True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_recorder_matches_the_encoding_reference(case, tmp_path,
                                                 monkeypatch):
    build = CASES[case]
    ref, ref_bytes = compiled_bytes(tmp_path, "ref", EncodingRecorder,
                                    monkeypatch, build)
    new, new_bytes = compiled_bytes(tmp_path, "new", TraceRecorder,
                                    monkeypatch, build)
    assert (new.ops == ref.ops).all()
    assert (new.values == ref.values).all()
    assert new.sidecar == ref.sidecar        # same entries, same order
    assert new_bytes == ref_bytes
    if "events" in case:             # BUS and SYNC entries interleave
        kinds = {op for op, aux in zip(new.ops["op"], new.ops["aux"])
                 if aux >= 0}
        assert {OP_BUS, OP_SYNC} <= kinds


# ---- the scalars the codec does not carry -------------------------------------

def test_unencoded_scalars_are_exactly_the_nine():
    """Widening the codec would change every golden's end counters, so
    the gap is pinned; each of these moves only on configurations trace
    compilation rejects, or in ``map_superpage`` during setup."""
    assert set(SCALAR_FIELDS) - set(COUNTER_SCALARS) == {
        "coherence_invalidations", "coherence_writebacks",
        "victim_hits", "victim_captures", "l2_hits", "l2_fills",
        "rlt_lookups", "rlt_skipped_ops", "superpage_mappings"}
    assert set(UNENCODED_SCALARS) == set(SCALAR_FIELDS) - set(COUNTER_SCALARS)
    assert set(COUNTER_SCALARS) <= set(SCALAR_FIELDS)


class SuperpageInWindow(Workload):
    """Maps a superpage region inside the recorded window."""

    name = "superpage-in-window"

    def setup(self, kernel):
        self.task = kernel.create_task("sp")

    def execute(self, kernel):
        self.task.map_superpage(2)


def test_a_window_that_moves_an_unencoded_counter_is_refused():
    kernel = boot(get_policy("F")).kernel
    workload = SuperpageInWindow()
    workload.setup(kernel)
    with pytest.raises(TraceFormatError, match="superpage_mappings"):
        record_run(workload, kernel)

