"""The recorder's drift check against the counters codec.

:class:`TraceRecorder` marks the clock, the scalars and the breakdown
tallies at each op boundary and compares them before the next.  These
tests hold it to the codec it replaces on the per-op path: a write
between ops must make a SYNC delta exactly
``diff_counters(encode_counters(before), encode_counters(after))``, a
write inside an op none, its interning key must agree with the canonical
JSON spelling, and whole compiles must produce the same ops, values and
sidecar as a reference recorder that encodes every counter at every op.
The breakdowns cannot be written behind ``Counters.record_*``: each
write through their views raises.
"""

import contextlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernel.process as process_mod
import repro.trace.record as record_mod
from repro.analysis.experiments import (boot, evaluation_machine,
                                        make_workload)
from repro.hw.machine import Machine
from repro.hw.params import apply_geometry, small_machine
from repro.hw.stats import (KIND_OFFSETS, PAIR_OFFSETS, SCALAR_FIELDS,
                             Counters, FaultKind, Reason)
from repro.kernel.task import Task
from repro.policy import get_policy
from repro.trace import compile_workload, record_run, save_trace
from repro.trace.format import (COUNTER_KIND_FIELDS, COUNTER_PAIR_FIELDS,
                                COUNTER_SCALARS,
                                OP_BUS, OP_SYNC, UNENCODED_SCALARS,
                                TraceFormatError, apply_counters_delta,
                                decode_counters, diff_counters,
                                encode_counters)
from repro.trace.record import TraceRecorder, _delta_key
from repro.workloads import RandomOps
from repro.workloads.base import Workload

#: the cluster name is a row a bare ``Counters()`` has not seen
CACHES = ("dcache", "icache", "cpu3.dcache")

# ---- one mutation of a Counters instance ------------------------------------

pair_keys = st.tuples(st.sampled_from(CACHES), st.sampled_from(list(Reason)))
amounts = st.integers(min_value=-3, max_value=6)      # zero: a zero entry
#: any write: the state a window starts from
mutations = st.one_of(
    st.tuples(st.just("scalar"), st.sampled_from(COUNTER_SCALARS), amounts),
    st.tuples(st.just("pair"), st.sampled_from(COUNTER_PAIR_FIELDS),
              pair_keys, amounts),
    st.tuples(st.just("kind"), st.sampled_from(COUNTER_KIND_FIELDS),
              st.sampled_from(list(FaultKind)), amounts),
    st.tuples(st.just("drop"), st.sampled_from(COUNTER_PAIR_FIELDS
                                               + COUNTER_KIND_FIELDS)),
)
#: the writes a live run makes: scalars directly, the breakdowns only
#: through ``Counters.record_*``
tallies = st.one_of(
    st.tuples(st.just("scalar"), st.sampled_from(COUNTER_SCALARS), amounts),
    st.tuples(st.sampled_from(("record_flush", "record_purge")), pair_keys,
              amounts),
    st.tuples(st.just("record_fault"), st.sampled_from(list(FaultKind)),
              amounts),
)


def mutate(counters: Counters, mutation) -> None:
    kind = mutation[0]
    if kind == "scalar":
        _, name, n = mutation
        setattr(counters, name, getattr(counters, name) + n)
    elif kind == "drop":                  # a key's tally returns to zero
        name = mutation[1]
        image = encode_counters(counters)[name]
        if image:
            key = next(iter(image))
            apply_counters_delta(counters, {name: {key: -image[key]}})
    elif kind == "record_fault":
        counters.record_fault(mutation[1], mutation[2])
    elif kind.startswith("record_"):
        (cache, reason), cycles = mutation[1:]
        getattr(counters, kind)(cache, reason, cycles)
    else:                                 # through the codec, as replay does
        _, name, key, n = mutation
        key = f"{key[0]}|{key[1].value}" if kind == "pair" else key.value
        apply_counters_delta(counters, {name: {key: n}})


def canonical(entry) -> str:
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


#: any tally contents, written straight into the list
slot_writes = st.lists(st.tuples(
    st.sampled_from(COUNTER_PAIR_FIELDS + COUNTER_KIND_FIELDS),
    st.sampled_from(CACHES), st.sampled_from(list(Reason)),
    st.sampled_from(list(FaultKind)), st.integers(-5, 400)), max_size=16)
scalar_writes = st.lists(st.tuples(st.sampled_from(COUNTER_SCALARS),
                                   st.integers(0, 400)), max_size=6)


def tallied(scalars, writes) -> Counters:
    counters = Counters()
    for name, n in scalars:
        setattr(counters, name, n)
    for name, cache, reason, kind, n in writes:
        if name in PAIR_OFFSETS:
            counters.cache_tally[counters.row(cache) + PAIR_OFFSETS[name]
                                 + reason.index] += n
        else:
            counters.fault_tally[KIND_OFFSETS[name] + kind.index] += n
    return counters


class TestCodecOverTallies:
    @settings(max_examples=300, deadline=None)
    @given(scalars=scalar_writes, writes=slot_writes)
    def test_image_spells_the_views(self, scalars, writes):
        """The image is each breakdown's nonzero entries, keyed by the
        enums' values: what the ``Counter`` fields encoded to."""
        counters = tallied(scalars, writes)
        image = encode_counters(counters)
        for name in COUNTER_PAIR_FIELDS:
            assert image[name] == {f"{c}|{r.value}": n for (c, r), n
                                   in getattr(counters, name).items()}
        for name in COUNTER_KIND_FIELDS:
            assert image[name] == {k.value: n for k, n
                                   in getattr(counters, name).items()}
        assert all(n for name in COUNTER_PAIR_FIELDS + COUNTER_KIND_FIELDS
                   for n in image[name].values())
        back = decode_counters(json.loads(canonical(image)))
        assert back == counters
        assert encode_counters(back) == image

    @settings(max_examples=300, deadline=None)
    @given(before=st.tuples(scalar_writes, slot_writes),
           after=st.tuples(scalar_writes, slot_writes),
           times=st.integers(-2, 3))
    def test_diff_and_apply_are_a_subtraction_and_an_add(self, before,
                                                         after, times):
        a, b = tallied(*before), tallied(*after)
        delta = diff_counters(encode_counters(a), encode_counters(b))
        assert all(delta.values())          # sparse: nothing zero or empty
        moved = decode_counters(encode_counters(a))
        apply_counters_delta(moved, delta)
        assert moved == b
        assert encode_counters(moved) == encode_counters(b)
        # ``times`` copies at once equal ``times`` single adds.
        once, at_once = decode_counters(encode_counters(a)), Counters()
        apply_counters_delta(at_once, encode_counters(a))
        for _ in range(abs(times)):
            apply_counters_delta(once, delta, 1 if times > 0 else -1)
        apply_counters_delta(at_once, delta, times)
        assert once == at_once


class TestDeltaIsTheCodecsDelta:
    @settings(max_examples=300, deadline=None)
    @given(start=st.lists(mutations, max_size=12),
           window=st.lists(tallies, max_size=12),
           cycles=st.integers(min_value=0, max_value=3),
           depth=st.integers(min_value=0, max_value=2))
    def test_sync_entry_equals_diff_of_encodings(self, start, window,
                                                 cycles, depth):
        machine = Machine(small_machine())
        counters = machine.counters
        for mutation in start:
            mutate(counters, mutation)
        before = encode_counters(counters)
        with TraceRecorder(machine) as recorder:
            recorder._depth = depth       # depth >= 1: inside an op
            for mutation in window:
                mutate(counters, mutation)
            machine.clock.advance(cycles)
            recorder._depth = 0
            if depth:                     # the op ends: its drift is its own
                recorder._mark()
            recorder._pre_op()
        expected = diff_counters(before, encode_counters(counters))

        if depth or (not expected and not cycles):
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
        machine = Machine(small_machine())
        counters = machine.counters
        with TraceRecorder(machine) as recorder:
            for _ in range(3):
                counters.record_fault(FaultKind.MAPPING, 7)
                counters.tlb_misses += 1
                recorder._pre_op()
            counters.record_fault(FaultKind.CONSISTENCY, 7)
            recorder._pre_op()
            # Cycles that cancel encode to nothing: both windows move the
            # tally alike, so they share the third slot and its raw key.
            for spent in ((0, 0), (5, -5)):
                for cycles in spent:
                    counters.record_flush("dcache", Reason.PAGEOUT, cycles)
                recorder._pre_op()
        assert [row[4] for row in recorder._ops] == [0, 0, 0, 1, 2, 2]
        assert recorder._sidecar == [
            {"tlb_misses": 1, "faults": {"mapping": 1},
             "fault_cycles": {"mapping": 7}},
            {"faults": {"consistency": 1},
             "fault_cycles": {"consistency": 7}},
            {"page_flushes": {"dcache|pageout": 2}}]
        assert len(recorder._sync_index) == 3


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
    "kernel-build/A": _paper("kernel-build", "A"),
    "kernel-build/A/faults": _paper(
        "kernel-build", "A",
        inject="pmap.flush.duplicate:0.3,tlb.entry.corrupt:0.1", seed=3),
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


# ---- the breakdowns have one writer ------------------------------------------

def _increment(counters):
    counters.faults[FaultKind.MAPPING] += 1


def _drop(counters):
    del counters.faults[FaultKind.MAPPING]


def _zero_entry(counters):
    counters.flush_cycles[("dcache", Reason.PAGEOUT)] += 0


@pytest.mark.parametrize("write", [_increment, _drop, _zero_entry],
                         ids=["increment", "dropped-key", "zero-entry"])
def test_a_write_through_a_breakdown_view_raises(write):
    """Only ``Counters.record_*`` writes a breakdown, so nothing can
    move one behind the recorder's mark."""
    counters = Counters()
    counters.record_fault(FaultKind.MAPPING, 5)
    counters.record_flush("dcache", Reason.PAGEOUT, 3)
    before = encode_counters(counters)
    with pytest.raises(TypeError):
        write(counters)
    assert encode_counters(counters) == before
