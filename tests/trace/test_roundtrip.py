"""Property tests: compile -> replay round-trips every workload.

The trace compiler promises that a compiled run replays to *bit-identical*
observables — the same clock cycles, the same full-fidelity counters
(including the per-(cache, reason) flush/purge attribution), the same
event JSONL when events were recorded.  These tests state that promise
as properties over the whole workload set, including :class:`RandomOps`
with seeded faults armed (whose injected flush duplications, parity
recoveries and DMA retries must be baked into the stream, not replayed
by luck), and over a pure streaming workload whose long multi-line runs
take the interpreter's ``read_run``/``write_run`` call path.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import evaluation_machine, make_workload
from repro.hw.params import WORD_SIZE
from repro.hw.physmem import PhysicalMemory
from repro.kernel.kernel import Kernel
from repro.policy import get_policy
from repro.trace import compile_workload, load_trace, replay_trace, save_trace
from repro.trace.format import (MAGIC, OP_D_READ_RUN, OP_D_WRITE_RUN,
                                TraceFormatError, decode_counters)
from repro.trace.interp import _restore_memory
from repro.workloads import RandomOps
from repro.workloads.base import Workload

WORKLOAD_NAMES = ("afs-bench", "latex-paper", "kernel-build")
SCALE = 0.25
INJECT_PLAN = "pmap.flush.duplicate:0.3,tlb.entry.corrupt:0.1"


def assert_roundtrip(trace):
    """Replay and check the full equivalence contract."""
    result = replay_trace(trace)
    assert result.equivalent, result.mismatches
    assert result.clock == trace.end_clock
    assert result.counters == decode_counters(trace.end_counters)
    if trace.n_events:
        assert result.n_events == trace.n_events
        assert result.events_sha256 == trace.end_events_sha256
    return result


def assert_same_machine_state(result, machine):
    """The replay ended in ``machine``'s memory and cache state, word
    for word."""
    assert np.array_equal(result.memory._words, machine.memory._words)
    for mine, theirs in ((result.dcache, machine.dcache),
                         (result.icache, machine.icache)):
        assert np.array_equal(mine._tags, theirs._tags)
        assert np.array_equal(mine._dirty, theirs._dirty)
        assert np.array_equal(mine._data, theirs._data)


class BlockSweep(Workload):
    """Pure streaming: full-page block writes then block reads over
    pages faulted in during setup, so the measured window holds long,
    disjoint multi-line runs with no fault or cache management between
    them."""

    name = "block-sweep"
    PAGES = 8
    WORDS_PER_PAGE = 4096 // WORD_SIZE

    def setup(self, kernel):
        self.task = kernel.create_task("sweep")
        self.base = self.task.allocate_anon(self.PAGES)
        for page in range(self.PAGES):     # fault every page in now
            self.task.write(self.base + page, 0, 1)

    def execute(self, kernel):
        values = list(range(self.WORDS_PER_PAGE))
        for page in range(self.PAGES):
            self.task.write_block(self.base + page, 0, values)
        self.out = [self.task.read_block(self.base + page, 0,
                                         self.WORDS_PER_PAGE)
                    for page in range(self.PAGES)]


class TestPaperWorkloads:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    @settings(max_examples=2, deadline=None)
    @given(policy_name=st.sampled_from(("A", "F")))
    def test_compile_replay_roundtrips(self, name, policy_name):
        trace = compile_workload(make_workload(name, SCALE),
                                 get_policy(policy_name))
        assert_roundtrip(trace)

    def test_events_roundtrip_bit_identical(self):
        trace = compile_workload(make_workload("latex-paper", SCALE),
                                 get_policy("F"), trace_events=True)
        assert trace.n_events > 0
        assert_roundtrip(trace)

    def test_recorder_does_not_perturb_the_run(self):
        """The recorder is a pure observer: the recorded run ends in the
        same machine state as an uninstrumented run (run_workload itself
        shuts the kernel down afterwards, so the plain run here drives
        setup/execute directly), and replay rebuilds that final memory
        and cache state from the stream alone."""
        from repro.kernel.kernel import Kernel

        policy = get_policy("F")

        plain = Kernel(policy=policy, config=evaluation_machine(),
                       buffer_cache_pages=48)
        workload = make_workload("latex-paper", SCALE)
        workload.setup(plain)
        start = plain.machine.clock.cycles
        workload.execute(plain)
        cycles = plain.machine.clock.cycles - start

        recorded = Kernel(policy=policy, config=evaluation_machine(),
                          buffer_cache_pages=48)
        trace = make_workload("latex-paper", SCALE).record(recorded)
        assert trace.end_clock - trace.start_clock == cycles
        assert recorded.machine.clock.cycles == plain.machine.clock.cycles
        assert recorded.machine.counters == plain.machine.counters

        # Replay rebuilds the recorded kernel's machine state exactly
        # (memory words are compared against the *recorded* kernel: task
        # identifiers are process-global, so a second kernel writes
        # different payload values even though its timing is identical).
        result = replay_trace(trace)
        assert result.equivalent
        assert_same_machine_state(result, recorded.machine)

    def test_replay_restores_a_nonzero_start_image(self):
        """Every shipped trace starts from all-zero memory, so record a
        second program on a kernel that already ran one: its start image
        holds nonzero pages, some that the run overwrites and some that
        end as they started, and replay must restore both kinds."""
        kernel = Kernel(policy=get_policy("F"), config=evaluation_machine(),
                        buffer_cache_pages=48)
        first = make_workload("afs-bench", SCALE)
        first.setup(kernel)
        first.execute(kernel)
        trace = make_workload("latex-paper", SCALE).record(kernel)

        machine = kernel.machine
        words = machine.memory.words_per_page
        start = trace.start_memory.reshape(-1, words)
        nonzero = start.any(axis=1)
        moved = (start != machine.memory._words.reshape(-1, words)).any(axis=1)
        assert (nonzero & moved).any()
        assert (nonzero & ~moved).any()

        assert_same_machine_state(assert_roundtrip(trace), machine)


def test_restore_copies_every_page_with_a_nonzero_word():
    memory = PhysicalMemory(8, 4096)
    image = np.zeros_like(memory._words)
    pages = image.reshape(8, -1)
    pages[1, -1] = 1 << 63           # one word, at the end of its page
    pages[4] = np.arange(1, pages.shape[1] + 1)
    pages[7, 0] = 1
    _restore_memory(memory, image)
    assert np.array_equal(memory._words, image)


class TestRandomOpsWithFaults:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           policy_name=st.sampled_from(("A", "F")))
    def test_compile_replay_roundtrips(self, seed, policy_name):
        trace = compile_workload(
            RandomOps(scale=0.5, seed=seed), get_policy(policy_name),
            inject=INJECT_PLAN, seed=seed)
        assert_roundtrip(trace)

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_conform_and_events_compose(self, seed):
        trace = compile_workload(
            RandomOps(scale=0.3, seed=seed), get_policy("F"),
            inject=INJECT_PLAN, seed=seed, conform=True, trace_events=True)
        assert_roundtrip(trace)


class TestStreamingRuns:
    def test_block_sweep_roundtrips(self):
        trace = BlockSweep().record(Kernel())
        runs = trace.ops[np.isin(trace.ops["op"],
                                 (OP_D_READ_RUN, OP_D_WRITE_RUN))]
        # Whole-page runs: each spans many lines, so replay takes the
        # cache's read_run/write_run methods rather than the
        # single-line instructions.
        assert (runs["len"] == BlockSweep.WORDS_PER_PAGE).sum() \
            == 2 * BlockSweep.PAGES
        assert_roundtrip(trace)


class TestHierarchyGeometries:
    """Non-direct-mapped L1s compile and replay bit-identically (the
    interpreter's specialized instructions assume a direct-mapped
    write-back cache, so these traces replay through the generic cache
    methods); victim and L2 geometries are rejected outright — the
    artifact cannot carry lower-level fill costs."""

    @pytest.mark.parametrize("geometry", ("2way", "4way", "wt", "2way+wt"))
    def test_set_associative_and_wt_replay_bit_identical(self, geometry):
        from repro.hw.params import apply_geometry
        config = apply_geometry(evaluation_machine(), geometry)
        trace = compile_workload(RandomOps(scale=0.3, seed=7),
                                 get_policy("F"), config=config)
        assert_roundtrip(trace)

    @pytest.mark.parametrize("geometry", ("victim8", "l2", "2way+victim8"))
    def test_victim_and_l2_geometries_are_rejected(self, geometry):
        from repro.errors import ConfigurationError
        from repro.hw.params import apply_geometry
        config = apply_geometry(evaluation_machine(), geometry)
        with pytest.raises(ConfigurationError, match="victim-cache or L2"):
            compile_workload(RandomOps(scale=0.3, seed=7), get_policy("F"),
                             config=config)


    def test_smp_configs_are_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="n_cpus=2"):
            compile_workload(RandomOps(scale=0.3, seed=7), get_policy("F"),
                             config=evaluation_machine(n_cpus=2))


class TestArtifactDeterminism:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        """The on-disk artifact is deterministic: saving, loading and
        saving again produces the same bytes, and the loaded trace still
        replays equivalently (the CI ``trace`` job asserts the same
        property across two independent compiles)."""
        trace = compile_workload(RandomOps(scale=0.3, seed=11),
                                 get_policy("F"))
        first = tmp_path / "a.trace"
        second = tmp_path / "b.trace"
        save_trace(first, trace)
        save_trace(second, load_trace(first))
        assert first.read_bytes() == second.read_bytes()
        assert_roundtrip(load_trace(second))


class TestMalformedArtifacts:
    """A damaged artifact raises :class:`TraceFormatError`, never a raw
    JSON, numpy or index error."""

    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "t.trace"
        save_trace(path, compile_workload(RandomOps(scale=0.1, seed=3),
                                          get_policy("F")))
        return path.read_bytes()

    @staticmethod
    def regions(blob):
        """(end of magic, header newline, start of sidecar)."""
        nl = blob.index(b"\n", len(MAGIC))
        sidecar = json.loads(blob[len(MAGIC):nl])["sidecar_bytes"]
        return len(MAGIC), nl, len(blob) - sidecar

    def load(self, tmp_path, data):
        path = tmp_path / "damaged.trace"
        path.write_bytes(data)
        with pytest.raises(TraceFormatError):
            load_trace(path)

    @pytest.mark.parametrize("cut", ("after-magic", "mid-header",
                                     "after-header", "mid-arrays",
                                     "mid-sidecar", "last-byte"))
    def test_truncated_artifact_is_rejected(self, blob, tmp_path, cut):
        magic, nl, sidecar = self.regions(blob)
        at = {"after-magic": magic,
              "mid-header": (magic + nl) // 2,
              "after-header": nl + 1,
              "mid-arrays": (nl + 1 + sidecar) // 2,
              "mid-sidecar": (sidecar + len(blob)) // 2,
              "last-byte": len(blob) - 1}[cut]
        self.load(tmp_path, blob[:at])

    @pytest.mark.parametrize("region", ("header", "sidecar"))
    def test_garbled_json_is_rejected(self, blob, tmp_path, region):
        magic, _, sidecar = self.regions(blob)
        at = magic if region == "header" else sidecar
        self.load(tmp_path, blob[:at] + b"\xff" + blob[at + 1:])

    def test_a_flipped_payload_byte_fails_the_sha256(self, blob, tmp_path):
        _, nl, sidecar = self.regions(blob)
        for at in (nl + 1, (nl + 1 + sidecar) // 2, len(blob) - 1):
            damaged = blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:]
            path = tmp_path / "damaged.trace"
            path.write_bytes(damaged)
            with pytest.raises(TraceFormatError, match="sha256"):
                load_trace(path)

    @pytest.mark.parametrize("field,edit,image", [
        ("phys_pages", lambda config: config["phys_pages"] // 2, "memory"),
        ("dcache", lambda config: dict(config["dcache"],
                                       size=config["dcache"]["size"] // 2),
         "dcache_tags"),
        ("icache", lambda config: dict(
            config["icache"], line_size=config["icache"]["line_size"] * 2),
         "icache_tags"),
    ], ids=("phys_pages-halved", "dcache-size-halved", "icache-line-doubled"))
    def test_a_config_that_does_not_fit_the_images_is_rejected(
            self, blob, tmp_path, field, edit, image):
        """The sha256 covers only the payload, so a header whose config
        no longer fits the start images still passes it; the shape check
        rejects it before replay would copy an image into the wrong
        shape."""
        path = tmp_path / "doctored.trace"
        path.write_bytes(doctored_header(blob, field, edit))
        with pytest.raises(TraceFormatError, match=f"the {image} image"):
            load_trace(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_damage_loads_or_raises_a_format_error(self, blob,
                                                       tmp_path_factory,
                                                       data):
        """A flipped byte anywhere, or a cut anywhere, either still loads
        — only the header can have changed, the sha256 guards the rest —
        or raises TraceFormatError; never another exception."""
        _, nl, _ = self.regions(blob)
        if data.draw(st.booleans(), label="truncate"):
            damaged = blob[:data.draw(st.integers(0, len(blob) - 1))]
        else:
            # Half the flips land in the header, where JSON has the most
            # ways to stay valid.
            at = data.draw(st.one_of(st.integers(0, nl),
                                     st.integers(0, len(blob) - 1)))
            bit = data.draw(st.integers(0, 7))
            damaged = (blob[:at] + bytes([blob[at] ^ (1 << bit)])
                       + blob[at + 1:])
        path = tmp_path_factory.mktemp("fuzz") / "damaged.trace"
        path.write_bytes(damaged)
        try:
            trace = load_trace(path)
        except TraceFormatError:
            return
        original = load_trace(self.original(blob, tmp_path_factory))
        assert np.array_equal(trace.ops, original.ops)
        assert np.array_equal(trace.values, original.values)
        assert trace.sidecar == original.sidecar
        again = path.with_name("again.trace")
        save_trace(again, trace)
        load_trace(again)

    @staticmethod
    def original(blob, tmp_path_factory):
        path = tmp_path_factory.mktemp("orig") / "t.trace"
        path.write_bytes(blob)
        return path


def doctored_header(blob: bytes, field: str, edit) -> bytes:
    """``blob`` with ``config[field]`` in its header replaced by
    ``edit(config)``; the payload and its sha256 stay intact."""
    nl = blob.index(b"\n", len(MAGIC))
    header = json.loads(blob[len(MAGIC):nl])
    header["config"][field] = edit(header["config"])
    return (MAGIC + json.dumps(header, sort_keys=True,
                               separators=(",", ":")).encode("utf-8")
            + blob[nl:])
