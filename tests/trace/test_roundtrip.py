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

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import evaluation_machine, make_workload
from repro.cli import main
from repro.hw.params import WORD_SIZE
from repro.hw.physmem import PhysicalMemory
from repro.kernel.kernel import Kernel
from repro.policy import get_policy
from repro.trace import compile_workload, load_trace, replay_trace, save_trace
from repro.trace.format import (MAGIC, OP_D_READ_RUN, OP_D_WRITE_RUN,
                                TraceFormatError, decode_counters)
from repro.trace.interp import _restore_memory
from repro.trace.record import capture_memory_image, record_run
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


def record(workload, kernel):
    """Set ``workload`` up on ``kernel`` and record its execute phase."""
    workload.setup(kernel)
    return record_run(workload, kernel)


def dense_start_image(trace):
    """The trace's sparse start memory expanded to one
    ``(phys_pages, words_per_page)`` array."""
    config = trace.config
    pages = np.zeros((config["phys_pages"], config["page_size"] // WORD_SIZE),
                     dtype=np.uint64)
    pages[trace.start_pages] = trace.start_rows
    return pages


def record_on_a_used_kernel(first, second):
    """Run ``first`` to its end, then record ``second`` on the same
    kernel, so the recorded window starts from memory with nonzero pages.
    Returns the trace, the kernel, and memory as it was when the window
    opened."""
    kernel = Kernel(policy=get_policy("F"), config=evaluation_machine(),
                    buffer_cache_pages=48)
    first.setup(kernel)
    first.execute(kernel)
    second.setup(kernel)
    before = kernel.machine.memory._words.copy()
    return record_run(second, kernel), kernel, before


@pytest.fixture(scope="module")
def used_kernel_trace():
    """A RandomOps trace whose start memory holds nonzero pages."""
    trace, _, _ = record_on_a_used_kernel(
        make_workload("afs-bench", 0.1), RandomOps(scale=0.1, seed=3))
    assert len(trace.start_pages)
    return trace


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
        # A paper program starts on a freshly booted machine, whose
        # memory is all zero: its trace stores no start page at all.
        words = trace.config["page_size"] // WORD_SIZE
        assert trace.start_pages.shape == (0,)
        assert trace.start_rows.shape == (0, words)
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
        trace = record(make_workload("latex-paper", SCALE), recorded)
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
        trace, kernel, before = record_on_a_used_kernel(
            make_workload("afs-bench", SCALE),
            make_workload("latex-paper", SCALE))

        machine = kernel.machine
        words = machine.memory.words_per_page
        start = dense_start_image(trace)
        assert np.array_equal(start.ravel(), before)
        nonzero = start.any(axis=1)
        assert np.array_equal(nonzero.nonzero()[0], trace.start_pages)
        moved = (start != machine.memory._words.reshape(-1, words)).any(axis=1)
        assert (nonzero & moved).any()
        assert (nonzero & ~moved).any()

        assert_same_machine_state(assert_roundtrip(trace), machine)


def test_restore_copies_every_page_with_a_nonzero_word():
    memory = PhysicalMemory(8, 4096)
    pages = memory._words.reshape(8, -1)
    pages[1, -1] = 1 << 63           # one word, at the end of its page
    pages[4] = np.arange(1, pages.shape[1] + 1)
    pages[7, 0] = 1
    numbers, rows = capture_memory_image(memory)
    assert numbers.tolist() == [1, 4, 7]
    assert numbers.dtype == np.int64 and rows.dtype == np.uint64
    fresh = PhysicalMemory(8, 4096)
    _restore_memory(fresh, numbers, rows)
    assert np.array_equal(fresh._words, memory._words)


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
        trace = record(BlockSweep(), Kernel())
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

    def test_save_load_keeps_the_sparse_memory_image(self, tmp_path,
                                                      used_kernel_trace):
        trace = used_kernel_trace
        path = tmp_path / "t.trace"
        save_trace(path, trace)
        loaded = load_trace(path)
        assert loaded.start_pages.dtype == np.int64
        assert loaded.start_rows.dtype == np.uint64
        assert np.array_equal(loaded.start_pages, trace.start_pages)
        assert np.array_equal(loaded.start_rows, trace.start_rows)
        assert_roundtrip(loaded)

    def test_a_saved_trace_is_smaller_than_its_machines_memory(self,
                                                              tmp_path):
        """The file carries only the nonzero start pages, not a dense
        copy of memory (8 MiB of words on a 1,024-page machine)."""
        config = evaluation_machine(phys_pages=1024)
        trace = compile_workload(make_workload("latex-paper", 0.1),
                                 get_policy("F"), config=config)
        path = tmp_path / "t.trace"
        save_trace(path, trace)
        memory_bytes = PhysicalMemory(1024, config.page_size)._words.nbytes
        assert memory_bytes == 8 << 20
        assert path.stat().st_size < memory_bytes


class TestMalformedArtifacts:
    """A damaged artifact raises :class:`TraceFormatError`, never a raw
    JSON, numpy or index error."""

    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory, used_kernel_trace):
        """An artifact whose start memory stores nonzero pages, so the
        damage reaches the sparse image's arrays too."""
        path = tmp_path_factory.mktemp("trace") / "t.trace"
        save_trace(path, used_kernel_trace)
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

    @pytest.mark.parametrize("field,edit,message", [
        ("phys_pages", lambda config: config["phys_pages"] // 2,
         "the memory image names pages"),
        ("dcache", lambda config: dict(config["dcache"],
                                       size=config["dcache"]["size"] // 2),
         "the dcache_tags image"),
        ("icache", lambda config: dict(
            config["icache"], line_size=config["icache"]["line_size"] * 2),
         "the icache_tags image"),
        ("page_size", lambda config: config["page_size"] // 2,
         "the memory_rows image"),
    ], ids=("phys_pages-halved", "dcache-size-halved", "icache-line-doubled",
            "page_size-halved"))
    def test_a_config_that_does_not_fit_the_images_is_rejected(
            self, blob, tmp_path, field, edit, message):
        """The sha256 covers only the payload, so a header whose config
        no longer fits the start images still passes it; the shape and
        range checks reject it before replay would copy an image into the
        wrong shape."""
        def doctor(header):
            header["config"][field] = edit(header["config"])

        path = tmp_path / "doctored.trace"
        path.write_bytes(doctored_header(blob, doctor))
        with pytest.raises(TraceFormatError, match=message):
            load_trace(path)

    def test_an_op_outside_the_configs_memory_is_rejected(self, tmp_path):
        """A paper-style trace stores no memory page, so only its op
        stream ties it to the size of memory: shrinking ``phys_pages``
        below the frames its ops name is rejected at load."""
        trace = compile_workload(RandomOps(scale=0.1, seed=3),
                                 get_policy("F"))
        assert not len(trace.start_pages)
        path = tmp_path / "t.trace"
        save_trace(path, trace)

        def doctor(header):
            header["config"]["phys_pages"] //= 2

        path.write_bytes(doctored_header(path.read_bytes(), doctor))
        with pytest.raises(TraceFormatError,
                           match=r"op \d+ names physical bytes .* outside"):
            load_trace(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda t: dict(start_pages=t.start_pages[::-1].copy(),
                        start_rows=t.start_rows[::-1].copy()),
         "not strictly increasing"),
        (lambda t: dict(start_pages=np.repeat(t.start_pages[:1], 2),
                        start_rows=np.repeat(t.start_rows[:1], 2, axis=0)),
         "not strictly increasing"),
        (lambda t: dict(start_pages=np.concatenate(
            [[-1], t.start_pages[1:]])), r"names pages -1\.\."),
        (lambda t: dict(start_pages=np.concatenate(
            [t.start_pages[:-1], [t.config["phys_pages"]]])),
         r"names pages \d+\.\.320, but the header's config has 320"),
        (lambda t: dict(start_rows=t.start_rows[:, :-1].copy()),
         r"the memory_rows image has shape \[\d+, 1023\]"),
        (lambda t: dict(start_rows=t.start_rows[:-1].copy()),
         "the memory_rows image has shape"),
        (lambda t: dict(start_pages=t.start_pages.reshape(-1, 1).copy()),
         "the memory_pages image has shape"),
        (lambda t: dict(start_rows=np.where(
            (np.arange(len(t.start_pages)) == 2)[:, None], np.uint64(0),
            t.start_rows)), "stores page .* although it is all zero"),
        (lambda t: dict(start_dcache=dataclasses.replace(
            t.start_dcache, tags=np.full_like(t.start_dcache.tags,
                                              memory_lines(t, "dcache")))),
         "the dcache image tags lines outside"),
    ], ids=("pages-descending", "page-repeated", "page-negative",
            "page-past-memory", "rows-short", "row-missing",
            "pages-two-dimensional", "row-all-zero", "tag-past-memory"))
    def test_a_noncanonical_memory_image_is_rejected(
            self, used_kernel_trace, tmp_path, edit, message):
        """A file written with a re-computed sha256 passes the integrity
        check, so the loader checks the sparse image itself: page numbers
        ascending inside memory, one row of the page's size each, no row
        all zero (so one machine state has exactly one encoding)."""
        trace = used_kernel_trace
        path = tmp_path / "crafted.trace"
        save_trace(path, dataclasses.replace(trace, **edit(trace)))
        with pytest.raises(TraceFormatError, match=message):
            load_trace(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda h: h["config"]["cost"].update(extra=1),
         "unexpected keyword argument 'extra'"),
        (lambda h: h["start"]["counters"].update(bogus=1),
         r"start counters fields \['bogus'\]"),
        (lambda h: h["start"]["counters"]["page_flushes"].update(
            {"dcache|no-such-reason": 1}), "'no-such-reason' is not a valid"),
        (lambda h: h["end"]["counters"]["faults"].update(
            {"no-such-kind": 1}), "'no-such-kind' is not a valid"),
        (lambda h: h["start"].update(tick_d="0"), "start tick_d '0' is not"),
        (lambda h: h["start"].update(tick_i=0.5), "start tick_i 0.5 is not"),
        (lambda h: h["start"].update(clock=[0]), r"start clock \[0\] is not"),
        (lambda h: h.update(format=2),
         r"trace format 2 unsupported \(this build reads 3\)"),
        (lambda h: h["config"].update(phys_pages=0),
         "must be positive integers"),
        (lambda h: h["config"]["cost"].update(cache_hit=-1),
         "config cost: cost cache_hit must be non-negative, got -1"),
        (lambda h: h["config"]["cost"].update(cache_hit=1.5),
         "config cost: cost cache_hit must be an integer, got 1.5"),
        (lambda h: h["config"]["cost"].update(line_fill="20"),
         "config cost: cost line_fill must be an integer, got '20'"),
        (lambda h: h["config"]["cost"].update(flush_line_hit=True),
         "config cost: cost flush_line_hit must be an integer, got True"),
    ], ids=("cost-extra-key", "counters-unknown-scalar",
            "counters-unknown-reason", "counters-unknown-fault-kind",
            "tick_d-string", "tick_i-float", "clock-list", "format-2",
            "phys_pages-zero", "cost-negative", "cost-float",
            "cost-string", "cost-bool"))
    def test_a_doctored_header_field_is_a_format_error(
            self, blob, tmp_path, capsys, edit, message):
        """Replay builds its machine from these header fields, which the
        sha256 does not cover: each doctored one is rejected at load, and
        ``trace replay`` reports it as one error line, status 2."""
        path = tmp_path / "doctored.trace"
        path.write_bytes(doctored_header(blob, edit))
        with pytest.raises(TraceFormatError, match=message):
            load_trace(path)
        assert main(["trace", "replay", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("repro: error: ")

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
        assert np.array_equal(trace.start_pages, original.start_pages)
        assert np.array_equal(trace.start_rows, original.start_rows)
        assert trace.sidecar == original.sidecar
        again = path.with_name("again.trace")
        save_trace(again, trace)
        load_trace(again)

    @staticmethod
    def original(blob, tmp_path_factory):
        path = tmp_path_factory.mktemp("orig") / "t.trace"
        path.write_bytes(blob)
        return path


def memory_lines(trace, cache: str) -> int:
    """How many of ``cache``'s lines the trace's memory holds."""
    config = trace.config
    return (config["phys_pages"] * config["page_size"]
            // config[cache]["line_size"])


def doctored_header(blob: bytes, edit) -> bytes:
    """``blob`` with its header changed in place by ``edit(header)``;
    the payload and its sha256 stay intact."""
    nl = blob.index(b"\n", len(MAGIC))
    header = json.loads(blob[len(MAGIC):nl])
    edit(header)
    return (MAGIC + json.dumps(header, sort_keys=True,
                               separators=(",", ":")).encode("utf-8")
            + blob[nl:])
