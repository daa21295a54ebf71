"""Multi-CPU workloads: the paper's sharing patterns on N coherent CPUs.

Section 3.3 claims a cache-coherent multiprocessor changes nothing about
the software alias problem: hardware snooping resolves sharing through
*aligned* addresses (equivalent lines), while *unaligned* sharing keeps
paying the same consistency faults and flush/purge traffic as on one
CPU.  These workloads make the claim measurable:

* :func:`run_smp_ring` — producer/consumer pairs exchanging records
  through shared rings (:mod:`repro.workloads.shmem_ring`), each pair
  split across two CPUs and driven by the deterministic round-robin
  :class:`~repro.kernel.scheduler.Scheduler`.  Aligned rings ride the
  snoop protocol; unaligned rings ping-pong through software
  consistency faults on every CPU.
* :func:`measure` / :func:`render` / :func:`check` — the 1..8-CPU
  aligned-vs-unaligned ring curve (``repro smp``, ``BENCH_smp.json``)
  and its gates.

The simulator charges every CPU to one shared clock (accesses are
serialized), so these results measure per-record *cost* — coherence
traffic, faults, flushes, cycles — not parallel throughput.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.hw.stats import FaultKind
from repro.kernel.kernel import Kernel
from repro.kernel.process import UserProcess
from repro.kernel.scheduler import Scheduler
from repro.workloads.shmem_ring import HEAD_WORD, TAIL_WORD, SharedRing


@dataclass(frozen=True)
class SmpRingResult:
    """Measurements from one multi-CPU ring run."""

    n_cpus: int
    aligned: bool
    pairs: int
    records: int                 # total across all pairs
    cycles: int
    consistency_faults: int
    page_flushes: int
    coherence_invalidations: int
    coherence_writebacks: int
    checksum: int

    @property
    def cycles_per_record(self) -> float:
        return self.cycles / self.records if self.records else 0.0

    def to_dict(self) -> dict:
        data = asdict(self)
        data["cycles_per_record"] = self.cycles_per_record
        return data


# ---- producer/consumer rings across CPUs -----------------------------------


def _produce(ring: SharedRing, records: int, batch: int):
    task = ring.producer.task
    produced = 0
    while produced < records:
        head = task.read(ring.prod_base, HEAD_WORD)
        tail = task.read(ring.prod_base, TAIL_WORD)
        space = ring.capacity - 1 - (head - tail)
        for _ in range(min(batch, records - produced, space)):
            ring.produce(produced)
            produced += 1
        yield


def _consume(ring: SharedRing, records: int, batch: int, sink: list):
    consumed = 0
    while consumed < records:
        for _ in range(batch):
            value = ring.consume()
            if value is None:
                break
            sink[0] = (sink[0] + value) & 0xFFFFFFFF
            consumed += 1
        yield


def run_smp_ring(kernel: Kernel, records_per_pair: int = 120,
                 data_pages: int = 2, aligned: bool = True,
                 batch: int = 4) -> SmpRingResult:
    """Drive one ring per CPU pair through the round-robin scheduler.

    With N CPUs there are ``max(1, N // 2)`` rings; pair ``p`` places
    its producer on CPU ``2p mod N`` and its consumer on ``(2p+1) mod
    N``, so from two CPUs up every ring's control and data pages bounce
    between two caches.  All rings interleave in one deterministic
    schedule — the contention pattern, not just the totals, is
    reproducible.
    """
    n = kernel.machine.config.n_cpus
    pairs = max(1, n // 2)
    scheduler = Scheduler(kernel)

    rings = []
    sinks = []
    for p in range(pairs):
        prod_cpu, cons_cpu = (2 * p) % n, (2 * p + 1) % n
        producer = UserProcess(kernel, f"ring{p}-producer",
                               task=kernel.create_task(f"ring{p}-producer",
                                                       cpu=prod_cpu))
        consumer = UserProcess(kernel, f"ring{p}-consumer",
                               task=kernel.create_task(f"ring{p}-consumer",
                                                       cpu=cons_cpu))
        ring = SharedRing(kernel, producer, consumer, data_pages, aligned)
        sink = [0]
        scheduler.spawn(f"ring{p}-produce",
                        _produce(ring, records_per_pair, batch), cpu=prod_cpu)
        scheduler.spawn(f"ring{p}-consume",
                        _consume(ring, records_per_pair, batch, sink),
                        cpu=cons_cpu)
        rings.append(ring)
        sinks.append(sink)

    counters = kernel.machine.counters
    start_cycles = kernel.machine.clock.cycles
    start_faults = counters.faults[FaultKind.CONSISTENCY]
    start_flushes = counters.total_flushes()
    start_inval = counters.coherence_invalidations
    start_wb = counters.coherence_writebacks

    scheduler.run()

    expected = sum(range(records_per_pair)) & 0xFFFFFFFF
    checksum = 0
    for sink in sinks:
        assert sink[0] == expected, "ring payload corrupted"
        checksum = (checksum + sink[0]) & 0xFFFFFFFF

    result = SmpRingResult(
        n_cpus=n,
        aligned=aligned,
        pairs=pairs,
        records=pairs * records_per_pair,
        cycles=kernel.machine.clock.cycles - start_cycles,
        consistency_faults=(counters.faults[FaultKind.CONSISTENCY]
                            - start_faults),
        page_flushes=counters.total_flushes() - start_flushes,
        coherence_invalidations=(counters.coherence_invalidations
                                 - start_inval),
        coherence_writebacks=counters.coherence_writebacks - start_wb,
        checksum=checksum,
    )
    for ring in rings:
        ring.producer.exit()
        ring.consumer.exit()
    return result


# ---- the scaling curve (``repro smp``, BENCH_smp.json) ---------------------

CPU_COUNTS = tuple(range(1, 9))
RECORDS = 120
DATA_PAGES = 2


def measure(executor=None) -> dict:
    """Run the ring at every CPU count, aligned and unaligned, one farm
    job (``JobSpec.smp``) per point on ``executor`` (default in-process)."""
    from repro.farm import Executor, JobSpec, job_payloads

    executor = executor or Executor(jobs=1)
    specs = [JobSpec.smp(n_cpus=n, aligned=aligned, records=RECORDS,
                         data_pages=DATA_PAGES)
             for n in CPU_COUNTS for aligned in (True, False)]
    points = [p["result"] for p in job_payloads(executor, specs)]
    return {
        "workload": "smp-ring",
        "records_per_pair": RECORDS,
        "data_pages": DATA_PAGES,
        "cpu_counts": list(CPU_COUNTS),
        "points": points,
        "farm": executor.stats.as_dict(),
    }


def _by_n(result: dict, aligned: bool) -> dict[int, dict]:
    return {p["n_cpus"]: p for p in result["points"]
            if p["aligned"] is aligned}


def render(result: dict) -> str:
    aligned, unaligned = _by_n(result, True), _by_n(result, False)
    lines = [
        f"SMP scaling: ring workload, {result['records_per_pair']} "
        f"records/pair, {result['data_pages']} data pages "
        "(cycles/record is shared-clock cost, not throughput)",
        "",
        f"{'CPUs':>4} {'aligned c/r':>12} {'unalign c/r':>12} "
        f"{'al faults':>10} {'un faults':>10} {'al snoop inv':>13} "
        f"{'un snoop inv':>13}",
    ]
    for n in result["cpu_counts"]:
        a, u = aligned[n], unaligned[n]
        lines.append(
            f"{n:>4} {a['cycles_per_record']:>12.1f} "
            f"{u['cycles_per_record']:>12.1f} "
            f"{a['consistency_faults']:>10} {u['consistency_faults']:>10} "
            f"{a['coherence_invalidations']:>13} "
            f"{u['coherence_invalidations']:>13}")
    lines.append("")
    lines.append("snooping resolves aligned sharing; unaligned aliases "
                 "never snoop-hit and keep the uniprocessor's software "
                 "consistency cost on every CPU (Section 3.3)")
    return "\n".join(lines)


def check(result: dict) -> list[str]:
    """The Section 3.3 gates; returns failure descriptions (empty ==
    pass)."""
    aligned, unaligned = _by_n(result, True), _by_n(result, False)
    failures = []
    for n in result["cpu_counts"]:
        a, u = aligned[n], unaligned[n]
        if u["cycles_per_record"] < a["cycles_per_record"]:
            failures.append(
                f"N={n}: unaligned {u['cycles_per_record']:.1f} c/r "
                f"cheaper than aligned {a['cycles_per_record']:.1f}")
        if u["consistency_faults"] <= a["consistency_faults"]:
            failures.append(
                f"N={n}: unaligned consistency faults "
                f"({u['consistency_faults']}) not above aligned "
                f"({a['consistency_faults']})")
        if u["coherence_invalidations"] != 0:
            failures.append(
                f"N={n}: unaligned sharing snoop-hit "
                f"{u['coherence_invalidations']} times — aliases in "
                f"different sets must be invisible to the bus")
        if n >= 2 and a["coherence_invalidations"] == 0:
            failures.append(
                f"N={n}: aligned sharing generated no coherence traffic")
    return failures
