"""The chaos harness: detected-or-harmless, empirically.

A chaos run boots a kernel with the staleness oracle in *recording* mode,
attaches a seeded :class:`~repro.faults.injector.FaultInjector`, and
drives the randomized alias/remap/DMA stressor (the witness workload of
the no-stale-data property tests) through a fault plan.  The harness then
checks the core invariant the paper's correctness condition demands under
faults:

**every consistency-affecting injection is observed by the oracle or
provably harmless, and every transient device fault is absorbed by a
recovery path — a run never silently completes with stale data.**

Concretely, :func:`verify_report` asserts, per run:

1. *typed failure only* — a run either completes or ends in a
   :class:`~repro.errors.ReproError` subclass (fail-stop detection);
2. *attribution* — every oracle violation lands on a frame some
   consistency injection targeted (the system itself adds no staleness);
   likewise every divergence the lockstep conformance shadow records
   lands on a frame a divergence-creating injection targeted — with no
   such injection, the shadow must agree with the Table 2 model exactly
   (see docs/conformance.md for the conformance/chaos interaction);
3. *immediate detection* — a skipped DMA-read preparation that was
   consequential (memory truly lagged program order) is observed by the
   very next device read, unless that transfer itself failed and was
   retried after a clean preparation;
4. *recovery correctness* — when no divergence-creating injection fired,
   the run must be violation-free, and once it completes the platter and
   memory contents of every file block match program order exactly
   (checked word-for-word after a clean sync);
5. *visible recovery cost* — absorbed retries appear in the counters and
   their backoff is charged to the simulated clock.

Determinism: a (seed, preset, steps) triple fully determines the run —
plans are drawn from ``random.Random(seed)``, the stressor from its own
seeded RNG, and all scheduling is in simulated cycles.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.conformance.lockstep import (ConformanceMonitor,
                                        SmpConformanceMonitor)
from repro.errors import ReproError
from repro.faults.injector import (CONSISTENCY_POINTS, DIVERGENCE_POINTS,
                                   SNOOP_POINTS, FaultInjector, FaultPlan,
                                   FaultRule)
from repro.hw.params import MachineConfig, small_machine
from repro.kernel.kernel import Kernel
from repro.policy import ConsistencyPolicy
from repro.vm.policy import NEW_SYSTEM, PolicyConfig
from repro.workloads.random_ops import AliasStressor

#: preset name -> (point, base rate, max burst) triples the plan builder
#: samples from.  Bursts stay below the disk's four-attempt budget so
#: transient faults are recoverable by construction; the harness also
#: exercises exhaustion separately via dedicated unit tests.
PRESETS: dict[str, tuple[tuple[str, float, int], ...]] = {
    "control": (),
    "transient": (
        ("disk.read.transient", 0.10, 2),
        ("disk.write.transient", 0.10, 2),
        ("dma.transfer.corrupt", 0.06, 1),
        ("dma.transfer.partial", 0.06, 1),
    ),
    "consistency": (
        ("pmap.flush.drop", 0.05, 1),
        ("pmap.flush.duplicate", 0.05, 1),
        ("pmap.purge.drop", 0.05, 1),
        ("pmap.purge.duplicate", 0.05, 1),
        ("pmap.dma_read_prep.skip", 0.15, 1),
        ("pmap.dma_write_prep.skip", 0.15, 1),
    ),
    "recovery": (
        ("tlb.entry.corrupt", 0.02, 1),
        ("kernel.fault.stall", 0.10, 3),
        ("dma.transfer.corrupt", 0.06, 2),
    ),
    "mixed": (
        ("disk.read.transient", 0.06, 2),
        ("disk.write.transient", 0.06, 2),
        ("dma.transfer.corrupt", 0.04, 1),
        ("dma.transfer.partial", 0.04, 1),
        ("pmap.flush.drop", 0.04, 1),
        ("pmap.purge.drop", 0.04, 1),
        ("pmap.flush.duplicate", 0.04, 1),
        ("pmap.purge.duplicate", 0.04, 1),
        ("pmap.dma_read_prep.skip", 0.10, 1),
        ("pmap.dma_write_prep.skip", 0.10, 1),
        ("tlb.entry.corrupt", 0.02, 1),
        ("kernel.fault.stall", 0.08, 3),
    ),
    # Snoop races only matter on a cluster (the points are consulted per
    # resident/dirty peer copy, so a uniprocessor run leaves them
    # silent).  Rates are high relative to the device presets because
    # every consultation is consequential by construction — the cluster
    # only asks the injector when a racing copy actually exists.
    "snoop": (
        ("smp.snoop.invalidate.drop", 0.15, 2),
        ("smp.snoop.writeback.stale", 0.20, 2),
        ("smp.snoop.writeback.lost", 0.15, 2),
        ("smp.snoop.invalidate.misroute", 0.15, 2),
    ),
}


def build_plan(seed: int, preset: str = "mixed") -> FaultPlan:
    """Draw a randomized fault plan: which points of the preset are armed,
    at what rate and burst, is itself decided by the seed."""
    if preset not in PRESETS:
        return FaultPlan.parse(preset, seed=seed)
    rng = random.Random(seed)
    rules = []
    for point, base_rate, max_burst in PRESETS[preset]:
        if rng.random() < 0.25:
            continue  # this run leaves the point dormant
        rate = base_rate * (0.5 + rng.random())
        burst = rng.randint(1, max_burst)
        rules.append(FaultRule(point, rate=min(rate, 1.0), burst=burst))
    return FaultPlan(seed=seed, rules=tuple(rules))


def chaos_machine(**overrides) -> MachineConfig:
    """A compact machine for chaos runs: small caches so aliases collide
    often, enough frames that the stressor can churn mappings."""
    return small_machine(phys_pages=overrides.pop("phys_pages", 192),
                         **overrides)


@dataclass
class ChaosReport:
    """Everything one chaos run produced, plus the verification verdict."""

    seed: int
    preset: str
    steps: int
    completed: bool
    error: str | None                 # "ErrorType: message" when fail-stop
    injections: int
    resolutions: Counter = field(default_factory=Counter)
    points_fired: Counter = field(default_factory=Counter)
    violations: int = 0
    unattributed_violations: int = 0
    conform_events: int = 0           # events the lockstep shadow replayed
    conform_divergences: int = 0
    conform_unattributed: int = 0
    n_cpus: int = 1
    #: cpu -> divergence count from the per-CPU lockstep shadows (empty on
    #: a uniprocessor run, and for reports from before the SMP harness)
    conform_per_cpu: dict = field(default_factory=dict)
    cycles: int = 0
    disk_retries: int = 0
    tlb_parity_recoveries: int = 0
    frames_quarantined: int = 0
    oracle_checks: int = 0
    deep_verified: bool = False       # final platter/memory sweep ran clean
    failures: list[str] = field(default_factory=list)
    #: per-kind counts from the structured event bus (only populated when
    #: the run was traced; injections and divergences appear here too)
    event_summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """A JSON-safe encoding that :meth:`from_dict` inverts exactly —
        the farm ships chaos reports across process and cache boundaries,
        and the serial-vs-parallel equivalence tests compare reports via
        this encoding."""
        out = asdict(self)
        out["resolutions"] = dict(self.resolutions)
        out["points_fired"] = dict(self.points_fired)
        # JSON turns int keys into strings; encode as strings here so the
        # dict survives a dumps/loads round-trip unchanged.
        out["conform_per_cpu"] = {str(k): v
                                  for k, v in self.conform_per_cpu.items()}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosReport":
        data = dict(data)
        data["resolutions"] = Counter(data.get("resolutions", {}))
        data["points_fired"] = Counter(data.get("points_fired", {}))
        data["failures"] = list(data.get("failures", []))
        data["event_summary"] = dict(data.get("event_summary", {}))
        data["conform_per_cpu"] = {int(k): v for k, v in
                                   data.get("conform_per_cpu", {}).items()}
        return cls(**data)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "ok" if self.ok else "FAIL(" + "; ".join(self.failures) + ")"
        end = "completed" if self.completed else f"stopped[{self.error}]"
        return (f"seed={self.seed} preset={self.preset} {end} "
                f"inj={self.injections} viol={self.violations} "
                f"conform={self.conform_divergences} "
                f"retries={self.disk_retries} quarantined="
                f"{self.frames_quarantined} cycles={self.cycles} {status}")


def run_chaos(seed: int, preset: str = "mixed", steps: int = 200,
              n_tasks: int = 3, n_pages: int = 4,
              policy: PolicyConfig | ConsistencyPolicy | str = NEW_SYSTEM,
              config: MachineConfig | None = None,
              conform: bool = True, trace: bool = False,
              n_cpus: int = 1) -> ChaosReport:
    """One seeded chaos run over the witness workload; returns the report
    with invariant verification already applied.  ``policy`` accepts a
    flag configuration, a registered policy name, or a
    :class:`~repro.policy.ConsistencyPolicy` instance — external
    strategies (``rlt``, ``vespa``) run under the same invariant.  With ``conform`` the
    lockstep conformance shadow records divergences alongside the value
    oracle (see invariant 2 for how they are attributed).  With ``trace``
    the structured event bus records the run, so every injection and
    divergence is also a clock-stamped trace event
    (``report.event_summary``).  With ``n_cpus > 1`` the run boots a
    :class:`~repro.hw.smp.CoherentCluster`, the stressor's tasks spread
    over the CPUs, the ``smp.snoop.*`` race points arm, and the
    conformance shadow becomes one lockstep oracle *per CPU*
    (divergences name the CPU that diverged)."""
    plan = build_plan(seed, preset)
    kernel = Kernel(policy=policy,
                    config=config or chaos_machine(n_cpus=n_cpus),
                    buffer_cache_pages=24)
    cluster = kernel.machine.cluster
    n_cpus = 1 if cluster is None else len(cluster)
    oracle = kernel.machine.oracle
    oracle.record_only = True
    if trace:
        kernel.machine.bus.enable()
    monitor = None
    if conform:
        if n_cpus > 1:
            monitor = SmpConformanceMonitor(kernel, record_only=True,
                                            max_events=512).attach()
        else:
            monitor = ConformanceMonitor(kernel, record_only=True,
                                         max_events=512).attach()
    injector = FaultInjector(plan, kernel.machine.clock)
    injector.attach_kernel(kernel)

    # Setup runs clean: faults are scoped to the measured chaos window.
    with injector.paused():
        stressor = AliasStressor(kernel, n_tasks=n_tasks, n_pages=n_pages,
                                 seed=seed)

    completed, error = True, None
    try:
        stressor.run(steps)
    except ReproError as exc:
        completed, error = False, f"{type(exc).__name__}: {exc}"

    # End-of-run verification also runs clean.
    injector.disable()
    deep_verified = False
    if completed:
        kernel.shutdown()
        deep_verified = _deep_verify_possible(injector)
        if deep_verified:
            _verify_final_state(kernel)
    if monitor is not None:
        monitor.detach()

    counters = kernel.machine.counters
    report = ChaosReport(
        seed=seed, preset=preset, steps=steps, completed=completed,
        error=error, injections=len(injector.audit),
        resolutions=Counter(r.resolution or "latent"
                            for r in injector.audit),
        points_fired=Counter(r.point for r in injector.audit),
        violations=len(oracle.violations),
        conform_events=monitor.events_seen if monitor else 0,
        conform_divergences=len(monitor.divergences) if monitor else 0,
        n_cpus=n_cpus,
        conform_per_cpu=(monitor.per_cpu_divergences()
                         if isinstance(monitor, SmpConformanceMonitor)
                         else {}),
        cycles=kernel.machine.clock.cycles,
        disk_retries=counters.disk_retries,
        tlb_parity_recoveries=counters.tlb_parity_recoveries,
        frames_quarantined=counters.frames_quarantined,
        oracle_checks=oracle.checks,
        deep_verified=deep_verified,
        event_summary=kernel.machine.bus.summary() if trace else {},
    )
    verify_report(report, injector, kernel, monitor)
    return report


def _deep_verify_possible(injector: FaultInjector) -> bool:
    """The word-for-word final sweep only applies when no injection could
    have legitimately diverged state (dropped flushes/purges and skipped
    preparations leave latent divergence by design)."""
    return not any(r.point in DIVERGENCE_POINTS for r in injector.audit)


def _verify_final_state(kernel: Kernel) -> None:
    """After a clean sync: every resident file block's frame must match
    program order in memory, and the platter must hold the same words."""
    oracle = kernel.machine.oracle
    memory = kernel.machine.memory
    for (file_id, page), entry in kernel.buffer_cache._entries.items():
        expected = oracle.expected_page(memory.page_base(entry.ppage))
        got = memory.read_page(entry.ppage)
        if not np.array_equal(got, expected):
            raise ReproError(
                f"final memory sweep: frame {entry.ppage} of block "
                f"({file_id}, {page}) diverges from program order")
        if kernel.disk.has_block(file_id, page) and not entry.dirty:
            platter = kernel.disk.block(file_id, page)
            if not np.array_equal(platter, expected):
                raise ReproError(
                    f"final platter sweep: block ({file_id}, {page}) "
                    f"diverges from program order")


def verify_report(report: ChaosReport, injector: FaultInjector,
                  kernel: Kernel,
                  monitor: ConformanceMonitor | None = None) -> ChaosReport:
    """Apply the detected-or-harmless invariant; failures are appended to
    ``report.failures`` (empty list == the run upholds the invariant)."""
    oracle = kernel.machine.oracle

    # 2. Attribution: the system itself must add no staleness.
    frames = injector.consistency_frames()
    page_size = kernel.machine.page_size
    for violation in oracle.violations:
        if violation.paddr // page_size not in frames:
            report.unattributed_violations += 1
            report.failures.append(
                f"violation at paddr {violation.paddr:#x} not attributable "
                f"to any injected consistency fault")

    # 2b. Conformance attribution: every divergence the lockstep shadow
    # recorded must land on a frame a divergence-creating injection
    # targeted; with no such injection the shadow must agree exactly.
    if monitor is not None:
        diverged_frames = {r.ppage for r in injector.audit
                           if r.point in DIVERGENCE_POINTS
                           and r.ppage is not None}
        for divergence in monitor.divergences:
            if divergence.frame not in diverged_frames:
                report.conform_unattributed += 1
                where = ("" if divergence.cpu is None
                         else f"cpu{divergence.cpu}: ")
                report.failures.append(
                    f"{where}conformance divergence on frame "
                    f"{divergence.frame} ({divergence.kind}) not "
                    f"attributable to any injected divergence-creating "
                    f"fault")

    # 2c. Snoop races are consequential by construction (the cluster only
    # consults the injector when a peer copy is resident or dirty), so
    # each record is settled here: *observed* when the value oracle or a
    # per-CPU lockstep shadow caught the frame, else *harmless* — the
    # oracle checks every read, so silence means no stale value was ever
    # delivered (the racing line was evicted, overwritten, or re-snooped
    # before anyone read through it).
    observed_frames = ({v.paddr // page_size for v in oracle.violations}
                       | ({d.frame for d in monitor.divergences}
                          if monitor is not None else set()))
    for record in injector.audit:
        if record.point in SNOOP_POINTS and record.resolution is None:
            record.resolve("observed" if record.ppage in observed_frames
                           else "harmless")

    # 3. Immediate detection: a consequential skipped DMA-read preparation
    # is observed by the device read that follows it — unless that very
    # transfer failed (and the retry re-ran a clean preparation).
    violated_frames = {v.paddr // page_size for v in oracle.violations
                       if v.kind == "dma-read"}
    for record in injector.records("pmap.dma_read_prep.skip"):
        if not record.consequential:
            record.resolution = record.resolution or "harmless"
            continue
        transfer_failed_later = any(
            r.point.startswith("dma.transfer.") and r.ppage == record.ppage
            and r.seq > record.seq for r in injector.audit)
        if record.ppage in violated_frames:
            record.resolution = "observed"
        elif transfer_failed_later:
            record.resolution = "masked-by-retry"
        else:
            report.failures.append(
                f"consequential dma_read_prep.skip on frame {record.ppage} "
                f"was never observed by the oracle")

    # 4. Recovery correctness: without divergence injections the run must
    # be violation-free (duplicates, transients, TLB parity and fault
    # stalls are all absorbed) and, when it completed, deep-verified.
    if _deep_verify_possible(injector):
        if report.violations:
            report.failures.append(
                "violations recorded although no divergence-creating "
                "fault was injected")
        if report.completed and not report.deep_verified:
            report.failures.append("final state sweep did not run")

    # 1. Typed failure only is enforced structurally: run_chaos catches
    # ReproError; anything else propagates out of the harness.

    # Re-count dispositions: verification above settles resolutions
    # (snoop races, skipped preparations) after the report was built.
    report.resolutions = Counter(r.resolution or "latent"
                                 for r in injector.audit)
    return report


def run_chaos_suite(seeds, preset: str = "mixed", steps: int = 200,
                    executor=None, n_cpus: int = 1,
                    policy: str | None = None) -> list[ChaosReport]:
    """Run one chaos run per seed; every report must uphold the invariant
    (callers assert ``all(r.ok for r in reports)``).

    The suite is one farm spec batch run on ``executor`` (default:
    in-process, ``Executor()``); reports come back in seed order at any
    pool width.  ``policy`` names a registered consistency policy (None
    is the default new system)."""
    from repro.farm import Executor, JobSpec, job_payloads

    specs = [JobSpec.chaos(seed=seed, preset=preset, steps=steps,
                           n_cpus=n_cpus, policy=policy)
             for seed in seeds]
    return [ChaosReport.from_dict(payload["report"])
            for payload in job_payloads(executor or Executor(), specs)]


def render_suite(reports: list[ChaosReport]) -> str:
    """A compact text summary of a chaos suite (the CLI's output)."""
    lines = []
    by_preset: dict[str, list[ChaosReport]] = {}
    for report in reports:
        by_preset.setdefault(report.preset, []).append(report)
    total_failures = 0
    for preset, group in sorted(by_preset.items()):
        injections = sum(r.injections for r in group)
        violations = sum(r.violations for r in group)
        unattributed = sum(r.unattributed_violations
                           + r.conform_unattributed for r in group)
        conform = sum(r.conform_divergences for r in group)
        retries = sum(r.disk_retries for r in group)
        quarantined = sum(r.frames_quarantined for r in group)
        parity = sum(r.tlb_parity_recoveries for r in group)
        completed = sum(1 for r in group if r.completed)
        failed = [r for r in group if not r.ok]
        total_failures += len(failed)
        lines.append(
            f"{preset:>12}: {len(group):4d} plans, {completed:4d} completed, "
            f"{injections:5d} injections, {violations:4d} oracle-observed, "
            f"{conform:4d} conform-observed ({unattributed} unattributed), "
            f"{retries:4d} retries, "
            f"{parity:3d} TLB refills, {quarantined:2d} quarantined, "
            f"{len(failed)} invariant failures")
        for report in failed:
            lines.append(f"              FAIL {report}")
    verdict = ("all plans detected-or-harmless" if total_failures == 0
               else f"{total_failures} PLANS VIOLATED THE INVARIANT")
    lines.append(f"{'verdict':>12}: {verdict}")
    return "\n".join(lines)
