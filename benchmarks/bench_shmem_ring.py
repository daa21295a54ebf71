"""Application-level shared memory: the Section 2.2 observation made
quantitative.

"Even applications that share in sophisticated ways can generally do so
without specifying the address at which shared data must be mapped" —
and they should want to: a producer/consumer ring through VM-chosen
(aligned) addresses runs at cache speed, while the same ring at
conflicting addresses ping-pongs through consistency faults.  The Sun
uncached fallback sits in between: no faults, but every access at memory
speed — the right mechanism when sharing is genuinely unaligned and
fine-grained.
"""

from conftest import emit

from repro.analysis.experiments import evaluation_machine
from repro.kernel.kernel import Kernel
from repro.policy import get_policy
from repro.vm.policy import CONFIG_F, CONFIG_GLOBAL
from repro.workloads.shmem_ring import run_ring

RECORDS = 400


def test_shared_ring(once):
    def run_all():
        rows = {}
        rows["F, VM-aligned"] = run_ring(
            Kernel(policy=CONFIG_F, config=evaluation_machine()),
            records=RECORDS, aligned=True)
        rows["F, conflicting addresses"] = run_ring(
            Kernel(policy=CONFIG_F, config=evaluation_machine()),
            records=RECORDS, aligned=False)
        rows["Sun (uncached), conflicting"] = run_ring(
            Kernel(policy=get_policy("Sun"), config=evaluation_machine()),
            records=RECORDS, aligned=False)
        rows["G (global AS)"] = run_ring(
            Kernel(policy=CONFIG_GLOBAL, config=evaluation_machine()),
            records=RECORDS, aligned=False)
        return rows

    rows = once(run_all)
    lines = [
        f"Shared-memory ring, {RECORDS} records producer->consumer:",
        f"{'configuration':<30} {'cyc/record':>11} {'cons faults':>12} "
        f"{'flushes':>8}",
        "-" * 66,
    ]
    for name, r in rows.items():
        lines.append(f"{name:<30} {r.cycles_per_record:>11.1f} "
                     f"{r.consistency_faults:>12} {r.page_flushes:>8}")
    emit("shmem_ring", "\n".join(lines))

    aligned = rows["F, VM-aligned"]
    conflicting = rows["F, conflicting addresses"]
    uncached = rows["Sun (uncached), conflicting"]
    global_as = rows["G (global AS)"]

    # Alignment is worth an order of magnitude at application level.
    assert conflicting.cycles_per_record > 5 * aligned.cycles_per_record
    # Uncached beats the trap path for genuinely unaligned sharing...
    assert uncached.cycles < conflicting.cycles
    # ...but loses to proper alignment (cache-speed accesses).
    assert aligned.cycles < uncached.cycles
    # The global model aligns by construction.
    assert global_as.consistency_faults <= 6
