"""The ``serve`` macro-workload: a population of users against the farm.

The ROADMAP's north star asks for "heavy traffic from millions of users"
against the paper's system.  This workload is that scenario: a
population of simulated users issuing file syscalls at the user-level
Unix server — the Section 4.2 request/reply exchange over shared channel
pages, IPC page transfers out of the buffer cache, staging-page
preparation — so every request exercises exactly the consistency
machinery the paper manages.

**Cohorts are the unit of sharding.**  The population splits into
cohorts; each cohort is one farm job that boots a fresh kernel, so
cohorts are independent pure functions of ``(cohort, users, ...)`` and
the farm can run them serially or across any pool width with
bit-identical merged results (:func:`repro.farm.suites.farm_serve`).

**Every user is deterministic.**  A user's whole behaviour — which
frontend process carries the request, which hot file, which page, and
whether this user also writes — derives from ``crc32(cohort/user)``, a
stable hash (Python's ``hash()`` is per-interpreter seeded).  The cohort
result carries a checksum folded over every page the users read; because
on-disk blocks are synthesized from ``(file_id, page)`` and cohort
kernels are freshly booted, the checksum is reproducible anywhere — any
divergence between two runs of the same cohort is a real consistency
bug, not noise.  (Written data is deliberately *excluded* from the
checksum: fresh write tokens come from a process-global counter that is
not part of the spec.)

**Frontends multiplex users.**  Real servers don't keep one process per
user; a small pool of frontend processes carries the whole cohort's
traffic, which also keeps the per-request cost in the syscall/IPC path
rather than in task setup.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.kernel.kernel import Kernel
from repro.kernel.process import UserProcess
from repro.vm.policy import NEW_SYSTEM, PolicyConfig

#: every user stats, opens, reads and closes (4 syscalls)...
BASE_SYSCALLS_PER_USER = 4
#: ...every 4th rereads a second page (+1), and every 16th also writes a
#: scratch file: create/open/write/close/remove (+5).
RE_READ_EVERY = 4
WRITER_EVERY = 16


@dataclass(frozen=True)
class ServeCohortResult:
    """What one cohort of users did to one freshly booted system."""

    cohort: int
    users: int
    frontends: int
    requests: int            # server syscalls executed for the cohort
    reads: int               # file pages IPC-transferred to users
    writes: int              # file pages written through the server
    cycles: int              # simulated machine time consumed
    checksum: int            # crc32 folded over every page read
    bc_hits: int
    bc_misses: int
    counters: dict = field(repr=False)
    coverage: dict | None = field(default=None, repr=False)

    @property
    def cycles_per_request(self) -> float:
        return self.cycles / self.requests if self.requests else 0.0

    def to_dict(self) -> dict:
        return {"cohort": self.cohort, "users": self.users,
                "frontends": self.frontends, "requests": self.requests,
                "reads": self.reads, "writes": self.writes,
                "cycles": self.cycles, "checksum": self.checksum,
                "bc_hits": self.bc_hits, "bc_misses": self.bc_misses,
                "cycles_per_request": self.cycles_per_request,
                "counters": dict(self.counters),
                "coverage": self.coverage}

    @classmethod
    def from_dict(cls, data: dict) -> "ServeCohortResult":
        return cls(cohort=data["cohort"], users=data["users"],
                   frontends=data["frontends"], requests=data["requests"],
                   reads=data["reads"], writes=data["writes"],
                   cycles=data["cycles"], checksum=data["checksum"],
                   bc_hits=data["bc_hits"], bc_misses=data["bc_misses"],
                   counters=data["counters"],
                   coverage=data.get("coverage"))


def user_hash(cohort: int, user: int) -> int:
    """The stable per-user behaviour seed."""
    return zlib.crc32(f"{cohort}/{user}".encode()) & 0xFFFFFFFF


def run_serve_cohort(cohort: int, users: int,
                     policy: PolicyConfig | str = NEW_SYSTEM,
                     hot_files: int = 6, file_pages: int = 4,
                     frontends: int = 4,
                     buffer_cache_pages: int = 48,
                     conform: bool = False) -> ServeCohortResult:
    """Serve one cohort's traffic on a fresh kernel; pure in its args.

    With ``conform`` a lockstep Table 2 shadow rides the whole cohort
    (every line-state transition checked, arc coverage collected) —
    expensive, so the big benchmark runs leave it off while the CI smoke
    turns it on.  It runs in raise mode: the first divergence ends the
    cohort with a :class:`~repro.errors.ConformanceError`.
    """
    if isinstance(policy, str):
        from repro.policy import get_policy
        policy = get_policy(policy)
    kernel = Kernel(policy=policy, buffer_cache_pages=buffer_cache_pages)
    monitor = None
    if conform:
        from repro.conformance import ConformanceMonitor
        monitor = ConformanceMonitor(kernel)
        monitor.attach()

    # The cohort's content: hot files that predate the traffic, on disk,
    # synthesized from (file_id, page) — the same bytes in every boot.
    names = [f"srv/hot{i}" for i in range(hot_files)]
    for name in names:
        kernel.fs.create(name, size_pages=file_pages, on_disk=True)
    pool = [UserProcess(kernel, name=f"fe{i}") for i in range(frontends)]

    base_syscalls = kernel.unix_server.syscalls
    base_cycles = kernel.machine.clock.cycles
    checksum = 0
    reads = writes = 0
    try:
        for user in range(users):
            h = user_hash(cohort, user)
            frontend = pool[h % frontends]
            name = names[(h >> 4) % hot_files]
            frontend.stat(name)
            fd = frontend.open(name)
            values = frontend.read_file_page(fd, (h >> 8) % file_pages)
            checksum = zlib.crc32(values.tobytes(), checksum)
            reads += 1
            if h % RE_READ_EVERY == 0:
                values = frontend.read_file_page(fd,
                                                 (h >> 16) % file_pages)
                checksum = zlib.crc32(values.tobytes(), checksum)
                reads += 1
            frontend.close(fd)
            if h % WRITER_EVERY == 0:
                # This user uploads: a scratch file written through the
                # server's buffer cache, then removed.  Its token values
                # come from a process-global counter, so they never feed
                # the checksum — only the (deterministic) machine events
                # they cause are measured.
                scratch = f"srv/tmp{user}"
                frontend.create(scratch)
                scratch_fd = frontend.open(scratch)
                frontend.write_file_page(scratch_fd, 0)
                frontend.close(scratch_fd)
                frontend.remove(scratch)
                writes += 1
    finally:
        if monitor is not None:
            monitor.detach()

    counters = kernel.machine.counters.snapshot()
    return ServeCohortResult(
        cohort=cohort, users=users, frontends=frontends,
        requests=kernel.unix_server.syscalls - base_syscalls,
        reads=reads, writes=writes,
        cycles=kernel.machine.clock.cycles - base_cycles,
        checksum=checksum,
        bc_hits=kernel.buffer_cache.hits,
        bc_misses=kernel.buffer_cache.misses,
        counters=counters,
        coverage=monitor.coverage.to_dict() if monitor is not None
        else None)


@dataclass(frozen=True)
class ServeReport:
    """The merged view of a whole population, cohorts combined."""

    cohorts: int
    users: int
    frontends: int
    requests: int
    reads: int
    writes: int
    cycles: int
    checksum: int            # crc32 over per-cohort checksums, in order
    bc_hits: int
    bc_misses: int
    counters: dict = field(repr=False)
    coverage: dict | None = field(default=None, repr=False)

    @property
    def cycles_per_request(self) -> float:
        return self.cycles / self.requests if self.requests else 0.0

    def to_dict(self) -> dict:
        return {"cohorts": self.cohorts, "users": self.users,
                "frontends": self.frontends, "requests": self.requests,
                "reads": self.reads, "writes": self.writes,
                "cycles": self.cycles, "checksum": self.checksum,
                "bc_hits": self.bc_hits, "bc_misses": self.bc_misses,
                "cycles_per_request": self.cycles_per_request,
                "counters": dict(self.counters),
                "coverage": self.coverage}

    def summary(self) -> str:
        line = (f"served {self.requests} requests from {self.users} users "
                f"in {self.cohorts} cohorts "
                f"({self.cycles_per_request:.0f} cycles/request, "
                f"buffer cache {self.bc_hits}h/{self.bc_misses}m, "
                f"checksum {self.checksum:#010x})")
        if self.coverage is not None:
            from repro.conformance import ArcCoverage
            line += ("; " + ArcCoverage.from_dict(self.coverage).summary())
        return line


def merge_cohorts(results: list[ServeCohortResult]) -> ServeReport:
    """Combine per-cohort results; order-stable and associative-safe.

    Scalar counters sum; the population checksum folds the per-cohort
    checksums *in cohort order*, so any merged report over the same
    cohorts is bit-identical however the cohorts were executed.
    """
    if not results:
        raise ValueError("merge_cohorts needs at least one cohort")
    results = sorted(results, key=lambda r: r.cohort)
    counters: dict = {}
    for result in results:
        for key, value in result.counters.items():
            counters[key] = counters.get(key, 0) + value
    coverage = None
    if all(r.coverage is not None for r in results):
        from repro.conformance import ArcCoverage
        merged = ArcCoverage()
        for result in results:
            merged.merge(ArcCoverage.from_dict(result.coverage))
        coverage = merged.to_dict()
    checksum = 0
    for result in results:
        checksum = zlib.crc32(
            result.checksum.to_bytes(4, "little"), checksum)
    return ServeReport(
        cohorts=len(results),
        users=sum(r.users for r in results),
        frontends=results[0].frontends,
        requests=sum(r.requests for r in results),
        reads=sum(r.reads for r in results),
        writes=sum(r.writes for r in results),
        cycles=sum(r.cycles for r in results),
        checksum=checksum,
        bc_hits=sum(r.bc_hits for r in results),
        bc_misses=sum(r.bc_misses for r in results),
        counters=counters,
        coverage=coverage)
