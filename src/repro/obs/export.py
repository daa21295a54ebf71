"""Metrics export: JSON and Prometheus-text snapshots of a run.

The tables of the paper are all derived from :class:`Counters`; this
module serializes the *complete* counter state — every scalar field,
every per-(cache, reason) flush/purge breakdown, every per-kind fault
split — so any external system (a dashboard, a CI assertion, a
regression diff) can rebuild them without importing the simulator.

Two formats:

* :func:`to_json` — a nested dict (``counters`` flat snapshot plus
  ``flushes`` / ``purges`` / ``faults`` breakdown sections and the
  elapsed ``cycles``), serialized deterministically;
* :func:`to_prometheus` — the Prometheus text exposition format, with
  the breakdowns as labeled samples
  (``repro_page_flushes_total{cache="dcache",reason="dma-read"} 4``).

:func:`parse_prometheus` is a minimal parser for the subset this module
emits, used by the CI smoke job and by :func:`verify_export`, which
asserts that both formats reconcile *exactly* with the live counters —
the acceptance gate for any table built from an export.
"""

from __future__ import annotations

import json

from repro.hw.stats import SCALAR_FIELDS, Clock, Counters, FaultKind

#: metric-name prefix for the Prometheus exposition.
PROM_PREFIX = "repro"


def metrics_dict(counters: Counters, clock: Clock | None = None,
                 extra: dict | None = None) -> dict:
    """The complete counter state as one nested plain dict."""

    def breakdown(counts, cycles) -> dict:
        out: dict[str, dict] = {}
        for (cache, reason) in sorted(set(counts) | set(cycles), key=str):
            out.setdefault(cache, {})[str(reason)] = {
                "count": counts[(cache, reason)],
                "cycles": cycles[(cache, reason)],
            }
        return out

    data = {
        "counters": counters.snapshot(),
        "flushes": breakdown(counters.page_flushes, counters.flush_cycles),
        "purges": breakdown(counters.page_purges, counters.purge_cycles),
        "faults": {str(kind): {"count": counters.faults[kind],
                               "cycles": counters.fault_cycles[kind]}
                   for kind in FaultKind},
    }
    if clock is not None:
        data["cycles"] = clock.cycles
    if extra:
        data.update(extra)
    return data


def to_json(counters: Counters, clock: Clock | None = None,
            extra: dict | None = None, indent: int | None = 2) -> str:
    return json.dumps(metrics_dict(counters, clock, extra),
                      sort_keys=True, indent=indent)


# ---- Prometheus text exposition ---------------------------------------------


def _labels(**labels) -> str:
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}" if inner else ""


def to_prometheus(counters: Counters, clock: Clock | None = None) -> str:
    """The counter state in the Prometheus text exposition format."""
    lines: list[str] = []

    def emit(name: str, value: int, help_text: str,
             samples: list[tuple[str, int]] | None = None) -> None:
        full = f"{PROM_PREFIX}_{name}"
        lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} counter")
        if samples is None:
            lines.append(f"{full} {value}")
        else:
            for labels, sample_value in samples:
                lines.append(f"{full}{labels} {sample_value}")

    if clock is not None:
        emit("cycles_total", clock.cycles, "Elapsed simulated cycles.")
    for field in SCALAR_FIELDS:
        emit(f"{field}_total", getattr(counters, field),
             f"Counters.{field}.")
    for op, cycle_name, counts, cycles in (
            ("page_flushes", "flush_cycles",
             counters.page_flushes, counters.flush_cycles),
            ("page_purges", "purge_cycles",
             counters.page_purges, counters.purge_cycles)):
        keys = sorted(set(counts) | set(cycles), key=str)
        emit(f"{op}_total", 0, f"Cache {op} by cache and reason.",
             samples=[(_labels(cache=c, reason=str(r)), counts[(c, r)])
                      for (c, r) in keys])
        emit(f"{cycle_name}_total", 0,
             f"Cycles spent in {op} by cache and reason.",
             samples=[(_labels(cache=c, reason=str(r)), cycles[(c, r)])
                      for (c, r) in keys])
    emit("faults_total", 0, "Faults by Section 5.1 classification.",
         samples=[(_labels(kind=str(k)), counters.faults[k])
                  for k in FaultKind])
    emit("fault_cycles_total", 0, "Fault-handling cycles by classification.",
         samples=[(_labels(kind=str(k)), counters.fault_cycles[k])
                  for k in FaultKind])
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[tuple, int]:
    """Parse the subset of the exposition format :func:`to_prometheus`
    emits: ``(metric_name, ((label, value), ...)) -> sample``.

    Raises ``ValueError`` on any malformed line, so it doubles as the
    CI validation that the output *is* parseable Prometheus text.
    """
    samples: dict[tuple, int] = {}
    typed: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge"):
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            typed.add(parts[2])
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unknown comment: {line!r}")
        if "{" in line:
            name, rest = line.split("{", 1)
            label_text, value_text = rest.rsplit("} ", 1)
            labels = []
            if label_text:
                for pair in label_text.split(","):
                    key, _, raw = pair.partition("=")
                    if not (raw.startswith('"') and raw.endswith('"')):
                        raise ValueError(
                            f"line {lineno}: unquoted label value: {line!r}")
                    labels.append((key, raw[1:-1]))
        else:
            name, _, value_text = line.rpartition(" ")
            labels = []
        if not name or name not in typed:
            raise ValueError(f"line {lineno}: sample before TYPE: {line!r}")
        try:
            value = int(value_text)
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer sample: {line!r}")
        samples[(name, tuple(labels))] = value
    return samples


# ---- reconciliation ---------------------------------------------------------


def verify_export(counters: Counters, clock: Clock | None = None) -> None:
    """Assert both export formats reconcile exactly with ``counters``.

    Raises ``AssertionError`` naming the first mismatching quantity.
    This is cheap (one serialization round trip per format) and is run
    by the CLI ``metrics`` command on every invocation.
    """
    data = metrics_dict(counters, clock)
    snap = counters.snapshot()
    assert data["counters"] == snap, "JSON snapshot diverges from Counters"
    for op, counts, cycles, total_fn, cycles_fn in (
            ("flushes", counters.page_flushes, counters.flush_cycles,
             counters.total_flushes, counters.total_flush_cycles),
            ("purges", counters.page_purges, counters.purge_cycles,
             counters.total_purges, counters.total_purge_cycles)):
        exported = data[op]
        count_total = sum(entry["count"] for per_reason in exported.values()
                          for entry in per_reason.values())
        cycle_total = sum(entry["cycles"] for per_reason in exported.values()
                          for entry in per_reason.values())
        assert count_total == total_fn(), f"JSON {op} count total diverges"
        assert cycle_total == cycles_fn(), f"JSON {op} cycle total diverges"
    for kind in FaultKind:
        assert data["faults"][str(kind)]["count"] == counters.faults[kind], \
            f"JSON fault count diverges for {kind}"

    samples = parse_prometheus(to_prometheus(counters, clock))
    prefix = PROM_PREFIX
    for field in SCALAR_FIELDS:
        got = samples[(f"{prefix}_{field}_total", ())]
        assert got == getattr(counters, field), \
            f"prom {field} diverges: {got} != {getattr(counters, field)}"
    if clock is not None:
        assert samples[(f"{prefix}_cycles_total", ())] == clock.cycles
    flush_total = sum(v for (name, _), v in samples.items()
                      if name == f"{prefix}_page_flushes_total")
    purge_total = sum(v for (name, _), v in samples.items()
                      if name == f"{prefix}_page_purges_total")
    assert flush_total == counters.total_flushes(), "prom flush total diverges"
    assert purge_total == counters.total_purges(), "prom purge total diverges"
    flush_cycles = sum(v for (name, _), v in samples.items()
                       if name == f"{prefix}_flush_cycles_total")
    purge_cycles = sum(v for (name, _), v in samples.items()
                       if name == f"{prefix}_purge_cycles_total")
    assert flush_cycles == counters.total_flush_cycles(), \
        "prom flush cycle total diverges"
    assert purge_cycles == counters.total_purge_cycles(), \
        "prom purge cycle total diverges"
    for kind in FaultKind:
        got = samples[(f"{prefix}_faults_total", (("kind", str(kind)),))]
        assert got == counters.faults[kind], f"prom faults[{kind}] diverges"
