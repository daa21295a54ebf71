"""The farm's job model: a frozen, hashable description of one run.

A :class:`JobSpec` is the unit of work the simulation farm schedules: a
job *kind* (which pure function to run) plus a flat bag of JSON-scalar
parameters.  Every expensive consumer in the repository — a workload
measurement, a chaos run, an explorer shard, an exhaustive-checker
prefix shard — is a pure function of its spec, because the simulator is
deterministic by construction: all randomness is seeded, all time is the
simulated clock.  That purity is what makes specs *content-addressable*:
``spec.key(fingerprint)`` is a stable hash of the spec's canonical JSON
plus the code-version fingerprint, and two runs with the same key are
guaranteed to produce the same payload, so the second one never needs to
run (see :mod:`repro.farm.cache`).

Parameter values are restricted to JSON scalars (and flat tuples of
them, for the exhaustive checker's event-index prefixes) so that the
canonical encoding is unambiguous and the spec survives a JSON round
trip bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: the on-disk schema version; bump to invalidate every cache entry.
SCHEMA_VERSION = 1

_SCALARS = (str, int, float, bool, type(None))


def _check_value(key: str, value):
    flat = isinstance(value, (tuple, list))
    for item in value if flat else (value,):
        if not isinstance(item, _SCALARS):
            raise ConfigurationError(
                f"job parameter {key!r} must be a JSON scalar or a flat "
                f"tuple of them, got {value!r}")
        if isinstance(item, float) and not math.isfinite(item):
            # NaN never equals itself, so it could not round-trip a spec.
            raise ConfigurationError(
                f"job parameter {key!r} must be finite, got {value!r}")
    return tuple(value) if flat else value


def _canonical_params(params: dict) -> tuple[tuple[str, object], ...]:
    """Validated, sorted parameters, ``None`` values dropped."""
    for key in params:
        if not isinstance(key, str):
            raise ConfigurationError(
                f"job parameter names must be strings, got {key!r}")
    return tuple(sorted((k, _check_value(k, v))
                        for k, v in params.items() if v is not None))


@dataclass(frozen=True)
class JobSpec:
    """One schedulable simulation job: a kind plus sorted parameters."""

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    # ---- construction ------------------------------------------------------

    @classmethod
    def make(cls, kind: str, **params) -> "JobSpec":
        """Build a spec; parameters are validated and canonically sorted,
        and ``None`` values are dropped (absent == default)."""
        return cls(kind=kind, params=_canonical_params(params))

    # The consumer-facing constructors; one per job kind the farm runs.

    @classmethod
    def workload(cls, workload: str, policy: str, scale: float,
                 dcache_kib: int | None = None,
                 phys_pages: int | None = None,
                 buffer_cache_pages: int | None = None,
                 inject: str | None = None, seed: int | None = None,
                 conform: bool = False,
                 geometry: str | None = None) -> "JobSpec":
        # geometry is an apply_geometry() spec string ("2way+victim8+l2");
        # None drops out so pre-hierarchy cache keys are unchanged.
        return cls.make("workload", workload=workload, policy=policy,
                        scale=scale, dcache_kib=dcache_kib,
                        phys_pages=phys_pages,
                        buffer_cache_pages=buffer_cache_pages,
                        inject=inject, seed=seed,
                        conform=conform or None, geometry=geometry)

    @classmethod
    def replay(cls, trace_path: str) -> "JobSpec":
        """One trace replay with equivalence verification.

        The artifact's SHA-256 digest is part of the spec: a path alone
        is not content, so recompiling a trace in place changes the key
        and invalidates any cached replay of the old bytes.
        """
        with open(trace_path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        return cls.make("replay", trace=trace_path, digest=digest)

    @classmethod
    def chaos(cls, seed: int, preset: str = "mixed", steps: int = 200,
              n_cpus: int | None = None,
              policy: str | None = None) -> "JobSpec":
        # n_cpus=None (and 1) drop out of the spec so uniprocessor keys —
        # and their cached payloads — are unchanged from before SMP; the
        # same None-drop keeps pre-policy keys stable (absent == the
        # default NEW_SYSTEM configuration).
        return cls.make("chaos", seed=seed, preset=preset, steps=steps,
                        n_cpus=None if n_cpus in (None, 1) else n_cpus,
                        policy=policy)

    @classmethod
    def smp(cls, n_cpus: int, aligned: bool, workload: str = "ring",
            records: int = 120, data_pages: int = 2,
            phys_pages: int | None = None) -> "JobSpec":
        """One point of the SMP scaling curve (Section 3.3)."""
        return cls.make("smp", n_cpus=n_cpus, aligned=aligned,
                        workload=workload, records=records,
                        data_pages=data_pages, phys_pages=phys_pages)

    @classmethod
    def explore(cls, seed: int, sequences: int,
                cache_pages: int = 3) -> "JobSpec":
        return cls.make("explore", seed=seed, sequences=sequences,
                        cache_pages=cache_pages)

    @classmethod
    def exhaustive(cls, num_cache_pages: int, depth: int,
                   prefix: tuple[int, ...] = (),
                   model: str | None = None) -> "JobSpec":
        # model names a derived Table 2 variant (see
        # repro.core.variants.model_factory_by_name); None — the
        # canonical model — drops out so existing cache keys hold.
        return cls.make("exhaustive", num_cache_pages=num_cache_pages,
                        depth=depth, prefix=tuple(prefix),
                        model=None if model in (None, "canonical")
                        else model)

    @classmethod
    def serve(cls, cohort: int, users: int, policy: str | None = None,
              hot_files: int | None = None, file_pages: int | None = None,
              frontends: int | None = None,
              buffer_cache_pages: int | None = None,
              conform: bool = False) -> "JobSpec":
        """One user cohort of the ``serve`` macro-workload.  ``None``
        parameters drop out (absent == the workload's defaults)."""
        return cls.make("serve", cohort=cohort, users=users, policy=policy,
                        hot_files=hot_files, file_pages=file_pages,
                        frontends=frontends,
                        buffer_cache_pages=buffer_cache_pages,
                        conform=conform or None)

    @classmethod
    def selftest(cls, mode: str = "ok", **params) -> "JobSpec":
        return cls.make("selftest", mode=mode, **params)

    # ---- access ------------------------------------------------------------

    def get(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def __getitem__(self, key: str):
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            raise KeyError(key)
        return value

    # ---- encoding ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """The spec :meth:`to_dict` encoded.  Anything else — not an
        object, other keys than ``kind`` and ``params``, a non-string
        ``kind``, a non-object ``params``, a bad parameter — raises
        :class:`ConfigurationError`."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"a job spec must be a JSON object, not {type(data).__name__}")
        if set(data) != {"kind", "params"}:
            raise ConfigurationError(
                "a job spec must have exactly the keys 'kind' and "
                f"'params', got {', '.join(sorted(map(repr, data))) or 'none'}")
        kind, params = data["kind"], data["params"]
        if not isinstance(kind, str):
            raise ConfigurationError(
                f"job kind must be a string, got {kind!r}")
        if not isinstance(params, dict):
            raise ConfigurationError(
                "job params must be a JSON object, not "
                f"{type(params).__name__}")
        return cls(kind=kind, params=_canonical_params(params))

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        """The spec one line of a spec batch holds (:meth:`from_dict` of
        its JSON); malformed JSON raises :class:`ConfigurationError`."""
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ConfigurationError(f"not a JSON job spec: {exc}") from None
        return cls.from_dict(data)

    def canonical(self) -> str:
        """The canonical JSON encoding the content hash is taken over
        (sorted keys, no whitespace, tuples as arrays)."""
        return json.dumps({"version": SCHEMA_VERSION, "kind": self.kind,
                           "params": dict(self.params)},
                          sort_keys=True, separators=(",", ":"))

    def key(self, fingerprint: str) -> str:
        """The content-addressed cache key: hash of (spec, code version)."""
        digest = hashlib.sha256()
        digest.update(self.canonical().encode())
        digest.update(b"\0")
        digest.update(fingerprint.encode())
        return digest.hexdigest()

    def label(self) -> str:
        """A short human-readable identity for progress events."""
        parts = [f"{k}={v}" for k, v in self.params
                 if k in ("workload", "policy", "seed", "preset",
                          "dcache_kib", "prefix", "mode", "n_cpus",
                          "aligned", "geometry", "model", "cohort",
                          "users")]
        return f"{self.kind}({', '.join(parts)})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label()
