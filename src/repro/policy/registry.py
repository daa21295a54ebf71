"""The policy registry: every named consistency strategy, one namespace.

``--policy NAME`` anywhere in the CLI, the farm, the chaos harness, the
serve cohorts and the sweeps resolves through :func:`get_policy`, so an
external strategy registered here is immediately first-class everywhere
a paper configuration is.  Names are case-insensitive, duplicates are
rejected at registration time, and an unknown name reports the full
sorted list of valid names.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.policy.base import ConsistencyPolicy
from repro.policy.rlt import ReverseLookupPolicy
from repro.policy.vespa import VespaPolicy
from repro.vm.policy import (CONFIG_GLOBAL, CONFIG_LADDER, PolicyConfig,
                             TABLE5_SYSTEMS)

_REGISTRY: dict[str, ConsistencyPolicy] = {}
_ORDER: list[ConsistencyPolicy] = []


def register(policy: ConsistencyPolicy) -> ConsistencyPolicy:
    """Add a policy to the registry; duplicate names are an error."""
    key = policy.name.lower()
    if key in _REGISTRY:
        raise ConfigurationError(
            f"policy name {policy.name!r} is already registered "
            f"(names are case-insensitive)")
    _REGISTRY[key] = policy
    _ORDER.append(policy)
    return policy


def get_policy(name: str) -> ConsistencyPolicy:
    """Look up a registered policy by (case-insensitive) name."""
    policy = _REGISTRY.get(name.lower())
    if policy is None:
        valid = ", ".join(sorted((p.name for p in _ORDER), key=str.lower))
        raise KeyError(f"unknown policy {name!r}; valid names: {valid}")
    return policy


def all_policies() -> tuple[ConsistencyPolicy, ...]:
    """Every registered policy, in registration order (ladder first)."""
    return tuple(_ORDER)


def resolve(spec) -> ConsistencyPolicy:
    """Normalize any accepted policy spec to a :class:`ConsistencyPolicy`.

    * a ``ConsistencyPolicy`` passes through;
    * a ``str`` resolves via :func:`get_policy`;
    * a bare :class:`PolicyConfig` (the seed-era API) is wrapped in a
      default policy, whose hooks are exactly the legacy flag behaviour.
    """
    if isinstance(spec, ConsistencyPolicy):
        return spec
    if isinstance(spec, str):
        return get_policy(spec)
    if isinstance(spec, PolicyConfig):
        return ConsistencyPolicy(spec)
    raise TypeError(f"cannot resolve {spec!r} to a consistency policy")


# ---- the built-in strategies ------------------------------------------------

for _config in CONFIG_LADDER + (CONFIG_GLOBAL,):
    register(ConsistencyPolicy(_config, origin="paper"))
for _config in TABLE5_SYSTEMS:
    register(ConsistencyPolicy(_config, origin="table5"))
register(ReverseLookupPolicy())
register(VespaPolicy())
del _config
