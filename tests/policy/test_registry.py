"""The policy registry: lookup, registration guards, resolution."""

import pytest

from repro.errors import ConfigurationError
from repro.policy import (ConsistencyPolicy, all_policies, get_policy,
                          register, resolve)
from repro.policy.registry import _REGISTRY
from repro.vm.policy import (CONFIG_F, CONFIG_GLOBAL, CONFIG_LADDER,
                             TABLE5_SYSTEMS)

LEGACY_CONFIGS = {c.name: c for c in
                  CONFIG_LADDER + (CONFIG_GLOBAL,) + TABLE5_SYSTEMS}
LEGACY_NAMES = list(LEGACY_CONFIGS)


class TestLookup:
    @pytest.mark.parametrize("name", LEGACY_NAMES + ["rlt", "vespa"])
    def test_case_insensitive_round_trip(self, name):
        for variant in (name, name.lower(), name.upper()):
            policy = get_policy(variant)
            assert policy.name == name
            # the same singleton every time: policies are stateless
            assert get_policy(variant) is policy

    def test_unknown_name_lists_valid_names_sorted(self):
        with pytest.raises(KeyError) as exc:
            get_policy("Z")
        message = str(exc.value)
        assert "unknown policy 'Z'" in message
        for name in LEGACY_NAMES + ["rlt", "vespa"]:
            assert name in message
        listed = message.split("valid names: ")[1].rstrip('"').split(", ")
        assert listed == sorted(listed, key=str.lower)

    def test_registry_covers_every_legacy_config(self):
        names = {p.name for p in all_policies()}
        assert set(LEGACY_NAMES) <= names

    def test_origins(self):
        origin = {p.name: p.origin for p in all_policies()}
        for config in CONFIG_LADDER + (CONFIG_GLOBAL,):
            assert origin[config.name] == "paper"
        for system in TABLE5_SYSTEMS:
            assert origin[system.name] == "table5"
        assert origin["rlt"] == "external"
        assert origin["vespa"] == "external"


class TestRegistrationGuard:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register(ConsistencyPolicy(CONFIG_F))

    def test_duplicate_rejected_case_insensitively(self):
        duplicate = ConsistencyPolicy(CONFIG_F.derive(
            "f", "same name, different case"))
        with pytest.raises(ConfigurationError, match="case-insensitive"):
            register(duplicate)

    def test_failed_registration_leaves_registry_unchanged(self):
        before = dict(_REGISTRY)
        with pytest.raises(ConfigurationError):
            register(ConsistencyPolicy(CONFIG_F))
        assert _REGISTRY == before


class TestResolve:
    def test_policy_instance_passes_through(self):
        policy = get_policy("F")
        assert resolve(policy) is policy

    def test_string_resolves_via_registry(self):
        assert resolve("rlt") is get_policy("rlt")

    def test_flag_config_wraps_in_default_hooks(self):
        policy = resolve(CONFIG_F)
        assert isinstance(policy, ConsistencyPolicy)
        assert policy.flags is CONFIG_F
        assert policy.name == "F"

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            resolve(42)


class TestByNameLegacy:
    """Every flag-configuration name resolves through :func:`get_policy`
    to a policy wrapping that very :class:`PolicyConfig`, and an unknown
    name lists the valid set."""

    @pytest.mark.parametrize("name", LEGACY_NAMES)
    def test_case_insensitive(self, name):
        assert get_policy(name.lower()).flags is LEGACY_CONFIGS[name]
        assert get_policy(name.upper()).flags is LEGACY_CONFIGS[name]

    def test_unknown_name_message(self):
        with pytest.raises(KeyError) as exc:
            get_policy("nope")
        message = str(exc.value)
        assert "unknown policy 'nope'" in message
        for name in LEGACY_NAMES:
            assert name in message
