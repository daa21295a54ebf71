"""The job model: frozen, canonical, content-addressable.

A JobSpec must be a *value*: hashable, order-insensitive in its
parameters, stable under a JSON round trip, and hashing to a different
key the moment anything that could change the result changes — the
parameters, the schema, or the code fingerprint.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.farm import JobSpec

scalars = (st.none() | st.booleans() | st.integers(-2**31, 2**31)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.text("abcxyz_-/ ", max_size=12))
param_names = st.text("abcdefghij", min_size=1, max_size=8)
params = st.dictionaries(
    param_names,
    scalars | st.lists(scalars.filter(lambda v: v is not None), max_size=3),
    max_size=5)


class TestConstruction:
    def test_specs_are_hashable_values(self):
        a = JobSpec.chaos(seed=7, preset="mixed", steps=100)
        b = JobSpec.chaos(seed=7, preset="mixed", steps=100)
        assert a == b and hash(a) == hash(b)
        assert {a: "x"}[b] == "x"

    def test_parameter_order_is_irrelevant(self):
        a = JobSpec.make("selftest", alpha=1, beta=2)
        b = JobSpec.make("selftest", beta=2, alpha=1)
        assert a == b and a.canonical() == b.canonical()

    def test_none_parameters_are_dropped(self):
        # Absent == default, so a spec written before a parameter existed
        # keys identically to one passing the parameter's default None.
        assert (JobSpec.workload(workload="afs-bench", policy="F", scale=1.0)
                == JobSpec.make("workload", workload="afs-bench",
                                policy="F", scale=1.0, dcache_kib=None))

    def test_conform_false_is_absent(self):
        spec = JobSpec.workload(workload="afs-bench", policy="F", scale=1.0,
                                conform=False)
        assert spec.get("conform") is None

    def test_non_scalar_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec.make("selftest", bad={"nested": 1})
        with pytest.raises(ConfigurationError):
            JobSpec.make("selftest", bad=[[1, 2]])

    def test_access(self):
        spec = JobSpec.chaos(seed=3)
        assert spec["seed"] == 3
        assert spec.get("missing", 42) == 42
        with pytest.raises(KeyError):
            spec["missing"]


class TestEncoding:
    def test_round_trip(self):
        spec = JobSpec.exhaustive(num_cache_pages=2, depth=5, prefix=(1, 0))
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.canonical() == spec.canonical()

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(params)
    def test_round_trip_any_flat_params(self, kwargs):
        spec = JobSpec.make("selftest", **kwargs)
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.canonical() == spec.canonical()

    def test_canonical_is_deterministic_bytes(self):
        spec = JobSpec.chaos(seed=0, preset="mixed", steps=200)
        assert spec.canonical() == spec.canonical()
        assert " " not in spec.canonical()

    def test_label_names_the_kind(self):
        assert JobSpec.chaos(seed=9).label().startswith("chaos(")


# Any JSON value, nested a little; floats include NaN and infinities.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)
# Near-miss spec objects: keys, kinds and params of the right and the
# wrong shapes.
spec_objects = st.dictionaries(
    st.sampled_from(["kind", "params", "extra"]),
    st.text("abcxyz", max_size=6) | json_values | params,
    max_size=3)
spec_lines = (st.text(max_size=40)
              | json_values.map(json.dumps)
              | spec_objects.map(json.dumps)
              | params.map(lambda p: json.dumps({"kind": "selftest",
                                                 "params": p})))


class TestParsing:
    """A spec batch line is a spec that round-trips, or a
    :class:`ConfigurationError`, never another exception."""

    @pytest.mark.parametrize("line,message", [
        ('{"params":{}}', "exactly the keys 'kind' and 'params'"),
        ('{"kind":"selftest"}', "exactly the keys 'kind' and 'params'"),
        ('{"kind":"selftest","params":{},"x":1}', "exactly the keys"),
        ("not json", "not a JSON job spec"),
        ("[1,2]", "must be a JSON object, not list"),
        ('{"kind":7,"params":{}}', "job kind must be a string"),
        ('{"kind":"selftest","params":[]}', "params must be a JSON object"),
        ('{"kind":"selftest","params":{"a":{"b":1}}}', "JSON scalar"),
        ('{"kind":"selftest","params":{"a":[[1]]}}', "JSON scalar"),
        ('{"kind":"selftest","params":{"a":NaN}}', "must be finite"),
        ('{"kind":"selftest","params":{"a":[Infinity]}}', "must be finite"),
    ])
    def test_malformed_lines(self, line, message):
        with pytest.raises(ConfigurationError, match=message):
            JobSpec.from_json(line)

    def test_parameter_names_must_be_strings(self):
        with pytest.raises(ConfigurationError, match="must be strings"):
            JobSpec.from_dict({"kind": "selftest", "params": {1: 2}})

    def test_a_parameter_may_be_named_like_an_argument(self):
        spec = JobSpec.from_json(
            '{"kind":"selftest","params":{"kind":1,"cls":2}}')
        assert spec["kind"] == 1 and spec["cls"] == 2

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec_lines)
    def test_every_line_round_trips_or_is_rejected(self, line):
        try:
            spec = JobSpec.from_json(line)
        except ConfigurationError:
            return
        again = JobSpec.from_json(json.dumps(spec.to_dict()))
        assert again == spec
        assert again.canonical() == spec.canonical()


class TestKeys:
    FP = "f" * 64

    def test_key_is_stable(self):
        spec = JobSpec.chaos(seed=1)
        assert spec.key(self.FP) == JobSpec.chaos(seed=1).key(self.FP)

    def test_key_changes_with_params(self):
        assert (JobSpec.chaos(seed=1).key(self.FP)
                != JobSpec.chaos(seed=2).key(self.FP))
        assert (JobSpec.chaos(seed=1, steps=100).key(self.FP)
                != JobSpec.chaos(seed=1, steps=200).key(self.FP))

    def test_uniprocessor_chaos_keys_predate_n_cpus(self):
        # Adding the n_cpus parameter must not orphan every cached
        # uniprocessor chaos result: 1 and None both key like the old spec.
        old = JobSpec.make("chaos", seed=5, preset="mixed", steps=200)
        assert JobSpec.chaos(seed=5).key(self.FP) == old.key(self.FP)
        assert JobSpec.chaos(seed=5, n_cpus=1).key(self.FP) == old.key(self.FP)
        assert JobSpec.chaos(seed=5, n_cpus=4).key(self.FP) != old.key(self.FP)

    def test_key_changes_with_kind_and_fingerprint(self):
        a = JobSpec.make("alpha", seed=1)
        b = JobSpec.make("beta", seed=1)
        assert a.key(self.FP) != b.key(self.FP)
        assert a.key(self.FP) != a.key("0" * 64)
