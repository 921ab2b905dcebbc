"""Sharded-reduction contracts: pure partition, bit-identical aggregation.

The shard assignment must be a pure function of ``(key name, shard
count)`` — no process state, no salt — because the server and every
remote reducer must agree on the partition without coordination.  And
activating any shard count must not change a single output bit of any
aggregation kernel: the sharded wrappers re-run the unmodified kernels
on key-restricted views and reassemble, so equality here is asserted on
exact bytes, not approximate values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.federated.aggregation import aggregate_residuals, masked_average
from repro.nn.params import weighted_average
from repro.parallel.sharding import (ShardPlan, active_plan, partition_keys,
                                     reset_shard_stats, shard_of_key,
                                     shard_plan, shard_stats, shard_view,
                                     sharded_weighted_average)

#: frozen assignments of the production manifest keys — a changed digest
#: or modulus would silently repartition live deployments, so the exact
#: values are pinned (pure in (key, count) means these can never drift)
PINNED_ASSIGNMENTS = {
    "conv1.W": {1: 0, 2: 1, 3: 0, 4: 1, 8: 5},
    "conv1.b": {1: 0, 2: 0, 3: 2, 4: 0, 8: 0},
    "fc1.W": {1: 0, 2: 0, 3: 2, 4: 0, 8: 4},
    "fc1.b": {1: 0, 2: 0, 3: 0, 4: 0, 8: 4},
    "fc2.W": {1: 0, 2: 1, 3: 2, 4: 3, 8: 7},
    "fc2.b": {1: 0, 2: 1, 3: 2, 4: 3, 8: 3},
}

_KEY_NAMES = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=24)


def _params(rng, keys, shapes=None):
    shapes = shapes or {}
    return {key: rng.standard_normal(shapes.get(key, (3, 4)))
            for key in keys}


KEYS = ["conv1.W", "conv1.b", "fc1.W", "fc1.b", "fc2.W", "fc2.b"]


def _assert_identical(left, right):
    assert list(left) == list(right)  # insertion order included
    for key in left:
        assert left[key].tobytes() == right[key].tobytes(), key
        assert left[key].dtype == right[key].dtype


# --------------------------------------------------------------- partition
class TestShardOfKey:
    def test_pinned_assignments(self):
        for key, expected in PINNED_ASSIGNMENTS.items():
            for count, shard in expected.items():
                assert shard_of_key(key, count) == shard

    @given(key=_KEY_NAMES, shards=st.integers(min_value=1, max_value=64))
    def test_pure_and_in_range(self, key, shards):
        first = shard_of_key(key, shards)
        assert 0 <= first < shards
        assert shard_of_key(key, shards) == first  # no hidden state

    def test_single_shard_owns_everything(self):
        for key in KEYS:
            assert shard_of_key(key, 1) == 0

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            shard_of_key("fc1.W", 0)

    @given(keys=st.lists(_KEY_NAMES, max_size=32, unique=True),
           shards=st.integers(min_value=1, max_value=8))
    def test_partition_is_an_ordered_cover(self, keys, shards):
        groups = partition_keys(keys, shards)
        assert len(groups) == shards
        flattened = [key for group in groups for key in group]
        assert sorted(flattened) == sorted(keys)  # every key exactly once
        for shard, group in enumerate(groups):
            assert all(shard_of_key(key, shards) == shard for key in group)
            # each group preserves the input order of its keys
            positions = [keys.index(key) for key in group]
            assert positions == sorted(positions)


# -------------------------------------------------------------- plan scope
class TestShardPlanScope:
    def test_installs_and_restores(self):
        assert active_plan() is None
        with shard_plan(3) as plan:
            assert active_plan() is plan
            assert plan.shards == 3
        assert active_plan() is None

    def test_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with shard_plan(2):
                raise RuntimeError("boom")
        assert active_plan() is None

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            ShardPlan(0)

    def test_stats_accumulate_per_count(self):
        reset_shard_stats()
        rng = np.random.default_rng(0)
        dicts = [_params(rng, KEYS) for _ in range(3)]
        for shards in (2, 2, 4):
            with shard_plan(shards):
                weighted_average(dicts, [1.0, 2.0, 3.0])
        stats = shard_stats()
        assert stats["reductions"] == 3
        assert set(stats["per_shard_bytes"]) == {2, 4}
        assert len(stats["per_shard_bytes"][2]) == 2
        assert len(stats["per_shard_bytes"][4]) == 4
        assert sum(stats["per_shard_bytes"][2]) \
            + sum(stats["per_shard_bytes"][4]) == stats["reduce_bytes"]
        reset_shard_stats()
        assert shard_stats()["reductions"] == 0

    def test_charge_is_result_bytes_times_updates(self):
        rng = np.random.default_rng(1)
        dicts = [_params(rng, KEYS) for _ in range(5)]
        expected = sum(value.nbytes for value in dicts[0].values()) * 5
        with shard_plan(3) as plan:
            weighted_average(dicts, [1.0] * 5)
        assert sum(plan.per_shard_bytes) == expected


# ------------------------------------------------------------ bit identity
class TestShardedKernelsAreBitIdentical:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7])
    def test_weighted_average(self, shards):
        rng = np.random.default_rng(2)
        dicts = [_params(rng, KEYS) for _ in range(4)]
        weights = [0.5, 1.5, 2.0, 0.25]
        reference = weighted_average(dicts, weights)
        with shard_plan(shards):
            sharded = weighted_average(dicts, weights)
        _assert_identical(sharded, reference)

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7])
    def test_aggregate_residuals(self, shards):
        rng = np.random.default_rng(3)
        global_params = _params(rng, KEYS)
        residuals = [_params(rng, KEYS) for _ in range(4)]
        weights = [1.0, 2.0, 3.0, 4.0]
        reference = aggregate_residuals(global_params, residuals, weights)
        with shard_plan(shards):
            sharded = aggregate_residuals(global_params, residuals, weights)
        _assert_identical(sharded, reference)

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7])
    def test_masked_average(self, shards):
        rng = np.random.default_rng(4)
        global_params = _params(rng, KEYS)
        updates = [_params(rng, KEYS) for _ in range(4)]
        masks = [{key: (rng.random(value.shape) < 0.5).astype(np.float64)
                  for key, value in global_params.items()}
                 for _ in range(4)]
        weights = [1.0, 0.5, 2.0, 1.5]
        reference = masked_average(global_params, updates, masks, weights)
        with shard_plan(shards):
            sharded = masked_average(global_params, updates, masks, weights)
        _assert_identical(sharded, reference)

    def test_masked_average_without_weights(self):
        rng = np.random.default_rng(5)
        global_params = _params(rng, KEYS)
        updates = [_params(rng, KEYS) for _ in range(3)]
        masks = [{key: np.ones_like(value)
                  for key, value in global_params.items()}
                 for _ in range(3)]
        reference = masked_average(global_params, updates, masks)
        with shard_plan(3):
            sharded = masked_average(global_params, updates, masks)
        _assert_identical(sharded, reference)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000),
           shards=st.integers(min_value=1, max_value=9),
           num_updates=st.integers(min_value=1, max_value=5))
    def test_weighted_average_property(self, seed, shards, num_updates):
        rng = np.random.default_rng(seed)
        keys = [f"k{index}" for index in range(rng.integers(1, 9))]
        dicts = [{key: rng.standard_normal((2, 3)) for key in keys}
                 for _ in range(num_updates)]
        weights = list(rng.random(num_updates) + 0.1)
        reference = weighted_average(dicts, weights)
        with shard_plan(shards):
            sharded = weighted_average(dicts, weights)
        _assert_identical(sharded, reference)

    def test_error_behavior_delegates_to_base_kernel(self):
        with shard_plan(3):
            with pytest.raises(ValueError):
                weighted_average([], [])
            with pytest.raises(ValueError):
                weighted_average([{"w": np.ones(2)}], [0.0])

    def test_plan_suspended_inside_base_kernel(self):
        # the wrappers must not re-dispatch recursively: a sharded call
        # that completes proves suspension, and the plan is restored after
        rng = np.random.default_rng(6)
        dicts = [_params(rng, KEYS) for _ in range(2)]
        with shard_plan(2) as plan:
            weighted_average(dicts, [1.0, 1.0])
            assert active_plan() is plan


# ----------------------------------------------------------- shard balance
class TestShardBalance:
    """Per-shard reduce bytes shrink ~1/N on many equal keys — the
    parameter-server regime; a real model's manifest is too lumpy (one fc
    matrix dominates MNIST's bytes) for the split to mean anything."""

    KEYS = 64
    KEY_ELEMENTS = 256
    UPDATES = 8
    #: the largest shard may exceed its fair 1/N byte share by this fraction
    GATE_BALANCE_TOLERANCE = 0.25

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_largest_shard_near_its_fair_share(self, shards):
        rng = np.random.default_rng(0)
        keys = [f"layer{index:03d}.W" for index in range(self.KEYS)]
        updates = [{key: rng.standard_normal(self.KEY_ELEMENTS)
                    for key in keys} for _ in range(self.UPDATES)]
        with shard_plan(shards) as plan:
            sharded_weighted_average(plan, updates, [1.0] * self.UPDATES)
            per_shard = list(plan.per_shard_bytes)
        assert len(per_shard) == shards
        assert max(per_shard) / sum(per_shard) \
            <= (1.0 + self.GATE_BALANCE_TOLERANCE) / shards


# ------------------------------------------------------------- shard views
class TestShardViews:
    def test_plain_view_restricts_and_orders(self):
        rng = np.random.default_rng(7)
        base = _params(rng, KEYS)
        view = shard_view(base, ["fc1.W", "conv1.b"])
        assert list(view) == ["fc1.W", "conv1.b"]
        assert len(view) == 2
        assert view["fc1.W"] is base["fc1.W"]
        with pytest.raises(KeyError):
            view["fc2.W"]

    def test_indexed_view_forwards_slices(self):
        class Decoded(dict):
            def slices(self, key):
                return ("slices-of", key)

        base = Decoded(a=np.ones(2), b=np.zeros(2))
        view = shard_view(base, ["a"])
        assert hasattr(view, "slices")
        assert view.slices("a") == ("slices-of", "a")
        plain = shard_view(dict(base), ["a"])
        assert not hasattr(plain, "slices")


# ------------------------------------------------- end-to-end (serial run)
class TestServerIntegration:
    def test_reducer_shards_leave_history_bit_identical(self):
        from repro.experiments import preset_for, run_method, scaled

        overrides = dict(num_clients=4, num_rounds=2, clients_per_round=2,
                         examples_per_client=20, local_iterations=2,
                         batch_size=8, seed=11)
        base = scaled(preset_for("mnist"), **overrides)
        reference = run_method("fedavg", base).to_dict()
        for shards in (2, 5):
            history = run_method(
                "fedavg", scaled(base, reducer_shards=shards)).to_dict()
            assert history == reference, f"shards={shards} drifted"

    def test_config_rejects_nonpositive_shards(self):
        from repro.federated import FederatedConfig

        with pytest.raises(ValueError, match="reducer_shards"):
            FederatedConfig(reducer_shards=0)
