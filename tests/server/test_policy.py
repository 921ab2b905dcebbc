"""Oracle micro-tests for the staleness math of the aggregation policy."""

import numpy as np
import pytest

from repro.federated.strategy import ClientUpdate, Strategy
from repro.server.policy import (AggregationPolicy, Arrival, mix_params,
                                 staleness_decay)


def one_arrival_weight(staleness, *, alpha, exponent):
    """The weight FedAsync merges with: a batch of one arrival."""
    update = ClientUpdate(client_id=0, params={}, num_examples=1,
                          train_accuracy=0.0, train_loss=0.0)
    policy = AggregationPolicy(alpha=alpha, exponent=exponent)
    return policy.batch_weight([Arrival(update=update, staleness=staleness)])


class TestStalenessWeightOracle:
    """A one-arrival batch weighs exactly ``alpha / (1 + s)^a``."""

    @pytest.mark.parametrize("staleness,alpha,exponent", [
        (0, 0.6, 0.5), (1, 0.6, 0.5), (4, 0.6, 0.5),
        (0, 1.0, 1.0), (3, 1.0, 1.0), (9, 0.25, 2.0), (7, 0.5, 0.0),
    ])
    def test_matches_closed_form(self, staleness, alpha, exponent):
        expected = alpha / (1.0 + staleness) ** exponent
        assert one_arrival_weight(staleness, alpha=alpha,
                                  exponent=exponent) == expected

    def test_fresh_update_gets_alpha(self):
        assert one_arrival_weight(0, alpha=0.6, exponent=0.5) == 0.6

    def test_weight_decreases_with_staleness(self):
        weights = [one_arrival_weight(s, alpha=0.6, exponent=0.5)
                   for s in range(6)]
        assert weights == sorted(weights, reverse=True)
        assert all(w > 0 for w in weights)

    def test_zero_exponent_ignores_staleness(self):
        assert one_arrival_weight(100, alpha=0.3, exponent=0.0) == 0.3

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError):
            staleness_decay(-1)
        with pytest.raises(ValueError):
            one_arrival_weight(-1, alpha=0.6, exponent=0.5)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            one_arrival_weight(0, alpha=0.0, exponent=0.5)
        with pytest.raises(ValueError):
            one_arrival_weight(0, alpha=1.5, exponent=0.5)


class TestMixParams:
    def setup_method(self):
        self.previous = {"w": np.array([1.0, 2.0]), "b": np.array([0.0])}
        self.candidate = {"w": np.array([3.0, 6.0]), "b": np.array([1.0])}

    def test_weight_zero_keeps_previous(self):
        mixed = mix_params(self.previous, self.candidate, 0.0)
        np.testing.assert_array_equal(mixed["w"], self.previous["w"])

    def test_weight_one_takes_candidate(self):
        mixed = mix_params(self.previous, self.candidate, 1.0)
        np.testing.assert_array_equal(mixed["w"], self.candidate["w"])

    def test_midpoint(self):
        mixed = mix_params(self.previous, self.candidate, 0.5)
        np.testing.assert_allclose(mixed["w"], [2.0, 4.0])
        np.testing.assert_allclose(mixed["b"], [0.5])

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mix_params(self.previous, {"w": np.array([1.0, 1.0])}, 0.5)

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(ValueError):
            mix_params(self.previous, self.candidate, 1.5)


def _update(client_id, value, num_examples=1):
    return ClientUpdate(client_id=client_id,
                        params={"w": np.array([float(value)])},
                        num_examples=num_examples, train_accuracy=0.0,
                        train_loss=0.0)


def _strategy(global_value):
    strategy = Strategy()
    strategy.global_params = {"w": np.array([float(global_value)])}
    return strategy


class TestPolicyMerge:
    """merge == FedAsync's ``(1 - w) * global + w * aggregate(batch)``."""

    def test_single_fresh_arrival(self):
        strategy = _strategy(0.0)
        policy = AggregationPolicy(alpha=0.6, exponent=0.5)
        weight = policy.merge(strategy, 0, [Arrival(_update(0, 10.0), 0)])
        assert weight == 0.6
        np.testing.assert_allclose(strategy.global_params["w"], [6.0])

    def test_stale_arrival_moves_less(self):
        # staleness 3 at exponent 0.5: w = 0.6 / 2 = 0.3
        strategy = _strategy(0.0)
        policy = AggregationPolicy(alpha=0.6, exponent=0.5)
        weight = policy.merge(strategy, 0, [Arrival(_update(0, 10.0), 3)])
        assert weight == pytest.approx(0.3)
        np.testing.assert_allclose(strategy.global_params["w"], [3.0])

    def test_batch_uses_mean_decay_and_strategy_aggregate(self):
        # batch of two equally-sized updates: candidate = fedavg = 6.0;
        # stalenesses (0, 3) at exponent 0.5 -> mean decay (1 + 0.5)/2
        strategy = _strategy(0.0)
        policy = AggregationPolicy(alpha=0.8, exponent=0.5)
        weight = policy.merge(strategy, 0, [Arrival(_update(0, 4.0), 0),
                                            Arrival(_update(1, 8.0), 3)])
        assert weight == pytest.approx(0.8 * 0.75)
        np.testing.assert_allclose(strategy.global_params["w"],
                                   [0.8 * 0.75 * 6.0])

    def test_alpha_one_staleness_zero_is_synchronous(self):
        strategy = _strategy(123.0)
        policy = AggregationPolicy(alpha=1.0, exponent=0.5)
        policy.merge(strategy, 0, [Arrival(_update(0, 7.0), 0)])
        np.testing.assert_allclose(strategy.global_params["w"], [7.0])

    def test_empty_batch_is_a_noop(self):
        strategy = _strategy(5.0)
        policy = AggregationPolicy()
        assert policy.merge(strategy, 0, []) == 0.0
        np.testing.assert_allclose(strategy.global_params["w"], [5.0])
