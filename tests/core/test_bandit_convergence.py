"""Tests for the P-UCBV bandit and the convergence-bound helpers."""

import numpy as np
import pytest

from repro.core import (PUCBVAgent, RatioPartition, empirical_parameter_gap,
                        gradient_norm_trajectory, lemma1_gap_bound,
                        max_learning_rate, theorem1_bound)


def make_agent(**kwargs):
    defaults = dict(total_rounds=50, num_clients=10, selection_fraction=0.2,
                    num_initial_partitions=4, seed=0)
    defaults.update(kwargs)
    return PUCBVAgent(**defaults)


class TestRatioPartition:
    def test_contains_and_sample(self):
        part = RatioPartition(0.2, 0.6)
        assert part.contains(0.2) and not part.contains(0.6)
        value = part.sample(np.random.default_rng(0))
        assert 0.2 <= value < 0.6

    def test_statistics(self):
        part = RatioPartition(0.0, 1.0, rewards=[1.0, 3.0])
        assert part.pulls == 2
        assert part.mean_reward == pytest.approx(2.0)
        assert part.reward_variance == pytest.approx(1.0)
        assert RatioPartition(0.0, 1.0).mean_reward == 0.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            RatioPartition(0.5, 0.5)


class TestPUCBVAgent:
    def test_initial_partitions_cover_arm_space(self):
        agent = make_agent(ratio_min=0.1, ratio_max=1.0)
        bounds = [(p.low, p.high) for p in agent.partitions]
        assert bounds[0][0] == pytest.approx(0.1)
        assert bounds[-1][1] == pytest.approx(1.0)
        for (_, hi), (lo, _) in zip(bounds[:-1], bounds[1:]):
            assert hi == pytest.approx(lo)

    def test_initial_ratio_within_bounds(self):
        agent = make_agent(ratio_min=0.2)
        ratio = agent.initial_ratio()
        assert 0.2 <= ratio < 1.0

    def test_observe_returns_valid_next_ratio(self):
        agent = make_agent()
        ratio = agent.initial_ratio()
        for r in range(10):
            ratio = agent.observe_and_select(ratio, local_cost_seconds=1.0,
                                             accuracy_percent=50.0 + r,
                                             previous_accuracy_percent=50.0 + r - 1)
            assert agent.ratio_min <= ratio <= agent.ratio_max

    def test_partition_splitting_grows_tree(self):
        agent = make_agent()
        before = len(agent.partitions)
        agent.observe_and_select(0.5, 1.0, 60.0, 50.0)
        assert len(agent.partitions) >= before

    def test_accuracy_drop_triggers_elimination(self):
        agent = make_agent(accuracy_threshold=0.0)
        ratio = 0.5
        eliminated_before = agent._eliminated
        # repeated accuracy drops should eventually eliminate lower partitions
        for _ in range(6):
            ratio = agent.observe_and_select(ratio, 1.0, 40.0, 60.0)
        assert agent._eliminated > eliminated_before

    def test_elimination_never_removes_last_partition(self):
        agent = make_agent(num_initial_partitions=1)
        ratio = agent.initial_ratio()
        for _ in range(5):
            ratio = agent.observe_and_select(ratio, 1.0, 10.0, 90.0)
        assert len(agent.partitions) >= 1

    def test_low_ratio_penalised_when_it_hurts_accuracy(self):
        rng = np.random.default_rng(0)
        agent = make_agent(accuracy_threshold=0.0, seed=1)
        ratio = agent.initial_ratio()
        chosen = []
        for _ in range(30):
            # simulate: low ratios hurt accuracy, high ratios help
            gain = 5.0 if ratio > 0.5 else -5.0
            previous = 50.0
            ratio = agent.observe_and_select(ratio, 1.0, previous + gain, previous)
            chosen.append(ratio)
        assert np.mean(chosen[-10:]) > 0.4

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            make_agent(total_rounds=0)
        with pytest.raises(ValueError):
            make_agent(selection_fraction=0.0)
        with pytest.raises(ValueError):
            make_agent(ratio_min=0.0)
        with pytest.raises(ValueError):
            make_agent(num_initial_partitions=0)

    def test_invalid_cost_rejected(self):
        agent = make_agent()
        with pytest.raises(ValueError):
            agent.observe_and_select(0.5, 0.0, 50.0, 40.0)


class TestConvergenceBounds:
    def test_max_learning_rate_shrinks_with_rounds(self):
        assert max_learning_rate(5, 100, 1.0, 1.0) < max_learning_rate(5, 10, 1.0, 1.0)
        with pytest.raises(ValueError):
            max_learning_rate(0, 10, 1.0, 1.0)

    def test_lemma1_bound_monotone_in_learning_rate(self):
        small = lemma1_gap_bound(5, 0.01, 1.0, 1.0, 1.0)
        large = lemma1_gap_bound(5, 0.1, 1.0, 1.0, 1.0)
        assert large > small > 0
        with pytest.raises(ValueError):
            lemma1_gap_bound(5, 0.0, 1.0, 1.0, 1.0)

    def test_theorem1_bound_vanishes_with_more_rounds(self):
        kwargs = dict(gradient_bias=1.0, gradient_distance=1.0,
                      gradient_norm=1.0, smoothness=1.0, v_max=1.0)
        few = theorem1_bound(10, 5, 10, 1.0, **kwargs)
        many = theorem1_bound(10_000, 5, 10, 1.0, **kwargs)
        assert many < few
        with pytest.raises(ValueError):
            theorem1_bound(0, 5, 10, 1.0, **kwargs)

    def test_empirical_gap_and_trajectory(self):
        global_params = {"w": np.zeros(3)}
        locals_ = [{"w": np.ones(3)}, {"w": 2 * np.ones(3)}]
        gap = empirical_parameter_gap(locals_, global_params)
        assert gap == pytest.approx((3 + 12) / 2)
        assert gradient_norm_trajectory([1.0, 2.0]) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            empirical_parameter_gap([], global_params)
        with pytest.raises(ValueError):
            gradient_norm_trajectory([])

    def test_lemma1_bound_holds_on_toy_quadratic_problem(self):
        """Simulated local SGD on quadratics stays within the Lemma 1 bound."""
        rng = np.random.default_rng(0)
        num_clients, iterations = 4, 5
        smoothness = 1.0
        eta = max_learning_rate(iterations, 20, 1.0, smoothness)
        global_w = np.zeros(3)
        gaps = []
        h_bound = 0.0
        for _ in range(num_clients):
            target = rng.standard_normal(3)
            w = global_w.copy()
            for _ in range(iterations):
                grad = w - target  # gradient of 0.5 * ||w - target||^2
                h_bound = max(h_bound, float(np.linalg.norm(grad)))
                w = w - eta * grad
            gaps.append(float(np.sum((w - global_w) ** 2)))
        bound = lemma1_gap_bound(iterations, eta, gradient_bias=0.0,
                                 gradient_distance=h_bound,
                                 gradient_norm=h_bound)
        assert np.mean(gaps) <= bound
