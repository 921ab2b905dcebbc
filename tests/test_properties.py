"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandit import PUCBVAgent
from repro.core.utility import accuracy_utility
from repro.data import Dataset, iid_partition
from repro.nn.params import add, multiply, scale, subtract, weighted_average
from repro.sparsity import pattern_from_scores, units_to_keep

from mlp import build_mlp

MODEL = build_mlp(6, [10, 8], 3, seed=0)


@given(n_units=st.integers(min_value=1, max_value=200),
       ratio=st.floats(min_value=0.01, max_value=1.0))
def test_units_to_keep_bounds(n_units, ratio):
    kept = units_to_keep(n_units, ratio)
    assert 1 <= kept <= n_units


@given(ratio=st.floats(min_value=0.05, max_value=1.0),
       seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=30, deadline=None)
def test_pattern_from_scores_keeps_exact_counts(ratio, seed):
    rng = np.random.default_rng(seed)
    scores = {group.layer_name: rng.standard_normal(group.n_units)
              for group in MODEL.unit_groups}
    pattern = pattern_from_scores(MODEL, scores, ratio)
    for group in MODEL.unit_groups:
        kept = int(np.count_nonzero(pattern[group.layer_name]))
        assert kept == units_to_keep(group.n_units, ratio)
    assert 0.0 < np.concatenate(list(pattern.values())).mean() <= 1.0


@given(ratio=st.floats(min_value=0.05, max_value=1.0),
       seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=30, deadline=None)
def test_pattern_retains_highest_scores(ratio, seed):
    rng = np.random.default_rng(seed)
    scores = {group.layer_name: rng.standard_normal(group.n_units)
              for group in MODEL.unit_groups}
    pattern = pattern_from_scores(MODEL, scores, ratio)
    for group in MODEL.unit_groups:
        layer_scores = scores[group.layer_name]
        mask = pattern[group.layer_name]
        if mask.all() or not mask.any():
            continue
        assert layer_scores[mask].min() >= layer_scores[~mask].max() - 1e-12


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=8),
       st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_weighted_average_is_convex_combination(values, weights):
    size = min(len(values), len(weights))
    dicts = [{"w": np.array([v])} for v in values[:size]]
    merged = weighted_average(dicts, weights[:size])
    assert min(values[:size]) - 1e-9 <= merged["w"][0] <= max(values[:size]) + 1e-9


@given(seed=st.integers(min_value=0, max_value=100),
       factor=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=50, deadline=None)
def test_param_arithmetic_identities(seed, factor):
    rng = np.random.default_rng(seed)
    a = {"x": rng.standard_normal(4), "y": rng.standard_normal((2, 2))}
    b = {"x": rng.standard_normal(4), "y": rng.standard_normal((2, 2))}
    roundtrip = subtract(add(a, b), b)
    for key in a:
        np.testing.assert_allclose(roundtrip[key], a[key], atol=1e-12)
    scaled = scale(a, factor)
    for key in a:
        np.testing.assert_allclose(scaled[key], a[key] * factor)
    ones = {key: np.ones_like(value) for key, value in a.items()}
    for key in a:
        np.testing.assert_allclose(multiply(a, ones)[key], a[key])


@given(num_clients=st.integers(min_value=1, max_value=20),
       seed=st.integers(min_value=0, max_value=20))
@settings(max_examples=20, deadline=None)
def test_iid_partition_covers_every_example_once(num_clients, seed):
    rng = np.random.default_rng(seed)
    dataset = Dataset(rng.standard_normal((57, 2)), rng.integers(0, 3, 57))
    parts = iid_partition(dataset, num_clients, seed=seed)
    joined = np.sort(np.concatenate(parts))
    np.testing.assert_array_equal(joined, np.arange(57))


@given(low=st.floats(min_value=0.0, max_value=99.0),
       delta=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_accuracy_utility_is_monotone(low, delta):
    high = min(low + delta, 100.0)
    assert accuracy_utility(high) >= accuracy_utility(low) - 1e-12
    assert 0.0 <= accuracy_utility(high) < 10.0


@given(seed=st.integers(min_value=0, max_value=30),
       steps=st.integers(min_value=1, max_value=15))
@settings(max_examples=20, deadline=None)
def test_pucbv_partitions_always_tile_the_arm_space(seed, steps):
    agent = PUCBVAgent(total_rounds=40, num_clients=8, selection_fraction=0.25,
                       ratio_min=0.2, seed=seed)
    rng = np.random.default_rng(seed)
    ratio = agent.initial_ratio()
    for _ in range(steps):
        accuracy = float(rng.uniform(0, 100))
        previous = float(rng.uniform(0, 100))
        ratio = agent.observe_and_select(ratio, float(rng.uniform(0.1, 2.0)),
                                         accuracy, previous)
        assert agent.ratio_min <= ratio <= agent.ratio_max
        bounds = [(p.low, p.high) for p in agent.partitions]
        # partitions are disjoint, ordered and within the arm space
        for (lo, hi) in bounds:
            assert agent.ratio_min - 1e-9 <= lo < hi <= agent.ratio_max + 1e-9
        for (_, hi), (lo, _) in zip(bounds[:-1], bounds[1:]):
            assert hi <= lo + 1e-9
