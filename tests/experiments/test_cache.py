"""Tests for the JSON-on-disk experiment result cache."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (ResultCache, preset_for, run_grid, run_jobs,
                               run_method, run_spec, scaled, spec_key)
from repro.parallel import resolve_executor

TINY = dict(num_clients=4, num_rounds=2, clients_per_round=2,
            examples_per_client=20, local_iterations=2, batch_size=8, seed=5)


def tiny_preset(**extra):
    return scaled(preset_for("mnist"), **{**TINY, **extra})


class TestSpecKeys:
    def test_key_is_stable(self):
        spec = run_spec("fedavg", tiny_preset())
        assert spec_key(spec) == spec_key(run_spec("fedavg", tiny_preset()))

    def test_key_covers_method_preset_and_kwargs(self):
        base = spec_key(run_spec("fedavg", tiny_preset()))
        assert spec_key(run_spec("fedlps", tiny_preset())) != base
        assert spec_key(run_spec("fedavg", tiny_preset(seed=6))) != base
        assert spec_key(run_spec("fedavg", tiny_preset(),
                                 {"mu": 0.5})) != base

    def test_key_covers_the_scenario(self):
        base = spec_key(run_spec("fedavg", tiny_preset()))
        assert spec_key(run_spec(
            "fedavg", tiny_preset(scenario="deadline-tight"))) != base

    def test_key_covers_the_supervision_knobs(self):
        """Chaos runs must never collide with clean runs in the cache."""
        base = spec_key(run_spec("fedavg", tiny_preset()))
        assert spec_key(run_spec(
            "fedavg", tiny_preset(fault_plan="chaos",
                                  max_retries=4))) != base
        assert spec_key(run_spec(
            "fedavg", tiny_preset(max_retries=2))) != base
        assert spec_key(run_spec(
            "fedavg", tiny_preset(task_timeout=30.0))) != base

    def test_kwargs_insertion_order_is_irrelevant(self):
        forward = run_spec("fedavg", tiny_preset(), {"a": 1, "b": 2})
        backward = run_spec("fedavg", tiny_preset(), {"b": 2, "a": 1})
        assert spec_key(forward) == spec_key(backward)

    def test_nested_dict_insertion_order_is_irrelevant(self):
        forward = run_spec("fedavg", tiny_preset(),
                           {"sched": {"warmup": 2, "decay": 0.9}})
        backward = run_spec("fedavg", tiny_preset(),
                            {"sched": {"decay": 0.9, "warmup": 2}})
        assert spec_key(forward) == spec_key(backward)

    def test_non_string_keys_are_canonicalized(self):
        # int-keyed overrides must survive a JSON round trip and stay
        # order-insensitive (json would otherwise stringify the keys and
        # break the stored-spec comparison on every read)
        forward = run_spec("fedavg", tiny_preset(), {"ratios": {2: 0.5, 1: 1.0}})
        backward = run_spec("fedavg", tiny_preset(), {"ratios": {1: 1.0, 2: 0.5}})
        assert spec_key(forward) == spec_key(backward)
        round_tripped = json.loads(json.dumps(forward))
        assert round_tripped == forward

    def test_colliding_keys_fail_loudly(self):
        # {1: ..., "1": ...} cannot be canonicalized without dropping an
        # entry; a loud error beats a silent wrong cache hit
        with pytest.raises(ValueError):
            spec_key(run_spec("fedavg", tiny_preset(), {"m": {1: "a", "1": "b"}}))

    def test_sets_hash_order_independently(self):
        forward = run_spec("fedavg", tiny_preset(), {"levels": {0.5, 1.0, 0.25}})
        backward = run_spec("fedavg", tiny_preset(), {"levels": {1.0, 0.25, 0.5}})
        assert spec_key(forward) == spec_key(backward)

    def test_extra_config_order_is_irrelevant(self):
        forward = tiny_preset(extra_config={"x": 1.0, "y": 2.0})
        backward = tiny_preset(extra_config={"y": 2.0, "x": 1.0})
        assert (spec_key(run_spec("fedavg", forward))
                == spec_key(run_spec("fedavg", backward)))


class TestResultCache:
    def test_round_trip_is_exact(self, tmp_path):
        cache = ResultCache(tmp_path)
        history = run_method("fedlps", tiny_preset())
        cache.put("fedlps", tiny_preset(), None, history)
        restored = cache.get("fedlps", tiny_preset())
        assert restored is not None
        assert restored.to_dict() == history.to_dict()
        assert cache.hits == 1

    def test_miss_on_unknown_spec(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("fedavg", tiny_preset()) is None
        assert cache.misses == 1

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        history = run_method("fedavg", tiny_preset())
        path = cache.put("fedavg", tiny_preset(), None, history)
        path.write_text("{not json")
        assert cache.get("fedavg", tiny_preset()) is None

    def test_spec_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        history = run_method("fedavg", tiny_preset())
        path = cache.put("fedavg", tiny_preset(), None, history)
        payload = json.loads(path.read_text())
        payload["spec"]["preset"]["seed"] = 12345
        path.write_text(json.dumps(payload))
        assert cache.get("fedavg", tiny_preset()) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("fedavg", tiny_preset(), None,
                  run_method("fedavg", tiny_preset()))
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestCachedSweeps:
    def test_run_jobs_is_incremental(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [(method, tiny_preset(), None) for method in ("fedavg", "fedlps")]
        first = run_jobs(specs, cache=cache)
        assert cache.misses == 2 and cache.hits == 0
        second = run_jobs(specs, cache=cache)
        assert cache.hits == 2
        for was, now in zip(first, second):
            assert was.to_dict() == now.to_dict()

    def test_run_grid_covers_the_grid(self, tmp_path):
        cache = ResultCache(tmp_path)
        kwargs = {"ratio_policy": "fixed", "fixed_ratio": 0.4,
                  "pattern_mode": "ordered"}
        methods = ["fedavg", "fedlps", ("ordered@0.4", "fedlps", kwargs)]
        grid = run_grid(methods, ["mnist"], overrides=dict(TINY), cache=cache)
        assert set(grid) == {("fedavg", "mnist"), ("fedlps", "mnist"),
                             ("ordered@0.4", "mnist")}
        assert len(cache) == 3
        again = run_grid(methods, ["mnist"], overrides=dict(TINY), cache=cache)
        assert cache.hits == 3
        for key in grid:
            assert grid[key].to_dict() == again[key].to_dict()
        # a labelled entry caches under its registry name and kwargs
        assert cache.path_for("fedlps", tiny_preset(), kwargs).exists()
        assert (cache.get("fedlps", tiny_preset(), kwargs).to_dict()
                == grid["ordered@0.4", "mnist"].to_dict())

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_a_failing_cell_keeps_every_finished_cell(self, tmp_path,
                                                      backend):
        """Finished cells are cached; the first failed cell's error raises."""
        cache = ResultCache(tmp_path)
        specs = [("no-such-method", tiny_preset(), None),
                 ("fedavg", tiny_preset(), None),
                 ("no-such-other-method", tiny_preset(), None)]
        with resolve_executor(backend, 2) as executor:
            with pytest.raises(ValueError, match="'no-such-method'"):
                run_jobs(specs, executor=executor, cache=cache)
        assert len(cache) == 1
        assert cache.get("fedavg", tiny_preset(), None) is not None

    def test_reordered_kwargs_hit_the_same_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        history = run_method("fedlps", tiny_preset())
        cache.put("fedlps", tiny_preset(), {"mu": 0.1, "lam": 0.2}, history)
        restored = cache.get("fedlps", tiny_preset(), {"lam": 0.2, "mu": 0.1})
        assert restored is not None
        assert restored.to_dict() == history.to_dict()
        assert len(cache) == 1
