"""Unit tests for the shared-memory broadcast layer."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.parallel import (Broadcast, broadcast_stats, materialize,
                            resolve_codec)
from repro.parallel import broadcast as broadcast_module


@pytest.fixture
def stats_delta():
    """The broadcast counters' change since the test started."""
    before = broadcast_stats()
    return lambda: {key: value - before[key]
                    for key, value in broadcast_stats().items()}


@pytest.fixture(autouse=True)
def fresh_worker_cache():
    # materialize caches per thread; tests must not see each other's entries
    broadcast_module._worker_cache.entries = None
    yield
    broadcast_module._worker_cache.entries = None


def sample_params(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "dense.W": rng.standard_normal((64, 32)),
        "dense.b": rng.standard_normal(32),
        "conv.W": rng.standard_normal((4, 2, 3, 3)),
    }


class TestRoundTrip:
    @pytest.mark.parametrize("use_shared_memory", [True, False])
    def test_params_and_payload_survive_bitwise(self, use_shared_memory):
        params = sample_params()
        payload = {"round": 3, "note": "template"}
        with Broadcast(payload, params, round_index=3,
                       use_shared_memory=use_shared_memory) as broadcast:
            got_params, got_payload = materialize(broadcast.handle)
        assert got_payload == payload
        assert set(got_params) == set(params)
        for key, value in params.items():
            assert got_params[key].dtype == value.dtype
            assert got_params[key].shape == value.shape
            assert np.array_equal(got_params[key], value)

    def test_materialized_params_are_read_only_zero_copy_views(self):
        """The writeability guard: fan-out params cannot be mutated in place.

        Every materialized array is a view into the worker's single private
        snapshot of the segment (no per-array copy), and any in-place write
        raises instead of silently corrupting the cached broadcast that
        later tasks on the same worker will reuse.
        """
        params = sample_params()
        with Broadcast(None, params) as broadcast:
            got, _ = materialize(broadcast.handle)
        for array in got.values():
            assert not array.flags.writeable
            assert array.base is not None  # a view, not a private copy
        with pytest.raises(ValueError):
            got["dense.b"][0] = 123.0
        assert params["dense.b"][0] != 123.0  # the published arrays untouched

    @pytest.mark.parametrize("codec_name", ["sparse", "int8", "pq"])
    @pytest.mark.parametrize("use_shared_memory", [True, False])
    def test_encoded_params_decode_to_server_side_arrays(
            self, codec_name, use_shared_memory):
        """Codec-tagged blocks: workers rebuild exactly the decoded params."""
        codec = resolve_codec(codec_name)
        params = sample_params()
        encoded = codec.encode(params)
        expected = codec.decode(encoded)
        with Broadcast({"round": 1}, encoded_params=encoded, round_index=1,
                       use_shared_memory=use_shared_memory) as broadcast:
            assert broadcast.handle.has_params
            got_params, _ = materialize(broadcast.handle)
        assert set(got_params) == set(params)
        for key in params:
            assert got_params[key].dtype == np.asarray(expected[key]).dtype
            assert got_params[key].tobytes() == \
                np.asarray(expected[key]).tobytes()
            assert not got_params[key].flags.writeable

    def test_encoded_broadcast_param_bytes_count_wire_bytes(self, stats_delta):
        """The param_bytes stat measures the encoded (wire) size."""
        rng = np.random.default_rng(1)
        residual = np.where(rng.random((64, 64)) < 0.2,
                            rng.standard_normal((64, 64)), -0.0)
        encoded = resolve_codec("sparse").encode({"w": residual})
        assert encoded.wire_nbytes < encoded.dense_nbytes
        with Broadcast(None, encoded_params=encoded, round_index=0):
            pass
        stats = stats_delta()
        assert stats["param_bytes"] == encoded.wire_nbytes

    def test_params_and_encoded_params_are_exclusive(self):
        encoded = resolve_codec("dense").encode(sample_params())
        with pytest.raises(ValueError, match="not both"):
            Broadcast(None, sample_params(), encoded_params=encoded)

    def test_payload_only_broadcast_has_no_params(self):
        with Broadcast(["just", "a", "payload"]) as broadcast:
            params, payload = materialize(broadcast.handle)
        assert params is None
        assert payload == ["just", "a", "payload"]


class TestHandle:
    def test_handle_stays_small_and_picklable(self):
        params = sample_params()
        param_bytes = sum(v.nbytes for v in params.values())
        with Broadcast({"big": "nope"}, params) as broadcast:
            wire = pickle.dumps(broadcast.handle, pickle.HIGHEST_PROTOCOL)
        # the whole point: task payloads carry a reference, not the blocks
        assert len(wire) < 2048 < param_bytes
        clone = pickle.loads(wire)
        assert clone.digest == broadcast.handle.digest

    def test_digest_tracks_content(self):
        with Broadcast("a", sample_params(seed=1)) as first, \
                Broadcast("a", sample_params(seed=2)) as second, \
                Broadcast("b", sample_params(seed=1)) as third:
            digests = {first.handle.digest, second.handle.digest,
                       third.handle.digest}
        assert len(digests) == 3

    def test_materialize_after_close_raises_clearly(self):
        broadcast = Broadcast("payload", sample_params())
        broadcast.close()
        with pytest.raises(RuntimeError, match="closed the Broadcast"):
            materialize(broadcast.handle)

    def test_close_is_idempotent(self):
        broadcast = Broadcast("payload")
        broadcast.close()
        broadcast.close()


class TestWorkerCache:
    def test_second_materialize_is_a_cache_hit(self, stats_delta):
        with Broadcast("payload", sample_params(), round_index=5) as broadcast:
            first = materialize(broadcast.handle)
        # segment is unlinked now: only the cache can serve this handle
        second = materialize(broadcast.handle)
        assert second[1] is first[1]
        stats = stats_delta()
        assert stats["materializations"] == 1
        assert stats["materialize_hits"] == 1

    def test_cache_is_bounded(self):
        handles = []
        for index in range(broadcast_module.CACHE_LIMIT + 2):
            with Broadcast(f"payload-{index}", round_index=index) as bc:
                materialize(bc.handle)
                handles.append(bc.handle)
        entries = broadcast_module._worker_cache.entries
        assert len(entries) == broadcast_module.CACHE_LIMIT
        # the oldest entries were evicted, the newest survive
        assert handles[-1].cache_key in entries
        assert handles[0].cache_key not in entries


class TestStats:
    def test_publish_counters(self, stats_delta):
        params = sample_params()
        raw = sum(np.ascontiguousarray(v).nbytes for v in params.values())
        with Broadcast("payload", params):
            pass
        with Broadcast("payload-only"):
            pass
        stats = stats_delta()
        assert stats["publishes"] == 2
        assert stats["param_packs"] == 1
        assert stats["param_bytes"] == raw
        assert stats["blob_bytes"] > 0
