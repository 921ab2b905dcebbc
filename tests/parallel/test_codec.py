"""Codec conformance suite: the contracts every wire codec must honour.

Lossless codecs (``dense``, ``sparse``) must satisfy bit-exact
``decode(encode(x)) == x`` on *arbitrary* arrays — negative zeros, NaNs,
infinities, every dtype, empty and scalar shapes.  Lossy codecs (``int8``,
``pq``) must be deterministic (same input, same wire bytes) and must honour
the reconstruction-error certificate they store in the block metadata.
Every codec must respect the byte budget: the wire form never exceeds the
dense representation.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.parallel.codec import (CODECS, DecodedParams, EncodedParams,
                                  IndexedSlices, LOSSLESS_CODECS,
                                  available_codecs, decode_block,
                                  resolve_codec)

LOSSY_CODECS = tuple(name for name in available_codecs()
                     if name not in LOSSLESS_CODECS)

#: element pools that exercise the bit-exactness corners: signed zeros,
#: NaN, infinities, subnormals, plus ordinary magnitudes
_FLOAT_ELEMENTS = st.floats(allow_nan=True, allow_infinity=True, width=64)

_FLOAT_ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=8),
    elements=st.floats(allow_nan=True, allow_infinity=True, width=32))

_INT_ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.int64, np.int32, np.uint8]),
    shape=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=8),
    elements=st.integers(min_value=0, max_value=120))


def _sparse_like(rng, shape, density):
    """A FedLPS-style residual: values at on-mask spots, -0.0 elsewhere."""
    mask = rng.random(shape) < density
    values = rng.normal(size=shape)
    return np.where(mask, values, -0.0)


# ---------------------------------------------------------------- registry
class TestRegistry:
    def test_available_codecs(self):
        assert available_codecs() == ("dense", "sparse", "int8", "pq")

    def test_lossless_partition(self):
        assert LOSSLESS_CODECS == ("dense", "sparse")
        assert LOSSY_CODECS == ("int8", "pq")
        for name in available_codecs():
            assert resolve_codec(name).lossless == (name in LOSSLESS_CODECS)

    def test_resolve_is_case_insensitive(self):
        assert resolve_codec("SPARSE") is CODECS["sparse"]

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown codec"):
            resolve_codec("gzip")


# ------------------------------------------------------- lossless contract
class TestLosslessBitIdentity:
    @pytest.mark.parametrize("codec_name", LOSSLESS_CODECS)
    @settings(max_examples=60, deadline=None)
    @given(array=_FLOAT_ARRAYS)
    def test_float_roundtrip_bit_exact(self, codec_name, array):
        codec = resolve_codec(codec_name)
        decoded = codec.decode(codec.encode({"w": array}))["w"]
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        assert decoded.tobytes() == array.tobytes()

    @pytest.mark.parametrize("codec_name", LOSSLESS_CODECS)
    @settings(max_examples=40, deadline=None)
    @given(array=_INT_ARRAYS)
    def test_int_roundtrip_bit_exact(self, codec_name, array):
        codec = resolve_codec(codec_name)
        decoded = codec.decode(codec.encode({"w": array}))["w"]
        assert decoded.dtype == array.dtype
        assert decoded.tobytes() == array.tobytes()

    @pytest.mark.parametrize("codec_name", LOSSLESS_CODECS)
    @pytest.mark.parametrize("array", [
        np.zeros((3, 4)),                                 # all +0.0
        np.full((3, 4), -0.0),                            # all -0.0
        np.array([]),                                     # empty
        np.array(2.5),                                    # scalar, 0-d
        np.array([7.25]),                                 # single element
        np.array([0.0, -0.0, np.nan, np.inf, -np.inf]),   # specials
        np.zeros((2, 0, 3)),                              # empty axis
    ], ids=["zeros", "negzeros", "empty", "scalar", "single", "specials",
            "empty-axis"])
    def test_degenerate_arrays(self, codec_name, array):
        codec = resolve_codec(codec_name)
        decoded = codec.decode(codec.encode({"w": array}))["w"]
        assert decoded.shape == array.shape
        assert decoded.tobytes() == array.tobytes()

    def test_multi_key_roundtrip_preserves_keys(self):
        rng = np.random.default_rng(3)
        params = {"a.W": _sparse_like(rng, (6, 5), 0.3),
                  "a.b": np.zeros(5),
                  "z": rng.normal(size=(4,)).astype(np.float32)}
        for codec_name in LOSSLESS_CODECS:
            decoded = resolve_codec(codec_name).decode(
                resolve_codec(codec_name).encode(params))
            assert set(decoded) == set(params)
            for key in params:
                assert decoded[key].tobytes() == params[key].tobytes()


# ------------------------------------------------------------ byte budget
class TestByteBudget:
    @pytest.mark.parametrize("codec_name", available_codecs())
    @settings(max_examples=40, deadline=None)
    @given(array=_FLOAT_ARRAYS)
    def test_wire_never_exceeds_dense(self, codec_name, array):
        encoded = resolve_codec(codec_name).encode({"w": array})
        assert encoded.wire_nbytes <= encoded.dense_nbytes

    def test_sparse_compresses_low_density(self):
        rng = np.random.default_rng(0)
        residual = _sparse_like(rng, (64, 64), 0.25)
        encoded = resolve_codec("sparse").encode({"w": residual})
        block = encoded.blocks["w"]
        assert block.codec == "sparse"
        # two bitmaps (~2 bits/element) + 25% of the float64 payload
        assert encoded.wire_nbytes <= 0.5 * encoded.dense_nbytes
        assert block.stored_values == np.count_nonzero(residual)

    def test_sparse_falls_back_to_raw_on_dense_input(self):
        rng = np.random.default_rng(1)
        dense = rng.normal(size=(16, 16))
        block = resolve_codec("sparse").encode({"w": dense}).blocks["w"]
        assert block.codec == "raw"
        assert block.wire_nbytes == dense.nbytes

    def test_int8_compresses_roughly_8x(self):
        rng = np.random.default_rng(2)
        weights = rng.normal(size=(32, 32))
        encoded = resolve_codec("int8").encode({"w": weights})
        assert encoded.blocks["w"].codec == "int8"
        assert encoded.wire_nbytes * 7 < encoded.dense_nbytes

    def test_pq_beats_int8_on_embedding_shapes(self):
        rng = np.random.default_rng(4)
        embedding = rng.normal(size=(512, 16))
        pq_encoded = resolve_codec("pq").encode({"emb": embedding})
        int8_encoded = resolve_codec("int8").encode({"emb": embedding})
        assert pq_encoded.blocks["emb"].codec == "pq"
        assert pq_encoded.wire_nbytes < int8_encoded.wire_nbytes

    def test_pq_falls_back_on_small_or_1d_arrays(self):
        rng = np.random.default_rng(5)
        for array in (rng.normal(size=(8, 4)),   # too few rows
                      rng.normal(size=(300,))):  # not 2-D
            block = resolve_codec("pq").encode({"w": array}).blocks["w"]
            assert block.codec in ("int8", "raw")


# ------------------------------------------------------------ lossy bounds
class TestLossyContract:
    @pytest.mark.parametrize("codec_name", LOSSY_CODECS)
    @settings(max_examples=40, deadline=None)
    @given(array=hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                               max_side=12),
        elements=st.floats(min_value=-1e6, max_value=1e6)))
    # all-subnormal: amax / 127 underflows to a zero scale
    @example(array=np.array([5e-324]))
    def test_certified_error_bound_holds(self, codec_name, array):
        codec = resolve_codec(codec_name)
        encoded = codec.encode({"w": array})
        block = encoded.blocks["w"]
        decoded = codec.decode(encoded)["w"]
        if block.codec == "raw":
            assert decoded.tobytes() == array.tobytes()
            return
        bound = block.meta[-1]
        assert np.max(np.abs(decoded - array)) <= bound
        # the certificate is *measured*, not estimated: it is attained
        assert np.isclose(np.max(np.abs(decoded - array)), bound)

    def test_int8_bound_within_half_scale(self):
        rng = np.random.default_rng(6)
        weights = rng.normal(size=(40, 10))
        block = resolve_codec("int8").encode({"w": weights}).blocks["w"]
        scale, bound = block.meta
        # the learned scale is floored at max|x|/127, so rounding never
        # clips and the error stays within half a quantization step
        assert bound <= scale / 2 + 1e-15

    @pytest.mark.parametrize("codec_name", LOSSY_CODECS)
    def test_deterministic_encoding(self, codec_name):
        rng = np.random.default_rng(7)
        params = {"emb": rng.normal(size=(64, 8)),
                  "w": rng.normal(size=(16, 16)), "b": rng.normal(size=(5,))}
        codec = resolve_codec(codec_name)
        first, second = codec.encode(params), codec.encode(params)
        for key in params:
            assert first.blocks[key].meta == second.blocks[key].meta
            for left, right in zip(first.blocks[key].arrays,
                                   second.blocks[key].arrays):
                assert left.tobytes() == right.tobytes()

    @pytest.mark.parametrize("codec_name", LOSSY_CODECS)
    @pytest.mark.parametrize("array", [
        np.zeros((4, 4)),           # all-zero: exact, scale 0
        np.array([]),               # empty
        np.array([3.5]),            # single element: exact up to rounding
        np.full((3, 3), 2.0),       # constant: exactly representable
    ], ids=["zeros", "empty", "single", "constant"])
    def test_degenerate_arrays_decode_exactly(self, codec_name, array):
        codec = resolve_codec(codec_name)
        decoded = codec.decode(codec.encode({"w": array}))["w"]
        assert decoded.shape == array.shape
        np.testing.assert_allclose(decoded, array, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("codec_name", LOSSY_CODECS)
    def test_nonfinite_arrays_fall_back_to_raw(self, codec_name):
        array = np.array([1.0, np.nan, np.inf])
        codec = resolve_codec(codec_name)
        encoded = codec.encode({"w": array})
        assert encoded.blocks["w"].codec == "raw"
        assert codec.decode(encoded)["w"].tobytes() == array.tobytes()


# ----------------------------------------------------------- decoded views
class TestDecodedParams:
    def _decoded(self):
        rng = np.random.default_rng(8)
        params = {"w": _sparse_like(rng, (10, 10), 0.2),
                  "b": rng.normal(size=(10,))}
        codec = resolve_codec("sparse")
        return params, codec.decode(codec.encode(params))

    def test_sparse_decode_returns_lazy_mapping(self):
        params, decoded = self._decoded()
        assert isinstance(decoded, DecodedParams)
        assert set(decoded) == set(params)
        assert len(decoded) == len(params)

    def test_slices_for_sparse_keys_only(self):
        params, decoded = self._decoded()
        slices = decoded.slices("w")
        assert isinstance(slices, IndexedSlices)
        assert decoded.slices("b") is None  # dense upload -> raw block
        assert slices.densify().tobytes() == params["w"].tobytes()

    def test_getitem_densifies_bit_exact_and_caches(self):
        params, decoded = self._decoded()
        assert decoded["w"].tobytes() == params["w"].tobytes()
        assert decoded["w"] is decoded["w"]

    def test_pickle_roundtrip(self):
        params, decoded = self._decoded()
        clone = pickle.loads(pickle.dumps(decoded))
        assert isinstance(clone, DecodedParams)
        for key in params:
            assert clone[key].tobytes() == params[key].tobytes()

    def test_all_raw_blocks_decode_to_plain_dict(self):
        rng = np.random.default_rng(9)
        params = {"w": rng.normal(size=(6, 6))}
        codec = resolve_codec("sparse")
        decoded = codec.decode(codec.encode(params))
        assert isinstance(decoded, dict)

    def test_indexed_slices_separate_negzero_from_values(self):
        array = np.array([0.0, -0.0, 1.5, np.nan])
        codec = resolve_codec("sparse")
        decoded = codec.decode(codec.encode({"w": array}))
        slices = decoded.slices("w")
        assert list(slices.negzero_indices) == [1]
        assert list(slices.value_indices) == [2, 3]
        assert decoded["w"].tobytes() == array.tobytes()


# ----------------------------------------------------------- wire metadata
class TestEncodedParams:
    def test_byte_accounting_sums_blocks(self):
        rng = np.random.default_rng(10)
        params = {"w": _sparse_like(rng, (20, 20), 0.1),
                  "b": np.zeros(7)}
        encoded = resolve_codec("sparse").encode(params)
        assert isinstance(encoded, EncodedParams)
        assert encoded.dense_nbytes == sum(v.nbytes for v in params.values())
        assert encoded.wire_nbytes == sum(b.wire_nbytes
                                          for b in encoded.blocks.values())
        assert encoded.total_size == sum(v.size for v in params.values())
        assert encoded.stored_values < encoded.total_size

    def test_encoded_params_pickle_roundtrip(self):
        rng = np.random.default_rng(11)
        params = {"w": rng.normal(size=(12, 12))}
        for codec_name in available_codecs():
            codec = resolve_codec(codec_name)
            encoded = codec.encode(params)
            clone = pickle.loads(pickle.dumps(encoded))
            decoded, redecoded = codec.decode(encoded), codec.decode(clone)
            assert decoded["w"].tobytes() == redecoded["w"].tobytes()

    def test_decode_block_rejects_unknown_tag(self):
        block = resolve_codec("dense").encode({"w": np.zeros(3)}).blocks["w"]
        broken = type(block)(codec="huffman", dtype=block.dtype,
                             shape=block.shape, arrays=block.arrays)
        with pytest.raises(ValueError, match="unknown block codec"):
            decode_block(broken)


# ------------------------------------------------------ a run's wire report
class TestWireReportOfARun:
    """FedLPS's mask-sparse uploads, as the server records them per round."""

    #: at mask density at or under the ceiling, the sparse codec's upload
    #: bytes come in at or under this fraction of dense
    GATE_DENSITY_CEILING = 0.5
    GATE_SPARSE_RATIO = 0.5

    @pytest.fixture(scope="class")
    def histories(self):
        from repro.experiments import preset_for, run_method, scaled

        preset = scaled(preset_for("mnist"), num_clients=4,
                        examples_per_client=16, num_rounds=2,
                        clients_per_round=3, local_iterations=1,
                        batch_size=16, seed=7)
        return {codec: run_method("fedlps", scaled(preset, codec=codec))
                for codec in available_codecs()}

    @pytest.mark.parametrize("codec_name", ("sparse",) + LOSSY_CODECS)
    def test_every_round_uploads_below_dense(self, histories, codec_name):
        for record in histories[codec_name].records:
            extras = record.extras
            assert extras["wire_upload_bytes"] \
                < extras["wire_upload_dense_bytes"]
            assert extras["wire_download_bytes"] \
                <= extras["wire_download_dense_bytes"]

    def test_dense_runs_record_no_wire_report(self, histories):
        for record in histories["dense"].records:
            assert not any(key.startswith("wire_") for key in record.extras)

    def test_sparse_meets_its_ratio_budget(self, histories):
        records = histories["sparse"].records
        densities = [record.extras["wire_upload_density"]
                     for record in records]
        # the budget clause must actually engage on FedLPS's residuals
        assert sum(densities) / len(densities) <= self.GATE_DENSITY_CEILING
        upload = sum(record.extras["wire_upload_bytes"] for record in records)
        dense = sum(record.extras["wire_upload_dense_bytes"]
                    for record in records)
        assert upload <= self.GATE_SPARSE_RATIO * dense


# ---------------------------------------------------------- config plumbing
class TestConfigPlumbing:
    def test_federated_config_validates_codec(self):
        from repro.federated.config import FederatedConfig
        assert FederatedConfig(codec="sparse").codec == "sparse"
        with pytest.raises(ValueError, match="unknown codec"):
            FederatedConfig(codec="gzip")

    def test_preset_validates_codec(self):
        from repro.experiments.presets import (build_experiment, preset_for,
                                               scaled)
        with pytest.raises(ValueError, match="unknown codec"):
            build_experiment(scaled(preset_for("mnist"), codec="gzip"))

    def test_preset_codec_reaches_config(self):
        from repro.experiments.presets import (build_experiment, preset_for,
                                               scaled)
        _, _, config, _ = build_experiment(scaled(preset_for("mnist"),
                                                  codec="int8"))
        assert config.codec == "int8"
