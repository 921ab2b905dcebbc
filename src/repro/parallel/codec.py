"""Pluggable wire codecs for the parameter round trip.

Every model delta used to travel the broadcast/return path as dense float64.
This module gives both directions a codec layer (``FederatedConfig.codec``):

* ``dense`` — the identity codec: raw blocks, byte-for-byte the historical
  wire format.  The default, and the only codec the golden fixtures run.
* ``sparse`` — lossless ``(mask o values)`` indexed-slice deltas.  A sparse
  upload (a FedLPS residual, a masked HeteroFL update) is mostly zeros; the
  wire format stores two packed bitmaps (which positions carry an explicit
  value, which are exactly ``-0.0``) plus the packed values.  Decoding
  yields :class:`IndexedSlices` that the aggregation kernels reduce
  *without densifying*; densification is lazy and per key when a consumer
  really needs the full array.  ``decode(encode(x))`` is bit-identical for
  every input — ``-0.0`` and NaN payloads included — which is what lets the
  golden-history suite run every fixture through this codec unchanged.
* ``int8`` — ALPT-style learned-scale low-precision blocks: one int8 code
  per element with a per-array scale refined by least squares
  (``s = sum(x*q) / sum(q*q)``), floored at ``max|x| / 127`` so no code
  ever clips.  Lossy, with a per-block reconstruction-error certificate
  measured at encode time and carried in the block metadata.
* ``pq`` — product-quantization codebooks for embedding-shaped (2-D, many
  rows) arrays: rows are split into small sub-vectors, each quantized to
  one of ``k`` learned centroids (deterministic k-means, fixed seed and
  iteration count), so the wire carries uint8 codes plus a tiny codebook.
  Arrays that are not embedding-shaped fall back to the int8 encoding.

Losslessness is a *per-codec contract* (:attr:`Codec.lossless`), enforced
by the conformance suite in ``tests/parallel/test_codec.py``: lossless
codecs must satisfy bit-exact ``decode(encode(x)) == x`` on arbitrary
arrays; lossy codecs must be deterministic (same input, same bytes) and
must honour the error bound they certify in ``EncodedBlock.meta``.

Every codec guards the byte budget the same way: if an encoding would not
beat the dense representation, the block ships ``raw`` instead — so
``wire_nbytes <= dense_nbytes`` always holds and a dense upload under the
``sparse`` codec costs exactly what it costs under ``dense``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

#: sign-bit-only patterns of the IEEE-754 float widths numpy ships; used to
#: tell ``-0.0`` (bit pattern nonzero, value zero) from true zeros so the
#: sparse codec stays bit-exact on the ``(g - w) * mask`` residuals FedLPS
#: uploads, which are full of negative zeros at off-mask positions
_SIGN_BITS = {
    np.dtype(np.float16): (np.uint16, np.uint16(0x8000)),
    np.dtype(np.float32): (np.uint32, np.uint32(0x80000000)),
    np.dtype(np.float64): (np.uint64, np.uint64(0x8000000000000000)),
}

#: least-squares refinement steps of the int8 learned scale (ALPT-style)
_INT8_SCALE_ITERS = 3

#: product quantization: sub-vector width, centroids per subspace, Lloyd
#: iterations and the fixed seed of the deterministic k-means init
_PQ_SUBDIM = 2
_PQ_CENTROIDS = 16
_PQ_ITERS = 8
_PQ_SEED = 0xC0DEC
#: minimum rows for an array to count as embedding-shaped (else int8)
_PQ_MIN_ROWS = 32


# ------------------------------------------------------------------- wire
@dataclass(frozen=True)
class EncodedBlock:
    """One parameter array in wire form.

    ``arrays`` are the contiguous sub-arrays that actually cross the wire
    (bitmaps, packed values, codes, codebooks); ``meta`` is a small tuple of
    picklable scalars the decoder needs (scale, error bound, flags).  The
    logical ``dtype``/``shape`` always describe the *decoded* array.
    """

    codec: str
    dtype: str
    shape: Tuple[int, ...]
    arrays: Tuple[np.ndarray, ...]
    meta: Tuple = ()

    @property
    def size(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1

    @property
    def dense_nbytes(self) -> int:
        """Bytes of the dense representation this block replaces."""
        return self.size * np.dtype(self.dtype).itemsize

    @property
    def wire_nbytes(self) -> int:
        """Bytes that actually cross the wire."""
        return int(sum(array.nbytes for array in self.arrays))

    @property
    def stored_values(self) -> int:
        """Explicitly stored scalar values (= nonzeros for ``sparse``)."""
        if self.codec == "sparse":
            return int(self.arrays[-1].size)
        return self.size


@dataclass(frozen=True)
class EncodedParams:
    """A parameter dictionary in wire form: one encoded block per key."""

    blocks: Dict[str, EncodedBlock]

    @property
    def wire_nbytes(self) -> int:
        return sum(block.wire_nbytes for block in self.blocks.values())

    @property
    def dense_nbytes(self) -> int:
        return sum(block.dense_nbytes for block in self.blocks.values())

    @property
    def stored_values(self) -> int:
        return sum(block.stored_values for block in self.blocks.values())

    @property
    def total_size(self) -> int:
        return sum(block.size for block in self.blocks.values())


@dataclass(frozen=True)
class IndexedSlices:
    """A decoded sparse array: explicit entries by flat index.

    ``value_indices``/``values`` carry the positions whose stored value is
    neither ``+0.0`` nor ``-0.0``; ``negzero_indices`` the positions that
    are exactly ``-0.0`` (everything else is ``+0.0``).  Keeping the two
    apart is what makes the representation bit-exact *and* lets reducers
    treat the ``-0.0`` positions as the no-ops they numerically are.
    """

    shape: Tuple[int, ...]
    dtype: str
    value_indices: np.ndarray
    values: np.ndarray
    negzero_indices: np.ndarray

    def densify(self) -> np.ndarray:
        dense = np.zeros(int(np.prod(self.shape, dtype=np.int64)),
                         dtype=self.dtype)
        if self.negzero_indices.size:
            dense[self.negzero_indices] = np.array(-0.0, dtype=self.dtype)
        if self.value_indices.size:
            dense[self.value_indices] = self.values
        return dense.reshape(self.shape)


class DecodedParams(Mapping):
    """Lazily-densifying view of decoded blocks.

    Behaves as a ``Mapping[str, np.ndarray]`` — any consumer that treats an
    update as a plain parameter dictionary keeps working, paying the dense
    materialization per key on first access — while codec-aware reducers
    call :meth:`slices` to get the :class:`IndexedSlices` of a sparse key
    and never densify at all.  Picklable (the dense cache is dropped and
    rebuilt deterministically), so FedBuff buffers holding decoded updates
    checkpoint cleanly.
    """

    def __init__(self, blocks: Dict[str, EncodedBlock]) -> None:
        self._blocks = blocks
        self._dense: Dict[str, np.ndarray] = {}

    def slices(self, key: str) -> Optional[IndexedSlices]:
        """The indexed form of ``key``, or None when the block is dense."""
        block = self._blocks[key]
        if block.codec != "sparse":
            return None
        return _sparse_decode(block)

    def __getitem__(self, key: str) -> np.ndarray:
        dense = self._dense.get(key)
        if dense is None:
            dense = self._dense[key] = decode_block(self._blocks[key])
        return dense

    def __iter__(self) -> Iterator[str]:
        return iter(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __reduce__(self):
        return (DecodedParams, (self._blocks,))


# ----------------------------------------------------------- block helpers
def _raw_block(array: np.ndarray) -> EncodedBlock:
    contiguous = np.ascontiguousarray(array)
    return EncodedBlock(codec="raw", dtype=array.dtype.str,
                        shape=tuple(array.shape), arrays=(contiguous,))


def _nonzero_masks(flat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(has-explicit-value, is-negative-zero) masks by *bit pattern*.

    Float comparison would call ``-0.0 == 0.0`` and drop NaNs; viewing the
    bits catches ``-0.0`` and preserves NaN payloads exactly.
    """
    sign = _SIGN_BITS.get(flat.dtype)
    if sign is None:
        return flat != 0, np.zeros(flat.shape, dtype=bool)
    uint_type, sign_bit = sign
    bits = flat.view(uint_type)
    negzero = bits == sign_bit
    return (bits != 0) & ~negzero, negzero


def _sparse_encode(array: np.ndarray) -> EncodedBlock:
    flat = np.ascontiguousarray(array).reshape(-1)
    value_mask, negzero_mask = _nonzero_masks(flat)
    values = flat[value_mask]
    has_negzero = bool(negzero_mask.any())
    bitmap = np.packbits(value_mask)
    arrays = [bitmap]
    if has_negzero:
        arrays.append(np.packbits(negzero_mask))
    arrays.append(values)
    wire = sum(part.nbytes for part in arrays)
    if wire >= flat.nbytes:
        return _raw_block(array)
    return EncodedBlock(codec="sparse", dtype=array.dtype.str,
                        shape=tuple(array.shape), arrays=tuple(arrays),
                        meta=(has_negzero,))


def _sparse_decode(block: EncodedBlock) -> IndexedSlices:
    (has_negzero,) = block.meta
    size = block.size
    value_bits = np.unpackbits(block.arrays[0], count=size).view(bool)
    value_indices = np.flatnonzero(value_bits)
    if has_negzero:
        negzero_bits = np.unpackbits(block.arrays[1], count=size).view(bool)
        negzero_indices = np.flatnonzero(negzero_bits)
    else:
        negzero_indices = np.zeros(0, dtype=np.int64)
    return IndexedSlices(shape=block.shape, dtype=block.dtype,
                         value_indices=value_indices,
                         values=block.arrays[-1],
                         negzero_indices=negzero_indices)


def _int8_encode(array: np.ndarray) -> EncodedBlock:
    if array.dtype not in _SIGN_BITS or array.size == 0 \
            or not np.isfinite(array).all():
        return _raw_block(array)
    flat = np.ascontiguousarray(array).reshape(-1).astype(np.float64)
    amax = float(np.max(np.abs(flat)))
    if amax == 0.0:
        block = EncodedBlock(codec="int8", dtype=array.dtype.str,
                             shape=tuple(array.shape),
                             arrays=(np.zeros(0, dtype=np.int8),),
                             meta=(0.0, 0.0))
        return block if block.wire_nbytes < array.nbytes else _raw_block(array)
    floor = amax / 127.0
    if floor == 0.0:
        # subnormal amax: the scale underflows and nothing can be quantized
        return _raw_block(array)
    scale = floor
    for _ in range(_INT8_SCALE_ITERS):
        codes = np.rint(flat / scale)
        denominator = float(np.dot(codes, codes))
        if denominator == 0.0:
            break
        # the floor guarantees |x|/scale <= 127, so rint never clips and the
        # half-step error bound below holds unconditionally
        scale = max(float(np.dot(flat, codes)) / denominator, floor)
    codes = np.rint(flat / scale).astype(np.int8)
    decoded = (scale * codes.astype(np.float64)).astype(array.dtype)
    bound = float(np.max(np.abs(flat - decoded.astype(np.float64))))
    block = EncodedBlock(codec="int8", dtype=array.dtype.str,
                         shape=tuple(array.shape), arrays=(codes,),
                         meta=(scale, bound))
    if block.wire_nbytes >= array.nbytes:
        return _raw_block(array)
    return block


def _int8_decode(block: EncodedBlock) -> np.ndarray:
    scale, _ = block.meta
    if block.arrays[0].size == 0:
        return np.zeros(block.shape, dtype=block.dtype)
    decoded = scale * block.arrays[0].astype(np.float64)
    return decoded.astype(block.dtype).reshape(block.shape)


def _pq_train(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic Lloyd k-means of one subspace: (codebook, codes)."""
    n = matrix.shape[0]
    rng = np.random.default_rng(_PQ_SEED)
    centroids = matrix[np.sort(rng.choice(n, size=_PQ_CENTROIDS,
                                          replace=False))].copy()
    for _ in range(_PQ_ITERS):
        distances = np.linalg.norm(matrix[:, None, :] - centroids[None, :, :],
                                   axis=2)
        codes = np.argmin(distances, axis=1)
        for centroid_index in range(_PQ_CENTROIDS):
            members = codes == centroid_index
            if members.any():
                centroids[centroid_index] = matrix[members].mean(axis=0)
            else:
                # deterministic re-seed: the row farthest from its centroid
                # (ties resolved by argmax's lowest index)
                farthest = int(np.argmax(distances[np.arange(n), codes]))
                centroids[centroid_index] = matrix[farthest]
    distances = np.linalg.norm(matrix[:, None, :] - centroids[None, :, :],
                               axis=2)
    codes = np.argmin(distances, axis=1)
    return centroids, codes.astype(np.uint8)


def _pq_encode(array: np.ndarray) -> EncodedBlock:
    embedding_shaped = (array.ndim == 2 and array.dtype in _SIGN_BITS
                        and array.shape[0] >= max(_PQ_MIN_ROWS,
                                                  2 * _PQ_CENTROIDS)
                        and array.shape[1] >= 1
                        and np.isfinite(array).all())
    if not embedding_shaped:
        return _int8_encode(array)
    rows, cols = array.shape
    matrix = np.ascontiguousarray(array).astype(np.float64)
    codebooks = []
    code_columns = []
    for start in range(0, cols, _PQ_SUBDIM):
        codebook, codes = _pq_train(matrix[:, start:start + _PQ_SUBDIM])
        codebooks.append(codebook)
        code_columns.append(codes)
    codes = np.stack(code_columns, axis=1).astype(np.uint8)
    # subspace codebooks may have unequal widths (odd trailing column), so
    # they travel flattened with the widths in the metadata; float32 on the
    # wire — the codebook is the fixed cost of the format, and the cast is
    # part of the (measured) reconstruction error like any other rounding
    widths = tuple(book.shape[1] for book in codebooks)
    codebook_array = np.concatenate(
        [book.reshape(-1) for book in codebooks]).astype(np.float32)
    decoded = _pq_reconstruct(block_shape=(rows, cols), widths=widths,
                              codebook_array=codebook_array, codes=codes)
    bound = float(np.max(np.abs(matrix - decoded)))
    block = EncodedBlock(codec="pq", dtype=array.dtype.str,
                         shape=tuple(array.shape),
                         arrays=(codes, codebook_array),
                         meta=(widths, bound))
    fallback = _int8_encode(array)
    return block if block.wire_nbytes < fallback.wire_nbytes else fallback


def _pq_reconstruct(block_shape: Tuple[int, int], widths: Tuple[int, ...],
                    codebook_array: np.ndarray, codes: np.ndarray
                    ) -> np.ndarray:
    rows, cols = block_shape
    decoded = np.empty((rows, cols), dtype=np.float64)
    offset = 0
    start = 0
    for subspace, width in enumerate(widths):
        codebook = codebook_array[offset:offset + _PQ_CENTROIDS * width] \
            .reshape(_PQ_CENTROIDS, width)
        decoded[:, start:start + width] = codebook[codes[:, subspace]]
        offset += _PQ_CENTROIDS * width
        start += width
    return decoded


def _pq_decode(block: EncodedBlock) -> np.ndarray:
    widths, _ = block.meta
    codes, codebook_array = block.arrays
    decoded = _pq_reconstruct(block_shape=block.shape, widths=tuple(widths),
                              codebook_array=codebook_array, codes=codes)
    return decoded.astype(block.dtype)


def decode_block(block: EncodedBlock) -> np.ndarray:
    """Decode one block to its dense array (any codec tag)."""
    if block.codec == "raw":
        return block.arrays[0].reshape(block.shape)
    if block.codec == "sparse":
        return _sparse_decode(block).densify()
    if block.codec == "int8":
        return _int8_decode(block)
    if block.codec == "pq":
        return _pq_decode(block)
    raise ValueError(f"unknown block codec {block.codec!r}")


# ------------------------------------------------------------------ codecs
class Codec:
    """One wire format: per-array encode, dict-level encode/decode."""

    name = "base"
    lossless = False

    def encode_array(self, array: np.ndarray) -> EncodedBlock:
        raise NotImplementedError

    def encode(self, params: Mapping[str, np.ndarray]) -> EncodedParams:
        return EncodedParams(blocks={key: self.encode_array(params[key])
                                     for key in sorted(params)})

    def decode(self, encoded: EncodedParams):
        """Decoded parameters: a plain dict, or a lazy indexed mapping.

        When any block carries indexed slices the result is a
        :class:`DecodedParams` so reducers can consume the sparse form
        without densifying; otherwise a plain ``{key: ndarray}`` dict.
        """
        if any(block.codec == "sparse"
               for block in encoded.blocks.values()):
            return DecodedParams(encoded.blocks)
        return {key: decode_block(block)
                for key, block in encoded.blocks.items()}


class DenseCodec(Codec):
    name = "dense"
    lossless = True

    def encode_array(self, array: np.ndarray) -> EncodedBlock:
        return _raw_block(array)


class SparseCodec(Codec):
    name = "sparse"
    lossless = True

    def encode_array(self, array: np.ndarray) -> EncodedBlock:
        return _sparse_encode(array)


class Int8Codec(Codec):
    name = "int8"
    lossless = False

    def encode_array(self, array: np.ndarray) -> EncodedBlock:
        return _int8_encode(array)


class PQCodec(Codec):
    name = "pq"
    lossless = False

    def encode_array(self, array: np.ndarray) -> EncodedBlock:
        return _pq_encode(array)


CODECS: Dict[str, Codec] = {codec.name: codec for codec in
                            (DenseCodec(), SparseCodec(), Int8Codec(),
                             PQCodec())}

#: codecs whose decode(encode(x)) is bit-identical for every input — the
#: only ones allowed anywhere near the golden-fixture contract by default
LOSSLESS_CODECS = tuple(name for name, codec in CODECS.items()
                        if codec.lossless)


def available_codecs() -> Tuple[str, ...]:
    """Names accepted by ``FederatedConfig.codec`` / the CLI."""
    return tuple(CODECS)


def resolve_codec(name: str) -> Codec:
    """The codec registered under ``name``."""
    key = str(name).lower()
    if key not in CODECS:
        raise ValueError(f"unknown codec {name!r}; "
                         f"choose from {tuple(CODECS)}")
    return CODECS[key]
