"""Stacked reductions against their per-slice calls, bit for bit.

The FedLPS cohort step computes every per-client quantity as a reduction
over the last axis — or over all trailing axes — of a C-contiguous
``(C, ...)`` stack, and relies on row ``c`` of the result carrying exactly
the bits the sequential code computes from client ``c``'s own array.  That
is a property of numpy's reduction order (pairwise summation over the
contiguous inner run, in blocks of 8 and 128 elements), not of this
repository, so it is pinned here on its own: lengths that straddle the
block sizes, subnormals, signed zeros, huge and tiny scales, and non-finite
values.  CI runs this file first and prints ``numpy.__version__`` — a numpy
whose reduction order differs fails here by name, in seconds, instead of as
thirty golden-history mismatches.

Also here, the identities the flat arenas of ``repro.nn.arena`` rest on: a
per-key element-wise step equals the same ufunc over the whole key-major
buffer (with per-client operands expanded per element), ``x ** 2`` is
``np.square(x)``, and the Eq. 8 targets' one-mean spelling of ``np.mean`` /
``np.std`` reproduces both calls.

What is NOT in the class, and so not here: a reduction with the kept axis in
the middle (the conv gate gradient's ``axis=(0, 2, 3)``), which
``repro.nn.batched`` still runs per client.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.importance import _mean_and_std
from repro.nn import Arena
from test_kernel_equivalence import _assert_same_bits, _awkward_array

COHORTS = st.sampled_from([1, 2, 3, 16])
#: around numpy's unrolled-by-8 and 128-element pairwise blocks, and deep
#: enough (8192 = 128 * 64) for several levels of the pairwise recursion
LENGTHS = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 127, 128, 129,
                           8191, 8192, 8193])
SCALES = st.sampled_from([1.0, 1e-300, 1e300, 1e150, 1e-150, 5e-324, 3e-310])
PROFILE = settings(max_examples=120, deadline=None, derandomize=True)

FINITE_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324,
                            2.2250738585072014e-308, 1.0, -1.0])


def _stack(shape, seed, scale, nonfinite):
    """Scaled noise with signed zeros and subnormals mixed in; with
    ``nonfinite`` the ``_awkward_array`` mix of ties, infinities and NaN."""
    if nonfinite:
        return _awkward_array(shape, seed, special_share=0.02) * scale
    rng = np.random.default_rng(seed)
    special = rng.choice(FINITE_SPECIALS, size=shape)
    return np.where(rng.random(shape) < 0.2, special,
                    rng.normal(size=shape) * scale)


def _sum_of_squares(values, **kwargs):
    return np.sum(values ** 2, **kwargs)


def _peak(values, **kwargs):
    return np.max(np.abs(values), **kwargs)


@PROFILE
@given(cohort=COHORTS, length=LENGTHS, scale=SCALES, nonfinite=st.booleans(),
       seed=st.integers(0, 2**16))
def test_last_axis_reductions(cohort, length, scale, nonfinite, seed):
    """Eq. 8 statistics, ``L_ir``, the gate-gradient peak and step-metric
    means: ``axis=-1`` of ``(C, U)`` against the 1-D call on each row."""
    stack = _stack((cohort, length), seed, scale, nonfinite)
    with np.errstate(all="ignore"):
        for reduce in (np.sum, np.mean, np.std, _sum_of_squares, _peak):
            whole = reduce(stack, axis=-1)
            kept = reduce(stack, axis=-1, keepdims=True)
            for index in range(cohort):
                _assert_same_bits(whole[index], reduce(stack[index]))
                _assert_same_bits(kept[index, 0], reduce(stack[index]))


@PROFILE
@given(cohort=COHORTS, length=LENGTHS, rows=st.sampled_from([1, 2, 5]),
       scale=SCALES, nonfinite=st.booleans(), seed=st.integers(0, 2**16))
def test_flattened_sum_of_squares(cohort, length, rows, scale, nonfinite, seed):
    """``L_pr`` and the clipping norm: ``axis=-1`` of the ``(C, -1)`` view
    against the full reduction of each client's N-d slice."""
    stack = _stack((cohort, rows, length), seed, scale, nonfinite)
    with np.errstate(all="ignore"):
        whole = np.sum((stack ** 2).reshape(cohort, -1), axis=-1)
        for index in range(cohort):
            _assert_same_bits(whole[index], np.sum(stack[index] ** 2))


@PROFILE
@given(cohort=COHORTS, units=st.sampled_from([1, 3, 8]),
       fan_in=st.sampled_from([(1, 1), (1, 3), (7, 1), (8, 1), (9, 1), (14, 3),
                               (127, 1), (128, 1), (129, 1), (5, 5), (911, 3)]),
       scale=SCALES, nonfinite=st.booleans(), seed=st.integers(0, 2**16))
def test_conv_unit_magnitudes(cohort, units, fan_in, scale, nonfinite, seed):
    """``|omega|_J`` of a conv stack: all trailing axes ``(2, 3, 4)`` of
    ``(C, out, in, k, k)`` against ``(1, 2, 3)`` of each client's kernel."""
    channels, kernel = fan_in
    stack = _stack((cohort, units, channels, kernel, kernel), seed, scale,
                   nonfinite)
    with np.errstate(all="ignore"):
        whole = np.sum(np.abs(stack), axis=(2, 3, 4))
        for index in range(cohort):
            _assert_same_bits(
                whole[index], np.sum(np.abs(stack[index]), axis=(1, 2, 3)))


@PROFILE
@given(cohort=COHORTS, length=LENGTHS, units=st.sampled_from([1, 2, 5, 64]),
       scale=SCALES, nonfinite=st.booleans(), seed=st.integers(0, 2**16))
def test_dense_unit_magnitudes(cohort, length, units, scale, nonfinite, seed):
    """``|omega|_J`` of a dense stack: ``axis=1`` of ``(C, in, out)``
    against ``axis=0`` of each client's ``(in, out)`` matrix."""
    stack = _stack((cohort, length, units), seed, scale, nonfinite)
    with np.errstate(all="ignore"):
        whole = np.sum(np.abs(stack), axis=1)
        for index in range(cohort):
            _assert_same_bits(whole[index],
                              np.sum(np.abs(stack[index]), axis=0))


@PROFILE
@given(cohort=COHORTS, length=LENGTHS, scale=SCALES, nonfinite=st.booleans(),
       seed=st.integers(0, 2**16))
def test_one_mean_std(cohort, length, scale, nonfinite, seed):
    """The Eq. 8 targets' statistics: the reused mean is ``np.mean``, the
    std from it ``np.std``, both ``axis=-1, keepdims=True``, and the
    centered values ``values - np.mean(...)`` — on stacks and 1-D rows."""
    stack = _stack((cohort, length), seed, scale, nonfinite)
    with np.errstate(all="ignore"):
        for values in (stack, stack[0]):
            centered = np.empty_like(values)
            mean, std = _mean_and_std(values, centered=centered)
            want_mean = np.mean(values, axis=-1, keepdims=True)
            _assert_same_bits(mean, want_mean)
            _assert_same_bits(std, np.std(values, axis=-1, keepdims=True))
            _assert_same_bits(centered, values - want_mean)


@PROFILE
@given(cohort=COHORTS, length=LENGTHS, scale=SCALES, nonfinite=st.booleans(),
       seed=st.integers(0, 2**16))
def test_power_two_is_square(cohort, length, scale, nonfinite, seed):
    """``L_ir`` and the squared norms used ``x ** 2``; the arenas call
    ``np.square``."""
    stack = _stack((cohort, length), seed, scale, nonfinite)
    with np.errstate(all="ignore"):
        _assert_same_bits(stack ** 2, np.square(stack))


#: a parameter-shaped layout: conv kernel, bias, dense matrix, bias
_LAYOUT = (("conv.W", (3, 2, 3, 3)), ("conv.b", (3,)), ("fc.W", (37, 5)),
           ("fc.b", (5,)))


@PROFILE
@given(cohort=COHORTS, scale=SCALES, nonfinite=st.booleans(),
       seed=st.integers(0, 2**16))
def test_flat_step_is_the_per_key_step(cohort, scale, nonfinite, seed):
    """One ufunc over a key-major arena against the same ufunc per key:
    the masked proximal gradient, a per-client scale broadcast along the
    client axis (expanded per element on the flat side) and the step."""
    def arena(offset):
        return Arena.of({key: _stack((cohort,) + shape, seed + offset + index,
                                     scale, nonfinite)
                         for index, (key, shape) in enumerate(_LAYOUT)})

    params, grads, drift, masks = arena(0), arena(10), arena(20), arena(30)
    rates = np.abs(_stack((cohort,), seed + 40, 1.0, nonfinite))
    with np.errstate(all="ignore"):
        want = {key: params[key] - rates.reshape((-1,) + (1,) * len(shape))
                * ((grads[key] + 0.6 * drift[key]) * masks[key])
                for key, shape in _LAYOUT}
        step = np.add(grads.flat, np.multiply(0.6, drift.flat))
        np.multiply(step, masks.flat, out=step)
        np.multiply(params.expand(rates), step, out=step)
        np.subtract(params.flat, step, out=params.flat)
    for key, _ in _LAYOUT:
        _assert_same_bits(params[key], want[key])
