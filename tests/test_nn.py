import copy
import dataclasses
import gc
import importlib.util
import json
import re
import struct
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (
    central_difference,
    conv1d_naive,
    focal_grad_masked,
    focal_reference,
    maxpool1d_argmax_gather,
    maxpool1d_naive,
    parameters,
)
from preictal.dataset import Sensor
from preictal.errors import ShapeError
from preictal.nn.losses import (
    FOCAL_GAMMA,
    FocalLossConfig,
    focal_grad_wrt_logits,
    focal_loss_batch,
    inverse_frequency_alpha,
)
from preictal.nn.model import (
    BLOCK_KEYS,
    BN_KEYS,
    SPEC_FIELDS,
    Buffers,
    SensorModel,
    _forward,
    backward_batch,
    build_model,
    load_model,
    model_forward,
    save_model,
)
from preictal.nn.optim import BETA1, BETA2, EPSILON, AdamState, TrainConfig, adam_step
from preictal.nn.ops import (
    batchnorm_forward_with_cache,
    bind_conv1d_forward,
    bind_maxpool1d,
    conv1d_backward,
    conv1d_forward,
    dense_forward,
    maxpool1d_backward,
    maxpool1d_with_argmax,
    relu,
    softmax,
)
from preictal.nn.train import TrainReport, evaluate, train, write_train_report


def focal_loss(probs, target, cfg):
    """Focal loss of one probability vector."""
    return float(focal_loss_batch(np.asarray(probs)[None], np.array([target]), cfg)[0])


def cbt(x):
    """[B x C x T] <-> [C x B x T], the conv ops' channel-major layout."""
    return np.swapaxes(x, 0, 1)


def maxpool1d(x, pool_size):
    return maxpool1d_with_argmax(x, pool_size)[0]


def pool_with_arg(x, pool_size):
    """The pooled values and within-window argmax, as training asks for them."""
    arg = np.empty((*x.shape[:-1], -(-x.shape[-1] // pool_size)), np.uint8)
    return maxpool1d_with_argmax(x, pool_size, bind_maxpool1d(x, pool_size, arg=arg))


def bound_arrays(bound):
    """Every array a binding, or a tuple or list of them, holds."""
    if isinstance(bound, np.ndarray):
        return [bound]
    if isinstance(bound, (tuple, list)):
        return [a for item in bound for a in bound_arrays(item)]
    return []


def bn_arrays(channels, gamma=1.0, beta=0.0, mean=0.0, var=1.0):
    """Fresh (gamma, beta, running_mean, running_var) arrays."""
    return tuple(np.full(channels, v) for v in (gamma, beta, mean, var))


def batchnorm_forward(x, arrays, training, epsilon=1e-5, momentum=0.1):
    return cbt(batchnorm_forward_with_cache(cbt(x), *arrays, epsilon, momentum,
                                            training)[0])


# ---------------------------------------------------------------------------
# Convolution


class TestConv1d:
    def test_hand_example(self):
        # x = [1 2 3 4], kernel [1 0 -1], bias 0.5, same padding:
        # padded [0 1 2 3 4 0] -> correlations [-2 -2 -2 3] + 0.5.
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        out = conv1d_forward(x, np.array([[[1.0, 0.0, -1.0]]]), np.array([0.5]))
        np.testing.assert_array_equal(out, [[[-1.5, -1.5, -1.5, 3.5]]])

    def test_matches_naive_oracle_exactly(self):
        # Integer-valued inputs keep every partial product exactly
        # representable, so the vectorized path must agree bit for bit.
        rng = np.random.default_rng(0)
        for _ in range(25):
            b, c = rng.integers(1, 4), rng.integers(1, 5)
            k = int(rng.choice([1, 3, 5, 7]))
            t = int(rng.integers(k, k + 20))
            x = rng.integers(-8, 9, size=(b, c, t)).astype(float)
            kernels = rng.integers(-4, 5, size=(c, c, k)).astype(float)
            bias = rng.integers(-4, 5, size=c).astype(float)
            np.testing.assert_array_equal(cbt(conv1d_forward(cbt(x), kernels, bias)),
                                          conv1d_naive(x, kernels, bias))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            conv1d_forward(cbt(np.zeros((1, 3, 10))), np.zeros((2, 2, 3)),
                           np.zeros(2))

    def test_input_shorter_than_kernel_still_works(self):
        # Deep pooling stacks shrink the signal below the kernel length; with
        # zero same-padding the convolution stays well-defined there.
        rng = np.random.default_rng(13)
        x = rng.integers(-5, 6, size=(2, 1, 2)).astype(float)
        kernels = rng.integers(-3, 4, size=(1, 1, 5)).astype(float)
        out = cbt(conv1d_forward(cbt(x), kernels, np.zeros(1)))
        assert out.shape == (2, 1, 2)
        np.testing.assert_array_equal(out, conv1d_naive(x, kernels, np.zeros(1)))

    @pytest.mark.parametrize("klen", [4, 5])
    @pytest.mark.parametrize("t", [pytest.param(3, id="T<K"), pytest.param(11, id="T>=K")])
    def test_backward_matches_finite_differences(self, t, klen):
        # Channel-major input with several windows and channels, against
        # float64 central differences of sum(conv(x) * r); an even kernel
        # pads unevenly, which the input gradient must mirror.
        rng = np.random.default_rng(14)
        b, c_in, c_out = 3, 2, 3
        x = rng.standard_normal((c_in, b, t))
        kernels = rng.standard_normal((c_out, c_in, klen))
        bias = rng.standard_normal(c_out)
        r = rng.standard_normal((c_out, b, t))

        def loss():
            return float((conv1d_forward(x, kernels, bias) * r).sum())

        fd = central_difference(loss, [kernels, bias, x], step=1e-6)
        cols = np.empty((klen * c_in, b * t))
        conv1d_forward(x, kernels, bias, bind_conv1d_forward(x, kernels, bias, cols))
        for name, got, want in zip(("kernels", "bias", "input"),
                                   conv1d_backward(r, cols, kernels), fd):
            np.testing.assert_allclose(got, want, atol=1e-7, err_msg=name)

    def test_one_channel_input_gradient_is_the_contiguous_kernel_gemm(self):
        # The ECG model's block 1 in float32: the mirrored [1 x 5] kernel is
        # a negatively strided view unless copied, and numpy multiplies such
        # an operand in its own loop, which rounds differently from BLAS.
        rng = np.random.default_rng(22)
        b, t, klen = 32, 320, 5
        x = rng.standard_normal((1, b, t)).astype(np.float32)
        kernels = rng.standard_normal((1, 1, klen)).astype(np.float32)
        delta = rng.standard_normal((1, b, t)).astype(np.float32)
        cols = np.empty((klen, b * t), np.float32)
        bias = np.zeros(1, np.float32)
        conv1d_forward(x, kernels, bias, bind_conv1d_forward(x, kernels, bias, cols))
        d_input = conv1d_backward(delta, cols, kernels)[2]
        dpad = np.zeros((1, b, t + klen - 1), np.float32)
        dpad[:, :, klen // 2:klen // 2 + t] = delta
        d_cols = np.stack([dpad[0, :, k:k + t].reshape(-1) for k in range(klen)])
        mirrored = np.ascontiguousarray(kernels[0, 0, ::-1])[None]
        want = np.matmul(mirrored, d_cols)
        assert d_input.dtype == want.dtype
        assert d_input.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tile_windows", [1, 7, 20, 64])
    @pytest.mark.parametrize("channels", [1, 4])
    def test_batched_forward_matches_one_call_per_window(
            self, channels, tile_windows, monkeypatch):
        # A fresh tap stack is built one tile of windows at a time; whatever
        # the tile, each window's output must have the bits of a call on
        # that window alone.  64 windows in tiles of 7 leave a partial tile.
        t, klen = 320, 5
        monkeypatch.setattr("preictal.nn.ops.TAP_TILE_BYTES",
                            tile_windows * klen * channels * t * 8)
        rng = np.random.default_rng(23)
        x = rng.standard_normal((channels, 64, t))
        kernels = rng.standard_normal((channels, channels, klen))
        bias = rng.standard_normal(channels)
        batched = conv1d_forward(x, kernels, bias)
        for w in range(64):
            one = conv1d_forward(x[:, w:w + 1], kernels, bias)
            assert batched[:, w:w + 1].tobytes() == one.tobytes(), w


# ---------------------------------------------------------------------------
# Max pooling


class TestMaxPool:
    def test_hand_example_with_partial_tail(self):
        x = np.array([[[5.0, 1.0, 4.0, 4.0, 2.0]]])
        np.testing.assert_array_equal(maxpool1d(x, 2), [[[5.0, 4.0, 2.0]]])

    def test_matches_naive_oracle_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            b, c, t = rng.integers(1, 4), rng.integers(1, 5), rng.integers(1, 30)
            pool = int(rng.integers(1, 6))
            x = rng.standard_normal((b, c, t))
            np.testing.assert_array_equal(maxpool1d(x, pool),
                                          maxpool1d_naive(x, pool))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), c=st.integers(1, 3), b=st.integers(1, 3),
           t=st.integers(1, 30), pool=st.integers(1, 6),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_values_and_first_maximum_on_a_tie_heavy_grid(
            self, data, c, b, t, pool, dtype):
        # Five values, so most windows hold a tie.  The output is a strided
        # view, as a model's next padded interior is, and it and `arg` start
        # out holding garbage that every entry must overwrite.
        x = data.draw(hnp.arrays(dtype, (c, b, t),
                                 elements=st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])))
        n = -(-t // pool)
        padded = np.full((c, b, n * pool), -np.inf, dtype)
        padded[..., :t] = x
        first = padded.reshape(c, b, n, pool).argmax(axis=-1)

        frame = np.full((c, b, n + 3), np.nan, dtype)
        view = frame[..., 1:n + 1]
        out, arg = maxpool1d_with_argmax(
            x, pool, bind_maxpool1d(x, pool, view, np.full((c, b, n), 255, np.uint8)))
        assert out is view
        assert np.isnan(frame[..., 0]).all() and np.isnan(frame[..., n + 1:]).all()
        np.testing.assert_array_equal(out, maxpool1d_naive(x, pool))
        np.testing.assert_array_equal(arg, first)
        bare, no_arg = maxpool1d_with_argmax(x, pool)
        assert no_arg is None and bare.dtype == dtype
        assert bare.tobytes() == np.ascontiguousarray(out).tobytes()

    def test_ties_route_gradient_to_first_maximum(self):
        x = np.array([[[3.0, 3.0, 1.0, 2.0]]])
        out, arg = pool_with_arg(x, 2)
        np.testing.assert_array_equal(out, [[[3.0, 2.0]]])
        grad = maxpool1d_backward(np.array([[[1.0, 1.0]]]), arg, 2, 4)
        np.testing.assert_array_equal(grad, [[[1.0, 0.0, 0.0, 1.0]]])

    def test_backward_ignores_padding_region(self):
        x = np.array([[[1.0, 2.0, 5.0]]])
        out, arg = pool_with_arg(x, 2)
        np.testing.assert_array_equal(out, [[[2.0, 5.0]]])
        grad = maxpool1d_backward(np.array([[[1.0, 1.0]]]), arg, 2, 3)
        assert grad.shape == (1, 1, 3)
        np.testing.assert_array_equal(grad, [[[0.0, 1.0, 1.0]]])

    def test_backward_matches_finite_differences_with_partial_tail(self):
        # [C x B x T] with T = 11 and pool 4: the last window has 3 samples.
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 3, 11))
        r = rng.standard_normal((2, 3, 3))

        def loss():
            return float((maxpool1d(x, 4) * r).sum())

        (fd,) = central_difference(loss, [x], step=1e-6)
        _, arg = pool_with_arg(x, 4)
        np.testing.assert_allclose(maxpool1d_backward(r, arg, 4, 11), fd, atol=1e-8)

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            maxpool1d(np.zeros((1, 1, 4)), 0)


# ---------------------------------------------------------------------------
# Batch normalization


class TestBatchNorm:
    def test_train_mode_normalizes_batch(self):
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        out = batchnorm_forward(x, bn_arrays(1), True, epsilon=1e-12)
        expected = (x - 2.5) / np.sqrt(1.25 + 1e-12)
        np.testing.assert_allclose(out, expected, atol=1e-9)
        assert abs(out.mean()) < 1e-9
        np.testing.assert_allclose(out.std(), 1.0, atol=1e-6)

    def test_running_statistics_update(self):
        arrays = bn_arrays(1)
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        batchnorm_forward(x, arrays, True, momentum=0.1)
        np.testing.assert_allclose(arrays[2], [0.9 * 0.0 + 0.1 * 2.5])
        np.testing.assert_allclose(arrays[3], [0.9 * 1.0 + 0.1 * 1.25])

    def test_inference_mode_is_pure_and_uses_running_stats(self):
        arrays = bn_arrays(1, gamma=2.0, beta=1.0, mean=3.0, var=4.0)
        x = np.array([[[3.0, 5.0]]])
        out = batchnorm_forward(x, arrays, False, epsilon=1e-12)
        np.testing.assert_allclose(out, [[[1.0, 3.0]]], atol=1e-9)
        np.testing.assert_array_equal(arrays[2], [3.0])
        np.testing.assert_array_equal(arrays[3], [4.0])

    def test_gamma_beta_applied(self):
        x = np.array([[[1.0, -1.0]]])
        out, xhat = batchnorm_forward_with_cache(
            x, *bn_arrays(1, gamma=3.0, beta=-1.0), 1e-12, 0.1, True)
        np.testing.assert_allclose(out, 3.0 * xhat - 1.0)

    def test_channel_count_validation(self):
        arrays = bn_arrays(2)
        for training in (True, False):
            with pytest.raises(ShapeError):
                batchnorm_forward(np.zeros((1, 3, 4)), arrays, training)


# ---------------------------------------------------------------------------
# Dense, ReLU, softmax


class TestDenseAndSoftmax:
    def test_dense_example(self):
        weights = np.array([[1.0, 2.0], [0.0, -1.0]])
        np.testing.assert_array_equal(
            dense_forward(np.array([3.0, 4.0]), weights, np.array([0.5, 0.0])),
            [11.5, -4.0])

    def test_dense_width_mismatch(self):
        with pytest.raises(ShapeError):
            dense_forward(np.zeros(4), np.zeros((2, 3)), np.zeros(2))

    def test_relu(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])),
                                      [0.0, 0.0, 2.0])

    def test_softmax_one_hot_logit(self):
        # logits [1 0 0 0 0] put e / (e + 4) on the first class.
        probs = softmax(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        e = np.e
        np.testing.assert_allclose(probs[0], e / (e + 4.0), atol=1e-12)
        np.testing.assert_allclose(probs[1:], np.full(4, 1.0 / (e + 4.0)),
                                   atol=1e-12)

    def test_softmax_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((8, 5)) * 30
        probs = softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(8), atol=1e-12)
        np.testing.assert_allclose(softmax(logits + 1000.0), probs, atol=1e-12)
        assert np.all(probs > 0)

    @pytest.mark.parametrize("shape, dtype", [((5,), np.float64), ((7, 5), np.float64),
                                              ((3, 5), np.float32)])
    def test_softmax_leaves_its_input_and_the_formula_bits_unchanged(self, shape,
                                                                      dtype):
        logits = (np.random.default_rng(4).standard_normal(shape) * 20).astype(dtype)
        kept = logits.copy()
        probs = softmax(logits)
        assert logits.tobytes() == kept.tobytes()
        assert not np.shares_memory(probs, logits)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        assert probs.dtype == want.dtype and probs.tobytes() == want.tobytes()

    def test_softmax_extreme_logits_stay_finite(self):
        probs = softmax(np.array([1e4, 0.0, -1e4, 0.0, 0.0]))
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Focal loss


class TestFocalLoss:
    def test_textbook_example(self):
        # alpha 0.25, gamma 2, p_t 0.9: 0.25 * 0.01 * -ln(0.9) ~= 2.634e-4.
        probs = np.array([0.9, 0.025, 0.025, 0.025, 0.025])
        cfg = FocalLossConfig(gamma=2.0, alpha=np.array([0.25, 1, 1, 1, 1]))
        loss = focal_loss(probs, 0, cfg)
        np.testing.assert_allclose(loss, 0.25 * 0.01 * -np.log(0.9), atol=1e-15)
        np.testing.assert_allclose(loss, 2.634013e-4, rtol=1e-6)

    def test_gamma_zero_alpha_one_is_cross_entropy(self):
        rng = np.random.default_rng(4)
        cfg = FocalLossConfig(gamma=0.0, alpha=np.ones(5))
        for _ in range(200):
            logits = rng.standard_normal(5) * 4
            probs = softmax(logits)
            target = int(rng.integers(5))
            assert abs(focal_loss(probs, target, cfg)
                       - (-np.log(probs[target]))) <= 1e-12

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            probs = softmax(rng.standard_normal(5) * 3)
            gamma = float(rng.uniform(0, 4))
            alpha = rng.uniform(0.1, 1.0, size=5)
            target = int(rng.integers(5))
            cfg = FocalLossConfig(gamma=gamma, alpha=alpha)
            np.testing.assert_allclose(
                focal_loss(probs, target, cfg),
                focal_reference(probs, target, gamma, alpha), rtol=1e-12)

    def test_confidently_wrong_is_clamped_finite(self):
        probs = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        loss = focal_loss(probs, 1, FocalLossConfig(gamma=2.0, alpha=np.ones(5)))
        assert np.isfinite(loss)
        np.testing.assert_allclose(loss, -(1.0 - 1e-12) ** 2 * np.log(1e-12),
                                   rtol=1e-12)

    def test_perfect_prediction_costs_nothing(self):
        probs = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        assert focal_loss(probs, 2, FocalLossConfig(gamma=2.0, alpha=np.ones(5))) == 0.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(6)
        probs = softmax(rng.standard_normal((7, 5)))
        targets = rng.integers(0, 5, size=7)
        cfg = FocalLossConfig(gamma=1.5, alpha=rng.uniform(0.2, 1.0, 5))
        batch = focal_loss_batch(probs, targets, cfg)
        for i in range(7):
            np.testing.assert_allclose(batch[i], focal_loss(probs[i], targets[i], cfg))

    def test_config_validation(self):
        # Both settings are required: `train` derives them from its config
        # and its training labels, so a default here would be a second copy.
        with pytest.raises(TypeError):
            FocalLossConfig()
        with pytest.raises(TypeError):
            FocalLossConfig(gamma=2.0)
        with pytest.raises(ValueError):
            FocalLossConfig(gamma=-0.5, alpha=np.ones(5))
        with pytest.raises(ValueError):
            FocalLossConfig(gamma=2.0, alpha=np.ones(4))
        with pytest.raises(ValueError):
            FocalLossConfig(gamma=2.0, alpha=np.array([0.0, 1, 1, 1, 1]))
        with pytest.raises(ValueError):
            FocalLossConfig(gamma=2.0, alpha=np.array([1.5, 1, 1, 1, 1]))

    def test_inverse_frequency_alpha(self):
        alpha = inverse_frequency_alpha(np.array([0, 0, 0, 0, 1]))
        np.testing.assert_allclose(alpha, [0.25, 1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(inverse_frequency_alpha(np.array([2, 2])),
                                   [1, 1, 1, 1, 1])

    def test_logit_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((4, 5))
        targets = rng.integers(0, 5, size=4)
        cfg = FocalLossConfig(gamma=2.0, alpha=rng.uniform(0.3, 1.0, 5))

        def loss():
            return float(focal_loss_batch(softmax(logits), targets, cfg).mean())

        (fd,) = central_difference(loss, [logits], step=1e-6)
        analytic = focal_grad_wrt_logits(softmax(logits), targets, cfg)
        np.testing.assert_allclose(analytic, fd, atol=1e-8)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_float32_stays_finite_near_certainty(self, gamma):
        # Training runs the loss in float32, where 1 - p_t near p_t = 1 is
        # either 0 or a multiple of 2**-24: rows with p_t exactly 1, one
        # float32 step below it, and 1 - 1e-6, besides a softmax of
        # extreme logits.
        below_one = np.nextafter(np.float32(1), np.float32(0))
        rows = [np.float32(1), below_one, np.float32(1 - 1e-6)]
        probs = np.array([[p, *[(1 - p) / 4] * 4] for p in rows], dtype=np.float32)
        probs = np.vstack([probs, softmax(np.array([[0, 0, 90, 0, 0]], np.float32))])
        targets = np.array([0, 0, 0, 2])
        cfg = FocalLossConfig(gamma=gamma, alpha=np.array([0.5, 0.7, 0.9, 1.0, 0.6]))
        loss = focal_loss_batch(probs, targets, cfg)
        grad = focal_grad_wrt_logits(probs, targets, cfg)
        assert grad.dtype == np.float32
        assert np.all(np.isfinite(loss)) and np.all(loss >= 0)
        assert np.all(np.isfinite(grad))
        np.testing.assert_allclose(
            grad, focal_grad_wrt_logits(probs.astype(np.float64), targets, cfg),
            rtol=1e-5, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_gradient_matches_the_masked_form_bit_for_bit(self, dtype, gamma):
        # Each batch mixes ordinary rows with rows the gradient flattens:
        # p_t = 1 and p_t = 0 (clamped), besides p_t one float32 step below
        # 1, which stays active.
        below_one = float(np.nextafter(np.float32(1), np.float32(0)))
        rng = np.random.default_rng(33)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(5), size=16)
            targets = rng.integers(0, 5, size=16)
            for row, p_t in enumerate((1.0, below_one, 0.0)):
                rest = rng.dirichlet(np.ones(4)) * (1.0 - p_t)
                probs[row] = np.insert(rest, targets[row], p_t)
            probs = probs.astype(dtype)
            cfg = FocalLossConfig(gamma=gamma, alpha=rng.uniform(0.3, 1.0, 5))
            grad = focal_grad_wrt_logits(probs, targets, cfg)
            want = focal_grad_masked(probs, targets, cfg)
            assert grad.dtype == want.dtype == dtype
            assert grad.tobytes() == want.tobytes()
            assert not np.any(grad[[0, 2]])


# ---------------------------------------------------------------------------
# Model construction, forward, gradients


def _tiny_model(seed=0, sensor=Sensor.EEG, channels=2):
    return build_model(sensor, channels, window_samples=16, kernel_len=3,
                       pool_size=2, hidden=(4, 3), seed=seed)


def _desk_model(channels, pool, seed):
    """A desk-shape model (320 samples, kernel 5) whose batchnorm statistics
    and scale are not the identity."""
    model = build_model(Sensor.EEG if channels > 1 else Sensor.ECG, channels,
                        320, kernel_len=5, pool_size=pool, hidden=(64, 32),
                        seed=seed)
    rng = np.random.default_rng(seed)
    for name, low, high in (("gamma", 0.5, 2.0), ("beta", -0.5, 0.5),
                            ("running_mean", -0.3, 0.3), ("running_var", 0.5, 4.0)):
        model.params[f"batchnorm.{name}"][...] = rng.uniform(low, high, channels)
    return model


class TestModel:
    def test_conv_stack_output_widths(self):
        # pool 4 halves 320 -> 80 -> 20 -> 5 -> 2 by ceiling division.
        eeg = build_model(Sensor.EEG, 4, 320, kernel_len=5, pool_size=4,
                          hidden=(64, 32), seed=0)
        assert eeg.params["dense.0.weights"].shape == (64, 4 * 2)
        ecg = build_model(Sensor.ECG, 1, 320, kernel_len=5, pool_size=2,
                          hidden=(64, 32), seed=0)
        assert ecg.params["dense.0.weights"].shape == (64, 1 * 20)
        assert eeg.params["dense.2.weights"].shape[0] == 5

    def test_forward_shapes_and_normalization(self):
        model = _tiny_model()
        rng = np.random.default_rng(8)
        one = model_forward(model, rng.standard_normal((2, 16)))
        assert one.shape == (5,)
        np.testing.assert_allclose(one.sum(), 1.0, atol=1e-12)
        batch = model_forward(model, rng.standard_normal((3, 2, 16)))
        assert batch.shape == (3, 5)
        np.testing.assert_allclose(batch.sum(axis=1), np.ones(3), atol=1e-12)

    def test_build_is_deterministic_in_seed(self):
        a, b = _tiny_model(seed=3), _tiny_model(seed=3)
        for (_, pa), (_, pb) in zip(parameters(a), parameters(b)):
            np.testing.assert_array_equal(pa, pb)
        c = _tiny_model(seed=4)
        assert any(not np.array_equal(pa, pc)
                   for (_, pa), (_, pc) in zip(parameters(a), parameters(c)))

    def test_initial_blocks_are_near_identity(self):
        model = _tiny_model()
        for i in range(4):
            kernels = model.params[f"blocks.{i}.kernels"]
            center = (kernels.shape[2] - 1) // 2
            diag = kernels[:, :, center]
            assert np.all(np.abs(np.diag(diag) - 1.0) < 1.0)

    def test_empty_batch_gives_empty_probabilities(self):
        model = _desk_model(4, 4, seed=1)
        probs = model_forward(model, np.zeros((0, 4, 320)))
        assert probs.shape == (0, 5) and probs.dtype == np.float64
        with pytest.raises(ShapeError):
            model_forward(model, np.zeros((0, 1, 320)))

    def test_wrong_window_shape_rejected(self):
        model = _tiny_model()
        with pytest.raises(ShapeError):
            model_forward(model, np.zeros((2, 15)))
        with pytest.raises(ShapeError):
            model_forward(model, np.zeros((3, 16)))

    @pytest.mark.parametrize("channels,pool", [(4, 4), (1, 2)], ids=["eeg", "ecg"])
    def test_one_window_in_kept_buffers_matches_a_batch_of_one_bit_for_bit(
            self, channels, pool):
        # Desk shapes: pool 4 takes 320 samples to a width-5 block, which it
        # pads with -inf; pool 2 divides every width.
        model = _desk_model(channels, pool, seed=11)
        windows = 2.0 * np.random.default_rng(12).standard_normal((200, channels, 320))
        for x in windows:
            np.testing.assert_array_equal(model_forward(model, x),
                                          model_forward(model, x[None])[0])
        assert model.window_buffers is not None
        assert model.window_buffers.back == model.window_buffers.d_pads == []

    @settings(max_examples=60, deadline=None)
    @given(channels=st.integers(1, 4), klen=st.integers(1, 7), pool=st.integers(1, 4),
           samples=st.integers(1, 48), seed=st.integers(0, 2**16))
    @example(channels=4, klen=5, pool=4, samples=320, seed=0)  # block 4 pools 5 by 4
    @example(channels=1, klen=4, pool=3, samples=40, seed=1)  # a partial window a block
    def test_one_window_through_bound_buffers_is_a_batch_of_one_bit_for_bit(
            self, channels, klen, pool, samples, seed):
        # The window buffers bind the parameter views once; weights written
        # into the buffer in place afterwards must reach every bound view and
        # every scratch array refilled from them.
        model, other = (build_model(Sensor.EEG, channels, samples, klen, pool,
                                    hidden=(6, 4), seed=seed + i) for i in range(2))
        rng = np.random.default_rng(seed)
        for name in BN_KEYS:
            model.params[name][...] = rng.uniform(0.5, 2.0, channels)
        windows = 2.0 * rng.standard_normal((3, channels, samples))
        for swap in range(2):
            for x in windows:
                got = model_forward(model, x)
                want = model_forward(model, x[None])[0]
                assert got.tobytes() == want.tobytes(), swap
            model.buffer[...] = other.buffer
        assert model.window_buffers is not None

    def test_one_window_carries_no_state_between_calls(self):
        model, other = _desk_model(4, 4, seed=13), _desk_model(4, 4, seed=14)
        a, b = np.random.default_rng(15).standard_normal((2, 4, 320))
        first = model_forward(model, a)
        kept = first.copy()
        model_forward(model, b)
        np.testing.assert_array_equal(first, kept)  # not a view of a buffer
        np.testing.assert_array_equal(model_forward(model, a), kept)

        # Two models of one architecture, in turn, each get their own result.
        np.testing.assert_array_equal(model_forward(other, a),
                                      model_forward(other, a[None])[0])
        np.testing.assert_array_equal(model_forward(model, a), kept)

        # One training step rewrites the weights and running statistics in
        # place; the next one-window call must use them.
        cfg = FocalLossConfig(gamma=2.0, alpha=np.ones(5))
        _, grad = backward_batch(model, np.stack([a, b]), np.array([0, 3]), cfg)
        adam_step(model.buffer, grad, AdamState.for_params(model.buffer),
                  TrainConfig(learning_rate=0.05))
        stepped = model_forward(model, a)
        assert not np.array_equal(stepped, kept)
        np.testing.assert_array_equal(stepped, model_forward(model, a[None])[0])

        # So must other weights copied into the same buffer.
        model.buffer[...] = other.buffer
        np.testing.assert_array_equal(model_forward(model, a),
                                      model_forward(other, a))

    def test_a_model_and_its_one_window_buffers_die_without_the_collector(self):
        # An inference Buffers keeps no reference to its model, so the model
        # and the one-window Buffers it keeps form no cycle: dropping the
        # model frees both by reference counting alone.
        model = _tiny_model()
        model_forward(model, np.ones((2, 16)))
        assert model.window_buffers is not None
        ref = weakref.ref(model)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del model
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_deep_copy_computes_with_its_own_buffer(self):
        model = _desk_model(1, 2, seed=16)
        x, y = np.random.default_rng(17).standard_normal((2, 1, 320))
        model_forward(model, x)
        twin = copy.deepcopy(model)
        np.testing.assert_array_equal(twin.buffer, model.buffer)
        np.testing.assert_array_equal(model_forward(twin, y), model_forward(model, y))
        twin.buffer[...] = _desk_model(1, 2, seed=18).buffer
        assert not np.array_equal(model_forward(twin, y), model_forward(model, y))
        np.testing.assert_array_equal(model_forward(twin, y),
                                      model_forward(twin, y[None])[0])

    def test_gradients_match_finite_differences(self):
        model = _tiny_model(seed=1)
        rng = np.random.default_rng(9)
        xb = rng.standard_normal((3, 2, 16))
        yb = np.array([0, 2, 4])
        cfg = FocalLossConfig(gamma=2.0,
                              alpha=np.array([0.5, 0.7, 0.9, 1.0, 0.6]))
        grads = model.views(backward_batch(model, xb, yb, cfg)[1])

        names = [n for n, _ in parameters(model)]
        arrays = [a for _, a in parameters(model)]

        def loss():
            return backward_batch(model, xb, yb, cfg)[0]

        fd = central_difference(loss, arrays, step=1e-5)
        for name, g_fd in zip(names, fd):
            g = grads[name]
            denom = np.maximum(np.abs(g), np.abs(g_fd))
            rel = np.abs(g - g_fd) / np.where(denom > 1e-8, denom, 1.0)
            assert rel.max() < 1e-5, f"{name}: max rel err {rel.max():.3e}"

    @pytest.mark.parametrize("klen", [4, 5])
    def test_reused_buffers_match_fresh_ones_bit_for_bit(self, klen):
        # One training `Buffers` per batch size, as `train` keeps them, across
        # batch sizes 32, 32, 7, 32, 7, against fresh ones at every step, at
        # pool 3 and pool 1.  Pool 3 over 40 samples leaves partial windows
        # and, in the last blocks, inputs shorter than the kernel; pool 1
        # makes every window one sample, which the pool copies.  Every kept
        # array an op writes, reached through the bindings, the scratch they
        # made among them, is filled with NaN first, and each pool's argmax
        # with the largest value its type holds, so reading anything an
        # earlier step left behind would show in the loss or gradient.  The
        # padding is read at every step and must stay zero; at K=4 the input
        # gradient pads the other way round, so a backward pass that reused a
        # padded input would leave a nonzero column.  The backward arrays are
        # filled too: the pool's backward binding's scatter target and the
        # interior of the padded gradient, whose own padding must stay zero.
        for pool in (3, 1):
            shared, fresh = (build_model(Sensor.EEG, 3, 40, kernel_len=klen,
                                         pool_size=pool, hidden=(6, 4), seed=4)
                             for _ in range(2))
            cfg = FocalLossConfig(gamma=2.0, alpha=np.array([0.5, 0.7, 0.9, 1.0, 0.6]))
            rng = np.random.default_rng(16)
            buffers = {b: Buffers(shared, b, np.float64) for b in (32, 7)}
            before = (klen - 1) // 2
            for b in (32, 32, 7, 32, 7):
                xb = rng.uniform(0.5, 3.0) * rng.standard_normal((b, 3, 40))
                yb = rng.integers(0, 5, size=b)
                for bufs in buffers.values():
                    written = [bufs.bn, *(out for _, out in bufs.head)]
                    for (*_, out, _), (act, arg, *_) in bufs.blocks:
                        written += [out, act]
                        arg.fill(np.iinfo(arg.dtype).max)
                    for cols, (scatter, *_), d_in, _ in bufs.back:
                        written += [cols, scatter, d_in]
                    for bound in (*(conv for conv, _ in bufs.blocks),
                                  *(conv for *_, conv in bufs.back)):
                        written += [scratch for scratch in bound
                                    if isinstance(scratch, np.ndarray)
                                    and scratch.base is None]
                    for scratch in written:
                        scratch.fill(np.nan)
                loss, grad = backward_batch(shared, xb, yb, cfg, buffers[b])
                want_loss, want_grad = backward_batch(fresh, xb, yb, cfg)
                assert loss == want_loss
                np.testing.assert_array_equal(grad, want_grad)
                for bufs in buffers.values():
                    assert len(bufs.d_pads) == len(bufs.back) == len(bufs.pads)
                    for pad, d_pad, (_, _, d_in, _) in zip(bufs.pads, bufs.d_pads,
                                                           bufs.back):
                        t = d_in.shape[-1]
                        for lead, padded in ((before, pad), (klen // 2, d_pad)):
                            assert (padded[:, :, :lead] == 0.0).all()
                            assert (padded[:, :, lead + t:] == 0.0).all()
                shared.buffer[...] -= 0.05 * grad
                fresh.buffer[...] -= 0.05 * want_grad

    def test_float32_windows_give_a_float64_gradient_near_the_float64_one(self):
        # The tiny model of acceptance criterion 1.  Over seeds 0-19 the
        # largest gradient error, relative to the largest gradient entry,
        # was 3.5e-7 (1.6e-7 at this seed).
        exact, mixed = (build_model(Sensor.EEG, in_channels=2, window_samples=16,
                                    kernel_len=5, pool_size=2, hidden=(64, 32),
                                    seed=0) for _ in range(2))
        rng = np.random.default_rng(0)
        xb = rng.standard_normal((4, 2, 16))
        yb = np.array([0, 1, 3, 4])
        cfg = FocalLossConfig(gamma=2.0, alpha=np.array([0.5, 0.8, 1.0, 0.9, 0.6]))
        bufs = Buffers(mixed, 4, np.float32)
        want_loss, want = backward_batch(exact, xb, yb, cfg)
        loss, grad = backward_batch(mixed, xb.astype(np.float32), yb, cfg, bufs)
        assert grad.dtype == mixed.buffer.dtype == np.float64
        # Every float array of the step.
        kept = [a for a in bound_arrays([bufs.pads, bufs.d_pads, bufs.flat, bufs.bn,
                                         bufs.blocks, bufs.head, bufs.back])
                if a.dtype.kind == "f"]
        assert {a.dtype for a in kept} == {np.dtype(np.float32)}
        seen = {id(a) for a in kept}
        named = [*bufs.pads, bufs.bn, *(out for _, out in bufs.head),
                 *(a for (*_, out, _), (act, *_) in bufs.blocks for a in (out, act)),
                 *(cols for cols, *_ in bufs.back)]
        assert len(named) == 4 + 1 + 3 + 4 * 3
        assert all(id(a) in seen for a in named)
        assert np.abs(grad - want).max() <= 1e-6 * np.abs(want).max()
        np.testing.assert_allclose(loss, want_loss, rtol=1e-6)

    @settings(max_examples=80, deadline=None)
    @given(channels=st.integers(1, 3), samples=st.integers(1, 20),
           klen=st.integers(1, 6), pool=st.integers(1, 4), batch=st.integers(1, 5),
           regime=st.sampled_from([(np.float64, False), (np.float32, True),
                                   (np.float64, True)]),
           seed=st.integers(0, 2**16))
    def test_kept_buffers_match_fresh_arrays_bit_for_bit(
            self, channels, samples, klen, pool, batch, regime, seed):
        # Two passes through one `Buffers` on different windows, in float64
        # inference against passes on fresh arrays, and in float32 and
        # float64 training against a new training `Buffers` per pass, each
        # with its parameter copy refreshed as a step does: the logits and
        # normalized input, and the running statistics each training pass
        # folds into the buffer.  In training every array the pass left,
        # which the backward pass reads, must match too.  Small shapes reach
        # every edge: windows shorter than the kernel, even kernels, partial
        # pools.
        dtype, training = regime
        kept, fresh = (build_model(Sensor.EEG, channels, samples, klen, pool,
                                   hidden=(4, 3), seed=seed) for _ in range(2))
        bufs = Buffers(kept, batch, dtype) if training else Buffers(kept, batch)
        rng = np.random.default_rng(seed)
        for _ in range(2):
            xb = rng.uniform(0.5, 3.0) * rng.standard_normal((batch, channels, samples))
            xb = xb.astype(dtype)
            new = None
            if training:
                np.copyto(bufs.params, kept.buffer)  # the bound views see the new values
                new = Buffers(fresh, batch, dtype)
                np.copyto(new.params, fresh.buffer)
            got = _forward(kept, xb, bufs)
            want = _forward(fresh, xb, new)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == dtype
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(kept.buffer, fresh.buffer)
            if training:
                for x, y in zip(bound_arrays(bufs.blocks + bufs.head),
                                bound_arrays(new.blocks + new.head), strict=True):
                    np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_step_leaves_the_buffer_but_its_running_statistics_unchanged(
            self, dtype):
        # Every training `Buffers`, float64 too, computes on its own copy of
        # the parameters: a step moves batchnorm's running statistics in
        # model.buffer and nothing else there, and writes no parameter.
        model = _tiny_model(seed=3)
        start = model.buffer.copy()
        rng = np.random.default_rng(9)
        xb = (1.5 + 2.0 * rng.standard_normal((8, 2, 16))).astype(dtype)
        bufs = Buffers(model, 8, dtype)
        backward_batch(model, xb, np.arange(8) % 5,
                       FocalLossConfig(gamma=2.0, alpha=np.ones(5)), bufs)
        assert bufs.params is not model.buffer
        before, after = model.views(start), model.views(model.buffer)
        moved = {name for name in before
                 if not np.array_equal(before[name], after[name])}
        assert moved == {"batchnorm.running_mean", "batchnorm.running_var"}
        np.testing.assert_array_equal(bufs.params, start.astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_workspace_across_adam_steps_matches_fresh_calls(self, dtype):
        # Three steps with Adam between them through one training `Buffers`:
        # its parameter copy must be refreshed from the updated buffer at every
        # step (a stale copy would repeat the first step's loss), and the
        # reused gradient buffer must hold only this step's gradient.
        shared, fresh = _tiny_model(seed=6), _tiny_model(seed=6)
        cfg = FocalLossConfig(gamma=2.0, alpha=np.array([0.5, 0.7, 0.9, 1.0, 0.6]))
        train_cfg = TrainConfig(learning_rate=0.05)
        states = AdamState.for_params(shared.buffer), AdamState.for_params(fresh.buffer)
        rng = np.random.default_rng(21)
        bufs = Buffers(shared, 8, dtype)
        losses = []
        for _ in range(3):
            xb = rng.standard_normal((8, 2, 16)).astype(dtype)
            yb = rng.integers(0, 5, size=8)
            loss, grad = backward_batch(shared, xb, yb, cfg, bufs)
            want_loss, want_grad = backward_batch(fresh, xb, yb, cfg)
            assert grad is bufs.grad
            assert loss == want_loss
            np.testing.assert_array_equal(grad, want_grad)
            adam_step(shared.buffer, grad, states[0], train_cfg)
            adam_step(fresh.buffer, want_grad, states[1], train_cfg)
            losses.append(loss)
        np.testing.assert_array_equal(shared.buffer, fresh.buffer)
        assert len(set(losses)) == 3

    @pytest.mark.parametrize("channels,pool", [(4, 4), (1, 2)], ids=["eeg", "ecg"])
    def test_step_on_a_channel_major_gather_matches_a_contiguous_batch(
            self, channels, pool):
        # `train` holds its float32 windows [C x N x T] and steps on the
        # batch gathered channel-major and seen as [B x C x T]; that view
        # must give the bits of the same batch laid out [B x C x T], loss,
        # gradient and running statistics alike, over two steps with Adam
        # between them.
        rng = np.random.default_rng(24)
        xs = rng.standard_normal((channels, 100, 320)).astype(np.float32)
        cfg = FocalLossConfig(gamma=2.0, alpha=np.array([0.5, 0.7, 0.9, 1.0, 0.6]))
        train_cfg = TrainConfig(learning_rate=0.05)
        models = [_desk_model(channels, pool, seed=25) for _ in range(2)]
        buffers = [Buffers(m, 32, np.float32) for m in models]
        states = [AdamState.for_params(m.buffer) for m in models]
        for _ in range(2):
            idx = rng.permutation(100)[:32]
            view = np.take(xs, idx, axis=1).transpose(1, 0, 2)
            assert view.transpose(1, 0, 2).flags.c_contiguous
            results = []
            for xb, model, bufs, state in zip(
                    (view, np.ascontiguousarray(view)), models, buffers, states):
                loss, grad = backward_batch(model, xb, idx % 5, cfg, bufs)
                results.append((loss, grad.tobytes(), model.buffer.tobytes()))
                adam_step(model.buffer, grad, state, train_cfg)
            assert results[0] == results[1]

    def test_buffers_of_another_model_dtype_batch_size_or_pass_rejected(self):
        # Each refusal names the mismatch, and leaves the model as it was.
        model = _tiny_model()
        start = model.buffer.copy()
        xb, yb = np.ones((2, 2, 16)), np.array([0, 1])
        cfg = FocalLossConfig(gamma=2.0, alpha=np.ones(5))
        for bufs, mismatch in (
                (Buffers(_tiny_model(), 2, np.float64), "for another model"),
                (Buffers(model, 2, np.float32), "for float32 windows"),
                (Buffers(model, 3, np.float64), "for batches of 3"),
                (Buffers(model, 2), "for inference")):
            with pytest.raises(ValueError, match=mismatch):
                backward_batch(model, xb, yb, cfg, bufs)
        np.testing.assert_array_equal(model.buffer, start)
        backward_batch(model, xb, yb, cfg, Buffers(model, 2, np.float64))

    def test_float32_step_moves_the_running_statistics_in_the_buffer(self):
        # The float32 pass reads a cast copy of the parameters; the batch
        # statistics must still reach model.buffer, or inference would run
        # on the initial statistics.
        exact, mixed = _tiny_model(seed=2), _tiny_model(seed=2)
        xb = 1.5 + 2.0 * np.random.default_rng(5).standard_normal((8, 2, 16))
        yb = np.arange(8) % 5
        cfg = FocalLossConfig(gamma=2.0, alpha=np.ones(5))
        backward_batch(exact, xb, yb, cfg)
        backward_batch(mixed, xb.astype(np.float32), yb, cfg)
        stats = mixed.views(mixed.buffer)
        for name, start in (("batchnorm.running_mean", 0.0),
                            ("batchnorm.running_var", 1.0)):
            assert np.all(np.abs(stats[name] - start) > 0.05), name
            np.testing.assert_allclose(stats[name], exact.params[name], rtol=1e-6)

    def test_set_parameters_roundtrip(self):
        # Writing through a named view writes the buffer, and back.
        model = _tiny_model(seed=2)
        values = {n: a.copy() + 1.0 for n, a in parameters(model)}
        for n, a in parameters(model):
            a[...] = values[n]
        views = model.views(model.buffer)
        for n, v in values.items():
            np.testing.assert_array_equal(views[n], v)
        np.testing.assert_array_equal(model.params["dense.2.bias"],
                                      values["dense.2.bias"])
        model.buffer[:] = 0.0
        assert not np.any(model.params["blocks.0.kernels"])

    def test_buffer_layout_matches_blob_order(self):
        model = _tiny_model(seed=2)
        names = list(model.views(model.buffer))
        assert names[:4] == ["batchnorm.gamma", "batchnorm.beta",
                             "batchnorm.running_mean", "batchnorm.running_var"]
        assert names[4:6] == ["blocks.0.kernels", "blocks.0.bias"]
        assert names[-2:] == ["dense.2.weights", "dense.2.bias"]
        assert sum(v.size for v in model.views(model.buffer).values()) == \
            model.buffer.size
        # Batchnorm's running statistics update in place, inside the buffer.
        backward_batch(model, np.ones((2, 2, 16)), np.array([0, 1]),
                       FocalLossConfig(gamma=2.0, alpha=np.ones(5)))
        np.testing.assert_array_equal(model.views(model.buffer)
                                      ["batchnorm.running_mean"], [0.1, 0.1])

    def test_structure_validation(self):
        # The spec fixes every shape; what can still be wrong is its values.
        model = _tiny_model()
        spec = {name: getattr(model, name) for name in SPEC_FIELDS}
        assert SensorModel(**spec).shapes == model.shapes
        for bad in ({"pool_sizes": (2, 2, 2)}, {"pool_sizes": (2, 2, 0, 2)},
                    {"bn_momentum": 1.5}, {"bn_momentum": 0.0},
                    {"bn_epsilon": 0.0}, {"hidden": (4,)}, {"in_channels": 0}):
            with pytest.raises(ValueError):
                SensorModel(**{**spec, **bad})
        with pytest.raises(ValueError):
            build_model(Sensor.EEG, 2, 16, kernel_len=3, pool_size=0,
                        hidden=(4, 3), seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.in_channels = 3


class TestPoolAgainstReference:
    """The model on its pool against the same model on the argmax-and-gather
    reference, `oracles.maxpool1d_argmax_gather`: equal bits everywhere."""

    @pytest.mark.parametrize("channels, pool", [pytest.param(4, 4, id="eeg"),
                                                pytest.param(1, 2, id="ecg")])
    def test_training_and_inference_match_the_reference_bit_for_bit(
            self, channels, pool, monkeypatch):
        # Desk shapes; the EEG model's block 4 pools 5 samples by 4, so its
        # last window is partial.  Runs of zeros in every channel at once,
        # with conv biases of 0.2-0.5, give runs of equal positive conv
        # outputs, so pool windows tie at a positive max and the first
        # maximum decides where the gradient goes.
        rng = np.random.default_rng(21)
        xb = rng.standard_normal((8, channels, 320))
        for w in range(8):
            for start in rng.choice(np.arange(0, 320, 16), size=6, replace=False):
                xb[w, :, start:start + int(rng.integers(16, 64))] = 0.0
        yb = rng.integers(0, 5, size=8)
        cfg = FocalLossConfig(gamma=2.0, alpha=np.array([0.5, 0.7, 0.9, 1.0, 0.6]))

        def run():
            model = _desk_model(channels, pool, seed=8)
            for _, bias in BLOCK_KEYS:
                model.params[bias][...] = np.linspace(0.2, 0.5, channels)
            results = [model_forward(model, xb[i]) for i in range(3)]
            results.append(model_forward(model, xb))
            for dtype in (np.float32, np.float64):
                loss, grad = backward_batch(model, xb.astype(dtype), yb, cfg,
                                            Buffers(model, 8, dtype))
                results += [np.float64(loss), grad.copy(), model.buffer.copy()]
            return results

        got = run()
        ties = []

        def reference(x, pool_size, bound=None):
            # The pool's binding names its `out` and `arg`; the reference
            # reads `x` and writes into those directly.
            out, arg = (None, None) if bound is None else bound[:2]
            pooled, index = maxpool1d_argmax_gather(x, pool_size, out, arg)
            if arg is not None:
                padded = np.full((*pooled.shape[:-1], pooled.shape[-1] * pool_size),
                                 -np.inf, x.dtype)
                padded[..., :x.shape[-1]] = x
                hits = padded.reshape(*pooled.shape, pool_size) == pooled[..., None]
                ties.append(int(((hits.sum(axis=-1) > 1) & (pooled > 0)).sum()))
            return pooled, index

        monkeypatch.setattr("preictal.nn.model.maxpool1d_with_argmax", reference)
        want = run()
        assert sum(ties) > 100
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), i


# ---------------------------------------------------------------------------
# Weight files


class TestModelFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = _tiny_model(seed=5)
        # Non-default running statistics must survive.
        model.params["batchnorm.running_mean"] += 0.25
        path = tmp_path / "m.bin"
        save_model(model, path)
        back = load_model(path)
        assert back.sensor is model.sensor
        assert back.window_samples == model.window_samples
        for (na, a), (nb, b) in zip(parameters(model), parameters(back)):
            assert na == nb
            np.testing.assert_array_equal(a, b)
        for name in ("batchnorm.running_mean", "batchnorm.running_var"):
            np.testing.assert_array_equal(back.params[name], model.params[name])

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = _tiny_model(seed=6)
        path = tmp_path / "m.bin"
        save_model(model, path)
        back = load_model(path)
        x = np.random.default_rng(10).standard_normal((4, 2, 16))
        np.testing.assert_array_equal(model_forward(model, x),
                                      model_forward(back, x))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_model(path)

    def test_truncated_blob_rejected(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "m.bin"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError):
            load_model(path)

    def test_trailing_data_rejected(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "m.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError):
            load_model(path)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated_file_names_its_path(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("trunc") / "m.bin"
        save_model(_tiny_model(), path)
        raw = path.read_bytes()
        cut = data.draw(st.one_of(st.integers(0, 48), st.integers(0, len(raw) - 1)))
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: h.pop("in_channels"), id="missing-key"),
        pytest.param(lambda h: h.update(kernel_len="3"), id="wrong-type"),
        pytest.param(lambda h: h.update(hidden=4), id="wrong-type-list"),
        pytest.param(lambda h: h.update(sensor="EMG"), id="unknown-sensor"),
        pytest.param(lambda h: h.update(pool_sizes=[2, 2, 2]), id="three-pools"),
        pytest.param(lambda h: h.update(pool_sizes=[2, 2, 0, 2]), id="zero-pool"),
        pytest.param(lambda h: h.update(bn_momentum=2.0), id="momentum-range"),
        pytest.param(lambda h: h.update(bn_epsilon=-1e-5), id="epsilon-range"),
        pytest.param(lambda h: h.update(bn_epsilon=float("inf")), id="epsilon-infinite"),
        pytest.param(lambda h: h.update(in_channels=100_000), id="blob-too-short"),
    ])
    def test_bad_header_names_its_path(self, tmp_path, edit):
        path = tmp_path / "m.bin"
        save_model(_tiny_model(), path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 4)
        header = json.loads(raw[8:8 + hlen])
        edit(header)
        text = json.dumps(header).encode()
        path.write_bytes(raw[:4] + struct.pack("<I", len(text)) + text
                         + raw[8 + hlen:])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_model(path)

    @pytest.mark.parametrize("name, value", [
        pytest.param("batchnorm.gamma", np.nan, id="first-view-nan"),
        pytest.param("blocks.2.bias", np.inf, id="block-inf"),
        pytest.param("dense.2.bias", -np.inf, id="last-view-minus-inf"),
    ])
    def test_non_finite_weight_names_its_path_and_first_view(self, tmp_path,
                                                             name, value):
        model = _tiny_model()
        path = tmp_path / "m.bin"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        (hlen,) = struct.unpack_from("<I", raw, 4)
        names = list(model.params)
        end = sum(model.params[k].size for k in names[:names.index(name) + 1])
        # The last element of `name`, and the very last weight of the blob.
        for i in (end - 1, model.buffer.size - 1):
            struct.pack_into("<d", raw, 8 + hlen + 8 * i, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")
                           + "weight blob holds a non-finite value in "
                           + re.escape(name) + "$"):
            load_model(path)


# ---------------------------------------------------------------------------
# Adam


class TestAdam:
    def test_first_step_formula(self):
        p = np.array([1.0, 2.0])
        g = np.array([0.5, 0.0])
        cfg = TrainConfig(learning_rate=1e-3)
        state = AdamState.for_params(p)
        adam_step(p, g, state, cfg)
        # After bias correction the first step is lr * g / (|g| + eps); a
        # zero gradient leaves its entry exactly as it was.
        expected = 1.0 - 1e-3 * 0.5 / (0.5 + 1e-8)
        np.testing.assert_allclose(p[0], expected, atol=1e-15)
        assert p[1] == 2.0
        assert state.t == 1

    def test_matches_reference_over_many_steps(self):
        rng = np.random.default_rng(11)
        cfg = TrainConfig(learning_rate=0.01)
        p = rng.standard_normal(10)
        ref_p = [p[:4].copy(), p[4:].reshape(2, 3).copy()]
        m = [np.zeros_like(a) for a in ref_p]
        v = [np.zeros_like(a) for a in ref_p]
        state = AdamState.for_params(p)
        for t in range(1, 21):
            grad = rng.standard_normal(10)
            adam_step(p, grad, state, cfg)
            for a, g, mi, vi in zip(ref_p, (grad[:4], grad[4:].reshape(2, 3)), m, v):
                mi[...] = BETA1 * mi + (1 - BETA1) * g
                vi[...] = BETA2 * vi + (1 - BETA2) * g * g
                mhat = mi / (1 - BETA1 ** t)
                vhat = vi / (1 - BETA2 ** t)
                a -= cfg.learning_rate * mhat / (np.sqrt(vhat) + EPSILON)
        np.testing.assert_allclose(p, np.concatenate([a.ravel() for a in ref_p]),
                                   atol=1e-12)

    def test_in_place_update_matches_the_fresh_array_expression_bit_for_bit(self):
        # The in-place update of the parameters and moments against the
        # same formula on copies of them, over 20 steps of float32
        # gradients with some entries always zero.
        rng = np.random.default_rng(12)
        cfg = TrainConfig(learning_rate=1e-3)
        p = rng.standard_normal(500)
        ref_p, m, v = p.copy(), np.zeros(500), np.zeros(500)
        state = AdamState.for_params(p)
        for t in range(1, 21):
            grad = rng.standard_normal(500).astype(np.float32).astype(np.float64)
            grad[::7] = 0.0
            adam_step(p, grad, state, cfg)
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            ref_p -= cfg.learning_rate * (m / (1.0 - BETA1 ** t)) / (
                np.sqrt(v / (1.0 - BETA2 ** t)) + EPSILON)
            np.testing.assert_array_equal(p, ref_p)
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)

    def test_shape_mismatch_rejected(self):
        p = np.zeros(3)
        state = AdamState.for_params(p)
        with pytest.raises(ShapeError):
            adam_step(p, np.zeros(4), state, TrainConfig())
        with pytest.raises(ShapeError):
            adam_step(p, np.zeros(3), AdamState.for_params(np.zeros(4)),
                      TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)


# ---------------------------------------------------------------------------
# Training loop


def _toy_set(n_per_class, seed, channels=2, samples=64):
    """(windows [N x C x T], classes [N]) whose dominant frequency encodes the
    class; separable by a CNN."""
    rng = np.random.default_rng(seed)
    t = np.arange(samples)
    windows, labels = [], []
    for code in range(5):
        for _ in range(n_per_class):
            phase = 0.3 * rng.standard_normal((channels, 1))
            data = np.sin(2 * np.pi * (code + 1) * t / samples + phase)
            data += 0.05 * rng.standard_normal((channels, samples))
            windows.append(data)
            labels.append(code)
    return np.stack(windows), np.array(labels)


def _toy_model(seed=0):
    return build_model(Sensor.EEG, 2, window_samples=64, kernel_len=3,
                       pool_size=2, hidden=(8, 6), seed=seed)


class TestTrain:
    def test_learns_separable_toy_problem(self):
        model = _toy_model(seed=0)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=16, max_epochs=40,
                          patience=10)
        model, report = train(model, *_toy_set(12, seed=1),
                              *_toy_set(4, seed=2), train_cfg=cfg)
        assert max(report.val_accuracy) >= 0.95

    def test_deterministic(self):
        cfg = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=3,
                          patience=2)
        runs = []
        for _ in range(2):
            model = _toy_model(seed=3)
            model, report = train(model, *_toy_set(6, seed=4),
                                  *_toy_set(2, seed=5), train_cfg=cfg)
            runs.append(([a.copy() for _, a in parameters(model)],
                         report.train_loss, report.val_loss))
        for a, b in zip(runs[0][0], runs[1][0]):
            np.testing.assert_array_equal(a, b)
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]

    def test_report_is_consistent(self):
        model = _toy_model(seed=1)
        cfg = TrainConfig(max_epochs=4, patience=2, batch_size=8)
        _, report = train(model, *_toy_set(6, seed=6),
                          *_toy_set(2, seed=7), train_cfg=cfg)
        n = len(report.epochs)
        assert 1 <= n <= 4
        assert report.epochs == list(range(1, n + 1))
        assert len(report.train_loss) == len(report.val_loss) == n
        assert len(report.val_accuracy) == n
        assert 1 <= report.best_epoch <= n
        best = report.best_epoch - 1
        assert report.val_loss[best] == min(report.val_loss)

    def test_restores_best_snapshot(self):
        model = _toy_model(seed=2)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=10,
                          patience=9)
        (xs, ys), (xv, yv) = _toy_set(6, seed=8), _toy_set(2, seed=9)
        model, report = train(model, xs, ys, xv, yv, train_cfg=cfg)
        loss, _ = evaluate(model, xv, yv,
                           FocalLossConfig(gamma=FOCAL_GAMMA,
                                           alpha=inverse_frequency_alpha(ys)))
        np.testing.assert_allclose(loss, min(report.val_loss), rtol=1e-9)

    def test_leaves_no_workspace_on_the_model(self):
        # The per-batch-size training `Buffers`, with their parameter copies
        # and gradients, live only for the call: a fold's result keeps its
        # models, and buffers cached on them would stay resident with every
        # fold.
        model = _toy_model()
        cfg = TrainConfig(batch_size=8, max_epochs=1)
        train(model, *_toy_set(3, seed=0), *_toy_set(1, seed=1), train_cfg=cfg)
        assert set(vars(model)) == {f.name for f in dataclasses.fields(SensorModel)}
        assert model.window_buffers is None  # only a one-window call makes them

    def test_makes_one_training_buffers_per_batch_size(self, monkeypatch):
        # 15 windows in batches of 8 over two epochs are four steps of two
        # sizes; a `Buffers` made per step would pass every bit-identity
        # test, so count them.
        made = []

        def spy(model, batch, *dtype):
            made.append((batch, *dtype))
            return Buffers(model, batch, *dtype)

        monkeypatch.setattr("preictal.nn.train.Buffers", spy)
        _, report = train(_toy_model(), *_toy_set(3, seed=0), *_toy_set(1, seed=1),
                          train_cfg=TrainConfig(batch_size=8, max_epochs=2, patience=2))
        assert report.epochs == [1, 2]
        assert made == [(8, np.float32), (7, np.float32)]

    def test_step_bench_times_the_step_of_both_desk_sensors(self, monkeypatch):
        # scripts/step_bench.py times `train`'s step through the nn API,
        # which no other test runs, so a rename there would break it
        # unseen.  It is a script, not a module: load it from its file and
        # time a few steps of each desk sensor.  Loading it pins BLAS and
        # puts src/ and tests/ on sys.path; both are restored afterwards.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(sys, "path", list(sys.path))
        path = Path(__file__).resolve().parents[1] / "scripts" / "step_bench.py"
        spec = importlib.util.spec_from_file_location("step_bench", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        monkeypatch.setattr(bench, "REPEATS", 5)
        for _, sensor, channels, pool in bench.SHAPES:
            times = bench.time_steps(sensor, channels, pool)
            assert len(times) == 5 and min(times) > 0

    def test_steps_compute_in_float32_against_float64_state(self, monkeypatch):
        seen = []

        def spy(model, xb, *rest):
            # Each batch is a [B x C x T] view of a channel-major array.
            seen.append((xb.dtype, model.buffer.dtype,
                         xb.transpose(1, 0, 2).flags.c_contiguous))
            return backward_batch(model, xb, *rest)

        monkeypatch.setattr("preictal.nn.train.backward_batch", spy)
        model = _toy_model()
        (xs, ys), (xv, yv) = _toy_set(3, seed=0), _toy_set(1, seed=1)
        train(model, xs, ys, xv, yv, train_cfg=TrainConfig(batch_size=8, max_epochs=2))
        assert set(seen) == {(np.dtype(np.float32), np.dtype(np.float64), True)}
        assert len(seen) == 2 * 2  # 15 windows in batches of 8, two epochs
        assert xs.dtype == np.float64  # the caller's windows are left alone
        assert model_forward(model, xv).dtype == np.float64

    def test_rejects_empty_sets(self):
        model = _toy_model()
        empty = np.empty((0, 2, 64)), np.empty(0, dtype=int)
        with pytest.raises(ValueError):
            train(model, *empty, *_toy_set(2, seed=0), TrainConfig())
        with pytest.raises(ValueError):
            train(model, *_toy_set(2, seed=0), *empty, TrainConfig())

    def test_rejects_a_label_count_unlike_the_window_count(self):
        xs, ys = _toy_set(2, seed=0)
        with pytest.raises(ValueError, match="one label per window"):
            train(_toy_model(), xs, ys[:-1], xs, ys, TrainConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_input_stops_training(self):
        model = _toy_model()
        bad, ys = _toy_set(6, seed=0)
        bad[3, 1, 10] = np.nan
        cfg = TrainConfig(batch_size=8, max_epochs=3)
        with pytest.raises(ValueError, match="EEG model: batch loss is nan at epoch 1"):
            train(model, bad, ys, *_toy_set(2, seed=1), train_cfg=cfg)
        val, yv = _toy_set(2, seed=1)
        val[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="validation loss is nan at epoch 1"):
            train(_toy_model(), *_toy_set(6, seed=0), val, yv, train_cfg=cfg)

    def test_rejects_mismatched_window_shape(self):
        model = _toy_model()  # expects 2 x 64
        wrong = _toy_set(2, seed=0, channels=1)
        with pytest.raises(ValueError, match="does not match"):
            train(model, *wrong, *wrong, TrainConfig())

    def test_write_train_report(self, tmp_path):
        report = TrainReport(epochs=[1, 2], train_loss=[0.5, 0.25],
                             val_loss=[0.6, 0.3], val_accuracy=[0.5, 0.9],
                             best_epoch=2)
        path = tmp_path / "r.csv"
        write_train_report(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_accuracy"
        assert lines[1] == "1,0.5,0.6,0.5"
        assert len(lines) == 3
