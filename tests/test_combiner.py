import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import central_difference, cross_entropy, lr_train_rowmajor, noisy_quantized_set
from preictal.combiner import (
    N_INPUTS,
    QUANT_STEP,
    CombinerConfig,
    GRAD_TOL,
    CombinerParams,
    build_input,
    is_quantized,
    load_combiner,
    lr_forward,
    lr_train,
    predict,
    quantize4,
    save_combiner,
)
from preictal.dataset import LabelClass
from preictal.errors import ShapeError


# ---------------------------------------------------------------------------
# Quantization


class TestQuantize4:
    @pytest.mark.parametrize("value,expected", [
        (0.12344, 0.1234),
        (0.12346, 0.1235),
        (0.12345, 0.1235),   # halfway rounds away from zero
        (0.0, 0.0),
        (1.0, 1.0),
        (0.99995, 1.0),
        (0.00004, 0.0),
        (0.00005, 0.0001),
    ])
    def test_examples(self, value, expected):
        np.testing.assert_allclose(quantize4(np.array([value])), [expected],
                                   atol=1e-12)

    def test_vector_and_idempotence(self):
        p = np.array([0.2, 0.30001, 0.49999, 0.00005, 0.0])
        q = quantize4(p)
        np.testing.assert_array_equal(quantize4(q), q)
        assert is_quantized(q)

    @settings(max_examples=500)
    @given(hnp.arrays(np.float64, 5,
                      elements=st.floats(0.0, 1.0, allow_nan=False)))
    def test_error_bound_and_idempotence(self, p):
        q = quantize4(p)
        assert np.abs(q - p).max() <= 5e-5 + 1e-12
        assert is_quantized(q)
        np.testing.assert_array_equal(quantize4(q), q)

    def test_is_quantized(self):
        assert is_quantized(np.array([0.1234, 0.0, 1.0]))
        assert not is_quantized(np.array([0.12345]))
        assert not is_quantized(np.array([0.1234, 1e-5]))


# ---------------------------------------------------------------------------
# Input assembly


class TestBuildInput:
    def test_concatenates_eeg_first(self):
        p_eeg = quantize4(np.array([0.9, 0.05, 0.03, 0.01, 0.01]))
        p_ecg = quantize4(np.array([0.1, 0.2, 0.3, 0.2, 0.2]))
        x = build_input(p_eeg, p_ecg)
        np.testing.assert_array_equal(x[:5], p_eeg)
        np.testing.assert_array_equal(x[5:], p_ecg)
        swapped = build_input(p_ecg, p_eeg)
        assert not np.array_equal(x, swapped)

    def test_rejects_unquantized(self):
        fine = quantize4(np.full(5, 0.2))
        with pytest.raises(ValueError):
            build_input(np.array([0.12345, 0.2, 0.2, 0.2, 0.25655]), fine)

    def test_rejects_wrong_length(self):
        with pytest.raises(ShapeError):
            build_input(np.zeros(4), np.zeros(5))

    def test_batch_equals_stacked_single_rows(self):
        rng = np.random.default_rng(2)
        p_eeg, p_ecg = quantize4(rng.random((2, 7, 5)))
        batch = build_input(p_eeg, p_ecg)
        assert batch.shape == (7, 10)
        np.testing.assert_array_equal(
            batch, np.stack([build_input(e, c) for e, c in zip(p_eeg, p_ecg)]))

    @pytest.mark.parametrize("shape_ecg", [(5,), (4, 5)], ids=["row", "shorter"])
    def test_rejects_batch_with_other_shape(self, shape_ecg):
        with pytest.raises(ShapeError):
            build_input(np.zeros((3, 5)), np.zeros(shape_ecg))


# ---------------------------------------------------------------------------
# Forward / predict


class TestForward:
    def test_zero_parameters_give_uniform(self):
        params = CombinerParams(np.zeros((5, 10)), np.zeros(5))
        probs = lr_forward(np.full(10, 0.1), params)
        np.testing.assert_allclose(probs, np.full(5, 0.2), atol=1e-12)

    def test_unit_logit_gives_e_over_e_plus_4(self):
        w = np.zeros((5, 10))
        w[0, 0] = 1.0
        params = CombinerParams(w, np.zeros(5))
        x = np.zeros(10)
        x[0] = 1.0
        probs = lr_forward(x, params)
        np.testing.assert_allclose(probs[0], np.e / (np.e + 4.0), atol=1e-12)

    def test_bias_shift_invariance(self):
        rng = np.random.default_rng(0)
        params = CombinerParams(rng.standard_normal((5, 10)),
                                rng.standard_normal(5))
        shifted = CombinerParams(params.W, params.b + 7.5)
        x = rng.standard_normal(10)
        np.testing.assert_allclose(lr_forward(x, params),
                                   lr_forward(x, shifted), atol=1e-12)

    def test_batch_forward(self):
        rng = np.random.default_rng(1)
        params = CombinerParams(rng.standard_normal((5, 10)), np.zeros(5))
        xs = rng.standard_normal((6, 10))
        batch = lr_forward(xs, params)
        assert batch.shape == (6, 5)
        for i in range(6):
            np.testing.assert_allclose(batch[i], lr_forward(xs[i], params))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 600), st.integers(0, 2**32 - 1))
    def test_batch_rows_equal_single_rows_bit_for_bit(self, n, seed):
        rng = np.random.default_rng(seed)
        params = CombinerParams(3 * rng.standard_normal((5, 10)),
                                rng.standard_normal(5))
        xs = quantize4(rng.random((n, 10)))
        batch = lr_forward(xs, params)
        rows = np.stack([lr_forward(x, params) for x in xs])
        assert batch.tobytes() == rows.tobytes()

    def test_wrong_width_rejected(self):
        params = CombinerParams(np.zeros((5, 10)), np.zeros(5))
        with pytest.raises(ShapeError):
            lr_forward(np.zeros(9), params)

    def test_predict_tie_breaks_toward_soonest_onset(self):
        assert predict(np.array([0.3, 0.3, 0.2, 0.1, 0.1])) is LabelClass.PRE_0_15
        assert predict(np.array([0.1, 0.1, 0.2, 0.3, 0.3])) is LabelClass.PRE_45_60
        assert predict(np.full(5, 0.2)) is LabelClass.PRE_0_15

    def test_params_validation(self):
        with pytest.raises(ShapeError):
            CombinerParams(np.zeros((5, 9)), np.zeros(5))
        with pytest.raises(ShapeError):
            CombinerParams(np.zeros((5, 10)), np.zeros(4))
        with pytest.raises(ValueError):
            CombinerParams(np.full((5, 10), np.nan), np.zeros(5))


# ---------------------------------------------------------------------------
# Training


def _separable_dataset(n_per_class=20, seed=0, confidence=0.9):
    """(inputs [N x 10], classes [N]); both sensors usually agree with the
    label; inputs pre-quantized."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    rest = (1.0 - confidence) / 4.0
    for code in range(5):
        for _ in range(n_per_class):
            def noisy():
                p = np.full(5, rest)
                p[code] = confidence
                p += rng.uniform(0, 0.005, size=5)
                return quantize4(p / p.sum())
            rows.append(build_input(noisy(), noisy()))
            labels.append(code)
    return np.stack(rows), np.array(labels)


class TestTrain:
    def test_learns_separable_fusion(self):
        xs, ys = _separable_dataset()
        params = lr_train(xs, ys, CombinerConfig())
        correct = sum(predict(lr_forward(x, params)) == y for x, y in zip(xs, ys))
        assert correct == len(ys)

    def test_single_example_probability_increases(self):
        x = build_input(quantize4(np.array([0.7, 0.1, 0.1, 0.05, 0.05])),
                        quantize4(np.array([0.6, 0.1, 0.1, 0.1, 0.1])))
        params = lr_train([x], [LabelClass.PRE_0_15],
                          CombinerConfig(learning_rate=1.0, max_epochs=50))
        assert lr_forward(x, params)[0] > 0.2
        more = lr_train([x], [LabelClass.PRE_0_15],
                        CombinerConfig(learning_rate=1.0, max_epochs=200))
        assert lr_forward(x, more)[0] > lr_forward(x, params)[0]

    def test_deterministic(self):
        xs, ys = _separable_dataset(seed=3)
        cfg = CombinerConfig()
        a, b = lr_train(xs, ys, cfg), lr_train(xs, ys, cfg)
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.b, b.b)

    def test_training_reduces_cross_entropy(self):
        xs, ys = _separable_dataset(seed=4)
        zero = CombinerParams(np.zeros((5, 10)), np.zeros(5))
        fitted = lr_train(xs, ys, CombinerConfig())
        assert cross_entropy(xs, ys, fitted) < cross_entropy(xs, ys, zero)

    def test_analytic_gradient_matches_finite_differences(self):
        xs, ys = _separable_dataset(n_per_class=4, seed=5)
        n = len(ys)
        onehot = np.zeros((n, 5))
        onehot[np.arange(n), ys] = 1.0
        rng = np.random.default_rng(6)
        w = rng.standard_normal((5, 10)) * 0.3
        b = rng.standard_normal(5) * 0.3

        from preictal.nn.ops import softmax
        err = (softmax(xs @ w.T + b) - onehot) / n
        g_w, g_b = err.T @ xs, err.sum(axis=0)

        def loss():
            return cross_entropy(xs, ys, CombinerParams(w, b))

        fd_w, fd_b = central_difference(loss, [w, b], step=1e-6)
        denom_w = np.maximum(np.maximum(np.abs(g_w), np.abs(fd_w)), 1e-6)
        denom_b = np.maximum(np.maximum(np.abs(g_b), np.abs(fd_b)), 1e-6)
        assert (np.abs(g_w - fd_w) / denom_w).max() < 1e-6
        assert (np.abs(g_b - fd_b) / denom_b).max() < 1e-6

    def test_config_validation(self):
        assert CombinerConfig() == CombinerConfig(learning_rate=1.0, max_epochs=500)
        with pytest.raises(ValueError):
            CombinerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            CombinerConfig(max_epochs=0)
        xs, ys = _separable_dataset(n_per_class=2)
        with pytest.raises(TypeError):
            lr_train(xs, ys)  # the settings have no default

    def test_rejects_empty_and_unquantized(self):
        with pytest.raises(ValueError):
            lr_train(np.empty((0, 10)), [], CombinerConfig())
        with pytest.raises(ValueError):
            lr_train([np.full(10, 0.12345)], [LabelClass.PRE_0_15], CombinerConfig())
        with pytest.raises(ShapeError):
            lr_train([quantize4(np.full(9, 0.1))], [LabelClass.PRE_0_15],
                     CombinerConfig())

    def test_rejects_mismatched_lengths(self):
        xs, ys = _separable_dataset(n_per_class=2)
        with pytest.raises(ValueError, match="10 inputs for 9 labels"):
            lr_train(xs, ys[:-1], CombinerConfig())


class TestTrainMatchesRowMajor:
    """`lr_train` against the row-major loop in `oracles`: the same method
    summed in another order, so W and b agree to rounding and every row
    reads out the same class."""

    def _check(self, xs, ys, cfg=CombinerConfig()):
        params = lr_train(xs, ys, cfg)
        w, b = lr_train_rowmajor(xs, ys, cfg.learning_rate, cfg.max_epochs, GRAD_TOL)
        np.testing.assert_allclose(params.W, w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(params.b, b, rtol=0, atol=1e-12)
        reference = CombinerParams(w, b)
        np.testing.assert_array_equal(lr_forward(xs, params).argmax(axis=1),
                                      lr_forward(xs, reference).argmax(axis=1))
        return params

    @pytest.mark.parametrize("n,seed", [(7, 0), (60, 1), (333, 2), (1395, 7919)])
    def test_random_quantized_sets(self, n, seed):
        self._check(*noisy_quantized_set(n, seed))

    def test_one_window(self):
        xs, ys = noisy_quantized_set(1, seed=3)
        self._check(xs, ys, CombinerConfig(learning_rate=0.5, max_epochs=40))

    def test_zero_gradient_at_init_stops_at_once(self):
        # All-zero inputs and balanced labels: the softmax is uniform and
        # its error sums over each class to zero but for rounding (~1e-17,
        # far below GRAD_TOL), so the fit stops before its first step with
        # W and b still zero.  Without the stop, 500 steps of that rounding
        # would leave b nonzero.
        xs = np.zeros((10, N_INPUTS))
        ys = np.repeat(np.arange(5), 2)
        params = self._check(xs, ys)
        assert not params.W.any() and not params.b.any()


# ---------------------------------------------------------------------------
# Files


class TestCombinerFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        params = CombinerParams(rng.standard_normal((5, 10)),
                                rng.standard_normal(5))
        path = tmp_path / "combiner.json"
        save_combiner(params, path)
        back = load_combiner(path)
        np.testing.assert_array_equal(back.W, params.W)
        np.testing.assert_array_equal(back.b, params.b)

    def test_file_is_json_with_expected_keys(self, tmp_path):
        params = CombinerParams(np.zeros((5, 10)), np.zeros(5))
        path = tmp_path / "combiner.json"
        save_combiner(params, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"W", "b"}
        assert len(payload["W"]) == 5 and len(payload["W"][0]) == 10

    @pytest.mark.parametrize("text", [
        pytest.param('{"W": [[0.0, 0.0', id="invalid-json"),
        pytest.param("{}", id="no-weights"),
        pytest.param('{"W": [[0.0, 0.0]], "b": [0, 0, 0, 0, 0]}', id="1x2-W"),
    ])
    def test_malformed_file_names_its_path(self, tmp_path, text):
        path = tmp_path / "combiner.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_combiner(path)

    @pytest.mark.parametrize("key, row, value", [
        pytest.param("W", 0, True, id="bool-weight"),
        pytest.param("W", 0, "0.5", id="string-weight"),
        pytest.param("W", 0, None, id="null-weight"),
        pytest.param("W", 0, [0.5], id="list-weight"),
        pytest.param("b", None, False, id="bool-bias"),
        pytest.param("b", None, "1", id="string-bias"),
    ])
    def test_weight_that_is_not_a_number_names_the_file(self, tmp_path, key, row,
                                                          value):
        # numpy reads true as 1.0 and "0.5" as 0.5; the file must not pass.
        path = tmp_path / "combiner.json"
        save_combiner(CombinerParams(np.zeros((5, 10)), np.zeros(5)), path)
        payload = json.loads(path.read_text())
        (payload[key] if row is None else payload[key][row])[0] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*numbers"):
            load_combiner(path)
