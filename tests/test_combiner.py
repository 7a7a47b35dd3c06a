import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import central_difference, cross_entropy
from preictal.combiner import (
    N_INPUTS,
    QUANT_STEP,
    CombinerConfig,
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
    """Both sensors usually agree with the label; inputs pre-quantized."""
    rng = np.random.default_rng(seed)
    rows = []
    rest = (1.0 - confidence) / 4.0
    for code in range(5):
        for _ in range(n_per_class):
            def noisy():
                p = np.full(5, rest)
                p[code] = confidence
                p += rng.uniform(0, 0.005, size=5)
                return quantize4(p / p.sum())
            rows.append((build_input(noisy(), noisy()), LabelClass(code)))
    return rows


class TestTrain:
    def test_learns_separable_fusion(self):
        data = _separable_dataset()
        params = lr_train(data)
        correct = sum(predict(lr_forward(x, params)) is y for x, y in data)
        assert correct == len(data)

    def test_single_example_probability_increases(self):
        x = build_input(quantize4(np.array([0.7, 0.1, 0.1, 0.05, 0.05])),
                        quantize4(np.array([0.6, 0.1, 0.1, 0.1, 0.1])))
        params = lr_train([(x, LabelClass.PRE_0_15)],
                          CombinerConfig(learning_rate=1.0, max_epochs=50))
        assert lr_forward(x, params)[0] > 0.2
        more = lr_train([(x, LabelClass.PRE_0_15)],
                        CombinerConfig(learning_rate=1.0, max_epochs=200))
        assert lr_forward(x, more)[0] > lr_forward(x, params)[0]

    def test_deterministic(self):
        data = _separable_dataset(seed=3)
        a, b = lr_train(data), lr_train(data)
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.b, b.b)

    def test_training_reduces_cross_entropy(self):
        data = _separable_dataset(seed=4)
        xs = np.stack([x for x, _ in data])
        ys = np.array([int(y) for _, y in data])
        zero = CombinerParams(np.zeros((5, 10)), np.zeros(5))
        fitted = lr_train(data)
        assert cross_entropy(xs, ys, fitted) < cross_entropy(xs, ys, zero)

    def test_analytic_gradient_matches_finite_differences(self):
        data = _separable_dataset(n_per_class=4, seed=5)
        xs = np.stack([x for x, _ in data])
        ys = np.array([int(y) for _, y in data])
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

    def test_rejects_empty_and_unquantized(self):
        with pytest.raises(ValueError):
            lr_train([])
        with pytest.raises(ValueError):
            lr_train([(np.full(10, 0.12345), LabelClass.PRE_0_15)])
        with pytest.raises(ShapeError):
            lr_train([(quantize4(np.full(9, 0.1)), LabelClass.PRE_0_15)])


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
        import json
        params = CombinerParams(np.zeros((5, 10)), np.zeros(5))
        path = tmp_path / "combiner.json"
        save_combiner(params, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"W", "b"}
        assert len(payload["W"]) == 5 and len(payload["W"][0]) == 10
