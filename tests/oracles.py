"""Slow, obviously-correct reference implementations.

Everything here is written the dumb way on purpose — explicit loops and
direct formula transcription — so the vectorized library code has something
independent to agree with.
"""

from __future__ import annotations

import numpy as np

from preictal.combiner import build_input, quantize4


def conv1d_naive(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Cross-correlation, stride 1, zero 'same' padding, nested loops.

    x: [B x C_in x T], kernels: [C_out x C_in x K], bias: [C_out].
    Padding puts (K-1)//2 zeros on the left and K//2 on the right.
    """
    b, c_in, t = x.shape
    c_out, _, k = kernels.shape
    left = (k - 1) // 2
    xp = np.zeros((b, c_in, t + k - 1))
    xp[:, :, left:left + t] = x
    out = np.zeros((b, c_out, t))
    for n in range(b):
        for o in range(c_out):
            for i in range(t):
                acc = 0.0
                for c in range(c_in):
                    for j in range(k):
                        acc += kernels[o, c, j] * xp[n, c, i + j]
                out[n, o, i] = acc + bias[o]
    return out


def maxpool1d_naive(x: np.ndarray, pool_size: int) -> np.ndarray:
    """Non-overlapping max windows; trailing partial window pooled as-is."""
    b, c, t = x.shape
    n_out = -(-t // pool_size)
    out = np.empty((b, c, n_out))
    for n in range(b):
        for ch in range(c):
            for i in range(n_out):
                out[n, ch, i] = max(x[n, ch, i * pool_size:(i + 1) * pool_size])
    return out


def maxpool1d_argmax_gather(x, pool_size, out=None, arg=None):
    """Max pooling as it was first written: a trailing partial window padded
    with -inf, one argmax per [.. x n x pool_size] window (the first maximum
    on ties), and a gather of the padded input at those indices.  Takes and
    returns what `ops.maxpool1d_with_argmax` does, so a model can run on it
    in its place."""
    *lead, t = x.shape
    n = -(-t // pool_size)
    padded = np.full((*lead, n * pool_size), -np.inf, dtype=x.dtype)
    padded[..., :t] = x
    index = padded.reshape(*lead, n, pool_size).argmax(axis=-1)
    flat = np.arange(0, index.size * pool_size, pool_size) + index.reshape(-1)
    if out is None:
        out = np.empty(index.shape, x.dtype)
    out[...] = padded.reshape(-1)[flat].reshape(index.shape)
    if arg is not None:
        arg[...] = index
    return out, arg


def label_code_reference(minutes):
    """Independent re-derivation of the label partition over [0, inf).

    Returns 0..4 for the classes and the string "discard" for the buffer,
    scanning explicit (low, high, code) ranges instead of an if-chain.
    """
    if minutes is None:
        return 4
    if minutes < 0:
        raise ValueError("negative offset")
    ranges = [
        (0.0, 15.0, 0),
        (15.0, 30.0, 1),
        (30.0, 45.0, 2),
        (45.0, 60.0, 3),
    ]
    for low, high, code in ranges:
        if low <= minutes < high:
            return code
    if 60.0 <= minutes <= 90.0:
        return "discard"
    return 4


def central_difference(loss_fn, arrays, step=1e-5):
    """Central finite-difference gradient of loss_fn() w.r.t. every element.

    Mutates each array in place (restoring it), so loss_fn must read the same
    array objects.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat_a = a.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_a.size):
            orig = flat_a[i]
            flat_a[i] = orig + step
            lp = loss_fn()
            flat_a[i] = orig - step
            lm = loss_fn()
            flat_a[i] = orig
            flat_g[i] = (lp - lm) / (2.0 * step)
        grads.append(g)
    return grads


def focal_reference(probs, target, gamma, alpha):
    """-alpha_t * (1 - p_t)^gamma * log(p_t), transcribed directly."""
    p_t = max(float(probs[target]), 1e-12)
    return -float(alpha[target]) * (1.0 - p_t) ** gamma * np.log(p_t)


def band_energy_predict(window, fs, class_freqs, half_width=1.0):
    """Classify one [C x T] window by its dominant class-frequency band."""
    spec = np.abs(np.fft.rfft(window, axis=-1)) ** 2
    freqs = np.fft.rfftfreq(window.shape[-1], 1.0 / fs)
    energies = []
    for code in sorted(class_freqs):
        f0 = class_freqs[code]
        mask = (freqs >= f0 - half_width) & (freqs <= f0 + half_width)
        energies.append(spec[:, mask].sum())
    return int(np.argmax(energies))


def collapse_via_confusion(preds, labels):
    """(tp, fp, tn, fn) by tallying the 5x5 matrix, then summing its blocks.

    Classes 0-3 are positive, class 4 negative.
    """
    counts = np.zeros((5, 5), dtype=int)
    for p, t in zip(preds, labels):
        counts[int(t), int(p)] += 1
    tp = int(counts[:4, :4].sum())
    fn = int(counts[:4, 4].sum())
    fp = int(counts[4, :4].sum())
    tn = int(counts[4, 4])
    return tp, fp, tn, fn


def cross_entropy(xs: np.ndarray, ys: np.ndarray, params) -> float:
    """Mean multinomial cross-entropy of softmax(W x + b) over (xs, ys),
    one example at a time through log-sum-exp; `params` has W and b."""
    total = 0.0
    for x, y in zip(xs, ys):
        z = params.W @ x + params.b
        total += np.log(np.exp(z - z.max()).sum()) + z.max() - z[int(y)]
    return float(total / len(ys))


def parameters(model) -> list[tuple[str, np.ndarray]]:
    """A sensor model's trainable arrays (views into its buffer), in buffer
    order: every named view except batchnorm's running statistics."""
    return [(name, view) for name, view in model.params.items()
            if not name.startswith("batchnorm.running")]


def lr_train_rowmajor(xs, ys, learning_rate, max_epochs, grad_tol):
    """Full-batch gradient descent for the combiner in the row-major form:
    inputs [N x 10], logits softmax(x W^T + b) [N x 5], separate W and b
    gradients, fresh arrays every epoch.  Returns (W, b)."""
    xs = np.asarray(xs, dtype=float)
    n = len(ys)
    onehot = np.zeros((n, 5))
    onehot[np.arange(n), ys] = 1.0
    w = np.zeros((5, xs.shape[1]))
    b = np.zeros(5)
    for _ in range(max_epochs):
        logits = xs @ w.T + b
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        err = (e / e.sum(axis=1, keepdims=True) - onehot) / n
        g_w = err.T @ xs
        g_b = err.sum(axis=0)
        if max(np.abs(g_w).max(), np.abs(g_b).max()) < grad_tol:
            break
        w -= learning_rate * g_w
        b -= learning_rate * g_b
    return w, b


def noisy_quantized_set(n, seed):
    """(inputs [N x 10], classes [N]) for the combiner: quantized probability
    pairs that lean toward the label by a random margin, so no W separates
    them and a fit runs every epoch, as a desk fold's does."""
    rng = np.random.default_rng(seed)
    ys = rng.integers(0, 5, size=n)
    halves = []
    for _ in range(2):
        p = rng.dirichlet(np.full(5, 0.5), size=n)
        p[np.arange(n), ys] += rng.uniform(0.0, 1.0, size=n)
        halves.append(quantize4(p / p.sum(axis=1, keepdims=True)))
    return build_input(*halves), ys
