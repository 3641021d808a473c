"""Baseline classifier: features, analytic gradient, training, prediction."""

import numpy as np
import pytest

from hapticloc.classifier import (
    LogisticBaseline,
    StepSignal,
    baseline_predict,
    baseline_train,
    featurize,
    loss_and_grad,
)
from hapticloc.evaluate import make_training_set


def test_step_signal_validation():
    with pytest.raises(ValueError):
        StepSignal(np.zeros((5, 4)))
    with pytest.raises(ValueError):
        StepSignal(np.zeros((0, 6)))
    bad = np.zeros((5, 6))
    bad[2, 1] = np.inf
    with pytest.raises(ValueError):
        StepSignal(bad)
    assert StepSignal(np.zeros((7, 6))).samples.shape == (7, 6)


def test_featurize_hand_case():
    s = np.zeros((3, 6))
    s[:, 0] = [1.0, 2.0, 3.0]
    s[:, 5] = [-1.0, 0.0, 1.0]
    f = featurize(StepSignal(s))
    assert f.shape == (24,)
    assert f[0] == pytest.approx(2.0)  # mean of channel 0
    assert f[5] == pytest.approx(0.0)  # mean of channel 5
    assert f[6] == pytest.approx(np.sqrt(2.0 / 3.0))  # population std
    assert f[12] == 1.0 and f[18] == 3.0  # min, max of channel 0
    assert f[17] == -1.0 and f[23] == 1.0


def test_loss_matches_direct_cross_entropy():
    rng = np.random.default_rng(0)
    b, f, c = 12, 5, 4
    w = rng.standard_normal((c, f))
    bias = rng.standard_normal(c)
    x = rng.standard_normal((b, f))
    y = rng.integers(0, c, b)
    loss, _, _ = loss_and_grad(w, bias, x, y, c)
    logits = x @ w.T + bias
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    want = -np.mean(np.log(p[np.arange(b), y]))
    assert loss == pytest.approx(want, abs=1e-12)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(1)
    b, f, c = 10, 6, 5
    w = rng.standard_normal((c, f))
    bias = rng.standard_normal(c)
    x = rng.standard_normal((b, f))
    y = rng.integers(0, c, b)
    _, dw, db = loss_and_grad(w, bias, x, y, c)
    eps = 1e-6

    def loss_at(wm, bm):
        return loss_and_grad(wm, bm, x, y, c)[0]

    num_dw = np.zeros_like(w)
    for i in range(c):
        for j in range(f):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += eps
            wm[i, j] -= eps
            num_dw[i, j] = (loss_at(wp, bias) - loss_at(wm, bias)) / (2 * eps)
    num_db = np.zeros_like(bias)
    for i in range(c):
        bp, bm = bias.copy(), bias.copy()
        bp[i] += eps
        bm[i] -= eps
        num_db[i] = (loss_at(w, bp) - loss_at(w, bm)) / (2 * eps)

    scale_w = np.maximum(np.abs(num_dw), 1e-8)
    scale_b = np.maximum(np.abs(num_db), 1e-8)
    assert np.max(np.abs(dw - num_dw) / scale_w) < 1e-5
    assert np.max(np.abs(db - num_db) / scale_b) < 1e-5


def test_train_validation():
    sigs = [StepSignal(np.random.default_rng(0).normal(size=(10, 6)))]
    with pytest.raises(ValueError):
        baseline_train(sigs, [0, 1])
    with pytest.raises(ValueError):
        baseline_train([], [])
    with pytest.raises(ValueError):
        baseline_train(sigs, [9], n_classes=8)


def test_train_is_deterministic():
    sigs, labels = make_training_set(per_class=6, seed=3)
    labels = np.asarray(labels)
    a = baseline_train(sigs, labels, seed=5)
    b = baseline_train(sigs, labels, seed=5)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


def test_train_separates_synthetic_materials():
    sigs, labels = make_training_set(per_class=40, seed=11)
    labels = np.asarray(labels)
    n = len(sigs)
    rng = np.random.default_rng(0)
    order = rng.permutation(n)
    cut = int(0.75 * n)
    tr, te = order[:cut], order[cut:]
    model = baseline_train([sigs[i] for i in tr], labels[tr], seed=0)
    probs = np.stack([baseline_predict(model, sigs[i]) for i in te])
    acc = float(np.mean(np.argmax(probs, axis=1) == labels[te]))
    assert acc >= 0.9
    assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    # the classifier interface: predict(signal) -> probs
    assert np.array_equal(model.predict(sigs[te[0]]), probs[0])
