"""Baseline classifier: features, analytic gradient, training, prediction."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hapticloc.classifier import (
    EPOCHS,
    LEARNING_RATE,
    LogisticBaseline,
    StepSignal,
    _cross_entropy_grad,
    _softmax_rows,
    baseline_predict,
    baseline_train,
    featurize,
)
from hapticloc.evaluate import TRAIN_PER_CLASS, TRAIN_SEED_OFFSET, make_training_set, train_contact_classifier
from hapticloc.sim import N_TERRAIN_CLASSES
from test_geometry import same_bits


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


def test_a_signal_keeps_a_read_only_copy_of_its_samples():
    # checked once, when built: a write into the samples, or other samples
    # in their place, would get round the check
    given = np.zeros((7, 6))
    signal = StepSignal(given)
    given[0, 0] = np.nan
    assert not np.shares_memory(signal.samples, given) and np.isfinite(signal.samples).all()
    with pytest.raises(ValueError, match="read-only"):
        signal.samples[0, 0] = np.nan
    with pytest.raises(FrozenInstanceError):
        signal.samples = given


def test_featurize_hand_case():
    s = np.zeros((3, 6))
    s[:, 0] = [1.0, 2.0, 3.0]
    s[:, 5] = [-1.0, 0.0, 1.0]
    f = featurize([StepSignal(s)])
    assert f.shape == (1, 24)
    f = f[0]
    assert f[0] == pytest.approx(2.0)  # mean of channel 0
    assert f[5] == pytest.approx(0.0)  # mean of channel 5
    assert f[6] == pytest.approx(np.sqrt(2.0 / 3.0))  # population std
    assert f[12] == 1.0 and f[18] == 3.0  # min, max of channel 0
    assert f[17] == -1.0 and f[23] == 1.0


def numpy_features(s):
    """The features through numpy's own std."""
    return np.concatenate([s.mean(0), s.std(0), s.min(0), s.max(0)])


@st.composite
def signal_samples(draw, n=None):
    """(n, 6) finite samples: any floats, or a scaled normal draw on a large
    offset. n is drawn from 1..200 when not given."""
    if n is None:
        n = draw(st.integers(1, 200))
    if draw(st.booleans()):
        return draw(arrays(np.float64, (n, 6), elements=st.floats(-1e100, 1e100)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    scale = draw(st.sampled_from([1e-9, 1e-3, 1.0, 1e3]))
    offset = draw(st.sampled_from([0.0, -7.5, 1e6, -1e9, 1e12]))
    return offset + scale * rng.standard_normal((n, 6))


@settings(max_examples=200, deadline=None)
@given(signal_samples())
def test_featurize_matches_numpy_std_bit_for_bit(samples):
    assert same_bits(featurize([StepSignal(samples)]), numpy_features(samples)[None, :])


def test_featurize_of_one_sample_matches_numpy_std():
    s = np.array([[1.0, -2.0, 3.5, 1e9, -1e-9, 0.0]])
    assert same_bits(featurize([StepSignal(s)]), numpy_features(s)[None, :])


@st.composite
def signal_batches(draw):
    """Up to 12 signals over at most four lengths, so most lengths repeat;
    one signal has a channel of -0.0 only."""
    lengths = draw(st.lists(st.integers(1, 200), min_size=1, max_size=4))
    batch = [draw(signal_samples(n=draw(st.sampled_from(lengths)))) for _ in range(draw(st.integers(1, 12)))]
    batch[draw(st.integers(0, len(batch) - 1))][:, draw(st.integers(0, 5))] = -0.0
    return batch


@settings(max_examples=100, deadline=None)
@given(signal_batches())
def test_batched_featurize_matches_each_signal_s_numpy_features_bit_for_bit(batch):
    got = featurize([StepSignal(s) for s in batch])
    assert same_bits(got, np.stack([numpy_features(s) for s in batch]))


def test_featurize_keeps_the_sign_of_a_zero_extreme():
    # a channel of 0.0 and -0.0 whose minimum or maximum is a zero: a
    # reduction in another order than a lone signal's may reach the other
    # zero, as these channels do over a contiguous copy
    s = np.ones((10, 6))
    s[:, 0] = [0.0, 1.0, 1.0, 1.0, -0.0, -0.0, 1.0, 0.0, -0.0, 1.0]
    s[:, 1] = -s[:, 0]
    s[:9, 2] = [0.0, 0.0, -0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0]
    s[:9, 3] = [0.0, 0.0, 0.0, -1.0, 0.0, -0.0, -1.0, -0.0, -0.0]
    batch = [s, s[::-1].copy(), np.ones((10, 6))]
    assert same_bits(featurize([StepSignal(b) for b in batch]), np.stack([numpy_features(b) for b in batch]))


def reference_softmax_rows(z):
    """The row softmax through z.max(axis=1)."""
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


logits = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300]), st.floats(-1e3, 1e3))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda b: st.integers(1, 9).flatmap(lambda c: arrays(np.float64, (b, c), elements=logits))))
def test_softmax_rows_matches_the_max_reduction_bit_for_bit(z):
    assert same_bits(_softmax_rows(z), reference_softmax_rows(z))


@pytest.mark.parametrize("z", [
    [[2.0, 2.0, -1.0, 2.0]],  # one row, a three-way tie at the top
    [[1e300], [-1e300], [0.0], [-0.0]],  # one column
    [[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]],  # signed zeros tied at the top
    [[1e300, -1e300, 1e300, 0.0], [-1e300, -1e300, -1e300, -1e300]],
])
def test_softmax_rows_edge_cases_match_the_max_reduction_bit_for_bit(z):
    z = np.array(z)
    assert same_bits(_softmax_rows(z), reference_softmax_rows(z))


def loss_and_grad(weights, bias, features, labels, n_classes: int):
    """Mean cross-entropy of the logistic model and its analytic gradients,
    through the classifier's own _softmax_rows and _cross_entropy_grad.

    features is (B, F) already standardized, labels an int vector (B,).
    Returns (loss, d_weights, d_bias).
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    probs = _softmax_rows(features @ weights.T + bias)
    loss = -np.mean(np.log(probs[np.arange(len(labels)), labels]))
    return float(loss), *_cross_entropy_grad(probs, features, np.eye(n_classes)[labels])


def reference_loss_and_grad(weights, bias, features, labels):
    """The gradient through a copy of the probabilities, fancy-indexed."""
    logits = features @ weights.T + bias
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    b = len(labels)
    loss = -np.mean(np.log(probs[np.arange(b), labels]))
    delta = probs.copy()
    delta[np.arange(b), labels] -= 1.0
    delta /= b
    return float(loss), delta.T @ features, delta.sum(axis=0)


def reference_train(signals, labels, n_classes, seed):
    """Training that evaluates the loss every epoch, as a check would."""
    feats = np.stack([numpy_features(s.samples) for s in signals])
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std[std < 1e-12] = 1.0
    x = (feats - mean) / std
    rng = np.random.default_rng(seed)
    w = 0.01 * rng.standard_normal((n_classes, x.shape[1]))
    b = np.zeros(n_classes)
    for _ in range(EPOCHS):
        _, dw, db = reference_loss_and_grad(w, b, x, labels)
        w -= LEARNING_RATE * dw
        b -= LEARNING_RATE * db
    return w, b, mean, std


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 8), st.integers(0, 2**32), st.integers(0, 2**32))
def test_loss_and_grad_match_the_fancy_indexed_gradient_bit_for_bit(b, c, data_seed, label_seed):
    rng = np.random.default_rng(data_seed)
    w, bias, x = rng.standard_normal((c, 5)), rng.standard_normal(c), rng.standard_normal((b, 5))
    y = np.random.default_rng(label_seed).integers(0, c, b)
    got, want = loss_and_grad(w, bias, x, y, c), reference_loss_and_grad(w, bias, x, y)
    assert all(same_bits(g, r) for g, r in zip(got, want))


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 6), st.integers(0, 1000), st.integers(0, 1000))
def test_training_matches_the_loss_evaluating_loop_bit_for_bit(per_class, data_seed, seed):
    sigs, labels = make_training_set(per_class=per_class, seed=data_seed)
    labels = np.asarray(labels)
    model = baseline_train(sigs, labels, N_TERRAIN_CLASSES, seed=seed)
    want = reference_train(sigs, labels, N_TERRAIN_CLASSES, seed)
    got = (model.weights, model.bias, model.feat_mean, model.feat_std)
    assert all(same_bits(g, r) for g, r in zip(got, want))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_experiment_classifier_matches_the_loss_evaluating_loop_bit_for_bit(seed):
    # the classifier each experiment seed trains, on its full training set
    sigs, labels = make_training_set(TRAIN_PER_CLASS, seed + TRAIN_SEED_OFFSET)
    model = train_contact_classifier(seed)
    want = reference_train(sigs, np.asarray(labels), N_TERRAIN_CLASSES, seed + TRAIN_SEED_OFFSET)
    got = (model.weights, model.bias, model.feat_mean, model.feat_std)
    assert all(same_bits(g, r) for g, r in zip(got, want))


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
        baseline_train(sigs, [0, 1], 8)
    with pytest.raises(ValueError):
        baseline_train([], [], 8)
    with pytest.raises(ValueError):
        baseline_train(sigs, [9], n_classes=8)


def test_train_checks_each_label_as_given():
    # an int cast first trained the 1.7 as class 1
    sigs = [StepSignal(np.random.default_rng(i).normal(size=(10, 6))) for i in range(3)]
    with pytest.raises(ValueError) as err:
        baseline_train(sigs, [0, 1.7, 2], n_classes=3)
    assert str(err.value) == "class id 1.7 at index (1,) is not an integer in [0, 3)"
    # integral float labels train bit for bit as their ints
    a, b = baseline_train(sigs, [0.0, 1.0, 2.0], 3), baseline_train(sigs, [0, 1, 2], 3)
    assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)


def test_train_is_deterministic():
    sigs, labels = make_training_set(per_class=6, seed=3)
    labels = np.asarray(labels)
    a = baseline_train(sigs, labels, N_TERRAIN_CLASSES, seed=5)
    b = baseline_train(sigs, labels, N_TERRAIN_CLASSES, seed=5)
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
    model = baseline_train([sigs[i] for i in tr], labels[tr], N_TERRAIN_CLASSES, seed=0)
    probs = baseline_predict(model, [sigs[i] for i in te])
    acc = float(np.mean(np.argmax(probs, axis=1) == labels[te]))
    assert acc >= 0.9
    assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    # the classifier interface: predict(signals) -> (K, C) probs
    assert np.array_equal(model.predict([sigs[te[0]]]), probs[:1])
