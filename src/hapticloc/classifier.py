"""Summary-feature terrain classification baseline.

A contact signal is reduced to 24 features (per-channel mean, std, min, max)
and classified with multinomial logistic regression trained by full-batch
gradient descent on the cross-entropy loss. Training runs the gradient only
(_cross_entropy_grad, against a one-hot label matrix built once); it never
evaluates the loss itself, which only the tests do, to check the gradient.
Deterministic given a seed.

A terrain classifier is anything with predict(signals) -> (K, C) class
probabilities, one row per signal of the sequence, as this baseline has. It
labels a whole walk in one batch, and each row is bit for bit what the signal
alone would get.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import check_class_ids


@dataclass(frozen=True)
class StepSignal:
    """One contact's force/torque recording, samples (length, 6): a finite, read-only copy."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 6 or len(samples) == 0:
            raise ValueError(f"signal samples must be (length>=1, 6), got {samples.shape}")
        if not np.isfinite(samples).all():
            raise ValueError("signal contains non-finite samples")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)


def featurize(signals) -> np.ndarray:
    """(K, 24), one row per signal: channel means, population stds, minima,
    maxima, in that order.

    The signals of one length are reduced as one (n, L, 6) stack over its
    samples, which sums each channel in the order a lone signal does. Minima
    and maxima reduce a contiguous (n, 6, L) copy instead, many times faster
    and exact in any order, but for the sign of a zero extreme: where one
    is zero, the group reduces the stack as the sums do.
    """
    signals = list(signals)
    by_length = {}
    for i, signal in enumerate(signals):
        by_length.setdefault(len(signal.samples), []).append(i)
    feats = np.empty((len(signals), 24))
    for length, rows in by_length.items():
        s = np.stack([signals[i].samples for i in rows])
        mean = s.mean(axis=1)
        # np.std's own arithmetic, from the mean already at hand
        std = np.sqrt(((s - mean[:, None, :]) ** 2).sum(axis=1) / length)
        by_channel = s.transpose(0, 2, 1).copy()
        low, high = by_channel.min(axis=2), by_channel.max(axis=2)
        # a channel holding 0.0 and -0.0 may reach either zero in another order
        if not (low.all() and high.all()):
            low, high = s.min(axis=1), s.max(axis=1)
        feats[rows] = np.concatenate([mean, std, low, high], axis=1)
    return feats


def _softmax_rows(z):
    # the row maximum as a running maximum over the few columns: exact in any
    # order, and far cheaper than z.max(axis=1)
    top = z[:, 0].copy()
    for j in range(1, z.shape[1]):
        np.maximum(top, z[:, j], out=top)
    z = z - top[:, None]
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy_grad(probs, features, one_hot):
    """(d_weights, d_bias) of the mean cross-entropy, from the model's class
    probabilities (B, C), which it overwrites, and the one-hot labels (B, C)."""
    delta = np.subtract(probs, one_hot, out=probs)
    delta /= len(delta)
    return delta.T @ features, delta.sum(axis=0)


@dataclass
class LogisticBaseline:
    """Trained multinomial logistic regression over standardized features."""

    weights: np.ndarray
    bias: np.ndarray
    feat_mean: np.ndarray
    feat_std: np.ndarray

    @property
    def n_classes(self) -> int:
        return len(self.bias)

    def standardize(self, features) -> np.ndarray:
        return (np.asarray(features, dtype=float) - self.feat_mean) / self.feat_std

    def predict(self, signals) -> np.ndarray:
        return baseline_predict(self, signals)


# full-batch gradient descent: step size and number of steps
LEARNING_RATE = 0.5
EPOCHS = 400


def baseline_train(signals, labels, n_classes: int, seed: int = 0) -> LogisticBaseline:
    """Fit the baseline on labeled signals with full-batch gradient descent;
    each label is a class id of n_classes, checked by maps.check_class_ids."""
    if len(signals) != len(labels) or len(labels) == 0:
        raise ValueError("need equally many signals and labels, at least one")
    labels = check_class_ids(labels, n_classes)
    feats = featurize(signals)
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std[std < 1e-12] = 1.0
    x = (feats - mean) / std

    rng = np.random.default_rng(seed)
    w = 0.01 * rng.standard_normal((n_classes, x.shape[1]))
    b = np.zeros(n_classes)
    one_hot = np.eye(n_classes)[labels]
    for _ in range(EPOCHS):
        dw, db = _cross_entropy_grad(_softmax_rows(x @ w.T + b), x, one_hot)
        w -= LEARNING_RATE * dw
        b -= LEARNING_RATE * db
    return LogisticBaseline(w, b, mean, std)


def baseline_predict(model: LogisticBaseline, signals) -> np.ndarray:
    """(K, C) class probabilities, one row per signal."""
    x = model.standardize(featurize(signals))
    # K stacked (1, 24) @ (24, C) products give each row's logits bit for bit
    # as the signal alone gets them; one (K, 24) @ (24, C) product may not
    return _softmax_rows((x[:, None, :] @ model.weights.T)[:, 0, :] + model.bias)
