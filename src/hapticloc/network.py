"""Forward pass of the force-signal terrain classifier.

The network consumes variable-length 6-channel force/torque sequences. Buffers
may be longer than the signal they hold: a contiguous valid prefix of length L
is processed and everything past it is masked out at every stage, so the output
for a signal is identical whether or not the buffer carries trailing padding.

Architecture: two residual conv layers (kernel 5, stride 2, masked batch-norm
and ELU, dropout inert at inference), two bidirectional GRU layers, the mean of
the last layer's two final hidden states, two fully connected layers, softmax.

Weights live in a self-describing text file:

    HAPTICNET 1 <architecture-string>
    tensor <name> <ndim> <dim0> <dim1> ...
    <values, whitespace separated>
    ...

It is read with fields.parse_field: a field that does not parse, or is not
finite, raises an error naming the file, the line and the field.
NetworkWeights rejects a non-finite tensor however it is built.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fields import build, parse_field, positive_int

_BN_EPS = 1e-5


@dataclass(frozen=True)
class NetworkConfig:
    in_channels: int = 6
    res_channels: tuple = (64, 128)
    kernel: int = 5
    gru_hidden: int = 128
    fc_hidden: int = 64
    n_classes: int = 8

    def __post_init__(self):
        if len(self.res_channels) < 1:
            raise ValueError("need at least one residual conv layer")
        if self.kernel % 2 != 1:
            raise ValueError("conv kernel must be odd for same-padding")

    @property
    def min_length(self) -> int:
        # each residual layer halves the sequence once
        return 2 ** len(self.res_channels)

    def architecture(self) -> str:
        res = "-".join(f"res{c}s2" for c in self.res_channels)
        return (
            f"in{self.in_channels}-{res}-bigru{self.gru_hidden}x2-"
            f"fc{self.fc_hidden}-fc{self.n_classes}-softmax"
        )


def parse_architecture(s: str) -> NetworkConfig:
    tokens = s.split("-")
    if len(tokens) < 6 or tokens[-1] != "softmax":
        raise ValueError(f"unrecognized architecture string {s!r}")
    m_in = re.fullmatch(r"in(\d+)", tokens[0])
    m_gru = re.fullmatch(r"bigru(\d+)x2", tokens[-4])
    m_fc1 = re.fullmatch(r"fc(\d+)", tokens[-3])
    m_fc2 = re.fullmatch(r"fc(\d+)", tokens[-2])
    res = [re.fullmatch(r"res(\d+)s2", t) for t in tokens[1:-4]]
    if not (m_in and m_gru and m_fc1 and m_fc2) or not res or any(r is None for r in res):
        raise ValueError(f"unrecognized architecture string {s!r}")
    return NetworkConfig(
        in_channels=int(m_in.group(1)),
        res_channels=tuple(int(r.group(1)) for r in res),
        gru_hidden=int(m_gru.group(1)),
        fc_hidden=int(m_fc1.group(1)),
        n_classes=int(m_fc2.group(1)),
    )


def expected_tensor_shapes(cfg: NetworkConfig) -> dict:
    """Names and shapes of every tensor the forward pass reads."""
    shapes = {}
    c_in = cfg.in_channels
    for i, c_out in enumerate(cfg.res_channels, start=1):
        p = f"res{i}"
        shapes[f"{p}.conv1.weight"] = (c_out, c_in, cfg.kernel)
        shapes[f"{p}.conv1.bias"] = (c_out,)
        shapes[f"{p}.conv2.weight"] = (c_out, c_out, cfg.kernel)
        shapes[f"{p}.conv2.bias"] = (c_out,)
        shapes[f"{p}.skip.weight"] = (c_out, c_in, 1)
        shapes[f"{p}.skip.bias"] = (c_out,)
        for b in ("bn1", "bn2"):
            for stat in ("gamma", "beta", "mean", "var"):
                shapes[f"{p}.{b}.{stat}"] = (c_out,)
        c_in = c_out
    h = cfg.gru_hidden
    gru_in = c_in
    for l in (1, 2):
        for d in ("fwd", "bwd"):
            p = f"gru{l}.{d}"
            shapes[f"{p}.w_ih"] = (3 * h, gru_in)
            shapes[f"{p}.w_hh"] = (3 * h, h)
            shapes[f"{p}.bias"] = (3 * h,)
        gru_in = 2 * h
    shapes["fc1.weight"] = (cfg.fc_hidden, h)
    shapes["fc1.bias"] = (cfg.fc_hidden,)
    for stat in ("gamma", "beta", "mean", "var"):
        shapes[f"fc1.bn.{stat}"] = (cfg.fc_hidden,)
    shapes["fc2.weight"] = (cfg.n_classes, cfg.fc_hidden)
    shapes["fc2.bias"] = (cfg.n_classes,)
    return shapes


@dataclass
class NetworkWeights:
    config: NetworkConfig
    tensors: dict

    def __post_init__(self):
        expected = expected_tensor_shapes(self.config)
        missing = sorted(set(expected) - set(self.tensors))
        extra = sorted(set(self.tensors) - set(expected))
        if missing or extra:
            raise ValueError(f"weight tensor set mismatch: missing {missing}, unexpected {extra}")
        for name, shape in expected.items():
            t = np.asarray(self.tensors[name], dtype=float)
            if t.shape != shape:
                raise ValueError(f"tensor {name} has shape {t.shape}, expected {shape}")
            if not np.isfinite(t).all():
                raise ValueError(f"tensor {name} holds non-finite values")
            self.tensors[name] = t

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    @property
    def n_classes(self) -> int:
        return self.config.n_classes

    def predict(self, signals) -> np.ndarray:
        """(K, C) class probabilities for a sequence of StepSignals: the
        classifier interface the logistic baseline shares (classifier.py)."""
        return np.stack([forward(self, signal.samples) for signal in signals])


def save_weights(net: NetworkWeights, path) -> None:
    with open(path, "w") as f:
        f.write(f"HAPTICNET 1 {net.config.architecture()}\n")
        for name in sorted(net.tensors):
            t = net.tensors[name]
            dims = " ".join(str(d) for d in t.shape)
            f.write(f"tensor {name} {t.ndim} {dims}\n")
            f.write(" ".join(format(v, ".17g") for v in t.ravel()) + "\n")


def load_weights(path) -> NetworkWeights:
    with open(path) as f:
        lines = f.read().split("\n")
    header = lines[0].split(maxsplit=2)
    if header[:2] != ["HAPTICNET", "1"] or len(header) != 3:
        raise ValueError(f"{path}:1: expected 'HAPTICNET 1 <architecture>' header")
    cfg = parse_field(header[2].strip(), parse_architecture, f"{path}:1", "architecture")
    tensors = {}
    i = 1
    while i < len(lines):
        where, parts = f"{path}:{i + 1}", lines[i].split()
        i += 1
        if not parts:
            continue
        if parts[0] != "tensor" or len(parts) < 3:
            raise ValueError(f"{where}: expected 'tensor <name> <ndim> <dims...>'")
        name, ndim = parts[1], parse_field(parts[2], int, where, "ndim")
        if name in tensors:
            raise ValueError(f"{where}: tensor {name} listed twice")
        if len(parts) != 3 + ndim:
            raise ValueError(f"{where}: tensor {name} declares {ndim} dims, header lists {len(parts) - 3}")
        shape = tuple(parse_field(d, positive_int, where, f"dim{k}") for k, d in enumerate(parts[3:]))
        count, vals = math.prod(shape), []
        while i < len(lines) and len(vals) < count:
            for text in lines[i].split():
                vals.append(parse_field(text, float, f"{path}:{i + 1}", f"{name}[{len(vals)}]"))
            i += 1
        if len(vals) != count:
            raise ValueError(f"{path}: tensor {name} expects {count} values, found {len(vals)}")
        tensors[name] = np.reshape(vals, shape)
    if not tensors:
        raise ValueError(f"{path}: weights file has no tensors")
    return build(path, NetworkWeights, cfg, tensors)


def _conv1d_same(x, w, b, stride: int = 1) -> np.ndarray:
    """Same-padded 1D convolution over axis 0; x is (T, C_in), w is (C_out, C_in, K)."""
    k = w.shape[2]
    pad = k // 2
    if pad:
        xp = np.zeros((x.shape[0] + 2 * pad, x.shape[1]))
        xp[pad:-pad] = x
    else:
        xp = x
    win = sliding_window_view(xp, k, axis=0)
    y = np.einsum("tck,ock->to", win, w, optimize=True) + b
    return y[::stride] if stride > 1 else y


def _bn_inference(x, w, prefix: str) -> np.ndarray:
    g, b = w[f"{prefix}.gamma"], w[f"{prefix}.beta"]
    m, v = w[f"{prefix}.mean"], w[f"{prefix}.var"]
    return (x - m) / np.sqrt(v + _BN_EPS) * g + b


def _elu(x) -> np.ndarray:
    return np.where(x > 0.0, x, np.expm1(x))


def _logistic(x) -> np.ndarray:
    """1 / (1 + exp(-x)) through tanh, which neither overflows nor warns
    at any finite x."""
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def _valid_after_stride(length: int, stride: int) -> int:
    return -(-length // stride)


def _masked_conv_block(x, valid: int, w, prefix: str, stride: int, activate: bool):
    """conv -> batch-norm -> (dropout, inert) -> ELU, masked past the valid prefix."""
    x = x.copy()
    x[valid:] = 0.0
    y = _conv1d_same(x, w[f"{prefix}.weight"], w[f"{prefix}.bias"], stride)
    out_valid = _valid_after_stride(valid, stride)
    y = _bn_inference(y, w, prefix.rsplit(".", 1)[0] + "." + ("bn1" if prefix.endswith("conv1") else "bn2"))
    if activate:
        y = _elu(y)
    y[out_valid:] = 0.0
    return y, out_valid


def _res_layer(x, valid: int, w, prefix: str):
    """Two masked conv blocks with a stride-2 kernel-1 projection skip path."""
    h, v1 = _masked_conv_block(x, valid, w, f"{prefix}.conv1", stride=2, activate=True)
    h, _ = _masked_conv_block(h, v1, w, f"{prefix}.conv2", stride=1, activate=False)
    xm = x.copy()
    xm[valid:] = 0.0
    s = _conv1d_same(xm, w[f"{prefix}.skip.weight"], w[f"{prefix}.skip.bias"], stride=2)
    y = _elu(h + s)
    y[v1:] = 0.0
    return y, v1


def _gru_pass(xs, w_ih, w_hh, bias) -> np.ndarray:
    """Single-direction GRU from a zero initial hidden state; returns all states."""
    t_len, h_len = len(xs), w_hh.shape[1]
    gi = xs @ w_ih.T + bias
    hs = np.empty((t_len, h_len))
    h = np.zeros(h_len)
    for t in range(t_len):
        gh = w_hh @ h
        r = _logistic(gi[t, :h_len] + gh[:h_len])
        z = _logistic(gi[t, h_len : 2 * h_len] + gh[h_len : 2 * h_len])
        cand = np.tanh(gi[t, 2 * h_len :] + r * gh[2 * h_len :])
        h = (1.0 - z) * cand + z * h
        hs[t] = h
    return hs


def _bidir_layer(xs, w, prefix: str):
    fwd = _gru_pass(xs, w[f"{prefix}.fwd.w_ih"], w[f"{prefix}.fwd.w_hh"], w[f"{prefix}.fwd.bias"])
    bwd = _gru_pass(xs[::-1], w[f"{prefix}.bwd.w_ih"], w[f"{prefix}.bwd.w_hh"], w[f"{prefix}.bwd.bias"])
    per_step = np.concatenate([fwd, bwd[::-1]], axis=1)
    return per_step, fwd[-1], bwd[-1]


def forward(net: NetworkWeights, samples, valid_len: int | None = None) -> np.ndarray:
    """Class probabilities for one signal.

    samples is (P, in_channels); the signal occupies the first valid_len rows
    (all of them when valid_len is None) and anything past that is padding with
    no effect on the output.
    """
    cfg = net.config
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != cfg.in_channels:
        raise ValueError(f"signal must be (length, {cfg.in_channels}), got {samples.shape}")
    valid = samples.shape[0] if valid_len is None else int(valid_len)
    if not 0 < valid <= samples.shape[0]:
        raise ValueError(f"valid length {valid} outside the buffer of {samples.shape[0]} samples")
    if valid < cfg.min_length:
        raise ValueError(
            f"signal too short: {valid} samples, the conv stack needs at least {cfg.min_length}"
        )
    if not np.isfinite(samples[:valid]).all():
        raise ValueError("signal contains non-finite samples")

    x = np.zeros_like(samples)
    x[:valid] = samples[:valid]
    for i in range(len(cfg.res_channels)):
        x, valid = _res_layer(x, valid, net, f"res{i + 1}")

    x = x[:valid]
    x, _, _ = _bidir_layer(x, net, "gru1")
    _, h_fwd, h_bwd = _bidir_layer(x, net, "gru2")
    h = 0.5 * (h_fwd + h_bwd)

    h = _elu(_bn_inference(h @ net["fc1.weight"].T + net["fc1.bias"], net, "fc1.bn"))
    logits = h @ net["fc2.weight"].T + net["fc2.bias"]
    logits = logits - logits.max()
    p = np.exp(logits)
    return p / p.sum()
