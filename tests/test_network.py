"""Forward-pass components against independent oracles.

The conv oracle is a plain quadruple loop (and a scipy.signal cross-check), the
GRU oracle recomputes every gate, batch-norm against its closed form. Mask
invariance is checked on small cases here; the randomized sweep lives in the
acceptance suite.
"""

import math

import numpy as np
import pytest
import scipy.signal

from hapticloc.network import (
    NetworkConfig,
    NetworkWeights,
    _bidir_layer,
    _bn_inference,
    _conv1d_same,
    _elu,
    _gru_pass,
    _valid_after_stride,
    expected_tensor_shapes,
    forward,
    load_weights,
    parse_architecture,
    save_weights,
)

SMALL = NetworkConfig(in_channels=6, res_channels=(8, 12), kernel=5, gru_hidden=10, fc_hidden=7, n_classes=8)


def random_weights(cfg: NetworkConfig, seed: int = 0) -> NetworkWeights:
    """Deterministic random initialization: the network the tests run."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in expected_tensor_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gamma":
            tensors[name] = 1.0 + 0.1 * rng.standard_normal(shape)
        elif leaf == "var":
            tensors[name] = rng.uniform(0.5, 1.5, shape)
        elif leaf in ("beta", "mean"):
            tensors[name] = 0.1 * rng.standard_normal(shape)
        elif leaf == "bias":
            tensors[name] = 0.01 * rng.standard_normal(shape)
        elif leaf in ("w_ih", "w_hh"):
            bound = 1.0 / math.sqrt(shape[-1])
            tensors[name] = rng.uniform(-bound, bound, shape)
        else:  # conv / fc weight
            fan_in = int(np.prod(shape[1:]))
            fan_out = shape[0]
            std = math.sqrt(2.0 / (fan_in + fan_out))
            tensors[name] = std * rng.standard_normal(shape)
    return NetworkWeights(cfg, tensors)


def conv_same_loop(x, w, b, stride):
    t_len, c_in = x.shape
    c_out, _, k = w.shape
    pad = k // 2
    out = np.zeros((t_len, c_out))
    for t in range(t_len):
        for o in range(c_out):
            acc = b[o]
            for c in range(c_in):
                for kk in range(k):
                    ti = t + kk - pad
                    if 0 <= ti < t_len:
                        acc += x[ti, c] * w[o, c, kk]
            out[t, o] = acc
    return out[::stride] if stride > 1 else out


def test_conv1d_same_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for stride in (1, 2):
        x = rng.standard_normal((13, 3))
        w = rng.standard_normal((4, 3, 5))
        b = rng.standard_normal(4)
        got = _conv1d_same(x, w, b, stride)
        want = conv_same_loop(x, w, b, stride)
        assert got.shape == want.shape
        assert np.allclose(got, want, atol=1e-12, rtol=0.0)


def test_conv1d_same_matches_scipy_correlate():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 2))
    w = rng.standard_normal((3, 2, 5))
    b = rng.standard_normal(3)
    got = _conv1d_same(x, w, b, stride=1)
    want = np.stack(
        [
            sum(scipy.signal.correlate(x[:, c], w[o, c], mode="same") for c in range(2)) + b[o]
            for o in range(3)
        ],
        axis=1,
    )
    assert np.allclose(got, want, atol=1e-10, rtol=0.0)


def test_bn_inference_closed_form():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 4))
    w = {
        "p.gamma": rng.standard_normal(4),
        "p.beta": rng.standard_normal(4),
        "p.mean": rng.standard_normal(4),
        "p.var": rng.uniform(0.5, 2.0, 4),
    }
    got = _bn_inference(x, w, "p")
    want = (x - w["p.mean"]) / np.sqrt(w["p.var"] + 1e-5) * w["p.gamma"] + w["p.beta"]
    assert np.allclose(got, want, atol=1e-14, rtol=0.0)


def test_elu_definition():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 3.0])
    want = np.where(x > 0, x, np.exp(x) - 1.0)
    assert np.allclose(_elu(x), want, atol=1e-15, rtol=0.0)


def test_valid_after_stride_is_ceil():
    for n in range(1, 20):
        assert _valid_after_stride(n, 2) == -(-n // 2)
        assert _valid_after_stride(n, 2) == int(np.ceil(n / 2))


def gru_oracle(xs, w_ih, w_hh, b):
    h = np.zeros(w_hh.shape[1])
    out = []
    for x in xs:
        gi = w_ih @ x + b
        gh = w_hh @ h
        n_h = len(h)
        r = 1.0 / (1.0 + np.exp(-(gi[:n_h] + gh[:n_h])))
        z = 1.0 / (1.0 + np.exp(-(gi[n_h : 2 * n_h] + gh[n_h : 2 * n_h])))
        cand = np.tanh(gi[2 * n_h :] + r * gh[2 * n_h :])
        h = (1.0 - z) * cand + z * h
        out.append(h.copy())
    return np.array(out)


def test_gru_pass_matches_gate_oracle():
    rng = np.random.default_rng(3)
    t_len, d_in, h = 9, 5, 4
    xs = rng.standard_normal((t_len, d_in))
    w_ih = rng.standard_normal((3 * h, d_in))
    w_hh = rng.standard_normal((3 * h, h))
    b = rng.standard_normal(3 * h)
    got = _gru_pass(xs, w_ih, w_hh, b)
    want = gru_oracle(xs, w_ih, w_hh, b)
    assert got.shape == (t_len, h)
    assert np.allclose(got, want, atol=1e-12, rtol=0.0)


def test_bidir_layer_consistent_with_single_passes():
    net = random_weights(SMALL, seed=4)
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((7, 12))
    per_step, h_fwd, h_bwd = _bidir_layer(xs, net, "gru1")
    fwd = _gru_pass(xs, net["gru1.fwd.w_ih"], net["gru1.fwd.w_hh"], net["gru1.fwd.bias"])
    bwd = _gru_pass(xs[::-1], net["gru1.bwd.w_ih"], net["gru1.bwd.w_hh"], net["gru1.bwd.bias"])
    assert np.array_equal(per_step, np.concatenate([fwd, bwd[::-1]], axis=1))
    assert np.array_equal(h_fwd, fwd[-1])
    assert np.array_equal(h_bwd, bwd[-1])


def test_architecture_string_round_trip():
    for cfg in (SMALL, NetworkConfig()):
        assert parse_architecture(cfg.architecture()) == cfg
    for bad in ("", "in6-softmax", "in6-res8s2-bigru10x2-fc7-fc8-sigmoid", "res8s2-in6-bigru1x2-fc1-fc1-softmax"):
        with pytest.raises(ValueError):
            parse_architecture(bad)


def test_config_validation_and_min_length():
    assert NetworkConfig().min_length == 4
    assert NetworkConfig(res_channels=(8,)).min_length == 2
    with pytest.raises(ValueError):
        NetworkConfig(res_channels=())
    with pytest.raises(ValueError):
        NetworkConfig(kernel=4)


def test_random_weights_deterministic():
    a = random_weights(SMALL, seed=9)
    b = random_weights(SMALL, seed=9)
    c = random_weights(SMALL, seed=10)
    for name in a.tensors:
        assert np.array_equal(a[name], b[name])
    assert any(not np.array_equal(a[name], c[name]) for name in a.tensors)


def test_weights_validation():
    good = random_weights(SMALL, seed=0)
    tensors = dict(good.tensors)
    del tensors["fc2.bias"]
    with pytest.raises(ValueError, match="missing"):
        NetworkWeights(SMALL, tensors)
    tensors = dict(good.tensors)
    tensors["bogus"] = np.zeros(3)
    with pytest.raises(ValueError, match="unexpected"):
        NetworkWeights(SMALL, tensors)
    tensors = dict(good.tensors)
    tensors["fc2.bias"] = np.zeros(5)
    with pytest.raises(ValueError, match="shape"):
        NetworkWeights(SMALL, tensors)


def test_weights_reject_a_non_finite_tensor():
    tensors = dict(random_weights(SMALL, seed=0).tensors)
    tensors["fc2.bias"] = tensors["fc2.bias"].copy()
    tensors["fc2.bias"][3] = np.nan
    with pytest.raises(ValueError, match="tensor fc2.bias holds non-finite values"):
        NetworkWeights(SMALL, tensors)


def test_weights_file_round_trip(tmp_path):
    net = random_weights(SMALL, seed=1)
    p = tmp_path / "w.net"
    save_weights(net, p)
    loaded = load_weights(p)
    assert loaded.config == SMALL
    for name in net.tensors:
        assert np.array_equal(loaded[name], net[name])
    rng = np.random.default_rng(0)
    sig = rng.standard_normal((24, 6))
    assert np.array_equal(forward(net, sig), forward(loaded, sig))


def test_weights_file_errors(tmp_path):
    p = tmp_path / "bad.net"
    p.write_text("NOTNET 1 in6-res8s2-bigru10x2-fc7-fc8-softmax\n")
    with pytest.raises(ValueError, match=":1:"):
        load_weights(p)
    p.write_text("HAPTICNET 1 in6-res8s2-bigru10x2-fc7-fc8-softmax\nnottensor x 1 3\n0 0 0\n")
    with pytest.raises(ValueError, match=":2:"):
        load_weights(p)
    p.write_text("HAPTICNET 1 in6-res8s2-bigru10x2-fc7-fc8-softmax\ntensor fc2.bias 1 8\n0 0 0\n")
    with pytest.raises(ValueError, match="fc2.bias"):
        load_weights(p)


def test_forward_outputs_probabilities():
    net = random_weights(SMALL, seed=2)
    rng = np.random.default_rng(6)
    p = forward(net, rng.standard_normal((40, 6)))
    assert p.shape == (8,)
    assert np.all(p > 0.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_forward_validation_errors():
    net = random_weights(SMALL, seed=2)
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        forward(net, rng.standard_normal((10, 5)))
    with pytest.raises(ValueError):
        forward(net, rng.standard_normal((10, 6)), valid_len=0)
    with pytest.raises(ValueError):
        forward(net, rng.standard_normal((10, 6)), valid_len=11)
    with pytest.raises(ValueError, match="signal too short"):
        forward(net, rng.standard_normal((3, 6)))
    sig = rng.standard_normal((10, 6))
    sig[2, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        forward(net, sig)


def test_forward_accepts_minimum_length():
    net = random_weights(SMALL, seed=2)
    p = forward(net, np.random.default_rng(8).standard_normal((4, 6)))
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_mask_invariance_small_cases():
    net = random_weights(SMALL, seed=3)
    rng = np.random.default_rng(9)
    for length in (4, 5, 17, 32):
        sig = rng.standard_normal((length, 6))
        base = forward(net, sig)
        for pad_to in (2 * length, 4 * length + 3):
            buf = np.full((pad_to, 6), np.nan)  # padding must never be read
            buf[:length] = sig
            padded = forward(net, buf, valid_len=length)
            assert np.max(np.abs(padded - base)) < 1e-12
