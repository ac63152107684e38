"""Network layers vs. naive convolution and finite-difference oracles."""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risopt import cnn
from risopt.cnn import (
    DEFAULT_CHANNELS,
    DEFAULT_KERNELS,
    SIGN_MARGIN,
    AdamState,
    ConvLayer,
    Model,
    TrainConfig,
    adam_step,
    load_model,
    make_model,
    model_backward,
    model_forward,
    mse_loss,
    pm1_to_states,
    predict_config,
    save_model,
    states_to_pm1,
    stripe_image,
    stripe_states,
    train,
)
from oracles import expand_stripe, num_parameters, serial_conv_backward, serial_conv_forward


# ---------------------------------------------------------------- oracles

def naive_conv_same(x, kernel, bias):
    """Direct convolution: loop over output positions, one window at a time."""
    kh, kw, cin, cout = kernel.shape
    h, w, _ = x.shape
    xp = np.pad(x, (((kh - 1) // 2, kh // 2), ((kw - 1) // 2, kw // 2), (0, 0)))
    out = np.zeros((h, w, cout))
    for i in range(h):
        for j in range(w):
            patch = xp[i:i + kh, j:j + kw, :]
            for o in range(cout):
                out[i, j, o] = np.sum(patch * kernel[:, :, :, o]) + bias[o]
    return out


def naive_forward_eval(model, x):
    a = x
    for layer in model.convs:  # an unseeded pass applies no dropout
        a = np.tanh(naive_conv_same(a, layer.weights, layer.bias))
    return a[:, :, 0] if a.shape[2] == 1 else a


def one_layer_forward(x, kernel, bias):
    """Unseeded output of a single conv layer, kept (H, W, cout)."""
    out = model_forward(Model([ConvLayer(kernel, bias)]), x)
    return out.reshape(x.shape[0], x.shape[1], -1)


def finite_difference_grads(model, x, target, h=1e-5):
    grads = []
    for p in model.parameters():
        g = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = mse_loss(model_forward(model, x), target)
            flat_p[i] = orig - h
            down = mse_loss(model_forward(model, x), target)
            flat_p[i] = orig
            flat_g[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


# ---------------------------------------------------------------- conv layer

def test_conv_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for kh, kw, cin, cout, h, w in [
        (3, 3, 2, 4, 6, 6),
        (5, 5, 3, 2, 8, 7),
        (1, 1, 4, 4, 5, 5),
        (3, 5, 2, 1, 9, 6),
        # every small size on non-square inputs; even sizes pad one more
        # row/column after than before
        (1, 1, 3, 2, 7, 5),
        (2, 2, 3, 2, 5, 9),
        (2, 3, 3, 2, 7, 5),
        (3, 2, 3, 2, 5, 9),
        (4, 4, 3, 2, 7, 5),
        (5, 5, 3, 2, 5, 9),
    ]:
        x = rng.standard_normal((h, w, cin))
        k = rng.standard_normal((kh, kw, cin, cout))
        b = rng.standard_normal(cout)
        got = one_layer_forward(x, k, b)
        want = np.tanh(naive_conv_same(x, k, b))
        assert got.shape == (h, w, cout)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_conv_shape_validation():
    rng = np.random.default_rng(8)
    model = Model([ConvLayer(rng.standard_normal((3, 3, 2, 4)), np.zeros(4))])
    with pytest.raises(ValueError):
        model_forward(model, rng.standard_normal((6, 6, 3)))


# ---------------------------------------------------------------- model/forward

def test_default_architecture():
    model = make_model(0, dtype=np.float64)
    convs = model.convs
    assert len(convs) == 8
    chain = [convs[0].weights.shape[2]] + [c.weights.shape[3] for c in convs]
    assert chain == [2, 4, 16, 32, 128, 64, 8, 4, 1]
    assert [c.weights.shape[0] for c in convs] == [3, 3, 3, 5, 5, 3, 3, 3]
    assert model.dropout_after == (3, 6)
    assert cnn.DROPOUT_RATE == 0.2
    assert num_parameters(model) == 317_645


def test_glorot_init_bounds_and_zero_bias():
    model = make_model(5, channels=(2, 4, 1), kernels=(3, 3), dropout_after=(), dtype=np.float64)
    for layer in model.convs:
        kh, kw, cin, cout = layer.weights.shape
        limit = np.sqrt(6.0 / (kh * kw * cin + kh * kw * cout))
        assert np.all(np.abs(layer.weights) <= limit)
        assert layer.weights.std() > 0
        np.testing.assert_array_equal(layer.bias, 0.0)


def test_zero_weight_model_outputs_zero():
    model = make_model(0, channels=(2, 3, 1), kernels=(3, 3), dropout_after=(), dtype=np.float64)
    for p in model.parameters():
        p[...] = 0.0
    out = model_forward(model, np.ones((6, 6, 2)))
    np.testing.assert_array_equal(out, np.zeros((6, 6)))


def test_eval_forward_deterministic_and_bounded():
    rng = np.random.default_rng(9)
    model = make_model(2, channels=(2, 4, 4, 1), kernels=(3, 3, 3),
                       dropout_after=(1,), dtype=np.float64)
    x = rng.standard_normal((7, 7, 2))
    a = model_forward(model, x)
    b = model_forward(model, x)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (7, 7)
    assert np.all(np.abs(a) < 1.0)


def test_forward_matches_naive_layer_stack():
    rng = np.random.default_rng(10)
    model = make_model(11, channels=(2, 4, 8, 4, 1), kernels=(3, 5, 3, 3),
                       dropout_after=(2,), dtype=np.float64)
    x = rng.standard_normal((8, 8, 2))
    got = model_forward(model, x)
    want = naive_forward_eval(model, x)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_forward_input_validation():
    model = make_model(0, channels=(2, 3, 1), kernels=(3, 5), dropout_after=(), dtype=np.float64)
    with pytest.raises(ValueError):
        model_forward(model, np.zeros((6, 6, 3)))  # wrong channel count
    with pytest.raises(ValueError):
        model_forward(model, np.zeros((4, 4, 2)))  # below largest kernel


def test_model_validation():
    conv = ConvLayer(np.zeros((3, 3, 2, 4)), np.zeros(4))
    with pytest.raises(ValueError):
        Model([])  # no conv at all
    with pytest.raises(ValueError):
        Model([conv, ConvLayer(np.zeros((3, 3, 8, 1)), np.zeros(1))])  # chain break
    for after in ((0,), (2,)):  # 1-based, and only one conv
        with pytest.raises(ValueError, match="dropout_after"):
            Model([conv], dropout_after=after)
    with pytest.raises(ValueError):
        make_model(0, channels=(2, 4), kernels=(3, 3))


# ---------------------------------------------------------------- mse

def test_mse_trivial_values():
    assert mse_loss(np.ones((3, 3)), np.ones((3, 3))) == 0.0
    target = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert mse_loss(np.zeros((2, 2)), target) == 1.0


def test_mse_matches_scalar_loop():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((5, 4))
    want = sum((a[i, j] - b[i, j]) ** 2 for i in range(5) for j in range(4)) / 20
    assert mse_loss(a, b) == pytest.approx(want, rel=1e-12)


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


# ---------------------------------------------------------------- gradients

def worst_fd_error(kernels):
    """Worst relative error of the analytic gradients of a 2-layer model."""
    rng = np.random.default_rng(14)
    model = make_model(15, channels=(2, 3, 1), kernels=kernels, dropout_after=(), dtype=np.float64)
    x = rng.standard_normal((6, 6, 2))
    target = rng.standard_normal((6, 6))
    analytic = model_backward(model, x, target)
    numeric = finite_difference_grads(model, x, target)
    worst = 0.0
    for a, f in zip(analytic, numeric):
        rel = np.abs(a - f) / np.maximum.reduce([np.abs(a), np.abs(f),
                                                 np.full_like(a, 1e-6)])
        worst = max(worst, float(rel.max()))
    return worst


def test_gradients_match_finite_differences():
    assert worst_fd_error((3, 3)) < 1e-4


@pytest.mark.parametrize("kernels", [(3, 2), (2, 4)])
def test_even_kernel_gradients_match_finite_differences(kernels):
    # an even kernel pads asymmetrically, and every layer after the first
    # has to send its input gradient back through that padding
    assert worst_fd_error(kernels) < 1e-4


def test_gradients_with_dropout_match_masked_finite_differences():
    # Same seed means the same mask, so the stochastic loss is itself a
    # deterministic function we can difference numerically.
    rng = np.random.default_rng(16)
    model = make_model(17, channels=(2, 4, 1), kernels=(3, 3), dropout_after=(1,),
                       dtype=np.float64)
    x = rng.standard_normal((6, 6, 2))
    target = rng.standard_normal((6, 6))
    seed = 3
    analytic = model_backward(model, x, target, rng_seed=seed)

    h = 1e-5
    worst = 0.0
    for pi, p in enumerate(model.parameters()):
        flat = p.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]

            def loss_at(v):
                flat[i] = v
                # training forward pass with the pinned seed
                out = model_forward(model, x, rng_seed=seed)
                flat[i] = orig
                return mse_loss(out, target)

            fd = (loss_at(orig + h) - loss_at(orig - h)) / (2 * h)
            an = analytic[pi].reshape(-1)[i]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
            worst = max(worst, rel)
    assert worst < 1e-4


def test_zero_everything_gives_zero_gradients():
    model = make_model(0, channels=(2, 3, 1), kernels=(3, 3), dropout_after=(), dtype=np.float64)
    for p in model.parameters():
        p[...] = 0.0
    grads = model_backward(model, np.zeros((6, 6, 2)), np.zeros((6, 6)))
    for g in grads:
        np.testing.assert_array_equal(g, 0.0)


def test_backward_seed_determinism():
    rng = np.random.default_rng(18)
    model = make_model(19, channels=(2, 4, 1), kernels=(3, 3), dropout_after=(1,),
                       dtype=np.float64)
    x = rng.standard_normal((6, 6, 2))
    t = rng.standard_normal((6, 6))
    g1 = model_backward(model, x, t, rng_seed=42)
    g2 = model_backward(model, x, t, rng_seed=42)
    g3 = model_backward(model, x, t, rng_seed=43)
    for a, b in zip(g1, g2):
        np.testing.assert_array_equal(a, b)
    assert any(not np.array_equal(a, b) for a, b in zip(g1, g3))


def test_unseeded_backward_is_the_dropout_free_gradient():
    # a model without dropout layers has the same gradients under any seed
    rng = np.random.default_rng(18)
    model = make_model(19, channels=(2, 4, 1), kernels=(3, 3), dropout_after=(1,),
                       dtype=np.float64)
    plain = Model(model.copy().convs)
    x = rng.standard_normal((6, 6, 2))
    t = rng.standard_normal((6, 6))
    for a, b in zip(model_backward(model, x, t), model_backward(plain, x, t, rng_seed=42)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", [None, 5])
def test_training_loss_is_mse_loss_of_the_same_pass(dtype, seed):
    rng = np.random.default_rng(23)
    model = make_model(24, channels=(2, 4, 1), kernels=(3, 3), dropout_after=(1,), dtype=dtype)
    x = rng.standard_normal((6, 6, 2)).astype(dtype)
    t = np.sign(rng.standard_normal((6, 6))).astype(dtype)
    rng = None if seed is None else np.random.default_rng(seed)
    loss, _ = cnn._loss_and_grads(model, x, t, rng)
    assert loss == mse_loss(model_forward(model, x, rng_seed=seed), t)
    with pytest.raises(ValueError, match="shape mismatch"):
        cnn._loss_and_grads(model, x, t[:5], None)


# ---------------------------------------------------------------- dropout

def test_train_mode_dropout_varies_with_seed():
    model = make_model(20, channels=(2, 4, 1), kernels=(3, 3), dropout_after=(1,),
                       dtype=np.float64)
    x = np.ones((6, 6, 2))
    a = model_forward(model, x, rng_seed=0)
    b = model_forward(model, x, rng_seed=0)
    c = model_forward(model, x, rng_seed=1)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dropout_expectation_matches_eval():
    # Linear probe (1x1 conv, tiny weights, so tanh is ~identity):
    # averaging many seeded training passes converges to the unseeded pass.
    rng = np.random.default_rng(21)
    w = np.zeros((1, 1, 2, 1))
    w[0, 0, :, 0] = 0.01
    model = Model([ConvLayer(w, np.zeros(1))], dropout_after=(1,))
    # both channels share a sign per cell so the channel sum stays away
    # from zero and the elementwise relative bound is meaningful
    x = rng.uniform(0.3, 0.5, (4, 4, 2)) * rng.choice([-1, 1], (4, 4, 1))
    ref = model_forward(model, x)
    acc = np.zeros_like(ref)
    n = 10_000
    for seed in range(n):
        acc += model_forward(model, x, rng_seed=seed)
    avg = acc / n
    assert np.all(np.abs(avg - ref) <= 0.02 * np.abs(ref))


# ---------------------------------------------------------------- adam

def test_adam_first_step_hand_computed():
    # m=0.1, m_hat=1; v=1e-3, v_hat=1 -> theta = -lr * 1/(1 + eps)
    params = [np.array(0.0)]
    state = AdamState.init(params, lr=1e-3)
    new_params, new_state = adam_step(state, params, [np.array(1.0)])
    want = -1e-3 * (1.0 / (1.0 + 1e-8))
    assert abs(float(new_params[0]) - want) < 1e-12
    assert new_state.step_count == 1
    assert float(new_state.first_moment[0]) == pytest.approx(0.1, rel=1e-15)
    assert float(new_state.second_moment[0]) == pytest.approx(1e-3, rel=1e-15)


def test_adam_second_step_hand_computed():
    params = [np.array(0.0)]
    state = AdamState.init(params, lr=1e-3)
    params, state = adam_step(state, params, [np.array(1.0)])
    params, state = adam_step(state, params, [np.array(1.0)])
    # two identical unit gradients: m_hat = v_hat = 1 at both steps
    m = 0.9 * 0.1 + 0.1 * 1.0
    v = 0.999 * 1e-3 + 1e-3 * 1.0
    m_hat = m / (1 - 0.9**2)
    v_hat = v / (1 - 0.999**2)
    want = -1e-3 * (1.0 / (1.0 + 1e-8)) - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert abs(float(params[0]) - want) < 1e-12


def test_adam_zero_gradient_keeps_params():
    params = [np.array([1.5, -2.5])]
    state = AdamState.init(params)
    new_params, _ = adam_step(state, params, [np.zeros(2)])
    np.testing.assert_array_equal(new_params[0], params[0])


def test_adam_identical_gradients_update_identically():
    params = [np.array(1.0), np.array(1.0)]
    state = AdamState.init(params, lr=0.05)
    grads = [np.array(0.3), np.array(0.3)]
    new_params, _ = adam_step(state, params, grads)
    assert float(new_params[0]) == float(new_params[1])


# ---------------------------------------------------------------- two threads

@pytest.fixture(params=[1, 2], ids=["inline", "split"])
def conv_threads(request, monkeypatch):
    """Run the conv layers inline, or split over the worker thread: the
    split case drops the size cut, so even the smallest layer uses it."""
    monkeypatch.setattr(cnn, "CONV_THREADS", request.param)
    monkeypatch.setattr(cnn, "SPLIT_MACS", 0)
    return request.param


_THREAD_CASES = [  # (kh, kw, cin, cout, h, w)
    # the default network at 40x40, layer by layer
    *[(k, k, cin, cout, 40, 40)
      for k, cin, cout in zip(DEFAULT_KERNELS, DEFAULT_CHANNELS, DEFAULT_CHANNELS[1:])],
    (3, 3, 4, 8, 7, 10),  # odd height: the two halves differ by one row
    (5, 5, 32, 16, 5, 9),  # height equal to the largest kernel
    (5, 5, 3, 2, 5, 5),
    (1, 1, 3, 2, 1, 4),  # one row: the calling thread's half is empty
    (3, 2, 3, 5, 7, 6),  # even kernels
    (2, 4, 3, 5, 6, 7),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kh, kw, cin, cout, h, w", _THREAD_CASES)
def test_conv_bit_identical_to_serial_kernel(conv_threads, dtype, kh, kw, cin, cout, h, w):
    rng = np.random.default_rng([kh, kw, cin, cout, h, w])
    x = rng.standard_normal((h, w, cin)).astype(dtype)
    weights = rng.standard_normal((kh, kw, cin, cout)).astype(dtype)
    bias = rng.standard_normal(cout).astype(dtype)
    dz = rng.standard_normal((h, w, cout)).astype(dtype)

    z, xp = cnn._conv_forward(x, weights, bias)
    want_z, want_xp = serial_conv_forward(x, weights, bias)
    assert z.dtype == dtype and np.array_equal(z, want_z)
    assert np.array_equal(xp, want_xp)
    got = cnn._conv_backward(xp, weights, dz)
    want = serial_conv_backward(want_xp, weights, dz)
    for name, g, expected in zip(("dW", "db", "dx"), got, want):
        assert g.dtype == dtype and np.array_equal(g, expected), name


@pytest.mark.parametrize("dtype, kh, kw, cin, cout, h, w", [
    *[(dtype, *case) for dtype in (np.float32, np.float64) for case in _THREAD_CASES],
    # layer 6 at 50x50, below the cut: in float32 one GEMM over all the
    # rows rounds differently from the two halves
    (np.float32, 3, 3, 64, 8, 50, 50),
])
def test_conv_bytes_do_not_depend_on_the_thread_count(monkeypatch, dtype, kh, kw, cin, cout, h, w):
    rng = np.random.default_rng([kh, kw, cin, cout, h, w, 1])
    x, dz = (rng.standard_normal(shape).astype(dtype) for shape in [(h, w, cin), (h, w, cout)])
    weights = rng.standard_normal((kh, kw, cin, cout)).astype(dtype)
    bias = rng.standard_normal(cout).astype(dtype)
    runs = []
    for threads in (1, 2):
        monkeypatch.setattr(cnn, "CONV_THREADS", threads)
        z, xp = cnn._conv_forward(x, weights, bias)
        runs.append([a.tobytes() for a in (z, xp, *cnn._conv_backward(xp, weights, dz))])
    assert runs[0] == runs[1]


def test_conv_follows_the_callers_numpy_error_state(conv_threads):
    # every row overflows, so both halves of a split see it
    x = np.full((4, 5, 1), 1e30, dtype=np.float32)
    weights = np.full((3, 3, 1, 1), 1e30, dtype=np.float32)
    bias = np.zeros(1, dtype=np.float32)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        cnn._conv_forward(x, weights, bias)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        z, _ = cnn._conv_forward(x, weights, bias)
    assert np.isinf(z).all()


def test_concurrent_callers_share_the_worker(monkeypatch):
    # more calling threads than cores, switching often, all handing halves
    # to the one worker: each must get exactly its own serial result
    monkeypatch.setattr(cnn, "CONV_THREADS", 2)
    monkeypatch.setattr(cnn, "SPLIT_MACS", 0)
    rng = np.random.default_rng(35)
    cases = []
    for h in (5, 8, 11, 14):
        x = rng.standard_normal((h, 9, 3))
        weights = rng.standard_normal((3, 5, 3, 4))
        bias = rng.standard_normal(4)
        dz = rng.standard_normal((h, 9, 4))
        z, xp = serial_conv_forward(x, weights, bias)
        cases.append(((x, weights, bias, dz), (z, *serial_conv_backward(xp, weights, dz))))
    failures = []

    def call(args, want):
        x, weights, bias, dz = args
        for _ in range(30):
            z, xp = cnn._conv_forward(x, weights, bias)
            got = (z, *cnn._conv_backward(xp, weights, dz))
            if not all(np.array_equal(g, w) for g, w in zip(got, want)):
                failures.append(x.shape)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=case) for case in cases]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def _split_forward_in_child(x, weights, bias, want, queue):
    z, _ = cnn._conv_forward(x, weights, bias)
    queue.put(bool(np.array_equal(z, want)))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_starts_its_own_worker(monkeypatch):
    # the parent's worker thread does not survive a fork; a child that
    # reused its executor would wait forever on the first split
    monkeypatch.setattr(cnn, "CONV_THREADS", 2)
    monkeypatch.setattr(cnn, "SPLIT_MACS", 0)
    rng = np.random.default_rng(37)
    x, weights, bias = rng.standard_normal((6, 5, 2)), rng.standard_normal((3, 3, 2, 3)), np.zeros(3)
    want, _ = serial_conv_forward(x, weights, bias)
    cnn._conv_forward(x, weights, bias)  # the parent's worker is running now
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_split_forward_in_child, args=(x, weights, bias, want, queue))
    child.start()
    try:
        assert queue.get(timeout=60) is True
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_training_bit_identical_inline_and_split(monkeypatch, dtype):
    rng = np.random.default_rng(31)
    x = rng.choice([-1.0, 1.0], size=(5, 9, 7, 2))
    y = rng.choice([-1.0, 1.0], size=(5, 9, 7))
    model = make_model(32, channels=(2, 4, 8, 1), kernels=(3, 5, 2),
                       dropout_after=(1,), dtype=dtype)
    cfg = TrainConfig(batch_size=2, max_epochs=2, patience=10, rng_seed=3, lr=1e-2)
    monkeypatch.setattr(cnn, "SPLIT_MACS", 0)
    runs = []
    for threads in (1, 2):
        monkeypatch.setattr(cnn, "CONV_THREADS", threads)
        trained, history = train(model, (x, y), (x[:2], y[:2]), cfg)
        runs.append(([p.tobytes() for p in trained.parameters()], history))
    assert runs[0] == runs[1]


def test_training_on_50x50_images_does_not_depend_on_the_thread_count(monkeypatch):
    # the default network at 50x50 has layers on both sides of the cut
    rng = np.random.default_rng(50)
    x = rng.choice([-1.0, 1.0], size=(4, 50, 50, 2))
    y = rng.choice([-1.0, 1.0], size=(4, 50, 50))
    model = make_model(5, dtype=np.float32)
    cfg = TrainConfig(batch_size=2, max_epochs=2, patience=10, rng_seed=5, lr=1e-3)
    runs = []
    for threads in (1, 2):
        monkeypatch.setattr(cnn, "CONV_THREADS", threads)
        trained, history = train(model, (x[:3], y[:3]), (x[3:], y[3:]), cfg)
        runs.append(([p.tobytes() for p in trained.parameters()], history))
    assert runs[0] == runs[1]


_DECIDE = """
import json, os, sys, threading
if sys.argv[1] == "one-core":
    os.sched_setaffinity(os.getpid(), {min(os.sched_getaffinity(0))})
import numpy as np
from risopt import cnn
channels, kernels, h, w = json.loads(sys.argv[2])
model = cnn.make_model(0, channels, kernels, dropout_after=(), dtype=np.float64)
cnn.model_backward(model, np.ones((h, w, channels[0])), np.zeros((h, w, channels[-1])))
print(json.dumps({"cores": len(os.sched_getaffinity(0)), "blas": cnn.BLAS_THREADS,
                  "conv": cnn.CONV_THREADS,
                  "worker": any(t.name.startswith("risopt-conv") for t in threading.enumerate())}))
"""


# (channels, kernels, H, W) of the model a child runs forward and backward
_ABOVE_THE_CUT = ((32, 128), (5,), 40, 40)  # the default conv 4 at 40x40
_BELOW_THE_CUT = (DEFAULT_CHANNELS, DEFAULT_KERNELS, 12, 10)  # the default network at 12x10


def _layer_macs(spec) -> list:
    channels, kernels, h, w = spec
    return [h * w * k * k * cin * cout for k, cin, cout in zip(kernels, channels, channels[1:])]


def _decide_in_child(mode: str, spec=_ABOVE_THE_CUT) -> dict:
    """CONV_THREADS as a fresh interpreter decides it, and whether running
    the ``spec`` model started the worker: ``pinned`` runs BLAS on one
    thread, ``unpinned`` leaves BLAS at its default, ``one-core`` pins
    BLAS and limits the child to one core before numpy loads."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    if mode != "unpinned":
        env["OPENBLAS_NUM_THREADS"] = "1"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _DECIDE, mode, json.dumps(spec)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or cnn.BLAS_THREADS is None,
    reason="needs sched_setaffinity and a readable OpenBLAS thread count")


@needs_affinity
def test_pinned_blas_with_an_idle_core_uses_the_worker():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one allowed core: no core is idle")
    assert min(_layer_macs(_ABOVE_THE_CUT)) >= cnn.SPLIT_MACS
    child = _decide_in_child("pinned")
    assert child["blas"] == 1
    assert child["conv"] == 2 and child["worker"]


@needs_affinity
def test_pinned_blas_below_the_cut_never_starts_the_worker():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one allowed core: no core is idle")
    assert max(_layer_macs(_BELOW_THE_CUT)) < cnn.SPLIT_MACS
    child = _decide_in_child("pinned", _BELOW_THE_CUT)
    assert child["conv"] == 2 and not child["worker"]


@needs_affinity
def test_unpinned_blas_runs_inline():
    child = _decide_in_child("unpinned")
    if child["blas"] < child["cores"]:
        pytest.skip("OpenBLAS caps its default threads below the core count")
    assert child["conv"] == 1 and not child["worker"]


@needs_affinity
def test_one_core_child_runs_inline():
    child = _decide_in_child("one-core")
    assert child["cores"] == 1 and child["blas"] == 1
    assert child["conv"] == 1 and not child["worker"]


# ---------------------------------------------------------------- training

def _toy_data(rng, n=6, hw=6):
    x = rng.choice([-1.0, 1.0], size=(n, hw, hw, 2))
    y = rng.choice([-1.0, 1.0], size=(n, hw, hw))
    return x, y


def test_constant_val_loss_stops_after_patience():
    # lr = 0 freezes the weights, so validation loss never changes; the
    # first epoch sets the running minimum and patience counts from there.
    rng = np.random.default_rng(23)
    x, y = _toy_data(rng)
    model = make_model(24, channels=(2, 3, 1), kernels=(3, 3), dropout_after=(), dtype=np.float64)
    cfg = TrainConfig(batch_size=2, max_epochs=100, patience=3, rng_seed=0, lr=0.0)
    _, history = train(model, (x, y), (x, y), cfg)
    assert len(history) == 4  # patience + 1
    val_losses = [row[2] for row in history]
    assert len(set(val_losses)) == 1


def test_max_epochs_bound_and_history_rows():
    rng = np.random.default_rng(25)
    x, y = _toy_data(rng)
    model = make_model(26, channels=(2, 3, 1), kernels=(3, 3), dropout_after=(), dtype=np.float64)
    cfg = TrainConfig(batch_size=3, max_epochs=1, patience=10, rng_seed=0, lr=1e-3)
    _, history = train(model, (x, y), (x, y), cfg)
    assert len(history) == 1
    epoch, train_loss, val_loss = history[0]
    assert epoch == 1 and np.isfinite(train_loss) and np.isfinite(val_loss)


def test_training_is_bit_reproducible():
    rng = np.random.default_rng(27)
    x, y = _toy_data(rng)
    model = make_model(28, channels=(2, 4, 1), kernels=(3, 3), dropout_after=(1,),
                       dtype=np.float64)
    cfg = TrainConfig(batch_size=2, max_epochs=5, patience=10, rng_seed=77, lr=1e-3)
    m1, h1 = train(model, (x, y), (x, y), cfg)
    m2, h2 = train(model, (x, y), (x, y), cfg)
    assert h1 == h2
    for a, b in zip(m1.parameters(), m2.parameters()):
        np.testing.assert_array_equal(a, b)
    # the input model was left untouched
    for orig, new in zip(model.parameters(), m1.parameters()):
        assert not np.array_equal(orig, new)


def test_training_reduces_loss():
    rng = np.random.default_rng(29)
    x = rng.choice([-1.0, 1.0], size=(12, 6, 6, 2))
    y = x[:, :, :, 0] * x[:, :, :, 1]  # learnable local rule
    model = make_model(30, channels=(2, 6, 1), kernels=(3, 3), dropout_after=(), dtype=np.float64)
    cfg = TrainConfig(batch_size=4, max_epochs=60, patience=60, rng_seed=1, lr=1e-2)
    trained, history = train(model, (x, y), (x, y), cfg)
    assert history[-1][2] < history[0][2] * 0.5


def test_overfit_eight_samples():
    # Capacity sanity: a reduced net memorizes 8 random samples.
    rng = np.random.default_rng(12)
    x = rng.choice([-1.0, 1.0], size=(8, 8, 8, 2))
    y = rng.choice([-1.0, 1.0], size=(8, 8, 8))
    model = make_model(3, channels=(2, 8, 16, 8, 1), kernels=(3, 3, 3, 3),
                       dropout_after=(), dtype=np.float64)
    cfg = TrainConfig(batch_size=1, max_epochs=300, patience=300, rng_seed=0, lr=1e-2)
    trained, history = train(model, (x, y), (x, y), cfg)
    final = np.mean([mse_loss(model_forward(trained, x[i]), y[i]) for i in range(8)])
    assert final < 1e-2


def test_train_progress_gets_each_history_row_as_its_epoch_ends():
    rng = np.random.default_rng(33)
    x, y = _toy_data(rng)
    model = make_model(34, channels=(2, 3, 1), kernels=(3, 3), dropout_after=(), dtype=np.float64)
    rows = []

    def progress(*row):
        rows.append(row)
        assert len(rows) == row[0]  # called once per epoch, in order

    _, history = train(model, (x, y), (x, y),
                       TrainConfig(batch_size=2, max_epochs=3, patience=10), progress)
    assert rows == history


def test_train_rejects_empty_sets():
    model = make_model(0, channels=(2, 3, 1), kernels=(3, 3), dropout_after=(), dtype=np.float64)
    cfg = TrainConfig(max_epochs=1)
    with pytest.raises(ValueError):
        train(model, (np.zeros((0, 6, 6, 2)), np.zeros((0, 6, 6))),
              (np.zeros((1, 6, 6, 2)), np.zeros((1, 6, 6))), cfg)


@pytest.mark.parametrize("bad", ["train_x", "train_y", "val_x", "val_y"])
def test_train_rejects_non_finite_data(bad):
    model = make_model(0, channels=(2, 3, 1), kernels=(3, 3), dropout_after=(), dtype=np.float64)
    arrays = {"train_x": np.zeros((2, 6, 6, 2)), "train_y": np.zeros((2, 6, 6)),
              "val_x": np.zeros((1, 6, 6, 2)), "val_y": np.zeros((1, 6, 6))}
    arrays[bad][-1, 2, 3] = np.nan if bad.endswith("x") else np.inf
    with pytest.raises(ValueError, match="NaN or infinite"):
        train(model, (arrays["train_x"], arrays["train_y"]),
              (arrays["val_x"], arrays["val_y"]), TrainConfig(max_epochs=1))


@pytest.mark.parametrize("bad", ["train", "val"])
@pytest.mark.parametrize("x_shape, y_shape, message", [
    ((3, 4, 4, 2), (3, 4, 4), "smaller than the largest kernel"),  # the default 5x5 kernels
    ((3, 8, 8, 3), (3, 8, 8), r"input must be \(H, W, 2\)"),
    ((3, 8, 8, 2), (3, 6, 6), "set must be"),
], ids=["too-small", "channels", "targets"])
def test_train_rejects_a_set_the_network_cannot_take_before_the_first_step(
        monkeypatch, bad, x_shape, y_shape, message):
    calls = []

    def spy(name):
        real = getattr(cnn, name)

        def called(*args):
            calls.append(name)
            return real(*args)
        return called

    for name in ("_loss_and_grads", "adam_step"):
        monkeypatch.setattr(cnn, name, spy(name))
    sets = {"train": (np.ones((3, 8, 8, 2)), np.ones((3, 8, 8))),
            "val": (np.ones((1, 8, 8, 2)), np.ones((1, 8, 8)))}
    sets[bad] = (np.ones(x_shape), np.ones(y_shape))
    with pytest.raises(ValueError, match=message):
        train(make_model(0), sets["train"], sets["val"], TrainConfig(max_epochs=1))
    assert calls == []


def test_train_stops_on_non_finite_loss():
    # a step this large overflows the float32 weights within the first epoch
    rng = np.random.default_rng(22)
    model = make_model(0, channels=(2, 3, 1), kernels=(3, 3), dropout_after=(),
                       dtype=np.float32)
    x = rng.standard_normal((3, 6, 6, 2))
    y = np.sign(rng.standard_normal((3, 6, 6)))
    cfg = TrainConfig(batch_size=1, max_epochs=5, lr=1e38)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="epoch 1: loss is not finite"):
        train(model, (x, y), (x, y), cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=-1.0)
    for lr in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="learning rate must be finite"):
            TrainConfig(lr=lr)


# ---------------------------------------------------------------- prediction

def test_pm1_encoding_round_trip():
    states = np.array([[0, 1], [1, 0]])
    enc = states_to_pm1(states)
    np.testing.assert_array_equal(enc, [[1.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_array_equal(pm1_to_states(enc), states)
    with pytest.raises(ValueError):
        states_to_pm1(np.array([0, 2]))


@pytest.mark.parametrize("states", [[0.5, 1, 0], [0, 1, -0.25], [np.nan, 0]])
def test_pm1_encoding_takes_exactly_0_or_1(states):
    # PhaseConfig's rule; a min/max check would encode 0.5 as a 0.0 input value
    with pytest.raises(ValueError, match="^states must be 0 or 1$"):
        states_to_pm1(states)
    with pytest.raises(ValueError, match="^states must be 0 or 1$"):
        stripe_image(np.array(states), np.array([0, 1]))


def test_pm1_threshold_at_zero():
    np.testing.assert_array_equal(pm1_to_states(np.array([0.0, -0.0, 1e-9, -1e-9])),
                                  [0, 0, 0, 1])


def _center_tap_model(channel: int) -> Model:
    """3x3 conv whose center tap copies one input channel through tanh."""
    w = np.zeros((3, 3, 2, 1))
    w[1, 1, channel, 0] = 1.0
    return Model([ConvLayer(w, np.zeros(1))])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=9),
       st.lists(st.integers(0, 1), min_size=1, max_size=9))
@example([1], [0, 1, 1])  # one row
@example([0, 1, 0], [1])  # one column
@example([1, 0], [0, 1, 1, 0, 1])  # wider than tall
def test_stripe_image_matches_expanded_stripe_configs(h_bits, v_bits):
    # the encoding stripe_image replaced: expand each stripe vector to a full
    # config, then sign-encode it as one channel
    shape = (len(h_bits), len(v_bits))
    image = stripe_image(np.array(h_bits), np.array(v_bits))
    assert image.shape == (*shape, 2)
    assert image.dtype == np.float64
    for channel, (bits, orientation) in enumerate(((h_bits, "horizontal"),
                                                   (v_bits, "vertical"))):
        np.testing.assert_array_equal(
            image[:, :, channel],
            states_to_pm1(expand_stripe(bits, orientation, shape).states))
    h_states, v_states = stripe_states(image)
    np.testing.assert_array_equal(h_states, h_bits)
    np.testing.assert_array_equal(v_states, v_bits)


def test_predict_config_channel_copy_model():
    rng = np.random.default_rng(31)
    h = rng.integers(0, 2, 5)
    v = rng.integers(0, 2, 4)
    image = stripe_image(h, v)
    got = predict_config(_center_tap_model(0), image)
    np.testing.assert_array_equal(got.states, expand_stripe(h, "horizontal", (5, 4)).states)
    got = predict_config(_center_tap_model(1), image)
    np.testing.assert_array_equal(got.states, expand_stripe(v, "vertical", (5, 4)).states)


def test_predict_config_zero_output_is_all_zero_state():
    model = Model([ConvLayer(np.zeros((3, 3, 2, 1)), np.zeros(1))])
    cfg = predict_config(model, stripe_image(np.ones(4, dtype=int), np.ones(4, dtype=int)))
    np.testing.assert_array_equal(cfg.states, np.zeros((4, 4)))


@pytest.fixture(scope="module")
def stripe_outputs():
    """Float32 default networks of three seeds on 40x40 random stripe images,
    with each image's float32 output and the float64 output of the same
    weights.  Images 1 of seed 1 and 8 of seed 2 have an output within
    SIGN_MARGIN of zero, so both paths of predict_config run."""
    cases = []
    for seed in range(3):
        model = make_model(seed, dtype=np.float32)
        wide = model.copy(np.float64)
        rng = np.random.default_rng(seed)
        for _ in range(9):
            image = stripe_image(rng.integers(0, 2, 40), rng.integers(0, 2, 40))
            cases.append((model, image, model_forward(model, image),
                          model_forward(wide, image)))
    return cases


def test_predict_config_decides_as_float64(stripe_outputs):
    near_zero = [np.abs(out32).min() < SIGN_MARGIN for _, _, out32, _ in stripe_outputs]
    assert 0 < sum(near_zero) < len(near_zero)  # the float64 re-run and the plain path
    for model, image, _, out64 in stripe_outputs:
        np.testing.assert_array_equal(predict_config(model, image).states,
                                      pm1_to_states(out64))


def test_float32_error_is_well_inside_the_sign_margin(stripe_outputs):
    # SIGN_MARGIN rests on this gap: re-deciding only outputs within the
    # margin is safe while float32 stays this close to float64
    assert all(out32.dtype == np.float32 for _, _, out32, _ in stripe_outputs)
    gap = max(np.abs(out32 - out64).max() for _, _, out32, out64 in stripe_outputs)
    assert gap <= SIGN_MARGIN / 10


def test_predict_config_re_decides_a_float32_sign_flip_in_float64():
    # z = 1 + (-1 - 1e-8) on all-(+1) inputs: float32 rounds the tap sum
    # to -1, so z is 0 (state 0); float64 gives -1e-8 (state 1)
    w = np.zeros((3, 3, 2, 1), dtype=np.float32)
    w[1, 1, :, 0] = [-1.0, -1e-8]
    model = Model([ConvLayer(w, np.ones(1, dtype=np.float32))])
    image = stripe_image(np.zeros(4, dtype=int), np.zeros(4, dtype=int))
    np.testing.assert_array_equal(pm1_to_states(model_forward(model, image)), 0)
    np.testing.assert_array_equal(
        pm1_to_states(model_forward(model.copy(np.float64), image)), 1)
    np.testing.assert_array_equal(predict_config(model, image).states, 1)
    assert model.convs[0].weights.dtype == np.float32  # the caller's model is kept


# ---------------------------------------------------------------- weights io

def test_save_load_round_trip(tmp_path):
    model = make_model(33, channels=(2, 4, 4, 1), kernels=(3, 3, 3),
                       dropout_after=(2,), dtype=np.float64)
    path = tmp_path / "w.rist"
    save_model(path, model)
    back = load_model(path)
    assert len(back.convs) == 3
    assert back.dropout_after == ()  # eval-only: the file holds no dropout
    for a, b in zip(model.convs, back.convs):
        # the stored float32 records, not widened: inference runs in float32
        assert b.weights.dtype == b.bias.dtype == np.float32
        np.testing.assert_array_equal(b.weights, a.weights.astype(np.float32))
        np.testing.assert_array_equal(b.bias, a.bias.astype(np.float32))


def test_saved_weights_bytes_deterministic(tmp_path):
    model = make_model(34, dtype=np.float64)
    p1, p2 = tmp_path / "a.rist", tmp_path / "b.rist"
    save_model(p1, model)
    save_model(p2, model)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("seed", range(5))
def test_make_model_defaults_to_float32_and_saves_the_float64_bytes(tmp_path, seed):
    # both draw the weights in float64 and round them to float32 once
    model = make_model(seed)
    assert all(p.dtype == np.float32 for p in model.parameters())
    save_model(tmp_path / "32.rist", model)
    save_model(tmp_path / "64.rist", make_model(seed, dtype=np.float64))
    assert (tmp_path / "32.rist").read_bytes() == (tmp_path / "64.rist").read_bytes()


@pytest.mark.parametrize("channels, cin, cout", [((2, 4, 2), 2, 2), ((3, 4, 1), 3, 1)])
def test_load_model_refuses_a_network_that_cannot_give_a_config(tmp_path, channels, cin, cout):
    # predicting takes the 2-channel stripe image to one config map
    path = tmp_path / "w.rist"
    save_model(path, make_model(0, channels=channels, kernels=(3, 3), dropout_after=()))
    with pytest.raises(ValueError, match=f"^{path}: the network maps {cin} channels to "
                                         f"{cout}; predicting a config takes 2 to 1$"):
        load_model(path)


def test_load_model_rejects_odd_record_count(tmp_path):
    from risopt.tensorfile import save_tensors
    path = tmp_path / "bad.rist"
    save_tensors(path, [np.zeros((3, 3, 2, 1), dtype=np.float32)])
    with pytest.raises(ValueError, match=f"^{path}: weights file must hold"):
        load_model(path)


def test_float32_model_stays_float32_end_to_end():
    rng = np.random.default_rng(5)
    x = rng.choice([-1.0, 1.0], size=(6, 8, 8, 2))
    y = rng.choice([-1.0, 1.0], size=(6, 8, 8))
    model = make_model(0, channels=(2, 4, 1), kernels=(3, 3),
                       dropout_after=(1,), dtype=np.float32)
    assert model_forward(model, x[0]).dtype == np.float32
    trained, hist = train(model, (x, y), (x, y),
                          TrainConfig(batch_size=2, max_epochs=2))
    assert all(p.dtype == np.float32 for p in trained.parameters())
    assert np.isfinite(hist[-1][2])


def test_float32_and_float64_training_losses_agree():
    # identical recipe in both precisions; losses should differ only by
    # rounding noise over a couple of epochs
    rng = np.random.default_rng(6)
    x = rng.choice([-1.0, 1.0], size=(4, 8, 8, 2))
    y = rng.choice([-1.0, 1.0], size=(4, 8, 8))
    cfg = TrainConfig(batch_size=2, max_epochs=2)
    _, h64 = train(make_model(1, channels=(2, 4, 1), kernels=(3, 3),
                              dropout_after=(), dtype=np.float64), (x, y), (x, y), cfg)
    _, h32 = train(make_model(1, channels=(2, 4, 1), kernels=(3, 3),
                              dropout_after=(), dtype=np.float32),
                   (x, y), (x, y), cfg)
    for (_, tl64, vl64), (_, tl32, vl32) in zip(h64, h32):
        assert abs(tl64 - tl32) < 1e-4
        assert abs(vl64 - vl32) < 1e-4
