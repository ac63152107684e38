"""Network layers vs. naive convolution and finite-difference oracles."""

import numpy as np
import pytest

from risopt.cnn import (
    AdamState,
    ConvLayer,
    DropoutLayer,
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
    train,
)
from risopt.optimizers import StripeConfig


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
    for layer in model.layers:
        if isinstance(layer, ConvLayer):
            a = np.tanh(naive_conv_same(a, layer.weights, layer.bias))
        # dropout is identity in eval mode
    return a[:, :, 0] if a.shape[2] == 1 else a


def one_layer_forward(x, kernel, bias):
    """Eval-mode output of a single conv layer, kept (H, W, cout)."""
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
    model = make_model(0)
    convs = model.conv_layers()
    assert len(convs) == 8
    chain = [convs[0].weights.shape[2]] + [c.weights.shape[3] for c in convs]
    assert chain == [2, 4, 16, 32, 128, 64, 8, 4, 1]
    assert [c.weights.shape[0] for c in convs] == [3, 3, 3, 5, 5, 3, 3, 3]
    kinds = ["d" if isinstance(l, DropoutLayer) else "c" for l in model.layers]
    assert kinds == ["c", "c", "c", "d", "c", "c", "c", "d", "c", "c"]
    assert model.num_parameters() == 317_645


def test_glorot_init_bounds_and_zero_bias():
    model = make_model(5, channels=(2, 4, 1), kernels=(3, 3), dropout_after=())
    for layer in model.conv_layers():
        kh, kw, cin, cout = layer.weights.shape
        limit = np.sqrt(6.0 / (kh * kw * cin + kh * kw * cout))
        assert np.all(np.abs(layer.weights) <= limit)
        assert layer.weights.std() > 0
        np.testing.assert_array_equal(layer.bias, 0.0)


def test_zero_weight_model_outputs_zero():
    model = make_model(0, channels=(2, 3, 1), kernels=(3, 3), dropout_after=())
    for p in model.parameters():
        p[...] = 0.0
    out = model_forward(model, np.ones((6, 6, 2)))
    np.testing.assert_array_equal(out, np.zeros((6, 6)))


def test_eval_forward_deterministic_and_bounded():
    rng = np.random.default_rng(9)
    model = make_model(2, channels=(2, 4, 4, 1), kernels=(3, 3, 3),
                       dropout_after=(1,))
    x = rng.standard_normal((7, 7, 2))
    a = model_forward(model, x, "eval")
    b = model_forward(model, x, "eval", rng_seed=999)  # seed irrelevant in eval
    np.testing.assert_array_equal(a, b)
    assert a.shape == (7, 7)
    assert np.all(np.abs(a) < 1.0)


def test_forward_matches_naive_layer_stack():
    rng = np.random.default_rng(10)
    model = make_model(11, channels=(2, 4, 8, 4, 1), kernels=(3, 5, 3, 3),
                       dropout_after=(2,))
    x = rng.standard_normal((8, 8, 2))
    got = model_forward(model, x, "eval")
    want = naive_forward_eval(model, x)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_forward_input_validation():
    model = make_model(0, channels=(2, 3, 1), kernels=(3, 5), dropout_after=())
    with pytest.raises(ValueError):
        model_forward(model, np.zeros((6, 6, 3)))  # wrong channel count
    with pytest.raises(ValueError):
        model_forward(model, np.zeros((4, 4, 2)))  # below largest kernel
    with pytest.raises(ValueError):
        model_forward(model, np.zeros((6, 6, 2)), mode="test")


def test_model_validation():
    with pytest.raises(ValueError):
        Model([DropoutLayer(0.2)])  # no conv at all
    with pytest.raises(ValueError):
        Model([
            ConvLayer(np.zeros((3, 3, 2, 4)), np.zeros(4)),
            ConvLayer(np.zeros((3, 3, 8, 1)), np.zeros(1)),  # chain break
        ])
    with pytest.raises(ValueError):
        DropoutLayer(1.0)
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
    model = make_model(15, channels=(2, 3, 1), kernels=kernels, dropout_after=())
    x = rng.standard_normal((6, 6, 2))
    target = rng.standard_normal((6, 6))
    analytic = model_backward(model, x, target, mode="eval")
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
                       dropout_rate=0.5)
    x = rng.standard_normal((6, 6, 2))
    target = rng.standard_normal((6, 6))
    seed = 3
    analytic = model_backward(model, x, target, mode="train", rng_seed=seed)

    h = 1e-5
    worst = 0.0
    for pi, p in enumerate(model.parameters()):
        flat = p.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]

            def loss_at(v):
                flat[i] = v
                # train-mode forward with the pinned seed
                from risopt.cnn import _forward_pass  # noqa: PLC0415
                out, _ = _forward_pass(model, x, "train",
                                       np.random.default_rng(seed))
                flat[i] = orig
                return mse_loss(out[:, :, 0], target)

            fd = (loss_at(orig + h) - loss_at(orig - h)) / (2 * h)
            an = analytic[pi].reshape(-1)[i]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
            worst = max(worst, rel)
    assert worst < 1e-4


def test_zero_everything_gives_zero_gradients():
    model = make_model(0, channels=(2, 3, 1), kernels=(3, 3), dropout_after=())
    for p in model.parameters():
        p[...] = 0.0
    grads = model_backward(model, np.zeros((6, 6, 2)), np.zeros((6, 6)))
    for g in grads:
        np.testing.assert_array_equal(g, 0.0)


def test_backward_seed_determinism():
    rng = np.random.default_rng(18)
    model = make_model(19, channels=(2, 4, 1), kernels=(3, 3), dropout_after=(1,))
    x = rng.standard_normal((6, 6, 2))
    t = rng.standard_normal((6, 6))
    g1 = model_backward(model, x, t, mode="train", rng_seed=42)
    g2 = model_backward(model, x, t, mode="train", rng_seed=42)
    g3 = model_backward(model, x, t, mode="train", rng_seed=43)
    for a, b in zip(g1, g2):
        np.testing.assert_array_equal(a, b)
    assert any(not np.array_equal(a, b) for a, b in zip(g1, g3))


# ---------------------------------------------------------------- dropout

def test_train_mode_dropout_varies_with_seed():
    model = make_model(20, channels=(2, 4, 1), kernels=(3, 3), dropout_after=(1,))
    x = np.ones((6, 6, 2))
    a = model_forward(model, x, "train", rng_seed=0)
    b = model_forward(model, x, "train", rng_seed=0)
    c = model_forward(model, x, "train", rng_seed=1)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dropout_expectation_matches_eval():
    # Linear probe (1x1 conv, tiny weights, so tanh is ~identity):
    # averaging many seeded train-mode passes converges to the eval pass.
    rng = np.random.default_rng(21)
    w = np.zeros((1, 1, 2, 1))
    w[0, 0, :, 0] = 0.01
    model = Model([DropoutLayer(0.2), ConvLayer(w, np.zeros(1))])
    # both channels share a sign per cell so the channel sum stays away
    # from zero and the elementwise relative bound is meaningful
    x = rng.uniform(0.3, 0.5, (4, 4, 2)) * rng.choice([-1, 1], (4, 4, 1))
    ref = model_forward(model, x, "eval")
    acc = np.zeros_like(ref)
    n = 10_000
    for seed in range(n):
        acc += model_forward(model, x, "train", rng_seed=seed)
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
    model = make_model(24, channels=(2, 3, 1), kernels=(3, 3), dropout_after=())
    cfg = TrainConfig(batch_size=2, max_epochs=100, patience=3, rng_seed=0, lr=0.0)
    _, history = train(model, (x, y), (x, y), cfg)
    assert len(history) == 4  # patience + 1
    val_losses = [row[2] for row in history]
    assert len(set(val_losses)) == 1


def test_max_epochs_bound_and_history_rows():
    rng = np.random.default_rng(25)
    x, y = _toy_data(rng)
    model = make_model(26, channels=(2, 3, 1), kernels=(3, 3), dropout_after=())
    cfg = TrainConfig(batch_size=3, max_epochs=1, patience=10, rng_seed=0, lr=1e-3)
    _, history = train(model, (x, y), (x, y), cfg)
    assert len(history) == 1
    epoch, train_loss, val_loss = history[0]
    assert epoch == 1 and np.isfinite(train_loss) and np.isfinite(val_loss)


def test_training_is_bit_reproducible():
    rng = np.random.default_rng(27)
    x, y = _toy_data(rng)
    model = make_model(28, channels=(2, 4, 1), kernels=(3, 3), dropout_after=(1,))
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
    model = make_model(30, channels=(2, 6, 1), kernels=(3, 3), dropout_after=())
    cfg = TrainConfig(batch_size=4, max_epochs=60, patience=60, rng_seed=1, lr=1e-2)
    trained, history = train(model, (x, y), (x, y), cfg)
    assert history[-1][2] < history[0][2] * 0.5


def test_overfit_eight_samples():
    # Capacity sanity: a reduced net memorizes 8 random samples.
    rng = np.random.default_rng(12)
    x = rng.choice([-1.0, 1.0], size=(8, 8, 8, 2))
    y = rng.choice([-1.0, 1.0], size=(8, 8, 8))
    model = make_model(3, channels=(2, 8, 16, 8, 1), kernels=(3, 3, 3, 3),
                       dropout_after=())
    cfg = TrainConfig(batch_size=1, max_epochs=300, patience=300, rng_seed=0, lr=1e-2)
    trained, history = train(model, (x, y), (x, y), cfg)
    final = np.mean([mse_loss(model_forward(trained, x[i]), y[i]) for i in range(8)])
    assert final < 1e-2


def test_train_rejects_empty_sets():
    model = make_model(0, channels=(2, 3, 1), kernels=(3, 3), dropout_after=())
    cfg = TrainConfig(max_epochs=1)
    with pytest.raises(ValueError):
        train(model, (np.zeros((0, 6, 6, 2)), np.zeros((0, 6, 6))),
              (np.zeros((1, 6, 6, 2)), np.zeros((1, 6, 6))), cfg)


@pytest.mark.parametrize("bad", ["train_x", "train_y", "val_x", "val_y"])
def test_train_rejects_non_finite_data(bad):
    model = make_model(0, channels=(2, 3, 1), kernels=(3, 3), dropout_after=())
    arrays = {"train_x": np.zeros((2, 6, 6, 2)), "train_y": np.zeros((2, 6, 6)),
              "val_x": np.zeros((1, 6, 6, 2)), "val_y": np.zeros((1, 6, 6))}
    arrays[bad][-1, 2, 3] = np.nan if bad.endswith("x") else np.inf
    with pytest.raises(ValueError, match="NaN or infinite"):
        train(model, (arrays["train_x"], arrays["train_y"]),
              (arrays["val_x"], arrays["val_y"]), TrainConfig(max_epochs=1))


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


# ---------------------------------------------------------------- prediction

def test_pm1_encoding_round_trip():
    states = np.array([[0, 1], [1, 0]])
    enc = states_to_pm1(states)
    np.testing.assert_array_equal(enc, [[1.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_array_equal(pm1_to_states(enc), states)
    with pytest.raises(ValueError):
        states_to_pm1(np.array([0, 2]))


def test_pm1_threshold_at_zero():
    np.testing.assert_array_equal(pm1_to_states(np.array([0.0, -0.0, 1e-9, -1e-9])),
                                  [0, 0, 0, 1])


def _center_tap_model(channel: int) -> Model:
    """3x3 conv whose center tap copies one input channel through tanh."""
    w = np.zeros((3, 3, 2, 1))
    w[1, 1, channel, 0] = 1.0
    return Model([ConvLayer(w, np.zeros(1))])


def test_predict_config_channel_copy_model():
    rng = np.random.default_rng(31)
    h = StripeConfig("horizontal", rng.integers(0, 2, 5))
    v = StripeConfig("vertical", rng.integers(0, 2, 4))
    got = predict_config(_center_tap_model(0), h, v)
    np.testing.assert_array_equal(got.states, h.expand((5, 4)).states)
    got = predict_config(_center_tap_model(1), h, v)
    np.testing.assert_array_equal(got.states, v.expand((5, 4)).states)
    # argument order is free
    got = predict_config(_center_tap_model(0), v, h)
    np.testing.assert_array_equal(got.states, h.expand((5, 4)).states)


def test_predict_config_zero_output_is_all_zero_state():
    model = Model([ConvLayer(np.zeros((3, 3, 2, 1)), np.zeros(1))])
    h = StripeConfig("horizontal", np.ones(4, dtype=int))
    v = StripeConfig("vertical", np.ones(4, dtype=int))
    cfg = predict_config(model, h, v)
    np.testing.assert_array_equal(cfg.states, np.zeros((4, 4)))


def test_predict_config_orientation_validation():
    model = _center_tap_model(0)
    a = StripeConfig("horizontal", np.zeros(4, dtype=int))
    b = StripeConfig("horizontal", np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        predict_config(model, a, b)


# ---------------------------------------------------------------- weights io

def test_save_load_round_trip(tmp_path):
    model = make_model(33, channels=(2, 4, 4, 1), kernels=(3, 3, 3),
                       dropout_after=(2,))
    path = tmp_path / "w.rist"
    save_model(path, model)
    back = load_model(path, dropout_after=(2,))
    assert len(back.conv_layers()) == 3
    assert isinstance(back.layers[2], DropoutLayer)
    for a, b in zip(model.conv_layers(), back.conv_layers()):
        np.testing.assert_array_equal(
            b.weights, a.weights.astype(np.float32).astype(float))
        np.testing.assert_array_equal(
            b.bias, a.bias.astype(np.float32).astype(float))


def test_saved_weights_bytes_deterministic(tmp_path):
    model = make_model(34)
    p1, p2 = tmp_path / "a.rist", tmp_path / "b.rist"
    save_model(p1, model)
    save_model(p2, model)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_model_rejects_odd_record_count(tmp_path):
    from risopt.tensorfile import save_tensors
    path = tmp_path / "bad.rist"
    save_tensors(path, [np.zeros((3, 3, 2, 1), dtype=np.float32)])
    with pytest.raises(ValueError):
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
                              dropout_after=()), (x, y), (x, y), cfg)
    _, h32 = train(make_model(1, channels=(2, 4, 1), kernels=(3, 3),
                              dropout_after=(), dtype=np.float32),
                   (x, y), (x, y), cfg)
    for (_, tl64, vl64), (_, tl32, vl32) in zip(h64, h32):
        assert abs(tl64 - tl32) < 1e-4
        assert abs(vl64 - vl32) < 1e-4
