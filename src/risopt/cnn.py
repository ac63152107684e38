"""Self-contained convolutional network for stripe-to-full config prediction.

The network maps a 2-channel H x W image (the expanded horizontal and
vertical stripe configurations, encoded +1/-1) to a single-channel map
whose sign gives the predicted per-element binary phase state.  Default
architecture: channel chain 2 -> 4 -> 16 -> 32 -> 128 -> 64 -> 8 -> 4
-> 1 with square kernels 3, 3, 3, 5, 5, 3, 3, 3, same padding, stride 1,
a bias and tanh on every conv layer, and rate-0.2 inverted dropout after
the third and sixth conv layers.

Every pass runs in the dtype of the model's parameters, float64 by
default so gradients can be checked against central finite differences.
Tensors are (height, width, channels), kernels (kh, kw, in_channels,
out_channels).  No autograd: the backward pass is written out by hand.

Convolution is a shifted-slab GEMM (low-memory GEMM convolution): the
padded input, flattened to (rows * Wp, cin) with ``Wp = W + kw - 1``,
gives one contiguous slab view per kernel offset, starting at row
``dy * Wp + dx``.  Each offset is one GEMM accumulated in place, with no
im2col copy; the ``Wp - W`` wrap columns are cropped.  The backward pass
uses the same slabs for ``dW`` and the input gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from risopt.optimizers import StripeConfig
from risopt.physics import DEFAULT_PHASE_TABLE, PhaseConfig
from risopt.tensorfile import load_tensors, save_tensors

DEFAULT_CHANNELS = (2, 4, 16, 32, 128, 64, 8, 4, 1)
DEFAULT_KERNELS = (3, 3, 3, 5, 5, 3, 3, 3)
DEFAULT_DROPOUT_AFTER = (3, 6)  # dropout follows conv layers 3 and 6 (1-based)
DEFAULT_DROPOUT_RATE = 0.2

MODES = ("train", "eval")


@dataclass
class ConvLayer:
    """Same-padding stride-1 convolution with bias, followed by tanh."""

    weights: np.ndarray  # (kh, kw, cin, cout)
    bias: np.ndarray  # (cout,)

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise ValueError("conv weights must be (kh, kw, cin, cout)")
        if self.bias.shape != (self.weights.shape[3],):
            raise ValueError("bias length must equal out_channels")


@dataclass
class DropoutLayer:
    """Inverted dropout: train mode zeroes and rescales, eval is identity."""

    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")


@dataclass
class Model:
    layers: list

    def __post_init__(self):
        convs = self.conv_layers()
        if not convs:
            raise ValueError("model needs at least one conv layer")
        for a, b in zip(convs, convs[1:]):
            if a.weights.shape[3] != b.weights.shape[2]:
                raise ValueError("conv channel chain is inconsistent")

    def conv_layers(self) -> list:
        return [l for l in self.layers if isinstance(l, ConvLayer)]

    @property
    def in_channels(self) -> int:
        return self.conv_layers()[0].weights.shape[2]

    @property
    def out_channels(self) -> int:
        return self.conv_layers()[-1].weights.shape[3]

    @property
    def min_spatial(self) -> int:
        return max(max(l.weights.shape[0], l.weights.shape[1])
                   for l in self.conv_layers())

    def parameters(self) -> list:
        return [p for layer in self.conv_layers() for p in (layer.weights, layer.bias)]

    def set_parameters(self, params) -> None:
        convs = self.conv_layers()
        if len(params) != 2 * len(convs):
            raise ValueError("parameter list length mismatch")
        for i, layer in enumerate(convs):
            w, b = params[2 * i], params[2 * i + 1]
            if w.shape != layer.weights.shape or b.shape != layer.bias.shape:
                raise ValueError("parameter shape mismatch")
            layer.weights = w
            layer.bias = b

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def copy(self) -> "Model":
        layers = []
        for layer in self.layers:
            if isinstance(layer, ConvLayer):
                layers.append(ConvLayer(layer.weights.copy(), layer.bias.copy()))
            else:
                layers.append(DropoutLayer(layer.rate))
        return Model(layers)


def make_model(
    rng_seed: int = 0,
    channels=DEFAULT_CHANNELS,
    kernels=DEFAULT_KERNELS,
    dropout_after=DEFAULT_DROPOUT_AFTER,
    dropout_rate: float = DEFAULT_DROPOUT_RATE,
    dtype=np.float64,
) -> Model:
    """Build a model with uniform Glorot weights and zero biases.

    Every forward/backward pass runs in ``dtype``; float64 is the
    default so finite-difference gradient checks stay meaningful, while
    float32 trains a 40x40 image in under half the time.
    """
    if len(channels) != len(kernels) + 1:
        raise ValueError("need one more channel count than kernel sizes")
    rng = np.random.default_rng(rng_seed)
    layers = []
    for i, k in enumerate(kernels):
        cin, cout = channels[i], channels[i + 1]
        fan_in = k * k * cin
        fan_out = k * k * cout
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, (k, k, cin, cout)).astype(dtype)
        layers.append(ConvLayer(weights, np.zeros(cout, dtype=dtype)))
        if (i + 1) in dropout_after:
            layers.append(DropoutLayer(dropout_rate))
    return Model(layers)


# ------------------------------------------------------------------ conv core

def _conv_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray):
    """Shifted-slab same conv of (H, W, cin) ``x``: (H, W, cout) pre-activation
    and the flat padded input that :func:`_conv_backward` needs."""
    kh, kw, cin, cout = weights.shape
    h, w, _ = x.shape
    wp, n = w + kw - 1, h * (w + kw - 1)
    # the extra bottom row keeps the last offset's slab in bounds
    xp = np.pad(x, (((kh - 1) // 2, kh // 2 + 1), ((kw - 1) // 2, kw // 2), (0, 0)))
    xp = xp.reshape(-1, cin)
    z = np.full((n, cout), bias, dtype=x.dtype)
    for dy in range(kh):
        for dx in range(kw):
            off = dy * wp + dx
            z += xp[off:off + n] @ weights[dy, dx]
    return z.reshape(h, wp, cout)[:, :w], xp


def _conv_backward(xp: np.ndarray, weights: np.ndarray, dz: np.ndarray):
    """Gradients (dW, db, dx) of :func:`_conv_forward` given dL/dz (H, W, cout)."""
    kh, kw, cin, cout = weights.shape
    h, w, _ = dz.shape
    wp, n = w + kw - 1, h * (w + kw - 1)
    # the wrap columns were cropped in the forward pass: their gradient is zero
    dzp = np.pad(dz, ((0, 0), (0, kw - 1), (0, 0))).reshape(n, cout)
    dw = np.empty_like(weights)
    dxp = np.zeros_like(xp)
    for dy in range(kh):
        for dx in range(kw):
            off = dy * wp + dx
            dw[dy, dx] = xp[off:off + n].T @ dzp
            dxp[off:off + n] += dzp @ weights[dy, dx].T
    top, left = (kh - 1) // 2, (kw - 1) // 2
    dx = dxp.reshape(-1, wp, cin)[top:top + h, left:left + w]
    return dw, dz.reshape(-1, cout).sum(axis=0), dx


def _forward_pass(model: Model, x: np.ndarray, mode: str, rng):
    """Run all layers, returning the last activation and per-layer caches."""
    caches = []
    a = x
    for layer in model.layers:
        if isinstance(layer, ConvLayer):
            z, xp = _conv_forward(a, layer.weights, layer.bias)
            a = np.tanh(z)
            caches.append(("conv", layer, xp, a))
        elif mode == "train" and layer.rate > 0.0:
            keep = rng.random(a.shape) >= layer.rate
            scale = 1.0 / (1.0 - layer.rate)
            a = a * keep * scale
            caches.append(("drop", keep, scale))
        else:
            caches.append(("drop", None, 1.0))
    return a, caches


def _check_input(model: Model, x: np.ndarray) -> np.ndarray:
    # follow the parameter dtype so float32 models run fully in float32
    x = np.asarray(x, dtype=model.conv_layers()[0].weights.dtype)
    if x.ndim != 3 or x.shape[2] != model.in_channels:
        raise ValueError(
            f"input must be (H, W, {model.in_channels}), got {x.shape}")
    if min(x.shape[0], x.shape[1]) < model.min_spatial:
        raise ValueError("input smaller than the largest kernel")
    return x


def _squeeze(out: np.ndarray) -> np.ndarray:
    return out[:, :, 0] if out.shape[2] == 1 else out


def model_forward(model: Model, x, mode: str = "eval", rng_seed: int = 0) -> np.ndarray:
    """Network output for one input image.

    Train mode applies seeded inverted dropout; eval mode is
    deterministic with no stochastic path.  A single-channel result is
    squeezed to (H, W).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    x = _check_input(model, x)
    out, _ = _forward_pass(model, x, mode, np.random.default_rng(rng_seed))
    return _squeeze(out)


def mse_loss(pred, target) -> float:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def _loss_and_grads(model: Model, x: np.ndarray, target: np.ndarray, mode: str, rng):
    """Forward + reverse pass; returns (loss, grads aligned with parameters())."""
    out, caches = _forward_pass(model, x, mode, rng)
    target = np.asarray(target, dtype=out.dtype)
    if target.ndim == 2:
        target = target[:, :, np.newaxis]
    if target.shape != out.shape:
        raise ValueError(f"target shape {target.shape} does not match output {out.shape}")
    diff = out - target
    loss = float(np.mean(diff * diff))
    da = 2.0 * diff / diff.size

    grads = []
    for cache in reversed(caches):
        if cache[0] == "conv":
            _, layer, xp, act = cache
            dw, db, da = _conv_backward(xp, layer.weights, da * (1.0 - act * act))
            grads += [db, dw]
        else:
            _, keep, scale = cache
            if keep is not None:
                da = da * keep * scale
    grads.reverse()
    return loss, grads


def model_backward(model: Model, x, target, mode: str = "train", rng_seed: int = 0) -> list:
    """Gradient of the MSE loss w.r.t. every weight and bias.

    The same ``rng_seed`` reproduces the dropout masks of the matching
    :func:`model_forward` call, so the gradients correspond exactly to
    that stochastic forward pass.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    x = _check_input(model, x)
    _, grads = _loss_and_grads(model, x, target, mode, np.random.default_rng(rng_seed))
    return grads


# ------------------------------------------------------------------ optimizer

@dataclass
class AdamState:
    first_moment: list
    second_moment: list
    step_count: int
    lr: float
    beta1: float
    beta2: float
    epsilon: float

    @classmethod
    def init(cls, params, lr: float = 1e-3, beta1: float = 0.9,
             beta2: float = 0.999, epsilon: float = 1e-8) -> "AdamState":
        return cls([np.zeros_like(p) for p in params],
                   [np.zeros_like(p) for p in params], 0, lr, beta1, beta2, epsilon)


def adam_step(state: AdamState, params, grads) -> tuple:
    """One bias-corrected ADAM update; returns (new params, new state)."""
    if not (len(params) == len(grads) == len(state.first_moment)):
        raise ValueError("params/grads/state length mismatch")
    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        new_params.append(p - state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(new_m, new_v, t, state.lr, b1, b2, state.epsilon)


# ------------------------------------------------------------------ training

@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 500
    patience: int = 10
    rng_seed: int = 0
    lr: float = 1e-3

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs and patience must be >= 1")
        if self.lr < 0:
            raise ValueError("learning rate must be >= 0")


def _as_dataset(name, data, dtype):
    inputs, targets = data
    inputs = np.asarray(inputs, dtype=dtype)
    targets = np.asarray(targets, dtype=dtype)
    if len(inputs) == 0:
        raise ValueError(f"{name} set is empty")
    if inputs.ndim != 4 or targets.ndim != 3 or len(inputs) != len(targets):
        raise ValueError(f"{name} set must be (N, H, W, C) inputs with (N, H, W) targets")
    if not (np.isfinite(inputs).all() and np.isfinite(targets).all()):
        raise ValueError(f"{name} set holds NaN or infinite values")
    return inputs, targets


def train(model: Model, train_set, val_set, cfg: TrainConfig) -> tuple:
    """Mini-batch ADAM training with early stopping on validation loss.

    Per epoch: seeded shuffle, gradient averaged over each batch, one
    ADAM step per batch, then a full eval-mode validation pass.  Training
    stops once the validation loss has gone ``cfg.patience`` consecutive
    epochs without improving its running minimum, or at
    ``cfg.max_epochs``.  The weights are whatever the last epoch left
    behind (no rollback to the best-validation epoch).

    Returns ``(trained model, history)`` where history rows are
    ``(epoch, train_loss, val_loss)`` with 1-based epoch numbers.  The
    input model is not modified.
    """
    dtype = model.conv_layers()[0].weights.dtype
    train_x, train_y = _as_dataset("train", train_set, dtype)
    val_x, val_y = _as_dataset("val", val_set, dtype)

    model = model.copy()
    state = AdamState.init(model.parameters(), lr=cfg.lr)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(cfg.rng_seed, spawn_key=(0,)))

    history = []
    best_val = np.inf
    stale = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_x))
        loss_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            batch_grads = None
            for idx in batch:
                rng = np.random.default_rng(
                    np.random.SeedSequence(cfg.rng_seed,
                                           spawn_key=(1, epoch, int(idx))))
                loss, grads = _loss_and_grads(
                    model, train_x[idx], train_y[idx], "train", rng)
                loss_sum += loss
                if batch_grads is None:
                    batch_grads = grads
                else:
                    for acc, g in zip(batch_grads, grads):
                        acc += g
            scale = 1.0 / len(batch)
            batch_grads = [g * scale for g in batch_grads]
            new_params, state = adam_step(state, model.parameters(), batch_grads)
            model.set_parameters(new_params)

        train_loss = loss_sum / len(order)
        val_loss = np.mean([
            mse_loss(model_forward(model, val_x[i], "eval"), val_y[i])
            for i in range(len(val_x))
        ])
        if not np.isfinite([train_loss, val_loss]).all():
            raise ValueError(f"epoch {epoch}: loss is not finite "
                             f"(train {train_loss}, val {val_loss})")
        history.append((epoch, float(train_loss), float(val_loss)))

        if val_loss < best_val:
            best_val = val_loss
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return model, history


# ------------------------------------------------------------------ prediction

def states_to_pm1(states: np.ndarray) -> np.ndarray:
    """Binary state indices to the +1/-1 encoding (0 -> +1, 1 -> -1)."""
    states = np.asarray(states)
    if states.size and (states.min() < 0 or states.max() > 1):
        raise ValueError("only binary states can be sign-encoded")
    return 1.0 - 2.0 * states


def pm1_to_states(values: np.ndarray) -> np.ndarray:
    """Sign decode: value >= 0 -> state 0, value < 0 -> state 1."""
    return (np.asarray(values) < 0).astype(np.int64)


def predict_config(model: Model, h_cfg: StripeConfig, v_cfg: StripeConfig) -> PhaseConfig:
    """Full binary config predicted from the two stripe search results.

    The stripes are expanded to full-size +1/-1 maps, stacked as the
    2-channel input, run through an eval-mode forward pass, and the
    output sign is decoded (>= 0 means phase state 0).
    """
    if {h_cfg.orientation, v_cfg.orientation} != {"horizontal", "vertical"}:
        raise ValueError("need one horizontal and one vertical stripe config")
    if h_cfg.orientation != "horizontal":
        h_cfg, v_cfg = v_cfg, h_cfg
    n_rows = len(h_cfg.states)
    m_cols = len(v_cfg.states)
    shape = (n_rows, m_cols)
    x = np.stack([
        states_to_pm1(h_cfg.expand(shape).states),
        states_to_pm1(v_cfg.expand(shape).states),
    ], axis=-1)
    out = model_forward(model, x, "eval")
    return PhaseConfig(pm1_to_states(out), DEFAULT_PHASE_TABLE)


# ------------------------------------------------------------------ weights io

def save_model(path, model: Model) -> None:
    """Write conv weights and biases as alternating float32 tensor records."""
    save_tensors(path, model.parameters())


def load_model(path, dropout_after=DEFAULT_DROPOUT_AFTER,
               dropout_rate: float = DEFAULT_DROPOUT_RATE) -> Model:
    """Rebuild a model from a weights file.

    The file stores only conv parameters; dropout layers carry no state,
    so their placement is supplied here (defaults match
    :func:`make_model`).  Dropout never runs at eval time, which is the
    only mode a reloaded float32 model is meant for.
    """
    records = load_tensors(path)
    if not records or len(records) % 2:
        raise ValueError("weights file must hold (weights, bias) record pairs")
    layers = []
    n_convs = len(records) // 2
    for i in range(n_convs):
        w = records[2 * i].astype(float)
        b = records[2 * i + 1].astype(float)
        layers.append(ConvLayer(w, b))
        if (i + 1) in dropout_after and i + 1 < n_convs:
            layers.append(DropoutLayer(dropout_rate))
    return Model(layers)
