"""Self-contained convolutional network for stripe-to-full config prediction.

The network maps a 2-channel H x W image (the expanded horizontal and
vertical stripe configurations, encoded +1/-1) to a single-channel map
whose sign gives the predicted per-element binary phase state.  Default
architecture: channel chain 2 -> 4 -> 16 -> 32 -> 128 -> 64 -> 8 -> 4
-> 1 with square kernels 3, 3, 3, 5, 5, 3, 3, 3, same padding, stride 1,
a bias and tanh on every conv layer, and rate-0.2 inverted dropout after
the third and sixth conv layers.

Every pass runs in the dtype of the model's parameters: float32 from
``make_model`` (finite-difference checks pass ``dtype=np.float64``) and
from ``load_model``, so ``train``, ``eval`` and ``optimize --method cnn``
run in float32; ``predict_config`` re-decides near-zero outputs in float64.
Tensors are (height, width, channels), kernels (kh, kw, in_channels,
out_channels).  No autograd: the backward pass is written out by hand.

Convolution is a shifted-slab GEMM (low-memory GEMM convolution): the
padded input, flattened to (rows * Wp, cin) with ``Wp = W + kw - 1``,
gives one contiguous slab view per kernel offset, starting at row
``dy * Wp + dx``.  Each offset is one GEMM accumulated in place, with no
im2col copy; the ``Wp - W`` wrap columns are cropped.  The backward pass
uses the same slabs for ``dW`` and the input gradient.

The forward pass computes the output rows in two fixed halves, split at
``(H // 2) * Wp``; the backward pass computes ``dW`` and the input
gradient in two separate loops.  When a core is idle, a layer of at
least ``SPLIT_MACS`` multiply-accumulates (``H*W*kh*kw*cin*cout``) hands
the second half, or the ``dW`` loop, to one module-level worker thread,
as numpy releases the GIL inside BLAS; a smaller layer runs both on the
calling thread, where the hand-off would cost more than it saves.  Every
GEMM and accumulation order is the same either way, so results do not
depend on the core count (OpenBLAS's own thread count can still round
``dW`` differently).  A core counts as idle when the process may run on
more cores than numpy's OpenBLAS uses (read once at import); where that
thread count cannot be read, everything runs inline.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from risopt.physics import PhaseConfig
from risopt.tensorfile import load_tensors, save_tensors

DEFAULT_CHANNELS = (2, 4, 16, 32, 128, 64, 8, 4, 1)
DEFAULT_KERNELS = (3, 3, 3, 5, 5, 3, 3, 3)
DEFAULT_DROPOUT_AFTER = (3, 6)  # dropout follows conv layers 3 and 6 (1-based)
DROPOUT_RATE = 0.2

ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8

# a float32 output closer to 0 than this is re-decided in float64 (predict_config)
SIGN_MARGIN = 1e-5


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
class Model:
    """Conv layers in order, with inverted dropout (seeded passes only) after
    each conv whose 1-based index is in ``dropout_after``."""

    convs: list
    dropout_after: tuple = ()

    def __post_init__(self):
        if not self.convs:
            raise ValueError("model needs at least one conv layer")
        for a, b in zip(self.convs, self.convs[1:]):
            if a.weights.shape[3] != b.weights.shape[2]:
                raise ValueError("conv channel chain is inconsistent")
        if not all(1 <= i <= len(self.convs) for i in self.dropout_after):
            raise ValueError(f"dropout_after must hold conv indices in [1, {len(self.convs)}]")

    @property
    def in_channels(self) -> int:
        return self.convs[0].weights.shape[2]

    @property
    def min_spatial(self) -> int:
        return max(max(l.weights.shape[0], l.weights.shape[1]) for l in self.convs)

    def parameters(self) -> list:
        return [p for layer in self.convs for p in (layer.weights, layer.bias)]

    def copy(self, dtype=None) -> "Model":
        """A deep copy, with parameters cast to ``dtype`` if given."""
        return Model([ConvLayer(np.array(l.weights, dtype), np.array(l.bias, dtype))
                      for l in self.convs],
                     self.dropout_after)


def make_model(
    rng_seed: int = 0,
    channels=DEFAULT_CHANNELS,
    kernels=DEFAULT_KERNELS,
    dropout_after=DEFAULT_DROPOUT_AFTER,
    dtype=np.float32,
) -> Model:
    """Build a model with uniform Glorot weights and zero biases.

    Every forward/backward pass runs in ``dtype``; float64 (for
    finite-difference gradient checks) takes about twice as long.  The
    weights are drawn in float64, so both dtypes save the same bytes.
    """
    if len(channels) != len(kernels) + 1:
        raise ValueError("need one more channel count than kernel sizes")
    rng = np.random.default_rng(rng_seed)
    convs = []
    for i, k in enumerate(kernels):
        cin, cout = channels[i], channels[i + 1]
        fan_in = k * k * cin
        fan_out = k * k * cout
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, (k, k, cin, cout)).astype(dtype)
        convs.append(ConvLayer(weights, np.zeros(cout, dtype=dtype)))
    return Model(convs, tuple(dropout_after))


# ------------------------------------------------------------------ conv core

def _blas_threads():
    """The thread count of numpy's bundled OpenBLAS, or None if it cannot
    be read."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/lib*openblas*.so*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(dll, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def _conv_threads(blas_threads) -> int:
    """2 when the process may run on more cores than BLAS uses, else 1."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return 2 if blas_threads is not None and (cores or 1) > blas_threads else 1


# read once at import: BLAS's thread count (None if unreadable), and the
# number of threads a conv layer of SPLIT_MACS or more runs on
BLAS_THREADS = _blas_threads()
CONV_THREADS = _conv_threads(BLAS_THREADS)
# the fewest H*W*kh*kw*cin*cout that pay for a hand-off to the worker
SPLIT_MACS = 2**25


@functools.cache
def _worker():
    # imported here: concurrent.futures adds about 0.8 MiB to every process
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, thread_name_prefix="risopt-conv")


# a forked child has no worker thread: it starts its own on first use
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_worker.cache_clear)


def _on_two_threads(here, there, macs: int) -> None:
    """Run ``there`` on the conv worker thread, in this thread's context
    (numpy's error state), while ``here`` runs on this one; with no idle
    core, or below ``SPLIT_MACS`` multiply-accumulates, run both here."""
    if CONV_THREADS == 1 or macs < SPLIT_MACS:
        here()
        return there()
    pending = _worker().submit(contextvars.copy_context().run, there)
    try:
        here()
    finally:
        pending.result()


def _conv_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray):
    """Shifted-slab same conv of (H, W, cin) ``x``: (H, W, cout) pre-activation
    and the flat padded input that :func:`_conv_backward` needs."""
    kh, kw, cin, cout = weights.shape
    h, w, _ = x.shape
    wp, n = w + kw - 1, h * (w + kw - 1)
    # the extra bottom row keeps the last offset's slab in bounds
    xp = np.zeros(((h + kh) * wp, cin), dtype=x.dtype)
    xp.reshape(h + kh, wp, cin)[(kh - 1) // 2:, (kw - 1) // 2:][:h, :w] = x
    z = np.empty((n, cout), dtype=x.dtype)
    taps = [(dy * wp + dx, weights[dy, dx]) for dy in range(kh) for dx in range(kw)]

    def rows(lo, hi):
        np.add(xp[lo:hi] @ weights[0, 0], bias, out=z[lo:hi])
        for off, tap in taps[1:]:
            z[lo:hi] += xp[off + lo:off + hi] @ tap

    mid = (h // 2) * wp
    _on_two_threads(lambda: rows(0, mid), lambda: rows(mid, n), h * w * weights.size)
    return z.reshape(h, wp, cout)[:, :w], xp


def _conv_backward(xp: np.ndarray, weights: np.ndarray, dz: np.ndarray):
    """Gradients (dW, db, dx) of :func:`_conv_forward` given dL/dz (H, W, cout)."""
    kh, kw, cin, cout = weights.shape
    h, w, _ = dz.shape
    wp, n = w + kw - 1, h * (w + kw - 1)
    # the wrap columns were cropped in the forward pass: their gradient is zero
    dzp = np.pad(dz, ((0, 0), (0, kw - 1), (0, 0))).reshape(n, cout)
    offsets = [(dy, dx, dy * wp + dx) for dy in range(kh) for dx in range(kw)]
    dw = np.empty_like(weights)
    dxp = np.zeros_like(xp)

    def weight_grads():
        for dy, dx, off in offsets:
            dw[dy, dx] = xp[off:off + n].T @ dzp

    def input_grads():
        for dy, dx, off in offsets:
            dxp[off:off + n] += dzp @ weights[dy, dx].T

    _on_two_threads(input_grads, weight_grads, h * w * weights.size)
    top, left = (kh - 1) // 2, (kw - 1) // 2
    dx = dxp.reshape(-1, wp, cin)[top:top + h, left:left + w]
    return dw, dz.reshape(-1, cout).sum(axis=0), dx


def _forward_pass(model: Model, x: np.ndarray, rng):
    """Run all layers, with dropout drawn from ``rng`` unless it is None,
    returning the last activation and per-conv caches ``(layer, padded
    input, tanh output, dropout mask or None)``."""
    caches = []
    a = x
    for i, layer in enumerate(model.convs, start=1):
        z, xp = _conv_forward(a, layer.weights, layer.bias)
        act = np.tanh(z)
        keep = None
        if rng is not None and i in model.dropout_after:
            keep = rng.random(act.shape) >= DROPOUT_RATE
        caches.append((layer, xp, act, keep))
        a = act if keep is None else act * keep * (1.0 / (1.0 - DROPOUT_RATE))
    return a, caches


def _check_shape(model: Model, shape: tuple) -> None:
    """Reject an image shape other than (H >= kernel, W >= kernel, in_channels)."""
    if len(shape) != 3 or shape[2] != model.in_channels:
        raise ValueError(f"input must be (H, W, {model.in_channels}), got {shape}")
    if min(shape[0], shape[1]) < model.min_spatial:
        raise ValueError(f"input {shape} is smaller than the largest kernel "
                         f"({model.min_spatial}x{model.min_spatial})")


def _check_input(model: Model, x: np.ndarray) -> np.ndarray:
    # follow the parameter dtype so float32 models run fully in float32
    x = np.asarray(x, dtype=model.convs[0].weights.dtype)
    _check_shape(model, x.shape)
    return x


def _rng(seed):
    return None if seed is None else np.random.default_rng(seed)


def model_forward(model: Model, x, rng_seed: int | None = None) -> np.ndarray:
    """Network output for one input image.

    With ``rng_seed`` the pass is a training pass, with inverted dropout
    drawn from that seed; without it the pass is deterministic.  A
    single-channel result is squeezed to (H, W).
    """
    x = _check_input(model, x)
    out, _ = _forward_pass(model, x, _rng(rng_seed))
    return out[:, :, 0] if out.shape[2] == 1 else out


def mse_loss(pred, target) -> float:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def _loss_and_grads(model: Model, x: np.ndarray, target: np.ndarray, rng):
    """Forward + reverse pass (dropout as in :func:`_forward_pass`); returns
    (:func:`mse_loss`, grads aligned with parameters())."""
    out, caches = _forward_pass(model, x, rng)
    target = np.asarray(target, dtype=out.dtype)
    if target.ndim == 2:
        target = target[:, :, np.newaxis]
    loss = mse_loss(out, target)
    diff = out - target
    da = 2.0 * diff / diff.size

    grads = []
    for layer, xp, act, keep in reversed(caches):
        if keep is not None:
            da = da * keep * (1.0 / (1.0 - DROPOUT_RATE))
        dw, db, da = _conv_backward(xp, layer.weights, da * (1.0 - act * act))
        grads += [db, dw]
    grads.reverse()
    return loss, grads


def model_backward(model: Model, x, target, rng_seed: int | None = None) -> list:
    """Gradient of the MSE loss w.r.t. every weight and bias.

    The same ``rng_seed`` reproduces the dropout masks of the matching
    :func:`model_forward` call, so the gradients correspond exactly to
    that pass; without one, to the deterministic pass.
    """
    x = _check_input(model, x)
    _, grads = _loss_and_grads(model, x, target, _rng(rng_seed))
    return grads


# ------------------------------------------------------------------ optimizer

@dataclass
class AdamState:
    first_moment: list
    second_moment: list
    step_count: int
    lr: float

    @classmethod
    def init(cls, params, lr: float = 1e-3) -> "AdamState":
        return cls([np.zeros_like(p) for p in params],
                   [np.zeros_like(p) for p in params], 0, lr)


def adam_step(state: AdamState, params, grads) -> tuple:
    """One bias-corrected ADAM update; returns (new params, new state)."""
    if not (len(params) == len(grads) == len(state.first_moment)):
        raise ValueError("params/grads/state length mismatch")
    t = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        new_params.append(p - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(new_m, new_v, t, state.lr)


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
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"learning rate must be finite and >= 0, got {self.lr}")


def _as_dataset(name, data, model: Model):
    """A set's (inputs, targets) in the model's dtype, checked for the model."""
    inputs, targets = (np.asarray(a, dtype=model.convs[0].weights.dtype) for a in data)
    if len(inputs) == 0:
        raise ValueError(f"{name} set is empty")
    if targets.shape != inputs.shape[:3]:
        raise ValueError(f"{name} set must be (N, H, W, C) inputs with (N, H, W) targets")
    _check_shape(model, inputs.shape[1:])
    if not (np.isfinite(inputs).all() and np.isfinite(targets).all()):
        raise ValueError(f"{name} set holds NaN or infinite values")
    return inputs, targets


def train(model: Model, train_set, val_set, cfg: TrainConfig, progress=None) -> tuple:
    """Mini-batch ADAM training with early stopping on validation loss.

    Per epoch: seeded shuffle, gradient averaged over each batch, one
    ADAM step per batch, then a full deterministic validation pass.  Training
    stops once the validation loss has gone ``cfg.patience`` consecutive
    epochs without improving its running minimum, or at
    ``cfg.max_epochs``.  The weights are whatever the last epoch left
    behind (no rollback to the best-validation epoch).

    Returns ``(trained model, history)`` where history rows are
    ``(epoch, train_loss, val_loss)`` with 1-based epoch numbers.  The
    input model is not modified.  ``progress``, if given, is called with
    each history row as soon as its epoch ends.  Both sets are checked
    before the first step, with the shape rule of :func:`model_forward`.
    """
    train_x, train_y = _as_dataset("train", train_set, model)
    val_x, val_y = _as_dataset("val", val_set, model)

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
                loss, grads = _loss_and_grads(model, train_x[idx], train_y[idx], rng)
                loss_sum += loss
                if batch_grads is None:
                    batch_grads = grads
                else:
                    for acc, g in zip(batch_grads, grads):
                        acc += g
            scale = 1.0 / len(batch)
            batch_grads = [g * scale for g in batch_grads]
            new_params, state = adam_step(state, model.parameters(), batch_grads)
            for layer, w, b in zip(model.convs, new_params[::2], new_params[1::2]):
                layer.weights, layer.bias = w, b

        train_loss = loss_sum / len(order)
        val_loss = np.mean([
            mse_loss(model_forward(model, val_x[i]), val_y[i])
            for i in range(len(val_x))
        ])
        if not np.isfinite([train_loss, val_loss]).all():
            raise ValueError(f"epoch {epoch}: loss is not finite "
                             f"(train {train_loss}, val {val_loss})")
        history.append((epoch, float(train_loss), float(val_loss)))
        if progress is not None:
            progress(*history[-1])

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


def stripe_image(h_states, v_states) -> np.ndarray:
    """The (H, W, 2) +1/-1 network input of a stripe pair: channel 0 holds
    the H horizontal-stripe (row) states, constant along each row, and
    channel 1 the W vertical-stripe (column) states, constant along each
    column; state 0 -> +1, state 1 -> -1."""
    h = states_to_pm1(h_states)[:, np.newaxis]
    v = states_to_pm1(v_states)[np.newaxis, :]
    return np.stack(np.broadcast_arrays(h, v), axis=-1)


def stripe_states(image) -> tuple:
    """The (row states, column states) a :func:`stripe_image` encodes, read
    from its first column (channel 0) and first row (channel 1)."""
    return pm1_to_states(image[:, 0, 0]), pm1_to_states(image[0, :, 1])


def predict_config(model: Model, image) -> PhaseConfig:
    """Full binary config predicted from a :func:`stripe_image`: an
    deterministic forward pass, sign-decoded (>= 0 means phase state 0).

    The pass runs in the model's dtype.  A float32 output that lies within
    ``SIGN_MARGIN`` of zero could have the opposite sign in float64, so if
    any does, the image is run again in float64 from the same weights and
    that output is decoded instead; the decisions are then those of a
    float64 pass.  Over 2,000 images of seeded default networks, the
    float32 output was at most 5.6e-7 away from the float64 one; 1e-5 is
    about 18x that, and about 5% of those images took the re-run.
    """
    out = model_forward(model, image)
    if out.dtype == np.float32 and (np.abs(out) < SIGN_MARGIN).any():
        out = model_forward(model.copy(np.float64), image)
    return PhaseConfig(pm1_to_states(out))


# ------------------------------------------------------------------ weights io

def save_model(path, model: Model) -> None:
    """Write conv weights and biases as alternating float32 tensor records."""
    save_tensors(path, model.parameters())


def load_model(path) -> Model:
    """Rebuild a model from a weights file, for deterministic passes only.

    The model keeps the file's float32, so its passes run in float32;
    :func:`predict_config` re-runs an image in float64 when an output lies
    within ``SIGN_MARGIN`` (1e-5, about 18x the largest float32 error
    measured) of zero, so its decisions match a float64 pass.  The file
    stores only conv parameters, so the model has no dropout, which only
    training passes apply.
    """
    records = load_tensors(path)
    if not records or len(records) % 2:
        raise ValueError("weights file must hold (weights, bias) record pairs")
    return Model([ConvLayer(records[i], records[i + 1])
                  for i in range(0, len(records), 2)])
