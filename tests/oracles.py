"""Reference helpers shared by the test modules."""

from pathlib import Path

import numpy as np

from risopt.evaluate import CSV_COLUMNS
from risopt.physics import (
    PHASE_TABLE,
    SPEED_OF_LIGHT,
    PhaseConfig,
    RisGeometry,
    RxSpec,
    TxSpec,
    _check_dims,
)


def flip_delta(ch, cfg, row, col, new_state, current_sum):
    """Cascade gain after switching one element, updated in O(1).

    ``current_sum`` must equal ``cascade_gain(ch, cfg)``; the input config
    is not modified.  Switching to the element's current state returns
    ``current_sum`` unchanged.  The greedy searches run this same update
    inline, so it is the per-step reference they are checked against.
    """
    n_rows, m_cols = ch.shape
    if not (0 <= row < n_rows and 0 <= col < m_cols):
        raise ValueError(f"element ({row}, {col}) out of range for {ch.shape}")
    if new_state not in (0, 1):
        raise ValueError(f"state {new_state} is not 0 or 1")
    old_state = int(cfg.states[row, col])
    if new_state == old_state:
        return current_sum
    hg = complex(ch.h[row, col] * ch.g[row, col])
    old_phase = np.deg2rad(PHASE_TABLE[old_state])
    new_phase = np.deg2rad(PHASE_TABLE[new_state])
    return current_sum + hg * (np.exp(1j * new_phase) - np.exp(1j * old_phase))


def phases_rad(cfg):
    """Reflection phase in radians of every element of ``cfg``."""
    return np.deg2rad(np.asarray(PHASE_TABLE)[cfg.states])


def scattered_field(geom, h, cfg, elevation_deg, azimuth_deg):
    """Scattered far field in direction (elevation, azimuth).

    Superposition over all elements of the Tx-side coefficient ``h``,
    unit-amplitude reflection with the element's configured phase, and
    the array steering factor, weighted by the cos(elevation) element
    pattern of the reflected wave.  ``physics.radiation_pattern`` is
    checked against this direct sum; it computes its own steering and
    reflection phases.
    """
    _check_dims(geom, h, cfg.states)
    t, p = np.deg2rad(elevation_deg), np.deg2rad(azimuth_deg)
    m = np.arange(geom.m_cols)[np.newaxis, :]
    n = np.arange(geom.n_rows)[:, np.newaxis]
    steer = geom.k0 * np.sin(t) * (m * geom.dx * np.cos(p) + n * geom.dy * np.sin(p))
    terms = h * np.exp(1j * (phases_rad(cfg) + steer))
    return complex(np.cos(t) * terms.sum())


def loop_gain(ch, states):
    """Cascade gain of the 0/1 ``states`` matrix, accumulated element by
    element: the sum of ``h * exp(j * phase) * g``."""
    total = 0.0 + 0.0j
    n_rows, m_cols = ch.shape
    for n in range(n_rows):
        for m in range(m_cols):
            refl = np.deg2rad(PHASE_TABLE[states[n, m]])
            total += ch.h[n, m] * np.exp(1j * refl) * ch.g[n, m]
    return total


def loop_field(geom, h, cfg, elev_deg, azim_deg):
    """Scattered field in direction (elevation, azimuth), accumulated
    element by element: each term multiplies the reflection and the
    steering phasor, where :func:`scattered_field` takes one ``exp`` of
    their summed phases."""
    k0 = 2 * np.pi * geom.carrier_freq / SPEED_OF_LIGHT
    t = np.deg2rad(elev_deg)
    p = np.deg2rad(azim_deg)
    total = 0.0 + 0.0j
    for n in range(geom.n_rows):
        for m in range(geom.m_cols):
            refl = np.deg2rad(PHASE_TABLE[cfg.states[n, m]])
            steer = k0 * (m * geom.dx * np.sin(t) * np.cos(p)
                          + n * geom.dy * np.sin(t) * np.sin(p))
            total += h[n, m] * np.exp(1j * refl) * np.exp(1j * steer)
    return np.cos(t) * total


def random_instance(rng, max_side=8, tx_azimuth_stop=360 - 1e-9):
    """A random surface of at most ``max_side`` x ``max_side`` elements,
    with a Tx, an Rx and a config: ``(geom, tx, rx, cfg)``.  The Tx
    azimuth is drawn from [0, ``tx_azimuth_stop``)."""
    m_cols = int(rng.integers(1, max_side + 1))
    n_rows = int(rng.integers(1, max_side + 1))
    freq = float(rng.uniform(1e9, 30e9))
    lam = SPEED_OF_LIGHT / freq
    geom = RisGeometry(m_cols, n_rows, lam * rng.uniform(0.3, 0.7),
                       lam * rng.uniform(0.3, 0.7), freq)
    tx = TxSpec(float(rng.uniform(0.3, 3.0)), float(rng.uniform(-80, 80)),
                float(rng.uniform(0, tx_azimuth_stop)))
    rx = RxSpec(float(rng.uniform(2.0, 50.0)), float(rng.uniform(-80, 80)),
                float(rng.uniform(0, 360)))
    cfg = PhaseConfig(rng.integers(0, 2, (n_rows, m_cols)))
    return geom, tx, rx, cfg


def with_state(cfg, row, col, state):
    """A copy of ``cfg`` with element (row, col) switched to ``state``."""
    states = cfg.states.copy()
    states[row, col] = state
    return PhaseConfig(states)


def expand_stripe(states, orientation, shape):
    """Full config of one stripe search's state vector: row n holds
    ``states[n]`` (horizontal) or column m holds ``states[m]`` (vertical)."""
    states = np.asarray(states, dtype=np.int64)
    line = states[:, np.newaxis] if orientation == "horizontal" else states[np.newaxis, :]
    return PhaseConfig(np.broadcast_to(line, shape).copy())


def num_parameters(model):
    """Total weight and bias count of a ``cnn.Model``."""
    return sum(p.size for p in model.parameters())


def load_report_csv(path) -> list:
    """Rows of a report CSV as dicts of floats (inverse of ``EvalReport.to_csv``)."""
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    header = tuple(lines[0].split(","))
    if header != CSV_COLUMNS:
        raise ValueError(f"unexpected report header {header!r}")
    out = []
    for line in lines[1:]:
        vals = line.split(",")
        if len(vals) != len(CSV_COLUMNS):
            raise ValueError("ragged report row")
        out.append({c: float(v) for c, v in zip(CSV_COLUMNS, vals)})
    return out


def serial_conv_forward(x, weights, bias):
    """The shifted-slab conv of ``cnn._conv_forward`` on one thread: the
    output rows in the same two halves, split at ``(H // 2) * Wp``, the
    first half and then the second, each a GEMM per kernel offset
    accumulated in order onto the bias.  A GEMM's rounding can depend on
    its row count, so the halves are what make the result the same on
    one thread and on two.  Returns the (H, W, cout) pre-activation and
    the flat padded input."""
    kh, kw, cin, cout = weights.shape
    h, w, _ = x.shape
    wp, n = w + kw - 1, h * (w + kw - 1)
    xp = np.pad(x, (((kh - 1) // 2, kh // 2 + 1), ((kw - 1) // 2, kw // 2), (0, 0)))
    xp = xp.reshape(-1, cin)
    z = np.full((n, cout), bias, dtype=x.dtype)
    mid = (h // 2) * wp
    for lo, hi in ((0, mid), (mid, n)):
        for dy in range(kh):
            for dx in range(kw):
                off = dy * wp + dx
                z[lo:hi] += xp[off + lo:off + hi] @ weights[dy, dx]
    return z.reshape(h, wp, cout)[:, :w], xp


def serial_conv_backward(xp, weights, dz):
    """(dW, db, dx) of :func:`serial_conv_forward` on one thread, the
    weight and input gradients interleaved offset by offset."""
    kh, kw, cin, cout = weights.shape
    h, w, _ = dz.shape
    wp, n = w + kw - 1, h * (w + kw - 1)
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
