"""Reference helpers shared by the test modules."""

from pathlib import Path

import numpy as np

from risopt.evaluate import CSV_COLUMNS
from risopt.physics import PHASE_TABLE, PhaseConfig, _check_dims


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
    """The shifted-slab conv of ``cnn._conv_forward`` on one thread: every
    kernel offset is one GEMM over all output rows, accumulated in order.
    Returns the (H, W, cout) pre-activation and the flat padded input."""
    kh, kw, cin, cout = weights.shape
    h, w, _ = x.shape
    wp, n = w + kw - 1, h * (w + kw - 1)
    xp = np.pad(x, (((kh - 1) // 2, kh // 2 + 1), ((kw - 1) // 2, kw // 2), (0, 0)))
    xp = xp.reshape(-1, cin)
    z = np.full((n, cout), bias, dtype=x.dtype)
    for dy in range(kh):
        for dx in range(kw):
            off = dy * wp + dx
            z += xp[off:off + n] @ weights[dy, dx]
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
