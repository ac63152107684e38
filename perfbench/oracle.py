"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports risopt: the reference values come from the physics
and algorithms as the paper states them, written out again in plain
numpy, so a defect in the package cannot hide in its own reference.
Only the binary 0/180 degree surface is covered, which is the one the
benchmark runs.

- ``read_tensors``: parser for the RIST float32 container.
- ``Desk``: surface geometry with its channel, objective and
  radiation-pattern formulas.
- ``greedy_elements`` / ``greedy_stripes``: the element-wise (IM) and
  stripe-wise (G-IM) greedy searches with strict-improvement commits.
- ``cnn_forward``: same-padding conv + tanh stack read from a weights file.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
PHASOR = np.exp(1j * np.deg2rad(np.array([0.0, 180.0])))
FLIP = complex(PHASOR[1] - PHASOR[0])


def read_tensors(path) -> list:
    """Records of a RIST file: b"RIST", u16 version 1, u8 rank, u32 dims, f32 data."""
    data = Path(path).read_bytes()
    out, offset = [], 0
    while offset < len(data):
        magic, version, rank = struct.unpack_from("<4sHB", data, offset)
        if magic != b"RIST" or version != 1:
            raise ValueError(f"{path}: bad record header at byte {offset}")
        offset += 7
        dims = struct.unpack_from(f"<{rank}I", data, offset)
        offset += 4 * rank
        count = math.prod(dims)
        out.append(np.frombuffer(data, "<f4", count, offset).reshape(dims))
        offset += 4 * count
    return out


@dataclass(frozen=True)
class Desk:
    """Half-wavelength N x M surface, Tx on boresight, far-field Rx."""

    m_cols: int = 40
    n_rows: int = 40
    freq_hz: float = 5e9
    tx_dist: float = 1.0
    rx_dist: float = 10.0

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.freq_hz

    @property
    def wavenumber(self) -> float:
        return 2 * np.pi / self.wavelength

    def tx_side(self) -> np.ndarray:
        """Near-field illumination: (lambda/4 pi r) e^{-j k r} cos(incidence)."""
        d = self.wavelength / 2
        x = (np.arange(self.m_cols) - (self.m_cols - 1) / 2) * d
        y = (np.arange(self.n_rows) - (self.n_rows - 1) / 2) * d
        r = np.sqrt(x[np.newaxis, :] ** 2 + y[:, np.newaxis] ** 2 + self.tx_dist ** 2)
        return (self.wavelength / (4 * np.pi * r) * np.exp(-1j * self.wavenumber * r)
                * (self.tx_dist / r))

    def ramps(self, elevation_deg, azimuth_deg):
        """Far-field phase ramps e^{j k d n v} (..., N) and e^{j k d m u} (..., M)."""
        t = np.deg2rad(np.asarray(elevation_deg, dtype=float))[..., np.newaxis]
        p = np.deg2rad(np.asarray(azimuth_deg, dtype=float))[..., np.newaxis]
        kd = self.wavenumber * self.wavelength / 2
        rows = np.exp(1j * kd * np.sin(t) * np.sin(p) * np.arange(self.n_rows))
        cols = np.exp(1j * kd * np.sin(t) * np.cos(p) * np.arange(self.m_cols))
        return rows, cols

    def cascade(self, elevation_deg: float, azimuth_deg: float) -> np.ndarray:
        """Per-element h*g toward a receiver at (elevation, azimuth)."""
        path_loss = self.wavelength / (4 * np.pi * self.rx_dist)
        rows, cols = self.ramps(elevation_deg, azimuth_deg)
        g = path_loss * math.cos(math.radians(elevation_deg)) * np.outer(rows, cols)
        return self.tx_side() * g

    @staticmethod
    def power_db(hg: np.ndarray, states: np.ndarray) -> float:
        """20 log10 |sum h g e^{j phase}| for binary states."""
        return 20 * math.log10(abs(complex((hg * PHASOR[states]).sum())))

    def pattern(self, states, elevations, azimuths) -> np.ndarray:
        """|scattered field| over an elevation x azimuth grid."""
        weights = self.tx_side() * PHASOR[states]
        out = np.empty((len(elevations), len(azimuths)))
        for i, el in enumerate(elevations):
            rows, cols = self.ramps(np.full(len(azimuths), el), azimuths)
            field = ((rows @ weights) * cols).sum(axis=1) * math.cos(math.radians(el))
            out[i] = np.abs(field)
        return out


def greedy_elements(hg: np.ndarray):
    """IM search: raster order, flip an element only on strict improvement.

    Returns (states, steps, commits); every element costs two steps (its
    current state 0, which never commits, and state 1).
    """
    states = np.zeros(hg.shape, dtype=np.int64)
    current = complex(hg.sum())
    best = abs(current)
    commits = 0
    for idx, value in enumerate(hg.ravel().tolist()):
        cand = current + value * FLIP
        if abs(cand) > best:
            best, current = abs(cand), cand
            states.flat[idx] = 1
            commits += 1
    return states, 2 * hg.size, commits


def greedy_stripes(hg: np.ndarray, orientation: str):
    """G-IM search over rows (horizontal) or columns (vertical).

    Returns (stripe states, steps).
    """
    stripe = hg.sum(axis=1 if orientation == "horizontal" else 0)
    states = np.zeros(len(stripe), dtype=np.int64)
    current = complex(hg.sum())
    best = abs(current)
    for i, value in enumerate(stripe.tolist()):
        cand = current + value * FLIP
        if abs(cand) > best:
            best, current = abs(cand), cand
            states[i] = 1
    return states, 2 * len(stripe)


def combine(h_states: np.ndarray, v_states: np.ndarray) -> np.ndarray:
    """Row phase plus column phase: XOR of the bits on a 0/180 surface."""
    return h_states[:, np.newaxis] ^ v_states[np.newaxis, :]


def stripe_image(h_states: np.ndarray, v_states: np.ndarray) -> np.ndarray:
    """(N, M, 2) +1/-1 network input from the two stripe configs."""
    rows = np.repeat((1 - 2 * h_states)[:, np.newaxis], len(v_states), axis=1)
    cols = np.repeat((1 - 2 * v_states)[np.newaxis, :], len(h_states), axis=0)
    return np.stack([rows, cols], axis=-1).astype(float)


def read_weights(path) -> list:
    """(kernel, bias) float64 pairs from a weights file."""
    records = [r.astype(float) for r in read_tensors(path)]
    return list(zip(records[0::2], records[1::2]))


def cnn_forward(params, x: np.ndarray) -> np.ndarray:
    """Eval-mode output map: same-padding cross-correlation, bias, tanh."""
    a = np.asarray(x, dtype=float)
    height, width = a.shape[:2]
    for kernel, bias in params:
        k = kernel.shape[0]
        padded = np.pad(a, (((k - 1) // 2, k // 2), ((k - 1) // 2, k // 2), (0, 0)))
        z = np.zeros((height, width, len(bias))) + bias
        for dy in range(k):
            for dx in range(k):
                z += padded[dy:dy + height, dx:dx + width] @ kernel[dy, dx]
        a = np.tanh(z)
    return a[:, :, 0]
