"""Reference helpers shared by the test modules."""

from pathlib import Path

import numpy as np

from risopt.evaluate import CSV_COLUMNS
from risopt.physics import PHASE_TABLE, PhaseConfig


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
