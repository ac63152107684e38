"""Reference helpers shared by the test modules."""

import numpy as np


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
    if not 0 <= new_state < cfg.num_states:
        raise ValueError(f"state {new_state} out of range for P={cfg.num_states}")
    old_state = int(cfg.states[row, col])
    if new_state == old_state:
        return current_sum
    hg = complex(ch.h[row, col] * ch.g[row, col])
    table = cfg.phase_table
    old_phase = np.deg2rad(table[old_state])
    new_phase = np.deg2rad(table[new_state])
    return current_sum + hg * (np.exp(1j * new_phase) - np.exp(1j * old_phase))
