"""Greedy configuration search over 0/180-degree surfaces.

Two greedy strategies share one bookkeeping convention: every
(configure + evaluate) attempt is one step, and the running maximum of
the objective after each step is recorded in the trace.

``im_optimize`` sweeps each element once in raster order and tries both
reflection states per element (M*N*2 steps).  ``gim_optimize`` sweeps
whole rows or whole columns instead (N*2 or M*2 steps) so a horizontal
and a vertical run together cost only (M+N)*2 steps; each returns a plain
int64 state vector (one state per row, or per column), and
``combine_stripes(h_states, v_states)`` merges the pair, rows first, into
a full per-element configuration.  ``exhaustive_optimize`` enumerates every
configuration and serves as a ground-truth oracle on tiny instances.

All greedy commits require strict improvement; ties keep the incumbent
state, which makes runs deterministic for a given channel realization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from risopt.physics import (
    PHASE_TABLE,
    ChannelMatrices,
    PhaseConfig,
    cascade_gain,
    objective,
)

EXHAUSTIVE_LIMIT = 2**24  # max number of enumerated configurations

# reflection phasors of state 0 and state 1, from the phases in degrees
_PHASORS = np.exp(1j * np.deg2rad(np.asarray(PHASE_TABLE)))


@dataclass(frozen=True)
class OptimizeTrace:
    """Step accounting for one optimizer run.

    ``best_objective_history[k]`` is the running best objective after
    step k; it is non-decreasing and has exactly ``steps`` entries.
    """

    steps: int
    best_objective_history: np.ndarray
    final_objective: float

    def __post_init__(self):
        history = np.asarray(self.best_objective_history, dtype=float)
        object.__setattr__(self, "best_objective_history", history)
        if history.ndim != 1 or len(history) != self.steps:
            raise ValueError("history length must equal the step count")
        if len(history) and np.any(np.diff(history) < 0):
            raise ValueError("best-objective history must be non-decreasing")


def im_optimize(ch: ChannelMatrices, init: PhaseConfig | None = None) -> tuple:
    """Element-wise greedy search: one raster pass, 2 trials per element.

    Elements are visited row 0..N-1, column 0..M-1 within each row.  Each
    of the 2 states is evaluated with every other element held at its
    committed state; a state is committed only if it strictly improves on
    the best objective seen so far.  The trace therefore has exactly
    M*N*2 steps and the final objective never falls below the objective
    of ``init`` (all-zero states when omitted).

    Each trial updates the running cascade sum in O(1) by
    ``h*g * (phasor[new] - phasor[old])``, on plain Python scalars, with
    ``h*g`` and the phasor differences computed once up front.
    """
    n_rows, m_cols = ch.shape
    if init is None:
        init = PhaseConfig.zeros(n_rows, m_cols)
    if init.shape != ch.shape:
        raise ValueError(f"init shape {init.shape} does not match channels {ch.shape}")

    h, g = ch.h.ravel(), ch.g.ravel()
    # real arithmetic: numpy's array complex multiply may round differently
    hg = list(map(complex, (h.real * g.real - h.imag * g.imag).tolist(),
                  (h.real * g.imag + h.imag * g.real).tolist()))
    phasor = _PHASORS.tolist()
    delta = [[new - old for old in phasor] for new in phasor]  # [new][old]
    states = init.states.ravel().tolist()
    current = cascade_gain(ch, init)
    best = abs(current)
    history = []
    for k, hg_k in enumerate(hg):
        committed = states[k]
        for state, delta_state in enumerate(delta):
            if state != committed:  # the committed state reproduces ``best``
                cand_sum = current + hg_k * delta_state[committed]
                cand = abs(cand_sum)
                if cand > best:
                    best, current, committed = cand, cand_sum, state
            history.append(best)
        states[k] = committed
    cfg = PhaseConfig(np.reshape(states, ch.shape))
    trace = OptimizeTrace(len(history), np.array(history), best)
    return cfg, trace


def gim_optimize(ch: ChannelMatrices, orientation: str = "horizontal") -> tuple:
    """Stripe-wise greedy search over rows (horizontal) or columns (vertical).

    Returns ``(states, trace)``: ``states`` is an int64 vector of N row
    states (horizontal) or M column states (vertical).

    All elements start at state 0 and the best objective starts at -inf,
    so the very first evaluation always registers.  For each stripe, each
    state is applied to the whole stripe with every other stripe held at
    its committed state; the stripe state is committed only on strict
    improvement.  Steps: N*2 (horizontal) or M*2 (vertical).  Each trial
    updates the running cascade sum in O(1) from the stripe's summed ``h*g``;
    like ``im_optimize``, the loop runs on plain Python scalars.
    """
    if orientation not in ("horizontal", "vertical"):
        raise ValueError(f"orientation must be 'horizontal' or 'vertical', got {orientation!r}")

    hg = ch.h * ch.g
    # total cascade contribution of each stripe (all its elements share a state)
    stripe_hg = (hg.sum(axis=1) if orientation == "horizontal" else hg.sum(axis=0)).tolist()
    current = complex(hg.sum() * _PHASORS[0])  # all elements at state 0
    phasor = _PHASORS.tolist()

    states = []
    best = -np.inf
    history = []
    for stripe_hg_i in stripe_hg:
        committed = 0
        for j, phasor_j in enumerate(phasor):
            if j == committed:
                cand_sum = current
            else:
                cand_sum = current + stripe_hg_i * (phasor_j - phasor[committed])
            cand = abs(cand_sum)
            if cand > best:
                best, current, committed = cand, cand_sum, j
            history.append(best)
        states.append(committed)
    trace = OptimizeTrace(len(history), np.array(history), best)
    return np.array(states, dtype=np.int64), trace


def combine_stripes(h_states, v_states) -> PhaseConfig:
    """Merge the row states of a horizontal stripe search and the column
    states of a vertical one into a full config.

    Element (row n, column m) takes the phase of row state n plus the
    phase of column state m, modulo 360: on the 0/180 surface that is the
    XOR of the two state bits.
    """
    h_states, v_states = np.asarray(h_states), np.asarray(v_states)
    for name, states in (("row", h_states), ("column", v_states)):
        if states.ndim != 1 or states.dtype.kind not in "iu":
            raise ValueError(f"{name} states must be a 1-D integer vector")
        if states.size and not (states.min() >= 0 and states.max() <= 1):
            raise ValueError(f"{name} states must be 0 or 1")
    return PhaseConfig(h_states[:, np.newaxis] ^ v_states[np.newaxis, :])


def exhaustive_optimize(ch: ChannelMatrices) -> tuple:
    """Global optimum by enumerating all 2^(M*N) configurations.

    Configurations are encoded little-endian in raster order (the element
    at raster index i is bit i) and ties go to the lowest encoding.
    Flipping every element leaves the objective mathematically unchanged,
    so exact ties are the norm, not the exception; tie detection
    therefore uses a 1e-12 relative band rather than bit equality, which
    would make the winner depend on floating-point summation order.
    Refuses instances with more than 2^24 configurations.
    """
    n_rows, m_cols = ch.shape
    n_elem = n_rows * m_cols
    n_configs = 2**n_elem
    if n_configs > EXHAUSTIVE_LIMIT:
        raise ValueError(f"2^{n_elem} configurations exceed the {EXHAUSTIVE_LIMIT} limit")

    hg = (ch.h * ch.g).reshape(-1)  # row-major raster order
    per_state = hg[:, np.newaxis] * _PHASORS[np.newaxis, :]  # (n_elem, 2)
    bits = np.arange(n_elem)
    chunk = 1 << 14

    def chunk_vals(start):
        enc = np.arange(start, min(start + chunk, n_configs), dtype=np.int64)
        digits = (enc[:, np.newaxis] >> bits) & 1
        return np.abs(per_state[bits, digits].sum(axis=1))

    best_val = -np.inf
    for start in range(0, n_configs, chunk):
        best_val = max(best_val, float(chunk_vals(start).max()))

    threshold = best_val * (1 - 1e-12)
    best_enc = None
    for start in range(0, n_configs, chunk):
        hits = np.nonzero(chunk_vals(start) >= threshold)[0]
        if len(hits):
            best_enc = start + int(hits[0])
            break
    assert best_enc is not None

    cfg = PhaseConfig(((best_enc >> bits) & 1).reshape(n_rows, m_cols))
    return cfg, objective(ch, cfg)


def step_count(method: str, m_cols: int, n_rows: int, num_states: int) -> int:
    """Planned (configure + evaluate) attempts for a full optimizer run."""
    if m_cols < 1 or n_rows < 1 or num_states < 1:
        raise ValueError("dimensions and state count must be positive")
    if method == "IM":
        return m_cols * n_rows * num_states
    if method == "GIM":
        return (m_cols + n_rows) * num_states
    raise ValueError(f"unknown method {method!r}; expected 'IM' or 'GIM'")
