"""Greedy configuration search over discrete-phase surfaces.

Two greedy strategies share one bookkeeping convention: every
(configure + evaluate) attempt is one step, and the running maximum of
the objective after each step is recorded in the trace.

``im_optimize`` sweeps each element once in raster order and tries every
reflection state per element (M*N*P steps).  ``gim_optimize`` sweeps
whole rows or whole columns instead (N*P or M*P steps) so a horizontal
and a vertical run together cost only (M+N)*P steps; the two stripe
results are merged into a full per-element configuration by
``combine_stripes``.  ``exhaustive_optimize`` enumerates every
configuration and serves as a ground-truth oracle on tiny instances.

All greedy commits require strict improvement; ties keep the incumbent
state, which makes runs deterministic for a given channel realization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from risopt.physics import (
    DEFAULT_PHASE_TABLE,
    ChannelMatrices,
    PhaseConfig,
    cascade_gain,
    objective,
)

ORIENTATIONS = ("horizontal", "vertical")

EXHAUSTIVE_LIMIT = 2**24  # max number of enumerated configurations


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


@dataclass(frozen=True)
class StripeConfig:
    """One state index per row (horizontal) or per column (vertical)."""

    orientation: str
    states: np.ndarray

    def __post_init__(self):
        if self.orientation not in ORIENTATIONS:
            raise ValueError(f"orientation must be one of {ORIENTATIONS}")
        states = np.asarray(self.states, dtype=np.int64)
        if states.ndim != 1:
            raise ValueError("stripe states must be a 1-D vector")
        object.__setattr__(self, "states", states)

    def expand(self, shape: tuple, phase_table=DEFAULT_PHASE_TABLE) -> PhaseConfig:
        """Full per-element config with constant rows (or columns)."""
        n_rows, m_cols = shape
        if self.orientation == "horizontal":
            if len(self.states) != n_rows:
                raise ValueError(f"expected {n_rows} row states, got {len(self.states)}")
            full = np.repeat(self.states[:, np.newaxis], m_cols, axis=1)
        else:
            if len(self.states) != m_cols:
                raise ValueError(f"expected {m_cols} column states, got {len(self.states)}")
            full = np.repeat(self.states[np.newaxis, :], n_rows, axis=0)
        return PhaseConfig(full, phase_table)


def _normalize_table(phase_table) -> tuple:
    table = tuple(float(v) for v in phase_table)
    if not table:
        raise ValueError("phase_table must be non-empty")
    return table


def im_optimize(
    ch: ChannelMatrices,
    phase_table=DEFAULT_PHASE_TABLE,
    init: PhaseConfig | None = None,
) -> tuple:
    """Element-wise greedy search: one raster pass, P trials per element.

    Elements are visited row 0..N-1, column 0..M-1 within each row.  Each
    of the P states is evaluated with every other element held at its
    committed state; a state is committed only if it strictly improves on
    the best objective seen so far.  The trace therefore has exactly
    M*N*P steps and the final objective never falls below the objective
    of ``init`` (all-zero states when omitted).

    Each trial updates the running cascade sum in O(1) with the same
    arithmetic as ``flip_delta``; the loop itself is plain Python scalars,
    with ``h*g`` and the P x P phasor differences computed once up front.
    """
    table = _normalize_table(phase_table)
    n_rows, m_cols = ch.shape
    if init is None:
        init = PhaseConfig.zeros(n_rows, m_cols, table)
    if init.shape != ch.shape:
        raise ValueError(f"init shape {init.shape} does not match channels {ch.shape}")
    if init.phase_table != table:
        raise ValueError("init phase_table differs from the requested table")

    h, g = ch.h.ravel(), ch.g.ravel()
    # real arithmetic: numpy's array complex multiply may round differently
    hg = list(map(complex, (h.real * g.real - h.imag * g.imag).tolist(),
                  (h.real * g.imag + h.imag * g.real).tolist()))
    phasor = [np.exp(1j * np.deg2rad(v)) for v in table]
    delta = [[complex(new - old) for old in phasor] for new in phasor]  # [new][old]
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
    cfg = PhaseConfig(np.reshape(states, ch.shape), table)
    trace = OptimizeTrace(len(history), np.array(history), best)
    return cfg, trace


def gim_optimize(
    ch: ChannelMatrices,
    phase_table=DEFAULT_PHASE_TABLE,
    orientation: str = "horizontal",
) -> tuple:
    """Stripe-wise greedy search over rows (horizontal) or columns (vertical).

    All elements start at state 0 and the best objective starts at -inf,
    so the very first evaluation always registers.  For each stripe, each
    state is applied to the whole stripe with every other stripe held at
    its committed state; the stripe state is committed only on strict
    improvement.  Steps: N*P (horizontal) or M*P (vertical).  Each trial
    updates the running cascade sum in O(1) from the stripe's summed ``h*g``.
    """
    table = _normalize_table(phase_table)
    if orientation not in ORIENTATIONS:
        raise ValueError(f"orientation must be one of {ORIENTATIONS}")
    n_rows, m_cols = ch.shape
    num_states = len(table)
    n_stripes = n_rows if orientation == "horizontal" else m_cols

    hg = ch.h * ch.g
    # total cascade contribution of each stripe (all its elements share a state)
    stripe_hg = hg.sum(axis=1) if orientation == "horizontal" else hg.sum(axis=0)
    phasor = np.exp(1j * np.deg2rad(np.asarray(table)))

    stripe_states = np.zeros(n_stripes, dtype=np.int64)
    current = complex(hg.sum() * phasor[0])  # all elements at state 0
    best = -np.inf
    history = []
    for i in range(n_stripes):
        committed = int(stripe_states[i])
        for j in range(num_states):
            if j == committed:
                cand_sum = current
            else:
                cand_sum = current + complex(stripe_hg[i]) * (
                    complex(phasor[j]) - complex(phasor[committed])
                )
            cand = abs(cand_sum)
            if cand > best:
                best = cand
                stripe_states[i] = j
                committed = j
                current = cand_sum
            history.append(best)
    trace = OptimizeTrace(len(history), np.array(history), best)
    return StripeConfig(orientation, stripe_states), trace


def combine_stripes(first: StripeConfig, second: StripeConfig, phase_table=DEFAULT_PHASE_TABLE) -> PhaseConfig:
    """Merge one horizontal and one vertical stripe config into a full one.

    Element (row n, column m) takes the phase of the horizontal config at
    row n plus the phase of the vertical config at column m, modulo 360,
    snapped to the nearest table entry (lowest index on ties).  For the
    two-state 0/180 table this is exactly the XOR of the state bits.
    """
    if {first.orientation, second.orientation} != set(ORIENTATIONS):
        raise ValueError("need exactly one horizontal and one vertical stripe config")
    h_cfg, v_cfg = (first, second) if first.orientation == "horizontal" else (second, first)
    table = _normalize_table(phase_table)
    tbl = np.asarray(table)
    if h_cfg.states.size and h_cfg.states.max() >= len(table):
        raise ValueError("horizontal states exceed phase_table")
    if v_cfg.states.size and v_cfg.states.max() >= len(table):
        raise ValueError("vertical states exceed phase_table")
    total = (tbl[h_cfg.states][:, np.newaxis] + tbl[v_cfg.states][np.newaxis, :]) % 360.0
    diff = np.abs(total[..., np.newaxis] - tbl)
    circular = np.minimum(diff, 360.0 - diff)
    states = np.argmin(circular, axis=-1)  # argmin picks the lowest index on ties
    return PhaseConfig(states, table)


def exhaustive_optimize(ch: ChannelMatrices, phase_table=DEFAULT_PHASE_TABLE) -> tuple:
    """Global optimum by enumerating all P^(M*N) configurations.

    Configurations are encoded little-endian in raster order (element at
    raster index i carries weight P^i) and ties go to the lowest
    encoding.  Rotating every element by one table step leaves the
    objective mathematically unchanged, so exact ties are the norm, not
    the exception; tie detection therefore uses a 1e-12 relative band
    rather than bit equality, which would make the winner depend on
    floating-point summation order.  Refuses instances with more than
    2^24 configurations.
    """
    table = _normalize_table(phase_table)
    n_rows, m_cols = ch.shape
    num_states = len(table)
    n_elem = n_rows * m_cols
    n_configs = num_states**n_elem
    if n_configs > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"{num_states}^{n_elem} configurations exceed the {EXHAUSTIVE_LIMIT} limit"
        )

    hg = (ch.h * ch.g).reshape(-1)  # row-major raster order
    phasor = np.exp(1j * np.deg2rad(np.asarray(table)))
    per_state = hg[:, np.newaxis] * phasor[np.newaxis, :]  # (n_elem, P)
    weights = num_states ** np.arange(n_elem, dtype=np.int64)
    elem_idx = np.arange(n_elem)
    chunk = 1 << 14

    def chunk_vals(start):
        enc = np.arange(start, min(start + chunk, n_configs), dtype=np.int64)
        digits = (enc[:, np.newaxis] // weights) % num_states
        return np.abs(per_state[elem_idx, digits].sum(axis=1))

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

    digits = (best_enc // weights) % num_states
    cfg = PhaseConfig(digits.reshape(n_rows, m_cols), table)
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
