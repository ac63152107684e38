"""Greedy configuration search over 0/180-degree surfaces.

The paper's iterative search is one algorithm over groups of elements:
visit each group in turn, try every reflection state on the whole group
with the other groups held at their committed states, and keep the best.
``_greedy`` is that loop.  Every (configure + evaluate) attempt is one
step, and the running maximum of the objective after each step is
recorded in the trace.  Commits require strict improvement; ties keep
the incumbent state, which makes runs deterministic for a given channel
realization.

The two searches differ only in their groups.  ``im_optimize`` makes
each element a group, in raster order (M*N*2 steps).  ``gim_optimize``
makes each row or each column a group (N*2 or M*2 steps), so a
horizontal and a vertical run together cost only (M+N)*2 steps; it
returns a plain int64 state vector (one state per row, or per column),
and ``combine_stripes(h_states, v_states)`` merges the pair, rows first,
into a full per-element configuration.  ``exhaustive_optimize``
enumerates every configuration and serves as a ground-truth oracle on
tiny instances.

``_greedy`` runs on plain Python scalars, fastest for one channel.  For
a dataset sweep, ``batch_optimize`` runs IM and both stripe searches
over many receiver angles at once in ``_greedy_batch``: the same loop,
each scalar step one numpy call over the angle axis.  Its terms are
built as the scalar searches build them and its magnitudes come from
``np.hypot`` (libm ``hypot``, as Python's ``abs(complex)``), so its
states are bit-identical to theirs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from risopt.physics import (
    PHASORS,
    ChannelMatrices,
    PhaseConfig,
    cascade_gain,
    objective,
)

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


def _greedy(terms, states, current) -> tuple:
    """One greedy pass over groups of elements that share a state.

    ``terms[k]`` is group k's summed ``h*g``, ``states[k]`` its starting
    state and ``current`` the cascade sum of the starting states.  Each
    group tries every state but its committed one, which would reproduce
    the best objective; the running sum is updated in O(1) by
    ``terms[k] * (phasor[new] - phasor[old])``, on plain Python scalars,
    and a state is committed only if it strictly improves on the best
    objective seen so far.  Returns the list of committed states and the
    trace, which has one step per (group, state) pair.
    """
    phasor = PHASORS.tolist()
    delta = [[new - old for old in phasor] for new in phasor]  # [new][old]
    states = list(states)
    best = abs(current)
    history = []
    for k, term in enumerate(terms):
        committed = states[k]
        for state, delta_state in enumerate(delta):
            if state != committed:
                cand_sum = current + term * delta_state[committed]
                cand = abs(cand_sum)
                if cand > best:
                    best, current, committed = cand, cand_sum, state
            history.append(best)
        states[k] = committed
    return states, OptimizeTrace(len(history), np.array(history), best)


def im_optimize(ch: ChannelMatrices, init: PhaseConfig | None = None) -> tuple:
    """Element-wise greedy search: one raster pass, 2 trials per element.

    Elements are visited row 0..N-1, column 0..M-1 within each row, each
    one a group of :func:`_greedy`.  The trace therefore has exactly
    M*N*2 steps and the final objective never falls below the objective
    of ``init`` (all-zero states when omitted).
    """
    n_rows, m_cols = ch.shape
    if init is None:
        init = PhaseConfig.zeros(n_rows, m_cols)
    if init.shape != ch.shape:
        raise ValueError(f"init shape {init.shape} does not match channels {ch.shape}")

    hg = _product(ch.h.ravel(), ch.g.ravel()).tolist()
    states, trace = _greedy(hg, init.states.ravel().tolist(), cascade_gain(ch, init))
    return PhaseConfig(np.reshape(states, ch.shape)), trace


def gim_optimize(ch: ChannelMatrices, orientation: str = "horizontal") -> tuple:
    """Stripe-wise greedy search over rows (horizontal) or columns (vertical).

    Returns ``(states, trace)``: ``states`` is an int64 vector of N row
    states (horizontal) or M column states (vertical).

    All elements start at state 0, and each row (or column) is one group
    of :func:`_greedy`, its term the stripe's summed ``h*g``.  Steps: N*2
    (horizontal) or M*2 (vertical).
    """
    if orientation not in ("horizontal", "vertical"):
        raise ValueError(f"orientation must be 'horizontal' or 'vertical', got {orientation!r}")

    stripe_hg, current = _stripe_terms(ch, orientation)
    states, trace = _greedy(stripe_hg.tolist(), [0] * len(stripe_hg), current)
    return np.array(states, dtype=np.int64), trace


def _stripe_terms(ch: ChannelMatrices, orientation: str) -> tuple:
    """Each stripe's summed ``h*g`` and the cascade sum with every element at state 0."""
    hg = ch.h * ch.g
    stripe_hg = hg.sum(axis=1) if orientation == "horizontal" else hg.sum(axis=0)
    return stripe_hg, complex(hg.sum() * PHASORS[0])


def _product(a, b) -> np.ndarray:
    """Elementwise ``a * b`` of complex arrays, rounded as Python's complex
    multiply rounds it: numpy's own complex multiply may round differently."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    np.subtract(a.real * b.real, a.imag * b.imag, out=out.real)
    np.add(a.real * b.imag, a.imag * b.real, out=out.imag)
    return out


def _greedy_batch(flips, current) -> np.ndarray:
    """:func:`_greedy` from all-zero states, for A problems at once.

    ``flips[k, a]`` is the change of problem a's cascade sum when group k
    goes from state 0 to state 1, ``terms[k] * (phasor[1] - phasor[0])``,
    and ``current[a]`` is its cascade sum with every group at state 0.
    Each group is tried once, as in :func:`_greedy`, with one numpy call
    per scalar step over the angle axis.  Returns the (K, A) bool states.
    """
    current = current.copy()
    best = np.hypot(current.real, current.imag)
    cand = np.empty_like(current)
    cand_re, cand_im = cand.real, cand.imag
    value = np.empty_like(best)
    states = np.empty(flips.shape, dtype=bool)
    for flip, flipped in zip(flips, states):
        np.add(current, flip, out=cand)
        np.hypot(cand_re, cand_im, out=value)
        np.greater(value, best, out=flipped)
        np.copyto(current, cand, where=flipped)
        np.maximum(best, value, out=best)
    return states


def batch_optimize(channels) -> tuple:
    """IM and both stripe searches for A channels of one surface at once.

    Returns int64 row states (A, N), column states (A, M) and element
    states (A, N, M), bit-identical to ``gim_optimize(ch, "horizontal")``,
    ``gim_optimize(ch, "vertical")`` and ``im_optimize(ch)`` on every
    channel.  For one channel it takes about 5x as long as the scalar
    searches; at 40x40 it is faster from about 6 channels on.
    """
    n_rows, m_cols = channels[0].shape
    delta = PHASORS[1] - PHASORS[0]  # state 0 -> 1
    zeros = PhaseConfig.zeros(n_rows, m_cols)
    flips = [np.empty((k, len(channels)), dtype=complex) for k in (n_rows * m_cols, n_rows, m_cols)]
    starts = np.empty((3, len(channels)), dtype=complex)  # IM, horizontal, vertical
    for a, ch in enumerate(channels):
        starts[0, a] = cascade_gain(ch, zeros)
        flips[0][:, a] = _product(_product(ch.h.ravel(), ch.g.ravel()), delta)
        for i, orientation in ((1, "horizontal"), (2, "vertical")):
            stripe_hg, starts[i, a] = _stripe_terms(ch, orientation)
            flips[i][:, a] = _product(stripe_hg, delta)
    im, rows, cols = (_greedy_batch(f, s).T.astype(np.int64) for f, s in zip(flips, starts))
    return rows, cols, im.reshape(len(channels), n_rows, m_cols)

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
    per_state = hg[:, np.newaxis] * PHASORS[np.newaxis, :]  # (n_elem, 2)
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
