"""Greedy configuration search over 0/180-degree surfaces.

The paper's iterative search is one algorithm over groups of elements:
start with every element at state 0, visit each group in turn, try its
other reflection state with the other groups held at their committed
states, and keep the better.  ``_greedy`` is that loop.  Each group costs
two (configure + evaluate) steps, one per state, and the running best
objective after each step is recorded in the trace.  Commits require
strict improvement; ties keep state 0, which makes runs deterministic for
a given channel realization.

The two searches differ only in their groups, and ``_flips(ch,
grouping)`` builds both inputs of every search: each group's flip term
(the change of the cascade sum from state 0 to 1) and the all-zero
cascade sum.  ``im_optimize`` makes each element a group, in raster order
(M*N*2 steps).  ``gim_optimize`` makes each row or each column a group
(N*2 or M*2 steps), so a horizontal and a vertical run together cost only
(M+N)*2 steps; it returns a plain int64 state vector (one state per row,
or per column), and ``combine_stripes(h_states, v_states)`` merges the
pair, rows first, into a full per-element configuration.
``exhaustive_optimize`` enumerates every configuration and serves as a
ground-truth oracle on tiny instances.

``_greedy`` adds the flip terms on plain Python scalars, fastest for one
channel.  For a dataset sweep, ``batch_optimize`` runs IM and both stripe
searches over many receiver angles at once in ``_greedy_batch``: the same
loop, each scalar step one numpy call over the angle axis.  Its flips and
start sums come from ``_flips`` and its magnitudes from ``np.hypot``
(libm ``hypot``, as Python's ``abs(complex)``), so its states are
bit-identical to the scalar searches'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from risopt.physics import (
    PHASORS,
    ChannelMatrices,
    PhaseConfig,
    _check_states,
    objective,
)

EXHAUSTIVE_LIMIT = 2**24  # max number of enumerated configurations
_FLIP = PHASORS[1] - PHASORS[0]  # phasor change of a group going from state 0 to 1


@dataclass(frozen=True)
class OptimizeTrace:
    """Step accounting for one optimizer run.

    ``best_objective_history[k]`` is the running best objective after
    step k, non-decreasing; ``steps`` is its length.
    """

    best_objective_history: np.ndarray

    def __post_init__(self):
        history = np.asarray(self.best_objective_history, dtype=float)
        object.__setattr__(self, "best_objective_history", history)
        if np.any(np.diff(history) < 0):
            raise ValueError("best-objective history must be non-decreasing")

    @property
    def steps(self) -> int:
        return len(self.best_objective_history)


def _greedy(flips, current) -> tuple:
    """One greedy pass from all-zero states over groups of elements that
    share a state.

    ``flips[k]`` changes the cascade sum when group k goes from state 0
    to 1, and ``current`` is the sum with every group at state 0 (both
    from :func:`_flips`).  Each group adds its flip and keeps the sum only
    if its magnitude strictly beats the best so far.  numpy rebuilds the
    rest from the best after each group: of its two steps (state 0, then
    1) the first holds the best before the group and the second the best
    after it, and the group is at state 1 iff the best rose.  Returns the
    bool states and the trace.
    """
    best = abs(current)
    bests = [best]
    for flip in flips.tolist():
        cand = current + flip
        value = abs(cand)
        if value > best:
            best, current = value, cand
        bests.append(best)
    history = np.repeat(bests, 2)[1:-1]  # group k: (best before, best after)
    return history[1::2] > history[0::2], OptimizeTrace(history)


def im_optimize(ch: ChannelMatrices) -> tuple:
    """Element-wise greedy search: one raster pass, 2 steps per element.

    All elements start at state 0.  They are visited row 0..N-1, column
    0..M-1 within each row, each one a group of :func:`_greedy` that
    tries state 1 once, so the trace has exactly M*N*2 steps.
    """
    states, trace = _greedy(*_flips(ch, "elements"))
    return PhaseConfig(states.reshape(ch.shape)), trace


def gim_optimize(ch: ChannelMatrices, orientation: str = "horizontal") -> tuple:
    """Stripe-wise greedy search over rows (horizontal) or columns (vertical).

    Returns ``(states, trace)``: ``states`` is an int64 vector of N row
    states (horizontal) or M column states (vertical).

    All elements start at state 0, and each row (or column) is one group
    of :func:`_greedy`, its flip built from the stripe's summed ``h*g``.
    Steps: N*2 (horizontal) or M*2 (vertical).
    """
    if orientation not in ("horizontal", "vertical"):
        raise ValueError(f"orientation must be 'horizontal' or 'vertical', got {orientation!r}")

    states, trace = _greedy(*_flips(ch, orientation))
    return states.astype(np.int64), trace


def _flips(ch: ChannelMatrices, grouping: str) -> tuple:
    """Each group's flip term ``h*g*(phasor[1] - phasor[0])`` and the
    cascade sum with every element at state 0.

    ``grouping`` is ``"elements"`` (raster order, each element's ``h*g``
    from :func:`_product`), ``"horizontal"`` (rows) or ``"vertical"``
    (columns); a stripe's ``h*g`` is numpy's ``h * g`` summed over it.
    """
    hg = ch.h * ch.g
    group_hg = (_product(ch.h.ravel(), ch.g.ravel()) if grouping == "elements"
                else hg.sum(axis=1 if grouping == "horizontal" else 0))
    return _product(group_hg, _FLIP), complex(hg.sum() * PHASORS[0])


def _product(a, b) -> np.ndarray:
    """``a * b`` for a complex array and a scalar or array of its shape,
    rounded as Python's complex multiply rounds it (numpy's may not)."""
    out = np.empty(np.shape(a), dtype=complex)
    np.subtract(a.real * b.real, a.imag * b.imag, out=out.real)
    np.add(a.real * b.imag, a.imag * b.real, out=out.imag)
    return out


def _greedy_batch(flips, current) -> np.ndarray:
    """:func:`_greedy` for A problems at once.

    ``flips[k, a]`` is problem a's flip term for group k and ``current[a]``
    its cascade sum with every group at state 0, as in :func:`_greedy`.
    Each scalar step of :func:`_greedy` is one numpy call over the angle
    axis.  Returns the (K, A) bool states.
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

    Each search stacks every channel's :func:`_flips` into (K, A) flips
    and A start sums for :func:`_greedy_batch`.  Returns int64 row states
    (A, N), column states (A, M) and element states (A, N, M),
    bit-identical to ``gim_optimize(ch, "horizontal")``,
    ``gim_optimize(ch, "vertical")`` and ``im_optimize(ch)`` on every
    channel.  For one channel it takes about 10x as long as the scalar
    searches; at 40x40 it is faster from about 14 channels on.
    """
    shape = channels[0].shape
    if any(ch.shape != shape for ch in channels):
        raise ValueError(f"a channel's shape does not match the first one's {shape}")

    def search(grouping):
        flips, starts = zip(*(_flips(ch, grouping) for ch in channels))
        return _greedy_batch(np.stack(flips, axis=1), np.array(starts)).T.astype(np.int64)

    return search("horizontal"), search("vertical"), search("elements").reshape(-1, *shape)


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
        _check_states(states, f"{name} states")
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
