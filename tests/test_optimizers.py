"""Optimizer behaviour vs. independent greedy/enumeration oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risopt import (
    ChannelMatrices,
    PhaseConfig,
    RisGeometry,
    RxSpec,
    TxSpec,
    cascade_gain,
    compute_channels,
    compute_illumination,
    flip_delta,
    objective,
)
from risopt.optimizers import (
    OptimizeTrace,
    StripeConfig,
    combine_stripes,
    exhaustive_optimize,
    gim_optimize,
    im_optimize,
    step_count,
)


def random_channels(rng, n_rows, m_cols):
    h = rng.standard_normal((n_rows, m_cols)) + 1j * rng.standard_normal((n_rows, m_cols))
    g = rng.standard_normal((n_rows, m_cols)) + 1j * rng.standard_normal((n_rows, m_cols))
    return ChannelMatrices(h, g)


# ---------------------------------------------------------------- oracles

def oracle_gain(ch, states, table):
    total = 0.0 + 0.0j
    n_rows, m_cols = ch.shape
    for n in range(n_rows):
        for m in range(m_cols):
            total += ch.h[n, m] * np.exp(1j * np.deg2rad(table[states[n, m]])) * ch.g[n, m]
    return total


def oracle_im(ch, table, init_states):
    """Greedy raster sweep, recomputing the objective from scratch every trial."""
    states = init_states.copy()
    best = abs(oracle_gain(ch, states, table))
    n_rows, m_cols = ch.shape
    history = []
    for n in range(n_rows):
        for m in range(m_cols):
            for p in range(len(table)):
                trial = states.copy()
                trial[n, m] = p
                val = abs(oracle_gain(ch, trial, table))
                if val > best:
                    best = val
                    states = trial
                history.append(best)
    return states, best, history


def reference_im(ch, table, init, *, use_incremental):
    """Element-wise search built from the public per-trial helpers.

    Each trial either updates the running sum with ``flip_delta``
    (``use_incremental``) or recomputes ``cascade_gain`` from scratch, and
    every commit builds a new ``PhaseConfig``.  The incremental variant
    does the arithmetic of ``im_optimize``'s scalar kernel, so the two must
    agree bit for bit; the recompute variant agrees to rounding only, and
    on exact ties (a 1x1 surface, where rotating every state keeps the
    magnitude) it may commit a different state.
    """
    cfg = init
    current = cascade_gain(ch, cfg)
    best = abs(current)
    history = []
    n_rows, m_cols = ch.shape
    for row in range(n_rows):
        for col in range(m_cols):
            for state in range(len(table)):
                if use_incremental:
                    cand_sum = flip_delta(ch, cfg, row, col, state, current)
                else:
                    cand_sum = cascade_gain(ch, cfg.with_state(row, col, state))
                cand = abs(cand_sum)
                if cand > best:
                    best = cand
                    cfg = cfg.with_state(row, col, state)
                    current = cand_sum
                history.append(best)
    return cfg, OptimizeTrace(len(history), np.array(history), best)


def reference_gim(ch, table, orientation, *, use_incremental):
    """Stripe-wise search with either O(1) stripe updates or full recomputes.

    The same tie caveat as ``reference_im`` applies to a single stripe.
    """
    n_rows, m_cols = ch.shape
    n_stripes = n_rows if orientation == "horizontal" else m_cols
    hg = ch.h * ch.g
    stripe_hg = hg.sum(axis=1) if orientation == "horizontal" else hg.sum(axis=0)
    phasor = np.exp(1j * np.deg2rad(np.asarray(table)))
    stripe_states = np.zeros(n_stripes, dtype=np.int64)
    current = complex(hg.sum() * phasor[0])
    best = -np.inf
    history = []
    for i in range(n_stripes):
        committed = int(stripe_states[i])
        for j in range(len(table)):
            if not use_incremental:
                trial = stripe_states.copy()
                trial[i] = j
                cand_sum = cascade_gain(
                    ch, StripeConfig(orientation, trial).expand(ch.shape, table))
            elif j == committed:
                cand_sum = current
            else:
                cand_sum = current + complex(stripe_hg[i]) * (
                    complex(phasor[j]) - complex(phasor[committed]))
            cand = abs(cand_sum)
            if cand > best:
                best = cand
                stripe_states[i] = j
                committed = j
                current = cand_sum
            history.append(best)
    return StripeConfig(orientation, stripe_states), OptimizeTrace(
        len(history), np.array(history), best)


def assert_bit_identical(got, want):
    (cfg, trace), (want_cfg, want_trace) = got, want
    np.testing.assert_array_equal(cfg.states, want_cfg.states)
    assert trace.steps == want_trace.steps
    assert (trace.best_objective_history.tobytes()
            == want_trace.best_objective_history.tobytes())
    assert (np.float64(trace.final_objective).tobytes()
            == np.float64(want_trace.final_objective).tobytes())


def assert_matches_recompute(got, want, ties_possible):
    (cfg, trace), (want_cfg, want_trace) = got, want
    if not ties_possible:
        np.testing.assert_array_equal(cfg.states, want_cfg.states)
    np.testing.assert_allclose(trace.best_objective_history,
                               want_trace.best_objective_history, rtol=1e-9)


def decode_states(enc, n_rows, m_cols, num_states):
    states = np.zeros((n_rows, m_cols), dtype=np.int64)
    for i in range(n_rows * m_cols):
        states[i // m_cols, i % m_cols] = enc % num_states
        enc //= num_states
    return states


def oracle_enumerate(ch, table):
    """Little-endian raster enumeration.

    Stepping every element forward one table entry never changes the
    objective, so the argmax is a tie class; the lowest encoding within
    a 1e-12 relative band of the maximum wins, matching the library.
    """
    n_rows, m_cols = ch.shape
    num_states = len(table)
    n_configs = num_states ** (n_rows * m_cols)
    vals = [
        abs(oracle_gain(ch, decode_states(e, n_rows, m_cols, num_states), table))
        for e in range(n_configs)
    ]
    best_val = max(vals)
    for e, v in enumerate(vals):
        if v >= best_val * (1 - 1e-12):
            return decode_states(e, n_rows, m_cols, num_states), v
    raise AssertionError("unreachable")


# ---------------------------------------------------------------- step counts

def test_step_count_values():
    assert step_count("IM", 40, 40, 2) == 3200
    assert step_count("GIM", 40, 40, 2) == 160
    assert step_count("IM", 1, 1, 1) == 1
    assert step_count("GIM", 3, 5, 4) == 32


def test_step_count_validation():
    with pytest.raises(ValueError):
        step_count("IM", 0, 4, 2)
    with pytest.raises(ValueError):
        step_count("annealing", 4, 4, 2)


def test_optimizer_traces_match_step_count():
    rng = np.random.default_rng(5)
    ch = random_channels(rng, 5, 3)
    _, t_im = im_optimize(ch)
    assert t_im.steps == step_count("IM", 3, 5, 2) == 30
    _, t_h = gim_optimize(ch, orientation="horizontal")
    _, t_v = gim_optimize(ch, orientation="vertical")
    assert t_h.steps == 10 and t_v.steps == 6
    assert t_h.steps + t_v.steps == step_count("GIM", 3, 5, 2)


def test_full_size_step_counts():
    # 40x40 two-state surface: 3200 element-wise steps vs 160 stripe steps.
    rng = np.random.default_rng(6)
    ch = random_channels(rng, 40, 40)
    _, t_im = im_optimize(ch)
    assert t_im.steps == 3200
    _, t_h = gim_optimize(ch, orientation="horizontal")
    _, t_v = gim_optimize(ch, orientation="vertical")
    assert t_h.steps + t_v.steps == 160


# ---------------------------------------------------------------- trace type

def test_trace_validation():
    with pytest.raises(ValueError):
        OptimizeTrace(3, [1.0, 2.0], 2.0)  # wrong length
    with pytest.raises(ValueError):
        OptimizeTrace(3, [1.0, 2.0, 1.5], 1.5)  # decreasing
    t = OptimizeTrace(3, [1.0, 1.0, 2.0], 2.0)
    assert t.final_objective == 2.0


# ---------------------------------------------------------------- element-wise IM

def test_im_matches_greedy_oracle():
    rng = np.random.default_rng(17)
    table = (0.0, 180.0)
    for _ in range(20):
        n_rows = int(rng.integers(1, 7))
        m_cols = int(rng.integers(1, 7))
        ch = random_channels(rng, n_rows, m_cols)
        init = PhaseConfig(rng.integers(0, 2, (n_rows, m_cols)), table)
        want_states, want_best, want_hist = oracle_im(ch, table, init.states)
        for cfg, trace in (im_optimize(ch, table, init),
                           reference_im(ch, table, init, use_incremental=False)):
            np.testing.assert_array_equal(cfg.states, want_states)
            assert trace.final_objective == pytest.approx(want_best, rel=1e-9)
            np.testing.assert_allclose(trace.best_objective_history, want_hist,
                                       rtol=1e-9)


def test_im_four_state_table():
    rng = np.random.default_rng(18)
    table = (0.0, 90.0, 180.0, 270.0)
    ch = random_channels(rng, 3, 4)
    init = PhaseConfig.zeros(3, 4, table)
    want_states, want_best, _ = oracle_im(ch, table, init.states)
    cfg, trace = im_optimize(ch, table, init)
    np.testing.assert_array_equal(cfg.states, want_states)
    assert trace.steps == 3 * 4 * 4
    assert trace.final_objective == pytest.approx(want_best, rel=1e-9)


def test_im_single_element_tie_keeps_incumbent():
    # Unit channels: both binary states reach |1|; the starting state wins.
    ch = ChannelMatrices(np.ones((1, 1), complex), np.ones((1, 1), complex))
    cfg, trace = im_optimize(ch)
    assert cfg.states[0, 0] == 0
    assert trace.steps == 2
    assert trace.final_objective == pytest.approx(1.0, rel=1e-12)


def test_im_never_below_init_objective():
    rng = np.random.default_rng(19)
    for _ in range(10):
        ch = random_channels(rng, 4, 4)
        init = PhaseConfig(rng.integers(0, 2, (4, 4)))
        cfg, trace = im_optimize(ch, (0.0, 180.0), init)
        assert trace.final_objective >= objective(ch, init) - 1e-12
        # tracked best agrees with recomputing the returned config
        assert trace.final_objective == pytest.approx(objective(ch, cfg), rel=1e-9)


def test_im_rerun_from_output_does_not_decrease():
    rng = np.random.default_rng(20)
    ch = random_channels(rng, 5, 5)
    cfg1, t1 = im_optimize(ch)
    cfg2, t2 = im_optimize(ch, (0.0, 180.0), cfg1)
    assert t2.final_objective >= t1.final_objective - 1e-12


def test_im_history_monotone_and_counts():
    rng = np.random.default_rng(21)
    ch = random_channels(rng, 6, 3)
    _, trace = im_optimize(ch)
    assert trace.steps == 36
    assert len(trace.best_objective_history) == 36
    assert np.all(np.diff(trace.best_objective_history) >= 0)


def test_im_init_validation():
    rng = np.random.default_rng(22)
    ch = random_channels(rng, 3, 3)
    with pytest.raises(ValueError):
        im_optimize(ch, (0.0, 180.0), PhaseConfig.zeros(2, 3))
    with pytest.raises(ValueError):
        im_optimize(ch, (0.0, 180.0), PhaseConfig.zeros(3, 3, (0.0, 90.0)))


# ---------------------------------------------------------------- stripe G-IM

def test_gim_identical_rows_reach_rowwise_brute_force():
    # All rows share the same channel row: greedy per-row sweep must land
    # on the optimum over all 2^N row-state combinations.
    rng = np.random.default_rng(31)
    row_h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    row_g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    ch = ChannelMatrices(np.tile(row_h, (4, 1)), np.tile(row_g, (4, 1)))
    table = (0.0, 180.0)

    best_val = -np.inf
    for enc in range(2**4):
        row_states = np.array([(enc >> i) & 1 for i in range(4)])
        full = np.repeat(row_states[:, None], 4, axis=1)
        best_val = max(best_val, abs(oracle_gain(ch, full, table)))

    stripe, trace = gim_optimize(ch, table, "horizontal")
    assert trace.final_objective == pytest.approx(best_val, rel=1e-9)
    full = stripe.expand((4, 4), table)
    assert objective(ch, full) == pytest.approx(best_val, rel=1e-9)


def test_gim_zero_channel_keeps_initialization():
    ch = ChannelMatrices(np.ones((3, 4), complex), np.zeros((3, 4), complex))
    for orientation, expected_len in [("horizontal", 3), ("vertical", 4)]:
        stripe, trace = gim_optimize(ch, (0.0, 180.0), orientation)
        np.testing.assert_array_equal(stripe.states, np.zeros(expected_len))
        assert trace.final_objective == 0.0
        np.testing.assert_array_equal(trace.best_objective_history, 0.0)


def test_gim_matches_stripe_oracle():
    """Strict-improvement stripe sweep recomputed from scratch in the test."""
    rng = np.random.default_rng(32)
    table = (0.0, 180.0)
    for orientation in ("horizontal", "vertical"):
        for _ in range(10):
            n_rows = int(rng.integers(2, 6))
            m_cols = int(rng.integers(2, 6))
            ch = random_channels(rng, n_rows, m_cols)
            n_stripes = n_rows if orientation == "horizontal" else m_cols

            states = np.zeros(n_stripes, dtype=np.int64)
            best = -np.inf
            for i in range(n_stripes):
                for j in range(2):
                    trial = states.copy()
                    trial[i] = j
                    if orientation == "horizontal":
                        full = np.repeat(trial[:, None], m_cols, axis=1)
                    else:
                        full = np.repeat(trial[None, :], n_rows, axis=0)
                    val = abs(oracle_gain(ch, full, table))
                    if val > best:
                        best = val
                        states = trial

            for stripe, trace in (
                    gim_optimize(ch, table, orientation),
                    reference_gim(ch, table, orientation, use_incremental=False)):
                np.testing.assert_array_equal(stripe.states, states)
                assert trace.final_objective == pytest.approx(best, rel=1e-9)


def test_gim_improves_on_all_zero():
    rng = np.random.default_rng(33)
    for _ in range(10):
        ch = random_channels(rng, 5, 5)
        stripe, trace = gim_optimize(ch, (0.0, 180.0), "horizontal")
        base = objective(ch, PhaseConfig.zeros(5, 5))
        assert trace.final_objective >= base - 1e-12


def test_gim_orientation_validation():
    rng = np.random.default_rng(34)
    ch = random_channels(rng, 3, 3)
    with pytest.raises(ValueError):
        gim_optimize(ch, (0.0, 180.0), "diagonal")


# ---------------------------------------------------------------- stripes

def test_stripe_expand_constant_rows_and_columns():
    h = StripeConfig("horizontal", np.array([0, 1, 0]))
    full = h.expand((3, 5))
    for n in range(3):
        assert len(set(full.states[n, :].tolist())) == 1
    v = StripeConfig("vertical", np.array([1, 0, 1, 1, 0]))
    full = v.expand((3, 5))
    for m in range(5):
        assert len(set(full.states[:, m].tolist())) == 1
    np.testing.assert_array_equal(full.states[:, 0], [1, 1, 1])


def test_stripe_validation():
    with pytest.raises(ValueError):
        StripeConfig("diagonal", np.array([0, 1]))
    with pytest.raises(ValueError):
        StripeConfig("horizontal", np.zeros((2, 2), dtype=int))
    with pytest.raises(ValueError):
        StripeConfig("horizontal", np.array([0, 1])).expand((3, 4))


def test_combine_identity_and_modulo():
    h0 = StripeConfig("horizontal", np.zeros(3, dtype=int))
    v0 = StripeConfig("vertical", np.zeros(4, dtype=int))
    np.testing.assert_array_equal(combine_stripes(h0, v0).states, np.zeros((3, 4)))
    # 180 + 180 wraps to 0
    h1 = StripeConfig("horizontal", np.ones(3, dtype=int))
    v1 = StripeConfig("vertical", np.ones(4, dtype=int))
    np.testing.assert_array_equal(combine_stripes(h1, v1).states, np.zeros((3, 4)))


def test_combine_checkerboard_is_elementwise_xor():
    h = StripeConfig("horizontal", np.array([0, 1, 0, 1]))
    v = StripeConfig("vertical", np.array([1, 0, 1]))
    full = combine_stripes(h, v)
    for n in range(4):
        for m in range(3):
            assert full.states[n, m] == (h.states[n] ^ v.states[m])
    # argument order does not matter
    np.testing.assert_array_equal(combine_stripes(v, h).states, full.states)


def test_combine_rejects_same_orientation():
    a = StripeConfig("horizontal", np.array([0, 1]))
    b = StripeConfig("horizontal", np.array([1, 0]))
    with pytest.raises(ValueError):
        combine_stripes(a, b)


def test_combine_four_state_phase_addition():
    table = (0.0, 90.0, 180.0, 270.0)
    h = StripeConfig("horizontal", np.array([1, 3]))  # 90, 270
    v = StripeConfig("vertical", np.array([2, 3]))  # 180, 270
    full = combine_stripes(h, v, table)
    # (90+180)%360=270 -> 3, (90+270)%360=0 -> 0,
    # (270+180)%360=90 -> 1, (270+270)%360=180 -> 2
    np.testing.assert_array_equal(full.states, [[3, 0], [1, 2]])


# ---------------------------------------------------------------- exhaustive

def test_exhaustive_single_element_unit():
    ch = ChannelMatrices(np.ones((1, 1), complex), np.ones((1, 1), complex))
    cfg, val = exhaustive_optimize(ch)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_exhaustive_flips_opposite_phase_element():
    # Element (0, 0) contributes with inverted sign; the optimum flips
    # exactly that element.  Its complement (flipping the other three)
    # ties at |G| = 4 but encodes as 14 vs 1, so the single flip wins.
    h = np.ones((2, 2), complex)
    g = np.ones((2, 2), complex)
    g[0, 0] = -1.0
    ch = ChannelMatrices(h, g)
    cfg, val = exhaustive_optimize(ch)
    np.testing.assert_array_equal(cfg.states, [[1, 0], [0, 0]])
    assert val == pytest.approx(4.0, rel=1e-12)


def test_exhaustive_matches_loop_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n_rows = int(rng.integers(1, 4))
        m_cols = int(rng.integers(1, 4))
        ch = random_channels(rng, n_rows, m_cols)
        want_states, want_val = oracle_enumerate(ch, (0.0, 180.0))
        cfg, val = exhaustive_optimize(ch)
        np.testing.assert_array_equal(cfg.states, want_states)
        assert val == pytest.approx(want_val, rel=1e-12)


def test_exhaustive_multi_state():
    rng = np.random.default_rng(42)
    table = (0.0, 120.0, 240.0)
    ch = random_channels(rng, 2, 2)
    want_states, want_val = oracle_enumerate(ch, table)
    cfg, val = exhaustive_optimize(ch, table)
    np.testing.assert_array_equal(cfg.states, want_states)
    assert val == pytest.approx(want_val, rel=1e-12)


def test_exhaustive_size_guard():
    rng = np.random.default_rng(43)
    ch = random_channels(rng, 5, 5)  # 2^25 configs
    with pytest.raises(ValueError):
        exhaustive_optimize(ch)


def test_exhaustive_dominates_im():
    rng = np.random.default_rng(44)
    for _ in range(15):
        ch = random_channels(rng, 2, 3)
        cfg_im, _ = im_optimize(ch)
        _, best = exhaustive_optimize(ch)
        zero = objective(ch, PhaseConfig.zeros(2, 3))
        assert best >= objective(ch, cfg_im) - 1e-12
        assert objective(ch, cfg_im) >= zero - 1e-12


# ---------------------------------------------------------------- cross-mode

def test_incremental_and_recompute_commit_identically():
    rng = np.random.default_rng(51)
    for _ in range(10):
        n_rows = int(rng.integers(2, 9))
        m_cols = int(rng.integers(2, 9))
        ch = random_channels(rng, n_rows, m_cols)
        table = (0.0, 180.0)
        zeros = PhaseConfig.zeros(n_rows, m_cols)
        got = im_optimize(ch)
        assert_bit_identical(got, reference_im(ch, table, zeros, use_incremental=True))
        assert_matches_recompute(
            got, reference_im(ch, table, zeros, use_incremental=False),
            ties_possible=False)
        for orientation in ("horizontal", "vertical"):
            got = gim_optimize(ch, orientation=orientation)
            assert_bit_identical(
                got, reference_gim(ch, table, orientation, use_incremental=True))
            assert_matches_recompute(
                got, reference_gim(ch, table, orientation, use_incremental=False),
                ties_possible=False)


def test_im_bit_identical_to_reference_on_desk_channels():
    geom = RisGeometry.half_wavelength(40, 40, 5e9)
    illum = compute_illumination(geom, TxSpec(1.0))
    zeros = PhaseConfig.zeros(40, 40)
    for el, az in [(-60.0, 0.0), (-25.0, 95.0), (0.0, 40.0), (35.0, 150.0), (60.0, 180.0)]:
        ch = compute_channels(geom, illum, RxSpec(10.0, el, az))
        assert_bit_identical(im_optimize(ch),
                             reference_im(ch, (0.0, 180.0), zeros, use_incremental=True))


@st.composite
def greedy_instances(draw):
    """Seeded Gaussian channel, distinct random phase table, optional init."""
    n_rows = draw(st.integers(1, 6))
    m_cols = draw(st.integers(1, 6))
    num_states = draw(st.integers(1, 4))
    # a 0.1 degree grid keeps distinct entries from rounding into near-ties
    tenths = draw(st.lists(st.integers(0, 3599), min_size=num_states,
                           max_size=num_states, unique=True))
    table = tuple(t / 10 for t in tenths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ch = random_channels(rng, n_rows, m_cols)
    init = None
    if draw(st.booleans()):
        init = PhaseConfig(rng.integers(0, num_states, (n_rows, m_cols)), table)
    return ch, table, init


@settings(max_examples=150, deadline=None)
@given(greedy_instances())
def test_im_property_matches_reference_searches(instance):
    ch, table, init = instance
    start = init if init is not None else PhaseConfig.zeros(*ch.shape, table)
    got = im_optimize(ch, table, init)
    assert_bit_identical(got, reference_im(ch, table, start, use_incremental=True))
    assert_matches_recompute(got, reference_im(ch, table, start, use_incremental=False),
                             ties_possible=ch.h.size == 1)


@settings(max_examples=150, deadline=None)
@given(greedy_instances(), st.sampled_from(("horizontal", "vertical")))
def test_gim_property_matches_reference_searches(instance, orientation):
    ch, table, _ = instance
    n_stripes = ch.shape[0] if orientation == "horizontal" else ch.shape[1]
    got = gim_optimize(ch, table, orientation)
    assert_bit_identical(got, reference_gim(ch, table, orientation, use_incremental=True))
    assert_matches_recompute(
        got, reference_gim(ch, table, orientation, use_incremental=False),
        ties_possible=n_stripes == 1)
