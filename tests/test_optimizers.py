"""Optimizer behaviour vs. independent greedy/enumeration oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risopt import (
    PHASE_TABLE,
    ChannelMatrices,
    PhaseConfig,
    RisGeometry,
    RxSpec,
    TxSpec,
    cascade_gain,
    compute_channels,
    compute_illumination,
    objective,
)
from risopt.optimizers import (
    OptimizeTrace,
    _greedy,
    _greedy_batch,
    batch_optimize,
    combine_stripes,
    exhaustive_optimize,
    gim_optimize,
    im_optimize,
    step_count,
)

from oracles import expand_stripe, flip_delta, with_state


def random_channels(rng, n_rows, m_cols):
    h = rng.standard_normal((n_rows, m_cols)) + 1j * rng.standard_normal((n_rows, m_cols))
    g = rng.standard_normal((n_rows, m_cols)) + 1j * rng.standard_normal((n_rows, m_cols))
    return ChannelMatrices(h, g)


# ---------------------------------------------------------------- oracles

def oracle_gain(ch, states):
    total = 0.0 + 0.0j
    n_rows, m_cols = ch.shape
    for n in range(n_rows):
        for m in range(m_cols):
            total += ch.h[n, m] * np.exp(1j * np.deg2rad(PHASE_TABLE[states[n, m]])) * ch.g[n, m]
    return total


def oracle_im(ch):
    """Greedy raster sweep from all-zero states, recomputing the objective
    from scratch every trial; each element tries state 1 once, and the
    step of its starting state 0 keeps the best."""
    states = np.zeros(ch.shape, dtype=np.int64)
    best = abs(oracle_gain(ch, states))
    n_rows, m_cols = ch.shape
    history = []
    for n in range(n_rows):
        for m in range(m_cols):
            history.append(best)
            trial = states.copy()
            trial[n, m] = 1
            val = abs(oracle_gain(ch, trial))
            if val > best:
                best = val
                states = trial
            history.append(best)
    return states, best, history


def reference_im(ch, *, use_incremental):
    """Element-wise search from all-zero states, built from the public
    per-trial helpers.

    Each element tries state 1 once; the step of its starting state 0
    keeps the best.  Each trial either updates the running sum with
    ``flip_delta`` (``use_incremental``) or recomputes ``cascade_gain``
    from scratch, and every commit builds a new ``PhaseConfig``.  The
    incremental variant does the arithmetic of ``im_optimize``'s scalar
    kernel, so the two must agree bit for bit; the recompute variant
    agrees to rounding only, and on exact ties (a 1x1 surface, where
    flipping the element keeps the magnitude) it may commit a different
    state.
    """
    cfg = PhaseConfig.zeros(*ch.shape)
    current = cascade_gain(ch, cfg)
    best = abs(current)
    history = []
    n_rows, m_cols = ch.shape
    for row in range(n_rows):
        for col in range(m_cols):
            history.append(best)
            if use_incremental:
                cand_sum = flip_delta(ch, cfg, row, col, 1, current)
            else:
                cand_sum = cascade_gain(ch, with_state(cfg, row, col, 1))
            cand = abs(cand_sum)
            if cand > best:
                best = cand
                cfg = with_state(cfg, row, col, 1)
                current = cand_sum
            history.append(best)
    return cfg, OptimizeTrace(np.array(history))


def reference_gim(ch, orientation, *, use_incremental):
    """Stripe-wise search with either O(1) stripe updates or full recomputes.

    The same tie caveat as ``reference_im`` applies to a single stripe.
    """
    n_rows, m_cols = ch.shape
    n_stripes = n_rows if orientation == "horizontal" else m_cols
    hg = ch.h * ch.g
    stripe_hg = hg.sum(axis=1) if orientation == "horizontal" else hg.sum(axis=0)
    phasor = np.exp(1j * np.deg2rad(np.asarray(PHASE_TABLE)))
    stripe_states = np.zeros(n_stripes, dtype=np.int64)
    current = complex(hg.sum() * phasor[0])
    best = -np.inf
    history = []
    for i in range(n_stripes):
        committed = int(stripe_states[i])
        for j in (0, 1):
            if not use_incremental:
                trial = stripe_states.copy()
                trial[i] = j
                cand_sum = cascade_gain(ch, expand_stripe(trial, orientation, ch.shape))
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
    return stripe_states, OptimizeTrace(np.array(history))


def _states(result):
    """State array of an optimizer result: a ``PhaseConfig`` or a stripe vector."""
    return result.states if isinstance(result, PhaseConfig) else result


def assert_bit_identical(got, want):
    (cfg, trace), (want_cfg, want_trace) = got, want
    np.testing.assert_array_equal(_states(cfg), _states(want_cfg))
    assert trace.steps == want_trace.steps
    assert (trace.best_objective_history.tobytes()
            == want_trace.best_objective_history.tobytes())
    assert (np.float64(trace.final_objective).tobytes()
            == np.float64(want_trace.final_objective).tobytes())


def assert_matches_recompute(got, want, ties_possible):
    (cfg, trace), (want_cfg, want_trace) = got, want
    if not ties_possible:
        np.testing.assert_array_equal(_states(cfg), _states(want_cfg))
    np.testing.assert_allclose(trace.best_objective_history,
                               want_trace.best_objective_history, rtol=1e-9)


def decode_states(enc, n_rows, m_cols):
    states = np.zeros((n_rows, m_cols), dtype=np.int64)
    for i in range(n_rows * m_cols):
        states[i // m_cols, i % m_cols] = enc % 2
        enc //= 2
    return states


def oracle_enumerate(ch):
    """Little-endian raster enumeration.

    Flipping every element never changes the objective, so the argmax is
    a tie class; the lowest encoding within a 1e-12 relative band of the
    maximum wins, matching the library.
    """
    n_rows, m_cols = ch.shape
    n_configs = 2 ** (n_rows * m_cols)
    vals = [abs(oracle_gain(ch, decode_states(e, n_rows, m_cols))) for e in range(n_configs)]
    best_val = max(vals)
    for e, v in enumerate(vals):
        if v >= best_val * (1 - 1e-12):
            return decode_states(e, n_rows, m_cols), v
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
        OptimizeTrace([1.0, 2.0, 1.5])  # decreasing
    t = OptimizeTrace([1.0, 1.0, 2.0])
    assert t.steps == 3
    assert t.final_objective == 2.0 and type(t.final_objective) is float


# ---------------------------------------------------------------- element-wise IM

def test_im_matches_greedy_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n_rows = int(rng.integers(1, 7))
        m_cols = int(rng.integers(1, 7))
        ch = random_channels(rng, n_rows, m_cols)
        want_states, want_best, want_hist = oracle_im(ch)
        for cfg, trace in (im_optimize(ch), reference_im(ch, use_incremental=False)):
            np.testing.assert_array_equal(cfg.states, want_states)
            assert trace.final_objective == pytest.approx(want_best, rel=1e-9)
            np.testing.assert_allclose(trace.best_objective_history, want_hist,
                                       rtol=1e-9)


# Hand-made zero-start cases, each three groups on a start sum of 1:
# name -> (flip terms, final states, two-step best history)
GREEDY_CASES = {
    "every group commits": ([1, 1j, 2], [True, True, True],
                            [1.0, 2.0, 2.0, abs(2 + 1j), abs(2 + 1j), abs(4 + 1j)]),
    "no group commits": ([-0.5, -1.5, -1], [False, False, False], [1.0] * 6),
    # |1 - 2| == |1| exactly: a tie keeps state 0
    "exact ties": ([-2, -2, -2], [False, False, False], [1.0] * 6),
    # group 0 commits, group 1 ties at |-1 - 1j| == |1 + 1j|, group 2 commits
    "mixed": ([1j, -2 - 2j, 1], [True, False, True],
              [1.0, abs(1 + 1j), abs(1 + 1j), abs(1 + 1j), abs(1 + 1j), abs(2 + 1j)]),
}


def test_greedy_zero_start_cases_pin_both_kernels():
    """One table pins both kernels: ``_greedy`` case by case, and
    ``_greedy_batch`` with the cases as the columns of one batch."""
    for flips, want_states, want_history in GREEDY_CASES.values():
        states, trace = _greedy(np.array(flips, dtype=complex), 1 + 0j)
        assert states.dtype == bool
        assert states.tolist() == want_states
        assert trace.steps == 2 * len(flips)
        assert trace.best_objective_history.tolist() == want_history
        assert trace.final_objective == want_history[-1]
    flips = np.array([case[0] for case in GREEDY_CASES.values()], dtype=complex).T
    starts = np.ones(flips.shape[1], dtype=complex)
    states = _greedy_batch(flips, starts)
    assert states.dtype == bool
    assert states.T.tolist() == [case[1] for case in GREEDY_CASES.values()]
    np.testing.assert_array_equal(starts, 1)  # the caller's start sums are not changed


def test_im_single_element_tie_keeps_incumbent():
    # Unit channels: both binary states reach |1|; the starting state wins.
    ch = ChannelMatrices(np.ones((1, 1), complex), np.ones((1, 1), complex))
    cfg, trace = im_optimize(ch)
    assert cfg.states[0, 0] == 0
    assert trace.steps == 2
    assert trace.final_objective == pytest.approx(1.0, rel=1e-12)


def test_im_rerun_from_output_does_not_decrease():
    # A search from config c is the all-zero search on the channel with
    # c's phasors folded into h; its flips are taken relative to c.
    rng = np.random.default_rng(20)
    ch = random_channels(rng, 5, 5)
    cfg1, t1 = im_optimize(ch)
    folded = ChannelMatrices(ch.h * np.where(cfg1.states == 1, -1.0, 1.0), ch.g)
    cfg2, t2 = im_optimize(folded)
    assert t2.final_objective >= t1.final_objective - 1e-12
    rerun = PhaseConfig(cfg1.states ^ cfg2.states)
    assert objective(ch, rerun) == pytest.approx(t2.final_objective, rel=1e-9)


def test_im_history_monotone_and_counts():
    rng = np.random.default_rng(21)
    ch = random_channels(rng, 6, 3)
    _, trace = im_optimize(ch)
    assert trace.steps == 36
    assert len(trace.best_objective_history) == 36
    assert np.all(np.diff(trace.best_objective_history) >= 0)


# ---------------------------------------------------------------- stripe G-IM

def test_gim_identical_rows_reach_rowwise_brute_force():
    # All rows share the same channel row: greedy per-row sweep must land
    # on the optimum over all 2^N row-state combinations.
    rng = np.random.default_rng(31)
    row_h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    row_g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    ch = ChannelMatrices(np.tile(row_h, (4, 1)), np.tile(row_g, (4, 1)))

    best_val = -np.inf
    for enc in range(2**4):
        row_states = np.array([(enc >> i) & 1 for i in range(4)])
        full = np.repeat(row_states[:, None], 4, axis=1)
        best_val = max(best_val, abs(oracle_gain(ch, full)))

    stripe, trace = gim_optimize(ch, "horizontal")
    assert trace.final_objective == pytest.approx(best_val, rel=1e-9)
    full = expand_stripe(stripe, "horizontal", (4, 4))
    assert objective(ch, full) == pytest.approx(best_val, rel=1e-9)


def test_gim_zero_channel_keeps_initialization():
    ch = ChannelMatrices(np.ones((3, 4), complex), np.zeros((3, 4), complex))
    for orientation, expected_len in [("horizontal", 3), ("vertical", 4)]:
        stripe, trace = gim_optimize(ch, orientation)
        assert stripe.dtype == np.int64
        np.testing.assert_array_equal(stripe, np.zeros(expected_len))
        assert trace.final_objective == 0.0
        np.testing.assert_array_equal(trace.best_objective_history, 0.0)


def test_gim_matches_stripe_oracle():
    """Strict-improvement stripe sweep recomputed from scratch in the test."""
    rng = np.random.default_rng(32)
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
                    val = abs(oracle_gain(ch, full))
                    if val > best:
                        best = val
                        states = trial

            for stripe, trace in (
                    gim_optimize(ch, orientation),
                    reference_gim(ch, orientation, use_incremental=False)):
                np.testing.assert_array_equal(stripe, states)
                assert trace.final_objective == pytest.approx(best, rel=1e-9)


def test_gim_improves_on_all_zero():
    rng = np.random.default_rng(33)
    for _ in range(10):
        ch = random_channels(rng, 5, 5)
        stripe, trace = gim_optimize(ch, "horizontal")
        base = objective(ch, PhaseConfig.zeros(5, 5))
        assert trace.final_objective >= base - 1e-12


def test_gim_orientation_validation():
    rng = np.random.default_rng(34)
    ch = random_channels(rng, 3, 3)
    with pytest.raises(ValueError):
        gim_optimize(ch, "diagonal")


# ---------------------------------------------------------------- stripes

def test_combine_identity_and_modulo():
    zeros_h, zeros_v = np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64)
    np.testing.assert_array_equal(combine_stripes(zeros_h, zeros_v).states, np.zeros((3, 4)))
    # 180 + 180 wraps to 0
    np.testing.assert_array_equal(combine_stripes(zeros_h + 1, zeros_v + 1).states,
                                  np.zeros((3, 4)))


def test_combine_checkerboard_is_elementwise_xor():
    h = np.array([0, 1, 0, 1])
    v = np.array([1, 0, 1])
    full = combine_stripes(h, v)
    assert full.shape == (4, 3)  # rows first, columns second
    for n in range(4):
        for m in range(3):
            assert full.states[n, m] == (h[n] ^ v[m])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=12),
       st.lists(st.integers(0, 1), min_size=1, max_size=12))
def test_combine_property_is_xor_of_expanded_stripes(h_bits, v_bits):
    shape = (len(h_bits), len(v_bits))
    want = (expand_stripe(h_bits, "horizontal", shape).states
            ^ expand_stripe(v_bits, "vertical", shape).states)
    full = combine_stripes(np.array(h_bits), np.array(v_bits))
    np.testing.assert_array_equal(full.states, want)


def test_stripe_validation():
    pair = np.array([0, 1])
    with pytest.raises(ValueError, match="row states must be a 1-D integer vector"):
        combine_stripes(np.zeros((2, 2), dtype=np.int64), pair)
    with pytest.raises(ValueError, match="column states must be a 1-D integer vector"):
        combine_stripes(pair, np.array([[0], [1]]))
    with pytest.raises(ValueError, match="row states must be a 1-D integer vector"):
        combine_stripes(np.array([0.0, 1.0]), pair)


@pytest.mark.parametrize("h, v", [
    ([-1, 0], [0, 1]),  # -1 must not pass as state 1, as -1 & 1 would
    ([0, 1], [0, -1]),
    ([0, 2], [0, 1]),
])
def test_combine_rejects_states_outside_the_table(h, v):
    with pytest.raises(ValueError, match=r"(row|column) states must be 0 or 1"):
        combine_stripes(np.array(h), np.array(v))


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
        want_states, want_val = oracle_enumerate(ch)
        cfg, val = exhaustive_optimize(ch)
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
        got = im_optimize(ch)
        assert_bit_identical(got, reference_im(ch, use_incremental=True))
        assert_matches_recompute(
            got, reference_im(ch, use_incremental=False),
            ties_possible=False)
        for orientation in ("horizontal", "vertical"):
            got = gim_optimize(ch, orientation=orientation)
            assert_bit_identical(
                got, reference_gim(ch, orientation, use_incremental=True))
            assert_matches_recompute(
                got, reference_gim(ch, orientation, use_incremental=False),
                ties_possible=False)


def test_im_bit_identical_to_reference_on_desk_channels():
    geom = RisGeometry.half_wavelength(40, 40, 5e9)
    h = compute_illumination(geom, TxSpec(1.0))
    for el, az in [(-60.0, 0.0), (-25.0, 95.0), (0.0, 40.0), (35.0, 150.0), (60.0, 180.0)]:
        ch = compute_channels(geom, h, RxSpec(10.0, el, az))
        assert_bit_identical(im_optimize(ch), reference_im(ch, use_incremental=True))


def test_gim_bit_identical_to_reference_on_desk_channels():
    geom = RisGeometry.half_wavelength(40, 40, 5e9)
    h = compute_illumination(geom, TxSpec(1.0))
    for el, az in [(-60.0, 0.0), (-25.0, 95.0), (0.0, 40.0), (35.0, 150.0), (60.0, 180.0)]:
        ch = compute_channels(geom, h, RxSpec(10.0, el, az))
        for orientation in ("horizontal", "vertical"):
            assert_bit_identical(
                gim_optimize(ch, orientation),
                reference_gim(ch, orientation, use_incremental=True))


@st.composite
def greedy_instances(draw):
    """Seeded Gaussian channel of 1x1 to 6x6 elements."""
    n_rows = draw(st.integers(1, 6))
    m_cols = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_channels(rng, n_rows, m_cols)


@settings(max_examples=150, deadline=None)
@given(greedy_instances())
def test_im_property_matches_reference_searches(ch):
    got = im_optimize(ch)
    assert_bit_identical(got, reference_im(ch, use_incremental=True))
    assert_matches_recompute(got, reference_im(ch, use_incremental=False),
                             ties_possible=ch.h.size == 1)


@settings(max_examples=150, deadline=None)
@given(greedy_instances(), st.sampled_from(("horizontal", "vertical")))
def test_gim_property_matches_reference_searches(ch, orientation):
    n_stripes = ch.shape[0] if orientation == "horizontal" else ch.shape[1]
    got = gim_optimize(ch, orientation)
    assert_bit_identical(got, reference_gim(ch, orientation, use_incremental=True))
    assert_matches_recompute(
        got, reference_gim(ch, orientation, use_incremental=False),
        ties_possible=n_stripes == 1)


@settings(max_examples=150, deadline=None)
@given(greedy_instances(), st.sampled_from(("horizontal", "vertical")))
def test_gim_is_im_over_stripe_groups(ch, orientation):
    """A stripe search is the element-wise search on a surface whose
    elements are the stripes: h holds each stripe's summed h*g and g is 1.
    The two start sums add the same terms in a different order, so the
    histories agree to rounding, and a single stripe may tie."""
    hg = ch.h * ch.g
    if orientation == "horizontal":
        h = hg.sum(axis=1)[:, np.newaxis]  # (N, 1)
    else:
        h = hg.sum(axis=0)[np.newaxis, :]  # (1, M)
    states, trace = gim_optimize(ch, orientation)
    cfg, want = im_optimize(ChannelMatrices(h, np.ones_like(h)))
    if h.size > 1:
        np.testing.assert_array_equal(states, cfg.states.ravel())
    assert trace.steps == want.steps
    np.testing.assert_allclose(trace.best_objective_history,
                               want.best_objective_history, rtol=1e-12)


def assert_batch_matches_per_angle_searches(chs):
    rows, cols, im = batch_optimize(chs)
    n_rows, m_cols = chs[0].shape
    assert rows.shape == (len(chs), n_rows) and cols.shape == (len(chs), m_cols)
    assert im.shape == (len(chs), n_rows, m_cols)
    assert rows.dtype == cols.dtype == im.dtype == np.int64
    for a, ch in enumerate(chs):
        np.testing.assert_array_equal(rows[a], gim_optimize(ch, "horizontal")[0])
        np.testing.assert_array_equal(cols[a], gim_optimize(ch, "vertical")[0])
        np.testing.assert_array_equal(im[a], im_optimize(ch)[0].states)


def test_batch_bit_identical_to_per_angle_searches_on_desk_channels():
    geom = RisGeometry.half_wavelength(40, 40, 5e9)
    h = compute_illumination(geom, TxSpec(1.0))
    angles = [(-60.0, 0.0), (-25.0, 95.0), (0.0, 40.0), (35.0, 150.0), (60.0, 180.0), (12.5, 7.5)]
    assert_batch_matches_per_angle_searches(
        [compute_channels(geom, h, RxSpec(10.0, el, az)) for el, az in angles])


def test_batch_rejects_channels_of_another_surface():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="does not match"):
        batch_optimize([random_channels(rng, 3, 4), random_channels(rng, 4, 3)])


@st.composite
def channel_batches(draw):
    """1-9 Gaussian channels of one surface, from 1x1 to 6x6 or the odd
    7x10; the Tx side h is shared, as in a dataset sweep, or not."""
    n_rows, m_cols = draw(st.one_of(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                                    st.just((7, 10))))
    n_angles = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chs = [random_channels(rng, n_rows, m_cols) for _ in range(n_angles)]
    if draw(st.booleans()):
        chs = [ChannelMatrices(chs[0].h, ch.g) for ch in chs]
    return chs


@settings(max_examples=150, deadline=None)
@given(channel_batches())
def test_batch_property_matches_per_angle_searches(chs):
    assert_batch_matches_per_angle_searches(chs)
