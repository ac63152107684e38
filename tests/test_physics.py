"""Physics layer vs. independent scalar-loop oracles.

Every vectorized quantity is recomputed here element by element from
explicit 3-D positions and compared at tight tolerance.  The oracles
deliberately share no code with the library.
"""

import numpy as np
import pytest

from risopt import (
    PHASE_TABLE,
    ChannelMatrices,
    DegeneratePowerError,
    PhaseConfig,
    RisGeometry,
    RxSpec,
    TxSpec,
    cascade_gain,
    compute_channels,
    compute_illumination,
    objective,
    radiation_pattern,
    received_power_db,
    simulate_received_signal,
)
from risopt import physics
from risopt.physics import SPEED_OF_LIGHT, direction_cosines

from oracles import flip_delta, phases_rad, scattered_field, with_state


# ---------------------------------------------------------------- oracles

def oracle_unit(elev_deg, azim_deg):
    t = np.deg2rad(elev_deg)
    p = np.deg2rad(azim_deg)
    return np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])


def oracle_positions(geom):
    """Explicit 3-D lattice positions, shape (n_rows, m_cols, 3)."""
    pos = np.zeros((geom.n_rows, geom.m_cols, 3))
    for n in range(geom.n_rows):
        for m in range(geom.m_cols):
            pos[n, m, 0] = (m - (geom.m_cols - 1) / 2) * geom.dx
            pos[n, m, 1] = (n - (geom.n_rows - 1) / 2) * geom.dy
    return pos


def oracle_illumination(geom, tx):
    pos = oracle_positions(geom)
    tx_pos = tx.distance * oracle_unit(tx.elevation_deg, tx.azimuth_deg)
    amp = np.zeros((geom.n_rows, geom.m_cols))
    phase = np.zeros_like(amp)
    cos_inc = np.zeros_like(amp)
    lam = SPEED_OF_LIGHT / geom.carrier_freq
    k0 = 2 * np.pi / lam
    for n in range(geom.n_rows):
        for m in range(geom.m_cols):
            d = tx_pos - pos[n, m]
            r = np.linalg.norm(d)
            amp[n, m] = lam / (4 * np.pi * r)
            phase[n, m] = -k0 * r
            # angle between element boresight +z and unit vector toward Tx
            cos_inc[n, m] = (d / r) @ np.array([0.0, 0.0, 1.0])
    return amp, phase, cos_inc


def oracle_h(geom, tx):
    """Tx-side coefficients ``amp * e^{j phase} * cos_inc`` of the oracle illumination."""
    amp, phase, cos_inc = oracle_illumination(geom, tx)
    return amp * np.exp(1j * phase) * cos_inc


def oracle_field(geom, h, cfg, elev_deg, azim_deg):
    """Direct double-loop accumulation of the scattered-field sum."""
    k0 = 2 * np.pi * geom.carrier_freq / SPEED_OF_LIGHT
    t = np.deg2rad(elev_deg)
    p = np.deg2rad(azim_deg)
    total = 0.0 + 0.0j
    for n in range(geom.n_rows):
        for m in range(geom.m_cols):
            refl = np.deg2rad(PHASE_TABLE[cfg.states[n, m]])
            steer = k0 * (
                m * geom.dx * np.sin(t) * np.cos(p)
                + n * geom.dy * np.sin(t) * np.sin(p)
            )
            total += (
                h[n, m]
                * np.exp(1j * refl)
                * np.exp(1j * steer)
            )
    return np.cos(t) * total


def oracle_gain(ch, cfg):
    total = 0.0 + 0.0j
    n_rows, m_cols = ch.shape
    for n in range(n_rows):
        for m in range(m_cols):
            refl = np.deg2rad(PHASE_TABLE[cfg.states[n, m]])
            total += ch.h[n, m] * np.exp(1j * refl) * ch.g[n, m]
    return total


def random_instance(rng, max_side=8):
    m_cols = int(rng.integers(1, max_side + 1))
    n_rows = int(rng.integers(1, max_side + 1))
    freq = float(rng.uniform(1e9, 30e9))
    lam = SPEED_OF_LIGHT / freq
    geom = RisGeometry(m_cols, n_rows, lam * rng.uniform(0.3, 0.7),
                       lam * rng.uniform(0.3, 0.7), freq)
    tx = TxSpec(float(rng.uniform(0.3, 3.0)), float(rng.uniform(-80, 80)),
                float(rng.uniform(0, 360 - 1e-9)))
    rx = RxSpec(float(rng.uniform(2.0, 50.0)), float(rng.uniform(-80, 80)),
                float(rng.uniform(0, 360)))
    cfg = PhaseConfig(rng.integers(0, 2, (n_rows, m_cols)))
    return geom, tx, rx, cfg


# ---------------------------------------------------------------- geometry

def test_wavelength_and_wavenumber():
    geom = RisGeometry(4, 4, 0.03, 0.03, 5e9)
    assert geom.wavelength == pytest.approx(SPEED_OF_LIGHT / 5e9, rel=1e-15)
    assert geom.k0 == pytest.approx(2 * np.pi * 5e9 / SPEED_OF_LIGHT, rel=1e-15)


def test_half_wavelength_constructor():
    geom = RisGeometry.half_wavelength(40, 40, 5e9)
    assert geom.dx == pytest.approx(geom.wavelength / 2, rel=1e-15)
    assert geom.dy == geom.dx
    assert geom.m_cols == 40 and geom.n_rows == 40


def test_lattice_is_centered():
    for m_cols, n_rows in [(1, 1), (2, 5), (40, 40)]:
        geom = RisGeometry.half_wavelength(m_cols, n_rows, 5e9)
        assert abs(geom.element_x().sum()) < 1e-12
        assert abs(geom.element_y().sum()) < 1e-12


def test_geometry_validation():
    with pytest.raises(ValueError):
        RisGeometry(0, 4, 0.03, 0.03, 5e9)
    with pytest.raises(ValueError):
        RisGeometry(4, 4, 0.0, 0.03, 5e9)
    with pytest.raises(ValueError):
        RisGeometry(4, 4, 0.03, 0.03, -1.0)


def test_tx_rx_validation():
    with pytest.raises(ValueError):
        TxSpec(0.0)
    with pytest.raises(ValueError):
        TxSpec(1.0, elevation_deg=91.0)
    with pytest.raises(ValueError):
        TxSpec(1.0, azimuth_deg=360.0)
    with pytest.raises(ValueError):
        RxSpec(-1.0)
    for el, az in [(95.0, 0.0), (-90.5, 0.0), (0.0, 400.0), (0.0, 360.0), (0.0, -1.0)]:
        for spec, name in ((RxSpec, "rx"), (TxSpec, "tx")):
            with pytest.raises(ValueError, match=f"{name} (elevation {el}|azimuth {az}) must"):
                spec(10.0, el, az)
    for el, az in [(90.0, 0.0), (-90.0, 359.9)]:  # closed elevation ends
        assert RxSpec(10.0, el, az).elevation_deg == el


def test_direction_unit_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = float(rng.uniform(-90, 90))
        p = float(rng.uniform(0, 360))
        want = oracle_unit(t, p)
        np.testing.assert_allclose(direction_cosines(t, p), want[:2], rtol=0, atol=1e-15)
        np.testing.assert_allclose(TxSpec(2.5, t, p).position(), 2.5 * want,
                                   rtol=0, atol=1e-15)


# ---------------------------------------------------------------- phase config

def test_phase_config_lookup_and_copy():
    cfg = PhaseConfig(np.array([[0, 1], [1, 0]]))
    np.testing.assert_array_equal(phases_rad(cfg), [[0.0, np.pi], [np.pi, 0.0]])
    np.testing.assert_allclose(physics.PHASORS[cfg.states], [[1, -1], [-1, 1]], atol=1e-15)
    cfg2 = with_state(cfg, 0, 0, 1)
    assert cfg2.states[0, 0] == 1
    assert cfg.states[0, 0] == 0  # original untouched


def test_phase_config_validation():
    for states in ([[0, 2]], [[-1, 0]]):
        with pytest.raises(ValueError, match="states must be 0 or 1"):
            PhaseConfig(np.array(states))
    with pytest.raises(ValueError):
        PhaseConfig(np.array([0, 1]))  # not 2-D


# ---------------------------------------------------------------- illumination

def test_illumination_matches_vector_oracle():
    rng = np.random.default_rng(21)
    for _ in range(30):
        geom, tx, _, _ = random_instance(rng)
        amp, phase, cos_inc = oracle_illumination(geom, tx)
        np.testing.assert_allclose(compute_illumination(geom, tx),
                                   amp * np.exp(1j * phase) * cos_inc, rtol=1e-12)
        flat = compute_illumination(geom, tx, flat_tx_phase=True)
        np.testing.assert_array_equal(flat.imag, 0.0)
        np.testing.assert_allclose(flat.real, amp * cos_inc, rtol=1e-12)


def test_illumination_broadside_symmetry():
    # Tx on boresight: h symmetric under row/col reversal, peak magnitude
    # at the elements nearest the center; the flat form real and positive.
    geom = RisGeometry.half_wavelength(6, 6, 5e9)
    for flat in (False, True):
        h = compute_illumination(geom, TxSpec(1.0), flat_tx_phase=flat)
        np.testing.assert_allclose(h, h[::-1, :], rtol=1e-13)
        np.testing.assert_allclose(h, h[:, ::-1], rtol=1e-13)
        assert abs(h).max() == abs(h[2:4, 2:4]).max()
    np.testing.assert_array_equal(h.imag, 0.0)  # the flat form, amp * cos_inc
    assert np.all(h.real > 0)
    np.testing.assert_allclose(h.real, abs(oracle_h(geom, TxSpec(1.0))), rtol=1e-12)


# ---------------------------------------------------------------- channels

def test_channels_match_scalar_oracle():
    rng = np.random.default_rng(31)
    for _ in range(30):
        geom, tx, rx, _ = random_instance(rng)
        ch = compute_channels(geom, compute_illumination(geom, tx), rx)
        h = oracle_h(geom, tx)
        lam = SPEED_OF_LIGHT / geom.carrier_freq
        k0 = 2 * np.pi / lam
        t = np.deg2rad(rx.elevation_deg)
        p = np.deg2rad(rx.azimuth_deg)
        l_rx = lam / (4 * np.pi * rx.distance)
        for n in range(geom.n_rows):
            for m in range(geom.m_cols):
                g_ref = l_rx * np.cos(t) * np.exp(1j * k0 * (
                    m * geom.dx * np.sin(t) * np.cos(p)
                    + n * geom.dy * np.sin(t) * np.sin(p)))
                assert abs(ch.h[n, m] - h[n, m]) <= 1e-12 * abs(h[n, m])
                assert abs(ch.g[n, m] - g_ref) <= 1e-12 * abs(g_ref) + 1e-300


def test_flat_tx_phase_drops_illumination_phase():
    geom = RisGeometry.half_wavelength(4, 4, 5e9)
    tx = TxSpec(1.0, 10.0, 45.0)
    flat = compute_illumination(geom, tx, flat_tx_phase=True)
    h = compute_illumination(geom, tx)
    np.testing.assert_array_equal(flat.imag, 0.0)
    np.testing.assert_allclose(flat.real, abs(h), rtol=1e-15)
    # the channels take h as given, and the g side does not see it
    ch = compute_channels(geom, flat, RxSpec(10.0))
    assert ch.h is flat
    np.testing.assert_array_equal(ch.g, compute_channels(geom, h, RxSpec(10.0)).g)


# ---------------------------------------------------------------- scattered field

def test_scattered_field_matches_double_loop():
    rng = np.random.default_rng(41)
    for _ in range(30):
        geom, tx, _, cfg = random_instance(rng)
        h = compute_illumination(geom, tx)
        elev = float(rng.uniform(-89, 89))
        azim = float(rng.uniform(0, 360))
        got = scattered_field(geom, h, cfg, elev, azim)
        want = oracle_field(geom, h, cfg, elev, azim)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-30)


def test_broadside_uniform_field_is_element_count():
    # Unit Tx side, all elements in phase: perfect coherent sum.
    for m_cols, n_rows in [(4, 4), (3, 7), (40, 40)]:
        geom = RisGeometry.half_wavelength(m_cols, n_rows, 5e9)
        cfg = PhaseConfig.zeros(n_rows, m_cols)
        e = scattered_field(geom, np.ones((n_rows, m_cols), complex), cfg, 0.0, 0.0)
        assert abs(e - m_cols * n_rows) < 1e-9


def test_scattered_field_shape_mismatch():
    geom = RisGeometry.half_wavelength(4, 4, 5e9)
    h = compute_illumination(geom, TxSpec(1.0))
    with pytest.raises(ValueError):
        scattered_field(geom, h, PhaseConfig.zeros(3, 4), 0.0, 0.0)


def test_global_phase_offset_preserves_magnitude():
    # Flipping every element adds 180 degrees to each phase: it rotates the
    # field but not |E|.
    rng = np.random.default_rng(51)
    geom, tx, _, cfg = random_instance(rng)
    h = compute_illumination(geom, tx)
    shifted = PhaseConfig(1 - cfg.states)
    e0 = scattered_field(geom, h, cfg, 25.0, 40.0)
    e1 = scattered_field(geom, h, shifted, 25.0, 40.0)
    assert abs(abs(e0) - abs(e1)) < 1e-12 * abs(e0)


# ---------------------------------------------------------------- pattern grid

def test_pattern_matches_pointwise_field():
    rng = np.random.default_rng(61)
    geom, tx, _, cfg = random_instance(rng)
    h = compute_illumination(geom, tx)
    elevs = np.array([-60.0, -15.0, 0.0, 30.0, 75.0])
    azims = np.array([0.0, 90.0, 181.0, 355.0])
    pat = radiation_pattern(geom, h, cfg, elevs, azims)
    assert pat.field.shape == (5, 4)
    for i, t in enumerate(elevs):
        for j, p in enumerate(azims):
            want = scattered_field(geom, h, cfg, float(t), float(p))
            assert abs(pat.field[i, j] - want) <= 1e-12 * max(abs(want), 1e-30)
            if abs(want) > 0:
                assert pat.power_db[i, j] == pytest.approx(
                    20 * np.log10(abs(want)), rel=1e-12)


def test_pattern_zero_field_floor():
    geom = RisGeometry.half_wavelength(3, 3, 5e9)
    dark = np.zeros((3, 3), complex)
    pat = radiation_pattern(geom, dark, PhaseConfig.zeros(3, 3), [0.0], [0.0])
    assert pat.power_db[0, 0] == -300.0


def test_power_db_maps_scalars_to_floats_and_arrays_entrywise():
    mags = np.abs(np.random.default_rng(5).standard_normal((3, 7))) * 1e-4
    mags[1, 2] = 0.0
    db = physics.power_db(mags)
    assert db.shape == mags.shape
    assert db[1, 2] == physics.DB_FLOOR
    # each entry has the bytes of the scalar call
    assert [physics.power_db(float(m)) for m in mags.ravel()] == db.ravel().tolist()
    assert type(physics.power_db(np.float64(0.5))) is float
    assert physics.power_db(0.0) == physics.DB_FLOOR
    with pytest.raises(ValueError, match="magnitude must be >= 0"):
        physics.power_db(np.array([1.0, -1e-300]))


def test_pattern_rejects_empty_grid():
    geom = RisGeometry.half_wavelength(3, 3, 5e9)
    h = compute_illumination(geom, TxSpec(1.0))
    with pytest.raises(ValueError):
        radiation_pattern(geom, h, PhaseConfig.zeros(3, 3), [], [0.0])


def assert_pattern_matches_field(geom, h, cfg, elevs, azims):
    """Every grid point of the blocked pattern within 1e-12 of scattered_field."""
    pat = radiation_pattern(geom, h, cfg, elevs, azims)
    assert pat.field.shape == (len(elevs), len(azims))
    for i, t in enumerate(elevs):
        for j, p in enumerate(azims):
            want = scattered_field(geom, h, cfg, float(t), float(p))
            assert abs(pat.field[i, j] - want) <= 1e-12 * max(abs(want), 1e-30), (t, p)


def test_pattern_crosses_block_boundary_on_desk_surface():
    geom = RisGeometry.half_wavelength(40, 40, 5e9)
    h = compute_illumination(geom, TxSpec(1.0))
    cfg = PhaseConfig(np.random.default_rng(62).integers(0, 2, (40, 40)))
    elevs = np.arange(-60.0, 61.0, 5.0)
    azims = np.arange(0.0, 181.0, 5.0)
    assert len(elevs) * len(azims) > physics._PATTERN_BLOCK  # 925 directions, two blocks
    assert_pattern_matches_field(geom, h, cfg, elevs, azims)


def test_pattern_non_square_surface():
    geom = RisGeometry.half_wavelength(96, 128, 5e9)
    h = compute_illumination(geom, TxSpec(1.0, 20.0, 45.0))
    cfg = PhaseConfig(np.random.default_rng(63).integers(0, 2, (128, 96)))
    assert_pattern_matches_field(geom, h, cfg, np.arange(-60.0, 61.0, 10.0),
                                 np.arange(0.0, 360.0, 20.0))


@pytest.mark.parametrize("m_cols, n_rows", [(1, 24), (24, 1), (1, 1)])
def test_pattern_single_row_or_column(m_cols, n_rows):
    # one lattice axis has a one-element ramp: only its k = 0 row is used
    geom = RisGeometry.half_wavelength(m_cols, n_rows, 5e9)
    h = compute_illumination(geom, TxSpec(0.5))
    cfg = PhaseConfig(np.random.default_rng(64).integers(0, 2, (n_rows, m_cols)))
    assert_pattern_matches_field(geom, h, cfg, np.arange(-60.0, 61.0, 5.0),
                                 np.arange(0.0, 181.0, 5.0))


# ---------------------------------------------------------------- cascade gain

def test_cascade_gain_matches_scalar_oracle():
    rng = np.random.default_rng(71)
    for _ in range(30):
        geom, tx, rx, cfg = random_instance(rng)
        h = compute_illumination(geom, tx)
        ch = compute_channels(geom, h, rx)
        got = cascade_gain(ch, cfg)
        want = oracle_gain(ch, cfg)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-30)


def test_cascade_gain_equals_scaled_field_at_rx():
    # Channel product and direct field evaluation are the same model.
    rng = np.random.default_rng(81)
    for _ in range(20):
        geom, tx, rx, cfg = random_instance(rng)
        for flat in (False, True):
            h = compute_illumination(geom, tx, flat_tx_phase=flat)
            g_val = cascade_gain(compute_channels(geom, h, rx), cfg)
            e_val = scattered_field(geom, h, cfg, rx.elevation_deg, rx.azimuth_deg)
            l_rx = geom.wavelength / (4 * np.pi * rx.distance)
            assert abs(g_val - l_rx * e_val) <= 1e-9 * max(abs(g_val), 1e-30)


def test_objective_is_gain_magnitude():
    rng = np.random.default_rng(91)
    geom, tx, rx, cfg = random_instance(rng)
    h = compute_illumination(geom, tx)
    ch = compute_channels(geom, h, rx)
    assert objective(ch, cfg) == abs(cascade_gain(ch, cfg))


def test_cascade_gain_shape_mismatch():
    geom = RisGeometry.half_wavelength(4, 4, 5e9)
    h = compute_illumination(geom, TxSpec(1.0))
    ch = compute_channels(geom, h, RxSpec(10.0))
    with pytest.raises(ValueError):
        cascade_gain(ch, PhaseConfig.zeros(4, 5))


# ---------------------------------------------------------------- flip delta

def test_flip_delta_matches_recompute():
    rng = np.random.default_rng(101)
    for _ in range(20):
        geom, tx, rx, cfg = random_instance(rng)
        h = compute_illumination(geom, tx)
        ch = compute_channels(geom, h, rx)
        current = cascade_gain(ch, cfg)
        for _ in range(25):
            row = int(rng.integers(0, geom.n_rows))
            col = int(rng.integers(0, geom.m_cols))
            new_state = int(rng.integers(0, 2))
            updated = flip_delta(ch, cfg, row, col, new_state, current)
            cfg = with_state(cfg, row, col, new_state)
            full = cascade_gain(ch, cfg)
            assert abs(updated - full) <= 1e-9 * max(abs(full), 1e-30)
            current = updated


def test_flip_delta_noop_is_bitwise_identical():
    rng = np.random.default_rng(111)
    geom, tx, rx, cfg = random_instance(rng)
    h = compute_illumination(geom, tx)
    ch = compute_channels(geom, h, rx)
    current = cascade_gain(ch, cfg)
    same = flip_delta(ch, cfg, 0, 0, int(cfg.states[0, 0]), current)
    assert same == current


def test_flip_delta_bounds():
    geom = RisGeometry.half_wavelength(4, 4, 5e9)
    h = compute_illumination(geom, TxSpec(1.0))
    ch = compute_channels(geom, h, RxSpec(10.0))
    cfg = PhaseConfig.zeros(4, 4)
    s = cascade_gain(ch, cfg)
    with pytest.raises(ValueError):
        flip_delta(ch, cfg, 4, 0, 1, s)
    with pytest.raises(ValueError):
        flip_delta(ch, cfg, 0, -1, 1, s)
    with pytest.raises(ValueError):
        flip_delta(ch, cfg, 0, 0, 2, s)


# ---------------------------------------------------------------- rx signal

def _small_link(seed=7):
    rng = np.random.default_rng(seed)
    geom, tx, rx, cfg = random_instance(rng, max_side=5)
    h = compute_illumination(geom, tx)
    return compute_channels(geom, h, rx), cfg


def test_noiseless_signal_is_pure_scaling():
    ch, cfg = _small_link()
    x = np.exp(1j * np.linspace(0, 2 * np.pi, 16))
    y = simulate_received_signal(ch, cfg, x, 0.0, 0)
    np.testing.assert_array_equal(y, cascade_gain(ch, cfg) * x)


def test_noise_is_seeded_and_reproducible():
    ch, cfg = _small_link()
    x = np.ones(32)
    y1 = simulate_received_signal(ch, cfg, x, 0.1, 1234)
    y2 = simulate_received_signal(ch, cfg, x, 0.1, 1234)
    y3 = simulate_received_signal(ch, cfg, x, 0.1, 1235)
    np.testing.assert_array_equal(y1, y2)
    assert not np.array_equal(y1, y3)


def test_noise_variance_split_between_components():
    # Empirical total noise power ~ sigma^2, half per quadrature.
    ch, cfg = _small_link()
    sigma = 0.5
    x = np.zeros(200_000)
    y = simulate_received_signal(ch, cfg, x, sigma, 99)
    total = np.mean(np.abs(y) ** 2)
    assert total == pytest.approx(sigma**2, rel=0.02)
    assert np.mean(y.real**2) == pytest.approx(sigma**2 / 2, rel=0.03)
    assert np.mean(y.imag**2) == pytest.approx(sigma**2 / 2, rel=0.03)


def test_signal_input_validation():
    ch, cfg = _small_link()
    with pytest.raises(ValueError):
        simulate_received_signal(ch, cfg, [], 0.0, 0)
    with pytest.raises(ValueError):
        simulate_received_signal(ch, cfg, [1.0], -0.1, 0)


# ---------------------------------------------------------------- power

def test_received_power_known_values():
    assert received_power_db([1.0]) == pytest.approx(0.0, abs=1e-12)
    assert received_power_db([2.0]) == pytest.approx(10 * np.log10(4.0), rel=1e-12)
    assert received_power_db([1j, -1j]) == pytest.approx(0.0, abs=1e-12)
    # mean(|[3, 4j]|^2) = (9 + 16) / 2
    assert received_power_db([3.0, 4.0j]) == pytest.approx(
        10 * np.log10(12.5), rel=1e-12)


def test_received_power_degenerate():
    with pytest.raises(DegeneratePowerError):
        received_power_db(np.zeros(8))
    with pytest.raises(ValueError):
        received_power_db([])


def test_channel_matrices_validation():
    with pytest.raises(ValueError):
        ChannelMatrices(np.ones((2, 2), complex), np.ones((2, 3), complex))
    bad = np.ones((2, 2), complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ChannelMatrices(bad, np.ones((2, 2), complex))
