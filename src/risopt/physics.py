"""Scattering, channel, and received-power model for a binary-phase RIS.

The surface is an N x M lattice of passive reflecting elements on the
xy-plane facing +z.  Element (m, n) sits at
``((m - (M-1)/2) * dx, (n - (N-1)/2) * dy, 0)`` with m indexing columns
(horizontal axis) and n indexing rows (vertical axis); all per-element
matrices in this module are stored with shape ``(n_rows, m_cols)``.

Angles follow one convention throughout: elevation is measured from the
surface boresight (+z) and azimuth in the xy-plane, so a direction
(theta, phi) has unit vector ``(sin t cos p, sin t sin p, cos t)``.

The transmitter illuminates the surface from the near field (per-element
spherical-wave amplitude and phase); the receiver is modelled in the far
field through a single plane-wave steering phase per element.  Each
element applies one of P discrete reflection phases; the cascade of
illumination, reflection, and steering gives the received signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: Two-state reflection hardware: 0 or 180 degrees per element.
DEFAULT_PHASE_TABLE = (0.0, 180.0)

DB_FLOOR = -300.0  # assigned to exactly-zero magnitudes


class DegeneratePowerError(ValueError):
    """Raised when a power estimate would take log of zero."""


def direction_unit(elevation_deg: float, azimuth_deg: float) -> np.ndarray:
    """Unit vector for (elevation from +z, azimuth in the xy-plane)."""
    t = np.deg2rad(elevation_deg)
    p = np.deg2rad(azimuth_deg)
    return np.array(
        [np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)]
    )


@dataclass(frozen=True)
class RisGeometry:
    """Element counts, lattice spacings, and carrier of the surface."""

    m_cols: int
    n_rows: int
    dx: float
    dy: float
    carrier_freq: float

    def __post_init__(self):
        if self.m_cols < 1 or self.n_rows < 1:
            raise ValueError("element counts must be >= 1")
        if self.dx <= 0 or self.dy <= 0:
            raise ValueError("element spacings must be > 0")
        if self.carrier_freq <= 0:
            raise ValueError("carrier frequency must be > 0")

    @classmethod
    def half_wavelength(cls, m_cols: int, n_rows: int, carrier_freq: float) -> "RisGeometry":
        lam = SPEED_OF_LIGHT / carrier_freq
        return cls(m_cols, n_rows, lam / 2, lam / 2, carrier_freq)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def k0(self) -> float:
        """Free-space wavenumber 2*pi/wavelength."""
        return 2 * np.pi * self.carrier_freq / SPEED_OF_LIGHT

    def element_x(self) -> np.ndarray:
        """Centered x coordinates of the M columns, shape (m_cols,)."""
        m = np.arange(self.m_cols)
        return (m - (self.m_cols - 1) / 2) * self.dx

    def element_y(self) -> np.ndarray:
        """Centered y coordinates of the N rows, shape (n_rows,)."""
        n = np.arange(self.n_rows)
        return (n - (self.n_rows - 1) / 2) * self.dy


@dataclass(frozen=True)
class TxSpec:
    """Transmitter position (spherical, from the surface center) and drive level."""

    distance: float
    elevation_deg: float = 0.0
    azimuth_deg: float = 0.0
    tx_power_amp: float = 1.0

    def __post_init__(self):
        if self.distance <= 0:
            raise ValueError("tx distance must be > 0")
        if not -90.0 <= self.elevation_deg <= 90.0:
            raise ValueError("tx elevation must lie in [-90, 90] degrees")
        if not 0.0 <= self.azimuth_deg < 360.0:
            raise ValueError("tx azimuth must lie in [0, 360) degrees")

    def position(self) -> np.ndarray:
        return self.distance * direction_unit(self.elevation_deg, self.azimuth_deg)


@dataclass(frozen=True)
class RxSpec:
    """Receiver position in spherical coordinates from the surface center."""

    distance: float
    elevation_deg: float = 0.0
    azimuth_deg: float = 0.0

    def __post_init__(self):
        if self.distance <= 0:
            raise ValueError("rx distance must be > 0")
        if not -90.0 <= self.elevation_deg <= 90.0:
            raise ValueError(f"rx elevation {self.elevation_deg} must lie in [-90, 90] degrees")
        if not 0.0 <= self.azimuth_deg < 360.0:
            raise ValueError(f"rx azimuth {self.azimuth_deg} must lie in [0, 360) degrees")


@dataclass(frozen=True)
class PhaseConfig:
    """Discrete reflection state of every element.

    ``states[n, m]`` is an index into ``phase_table`` (degrees).  The
    default table is the two-state 0/180 hardware.
    """

    states: np.ndarray
    phase_table: tuple = DEFAULT_PHASE_TABLE

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.int64)
        if states.ndim != 2:
            raise ValueError("states must be a 2-D matrix")
        object.__setattr__(self, "states", states)
        table = tuple(float(v) for v in self.phase_table)
        if len(table) != len(set(table)):
            raise ValueError("phase_table entries must be distinct")
        if any(not 0.0 <= v < 360.0 for v in table):
            raise ValueError("phase_table entries must lie in [0, 360) degrees")
        object.__setattr__(self, "phase_table", table)
        if states.size and (states.min() < 0 or states.max() >= len(table)):
            raise ValueError("state indices must lie in [0, len(phase_table))")

    @classmethod
    def zeros(cls, n_rows: int, m_cols: int, phase_table=DEFAULT_PHASE_TABLE) -> "PhaseConfig":
        return cls(np.zeros((n_rows, m_cols), dtype=np.int64), phase_table)

    @property
    def num_states(self) -> int:
        return len(self.phase_table)

    @property
    def shape(self) -> tuple:
        return self.states.shape

    def phases_deg(self) -> np.ndarray:
        return np.asarray(self.phase_table)[self.states]

    def phases_rad(self) -> np.ndarray:
        return np.deg2rad(self.phases_deg())

    def with_state(self, row: int, col: int, state: int) -> "PhaseConfig":
        states = self.states.copy()
        states[row, col] = state
        return PhaseConfig(states, self.phase_table)


@dataclass(frozen=True)
class Illumination:
    """Per-element incident amplitude, phase (radians), and cos of incidence angle."""

    amp: np.ndarray
    phase: np.ndarray
    cos_inc: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.amp.shape


@dataclass(frozen=True)
class ChannelMatrices:
    """Per-element Tx->surface (h) and surface->Rx (g) complex coefficients."""

    h: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        if self.h.shape != self.g.shape:
            raise ValueError("h and g must have the same shape")
        if not (np.all(np.isfinite(self.h)) and np.all(np.isfinite(self.g))):
            raise ValueError("channel entries must be finite")

    @property
    def shape(self) -> tuple:
        return self.h.shape


@dataclass(frozen=True)
class PatternGrid:
    """Complex field and 20*log10 magnitude over an elevation x azimuth grid."""

    elevations: np.ndarray
    azimuths: np.ndarray
    field: np.ndarray
    power_db: np.ndarray


def _check_dims(geom: RisGeometry, *mats) -> None:
    shape = (geom.n_rows, geom.m_cols)
    for m in mats:
        if m.shape != shape:
            raise ValueError(f"shape {m.shape} does not match geometry {shape}")


def compute_illumination(geom: RisGeometry, tx: TxSpec) -> Illumination:
    """Spherical-wave illumination of every element by the transmitter.

    For each element at lattice position p and Tx-to-element distance r:
    amplitude ``wavelength / (4 pi r)``, phase ``-k0 * r``, and
    ``cos_inc`` the cosine of the angle between the element boresight
    (+z) and the direction from the element to the Tx.
    """
    x = geom.element_x()[np.newaxis, :]
    y = geom.element_y()[:, np.newaxis]
    tx_pos = tx.position()
    r = np.sqrt((tx_pos[0] - x) ** 2 + (tx_pos[1] - y) ** 2 + tx_pos[2] ** 2)
    if np.any(r == 0):
        raise ValueError("tx position coincides with a surface element")
    amp = geom.wavelength / (4 * np.pi * r)
    phase = -geom.k0 * r
    cos_inc = tx_pos[2] / r
    amp, cos_inc = np.broadcast_arrays(amp, cos_inc)
    phase = np.broadcast_to(phase, amp.shape)
    return Illumination(amp.copy(), phase.copy(), cos_inc.copy())


def _steering_phase(geom: RisGeometry, elevation_deg: float, azimuth_deg: float):
    """Per-column and per-row steering phases toward (elevation, azimuth)."""
    t = np.deg2rad(elevation_deg)
    p = np.deg2rad(azimuth_deg)
    u = np.sin(t) * np.cos(p)
    v = np.sin(t) * np.sin(p)
    col = geom.k0 * geom.dx * np.arange(geom.m_cols) * u
    row = geom.k0 * geom.dy * np.arange(geom.n_rows) * v
    return col, row


def compute_channels(
    geom: RisGeometry,
    illum: Illumination,
    rx: RxSpec,
    *,
    flat_tx_phase: bool = False,
) -> ChannelMatrices:
    """Assemble per-element channel coefficients h (Tx side) and g (Rx side).

    ``h[n, m] = amp * exp(j * phase) * cos_inc`` carries the near-field
    illumination; with ``flat_tx_phase`` the per-element Tx phase is
    dropped (``h = amp * cos_inc``), leaving only path-loss amplitude and
    incidence taper on the Tx side.

    ``g[n, m] = L_rx * cos(t_rx) * exp(j k0 (m dx sin t cos p + n dy sin t sin p))``
    with the shared far-field path loss ``L_rx = wavelength / (4 pi d_rx)``.
    """
    _check_dims(geom, illum.amp, illum.phase, illum.cos_inc)
    if flat_tx_phase:
        h = (illum.amp * illum.cos_inc).astype(complex)
    else:
        h = illum.amp * np.exp(1j * illum.phase) * illum.cos_inc
    l_rx = geom.wavelength / (4 * np.pi * rx.distance)
    col, row = _steering_phase(geom, rx.elevation_deg, rx.azimuth_deg)
    steer = np.exp(1j * (row[:, np.newaxis] + col[np.newaxis, :]))
    g = l_rx * np.cos(np.deg2rad(rx.elevation_deg)) * steer
    return ChannelMatrices(h, g)


def scattered_field(
    geom: RisGeometry,
    illum: Illumination,
    cfg: PhaseConfig,
    elevation_deg: float,
    azimuth_deg: float,
) -> complex:
    """Scattered far field in direction (elevation, azimuth).

    Superposition over all elements of illumination, unit-amplitude
    reflection with the element's configured phase, and the array
    steering factor, weighted by the cos(elevation) element pattern of
    the reflected wave.
    """
    _check_dims(geom, illum.amp, cfg.states)
    col, row = _steering_phase(geom, elevation_deg, azimuth_deg)
    steer = np.exp(1j * (row[:, np.newaxis] + col[np.newaxis, :]))
    terms = illum.amp * np.exp(1j * (illum.phase + cfg.phases_rad())) * illum.cos_inc * steer
    return complex(np.cos(np.deg2rad(elevation_deg)) * terms.sum())


def radiation_pattern(
    geom: RisGeometry,
    illum: Illumination,
    cfg: PhaseConfig,
    elevations,
    azimuths,
) -> PatternGrid:
    """Scattered field over an elevation x azimuth grid.

    Equivalent to evaluating :func:`scattered_field` at every grid point;
    the per-direction steering factor is separable in rows and columns,
    which the grid evaluation exploits.
    """
    elevations = np.atleast_1d(np.asarray(elevations, dtype=float))
    azimuths = np.atleast_1d(np.asarray(azimuths, dtype=float))
    if elevations.size == 0 or azimuths.size == 0:
        raise ValueError("angle lists must be non-empty")
    _check_dims(geom, illum.amp, cfg.states)

    weights = illum.amp * np.exp(1j * (illum.phase + cfg.phases_rad())) * illum.cos_inc

    t = np.deg2rad(elevations)[:, np.newaxis]
    p = np.deg2rad(azimuths)[np.newaxis, :]
    u = np.sin(t) * np.cos(p)  # (E, A)
    v = np.sin(t) * np.sin(p)
    m = np.arange(geom.m_cols)
    n = np.arange(geom.n_rows)
    ex = np.exp(1j * geom.k0 * geom.dx * u[..., np.newaxis] * m)  # (E, A, M)
    ey = np.exp(1j * geom.k0 * geom.dy * v[..., np.newaxis] * n)  # (E, A, N)
    field = np.einsum("ean,nm,eam->ea", ey, weights, ex, optimize=True)
    field *= np.cos(t)

    mag = np.abs(field)
    with np.errstate(divide="ignore"):
        power_db = np.where(mag > 0, 20 * np.log10(np.where(mag > 0, mag, 1.0)), DB_FLOOR)
    return PatternGrid(elevations, azimuths, field, power_db)


def cascade_gain(ch: ChannelMatrices, cfg: PhaseConfig) -> complex:
    """Complex end-to-end gain: sum over elements of h * exp(j*phase) * g."""
    if ch.shape != cfg.shape:
        raise ValueError(f"config shape {cfg.shape} does not match channels {ch.shape}")
    return complex((ch.h * np.exp(1j * cfg.phases_rad()) * ch.g).sum())


def flip_delta(
    ch: ChannelMatrices,
    cfg: PhaseConfig,
    row: int,
    col: int,
    new_state: int,
    current_sum: complex,
) -> complex:
    """Cascade gain after switching one element, updated in O(1).

    ``current_sum`` must equal ``cascade_gain(ch, cfg)``; the input config
    is not modified.  Switching to the element's current state returns
    ``current_sum`` unchanged.
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


def objective(ch: ChannelMatrices, cfg: PhaseConfig) -> float:
    """Magnitude of the cascade gain; the noiseless quantity the optimizers maximize."""
    return abs(cascade_gain(ch, cfg))


def simulate_received_signal(
    ch: ChannelMatrices,
    cfg: PhaseConfig,
    x,
    noise_sigma: float,
    rng_seed: int,
) -> np.ndarray:
    """Baseband receive samples ``y[k] = G * x[k] + n[k]``.

    Noise is circularly-symmetric complex Gaussian with total standard
    deviation ``noise_sigma`` (``noise_sigma / sqrt(2)`` per component),
    drawn from a generator seeded with ``rng_seed``.
    """
    x = np.asarray(x, dtype=complex)
    if x.size == 0:
        raise ValueError("transmit sequence must contain at least one sample")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    y = cascade_gain(ch, cfg) * x
    if noise_sigma > 0:
        rng = np.random.default_rng(rng_seed)
        scale = noise_sigma / np.sqrt(2)
        y = y + scale * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
    return y


def received_power_db(y) -> float:
    """Average power of a sample sequence in dB: 10*log10(mean |y|^2)."""
    y = np.asarray(y, dtype=complex)
    if y.size == 0:
        raise ValueError("sample sequence must contain at least one sample")
    power = float(np.mean(y.real**2 + y.imag**2))
    if power == 0.0:
        raise DegeneratePowerError("all samples are zero; power is -inf dB")
    return 10 * np.log10(power)
