"""Scattering, channel, and received-power model for a binary-phase RIS.

The surface is an N x M lattice of passive reflecting elements on the
xy-plane facing +z.  Element (m, n) sits at
``((m - (M-1)/2) * dx, (n - (N-1)/2) * dy, 0)`` with m indexing columns
(horizontal axis) and n indexing rows (vertical axis); all per-element
matrices in this module are stored with shape ``(n_rows, m_cols)``.

Angles follow one convention throughout: elevation is measured from the
surface boresight (+z) and azimuth in the xy-plane, so a direction
(theta, phi) has unit vector ``(sin t cos p, sin t sin p, cos t)``.

The transmitter illuminates the surface from the near field: the Tx-side
coefficients ``h`` of :func:`compute_illumination` carry each element's
spherical-wave amplitude, phase and incidence taper, and depend only on
the surface and the transmitter.  The receiver is modelled in the far
field through a single plane-wave steering phase per element (the
Rx-side ``g``).  Each element reflects with phase 0 or 180 degrees
(state 0 or 1, phasor ``PHASORS[state]``).  The cascade of ``h``,
reflection and ``g`` gives the received signal, and ``h`` times the
reflection phasor weights each element of the radiation pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: Reflection phase in degrees of element state 0 and state 1.
PHASE_TABLE = (0.0, 180.0)

#: Unit reflection phasor of state 0 and state 1.
PHASORS = np.exp(1j * np.deg2rad(np.asarray(PHASE_TABLE)))

DB_FLOOR = -300.0  # assigned to exactly-zero magnitudes


def power_db(magnitude):
    """20*log10 of a magnitude >= 0, or of each entry of an array of them,
    with exact zeros at ``DB_FLOOR``: a scalar gives a float, an array an
    array."""
    mag = np.asarray(magnitude, dtype=float)
    if (mag < 0).any():
        raise ValueError("magnitude must be >= 0")
    db = np.where(mag == 0, DB_FLOOR, 20 * np.log10(np.where(mag == 0, 1.0, mag)))
    return float(db) if db.ndim == 0 else db


class DegeneratePowerError(ValueError):
    """Raised when a power estimate would take log of zero."""


def direction_cosines(elevation_deg, azimuth_deg):
    """x and y components ``(u, v)`` of the unit vector toward (elevation
    from +z, azimuth in the xy-plane); broadcasts over array angles."""
    t = np.deg2rad(elevation_deg)
    p = np.deg2rad(azimuth_deg)
    sin_t = np.sin(t)
    return sin_t * np.cos(p), sin_t * np.sin(p)


def _check_angles(name: str, elevation_deg: float = 0.0, azimuth_deg: float = 0.0) -> None:
    if not -90.0 <= elevation_deg <= 90.0:
        raise ValueError(f"{name} elevation {elevation_deg} must lie in [-90, 90] degrees")
    if not 0.0 <= azimuth_deg < 360.0:
        raise ValueError(f"{name} azimuth {azimuth_deg} must lie in [0, 360) degrees")


def _check_states(states: np.ndarray, what: str = "states") -> None:
    """The phase-state rule: every state is exactly 0 or 1."""
    if not ((states == 0) | (states == 1)).all():
        raise ValueError(f"{what} must be 0 or 1")


def _check_placement(name: str, spec) -> None:
    """A transmitter or receiver: a finite distance > 0, angles in range."""
    if not (np.isfinite(spec.distance) and spec.distance > 0):
        raise ValueError(f"{name} distance {spec.distance} must be finite and > 0")
    _check_angles(name, spec.elevation_deg, spec.azimuth_deg)


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
    """Transmitter position in spherical coordinates from the surface center."""

    distance: float
    elevation_deg: float = 0.0
    azimuth_deg: float = 0.0

    def __post_init__(self):
        _check_placement("tx", self)

    def position(self) -> np.ndarray:
        u, v = direction_cosines(self.elevation_deg, self.azimuth_deg)
        return self.distance * np.array([u, v, np.cos(np.deg2rad(self.elevation_deg))])


@dataclass(frozen=True)
class RxSpec:
    """Receiver position in spherical coordinates from the surface center."""

    distance: float
    elevation_deg: float = 0.0
    azimuth_deg: float = 0.0

    def __post_init__(self):
        _check_placement("rx", self)


@dataclass(frozen=True)
class PhaseConfig:
    """Reflection state of every element: ``states[n, m]`` is 0 (0 degrees)
    or 1 (180 degrees)."""

    states: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states)
        if states.ndim != 2:
            raise ValueError("states must be a 2-D matrix")
        _check_states(states)  # before the integer cast
        object.__setattr__(self, "states", states.astype(np.int64, copy=False))

    @property
    def shape(self) -> tuple:
        return self.states.shape


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


def compute_illumination(geom: RisGeometry, tx: TxSpec, *,
                         flat_tx_phase: bool = False) -> np.ndarray:
    """Tx-side coefficients ``h[n, m] = amp * exp(j * phase) * cos_inc``.

    For each element at lattice position p and Tx-to-element distance r:
    amplitude ``wavelength / (4 pi r)``, phase ``-k0 * r``, and
    ``cos_inc`` the cosine of the angle between the element boresight
    (+z) and the direction from the element to the Tx.  With
    ``flat_tx_phase`` the per-element Tx phase is dropped
    (``h = amp * cos_inc``), leaving only path-loss amplitude and
    incidence taper.  ``h`` does not depend on the receiver.  A surface
    or Tx distance so large (or a carrier so low) that any of these
    overflows is rejected.
    """
    tx_pos = tx.position()
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        x = geom.element_x()[np.newaxis, :]
        y = geom.element_y()[:, np.newaxis]
        r = np.sqrt((tx_pos[0] - x) ** 2 + (tx_pos[1] - y) ** 2 + tx_pos[2] ** 2)
        if np.any(r == 0):
            raise ValueError("tx position coincides with a surface element")
        amp = geom.wavelength / (4 * np.pi * r)
        phase = -geom.k0 * r
        cos_inc = tx_pos[2] / r
    if not all(np.isfinite(a).all() for a in (amp, phase, cos_inc)):
        raise ValueError("the surface illumination is not finite")
    if flat_tx_phase:
        return (amp * cos_inc).astype(complex)
    return amp * np.exp(1j * phase) * cos_inc


def compute_channels(geom: RisGeometry, h: np.ndarray, rx: RxSpec) -> ChannelMatrices:
    """Per-element channel coefficients: the Tx side ``h`` of
    :func:`compute_illumination` and the Rx side
    ``g[n, m] = L_rx * cos(t_rx) * exp(j k0 (m dx sin t cos p + n dy sin t sin p))``
    with the shared far-field path loss ``L_rx = wavelength / (4 pi d_rx)``.
    """
    l_rx = geom.wavelength / (4 * np.pi * rx.distance)
    u, v = direction_cosines(rx.elevation_deg, rx.azimuth_deg)
    col = geom.k0 * geom.dx * np.arange(geom.m_cols) * u
    row = geom.k0 * geom.dy * np.arange(geom.n_rows) * v
    steer = np.exp(1j * (row[:, np.newaxis] + col[np.newaxis, :]))
    return ChannelMatrices(h, l_rx * np.cos(np.deg2rad(rx.elevation_deg)) * steer)


_PATTERN_BLOCK = 512  # directions per GEMM block; keeps the ramps in cache


def _fill_ramp(out: np.ndarray, step: np.ndarray) -> None:
    """Write ``step ** k`` into row k of ``out`` by repeated multiplication."""
    out[0] = 1.0
    for k in range(1, len(out)):
        np.multiply(out[k - 1], step, out=out[k])


def radiation_pattern(
    geom: RisGeometry,
    h: np.ndarray,
    cfg: PhaseConfig,
    elevations,
    azimuths,
) -> PatternGrid:
    """Scattered field over an elevation x azimuth grid, each element
    weighted by ``h * PHASORS[state]`` as in :func:`cascade_gain`.

    Equivalent to evaluating the direct per-element sum at every grid
    point (the test oracle ``scattered_field`` in ``tests/oracles.py``).
    The steering factor of a direction is separable in rows and columns,
    and along each lattice axis it is a geometric series: column m carries
    ``exp(j k0 dx u) ** m`` and row n ``exp(j k0 dy v) ** n``.  So each
    direction costs two complex ``exp`` calls, and the (M, B) and (N, B)
    ramps of a block of B directions are built by repeated multiplication
    into buffers reused across blocks.  The field of a block is one GEMM,
    ``weights @ column_ramp``, followed by a row-dot with the row ramp;
    blocks of :data:`_PATTERN_BLOCK` directions keep that working set in
    cache.  Each multiplication rounds once, so power k of a ramp can
    differ from the directly computed exponential by about k rounding
    errors; against ``scattered_field`` that stays within 1e-12
    relative per point on the tested surfaces, up to 96x128.
    """
    elevations = np.atleast_1d(np.asarray(elevations, dtype=float))
    azimuths = np.atleast_1d(np.asarray(azimuths, dtype=float))
    if elevations.size == 0 or azimuths.size == 0:
        raise ValueError("angle lists must be non-empty")
    _check_dims(geom, h, cfg.states)

    weights = h * PHASORS[cfg.states]

    u, v = direction_cosines(elevations[:, np.newaxis], azimuths[np.newaxis, :])
    step_x = np.exp(1j * geom.k0 * geom.dx * u).ravel()
    step_y = np.exp(1j * geom.k0 * geom.dy * v).ravel()
    field = np.empty(step_x.size, dtype=complex)
    width = min(_PATTERN_BLOCK, field.size)
    ex = np.empty((geom.m_cols, width), dtype=complex)
    ey = np.empty((geom.n_rows, width), dtype=complex)
    for start in range(0, field.size, width):
        stop = min(start + width, field.size)
        bx, by = ex[:, :stop - start], ey[:, :stop - start]
        _fill_ramp(bx, step_x[start:stop])
        _fill_ramp(by, step_y[start:stop])
        rows = weights @ bx  # (N, B): each row summed over its columns
        rows *= by
        field[start:stop] = rows.sum(axis=0)
    cos_t = np.cos(np.deg2rad(elevations))[:, np.newaxis]
    field = field.reshape(elevations.size, azimuths.size) * cos_t

    return PatternGrid(elevations, azimuths, field, power_db(np.abs(field)))


def cascade_gain(ch: ChannelMatrices, cfg: PhaseConfig) -> complex:
    """Complex end-to-end gain: sum over elements of h * exp(j*phase) * g."""
    if ch.shape != cfg.shape:
        raise ValueError(f"config shape {cfg.shape} does not match channels {ch.shape}")
    return complex((ch.h * PHASORS[cfg.states] * ch.g).sum())


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
