"""Binary-phase RIS simulation, greedy configuration search, and a
CNN that maps cheap stripe measurements to a full element-wise config."""

from risopt.physics import (
    DB_FLOOR,
    PHASE_TABLE,
    SPEED_OF_LIGHT,
    ChannelMatrices,
    DegeneratePowerError,
    Illumination,
    PatternGrid,
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

__version__ = "0.1.0"
