"""Configuration: physical constants and validated simulation parameters."""

from . import constants
from .constants import (
    NGLLX,
    NGLL3,
    NGLL3_PADDED,
    NCHUNKS,
    N_SLS,
    R_EARTH_KM,
    R_CMB_KM,
    R_ICB_KM,
    nex_for_shortest_period,
    shortest_period_for_nex,
)
from .parameters import (
    RETIRED_KEYS,
    ConfigError,
    ParameterError,
    SimulationParameters,
    params_for_period,
)

__all__ = [
    "constants",
    "NGLLX",
    "NGLL3",
    "NGLL3_PADDED",
    "NCHUNKS",
    "N_SLS",
    "R_EARTH_KM",
    "R_CMB_KM",
    "R_ICB_KM",
    "nex_for_shortest_period",
    "shortest_period_for_nex",
    "RETIRED_KEYS",
    "ConfigError",
    "ParameterError",
    "SimulationParameters",
    "params_for_period",
]
