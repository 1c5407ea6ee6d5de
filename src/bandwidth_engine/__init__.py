"""Day-ahead battery operating bandwidths for a sub-transmission zone.

The engine turns hourly grid forecasts into per-timestep admissible battery
power intervals and state-of-charge intervals such that operation inside the
intervals clears every forecasted congestion (normal state and all contingency
states, across the applicable thermal-rating regimes) and creates none.

The package root holds the library entry points and the types they take,
return or raise; everything else is imported from its own module.
"""

__version__ = "0.1.0"

from .grid_model import (
    ForecastSeries, Season, TimestepForecast, ZoneModel, ZoneValidationError, load_forecast, load_zone,
)
from .power_bandwidth import (
    CongestionClass, ObjectiveWeights, PowerBandwidthResult, UnstableLpError, compute_power_bandwidths,
)
from .energy_bandwidth import (
    EnergyBandwidthError, EnergyBandwidthResult, TrajectoryViolation, TrajectoryWitness,
    compute_energy_bandwidths, verify_trajectory_existence,
)
from .statistics import AvailabilityReport, summarize

__all__ = [
    "load_zone",
    "load_forecast",
    "compute_power_bandwidths",
    "compute_energy_bandwidths",
    "verify_trajectory_existence",
    "summarize",
    "ZoneModel",
    "ForecastSeries",
    "TimestepForecast",
    "Season",
    "ObjectiveWeights",
    "PowerBandwidthResult",
    "CongestionClass",
    "EnergyBandwidthResult",
    "TrajectoryWitness",
    "TrajectoryViolation",
    "AvailabilityReport",
    "ZoneValidationError",
    "UnstableLpError",
    "EnergyBandwidthError",
]
