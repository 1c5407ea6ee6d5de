"""Day-ahead battery operating bandwidths for a sub-transmission zone.

The engine turns hourly grid forecasts into per-timestep admissible battery
power intervals and state-of-charge intervals such that operation inside the
intervals clears every forecasted congestion (normal state and all contingency
states, across the applicable thermal-rating regimes) and creates none.
"""

__version__ = "0.1.0"

from .grid_model import (
    BalanceError,
    Bus,
    Contingency,
    ForecastSeries,
    IslandingError,
    Line,
    OutboundLine,
    RatingSet,
    Season,
    TimestepForecast,
    TopologyState,
    ZoneModel,
    ZoneValidationError,
    load_forecast,
    load_zone,
    select_ratings,
)
from .dc_network import compute_ptdf, dc_flows
from .lp_core import LinearProgram, LpSolution, SolveStatus, check_solution, solve
from .power_bandwidth import (
    CongestionClass,
    Direction,
    ObjectiveWeights,
    PowerBandwidthResult,
    build_lp,
    check_safety,
    compute_power_bandwidths,
    solve_timestep,
)
from .energy_bandwidth import (
    EnergyBandwidthResult,
    TrajectoryViolation,
    TrajectoryWitness,
    compute_energy_bandwidths,
    verify_trajectory_existence,
)
from .statistics import AvailabilityReport, summarize
from .oracle import (
    GridSearchConfig,
    OracleGuardError,
    brute_force_power_bandwidth,
    enumerate_lp_optimum,
    forward_soc_feasible_set,
)

__all__ = [
    "Bus",
    "Contingency",
    "ForecastSeries",
    "Line",
    "OutboundLine",
    "RatingSet",
    "Season",
    "TimestepForecast",
    "ZoneModel",
    "ZoneValidationError",
    "load_forecast",
    "load_zone",
    "select_ratings",
    "BalanceError",
    "IslandingError",
    "TopologyState",
    "compute_ptdf",
    "dc_flows",
    "LinearProgram",
    "LpSolution",
    "SolveStatus",
    "check_solution",
    "solve",
    "CongestionClass",
    "Direction",
    "ObjectiveWeights",
    "PowerBandwidthResult",
    "build_lp",
    "check_safety",
    "compute_power_bandwidths",
    "solve_timestep",
    "EnergyBandwidthResult",
    "TrajectoryViolation",
    "TrajectoryWitness",
    "compute_energy_bandwidths",
    "verify_trajectory_existence",
    "AvailabilityReport",
    "summarize",
    "GridSearchConfig",
    "OracleGuardError",
    "brute_force_power_bandwidth",
    "enumerate_lp_optimum",
    "forward_soc_feasible_set",
]
