"""State-of-charge intervals from power bandwidths, by backward recursion.

Sign convention: positive battery power = charging. Walking backward from the
horizon end, the upper state-of-charge bound at a step start leaves room for
the mandatory charge over the step (lower power bound, when positive) plus the
energy of the worst-case curative charge; the lower bound mirrors it with the
largest admissible charge rate and the worst-case curative discharge. Both
recursions clamp one-sidedly (upper at capacity, lower at the floor) so that a
crossing of the two bounds remains visible as horizon infeasibility.

If the state of charge starts inside the boundary-0 interval, a trajectory
exists that respects the power band at every step and the energy interval at
every boundary; :func:`verify_trajectory_existence` constructs one greedily.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .grid_model import ZoneModel
from .power_bandwidth import CongestionClass, PowerBandwidthResult, fmt6

SOC_TOL_MWH = 1e-9


class EnergyBandwidthError(Exception):
    """Missing or infeasible power results."""


@dataclass(frozen=True)
class EnergyBandwidthResult:
    """SoC bounds per timestep boundary (0..T)."""

    soc_lower_mwh: tuple[float, ...]
    soc_upper_mwh: tuple[float, ...]
    infeasible_boundaries: tuple[int, ...]

    @property
    def feasible(self) -> bool:
        return not self.infeasible_boundaries

    def interval(self, boundary: int) -> tuple[float, float]:
        return self.soc_lower_mwh[boundary], self.soc_upper_mwh[boundary]


def compute_energy_bandwidths(
    power_results: list[PowerBandwidthResult],
    zone: ZoneModel,
) -> EnergyBandwidthResult:
    """Backward recursion over every given power result.

    Requires every timestep to be feasible; boundaries where the lower bound
    exceeds the upper one are reported, not raised.
    """
    for r in power_results:
        if r.congestion_class == CongestionClass.INFEASIBLE:
            raise EnergyBandwidthError(f"timestep {r.index} is infeasible: {r.failure}")

    cap = zone.battery_capacity_mwh
    floor = zone.battery_soc_min_mwh
    dt = zone.timestep_hours
    dt_cur = zone.curative_duration_hours
    n = len(power_results)

    upper = [0.0] * (n + 1)
    lower = [0.0] * (n + 1)
    upper[n] = cap
    lower[n] = floor
    for t in range(n - 1, -1, -1):
        r = power_results[t]
        charge_need = dt * r.lower_mw + dt_cur * max(0.0, r.curative_charge_worst_mw)
        upper[t] = min(cap, upper[t + 1] - charge_need)
        discharge_room = dt * r.upper_mw + dt_cur * min(0.0, r.curative_discharge_worst_mw)
        lower[t] = max(floor, lower[t + 1] - discharge_room)

    bad = tuple(t for t in range(n + 1) if lower[t] > upper[t] + SOC_TOL_MWH)
    return EnergyBandwidthResult(tuple(lower), tuple(upper), bad)


@dataclass(frozen=True)
class TrajectoryWitness:
    soc_mwh: tuple[float, ...]  # per boundary
    power_mw: tuple[float, ...]  # per step


@dataclass(frozen=True)
class TrajectoryViolation:
    boundary: int
    reason: str


def verify_trajectory_existence(
    power_results: list[PowerBandwidthResult],
    energy_results: EnergyBandwidthResult,
    zone: ZoneModel,
    initial_soc_mwh: float,
) -> TrajectoryWitness | TrajectoryViolation:
    """Construct a feasible trajectory greedily, or report where none exists.

    Each step applies the minimal mandatory action, then steers toward the
    midpoint of the next boundary's energy interval within the power band.
    """
    n = len(power_results)
    lo0, hi0 = energy_results.interval(0)
    if not (lo0 - SOC_TOL_MWH <= initial_soc_mwh <= hi0 + SOC_TOL_MWH):
        return TrajectoryViolation(0, f"initial SoC {initial_soc_mwh} outside [{lo0}, {hi0}]")

    dt = zone.timestep_hours
    soc = [initial_soc_mwh]
    powers = []
    for t in range(n):
        r = power_results[t]
        lo_next, hi_next = energy_results.interval(t + 1)
        target = 0.5 * (lo_next + hi_next)
        p = (target - soc[-1]) / dt
        p = min(max(p, r.lower_mw), r.upper_mw)
        nxt = soc[-1] + dt * p
        if not (lo_next - SOC_TOL_MWH <= nxt <= hi_next + SOC_TOL_MWH):
            return TrajectoryViolation(
                t + 1, f"reachable SoC {nxt:.9f} outside [{lo_next}, {hi_next}]"
            )
        soc.append(nxt)
        powers.append(p)
    return TrajectoryWitness(tuple(soc), tuple(powers))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

ENERGY_CSV_HEADER = ["boundary", "timestamp", "soc_lower_mwh", "soc_upper_mwh"]


def energy_results_to_csv(
    energy: EnergyBandwidthResult, timestamps: list[str]
) -> str:
    """One row per boundary; boundary t carries the timestamp of step t's start
    and the final boundary is labelled ``end``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ENERGY_CSV_HEADER)
    n = len(energy.soc_lower_mwh) - 1
    for t in range(n + 1):
        label = timestamps[t] if t < n else "end"
        writer.writerow([t, label, fmt6(energy.soc_lower_mwh[t]), fmt6(energy.soc_upper_mwh[t])])
    return buf.getvalue()
