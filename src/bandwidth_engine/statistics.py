"""Availability statistics over a horizon of power-bandwidth results.

Terminology: a timestep is a *strong congestion* when the mandatory battery
action uses the full power rating (nothing left for other services);
*congestion* additionally includes every reduced bandwidth; the battery is
*fully available* otherwise. Unsolvable timesteps are counted with the strong
congestions (the battery is certainly not available) and also reported on
their own.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field

from .power_bandwidth import CongestionClass, PowerBandwidthResult


@dataclass(frozen=True)
class SeasonStats:
    timesteps: int
    strong: int
    congested: int  # strong + reduced (+ infeasible)
    infeasible: int

    @property
    def fraction_strong(self) -> float:
        return self.strong / self.timesteps if self.timesteps else 0.0

    @property
    def fraction_congestion(self) -> float:
        return self.congested / self.timesteps if self.timesteps else 0.0

    @property
    def fraction_fully_available(self) -> float:
        return 1.0 - self.fraction_congestion


@dataclass(frozen=True)
class AvailabilityReport:
    by_season: dict[str, SeasonStats]
    binding_lines: dict[str, int] = field(default_factory=dict)

    def season(self, name: str) -> SeasonStats:
        return self.by_season[name]

    def to_dict(self) -> dict:
        return {
            "by_season": {
                name: {
                    "timesteps": s.timesteps,
                    "strong": s.strong,
                    "congested": s.congested,
                    "infeasible": s.infeasible,
                    "fraction_strong": s.fraction_strong,
                    "fraction_congestion": s.fraction_congestion,
                    "fraction_fully_available": s.fraction_fully_available,
                }
                for name, s in sorted(self.by_season.items())
            },
            "binding_lines": dict(sorted(self.binding_lines.items())),
        }

    def to_text(self) -> str:
        lines = ["Battery availability by season:"]
        for name, s in sorted(self.by_season.items()):
            lines.append(
                f"  {name:<8} {s.timesteps:>6} h: "
                f"strong {100 * s.fraction_strong:6.2f}%  "
                f"congestion {100 * s.fraction_congestion:6.2f}%  "
                f"fully available {100 * s.fraction_fully_available:6.2f}%"
                + (f"  (infeasible: {s.infeasible})" if s.infeasible else "")
            )
        if self.binding_lines:
            lines.append("Binding constraints (congested timesteps):")
            for label, n in sorted(self.binding_lines.items(), key=lambda kv: (-kv[1], kv[0])):
                lines.append(f"  {label}: {n}")
        return "\n".join(lines) + "\n"


def binding_lines_to_csv(report: AvailabilityReport) -> str:
    """Per-line binding-constraint histogram as CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["binding_constraint", "timesteps"])
    writer.writerows(sorted(report.binding_lines.items(), key=lambda kv: (-kv[1], kv[0])))
    return buf.getvalue()


def summarize(results: list[PowerBandwidthResult]) -> AvailabilityReport:
    """Availability fractions per season, by each result's own season."""
    if not results:
        raise ValueError("cannot summarize an empty result series")

    counts: dict[str, Counter] = {}
    binding: Counter = Counter()
    for r in results:
        c = counts.setdefault(r.season, Counter())
        c["timesteps"] += 1
        cls = r.congestion_class
        if cls == CongestionClass.INFEASIBLE:
            c["infeasible"] += 1
            c["strong"] += 1
            c["congested"] += 1
        elif cls == CongestionClass.STRONG:
            c["strong"] += 1
            c["congested"] += 1
        elif cls == CongestionClass.REDUCED:
            c["congested"] += 1
        if cls != CongestionClass.FULLY_AVAILABLE and r.binding_constraint:
            binding[r.binding_constraint] += 1

    by_season = {
        name: SeasonStats(
            timesteps=c["timesteps"],
            strong=c["strong"],
            congested=c["congested"],
            infeasible=c["infeasible"],
        )
        for name, c in counts.items()
    }
    return AvailabilityReport(by_season=by_season, binding_lines=dict(binding))
