"""Bundled example dataset and synthetic fixture generators.

The reference dataset models a small 90 kV sub-transmission zone: a four-bus
chain alpha--beta--gamma--delta with a 12 MW / 24 MWh battery at gamma, wind
country west of alpha and the main grid east of delta. The surrounding grid is
a six-bus synthetic network (west and east external buses, slack at east)
whose loop impedances put the gamma-to-east split at exactly 0.6 / 0.4 — so a
1 MW battery action at gamma moves the gamma-delta flow by 0.6 MW under the
intact topology and moves alpha-beta by 1.0 MW when gamma-delta is out.

Everything a zone or forecast file carries (outbound sensitivities, reference
flows) is derived from that full network, which makes the bundled files
balance- and partition-consistent by construction.

Generators:

* :func:`reference_zone` / :func:`reference_zone_dict` — zone90kv.
* :func:`day_forecast_rows` — the two 24 h worked-example days
  ("summer_day": congestion under normal conditions, "winter_day": congestion
  under contingency).
* :func:`synthetic_year_rows` — a seeded 8760 h profile with winter-heavier
  wind, for availability statistics at scale.
* :func:`random_instance` — seeded small zones + single forecast rows for the
  oracle cross-check suite.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid_model import (
    BALANCE_TOL_MW,
    BalanceError,
    ForecastSeries,
    IslandingError,
    Season,
    TimestepForecast,
    ZoneModel,
    ZoneValidationError,
    _connected_components,
    forecast_header,
    zone_from_dict,
)

# ---------------------------------------------------------------------------
# whole-grid helper: reference boundary flows and outbound sensitivities that
# are consistent by construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FullLine:
    id: str
    from_bus: str
    to_bus: str
    reactance_pu: float


@dataclass(frozen=True)
class FullNetwork:
    """A complete synthetic grid used to derive consistent zone boundary data."""

    buses: tuple[str, ...]
    lines: tuple[FullLine, ...]
    slack: str

    def without(self, line_id: str) -> "FullNetwork":
        kept = tuple(l for l in self.lines if l.id != line_id)
        if len(kept) == len(self.lines):
            raise KeyError(line_id)
        return FullNetwork(self.buses, kept, self.slack)

    def _components(self) -> tuple[tuple[str, ...], ...]:
        return _connected_components(
            list(self.buses), [(l.from_bus, l.to_bus) for l in self.lines]
        )

    def flows(self, injections_mw: dict[str, float]) -> dict[str, float]:
        """Flows with the slack absorbing each component's residual.

        Components not containing the slack must balance on their own.
        """
        comps = self._components()
        pos = {b: i for i, b in enumerate(self.buses)}
        p = np.zeros(len(self.buses))
        for b, v in injections_mw.items():
            p[pos[b]] += v
        for comp in comps:
            resid = float(sum(p[pos[b]] for b in sorted(comp)))  # fixed order: no hash-seed noise
            if self.slack in comp:
                p[pos[self.slack]] -= resid
            elif abs(resid) > BALANCE_TOL_MW:
                raise BalanceError(
                    f"component {{{','.join(sorted(comp))}}} without slack has "
                    f"{resid:.6e} MW imbalance"
                )
        angles: dict[str, float] = {}
        for comp in comps:
            members = sorted(comp)
            npos = {b: i for i, b in enumerate(members)}
            B = np.zeros((len(members), len(members)))
            for l in self.lines:
                if l.from_bus not in comp:
                    continue
                b = 1.0 / l.reactance_pu
                i, j = npos[l.from_bus], npos[l.to_bus]
                B[i, i] += b
                B[j, j] += b
                B[i, j] -= b
                B[j, i] -= b
            if len(members) == 1:
                angles[members[0]] = 0.0
                continue
            keep = list(range(1, len(members)))
            theta = np.linalg.solve(
                B[np.ix_(keep, keep)], np.array([p[pos[b]] for b in members[1:]])
            )
            angles[members[0]] = 0.0
            for b, t in zip(members[1:], theta):
                angles[b] = float(t)
        return {
            l.id: (angles[l.from_bus] - angles[l.to_bus]) / l.reactance_pu
            for l in self.lines
        }

    def injection_sensitivity(self, bus: str) -> dict[str, float]:
        """Per-line flow change for +1 MW at ``bus``, -1 MW at the slack."""
        if bus == self.slack:
            return {l.id: 0.0 for l in self.lines}
        comps = self._components()
        comp = next(c for c in comps if bus in c)
        if self.slack not in comp:
            raise IslandingError(
                f"bus {bus!r} is disconnected from the slack {self.slack!r}; "
                f"injection sensitivity is undefined"
            )
        return self.flows({bus: 1.0})


ZONE_BUSES = ["alpha", "beta", "gamma", "delta"]
OUTAGE_ID = "gamma-delta-outage"


def reference_full_network() -> FullNetwork:
    """Six-bus synthetic grid around the zone; slack at the eastern main grid."""
    lines = [
        FullLine("alpha-west", "alpha", "west", 0.03),
        FullLine("alpha-beta", "alpha", "beta", 0.04),
        FullLine("beta-gamma", "beta", "gamma", 0.04),
        FullLine("gamma-delta", "gamma", "delta", 0.05),
        FullLine("delta-east", "delta", "east", 0.05),
        FullLine("west-east", "west", "east", 0.04),
    ]
    return FullNetwork(("west", "alpha", "beta", "gamma", "delta", "east"), tuple(lines), "east")


def _outbound_sensitivities(full: FullNetwork, outbound_ids: list[str]) -> dict[str, dict[str, float]]:
    """Export sensitivity of each outbound line to +1 MW at each zone bus."""
    out: dict[str, dict[str, float]] = {oid: {} for oid in outbound_ids}
    for bus in ZONE_BUSES:
        sens = full.injection_sensitivity(bus)
        for oid in outbound_ids:
            out[oid][bus] = round(sens[oid], 12)
    return out


def reference_zone_dict() -> dict:
    """zone90kv as a plain dict (see README for the schema)."""
    full = reference_full_network()
    base = _outbound_sensitivities(full, ["alpha-west", "delta-east"])
    outage = _outbound_sensitivities(full.without("gamma-delta"), ["alpha-west", "delta-east"])

    # beta-gamma carries a winter long-term rating equal to its immediate
    # rating (an uprated section): a pure immediate-rating congestion there
    # clears without any curative battery energy.
    return {
        "base_mva": 100.0,
        "timestep_hours": 1.0,
        "curative_duration_hours": 1.0 / 12.0,  # 5 minutes
        "battery": {
            "bus": "gamma",
            "pmin_mw": -12.0,
            "pmax_mw": 12.0,
            "capacity_mwh": 24.0,
            "soc_min_mwh": 0.0,
        },
        "buses": [{"id": b} for b in ZONE_BUSES],
        "lines": [
            {
                "id": "alpha-beta",
                "from_bus": "alpha",
                "to_bus": "beta",
                "reactance_pu": 0.04,
                "ratings_summer": {"permanent_mw": 70.0, "long_term_mw": 81.0, "immediate_mw": 101.0},
                "ratings_winter": {"permanent_mw": 81.0, "long_term_mw": 99.0, "immediate_mw": 101.0},
            },
            {
                "id": "beta-gamma",
                "from_bus": "beta",
                "to_bus": "gamma",
                "reactance_pu": 0.04,
                "ratings_summer": {"permanent_mw": 70.0, "long_term_mw": 81.0, "immediate_mw": 101.0},
                "ratings_winter": {"permanent_mw": 81.0, "long_term_mw": 101.0, "immediate_mw": 101.0},
            },
            {
                "id": "gamma-delta",
                "from_bus": "gamma",
                "to_bus": "delta",
                "reactance_pu": 0.05,
                "ratings_summer": {
                    "permanent_mw": 77.0,
                    "long_term_mw": 82.0,
                    "immediate_mw": 111.0,
                    "short_term_mw": 95.0,
                },
                "ratings_winter": {
                    "permanent_mw": 87.0,
                    "long_term_mw": 100.0,
                    "immediate_mw": 111.0,
                    "short_term_mw": 105.0,
                },
            },
        ],
        "outbound_lines": [
            {
                "id": "alpha-west",
                "boundary_bus": "alpha",
                "ptdf_normal": base["alpha-west"],
                "ptdf_contingency": {OUTAGE_ID: outage["alpha-west"]},
            },
            {
                "id": "delta-east",
                "boundary_bus": "delta",
                "ptdf_normal": base["delta-east"],
                "ptdf_contingency": {OUTAGE_ID: outage["delta-east"]},
            },
        ],
        "contingencies": [
            {"id": OUTAGE_ID, "outaged_element": "gamma-delta", "modifies_zone_topology": True}
        ],
    }


def reference_zone() -> ZoneModel:
    return zone_from_dict(reference_zone_dict())


# ---------------------------------------------------------------------------
# forecast construction from full-network injections
# ---------------------------------------------------------------------------


def _refs_for_injections(
    full: FullNetwork,
    zone: ZoneModel,
    zone_injections: dict[str, float],
    external_injections: dict[str, float],
) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    injections = dict(zone_injections)
    injections.update(external_injections)
    base_flows = full.flows(injections)
    ref_normal = {o.id: round(base_flows[o.id], 9) for o in zone.outbound_lines}
    ref_cont: dict[str, dict[str, float]] = {}
    for c in zone.contingencies:
        flows_c = full.without(c.outaged_element).flows(injections)
        ref_cont[c.id] = {
            o.id: round(flows_c[o.id], 9) for o in zone.active_outbound(c)
        }
    return ref_normal, ref_cont


def _row(
    zone: ZoneModel,
    full: FullNetwork,
    index: int,
    timestamp: str,
    season: Season,
    zone_inj: dict[str, float],
    wind_mw: float,
    curt_max: dict[str, float],
) -> TimestepForecast:
    ref_normal, ref_cont = _refs_for_injections(full, zone, zone_inj, {"west": wind_mw})
    return TimestepForecast(
        index=index,
        timestamp=timestamp,
        season=season,
        injections_mw=dict(zone_inj),
        curtailable_max_mw=dict(curt_max),
        ref_normal_mw=ref_normal,
        ref_contingency_mw=ref_cont,
    )


def _wind_for_targets(flow_gd: float, p_a: float, p_b: float, p_g: float, p_d: float) -> float:
    """Invert the gamma-delta flow relation for the wind injection at west.

    On the reference network the base-case gamma-delta flow is
    0.16*wind + 0.28*P_alpha + 0.44*P_beta + 0.60*P_gamma - 0.20*P_delta.
    """
    return (flow_gd - 0.28 * p_a - 0.44 * p_b - 0.6 * p_g + 0.2 * p_d) / 0.16


# (gamma-delta normal flow, alpha-beta normal flow, beta injection) per hour.
# Hours 6-9 are the "red" window (mandatory charge), 10-12 the "yellow" window
# (band tightened from both sides); the rest of the day leaves the battery
# fully available.
SUMMER_DAY = [
    (45.0, 25.0, 6.0), (42.0, 23.0, 5.7), (40.0, 22.0, 5.4), (41.0, 22.0, 5.7),
    (44.0, 24.0, 6.0), (52.0, 27.0, 7.5),
    (77.5, 27.0, 22.7), (78.0, 28.0, 22.5), (78.6, 29.0, 22.3), (77.3, 28.0, 22.2),
    (74.0, 66.0, -2.0), (73.0, 68.0, -2.0), (71.0, 67.0, -2.0),
    (65.0, 50.0, 4.5), (60.0, 46.0, 4.2), (55.0, 42.0, 3.9), (50.0, 38.0, 3.6),
    (48.0, 36.0, 3.4), (46.0, 35.0, 3.3), (45.0, 34.0, 3.2), (44.0, 33.0, 3.2),
    (43.0, 32.0, 3.1), (42.0, 31.0, 3.1), (41.0, 30.0, 3.0),
]

# (P_alpha, P_beta, P_gamma, P_delta, wind, curt_max gamma) per hour. Hours
# 0-1 combine a normal-state overload on gamma-delta with a severe
# post-contingency overload on alpha-beta; hour 3 is a pure immediate-rating
# contingency overload on beta-gamma.
WINTER_DAY_SPECIALS = {
    0: (10.0, 6.0, 104.0, 2.0, 147.25, 25.0),
    1: (10.0, 6.0, 104.0, 2.0, 147.25, 25.0),
    3: (0.0, -9.0, 104.0, 0.0, 20.0, 30.0),
}


def day_forecast_rows(zone: ZoneModel, kind: str) -> ForecastSeries:
    """The two bundled 24 h example days ("summer_day" or "winter_day")."""
    full = reference_full_network()
    rows: list[TimestepForecast] = []
    if kind == "summer_day":
        for h, (flow_gd, flow_ab, p_b) in enumerate(SUMMER_DAY):
            p_a, p_d = 5.0, 3.0
            # gamma picks up the remaining through-flow difference
            p_g = (flow_gd - flow_ab) - p_b
            wind = _wind_for_targets(flow_gd, p_a, p_b, p_g, p_d)
            inj = {"alpha": p_a, "beta": p_b, "gamma": p_g, "delta": p_d}
            curt = {"alpha": 0.0, "beta": 0.0, "gamma": 10.0, "delta": 0.0}
            rows.append(
                _row(zone, full, h, f"2023-06-14T{h:02d}:00", Season.SUMMER, inj, wind, curt)
            )
    elif kind == "winter_day":
        for h in range(24):
            if h in WINTER_DAY_SPECIALS:
                p_a, p_b, p_g, p_d, wind, curt_g = WINTER_DAY_SPECIALS[h]
            else:
                p_a, p_b, p_g, p_d = 6.0, 8.0, 14.0, 4.0
                wind = 160.0
                curt_g = 10.0
            inj = {"alpha": p_a, "beta": p_b, "gamma": p_g, "delta": p_d}
            curt = {"alpha": 0.0, "beta": 10.0, "gamma": curt_g, "delta": 0.0}
            rows.append(
                _row(zone, full, h, f"2023-01-18T{h:02d}:00", Season.WINTER, inj, wind, curt)
            )
    else:
        raise ValueError(f"unknown day kind {kind!r}")
    return ForecastSeries(tuple(rows))


def synthetic_year_rows(zone: ZoneModel, seed: int = 2023) -> ForecastSeries:
    """Seeded 8760 h forecast with a winter-heavier wind profile."""
    rng = np.random.default_rng(seed)
    full = reference_full_network()

    # precompute linear maps injections -> reference flows for both topologies
    fbus = ["west", "alpha", "beta", "gamma", "delta"]
    base_map = np.array(
        [[full.injection_sensitivity(b)[o.id] for b in fbus] for o in zone.outbound_lines]
    )
    out_full = full.without("gamma-delta")
    cont_map = np.array(
        [[out_full.injection_sensitivity(b)[o.id] for b in fbus] for o in zone.outbound_lines]
    )

    hours = 8760
    month_of_hour = _month_table(hours)
    winter = np.isin(month_of_hour, (11, 12, 1, 2, 3))
    hod = np.arange(hours) % 24

    amp = np.where(winter, 1.32, 0.95)
    diurnal = 1.0 + 0.22 * np.sin(2.0 * math.pi * (hod - 14) / 24.0)
    gust = np.clip(rng.normal(1.0, 0.42, size=hours), 0.0, 2.2)
    wind_factor = amp * diurnal * gust

    p_w = 100.0 * wind_factor
    p_a = 6.0 * wind_factor * np.clip(rng.normal(1.0, 0.15, size=hours), 0.2, 1.8) - 2.0
    p_b = 24.0 * wind_factor * np.clip(rng.normal(1.0, 0.15, size=hours), 0.2, 1.8) - 4.0
    p_g = 28.0 * wind_factor * np.clip(rng.normal(1.0, 0.15, size=hours), 0.2, 1.8) - 3.0
    p_d = 10.0 * wind_factor * np.clip(rng.normal(1.0, 0.15, size=hours), 0.2, 1.8) - 2.0

    curt = {
        "alpha": np.maximum(p_a, 0.0),
        "beta": np.maximum(p_b, 0.0),
        "gamma": np.maximum(p_g, 0.0),
        "delta": np.maximum(p_d, 0.0),
    }

    t0 = np.datetime64("2023-01-01T00:00")
    rows = []
    for h in range(hours):
        ts = str(t0 + np.timedelta64(h, "h"))
        season = Season.WINTER if winter[h] else Season.SUMMER
        inj = {
            "alpha": round(float(p_a[h]), 6),
            "beta": round(float(p_b[h]), 6),
            "gamma": round(float(p_g[h]), 6),
            "delta": round(float(p_d[h]), 6),
        }
        # re-derive refs from the rounded injections so rows balance exactly
        v = np.array([float(p_w[h]), inj["alpha"], inj["beta"], inj["gamma"], inj["delta"]])
        ref_n = base_map @ v
        ref_c = cont_map @ v
        rows.append(
            TimestepForecast(
                index=h,
                timestamp=ts,
                season=season,
                injections_mw=inj,
                curtailable_max_mw={b: round(float(curt[b][h]), 6) for b in ZONE_BUSES},
                ref_normal_mw={
                    o.id: float(ref_n[i]) for i, o in enumerate(zone.outbound_lines)
                },
                ref_contingency_mw={
                    OUTAGE_ID: {
                        o.id: float(ref_c[i]) for i, o in enumerate(zone.outbound_lines)
                    }
                },
            )
        )
    return ForecastSeries(tuple(rows))


def _month_table(hours: int) -> np.ndarray:
    days_in_month = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
    months = []
    for m, days in enumerate(days_in_month, start=1):
        months.extend([m] * days * 24)
    return np.array(months[:hours])


# ---------------------------------------------------------------------------
# CSV writing
# ---------------------------------------------------------------------------


def forecast_to_csv(zone: ZoneModel, series: ForecastSeries) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = forecast_header(zone)
    writer.writerow(header)
    for row in series:
        cells: list[str] = [row.timestamp, row.season.value]
        for b in zone.bus_ids():
            cells.append(_fmt(row.injections_mw[b]))
        for b in zone.bus_ids():
            cells.append(_fmt(row.curtailable_max_mw[b]))
        for o in zone.outbound_lines:
            cells.append(_fmt(row.ref_normal_mw[o.id]))
        for c in zone.contingencies:
            for o in zone.active_outbound(c):
                cells.append(_fmt(row.ref_contingency_mw[c.id][o.id]))
        writer.writerow(cells)
    return buf.getvalue()


def _fmt(x: float) -> str:
    return f"{x:.9f}".rstrip("0").rstrip(".") if x == x else "nan"


def write_forecast_csv(zone: ZoneModel, series: ForecastSeries, path: str | Path) -> None:
    Path(path).write_text(forecast_to_csv(zone, series))


# ---------------------------------------------------------------------------
# random small instances for the oracle cross-check suite
# ---------------------------------------------------------------------------


def random_instance(seed: int) -> tuple[ZoneModel, TimestepForecast]:
    """Seeded random small zone (<= 4 buses, <= 2 contingencies) + one row.

    Curtailment is confined to a single bus so the brute-force oracle's grid
    stays tractable. Reference flows come from a synthetic full network, so
    every instance is balance- and partition-consistent.
    """
    rng = np.random.default_rng(seed)
    n_bus = int(rng.integers(2, 5))
    buses = [f"b{i}" for i in range(n_bus)]
    loop = bool(rng.random() < 0.75)

    lines = []
    for i in range(n_bus - 1):
        lines.append(FullLine(f"l{i}", buses[i], buses[i + 1], float(rng.uniform(0.02, 0.08))))
    ext_lines = [FullLine("xL-line", buses[0], "xL", float(rng.uniform(0.02, 0.06)))]
    ext_buses = ["xL"]
    if loop:
        ext_lines.append(FullLine("xR-line", buses[-1], "xR", float(rng.uniform(0.02, 0.06))))
        ext_lines.append(FullLine("far", "xL", "xR", float(rng.uniform(0.03, 0.1))))
        ext_buses.append("xR")
        slack = "xR"
    else:
        slack = "xL"
    full = FullNetwork(tuple(buses + ext_buses), tuple(lines + ext_lines), slack)

    outbound_ids = ["xL-line"] + (["xR-line"] if loop else [])
    boundary = {"xL-line": buses[0], "xR-line": buses[-1]}

    injections = {b: float(np.round(rng.uniform(-25, 45), 3)) for b in buses}
    battery_bus = buses[int(rng.integers(0, n_bus))]
    pmax = float(np.round(rng.uniform(5, 12), 2))

    # candidate contingencies that keep every island viable
    candidates = []
    if loop:
        for l in lines:
            candidates.append(l.id)
        candidates.extend(outbound_ids)
    n_cont = int(rng.integers(0, 3)) if candidates else 0
    rng.shuffle(candidates)

    base_flows = full.flows({**injections})
    base_sens = {b: full.injection_sensitivity(b) for b in buses}

    def ratings_for(line_id: str, flows: list[float]) -> dict:
        load = max(abs(f) for f in flows) if flows else 5.0
        perm = max(2.0, load + float(rng.uniform(-4.0, 9.0)))
        long_term = perm + float(rng.uniform(0.0, 8.0))
        imm = long_term + float(rng.uniform(0.0, 10.0))
        return {
            "permanent_mw": round(perm, 3),
            "long_term_mw": round(long_term, 3),
            "immediate_mw": round(imm, 3),
        }

    chosen_conts: list[str] = []
    cont_flows: dict[str, dict[str, float]] = {}
    for element in candidates:
        if len(chosen_conts) >= n_cont:
            break
        try:
            reduced = full.without(element)
            flows_c = reduced.flows({**injections})
        except Exception:
            continue
        cont_flows[element] = flows_c
        chosen_conts.append(element)

    zone_doc = {
        "base_mva": 100.0,
        "timestep_hours": 1.0,
        "curative_duration_hours": 1.0 / 12.0,
        "battery": {
            "bus": battery_bus,
            "pmin_mw": -pmax,
            "pmax_mw": pmax,
            "capacity_mwh": float(np.round(rng.uniform(2, 4) * pmax, 1)),
            "soc_min_mwh": 0.0,
        },
        "buses": [{"id": b} for b in buses],
        "lines": [],
        "outbound_lines": [],
        "contingencies": [],
    }
    for l in lines:
        flows = [base_flows[l.id]] + [cont_flows[c].get(l.id, 0.0) for c in chosen_conts if c != l.id]
        r = ratings_for(l.id, flows)
        zone_doc["lines"].append(
            {
                "id": l.id,
                "from_bus": l.from_bus,
                "to_bus": l.to_bus,
                "reactance_pu": l.reactance_pu,
                "ratings_summer": r,
                "ratings_winter": r,
            }
        )
    for oid in outbound_ids:
        entry = {
            "id": oid,
            "boundary_bus": boundary[oid],
            "ptdf_normal": {b: round(base_sens[b][oid], 12) for b in buses},
            "ptdf_contingency": {},
        }
        zone_doc["outbound_lines"].append(entry)
    for c in chosen_conts:
        zone_doc["contingencies"].append({"id": f"out-{c}", "outaged_element": c})
        reduced = full.without(c)
        for entry in zone_doc["outbound_lines"]:
            if entry["id"] == c:
                continue
            entry["ptdf_contingency"][f"out-{c}"] = {
                b: round(reduced.injection_sensitivity(b)[entry["id"]], 12) for b in buses
            }

    try:
        zone = zone_from_dict(zone_doc)
    except ZoneValidationError:
        # invalid topology draw (e.g. outage strands the battery); next seed
        return random_instance(seed + 90001)

    curt_bus = buses[int(rng.integers(0, n_bus))]
    curt_max = {b: 0.0 for b in buses}
    if rng.random() < 0.6:
        curt_max[curt_bus] = float(rng.choice([1.0, 2.0, 3.0]))

    ref_normal = {oid: base_flows[oid] for oid in outbound_ids}
    ref_cont = {}
    for c in chosen_conts:
        ref_cont[f"out-{c}"] = {
            oid: cont_flows[c][oid] for oid in outbound_ids if oid != c
        }

    row = TimestepForecast(
        index=0,
        timestamp="2023-06-01T12:00",
        season=Season.SUMMER,
        injections_mw=injections,
        curtailable_max_mw=curt_max,
        ref_normal_mw=ref_normal,
        ref_contingency_mw=ref_cont,
    )
    return zone, row


# ---------------------------------------------------------------------------
# on-disk bundle
# ---------------------------------------------------------------------------


def write_bundle(directory: str | Path) -> dict[str, Path]:
    """Write zone90kv.json and the two example days into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    import json

    zone_path = directory / "zone90kv.json"
    zone_path.write_text(json.dumps(reference_zone_dict(), indent=2) + "\n")
    zone = reference_zone()
    paths = {"zone": zone_path}
    for kind, fname in (
        ("summer_day", "forecast_summer_day.csv"),
        ("winter_day", "forecast_winter_day.csv"),
    ):
        p = directory / fname
        write_forecast_csv(zone, day_forecast_rows(zone, kind), p)
        paths[kind] = p
    return paths
