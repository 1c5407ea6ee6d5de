"""Static zone description, forecasts, ratings and contingency definitions.

Everything here is immutable after load and safe to share across worker
processes. Units are MW / MWh / hours externally; line reactances are
per-unit on ``base_mva``.

File formats (documented in the README):

* zone file — one JSON document with ``buses``, ``lines``, ``outbound_lines``,
  ``contingencies``, ``battery``, ``base_mva``, ``timestep_hours`` and
  ``curative_duration_hours``.
* forecast file — CSV, one row per timestep: ``timestamp``, ``season``, then
  ``inj:<bus>``, ``curt_max:<bus>``, ``ref:<outbound>`` and
  ``ref:<outbound>@<contingency>`` columns.

Outbound flows are signed export-positive at their boundary bus. Outbound
PTDFs are sensitivities of that export to a 1 MW injection at a zone bus
(balanced at the remote slack of the surrounding grid); for every bus they
must sum to 1 over the outbound lines of its electrical island, which is what
makes the zone-plus-boundary model a faithful reduction of the whole grid.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

PTDF_MAGNITUDE_TOL = 1e-6
PTDF_PARTITION_TOL = 1e-6
BALANCE_TOL_MW = 1e-6


class ZoneValidationError(Exception):
    """Schema or invariant violation in a zone or forecast file."""


class Season(str, Enum):
    SUMMER = "summer"
    WINTER = "winter"


@dataclass(frozen=True)
class RatingSet:
    """Thermal ratings of a line in MW.

    ``permanent`` holds indefinitely, ``long_term`` applies after fast curative
    actions, ``immediate`` is the instant-trip threshold. ``short_term``
    (fast-curative window boundary) is carried for completeness but generates
    no constraint.
    """

    permanent_mw: float
    long_term_mw: float
    immediate_mw: float
    short_term_mw: float | None = None

    def validate(self, line_id: str, season: str) -> None:
        if not (0.0 < self.permanent_mw <= self.long_term_mw <= self.immediate_mw):
            raise ZoneValidationError(
                f"line {line_id!r} {season} ratings must satisfy "
                f"0 < permanent <= long_term <= immediate, got "
                f"({self.permanent_mw}, {self.long_term_mw}, {self.immediate_mw})"
            )

    def for_state(self, rating_name: str) -> float:
        return {
            "permanent": self.permanent_mw,
            "long_term": self.long_term_mw,
            "immediate": self.immediate_mw,
        }[rating_name]


@dataclass(frozen=True)
class Bus:
    id: str
    battery_min_mw: float = 0.0  # <= 0; 0 unless this is the battery bus
    battery_max_mw: float = 0.0  # >= 0; 0 unless this is the battery bus


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    reactance_pu: float
    ratings_summer: RatingSet
    ratings_winter: RatingSet


@dataclass(frozen=True)
class OutboundLine:
    """Line crossing the zone boundary, reduced to an injection at its bus.

    ``ptdf_normal`` maps zone bus -> sensitivity under the intact topology;
    ``ptdf_contingency`` maps contingency id -> the same map under that outage.
    """

    id: str
    boundary_bus: str
    ptdf_normal: dict[str, float]
    ptdf_contingency: dict[str, dict[str, float]]


@dataclass(frozen=True)
class Contingency:
    id: str
    outaged_element: str  # internal line id or outbound line id
    modifies_zone_topology: bool


@dataclass(frozen=True)
class ZoneModel:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    outbound_lines: tuple[OutboundLine, ...]
    contingencies: tuple[Contingency, ...]
    battery_bus: str
    battery_capacity_mwh: float
    battery_soc_min_mwh: float
    timestep_hours: float
    curative_duration_hours: float
    base_mva: float = 100.0
    # id -> element lookups, derived from the tuples above
    _buses: dict[str, Bus] = field(init=False, repr=False, compare=False)
    _lines: dict[str, Line] = field(init=False, repr=False, compare=False)
    _outbound: dict[str, OutboundLine] = field(init=False, repr=False, compare=False)
    _contingencies: dict[str, Contingency] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, elements in (
            ("_buses", self.buses),
            ("_lines", self.lines),
            ("_outbound", self.outbound_lines),
            ("_contingencies", self.contingencies),
        ):
            object.__setattr__(self, name, {e.id: e for e in elements})

    def bus_ids(self) -> list[str]:
        return [b.id for b in self.buses]

    def bus(self, bus_id: str) -> Bus:
        return self._buses[bus_id]

    def line(self, line_id: str) -> Line:
        return self._lines[line_id]

    def outbound(self, oline_id: str) -> OutboundLine:
        return self._outbound[oline_id]

    def contingency(self, cid: str) -> Contingency:
        return self._contingencies[cid]

    @property
    def battery(self) -> Bus:
        return self.bus(self.battery_bus)

    def active_lines(self, contingency: Contingency | None) -> tuple[Line, ...]:
        if contingency is None or not contingency.modifies_zone_topology:
            return self.lines
        return tuple(l for l in self.lines if l.id != contingency.outaged_element)

    def active_outbound(self, contingency: Contingency | None) -> tuple[OutboundLine, ...]:
        if contingency is None or contingency.modifies_zone_topology:
            return self.outbound_lines
        return tuple(o for o in self.outbound_lines if o.id != contingency.outaged_element)


@dataclass(frozen=True)
class TimestepForecast:
    """One forecast row: net injections, curtailable headroom, boundary flows."""

    index: int
    timestamp: str
    season: Season
    injections_mw: dict[str, float]
    curtailable_max_mw: dict[str, float]
    ref_normal_mw: dict[str, float]  # outbound id -> export MW if no control acts
    ref_contingency_mw: dict[str, dict[str, float]]  # contingency -> outbound -> MW


@dataclass(frozen=True)
class ForecastSeries:
    rows: tuple[TimestepForecast, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> TimestepForecast:
        return self.rows[i]

    def __iter__(self):
        return iter(self.rows)


def select_ratings(line: Line, season: Season | str) -> RatingSet:
    """Seasonal rating set of a line."""
    season = Season(season)
    return line.ratings_summer if season == Season.SUMMER else line.ratings_winter


# ---------------------------------------------------------------------------
# zone loading / validation
# ---------------------------------------------------------------------------


def _connected_components(nodes: list[str], edges: list[tuple[str, str]]) -> list[set[str]]:
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[str] = set()
    comps: list[set[str]] = []
    for start in nodes:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ZoneValidationError(msg)


def _as_float(raw: object, what: str) -> float:
    try:
        val = float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ZoneValidationError(f"{what} is not a number: {raw!r}") from None
    if math.isnan(val):
        raise ZoneValidationError(f"{what} is NaN")
    return val


def _rating_set(raw: dict, line_id: str, season: str) -> RatingSet:
    for key in ("permanent_mw", "long_term_mw", "immediate_mw"):
        _require(key in raw, f"line {line_id!r} ratings_{season} missing field {key!r}")
    rs = RatingSet(
        permanent_mw=_as_float(raw["permanent_mw"], f"line {line_id!r} {season} permanent_mw"),
        long_term_mw=_as_float(raw["long_term_mw"], f"line {line_id!r} {season} long_term_mw"),
        immediate_mw=_as_float(raw["immediate_mw"], f"line {line_id!r} {season} immediate_mw"),
        short_term_mw=(
            _as_float(raw["short_term_mw"], f"line {line_id!r} {season} short_term_mw")
            if raw.get("short_term_mw") is not None
            else None
        ),
    )
    rs.validate(line_id, season)
    return rs


def zone_from_dict(doc: dict) -> ZoneModel:
    for key in (
        "buses",
        "lines",
        "outbound_lines",
        "contingencies",
        "battery",
        "timestep_hours",
        "curative_duration_hours",
    ):
        _require(key in doc, f"zone file missing field {key!r}")

    battery = doc["battery"]
    for key in ("bus", "pmin_mw", "pmax_mw", "capacity_mwh"):
        _require(key in battery, f"battery block missing field {key!r}")

    bus_ids: list[str] = []
    for raw in doc["buses"]:
        _require("id" in raw, "bus entry missing field 'id'")
        _require(raw["id"] not in bus_ids, f"duplicate bus id {raw['id']!r}")
        bus_ids.append(str(raw["id"]))

    battery_bus = str(battery["bus"])
    _require(battery_bus in bus_ids, f"battery bus {battery_bus!r} not among buses")
    pmin = _as_float(battery["pmin_mw"], "battery pmin_mw")
    pmax = _as_float(battery["pmax_mw"], "battery pmax_mw")
    _require(pmin <= 0.0 <= pmax, f"battery bounds must satisfy pmin <= 0 <= pmax, got [{pmin}, {pmax}]")

    buses = tuple(
        Bus(b, battery_min_mw=pmin if b == battery_bus else 0.0,
            battery_max_mw=pmax if b == battery_bus else 0.0)
        for b in bus_ids
    )

    lines: list[Line] = []
    for raw in doc["lines"]:
        for key in ("id", "from_bus", "to_bus", "reactance_pu", "ratings_summer", "ratings_winter"):
            _require(key in raw, f"line entry missing field {key!r}")
        lid = str(raw["id"])
        _require(lid not in [l.id for l in lines], f"duplicate line id {lid!r}")
        x = _as_float(raw["reactance_pu"], f"line {lid!r} reactance_pu")
        _require(x > 0.0, f"line {lid!r} reactance_pu must be > 0, got {x}")
        u, v = str(raw["from_bus"]), str(raw["to_bus"])
        _require(u != v, f"line {lid!r} connects bus {u!r} to itself")
        _require(u in bus_ids, f"line {lid!r} from_bus {u!r} not among buses")
        _require(v in bus_ids, f"line {lid!r} to_bus {v!r} not among buses")
        lines.append(
            Line(
                id=lid,
                from_bus=u,
                to_bus=v,
                reactance_pu=x,
                ratings_summer=_rating_set(raw["ratings_summer"], lid, "summer"),
                ratings_winter=_rating_set(raw["ratings_winter"], lid, "winter"),
            )
        )

    _require(len(lines) > 0, "zone has no internal lines (degenerate topology)")
    comps = _connected_components(bus_ids, [(l.from_bus, l.to_bus) for l in lines])
    _require(
        len(comps) == 1,
        "zone base topology is disconnected; islands: "
        + "; ".join(",".join(sorted(c)) for c in comps),
    )

    contingencies: list[Contingency] = []
    line_ids = {l.id for l in lines}
    raw_outbound_ids = [str(o.get("id")) for o in doc["outbound_lines"]]
    for raw in doc["contingencies"]:
        _require("id" in raw and "outaged_element" in raw, "contingency entry missing 'id' or 'outaged_element'")
        cid = str(raw["id"])
        _require(cid not in [c.id for c in contingencies], f"duplicate contingency id {cid!r}")
        element = str(raw["outaged_element"])
        is_internal = element in line_ids
        _require(
            is_internal or element in raw_outbound_ids,
            f"contingency {cid!r} outages unknown element {element!r}",
        )
        declared = raw.get("modifies_zone_topology")
        if declared is not None:
            _require(
                bool(declared) == is_internal,
                f"contingency {cid!r}: modifies_zone_topology={declared} inconsistent "
                f"with outaged element {element!r} ({'internal' if is_internal else 'outbound'})",
            )
        contingencies.append(Contingency(cid, element, is_internal))

    cont_ids = [c.id for c in contingencies]
    outbound: list[OutboundLine] = []
    for raw in doc["outbound_lines"]:
        for key in ("id", "boundary_bus", "ptdf_normal"):
            _require(key in raw, f"outbound line entry missing field {key!r}")
        oid = str(raw["id"])
        _require(oid not in [o.id for o in outbound], f"duplicate outbound line id {oid!r}")
        bb = str(raw["boundary_bus"])
        _require(bb in bus_ids, f"outbound line {oid!r} boundary_bus {bb!r} not among buses")

        def ptdf_map(raw_map: dict, what: str) -> dict[str, float]:
            out = {}
            for k, val in raw_map.items():
                _require(k in bus_ids, f"{what} references unknown bus {k!r}")
                f = _as_float(val, f"{what} factor for bus {k!r}")
                _require(math.isfinite(f), f"{what} factor for bus {k!r} is not finite")
                _require(
                    abs(f) <= 1.0 + PTDF_MAGNITUDE_TOL,
                    f"{what} factor for bus {k!r} has magnitude {abs(f)} > 1",
                )
                out[k] = f
            for k in bus_ids:
                out.setdefault(k, 0.0)
            return out

        p_normal = ptdf_map(raw["ptdf_normal"], f"outbound {oid!r} ptdf_normal")
        p_cont: dict[str, dict[str, float]] = {}
        for cid, m in (raw.get("ptdf_contingency") or {}).items():
            _require(cid in cont_ids, f"outbound {oid!r} ptdf_contingency references unknown contingency {cid!r}")
            p_cont[cid] = ptdf_map(m, f"outbound {oid!r} ptdf_contingency[{cid!r}]")
        outbound.append(OutboundLine(oid, bb, p_normal, p_cont))

    _require(len(outbound) > 0, "zone has no outbound lines; boundary flows are required")

    capacity = _as_float(battery["capacity_mwh"], "battery capacity_mwh")
    _require(capacity > 0.0, f"battery capacity_mwh must be > 0, got {capacity}")
    soc_min = _as_float(battery.get("soc_min_mwh", 0.0), "battery soc_min_mwh")
    _require(0.0 <= soc_min < capacity, f"battery soc_min_mwh must lie in [0, capacity), got {soc_min}")
    dt = _as_float(doc["timestep_hours"], "timestep_hours")
    _require(dt > 0.0, f"timestep_hours must be > 0, got {dt}")
    dt_cur = _as_float(doc["curative_duration_hours"], "curative_duration_hours")
    _require(0.0 < dt_cur <= dt, f"curative_duration_hours must lie in (0, timestep_hours], got {dt_cur}")
    base_mva = _as_float(doc.get("base_mva", 100.0), "base_mva")
    _require(base_mva > 0.0, f"base_mva must be > 0, got {base_mva}")

    zone = ZoneModel(
        buses=buses,
        lines=tuple(lines),
        outbound_lines=tuple(outbound),
        contingencies=tuple(contingencies),
        battery_bus=battery_bus,
        battery_capacity_mwh=capacity,
        battery_soc_min_mwh=soc_min,
        timestep_hours=dt,
        curative_duration_hours=dt_cur,
        base_mva=base_mva,
    )
    _validate_topologies(zone)
    return zone


def _validate_topologies(zone: ZoneModel) -> None:
    """Per-contingency structural checks and PTDF partition-of-unity."""
    bus_ids = zone.bus_ids()
    for contingency in [None, *zone.contingencies]:
        lines = zone.active_lines(contingency)
        olines = zone.active_outbound(contingency)
        tag = "base topology" if contingency is None else f"contingency {contingency.id!r}"
        islands = _connected_components(bus_ids, [(l.from_bus, l.to_bus) for l in lines])

        if contingency is not None:
            battery_island = next(c for c in islands if zone.battery_bus in c)
            has_rated = any(l.from_bus in battery_island for l in lines)
            _require(
                has_rated,
                f"{tag} disconnects battery bus {zone.battery_bus!r} from every rated line",
            )

        for island in islands:
            at_island = [o for o in olines if o.boundary_bus in island]
            _require(
                len(at_island) > 0,
                f"{tag} leaves island {{{','.join(sorted(island))}}} without any outbound line",
            )
        # partition-of-unity per island
        for island in islands:
            for k in sorted(island):
                total = 0.0
                for o in olines:
                    if contingency is None:
                        factors = o.ptdf_normal
                    else:
                        factors = o.ptdf_contingency.get(contingency.id)
                        _require(
                            factors is not None,
                            f"outbound {o.id!r} has no ptdf_contingency entry for {contingency.id!r}",
                        )
                    f = factors[k]
                    if o.boundary_bus in island:
                        total += f
                    else:
                        _require(
                            abs(f) <= PTDF_PARTITION_TOL,
                            f"{tag}: bus {k!r} has nonzero sensitivity {f} on outbound {o.id!r} "
                            f"in a different island",
                        )
                _require(
                    abs(total - 1.0) <= PTDF_PARTITION_TOL,
                    f"{tag}: outbound sensitivities of bus {k!r} sum to {total}, expected 1 "
                    f"(export-positive convention)",
                )


def load_zone(path: str | Path) -> ZoneModel:
    """Load and fully validate a zone JSON file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ZoneValidationError(f"zone file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ZoneValidationError(f"zone file {path} is not valid JSON: {exc}") from None
    return zone_from_dict(doc)


def zone_to_dict(zone: ZoneModel) -> dict:
    """Inverse of :func:`zone_from_dict`; round-trips to an equal ZoneModel."""

    def ratings(rs: RatingSet) -> dict:
        out = {
            "permanent_mw": rs.permanent_mw,
            "long_term_mw": rs.long_term_mw,
            "immediate_mw": rs.immediate_mw,
        }
        if rs.short_term_mw is not None:
            out["short_term_mw"] = rs.short_term_mw
        return out

    battery = zone.battery
    return {
        "base_mva": zone.base_mva,
        "timestep_hours": zone.timestep_hours,
        "curative_duration_hours": zone.curative_duration_hours,
        "battery": {
            "bus": zone.battery_bus,
            "pmin_mw": battery.battery_min_mw,
            "pmax_mw": battery.battery_max_mw,
            "capacity_mwh": zone.battery_capacity_mwh,
            "soc_min_mwh": zone.battery_soc_min_mwh,
        },
        "buses": [{"id": b.id} for b in zone.buses],
        "lines": [
            {
                "id": l.id,
                "from_bus": l.from_bus,
                "to_bus": l.to_bus,
                "reactance_pu": l.reactance_pu,
                "ratings_summer": ratings(l.ratings_summer),
                "ratings_winter": ratings(l.ratings_winter),
            }
            for l in zone.lines
        ],
        "outbound_lines": [
            {
                "id": o.id,
                "boundary_bus": o.boundary_bus,
                "ptdf_normal": dict(sorted(o.ptdf_normal.items())),
                "ptdf_contingency": {
                    cid: dict(sorted(m.items())) for cid, m in sorted(o.ptdf_contingency.items())
                },
            }
            for o in zone.outbound_lines
        ],
        "contingencies": [
            {
                "id": c.id,
                "outaged_element": c.outaged_element,
                "modifies_zone_topology": c.modifies_zone_topology,
            }
            for c in zone.contingencies
        ],
    }


# ---------------------------------------------------------------------------
# forecast loading
# ---------------------------------------------------------------------------


def load_forecast(path: str | Path, zone: ZoneModel) -> ForecastSeries:
    """Load a forecast CSV and validate it against the zone.

    Checks the header naming convention, value sanity (curtailable >= 0) and
    MW balance of every row: injections must equal total exports in the base
    case and, island by island, under every contingency.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ZoneValidationError(f"forecast file not found: {path}") from None

    reader = csv.reader(text.splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise ZoneValidationError(f"forecast file {path} is empty") from None

    bus_ids = zone.bus_ids()
    oline_ids = [o.id for o in zone.outbound_lines]
    expected = forecast_header(zone)
    required_pairs = [(o.id, c.id) for c in zone.contingencies for o in zone.active_outbound(c)]

    col: dict[str, int] = {}
    for i, name in enumerate(header):
        name = name.strip()
        if name in col:
            raise ZoneValidationError(f"forecast header repeats column {name!r}")
        col[name] = i
    for name in expected:
        if name not in col:
            raise ZoneValidationError(f"forecast header missing column {name!r}")
    known = set(expected)
    # a ref column for an outbound line outaged by that contingency is ignored
    for c in zone.contingencies:
        if not c.modifies_zone_topology:
            known.add(f"ref:{c.outaged_element}@{c.id}")
    for name in col:
        if name not in known:
            raise ZoneValidationError(f"forecast header has unknown column {name!r}")

    rows: list[TimestepForecast] = []
    islands_by_cont = {
        c.id: _connected_components(
            bus_ids, [(l.from_bus, l.to_bus) for l in zone.active_lines(c)]
        )
        for c in zone.contingencies
    }

    for idx, raw in enumerate(reader):
        if not raw or all(not cell.strip() for cell in raw):
            continue
        if len(raw) < len(header):
            raise ZoneValidationError(f"forecast row {idx} has {len(raw)} cells, header has {len(header)}")

        def cell(name: str) -> str:
            return raw[col[name]].strip()

        def num(name: str) -> float:
            try:
                return float(cell(name))
            except ValueError:
                raise ZoneValidationError(f"forecast row {idx} column {name!r} is not a number: {cell(name)!r}") from None

        try:
            season = Season(cell("season"))
        except ValueError:
            raise ZoneValidationError(f"forecast row {idx} has unknown season {cell('season')!r}") from None

        injections = {b: num(f"inj:{b}") for b in bus_ids}
        curt = {b: num(f"curt_max:{b}") for b in bus_ids}
        for b, v in curt.items():
            if v < 0:
                raise ZoneValidationError(f"forecast row {idx} curt_max:{b} is negative ({v})")
        ref_normal = {o: num(f"ref:{o}") for o in oline_ids}
        ref_cont: dict[str, dict[str, float]] = {c.id: {} for c in zone.contingencies}
        for oid, cid in required_pairs:
            ref_cont[cid][oid] = num(f"ref:{oid}@{cid}")

        imbalance = sum(injections.values()) - sum(ref_normal.values())
        if abs(imbalance) > BALANCE_TOL_MW:
            raise ZoneValidationError(
                f"forecast row {idx}: base-case injections and exports do not balance "
                f"(residual {imbalance:.3e} MW)"
            )
        for c in zone.contingencies:
            active = {o.id for o in zone.active_outbound(c)}
            for island in islands_by_cont[c.id]:
                inj = sum(injections[b] for b in island)
                exp = sum(
                    ref_cont[c.id][o.id]
                    for o in zone.outbound_lines
                    if o.id in active and o.boundary_bus in island
                )
                if abs(inj - exp) > BALANCE_TOL_MW:
                    raise ZoneValidationError(
                        f"forecast row {idx}: contingency {c.id!r} island "
                        f"{{{','.join(sorted(island))}}} does not balance (residual {inj - exp:.3e} MW)"
                    )

        rows.append(
            TimestepForecast(
                index=len(rows),
                timestamp=cell("timestamp"),
                season=season,
                injections_mw=injections,
                curtailable_max_mw=curt,
                ref_normal_mw=ref_normal,
                ref_contingency_mw=ref_cont,
            )
        )

    if not rows:
        raise ZoneValidationError(f"forecast file {path} contains no data rows")
    return ForecastSeries(tuple(rows))


def forecast_header(zone: ZoneModel) -> list[str]:
    """Canonical forecast CSV header for a zone (used by writers and fixtures)."""
    header = ["timestamp", "season"]
    header += [f"inj:{b}" for b in zone.bus_ids()]
    header += [f"curt_max:{b}" for b in zone.bus_ids()]
    header += [f"ref:{o.id}" for o in zone.outbound_lines]
    for c in zone.contingencies:
        for o in zone.active_outbound(c):
            header.append(f"ref:{o.id}@{c.id}")
    return header
