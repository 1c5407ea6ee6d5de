"""Static zone description, forecasts, ratings and contingency definitions.

Everything here is immutable after load and safe to share across threads.
Units are MW / MWh / hours externally; line reactances are per-unit on
``base_mva``.

File formats (documented in the README):

* zone file — one JSON document with ``buses``, ``lines``, ``outbound_lines``,
  ``contingencies``, ``battery``, ``base_mva``, ``timestep_hours`` and
  ``curative_duration_hours``; every id, and every reference to one, is a
  string.
* forecast file — CSV, one row per timestep: ``timestamp``, ``season``, then
  ``inj:<bus>``, ``curt_max:<bus>``, ``ref:<outbound>`` and
  ``ref:<outbound>@<contingency>`` columns.

Outbound flows are signed export-positive at their boundary bus. Outbound
PTDFs are sensitivities of that export to a 1 MW injection at a zone bus
(balanced at the remote slack of the surrounding grid); for every bus they
must sum to 1 over the outbound lines of its electrical island, which is what
makes the zone-plus-boundary model a faithful reduction of the whole grid.
:func:`check_sensitivities` and :func:`check_balance` hold these rules; a zone
derives its topologies and their islands once (:class:`TopologyState`).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import InitVar, dataclass, field
from enum import Enum
from pathlib import Path

PTDF_MAGNITUDE_TOL = 1e-6
PTDF_PARTITION_TOL = 1e-6
BALANCE_TOL_MW = 1e-6


class ZoneValidationError(Exception):
    """Schema or invariant violation in a zone or forecast file."""


class IslandingError(ZoneValidationError):
    """A topology island cannot be solved (no boundary, sensitivities that do
    not partition unity, singular matrix)."""


class BalanceError(ZoneValidationError):
    """Injections and boundary flows do not balance."""


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
class TopologyState:
    """Active internal/outbound elements under an (optional) contingency.

    ``islands`` are the electrical islands of the active lines, each a tuple
    of its buses in zone bus order, ordered by their first bus. A zone derives
    each of its topologies once, when it is made; :meth:`base` and
    :meth:`for_contingency` return them.
    """

    active_lines: tuple[str, ...]
    active_outbound: tuple[str, ...]
    contingency_id: str | None
    islands: tuple[tuple[str, ...], ...]

    @staticmethod
    def base(zone: ZoneModel) -> TopologyState:
        return zone._topologies[None]

    @staticmethod
    def for_contingency(zone: ZoneModel, contingency: Contingency) -> TopologyState:
        return zone._topologies[contingency.id]


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
    # the islands of ``lines``, if the caller has found them already
    base_islands: InitVar[tuple[tuple[str, ...], ...] | None] = None
    # id -> element lookups, derived from the tuples above
    _buses: dict[str, Bus] = field(init=False, repr=False, compare=False)
    _lines: dict[str, Line] = field(init=False, repr=False, compare=False)
    _outbound: dict[str, OutboundLine] = field(init=False, repr=False, compare=False)
    _contingencies: dict[str, Contingency] = field(init=False, repr=False, compare=False)
    # the intact topology (key None) and each contingency's, derived from the tuples above
    _topologies: dict[str | None, TopologyState] = field(init=False, repr=False, compare=False)

    def __post_init__(self, base_islands: tuple[tuple[str, ...], ...] | None) -> None:
        for name, elements in (
            ("_buses", self.buses),
            ("_lines", self.lines),
            ("_outbound", self.outbound_lines),
            ("_contingencies", self.contingencies),
        ):
            object.__setattr__(self, name, {e.id: e for e in elements})

        bus_ids = self.bus_ids()
        if base_islands is None:
            base_islands = _connected_components(bus_ids, [(l.from_bus, l.to_bus) for l in self.lines])
        topologies: dict[str | None, TopologyState] = {}
        for c in (None, *self.contingencies):
            lines, islands = self.lines, base_islands  # the intact topology and an outbound outage
            if c is not None and c.modifies_zone_topology:
                lines = tuple(l for l in self.lines if l.id != c.outaged_element)
                islands = _connected_components(bus_ids, [(l.from_bus, l.to_bus) for l in lines])
            cid = None if c is None else c.id
            olines = tuple(o.id for o in self.active_outbound(c))
            topologies[cid] = TopologyState(tuple(l.id for l in lines), olines, cid, islands)
        object.__setattr__(self, "_topologies", topologies)

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


def _connected_components(nodes: list[str], edges: list[tuple[str, str]]) -> tuple[tuple[str, ...], ...]:
    """The graph's components, each a tuple of its nodes in ``nodes`` order,
    ordered by their first node."""
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[str] = set()
    comps: list[tuple[str, ...]] = []
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
        comps.append(tuple(n for n in nodes if n in comp))
    return tuple(comps)


# what a JSON value is, as a message names it
_KINDS = {
    type(None): "null", bool: "a boolean", int: "a number", float: "a number", str: "a string", list: "a list",
    dict: "an object",
}


def _kind(raw: object) -> str:
    return _KINDS.get(type(raw), type(raw).__name__)


# Every check below formats its message only when it fails: a zone is
# validated on every load, and most messages format floats. A check raises
# inline; a helper's ``what`` argument is a str.format template for the
# arguments after it.


def _fields(raw: object, keys: tuple[str, ...], what: str, *args: object, optional: tuple[str, ...] = ()) -> dict:
    """``raw``, an object holding every key of ``keys`` and no key outside
    ``keys`` and ``optional``. A string or a list is searched for the keys
    first."""
    try:
        for key in keys:
            if key not in raw:  # type: ignore[operator]
                raise ZoneValidationError(f"{what.format(*args)} missing field {key!r}")
    except TypeError:  # null, a number or a boolean
        pass
    if not isinstance(raw, dict):
        raise ZoneValidationError(f"{what.format(*args)} must be an object, got {_kind(raw)}")
    for key in raw:
        if key not in keys and key not in optional:
            raise ZoneValidationError(f"{what.format(*args)} has unknown field {key!r}")
    return raw


def _entries(doc: dict, key: str) -> list:
    """The zone file's ``key`` list."""
    raw = doc[key]
    if not isinstance(raw, list):
        raise ZoneValidationError(f"zone field {key!r} must be a list, got {_kind(raw)}")
    return raw


def _id(raw: object, what: str, *args: object) -> str:
    """An element id, or a reference to one: a JSON string."""
    if not isinstance(raw, str):
        raise ZoneValidationError(f"{what.format(*args)} must be a string, got {_kind(raw)}")
    return raw


def _as_float(raw: object, what: str, *args: object) -> float:
    try:
        val = float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ZoneValidationError(f"{what.format(*args)} is not a number: {raw!r}") from None
    if math.isnan(val):
        raise ZoneValidationError(f"{what.format(*args)} is NaN")
    return val


def _rating_set(raw: object, line_id: str, season: str) -> RatingSet:
    raw = _fields(raw, ("permanent_mw", "long_term_mw", "immediate_mw"), "line {!r} ratings_{}", line_id, season,
                  optional=("short_term_mw",))
    short_term = raw.get("short_term_mw")
    rs = RatingSet(
        permanent_mw=_as_float(raw["permanent_mw"], "line {!r} {} permanent_mw", line_id, season),
        long_term_mw=_as_float(raw["long_term_mw"], "line {!r} {} long_term_mw", line_id, season),
        immediate_mw=_as_float(raw["immediate_mw"], "line {!r} {} immediate_mw", line_id, season),
        short_term_mw=(
            None if short_term is None else _as_float(short_term, "line {!r} {} short_term_mw", line_id, season)
        ),
    )
    rs.validate(line_id, season)
    return rs


def _ptdf_map(raw_map: object, bus_ids: list[str], what: str, *args: object) -> dict[str, float]:
    """One outbound line's bus -> factor map, every zone bus in it."""
    if not isinstance(raw_map, dict):
        raise ZoneValidationError(f"{what.format(*args)} must be an object, got {_kind(raw_map)}")
    out, factor = {}, what + " factor for bus {!r}"
    for k, val in raw_map.items():
        if k not in bus_ids:
            raise ZoneValidationError(f"{what.format(*args)} references unknown bus {k!r}")
        f = _as_float(val, factor, *args, k)
        if not abs(f) <= 1.0 + PTDF_MAGNITUDE_TOL:  # NaN is caught above
            if not math.isfinite(f):
                raise ZoneValidationError(f"{what.format(*args)} factor for bus {k!r} is not finite")
            raise ZoneValidationError(f"{what.format(*args)} factor for bus {k!r} has magnitude {abs(f)} > 1")
        out[k] = f
    for k in bus_ids:
        out.setdefault(k, 0.0)
    return out


def zone_from_dict(doc: dict) -> ZoneModel:
    keys = ("buses", "lines", "outbound_lines", "contingencies", "battery", "timestep_hours", "curative_duration_hours")
    doc = _fields(doc, keys, "zone file", optional=("base_mva",))
    battery = _fields(
        doc["battery"], ("bus", "pmin_mw", "pmax_mw", "capacity_mwh"), "battery block", optional=("soc_min_mwh",)
    )

    bus_ids: list[str] = []
    for raw in _entries(doc, "buses"):
        bid = _id(_fields(raw, ("id",), "bus entry")["id"], "bus entry id")
        if bid in bus_ids:
            raise ZoneValidationError(f"duplicate bus id {bid!r}")
        bus_ids.append(bid)

    battery_bus = _id(battery["bus"], "battery bus")
    if battery_bus not in bus_ids:
        raise ZoneValidationError(f"battery bus {battery_bus!r} not among buses")
    pmin = _as_float(battery["pmin_mw"], "battery pmin_mw")
    pmax = _as_float(battery["pmax_mw"], "battery pmax_mw")
    if not pmin <= 0.0 <= pmax:
        raise ZoneValidationError(f"battery bounds must satisfy pmin <= 0 <= pmax, got [{pmin}, {pmax}]")

    buses = tuple(
        Bus(b, battery_min_mw=pmin if b == battery_bus else 0.0,
            battery_max_mw=pmax if b == battery_bus else 0.0)
        for b in bus_ids
    )

    lines: list[Line] = []
    line_ids: set[str] = set()
    for raw in _entries(doc, "lines"):
        raw = _fields(
            raw, ("id", "from_bus", "to_bus", "reactance_pu", "ratings_summer", "ratings_winter"), "line entry"
        )
        lid = _id(raw["id"], "line entry id")
        if lid in line_ids:
            raise ZoneValidationError(f"duplicate line id {lid!r}")
        x = _as_float(raw["reactance_pu"], "line {!r} reactance_pu", lid)
        if not x > 0.0:
            raise ZoneValidationError(f"line {lid!r} reactance_pu must be > 0, got {x}")
        if x == math.inf:
            raise ZoneValidationError(f"line {lid!r} reactance_pu must be finite, got {x}")
        if 1.0 / x == math.inf:
            raise ZoneValidationError(f"line {lid!r} reactance_pu {x} has no finite susceptance 1/x")
        u = _id(raw["from_bus"], "line {!r} from_bus", lid)
        v = _id(raw["to_bus"], "line {!r} to_bus", lid)
        if u == v:
            raise ZoneValidationError(f"line {lid!r} connects bus {u!r} to itself")
        if u not in bus_ids:
            raise ZoneValidationError(f"line {lid!r} from_bus {u!r} not among buses")
        if v not in bus_ids:
            raise ZoneValidationError(f"line {lid!r} to_bus {v!r} not among buses")
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
        line_ids.add(lid)

    if not lines:
        raise ZoneValidationError("zone has no internal lines (degenerate topology)")
    diagonal = dict.fromkeys(bus_ids, 0.0)  # the network matrix's, summed in line order as the DC model does
    for line in lines:
        diagonal[line.from_bus] += 1.0 / line.reactance_pu
        diagonal[line.to_bus] += 1.0 / line.reactance_pu
    for bus, total in diagonal.items():
        if total == math.inf:
            raise ZoneValidationError(f"bus {bus!r}: the susceptances 1/x of its lines sum to {total}")
    islands = _connected_components(bus_ids, [(l.from_bus, l.to_bus) for l in lines])
    if len(islands) != 1:
        raise ZoneValidationError(
            "zone base topology is disconnected; islands: " + "; ".join(",".join(sorted(c)) for c in islands)
        )

    contingencies: list[Contingency] = []
    raw_outbound = _entries(doc, "outbound_lines")
    outbound_keys, outbound_optional = ("id", "boundary_bus", "ptdf_normal"), ("ptdf_contingency",)
    raw_outbound_ids = [
        str(_fields(o, (), "outbound line entry", optional=outbound_keys + outbound_optional).get("id"))
        for o in raw_outbound
    ]
    for raw in _entries(doc, "contingencies"):
        if not (isinstance(raw, dict) and "id" in raw and "outaged_element" in raw):
            raise ZoneValidationError("contingency entry missing 'id' or 'outaged_element'")
        _fields(raw, ("id", "outaged_element"), "contingency entry", optional=("modifies_zone_topology",))
        cid = _id(raw["id"], "contingency entry id")
        if any(c.id == cid for c in contingencies):
            raise ZoneValidationError(f"duplicate contingency id {cid!r}")
        element = _id(raw["outaged_element"], "contingency {!r} outaged_element", cid)
        is_internal = element in line_ids
        if not (is_internal or element in raw_outbound_ids):
            raise ZoneValidationError(f"contingency {cid!r} outages unknown element {element!r}")
        declared = raw.get("modifies_zone_topology")
        if not (declared is None or bool(declared) == is_internal):
            raise ZoneValidationError(
                f"contingency {cid!r}: modifies_zone_topology={declared} inconsistent with outaged element "
                f"{element!r} ({'internal' if is_internal else 'outbound'})"
            )
        contingencies.append(Contingency(cid, element, is_internal))

    cont_ids = [c.id for c in contingencies]
    outbound: list[OutboundLine] = []
    for raw in raw_outbound:
        raw = _fields(raw, outbound_keys, "outbound line entry", optional=outbound_optional)
        oid = _id(raw["id"], "outbound line entry id")
        if any(o.id == oid for o in outbound):
            raise ZoneValidationError(f"duplicate outbound line id {oid!r}")
        bb = _id(raw["boundary_bus"], "outbound line {!r} boundary_bus", oid)
        if bb not in bus_ids:
            raise ZoneValidationError(f"outbound line {oid!r} boundary_bus {bb!r} not among buses")
        p_normal = _ptdf_map(raw["ptdf_normal"], bus_ids, "outbound {!r} ptdf_normal", oid)
        p_cont: dict[str, dict[str, float]] = {}
        raw_cont = raw.get("ptdf_contingency") or {}
        if not isinstance(raw_cont, dict):
            raise ZoneValidationError(f"outbound {oid!r} ptdf_contingency must be an object, got {_kind(raw_cont)}")
        for cid, m in raw_cont.items():
            if cid not in cont_ids:
                raise ZoneValidationError(f"outbound {oid!r} ptdf_contingency references unknown contingency {cid!r}")
            p_cont[cid] = _ptdf_map(m, bus_ids, "outbound {!r} ptdf_contingency[{!r}]", oid, cid)
        outbound.append(OutboundLine(oid, bb, p_normal, p_cont))

    if not outbound:
        raise ZoneValidationError("zone has no outbound lines; boundary flows are required")

    capacity = _as_float(battery["capacity_mwh"], "battery capacity_mwh")
    if not capacity > 0.0:
        raise ZoneValidationError(f"battery capacity_mwh must be > 0, got {capacity}")
    soc_min = _as_float(battery.get("soc_min_mwh", 0.0), "battery soc_min_mwh")
    if not 0.0 <= soc_min < capacity:
        raise ZoneValidationError(f"battery soc_min_mwh must lie in [0, capacity), got {soc_min}")
    dt = _as_float(doc["timestep_hours"], "timestep_hours")
    if not dt > 0.0:
        raise ZoneValidationError(f"timestep_hours must be > 0, got {dt}")
    dt_cur = _as_float(doc["curative_duration_hours"], "curative_duration_hours")
    if not 0.0 < dt_cur <= dt:
        raise ZoneValidationError(f"curative_duration_hours must lie in (0, timestep_hours], got {dt_cur}")
    base_mva = _as_float(doc.get("base_mva", 100.0), "base_mva")
    if not base_mva > 0.0:
        raise ZoneValidationError(f"base_mva must be > 0, got {base_mva}")

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
        base_islands=islands,
    )
    _validate_topologies(zone)
    return zone


def _validate_topologies(zone: ZoneModel) -> None:
    """Per-topology structural checks and the outbound sensitivities' rules."""
    for topology in zone._topologies.values():
        if topology.contingency_id is not None:
            battery_island = next(c for c in topology.islands if zone.battery_bus in c)
            if not any(zone.line(lid).from_bus in battery_island for lid in topology.active_lines):
                raise ZoneValidationError(
                    f"{_topology_name(topology)} disconnects battery bus {zone.battery_bus!r} "
                    f"from every rated line"
                )
        check_sensitivities(zone, topology)


def _topology_name(topology: TopologyState) -> str:
    cid = topology.contingency_id
    return "base topology" if cid is None else f"contingency {cid!r}"


# The two checks below hold the only rules that tie a topology's islands to
# its boundary data: every island has an outbound line, sensitivities
# partition unity, every island balances. The loaders run them, and the DC
# model runs them again on each topology and hour it is given, so either
# caller refuses the same input with the same error.


def check_sensitivities(zone: ZoneModel, topology: TopologyState) -> None:
    """Every island of ``topology`` has an outbound line, and each bus's
    outbound sensitivities partition unity: they sum to 1 over its island's
    outbound lines (in outbound-line order) and are 0 on every other one, each
    to :data:`PTDF_PARTITION_TOL`."""
    olines = [zone.outbound(oid) for oid in topology.active_outbound]
    for island in topology.islands:
        if not any(o.boundary_bus in island for o in olines):
            raise IslandingError(
                f"{_topology_name(topology)} leaves island {{{','.join(sorted(island))}}} "
                f"without any outbound line"
            )
    cid = topology.contingency_id
    factors = []
    for o in olines:
        f = o.ptdf_normal if cid is None else o.ptdf_contingency.get(cid)
        if f is None:
            raise ZoneValidationError(f"outbound {o.id!r} has no ptdf_contingency entry for {cid!r}")
        factors.append((o, f))
    for island in topology.islands:
        for k in sorted(island):
            total = 0.0
            for o, f in factors:
                if o.boundary_bus in island:
                    total += f[k]
                elif not abs(f[k]) <= PTDF_PARTITION_TOL:
                    raise IslandingError(
                        f"{_topology_name(topology)}: bus {k!r} has nonzero sensitivity {f[k]} "
                        f"on outbound {o.id!r} in a different island"
                    )
            if not abs(total - 1.0) <= PTDF_PARTITION_TOL:
                raise IslandingError(
                    f"{_topology_name(topology)}: outbound sensitivities of bus {k!r} sum to {total}, "
                    f"expected 1 (export-positive convention)"
                )


def check_balance(
    zone: ZoneModel, topology: TopologyState, injections_mw: dict[str, float], flows_mw: dict[str, float]
) -> None:
    """Every island of ``topology`` balances to :data:`BALANCE_TOL_MW`: its
    bus injections, summed in bus order, less the export-positive flows of its
    active outbound lines, summed in outbound-line order."""
    outbound = zone._outbound
    for island in topology.islands:  # loops, not sum(): the DC model runs this every hour
        injected = exported = 0.0
        for b in island:
            injected += injections_mw[b]
        for oid in topology.active_outbound:
            if outbound[oid].boundary_bus in island:
                exported += flows_mw[oid]
        if not abs(injected - exported) <= BALANCE_TOL_MW:  # NaN never balances
            raise BalanceError(
                f"island {{{','.join(sorted(island))}}} has {injected - exported:.3e} MW imbalance between "
                f"injections and boundary flows ({_topology_name(topology)})"
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

    Checks the header naming convention, value sanity (every number finite,
    curtailable >= 0) and MW balance of every row: under the intact topology
    and under every contingency, each island's injections must equal its
    exports (:func:`check_balance`).
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
    for idx, raw in enumerate(reader):
        if not raw or all(not cell.strip() for cell in raw):
            continue
        if len(raw) != len(header):
            raise ZoneValidationError(f"forecast row {idx} has {len(raw)} cells, header has {len(header)}")

        def cell(name: str) -> str:
            return raw[col[name]].strip()

        def num(name: str) -> float:
            try:
                val = float(cell(name))
            except ValueError:
                raise ZoneValidationError(f"forecast row {idx} column {name!r} is not a number: {cell(name)!r}") from None
            if not math.isfinite(val):
                raise ZoneValidationError(f"forecast row {idx} column {name!r} is not finite: {cell(name)!r}")
            return val

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

        for topology in zone._topologies.values():
            cid = topology.contingency_id
            try:
                check_balance(zone, topology, injections, ref_normal if cid is None else ref_cont[cid])
            except BalanceError as exc:
                raise BalanceError(f"forecast row {idx}: {exc}") from None

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
