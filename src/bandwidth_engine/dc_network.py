"""DC power-flow machinery for the zone.

Flows are computed in MW directly: angles are carried in a base-folded scale
(theta_pu * base MVA) so that ``flow_mw = (phi_u - phi_v) / x_pu``. DC flows
from MW injections are invariant to the base choice, and no angle is ever
reported, so the fold is unobservable; ``base_mva`` stays configurable on the
zone for unit bookkeeping.

The surrounding grid enters through export-positive boundary flows and the
outbound sensitivities recorded on the zone. The effective sensitivity of an
internal line to an injection therefore combines the zone network with the
recorded boundary response — this is what :func:`compute_ptdf` evaluates.

:class:`NetworkModel` holds, per topology of a zone, the PTDFs and a
line-by-bus flow matrix, so that a block of hours takes its base flows in
one call, instead of a fresh network solve per hour and topology: per hour
it sums the bus injections once, and per topology it takes one stacked
product over the block's net injections. A stacked product runs the
matrix-vector product of each hour's column on its own, so every hour keeps
the bits a one-hour call gives; a 2-D matrix product over the block would
run a matrix-matrix kernel and give other last bits. Both come from one
solve per island over the PTDFs' injection patterns and the unit injections
side by side; :func:`compute_ptdf` is the one-topology case of the same
solve.

The topologies (:class:`TopologyState`, derived once per zone) and the rules
that tie their islands to the boundary data live in :mod:`.grid_model`: every
island has an outbound line and the outbound sensitivities partition unity
(:func:`~.grid_model.check_sensitivities`), and every island balances
(:func:`~.grid_model.check_balance`). This module calls the same functions
for each topology it models and each hour it solves, so an input the loaders
accept is never refused here.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .grid_model import IslandingError, TimestepForecast, TopologyState, ZoneModel, check_balance, check_sensitivities


def _outbound_ptdf(zone: ZoneModel, oline_id: str, contingency_id: str | None) -> dict[str, float]:
    o = zone.outbound(oline_id)
    if contingency_id is None:
        return o.ptdf_normal
    return o.ptdf_contingency[contingency_id]


def _solve_island_angles(
    zone: ZoneModel,
    island: tuple[str, ...],
    active_line_ids: tuple[str, ...],
    injections: np.ndarray,
    bus_pos: dict[str, int],
    angles: np.ndarray,
) -> None:
    """Write one island's angles (base-folded) into ``angles``' bus rows,
    with the reference, its lowest bus id, left at zero.

    ``injections`` is (n_buses, k) — k right-hand sides solved at once.
    """
    members = sorted(island)
    if len(members) == 1:
        return
    pos = {b: i for i, b in enumerate(members)}
    B = [[0.0] * len(members) for _ in members]  # Python floats: the same additions
    for lid in active_line_ids:
        line = zone.line(lid)
        if line.from_bus not in island:
            continue
        b = 1.0 / line.reactance_pu
        i, j = pos[line.from_bus], pos[line.to_bus]
        B[i][i] += b
        B[j][j] += b
        B[i][j] -= b
        B[j][i] -= b
    rows = [bus_pos[b] for b in members[1:]]
    try:
        angles[rows] = np.linalg.solve(np.array([r[1:] for r in B[1:]]), injections[rows])
    except np.linalg.LinAlgError:
        raise IslandingError(
            f"singular network matrix on island {{{','.join(members)}}}"
        ) from None


def _bus_injections(injections_mw: dict[str, float], bus_pos: dict[str, int]) -> list[float]:
    """Each bus's injections summed, in bus order."""
    p = [0.0] * len(bus_pos)  # Python floats: the same additions as float64 entries
    for b, v in injections_mw.items():
        p[bus_pos[b]] += v
    return p


def _boundary(zone: ZoneModel, topology: TopologyState, bus_pos: dict[str, int]) -> tuple[tuple[int, str], ...]:
    """(boundary bus position, outbound id) per active outbound line, in order."""
    return tuple((bus_pos[zone.outbound(oid).boundary_bus], oid) for oid in topology.active_outbound)


def _net_injections(
    p: list[float], boundary: tuple[tuple[int, str], ...], boundary_flows_mw: dict[str, float]
) -> list[float]:
    """Net nodal injections in bus order, from the buses' injections ``p``.

    Boundary flows (export-positive) enter as injections of the opposite sign
    at their boundary bus (``boundary``: :func:`_boundary`).
    """
    p = p.copy()
    for at, oid in boundary:
        p[at] -= boundary_flows_mw[oid]
    return p


def _line_flows(
    zone: ZoneModel,
    topology: TopologyState,
    injections: np.ndarray,
    bus_pos: dict[str, int],
) -> np.ndarray:
    """Flows on the topology's active lines (rows) for each injection column."""
    angles = np.zeros(injections.shape)
    for island in topology.islands:
        _solve_island_angles(zone, island, topology.active_lines, injections, bus_pos, angles)
    lines = [zone.line(lid) for lid in topology.active_lines]
    ends = [bus_pos[line.from_bus] for line in lines], [bus_pos[line.to_bus] for line in lines]
    return (angles[ends[0]] - angles[ends[1]]) / np.array([line.reactance_pu for line in lines])[:, None]


def _bus_positions(zone: ZoneModel) -> dict[str, int]:
    return {b: i for i, b in enumerate(zone.bus_ids())}


def dc_flows(
    zone: ZoneModel,
    topology: TopologyState,
    injections_mw: dict[str, float],
    boundary_flows_mw: dict[str, float],
) -> dict[str, float]:
    """DC flows on the topology's active internal lines, in MW.

    ``boundary_flows_mw`` are export-positive per active outbound line and are
    treated as injections of the opposite sign at their boundary bus. Every
    electrical island must balance (:func:`~.grid_model.check_balance`).
    """
    check_balance(zone, topology, injections_mw, boundary_flows_mw)
    bus_pos = _bus_positions(zone)
    boundary = _boundary(zone, topology, bus_pos)
    p = _net_injections(_bus_injections(injections_mw, bus_pos), boundary, boundary_flows_mw)
    flows = _line_flows(zone, topology, np.array(p, dtype=float).reshape(-1, 1), bus_pos)
    return {lid: float(flows[i, 0]) for i, lid in enumerate(topology.active_lines)}


def compute_ptdf(zone: ZoneModel, topology: TopologyState) -> dict[str, dict[str, float]]:
    """Effective sensitivities of active internal lines to zone-bus injections,
    per line and bus, signed in the line's from->to orientation.

    A +1 MW injection at bus k raises each active outbound export by the
    recorded sensitivity and balances at the surrounding grid's remote slack;
    the zone network redistributes the remainder. When the outage is internal
    the factors are recomputed on the reduced topology — exact, and cheap at
    zone scale.
    """
    return _topology_model(zone, topology, _bus_positions(zone)).line_factors


@dataclass(frozen=True)
class TopologyModel:
    """One topology's DC model: its state, PTDF line factors and flow matrix.

    ``flow_matrix`` (active lines x zone buses) maps net nodal injections to
    line flows; it is the network solve of :func:`dc_flows` done once for unit
    injections. ``boundary`` holds each active outbound line's boundary bus
    position and id, in order.
    """

    state: TopologyState
    line_factors: dict[str, dict[str, float]]
    flow_matrix: np.ndarray
    boundary: tuple[tuple[int, str], ...]


def _topology_model(zone: ZoneModel, topology: TopologyState, bus_pos: dict[str, int]) -> TopologyModel:
    """The PTDF line factors and flow matrix from one solve per island over
    the injection columns [P | I]: P's column k is +1 MW at bus k less the
    outbound sensitivities at their boundary buses, I the unit injections.
    A topology the zone's rules refuse raises their error."""
    check_sensitivities(zone, topology)
    bus_ids = list(bus_pos)
    n = len(bus_ids)
    boundary = _boundary(zone, topology, bus_pos)
    outbound = [(at, _outbound_ptdf(zone, oid, topology.contingency_id)) for at, oid in boundary]
    P = [[0.0] * n for _ in range(n)]  # Python floats: the same arithmetic as float64 entries
    for k, bus in enumerate(bus_ids):
        P[k][k] += 1.0
        for at, ptdf in outbound:
            P[at][k] -= ptdf[bus]

    stacked = np.array([row + [float(i == k) for k in range(n)] for i, row in enumerate(P)])
    flows = _line_flows(zone, topology, stacked, bus_pos)
    line_factors = {
        lid: dict(zip(bus_ids, row[:n])) for lid, row in zip(topology.active_lines, flows.tolist())
    }
    return TopologyModel(topology, line_factors, flows[:, n:].copy(), boundary)


class NetworkModel:
    """A zone's DC model for a fixed set of topologies, reused for every hour.

    Built from the topology states it is given (keyed by their contingency id,
    ``None`` for the intact topology); it raises :class:`IslandingError` where
    :func:`compute_ptdf` would. :meth:`base_flows` gives every topology's
    flows for a block of hours in one call: per hour it sums the buses'
    injections once, then per topology checks each island's balance as
    :func:`dc_flows` does and subtracts its boundary flows; per topology it
    takes one stacked product over the block.
    """

    def __init__(self, zone: ZoneModel, topologies: Iterable[TopologyState]):
        self._zone = zone
        self._bus_pos = _bus_positions(zone)
        self.topologies: dict[str | None, TopologyModel] = {
            t.contingency_id: _topology_model(zone, t, self._bus_pos) for t in topologies
        }

    def base_flows(self, rows: Sequence[TimestepForecast]) -> list[np.ndarray]:
        """Each topology's DC flows (see :func:`dc_flows`) in MW for every
        row, in :attr:`topologies` order: a k x active-lines array per
        topology, the intact one's under each row's ``ref_normal_mw``, a
        contingency's under its ``ref_contingency_mw``. Row by row it sums the
        buses' injections once and runs each topology's balance check, so the
        first fault raised is the one a call per row would raise. The net
        injections, in Python floats, go into one k x topologies x buses x 1
        array, and per topology one stacked product ``flow_matrix @ nets[:, t]``
        runs, row by row, the matrix-vector product of that row's buses x 1
        column, with its bits; a 2-D ``nets @ flow_matrix.T`` would run a
        matrix-matrix product and give other bits."""
        zone, bus_pos, topologies = self._zone, self._bus_pos, self.topologies.items()
        net: list[float] = []  # per row, per topology, per bus
        for row in rows:
            injections = row.injections_mw
            p = _bus_injections(injections, bus_pos)
            for cid, topo in topologies:
                refs = row.ref_normal_mw if cid is None else row.ref_contingency_mw[cid]
                check_balance(zone, topo.state, injections, refs)
                net += _net_injections(p, topo.boundary, refs)
        nets = np.array(net, dtype=float).reshape(len(rows), len(topologies), len(bus_pos), 1)
        return [(topo.flow_matrix @ nets[:, t])[:, :, 0] for t, topo in enumerate(self.topologies.values())]
