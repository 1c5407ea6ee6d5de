"""Per-timestep power-bandwidth problems.

Each timestep's LP is solved under two objectives that differ only in the
sign on the preventive battery setpoint (minimize it for the lower bound,
maximize it for the upper bound). The LP's variables, rows and coefficients
depend only on the zone, so a :class:`BandwidthProblem` is built once per
zone and weighting, with its two objectives.
:func:`compute_power_bandwidths` writes all of a call's timesteps into its
LP at once (:meth:`BandwidthProblem.set_hours`: a k x rows array of
right-hand sides, the rating rows' limit - base flow and limit + base flow
taken on a k x pairs array, and a k x buses array of curtailment caps; the
block's base flows one stacked product per topology), and
:meth:`BandwidthProblem.select_hour` makes the LP hold each timestep in turn
while the call solves it, one ``power_bandwidth.solve`` per LP, in the same
order as before: per timestep the lower bound's, then the upper bound's
(each with the check's solve below, where it needs one). A
timestep's result is read through lists the problem builds once (the
curtailment and curative variables and, per direction, its objective), and
each objective is checked once per LP
(:meth:`lp_core.LinearProgram.set_objective`). The LP layer walks the
block's hours down its pivot-path tree together (see :mod:`.lp_core`).
:meth:`BandwidthProblem.set_hour` writes one timestep into the LP itself,
in Python floats, for :func:`solve_timestep`, :func:`check_safety` and the
LP export. The
problem of the last zone and weighting that :func:`compute_power_bandwidths`
solved is kept until a call on another zone or with other weights: its
network model, its LP and the LP's standard form with its pivot-path tree
(at most ``lp_core.NODES_PER_FORM`` nodes, about 2.6 kB per node; after the
bundled zone's 8,760 h year it holds about 1.5 MB).
It is keyed by the zone's ``repr`` and the weights, so a zone
edited in place, or one that differs only by a -0.0, gets a new problem.
:func:`solve_timestep`, :func:`check_safety` and the LP export build their
own LP every time. Each rating limit is named by one string, its label
``line:stage[contingency]:rating`` (``alpha-beta:fast_curative[c]:long_term``;
the normal state has no contingency): its two LP rows are ``rating_hi:<label>``
and ``rating_lo:<label>``. A result's binding label is the first rating row's,
in row order, that the lower-bound solution meets with equality, else the
upper-bound solution's first. An infeasible timestep's diagnostic solves the
elastic LP (:meth:`BandwidthProblem.elastic_lp`), made from the LP with
:meth:`lp_core.LinearProgram.extended`, which adds its slack columns; it
gets a standard form of its own at its first solve.

Curtailment comes strictly before the battery, and each solve checks it: a
direction that curtails more than ``BOUND_TOL_MW`` asks whether its end basis
is also optimal for the total curtailment alone
(:func:`lp_core.end_basis_optimal_for`); if not, one solve of that total
gives the least curtailment c*, and curtailing more than c* +
``BOUND_TOL_MW`` raises :class:`UnstableLpError`.

The LP carries four families of network states:

* normal state — flows within permanent ratings,
* each contingency, before any recourse — flows within immediate ratings,
* each contingency after fast curative actions (battery redispatch) — flows
  within long-term ratings,
* each contingency after all curative actions (battery plus curtailment) —
  flows within permanent ratings.

Every state's rating rows are written directly in the controls, through the
DC model of its topology: flow = base flow minus the line's PTDFs times the
control withdrawn at each bus. The topologies, their PTDFs and flow matrices
are built once per zone (:func:`network_model`) and kept with the problem.

Preventive controls (battery setpoint, curtailment) are shared by all states;
curative controls exist per contingency. Battery sign convention: positive =
charging. Curtailment is nonnegative and bounded by the forecasted curtailable
generation.

The curative-battery magnitudes enter the objective through a standard
nonnegative split; the small weights on curative terms make the recorded
curative actions reproducible without perturbing the battery bound itself.
"""

from __future__ import annotations

import csv
import io
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from operator import sub

import numpy as np

from .dc_network import NetworkModel
from .grid_model import (
    ForecastSeries,
    Line,
    Season,
    TimestepForecast,
    TopologyState,
    ZoneModel,
    select_ratings,
)
from .lp_core import (
    INF,
    LinearProgram,
    LpSolution,
    Relation,
    SolveStatus,
    check_solution,
    end_basis_optimal_for,
    solve,
)

BOUND_TOL_MW = 1e-6


class UnstableLpError(Exception):
    """The solver could not solve a bandwidth LP reliably (not a grid finding)."""


class Direction(str, Enum):
    LOWER = "lower"  # minimize +B: the smallest admissible setpoint
    UPPER = "upper"  # minimize -B: the largest admissible setpoint


class CongestionClass(str, Enum):
    FULLY_AVAILABLE = "fully_available"
    REDUCED = "reduced"
    STRONG = "strong"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class ObjectiveWeights:
    """Objective weights: curtailment dominates, curative terms only record.

    ``preventive_curtailment`` must be large enough that a MW of curtailment
    is never traded against any admissible battery move; each solve checks
    it (see the module docstring). The curative weights are small enough
    that they never shift the battery optimum beyond 1e-3 MW, and curative
    curtailment is kept cheaper than curative battery energy.
    """

    preventive_curtailment: float = 1.0e4
    curative_battery: float = 1.0e-3
    curative_curtailment: float = 1.0e-4

    def validate(self) -> None:
        weights = (self.preventive_curtailment, self.curative_battery, self.curative_curtailment)
        if not all(0 < w < math.inf for w in weights):
            raise ValueError("objective weights must be finite and positive")


# per direction, in solve order: its LP's name in an error
_BOUND_LPS = [(direction, f"{direction.value}-bound") for direction in (Direction.LOWER, Direction.UPPER)]

#: LP states: the normal state plus three stages per contingency.
NORMAL = "normal"
OUTAGE = "outage"  # immediate rating, no recourse yet
FAST_CURATIVE = "fast_curative"  # long-term rating, battery recourse
FULL_CURATIVE = "full_curative"  # permanent rating, battery + curtailment recourse

_STAGE_RATING = {
    NORMAL: "permanent",
    OUTAGE: "immediate",
    FAST_CURATIVE: "long_term",
    FULL_CURATIVE: "permanent",
}


class BandwidthProblem:
    """A zone's bandwidth LP plus the mapping from model symbols to LP
    variable names.

    The LP's variables, rows and coefficients depend only on the zone, so it
    is built once, with placeholder curtailment caps and right-hand sides;
    :meth:`set_hour` writes one timestep's values into it, and
    :meth:`set_hours` many at once. Each rating
    limit's label is formatted once; it names the limit's two rows and is the
    string :meth:`first_binding` and the diagnostic report.
    ``objectives[direction]`` minimizes +-B plus the curtailment and curative
    terms under the weights, and ``total_curtailment`` is the total preventive
    curtailment, the objective the least-curtailment check solves. Callers
    must not change these dicts.
    """

    def __init__(self, zone: ZoneModel, network: NetworkModel, weights: ObjectiveWeights):
        weights.validate()
        self.network = network
        self.battery = battery = zone.battery
        bus_ids = zone.bus_ids()
        lp = LinearProgram("bandwidth")

        batt = lp.add_variable("batt", battery.battery_min_mw, battery.battery_max_mw)

        curt: dict[str, str] = {}
        for b in bus_ids:
            curt[b] = lp.add_variable(f"curt:{b}", 0.0, 0.0)

        cur_batt: dict[str, tuple[str, str]] = {}
        cur_curt: dict[tuple[str, str], str] = {}
        self._curt_caps: list[tuple[str, str]] = []  # (row, bus)
        for c in zone.contingencies:
            plus = lp.add_variable(f"cur_batt+:{c.id}", 0.0, INF)
            minus = lp.add_variable(f"cur_batt-:{c.id}", 0.0, INF)
            cur_batt[c.id] = (plus, minus)
            lp.add_constraint(
                {batt: 1.0, plus: 1.0, minus: -1.0},
                Relation.LE,
                battery.battery_max_mw,
                name=f"cur_batt_cap_hi:{c.id}",
            )
            lp.add_constraint(
                {batt: 1.0, plus: 1.0, minus: -1.0},
                Relation.GE,
                battery.battery_min_mw,
                name=f"cur_batt_cap_lo:{c.id}",
            )
            for b in bus_ids:
                v = lp.add_variable(f"cur_curt:{b}@{c.id}", 0.0, INF)
                cur_curt[(b, c.id)] = v
                cap = lp.add_constraint(
                    {curt[b]: 1.0, v: 1.0},
                    Relation.LE,
                    0.0,
                    name=f"cur_curt_cap:{b}@{c.id}",
                )
                self._curt_caps.append((cap, b))

        # one DC model per topology (intact, then each contingency): a stage's
        # flow on an active line is base - sum_bus PTDF * control, bounded by a
        # (hi, lo) row pair named by its label, line:stage[contingency]:rating;
        # per pair: the line and its rating, and its flow's position among an
        # hour's base flows, every topology's in turn
        self._pairs: list[tuple[Line, str]] = []
        flow_at: list[int] = []
        self._ratings: list[tuple[str, str, dict[str, float]]] = []  # (row, label, coefficients) per row
        first = 0  # the topology's first flow's position
        for cid, topo in network.topologies.items():
            stages = (NORMAL,) if cid is None else (OUTAGE, FAST_CURATIVE, FULL_CURATIVE)
            ptdf = topo.line_factors
            for stage in stages:
                tag = f"{stage}[{cid}]" if cid else stage
                rating = _STAGE_RATING[stage]

                # controls acting in this stage, per bus: +1 MW of control
                # withdraws 1 MW of net injection
                controls = {b: {curt[b]: 1.0} for b in bus_ids}
                controls[zone.battery_bus][batt] = 1.0
                if stage in (FAST_CURATIVE, FULL_CURATIVE):
                    plus, minus = cur_batt[cid]
                    controls[zone.battery_bus].update({plus: 1.0, minus: -1.0})
                if stage == FULL_CURATIVE:
                    for b in bus_ids:
                        controls[b][cur_curt[(b, cid)]] = 1.0

                for k, lid in enumerate(topo.state.active_lines):
                    flow: dict[str, float] = {}
                    factors = ptdf[lid]
                    for b in bus_ids:
                        f = factors[b]
                        if f == 0.0:
                            continue
                        for var, mult in controls[b].items():
                            flow[var] = flow.get(var, 0.0) - f * mult
                    self._pairs.append((zone.line(lid), rating))
                    flow_at.append(first + k)
                    label = f"{lid}:{tag}:{rating}"
                    for side, coeffs in (("hi", flow), ("lo", {var: -c for var, c in flow.items()})):
                        name = lp.add_constraint(coeffs, Relation.LE, 0.0, name=f"rating_{side}:{label}")
                        self._ratings.append((name, label, coeffs))
            first += len(topo.state.active_lines)
        self._flow_at = flow_at
        self._cap_buses = [b for _, b in self._curt_caps]
        self._limits: dict[Season, list[float]] = {}  # per season, each pair's rating
        # the timesteps set_hours wrote: the right-hand sides of the rows
        # set_hour writes (k x rows)
        self._hours: np.ndarray | None = None
        self._rating_rhs: Sequence[float] = ()  # the held timestep's rating rows' part
        # every row set_hour writes: the curtailment caps, then the ratings
        self._rhs_rows = [name for name, _ in self._curt_caps] + [name for name, *_ in self._ratings]

        self.lp = lp
        self.battery_var = batt
        self.curtailment_vars = curt
        self.curative_battery_vars = cur_batt
        self.curative_curtailment_vars = cur_curt
        self.total_curtailment = {v: 1.0 for v in curt.values()}
        # what an hour's result reads: the curtailment variables, the
        # curative pairs' plus and minus variables, the battery's range less
        # BOUND_TOL_MW at each end, and per direction, lower then upper, its
        # objective and its LP's name in an error
        self._readout = list(curt.values()), [p for p, _ in cur_batt.values()], [m for _, m in cur_batt.values()]
        self._band_edges = battery.battery_min_mw + BOUND_TOL_MW, battery.battery_max_mw - BOUND_TOL_MW
        self._directions: list[tuple[dict[str, float], str]] = []
        self.objectives: dict[Direction, dict[str, float]] = {}
        for direction, what in _BOUND_LPS:
            objective = {batt: 1.0 if direction == Direction.LOWER else -1.0}
            for v in curt.values():
                objective[v] = weights.preventive_curtailment
            for plus, minus in cur_batt.values():
                objective[plus] = weights.curative_battery
                objective[minus] = weights.curative_battery
            for v in cur_curt.values():
                objective[v] = weights.curative_curtailment
            self.objectives[direction] = objective
            self._directions.append((objective, what))

    def _season_limits(self, season: Season) -> list[float]:
        """Each pair's rating under ``season``."""
        if season not in self._limits:
            self._limits[season] = [select_ratings(line, season).for_state(rating) for line, rating in self._pairs]
        return self._limits[season]

    def set_hour(self, row: TimestepForecast) -> None:
        """Write one timestep's curtailment bounds and right-hand sides into
        the LP: the curtailment caps, then per rating pair limit - base flow
        for the upper row and limit + base flow for the lower one, under its
        season's ratings, in Python floats: per entry the operation
        :meth:`set_hours` runs on its arrays, with the same bits, without the
        arrays' set-up, which costs one timestep more than it saves."""
        caps = row.curtailable_max_mw
        flows = [flow for block in self.network.base_flows([row]) for flow in block[0].tolist()]
        values = [caps[b] for b in self._cap_buses]
        for limit, at in zip(self._season_limits(row.season), self._flow_at):
            flow = flows[at]
            values += (limit - flow, limit + flow)
        self._hours, self._rating_rhs = None, values[len(self._cap_buses) :]
        for b, v in self.curtailment_vars.items():
            self.lp.set_bounds(v, 0.0, caps[b])
        self.lp.set_rhs_many(self._rhs_rows, values)

    def set_hours(self, rows: list[TimestepForecast]) -> None:
        """Write every timestep of ``rows`` into the LP at once
        (:meth:`lp_core.LinearProgram.set_hours`), as two arrays of a row per
        timestep: the curtailment caps and the right-hand sides
        :meth:`set_hour` writes, each under its own season's ratings, with
        the same elementwise subtractions and additions. The LP then holds
        the first; :meth:`select_hour` picks another."""
        seasons = list(dict.fromkeys(row.season for row in rows))
        limits = np.array([self._season_limits(season) for season in seasons], dtype=float)
        if len(seasons) > 1:  # a row of limits per timestep, else one row for all
            limits = limits.take([seasons.index(row.season) for row in rows], axis=0)
        flows = np.concatenate(self.network.base_flows(rows), axis=1).take(self._flow_at, axis=1)
        # per timestep: its caps per bus, then per curtailment-cap row
        buses, n_caps = [*self.curtailment_vars], len(self._cap_buses)
        at = [*buses, *self._cap_buses]
        caps = np.array([[*map(row.curtailable_max_mw.__getitem__, at)] for row in rows], dtype=float)
        values = np.empty((len(rows), n_caps + 2 * len(self._pairs)))
        values[:, :n_caps] = caps[:, len(buses) :]
        np.subtract(limits, flows, out=values[:, n_caps::2])
        np.add(limits, flows, out=values[:, n_caps + 1 :: 2])
        self._hours, self._rating_rhs = values, values[0, n_caps:]
        self.lp.set_hours(self._rhs_rows, values, list(self.curtailment_vars.values()), caps[:, : len(buses)])

    def select_hour(self, hour: int) -> None:
        """Make the LP hold timestep ``hour`` of :meth:`set_hours`."""
        self.lp.select_hour(hour)
        self._rating_rhs = self._hours[hour, len(self._cap_buses) :]

    def drop_hours(self) -> None:
        """Drop the timesteps :meth:`set_hours` wrote, but the one held."""
        if self._hours is not None:
            self._hours, self._rating_rhs = None, self._rating_rhs.tolist()  # not a view that keeps the block
        self.lp.drop_hours()

    def first_binding(self, solution: LpSolution) -> str | None:
        """The label of the first rating row, in row order, that a solution
        meets with equality: lhs >= rhs - 1e-6, the lhs summed over the row's
        coefficients in their order. None if no rating row binds."""
        values = solution.values
        for (_, label, coeffs), rhs in zip(self._ratings, self._rating_rhs):
            if sum(c * values[v] for v, c in coeffs.items()) >= rhs - 1e-6:
                return label
        return None

    def elastic_lp(self) -> LinearProgram:
        """The elastic LP of the infeasibility diagnostic (Chinneck,
        "Feasibility and Infeasibility in Optimization", 2008): the LP plus a
        slack ``relax:<row>`` in [0, inf) entering every rating row with
        coefficient -1, and the slacks' sum, in row order, as its objective.
        Made from the LP, with the hour it holds, on every call."""
        slacks = {f"relax:{name}": {name: -1.0} for name, *_ in self._ratings}
        elastic = self.lp.extended(self.lp.name + ":relaxed", slacks)
        elastic.set_objective(dict.fromkeys(slacks, 1.0))
        return elastic


@dataclass(frozen=True, slots=True)
class PowerBandwidthResult:
    index: int
    timestamp: str
    season: str
    lower_mw: float
    upper_mw: float
    curative_charge_worst_mw: float  # largest curative battery charge, lower solve
    curative_discharge_worst_mw: float  # most negative curative battery value, upper solve
    preventive_curtailment_lower_mw: float
    preventive_curtailment_upper_mw: float
    congestion_class: CongestionClass
    binding_constraint: str | None
    failure: str | None = None

    @property
    def preventive_curtailment_mw(self) -> float:
        return max(self.preventive_curtailment_lower_mw, self.preventive_curtailment_upper_mw)


def network_model(zone: ZoneModel) -> NetworkModel:
    """The zone's DC model for the intact topology and for each contingency."""
    return NetworkModel(
        zone,
        [TopologyState.base(zone)]
        + [TopologyState.for_contingency(zone, c) for c in zone.contingencies],
    )


def build_lp(
    zone: ZoneModel,
    row: TimestepForecast,
    season: Season | str,
    direction: Direction | str,
    weights: ObjectiveWeights | None = None,
) -> BandwidthProblem:
    """Build one timestep's problem, under ``season``'s ratings, on the zone's
    :func:`network_model`, with ``direction``'s band objective set on its LP."""
    direction, season = Direction(direction), Season(season)
    if season != row.season:
        row = replace(row, season=season)
    problem = BandwidthProblem(zone, network_model(zone), weights or ObjectiveWeights())
    problem.set_hour(row)
    problem.lp.name = f"bandwidth[t={row.index},{direction.value}]"
    problem.lp.set_objective(problem.objectives[direction])
    return problem


def _solve(lp: LinearProgram, row: TimestepForecast, what: str) -> LpSolution:
    """Solve; a status other than optimal or infeasible is a solver failure,
    never a grid finding (every bandwidth LP has a bounded objective)."""
    sol = solve(lp, compute_duals=False)
    if sol.status not in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
        raise _unstable(row, what, sol)
    return sol


def _unstable(row: TimestepForecast, what: str, sol: LpSolution) -> UnstableLpError:
    return UnstableLpError(
        f"timestep {row.index} ({row.timestamp}): the {what} LP is {sol.status.value.replace('_', ' ')}"
    )


def _max_violation_diagnostic(problem: BandwidthProblem, row: TimestepForecast) -> str:
    """Relax every rating row of the timestep's LP elastically
    (:meth:`BandwidthProblem.elastic_lp`) and report the unavoidable
    overloads. The elastic LP is feasible (the battery at 0 MW, no
    curtailment or curative action, slacks covering every rating row) and
    bounded below, so ``infeasible`` too is a solver failure here."""
    sol = _solve(problem.elastic_lp(), row, "relaxed")
    if sol.status == SolveStatus.INFEASIBLE:
        raise _unstable(row, "relaxed", sol)
    worst: list[tuple[float, str]] = []
    for name, label, _ in problem._ratings:
        v = sol.value(f"relax:{name}")
        if v > 1e-6:
            worst.append((v, f"{label} by {v:.3f} MW"))
    worst.sort(reverse=True)
    if not worst:
        return "infeasible (the relaxed ratings need no overload: numerical tolerance)"
    return "unclearable overload: " + "; ".join(w[1] for w in worst[:4])


def solve_timestep(
    zone: ZoneModel,
    row: TimestepForecast,
    weights: ObjectiveWeights | None = None,
) -> PowerBandwidthResult:
    """Solve both directions for one timestep, under its own season's
    ratings, and classify the outcome.

    One LP is solved for the lower bound, then for the upper bound. Raises
    :class:`UnstableLpError` if an LP is neither optimal nor infeasible, or if
    a direction curtails more than the timestep needs (see the module
    docstring).
    """
    problem = build_lp(zone, row, row.season, Direction.LOWER, weights)
    return _solve_written(problem, row)


def _solve_written(problem: BandwidthProblem, row: TimestepForecast) -> PowerBandwidthResult:
    """:func:`solve_timestep` for a problem that holds the timestep's values."""
    lp = problem.lp
    curt, plus, minus = problem._readout
    sols, curts = [], []
    for objective, what in problem._directions:
        lp.set_objective(objective)
        sol = _solve(lp, row, what)
        if sol.status != SolveStatus.OPTIMAL:
            return _infeasible_result(problem, row)
        total = sum(map(sol.values.__getitem__, curt))
        if total > BOUND_TOL_MW and not end_basis_optimal_for(lp, problem.total_curtailment):
            lp.set_objective(problem.total_curtailment)
            least = _solve(lp, row, "least-curtailment")
            if least.status != SolveStatus.OPTIMAL:
                raise _unstable(row, "least-curtailment", least)
            if total > least.objective + BOUND_TOL_MW:
                raise UnstableLpError(
                    f"timestep {row.index} ({row.timestamp}): the {what} LP curtails {total:.6f} MW where "
                    f"{least.objective:.6f} MW would do: the weights do not make curtailment dominate (raise --c1)"
                )
        sols.append(sol)
        curts.append(total)
    lo, hi = sols
    lo_x, hi_x = lo.values, hi.values
    curt_lo, curt_hi = curts

    lower = lo_x[problem.battery_var]
    upper = hi_x[problem.battery_var]
    charge_worst = max([0.0, *map(sub, map(lo_x.__getitem__, plus), map(lo_x.__getitem__, minus))])
    discharge_worst = min([0.0, *map(sub, map(hi_x.__getitem__, plus), map(hi_x.__getitem__, minus))])

    min_edge, max_edge = problem._band_edges
    at_min = lower <= min_edge
    at_max = upper >= max_edge
    no_curt = curt_lo <= BOUND_TOL_MW and curt_hi <= BOUND_TOL_MW
    if lower >= max_edge or upper <= min_edge:
        cls = CongestionClass.STRONG
    elif at_min and at_max and no_curt:
        cls = CongestionClass.FULLY_AVAILABLE
    else:
        cls = CongestionClass.REDUCED

    binding = None
    if cls != CongestionClass.FULLY_AVAILABLE:
        binding = problem.first_binding(lo) or problem.first_binding(hi)
    return PowerBandwidthResult(
        index=row.index,
        timestamp=row.timestamp,
        season=row.season.value,
        lower_mw=lower,
        upper_mw=upper,
        curative_charge_worst_mw=charge_worst,
        curative_discharge_worst_mw=discharge_worst,
        preventive_curtailment_lower_mw=curt_lo,
        preventive_curtailment_upper_mw=curt_hi,
        congestion_class=cls,
        binding_constraint=binding,
    )


def _infeasible_result(problem: BandwidthProblem, row: TimestepForecast) -> PowerBandwidthResult:
    return PowerBandwidthResult(
        index=row.index,
        timestamp=row.timestamp,
        season=row.season.value,
        lower_mw=math.nan,
        upper_mw=math.nan,
        curative_charge_worst_mw=math.nan,
        curative_discharge_worst_mw=math.nan,
        preventive_curtailment_lower_mw=math.nan,
        preventive_curtailment_upper_mw=math.nan,
        congestion_class=CongestionClass.INFEASIBLE,
        binding_constraint=None,
        failure=_max_violation_diagnostic(problem, row),
    )


# The last zone's problem, kept from one compute_power_bandwidths call to the
# next under the zone's repr and the weights: OutboundLine's
# PTDF maps are dicts that can be edited in place, and a repr tells every float
# apart (-0.0 from 0.0), so an equal key means an equal zone. A call takes the
# problem out while it uses it and puts it back when it finishes, so one that
# raises leaves none half-written and two threads never share one.
_kept: dict[tuple[str, ObjectiveWeights], BandwidthProblem] = {}
_kept_lock = threading.Lock()


def compute_power_bandwidths(
    zone: ZoneModel,
    forecast: ForecastSeries,
    *,
    weights: ObjectiveWeights | None = None,
) -> list[PowerBandwidthResult]:
    """Bandwidths for every row of the forecast, each under its own season's
    ratings, in timestep order.

    A timestep whose ratings cannot be met is reported in its result row
    (class ``infeasible`` with a ``failure`` diagnostic). Any exception raised
    while solving a timestep propagates to the caller: a crash is not a grid
    finding, nor is curtailing more than needed (:func:`solve_timestep`). The
    zone's network model and LP are built once and kept for later calls on an
    equal zone with equal weights (see the module docstring).
    """
    rows = list(forecast)
    if not rows:
        return []
    weights = weights or ObjectiveWeights()
    key = (repr(zone), weights)
    with _kept_lock:
        problem = _kept.pop(key, None)
    if problem is None:
        problem = BandwidthProblem(zone, network_model(zone), weights)
    problem.set_hours(rows)
    results = []
    for hour, row in enumerate(rows):
        problem.select_hour(hour)
        results.append(_solve_written(problem, row))
    problem.drop_hours()
    with _kept_lock:
        _kept.clear()  # a different zone's or weighting's problem is released
        _kept[key] = problem
    return results


# ---------------------------------------------------------------------------
# safety check (the bandwidth's defining property)
# ---------------------------------------------------------------------------


def check_safety(
    zone: ZoneModel,
    row: TimestepForecast,
    result: PowerBandwidthResult,
    n_points: int = 21,
) -> list[tuple[float, str]]:
    """Probe the reported bandwidth: every setpoint inside it must admit a
    feasible curative completion for every contingency.

    Returns a list of (setpoint, diagnostic) for failures; empty = safe. The
    ``n_points`` setpoints span the band evenly; one is its midpoint, and
    fewer than one raises ``ValueError``. The completion keeps preventive
    curtailment free within its forecast budget.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    failures: list[tuple[float, str]] = []
    if result.congestion_class == CongestionClass.INFEASIBLE:
        return [(math.nan, "timestep infeasible")]
    problem = build_lp(zone, row, row.season, Direction.LOWER)
    lp = problem.lp
    battery = zone.battery
    span = result.upper_mw - result.lower_mw
    for i in range(n_points):
        b = result.lower_mw + span * (i / (n_points - 1) if n_points > 1 else 0.5)
        # the tolerance absorbs the rounding of lower + span * 1.0
        if not battery.battery_min_mw - BOUND_TOL_MW <= b <= battery.battery_max_mw + BOUND_TOL_MW:
            failures.append((b, f"setpoint {b:.4f} MW outside the battery range"))
            continue
        lp.set_bounds(problem.battery_var, b, b)
        sol = _solve(lp, row, "safety-check")
        if sol.status != SolveStatus.OPTIMAL:
            failures.append((b, f"no feasible completion at setpoint {b:.4f} MW"))
            continue
        residual = check_solution(lp, sol.values)
        if residual:
            failures.append((b, f"completion violates {residual[0]}"))
    return failures


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

POWER_CSV_HEADER = [
    "timestamp",
    "B_lower_mw",
    "B_upper_mw",
    "curative_charge_worst_mw",
    "curative_discharge_worst_mw",
    "preventive_curtailment_mw",
    "congestion_class",
    "binding_constraint",
]


def fmt6(x: float) -> str:
    """A report cell: six decimals, empty for NaN, never ``-0.000000``."""
    if math.isnan(x):
        return ""
    if abs(x) < 5e-7:
        x = 0.0
    return f"{x:.6f}"


def power_results_to_csv(results: list[PowerBandwidthResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(POWER_CSV_HEADER)
    for r in results:
        writer.writerow(
            [
                r.timestamp,
                fmt6(r.lower_mw),
                fmt6(r.upper_mw),
                fmt6(r.curative_charge_worst_mw),
                fmt6(r.curative_discharge_worst_mw),
                fmt6(r.preventive_curtailment_mw),
                r.congestion_class.value,
                r.binding_constraint or "",
            ]
        )
    return buf.getvalue()
