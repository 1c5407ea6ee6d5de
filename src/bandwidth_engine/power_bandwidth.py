"""Per-timestep power-bandwidth problems.

Two LPs are solved per timestep; they differ only in the sign on the
preventive battery setpoint in the objective (minimize it for the lower bound,
maximize it for the upper bound). Each LP carries four families of network
states:

* normal state — flows within permanent ratings,
* each contingency, before any recourse — flows within immediate ratings,
* each contingency after fast curative actions (battery redispatch) — flows
  within long-term ratings,
* each contingency after all curative actions (battery plus curtailment) —
  flows within permanent ratings.

Every state's rating rows are written directly in the controls, through the
DC model of its topology: flow = base flow (:func:`dc_flows`) minus the line's
PTDFs (:func:`compute_ptdf`) times the control withdrawn at each bus.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .dc_network import TopologyState, compute_ptdf, dc_flows
from .grid_model import (
    ForecastSeries,
    Season,
    TimestepForecast,
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
    solve,
)

BOUND_TOL_MW = 1e-6


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

    ``preventive_curtailment`` is large enough that a MW of curtailment is
    never traded against any admissible battery move; the curative weights are
    small enough that they never shift the battery optimum beyond 1e-3 MW, and
    curative curtailment is kept cheaper than curative battery energy.
    """

    preventive_curtailment: float = 1.0e4
    curative_battery: float = 1.0e-3
    curative_curtailment: float = 1.0e-4

    def validate(self) -> None:
        if min(self.preventive_curtailment, self.curative_battery, self.curative_curtailment) <= 0:
            raise ValueError("objective weights must be positive")


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


@dataclass(frozen=True)
class BandwidthProblem:
    """A built LP plus the mapping from model symbols to LP variable names."""

    lp: LinearProgram
    direction: Direction
    timestep: int
    battery_var: str
    curtailment_vars: dict[str, str]  # bus -> var
    curative_battery_vars: dict[str, tuple[str, str]]  # contingency -> (charge+, discharge+)
    curative_curtailment_vars: dict[tuple[str, str], str]  # (bus, contingency) -> var
    rating_rows: dict[str, tuple[str, str, str, str]]  # row -> (line, stage, contingency|"", rating)

    def curative_battery_value(self, solution: LpSolution, contingency_id: str) -> float:
        plus, minus = self.curative_battery_vars[contingency_id]
        return solution.value(plus) - solution.value(minus)


@dataclass(frozen=True)
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


def build_lp(
    zone: ZoneModel,
    row: TimestepForecast,
    season: Season | str,
    direction: Direction | str,
    weights: ObjectiveWeights | None = None,
    battery_fixed_mw: float | None = None,
    forbid_preventive_curtailment: bool = False,
) -> BandwidthProblem:
    """Build one direction's LP for one timestep.

    ``battery_fixed_mw`` pins the preventive setpoint (used by the safety
    check); ``forbid_preventive_curtailment`` zeroes the curtailment budget
    (used by the battery-priority check).
    """
    season = Season(season)
    direction = Direction(direction)
    weights = weights or ObjectiveWeights()
    weights.validate()

    battery = zone.battery
    lp = LinearProgram(f"bandwidth[t={row.index},{direction.value}]")

    if battery_fixed_mw is not None:
        b_lo = b_hi = battery_fixed_mw
    else:
        b_lo, b_hi = battery.battery_min_mw, battery.battery_max_mw
    batt = lp.add_variable("batt", b_lo, b_hi)

    curt: dict[str, str] = {}
    for b in zone.bus_ids():
        cap = 0.0 if forbid_preventive_curtailment else row.curtailable_max_mw[b]
        curt[b] = lp.add_variable(f"curt:{b}", 0.0, cap)

    cur_batt: dict[str, tuple[str, str]] = {}
    cur_curt: dict[tuple[str, str], str] = {}
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
        for b in zone.bus_ids():
            v = lp.add_variable(f"cur_curt:{b}@{c.id}", 0.0, INF)
            cur_curt[(b, c.id)] = v
            cap = 0.0 if forbid_preventive_curtailment else row.curtailable_max_mw[b]
            lp.add_constraint(
                {curt[b]: 1.0, v: 1.0}, Relation.LE, cap, name=f"cur_curt_cap:{b}@{c.id}"
            )

    # one DC model per topology (intact, then each contingency): a stage's
    # flow on an active line is base - sum_bus PTDF * control
    rating_rows: dict[str, tuple[str, str, str, str]] = {}
    for contingency in (None, *zone.contingencies):
        if contingency is None:
            cid, stages = "", (NORMAL,)
            topo = TopologyState.base(zone)
            refs = row.ref_normal_mw
        else:
            cid, stages = contingency.id, (OUTAGE, FAST_CURATIVE, FULL_CURATIVE)
            topo = TopologyState.for_contingency(zone, contingency)
            refs = row.ref_contingency_mw[cid]
        base = dc_flows(zone, topo, row.injections_mw, refs)
        ptdf = compute_ptdf(zone, topo).line_factors

        for stage in stages:
            tag = stage if not cid else f"{stage}[{cid}]"

            # controls acting in this stage, per bus: +1 MW of control withdraws
            # 1 MW of net injection
            controls = {b: {curt[b]: 1.0} for b in zone.bus_ids()}
            controls[zone.battery_bus][batt] = 1.0
            if stage in (FAST_CURATIVE, FULL_CURATIVE):
                plus, minus = cur_batt[cid]
                controls[zone.battery_bus].update({plus: 1.0, minus: -1.0})
            if stage == FULL_CURATIVE:
                for b in zone.bus_ids():
                    controls[b][cur_curt[(b, cid)]] = 1.0

            rating_name = _STAGE_RATING[stage]
            for lid in topo.active_lines:
                flow: dict[str, float] = {}  # flow - base, in the controls
                for b in zone.bus_ids():
                    f = ptdf[lid][b]
                    if f == 0.0:
                        continue
                    for var, mult in controls[b].items():
                        flow[var] = flow.get(var, 0.0) - f * mult
                limit = select_ratings(zone.line(lid), season).for_state(rating_name)
                up = lp.add_constraint(
                    flow, Relation.LE, limit - base[lid], name=f"rating_hi:{tag}:{lid}"
                )
                dn = lp.add_constraint(
                    {var: -c for var, c in flow.items()},
                    Relation.LE,
                    limit + base[lid],
                    name=f"rating_lo:{tag}:{lid}",
                )
                rating_rows[up] = (lid, stage, cid, rating_name)
                rating_rows[dn] = (lid, stage, cid, rating_name)

    sign = 1.0 if direction == Direction.LOWER else -1.0
    objective: dict[str, float] = {batt: sign}
    for b in zone.bus_ids():
        objective[curt[b]] = weights.preventive_curtailment
    for c in zone.contingencies:
        plus, minus = cur_batt[c.id]
        objective[plus] = weights.curative_battery
        objective[minus] = weights.curative_battery
        for b in zone.bus_ids():
            objective[cur_curt[(b, c.id)]] = weights.curative_curtailment
    lp.set_objective(objective)

    return BandwidthProblem(
        lp=lp,
        direction=direction,
        timestep=row.index,
        battery_var=batt,
        curtailment_vars=curt,
        curative_battery_vars=cur_batt,
        curative_curtailment_vars=cur_curt,
        rating_rows=rating_rows,
    )


@dataclass(frozen=True)
class _DirectionOutcome:
    feasible: bool
    battery_mw: float
    curtailment_total_mw: float
    curative_battery_mw: dict[str, float]
    binding: list[str]
    diagnostic: str | None


def _solve_direction(
    zone: ZoneModel,
    row: TimestepForecast,
    season: Season,
    direction: Direction,
    weights: ObjectiveWeights,
    lexicographic: bool,
) -> _DirectionOutcome:
    problem = build_lp(zone, row, season, direction, weights)
    lp = problem.lp

    if lexicographic:
        # stage 1: minimize total preventive curtailment alone, then bound
        # the total by that optimum (the split across buses stays free)
        total = {problem.curtailment_vars[b]: 1.0 for b in zone.bus_ids()}
        lp.set_objective(total)
        sol1 = solve(lp, compute_duals=False)
        if sol1.status != SolveStatus.OPTIMAL:
            return _infeasible_outcome(zone, row, season, direction, weights, sol1)
        lp.add_constraint(total, Relation.LE, sol1.objective, name="curt_total_cap")
        sign = 1.0 if direction == Direction.LOWER else -1.0
        objective: dict[str, float] = {problem.battery_var: sign}
        for c in zone.contingencies:
            plus, minus = problem.curative_battery_vars[c.id]
            objective[plus] = weights.curative_battery
            objective[minus] = weights.curative_battery
            for b in zone.bus_ids():
                objective[problem.curative_curtailment_vars[(b, c.id)]] = (
                    weights.curative_curtailment
                )
        lp.set_objective(objective)

    sol = solve(lp, compute_duals=False)
    if sol.status != SolveStatus.OPTIMAL:
        return _infeasible_outcome(zone, row, season, direction, weights, sol)

    battery_mw = sol.value(problem.battery_var)
    curt_total = sum(sol.value(problem.curtailment_vars[b]) for b in zone.bus_ids())
    curative = {
        c.id: problem.curative_battery_value(sol, c.id) for c in zone.contingencies
    }
    binding = _binding_ratings(problem, sol)
    return _DirectionOutcome(True, battery_mw, curt_total, curative, binding, None)


def _binding_ratings(problem: BandwidthProblem, sol: LpSolution) -> list[str]:
    binding = []
    for con in problem.lp.constraints:
        if con.name not in problem.rating_rows:
            continue
        lhs = sum(c * sol.values[v] for v, c in con.coeffs.items())
        if lhs >= con.rhs - 1e-6:
            lid, stage, cid, rating = problem.rating_rows[con.name]
            label = f"{lid}:{stage}{'[' + cid + ']' if cid else ''}:{rating}"
            if label not in binding:
                binding.append(label)
    return binding


def _infeasible_outcome(
    zone: ZoneModel,
    row: TimestepForecast,
    season: Season,
    direction: Direction,
    weights: ObjectiveWeights,
    sol: LpSolution,
) -> _DirectionOutcome:
    if sol.status == SolveStatus.NUMERICALLY_UNSTABLE:
        return _DirectionOutcome(False, math.nan, math.nan, {}, [], "numerically unstable")
    diag = _max_violation_diagnostic(zone, row, season, weights)
    return _DirectionOutcome(False, math.nan, math.nan, {}, [], diag)


def _max_violation_diagnostic(
    zone: ZoneModel,
    row: TimestepForecast,
    season: Season,
    weights: ObjectiveWeights,
) -> str:
    """Relax every rating row elastically and report the unavoidable overloads."""
    problem = build_lp(zone, row, season, Direction.LOWER, weights)
    lp = problem.lp
    slack_of: dict[str, str] = {}
    for con in list(lp.constraints):
        if con.name in problem.rating_rows:
            s = lp.add_variable(f"relax:{con.name}", 0.0, INF)
            con.coeffs[s] = -1.0
            slack_of[con.name] = s
    lp.set_objective({s: 1.0 for s in slack_of.values()})
    sol = solve(lp, compute_duals=False)
    if sol.status != SolveStatus.OPTIMAL:
        return "infeasible (no diagnostic: relaxed problem did not solve)"
    worst: list[tuple[float, str]] = []
    for row_name, s in slack_of.items():
        v = sol.value(s)
        if v > 1e-6:
            lid, stage, cid, rating = problem.rating_rows[row_name]
            worst.append((v, f"{lid}:{stage}{'[' + cid + ']' if cid else ''}:{rating} by {v:.3f} MW"))
    worst.sort(reverse=True)
    if not worst:
        return "infeasible (the relaxed ratings need no overload: numerical tolerance)"
    return "unclearable overload: " + "; ".join(w[1] for w in worst[:4])


def solve_timestep(
    zone: ZoneModel,
    row: TimestepForecast,
    season: Season | str | None = None,
    weights: ObjectiveWeights | None = None,
    lexicographic: bool = False,
) -> PowerBandwidthResult:
    """Solve both directions for one timestep and classify the outcome."""
    season = Season(season) if season is not None else row.season
    weights = weights or ObjectiveWeights()

    lo = _solve_direction(zone, row, season, Direction.LOWER, weights, lexicographic)
    hi = _solve_direction(zone, row, season, Direction.UPPER, weights, lexicographic)

    battery = zone.battery
    if not lo.feasible or not hi.feasible:
        return PowerBandwidthResult(
            index=row.index,
            timestamp=row.timestamp,
            season=season.value,
            lower_mw=math.nan,
            upper_mw=math.nan,
            curative_charge_worst_mw=math.nan,
            curative_discharge_worst_mw=math.nan,
            preventive_curtailment_lower_mw=math.nan,
            preventive_curtailment_upper_mw=math.nan,
            congestion_class=CongestionClass.INFEASIBLE,
            binding_constraint=None,
            failure=lo.diagnostic or hi.diagnostic,
        )

    lower = lo.battery_mw
    upper = hi.battery_mw
    charge_worst = max([0.0, *lo.curative_battery_mw.values()]) if lo.curative_battery_mw else 0.0
    discharge_worst = min([0.0, *hi.curative_battery_mw.values()]) if hi.curative_battery_mw else 0.0

    at_min = lower <= battery.battery_min_mw + BOUND_TOL_MW
    at_max = upper >= battery.battery_max_mw - BOUND_TOL_MW
    no_curt = lo.curtailment_total_mw <= BOUND_TOL_MW and hi.curtailment_total_mw <= BOUND_TOL_MW
    if lower >= battery.battery_max_mw - BOUND_TOL_MW or upper <= battery.battery_min_mw + BOUND_TOL_MW:
        cls = CongestionClass.STRONG
    elif at_min and at_max and no_curt:
        cls = CongestionClass.FULLY_AVAILABLE
    else:
        cls = CongestionClass.REDUCED

    binding = lo.binding + [b for b in hi.binding if b not in lo.binding]
    return PowerBandwidthResult(
        index=row.index,
        timestamp=row.timestamp,
        season=season.value,
        lower_mw=lower,
        upper_mw=upper,
        curative_charge_worst_mw=charge_worst,
        curative_discharge_worst_mw=discharge_worst,
        preventive_curtailment_lower_mw=lo.curtailment_total_mw,
        preventive_curtailment_upper_mw=hi.curtailment_total_mw,
        congestion_class=cls,
        binding_constraint=(binding[0] if cls != CongestionClass.FULLY_AVAILABLE and binding else None),
    )


def _solve_timestep_job(args) -> PowerBandwidthResult:
    zone, row, weights, lexicographic = args
    return solve_timestep(zone, row, None, weights, lexicographic)


def compute_power_bandwidths(
    zone: ZoneModel,
    forecast: ForecastSeries,
    horizon: int | None = None,
    workers: int = 1,
    weights: ObjectiveWeights | None = None,
    lexicographic: bool = False,
) -> list[PowerBandwidthResult]:
    """Bandwidths for timesteps [0, horizon); independent and parallelizable.

    A timestep whose ratings cannot be met is reported in its result row
    (class ``infeasible`` with a ``failure`` diagnostic). Any exception raised
    while solving a timestep propagates to the caller: a crash is not a grid
    finding.
    """
    rows = list(forecast)[: horizon if horizon is not None else len(forecast)]
    weights = weights or ObjectiveWeights()
    jobs = [(zone, row, weights, lexicographic) for row in rows]
    if workers <= 1 or len(rows) <= 1:
        return [_solve_timestep_job(j) for j in jobs]
    chunk = max(1, len(jobs) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_solve_timestep_job, jobs, chunksize=chunk))


# ---------------------------------------------------------------------------
# safety check (the bandwidth's defining property)
# ---------------------------------------------------------------------------


def check_safety(
    zone: ZoneModel,
    row: TimestepForecast,
    result: PowerBandwidthResult,
    n_points: int = 21,
    weights: ObjectiveWeights | None = None,
    fix_curtailment_at: dict[str, float] | None = None,
) -> list[tuple[float, str]]:
    """Probe the reported bandwidth: every setpoint inside it must admit a
    feasible curative completion for every contingency.

    Returns a list of (setpoint, diagnostic) for failures; empty = safe. The
    completion keeps preventive curtailment free within its forecast budget
    (pass ``fix_curtailment_at`` to pin it instead).
    """
    weights = weights or ObjectiveWeights()
    failures: list[tuple[float, str]] = []
    if result.congestion_class == CongestionClass.INFEASIBLE:
        return [(math.nan, "timestep infeasible")]
    span = result.upper_mw - result.lower_mw
    for i in range(n_points):
        b = result.lower_mw + span * (i / (n_points - 1) if n_points > 1 else 0.5)
        problem = build_lp(zone, row, row.season, Direction.LOWER, weights, battery_fixed_mw=b)
        if fix_curtailment_at is not None:
            for bus, val in fix_curtailment_at.items():
                var = problem.curtailment_vars[bus]
                for v in problem.lp.variables:
                    if v.name == var:
                        v.lower = v.upper = val
        sol = solve(problem.lp, compute_duals=False)
        if sol.status != SolveStatus.OPTIMAL:
            failures.append((b, f"no feasible completion at setpoint {b:.4f} MW"))
            continue
        residual = check_solution(problem.lp, sol.values)
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


def write_power_csv(results: list[PowerBandwidthResult], path: str | Path) -> None:
    Path(path).write_text(power_results_to_csv(results))
