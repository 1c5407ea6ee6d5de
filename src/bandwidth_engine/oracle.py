"""Independent brute-force verifiers.

Three families:

* :func:`enumerate_lp_optimum` — dense enumeration of basic solutions of a
  small LP; cross-checks the simplex without sharing any of its code paths.
* :func:`brute_force_power_bandwidth` — grid search over the battery setpoint
  and preventive curtailment with an exhaustive per-contingency curative
  search; cross-checks the bandwidth LPs. Guarded to small instances.
* :func:`forward_soc_feasible_set` — forward accumulation of charge/discharge
  obligations over the horizon; cross-checks the backward energy recursion.

The verifiers are shipped with the library (not only the tests) so the CLI
``verify`` command can run them against user data at guarded sizes. None of
them is performance-tuned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dc_network import compute_ptdf, dc_flows
from .grid_model import TimestepForecast, TopologyState, ZoneModel, select_ratings
from .lp_core import INF, LinearProgram, Relation
from .power_bandwidth import PowerBandwidthResult

COMBO_CAP = 400_000  # enumeration guard for the LP oracle
VERTEX_TOL = 1e-7  # the LP oracle's feasibility tolerance, scaled


class OracleGuardError(Exception):
    """Instance exceeds the size the brute-force verifier is willing to scan."""


# ---------------------------------------------------------------------------
# LP vertex enumeration
# ---------------------------------------------------------------------------


def enumerate_lp_optimum(lp: LinearProgram) -> tuple[str, float]:
    """Brute-force optimum by enumerating candidate vertices.

    Every vertex activates n constraints: all equality rows, a subset of the
    inequality rows and the rest variables pinned at a finite bound. Suitable
    for pointed feasible regions with a bounded optimum (or infeasible LPs);
    callers guard unbounded shapes themselves.

    A candidate is feasible within :data:`VERTEX_TOL`, scaled. Returns
    ("optimal", best objective) or ("infeasible", nan).
    """
    n = len(lp.variables)
    eq_rows = [c for c in lp.constraints if c.relation == Relation.EQ]
    ineq_rows = [c for c in lp.constraints if c.relation != Relation.EQ]
    if len(eq_rows) > n:
        eq_rows = eq_rows[:n]  # overdetermined; surviving combos still checked

    var_names = [v.name for v in lp.variables]
    col = {name: j for j, name in enumerate(var_names)}

    def row_vec(con) -> np.ndarray:
        a = np.zeros(n)
        for name, c in con.coeffs.items():
            a[col[name]] = c
        return a

    eq_A = np.array([row_vec(c) for c in eq_rows]) if eq_rows else np.zeros((0, n))
    eq_b = np.array([c.rhs for c in eq_rows])
    ineq_A = np.array([row_vec(c) for c in ineq_rows]) if ineq_rows else np.zeros((0, n))
    ineq_b = np.array([c.rhs for c in ineq_rows])
    ineq_sign = np.array([1.0 if c.relation == Relation.LE else -1.0 for c in ineq_rows])

    lowers = np.array([v.lower for v in lp.variables])
    uppers = np.array([v.upper for v in lp.variables])
    cvec = np.zeros(n)
    for name, c in lp.objective.items():
        cvec[col[name]] = c

    bound_sides = []
    for j in range(n):
        sides = []
        if lowers[j] != -INF:
            sides.append(lowers[j])
        if uppers[j] != INF:
            sides.append(uppers[j])
        bound_sides.append(sides)

    best = None
    n_eq = len(eq_rows)
    combos = 0
    for r_extra in range(0, min(len(ineq_rows), n - n_eq) + 1):
        n_active_rows = n_eq + r_extra
        n_fixed = n - n_active_rows
        for extra in itertools.combinations(range(len(ineq_rows)), r_extra):
            for fixed_vars in itertools.combinations(range(n), n_fixed):
                free_vars = [j for j in range(n) if j not in fixed_vars]
                side_lists = [bound_sides[j] for j in fixed_vars]
                if any(not s for s in side_lists):
                    continue
                for sides in itertools.product(*side_lists):
                    combos += 1
                    if combos > COMBO_CAP:
                        raise OracleGuardError(
                            f"vertex enumeration beyond {COMBO_CAP} combinations"
                        )
                    x = np.empty(n)
                    for j, val in zip(fixed_vars, sides):
                        x[j] = val
                    A_rows = np.vstack([eq_A, ineq_A[list(extra)]]) if extra else eq_A
                    b_rows = np.concatenate([eq_b, ineq_b[list(extra)]]) if extra else eq_b
                    if free_vars:
                        M = A_rows[:, free_vars]
                        rhs = b_rows - A_rows[:, list(fixed_vars)] @ x[list(fixed_vars)] if n_fixed else b_rows
                        if M.shape[0] != len(free_vars):
                            continue
                        try:
                            xf = np.linalg.solve(M, rhs)
                        except np.linalg.LinAlgError:
                            continue
                        if not np.all(np.isfinite(xf)):
                            continue
                        if np.max(np.abs(M @ xf - rhs)) > 1e-6 * max(1.0, float(np.max(np.abs(rhs))) if rhs.size else 1.0):
                            continue
                        x[free_vars] = xf
                    else:
                        if A_rows.size and np.max(np.abs(A_rows @ x - b_rows)) > 1e-6:
                            continue
                    if _feasible_point(x, lowers, uppers, eq_A, eq_b, ineq_A, ineq_b, ineq_sign, VERTEX_TOL):
                        obj = float(cvec @ x) + lp.objective_constant
                        if best is None or obj < best:
                            best = obj
    if best is None:
        return "infeasible", math.nan
    return "optimal", best


def _feasible_point(x, lowers, uppers, eq_A, eq_b, ineq_A, ineq_b, ineq_sign, tol) -> bool:
    scale = max(1.0, float(np.max(np.abs(x))))
    if np.any(x < lowers - tol * scale) or np.any(x > uppers + tol * scale):
        return False
    if eq_A.size:
        if np.max(np.abs(eq_A @ x - eq_b)) > tol * max(1.0, float(np.max(np.abs(eq_b)))):
            return False
    if ineq_A.size:
        resid = (ineq_A @ x - ineq_b) * ineq_sign
        if np.max(resid) > tol * max(1.0, float(np.max(np.abs(ineq_b)))):
            return False
    return True


# ---------------------------------------------------------------------------
# grid-search bandwidth oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSearchConfig:
    """Scan resolutions for the bandwidth oracle (all strictly positive).

    0.01 MW suits hand-built fixtures; 0.25 MW keeps randomized sweeps fast.
    """

    power_resolution_mw: float = 0.25
    curtailment_resolution_mw: float = 0.05
    max_grid_points: int = 6_000_000

    def validate(self) -> None:
        if self.power_resolution_mw <= 0 or self.curtailment_resolution_mw <= 0:
            raise ValueError("grid resolutions must be > 0")


def _grid(lo: float, hi: float, res: float) -> np.ndarray:
    if hi <= lo:
        return np.array([lo])
    n = int(math.ceil((hi - lo) / res)) + 1
    return np.linspace(lo, hi, n)


def _interval_for_lines(
    flows: np.ndarray, sens: np.ndarray, limit: np.ndarray, lo0, hi0
):
    """Tighten a recourse interval: |flows - sens*x| <= limit per line.

    ``flows`` has shape (..., n_lines); returns elementwise (lo, hi) arrays of
    shape (...). Lines the recourse cannot move must already be in range.
    """
    lo = np.broadcast_to(np.asarray(lo0, dtype=float), flows.shape[:-1]).copy()
    hi = np.broadcast_to(np.asarray(hi0, dtype=float), flows.shape[:-1]).copy()
    for k in range(flows.shape[-1]):
        f = flows[..., k]
        s = sens[k]
        if abs(s) < 1e-12:
            bad = np.abs(f) > limit[k] + 1e-9
            lo = np.where(bad, 1.0, lo)
            hi = np.where(bad, 0.0, hi)  # empty interval marks infeasible
            continue
        a = (f - limit[k]) / s
        b = (f + limit[k]) / s
        low, high = (a, b) if s > 0 else (b, a)
        lo = np.maximum(lo, low)
        hi = np.minimum(hi, high)
    return lo, hi


def brute_force_power_bandwidth(
    zone: ZoneModel,
    row: TimestepForecast,
    config: GridSearchConfig | None = None,
) -> tuple[float, float] | None:
    """Grid-search bandwidth, independent of the LP path, under the row's
    season's ratings.

    Preventive curtailment is prioritized exactly like the engine: first the
    smallest total curtailment over the grid, then the extreme battery
    setpoints among combinations achieving it. ``None`` means no feasible
    combination exists. Guarded to <= 5 buses and <= 3 contingencies.
    """
    config = config or GridSearchConfig()
    config.validate()
    if len(zone.buses) > 5 or len(zone.contingencies) > 3:
        raise OracleGuardError(
            f"instance too large for grid search: {len(zone.buses)} buses, "
            f"{len(zone.contingencies)} contingencies"
        )

    battery = zone.battery
    bus_ids = zone.bus_ids()
    curt_buses = [b for b in bus_ids if row.curtailable_max_mw[b] > 0]

    b_grid = _grid(battery.battery_min_mw, battery.battery_max_mw, config.power_resolution_mw)
    c_grids = [
        _grid(0.0, row.curtailable_max_mw[b], config.curtailment_resolution_mw)
        for b in curt_buses
    ]
    n_c_combos = 1
    for g in c_grids:
        n_c_combos *= len(g)
    total = len(b_grid) * n_c_combos
    if total > config.max_grid_points:
        raise OracleGuardError(f"grid of {total} points exceeds the oracle cap")

    # per-stage static data: base flows, effective sensitivities, limits
    def stage_data(contingency):
        topo = (
            TopologyState.base(zone)
            if contingency is None
            else TopologyState.for_contingency(zone, contingency)
        )
        refs = (
            row.ref_normal_mw
            if contingency is None
            else row.ref_contingency_mw[contingency.id]
        )
        base = dc_flows(zone, topo, row.injections_mw, refs)
        eff = compute_ptdf(zone, topo)
        lids = list(topo.active_lines)
        base_v = np.array([base[l] for l in lids])
        batt_s = np.array([eff[l][zone.battery_bus] for l in lids])
        curt_s = np.array([[eff[l][b] for b in curt_buses] for l in lids])
        return lids, base_v, batt_s, curt_s

    lids_n, base_n, batt_n, curt_n = stage_data(None)
    lim_n = np.array(
        [select_ratings(zone.line(l), row.season).for_state("permanent") for l in lids_n]
    )

    conts = []
    for c in zone.contingencies:
        lids_c, base_c, batt_c, curt_c = stage_data(c)
        lim_imm = np.array(
            [select_ratings(zone.line(l), row.season).for_state("immediate") for l in lids_c]
        )
        lim_long = np.array(
            [select_ratings(zone.line(l), row.season).for_state("long_term") for l in lids_c]
        )
        lim_perm = np.array(
            [select_ratings(zone.line(l), row.season).for_state("permanent") for l in lids_c]
        )
        conts.append((c, lids_c, base_c, batt_c, curt_c, lim_imm, lim_long, lim_perm))

    best: dict[float, np.ndarray] = {}  # total curtailment -> feasible-B mask
    nB = len(b_grid)

    for combo in itertools.product(*[range(len(g)) for g in c_grids]) if c_grids else [()]:
        c_vals = np.array([c_grids[i][j] for i, j in enumerate(combo)]) if combo else np.zeros(0)
        total_c = float(c_vals.sum())

        # normal state, permanent ratings, vector over the B grid
        f_n = (
            base_n[None, :]
            - np.outer(b_grid, batt_n)
            - (curt_n @ c_vals)[None, :]
        )
        mask = np.all(np.abs(f_n) <= lim_n[None, :] + 1e-9, axis=1)
        if not mask.any():
            continue

        for c, lids_c, base_c, batt_c, curt_c, lim_imm, lim_long, lim_perm in conts:
            f_c = (
                base_c[None, :]
                - np.outer(b_grid, batt_c)
                - (curt_c @ c_vals)[None, :]
            )
            mask &= np.all(np.abs(f_c) <= lim_imm[None, :] + 1e-9, axis=1)
            if not mask.any():
                break

            # battery recourse interval per B: bounds of the total setpoint,
            # tightened by the long-term ratings (fast stage)
            lo0 = battery.battery_min_mw - b_grid
            hi0 = battery.battery_max_mw - b_grid
            lo_fast, hi_fast = _interval_for_lines(f_c, batt_c, lim_long, lo0, hi0)
            mask &= hi_fast >= lo_fast - 1e-12

            if not mask.any():
                break

            # full stage: scan curative-curtailment combinations; the battery
            # recourse must simultaneously satisfy the fast-stage interval
            cc_grids = [
                _grid(0.0, row.curtailable_max_mw[b] - c_vals[i], config.curtailment_resolution_mw)
                for i, b in enumerate(curt_buses)
            ]
            any_cc = np.zeros(nB, dtype=bool)
            for cc_combo in itertools.product(*[range(len(g)) for g in cc_grids]) if cc_grids else [()]:
                cc_vals = (
                    np.array([cc_grids[i][j] for i, j in enumerate(cc_combo)])
                    if cc_combo
                    else np.zeros(0)
                )
                f_cc = f_c - (curt_c @ cc_vals)[None, :]
                lo_full, hi_full = _interval_for_lines(
                    f_cc, batt_c, lim_perm, lo_fast, hi_fast
                )
                any_cc |= hi_full >= lo_full - 1e-12
                if any_cc.all():
                    break
            mask &= any_cc
            if not mask.any():
                break

        if mask.any():
            key = round(total_c, 9)
            best[key] = best.get(key, np.zeros(nB, dtype=bool)) | mask

    if not best:
        return None
    min_c = min(best)
    feasible = best[min_c]
    b_vals = b_grid[feasible]
    return float(b_vals.min()), float(b_vals.max())


# ---------------------------------------------------------------------------
# forward SoC propagation oracle
# ---------------------------------------------------------------------------


def forward_soc_feasible_set(
    power_results: list[PowerBandwidthResult],
    zone: ZoneModel,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-boundary SoC intervals by forward accumulation of obligations.

    Walks the series front-to-back accumulating mandatory charge energy (and
    curative-charge reserves) into prefix sums; the bound at a boundary is the
    capacity minus the largest obligation accumulated over any suffix starting
    there — evaluated with cumulative arrays rather than the engine's
    step-by-step clamped recursion. Returns (lower, upper) tuples of length
    n+1 that certify the backward recursion.
    """
    n = len(power_results)
    dt = zone.timestep_hours
    dt_cur = zone.curative_duration_hours
    cap = zone.battery_capacity_mwh
    floor = zone.battery_soc_min_mwh

    charge_need = np.array(
        [dt * r.lower_mw + dt_cur * max(0.0, r.curative_charge_worst_mw) for r in power_results]
    )
    discharge_room = np.array(
        [dt * r.upper_mw + dt_cur * min(0.0, r.curative_discharge_worst_mw) for r in power_results]
    )

    p = np.concatenate([[0.0], np.cumsum(charge_need)])  # prefix sums, length n+1
    q = np.concatenate([[0.0], np.cumsum(discharge_room)])
    suffix_max_p = np.maximum.accumulate(p[::-1])[::-1]
    suffix_min_q = np.minimum.accumulate(q[::-1])[::-1]

    upper = cap - (suffix_max_p - p)
    lower = floor - (suffix_min_q - q)
    return tuple(float(x) for x in lower), tuple(float(x) for x in upper)
