"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Stated tolerances are pinned here, not configurable.
"""

from __future__ import annotations

import time

import numpy as np

from bandwidth_engine.energy_bandwidth import (
    TrajectoryWitness,
    compute_energy_bandwidths,
    verify_trajectory_existence,
)
from bandwidth_engine.fixtures import random_instance
from bandwidth_engine.lp_core import SolveStatus, check_solution, solve
from bandwidth_engine.oracle import (
    GridSearchConfig,
    brute_force_power_bandwidth,
    enumerate_lp_optimum,
    forward_soc_feasible_set,
)
from bandwidth_engine.power_bandwidth import (
    CongestionClass,
    check_safety,
    compute_power_bandwidths,
    power_results_to_csv,
    solve_timestep,
)
from bandwidth_engine.statistics import summarize

B_TOL = 0.01  # MW, worked-example tolerance
GRID_STEP = 0.25  # MW, oracle sweep resolution
SOC_EQ_TOL = 1e-6  # MWh, recursion-vs-oracle equality
LP_OBJ_TOL = 1e-6


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_worked_example_regression(zone, summer_day, winter_day):
    """Hand-worked reference values on the bundled 4-bus fixture, in under 5 s."""
    t0 = time.perf_counter()

    r7 = solve_timestep(zone, summer_day[7])
    ok_normal = abs(r7.lower_mw - 5.0 / 3.0) <= B_TOL

    r3 = solve_timestep(zone, winter_day[3])
    ok_outage = abs(r3.lower_mw - 3.0) <= B_TOL

    winter_results = compute_power_bandwidths(zone, winter_day)
    energy = compute_energy_bandwidths(winter_results, zone)
    lo3, hi3 = energy.interval(3)
    ok_soc = abs(lo3 - 0.0) <= B_TOL and abs(hi3 - 21.0) <= B_TOL

    r0 = winter_results[0]
    ok_combined = abs(r0.lower_mw - 9.0) <= B_TOL

    elapsed = time.perf_counter() - t0
    ok = ok_normal and ok_outage and ok_soc and ok_combined and elapsed < 5.0
    _report(
        1,
        ok,
        f"lower bounds {r7.lower_mw:.4f}/{r3.lower_mw:.4f}/{r0.lower_mw:.4f} MW "
        f"(want 1.67/3/9 ±{B_TOL}), start-of-step SoC [{lo3:.4f}, {hi3:.4f}] "
        f"(want [0, 21]), runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_oracle_equivalence():
    """>= 200 seeded random instances agree with the grid search within one step."""
    t0 = time.perf_counter()
    config = GridSearchConfig(GRID_STEP, 0.05)
    tol = GRID_STEP + 1e-9
    n = 200
    disagreements = []
    for seed in range(n):
        zone, row = random_instance(seed)
        engine = solve_timestep(zone, row)
        oracle = brute_force_power_bandwidth(zone, row, config=config)
        if engine.congestion_class == CongestionClass.INFEASIBLE:
            if oracle is not None:
                disagreements.append((seed, "engine infeasible, oracle found a band"))
        elif oracle is None:
            disagreements.append((seed, "oracle infeasible, engine found a band"))
        elif (
            abs(engine.lower_mw - oracle[0]) > tol
            or abs(engine.upper_mw - oracle[1]) > tol
        ):
            disagreements.append(
                (seed, f"engine [{engine.lower_mw:.3f},{engine.upper_mw:.3f}] "
                       f"oracle [{oracle[0]:.3f},{oracle[1]:.3f}]")
            )
    elapsed = time.perf_counter() - t0
    ok = not disagreements and elapsed < 600.0
    _report(
        2,
        ok,
        f"{n} instances, {len(disagreements)} disagreement(s) "
        f"{disagreements[:3]}, runtime {elapsed:.1f}s (< 600s)",
    )


def test_criterion_3_safety_of_bandwidths(zone, summer_day, winter_day):
    """21 setpoints across every reported band admit a curative completion."""
    failures = []
    probed = 0
    for series in (summer_day, winter_day):
        for row in series:
            result = solve_timestep(zone, row)
            bad = check_safety(zone, row, result, n_points=21)
            failures.extend((f"fixture t={row.index}", b) for b in bad)
            probed += 1

    feasible_random = 0
    seed = 0
    while feasible_random < 50 and seed < 400:
        z, row = random_instance(seed)
        seed += 1
        result = solve_timestep(z, row)
        if result.congestion_class == CongestionClass.INFEASIBLE:
            continue
        bad = check_safety(z, row, result, n_points=21)
        failures.extend((f"random seed={seed - 1}", b) for b in bad)
        feasible_random += 1
        probed += 1

    ok = not failures and feasible_random == 50
    _report(
        3,
        ok,
        f"{probed} instances x 21 setpoints, {len(failures)} failure(s) "
        f"{failures[:3]}, {feasible_random} random feasible instances",
    )


def test_criterion_4_energy_recursion_soundness(zone):
    """Backward recursion equals the forward oracle; greedy witness holds."""
    from tests.test_energy_bandwidth import _random_series

    rng = np.random.default_rng(20230101)
    mismatches = 0
    witness_failures = 0
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 48))
        results = _random_series(rng, n)
        energy = compute_energy_bandwidths(results, zone)
        fwd_lo, fwd_hi = forward_soc_feasible_set(results, zone)
        for t in range(n + 1):
            if (
                abs(fwd_lo[t] - energy.soc_lower_mwh[t]) > SOC_EQ_TOL
                or abs(fwd_hi[t] - energy.soc_upper_mwh[t]) > SOC_EQ_TOL
            ):
                mismatches += 1
        if not energy.feasible:
            continue
        lo, hi = energy.interval(0)
        for frac in (0.0, 0.31, 0.5, 0.77, 1.0):
            start = lo + frac * (hi - lo)
            witness = verify_trajectory_existence(results, energy, zone, start)
            checked += 1
            if not isinstance(witness, TrajectoryWitness):
                witness_failures += 1
                continue
            for t, p in enumerate(witness.power_mw):
                if not (results[t].lower_mw - 1e-9 <= p <= results[t].upper_mw + 1e-9):
                    witness_failures += 1
            for t, s in enumerate(witness.soc_mwh):
                l, u = energy.interval(t)
                if not (l - 1e-9 <= s <= u + 1e-9):
                    witness_failures += 1
    ok = mismatches == 0 and witness_failures == 0
    _report(
        4,
        ok,
        f"100 random series: {mismatches} interval mismatch(es) beyond {SOC_EQ_TOL} MWh, "
        f"{witness_failures} witness violation(s) across {checked} trajectories",
    )


def test_criterion_5_synthetic_year_statistics(zone):
    """Full synthetic year in < 5 min in one serial call; seasonal shape holds."""
    from bandwidth_engine.fixtures import synthetic_year_rows

    year = synthetic_year_rows(zone)
    assert len(year) == 8760
    t0 = time.perf_counter()
    results = compute_power_bandwidths(zone, year)
    elapsed = time.perf_counter() - t0

    report = summarize(results)
    summer = report.season("summer")
    winter = report.season("winter")
    ok_invariants = all(
        s.fraction_strong <= s.fraction_congestion
        and s.fraction_fully_available == 1.0 - s.fraction_congestion
        for s in (summer, winter)
    )
    ok_seasons = winter.fraction_congestion > summer.fraction_congestion
    ok = ok_invariants and ok_seasons and elapsed < 300.0
    _report(
        5,
        ok,
        f"summer {100*summer.fraction_congestion:.1f}% vs winter "
        f"{100*winter.fraction_congestion:.1f}% congestion, strong "
        f"{100*summer.fraction_strong:.1f}%/{100*winter.fraction_strong:.1f}%, "
        f"runtime {elapsed:.0f}s serial (< 300s)",
    )


def test_criterion_6_determinism(zone, winter_day):
    """Two consecutive runs produce byte-identical output CSVs."""
    outputs = []
    for _ in range(2):
        results = compute_power_bandwidths(zone, winter_day)
        energy = compute_energy_bandwidths(results, zone)
        from bandwidth_engine.energy_bandwidth import energy_results_to_csv

        outputs.append(
            (
                power_results_to_csv(results).encode(),
                energy_results_to_csv(energy, [r.timestamp for r in results]).encode(),
            )
        )
    ok = outputs[0] == outputs[1]
    _report(6, ok, "byte-identical power and energy CSVs across two runs")


def test_criterion_7_lp_solver_oracle_agreement():
    """Simplex matches vertex enumeration; infeasible/unbounded exact."""
    from tests.test_lp_core import _random_bounded_lp, _random_standard_form_lp
    from bandwidth_engine.lp_core import INF, LinearProgram, Relation

    rng = np.random.default_rng(777)
    mismatches = []
    n_opt = 0
    for i in range(120):
        if i % 3 == 2:
            lp = _random_standard_form_lp(rng, int(rng.integers(5, 51)), int(rng.integers(1, 4)))
        else:
            lp = _random_bounded_lp(rng, int(rng.integers(1, 7)), int(rng.integers(0, 6)))
        oracle_status, oracle_obj = enumerate_lp_optimum(lp)
        sol = solve(lp)
        if sol.status.value != oracle_status:
            mismatches.append((i, sol.status.value, oracle_status))
            continue
        if oracle_status == "optimal":
            n_opt += 1
            if abs(sol.objective - oracle_obj) > LP_OBJ_TOL * max(1.0, abs(oracle_obj)):
                mismatches.append((i, sol.objective, oracle_obj))
            if check_solution(lp, sol.values):
                mismatches.append((i, "returned point infeasible", ""))

    # classification exactness on constructed infeasible/unbounded shapes
    for k in range(20):
        lp = LinearProgram()
        lp.add_variable("x", 0.0, INF)
        lp.add_variable("y", 0.0, INF)
        if k % 2 == 0:
            lp.add_constraint({"x": 1.0, "y": 1.0}, Relation.GE, 2.0 + k)
            lp.add_constraint({"x": 1.0, "y": 1.0}, Relation.LE, 1.0)
            lp.set_objective({"x": 1.0})
            if solve(lp).status != SolveStatus.INFEASIBLE:
                mismatches.append((f"inf{k}", "not classified infeasible", ""))
        else:
            lp.add_constraint({"x": 1.0, "y": -1.0}, Relation.EQ, float(k))
            lp.set_objective({"x": -1.0})
            if solve(lp).status != SolveStatus.UNBOUNDED:
                mismatches.append((f"unb{k}", "not classified unbounded", ""))

    ok = not mismatches and n_opt >= 40
    _report(
        7,
        ok,
        f"{n_opt} optimal LPs agree to {LP_OBJ_TOL}; "
        f"{len(mismatches)} mismatch(es) {mismatches[:3]}",
    )
