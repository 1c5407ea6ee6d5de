"""Bandwidth LPs: worked examples, properties, oracle agreement, output."""

from __future__ import annotations

import copy
import csv
import dataclasses
import gc
import hashlib
import io
import math
import pickle
import random
import struct
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from bandwidth_engine import lp_core
from bandwidth_engine import power_bandwidth as pb

from bandwidth_engine.dc_network import dc_flows
from bandwidth_engine.fixtures import random_instance, reference_full_network, synthetic_year_rows
from bandwidth_engine.grid_model import (
    ForecastSeries,
    RatingSet,
    Season,
    TimestepForecast,
    TopologyState,
    load_zone,
    select_ratings,
)
from bandwidth_engine.lp_core import LinearProgram, LpSolution, Relation, SolveStatus, check_solution, solve
from bandwidth_engine.oracle import GridSearchConfig, brute_force_power_bandwidth
from bandwidth_engine.power_bandwidth import (
    CongestionClass,
    Direction,
    ObjectiveWeights,
    UnstableLpError,
    build_lp,
    check_safety,
    compute_power_bandwidths,
    power_results_to_csv,
    solve_timestep,
)

OUTAGE = "gamma-delta-outage"


# ---------------------------------------------------------------------------
# worked examples on the bundled zone
# ---------------------------------------------------------------------------


def test_build_lp_normal_overload_lower_bound(zone, summer_day):
    """1 MW over the permanent rating at 0.6 sensitivity needs a 1.67 MW charge."""
    problem = build_lp(zone, summer_day[7], Season.SUMMER, Direction.LOWER)
    sol = solve(problem.lp, compute_duals=False)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.value(problem.battery_var) == pytest.approx(5.0 / 3.0, abs=1e-6)


def test_bandwidth_lp_solution_passes_feasibility_audit(zone, summer_day, winter_day):
    """check_solution certifies the optimum of a bandwidth LP (empty report)."""
    from bandwidth_engine.lp_core import check_solution

    for row in (summer_day[7], winter_day[0]):
        for direction in (Direction.LOWER, Direction.UPPER):
            problem = build_lp(zone, row, row.season, direction)
            sol = solve(problem.lp, compute_duals=False)
            assert sol.status == SolveStatus.OPTIMAL
            assert check_solution(problem.lp, sol.values) == []


def test_build_lp_unconstrained_lower_hits_battery_minimum(zone, summer_day):
    problem = build_lp(zone, summer_day[0], Season.SUMMER, Direction.LOWER)
    sol = solve(problem.lp, compute_duals=False)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.value(problem.battery_var) == pytest.approx(-12.0, abs=1e-7)


def test_solve_timestep_normal_congestion(zone, summer_day):
    r = solve_timestep(zone, summer_day[7])
    assert r.lower_mw == pytest.approx(5.0 / 3.0, abs=1e-6)
    assert r.upper_mw == pytest.approx(12.0, abs=1e-7)
    assert r.congestion_class == CongestionClass.REDUCED
    assert r.curative_charge_worst_mw == pytest.approx(0.0, abs=1e-7)
    assert r.binding_constraint == "gamma-delta:normal:permanent"


def test_solve_timestep_pure_contingency_overload(zone, winter_day):
    """3 MW over an immediate rating at unit sensitivity: band [3, 12]."""
    r = solve_timestep(zone, winter_day[3])
    assert r.lower_mw == pytest.approx(3.0, abs=1e-6)
    assert r.upper_mw == pytest.approx(12.0, abs=1e-7)
    # the long-term rating already holds, so no curative battery energy is due
    assert r.curative_charge_worst_mw == pytest.approx(0.0, abs=1e-9)
    assert r.preventive_curtailment_lower_mw == pytest.approx(0.0, abs=1e-9)


def test_solve_timestep_combined_normal_and_contingency(zone, winter_day):
    """Normal state needs 6.67 MW, the contingency needs 9 MW: the max binds."""
    for h in (0, 1):
        r = solve_timestep(zone, winter_day[h])
        assert r.lower_mw == pytest.approx(9.0, abs=1e-6)
        assert r.upper_mw == pytest.approx(12.0, abs=1e-7)
        assert r.congestion_class == CongestionClass.REDUCED
        # fast curative stage: two more MW of charge clear the long-term rating
        assert r.curative_charge_worst_mw == pytest.approx(2.0, abs=1e-6)


def _alpha_beta_variant_row(zone):
    """Contingency flow of -104 MW on alpha-beta itself (unit sensitivity)."""
    full = reference_full_network()
    inj = {"alpha": 0.0, "beta": 9.0, "gamma": 95.0, "delta": 0.0}
    injections = {**inj, "west": 20.0}
    base = full.flows(injections)
    out = full.without("gamma-delta").flows(injections)
    return TimestepForecast(
        index=0,
        timestamp="t",
        season=Season.WINTER,
        injections_mw=inj,
        curtailable_max_mw={"alpha": 0.0, "beta": 0.0, "gamma": 30.0, "delta": 0.0},
        ref_normal_mw={"alpha-west": base["alpha-west"], "delta-east": base["delta-east"]},
        ref_contingency_mw={OUTAGE: {"alpha-west": out["alpha-west"], "delta-east": out["delta-east"]}},
    )


def test_alpha_beta_immediate_overload_variant(zone):
    """Contingency overload on alpha-beta itself: -104 MW under the outage.

    The immediate rating pins the lower bound at 3 MW; clearing the winter
    long-term rating (99 MW) afterwards takes 2 MW of curative battery charge.
    """
    row = _alpha_beta_variant_row(zone)
    r = solve_timestep(zone, row)
    assert r.lower_mw == pytest.approx(3.0, abs=1e-6)
    assert r.upper_mw == pytest.approx(12.0, abs=1e-7)
    assert r.curative_charge_worst_mw == pytest.approx(2.0, abs=1e-6)


def test_horizon_zone_memberships(zone, summer_day):
    results = compute_power_bandwidths(zone, summer_day)
    for h in (6, 7, 8, 9):  # mandatory-charge window
        assert results[h].lower_mw > 0.0
    for h in (10, 11, 12):  # tightened from both sides
        assert results[h].upper_mw < 12.0 - 1e-9
        assert -12.0 + 1e-9 < results[h].lower_mw < 0.0
    for h in (0, 1, 2, 3, 4, 5, 13, 23):
        assert results[h].congestion_class == CongestionClass.FULLY_AVAILABLE


def test_all_zero_forecast_fully_available(zone):
    rows = []
    for t in range(4):
        rows.append(
            TimestepForecast(
                index=t,
                timestamp=f"t{t}",
                season=Season.SUMMER,
                injections_mw={b: 0.0 for b in zone.bus_ids()},
                curtailable_max_mw={b: 0.0 for b in zone.bus_ids()},
                ref_normal_mw={"alpha-west": 0.0, "delta-east": 0.0},
                ref_contingency_mw={OUTAGE: {"alpha-west": 0.0, "delta-east": 0.0}},
            )
        )
    results = compute_power_bandwidths(zone, ForecastSeries(tuple(rows)))
    for r in results:
        assert r.congestion_class == CongestionClass.FULLY_AVAILABLE
        assert r.lower_mw == pytest.approx(-12.0, abs=1e-7)
        assert r.upper_mw == pytest.approx(12.0, abs=1e-7)


def test_unclearable_overload_reports_infeasible(zone):
    full = reference_full_network()
    injections = {"alpha": 0.0, "beta": 0.0, "gamma": 0.0, "delta": 0.0, "west": 1400.0}
    base = full.flows(injections)
    out = full.without("gamma-delta").flows(injections)
    row = TimestepForecast(
        index=0,
        timestamp="t",
        season=Season.SUMMER,
        injections_mw={b: 0.0 for b in zone.bus_ids()},
        curtailable_max_mw={b: 0.0 for b in zone.bus_ids()},
        ref_normal_mw={"alpha-west": base["alpha-west"], "delta-east": base["delta-east"]},
        ref_contingency_mw={OUTAGE: {"alpha-west": out["alpha-west"], "delta-east": out["delta-east"]}},
    )
    r = solve_timestep(zone, row)
    assert r.congestion_class == CongestionClass.INFEASIBLE
    assert r.failure is not None and "overload" in r.failure
    assert math.isnan(r.lower_mw)


def test_strong_congestion_full_rate_mandate(zone):
    """A normal-state overload deep enough to consume the whole battery."""
    full = reference_full_network()
    inj = {"alpha": 5.0, "beta": 20.0, "gamma": 40.0, "delta": 2.0}
    injections = {**inj, "west": 330.0}
    base = full.flows(injections)
    out = full.without("gamma-delta").flows(injections)
    row = TimestepForecast(
        index=0,
        timestamp="t",
        season=Season.SUMMER,
        injections_mw=inj,
        curtailable_max_mw={"alpha": 0.0, "beta": 20.0, "gamma": 40.0, "delta": 0.0},
        ref_normal_mw={"alpha-west": base["alpha-west"], "delta-east": base["delta-east"]},
        ref_contingency_mw={OUTAGE: {"alpha-west": out["alpha-west"], "delta-east": out["delta-east"]}},
    )
    r = solve_timestep(zone, row)
    assert r.congestion_class == CongestionClass.STRONG
    assert r.lower_mw == pytest.approx(12.0, abs=1e-6)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def test_safety_of_reported_bandwidth(zone, summer_day, winter_day):
    """Definition check: every setpoint in the band admits a curative completion."""
    for series in (summer_day, winter_day):
        for row in series:
            r = solve_timestep(zone, row)
            assert r.congestion_class != CongestionClass.INFEASIBLE
            failures = check_safety(zone, row, r)
            assert failures == [], f"t={row.index}: {failures}"


def test_safety_with_pinned_curtailment(zone, winter_day):
    """Where both solves report zero curtailment, the band stays safe with
    curtailment pinned there (the stricter reading of the property): each of
    21 setpoints, with every preventive curtailment fixed at 0 MW, has a
    completion that meets every row and bound."""
    for h in (0, 3, 7):
        row = winter_day[h]
        r = solve_timestep(zone, row)
        assert r.preventive_curtailment_mw == pytest.approx(0.0, abs=1e-9)
        problem = build_lp(zone, row, row.season, Direction.LOWER)
        lp = problem.lp
        for v in problem.curtailment_vars.values():
            lp.set_bounds(v, 0.0, 0.0)
        for i in range(21):
            b = r.lower_mw + (r.upper_mw - r.lower_mw) * (i / 20)
            lp.set_bounds(problem.battery_var, b, b)
            sol = solve(lp, compute_duals=False)
            assert sol.status == SolveStatus.OPTIMAL, (h, b)
            assert check_solution(lp, sol.values) == [], (h, b)


def test_safety_check_reports_setpoints_outside_the_band(zone, summer_day):
    """Widened by 0.5 MW, the rating-limited upper bounds of summer hours
    10-12 take in a setpoint with no feasible completion, and only it fails."""
    for h in (10, 11, 12):
        row = summer_day[h]
        r = solve_timestep(zone, row)
        wide = dataclasses.replace(r, lower_mw=r.lower_mw - 0.5, upper_mw=r.upper_mw + 0.5)
        [(setpoint, message)] = check_safety(zone, row, wide, n_points=11)
        assert setpoint == pytest.approx(wide.upper_mw, abs=1e-12)
        assert message == f"no feasible completion at setpoint {setpoint:.4f} MW"


def test_safety_check_reports_setpoints_outside_the_battery_range(zone, summer_day):
    """A fully available band widened to [-12.5, 12.5] MW passes the LP probe
    (the curative step can bring the battery back), but its ends lie outside
    the battery's [-12, 12] MW."""
    row = summer_day[0]
    r = solve_timestep(zone, row)
    assert r.congestion_class == CongestionClass.FULLY_AVAILABLE
    wide = dataclasses.replace(r, lower_mw=-12.5, upper_mw=12.5)
    failures = check_safety(zone, row, wide, n_points=11)
    assert failures == [
        (-12.5, "setpoint -12.5000 MW outside the battery range"),
        (12.5, "setpoint 12.5000 MW outside the battery range"),
    ]


def test_safety_check_probes_at_least_one_setpoint(zone, summer_day):
    """A check over no setpoint would call any band safe: fewer than one
    point is refused, even for a band that fails when probed at 3 points,
    and one point probes the band's midpoint."""
    row = summer_day[0]
    r = solve_timestep(zone, row)
    wide = dataclasses.replace(r, lower_mw=-12.5, upper_mw=12.5)
    assert len(check_safety(zone, row, wide, n_points=3)) == 2
    for n_points in (0, -3):
        with pytest.raises(ValueError, match=f"n_points must be at least 1, got {n_points}"):
            check_safety(zone, row, wide, n_points=n_points)
    assert check_safety(zone, row, wide, n_points=1) == []  # the midpoint, 0 MW
    high = dataclasses.replace(r, lower_mw=12.5, upper_mw=13.5)
    assert check_safety(zone, row, high, n_points=1) == [(13.0, "setpoint 13.0000 MW outside the battery range")]


def test_safety_check_of_an_infeasible_timestep():
    zone, row = random_instance(0)
    r = solve_timestep(zone, row)
    assert r.congestion_class == CongestionClass.INFEASIBLE
    [(setpoint, message)] = check_safety(zone, row, r)
    assert math.isnan(setpoint) and message == "timestep infeasible"


def test_safety_check_catches_a_completion_that_violates_the_lp(zone, summer_day, monkeypatch):
    """A solver answer that breaks a row or bound is reported, not trusted."""
    row = summer_day[7]
    r = solve_timestep(zone, row)
    zeros = {v.name: 0.0 for v in build_lp(zone, row, row.season, Direction.LOWER).lp.variables}
    monkeypatch.setattr(pb, "solve", lambda lp, compute_duals: LpSolution(SolveStatus.OPTIMAL, 0.0, zeros))
    failures = check_safety(zone, row, r, n_points=3)
    assert [m.split(" violated")[0] for _, m in failures] == ["completion violates bound batt"] * 3


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_objective_weights_must_be_finite_and_positive(zone, summer_day, bad):
    with pytest.raises(ValueError, match="finite and positive"):
        build_lp(zone, summer_day[7], Season.SUMMER, Direction.LOWER, ObjectiveWeights(bad))


def test_raising_ratings_weakly_widens_band():
    for seed in (1, 2, 5, 7, 9, 11):
        zone, row = random_instance(seed)
        before = solve_timestep(zone, row)
        scaled = _scale_ratings(zone, 1.25)
        after = solve_timestep(scaled, row)
        if before.congestion_class == CongestionClass.INFEASIBLE:
            continue
        assert after.congestion_class != CongestionClass.INFEASIBLE
        assert after.lower_mw <= before.lower_mw + 1e-6
        assert after.upper_mw >= before.upper_mw - 1e-6


def _scale_ratings(zone, factor: float):
    def scale(rs: RatingSet) -> RatingSet:
        return RatingSet(
            permanent_mw=rs.permanent_mw * factor,
            long_term_mw=rs.long_term_mw * factor,
            immediate_mw=rs.immediate_mw * factor,
            short_term_mw=rs.short_term_mw,
        )

    lines = tuple(
        dataclasses.replace(l, ratings_summer=scale(l.ratings_summer), ratings_winter=scale(l.ratings_winter))
        for l in zone.lines
    )
    return dataclasses.replace(zone, lines=lines)


def _curtailment_forcing_row(zone):
    """Normal-state overload beyond battery reach; 5 MW of curtailment closes it."""
    full = reference_full_network()
    inj = {"alpha": 5.0, "beta": 10.0, "gamma": 30.0, "delta": 2.0}
    # gamma-delta at 87.2 MW: clearing to 77 needs 17 MW of withdrawal at gamma
    injections = {**inj, "west": (87.2 - 0.28 * 5 - 0.44 * 10 - 0.6 * 30 + 0.2 * 2) / 0.16}
    base = full.flows(injections)
    out = full.without("gamma-delta").flows(injections)
    return TimestepForecast(
        index=0,
        timestamp="t",
        season=Season.SUMMER,
        injections_mw=inj,
        curtailable_max_mw={"alpha": 0.0, "beta": 0.0, "gamma": 30.0, "delta": 0.0},
        ref_normal_mw={"alpha-west": base["alpha-west"], "delta-east": base["delta-east"]},
        ref_contingency_mw={OUTAGE: {"alpha-west": out["alpha-west"], "delta-east": out["delta-east"]}},
    )


def _assert_curtailment_was_forced(zone, row):
    no_curtailment = dataclasses.replace(row, curtailable_max_mw={b: 0.0 for b in zone.bus_ids()})
    problem = build_lp(zone, no_curtailment, row.season, Direction.LOWER)
    sol = solve(problem.lp, compute_duals=False)
    assert sol.status != SolveStatus.OPTIMAL


def test_battery_has_priority_over_curtailment(zone):
    """Preventive curtailment appears only when the battery alone cannot cope."""
    row = _curtailment_forcing_row(zone)
    r = solve_timestep(zone, row)
    assert r.congestion_class == CongestionClass.STRONG  # full-rate mandate
    assert r.lower_mw == pytest.approx(12.0, abs=1e-6)
    assert r.preventive_curtailment_lower_mw == pytest.approx(5.0, abs=1e-5)
    _assert_curtailment_was_forced(zone, row)

    # and across random instances: nonzero curtailment implies battery-only
    # infeasibility; zero curtailment everywhere else
    for seed in range(40):
        z, rrow = random_instance(seed)
        res = solve_timestep(z, rrow)
        if res.congestion_class == CongestionClass.INFEASIBLE:
            continue
        if res.preventive_curtailment_lower_mw > 1e-6:
            _assert_curtailment_was_forced(z, rrow)


def test_lexicographic_agrees_with_weighted(zone, summer_day, winter_day):
    for series in (summer_day, winter_day):
        for h in (0, 3, 7, 11):
            row = series[h]
            weighted = solve_timestep(zone, row)
            lexi = solve_timestep(zone, row, lexicographic=True)
            assert lexi.lower_mw == pytest.approx(weighted.lower_mw, abs=1e-5)
            assert lexi.upper_mw == pytest.approx(weighted.upper_mw, abs=1e-5)


@pytest.mark.parametrize("seed, lower, upper", [(180, -6.793, 6.9), (476, 1.748, 3.489)])
def test_lexicographic_bounds_total_curtailment_across_buses(seed, lower, upper):
    """With curtailment at every bus, lexicographic mode bounds the total at
    its stage-1 optimum and leaves the split free, so its band is the
    weighted band."""
    zone, row = random_instance(seed)
    row = dataclasses.replace(row, curtailable_max_mw={b: 8.0 for b in zone.bus_ids()})
    weighted = solve_timestep(zone, row)
    lexi = solve_timestep(zone, row, lexicographic=True)
    assert lexi.lower_mw == pytest.approx(weighted.lower_mw, abs=1e-6)
    assert lexi.upper_mw == pytest.approx(weighted.upper_mw, abs=1e-6)
    assert lexi.lower_mw == pytest.approx(lower, abs=1e-3)
    assert lexi.upper_mw == pytest.approx(upper, abs=1e-3)
    assert check_safety(zone, row, lexi) == []


def test_solver_error_propagates_instead_of_infeasible_row(zone, winter_day):
    """A crash is not a grid finding: it must not become an infeasible row."""
    row = winter_day[0]
    curt = {b: v for b, v in row.curtailable_max_mw.items() if b != "gamma"}
    broken = dataclasses.replace(row, curtailable_max_mw=curt)
    with pytest.raises(KeyError):
        compute_power_bandwidths(zone, ForecastSeries((broken,)))


def test_results_are_reproducible(zone, winter_day):
    a = solve_timestep(zone, winter_day[0])
    b = solve_timestep(zone, winter_day[0])
    assert a == b


def test_weights_and_mode_are_keyword_only(zone, summer_day):
    """A positional third argument is refused, never taken as the weights."""
    with pytest.raises(TypeError):
        compute_power_bandwidths(zone, summer_day[:1], 2)


# ---------------------------------------------------------------------------
# oracle agreement (small sample; the acceptance suite runs 200)
# ---------------------------------------------------------------------------


def test_small_zone_matches_fine_grid_search():
    for seed in (13, 21):
        zone, row = random_instance(seed)
        r = solve_timestep(zone, row)
        band = brute_force_power_bandwidth(zone, row, config=GridSearchConfig(0.01, 0.01))
        if r.congestion_class == CongestionClass.INFEASIBLE:
            assert band is None
        else:
            assert band is not None
            assert r.lower_mw == pytest.approx(band[0], abs=0.011)
            assert r.upper_mw == pytest.approx(band[1], abs=0.011)


def test_fixture_timestep_matches_fine_grid_search(zone, summer_day):
    band = brute_force_power_bandwidth(zone, summer_day[7], config=GridSearchConfig(0.01, 0.05))
    assert band is not None
    assert band[0] == pytest.approx(5.0 / 3.0, abs=0.011)
    assert band[1] == pytest.approx(12.0, abs=1e-9)


# The zones perfbench random_zones draws at --seed 25, 2008, 310, 437, 63 and
# 2807, with the engine's bands. The grid oracle disagrees with each: it can
# curtail only at its own grid points, so at its least curtailment, just above
# the exact one, the band edge has already moved inward.
GRID_ARTEFACT_ZONES = {
    26001760: (-10.37, 5.665),
    2009002046: (-7.749682, 9.56),
    311002207: (1.555, 1.595),
    438001452: (0.754392, 0.754392),
    64001072: (-10.22, 0.263),
    2808000634: (1.949057, 1.949057),
}


@pytest.mark.parametrize("seed", GRID_ARTEFACT_ZONES)
def test_grid_artefact_zones_hold_the_engines_band(seed):
    """HiGHS on each direction's LP (skipped without scipy) gives the
    engine's band edge to 1e-6, and the band passes the safety check."""
    from tests.test_lp_core import _highs

    zone, row = random_instance(seed)
    r = solve_timestep(zone, row)
    assert (r.lower_mw, r.upper_mw) == pytest.approx(GRID_ARTEFACT_ZONES[seed], abs=1e-6)
    for direction, edge in ((Direction.LOWER, r.lower_mw), (Direction.UPPER, r.upper_mw)):
        problem = build_lp(zone, row, row.season, direction)
        res, _ = _highs(problem.lp)
        assert res.status == 0, res.message
        batt = [v.name for v in problem.lp.variables].index(problem.battery_var)
        assert res.x[batt] == pytest.approx(edge, abs=1e-6)
    assert check_safety(zone, row, r) == []


# ---------------------------------------------------------------------------
# output format
# ---------------------------------------------------------------------------


def test_csv_format_is_stable(zone, winter_day):
    results = compute_power_bandwidths(zone, winter_day[:4])
    text = power_results_to_csv(results)
    lines = text.splitlines()
    assert lines[0].startswith("timestamp,B_lower_mw,B_upper_mw,")
    assert lines[1] == (
        "2023-01-18T00:00,9.000000,12.000000,2.000000,0.000000,0.000000,"
        "reduced,alpha-beta:outage[gamma-delta-outage]:immediate"
    )
    assert lines[4].split(",")[1] == "3.000000"


def test_horizon_within_the_forecast_is_a_prefix(zone, summer_day):
    """A horizon cut from the rows, as the CLI's ``--horizon`` cuts it, gives
    the first results of the whole day; no rows give no results."""
    day = compute_power_bandwidths(zone, summer_day)
    assert compute_power_bandwidths(zone, summer_day[:0]) == []
    for n in (1, 7, 24):
        assert repr(compute_power_bandwidths(zone, summer_day[:n])) == repr(day[:n])


GOLDENS = Path(__file__).resolve().parent / "goldens"


def _random_zones_csv() -> str:
    """``random_instance`` 0-199 under both objectives: each zone's power-CSV
    row, keyed by seed and objective, plus the infeasibility diagnostic."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["seed", "objective", *pb.POWER_CSV_HEADER, "failure"])
    for seed in range(200):
        zone, row = random_instance(seed)
        for objective in ("weighted", "lexicographic"):
            result = solve_timestep(zone, row, lexicographic=objective == "lexicographic")
            cells = next(csv.reader(power_results_to_csv([result]).splitlines()[1:]))
            writer.writerow([seed, objective, *cells, result.failure or ""])
    return buf.getvalue()


def _standard_form_digest(zone, summer_day) -> str:
    """The sha256 of the standard forms' matrix, right-hand side, phase-one
    root and column costs of the bandwidth LP and its capped copy, for the
    summer day's hour 7 and ``random_instance`` 0-399. The capped copy and the
    curtailment-bounded objectives are a lexicographic problem's of the same
    row."""
    h = hashlib.sha256()
    for z, row in [(zone, summer_day[7])] + [random_instance(seed) for seed in range(400)]:
        problem = build_lp(z, row, row.season, Direction.LOWER)
        bounded = build_lp(z, row, row.season, Direction.LOWER, lexicographic=True)
        assert problem.capped is None
        objectives = [problem.total_curtailment] + [
            p.objectives[d] for d in Direction for p in (problem, bounded)
        ]
        for lp in (problem.lp, bounded.capped):
            sf = lp._standard_form()
            pattern = sf.starts[0][0]
            root = pattern.root
            for a in (sf._A, sf.b[0], pattern.row_sign, root.T, root.basis, root.zrow):
                h.update(repr(None if a is None else (a.dtype.str, a.shape)).encode())
                h.update(b"" if a is None else a.tobytes())
            for objective in objectives:
                c, shift = sf.costs(objective, 0.0)
                h.update(c.tobytes() + shift.hex().encode())
    return h.hexdigest()


def test_standard_forms_keep_their_bits(zone, summer_day):
    """The digest was taken before the forms were built from Python floats."""
    assert _standard_form_digest(zone, summer_day) == "2c36c0e63b56fb63d197d4b82bd6c380b8278bc94965e6afa83857851f60b183"


def _elastic_digest() -> tuple[int, str]:
    """The unclearable zones among ``random_instance`` 0-399 (both objectives)
    and the sha256 of their relaxed LPs: each one's standard form (matrix,
    right-hand side, row signs, phase-one root, column costs) and its solve's
    ``(status, iterations, phase_one_iterations, objective.hex())`` and value
    bits."""
    h, relaxed = hashlib.sha256(), []
    real_solve = pb.solve

    def recording(lp, **kw):
        sol = real_solve(lp, **kw)
        if lp.name.endswith(":relaxed"):
            relaxed.append(lp.name)
            sf = lp._standard_form()
            pattern = sf.starts[0][0]
            root = pattern.root
            for a in (sf._A, sf.b[0], pattern.row_sign, root.T, root.basis, root.zrow):
                h.update(repr(None if a is None else (a.dtype.str, a.shape)).encode())
                h.update(b"" if a is None else a.tobytes())
            c, shift = sf.costs(lp.objective, lp.objective_constant)
            h.update(c.tobytes() + shift.hex().encode())
            h.update(repr((sol.status.value, sol.iterations, sol.phase_one_iterations, sol.objective.hex())).encode())
            h.update(struct.pack(f"<{len(sol.values)}d", *sol.values.values()))
        return sol

    pb.solve = recording
    try:
        for seed in range(400):
            zone, row = random_instance(seed)
            for lexicographic in (False, True):
                solve_timestep(zone, row, lexicographic=lexicographic)
    finally:
        pb.solve = real_solve
    return len(relaxed), h.hexdigest()


def test_elastic_lps_keep_their_bits():
    """The digest was taken while the relaxed LP was still copied row by row
    into a fresh standard form."""
    assert _elastic_digest() == (172, "e3b867f2ccd0a13d931f417a92c61c812c2229f58ac1e8c76b4ff83bc7d4334b")


def test_fresh_zones_match_their_golden():
    """Pins the cold path bit for bit, down to the CSV: each fresh zone's
    network model, standard form and relaxed-LP diagnostic."""
    assert _random_zones_csv() == (GOLDENS / "random_zones.csv").read_text()


# ---------------------------------------------------------------------------
# independent check of the network model: re-solve each stage's DC flows
# from the LP optimum's controls, without PTDFs or rating rows
# ---------------------------------------------------------------------------

_STAGE_LIMIT = {
    "normal": "permanent",
    "outage": "immediate",
    "fast_curative": "long_term",
    "full_curative": "permanent",
}


def _withdrawals(zone, problem, sol, stage, cid):
    """Per bus, the MW withdrawn by the controls acting in ``stage``."""
    out = {b: sol.value(problem.curtailment_vars[b]) for b in zone.bus_ids()}
    out[zone.battery_bus] += sol.value(problem.battery_var)
    if stage in ("fast_curative", "full_curative"):
        plus, minus = problem.curative_battery_vars[cid]
        out[zone.battery_bus] += sol.value(plus) - sol.value(minus)
    if stage == "full_curative":
        for b in zone.bus_ids():
            out[b] += sol.value(problem.curative_curtailment_vars[(b, cid)])
    return out


def _optimum_flows_within_ratings(zone, row) -> bool:
    """Assert every stage's re-solved flows respect its ratings, in both
    directions; False if the timestep is infeasible."""
    for direction in Direction:
        problem = build_lp(zone, row, row.season, direction)
        sol = solve(problem.lp, compute_duals=False)
        if sol.status != SolveStatus.OPTIMAL:
            return False
        for c in (None, *zone.contingencies):
            if c is None:
                topo, refs, stages = TopologyState.base(zone), row.ref_normal_mw, ["normal"]
            else:
                topo = TopologyState.for_contingency(zone, c)
                refs = row.ref_contingency_mw[c.id]
                stages = ["outage", "fast_curative", "full_curative"]
            for stage in stages:
                w = _withdrawals(zone, problem, sol, stage, c.id if c else "")
                injections = {b: row.injections_mw[b] - w[b] for b in zone.bus_ids()}
                boundary = {}
                for oid in topo.active_outbound:
                    o = zone.outbound(oid)
                    sens = o.ptdf_normal if c is None else o.ptdf_contingency[c.id]
                    boundary[oid] = refs[oid] - sum(sens[b] * w[b] for b in zone.bus_ids())
                for lid, flow in dc_flows(zone, topo, injections, boundary).items():
                    limit = select_ratings(zone.line(lid), row.season).for_state(
                        _STAGE_LIMIT[stage]
                    )
                    assert abs(flow) <= limit + 1e-6, (
                        f"t={row.index} {direction.value} {stage} {lid}: {flow:.6f} > {limit}"
                    )
    return True


def test_lp_optimum_respects_ratings_in_independent_dc_flows(zone, summer_day, winter_day):
    for series in (summer_day, winter_day):
        for row in series:
            assert _optimum_flows_within_ratings(zone, row)
    feasible = 0
    seed = 0
    while feasible < 50:
        z, row = random_instance(seed)
        feasible += _optimum_flows_within_ratings(z, row)
        seed += 1


# ---------------------------------------------------------------------------
# one LP per timestep: equal to one LP per direction, with fewer solves
# ---------------------------------------------------------------------------

_FLOAT_FIELDS = (
    "lower_mw",
    "upper_mw",
    "curative_charge_worst_mw",
    "curative_discharge_worst_mw",
    "preventive_curtailment_lower_mw",
    "preventive_curtailment_upper_mw",
)


def _rating_label(row_name: str) -> str | None:
    """The label a rating row is named by (``rating_hi:<label>`` or
    ``rating_lo:<label>``); None for any other row."""
    side, _, label = row_name.partition(":")
    return label if side in ("rating_hi", "rating_lo") else None


def _per_direction_reference(zone, row, lexicographic: bool) -> dict | None:
    """The band from one freshly built LP per direction (None if infeasible)."""
    w = ObjectiveWeights()
    out: dict = {"binding": []}
    for direction in Direction:
        problem = build_lp(zone, row, row.season, direction)
        lp = problem.lp
        if lexicographic:
            total = {v: 1.0 for v in problem.curtailment_vars.values()}
            lp.set_objective(total)
            stage1 = solve(lp, compute_duals=False)
            if stage1.status != SolveStatus.OPTIMAL:
                return None
            lp.add_constraint(total, Relation.LE, stage1.objective, name="curt_total_cap")
            objective = {problem.battery_var: 1.0 if direction == Direction.LOWER else -1.0}
            for plus, minus in problem.curative_battery_vars.values():
                objective[plus] = objective[minus] = w.curative_battery
            for v in problem.curative_curtailment_vars.values():
                objective[v] = w.curative_curtailment
            lp.set_objective(objective)
        sol = solve(lp, compute_duals=False)
        if sol.status != SolveStatus.OPTIMAL:
            return None
        curative = [sol.value(plus) - sol.value(minus) for plus, minus in problem.curative_battery_vars.values()]
        curt = sum(sol.value(v) for v in problem.curtailment_vars.values())
        if direction == Direction.LOWER:
            out.update(lower_mw=sol.value(problem.battery_var), preventive_curtailment_lower_mw=curt,
                       curative_charge_worst_mw=max([0.0, *curative]))
        else:
            out.update(upper_mw=sol.value(problem.battery_var), preventive_curtailment_upper_mw=curt,
                       curative_discharge_worst_mw=min([0.0, *curative]))
        for con in lp.constraints:
            label = _rating_label(con.name)
            if label is not None:
                lhs = sum(c * sol.value(v) for v, c in con.coeffs.items())
                if lhs >= con.rhs - 1e-6 and label not in out["binding"]:
                    out["binding"].append(label)
    b = zone.battery
    tol = pb.BOUND_TOL_MW
    curtails = max(out["preventive_curtailment_lower_mw"], out["preventive_curtailment_upper_mw"]) > tol
    if out["lower_mw"] >= b.battery_max_mw - tol or out["upper_mw"] <= b.battery_min_mw + tol:
        out["class"] = CongestionClass.STRONG
    elif out["lower_mw"] <= b.battery_min_mw + tol and out["upper_mw"] >= b.battery_max_mw - tol and not curtails:
        out["class"] = CongestionClass.FULLY_AVAILABLE
    else:
        out["class"] = CongestionClass.REDUCED
    return out


@pytest.mark.parametrize("lexicographic", [False, True], ids=["weighted", "lexicographic"])
def test_solve_timestep_equals_per_direction_lps(zone, summer_day, winter_day, lexicographic):
    cases = [(zone, row) for row in (*summer_day, *winter_day)]
    cases += [random_instance(seed) for seed in range(100)]
    for z, row in cases:
        got = solve_timestep(z, row, lexicographic=lexicographic)
        want = _per_direction_reference(z, row, lexicographic)
        tag = f"t={row.index} {row.timestamp}"
        if want is None:
            assert got.congestion_class == CongestionClass.INFEASIBLE, tag
            assert got.failure, tag
            continue
        for name in _FLOAT_FIELDS:
            assert abs(getattr(got, name) - want[name]) <= 1e-9, (tag, name)
        assert got.congestion_class == want["class"], tag
        expected = want["binding"][0] if want["binding"] and want["class"] != CongestionClass.FULLY_AVAILABLE else None
        assert got.binding_constraint == expected, tag


def _same_result(a, b) -> bool:
    """Every field equal, NaN matching NaN (infeasible rows)."""
    return all(
        x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))
        for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b))
    )


@pytest.mark.parametrize("lexicographic", [False, True], ids=["weighted", "lexicographic"])
def test_reused_problem_equals_a_fresh_lp_per_timestep(zone, summer_day, winter_day, lexicographic):
    """One problem written hour after hour (one per ``compute_power_bandwidths``
    call) gives every field of a fresh per-hour build exactly, across the
    fixture days and both season changes of the synthetic year (the rating
    limits change with the season)."""
    year = synthetic_year_rows(zone)
    season_changes = [year[2148:2172], year[7284:7308]]
    assert all({r.season for r in rows} == set(Season) for rows in season_changes)
    for rows in (summer_day, winter_day, *season_changes):
        reused = compute_power_bandwidths(zone, rows, lexicographic=lexicographic)
        assert len(reused) == len(rows)
        for row, got in zip(rows, reused):
            fresh = solve_timestep(zone, row, lexicographic=lexicographic)
            assert _same_result(got, fresh), f"t={row.index} {row.timestamp}"


@pytest.mark.parametrize(
    "lexicographic, per_timestep, lps", [(False, 2, 1), (True, 3, 2)], ids=["weighted", "lexicographic"]
)
def test_one_lp_and_one_network_model_per_call(
    zone_path, winter_day, monkeypatch, lexicographic, per_timestep, lps
):
    """A cold call builds one network model and one LP (plus its
    ``curt_total_cap`` copy in lexicographic mode); a second call on the zone
    loaded from file again builds neither and solves the same LPs."""
    solved, networks, built = [], [], []
    real_solve, real_network, real_init = pb.solve, pb.network_model, LinearProgram.__init__
    monkeypatch.setattr(pb, "solve", lambda lp, **kw: solved.append(lp) or real_solve(lp, **kw))
    monkeypatch.setattr(pb, "network_model", lambda z: networks.append(z) or real_network(z))
    # every LP built, in this module or in lp_core
    monkeypatch.setattr(LinearProgram, "__init__", lambda lp, name="lp": built.append(name) or real_init(lp, name))
    pb._kept.clear()
    results = compute_power_bandwidths(load_zone(zone_path), winter_day, lexicographic=lexicographic)
    assert all(r.congestion_class != CongestionClass.INFEASIBLE for r in results)
    assert len(solved) == per_timestep * len(results)
    assert len({id(lp) for lp in solved}) == len(built) == lps
    assert len(networks) == 1

    again = compute_power_bandwidths(load_zone(zone_path), winter_day, lexicographic=lexicographic)
    assert len(networks) == 1 and len(built) == lps
    assert len({id(lp) for lp in solved}) == lps
    assert repr(again) == repr(results)


def _cold(zone, rows, **kw):
    """``compute_power_bandwidths`` with nothing kept from an earlier call,
    leaving the kept problem as it found it."""
    kept = dict(pb._kept)
    pb._kept.clear()
    try:
        return compute_power_bandwidths(zone, rows, **kw)
    finally:
        pb._kept.clear()
        pb._kept.update(kept)


def test_kept_problem_follows_the_zones_value(zone, winter_day):
    """An edit in place of a kept zone's PTDF map, or a zone that differs
    only by a -0.0, builds a new problem, with a cold build's results."""
    edited = copy.deepcopy(zone)
    before = compute_power_bandwidths(edited, winter_day)
    assert repr(before) == repr(_cold(zone, winter_day))
    west, east = (o.ptdf_normal for o in edited.outbound_lines)
    west["beta"] += 0.1  # the buses' sensitivities still sum to 1
    east["beta"] -= 0.1
    after = compute_power_bandwidths(edited, winter_day)
    assert repr(after) != repr(before)
    assert repr(after) == repr(_cold(edited, winter_day))

    signed = copy.deepcopy(zone)
    signed.outbound_lines[0].ptdf_contingency[OUTAGE]["delta"] = -0.0
    assert signed == zone and repr(signed) != repr(zone)
    compute_power_bandwidths(zone, winter_day)
    kept = next(iter(pb._kept.values()))
    got = compute_power_bandwidths(signed, winter_day)
    assert next(iter(pb._kept.values())) is not kept
    assert repr(got) == repr(_cold(signed, winter_day))


def test_call_that_raises_keeps_nothing(zone, winter_day, monkeypatch):
    """A call that raises half-way through its hours has taken the problem
    out; the next call builds a new one and gives a cold call's results."""
    compute_power_bandwidths(zone, winter_day)
    solves = []
    real_solve = pb.solve
    unbounded = LpSolution(SolveStatus.UNBOUNDED, -math.inf)
    monkeypatch.setattr(
        pb, "solve", lambda lp, **kw: unbounded if len(solves) > 20 else solves.append(lp) or real_solve(lp, **kw)
    )
    with pytest.raises(UnstableLpError, match="unbounded"):
        compute_power_bandwidths(zone, winter_day)
    assert pb._kept == {}
    monkeypatch.undo()
    assert repr(compute_power_bandwidths(zone, winter_day)) == repr(_cold(zone, winter_day))


def test_threads_on_one_zone_match_serial_calls(zone):
    """More threads than cores, switching often, each taking the kept problem
    or building its own: every day's results equal a serial call's."""
    year = synthetic_year_rows(zone)
    days = [year[24 * d : 24 * (d + 1)] for d in range(0, 365, 12)]
    serial = [repr(compute_power_bandwidths(zone, day)) for day in days]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(lambda day: repr(compute_power_bandwidths(zone, day)), day) for day in days]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert len(pb._kept) == 1


def test_a_different_zone_releases_the_kept_problem(zone, winter_day):
    compute_power_bandwidths(zone, winter_day)
    first = weakref.ref(next(iter(pb._kept.values())))
    other, row = random_instance(1)
    compute_power_bandwidths(other, [row])
    gc.collect()
    assert first() is None
    assert len(pb._kept) == 1


def test_many_weightings_keep_the_last_weights_tree(zone, summer_day, monkeypatch):
    """After 100 weightings on one zone, the objectives the LP no longer holds
    have left its standard form with their phase-two subtrees: a repeated call
    builds no tree node, and its results equal a cold call's."""
    pb._kept.clear()
    for k in range(100):
        weights = ObjectiveWeights(preventive_curtailment=1.0e4 + k)
        compute_power_bandwidths(zone, summer_day, weights=weights)
    built = []
    real_node = lp_core._Node
    monkeypatch.setattr(lp_core, "_Node", lambda *args: built.append(args) or real_node(*args))
    again = compute_power_bandwidths(zone, summer_day, weights=weights)
    assert built == []
    monkeypatch.undo()
    assert repr(again) == repr(_cold(zone, summer_day, weights=weights))


def test_many_weightings_keep_only_the_last_problem(zone, summer_day):
    """Fifty weightings on one zone keep only the last weighting's problem,
    and each call still gives a cold call's results."""
    for k in range(50):
        weights = ObjectiveWeights(preventive_curtailment=1.0e4 + k, curative_battery=1.0e-3 * (1 + k % 7))
        got = compute_power_bandwidths(zone, summer_day[:3], weights=weights)
        if k % 10 == 9:
            assert repr(got) == repr(_cold(zone, summer_day[:3], weights=weights))
    assert list(pb._kept) == [(repr(zone), weights, False)]
    assert next(iter(pb._kept))[1] is weights


def _solve_counters(sol) -> tuple:
    return (sol.status, sol.iterations, sol.phase_one_iterations, sol.bland, struct.pack("<d", sol.objective))


@pytest.mark.parametrize("lexicographic", [False, True], ids=["weighted", "lexicographic"])
def test_kept_problem_equals_a_cold_call(zone, monkeypatch, lexicographic):
    """Shuffled synthetic-year days, with random zones between them that evict
    the kept problem: every call's results and every solve's counters and
    objective bits equal a cold call's."""
    solves = []
    real_solve = pb.solve
    monkeypatch.setattr(pb, "solve", lambda lp, **kw: solves.append(real_solve(lp, **kw)) or solves[-1])
    year = synthetic_year_rows(zone)
    days = list(range(0, 365, 5))
    random.Random(14).shuffle(days)
    hits = 0
    for i, day in enumerate(days):
        rows = year[24 * day : 24 * (day + 1)]
        hits += (repr(zone), ObjectiveWeights(), lexicographic) in pb._kept
        solves.clear()
        got = compute_power_bandwidths(zone, rows, lexicographic=lexicographic)
        warm = [_solve_counters(sol) for sol in solves]
        solves.clear()
        assert repr(got) == repr(_cold(zone, rows, lexicographic=lexicographic)), day
        assert warm == [_solve_counters(sol) for sol in solves], day
        if i % 9 == 8:
            z, row = random_instance(i)
            compute_power_bandwidths(z, _hours_of(row, 3), lexicographic=lexicographic)
    assert 50 < hits < len(days)


def test_kept_forms_of_a_year_stay_small(zone):
    """After the 8,760 h synthetic year in one call, the standard form the
    kept problem holds (its tree included) takes at most 2.5 MB: the memory
    tracemalloc sees a deep copy of it allocate."""
    pb._kept.clear()
    compute_power_bandwidths(zone, synthetic_year_rows(zone))
    form = next(iter(pb._kept.values())).lp._form
    assert form._kept > 400
    tracemalloc.start()
    try:
        copied = copy.deepcopy(form)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(copied._patterns) == len(form._patterns)
    assert size <= 2.5e6, size


def test_numerically_unstable_lp_raises_instead_of_infeasible_row(zone, winter_day, monkeypatch):
    unstable = LpSolution(SolveStatus.NUMERICALLY_UNSTABLE, math.nan)
    monkeypatch.setattr(pb, "solve", lambda lp, **kw: unstable)
    with pytest.raises(UnstableLpError, match="numerically unstable"):
        compute_power_bandwidths(zone, winter_day[:1])


def test_stalled_lp_raises_instead_of_infeasible_row(zone, summer_day, monkeypatch):
    """The real solver, capped at one pivot, stalls in the first LP's phase one."""
    monkeypatch.setattr(lp_core, "MAX_ITERATIONS", 1)
    with pytest.raises(UnstableLpError, match="the lower-bound LP is numerically unstable"):
        compute_power_bandwidths(zone, summer_day)


def _answer_when(monkeypatch, pick, answer):
    """Make ``pb.solve`` give ``answer(lp)`` for the LPs ``pick`` selects."""
    real_solve = pb.solve
    monkeypatch.setattr(pb, "solve", lambda lp, **kw: answer(lp) if pick(lp) else real_solve(lp, **kw))


def _unbounded(lp):
    return LpSolution(SolveStatus.UNBOUNDED, -math.inf)


def _relaxed(lp):
    return lp.name.endswith(":relaxed")


def test_unbounded_lp_raises_instead_of_a_grid_finding(zone, winter_day, monkeypatch):
    """Every bandwidth LP has a bounded objective, so ``unbounded`` is a solver
    failure in the band solves, the safety check and the relaxed diagnostic."""
    row = winter_day[0]
    result = solve_timestep(zone, row)
    _answer_when(monkeypatch, lambda lp: True, _unbounded)
    with pytest.raises(UnstableLpError, match="the lower-bound LP is unbounded"):
        compute_power_bandwidths(zone, winter_day[:1])
    with pytest.raises(UnstableLpError, match="the safety-check LP is unbounded"):
        check_safety(zone, row, result)

    monkeypatch.undo()
    _answer_when(monkeypatch, _relaxed, _unbounded)
    zone0, row0 = random_instance(0)  # infeasible: reaches the diagnostic
    with pytest.raises(UnstableLpError, match="the relaxed LP is unbounded"):
        solve_timestep(zone0, row0)


def test_relaxed_lp_reported_infeasible_raises(monkeypatch):
    """The elastic LP is feasible by construction (the battery at 0 MW, no
    curtailment, slacks covering every rating row), so an ``infeasible``
    answer for it is a solver failure, not a diagnostic."""
    _answer_when(monkeypatch, _relaxed, lambda lp: LpSolution(SolveStatus.INFEASIBLE, math.nan))
    zone, row = random_instance(0)  # infeasible: reaches the diagnostic
    with pytest.raises(UnstableLpError, match=r"^timestep 0 \(2023-06-01T12:00\): the relaxed LP is infeasible$"):
        solve_timestep(zone, row)


def test_relaxed_lp_reported_numerically_unstable_raises(monkeypatch):
    """The relaxed LP fails with the message every LP of a problem fails with."""
    _answer_when(monkeypatch, _relaxed, lambda lp: LpSolution(SolveStatus.NUMERICALLY_UNSTABLE, math.nan))
    zone, row = random_instance(0)  # infeasible: reaches the diagnostic
    with pytest.raises(
        UnstableLpError, match=r"^timestep 0 \(2023-06-01T12:00\): the relaxed LP is numerically unstable$"
    ):
        solve_timestep(zone, row)


def test_relaxed_lp_without_overload_is_named_a_tolerance(monkeypatch):
    """An elastic optimum whose slacks are all within 1e-6 MW names no
    rating: the timestep's infeasibility is put down to numerical tolerance."""
    _answer_when(monkeypatch, _relaxed, lambda lp: LpSolution(SolveStatus.OPTIMAL, 0.0, {v.name: 1e-7 for v in lp.variables}))
    zone, row = random_instance(0)
    r = solve_timestep(zone, row)
    assert r.congestion_class == CongestionClass.INFEASIBLE
    assert r.failure == "infeasible (the relaxed ratings need no overload: numerical tolerance)"


def test_result_rows_hold_plain_floats_and_pickle(zone, winter_day):
    """Rows carry no per-row dict, and they pickle."""
    row = solve_timestep(zone, winter_day[0])
    assert not hasattr(row, "__dict__")
    assert all(type(getattr(row, name)) is float for name in _FLOAT_FIELDS)
    assert pickle.loads(pickle.dumps(row)) == row


@pytest.mark.parametrize("lexicographic", [False, True], ids=["weighted", "lexicographic"])
def test_infeasible_diagnostic_reuses_the_timesteps_lp(monkeypatch, lexicographic):
    built = []
    real_build = pb.build_lp
    monkeypatch.setattr(pb, "build_lp", lambda *a, **kw: built.append(a) or real_build(*a, **kw))
    for seed in (0, 3, 4):
        zone, row = random_instance(seed)
        result = solve_timestep(zone, row, lexicographic=lexicographic)
        assert result.congestion_class == CongestionClass.INFEASIBLE
        assert result.failure.startswith("unclearable overload: ")
    assert len(built) == 3


@pytest.mark.parametrize("lexicographic", [False, True], ids=["weighted", "lexicographic"])
def test_every_unclearable_hour_builds_its_elastic_lp_afresh(monkeypatch, lexicographic):
    """One call over hours of which several are unclearable builds each
    unclearable hour's elastic LP from the kept LP, as it holds that hour,
    with one fresh standard form of its own, and reports every hour as a
    fresh ``solve_timestep`` does."""
    for seed in (3, 12):  # unclearable hours between clearable ones; every hour unclearable
        zone, row = random_instance(seed)
        hours = _hours_of(row, 12)
        expected = [solve_timestep(zone, h, lexicographic=lexicographic) for h in hours]
        forms = []
        real_init = lp_core._StandardForm.__init__
        monkeypatch.setattr(lp_core._StandardForm, "__init__", lambda sf, lp: forms.append(lp) or real_init(sf, lp))
        pb._kept.clear()
        got = compute_power_bandwidths(zone, ForecastSeries(tuple(hours)), lexicographic=lexicographic)
        monkeypatch.undo()
        assert all(_same_result(a, b) for a, b in zip(got, expected, strict=True))
        unclearable = sum(r.failure is not None for r in got)
        assert unclearable >= 6 and any(r.failure is None for r in got) == (seed == 3)
        relaxed = [lp for lp in forms if lp.name.endswith(":relaxed")]
        assert len(relaxed) == len({id(lp) for lp in relaxed}) == unclearable  # one form per elastic LP


@pytest.mark.parametrize("lexicographic", [False, True], ids=["weighted", "lexicographic"])
def test_an_unclearable_hour_mid_block_keeps_its_diagnostic_and_solve_order(monkeypatch, lexicographic):
    """A call whose block holds unclearable hours between clearable ones
    calls ``power_bandwidth.solve`` once per LP, in the order fresh
    ``solve_timestep`` calls make, each solve with their counters and
    objective bits (recorded as ``tools/exactness.py`` records them), and
    reports each unclearable hour with their diagnostic text."""
    zone, row = random_instance(3)
    hours = _hours_of(row, 12)
    solves = []
    real_solve = pb.solve

    def recording_solve(lp, compute_duals=True):
        sol = real_solve(lp, compute_duals)
        solves.append((lp.name.endswith(":relaxed"), sol.status.value, sol.iterations, sol.phase_one_iterations,
                       sol.bland, sol.objective.hex()))
        return sol

    monkeypatch.setattr(pb, "solve", recording_solve)
    expected = [solve_timestep(zone, h, lexicographic=lexicographic) for h in hours]
    fresh = list(solves)
    solves.clear()
    pb._kept.clear()
    got = compute_power_bandwidths(zone, ForecastSeries(tuple(hours)), lexicographic=lexicographic)
    assert solves == fresh
    failures = [r.failure for r in got]
    assert failures == [r.failure for r in expected]
    # hours 4, 5, 8 and 9 are unclearable, between clearable ones
    assert [f is None for f in failures] == [False, False, True, True] * 3
    assert all(f.startswith("unclearable overload: ") for f in failures if f is not None)


def _record_writes(monkeypatch) -> list[tuple[LinearProgram, int]]:
    """Every write of right-hand sides into an LP: (the LP, its hours), one
    entry per ``set_hours`` call and one per ``set_rhs_many`` call."""
    writes = []
    real_hours, real_many = LinearProgram.set_hours, LinearProgram.set_rhs_many
    monkeypatch.setattr(
        LinearProgram, "set_hours", lambda lp, rows, rhs, *a: writes.append((lp, len(rhs))) or real_hours(lp, rows, rhs, *a)
    )
    monkeypatch.setattr(LinearProgram, "set_rhs_many", lambda lp, *a: writes.append((lp, 1)) or real_many(lp, *a))
    return writes


def test_each_timestep_is_written_once(zone, winter_day, monkeypatch):
    """An N-hour cold weighted call writes its N hours once, in one block
    into the kept problem's LP and into no other LP, with results equal to
    fresh ``solve_timestep`` calls."""
    pb._kept.clear()
    writes = _record_writes(monkeypatch)
    results = compute_power_bandwidths(zone, winter_day)
    monkeypatch.undo()
    assert [(id(lp), hours) for lp, hours in writes] == [(id(next(iter(pb._kept.values())).lp), len(winter_day))]
    for row, got in zip(winter_day, results):
        assert _same_result(got, solve_timestep(zone, row)), row.timestamp


@pytest.mark.parametrize("lexicographic", [False, True], ids=["weighted", "lexicographic"])
def test_capped_lp_exists_only_in_lexicographic_mode(zone, lexicographic):
    """A lexicographic problem holds its ``curt_total_cap`` copy from
    construction, and its band objectives leave the preventive curtailment to
    that row; a weighted problem has no copy and weighs the curtailment."""
    problem = pb.BandwidthProblem(zone, pb.network_model(zone), ObjectiveWeights(), lexicographic)
    curt = set(problem.curtailment_vars.values())
    for objective in problem.objectives.values():
        assert curt.isdisjoint(objective) == lexicographic
    if not lexicographic:
        assert problem.capped is None
        return
    rows = [con.name for con in problem.capped.constraints]
    assert rows == [con.name for con in problem.lp.constraints] + ["curt_total_cap"]
    assert dict(problem.capped.constraints[-1].coeffs) == problem.total_curtailment


def test_switching_the_objective_mode_rebuilds_the_problem(zone, winter_day, monkeypatch):
    """A weighted call after a lexicographic one on the same zone, and the
    reverse, each build a problem of their own mode and give a cold call's
    results; the weighted call writes no capped LP."""
    pb._kept.clear()
    for lexicographic in (True, False, True):
        before = list(pb._kept.values())
        writes = _record_writes(monkeypatch)
        got = compute_power_bandwidths(zone, winter_day, lexicographic=lexicographic)
        monkeypatch.undo()
        assert list(pb._kept) == [(repr(zone), ObjectiveWeights(), lexicographic)]
        (problem,) = pb._kept.values()
        assert problem not in before
        # the LP takes the day in one block; the capped copy each hour's
        # values and then its cap, as each needs that hour's optimum
        assert [(id(lp), hours) for lp, hours in writes if lp is problem.lp] == [(id(problem.lp), len(winter_day))]
        capped = [lp for lp, _ in writes if lp is not problem.lp]
        assert [id(lp) for lp in capped] == [id(problem.capped)] * (2 * len(winter_day) if lexicographic else 0)
        assert repr(got) == repr(_cold(zone, winter_day, lexicographic=lexicographic))


def test_bandwidth_lps_fire_no_solver_guard(zone, summer_day, winter_day):
    for row in (*summer_day, *winter_day):
        for direction in Direction:
            sol = solve(build_lp(zone, row, row.season, direction).lp, compute_duals=False)
            assert sol.status == SolveStatus.OPTIMAL
            assert not sol.bland
            assert 1 <= sol.phase_one_iterations < sol.iterations


def _row_sum_labels(problem, solution, rows=None) -> list[str]:
    """The binding rule, row by row: lhs (summed over the row's coefficients
    in order) >= rhs - 1e-6, labels in row order without repeats."""
    labels = []
    for con in rows if rows is not None else problem.lp.constraints:
        label = _rating_label(con.name)
        if label is not None:
            lhs = sum(c * solution.values[v] for v, c in con.coeffs.items())
            if lhs >= con.rhs - 1e-6 and label not in labels:
                labels.append(label)
    return labels


@pytest.mark.parametrize("lexicographic", [False, True], ids=["weighted", "lexicographic"])
def test_binding_labels_equal_the_row_sums(zone, monkeypatch, lexicographic):
    """Every result's label is the first one the row-by-row rule finds in the
    rows of the LP as solved: the lower-bound solution's first, else the
    upper-bound solution's, and none for a fully available or infeasible
    hour. Reused problems (year days) and fresh ones (random zones)."""
    solved, counts = {}, {"labelled": 0, "from_upper": 0, "unlabelled": 0}
    real_solve, real_written = pb._solve, pb._solve_written

    def solve_and_label(lp, row, what):
        sol = real_solve(lp, row, what)
        if sol.status == SolveStatus.OPTIMAL:
            solved[what] = (sol, lp.constraints)
        return sol

    def checked(problem, row):
        solved.clear()
        result = real_written(problem, row)
        tag = f"t={row.index} {row.timestamp}"
        if result.congestion_class in (CongestionClass.FULLY_AVAILABLE, CongestionClass.INFEASIBLE):
            assert result.binding_constraint is None, tag
            counts["unlabelled"] += 1
            return result
        lo = _row_sum_labels(problem, *solved["lower-bound"])
        hi = _row_sum_labels(problem, *solved["upper-bound"])
        assert result.binding_constraint == (lo or hi or [None])[0], tag
        counts["labelled"] += 1
        counts["from_upper"] += not lo and bool(hi)
        return result

    monkeypatch.setattr(pb, "_solve", solve_and_label)
    monkeypatch.setattr(pb, "_solve_written", checked)
    year = synthetic_year_rows(zone)
    for day in range(0, 365, 12):
        compute_power_bandwidths(zone, year[24 * day : 24 * (day + 1)], lexicographic=lexicographic)
    for seed in range(400):
        solve_timestep(*random_instance(seed), lexicographic=lexicographic)
    assert counts["labelled"] > 200 and counts["unlabelled"] > 200 and counts["from_upper"] > 20, counts


def _crossing(lhs_of, guess: float, cut: float) -> tuple[float, float]:
    """Adjacent floats around ``guess`` with ``lhs_of(b) >= cut`` differing
    between them (``lhs_of`` is monotone in b)."""
    step = 1e-9
    lo, hi = guess - step, guess + step
    while (lhs_of(lo) >= cut) == (lhs_of(hi) >= cut):
        step *= 2
        lo, hi = guess - step, guess + step
    side = lhs_of(lo) >= cut
    while True:
        mid = lo + (hi - lo) / 2
        if mid in (lo, hi):
            return lo, hi
        if (lhs_of(mid) >= cut) == side:
            lo = mid
        else:
            hi = mid


def test_binding_row_at_the_cut_follows_the_row_sum(zone, summer_day, winter_day):
    """A rating row whose lhs sits just above or just below rhs - 1e-6 is
    labelled exactly when its row-by-row sum meets the cut."""
    checked = reached = 0
    for rows in (summer_day, winter_day):
        problem = build_lp(zone, rows[1], rows[1].season, Direction.LOWER)
        sol = solve(problem.lp, compute_duals=False)
        ratings = [con for con in problem.lp.constraints if _rating_label(con.name) is not None]
        for i, con in enumerate(ratings):
            coef = con.coeffs.get(problem.battery_var)
            if not coef:
                continue
            values, cut = dict(sol.values), con.rhs - 1e-6

            def lhs_of(b, values=values, con=con):
                values[problem.battery_var] = b
                return sum(c * values[v] for v, c in con.coeffs.items())

            guess = values[problem.battery_var] + (cut - lhs_of(values[problem.battery_var])) / coef
            label = _rating_label(con.name)
            # the rows that could label the solution before this one does
            others = ratings[:i] + [o for o in ratings[i + 1 :] if _rating_label(o.name) == label]
            for b in _crossing(lhs_of, guess, cut):  # one on each side of the cut
                lhs = lhs_of(b)
                assert abs(lhs - cut) <= 1e-12 * sum(abs(c * values[v]) for v, c in con.coeffs.items())
                at_cut = LpSolution(SolveStatus.OPTIMAL, 0.0, dict(values))
                first = problem.first_binding(at_cut)
                assert first == (_row_sum_labels(problem, at_cut) or [None])[0]
                if not _row_sum_labels(problem, at_cut, others):
                    assert (first == label) == (lhs >= cut)
                    reached += 1
            checked += 1
    assert checked >= 8 and reached >= 20, (checked, reached)


def _fresh_copy(lp: LinearProgram) -> LinearProgram:
    """A newly built LP with the same variables, rows and objective."""
    out = LinearProgram(lp.name)
    for v in lp.variables:
        out.add_variable(v.name, v.lower, v.upper)
    for con in lp.constraints:
        out.add_constraint(dict(con.coeffs), con.relation, con.rhs, con.name)
    out.set_objective(dict(lp.objective), lp.objective_constant)
    return out


def _solve_bits(sol) -> tuple:
    return (
        sol.status,
        sol.iterations,
        sol.phase_one_iterations,
        sol.bland,
        struct.pack("<d", sol.objective),
        {name: struct.pack("<d", value) for name, value in sol.values.items()},
    )


def _hours_of(zone_row, n: int) -> list[TimestepForecast]:
    """``n`` consistent hours of a random zone: the row's injections and
    boundary flows scaled together (the DC flows are linear in them), its
    curtailment budget scaled apart, and the seasons alternating."""
    row = zone_row
    hours = []
    for h in range(n):
        k, c = 1.0 - 0.15 * (h % 4), 0.5 * (h % 3)
        hours.append(
            dataclasses.replace(
                row,
                index=h,
                season=(Season.SUMMER, Season.WINTER)[h % 2],
                injections_mw={b: v * k for b, v in row.injections_mw.items()},
                curtailable_max_mw={b: v * c for b, v in row.curtailable_max_mw.items()},
                ref_normal_mw={o: v * k for o, v in row.ref_normal_mw.items()},
                ref_contingency_mw={
                    cid: {o: v * k for o, v in refs.items()} for cid, refs in row.ref_contingency_mw.items()
                },
            )
        )
    return hours


@pytest.mark.parametrize("lexicographic", [False, True], ids=["weighted", "lexicographic"])
def test_reused_problem_solves_as_fresh_lps_bit_for_bit(zone, monkeypatch, lexicographic):
    """Solve by solve, a reused problem's LP gives a freshly built LP's
    counters and the bits of its objective and values: over a winter and a
    summer week of the synthetic year, and over random zones solved for
    several hours each."""
    compared = []
    real_solve = pb.solve

    def both(lp, **kw):
        fresh = real_solve(_fresh_copy(lp), **kw)
        got = real_solve(lp, **kw)
        assert _solve_bits(got) == _solve_bits(fresh), lp.name
        compared.append(got.status)
        return got

    monkeypatch.setattr(pb, "solve", both)
    year = synthetic_year_rows(zone)
    for week in (2, 28):  # January, July
        compute_power_bandwidths(zone, year[168 * week : 168 * (week + 1)], lexicographic=lexicographic)
    for seed in range(0, 400, 10):
        z, row = random_instance(seed)
        compute_power_bandwidths(z, ForecastSeries(tuple(_hours_of(row, 6))), lexicographic=lexicographic)
    assert len(compared) > 1000
    assert SolveStatus.INFEASIBLE in compared


@pytest.mark.parametrize("lexicographic", [False, True], ids=["weighted", "lexicographic"])
def test_set_hour_writes_the_bits_set_hours_writes(zone, summer_day, winter_day, lexicographic):
    """``set_hour`` writes a timestep in Python floats and ``set_hours`` a
    block as arrays; per timestep both give the same bits: every right-hand
    side and upper bound of the LP (and of the capped copy in lexicographic
    mode) and the rating rows' right-hand sides that ``first_binding``
    reads. The blocks mix seasons, so each timestep takes its own ratings."""

    def written(problem) -> list[bytes]:
        lps = [problem.lp] if problem.capped is None else [problem.lp, problem.capped]
        out = [_floats_bits([c.rhs for c in lp.constraints] + [v.upper for v in lp.variables]) for lp in lps]
        return out + [_floats_bits(list(problem._rating_rhs))]

    cases = [(zone, [*summer_day.rows[::3], *winter_day.rows[1::3]])]
    cases += [(z, _hours_of(row, 8)) for z, row in map(random_instance, range(0, 300, 15))]
    for case, (z, rows) in enumerate(cases):
        network = pb.network_model(z)
        one = pb.BandwidthProblem(z, network, ObjectiveWeights(), lexicographic)
        block = pb.BandwidthProblem(z, network, ObjectiveWeights(), lexicographic)
        block.set_hours(rows)
        for hour, row in enumerate(rows):
            one.set_hour(row)
            block.select_hour(hour)
            assert written(one) == written(block), (case, hour)


def _floats_bits(values: list[float]) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def test_rating_rows_are_named_by_their_labels(zone, summer_day, winter_day):
    """Every rating row is ``rating_hi:`` or ``rating_lo:`` plus its label
    ``line:stage[contingency]:rating``, pair by pair in topology, stage and
    line order; a pair's two rows share one label string, and every result's
    binding label and every overload its diagnostic names is one of them."""
    stages = (("outage", "immediate"), ("fast_curative", "long_term"), ("full_curative", "permanent"))
    cases = [(zone, row) for row in (*summer_day, *winter_day)] + [random_instance(seed) for seed in range(40)]
    labelled = diagnosed = 0
    for z, row in cases:
        want = [f"{lid}:normal:permanent" for lid in TopologyState.base(z).active_lines]
        for c in z.contingencies:
            lines = TopologyState.for_contingency(z, c).active_lines
            want += [f"{lid}:{stage}[{c.id}]:{rating}" for stage, rating in stages for lid in lines]
        problem = build_lp(z, row, row.season, Direction.LOWER)
        names = [con.name for con in problem.lp.constraints if con.name.startswith("rating_")]
        assert names == [f"rating_{side}:{label}" for label in want for side in ("hi", "lo")]
        pairs = zip(problem._ratings[::2], problem._ratings[1::2], strict=True)
        assert all(hi[1] is lo[1] for hi, lo in pairs)
        result = solve_timestep(z, row)
        assert result.binding_constraint is None or result.binding_constraint in want
        labelled += result.binding_constraint is not None
        if result.failure is not None and result.failure.startswith("unclearable overload: "):
            overloads = result.failure.removeprefix("unclearable overload: ").split("; ")
            assert all(o.split(" by ")[0] in want for o in overloads), result.failure
            diagnosed += 1
    assert labelled > 20 and diagnosed > 3, (labelled, diagnosed)


def test_binding_labels_are_built_once_per_problem(zone, winter_day):
    """Results of one call share each rating row's label string."""
    labels = [r.binding_constraint for r in compute_power_bandwidths(zone, winter_day) if r.binding_constraint]
    first: dict[str, str] = {}
    for label in labels:
        assert first.setdefault(label, label) is label
    assert len(labels) > len(first)
