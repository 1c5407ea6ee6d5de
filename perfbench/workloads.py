"""The three workloads: inputs, set-up, ops, closing step and correctness checks.

Every workload runs serially in one process through the engine's public entry
points. An op is the unit latency percentiles are taken over; a round is the
group of ops a run always completes whole. ``span`` is either the tracer's
span context manager or a no-op one, so untraced executions open no spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import spans as layers

from bandwidth_engine import cli, fixtures
from bandwidth_engine import energy_bandwidth as eb
from bandwidth_engine import grid_model as gm
from bandwidth_engine import oracle
from bandwidth_engine import power_bandwidth as pb
from bandwidth_engine import statistics as stats

B_TOL_MW = 0.01  # hand-worked values on the bundled zone
SOC_EQ_TOL_MWH = 1e-6  # backward recursion vs forward oracle
WITNESS_TOL = 1e-9
GRID = oracle.GridSearchConfig(power_resolution_mw=0.25, curtailment_resolution_mw=0.05)
# A random zone that disagrees with GRID is scanned again on FINE_GRID. A grid
# cannot see a band narrower than its power step. Its least total curtailment
# is the first grid point at or above the LP's exact minimum, so when the
# engine curtails, the grid's band belongs to slightly more curtailment and
# can be wider by any amount a steep band allows (random_instance 16000198:
# exact 0.593 MW, grid 0.6 MW, band 0 vs 0.25 MW wide). Without curtailment
# both sides must agree within the fine step; with it, the engine's band must
# lie inside the grid's and pass check_safety.
FINE_GRID = oracle.GridSearchConfig(power_resolution_mw=0.01, curtailment_resolution_mw=0.01)
# The grid oracle's inner curative scan is quadratic in the curtailment grid:
# a bundled winter hour (two curtailable buses, 3.9 M points) takes ~6 s. This
# guard admits the summer hours (one curtailable bus, ~20 k points); the winter
# hours it refuses are probed with check_safety instead.
DAY_GRID = oracle.GridSearchConfig(0.25, 0.05, max_grid_points=100_000)
SAFETY_POINTS = 11


def _row_failure(result: pb.PowerBandwidthResult) -> str | None:
    """A crash or an unstable LP reported in a result row (not a grid finding)."""
    f = result.failure
    if f and (f.startswith("error:") or "numerically unstable" in f):
        return f"t={result.index} {result.timestamp}: {f}"
    return None


def _check_witness(power, energy, zone, problems: list[str], tag: str) -> None:
    """A greedy trajectory from five starting points stays inside every band."""
    lo, hi = energy.interval(0)
    for frac in (0.0, 0.31, 0.5, 0.77, 1.0):
        w = eb.verify_trajectory_existence(power, energy, zone, lo + frac * (hi - lo))
        if not isinstance(w, eb.TrajectoryWitness):
            problems.append(f"{tag}: no witness from {frac:.2f} of [{lo}, {hi}]: {w.reason}")
            return
        for t, p in enumerate(w.power_mw):
            if not power[t].lower_mw - WITNESS_TOL <= p <= power[t].upper_mw + WITNESS_TOL:
                problems.append(f"{tag}: witness power {p} outside band at t={t}")
                return
        for t, s in enumerate(w.soc_mwh):
            l, u = energy.interval(t)
            if not l - WITNESS_TOL <= s <= u + WITNESS_TOL:
                problems.append(f"{tag}: witness SoC {s} outside [{l}, {u}] at boundary {t}")
                return


def _check_forward(power, energy, zone, problems: list[str], tag: str) -> None:
    fwd_lo, fwd_hi = oracle.forward_soc_feasible_set(power, zone)
    worst = max(
        max(abs(a - b) for a, b in zip(fwd_lo, energy.soc_lower_mwh)),
        max(abs(a - b) for a, b in zip(fwd_hi, energy.soc_upper_mwh)),
    )
    if worst > SOC_EQ_TOL_MWH:
        problems.append(f"{tag}: energy bands differ from the forward oracle by {worst:.3e} MWh")


def _check_band(result, band, tol: float, problems: list[str], tag: str) -> None:
    """Engine result vs grid-search band (None = no feasible combination)."""
    if result.congestion_class == pb.CongestionClass.INFEASIBLE:
        if band is not None:
            problems.append(f"{tag}: engine infeasible, oracle band {band}")
    elif band is None:
        problems.append(f"{tag}: oracle infeasible, engine [{result.lower_mw}, {result.upper_mw}]")
    elif abs(result.lower_mw - band[0]) > tol or abs(result.upper_mw - band[1]) > tol:
        problems.append(
            f"{tag}: engine [{result.lower_mw:.4f}, {result.upper_mw:.4f}] "
            f"oracle [{band[0]:.4f}, {band[1]:.4f}]"
        )


class Workload:
    name = ""
    #: runs a child process that writes the inputs before set-up
    prepares_inputs = False

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.zone_path = root / "data" / "zone90kv.json"
        self.notes: dict[str, int] = {}  # counts printed with the raw figures

    def prepare(self) -> None:
        """Write the generated inputs into the work directory."""

    def setup(self, span) -> None:
        raise NotImplementedError

    def rounds(self) -> list[list]:
        """Round after round of op arguments; a run cycles through them."""
        raise NotImplementedError

    def op(self, arg, span) -> tuple[int, str | None]:
        """Run one op; returns (timesteps solved, failure or None)."""
        raise NotImplementedError

    def after_op(self, arg) -> str | None:
        """Untimed per-op output check; returns a failure or None."""
        return None

    def close(self, span) -> str | None:
        """Closing step of the run (timed as busy time, not as an op)."""
        return None

    def check(self) -> list[str]:
        """Correctness checks of everything the run produced."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# day_ahead: the operator's daily `compute` job through the CLI
# ---------------------------------------------------------------------------

_OUTPUTS = ("power_bandwidth.csv", "energy_bandwidth.csv", "merged_report.csv", "manifest.json")


def _run_cli(args: list[str]) -> int:
    """Run the CLI in-process, its standard output discarded; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="bandwidth-engine", standalone_mode=False)
        except SystemExit as exc:
            return 0 if exc.code is None else int(exc.code)
    return 0


class DayAhead(Workload):
    name = "day_ahead"
    days = ("summer", "winter")

    def setup(self, span) -> None:
        self.paths = {d: self.root / "data" / f"forecast_{d}_day.csv" for d in self.days}
        self.out = {d: self.work / d for d in self.days}
        with span(layers.GRID_MODEL):
            # fail before the timed loop if an input does not load
            self.zone = gm.load_zone(self.zone_path)
            self.forecasts = {d: gm.load_forecast(p, self.zone) for d, p in self.paths.items()}
        self.digests: dict[str, str] | None = None

    def rounds(self) -> list[list]:
        return [[None]]

    def op(self, arg, span) -> tuple[int, str | None]:
        steps = 0
        for d in self.days:
            code = _run_cli(
                ["compute", "--zone", str(self.zone_path), "--forecast", str(self.paths[d]),
                 "--out", str(self.out[d])]
            )
            if code != 0:
                return steps, f"compute on the {d} day exited {code}"
            steps += len(self.forecasts[d])
        return steps, None

    def after_op(self, arg) -> str | None:
        digests = {
            f"{d}/{name}": hashlib.sha256((self.out[d] / name).read_bytes()).hexdigest()
            for d in self.days
            for name in _OUTPUTS
        }
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(k for k in digests if digests[k] != self.digests[k])
            return f"output files differ from the first op: {changed}"
        return None

    def close(self, span) -> str | None:
        for d in self.days:
            code = _run_cli(["stats", "--results", str(self.out[d])])
            if code != 0:
                return f"stats on the {d} day exited {code}"
        return None

    def check(self) -> list[str]:
        problems: list[str] = []
        zone = self.zone
        power: dict[str, list] = {}
        for d in self.days:
            # the library's results must be the ones the CLI wrote, byte for byte
            results = pb.compute_power_bandwidths(zone, self.forecasts[d])
            energy = eb.compute_energy_bandwidths(results, zone)
            timestamps = [r.timestamp for r in results]
            if pb.power_results_to_csv(results) != (self.out[d] / "power_bandwidth.csv").read_text():
                problems.append(f"{d}: power_bandwidth.csv differs from compute_power_bandwidths")
            if eb.energy_results_to_csv(energy, timestamps) != (
                self.out[d] / "energy_bandwidth.csv"
            ).read_text():
                problems.append(f"{d}: energy_bandwidth.csv differs from compute_energy_bandwidths")
            power[d] = results
            _check_forward(results, energy, zone, problems, d)
            if not energy.feasible:
                problems.append(f"{d}: energy corridor empty at {energy.infeasible_boundaries}")
            else:
                _check_witness(results, energy, zone, problems, d)
            for row, r in zip(self.forecasts[d], results):
                tag = f"{d} t={row.index}"
                try:
                    band = oracle.brute_force_power_bandwidth(zone, row, config=DAY_GRID)
                except oracle.OracleGuardError:
                    self.notes["safety_probed_hours"] = self.notes.get("safety_probed_hours", 0) + 1
                    bad = pb.check_safety(zone, row, r, n_points=SAFETY_POINTS)
                    problems.extend(f"{tag}: unsafe setpoint {b}: {why}" for b, why in bad)
                    continue
                _check_band(r, band, DAY_GRID.power_resolution_mw + 1e-9, problems, tag)
            if d == "winter":
                lo3, hi3 = energy.interval(3)
                if abs(lo3) > B_TOL_MW or abs(hi3 - 21.0) > B_TOL_MW:
                    problems.append(f"winter boundary 3 interval [{lo3}, {hi3}], want [0, 21]")

        for d, t, want in (("summer", 7, 5.0 / 3.0), ("winter", 3, 3.0), ("winter", 0, 9.0)):
            got = power[d][t].lower_mw
            if abs(got - want) > B_TOL_MW:
                problems.append(f"{d} t={t} lower bound {got:.4f} MW, want {want:.4f}")
        return problems


# ---------------------------------------------------------------------------
# year_weeks: the availability study over whole weeks of the synthetic year
# ---------------------------------------------------------------------------

HOURS_PER_WEEK = 168
WEEK_PAIRS = 8  # a winter week and a summer week per pair; one pair is a round
SAMPLED_HOURS = 6  # hours probed with check_safety and HiGHS


class YearWeeks(Workload):
    name = "year_weeks"
    prepares_inputs = True

    @property
    def forecast_path(self) -> Path:
        return self.work / "year_weeks.csv"

    def prepare(self) -> None:
        zone = gm.load_zone(self.zone_path)
        year = fixtures.synthetic_year_rows(zone)
        by_season: dict[gm.Season, list[int]] = {gm.Season.WINTER: [], gm.Season.SUMMER: []}
        for w in range(len(year) // HOURS_PER_WEEK):
            seasons = {year[h].season for h in range(w * HOURS_PER_WEEK, (w + 1) * HOURS_PER_WEEK)}
            if len(seasons) == 1:
                by_season[seasons.pop()].append(w)
        rng = np.random.default_rng(self.seed)
        winter = rng.choice(by_season[gm.Season.WINTER], WEEK_PAIRS, replace=False)
        summer = rng.choice(by_season[gm.Season.SUMMER], WEEK_PAIRS, replace=False)
        rows = []
        for w in (w for pair in zip(winter, summer) for w in pair):
            rows.extend(year[h] for h in range(w * HOURS_PER_WEEK, (w + 1) * HOURS_PER_WEEK))
        fixtures.write_forecast_csv(zone, gm.ForecastSeries(tuple(rows)), self.forecast_path)

    def setup(self, span) -> None:
        with span(layers.GRID_MODEL):
            self.zone = gm.load_zone(self.zone_path)
            forecast = gm.load_forecast(self.forecast_path, self.zone)
        self.days = [
            gm.ForecastSeries(forecast.rows[i : i + 24]) for i in range(0, len(forecast), 24)
        ]
        self.first: dict[int, tuple] = {}  # day -> (power, energy) of its first op
        self.results: list[pb.PowerBandwidthResult] = []

    def rounds(self) -> list[list]:
        per_round = 2 * HOURS_PER_WEEK // 24
        return [
            list(range(i, i + per_round)) for i in range(0, len(self.days), per_round)
        ]

    def op(self, day: int, span) -> tuple[int, str | None]:
        rows = self.days[day]
        with span(layers.POWER_BANDWIDTH):
            power = pb.compute_power_bandwidths(self.zone, rows)
        for r in power:
            failure = _row_failure(r)
            if failure:
                return len(rows), failure
        with span(layers.ENERGY):
            energy = eb.compute_energy_bandwidths(power, self.zone)
        self.results.extend(power)
        self.first.setdefault(day, (power, energy))
        return len(rows), None

    def close(self, span) -> str | None:
        with span(layers.STATISTICS):
            self.report = stats.summarize(self.results)
        return None

    def check(self) -> list[str]:
        problems: list[str] = []
        zone = self.zone
        for day, (power, energy) in sorted(self.first.items()):
            tag = f"day {self.days[day][0].timestamp[:10]}"
            _check_forward(power, energy, zone, problems, tag)
            # a day whose mandatory charge exceeds the capacity has an empty
            # corridor (a grid finding the forward oracle must confirm) and
            # no witness
            if energy.feasible:
                _check_witness(power, energy, zone, problems, tag)
            else:
                self.notes["empty_corridor_days"] = self.notes.get("empty_corridor_days", 0) + 1
        self.notes["days"] = len(self.first)

        rng = np.random.default_rng(self.seed + 7919)
        done = sorted(self.first)
        for k in range(SAMPLED_HOURS):
            day = done[int(rng.integers(len(done)))]
            hour = int(rng.integers(24))
            row = self.days[day][hour]
            result = self.first[day][0][hour]
            tag = f"{row.timestamp}"
            bad = pb.check_safety(zone, row, result, n_points=SAFETY_POINTS)
            problems.extend(f"{tag}: unsafe setpoint {b}: {why}" for b, why in bad)
            problems.extend(_check_highs(zone, row, tag))

        by = self.report.by_season
        for name, s in by.items():
            if s.strong > s.congested:
                problems.append(f"{name}: {s.strong} strong > {s.congested} congested hours")
        if set(by) != {"winter", "summer"}:
            problems.append(f"seasons covered: {sorted(by)}")
        elif not by["winter"].fraction_congestion > by["summer"].fraction_congestion:
            problems.append(
                f"winter congestion {by['winter'].fraction_congestion:.3f} not above "
                f"summer {by['summer'].fraction_congestion:.3f}"
            )
        return problems


def _check_highs(zone, row, tag: str) -> list[str]:
    """Both directions' LP optima against scipy's HiGHS (skipped without scipy)."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return []
    from bandwidth_engine.lp_core import Relation, SolveStatus, solve

    problems = []
    for direction in pb.Direction:
        lp = pb.build_lp(zone, row, row.season, direction).lp
        sol = solve(lp, compute_duals=False)
        col = {v.name: j for j, v in enumerate(lp.variables)}
        c = np.zeros(len(col))
        for name, coef in lp.objective.items():
            c[col[name]] = coef
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for con in lp.constraints:
            a = np.zeros(len(col))
            for name, coef in con.coeffs.items():
                a[col[name]] = coef
            if con.relation == Relation.EQ:
                a_eq.append(a)
                b_eq.append(con.rhs)
            elif con.relation == Relation.LE:
                a_ub.append(a)
                b_ub.append(con.rhs)
            else:
                a_ub.append(-a)
                b_ub.append(-con.rhs)
        ref = linprog(
            c,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=b_ub or None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=b_eq or None,
            bounds=[(v.lower, v.upper) for v in lp.variables],
            method="highs",
        )
        if sol.status != SolveStatus.OPTIMAL or ref.status != 0:
            problems.append(f"{tag} {direction.value}: engine {sol.status.value}, HiGHS status {ref.status}")
            continue
        obj = sol.objective
        ref_obj = ref.fun + lp.objective_constant
        if abs(obj - ref_obj) > 1e-6 * max(1.0, abs(ref_obj)):
            problems.append(f"{tag} {direction.value}: LP optimum {obj} vs HiGHS {ref_obj}")
    return problems


# ---------------------------------------------------------------------------
# random_zones: screening fresh seeded zones, one LP shape each
# ---------------------------------------------------------------------------

BATCH = 16  # zones per op
POOL = 2400  # distinct zones generated per run; a longer run cycles through them


def _row_to_dict(row: gm.TimestepForecast) -> dict:
    return {
        "index": row.index,
        "timestamp": row.timestamp,
        "season": row.season.value,
        "injections_mw": row.injections_mw,
        "curtailable_max_mw": row.curtailable_max_mw,
        "ref_normal_mw": row.ref_normal_mw,
        "ref_contingency_mw": row.ref_contingency_mw,
    }


def _rescan(zone, row, result, tag: str) -> list[str]:
    """Second look at a feasible zone that disagrees with GRID (see FINE_GRID)."""
    fine = oracle.brute_force_power_bandwidth(zone, row, config=FINE_GRID)
    step = FINE_GRID.power_resolution_mw + 1e-9
    band = f"engine [{result.lower_mw:.4f}, {result.upper_mw:.4f}]"
    if fine is None:
        if result.upper_mw - result.lower_mw >= step:
            return [f"{tag}: fine grid finds no band, {band}"]
    elif result.preventive_curtailment_mw <= pb.BOUND_TOL_MW:
        problems: list[str] = []
        _check_band(result, fine, step, problems, f"{tag} (fine grid)")
        return problems
    elif not (fine[0] - step <= result.lower_mw and result.upper_mw <= fine[1] + step):
        return [f"{tag}: {band} not inside fine grid band [{fine[0]:.4f}, {fine[1]:.4f}]"]
    bad = pb.check_safety(zone, row, result, n_points=SAFETY_POINTS)
    return [f"{tag}: unsafe setpoint {b}: {why}" for b, why in bad]


class RandomZones(Workload):
    name = "random_zones"
    prepares_inputs = True

    @property
    def instances_path(self) -> Path:
        return self.work / "random_zones.json"

    def prepare(self) -> None:
        first = 1_000_000 * (self.seed + 1)
        docs = []
        for k in range(POOL):
            zone, row = fixtures.random_instance(first + k)
            docs.append({"zone": gm.zone_to_dict(zone), "row": _row_to_dict(row)})
        self.instances_path.write_text(json.dumps(docs))

    def setup(self, span) -> None:
        docs = json.loads(self.instances_path.read_text())
        self.docs = [d["zone"] for d in docs]
        with span(layers.GRID_MODEL):
            self.rows = [
                gm.TimestepForecast(
                    index=r["index"],
                    timestamp=r["timestamp"],
                    season=gm.Season(r["season"]),
                    injections_mw=r["injections_mw"],
                    curtailable_max_mw=r["curtailable_max_mw"],
                    ref_normal_mw=r["ref_normal_mw"],
                    ref_contingency_mw=r["ref_contingency_mw"],
                )
                for r in (d["row"] for d in docs)
            ]
        self.first: dict[int, tuple] = {}  # instance -> (zone, result) of its first op
        self.results: list[pb.PowerBandwidthResult] = []

    def rounds(self) -> list[list]:
        return [[range(i, i + BATCH)] for i in range(0, len(self.rows) - BATCH + 1, BATCH)]

    def op(self, batch: range, span) -> tuple[int, str | None]:
        failure = None
        for i in batch:
            with span(layers.GRID_MODEL):
                zone = gm.zone_from_dict(self.docs[i])
            with span(layers.POWER_BANDWIDTH):
                result = pb.solve_timestep(zone, self.rows[i])
            failure = failure or _row_failure(result)
            self.results.append(result)
            self.first.setdefault(i, (zone, result))
        return len(batch), failure

    def close(self, span) -> str | None:
        with span(layers.STATISTICS):
            self.report = stats.summarize(self.results)
        # one-hour SoC corridor of every feasible zone screened
        self.energy = {}
        with span(layers.ENERGY):
            for i, (zone, result) in self.first.items():
                if result.congestion_class != pb.CongestionClass.INFEASIBLE:
                    self.energy[i] = eb.compute_energy_bandwidths([result], zone)
        return None

    def check(self) -> list[str]:
        problems: list[str] = []
        tol = GRID.power_resolution_mw + 1e-9
        self.notes["fine_rescans"] = 0
        for i, (zone, result) in sorted(self.first.items()):
            row = self.rows[i]
            band = oracle.brute_force_power_bandwidth(zone, row, config=GRID)
            coarse: list[str] = []
            _check_band(result, band, tol, coarse, f"zone {i}")
            if coarse and result.congestion_class != pb.CongestionClass.INFEASIBLE:
                self.notes["fine_rescans"] += 1
                coarse = _rescan(zone, row, result, f"zone {i}")
            problems.extend(coarse)
            if i in self.energy:
                _check_forward([result], self.energy[i], zone, problems, f"zone {i}")
        self.notes["zones"] = len(self.first)
        self.notes["unclearable"] = sum(
            r.congestion_class == pb.CongestionClass.INFEASIBLE for _, r in self.first.values()
        )
        s = self.report.by_season.get("summer")
        if s is None or s.timesteps != len(self.results):
            problems.append("summarize did not count every screened zone")
        return problems


WORKLOADS = {w.name: w for w in (DayAhead, YearWeeks, RandomZones)}
