"""Command-line front end.

Subcommands: ``compute`` (bandwidths + reports), ``stats`` (availability
summary), ``verify`` (brute-force cross-checks), ``export-lp`` (textual LP
dump of one timestep problem).

Exit codes: 0 success; 1 error (a numerically unstable LP included); 2
infeasible timesteps present (files are still written); 3 verification
disagreement. ``BANDWIDTH_ENGINE_LOG`` sets the log level.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import click

from . import __version__
from .energy_bandwidth import (
    EnergyBandwidthError,
    compute_energy_bandwidths,
    energy_results_to_csv,
)
from .grid_model import (
    ForecastSeries,
    Season,
    ZoneModel,
    ZoneValidationError,
    load_forecast,
    load_zone,
)
from .lp_core import FEASIBILITY_TOL, PIVOT_TOL
from .oracle import (
    GridSearchConfig,
    OracleGuardError,
    brute_force_power_bandwidth,
    forward_soc_feasible_set,
)
from .power_bandwidth import (
    CongestionClass,
    Direction,
    ObjectiveWeights,
    UnstableLpError,
    build_lp,
    compute_power_bandwidths,
    fmt6,
    power_results_to_csv,
    solve_timestep,
)
from .statistics import summarize

logger = logging.getLogger("bandwidth_engine")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_DISAGREEMENT = 3


def _setup_logging(verbosity: int) -> None:
    env = os.environ.get("BANDWIDTH_ENGINE_LOG")
    if env:
        level = getattr(logging, env.upper(), logging.INFO)
    else:
        level = {0: logging.WARNING, 1: logging.INFO}.get(verbosity, logging.DEBUG)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


@dataclass
class RunConfig:
    zone: str
    forecast: str
    out: str = "out"
    horizon: int | None = None
    workers: int = 1
    objective: str = "weighted"  # or "lexicographic"
    c1: float = 1.0e4
    c2: float = 1.0e-3
    c3: float = 1.0e-4
    season: str | None = None  # override every row's season tag

    def validate(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.objective not in ("weighted", "lexicographic"):
            raise ValueError(f"unknown objective mode {self.objective!r}")
        if min(self.c1, self.c2, self.c3) <= 0:
            raise ValueError("objective weights must be > 0")
        if self.season is not None:
            Season(self.season)

    def weights(self) -> ObjectiveWeights:
        return ObjectiveWeights(self.c1, self.c2, self.c3)

    @property
    def lexicographic(self) -> bool:
        return self.objective == "lexicographic"


def _load_config(config_path: str | None, overrides: dict) -> RunConfig:
    base: dict = {}
    if config_path:
        base = json.loads(Path(config_path).read_text())
    merged = {**base, **{k: v for k, v in overrides.items() if v is not None}}
    cfg = RunConfig(**merged)
    cfg.validate()
    return cfg


def _load_inputs(cfg: RunConfig) -> tuple[ZoneModel, ForecastSeries]:
    """The zone and its forecast, with every row's season overridden if asked."""
    zone = load_zone(cfg.zone)
    forecast = load_forecast(cfg.forecast, zone)
    if cfg.season is not None:
        season = Season(cfg.season)
        forecast = ForecastSeries(tuple(replace(r, season=season) for r in forecast))
    return zone, forecast


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@click.group()
@click.option("-v", "--verbose", count=True, help="Increase log verbosity.")
def main(verbose: int) -> None:
    """Day-ahead battery operating bandwidths for congestion management."""
    _setup_logging(verbose)


def _common_options(f):
    f = click.option("--config", type=click.Path(exists=True), default=None, help="JSON run config.")(f)
    f = click.option("--zone", type=click.Path(), default=None, help="Zone JSON file.")(f)
    f = click.option("--forecast", type=click.Path(), default=None, help="Forecast CSV file.")(f)
    f = click.option("--horizon", type=int, default=None, help="Number of timesteps (default: all).")(f)
    f = click.option("--season", type=click.Choice(["summer", "winter"]), default=None, help="Override every row's season.")(f)
    f = click.option("--objective", type=click.Choice(["weighted", "lexicographic"]), default=None)(f)
    f = click.option("--c1", type=float, default=None, help="Preventive curtailment weight.")(f)
    f = click.option("--c2", type=float, default=None, help="Curative battery weight.")(f)
    f = click.option("--c3", type=float, default=None, help="Curative curtailment weight.")(f)
    return f


def _run_compute(cfg: RunConfig) -> int:
    zone, forecast = _load_inputs(cfg)
    horizon = cfg.horizon if cfg.horizon is not None else len(forecast)
    logger.info("computing %d timesteps with %d workers", horizon, cfg.workers)

    results = compute_power_bandwidths(
        zone,
        forecast,
        horizon=horizon,
        workers=cfg.workers,
        weights=cfg.weights(),
        lexicographic=cfg.lexicographic,
    )

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "power_bandwidth.csv").write_text(power_results_to_csv(results))

    failed = [r for r in results if r.congestion_class == CongestionClass.INFEASIBLE]
    energy = None
    if not failed:
        energy = compute_energy_bandwidths(results, zone)
        timestamps = [r.timestamp for r in results]
        (out / "energy_bandwidth.csv").write_text(energy_results_to_csv(energy, timestamps))
    else:
        logger.warning(
            "%d infeasible timestep(s): %s — energy bandwidths skipped",
            len(failed),
            ", ".join(str(r.index) for r in failed[:10]),
        )

    (out / "merged_report.csv").write_text(_merged_report(results, energy))

    manifest = {
        "engine_version": __version__,
        "inputs": {
            "zone": {"path": str(cfg.zone), "sha256": _sha256(cfg.zone)},
            "forecast": {"path": str(cfg.forecast), "sha256": _sha256(cfg.forecast)},
        },
        "horizon": horizon,
        "objective": cfg.objective,
        "weights": {"c1": cfg.c1, "c2": cfg.c2, "c3": cfg.c3},
        "season_override": cfg.season,
        "tolerances": {"lp_feasibility": FEASIBILITY_TOL, "lp_pivot": PIVOT_TOL},
        "outputs": ["power_bandwidth.csv"]
        + (["energy_bandwidth.csv"] if energy is not None else [])
        + ["merged_report.csv"],
        "infeasible_timesteps": [r.index for r in failed],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    return EXIT_INFEASIBLE if failed else EXIT_OK


MERGED_HEADER = [
    "timestamp",
    "season",
    "B_lower_mw",
    "B_upper_mw",
    "soc_lower_start_mwh",
    "soc_upper_start_mwh",
    "curative_charge_worst_mw",
    "curative_discharge_worst_mw",
    "preventive_curtailment_mw",
    "congestion_class",
    "binding_constraint",
]


def _merged_report(results, energy) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MERGED_HEADER)
    for i, r in enumerate(results):
        soc_lo = energy.soc_lower_mwh[i] if energy is not None else math.nan
        soc_hi = energy.soc_upper_mwh[i] if energy is not None else math.nan
        writer.writerow(
            [
                r.timestamp,
                r.season,
                fmt6(r.lower_mw),
                fmt6(r.upper_mw),
                fmt6(soc_lo),
                fmt6(soc_hi),
                fmt6(r.curative_charge_worst_mw),
                fmt6(r.curative_discharge_worst_mw),
                fmt6(r.preventive_curtailment_mw),
                r.congestion_class.value,
                r.binding_constraint or "",
            ]
        )
    return buf.getvalue()


@main.command()
@_common_options
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
@click.option("--workers", type=int, default=None, help="Parallel workers.")
def compute(config, zone, forecast, horizon, season, objective, c1, c2, c3, out, workers):
    """Compute power and energy bandwidths and write reports."""
    try:
        cfg = _load_config(
            config,
            dict(
                zone=zone, forecast=forecast, horizon=horizon, season=season,
                objective=objective, c1=c1, c2=c2, c3=c3, out=out, workers=workers,
            ),
        )
        sys.exit(_run_compute(cfg))
    except (
        ZoneValidationError, EnergyBandwidthError, UnstableLpError, ValueError, TypeError, OSError
    ) as exc:
        logger.error("%s", exc)
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_ERROR)


@main.command()
@_common_options
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
@click.option("--workers", type=int, default=None)
@click.option("--results", type=click.Path(exists=True), default=None,
              help="Directory of a prior compute run (reads merged_report.csv).")
@click.option("--json", "as_json", is_flag=True, help="Emit the JSON report.")
@click.option("--binding-csv", type=click.Path(), default=None,
              help="Also write the per-line binding-constraint histogram CSV here.")
def stats(config, zone, forecast, horizon, season, objective, c1, c2, c3, out, workers,
          results, as_json, binding_csv):
    """Availability statistics (runs compute, or summarizes a prior run)."""
    from .statistics import binding_lines_to_csv

    try:
        if results:
            rows = _read_merged(Path(results) / "merged_report.csv")
            report = summarize(rows)
        else:
            cfg = _load_config(
                config,
                dict(
                    zone=zone, forecast=forecast, horizon=horizon, season=season,
                    objective=objective, c1=c1, c2=c2, c3=c3, out=out, workers=workers,
                ),
            )
            z, forecast_series = _load_inputs(cfg)
            res = compute_power_bandwidths(
                z,
                forecast_series,
                horizon=cfg.horizon,
                workers=cfg.workers,
                weights=cfg.weights(),
                lexicographic=cfg.lexicographic,
            )
            report = summarize(res)
        if binding_csv:
            Path(binding_csv).write_text(binding_lines_to_csv(report))
        click.echo(report.to_json() if as_json else report.to_text(), nl=False)
        sys.exit(EXIT_OK)
    except (ZoneValidationError, UnstableLpError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_ERROR)


def _read_merged(path: Path):
    """Minimal result objects from a merged report, enough for summarize()."""
    from .power_bandwidth import PowerBandwidthResult

    rows = []
    with path.open() as fh:
        for i, rec in enumerate(csv.DictReader(fh)):
            rows.append(
                PowerBandwidthResult(
                    index=i,
                    timestamp=rec["timestamp"],
                    season=rec["season"],
                    lower_mw=float(rec["B_lower_mw"]) if rec["B_lower_mw"] else math.nan,
                    upper_mw=float(rec["B_upper_mw"]) if rec["B_upper_mw"] else math.nan,
                    curative_charge_worst_mw=0.0,
                    curative_discharge_worst_mw=0.0,
                    preventive_curtailment_lower_mw=0.0,
                    preventive_curtailment_upper_mw=0.0,
                    congestion_class=CongestionClass(rec["congestion_class"]),
                    binding_constraint=rec["binding_constraint"] or None,
                )
            )
    return rows


@main.command()
@_common_options
@click.option("--timestep", type=int, multiple=True, help="Restrict to these timesteps.")
@click.option("--power-resolution", type=float, default=0.25, show_default=True)
@click.option("--curtailment-resolution", type=float, default=0.05, show_default=True)
@click.option("--seeds", type=int, default=None, help="Run N seeded random instances instead.")
@click.option("--golden", type=click.Path(exists=True), default=None,
              help="Compare a fresh compute run against this power CSV.")
@click.option("--tolerance", type=float, default=None,
              help="Agreement tolerance in MW (default: one power-resolution step).")
def verify(config, zone, forecast, horizon, season, objective, c1, c2, c3,
           timestep, power_resolution, curtailment_resolution, seeds, golden, tolerance):
    """Cross-check the engine against the brute-force oracles."""
    try:
        if seeds is not None and not golden:
            sys.exit(_verify_seeds(seeds, power_resolution, curtailment_resolution))
        cfg = _load_config(
            config,
            dict(zone=zone, forecast=forecast, horizon=horizon, season=season,
                 objective=objective, c1=c1, c2=c2, c3=c3),
        )
        if golden:
            sys.exit(_verify_golden(cfg, golden))
        sys.exit(
            _verify_fixture(cfg, list(timestep) or None, power_resolution,
                             curtailment_resolution, tolerance)
        )
    except OracleGuardError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_ERROR)
    except (ZoneValidationError, UnstableLpError, ValueError, TypeError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_ERROR)


def _verify_fixture(cfg, timesteps, power_res, curt_res, tolerance) -> int:
    zone, forecast = _load_inputs(cfg)
    config = GridSearchConfig(power_res, curt_res)
    tol = tolerance if tolerance is not None else power_res + 1e-9
    horizon = cfg.horizon if cfg.horizon is not None else len(forecast)
    indices = timesteps if timesteps is not None else range(horizon)
    disagreements = 0
    results = {}
    for t in indices:
        row = forecast[t]
        engine = solve_timestep(zone, row, weights=cfg.weights(), lexicographic=cfg.lexicographic)
        results[t] = engine
        oracle = brute_force_power_bandwidth(zone, row, config=config)
        if engine.congestion_class == CongestionClass.INFEASIBLE:
            ok = oracle is None
            verdict = "infeasible" if ok else "engine infeasible, oracle found a band"
        elif oracle is None:
            ok = False
            verdict = "oracle infeasible, engine found a band"
        else:
            ok = (
                abs(engine.lower_mw - oracle[0]) <= tol
                and abs(engine.upper_mw - oracle[1]) <= tol
            )
            verdict = (
                f"engine [{engine.lower_mw:.4f}, {engine.upper_mw:.4f}] "
                f"oracle [{oracle[0]:.4f}, {oracle[1]:.4f}]"
            )
        click.echo(f"t={t}: {'OK ' if ok else 'DISAGREE '}{verdict}")
        if not ok:
            disagreements += 1

    # energy recursion vs forward-accumulation oracle when the whole horizon
    # was verified and is feasible
    if timesteps is None and all(
        r.congestion_class != CongestionClass.INFEASIBLE for r in results.values()
    ):
        series = [results[t] for t in sorted(results)]
        energy = compute_energy_bandwidths(series, zone)
        fwd_lo, fwd_hi = forward_soc_feasible_set(series, zone)
        worst = max(
            max(abs(a - b) for a, b in zip(fwd_lo, energy.soc_lower_mwh)),
            max(abs(a - b) for a, b in zip(fwd_hi, energy.soc_upper_mwh)),
        )
        ok = worst <= 1e-6
        click.echo(f"energy recursion vs forward oracle: {'OK' if ok else 'DISAGREE'} "
                   f"(max deviation {worst:.2e} MWh)")
        if not ok:
            disagreements += 1

    click.echo(f"{disagreements} disagreement(s)")
    return EXIT_DISAGREEMENT if disagreements else EXIT_OK


def _verify_seeds(n: int, power_res: float, curt_res: float) -> int:
    from .fixtures import random_instance

    config = GridSearchConfig(power_res, curt_res)
    tol = power_res + 1e-9
    disagreements = 0
    for seed in range(n):
        zone, row = random_instance(seed)
        engine = solve_timestep(zone, row)
        oracle = brute_force_power_bandwidth(zone, row, config=config)
        if engine.congestion_class == CongestionClass.INFEASIBLE:
            ok = oracle is None
        elif oracle is None:
            ok = False
        else:
            ok = (
                abs(engine.lower_mw - oracle[0]) <= tol
                and abs(engine.upper_mw - oracle[1]) <= tol
            )
        if not ok:
            disagreements += 1
            click.echo(f"seed {seed}: DISAGREE engine={engine.lower_mw},{engine.upper_mw} oracle={oracle}")
    click.echo(f"{n} seeds, {disagreements} disagreement(s)")
    return EXIT_DISAGREEMENT if disagreements else EXIT_OK


def _verify_golden(cfg: RunConfig, golden) -> int:
    zone, forecast = _load_inputs(cfg)
    results = compute_power_bandwidths(
        zone, forecast, horizon=cfg.horizon, weights=cfg.weights(),
        lexicographic=cfg.lexicographic,
    )
    fresh = power_results_to_csv(results)
    expected = Path(golden).read_text()
    if fresh == expected:
        click.echo("golden matches")
        return EXIT_OK
    click.echo("golden DIFFERS from fresh compute")
    return EXIT_DISAGREEMENT


@main.command("export-lp")
@_common_options
@click.option("--timestep", type=int, required=True)
@click.option("--direction", type=click.Choice(["lower", "upper"]), default="lower", show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Output file (default: stdout).")
def export_lp(config, zone, forecast, horizon, season, objective, c1, c2, c3, timestep, direction, out):
    """Dump one timestep's LP in the textual LP format (debugging aid)."""
    try:
        cfg = _load_config(
            config,
            dict(zone=zone, forecast=forecast, horizon=horizon, season=season,
                 objective=objective, c1=c1, c2=c2, c3=c3),
        )
        z, forecast_series = _load_inputs(cfg)
        row = forecast_series[timestep]
        problem = build_lp(z, row, row.season, Direction(direction), cfg.weights())
        text = problem.lp.to_lp_format()
        if out:
            Path(out).write_text(text)
        else:
            click.echo(text, nl=False)
        sys.exit(EXIT_OK)
    except (ZoneValidationError, ValueError, IndexError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_ERROR)


if __name__ == "__main__":
    main()
