"""Command-line front end.

Subcommands: ``compute`` (bandwidths + reports), ``stats`` (availability
summary), ``verify`` (brute-force cross-checks), ``export-lp`` (textual LP
dump of one timestep problem).

Each subcommand declares only the flags it reads, builds its run config with
:func:`_load_config` and loads its zone and forecast with :func:`_load_inputs`.
A flag given on the command line that the chosen mode cannot use is refused,
``--c1`` under the lexicographic objective included; config-file keys never
are.

Exit codes: 0 success; 1 error (a usage error and a numerically unstable or
unbounded LP included); 2 infeasible timesteps or an empty state-of-charge
corridor present (files are still written); 3 verification disagreement.
``BANDWIDTH_ENGINE_LOG`` is the one log-level setting (a standard level name,
any case; default ``warning``).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import logging
import math
import os
import sys
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

import click
from click.core import ParameterSource

from . import __version__
from .energy_bandwidth import (
    SOC_TOL_MWH, EnergyBandwidthError, EnergyBandwidthResult, compute_energy_bandwidths, energy_results_to_csv,
)
from .grid_model import (
    ForecastSeries, Season, ZoneModel, ZoneValidationError, load_forecast, load_zone,
)
from .lp_core import FEASIBILITY_TOL, PIVOT_TOL
from .oracle import (
    GridSearchConfig, OracleGuardError, brute_force_power_bandwidth, forward_soc_feasible_set,
)
from .power_bandwidth import (
    CongestionClass, Direction, ObjectiveWeights, PowerBandwidthResult, UnstableLpError, build_lp,
    compute_power_bandwidths, fmt6, power_results_to_csv,
)
from .statistics import binding_lines_to_csv, summarize

logger = logging.getLogger("bandwidth_engine")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_DISAGREEMENT = 3

# the errors a bad flag, a bad input or a solver failure raise
_KNOWN_ERRORS = (
    click.ClickException, ZoneValidationError, EnergyBandwidthError, UnstableLpError,
    OracleGuardError, ValueError, OSError,
)


def _setup_logging() -> None:
    """The log level from ``BANDWIDTH_ENGINE_LOG`` (default ``warning``)."""
    env = os.environ.get("BANDWIDTH_ENGINE_LOG") or "warning"
    names = ("debug", "info", "warning", "error", "critical")
    if env.lower() not in names:
        raise click.ClickException(f"BANDWIDTH_ENGINE_LOG must be one of {', '.join(names)}, not {env!r}")
    logging.basicConfig(level=getattr(logging, env.upper()), format="%(levelname)s %(name)s: %(message)s")


@dataclass
class RunConfig:
    zone: str | None = None
    forecast: str | None = None
    out: str = "out"
    horizon: int | None = None
    objective: str = "weighted"  # or "lexicographic"
    c1: float = ObjectiveWeights.preventive_curtailment
    c2: float = ObjectiveWeights.curative_battery
    c3: float = ObjectiveWeights.curative_curtailment
    season: str | None = None  # override every row's season tag

    def validate(self) -> None:
        if self.objective not in ("weighted", "lexicographic"):
            raise ValueError(f"unknown objective mode {self.objective!r}")
        self.weights().validate()
        if self.season is not None:
            Season(self.season)

    def weights(self) -> ObjectiveWeights:
        return ObjectiveWeights(self.c1, self.c2, self.c3)

    @property
    def lexicographic(self) -> bool:
        return self.objective == "lexicographic"


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}
_CONFIG_TYPES = typing.get_type_hints(RunConfig)


def _load_config(params: dict) -> RunConfig:
    """The run config: the ``--config`` file, overridden by every flag given.

    ``params`` is click's parameter dict; entries that are not config keys are
    left to the subcommand. A subcommand that takes ``--objective`` refuses
    ``--c1`` under the lexicographic objective, which weighs no preventive
    curtailment.
    """
    base = json.loads(Path(params["config"]).read_text()) if params.get("config") else {}
    if not isinstance(base, dict) or not set(base) <= _CONFIG_KEYS:
        raise ValueError(
            f"{params['config']}: a config file is a JSON object with keys among "
            f"{', '.join(sorted(_CONFIG_KEYS))}"
        )
    for key, value in base.items():
        want = _CONFIG_TYPES[key]
        widened = want is float and isinstance(value, int)  # an int passes for a float
        if isinstance(value, bool) or not (widened or isinstance(value, want)):
            raise ValueError(
                f"{params['config']}: {key} must be {getattr(want, '__name__', want)}, "
                f"not {json.dumps(value)}"
            )
    base.update({k: v for k, v in params.items() if k in _CONFIG_KEYS and v is not None})
    cfg = RunConfig(**base)
    if "objective" in params and cfg.lexicographic:
        _refuse(("c1",), "--objective lexicographic")
    cfg.validate()
    return cfg


def _load_inputs(cfg: RunConfig) -> tuple[ZoneModel, ForecastSeries]:
    """The zone and its forecast, cut to the horizon, every row's season
    overridden if asked."""
    for name in ("zone", "forecast"):
        if getattr(cfg, name) is None:
            raise click.UsageError(f"no {name} given: pass --{name} or set it in --config")
    zone = load_zone(cfg.zone)
    forecast = load_forecast(cfg.forecast, zone)
    if cfg.horizon is not None:
        if not 1 <= cfg.horizon <= len(forecast):
            raise ValueError(
                f"horizon {cfg.horizon} is outside the forecast's 1 to {len(forecast)} timesteps"
            )
        forecast = ForecastSeries(forecast.rows[: cfg.horizon])
    if cfg.season is not None:
        season = Season(cfg.season)
        forecast = ForecastSeries(tuple(replace(r, season=season) for r in forecast))
    return zone, forecast


def _check_timesteps(timesteps, forecast: ForecastSeries) -> None:
    for t in timesteps:
        if not 0 <= t < len(forecast):
            raise ValueError(f"timestep {t} is outside the forecast's 0 to {len(forecast) - 1}")


def _power_bandwidths(cfg: RunConfig) -> tuple[ZoneModel, list[PowerBandwidthResult]]:
    zone, forecast = _load_inputs(cfg)
    logger.info("computing %d timesteps", len(forecast))
    return zone, compute_power_bandwidths(zone, forecast, weights=cfg.weights(), lexicographic=cfg.lexicographic)


def _refuse(names: tuple[str, ...], mode: str) -> None:
    """Refuse each of ``names`` given on the command line: ``mode`` cannot use it.

    Config-file keys are not refused: one config file serves every subcommand.
    """
    ctx = click.get_current_context()
    for param in ctx.command.params:
        if param.name in names and ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE:
            raise click.UsageError(f"{param.opts[0]} has no effect with {mode}")


@contextlib.contextmanager
def _error_boundary():
    """Turn every known error into one ``error:`` line and exit 1.

    Click would exit 2 on a usage error, which here reads as "infeasible
    timesteps present".
    """
    try:
        yield
    except _KNOWN_ERRORS as exc:
        message = exc.format_message() if isinstance(exc, click.ClickException) else exc
        click.echo(f"error: {message}", err=True)
        sys.exit(EXIT_ERROR)


class _Cli(click.Group):
    """The command group; parsing and every subcommand run inside the error boundary."""

    def make_context(self, *args, **kwargs):
        with _error_boundary():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _error_boundary():
            return super().invoke(ctx)


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@click.group(cls=_Cli, no_args_is_help=False)
def main() -> None:
    """Day-ahead battery operating bandwidths for congestion management."""
    _setup_logging()


_OPTIONS = {
    "config": click.option("--config", type=click.Path(exists=True),
                           help="JSON run config (keys as the flags; flags win)."),
    "zone": click.option("--zone", type=click.Path(), help="Zone JSON file."),
    "forecast": click.option("--forecast", type=click.Path(), help="Forecast CSV file."),
    "horizon": click.option("--horizon", type=int, help="Number of timesteps (default: all)."),
    "season": click.option("--season", type=click.Choice(["summer", "winter"]),
                           help="Override every row's season."),
    "objective": click.option("--objective", type=click.Choice(["weighted", "lexicographic"])),
    "c1": click.option("--c1", type=float, help="Preventive curtailment weight."),
    "c2": click.option("--c2", type=float, help="Curative battery weight."),
    "c3": click.option("--c3", type=float, help="Curative curtailment weight."),
}
_RUN_FLAGS = ("config", "zone", "forecast", "horizon", "season", "objective", "c1", "c2", "c3")


def _options(*names: str):
    """Declare the shared options ``names``, listed in this order."""

    def apply(f):
        for name in reversed(names):
            f = _OPTIONS[name](f)
        return f

    return apply


@main.command()
@_options(*_RUN_FLAGS)
@click.option("--out", type=click.Path(), help="Output directory.")
def compute(**params):
    """Compute power and energy bandwidths and write reports."""
    sys.exit(_run_compute(_load_config(params)))


def _energy(results: list[PowerBandwidthResult], zone: ZoneModel) -> tuple[EnergyBandwidthResult | None, list[int]]:
    """The energy bandwidths and the boundaries whose state-of-charge
    corridor is empty; none of either if a timestep is infeasible."""
    if any(r.congestion_class == CongestionClass.INFEASIBLE for r in results):
        return None, []
    energy = compute_energy_bandwidths(results, zone)
    return energy, list(energy.infeasible_boundaries)


def _run_compute(cfg: RunConfig) -> int:
    zone, results = _power_bandwidths(cfg)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "power_bandwidth.csv").write_text(power_results_to_csv(results))

    failed = [r for r in results if r.congestion_class == CongestionClass.INFEASIBLE]
    energy, empty = _energy(results, zone)
    if energy is not None:
        timestamps = [r.timestamp for r in results]
        (out / "energy_bandwidth.csv").write_text(energy_results_to_csv(energy, timestamps))
    else:
        (out / "energy_bandwidth.csv").unlink(missing_ok=True)  # an earlier run's
        logger.warning(
            "%d infeasible timestep(s): %s — energy bandwidths skipped",
            len(failed),
            ", ".join(str(r.index) for r in failed[:10]),
        )
    if empty:
        logger.warning(
            "empty state-of-charge corridor at %d boundary(ies): %s — no trajectory stays inside the bandwidths",
            len(empty),
            ", ".join(map(str, empty[:10])),
        )

    (out / "merged_report.csv").write_text(_merged_report(results, energy))

    manifest = {
        "engine_version": __version__,
        "inputs": {
            "zone": {"path": str(cfg.zone), "sha256": _sha256(cfg.zone)},
            "forecast": {"path": str(cfg.forecast), "sha256": _sha256(cfg.forecast)},
        },
        "horizon": len(results),
        "objective": cfg.objective,
        "weights": {"c1": cfg.c1, "c2": cfg.c2, "c3": cfg.c3},
        "season_override": cfg.season,
        "tolerances": {"lp_feasibility": FEASIBILITY_TOL, "lp_pivot": PIVOT_TOL},
        "outputs": ["power_bandwidth.csv"]
        + (["energy_bandwidth.csv"] if energy is not None else [])
        + ["merged_report.csv"],
        "infeasible_timesteps": [r.index for r in failed],
        "empty_soc_boundaries": empty,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    return EXIT_INFEASIBLE if failed or empty else EXIT_OK


MERGED_HEADER = [
    "timestamp", "season", "B_lower_mw", "B_upper_mw", "soc_lower_start_mwh",
    "soc_upper_start_mwh", "curative_charge_worst_mw", "curative_discharge_worst_mw",
    "preventive_curtailment_mw", "congestion_class", "binding_constraint",
]


def _merged_report(results, energy) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MERGED_HEADER)
    for i, r in enumerate(results):
        soc_lo = energy.soc_lower_mwh[i] if energy is not None else math.nan
        soc_hi = energy.soc_upper_mwh[i] if energy is not None else math.nan
        floats = (r.lower_mw, r.upper_mw, soc_lo, soc_hi, r.curative_charge_worst_mw,
                  r.curative_discharge_worst_mw, r.preventive_curtailment_mw)
        writer.writerow([r.timestamp, r.season, *map(fmt6, floats), r.congestion_class.value,
                         r.binding_constraint or ""])
    return buf.getvalue()


@main.command()
@_options(*_RUN_FLAGS)
@click.option("--results", type=click.Path(exists=True),
              help="Directory of a prior compute run (reads merged_report.csv).")
@click.option("--json", "as_json", is_flag=True, help="Emit the JSON report.")
@click.option("--binding-csv", type=click.Path(),
              help="Also write the per-line binding-constraint histogram CSV here.")
def stats(results, as_json, binding_csv, **params):
    """Availability statistics (runs compute, or summarizes a prior run)."""
    if results:
        _refuse(tuple(params), "--results")
        rows, empty = _read_merged(Path(results) / "merged_report.csv")
    else:
        zone, rows = _power_bandwidths(_load_config(params))
        empty = _energy(rows, zone)[1]
    report = summarize(rows)
    if binding_csv:
        Path(binding_csv).write_text(binding_lines_to_csv(report))
    if as_json:
        click.echo(json.dumps({**report.to_dict(), "empty_soc_boundaries": empty}, indent=2))
    else:
        listed = f": {', '.join(map(str, empty))}" if empty else ""
        click.echo(f"{report.to_text()}Empty state-of-charge corridor at {len(empty)} boundaries{listed}")
    sys.exit(EXIT_OK)


def _read_merged(path: Path) -> tuple[list[PowerBandwidthResult], list[int]]:
    """Minimal result objects from a merged report, enough for summarize(),
    and the boundaries whose state-of-charge columns cross."""
    rows, empty = [], []
    with path.open() as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != MERGED_HEADER:
            raise ValueError(f"{path} is not a merged report")
        for i, rec in enumerate(reader):
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
            soc_lo, soc_hi = rec["soc_lower_start_mwh"], rec["soc_upper_start_mwh"]
            if soc_lo and soc_hi and float(soc_lo) > float(soc_hi) + SOC_TOL_MWH:
                empty.append(i)
    return rows, empty


@main.command()
@_options(*_RUN_FLAGS)
@click.option("--timestep", type=int, multiple=True, help="Restrict to these timesteps.")
@click.option("--power-resolution", type=float, default=0.25, show_default=True)
@click.option("--curtailment-resolution", type=float, default=0.05, show_default=True)
@click.option("--seeds", type=click.IntRange(min=1), help="Run N seeded random instances instead.")
@click.option("--golden", type=click.Path(exists=True),
              help="Compare a fresh compute run against this power CSV.")
@click.option("--tolerance", type=float,
              help="Agreement tolerance in MW (default: one power-resolution step).")
def verify(timestep, power_resolution, curtailment_resolution, seeds, golden, tolerance, **params):
    """Cross-check the engine against the brute-force oracles."""
    cfg = _load_config(params)
    if golden:
        _refuse(("timestep", "power_resolution", "curtailment_resolution", "tolerance", "seeds"),
                "--golden")
        sys.exit(_verify_golden(cfg, golden))
    grid = GridSearchConfig(power_resolution, curtailment_resolution)
    tol = tolerance if tolerance is not None else power_resolution + 1e-9
    if seeds is not None:
        _refuse(("zone", "forecast", "season", "horizon", "timestep"), "--seeds")
        sys.exit(_verify_seeds(cfg, seeds, grid, tol))
    sys.exit(_verify_fixture(cfg, list(timestep) or None, grid, tol))


def _agreement(engine: PowerBandwidthResult, oracle, tol: float) -> tuple[bool, str]:
    """Whether the engine's band matches the grid-search oracle's, and a verdict."""
    if engine.congestion_class == CongestionClass.INFEASIBLE:
        ok = oracle is None
        return ok, "infeasible" if ok else "engine infeasible, oracle found a band"
    if oracle is None:
        return False, "oracle infeasible, engine found a band"
    ok = abs(engine.lower_mw - oracle[0]) <= tol and abs(engine.upper_mw - oracle[1]) <= tol
    return ok, (
        f"engine [{engine.lower_mw:.4f}, {engine.upper_mw:.4f}] "
        f"oracle [{oracle[0]:.4f}, {oracle[1]:.4f}]"
    )


def _verify_fixture(cfg: RunConfig, timesteps, grid: GridSearchConfig, tol: float) -> int:
    zone, forecast = _load_inputs(cfg)
    if timesteps is not None:
        _check_timesteps(timesteps, forecast)
    checked = timesteps if timesteps is not None else range(len(forecast))
    rows = [forecast[t] for t in checked]
    series = compute_power_bandwidths(zone, rows, weights=cfg.weights(), lexicographic=cfg.lexicographic)
    disagreements = 0
    for t, row, engine in zip(checked, rows, series):
        ok, verdict = _agreement(engine, brute_force_power_bandwidth(zone, row, config=grid), tol)
        click.echo(f"t={t}: {'OK ' if ok else 'DISAGREE '}{verdict}")
        if not ok:
            disagreements += 1

    # energy recursion vs forward-accumulation oracle when the whole horizon
    # was verified and is feasible
    if timesteps is None and all(r.congestion_class != CongestionClass.INFEASIBLE for r in series):
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


def _verify_seeds(cfg: RunConfig, n: int, grid: GridSearchConfig, tol: float) -> int:
    from .fixtures import random_instance

    disagreements = 0
    for seed in range(n):
        zone, row = random_instance(seed)
        [engine] = compute_power_bandwidths(zone, [row], weights=cfg.weights(), lexicographic=cfg.lexicographic)
        oracle = brute_force_power_bandwidth(zone, row, config=grid)
        if not _agreement(engine, oracle, tol)[0]:
            disagreements += 1
            click.echo(f"seed {seed}: DISAGREE engine={engine.lower_mw},{engine.upper_mw} oracle={oracle}")
    click.echo(f"{n} seeds, {disagreements} disagreement(s)")
    return EXIT_DISAGREEMENT if disagreements else EXIT_OK


def _verify_golden(cfg: RunConfig, golden) -> int:
    fresh = power_results_to_csv(_power_bandwidths(cfg)[1])
    if fresh == Path(golden).read_text():
        click.echo("golden matches")
        return EXIT_OK
    click.echo("golden DIFFERS from fresh compute")
    return EXIT_DISAGREEMENT


@main.command("export-lp")
@_options("config", "zone", "forecast", "season", "c1", "c2", "c3")
@click.option("--timestep", type=int, required=True)
@click.option("--direction", type=click.Choice(["lower", "upper"]), default="lower", show_default=True)
@click.option("--out", "lp_file", type=click.Path(),
              help="Output file (default: stdout).")
def export_lp(timestep, direction, lp_file, **params):
    """Dump one timestep's weighted LP in the textual LP format (debugging aid)."""
    cfg = _load_config(params)
    zone, forecast = _load_inputs(cfg)
    _check_timesteps([timestep], forecast)
    row = forecast[timestep]
    text = build_lp(zone, row, row.season, Direction(direction), cfg.weights()).lp.to_lp_format()
    if lp_file:
        Path(lp_file).write_text(text)
    else:
        click.echo(text, nl=False)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
