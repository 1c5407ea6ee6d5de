"""Command-line behavior: exit codes, files, determinism, verification."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import bandwidth_engine
from bandwidth_engine import grid_model
from bandwidth_engine.cli import RunConfig, main
from bandwidth_engine.fixtures import (
    day_forecast_rows,
    reference_full_network,
    write_forecast_csv,
)
from bandwidth_engine.grid_model import ForecastSeries, Season, TimestepForecast
from bandwidth_engine.power_bandwidth import ObjectiveWeights

GOLDENS = Path(__file__).resolve().parent / "goldens"


@pytest.fixture(scope="module")
def forecast_paths(zone_path, tmp_path_factory):
    from bandwidth_engine.fixtures import reference_zone

    zone = reference_zone()
    d = tmp_path_factory.mktemp("forecasts")
    paths = {}
    for kind in ("summer_day", "winter_day"):
        p = d / f"{kind}.csv"
        write_forecast_csv(zone, day_forecast_rows(zone, kind), p)
        paths[kind] = p
    return paths


def _run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def test_compute_writes_reports(zone_path, forecast_paths, tmp_path):
    out = tmp_path / "run"
    res = _run("compute", "--zone", zone_path, "--forecast", forecast_paths["winter_day"], "--out", out)
    assert res.exit_code == 0, res.output
    for name in ("power_bandwidth.csv", "energy_bandwidth.csv", "merged_report.csv", "manifest.json"):
        assert (out / name).exists()
    assert (out / "power_bandwidth.csv").read_text() == (GOLDENS / "winter_day_power.csv").read_text()
    assert (out / "energy_bandwidth.csv").read_text() == (GOLDENS / "winter_day_energy.csv").read_text()
    manifest = (out / "manifest.json").read_text()
    assert "sha256" in manifest and "weights" in manifest
    assert json.loads(manifest)["empty_soc_boundaries"] == []


def test_compute_summer_matches_golden(zone_path, forecast_paths, tmp_path):
    out = tmp_path / "run"
    res = _run("compute", "--zone", zone_path, "--forecast", forecast_paths["summer_day"], "--out", out)
    assert res.exit_code == 0, res.output
    assert (out / "power_bandwidth.csv").read_text() == (GOLDENS / "summer_day_power.csv").read_text()
    assert (out / "energy_bandwidth.csv").read_text() == (GOLDENS / "summer_day_energy.csv").read_text()
    assert json.loads((out / "manifest.json").read_text())["empty_soc_boundaries"] == []


def test_compute_is_deterministic(zone_path, forecast_paths, tmp_path):
    outs = []
    for i in (1, 2):
        out = tmp_path / f"run{i}"
        res = _run("compute", "--zone", zone_path, "--forecast", forecast_paths["winter_day"], "--out", out)
        assert res.exit_code == 0
        outs.append(out)
    for name in ("power_bandwidth.csv", "energy_bandwidth.csv", "merged_report.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_compute_missing_input_exits_1(tmp_path):
    res = _run("compute", "--zone", tmp_path / "nope.json", "--forecast", tmp_path / "nope.csv", "--out", tmp_path / "o")
    assert res.exit_code == 1
    assert "error" in res.output


def test_compute_empty_forecast_exits_1(zone_path, tmp_path):
    fc = tmp_path / "empty.csv"
    fc.write_text("")
    res = _run("compute", "--zone", zone_path, "--forecast", fc, "--out", tmp_path / "o")
    assert res.exit_code == 1


def test_compute_infeasible_exits_2(zone_path, forecast_paths, tmp_path):
    """Also into a directory that holds an earlier run's energy file, which
    the infeasible run removes: it writes no energy bandwidths."""
    from bandwidth_engine.fixtures import reference_zone

    zone = reference_zone()
    full = reference_full_network()
    injections = {"alpha": 0.0, "beta": 0.0, "gamma": 0.0, "delta": 0.0, "west": 1400.0}
    base = full.flows(injections)
    out_flows = full.without("gamma-delta").flows(injections)
    row = TimestepForecast(
        index=0,
        timestamp="t0",
        season=Season.SUMMER,
        injections_mw={b: 0.0 for b in zone.bus_ids()},
        curtailable_max_mw={b: 0.0 for b in zone.bus_ids()},
        ref_normal_mw={"alpha-west": base["alpha-west"], "delta-east": base["delta-east"]},
        ref_contingency_mw={
            "gamma-delta-outage": {
                "alpha-west": out_flows["alpha-west"],
                "delta-east": out_flows["delta-east"],
            }
        },
    )
    fc = tmp_path / "hot.csv"
    write_forecast_csv(zone, ForecastSeries((row,)), fc)
    out = tmp_path / "o"
    assert _run("compute", "--zone", zone_path, "--forecast", forecast_paths["winter_day"], "--out", out).exit_code == 0
    assert (out / "energy_bandwidth.csv").exists()
    res = _run("compute", "--zone", zone_path, "--forecast", fc, "--out", out)
    assert res.exit_code == 2
    # power CSV still written, with the infeasible class recorded
    text = (out / "power_bandwidth.csv").read_text()
    assert "infeasible" in text
    assert not (out / "energy_bandwidth.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["power_bandwidth.csv", "merged_report.csv"]
    assert manifest["infeasible_timesteps"] == [0] and manifest["empty_soc_boundaries"] == []


def test_empty_soc_corridor_is_reported(zone_path, tmp_path, caplog):
    """Synthetic-year day 2023-01-02: every hour has a band, but mandatory
    charge leaves no state-of-charge trajectory at boundaries 17-19. compute
    still writes every file, lists the boundaries in the manifest, logs one
    warning and exits 2; stats counts them, from a fresh run and from the
    merged report."""
    from bandwidth_engine.fixtures import reference_zone, synthetic_year_rows

    zone = reference_zone()
    fc = tmp_path / "day.csv"
    write_forecast_csv(zone, ForecastSeries(synthetic_year_rows(zone).rows[24:48]), fc)
    out = tmp_path / "o"
    res = _run("compute", "--zone", zone_path, "--forecast", fc, "--out", out)
    assert res.exit_code == 2, res.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["empty_soc_boundaries"] == [17, 18, 19] and manifest["infeasible_timesteps"] == []
    assert manifest["outputs"] == ["power_bandwidth.csv", "energy_bandwidth.csv", "merged_report.csv"]
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [
        "empty state-of-charge corridor at 3 boundary(ies): 17, 18, 19 — no trajectory stays inside the bandwidths"
    ]
    line = "Empty state-of-charge corridor at 3 boundaries: 17, 18, 19"
    for args in (("--zone", zone_path, "--forecast", fc), ("--results", out)):
        res = _run("stats", *args)
        assert res.exit_code == 0, res.output
        assert res.output.splitlines()[-1] == line
    res = _run("stats", "--results", out, "--json")
    assert json.loads(res.output)["empty_soc_boundaries"] == [17, 18, 19]


def test_config_file_with_flag_overrides(zone_path, forecast_paths, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"zone": "%s", "forecast": "%s", "out": "%s", "horizon": 2}\n'
        % (zone_path, forecast_paths["winter_day"], tmp_path / "base_out")
    )
    out = tmp_path / "override_out"
    res = _run("compute", "--config", cfg, "--out", out, "--horizon", 3)
    assert res.exit_code == 0
    assert len((out / "power_bandwidth.csv").read_text().splitlines()) == 4  # header + 3


def test_stats_command(zone_path, forecast_paths):
    res = _run("stats", "--zone", zone_path, "--forecast", forecast_paths["winter_day"], "--json")
    assert res.exit_code == 0, res.output
    assert '"winter"' in res.output
    assert '"fraction_congestion"' in res.output


def test_stats_from_prior_run(zone_path, forecast_paths, tmp_path):
    out = tmp_path / "run"
    assert _run("compute", "--zone", zone_path, "--forecast", forecast_paths["winter_day"], "--out", out).exit_code == 0
    res = _run("stats", "--results", out)
    assert res.exit_code == 0, res.output
    assert "winter" in res.output and "fully available" in res.output
    assert res.output.splitlines()[-1] == "Empty state-of-charge corridor at 0 boundaries"


def test_verify_fixture_timesteps(zone_path, forecast_paths):
    res = _run(
        "verify", "--zone", zone_path, "--forecast", forecast_paths["summer_day"],
        "--timestep", 7, "--timestep", 11,
        "--power-resolution", 0.05, "--curtailment-resolution", 0.5,
    )
    assert res.exit_code == 0, res.output
    assert "0 disagreement(s)" in res.output


def test_verify_seed_sweep():
    res = _run("verify", "--seeds", 8)
    assert res.exit_code == 0, res.output
    assert "8 seeds, 0 disagreement(s)" in res.output


def test_verify_golden_match_and_corruption(zone_path, forecast_paths, tmp_path):
    res = _run("verify", "--zone", zone_path, "--forecast", forecast_paths["winter_day"],
               "--golden", GOLDENS / "winter_day_power.csv")
    assert res.exit_code == 0, res.output

    corrupted = tmp_path / "corrupted.csv"
    text = (GOLDENS / "winter_day_power.csv").read_text()
    corrupted.write_text(text.replace("9.000000", "8.500000"))
    res = _run("verify", "--zone", zone_path, "--forecast", forecast_paths["winter_day"],
               "--golden", corrupted)
    assert res.exit_code == 3
    assert "DIFFERS" in res.output


def test_export_lp(zone_path, forecast_paths, tmp_path):
    out = tmp_path / "problem.lp"
    res = _run("export-lp", "--zone", zone_path, "--forecast", forecast_paths["summer_day"],
               "--timestep", 7, "--direction", "lower", "--out", out)
    assert res.exit_code == 0, res.output
    text = out.read_text()
    assert "Minimize" in text and "batt" in text
    # a rating row is named by its binding label: this hour's, from the golden
    rows = text.split("Subject To\n")[1].split("Bounds\n")[0].splitlines()
    names = [line.strip().split(": ", 1)[0] for line in rows]
    golden = list(csv.DictReader((GOLDENS / "summer_day_power.csv").read_text().splitlines()))[7]["binding_constraint"]
    assert golden == "gamma-delta:normal:permanent"
    assert f"rating_hi:{golden}" in names and f"rating_lo:{golden}" in names


def test_export_lp_bad_timestep_exits_1(zone_path, forecast_paths):
    res = _run("export-lp", "--zone", zone_path, "--forecast", forecast_paths["summer_day"], "--timestep", 99)
    assert res.exit_code == 1


def test_stats_season_override_is_applied(zone_path, forecast_paths):
    res = _run("stats", "--zone", zone_path, "--forecast", forecast_paths["winter_day"],
               "--season", "summer", "--json")
    assert res.exit_code == 0, res.output
    assert list(json.loads(res.output)["by_season"]) == ["summer"]


def test_compute_numerically_unstable_lp_exits_1(zone_path, forecast_paths, tmp_path, monkeypatch):
    """A solver failure is an error, not an infeasible (strong congestion) row."""
    import math

    from bandwidth_engine import power_bandwidth
    from bandwidth_engine.lp_core import LpSolution, SolveStatus

    unstable = LpSolution(SolveStatus.NUMERICALLY_UNSTABLE, math.nan)
    monkeypatch.setattr(power_bandwidth, "solve", lambda lp, **kw: unstable)
    res = _run("compute", "--zone", zone_path, "--forecast", forecast_paths["summer_day"],
               "--out", tmp_path / "o")
    assert res.exit_code == 1
    assert "numerically unstable" in res.output


def test_compute_stalled_lp_exits_1(zone_path, forecast_paths, tmp_path, monkeypatch):
    """The real solver, capped at one pivot, stalls in the first LP's phase
    one: one error line, exit 1 and no output written."""
    from bandwidth_engine import lp_core

    monkeypatch.setattr(lp_core, "MAX_ITERATIONS", 1)
    out = tmp_path / "o"
    res = _run("compute", "--zone", zone_path, "--forecast", forecast_paths["summer_day"], "--out", out)
    assert res.exit_code == 1
    assert res.output.splitlines() == [
        "error: timestep 0 (2023-06-14T00:00): the lower-bound LP is numerically unstable"
    ]
    assert not out.exists()


def test_compute_unbounded_lp_exits_1(zone_path, forecast_paths, tmp_path, monkeypatch):
    """Every bandwidth LP has a bounded objective: ``unbounded`` is a solver
    failure, not an infeasible row."""
    import math

    from bandwidth_engine import power_bandwidth
    from bandwidth_engine.lp_core import LpSolution, SolveStatus

    unbounded = LpSolution(SolveStatus.UNBOUNDED, -math.inf)
    monkeypatch.setattr(power_bandwidth, "solve", lambda lp, **kw: unbounded)
    res = _run("compute", "--zone", zone_path, "--forecast", forecast_paths["summer_day"],
               "--out", tmp_path / "o")
    assert res.exit_code == 1
    assert "error: timestep 0 (2023-06-14T00:00): the lower-bound LP is unbounded" in res.output


def test_verify_fixture_honours_horizon(zone_path, forecast_paths):
    res = _run("verify", "--zone", zone_path, "--forecast", forecast_paths["summer_day"],
               "--horizon", 2, "--power-resolution", 0.05, "--curtailment-resolution", 0.5)
    assert res.exit_code == 0, res.output
    assert [line.split(":")[0] for line in res.output.splitlines() if line.startswith("t=")] == [
        "t=0", "t=1",
    ]


@pytest.mark.parametrize("timesteps", [[], [7, 3, 7]], ids=["all", "repeats"])
def test_verify_fixture_solves_in_one_compute_call(zone_path, forecast_paths, monkeypatch, timesteps):
    """Fixture mode checks the path ``compute`` runs: one
    ``compute_power_bandwidths`` call over the checked rows (all of them, or
    the ``--timestep`` ones in the given order, repeats kept)."""
    from bandwidth_engine import cli

    calls = []
    real = cli.compute_power_bandwidths
    monkeypatch.setattr(
        cli, "compute_power_bandwidths",
        lambda zone, rows, **kw: calls.append([r.index for r in rows]) or real(zone, rows, **kw),
    )
    args = [a for t in timesteps for a in ("--timestep", t)]
    res = _run("verify", "--zone", zone_path, "--forecast", forecast_paths["summer_day"], *args,
               "--curtailment-resolution", 0.5)
    assert res.exit_code == 0, res.output
    assert calls == [timesteps or list(range(24))]
    assert [line.split(":")[0] for line in res.output.splitlines() if line.startswith("t=")] == [
        f"t={t}" for t in calls[0]
    ]


@pytest.mark.parametrize("golden", [False, True], ids=["fixture", "golden"])
def test_verify_honours_objective(zone_path, forecast_paths, monkeypatch, golden):
    """Both verify modes solve under the weights given and with the check that
    curtailment comes first: at ``--c1 0.5`` the summer day's 06:00 curtails
    more than it must, and verify exits 1 on the check's error line, as
    ``compute`` does."""
    from bandwidth_engine import cli

    seen = []
    real = cli.compute_power_bandwidths
    monkeypatch.setattr(cli, "compute_power_bandwidths", lambda *a, **kw: seen.append(kw["weights"]) or real(*a, **kw))
    mode = (["--golden", GOLDENS / "summer_day_power.csv"] if golden
            else ["--timestep", 6, "--power-resolution", 0.05, "--curtailment-resolution", 0.5])
    res = _run("verify", "--zone", zone_path, "--forecast", forecast_paths["summer_day"], "--c1", 0.5, *mode)
    assert res.exit_code == 1, res.output
    [line] = res.output.splitlines()
    assert line.startswith("error: timestep 6 (2023-06-14T06:00): the lower-bound LP curtails 10.000000 MW")
    assert [w.preventive_curtailment for w in seen] == [0.5]


@pytest.mark.parametrize("flag", ["config", "season", "weights"])
def test_verify_golden_honours_flag(zone_path, forecast_paths, tmp_path, flag):
    """A golden written by compute with a flag matches verify with that flag."""
    if flag == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"zone": str(zone_path), "forecast": str(forecast_paths["winter_day"]), "horizon": 3}
        ))
        inputs = ["--config", cfg]
    else:
        inputs = ["--zone", zone_path, "--forecast", forecast_paths["winter_day"]]
        inputs += {"season": ["--season", "summer"], "weights": ["--c3", 0.5]}[flag]
    out = tmp_path / "run"
    assert _run("compute", *inputs, "--out", out).exit_code in (0, 2)
    golden = out / "power_bandwidth.csv"
    assert golden.read_text() != (GOLDENS / "winter_day_power.csv").read_text()
    res = _run("verify", *inputs, "--golden", golden)
    assert res.exit_code == 0, res.output
    assert "golden matches" in res.output


# ---------------------------------------------------------------------------
# one CLI path: every flag given is either used or refused, every failure is
# one `error:` line and exit 1
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["stats", "export-lp"])
def test_missing_zone_is_an_error_line(forecast_paths, command):
    extra = ["--timestep", 1] if command == "export-lp" else []
    res = _run(command, "--forecast", forecast_paths["summer_day"], *extra)
    assert res.exit_code == 1
    assert "error: no zone given" in res.output
    assert "Traceback" not in res.output


def test_verify_seeds_honours_objective_and_weights(monkeypatch):
    from bandwidth_engine import cli

    seen = []
    real = cli.compute_power_bandwidths
    monkeypatch.setattr(cli, "compute_power_bandwidths", lambda *a, **kw: seen.append(kw) or real(*a, **kw))
    res = _run("verify", "--seeds", 2, "--c2", 0.5)
    assert res.exit_code == 0, res.output
    assert len(seen) == 2
    for kw in seen:
        assert kw["weights"].curative_battery == 0.5


def test_verify_seeds_honours_tolerance():
    assert _run("verify", "--seeds", 4).exit_code == 0
    res = _run("verify", "--seeds", 4, "--tolerance", 1e-6)
    assert res.exit_code == 3, res.output
    assert "seed 1: DISAGREE" in res.output


MODES = {
    "--results": ["stats", "--results", "{run}"],
    "--seeds": ["verify", "--seeds", 2],
    "--golden": ["verify", "--zone", "{zone}", "--forecast", "{forecast}", "--golden", "{golden}"],
}
REFUSED = [
    ("--results", "--zone", "{zone}"), ("--results", "--season", "summer"), ("--results", "--c1", 0.1),
    ("--results", "--horizon", 2),
    ("--seeds", "--zone", "{zone}"), ("--seeds", "--forecast", "{forecast}"), ("--seeds", "--season", "winter"),
    ("--seeds", "--horizon", 3), ("--seeds", "--timestep", 1),
    ("--golden", "--timestep", 1), ("--golden", "--power-resolution", 0.25), ("--golden", "--tolerance", 0.1),
    ("--golden", "--seeds", 2),
]


@pytest.fixture(scope="module")
def prior_run(zone_path, forecast_paths, tmp_path_factory):
    out = tmp_path_factory.mktemp("prior") / "run"
    res = _run("compute", "--zone", zone_path, "--forecast", forecast_paths["summer_day"], "--out", out)
    assert res.exit_code == 0, res.output
    return out


@pytest.mark.parametrize("mode, flag, value", REFUSED, ids=[f"{m} {f}" for m, f, _ in REFUSED])
def test_flag_the_mode_cannot_use_is_refused(zone_path, forecast_paths, prior_run, mode, flag, value):
    values = dict(run=prior_run, zone=zone_path, forecast=forecast_paths["summer_day"],
                  golden=GOLDENS / "summer_day_power.csv")
    res = _run(*(str(a).format(**values) for a in [*MODES[mode], flag, value]))
    assert res.exit_code == 1, res.output
    assert f"error: {flag} has no effect with {mode}" in res.output


SHORT_RUNS = {  # each command that takes the weights, cut short
    "compute": ["compute", "--zone", "{zone}", "--forecast", "{forecast}", "--horizon", 2, "--out", "{out}"],
    "stats": ["stats", "--zone", "{zone}", "--forecast", "{forecast}", "--horizon", 2],
    "verify": ["verify", "--seeds", 1],
}


CONFIG_KEYS_MESSAGE = "a config file is a JSON object with keys among c1, c2, c3, forecast, horizon, out, season, zone"


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", list(SHORT_RUNS))
def test_c1_is_refused_under_the_lexicographic_objective(zone_path, forecast_paths, tmp_path, command, source):
    """There is no lexicographic objective: a run that asks for it, with
    ``--c1``, is refused and writes nothing, whether it asks by
    ``--objective`` (an unknown option, as on every command) or by a config
    file's ``objective`` (an unknown key)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"objective": "lexicographic"}))
    values = dict(zone=zone_path, forecast=forecast_paths["winter_day"], out=tmp_path / "o")
    objective = ["--objective", "lexicographic"] if source == "flag" else ["--config", cfg]
    res = _run(*(str(a).format(**values) for a in [*SHORT_RUNS[command], *objective, "--c1", 0.5]))
    assert res.exit_code == 1, res.output
    [line] = res.output.splitlines()
    if source == "flag":
        assert line.startswith("error: No such option '--objective'.")
    else:
        assert line == f"error: {cfg}: {CONFIG_KEYS_MESSAGE}"
    assert not (tmp_path / "o").exists()


WEIGHT_FLAGS = {"--c1": 2.0e4, "--c2": 0.5, "--c3": 0.5, "--config": None}


@pytest.mark.parametrize("flag", list(WEIGHT_FLAGS), ids=lambda flag: f"weighted-{flag}")
@pytest.mark.parametrize("command", list(SHORT_RUNS))
def test_weights_the_objective_uses_are_accepted(zone_path, forecast_paths, tmp_path, command, flag):
    """Each weight of the one, weighted, objective is taken from its flag or
    from a config file, never refused."""
    cfg = tmp_path / "weights.json"
    cfg.write_text(json.dumps({"c1": 2.0e4}))
    values = dict(zone=zone_path, forecast=forecast_paths["winter_day"], out=tmp_path / "o")
    args = [*SHORT_RUNS[command], flag, cfg if flag == "--config" else WEIGHT_FLAGS[flag]]
    res = _run(*(str(a).format(**values) for a in args))
    assert res.exit_code == 0, res.output


def test_c1_that_does_not_dominate_exits_1_and_writes_nothing(zone_path, forecast_paths, tmp_path):
    """At ``--c1 0.5`` the summer day's 06:00 lower bound would curtail 10 MW
    where none is needed: ``compute`` prints one ``error:`` line naming the
    timestep, both figures and ``--c1``, exits 1 and writes no file."""
    res = _run("compute", "--zone", zone_path, "--forecast", forecast_paths["summer_day"], "--c1", 0.5,
               "--out", tmp_path / "o")
    assert res.exit_code == 1, res.output
    assert res.output.splitlines() == [
        "error: timestep 6 (2023-06-14T06:00): the lower-bound LP curtails 10.000000 MW where 0.000000 MW "
        "would do: the weights do not make curtailment dominate (raise --c1)"
    ]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, option", [("-v", "-v"), ("-vv", "-v"), ("--verbose", "--verbose")])
def test_verbose_flag_is_gone(zone_path, forecast_paths, flag, option):
    """``BANDWIDTH_ENGINE_LOG`` is the one log-level setting."""
    res = _run(flag, "stats", "--zone", zone_path, "--forecast", forecast_paths["summer_day"], "--horizon", 1)
    assert res.exit_code == 1, res.output
    assert res.output.splitlines() == [f"error: No such option '{option}'."]


@pytest.mark.parametrize("command, flag", [
    ("compute", "--wrokers"), ("stats", "--wrokers"), ("verify", "--wrokers"), ("export-lp", "--wrokers"),
    ("stats", "--out"), ("export-lp", "--objective"), ("export-lp", "--horizon"),
    ("compute", "--objective"), ("stats", "--objective"), ("verify", "--objective"),
])
def test_unknown_or_removed_flag_exits_1(zone_path, forecast_paths, command, flag):
    res = _run(command, "--zone", zone_path, "--forecast", forecast_paths["summer_day"], flag, 2)
    assert res.exit_code == 1, res.output
    assert f"error: No such option '{flag}'" in res.output


@pytest.mark.parametrize("command", ["compute", "stats", "verify"])
@pytest.mark.parametrize("horizon", [-3, 0, 25])
def test_horizon_outside_the_forecast_is_refused(zone_path, forecast_paths, tmp_path, command, horizon):
    extra = ["--out", tmp_path / "o"] if command == "compute" else []
    res = _run(command, "--zone", zone_path, "--forecast", forecast_paths["summer_day"],
               "--horizon", horizon, *extra)
    assert res.exit_code == 1, res.output
    assert f"error: horizon {horizon} is outside the forecast's 1 to 24 timesteps" in res.output
    assert not (tmp_path / "o").exists()


def test_stats_results_without_a_merged_report_is_an_error_line(tmp_path):
    (tmp_path / "merged_report.csv").write_text("timestamp,lower\nt0,1.0\n")
    res = _run("stats", "--results", tmp_path)
    assert res.exit_code == 1
    assert "is not a merged report" in res.output


@pytest.mark.parametrize("seeds", [0, -3])
def test_verify_seeds_that_check_nothing_are_refused(seeds):
    res = _run("verify", "--seeds", seeds)
    assert res.exit_code == 1
    assert "error: Invalid value for '--seeds'" in res.output


def test_verify_seeds_takes_weights_from_config_and_ignores_its_input_keys(
    zone_path, forecast_paths, tmp_path, monkeypatch
):
    """Config-file keys are never refused: one config file serves every subcommand."""
    from bandwidth_engine import cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"zone": str(zone_path), "forecast": str(forecast_paths["winter_day"]),
                               "horizon": 3, "c1": 2.0e4}))
    seen = []
    real = cli.compute_power_bandwidths
    monkeypatch.setattr(cli, "compute_power_bandwidths", lambda *a, **kw: seen.append(kw) or real(*a, **kw))
    res = _run("verify", "--seeds", 2, "--config", cfg)
    assert res.exit_code == 0, res.output
    assert "2 seeds, 0 disagreement(s)" in res.output
    assert [kw["weights"].preventive_curtailment for kw in seen] == [2.0e4, 2.0e4]


@pytest.mark.parametrize(
    "config, message",
    [
        ('{"horizon": "3"}', 'horizon must be int | None, not "3"'),
        ('{"horizon": true}', "horizon must be int | None, not true"),  # a bool is not an int
    ],
)
def test_config_value_of_the_wrong_type_is_an_error_line(zone_path, forecast_paths, tmp_path, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    res = _run("compute", "--config", cfg, "--zone", zone_path, "--forecast", forecast_paths["summer_day"],
               "--out", tmp_path / "o")
    assert res.exit_code == 1, res.output
    assert f"error: {cfg}: {message}" in res.output
    assert not (tmp_path / "o").exists()


def test_config_int_for_a_float_weight_is_accepted(zone_path, forecast_paths, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"c1": 5000}')
    res = _run("stats", "--config", cfg, "--zone", zone_path, "--forecast", forecast_paths["summer_day"],
               "--horizon", 2)
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("source", ["--c1 nan", "--c1 inf", '{"c1": NaN}'])
def test_non_finite_weight_is_an_error_line(zone_path, forecast_paths, tmp_path, source):
    if source.startswith("{"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(source)
        flags = ["--config", cfg]
    else:
        flags = source.split()
    res = _run("compute", *flags, "--zone", zone_path, "--forecast", forecast_paths["summer_day"],
               "--out", tmp_path / "o")
    assert res.exit_code == 1, res.output
    assert "error: objective weights must be finite and positive" in res.output


@pytest.mark.parametrize("command, written", [("compute", "--out"), ("stats", "--binding-csv")],
                         ids=["compute", "stats"])
def test_workers_flag_is_refused(zone_path, forecast_paths, tmp_path, command, written):
    """Every horizon runs serially: ``--workers`` is an unknown option, and
    nothing is written."""
    res = _run(command, "--zone", zone_path, "--forecast", forecast_paths["summer_day"], "--workers", 1,
               written, tmp_path / "o")
    assert res.exit_code == 1, res.output
    [line] = res.output.splitlines()
    assert line.startswith("error: No such option '--workers'.")
    assert not (tmp_path / "o").exists()


def test_workers_config_key_is_refused(zone_path, forecast_paths, tmp_path):
    """A config file's ``workers`` is an unknown key, not one read and ignored."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"workers": 2}')
    res = _run("compute", "--config", cfg, "--zone", zone_path, "--forecast", forecast_paths["summer_day"],
               "--out", tmp_path / "o")
    assert res.exit_code == 1, res.output
    assert res.output.splitlines() == [f"error: {cfg}: {CONFIG_KEYS_MESSAGE}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["verbose", "basic_format", "Debug"])
def test_log_level_is_a_standard_name(zone_path, forecast_paths, value):
    """``BANDWIDTH_ENGINE_LOG`` takes a standard level name in any case; any
    other value is one ``error:`` line and exit 1, never a silent default."""
    args = ["stats", "--zone", zone_path, "--forecast", forecast_paths["summer_day"], "--horizon", 1]
    res = CliRunner().invoke(main, [str(a) for a in args], env={"BANDWIDTH_ENGINE_LOG": value})
    if value == "Debug":
        assert res.exit_code == 0, res.output
        return
    assert res.exit_code == 1, res.output
    assert res.output.splitlines() == [
        f"error: BANDWIDTH_ENGINE_LOG must be one of debug, info, warning, error, critical, not {value!r}"
    ]


def test_malformed_zone_is_an_error_line(zone_path, forecast_paths, tmp_path):
    """A zone whose battery block is null is refused with one error line."""
    doc = json.loads(zone_path.read_text())
    doc["battery"] = None
    bad = tmp_path / "zone.json"
    bad.write_text(json.dumps(doc))
    res = _run("compute", "--zone", bad, "--forecast", forecast_paths["summer_day"], "--out", tmp_path / "run")
    assert res.exit_code == 1
    assert res.output == "error: battery block must be an object, got null\n"


def _with_reactances(zone_path, tmp_path, reactances: dict) -> Path:
    """The bundled zone with the given lines' ``reactance_pu`` replaced."""
    doc = json.loads(zone_path.read_text())
    for line in doc["lines"]:
        line["reactance_pu"] = reactances.get(line["id"], line["reactance_pu"])
    edited = tmp_path / "zone.json"
    edited.write_text(json.dumps(doc))
    return edited


@pytest.mark.parametrize(
    "reactances, message",
    [
        ({"alpha-beta": 1e-320}, "line 'alpha-beta' reactance_pu 1e-320 has no finite susceptance 1/x"),
        ({"alpha-beta": 5e-309}, "line 'alpha-beta' reactance_pu 5e-309 has no finite susceptance 1/x"),
        ({"alpha-beta": 1e-308, "beta-gamma": 1e-308}, "bus 'beta': the susceptances 1/x of its lines sum to inf"),
    ],
    ids=["susceptance-infinite", "susceptance-overflows", "susceptances-sum-to-infinity"],
)
def test_reactance_without_a_finite_network_matrix_is_an_error_line(
    zone_path, forecast_paths, tmp_path, reactances, message
):
    """A reactance whose susceptance, or whose bus's susceptance sum, is not
    finite is refused at load, before any file is written."""
    out = tmp_path / "run"
    res = _run("compute", "--zone", _with_reactances(zone_path, tmp_path, reactances),
               "--forecast", forecast_paths["winter_day"], "--out", out)
    assert res.exit_code == 1, res.output
    assert res.output.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_smallest_reactance_with_a_finite_network_matrix_computes(zone_path, forecast_paths, tmp_path):
    out = tmp_path / "run"
    res = _run("compute", "--zone", _with_reactances(zone_path, tmp_path, {"alpha-beta": 1e-308}),
               "--forecast", forecast_paths["winter_day"], "--out", out)
    assert res.exit_code == 0, res.output
    hour0 = (out / "power_bandwidth.csv").read_text().splitlines()[1].split(",")
    assert hour0[1:3] == ["9.000000", "12.000000"]
    assert hour0[-1] == "alpha-beta:outage[gamma-delta-outage]:immediate"


@pytest.mark.parametrize(
    "edits, day",
    [
        ([(0, None, "beta", 0.56 + 5e-7)], "summer_day"),
        ([(1, "gamma-delta-outage", "alpha", 0.0 + 5e-7)], "summer_day"),
        ([(0, None, "delta", 0.211199060279), (1, None, "delta", 0.788801939721)], "winter_day"),
    ],
    ids=["sum-of-a-bus-of-the-island", "factor-of-a-bus-of-another-island", "sum-at-the-tolerance-edge"],
)
def test_zone_within_the_partition_tolerance_computes(zone_path, forecast_paths, tmp_path, edits, day):
    """Sensitivities off the partition of unity by up to PTDF_PARTITION_TOL
    pass the zone check and the DC model alike: alpha-west's intact-topology
    factor of beta 5e-7 high (its sum is 1 + 5e-7); delta-east's factor of
    alpha 5e-7 off zero after the gamma-delta outage, which leaves alpha in
    another island; and delta's intact-topology factors summing to
    1 + 9.999999999e-07, which a second, differently summed check in the DC
    model once refused. ``compute`` exits 0 with every hour's bandwidth."""
    doc = json.loads(zone_path.read_text())
    for outbound, topology, bus, value in edits:
        line = doc["outbound_lines"][outbound]
        factors = line["ptdf_normal"] if topology is None else line["ptdf_contingency"][topology]
        factors[bus] = value
    edited = tmp_path / "zone.json"
    edited.write_text(json.dumps(doc))
    out = tmp_path / "run"
    res = _run("compute", "--zone", edited, "--forecast", forecast_paths[day], "--out", out)
    assert res.exit_code == 0, res.output
    rows = (out / "power_bandwidth.csv").read_text().splitlines()
    assert len(rows) == 25 and not any(",infeasible," in r for r in rows)


def _compute_in_subprocess(hash_seed: str, zone: Path, forecast: Path, out: Path) -> tuple[int, str, dict]:
    """``compute`` in a fresh interpreter under ``PYTHONHASHSEED=hash_seed``:
    its exit code, its output and every file it wrote, by name."""
    src = str(Path(bandwidth_engine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("BANDWIDTH_ENGINE_LOG", None)
    args = ["compute", "--zone", zone, "--forecast", forecast, "--out", out]
    run = subprocess.run([sys.executable, "-m", "bandwidth_engine.cli", *map(str, args)],
                         env=env, capture_output=True, text=True)
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.exists() else {}
    return run.returncode, run.stdout + run.stderr, files


@pytest.mark.parametrize("day", ["summer_day", "winter_day"])
def test_compute_does_not_depend_on_the_hash_seed(zone_path, forecast_paths, tmp_path, day):
    """A bundled day computed under two hash seeds writes the same bytes."""
    runs = [_compute_in_subprocess(seed, zone_path, forecast_paths[day], tmp_path / seed) for seed in ("0", "1")]
    assert runs[0][0] == 0, runs[0][1]
    assert runs[0] == runs[1]


def test_forecast_at_the_balance_edge_is_decided_once(zone_path, forecast_paths, tmp_path):
    """A row whose intact-topology residual the loader reads as
    9.99999997e-07 MW, inside BALANCE_TOL_MW: the DC model once summed the
    same island in hash order and crashed under most hash seeds. Under seeds
    0 and 11 ``compute`` gives the same exit code and output, without a
    traceback."""
    header = forecast_paths["winter_day"].read_text().splitlines()[0]
    row = "2023-01-18T00:00,winter,88.616013,-108.495111,178.108278,160.570983,0,0,0,0,"
    row += "-187.764007,506.564169,158.22918,160.570983"
    forecast = tmp_path / "forecast.csv"
    forecast.write_text(f"{header}\n{row}\n")
    runs = [_compute_in_subprocess(seed, zone_path, forecast, tmp_path / seed) for seed in ("0", "11")]
    assert "Traceback" not in runs[0][1] + runs[1][1]
    assert runs[0] == runs[1]


def test_each_topology_finds_its_islands_once(zone_path, forecast_paths, tmp_path, monkeypatch):
    """Loading the bundled zone and its winter day and computing it finds
    the islands of each of the zone's two topologies once."""
    calls = []
    find = grid_model._connected_components
    for name, module in list(sys.modules.items()):  # every module that holds the name
        if name.startswith("bandwidth_engine") and getattr(module, "_connected_components", None) is find:
            monkeypatch.setattr(module, "_connected_components", lambda *args: calls.append(args) or find(*args))
    res = _run("compute", "--zone", zone_path, "--forecast", forecast_paths["winter_day"], "--out", tmp_path / "run")
    assert res.exit_code == 0, res.output
    assert len(calls) == 2


@pytest.mark.parametrize("column, value", [("inj:alpha", "nan"), ("curt_max:alpha", "inf"), ("ref:delta-east", "-inf")])
def test_non_finite_forecast_cell_is_an_error_line(zone_path, forecast_paths, tmp_path, column, value):
    """A NaN or infinite forecast cell is refused with one error line naming
    its row and column; nothing is written."""
    lines = forecast_paths["summer_day"].read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[4].split(",")
    cells[header.index(column)] = value
    lines[4] = ",".join(cells)
    bad = tmp_path / "forecast.csv"
    bad.write_text("\n".join(lines) + "\n")
    res = _run("compute", "--zone", zone_path, "--forecast", bad, "--out", tmp_path / "run")
    assert res.exit_code == 1
    assert res.output == f"error: forecast row 3 column {column!r} is not finite: {value!r}\n"
    assert not (tmp_path / "run").exists()


def test_forecast_row_with_extra_cells_is_an_error_line(zone_path, forecast_paths, tmp_path):
    """A winter-day row with two cells more than the header is refused with
    one error line naming its row; nothing is written."""
    lines = forecast_paths["winter_day"].read_text().splitlines()
    lines[4] += ",999,junk"
    bad = tmp_path / "forecast.csv"
    bad.write_text("\n".join(lines) + "\n")
    res = _run("compute", "--zone", zone_path, "--forecast", bad, "--out", tmp_path / "run")
    n = len(lines[0].split(","))
    assert res.exit_code == 1
    assert res.output == f"error: forecast row 3 has {n + 2} cells, header has {n}\n"
    assert not (tmp_path / "run").exists()


def test_run_config_weights_default_to_the_objective_weights():
    """The CLI's default weights are the library's, decided in one place."""
    assert RunConfig().weights() == ObjectiveWeights()
