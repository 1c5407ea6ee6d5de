"""The engine's public surfaces: the package root and the names the
benchmark harness reads.

The package root holds README's library entry points and the types they
take, return or raise; everything else is imported from its own module.
``perfbench/`` reads engine names module by module, so a change that removes
or renames one of them fails here, not in the benchmark's correctness gate.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import bandwidth_engine

ROOT = Path(__file__).resolve().parent.parent

ROOT_NAMES = {
    # README's library entry points
    "load_zone", "load_forecast", "compute_power_bandwidths", "compute_energy_bandwidths",
    "verify_trajectory_existence", "summarize",
    # the types they take, return or raise
    "ZoneModel", "ForecastSeries", "TimestepForecast", "Season", "ObjectiveWeights", "PowerBandwidthResult",
    "CongestionClass", "EnergyBandwidthResult", "TrajectoryWitness", "TrajectoryViolation", "AvailabilityReport",
    "ZoneValidationError", "UnstableLpError", "EnergyBandwidthError",
}


def test_root_exports_exactly_the_library_entry_points():
    assert len(bandwidth_engine.__all__) == len(ROOT_NAMES)
    assert set(bandwidth_engine.__all__) == ROOT_NAMES
    namespace: dict = {}
    exec(f"from bandwidth_engine import {', '.join(sorted(ROOT_NAMES))}", namespace)
    assert all(namespace[name] is getattr(bandwidth_engine, name) for name in ROOT_NAMES)


def test_readme_lists_exactly_the_root_names():
    """README's "Library entry points" section imports only root names and
    names every one of them."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1].split("\n## ", 1)[0]
    imported = re.search(r"from bandwidth_engine import \(([^)]*)\)", section).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert names <= ROOT_NAMES
    assert [name for name in ROOT_NAMES if name not in names and f"`{name}`" not in section] == []


def test_importing_the_root_does_not_load_the_oracles():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(bandwidth_engine.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
    )}
    code = "import sys, bandwidth_engine; print('bandwidth_engine.oracle' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"


def _perfbench_reads() -> set[tuple[str, str]]:
    """Every (engine module, name) that ``perfbench/workloads.py`` and
    ``perfbench/spans.py`` read: attributes of the engine modules they
    import, names they patch on them and names they import from one."""
    reads = set()
    for file in ("workloads.py", "spans.py"):
        tree = ast.parse((ROOT / "perfbench" / file).read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "bandwidth_engine":
                aliases.update({a.asname or a.name: a.name for a in node.names})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bandwidth_engine."):
                reads.update((node.module.split(".")[1], a.name) for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                reads.add((aliases[node.value.id], node.attr))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_patch"
                  and isinstance(node.args[0], ast.Name) and node.args[0].id in aliases):
                reads.add((aliases[node.args[0].id], node.args[1].value))
    return reads


def test_every_engine_name_perfbench_reads_exists():
    reads = _perfbench_reads()
    modules = {module for module, _ in reads}
    assert {"power_bandwidth", "grid_model", "energy_bandwidth", "oracle", "statistics", "fixtures", "cli",
            "lp_core"} <= modules
    assert {("lp_core", "solve"), ("power_bandwidth", "build_lp"), ("cli", "load_zone")} <= reads
    missing = sorted(
        f"{module}.{name}" for module, name in reads
        if not hasattr(importlib.import_module(f"bandwidth_engine.{module}"), name)
    )
    assert missing == []


def test_perfbench_calls_keep_their_signatures():
    from bandwidth_engine import lp_core, power_bandwidth

    params = list(inspect.signature(power_bandwidth.build_lp).parameters.values())
    assert [p.name for p in params[:4]] == ["zone", "row", "season", "direction"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:4])
    assert "compute_duals" in inspect.signature(lp_core.solve).parameters
