"""Digests of the engine's results and solver counters, for exactness checks.

Prints one sha256 per part and objective (weighted, lexicographic):

* ``fixture``: the bundled summer and winter days, 48 hours, one call each;
* ``year``: the 8,760 h synthetic year in one call;
* ``random``: ``random_instance`` 0-399 and 1,000,000-1,000,399, one
  ``solve_timestep`` each.

A digest covers every result's ``repr`` and, for every LP the pipeline
solved, its ``(status, iterations, phase_one_iterations, bland, retried,
objective.hex())``, recorded through ``power_bandwidth.solve``. Two trees that
print the same digests gave the same results through the same pivots, to the
bit. Run from the root of a checkout (the engine is imported from its
``src/``):

    python3 tools/exactness.py [--part fixture] [--part year] [--part random]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bandwidth_engine import lp_core  # noqa: E402
from bandwidth_engine import power_bandwidth as pb  # noqa: E402
from bandwidth_engine.fixtures import (  # noqa: E402
    day_forecast_rows,
    random_instance,
    reference_zone,
    synthetic_year_rows,
)

PARTS = ("fixture", "year", "random")
RANDOM_SEEDS = (*range(400), *range(1_000_000, 1_000_400))


def _results(part: str, lexicographic: bool) -> list[pb.PowerBandwidthResult]:
    if part == "random":
        return [pb.solve_timestep(*random_instance(s), lexicographic=lexicographic) for s in RANDOM_SEEDS]
    zone = reference_zone()
    days = [synthetic_year_rows(zone)] if part == "year" else [day_forecast_rows(zone, d) for d in ("summer_day", "winter_day")]
    return [r for rows in days for r in pb.compute_power_bandwidths(zone, rows, lexicographic=lexicographic)]


def digest(part: str, lexicographic: bool) -> str:
    """The sha256 of one part's results and solver counters."""
    solves = []

    def recording_solve(lp, compute_duals=True):
        sol = lp_core.solve(lp, compute_duals)
        solves.append(
            (sol.status.value, sol.iterations, sol.phase_one_iterations, sol.bland, sol.retried, sol.objective.hex())
        )
        return sol

    pb.solve = recording_solve
    try:
        results = _results(part, lexicographic)
    finally:
        pb.solve = lp_core.solve
    h = hashlib.sha256()
    for r in results:
        h.update(repr(r).encode() + b"\n")
    for s in solves:
        h.update(repr(s).encode() + b"\n")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--part", action="append", choices=PARTS, help="a part to digest (default: all)")
    args = p.parse_args(argv)
    for part in args.part or PARTS:
        for objective in ("weighted", "lexicographic"):
            print(f"{part} {objective} {digest(part, objective == 'lexicographic')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
