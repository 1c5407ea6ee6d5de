"""Digests of the engine's results and solver counters, for exactness checks.

Prints one sha256 per part:

* ``fixture``: the bundled summer and winter days, 48 hours, one call each;
* ``year``: the 8,760 h synthetic year in one call;
* ``random``: ``random_instance`` 0-399 and 1,000,000-1,000,399, one
  ``solve_timestep`` each.

A digest covers every result's ``repr`` and, for every LP the pipeline
solved, its ``(status, iterations, phase_one_iterations, bland,
objective.hex())``, recorded through ``power_bandwidth.solve``. Two trees that
print the same digests gave the same results through the same pivots, to the
bit. ``--src DIR`` digests the engine under ``DIR`` (default: this
checkout's ``src/``), imported under a name of its own, so one copy of the
tool prints the digests of any tree with the same tuple. Run from anywhere:

    python3 tools/exactness.py [--part fixture] [--part year] [--part random] [--src DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from coldzone import import_engine  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
PARTS = ("fixture", "year", "random")
RANDOM_SEEDS = (*range(400), *range(1_000_000, 1_000_400))
_ENGINES: dict[Path, object] = {}  # per src directory: its engine package, kept with its kept problems


def engine(src: Path = SRC):
    """The ``bandwidth_engine`` package under ``src``, imported once under a
    name of its own."""
    src = src.resolve()
    if src not in _ENGINES:
        _ENGINES[src] = import_engine(src, f"_exactness_engine{len(_ENGINES)}")
    return _ENGINES[src]


def _results(eng, part: str) -> list:
    pb, fx = eng.power_bandwidth, eng.fixtures
    if part == "random":
        return [pb.solve_timestep(*fx.random_instance(s)) for s in RANDOM_SEEDS]
    zone = fx.reference_zone()
    if part == "year":
        days = [fx.synthetic_year_rows(zone)]
    else:
        days = [fx.day_forecast_rows(zone, d) for d in ("summer_day", "winter_day")]
    return [r for rows in days for r in pb.compute_power_bandwidths(zone, rows)]


def digest(part: str, src: Path = SRC) -> str:
    """The sha256 of one part's results and solver counters, from the engine under ``src``."""
    eng = engine(src)
    pb, solve = eng.power_bandwidth, eng.lp_core.solve
    solves = []

    def recording_solve(lp, compute_duals=True):
        sol = solve(lp, compute_duals)
        solves.append((sol.status.value, sol.iterations, sol.phase_one_iterations, sol.bland, sol.objective.hex()))
        return sol

    pb.solve = recording_solve
    try:
        results = _results(eng, part)
    finally:
        pb.solve = solve
    h = hashlib.sha256()
    for r in results:
        h.update(repr(r).encode() + b"\n")
    for s in solves:
        h.update(repr(s).encode() + b"\n")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--part", action="append", choices=PARTS, help="a part to digest (default: all)")
    p.add_argument("--src", type=Path, default=SRC, help="the engine's source directory (default: %(default)s)")
    args = p.parse_args(argv)
    for part in args.part or PARTS:
        print(f"{part} weighted {digest(part, args.src)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
