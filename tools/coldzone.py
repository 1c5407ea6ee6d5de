"""Where a fresh zone's time goes, piece by piece, in one or more trees.

For each of N fresh zones (``random_instance`` FIRST to FIRST + N - 1, given
as zone documents, as perfbench's random_zones gives them) it times, per
zone:

* ``parse``: ``zone_from_dict`` on the zone's document;
* ``network``: the zone's network model (``network_model``);
* ``build``: the weighted bandwidth problem built on it under the default
  weights (``BandwidthProblem``), with the zone's hour written
  (``set_hour``) and its lower-bound objective set;
* ``form``: the LP's standard form;
* ``solves``: ``solve_timestep``'s solves on that problem, without the
  diagnostic;
* ``diagnostic``: the infeasibility diagnostic, per unclearable zone.

Each ``--src`` tree (default: this checkout's ``src/``) is imported under a
name of its own, so one process can hold a parent and a change and time them
in interleaved passes; each figure is the minimum over the passes of the
mean per zone, in microseconds. Two copies of one tree can read a few per
cent apart by import order, so compare two trees in both orders. The trees'
results must be repr-equal; the tool says so. A tree must take the calls this
tool makes: ``BandwidthProblem(zone, network, weights)`` (a tree that still
has the lexicographic objective mode is passed ``False`` for it),
``set_hour(row)``, ``objectives[direction]`` and
``_solve_written(problem, row)``. Run from anywhere:

    python3 tools/coldzone.py [--zones 600] [--first 9000000] [--passes 21] [--src DIR ...] [--json]
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import inspect
import json
import sys
import time
from pathlib import Path

PIECES = ("parse", "network", "build", "form", "solves", "diagnostic")


def import_engine(src: Path, alias: str):
    """The ``bandwidth_engine`` package under ``src``, imported afresh as
    ``alias``: modules left under ``alias`` by an earlier import are dropped
    first, so each import binds its own submodules."""
    for name in [m for m in sys.modules if m == alias or m.startswith(alias + ".")]:
        del sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        alias, src / "bandwidth_engine" / "__init__.py", submodule_search_locations=[str(src / "bandwidth_engine")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    for name in ("grid_model", "power_bandwidth", "fixtures"):
        importlib.import_module(f"{alias}.{name}")
    return package


def _pass(engine, docs, rows) -> tuple[dict[str, float], list[str]]:
    """One pass over the zones: each piece's total seconds, and each result's repr."""
    gm, pb = engine.grid_model, engine.power_bandwidth
    totals = dict.fromkeys(PIECES, 0.0)
    real = pb._max_violation_diagnostic
    mode = (False,) if "lexicographic" in inspect.signature(pb.BandwidthProblem).parameters else ()

    def timed_diagnostic(*args):
        t0 = time.perf_counter()
        try:
            return real(*args)
        finally:
            totals["diagnostic"] += time.perf_counter() - t0

    clock = time.perf_counter
    results = []
    pb._max_violation_diagnostic = timed_diagnostic
    try:
        for doc, row in zip(docs, rows):
            t0 = clock()
            zone = gm.zone_from_dict(doc)
            t1 = clock()
            network = pb.network_model(zone)
            t2 = clock()
            problem = pb.BandwidthProblem(zone, network, pb.ObjectiveWeights(), *mode)
            problem.set_hour(row)
            problem.lp.set_objective(problem.objectives[pb.Direction.LOWER])
            t3 = clock()
            problem.lp._standard_form()
            t4 = clock()
            result = pb._solve_written(problem, row)
            t5 = clock()
            totals["parse"] += t1 - t0
            totals["network"] += t2 - t1
            totals["build"] += t3 - t2
            totals["form"] += t4 - t3
            totals["solves"] += t5 - t4
            results.append(repr(result))
    finally:
        pb._max_violation_diagnostic = real
    totals["solves"] -= totals["diagnostic"]
    return totals, results


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--zones", type=int, default=600)
    p.add_argument("--first", type=int, default=9_000_000)
    p.add_argument("--passes", type=int, default=21)
    p.add_argument("--src", action="append", type=Path, help="a tree's src/ directory (default: this checkout's)")
    p.add_argument("--json", action="store_true", help="print one JSON object instead of a table")
    args = p.parse_args(argv)
    srcs = [s.resolve() for s in args.src or [Path(__file__).resolve().parent.parent / "src"]]
    engines = [import_engine(src, f"_coldzone_engine{i}") for i, src in enumerate(srcs)]

    first = engines[0]
    docs, rows = [], []
    for seed in range(args.first, args.first + args.zones):
        zone, row = first.fixtures.random_instance(seed)
        docs.append(first.grid_model.zone_to_dict(zone))
        rows.append(row)
    # every tree gets rows of its own classes
    tree_rows = [
        [e.grid_model.TimestepForecast(**{**vars(r), "season": e.grid_model.Season(r.season.value)}) for r in rows]
        for e in engines
    ]

    best = [dict.fromkeys(PIECES, float("inf")) for _ in engines]
    reprs: list[list[str]] = [[] for _ in engines]
    for k in range(args.passes):
        order = range(len(engines)) if k % 2 == 0 else reversed(range(len(engines)))
        for i in order:
            gc.collect()
            totals, reprs[i] = _pass(engines[i], docs, tree_rows[i])
            for piece, seconds in totals.items():
                best[i][piece] = min(best[i][piece], seconds)

    unclearable = sum("congestion_class=<CongestionClass.INFEASIBLE" in r for r in reprs[0])
    report = {"zones": args.zones, "first": args.first, "passes": args.passes, "unclearable": unclearable, "trees": []}
    for src, b in zip(srcs, best):
        per_zone = {piece: 1e6 * b[piece] / args.zones for piece in PIECES if piece != "diagnostic"}
        per_zone["diagnostic_per_unclearable"] = 1e6 * b["diagnostic"] / max(1, unclearable)
        per_zone["total"] = 1e6 * sum(b.values()) / args.zones
        report["trees"].append({"src": str(src), "us": {k: round(v, 1) for k, v in per_zone.items()}})
    report["results_equal"] = all(r == reprs[0] for r in reprs)
    if args.json:
        print(json.dumps(report, indent=1))
        return 0
    print(f"{args.zones} zones from {args.first}, {unclearable} unclearable, min of {args.passes} passes, us per zone")
    names = list(report["trees"][0]["us"])
    heads = [n.replace("diagnostic_per_unclearable", "diagnostic*") for n in names]
    print(f"{'tree':<40}" + "".join(f"{h:>12}" for h in heads))
    for tree in report["trees"]:
        print(f"{tree['src'][-40:]:<40}" + "".join(f"{tree['us'][n]:>12.1f}" for n in names))
    print("* per unclearable zone")
    print(f"results equal: {'yes' if report['results_equal'] else 'NO'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
