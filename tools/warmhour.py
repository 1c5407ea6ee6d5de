"""Microseconds per warm hour, in one or more trees.

Each ``--src`` tree (default: this checkout's ``src/``) solves DAYS days of
the bundled zone's 8,760 h synthetic year, spread evenly over the year so
that both seasons take part, one 24 h ``compute_power_bandwidths`` call per
day. After a first, untimed pass every call finds the zone's kept problem,
as perfbench's year_weeks ops do, so a pass times the warm hour alone:
writing the hour, both solves on the kept forms and the result rows.

Each tree is imported twice under names of its own (``import_engine`` from
``tools/coldzone.py``), the trees in the order given and then in the reverse
order, since two copies of one tree can read a few per cent apart by import
order. Every copy runs every pass, the copies' order alternating from pass
to pass. A tree's figure is the minimum, over its copies and the passes, of
the mean per hour, in microseconds; each copy's own minimum is reported
too. The trees' results must be repr-equal; the tool says so.

After the timed passes, one more pass of each tree's first copy runs with
``time.perf_counter`` wrappers around the engine functions in ``SPLIT`` and
splits its warm hour three ways, in microseconds per hour: block preparation
(``BandwidthProblem.set_hours``), the walk (``lp_core._phase_one`` and
``_phase_two``) and the read-out, the rest of the call. A tree that lacks one
of these names reads "n/a" for its part, and for the read-out. Each wrapper
adds a few tenths of a microsecond per call, and a day makes a few such
calls. Run from anywhere:

    python3 tools/warmhour.py [--days 120] [--passes 15] [--src DIR ...] [--json]
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from coldzone import import_engine  # noqa: E402

# the parts of a warm hour the instrumented pass times: (part, module, function)
SPLIT = (
    ("block preparation", "power_bandwidth", "BandwidthProblem.set_hours"),
    ("walk", "lp_core", "_phase_one"),
    ("walk", "lp_core", "_phase_two"),
)
PARTS = ("block preparation", "walk", "read-out")


def _days(engine, days: int) -> tuple[object, list[tuple]]:
    """The bundled zone and ``days`` evenly spaced days of its synthetic year."""
    fx = engine.fixtures
    zone = fx.reference_zone()
    year = fx.synthetic_year_rows(zone).rows
    n = len(year) // 24
    return zone, [year[24 * d : 24 * d + 24] for d in (n * k // days for k in range(days))]


def _pass(engine, zone, days) -> tuple[float, list[str]]:
    """One pass over the days: the seconds taken, and each result's repr."""
    compute = engine.power_bandwidth.compute_power_bandwidths
    clock = time.perf_counter
    results, seconds = [], 0.0
    for rows in days:
        t0 = clock()
        out = compute(zone, rows)
        seconds += clock() - t0
        results += out
    return seconds, [repr(r) for r in results]


def _split(engine, zone, days, hours: int) -> dict[str, float | None]:
    """One pass with the ``SPLIT`` functions wrapped: microseconds per hour
    in each part, None for a part whose function the tree lacks, and for the
    read-out then too."""
    spent = dict.fromkeys(PARTS, 0.0)
    missing = set()
    wrapped = []  # (owner, attribute, original) to put back
    for part, module, path in SPLIT:
        *outer, name = path.split(".")
        owner = getattr(engine, module, None)
        for attr in outer:
            owner = getattr(owner, attr, None)
        real = getattr(owner, name, None)
        if real is None:
            missing |= {part, "read-out"}
            continue

        def timed(*args, _real=real, _part=part, **kwargs):
            t0 = time.perf_counter()
            try:
                return _real(*args, **kwargs)
            finally:
                spent[_part] += time.perf_counter() - t0

        setattr(owner, name, timed)
        wrapped.append((owner, name, real))
    try:
        total = _pass(engine, zone, days)[0]
    finally:
        for owner, name, real in reversed(wrapped):
            setattr(owner, name, real)
    spent["read-out"] = total - spent["block preparation"] - spent["walk"]
    return {part: None if part in missing else round(1e6 * s / hours, 2) for part, s in spent.items()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--days", type=int, default=120)
    p.add_argument("--passes", type=int, default=15)
    p.add_argument("--src", action="append", type=Path, help="a tree's src/ directory (default: this checkout's)")
    p.add_argument("--json", action="store_true", help="print one JSON object instead of a table")
    args = p.parse_args(argv)
    srcs = [s.resolve() for s in args.src or [Path(__file__).resolve().parent.parent / "src"]]
    # per copy: its tree's index; the trees in order, then reversed
    trees = [*range(len(srcs)), *reversed(range(len(srcs)))]
    engines = [import_engine(srcs[t], f"_warmhour_engine{i}") for i, t in enumerate(trees)]
    inputs = [_days(e, args.days) for e in engines]
    hours = 24 * args.days

    reprs: list[list[str]] = []
    for engine, (zone, days) in zip(engines, inputs):  # the untimed pass: builds each copy's kept problem
        reprs.append(_pass(engine, zone, days)[1])
    best = [float("inf")] * len(engines)
    repeat = True  # every pass of a copy gives its first pass's results
    for k in range(args.passes):
        order = range(len(engines)) if k % 2 == 0 else reversed(range(len(engines)))
        for i in order:
            gc.collect()
            seconds, out = _pass(engines[i], *inputs[i])
            best[i] = min(best[i], seconds)
            repeat = repeat and out == reprs[i]

    report = {"days": args.days, "hours": hours, "passes": args.passes, "trees": []}
    for t, src in enumerate(srcs):
        copies = [1e6 * best[i] / hours for i, tree in enumerate(trees) if tree == t]
        copy = trees.index(t)  # the tree's first copy
        report["trees"].append(
            {
                "src": str(src), "us_per_hour": round(min(copies), 2), "by_import": [round(c, 2) for c in copies],
                "split_us_per_hour": _split(engines[copy], *inputs[copy], hours),
            }
        )
    report["results_equal"] = repeat and all(r == reprs[0] for r in reprs)
    if args.json:
        print(json.dumps(report, indent=1))
        return 0
    print(f"{args.days} days ({hours} h) of the synthetic year, min of {args.passes} passes, us per warm hour")
    print(f"{'tree':<48}{'us/hour':>10}{'first':>10}{'second':>10}")
    for tree in report["trees"]:
        first, second = tree["by_import"]
        print(f"{tree['src'][-48:]:<48}{tree['us_per_hour']:>10.1f}{first:>10.1f}{second:>10.1f}")
    print("first, second: the tree's copy imported in the given order, then in the reverse one")
    print(f"split of one instrumented pass, us per warm hour: {', '.join(PARTS)}")
    print(f"{'tree':<48}" + "".join(f"{part[:10]:>12}" for part in PARTS))
    for tree in report["trees"]:
        split = tree["split_us_per_hour"]
        cells = ("n/a" if split[part] is None else f"{split[part]:.1f}" for part in PARTS)
        print(f"{tree['src'][-48:]:<48}" + "".join(f"{cell:>12}" for cell in cells))
    print(f"results equal: {'yes' if report['results_equal'] else 'NO'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
