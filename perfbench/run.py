"""Benchmark of the bandwidth engine: three serial workloads, host-adjusted.

Run from the root of a checkout:

    python3 perfbench/run.py --workload day_ahead --seed 1 --seconds 25 --trace 0

The engine is imported from ``src/`` of the checkout; nothing is installed.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics; the line before it holds
the raw (unadjusted) figures. Every timing is adjusted for host speed by the
calibration kernel in ``calib.py`` (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import spans  # standard library only; calib and workloads import NumPy and the engine

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("day_ahead", "year_weeks", "random_zones"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the child processes that write the inputs and time set-up
    p.add_argument("--child", choices=("prepare", "setup"), help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _nospan(layer):
    return nullcontext()


def _child(args: argparse.Namespace, root: Path) -> int:
    """Write the inputs, or time one set-up from before the engine's import."""
    t0 = time.perf_counter()
    import workloads  # imports bandwidth_engine

    wl = workloads.WORKLOADS[args.workload](root, Path(args.work), args.seed)
    if args.child == "prepare":
        wl.prepare()
        return 0
    wl.setup(_nospan)
    setup_s = time.perf_counter() - t0
    from calib import Kernel

    kernel = Kernel()
    kernel_s = statistics.median(kernel.time_once() for _ in range(3))
    print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))
    return 0


def _spawn(args: argparse.Namespace, child: str, work: Path) -> str:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--child", child, "--work", str(work),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{child} child failed ({done.returncode}): {done.stderr[-2000:]}")
    return done.stdout


class Timer:
    """Op timing with the calibration kernel run between consecutive timed steps.

    Each step's adjusted time is its raw time times REFERENCE_S over the mean
    of the kernel times measured just before and just after it.
    """

    def __init__(self, kernel, reference_s: float) -> None:
        self.kernel = kernel
        self.reference_s = reference_s
        self.kernel_s: list[float] = [kernel.time_once()]

    def step(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        self.kernel_s.append(self.kernel.time_once())
        factor = self.reference_s / (0.5 * (self.kernel_s[-2] + self.kernel_s[-1]))
        return out, raw, factor


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile (exclusive method), or the only value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[q - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _run(args: argparse.Namespace, root: Path, work: Path) -> int:
    import calib

    work.mkdir(parents=True)
    import workloads

    wl_cls = workloads.WORKLOADS[args.workload]
    if wl_cls.prepares_inputs:
        _spawn(args, "prepare", work)

    setup_raw, setup_adj = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            sample = json.loads(_spawn(args, "setup", work).strip().splitlines()[-1])
            setup_raw.append(sample["setup_s"])
            setup_adj.append(sample["setup_s"] * calib.REFERENCE_S / sample["kernel_s"])

    tracer = spans.Tracer()
    timer = Timer(calib.Kernel(), calib.REFERENCE_S)
    wl = wl_cls(root, work, args.seed)
    _, setup_s, setup_factor = timer.step(wl.setup, tracer.span if args.trace else _nospan)
    setup_layers, _ = tracer.take()
    rounds = wl.rounds()

    failures: list[str] = []

    def traced(fn, *args):
        tracer.install()
        try:
            with tracer.span(spans.UNATTRIBUTED):
                return fn(*args, tracer.span)
        finally:
            tracer.uninstall()

    # warm-up: the first op, untimed and uncounted; it recurs in the first
    # round, where a failure is counted
    try:
        wl.op(rounds[0][0], _nospan)
        wl.after_op(rounds[0][0])
    except Exception:
        pass
    timer.kernel_s.append(timer.kernel.time_once())

    attempted = 0
    op_raw: list[float] = []
    op_adj: list[float] = []
    steps_total = 0
    # trace mode: each op runs untraced, then traced; layer self times are
    # summed, host-adjusted, from the traced executions
    untraced_adj = traced_adj = 0.0
    layer_adj: dict[str, float] = {}
    counts: dict[str, int] = {}
    traced_ops = traced_steps = 0

    t_start = time.perf_counter()
    n_rounds = 0
    while n_rounds == 0 or time.perf_counter() - t_start < args.seconds:
        for arg in rounds[n_rounds % len(rounds)]:
            attempted += 1
            try:
                (steps, failure), raw, factor = timer.step(wl.op, arg, _nospan)
            except Exception as exc:  # an op that raises is a failed op
                failures.append(f"op {attempted}: {type(exc).__name__}: {exc}")
                continue
            failure = failure or wl.after_op(arg)
            if failure:
                failures.append(f"op {attempted}: {failure}")
                continue
            op_raw.append(raw)
            op_adj.append(raw * factor)
            steps_total += steps
            if args.trace:
                try:
                    (steps, failure), raw_t, factor_t = timer.step(traced, wl.op, arg)
                except Exception as exc:
                    failures.append(f"traced op {attempted}: {type(exc).__name__}: {exc}")
                    continue
                self_s, c = tracer.take()
                for layer, v in self_s.items():
                    layer_adj[layer] = layer_adj.get(layer, 0.0) + v * factor_t
                for k, v in c.items():
                    counts[k] = counts.get(k, 0) + v
                untraced_adj += raw * factor
                traced_adj += raw_t * factor_t
                traced_ops += 1
                traced_steps += steps
        n_rounds += 1
    measured_s = time.perf_counter() - t_start

    try:
        if args.trace:
            failure, close_raw, close_factor = timer.step(traced, wl.close)
        else:
            failure, close_raw, close_factor = timer.step(wl.close, _nospan)
    except Exception as exc:
        failure, close_raw, close_factor = f"{type(exc).__name__}: {exc}", 0.0, 1.0
    if failure:
        failures.append(f"closing step: {failure}")
    close_layers, _ = tracer.take()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        problems = wl.check()
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    for line in failures + problems:
        print(f"{args.workload}: {line}", file=sys.stderr)

    kq = statistics.quantiles(timer.kernel_s, n=4)
    raw = {
        "ops": attempted,
        "rounds": n_rounds,
        "measured_s": measured_s,
        "kernel_ms": {"q1": kq[0] * 1e3, "median": kq[1] * 1e3, "q3": kq[2] * 1e3},
        "kernel_reference_ms": calib.REFERENCE_S * 1e3,
        "notes": wl.notes,
    }
    if not op_adj:
        metrics = {}
    elif not args.trace:
        busy_adj = sum(op_adj) + close_raw * close_factor
        busy_raw = sum(op_raw) + close_raw
        metrics = {
            "setup_s": _metric(statistics.median(setup_adj), "s"),
            "timesteps_per_s": _metric(steps_total / busy_adj, "1/s"),
            "op_p50_ms": _metric(statistics.median(op_adj) * 1e3, "ms"),
            "op_p90_ms": _metric(_quantile(op_adj, 9) * 1e3, "ms"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        raw.update(
            setup_s=statistics.median(setup_raw),
            setup_samples_s=setup_raw,
            timesteps_per_s=steps_total / busy_raw,
            op_p50_ms=statistics.median(op_raw) * 1e3,
            op_p90_ms=_quantile(op_raw, 9) * 1e3,
        )
    else:
        for layer, v in close_layers.items():
            layer_adj[layer] = layer_adj.get(layer, 0.0) + v * close_factor
        metrics = _layer_metrics(
            layer_adj, counts, traced_ops, traced_steps,
            setup_layers.get(spans.GRID_MODEL, 0.0) * setup_factor,
            traced_adj / untraced_adj,
        )
        raw.update(setup_s=setup_s, traced_ops=traced_ops)
    print(json.dumps({"raw": raw}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _layer_metrics(layer_s, counts, ops, steps, grid_setup_s, traced_ratio) -> dict:
    def per(layer: str, n: int, scale: float) -> float:
        return layer_s.get(layer, 0.0) * scale / n

    lps = counts.get("lps", 0)
    pivots = counts.get("pivots", 0)
    return {
        "grid_model.setup_ms": _metric(grid_setup_s * 1e3, "ms"),
        "grid_model.ms_per_op": _metric(per(spans.GRID_MODEL, ops, 1e3), "ms"),
        "dc_network.calls_per_timestep": _metric(counts.get("topologies", 0) / steps, "count"),
        "dc_network.ms_per_timestep": _metric(per(spans.DC_NETWORK, steps, 1e3), "ms"),
        "power_bandwidth.build_lp_ms_per_timestep": _metric(per(spans.BUILD_LP, steps, 1e3), "ms"),
        "power_bandwidth.lps_per_timestep": _metric(lps / steps, "count"),
        "power_bandwidth.self_ms_per_timestep": _metric(
            per(spans.POWER_BANDWIDTH, steps, 1e3), "ms"
        ),
        "lp_core.solve_ms_per_lp": _metric(per(spans.LP_CORE, lps, 1e3), "ms"),
        "lp_core.us_per_pivot": _metric(per(spans.LP_CORE, pivots, 1e6), "us"),
        "lp_core.pivots_per_lp": _metric(pivots / lps, "count"),
        "lp_core.columns_per_lp": _metric(counts.get("columns", 0) / lps, "count"),
        "lp_core.rows_per_lp": _metric(counts.get("rows", 0) / lps, "count"),
        "energy_bandwidth.ms_per_op": _metric(per(spans.ENERGY, ops, 1e3), "ms"),
        "statistics.summarize_ms": _metric(layer_s.get(spans.STATISTICS, 0.0) * 1e3, "ms"),
        "cli.overhead_ms_per_op": _metric(per(spans.UNATTRIBUTED, ops, 1e3), "ms"),
        "trace.overhead_pct": _metric((traced_ratio - 1.0) * 100.0, "%"),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    missing = [p for p in ("src/bandwidth_engine/__init__.py", "data/zone90kv.json") if not (root / p).is_file()]
    if missing:
        print(f"perfbench: run from the root of a checkout; missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    if args.child:
        return _child(args, root)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # left in place while another run uses it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
