"""The benchmark's layer tracer sees every LP solve of the pipeline.

``perfbench/run.py`` divides the traced pivots by the traced LPs, so a traced
run whose solves bypass ``power_bandwidth.solve`` fails by itself. The
tracer is imported from its file and used as the benchmark uses it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from bandwidth_engine import cli
from bandwidth_engine import power_bandwidth as pb

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_lp_and_pivot_of_a_day(zone, summer_day, monkeypatch):
    spans = _spans_module()
    solutions = []
    real_solve = pb.solve
    monkeypatch.setattr(pb, "solve", lambda lp, **kw: solutions.append(real_solve(lp, **kw)) or solutions[-1])
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span(spans.UNATTRIBUTED):
            results = cli.compute_power_bandwidths(zone, summer_day)
    finally:
        tracer.uninstall()
    _, counts = tracer.take()
    assert len(results) == 24
    assert counts["lps"] == 48 == len(solutions)
    assert counts["pivots"] == sum(sol.iterations for sol in solutions) > 0
