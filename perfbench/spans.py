"""Layer spans recorded from outside the engine.

The engine has no spans of its own. :class:`Tracer` wraps the module-level
names through which ``cli`` and ``power_bandwidth`` call the other modules
(``grid_model``, ``dc_network``, ``lp_core``, ``energy_bandwidth``,
``statistics``), and the benchmark opens spans around its own calls into the
public entry points. Each span adds its duration minus the time covered by
its child spans to its layer's self time, so the self times of one op sum to
the op's duration. The wrappers are installed only for traced executions and
removed afterwards; the untraced executions run the engine's own functions.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

_perf = time.perf_counter

# layer names, as printed in the per-layer metrics
GRID_MODEL = "grid_model"
DC_NETWORK = "dc_network"
BUILD_LP = "power_bandwidth.build_lp"
POWER_BANDWIDTH = "power_bandwidth"
LP_CORE = "lp_core"
ENERGY = "energy_bandwidth"
STATISTICS = "statistics"
UNATTRIBUTED = "unattributed"  # the root span's self time: cli, or the benchmark loop


class Tracer:
    """Self time per layer, plus solver and topology counters, since the last take()."""

    def __init__(self) -> None:
        self._stack: list[float] = []  # child time accumulated per open span
        self._patches: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        out = (dict(self.self_s), dict(self.counts))
        self.self_s.clear()
        self.counts.clear()
        return out

    def _enter(self) -> float:
        self._stack.append(0.0)
        return _perf()

    def _exit(self, layer: str, t0: float) -> None:
        dt = _perf() - t0
        self.self_s[layer] += dt - self._stack.pop()
        if self._stack:
            self._stack[-1] += dt

    @contextmanager
    def span(self, layer: str):
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(layer, t0)

    def wrap(self, layer: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, t0)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _patch(self, module, name: str, value) -> None:
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def install(self) -> None:
        """Wrap the cross-module names used by cli and power_bandwidth."""
        from bandwidth_engine import cli, power_bandwidth as pb

        counts = self.counts

        def count_lp(args, sol) -> None:
            lp = args[0]
            counts["lps"] += 1
            counts["pivots"] += sol.iterations
            counts["columns"] += len(lp.variables)
            counts["rows"] += len(lp.constraints)

        def count_topology(args, result) -> None:
            counts["topologies"] += 1

        topo = pb.TopologyState

        class TopologyProxy:
            base = staticmethod(self.wrap(DC_NETWORK, topo.base, count_topology))
            for_contingency = staticmethod(
                self.wrap(DC_NETWORK, topo.for_contingency, count_topology)
            )

        self._patch(pb, "TopologyState", TopologyProxy)
        self._patch(pb, "build_lp", self.wrap(BUILD_LP, pb.build_lp))
        self._patch(pb, "solve", self.wrap(LP_CORE, pb.solve, count_lp))
        self._patch(pb, "select_ratings", self.wrap(GRID_MODEL, pb.select_ratings))
        self._patch(cli, "load_zone", self.wrap(GRID_MODEL, cli.load_zone))
        self._patch(cli, "load_forecast", self.wrap(GRID_MODEL, cli.load_forecast))
        self._patch(
            cli, "compute_power_bandwidths", self.wrap(POWER_BANDWIDTH, cli.compute_power_bandwidths)
        )
        self._patch(
            cli, "compute_energy_bandwidths", self.wrap(ENERGY, cli.compute_energy_bandwidths)
        )
        self._patch(cli, "summarize", self.wrap(STATISTICS, cli.summarize))

    def uninstall(self) -> None:
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)
