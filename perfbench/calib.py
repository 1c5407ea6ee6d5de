"""Host-speed calibration kernel.

The engine's hot path mixes small dense NumPy updates (tableau pivots on
~70 x 150 arrays) with Python-level bookkeeping (dicts keyed by strings,
small objects created per LP). The kernel repeats both halves of that mix on
the benchmark's own inputs, allocated once, so its duration tracks how fast
this host runs such code at the moment it runs. An operation's raw time times
``REFERENCE_S`` over the kernel time measured next to it is that operation's
host-adjusted time.

The two halves take about 40 % and 60 % of the kernel's time. That split was
chosen on recorded interleavings of kernel and engine ops on the reference
machine: the pure NumPy half alone under-corrects the engine's slow spells
and the pure Python half alone over-corrects them (README.md).

The kernel shares no code with the engine, so a change to the engine never
changes the kernel and the reference stays valid across commits.
"""

from __future__ import annotations

import time

import numpy as np

#: Median kernel duration on the reference machine (2 vCPU Xeon VM,
#: Python 3.11.7, NumPy 2.4). Adjusted timings are expressed in the seconds of
#: that machine; see README.md.
REFERENCE_S = 0.0100

_ROWS, _COLS = 64, 140
_SWEEPS = 3
_PASSES = 95
_KEYS = tuple(f"var:{i}" for i in range(64))


class _Var:
    __slots__ = ("name", "lower", "upper")

    def __init__(self, name: str, lower: float, upper: float) -> None:
        self.name, self.lower, self.upper = name, lower, upper


class Kernel:
    """Fixed Gauss-Jordan sweeps, then string-keyed dict and object churn."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20181205)
        # diagonally dominant leading block keeps every pivot well away from 0
        base = rng.uniform(-1.0, 1.0, size=(_ROWS, _COLS))
        base[:, :_ROWS] += np.eye(_ROWS) * 4.0 * _ROWS
        self._base = base
        self._work = np.empty_like(base)
        self.checksum = self._run_once()

    def _run_once(self) -> float:
        T = self._work
        acc = 0.0
        for _ in range(_SWEEPS):
            np.copyto(T, self._base)
            names: dict[str, float] = {}
            for row in range(_ROWS):
                T[row, :] /= T[row, row]
                factors = T[:, row].copy()
                factors[row] = 0.0
                T -= np.outer(factors, T[row, :])
                cand = np.where(T[row, _ROWS:] < 0.0)[0]
                acc += float(cand.size)
                for k in _KEYS[row % 8 :: 8]:
                    names[k] = names.get(k, 0.0) + T[row, -1]
            acc += float(T[:, -1].sum()) + len(names)
        for p in range(_PASSES):
            by_name = {v.name: v for v in (_Var(k, -1.0, float(i)) for i, k in enumerate(_KEYS))}
            coeffs: dict[str, float] = {}
            for k in _KEYS:
                v = by_name[k]
                coeffs[f"{k}:{p}"] = coeffs.get(k, 0.0) + v.upper * 0.5 - v.lower
            acc += sum(c for c in coeffs.values() if c > 3.0)
            acc += len(sorted(coeffs, key=coeffs.get))
        return acc

    def time_once(self) -> float:
        """Seconds taken by one kernel run; checks it computed the same result."""
        t0 = time.perf_counter()
        acc = self._run_once()
        elapsed = time.perf_counter() - t0
        if acc != self.checksum:
            raise RuntimeError("calibration kernel result changed between runs")
        return elapsed
