"""Backward SoC recursion, the forward oracle, and the greedy witness."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandwidth_engine.energy_bandwidth import (
    SOC_TOL_MWH,
    EnergyBandwidthError,
    TrajectoryViolation,
    TrajectoryWitness,
    compute_energy_bandwidths,
    energy_results_to_csv,
    verify_trajectory_existence,
)
from bandwidth_engine.oracle import forward_soc_feasible_set
from bandwidth_engine.power_bandwidth import (
    CongestionClass,
    PowerBandwidthResult,
    compute_power_bandwidths,
)


def _result(
    index: int,
    lower: float,
    upper: float,
    charge_worst: float = 0.0,
    discharge_worst: float = 0.0,
    cls: CongestionClass = CongestionClass.REDUCED,
) -> PowerBandwidthResult:
    return PowerBandwidthResult(
        index=index,
        timestamp=f"t{index}",
        season="summer",
        lower_mw=lower,
        upper_mw=upper,
        curative_charge_worst_mw=charge_worst,
        curative_discharge_worst_mw=discharge_worst,
        preventive_curtailment_lower_mw=0.0,
        preventive_curtailment_upper_mw=0.0,
        congestion_class=cls,
        binding_constraint=None,
    )


def _series(specs) -> list[PowerBandwidthResult]:
    return [_result(i, *spec) for i, spec in enumerate(specs)]


def test_single_mandatory_charge(zone):
    """A 1.67 MW mandatory 1 h charge takes 1.67 MWh off the start headroom."""
    results = _series([(5.0 / 3.0, 12.0)])
    energy = compute_energy_bandwidths(results, zone)
    assert energy.interval(0) == (0.0, pytest.approx(24.0 - 5.0 / 3.0, abs=1e-9))
    assert energy.interval(1) == (0.0, 24.0)


def test_three_mw_charge_gives_21(zone):
    results = _series([(-12.0, 12.0), (3.0, 12.0), (-12.0, 12.0)])
    energy = compute_energy_bandwidths(results, zone)
    assert energy.interval(1) == (0.0, pytest.approx(21.0, abs=1e-12))


def test_all_fully_available_leaves_full_range(zone):
    results = _series([(-12.0, 12.0)] * 6)
    energy = compute_energy_bandwidths(results, zone)
    for t in range(7):
        assert energy.interval(t) == (0.0, 24.0)
    assert energy.feasible


def test_consecutive_charges_accumulate(zone):
    """Two 6 MW mandatory charges: 24 - 6 - 6 = 12 MWh two boundaries earlier."""
    results = _series([(6.0, 12.0), (6.0, 12.0)])
    energy = compute_energy_bandwidths(results, zone)
    assert energy.soc_upper_mwh[0] == pytest.approx(12.0, abs=1e-12)
    assert energy.soc_upper_mwh[1] == pytest.approx(18.0, abs=1e-12)


def test_curative_charge_reserves_headroom(zone):
    results = _series([(0.0, 12.0, 3.0)])
    energy = compute_energy_bandwidths(results, zone)
    # 5-minute curative window at 3 MW = 0.25 MWh of reserve
    assert energy.soc_upper_mwh[0] == pytest.approx(24.0 - 3.0 / 12.0, abs=1e-12)
    assert energy.soc_upper_mwh[0] <= 24.0 - zone.curative_duration_hours * 3.0 + 1e-12


def test_curative_discharge_raises_floor(zone):
    results = _series([(-12.0, -2.0, 0.0, -4.0)])
    energy = compute_energy_bandwidths(results, zone)
    # must hold 2 MWh for the mandatory discharge plus the curative reserve
    assert energy.soc_lower_mwh[0] == pytest.approx(2.0 + 4.0 / 12.0, abs=1e-12)


def test_mandatory_discharge_chain(zone):
    results = _series([(-12.0, -6.0), (-12.0, -6.0)])
    energy = compute_energy_bandwidths(results, zone)
    assert energy.soc_lower_mwh[0] == pytest.approx(12.0, abs=1e-12)


def test_infeasible_horizon_reported(zone):
    # five hours of mandatory 6 MW charging cannot fit a 24 MWh battery
    results = _series([(6.0, 12.0)] * 5)
    energy = compute_energy_bandwidths(results, zone)
    assert not energy.feasible
    assert 0 in energy.infeasible_boundaries


def test_forward_oracle_finds_the_same_empty_days_of_the_year(zone):
    """Day by day over the synthetic year, the forward oracle's corridor is
    empty on the 13 days whose backward recursion reports empty boundaries,
    and on no other. On each of those days no trajectory exists: from both
    ends and the midpoint of interval 0 the greedy construction reports a
    violation."""
    from bandwidth_engine.fixtures import synthetic_year_rows

    results = compute_power_bandwidths(zone, synthetic_year_rows(zone))
    recursion, oracle = [], []
    for day in range(365):
        series = results[24 * day : 24 * (day + 1)]
        energy = compute_energy_bandwidths(series, zone)
        if energy.infeasible_boundaries:
            recursion.append(series[0].timestamp[:10])
            lo, hi = energy.interval(0)
            for soc in (lo, 0.5 * (lo + hi), hi):
                got = verify_trajectory_existence(series, energy, zone, soc)
                assert isinstance(got, TrajectoryViolation), (recursion[-1], soc)
        lower, upper = forward_soc_feasible_set(series, zone)
        if any(lo > hi + SOC_TOL_MWH for lo, hi in zip(lower, upper)):
            oracle.append(series[0].timestamp[:10])
    assert recursion == oracle
    assert len(recursion) == 13
    assert {"2023-01-02", "2023-01-12", "2023-02-04", "2023-02-15"} <= set(recursion)


def test_infeasible_power_timestep_rejected(zone):
    bad = _result(0, math.nan, math.nan, cls=CongestionClass.INFEASIBLE)
    with pytest.raises(EnergyBandwidthError, match="infeasible"):
        compute_energy_bandwidths([bad], zone)


def test_winter_day_boundary_three(zone, winter_day):
    results = compute_power_bandwidths(zone, winter_day)
    energy = compute_energy_bandwidths(results, zone)
    lo, hi = energy.interval(3)
    assert lo == pytest.approx(0.0, abs=1e-9)
    assert hi == pytest.approx(21.0, abs=1e-9)


def test_anti_causality(zone, winter_day):
    """Bounds at a boundary depend only on later timesteps."""
    results = compute_power_bandwidths(zone, winter_day)
    energy = compute_energy_bandwidths(results, zone)
    perturbed = list(results)
    perturbed[0] = _result(0, 11.0, 12.0, 5.0)  # harshen the first step only
    energy2 = compute_energy_bandwidths(perturbed, zone)
    for t in range(1, 25):
        assert energy2.interval(t) == energy.interval(t)
    assert energy2.soc_upper_mwh[0] < energy.soc_upper_mwh[0]


# ---------------------------------------------------------------------------
# forward oracle and witness
# ---------------------------------------------------------------------------


def _random_series(rng: np.random.Generator, n: int) -> list[PowerBandwidthResult]:
    specs = []
    for _ in range(n):
        lo = float(rng.uniform(-12, 12))
        hi = float(rng.uniform(lo, 12))
        cc = float(rng.choice([0.0, rng.uniform(0, 6)]))
        cd = float(rng.choice([0.0, -rng.uniform(0, 6)]))
        specs.append((lo, hi, cc, cd))
    return _series(specs)


def test_forward_oracle_matches_backward_recursion(zone):
    rng = np.random.default_rng(42)
    for _ in range(120):
        n = int(rng.integers(1, 40))
        results = _random_series(rng, n)
        energy = compute_energy_bandwidths(results, zone)
        fwd_lo, fwd_hi = forward_soc_feasible_set(results, zone)
        for t in range(n + 1):
            assert fwd_lo[t] == pytest.approx(energy.soc_lower_mwh[t], abs=1e-6)
            assert fwd_hi[t] == pytest.approx(energy.soc_upper_mwh[t], abs=1e-6)


def test_witness_on_bundled_day(zone, summer_day):
    results = compute_power_bandwidths(zone, summer_day)
    energy = compute_energy_bandwidths(results, zone)
    witness = verify_trajectory_existence(results, energy, zone, initial_soc_mwh=0.0)
    assert isinstance(witness, TrajectoryWitness)
    for t, p in enumerate(witness.power_mw):
        assert results[t].lower_mw - 1e-9 <= p <= results[t].upper_mw + 1e-9
    for t, s in enumerate(witness.soc_mwh):
        lo, hi = energy.interval(t)
        assert lo - 1e-9 <= s <= hi + 1e-9


def test_witness_rejects_bad_start(zone, winter_day):
    results = compute_power_bandwidths(zone, winter_day)
    energy = compute_energy_bandwidths(results, zone)
    out = verify_trajectory_existence(results, energy, zone, initial_soc_mwh=energy.soc_upper_mwh[0] + 0.5)
    assert isinstance(out, TrajectoryViolation)
    assert out.boundary == 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), frac=st.floats(0.0, 1.0))
def test_witness_soundness_on_random_series(zone, seed, frac):
    """Greedy witness succeeds from any start inside the boundary-0 interval."""
    rng = np.random.default_rng(seed)
    results = _random_series(rng, int(rng.integers(1, 25)))
    energy = compute_energy_bandwidths(results, zone)
    if not energy.feasible:
        return
    lo, hi = energy.interval(0)
    start = lo + frac * (hi - lo)
    witness = verify_trajectory_existence(results, energy, zone, start)
    assert isinstance(witness, TrajectoryWitness), witness
    for t, p in enumerate(witness.power_mw):
        assert results[t].lower_mw - 1e-9 <= p <= results[t].upper_mw + 1e-9


def test_many_random_feasible_witnesses(zone):
    rng = np.random.default_rng(7)
    found = 0
    tries = 0
    while found < 1000 and tries < 4000:
        tries += 1
        results = _random_series(rng, int(rng.integers(1, 12)))
        energy = compute_energy_bandwidths(results, zone)
        if not energy.feasible:
            continue
        lo, hi = energy.interval(0)
        start = float(rng.uniform(lo, hi))
        witness = verify_trajectory_existence(results, energy, zone, start)
        assert isinstance(witness, TrajectoryWitness)
        found += 1
    assert found == 1000


def test_energy_csv_format(zone, winter_day):
    results = compute_power_bandwidths(zone, winter_day[:4])
    energy = compute_energy_bandwidths(results, zone)
    text = energy_results_to_csv(energy, [r.timestamp for r in results])
    lines = text.splitlines()
    assert lines[0] == "boundary,timestamp,soc_lower_mwh,soc_upper_mwh"
    assert lines[1].startswith("0,2023-01-18T00:00,0.000000,")
    assert lines[-1].startswith("4,end,")
