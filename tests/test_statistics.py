"""Availability aggregation."""

from __future__ import annotations

import csv
import io
import math

import pytest

from bandwidth_engine.power_bandwidth import CongestionClass, PowerBandwidthResult
from bandwidth_engine.statistics import summarize


def _res(i, cls, season="summer", binding=None):
    nan = math.nan
    return PowerBandwidthResult(
        index=i,
        timestamp=f"t{i}",
        season=season,
        lower_mw=nan if cls == CongestionClass.INFEASIBLE else -12.0,
        upper_mw=nan if cls == CongestionClass.INFEASIBLE else 12.0,
        curative_charge_worst_mw=0.0,
        curative_discharge_worst_mw=0.0,
        preventive_curtailment_lower_mw=0.0,
        preventive_curtailment_upper_mw=0.0,
        congestion_class=cls,
        binding_constraint=binding,
    )


def test_all_fully_available():
    report = summarize([_res(i, CongestionClass.FULLY_AVAILABLE) for i in range(8)])
    s = report.season("summer")
    assert (s.fraction_strong, s.fraction_congestion, s.fraction_fully_available) == (0.0, 0.0, 1.0)


def test_hand_counted_fractions():
    classes = (
        [CongestionClass.STRONG] * 2
        + [CongestionClass.REDUCED] * 3
        + [CongestionClass.FULLY_AVAILABLE] * 5
    )
    report = summarize([_res(i, c) for i, c in enumerate(classes)])
    s = report.season("summer")
    assert s.fraction_strong == pytest.approx(0.2)
    assert s.fraction_congestion == pytest.approx(0.5)
    assert s.fraction_fully_available == pytest.approx(0.5)


def test_invariants_hold_per_season():
    classes = [
        (CongestionClass.STRONG, "winter"),
        (CongestionClass.REDUCED, "winter"),
        (CongestionClass.FULLY_AVAILABLE, "winter"),
        (CongestionClass.REDUCED, "summer"),
        (CongestionClass.FULLY_AVAILABLE, "summer"),
        (CongestionClass.FULLY_AVAILABLE, "summer"),
    ]
    report = summarize([_res(i, c, season) for i, (c, season) in enumerate(classes)])
    for name in ("summer", "winter"):
        s = report.season(name)
        assert s.fraction_strong <= s.fraction_congestion
        assert s.fraction_fully_available == pytest.approx(1.0 - s.fraction_congestion)
    assert report.season("winter").timesteps == 3
    assert report.season("summer").timesteps == 3


def test_infeasible_counts_as_strong_congestion():
    report = summarize([_res(0, CongestionClass.INFEASIBLE), _res(1, CongestionClass.FULLY_AVAILABLE)])
    s = report.season("summer")
    assert s.infeasible == 1
    assert s.strong == 1
    assert s.fraction_congestion == pytest.approx(0.5)


def test_binding_histogram():
    rows = [
        _res(0, CongestionClass.REDUCED, binding="gamma-delta:normal:permanent"),
        _res(1, CongestionClass.REDUCED, binding="gamma-delta:normal:permanent"),
        _res(2, CongestionClass.STRONG, binding="alpha-beta:outage[n1]:immediate"),
        _res(3, CongestionClass.FULLY_AVAILABLE),
    ]
    report = summarize(rows)
    assert report.binding_lines == {
        "gamma-delta:normal:permanent": 2,
        "alpha-beta:outage[n1]:immediate": 1,
    }


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_report_serialization():
    report = summarize([_res(0, CongestionClass.REDUCED, binding="x:normal:permanent")])
    d = report.to_dict()
    assert d["by_season"]["summer"]["fraction_congestion"] == 1.0
    assert "x:normal:permanent" in report.to_text()


def test_binding_lines_csv():
    from bandwidth_engine.statistics import binding_lines_to_csv

    report = summarize(
        [
            _res(0, CongestionClass.REDUCED, binding="a:normal:permanent"),
            _res(1, CongestionClass.REDUCED, binding="a:normal:permanent"),
            _res(2, CongestionClass.STRONG, binding="b:outage[n]:immediate"),
            _res(3, CongestionClass.STRONG, binding="gamma,delta:normal:permanent"),
        ]
    )
    text = binding_lines_to_csv(report)
    assert text.splitlines() == [
        "binding_constraint,timesteps",
        "a:normal:permanent,2",
        "b:outage[n]:immediate,1",
        '"gamma,delta:normal:permanent",1',
    ]
    assert list(csv.reader(io.StringIO(text))) == [
        ["binding_constraint", "timesteps"],
        ["a:normal:permanent", "2"],
        ["b:outage[n]:immediate", "1"],
        ["gamma,delta:normal:permanent", "1"],
    ]
