"""Zone and forecast loading: schema, invariants, round-trips."""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandwidth_engine.fixtures import (
    day_forecast_rows,
    forecast_to_csv,
    reference_zone_dict,
    write_forecast_csv,
)
from bandwidth_engine.grid_model import (
    BALANCE_TOL_MW,
    PTDF_PARTITION_TOL,
    Season,
    ZoneValidationError,
    load_forecast,
    load_zone,
    select_ratings,
    zone_from_dict,
    zone_to_dict,
)
from bandwidth_engine.power_bandwidth import network_model


def test_bundled_zone_loads(zone):
    assert [b.id for b in zone.buses] == ["alpha", "beta", "gamma", "delta"]
    assert zone.battery_bus == "gamma"
    assert zone.battery.battery_max_mw == 12.0
    assert zone.battery.battery_min_mw == -12.0
    assert zone.battery_capacity_mwh == 24.0
    assert [l.id for l in zone.lines] == ["alpha-beta", "beta-gamma", "gamma-delta"]
    # only the designated battery bus carries nonzero battery bounds
    for b in zone.buses:
        if b.id != "gamma":
            assert b.battery_min_mw == 0.0 == b.battery_max_mw


def test_seasonal_rating_selection(zone):
    gd = zone.line("gamma-delta")
    rs = select_ratings(gd, Season.SUMMER)
    assert (rs.permanent_mw, rs.long_term_mw, rs.immediate_mw) == (77.0, 82.0, 111.0)
    ab = zone.line("alpha-beta")
    rw = select_ratings(ab, "winter")
    assert (rw.permanent_mw, rw.long_term_mw, rw.immediate_mw) == (81.0, 99.0, 101.0)
    rsum = select_ratings(ab, "summer")
    assert (rsum.permanent_mw, rsum.long_term_mw, rsum.immediate_mw) == (70.0, 81.0, 101.0)


def test_short_term_rating_carried_but_optional(zone):
    assert zone.line("gamma-delta").ratings_summer.short_term_mw == 95.0
    assert zone.line("alpha-beta").ratings_summer.short_term_mw is None


def test_zone_roundtrip(zone, tmp_path):
    p = tmp_path / "zone.json"
    p.write_text(json.dumps(zone_to_dict(zone)))
    again = load_zone(p)
    assert again == zone


def test_single_bus_zone_rejected():
    doc = reference_zone_dict()
    doc["buses"] = [{"id": "only"}]
    doc["lines"] = []
    doc["outbound_lines"] = []
    doc["contingencies"] = []
    doc["battery"]["bus"] = "only"
    with pytest.raises(ZoneValidationError, match="no internal lines"):
        zone_from_dict(doc)


def test_disconnected_topology_rejected():
    doc = reference_zone_dict()
    doc["lines"] = [l for l in doc["lines"] if l["id"] != "beta-gamma"]
    doc["contingencies"] = []
    with pytest.raises(ZoneValidationError, match="disconnected"):
        zone_from_dict(doc)


def test_zero_reactance_rejected():
    doc = reference_zone_dict()
    doc["lines"][0]["reactance_pu"] = 0.0
    with pytest.raises(ZoneValidationError, match="reactance_pu must be > 0"):
        zone_from_dict(doc)


def test_rating_ordering_enforced():
    doc = reference_zone_dict()
    doc["lines"][0]["ratings_summer"]["long_term_mw"] = 60.0  # below permanent 70
    with pytest.raises(ZoneValidationError, match="permanent <= long_term <= immediate"):
        zone_from_dict(doc)


def test_battery_bounds_sign_enforced():
    doc = reference_zone_dict()
    doc["battery"]["pmin_mw"] = 1.0
    with pytest.raises(ZoneValidationError, match="pmin <= 0 <= pmax"):
        zone_from_dict(doc)


def test_unknown_contingency_element_rejected():
    doc = reference_zone_dict()
    doc["contingencies"][0]["outaged_element"] = "no-such-line"
    with pytest.raises(ZoneValidationError, match="unknown element"):
        zone_from_dict(doc)


def test_topology_flag_consistency_checked():
    doc = reference_zone_dict()
    doc["contingencies"][0]["modifies_zone_topology"] = False
    with pytest.raises(ZoneValidationError, match="modifies_zone_topology"):
        zone_from_dict(doc)


def test_ptdf_partition_of_unity_enforced():
    doc = reference_zone_dict()
    doc["outbound_lines"][0]["ptdf_normal"]["gamma"] = 0.55  # 0.55 + 0.6 != 1
    with pytest.raises(ZoneValidationError, match="sum to"):
        zone_from_dict(doc)


def test_ptdf_magnitude_bounded():
    doc = reference_zone_dict()
    doc["outbound_lines"][0]["ptdf_normal"]["gamma"] = 1.4
    with pytest.raises(ZoneValidationError, match="magnitude"):
        zone_from_dict(doc)


def test_outage_must_not_strand_battery():
    # battery at delta + gamma-delta outage leaves delta without rated lines
    doc = reference_zone_dict()
    doc["battery"]["bus"] = "delta"
    with pytest.raises(ZoneValidationError, match="disconnects battery bus"):
        zone_from_dict(doc)


def test_forecast_roundtrip(zone, tmp_path):
    series = day_forecast_rows(zone, "summer_day")
    p = tmp_path / "fc.csv"
    write_forecast_csv(zone, series, p)
    again = load_forecast(p, zone)
    assert len(again) == 24
    row = again[7]
    assert row.season == Season.SUMMER
    assert row.injections_mw["gamma"] == pytest.approx(series[7].injections_mw["gamma"], abs=1e-8)
    assert row.ref_contingency_mw["gamma-delta-outage"]["alpha-west"] == pytest.approx(
        series[7].ref_contingency_mw["gamma-delta-outage"]["alpha-west"], abs=1e-8
    )


def test_forecast_missing_column_rejected(zone, tmp_path):
    series = day_forecast_rows(zone, "summer_day")
    text = forecast_to_csv(zone, series)
    lines = text.splitlines()
    cols = lines[0].split(",")
    drop = cols.index("ref:alpha-west@gamma-delta-outage")
    trimmed = "\n".join(
        ",".join(c for i, c in enumerate(line.split(",")) if i != drop) for line in lines
    )
    p = tmp_path / "fc.csv"
    p.write_text(trimmed)
    with pytest.raises(ZoneValidationError, match="missing column"):
        load_forecast(p, zone)


def test_forecast_unknown_column_rejected(zone, tmp_path):
    series = day_forecast_rows(zone, "summer_day")
    text = forecast_to_csv(zone, series)
    lines = text.splitlines()
    lines[0] += ",mystery"
    lines[1:] = [l + ",0" for l in lines[1:]]
    p = tmp_path / "fc.csv"
    p.write_text("\n".join(lines))
    with pytest.raises(ZoneValidationError, match="unknown column"):
        load_forecast(p, zone)


def test_forecast_imbalance_rejected(zone, tmp_path):
    series = day_forecast_rows(zone, "summer_day")
    text = forecast_to_csv(zone, series)
    lines = text.splitlines()
    cols = lines[0].split(",")
    idx = cols.index("inj:gamma")
    cells = lines[1].split(",")
    cells[idx] = str(float(cells[idx]) + 5.0)
    lines[1] = ",".join(cells)
    p = tmp_path / "fc.csv"
    p.write_text("\n".join(lines))
    with pytest.raises(ZoneValidationError, match="balance"):
        load_forecast(p, zone)


def test_forecast_negative_curtailable_rejected(zone, tmp_path):
    series = day_forecast_rows(zone, "summer_day")
    text = forecast_to_csv(zone, series)
    lines = text.splitlines()
    cols = lines[0].split(",")
    idx = cols.index("curt_max:gamma")
    cells = lines[1].split(",")
    cells[idx] = "-1"
    lines[1] = ",".join(cells)
    p = tmp_path / "fc.csv"
    p.write_text("\n".join(lines))
    with pytest.raises(ZoneValidationError, match="negative"):
        load_forecast(p, zone)


def test_empty_forecast_rejected(zone, tmp_path):
    p = tmp_path / "fc.csv"
    p.write_text("")
    with pytest.raises(ZoneValidationError, match="empty"):
        load_forecast(p, zone)


def test_types_are_immutable(zone):
    with pytest.raises(AttributeError):
        zone.battery_capacity_mwh = 48.0
    with pytest.raises(AttributeError):
        zone.lines[0].reactance_pu = 1.0


def test_committed_bundle_matches_regeneration(zone, tmp_path):
    """The files under data/ are exactly what the generators produce."""
    from bandwidth_engine.fixtures import write_bundle

    data_dir = Path(__file__).resolve().parent.parent / "data"
    if not data_dir.exists():
        pytest.skip("bundle not present in this checkout")
    fresh = write_bundle(tmp_path)
    for name in ("zone90kv.json", "forecast_summer_day.csv", "forecast_winter_day.csv"):
        assert (tmp_path / name).read_text() == (data_dir / name).read_text(), name


# ---------------------------------------------------------------------------
# every zone-validation message, word for word: one hand edit of the bundled
# zone file per check
# ---------------------------------------------------------------------------

DELETE = object()  # the edit removes the field
_DOC = reference_zone_dict()  # the bundled file's content
C0 = _DOC["contingencies"][0]
OUTBOUND_OUTAGE = {"id": "west-outage", "outaged_element": "alpha-west", "modifies_zone_topology": True}
DOC_LINES, DOC_OUTBOUND = _DOC["lines"], _DOC["outbound_lines"]

# (case, [(path into the document, new value or DELETE)], the exact message)
VALIDATION_MESSAGES = [
    ("missing-buses", [(("buses",), DELETE)], "zone file missing field 'buses'"),
    ("missing-lines", [(("lines",), DELETE)], "zone file missing field 'lines'"),
    ("missing-outbound_lines", [(("outbound_lines",), DELETE)], "zone file missing field 'outbound_lines'"),
    ("missing-contingencies", [(("contingencies",), DELETE)], "zone file missing field 'contingencies'"),
    ("missing-battery", [(("battery",), DELETE)], "zone file missing field 'battery'"),
    ("missing-timestep_hours", [(("timestep_hours",), DELETE)], "zone file missing field 'timestep_hours'"),
    ("missing-curative_duration_hours", [(("curative_duration_hours",), DELETE)],
     "zone file missing field 'curative_duration_hours'"),
    ("battery-missing-bus", [(("battery", "bus"), DELETE)], "battery block missing field 'bus'"),
    ("battery-missing-pmin_mw", [(("battery", "pmin_mw"), DELETE)], "battery block missing field 'pmin_mw'"),
    ("battery-missing-pmax_mw", [(("battery", "pmax_mw"), DELETE)], "battery block missing field 'pmax_mw'"),
    ("battery-missing-capacity_mwh", [(("battery", "capacity_mwh"), DELETE)],
     "battery block missing field 'capacity_mwh'"),
    ("bus-missing-id", [(("buses", 1, "id"), DELETE)], "bus entry missing field 'id'"),
    ("duplicate-bus", [(("buses", 1, "id"), "alpha")], "duplicate bus id 'alpha'"),
    ("battery-bus-unknown", [(("battery", "bus"), "omega")], "battery bus 'omega' not among buses"),
    ("pmin-not-a-number", [(("battery", "pmin_mw"), "low")], "battery pmin_mw is not a number: 'low'"),
    ("pmin-nan", [(("battery", "pmin_mw"), math.nan)], 'battery pmin_mw is NaN'),
    ("pmax-not-a-number", [(("battery", "pmax_mw"), [12])], 'battery pmax_mw is not a number: [12]'),
    ("pmax-nan", [(("battery", "pmax_mw"), math.nan)], 'battery pmax_mw is NaN'),
    ("battery-bounds", [(("battery", "pmax_mw"), -0.5)],
     'battery bounds must satisfy pmin <= 0 <= pmax, got [-12.0, -0.5]'),
    ("line-missing-id", [(("lines", 1, "id"), DELETE)], "line entry missing field 'id'"),
    ("line-missing-from_bus", [(("lines", 1, "from_bus"), DELETE)], "line entry missing field 'from_bus'"),
    ("line-missing-to_bus", [(("lines", 1, "to_bus"), DELETE)], "line entry missing field 'to_bus'"),
    ("line-missing-reactance_pu", [(("lines", 1, "reactance_pu"), DELETE)],
     "line entry missing field 'reactance_pu'"),
    ("line-missing-ratings_summer", [(("lines", 1, "ratings_summer"), DELETE)],
     "line entry missing field 'ratings_summer'"),
    ("line-missing-ratings_winter", [(("lines", 1, "ratings_winter"), DELETE)],
     "line entry missing field 'ratings_winter'"),
    ("duplicate-line", [(("lines", 2, "id"), "alpha-beta")], "duplicate line id 'alpha-beta'"),
    ("reactance-not-a-number", [(("lines", 0, "reactance_pu"), "x")],
     "line 'alpha-beta' reactance_pu is not a number: 'x'"),
    ("reactance-nan", [(("lines", 0, "reactance_pu"), math.nan)], "line 'alpha-beta' reactance_pu is NaN"),
    ("reactance-negative", [(("lines", 0, "reactance_pu"), -0.04)],
     "line 'alpha-beta' reactance_pu must be > 0, got -0.04"),
    ("reactance-infinite", [(("lines", 0, "reactance_pu"), math.inf)],
     "line 'alpha-beta' reactance_pu must be finite, got inf"),
    ("susceptance-infinite", [(("lines", 0, "reactance_pu"), 1e-320)],
     "line 'alpha-beta' reactance_pu 1e-320 has no finite susceptance 1/x"),
    ("susceptance-overflows", [(("lines", 0, "reactance_pu"), 5e-309)],
     "line 'alpha-beta' reactance_pu 5e-309 has no finite susceptance 1/x"),
    ("susceptances-sum-to-infinity", [(("lines", 0, "reactance_pu"), 1e-308), (("lines", 1, "reactance_pu"), 1e-308)],
     "bus 'beta': the susceptances 1/x of its lines sum to inf"),
    ("line-self-loop", [(("lines", 1, "to_bus"), "beta")], "line 'beta-gamma' connects bus 'beta' to itself"),
    ("from-bus-unknown", [(("lines", 1, "from_bus"), "omega")],
     "line 'beta-gamma' from_bus 'omega' not among buses"),
    ("to-bus-unknown", [(("lines", 1, "to_bus"), "omega")],
     "line 'beta-gamma' to_bus 'omega' not among buses"),
    ("ratings-missing-permanent_mw", [(("lines", 2, "ratings_winter", "permanent_mw"), DELETE)],
     "line 'gamma-delta' ratings_winter missing field 'permanent_mw'"),
    ("ratings-missing-long_term_mw", [(("lines", 2, "ratings_winter", "long_term_mw"), DELETE)],
     "line 'gamma-delta' ratings_winter missing field 'long_term_mw'"),
    ("ratings-missing-immediate_mw", [(("lines", 2, "ratings_winter", "immediate_mw"), DELETE)],
     "line 'gamma-delta' ratings_winter missing field 'immediate_mw'"),
    ("rating-not-a-number-permanent_mw", [(("lines", 2, "ratings_summer", "permanent_mw"), "hot")],
     "line 'gamma-delta' summer permanent_mw is not a number: 'hot'"),
    ("rating-not-a-number-long_term_mw", [(("lines", 2, "ratings_summer", "long_term_mw"), "hot")],
     "line 'gamma-delta' summer long_term_mw is not a number: 'hot'"),
    ("rating-not-a-number-immediate_mw", [(("lines", 2, "ratings_summer", "immediate_mw"), "hot")],
     "line 'gamma-delta' summer immediate_mw is not a number: 'hot'"),
    ("rating-not-a-number-short_term_mw", [(("lines", 2, "ratings_summer", "short_term_mw"), "hot")],
     "line 'gamma-delta' summer short_term_mw is not a number: 'hot'"),
    ("rating-nan", [(("lines", 2, "ratings_winter", "immediate_mw"), math.nan)],
     "line 'gamma-delta' winter immediate_mw is NaN"),
    ("rating-order-summer", [(("lines", 0, "ratings_summer", "long_term_mw"), 60.0)],
     "line 'alpha-beta' summer ratings must satisfy 0 < permanent <= long_term <= immediate, got (70.0, 60.0, 101.0)"),
    ("rating-order-winter", [(("lines", 1, "ratings_winter", "permanent_mw"), 0.0)],
     "line 'beta-gamma' winter ratings must satisfy 0 < permanent <= long_term <= immediate, got (0.0, 101.0, 101.0)"),
    ("no-lines", [(("lines",), [])], 'zone has no internal lines (degenerate topology)'),
    ("disconnected", [(("lines",), [DOC_LINES[0], DOC_LINES[2]])],
     'zone base topology is disconnected; islands: alpha,beta; delta,gamma'),
    ("contingency-missing-element", [(("contingencies", 0, "outaged_element"), DELETE)],
     "contingency entry missing 'id' or 'outaged_element'"),
    ("duplicate-contingency", [(("contingencies",), [C0, C0])],
     "duplicate contingency id 'gamma-delta-outage'"),
    ("contingency-unknown-element", [(("contingencies", 0, "outaged_element"), "omega")],
     "contingency 'gamma-delta-outage' outages unknown element 'omega'"),
    ("contingency-flag-internal", [(("contingencies", 0, "modifies_zone_topology"), False)],
     "contingency 'gamma-delta-outage': modifies_zone_topology=False inconsistent with outaged element 'gamma-delta' (internal)"),
    ("contingency-flag-outbound", [(("contingencies",), [C0, OUTBOUND_OUTAGE])],
     "contingency 'west-outage': modifies_zone_topology=True inconsistent with outaged element 'alpha-west' (outbound)"),
    ("outbound-missing-id", [(("outbound_lines", 1, "id"), DELETE)],
     "outbound line entry missing field 'id'"),
    ("outbound-missing-boundary_bus", [(("outbound_lines", 1, "boundary_bus"), DELETE)],
     "outbound line entry missing field 'boundary_bus'"),
    ("outbound-missing-ptdf_normal", [(("outbound_lines", 1, "ptdf_normal"), DELETE)],
     "outbound line entry missing field 'ptdf_normal'"),
    ("duplicate-outbound", [(("outbound_lines", 1, "id"), "alpha-west")],
     "duplicate outbound line id 'alpha-west'"),
    ("boundary-bus-unknown", [(("outbound_lines", 1, "boundary_bus"), "omega")],
     "outbound line 'delta-east' boundary_bus 'omega' not among buses"),
    ("ptdf-unknown-bus", [(("outbound_lines", 0, "ptdf_normal", "omega"), 0.0)],
     "outbound 'alpha-west' ptdf_normal references unknown bus 'omega'"),
    ("ptdf-not-a-number", [(("outbound_lines", 0, "ptdf_normal", "beta"), None)],
     "outbound 'alpha-west' ptdf_normal factor for bus 'beta' is not a number: None"),
    ("ptdf-nan", [(("outbound_lines", 0, "ptdf_normal", "beta"), math.nan)],
     "outbound 'alpha-west' ptdf_normal factor for bus 'beta' is NaN"),
    ("ptdf-infinite", [(("outbound_lines", 0, "ptdf_normal", "beta"), -math.inf)],
     "outbound 'alpha-west' ptdf_normal factor for bus 'beta' is not finite"),
    ("ptdf-magnitude", [(("outbound_lines", 0, "ptdf_normal", "gamma"), 1.4)],
     "outbound 'alpha-west' ptdf_normal factor for bus 'gamma' has magnitude 1.4 > 1"),
    ("ptdf-unknown-contingency", [(("outbound_lines", 1, "ptdf_contingency", "omega-outage"), {})],
     "outbound 'delta-east' ptdf_contingency references unknown contingency 'omega-outage'"),
    ("ptdf-contingency-magnitude", [(("outbound_lines", 1, "ptdf_contingency", "gamma-delta-outage", "delta"), -1.25)],
     "outbound 'delta-east' ptdf_contingency['gamma-delta-outage'] factor for bus 'delta' has magnitude 1.25 > 1"),
    ("ptdf-contingency-not-a-number", [(("outbound_lines", 1, "ptdf_contingency", "gamma-delta-outage", "alpha"), "zero")],
     "outbound 'delta-east' ptdf_contingency['gamma-delta-outage'] factor for bus 'alpha' is not a number: 'zero'"),
    ("no-outbound", [(("outbound_lines",), []), (("contingencies",), [])],
     'zone has no outbound lines; boundary flows are required'),
    ("capacity-not-a-number", [(("battery", "capacity_mwh"), {})],
     'battery capacity_mwh is not a number: {}'),
    ("capacity-zero", [(("battery", "capacity_mwh"), 0.0)], 'battery capacity_mwh must be > 0, got 0.0'),
    ("soc-min-not-a-number", [(("battery", "soc_min_mwh"), "empty")],
     "battery soc_min_mwh is not a number: 'empty'"),
    ("soc-min-at-capacity", [(("battery", "soc_min_mwh"), 24.0)],
     'battery soc_min_mwh must lie in [0, capacity), got 24.0'),
    ("timestep-not-a-number", [(("timestep_hours",), "1h")], "timestep_hours is not a number: '1h'"),
    ("timestep-zero", [(("timestep_hours",), 0)], 'timestep_hours must be > 0, got 0.0'),
    ("curative-not-a-number", [(("curative_duration_hours",), math.nan)], 'curative_duration_hours is NaN'),
    ("curative-too-long", [(("curative_duration_hours",), 1.5)],
     'curative_duration_hours must lie in (0, timestep_hours], got 1.5'),
    ("base-mva-not-a-number", [(("base_mva",), "100 MVA")], "base_mva is not a number: '100 MVA'"),
    ("base-mva-negative", [(("base_mva",), -100.0)], 'base_mva must be > 0, got -100.0'),
    ("outage-strands-battery", [(("battery", "bus"), "delta")],
     "contingency 'gamma-delta-outage' disconnects battery bus 'delta' from every rated line"),
    (
        "island-without-outbound",
        [
            (("outbound_lines",), [DOC_OUTBOUND[0]]),
            (("outbound_lines", 0, "ptdf_normal"), {"alpha": 1.0, "beta": 1.0, "gamma": 1.0, "delta": 1.0}),
        ],
        "contingency 'gamma-delta-outage' leaves island {delta} without any outbound line",
    ),
    ("no-ptdf-contingency-entry", [(("outbound_lines", 0, "ptdf_contingency"), DELETE)],
     "outbound 'alpha-west' has no ptdf_contingency entry for 'gamma-delta-outage'"),
    (
        "sensitivity-in-another-island",
        [(("outbound_lines", 0, "ptdf_contingency", "gamma-delta-outage", "delta"), 0.3)],
        "contingency 'gamma-delta-outage': bus 'delta' has nonzero sensitivity 0.3 on outbound 'alpha-west' in a different island",
    ),
    # every object names the first field the format does not define
    ("zone-unknown-field", [(("name",), "zone90kv")], "zone file has unknown field 'name'"),
    ("battery-unknown-field", [(("battery", "soc_min_mw"), 4)], "battery block has unknown field 'soc_min_mw'"),
    ("bus-unknown-field", [(("buses", 1, "voltage_kv"), 90)], "bus entry has unknown field 'voltage_kv'"),
    ("line-unknown-field", [(("lines", 1, "resistance_pu"), 0.01)], "line entry has unknown field 'resistance_pu'"),
    ("ratings-unknown-field", [(("lines", 2, "ratings_winter", "emergency_mw"), 120)],
     "line 'gamma-delta' ratings_winter has unknown field 'emergency_mw'"),
    ("outbound-unknown-field", [(("outbound_lines", 1, "ptdf_contingencies"), {})],
     "outbound line entry has unknown field 'ptdf_contingencies'"),
    ("contingency-unknown-field", [(("contingencies", 0, "probability"), 0.01)],
     "contingency entry has unknown field 'probability'"),
    ("partition-base", [(("outbound_lines", 0, "ptdf_normal", "gamma"), 0.55)],
     "base topology: outbound sensitivities of bus 'gamma' sum to 1.15, expected 1 (export-positive convention)"),
    ("partition-contingency", [(("outbound_lines", 1, "ptdf_contingency", "gamma-delta-outage", "delta"), 0.9)],
     "contingency 'gamma-delta-outage': outbound sensitivities of bus 'delta' sum to 0.9, expected 1 (export-positive convention)"),
]


def _edited(doc: dict, edits) -> dict:
    doc = copy.deepcopy(doc)
    for path, value in edits:
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is DELETE:
            del target[path[-1]]
        else:
            target[path[-1]] = copy.deepcopy(value)
    return doc


# values of the wrong JSON type where a list or an object belongs
WRONG_TYPES = [
    ("lines-null", [(("lines",), None)], "zone field 'lines' must be a list, got null"),
    ("battery-null", [(("battery",), None)], "battery block must be an object, got null"),
    ("ratings-null", [(("lines", 0, "ratings_summer"), None)],
     "line 'alpha-beta' ratings_summer must be an object, got null"),
    ("buses-a-number", [(("buses",), 3)], "zone field 'buses' must be a list, got a number"),
    ("ptdf-a-string", [(("outbound_lines", 0, "ptdf_normal"), "0.72")],
     "outbound 'alpha-west' ptdf_normal must be an object, got a string"),
    ("ptdf-contingency-a-list", [(("outbound_lines", 1, "ptdf_contingency"), [0.0, 1.0])],
     "outbound 'delta-east' ptdf_contingency must be an object, got a list"),
    ("bus-null", [(("buses", 2), None)], "bus entry must be an object, got null"),
    ("line-a-number", [(("lines", 1), 7)], "line entry must be an object, got a number"),
    ("outbound-null", [(("outbound_lines", 0), None)], "outbound line entry must be an object, got null"),
    ("contingency-null", [(("contingencies", 0), None)], "contingency entry missing 'id' or 'outaged_element'"),
    ("contingencies-a-boolean", [(("contingencies",), True)], "zone field 'contingencies' must be a list, got a boolean"),
    # ids and the references to them are JSON strings: a number is not read as its text
    ("bus-id-a-number", [(("buses", 1, "id"), 1)], "bus entry id must be a string, got a number"),
    ("bus-id-a-number-after-its-text", [(("buses",), [*_DOC["buses"], {"id": "1"}, {"id": 1}])],
     "bus entry id must be a string, got a number"),
    ("battery-bus-a-number", [(("battery", "bus"), 2)], "battery bus must be a string, got a number"),
    ("line-id-a-number", [(("lines", 1, "id"), 7)], "line entry id must be a string, got a number"),
    ("from-bus-a-number", [(("lines", 1, "from_bus"), 1)], "line 'beta-gamma' from_bus must be a string, got a number"),
    ("to-bus-null", [(("lines", 1, "to_bus"), None)], "line 'beta-gamma' to_bus must be a string, got null"),
    ("contingency-id-a-number", [(("contingencies", 0, "id"), 1)], "contingency entry id must be a string, got a number"),
    ("outaged-element-a-boolean", [(("contingencies", 0, "outaged_element"), True)],
     "contingency 'gamma-delta-outage' outaged_element must be a string, got a boolean"),
    ("outbound-id-a-number", [(("outbound_lines", 1, "id"), 2)], "outbound line entry id must be a string, got a number"),
    ("boundary-bus-a-number", [(("outbound_lines", 1, "boundary_bus"), 4)],
     "outbound line 'delta-east' boundary_bus must be a string, got a number"),
    *(
        (f"{key}-{kind}", [((key,), value)], f"zone field {key!r} must be a list, got {message}")
        for key in ("buses", "lines", "outbound_lines", "contingencies")
        for kind, value, message in (("an-object", {}, "an object"), ("a-string", "", "a string"))
    ),
]


CASES = VALIDATION_MESSAGES + WRONG_TYPES


@pytest.mark.parametrize("edits, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_validation_message_is_exact(zone_path, edits, message):
    doc = json.loads(zone_path.read_text())
    with pytest.raises(ZoneValidationError) as err:
        zone_from_dict(_edited(doc, edits))
    assert str(err.value) == message


_WINTER_CSV = Path(__file__).resolve().parent.parent / "data" / "forecast_winter_day.csv"
# cell text without quotes or line breaks, so csv reads a line as its split on ","
_CELL = st.one_of(
    st.sampled_from(["", "999", "junk", "nan", "-inf", "1e400", "-1", "winter", "spring"]),
    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"), blacklist_characters='"'), max_size=4),
)


def _computes_every_row(zone, forecast) -> None:
    """The zone's DC model builds, and gives every row's base flows."""
    network_model(zone).base_flows(list(forecast))


@settings(max_examples=40, deadline=None)
@given(
    edits=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["replace", "add", "drop"]), st.integers(0, 24), st.integers(0, 15), _CELL),
            # a number cell moved by up to twice the balance tolerance
            st.tuples(st.just("nudge"), st.integers(1, 24), st.integers(2, 13),
                      st.floats(-2 * BALANCE_TOL_MW, 2 * BALANCE_TOL_MW)),
        ),
        min_size=1,
        max_size=3,
    )
)
@example(edits=[("add", 4, 14, "999"), ("add", 4, 15, "junk")])  # a row ending ",999,junk"
@example(edits=[("nudge", 1, 4, 9.99e-7)])  # inj:gamma of the first hour, at the edge
def test_mutated_forecast_loads_or_raises_zone_validation_error(zone, tmp_path_factory, edits):
    """The bundled winter-day forecast with cells replaced, added, dropped
    or nudged (in the header or a data row) either loads or raises
    ``ZoneValidationError``, never another exception; a non-blank row
    whose cell count differs from the header's never loads, and a forecast
    that loads computes every row's base flows."""
    lines = _WINTER_CSV.read_text().splitlines()
    for op, line, at, text in edits:
        cells = lines[line].split(",")
        if op == "replace":
            cells[at % len(cells)] = text
        elif op == "add":
            cells.insert(at, text)
        elif op == "drop":
            del cells[at % len(cells)]
        else:
            try:
                cells[at] = repr(float(cells[at]) + text)
            except (IndexError, ValueError):
                pass
        lines[line] = ",".join(cells)
    p = tmp_path_factory.mktemp("forecast") / "forecast.csv"
    p.write_text("\n".join(lines) + "\n")
    width = len(lines[0].split(","))
    ragged = any(len(cells) != width for cells in (l.split(",") for l in lines[1:]) if any(c.strip() for c in cells))
    try:
        forecast = load_forecast(p, zone)
    except ZoneValidationError:
        return
    assert not ragged
    _computes_every_row(zone, forecast)


def _paths(node, path=()):
    """The path to ``node`` and to every container and value inside it."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


_ZONE_PATHS = list(_paths(_DOC))[1:]
_PTDF_PATHS = [  # every sensitivity: outbound_lines, i, ptdf_normal, bus or ptdf_contingency, id, bus
    path for path in _ZONE_PATHS if path[2:3] == ("ptdf_normal",) and len(path) == 4
    or path[2:3] == ("ptdf_contingency",) and len(path) == 5
]
_JSON_VALUE = st.sampled_from(
    [None, True, 0, -1.0, 0.5, 2.0, 1e9, "", "alpha", "delta", "omega", "gamma-delta", "alpha-west",
     "gamma-delta-outage", [], {}, {"id": "omega"}]
)
_KEY = st.sampled_from(["omega", "delta", "short_term_mw", "soc_min_mwh", "modifies_zone_topology", "base_mva"])


@settings(max_examples=60, deadline=None)
@given(
    edits=st.lists(
        st.one_of(
            st.tuples(st.just("replace"), st.sampled_from(_ZONE_PATHS), _JSON_VALUE),
            st.tuples(st.just("drop"), st.sampled_from(_ZONE_PATHS), st.none()),
            st.tuples(st.just("add"), st.sampled_from([(), *_ZONE_PATHS]), st.tuples(_KEY, _JSON_VALUE)),
            # a sensitivity moved by up to twice the partition tolerance
            st.tuples(st.just("nudge"), st.sampled_from(_PTDF_PATHS),
                      st.floats(-2 * PTDF_PARTITION_TOL, 2 * PTDF_PARTITION_TOL)),
        ),
        min_size=1,
        max_size=3,
    )
)
@example(edits=[  # delta's intact-topology sensitivities summing to 1 + 9.999999999e-07
    ("replace", ("outbound_lines", 0, "ptdf_normal", "delta"), 0.211199060279),
    ("replace", ("outbound_lines", 1, "ptdf_normal", "delta"), 0.788801939721),
])
def test_mutated_zone_loads_or_raises_zone_validation_error(edits):
    """The bundled zone with fields and entries replaced, added or dropped,
    and sensitivities nudged, either raises ``ZoneValidationError`` and
    nothing else, or its DC model builds and computes the winter day's base
    flows wherever the forecast loads."""
    doc = copy.deepcopy(_DOC)
    for op, path, value in edits:
        try:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if op == "replace":
                parent[path[-1]] = copy.deepcopy(value)
            elif op == "drop":
                del parent[path[-1]]
            elif op == "add":
                target = parent[path[-1]] if path else doc
                key, new = value
                if isinstance(target, list):
                    target.append(copy.deepcopy(new))
                else:
                    target[key] = copy.deepcopy(new)
            else:
                parent[path[-1]] += value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or retyped the path
    try:
        zone = zone_from_dict(doc)
    except ZoneValidationError:
        return
    network_model(zone)
    try:
        forecast = load_forecast(_WINTER_CSV, zone)
    except ZoneValidationError:
        return
    _computes_every_row(zone, forecast)
