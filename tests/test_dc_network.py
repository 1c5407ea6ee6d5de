"""DC machinery: flows, sensitivities, islanding, the full-network helper."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandwidth_engine.dc_network import NetworkModel, compute_ptdf, dc_flows
from bandwidth_engine.fixtures import (
    FullLine,
    FullNetwork,
    random_instance,
    reference_full_network,
    synthetic_year_rows,
    reference_zone_dict,
)
from bandwidth_engine.grid_model import BalanceError, IslandingError, TopologyState, zone_from_dict
from bandwidth_engine.lp_core import _bits
from bandwidth_engine.power_bandwidth import network_model


def _toy_zone_doc():
    """Two buses, one line, radial boundary at b0 (all power exits there)."""
    return {
        "base_mva": 100.0,
        "timestep_hours": 1.0,
        "curative_duration_hours": 0.25,
        "battery": {"bus": "b1", "pmin_mw": -10.0, "pmax_mw": 10.0, "capacity_mwh": 20.0},
        "buses": [{"id": "b0"}, {"id": "b1"}],
        "lines": [
            {
                "id": "l0",
                "from_bus": "b0",
                "to_bus": "b1",
                "reactance_pu": 0.05,
                "ratings_summer": {"permanent_mw": 15.0, "long_term_mw": 18.0, "immediate_mw": 25.0},
                "ratings_winter": {"permanent_mw": 15.0, "long_term_mw": 18.0, "immediate_mw": 25.0},
            }
        ],
        "outbound_lines": [
            {
                "id": "ob",
                "boundary_bus": "b0",
                "ptdf_normal": {"b0": 1.0, "b1": 1.0},
                "ptdf_contingency": {},
            }
        ],
        "contingencies": [],
    }


def test_zero_case(zone):
    topo = TopologyState.base(zone)
    flows = dc_flows(zone, topo, {b: 0.0 for b in zone.bus_ids()}, {"alpha-west": 0.0, "delta-east": 0.0})
    assert all(abs(f) < 1e-12 for f in flows.values())


def test_two_bus_conservation():
    zone = zone_from_dict(_toy_zone_doc())
    topo = TopologyState.base(zone)
    flows = dc_flows(zone, topo, {"b0": 0.0, "b1": 10.0}, {"ob": 10.0})
    # 10 MW injected at b1 must cross l0 toward b0 (oriented b0 -> b1: negative)
    assert flows["l0"] == pytest.approx(-10.0, abs=1e-9)


def test_worked_flow_value(zone, summer_day):
    row = summer_day[7]
    flows = dc_flows(zone, TopologyState.base(zone), row.injections_mw, row.ref_normal_mw)
    assert flows["gamma-delta"] == pytest.approx(78.0, abs=1e-7)  # permanent 77 + 1


def test_imbalance_rejected(zone):
    topo = TopologyState.base(zone)
    inj = {b: 0.0 for b in zone.bus_ids()}
    inj["gamma"] = 5.0
    with pytest.raises(BalanceError, match="imbalance"):
        dc_flows(zone, topo, inj, {"alpha-west": 0.0, "delta-east": 0.0})


def test_island_imbalance_names_island(zone, winter_day):
    row = winter_day[0]
    topo = TopologyState.for_contingency(zone, zone.contingency("gamma-delta-outage"))
    refs = dict(row.ref_contingency_mw["gamma-delta-outage"])
    refs["delta-east"] += 3.0  # break only the delta island
    with pytest.raises(BalanceError, match="delta"):
        dc_flows(zone, topo, row.injections_mw, refs)


def test_nan_injection_never_balances(zone, winter_day):
    """A NaN injection, even at alpha, whose angle is the island's reference
    and so never enters the solve, is refused, not read as zero flows."""
    row = winter_day[0]
    inj = dict(row.injections_mw, alpha=float("nan"))
    with pytest.raises(BalanceError, match="nan MW imbalance"):
        dc_flows(zone, TopologyState.base(zone), inj, row.ref_normal_mw)
    with pytest.raises(BalanceError, match="nan MW imbalance"):
        NetworkModel(zone, _topology_states(zone)).base_flows([replace(row, injections_mw=inj)])


def test_effective_sensitivity_base(zone):
    ptdf = compute_ptdf(zone, TopologyState.base(zone))
    assert ptdf["gamma-delta"]["gamma"] == pytest.approx(0.6, abs=1e-9)
    assert ptdf["beta-gamma"]["gamma"] == pytest.approx(-0.4, abs=1e-9)
    assert ptdf["alpha-beta"]["gamma"] == pytest.approx(-0.4, abs=1e-9)
    assert list(ptdf) == ["alpha-beta", "beta-gamma", "gamma-delta"]  # internal lines only


def test_effective_sensitivity_after_outage(zone):
    ptdf = compute_ptdf(zone, TopologyState.for_contingency(zone, zone.contingency("gamma-delta-outage")))
    # all battery power exits through alpha once gamma-delta is out
    assert abs(ptdf["alpha-beta"]["gamma"]) == pytest.approx(1.0, abs=1e-9)
    assert abs(ptdf["beta-gamma"]["gamma"]) == pytest.approx(1.0, abs=1e-9)


def test_slack_self_transfer_is_zero():
    full = reference_full_network()
    sens = full.injection_sensitivity("east")
    assert all(v == 0.0 for v in sens.values())


def test_ptdf_consistency_with_flow_resolve(zone, summer_day):
    """Flows predicted via the sensitivity matrix match a re-solve to 1e-6."""
    row = summer_day[7]
    rng = np.random.default_rng(3)
    topo = TopologyState.base(zone)
    base = dc_flows(zone, topo, row.injections_mw, row.ref_normal_mw)
    ptdf = compute_ptdf(zone, topo)
    for _ in range(10):
        bus = zone.bus_ids()[rng.integers(0, 4)]
        delta = float(rng.uniform(-8, 8))
        inj = dict(row.injections_mw)
        inj[bus] += delta
        refs = {
            o.id: row.ref_normal_mw[o.id] + o.ptdf_normal[bus] * delta
            for o in zone.outbound_lines
        }
        resolved = dc_flows(zone, topo, inj, refs)
        for lid in resolved:
            predicted = base[lid] + ptdf[lid][bus] * delta
            assert resolved[lid] == pytest.approx(predicted, abs=1e-6)


def test_outage_ptdf_matches_full_network_difference(zone):
    """Recomputed outage sensitivities equal brute-force full-grid differences."""
    full = reference_full_network().without("gamma-delta")
    ptdf = compute_ptdf(zone, TopologyState.for_contingency(zone, zone.contingency("gamma-delta-outage")))
    for bus in zone.bus_ids():
        sens = full.injection_sensitivity(bus)
        for lid in ("alpha-beta", "beta-gamma"):
            assert ptdf[lid][bus] == pytest.approx(sens[lid], abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-20, 20),
    b=st.floats(-20, 20),
    scale=st.floats(0.1, 3.0),
)
def test_superposition(zone, a, b, scale):
    """dc_flows is linear in its injections."""
    topo = TopologyState.base(zone)

    def flows_for(g_inj):
        inj = {"alpha": 0.0, "beta": 0.0, "gamma": g_inj, "delta": 0.0}
        refs = {
            o.id: o.ptdf_normal["gamma"] * g_inj for o in zone.outbound_lines
        }
        return dc_flows(zone, topo, inj, refs)

    fa, fb = flows_for(a), flows_for(b)
    fab = flows_for(scale * a + b)
    for lid in fa:
        assert fab[lid] == pytest.approx(scale * fa[lid] + fb[lid], abs=1e-7)


def test_angle_reference_choice_is_unobservable(zone, summer_day):
    """Relabeling buses (which moves the per-island reference) leaves flows unchanged."""
    row = summer_day[7]
    base_flows = dc_flows(zone, TopologyState.base(zone), row.injections_mw, row.ref_normal_mw)

    rename = {"alpha": "z-alpha", "beta": "y-beta", "gamma": "x-gamma", "delta": "w-delta"}
    doc = reference_zone_dict()
    doc["battery"]["bus"] = rename["gamma"]
    for b in doc["buses"]:
        b["id"] = rename[b["id"]]
    for l in doc["lines"]:
        l["from_bus"] = rename[l["from_bus"]]
        l["to_bus"] = rename[l["to_bus"]]
    for o in doc["outbound_lines"]:
        o["boundary_bus"] = rename[o["boundary_bus"]]
        o["ptdf_normal"] = {rename[k]: v for k, v in o["ptdf_normal"].items()}
        o["ptdf_contingency"] = {
            c: {rename[k]: v for k, v in m.items()} for c, m in o["ptdf_contingency"].items()
        }
    relabeled = zone_from_dict(doc)
    flows2 = dc_flows(
        relabeled,
        TopologyState.base(relabeled),
        {rename[k]: v for k, v in row.injections_mw.items()},
        row.ref_normal_mw,
    )
    for lid in base_flows:
        assert flows2[lid] == pytest.approx(base_flows[lid], abs=1e-9)


def test_island_without_outbound_rejected_in_ptdf():
    doc = _toy_zone_doc()
    # second, disconnected pair would be rejected at load; instead drop the
    # only outbound line's sensitivity consistency to trigger the check
    doc["outbound_lines"][0]["ptdf_normal"] = {"b0": 1.0, "b1": 0.9}
    from bandwidth_engine.grid_model import ZoneValidationError

    with pytest.raises(ZoneValidationError, match="sum to"):
        zone_from_dict(doc)


def test_full_network_component_balance():
    net = FullNetwork(
        ("a", "b", "c", "d"),
        (FullLine("ab", "a", "b", 0.1), FullLine("cd", "c", "d", 0.1)),
        "a",
    )
    flows = net.flows({"b": 5.0, "c": 2.0, "d": -2.0})
    assert flows["ab"] == pytest.approx(-5.0)
    assert flows["cd"] == pytest.approx(2.0)
    with pytest.raises(BalanceError):
        net.flows({"c": 1.0})
    with pytest.raises(IslandingError):
        net.injection_sensitivity("c")


# ---------------------------------------------------------------------------
# the per-zone network model: PTDFs and flow matrices built once
# ---------------------------------------------------------------------------


def _topology_states(zone):
    return [TopologyState.base(zone)] + [
        TopologyState.for_contingency(zone, c) for c in zone.contingencies
    ]


def test_network_model_matches_ptdf_and_dc_flows(zone, summer_day, winter_day):
    """A one-row ``base_flows`` call gives every topology's flows, each
    equal to a fresh ``dc_flows`` solve of that topology."""
    cases = [(zone, row) for row in (*summer_day, *winter_day)]
    cases += [random_instance(seed) for seed in range(40)]
    for z, row in cases:
        states = _topology_states(z)
        model = NetworkModel(z, states)
        assert list(model.topologies) == [s.contingency_id for s in states]
        base = [flows[0].tolist() for flows in model.base_flows([row])]
        assert len(base) == len(states)
        for state, flows in zip(states, base):
            topo = model.topologies[state.contingency_id]
            assert topo.line_factors == compute_ptdf(z, state)
            cid = state.contingency_id
            refs = row.ref_normal_mw if cid is None else row.ref_contingency_mw[cid]
            got = dict(zip(state.active_lines, flows, strict=True))
            want = dc_flows(z, state, row.injections_mw, refs)
            assert list(got) == list(want)
            for lid, flow in want.items():
                assert got[lid] == pytest.approx(flow, abs=1e-9)


def test_network_model_keeps_balance_and_islanding_checks(zone, winter_day):
    """A contingency island that does not balance fails the hour's call with
    that island named, although the intact topology balances."""
    row = winter_day[0]
    model = NetworkModel(zone, _topology_states(zone))
    refs = {cid: dict(flows) for cid, flows in row.ref_contingency_mw.items()}
    refs["gamma-delta-outage"]["delta-east"] += 3.0  # break only the delta island
    with pytest.raises(BalanceError, match=r"^island \{delta\} has"):
        model.base_flows([replace(row, ref_contingency_mw=refs)])

    # no line in service: every bus is an island the outbound data cannot serve
    stranded = TopologyState(
        active_lines=(),
        active_outbound=("alpha-west", "delta-east"),
        contingency_id=None,
        islands=tuple(frozenset({b}) for b in zone.bus_ids()),
    )
    with pytest.raises(IslandingError, match="island"):
        NetworkModel(zone, [stranded])


def test_random_instances_do_not_depend_on_the_hash_seed():
    """Component residuals are summed in a fixed order, so a seeded instance's
    reference flows are the same in every process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import bandwidth_engine

    src = str(Path(bandwidth_engine.__file__).resolve().parents[1])
    code = "from bandwidth_engine.fixtures import random_instance as r; print([r(s)[1] for s in range(20)])"
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


def _network_digest() -> str:
    """The sha256 of every topology's PTDF dicts (as :class:`NetworkModel` and
    :func:`compute_ptdf` give them) and flow-matrix bytes, over the bundled
    zone and ``random_instance`` 0-399."""
    from bandwidth_engine.fixtures import reference_zone

    h = hashlib.sha256()
    for z in [reference_zone()] + [random_instance(seed)[0] for seed in range(400)]:
        for cid, topo in NetworkModel(z, _topology_states(z)).topologies.items():
            h.update(repr((cid, topo.line_factors, compute_ptdf(z, topo.state))).encode())
            h.update(repr(topo.flow_matrix.shape).encode() + topo.flow_matrix.tobytes())
    return h.hexdigest()


def test_network_models_keep_their_bits():
    """The PTDFs and flow matrices of 671 topologies, to the bit. The tree
    before ``compute_ptdf`` returned a dict gives the same digest, and its
    bits were pinned before the island solves were merged into one."""
    assert _network_digest() == "a1c01fff8de3ef084ea0946fa82f733aa611d923f280ed1089477003973664f7"


def _one_hour_flows(model: NetworkModel, row) -> list[list[float]]:
    """Each topology's flows for one row as a call per hour took them: the
    net injections, summed and less the boundary flows in Python floats, as
    an (n, 1) column, and one matrix-vector product."""
    p = [0.0] * len(model._bus_pos)
    for b, v in row.injections_mw.items():
        p[model._bus_pos[b]] += v
    out = []
    for cid, topo in model.topologies.items():
        refs = row.ref_normal_mw if cid is None else row.ref_contingency_mw[cid]
        net = list(p)
        for at, oid in topo.boundary:
            net[at] -= refs[oid]
        out.append((topo.flow_matrix @ np.array(net, dtype=float).reshape(-1, 1))[:, 0].tolist())
    return out


def _scaled_hours(row, n: int) -> list:
    """``n`` balanced hours of a zone: the row's injections and boundary
    flows scaled together."""
    return [
        replace(
            row,
            injections_mw={b: v * k for b, v in row.injections_mw.items()},
            ref_normal_mw={o: v * k for o, v in row.ref_normal_mw.items()},
            ref_contingency_mw={c: {o: v * k for o, v in refs.items()} for c, refs in row.ref_contingency_mw.items()},
        )
        for k in (1.0 - 0.15 * (h % 4) + 0.01 * h for h in range(n))
    ]


def _block_keeps_the_bits(model: NetworkModel, rows: list) -> None:
    """Each row's flows from one block call have the bits of that row's
    one-hour product."""
    block = model.base_flows(rows)
    widths = [len(topo.state.active_lines) for topo in model.topologies.values()]
    assert [flows.shape for flows in block] == [(len(rows), width) for width in widths]
    for hour, row in enumerate(rows):
        want = _one_hour_flows(model, row)
        assert [_bits(flows[hour].tolist()) for flows in block] == [_bits(flows) for flows in want], hour


def test_block_base_flows_keep_the_bits_of_one_hour_calls(zone):
    """One ``base_flows`` call on a block of rows gives, per row and
    topology, the bits of a call per hour's matrix-vector product: on every
    hour of the synthetic year, in days and as one block, and on blocks of
    200 ``random_instance`` zones, islanding contingencies among them."""
    model = network_model(zone)
    year = list(synthetic_year_rows(zone).rows)
    for day in range(0, len(year), 24):
        _block_keeps_the_bits(model, year[day : day + 24])
    block = model.base_flows(year)
    for hour in range(0, len(year), 97):  # the whole year as one block
        want = _one_hour_flows(model, year[hour])
        assert [_bits(flows[hour].tolist()) for flows in block] == [_bits(flows) for flows in want]
    islanding = 0
    for seed in range(200):
        z, row = random_instance(seed)
        model = network_model(z)
        islanding += any(len(t.state.islands) > 1 for t in model.topologies.values())
        _block_keeps_the_bits(model, _scaled_hours(row, 7))
        _block_keeps_the_bits(model, [row])
    assert islanding >= 10


def test_an_unbalanced_row_in_a_block_raises_as_its_own_call_does(zone, winter_day):
    """The first unbalanced row of a block, in row order, raises the
    ``BalanceError`` its topology's check raises on that row alone; a later
    unbalanced row, even one whose intact topology fails, does not come
    first."""
    rows = list(winter_day.rows[:8])
    refs = {cid: dict(flows) for cid, flows in rows[3].ref_contingency_mw.items()}
    refs["gamma-delta-outage"]["delta-east"] += 3.0  # break only the delta island
    rows[3] = replace(rows[3], ref_contingency_mw=refs)
    rows[5] = replace(rows[5], ref_normal_mw={o: v + 5.0 for o, v in rows[5].ref_normal_mw.items()})
    state = TopologyState.for_contingency(zone, zone.contingency("gamma-delta-outage"))
    with pytest.raises(BalanceError) as alone:
        dc_flows(zone, state, rows[3].injections_mw, refs["gamma-delta-outage"])
    with pytest.raises(BalanceError) as block:
        network_model(zone).base_flows(rows)
    assert str(block.value) == str(alone.value) and str(alone.value).startswith("island {delta} has")
