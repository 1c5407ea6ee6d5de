"""Solver unit suite: trivial cases, oracle agreement, duality, determinism."""

from __future__ import annotations

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandwidth_engine import lp_core
from bandwidth_engine.lp_core import (
    INF,
    LinearProgram,
    LpError,
    Relation,
    SolveStatus,
    check_solution,
    solve,
)
from bandwidth_engine.oracle import enumerate_lp_optimum


def _toy(lower=3.0, upper=10.0):
    lp = LinearProgram("toy")
    lp.add_variable("x", lower, upper)
    lp.set_objective({"x": 1.0})
    return lp


def test_bound_active_minimum():
    sol = solve(_toy())
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.value("x") == pytest.approx(3.0, abs=1e-9)
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_infeasible_bounds_via_rows():
    lp = LinearProgram()
    lp.add_variable("x", 0.0, 100.0)
    lp.add_constraint({"x": 1.0}, Relation.GE, 5.0)
    lp.add_constraint({"x": 1.0}, Relation.LE, 4.0)
    lp.set_objective({"x": 1.0})
    assert solve(lp).status == SolveStatus.INFEASIBLE


def test_unbounded_below():
    lp = LinearProgram()
    lp.add_variable("x", 0.0, INF)
    lp.set_objective({"x": -1.0})
    assert solve(lp).status == SolveStatus.UNBOUNDED


def test_free_variable_and_equality():
    lp = LinearProgram()
    lp.add_variable("x", -INF, INF)
    lp.add_variable("y", 0.0, INF)
    lp.add_constraint({"x": 1.0, "y": 1.0}, Relation.EQ, 4.0)
    lp.add_constraint({"x": 1.0}, Relation.GE, -3.0)
    lp.set_objective({"x": 1.0, "y": 0.5})
    sol = solve(lp)
    assert sol.status == SolveStatus.OPTIMAL
    # pushing x down to -3 and covering with y = 7 costs 0.5; optimum at x=-3
    assert sol.value("x") == pytest.approx(-3.0, abs=1e-8)
    assert sol.value("y") == pytest.approx(7.0, abs=1e-8)


def test_check_solution_reports_violation():
    lp = LinearProgram()
    lp.add_variable("x", 0.0, 10.0)
    lp.add_constraint({"x": 1.0}, Relation.GE, 3.0, name="atleast3")
    report = check_solution(lp, {"x": 2.0})
    assert len(report) == 1
    assert report[0].name == "atleast3"
    assert report[0].amount == pytest.approx(1.0)
    assert check_solution(lp, {"x": 5.0}) == []


def test_check_solution_requires_all_values():
    lp = LinearProgram()
    lp.add_variable("x")
    with pytest.raises(LpError):
        check_solution(lp, {})


def test_validation_rejects_bad_input():
    lp = LinearProgram()
    lp.add_variable("x")
    with pytest.raises(LpError):
        lp.add_variable("x")
    with pytest.raises(LpError):
        lp.add_variable("y", 2.0, 1.0)
    with pytest.raises(LpError):
        lp.add_constraint({"z": 1.0}, Relation.LE, 1.0)
    with pytest.raises(LpError):
        lp.add_constraint({"x": math.inf}, Relation.LE, 1.0)


def _random_bounded_lp(rng: np.random.Generator, n: int, m: int) -> LinearProgram:
    """Random LP with finite box bounds (bounded region => optimal or infeasible)."""
    lp = LinearProgram("rand")
    for j in range(n):
        lo = rng.uniform(-5, 0)
        hi = lo + rng.uniform(0.5, 6)
        lp.add_variable(f"x{j}", lo, hi)
    for i in range(m):
        coeffs = {f"x{j}": float(np.round(rng.uniform(-2, 2), 3)) for j in range(n)}
        rel = [Relation.LE, Relation.GE, Relation.EQ][int(rng.integers(0, 3))]
        rhs = float(np.round(rng.uniform(-4, 4), 3))
        lp.add_constraint(coeffs, rel, rhs)
    lp.set_objective({f"x{j}": float(np.round(rng.uniform(-1, 1), 3)) for j in range(n)})
    return lp


def test_random_small_lps_match_vertex_enumeration():
    rng = np.random.default_rng(20260808)
    n_checked = 0
    for _ in range(120):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 5))
        lp = _random_bounded_lp(rng, n, m)
        oracle_status, oracle_obj = enumerate_lp_optimum(lp)
        sol = solve(lp)
        assert sol.status.value == oracle_status, f"{lp.to_lp_format()}"
        if oracle_status == "optimal":
            assert sol.objective == pytest.approx(oracle_obj, abs=1e-6)
            assert check_solution(lp, sol.values) == []
            n_checked += 1
    assert n_checked > 30


def _random_standard_form_lp(rng: np.random.Generator, n: int, m: int) -> LinearProgram:
    """min c.x s.t. A x = b, x >= 0 with guaranteed-feasible b (b = A @ x0)."""
    lp = LinearProgram("std")
    for j in range(n):
        lp.add_variable(f"x{j}", 0.0, INF)
    A = np.round(rng.uniform(-2, 2, size=(m, n)), 3)
    x0 = rng.uniform(0, 3, size=n)
    b = A @ x0
    for i in range(m):
        lp.add_constraint({f"x{j}": float(A[i, j]) for j in range(n)}, Relation.EQ, float(b[i]))
    lp.set_objective({f"x{j}": float(np.round(rng.uniform(0.05, 1), 3)) for j in range(n)})
    return lp


def test_wide_standard_form_lps_match_basis_enumeration():
    # up to 50 variables, few rows: vertex enumeration stays tractable
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(10, 51))
        m = int(rng.integers(1, 4))
        lp = _random_standard_form_lp(rng, n, m)
        oracle_status, oracle_obj = enumerate_lp_optimum(lp)
        sol = solve(lp)
        assert sol.status.value == oracle_status
        if oracle_status == "optimal":
            assert sol.objective == pytest.approx(oracle_obj, abs=1e-6)
            assert check_solution(lp, sol.values) == []


def test_infeasible_and_unbounded_classification_exact():
    rng = np.random.default_rng(99)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        lp = LinearProgram()
        for j in range(n):
            lp.add_variable(f"x{j}", 0.0, INF)
        # x0 + ... >= 1 and <= -1 is infeasible; negative objective ray is unbounded
        if rng.random() < 0.5:
            coeffs = {f"x{j}": 1.0 for j in range(n)}
            lp.add_constraint(coeffs, Relation.GE, 1.0)
            lp.add_constraint(coeffs, Relation.LE, float(-rng.uniform(0.5, 2)))
            lp.set_objective({f"x{j}": 1.0 for j in range(n)})
            assert solve(lp).status == SolveStatus.INFEASIBLE
        else:
            lp.add_constraint({"x0": 1.0, "x1": -1.0}, Relation.EQ, 0.0)
            lp.set_objective({"x0": -1.0})
            assert solve(lp).status == SolveStatus.UNBOUNDED


def test_weak_duality_spot_check():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 5))
        lp = LinearProgram()
        for j in range(n):
            lp.add_variable(f"x{j}", 0.0, INF)
        A = rng.uniform(-1, 2, size=(m, n))
        x0 = rng.uniform(0, 2, size=n)
        b = A @ x0
        rels = []
        for i in range(m):
            rel = [Relation.LE, Relation.GE, Relation.EQ][int(rng.integers(0, 3))]
            rels.append(rel)
            rhs = float(b[i]) + (0.5 if rel == Relation.LE else -0.5 if rel == Relation.GE else 0.0)
            lp.add_constraint({f"x{j}": float(A[i, j]) for j in range(n)}, rel, rhs, name=f"r{i}")
        lp.set_objective({f"x{j}": float(rng.uniform(0.1, 1)) for j in range(n)})
        sol = solve(lp)
        if sol.status != SolveStatus.OPTIMAL or sol.duals is None:
            continue
        dual_obj = sum(sol.duals[c.name] * c.rhs for c in lp.constraints)
        assert dual_obj <= sol.objective + 1e-6 * max(1.0, abs(sol.objective))


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
def test_objective_scaling_leaves_argmin_unchanged(scale):
    lp1 = LinearProgram()
    lp2 = LinearProgram()
    for lp in (lp1, lp2):
        lp.add_variable("a", 0.0, 5.0)
        lp.add_variable("b", 0.0, 5.0)
        lp.add_constraint({"a": 1.0, "b": 2.0}, Relation.GE, 4.0)
    lp1.set_objective({"a": 3.0, "b": 1.0})
    lp2.set_objective({"a": 3.0 * scale, "b": 1.0 * scale})
    s1, s2 = solve(lp1), solve(lp2)
    assert s1.status == s2.status == SolveStatus.OPTIMAL
    assert s1.value("a") == pytest.approx(s2.value("a"), abs=1e-9)
    assert s1.value("b") == pytest.approx(s2.value("b"), abs=1e-9)


def test_deterministic_across_runs():
    rng = np.random.default_rng(1234)
    lp = _random_bounded_lp(rng, 8, 6)
    s1 = solve(lp)
    s2 = solve(lp)
    assert s1.status == s2.status
    if s1.status == SolveStatus.OPTIMAL:
        assert s1.values == s2.values
        assert s1.objective == s2.objective


def test_lp_format_export_roundtrips_key_content():
    lp = _toy()
    lp.add_constraint({"x": 2.0}, Relation.LE, 12.0, name="cap")
    text = lp.to_lp_format()
    assert "Minimize" in text and "Subject To" in text and "cap:" in text and "Bounds" in text


# ---------------------------------------------------------------------------
# one standard form per LP: kept across objectives, right-hand sides and
# finite bounds, rebuilt when the matrix changes
# ---------------------------------------------------------------------------


def _reuse_lp():
    """min x + 2y s.t. x + y >= 3, x in [0, 4], y in [-2, 6]: optimum (4, -1)."""
    lp = LinearProgram("reuse")
    lp.add_variable("x", 0.0, 4.0)
    lp.add_variable("y", -2.0, 6.0)
    lp.add_constraint({"x": 1.0, "y": 1.0}, Relation.GE, 3.0, name="sum")
    lp.set_objective({"x": 1.0, "y": 2.0})
    return lp


@pytest.mark.parametrize(
    "change, keeps_form",
    [
        (lambda lp: lp.set_objective({"x": 2.0, "y": -1.0}), True),  # optimum (0, 6)
        (lambda lp: lp.set_bounds("x", 0.0, 2.0), True),  # optimum (2, 1)
        (lambda lp: lp.set_bounds("y", 0.0, 6.0), True),  # optimum (3, 0)
        (lambda lp: lp.set_rhs("sum", 5.0), True),  # optimum (4, 1)
        (lambda lp: lp.set_rhs("sum", -7.0), True),  # b = -7 - (-2) < 0 flips the row: (0, -2)
        (lambda lp: lp.set_bounds("x", 0.0, INF), False),  # no range row: (5, -2)
        (lambda lp: lp.add_constraint({"x": 1.0, "y": -1.0}, Relation.LE, 0.5), False),  # (1.75, 1.25)
    ],
    ids=["objective", "bound", "lower_bound", "rhs", "rhs_flips_row", "bound_turns_infinite", "row"],
)
def test_change_after_a_solve_gives_the_fresh_optimum(change, keeps_form):
    solved = _reuse_lp()
    before = solve(solved)
    form = solved._standard_form()
    change(solved)
    fresh = _reuse_lp()
    change(fresh)
    after, want = solve(solved), solve(fresh)
    assert after.status == want.status == SolveStatus.OPTIMAL
    assert after.values == want.values
    assert after.objective == want.objective
    assert after.duals == want.duals
    assert after.iterations == want.iterations
    assert after.values != before.values
    assert (solved._standard_form() is form) == keeps_form


def _rebuilt(lp: LinearProgram) -> LinearProgram:
    """A freshly built LP with the same variables, rows and objective."""
    out = LinearProgram(lp.name)
    for v in lp.variables:
        out.add_variable(v.name, v.lower, v.upper)
    for con in lp.constraints:
        out.add_constraint(dict(con.coeffs), con.relation, con.rhs, con.name)
    out.set_objective(dict(lp.objective), lp.objective_constant)
    return out


def _same_solve(got, want) -> None:
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert got.phase_one_iterations == want.phase_one_iterations
    if want.status == SolveStatus.OPTIMAL:
        assert got.values == want.values and got.objective == want.objective
        assert got.duals == want.duals


def test_rewritten_lps_solve_exactly_as_fresh_ones(monkeypatch):
    """New right-hand sides (some flipping their row's sign) and finite bounds
    written into a solved LP give the fresh LP's solve bit for bit."""
    rng = np.random.default_rng(11)
    flipped = 0
    for _ in range(150):
        lp = _random_bounded_lp(rng, int(rng.integers(1, 6)), int(rng.integers(1, 5)))
        solve(lp)
        signs = np.sign(lp._standard_form().starts[0][0].row_sign)
        for con in lp.constraints:
            lp.set_rhs(con.name, float(np.round(rng.uniform(-4, 4), 3)))
        for v in lp.variables:
            lo = v.lower + rng.uniform(-1, 1)
            lp.set_bounds(v.name, lo, lo + rng.uniform(0, 6))
        got, want = solve(lp), solve(_rebuilt(lp))
        flipped += int(np.any(np.sign(lp._standard_form().starts[0][0].row_sign) != signs))
        _same_solve(got, want)
    assert flipped > 10

    # a row that flips and flips back walks its pattern's kept tree: a node is
    # built on its first visit only, and the solve is still the fresh LP's
    built = []
    real_init = lp_core._Node.__init__
    monkeypatch.setattr(lp_core._Node, "__init__", lambda node, *a: built.append(a) or real_init(node, *a))
    lp = _reuse_lp()
    per_solve = []
    for rhs in (3.0, 5.0, -7.0, 4.0, -6.0, 3.5, -7.5, 3.0):  # b = rhs + 2 flips the row below -2
        lp.set_rhs("sum", rhs)
        before = len(built)
        got = solve(lp)
        per_solve.append(len(built) - before)
        _same_solve(got, solve(_rebuilt(lp)))
    # the first load keeps nothing; the second load of each pattern builds its
    # path, and every later solve replays it
    assert per_solve[0] == per_solve[1] > 0 and per_solve[2] > 0
    assert per_solve[3:] == [0] * 5
    lp.set_bounds("y", -1.0, 6.0)  # a new lower bound: new row shifts and costs
    _same_solve(solve(lp), solve(_rebuilt(lp)))


def test_phase_one_runs_once_per_right_hand_side(monkeypatch):
    """Objectives share phase one's walk from the pattern's root, whose pivots
    every solve still counts."""
    from_root = []
    real = lp_core._run
    monkeypatch.setattr(lp_core, "_run", lambda sf, g: from_root.append(g.node is g.pattern.root) or real(sf, g))
    lp = _reuse_lp()  # the >= row needs an artificial
    first = solve(lp)
    lp.set_objective({"x": 2.0, "y": -1.0})
    second = solve(lp)
    assert from_root == [True, False, False]  # phase one, then phase two per objective
    assert second.iterations == solve(_rebuilt(lp)).iterations
    assert first.iterations > 1 and second.iterations > 1
    lp.set_rhs("sum", 4.0)
    solve(lp)
    assert sum(from_root) == 3  # the rewritten LP, and the rebuilt one above


@pytest.mark.parametrize("objective", [{}, {"x": 1.0}, {"x": -1.0, "y": 3.0}, {"y": -2.0}])
def test_phase_one_infeasible_form_is_infeasible_under_every_objective(objective):
    lp = LinearProgram("infeasible")
    lp.add_variable("x", 0.0, 2.0)
    lp.add_variable("y", -1.0, 2.0)
    lp.add_constraint({"x": 1.0, "y": 1.0}, Relation.GE, 10.0, name="big")
    solve(lp)
    lp.set_objective(objective)
    sol = solve(lp)
    assert sol.status == SolveStatus.INFEASIBLE
    assert sol.iterations == solve(_rebuilt(lp)).iterations


def test_set_rhs_validates_its_input():
    lp = _reuse_lp()
    with pytest.raises(LpError, match="unknown constraint"):
        lp.set_rhs("nope", 1.0)
    with pytest.raises(LpError, match="non-finite"):
        lp.set_rhs("sum", math.nan)
    with pytest.raises(LpError, match="duplicate constraint"):
        lp.add_constraint({"x": 1.0}, Relation.LE, 1.0, name="sum")


def test_lp_changes_only_through_its_methods():
    """Rows and variables are read-only, so no change can bypass the form."""
    import dataclasses

    lp = _reuse_lp()
    solve(lp)
    with pytest.raises(TypeError):
        lp.constraints[0].coeffs["x"] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        lp.variables[0].upper = 1.0
    assert isinstance(lp.constraints, tuple) and isinstance(lp.variables, tuple)
    with pytest.raises(LpError):
        lp.set_bounds("z", 0.0, 1.0)
    with pytest.raises(LpError):
        lp.set_bounds("x", 2.0, 1.0)


# ---------------------------------------------------------------------------
# guards against cycling and stalling, each reached by a real LP
# ---------------------------------------------------------------------------


def _beale() -> LinearProgram:
    """Beale's (1955) LP, which cycles under Dantzig's rule with lowest-index
    ties: optimum -5/4 at x4 = x6 = 1, x5 = x7 = 0."""
    lp = LinearProgram("beale")
    for v in ("x4", "x5", "x6", "x7"):
        lp.add_variable(v)
    lp.add_constraint({"x4": 0.25, "x5": -8.0, "x6": -1.0, "x7": 9.0}, Relation.LE, 0.0, name="r1")
    lp.add_constraint({"x4": 0.5, "x5": -12.0, "x6": -0.5, "x7": 3.0}, Relation.LE, 0.0, name="r2")
    lp.add_constraint({"x6": 1.0}, Relation.LE, 1.0, name="r3")
    lp.set_objective({"x4": -0.75, "x5": 20.0, "x6": -0.5, "x7": 6.0})
    return lp


def test_bland_switch_breaks_beales_cycle(monkeypatch):
    sol = solve(_beale())
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-1.25, abs=1e-12)
    assert sol.values == pytest.approx({"x4": 1.0, "x5": 0.0, "x6": 1.0, "x7": 0.0}, abs=1e-12)
    # the cycle runs until the switch fires; Bland's rule then needs a few pivots
    assert lp_core.DEGENERATE_STREAK < sol.iterations <= lp_core.DEGENERATE_STREAK + 10

    # without the switch the same pivot rule cycles down the tree until the
    # iteration cap: a solver failure, not a finding
    monkeypatch.setattr(lp_core, "DEGENERATE_STREAK", lp_core.MAX_ITERATIONS)
    monkeypatch.setattr(lp_core, "MAX_ITERATIONS", 500)
    sol = solve(_beale())
    assert sol.status == SolveStatus.NUMERICALLY_UNSTABLE and not sol.bland
    assert sol.iterations == 500


def _klee_minty(n: int) -> LinearProgram:
    """Chvatal's form of the Klee-Minty cube (base 2): min -sum 2^(n-1-j) x_j
    s.t. x_i + 2 sum_{j<i} 2^(i-j) x_j <= 4^i; optimum -4^(n-1) at x_(n-1) = 4^(n-1).
    Dantzig's rule pivots through thousands of its vertices."""
    lp = LinearProgram("klee_minty")
    for j in range(n):
        lp.add_variable(f"x{j}")
    for i in range(n):
        coeffs = {f"x{j}": 2.0 * 2.0 ** (i - j) for j in range(i)}
        coeffs[f"x{i}"] = 1.0
        lp.add_constraint(coeffs, Relation.LE, 4.0**i)
    lp.set_objective({f"x{j}": -(2.0 ** (n - 1 - j)) for j in range(n)})
    return lp


def test_counters_say_which_guard_fired():
    beale = solve(_beale())
    assert beale.bland and beale.status == SolveStatus.OPTIMAL
    cube = solve(_klee_minty(15))
    assert cube.iterations == lp_core.MAX_ITERATIONS and not cube.bland
    # every row is <= with rhs >= 0: no artificial, so phase one never loops
    assert cube.phase_one_iterations == 0
    plain = solve(_reuse_lp())  # the >= row needs an artificial
    assert not plain.bland
    assert 1 <= plain.phase_one_iterations < plain.iterations


def test_lp_that_reaches_the_iteration_cap_is_numerically_unstable():
    """The cube reaches MAX_ITERATIONS with the Bland switch on (no pivot is
    degenerate), and a stall is a solver failure: no values, no duals."""
    sol = solve(_klee_minty(15))
    assert sol.status == SolveStatus.NUMERICALLY_UNSTABLE
    assert sol.iterations == lp_core.MAX_ITERATIONS
    assert math.isnan(sol.objective) and sol.values == {} and sol.duals is None


def _klee_minty_feasibility(n: int) -> LinearProgram:
    """The cube with its objective turned into a >= row at the optimum, so
    that phase one walks the vertices."""
    lp = _klee_minty(n)
    lp.add_constraint({v: -c for v, c in lp.objective.items()}, Relation.GE, 4.0 ** (n - 1))
    lp.set_objective({})
    return lp


@pytest.mark.parametrize("build", [_klee_minty, _klee_minty_feasibility], ids=["phase2", "phase1"])
def test_lp_that_stalls_in_either_phase_is_numerically_unstable(monkeypatch, build):
    """Never infeasible: a stall is a solver failure, not a finding."""
    monkeypatch.setattr(lp_core, "MAX_ITERATIONS", 20)
    sol = solve(build(12))
    assert sol.status == SolveStatus.NUMERICALLY_UNSTABLE
    assert math.isnan(sol.objective) and sol.values == {} and sol.duals is None
    assert sol.iterations == 20
    # the solve stalls in the phase the cube's vertices are walked in
    assert sol.phase_one_iterations == (20 if build is _klee_minty_feasibility else 0)


def _bits_of(sol) -> tuple:
    """A solve's counters and the bit patterns of its objective and values."""
    return (
        sol.status,
        sol.iterations,
        sol.phase_one_iterations,
        sol.bland,
        struct.pack("<d", sol.objective),
        {name: struct.pack("<d", value) for name, value in sol.values.items()},
    )


def _count_nodes(monkeypatch) -> list:
    built = []
    real_init = lp_core._Node.__init__
    monkeypatch.setattr(lp_core._Node, "__init__", lambda node, *a: built.append(a) or real_init(node, *a))
    return built


def test_reused_beale_replays_blands_pivots_bit_for_bit(monkeypatch):
    """Beale's LP cycles until the Bland switch at every right-hand side; a
    reused form walks the switch's pivots inside its tree, with no new node
    for a path it took before, and solves as a fresh LP does."""
    built = _count_nodes(monkeypatch)
    lp = _beale()
    new_nodes = []
    for r3 in (1.0, 2.0, 0.5, 2.0, 1.0, 3.0, 0.5):
        lp.set_rhs("r3", r3)
        before = len(built)
        got = solve(lp)
        new_nodes.append(len(built) - before)
        assert got.bland and got.status == SolveStatus.OPTIMAL
        assert _bits_of(got) == _bits_of(solve(_rebuilt(lp)))
        assert got.duals == solve(_rebuilt(lp)).duals
    assert new_nodes[1] > lp_core.DEGENERATE_STREAK  # the first kept walk
    assert new_nodes[2:] == [0] * 5


def test_reused_degenerate_lps_take_either_rule_at_a_shared_node(monkeypatch):
    """With the switch after one degenerate pivot, whether a right-hand side
    reaches a node under Dantzig's rule or Bland's depends on its own streak;
    the node holds both entering columns, and every reused solve is the fresh
    LP's."""
    monkeypatch.setattr(lp_core, "DEGENERATE_STREAK", 1)
    rng = np.random.default_rng(5)
    blands = 0
    for _ in range(150):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        lp = LinearProgram("degenerate")
        for j in range(n):
            lp.add_variable(f"x{j}", 0.0, float(rng.integers(1, 4)))
        for i in range(m):
            lp.add_constraint({f"x{j}": float(rng.integers(-3, 4)) for j in range(n)}, Relation.LE, 0.0, name=f"r{i}")
        lp.set_objective({f"x{j}": float(rng.integers(-3, 2)) for j in range(n)})
        for _ in range(6):  # zero right-hand sides make pivots degenerate
            lp.set_rhs_many([f"r{i}" for i in range(m)], [float(rng.choice([0.0, 0.0, 1.0, 2.0])) for _ in range(m)])
            got = solve(lp)
            assert _bits_of(got) == _bits_of(solve(_rebuilt(lp)))
            blands += got.bland
    assert blands > 300


def test_reused_klee_minty_cube_at_the_node_cap_stalls_as_a_fresh_one(monkeypatch):
    """A reused cube keeps nodes up to the cap, walks on past it without
    keeping any and stalls at MAX_ITERATIONS, as the fresh cube does."""
    monkeypatch.setattr(lp_core, "MAX_ITERATIONS", 100)
    monkeypatch.setattr(lp_core, "NODES_PER_FORM", 40)
    lp = _klee_minty(12)
    for scale in (1.0, 1.0, 2.0, 1.0):
        for con in lp.constraints:
            lp.set_rhs(con.name, 4.0 ** int(con.name[1:]) * scale)
        got = solve(lp)
        assert got.status == SolveStatus.NUMERICALLY_UNSTABLE and got.iterations == 100
        assert _bits_of(got) == _bits_of(solve(_rebuilt(lp)))
    assert lp._standard_form()._kept == lp_core.NODES_PER_FORM


def test_reused_infeasible_form_matches_a_fresh_one():
    """Right-hand sides that make the LP infeasible, feasible and infeasible
    again, each solved under two objectives: every reused solve ends as the
    fresh LP's, in the same phase-one iterations."""
    lp = LinearProgram("sometimes_infeasible")
    lp.add_variable("x", 0.0, 2.0)
    lp.add_variable("y", -1.0, 2.0)
    lp.add_constraint({"x": 1.0, "y": 1.0}, Relation.GE, 10.0, name="big")
    lp.add_constraint({"x": 1.0, "y": -1.0}, Relation.EQ, 0.5, name="gap")
    objectives = ({"x": 1.0, "y": 2.0}, {"x": 1.0, "y": -3.0})  # x is least, then most
    statuses = []
    for big, gap in ((10.0, 0.5), (2.0, 0.5), (10.0, 0.5), (1.0, -0.5), (5.0, 0.0), (2.0, 0.5)):
        lp.set_rhs_many(("big", "gap"), (big, gap))
        for objective in objectives:
            lp.set_objective(objective)
            got = solve(lp)
            assert _bits_of(got) == _bits_of(solve(_rebuilt(lp)))
            statuses.append(got.status)
    assert statuses.count(SolveStatus.INFEASIBLE) == 6 and statuses.count(SolveStatus.OPTIMAL) == 6


def test_set_objective_checks_each_content_once():
    """An objective is checked and copied once per content: an equal one,
    the same dict or another, takes the kept copy, which keys its costs. A dict
    changed in place (a coefficient, an added variable, a non-finite value)
    is compared with the copy, so it is checked again; a refused one leaves
    the objective as it was. Every solve is a fresh LP's, bit for bit."""
    lp = _reuse_lp()
    objective = {"x": 1.0, "y": 2.0}
    lp.set_objective(objective)
    checked = lp._objective
    assert lp.objective == objective and checked.coeffs is not objective
    with pytest.raises(TypeError):
        lp.objective["x"] = 5.0  # a read-only view of the copy, which keys its costs
    lp.set_objective(objective)
    assert lp._objective is checked
    lp.set_objective(dict(objective))  # distinct but equal
    assert lp._objective is checked
    assert _bits_of(solve(lp)) == _bits_of(solve(_rebuilt(lp)))

    objective["x"] = 3.0  # one coefficient
    lp.set_objective(objective)
    assert lp.objective == {"x": 3.0, "y": 2.0} and checked.coeffs == {"x": 1.0, "y": 2.0}
    assert lp._objective is not checked
    assert _bits_of(solve(lp)) == _bits_of(solve(_rebuilt(lp)))
    only_x = {"x": 1.0}
    lp.set_objective(only_x)
    only_x["y"] = 2.0  # an added variable: the content of the first, in its order
    lp.set_objective(only_x)
    assert lp._objective is checked
    for bad, message in (({"z": 1.0}, "unknown variable 'z'"), ({"x": math.nan}, "non-finite coefficient on 'x'")):
        with pytest.raises(LpError, match=message):
            lp.set_objective(bad)
    objective["x"] = math.inf  # a non-finite value, in a dict set before
    with pytest.raises(LpError, match="non-finite coefficient on 'x'"):
        lp.set_objective(objective)
    assert lp._objective is checked and lp.objective == {"x": 1.0, "y": 2.0}
    assert _bits_of(solve(lp)) == _bits_of(solve(_rebuilt(lp)))


@pytest.mark.parametrize(
    "first, other",
    [
        # the same values in another order: the shift sums in that order
        (({"x": 1.0, "y": 2.0}, 0.0), ({"y": 2.0, "x": 1.0}, 0.0)),
        (({"x": 0.0, "y": 2.0}, 0.0), ({"x": -0.0, "y": 2.0}, 0.0)),  # == does not tell the zeros apart
        (({"x": 0.0, "y": 2.0}, 0.0), ({"x": 0.0, "y": 2.0}, -0.0)),
        (({"x": 0.0, "y": 2.0}, 0.0), ({"x": 0.0, "y": 2.0}, 5.0)),
    ],
    ids=["order", "signed_zero_coefficient", "signed_zero_constant", "constant"],
)
def test_set_objective_tells_apart_what_equality_does_not(first, other):
    """Contents that ``==`` (or dict ``==``) takes as equal but that differ in
    order or to the bit are kept apart, each keying costs of its own, and
    each solve is a fresh LP's; a changed constant is honoured."""
    lp = _reuse_lp()
    lp.set_objective(*first)
    before = lp._objective
    lp.set_objective(*other)
    assert lp._objective is not before
    assert list(lp.objective) == list(other[0])
    assert _pack(*lp.objective.values(), lp.objective_constant) == _pack(*other[0].values(), other[1])
    for objective in (before, lp._objective, before):
        lp.set_objective(objective.coeffs, objective.constant)
        assert lp._objective is objective
        for rhs in (3.0, 5.0):  # the second load keeps the costs under the objective
            lp.set_rhs("sum", rhs)
            assert _bits_of(solve(lp)) == _bits_of(solve(_rebuilt(lp)))


def test_equal_objectives_share_one_cost_vector():
    """Two distinct but equal dicts take one kept objective, so a reloaded
    form keeps one cost vector for both."""
    lp = _reuse_lp()
    lp.set_rhs("sum", 4.0)
    solve(lp)
    lp.set_rhs("sum", 5.0)  # a reloaded form keeps its costs
    for objective in ({"x": 2.0, "y": 1.0}, {"x": 2.0, "y": 1.0}):
        lp.set_objective(objective)
        assert _bits_of(solve(lp)) == _bits_of(solve(_rebuilt(lp)))
    sf = lp._standard_form()
    [shared] = sf._costs.values()  # the first load's costs are not kept
    kept = lp._objective
    assert sf.costs(kept.coeffs, kept.constant, kept) is shared


def _pack(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def test_variables_follow_every_bound_write():
    """``variables`` is built from the LP's bounds on every read, so it shows
    each ``set_bounds`` (as floats, -0.0 kept), whether the write keeps the
    form or drops it."""
    lp = _reuse_lp()
    solve(lp)
    for name, lower, upper in (("x", 1, 2), ("y", -INF, 6.0), ("x", -0.0, INF), ("y", -2.0, 0.0), ("x", 0.0, 4.0)):
        lp.set_bounds(name, lower, upper)
        got = {v.name: v for v in lp.variables}
        assert list(got) == ["x", "y"]
        assert type(got[name].lower) is float and type(got[name].upper) is float
        assert _pack(got[name].lower, got[name].upper) == _pack(lower, upper)
        assert _bits_of(solve(lp)) == _bits_of(solve(_rebuilt(lp)))


def test_extended_lp_and_its_base_keep_their_bounds_apart():
    """Bound writes on an extended LP never reach the LP it extends (its
    ``variables`` or its next solve), and the base's never reach the extended
    LP: each solves as a fresh LP with its own bounds."""
    base = _reuse_lp()
    base_solution = solve(base)
    ext = base.extended("ext", {"s": {"sum": 1.0}})
    ext.set_objective({"x": 1.0, "y": 2.0, "s": 1.0})
    assert ext.variables[-1] == lp_core.Variable("s", 0.0, INF)
    base_variables = base.variables

    solve(ext)  # builds the extended LP's form
    form = ext._form
    ext.set_bounds("x", 1.0, 3.0)  # keeps it
    assert form is not None and ext._form is form
    ext.set_bounds("y", -INF, 6.0)  # drops it
    assert ext._form is None
    ext.set_bounds("s", 0.0, 0.5)
    assert base.variables == base_variables and len(base.variables) == 2
    assert _bits_of(solve(base)) == _bits_of(base_solution) == _bits_of(solve(_rebuilt(base)))
    ext_variables, ext_solution = ext.variables, solve(ext)
    assert _bits_of(ext_solution) == _bits_of(solve(_rebuilt(ext)))

    base.set_bounds("x", 2.0, 4.0)
    base.set_bounds("y", -1.0, INF)
    assert ext.variables == ext_variables
    assert _bits_of(solve(ext)) == _bits_of(ext_solution)
    assert _bits_of(solve(base)) == _bits_of(solve(_rebuilt(base)))


def test_kept_form_holds_its_own_lower_bounds():
    """A kept form copies the LP's lower bounds when a load finds their bits
    changed, so a bound write reaches it only through the next load. Moving
    a lower bound from 0.0 to -0.0 and back is such a change, and every
    solve on the kept form has a fresh LP's bits."""
    lp = _reuse_lp()  # x in [0, 4], y in [-2, 6]
    solve(lp)
    form = lp._standard_form()
    assert form._lower is not lp._lower
    for lower in (-0.0, 0.0, -0.0, 0.0):
        loaded = _pack(*form._lower)
        lp.set_bounds("x", lower, 4.0)
        assert _pack(*form._lower) == loaded  # not before the next load
        got = solve(lp)
        assert lp._standard_form() is form and form._lower is not lp._lower
        assert _pack(*form._lower) == _pack(lower, -2.0)
        assert _bits_of(got) == _bits_of(solve(_rebuilt(lp)))


def test_rows_without_variables():
    lp = LinearProgram()
    lp.add_constraint({}, Relation.LE, 5.0)
    assert solve(lp).status == SolveStatus.OPTIMAL
    lp.add_constraint({}, Relation.GE, 5.0)
    assert solve(lp).status == SolveStatus.INFEASIBLE


# ---------------------------------------------------------------------------
# variables bounded only above, and duals, against HiGHS
# ---------------------------------------------------------------------------


def _random_mixed_bounds_lp(rng: np.random.Generator) -> LinearProgram:
    """Feasible random LP whose variables are bounded only above, only below,
    on both sides or not at all. Inequalities hold with slack at a known
    point, and there are fewer equalities than variables, so the optimum is
    almost surely nondegenerate and its duals unique."""
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 6))
    lp = LinearProgram("mixed")
    x0 = rng.uniform(-3, 3, size=n)
    for j in range(n):
        kind = int(rng.integers(0, 4))
        lower = -INF if kind in (0, 3) else x0[j] - rng.uniform(0, 2)
        upper = INF if kind in (1, 3) else x0[j] + rng.uniform(0, 2)
        lp.add_variable(f"x{j}", lower, upper)
    for i in range(m):
        a = rng.uniform(-2, 2, size=n)
        rel = [Relation.LE, Relation.GE, Relation.EQ][int(rng.integers(0, 3 if i < n - 1 else 2))]
        margin = {Relation.LE: 1.0, Relation.GE: -1.0, Relation.EQ: 0.0}[rel] * rng.uniform(0, 1)
        lp.add_constraint({f"x{j}": float(a[j]) for j in range(n)}, rel, float(a @ x0 + margin), name=f"r{i}")
    lp.set_objective({f"x{j}": float(rng.uniform(-1, 1)) for j in range(n)})
    return lp


def _highs(lp: LinearProgram):
    """The LP through scipy's HiGHS, and each row's d objective / d rhs."""
    optimize = pytest.importorskip("scipy.optimize")
    names = [v.name for v in lp.variables]

    def row(con):
        return [con.coeffs.get(v, 0.0) for v in names]

    ub = [(con, 1.0) for con in lp.constraints if con.relation == Relation.LE]
    ub += [(con, -1.0) for con in lp.constraints if con.relation == Relation.GE]
    eq = [con for con in lp.constraints if con.relation == Relation.EQ]
    res = optimize.linprog(
        [lp.objective.get(v, 0.0) for v in names],
        A_ub=[[s * a for a in row(con)] for con, s in ub] or None,
        b_ub=[s * con.rhs for con, s in ub] or None,
        A_eq=[row(con) for con in eq] or None,
        b_eq=[con.rhs for con in eq] or None,
        bounds=[(None if v.lower == -INF else v.lower, None if v.upper == INF else v.upper) for v in lp.variables],
        method="highs",
    )
    duals = {}
    if res.status == 0:
        duals.update({con.name: s * y for (con, s), y in zip(ub, res.ineqlin.marginals)})
        duals.update({con.name: y for con, y in zip(eq, res.eqlin.marginals)})
    return res, duals


def test_mixed_bound_lps_match_highs():
    rng = np.random.default_rng(31)
    counts = {"optimal": 0, "unbounded": 0}
    upper_only = 0
    for _ in range(150):
        lp = _random_mixed_bounds_lp(rng)
        res, _ = _highs(lp)
        sol = solve(lp, compute_duals=False)
        assert res.status in (0, 3)  # feasible by construction
        if res.status == 3:
            assert sol.status == SolveStatus.UNBOUNDED, lp.to_lp_format()
            counts["unbounded"] += 1
            continue
        assert sol.status == SolveStatus.OPTIMAL, lp.to_lp_format()
        assert sol.objective == pytest.approx(res.fun, abs=1e-7)
        assert check_solution(lp, sol.values) == []
        counts["optimal"] += 1
        upper_only += any(v.lower == -INF and v.upper < INF for v in lp.variables)
    assert counts["optimal"] > 60 and counts["unbounded"] > 10 and upper_only > 30


def test_duals_meet_strong_duality_and_complementary_slackness():
    """min c.x s.t. a_i.x (<=, >=, =) b_i, l <= x <= u: with y the duals and
    d = c - A'y the reduced costs, each d_j is zero off the bounds and signed
    by the bound it holds, each y_i is signed by its row and zero on a row
    with slack, and c.x = b.y + d.x."""
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(150):
        lp = _random_mixed_bounds_lp(rng)
        sol = solve(lp)
        if sol.status != SolveStatus.OPTIMAL:
            continue
        checked += 1
        x, y = sol.values, sol.duals
        assert set(y) == {con.name for con in lp.constraints}
        for con in lp.constraints:
            slack = sum(c * x[v] for v, c in con.coeffs.items()) - con.rhs
            assert y[con.name] * slack == pytest.approx(0.0, abs=1e-8)
            if con.relation == Relation.LE:
                assert y[con.name] <= 1e-9
            elif con.relation == Relation.GE:
                assert y[con.name] >= -1e-9
        d = {v.name: lp.objective.get(v.name, 0.0) for v in lp.variables}
        for con in lp.constraints:
            for v, c in con.coeffs.items():
                d[v] -= c * y[con.name]
        for v in lp.variables:
            if d[v.name] > 1e-9:
                assert x[v.name] == pytest.approx(v.lower, abs=1e-9)
            elif d[v.name] < -1e-9:
                assert x[v.name] == pytest.approx(v.upper, abs=1e-9)
        dual_obj = sum(con.rhs * y[con.name] for con in lp.constraints) + sum(d[v] * x[v] for v in d)
        assert dual_obj == pytest.approx(sol.objective, abs=1e-8)
    assert checked > 60


def test_duals_match_highs_marginals():
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(150):
        lp = _random_mixed_bounds_lp(rng)
        sol = solve(lp)
        if sol.status != SolveStatus.OPTIMAL:
            continue
        _, highs_duals = _highs(lp)
        assert sol.duals == pytest.approx(highs_duals, abs=1e-7), lp.to_lp_format()
        checked += 1
    assert checked > 60


def _kept_nodes(sf) -> list:
    """Every node a form keeps, from its patterns' roots down."""
    nodes, stack = [], [p.root for p in sf._patterns.values()]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children.values())
    return nodes


def test_kept_nodes_hold_no_tableau_and_rebuild_it_bit_for_bit(monkeypatch):
    """Of a form's kept nodes only the patterns' roots hold their matrix.
    Every other kept node's tableau, rebuilt in any order (from its pattern's
    root or from the last tableau built), is byte-equal to the one built
    first, and reused solves stay the fresh LP's, Bland's pivots included."""
    built = {}
    real_init = lp_core._Node.__init__

    def init(node, *a):
        built[id(node)] = (node, a[0].tobytes())  # holds the node, so ids stay unique
        real_init(node, *a)

    monkeypatch.setattr(lp_core._Node, "__init__", init)
    rng = np.random.default_rng(14)
    lps = [_beale()] + [_random_bounded_lp(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5))) for _ in range(60)]
    for lp in lps:
        names = [con.name for con in lp.constraints]
        for _ in range(8):
            lp.set_rhs_many(names, [float(np.round(rng.uniform(-4, 4), 3)) for _ in names])
            _same_solve(solve(lp), solve(_rebuilt(lp)))
    lean = 0
    for lp in lps:
        sf = lp._standard_form()
        roots = {id(p.root) for p in sf._patterns.values()}
        nodes = _kept_nodes(sf)
        for i in rng.permutation(len(nodes)):
            node = nodes[i]
            assert (node.T is not None) == (id(node) in roots)
            assert sf.tableau(node).tobytes() == built[id(node)][1]
            lean += node.T is None
    assert lean > 500


# ---------------------------------------------------------------------------
# hours written as one block: each hour solves as a fresh LP holding it
# ---------------------------------------------------------------------------


def _duals_bits(sol) -> dict | None:
    return None if sol.duals is None else {name: struct.pack("<d", y) for name, y in sol.duals.items()}


def _fresh_hour(lp: LinearProgram, rows, rhs, variables, uppers) -> LinearProgram:
    """A fresh LP with ``lp``'s variables, rows and objective, and one hour's
    right-hand sides and upper bounds written as a build writes them."""
    rhs, uppers = dict(zip(rows, rhs)), dict(zip(variables, uppers))
    out = LinearProgram(lp.name)
    for v in lp.variables:
        out.add_variable(v.name, v.lower, uppers.get(v.name, v.upper))
    for con in lp.constraints:
        out.add_constraint(dict(con.coeffs), con.relation, rhs.get(con.name, con.rhs), con.name)
    out.set_objective(dict(lp.objective), lp.objective_constant)
    return out


def _assert_hours_solve_fresh(lp: LinearProgram, rows, rhs, variables, uppers, order=None) -> list:
    """Write the hours as one block into ``lp``, then solve each hour (in
    ``order``) under the LP's objective: its solve equals a fresh LP's with
    that hour written, in status, counters and the bits of its objective,
    values and duals. Returns the solutions, in hour order."""
    fresh = [_fresh_hour(lp, rows, r, variables, u) for r, u in zip(rhs, uppers)]
    lp.set_hours(rows, rhs, variables, uppers)
    got = {}
    for hour in order or range(len(rhs)):
        lp.select_hour(hour)
        got[hour] = solve(lp)
        want = solve(fresh[hour])
        assert _bits_of(got[hour]) == _bits_of(want), hour
        assert got[hour].objective.hex() == want.objective.hex()
        assert _duals_bits(got[hour]) == _duals_bits(want), hour
    return [got[hour] for hour in sorted(got)]


_COEF = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])
_RHS = st.sampled_from([-2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.5])


@st.composite
def _blocks(draw, hours=(2, 6), streaks=None):
    """An LP of 1-4 variables and 1-4 rows, and ``hours`` (2-6) hours of
    right-hand sides (zeros make ratio ties, negatives flip rows) and upper
    bounds of the variables bounded above, with two objectives; and the
    order the hours are solved in, and the degenerate streak the Bland
    switch waits for (one of ``streaks``: 1, 2 or the default)."""
    n, m, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(*hours))
    lp = LinearProgram("block")
    ranged, uppers = [], [[] for _ in range(k)]
    for j in range(n):
        lower = draw(st.sampled_from([0.0, -1.0, -INF]))
        bounded = draw(st.booleans())
        lp.add_variable(f"x{j}", lower, (0.0 if lower == -INF else lower) if bounded else INF)
        if bounded:
            ranged.append(f"x{j}")
            for hour in uppers:
                hour.append((0.0 if lower == -INF else lower) + draw(st.sampled_from([0.0, 1.0, 2.5])))
    rows = []
    for i in range(m):
        coeffs = {f"x{j}": draw(_COEF) for j in range(n)}
        rows.append(lp.add_constraint(coeffs, draw(st.sampled_from(list(Relation))), 0.0, name=f"r{i}"))
    rhs = [[draw(_RHS) for _ in range(m)] for _ in range(k)]
    objectives = [{f"x{j}": draw(_COEF) for j in range(n)} for _ in range(2)]
    order = draw(st.permutations(range(k)))
    return lp, rows, rhs, ranged, uppers, objectives, order, draw(st.sampled_from(streaks or [1, 2, DEFAULT_STREAK]))


DEFAULT_STREAK = lp_core.DEGENERATE_STREAK


@settings(max_examples=300, deadline=None)
@given(_blocks())
def test_each_hour_of_a_block_solves_as_a_fresh_lp(block):
    """Hours written as one block and solved in any order, under two
    objectives in turn (the second without a new write), each give the fresh
    one-hour LP's solve bit for bit: whether they meet at nodes or part,
    tie in the ratio test, switch to Bland's rule alone (a short streak makes
    the switch common), or end infeasible or unbounded beside each other."""
    lp, rows, rhs, ranged, uppers, objectives, order, streak = block
    lp_core.DEGENERATE_STREAK = streak
    try:
        for objective in objectives:
            lp.set_objective(objective)
            if objective is objectives[0]:
                _assert_hours_solve_fresh(lp, rows, rhs, ranged, uppers, order)
                continue
            for hour in order:  # the same block: phase one is not walked again
                lp.select_hour(hour)
                want = solve(_fresh_hour(lp, rows, rhs[hour], ranged, uppers[hour]))
                got = solve(lp)
                assert _bits_of(got) == _bits_of(want) and _duals_bits(got) == _duals_bits(want)
    finally:
        lp_core.DEGENERATE_STREAK = DEFAULT_STREAK


@settings(max_examples=100, deadline=None)
@given(_blocks(hours=(8, 40), streaks=[1, 2]))
def test_each_hour_of_a_long_block_solves_as_a_fresh_lp(block):
    """Blocks of 8-40 hours, the sizes a day's or a week's call gives, walk
    the tree in groups of many hours, whose ratio tests run as one array
    step: each hour gives the fresh one-hour LP's solve bit for bit, under
    two objectives in turn, with ratio ties and flipped rows, Bland's rule
    after 1 or 2 degenerate pivots in some hours of a group and not in
    others, and infeasible and unbounded hours beside optimal ones."""
    test_each_hour_of_a_block_solves_as_a_fresh_lp.hypothesis.inner_test(block)


def test_a_block_lists_its_row_flip_patterns_in_first_appearance_order():
    """``starts`` holds each row-flip pattern of a load once, in the order
    its hours first take it, with its hours in order; the form keeps nodes
    under NODES_PER_FORM in the order the walks build them, so this order
    decides which it keeps."""
    lp = LinearProgram("patterns")
    lp.add_variable("x", 0.0, 4.0)
    lp.add_variable("y", -1.0, INF)
    # y's lower bound shifts a by -1 and b by +2: a flips below -1, b below 2
    lp.add_constraint({"x": 1.0, "y": 1.0}, Relation.LE, 0.0, name="a")
    lp.add_constraint({"x": 1.0, "y": -2.0}, Relation.GE, 0.0, name="b")
    rhs = [[1.0, 3.0], [-3.0, 3.0], [-1.0, 2.0], [1.0, 0.0], [-2.0, 5.0], [-1.5, -2.5], [4.0, -9.0], [0.0, 2.5]]
    lp.set_hours(["a", "b"], rhs, ["x"], [[4.0]] * len(rhs))
    sf = lp._standard_form()
    assert [hours for _, hours in sf.starts] == [[0, 2, 7], [1, 4], [3, 6], [5]]
    signs = [pattern.row_sign.tolist() for pattern, _ in sf.starts]
    assert signs == [[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]
    lp.set_hours(["a", "b"], rhs[::-1], ["x"], [[4.0]] * len(rhs))  # reversed, a reload lists them reversed
    sf = lp._standard_form()
    assert [hours for _, hours in sf.starts] == [[0, 5, 7], [1, 4], [2], [3, 6]]
    assert [pattern.row_sign.tolist() for pattern, _ in sf.starts] == [signs[0], signs[2], signs[3], signs[1]]


def test_a_block_mixes_optimal_infeasible_and_unbounded_hours():
    """Feasibility depends on the hour; boundedness, given feasibility, on the
    LP alone: a block ends some hours optimal and others infeasible, and
    under a cost no row bounds, some unbounded and others infeasible."""
    lp = LinearProgram("mixed")
    lp.add_variable("x", 0.0, 2.0)
    lp.add_variable("y", -1.0, INF)
    lp.add_variable("z", 0.0, 1.0)
    lp.add_constraint({"x": 1.0, "y": 1.0}, Relation.GE, 0.0, name="big")
    lp.add_constraint({"x": 1.0, "y": -1.0}, Relation.LE, 0.0, name="gap")
    lp.add_constraint({"z": 1.0}, Relation.GE, 0.0, name="least")  # infeasible above z's bound
    rows = ["big", "gap", "least"]
    rhs = [[10.0, 0.5, 0.5], [2.0, 0.5, 2.0], [1.0, -0.5, 0.0], [0.0, 0.0, 1.5], [0.0, 0.0, 0.0]]
    uppers = [[2.0, 1.0], [2.0, 1.0], [1.5, 1.0], [2.0, 1.2], [0.5, 1.0]]
    statuses = []
    for objective in ({"x": 1.0, "y": 2.0, "z": 1.0}, {"x": 1.0, "y": -3.0}):  # y grows without bound
        lp.set_objective(objective)
        statuses.append([sol.status for sol in _assert_hours_solve_fresh(lp, rows, rhs, ["x", "z"], uppers)])
    O, I, U = SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED
    assert statuses == [[O, I, O, I, O], [U, I, U, I, U]]


def test_each_hour_of_a_block_has_its_own_infeasibility_threshold():
    """Phase one's tolerance scales with each hour's largest right-hand side:
    x >= 1 + 5e-6 with x <= 1 is within it beside a row of 1,000, and
    infeasible beside a row of 2, in the same block as in fresh LPs."""
    lp = LinearProgram("tolerance")
    lp.add_variable("x", 0.0, 1.0)
    lp.add_constraint({"x": 1.0}, Relation.GE, 0.0, name="need")
    lp.add_constraint({"x": 1.0}, Relation.LE, 0.0, name="big")
    lp.set_objective({"x": 1.0})
    rhs = [[1.0 + 5e-6, 1000.0], [1.0 + 5e-6, 2.0], [0.5, 2.0]]
    sols = _assert_hours_solve_fresh(lp, ["need", "big"], rhs, [], [[]] * len(rhs))
    assert [sol.status for sol in sols] == [SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.OPTIMAL]


def test_a_blocks_infeasibility_thresholds_scale_from_one():
    """Where every right-hand side of an hour is below 1, its tolerance is
    FEASIBILITY_TOL itself: x >= 0.1 + 5e-7 with x <= 0.1 is within it, in a
    block as in fresh LPs, and x >= 0.1 + 5e-6 is not."""
    lp = LinearProgram("small")
    lp.add_variable("x", 0.0, 0.1)
    lp.add_constraint({"x": 1.0}, Relation.GE, 0.0, name="need")
    lp.set_objective({"x": 1.0})
    rhs = [[0.1 + 5e-7], [0.1 + 5e-6], [0.05]]
    sols = _assert_hours_solve_fresh(lp, ["need"], rhs, [], [[]] * len(rhs))
    assert [sol.status for sol in sols] == [SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.OPTIMAL]


def test_a_block_of_beales_lp_switches_to_bland_in_one_hour_only(monkeypatch):
    """Beale's LP cycles only where r1 and r2 are both zero: in a block, that
    hour alone switches to Bland's rule and walks on apart from the others,
    which share their pivots; every hour is the fresh LP's."""
    built = _count_nodes(monkeypatch)
    lp = _beale()
    rhs = [[1.0, 1.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 2.0], [0.5, 2.0, 1.0], [1.0, 1.0, 1.0]]
    sols = _assert_hours_solve_fresh(lp, ["r1", "r2", "r3"], rhs, [], [[]] * len(rhs))
    assert [sol.bland for sol in sols] == [False, True, False, False, False]
    assert sols[1].iterations > lp_core.DEGENERATE_STREAK > max(s.iterations for s in sols if not s.bland)
    # a second block of the same hours walks the tree the first one kept
    lp.set_hours(["r1", "r2", "r3"], rhs, [], [[]] * len(rhs))
    before = len(built)
    for hour in reversed(range(len(rhs))):
        lp.select_hour(hour)
        assert _bits_of(solve(lp)) == _bits_of(sols[hour])
    assert len(built) == before


def test_a_block_with_a_stalling_klee_minty_hour(monkeypatch):
    """A Klee-Minty hour that reaches the iteration cap ends
    ``numerically_unstable`` while the block's other hours end optimal, each
    as the fresh LP does."""
    monkeypatch.setattr(lp_core, "MAX_ITERATIONS", 100)
    lp = _klee_minty(12)
    rows = [con.name for con in lp.constraints]
    cube = [4.0**i for i in range(12)]
    rhs = [[1.0] * 12, cube, [0.0] * 11 + [4.0**11], [2.0**i for i in range(12)]]
    sols = _assert_hours_solve_fresh(lp, rows, rhs, [], [[]] * len(rhs), order=[3, 1, 0, 2])
    assert [sol.status for sol in sols] == [SolveStatus.OPTIMAL, SolveStatus.NUMERICALLY_UNSTABLE] + [
        SolveStatus.OPTIMAL
    ] * 2
    assert sols[1].iterations == 100 and sols[1].values == {} and max(s.iterations for s in sols[2:]) < 100


def test_an_lp_holding_hours_reads_the_held_hour():
    """``constraints``, ``variables``, ``check_solution``, ``extended`` and
    ``to_lp_format`` read the hour ``solve`` solves; a write keeps that hour
    as the LP's own values and drops the others, with the form's walks."""
    lp = _reuse_lp()
    rhs, uppers = [[3.0], [5.0], [-1.0]], [[4.0], [1.5], [2.0]]
    lp.set_hours(["sum"], rhs, ["x"], uppers)
    for hour in (2, 0, 1):
        lp.select_hour(hour)
        fresh = _fresh_hour(lp, ["sum"], rhs[hour], ["x"], uppers[hour])
        assert lp.constraints == fresh.constraints and lp.variables == fresh.variables
        assert lp.to_lp_format() == fresh.to_lp_format()
        sol = solve(lp)
        assert _bits_of(sol) == _bits_of(solve(fresh))
        assert check_solution(lp, sol.values) == check_solution(fresh, sol.values) == []
        off = {**sol.values, "x": sol.values["x"] + 10.0}
        assert [str(v) for v in check_solution(lp, off)] == [str(v) for v in check_solution(fresh, off)] != []
        ext, fresh_ext = (a.extended("ext", {"s": {"sum": 1.0}}) for a in (lp, fresh))
        assert ext.constraints == fresh_ext.constraints and ext.variables == fresh_ext.variables
    form = lp._standard_form()
    assert form._phase_one is not None
    lp.set_rhs("sum", 7.0)  # the next write: hour 1's bound stays, and the block goes
    assert form._phase_one is None and form.b is None
    assert [v.upper for v in lp.variables] == [1.5, 6.0] and lp.constraints[0].rhs == 7.0
    with pytest.raises(LpError, match="holds no hour 1"):
        lp.select_hour(1)
    assert _bits_of(solve(lp)) == _bits_of(solve(_rebuilt(lp)))


def _two_row_lp() -> LinearProgram:
    lp = LinearProgram("two")
    lp.add_variable("x", 0.0, 5.0)
    lp.add_constraint({"x": 1.0}, Relation.LE, 4.0, name="a")
    lp.add_constraint({"x": 1.0}, Relation.GE, 1.0, name="b")
    return lp


@pytest.mark.parametrize(
    "names, values, message",
    [
        (["a", "zz"], [1.0, 2.0], "unknown constraint 'zz'"),
        (["a", "b"], [1.0, math.nan], "constraint 'b' has non-finite rhs"),
        (["a", "b"], [1.0], "2 constraints but 1 right-hand sides"),
        (["a"], [1.0, 2.0], "1 constraints but 2 right-hand sides"),
    ],
    ids=["unknown_name", "nan_value", "fewer_values", "more_values"],
)
def test_set_rhs_many_refuses_a_write_whole(names, values, message):
    """A refused write changes no row, not even those before the bad entry."""
    lp = _two_row_lp()
    before = lp.constraints
    with pytest.raises(LpError, match=message):
        lp.set_rhs_many(names, values)
    assert lp.constraints == before


@pytest.mark.parametrize(
    "args, message",
    [
        ((["a", "zz"], [[1.0, 2.0]], ["x"], [[5.0]]), "unknown constraint 'zz'"),
        ((["a"], [[1.0]], ["y"], [[5.0]]), "unknown variable 'y'"),
        ((["a", "b"], [[1.0, 2.0], [1.0, math.inf]], ["x"], [[5.0], [5.0]]), "constraint 'b' has non-finite rhs"),
        ((["a", "b"], [[1.0, 2.0], [1.0]], ["x"], [[5.0], [5.0]]), "2 constraints but 1 right-hand sides"),
        ((["a"], [[1.0], [2.0]], ["x"], [[5.0]]), "2 hours of right-hand sides but 1 of upper bounds"),
        ((["a"], [], ["x"], []), "no hours to write"),
        ((["a"], [[1.0], [2.0]], ["x"], [[5.0], []]), "1 variables but 0 upper bounds"),
        ((["a"], [[1.0], [2.0]], ["x"], [[5.0], [math.nan]]), "NaN bound"),
        ((["a"], [[1.0], [2.0]], ["x"], [[5.0], [-1.0]]), "lower > upper"),
        ((["a"], [[1.0], [2.0]], ["x"], [[5.0], [INF]]), "finite upper bound in one hour and not in another"),
    ],
    ids=[
        "unknown_row", "unknown_variable", "inf_value", "short_hour", "hours_mismatch", "no_hours",
        "short_bounds", "nan_bound", "bound_below_lower", "finite_and_not",
    ],
)
def test_set_hours_refuses_a_write_whole(args, message):
    """A refused block changes no row, bound or held hour: an LP holding
    hours still holds them, at the hour it held."""
    lp = _two_row_lp()
    lp.set_hours(["a"], [[3.0], [2.0]], ["x"], [[5.0], [4.0]])
    lp.select_hour(1)
    before = lp.constraints, lp.variables
    with pytest.raises(LpError, match=message):
        lp.set_hours(*args)
    assert (lp.constraints, lp.variables) == before
    lp.select_hour(0)
    assert lp.constraints[0].rhs == 3.0 and lp.variables[0].upper == 5.0


@pytest.mark.parametrize(
    "args, one_value",
    [
        ((["a"], [["1"]], ["x"], [[5.0]]), lambda lp: lp.set_rhs_many(["a"], ["1"])),
        ((["a"], np.array([["1"]]), ["x"], [[5.0]]), lambda lp: lp.set_rhs_many(["a"], np.array(["1"]))),
        ((["a"], [[1.0], [None]], ["x"], [[5.0], [5.0]]), lambda lp: lp.set_rhs("a", None)),
        ((["a"], [[1.0]], ["x"], [[None]]), lambda lp: lp.set_bounds("x", 0.0, None)),
        ((["a"], [[1.0]], ["x"], [["abc"]]), lambda lp: lp.set_bounds("x", 0.0, "abc")),
        ((["a"], [[1.0], [2.0]], ["x"], [[5.0], ["5"]]), lambda lp: lp.set_bounds("x", 0.0, "5")),
    ],
    ids=["str_rhs", "str_array_rhs", "none_rhs", "none_bound", "text_bound", "str_bound_in_hour_1"],
)
def test_set_hours_refuses_what_the_one_hour_writers_refuse(args, one_value):
    """A value ``set_rhs_many``, ``set_rhs`` or ``set_bounds`` refuses is
    refused by ``set_hours`` too, with the same exception and message, and
    the write changes nothing."""
    with pytest.raises(Exception) as want:
        one_value(_two_row_lp())
    lp = _two_row_lp()
    before = lp.constraints, lp.variables
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        lp.set_hours(*args)
    assert (lp.constraints, lp.variables) == before
