"""Solver unit suite: trivial cases, oracle agreement, duality, determinism."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
# one standard form per LP: reused for a new objective, rebuilt on any change
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
    "change",
    [
        lambda lp: lp.set_objective({"x": 2.0, "y": -1.0}),  # optimum (0, 6)
        lambda lp: lp.set_bounds("x", 0.0, 2.0),  # optimum (2, 1)
        lambda lp: lp.add_constraint({"x": 1.0, "y": -1.0}, Relation.LE, 0.5),  # (1.75, 1.25)
    ],
    ids=["objective", "bound", "row"],
)
def test_change_after_a_solve_gives_the_fresh_optimum(change):
    solved = _reuse_lp()
    before = solve(solved)
    change(solved)
    fresh = _reuse_lp()
    change(fresh)
    after, want = solve(solved), solve(fresh)
    assert after.status == want.status == SolveStatus.OPTIMAL
    assert after.values == want.values
    assert after.objective == want.objective
    assert after.values != before.values


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
