"""Linear-program container and a bundled exact solver.

The solver is a dense two-phase tableau simplex. Dense is fine at zone scale
(at most a few hundred variables per problem) and keeps results
bit-reproducible across platforms: identical input produces the identical
pivot sequence and therefore the identical solution. One guard breaks
cycling: a switch to Bland's rule after ``DEGENERATE_STREAK`` degenerate
pivots in a row (Beale's LP cycles without it). An LP that still reaches
``MAX_ITERATIONS`` pivots (the base-2 Klee-Minty cube in 15 dimensions does)
is ``numerically_unstable``, never ``infeasible``. Duals come from the final
tableau's reduced costs. Every :class:`LpSolution` counts its pivots per
phase and says whether the switch fired.

Everything downstream reads only :class:`LpSolution`; the pipeline calls
this module's :func:`solve` and has no hook for another solver.

A :class:`LinearProgram` holds its bounds and right-hand sides in float
lists (``variables`` and ``constraints`` build their tuples on demand) and
changes only through its methods, so the standard form it is converted to
for solving is kept across solves. Its matrix depends
only on the coefficients and on which bounds are finite: it is rebuilt when a
variable or row is added or a bound turns finite or infinite. New right-hand
sides (:meth:`LinearProgram.set_rhs_many` writes a whole set in one call) or
a bound that stays finite (or infinite) only mark the form's right-hand side
stale, and the next solve recomputes it with the same arithmetic as a fresh
form. A reloaded form also keeps its row shifts (each row's
``sum coef * lower``, in coefficient order) and every objective's column
costs until a lower bound changes bit pattern; it keeps a copy of the lower
bounds they were summed from. Both are summed in Python floats, in
coefficient order, and converted to arrays once. An objective is checked
and copied once per content (:meth:`LinearProgram.set_objective`): an equal
one, variable by variable in the same order and bit for bit, takes the kept
copy, under which a form keeps its costs, so a solve neither checks nor
keys its objective again.

An LP can also hold several hours: :meth:`LinearProgram.set_hours` writes k
sets of right-hand sides and upper bounds at once, kept as one k x (rows +
variables) float array, and :meth:`LinearProgram.select_hour` picks the one
the LP holds, which its ``variables`` and ``constraints`` show (as lists,
made at their first read) and :func:`solve` solves. The first solve loads
the k hours into the form as one block, a k x m array of sign-normalized
right-hand sides, each with its own row-flip pattern and infeasibility
threshold, by array operations on the whole block: per entry the same
subtraction and sign flip as a one-hour load, which runs them in Python
floats. An LP that holds one right-hand side is a one-hour block. The next
write (:meth:`LinearProgram.drop_hours`) keeps the held hour's values as the
LP's own and drops the block with its walks.

Every solve walks a pivot-path tree of its form. The matrix and the costs do
not change with the right-hand side b, so neither does anything that picks a
pivot's column or builds the next tableau. A node stands for what depends
only on the pivots that reached it:

* the tableau matrix, the basis and the reduced-cost row, the last updated
  pivot by pivot as a fresh tableau updates it;
* the entering column under Dantzig's rule and under Bland's, and that
  column's positive rows and their values.

A node's children are keyed by their pivot, (entering column, leaving row).
A kept node holds everything but the matrix: its parent, the (row, column)
pivots from there, the basis, the reduced costs, the pivots' row operations
on b and the entering columns, about 2.6 kB where the bundled zone's
29 x 46 matrix takes 11 kB. Only a pattern's root, and a node the form does
not keep, holds its matrix. Where a kept node's matrix is needed (to build a
new child, the drive-out or a phase-two root, or to find Bland's column), it
is rebuilt by replaying the pivots from the nearest ancestor that holds one,
or from the last tableau built; a pivot is a pure function of the matrix,
so the rebuilt one has the bits the node was first built with.
b takes part only in the ratio test, the degenerate streak, phase one's
feasibility test and the final values, so a walk carries only the hours' b's
and streaks down the tree. The hours of a block walk it together: those at
one node form a group, whose b's are the rows of one k x m array. At each
node every hour takes its own ratio test on ``b[pos] / colpos`` over the
entering column's positive rows. A one-hour group runs it in Python floats;
a group of two or more runs it as one array step per rule its hours follow,
over the positive rows ordered by basis column: the divisions, each hour's
smallest ratio ``best`` and the first row whose ratio is within
``best + 1e-12``, which is the smallest basis column among the ties. Hours
that take the same pivot move on as one group, and the pivot's row
operation runs once on the group's rows, ``b[:, row] /= pivot`` then
``b -= b[:, row] * factors`` (``factors`` is the pivot column with a zero in
the pivot row): per hour the elementwise operations the pivot applies to the
tableau's b column. Where hours take different pivots the group parts, in
the order its hours first take them, each part with a copy of its rows. A
child not yet in the tree is built by the full pivot, once per group. So
each hour takes the same pivots as a fresh one-hour solve, through the same
floating-point operations, and gets the same bits.

The tree's roots are phase one's initial tableaus, one per row-flip pattern
(the rows whose shifted right-hand side is negative, and so are
sign-normalized); a block's hours start from their patterns' roots. Where
phase one ends, a node keeps the pivots that drive basic artificials out of
the basis, which depend only on its tableau; below them phase two has one
root per cost vector. Phase one does not depend on the objective, so it runs
once per block, at its first solve, and every objective starts phase two
where it ended; each objective's phase two runs once per block, at the
first solve under its costs, for every hour phase one found feasible. A
solve then reads its hour's end: the first solve that reads an optimal end
group builds the basic solutions and variable values of all its hours at
once (as arrays for two or more hours), and each solve takes its hour's
row, with its objective a 1-D dot per hour. Phase one's feasibility test
weighs each hour's b with the artificial costs kept on the node where it
ends (a 1-D dot per hour), against a tolerance scaled by that hour's largest
sign-normalized right-hand side, taken at the load.

A form keeps at most ``NODES_PER_FORM`` nodes, row-flip patterns and cost
vectors together (a reused Klee-Minty cube would otherwise keep one node per
pivot). Past that, and on a form loaded with one right-hand side only, the
walk builds each node it visits and keeps none. A form lives as long as its
:class:`LinearProgram` keeps the same matrix; the pipeline gives each LP the
objectives of one weighting, so its form keeps the costs and phase-two
subtrees of those alone.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from operator import sub, truediv
from types import MappingProxyType

import numpy as np

FEASIBILITY_TOL = 1e-6
PIVOT_TOL = 1e-9
# consecutive degenerate pivots tolerated before switching to Bland's rule
DEGENERATE_STREAK = 50
MAX_ITERATIONS = 20000
# tree nodes (with row-flip patterns and objectives' costs) a reloaded
# standard form keeps at most
NODES_PER_FORM = 1000

INF = math.inf


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICALLY_UNSTABLE = "numerically_unstable"


class Relation(str, Enum):
    LE = "<="
    GE = ">="
    EQ = "="


class LpError(Exception):
    """Malformed linear program (bad coefficient, unknown variable, ...)."""


@dataclass(frozen=True)
class Variable:
    name: str
    lower: float
    upper: float


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: Mapping[str, float]  # read-only
    relation: Relation
    rhs: float


@dataclass
class Violation:
    kind: str  # "bound" or "constraint"
    name: str
    amount: float

    def __str__(self) -> str:
        return f"{self.kind} {self.name} violated by {self.amount:.3e}"


class LinearProgram:
    """Minimization LP over bounded variables with <=, >=, = row constraints."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self._names, self._lower, self._upper = [], [], []  # every variable's name and bounds, in order
        self._rows: list[tuple[str, Mapping[str, float], Relation]] = []
        self._rhs: list[float] = []  # every row's right-hand side, in row order
        self._constraints: tuple[Constraint, ...] | None = None  # built on demand
        self._objective = _NO_OBJECTIVE
        self._objectives: list[_Objective] = []  # the last few set, oldest first
        self._var_index: dict[str, int] = {}
        self._row_index: dict[str, int] = {}
        self._form: _StandardForm | None = None  # dropped when the matrix changes
        self._rhs_stale = False  # the form's right-hand sides must be recomputed
        # the hours set_hours wrote, k x (rows + variables): per hour every
        # row's right-hand side, then every variable's upper bound; _rhs and
        # _upper are the held hour's, as lists made at their first read
        # (_held), None until then
        self._hours: np.ndarray | None = None
        self._hour = 0  # the hour held, the one solve solves

    @property
    def variables(self) -> tuple[Variable, ...]:
        """Every variable, with its current bounds."""
        return tuple(map(Variable, self._names, self._lower, self._held()[1]))

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """Every row, with its current right-hand side."""
        if self._constraints is None:
            self._constraints = tuple(
                Constraint(name, coeffs, rel, rhs) for (name, coeffs, rel), rhs in zip(self._rows, self._held()[0])
            )
        return self._constraints

    def add_variable(self, name: str, lower: float = 0.0, upper: float = INF) -> str:
        if name in self._var_index:
            raise LpError(f"duplicate variable {name!r}")
        lower, upper = _bounds(name, lower, upper)
        if self._hours is not None:
            self.drop_hours()
        self._var_index[name] = len(self._names)
        self._names.append(name)
        self._lower.append(lower)
        self._upper.append(upper)
        self._form = None
        return name

    def set_bounds(self, name: str, lower: float, upper: float) -> None:
        i = self._var_index.get(name)
        if i is None:
            raise LpError(f"unknown variable {name!r}")
        lower, upper = _bounds(name, lower, upper)
        self.drop_hours()
        if (self._lower[i] == -INF, self._upper[i] < INF) != (lower == -INF, upper < INF):
            self._form = None
        self._lower[i], self._upper[i] = lower, upper

    def add_constraint(
        self,
        coeffs: dict[str, float],
        relation: Relation | str,
        rhs: float,
        name: str | None = None,
    ) -> str:
        relation = relation if isinstance(relation, Relation) else Relation(relation)
        if name is None:
            name = f"c{len(self._rows)}"
        if name in self._row_index:
            raise LpError(f"duplicate constraint {name!r}")
        for var, c in coeffs.items():
            if var not in self._var_index:
                raise LpError(f"constraint {name!r} references unknown variable {var!r}")
            if not math.isfinite(c):
                raise LpError(f"constraint {name!r} has non-finite coefficient on {var!r}")
        if not math.isfinite(rhs):
            raise LpError(f"constraint {name!r} has non-finite rhs")
        if self._hours is not None:
            self.drop_hours()
        self._row_index[name] = len(self._rows)
        self._rows.append((name, MappingProxyType(dict(coeffs)), relation))
        self._rhs.append(float(rhs))
        self._constraints = None
        self._form = None
        return name

    def set_rhs(self, name: str, rhs: float) -> None:
        self.set_rhs_many((name,), (rhs,))

    def set_rhs_many(self, names: Sequence[str], values: Sequence[float]) -> None:
        """Write several rows' right-hand sides in one call, each checked as
        :meth:`set_rhs` checks it, all before any is written."""
        at = self._positions(names, self._row_index, "constraint")
        self._check_rhs(names, (values,))
        self.drop_hours()
        rhs = self._rhs
        for i, value in zip(at, values):
            rhs[i] = float(value)

    def set_hours(
        self,
        rows: Sequence[str],
        rhs: Sequence[Sequence[float]] | np.ndarray,
        variables: Sequence[str],
        uppers: Sequence[Sequence[float]] | np.ndarray,
    ) -> None:
        """Write k >= 1 hours at once: hour h has right-hand sides ``rhs[h]``
        on ``rows`` and upper bounds ``uppers[h]`` on ``variables``, and the
        LP's own everywhere else; ``rhs`` and ``uppers`` are k x len(rows) and
        k x len(variables) blocks, nested sequences or arrays. Every name,
        value and length is checked as :meth:`set_rhs_many` and
        :meth:`set_bounds` check them, before any is written; an upper bound
        must also be finite in every hour or in none. The LP keeps the hours
        as one float array, every row's right-hand side and every variable's
        upper bound per hour, and then holds hour 0 (:meth:`select_hour`
        picks another): its ``variables`` and ``constraints``,
        :meth:`extended` and :meth:`to_lp_format` read the held hour, and
        :func:`solve` solves it. The first solve loads the arrays into the
        standard form as one block, whose walks take the hours down the tree
        together; the next write, or :meth:`drop_hours`, drops the hours and
        the walks."""
        row_at = self._positions(rows, self._row_index, "constraint")
        var_at = self._positions(variables, self._var_index, "variable")
        if len(rhs) == 0:
            raise LpError("no hours to write")
        if len(uppers) != len(rhs):
            raise LpError(f"{len(rhs)} hours of right-hand sides but {len(uppers)} of upper bounds")
        values = _real_block(rhs, len(rows))
        if values is None or not np.isfinite(values).all():
            self._check_rhs(rows, rhs)  # raises for the first fault
            values = np.array(rhs, dtype=float)
        bounds = _real_block(uppers, len(variables))
        if bounds is None:
            for hour in uppers:
                if len(hour) != len(variables):
                    raise LpError(f"{len(variables)} variables but {len(hour)} upper bounds")
        if bounds is None or np.isnan(bounds).any() or (bounds < [self._lower[j] for j in var_at]).any() or (
            (bounds < INF) != (bounds[0] < INF)
        ).any():
            # raises for the first fault
            self._check_uppers(variables, var_at, uppers if bounds is None else bounds.tolist())
            bounds = np.array(uppers, dtype=float)
        finite = bounds[0] < INF
        rhs, upper = self._held()
        m = len(rhs)
        hours = np.tile(np.array(rhs + upper, dtype=float), (len(values), 1))
        hours[:, row_at] = values
        hours[:, [m + j for j in var_at]] = bounds
        hours.flags.writeable = False
        self.drop_hours()
        if any((self._upper[j] < INF) != fin for j, fin in zip(var_at, finite.tolist())):
            self._form = None  # as set_bounds drops it: the matrix changes
        self._hours = hours
        self.select_hour(0)

    def select_hour(self, hour: int) -> None:
        """Hold hour ``hour`` of those :meth:`set_hours` wrote: its row of the
        block is the LP's right-hand sides and upper bounds, which
        :func:`solve` reads from the loaded block and the LP's other readers
        as lists (:meth:`_held`)."""
        if self._hours is None or not 0 <= hour < len(self._hours):
            raise LpError(f"the LP holds no hour {hour}")
        self._rhs = self._upper = None
        self._hour = hour
        self._constraints = None

    def _held(self) -> tuple[list[float], list[float]]:
        """The held hour's right-hand sides and upper bounds, the LP's lists;
        made from its row of the block at their first read after
        :meth:`select_hour`."""
        if self._rhs is None:
            values, m = self._hours[self._hour].tolist(), len(self._rows)
            self._rhs, self._upper = values[:m], values[m:]
        return self._rhs, self._upper

    def drop_hours(self) -> None:
        """Keep the held hour's right-hand sides and bounds as the LP's own and
        drop the other hours and the form's walks over them; every write
        starts with this. The form's right-hand sides are recomputed at the
        next solve."""
        self._held()
        self._hours, self._hour = None, 0
        if self._form is not None:
            self._form.unload()
        self._constraints = None
        self._rhs_stale = True

    @staticmethod
    def _positions(names: Sequence[str], index: dict[str, int], kind: str) -> list[int]:
        """Each name's position, or :class:`LpError` for the first unknown one."""
        try:
            return [index[name] for name in names]
        except KeyError as unknown:
            raise LpError(f"unknown {kind} {unknown.args[0]!r}") from None

    @staticmethod
    def _check_rhs(names: Sequence[str], hours: Sequence[Sequence[float]]) -> None:
        """:class:`LpError` unless every hour has one finite value per name."""
        for values in hours:
            if len(values) != len(names):
                raise LpError(f"{len(names)} constraints but {len(values)} right-hand sides")
            if not all(map(math.isfinite, values)):
                name = next(name for name, value in zip(names, values) if not math.isfinite(value))
                raise LpError(f"constraint {name!r} has non-finite rhs")

    def _check_uppers(self, names: Sequence[str], at: list[int], hours: Iterable[Sequence[float]]) -> None:
        """:class:`LpError` (or ``TypeError``) for the first fault, hour by
        hour: a bound :meth:`set_bounds` refuses, or one finite in this hour
        and not in the first."""
        finite = None
        for hour in hours:
            checked = []
            for name, j, upper in zip(names, at, hour):
                fin = _bounds(name, self._lower[j], upper)[1] < INF
                if finite is not None and fin != finite[len(checked)]:
                    raise LpError(f"variable {name!r} has a finite upper bound in one hour and not in another")
                checked.append(fin)
            finite = finite or checked

    @property
    def objective(self) -> Mapping[str, float]:
        """The objective's coefficients, a read-only view of the checked copy."""
        return MappingProxyType(self._objective.coeffs)

    @property
    def objective_constant(self) -> float:
        return self._objective.constant

    def set_objective(self, coeffs: Mapping[str, float], constant: float = 0.0) -> None:
        """Set the objective to a checked copy of ``coeffs``. Each content is
        checked and copied once: an objective equal to one of the last few
        set, variable by variable in the same order and bit for bit
        (:meth:`_Objective.same`), takes that one's copy, which keys its
        column costs in the standard form. A dict changed in place is
        compared with the copy, so it is checked again."""
        for kept in self._objectives:
            if kept.same(coeffs, constant):
                self._objective = kept
                return
        for var, c in coeffs.items():
            if var not in self._var_index:
                raise LpError(f"objective references unknown variable {var!r}")
            if not math.isfinite(c):
                raise LpError(f"objective has non-finite coefficient on {var!r}")
        self._objective = _Objective(coeffs, constant)
        self._objectives = [*self._objectives[1 - _OBJECTIVES_KEPT :], self._objective]

    def _standard_form(self) -> _StandardForm:
        """The standard form of the current variables, rows and right-hand sides."""
        if self._form is None:
            self._form, self._rhs_stale = _StandardForm(self), True
        if self._rhs_stale:
            self._form.load(self)
            self._rhs_stale = False
        return self._form

    def extended(
        self,
        name: str,
        columns: Mapping[str, Mapping[str, float]] = MappingProxyType({}),
        rows: Sequence[tuple[Mapping[str, float], Relation, float, str]] = (),
    ) -> LinearProgram:
        """A new LP: this one's variables and rows, as they stand, then a
        variable in [0, inf) per ``columns`` entry, with its coefficients in
        rows of this LP, then ``rows`` ((coefficients, relation, rhs, name)
        each), and no objective. Its standard form is built at its first
        solve, as any LP's is."""
        out = LinearProgram(name)
        rhs, upper = self._held()
        out._names, out._lower, out._upper = list(self._names), list(self._lower), list(upper)
        out._var_index = dict(self._var_index)
        out._rows, out._rhs, out._row_index = list(self._rows), list(rhs), dict(self._row_index)
        for var, coeffs in columns.items():
            out.add_variable(var)
            for row, c in coeffs.items():
                i = self._row_index.get(row)
                if i is None:
                    raise LpError(f"unknown constraint {row!r}")
                if not math.isfinite(c):
                    raise LpError(f"constraint {row!r} has non-finite coefficient on {var!r}")
                _, old, relation = out._rows[i]
                out._rows[i] = (row, MappingProxyType({**old, var: c}), relation)
        for coeffs, relation, rhs, row in rows:
            out.add_constraint(coeffs, relation, rhs, row)
        return out

    def to_lp_format(self) -> str:
        """Render in the textual LP file format (for debugging / export)."""

        def term(c: float, v: str, first: bool) -> str:
            sign = "-" if c < 0 else ("" if first else "+")
            mag = abs(c)
            return f"{sign} {mag:.12g} {v} ".replace("  ", " ")

        variables = self.variables
        out = ["\\ " + self.name, "Minimize", " obj:"]
        line = " "
        first = True
        for v in variables:
            c = self.objective.get(v.name, 0.0)
            if c != 0.0:
                line += term(c, v.name, first)
                first = False
        out.append(line if not first else " 0 zero_obj")
        out.append("Subject To")
        for con in self.constraints:
            line = f" {con.name}:"
            first = True
            for v in variables:
                c = con.coeffs.get(v.name, 0.0)
                if c != 0.0:
                    line += " " + term(c, v.name, first).strip()
                    first = False
            if first:
                line += " 0 zero_obj"
            line += f" {con.relation.value} {con.rhs:.12g}"
            out.append(line)
        out.append("Bounds")
        for v in variables:
            lo = "-inf" if v.lower == -INF else f"{v.lower:.12g}"
            hi = "+inf" if v.upper == INF else f"{v.upper:.12g}"
            out.append(f" {lo} <= {v.name} <= {hi}")
        out.append("End")
        return "\n".join(out) + "\n"


def _bounds(name: str, lower: float, upper: float) -> tuple[float, float]:
    """A variable's checked bounds, as floats."""
    if math.isnan(lower) or math.isnan(upper):
        raise LpError(f"variable {name!r} has NaN bound")
    if lower > upper:
        raise LpError(f"variable {name!r} has lower > upper ({lower} > {upper})")
    return float(lower), float(upper)


def _real_block(hours, width: int) -> np.ndarray | None:
    """``hours`` as a k x ``width`` float array if it is a k x ``width``
    array of real numbers (itself if its numbers are floats), else None:
    nested sequences are checked value by value, as
    :meth:`LinearProgram.set_rhs_many` and :meth:`LinearProgram.set_bounds`
    check them."""
    if isinstance(hours, np.ndarray) and hours.dtype.kind in "fiub" and hours.shape == (len(hours), width):
        return hours.astype(float, copy=False)
    return None


def _bits(values) -> bytes:
    """The floats' IEEE-754 bit patterns: equal only for identical floats,
    so 0.0 and -0.0 differ."""
    return array("d", values).tobytes()


class _Objective:
    """A checked objective: a copy of its coefficients and its constant. A
    standard form keeps its column costs under it, and the LP gives an equal
    objective the same instance (:meth:`same`)."""

    __slots__ = ("coeffs", "names", "constant", "zeros")

    def __init__(self, coeffs: Mapping[str, float], constant: float):
        self.coeffs = dict(coeffs)
        self.names = list(self.coeffs)
        self.constant = float(constant)
        self.zeros = not all(self.coeffs.values())  # a 0.0 or -0.0, which == does not tell apart

    def same(self, coeffs: Mapping[str, float], constant: float) -> bool:
        """Whether ``coeffs`` and ``constant`` are this objective's: the same
        variables in the same order, with values and constant equal to the
        bit. ``==`` tells every two floats apart but NaN (never kept) and
        zeros of opposite signs, which the signs or bits settle."""
        return (
            constant == self.constant
            and coeffs == self.coeffs
            and list(coeffs) == self.names
            and (constant or math.copysign(1.0, constant) == math.copysign(1.0, self.constant))
            and (not self.zeros or _bits(coeffs.values()) == _bits(self.coeffs.values()))
        )


_NO_OBJECTIVE = _Objective({}, 0.0)
# the objectives an LP keeps checked (the pipeline sets at most two per LP)
_OBJECTIVES_KEPT = 4


@dataclass
class LpSolution:
    """A solve's outcome. ``iterations`` counts both phases' simplex
    iterations, so a solve that starts phase two from a kept phase-one
    tableau still counts that tableau's phase-one iterations;
    ``phase_one_iterations`` is phase one's share. Each loop of the simplex
    counts, including the last, which finds no entering column. ``bland`` is
    set when the switch to Bland's rule fired."""

    status: SolveStatus
    objective: float
    values: dict[str, float] = field(default_factory=dict)
    duals: dict[str, float] | None = None
    iterations: int = 0
    phase_one_iterations: int = 0
    bland: bool = False

    def value(self, name: str) -> float:
        return self.values[name]


# ---------------------------------------------------------------------------
# standard-form conversion
#
# Every variable becomes nonnegative columns of one of two kinds: "shift"
# (x = lb + col) when the lower bound is finite, "split" (x = pos - neg) when
# it is not. Every finite upper bound becomes an extra range row. Rows are
# sign-normalized to rhs >= 0 so phase one can always seed a basis from
# slacks and artificials. The objective is not part of the form:
# :meth:`_StandardForm.costs` maps it onto the columns.
# ---------------------------------------------------------------------------

_REVERSED = {Relation.LE: Relation.GE, Relation.GE: Relation.LE, Relation.EQ: Relation.EQ}


class _Pattern:
    """One row-flip pattern: the row signs, where the artificial columns
    start, each row's unit column (its slack or artificial) and the root of
    the pattern's tree, phase one's initial tableau."""

    __slots__ = ("row_sign", "art_start", "unit_cols", "root")

    def __init__(self, A: np.ndarray, rel: list[Relation], row_sign: np.ndarray):
        m, n = A.shape
        le, ge = Relation.LE, Relation.GE  # an enum member's lookup is slow
        n_slack = m - rel.count(Relation.EQ)
        n_art = m - rel.count(le)
        total = n + n_slack + n_art
        # the last column is b's place, unused: each solve carries its own b,
        # and the products over T[:, :-1] see a tableau's layout
        T = np.zeros((m, total + 1))
        T[:, :n] = A
        basis = np.empty(m, dtype=int)
        s = n
        a = n + n_slack
        self.art_start = a
        for i, r in enumerate(rel):
            if r == le:
                T[i, s] = 1.0
                basis[i] = s
                s += 1
            elif r == ge:
                T[i, s] = -1.0
                T[i, a] = 1.0
                basis[i] = a
                s += 1
                a += 1
            else:
                T[i, a] = 1.0
                basis[i] = a
                a += 1
        # row i's final reduced cost on its unit column is -y_i, as phase two
        # prices these columns at zero
        self.unit_cols = basis.copy()
        self.row_sign = row_sign
        zrow = None
        if total > self.art_start:  # phase one minimizes the artificials' sum
            cost1 = np.zeros(total)
            cost1[self.art_start :] = 1.0
            zrow = cost1 - cost1[basis] @ T[:, :-1]
        self.root = _Node(T, basis, zrow, total, (), ())


class _Entering:
    """A node's entering column under one rule: the column, its positive
    rows (an array and a list), their values and basis columns; and, built
    at the first array ratio test, those rows as a list and an array and
    their values, ordered by basis column (:meth:`by_basis`)."""

    __slots__ = ("col", "at", "rows", "values", "basis", "ordered")

    def __init__(self, col: int, colvals: np.ndarray, basis: np.ndarray):
        self.col = col
        self.at = (colvals > PIVOT_TOL).nonzero()[0]
        self.rows, self.values, self.basis = self.at.tolist(), colvals[self.at].tolist(), basis[self.at].tolist()
        self.ordered: tuple[list[int], np.ndarray, np.ndarray] | None = None

    def by_basis(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """The positive rows ordered by basis column (distinct in a basis), as
        a list and an array, and their values: among ratio ties the leave rule
        takes the first in this order."""
        if self.ordered is None:
            order = sorted(range(len(self.rows)), key=self.basis.__getitem__)
            rows = [self.rows[i] for i in order]
            self.ordered = rows, np.array(rows, dtype=np.intp), np.array([self.values[i] for i in order])
        return self.ordered


class _StandardForm:
    """The unnormalized matrix is built once; :meth:`load` writes each
    hour's right-hand side and picks its row-flip pattern. The row shifts,
    costs, patterns and tree nodes are kept as the module docstring
    describes."""

    def __init__(self, lp: LinearProgram):
        names, lower, upper, rows = lp._names, lp._lower, lp._held()[1], lp._rows
        self.row_names = [name for name, _, _ in rows]
        # per variable by name: its index and column, and the column of its
        # negative part if its lower bound is infinite (x = col - neg), else
        # None (x = lower + col)
        self._columns: dict[str, tuple[int, int, int | None]] = {}
        self._ranged: list[int] = []  # variables with a finite upper bound
        ncols = 0
        for j, name in enumerate(names):
            neg = ncols + 1 if lower[j] == -INF else None
            self._columns[name] = (j, ncols, neg)
            ncols += 1 if neg is None else 2
            if upper[j] < INF:
                self._ranged.append(j)

        n_user = len(rows)
        nrows = n_user + len(self._ranged)
        # row by row, in Python floats, converted once
        A = [0.0] * (nrows * ncols)
        # per row: its (coefficient, variable) pairs on shifted columns
        self._row_terms = [self._place(coeffs, A, i * ncols) for i, (_, coeffs, _) in enumerate(rows)]
        columns = list(self._columns.values())
        for i, j in enumerate(self._ranged, n_user):
            _, col, neg = columns[j]
            A[i * ncols + col] = 1.0
            if neg is not None:
                A[i * ncols + neg] = -1.0
        A = np.array(A, dtype=float).reshape(nrows, ncols)
        A.flags.writeable = False
        self._A = A
        self._rel = [rel for _, _, rel in rows] + [Relation.LE] * len(self._ranged)
        self.ncols = ncols
        self.nrows = nrows
        self._block: tuple[np.ndarray, ...] | None = None  # :meth:`_block_arrays`
        self._loads = 0  # right-hand sides loaded
        self._kept = 0  # nodes, patterns and costs kept
        self._lower_bits: bytes | None = None
        self._costs: dict[_Objective, tuple[np.ndarray, float]] = {}
        self._patterns: dict[bytes, _Pattern] = {}  # by the flipped rows, a byte per row
        self._last: tuple[_Node | None, np.ndarray | None] = (None, None)  # the last tableau built

    def load(self, lp: LinearProgram) -> None:
        """Write the LP's hours (one, unless :meth:`LinearProgram.set_hours`
        wrote several) and lower bounds as one k x m block ``b`` of
        sign-normalized right-hand sides, with each hour's infeasibility
        threshold and, per row-flip pattern in the order the hours first take
        them, its hours (``starts``). Per entry: ``rhs - shift`` or ``upper -
        lower``, then the flip ``* -1.0``; in Python floats for one hour, as
        array operations for more. Both give the same bits; on one hour the
        arrays' set-up costs more than the loop (every fresh LP is one)."""
        lower, hours = lp._lower, lp._hours
        k = 1 if hours is None else len(hours)
        self._loads += k
        bits = _bits(lower)
        if bits != self._lower_bits:  # the shifts and costs depend on the lower bounds
            self._lower, self._lower_bits = list(lower), bits  # a copy: the LP's list changes with its bounds
            # per row of b what an hour's entry is less: a row's shift, or a
            # range row's lower bound (0.0 where it is -inf: upper - 0.0 is upper)
            self._shifts = [self._shift(terms, 0.0) for terms in self._row_terms]
            self._shifts += [0.0 if lower[j] == -INF else lower[j] for j in self._ranged]
            self._block = None
            self._kept -= len(self._costs)
            self._costs.clear()
        if k == 1:  # the held hour's right-hand sides and range rows' upper bounds
            rhs, upper = lp._held()
            b = list(map(sub, rhs + [upper[j] for j in self._ranged], self._shifts))
            flipped = bytearray(self.nrows)
            for i, x in enumerate(b):
                if x < 0:  # normalize rhs >= 0
                    b[i], flipped[i] = x * -1.0, 1
            # phase one's objective above this is infeasible: b is
            # sign-normalized, so its largest entry is max|b|
            self.infeasible_above = [FEASIBILITY_TOL * max(1.0, max(b, default=1.0))]
            b, by_key = np.array([b], dtype=float), {bytes(flipped): [0]}
        else:
            b_at, shifts = self._block_arrays()[:2]
            b = np.subtract(hours.take(b_at, axis=1), shifts)
            flipped = b < 0.0
            np.multiply(b, -1.0, out=b, where=flipped)
            self.infeasible_above = (FEASIBILITY_TOL * np.maximum.reduce(b, axis=1, initial=1.0)).tolist()
            # the patterns in the order the hours first take them
            keys, width, by_key = flipped.tobytes(), self.nrows, {}
            for hour in range(k):
                by_key.setdefault(keys[hour * width : hour * width + width], []).append(hour)
        b.flags.writeable = False  # shared by every walk until the next load
        # this load's patterns, kept by the form or not, with their hours
        self.starts = [(self._patterns.get(key) or self._pattern(key), hours) for key, hours in by_key.items()]
        self.b = b
        self._phase_one: list[tuple[str, _Group, int]] | None = None
        self._feasible: list[_Group] | None = None  # where phase one ends feasible
        self._phase_two: dict[bytes, list[tuple[str, _Group, int]]] = {}

    def _block_arrays(self) -> tuple[np.ndarray, ...]:
        """What a block of two or more hours takes as arrays, built at its
        first use after a change of the lower bounds: per row of b, the
        hour's entry it is taken from (a row's right-hand side, or a range
        row's upper bound) and the shift subtracted; and the read-out's
        ``plus`` and ``minus`` columns and ``-lower`` per shifted variable:
        a variable's value is ``x[plus] - x[minus]`` on a basic solution x
        followed by those, at negative indices (``lower + x[col]`` is
        ``x[col] - (-lower)``, bit for bit)."""
        if self._block is None:
            columns, n_user, lower = self._columns.values(), len(self._row_terms), self._lower
            shifted = iter(range(-sum(neg is None for _, _, neg in columns), 0))
            index = np.array(
                [
                    *range(n_user), *(n_user + j for j in self._ranged), *(col for _, col, _ in columns),
                    *(next(shifted) if neg is None else neg for _, _, neg in columns),
                ],
                dtype=np.intp,
            )
            floats = np.array(self._shifts + [-lower[j] for j, _, neg in columns if neg is None], dtype=float)
            m, n = self.nrows, len(columns)
            self._block = index[:m], floats[:m], index[m : m + n], index[m + n :], floats[m:]
        return self._block

    def unload(self) -> None:
        """Drop the loaded hours and the walks' ends over them."""
        self.infeasible_above = self.b = self.starts = None
        self._phase_one = self._feasible = self._phase_two = None

    def _pattern(self, key: bytes) -> _Pattern:
        """The pattern with the rows negated whose byte in ``key`` is not 0."""
        flip = [i for i, flipped in enumerate(key) if flipped]
        A, rel, row_sign = self._A, self._rel, [1.0] * len(self.row_names)
        if flip:
            A, rel = A.copy(), list(rel)
            A[flip] *= -1.0
            for i in flip:
                rel[i] = _REVERSED[rel[i]]
                if i < len(row_sign):
                    row_sign[i] = -1.0
        row_sign = np.array(row_sign)
        row_sign.flags.writeable = False
        pattern = _Pattern(A, rel, row_sign)
        if self._keep():
            self._patterns[key] = pattern
        return pattern

    def _keep(self) -> bool:
        """Whether the form keeps one more node, pattern or cost vector (from
        its second right-hand side loaded on, up to NODES_PER_FORM), counting
        it if so."""
        if self._loads > 1 and self._kept < NODES_PER_FORM:
            self._kept += 1
            return True
        return False

    def _adopt(self, parent: _Node, key, child: _Node) -> _Node:
        """Keep ``child`` under ``parent`` if the form keeps one more node; a
        kept node gives its matrix up as the last tableau built."""
        if self._keep():
            parent.children[key] = child
            child.parent = parent
            self._last, child.T = (child, child.T), None
        return child

    def tableau(self, node: _Node) -> np.ndarray:
        """The node's tableau matrix: its own, the last one built, or rebuilt
        by replaying the pivots down from the nearest ancestor that has one
        (:func:`_pivoted` is pure, so the bits are the ones first built)."""
        path, start = [], node
        while start.T is None and start is not self._last[0]:
            path.append(start)
            start = start.parent
        T = start.T if start.T is not None else self._last[1]
        for n in reversed(path):
            for row, col in n.pivots:
                T = _pivoted(T, row, col)[0]
        if path:
            self._last = (node, T)
        return T

    def child(self, node: _Node, col: int, row: int) -> _Node:
        """The node a pivot on (row, col) leads to, built on first visit."""
        child = node.children.get((col, row))
        if child is None:
            T, zrow = self.tableau(node), node.zrow
            # reduced costs: maintained incrementally across pivots
            zrow = zrow - (zrow[col] / T[row, col]) * T[row, :-1]
            zrow[col] = 0.0
            T, step = _pivoted(T, row, col)
            basis = node.basis.copy()
            basis[row] = col
            child = _Node(T, basis, zrow, node.n_allowed, (step,), ((row, col),))
            child = self._adopt(node, (col, row), child)
        return child

    def drive_out(self, node: _Node, pattern: _Pattern) -> _Node:
        """Where phase two starts from phase one's final tableau ``node``: past
        the pivots that drive basic artificials out of the basis. Any
        artificial still basic sits on a redundant zero row and simply stays
        there; it can never re-enter once blocked in phase two."""
        after = node.children.get(None)
        if after is None:
            art = pattern.art_start
            T, basis, steps, pivots = self.tableau(node), node.basis.copy(), [], []
            # a pivot changes only its own row's basis entry, so the
            # artificials basic now are the rows to visit
            for i in (basis >= art).nonzero()[0].tolist():
                nz = (np.abs(T[i, :art]) > PIVOT_TOL).nonzero()[0]
                if nz.size:
                    col = int(nz[0])
                    T, step = _pivoted(T, i, col)
                    basis[i] = col
                    steps.append(step)
                    pivots.append((i, col))
            after = self._adopt(node, None, _Node(T, basis, None, 0, tuple(steps), tuple(pivots)))
        return after

    def phase_two_root(self, after: _Node, c: np.ndarray, pattern: _Pattern) -> _Node:
        """Phase two's first node for column costs ``c`` below ``after``."""
        key = c.tobytes()
        root = after.children.get(key)
        if root is None:
            T = self.tableau(after)
            cost2 = np.zeros(after.width)
            cost2[: self.ncols] = c
            zrow = cost2 - cost2[after.basis] @ T[:, :-1]
            root = self._adopt(after, key, _Node(T, after.basis, zrow, pattern.art_start, (), ()))
        return root

    def entering(self, node: _Node, bland: bool) -> _Entering:
        """The node's entering column under Dantzig's rule (the most negative
        reduced cost, the first among ties) or Bland's (the lowest index with
        a negative one)."""
        hit = node.entering.get(bland)
        if hit is None:
            col = node.col
            if bland:
                col = int((node.zrow[: node.n_allowed] < -PIVOT_TOL).nonzero()[0][0])
            hit = node.entering[bland] = _Entering(col, self.tableau(node)[:, col], node.basis)
        return hit

    def _place(self, coeffs: Mapping[str, float], out: list[float], at: int) -> list[tuple[float, int]]:
        """Add ``coeffs`` onto the columns in the flat list ``out``, from
        index ``at`` on (Python floats: the same additions as float64
        entries); return the (coefficient, variable) pairs on shifted
        columns, in coefficient order."""
        shifted, columns = [], self._columns
        for var, coef in coeffs.items():
            j, col, neg = columns[var]
            out[at + col] += coef
            if neg is None:
                shifted.append((coef, j))
            else:
                out[at + neg] -= coef
        return shifted

    def _shift(self, terms: list[tuple[float, int]], shift: float) -> float:
        """``shift`` plus the constant the terms' lower bounds add."""
        for coef, j in terms:
            shift += coef * self._lower[j]
        return shift

    def costs(
        self, objective: Mapping[str, float], constant: float, key: _Objective | None = None
    ) -> tuple[np.ndarray, float]:
        """Column costs of an objective, and the constant the column shifts
        add; a reloaded form keeps them under the LP's checked objective
        ``key``, if one is given."""
        hit = self._costs.get(key)
        if hit is None:
            c = [0.0] * self.ncols
            shift = self._shift(self._place(objective, c, 0), constant)
            hit = np.array(c, dtype=float), shift
            hit[0].flags.writeable = False
            if key is not None and self._keep():
                self._costs[key] = hit
        return hit

    def end(self, hour: int, c: np.ndarray) -> tuple[str, _Group, int]:
        """Where the loaded ``hour``'s walk under column costs ``c`` ends: its
        status, its group and its row in the group's b. Phase one walks every
        hour at the first solve after a load, and phase two every feasible
        hour at the first solve with these costs."""
        if self._phase_one is None:
            self._phase_one, self._feasible = _phase_one(self)
        end = self._phase_one[hour]
        if end[0] != "feasible":
            return end
        key = c.tobytes()
        ends = self._phase_two.get(key)
        if ends is None:
            ends = self._phase_two[key] = _phase_two(self, c)
        return ends[hour]

    def read_out(self, g: _Group) -> tuple[Sequence[np.ndarray], list[list[float]]]:
        """An optimal end group's basic solutions on the columns and its
        variable values, an entry per hour, built at its first solve: per
        value ``lower + x[col]``, or ``x[col] - x[neg]`` where the lower bound
        is -inf; in Python floats for one hour, as array operations for more
        (:meth:`_block_arrays`), with the same bits, as :meth:`load` does."""
        if g.read is None:
            node = g.node
            if g.one is not None:
                x = np.zeros(node.width)
                x[node.basis] = g.one
                x = x[: self.ncols]
                xs, lower = x.tolist(), self._lower
                values = [lower[j] + xs[col] if neg is None else xs[col] - xs[neg] for j, col, neg in self._columns.values()]
                g.read = [x], [values]
            else:
                _, _, plus, minus, less_lower = self._block_arrays()
                x = np.zeros((len(g.hours), node.width + len(less_lower)))
                x[:, node.basis] = g.b
                x[:, node.width :] = less_lower
                g.read = x[:, : self.ncols], np.subtract(x.take(plus, axis=1), x.take(minus, axis=1)).tolist()
        return g.read


# ---------------------------------------------------------------------------
# the pivot-path tree and the walk down it
# ---------------------------------------------------------------------------


def _pivoted(T: np.ndarray, row: int, col: int) -> tuple[np.ndarray, tuple]:
    """The tableau after a pivot on (row, col), and the pivot's row operation
    on b: (row, pivot, factors)."""
    T = T.copy()
    prow = T[row]
    pivot = prow[col]
    prow /= pivot
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * prow  # the products np.outer forms
    # keep the pivot column numerically clean
    T[:, col] = 0.0
    T[row, col] = 1.0
    return T, (row, pivot, factors)


class _Node:
    """A tableau on a pivot path, with the reduced costs of the phase it is
    in (none where phase one hands over to phase two). ``pivots`` are the
    (row, column) pivots from the parent node to here and ``steps`` their
    row operations on b. The matrix ``T`` is held by a pattern's root and by
    a node the form does not keep; a kept node holds none but its parent,
    and :meth:`_StandardForm.tableau` rebuilds it. Its arrays never change
    once built."""

    __slots__ = (
        "T", "parent", "pivots", "basis", "zrow", "width", "n_allowed", "steps", "children", "col", "entering",
        "art_costs",
    )

    def __init__(
        self,
        T: np.ndarray,
        basis: np.ndarray,
        zrow: np.ndarray | None,
        n_allowed: int,
        steps: tuple,
        pivots: tuple[tuple[int, int], ...],
    ):
        self.T, self.basis, self.zrow, self.n_allowed, self.steps = T, basis, zrow, n_allowed, steps
        self.pivots = pivots
        self.parent: _Node | None = None  # set once kept: a kept node's matrix is rebuilt from it
        self.width = T.shape[1] - 1  # columns, without b's place
        self.children: dict = {}
        # per rule (Bland's or not): :meth:`_StandardForm.entering`
        self.entering: dict[bool, _Entering] = {}
        self.col: int | None = None  # Dantzig's entering column; None at an optimum
        # where phase one ends here: its costs per basic column, built on first use
        self.art_costs: np.ndarray | None = None
        if zrow is not None and n_allowed:  # only the first n_allowed columns may enter
            z = zrow[:n_allowed]
            col = int(z.argmin())
            if z[col] < -PIVOT_TOL:
                self.col = col


class _Group:
    """Hours of a load at one node of a tree, with their b's as the rows of
    one array (row i is ``hours[i]``'s) and their own degenerate streaks and
    Bland flags. The pivots that reached the node are counted once for all of
    them. A group that ends is not changed again; its hours' ends refer to
    it, and an optimal end keeps its read-out (:meth:`_StandardForm.read_out`)."""

    __slots__ = (
        "node", "pattern", "hours", "b", "one", "streaks", "bland", "iterations", "phase_one_iterations", "read",
    )

    def __init__(self, node: _Node, pattern: _Pattern, hours: list[int], b: np.ndarray, bland: list[bool],
                 iterations: int = 0, phase_one_iterations: int = 0, streaks: list[int] | None = None):
        self.node, self.pattern, self.hours, self.b, self.bland = node, pattern, hours, b, bland
        self.one = b[0] if len(hours) == 1 else None  # a one-hour group's b, 1-D
        self.streaks = streaks or [0] * len(hours)  # degenerate pivots in a row, per hour
        self.iterations, self.phase_one_iterations = iterations, phase_one_iterations
        self.read: tuple[Sequence[np.ndarray], list[list[float]]] | None = None

    def part(self, rows: list[int]) -> _Group:
        """A group of the given rows' hours, with a copy of their b's."""
        return _Group(
            self.node, self.pattern, [self.hours[i] for i in rows], self.b[rows], [self.bland[i] for i in rows],
            self.iterations, self.phase_one_iterations, [self.streaks[i] for i in rows],
        )

    def move(self, node: _Node) -> None:
        """Go to ``node``, applying its pivots' row operations to every
        hour's b: per hour the elementwise operations a 1-D b takes, on the
        row itself for a one-hour group (NumPy's scalar indexing is faster)."""
        b, one = self.b, self.one
        for row, pivot, factors in node.steps:
            if one is not None:
                one[row] = one[row] / pivot
                one -= factors * one[row]
            else:
                at = b[:, row]  # a view
                at /= pivot
                b -= at[:, None] * factors
        self.node = node


def _leaving(b: np.ndarray, rows: np.ndarray, values: np.ndarray) -> tuple[list[int], list[float]]:
    """The ratio test of every row of ``b`` as one array step, for an entering
    column with positive ``rows`` (ordered by basis column) and ``values``:
    per row of ``b``, the index in ``rows`` of the leaving row (the first
    within 1e-12 of the smallest ratio) and the smallest ratio. The same
    IEEE divisions, minimum, addition and comparisons as the Python-float
    test of one hour."""
    ratios = b.take(rows, axis=1)
    ratios /= values
    best = np.minimum.reduce(ratios, axis=1)
    leave = (ratios <= (best + 1e-12)[:, None]).argmax(axis=1)
    return leave.tolist(), best.tolist()


def _run(sf: _StandardForm, group: _Group) -> list[tuple[str, _Group]]:
    """Pivot the group's hours down the tree until no column may enter; the
    groups they end in, each with 'optimal', 'unbounded' or 'stalled'. This
    is the solver's one pivot loop.

    Per hour: Dantzig's entering column, or Bland's once DEGENERATE_STREAK
    degenerate pivots ran in a row; leaving row: the smallest basis column
    among ratio ties. Beale's LP cycles under Dantzig's rule with this
    tie-break; Bland's rule cannot. A one-hour group runs its ratio test in
    Python floats; a larger one runs it as one array step per rule its hours
    follow (:func:`_leaving`). Hours that take the same pivot move on as one
    group, whose b takes the pivot's row operations once; where they take
    different pivots the group parts, in the order the hours first take them.
    """
    ended, todo = [], [group]
    cap, streak_cap, entering, child = MAX_ITERATIONS, DEGENERATE_STREAK, sf.entering, sf.child
    while todo:
        g = todo.pop()
        streaks, bland, one = g.streaks, g.bland, g.one
        while True:
            if g.iterations >= cap:
                ended.append(("stalled", g))
                break
            g.iterations += 1
            node = g.node
            if node.col is None:
                ended.append(("optimal", g))
                break
            if one is not None:  # the ratio test in Python floats, on the positive rows
                rule = streaks[0] >= streak_cap
                if rule:
                    bland[0] = True
                hit = node.entering.get(rule) or entering(node, rule)
                if not hit.rows:
                    ended.append(("unbounded", g))
                    break
                ratios = list(map(truediv, one[hit.at].tolist(), hit.values))
                best = min(ratios)
                cut = best + 1e-12
                # deterministic leave rule: smallest basis column among ratio ties
                row = min([(k, r) for k, r, ratio in zip(hit.basis, hit.rows, ratios) if ratio <= cut])[1]
                streaks[0] = streaks[0] + 1 if best <= 1e-12 else 0
                g.move(child(node, hit.col, row))
                continue
            # per hour its pivot, or None if unbounded: one array step per rule
            by_rule: dict[bool, list[int]] = {}
            for i, streak in enumerate(streaks):
                rule = streak >= streak_cap
                bland[i] = bland[i] or rule
                by_rule.setdefault(rule, []).append(i)
            pivots: list = [None] * len(streaks)
            for rule, hours in by_rule.items():
                hit = node.entering.get(rule) or entering(node, rule)
                if not hit.rows:
                    continue
                rows, at, values = hit.by_basis()
                b = g.b if len(hours) == len(streaks) else g.b[hours]
                leave, best = _leaving(b, at, values)
                for i, k, ratio in zip(hours, leave, best):
                    pivots[i] = hit.col, rows[k]
                    streaks[i] = streaks[i] + 1 if ratio <= 1e-12 else 0
            first = pivots[0]
            if pivots.count(first) < len(pivots):  # the hours part: a group per pivot
                parts: dict = {}
                for i, pivot in enumerate(pivots):
                    parts.setdefault(pivot, []).append(i)
                for pivot, rows in parts.items():
                    part = g.part(rows)
                    if pivot is None:
                        ended.append(("unbounded", part))
                    else:
                        part.move(child(node, *pivot))
                        todo.append(part)
                break
            if first is None:
                ended.append(("unbounded", g))
                break
            g.move(child(node, *first))
    return ended


def _phase_one(sf: _StandardForm) -> tuple[list[tuple[str, _Group, int]], list[_Group]]:
    """Per loaded hour: phase one's status ('feasible', 'infeasible' or
    'stalled'), its group and row; and the groups it ends feasible in. Phase
    one drives the artificials to zero and, where possible, out of the basis;
    the hours of a row-flip pattern start together from its root."""
    ends: list = [None] * len(sf.b)
    feasible_groups = []
    for pattern, hours in sf.starts:
        b = sf.b.copy() if len(hours) == len(ends) else sf.b[hours]
        g = _Group(pattern.root, pattern, hours, b, [False] * len(hours))
        if g.node.zrow is None:  # no artificial: nothing to drive to zero
            groups = [("optimal", g)]
        else:
            groups = _run(sf, g)
        for status, g in groups:
            g.phase_one_iterations = g.iterations
            if status == "stalled":
                for i, hour in enumerate(g.hours):
                    ends[hour] = ("stalled", g, i)
                continue
            node = g.node
            if node.zrow is not None:
                if node.art_costs is None:
                    node.art_costs = (node.basis >= pattern.art_start).astype(float)
                feasible = []
                for i, (hour, b) in enumerate(zip(g.hours, g.b)):
                    if float(node.art_costs @ b) > sf.infeasible_above[hour]:
                        ends[hour] = ("infeasible", g, i)
                    else:
                        feasible.append(i)
                if not feasible:
                    continue
                if len(feasible) < len(g.hours):
                    g = g.part(feasible)
            g.move(sf.drive_out(node, pattern))
            feasible_groups.append(g)
            for i, hour in enumerate(g.hours):
                ends[hour] = ("feasible", g, i)
    return ends, feasible_groups


def _phase_two(sf: _StandardForm, c: np.ndarray) -> list[tuple[str, _Group, int]]:
    """Per loaded hour: where phase two under column costs ``c`` ends, from
    a copy of phase one's end; an hour phase one did not find feasible keeps
    phase one's end."""
    ends = list(sf._phase_one)
    for g in sf._feasible:
        walk = _Group(g.node, g.pattern, g.hours, g.b.copy(), list(g.bland), g.iterations, g.phase_one_iterations)
        walk.move(sf.phase_two_root(g.node, c, g.pattern))
        for status, done in _run(sf, walk):
            for i, hour in enumerate(done.hours):
                ends[hour] = (status, done, i)
    return ends


def solve(lp: LinearProgram, compute_duals: bool = True) -> LpSolution:
    """Solve a minimization LP exactly, at the hour it holds; deterministic
    for identical input.

    Degenerate cycling is broken by the switch to Bland's rule. An LP that
    still reaches ``MAX_ITERATIONS`` pivots (the Klee-Minty cube, say) is
    ``numerically_unstable``, deliberately distinct from ``infeasible``.
    Duals (one per row, d objective / d rhs) are read off the final tableau's
    reduced costs on the rows' slack or artificial columns.
    """
    sf = lp._standard_form()
    kept = lp._objective
    c, obj_shift = sf.costs(kept.coeffs, kept.constant, kept)
    status, g, i = sf.end(lp._hour, c)
    counters = g.iterations, g.phase_one_iterations, g.bland[i]

    if status == "stalled":
        return LpSolution(SolveStatus.NUMERICALLY_UNSTABLE, math.nan, {}, None, *counters)
    if status == "infeasible":
        return LpSolution(SolveStatus.INFEASIBLE, math.nan, {}, None, *counters)
    if status == "unbounded":
        return LpSolution(SolveStatus.UNBOUNDED, -math.inf, {}, None, *counters)

    x, values = sf.read_out(g)  # the group's basic solutions and values
    duals = None
    if compute_duals:
        y = -g.node.zrow[g.pattern.unit_cols][: len(sf.row_names)] * g.pattern.row_sign
        duals = dict(zip(sf.row_names, y.tolist()))
    objective = obj_shift + float(np.dot(c, x[i]))
    return LpSolution(SolveStatus.OPTIMAL, objective, dict(zip(sf._columns, values[i])), duals, *counters)


def check_solution(lp: LinearProgram, values: dict[str, float]) -> list[Violation]:
    """Every bound/constraint violated beyond :data:`FEASIBILITY_TOL` (scaled);
    empty list = feasible."""
    tol = FEASIBILITY_TOL
    report: list[Violation] = []
    for v in lp.variables:
        if v.name not in values:
            raise LpError(f"solution is missing a value for {v.name!r}")
        x = values[v.name]
        scale = max(1.0, abs(v.lower) if v.lower != -INF else 1.0, abs(v.upper) if v.upper != INF else 1.0)
        if v.lower != -INF and x < v.lower - tol * scale:
            report.append(Violation("bound", v.name, v.lower - x))
        if v.upper != INF and x > v.upper + tol * scale:
            report.append(Violation("bound", v.name, x - v.upper))
    for con in lp.constraints:
        lhs = sum(c * values[var] for var, c in con.coeffs.items())
        scale = max(1.0, abs(con.rhs))
        gap = lhs - con.rhs
        if con.relation == Relation.LE and gap > tol * scale:
            report.append(Violation("constraint", con.name, gap))
        elif con.relation == Relation.GE and gap < -tol * scale:
            report.append(Violation("constraint", con.name, -gap))
        elif con.relation == Relation.EQ and abs(gap) > tol * scale:
            report.append(Violation("constraint", con.name, abs(gap)))
    return report
