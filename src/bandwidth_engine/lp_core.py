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
coefficient order, and converted to arrays once.

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
feasibility test and the final values, so each solve carries only its own b
and streak down the tree. At each node it runs the ratio test on
``b[pos] / colpos`` and applies the pivot's row operation to b,
``b[row] = b[row] / pivot`` then ``b -= factors * b[row]`` (``factors`` is
the pivot column with a zero in the pivot row): the elementwise operations
the pivot applies to the tableau's b column. A child not yet in the tree is
built by the full pivot. So a solve takes the same pivots as a fresh one,
through the same floating-point operations, and gives the same bits.

The tree's roots are phase one's initial tableaus, one per row-flip pattern
(the rows whose shifted right-hand side is negative, and so are
sign-normalized). Where phase one ends, a node keeps the pivots that drive
basic artificials out of the basis, which depend only on its tableau; below
them phase two has one root per cost vector. Phase one does not depend on
the objective, so it runs once per right-hand side, and every objective
starts phase two where it ended. Its feasibility test weighs b with the
artificial costs kept on the node where it ends, against a tolerance scaled
by the largest sign-normalized right-hand side, taken at the form's load.

A form keeps at most ``NODES_PER_FORM`` nodes, row-flip patterns and cost
vectors together (a reused Klee-Minty cube would otherwise keep one node per
pivot). Past that, and on a form solved for one right-hand side only, the
walk builds each node it visits and keeps none. A form lives as long as its
:class:`LinearProgram` keeps the same matrix; the pipeline gives each LP the
objectives of one weighting, so its form keeps the costs and phase-two
subtrees of those alone.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
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
        self.objective: dict[str, float] = {}
        self.objective_constant = 0.0
        self._var_index: dict[str, int] = {}
        self._row_index: dict[str, int] = {}
        self._form: _StandardForm | None = None  # dropped when the matrix changes
        self._rhs_stale = False  # the form's right-hand side must be recomputed

    @property
    def variables(self) -> tuple[Variable, ...]:
        """Every variable, with its current bounds."""
        return tuple(map(Variable, self._names, self._lower, self._upper))

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """Every row, with its current right-hand side."""
        if self._constraints is None:
            self._constraints = tuple(
                Constraint(name, coeffs, rel, rhs) for (name, coeffs, rel), rhs in zip(self._rows, self._rhs)
            )
        return self._constraints

    def add_variable(self, name: str, lower: float = 0.0, upper: float = INF) -> str:
        if name in self._var_index:
            raise LpError(f"duplicate variable {name!r}")
        lower, upper = _bounds(name, lower, upper)
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
        if (self._lower[i] == -INF, self._upper[i] < INF) == (lower == -INF, upper < INF):
            self._rhs_stale = True
        else:
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
        :meth:`set_rhs` checks it."""
        self._constraints = None
        self._rhs_stale = True
        index, rhs = self._row_index, self._rhs
        for name, value in zip(names, values, strict=True):
            i = index.get(name)
            if i is None:
                raise LpError(f"unknown constraint {name!r}")
            if not math.isfinite(value):
                raise LpError(f"constraint {name!r} has non-finite rhs")
            rhs[i] = float(value)

    def set_objective(self, coeffs: dict[str, float], constant: float = 0.0) -> None:
        """Set the objective to a checked copy of ``coeffs``."""
        for var, c in coeffs.items():
            if var not in self._var_index:
                raise LpError(f"objective references unknown variable {var!r}")
            if not math.isfinite(c):
                raise LpError(f"objective has non-finite coefficient on {var!r}")
        self.objective = dict(coeffs)
        self.objective_constant = float(constant)

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
        out._names, out._lower, out._upper = list(self._names), list(self._lower), list(self._upper)
        out._var_index = dict(self._var_index)
        out._rows, out._rhs, out._row_index = list(self._rows), list(self._rhs), dict(self._row_index)
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


def _bits(values) -> bytes:
    """The floats' IEEE-754 bit patterns: equal only for identical floats,
    so 0.0 and -0.0 differ."""
    return array("d", values).tobytes()


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


class _StandardForm:
    """The unnormalized matrix is built once; :meth:`load` writes the
    right-hand side and picks its row-flip pattern. The row shifts, costs,
    patterns and tree nodes are kept as the module docstring describes."""

    def __init__(self, lp: LinearProgram):
        names, lower, upper, rows = lp._names, lp._lower, lp._upper, lp._rows
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
        self._loads = 0
        self._kept = 0  # nodes, patterns and costs kept
        self._lower_bits: bytes | None = None
        self._costs: dict[tuple, tuple[np.ndarray, float]] = {}
        self._patterns: dict[tuple[int, ...], _Pattern] = {}
        self._last: tuple[_Node | None, np.ndarray | None] = (None, None)  # the last tableau built

    def load(self, lp: LinearProgram) -> None:
        """Write the LP's current right-hand sides and lower bounds."""
        lower, upper = lp._lower, lp._upper
        self._loads += 1
        bits = _bits(lower)
        if bits != self._lower_bits:  # the shifts and costs depend on the lower bounds
            self._lower, self._lower_bits = list(lower), bits  # a copy: the LP's list changes with its bounds
            self._row_shifts = [self._shift(terms, 0.0) for terms in self._row_terms]
            self._kept -= len(self._costs)
            self._costs.clear()
        rhs = [b - shift for b, shift in zip(lp._rhs, self._row_shifts)]
        for j in self._ranged:
            rhs.append(upper[j] if lower[j] == -INF else upper[j] - lower[j])

        # normalize rhs >= 0
        flip = tuple(i for i, x in enumerate(rhs) if x < 0)
        for i in flip:
            rhs[i] *= -1.0
        pattern = self._patterns.get(flip)
        if pattern is None:
            pattern = self._pattern(flip)
        b = np.array(rhs, dtype=float)
        b.flags.writeable = False  # shared by every solve until the next load
        self.pattern, self.row_sign, self.b = pattern, pattern.row_sign, b
        # phase one's objective above this is infeasible: b is sign-normalized,
        # so its largest entry is max|b|
        self.infeasible_above = FEASIBILITY_TOL * max(1.0, max(rhs, default=1.0))
        self._after_phase_one: tuple[str, _Walk] | None = None

    def _pattern(self, flip: tuple[int, ...]) -> _Pattern:
        """The pattern with the ``flip`` rows negated."""
        A, rel, row_sign = self._A, self._rel, [1.0] * len(self.row_names)
        if flip:
            A, rel = A.copy(), list(rel)
            A[list(flip)] *= -1.0
            for i in flip:
                rel[i] = _REVERSED[rel[i]]
                if i < len(row_sign):
                    row_sign[i] = -1.0
        row_sign = np.array(row_sign)
        row_sign.flags.writeable = False
        pattern = _Pattern(A, rel, row_sign)
        if self._keep():
            self._patterns[flip] = pattern
        return pattern

    def _keep(self) -> bool:
        """Whether the form keeps one more node, pattern or cost vector (from
        its second load on, up to NODES_PER_FORM), counting it if so."""
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

    def drive_out(self, node: _Node) -> _Node:
        """Where phase two starts from phase one's final tableau ``node``: past
        the pivots that drive basic artificials out of the basis. Any
        artificial still basic sits on a redundant zero row and simply stays
        there; it can never re-enter once blocked in phase two."""
        after = node.children.get(None)
        if after is None:
            art = self.pattern.art_start
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

    def phase_two_root(self, after: _Node, c: np.ndarray) -> _Node:
        """Phase two's first node for column costs ``c`` below ``after``."""
        key = c.tobytes()
        root = after.children.get(key)
        if root is None:
            T = self.tableau(after)
            cost2 = np.zeros(after.width)
            cost2[: self.ncols] = c
            zrow = cost2 - cost2[after.basis] @ T[:, :-1]
            root = self._adopt(after, key, _Node(T, after.basis, zrow, self.pattern.art_start, (), ()))
        return root

    def entering(self, node: _Node, bland: bool) -> tuple[int, list[tuple[int, float, int]]]:
        """The node's entering column under Dantzig's rule (the most negative
        reduced cost, the first among ties) or Bland's (the lowest index with
        a negative one), and its positive rows: (row, value, basis column)."""
        hit = node.entering.get(bland)
        if hit is None:
            col = node.col
            if bland:
                col = int((node.zrow[: node.n_allowed] < -PIVOT_TOL).nonzero()[0][0])
            colvals = self.tableau(node)[:, col]
            pos = (colvals > PIVOT_TOL).nonzero()[0]
            hit = node.entering[bland] = (col, list(zip(pos.tolist(), colvals[pos].tolist(), node.basis[pos].tolist())))
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

    def costs(self, objective: dict[str, float], constant: float) -> tuple[np.ndarray, float]:
        """Column costs of an objective, and the constant the column shifts
        add; a reloaded form keeps them per objective."""
        key = (tuple(objective), _bits([*objective.values(), constant]))
        hit = self._costs.get(key)
        if hit is None:
            c = [0.0] * self.ncols
            shift = self._shift(self._place(objective, c, 0), constant)
            hit = np.array(c, dtype=float), shift
            hit[0].flags.writeable = False
            if self._keep():
                self._costs[key] = hit
        return hit

    def phase_one(self) -> tuple[str, _Walk]:
        """Phase one's status ('feasible', 'infeasible' or 'stalled') and
        walk, computed once per :meth:`load`."""
        if self._after_phase_one is None:
            self._after_phase_one = _phase_one(self)
        return self._after_phase_one

    def recover(self, x_std: np.ndarray) -> dict[str, float]:
        x, lower = x_std.tolist(), self._lower  # Python floats: the same IEEE sums
        return {
            name: lower[j] + x[col] if neg is None else x[col] - x[neg]
            for name, (j, col, neg) in self._columns.items()
        }


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
        self.entering: dict[bool, tuple[int, list[tuple[int, float, int]]]] = {}
        self.col: int | None = None  # Dantzig's entering column; None at an optimum
        # where phase one ends here: its costs per basic column, built on first use
        self.art_costs: np.ndarray | None = None
        if zrow is not None and n_allowed:  # only the first n_allowed columns may enter
            z = zrow[:n_allowed]
            col = int(z.argmin())
            if z[col] < -PIVOT_TOL:
                self.col = col


class _Walk:
    """One right-hand side on its way down a form's tree: the node it has
    reached, its own b and its counters."""

    __slots__ = ("node", "b", "iterations", "phase_one_iterations", "bland")

    def __init__(self, node: _Node, b: np.ndarray):
        self.node, self.b = node, b
        self.iterations = 0
        self.phase_one_iterations = 0
        self.bland = False  # the switch to Bland's rule fired

    def copy(self) -> _Walk:
        """A copy, with its own b."""
        out = _Walk(self.node, self.b.copy())
        out.iterations, out.phase_one_iterations, out.bland = self.iterations, self.phase_one_iterations, self.bland
        return out

    def move(self, node: _Node) -> None:
        """Go to ``node``, applying its pivots' row operations to b."""
        b = self.b
        for row, pivot, factors in node.steps:
            b[row] = b[row] / pivot
            b -= factors * b[row]
        self.node = node

    def run(self, sf: _StandardForm) -> str:
        """Pivot down the tree until no column may enter; returns 'optimal',
        'unbounded' or 'stalled'. This is the solver's one pivot loop.

        Dantzig's entering column, or Bland's once DEGENERATE_STREAK
        degenerate pivots ran in a row. Leaving row: the smallest basis
        column among ratio ties. Beale's LP cycles under Dantzig's rule with
        this tie-break; Bland's rule cannot.
        """
        node = self.node
        streak = 0  # degenerate pivots in a row
        while True:
            if self.iterations >= MAX_ITERATIONS:
                return "stalled"
            self.iterations += 1
            if node.col is None:
                return "optimal"
            bland = streak >= DEGENERATE_STREAK
            self.bland = self.bland or bland
            col, positive = sf.entering(node, bland)
            if not positive:
                return "unbounded"
            # the ratio test, in Python floats: the same IEEE divisions NumPy makes
            b = self.b.tolist()
            ratios = [b[i] / value for i, value, _ in positive]
            best = min(ratios)
            cut = best + 1e-12
            # deterministic leave rule: smallest basis column among ratio ties
            row = min((k, i) for (i, _, k), ratio in zip(positive, ratios) if ratio <= cut)[1]
            streak = streak + 1 if best <= 1e-12 else 0
            node = sf.child(node, col, row)
            self.move(node)

    def primal(self, ncols: int) -> np.ndarray:
        """The basic solution's first ``ncols`` columns."""
        x = np.zeros(self.node.width)
        x[self.node.basis] = self.b
        return x[:ncols]


def _phase_one(sf: _StandardForm) -> tuple[str, _Walk]:
    """Drive the artificials to zero and, where possible, out of the basis."""
    walk = _Walk(sf.pattern.root, sf.b.copy())
    if walk.node.zrow is not None:
        status = walk.run(sf)
        walk.phase_one_iterations = walk.iterations
        if status == "stalled":
            return status, walk
        node = walk.node
        if node.art_costs is None:
            node.art_costs = (node.basis >= sf.pattern.art_start).astype(float)
        if float(node.art_costs @ walk.b) > sf.infeasible_above:
            return "infeasible", walk
    walk.move(sf.drive_out(walk.node))
    return "feasible", walk


def _solve_standard(sf: _StandardForm, c: np.ndarray) -> tuple[str, _Walk]:
    """Run phase two from a copy of the form's phase-one walk; returns the
    status and the walk."""
    status, walk = sf.phase_one()
    if status != "feasible":
        return status, walk
    walk = walk.copy()
    walk.move(sf.phase_two_root(walk.node, c))
    return walk.run(sf), walk


def solve(lp: LinearProgram, compute_duals: bool = True) -> LpSolution:
    """Solve a minimization LP exactly; deterministic for identical input.

    Degenerate cycling is broken by the switch to Bland's rule. An LP that
    still reaches ``MAX_ITERATIONS`` pivots (the Klee-Minty cube, say) is
    ``numerically_unstable``, deliberately distinct from ``infeasible``.
    Duals (one per row, d objective / d rhs) are read off the final tableau's
    reduced costs on the rows' slack or artificial columns.
    """
    sf = lp._standard_form()
    c, obj_shift = sf.costs(lp.objective, lp.objective_constant)
    status, walk = _solve_standard(sf, c)
    counters = walk.iterations, walk.phase_one_iterations, walk.bland

    if status == "stalled":
        return LpSolution(SolveStatus.NUMERICALLY_UNSTABLE, math.nan, {}, None, *counters)
    if status == "infeasible":
        return LpSolution(SolveStatus.INFEASIBLE, math.nan, {}, None, *counters)
    if status == "unbounded":
        return LpSolution(SolveStatus.UNBOUNDED, -math.inf, {}, None, *counters)

    x = walk.primal(sf.ncols)
    duals = None
    if compute_duals:
        y = -walk.node.zrow[sf.pattern.unit_cols][: len(sf.row_names)] * sf.row_sign
        duals = dict(zip(sf.row_names, y.tolist()))
    return LpSolution(SolveStatus.OPTIMAL, obj_shift + float(np.dot(c, x)), sf.recover(x), duals, *counters)


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
