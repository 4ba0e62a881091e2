"""Exact single-objective minimization over BiObjectivePrograms.

Reference backend: depth-first branch and bound over the integer variables
in declaration order (lower value first), with incremental activity-bound
propagation over rows that all read ``sum(c * x) <= rhs``, the last being an
objective cutoff.  The search runs on an explicit stack and leaves the
interpreter's recursion limit alone.  Dependency-free and repeatable: two
runs on identical inputs return identical assignments.

Also hosts the two-stage lexicographic solve used by the frontier search,
an LP-format exporter, and a parser for external solver solutions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (Assignment, Constraint, CriterionPoint, EvshareError,
                   evaluate)


class SolverError(EvshareError):
    pass


class SolutionParseError(EvshareError):
    pass


class SolutionValidationError(EvshareError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    node_limit: int = None    # None = unlimited

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit < 1:
            raise SolverError("node_limit must be positive when set")


@dataclass(frozen=True)
class SolveOutcome:
    status: str               # optimal | infeasible | node-limit
    assignment: Assignment    # when optimal
    value: int                # when optimal
    nodes_explored: int


@dataclass(frozen=True)
class LexOutcome:
    """Result of a two-stage lexicographic minimization."""

    status: str               # optimal | infeasible | node-limit
    assignment: Assignment
    point: CriterionPoint
    nodes_explored: int
    solves: int = 0           # single-objective solves actually performed


# Signs that turn a constraint into `<=` rows: `>=` is negated, `=` gives both.
_ROW_SIGNS = {"<=": (1,), ">=": (-1,), "=": (1, -1)}


def _nonzero(terms):
    """The terms with a nonzero coefficient; propagation divides by each one.

    ``expr()`` already drops zeros, but a LinearExpression built directly
    (as ``core.program_from_dict`` does) may keep them.
    """
    return terms if 0 not in terms.values() else {v: c for v, c in terms.items() if c}


class _Search:
    """One branch-and-bound run over a compiled row system.

    Every row is stored as ``sum(c * x) <= rhs``; the last row is the
    objective, whose rhs stays None until an incumbent sets the cutoff.
    """

    def __init__(self, program, objective_index, extra_constraints, config):
        variables = program.variables
        self.ids = [v.id for v in variables]
        self.n = len(variables)
        index = {vid: i for i, vid in enumerate(self.ids)}
        self.lower = [v.lower for v in variables]
        self.upper = [v.upper for v in variables]

        row_vars, row_coefs, row_rhs = [], [], []
        for con in list(program.constraints) + list(extra_constraints):
            terms = _nonzero(con.expression.terms)
            try:
                rv = [index[vid] for vid in terms]
            except KeyError as exc:
                raise SolverError(f"constraint {con.name!r} references undeclared {exc}") from None
            rhs = con.rhs - con.expression.constant
            for sign in _ROW_SIGNS[con.sense]:
                row_vars.append(rv)
                row_coefs.append([sign * c for c in terms.values()])
                row_rhs.append(sign * rhs)

        objective = program.objective(objective_index)
        terms = _nonzero(objective.terms)
        self.obj_const = objective.constant
        self.obj_row = len(row_vars)
        row_vars.append([index[vid] for vid in terms])
        row_coefs.append(list(terms.values()))
        row_rhs.append(None)

        self.row_vars = row_vars
        self.row_coefs = row_coefs
        self.row_rhs = row_rhs
        self.nrows = len(row_vars)

        var_rows = [[] for _ in range(self.n)]
        for r in range(self.nrows):
            for v, c in zip(row_vars[r], row_coefs[r]):
                var_rows[v].append((r, c))
        self.var_rows = var_rows

        self.amin = [sum(c * (self.lower[v] if c > 0 else self.upper[v])
                         for v, c in zip(row_vars[r], row_coefs[r]))
                     for r in range(self.nrows)]
        self.in_queue = [True] * self.nrows  # run() starts with every row queued
        self.trail = []
        self.node_limit = config.node_limit

    # -- bound updates ------------------------------------------------------

    def _change(self, v, new_lower, new_upper, queue):
        lower, upper = self.lower, self.upper
        old_l, old_u = lower[v], upper[v]
        self.trail.append((v, old_l, old_u))
        lower[v] = new_lower
        upper[v] = new_upper
        amin, in_queue = self.amin, self.in_queue
        dl = new_lower - old_l
        du = new_upper - old_u
        for r, c in self.var_rows[v]:
            amin[r] += c * (dl if c > 0 else du)
            if not in_queue[r]:
                in_queue[r] = True
                queue.append(r)

    def _undo(self, mark):
        lower, upper, amin = self.lower, self.upper, self.amin
        trail = self.trail
        while len(trail) > mark:
            v, old_l, old_u = trail.pop()
            dl = old_l - lower[v]
            du = old_u - upper[v]
            for r, c in self.var_rows[v]:
                amin[r] += c * (dl if c > 0 else du)
            lower[v] = old_l
            upper[v] = old_u

    # -- propagation --------------------------------------------------------

    def _propagate(self, queue):
        """Run the queue (already flagged) to fixpoint; False on infeasibility.

        A row fails only when its minimum activity exceeds its rhs: with
        slack >= 0 a tightened bound never crosses the opposite bound.
        """
        in_queue = self.in_queue
        lower, upper = self.lower, self.upper
        amin, row_rhs = self.amin, self.row_rhs
        row_vars, row_coefs = self.row_vars, self.row_coefs
        head = 0
        while head < len(queue):
            r = queue[head]
            head += 1
            in_queue[r] = False
            rhs = row_rhs[r]
            if rhs is None:
                continue
            slack = rhs - amin[r]
            if slack < 0:
                for rr in queue[head:]:
                    in_queue[rr] = False
                return False
            for v, c in zip(row_vars[r], row_coefs[r]):
                lo = lower[v]
                up = upper[v]
                if lo == up:
                    continue
                if c > 0:
                    new_u = lo + slack // c
                    if new_u < up:
                        self._change(v, lo, new_u, queue)
                else:
                    new_l = up - slack // -c
                    if new_l > lo:
                        self._change(v, new_l, up, queue)
        return True

    # -- search -------------------------------------------------------------

    def run(self):
        """Depth-first search over an explicit stack, lower value first.

        Each stack entry is (variable, new lower, new upper, trail mark): the
        branch to apply after undoing the trail back to its parent node.
        """
        lower, upper, amin = self.lower, self.upper, self.amin
        row_rhs, obj_row, n = self.row_rhs, self.obj_row, self.n
        best_value = best_values = None
        nodes = 0
        stack = []
        start = 0
        feasible = self._propagate(list(range(self.nrows)))
        while True:
            if feasible:
                nodes += 1
                if self.node_limit is not None and nodes > self.node_limit:
                    return SolveOutcome("node-limit", None, None, nodes)
                i = start
                while i < n and lower[i] == upper[i]:
                    i += 1
                if i == n:
                    value = amin[obj_row] + self.obj_const
                    if best_value is None or value < best_value:
                        best_value = value
                        best_values = lower[:]
                        row_rhs[obj_row] = amin[obj_row] - 1
                else:
                    mark = len(self.trail)
                    pivot = lower[i]
                    stack.append((i, pivot + 1, upper[i], mark))
                    stack.append((i, pivot, pivot, mark))
            if not stack:
                break
            start, new_lower, new_upper, mark = stack.pop()
            self._undo(mark)
            queue = [obj_row]  # re-check the cutoff, which may have tightened
            self.in_queue[obj_row] = True
            self._change(start, new_lower, new_upper, queue)
            feasible = self._propagate(queue)
        if best_value is None:
            return SolveOutcome("infeasible", None, None, nodes)
        assignment = Assignment(dict(zip(self.ids, best_values)))
        return SolveOutcome("optimal", assignment, best_value, nodes)


def solve_min(program, objective_index, extra_constraints=(), config=SolverConfig()):
    """Global minimum of one objective over the program plus extra constraints."""
    return _Search(program, objective_index, extra_constraints, config).run()


def rectangle_constraints(program, rectangle):
    """Inclusive box bounds on both objective values, as four linear rows.

    A strict bound must be passed already offset by one minor unit (the
    objectives are integers); the solver never adjusts the corners.
    """
    if rectangle is None:
        return []
    tl, br = rectangle.top_left, rectangle.bottom_right
    o1, o2 = program.objective1, program.objective2
    return [
        Constraint(o1, ">=", tl.z1, "rect-z1-lo"),
        Constraint(o1, "<=", br.z1, "rect-z1-hi"),
        Constraint(o2, ">=", br.z2, "rect-z2-lo"),
        Constraint(o2, "<=", tl.z2, "rect-z2-hi"),
    ]


def lexmin(program, order, rectangle=None, config=SolverConfig(), extra_constraints=()):
    """Two-stage lexicographic minimization inside an objective-space box.

    order is (1, 2) or (2, 1).  Stage one minimizes the first listed
    objective under the rectangle bounds; stage two minimizes the other with
    the first held at its optimum by an equality constraint.
    """
    first, second = order
    if {first, second} != {1, 2}:
        raise SolverError(f"order must be a permutation of (1, 2), got {order!r}")
    box = rectangle_constraints(program, rectangle) + list(extra_constraints)
    stage1 = solve_min(program, first, box, config)
    if stage1.status != "optimal":
        return LexOutcome(stage1.status, None, None, stage1.nodes_explored, 1)
    pin = Constraint(program.objective(first), "=", stage1.value, "lex-stage1-pin")
    stage2 = solve_min(program, second, box + [pin], config)
    nodes = stage1.nodes_explored + stage2.nodes_explored
    if stage2.status != "optimal":
        return LexOutcome(stage2.status, None, None, nodes, 2)
    point = CriterionPoint(evaluate(program.objective1, stage2.assignment),
                           evaluate(program.objective2, stage2.assignment))
    return LexOutcome("optimal", stage2.assignment, point, nodes, 2)


# ---------------------------------------------------------------------------
# External solver adapter: LP text out, "name value" listing in.

_LP_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _lp_name(vid):
    if not _LP_NAME.match(vid):
        raise SolverError(f"variable id {vid!r} is not LP-format safe")
    return vid


def _lp_terms(expression):
    parts = []
    for vid, coef in expression.sorted_terms():
        name = _lp_name(vid)
        if not parts:
            prefix = "- " if coef < 0 else ""
            parts.append(f"{prefix}{abs(coef)} {name}")
        else:
            sign = "-" if coef < 0 else "+"
            parts.append(f"{sign} {abs(coef)} {name}")
    if not parts:
        parts.append("0")
    return " ".join(parts)


def export_lp(program, objective_index, extra_constraints=()):
    """Render one objective's ILP in the industry LP text format."""
    objective = program.objective(objective_index)
    lines = ["Minimize"]
    obj_terms = _lp_terms(objective)
    if objective.constant:
        sign = "-" if objective.constant < 0 else "+"
        obj_terms += f" {sign} {abs(objective.constant)}"
    lines.append(f" obj: {obj_terms}")
    lines.append("Subject To")
    sense_text = {"<=": "<=", ">=": ">=", "=": "="}
    for idx, con in enumerate(list(program.constraints) + list(extra_constraints)):
        label = re.sub(r"[^A-Za-z0-9_]", "_", con.name) if con.name else "row"
        rhs = con.rhs - con.expression.constant
        lines.append(f" c{idx}_{label}: {_lp_terms(con.expression)} {sense_text[con.sense]} {rhs}")
    binaries = [v.id for v in program.variables if v.kind == "binary"]
    generals = [v.id for v in program.variables if v.kind != "binary"]
    if generals:
        lines.append("Bounds")
        for v in program.variables:
            if v.kind != "binary":
                lines.append(f" {v.lower} <= {_lp_name(v.id)} <= {v.upper}")
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(f" {_lp_name(name)}")
    if generals:
        lines.append("Generals")
        for name in generals:
            lines.append(f" {_lp_name(name)}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def parse_external_solution(text, program):
    """Parse a whitespace-separated `variable value` listing into an Assignment.

    Values must sit within 1e-6 of an integer; variables missing from the
    listing default to zero when zero is inside their bounds.
    """
    tokens = text.split()
    if len(tokens) % 2 != 0:
        raise SolutionParseError("expected `variable value` pairs, got an odd token count")
    var_map = program.variable_map()
    values = {}
    for name, raw in zip(tokens[::2], tokens[1::2]):
        if name not in var_map:
            raise SolutionParseError(f"unknown variable {name!r}")
        try:
            x = float(raw)
        except ValueError:
            raise SolutionParseError(f"non-numeric value {raw!r} for {name}") from None
        nearest = round(x)
        if abs(x - nearest) > 1e-6:
            raise SolutionParseError(f"value {raw} for {name} is not within 1e-6 of an integer")
        values[name] = int(nearest)
    for v in program.variables:
        if v.id not in values:
            if v.lower <= 0 <= v.upper:
                values[v.id] = 0
            else:
                raise SolutionValidationError(
                    f"variable {v.id} missing and zero is outside its bounds")
    for v in program.variables:
        if not (v.lower <= values[v.id] <= v.upper):
            raise SolutionValidationError(
                f"value {values[v.id]} for {v.id} outside bounds [{v.lower}, {v.upper}]")
    return Assignment(values)
