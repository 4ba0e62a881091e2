"""Exact single-objective minimization over BiObjectivePrograms.

Reference backend: depth-first branch and bound over the integer variables
in declaration order (lower value first), with incremental activity-bound
propagation over rows that all read ``sum(c * x) <= rhs``.  A solve may be
restricted to an objective-space box, ``bounds = ((lo1, hi1), (lo2, hi2))``
with None for an open side; each finite bound becomes one row, and the
minimized objective's upper row doubles as the incumbent cutoff.  The
search runs on an explicit stack and leaves the interpreter's recursion
limit alone.  Dependency-free and repeatable: two runs on identical inputs
return identical assignments.

Failure contract: a solve ends ``optimal`` or ``infeasible``, or raises.
A single-objective solve that would exceed ``SolverConfig.node_limit``
raises ``SolverError``, so a cut-short search is never read as an answer.

Also hosts the two-stage lexicographic solve used by the frontier search,
an LP-format exporter, and a parser for external solver solutions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import Assignment, CriterionPoint, EvshareError, evaluate


class SolverError(EvshareError):
    pass


class SolutionParseError(EvshareError):
    pass


class SolutionValidationError(EvshareError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Search limits: ``node_limit`` caps the nodes of each single-objective
    solve, None for no cap; a solve that needs more raises SolverError."""

    node_limit: int = None

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit < 1:
            raise SolverError("node_limit must be positive when set")


@dataclass(frozen=True)
class SolveOutcome:
    status: str               # optimal | infeasible
    assignment: Assignment    # when optimal
    value: int                # when optimal
    nodes_explored: int


@dataclass(frozen=True)
class LexOutcome:
    """Result of a two-stage lexicographic minimization."""

    status: str               # optimal | infeasible
    assignment: Assignment
    point: CriterionPoint
    nodes_explored: int
    solves: int = 0           # single-objective solves actually performed


# Objective bounds that leave both objectives unrestricted.
OPEN = ((None, None), (None, None))

# Signs that turn a constraint into `<=` rows: `>=` is negated, `=` gives both.
_ROW_SIGNS = {"<=": (1,), ">=": (-1,), "=": (1, -1)}


def _nonzero(terms):
    """The terms with a nonzero coefficient; propagation divides by each one.

    ``expr()`` already drops zeros, but a LinearExpression built directly
    may keep them.
    """
    return terms if 0 not in terms.values() else {v: c for v, c in terms.items() if c}


class _Search:
    """One branch-and-bound run over a compiled row system.

    Every row is stored as ``sum(c * x) <= rhs``: the program's constraints,
    then one row per finite objective bound.  ``obj_row`` is the minimized
    objective's upper row; its rhs is None while that side is open, and each
    incumbent lowers it to a cutoff one unit below the incumbent's value.
    """

    def __init__(self, program, objective_index, bounds, config):
        variables = program.variables
        self.ids = [v.id for v in variables]
        self.n = len(variables)
        index = {vid: i for i, vid in enumerate(self.ids)}
        self.lower = [v.lower for v in variables]
        self.upper = [v.upper for v in variables]
        self.obj_const = program.objective(objective_index).constant

        row_vars, row_coefs, row_rhs = [], [], []
        for con in program.constraints:
            terms = _nonzero(con.expression.terms)
            rv = [index[vid] for vid in terms]
            rhs = con.rhs - con.expression.constant
            for sign in _ROW_SIGNS[con.sense]:
                row_vars.append(rv)
                row_coefs.append([sign * c for c in terms.values()])
                row_rhs.append(sign * rhs)

        for k, (lo, hi) in enumerate(bounds, start=1):
            objective = program.objective(k)
            terms = _nonzero(objective.terms)
            rv = [index[vid] for vid in terms]
            if lo is not None:
                row_vars.append(rv)
                row_coefs.append([-c for c in terms.values()])
                row_rhs.append(objective.constant - lo)
            if k == objective_index:
                self.obj_row = len(row_vars)
            if k == objective_index or hi is not None:
                row_vars.append(rv)
                row_coefs.append(list(terms.values()))
                row_rhs.append(None if hi is None else hi - objective.constant)

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
                    raise SolverError(f"node limit {self.node_limit} exhausted")
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


def solve_min(program, objective_index, bounds=OPEN, config=SolverConfig()):
    """Global minimum of one objective over the program within ``bounds``.

    ``bounds`` is ``((lo1, hi1), (lo2, hi2))``: inclusive integer bounds on
    the two objective values, None marking an open side.  A strict bound
    must be passed already offset by one minor unit (the objectives are
    integers).  The minimized objective's upper bound is also the initial
    incumbent cutoff.

    Returns an ``optimal`` or ``infeasible`` SolveOutcome; raises
    SolverError when the search needs more than ``config.node_limit`` nodes.
    """
    return _Search(program, objective_index, bounds, config).run()


def lexmin(program, order, bounds=OPEN, config=SolverConfig()):
    """Two-stage lexicographic minimization inside objective ``bounds``.

    order is (1, 2) or (2, 1).  Stage one minimizes the first listed
    objective within ``bounds``; stage two minimizes the other with the
    first objective's bounds pinned to its optimum, ``(v, v)``.  Only
    stage one can be infeasible: its optimum satisfies the pin.
    """
    first, second = order
    if {first, second} != {1, 2}:
        raise SolverError(f"order must be a permutation of (1, 2), got {order!r}")
    stage1 = solve_min(program, first, bounds, config)
    if stage1.status == "infeasible":
        return LexOutcome("infeasible", None, None, stage1.nodes_explored, 1)
    pinned = list(bounds)
    pinned[first - 1] = (stage1.value, stage1.value)
    stage2 = solve_min(program, second, tuple(pinned), config)
    nodes = stage1.nodes_explored + stage2.nodes_explored
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


def export_lp(program, objective_index):
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
    for idx, con in enumerate(program.constraints):
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
