"""Exact single-objective and lexicographic minimization over BiObjectivePrograms.

Reference backend: depth-first branch and bound over the integer variables
in declaration order (lower value first), with incremental activity-bound
propagation over rows that all read ``sum(c * x) <= rhs``.  A solve may be
restricted to an objective-space box, ``bounds = ((lo1, hi1), (lo2, hi2))``
with None for an open side; each finite bound sets the rhs of one of four
objective rows.  Each incumbent sets a cutoff row to one unit below its
value: ``solve_min`` uses the minimized objective's upper row.  The search
runs on an explicit stack and leaves the interpreter's recursion limit
alone.  Dependency-free and repeatable: two
runs on identical inputs return identical assignments.

A program is compiled once (``_Compiled``), by its first solve or by an
earlier ``compile_program`` call: its rows, its six objective rows and its
root fixpoint, the domains after propagating the constraint rows alone.
``frontier.run_method`` compiles before it starts its clock, so a run's
wall time is its search alone.  Each solve starts from that
fixpoint and queues only its objective rows.  This is exact because bound
propagation is monotone, so its fixpoint does not depend on the order rows
are processed in.  The compiled rows keep only the terms still unfixed at
the root, in nonincreasing order of root span ``|c| * (u - l)``, and a row
scan stops at the first term whose span is at most the row's slack: that
term and every later one cannot tighten, since domains only shrink below
the root.  A constraint row whose maximum activity at the root is within
its rhs keeps no terms at all: below the root it can neither tighten nor
fail.  Neither it nor a variable fixed at the root has an entry in the
lists of rows a bound change updates, since no solve reads them.  So
every solve explores the same nodes and returns the same value and
assignment as one that scans every row in full from the declared bounds.

Each objective row is compiled shifted over the program's partition rows:
disjoint ``=`` rows whose unit coefficients over 0/1 variables sum to 1,
such as each EV's single-start and single-end rows in the charging model.
The rows of z1, z2 and the two lexicographic combinations below are each
shifted on their own.  Where an objective's least coefficient ``m`` over a
partition's variables (0 for one it lacks) is positive, the row reads
``m + sum((c - m) * x)`` over them: exactly one of them is 1 at every
feasible point, so every feasible value is unchanged, while the minimum
activity counts the partition's cheapest option before the search fixes
any of its variables.
At a fixpoint of the partition row the shifted row is never weaker than
the declared one (a negative ``m`` could be: its option may be ruled out
below the root), so a solve explores no more nodes and returns the same
first optimal leaf.  The program itself keeps its declared objectives.

A lexicographic solve (``lexmin``) is one search over the combined
objective ``W * z_first + z_second``, whose row doubles as its cutoff.
``W`` is one more than the range of ``z_second`` over the declared bounds,
so a unit of ``z_first`` outweighs any difference in ``z_second``: the
optima of the combined objective are exactly the lexicographic optima.
The search reaches the feasible leaves in the lexicographic order of their
variable values and returns the first optimal one: until then its cutoff
is at least the optimum, so that leaf is never pruned, and after it
nothing else is accepted.  A two-stage solve (minimize
``z_first``, then ``z_second`` with ``z_first`` pinned) returns that same
first leaf, so both give the same status, point and assignment; the
single search only explores fewer nodes.

``lexmin_pair`` finds both lexicographic minima of a box, (z1, z2) and
(z2, z1), in one search over both combined rows.  It keeps one incumbent
per order and cuts a node only when neither order can still improve below
it.  While both can, neither cutoff propagates, since either would cut
leaves the other still needs; once one order cannot improve inside a
subtree, the other's cutoff row gets its rhs there and propagates as in
``lexmin``.  Each order's first optimal leaf is never cut: until the
search reaches it, that order's cutoff is at least its optimum.  Only
leaves that improve neither order are dropped.  So each order returns the
leaf its own ``lexmin`` returns.  ``lexmin`` and ``solve_min`` run the
same loop with one objective row, where every node checks and propagates
the cutoff row.

Failure contract: a solve ends ``optimal`` or ``infeasible``, or raises.
Every search takes ``node_limit``, a cap on its nodes (None for no cap).
A search that would exceed it raises ``SolverError``, so a cut-short
search is never read as an answer.

Also hosts an LP-format exporter and a parser for external solver
solutions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .core import (
    Assignment, CriterionPoint, EvshareError, LinearExpression, ProgramError, criterion_point)


class SolverError(EvshareError):
    pass


class SolutionParseError(EvshareError):
    pass


class SolutionValidationError(EvshareError):
    pass


@dataclass(frozen=True)
class SolveOutcome:
    status: str               # optimal | infeasible
    assignment: Assignment    # when optimal
    value: int                # when optimal
    nodes_explored: int


@dataclass(frozen=True)
class LexOutcome:
    """Result of a lexicographic minimization."""

    status: str               # optimal | infeasible
    assignment: Assignment
    point: CriterionPoint
    nodes_explored: int
    solves = 1                # branch-and-bound searches performed: always one


@dataclass(frozen=True)
class LexPairOutcome:
    """Both lexicographic minima of one box, found by one search."""

    status: str               # optimal | infeasible
    top: tuple                # (point, assignment) of the (z1, z2) minimum, when optimal
    bottom: tuple             # (point, assignment) of the (z2, z1) minimum, when optimal
    nodes_explored: int
    solves = 1                # branch-and-bound searches performed: always one


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


def _partitions(program):
    """The program's partition rows, as lists of variable ids.

    A partition row is an ``=`` row whose nonzero coefficients are all 1,
    over variables declared in [0, 1], with rhs minus constant 1: every
    feasible point sets exactly one of its variables to 1.  Rows are taken
    in declaration order; a row that shares a variable with one already
    taken is skipped, so the partitions are disjoint.
    """
    zero_one = {v.id for v in program.variables if (v.lower, v.upper) == (0, 1)}
    taken, partitions = set(), []
    for con in program.constraints:
        terms = _nonzero(con.expression.terms)
        if (con.sense == "=" and terms and con.rhs - con.expression.constant == 1
                and all(c == 1 and vid in zero_one for vid, c in terms.items())
                and taken.isdisjoint(terms)):
            taken.update(terms)
            partitions.append(list(terms))
    return partitions


def _shift(objective, partitions):
    """``objective`` as (terms, constant), with each partition's least
    coefficient, an absent variable counting as 0, moved into the constant.
    Its value is unchanged wherever one variable of each partition is 1."""
    terms = dict(_nonzero(objective.terms))
    constant = objective.constant
    for partition in partitions:
        least = min(terms.get(vid, 0) for vid in partition)
        if least > 0:
            constant += least
            for vid in partition:
                terms[vid] = terms.get(vid, 0) - least
    return _nonzero(terms), constant


def _lexicographic(first, second, variables):
    """``W * first + second``, with ``W`` one more than the range of
    ``second``'s terms over the declared bounds: no difference in ``second``
    outweighs one unit of ``first``."""
    width = {v.id: v.upper - v.lower for v in variables}
    weight = 1 + sum(abs(c) * width[vid] for vid, c in second.terms.items())
    terms = {vid: weight * c for vid, c in first.terms.items()}
    for vid, c in second.terms.items():
        terms[vid] = terms.get(vid, 0) + c
    return LinearExpression(terms, weight * first.constant + second.constant)


class _Compiled:
    """A program's row system and root fixpoint, built once on its first solve.

    Every row reads ``sum(c * x) <= rhs``: the program's constraints, then
    four objective rows from ``obj_base`` on (z1 lower, z1 upper, z2 lower,
    z2 upper) whose rhs a solve sets from its bounds, then two lexicographic
    rows, ``W * z1 + z2`` for order (1, 2) and ``W * z2 + z1`` for (2, 1),
    which only ``lexmin``'s cutoff sets.  Here every objective rhs is None.
    Each ``W`` is one more than the range of the second objective's terms
    over the declared bounds, so that no difference in it outweighs one
    unit of the first.  The objective rows read z1, z2 and the two
    combinations shifted over the partition rows (see the module
    docstring); ``constants`` holds the four constants after the shift, in
    that order, and a row's activity plus its constant is the objective's
    value at every feasible point.

    ``lower``/``upper``/``amin`` are the root fixpoint: the domains and
    minimum row activities after propagating the constraint rows alone, or
    ``feasible`` is False.  Bound propagation is monotone, so its fixpoint
    does not depend on the order rows are processed in: a solve that starts
    here and queues only its objective rows reaches the same root domains as
    one that propagates every row from the declared bounds.

    ``row_terms[r]`` is a tuple of row r's terms as ``(v, c, span)`` with
    span the root ``|c| * (u - l)``, in nonincreasing span order, and leaves
    out the terms fixed at the root: those are constants, already counted in
    ``amin``.  A term whose span is at most its row's slack tightens nothing
    (for ``c > 0``, ``l + slack // c >= u``; symmetrically for ``c < 0``),
    and below the root domains only shrink, so neither can any later term
    of the row.  Scanning a row leaves that row's slack alone: tightening v
    moves only the rows where v has the opposite sign.  So a scan may stop
    at the first such term.  The root pass itself scans every term: there
    each span is infinite.

    A constraint row is entailed at the root when its maximum activity
    there, ``amin`` plus its spans, is within its rhs: every point of the
    root domains satisfies it, so below the root it can neither fail nor
    tighten a bound.  Its ``row_terms`` entry is empty, and nothing queues
    it.

    ``lower_rows[v]`` is a tuple of the (row, c) pairs with ``c > 0``, whose
    minimum activity reads v's lower bound; ``upper_rows[v]`` those with
    ``c < 0``.  They hold only the rows a search scans, and are empty for a
    variable fixed at the root, whose bounds no search changes.  An
    entailed row's ``amin`` thus stays at its root value, which no search
    reads.  Equal coefficients and spans share one int object.

    One pass over each row's terms builds its root-pass terms, its minimum
    activity over the declared bounds and its ``lower_rows``/``upper_rows``
    entries over every term; the root pass then settles the constraint
    rows, and the search's ``row_terms`` and incidence tuples are cut from
    the result.  A solve never writes into this object.
    """

    def __init__(self, program):
        variables = program.variables
        self.ids = [v.id for v in variables]
        self.n = len(variables)
        index = {vid: i for i, vid in enumerate(self.ids)}

        rows = [(_nonzero(con.expression.terms), sign, sign * (con.rhs - con.expression.constant))
                for con in program.constraints for sign in _ROW_SIGNS[con.sense]]
        self.obj_base = len(rows)
        z1, z2 = program.objective1, program.objective2
        objectives = (z1, z2, _lexicographic(z1, z2, variables), _lexicographic(z2, z1, variables))
        partitions = _partitions(program)
        shifted = [_shift(objective, partitions) for objective in objectives]
        self.constants = [constant for _, constant in shifted]
        for terms, _ in shifted[:2]:
            rows += [(terms, -1, None), (terms, 1, None)]
        rows += [(terms, 1, None) for terms, _ in shifted[2:]]
        self.nrows = len(rows)

        lower = [v.lower for v in variables]
        upper = [v.upper for v in variables]
        one = {}.setdefault  # one int object per distinct coefficient and span
        lower_rows = [[] for _ in range(self.n)]
        upper_rows = [[] for _ in range(self.n)]
        row_terms, self.row_rhs, amin = [], [], []
        for r, (terms, sign, rhs) in enumerate(rows):
            row, activity = [], 0
            for vid, c in terms.items():
                v = index[vid]
                c *= sign
                c = one(c, c)
                row.append((v, c, math.inf))
                if c > 0:
                    activity += c * lower[v]
                    lower_rows[v].append((r, c))
                else:
                    activity += c * upper[v]
                    upper_rows[v].append((r, c))
            row_terms.append(row)
            self.row_rhs.append(rhs)
            amin.append(activity)
        self.lower_rows, self.upper_rows = lower_rows, upper_rows
        self.lower, self.upper, self.amin, self.row_terms = lower, upper, amin, row_terms

        root = _Search(self, self.row_rhs[:])
        self.feasible = root.settle(range(self.obj_base))
        lower, upper, amin = root.lower, root.upper, root.amin
        self.lower, self.upper, self.amin = lower, upper, amin
        self.row_terms, entailed = [], set()
        for r, terms in enumerate(row_terms):
            terms = [(v, c, one(span, span)) for v, c, _ in terms
                     if (span := abs(c) * (upper[v] - lower[v]))]
            if r < self.obj_base and sum(term[2] for term in terms) <= self.row_rhs[r] - amin[r]:
                entailed.add(r)
                terms = []
            terms.sort(key=lambda term: -term[2])
            self.row_terms.append(tuple(terms))
        self.lower_rows, self.upper_rows = (
            [tuple([rc for rc in rows if rc[0] not in entailed]) if lower[v] < upper[v] else ()
             for v, rows in enumerate(incidence)]
            for incidence in (lower_rows, upper_rows))

    def constant(self, k):
        """Objective k's constant after the shift."""
        if k not in (1, 2):
            raise ProgramError(f"objective index must be 1 or 2, got {k!r}")
        return self.constants[k - 1]


def compile_program(program):
    """The program's compiled form, built on the first call and kept on it.

    Every solve calls it; ``frontier.run_method`` calls it before starting
    its clock, so a run's wall time is its search alone."""
    compiled = program._compiled
    if compiled is None:
        compiled = _Compiled(program)
        object.__setattr__(program, "_compiled", compiled)  # a cache on a frozen program
    return compiled


class _Search:
    """One solve's branch and bound, started from a compiled root fixpoint.

    Works on copies of the compiled domains and activities and on its own
    ``rhs`` list, so solves never see each other's state.  Also runs the
    compile-time propagation of the constraint rows, from the declared
    bounds.  Keeps no trail: a branching node saves copies of its domains
    and activities for its second child, which adopts them in place of
    undoing the first child's subtree.
    """

    def __init__(self, compiled, rhs):
        self.compiled = compiled
        self.lower = compiled.lower[:]
        self.upper = compiled.upper[:]
        self.amin = compiled.amin[:]
        self.rhs = rhs
        self.in_queue = [False] * compiled.nrows

    # -- bound updates ------------------------------------------------------

    def _change(self, v, new_lower, new_upper, queue):
        # The branch step's bound update; propagate() inlines its own copy.
        lower, upper = self.lower, self.upper
        amin, in_queue = self.amin, self.in_queue
        dl = new_lower - lower[v]
        du = new_upper - upper[v]
        lower[v] = new_lower
        upper[v] = new_upper
        for rows, delta in ((self.compiled.lower_rows[v], dl), (self.compiled.upper_rows[v], du)):
            if delta:
                for r, c in rows:
                    amin[r] += c * delta
                    if not in_queue[r]:
                        in_queue[r] = True
                        queue.append(r)

    # -- propagation --------------------------------------------------------

    def settle(self, rows):
        """Propagate from a state where only ``rows`` may be off fixpoint."""
        queue = list(rows)
        for r in queue:
            self.in_queue[r] = True
        return self.propagate(queue)

    def propagate(self, queue):
        """Run the queue (already flagged) to fixpoint; False on infeasibility.

        A row fails only when its minimum activity exceeds its rhs: with
        slack >= 0 a tightened bound never crosses the opposite bound.  A
        row scan stops at the first term whose root span is at most the
        slack (see ``_Compiled``).  A tightened bound requeues only the rows
        whose minimum activity it moves; the others' slack and implied
        bounds stay as they were.  The bound update is inlined rather than
        a call to ``_change``: it runs once per tightened bound, and the
        call alone cost measurable time.
        """
        compiled = self.compiled
        in_queue = self.in_queue
        lower, upper, amin, row_rhs = self.lower, self.upper, self.amin, self.rhs
        row_terms = compiled.row_terms
        lower_rows, upper_rows = compiled.lower_rows, compiled.upper_rows
        for r in queue:  # rows appended while iterating are visited too
            in_queue[r] = False
            rhs = row_rhs[r]
            if rhs is None:
                continue
            slack = rhs - amin[r]
            if slack < 0:
                for rr in queue:
                    in_queue[rr] = False
                return False
            for v, c, span in row_terms[r]:
                if span <= slack:
                    break
                lo = lower[v]
                up = upper[v]
                if lo == up:
                    continue
                if c > 0:
                    new = lo + slack // c
                    if new < up:
                        upper[v] = new
                        delta = new - up
                        for rr, cc in upper_rows[v]:
                            amin[rr] += cc * delta
                            if not in_queue[rr]:
                                in_queue[rr] = True
                                queue.append(rr)
                else:
                    new = up - slack // -c
                    if new > lo:
                        lower[v] = new
                        delta = new - lo
                        for rr, cc in lower_rows[v]:
                            amin[rr] += cc * delta
                            if not in_queue[rr]:
                                in_queue[rr] = True
                                queue.append(rr)
        return True

    # -- search -------------------------------------------------------------

    def run(self, rows, objectives, node_limit):
        """Depth-first search over an explicit stack, lower value first.

        ``rows`` are the objective rows the solve's bounds set.  Each of
        ``objectives`` is a (row, constant) pair, one per value minimized:
        the row's activity plus the constant.  Each objective keeps its own
        incumbent and cutoff, the row's rhs at the start (None while that
        side is open), lowered by each incumbent to one unit below its
        activity.  An objective is live at a node while its row's minimum
        activity is within its cutoff: a leaf below may still improve it.
        A node where none is live is cut.  While one objective alone is
        live, its cutoff is its row's rhs and propagates; while several
        are, every objective row's rhs is None, since a propagated cutoff
        would cut leaves another objective still needs.  So with one
        objective every node checks and propagates the cutoff row.

        Each stack entry is (variable, new lower, new upper, lower, upper,
        amin, live): the branch to apply, the domains and activities of its
        parent node to apply it to, and the objectives live there.  A
        branching node pushes its second child, ``x_i >= l + 1``, with
        copies of its state, then its first child, ``x_i = l``, with the
        state itself, which is popped at once and changed in place.  By the
        time the second child is popped, its parent's subtree is done and
        the copies are the only record of the parent's state.  The cutoffs
        are no part of that state: they only fall, so each child re-checks
        them.  Returns one SolveOutcome per objective, each with the
        search's node count.
        """
        row_rhs, n, in_queue = self.rhs, self.compiled.n, self.in_queue
        obj_rows = [row for row, _ in objectives]
        cutoffs = [row_rhs[row] for row in obj_rows]
        best = [None] * len(objectives)
        live = tuple(range(len(objectives)))
        if len(live) > 1:
            for row in obj_rows:
                row_rhs[row] = None
        nodes = 0
        stack = []
        start = 0
        feasible = self.settle(rows)
        while True:
            if feasible and len(live) > 1:
                amin = self.amin
                live = tuple(k for k in live
                             if cutoffs[k] is None or amin[obj_rows[k]] <= cutoffs[k])
                if len(live) == 1:  # the lone order's cutoff propagates from here on
                    row_rhs[obj_rows[live[0]]] = cutoffs[live[0]]
                    feasible = self.settle((obj_rows[live[0]],))
                else:
                    feasible = bool(live)
            if feasible:
                nodes += 1
                if node_limit is not None and nodes > node_limit:
                    raise SolverError(f"node limit {node_limit} exhausted")
                lower, upper, amin = self.lower, self.upper, self.amin
                i = start
                while i < n and lower[i] == upper[i]:
                    i += 1
                if i == n:
                    values = lower[:]
                    for k in live:  # live: this leaf improves on k's incumbent
                        best[k] = values
                        cutoffs[k] = amin[obj_rows[k]] - 1
                else:
                    pivot = lower[i]
                    stack.append((i, pivot + 1, upper[i], lower[:], upper[:], amin[:], live))
                    stack.append((i, pivot, pivot, lower, upper, amin, live))
            if not stack:
                break
            start, new_lower, new_upper, self.lower, self.upper, self.amin, live = stack.pop()
            for row in obj_rows:
                row_rhs[row] = None
            queue = []
            if len(live) == 1:  # re-check the cutoff, which may have tightened
                row = obj_rows[live[0]]
                row_rhs[row] = cutoffs[live[0]]
                queue.append(row)
                in_queue[row] = True
            self._change(start, new_lower, new_upper, queue)
            feasible = self.propagate(queue)
        ids = self.compiled.ids
        return tuple(
            SolveOutcome("infeasible", None, None, nodes) if values is None else
            SolveOutcome("optimal", Assignment(dict(zip(ids, values))),
                         cutoff + 1 + constant, nodes)
            for (_, constant), values, cutoff in zip(objectives, best, cutoffs))


def _minimize(program, bounds, objectives, node_limit):
    """Minimize each of ``objectives``, pairs (k, constant) of compiled row
    ``obj_base + k`` and the constant added to its activity, in one search
    of at most ``node_limit`` nodes within ``bounds``, which set the rhs of
    the four objective-bound rows.  One SolveOutcome per objective.
    """
    if node_limit is not None and node_limit < 1:
        raise SolverError("node_limit must be positive when set")
    compiled = compile_program(program)
    rhs = compiled.row_rhs[:]
    rows = []
    for k, (lo, hi) in enumerate(bounds, start=1):
        objective_constant = compiled.constant(k)
        lower_row = compiled.obj_base + 2 * (k - 1)
        if lo is not None:
            rhs[lower_row] = objective_constant - lo
            rows.append(lower_row)
        if hi is not None:
            rhs[lower_row + 1] = hi - objective_constant
            rows.append(lower_row + 1)
    if not compiled.feasible:
        return tuple(SolveOutcome("infeasible", None, None, 0) for _ in objectives)
    objectives = tuple((compiled.obj_base + k, constant) for k, constant in objectives)
    return _Search(compiled, rhs).run(rows, objectives, node_limit)


def solve_min(program, objective_index, bounds=OPEN, node_limit=None):
    """Global minimum of one objective over the program within ``bounds``.

    ``bounds`` is ``((lo1, hi1), (lo2, hi2))``: inclusive integer bounds on
    the two objective values, None marking an open side.  A strict bound
    must be passed already offset by one minor unit (the objectives are
    integers).  The minimized objective's upper bound is also the initial
    incumbent cutoff.  The program is compiled on its first solve and the
    compiled form is reused by every later one.

    Returns an ``optimal`` or ``infeasible`` SolveOutcome; raises
    SolverError when the search needs more than ``node_limit`` nodes.
    """
    constant = compile_program(program).constant(objective_index)
    out, = _minimize(program, bounds, ((2 * objective_index - 1, constant),), node_limit)
    return out


def _lexicographic_objective(program, order):
    """The compiled (row, constant) pair of ``W * z_first + z_second``."""
    first, second = order
    if {first, second} != {1, 2}:
        raise SolverError(f"order must be a permutation of (1, 2), got {order!r}")
    return 3 + first, compile_program(program).constants[1 + first]


def lexmin(program, order, bounds=OPEN, node_limit=None):
    """Lexicographic minimization inside objective ``bounds``, in one search.

    order is (1, 2) or (2, 1): minimize the first listed objective, then
    the other among the first's optima.  The search minimizes
    ``W * z_first + z_second`` over its compiled lexicographic row, with
    ``W`` larger than the range of ``z_second`` (see ``_Compiled``), and
    returns the same leaf as a two-stage solve would (see the module
    docstring).  The point is evaluated on that one assignment.
    """
    out, = _minimize(program, bounds, (_lexicographic_objective(program, order),), node_limit)
    if out.status == "infeasible":
        return LexOutcome("infeasible", None, None, out.nodes_explored)
    point = criterion_point(program, out.assignment)
    return LexOutcome("optimal", out.assignment, point, out.nodes_explored)


def lexmin_pair(program, bounds=OPEN, node_limit=None):
    """Both lexicographic minima inside objective ``bounds``, in one search.

    Returns a LexPairOutcome whose ``top`` is the (z1, z2) minimum and
    ``bottom`` the (z2, z1) minimum, each the point and assignment that
    ``lexmin`` returns for its order (see the module docstring); the two
    are the same leaf when one point minimizes both objectives.  The
    search counts once towards ``node_limit``.
    """
    objectives = tuple(_lexicographic_objective(program, order) for order in ((1, 2), (2, 1)))
    top, bottom = _minimize(program, bounds, objectives, node_limit)
    if top.status == "infeasible":
        return LexPairOutcome("infeasible", None, None, top.nodes_explored)
    ends = [(criterion_point(program, out.assignment), out.assignment) for out in (top, bottom)]
    return LexPairOutcome("optimal", *ends, top.nodes_explored)


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
    """Render one objective's ILP in the industry LP text format.  A
    variable with bounds [0, 1] is listed under Binaries, any other under
    Bounds and Generals."""
    objective = program.objective(objective_index)
    lines = ["Minimize"]
    obj_terms = _lp_terms(objective)
    if objective.constant:
        sign = "-" if objective.constant < 0 else "+"
        obj_terms += f" {sign} {abs(objective.constant)}"
    lines.append(f" obj: {obj_terms}")
    lines.append("Subject To")
    for idx, con in enumerate(program.constraints):
        label = re.sub(r"[^A-Za-z0-9_]", "_", con.name) if con.name else "row"
        rhs = con.rhs - con.expression.constant
        lines.append(f" c{idx}_{label}: {_lp_terms(con.expression)} {con.sense} {rhs}")
    binaries = [v for v in program.variables if (v.lower, v.upper) == (0, 1)]
    generals = [v for v in program.variables if (v.lower, v.upper) != (0, 1)]
    if generals:
        lines.append("Bounds")
        for v in generals:
            lines.append(f" {v.lower} <= {_lp_name(v.id)} <= {v.upper}")
    if binaries:
        lines.append("Binaries")
        for v in binaries:
            lines.append(f" {_lp_name(v.id)}")
    if generals:
        lines.append("Generals")
        for v in generals:
            lines.append(f" {_lp_name(v.id)}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def parse_external_solution(text, program):
    """Parse a whitespace-separated `variable value` listing into an Assignment.

    Values must sit within 1e-6 of an integer and each variable may appear
    once; variables missing from the listing default to zero when zero is
    inside their bounds.
    """
    tokens = text.split()
    if len(tokens) % 2 != 0:
        raise SolutionParseError("expected `variable value` pairs, got an odd token count")
    var_map = program.variable_map()
    values = {}
    for name, raw in zip(tokens[::2], tokens[1::2]):
        if name not in var_map:
            raise SolutionParseError(f"unknown variable {name!r}")
        if name in values:
            raise SolutionParseError(f"variable {name} listed twice")
        try:
            x = float(raw)
        except ValueError:
            raise SolutionParseError(f"non-numeric value {raw!r} for {name}") from None
        if not math.isfinite(x):
            raise SolutionParseError(f"non-finite value {raw!r} for {name}")
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
