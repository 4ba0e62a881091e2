"""Brute-force ground truth for desk-scale instances.

Two enumerators live here, both independent of the branch-and-bound solver
and the frontier search (no shared search logic, by design -- they are the
check on those modules, not a client):

* brute_force_frontier: raw enumeration over variable bounds of any
  BiObjectiveProgram, for toy programs.
* charging_frontier: structural enumeration of charging schedules
  (charger x start x duration per EV, times rental patterns), which keeps
  the candidate count small enough to handle a few EVs exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import charging, core
from .core import Assignment, CriterionPoint, EvshareError, evaluate


class OracleError(EvshareError):
    pass


class BudgetExceeded(OracleError):
    pass


@dataclass(frozen=True)
class OracleBudget:
    max_candidates: int = 1 << 25

    def __post_init__(self):
        if self.max_candidates <= 0:
            raise OracleError("budget must be positive")


def _tighten_bounds(program):
    """One independent interval-propagation pass to shrink the search box.

    Intentionally simple (fixed-point loop over constraints); shares no code
    with the solver's propagation.
    """
    lower = {v.id: v.lower for v in program.variables}
    upper = {v.id: v.upper for v in program.variables}
    changed = True
    while changed:
        changed = False
        for con in program.constraints:
            terms = con.expression.terms
            if not terms:
                continue
            lo = con.expression.constant + sum(
                min(c * lower[v], c * upper[v]) for v, c in terms.items())
            hi = con.expression.constant + sum(
                max(c * lower[v], c * upper[v]) for v, c in terms.items())
            for v, c in terms.items():
                vmin = min(c * lower[v], c * upper[v])
                vmax = max(c * lower[v], c * upper[v])
                if con.sense in ("<=", "="):
                    slack = con.rhs - (lo - vmin)
                    if c > 0:
                        new_hi = slack // c
                        if new_hi < upper[v]:
                            upper[v] = new_hi
                            changed = True
                    elif c < 0:
                        new_lo = -(slack // -c)
                        if new_lo > lower[v]:
                            lower[v] = new_lo
                            changed = True
                if con.sense in (">=", "="):
                    need = con.rhs - (hi - vmax)
                    if c > 0:
                        new_lo = -(-need // c)
                        if new_lo > lower[v]:
                            lower[v] = new_lo
                            changed = True
                    elif c < 0:
                        new_hi = need // c
                        if new_hi < upper[v]:
                            upper[v] = new_hi
                            changed = True
                if lower[v] > upper[v]:
                    return None
    return lower, upper


def _collapse(found):
    """Per criterion point keep the lexicographically smallest assignment rendering."""
    best = {}
    for point, assignment in found:
        key = assignment.rendering()
        if point not in best or key < best[point][0]:
            best[point] = (key, assignment)
    return {point: assignment for point, (_, assignment) in best.items()}


def _participation_ok(point, participation):
    if participation is None:
        return True
    return point.z1 <= participation[0] and point.z2 <= participation[1]


def brute_force_frontier(program, participation=None, budget=OracleBudget()):
    """Exact non-dominated set by raw enumeration of the variable box.

    participation is an optional (z1 cap, z2 cap) pair; points above either
    cap are dropped before dominance filtering.  Returns {CriterionPoint:
    Assignment}; refuses outright when the box exceeds the budget.
    """
    tightened = _tighten_bounds(program)
    if tightened is None:
        return {}
    lower, upper = tightened
    size = 1
    for v in program.variables:
        size *= upper[v.id] - lower[v.id] + 1
        if size > budget.max_candidates:
            raise BudgetExceeded(
                f"candidate space exceeds budget {budget.max_candidates} -- refusing")

    ids = [v.id for v in program.variables]
    ranges = [range(lower[i], upper[i] + 1) for i in ids]
    found = []
    for combo in product(*ranges):
        assignment = Assignment(dict(zip(ids, combo)))
        if core.check_assignment(program, assignment):
            continue
        point = core.criterion_point(program, assignment)
        if _participation_ok(point, participation):
            found.append((point, assignment))
    frontier = core.pareto_filter({p for p, _ in found})
    return _collapse((p, a) for p, a in found if p in frontier)


# ---------------------------------------------------------------------------
# Structural enumeration of charging schedules.

def _session_options(instance, i, chargers):
    """All (charger, start, duration) sessions EV i could run, ignoring occupancy."""
    T = instance.horizon
    e, l = instance.window[i]
    lo, hi = instance.demand[i]
    options = []
    for j in chargers:
        rate = instance.charge_rate[i, j]
        if rate > 0:
            d_min = max(1, -(-lo // rate))
            d_max = min(hi // rate, l - e)
            durations = range(d_min, d_max + 1)
        else:
            durations = range(1, l - e + 1) if lo == 0 else range(0)
        for d in durations:
            for s in range(e, l - d + 1):
                options.append((j, s, d))
        if lo == 0:
            # Zero-duration session: the model still forces one start/end pair,
            # so the EV "visits" some charger without occupying an interval.
            for s in range(max(e, 1), min(l, T - 1) + 1):
                options.append((j, s, 0))
    return options


def _rental_patterns(instance, allowed_renters=None):
    renters = tuple(allowed_renters) if allowed_renters is not None else instance.companies
    choices = (None,) + renters
    return [dict(zip(instance.chargers, combo))
            for combo in product(choices, repeat=len(instance.chargers))]


def _schedule_cost(instance, rentals, placements, k):
    total = 0
    for j, renter in rentals.items():
        if renter == k:
            total += instance.rental_fee[j, k]
    for i in instance.company_evs(k):
        j, s, d = placements[i]
        if d > 0:
            fee = instance.energy_fee_own if rentals[j] == k else instance.energy_fee_collab
            rate = instance.charge_rate[i, j]
            for t in range(s + 1, s + d + 1):
                total += fee[j, t] * rate
        total += instance.travel_cost[i, j]
        total += instance.vot[i] * (s - instance.window[i][0])
    return total


def _enumerate_schedules(instance, options, patterns, visit):
    """DFS over rental patterns and per-EV sessions with occupancy pruning."""
    evs = instance.evs
    for rentals in patterns:
        occupied = set()
        placements = {}

        def walk(idx):
            if idx == len(evs):
                visit(rentals, dict(placements))
                return
            i = evs[idx]
            for j, s, d in options[i]:
                if d > 0 and rentals[j] is None:
                    continue
                slots = [(j, t) for t in range(s + 1, s + d + 1)]
                if any(slot in occupied for slot in slots):
                    continue
                occupied.update(slots)
                placements[i] = (j, s, d)
                walk(idx + 1)
                del placements[i]
                occupied.difference_update(slots)

        walk(0)


def schedule_to_assignment(schedule, instance):
    """Reconstruct the full variable assignment a schedule corresponds to."""
    values = {}
    T = instance.horizon
    for j in instance.chargers:
        for k in instance.companies:
            values[charging.var_rent(j, k)] = 1 if schedule.rentals.get(j) == k else 0
    for i in instance.evs:
        j, s, f = schedule.sessions[i]
        for jj in instance.chargers:
            for t in instance.intervals():
                values[charging.var_x(i, jj, t)] = 1 if (jj == j and s + 1 <= t <= f) else 0
                values[charging.var_start(i, jj, t)] = 0
                values[charging.var_end(i, jj, t)] = 0
        if f > s:
            values[charging.var_start(i, j, s + 1)] = 1
            values[charging.var_end(i, j, f)] = 1
        else:
            # Zero-duration session: paired start/end indicators at (s+1, s).
            values[charging.var_start(i, j, s + 1)] = 1
            values[charging.var_end(i, j, s)] = 1
        values[charging.var_tstart(i)] = s
        values[charging.var_tfinish(i)] = f
        for jj in instance.chargers:
            for t in instance.intervals():
                x = values[charging.var_x(i, jj, t)]
                for k in instance.companies:
                    y = values[charging.var_rent(jj, k)]
                    values[charging.var_both(i, jj, t, k)] = x * y
    return Assignment(values)


def _structural_budget(instance, options, patterns):
    size = len(patterns)
    for i in instance.evs:
        size *= max(1, len(options[i]))
    return size


def charging_frontier(instance, participation=None, budget=OracleBudget(),
                      allowed_renters=None, objective_company=None):
    """Exact frontier of a charging instance by structural enumeration.

    Returns {CriterionPoint: Assignment} after participation filtering and
    dominance filtering.  With objective_company set, returns the scalar
    minimum cost for that company instead (used for standalone ground truth).
    """
    options = {i: _session_options(instance, i, instance.chargers) for i in instance.evs}
    patterns = _rental_patterns(instance, allowed_renters)
    bound = _structural_budget(instance, options, patterns)
    if bound > budget.max_candidates:
        raise BudgetExceeded(
            f"structural candidate space {bound} exceeds budget {budget.max_candidates} -- refusing")

    k1, k2 = instance.companies
    points = set()
    best_scalar = [None]

    def visit(rentals, placements):
        c1 = _schedule_cost(instance, rentals, placements, k1)
        c2 = _schedule_cost(instance, rentals, placements, k2)
        if objective_company is not None:
            value = c1 if objective_company == k1 else c2
            if best_scalar[0] is None or value < best_scalar[0]:
                best_scalar[0] = value
            return
        point = CriterionPoint(c1, c2)
        if _participation_ok(point, participation):
            points.add(point)

    _enumerate_schedules(instance, options, patterns, visit)

    if objective_company is not None:
        return best_scalar[0]

    frontier = core.pareto_filter(points)
    if not frontier:
        return {}

    # Second pass: rebuild full assignments only for surviving points and keep
    # the lexicographically smallest rendering per point.
    program = charging.build_charging_program(instance)
    survivors = {}

    def visit_rebuild(rentals, placements):
        c1 = _schedule_cost(instance, rentals, placements, k1)
        c2 = _schedule_cost(instance, rentals, placements, k2)
        point = CriterionPoint(c1, c2)
        if point not in frontier:
            return
        sessions = {i: (j, s, s + d) for i, (j, s, d) in placements.items()}
        schedule = charging.Schedule.from_sessions(instance, dict(rentals), sessions)
        assignment = schedule_to_assignment(schedule, instance)
        key = assignment.rendering()
        if point not in survivors or key < survivors[point][0]:
            survivors[point] = (key, assignment)

    _enumerate_schedules(instance, options, patterns, visit_rebuild)

    result = {}
    for point, (_, assignment) in survivors.items():
        bad = core.check_assignment(program, assignment)
        if bad:
            raise OracleError(f"oracle built an invalid assignment ({bad[:3]}) -- bug")
        z1 = evaluate(program.objective1, assignment)
        z2 = evaluate(program.objective2, assignment)
        if (z1, z2) != (point.z1, point.z2):
            raise OracleError("structural cost disagrees with program objectives -- bug")
        result[point] = assignment
    return result


def standalone_minimum(instance, k, budget=OracleBudget()):
    """Company k's optimal standalone cost by enumeration (no shared access)."""
    sub = charging.standalone_instance(instance, k)
    if not sub.evs:
        return 0
    value = charging_frontier(sub, budget=budget, allowed_renters=(k,), objective_company=k)
    if value is None:
        raise OracleError(f"standalone enumeration found no feasible schedule for {k}")
    return value


def noncollab_costs(instance, budget=OracleBudget()):
    """(z1Non, z2Non) by pure enumeration; the independent check on the solver path."""
    return tuple(standalone_minimum(instance, k, budget) for k in instance.companies)
