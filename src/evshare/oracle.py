"""Exhaustive ground truth for desk-scale charging instances.

Enumerates charging schedules structurally (a rental pattern over the
chargers, then one charger x start x duration session per EV, pruned by
charger occupancy), which keeps the candidate count small enough to handle
a few EVs exactly.  It shares no search logic with the branch-and-bound
solver or the frontier search, by design: it is the check on those modules,
not a client.

* charging_frontier: the exact participation-capped frontier in one
  enumeration pass, with one witness assignment per point: the first
  schedule the enumeration reaches, encoded by ``charging.encode_schedule``.
* standalone_minimum / noncollab_costs: each company's optimal cost on its
  own fleet, renting only for itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import charging, core
from .core import CriterionPoint, EvshareError


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


def _session_options(instance, i):
    """All (charger, start, duration) sessions EV i could run, ignoring occupancy."""
    T = instance.horizon
    e, l = instance.window[i]
    lo, hi = instance.demand[i]
    options = []
    for j in instance.chargers:
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
    """DFS over rental patterns and per-EV sessions with occupancy pruning,
    in pattern, instance-EV and ``options`` order.  ``visit(rentals,
    placements)`` gets the live placements dict: a visitor that keeps it
    copies it."""
    evs = instance.evs
    for rentals in patterns:
        occupied = set()
        placements = {}

        def walk(idx):
            if idx == len(evs):
                visit(rentals, placements)
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


def _search_space(instance, renters, budget):
    """Session options per EV and rental patterns, refused beyond the budget.

    A rental pattern maps each charger to one of ``renters`` or to None.
    """
    options = {i: _session_options(instance, i) for i in instance.evs}
    patterns = [dict(zip(instance.chargers, combo))
                for combo in product((None,) + tuple(renters), repeat=len(instance.chargers))]
    size = len(patterns)
    for i in instance.evs:
        size *= max(1, len(options[i]))
    if size > budget.max_candidates:
        raise BudgetExceeded(
            f"structural candidate space {size} exceeds budget {budget.max_candidates} -- refusing")
    return options, patterns


def charging_frontier(instance, participation=None, budget=OracleBudget()):
    """Exact frontier of a charging instance by structural enumeration.

    participation is an optional (z1 cap, z2 cap) pair; points above either
    cap are dropped before dominance filtering.  One pass keeps, per
    distinct point inside the caps, the first schedule the enumeration
    reaches (rental patterns in ``itertools.product`` order, EVs in instance
    order, sessions in ``_session_options`` order).  Returns
    {CriterionPoint: Assignment} over the frontier, each witness encoded by
    ``charging.encode_schedule`` and checked against the program.
    """
    options, patterns = _search_space(instance, instance.companies, budget)
    k1, k2 = instance.companies
    first = {}

    def visit(rentals, placements):
        point = CriterionPoint(_schedule_cost(instance, rentals, placements, k1),
                               _schedule_cost(instance, rentals, placements, k2))
        if point not in first and (participation is None or (
                point.z1 <= participation[0] and point.z2 <= participation[1])):
            first[point] = (rentals, {i: (j, s, s + d) for i, (j, s, d) in placements.items()})

    _enumerate_schedules(instance, options, patterns, visit)
    frontier = core.pareto_filter(first)
    program = charging.build_charging_program(instance)
    result = {}
    for point, (rentals, sessions) in first.items():
        if point not in frontier:
            continue
        schedule = charging.Schedule(rentals, sessions)
        assignment = charging.encode_schedule(schedule, instance, program)
        bad = core.check_assignment(program, assignment)
        if bad:
            raise OracleError(f"oracle built an invalid assignment ({bad[:3]}) -- bug")
        if core.criterion_point(program, assignment) != point:
            raise OracleError("structural cost disagrees with program objectives -- bug")
        result[point] = assignment
    return result


def standalone_minimum(instance, k, budget=OracleBudget()):
    """Company k's optimal standalone cost by enumeration (no shared access)."""
    sub = charging.standalone_instance(instance, k)
    options, patterns = _search_space(sub, (k,), budget)
    best = None

    def visit(rentals, placements):
        nonlocal best
        cost = _schedule_cost(sub, rentals, placements, k)
        if best is None or cost < best:
            best = cost

    _enumerate_schedules(sub, options, patterns, visit)
    if best is None:
        raise OracleError(f"standalone enumeration found no feasible schedule for {k}")
    return best


def noncollab_costs(instance, budget=OracleBudget()):
    """(z1Non, z2Non) by pure enumeration; the independent check on the solver path."""
    return tuple(standalone_minimum(instance, k, budget) for k in instance.companies)
