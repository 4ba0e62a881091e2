"""Collaborative EV charging model: instance data, program builder, schedules.

Two companies share (or don't share) rented chargers over a discrete horizon
of unit intervals 1..T, where interval t covers clock span [t-1, t).  Each EV
charges in one contiguous session at one charger.  A company's cost is
rental fees + energy fees (own tariff at chargers it rents, collaborative
tariff at chargers the other company rents) + travel cost once per session
+ value-of-time cost for waiting past the earliest start.

The collaborative program (``build_charging_program``) charges each
interval on one binary per renting company, so it has no product of
charging and rental to linearize, and declares each EV's interval
variables only where its window (e, l) lets them be nonzero, its
``reach``: charging in e+1 .. l, a session start in e+1 .. min(l+1, T) and
a session end in max(e, 1) .. l.  ``encode_schedule`` and
``decode_schedule`` read the same reach.

All money is in integer minor units (0.01 SEK).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from . import core, solver
from .core import Constraint, EvshareError, ParticipationPoint, binary, expr, integer


class InstanceError(EvshareError):
    pass


class DecodeError(EvshareError):
    pass


class EncodeError(EvshareError):
    pass


class CostError(EvshareError):
    pass


class InfeasibleError(EvshareError):
    pass


@dataclass(frozen=True)
class ChargingInstance:
    name: str
    companies: tuple          # exactly two company ids
    evs: tuple                # EV ids
    owner: dict               # ev id -> company id
    chargers: tuple           # charger ids
    horizon: int              # number of unit intervals T
    rental_fee: dict          # (charger, company) -> minor units per day
    energy_fee_own: dict      # (charger, interval) -> minor units per energy unit
    energy_fee_collab: dict   # (charger, interval) -> minor units per energy unit
    charge_rate: dict         # (ev, charger) -> energy units per interval
    travel_cost: dict         # (ev, charger) -> minor units per visit
    vot: dict                 # ev -> minor units per interval of waiting
    window: dict              # ev -> (earliest start e, latest finish l), interval indices
    demand: dict              # ev -> (L, H) energy bounds
    ev_positions: dict = field(default_factory=dict)       # ev -> (x, y) km, optional
    charger_positions: dict = field(default_factory=dict)  # charger -> (x, y) km, optional

    def __post_init__(self):
        if len(self.companies) != 2 or len(set(self.companies)) != 2:
            raise InstanceError("exactly two distinct companies required")
        for name in ("evs", "chargers"):
            ids = getattr(self, name)
            for x in ids:
                if ids.count(x) > 1:
                    raise InstanceError(f"{name} lists id {x!r} more than once")
        for name, value in self._integer_fields():
            if type(value) is not int:
                raise InstanceError(f"{name} must be an integer, got {value!r}")
        if self.horizon < 1:
            raise InstanceError("horizon must be at least one interval")
        for i in self.evs:
            if self.owner.get(i) not in self.companies:
                raise InstanceError(f"EV {i} has no valid owning company")
            e, l = self.window[i]
            if not (0 <= e <= l <= self.horizon):
                raise InstanceError(f"EV {i}: window [{e},{l}] outside [0,{self.horizon}]")
            lo, hi = self.demand[i]
            if not (0 <= lo <= hi):
                raise InstanceError(f"EV {i}: demand bounds ({lo},{hi}) invalid")
            if self.vot[i] < 0:
                raise InstanceError(f"EV {i}: negative value of time")
            for j in self.chargers:
                if self.charge_rate[i, j] < 0 or self.travel_cost[i, j] < 0:
                    raise InstanceError(f"negative rate or travel cost for ({i},{j})")
        for j in self.chargers:
            for k in self.companies:
                if self.rental_fee[j, k] < 0:
                    raise InstanceError(f"negative rental fee for ({j},{k})")
            for t in range(1, self.horizon + 1):
                if self.energy_fee_own[j, t] < 0 or self.energy_fee_collab[j, t] < 0:
                    raise InstanceError(f"negative energy fee for ({j},{t})")

    def _integer_fields(self):
        """(field name, value) for the horizon, every fee, rate, travel cost
        and value of time, and both ends of every window and demand.

        Raises InstanceError for a window or demand that is not a pair.
        """
        yield "horizon", self.horizon
        for name in ("rental_fee", "energy_fee_own", "energy_fee_collab",
                     "charge_rate", "travel_cost", "vot"):
            for key, value in getattr(self, name).items():
                yield f"{name}[{key}]", value
        for name in ("window", "demand"):
            for key, pair in getattr(self, name).items():
                if not isinstance(pair, tuple) or len(pair) != 2:
                    raise InstanceError(f"{name}[{key}] must be a pair, got {pair!r}")
                for value in pair:
                    yield f"{name}[{key}]", value

    def company_evs(self, k):
        return tuple(i for i in self.evs if self.owner[i] == k)

    def other_company(self, k):
        a, b = self.companies
        return b if k == a else a

    def intervals(self):
        return range(1, self.horizon + 1)


# Variable naming scheme (LP-format safe: no hyphens, no leading digits).
def var_start(i, j, t):
    return f"xs_{i}_{j}_{t}"


def var_end(i, j, t):
    return f"xe_{i}_{j}_{t}"


def var_rent(j, k):
    return f"y_{j}_{k}"


def var_both(i, j, t, k):
    return f"u_{i}_{j}_{t}_{k}"


def var_tstart(i):
    return f"ts_{i}"


def var_tfinish(i):
    return f"tf_{i}"


def var_session(i, j, s, d):
    return f"w_{i}_{j}_{s}_{d}"


def reach(instance, i):
    """The intervals where EV i's variables can be nonzero, as three ranges:
    charging (``u``, for every company), session start (``xs``) and
    session end (``xe``).

    For window (e, l) over horizon T the EV charges in e+1 .. l, starts a
    session at e+1 .. min(l+1, T) and ends one at max(e, 1) .. l.  The
    extra start and end positions are those of a zero-duration session at
    boundary s, whose start indicator sits at s+1 and end indicator at s.
    """
    e, l = instance.window[i]
    return (range(e + 1, l + 1), range(e + 1, min(l + 1, instance.horizon) + 1),
            range(max(e, 1), l + 1))


def build_charging_program(instance):
    """Build the bi-objective program for a two-company charging instance.

    Variables: y (company rents charger), u (EV charges at charger in
    interval on company k's rental), xs/xe (session start/end indicators),
    ts/tf (integer start/finish times).  Objective k is company k's cost.
    Each variable's id is built once, in one table per family, and that
    string is the key of its every term; both demand rows share one energy
    expression.

    "EV i charges at j in interval t" is the sum over k of u_{i,j,t,k}.
    One charger-capacity row per (charger, interval, company) bounds the EVs
    charging on k's rental by y_{j,k}, and rental-exclusive leaves a charger
    one renter, so the sum is 0/1 and each u is the product of charging and
    rental without a linearization.  Each EV's u, xs and xe exist only at
    the intervals of its ``reach``; a neighbour outside it counts as 0, and
    a charger-capacity row no EV reaches is left out.  This is exact:
    ``ts >= e`` puts the start indicator at e+1 or later, ``tf <= l`` the
    end indicator at l or earlier, charging lies between the two, and a
    zero-duration session pairs xs at s+1 with xe at s.  Variables are
    declared rentals, u, xs and xe interleaved, then ts and tf.

    The builder is total: demand/window conflicts build fine and surface as
    infeasibility at solve time (see infeasibility_diagnostic).
    """
    ins = instance
    T = ins.horizon
    reaches = {i: reach(ins, i) for i in ins.evs}
    pairs = [(i, j) for i in ins.evs for j in ins.chargers]
    y = {(j, k): var_rent(j, k) for j in ins.chargers for k in ins.companies}
    u = {(i, j, t, k): var_both(i, j, t, k)
         for i, j in pairs for t in reaches[i][0] for k in ins.companies}
    xs = {(i, j, t): var_start(i, j, t) for i, j in pairs for t in reaches[i][1]}
    xe = {(i, j, t): var_end(i, j, t) for i, j in pairs for t in reaches[i][2]}
    ts = {i: var_tstart(i) for i in ins.evs}
    tf = {i: var_tfinish(i) for i in ins.evs}

    def charges(i, j, t, c):  # "EV i charges at j in t" times c; {} outside the reach
        return {u[i, j, t, k]: c for k in ins.companies if (i, j, t, k) in u}

    # Declaration order doubles as the solver's branching order: rentals
    # first, then each EV's interval pattern; everything after is forced by
    # propagation once u and y are fixed.
    variables = [binary(vid) for vid in (*y.values(), *u.values())]
    variables += [binary(table[i, j, t]) for i, j in pairs for t in ins.intervals()
                  for table in (xs, xe) if (i, j, t) in table]
    for i in ins.evs:
        variables += [integer(ts[i], 0, T - 1), integer(tf[i], 1, T)]

    constraints = []
    add = constraints.append
    for i, j in pairs:
        for t in reaches[i][0]:
            # Start indicator covers every 0->1 transition of the charging.
            add(Constraint(expr({xs[i, j, t]: 1, **charges(i, j, t, -1),
                                 **charges(i, j, t - 1, 1)}),
                           ">=", 0, f"start-indicator:{i}:{j}:{t}"))
            # End indicator covers every 1->0 transition.
            add(Constraint(expr({xe[i, j, t]: 1, **charges(i, j, t, -1),
                                 **charges(i, j, t + 1, 1)}),
                           ">=", 0, f"end-indicator:{i}:{j}:{t}"))

    for i in ins.evs:
        _, starts, ends = reaches[i]
        add(Constraint(expr({xs[i, j, t]: 1 for j in ins.chargers for t in starts}),
                       "=", 1, f"single-start:{i}"))
        add(Constraint(expr({xe[i, j, t]: 1 for j in ins.chargers for t in ends}),
                       "=", 1, f"single-end:{i}"))
        for j in ins.chargers:
            terms = {xs[i, j, t]: 1 for t in starts}
            for t in ends:
                terms[xe[i, j, t]] = terms.get(xe[i, j, t], 0) - 1
            add(Constraint(expr(terms), "=", 0, f"start-end-balance:{i}:{j}"))

    for j in ins.chargers:
        for t in ins.intervals():
            for k in ins.companies:
                users = {u[i, j, t, k]: 1 for i in ins.evs if (i, j, t, k) in u}
                if users:
                    add(Constraint(expr({**users, y[j, k]: -1}), "<=", 0,
                                   f"charger-capacity:{j}:{t}:{k}"))

    for i in ins.evs:
        charging, starts, ends = reaches[i]
        # ts = sum xs * (t-1), tf = sum xe * t, duration linkage, windows, demand.
        add(Constraint(expr({ts[i]: 1,
                             **{xs[i, j, t]: -(t - 1) for j in ins.chargers for t in starts}}),
                       "=", 0, f"start-time:{i}"))
        add(Constraint(expr({tf[i]: 1,
                             **{xe[i, j, t]: -t for j in ins.chargers for t in ends}}),
                       "=", 0, f"finish-time:{i}"))
        terms = {vid: 1 for j in ins.chargers for t in charging for vid in charges(i, j, t, 1)}
        terms[tf[i]] = -1
        terms[ts[i]] = 1
        add(Constraint(expr(terms), "=", 0, f"duration:{i}"))
        # The reach implies both window rows, but propagation does not:
        # start-time's minimum activity takes every xs at 0, so without them
        # ts and tf keep their declared bounds and the waiting cost and the
        # duration row bound the search far more loosely (several times the
        # nodes, same outcomes).
        e, l = ins.window[i]
        add(Constraint(expr({ts[i]: 1}), ">=", e, f"time-window-start:{i}"))
        add(Constraint(expr({tf[i]: 1}), "<=", l, f"time-window-end:{i}"))
        lo, hi = ins.demand[i]
        energy = expr({vid: ins.charge_rate[i, j] for j in ins.chargers for t in charging
                       for vid in charges(i, j, t, 1)})
        add(Constraint(energy, ">=", lo, f"demand-lower:{i}"))
        add(Constraint(energy, "<=", hi, f"demand-upper:{i}"))

    for j in ins.chargers:
        add(Constraint(expr({y[j, k]: 1 for k in ins.companies}),
                       "<=", 1, f"rental-exclusive:{j}"))

    objectives = []
    for k in ins.companies:
        other = ins.other_company(k)
        terms = {}
        constant = 0
        for j in ins.chargers:
            terms[y[j, k]] = ins.rental_fee[j, k]
        for i in ins.company_evs(k):
            charging, starts, _ = reaches[i]
            for j in ins.chargers:
                rate = ins.charge_rate[i, j]
                for t in charging:
                    # Own tariff where company k rented, collaborative
                    # tariff where the other company rented.
                    own, collab = u[i, j, t, k], u[i, j, t, other]
                    terms[own] = terms.get(own, 0) + ins.energy_fee_own[j, t] * rate
                    terms[collab] = terms.get(collab, 0) + ins.energy_fee_collab[j, t] * rate
                for t in starts:
                    terms[xs[i, j, t]] = terms.get(xs[i, j, t], 0) + ins.travel_cost[i, j]
            terms[ts[i]] = terms.get(ts[i], 0) + ins.vot[i]
            constant -= ins.vot[i] * ins.window[i][0]
        objectives.append(expr(terms, constant))

    return core.program(variables, constraints, objectives[0], objectives[1])


def session_options(instance, i):
    """The (charger, start, duration) sessions EV i can run, ignoring occupancy.

    A session of duration d >= 1 starting at boundary s charges in
    intervals s+1 .. s+d inside the window (e <= s, s + d <= l) and
    delivers rate * d energy units within the demand bounds.  An EV that
    needs no energy may instead visit a charger without charging: a
    zero-duration session at an inner boundary max(e, 1) .. min(l, T-1),
    where the charging program's start and end indicators can pair up.
    Sessions are listed per charger, by duration then start, the
    zero-duration ones last.
    """
    e, l = instance.window[i]
    lo, hi = instance.demand[i]
    options = []
    for j in instance.chargers:
        rate = instance.charge_rate[i, j]
        for d in range(1, l - e + 1):
            if lo <= rate * d <= hi:
                options += [(j, s, d) for s in range(e, l - d + 1)]
        if lo == 0:
            options += [(j, s, 0) for s in range(max(e, 1), min(l, instance.horizon - 1) + 1)]
    return options


def session_cost(instance, i, j, start, finish, fee):
    """EV i's cost of a session at charger j occupying intervals
    start+1 .. finish: its energy at tariff ``fee`` ((charger, interval) ->
    price), travel to the charger and waiting past its earliest start."""
    energy = sum(fee[j, t] for t in range(start + 1, finish + 1)) * instance.charge_rate[i, j]
    return energy + instance.travel_cost[i, j] + instance.vot[i] * (start - instance.window[i][0])


def standalone_program(instance, k):
    """Company k's standalone program over an instance whose EVs are all k's.

    One binary per rental ``y_{j,k}``, then one per session option of each
    EV (``session_options``), picked by one ``= 1`` row per EV.  One row
    per (charger, interval) that some session covers bounds the sessions
    covering it by ``y_{j,k}``: capacity and rented-only at once.  Each
    session's own-tariff energy, travel and waiting cost is a constant, so
    objective k is linear in the binaries; the other objective is empty.
    A zero-duration session covers no interval and needs no rental.  Each
    variable's id is built once and keys its every term.
    """
    ins = instance
    rent = {j: var_rent(j, k) for j in ins.chargers}
    variables = [binary(y) for y in rent.values()]
    objective = {rent[j]: ins.rental_fee[j, k] for j in ins.chargers}
    picks, covers = [], {}
    for i in ins.evs:
        options = {}
        for j, s, d in session_options(ins, i):
            w = var_session(i, j, s, d)
            variables.append(binary(w))
            options[w] = 1
            objective[w] = session_cost(ins, i, j, s, s + d, ins.energy_fee_own)
            for t in range(s + 1, s + d + 1):
                covers.setdefault((j, t), {})[w] = 1
        picks.append(Constraint(expr(options), "=", 1, f"single-session:{i}"))
    capacity = [Constraint(expr({**covers[j, t], rent[j]: -1}), "<=", 0,
                           f"charger-capacity:{j}:{t}")
                for j in ins.chargers for t in ins.intervals() if (j, t) in covers]
    objectives = [expr(objective) if c == k else expr() for c in ins.companies]
    return core.program(variables, picks + capacity, *objectives)


def infeasibility_diagnostic(instance):
    """Name EVs that have no session option (``session_options``), or None."""
    bad = [i for i in instance.evs if not session_options(instance, i)]
    if bad:
        return "no feasible session for EV " + ", ".join(bad)
    return None


@dataclass(frozen=True)
class Schedule:
    """Decoded rentals and charging sessions.

    rentals: charger -> company id or None.
    sessions: ev -> (charger, start, finish) with start/finish on the
      interval-boundary scale, occupying intervals start+1 .. finish.
    """

    rentals: dict
    sessions: dict


def encode_schedule(schedule, instance, program):
    """The assignment of ``program`` a schedule corresponds to; the inverse
    of ``decode_schedule``.  Every variable starts at 0, then each rental
    and each session sets its ones (a zero-duration session pairs its start
    and end indicators at intervals start+1 and start).

    Raises EncodeError for what the program has no variables for: a rental
    of an unknown charger or by an unknown company, a session at an
    unknown charger, one starting or ending outside its EV's ``reach``, or
    one that charges at a charger nobody rents.
    """
    values = {v.id: 0 for v in program.variables}
    for j, k in schedule.rentals.items():
        if k is not None:
            if j not in instance.chargers or k not in instance.companies:
                raise EncodeError(f"rental of charger {j!r} by {k!r}, which the instance lacks")
            values[var_rent(j, k)] = 1
    for i in instance.evs:
        j, start, finish = schedule.sessions[i]
        _, starts, ends = reach(instance, i)
        if j not in instance.chargers:
            raise EncodeError(f"session of EV {i} at charger {j!r}, which the instance lacks")
        if start + 1 not in starts or finish not in ends:
            raise EncodeError(f"session {(j, start, finish)} of EV {i} lies outside "
                              f"its window {instance.window[i]}")
        renter = schedule.rentals.get(j)
        if finish > start and renter is None:
            raise EncodeError(f"session of EV {i} charges at charger {j!r}, which nobody rents")
        values[var_start(i, j, start + 1)] = 1
        values[var_end(i, j, finish)] = 1
        values[var_tstart(i)] = start
        values[var_tfinish(i)] = finish
        for t in range(start + 1, finish + 1):
            values[var_both(i, j, t, renter)] = 1
    return core.Assignment(values)


def decode_schedule(assignment, instance, program):
    """Extract a Schedule from a feasible assignment of the built program."""
    violated = core.check_assignment(program, assignment)
    if violated:
        shown = ", ".join(violated[:8])
        raise DecodeError(f"assignment violates constraints: {shown}")
    values = assignment.values
    rentals = {}
    for j in instance.chargers:
        renter = [k for k in instance.companies if values[var_rent(j, k)] == 1]
        rentals[j] = renter[0] if renter else None
    sessions = {}
    for i in instance.evs:
        charger = None
        for j in instance.chargers:
            for t in reach(instance, i)[1]:
                if values[var_start(i, j, t)] == 1:
                    charger = j
        sessions[i] = (charger, values[var_tstart(i)], values[var_tfinish(i)])
    return Schedule(rentals, sessions)


def validate_schedule(schedule, instance):
    """Re-check a decoded schedule against the instance; empty list iff valid."""
    violations = []
    seen = {}
    for j, k in schedule.rentals.items():
        if k is not None and k not in instance.companies:
            violations.append(f"rental-exclusive: charger {j}")
    for i in instance.evs:
        if i not in schedule.sessions:
            violations.append(f"missing-session: {i}")
            continue
        j, start, finish = schedule.sessions[i]
        if j not in instance.chargers or not (0 <= start <= finish <= instance.horizon):
            violations.append(f"session-bounds: {i}")
            continue
        e, l = instance.window[i]
        if start < e or finish > l:
            violations.append(f"time-window: {i}")
        lo, hi = instance.demand[i]
        delivered = instance.charge_rate[i, j] * (finish - start)
        if not (lo <= delivered <= hi):
            violations.append(f"demand: {i}")
        if finish > start and schedule.rentals.get(j) is None:
            violations.append(f"unrented-charger: {i} at {j}")
        for t in range(start + 1, finish + 1):
            if (j, t) in seen:
                violations.append(f"charger-capacity: charger {j}, interval {t}")
            else:
                seen[j, t] = i
    return violations


def company_cost(schedule, instance, k):
    """Company k's total cost of a schedule, per the decoded cost model."""
    total = 0
    for j in instance.chargers:
        if schedule.rentals.get(j) == k:
            total += instance.rental_fee[j, k]
    for i in instance.company_evs(k):
        j, start, finish = schedule.sessions[i]
        renter = schedule.rentals.get(j)
        if finish > start and renter is None:
            raise CostError(f"EV {i} charges at unrented charger {j}")
        fee = instance.energy_fee_own if renter == k else instance.energy_fee_collab
        total += session_cost(instance, i, j, start, finish, fee)
    return total


def standalone_instance(instance, k):
    """The restriction of an instance to company k's own fleet."""
    return replace(instance, evs=instance.company_evs(k))


def noncollab_point(instance, node_limit=None):
    """Each company's optimal standalone cost (no shared access): (z1Non, z2Non).

    Company k's standalone program covers k's own fleet with k as the only
    renter (``standalone_program``).  A company with no EVs rents nothing.
    """
    costs = []
    for index, k in enumerate(instance.companies, start=1):
        sub = standalone_instance(instance, k)
        outcome = solver.solve_min(standalone_program(sub, k), index, node_limit=node_limit)
        if outcome.status == "infeasible":
            hint = infeasibility_diagnostic(sub)
            detail = f" ({hint})" if hint else ""
            raise InfeasibleError(f"standalone problem infeasible for company {k}{detail}")
        costs.append(outcome.value)
    return ParticipationPoint(costs[0], costs[1])


# ---------------------------------------------------------------------------
# JSON formats (documented in README; key order is part of the format).

def instance_to_dict(instance):
    ins = instance
    T = ins.horizon
    return {
        "name": ins.name,
        "horizon": T,
        "companies": list(ins.companies),
        "chargers": [
            {"id": j, "position": list(ins.charger_positions[j]) if j in ins.charger_positions else None}
            for j in ins.chargers
        ],
        "evs": [
            {
                "id": i,
                "company": ins.owner[i],
                "position": list(ins.ev_positions[i]) if i in ins.ev_positions else None,
                "window": list(ins.window[i]),
                "demand": list(ins.demand[i]),
                "vot": ins.vot[i],
            }
            for i in ins.evs
        ],
        "rental_fee": {j: {k: ins.rental_fee[j, k] for k in ins.companies} for j in ins.chargers},
        "energy_fee_own": {j: [ins.energy_fee_own[j, t] for t in ins.intervals()] for j in ins.chargers},
        "energy_fee_collab": {j: [ins.energy_fee_collab[j, t] for t in ins.intervals()] for j in ins.chargers},
        "charge_rate": {i: {j: ins.charge_rate[i, j] for j in ins.chargers} for i in ins.evs},
        "travel_cost": {i: {j: ins.travel_cost[i, j] for j in ins.chargers} for i in ins.evs},
        "units": {"money": "minor units of 0.01 SEK", "energy": "kWh", "interval_hours": 1},
    }


def instance_to_json(instance):
    return json.dumps(instance_to_dict(instance), indent=2) + "\n"


def instance_from_dict(data):
    companies = tuple(data["companies"])
    chargers = tuple(c["id"] for c in data["chargers"])
    evs = tuple(e["id"] for e in data["evs"])
    T = data["horizon"]
    charger_positions = {c["id"]: tuple(c["position"]) for c in data["chargers"] if c.get("position")}
    ev_positions = {e["id"]: tuple(e["position"]) for e in data["evs"] if e.get("position")}
    return ChargingInstance(
        name=data.get("name", ""),
        companies=companies,
        evs=evs,
        owner={e["id"]: e["company"] for e in data["evs"]},
        chargers=chargers,
        horizon=T,
        rental_fee={(j, k): data["rental_fee"][j][k] for j in chargers for k in companies},
        energy_fee_own={(j, t): data["energy_fee_own"][j][t - 1] for j in chargers for t in range(1, T + 1)},
        energy_fee_collab={(j, t): data["energy_fee_collab"][j][t - 1] for j in chargers for t in range(1, T + 1)},
        charge_rate={(e["id"], j): data["charge_rate"][e["id"]][j] for e in data["evs"] for j in chargers},
        travel_cost={(e["id"], j): data["travel_cost"][e["id"]][j] for e in data["evs"] for j in chargers},
        vot={e["id"]: e["vot"] for e in data["evs"]},
        window={e["id"]: tuple(e["window"]) for e in data["evs"]},
        demand={e["id"]: tuple(e["demand"]) for e in data["evs"]},
        ev_positions=ev_positions,
        charger_positions=charger_positions,
    )


def instance_from_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"instance file is not valid JSON: {exc}") from exc
    try:
        return instance_from_dict(data)
    except (KeyError, TypeError, AttributeError, ValueError, IndexError) as exc:
        raise InstanceError(f"malformed instance JSON: {exc!r}") from exc


def schedule_to_dict(schedule, instance):
    sessions = [(i, *schedule.sessions[i]) for i in instance.evs]
    return {
        "instance": instance.name,
        "rentals": {j: schedule.rentals.get(j) for j in instance.chargers},
        "sessions": [{"ev": i, "charger": j, "start": start, "end": finish}
                     for i, j, start, finish in sessions],
        "energy": {i: instance.charge_rate.get((i, j), 0) * max(finish - start, 0)
                   for i, j, start, finish in sessions},
        "costs": {k: company_cost(schedule, instance, k) for k in instance.companies},
    }


def schedule_to_json(schedule, instance):
    return json.dumps(schedule_to_dict(schedule, instance), indent=2) + "\n"


def schedule_from_dict(data, instance):
    """The Schedule a schedule JSON object describes.  Refuses what would
    hide a session: a second row for an EV, a row for an unknown EV, a
    rental of an unknown charger."""
    sessions = {}
    for row in data["sessions"]:
        i, start, finish = row["ev"], row["start"], row["end"]
        if i not in instance.evs:
            raise InstanceError(f"session row for EV {i!r}, which the instance lacks")
        if i in sessions:
            raise InstanceError(f"more than one session row for EV {i!r}")
        if type(start) is not int or type(finish) is not int:
            raise InstanceError(f"session of EV {i}: start and end must be integers")
        sessions[i] = (row["charger"], start, finish)
    for j in data["rentals"]:
        if j not in instance.chargers:
            raise InstanceError(f"rental of charger {j!r}, which the instance lacks")
    rentals = {j: data["rentals"].get(j) for j in instance.chargers}
    return Schedule(rentals, sessions)


def schedule_from_json(text, instance):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"schedule file is not valid JSON: {exc}") from exc
    try:
        return schedule_from_dict(data, instance)
    except (KeyError, TypeError, AttributeError) as exc:
        raise InstanceError(f"malformed schedule JSON: {exc!r}") from exc
