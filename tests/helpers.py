"""Shared test scaffolding: programs with known criterion points, tiny
general programs with the exhaustive enumerator that is their ground truth,
seeded bi-objective assignment and knapsack programs, a plain reference
branch and bound, the two-stage lexicographic solve and the two-search
endpoint rule, the first standalone
formulation and infeasibility diagnostic, the desk-scale scenario
configs, and the scenario layer's money formulas in Fraction arithmetic."""

import itertools
import random
from fractions import Fraction

from hypothesis import reject, strategies as st

from evshare.core import (
    SENSES,
    Assignment,
    BiObjectiveProgram,
    Constraint,
    CriterionPoint,
    LinearExpression,
    binary,
    check_assignment,
    evaluate,
    expr,
    integer,
    program,
)


def make_point_program(points):
    """Program whose feasible criterion points are exactly ``points``.

    One binary selector per point, exactly one active.  Lets frontier and
    solver behavior be checked against plain set arithmetic.
    """
    points = [CriterionPoint(*p) if isinstance(p, tuple) else p for p in points]
    variables = tuple(binary(f"s{i}") for i in range(len(points)))
    one_hot = Constraint(
        LinearExpression({v.id: 1 for v in variables}, 0), "=", 1, "pick-one")
    objective1 = LinearExpression(
        {v.id: p.z1 for v, p in zip(variables, points) if p.z1 != 0}, 0)
    objective2 = LinearExpression(
        {v.id: p.z2 for v, p in zip(variables, points) if p.z2 != 0}, 0)
    return BiObjectiveProgram(variables, (one_hot,), objective1, objective2)


SMALL = st.integers(min_value=-4, max_value=4)


def tiny_variables(draw):
    """One to four binaries and general integers (possibly negative bounds)."""
    variables = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            variables.append(binary(f"x{i}"))
        else:
            lower = draw(st.integers(min_value=-3, max_value=2))
            variables.append(integer(f"x{i}", lower, lower + draw(st.integers(min_value=0, max_value=3))))
    return variables


def tiny_linear(draw, variables):
    """Coefficients and constant of both signs; built with ``LinearExpression``
    directly, bypassing ``expr()``'s zero filter, so zero coefficients occur."""
    return LinearExpression({v.id: draw(SMALL) for v in variables}, draw(SMALL))


@st.composite
def tiny_programs(draw):
    """Programs small enough to enumerate: up to four variables, three rows
    of every sense.  Infeasible programs occur."""
    variables = tiny_variables(draw)
    rows = [Constraint(tiny_linear(draw, variables), draw(st.sampled_from(SENSES)),
                       draw(st.integers(min_value=-6, max_value=6)), f"r{k}")
            for k in range(draw(st.integers(min_value=0, max_value=3)))]
    return program(variables, rows, tiny_linear(draw, variables), tiny_linear(draw, variables))


@st.composite
def feasible_tiny_programs(draw):
    """Like ``tiny_programs``, but every row holds at a drawn anchor
    assignment, so each program has at least one feasible point."""
    variables = tiny_variables(draw)
    anchor = Assignment({v.id: draw(st.integers(min_value=v.lower, max_value=v.upper))
                         for v in variables})
    rows = []
    for k in range(draw(st.integers(min_value=0, max_value=3))):
        expression = tiny_linear(draw, variables)
        sense = draw(st.sampled_from(SENSES))
        slack = 0 if sense == "=" else draw(st.integers(min_value=0, max_value=4))
        value = evaluate(expression, anchor)
        rows.append(Constraint(expression, sense,
                               value - slack if sense == ">=" else value + slack, f"r{k}"))
    return program(variables, rows, tiny_linear(draw, variables), tiny_linear(draw, variables))


@st.composite
def root_settled_programs(draw):
    """Tiny programs with rows and a variable that the root settles.

    A fresh integer ``f`` joins every row and objective and is pinned to its
    lower bound by a row of its own, so the root fixes it; a ``<=`` row's
    rhs is at least its maximum activity over the declared bounds.  Both
    planted rows sit anywhere among the rows and are entailed at the root.
    """
    base = draw(st.one_of(tiny_programs(), feasible_tiny_programs()))
    low = draw(st.integers(min_value=-2, max_value=2))
    f = integer("f", low, low + draw(st.integers(min_value=1, max_value=3)))
    variables = draw(st.permutations([*base.variables, f]))

    def with_f(expression):
        return LinearExpression({**expression.terms, "f": draw(SMALL)}, expression.constant)

    rows = [Constraint(with_f(con.expression), con.sense, con.rhs, con.name)
            for con in base.constraints]
    loose = tiny_linear(draw, variables)
    declared = {v.id: v for v in variables}
    top = loose.constant + sum(c * (declared[vid].upper if c > 0 else declared[vid].lower)
                               for vid, c in loose.terms.items())
    for row in (Constraint(LinearExpression({"f": 1}), "<=", low, "pin"),
                Constraint(loose, "<=", top + draw(st.integers(min_value=0, max_value=3)), "loose")):
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), row)
    return program(variables, rows, with_f(base.objective1), with_f(base.objective2))


@st.composite
def partitioned_programs(draw):
    """Tiny programs with one or two disjoint ``= 1`` rows planted over two
    or three fresh binaries each, placed anywhere among the variables and
    rows.  On each planted row every objective's coefficients differ and
    are mostly positive, so the solver's shift moves most of them; zero and
    negative ones occur."""
    groups = [[binary(f"p{g}_{i}") for i in range(draw(st.integers(min_value=2, max_value=3)))]
              for g in range(draw(st.integers(min_value=1, max_value=2)))]
    variables = draw(st.permutations(tiny_variables(draw) + [v for group in groups for v in group]))
    rows = [Constraint(tiny_linear(draw, variables), draw(st.sampled_from(SENSES)),
                       draw(st.integers(min_value=-6, max_value=6)), f"r{k}")
            for k in range(draw(st.integers(min_value=0, max_value=2)))]
    for g, group in enumerate(groups):
        offset = draw(SMALL)
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), Constraint(
            LinearExpression({v.id: 1 for v in group}, offset), "=", 1 + offset, f"pick{g}"))
    objectives = []
    for _ in range(2):
        objective = tiny_linear(draw, variables)
        terms = dict(objective.terms)
        for group in groups:
            unequal = st.lists(st.integers(min_value=-1, max_value=6),
                               min_size=len(group), max_size=len(group), unique=True)
            terms.update(zip((v.id for v in group), draw(unequal)))
        objectives.append(LinearExpression(terms, objective.constant))
    return program(variables, rows, *objectives)


def assignment_program(n, seed):
    """Bi-objective n x n assignment: binaries ``x{i}_{j}``, one ``= 1`` row
    per row and per column, and two cost matrices drawn uniform in 1..20
    (the first matrix row by row, then the second)."""
    rng = random.Random(seed)
    cells = [(i, j) for i in range(n) for j in range(n)]
    ids = {cell: "x{}_{}".format(*cell) for cell in cells}
    rows = [Constraint(expr({ids[i, j]: 1 for j in range(n)}), "=", 1, f"row:{i}")
            for i in range(n)]
    rows += [Constraint(expr({ids[i, j]: 1 for i in range(n)}), "=", 1, f"column:{j}")
             for j in range(n)]
    objectives = [expr({ids[cell]: rng.randint(1, 20) for cell in cells}) for _ in range(2)]
    return program([binary(ids[cell]) for cell in cells], rows, *objectives)


def knapsack_program(n, seed):
    """Bi-objective knapsack over n items: weights uniform in 1..100, one
    capacity row at half their sum (rounded down), and two profit vectors
    uniform in 1..100, negated so that both objectives are minimized."""
    rng = random.Random(seed)
    ids = [f"x{i}" for i in range(n)]
    weights = {vid: rng.randint(1, 100) for vid in ids}
    capacity = Constraint(expr(weights), "<=", sum(weights.values()) // 2, "capacity")
    objectives = [expr({vid: -rng.randint(1, 100) for vid in ids}) for _ in range(2)]
    return program([binary(vid) for vid in ids], [capacity], *objectives)


def feasible_assignments(prog):
    """Every assignment within the variable bounds that satisfies all rows."""
    ids = [v.id for v in prog.variables]
    for values in itertools.product(*(range(v.lower, v.upper + 1) for v in prog.variables)):
        candidate = Assignment(dict(zip(ids, values)))
        if not check_assignment(prog, candidate):
            yield candidate


def shifted(prog, expression):
    """``expression`` shifted over the partition rows of ``prog``.

    A partition row is an ``=`` row over variables declared in [0, 1] whose
    nonzero coefficients are all 1 and whose rhs less its constant is 1;
    rows sharing a variable with an earlier partition row are passed over.
    For each partition whose least coefficient in ``expression`` (0 for a
    variable it lacks) is positive, that least is taken from each of its
    variables and added to the constant.  Exactly one variable of a
    partition is 1 on any feasible point, so every feasible value is
    unchanged.
    """
    zero_one = {v.id for v in prog.variables if (v.lower, v.upper) == (0, 1)}
    terms, constant, seen = dict(expression.terms), expression.constant, set()
    for con in prog.constraints:
        members = [vid for vid, c in con.expression.terms.items() if c]
        if (con.sense == "=" and members and con.rhs - con.expression.constant == 1
                and all(con.expression.terms[vid] == 1 and vid in zero_one for vid in members)
                and seen.isdisjoint(members)):
            seen.update(members)
            least = max(0, min(terms.get(vid, 0) for vid in members))
            constant += least
            for vid in members:
                terms[vid] = terms.get(vid, 0) - least
    return LinearExpression({vid: c for vid, c in terms.items() if c}, constant)


def reference_search(prog, objective_index, bounds=((None, None), (None, None)), shift=True):
    """The search ``solve_min`` must reproduce, written plainly.

    Depth-first branch and bound on the first unfixed variable in
    declaration order, lower value first, with a cutoff one unit below the
    incumbent.  Every node starts from the declared bounds narrowed by the
    branches on its path and scans every row in full until nothing
    tightens; a node counts when that propagation finds no violated row.
    The objective rows read the ``shifted`` objectives, or the declared ones
    when ``shift`` is False.  Returns a SolveOutcome.
    """
    from evshare.solver import SolveOutcome

    if shift:
        prog = program(prog.variables, prog.constraints,
                       shifted(prog, prog.objective1), shifted(prog, prog.objective2))
    rows = []  # (terms, rhs) reading sum(c * x) <= rhs
    for con in prog.constraints:
        terms = [(vid, c) for vid, c in con.expression.terms.items() if c]
        rhs = con.rhs - con.expression.constant
        if con.sense != ">=":
            rows.append((terms, rhs))
        if con.sense != "<=":
            rows.append(([(vid, -c) for vid, c in terms], -rhs))
    for k, (lo, hi) in enumerate(bounds, start=1):
        objective = prog.objective(k)
        terms = [(vid, c) for vid, c in objective.terms.items() if c]
        if lo is not None:
            rows.append(([(vid, -c) for vid, c in terms], objective.constant - lo))
        if hi is not None:
            rows.append((terms, hi - objective.constant))
    objective = prog.objective(objective_index)
    objective_terms = [(vid, c) for vid, c in objective.terms.items() if c]
    ids = [v.id for v in prog.variables]
    best_value = best_assignment = None
    nodes = 0

    def fixpoint(path):
        lower = {v.id: v.lower for v in prog.variables}
        upper = {v.id: v.upper for v in prog.variables}
        for vid, lo, up in path:
            lower[vid], upper[vid] = max(lower[vid], lo), min(upper[vid], up)
        active = list(rows)
        if best_value is not None:
            active.append((objective_terms, best_value - 1 - objective.constant))
        changed = True
        while changed:
            changed = False
            for terms, rhs in active:
                slack = rhs - sum(c * (lower[vid] if c > 0 else upper[vid]) for vid, c in terms)
                if slack < 0:
                    return None
                for vid, c in terms:
                    if c > 0 and lower[vid] + slack // c < upper[vid]:
                        upper[vid] = lower[vid] + slack // c
                        changed = True
                    elif c < 0 and upper[vid] - slack // -c > lower[vid]:
                        lower[vid] = upper[vid] - slack // -c
                        changed = True
        return lower, upper

    def visit(path):
        nonlocal nodes, best_value, best_assignment
        domains = fixpoint(path)
        if domains is None:
            return
        nodes += 1
        lower, upper = domains
        unfixed = [vid for vid in ids if lower[vid] < upper[vid]]
        if not unfixed:
            best_assignment = Assignment(dict(lower))
            best_value = evaluate(objective, best_assignment)
            return
        vid = unfixed[0]
        visit(path + [(vid, lower[vid], lower[vid])])
        visit(path + [(vid, lower[vid] + 1, upper[vid])])

    visit([])
    if best_value is None:
        return SolveOutcome("infeasible", None, None, nodes)
    return SolveOutcome("optimal", best_assignment, best_value, nodes)


def two_stage_lexmin(prog, order, bounds=((None, None), (None, None))):
    """The two-stage lexicographic solve ``lexmin`` must agree with.

    ``solve_min`` minimizes the first listed objective within ``bounds``,
    then the other with the first pinned to its optimum.  Returns
    (status, point, assignment rendering), the last two None when
    infeasible.
    """
    from evshare.core import criterion_point
    from evshare.solver import solve_min

    first, second = order
    stage1 = solve_min(prog, first, bounds)
    if stage1.status == "infeasible":
        return "infeasible", None, None
    pinned = list(bounds)
    pinned[first - 1] = (stage1.value, stage1.value)
    stage2 = solve_min(prog, second, tuple(pinned))
    return "optimal", criterion_point(prog, stage2.assignment), stage2.assignment.rendering()


def two_search_endpoints(prog, bounds=((None, None), (None, None))):
    """The two-search endpoint rule ``lexmin_pair`` must agree with.

    ``lexmin`` finds the (z1, z2) minimum within ``bounds``, then the
    (z2, z1) minimum of the part of ``bounds`` strictly right of and below
    it; when that part holds no point, the bottom endpoint is the top one.  Returns
    (status, top, bottom), each endpoint a (point, assignment rendering)
    pair, both None when infeasible.
    """
    from evshare.solver import lexmin

    (_, hi1), (lo2, _) = bounds
    top = lexmin(prog, (1, 2), bounds)
    if top.status == "infeasible":
        return "infeasible", None, None
    bottom = lexmin(prog, (2, 1), ((top.point.z1 + 1, hi1), (lo2, top.point.z2 - 1)))
    if bottom.status == "infeasible":
        bottom = top
    return "optimal", *((out.point, out.assignment.rendering()) for out in (top, bottom))


def infeasible_program():
    """One binary forced both up and down."""
    x = binary("x")
    up = Constraint(LinearExpression({"x": 1}, 0), ">=", 2, "force-up")
    return BiObjectiveProgram(
        (x,), (up,), LinearExpression({"x": 1}, 0), LinearExpression({"x": 1}, 0))


def desk_configs(count=54):
    """The acceptance suite's desk-scale scenario configs: sizes 2x1 .. 4x2
    at T=6 under every EV/charger layout combination, seeds 1000 on."""
    from evshare.scenario import ScenarioConfig

    sizes = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2))
    combos = (("uniform", "uniform"), ("uniform", "centralized"),
              ("clustered", "uniform"), ("clustered", "centralized"))
    for index in range(count):
        n_evs, n_chargers = sizes[index % len(sizes)]
        dist, layout = combos[index % len(combos)]
        yield ScenarioConfig(
            ev_distribution=dist,
            charger_layout=layout,
            n_evs=n_evs,
            n_chargers=n_chargers,
            seed=1000 + index,
            horizon=6,
            window_length_h=3,
            earliest_start_range=(0, 3),
            demand_intervals=(1, 1 if (n_evs, n_chargers) == (4, 1) else 2),
            vot_sek_per_hour=(100, 200, 300)[index % 3],
            rental_fee_sek=(150, 400, 1500)[index % 3],
        )


def reference_half_up(fraction):
    """Round an exact Fraction to the nearest int, ties away from zero, in
    Fraction arithmetic: the reference for ``core._round_half_up``."""
    return int((2 * fraction + 1) // 2) if fraction >= 0 else -int((-2 * fraction + 1) // 2)


def reference_tariffs(prices, price_scale, collab_discount):
    """Each hour's (own, collaborative) price, theta * p and
    theta * half_up(beta * p), in Fraction arithmetic, or None when a price
    is not a whole number of minor units: the reference for
    ``scenario._tariffs``."""
    theta, beta = Fraction(str(price_scale)), Fraction(str(collab_discount))
    pairs = []
    for p in prices:
        own, collab = theta * p, theta * reference_half_up(beta * p)
        if own.denominator != 1 or collab.denominator != 1:
            return None
        pairs.append((int(own), int(collab)))
    return pairs


def reference_travel_cost(km, sek_per_km):
    """km at sek_per_km in minor units, half-up, each read as the decimal
    ``str`` prints, in Fraction arithmetic: the reference for
    ``scenario.energy_cost_matrix``."""
    return reference_half_up(Fraction(str(km)) * Fraction(str(sek_per_km)) * 100)


def certify_limit_instance():
    """Desk-shaped instance (seed 493) whose b3m2 run at 3% has three points.

    Its endpoint and rectangle searches take at most 18 nodes before its
    one certification, a single search of 19 nodes, and its standalone
    solves take 7 and 5.  So under an 18-node limit the run raises in that
    certification.
    """
    from evshare.scenario import ScenarioConfig, generate_scenario

    return generate_scenario(ScenarioConfig(
        ev_distribution="clustered", charger_layout="centralized", n_evs=2, n_chargers=2,
        seed=493, horizon=6, window_length_h=3, earliest_start_range=(0, 3),
        demand_intervals=(1, 2), vot_sek_per_hour=200, rental_fee_sek=400))


def selected_point(program, assignment):
    """Criterion point encoded by a selector assignment."""
    from evshare.core import criterion_point

    return criterion_point(program, assignment)


def reference_noncollab(instance):
    """The standalone costs as first formulated, and the outcome of each solve.

    Company k's standalone program was the two-renter program of k's own
    fleet with every rental by the other company pinned to 0 (one
    ``no-foreign-rental`` row per charger).  Returns ((z1Non, z2Non), the
    SolveOutcome of each solve made), or the InfeasibleError text in place
    of the costs when a company has no feasible standalone schedule.
    """
    from evshare.charging import build_charging_program, standalone_instance, var_rent
    from evshare.core import expr
    from evshare.solver import solve_min

    costs, outcomes = [], []
    for index, k in enumerate(instance.companies, start=1):
        sub = standalone_instance(instance, k)
        if not sub.evs:
            costs.append(0)
            continue
        prog = build_charging_program(sub)
        other = instance.other_company(k)
        pins = [Constraint(expr({var_rent(j, other): 1}), "=", 0, f"no-foreign-rental:{j}")
                for j in sub.chargers]
        outcome = solve_min(program(prog.variables, prog.constraints + tuple(pins),
                                    prog.objective1, prog.objective2), index)
        outcomes.append(outcome)
        if outcome.status == "infeasible":
            hint = reference_infeasibility_diagnostic(sub)
            detail = f" ({hint})" if hint else ""
            return f"standalone problem infeasible for company {k}{detail}", outcomes
        costs.append(outcome.value)
    return tuple(costs), outcomes


def reference_infeasibility_diagnostic(instance):
    """The first infeasibility diagnostic: EVs for which no charger and no
    duration inside the window meets the demand bounds, or None.  A
    zero-length session needs an inner boundary max(e,1) <= s <= min(l,T-1)."""
    bad = []
    for i in instance.evs:
        e, l = instance.window[i]
        span = l - e
        best = max((instance.charge_rate[i, j] for j in instance.chargers), default=0)
        lo, hi = instance.demand[i]
        if lo > best * span:
            bad.append(i)
            continue
        shortest = 0 if max(e, 1) <= min(l, instance.horizon - 1) else 1
        if not any(lo <= instance.charge_rate[i, j] * d <= hi
                   for j in instance.chargers for d in range(shortest, span + 1)):
            bad.append(i)
    if bad:
        return "no feasible session for EV " + ", ".join(bad)
    return None


@st.composite
def edited_desk_instances(draw):
    """Desk-scale generated instances in which each EV may be edited to need
    no energy (optionally with an empty window), to get a window one
    interval shorter than its demand, or to charge at rate 0 at some
    chargers."""
    import dataclasses

    from evshare.scenario import ScenarioError, generate_scenario

    config = draw(st.sampled_from(list(desk_configs(6))))
    try:
        instance = generate_scenario(dataclasses.replace(
            config, seed=draw(st.integers(min_value=0, max_value=10**6))))
    except ScenarioError:
        reject()
    window, demand, rate = dict(instance.window), dict(instance.demand), dict(instance.charge_rate)
    for i in instance.evs:
        edit = draw(st.sampled_from(
            ("keep", "keep", "zero-demand", "empty-window", "short-window", "zero-rate")))
        e, l = window[i]
        if edit == "zero-demand":
            demand[i] = (0, draw(st.sampled_from((0, demand[i][1]))))
        elif edit == "empty-window":
            demand[i] = (0, 0)
            window[i] = (e, e)
        elif edit == "short-window":
            need = max(-(-demand[i][0] // instance.charge_rate[i, j]) for j in instance.chargers)
            window[i] = (e, e + need - 1)
        elif edit == "zero-rate":
            for j in draw(st.sets(st.sampled_from(instance.chargers), min_size=1)):
                rate[i, j] = 0
    return dataclasses.replace(instance, window=window, demand=demand, charge_rate=rate)
