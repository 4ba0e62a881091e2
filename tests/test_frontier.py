import dataclasses
import hashlib
import math
import types
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from evshare import frontier, solver
from evshare.bargaining import BargainError, ReferencePoints, reference_points
from evshare.core import CriterionPoint, check_assignment, criterion_point, pareto_filter
from evshare.frontier import (
    METHODS,
    FrontierError,
    FrontierResult,
    ParticipationPoint,
    assignment_refs,
    compute_margins,
    cts_metric,
    frontier_from_csv,
    frontier_to_csv,
    gap_metric,
    participation_caps,
    run_method,
    stats_from_csv,
    stats_to_csv,
    strictly_close,
)
from evshare.oracle import OracleError, charging_frontier, noncollab_costs
from evshare.scenario import ScenarioConfig, ScenarioError, generate_scenario, t1_instance
from evshare.charging import (
    InfeasibleError,
    build_charging_program,
    decode_schedule,
    infeasibility_diagnostic,
    noncollab_point,
)
from evshare.solver import OPEN, SolverError, lexmin, lexmin_pair, solve_min

from helpers import (
    assignment_program,
    certify_limit_instance,
    desk_configs,
    feasible_assignments,
    feasible_tiny_programs,
    knapsack_program,
    make_point_program,
    tiny_programs,
    two_search_endpoints,
)

P = CriterionPoint

point_sets = st.lists(
    st.tuples(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60)),
    min_size=1,
    max_size=8,
)

# Instances small enough for the oracle: 1-4 EVs (so a company may have none),
# 1-2 chargers, 4-6 intervals, free waiting or rentals, and equal tariffs at beta = 1.
tiny_scenarios = st.builds(
    ScenarioConfig,
    ev_distribution=st.sampled_from(("uniform", "clustered")),
    charger_layout=st.sampled_from(("uniform", "centralized")),
    n_evs=st.integers(min_value=1, max_value=4),
    n_chargers=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
    horizon=st.integers(min_value=4, max_value=6),
    window_length_h=st.integers(min_value=2, max_value=4),
    earliest_start_range=st.just((0, 3)),
    demand_intervals=st.sampled_from(((1, 1), (1, 2))),
    vot_sek_per_hour=st.sampled_from((0, 50, 100, 300)),
    rental_fee_sek=st.sampled_from((0, 50, 150, 400)),
    collab_discount=st.sampled_from((0.5, 0.75, 1)),
)


# -- margins and closeness ---------------------------------------------------

def test_compute_margins_examples():
    assert compute_margins(Fraction(3, 100), P(10000, 50000), P(40000, 5000)) == (300, 150)
    assert compute_margins(0, P(10000, 50000), P(40000, 5000)) == (0, 0)
    assert compute_margins(Fraction(5, 100), P(20000, 90000), P(60000, 4000)) == (1000, 200)
    # A margin is a distance: negative extremes give the same margins.
    assert compute_margins(Fraction(3, 100), P(-10000, 50000), P(40000, -5000)) == (300, 150)


def test_compute_margins_rounds_half_up():
    m = compute_margins(Fraction(3, 100), P(50, 99), P(99, 50))
    assert m == (2, 2)  # 1.5 rounds away from zero


def test_compute_margins_rejects_negative_tolerance():
    with pytest.raises(FrontierError):
        compute_margins(-1, P(1, 1), P(1, 1))


def test_strictly_close_examples():
    m = (5, 10)
    anchor = (P(100, 200),)
    assert strictly_close(P(103, 195), anchor, m)
    assert not strictly_close(P(103, 215), anchor, m)
    assert strictly_close(P(100, 200), anchor, m)
    assert not strictly_close(P(103, 195), (), m)
    # boundary is inclusive
    assert strictly_close(P(105, 210), anchor, m)
    assert not strictly_close(P(106, 210), anchor, m)



# -- participation and endpoints ----------------------------------------------

def test_participation_caps():
    assert participation_caps(ParticipationPoint(5, 4)) == ((None, 5), (None, 4))
    assert participation_caps(None) == OPEN
    prog = make_point_program([(1, 9), (3, 4), (6, 1)])
    assert solve_min(prog, 1, participation_caps(ParticipationPoint(5, 4))).value == 3
    assert solve_min(prog, 2, participation_caps(ParticipationPoint(5, 4))).value == 4


def lexmin_calls(monkeypatch):
    """Record (order, bounds, point) of every lexicographic search a run
    makes; the endpoint search records order "pair" and (top, bottom)."""
    calls = []

    def recording(program, order, bounds, node_limit=None):
        out = lexmin(program, order, bounds, node_limit)
        calls.append((order, bounds, out.point))
        return out

    def recording_pair(program, bounds, node_limit=None):
        out = lexmin_pair(program, bounds, node_limit)
        calls.append(("pair", bounds, (out.top[0], out.bottom[0])))
        return out

    monkeypatch.setattr("evshare.solver.lexmin", recording)
    monkeypatch.setattr("evshare.solver.lexmin_pair", recording_pair)
    return calls


def test_initial_box_example(monkeypatch):
    calls = lexmin_calls(monkeypatch)
    prog = make_point_program([(2, 9), (5, 5), (9, 2)])
    result = run_method(prog, ParticipationPoint(20, 20), "bbox")
    caps = ((None, 20), (None, 20))
    # Both endpoints from one search of the participation region, then the
    # bottom half of the rectangle between them, without its corners' rows
    # and columns.
    assert calls[:2] == [("pair", caps, (P(2, 9), P(9, 2))),
                         ((1, 2), ((3, 8), (3, 5)), P(5, 5))]
    for point, assignment in result.points:
        assert criterion_point(prog, assignment) == point


def test_desk_endpoints_match_two_searches():
    # The one endpoint search records the points and witnesses of the
    # two-search rule on desk instances.
    for config in desk_configs(12):
        instance = generate_scenario(config)
        program = build_charging_program(instance)
        participation = noncollab_point(instance)
        status, *ends = two_search_endpoints(program, participation_caps(participation))
        run = frontier._Run(program, participation, None)
        got = run.endpoints()
        assert frontier.endpoints(program, participation) == got
        if status == "infeasible":
            assert (got, run.recorded) == (None, {})
            continue
        assert got == tuple(point for point, _ in ends)
        assert {point: a.rendering() for point, a in run.recorded.items()} == dict(ends)


def test_initial_box_empty_region():
    prog = make_point_program([(5, 5)])
    # the second region has one cap slack, the other binding: still empty
    for participation in (ParticipationPoint(4, 4), ParticipationPoint(9, 4)):
        got = run_method(prog, participation)
        assert (got.status, got.points, got.solver_calls) == ("no-collaboration", (), 1)


def test_initial_box_singleton():
    got = run_method(make_point_program([(5, 5)]))
    assert got.criterion_points() == (P(5, 5),)
    # both endpoints are the one point: no rectangle to search
    assert (got.solver_calls, got.rectangles_processed) == (1, 0)


# -- the rectangle engine ----------------------------------------------------

@pytest.mark.parametrize("method, epsilon, points, searches", [
    # bottom half at or below the mid line, then the top half above it and
    # left of the bottom corner, both inside the open rectangle
    ("bbox", 0, [(10, 100), (90, 20)],
     [((11, 89), (21, 60)), ((11, 89), (60, 99))]),
    ("bbox", 0, [(0, 5), (4, 0)],
     [((1, 3), (1, 2)), ((1, 3), (2, 4))]),  # floor of the midpoint 2.5
    # margins (5, 5) shrink the box to the line z2 = 15, its own bottom half;
    # the top search would start a margin above the point found there
    ("b3m2", 50, [(10, 20), (20, 15), (30, 10)],
     [((15, 25), (15, 15))]),
], ids=["even-extent", "odd-extent", "flat-shrunk-box"])
def test_rectangles_split_at_the_floor_midpoint(monkeypatch, method, epsilon, points, searches):
    calls = lexmin_calls(monkeypatch)
    run_method(make_point_program(points), None, method, epsilon)
    assert [bounds for _, bounds, _ in calls[1:1 + len(searches)]] == searches


def run_points(prog, method, epsilon=0, participation=None):
    return set(run_method(prog, participation, method, epsilon).criterion_points())


def test_bbox_three_point_staircase():
    prog = make_point_program([(10, 100), (50, 50), (90, 20), (60, 60)])
    got = run_method(prog, None, "bbox")
    assert set(got.criterion_points()) == {P(10, 100), P(50, 50), P(90, 20)}
    assert got.status == "ok"
    assert got.rectangles_processed >= 1
    # witnesses evaluate back to their points
    for point, assignment in got.points:
        assert check_assignment(prog, assignment) == []
        assert criterion_point(prog, assignment) == point


@pytest.mark.parametrize("method", METHODS)
def test_run_nodes_sum_every_solve(method, monkeypatch):
    solves = []

    def counting(solve):
        def counted(*args):
            out = solve(*args)
            solves.append(out.nodes_explored)
            return out
        return counted

    # Every branch-and-bound search, through any solver entry point.
    monkeypatch.setattr("evshare.solver.solve_min", counting(solve_min))
    monkeypatch.setattr("evshare.solver.lexmin", counting(lexmin))
    monkeypatch.setattr("evshare.solver.lexmin_pair", counting(lexmin_pair))
    prog = make_point_program([(10, 100), (30, 70), (50, 50), (90, 20)])
    result = run_method(prog, None, method, 30)
    assert (result.solver_calls, result.nodes) == (len(solves), sum(solves))
    solves.clear()
    result = run_method(prog, ParticipationPoint(5, 5), method, 30)
    assert result.status == "no-collaboration"
    assert (result.solver_calls, result.nodes) == (len(solves), sum(solves)) == (1, 0)


def test_search_kinds_sum_to_the_run_counts_on_desk(monkeypatch):
    # Per-kind counts sum to each desk run's solver calls and nodes; the
    # endpoint kind is the one pair search, the other kinds the run's
    # lexicographic searches.
    pairs, searches = [], []

    def counting(solve, into):
        def counted(*args):
            out = solve(*args)
            into.append(out.nodes_explored)
            return out
        return counted

    monkeypatch.setattr("evshare.solver.lexmin_pair", counting(lexmin_pair, pairs))
    monkeypatch.setattr("evshare.solver.lexmin", counting(lexmin, searches))
    for config in desk_configs():
        instance = generate_scenario(config)
        program = build_charging_program(instance)
        participation = noncollab_point(instance)
        for method, epsilon in (("bbox", 0), ("b3m1", 3), ("b3m2", 3)):
            pairs.clear()
            searches.clear()
            run = run_method(program, participation, method, epsilon)
            assert tuple(run.searches) == frontier.SEARCH_KINDS
            assert tuple(map(sum, zip(*run.searches.values()))) == (run.solver_calls, run.nodes)
            assert run.searches["endpoints"] == (len(pairs), sum(pairs)) == (1, pairs[0])
            rest = [run.searches[kind] for kind in ("bottom", "top", "certification")]
            assert tuple(map(sum, zip(*rest))) == (len(searches), sum(searches))


def test_engine_solver_call_accounting():
    prog = make_point_program([(1, 3), (3, 1)])
    result = run_method(prog, None, "bbox")
    # one endpoint search + one rectangle with one lexicographic search on
    # each half
    assert result.solver_calls == 3
    assert result.rectangles_processed == 1
    # at zero tolerance b3m2 makes bbox's searches and certifies nothing
    assert run_method(prog, None, "b3m2", 0).solver_calls == 3


def test_t1_bbox_matches_oracle():
    inst = t1_instance()
    prog = build_charging_program(inst)
    participation = ParticipationPoint(*noncollab_costs(inst))
    got = run_method(prog, participation, "bbox")
    assert set(got.criterion_points()) == {P(2100, 2100)}
    assert got.status == "ok"


def check_frontiers_against_the_oracle(inst):
    """bbox equals the oracle; b3m1/b3m2 at 3% are subsets keeping both endpoints.

    Returns the exact frontier and the three runs, keyed by method.
    """
    prog = build_charging_program(inst)
    participation = noncollab_point(inst)
    noncollab = noncollab_costs(inst)
    assert (participation.z1_non, participation.z2_non) == noncollab
    exact = set(charging_frontier(inst, participation=noncollab))
    runs = {"bbox": run_method(prog, participation, "bbox")}
    assert set(runs["bbox"].criterion_points()) == exact
    assert runs["bbox"].status == ("ok" if exact else "no-collaboration")
    endpoints = {min(exact), min(exact, key=lambda p: (p.z2, p.z1))} if exact else set()
    for method in ("b3m1", "b3m2"):
        runs[method] = run_method(prog, participation, method, 3)
        assert endpoints <= set(runs[method].criterion_points()) <= exact
    return exact, runs


@given(tiny_scenarios)
@settings(max_examples=60, deadline=None)
def test_frontiers_match_the_oracle_on_random_instances(config):
    try:
        inst = generate_scenario(config)
    except ScenarioError:
        reject()
    check_frontiers_against_the_oracle(inst)


# (solver calls, branch-and-bound nodes) of each method's run on the long
# frontiers below: any change to the search tree moves a node total.
LONG_FRONTIER_COUNTS = {
    93: {"bbox": (9, 927), "b3m1": (5, 605), "b3m2": (6, 637)},
    145: {"bbox": (9, 587), "b3m1": (7, 483), "b3m2": (9, 592)},
}


@pytest.mark.parametrize("seed, costs", [
    (93, dict(vot_sek_per_hour=20, rental_fee_sek=50, collab_discount=0.9)),
    (145, dict(vot_sek_per_hour=100, rental_fee_sek=0, collab_discount=0.7)),
])
def test_long_frontiers_match_the_oracle(seed, costs):
    # Five-point frontiers: bbox finds them all only by searching the child
    # rectangles below recorded points, which short random frontiers rarely need.
    inst = generate_scenario(ScenarioConfig(
        n_evs=5, n_chargers=2, horizon=6, window_length_h=3, earliest_start_range=(0, 3),
        demand_intervals=(1, 2), seed=seed, **costs))
    exact, runs = check_frontiers_against_the_oracle(inst)
    assert len(exact) == 5
    assert {method: (run.solver_calls, run.nodes)
            for method, run in runs.items()} == LONG_FRONTIER_COUNTS[seed]


def test_b3m1_requeues_the_top_part_above_a_pruned_point():
    # The first rectangle's top search finds (27634, 23131) within the
    # margins of the bottom point (27641, 22726) it has just recorded, so
    # b3m1 drops it and re-queues the rectangle between the top corner and
    # that bottom point.  Its two searches find (27634, 23131) and
    # (27591, 23626), both close to a corner: the frontier stays the same,
    # and the re-queue shows in the third rectangle and its two calls.
    inst = generate_scenario(ScenarioConfig(
        ev_distribution="clustered", charger_layout="centralized", n_evs=4, n_chargers=2,
        seed=163, horizon=6, window_length_h=3, earliest_start_range=(0, 3),
        demand_intervals=(1, 2), vot_sek_per_hour=100, rental_fee_sek=150))
    participation = noncollab_point(inst)
    got = run_method(build_charging_program(inst), participation, "b3m1", 3)
    assert [p.as_tuple() for p in got.criterion_points()] == [
        (27584, 24031), (27641, 22726), (34341, 21641)]
    assert (got.solver_calls, got.rectangles_processed) == (7, 3)
    exact = charging_frontier(inst, participation=(participation.z1_non, participation.z2_non))
    assert set(got.criterion_points()) < set(exact)


# sha256 over each run's status, rectangles, solver calls, points and the
# schedule each witness decodes to: bbox, b3m1 at 3% and b3m2 at 3% on the
# first 12 desk instances.  It pins what a run returns, not how its searches
# get there nor how the program names its variables, so it holds for any
# search boxes that are exact and any formulation whose witnesses decode to
# the same schedules.  DESK_CALLS pins each method's solver calls apart.
DESK_OUTCOMES = "75435721fa2e21d0d2933cd94323bfc1e26c9db97f57308ada60940f4d23b3fe"
DESK_CALLS = {"bbox": 30, "b3m1": 30, "b3m2": 28}


def test_desk_frontier_outcomes_are_pinned():
    digest = hashlib.sha256()
    calls = dict.fromkeys(METHODS, 0)
    for config in desk_configs(12):
        instance = generate_scenario(config)
        program = build_charging_program(instance)
        participation = noncollab_point(instance)
        for method, epsilon in (("bbox", 0), ("b3m1", 3), ("b3m2", 3)):
            run = run_method(program, participation, method, epsilon)
            calls[method] += run.solver_calls
            schedules = [decode_schedule(assignment, instance, program)
                         for _, assignment in run.points]
            digest.update(repr((method, run.status, run.rectangles_processed, run.solver_calls,
                                [(point.as_tuple(), schedule.rentals, schedule.sessions)
                                 for point, schedule in zip(run.criterion_points(), schedules)])
                               ).encode())
    assert digest.hexdigest() == DESK_OUTCOMES
    assert calls == DESK_CALLS


def outcome(run):
    """A run's points, witnesses and search counts, comparable across methods."""
    return ([(point.as_tuple(), assignment.rendering()) for point, assignment in run.points],
            run.solver_calls, run.nodes, run.rectangles_processed)


def test_zero_margin_runs_are_bbox_on_desk():
    # At zero tolerance b3m1 drops nothing and b3m2 pulls each box in by one
    # unit, as bbox does, so it certifies nothing: all three make bbox's
    # searches.
    for config in desk_configs():
        instance = generate_scenario(config)
        program = build_charging_program(instance)
        participation = noncollab_point(instance)
        bbox = outcome(run_method(program, participation, "bbox"))
        for method in ("b3m1", "b3m2"):
            assert outcome(run_method(program, participation, method, 0)) == bbox


# Seed 4 gives the 4x4 assignment five points, one of which b3m1 drops at 5%.
@pytest.mark.parametrize("prog", [assignment_program(4, 4), knapsack_program(12, 1)],
                         ids=["assignment-4x4", "knapsack-12"])
def test_frontiers_match_enumeration_on_classic_programs(prog):
    exact = pareto_filter(criterion_point(prog, a) for a in feasible_assignments(prog))
    bbox = run_method(prog, None, "bbox")
    assert set(bbox.criterion_points()) == exact
    assert_witnesses(prog, bbox)
    endpoints = {min(exact), min(exact, key=lambda p: (p.z2, p.z1))}
    for method in ("b3m1", "b3m2"):
        for epsilon in (0, 1, 3, 5):
            run = run_method(prog, None, method, epsilon)
            assert endpoints <= set(run.criterion_points()) <= exact
            assert_witnesses(prog, run)
            if epsilon == 0:
                assert outcome(run) == outcome(bbox)


# (solver calls, branch-and-bound nodes) of b3m2 at 1% and 3% on bi-objective
# assignment programs, keyed by (n, seed): their margins are a few units, so
# the certification rule shows in both counts.
ASSIGNMENT_B3M2_COUNTS = {
    (6, 1): {1: (13, 568), 3: (13, 568)},
    (6, 2): {1: (7, 240), 3: (5, 212)},
    (8, 1): {1: (21, 2358), 3: (21, 2358)},
    (8, 2): {1: (11, 1121), 3: (11, 1121)},
}


@pytest.mark.parametrize("n, seed", sorted(ASSIGNMENT_B3M2_COUNTS))
def test_b3m2_counts_on_assignment_programs_are_pinned(n, seed):
    prog = assignment_program(n, seed)
    assert {epsilon: (run.solver_calls, run.nodes) for epsilon in (1, 3)
            for run in [run_method(prog, None, "b3m2", epsilon)]} == ASSIGNMENT_B3M2_COUNTS[n, seed]


def t1_variant(**changes):
    """T1 with some EVs' entries of the named per-EV fields replaced."""
    inst = t1_instance()
    return dataclasses.replace(
        inst, **{name: {**getattr(inst, name), **values} for name, values in changes.items()})


@pytest.mark.parametrize("changes, noncollab", [
    (dict(demand={"v2": (0, 0)}), (2100, 300)),
    (dict(demand={"v1": (0, 10), "v2": (0, 5)}), (300, 300)),
    (dict(window={"v2": (2, 2)}, demand={"v2": (0, 0)}), (2100, 100)),
    (dict(demand={"v1": (5, 10)}), (1600, 2100)),
], ids=["zero-demand", "lo-zero-ranges", "zero-demand-empty-window", "range-demand"])
def test_edge_case_instances_match_the_oracle(changes, noncollab):
    # Sessions the generator never draws: zero duration, optional charge,
    # an empty window and a choice of durations.
    inst = t1_variant(**changes)
    assert noncollab_costs(inst) == noncollab
    check_frontiers_against_the_oracle(inst)


def test_infeasible_window_is_refused_by_both_paths():
    inst = t1_variant(window={"v1": (0, 1)})  # one interval for two intervals of demand
    with pytest.raises(InfeasibleError, match="v1"):
        noncollab_point(inst)
    with pytest.raises(OracleError):
        noncollab_costs(inst)


@pytest.mark.parametrize("window", [(0, 0), (4, 4)])
def test_zero_demand_at_the_horizon_edge_is_diagnosed(window):
    # A zero-length session needs an inner boundary 1..T-1 inside the window.
    inst = t1_variant(window={"v2": window}, demand={"v2": (0, 0)})
    with pytest.raises(InfeasibleError, match="no feasible session for EV v2"):
        noncollab_point(inst)
    # An inner boundary still admits one; the zero-demand-empty-window case
    # of test_edge_case_instances_match_the_oracle solves it.
    inner = t1_variant(window={"v2": (2, 2)}, demand={"v2": (0, 0)})
    assert infeasibility_diagnostic(inner) is None


def test_no_collaboration_status():
    prog = make_point_program([(5, 5)])
    got = run_method(prog, ParticipationPoint(4, 4), "b3m1", 3)
    assert got.status == "no-collaboration"
    assert got.points == ()
    assert got.solver_calls == 1  # one failed endpoint search


def test_participation_caps_apply_to_every_method():
    prog = make_point_program([(1, 9), (5, 5), (9, 1)])
    for method in METHODS:
        assert run_points(prog, method, 0, ParticipationPoint(5, 5)) == {P(5, 5)}


def test_bbox_ignores_epsilon():
    prog = make_point_program([(10, 100), (50, 50), (90, 20)])
    got = run_method(prog, None, "bbox", 50)
    assert got.epsilon == 0
    assert len(got.points) == 3


def test_unknown_method_and_bad_epsilon():
    prog = make_point_program([(1, 1)])
    with pytest.raises(FrontierError):
        run_method(prog, None, "nsga2")
    with pytest.raises(FrontierError):
        run_method(prog, None, "b3m1", -1)


def test_epsilon_accepts_decimal_strings():
    prog = make_point_program([(10, 100), (50, 50), (90, 20)])
    got = run_method(prog, None, "b3m1", "2.5")
    assert got.epsilon == Fraction(5, 2)


def test_b3m2_huge_epsilon_keeps_only_endpoints():
    prog = make_point_program([(10, 100), (50, 50), (90, 20)])
    got = run_points(prog, "b3m2", 200)
    assert got == {P(10, 100), P(90, 20)}


def test_reduced_methods_drop_near_duplicates():
    # at 20% the margins are (2, 4): (50, 50) and (52, 48) merge
    prog = make_point_program([(10, 100), (50, 50), (52, 48), (90, 20)])
    exact = run_points(prog, "bbox")
    assert exact == {P(10, 100), P(50, 50), P(52, 48), P(90, 20)}
    for method in ("b3m1", "b3m2"):
        reduced = run_points(prog, method, 20)
        assert reduced < exact
        assert {P(10, 100), P(90, 20)} <= reduced
        assert not {P(50, 50), P(52, 48)} <= reduced


def test_methods_agree_exactly_at_zero_tolerance():
    prog = make_point_program([(3, 40), (7, 31), (8, 30), (15, 22), (16, 21), (30, 5)])
    exact = outcome(run_method(prog, None, "bbox"))
    for method in ("b3m1", "b3m2"):
        assert outcome(run_method(prog, None, method, 0)) == exact


def test_b3m2_node_limit_during_certification_raises():
    inst = certify_limit_instance()
    prog = build_charging_program(inst)
    participation = noncollab_point(inst)
    assert len(run_method(prog, participation, "b3m2", 3).points) == 3
    with pytest.raises(SolverError, match="node limit 18 exhausted") as raised:
        run_method(prog, participation, "b3m2", 3, node_limit=18)
    assert "certify_nondominated" in {entry.name for entry in raised.traceback}


def test_result_points_are_sorted_and_nondominated():
    prog = make_point_program([(3, 40), (7, 31), (8, 30), (15, 22), (16, 21), (30, 5)])
    for method in METHODS:
        pts = run_method(prog, None, method, 4).criterion_points()
        assert all(a.z1 < b.z1 and a.z2 > b.z2 for a, b in zip(pts, pts[1:]))


@given(point_sets)
@settings(max_examples=50, deadline=None)
def test_bbox_equals_pareto_filter(raw):
    prog = make_point_program(raw)
    assert run_points(prog, "bbox") == pareto_filter({P(*p) for p in raw})


@st.composite
def capped_programs(draw):
    """A feasible tiny program, its enumerated criterion points, and
    participation caps within two units of one of those points, or None."""
    prog = draw(feasible_tiny_programs())
    points = [criterion_point(prog, a) for a in feasible_assignments(prog)]
    participation = None
    if points and draw(st.booleans()):
        near = draw(st.sampled_from(points))
        shift = st.integers(min_value=-2, max_value=2)
        participation = ParticipationPoint(near.z1 + draw(shift), near.z2 + draw(shift))
    return prog, points, participation


def assert_witnesses(prog, result):
    for point, assignment in result.points:
        assert check_assignment(prog, assignment) == []
        assert criterion_point(prog, assignment) == point


def run_with_limit(prog, participation, method, epsilon, node_limit):
    """The unlimited run; a run under ``node_limit`` must either raise
    SolverError or return the same points and solver calls."""
    result = run_method(prog, participation, method, epsilon)
    if node_limit is not None:
        try:
            limited = run_method(prog, participation, method, epsilon, node_limit=node_limit)
        except SolverError:
            return result
        assert (limited.points, limited.solver_calls) == (result.points, result.solver_calls)
    return result


@given(capped_programs(), st.one_of(st.none(), st.integers(min_value=1, max_value=6)))
@settings(max_examples=300, deadline=None)
def test_frontiers_match_enumeration_on_general_programs(case, node_limit):
    prog, points, participation = case
    if participation is not None:
        points = [p for p in points
                  if p.z1 <= participation.z1_non and p.z2 <= participation.z2_non]
    exact = pareto_filter(points)
    bbox = run_with_limit(prog, participation, "bbox", 0, node_limit)
    assert set(bbox.criterion_points()) == exact
    assert bbox.status == ("ok" if exact else "no-collaboration")
    assert_witnesses(prog, bbox)
    for method in ("b3m1", "b3m2"):
        assert run_with_limit(prog, participation, method, 0, node_limit).points == bbox.points
    if not exact:
        return
    z_top = min(exact)
    z_bottom = min(exact, key=lambda p: (p.z2, p.z1))
    for method in ("b3m1", "b3m2"):
        reduced = run_with_limit(prog, participation, method, 3, node_limit)
        assert {z_top, z_bottom} <= set(reduced.criterion_points()) <= exact
        assert_witnesses(prog, reduced)


@given(capped_programs())
@settings(max_examples=60, deadline=None)
def test_every_witness_is_the_least_assignment_at_its_point(case):
    # The witness rule of the module docstring: each recorded point's
    # witness is its lexicographically least feasible assignment, in
    # declaration order with lower values first -- the order in which
    # feasible_assignments yields them.
    prog, _, participation = case
    least = {}
    for assignment in feasible_assignments(prog):
        least.setdefault(criterion_point(prog, assignment), assignment)
    for caps in {None, participation}:
        runs = [run_method(prog, caps, "bbox")]
        runs += [run_method(prog, caps, method, epsilon)
                 for method in ("b3m1", "b3m2") for epsilon in (0, 5, 30)]
        for run in runs:
            for point, witness in run.points:
                assert witness == least[point], (run.method, run.epsilon, point)


@st.composite
def programs_with_caps(draw):
    """A tiny program (infeasible ones occur), its enumerated criterion
    points, and participation caps: mostly near one of those points, else
    drawn freely."""
    prog = draw(st.one_of(tiny_programs(), feasible_tiny_programs()))
    points = [criterion_point(prog, a) for a in feasible_assignments(prog)]
    shift = st.integers(min_value=-1, max_value=4)
    if points and draw(st.integers(min_value=0, max_value=3)):
        near = draw(st.sampled_from(points))
        return prog, points, ParticipationPoint(near.z1 + draw(shift), near.z2 + draw(shift))
    small = st.integers(min_value=-20, max_value=20)
    return prog, points, ParticipationPoint(draw(small), draw(small))


def two_value_certificate(prog, caps, point):
    """Non-dominance as two optimal values: the least z2 with z1 <= point.z1,
    and the least z1 with z2 <= point.z2, each inside the caps, must be the
    point's own coordinates."""
    z1_caps, z2_caps = caps
    if solve_min(prog, 2, ((None, point.z1), z2_caps)).value < point.z2:
        return False
    return solve_min(prog, 1, (z1_caps, (None, point.z2))).value >= point.z1


@given(programs_with_caps())
@settings(max_examples=200, deadline=None)
def test_searches_that_exclude_known_points_answer_as_before(case):
    prog, points, participation = case
    caps = participation_caps(participation)
    region = [p for p in points
              if p.z1 <= participation.z1_non and p.z2 <= participation.z2_non]
    if not region:
        assert frontier.endpoints(prog, participation) is None
        with pytest.raises(BargainError, match="participation region is empty"):
            reference_points(prog, participation)
        return
    z_top, z_bottom = min(region), min(region, key=lambda p: (p.z2, p.z1))
    assert frontier.endpoints(prog, participation) == (z_top, z_bottom)
    assert reference_points(prog, participation).ideal == P(
        solve_min(prog, 1, caps).value, solve_min(prog, 2, caps).value)
    nondominated = pareto_filter(region)
    for point in set(region):
        run = frontier._Run(prog, participation, None)
        certified = run.certify_nondominated(point)
        assert [calls for calls, _ in run.searches.values()] == [0, 0, 0, 1]
        assert certified == two_value_certificate(prog, caps, point) == (point in nondominated)


@given(point_sets, st.sampled_from([0, 2, 5, 10, 25]))
@settings(max_examples=50, deadline=None)
def test_reduced_methods_are_sound(raw, eps):
    prog = make_point_program(raw)
    exact = run_points(prog, "bbox")
    z_top = min(exact, key=lambda p: (p.z1, p.z2))
    z_bottom = min(exact, key=lambda p: (p.z2, p.z1))
    for method in ("b3m1", "b3m2"):
        got = run_points(prog, method, eps)
        assert got <= exact
        assert z_top in got and z_bottom in got
        if eps == 0:
            assert got == exact


@given(point_sets)
@settings(max_examples=30, deadline=None)
def test_reduced_methods_respect_participation(raw):
    cap = ParticipationPoint(30, 30)
    prog = make_point_program(raw)
    feasible = {P(*p) for p in raw if p[0] <= 30 and p[1] <= 30}
    for method in METHODS:
        got = run_method(prog, cap, method, 5)
        if not feasible:
            assert got.status == "no-collaboration"
        else:
            assert got.status == "ok"
            assert all(p.z1 <= 30 and p.z2 <= 30 for p in got.criterion_points())


def test_runs_are_deterministic():
    prog = make_point_program([(3, 40), (7, 31), (8, 30), (15, 22), (30, 5)])
    for method in METHODS:
        a = run_method(prog, None, method, 5)
        b = run_method(prog, None, method, 5)
        assert a.points == b.points
        assert a.solver_calls == b.solver_calls
        assert a.rectangles_processed == b.rectangles_processed


# -- metrics -------------------------------------------------------------------

def test_gap_metric_worked_example():
    exact = [P(10, 100), P(50, 50), P(90, 20)]
    reduced = [P(10, 100), P(90, 20)]
    got = gap_metric(exact, reduced, P(10, 100), P(90, 20))
    want = math.hypot(40 / 10, 30 / 20) / math.sqrt(2) * 100
    assert got == pytest.approx(want)
    assert round(got, 1) == 302.1


def test_gap_metric_zero_when_nothing_dropped():
    pts = [P(10, 100), P(90, 20)]
    assert gap_metric(pts, pts, P(10, 100), P(90, 20)) == 0.0
    # whatever the normalizers: a one-EV instance's bottom endpoint has z2 = 0
    single = [P(155329, 0)]
    assert gap_metric(single, single, P(155329, 0), P(155329, 0)) == 0.0
    pts = [P(0, 100), P(90, 0)]
    assert gap_metric(pts, pts, P(0, 100), P(90, 0)) == 0.0


def test_gap_metric_error_cases():
    exact = [P(10, 100), P(90, 20)]
    with pytest.raises(FrontierError):
        gap_metric(exact, [], P(10, 100), P(90, 20))
    with pytest.raises(FrontierError):
        gap_metric(exact, [P(33, 33)], P(10, 100), P(90, 20))
    # a dropped point needs both normalizers
    dropped = [P(0, 100), P(50, 50), P(90, 0)]
    with pytest.raises(FrontierError, match="zero normalization bound"):
        gap_metric(dropped, [P(0, 100), P(90, 0)], P(0, 100), P(90, 0))
    with pytest.raises(FrontierError, match="zero normalization bound"):
        gap_metric([P(10, 100), P(50, 50), P(90, 0)], [P(10, 100), P(90, 0)],
                   P(10, 100), P(90, 0))


def test_cts_metric_examples():
    assert cts_metric(4492.7, 1083.4) == pytest.approx((4492.7 - 1083.4) / 4492.7 * 100)
    assert round(cts_metric(4492.7, 1083.4), 1) == 75.9
    assert round(cts_metric(1137.8, 1169.6), 1) == -2.8
    assert cts_metric(7.0, 7.0) == 0.0
    with pytest.raises(FrontierError):
        cts_metric(0.0, 1.0)
    with pytest.raises(FrontierError):
        cts_metric(-3.0, 1.0)


# -- CSV artifacts ---------------------------------------------------------------

def test_frontier_csv_round_trip():
    prog = make_point_program([(10, 100), (50, 50), (90, 20)])
    result = run_method(prog, None, "b3m1", 5)
    text = frontier_to_csv(result)
    method, epsilon, rows = frontier_from_csv(text)
    assert method == "b3m1"
    assert epsilon == Fraction(5)
    assert [p for p, _ in rows] == list(result.criterion_points())
    assert [ref for _, ref in rows] == list(assignment_refs(result))
    assert text.splitlines()[0] == "method,epsilon,index,z1,z2,assignment_ref"


def test_frontier_csv_rejects_garbage():
    with pytest.raises(FrontierError):
        frontier_from_csv("not,a,frontier\n")
    good = ("method,epsilon,index,z1,z2,assignment_ref\n"
            "b3m1,5,0,10,100,b3m1-0\n")
    with pytest.raises(FrontierError):
        frontier_from_csv(good + "b3m2,5,1,90,20,b3m2-1\n")
    with pytest.raises(FrontierError):
        frontier_from_csv(good + "b3m1,5,1,ninety,20,b3m1-1\n")
    with pytest.raises(FrontierError):
        frontier_from_csv(good + "b3m1,5,1,90\n")
    with pytest.raises(FrontierError, match="mixes runs: b3m1 at epsilon 3, b3m1 at epsilon 5"):
        frontier_from_csv(good + "b3m1,3,1,90,20,b3m1-1\n")
    # the same epsilon written another way is one run
    assert frontier_from_csv(good + "b3m1,5.0,1,90,20,b3m1-1\n")[:2] == ("b3m1", 5)


def test_stats_csv_wall_ms_keeps_microseconds():
    run = run_method(make_point_program([(1, 3), (3, 1)]), None, "bbox")
    text = stats_to_csv([dataclasses.replace(run, wall_time=0.0016234)])
    assert text.splitlines()[1].split(",")[4] == "1.623"
    assert stats_from_csv(text)[0]["wall_ms"] == 1.623
    header = "method,epsilon,ndp,solver_calls,wall_ms,gap_pct,cts_pct\n"
    assert stats_from_csv(header + "bbox,0,2,8,23,,\n")[0]["wall_ms"] == 23  # whole ms
    with pytest.raises(FrontierError, match="row 2"):
        stats_from_csv(header + "bbox,0,2,8,nan,,\n")


def test_wall_time_leaves_out_the_compile(monkeypatch):
    """A fake clock that jumps 1000 s whenever a program is compiled: the
    first run on a fresh program compiles it before its clock starts, so
    its wall time, like the second run's, sees none of the jump."""
    clock = [0.0]

    class SlowCompiled(solver._Compiled):
        def __init__(self, program):
            super().__init__(program)
            clock[0] += 1000.0

    monkeypatch.setattr(solver, "_Compiled", SlowCompiled)
    monkeypatch.setattr(frontier, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    prog = make_point_program([(10, 100), (50, 50), (90, 20)])
    first = run_method(prog, None, "bbox")
    second = run_method(prog, None, "b3m2", 5)
    assert clock[0] == 1000.0
    assert (first.wall_time, second.wall_time) == (0.0, 0.0)
    assert len(first.points) == 3


def test_stats_csv_round_trip():
    prog = make_point_program([(10, 100), (50, 50), (90, 20)])
    result = run_method(prog, None, "b3m2", Fraction(5, 2))
    text = stats_to_csv([result])
    lines = text.splitlines()
    assert lines[0] == "method,epsilon,ndp,solver_calls,wall_ms,gap_pct,cts_pct"
    assert lines[1].startswith(f"b3m2,2.5,{len(result.points)},{result.solver_calls},")
    assert lines[1].endswith(",,")   # a single run has no gap or CTS baseline
    back = stats_from_csv(text)
    assert back[0]["method"] == "b3m2"
    assert back[0]["epsilon"] == Fraction(5, 2)
    assert back[0]["ndp"] == len(result.points)
    assert set(back[0]) == {"method", "epsilon", "ndp", "solver_calls", "wall_ms"}
    # files that carry the two columns still read; nothing reads the values
    header = lines[0] + "\n"
    assert stats_from_csv(header + "b3m2,2.5,2,8,1.5,12.3,40.0\n")[0]["wall_ms"] == 1.5
    with pytest.raises(FrontierError):
        stats_from_csv("wrong,header\n")


def test_status_follows_the_points():
    assert "status" not in {field.name for field in dataclasses.fields(FrontierResult)}
    empty = FrontierResult("oracle", Fraction(0), (), 0.0, 0)
    assert empty.status == "no-collaboration"
    assert (empty.solver_calls, empty.nodes) == (0, 0)
    run = run_method(make_point_program([(1, 3), (3, 1)]), None, "bbox")
    assert run.status == "ok"


def test_ideal_from_any_frontier_equals_the_endpoint_ideal():
    """Every method keeps both endpoints, so the per-axis minima of its
    points are the ideal the two endpoint searches give."""
    for config in desk_configs(12):
        instance = generate_scenario(config)
        prog = build_charging_program(instance)
        participation = noncollab_point(instance)
        disagreement = P(participation.z1_non, participation.z2_non)
        refs = reference_points(prog, participation)
        for method, eps in (("bbox", 0), ("b3m1", 3), ("b3m2", 3)):
            run = run_method(prog, participation, method, eps)
            got = ReferencePoints.from_points(run.criterion_points(), disagreement)
            assert got == refs, (config.seed, method)
    with pytest.raises(BargainError, match="no frontier points"):
        ReferencePoints.from_points((), P(1, 1))
