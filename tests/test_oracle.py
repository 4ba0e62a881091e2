import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from evshare.charging import (
    InfeasibleError,
    Schedule,
    build_charging_program,
    company_cost,
    decode_schedule,
    encode_schedule,
    infeasibility_diagnostic,
    noncollab_point,
    validate_schedule,
)
from evshare.core import CriterionPoint, check_assignment, criterion_point
from evshare.frontier import run_method
from evshare.oracle import (
    BudgetExceeded,
    OracleBudget,
    OracleError,
    _enumerate_schedules,
    _search_space,
    charging_frontier,
    noncollab_costs,
    standalone_minimum,
)
from evshare.scenario import ScenarioConfig, generate_scenario, t1_instance

from helpers import desk_configs, edited_desk_instances


def test_t1_frontier_is_the_single_shared_optimum():
    inst = t1_instance()
    participation = noncollab_costs(inst)
    assert participation == (2100, 2100)
    frontier = charging_frontier(inst, participation=participation)
    assert set(frontier) == {CriterionPoint(2100, 2100)}


def test_unconstrained_frontier_allows_free_riding():
    # halve the collaborative tariff: riding on the other company's rental
    # then beats standalone, but only outside the participation caps
    inst = t1_instance()
    cheap = dataclasses.replace(
        inst, energy_fee_collab={k: 50 for k in inst.energy_fee_collab})
    frontier = charging_frontier(cheap)
    assert min(p.z1 for p in frontier) == 600  # 10 units at 0.50 + travel 1.00
    capped = charging_frontier(cheap, participation=noncollab_costs(cheap))
    assert all(p.z1 <= 2100 and p.z2 <= 2100 for p in capped)
    assert all(not any(q != p and q.z1 <= p.z1 and q.z2 <= p.z2 for q in frontier)
               for p in frontier)


def test_charging_frontier_assignments_decode_and_cost_out():
    inst = t1_instance()
    prog = build_charging_program(inst)
    for point, assignment in charging_frontier(inst).items():
        schedule = decode_schedule(assignment, inst, prog)
        assert validate_schedule(schedule, inst) == []
        assert company_cost(schedule, inst, "k1") == point.z1
        assert company_cost(schedule, inst, "k2") == point.z2


def test_structural_budget_refusal():
    big = generate_scenario(ScenarioConfig(n_evs=6, n_chargers=3, seed=1, horizon=12,
                                           earliest_start_range=(0, 8)))
    with pytest.raises(BudgetExceeded):
        charging_frontier(big, budget=OracleBudget(max_candidates=100))


def test_budget_must_be_positive():
    with pytest.raises(OracleError, match="budget must be positive"):
        OracleBudget(0)


def test_standalone_minimum_matches_solver_path():
    inst = t1_instance()
    assert standalone_minimum(inst, "k1") == 2100
    assert standalone_minimum(inst, "k2") == 2100
    point = noncollab_point(inst)
    assert noncollab_costs(inst) == (point.z1_non, point.z2_non)


def test_a_company_with_no_evs_costs_zero_on_both_paths():
    # One EV, owned by k1: k2's standalone program and enumeration are empty.
    inst = generate_scenario(ScenarioConfig(n_evs=1, n_chargers=2, horizon=6, seed=3))
    point = noncollab_point(inst)
    assert noncollab_costs(inst) == (point.z1_non, point.z2_non) == (155329, 0)


def test_oracle_and_solver_agree_on_generated_instances():
    for seed in (1, 2, 3):
        cfg = ScenarioConfig(n_evs=3, n_chargers=2, seed=seed, horizon=6,
                             earliest_start_range=(0, 3), demand_intervals=(1, 2))
        inst = generate_scenario(cfg)
        point = noncollab_point(inst)
        assert noncollab_costs(inst) == (point.z1_non, point.z2_non)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(list(desk_configs())).map(generate_scenario),
                 edited_desk_instances()))
def test_encode_inverts_decode_on_every_witness(instance):
    program = build_charging_program(instance)
    witnesses = [assignment for method in ("bbox", "b3m2")
                 for _, assignment in run_method(program, method=method, epsilon=3).points]
    witnesses += charging_frontier(instance).values()
    for assignment in witnesses:
        schedule = decode_schedule(assignment, instance, program)
        assert encode_schedule(schedule, instance, program) == assignment


@pytest.mark.parametrize("instance", [
    t1_instance(),
    dataclasses.replace(t1_instance(), demand={"v1": (10, 10), "v2": (0, 0)}),
    *map(generate_scenario, desk_configs(12))])
def test_every_enumerated_schedule_is_a_program_point(instance):
    # Witness checks show that the program's points are schedules; this is
    # the other half: every schedule the enumeration reaches, off the
    # frontier too, is a feasible assignment at the companies' costs.
    program = build_charging_program(instance)
    options, patterns = _search_space(instance, instance.companies, OracleBudget())
    k1, k2 = instance.companies

    def visit(rentals, placements):
        schedule = Schedule(rentals, {i: (j, s, s + d) for i, (j, s, d) in placements.items()})
        assignment = encode_schedule(schedule, instance, program)
        assert check_assignment(program, assignment) == []
        assert criterion_point(program, assignment).as_tuple() == (
            company_cost(schedule, instance, k1), company_cost(schedule, instance, k2))

    _enumerate_schedules(instance, options, patterns, visit)


@st.composite
def reach_edge_instances(draw):
    """Desk instances of two or three EVs whose windows may touch boundary 0
    or the horizon, or be empty there or inside it; whose demand may be
    zero, or a range with lo < hi; and whose rate may be zero at some
    chargers."""
    instance = generate_scenario(draw(st.sampled_from(list(desk_configs(3)))))
    T = instance.horizon
    window, demand, rate = dict(instance.window), dict(instance.demand), dict(instance.charge_rate)
    for i in instance.evs:
        e, l = window[i]
        window[i] = draw(st.sampled_from(
            ((e, l), (e, l), (0, l), (e, T), (0, T), (0, 0), (e, e), (T, T))))
        lo, hi = demand[i]
        if window[i][0] == window[i][1]:
            demand[i] = (0, draw(st.sampled_from((0, hi))))
        else:
            step = rate[i, instance.chargers[0]]
            demand[i] = draw(st.sampled_from(
                ((lo, hi), (lo, hi), (0, 0), (0, hi), (max(lo - step, 0), hi + step))))
        for j in draw(st.one_of(st.just(()), st.sets(st.sampled_from(instance.chargers)))):
            rate[i, j] = 0
    return dataclasses.replace(instance, window=window, demand=demand, charge_rate=rate)


@settings(max_examples=100, deadline=None)
@given(reach_edge_instances())
def test_bbox_matches_the_oracle_at_the_edges_of_the_reach(instance):
    program = build_charging_program(instance)
    if infeasibility_diagnostic(instance):
        with pytest.raises(InfeasibleError):
            noncollab_point(instance)
        assert charging_frontier(instance) == {}
        assert run_method(program, None, "bbox").points == ()
        return
    participation = noncollab_point(instance)
    noncollab = noncollab_costs(instance)
    assert noncollab == (participation.z1_non, participation.z2_non)
    exact = charging_frontier(instance, participation=noncollab)
    bbox = run_method(program, participation, "bbox")
    assert set(bbox.criterion_points()) == set(exact)
    for point, assignment in [*bbox.points, *exact.items()]:
        schedule = decode_schedule(assignment, instance, program)
        assert validate_schedule(schedule, instance) == []
        assert (company_cost(schedule, instance, instance.companies[0]),
                company_cost(schedule, instance, instance.companies[1])) == point.as_tuple()
        assert encode_schedule(schedule, instance, program) == assignment
