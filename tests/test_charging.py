import dataclasses
import hashlib
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from evshare.charging import (
    ChargingInstance,
    CostError,
    DecodeError,
    EncodeError,
    InfeasibleError,
    InstanceError,
    Schedule,
    build_charging_program,
    company_cost,
    decode_schedule,
    encode_schedule,
    infeasibility_diagnostic,
    instance_from_json,
    instance_to_json,
    noncollab_point,
    schedule_from_json,
    schedule_to_json,
    session_options,
    standalone_instance,
    standalone_program,
    validate_schedule,
    var_rent,
    var_session,
)
from evshare.core import Assignment, evaluate
from evshare.oracle import _session_options
from evshare import solver
from evshare.scenario import ScenarioConfig, generate_scenario, t1_instance
from evshare.solver import SolverError, export_lp, solve_min

from helpers import (
    desk_configs,
    edited_desk_instances,
    reference_infeasibility_diagnostic,
    reference_noncollab,
)


def shared_at_a_schedule():
    """Both EVs served at charger A under company k1's rental."""
    return Schedule(
        rentals={"A": "k1", "B": None},
        sessions={"v1": ("A", 0, 2), "v2": ("A", 2, 4)},
    )


def test_t1_program_variable_counts():
    prog = build_charging_program(t1_instance())
    by_prefix = {}
    for v in prog.variables:
        by_prefix[v.id.split("_")[0]] = by_prefix.get(v.id.split("_")[0], 0) + 1
    assert "x" not in by_prefix
    assert by_prefix["xs"] == 16
    assert by_prefix["xe"] == 16
    assert by_prefix["y"] == 4
    assert by_prefix["u"] == 32
    assert by_prefix["ts"] + by_prefix["tf"] == 4
    assert len(prog.variables) == 72
    assert not [con.name for con in prog.constraints
                if con.name.startswith(("rented-only:", "product-"))]


def test_build_is_deterministic():
    a = build_charging_program(t1_instance())
    b = build_charging_program(t1_instance())
    assert a == b


def test_company_cost_worked_example():
    inst = t1_instance()
    schedule = shared_at_a_schedule()
    assert validate_schedule(schedule, inst) == []
    # k1: rent 10.00 + energy 2*5*1.00 + travel 1.00, no waiting
    assert company_cost(schedule, inst, "k1") == 2100
    # k2: collaborative energy 2*5*2.00 + travel 3.00 + two intervals waiting
    assert company_cost(schedule, inst, "k2") == 2000 + 300 + 400 == 2700


def test_noncollab_point_t1():
    point = noncollab_point(t1_instance())
    assert (point.z1_non, point.z2_non) == (2100, 2100)


def test_noncollab_point_node_limit_raises():
    with pytest.raises(SolverError, match="node limit 1 exhausted"):
        noncollab_point(t1_instance(), node_limit=1)


def test_noncollab_empty_fleet_costs_zero():
    inst = t1_instance()
    single = dataclasses.replace(
        inst,
        evs=("v1",),
        owner={"v1": "k1"},
        charge_rate={(i, j): r for (i, j), r in inst.charge_rate.items() if i == "v1"},
        travel_cost={(i, j): c for (i, j), c in inst.travel_cost.items() if i == "v1"},
        vot={"v1": inst.vot["v1"]},
        window={"v1": inst.window["v1"]},
        demand={"v1": inst.demand["v1"]},
    )
    point = noncollab_point(single)
    assert point.z2_non == 0
    assert point.z1_non == 2100


def noncollab_solves(instance):
    """``noncollab_point``'s costs, or its InfeasibleError text, and the
    outcome of each solve it made."""
    outcomes = []
    real_solve_min = solver.solve_min

    def recording(*args, **kwargs):
        outcomes.append(real_solve_min(*args, **kwargs))
        return outcomes[-1]

    with mock.patch.object(solver, "solve_min", recording):
        try:
            point = noncollab_point(instance)
        except InfeasibleError as exc:
            return str(exc), outcomes
    return (point.z1_non, point.z2_non), outcomes


@settings(max_examples=60, deadline=None)
@given(edited_desk_instances())
def test_single_renter_standalone_matches_the_pinned_two_renter_program(instance):
    got, outcomes = noncollab_solves(instance)
    want, reference = reference_noncollab(instance)
    assert got == want
    assert len(outcomes) == len(reference)


@pytest.mark.parametrize("base, nodes", [(1000, 799), (5000, 816)])
def test_standalone_node_totals_are_pinned(base, nodes):
    total = 0
    for config in desk_configs():
        instance = generate_scenario(dataclasses.replace(config, seed=config.seed - 1000 + base))
        total += sum(out.nodes_explored for out in noncollab_solves(instance)[1])
    assert total == nodes


@pytest.mark.parametrize("seed, costs", [
    (1, (406364, 233452)), (2, (436793, 413457)), (3, (192585, 344505))])
def test_paper_default_standalone_costs_are_pinned(seed, costs):
    # 10 EVs x 5 chargers x 24 intervals; values from the indicator model.
    point = noncollab_point(generate_scenario(ScenarioConfig(seed=seed)))
    assert (point.z1_non, point.z2_non) == costs


def test_standalone_program_has_one_renter_and_no_products():
    sub = standalone_instance(t1_instance(), "k2")
    prog = standalone_program(sub, "k2")
    sessions = {var_session(i, *option): (i, option)
                for i in sub.evs for option in session_options(sub, i)}
    rentals = [var_rent(j, "k2") for j in sub.chargers]
    assert [v.id for v in prog.variables] == rentals + list(sessions)
    picks = [con for con in prog.constraints if con.sense == "="]
    assert [(con.expression.terms, con.rhs) for con in picks] == [
        ({vid: 1 for vid, (i, _) in sessions.items() if i == ev}, 1) for ev in sub.evs]
    assert not prog.objective1.terms and prog.objective1.constant == 0
    out = solve_min(prog, 2)
    values = out.assignment.values
    chosen = [sessions[vid] for vid in sessions if values[vid] == 1]
    schedule = Schedule({j: "k2" if values[var_rent(j, "k2")] else None for j in sub.chargers},
                        {i: (j, s, s + d) for i, (j, s, d) in chosen})
    assert validate_schedule(schedule, sub) == []
    assert company_cost(schedule, sub, "k2") == out.value == 2100


@st.composite
def one_ev_instances(draw):
    """One EV with any window, demand and charge rates over one to three
    chargers: zero demand, empty and short windows and zero rates occur."""
    horizon = draw(st.integers(min_value=1, max_value=6))
    chargers = ("A", "B", "C")[:draw(st.integers(min_value=1, max_value=3))]
    latest = draw(st.integers(min_value=0, max_value=horizon))
    earliest = draw(st.integers(min_value=0, max_value=latest))
    lo = draw(st.integers(min_value=0, max_value=12))
    hi = draw(st.integers(min_value=lo, max_value=15))
    zero = {(j, t): 0 for j in chargers for t in range(1, horizon + 1)}
    return ChargingInstance(
        name="one-ev", companies=("k1", "k2"), evs=("v",), owner={"v": "k1"},
        chargers=chargers, horizon=horizon,
        rental_fee={(j, k): 0 for j in chargers for k in ("k1", "k2")},
        energy_fee_own=zero, energy_fee_collab=zero,
        charge_rate={("v", j): draw(st.integers(min_value=0, max_value=5)) for j in chargers},
        travel_cost={("v", j): 0 for j in chargers}, vot={"v": 0},
        window={"v": (earliest, latest)}, demand={"v": (lo, hi)})


@settings(max_examples=200, deadline=None)
@given(st.one_of(one_ev_instances(), edited_desk_instances()))
def test_session_options_match_the_oracles(instance):
    for i in instance.evs:
        got = session_options(instance, i)
        assert len(got) == len(set(got))
        assert set(got) == set(_session_options(instance, i))


@settings(max_examples=100, deadline=None)
@given(edited_desk_instances())
def test_diagnostic_names_the_reference_diagnostics_evs(instance):
    assert infeasibility_diagnostic(instance) == reference_infeasibility_diagnostic(instance)


# sha256 of export_lp for objectives 1 and 2 of the 4x2 desk instance (seed
# 1005), taken once the charging variables were split per renter: the
# two-renter program must not move.
COLLABORATIVE_LP = "ec80cb541ecd2c0767e64ce6b02da880791567c68d7ae5333079f0c9060dbc03"


def test_collaborative_program_is_pinned():
    prog = build_charging_program(generate_scenario(list(desk_configs(6))[-1]))
    text = export_lp(prog, 1) + export_lp(prog, 2)
    assert hashlib.sha256(text.encode()).hexdigest() == COLLABORATIVE_LP


def test_every_term_key_is_the_declared_id_object():
    # Each variable id is one string per program: every row and objective
    # term is keyed by the declared Variable.id object itself.
    for config in desk_configs():
        instance = generate_scenario(config)
        programs = [build_charging_program(instance)]
        for k in instance.companies:
            sub = standalone_instance(instance, k)
            if sub.evs:
                programs.append(standalone_program(sub, k))
        for prog in programs:
            declared = {v.id: v.id for v in prog.variables}
            expressions = [con.expression for con in prog.constraints]
            expressions += [prog.objective1, prog.objective2]
            assert all(declared[vid] is vid for e in expressions for vid in e.terms)


def test_rental_doubling_moves_only_the_rental_component():
    inst = t1_instance()
    doubled = dataclasses.replace(
        inst, rental_fee={key: 2 * fee for key, fee in inst.rental_fee.items()})
    base = noncollab_point(inst)
    after = noncollab_point(doubled)
    # standalone optima rent exactly one charger each
    assert (after.z1_non - base.z1_non, after.z2_non - base.z2_non) == (1000, 1000)


def test_decode_round_trip_from_hand_schedule():
    inst = t1_instance()
    schedule = shared_at_a_schedule()
    prog = build_charging_program(inst)
    assignment = encode_schedule(schedule, inst, prog)
    back = decode_schedule(assignment, inst, prog)
    assert back == schedule
    assert back.sessions["v1"] == ("A", 0, 2)


@pytest.mark.parametrize("session, message", [
    (("A", 0, 2), r"of EV v1 lies outside its window \(1, 4\)"),
    (("A", 3, 5), r"of EV v1 lies outside its window \(1, 4\)"),
    (("C", 1, 3), "of EV v1 at charger 'C', which the instance lacks"),
    (("B", 1, 3), "of EV v1 charges at charger 'B', which nobody rents")])
def test_encode_refuses_a_session_outside_the_reach(session, message):
    # v1 may charge in intervals 2..4 only: the program declares no start
    # indicator at interval 1, no end indicator at 5 and nothing at charger C.
    # Charging at B, which nobody rents, has no u_{v1,B,t,k} to set.
    inst = dataclasses.replace(t1_instance(), window={"v1": (1, 4), "v2": (0, 4)})
    schedule = dataclasses.replace(
        shared_at_a_schedule(), sessions={"v1": session, "v2": ("A", 2, 4)})
    with pytest.raises(EncodeError, match=message):
        encode_schedule(schedule, inst, build_charging_program(inst))


@pytest.mark.parametrize("rentals", [{"A": "k1", "B": "k3"}, {"A": "k1", "C": "k2"}])
def test_encode_refuses_a_rental_the_program_lacks(rentals):
    # Written as y_B_k3 or y_C_k2, the rental would be an id no row reads,
    # and decoding would drop it.
    inst = t1_instance()
    schedule = dataclasses.replace(shared_at_a_schedule(), rentals=rentals)
    with pytest.raises(EncodeError, match="which the instance lacks"):
        encode_schedule(schedule, inst, build_charging_program(inst))


def test_decode_rejects_all_zero_assignment():
    inst = t1_instance()
    prog = build_charging_program(inst)
    zero = Assignment({v.id: 0 for v in prog.variables})
    with pytest.raises(DecodeError) as err:
        decode_schedule(zero, inst, prog)
    assert "single-start" in str(err.value)


def test_validate_flags_capacity_clash():
    inst = t1_instance()
    schedule = Schedule(
        rentals={"A": "k1", "B": None},
        sessions={"v1": ("A", 1, 3), "v2": ("A", 2, 4)},
    )
    assert validate_schedule(schedule, inst) == ["charger-capacity: charger A, interval 3"]


def test_validate_flags_window_violation():
    inst = t1_instance()
    late = dataclasses.replace(inst, window={"v1": (2, 4), "v2": (0, 4)})
    schedule = Schedule(
        rentals={"A": "k1", "B": "k2"},
        sessions={"v1": ("A", 1, 3), "v2": ("B", 0, 2)},
    )
    assert validate_schedule(schedule, late) == ["time-window: v1"]


def test_validate_flags_unrented_and_demand():
    inst = t1_instance()
    schedule = Schedule(
        rentals={"A": None, "B": None},
        sessions={"v1": ("A", 0, 1), "v2": ("B", 0, 2)},
    )
    got = validate_schedule(schedule, inst)
    assert "demand: v1" in got
    assert "unrented-charger: v1 at A" in got
    assert "unrented-charger: v2 at B" in got


def test_validate_flags_unknown_renter_missing_and_out_of_horizon_sessions():
    inst = t1_instance()
    schedule = Schedule(
        rentals={"A": "k3", "B": "k2"},
        sessions={"v1": ("A", 2, 5)},
    )
    assert validate_schedule(schedule, inst) == [
        "rental-exclusive: charger A", "session-bounds: v1", "missing-session: v2"]


def test_company_cost_refuses_a_session_at_an_unrented_charger():
    inst = t1_instance()
    schedule = Schedule(
        rentals={"A": "k1", "B": None},
        sessions={"v1": ("A", 0, 2), "v2": ("B", 0, 2)},
    )
    assert company_cost(schedule, inst, "k1") > 0
    with pytest.raises(CostError, match="EV v2 charges at unrented charger B"):
        company_cost(schedule, inst, "k2")


def test_objectives_agree_with_decoded_cost_on_optima():
    inst = t1_instance()
    prog = build_charging_program(inst)
    for index, k in ((1, "k1"), (2, "k2")):
        out = solve_min(prog, index)
        schedule = decode_schedule(out.assignment, inst, prog)
        assert validate_schedule(schedule, inst) == []
        assert company_cost(schedule, inst, k) == out.value
        other = inst.other_company(k)
        other_index = 2 if index == 1 else 1
        assert company_cost(schedule, inst, other) == evaluate(
            prog.objective(other_index), out.assignment)


def test_charging_variables_follow_the_rental():
    # u_{i,j,t,k} is 1 only where k rents j, and at most one company's u
    # is 1 per (EV, charger, interval): their sum is the charging decision.
    inst = t1_instance()
    prog = build_charging_program(inst)
    for index in (1, 2):
        values = solve_min(prog, index).assignment.values
        for i in inst.evs:
            for j in inst.chargers:
                for t in inst.intervals():
                    on = [values[f"u_{i}_{j}_{t}_{k}"] for k in inst.companies]
                    assert sum(on) <= 1
                    assert all(u <= values[var_rent(j, k)] for u, k in zip(on, inst.companies))


def test_standalone_instance_keeps_only_own_fleet():
    inst = t1_instance()
    sub = standalone_instance(inst, "k2")
    assert sub.evs == ("v2",)
    assert sub.company_evs("k2") == ("v2",)
    assert sub.company_evs("k1") == ()
    assert sub.chargers == inst.chargers


def test_instance_json_round_trip():
    inst = t1_instance()
    assert instance_from_json(instance_to_json(inst)) == inst


def test_schedule_json_round_trip():
    inst = t1_instance()
    schedule = shared_at_a_schedule()
    assert schedule_from_json(schedule_to_json(schedule, inst), inst) == schedule


def test_instance_validation():
    inst = t1_instance()
    with pytest.raises(InstanceError):
        dataclasses.replace(inst, companies=("k1", "k1"))
    with pytest.raises(InstanceError):
        dataclasses.replace(inst, window={"v1": (3, 2), "v2": (0, 4)})
    with pytest.raises(InstanceError):
        dataclasses.replace(inst, demand={"v1": (5, 2), "v2": (10, 10)})


@pytest.mark.parametrize("field, ids", [("evs", ("v1", "v2", "v1")), ("chargers", ("A", "B", "A"))])
def test_repeated_ids_are_refused(field, ids):
    with pytest.raises(InstanceError, match=f"{field} lists id '{ids[0]}' more than once"):
        dataclasses.replace(t1_instance(), **{field: ids})


def test_non_integer_money_is_refused():
    data = json.loads(instance_to_json(t1_instance()))
    data["rental_fee"]["A"]["k1"] = 1000.5
    with pytest.raises(InstanceError, match=r"rental_fee\[\('A', 'k1'\)\]"):
        instance_from_json(json.dumps(data))


@pytest.mark.parametrize("field, value, message", [
    ("horizon", 4.0, "horizon must be an integer, got 4.0"),
    ("energy_fee_collab", {("A", 1): "200"},
     "energy_fee_collab[('A', 1)] must be an integer, got '200'"),
    ("charge_rate", {("v1", "A"): True}, "charge_rate[('v1', 'A')] must be an integer, got True"),
    ("vot", {"v2": 1.5}, "vot[v2] must be an integer, got 1.5"),
    ("window", {"v1": (0, 4.0)}, "window[v1] must be an integer, got 4.0"),
    ("demand", {"v2": (10,)}, "demand[v2] must be a pair, got (10,)"),
], ids=["float-horizon", "string-fee", "bool-rate", "float-vot", "float-window", "one-number-demand"])
def test_instance_fields_must_be_integers(field, value, message):
    inst = t1_instance()
    if isinstance(value, dict):
        value = {**getattr(inst, field), **value}
    with pytest.raises(InstanceError) as info:
        dataclasses.replace(inst, **{field: value})
    assert str(info.value) == message


@pytest.mark.parametrize("field, value, message", [
    ("horizon", 0, "horizon must be at least one interval"),
    ("owner", {"v1": "k3"}, "EV v1 has no valid owning company"),
    ("vot", {"v2": -1}, "EV v2: negative value of time"),
    ("charge_rate", {("v1", "A"): -1}, r"negative rate or travel cost for \(v1,A\)"),
    ("travel_cost", {("v2", "B"): -1}, r"negative rate or travel cost for \(v2,B\)"),
    ("rental_fee", {("B", "k2"): -1}, r"negative rental fee for \(B,k2\)"),
    ("energy_fee_own", {("A", 3): -1}, r"negative energy fee for \(A,3\)"),
    ("energy_fee_collab", {("B", 1): -1}, r"negative energy fee for \(B,1\)"),
], ids=["zero-horizon", "stranger-owner", "negative-vot", "negative-rate",
        "negative-travel", "negative-rental", "negative-own-fee", "negative-collab-fee"])
def test_instance_values_out_of_range_are_refused(field, value, message):
    inst = t1_instance()
    if isinstance(value, dict):
        value = {**getattr(inst, field), **value}
    with pytest.raises(InstanceError, match=message):
        dataclasses.replace(inst, **{field: value})


def test_infeasible_demand_is_diagnosed():
    inst = t1_instance()
    # 4 intervals at rate 5 deliver at most 20 units inside the window
    greedy = dataclasses.replace(inst, demand={"v1": (25, 25), "v2": (10, 10)})
    prog = build_charging_program(greedy)
    assert solve_min(prog, 1).status == "infeasible"
    assert "v1" in infeasibility_diagnostic(greedy)
    assert infeasibility_diagnostic(inst) is None


def test_malformed_json_raises_domain_errors():
    inst = t1_instance()
    with pytest.raises(InstanceError, match="not valid JSON"):
        instance_from_json("{oops")
    with pytest.raises(InstanceError, match="malformed instance"):
        instance_from_json('{"name": "x"}')
    with pytest.raises(InstanceError, match="not valid JSON"):
        schedule_from_json("", inst)
    with pytest.raises(InstanceError, match="malformed schedule"):
        schedule_from_json('{"sessions": [{}], "rentals": {}}', inst)
