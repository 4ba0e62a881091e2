import dataclasses
import hashlib
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from evshare.core import (
    Constraint,
    CriterionPoint,
    LinearExpression,
    ProgramError,
    binary,
    check_assignment,
    criterion_point,
    evaluate,
    expr,
    integer,
    pareto_filter,
    program,
)
from evshare import solver
from evshare.charging import build_charging_program, company_cost, decode_schedule, noncollab_point
from evshare.frontier import run_method
from evshare.scenario import generate_scenario, t1_instance
from evshare.solver import (
    OPEN,
    SolutionParseError,
    SolutionValidationError,
    SolverError,
    export_lp,
    lexmin,
    lexmin_pair,
    parse_external_solution,
    solve_min,
)

from helpers import (
    desk_configs,
    feasible_assignments,
    feasible_tiny_programs,
    infeasible_program,
    make_point_program,
    partitioned_programs,
    reference_search,
    root_settled_programs,
    shifted,
    tiny_programs,
    two_search_endpoints,
    two_stage_lexmin,
)


# Objective bounds around the values tiny programs reach; any side may be open
# and a lower bound may exceed its upper one.
bound_sides = st.one_of(st.none(), st.integers(min_value=-12, max_value=12))
objective_bounds = st.tuples(st.tuples(bound_sides, bound_sides),
                             st.tuples(bound_sides, bound_sides))


def within(point, bounds):
    return all((lo is None or lo <= z) and (hi is None or z <= hi)
               for z, (lo, hi) in zip(point.as_tuple(), bounds))


point_sets = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40)),
    min_size=1,
    max_size=8,
)


def knapsack_program():
    """min x1 + 2 x2 subject to x1 + x2 >= 1, binaries."""
    x1, x2 = binary("x1"), binary("x2")
    cover = Constraint(expr({"x1": 1, "x2": 1}), ">=", 1, "cover")
    return program([x1, x2], [cover], expr({"x1": 1, "x2": 2}), expr({"x2": 1}))


def test_solve_min_example():
    out = solve_min(knapsack_program(), 1)
    assert out.status == "optimal"
    assert out.value == 1
    assert out.assignment.values == {"x1": 1, "x2": 0}


def test_solve_min_infeasible():
    assert solve_min(infeasible_program(), 1).status == "infeasible"


def test_solve_min_reports_optimal_value_with_constant():
    x = binary("x")
    prog = program([x], [], expr({"x": -3}, 10), expr())
    out = solve_min(prog, 1)
    assert (out.value, out.assignment.values["x"]) == (7, 1)


def test_t1_company_objective_minimum():
    prog = build_charging_program(t1_instance())
    out = solve_min(prog, 1)
    assert out.status == "optimal"
    assert out.value == 2100
    # the solution is an actual schedule
    assert check_assignment(prog, out.assignment) == []


def test_lexmin_examples():
    prog = make_point_program([(1, 3), (1, 2), (2, 1)])
    assert lexmin(prog, (1, 2)).point == CriterionPoint(1, 2)
    assert lexmin(prog, (2, 1)).point == CriterionPoint(2, 1)


def test_lexmin_respects_rectangle():
    prog = make_point_program([(1, 3), (1, 2), (2, 1)])
    out = lexmin(prog, (1, 2), ((2, 5), (0, 3)))
    assert out.point == CriterionPoint(2, 1)
    assert lexmin(prog, (1, 2), ((3, 5), (0, 0))).status == "infeasible"


def test_lexmin_rejects_bad_order():
    with pytest.raises(SolverError):
        lexmin(make_point_program([(1, 1)]), (1, 1))


def test_lexmin_counts_stage_solves():
    # One search per lexicographic solve, feasible or not.
    prog = make_point_program([(1, 3), (2, 1)])
    assert lexmin(prog, (1, 2)).solves == 1
    assert lexmin(infeasible_program(), (1, 2)).solves == 1


@st.composite
def lexmin_programs(draw):
    """Tiny programs; in some, one objective has no terms."""
    prog = draw(st.one_of(tiny_programs(), feasible_tiny_programs()))
    objectives = [prog.objective1, prog.objective2]
    blank = draw(st.sampled_from((None, 0, 1)))
    if blank is not None:
        objectives[blank] = LinearExpression({}, draw(st.integers(min_value=-4, max_value=4)))
    return program(prog.variables, prog.constraints, *objectives)


# General integers with negative bounds, and a second objective with no terms.
NEGATIVE_BOUNDS_PROGRAM = program(
    [integer("x0", -3, 0), integer("x1", -2, 1)],
    [Constraint(expr({"x0": 1, "x1": -1}), "<=", 0, "r0")],
    expr({"x0": -1, "x1": 2}, 1), LinearExpression({}, 5))


@given(lexmin_programs(), st.sampled_from(((1, 2), (2, 1))), objective_bounds)
@example(NEGATIVE_BOUNDS_PROGRAM, (1, 2), OPEN)
@example(NEGATIVE_BOUNDS_PROGRAM, (2, 1), ((None, 3), (None, None)))
@example(make_point_program([(0, 4), (1, 0)]), (1, 2), OPEN)  # needs W > 4
@example(make_point_program([(4, 0), (0, 1)]), (2, 1), OPEN)
@settings(max_examples=300, deadline=None)
def test_lexmin_matches_two_stage_solves(prog, order, bounds):
    # Status, point and assignment equal the two-stage solve's, on a fresh
    # program (its first solve compiles it) and on the compiled one.
    expected = two_stage_lexmin(dataclasses.replace(prog), order, bounds)
    for _ in range(2):
        out = lexmin(prog, order, bounds)
        rendering = out.assignment.rendering() if out.assignment else None
        assert (out.status, out.point, rendering) == expected


@given(lexmin_programs(), objective_bounds)
@example(make_point_program([(0, 4), (1, 0)]), OPEN)
@example(make_point_program([(2, 2), (3, 3), (2, 2)]), OPEN)  # one point, two witnesses
@settings(max_examples=300, deadline=None)
def test_lexmin_pair_matches_two_searches(prog, bounds):
    # Status, both points and both assignments equal the two-search rule's,
    # on a fresh program (its first solve compiles it) and on the compiled one.
    expected = two_search_endpoints(dataclasses.replace(prog), bounds)
    for _ in range(2):
        out = lexmin_pair(prog, bounds)
        got = (out.status, None, None)
        if out.status == "optimal":
            got = (out.status, *((point, a.rendering()) for point, a in (out.top, out.bottom)))
        assert got == expected
        assert out.solves == 1


def test_lexmin_pair_node_limit_raises():
    prog = build_charging_program(t1_instance())
    nodes = lexmin_pair(prog).nodes_explored
    assert lexmin_pair(prog, node_limit=nodes).status == "optimal"
    with pytest.raises(SolverError, match=f"node limit {nodes - 1} exhausted"):
        lexmin_pair(prog, node_limit=nodes - 1)


@given(point_sets)
@settings(max_examples=60, deadline=None)
def test_lexmin_matches_tuple_minimum(raw):
    prog = make_point_program(raw)
    got = lexmin(prog, (1, 2)).point.as_tuple()
    assert got == min(raw, key=lambda p: (p[0], p[1]))
    got = lexmin(prog, (2, 1)).point.as_tuple()
    assert got == min(raw, key=lambda p: (p[1], p[0]))


@given(point_sets)
@settings(max_examples=40, deadline=None)
def test_solve_min_matches_plain_minimum(raw):
    prog = make_point_program(raw)
    assert solve_min(prog, 1).value == min(p[0] for p in raw)
    assert solve_min(prog, 2).value == min(p[1] for p in raw)


def test_solver_is_deterministic():
    prog = build_charging_program(t1_instance())
    a = solve_min(prog, 2)
    b = solve_min(prog, 2)
    assert a.assignment.rendering() == b.assignment.rendering()
    assert a.nodes_explored == b.nodes_explored


@given(tiny_programs(), st.sampled_from((1, 2)))
@settings(max_examples=200, deadline=None)
def test_solve_min_matches_enumeration(prog, objective_index):
    objective = prog.objective(objective_index)
    feasible_values = [evaluate(objective, a) for a in feasible_assignments(prog)]
    out = solve_min(prog, objective_index)
    assert (out.status == "infeasible") == (not feasible_values)
    if feasible_values:
        assert out.status == "optimal"
        assert out.value == min(feasible_values)
        assert check_assignment(prog, out.assignment) == []
        assert evaluate(objective, out.assignment) == out.value


@given(st.one_of(tiny_programs(), feasible_tiny_programs(), root_settled_programs()),
       st.sampled_from((1, 2)), objective_bounds)
@settings(max_examples=300, deadline=None)
def test_solve_min_matches_the_reference_search(prog, objective_index, bounds):
    # Same status, value, node count and assignment: the same search tree.
    # Root-settled programs hold rows entailed and a variable fixed at the
    # root, which the compiled form leaves out and the reference scans.
    expected = reference_search(prog, objective_index, bounds)
    assert solve_min(prog, objective_index, bounds) == expected  # compiles the program
    assert solve_min(prog, objective_index, bounds) == expected  # reuses the compiled form


def without_partitions(prog):
    """``prog`` with each ``=`` row written as a ``<=`` and a ``>=`` row: the
    same compiled constraint rows, and no partition rows to shift over."""
    rows = []
    for con in prog.constraints:
        senses = ("<=", ">=") if con.sense == "=" else (con.sense,)
        rows += [dataclasses.replace(con, sense=sense) for sense in senses]
    return program(prog.variables, rows, prog.objective1, prog.objective2)


@given(partitioned_programs(), st.sampled_from((1, 2)), objective_bounds)
@settings(max_examples=200, deadline=None)
def test_the_shift_changes_no_answer_and_adds_no_node(prog, k, bounds):
    # Against the searches over the declared objectives: the same answers,
    # never more nodes.
    unshifted = reference_search(prog, k, bounds, shift=False)
    out = solve_min(prog, k, bounds)
    assert (out.status, out.value, out.assignment) == (
        unshifted.status, unshifted.value, unshifted.assignment)
    assert out.nodes_explored <= unshifted.nodes_explored
    order = (k, 3 - k)
    lex = lexmin(prog, order, bounds)
    rendering = lex.assignment.rendering() if lex.assignment else None
    assert (lex.status, lex.point, rendering) == two_stage_lexmin(prog, order, bounds)
    assert lex.nodes_explored <= lexmin(without_partitions(prog), order, bounds).nodes_explored
    # The compiled constant plus the compiled objective row, read from its
    # root activity, is the declared objective on every feasible point.
    compiled = solver.compile_program(prog)
    for assignment in feasible_assignments(prog):
        x = [assignment.values[vid] for vid in compiled.ids]
        for j in (1, 2):
            r = compiled.obj_base + 2 * j - 1
            activity = compiled.amin[r] + sum(
                c * (x[v] - (compiled.lower[v] if c > 0 else compiled.upper[v]))
                for v, c, _ in compiled.row_terms[r])
            assert compiled.constant(j) + activity == evaluate(prog.objective(j), assignment)


def test_partition_rows_are_disjoint_unit_equalities_over_zero_one_variables():
    a, b, c, e, h = (binary(vid) for vid in "abceh")
    d, g = integer("d", 0, 1), integer("g", 0, 2)
    rows = [Constraint(expr({"a": 1, "b": 1}), "=", 1, "partition"),
            Constraint(expr({"b": 1, "c": 1}), "=", 1, "shares b"),
            Constraint(expr({"c": 1, "d": 1}, 5), "=", 6, "partition, rhs less constant 1"),
            Constraint(expr({"e": 1, "g": 1}), "=", 1, "g is not 0/1"),
            Constraint(expr({"h": 1, "e": 2}), "=", 1, "not unit"),
            Constraint(expr({"e": 1}), "<=", 1, "not an equality")]
    prog = program([a, b, c, d, e, g, h], rows,
                   expr({"a": 3, "b": 5, "c": 2, "d": 4, "e": 7, "g": 7, "h": 5}, 1),
                   expr({"a": -1, "b": 2, "c": 4}))
    # Objective 1 gains 3 from {a, b} and 2 from {c, d}; objective 2's least
    # coefficients there, -1 and 0 (d is absent), move nothing.
    compiled = solver.compile_program(prog)
    assert (compiled.constant(1), compiled.constant(2)) == (6, 0)
    assert declared_rows(prog)[compiled.obj_base + 1] == {"b": 2, "d": 2, "e": 7, "g": 7, "h": 5}


def declared_rows(prog):
    """Every row's declared terms, in the compiled form's row order; the
    objective and lexicographic rows are ``shifted``."""
    rows = []
    for con in prog.constraints:
        for sign in solver._ROW_SIGNS[con.sense]:
            rows.append({vid: sign * c for vid, c in con.expression.terms.items()})
    for objective in (prog.objective1, prog.objective2):
        terms = shifted(prog, objective).terms
        rows += [{vid: -c for vid, c in terms.items()}, terms]
    variables = prog.variable_map()
    for first, second in ((prog.objective1, prog.objective2), (prog.objective2, prog.objective1)):
        # W * z_first + z_second, W one more than z_second's declared range.
        weight = 1 + sum(abs(c) * (variables[vid].upper - variables[vid].lower)
                         for vid, c in second.terms.items())
        combined = {vid: weight * first.terms.get(vid, 0) + second.terms.get(vid, 0)
                    for vid in {**first.terms, **second.terms}}
        rows.append(shifted(prog, LinearExpression(combined)).terms)
    return rows


@given(st.one_of(tiny_programs(), feasible_tiny_programs(), root_settled_programs()))
@settings(max_examples=200, deadline=None)
def test_compiled_rows_hold_the_unfixed_terms_by_span(prog):
    # A constraint row whose maximum activity at the root is within its rhs
    # holds no terms and is in no incidence list; a variable fixed at the
    # root is in none either.  Every other row holds its root-unfixed terms
    # by nonincreasing span, each in the incidence list of its sign.
    compiled = solver.compile_program(prog)
    lower, upper = compiled.lower, compiled.upper
    index = {vid: i for i, vid in enumerate(compiled.ids)}
    rows = declared_rows(prog)
    assert len(rows) == compiled.nrows
    incidence = []
    for r, terms in enumerate(rows):
        terms = [(index[vid], c) for vid, c in terms.items() if c]
        assert compiled.amin[r] == sum(c * (lower[v] if c > 0 else upper[v]) for v, c in terms)
        unfixed = [(v, c) for v, c in terms if lower[v] < upper[v]]
        scanned = compiled.row_terms[r]
        if r < compiled.obj_base and compiled.row_rhs[r] >= sum(
                c * (upper[v] if c > 0 else lower[v]) for v, c in terms):
            assert scanned == ()
            continue
        assert sorted((v, c) for v, c, _ in scanned) == sorted(unfixed)
        spans = [span for _, _, span in scanned]
        assert spans == [abs(c) * (upper[v] - lower[v]) for v, c, _ in scanned]
        assert spans == sorted(spans, reverse=True)
        incidence += [(v, r, c) for v, c in unfixed]
    assert sorted(incidence) == sorted(
        (v, r, c) for v in range(compiled.n) for r, c in compiled.lower_rows[v] + compiled.upper_rows[v])
    for v in range(compiled.n):
        assert all(c > 0 for _, c in compiled.lower_rows[v])
        assert all(c < 0 for _, c in compiled.upper_rows[v])
        if lower[v] == upper[v]:
            assert compiled.lower_rows[v] == compiled.upper_rows[v] == ()


# Row terms and incidence entries of the compiled programs of the first 12
# desk instances, with entailed rows and root-fixed variables left out: a
# change to what the compiled form keeps moves one of them.
DESK_COMPILED_ENTRIES = {"row_terms": 7762, "incidences": 7762}


def test_desk_compiled_entries_are_pinned():
    counts = {"row_terms": 0, "incidences": 0}
    for config in desk_configs(12):
        compiled = solver.compile_program(build_charging_program(generate_scenario(config)))
        counts["row_terms"] += sum(map(len, compiled.row_terms))
        counts["incidences"] += sum(map(len, compiled.lower_rows + compiled.upper_rows))
    assert counts == DESK_COMPILED_ENTRIES


# sha256 over every solve_min, lexmin and lexmin_pair outcome of bbox,
# b3m1 at 3% and b3m2 at 3% on the first 12 desk instances, with the
# (calls, nodes) of each: 36 endpoint searches, 52 lexicographic solves,
# 2 of them certifications, and no solve_min.  A change to the search
# tree, its value or its tie-breaks changes it.
DESK_TREES = ({"solve_min": [0, 0], "lexmin": [52, 430], "lexmin_pair": [36, 843]},
              "e10e0d6b09ad42cd1a616366434303e042aec2f71d5a731d883f21c2c31f6d1b")


def test_desk_search_trees_are_pinned(monkeypatch):
    digest = hashlib.sha256()
    counts = {"solve_min": [0, 0], "lexmin": [0, 0], "lexmin_pair": [0, 0]}
    real_solve_min, real_lexmin, real_pair = solver.solve_min, solver.lexmin, solver.lexmin_pair

    def record(name, out, value):
        rendering = out.assignment.rendering() if out.assignment else None
        digest.update(repr((name, out.status, value, out.nodes_explored, rendering)).encode())
        counts[name][0] += 1
        counts[name][1] += out.nodes_explored
        return out

    def recording_solve_min(program, objective_index, bounds=OPEN, node_limit=None):
        out = real_solve_min(program, objective_index, bounds, node_limit)
        return record("solve_min", out, out.value)

    def recording_lexmin(program, order, bounds=OPEN, node_limit=None):
        out = real_lexmin(program, order, bounds, node_limit)
        return record("lexmin", out, out.point)

    def recording_pair(program, bounds=OPEN, node_limit=None):
        out = real_pair(program, bounds, node_limit)
        ends = (out.top, out.bottom) if out.status == "optimal" else ()
        digest.update(repr((out.status, out.nodes_explored,
                            [(point, a.rendering()) for point, a in ends])).encode())
        counts["lexmin_pair"][0] += 1
        counts["lexmin_pair"][1] += out.nodes_explored
        return out

    for config in desk_configs(12):
        instance = generate_scenario(config)
        program = build_charging_program(instance)
        participation = noncollab_point(instance)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "solve_min", recording_solve_min)
            patch.setattr(solver, "lexmin", recording_lexmin)
            patch.setattr(solver, "lexmin_pair", recording_pair)
            for method, epsilon in (("bbox", 0), ("b3m1", 3), ("b3m2", 3)):
                run_method(program, participation, method, epsilon)
    assert (counts, digest.hexdigest()) == DESK_TREES


def test_solve_min_leaves_the_recursion_limit_alone():
    before = sys.getrecursionlimit()
    # One more variable than the limit: the search goes that many levels deep.
    xs = [binary(f"x{i}") for i in range(before + 1)]
    prog = program(xs, [], expr({x.id: 1 for x in xs}), expr())
    assert solve_min(prog, 1).value == 0
    assert sys.getrecursionlimit() == before


@pytest.mark.parametrize("k", [0, 3])
def test_bad_objective_index_raises(k):
    prog = make_point_program([(1, 3), (2, 1)])
    for _ in range(2):  # before and after the program's first solve compiles it
        with pytest.raises(ProgramError, match=f"got {k}"):
            solve_min(prog, k)
        assert solve_min(prog, 1).value == 1
    with pytest.raises(ProgramError, match="got 3"):  # a third pair bounds objective 3
        lexmin(prog, (1, 2), OPEN + ((None, None),))


# Per objective: open, crossed (lower above upper), pinned or any sides.
values = st.integers(min_value=-12, max_value=12)
side_bounds = st.one_of(
    st.just((None, None)),
    st.tuples(values, values).map(lambda pair: (max(pair) + 1, min(pair))),
    values.map(lambda v: (v, v)),
    st.tuples(bound_sides, bound_sides),
)
solve_calls = st.lists(
    st.tuples(st.booleans(), st.sampled_from((1, 2)), st.tuples(side_bounds, side_bounds)),
    min_size=1, max_size=6)


@given(tiny_programs(), solve_calls)
@settings(max_examples=150, deadline=None)
def test_solves_on_one_program_match_fresh_copies(prog, calls):
    # The first solve compiles the program and every later one reuses that;
    # a replaced copy starts uncompiled.  No solve may leak into the next.
    for lexicographic, k, bounds in calls:
        if lexicographic:
            order = (k, 3 - k)
            assert lexmin(prog, order, bounds) == lexmin(dataclasses.replace(prog), order, bounds)
        else:
            assert solve_min(prog, k, bounds) == solve_min(dataclasses.replace(prog), k, bounds)


def test_node_limit_raises():
    prog = build_charging_program(t1_instance())
    with pytest.raises(SolverError, match="node limit 1 exhausted"):
        solve_min(prog, 1, node_limit=1)


@pytest.mark.parametrize("limit", [0, -3])
def test_node_limit_must_be_positive(limit):
    prog = build_charging_program(t1_instance())
    for search in (lambda: solve_min(prog, 1, node_limit=limit),
                   lambda: lexmin(prog, (2, 1), node_limit=limit),
                   lambda: lexmin_pair(prog, node_limit=limit)):
        with pytest.raises(SolverError, match="node_limit must be positive when set"):
            search()


def test_rectangle_bounds():
    box = ((1, 2), (1, 3))  # the box between (1, 3) and (2, 1)
    # Each point outside the box lies beyond exactly one of its four sides.
    prog = make_point_program([(0, 2), (1, 4), (1, 3), (2, 1), (3, 2), (2, 0)])
    assert solve_min(prog, 1, box).value == 1
    assert solve_min(prog, 2, box).value == 1
    assert lexmin(prog, (1, 2), box).point == CriterionPoint(1, 3)
    assert lexmin(prog, (2, 1), box).point == CriterionPoint(2, 1)
    assert solve_min(prog, 1, OPEN).value == solve_min(prog, 1).value == 0


def test_bounds_narrow_the_search():
    prog = make_point_program([(1, 3), (2, 1)])
    assert solve_min(prog, 1, ((None, None), (None, 2))).value == 2
    assert solve_min(prog, 1, ((2, None), (None, None))).value == 2
    assert solve_min(prog, 2, ((None, 1), (None, None))).value == 3
    assert solve_min(prog, 2, ((None, None), (2, None))).value == 3
    assert solve_min(prog, 1, ((None, 1), (None, 2))).status == "infeasible"


def bound_rows(prog, bounds):
    """The objective bounds as explicit constraint rows."""
    rows = []
    for k, (lo, hi) in enumerate(bounds, start=1):
        if lo is not None:
            rows.append(Constraint(prog.objective(k), ">=", lo, f"z{k}-lo"))
        if hi is not None:
            rows.append(Constraint(prog.objective(k), "<=", hi, f"z{k}-hi"))
    return rows


@given(tiny_programs(), st.sampled_from((1, 2)), objective_bounds)
@settings(max_examples=200, deadline=None)
def test_bounds_match_explicit_rows(prog, objective_index, bounds):
    explicit = program(prog.variables, prog.constraints + tuple(bound_rows(prog, bounds)),
                       prog.objective1, prog.objective2)
    # Same status, value, node count and assignment.
    assert solve_min(prog, objective_index, bounds) == solve_min(explicit, objective_index)


@given(tiny_programs(), st.sampled_from(((1, 2), (2, 1))), objective_bounds)
@settings(max_examples=200, deadline=None)
def test_lexmin_within_bounds_matches_enumeration(prog, order, bounds):
    points = [p for p in (criterion_point(prog, a) for a in feasible_assignments(prog))
              if within(p, bounds)]
    out = lexmin(prog, order, bounds)
    if not points:
        assert out.status == "infeasible"
        return
    assert out.status == "optimal"
    assert out.point == min(points, key=lambda p: tuple(p.as_tuple()[k - 1] for k in order))
    assert check_assignment(prog, out.assignment) == []
    assert criterion_point(prog, out.assignment) == out.point


def test_export_lp_smoke():
    text = export_lp(knapsack_program(), 1)
    assert text.startswith("Minimize\n")
    assert "Subject To" in text and "Binaries" in text and text.rstrip().endswith("End")
    assert "1 x1 + 2 x2" in text
    assert "c0_cover: 1 x1 + 1 x2 >= 1" in text


def test_export_lp_negative_coefficient_rendering():
    x = binary("x")
    prog = program([x], [], expr({"x": -2}), expr())
    assert "- 2 x" in export_lp(prog, 1)


def test_export_lp_general_integer_bounds():
    # The bounds alone decide the section: an integer declared in [0, 1] is a binary.
    prog = program([integer("t", 1, 5), integer("s", 0, 1)], [], expr({"t": 1, "s": 1}), expr())
    text = export_lp(prog, 1)
    assert text.endswith("Bounds\n 1 <= t <= 5\nBinaries\n s\nGenerals\n t\nEnd\n")


def test_export_lp_moves_constraint_constant_to_rhs():
    x = binary("x")
    con = Constraint(expr({"x": 2}, 3), ">=", 1, "shifted")
    prog = program([x], [con], expr({"x": 1}), expr())
    assert "2 x >= -2" in export_lp(prog, 1)


def test_parse_external_solution_examples():
    prog = knapsack_program()
    got = parse_external_solution("x1 1.0000\nx2 0.0000", prog)
    assert got.values == {"x1": 1, "x2": 0}
    with pytest.raises(SolutionParseError):
        parse_external_solution("x1 0.4999", prog)
    with pytest.raises(SolutionParseError):
        parse_external_solution("y 1", prog)
    with pytest.raises(SolutionParseError):
        parse_external_solution("x1", prog)
    with pytest.raises(SolutionParseError):
        parse_external_solution("x1 one", prog)
    with pytest.raises(SolutionParseError, match="variable x1 listed twice"):
        parse_external_solution("x1 1 x2 0 x1 0", prog)


@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "1e400"])
def test_parse_external_solution_rejects_non_finite_values(raw):
    with pytest.raises(SolutionParseError, match="non-finite value"):
        parse_external_solution(f"x1 {raw}", knapsack_program())


def test_parse_external_solution_defaults_missing_to_zero():
    prog = knapsack_program()
    assert parse_external_solution("x1 1", prog).values == {"x1": 1, "x2": 0}


def test_parse_external_solution_bounds_check():
    t = integer("t", 2, 5)
    prog = program([t], [], expr({"t": 1}), expr())
    with pytest.raises(SolutionValidationError):
        parse_external_solution("t 7", prog)
    with pytest.raises(SolutionValidationError):
        parse_external_solution("", prog)  # zero default outside [2, 5]


def test_t1_optimum_decodes_to_consistent_costs():
    inst = t1_instance()
    prog = build_charging_program(inst)
    for objective_index, company in ((1, inst.companies[0]), (2, inst.companies[1])):
        out = solve_min(prog, objective_index)
        schedule = decode_schedule(out.assignment, inst, prog)
        assert out.value == company_cost(schedule, inst, company)
        assert out.value == evaluate(prog.objective(objective_index), out.assignment)


@given(point_sets)
@settings(max_examples=30, deadline=None)
def test_lexmin_point_is_nondominated(raw):
    prog = make_point_program(raw)
    pts = {CriterionPoint(*p) for p in raw}
    for order in ((1, 2), (2, 1)):
        got = lexmin(prog, order).point
        assert got in pareto_filter(pts)


def test_solution_round_trip_through_lp_listing():
    prog = build_charging_program(t1_instance())
    out = solve_min(prog, 1)
    listing = "\n".join(f"{vid} {val}" for vid, val in out.assignment.rendering())
    back = parse_external_solution(listing, prog)
    assert back == out.assignment
    assert criterion_point(prog, back) == criterion_point(prog, out.assignment)
