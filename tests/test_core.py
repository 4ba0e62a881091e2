import pytest
from hypothesis import given, strategies as st

from evshare.core import (
    Assignment,
    Constraint,
    CriterionPoint,
    EvaluationError,
    LinearExpression,
    ProgramError,
    Variable,
    binary,
    check_assignment,
    criterion_point,
    dominates,
    evaluate,
    expr,
    format_minor,
    integer,
    pareto_filter,
    program,
)

points = st.builds(
    CriterionPoint,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)


def test_evaluate_examples():
    e = expr({"a": 3, "b": 2}, 1)
    assert evaluate(e, Assignment({"a": 1, "b": 0})) == 4
    assert evaluate(expr(), Assignment({})) == 0
    assert evaluate(expr({"a": -5}), Assignment({"a": 2})) == -10


def test_evaluate_requires_all_variables():
    with pytest.raises(EvaluationError):
        evaluate(expr({"a": 1}), Assignment({"b": 3}))


def test_expr_merges_duplicate_terms_and_drops_zeros():
    e = expr({"a": 2}, 0)
    assert e.terms == {"a": 2}
    assert expr({"a": 0}).terms == {}


def test_dominates_examples():
    assert dominates(CriterionPoint(1, 2), CriterionPoint(2, 2))
    assert not dominates(CriterionPoint(3, 3), CriterionPoint(3, 3))
    assert not dominates(CriterionPoint(1, 5), CriterionPoint(2, 4))


@given(points, points, points)
def test_dominates_is_a_strict_partial_order(p, q, r):
    assert not dominates(p, p)
    if dominates(p, q):
        assert not dominates(q, p)
    if dominates(p, q) and dominates(q, r):
        assert dominates(p, r)


def test_pareto_filter_examples():
    raw = {CriterionPoint(1, 3), CriterionPoint(2, 2), CriterionPoint(3, 1), CriterionPoint(3, 3)}
    assert pareto_filter(raw) == {CriterionPoint(1, 3), CriterionPoint(2, 2), CriterionPoint(3, 1)}
    assert pareto_filter(set()) == set()
    assert pareto_filter({CriterionPoint(5, 5)}) == {CriterionPoint(5, 5)}


@given(st.sets(points, max_size=12))
def test_pareto_filter_output_is_mutually_nondominated(raw):
    kept = pareto_filter(raw)
    assert kept <= raw
    for p in kept:
        assert not any(dominates(q, p) for q in raw)
    # everything dropped is dominated by something kept
    for p in raw - kept:
        assert any(dominates(q, p) for q in kept)


def test_variable_validation():
    with pytest.raises(ProgramError):
        Variable("x", "real", 0, 1)
    with pytest.raises(ProgramError):
        Variable("x", "integer", 4, 2)
    with pytest.raises(ProgramError):
        Variable("x", "binary", 0, 2)
    assert binary("x") == Variable("x", "binary", 0, 1)
    assert integer("t", 0, 5).upper == 5


def test_builders_refuse_non_integers_rather_than_truncate():
    for build in (lambda: expr({"x": 2.5}), lambda: expr({"x": 2}, 1.9),
                  lambda: integer("t", 0.5, 3), lambda: integer("t", 0, 3.7),
                  lambda: Variable("t", "integer", 0, 3.0)):
        with pytest.raises(ProgramError):
            build()


def test_program_rejects_undeclared_references():
    x = binary("x")
    con = Constraint(expr({"y": 1}), "<=", 1, "bad")
    with pytest.raises(ProgramError):
        program([x], [con], expr({"x": 1}), expr())
    with pytest.raises(ProgramError):
        program([x], [], expr({"y": 1}), expr())
    with pytest.raises(ProgramError):
        program([x, x], [], expr(), expr())


def test_expression_rejects_non_integer_data():
    with pytest.raises(ProgramError):
        LinearExpression({"a": 1.5}, 0)
    with pytest.raises(ProgramError):
        Constraint(expr({"a": 1}), "<", 1, "strict")


def test_check_assignment_names_violations():
    x, y = binary("x"), binary("y")
    cap = Constraint(expr({"x": 1, "y": 1}), "<=", 1, "cap")
    prog = program([x, y], [cap], expr({"x": 1}), expr({"y": 1}))
    assert check_assignment(prog, Assignment({"x": 0, "y": 1})) == []
    assert check_assignment(prog, Assignment({"x": 1, "y": 1})) == ["cap"]
    # x = 2 breaks both its own bounds and the capacity row
    assert check_assignment(prog, Assignment({"x": 2, "y": 0})) == ["bounds:x", "cap"]
    partial = check_assignment(prog, Assignment({"x": 0}))
    assert "bounds:y" in partial and "cap" in partial


def test_criterion_point_evaluation():
    x = binary("x")
    prog = program([x], [], expr({"x": 3}, 1), expr({"x": -2}, 5))
    assert criterion_point(prog, Assignment({"x": 1})) == CriterionPoint(4, 3)


def test_format_minor():
    assert format_minor(2100) == "21.00"
    assert format_minor(0) == "0.00"
    assert format_minor(-35) == "-0.35"
    assert format_minor(100099) == "1000.99"


def test_assignment_rendering_is_sorted():
    assert Assignment({"b": 1, "a": 0}).rendering() == (("a", 0), ("b", 1))
