"""Bi-objective integer programming toolkit for collaborative EV charging.

Exact Pareto frontiers via rectangle subdivision (plus two reduced-frontier
variants), cooperative bargaining over the result, and an end-to-end EV
charging pipeline: scenario generation, model build, frontier computation,
agreement selection, validated schedules and metric reports.
"""

__version__ = "0.1.0"

from .core import (
    Assignment,
    BiObjectiveProgram,
    Constraint,
    CriterionPoint,
    EvshareError,
    LinearExpression,
    Variable,
    check_assignment,
    criterion_point,
    dominates,
    evaluate,
    pareto_filter,
)
from .solver import SolverConfig, lexmin, solve_min
from .frontier import (
    ClosenessMargins,
    FrontierResult,
    ParticipationPoint,
    Rectangle,
    compute_margins,
    cts_metric,
    gap_metric,
    initial_box,
    run_method,
)
from .bargaining import (
    ReferencePoints,
    alpha_norm,
    distance_select,
    gnb_select,
    reference_points,
)
from .charging import (
    ChargingInstance,
    Schedule,
    build_charging_program,
    company_cost,
    decode_schedule,
    noncollab_point,
    validate_schedule,
)
from .scenario import ScenarioConfig, generate_scenario, load_price_series, t1_instance

__all__ = [
    "Assignment",
    "BiObjectiveProgram",
    "ChargingInstance",
    "ClosenessMargins",
    "Constraint",
    "CriterionPoint",
    "EvshareError",
    "FrontierResult",
    "LinearExpression",
    "ParticipationPoint",
    "Rectangle",
    "ReferencePoints",
    "Schedule",
    "ScenarioConfig",
    "SolverConfig",
    "Variable",
    "alpha_norm",
    "build_charging_program",
    "check_assignment",
    "company_cost",
    "compute_margins",
    "criterion_point",
    "cts_metric",
    "decode_schedule",
    "distance_select",
    "dominates",
    "evaluate",
    "gap_metric",
    "generate_scenario",
    "gnb_select",
    "initial_box",
    "lexmin",
    "load_price_series",
    "noncollab_point",
    "pareto_filter",
    "reference_points",
    "run_method",
    "solve_min",
    "t1_instance",
    "validate_schedule",
]
