"""Bi-objective integer linear programs and objective-space primitives.

All money-valued quantities are fixed-point integers in minor units
(1 unit = 0.01 SEK by default), so every comparison in objective space
is exact -- no floating point anywhere in the program representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction


class EvshareError(Exception):
    """Base class for domain errors (CLI maps these to exit code 1)."""


class EvaluationError(EvshareError):
    pass


class ProgramError(EvshareError):
    pass


class NumberFormatError(EvshareError):
    """A value that should be a number (e.g. a CLI flag) does not parse as one."""


SENSES = ("<=", "=", ">=")


@dataclass(frozen=True)
class Variable:
    """An integer decision variable with inclusive bounds; binary exactly
    when its bounds are [0, 1]."""

    id: str
    lower: int
    upper: int

    def __post_init__(self):
        if not (isinstance(self.lower, int) and isinstance(self.upper, int)):
            raise ProgramError(f"variable {self.id}: non-integer bounds {self.lower!r}, {self.upper!r}")
        if self.lower > self.upper:
            raise ProgramError(f"variable {self.id}: lower {self.lower} > upper {self.upper}")


def binary(vid):
    return Variable(vid, 0, 1)


def integer(vid, lower, upper):
    return Variable(vid, lower, upper)


@dataclass(frozen=True)
class LinearExpression:
    """terms maps variable id -> integer coefficient; constant is an integer.

    At most one term per variable by construction (dict keys).
    """

    terms: dict = field(default_factory=dict)
    constant: int = 0

    def __post_init__(self):
        for vid, coef in self.terms.items():
            if not isinstance(coef, int):
                raise ProgramError(f"non-integer coefficient {coef!r} on {vid}")
        if not isinstance(self.constant, int):
            raise ProgramError(f"non-integer constant {self.constant!r}")

    def sorted_terms(self):
        return sorted(self.terms.items())


def expr(terms=None, constant=0):
    """Build a LinearExpression with zero coefficients dropped."""
    return LinearExpression({vid: c for vid, c in (terms or {}).items() if c}, constant)


@dataclass(frozen=True)
class Constraint:
    expression: LinearExpression
    sense: str
    rhs: int
    name: str = ""

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ProgramError(f"constraint {self.name!r}: bad sense {self.sense!r}")
        if not isinstance(self.rhs, int):
            raise ProgramError(f"constraint {self.name!r}: non-integer rhs {self.rhs!r}")


@dataclass(frozen=True)
class BiObjectiveProgram:
    """Two linear objectives, both minimized, over bounded integer variables.

    ``_compiled`` is the solver's compiled form of the program, set on its
    first solve; it takes no part in comparison, and ``replace`` starts a
    copy without it.
    """

    variables: tuple
    constraints: tuple
    objective1: LinearExpression
    objective2: LinearExpression
    _compiled: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        declared = {v.id for v in self.variables}
        if len(declared) != len(self.variables):
            raise ProgramError("duplicate variable id")
        for con in self.constraints:
            for vid in con.expression.terms:
                if vid not in declared:
                    raise ProgramError(f"constraint {con.name!r} references undeclared {vid}")
        for label, obj in (("objective1", self.objective1), ("objective2", self.objective2)):
            for vid in obj.terms:
                if vid not in declared:
                    raise ProgramError(f"{label} references undeclared {vid}")

    def variable_map(self):
        return {v.id: v for v in self.variables}

    def objective(self, index):
        if index == 1:
            return self.objective1
        if index == 2:
            return self.objective2
        raise ProgramError(f"objective index must be 1 or 2, got {index!r}")


def program(variables, constraints, objective1, objective2):
    return BiObjectiveProgram(tuple(variables), tuple(constraints), objective1, objective2)


@dataclass(frozen=True)
class Assignment:
    values: dict

    def rendering(self):
        """The values as (id, value) pairs sorted by id: the order the CLI
        writes them in, and a hashable form to compare or digest."""
        return tuple(sorted(self.values.items()))


@dataclass(frozen=True, order=True)
class CriterionPoint:
    z1: int
    z2: int

    def as_tuple(self):
        return (self.z1, self.z2)


@dataclass(frozen=True)
class ParticipationPoint:
    """Per-company standalone costs; collaboration must not exceed them."""

    z1_non: int
    z2_non: int


def evaluate(expression, assignment):
    """Exact value of a linear expression under an assignment."""
    total = expression.constant
    values = assignment.values
    for vid, coef in expression.terms.items():
        if vid not in values:
            raise EvaluationError(f"unassigned variable {vid}")
        total += coef * values[vid]
    return total


def criterion_point(prog, assignment):
    return CriterionPoint(evaluate(prog.objective1, assignment), evaluate(prog.objective2, assignment))


def check_assignment(prog, assignment):
    """Return the names of all constraints the assignment violates (bounds included)."""
    bad = []
    values = assignment.values
    for v in prog.variables:
        val = values.get(v.id)
        if val is None or not (v.lower <= val <= v.upper):
            bad.append(f"bounds:{v.id}")
    for con in prog.constraints:
        if any(vid not in values for vid in con.expression.terms):
            bad.append(con.name or f"{con.sense}{con.rhs}")
            continue
        lhs = evaluate(con.expression, assignment)
        ok = (lhs <= con.rhs) if con.sense == "<=" else (lhs >= con.rhs) if con.sense == ">=" else (lhs == con.rhs)
        if not ok:
            bad.append(con.name or f"{con.sense}{con.rhs}")
    return bad


def dominates(p, q):
    """Minimization dominance: p is at least as good in both coordinates and p != q."""
    return p.z1 <= q.z1 and p.z2 <= q.z2 and p != q


def pareto_filter(points):
    """The subset of points not dominated by any other input point."""
    pts = set(points)
    return {p for p in pts if not any(dominates(q, p) for q in pts)}


def _exact(value):
    """Exact Fraction from int/str/float/Fraction (floats via their repr)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise NumberFormatError(f"not a finite number: {value!r}") from None


def _ratio(value):
    """``_exact(value)`` as a (numerator, denominator) pair in lowest terms;
    an int or a float is read with no Fraction built, a float as the decimal
    its repr prints."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float) and math.isfinite(value):
        return Decimal(repr(value)).as_integer_ratio()
    return _exact(value).as_integer_ratio()


def _round_half_up(numerator, denominator):
    """numerator / denominator (denominator > 0) rounded to the nearest int,
    ties away from zero."""
    if numerator >= 0:
        return (2 * numerator + denominator) // (2 * denominator)
    return -((denominator - 2 * numerator) // (2 * denominator))


def _half_up(fraction):
    """Round an exact Fraction to the nearest int, ties away from zero."""
    return _round_half_up(fraction.numerator, fraction.denominator)


def format_minor(amount):
    """Render minor units as a decimal string: 2100 -> '21.00'."""
    sign = "-" if amount < 0 else ""
    whole, cents = divmod(abs(amount), 100)
    return f"{sign}{whole}.{cents:02d}"
