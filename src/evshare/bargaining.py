"""Agreement-point selection over a finite frontier.

Two families of selection rules: generalized Nash bargaining (weighted
Nash product of the gains over the disagreement point, maximized) and
distance minimization to the ideal point under a min-max normalized
alpha-norm, including the infinity-norm limit.  Ties go to the smallest z1,
then z2.

Nash products compare as exact integers: with pi = p/q in lowest terms a
point ranks by gain1**p * gain2**(q-p), and q may be at most 1000.

Norm comparisons stay in exact rational arithmetic whenever every term's
power is exactly representable (always for integer alpha, and for rational
alpha when the inputs happen to be perfect powers); only genuinely
irrational powers fall back to floats.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import CriterionPoint, EvshareError, _exact
from .frontier import endpoints

INFINITY = math.inf


class BargainError(EvshareError):
    """Invalid bargaining parameters or an empty/degenerate selection."""


def _is_infinite(alpha):
    if isinstance(alpha, str):
        return alpha.strip().lower() in ("inf", "infinity")
    try:
        return math.isinf(alpha)
    except TypeError:
        return False


# ---------------------------------------------------------------------------
# Reference points.


@dataclass(frozen=True)
class ReferencePoints:
    """Ideal (per-objective minima) and disagreement (standalone costs)."""

    ideal: CriterionPoint
    disagreement: CriterionPoint

    def __post_init__(self):
        if (self.ideal.z1 > self.disagreement.z1
                or self.ideal.z2 > self.disagreement.z2):
            raise BargainError(
                f"ideal {self.ideal.as_tuple()} exceeds disagreement "
                f"{self.disagreement.as_tuple()}")

    @classmethod
    def from_points(cls, points, disagreement):
        """The ideal as the per-axis minima of a frontier's points.

        That is the true ideal for any frontier that keeps both endpoints,
        which every method does: the top endpoint has the least z1, the
        bottom one the least z2.
        """
        if not points:
            raise BargainError("no frontier points: no collaboration")
        ideal = CriterionPoint(min(p.z1 for p in points), min(p.z2 for p in points))
        return cls(ideal, disagreement)


def reference_points(program, participation, node_limit=None):
    """Reference points from the frontier's two endpoints alone.

    The endpoint search (``frontier.endpoints``) runs inside the
    participation region, so the ideal, (top z1, bottom z2), can never fall
    outside the disagreement box; an empty region has no endpoints.
    """
    ends = endpoints(program, participation, node_limit)
    if ends is None:
        raise BargainError("participation region is empty: no collaboration")
    disagreement = CriterionPoint(participation.z1_non, participation.z2_non)
    return ReferencePoints.from_points(ends, disagreement)


# ---------------------------------------------------------------------------
# Generalized Nash bargaining.

PI_MAX_DENOMINATOR = 1000


def gnb_select(points, disagreement, pi):
    """Maximize gain1^pi * gain2^(1-pi) against the disagreement point.

    With pi = p/q in lowest terms a point ranks by the exact integer
    gain1**p * gain2**(q-p), the q-th power of that product, when both gains
    are positive, and by 0 otherwise.  Ties go to the smallest z1, then z2,
    so a set with no positive gain yields its first point in that order.
    ``pi`` may also be a string such as "0.5" or "1/3"; its denominator may
    be at most PI_MAX_DENOMINATOR (1000), which bounds the products' size.
    """
    pi = _exact(pi)
    if not 0 < pi < 1:
        raise BargainError(f"pi must lie strictly inside (0, 1), got {pi!r}")
    if pi.denominator > PI_MAX_DENOMINATOR:
        raise BargainError(
            f"pi must be a fraction with denominator at most {PI_MAX_DENOMINATOR}, "
            f"got {pi}")
    ordered = sorted(points, key=CriterionPoint.as_tuple)
    if not ordered:
        raise BargainError("cannot bargain over an empty point set")
    p, q = pi.numerator, pi.denominator

    def nash_power(point):
        gain1 = disagreement.z1 - point.z1
        gain2 = disagreement.z2 - point.z2
        if gain1 <= 0 or gain2 <= 0:
            return 0
        return gain1 ** p * gain2 ** (q - p)

    return max(ordered, key=nash_power)


# ---------------------------------------------------------------------------
# Alpha-norm distances.


def _integer_root(value, degree):
    """Exact integer degree-th root of a non-negative int, or None."""
    if value < 0:
        return None
    if value in (0, 1) or degree == 1:
        return value
    if value.bit_length() <= degree:   # then value < 2**degree: no root >= 2
        return None
    low, high = 0, 1 << (value.bit_length() // degree + 1)
    while low < high:
        mid = (low + high + 1) // 2
        if mid ** degree <= value:
            low = mid
        else:
            high = mid - 1
    return low if low ** degree == value else None


def _exact_power(base, alpha):
    """base**alpha as an exact Fraction, or None when irrational.

    With alpha = p/q and base = a/b, both in lowest terms, base**alpha is
    rational exactly when a and b are perfect q-th powers, so the roots are
    taken before the power: a large q then costs one root attempt, not a
    root of a p-th power.
    """
    base = abs(_exact(base))
    if base == 0:
        return Fraction(0)
    num = _integer_root(base.numerator, alpha.denominator)
    den = _integer_root(base.denominator, alpha.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den) ** alpha.numerator


def power_sum(values, alpha):
    """Sum of |v|**alpha, exact (Fraction) when every term is; float otherwise.

    Monotone in the alpha-norm, so argmin comparisons can use it directly
    without extracting the final root.
    """
    alpha = _exact(alpha)
    if alpha <= 0:
        raise BargainError(f"alpha must be positive, got {alpha!r}")
    total = Fraction(0)
    exact = True
    for value in values:
        term = _exact_power(value, alpha)
        if term is None:
            exact = False
            break
        total += term
    if exact:
        return total
    return math.fsum(abs(float(_exact(v))) ** float(alpha) for v in values)


def distance_select(points, refs, alpha):
    """Pick the point nearest the ideal under the normalized alpha-norm.

    Coordinates are min-max normalized by the ideal/disagreement box before
    measuring; ties go to the smallest z1, then z2.  ``alpha`` may be a
    string such as "2.5"; pass math.inf (or "inf") for the min-max rule.
    """
    span1 = refs.disagreement.z1 - refs.ideal.z1
    span2 = refs.disagreement.z2 - refs.ideal.z2
    if span1 <= 0 or span2 <= 0:
        raise BargainError(
            f"degenerate normalization spans ({span1}, {span2}); "
            "disagreement must strictly exceed ideal in both coordinates")
    ordered = sorted(points, key=CriterionPoint.as_tuple)
    if not ordered:
        raise BargainError("cannot bargain over an empty point set")
    infinite = _is_infinite(alpha)
    if not infinite:
        alpha = _exact(alpha)

    def distance(point):
        f1 = abs(Fraction(point.z1 - refs.ideal.z1, span1))
        f2 = abs(Fraction(point.z2 - refs.ideal.z2, span2))
        return max(f1, f2) if infinite else power_sum((f1, f2), alpha)

    return min(ordered, key=distance)
