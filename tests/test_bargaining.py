from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from evshare.bargaining import (
    INFINITY,
    BargainError,
    ReferencePoints,
    _exact_power,
    _integer_root,
    distance_select,
    gnb_select,
    power_sum,
    reference_points,
)
from evshare.charging import build_charging_program
from evshare.core import CriterionPoint, NumberFormatError
from evshare.frontier import ParticipationPoint
from evshare.oracle import charging_frontier, noncollab_costs
from evshare.scenario import t1_instance
from evshare.solver import SolverError

from helpers import make_point_program

P = CriterionPoint
F = Fraction

staircases = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40)),
    min_size=1, max_size=7,
).map(lambda raw: sorted({(z1, z2) for z1, z2 in raw}))


# -- generalized Nash bargaining ------------------------------------------------

def test_gnb_tie_breaks_to_smallest_z1():
    got = gnb_select({P(4, 8), P(8, 4)}, P(10, 10), F(1, 2))
    assert got == P(4, 8)


def test_gnb_prefers_balanced_gains():
    got = gnb_select({P(2, 9), P(5, 5)}, P(10, 10), F(1, 2))
    assert got == P(5, 5)


def test_gnb_weight_shifts_the_selection():
    got = gnb_select({P(4, 8), P(8, 4)}, P(10, 10), F(7, 10))
    assert got == P(4, 8)
    got = gnb_select({P(4, 8), P(8, 4)}, P(10, 10), F(3, 10))
    assert got == P(8, 4)


def test_gnb_zero_gain_ranks_below_positive_gain():
    # (10, 4) gives company 1 nothing; (6, 6) improves both
    got = gnb_select({P(10, 4), P(6, 6)}, P(10, 10), F(1, 2))
    assert got == P(6, 6)
    # with no positive-gain point at all, fall back to the tie-break order
    got = gnb_select({P(10, 4), P(10, 2)}, P(10, 10), F(1, 2))
    assert got == P(10, 2)


def test_gnb_validates_inputs():
    with pytest.raises(BargainError):
        gnb_select(set(), P(10, 10), F(1, 2))
    with pytest.raises(BargainError):
        gnb_select({P(1, 1)}, P(10, 10), F(0))
    with pytest.raises(BargainError):
        gnb_select({P(1, 1)}, P(10, 10), 1)
    # pi's denominator is bounded so that the exact products stay small
    for bad in ("0.0001", F(1, 1001), 0.1 + 0.2):
        with pytest.raises(BargainError, match="denominator at most 1000"):
            gnb_select({P(4, 8), P(8, 4)}, P(10, 10), bad)
    assert gnb_select({P(4, 8), P(8, 4)}, P(10, 10), F(999, 1000)) == P(4, 8)
    assert gnb_select({P(4, 8), P(8, 4)}, P(10, 10), "1/3") == P(8, 4)


def test_gnb_compares_products_exactly_at_large_gains():
    # gains (g+2, g) against (g+1, g+1): products g^2+2g < g^2+2g+1, whose
    # logarithms differ by ~1e-12 relatively at g = 10^6
    g = 10 ** 6
    got = gnb_select({P(2 * g - 2, 2 * g), P(2 * g - 1, 2 * g - 1)}, P(3 * g, 3 * g), F(1, 2))
    assert got == P(2 * g - 1, 2 * g - 1)


@given(staircases, st.integers(min_value=1, max_value=10 ** 7),
       st.integers(min_value=0, max_value=45), st.integers(min_value=0, max_value=45),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       st.sampled_from([F(k, 10) for k in range(1, 10)] + [F(1, 3), F(2, 3)]))
@settings(max_examples=80, deadline=None)
def test_gnb_picks_the_largest_exact_nash_product(raw, scale, d1, d2, e1, e2, pi):
    points = sorted((P(scale * z1, scale * z2) for z1, z2 in raw), key=P.as_tuple)
    d = P(scale * d1 + e1, scale * d2 + e2)

    def power(point):       # the Nash product to the power of pi's denominator
        gain1, gain2 = d.z1 - point.z1, d.z2 - point.z2
        if gain1 <= 0 or gain2 <= 0:
            return 0
        return gain1 ** pi.numerator * gain2 ** (pi.denominator - pi.numerator)

    best = max(power(p) for p in points)
    want = points[0] if best == 0 else next(p for p in points if power(p) == best)
    assert gnb_select(points, d, pi) == want


@given(staircases, st.integers(min_value=1, max_value=9))
@settings(max_examples=60, deadline=None)
def test_gnb_pi_monotonicity(raw, tenths):
    points = [P(z1, z2) for z1, z2 in raw]
    d = P(max(p.z1 for p in points) + 5, max(p.z2 for p in points) + 5)
    lo = gnb_select(points, d, F(tenths, 10))
    for later in range(tenths + 1, 10):
        hi = gnb_select(points, d, F(later, 10))
        assert hi.z1 <= lo.z1
        lo = hi


@given(staircases,
       st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=50),
       st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=50))
@settings(max_examples=60, deadline=None)
def test_gnb_gain_axis_rescaling_invariance(raw, a1, b1, a2, b2):
    points = [P(z1, z2) for z1, z2 in raw]
    d = P(max(p.z1 for p in points) + 3, max(p.z2 for p in points) + 3)
    base = gnb_select(points, d, F(1, 2))
    mapped = [P(a1 * p.z1 + b1, a2 * p.z2 + b2) for p in points]
    d2 = P(a1 * d.z1 + b1, a2 * d.z2 + b2)
    got = gnb_select(mapped, d2, F(1, 2))
    assert got == P(a1 * base.z1 + b1, a2 * base.z2 + b2)


# -- alpha norms -----------------------------------------------------------------

def test_power_sum_stays_exact_on_rationals():
    f = (F(3, 10), F(2, 5))
    got = power_sum(f, 2)
    assert got == F(1, 4) and isinstance(got, Fraction)
    # alpha = 3/2 on perfect squares keeps exactness: (9/16)^(3/2) = 27/64
    got = power_sum((F(9, 16),), F(3, 2))
    assert got == F(27, 64) and isinstance(got, Fraction)


def test_power_sum_falls_back_to_float_when_roots_are_irrational():
    got = power_sum((F(1, 2),), F(3, 2))
    assert isinstance(got, float)
    assert got == pytest.approx(0.5 ** 1.5)


def test_power_sum_at_a_tiny_alpha_answers_at_once():
    # 2 has no integer root of degree 10**12; finding that must not compute
    # 2 to the power 10**12.
    got = power_sum((F(1, 2),), F(1, 10**12))
    assert isinstance(got, float)
    assert got == pytest.approx(0.5 ** 1e-12)


def test_power_sum_at_a_long_decimal_alpha_answers_at_once():
    # alpha = 6172839/5000000: no base here has an integer root of that
    # degree, and finding that must not first raise it to the 6172839th power.
    got = power_sum((F(1, 3), F(2, 7)), "1.2345678")
    assert isinstance(got, float)
    assert got == pytest.approx((1 / 3) ** 1.2345678 + (2 / 7) ** 1.2345678)


def test_exact_power_takes_the_root_before_the_power():
    assert _exact_power(F(1, 4), F(3, 2)) == F(1, 8)
    assert _exact_power(F(8, 27), F(2, 3)) == F(4, 9)
    assert _exact_power(F(2, 9), F(3, 2)) is None


@given(st.fractions(min_value=0, max_value=20, max_denominator=40),
       st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6))
def test_exact_power_matches_the_root_of_the_power(base, alpha):
    # The q-th root of base**p, as a rational or None, for alpha = p/q.
    powered = base ** alpha.numerator
    roots = [_integer_root(part, alpha.denominator)
             for part in (powered.numerator, powered.denominator)]
    expected = None if None in roots else F(*roots)
    assert _exact_power(base, alpha) == expected


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=12))
def test_integer_root_finds_exactly_the_perfect_powers(root, degree):
    assert _integer_root(root ** degree, degree) == root
    if root > 0 and degree > 1:
        assert _integer_root(root ** degree + 1, degree) is None


def test_power_sum_rejects_bad_alpha():
    with pytest.raises(BargainError):
        power_sum((F(1, 2),), 0)
    with pytest.raises(BargainError):
        power_sum((F(1, 2),), -2)


norm_vectors = st.lists(
    st.builds(lambda a, b: F(a, b) ** 2,
              st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=9)),
    min_size=2, max_size=5)


@given(norm_vectors, st.sampled_from([F(1), F(3, 2), F(2), F(4), F(16)]))
@settings(max_examples=80, deadline=None)
def test_norm_sandwich_exact(f, alpha):
    n = len(f)
    peak = max(abs(v) for v in f)
    total = power_sum(f, alpha)
    assert isinstance(total, Fraction)
    # compare in power space: peak^alpha <= sum <= n * peak^alpha
    lo = power_sum((peak,), alpha)
    assert lo <= total <= n * lo


# -- distance selection ------------------------------------------------------------

def refs_0_10():
    return ReferencePoints(P(0, 0), P(10, 10))


def test_distance_select_examples():
    pts = {P(2, 8), P(4, 4)}
    assert distance_select(pts, refs_0_10(), 1) == P(4, 4)
    assert distance_select(pts, refs_0_10(), INFINITY) == P(4, 4)
    assert distance_select(pts, refs_0_10(), 2) == P(4, 4)


def test_distance_select_tie_breaks_to_smallest_z1():
    assert distance_select({P(4, 8), P(8, 4)}, refs_0_10(), 2) == P(4, 8)


def test_distance_select_errors():
    with pytest.raises(BargainError):
        distance_select(set(), refs_0_10(), 2)
    degenerate = ReferencePoints(P(5, 0), P(5, 10))
    with pytest.raises(BargainError, match="degenerate"):
        distance_select({P(5, 5)}, degenerate, 2)


def test_large_alpha_matches_the_infinite_norm():
    pts = {P(2, 8), P(4, 4)}
    want = distance_select(pts, refs_0_10(), INFINITY)
    assert distance_select(pts, refs_0_10(), 64) == want
    assert distance_select(pts, refs_0_10(), 128) == want


@given(staircases,
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=30),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=30),
       st.sampled_from([F(1), F(2), F(4), INFINITY]))
@settings(max_examples=60, deadline=None)
def test_distance_select_affine_invariance(raw, a1, b1, a2, b2, alpha):
    points = [P(z1, z2) for z1, z2 in raw]
    ideal = P(min(p.z1 for p in points) - 1, min(p.z2 for p in points) - 1)
    dis = P(max(p.z1 for p in points) + 1, max(p.z2 for p in points) + 1)
    base = distance_select(points, ReferencePoints(ideal, dis), alpha)
    mapped = [P(a1 * p.z1 + b1, a2 * p.z2 + b2) for p in points]
    refs2 = ReferencePoints(P(a1 * ideal.z1 + b1, a2 * ideal.z2 + b2),
                            P(a1 * dis.z1 + b1, a2 * dis.z2 + b2))
    got = distance_select(mapped, refs2, alpha)
    assert got == P(a1 * base.z1 + b1, a2 * base.z2 + b2)


# -- reference points and dispatch ---------------------------------------------------

def test_reference_points_t1_matches_oracle():
    inst = t1_instance()
    prog = build_charging_program(inst)
    participation = ParticipationPoint(*noncollab_costs(inst))
    refs = reference_points(prog, participation)
    oracle_pts = charging_frontier(inst, participation=(participation.z1_non,
                                                        participation.z2_non))
    assert refs.ideal == P(min(p.z1 for p in oracle_pts), min(p.z2 for p in oracle_pts))
    assert refs.disagreement == P(2100, 2100)


def test_reference_points_singleton():
    prog = make_point_program([(5, 5)])
    refs = reference_points(prog, ParticipationPoint(9, 9))
    assert refs.ideal == P(5, 5)
    assert refs.disagreement == P(9, 9)


def test_reference_points_infeasible_region():
    prog = make_point_program([(5, 5)])
    with pytest.raises(BargainError, match="participation region is empty"):
        reference_points(prog, ParticipationPoint(4, 4))


def test_reference_points_node_limit_raises():
    prog = build_charging_program(t1_instance())
    with pytest.raises(SolverError, match="node limit 1 exhausted"):
        reference_points(prog, ParticipationPoint(2100, 2100), node_limit=1)


def test_reference_points_invariant():
    with pytest.raises(BargainError):
        ReferencePoints(P(5, 5), P(4, 9))


def test_selection_rules_take_flag_strings():
    """The CLI passes --pi and --alpha through as the strings it was given."""
    pts = {P(2, 8), P(4, 4), P(8, 1)}
    refs = refs_0_10()
    assert gnb_select(pts, refs.disagreement, "0.5") == gnb_select(pts, refs.disagreement, F(1, 2))
    assert gnb_select(pts, refs.disagreement, "1/3") == gnb_select(pts, refs.disagreement, F(1, 3))
    assert distance_select(pts, refs, "2.5") == distance_select(pts, refs, F(5, 2))
    for text in ("inf", " Infinity "):
        assert distance_select(pts, refs, text) == distance_select(pts, refs, INFINITY)
    with pytest.raises(BargainError):
        gnb_select(pts, refs.disagreement, "1")
    with pytest.raises(BargainError):
        distance_select(pts, refs, "0")
    for bad in ("abc", "1/0"):
        with pytest.raises(NumberFormatError):
            gnb_select(pts, refs.disagreement, bad)
        with pytest.raises(NumberFormatError):
            distance_select(pts, refs, bad)
