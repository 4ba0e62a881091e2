"""Exact and reduced Pareto frontiers for bi-objective integer programs.

Three search strategies over objective-space rectangles, all driven by the
same branch-and-bound backend:

  * ``bbox``  -- exhaustive rectangle subdivision; returns every
    non-dominated point inside the participation region.
  * ``b3m1``  -- same exploration, but a freshly found point that lies
    within the closeness margins of an already retained point is dropped,
    pruning near-duplicate points (and their child rectangles).
  * ``b3m2``  -- rectangles are pulled in by the margins before they are
    searched, skipping whole regions that cannot contain a point farther
    than the margins from the retained corners.  Where the pull exceeds
    one unit, candidates are certified non-dominated with one extra
    lexicographic search before being recorded.  At zero margins b3m1 and
    b3m2 make bbox's searches: bbox is their zero-margin case.

Every run starts with one search (``solver.lexmin_pair``) that finds both
endpoints: the (z1, z2) and the (z2, z1) minimum of the participation
region.  Each is the leaf a ``lexmin`` of its own order over the region
returns, and the bottom one is also the leaf a search of the region's part
right of and below the top point returns, since every other frontier point
lies there (``_Run.endpoints``).

Every solve is restricted in objective space only through the solver's
``bounds``: a search box, the participation region (``participation_caps``)
or a certification box, each side an inclusive integer or None when open.
All objective values are fixed-point integers (minor currency units), so an
open bound becomes a closed one by stepping one minor unit.  No search box
holds a point the run already knows: the endpoint search comes first, and
the non-dominated points not yet found lie strictly inside each
rectangle.  A certification box, the candidate's own closed
lower-left box, holds none either: every known point lies above or right
of the box the candidate was found in.  A box so cut loses only leaves
that cannot be its search's optimum, so every search returns the status,
point and witness it returned with the known points included, in no more
nodes.  A box left empty is not searched at all.

One witness rule holds for every method, at every tolerance and under any
caps: each recorded point's witness is the lexicographically least feasible
assignment that attains it, in declaration order with lower values first.
Every search branches on the first unfixed variable, lower value first, and
keeps the first optimal leaf it reaches.  The oracle's witnesses follow a
different order: each is the first schedule its enumeration reaches.
"""

import csv
import io
import math
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .core import CriterionPoint, EvshareError, ParticipationPoint, _exact, _half_up
from . import solver as _solver


class FrontierError(EvshareError):
    """Invalid frontier parameters or malformed frontier artifacts."""


# ---------------------------------------------------------------------------
# Value objects.


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned objective-space box between two criterion points.

    ``top_left`` has the smaller z1 and larger z2; ``bottom_right`` the
    larger z1 and smaller z2.  Both corners are inclusive.
    """

    top_left: CriterionPoint
    bottom_right: CriterionPoint

    def __post_init__(self):
        if (self.top_left.z1 > self.bottom_right.z1
                or self.top_left.z2 < self.bottom_right.z2):
            raise FrontierError(
                f"invalid rectangle corners {self.top_left.as_tuple()} .. "
                f"{self.bottom_right.as_tuple()}")

    def bounds(self):
        """The box as solver bounds: ((z1 lo, z1 hi), (z2 lo, z2 hi))."""
        return ((self.top_left.z1, self.bottom_right.z1),
                (self.bottom_right.z2, self.top_left.z2))


@dataclass(frozen=True)
class ClosenessMargins:
    """Distance thresholds below which two points count as interchangeable.

    ``sigma1``/``sigma2`` are fixed-point integer distances along z1/z2.
    """

    sigma1: int
    sigma2: int

    def __post_init__(self):
        if self.sigma1 < 0 or self.sigma2 < 0:
            raise FrontierError("closeness margins must be non-negative")


@dataclass(frozen=True)
class FrontierResult:
    """Outcome of one frontier run.

    ``points`` is a tuple of (CriterionPoint, Assignment) pairs sorted by
    ascending z1.  ``epsilon`` is the tolerance as a percentage (exact
    Fraction).  ``searches`` maps each search kind of ``SEARCH_KINDS`` to
    its (solver calls, nodes): the one endpoint search, the rectangles'
    bottom and top searches and b3m2's certifications.  ``solver_calls``
    and ``nodes`` are their sums over every search the run made.
    """

    method: str
    epsilon: Fraction
    points: tuple
    wall_time: float
    rectangles_processed: int
    searches: dict = field(default_factory=dict)

    @property
    def solver_calls(self):
        return sum(calls for calls, _ in self.searches.values())

    @property
    def nodes(self):
        return sum(nodes for _, nodes in self.searches.values())

    @property
    def status(self):
        """The run's outcome, read off its points: "no-collaboration" when
        the frontier is empty, which happens exactly when the participation
        region holds no point (every method keeps the top endpoint), else
        "ok"."""
        return "ok" if self.points else "no-collaboration"

    def criterion_points(self):
        return tuple(p for p, _ in self.points)


METHODS = ("bbox", "b3m1", "b3m2")
SEARCH_KINDS = ("endpoints", "bottom", "top", "certification")


# ---------------------------------------------------------------------------
# Margins and closeness predicates.


def compute_margins(epsilon, z_top, z_bottom):
    """Margins from a relative tolerance and the frontier's extreme points.

    ``epsilon`` is the tolerance as a plain fraction (0.03 for 3%); sigma1
    scales the magnitude of the top-left z1, sigma2 that of the
    bottom-right z2 (a margin is a distance, so a negative extreme gives a
    positive margin), each rounded half-up to a whole fixed-point unit.
    """
    eps = _exact(epsilon)
    if eps < 0:
        raise FrontierError(f"closeness tolerance must be >= 0, got {epsilon!r}")
    sigma1 = _half_up(eps * abs(z_top.z1))
    sigma2 = _half_up(eps * abs(z_bottom.z2))
    return ClosenessMargins(sigma1, sigma2)


def strictly_close(point, others, margins):
    """True if some point of ``others`` is within BOTH margins (inclusive)."""
    return any(abs(point.z1 - q.z1) <= margins.sigma1
               and abs(point.z2 - q.z2) <= margins.sigma2
               for q in others)


# ---------------------------------------------------------------------------
# Rectangle surgery.


def shrink_rectangle(rect, margins):
    """Pull both corners inward by (sigma1, sigma2).

    Returns the shrunk rectangle, or None when the margins swallow it
    entirely (the caller should drop such a rectangle unsearched).
    """
    tl = CriterionPoint(rect.top_left.z1 + margins.sigma1,
                        rect.top_left.z2 - margins.sigma2)
    br = CriterionPoint(rect.bottom_right.z1 - margins.sigma1,
                        rect.bottom_right.z2 + margins.sigma2)
    if tl.z1 > br.z1 or tl.z2 < br.z2:
        return None
    return Rectangle(tl, br)


# ---------------------------------------------------------------------------
# Participation bounds.


def participation_caps(participation):
    """Solver bounds capping each company's objective at its standalone cost."""
    if participation is None:
        return _solver.OPEN
    return ((None, participation.z1_non), (None, participation.z2_non))


# ---------------------------------------------------------------------------
# The rectangle engine.


class _Run:
    """Mutable state shared by the three strategies during one run.

    ``searches`` holds [calls, nodes] per search kind (``SEARCH_KINDS``).
    """

    def __init__(self, program, participation, config):
        self.program = program
        self.config = config
        self.caps = participation_caps(participation)
        self.recorded = {}
        self.searches = {kind: [0, 0] for kind in SEARCH_KINDS}
        self.rectangles = 0

    def count(self, kind, out):
        counts = self.searches[kind]
        counts[0] += out.solves
        counts[1] += out.nodes_explored

    def lexmin(self, kind, order, bounds):
        """One lexicographic search of ``kind`` in ``bounds``; its outcome,
        or None.

        None when the box holds no point: either its bounds cross (a lower
        side above the upper one, then no search runs and no call is
        counted) or the search finds it infeasible.
        """
        if any(lo is not None and hi is not None and lo > hi for lo, hi in bounds):
            return None
        out = _solver.lexmin(self.program, order, bounds, self.config)
        self.count(kind, out)
        return out if out.status != "infeasible" else None

    def endpoints(self):
        """Record the frontier's two endpoints; (z_top, z_bottom) or None.

        One search (``solver.lexmin_pair``) finds both: the top endpoint is
        the (z1, z2) minimum of the participation region and the bottom
        endpoint its (z2, z1) minimum.  None means the region holds no
        feasible point.  Each is the leaf its own ``lexmin`` over the
        region returns: the joint search keeps one incumbent per order and
        cuts a node only when neither order can still improve below it, so
        each order's first optimal leaf in depth-first order is never cut.
        The bottom endpoint is the one a search of the region's part with
        z1 >= top.z1 + 1 and z2 <= top.z2 - 1 finds: every other frontier
        point lies there, and the (z2, z1) minimum is a frontier point, so
        both searches have the same optimal leaves.  When the frontier is
        the top point alone, the two minima are that point, and the top
        witness is recorded.
        """
        out = _solver.lexmin_pair(self.program, self.caps, self.config)
        self.count("endpoints", out)
        if out.status == "infeasible":
            return None
        (top, top_assignment), (bottom, bottom_assignment) = out.top, out.bottom
        self.recorded[top] = top_assignment
        if bottom != top:
            self.recorded[bottom] = bottom_assignment
        return top, bottom

    def certify_nondominated(self, point):
        """Check nothing in the participation region dominates ``point``.

        A feasible point is non-dominated exactly when it is the (z2, z1)
        minimum of its own closed lower-left box z1 <= point.z1,
        z2 <= point.z2: a point dominating it would lie in the box and come
        first.  The box holds the point, so the search always finds one, and
        lies inside the participation region because the point does.  Needed
        only for candidates from boxes pulled in by more than one unit on
        some axis, whose bounds no longer guarantee non-dominance.
        """
        out = self.lexmin("certification", (2, 1), ((None, point.z1), (None, point.z2)))
        return out.point == point


def endpoints(program, participation=None, config=_solver.SolverConfig()):
    """The two endpoints of the frontier inside the participation region.

    Returns (z_top, z_bottom), the same point twice for a one-point
    frontier, or None when the region is empty.  This is the one search
    every ``run_method`` run starts with.
    """
    return _Run(program, participation, config).endpoints()


def _run_rectangles(method, run, margins, z_top, z_bottom):
    """FIFO rectangle subdivision between the two frontier endpoints.

    Each rectangle is searched in its box pulled in by ``pull``: one unit
    on each side for b3m1, the margins (at least one unit) otherwise.
    Both corners are recorded points, so a side pulled in by one unit
    leaves out only a corner's row or column, which holds the corner and
    points it dominates.  The box is split at the floor midpoint of
    its z2 range: one lexicographic search finds the leftmost point of the
    bottom half, one the lowest point above the mid line and left of the
    bottom point.  After a kept bottom point c the top box ends at
    c.z1 - pull.sigma1 and starts at max(c.z2 + pull.sigma2, mid); after
    any other bottom point it ends at c.z1 - 1, and with no bottom point
    at the box's right side.  A box the pull or a cap leaves empty is not
    searched.  b3m1 drops a candidate within the margins of an anchor;
    other runs certify one only when the pull exceeds one unit on some
    axis, since a one-unit pull leaves no point outside the box that could
    dominate its lexicographic minimum (README "Methods").  So bbox is the
    zero-margin run, and b3m2 at margins of at most one unit is bbox.
    """
    pull = ClosenessMargins(1, 1)
    if method != "b3m1":
        pull = ClosenessMargins(max(margins.sigma1, 1), max(margins.sigma2, 1))
    certify = max(pull.sigma1, pull.sigma2) > 1

    def keep(candidate, anchors):
        if method == "b3m1":  # drop a point interchangeable with an anchor
            return not strictly_close(candidate, anchors, margins)
        return not certify or run.certify_nondominated(candidate)

    queue = deque()
    if z_top != z_bottom:
        queue.append(Rectangle(z_top, z_bottom))
    while queue:
        rect = queue.popleft()
        run.rectangles += 1
        box = shrink_rectangle(rect, pull)
        if box is None:
            continue
        tl, br = box.top_left, box.bottom_right
        mid = (tl.z2 + br.z2) // 2

        # --- bottom search: leftmost point with z2 at or below the mid line.
        found_bottom = None
        top_z1_cap, top_floor = br.z1, mid
        bottom = run.lexmin("bottom", (1, 2), ((tl.z1, br.z1), (br.z2, mid)))
        if bottom is not None:
            candidate = bottom.point
            top_z1_cap = candidate.z1 - 1
            if keep(candidate, (rect.bottom_right,)):
                run.recorded[candidate] = bottom.assignment
                found_bottom = candidate
                queue.append(Rectangle(candidate, rect.bottom_right))
                top_z1_cap = candidate.z1 - pull.sigma1
                top_floor = max(candidate.z2 + pull.sigma2, mid)

        # --- top search: lowest point above the mid line, left of the cap.
        top = run.lexmin("top", (2, 1), ((tl.z1, top_z1_cap), (top_floor, tl.z2)))
        if top is None:
            continue
        candidate = top.point
        if keep(candidate, (rect.top_left, found_bottom or rect.bottom_right)):
            run.recorded[candidate] = top.assignment
            queue.append(Rectangle(rect.top_left, candidate))
        elif (method == "b3m1" and found_bottom is not None
              and strictly_close(candidate, (found_bottom,), margins)):
            # The pruned point may hide others between it and the freshly
            # recorded one: re-queue the enlarged top part.
            queue.append(Rectangle(rect.top_left, found_bottom))


def run_method(program, participation=None, method="bbox", epsilon=0,
               config=_solver.SolverConfig()):
    """Compute a frontier with the chosen strategy.

    ``epsilon`` is the closeness tolerance as a percentage (3 means 3%);
    exact rationals and decimal strings are accepted.  ``participation``
    caps each objective at the standalone cost of its company.
    ``wall_time`` times the search alone: the program is compiled, if no
    earlier solve did so, before the clock starts.
    """
    if method not in METHODS:
        raise FrontierError(f"unknown method {method!r}; expected one of {METHODS}")
    eps_pct = _exact(epsilon)
    if eps_pct < 0:
        raise FrontierError(f"epsilon must be >= 0, got {epsilon!r}")
    if method == "bbox":
        eps_pct = Fraction(0)

    _solver.compile_program(program)  # once per program, outside the timed search
    start = time.perf_counter()
    run = _Run(program, participation, config)
    endpoints = run.endpoints()
    if endpoints is not None:
        z_top, z_bottom = endpoints
        margins = compute_margins(eps_pct / 100, z_top, z_bottom)
        _run_rectangles(method, run, margins, z_top, z_bottom)

    ordered = tuple(sorted(run.recorded.items(), key=lambda item: item[0].as_tuple()))
    return FrontierResult(method, eps_pct, ordered, time.perf_counter() - start,
                          run.rectangles,
                          {kind: tuple(counts) for kind, counts in run.searches.items()})


# ---------------------------------------------------------------------------
# Quality metrics.


def gap_metric(exact_points, reduced_points, z_top, z_bottom):
    """Mean normalized distance from dropped points to the reduced frontier.

    Distances are scaled per axis by the frontier extremes (z_top.z1,
    z_bottom.z2), combined euclidean, normalized by sqrt(2), averaged over
    the dropped points and returned as a percentage.  An empty drop set
    gives 0.0 whatever the extremes; a dropped point needs both of them
    nonzero.
    """
    exact = list(exact_points)
    reduced = set(reduced_points)
    if not reduced:
        raise FrontierError("gap metric undefined: reduced frontier is empty")
    stray = reduced - set(exact)
    if stray:
        raise FrontierError(
            f"reduced frontier is not a subset of the exact one: {sorted(p.as_tuple() for p in stray)}")
    ignored = [p for p in exact if p not in reduced]
    if not ignored:
        return 0.0
    if z_top.z1 == 0 or z_bottom.z2 == 0:
        raise FrontierError("gap metric undefined: zero normalization bound")
    total = 0.0
    for p in ignored:
        best = min(math.hypot((p.z1 - q.z1) / z_top.z1, (p.z2 - q.z2) / z_bottom.z2)
                   for q in reduced)
        total += best / math.sqrt(2)
    return total / len(ignored) * 100.0


def cts_metric(base_cpu, method_cpu):
    """Relative CPU-time saving of a method over the baseline, in percent."""
    if base_cpu <= 0:
        raise FrontierError(f"baseline CPU time must be positive, got {base_cpu!r}")
    return (base_cpu - method_cpu) / base_cpu * 100.0


# ---------------------------------------------------------------------------
# CSV artifacts.

FRONTIER_HEADER = ("method", "epsilon", "index", "z1", "z2", "assignment_ref")
STATS_HEADER = ("method", "epsilon", "ndp", "solver_calls", "wall_ms",
                "gap_pct", "cts_pct")


def _epsilon_text(eps_pct):
    eps_pct = _exact(eps_pct)
    if eps_pct.denominator == 1:
        return str(eps_pct.numerator)
    return repr(float(eps_pct))


def assignment_refs(result):
    """Stable per-point labels used to cross-reference the assignments file."""
    return tuple(f"{result.method}-{index}" for index in range(len(result.points)))


def frontier_to_csv(result):
    """Render a frontier as CSV text, one row per point, sorted by z1."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FRONTIER_HEADER)
    eps = _epsilon_text(result.epsilon)
    for index, ((point, _), ref) in enumerate(zip(result.points, assignment_refs(result))):
        writer.writerow([result.method, eps, index, point.z1, point.z2, ref])
    return out.getvalue()


def _read_rows(text, header, kind, parse):
    """``parse`` applied to each non-blank data row of a CSV with ``header``.

    A wrong header, a row of the wrong width or a row ``parse`` refuses
    (ValueError or EvshareError) raises FrontierError naming the row.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != header:
        raise FrontierError(f"bad {kind} CSV header: {rows[0] if rows else 'empty file'!r}")
    parsed = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            parsed.append(parse(row))
        except (ValueError, EvshareError) as exc:
            raise FrontierError(f"{kind} CSV row {lineno}: {exc}") from None
    return parsed


def frontier_from_csv(text):
    """Parse frontier CSV back into (method, epsilon, [(point, ref), ...]).

    Every row must come from one run: one method at one epsilon.
    """
    rows = _read_rows(text, FRONTIER_HEADER, "frontier", lambda row: (
        (row[0], _exact(row[1])), (CriterionPoint(int(row[3]), int(row[4])), row[5])))
    runs = sorted({run for run, _ in rows})
    if len(runs) > 1:
        raise FrontierError("frontier CSV mixes runs: " + ", ".join(
            f"{method} at epsilon {_epsilon_text(eps)}" for method, eps in runs))
    method, epsilon = runs[0] if runs else (None, None)
    return method, epsilon, [point for _, point in rows]


def stats_to_csv(results):
    """Render one statistics row per frontier result.

    ``wall_ms`` is the search's wall time in milliseconds with three
    decimals.  ``gap_pct`` and ``cts_pct`` are left empty: a single run has
    no baseline to compare with (``report`` computes both per batch).
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(STATS_HEADER)
    for result in results:
        writer.writerow([result.method, _epsilon_text(result.epsilon), len(result.points),
                         result.solver_calls, f"{result.wall_time * 1000:.3f}", "", ""])
    return out.getvalue()


def _wall_ms(text):
    """A stats CSV's wall time: milliseconds, whole or with decimals."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"wall_ms is not finite: {text!r}")
    return value


def stats_from_csv(text):
    return _read_rows(text, STATS_HEADER, "stats", lambda row: {
        "method": row[0],
        "epsilon": _exact(row[1]),
        "ndp": int(row[2]),
        "solver_calls": int(row[3]),
        "wall_ms": _wall_ms(row[4]),
    })
