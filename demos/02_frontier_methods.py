"""Exact and reduced cost frontiers on a small generated scenario.

Generates a seeded two-company scenario, enumerates the exact frontier with
the rectangle-splitting method, then re-runs with both reduced variants at
growing tolerances.  The reduced runs keep the frontier's endpoints, stay
inside the exact set, and trade points for solver calls; the gap and
computing-time-saving metrics quantify the trade.  Here CTS is computed from
solver calls, one per branch-and-bound search: one per lexicographic solve,
certifications included.  b3m2 certifies each candidate with one more
search, so at a small tolerance it may drop a point and save only a call.
"""

from evshare.charging import build_charging_program, noncollab_point
from evshare.core import format_minor
from evshare.frontier import cts_metric, gap_metric, run_method
from evshare.oracle import charging_frontier
from evshare.scenario import ScenarioConfig, generate_scenario

config = ScenarioConfig(
    ev_distribution="uniform",
    charger_layout="centralized",
    n_evs=2,
    n_chargers=2,
    seed=1037,
    horizon=6,
    window_length_h=3,
    earliest_start_range=(0, 3),
    demand_intervals=(1, 2),
    vot_sek_per_hour=200,
    rental_fee_sek=400,
)
inst = generate_scenario(config)
prog = build_charging_program(inst)
part = noncollab_point(inst)
print(f"instance {inst.name}: standalone costs "
      f"({format_minor(part.z1_non)}, {format_minor(part.z2_non)}) SEK")

exact = run_method(prog, part, "bbox")
points = exact.criterion_points()
print(f"\nexact frontier ({exact.method}): {len(points)} points, "
      f"{exact.solver_calls} solver calls")
for p in points:
    print(f"  ({format_minor(p.z1)}, {format_minor(p.z2)})")

# Exhaustive enumeration agrees -- an end-to-end check of model and solver.
oracle = charging_frontier(inst, participation=(part.z1_non, part.z2_non))
assert set(points) == set(oracle)
print("exhaustive enumeration returns the same set")

z_top, z_bottom = points[0], points[-1]
base_calls = exact.solver_calls
print(f"\n{'method':6} {'eps':>4} {'ndp':>4} {'calls':>6} {'gap%':>7} {'cts%':>7}")
print(f"{'bbox':6} {'0':>4} {len(points):>4} {base_calls:>6} {0.0:>7.2f} {'':>7}")
for eps in (1, 3, 5):
    for method in ("b3m1", "b3m2"):
        run = run_method(prog, part, method, eps)
        gap = gap_metric(points, run.criterion_points(), z_top, z_bottom)
        cts = cts_metric(base_calls, run.solver_calls)
        print(f"{method:6} {eps:>4} {len(run.points):>4} {run.solver_calls:>6} "
              f"{gap:>7.2f} {cts:>7.1f}")

print("\nreduced sets keep both endpoints and are subsets of the exact frontier;")
print("a larger tolerance merges near-duplicates and skips solver work, once")
print("the searches it skips outnumber b3m2's certification searches.")
