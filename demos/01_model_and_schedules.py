"""Build the two-company reference instance and read a schedule out of the model.

Two companies, one EV each, two chargers, four intervals.  Shows how an
instance becomes an integer program, how the branch-and-bound solver minimizes
one company's cost, and how a variable assignment decodes back into a
validated schedule with per-company costs in SEK.
"""

from evshare.charging import (
    build_charging_program,
    company_cost,
    decode_schedule,
    noncollab_point,
    validate_schedule,
)
from evshare.core import evaluate, format_minor
from evshare.scenario import t1_instance
from evshare.solver import lexmin

inst = t1_instance()
print(f"instance {inst.name}: companies {inst.companies}, EVs {inst.evs}, "
      f"chargers {inst.chargers}, horizon {inst.horizon}")
for i in inst.evs:
    e, l = inst.window[i]
    lo, hi = inst.demand[i]
    print(f"  {i}: window intervals ({e}, {l}], demand {lo} energy units, "
          f"rate {inst.charge_rate[i, inst.chargers[0]]} per interval")

prog = build_charging_program(inst)
print(f"\nmodel: {len(prog.variables)} variables, {len(prog.constraints)} constraints")

# Standalone baseline: each company rents its own charger and ignores the other.
point = noncollab_point(inst)
print(f"standalone costs: company 1 = {format_minor(point.z1_non)} SEK, "
      f"company 2 = {format_minor(point.z2_non)} SEK")

# Lexicographic minimum: company 1's cost first, ties broken by company 2's,
# in one branch-and-bound search over the weighted sum W * z1 + z2.
outcome = lexmin(prog, (1, 2))
print(f"\nlexmin(z1, z2) -> ({format_minor(outcome.point.z1)}, "
      f"{format_minor(outcome.point.z2)}) SEK  "
      f"[one search, {outcome.nodes_explored} nodes]")

schedule = decode_schedule(outcome.assignment, inst, prog)
print("decoded schedule:")
for j in inst.chargers:
    print(f"  charger {j}: rented by {schedule.rentals[j]}")
for i in inst.evs:
    j, start, finish = schedule.sessions[i]
    print(f"  {i}: charger {j}, occupies intervals ({start}, {finish}], "
          f"energy {schedule.energy[i]}")

violations = validate_schedule(schedule, inst)
print(f"independent validation: {violations if violations else 'no violations'}")

for index, k in enumerate(inst.companies, start=1):
    direct = company_cost(schedule, inst, k)
    modeled = evaluate(prog.objective(index), outcome.assignment)
    print(f"  {k}: schedule arithmetic {format_minor(direct)} SEK, "
          f"objective {index} evaluates to {format_minor(modeled)} SEK")
