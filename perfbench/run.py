"""The evshare benchmark: three workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 35 --trace 0
    python3 -m pytest perfbench          # the benchmark's own arithmetic

Workloads (one operation is one instance):

* ``desk``: the acceptance suite's 54 desk-scale instances (sizes 2x1 ..
  4x2, T=6), each put through the standalone solves, ``bbox``, ``b3m1``
  and ``b3m2`` at 3%, bargaining on the ``b3m2`` frontier, and the decode
  and validation of the agreed schedule.  Many small solves, so the fixed
  cost of each solve weighs most.
* ``deep``: five paper-default scenarios at 6 EVs x 2 chargers x T=8, put
  through the standalone solves, ``bbox``, ``b3m2`` at 3% and the same
  bargaining and validation.  Few solves of hundreds of nodes each, so
  propagation and branching dominate.  Run by hand only: five operations
  per pass are too few for steady figures, so it is not in BENCHMARK.json.
* ``cli``: the ``desk`` instances through ``evshare.cli.run_cli`` in
  process (generate, two frontiers, two bargains), plus one ``report`` per
  pass, in a scratch directory under ``perfbench/.out``.  The same solver
  work as ``desk`` plus re-reading, rebuilding and writing per command.

Each workload runs a fixed instance set: scenario seeds ``base, base+1,
...`` from the workload's default base seed, or ``--base-seed`` (the
held-out bases in ``perfbench/baseline.json`` are for checking a claim).
``--seed`` orders the instances within each pass.  The set does not follow
``--seed`` because instance cost varies too much between sets: one ``deep``
instance takes 0.7 s to 13 s, and a run has time for only a few.

Set-up, reported as ``setup_s``, is the median of fifteen rounds of: import
evshare afresh (its modules are dropped from ``sys.modules`` first) and
generate and build the workload's instances (``cli`` checks its files
against these).  It leaves out interpreter start-up and the first import of
numpy and of the standard modules evshare uses: a process pays for those
once, they vary most from run to run, and numpy cannot be imported twice.
The first round, which pays for them, is saved as ``first_setup_s``, and
the time from process start to the first timed operation as
``first_op_s``; both are printed, neither is a declared metric.

The host this benchmark was tuned on (2 vCPUs on a shared machine) changes
speed by up to a factor of two within minutes, which moved every raw time
by 20-40% between runs.  So every timed call sits between two runs of a
fixed pure-Python reference kernel, and the declared times (``setup_s``,
``instances_per_s``, ``latency_s.p50``, ``cpu_s_per_instance``) are each
call's time scaled by ``REFERENCE_S / mean(reference before, after)``: the
time the call would take on a host that runs the kernel in ``REFERENCE_S``.
A change to evshare moves them as it moves raw time; a change in the
host's speed cancels out.  The unscaled figures are printed and saved as
``raw.*``, and the kernel's median time as ``host.reference_ms``.
``latency_s.p50`` is the Harrell-Davis estimate of the median (see
``summary.smooth_median``), which does not jump between the clusters that
operation times form by instance size.

A run repeats whole passes over the set, as many as bring the timed total
nearest ``--seconds`` (``cli`` runs at least two, to compare their files).
The benchmark starts no thread or process of its own.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs an untraced and a traced pass
side by side, each instance under both back to back, and prints the
per-layer metrics, ``trace.overhead_frac`` being the median over instances
of traced time over untraced time, less one.  Every correctness check runs outside the timed
operations.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(provenance, every metric, every operation's times, failures) and the spans
go to ``perfbench/.out``.
"""

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

sys.path.insert(0, HERE)
from summary import adjusted, disagreements, smooth_median, tail  # noqa: E402
from tracing import Tracer, children_of, self_time  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_s.p50": "s",
    "cpu_s_per_instance": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics defined on every workload; BENCHMARK.json lists these.
SHARED_LAYER_UNITS = {
    "scenario.generate_s": "s",
    "scenario.calls": "count",
    "charging.build_s": "s",
    "charging.build_calls": "count",
    "charging.program_vars": "count",
    "charging.program_rows": "count",
    "charging.noncollab_s": "s",
    "solver.calls": "count",
    "solver.lexmin_calls": "count",
    "solver.nodes": "count",
    "solver.nodes_per_call": "count",
    "solver.busy_s": "s",
    "solver.call_ms.p50": "ms",
    "solver.us_per_node": "us",
    "solver.infeasible_calls": "count",
    "frontier.busy_s": "s",
    "frontier.self_s": "s",
    "frontier.bbox.busy_s": "s",
    "frontier.b3m2.busy_s": "s",
    "frontier.points": "count",
    "frontier.rectangles": "count",
    "frontier.solver_calls": "count",
    "frontier.traced_solver_calls": "count",
    "frontier.certify_calls": "count",
    "frontier.points_per_call": "ratio",
    "bargaining.busy_s": "s",
    "bargaining.self_s": "s",
    "bargaining.calls": "count",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
}

# Per-layer metrics that only some workloads exercise; printed and saved.
EXTRA_LAYER_UNITS = {
    "frontier.b3m1.busy_s": "s",
    "charging.validate_s": "s",
    "solver.node_limit_calls": "count",
    "bench.uncovered_s": "s",
    "cli.generate_s": "s",
    "cli.frontier_s": "s",
    "cli.bargain_s": "s",
    "cli.report_s": "s",
    "cli.self_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    "oracle.check_s": "s",
}

# Unadjusted times, the host's speed and set-up figures of every run;
# printed and saved.
EXTRA_UNITS = {
    "raw.setup_s": "s",
    "raw.instances_per_s": "1/s",
    "raw.latency_s.p50": "s",
    "raw.cpu_s_per_instance": "s",
    "host.reference_ms": "ms",
    "first_setup_s": "s",
    "first_op_s": "s",
}

# Counts that must repeat exactly between two runs of the same code.
EXACT_COUNTS = ("solver.calls", "solver.nodes", "frontier.points",
                "frontier.rectangles", "frontier.solver_calls",
                "frontier.certify_calls", "cli.files_written",
                "cli.bytes_written")

SETUP_REPEATS = 15
# What one run of reference_kernel() takes on the 2-vCPU host the benchmark
# was tuned on (Python 3.11); adjusted times are scaled to that speed.
REFERENCE_S = 0.004
EPSILON = 3
HALF = Fraction(1, 2)


class Unavailable(Exception):
    """The program under test cannot be found or imported."""


def import_evshare():
    """Import the evshare package from this checkout's ``src``, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "evshare", "__init__.py")):
        raise Unavailable(f"no evshare package under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")   # keep numpy's BLAS to this thread
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import evshare
        import evshare.bargaining
        import evshare.charging
        import evshare.cli
        import evshare.frontier
        import evshare.oracle
        import evshare.scenario
        import evshare.solver
    except ImportError as exc:
        raise Unavailable(f"cannot import evshare: {exc}") from None
    if not os.path.abspath(evshare.__file__).startswith(SRC + os.sep):
        raise Unavailable(f"evshare imported from {evshare.__file__}, not {SRC}")
    return evshare


def fresh_import():
    """Import evshare again from scratch, as a new process would.

    Modules outside the package (numpy, the standard library) stay loaded,
    so only the first import pays for them.
    """
    for name in [n for n in sys.modules if n == "evshare" or n.startswith("evshare.")]:
        del sys.modules[name]
    return import_evshare()


# ---------------------------------------------------------------------------
# Instance sets.

SIZES = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2))
COMBOS = (("uniform", "uniform"), ("uniform", "centralized"),
          ("clustered", "uniform"), ("clustered", "centralized"))


def desk_params(base_seed, index):
    """The acceptance suite's scenario parameters for instance ``index``."""
    n_evs, n_chargers = SIZES[index % len(SIZES)]
    dist, layout = COMBOS[index % len(COMBOS)]
    return {
        "ev_distribution": dist,
        "charger_layout": layout,
        "n_evs": n_evs,
        "n_chargers": n_chargers,
        "seed": base_seed + index,
        "horizon": 6,
        "window_length_h": 3,
        "earliest_start_range": (0, 3),
        "demand_intervals": (1, 1 if (n_evs, n_chargers) == (4, 1) else 2),
        "vot_sek_per_hour": (100, 200, 300)[index % 3],
        "rental_fee_sek": (150, 400, 1500)[index % 3],
    }


def deep_params(base_seed, index):
    """Paper-default scenario parameters at 6 EVs x 2 chargers x T=8."""
    return {"n_evs": 6, "n_chargers": 2, "horizon": 8, "seed": base_seed + index}


def cli_generate_argv(params, out_dir):
    return [
        "generate",
        "--ev-dist", params["ev_distribution"],
        "--charger-layout", params["charger_layout"],
        "--n-evs", str(params["n_evs"]),
        "--n-chargers", str(params["n_chargers"]),
        "--seed", str(params["seed"]),
        "--horizon", str(params["horizon"]),
        "--window", str(params["window_length_h"]),
        "--earliest", *map(str, params["earliest_start_range"]),
        "--demand", *map(str, params["demand_intervals"]),
        "--vot", str(params["vot_sek_per_hour"]),
        "--rental-fee", str(params["rental_fee_sek"]),
        "--out-dir", out_dir,
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    params: object        # (base_seed, index) -> ScenarioConfig keyword arguments
    size: int             # instances in one pass
    via_cli: bool
    methods: tuple        # frontier methods run by one library operation
    min_passes: int
    base_seed: int        # default first scenario seed


WORKLOADS = {
    "desk": Workload("desk", desk_params, 54, False, ("bbox", "b3m1", "b3m2"), 1, 1000),
    "deep": Workload("deep", deep_params, 5, False, ("bbox", "b3m2"), 1, 1),
    "cli": Workload("cli", desk_params, 54, True, (), 2, 1000),
}


# ---------------------------------------------------------------------------
# Library operations (desk, deep) and their checks.


@dataclass
class Outcome:
    participation: object
    runs: dict            # method -> FrontierResult
    refs: object          # ReferencePoints, when the b3m2 frontier has points
    picks: tuple          # (gnb pi=1/2[, distance alpha=2, distance alpha=inf])
    violations: list      # of the agreed schedule


def library_op(ev, workload, instance, program):
    charging, frontier, bargaining = ev.charging, ev.frontier, ev.bargaining
    participation = charging.noncollab_point(instance)
    runs = {method: frontier.run_method(program, participation, method,
                                        0 if method == "bbox" else EPSILON)
            for method in workload.methods}
    reduced = runs["b3m2"]
    refs, picks, violations = None, (), []
    if reduced.points:
        refs = bargaining.reference_points(program, participation)
        points = reduced.criterion_points()
        picks = (bargaining.gnb_select(points, refs.disagreement, HALF),)
        try:
            picks += (bargaining.distance_select(points, refs, 2),
                      bargaining.distance_select(points, refs, math.inf))
        except bargaining.BargainError:
            pass  # one company gains nothing; check_library confirms that
        agreed = dict(reduced.points)[picks[0]]
        schedule = charging.decode_schedule(agreed, instance, program)
        violations = charging.validate_schedule(schedule, instance)
    return Outcome(participation, runs, refs, picks, violations)


def one_sided(ideal, disagreement):
    """True when some company's best frontier cost equals its standalone cost.

    Distance selection normalizes by (disagreement - ideal) and is then
    undefined, so the program refuses it.
    """
    return ideal.z1 >= disagreement.z1 or ideal.z2 >= disagreement.z2


def assignment_problems(ev, instance, program, point, assignment):
    """Decode, validate and re-cost one frontier point; list what is wrong."""
    charging = ev.charging
    schedule = charging.decode_schedule(assignment, instance, program)
    problems = [f"{point.as_tuple()}: {v}"
                for v in charging.validate_schedule(schedule, instance)]
    k1, k2 = instance.companies
    costs = (charging.company_cost(schedule, instance, k1),
             charging.company_cost(schedule, instance, k2))
    if costs != point.as_tuple():
        problems.append(f"{point.as_tuple()}: company costs {costs}")
    return problems


def frontier_problems(bbox_points, reduced_points, label):
    """A reduced frontier must be a subset of bbox and keep both endpoints."""
    problems = []
    exact = set(bbox_points)
    if not set(reduced_points) <= exact:
        problems.append(f"{label} is not a subset of bbox")
    if bbox_points and not {bbox_points[0], bbox_points[-1]} <= set(reduced_points):
        problems.append(f"{label} drops a bbox endpoint")
    return problems


def check_library(ev, instance, program, out):
    problems = []
    bbox = out.runs["bbox"].criterion_points()
    for method, result in out.runs.items():
        if result.status not in ("ok", "no-collaboration"):
            problems.append(f"{method} status {result.status}")
        if method != "bbox":
            problems += frontier_problems(bbox, result.criterion_points(), method)
        for point, assignment in result.points:
            problems += assignment_problems(ev, instance, program, point, assignment)
    reduced = out.runs["b3m2"].criterion_points()
    if reduced:
        expected = 1 if one_sided(out.refs.ideal, out.refs.disagreement) else 3
        if len(out.picks) != expected:
            problems.append(f"{len(out.picks)} bargaining selections, expected {expected}")
    problems += [f"selection {p.as_tuple()} not on the b3m2 frontier"
                 for p in out.picks if p not in reduced]
    problems += [f"agreed schedule: {v}" for v in out.violations]
    return problems


def library_fingerprint(out):
    """Everything an operation returns, as a comparable digest."""
    parts = [(out.participation.z1_non, out.participation.z2_non)]
    for method, r in out.runs.items():
        parts.append((method, r.status, r.solver_calls, r.rectangles_processed,
                      [(p.as_tuple(), a.rendering()) for p, a in r.points]))
    parts.append([p.as_tuple() for p in out.picks])
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def library_counts(outcomes):
    counts = {"frontier.points": 0, "frontier.rectangles": 0, "frontier.solver_calls": 0}
    for out in outcomes:
        for r in out.runs.values():
            counts["frontier.points"] += len(r.points)
            counts["frontier.rectangles"] += r.rectangles_processed
            counts["frontier.solver_calls"] += r.solver_calls
    return counts


def oracle_problems(ev, instance, out):
    """bbox must equal the oracle frontier; standalone costs the oracle's."""
    problems = []
    noncollab = ev.oracle.noncollab_costs(instance)
    if noncollab != (out.participation.z1_non, out.participation.z2_non):
        problems.append(f"standalone costs differ from the oracle's {noncollab}")
    exact = ev.oracle.charging_frontier(instance, participation=noncollab)
    if set(exact) != set(out.runs["bbox"].criterion_points()):
        problems.append("bbox differs from the oracle frontier")
    return problems


# ---------------------------------------------------------------------------
# CLI operations and their checks.

WALL_COLUMNS = {"-stats.csv": ("wall_ms", "cts_pct"),
                "report.csv": ("cpu_ms_mean", "cts_pct_mean")}


def traced(tracer, name):
    """A span when tracing, else nothing."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def call_cli(ev, argv):
    """``run_cli`` in process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ev.cli.run_cli(argv)
    return code, err.getvalue()


def cli_op(ev, params, batch, tracer=None):
    """One instance through the CLI; returns the exit codes and stderr."""
    instance_path = os.path.join(
        batch, f"{ev.scenario.ScenarioConfig(**params).instance_name()}-seed{params['seed']}.json")
    stem = instance_path[:-len(".json")]
    steps = [
        ("cli.generate", cli_generate_argv(params, batch)),
        ("cli.frontier", ["frontier", "--instance", instance_path, "--method", "bbox"]),
        ("cli.frontier", ["frontier", "--instance", instance_path, "--method", "b3m2",
                          "--epsilon", str(EPSILON)]),
    ]
    frontier_csv = f"{stem}-b3m2-eps{EPSILON}-frontier.csv"
    steps += [
        ("cli.bargain", ["bargain", "--frontier", frontier_csv, "--instance", instance_path,
                         "--mode", "gnb", "--pi", "0.5", "--out", f"{stem}-gnb-bargain.json"]),
        ("cli.bargain", ["bargain", "--frontier", frontier_csv, "--instance", instance_path,
                         "--mode", "dist", "--alpha", "inf", "--out", f"{stem}-dist-bargain.json"]),
    ]
    codes, errors = [], []
    for name, argv in steps:
        with traced(tracer, name):
            code, err = call_cli(ev, argv)
        codes.append(code)
        errors.append(err)
    return {"stem": stem, "codes": tuple(codes), "errors": errors}


def cli_report(ev, batch, tracer=None):
    with traced(tracer, "cli.report"):
        return call_cli(ev, ["report", "--batch", batch])


def snapshot(batch):
    """{relative name: bytes} of every file the CLI wrote.

    The batch directory's own path, which the CLI writes into its artifacts,
    reads as ``<batch>``, so that passes in different directories compare.
    """
    files = {}
    for name in sorted(os.listdir(batch)):
        with open(os.path.join(batch, name), "rb") as handle:
            files[name] = handle.read().replace(batch.encode(), b"<batch>")
    return files


def normalized(name, data):
    """File content with its wall-time fields blanked."""
    if name.endswith("-manifest.json"):
        doc = json.loads(data)
        doc.pop("wall_times", None)
        return json.dumps(doc, sort_keys=True).encode()
    for suffix, columns in WALL_COLUMNS.items():
        if name.endswith(suffix):
            rows = list(csv.reader(io.StringIO(data.decode())))
            blank = [rows[0].index(c) for c in columns]
            for row in rows[1:]:
                for i in blank:
                    row[i] = ""
            return json.dumps(rows).encode()
    return data


def carries_wall_time(name):
    return name.endswith("-manifest.json") or any(name.endswith(s) for s in WALL_COLUMNS)


def cli_counts(files):
    """Files written (manifests aside) and the bytes of the wall-time-free ones."""
    return {
        "cli.files_written": sum(1 for n in files if not n.endswith("-manifest.json")),
        "cli.bytes_written": sum(len(d) for n, d in files.items() if not carries_wall_time(n)),
    }


def cli_problems(ev, instance, program, res, files):
    """What is wrong with the files one instance's CLI steps wrote."""
    charging, frontier = ev.charging, ev.frontier
    problems = []
    name = os.path.basename(res["stem"])
    if files.get(f"{name}.json", b"").decode() != charging.instance_to_json(instance):
        problems.append("generated instance differs from the library's")
    zeros = {v.id: 0 for v in program.variables}
    fronts = {}
    for method, base in (("bbox", f"{name}-bbox-eps0"), ("b3m2", f"{name}-b3m2-eps{EPSILON}")):
        _, _, rows = frontier.frontier_from_csv(files[f"{base}-frontier.csv"].decode())
        fronts[method] = [p for p, _ in rows]
        doc = json.loads(files[f"{base}-assignments.json"])
        for entry in doc["points"].values():
            point = frontier.CriterionPoint(entry["z1"], entry["z2"])
            assignment = ev.core.Assignment({**zeros, **entry["values"]})
            problems += assignment_problems(ev, instance, program, point, assignment)
    reduced = fronts["b3m2"]
    problems += frontier_problems(fronts["bbox"], reduced, "b3m2")
    if res["codes"][:3] != (0, 0, 0):
        problems.append(f"exit codes {res['codes']}")

    standalone = doc["participation"]
    disagreement = frontier.CriterionPoint(standalone["z1_non"], standalone["z2_non"])
    for mode, code, err in zip(("gnb", "dist"), res["codes"][3:], res["errors"][3:]):
        refusal = None
        if not reduced:
            refusal = "holds no points"
        elif mode == "dist" and one_sided(
                frontier.CriterionPoint(min(p.z1 for p in reduced), min(p.z2 for p in reduced)),
                disagreement):
            refusal = "degenerate"
        if refusal is not None:
            if code != 1 or refusal not in err:
                problems.append(f"bargain {mode} exited {code}, expected a '{refusal}' refusal")
        elif code != 0:
            problems.append(f"bargain {mode} exited {code}: {err.strip()}")
        else:
            selected = json.loads(files[f"{name}-{mode}-bargain.json"])["selected"]
            if (selected["z1"], selected["z2"]) not in {p.as_tuple() for p in reduced}:
                problems.append(f"bargain {mode} selection is not on the frontier")
    return problems


# ---------------------------------------------------------------------------
# Passes.


def reference_kernel(n=20000):
    """A fixed pure-Python loop, free of allocations that could wake the GC."""
    total, table = 0, {}
    for i in range(n):
        k = i % 251
        table[k] = table.get(k, 0) + i * 7 % 13
        total += k * (i & 15)
    return total


def reference():
    """(wall s, cpu s) of the reference kernel: the median of three runs."""
    walls, cpus = [], []
    for _ in range(3):
        wall, cpu = time.perf_counter(), time.process_time()
        reference_kernel()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    return statistics.median(walls), statistics.median(cpus)


class Sampler:
    """Times calls, each between two reference runs, for host-speed adjustment.

    The host's speed drifts by up to a factor of two within minutes, so each
    call's time can be rescaled by the reference runs just before and after
    it: ``time * REFERENCE_S / mean(reference before, after)``.
    """

    def __init__(self):
        self.last = reference()

    def call(self, fn):
        """(result or None, error text or None, timing) of one call.

        ``timing`` is ``(wall s, cpu s, reference wall s, reference cpu s)``,
        the reference being the mean of the runs before and after the call.
        """
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            result, error = fn(), None
        except Exception:
            result, error = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        before, self.last = self.last, reference()
        ref_wall, ref_cpu = ((a + b) / 2 for a, b in zip(before, self.last))
        return result, error, (wall, cpu, ref_wall, ref_cpu)


def build_pool(ev, workload, base_seed):
    """Generate and build every instance of one pass: [(instance, program)]."""
    pool = []
    for index in range(workload.size):
        config = ev.scenario.ScenarioConfig(**workload.params(base_seed, index))
        instance = ev.scenario.generate_scenario(config)
        pool.append((instance, ev.charging.build_charging_program(instance)))
    return pool


def patched(tracer, ev):
    """The traced run's rebinding of evshare functions, or nothing."""
    return tracer.patched(trace_targets(ev)) if tracer is not None else contextlib.nullcontext()


class Run:
    """State of one benchmark run: timings, failures, counts."""

    def __init__(self, ev, workload, base_seed, order_seed, pool, sampler):
        self.ev = ev
        self.workload = workload
        self.base_seed = base_seed
        self.pool = pool
        self.order = list(range(workload.size))
        random.Random(order_seed).shuffle(self.order)
        self.samples = []     # (pass number, index, timing) of each operation
        self.sampler = sampler
        self.attempted = 0
        self.failures = []    # (pass number, index or "report", reason)
        self.pass_counts = []
        self.first = None     # fingerprints of the first pass, by index
        self.first_outcomes = None
        self.first_files = None
        self.oracle_s = 0.0

    def fail(self, number, index, reason):
        self.failures.append((number, index, reason))

    def check(self, number, index, checker, *args):
        """Record each problem ``checker`` lists, or the exception it raises."""
        try:
            problems = checker(*args)
        except Exception:
            problems = [traceback.format_exc()]
        for problem in problems:
            self.fail(number, index, problem)

    def timed_ops(self, variants):
        """Every operation once per variant, in this run's instance order.

        ``variants`` lists ``(pass number, tracer or None, batch)``.  With two
        variants each instance runs under both back to back, and which goes
        first alternates, so that a change in host speed hits both alike.
        Returns one results list per variant.
        """
        results = [[None] * self.workload.size for _ in variants]
        for position, index in enumerate(self.order):
            turns = range(len(variants)) if position % 2 == 0 else reversed(range(len(variants)))
            for v in turns:
                number, tracer, batch = variants[v]
                if tracer is not None:
                    tracer.op = index

                def op():
                    with traced(tracer, "bench.op"):
                        return self.operation(index, tracer, batch)

                with patched(tracer, self.ev):
                    results[v][index], error, timing = self.sampler.call(op)
                self.samples.append((number, index, timing))
                self.attempted += 1
                if error:
                    self.fail(number, index, error)
        return results

    def operation(self, index, tracer, batch):
        if self.workload.via_cli:
            return cli_op(self.ev, self.workload.params(self.base_seed, index), batch, tracer)
        return library_op(self.ev, self.workload, *self.pool[index])

    def report(self, number, tracer, batch):
        """One ``report --batch`` over a CLI pass, timed as one more operation."""
        if tracer is not None:
            tracer.op = "report"
        with patched(tracer, self.ev):
            report, error, timing = self.sampler.call(lambda: cli_report(self.ev, batch, tracer))
        self.samples.append((number, "report", timing))
        self.attempted += 1
        if error or report[0] != 0:
            self.fail(number, "report", error or report[1])

    def passes(self, variants):
        """One pass per variant, run side by side; then check each in turn."""
        if self.workload.via_cli:
            for _, _, batch in variants:
                shutil.rmtree(batch, ignore_errors=True)
                os.makedirs(batch)
        results = self.timed_ops(variants)
        for (number, tracer, batch), result in zip(variants, results):
            if self.workload.via_cli:
                self.report(number, tracer, batch)
                self.settle_cli(number, result, snapshot(batch))
                shutil.rmtree(batch, ignore_errors=True)
            else:
                self.settle_library(number, result)

    def settle_library(self, number, results):
        """Check the first pass in full; compare later passes with it."""
        prints = {i: library_fingerprint(out) for i, out in enumerate(results) if out}
        if self.first is None:
            self.first, self.first_outcomes = prints, results
            for index, out in enumerate(results):
                if out is not None:
                    self.check(number, index, check_library, self.ev, *self.pool[index], out)
        else:
            for index in set(prints) | set(self.first):
                if prints.get(index) != self.first.get(index):
                    self.fail(number, index, "outcome differs from the first pass")
        self.pass_counts.append(library_counts(r for r in results if r))

    def settle_cli(self, number, results, files):
        prints = {i: r["codes"] for i, r in enumerate(results) if r}
        if self.first is None:
            self.first, self.first_files = prints, files
            for index, res in enumerate(results):
                if res is not None:
                    self.check(number, index, cli_problems, self.ev, *self.pool[index], res, files)
        else:
            for index in set(prints) | set(self.first):
                if prints.get(index) != self.first.get(index):
                    self.fail(number, index, "exit codes differ from the first pass")
            for name in sorted(set(files) | set(self.first_files)):
                if name not in files or name not in self.first_files:
                    self.fail(number, name, "file written in only one pass")
                elif normalized(name, files[name]) != normalized(name, self.first_files[name]):
                    self.fail(number, name, "file differs from the first pass")
        self.pass_counts.append(cli_counts(files))

    def check_oracle(self):
        """Desk only: bbox and standalone costs against the exhaustive oracle."""
        started = time.perf_counter()
        for index, (instance, _) in enumerate(self.pool):
            out = self.first_outcomes[index]
            if out is not None:
                self.check(1, index, oracle_problems, self.ev, instance, out)
        self.oracle_s = time.perf_counter() - started


# ---------------------------------------------------------------------------
# Per-layer metrics from spans.


def layer_metrics(spans):
    """Per-layer busy times, self times and counts of one traced pass."""
    kids = children_of(spans)
    by_id = {s.id: s for s in spans}

    def named(*names):
        return [s for s in spans if s.name in names]

    def busy(selected):
        """Summed duration of the selected spans not nested in another selected one."""
        ids = {s.id for s in selected}
        total = 0.0
        for s in selected:
            parent = s.parent
            while parent is not None and parent not in ids:
                parent = by_id[parent].parent
            if parent is None:
                total += s.duration
        return total

    def self_sum(selected):
        return sum(self_time(s, kids.get(s.id, ())) for s in selected)

    def under(span, name):
        parent = span.parent
        while parent is not None:
            if by_id[parent].name == name:
                return True
            parent = by_id[parent].parent
        return False

    layer = {}
    generate = named("scenario.generate")
    layer["scenario.generate_s"] = busy(generate)
    layer["scenario.calls"] = len(generate)

    builds = named("charging.build")
    layer["charging.build_s"] = busy(builds)
    layer["charging.build_calls"] = len(builds)
    layer["charging.program_vars"] = (
        sum(s.attrs["vars"] for s in builds) / len(builds) if builds else 0)
    layer["charging.program_rows"] = (
        sum(s.attrs["rows"] for s in builds) / len(builds) if builds else 0)
    layer["charging.noncollab_s"] = busy(named("charging.noncollab"))
    layer["charging.validate_s"] = busy(named("charging.decode", "charging.validate"))

    solves = named("solver.solve_min")
    nodes = sum(s.attrs["nodes"] for s in solves)
    solve_time = sum(s.duration for s in solves)
    layer["solver.calls"] = len(solves)
    layer["solver.lexmin_calls"] = len(named("solver.lexmin"))
    layer["solver.nodes"] = nodes
    layer["solver.nodes_per_call"] = nodes / len(solves) if solves else 0
    layer["solver.busy_s"] = busy(named("solver.solve_min", "solver.lexmin"))
    layer["solver.call_ms.p50"] = statistics.median([s.duration for s in solves] or [0]) * 1e3
    layer["solver.us_per_node"] = solve_time / nodes * 1e6 if nodes else 0
    layer["solver.infeasible_calls"] = sum(s.attrs["status"] == "infeasible" for s in solves)
    layer["solver.node_limit_calls"] = sum(s.attrs["status"] == "node-limit" for s in solves)

    runs = named("frontier.run_method")
    layer["frontier.busy_s"] = busy(runs)
    layer["frontier.self_s"] = self_sum(runs)
    for method in ("bbox", "b3m1", "b3m2"):
        layer[f"frontier.{method}.busy_s"] = busy(
            [s for s in runs if s.attrs["method"] == method])
    layer["frontier.points"] = sum(s.attrs["points"] for s in runs)
    layer["frontier.rectangles"] = sum(s.attrs["rectangles"] for s in runs)
    layer["frontier.solver_calls"] = sum(s.attrs["solver_calls"] for s in runs)
    layer["frontier.traced_solver_calls"] = sum(under(s, "frontier.run_method") for s in solves)
    layer["frontier.certify_calls"] = sum(
        by_id[s.parent].name == "frontier.run_method" for s in solves if s.parent is not None)
    layer["frontier.points_per_call"] = (
        layer["frontier.points"] / layer["frontier.solver_calls"]
        if layer["frontier.solver_calls"] else 0)

    bargains = [s for s in spans if s.name.startswith("bargaining.")]
    layer["bargaining.busy_s"] = busy(bargains)
    layer["bargaining.self_s"] = self_sum(bargains)
    layer["bargaining.calls"] = len(bargains)

    for step in ("generate", "frontier", "bargain", "report"):
        layer[f"cli.{step}_s"] = busy(named(f"cli.{step}"))
    layer["cli.self_s"] = self_sum([s for s in spans if s.name.startswith("cli.")])

    ops = named("bench.op")
    uncovered = self_sum(ops)
    layer["bench.uncovered_s"] = uncovered
    op_time = sum(s.duration for s in ops)
    layer["trace.uncovered_frac"] = uncovered / op_time if op_time else 0
    return layer


def trace_targets(ev):
    """Public functions the traced run rebinds, with the attributes it records."""
    solver, charging = ev.solver, ev.charging
    return [
        (ev.scenario, "generate_scenario", "scenario.generate", None),
        (charging, "build_charging_program", "charging.build",
         lambda p: {"vars": len(p.variables), "rows": len(p.constraints)}),
        (charging, "noncollab_point", "charging.noncollab", None),
        (charging, "decode_schedule", "charging.decode", None),
        (charging, "validate_schedule", "charging.validate", None),
        (solver, "solve_min", "solver.solve_min",
         lambda o: {"nodes": o.nodes_explored, "status": o.status}),
        (solver, "lexmin", "solver.lexmin",
         lambda o: {"nodes": o.nodes_explored, "status": o.status, "solves": o.solves}),
        (ev.frontier, "run_method", "frontier.run_method",
         lambda r: {"method": r.method, "points": len(r.points), "status": r.status,
                    "rectangles": r.rectangles_processed, "solver_calls": r.solver_calls}),
        (ev.bargaining, "reference_points", "bargaining.reference_points", None),
        (ev.bargaining, "gnb_select", "bargaining.gnb_select", None),
        (ev.bargaining, "distance_select", "bargaining.distance_select", None),
    ]


# ---------------------------------------------------------------------------
# Provenance and persistence.


def source_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "evshare")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, package).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def process_age():
    """Seconds since this process started, in the kernel's 10 ms ticks."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return None


def os_threads():
    """Threads of this process as the kernel counts them."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def provenance(ev, digest):
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "evshare": ev.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest,
        "processes": 1,
        "python_threads": threading.active_count(),
        "os_threads": os_threads(),
    }


def compare_with_earlier(path, counts):
    """Exact-count gate across runs: first run records, later runs compare."""
    if os.path.exists(path):
        with open(path) as handle:
            return disagreements(json.load(handle), counts)
    with open(path + ".tmp", "w") as handle:
        json.dump(counts, handle, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return {}


# ---------------------------------------------------------------------------
# Main.


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the instances within each pass")
    parser.add_argument("--seconds", type=float, default=35,
                        help="timed seconds to aim for; a run ends on a whole pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base-seed", type=int, default=None,
                        help="first scenario seed of the instance set "
                             "(default: the workload's, see perfbench/baseline.json)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    base_seed = args.base_seed if args.base_seed is not None else workload.base_seed
    tracer = Tracer() if args.trace else None

    # Set-up: import evshare afresh and build the instance pool, several
    # times; set-up time is the median.  The first round also pays for
    # numpy and a cold file cache, and is kept apart as first_setup_s.
    # Each round starts from an empty collector, as a new process would.
    sampler = Sampler()
    setups = []
    for _ in range(SETUP_REPEATS if tracer is None else 1):
        gc.collect()
        def set_up():
            ev = fresh_import()
            if tracer is not None:
                tracer.op = "setup"
            with patched(tracer, ev):
                return ev, build_pool(ev, workload, base_seed)

        built, error, timing = sampler.call(set_up)
        if error:
            print(f"error: set-up failed\n{error}", file=sys.stderr)
            return 2
        ev, pool = built
        setups.append(timing)
    run = Run(ev, workload, base_seed, args.seed, pool, sampler)
    os.makedirs(OUT, exist_ok=True)
    batch = os.path.join(OUT, f"work-{workload.name}-{os.getpid()}")
    digest = source_digest()
    tag = f"{workload.name}-seed{args.seed}-base{base_seed}-trace{args.trace}"
    # The seed only orders operations, so counts must match across seeds too.
    counts_path = os.path.join(
        OUT, f"counts-{workload.name}-base{base_seed}-trace{args.trace}-{digest[:16]}.json")
    first_op_s = process_age()

    try:
        if tracer is None:
            # Whole passes, as many as bring the timed total nearest --seconds.
            number, timed = 0, []
            while (number < workload.min_passes
                   or sum(timed) + statistics.mean(timed) / 2 < args.seconds):
                number += 1
                run.passes([(number, None, batch)])
                timed.append(sum(t[0] for n, _, t in run.samples if n == number))
        else:
            # Pass 1 untraced and pass 2 traced, side by side, instance by instance.
            run.passes([(1, None, batch + "-1"), (2, tracer, batch + "-2")])
            number = 2
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if workload.name == "desk":
            run.check_oracle()
    finally:
        for path in (batch, batch + "-1", batch + "-2"):
            shutil.rmtree(path, ignore_errors=True)

    for later, counts in enumerate(run.pass_counts[1:], start=2):
        for key, (a, b) in disagreements(run.pass_counts[0], counts).items():
            run.fail(later, key, f"count {key}: {a} in pass 1, {b} in pass {later}")

    # Each time also rescaled to the host speed at which the reference
    # kernel takes REFERENCE_S; the declared times are the rescaled ones.
    # A cli pass's report adds to the time of the pass, not to its instances.
    timed = [(i, t) for n, i, t in run.samples if n == 1 or tracer is None]
    wall, cpu, ref_wall, ref_cpu = zip(*(t for _, t in timed))
    adj_wall = [adjusted(*t, REFERENCE_S) for t in zip(wall, ref_wall)]
    adj_cpu = [adjusted(*t, REFERENCE_S) for t in zip(cpu, ref_cpu)]
    is_op = [i != "report" for i, _ in timed]
    ops = sum(is_op)
    latencies = [w for w, op in zip(adj_wall, is_op) if op]
    setup_wall = [t[0] for t in setups]
    setup_adj = [adjusted(t[0], t[2], REFERENCE_S) for t in setups]
    extras = {
        "raw.setup_s": statistics.median(setup_wall),
        "raw.instances_per_s": ops / sum(wall),
        "raw.latency_s.p50": smooth_median([w for w, op in zip(wall, is_op) if op]),
        "raw.cpu_s_per_instance": sum(cpu) / ops,
        "host.reference_ms": statistics.median(ref_wall + tuple(t[2] for t in setups)) * 1e3,
        "first_setup_s": setup_wall[0],
        "first_op_s": first_op_s,
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_adj),
            "instances_per_s": ops / sum(adj_wall),
            "latency_s.p50": smooth_median(latencies),
            "cpu_s_per_instance": sum(adj_cpu) / ops,
            "peak_rss_mb": rss_mb,
        }
        units = dict(END_TO_END_UNITS)
        counts = run.pass_counts[0]
    else:
        layer = layer_metrics(tracer.spans)
        pairs = {}
        for n, i, t in run.samples:
            pairs.setdefault(i, {})[n] = t[0]
        layer["trace.overhead_frac"] = statistics.median(p[2] / p[1] for p in pairs.values()) - 1
        layer["oracle.check_s"] = run.oracle_s
        for key, value in run.pass_counts[-1].items():
            layer.setdefault(key, value)
        counts = {k: layer[k] for k in EXACT_COUNTS if k in layer}
        metrics = {k: layer[k] for k in SHARED_LAYER_UNITS}
        extras.update({k: layer.get(k, 0) for k in EXTRA_LAYER_UNITS})
        units = {**SHARED_LAYER_UNITS, **EXTRA_LAYER_UNITS}
        with open(os.path.join(OUT, f"spans-{tag}.jsonl"), "w") as handle:
            for s in tracer.spans:
                handle.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                         "end": s.end, "parent": s.parent, "op": s.op,
                                         "attrs": s.attrs}) + "\n")
    units.update(EXTRA_UNITS)

    for key, (a, b) in compare_with_earlier(counts_path, counts).items():
        run.fail(number, key, f"count {key}: {a} in an earlier run, {b} in this one")

    # A failed gate (counts, files) is not one operation; cap the count.
    failed = min(len({(n, i) for n, i, _ in run.failures}), run.attempted)
    tail_stat = tail(latencies)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "base_seed": base_seed,
        "trace": args.trace,
        "provenance": provenance(ev, digest),
        "passes": number,
        "setup_timings": setups,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in {**metrics, **extras}.items()},
        "latency_s.tail": (None if tail_stat is None else
                           {"percentile": tail_stat[0], "value": tail_stat[1],
                            "samples": tail_stat[2]}),
        "error_rate": failed / run.attempted,
        "failures": [{"pass": n, "where": str(i), "reason": r} for n, i, r in run.failures],
        "samples": [{"pass": n, "op": i, "timing": t} for n, i, t in run.samples],
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as handle:
        json.dump(record, handle, indent=1)

    prov = record["provenance"]
    print(f"evshare benchmark: workload={workload.name} seed={args.seed} base_seed={base_seed} "
          f"trace={args.trace} passes={number} operations={ops}")
    print(f"provenance: nproc={prov['nproc']} python={prov['python']} numpy={prov['numpy']} "
          f"commit={prov['git_commit']} source={digest[:12]} processes=1 "
          f"os_threads={prov['os_threads']}")
    for key, entry in record["metrics"].items():
        if entry["value"] is not None:
            print(f"  {key:32s} {entry['value']:.6g} {entry['unit']}")
    if tail_stat is None:
        print(f"  {'latency_s.tail':32s} none ({ops} samples, fewer than needed)")
    else:
        print(f"  {'latency_s.tail':32s} p{tail_stat[0]} = {tail_stat[1]:.6g} s "
              f"({tail_stat[2]} samples)")
    print(f"  {'error_rate':32s} {record['error_rate']:.6g} ratio "
          f"({failed} of {run.attempted})")
    for n, i, reason in run.failures[:20]:
        print(f"  FAILED pass {n} at {i}: {reason.strip().splitlines()[-1]}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
