"""Command-line pipeline: scenario -> model -> frontier -> bargaining -> reports.

Every subcommand persists its outputs next to a run manifest listing the
exact configuration, the seed (when randomness is involved), the tool
version, every emitted file, and wall times.  Re-running with identical
inputs reproduces every artifact byte-for-byte except the wall-time fields.

Each command does only its own work.  ``frontier`` and ``oracle`` record the
standalone costs (the disagreement point) in their ``-assignments.json``
together with the sha256 of the instance they solved; ``bargain`` reads them
from there and refuses a frontier that has no such file beside it.  The
argument parser is built on a process's first ``run_cli`` call and reused
by every later one.

Exit codes: 0 success, 1 domain or path error (bad data, infeasible model,
missing artifact, an input that cannot be read or an output that cannot be
written), 2 usage error (unknown flags or subcommands).
"""

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .core import EvshareError, criterion_point
from . import bargaining as _bargaining
from . import charging as _charging
from . import frontier as _frontier
from . import oracle as _oracle
from . import scenario as _scenario
from . import solver as _solver

class CliError(EvshareError):
    """Domain-level failure of a CLI stage."""


# ---------------------------------------------------------------------------
# Small shared helpers.


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError:
            raise CliError(f"not UTF-8 text: {path}") from None


def _write(path, text):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _json_text(data):
    return json.dumps(data, indent=2) + "\n"


def _load_instance(path):
    return _charging.instance_from_json(_read(path))


def _stem(path):
    return os.path.splitext(os.path.basename(path))[0]


def _manifest(path, command, config, outputs, wall_times, seed=None):
    data = {
        "tool": "evshare",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "outputs": outputs,
        "wall_times": wall_times,
    }
    _write(path, _json_text(data))


def _out_dir(args):
    """``--out-dir``, or the instance's directory, made before any solve so
    that a bad ``--out-dir`` fails at once rather than after the search."""
    out_dir = args.out_dir or os.path.dirname(os.path.abspath(args.instance))
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _instance_sha256(instance):
    return hashlib.sha256(_charging.instance_to_json(instance).encode()).hexdigest()


def _assignments_text(instance, result, participation):
    """The ``-assignments.json`` of a frontier or oracle run: the instance's
    digest, its standalone costs and {ref: {z1, z2, values}} for every point."""
    return _json_text({
        "instance": instance.name,
        "instance_sha256": _instance_sha256(instance),
        "method": result.method,
        "epsilon": _frontier._epsilon_text(result.epsilon),
        "status": result.status,
        "participation": {"z1_non": participation.z1_non,
                          "z2_non": participation.z2_non},
        "points": {
            ref: {"z1": point.z1, "z2": point.z2,
                  "values": {vid: value for vid, value in assignment.rendering()
                             if value != 0}}
            for ref, (point, assignment) in zip(_frontier.assignment_refs(result),
                                                result.points)
        },
    })


# ---------------------------------------------------------------------------
# generate


def _cmd_generate(args):
    started = time.perf_counter()
    # build_parser names each scenario flag's dest after its ScenarioConfig
    # field; a range given on the command line arrives as a list.
    fields = {field.name: getattr(args, field.name)
              for field in dataclasses.fields(_scenario.ScenarioConfig)}
    config = _scenario.ScenarioConfig(**{
        name: tuple(value) if isinstance(value, list) else value
        for name, value in fields.items()})
    prices = _scenario.load_price_series(_read(args.prices)) if args.prices else None
    instance = _scenario.generate_scenario(config, prices)
    out_path = os.path.join(args.out_dir, f"{instance.name}.json")
    _write(out_path, _charging.instance_to_json(instance))
    manifest_path = os.path.join(args.out_dir, f"{instance.name}-manifest.json")
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "func", "seed", "out_dir")}
    _manifest(
        manifest_path, "generate", flags,
        {"instance": out_path},
        {"total_s": round(time.perf_counter() - started, 6)},
        seed=args.seed,
    )
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# frontier


def _frontier_paths(out_dir, stem, method, eps_text):
    base = os.path.join(out_dir, f"{stem}-{method}-eps{eps_text}")
    return {
        "frontier_csv": f"{base}-frontier.csv",
        "stats_csv": f"{base}-stats.csv",
        "assignments_json": f"{base}-assignments.json",
        "manifest": f"{base}-manifest.json",
    }


def _cmd_frontier(args):
    started = time.perf_counter()
    instance = _load_instance(args.instance)
    out_dir = _out_dir(args)
    participation = _charging.noncollab_point(instance, args.node_limit)
    program = _charging.build_charging_program(instance)
    result = _frontier.run_method(program, participation, args.method,
                                  args.epsilon, args.node_limit)

    eps_text = _frontier._epsilon_text(result.epsilon)
    paths = _frontier_paths(out_dir, _stem(args.instance), args.method, eps_text)

    _write(paths["frontier_csv"], _frontier.frontier_to_csv(result))
    _write(paths["stats_csv"], _frontier.stats_to_csv([result]))
    _write(paths["assignments_json"], _assignments_text(instance, result, participation))
    _manifest(
        paths["manifest"], "frontier",
        {"instance": args.instance, "method": args.method,
         "epsilon": eps_text, "node_limit": args.node_limit},
        {key: paths[key] for key in ("frontier_csv", "stats_csv", "assignments_json")},
        {"total_s": round(time.perf_counter() - started, 6),
         "search_s": round(result.wall_time, 6)},
    )
    print(f"{result.method} eps={eps_text}: {len(result.points)} points "
          f"({result.status}), {result.solver_calls} solver calls")
    print(f"wrote {paths['frontier_csv']}")
    return 0


# ---------------------------------------------------------------------------
# bargain


def _frontier_base(frontier_csv):
    """The path a frontier CSV's sibling artifacts extend: ``X-frontier.csv``
    and ``X.csv`` both give ``X``."""
    if frontier_csv.endswith("-frontier.csv"):
        return frontier_csv[:-len("-frontier.csv")]
    return os.path.splitext(frontier_csv)[0]


def _disagreement(args, instance):
    """The standalone costs the frontier run recorded for this instance in
    its ``-assignments.json``.  A frontier without that file is refused as
    a missing artifact: nothing else ties its points to the instance."""
    sidecar = f"{_frontier_base(args.frontier)}-assignments.json"
    try:
        doc = json.loads(_read(sidecar))
        digest = doc.get("instance_sha256")
        z1_non, z2_non = (doc["participation"][key] for key in ("z1_non", "z2_non"))
    except (ValueError, KeyError, TypeError, AttributeError):
        raise CliError(f"{sidecar}: malformed assignments JSON") from None
    if digest != _instance_sha256(instance):
        raise CliError(f"{sidecar} does not record the instance_sha256 of {args.instance}; "
                       "it was written for another instance or before the digest existed")
    if not all(type(z) is int for z in (z1_non, z2_non)):
        raise CliError(f"{sidecar}: participation costs must be integers")
    return _frontier.CriterionPoint(z1_non, z2_non)


def _cmd_bargain(args):
    started = time.perf_counter()
    method, _, rows = _frontier.frontier_from_csv(_read(args.frontier))
    if not rows:
        raise CliError(f"frontier {args.frontier} holds no points; "
                       "collaboration is not mutually beneficial")
    instance = _load_instance(args.instance)
    points = [point for point, _ in rows]
    disagreement = _disagreement(args, instance)
    refs = _bargaining.ReferencePoints.from_points(points, disagreement)

    if args.mode == "gnb":
        selected = _bargaining.gnb_select(points, disagreement, args.pi)
        parameter = {"pi": args.pi}
    else:
        selected = _bargaining.distance_select(points, refs, args.alpha)
        parameter = {"alpha": args.alpha}

    ref = next(r for point, r in rows if point == selected)
    out_path = args.out or f"{_frontier_base(args.frontier)}-bargain.json"
    _write(out_path, _json_text({
        "instance": instance.name,
        "frontier": args.frontier,
        "frontier_method": method,
        "mode": args.mode,
        **parameter,
        "ideal": {"z1": refs.ideal.z1, "z2": refs.ideal.z2},
        "disagreement": {"z1": disagreement.z1, "z2": disagreement.z2},
        "selected": {"z1": selected.z1, "z2": selected.z2, "assignment_ref": ref},
    }))
    _manifest(
        f"{os.path.splitext(out_path)[0]}-manifest.json", "bargain",
        {"frontier": args.frontier, "instance": args.instance,
         "mode": args.mode, **parameter},
        {"bargain_json": out_path},
        {"total_s": round(time.perf_counter() - started, 6)},
    )
    print(f"selected ({selected.z1}, {selected.z2}) ref={ref}")
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# oracle


def _cmd_oracle(args):
    started = time.perf_counter()
    instance = _load_instance(args.instance)
    out_dir = _out_dir(args)
    noncollab = _oracle.noncollab_costs(instance, args.budget)
    participation = _frontier.ParticipationPoint(*noncollab)
    exact = _oracle.charging_frontier(instance, participation=noncollab,
                                      max_candidates=args.budget)
    ordered = tuple(sorted(exact.items(), key=lambda item: item[0].as_tuple()))
    result = _frontier.FrontierResult("oracle", Fraction(0), ordered, wall_time=0.0,
                                      rectangles_processed=0)

    base = os.path.join(out_dir, f"{_stem(args.instance)}-oracle")
    csv_path = f"{base}.csv"
    assignments_path = f"{base}-assignments.json"

    _write(csv_path, _frontier.frontier_to_csv(result))
    _write(assignments_path, _assignments_text(instance, result, participation))
    _manifest(
        f"{base}-manifest.json", "oracle",
        {"instance": args.instance, "budget": args.budget},
        {"oracle_csv": csv_path, "assignments_json": assignments_path},
        {"total_s": round(time.perf_counter() - started, 6)},
    )
    print(f"oracle: {len(ordered)} points, noncollab={noncollab}")
    print(f"wrote {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# report


# A frontier artifact's name, ``{stem}-{method}-eps{eps_text}-frontier.csv``
# (see ``_frontier_paths``), split at its last method marker: a stem or an
# epsilon text may itself hold ``-`` (``frontier --epsilon 0.00001`` writes
# ``eps1e-05``).
_FRONTIER_NAME = re.compile(rf"(.+)-({'|'.join(_frontier.METHODS)})-eps(.+)-frontier\.csv")


def _find_runs(batch_dir):
    """Map (stem, method, eps_text) -> artifact paths for a batch directory."""
    runs = {}
    for name in sorted(os.listdir(batch_dir)):
        match = _FRONTIER_NAME.fullmatch(name)
        if match:
            runs[match.groups()] = {
                "frontier_csv": os.path.join(batch_dir, name),
                "stats_csv": os.path.join(batch_dir, name[:-len("frontier.csv")] + "stats.csv"),
            }
    return runs


def _cmd_report(args):
    started = time.perf_counter()
    runs = _find_runs(args.batch)
    if not runs:
        raise CliError(f"no frontier artifacts (*-frontier.csv) found in {args.batch}")

    def parse(path, parser):
        text = _read(path)
        try:
            return parser(text)
        except EvshareError as exc:
            raise CliError(f"{path}: {exc}") from None

    parsed = {}
    for key, paths in runs.items():
        _, _, rows = parse(paths["frontier_csv"], _frontier.frontier_from_csv)
        stats = parse(paths["stats_csv"], _frontier.stats_from_csv)
        if len(stats) != 1:
            raise CliError(f"{paths['stats_csv']}: expected exactly one stats row")
        parsed[key] = {"points": [p for p, _ in rows], "stats": stats[0]}

    baselines = {}
    for key in sorted(parsed):
        if key[1] == "bbox":
            baselines.setdefault(key[0], key)

    groups = {}
    for (stem, method, eps_text), run in sorted(parsed.items()):
        groups.setdefault((method, eps_text), []).append((stem, run))

    out_rows = []
    for (method, eps_text), members in sorted(groups.items()):
        ndps, cpus, gaps, ctss = [], [], [], []
        for stem, run in members:
            ndps.append(len(run["points"]))
            cpus.append(run["stats"]["wall_ms"])
            base_key = baselines.get(stem)
            if method != "bbox" and base_key is not None:
                base = parsed[base_key]
                exact_points = base["points"]
                if exact_points and run["points"]:
                    gaps.append(_frontier.gap_metric(
                        exact_points, run["points"],
                        exact_points[0], exact_points[-1]))
                base_ms = base["stats"]["wall_ms"]
                if base_ms > 0:
                    ctss.append(_frontier.cts_metric(base_ms, run["stats"]["wall_ms"]))
        out_rows.append({
            "method": method,
            "epsilon": eps_text,
            "cases": len(members),
            "ndp_mean": sum(ndps) / len(ndps),
            "cpu_ms_mean": sum(cpus) / len(cpus),
            "gap_pct_mean": sum(gaps) / len(gaps) if gaps else None,
            "cts_pct_mean": sum(ctss) / len(ctss) if ctss else None,
        })

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["method", "epsilon", "cases", "ndp_mean", "cpu_ms_mean",
                     "gap_pct_mean", "cts_pct_mean"])
    for row in out_rows:
        writer.writerow([
            row["method"], row["epsilon"], row["cases"],
            f"{row['ndp_mean']:.2f}", f"{row['cpu_ms_mean']:.1f}",
            "" if row["gap_pct_mean"] is None else f"{row['gap_pct_mean']:.2f}",
            "" if row["cts_pct_mean"] is None else f"{row['cts_pct_mean']:.1f}",
        ])
    out_path = args.out or os.path.join(args.batch, "report.csv")
    _write(out_path, buffer.getvalue())
    _manifest(
        f"{os.path.splitext(out_path)[0]}-manifest.json", "report",
        {"batch": args.batch},
        {"report_csv": out_path},
        {"total_s": round(time.perf_counter() - started, 6)},
    )
    print(f"wrote {out_path} ({len(out_rows)} aggregate rows over {len(parsed)} runs)")
    return 0


# ---------------------------------------------------------------------------
# export-lp / import-solution


def _cmd_export_lp(args):
    started = time.perf_counter()
    instance = _load_instance(args.instance)
    program = _charging.build_charging_program(instance)
    out_path = args.out or os.path.join(
        os.path.dirname(os.path.abspath(args.instance)),
        f"{_stem(args.instance)}-obj{args.objective}.lp")
    _write(out_path, _solver.export_lp(program, args.objective))
    _manifest(
        f"{os.path.splitext(out_path)[0]}-manifest.json", "export-lp",
        {"instance": args.instance, "objective": args.objective},
        {"lp": out_path},
        {"total_s": round(time.perf_counter() - started, 6)},
    )
    print(f"wrote {out_path}")
    return 0


def _cmd_import_solution(args):
    instance = _load_instance(args.instance)
    program = _charging.build_charging_program(instance)
    assignment = _solver.parse_external_solution(_read(args.solution), program)
    schedule = _charging.decode_schedule(assignment, instance, program)
    problems = _charging.validate_schedule(schedule, instance)
    if problems:
        raise CliError("decoded schedule invalid: " + "; ".join(problems))
    point = criterion_point(program, assignment)
    print(f"solution feasible: z1={point.z1} z2={point.z2}")
    return 0


# ---------------------------------------------------------------------------
# validate


def _cmd_validate(args):
    instance = _load_instance(args.instance)
    schedule = _charging.schedule_from_json(_read(args.schedule), instance)
    problems = _charging.validate_schedule(schedule, instance)
    if problems:
        for problem in problems:
            print(problem)
        return 1
    print("schedule valid")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring.


def build_parser():
    parser = argparse.ArgumentParser(
        prog="evshare",
        description="Bi-objective EV-charging collaboration toolkit.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each scenario flag's dest is a ScenarioConfig field, and the dataclass
    # sets the defaults: set_defaults overrides an argument's own default.
    p = sub.add_parser("generate", help="generate a seeded scenario instance")
    p.add_argument("--ev-dist", dest="ev_distribution", choices=("uniform", "clustered"),
                   required=True)
    p.add_argument("--charger-layout", choices=("uniform", "centralized"),
                   required=True)
    p.add_argument("--n-evs", type=int, required=True)
    p.add_argument("--n-chargers", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--horizon", type=int)
    p.add_argument("--area", dest="area_km", type=float)
    p.add_argument("--rental-fee", dest="rental_fee_sek", type=int)
    p.add_argument("--vot", dest="vot_sek_per_hour", type=int)
    p.add_argument("--travel", dest="travel_sek_per_km", type=float)
    p.add_argument("--collab-discount", type=float)
    p.add_argument("--charge-rate", dest="charge_rate_kw", type=int)
    p.add_argument("--window", dest="window_length_h", type=int)
    p.add_argument("--earliest", dest="earliest_start_range", type=int, nargs=2,
                   metavar=("LO", "HI"))
    p.add_argument("--demand", dest="demand_intervals", type=int, nargs=2,
                   metavar=("LO", "HI"))
    p.add_argument("--price-scale", type=float)
    p.add_argument("--prices", help="hour,price CSV overriding the default tariff")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_generate, **{
        field.name: field.default for field in dataclasses.fields(_scenario.ScenarioConfig)})

    p = sub.add_parser("frontier", help="compute a frontier for an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=_frontier.METHODS, required=True)
    p.add_argument("--epsilon", default="0",
                   help="closeness tolerance percentage (e.g. 3)")
    p.add_argument("--node-limit", type=int, default=None,
                   help="branch-and-bound nodes per solve; exceeding it is an error")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_frontier)

    p = sub.add_parser("bargain", help="select an agreement point from a frontier")
    p.add_argument("--frontier", required=True, help="frontier CSV path")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", choices=("gnb", "dist"), required=True)
    p.add_argument("--pi", default="0.5",
                   help="bargaining strength of company 1: a fraction in (0, 1) with "
                        "denominator at most 1000, e.g. 0.125 or 1/3")
    p.add_argument("--alpha", default="2", help="norm exponent, or 'inf'")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bargain)

    p = sub.add_parser("oracle", help="exhaustively enumerate the exact frontier")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=int, default=_oracle.MAX_CANDIDATES)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("report", help="aggregate a batch of frontier runs")
    p.add_argument("--batch", required=True, help="directory of frontier artifacts")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("export-lp", help="write the model in LP format")
    p.add_argument("--instance", required=True)
    p.add_argument("--objective", type=int, choices=(1, 2), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_export_lp)

    p = sub.add_parser("import-solution",
                       help="validate an external solver's solution listing")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=_cmd_import_solution)

    p = sub.add_parser("validate", help="check a schedule JSON against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=_cmd_validate)

    return parser


@functools.cache
def _parser():
    """The parser, built on first use: ``parse_args`` leaves it unchanged and
    returns a fresh namespace, so one serves every call in a process."""
    return build_parser()


def run_cli(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:   # argparse already printed usage or help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EvshareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:   # an input it could not read or an output it could not write
        reason = "missing artifact" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"error: {reason}: {exc.filename or exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
