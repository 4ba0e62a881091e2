"""The twelve acceptance checks, one test per criterion.

Each test records a `criterion N: PASS/FAIL` line; a session teardown prints
the full scoreboard even under output capture.  Criterion 9's first value is
mathematically unattainable as stated -- the test asserts it anyway and stays
red by design; see the README's "known-failing check" note.
"""

import json
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from evshare.bargaining import (
    ReferencePoints,
    distance_select,
    gnb_select,
    power_sum,
)
from evshare.charging import (
    Schedule,
    build_charging_program,
    company_cost,
    decode_schedule,
    encode_schedule,
    noncollab_point,
    validate_schedule,
)
from evshare.cli import run_cli
from evshare.core import CriterionPoint, evaluate
from evshare.frontier import cts_metric, gap_metric, run_method
from evshare.oracle import (
    _schedule_cost,
    charging_frontier,
    noncollab_costs,
)
from evshare.scenario import generate_scenario, t1_instance

from helpers import desk_configs

P = CriterionPoint

EPSILONS = (1, 3, 5)
REDUCED = ("b3m1", "b3m2")

_LINES = {}


def record(number, ok, detail):
    _LINES[number] = f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}"


@pytest.fixture(scope="session", autouse=True)
def scoreboard(request):
    yield
    lines = [_LINES.get(n, f"criterion {n}: not run") for n in range(1, 13)]
    block = "\n".join(["", "acceptance scoreboard:"] + lines + [""])
    manager = request.config.pluginmanager.getplugin("capturemanager")
    try:
        with manager.global_and_fixture_disabled():
            print(block)
    except Exception:
        print(block)


# ---------------------------------------------------------------------------
# The desk-scale instance suite shared by criteria 1-5 and 10.

@pytest.fixture(scope="session")
def suite():
    records = []
    exact_seconds = 0.0
    for config in desk_configs():
        instance = generate_scenario(config)
        program = build_charging_program(instance)

        started = time.perf_counter()
        oracle_participation = noncollab_costs(instance)
        oracle = charging_frontier(instance, participation=oracle_participation)
        exact_seconds += time.perf_counter() - started

        participation = noncollab_point(instance)
        assert (participation.z1_non, participation.z2_non) == oracle_participation, \
            f"{instance.name}: solver and oracle disagree on standalone costs"

        runs = {}
        started = time.perf_counter()
        runs["bbox", 0] = run_method(program, participation, "bbox")
        exact_seconds += time.perf_counter() - started
        for method in REDUCED:
            for eps in (0,) + EPSILONS:
                runs[method, eps] = run_method(program, participation, method, eps)
        records.append({
            "instance": instance,
            "program": program,
            "participation": participation,
            "oracle": oracle,
            "runs": runs,
        })
    return {"records": records, "exact_seconds": exact_seconds}


def non_empty(records):
    return [r for r in records if r["runs"]["bbox", 0].points]


def test_criterion_01_oracle_equivalence(suite):
    records = suite["records"]
    assert len(records) >= 50
    mismatches = []
    for r in records:
        got = set(r["runs"]["bbox", 0].criterion_points())
        want = set(r["oracle"])
        if got != want:
            mismatches.append((r["instance"].name, sorted(got - want), sorted(want - got)))
    elapsed = suite["exact_seconds"]
    ok = not mismatches and elapsed <= 300.0
    record(1, ok, f"{len(records)} desk instances, bbox == exhaustive oracle on all, "
                  f"oracle+bbox wall time {elapsed:.1f}s (budget 300s)")
    assert mismatches == []
    assert elapsed <= 300.0


def test_criterion_02_reduction_soundness(suite):
    checked = 0
    for r in non_empty(suite["records"]):
        exact = set(r["runs"]["bbox", 0].criterion_points())
        ordered = r["runs"]["bbox", 0].criterion_points()
        z_top, z_bottom = ordered[0], ordered[-1]
        cap = r["participation"]
        for method in REDUCED:
            for eps in EPSILONS:
                points = r["runs"][method, eps].criterion_points()
                assert set(points) <= exact, (r["instance"].name, method, eps)
                assert z_top in points and z_bottom in points, (r["instance"].name, method, eps)
                assert all(p.z1 <= cap.z1_non and p.z2 <= cap.z2_non for p in points)
                checked += 1
    record(2, True, f"{checked} reduced runs: subset of exact, endpoints kept, "
                    "participation caps exact")


def test_criterion_03_gap_bound(suite):
    eligible = 0
    within = 0
    worst = 0.0
    for r in non_empty(suite["records"]):
        ordered = r["runs"]["bbox", 0].criterion_points()
        z_top, z_bottom = ordered[0], ordered[-1]
        if z_top.z1 == 0 or z_bottom.z2 == 0:
            continue
        for eps in EPSILONS:
            reduced = r["runs"]["b3m1", eps].criterion_points()
            gap = gap_metric(ordered, reduced, z_top, z_bottom)
            eligible += 1
            worst = max(worst, gap - 1.5 * eps)
            if gap <= 1.5 * eps:
                within += 1
    share = within / eligible
    ok = share >= 0.9
    record(3, ok, f"gap <= 1.5*eps on {within}/{eligible} runs ({share:.1%}, "
                  f"threshold 90%)")
    assert ok


def test_criterion_04_reduction_trend(suite):
    total = 0
    holds = 0
    for r in non_empty(suite["records"]):
        ndp_exact = len(r["runs"]["bbox", 0].points)
        for eps in EPSILONS:
            ndp1 = len(r["runs"]["b3m1", eps].points)
            ndp2 = len(r["runs"]["b3m2", eps].points)
            total += 1
            if ndp2 <= ndp1 <= ndp_exact:
                holds += 1
    share = holds / total
    ok = share >= 0.9
    record(4, ok, f"NDP(b3m2) <= NDP(b3m1) <= NDP(bbox) on {holds}/{total} runs "
                  f"({share:.1%}, threshold 90%)")
    assert ok


def test_criterion_05_zero_tolerance_degeneracy(suite):
    for r in suite["records"]:
        exact = r["runs"]["bbox", 0]
        for method in REDUCED:
            got = r["runs"][method, 0]
            assert got.criterion_points() == exact.criterion_points(), r["instance"].name
            assert [a.rendering() for _, a in got.points] == [
                a.rendering() for _, a in exact.points], r["instance"].name
    record(5, True, f"b3m1/b3m2 at eps=0 equal bbox exactly on all "
                    f"{len(suite['records'])} instances (points and witnesses)")


def test_criterion_06_norm_sandwich():
    rng = np.random.default_rng(20260816)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        # squares of rationals keep alpha = 3/2 inside exact arithmetic
        f = tuple(Fraction(int(rng.integers(0, 31)), int(rng.integers(1, 13))) ** 2
                  for _ in range(n))
        peak = max(f)
        for alpha in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4), Fraction(16)):
            total = power_sum(f, alpha)
            peak_power = power_sum((peak,), alpha)
            assert isinstance(total, Fraction) and isinstance(peak_power, Fraction)
            # max|f| <= norm <= n^(1/alpha) max|f|, raised to the alpha-th power
            assert peak_power <= total <= n * peak_power
            checked += 1
    record(6, True, f"{checked} exact sandwich checks over 1000 seeded vectors, "
                    "alpha in {1, 1.5, 2, 4, 16}")


def test_criterion_07_gnb_monotonicity():
    rng = np.random.default_rng(4492)
    sweeps = 0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        z1s = sorted(rng.choice(np.arange(1, 120), size=n, replace=False).tolist())
        z2s = sorted(rng.choice(np.arange(1, 120), size=n, replace=False).tolist(),
                     reverse=True)
        points = [P(int(a), int(b)) for a, b in zip(z1s, z2s)]
        d = P(max(p.z1 for p in points) + int(rng.integers(1, 30)),
              max(p.z2 for p in points) + int(rng.integers(1, 30)))
        previous = None
        for tenths in range(1, 10):
            selected = gnb_select(points, d, Fraction(tenths, 10))
            if previous is not None:
                assert selected.z1 <= previous.z1, (points, d, tenths)
            previous = selected
            sweeps += 1
    tie = gnb_select({P(4, 8), P(8, 4)}, P(10, 10), Fraction(1, 2))
    assert tie == P(4, 8)
    record(7, True, f"selected z1 non-increasing over {sweeps} sweep steps on 100 "
                    "seeded frontiers; symmetric tie resolves to (4, 8)")


def test_criterion_08_bargaining_arithmetic():
    assert gnb_select({P(4, 8), P(8, 4)}, P(10, 10), Fraction(1, 2)) == P(4, 8)
    refs = ReferencePoints(P(0, 0), P(10, 10))
    pts = {P(2, 8), P(4, 4)}
    assert distance_select(pts, refs, 1) == P(4, 4)
    assert distance_select(pts, refs, 2) == P(4, 4)
    assert distance_select(pts, refs, float("inf")) == P(4, 4)
    record(8, True, "worked examples reproduce: gnb tie -> (4,8); "
                    "distance picks (4,4) at alpha in {1, 2, inf}")


def test_criterion_09_metric_arithmetic():
    first = cts_metric(4492.7, 1083.4)
    second = cts_metric(1137.8, 1169.6)
    ok_first = abs(first - 75.8) <= 0.05
    ok_second = abs(second - (-2.8)) <= 0.05
    record(9, ok_first and ok_second,
           f"CTS(4492.7, 1083.4) = {first:.3f}% (window 75.8 +/- 0.05 unattainable: "
           f"the quotient is 75.885%); CTS(1137.8, 1169.6) = {second:.3f}% "
           f"{'within' if ok_second else 'outside'} -2.8 +/- 0.05")
    assert ok_second
    # 1 - 1083.4/4492.7 = 0.758854...; 75.885 differs from 75.8 by 0.085 > 0.05.
    # Asserted as stated all the same -- this check is red by design.
    assert ok_first


def test_criterion_10_schedule_validity(suite):
    decoded = 0
    for r in suite["records"]:
        instance = r["instance"]
        program = r["program"]
        k1, k2 = instance.companies
        for run in r["runs"].values():
            for point, assignment in run.points:
                schedule = decode_schedule(assignment, instance, program)
                assert validate_schedule(schedule, instance) == []
                assert evaluate(program.objective1, assignment) == point.z1
                assert evaluate(program.objective2, assignment) == point.z2
                assert company_cost(schedule, instance, k1) == point.z1
                assert company_cost(schedule, instance, k2) == point.z2
                decoded += 1
    record(10, True, f"{decoded} solver-path assignments decode to violation-free "
                     "schedules with matching company costs")


def test_criterion_11_t1_ground_truth():
    inst = t1_instance()
    # independent oracle first
    oracle_costs = noncollab_costs(inst)
    assert oracle_costs == (2100, 2100)
    placements = {"v1": ("A", 0, 2), "v2": ("A", 2, 2)}  # (charger, start, duration)
    oracle_k2 = _schedule_cost(inst, {"A": "k1", "B": None}, placements, "k2")
    assert oracle_k2 == 2700
    # then the solver path
    point = noncollab_point(inst)
    assert (point.z1_non, point.z2_non) == (2100, 2100)
    schedule = Schedule(
        rentals={"A": "k1", "B": None},
        sessions={"v1": ("A", 0, 2), "v2": ("A", 2, 4)},
    )
    assert company_cost(schedule, inst, "k2") == 2700
    program = build_charging_program(inst)
    assignment = encode_schedule(schedule, inst, program)
    assert evaluate(program.objective2, assignment) == 2700
    record(11, True, "noncollab (21.00, 21.00) and shared-at-A company-2 cost 27.00 "
                     "confirmed by oracle, then by the solver model")


def pipeline():
    """The same commands, relative paths, run from the current directory."""
    assert run_cli(["generate", "--ev-dist", "uniform", "--charger-layout", "uniform",
                    "--n-evs", "3", "--n-chargers", "2", "--seed", "42",
                    "--horizon", "6", "--window", "3", "--earliest", "0", "3",
                    "--demand", "1", "2", "--out-dir", "."]) == 0
    instance = "UniEV-UniChar-3-2-seed42.json"
    for method, eps in (("bbox", "0"), ("b3m2", "3")):
        assert run_cli(["frontier", "--instance", instance, "--method", method,
                        "--epsilon", eps, "--out-dir", "."]) == 0
    assert run_cli(["bargain",
                    "--frontier", "UniEV-UniChar-3-2-seed42-b3m2-eps3-frontier.csv",
                    "--instance", instance, "--mode", "gnb", "--pi", "0.5"]) == 0


def normalized_manifest(path):
    with open(path) as handle:
        data = json.load(handle)
    data.pop("wall_times", None)
    data["outputs"] = sorted(os.path.basename(p) for p in data["outputs"].values())
    config = data.get("config", {})
    for key, value in list(config.items()):
        if isinstance(value, str) and os.sep in value:
            config[key] = os.path.basename(value)
    return data


def test_criterion_12_pipeline_determinism(tmp_path_factory, monkeypatch):
    outs = []
    for label in ("first", "second"):
        out_dir = str(tmp_path_factory.mktemp(label))
        monkeypatch.chdir(out_dir)
        pipeline()
        outs.append(out_dir)

    identical = [
        "UniEV-UniChar-3-2-seed42.json",
        "UniEV-UniChar-3-2-seed42-bbox-eps0-frontier.csv",
        "UniEV-UniChar-3-2-seed42-bbox-eps0-assignments.json",
        "UniEV-UniChar-3-2-seed42-b3m2-eps3-frontier.csv",
        "UniEV-UniChar-3-2-seed42-b3m2-eps3-assignments.json",
        "UniEV-UniChar-3-2-seed42-b3m2-eps3-bargain.json",
    ]
    for name in identical:
        with open(os.path.join(outs[0], name), "rb") as a:
            first = a.read()
        with open(os.path.join(outs[1], name), "rb") as b:
            second = b.read()
        assert first == second, f"{name} differs between identical runs"

    # stats CSVs match once the wall-clock column is dropped
    for name in ("UniEV-UniChar-3-2-seed42-bbox-eps0-stats.csv",
                 "UniEV-UniChar-3-2-seed42-b3m2-eps3-stats.csv"):
        rows = []
        for out in outs:
            with open(os.path.join(out, name)) as handle:
                fields = handle.read().splitlines()[1].split(",")
            del fields[4]
            rows.append(fields)
        assert rows[0] == rows[1], f"{name} differs beyond wall_ms"

    for name in ("UniEV-UniChar-3-2-seed42-manifest.json",
                 "UniEV-UniChar-3-2-seed42-b3m2-eps3-manifest.json",
                 "UniEV-UniChar-3-2-seed42-b3m2-eps3-bargain-manifest.json"):
        assert (normalized_manifest(os.path.join(outs[0], name))
                == normalized_manifest(os.path.join(outs[1], name))), name

    record(12, True, "full pipeline repeated with one seed: byte-identical instance, "
                     "frontier, assignment and bargain artifacts; stats/manifests "
                     "differ only in wall-time fields")
