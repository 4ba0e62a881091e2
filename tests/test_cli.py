import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

import evshare.charging
import evshare.frontier
from evshare.charging import schedule_to_json
from evshare.cli import run_cli
from evshare.scenario import ScenarioConfig, generate_scenario, t1_instance
from evshare.charging import instance_to_json
from evshare.solver import solve_min
from evshare.charging import build_charging_program, Schedule

from helpers import certify_limit_instance, desk_configs


@pytest.fixture
def t1_file(tmp_path):
    path = tmp_path / "T1.json"
    path.write_text(instance_to_json(t1_instance()))
    return str(path)


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def test_generate_writes_instance_and_manifest(tmp_path):
    code = run_cli(["generate", "--ev-dist", "uniform", "--charger-layout", "uniform",
                    "--n-evs", "3", "--n-chargers", "2", "--seed", "7",
                    "--horizon", "8", "--earliest", "0", "4", "--demand", "1", "2",
                    "--out-dir", str(tmp_path)])
    assert code == 0
    instance_path = tmp_path / "UniEV-UniChar-3-2-seed7.json"
    manifest_path = tmp_path / "UniEV-UniChar-3-2-seed7-manifest.json"
    assert instance_path.exists() and manifest_path.exists()
    manifest = read_json(manifest_path)
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 7
    assert str(instance_path) in manifest["outputs"].values()


def test_generate_defaults_and_manifest_follow_scenario_config(tmp_path):
    assert run_cli(["generate", "--ev-dist", "clustered", "--charger-layout", "uniform",
                    "--n-evs", "2", "--n-chargers", "1", "--seed", "5",
                    "--out-dir", str(tmp_path)]) == 0
    config = ScenarioConfig(ev_distribution="clustered", n_evs=2, n_chargers=1, seed=5)
    name = f"{config.instance_name()}-seed5"
    assert (tmp_path / f"{name}.json").read_text() == instance_to_json(generate_scenario(config))
    expected = {key: list(value) if isinstance(value, tuple) else value
                for key, value in dataclasses.asdict(config).items() if key != "seed"}
    assert read_json(tmp_path / f"{name}-manifest.json")["config"] == {**expected, "prices": None}


def test_generate_is_deterministic(tmp_path):
    argv = ["generate", "--ev-dist", "clustered", "--charger-layout", "centralized",
            "--n-evs", "4", "--n-chargers", "2", "--seed", "3",
            "--horizon", "8", "--earliest", "0", "4", "--demand", "1", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(argv + ["--out-dir", str(a)]) == 0
    assert run_cli(argv + ["--out-dir", str(b)]) == 0
    name = "CluEV-CenChar-4-2-seed3.json"
    assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_accepts_a_price_override(tmp_path):
    prices = tmp_path / "prices.csv"
    prices.write_text("hour,price\n" + "\n".join(f"{h},1.00" for h in range(24)) + "\n")
    code = run_cli(["generate", "--ev-dist", "uniform", "--charger-layout", "uniform",
                    "--n-evs", "2", "--n-chargers", "1", "--seed", "1",
                    "--horizon", "6", "--earliest", "0", "2", "--demand", "1", "1",
                    "--prices", str(prices), "--out-dir", str(tmp_path)])
    assert code == 0
    inst = read_json(tmp_path / "UniEV-UniChar-2-1-seed1.json")
    assert set(inst["energy_fee_own"]["c1"]) == {100}


def test_usage_errors_exit_2(capsys):
    assert run_cli(["frontier", "--instance", "x.json", "--method", "nsga2"]) == 2
    assert run_cli(["no-such-command"]) == 2
    assert run_cli([]) == 2
    capsys.readouterr()


def test_missing_artifact_exits_1(tmp_path, capsys):
    code = run_cli(["frontier", "--instance", str(tmp_path / "nope.json"),
                    "--method", "bbox"])
    assert code == 1
    assert "missing artifact" in capsys.readouterr().err


def test_frontier_artifacts(t1_file, tmp_path, capsys):
    code = run_cli(["frontier", "--instance", t1_file, "--method", "bbox",
                    "--out-dir", str(tmp_path)])
    assert code == 0
    base = tmp_path / "T1-bbox-eps0"
    csv_text = (tmp_path / "T1-bbox-eps0-frontier.csv").read_text()
    assert csv_text.splitlines()[1] == "bbox,0,0,2100,2100,bbox-0"
    stats = (tmp_path / "T1-bbox-eps0-stats.csv").read_text().splitlines()
    assert stats[1].startswith("bbox,0,1,")
    payload = read_json(tmp_path / "T1-bbox-eps0-assignments.json")
    assert payload["participation"] == {"z1_non": 2100, "z2_non": 2100}
    assert payload["points"]["bbox-0"]["z1"] == 2100
    # nonzero variable values only, and they name real schedule structure
    values = payload["points"]["bbox-0"]["values"]
    assert values and all(v != 0 for v in values.values())
    manifest = read_json(tmp_path / "T1-bbox-eps0-manifest.json")
    assert manifest["config"]["method"] == "bbox"
    assert "wall_times" in manifest
    out = capsys.readouterr().out
    assert "bbox eps=0: 1 points" in out


def test_frontier_node_limit_exits_1(tmp_path, capsys):
    path = tmp_path / "seed493.json"
    path.write_text(instance_to_json(certify_limit_instance()))
    code = run_cli(["frontier", "--instance", str(path), "--method", "b3m2",
                    "--epsilon", "3", "--node-limit", "18", "--out-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: node limit 18 exhausted\n"
    assert not list(tmp_path.glob("seed493-*"))


def test_frontier_node_limit_caps_the_standalone_solves(tmp_path, capsys):
    # On desk seed 1016 a standalone search takes 12 nodes and every
    # frontier search at most 10.
    path = tmp_path / "desk1016.json"
    path.write_text(instance_to_json(generate_scenario(list(desk_configs(17))[16])))
    argv = ["frontier", "--instance", str(path), "--method", "bbox", "--out-dir", str(tmp_path)]
    assert run_cli(argv + ["--node-limit", "11"]) == 1
    assert capsys.readouterr().err == "error: node limit 11 exhausted\n"
    assert not list(tmp_path.glob("desk1016-*"))
    assert run_cli(argv + ["--node-limit", "12"]) == 0
    # the parser is reused within a process: neither the limit of an earlier
    # call nor a usage error carries over into the next command
    assert run_cli(argv + ["--node-limit", "many"]) == 2
    capsys.readouterr()
    assert run_cli(argv) == 0
    assert read_json(tmp_path / "desk1016-bbox-eps0-manifest.json")["config"]["node_limit"] is None


def test_frontier_bbox_forces_epsilon_zero(t1_file, tmp_path):
    code = run_cli(["frontier", "--instance", t1_file, "--method", "bbox",
                    "--epsilon", "3", "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "T1-bbox-eps0-frontier.csv").exists()


def test_frontier_reduced_methods_write_their_epsilon(t1_file, tmp_path):
    for method in ("b3m1", "b3m2"):
        code = run_cli(["frontier", "--instance", t1_file, "--method", method,
                        "--epsilon", "5", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / f"T1-{method}-eps5-frontier.csv").exists()


def two_point_frontier_csv(tmp_path):
    """A hand-written frontier of T1 and the assignments file bargain reads
    T1's standalone costs from."""
    path = tmp_path / "T1-b3m1-eps0-frontier.csv"
    path.write_text(
        "method,epsilon,index,z1,z2,assignment_ref\n"
        "b3m1,0,0,4,8,b3m1-0\n"
        "b3m1,0,1,8,4,b3m1-1\n")
    (tmp_path / "T1-b3m1-eps0-assignments.json").write_text(json.dumps({
        "instance_sha256": hashlib.sha256(instance_to_json(t1_instance()).encode()).hexdigest(),
        "participation": {"z1_non": 2100, "z2_non": 2100}}))
    return str(path)


def test_bargain_gnb_tie_break(t1_file, tmp_path, capsys):
    frontier_csv = two_point_frontier_csv(tmp_path)
    code = run_cli(["bargain", "--frontier", frontier_csv, "--instance", t1_file,
                    "--mode", "gnb", "--pi", "0.5"])
    assert code == 0
    payload = read_json(tmp_path / "T1-b3m1-eps0-bargain.json")
    assert payload["selected"] == {"z1": 4, "z2": 8, "assignment_ref": "b3m1-0"}
    assert payload["disagreement"] == {"z1": 2100, "z2": 2100}
    assert payload["ideal"] == {"z1": 4, "z2": 4}
    assert "selected (4, 8) ref=b3m1-0" in capsys.readouterr().out


def test_bargain_dist_modes(t1_file, tmp_path):
    frontier_csv = two_point_frontier_csv(tmp_path)
    for alpha in ("2", "inf"):
        out = tmp_path / f"pick-{alpha}.json"
        code = run_cli(["bargain", "--frontier", frontier_csv, "--instance", t1_file,
                        "--mode", "dist", "--alpha", alpha, "--out", str(out)])
        assert code == 0
        assert read_json(out)["selected"]["assignment_ref"] == "b3m1-0"


def test_bargain_on_real_frontier(t1_file, tmp_path):
    assert run_cli(["frontier", "--instance", t1_file, "--method", "b3m2",
                    "--epsilon", "3", "--out-dir", str(tmp_path)]) == 0
    code = run_cli(["bargain", "--frontier",
                    str(tmp_path / "T1-b3m2-eps3-frontier.csv"),
                    "--instance", t1_file, "--mode", "gnb", "--pi", "0.5"])
    assert code == 0
    payload = read_json(tmp_path / "T1-b3m2-eps3-bargain.json")
    assert payload["selected"]["z1"] == 2100


def test_bargain_before_frontier_names_the_missing_artifact(t1_file, tmp_path, capsys):
    missing = str(tmp_path / "T1-b3m1-eps3-frontier.csv")
    code = run_cli(["bargain", "--frontier", missing, "--instance", t1_file,
                    "--mode", "gnb"])
    assert code == 1
    assert missing in capsys.readouterr().err


def test_oracle_artifacts(t1_file, tmp_path, monkeypatch):
    code = run_cli(["oracle", "--instance", t1_file, "--out-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "T1-oracle.csv").read_text().splitlines()
    assert lines[0] == "method,epsilon,index,z1,z2,assignment_ref"
    assert lines[1] == "oracle,0,0,2100,2100,oracle-0"
    payload = read_json(tmp_path / "T1-oracle-assignments.json")
    assert payload["participation"] == {"z1_non": 2100, "z2_non": 2100}
    assert payload["instance_sha256"] == hashlib.sha256(
        instance_to_json(t1_instance()).encode()).hexdigest()
    assert "oracle-0" in payload["points"]
    # bargain finds the oracle's standalone costs by the same naming rule
    monkeypatch.setattr(evshare.charging, "noncollab_point", refuse_standalone_solve)
    assert run_cli(["bargain", "--frontier", str(tmp_path / "T1-oracle.csv"),
                    "--instance", t1_file, "--mode", "gnb"]) == 0
    assert read_json(tmp_path / "T1-oracle-bargain.json")["disagreement"] == {
        "z1": 2100, "z2": 2100}


def test_empty_frontier_reads_no_collaboration_in_oracle_and_frontier(tmp_path, capsys):
    # desk seed 1028: no schedule improves on both standalone costs
    path = tmp_path / "desk1028.json"
    path.write_text(instance_to_json(generate_scenario(list(desk_configs(29))[28])))
    assert run_cli(["oracle", "--instance", str(path)]) == 0
    assert run_cli(["frontier", "--instance", str(path), "--method", "bbox"]) == 0
    capsys.readouterr()
    for name in ("desk1028-oracle-assignments.json", "desk1028-bbox-eps0-assignments.json"):
        doc = read_json(tmp_path / name)
        assert (doc["status"], doc["points"]) == ("no-collaboration", {}), name


def refuse_standalone_solve(*args, **kwargs):
    raise AssertionError("bargain solved the standalone problems")


def bargain_outcome(capsys, frontier_csv, instance_path, mode, out):
    """(exit code, stderr, bytes of the bargain JSON or None)."""
    code = run_cli(["bargain", "--frontier", frontier_csv, "--instance", instance_path,
                    "--mode", mode, "--out", str(out)])
    written = out.read_bytes() if out.exists() else None
    return code, capsys.readouterr().err, written


@pytest.mark.parametrize("mode", ["gnb", "dist"])
@pytest.mark.parametrize("source", ["T1", "desk1001"])
def test_bargain_reads_the_frontier_runs_standalone_costs(source, mode, tmp_path,
                                                           monkeypatch, capsys):
    if source == "T1":
        instance = t1_instance()
    else:
        instance = generate_scenario(list(desk_configs(2))[1])   # a 3-point b3m2 frontier
    instance_path = tmp_path / f"{source}.json"
    instance_path.write_text(instance_to_json(instance))
    assert run_cli(["frontier", "--instance", str(instance_path), "--method", "b3m2",
                    "--epsilon", "3", "--out-dir", str(tmp_path)]) == 0
    frontier_csv = str(tmp_path / f"{source}-b3m2-eps3-frontier.csv")
    capsys.readouterr()

    monkeypatch.setattr(evshare.charging, "noncollab_point", refuse_standalone_solve)
    code, _, written = bargain_outcome(capsys, frontier_csv, str(instance_path), mode,
                                       tmp_path / "sidecar.json")
    # T1's one point is its disagreement point, so `dist` refuses it
    assert (code == 0) == (source != "T1" or mode == "gnb")
    assert (written is not None) == (code == 0)
    # Without the assignments file nothing ties the CSV to the instance.
    sidecar = tmp_path / f"{source}-b3m2-eps3-assignments.json"
    os.remove(sidecar)
    code, err, written = bargain_outcome(capsys, frontier_csv, str(instance_path), mode,
                                         tmp_path / "unread.json")
    assert (code, written) == (1, None)
    assert err.startswith("error: missing artifact:") and str(sidecar) in err


def test_bargain_refuses_a_sidecar_of_another_instance(tmp_path, capsys):
    argv = ["generate", "--ev-dist", "uniform", "--charger-layout", "uniform",
            "--n-evs", "2", "--n-chargers", "2", "--seed", "1", "--horizon", "6",
            "--window", "3", "--earliest", "0", "3", "--demand", "1", "2"]
    assert run_cli(argv + ["--vot", "100", "--out-dir", str(tmp_path / "a")]) == 0
    assert run_cli(argv + ["--vot", "300", "--out-dir", str(tmp_path / "b")]) == 0
    name = "UniEV-UniChar-2-2-seed1"
    assert read_json(tmp_path / "a" / f"{name}.json")["name"] == name
    assert read_json(tmp_path / "b" / f"{name}.json")["name"] == name
    instance_a = str(tmp_path / "a" / f"{name}.json")
    assert run_cli(["frontier", "--instance", instance_a, "--method", "bbox"]) == 0
    capsys.readouterr()

    sidecar = tmp_path / "a" / f"{name}-bbox-eps0-assignments.json"
    frontier_csv = str(tmp_path / "a" / f"{name}-bbox-eps0-frontier.csv")
    instance_b = str(tmp_path / "b" / f"{name}.json")
    assert run_cli(["bargain", "--frontier", frontier_csv, "--instance", instance_b,
                    "--mode", "gnb"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert str(sidecar) in err and instance_b in err

    payload = read_json(sidecar)
    del payload["instance_sha256"]
    sidecar.write_text(json.dumps(payload))
    assert run_cli(["bargain", "--frontier", frontier_csv, "--instance", instance_a,
                    "--mode", "gnb"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert str(sidecar) in err and instance_a in err
    assert not list(tmp_path.glob("*/*-bargain*.json"))


def test_bargain_refuses_a_sidecarless_point_outside_the_region(t1_file, tmp_path, capsys):
    # T1's standalone costs are (2100, 2100); the second point exceeds the
    # first.  A CSV with no assignments file is refused whatever its points.
    frontier_csv = tmp_path / "T1-b3m1-eps0-frontier.csv"
    frontier_csv.write_text(
        "method,epsilon,index,z1,z2,assignment_ref\n"
        "b3m1,0,0,4,8,b3m1-0\n"
        "b3m1,0,1,2101,4,b3m1-1\n")
    sidecar = str(tmp_path / "T1-b3m1-eps0-assignments.json")
    for mode in ("gnb", "dist"):
        assert run_cli(["bargain", "--frontier", str(frontier_csv), "--instance", t1_file,
                        "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: missing artifact:") and sidecar in err
    assert not list(tmp_path.glob("*-bargain*.json"))


def test_bargain_refuses_a_frontier_without_points(t1_file, tmp_path, capsys):
    # The empty frontier is refused before bargain looks for its assignments file.
    frontier_csv = tmp_path / "T1-b3m2-eps3-frontier.csv"
    frontier_csv.write_text("method,epsilon,index,z1,z2,assignment_ref\n")
    assert run_cli(["bargain", "--frontier", str(frontier_csv), "--instance", t1_file,
                    "--mode", "gnb"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "holds no points" in err
    assert not list(tmp_path.glob("*-bargain*.json"))


@pytest.mark.parametrize("edit", [
    lambda text: "{not json",
    lambda text: text.replace('"participation"', '"noncollab"'),
    lambda text: text.replace('"z1_non": 2100', '"z1_non": "2100"'),
], ids=["not-json", "no-participation", "string-cost"])
def test_bargain_refuses_a_malformed_sidecar(edit, t1_file, tmp_path, capsys):
    assert run_cli(["frontier", "--instance", t1_file, "--method", "bbox",
                    "--out-dir", str(tmp_path)]) == 0
    sidecar = tmp_path / "T1-bbox-eps0-assignments.json"
    sidecar.write_text(edit(sidecar.read_text()))
    capsys.readouterr()
    assert run_cli(["bargain", "--frontier", str(tmp_path / "T1-bbox-eps0-frontier.csv"),
                    "--instance", t1_file, "--mode", "gnb"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(sidecar) in err and "Traceback" not in err
    assert not list(tmp_path.glob("*-bargain*.json"))


def test_report_aggregates_a_batch(t1_file, tmp_path, capsys):
    batch = tmp_path / "batch"
    for method, eps in (("bbox", "0"), ("b3m1", "5"), ("b3m2", "5")):
        assert run_cli(["frontier", "--instance", t1_file, "--method", method,
                        "--epsilon", eps, "--out-dir", str(batch)]) == 0
    code = run_cli(["report", "--batch", str(batch)])
    assert code == 0
    lines = (batch / "report.csv").read_text().splitlines()
    assert lines[0] == "method,epsilon,cases,ndp_mean,cpu_ms_mean,gap_pct_mean,cts_pct_mean"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert rows["bbox"][2] == "1"
    assert rows["bbox"][3] == "1.00"
    # reduced frontier equals the exact one here, so the gap is zero
    assert rows["b3m1"][5] == "0.00"
    assert rows["b3m2"][5] == "0.00"
    capsys.readouterr()


def test_report_on_a_one_ev_batch(tmp_path, capsys):
    """With one EV the other company has none and costs 0, so the bottom
    endpoint's z2, a gap normalizer, is 0; nothing is dropped, so the gap
    is 0 all the same."""
    assert run_cli(["generate", "--ev-dist", "uniform", "--charger-layout", "uniform",
                    "--n-evs", "1", "--n-chargers", "2", "--seed", "3", "--horizon", "6",
                    "--out-dir", str(tmp_path)]) == 0
    instance = str(tmp_path / "UniEV-UniChar-1-2-seed3.json")
    for method in ("bbox", "b3m2"):
        assert run_cli(["frontier", "--instance", instance, "--method", method,
                        "--epsilon", "3"]) == 0
    assert run_cli(["report", "--batch", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "report.csv").read_text().splitlines()
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert rows["b3m2"][5] == "0.00"


def test_report_on_empty_directory_fails(tmp_path, capsys):
    os.makedirs(tmp_path / "empty", exist_ok=True)
    assert run_cli(["report", "--batch", str(tmp_path / "empty")]) == 1
    assert "no frontier artifacts" in capsys.readouterr().err


def test_report_on_a_missing_directory_names_the_missing_artifact(tmp_path, capsys):
    assert run_cli(["report", "--batch", str(tmp_path / "absent")]) == 1
    assert "missing artifact" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["bbox,0,x,4,23,,", "bbox,0,1,4,23", "bbox,0,1,4,23,,,"])
def test_report_rejects_malformed_stats_csv(t1_file, tmp_path, capsys, row):
    batch = tmp_path / "batch"
    assert run_cli(["frontier", "--instance", t1_file, "--method", "bbox",
                    "--out-dir", str(batch)]) == 0
    stats = batch / "T1-bbox-eps0-stats.csv"
    header = stats.read_text().splitlines()[0]
    stats.write_text(f"{header}\n{row}\n")
    capsys.readouterr()
    assert run_cli(["report", "--batch", str(batch)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "stats CSV row 2" in err
    assert "T1-bbox-eps0-stats.csv" in err


def test_report_rejects_malformed_frontier_csv(t1_file, tmp_path, capsys):
    batch = tmp_path / "batch"
    assert run_cli(["frontier", "--instance", t1_file, "--method", "bbox",
                    "--out-dir", str(batch)]) == 0
    frontier_csv = batch / "T1-bbox-eps0-frontier.csv"
    header = frontier_csv.read_text().splitlines()[0]
    frontier_csv.write_text(f"{header}\nbbox,0,0,x,2100,bbox-0\n")
    capsys.readouterr()
    assert run_cli(["report", "--batch", str(batch)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "frontier CSV row 2" in err
    assert "T1-bbox-eps0-frontier.csv" in err


def test_report_refuses_a_stats_csv_with_two_rows(t1_file, tmp_path, capsys):
    batch = tmp_path / "batch"
    assert run_cli(["frontier", "--instance", t1_file, "--method", "bbox",
                    "--out-dir", str(batch)]) == 0
    stats = batch / "T1-bbox-eps0-stats.csv"
    header, row = stats.read_text().splitlines()
    stats.write_text(f"{header}\n{row}\n{row}\n")
    capsys.readouterr()
    assert run_cli(["report", "--batch", str(batch)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "expected exactly one stats row" in err
    assert str(stats) in err
    assert not (batch / "report.csv").exists()


def test_report_skips_a_frontier_csv_without_an_eps_part(t1_file, tmp_path, capsys):
    batch = tmp_path / "batch"
    assert run_cli(["frontier", "--instance", t1_file, "--method", "bbox",
                    "--out-dir", str(batch)]) == 0
    # Neither name ends in `-<method>-eps<epsilon>`; report would refuse their text.
    for name in ("T1-bbox-final-frontier.csv", "notes-frontier.csv"):
        (batch / name).write_text("not a frontier\n")
    capsys.readouterr()
    assert run_cli(["report", "--batch", str(batch)]) == 0
    lines = (batch / "report.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["bbox"]


def test_report_keeps_a_run_whose_epsilon_text_holds_a_minus(t1_file, tmp_path, capsys):
    batch = tmp_path / "batch"
    for method, eps in (("bbox", "0"), ("b3m2", "0.00001"), ("b3m2", "3")):
        assert run_cli(["frontier", "--instance", t1_file, "--method", method,
                        "--epsilon", eps, "--out-dir", str(batch)]) == 0
    assert (batch / "T1-b3m2-eps1e-05-frontier.csv").exists()
    capsys.readouterr()
    assert run_cli(["report", "--batch", str(batch)]) == 0
    assert "3 aggregate rows over 3 runs" in capsys.readouterr().out
    lines = (batch / "report.csv").read_text().splitlines()
    assert [tuple(line.split(",")[:2]) for line in lines[1:]] == [
        ("b3m2", "1e-05"), ("b3m2", "3"), ("bbox", "0")]


def test_export_lp_writes_model(t1_file, tmp_path):
    out = tmp_path / "t1-obj1.lp"
    code = run_cli(["export-lp", "--instance", t1_file, "--objective", "1",
                    "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("Minimize") and "Binaries" in text


def t1_optimal_listing():
    prog = build_charging_program(t1_instance())
    out = solve_min(prog, 1)
    return "\n".join(f"{vid} {val}" for vid, val in out.assignment.rendering())


def test_import_solution_happy_path(t1_file, tmp_path, capsys):
    listing = tmp_path / "solution.txt"
    listing.write_text(t1_optimal_listing())
    code = run_cli(["import-solution", "--instance", t1_file,
                    "--solution", str(listing)])
    assert code == 0
    assert "solution feasible: z1=2100 z2=" in capsys.readouterr().out


def test_import_solution_rejects_invalid_listing(t1_file, tmp_path, capsys):
    # flip one active charging interval off: every variable stays in bounds
    # but the demand/duration rows break
    prog = build_charging_program(t1_instance())
    values = dict(solve_min(prog, 1).assignment.values)
    active = next(vid for vid, val in values.items()
                  if vid.startswith("u_") and val == 1)
    values[active] = 0
    listing = tmp_path / "solution.txt"
    listing.write_text("\n".join(f"{vid} {val}" for vid, val in sorted(values.items())))
    code = run_cli(["import-solution", "--instance", t1_file,
                    "--solution", str(listing)])
    assert code == 1
    assert "violates" in capsys.readouterr().err


def test_import_solution_refuses_a_repeated_variable(t1_file, tmp_path, capsys):
    listing = tmp_path / "solution.txt"
    listing.write_text("y_A_k1 1 y_A_k1 0 tf_v1 2 tf_v2 2")
    code = run_cli(["import-solution", "--instance", t1_file,
                    "--solution", str(listing)])
    assert code == 1
    assert capsys.readouterr().err == "error: variable y_A_k1 listed twice\n"


def test_import_solution_rejects_partial_listing(t1_file, tmp_path, capsys):
    listing = tmp_path / "solution.txt"
    listing.write_text("u_v1_A_1_k1 1")  # most variables missing
    code = run_cli(["import-solution", "--instance", t1_file,
                    "--solution", str(listing)])
    assert code == 1
    assert "outside its bounds" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
def test_import_solution_rejects_non_finite_values(t1_file, tmp_path, capsys, raw):
    listing = tmp_path / "solution.txt"
    listing.write_text(f"u_v1_A_1_k1 {raw}")
    code = run_cli(["import-solution", "--instance", t1_file,
                    "--solution", str(listing)])
    assert code == 1
    err = capsys.readouterr().err
    assert "non-finite value" in err
    assert "Traceback" not in err


def test_validate_schedule_paths(t1_file, tmp_path, capsys):
    inst = t1_instance()
    good = Schedule(
        rentals={"A": "k1", "B": None},
        sessions={"v1": ("A", 0, 2), "v2": ("A", 2, 4)},
    )
    good_path = tmp_path / "good.json"
    good_path.write_text(schedule_to_json(good, inst))
    assert run_cli(["validate", "--instance", t1_file,
                    "--schedule", str(good_path)]) == 0
    assert "schedule valid" in capsys.readouterr().out

    clash = Schedule(
        rentals={"A": "k1", "B": None},
        sessions={"v1": ("A", 1, 3), "v2": ("A", 2, 4)},
    )
    clash_path = tmp_path / "clash.json"
    clash_path.write_text(schedule_to_json(clash, inst))
    assert run_cli(["validate", "--instance", t1_file,
                    "--schedule", str(clash_path)]) == 1
    assert "charger-capacity: charger A, interval 3" in capsys.readouterr().out


def test_version_flag(capsys):
    assert run_cli(["--version"]) == 0
    assert capsys.readouterr().out.strip()


def test_frontier_rerun_is_byte_identical_outside_wall_times(t1_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        assert run_cli(["frontier", "--instance", t1_file, "--method", "b3m1",
                        "--epsilon", "3", "--out-dir", str(out_dir)]) == 0
    for name in ("T1-b3m1-eps3-frontier.csv", "T1-b3m1-eps3-assignments.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # stats differ only in the wall-clock column
    rows = []
    for out_dir in (a, b):
        fields = (out_dir / "T1-b3m1-eps3-stats.csv").read_text().splitlines()[1].split(",")
        del fields[4]  # wall_ms
        rows.append(fields)
    assert rows[0] == rows[1]
    manifests = [read_json(out_dir / "T1-b3m1-eps3-manifest.json") for out_dir in (a, b)]
    for manifest in manifests:
        manifest.pop("wall_times")
        manifest["config"].pop("instance")
        manifest["outputs"] = sorted(os.path.basename(p) for p in manifest["outputs"].values())
    assert manifests[0] == manifests[1]


def test_validate_rejects_malformed_schedule_file(t1_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["validate", "--instance", t1_file,
                    "--schedule", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["frontier", "--method", "b3m1", "--epsilon", "abc"], "not a finite number: 'abc'"),
    (["bargain", "--mode", "gnb", "--pi", "abc"], "not a finite number: 'abc'"),
    (["bargain", "--mode", "dist", "--alpha", "abc"], "not a finite number: 'abc'"),
    (["bargain", "--mode", "gnb", "--pi", "0.0001"], "denominator at most 1000, got 1/10000"),
], ids=["frontier-epsilon", "bargain-pi", "bargain-alpha", "bargain-pi-denominator"])
def test_malformed_number_exits_1(argv, message, t1_file, tmp_path, capsys):
    if argv[0] == "bargain":
        argv = argv + ["--frontier", two_point_frontier_csv(tmp_path)]
    code = run_cli(argv + ["--instance", t1_file])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not list(tmp_path.glob("*-bargain.json"))


@pytest.mark.parametrize("argv, message", [
    (["generate", "--ev-dist", "uniform", "--charger-layout", "uniform", "--n-evs", "2",
      "--n-chargers", "1", "--seed", "1", "--area", "inf"],
     "area must be positive and finite, got inf"),
    (["generate", "--ev-dist", "uniform", "--charger-layout", "uniform", "--n-evs", "2",
      "--n-chargers", "1", "--seed", "1", "--area", "nan"],
     "area must be positive and finite, got nan"),
    (["frontier", "--method", "bbox", "--node-limit", "0"], "node_limit must be positive when set"),
    (["oracle", "--budget", "0"], "budget must be positive"),
], ids=["generate-area-inf", "generate-area-nan", "frontier-node-limit-0", "oracle-budget-0"])
def test_out_of_range_value_exits_1(argv, message, t1_file, tmp_path, capsys):
    out = tmp_path / "out"
    if argv[0] != "generate":
        argv = argv + ["--instance", t1_file]
    assert run_cli(argv + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists() or not list(out.iterdir())


def assert_error_without_traceback(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda data: data["evs"][0].update(window=[0]),
    lambda data: data["energy_fee_own"].update(A=data["energy_fee_own"]["A"][:2]),
], ids=["one-number-window", "short-fee-list"])
def test_malformed_instance_file_exits_1(edit, tmp_path, capsys):
    data = json.loads(instance_to_json(t1_instance()))
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run_cli(["frontier", "--instance", str(bad), "--method", "bbox",
                    "--out-dir", str(tmp_path)]) == 1
    assert_error_without_traceback(capsys)


def test_repeated_ev_id_exits_1(tmp_path, capsys):
    data = json.loads(instance_to_json(t1_instance()))
    data["evs"].append(data["evs"][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run_cli(["frontier", "--instance", str(bad), "--method", "bbox",
                    "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'v1'" in err and "Traceback" not in err


def test_malformed_frontier_csv_exits_1(t1_file, tmp_path, capsys):
    bad = tmp_path / "bad-frontier.csv"
    bad.write_text("method,epsilon,index,z1,z2,assignment_ref\nb3m1,0,0,4\n")
    assert run_cli(["bargain", "--frontier", str(bad), "--instance", t1_file,
                    "--mode", "gnb"]) == 1
    assert_error_without_traceback(capsys)


def test_malformed_schedule_file_exits_1(t1_file, tmp_path, capsys):
    schedule = Schedule(rentals={"A": "k1", "B": "k2"},
                        sessions={"v1": ("A", 0, 2), "v2": ("B", 0, 2)})
    data = json.loads(schedule_to_json(schedule, t1_instance()))
    data["sessions"][0]["start"] = 0.5
    bad = tmp_path / "bad-schedule.json"
    bad.write_text(json.dumps(data))
    assert run_cli(["validate", "--instance", t1_file, "--schedule", str(bad)]) == 1
    assert_error_without_traceback(capsys)


@pytest.mark.parametrize("edit, name", [
    (lambda data: data["sessions"].insert(0, {"ev": "v1", "charger": "B", "start": 0, "end": 2}),
     "'v1'"),
    (lambda data: data["sessions"].append({"ev": "v9", "charger": "A", "start": 2, "end": 4}),
     "'v9'"),
    (lambda data: data["rentals"].update(C="k1"), "'C'"),
], ids=["second-row-for-an-ev", "unknown-ev", "unknown-charger-rental"])
def test_schedule_file_that_hides_a_session_exits_1(edit, name, t1_file, tmp_path, capsys):
    # Without the edit the schedule is valid; with it the file holds a row
    # that an EV-keyed or charger-keyed reading would drop unseen.
    schedule = Schedule(rentals={"A": "k1", "B": "k2"},
                        sessions={"v1": ("A", 0, 2), "v2": ("B", 0, 2)})
    data = json.loads(schedule_to_json(schedule, t1_instance()))
    edit(data)
    bad = tmp_path / "bad-schedule.json"
    bad.write_text(json.dumps(data))
    assert run_cli(["validate", "--instance", t1_file, "--schedule", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err and "Traceback" not in err


# -- paths that cannot be read or written ---------------------------------------

GENERATE = ["generate", "--ev-dist", "uniform", "--charger-layout", "uniform",
            "--n-evs", "2", "--n-chargers", "1", "--seed", "1"]


@pytest.fixture
def bad_paths(tmp_path, t1_file):
    """Whole-argument stand-ins: a regular file, a directory, a path below
    the regular file, a writable directory, the T1 instance and a file that
    is not UTF-8."""
    (tmp_path / "a-file").write_text("")
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "utf16.txt").write_bytes(b"\xff\xfe{\x00}\x00")
    return {"FILE": str(tmp_path / "a-file"), "DIR": str(tmp_path / "a-dir"),
            "FILE/x": str(tmp_path / "a-file" / "x"), "OUT": str(tmp_path / "out"),
            "T1": t1_file, "UTF16": str(tmp_path / "utf16.txt")}


@pytest.mark.parametrize("argv, named", [
    (["report", "--batch", "FILE"], "FILE"),
    (["frontier", "--instance", "DIR", "--method", "bbox"], "DIR"),
    (GENERATE + ["--prices", "DIR", "--out-dir", "OUT"], "DIR"),
    (["validate", "--instance", "T1", "--schedule", "DIR"], "DIR"),
    (["export-lp", "--instance", "T1", "--objective", "1", "--out", "DIR"], "DIR"),
    (["frontier", "--instance", "T1", "--method", "bbox", "--out-dir", "FILE"], "FILE"),
    (GENERATE + ["--out-dir", "FILE/x"], "FILE/x"),
    (["frontier", "--instance", "UTF16", "--method", "bbox"], "UTF16"),
    (["validate", "--instance", "T1", "--schedule", "UTF16"], "UTF16"),
    (["bargain", "--frontier", "UTF16", "--instance", "T1", "--mode", "gnb"], "UTF16"),
], ids=["report-batch-file", "frontier-instance-dir", "generate-prices-dir",
        "validate-schedule-dir", "export-lp-out-dir", "frontier-out-dir-file",
        "generate-out-dir-below-file", "frontier-instance-not-utf8",
        "validate-schedule-not-utf8", "bargain-frontier-not-utf8"])
def test_a_path_that_cannot_be_read_or_written_exits_1(argv, named, bad_paths, capsys):
    assert run_cli([bad_paths.get(arg, arg) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert bad_paths[named] in err


def refuse_search(*args, **kwargs):
    raise AssertionError("frontier searched before it made its output directory")


def test_frontier_checks_its_out_dir_before_the_search(bad_paths, capsys, monkeypatch):
    monkeypatch.setattr(evshare.charging, "noncollab_point", refuse_search)
    monkeypatch.setattr(evshare.frontier, "run_method", refuse_search)
    assert run_cli(["frontier", "--instance", bad_paths["T1"], "--method", "bbox",
                    "--out-dir", bad_paths["FILE"]]) == 1
    assert capsys.readouterr().err == f"error: File exists: {bad_paths['FILE']}\n"


def test_main_reports_a_path_error_without_a_traceback(bad_paths):
    src = os.path.dirname(os.path.dirname(evshare.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "evshare.cli", "report", "--batch", bad_paths["FILE"]],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and bad_paths["FILE"] in done.stderr
