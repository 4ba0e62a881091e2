"""The benchmark's own operations and checks, run on a few desk instances.

perfbench/run.py rebinds and reads program functions by name and checks
every operation's outputs; a change to the program that breaks either
would end a benchmark run as failed or incorrect.  These tests load the
script by path and only read the perfbench directory.
"""

import dataclasses
import importlib.util
import os
import sys

import pytest

RUN_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "run.py")
DESK_INSTANCES = 6


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def desk(bench):
    ev = bench.import_evshare()
    workload = bench.WORKLOADS["desk"]
    pool = bench.build_pool(ev, dataclasses.replace(workload, size=DESK_INSTANCES),
                            workload.base_seed)
    return ev, workload, pool


def test_every_traced_target_resolves(bench, desk):
    ev = desk[0]
    for owner, attribute, _, _ in bench.trace_targets(ev):
        assert callable(getattr(owner, attribute, None)), f"{owner.__name__}.{attribute}"


def test_library_operations_pass_the_benchmark_checks(bench, desk):
    ev, workload, pool = desk
    for instance, program in pool:
        with bench.Tracer().patched(bench.trace_targets(ev)):
            out = bench.library_op(ev, workload, instance, program)
        assert bench.check_library(ev, instance, program, out) == [], instance.name
        assert bench.oracle_problems(ev, instance, out) == [], instance.name


def test_cli_operations_pass_the_benchmark_checks(bench, desk, tmp_path):
    ev, workload, pool = desk
    batch = str(tmp_path)
    results = [bench.cli_op(ev, workload.params(workload.base_seed, index), batch)
               for index in range(DESK_INSTANCES)]
    code, err = bench.cli_report(ev, batch)
    assert code == 0, err
    files = bench.snapshot(batch)
    for (instance, program), res in zip(pool, results):
        assert bench.cli_problems(ev, instance, program, res, files) == [], instance.name
