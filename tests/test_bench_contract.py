"""The benchmark's checks, run in the tier-1 suite: ``bench/workloads.py``
(imported, never modified) must pass every check of each of its four
workloads (the fractional one, the two tail curves and the Monte Carlo
exits), and two passes of each must hash to the same digest."""

import importlib.util
import pathlib
import sys

import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look the module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["interval-fractional", "disk-dirac-cg", "disk-mixed-psor",
                                  "mc-exit"])
def test_workload_passes_checks_deterministically(workloads, name):
    ctx = workloads.setup(name)
    first, second = (workloads.run_pass(name, ctx) for _ in range(2))
    for result in (first, second):
        failed = [check for check, ok in result.checks.items() if not ok]
        assert not failed, f"failed checks: {failed}"
    assert first.digest == second.digest
