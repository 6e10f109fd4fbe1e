"""The benchmark's calls into the library still work.

perfbench/workloads.py builds its seeded cases and warms up through the
library's public surface (config fields, positional arguments, the `.log`
of ball measures).  Building and warming up each workload here makes a
library change that breaks those calls fail the test suite, not only the
benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", ["ball-sweep", "radial", "line-weaktype"])
def test_bench_workload_builds_and_warms_up(workloads, name):
    assert name in workloads.WORKLOADS
    assert workloads.build(name, 7)
    workloads.warm_up(name)
