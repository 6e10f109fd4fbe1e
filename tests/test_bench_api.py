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


def _bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def workloads():
    return _bench_module("workloads")


def _traced_spans(workloads, tracer, name):
    """The tracer's spans of one pass over the seed-7 cases of a workload."""
    cases = workloads.build(name, 7)
    tr = tracer.Tracer()
    tr.install()
    try:
        for case in cases:
            case.run()
    finally:
        tr.uninstall()
    return tr.spans


@pytest.mark.parametrize("name", ["ball-sweep", "radial", "line-weaktype"])
def test_bench_workload_builds_and_warms_up(workloads, name):
    assert name in workloads.WORKLOADS
    assert workloads.build(name, 7)
    workloads.warm_up(name)


def test_tracer_counts_the_quadrature_and_its_callers(workloads):
    # perfbench/tracer.py finds log_integrate_batch's panels by the argument
    # names lo and hi and wraps its first argument, the integrand; a renamed
    # argument would zero these counts in the benchmark's traced run
    tracer = _bench_module("tracer")
    names = ("quadrature.segments", "quadrature.integrand_evals", "measure.balls",
             "radial.ball_averages")

    def traced_counts():
        metrics = tracer.layer_metrics(_traced_spans(workloads, tracer, "radial"))
        return [metrics[name][0] for name in names]

    counts = traced_counts()
    assert all(c > 0 for c in counts), dict(zip(names, counts))
    assert traced_counts() == counts


def test_tracer_counts_the_1d_layer(workloads):
    # perfbench/tracer.py wraps uncentered_max_grid and weak_type_quotient_1d
    # by name; a renamed or bypassed one would zero the 1D layer's counts in
    # the benchmark's traced run
    tracer = _bench_module("tracer")

    def traced_counts():
        spans = _traced_spans(workloads, tracer, "line-weaktype")
        quotients = sum(s[tracer.NAME] == "maximal1d.weak_type_quotient_1d" for s in spans)
        return tracer.layer_metrics(spans)["maximal1d.uncentered_points"][0], quotients

    counts = traced_counts()
    assert counts == (10_752, 308)
    assert traced_counts() == counts


def test_tracer_counts_the_ball_sweep_rounds(workloads):
    # seed-7 ball-sweep measures 7,000 balls; at tol 1e-8 its 200 lone balls
    # B(s e1, s) converge on their first panels, 2.5/sqrt(d) wide, in one
    # integrand call each, and the whole pass makes 275
    tracer = _bench_module("tracer")
    names = ("measure.balls", "quadrature.integrand_calls")

    def traced_counts():
        metrics = tracer.layer_metrics(_traced_spans(workloads, tracer, "ball-sweep"))
        return tuple(metrics[name][0] for name in names)

    counts = traced_counts()
    assert counts == (7_000, 275)
    assert traced_counts() == counts
