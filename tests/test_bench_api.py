"""The benchmark's calls into the library still work.

perfbench/workloads.py builds its seeded cases and warms up through the
library's public surface (config fields, positional arguments, the `.log`
of ball measures).  Building and warming up each workload here makes a
library change that breaks those calls fail the test suite, not only the
benchmark run.
"""

import hashlib
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import radialmax.radial as radial

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


def test_tracer_counts_the_radial_rounds(workloads):
    # seed-7 radial makes 72 quadrature calls, each converging on its first
    # panels in one integrand call, on 516 balls; its weak-type case takes
    # 3 crossing-search rounds after the grid call, on 10, 10 and 7 points,
    # and a cut in the fixed cost of a call or a radius-search round moves
    # none of these counts
    tracer = _bench_module("tracer")
    names = ("quadrature.calls", "quadrature.integrand_calls", "quadrature.integrand_evals",
             "measure.balls")

    def traced_counts():
        metrics = tracer.layer_metrics(_traced_spans(workloads, tracer, "radial"))
        return tuple(metrics[name][0] for name in names)

    counts = traced_counts()
    assert counts == (72, 72, 45_066, 516)
    assert traced_counts() == counts


def test_radial_weak_type_case_takes_at_most_six_max_fn_calls(workloads, monkeypatch):
    # the seed-7 weak-type case: the level grid's call, then one call per
    # round of the crossing search, which closes its brackets in 3 rounds
    sizes = []
    grid_max = radial._log_centered_max_grid

    def counted(m, f, ts, cfg):
        sizes.append(len(ts))
        return grid_max(m, f, ts, cfg)

    monkeypatch.setattr(radial, "_log_centered_max_grid", counted)
    case = next(c for c in workloads.build("radial", 7) if c.kind == "weaktype-radial")
    case.run()
    assert 2 <= len(sizes) <= 6, sizes


# the 13 seed-7 radial outputs, bit for bit: twelve criterion-9 points
# M_mu f(c) and, seventh, the criterion-10 weak-type quotient, 3.9e-13
# relative from its value at tol 1e-11 (0x1.532c93f7e72a1p+1)
RADIAL_SEED7_HEX = (
    "0x1.98080061a52f7p-1", "0x1.86c337df9a7bbp+1", "0x1.bd3c3ee684cc5p+0",
    "0x1.f4397015b3aadp+0", "0x1.ccde9b6e30224p+0", "0x1.f495728c0bad9p+0",
    "0x1.532c93f7e6985p+1", "0x1.ff18e5711c281p-1", "0x1.c144fff62f0e7p+1",
    "0x1.7df2918dfda6cp+1", "0x1.6dfa0b7090e74p+1", "0x1.e8d0f9eb781a6p+0",
    "0x1.bd6831c8e772ep+1",
)


def test_radial_outputs_keep_their_bits(workloads):
    outputs = tuple(float(case.run()).hex() for case in workloads.build("radial", 7))
    assert outputs == RADIAL_SEED7_HEX


def _output_text(out):
    """A case output as text that keeps its bits: float.hex of a float and of
    each entry of an array, and a CLI case's exit code and text as printed."""
    if isinstance(out, tuple):
        rc, text = out
        return f"{rc}\n{text}"
    if isinstance(out, np.ndarray):
        return " ".join(float(x).hex() for x in out.ravel())
    return float(out).hex()


# sha256 of every seed-7 case output of each workload, one output per line
# (_output_text): a change that keeps every output bit keeps these
WORKLOAD_SEED7_SHA256 = {
    "ball-sweep": "53dd5391b868c7cff934a241b12484498cfd42d016c0a987592c0377fa198266",
    "radial": "b806de0392caf7cc84b70ce993329653e19afdf9ba377188c1ee765b2b5f99e6",
    "line-weaktype": "b3aa63e2235625d9a98dc971a457ff051c2e37f772f48f658694dacff52d4cca",
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_SEED7_SHA256))
def test_workload_outputs_keep_their_bits(workloads, workload):
    body = "\n".join(_output_text(case.run()) for case in workloads.build(workload, 7))
    assert hashlib.sha256(body.encode()).hexdigest() == WORKLOAD_SEED7_SHA256[workload]
