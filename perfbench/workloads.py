"""Seeded case lists for the three benchmark workloads.

A workload is a fixed list of cases built from the seed; one pass runs
every case once, in order, in one thread (a closed loop).  The seed moves
inputs either inside fixed strata or along directions the amount of work
does not depend on (ball scale, profile values), so every seed runs the
same mix of work and pass times stay comparable across seeds.

Each case carries a `run` that calls radialmax's public functions through
their module attributes (so the traced run can wrap them) and a `check`
that judges the output outside the timed region.  A check returns
(reason, err_over_tol): reason is None when the output is correct, and
err_over_tol is the error divided by its stated tolerance where the case
has one.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import radialmax.bounds as bnd
import radialmax.cli as cli
import radialmax.maximal1d as m1d
import radialmax.measure as msr
import radialmax.radial as rad
from radialmax.quadrature import QuadratureConfig

from oracle import LOG_TINY, log_uncentered_max

WORKLOADS = ("ball-sweep", "radial", "line-weaktype")

# stated tolerances that max_err_over_tol is measured against
BALL_LOG_TOL = 1e-8      # acceptance criterion 4
ORACLE_REL_TOL = 1e-6    # acceptance criterion 7


@dataclass
class Case:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple]


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))


def _cli_output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _check_cli(n_rows: int):
    def check(out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}", None
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        if len(rows) != n_rows:
            return f"{len(rows)} rows, expected {n_rows}", None
        if any(r["passed"] != "true" or r["error"] for r in rows):
            return "a row did not pass", None
        return None, None
    return check


# ---------------------------------------------------------------------------
# ball-sweep: specfun -> quadrature -> measure on sharp high-d spikes
# ---------------------------------------------------------------------------

def _ball_case(d: int, beta: float, scale: float) -> Case:
    m = msr.PowerLawMeasure(d, beta)
    ball = msr.BallSpec(scale, scale)

    def run():
        return msr.log_ball_offcenter(m, ball).log

    def check(q):
        if not math.isfinite(q):
            return "non-finite", None
        # homogeneity: mu(B(s e1, s)) = s^(d - beta) mu(B(e1, 1))
        closed = msr.log_ball_offcenter_unit_closed(m).log + (d - beta) * math.log(scale)
        err = abs(q - closed)
        return (None if err <= BALL_LOG_TOL else "closed-form mismatch"), err / BALL_LOG_TOL

    return Case("ball", f"ball d={d} beta={beta:g} scale={scale:.4f}", run, check)


def _shift_case(d: int, alpha: float, rs: np.ndarray) -> Case:
    m = msr.PowerLawMeasure(d, alpha)
    quad = QuadratureConfig(tol=1e-7)
    small = rs <= 1.0 / math.sqrt(5.0)
    c_prime = 4.0 * 6.0 ** (alpha / 2.0)
    c_small = 2.0 * 6.0 ** (alpha / 2.0)

    def run():
        return msr.shift_condition_ratios(m, rs, quad)

    def check(ratios):
        if not _finite(ratios) or np.any(ratios <= 0):
            return "non-finite or non-positive ratio", None
        if ratios.max() > c_prime * (1 + 1e-9):
            return "ratio above 4*6^(beta/2)", None
        if ratios[small].max() > c_small * (1 + 1e-9):
            return "small-r ratio above 2*6^(beta/2)", None
        return None, None

    return Case("shift", f"shift d={d} beta={alpha:g}", run, check)


def _ball_sweep(rng) -> list:
    # The (d, beta) grid is fixed: the incomplete-beta cost behind each ball
    # depends on d, so drawing d from the seed would make seeds incomparable.
    # The seed moves what the cost does not depend on: the ball's scale (the
    # quadrature runs in scale-free coordinates), the shift radii inside
    # their bins, and the CLI exponents.
    cases = []
    for d in range(2, 201, 5):
        for beta in (-2.0, 0.0, 0.5, d / 4, d / 2):
            cases.append(_ball_case(d, beta, float(np.exp(rng.uniform(-0.7, 0.7)))))
    for d in (8, 32, 56):
        for alpha in (1.0, 2.0, d / 4, d / 2):
            rs = (np.arange(256) + rng.uniform(0.0, 1.0, 256)) / 256.0
            rs[-1] = 1.0
            cases.append(_shift_case(d, alpha, rs))
    argv = ["verify-shift", "--d", "8..56:12", "--alpha", f"{rng.uniform(1.0, 2.0):.6f}",
            "--r-points", "64"]
    cases.append(Case("cli", " ".join(argv), lambda argv=argv: _cli_output(argv), _check_cli(5)))
    argv = ["bounds-lower", "--d", "12..96:12", "--alpha-coef", f"{rng.uniform(0.7, 0.75):.6f}"]
    cases.append(Case("cli", " ".join(argv), lambda argv=argv: _cli_output(argv), _check_cli(8)))
    return cases


# ---------------------------------------------------------------------------
# radial: radius grid and level-set bisection over many thin shells, low d
# ---------------------------------------------------------------------------

CRITERION10 = rad.MaximalConfig(
    radii_per_decade=48,
    min_radii=32,
    refine_rounds=2,
    quad=QuadratureConfig(tol=1e-6),
    level_grid=m1d.GridConfig(points=128, bisect_rel_tol=1e-6, max_bisect=30),
)
CRITERION9 = rad.MaximalConfig(radii_per_decade=128, refine_rounds=2,
                               quad=QuadratureConfig(tol=1e-7))


def _weaktype_radial_case(d: int, beta: float, r0: float) -> Case:
    m = msr.PowerLawMeasure(d, beta)
    f = m1d.RadialProfile.indicator(r0)
    lam_star = math.exp(msr.log_ball_centered(m, r0).log
                        - msr.log_ball_offcenter(m, msr.BallSpec(1.0, 1.0 + r0)).log)
    lams = np.geomspace(0.25 * lam_star, 1.02 * lam_star, 10)

    def run():
        return rad.weak_type_quotient_radial(m, f, lams, CRITERION10)

    def check(q):
        if not math.isfinite(q):
            return "non-finite", None
        lower = bnd.delta_lower_bound(d, beta).value
        upper = 2.0 * (rad.certified_shift_constant(m) + 1.0)
        if q < 0.95 * lower:
            return "quotient below 0.95 * delta_lower_bound", None
        if q > upper * (1 + 1e-9):
            return "quotient above 2(C+1)", None
        return None, None

    return Case("weaktype-radial", f"weaktype d={d} beta={beta:g} r0={r0:.5f}", run, check)


def _centered_max_case(d: int, beta: float, f: m1d.RadialProfile, c: float) -> Case:
    m = msr.PowerLawMeasure(d, beta)

    def run():
        return rad.centered_max_radial(m, f, c, CRITERION9)

    def check(lhs):
        if not math.isfinite(lhs) or lhs <= 0:
            return "non-finite or zero maximal function", None
        rhs = (rad.certified_shift_constant(m) + 1.0) * m1d.uncentered_max(
            m1d.WeightedLineMeasure(d, beta), f, c)
        return (None if lhs <= rhs * (1 + 1e-6) else "above (C+1) * uncentered max"), None

    return Case("centered-max", f"centered-max d={d} beta={beta:.3f} c={c:.3f}", run, check)


# (d, beta, c, breakpoints): low, middle and high d of criterion 9's range,
# c inside the support
CENTERED_MAX_GEOMETRIES = (
    (4, 1.0, 1.0, (0.0, 0.6, 1.4, 2.5)),
    (12, 3.0, 1.3, (0.0, 0.3, 0.9, 1.6, 2.2, 3.0)),
    (22, 6.0, 0.7, (0.1, 0.5, 1.1, 1.8, 2.6)),
)


def _radial(rng) -> list:
    # the criterion-10 pair with the tightest sandwich (q / lower ~ 0.97)
    weaktype = _weaktype_radial_case(12, 3.0, 0.004 * math.exp(rng.uniform(-0.05, 0.05)))
    cases = []
    # Criterion-9 points: four step profiles on each of three geometries.
    # The quadrature cost of a point follows its geometry (d, beta, c,
    # breakpoints) and jumps by 2x between nearby geometries, so the
    # geometries are fixed and the seed draws the profile values, which the
    # shell measures do not depend on.  Four cases of like cost per
    # geometry keep the latency percentiles off the gaps between geometries.
    for d, beta, c, breakpoints in CENTERED_MAX_GEOMETRIES:
        for _ in range(4):
            values = rng.uniform(0.05, 4.0, len(breakpoints) - 1)
            f = m1d.RadialProfile(breakpoints, tuple(values))
            cases.append(_centered_max_case(d, beta, f, c))
    # in the middle, so the reference samples that calibrate this long case
    # come from before it as well as after it
    cases.insert(len(cases) // 2, weaktype)
    return cases


# ---------------------------------------------------------------------------
# line-weaktype: maximal1d alone, no quadrature
# ---------------------------------------------------------------------------

def _step_profile(rng, pieces: int, t_max: float) -> m1d.RadialProfile:
    """Step profile with `pieces` positive values; breakpoint j lies in the
    j-th of `pieces` equal bins of (0, t_max], and the support starts at 0
    or, two times in five, inside the first bin."""
    ends = t_max * (np.arange(pieces) + rng.uniform(0.1, 0.9, pieces)) / pieces
    start = rng.uniform(0.0, 0.5 * ends[0]) if rng.random() < 0.4 else 0.0
    return m1d.RadialProfile((start, *ends), tuple(rng.uniform(0.05, 4.0, pieces)))


def _weaktype_1d_case(d: int, beta: float, f: m1d.RadialProfile, kind: str) -> Case:
    m = m1d.WeightedLineMeasure(d, beta)
    lams = m1d.default_lambda_grid(m, f, 32)
    grid = m1d.GridConfig(points=768)

    def run():
        return m1d.weak_type_quotient_1d(m, f, lams, grid)

    def check(q):
        if not math.isfinite(q):
            return "non-finite", None
        if not 0.0 < q <= 2.0 + 1e-6:
            return "quotient outside (0, 2]", None
        return None, None

    return Case(kind, f"{kind} d={d} beta={beta:.3f} pieces={len(f.values)}", run, check)


def _uncentered_case(d: int, beta: float, f: m1d.RadialProfile, xs: np.ndarray,
                     probe: np.ndarray, kind: str) -> Case:
    m = m1d.WeightedLineMeasure(d, beta)

    def run():
        return m1d.uncentered_max_grid(m, f, xs)

    def check(mu):
        if not _finite(mu):
            return "non-finite", None
        worst = 0.0
        for k in probe:
            lo = log_uncentered_max(d, beta, f.breakpoints, f.values, float(xs[k]))
            if lo < LOG_TINY:
                if mu[k] > 1e-280:
                    return "above an oracle value below the double range", None
                continue
            ora = math.exp(lo)
            if mu[k] <= 0.0:
                return "silent zero", None
            if mu[k] < ora * (1.0 - 1e-9):
                return "below the dense-grid oracle", None
            worst = max(worst, abs(mu[k] - ora) / ora)
        return (None if worst <= ORACLE_REL_TOL else "oracle deviation"), worst / ORACLE_REL_TOL

    return Case(kind, f"{kind} d={d} beta={beta:.3f} points={len(xs)}", run, check)


def _line_weaktype(rng) -> list:
    cases = []
    # criterion-7 quotients: six per d = 1..50, beta stratified over (-2, d);
    # the level-set grid deepens as d - beta nears 0, so each d gets one
    # beta from every sixth of its range
    for d in range(1, 51):
        for j in range(6):
            beta = -2.0 + (j + rng.uniform()) / 6 * (d - 0.05 + 2.0)
            f = _step_profile(rng, 1 + (6 * d + j) % 12, 3.0)
            cases.append(_weaktype_1d_case(d, float(beta), f, "weaktype-1d"))
    n = 40  # M^u on 256 points each, 8 of them against the oracle
    for i in range(n):
        d = 1 + (i * 50) // n
        beta = float(rng.uniform(-2.0, d - 0.05))
        f = _step_profile(rng, 1 + i % 12, 3.0)
        xs = np.sort(rng.uniform(0.05, 4.0, 256))
        cases.append(_uncentered_case(d, beta, f, xs, rng.choice(256, 8, replace=False),
                                      "uncentered"))
    # high-d slice: d up to 400, support radii up to 100.  The linear-space
    # powers overflow here and those cases count as failures; a fixed
    # scramble pairs d bands, radius bins and beta strata so that every seed
    # has cases with (d - beta) ln t_max far past 709.
    n = 8
    d_edges = np.linspace(51, 401, n + 1).astype(int)
    for i in range(n):
        d = int(rng.integers(d_edges[i], d_edges[i + 1]))
        beta = float(-2.0 + ((5 * i) % n + rng.uniform()) / n * (d - 0.05 + 2.0))
        t_max = float(3.0 * (100.0 / 3.0) ** ((i + rng.uniform()) / n))
        f = _step_profile(rng, 1 + i % 12, t_max)
        cases.append(_weaktype_1d_case(d, beta, f, "weaktype-1d-highd"))
        xs = np.sort(rng.uniform(0.05, 1.2 * t_max, 64))
        cases.append(_uncentered_case(d, beta, f, xs, rng.choice(64, 8, replace=False),
                                      "uncentered-highd"))
    return cases


CASE_LISTS = {"ball-sweep": _ball_sweep, "radial": _radial, "line-weaktype": _line_weaktype}


def build(workload: str, seed: int) -> list:
    return CASE_LISTS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))


def warm_up(workload: str) -> None:
    """First calls that fill lazy caches (quadrature nodes, parsers) before timing."""
    if workload == "ball-sweep":
        msr.log_ball_offcenter(msr.PowerLawMeasure(6, 1.0), msr.BallSpec(1.0, 1.0))
        msr.shift_condition_ratios(msr.PowerLawMeasure(6, 1.0), [0.25, 0.5, 1.0],
                                   QuadratureConfig(tol=1e-7))
        cli.build_parser()
    elif workload == "radial":
        rad.centered_max_radial(msr.PowerLawMeasure(3, 0.5), m1d.RadialProfile.indicator(1.0),
                                0.5, CRITERION9)
    else:
        m = m1d.WeightedLineMeasure(3, 0.5)
        f = m1d.RadialProfile((0.0, 1.0, 2.0), (2.0, 1.0))
        m1d.weak_type_quotient_1d(m, f, m1d.default_lambda_grid(m, f, 4),
                                  m1d.GridConfig(points=64))
