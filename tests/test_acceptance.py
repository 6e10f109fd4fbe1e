"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  Criterion 3 checks the exponential slope
s(d) = ln Delta(d, d/2) / (d/2) of the point-mass certificate: decreasing
in d, at or above the certified rate ln(sqrt5/2), and inside a per-d window
built from Binet's two-sided Stirling bound on the closed gamma quotient.
The window top was first stated as the constant ln(sqrt5/2) + 0.15, which
no correct value can meet: the slopes decrease to (3/2)ln3 - 2ln2, whose
gap above ln(sqrt5/2) is 0.150052 (rounded down to 0.15), and at finite d
they sit a further ln(2/sqrt3)/alpha_d above that limit.  The companion
test right below it verifies the property the certified rate supports.
"""

import math
import time

import numpy as np
import pytest

import conftest

from radialmax.bounds import cp_lower_bound, delta_lower_bound, g_eval
from radialmax.maximal1d import (
    GridConfig,
    RadialProfile,
    WeightedLineMeasure,
    default_lambda_grid,
    profile_l1_norm,
    uncentered_max,
    weak_type_quotient_1d,
)
from radialmax.measure import (
    BallSpec,
    PowerLawMeasure,
    QuadratureConfig,
    log_ball_centered,
    log_ball_offcenter,
    log_ball_offcenter_unit_closed,
    shift_condition_ratios,
)
from radialmax.radial import (
    MaximalConfig,
    ball_average,
    centered_max_radial,
    weak_type_quotient_radial,
)

from conftest import mc_ball_average, numeric_g_maximizer, oracle_uncentered_max, random_profile

LN_LIMIT = 0.5 * math.log(5.0) - math.log(2.0)  # ln(sqrt(5)/2)


def _report(num, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} [{status}] {elapsed:6.1f}s / budget {budget:.0f}s {detail}"
    print("\n" + line)
    conftest.ACCEPTANCE_LINES.append(line)


# ---------------------------------------------------------------------------
# 1. Lebesgue identity
# ---------------------------------------------------------------------------

def test_criterion_01_lebesgue_identity():
    t0 = time.perf_counter()
    worst = max(abs(delta_lower_bound(d, 0.0).value - 1.0) for d in range(2, 201))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(1, ok, elapsed, 1, f"max |ratio-1| = {worst:.2e}")
    assert worst <= 1e-10
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. point-mass chain: exact >= stirling >= closed = (1/2e)(5/4)^(a/2)
# ---------------------------------------------------------------------------

def test_criterion_02_closed_bound_chain():
    t0 = time.perf_counter()
    worst_gap = math.inf
    for d in range(12, 401):
        for alpha in (1.0, 2.0, d / 4, d / 2):
            cert = delta_lower_bound(d, alpha)
            chain = cert.intermediates["log_stirling_chain"]
            closed = cert.intermediates["log_closed"]
            target = -math.log(2.0) - 1.0 + 0.5 * alpha * math.log(1.25)
            assert closed == pytest.approx(target, abs=1e-12)
            assert cert.log_value >= chain >= closed
            worst_gap = min(worst_gap, cert.log_value - closed)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    _report(2, ok, elapsed, 5, f"min log-gap exact-closed = {worst_gap:.3f}")
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 3. exponential slope window, bracketed per d by Binet's Stirling bound
# ---------------------------------------------------------------------------

def _stirling_main(z):
    """(z - 1/2) ln z - z + (1/2) ln 2pi, the Stirling part of ln Gamma(z)."""
    return (z - 0.5) * math.log(z) - z + 0.5 * math.log(2.0 * math.pi)


def _slope_window(d):
    """Two-sided bracket [s-, s+] on ln Delta(d, d/2) / (d/2).

    Delta = 2 sqrt(pi) Gamma(3d/4) / (2^(d/2) Gamma(d/2) Gamma(d/4 + 1/2))
    at beta = d/2.  Binet's remainder r(z) = ln Gamma(z) - _stirling_main(z)
    satisfies 0 < r(z) < 1/(12 z), so the numerator's remainder can only
    raise ln Delta and the two denominator remainders can only lower it.
    Elementary arithmetic only: nothing here shares code with radialmax.
    """
    alpha = d / 2
    zn, zd1, zd2 = 0.75 * d, 0.5 * d, 0.25 * d + 0.5
    main = (
        math.log(2.0 * math.sqrt(math.pi)) - alpha * math.log(2.0)
        + _stirling_main(zn) - _stirling_main(zd1) - _stirling_main(zd2)
    )
    lo = main - 1.0 / (12.0 * zd1) - 1.0 / (12.0 * zd2)
    hi = main + 1.0 / (12.0 * zn)
    return lo / alpha, hi / alpha


def test_criterion_03_slope_window_as_stated():
    t0 = time.perf_counter()
    ds = [48, 96, 192, 400]
    slopes = [delta_lower_bound(d, d / 2).log_value / (d / 2) for d in ds]
    windows = [_slope_window(d) for d in ds]
    decreasing = all(a > b for a, b in zip(slopes, slopes[1:]))
    in_window = [LN_LIMIT <= s and lo <= s <= hi for s, (lo, hi) in zip(slopes, windows)]
    narrow = all(hi - lo < 1e-3 for lo, hi in windows)
    elapsed = time.perf_counter() - t0
    ok = decreasing and all(in_window) and narrow
    _report(3, ok, elapsed, 5,
            f"slopes {[f'{s:.6f}' for s in slopes]} vs Binet windows "
            f"{[f'[{lo:.6f}, {hi:.6f}]' for lo, hi in windows]}")
    assert decreasing
    assert narrow, f"Binet slope windows {windows} for d = {ds} are not narrower than 1e-3"
    assert all(in_window), (
        "criterion 3: ln(DeltaExact)/alpha_d at alpha_d = d/2 measures "
        f"{slopes} for d = {ds}; each must be >= ln(sqrt5/2) = {LN_LIMIT:.7f} and "
        f"inside its Binet window {windows}; the windows bracket the closed "
        "gamma quotient, whose slope is (3/2)ln3 - 2ln2 "
        f"= {1.5 * math.log(3) - 2 * math.log(2):.7f} (0.150052 above "
        "ln(sqrt5/2)) plus ln(2/sqrt3)/alpha_d + O(1/alpha_d^2)."
    )
    assert elapsed < 5.0


def test_criterion_03_certified_rate_property():
    # what the certified closed rate supports: slopes strictly above
    # ln(sqrt5/2), decreasing in d, approaching (3/2)ln3 - 2ln2 from above
    t0 = time.perf_counter()
    ds = [48, 96, 192, 400, 800]
    slopes = [delta_lower_bound(d, d / 2).log_value / (d / 2) for d in ds]
    limit = 1.5 * math.log(3.0) - 2.0 * math.log(2.0)
    elapsed = time.perf_counter() - t0
    ok = (
        all(s > LN_LIMIT for s in slopes)
        and all(a > b for a, b in zip(slopes, slopes[1:]))
        and all(s > limit for s in slopes)
        and slopes[-1] - limit < 1e-3
    )
    _report(3, ok, elapsed, 5, f"(certified-rate variant) last slope {slopes[-1]:.6f}")
    assert ok
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 4. quadrature vs closed form across the full grid
# ---------------------------------------------------------------------------

def test_criterion_04_quadrature_vs_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    worst_at = None
    for d in range(2, 201):
        m_list = [0.0, 0.5, d / 4, d / 2]
        for beta in m_list:
            m = PowerLawMeasure(d, beta)
            q = log_ball_offcenter(m, BallSpec(1.0, 1.0)).log
            closed = log_ball_offcenter_unit_closed(m).log
            err = abs(q - closed)
            if err > worst:
                worst, worst_at = err, (d, beta)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(4, ok, elapsed, 60, f"worst |log diff| = {worst:.2e} at {worst_at}")
    assert worst <= 1e-8
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. the spike-profile claim: maximizer, endpoint zeros, negative root
# ---------------------------------------------------------------------------

def test_criterion_05_claim_verification():
    t0 = time.perf_counter()
    worst_root = 0.0
    worst_end = 0.0
    for alpha in np.linspace(0.55, 0.95, 9):
        alpha = float(alpha)
        R = math.sqrt(1.0 - 4.0 * (1.0 - alpha) ** 2)
        lo, hi = (1.0 - R) ** 2, (1.0 + R) ** 2
        t0_closed = 4.0 * (alpha - alpha * alpha)
        t_num = numeric_g_maximizer(alpha, lo, hi)
        worst_root = max(worst_root, abs(t_num - t0_closed))
        worst_end = max(worst_end, abs(g_eval(alpha, lo)), abs(g_eval(alpha, hi)))
        assert 4.0 * (alpha - 1.0) ** 3 / (2.0 - alpha) < 0
    elapsed = time.perf_counter() - t0
    ok = worst_root <= 1e-10 and worst_end <= 1e-12 and elapsed < 1.0
    _report(5, ok, elapsed, 1,
            f"max |maximizer - root| = {worst_root:.2e}, max |g(endpoint)| = {worst_end:.2e}")
    assert worst_root <= 1e-10
    assert worst_end <= 1e-12
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 6. eccentric-cap growth and the pinned spike-width band
# ---------------------------------------------------------------------------

def test_criterion_06_part1_growth():
    t0 = time.perf_counter()
    certs = [cp_lower_bound(d, 0.75, 2.0) for d in (20, 40, 80, 160)]
    vals = [c.value for c in certs]
    slope_160 = certs[-1].log_value / 160.0
    target = 0.25 * math.log(2.0 / math.sqrt(3.0)) / 2.0
    bands = [c.intermediates["q1_sqrt_d"] for c in certs]
    elapsed = time.perf_counter() - t0
    ok = (
        vals == sorted(vals)
        and abs(slope_160 - target) <= 0.25 * target
        and all(2.6 <= b <= 7.0 for b in bands)
        and elapsed < 120.0
    )
    _report(6, ok, elapsed, 120,
            f"slope(160) = {slope_160:.6f} vs {target:.6f}, Q1*sqrt(d) in "
            f"[{min(bands):.3f}, {max(bands):.3f}]")
    assert vals == sorted(vals)
    assert abs(slope_160 - target) <= 0.25 * target
    assert all(2.6 <= b <= 7.0 for b in bands)  # pinned pre-build oracle band
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 7. 1D weak type on randomized cases + grid-oracle agreement
# ---------------------------------------------------------------------------

def test_criterion_07_weak_type_1d():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1202)
    grid = GridConfig(points=768)
    worst_q = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 51))
        beta = float(rng.uniform(-2.0, d - 0.05))
        m = WeightedLineMeasure(d, beta)
        f = random_profile(rng, max_pieces=12)
        lams = default_lambda_grid(m, f, 32)
        q = weak_type_quotient_1d(m, f, lams, grid)
        worst_q = max(worst_q, q)
        assert q <= 2.0 + 1e-6, (d, beta, f)
    worst_rel = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 51))
        beta = float(rng.uniform(-2.0, d - 0.05))
        m = WeightedLineMeasure(d, beta)
        f = random_profile(rng, max_pieces=12)
        x = float(rng.uniform(0.05, 4.0))
        exact = uncentered_max(m, f, x)
        ora = oracle_uncentered_max(m, f, x, n_grid=10_000)
        worst_rel = max(worst_rel, abs(exact - ora) / ora)
        # the grid can only undershoot, up to rounding noise in its averages
        assert exact >= ora * (1.0 - 1e-9)
    elapsed = time.perf_counter() - t0
    ok = worst_q <= 2.0 + 1e-6 and worst_rel <= 1e-6 and elapsed < 60.0
    _report(7, ok, elapsed, 60,
            f"max quotient = {worst_q:.4f} (<= 2), max oracle rel dev = {worst_rel:.2e}")
    assert worst_rel <= 1e-6
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 8. shift condition vs the certified constants
# ---------------------------------------------------------------------------

def test_criterion_08_shift_condition():
    t0 = time.perf_counter()
    rs = (np.arange(256) + 1.0) / 256.0
    small = rs <= 1.0 / math.sqrt(5.0)
    quad = QuadratureConfig(tol=1e-7)
    worst_frac = 0.0
    for d in range(4, 65):
        for alpha in sorted({1.0, 2.0, d / 4, d / 2}):
            if alpha > d / 2:
                continue
            m = PowerLawMeasure(d, alpha)
            ratios = shift_condition_ratios(m, rs, quad)
            c_prime = 4.0 * 6.0 ** (alpha / 2.0)
            c_small = 2.0 * 6.0 ** (alpha / 2.0)
            assert ratios.max() <= c_prime, (d, alpha)
            assert ratios[small].max() <= c_small, (d, alpha)
            worst_frac = max(worst_frac, ratios.max() / c_prime)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _report(8, ok, elapsed, 120, f"max sup/bound fraction = {worst_frac:.3f}")
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 9. pointwise domination through the 1D operator
# ---------------------------------------------------------------------------

def test_criterion_09_pointwise_domination():
    t0 = time.perf_counter()
    rng = np.random.default_rng(907)
    cfg = MaximalConfig(radii_per_decade=128, refine_rounds=2,
                        quad=QuadratureConfig(tol=1e-7))
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 25))
        alpha = float(rng.uniform(0.05, d / 2))
        m = PowerLawMeasure(d, alpha)
        f = random_profile(rng, max_pieces=6)
        c = float(rng.uniform(0.05, 3.0))
        C = 4.0 * 6.0 ** (alpha / 2.0)
        lhs = centered_max_radial(m, f, c, cfg)
        rhs = (C + 1.0) * uncentered_max(WeightedLineMeasure(d, alpha), f, c)
        assert lhs <= rhs * (1.0 + 1e-6), (d, alpha, c)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _report(9, ok, elapsed, 120, f"max lhs/rhs = {worst:.4f} (<= 1)")
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 10. weak-type sandwich in R^d
# ---------------------------------------------------------------------------

def test_criterion_10_weak_type_sandwich():
    t0 = time.perf_counter()
    cfg = MaximalConfig(
        radii_per_decade=48,
        min_radii=32,
        refine_rounds=2,
        quad=QuadratureConfig(tol=1e-6),
        level_grid=GridConfig(points=128, bisect_rel_tol=1e-6, max_bisect=30),
    )
    details = []
    for d in (4, 8, 12):
        for alpha in sorted({1.0, d / 4}):
            m = PowerLawMeasure(d, alpha)
            lower = delta_lower_bound(d, alpha).value
            upper = 2.0 * (4.0 * 6.0 ** (alpha / 2.0) + 1.0)
            best = 0.0
            for r0 in (0.02, 0.004):
                f = RadialProfile.indicator(r0)
                lam_star = math.exp(
                    log_ball_centered(m, r0).log
                    - log_ball_offcenter(m, BallSpec(1.0, 1.0 + r0)).log
                )
                lams = np.geomspace(0.25 * lam_star, 1.02 * lam_star, 10)
                q = weak_type_quotient_radial(m, f, lams, cfg)
                assert q <= upper * (1.0 + 1e-9), (d, alpha, r0, q)
                best = max(best, q)
            details.append(f"d={d},a={alpha:g}: q/lower={best / lower:.3f}")
            assert best >= 0.95 * lower, (d, alpha, best, lower)
    for d in (4, 8, 12):
        m = PowerLawMeasure(d, 0.0)
        f = RadialProfile((0.0, 0.4, 1.1, 2.0), (3.0, 1.0, 0.25))
        q = weak_type_quotient_radial(m, f, np.geomspace(0.03, 3.2, 8), cfg)
        assert q <= 4.0, (d, q)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600.0
    _report(10, ok, elapsed, 600, "; ".join(details))
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 11. Monte Carlo cross-check of the slice quadrature
# ---------------------------------------------------------------------------

def test_criterion_11_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    cfg = MaximalConfig(quad=QuadratureConfig(tol=1e-9))
    worst_sigma = 0.0
    for k in range(20):
        d = int(rng.integers(2, 4))
        beta = float(rng.uniform(0.0, 0.4 * d))
        m = PowerLawMeasure(d, beta)
        f = random_profile(rng, max_pieces=5, allow_zero_pieces=False)
        t_hi = f.breakpoints[-1]
        c = float(rng.uniform(0.3, 1.5)) * t_hi
        R = float(rng.uniform(0.3, 0.9)) * max(c, 0.3 * t_hi)
        est, se = mc_ball_average(m, f, c, R, n_samples=10 ** 6, seed=1000 + k)
        exact = ball_average(m, f, c, R, cfg)
        # rounding floor covers the zero-variance case (profile constant
        # over the ball makes the ratio estimator exact)
        tol = 3.0 * se + 1e-12 * max(1.0, abs(exact))
        sigmas = abs(est - exact) / max(se, 1e-15)
        if se > 1e-13:
            worst_sigma = max(worst_sigma, sigmas)
        assert abs(est - exact) <= tol, (d, beta, c, R, est, exact, se)
    elapsed = time.perf_counter() - t0
    ok = worst_sigma <= 3.0 and elapsed < 300.0
    _report(11, ok, elapsed, 300, f"worst deviation = {worst_sigma:.2f} sigma")
    assert elapsed < 300.0
