import math

import numpy as np
import pytest

from radialmax.maximal1d import (
    GridConfig,
    RadialProfile,
    WeightedLineMeasure,
    default_lambda_grid,
    gamma0_interval,
    level_set_measure,
    level_sets,
    profile_l1_norm,
    uncentered_max,
    uncentered_max_grid,
    weak_type_quotient_1d,
)

from conftest import oracle_uncentered_max, random_line_measure, random_profile

LEB = WeightedLineMeasure(1, 0.0)
CHI01 = RadialProfile.indicator(1.0)


# ---------------------------------------------------------------------------
# measure and profile plumbing
# ---------------------------------------------------------------------------

def test_gamma0_interval_examples():
    assert gamma0_interval(LEB, 0.0, 1.0) == 1.0
    assert gamma0_interval(WeightedLineMeasure(3, 0.0), 0.0, 1.0) == pytest.approx(1 / 3)
    assert gamma0_interval(LEB, 0.7, 0.7) == 0.0
    with pytest.raises(ValueError):
        gamma0_interval(LEB, 1.0, 0.5)


def test_gamma0_positive_and_matches_quadrature(rng):
    for _ in range(20):
        m = random_line_measure(rng, d_max=20)
        a, b = np.sort(rng.uniform(0.01, 4.0, 2))
        if b - a < 1e-6:
            continue
        got = gamma0_interval(m, a, b)
        ts = np.linspace(a, b, 20001)
        ys = ts ** (m.d - 1 - m.beta)
        ref = float((0.5 * (ys[:-1] + ys[1:]) * np.diff(ts)).sum())
        assert got > 0
        assert got == pytest.approx(ref, rel=1e-6)


def test_profile_validation():
    with pytest.raises(ValueError):
        RadialProfile((0.0, 1.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        RadialProfile((1.0, 0.5), (1.0,))
    with pytest.raises(ValueError):
        RadialProfile((0.0, 1.0), (-1.0,))


def test_profile_from_text_and_value_at():
    f = RadialProfile.from_text("0.5 0\n1.5 2.0\n# comment\n2.0 0.25\n")
    assert f.breakpoints == (0.0, 0.5, 1.5, 2.0)
    assert f.values == (0.0, 2.0, 0.25)
    assert f.value_at(0.3) == 0.0
    assert f.value_at(1.0) == 2.0
    assert f.value_at(1.5) == 2.0   # pieces are right-closed
    assert f.value_at(1.7) == 0.25
    assert f.value_at(5.0) == 0.0
    assert f.positive_support() == (0.5, 2.0)


# ---------------------------------------------------------------------------
# uncentered maximal function, exact evaluator
# ---------------------------------------------------------------------------

def test_constant_profile_attained():
    f = RadialProfile((0.0, 2.0), (3.0,))
    for m in (LEB, WeightedLineMeasure(6, 2.0)):
        assert uncentered_max(m, f, 1.0) == pytest.approx(3.0, rel=1e-14)


def test_indicator_on_lebesgue_halfline():
    # M chi_(0,1] = min(1, 1/x): exact on a dense grid
    xs = np.linspace(0.01, 6.0, 200)
    got = uncentered_max_grid(LEB, CHI01, xs)
    assert np.abs(got - np.minimum(1.0, 1.0 / xs)).max() < 1e-14
    assert uncentered_max(LEB, CHI01, 2.0) == pytest.approx(0.5, abs=1e-15)


def test_lower_bounded_by_left_average(rng):
    for _ in range(25):
        m = random_line_measure(rng, d_max=25)
        f = random_profile(rng)
        x = float(rng.uniform(0.05, 4.0))
        from radialmax.maximal1d import _ProfileMass
        pm = _ProfileMass(m, f)
        left_avg = float(pm.mass(np.array([x]))[0] / pm.gamma(np.array([x]))[0])
        assert uncentered_max(m, f, x) >= left_avg - 1e-12


def test_one_homogeneity(rng):
    for _ in range(15):
        m = random_line_measure(rng, d_max=25)
        f = random_profile(rng)
        x = float(rng.uniform(0.05, 4.0))
        c = float(rng.uniform(0.1, 9.0))
        assert uncentered_max(m, f.scaled(c), x) == pytest.approx(
            c * uncentered_max(m, f, x), rel=1e-12
        )


def test_monotone_in_profile(rng):
    for _ in range(15):
        m = random_line_measure(rng, d_max=25)
        f = random_profile(rng)
        bump = rng.uniform(0.0, 1.0, len(f.values))
        g = RadialProfile(f.breakpoints, tuple(np.asarray(f.values) + bump))
        xs = rng.uniform(0.05, 4.0, 8)
        Mf = uncentered_max_grid(m, f, xs)
        Mg = uncentered_max_grid(m, g, xs)
        assert np.all(Mf <= Mg + 1e-12)


def test_dominates_profile_at_interior_points(rng):
    for _ in range(25):
        m = random_line_measure(rng, d_max=25)
        f = random_profile(rng)
        bp = np.asarray(f.breakpoints)
        mids = 0.5 * (bp[:-1] + bp[1:])
        mids = mids[mids > 0]
        Mv = uncentered_max_grid(m, f, mids)
        fv = f.value_at(mids)
        assert np.all(Mv >= fv - 1e-12)


def test_matches_grid_oracle(rng):
    for _ in range(12):
        m = random_line_measure(rng, d_max=30)
        f = random_profile(rng)
        x = float(rng.uniform(0.05, 4.0))
        exact = uncentered_max(m, f, x)
        ora = oracle_uncentered_max(m, f, x, n_grid=4000)
        assert exact == pytest.approx(ora, rel=1e-6)
        # the grid can only undershoot, up to rounding noise in its averages
        assert exact >= ora * (1.0 - 1e-9)


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------

def test_level_set_indicator_halfline():
    # M = min(1, 1/x): {M > 1/2} = (0, 2), lebesgue measure 2
    res = level_set_measure(LEB, CHI01, 0.5)
    assert res.measure == pytest.approx(2.0, abs=1e-7)
    assert res.resolution_error < 1e-6
    assert 0.5 * res.measure <= 2.0 * profile_l1_norm(LEB, CHI01) + 1e-9


def test_level_set_above_max_is_empty():
    res = level_set_measure(LEB, CHI01, 1.5)
    assert res.measure == 0.0


def test_level_set_window_grows_like_one_over_lambda():
    r1 = level_set_measure(LEB, CHI01, 1e-2)
    r2 = level_set_measure(LEB, CHI01, 1e-3)
    assert r2.window > 5 * r1.window
    # measure itself behaves like ||f||/lambda at small lambda
    assert r2.measure == pytest.approx(1e3, rel=0.05)


def test_level_set_domain():
    with pytest.raises(ValueError):
        level_set_measure(LEB, CHI01, 0.0)
    with pytest.raises(ValueError):
        level_sets(LEB, CHI01, [])
    with pytest.raises(ValueError):
        weak_type_quotient_1d(LEB, RadialProfile((0.0, 1.0), (0.0,)), [1.0])


# ---------------------------------------------------------------------------
# weak type (1,1)
# ---------------------------------------------------------------------------

def test_weak_type_indicator_is_one():
    lam = default_lambda_grid(LEB, CHI01, 32)
    q = weak_type_quotient_1d(LEB, CHI01, lam)
    assert q <= 1.0 + 1e-6
    assert q >= 0.98


def test_weak_type_random_cases_below_two(rng):
    for _ in range(25):
        m = random_line_measure(rng, d_max=30)
        f = random_profile(rng)
        lam = default_lambda_grid(m, f, 16)
        q = weak_type_quotient_1d(m, f, lam, GridConfig(points=512))
        assert q <= 2.0 + 1e-6


def test_max_at_breakpoint_sees_both_sides():
    # at a breakpoint the corner limit is max of the adjacent piece values,
    # reached by the one-sided candidate intervals
    f = RadialProfile((0.0, 1.0, 2.0), (1.0, 3.0))
    m = WeightedLineMeasure(4, 1.0)
    assert uncentered_max(m, f, 1.0) >= 3.0 - 1e-12
    f2 = RadialProfile((0.0, 1.0, 2.0), (3.0, 1.0))
    assert uncentered_max(m, f2, 1.0) >= 3.0 - 1e-12


def test_level_set_runs_at_both_window_ends():
    # a synthetic maximal function above the level on (0, 0.3), (0.6, 0.9)
    # and (1.1, T]: one run starts at the first grid point, one is interior
    # and one ends at the window edge T
    m = WeightedLineMeasure(3, 0.0)
    max_fn = lambda ts: np.where((ts < 0.3) | ((ts > 0.6) & (ts < 0.9)) | (ts > 1.1),
                                 2.0, 0.5)
    res = level_sets(m, CHI01, [1.0], max_fn=max_fn)[0]
    T = res.window
    assert T > 1.1
    gamma = lambda t: t ** 3 / 3.0
    want = gamma(0.3) + gamma(0.9) - gamma(0.6) + gamma(T) - gamma(1.1)
    assert res.resolution_error < 1e-8
    assert res.measure == pytest.approx(want, rel=1e-9)


def test_level_sets_multi_matches_single(rng):
    # the shared-grid multi-level path must agree with one-level calls
    for _ in range(5):
        m = random_line_measure(rng, d_max=20)
        f = random_profile(rng, max_pieces=6)
        lams = default_lambda_grid(m, f, 6)
        multi = level_sets(m, f, lams)
        for lam, r in zip(lams, multi):
            single = level_set_measure(m, f, float(lam))
            assert r.measure == pytest.approx(
                single.measure, rel=1e-6, abs=single.resolution_error + 1e-12
            )


def test_weak_type_far_small_piece_approaches_two():
    # a narrow bump far from the origin engulfs from both sides before the
    # boundary at 0 interferes, so the quotient climbs toward 2
    f = RadialProfile((50.0, 50.01), (1.0,))
    lam = np.geomspace(1e-4, 1.0, 48)
    q = weak_type_quotient_1d(LEB, f, lam)
    assert 1.9 <= q <= 2.0 + 1e-6
