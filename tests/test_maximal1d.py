import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radialmax.maximal1d import (
    GridConfig,
    RadialProfile,
    default_lambda_grid,
    gamma0_interval,
    level_sets,
    profile_l1_norm,
    uncentered_max,
    uncentered_max_grid,
    weak_type_quotient_1d,
)
from radialmax.maximal1d import (
    _grid_level_logs,
    _level_extents,
    _level_set_logs,
    _log_uncentered_max_grid,
)
import radialmax.maximal1d as maximal1d
from radialmax.measure import PowerLawMeasure

from conftest import (mp_log_uncentered_max, oracle_uncentered_max, profile_mass,
                      random_line_measure, random_profile, rect_log_uncentered_max)

LEB = PowerLawMeasure(1, 0.0)
# _grid_level_logs's grid points and crossing tolerance in these tests
POINTS, TOL = 1024, 1e-10
CHI01 = RadialProfile.indicator(1.0)


# ---------------------------------------------------------------------------
# measure and profile plumbing
# ---------------------------------------------------------------------------

def test_gamma0_interval_examples():
    assert gamma0_interval(LEB, 0.0, 1.0) == 1.0
    assert gamma0_interval(PowerLawMeasure(3, 0.0), 0.0, 1.0) == pytest.approx(1 / 3)
    assert gamma0_interval(LEB, 0.7, 0.7) == 0.0
    with pytest.raises(ValueError):
        gamma0_interval(LEB, 1.0, 0.5)
    for a, b in ((math.nan, 1.0), (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(ValueError):
            gamma0_interval(LEB, a, b)


def test_line_measure_is_the_power_law_record():
    # gamma0 is the radial trace of mu: one record, validated in one place
    # (tests/test_measure.py); the old name is the same class object
    assert maximal1d.WeightedLineMeasure is PowerLawMeasure


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_line_measure_rejects_non_finite_beta(beta):
    # callers that still build the measure under its old name get the
    # record's own finite-beta message, not a "beta < d" one
    with pytest.raises(ValueError) as exc:
        maximal1d.WeightedLineMeasure(4, beta)
    assert str(exc.value) == f"beta must be finite: got beta = {beta} at d = 4"


@pytest.mark.parametrize("d,beta", [(1, 0.0), (3, 0.0), (12, 11.5)])
def test_thin_intervals_keep_their_digits_vs_mpmath(d, beta):
    mp = pytest.importorskip("mpmath").mp
    m = PowerLawMeasure(d, beta)
    p = m.homogeneity
    with mp.workdps(50):
        for b in (0.7, 2.5, 37.0):
            for k in (4, 8, 11):
                a = b * (1.0 - 10.0 ** -k)
                ref = (mp.mpf(b) ** p - mp.mpf(a) ** p) / p
                for got in (gamma0_interval(m, a, b),
                            profile_l1_norm(m, RadialProfile((a, b), (1.0,)))):
                    assert abs(got / ref - 1) <= 1e-13, (b, k)


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
    for bp, vals in (((0.0, 1.0), (math.nan,)), ((0.0, math.nan), (1.0,)),
                     ((0.0, math.inf), (1.0,)), ((0.0, 1.0), (math.inf,))):
        with pytest.raises(ValueError):
            RadialProfile(bp, vals)


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
    for m in (LEB, PowerLawMeasure(6, 2.0)):
        assert uncentered_max(m, f, 1.0) == pytest.approx(3.0, rel=1e-14)


def test_indicator_on_lebesgue_halfline():
    # M chi_(0,1] = min(1, 1/x): exact on a dense grid
    xs = np.linspace(0.01, 6.0, 200)
    got = uncentered_max_grid(LEB, CHI01, xs)
    assert np.abs(got - np.minimum(1.0, 1.0 / xs)).max() < 1e-14
    assert uncentered_max(LEB, CHI01, 2.0) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
def test_uncentered_max_rejects_points_outside_the_half_line(x):
    # the error names the first bad point, d and beta
    pattern = rf"got x = {x!r} at d = 3, beta = 1\.0"
    with pytest.raises(ValueError, match=pattern):
        uncentered_max(PowerLawMeasure(3, 1.0), CHI01, x)
    with pytest.raises(ValueError, match=pattern):
        uncentered_max_grid(PowerLawMeasure(3, 1.0), CHI01, [1.0, x, 0.0])


def test_uncentered_max_of_no_points_is_empty():
    f = RadialProfile((0.0, 0.5, 1.0, 2.0), (1.0, 3.0, 2.0))
    for xs in ([], np.empty(0)):
        got = uncentered_max_grid(PowerLawMeasure(3, 1.0), f, xs)
        assert isinstance(got, np.ndarray) and got.shape == (0,)


def test_lower_bounded_by_left_average(rng):
    for _ in range(25):
        m = random_line_measure(rng, d_max=25)
        f = random_profile(rng)
        x = float(rng.uniform(0.05, 4.0))
        p = m.d - m.beta
        left_avg = float(profile_mass(p, f, x) / (x ** p / p))
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_dominates_the_piece_value_beside_each_breakpoint(seed):
    # M^u f >= v_k on the open piece (t_{k-1}, t_k), right up to its ends:
    # centres t_k (1 -+ 10^-U(1, 10)) on each side of every t_k > 0, on
    # profiles with zero pieces and t_0 > 0, at d up to 400
    rng = np.random.default_rng(seed)
    m = random_line_measure(rng, d_max=400)
    f = random_profile(rng)
    bp = np.asarray(f.breakpoints)
    t = bp[bp > 0]
    eps = 10.0 ** -rng.uniform(1.0, 10.0, (2, len(t)))
    xs = np.concatenate([t * (1.0 - eps[0]), t * (1.0 + eps[1])])
    # x lies in the piece k = (t_{k-1}, t_k], with v = 0 below t_0 and past t_n
    k = np.searchsorted(bp, xs, side="left")
    inside = ~np.isin(xs, bp)
    v = np.concatenate([[0.0], f.values, [0.0]])[k]
    got = uncentered_max_grid(m, f, xs)
    assert np.all((got >= v * (1.0 - 1e-12))[inside]), (m, f, xs, got, v)


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


def test_hull_oracle_matches_its_brute_force(rng):
    # the grid oracle searches the convex hulls of its endpoint grids; on
    # small grids every pair is searched too, which the hulls can only
    # undercut, and then by rounding in the turn test alone
    for _ in range(40):
        m = random_line_measure(rng)
        f = random_profile(rng)
        x = float(rng.uniform(0.05, 4.0))
        hull = oracle_uncentered_max(m, f, x, n_grid=800)
        brute = oracle_uncentered_max(m, f, x, n_grid=800, reduce=False)
        assert brute * (1.0 - 1e-15) <= hull <= brute, (m, f, x)


def _flat_step_profile(rng):
    """Step profile with values from a pool of three, zero among them, so
    that equal neighbours (flat steps) and zero interior pieces are common;
    the support starts above 0 one time in two."""
    n = int(rng.integers(2, 13))
    ends = np.sort(rng.choice(np.arange(1, 301), n, replace=False)) / 100.0
    start = float(rng.uniform(0.0, ends[0])) if rng.random() < 0.5 else 0.0
    vals = rng.choice([0.0, *rng.uniform(0.05, 4.0, 2)], n)
    vals[rng.integers(n)] = rng.uniform(0.05, 4.0)
    return RadialProfile((start, *ends), tuple(vals))


def test_uncentered_max_matches_the_mpmath_pair_search():
    # M^u keeps a left end only where f steps up and a right end only where
    # it steps down, ties kept; the oracle searches every pair of ends, so
    # flat steps, zero pieces and x on a breakpoint or outside the support
    # check the pruning rule and its ties
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(2302)
    flat = zero = 0
    for case in range(40):
        f = _flat_step_profile(rng)
        bp, v = np.asarray(f.breakpoints), np.asarray(f.values)
        flat += int(np.count_nonzero(v[1:] == v[:-1]))
        zero += int(np.count_nonzero(v[1:-1] == 0.0))
        d = 400 if case % 8 == 0 else int(rng.integers(1, 401))
        m = PowerLawMeasure(d, float(rng.uniform(-2.0, d - 0.05)))
        below = bp[0] if bp[0] > 0 else bp[1]
        xs = np.array([rng.choice(bp[bp > 0]), rng.uniform(0.05, 1.0) * below,
                       bp[-1] * rng.uniform(1.0, 3.0), *rng.uniform(0.01, bp[-1], 2)])
        got = _log_uncentered_max_grid(m, f, xs)
        want = [mp_log_uncentered_max(m.d, m.beta, f.breakpoints, f.values, x) for x in xs]
        assert got == pytest.approx(want, abs=1e-12, rel=0), (m, f, xs)
    assert flat > 0 and zero > 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 400),
    p_frac=st.floats(0.0, 1.0),
    start=st.sampled_from([0.0, 0.0, 0.3, 1e-3]),
    widths=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=10),
    values=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 4.0)),
                    min_size=10, max_size=10),
    picks=st.lists(st.tuples(st.sampled_from(["bp", "past", "inside", "below"]),
                             st.floats(0.0, 1.0)), min_size=1, max_size=12),
)
def test_pruned_pairs_match_the_rectangular_enumeration(d, p_frac, start, widths, values, picks):
    # the live pairs alone give the same bits as every step-up left end
    # against every step-down right end, for unsorted points on
    # breakpoints, past t_n, inside the support and below t_0, over tied
    # and zero pieces and p = d - beta from 0.05 to d + 2
    p = 0.05 + p_frac * (d + 1.95)
    m = PowerLawMeasure(d, d - p)
    vals = values[:len(widths)]
    assume(max(vals) > 0)
    bp = start + np.cumsum([0.0, *widths])
    f = RadialProfile(tuple(bp), tuple(vals))
    pos = bp[bp > 0]
    t_n = bp[-1]
    xs = []
    for kind, u in picks:
        if kind == "bp":
            xs.append(pos[int(u * (len(pos) - 1))])
        elif kind == "past":
            xs.append(t_n * (1.0 + 3.0 * u))
        elif kind == "inside":
            xs.append(max(u * t_n, 1e-9))
        elif bp[0] > 0:
            xs.append(max(u * bp[0], 1e-9))
    xs = np.array(xs)
    got = _log_uncentered_max_grid(m, f, xs)
    want = rect_log_uncentered_max(m, f, xs)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()], (m, f, xs)


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------

def test_level_set_indicator_halfline():
    # M = min(1, 1/x): {M > 1/2} = (0, 2), lebesgue measure 2
    res = level_sets(LEB, CHI01, [0.5])[0]
    assert res.measure == pytest.approx(2.0, abs=1e-7)
    assert 0.5 * res.measure <= 2.0 * profile_l1_norm(LEB, CHI01) + 1e-9


def test_level_set_above_max_is_empty():
    res = level_sets(LEB, CHI01, [1.5])[0]
    assert res.measure == 0.0


def test_level_set_window_grows_like_one_over_lambda():
    r1, r2 = level_sets(LEB, CHI01, [1e-2, 1e-3])
    assert r2.window > 5 * r1.window
    # measure itself behaves like ||f||/lambda at small lambda
    assert r2.measure == pytest.approx(1e3, rel=0.05)


def test_level_set_domain():
    # each error names the first bad level, d and beta
    with pytest.raises(ValueError, match=r"got lambda = 0\.0 at d = 1, beta = 0\.0"):
        level_sets(LEB, CHI01, [0.0])
    with pytest.raises(ValueError, match=r"need at least one lambda at d = 1, beta = 0\.0"):
        level_sets(LEB, CHI01, [])
    with pytest.raises(ValueError, match=r"need at least one lambda at d = 1, beta = 0\.0"):
        weak_type_quotient_1d(LEB, CHI01, np.empty(0))
    for bad in (math.nan, math.inf, -1.0):
        pattern = rf"got lambda = {bad!r} at d = 1, beta = 0\.0"
        with pytest.raises(ValueError, match=pattern):
            level_sets(LEB, CHI01, [0.5, bad, 0.0])
        with pytest.raises(ValueError, match=pattern):
            weak_type_quotient_1d(LEB, CHI01, [0.5, bad, 0.0])
    with pytest.raises(ValueError, match="a.e. zero"):
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


@pytest.mark.parametrize("vmax", [5e-324, 1e-321, 1.7e308])
def test_default_lambda_grid_outside_the_double_range_names_its_inputs(vmax):
    # 1e-3 max f underflows to 0 (or 1.1 max f overflows): a ValueError
    # naming max f, d and beta, not numpy's bare geomspace error
    m = PowerLawMeasure(3, 0.5)
    with pytest.raises(ValueError) as exc:
        default_lambda_grid(m, RadialProfile((0.0, 1.0, 2.0), (0.0, vmax)))
    msg = str(exc.value)
    assert f"max f = {vmax!r}" in msg and "d = 3" in msg and "beta = 0.5" in msg


def test_max_at_breakpoint_sees_both_sides():
    # at a breakpoint the corner limit is max of the adjacent piece values,
    # reached by the one-sided candidate intervals
    f = RadialProfile((0.0, 1.0, 2.0), (1.0, 3.0))
    m = PowerLawMeasure(4, 1.0)
    assert uncentered_max(m, f, 1.0) >= 3.0 - 1e-12
    f2 = RadialProfile((0.0, 1.0, 2.0), (3.0, 1.0))
    assert uncentered_max(m, f2, 1.0) >= 3.0 - 1e-12


def _step_max_fn(ts, high=2.0, low=0.5):
    """A synthetic maximal function, above the level 1 on (0, 0.3), (0.6, 0.9)
    and (1.1, T]."""
    return np.where((ts < 0.3) | ((ts > 0.6) & (ts < 0.9)) | (ts > 1.1), high, low)


def _log_step_max_fn(ts, high=2.0, low=0.5):
    """ln of _step_max_fn, the form _grid_level_logs takes with ln lam = 0."""
    return np.log(_step_max_fn(ts, high, low))


def test_level_set_runs_at_both_window_ends():
    # one run starts at the first grid point, one is interior and one ends
    # at the window edge T
    m = PowerLawMeasure(3, 0.0)
    log_mu, log_width = _grid_level_logs(m, CHI01, [0.0], POINTS, TOL, _log_step_max_fn, 1.0)
    # the window: gamma0(1, T) = ||f||_1 / lam
    T = (1.0 + 3.0 * profile_l1_norm(m, CHI01)) ** (1.0 / 3.0)
    assert T > 1.1
    gamma = lambda t: t ** 3 / 3.0
    want = gamma(0.3) + gamma(0.9) - gamma(0.6) + gamma(T) - gamma(1.1)
    assert math.exp(log_width[0]) < 1e-8
    assert math.exp(log_mu[0]) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("high,low", [(2.0, 0.5), (1e3, 0.999)])
def test_crossing_search_on_a_step_is_within_one_round_of_bisection(high, low):
    # on a step max_fn the secant carries no information (at 2 and 0.5 it
    # is the midpoint in ln t; at 1e3 and 0.999 plain regula falsi would
    # crawl from the low side).  Chandrupatla's rule rejects interpolation
    # there and bisects, so the search stays within one round of lockstep
    # bisection of the same brackets, which the grid call (the first max_fn
    # call) fixes, although the minmax radius allows four rounds of slack
    calls = []

    def counted(ts):
        calls.append(np.array(ts))
        return _log_step_max_fn(ts, high, low)

    _grid_level_logs(PowerLawMeasure(3, 0.0), CHI01, [0.0], POINTS, TOL, counted, 1.0)
    xs = calls[0]
    k = np.flatnonzero(np.diff(_step_max_fn(xs) > 1.0)) + 1
    assert len(k) == 4
    bl, bh = xs[k - 1], xs[k]
    hi_above = _step_max_fn(bh) > 1.0
    bisect_rounds = 0
    while np.any(active := bh - bl > TOL * bh):
        mid = 0.5 * (bl + bh)
        move_hi = (_step_max_fn(mid) > 1.0) == hi_above
        bh = np.where(active & move_hi, mid, bh)
        bl = np.where(active & ~move_hi, mid, bl)
        bisect_rounds += 1
    assert len(calls) - 1 <= bisect_rounds + 1, (len(calls) - 1, bisect_rounds)


def test_crossing_search_emits_no_runtime_warning():
    # the step max_fn gives zero-width brackets at 0 and at T, whose ends
    # have ln 0 - ln 0 and no finite g
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        log_mu, log_width = _grid_level_logs(PowerLawMeasure(3, 0.0), CHI01, [0.0],
                                             POINTS, TOL, _log_step_max_fn, 1.0)
    assert np.isfinite(log_mu).all() and np.isfinite(log_width).all()


def _counted(max_fn):
    """max_fn, wrapped, and the list of the point arrays it was called on."""
    calls = []

    def counted(ts):
        calls.append(np.array(ts))
        return max_fn(ts)

    return counted, calls


@pytest.mark.parametrize("tol", [TOL, 1e-6])
def test_crossing_search_on_a_level_hit_exactly_never_stalls(tol):
    # ln M = -3 ln t meets the level 1 exactly at the grid point t = 1, the
    # profile's breakpoint, where g = 0.0 counts as below the level; regula
    # falsi then returns that bracket end on every round.  No trial point
    # lands on an end, and the bracket closes in two rounds
    counted, calls = _counted(lambda ts: -3.0 * np.log(ts))
    log_mu, _ = _grid_level_logs(PowerLawMeasure(3, 0.0), CHI01, [0.0], POINTS, tol, counted, 1.0)
    assert 1.0 in calls[0]
    assert all(0.0 < c.min() and c.max() < 1.0 for c in calls[1:])
    assert len(calls) - 1 <= 2, [len(c) for c in calls]
    # {M > 1} = (0, 1) and gamma0(0, 1) = 1/3
    assert math.exp(log_mu[0]) == pytest.approx(1.0 / 3.0, rel=3.0 * tol)


@pytest.mark.parametrize("d,beta", [(2, 1.0), (12, 3.0), (50, 2.0)])
@pytest.mark.parametrize("tol", [TOL, 1e-6])
def test_crossing_search_closes_a_power_law_in_four_rounds(d, beta, tol):
    # ln M = p (2 - |ln 2t|), p = d - beta, is a power law on each side of
    # t = 1/2, so g = ln M - ln lam is linear in u = ln t and the
    # interpolation lands on each root; each of the 5 levels crosses once
    # entering, at e^-s / 2, and once leaving, at e^s / 2, and every
    # crossing closes within 4 rounds after the grid call.  The levels stay
    # above f = 1, so that M > f on f's piece, and window_scale = e^(3p)
    # puts the window T past the last crossing
    m = PowerLawMeasure(d, beta)
    p = m.homogeneity
    s = np.array([0.2, 0.5, 0.9, 1.3, 1.7])
    counted, calls = _counted(lambda ts: p * (2.0 - np.abs(np.log(2.0 * ts))))
    log_mu, _ = _grid_level_logs(m, CHI01, p * (2.0 - s), POINTS, tol, counted, math.exp(3.0 * p))
    assert len(calls) - 1 <= 4, [len(c) for c in calls]
    want = (np.exp(p * s) - np.exp(-p * s)) * 0.5 ** p / p
    assert np.exp(log_mu) == pytest.approx(want, rel=(p + 1.0) * tol)


@pytest.mark.parametrize("tol", [1e-8, 1e-11])
def test_crossing_search_on_the_steep_side_of_a_breakpoint(tol):
    # past the breakpoint 0.4, ln M falls from ln 0.75 like sqrt(ln(t/0.4)),
    # as M_mu f does beside a jump of f (d = 12, values (1, 0.5, 0.1)), so g
    # is poorly modelled in u = ln t next to that end.  Each level crosses
    # once, leaving, at t_c = 0.4 exp((ln(0.75/lam)/0.3)^2), and every
    # crossing closes within 12 rounds after the grid call at both tols
    m = PowerLawMeasure(12, 1.0)
    p = m.homogeneity
    f = RadialProfile((0.0, 0.4, 1.1), (1.0, 0.5))

    def log_max(ts):
        with np.errstate(invalid="ignore"):
            fall = np.maximum(math.log(0.75) - 0.3 * np.sqrt(np.log(ts / 0.4)), math.log(0.5))
        return np.where(ts <= 0.4, 0.0, fall)

    lams = np.array([0.6, 0.7, 0.74])
    counted, calls = _counted(log_max)
    log_mu, _ = _grid_level_logs(m, f, np.log(lams), 128, tol, counted, 1.0)
    assert len(calls) - 1 <= 12, [len(c) for c in calls]
    t_c = 0.4 * np.exp((np.log(0.75 / lams) / 0.3) ** 2)
    assert np.exp(log_mu) == pytest.approx(t_c ** p / p, rel=(p + 1.0) * tol)


def test_level_sets_multi_matches_single(rng):
    # the shared-grid multi-level path must agree with one-level calls
    for _ in range(5):
        m = random_line_measure(rng, d_max=20)
        f = random_profile(rng, max_pieces=6)
        lams = default_lambda_grid(m, f, 6)
        multi = level_sets(m, f, lams)
        for lam, r in zip(lams, multi):
            single = level_sets(m, f, [lam])[0]
            assert r.measure == pytest.approx(single.measure, rel=1e-6, abs=1e-12)


def test_weak_type_far_small_piece_approaches_two():
    # a narrow bump far from the origin engulfs from both sides before the
    # boundary at 0 interferes, so the quotient climbs toward 2
    f = RadialProfile((50.0, 50.01), (1.0,))
    lam = np.geomspace(1e-4, 1.0, 48)
    q = weak_type_quotient_1d(LEB, f, lam)
    assert 1.9 <= q <= 2.0 + 1e-6


# ---------------------------------------------------------------------------
# exact level sets and the log-space evaluator
# ---------------------------------------------------------------------------

def _components(m, f, lam):
    """Sorted, merged components (a, b) of {M^u f > lam} from the extents."""
    log_l, log_r = _level_extents(m, f, [lam])
    out = []
    for a, b in sorted(zip(np.exp(log_l[0]), np.exp(log_r[0]))):
        if b <= a:
            continue
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def test_uncentered_max_high_dimension_reproducers():
    m = PowerLawMeasure(400, 0.0)
    assert uncentered_max(m, RadialProfile.indicator(10.0), 5.0) == pytest.approx(1.0, rel=1e-14)
    got = uncentered_max(m, RadialProfile.indicator(5.0), 10.0)
    assert got > 0
    assert math.log(got) == pytest.approx(-400 * math.log(2.0), rel=1e-13)


@pytest.mark.parametrize("d", [1, 3, 50, 400])
def test_level_set_indicator_closed_form(d):
    # M^u chi_(0,r] = 1 on (0, r] and G(r)/G(x) beyond, so
    # {M^u > lam} = (0, r lam^(-1/p)) with gamma0-measure r^p/(p lam)
    for beta in (0.0, -1.5, d - 0.5):
        m = PowerLawMeasure(d, beta)
        p = d - beta
        for r in (0.01, 1.0, 7.3, 100.0):
            f = RadialProfile.indicator(r)
            lams = np.array([1e-3, 0.1, 0.5, 0.99, 1.0, 1.5])
            log_mu = _level_set_logs(m, f, lams)
            log_l, log_r = _level_extents(m, f, lams)
            log_sup = np.where(log_r > log_l, log_r, -np.inf).max(axis=1)
            for lam, lmu, lsup in zip(lams, log_mu, log_sup):
                if lam >= 1.0:
                    assert lmu == -np.inf and lsup == -np.inf
                    continue
                want = p * math.log(r) - math.log(p) - math.log(lam)
                assert lmu == pytest.approx(want, rel=1e-13, abs=1e-13)
                assert lsup == pytest.approx(math.log(r) - math.log(lam) / p, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("values,log_l,log_r,log_mu", [
    # right side, past the anchor: from t_0 = 0 the excess is positive to
    # t_1 and then flat on the piece of value lam, but the weight of (0, 1]
    # at t_2 = 10 underflows, so e(t_0, t_2) reads 0 with slack 0 beyond t_1
    # and R_0 falls back to t_2.  The level set is (0, 10).
    ((2.0, 1.0), ("-inf", "-inf", "0x1.26bb1bbb55516p+1"),
     ("0x1.26bb1bbb55516p+1", "0x0.0p+0", "0x1.26bb1bbb55516p+1"), 400 * math.log(10.0)),
    # left side, mirrored: the piece of value lam lies left of t_1, so L_1
    # falls back to t_1 itself.  Past the anchor the left fallback cannot
    # run: with v_j >= lam, e(t_{j-1}, t_i) adds a term >= 0 to e(t_j, t_i)
    # in the same summation order, so it is positive too.  The level set
    # is (0, 10 2^(1/400)).
    ((1.0, 2.0), ("-inf", "0x0.0p+0", "-inf"),
     ("0x1.26f3e414ec4cdp+1", "0x1.26f3e414ec4cdp+1", "0x1.26bb1bbb55516p+1"),
     400 * math.log(10.0) + math.log(2.0)),
], ids=["right", "left"])
def test_level_extents_rounding_fallback(values, log_l, log_r, log_mu):
    # d = 400, beta = 0, lam = 1 on (0, 1, 10): slack lam - v = 0 beside a
    # positive excess, where the extent ends at a breakpoint; pinned bits
    m = PowerLawMeasure(400, 0.0)
    f = RadialProfile((0.0, 1.0, 10.0), values)
    got_l, got_r = _level_extents(m, f, [1.0])
    assert [x.hex() for x in got_l[0].tolist()] == list(log_l)
    assert [x.hex() for x in got_r[0].tolist()] == list(log_r)
    got = float(_level_set_logs(m, f, [1.0])[0])
    assert got == pytest.approx(log_mu - math.log(400.0), rel=1e-15)


def test_level_set_component_reaching_near_zero():
    # chi_(t0,t1]: {M^u > lam} = (L, R) with G(L) = G(t1) - D/lam and
    # G(R) = G(t0) + D/lam, D = G(t1) - G(t0), so its measure is D(2/lam - 1).
    # At p = 0.0996 and L = 1.7e-16, G(L) is 0.27 of G(R) = 25.7, which a
    # component measure taken from the gap R - L would round away
    m = PowerLawMeasure(1, 0.9004)
    p = m.homogeneity
    G = lambda t: t ** p / p
    t0, t1, L = 1.0, 100.0, 1.7e-16
    D = G(t1) - G(t0)
    lam = D / (G(t1) - G(L))
    f = RadialProfile((t0, t1), (1.0,))
    assert _components(m, f, lam)[0][0] == pytest.approx(L, rel=1e-9)
    assert level_sets(m, f, [lam])[0].measure == pytest.approx(D * (2.0 / lam - 1.0), rel=1e-12)


def test_level_set_thin_gap_is_outside():
    # M^u < lam on (1.76691, 1.77586): a dense grid counts this gap as inside
    m = PowerLawMeasure(32, 28.19151225922798)
    f = RadialProfile(
        (0.0, 0.08135929330977176, 0.774267147199887, 1.3457420516571306,
         1.7071336029656967, 2.444080093717913, 2.730126225219491),
        (1.327879547107895, 0.13424940483159375, 0.938953691772398,
         2.0870442269042853, 0.1252506352635362, 3.8457465081114295))
    lam = 1.7137030659247512
    comps = _components(m, f, lam)
    gaps = [(a[1], b[0]) for a, b in zip(comps, comps[1:])]
    assert any(g0 < 1.76691 and 1.77586 < g1 for g0, g1 in gaps), comps
    assert np.all(uncentered_max_grid(m, f, np.linspace(1.76691, 1.77586, 50)) <= lam)
    # every component end is a crossing of M^u through lam, to 1e-9 relative
    step = 1.0 + 1e-9
    for a, b in comps:
        assert np.all(uncentered_max_grid(m, f, [a * step, b / step]) > lam)
        assert np.all(uncentered_max_grid(m, f, [a / step, b * step]) <= lam)
    p = m.homogeneity
    exact = sum((b ** p - a ** p) / p for a, b in comps)
    res = level_sets(m, f, [lam])[0]
    assert res.measure == pytest.approx(exact, rel=1e-12)
    assert res.measure == pytest.approx(16.9046, abs=1e-4)
    # the level is one of 32: the multi-level call gives the same set
    lams = default_lambda_grid(m, f, 32)
    assert lam in lams
    multi = level_sets(m, f, lams)
    assert multi[int(np.flatnonzero(lams == lam)[0])].measure == res.measure
    assert weak_type_quotient_1d(m, f, lams) == pytest.approx(1.45991, abs=1e-5)


def test_level_set_sampled_inside_and_gaps(rng):
    # M^u > lam at sampled points of every component and <= lam in every gap
    for _ in range(40):
        m = random_line_measure(rng, d_max=30)
        f = random_profile(rng)
        for lam in default_lambda_grid(m, f, 6):
            comps = _components(m, f, lam)
            edges = [0.0] + [e for c in comps for e in c]
            edges.append(2.0 * max(edges[-1], f.breakpoints[-1]) + 1.0)
            for k, (a, b) in enumerate(zip(edges, edges[1:])):
                if b <= a:
                    continue
                xs = np.linspace(a, b, 22)[1:-1]
                mu = uncentered_max_grid(m, f, xs)
                if k % 2:
                    assert np.all(mu > lam), (m, f, lam, a, b)
                else:
                    assert np.all(mu <= lam), (m, f, lam, a, b)


def _scaled_and_dilated(m, f, lams, c, s):
    """ln measures of E_lam(f), E_{c lam}(c f) and E_lam(f(./s)) - p ln s."""
    base = _level_set_logs(m, f, lams)
    homog = _level_set_logs(m, f.scaled(c), c * lams)
    g = RadialProfile(tuple(s * t for t in f.breakpoints), f.values)
    dil = _level_set_logs(m, g, lams)
    return base, homog, dil - m.homogeneity * math.log(s)


def _assert_same_logs(a, b):
    finite = np.isfinite(a)
    assert np.array_equal(finite, np.isfinite(b))
    assert np.allclose(a[finite], b[finite], rtol=1e-9, atol=1e-9)


def test_level_set_homogeneity_and_dilation(rng):
    for _ in range(30):
        m = random_line_measure(rng, d_max=50)
        f = random_profile(rng)
        lams = default_lambda_grid(m, f, 12)
        base, homog, dil = _scaled_and_dilated(
            m, f, lams, float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.1, 10.0)))
        _assert_same_logs(base, homog)
        _assert_same_logs(base, dil)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 60),
    beta_frac=st.floats(0.0, 0.99),
    widths=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=8),
    start=st.floats(0.0, 1.0),
    values=st.lists(st.floats(0.0, 4.0), min_size=8, max_size=8),
    c=st.floats(0.1, 10.0),
    s=st.floats(0.1, 10.0),
)
def test_level_set_homogeneity_and_dilation_property(d, beta_frac, widths, start, values, c, s):
    m = PowerLawMeasure(d, -2.0 + beta_frac * (d + 2.0))
    vals = values[:len(widths)]
    assume(max(vals) > 0)
    f = RadialProfile((start, *(start + np.cumsum(widths))), tuple(vals))
    if 1e-3 * max(vals) == 0:
        # a subnormal max f: the lowest level underflows, and the grid says so
        with pytest.raises(ValueError, match="leave the double range"):
            default_lambda_grid(m, f, 8)
        return
    lams = default_lambda_grid(m, f, 8)
    base, homog, dil = _scaled_and_dilated(m, f, lams, c, s)
    _assert_same_logs(base, homog)
    _assert_same_logs(base, dil)


def test_grid_path_matches_exact_on_decreasing_profiles(rng):
    # on decreasing profiles each level set is one interval (0, x*), which
    # the grid path resolves by bisection
    for _ in range(8):
        m = random_line_measure(rng, d_max=20)
        n = int(rng.integers(1, 6))
        bp = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 3.0, n))])
        f = RadialProfile(tuple(bp), tuple(np.sort(rng.uniform(0.1, 4.0, n))[::-1]))
        lams = default_lambda_grid(m, f, 8)
        grid, _ = _grid_level_logs(m, f, np.log(lams), POINTS, TOL,
                                   lambda ts: _log_uncentered_max_grid(m, f, ts), 1.0)
        exact = level_sets(m, f, lams)
        for g, e in zip(grid, exact):
            assert math.exp(g) == pytest.approx(e.measure, rel=1e-6)


@pytest.mark.parametrize("d,lams", [(400, [0.5, 0.1]), (300, [1e-9])])
def test_grid_path_matches_exact_past_the_double_range(d, lams):
    # gamma0 of these level sets is past the double range at d = 400; at
    # d = 300 and lam = 1e-9 the window T is about 10.7, which the linear
    # window (t_n^p + p ||f||_1 / lam)^(1/p) could not form
    m = PowerLawMeasure(d, 0.0)
    f = RadialProfile.indicator(10.0)
    grid, _ = _grid_level_logs(m, f, np.log(lams), POINTS, TOL,
                               lambda ts: _log_uncentered_max_grid(m, f, ts), 1.0)
    exact = _level_set_logs(m, f, lams)
    assert np.all(np.isfinite(grid))
    assert grid == pytest.approx(exact, abs=1e-6)
    if d == 400:
        # {M^u f > 1/2} = (0, R) with G(R) = 2 G(10): ln G(R) = ln 2 + 400 ln 10 - ln 400
        assert grid[0] == pytest.approx(915.7357198, abs=1e-6)


def test_linear_values_past_the_double_range_raise_typed_errors():
    # at d = 400, gamma0(0, 10) = 10^400/400: each linear value names its
    # inputs, while the log-space quotient stays finite
    m = PowerLawMeasure(400, 0.0)
    f = RadialProfile.indicator(10.0)
    for call, where in ((lambda: level_sets(m, f, [0.5]), "0.5"),
                        (lambda: gamma0_interval(m, 0.0, 10.0), "gamma0(0.0, 10.0)"),
                        (lambda: profile_l1_norm(m, f), "(0.0, 10.0)")):
        with pytest.raises(OverflowError) as exc:
            call()
        msg = str(exc.value)
        assert "d = 400" in msg and "beta = 0.0" in msg and where in msg
        assert "in logs" in msg
    assert math.isfinite(weak_type_quotient_1d(m, f, [0.5]))
