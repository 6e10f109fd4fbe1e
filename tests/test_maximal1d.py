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

from conftest import oracle_uncentered_max, profile_mass, random_line_measure, random_profile

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


@pytest.mark.parametrize("x", [0.0, math.nan, math.inf])
def test_uncentered_max_rejects_points_outside_the_half_line(x):
    with pytest.raises(ValueError):
        uncentered_max(PowerLawMeasure(3, 1.0), CHI01, x)
    with pytest.raises(ValueError):
        uncentered_max_grid(PowerLawMeasure(3, 1.0), CHI01, [1.0, x])


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
    with pytest.raises(ValueError):
        level_sets(LEB, CHI01, [0.0])
    with pytest.raises(ValueError):
        level_sets(LEB, CHI01, [])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            level_sets(LEB, CHI01, [0.5, bad])
        with pytest.raises(ValueError):
            weak_type_quotient_1d(LEB, CHI01, [0.5, bad])
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
    # crawl from the low side); the minmax radius bounds the search by one
    # round more than lockstep bisection of the same brackets, which the
    # grid call (the first max_fn call) fixes
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
            log_mu, log_sup = _level_set_logs(m, f, lams)
            for lam, lmu, lsup in zip(lams, log_mu, log_sup):
                if lam >= 1.0:
                    assert lmu == -np.inf and lsup == -np.inf
                    continue
                want = p * math.log(r) - math.log(p) - math.log(lam)
                assert lmu == pytest.approx(want, rel=1e-13, abs=1e-13)
                assert lsup == pytest.approx(math.log(r) - math.log(lam) / p, rel=1e-13, abs=1e-13)


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
    base, _ = _level_set_logs(m, f, lams)
    homog, _ = _level_set_logs(m, f.scaled(c), c * lams)
    g = RadialProfile(tuple(s * t for t in f.breakpoints), f.values)
    dil, _ = _level_set_logs(m, g, lams)
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
    exact, _ = _level_set_logs(m, f, lams)
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
