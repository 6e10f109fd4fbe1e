import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialmax.measure import (
    BallSpec,
    PowerLawMeasure,
    QuadratureConfig,
    QuadratureError,
    _batched_shell_logs,
    _crossing_angles,
    log_ball_centered,
    log_ball_offcenter,
    log_ball_offcenter_shell,
    log_ball_offcenter_unit_closed,
    log_intersection_with_centered,
    shift_condition_ratio,
    shift_condition_ratios,
)
from radialmax import measure, quadrature
from radialmax.maximal1d import GridConfig, RadialProfile
from radialmax.radial import MaximalConfig, weak_type_quotient_radial
from radialmax.specfun import log_gamma, log_sphere_area

from conftest import log_unit_ball_volume, mp_log_sphere_integrals

TIGHT = QuadratureConfig(tol=1e-11)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_power_law_rejects_non_finite_measure():
    # one record serves the ball measures and the 1D operator alike; each
    # message names d and beta and has no comma (the CLI writes it into a CSV cell)
    for d, beta, rule in ((3, 3.0, "beta must be < d"), (3, 5.0, "beta must be < d"),
                          (0, 0.0, "dimension d must be"), (-2, 1.0, "dimension d must be"),
                          (2.5, 0.0, "dimension d must be"), (math.nan, 0.0, "dimension d must be"),
                          (math.inf, 0.0, "dimension d must be")):
        with pytest.raises(ValueError) as exc:
            PowerLawMeasure(d, beta)
        msg = str(exc.value)
        assert msg.startswith(rule) and "," not in msg, msg
        assert f"d = {d}" in msg and f"beta = {beta}" in msg, msg
    PowerLawMeasure(3, 2.9999)  # fine
    PowerLawMeasure(3, -4.0)    # radially increasing weight is allowed


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_power_law_rejects_non_finite_beta(beta):
    # NaN fails "beta < d" too, but that would name the wrong condition
    with pytest.raises(ValueError) as exc:
        PowerLawMeasure(4, beta)
    assert str(exc.value) == f"beta must be finite: got beta = {beta} at d = 4"


def test_ball_spec_validation():
    with pytest.raises(ValueError):
        BallSpec(-0.1, 1.0)
    with pytest.raises(ValueError):
        BallSpec(1.0, 0.0)
    for c, R in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            BallSpec(c, R)


# ---------------------------------------------------------------------------
# centered balls
# ---------------------------------------------------------------------------

def test_centered_unit_disk_area():
    assert log_ball_centered(PowerLawMeasure(2, 0.0), 1.0).log == pytest.approx(
        math.log(math.pi), abs=1e-13
    )


def test_centered_d3_beta1():
    # omega_2 / 2 = 4 pi / 2 = 2 pi
    assert log_ball_centered(PowerLawMeasure(3, 1.0), 1.0).log == pytest.approx(
        math.log(2 * math.pi), abs=1e-13
    )


@pytest.mark.parametrize("d,beta", [(2, 0.0), (5, 2.2), (40, 17.0), (150, 75.0)])
def test_centered_homogeneity_exact(d, beta):
    m = PowerLawMeasure(d, beta)
    diff = log_ball_centered(m, 2.0).log - log_ball_centered(m, 1.0).log
    assert diff == pytest.approx((d - beta) * math.log(2.0), abs=1e-12)


def test_centered_domain():
    for rho in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            log_ball_centered(PowerLawMeasure(3, 1.0), rho)


# ---------------------------------------------------------------------------
# cap angles: where a shell sphere crosses the ball boundary (the ray splits)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("R", [0.2, 0.6, 0.9])
def test_cap_angle_tangency(R):
    # the sphere through the tangent points meets the boundary on the tangent
    # ray: cos(theta) = sqrt(1 - R^2), the widest angle; in phi it is pi/2
    c = np.array([1.0])
    rR = np.array([R])
    r = np.sqrt(1.0 - rR * rR)
    got = _crossing_angles(c, rR, r, tangent=False)[0][0]
    assert math.cos(got) == pytest.approx(r[0], abs=1e-13)
    assert _crossing_angles(c, rR, r, tangent=True)[0][0] == pytest.approx(math.pi / 2, abs=1e-7)
    near_ends = np.array([1.0 - R + 1e-6, 1.0 + R - 1e-6])
    assert np.all(got >= _crossing_angles(np.ones(2), np.full(2, R), near_ends, False)[0])


def test_cap_angle_degenerate_endpoints():
    c, R = np.ones(2), np.full(2, 0.3)
    ends = np.array([1.0 - 0.3 + 1e-13, 1.0 + 0.3 - 1e-13])
    assert np.abs(_crossing_angles(c, R, ends, tangent=False)[0]).max() < 1e-6
    assert np.abs(_crossing_angles(c, R, ends, tangent=True)[0]).max() < 1e-6
    # ball around the origin: the sphere at its nearest boundary point
    # crosses on the ray pointing away from the center
    inner = _crossing_angles(np.array([0.2]), np.array([0.5]), np.array([0.3 + 1e-13]), False)[0]
    assert inner[0] == pytest.approx(math.pi, abs=1e-5)


def test_cap_angle_domain():
    # spheres outside (|c - R|, c + R) never cross: an empty split at 0
    c, R = np.full(5, 1.0), np.full(5, 0.3)
    r = np.array([0.05, 0.7, 1.3, 1.5, math.inf])
    for tangent in (False, True):
        assert np.all(_crossing_angles(c, R, r, tangent)[0] == 0.0)
    assert _crossing_angles(np.array([0.0]), np.array([0.5]), np.array([0.3]), False)[0][0] == 0.0


# ---------------------------------------------------------------------------
# cap areas: a thin shell around the sphere |y| = s, divided by its width,
# is the area of that sphere inside the ball (beta = 0)
# ---------------------------------------------------------------------------

def _log_thin_shell_area(d, c, R, s, h):
    lo, hi = s - h, s + h
    shell = log_ball_offcenter_shell(PowerLawMeasure(d, 0.0), BallSpec(c, R), lo, hi, TIGHT)
    return shell.log - math.log(hi - lo)


@pytest.mark.parametrize("d", [2, 3, 5, 40])
def test_cap_area_full_sphere(d):
    # B(0.5 e1, 3) holds every sphere of radius up to 2.5 whole, so the
    # shell measure is the full annulus omega_{d-1} (b^d - a^d) / d
    s, h = 1.7, 1e-3
    got = log_ball_offcenter_shell(PowerLawMeasure(d, 0.0), BallSpec(0.5, 3.0), s, s + h, TIGHT)
    want = log_sphere_area(d) + d * math.log(s) + math.log(math.expm1(d * math.log1p(h / s)) / d)
    assert got.log == pytest.approx(want, abs=1e-11)


def test_cap_area_hemisphere_d3():
    # R^2 = c^2 + s^2 puts the cap edge at theta = pi/2 on the unit sphere;
    # the cap area 2 pi t^2 - pi t (c^2 + t^2 - R^2) / c is cubic in t, so
    # the shell over [1 - h, 1 + h] is exactly 2h * 2 pi (1 - h^2 / 6)
    c, R, h = 1.0, math.sqrt(2.0), 1e-3
    theta = _crossing_angles(np.array([c]), np.array([R]), np.array([1.0]), False)[0][0]
    assert theta == pytest.approx(math.pi / 2, abs=1e-15)
    assert _log_thin_shell_area(3, c, R, 1.0, h) == pytest.approx(
        math.log(2 * math.pi) + math.log1p(-h * h / 6), abs=1e-12
    )


def test_cap_area_d2_is_arc_length():
    # omega_0 = 2 turns the cap into the arc of length 2 s phi; R is chosen
    # so that the circle of radius s crosses B(e1, R) at the angle phi
    for s, phi in [(0.7, 0.4), (2.0, 1.3)]:
        R = math.sqrt(1.0 + s * s - 2.0 * s * math.cos(phi))
        assert _log_thin_shell_area(2, 1.0, R, s, 1e-5) == pytest.approx(
            math.log(2 * s * phi), abs=1e-9
        )


@pytest.mark.parametrize("d", [3, 8, 25])
def test_cap_area_two_sided_sandwich(d):
    # (omega_{d-2}/(d-1)) (s sin phi)^{d-1} <= area <= same / sqrt(1-R^2),
    # valid wherever cos(phi) >= sqrt(1-R^2), which holds for c=1 > R
    R = 0.55
    root = math.sqrt(1.0 - R * R)
    for s in np.linspace(1 - R + 1e-3, 1 + R - 1e-3, 25):
        phi = _crossing_angles(np.array([1.0]), np.array([R]), np.array([s]), False)[0][0]
        assert math.cos(phi) >= root - 1e-12
        area = _log_thin_shell_area(d, 1.0, R, s, 1e-6 * s)
        lower = log_sphere_area(d - 1) - math.log(d - 1) + (d - 1) * math.log(s * math.sin(phi))
        assert lower <= area <= lower - math.log(root)


# ---------------------------------------------------------------------------
# off-center balls: quadrature vs exact references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,c,R", [(2, 0.7, 0.5), (3, 2.0, 1.3), (7, 0.2, 1.0), (4, 0.0, 2.0)])
def test_offcenter_lebesgue_translation_invariance(d, c, R):
    m = PowerLawMeasure(d, 0.0)
    got = log_ball_offcenter(m, BallSpec(c, R), TIGHT).log
    assert got == pytest.approx(log_unit_ball_volume(d) + d * math.log(R), abs=1e-9)


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("d,beta,c,R", [(6, 2.5, 1.0, 0.8), (17, 8.0, 0.4, 1.1)])
def test_offcenter_scaling_homogeneity(d, beta, c, R, lam):
    m = PowerLawMeasure(d, beta)
    v1 = log_ball_offcenter(m, BallSpec(c, R), TIGHT).log
    v2 = log_ball_offcenter(m, BallSpec(lam * c, lam * R), TIGHT).log
    assert v2 - v1 == pytest.approx((d - beta) * math.log(lam), abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 11, 60, 200])
def test_offcenter_quadrature_vs_closed_form(d):
    for beta in (0.0, 0.5, d / 4, d / 2):
        m = PowerLawMeasure(d, beta)
        q = log_ball_offcenter(m, BallSpec(1.0, 1.0)).log
        closed = log_ball_offcenter_unit_closed(m).log
        assert abs(q - closed) <= 1e-8


@pytest.mark.parametrize("d", [400, 800])
def test_offcenter_c_equals_R_high_dimension_vs_closed_form(d):
    # mu(B(R e1, R)) = R^(d - beta) mu(B(e1, 1)): the ray integrand is a spike
    # of relative width ~ 1/sqrt(d) that bisection alone has to resolve
    for beta in (-5.0, 0.0, d / 2, d - 1.0):
        m = PowerLawMeasure(d, beta)
        closed = log_ball_offcenter_unit_closed(m).log
        for R in (1e-3, 0.7, 5.0):
            got = log_ball_offcenter(m, BallSpec(R, R)).log
            assert abs(got - (closed + (d - beta) * math.log(R))) <= 1e-8, (beta, R)


def test_offcenter_unit_closed_lebesgue_is_unit_ball():
    for d in (2, 3, 9, 120):
        m = PowerLawMeasure(d, 0.0)
        assert log_ball_offcenter_unit_closed(m).log == pytest.approx(
            log_unit_ball_volume(d), abs=1e-11
        )


def test_offcenter_monotone_toward_origin():
    # beta > 0: shifting a ball toward the origin can only grow its measure
    m = PowerLawMeasure(9, 4.0)
    cs = np.linspace(0.0, 3.0, 13)
    vals = [log_ball_offcenter(m, BallSpec(float(c), 0.7) if c > 0 else BallSpec(0.0, 0.7)).log
            for c in cs]
    assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_intersection_scaling_homogeneity(lam):
    m = PowerLawMeasure(8, 3.0)
    v1 = log_intersection_with_centered(m, BallSpec(1.0, 0.6), 0.8, TIGHT).log
    v2 = log_intersection_with_centered(
        m, BallSpec(lam, lam * 0.6), lam * 0.8, TIGHT
    ).log
    assert v2 - v1 == pytest.approx((m.d - m.beta) * math.log(lam), abs=1e-10)


def test_shell_additivity():
    m = PowerLawMeasure(7, 2.0)
    b = BallSpec(1.0, 0.4)
    full = log_ball_offcenter(m, b, TIGHT).log
    inner = log_intersection_with_centered(m, b, 1.1, TIGHT).log
    outer = log_ball_offcenter_shell(m, b, 1.1, math.inf, TIGHT).log
    assert np.logaddexp(inner, outer) == pytest.approx(full, abs=1e-8)


def test_intersection_containment_and_disjoint():
    m = PowerLawMeasure(7, 2.0)
    b = BallSpec(1.0, 0.4)
    full = log_ball_offcenter(m, b).log
    assert log_intersection_with_centered(m, b, 2.0).log == pytest.approx(full, abs=1e-10)
    assert log_intersection_with_centered(m, b, 0.55).log == float("-inf")
    # an inverted or NaN shell has no measure to return
    for r_in, r_out in ((1.2, 0.8), (-1.0, 1.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError):
            log_ball_offcenter_shell(m, b, r_in, r_out)
    with pytest.raises(ValueError):
        log_intersection_with_centered(m, b, math.nan)


# ---------------------------------------------------------------------------
# shift condition
# ---------------------------------------------------------------------------

def test_shift_ratio_lebesgue_is_one():
    m = PowerLawMeasure(5, 0.0)
    rs = np.linspace(0.05, 1.0, 20)
    ratios = shift_condition_ratios(m, rs)
    assert np.abs(ratios - 1.0).max() < 1e-8


def test_shift_ratio_r1_is_centered_vs_touching():
    m = PowerLawMeasure(12, 3.0)
    got = shift_condition_ratio(m, 1.0)
    want = math.exp(
        log_ball_centered(m, 1.0).log - log_ball_offcenter_unit_closed(m).log
    )
    assert got == pytest.approx(want, rel=1e-9)
    # pinned by the pre-build oracle run
    assert 2.70 <= got <= 2.73


def test_shift_ratio_domain():
    m = PowerLawMeasure(5, 1.0)
    with pytest.raises(ValueError):
        shift_condition_ratio(m, 0.0)
    with pytest.raises(ValueError):
        shift_condition_ratio(m, 1.5)
    with pytest.raises(ValueError):
        shift_condition_ratio(m, math.nan)
    with pytest.raises(ValueError):
        shift_condition_ratios(m, [0.5, math.nan])


def test_shift_sup_small_case_within_certified_bound():
    m = PowerLawMeasure(6, 2.0)
    rs = (np.arange(64) + 1.0) / 64
    ratios = shift_condition_ratios(m, rs)
    assert ratios.max() <= 4.0 * 6.0 ** 1.0
    small = rs <= 1.0 / math.sqrt(5.0)
    assert ratios[small].max() <= 2.0 * 6.0 ** 1.0


# ---------------------------------------------------------------------------
# quadrature failure surfaces, never silently degrades
# ---------------------------------------------------------------------------

def _starve(monkeypatch, panels, rounds):
    """Shrink the quadrature's per-integral budgets."""
    monkeypatch.setattr(quadrature, "_MAX_PANELS", panels)
    monkeypatch.setattr(quadrature, "_MAX_ROUNDS", rounds)


def test_quadrature_budget_error_carries_estimate(monkeypatch):
    m = PowerLawMeasure(40, 10.0)
    _starve(monkeypatch, 4, 6)
    starved = QuadratureConfig(tol=1e-13)
    with pytest.raises(QuadratureError) as exc:
        log_ball_offcenter(m, BallSpec(1.0, 1.0), starved)
    assert exc.value.achieved > 0
    assert exc.value.segment == 0   # the one ball, passed through the constructor
    # the message names the failing ball, not an internal segment index
    msg = str(exc.value)
    for part in ("d=40", "beta=10.0", "c=1.0", "R=1.0", "r_in=0.0", "r_out=inf"):
        assert part in msg
    assert "segment" not in msg


def test_quadrature_round_budget_error_names_the_failing_integral():
    # x^-0.999 on (0, 1] halves its error per bisection round far too slowly
    # to reach tol within _MAX_ROUNDS; its neighbours -x^2 converge at once
    def log_f(seg, s):
        return np.where(seg == 1, -0.999 * np.log(s), -s * s)[:, None, :]

    with pytest.raises(QuadratureError) as exc:
        quadrature.log_integrate_batch(log_f, np.arange(3), np.zeros(3), np.ones(3), 3,
                                       QuadratureConfig(tol=1e-8))
    assert str(exc.value).startswith("quadrature did not converge within the round budget")
    assert exc.value.segment == 1
    assert exc.value.achieved > 1e-8


@pytest.mark.parametrize("field, value", [
    ("tol", math.nan), ("tol", 0.0), ("tol", -1.0), ("tol", 1.0), ("tol", math.inf),
])
def test_quadrature_config_rejects_bad_settings(field, value):
    # a NaN tol would switch the error test off; tol <= 0 has no log
    with pytest.raises(ValueError) as exc:
        QuadratureConfig(**{field: value})
    assert f"QuadratureConfig.{field}" in str(exc.value) and repr(value) in str(exc.value)


def test_gauss_kronrod_rule_exactness():
    """Kronrod-21 is exact through degree 31, its Gauss-10 column through 19."""
    seg, lo, hi = np.zeros(1, dtype=int), np.zeros(1), np.ones(1)
    for k in range(32):
        low, high = quadrature._panel_logs(lambda _, s: k * np.log(s)[:, None], seg, lo, hi)
        assert abs(math.exp(high[0, 0]) * (k + 1) - 1.0) < 1e-14, k
        gauss_err = abs(math.exp(low[0, 0]) * (k + 1) - 1.0)
        if k <= 19:
            assert gauss_err < 1e-14, k
        elif k == 20:
            assert gauss_err > 1e-14
    x, w = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(quadrature._X01[1::2], (x + 1.0) / 2.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(quadrature._W01_G, w / 2.0, rtol=0, atol=1e-15)


def _count_sin_power_batch():
    """Shapes of every log_f call on a fixed batch of sin^m spikes, and the result."""
    ms = np.array([2.0, 40.0, 400.0, 4000.0])
    calls = []

    def log_f(seg, s):
        calls.append((np.shape(seg), np.shape(s)))
        with np.errstate(divide="ignore"):
            return (ms[seg] * np.log(np.sin(s)))[:, None]

    n = len(ms)
    out, _ = quadrature.log_integrate_batch(log_f, np.arange(n), np.zeros(n), np.full(n, math.pi),
                                            n, QuadratureConfig(tol=1e-10))
    return ms, calls, out[:, 0]


def test_quadrature_work_counts_repeat_and_panel_shapes():
    ms, calls, out = _count_sin_power_batch()
    assert _count_sin_power_batch()[1] == calls  # identical work on a rerun
    assert len(calls) >= 2  # the initial rule plus at least one refinement
    for seg_shape, s_shape in calls:  # every call is a panel call
        assert len(s_shape) == 2 and s_shape[1] == 21 and seg_shape == (s_shape[0], 1)
    # int_0^pi sin^m = sqrt(pi) Gamma((m+1)/2) / Gamma(m/2+1)
    exact = [0.5 * math.log(math.pi) + log_gamma(0.5 * (m + 1)) - log_gamma(0.5 * m + 1)
             for m in ms]
    np.testing.assert_allclose(out, exact, rtol=0, atol=1e-9)


def test_quadrature_spike_between_kronrod_nodes_vs_mpmath():
    """sin^m on one initial panel whose spike sits midway between two nodes.

    Bisection alone must find the spike: for every pair of adjacent nodes of
    the 21-point rule the panel is placed so that pi/2 lies halfway between
    them, and the spike (width ~ 1/sqrt(m)) is far narrower than the gap.
    """
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 30
    x = quadrature._X01
    mids = 0.5 * (x[:-1] + x[1:])
    half = 0.5 * math.pi
    # panel [0, hi] when the midpoint is right of centre, [lo, pi] otherwise
    lo = np.where(mids >= 0.5, 0.0, (half - math.pi * mids) / (1.0 - mids))
    hi = np.where(mids >= 0.5, half / mids, math.pi)
    ms = np.repeat([400.0, 4000.0, 20000.0], len(mids))
    lo, hi = np.tile(lo, 3), np.tile(hi, 3)
    assert np.abs(lo + (hi - lo) * np.tile(mids, 3) - half).max() < 1e-15
    out, _ = quadrature.log_integrate_batch(lambda seg, s: (ms[seg] * np.log(np.sin(s)))[:, None],
                                            np.arange(len(ms)), lo, hi, len(ms))
    for got, m, a, b in zip(out[:, 0], ms, lo, hi):
        want = mp.log(mp.quad(lambda t: mp.sin(t) ** int(m), [a, mp.pi / 2, b]))
        assert abs(got - float(want)) <= 1e-9, (m, a, b)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_flat_panel_layout_changes_no_bit(seed):
    """An integral's value and error are the same bits however the flat
    panel list orders the other integrals' panels around its own.

    sin^m integrals, m in {2, 40, 400, 4000}, over [0, pi] cut into 1 to 4
    random first panels each, plus one integral given no panel, which reads
    -inf; laid out in blocks, interleaved with each integral's own panels
    in order, and each integral alone.
    """
    rng = np.random.default_rng(seed)
    ms = rng.permutation([2.0, 40.0, 400.0, 4000.0, 0.0])
    counts = np.where(ms > 0, rng.integers(1, 5, len(ms)), 0)
    edges = [np.concatenate([[0.0], np.sort(rng.uniform(0.0, math.pi, k - 1)), [math.pi]])
             for k in counts if k]
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    at = np.repeat(np.arange(len(ms)), counts)

    def run(at, lo, hi, ids):
        def log_f(seg, s):
            return (ms[ids][seg] * np.log(np.sin(s)))[:, None]
        out, err = quadrature.log_integrate_batch(log_f, at, lo, hi, len(ids))
        return [(v.hex(), e.hex()) for v, e in zip(out[:, 0], err[:, 0])]

    blocks = run(at, lo, hi, np.arange(len(ms)))
    # a random order of the panels' integral labels; each integral's panels
    # take its places in that order, so they stay in their own order
    place = np.argsort(rng.permutation(at), kind="stable")
    mixed = [np.empty_like(x) for x in (at, lo, hi)]
    for x, y in zip(mixed, (at, lo, hi)):
        x[place] = y
    assert run(*mixed, np.arange(len(ms))) == blocks
    alone = [run(np.zeros(k, dtype=int), lo[at == i], hi[at == i], [i])[0]
             for i, k in enumerate(counts)]
    assert alone == blocks
    empty = (-math.inf).hex()
    assert [v for v, k in zip(blocks, counts) if k == 0] == [(empty, empty)]
    assert all(v != empty for (v, _), k in zip(blocks, counts) if k)


def _with_work(run):
    """(run(), work): (integrand calls, nodes) of each log_integrate_batch run
    of the ball measures, in order."""
    work = []
    integrate = measure.log_integrate_batch

    def counting(log_f, at, lo, hi, n, cfg, **kw):
        def log_f_counted(seg, s):
            work[-1][0] += 1
            work[-1][1] += np.size(s)
            return log_f(seg, s)
        work.append([0, 0])
        return integrate(log_f_counted, at, lo, hi, n, cfg, **kw)

    measure.log_integrate_batch = counting
    try:
        return run(), [tuple(w) for w in work]
    finally:
        measure.log_integrate_batch = integrate


def _ball_sweep_work():
    """Per-run work of the ball-sweep balls at scale 1."""
    return _with_work(lambda: [log_ball_offcenter(PowerLawMeasure(d, beta), BallSpec(1.0, 1.0))
                               for d in (2, 52, 102, 152, 197)
                               for beta in (-2.0, 0.0, 0.5, d / 4, d / 2)])[1]


def test_ball_quadrature_work_repeats_and_stays_bounded():
    work = _ball_sweep_work()
    assert _ball_sweep_work() == work  # identical work on a rerun
    calls, nodes = map(sum, zip(*work))
    # 25 balls, one integral each, starting from panels no wider than the
    # sin^(d-2) spike, 2.5/sqrt(d) at tol 1e-8; measured 3,486 nodes in 33
    # calls (from the crossing pieces alone: 5,061 nodes in 103 calls)
    assert nodes <= 3486 and calls <= 33


@pytest.mark.parametrize("d", [12, 50, 197, 400])
def test_lone_ball_through_origin_takes_at_most_two_rounds(d):
    """B(c e1, c) starts from panels no wider than its spike, _spike_width(d, tol).

    From the one piece [0, pi/2] alone, bisection spends a round per halving
    before it reaches the spike: 2 to 6 rounds over these d and beta.
    """
    for beta in (-5.0, 0.0, d / 2, d - 1e-6):
        m = PowerLawMeasure(d, beta)
        for c in (0.3, 1.0, 7.0):
            got, work = _with_work(lambda: log_ball_offcenter(m, BallSpec(c, c)).log)
            assert len(work) == 1 and work[0][0] <= 2, (beta, c, work)
            want = log_ball_offcenter_unit_closed(m).log + m.homogeneity * math.log(c)
            assert abs(got - want) <= 1e-8, (beta, c)


@pytest.mark.parametrize("d", [12, 52, 102, 197, 400])
def test_lone_ball_through_origin_converges_on_its_first_panels(d):
    """At tol 1e-8 B(c e1, c) converges in the round of its first panels.

    Its spike sin^(d-2)(phi) (2c cos(phi))^p is sigma = 1/sqrt(2(d - 2 + p))
    wide.  On panels 4/sqrt(d) wide, about 8 sigma at p ~ d, GK21's
    |G10 - K21| stays above tol and a second round follows; on panels
    2.5/sqrt(d) wide, 5 sigma, one integrand call suffices.
    """
    quad = QuadratureConfig(tol=1e-8)
    for beta in (-2.0, 0.0, d / 2):
        m = PowerLawMeasure(d, beta)
        for c in (0.3, 1.0, 7.0):
            got, work = _with_work(lambda: log_ball_offcenter(m, BallSpec(c, c), quad).log)
            assert len(work) == 1 and work[0][0] == 1, (beta, c, work)
            want = log_ball_offcenter_unit_closed(m).log + m.homogeneity * math.log(c)
            assert abs(got - want) <= 1e-8, (beta, c)


@pytest.mark.parametrize("parts", [1, 2, 4])
@pytest.mark.parametrize("tol", [1e-7, 1e-8])
def test_whole_ball_path_is_the_cut_path_with_a_sphere_outside(parts, tol):
    """A breakpoint sphere |y| = T past every ball changes no bit.

    bp = (0, inf) takes the whole-ball path, which forms no distances to a
    sphere; bp = (0, T) with T > c + R crosses no chord, so every chord stays
    in the one piece.  The tangent form (c >= R) and the origin form
    (c < R) both run; at d >= 7 the first-panel cap is below pi/2, so the
    crossing angle 0 of the outside sphere leaves the layer grading as it is.
    """
    rng = np.random.default_rng(11)
    quad = QuadratureConfig(tol=tol)
    for d, beta in ((7, 0.0), (12, 3.0), (50, -2.0), (200, 100.0)):
        m = PowerLawMeasure(d, beta)
        cs = np.concatenate([rng.uniform(0.1, 3.0, 6), [1.0, 2.0, 0.0]])
        Rs = np.concatenate([cs[:6] * rng.uniform(0.5, 1.5, 6), [1.0, 2.0 - 1e-9, 0.7]])
        assert (cs >= Rs).any() and (cs < Rs).any()
        T = 1.01 * float(np.max(cs + Rs))
        whole = _batched_shell_logs(m, cs, Rs, [0.0, math.inf], [1.0], quad, parts)
        cut = _batched_shell_logs(m, cs, Rs, [0.0, T], [1.0], quad, parts)
        assert [v.hex() for v in whole.ravel()] == [v.hex() for v in cut.ravel()], (d, beta)


@pytest.mark.parametrize("c", [0.1, 0.3, 1.0, 5.0])
def test_thin_layer_balls_converge_in_few_rounds(c):
    """A ball whose boundary passes t = 0.004 from the origin, either side.

    R = sqrt(c^2 -+ t^2) is the radius search's geometric midpoint between
    the kinks c - t and c + t; the ray integrand then changes over a width
    t/c at the angle pi/2, which bisection alone reaches one halving per
    round (8 rounds at c = 1).  The same batch holds c = 0 and c = R, which
    have no such layer.
    """
    m, t = PowerLawMeasure(12, 3.0), 0.004
    cs = np.array([c, c, 0.0, c])
    Rs = np.array([math.sqrt(c * c - t * t), math.sqrt(c * c + t * t), c, c])
    got, work = _with_work(lambda: measure._batched_shell_logs(
        m, cs, Rs, [0.0, t], [1.0], QuadratureConfig(tol=1e-8), parts=4))
    rounds = [calls for calls, _ in work]
    # one quadrature run for the balls around the origin, one for the rest
    assert len(rounds) == 2 and max(rounds) <= 3, rounds
    tight = QuadratureConfig(tol=1e-12)
    ball = measure._batched_shell_logs(m, cs, Rs, [0.0, math.inf], [1.0], tight)
    mass = measure._batched_shell_logs(m, cs, Rs, [0.0, t], [1.0], tight)
    np.testing.assert_allclose(np.exp(got[:, 0] - ball), 1.0, rtol=1e-9, atol=0)
    np.testing.assert_allclose(np.exp(got[:, 1] - mass), 1.0, rtol=1e-9, atol=0)
    # the balls without a layer against their closed forms
    assert got[2, 0] == pytest.approx(log_ball_centered(m, c).log, abs=1e-12)
    unit = log_ball_offcenter_unit_closed(m).log + m.homogeneity * math.log(c)
    assert got[3, 0] == pytest.approx(unit, abs=1e-9)


def test_thin_layers_without_weight_get_no_graded_panels():
    """Criterion 10's d = 12, beta = 3, indicator(0.004) quotient at its tol 1e-6.

    Its radius searches meet many thin balls, but at p = 9 the layer at
    pi/2 holds about (eps/U)^8 of the sphere riders' panel next to it,
    under tol/16 unless a breakpoint sphere crosses within a few eps of
    pi/2: measured 51,639 nodes (103,572 when every ball with
    sqrt(tol)/32 <= eps < pi/32 was graded), and every quadrature run
    converges on its first panels.
    """
    m, r0 = PowerLawMeasure(12, 3.0), 0.004
    lam = math.exp(log_ball_centered(m, r0).log
                   - log_ball_offcenter(m, BallSpec(1.0, 1.0 + r0)).log)
    cfg = MaximalConfig(quad=QuadratureConfig(tol=1e-6), level_grid=GridConfig(points=128))
    q, work = _with_work(lambda: weak_type_quotient_radial(
        m, RadialProfile.indicator(r0), np.geomspace(0.25 * lam, 1.02 * lam, 10), cfg))
    assert math.isfinite(q)
    assert all(calls == 1 for calls, _ in work), work
    assert sum(nodes for _, nodes in work) <= 51639


def test_quadrature_error_names_ball_within_batch(monkeypatch):
    m = PowerLawMeasure(12, 3.0)
    _starve(monkeypatch, 3, 6)
    starved = QuadratureConfig(tol=1e-15)
    rs = np.array([0.25, 0.5])
    with pytest.raises(QuadratureError) as exc:
        shift_condition_ratios(m, rs, starved)
    assert exc.value.achieved > 0
    # the batch holds the shifted balls, then the balls B(e1, r)
    cs = np.concatenate([np.sqrt(1.0 - rs * rs), np.ones(2)])
    i = exc.value.segment
    msg = str(exc.value)
    assert f"c={float(cs[i])!r} R={float(np.tile(rs, 2)[i])!r}" in msg
    assert "d=12" in msg and "r_out=inf" in msg


# ---------------------------------------------------------------------------
# the near-critical edge: p = d - beta small, ball edges near the origin
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3, 400])
@pytest.mark.parametrize("beta_of_d", ["-5", "0", "d/2", "d-1e-6"])
def test_unit_radius_probe_grid_is_finite_or_typed(d, beta_of_d):
    beta = {"-5": -5.0, "0": 0.0, "d/2": d / 2, "d-1e-6": d - 1e-6}[beta_of_d]
    m = PowerLawMeasure(d, beta)
    for c in (1e-12, 1.0, 1e12):
        for shell in ((0.0, math.inf), (0.0, 1.0), (1e-12, c + 1.0)):
            if d == 1:
                with pytest.raises(ValueError, match="d=1"):
                    _batched_shell_logs(m, [c], [1.0], shell, [1.0], measure.DEFAULT_QUADRATURE)
                continue
            got = float(_batched_shell_logs(m, [c], [1.0], shell, [1.0],
                                            measure.DEFAULT_QUADRATURE)[0])
            if c == 1e12 and shell == (0.0, 1.0):
                assert got == -math.inf     # B(1e12 e1, 1) misses B(0, 1)
            else:
                assert math.isfinite(got), (c, shell)


SMALL_P = [(d, p) for d in (2, 3, 12, 400) for p in (1e-6, 1e-3, 0.1, 0.9)]


@pytest.mark.parametrize("d,p", SMALL_P)
def test_small_p_shells_split_at_any_radius_add_up(d, p):
    # a sphere |y| = r through B(e1, 1), down to r = 1e-17
    m = PowerLawMeasure(d, d - p)
    closed = log_ball_offcenter_unit_closed(m).log
    ball = BallSpec(1.0, 1.0)
    for r in (1e-17, 1e-12, 1e-6, 0.3):
        inner = log_ball_offcenter_shell(m, ball, 0.0, r, TIGHT).log
        outer = log_ball_offcenter_shell(m, ball, r, 2.0, TIGHT).log
        assert np.logaddexp(inner, outer) == pytest.approx(closed, abs=1e-8), r


@pytest.mark.parametrize("d,p", SMALL_P)
def test_small_p_ball_edge_near_origin(d, p):
    # B(e1, 1 - eps) misses the origin by eps; it grows toward B(e1, 1)
    m = PowerLawMeasure(d, d - p)
    got = [log_ball_offcenter(m, BallSpec(1.0, 1.0 - eps), TIGHT).log
           for eps in (1e-6, 1e-9, 1e-12, 1e-15)]
    assert all(math.isfinite(g) for g in got)
    assert got == sorted(got)
    assert got[-1] <= log_ball_offcenter_unit_closed(m).log


# thin balls, eps = sqrt|c^2 - R^2|/c small: (d, beta, c, R, breakpoints,
# values); a breakpoint near c eps crosses the ball's boundary inside the
# layer at pi/2.  Each of the first four had its sphere riders off by more
# than 1e-5 when balls with eps < sqrt(tol)/32 got no graded panels
# (3.7e-2, 1.5e-3, 1.6e-5 and 4.6e-2 at tol 1e-8)
THIN_BALLS = [
    (28, 27.320769483647634, 0.9231318314741987, 0.9231318314748128,
     (0.0, 1.1625930698348584e-06, 0.09231667092662937, 2.3078295786854968),
     (2.184412999537997, 1.3402521590356653, 1.2647858784106814)),
    (17, 16.38190073527235, 0.6289169870045047, 0.628916987004949,
     (0.0, 1e-6, 0.5, 1.5), (3.0, 1.0, 2.0)),
    (9, 8.4, 0.7, 0.7 * math.sqrt(1.0 - 4e-12), (0.0, 4.2e-6, 0.42, 1.75), (2.0, 0.5, 1.5)),
    (3, 1.7, 1.5, 1.5 * math.sqrt(1.0 + 4e-12), (0.0, 2.1e-6, 0.9, 3.75), (2.0, 0.5, 1.5)),
    (5, 4.7, 1.0, math.sqrt(1.0 + 9e-12), (0.0, 1.5e-6, 0.6, 2.5), (2.0, 0.5, 1.5)),
    # p = 9 and no breakpoint sphere crossing near pi/2: the layer holds
    # about (eps/U)^8 ~ 1e-10 of the panel next to it, and gets no graded panels
    (12, 3.0, 1.0, math.sqrt(1.0 - 0.05 ** 2), (0.0, 1.5, 1.9, 2.5), (2.0, 0.5, 1.5)),
]


@pytest.mark.parametrize("d,beta,c,R,bp,values", THIN_BALLS)
def test_thin_ball_riders_and_measure_vs_mpmath(d, beta, c, R, bp, values):
    # the riders against integrals over the ball's sphere, the measure
    # against the slice oracle, each at the default tol 1e-8
    m = PowerLawMeasure(d, beta)
    got = _batched_shell_logs(m, [c], [R], bp, values, measure.DEFAULT_QUADRATURE,
                              parts=4)[0]
    sphere = mp_log_sphere_integrals(d, beta, c, R, bp, values)
    np.testing.assert_allclose(np.exp(got[2:] - sphere), 1.0, rtol=1e-5, atol=0)
    want = _mp_log_shell(d, beta, c, R, 0.0, math.inf, pieces=8)
    for log_mu in (got[0], log_ball_offcenter(m, BallSpec(c, R)).log):
        assert abs(math.expm1(log_mu - want)) <= 1e-8


# ---------------------------------------------------------------------------
# mpmath oracle: slice formula at 30 digits, no code shared with the ray form
# ---------------------------------------------------------------------------

def _mp_log_shell(d, beta, c, R, r_in, r_out, pieces=24):
    """ln mu(B(c e1, R) cap shell) = ln omega_{d-1} int s^(d-1-beta) I_x(h, h) ds.

    The sphere of radius s keeps the fraction I_x((d-1)/2, (d-1)/2) of its
    area inside the ball, with x = (1 - cos a)/2 = (R - c + s)(R + c - s)/(4cs)
    for the cap half-angle a; spheres inside the ball keep all of it.
    """
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 30
    c, R, r_in, r_out = (mp.mpf(v) for v in (c, R, r_in, r_out))
    p, h = d - beta, mp.mpf(d - 1) / 2

    def area_fraction(s):
        x = (R - c + s) * (R + c - s) / (4 * c * s)
        return mp.betainc(h, h, 0, min(max(x, 0), 1), regularized=True)

    lo = r_in if c < R else max(r_in, c - R)
    hi = min(r_out, c + R)
    cuts = [lo, hi]
    if c < R and lo < R - c < hi:
        cuts.insert(1, R - c)
    total = mp.mpf(0)
    for a, b in zip(cuts, cuts[1:]):
        if c < R and b <= R - c:
            total += (b ** p - a ** p) / p
        else:
            grid = [a + (b - a) * k / pieces for k in range(pieces + 1)]
            total += mp.quad(lambda s: s ** (p - 1) * area_fraction(s), grid)
    log_omega = mp.log(2) + mp.mpf(d) / 2 * mp.log(mp.pi) - mp.loggamma(mp.mpf(d) / 2)
    return float(log_omega + mp.log(total))


ORACLE_CASES = [
    # tangent shell: the ball touches r_out = 1.8 from outside, one ulp deep
    (3, 0.0, 4.472107640484005, 2.672107640484005, 1.0, 1.8),
    # the far point c + R lies on r_in up to the rounding of c + R: a sliver
    # that is only right when c + R is carried exactly
    (2, 0.0, 0.15871441724221963, 0.6216783697450459, 0.7803927869872654, 1.6809594098109806),
    # tiny balls straddling a shell sphere
    (3, 0.0, 1.0, 7.867806737866864e-06, 0.5, 1.0),
    (3, 0.0, 1.8, 2.1304748599990216e-05, 1.0, 1.8),
    # the origin on the sphere, just inside it, just outside it
    (12, 3.0, 1.0, 1.0, 0.0, math.inf),
    (12, 3.0, 1.0, 1.0 + 1e-9, 0.3, 1.5),
    (12, 3.0, 1.0, 1.0 - 1e-9, 0.3, 1.5),
    (12, -2.0, 1.0, 1.0 - 1e-9, 0.0, math.inf),
    # a far, tiny ball in high dimension
    (60, 0.0, 1.0, 1e-6, 0.0, math.inf),
    # high dimension: spikes of relative width ~ 1/20
    (400, -5.0, 1.0, 0.7, 0.5, 1.2),
    (400, 0.0, 1.0, 0.3, 0.9, 1.05),
    (400, 200.0, 0.5, 1.1, 0.0, math.inf),
    (400, 399.0, 1.0, 1.0, 0.0, math.inf),
] + [
    (d, beta, c, R, r_in, r_out)
    for d in (2, 12, 40, 200)
    for beta in (-2.0, 0.0, d / 2)
    for c, R, r_in, r_out in ((1.0, 0.7, 0.5, 1.2), (0.5, 1.1, 0.0, math.inf))
]


@pytest.mark.parametrize("d,beta,c,R,r_in,r_out", ORACLE_CASES)
def test_shell_measure_vs_mpmath_slice_oracle(d, beta, c, R, r_in, r_out):
    want = _mp_log_shell(d, beta, c, R, r_in, r_out)
    got = log_ball_offcenter_shell(PowerLawMeasure(d, beta), BallSpec(c, R), r_in, r_out).log
    assert abs(got - want) <= 1e-8
