import math
import warnings

import numpy as np
import pytest

from radialmax.bounds import (
    BoundCertificate,
    BoundMethod,
    cp_lower_bound,
    delta_lower_bound,
    g_eval,
    g_prime_eval,
    part1_geometry,
)
from radialmax.measure import (
    PowerLawMeasure,
    log_ball_centered,
    log_ball_offcenter_unit_closed,
)

from conftest import numeric_g_maximizer

LN_SQRT5_OVER_2 = 0.5 * math.log(5.0) - math.log(2.0)


# ---------------------------------------------------------------------------
# point-mass certificates
# ---------------------------------------------------------------------------

def test_lebesgue_exponent_gives_one():
    for d in range(2, 60):
        assert delta_lower_bound(d, 0.0).value == pytest.approx(1.0, abs=1e-10)


def test_pinned_d12_alpha6():
    cert = delta_lower_bound(12, 6.0)
    # the gamma quotient collapses to the rational 40320/7200
    assert cert.value == pytest.approx(5.6, rel=1e-12)
    assert cert.value >= (1.0 / (2 * math.e)) * 1.25 ** 3
    assert cert.method is BoundMethod.DELTA_EXACT


def test_chain_ordering_on_grid():
    for d in range(12, 120, 4):
        for alpha in (1.0, 2.0, d / 4, d / 2):
            cert = delta_lower_bound(d, alpha)
            chain = cert.intermediates["log_stirling_chain"]
            closed = cert.intermediates["log_closed"]
            assert cert.log_value >= chain >= closed


def test_closed_bound_window_enforced():
    assert "log_closed" not in delta_lower_bound(11, 5.0).intermediates
    assert "log_closed" not in delta_lower_bound(20, 11.0).intermediates
    assert "log_closed" in delta_lower_bound(12, 6.0).intermediates


def test_certificate_consistency_against_measures():
    # two routes to the same ratio: gamma quotient vs ball-measure logs
    for d, alpha in [(12, 6.0), (7, 3.0), (30, 10.0), (100, 50.0), (2, 0.5)]:
        m = PowerLawMeasure(d, alpha)
        direct = log_ball_centered(m, 1.0).log - log_ball_offcenter_unit_closed(m).log
        assert delta_lower_bound(d, alpha).log_value == pytest.approx(direct, abs=1e-10)


def test_slope_decreases_from_above_toward_paper_rate():
    # at alpha_d = d/2 the per-exponent rate decreases in d and stays above
    # the certified closed-rate ln(sqrt(5)/2)
    slopes = [delta_lower_bound(d, d / 2).log_value / (d / 2) for d in (12, 24, 48, 96)]
    assert slopes == sorted(slopes, reverse=True)
    assert all(s > LN_SQRT5_OVER_2 for s in slopes)


def test_delta_half_exponent_matches_mpmath_loggamma():
    # independent oracle at 30 digits for the closed gamma quotient
    # Delta = 2 sqrt(pi) Gamma(3d/4) / (2^(d/2) Gamma(d/2) Gamma(d/4 + 1/2))
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for d in (48, 96, 192, 400):
            q = mp.mpf(d) / 4
            ref = (
                mp.log(2 * mp.sqrt(mp.pi)) - 2 * q * mp.log(2)
                + mp.loggamma(3 * q) - mp.loggamma(2 * q) - mp.loggamma(q + mp.mpf(1) / 2)
            )
            got = delta_lower_bound(d, d / 2).log_value
            assert got == pytest.approx(float(ref), rel=1e-12)


def test_delta_d48_matches_mpmath_ray_integral():
    # mu(B(e1,1)) along rays from the origin: each ray at angle theta from e1
    # meets the ball on [0, 2 cos(theta)], and |y|^(-d/2) dy integrates there to
    # (2 cos(theta))^(d/2) / (d/2); mu(B(0,1)) = omega_{d-1} / (d/2)
    mp = pytest.importorskip("mpmath")
    d = 48
    with mp.workdps(30):
        p = mp.mpf(d) / 2

        def sphere_area(n):  # surface area of the unit sphere S^n
            return 2 * mp.pi ** (mp.mpf(n + 1) / 2) / mp.gamma(mp.mpf(n + 1) / 2)

        ray = mp.quad(lambda t: mp.sin(t) ** (d - 2) * (2 * mp.cos(t)) ** p / p, [0, mp.pi / 2])
        ref = mp.log(sphere_area(d - 1) / p) - mp.log(sphere_area(d - 2) * ray)
    assert delta_lower_bound(d, d / 2).log_value == pytest.approx(float(ref), rel=1e-12)


def test_delta_domain():
    with pytest.raises(ValueError):
        delta_lower_bound(12, 12.0)
    with pytest.raises(ValueError):
        delta_lower_bound(12, -1.0)
    with pytest.raises(ValueError):
        delta_lower_bound(1, 0.0)


def test_certificate_validation():
    with pytest.raises(ValueError):
        BoundCertificate(12, 1.0, 6.0, float("inf"), BoundMethod.DELTA_EXACT)


# ---------------------------------------------------------------------------
# cap geometry and the spike profile
# ---------------------------------------------------------------------------

def test_geometry_at_three_quarters():
    geo = part1_geometry(0.75)
    assert geo.R == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    assert geo.t0 == pytest.approx(0.75, abs=1e-15)
    assert geo.s0 == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    assert geo.t1 == pytest.approx(-0.05, abs=1e-15)


@pytest.mark.parametrize("alpha", np.linspace(0.55, 0.95, 9))
def test_geometry_sweep(alpha):
    geo = part1_geometry(float(alpha))
    lo, hi = (1 - geo.R) ** 2, (1 + geo.R) ** 2
    # endpoints of the slice window kill the spike profile
    assert abs(g_eval(geo.alpha, lo)) < 1e-12
    assert abs(g_eval(geo.alpha, hi)) < 1e-12
    assert geo.t1 < 0
    assert lo <= geo.t0 <= hi
    assert geo.s0 < 1
    # independent 1D optimizer lands on the closed-form root
    t_num = numeric_g_maximizer(geo.alpha, lo, hi)
    assert abs(t_num - geo.t0) < 1e-10
    assert abs(g_prime_eval(geo.alpha, geo.t0)) < 1e-12


def test_geometry_domain_and_warning():
    with pytest.raises(ValueError):
        part1_geometry(0.5)
    with pytest.raises(ValueError):
        part1_geometry(1.0)
    with pytest.warns(RuntimeWarning):
        part1_geometry(0.52)


def test_g_pinned_value_and_amplitude_identity(rng):
    # g(3/4) at alpha = 3/4: the bracket is -1/16 + (7/2)(3/4) - 9/16 = 2
    assert g_eval(0.75, 0.75) == pytest.approx(2.0 * 0.75 ** -0.75, rel=1e-14)
    assert g_eval(0.75, 0.75) == pytest.approx(2.481612957605599, rel=1e-13)
    # cross-check g(t) = 4 F(sqrt(t)) with the slice-amplitude form
    for alpha in (0.6, 0.75, 0.9):
        R = math.sqrt(1 - 4 * (1 - alpha) ** 2)
        for _ in range(20):
            t = float(rng.uniform((1 - R) ** 2 + 1e-3, (1 + R) ** 2 - 1e-3))
            s = math.sqrt(t)
            F = 0.25 * (4 * s * s - (1 + s * s - R * R) ** 2) * s ** (-2 * alpha)
            assert g_eval(alpha, t) == pytest.approx(4.0 * F, rel=1e-11)


def test_g_sign_change_at_maximum():
    geo = part1_geometry(0.7)
    eps = 1e-6
    assert g_prime_eval(0.7, geo.t0 - eps) > 0 > g_prime_eval(0.7, geo.t0 + eps)


def test_g_domain():
    with pytest.raises(ValueError):
        g_eval(0.75, 0.0)


# ---------------------------------------------------------------------------
# eccentric-cap certificates
# ---------------------------------------------------------------------------

def test_q2_closed_form_matches_measures():
    d, alpha = 30, 0.75
    geo = part1_geometry(alpha)
    m = PowerLawMeasure(d, alpha * d)
    direct = log_ball_centered(m, 1.0).log - log_ball_centered(m, geo.s0).log
    assert direct == pytest.approx(-(1 - alpha) * d * math.log(geo.s0), abs=1e-10)


def test_cp_growth_and_band():
    vals = {}
    for p in (1.0, 2.0, 4.0):
        certs = [cp_lower_bound(d, 0.75, p) for d in (20, 40, 80)]
        vals[p] = [c.value for c in certs]
        assert vals[p] == sorted(vals[p])  # strictly increasing past d = 20
        for c in certs:
            assert 0 < c.intermediates["Q1"] < 1
            assert 2.6 <= c.intermediates["q1_sqrt_d"] <= 7.0


def test_lower_never_crosses_upper():
    # fixed exponent alpha <= d/2: every point-mass certificate sits below
    # the weak-type upper constant 2(4 * 6^(alpha/2) + 1)
    for alpha in (1.0, 2.0, 4.0):
        for d in range(max(2, int(2 * alpha)), 80, 3):
            if alpha >= d:
                continue
            upper = 2.0 * (4.0 * 6.0 ** (alpha / 2.0) + 1.0)
            assert delta_lower_bound(d, alpha).value <= upper


def test_cp_domain():
    with pytest.raises(ValueError):
        cp_lower_bound(30, 0.75, 0.5)
    with pytest.raises(ValueError):
        cp_lower_bound(1, 0.75, 1.0)


def test_cp_rejects_nan_p_naming_its_inputs():
    # NaN slips through a "p < 1" check, with no message naming it
    with pytest.raises(ValueError) as exc:
        cp_lower_bound(4, 0.7, math.nan)
    assert str(exc.value) == "p must be >= 1, got p = nan (d = 4, alpha = 0.7)"
