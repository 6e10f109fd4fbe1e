import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialmax.maximal1d import (
    GridConfig,
    RadialProfile,
    WeightedLineMeasure,
    uncentered_max,
)
from radialmax.measure import (
    BallSpec,
    PowerLawMeasure,
    QuadratureConfig,
    log_ball_centered,
    log_ball_offcenter,
)
import radialmax.measure as measure
import radialmax.radial as radial
from radialmax.radial import (
    MaximalConfig,
    ball_average,
    centered_max_radial,
    centered_max_radial_grid,
    certified_shift_constant,
    mc_ball_average,
    pointwise_domination_check,
    weak_type_quotient_radial,
)

from conftest import profile_mass, random_profile

FAST = MaximalConfig(
    radii_per_decade=96,
    refine_rounds=2,
    quad=QuadratureConfig(tol=1e-7),
    level_grid=GridConfig(points=160, bisect_rel_tol=1e-6, max_bisect=30),
)
# acceptance criterion 9's radius search
CRITERION9 = MaximalConfig(radii_per_decade=128, refine_rounds=2,
                           quad=QuadratureConfig(tol=1e-7))
# (d, beta, c, profile): the benchmark's three criterion-9 geometries
# (perfbench/workloads.py) with fixed values, c off the max-f piece
BENCH_CASES = (
    (4, 1.0, 1.0, RadialProfile((0.0, 0.6, 1.4, 2.5), (0.8, 2.5, 1.7))),
    (12, 3.0, 1.3, RadialProfile((0.0, 0.3, 0.9, 1.6, 2.2, 3.0), (1.2, 0.5, 2.0, 0.9, 1.5))),
    (22, 6.0, 0.7, RadialProfile((0.1, 0.5, 1.1, 1.8, 2.6), (2.2, 0.7, 1.9, 0.4))),
)


# ---------------------------------------------------------------------------
# ball averages
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,beta,c,R", [(3, 0.0, 0.6, 0.4), (5, 2.0, 1.0, 0.7),
                                        (9, 4.0, 0.2, 0.9), (4, -1.5, 1.3, 0.5)])
def test_average_of_constant_is_one(d, beta, c, R):
    m = PowerLawMeasure(d, beta)
    f = RadialProfile((0.0, 10.0), (1.0,))
    assert ball_average(m, f, c, R, FAST) == pytest.approx(1.0, rel=1e-9)


def test_centered_average_reduces_to_weighted_1d():
    m = PowerLawMeasure(5, 2.0)
    f = RadialProfile((0.0, 0.5, 1.5, 2.0), (2.0, 0.5, 1.0))
    R = 1.2
    want = float(profile_mass(3.0, f, R) / (R ** 3 / 3.0))
    assert ball_average(m, f, 0.0, R, FAST) == pytest.approx(want, rel=1e-10)


def test_average_never_exceeds_max_value():
    # the criterion-9 profile on which a ball inside the top piece averaged
    # 3.9497435311848093 against a max f of 3.9497435311848057
    m = PowerLawMeasure(4, 1.0)
    f = RadialProfile((0.0, 0.6, 1.4, 2.5),
                      (3.9497435311848057, 1.3089078120177913, 3.164768296489114))
    vmax = max(f.values)
    balls = [(0.437697936590399, 0.00795318752079278), (0.38217701239287255, 0.03581604435166263)]
    for c in np.linspace(0.05, 0.55, 6):
        for frac in (0.1, 0.5, 0.9):
            balls.append((c, frac * min(c, 0.6 - c)))
    for c in (1.0, 1.3):
        for R in (0.05, 0.4, 1.0, 2.0):
            balls.append((c, R))
    got = [ball_average(m, f, c, R, CRITERION9) for c, R in balls]
    assert max(got) <= vmax
    assert got[0] == vmax


def test_average_domain():
    m = PowerLawMeasure(3, 0.0)
    with pytest.raises(ValueError):
        ball_average(m, RadialProfile.indicator(1.0), 0.5, 0.0, FAST)


def test_average_at_d1_names_its_inputs():
    with pytest.raises(ValueError) as exc:
        ball_average(PowerLawMeasure(1, 0.5), RadialProfile.indicator(1.0), 1.0, 0.5)
    msg = str(exc.value)
    assert "d >= 2" in msg
    for part in ("d=1", "beta=0.5", "c=1.0", "R=0.5"):
        assert part in msg, msg


def _per_shell_averages(m, f, cs, Rs, quad):
    """Ball averages from separate shell integrals: the ball's measure over
    [0, inf) and one shell per positive piece, each its own quadrature run."""
    den = measure._batched_shell_logs(m, cs, Rs, [0.0, math.inf], [0.0], quad)
    num = np.full(len(cs), -np.inf)
    for a, b, v in zip(f.breakpoints, f.breakpoints[1:], f.values):
        if v > 0:
            shell = measure._batched_shell_logs(m, cs, Rs, [a, b], [0.0], quad)
            num = np.logaddexp(num, math.log(v) + shell)
    return np.exp(num - den)


def test_one_pass_averages_match_per_shell_integrals():
    # random balls of every kind: around the origin or not, tiny to wide,
    # inside one piece or across all of them
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(60):
        d = int(rng.integers(2, 31))
        m = PowerLawMeasure(d, float(rng.uniform(-1.0, d / 2)))
        f = random_profile(rng, max_pieces=4)
        cs = rng.uniform(0.01, 3.0, 8)
        Rs = np.exp(rng.uniform(-6.0, 1.5, 8))
        got = radial._ball_averages_batch(m, f, cs, Rs, QuadratureConfig(tol=1e-8))
        want = _per_shell_averages(m, f, cs, Rs, QuadratureConfig(tol=1e-12))
        err = np.abs(got - want)
        assert np.all(err <= 1e-9 * want), (d, m.beta, f, cs, Rs, got, want)
        worst = max(worst, float((err / np.where(want > 0, want, 1.0)).max()))
    assert worst > 0.0  # the two formulations do differ in rounding


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 40))
def test_ball_values_do_not_depend_on_the_batch(seed, n):
    # a ball's average and shell measure are the same bits alone, inside a
    # batch and in any order, so refactors that regroup balls change nothing
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 25))
    m = PowerLawMeasure(d, float(rng.uniform(-1.0, d / 2)))
    f = random_profile(rng, max_pieces=4)
    cs = rng.uniform(0.01, 3.0, n)
    Rs = np.exp(rng.uniform(-6.0, 1.5, n))
    order = rng.permutation(n)
    quad = QuadratureConfig(tol=1e-8)
    shell = list(np.sort(rng.uniform(0.0, 3.0, 2)))
    for batch in (lambda c, R: radial._ball_averages_batch(m, f, c, R, quad),
                  lambda c, R: measure._batched_shell_logs(m, c, R, shell, [0.0], quad)):
        together = batch(cs[order], Rs[order])
        alone = [batch(cs[i:i + 1], Rs[i:i + 1])[0] for i in order]
        assert [float(v).hex() for v in together] == [float(v).hex() for v in alone]


def test_centered_max_does_not_depend_on_the_batch():
    for d, beta, _, f in BENCH_CASES:
        m = PowerLawMeasure(d, beta)
        cs = np.array([0.05, 0.7, 1.3, 2.4])
        together = centered_max_radial_grid(m, f, cs, FAST)
        alone = [centered_max_radial_grid(m, f, cs[i:i + 1], FAST)[0] for i in range(len(cs))]
        assert [v.hex() for v in together] == [float(v).hex() for v in alone]


# ---------------------------------------------------------------------------
# centered maximal function
# ---------------------------------------------------------------------------

def test_max_of_constant_truncation():
    m = PowerLawMeasure(6, 2.5)
    f = RadialProfile((0.0, 50.0), (1.0,))
    assert centered_max_radial(m, f, 0.9, FAST) == pytest.approx(1.0, rel=1e-9)


def test_max_one_homogeneity():
    m = PowerLawMeasure(5, 2.0)
    f = RadialProfile((0.0, 0.5, 1.5, 2.0), (2.0, 0.5, 1.0))
    v1 = centered_max_radial(m, f, 1.1, FAST)
    v2 = centered_max_radial(m, f.scaled(3.0), 1.1, FAST)
    assert v2 == pytest.approx(3.0 * v1, rel=1e-10)


def test_max_dominates_profile_value(rng):
    for _ in range(6):
        d = int(rng.integers(2, 9))
        beta = float(rng.uniform(0, d / 2))
        m = PowerLawMeasure(d, beta)
        f = random_profile(rng, max_pieces=5)
        bp = np.asarray(f.breakpoints)
        c = float(rng.uniform(bp[0] + 1e-3, bp[-1]))
        assert centered_max_radial(m, f, c, FAST) >= f.value_at(c) * (1 - 1e-9)


def test_max_sublinear(rng):
    m = PowerLawMeasure(4, 1.0)
    for _ in range(5):
        f = random_profile(rng, max_pieces=4, allow_zero_pieces=False)
        g = random_profile(rng, max_pieces=4, allow_zero_pieces=False)
        bp = sorted(set(f.breakpoints) | set(g.breakpoints))
        both = RadialProfile(
            tuple(bp),
            tuple(float(f.value_at(t) + g.value_at(t)) for t in bp[1:]),
        )
        c = float(rng.uniform(0.1, 2.5))
        lhs = centered_max_radial(m, both, c, FAST)
        rhs = centered_max_radial(m, f, c, FAST) + centered_max_radial(m, g, c, FAST)
        assert lhs <= rhs * (1 + 1e-8)


def test_point_mass_limit():
    # shrinking indicators converge to the point-mass value 1/mu(B(x, |x|))
    m = PowerLawMeasure(6, 1.5)
    c = 1.0
    ratios = []
    for r0 in (0.1, 0.01, 0.001):
        f = RadialProfile.indicator(r0)
        Mv = centered_max_radial(m, f, c, FAST)
        ideal = math.exp(
            log_ball_centered(m, r0).log - log_ball_offcenter(m, BallSpec(c, c)).log
        )
        ratios.append(Mv / ideal)
    assert ratios == sorted(ratios)
    assert ratios[-1] > 0.99


def test_max_at_origin_is_centered_case():
    m = PowerLawMeasure(5, 2.0)
    f = RadialProfile((0.2, 1.0), (1.0,))
    v = centered_max_radial(m, f, 0.0, FAST)
    # best centered ball stops at the support's outer edge
    want = float(profile_mass(3.0, f, 1.0) / (1.0 / 3.0))
    assert v == pytest.approx(want, rel=1e-9)


def _dense_oracle_max(m, f, c, n=4001, rounds=6, points=33):
    """sup_R of the ball average on 4001 log-spaced radii plus every kink
    radius, then zoom rounds around the best radius, at quadrature tol 1e-10,
    with averages from separate shell integrals (_per_shell_averages)."""
    quad = QuadratureConfig(tol=1e-10)
    t_hi = max(t for t, v in zip(f.breakpoints[1:], f.values) if v > 0)
    r_hi = c + t_hi
    kinks = [r for t in f.breakpoints for r in (abs(c - t), c + t) if 0 < r <= r_hi]
    R = np.unique(np.concatenate([np.geomspace(1e-6 * r_hi, r_hi, n), kinks]))
    best = 0.0
    for _ in range(rounds + 1):
        A = _per_shell_averages(m, f, np.full(len(R), c), R, quad)
        k = int(A.argmax())
        best = max(best, float(A[k]))
        R = np.linspace(R[max(k - 1, 0)], R[min(k + 1, len(R) - 1)], points)
    return best


def test_max_matches_dense_oracle():
    rng = np.random.default_rng(5)
    cases = list(BENCH_CASES)
    for _ in range(4):
        d = int(rng.integers(2, 13))
        beta = float(rng.uniform(0.05, d / 2))
        f = random_profile(rng, max_pieces=4, allow_zero_pieces=False)
        cases.append((d, beta, float(rng.uniform(0.05, 2.5)), f))
    for d, beta, c, f in cases:
        m = PowerLawMeasure(d, beta)
        want = _dense_oracle_max(m, f, c)
        got = centered_max_radial(m, f, c, CRITERION9)
        assert abs(got - want) <= 1e-9 * want, (d, beta, c, got, want)


def test_max_inside_top_piece_is_max_value(monkeypatch):
    # no average exceeds max f and small balls inside the top piece attain
    # it, so no quadrature runs; c = 0 sees only the first piece
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature run")

    monkeypatch.setattr(measure, "log_integrate_batch", no_quadrature)
    m = PowerLawMeasure(5, 2.0)
    f = RadialProfile((0.0, 0.5, 1.5, 2.0), (2.5, 0.5, 1.0))
    got = centered_max_radial_grid(m, f, [0.0, 1e-9, 0.2, 0.4999], FAST)
    assert np.all(got == max(f.values))


def test_max_on_top_piece_breakpoint_is_below_max():
    # at c = 0.5 every ball straddles the pieces of value 2.5 and 0.5
    m = PowerLawMeasure(5, 2.0)
    f = RadialProfile((0.0, 0.5, 1.5, 2.0), (2.5, 0.5, 1.0))
    assert 0.5 < centered_max_radial(m, f, 0.5, FAST) < 2.5


def test_radius_grid_one_radius_inside_own_piece():
    f = RadialProfile((0.0, 0.5, 1.5, 2.0), (2.5, 0.5, 1.0))
    for c, rho in ((1.1, 0.4), (0.2, 0.3), (1.8, 0.2)):
        grid = radial._radius_grid(f, c, FAST)
        assert np.count_nonzero(grid < rho - 1e-15) == 1
        assert grid[0] == pytest.approx(0.5 * rho)


def test_max_grid_empty_input_and_no_refine():
    m = PowerLawMeasure(4, 1.0)
    f = RadialProfile((0.0, 0.6, 1.4, 2.5), (0.8, 2.5, 1.7))
    assert centered_max_radial_grid(m, f, [], FAST).shape == (0,)
    coarse = MaximalConfig(radii_per_decade=96, refine_rounds=0, quad=QuadratureConfig(tol=1e-7))
    v0 = centered_max_radial(m, f, 1.0, coarse)
    v2 = centered_max_radial(m, f, 1.0, FAST)
    assert v0 == pytest.approx(v2, rel=1e-6)


def test_radius_search_work_units(monkeypatch):
    # ball averages per point at criterion-9 settings (the dense log grid
    # from 1e-6 r_hi spent 809-813), identical across reruns
    counted = []
    batch = radial._ball_averages_batch

    def counting(m, f, cs, Rs, quad):
        counted[-1] += len(Rs)
        return batch(m, f, cs, Rs, quad)

    monkeypatch.setattr(radial, "_ball_averages_batch", counting)
    runs = []
    for _ in range(2):
        per_point = []
        for d, beta, c, f in BENCH_CASES:
            counted.append(0)
            centered_max_radial(PowerLawMeasure(d, beta), f, c, CRITERION9)
            per_point.append(counted[-1])
        runs.append(per_point)
    assert runs[0] == runs[1]
    assert max(runs[0]) <= 220, runs[0]


def _search_recomputing_ends(m, f, c, cfg):
    """centered_max_radial's radius search with every refine radius averaged
    afresh: the result and the averages each stage compares."""
    if radial._own_piece(f, c)[1] == max(f.values):
        return max(f.values), []    # inside the top piece: no search

    def avg(Rs):
        return radial._ball_averages_batch(m, f, np.full(len(Rs), c), Rs, cfg.quad)[None, :]

    R = radial._radius_grid(f, c, cfg)[None, :]
    stages = [avg(R[0])]
    best, x, y = radial._best_three(R, stages[-1])
    for _ in range(cfg.refine_rounds):
        R = np.linspace(x[0], x[2], radial._REFINE_POINTS, axis=1)
        stages.append(avg(R[0]))
        a, x, y = radial._best_three(R, stages[-1])
        best = np.maximum(best, a)
    v = radial._parabola_vertex(x, y)
    if not np.isnan(v[0]):
        best = np.maximum(best, avg(v)[0])
    return float(best[0]), stages


def _record_stages(monkeypatch):
    """The averages each stage of the radius search compares, as it runs."""
    seen = []
    best_three = radial._best_three

    def spy(R, A):
        seen.append(A.copy())
        return best_three(R, A)

    monkeypatch.setattr(radial, "_best_three", spy)
    return seen


def test_refine_reuses_its_bracket_ends_bit_for_bit(monkeypatch):
    # linspace reproduces both bracket ends, whose averages the search
    # already has, so reusing them changes no output bit; an end averaged
    # again in another batch gives the same bits, since averages do not
    # depend on the batch
    want = [_search_recomputing_ends(PowerLawMeasure(d, beta), f, c, CRITERION9)
            for d, beta, c, f in BENCH_CASES]
    stages = _record_stages(monkeypatch)
    for (d, beta, c, f), (value, want_stages) in zip(BENCH_CASES, want):
        stages.clear()
        assert centered_max_radial(PowerLawMeasure(d, beta), f, c, CRITERION9) == value
        assert len(stages) == len(want_stages)
        for got, ref in zip(stages, want_stages):
            np.testing.assert_array_equal(got, ref)


def test_refine_never_reuses_a_pad_average(monkeypatch):
    # with averages rising in R every row peaks at its last real radius, so
    # rows padded to the longest grid put their right bracket end on a pad
    # (average -inf), which repeats that radius; the refine rounds must see
    # its real average
    monkeypatch.setattr(radial, "_ball_averages_batch",
                        lambda m, f, cs, Rs, quad: np.asarray(Rs) / (1.0 + np.asarray(Rs)))
    seen = _record_stages(monkeypatch)
    m = PowerLawMeasure(4, 1.0)
    f = RadialProfile((0.0, 0.6, 1.4, 2.5), (0.8, 2.5, 1.7))
    cs = [0.3, 1.6, 3.0]
    got = centered_max_radial_grid(m, f, cs, CRITERION9)
    assert np.isneginf(seen[0]).any()  # the grid stage pads the shorter rows
    assert all(np.isfinite(A).all() for A in seen[1:])
    assert list(got) == [centered_max_radial(m, f, c, CRITERION9) for c in cs]


# ---------------------------------------------------------------------------
# domination by the 1D uncentered operator
# ---------------------------------------------------------------------------

def test_domination_lebesgue_c_one(rng):
    m = PowerLawMeasure(3, 0.0)
    for _ in range(4):
        f = random_profile(rng, max_pieces=4)
        c = float(rng.uniform(0.2, 2.0))
        chk = pointwise_domination_check(m, f, c, C=1.0, cfg=FAST)
        assert chk.ok, (chk, c)


def test_domination_power_law(rng):
    for _ in range(6):
        d = int(rng.integers(2, 13))
        alpha = float(rng.uniform(0.2, d / 2))
        m = PowerLawMeasure(d, alpha)
        f = random_profile(rng, max_pieces=5)
        c = float(rng.uniform(0.1, 2.5))
        chk = pointwise_domination_check(m, f, c, certified_shift_constant(m), FAST)
        assert chk.ok, (d, alpha, c, chk)


def test_domination_far_support_zero():
    m = PowerLawMeasure(4, 1.0)
    f = RadialProfile((5.0, 6.0), (1.0,))
    line = WeightedLineMeasure(4, 1.0)
    # both sides positive but tiny far from the support; at the support they match
    assert uncentered_max(line, f, 5.5) == pytest.approx(1.0, rel=1e-12)
    assert centered_max_radial(m, f, 5.5, FAST) == pytest.approx(1.0, rel=1e-8)


def test_certified_shift_constant():
    assert certified_shift_constant(PowerLawMeasure(5, 0.0)) == 1.0
    assert certified_shift_constant(PowerLawMeasure(5, -2.0)) == 1.0
    assert certified_shift_constant(PowerLawMeasure(8, 3.0)) == pytest.approx(
        4.0 * 6.0 ** 1.5
    )
    with pytest.raises(ValueError):
        certified_shift_constant(PowerLawMeasure(4, 3.0))


# ---------------------------------------------------------------------------
# weak type in R^d through the radial section
# ---------------------------------------------------------------------------

def test_weak_type_radial_lebesgue_decreasing_below_four():
    m = PowerLawMeasure(3, 0.0)
    f = RadialProfile((0.0, 0.5, 1.0, 1.8), (3.0, 1.5, 0.4))
    q = weak_type_quotient_radial(m, f, np.geomspace(0.05, 3.2, 8), FAST)
    assert 0 < q <= 4.0


def test_weak_type_radial_finite_past_the_double_range():
    # gamma0 of {M > 1/2} is about e^916 at d = 400, past the double range;
    # the quotient is formed in logs and comes out at 0.49992
    cfg = MaximalConfig(radii_per_decade=48, min_radii=32, refine_rounds=2,
                        quad=QuadratureConfig(tol=1e-6),
                        level_grid=GridConfig(points=128, bisect_rel_tol=1e-6, max_bisect=30))
    q = weak_type_quotient_radial(PowerLawMeasure(400, 0.0), RadialProfile.indicator(10.0),
                                  [0.5], cfg)
    assert math.isfinite(q)
    assert 0.499 <= q <= 4.0


CRITERION10 = MaximalConfig(radii_per_decade=48, min_radii=32, refine_rounds=2,
                            quad=QuadratureConfig(tol=1e-6),
                            level_grid=GridConfig(points=128, bisect_rel_tol=1e-6, max_bisect=30))


def _criterion_10_levels(m, r0):
    f = RadialProfile.indicator(r0)
    lam_star = math.exp(log_ball_centered(m, r0).log
                        - log_ball_offcenter(m, BallSpec(1.0, 1.0 + r0)).log)
    return f, np.geomspace(0.25 * lam_star, 1.02 * lam_star, 10)


def test_crossing_search_on_criterion_10(monkeypatch):
    # criterion 10's d = 12, beta = 3, r0 = 0.004 case: lockstep bisection
    # of its 10 crossings takes 17 rounds, the secant search in ln t at most
    # 8; the bracket tolerance 1e-6 moves each end by at most 1e-6
    # relative, so gamma0 and the quotient by at most (p + 1) 1e-6.  The
    # grid stage radius-searches only the points the lower bound leaves
    # unsettled and their neighbours (162 points without the bound), and
    # the work repeats exactly
    d, beta, r0 = 12, 3.0, 0.004
    m = PowerLawMeasure(d, beta)
    f, lams = _criterion_10_levels(m, r0)
    sizes = []
    grid_max = radial.centered_max_radial_grid

    def counted(m, f, ts, cfg):
        sizes.append(len(ts))
        return grid_max(m, f, ts, cfg)

    monkeypatch.setattr(radial, "centered_max_radial_grid", counted)
    q = weak_type_quotient_radial(m, f, lams, CRITERION10)
    first = list(sizes)
    rounds = len(sizes) - 1
    assert rounds <= 8, sizes
    assert sizes[0] <= 12, sizes
    sizes.clear()
    assert weak_type_quotient_radial(m, f, lams, CRITERION10) == q
    assert sizes == first
    fine = dataclasses.replace(CRITERION10, level_grid=GridConfig(points=128))
    q_fine = weak_type_quotient_radial(m, f, lams, fine)
    assert abs(q - q_fine) <= (d - beta + 1) * 1e-6 * q_fine, (q, q_fine)


@pytest.mark.parametrize("d,beta,r0", [(12, 3.0, 0.004), (4, 3.0, 0.02)])
def test_settled_grid_points_change_no_level_set(monkeypatch, d, beta, r0):
    # the lower bound is the average at the radius search's last radius, so
    # a settled point is one the search puts above every level too; beta = 3
    # > d/2 = 2 takes the measured shift constant
    m = PowerLawMeasure(d, beta)
    f, lams = _criterion_10_levels(m, r0)
    grid_logs = radial._grid_level_logs
    fns = []

    def spy(*args):
        fns.append(args[4:7])
        return grid_logs(*args)

    monkeypatch.setattr(radial, "_grid_level_logs", spy)
    q = weak_type_quotient_radial(m, f, lams, CRITERION10)
    # the bound never exceeds the searched maximum, and far out, where the
    # best ball nearly holds all of f, it is within 1 % of it
    max_fn, _, lower_fn = fns[0]
    ts = np.geomspace(1e-3, 3.0, 25)
    lower, upper = lower_fn(ts), max_fn(ts)
    assert np.all(lower <= upper)
    assert lower[-1] > 0.99 * upper[-1]
    monkeypatch.setattr(radial, "_grid_level_logs", lambda *args: grid_logs(*args[:6]))
    assert weak_type_quotient_radial(m, f, lams, CRITERION10) == q


def test_weak_type_radial_empty_lambda():
    m = PowerLawMeasure(3, 0.0)
    with pytest.raises(ValueError):
        weak_type_quotient_radial(m, RadialProfile.indicator(1.0), [], FAST)


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,beta,c,R,seed", [(2, 0.7, 1.0, 0.6, 11),
                                             (3, 1.2, 0.8, 0.5, 12),
                                             (3, 0.0, 0.3, 0.7, 13)])
def test_mc_matches_quadrature(d, beta, c, R, seed):
    m = PowerLawMeasure(d, beta)
    f = RadialProfile((0.0, 0.4, 0.9, 1.6), (2.0, 1.0, 0.3))
    est, se = mc_ball_average(m, f, c, R, n_samples=200_000, seed=seed)
    exact = ball_average(m, f, c, R, FAST)
    assert abs(est - exact) <= 3.0 * se, (est, exact, se)


def test_mc_rejects_high_dimension():
    with pytest.raises(ValueError):
        mc_ball_average(PowerLawMeasure(8, 0.0), RadialProfile.indicator(1.0), 1.0, 0.5)
