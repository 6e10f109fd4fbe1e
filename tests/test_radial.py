import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialmax.bounds import delta_lower_bound
from radialmax.maximal1d import (
    GridConfig,
    RadialProfile,
    default_lambda_grid,
    level_sets,
    uncentered_max,
    uncentered_max_grid,
    weak_type_quotient_1d,
)
from radialmax.specfun import log_sphere_area
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
    weak_type_quotient_radial,
)

from conftest import mc_ball_average, profile_mass, random_profile

FAST = MaximalConfig(
    radii_per_decade=96,
    refine_rounds=2,
    quad=QuadratureConfig(tol=1e-7),
    level_grid=GridConfig(points=160),
)
# acceptance criterion 9's radius search
CRITERION9 = MaximalConfig(radii_per_decade=128, refine_rounds=2,
                           quad=QuadratureConfig(tol=1e-7))
# acceptance criterion 10's weak-type settings
CRITERION10 = MaximalConfig(radii_per_decade=48, min_radii=32, refine_rounds=2,
                            quad=QuadratureConfig(tol=1e-6),
                            level_grid=GridConfig(points=128, bisect_rel_tol=1e-6, max_bisect=30))
# (d, beta, c, profile): the benchmark's three criterion-9 geometries
# (perfbench/workloads.py) with fixed values, c in a piece below max f, so
# every point runs the radius search (a point inside a top piece returns
# max f with no quadrature)
BENCH_CASES = (
    (4, 1.0, 1.0, RadialProfile((0.0, 0.6, 1.4, 2.5), (2.5, 0.8, 1.7))),
    (12, 3.0, 1.3, RadialProfile((0.0, 0.3, 0.9, 1.6, 2.2, 3.0), (1.2, 0.5, 0.9, 2.0, 1.5))),
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
    # BallSpec's rule, whose message names the bad input
    m = PowerLawMeasure(3, 0.0)
    for c, R, bad in ((0.5, 0.0, "radius"), (-1.0, 0.5, "center_distance"),
                      (math.nan, 0.5, "center_distance"), (math.inf, 0.5, "center_distance"),
                      (0.5, math.inf, "radius"), (0.5, math.nan, "radius")):
        with pytest.raises(ValueError, match=bad):
            ball_average(m, RadialProfile.indicator(1.0), c, R, FAST)


@pytest.mark.parametrize("c", [-1.0, math.nan, math.inf])
def test_centered_max_rejects_distances_outside_the_half_line(c):
    f = RadialProfile.indicator(1.0)
    with pytest.raises(ValueError):
        centered_max_radial(PowerLawMeasure(3, 1.0), f, c, FAST)
    with pytest.raises(ValueError):
        centered_max_radial_grid(PowerLawMeasure(3, 1.0), f, [0.5, c], FAST)


# the entry points that take a grid of levels, points or radii, as (m, f, grid)
GRID_ENTRY_POINTS = {fn.__name__: fn for fn in (
    weak_type_quotient_1d, level_sets, weak_type_quotient_radial, uncentered_max_grid,
    centered_max_radial_grid)}
GRID_ENTRY_POINTS["shift_condition_ratios"] = lambda m, f, rs: measure.shift_condition_ratios(m, rs)


@pytest.mark.parametrize("entry", sorted(GRID_ENTRY_POINTS))
@pytest.mark.parametrize("x,shape", [(0.5, "()"), ([[0.5, 1.0]], "(1, 2)")],
                         ids=["scalar", "2d"])
def test_grid_inputs_that_are_not_1d_raise_a_typed_error(entry, x, shape):
    # a scalar or a 2-D grid is refused up front with its shape, d and beta,
    # not by a numpy error from deep inside
    m, f = PowerLawMeasure(3, 0.5), RadialProfile((0.0, 1.0, 2.0), (2.0, 1.0))
    want = f"must be a 1-D array: got shape {shape} at d = 3, beta = 0.5"
    with pytest.raises(ValueError, match=re.escape(want)):
        GRID_ENTRY_POINTS[entry](m, f, x)


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
    den = measure._batched_shell_logs(m, cs, Rs, [0.0, math.inf], [1.0], quad)
    num = np.full(len(cs), -np.inf)
    for a, b, v in zip(f.breakpoints, f.breakpoints[1:], f.values):
        if v > 0:
            shell = measure._batched_shell_logs(m, cs, Rs, [a, b], [1.0], quad)
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
        got = np.exp(radial._ball_averages_batch(m, f, cs, Rs, QuadratureConfig(tol=1e-8)))
        want = _per_shell_averages(m, f, cs, Rs, QuadratureConfig(tol=1e-12))
        err = np.abs(got - want)
        assert np.all(err <= 1e-9 * want), (d, m.beta, f, cs, Rs, got, want)
        worst = max(worst, float((err / np.where(want > 0, want, 1.0)).max()))
    assert worst > 0.0  # the two formulations do differ in rounding


def _cap_fraction(d, c, R, t):
    """Share of the sphere |y - c e1| = R inside |y| < t, closed form.

    Its points with cos(angle to e1) < x0 = (t^2 - c^2 - R^2) / (2cR) lie
    inside; a cap of half-angle a <= pi/2 holds I_{sin^2 a}((d-1)/2, 1/2) / 2
    of the sphere, and a cap past a hemisphere is the complement of one.
    """
    from scipy.special import betainc

    x0 = min(max((t * t - c * c - R * R) / (2.0 * c * R), -1.0), 1.0)
    cap = 0.5 * betainc(0.5 * (d - 1), 0.5, 1.0 - x0 * x0)
    return cap if x0 <= 0 else 1.0 - cap


def test_sphere_components_match_cap_fractions():
    # beta = 0, f = 1 on B(0, t): the slope components are the sphere's
    # area omega_{d-1} R^(d-1) and its share S inside B(0, t), balls around
    # the origin (c < R) and off it, tangent to |y| = t or nearly so
    rng = np.random.default_rng(3)
    quad = QuadratureConfig(tol=1e-10)
    for _ in range(40):
        d = int(rng.integers(2, 30))
        c, t = float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.1, 2.0))
        lo, hi = abs(c - t), c + t
        R = float(lo + (hi - lo) * rng.choice([rng.uniform(), 1e-6, 1.0 - 1e-6]))
        logs = measure._batched_shell_logs(PowerLawMeasure(d, 0.0), [c], [R], [0.0, t], [1.0],
                                           quad, parts=4)[0]
        sigma = math.exp(log_sphere_area(d) + (d - 1) * math.log(R))
        assert math.exp(logs[2]) == pytest.approx(sigma, rel=1e-9), (d, c, R, t)
        S = _cap_fraction(d, c, R, t)
        assert abs(math.exp(logs[3] - logs[2]) - S) <= 1e-8 * max(S, 1e-3), (d, c, R, t, S)


def test_sphere_components_match_central_differences():
    # any beta: the slope components are d/dR of the ball's measure and its
    # f-mass, compared with central differences of both at tol 1e-13, on
    # balls kept clear of every kink radius
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(60):
        d = int(rng.integers(2, 25))
        m = PowerLawMeasure(d, float(rng.uniform(-1.0, d - 1.2)))
        f = random_profile(rng, max_pieces=4)
        c = float(rng.uniform(0.05, 2.5))
        kinks = np.array([r for t in f.breakpoints for r in (abs(c - t), c + t)] + [c])
        R = float(np.exp(rng.uniform(-2.0, 1.2)))
        if np.min(np.abs(kinks - R)) < 0.01 * R:
            continue
        h = 1e-5 * R
        vals = np.maximum(f.values, 1e-300)
        logs = measure._batched_shell_logs(m, [c] * 3, [R - h, R, R + h], f.breakpoints, vals,
                                           QuadratureConfig(tol=1e-13), parts=4)
        for k in (0, 1):
            fd = (math.exp(logs[2, k]) - math.exp(logs[0, k])) / (2.0 * h)
            got = math.exp(logs[1, 2 + k])
            # the mass derivative is judged against the sphere's area times max f
            scale = math.exp(logs[1, 2]) * (max(f.values) if k else 1.0)
            assert abs(got - fd) <= 1e-7 * scale, (d, m.beta, f, c, R, k, got, fd)
            worst = max(worst, abs(got - fd) / scale)
    assert 0.0 < worst


def test_sphere_components_change_no_bit_of_the_average():
    # the derivatives ride on the nodes the measure and the mass choose, so
    # both are the same bits with or without them
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = int(rng.integers(2, 25))
        m = PowerLawMeasure(d, float(rng.uniform(-1.0, d / 2)))
        f = random_profile(rng, max_pieces=4)
        cs, Rs = rng.uniform(0.01, 3.0, 12), np.exp(rng.uniform(-6.0, 1.5, 12))
        vals = np.maximum(f.values, 1e-300)
        args = (m, cs, Rs, f.breakpoints, vals, QuadratureConfig(tol=1e-8))
        two = measure._batched_shell_logs(*args, parts=2)
        four = measure._batched_shell_logs(*args, parts=4)
        assert [v.hex() for v in two.ravel()] == [v.hex() for v in four[:, :2].ravel()]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 40))
def test_ball_values_do_not_depend_on_the_batch(seed, n):
    # a ball's average and shell measure are the same bits alone, inside a
    # batch and in any order, so refactors that regroup balls change nothing
    rng = np.random.default_rng(seed)
    # a high d cuts wide pieces into several first panels, a different
    # number per ball, all in the batch's one flat panel list
    d = int(rng.integers(2, 25) if rng.random() < 0.5 else rng.integers(50, 200))
    m = PowerLawMeasure(d, float(rng.uniform(-1.0, d / 2)))
    f = random_profile(rng, max_pieces=4)
    cs = rng.uniform(0.01, 3.0, n)
    Rs = np.exp(rng.uniform(-6.0, 1.5, n))
    # two balls whose boundary passes near the origin, one on each side,
    # get graded first panels that the others of the batch do not
    eps = np.exp(rng.uniform(math.log(1e-4), math.log(0.09), 2))
    Rs[:2] = cs[:2] * np.sqrt(1.0 + np.array([-1.0, 1.0]) * eps * eps)
    order = rng.permutation(n)
    quad = QuadratureConfig(tol=1e-8)
    shell = list(np.sort(rng.uniform(0.0, 3.0, 2)))
    vals = np.maximum(f.values, 1e-300)
    for batch in (lambda c, R: radial._ball_averages_batch(m, f, c, R, quad),
                  lambda c, R: measure._batched_shell_logs(m, c, R, shell, [1.0], quad),
                  # with the sphere components riding on the judged ones
                  lambda c, R: measure._batched_shell_logs(m, c, R, f.breakpoints, vals, quad,
                                                           parts=4)):
        together = batch(cs[order], Rs[order])
        alone = [batch(cs[i:i + 1], Rs[i:i + 1])[0] for i in order]
        assert ([float(v).hex() for v in np.ravel(together)]
                == [float(v).hex() for v in np.ravel(alone)])


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
    radius and 1e-12 r_hi (the R -> 0 limit on a breakpoint), then zoom
    rounds around the best radius, at quadrature tol 1e-10, with averages
    from separate shell integrals (_per_shell_averages)."""
    quad = QuadratureConfig(tol=1e-10)
    t_hi = max(t for t, v in zip(f.breakpoints[1:], f.values) if v > 0)
    r_hi = c + t_hi
    kinks = [r for t in f.breakpoints for r in (abs(c - t), c + t) if 0 < r <= r_hi]
    R = np.unique(np.concatenate([np.geomspace(1e-6 * r_hi, r_hi, n), kinks, [1e-12 * r_hi]]))
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
    # centers on a breakpoint, off the top piece: their searches start at
    # 1e-6 r_hi, and their R -> 0 limit is the mean of the two pieces
    for d, beta, c, f in BENCH_CASES:
        t = next(t for t in f.breakpoints if t > 0 and abs(t - c) > 0.1)
        cases.append((d, beta, t, f))
    # criterion 10's geometry, where the best ball just holds the spike
    for c in (0.9, 1.0, 1.1):
        cases.append((12, 3.0, c, RadialProfile.indicator(0.004)))
    # beta near d - 1, where sphere weights blow up at the origin
    cases.append((6, 4.95, 0.8, RadialProfile((0.0, 0.5, 1.2, 2.0), (1.5, 0.4, 2.0))))
    # points whose brackets stayed open after 6 search rounds, with ln-gaps
    # of 1.1e-4 (the radial-decreasing sweep, on a breakpoint) and 1.5e-4
    # (the random sweep), 4.8e-6 and 1.9e-6 relative below the oracle
    cases.append((2, 1.0, 0.4, RadialProfile((0.0, 0.4, 1.1, 2.0), (3.0, 1.0, 0.25))))
    cases.append((3, 1.0, 0.12413248009008032, RadialProfile(
        (0.0, 0.11938319430638428, 0.35449402742393166, 1.6930298159993944),
        (1.9592090591440379, 1.865386078869699, 1.1818487850725563))))
    # a breakpoint at 2c puts the kink |c - t| = c at R = c, so the search
    # asks for slopes on balls through the origin, where the sphere riders
    # read low at small p = d - beta (p = 1.2 and 1.5 here)
    cases.append((12, 10.8, 0.7, RadialProfile((0.0, 0.3, 0.5, 1.4, 1.75), (2.0, 0.5, 1.5, 3.0))))
    cases.append((5, 3.5, 0.7, RadialProfile((0.0, 0.3, 1.4, 1.75), (2.0, 0.5, 3.0))))
    for d, beta, c, f in cases:
        m = PowerLawMeasure(d, beta)
        want = _dense_oracle_max(m, f, c)
        got = centered_max_radial(m, f, c, CRITERION9)
        assert abs(got - want) <= 1e-9 * want, (d, beta, c, got, want)


@pytest.mark.parametrize("d,beta,values", [(2, 0.5, (3.0, 1.0, 0.25)), (6, 1.0, (1.0, 0.5, 0.1)),
                                           (12, 3.0, (5.0, 0.2, 0.02)),
                                           (50, 12.5, (1.0, 0.5, 0.1))])
def test_max_right_beside_a_breakpoint(d, beta, values):
    # inside a piece (t_{k-1}, t_k) of value v_k every ball smaller than the
    # distance to the nearest breakpoint lies in the piece, so M >= v_k
    # however close c comes to t_k; the search's own radii start no lower
    # than 1e-6 r_hi, so the small-ball limit must seed its best value
    m = PowerLawMeasure(d, beta)
    f = RadialProfile((0.0, 0.4, 1.1, 2.0), values)
    cs = np.array([t * (1.0 + s * e) for t in (1.1, 2.0) for s in (-1.0, 1.0)
                   for e in (1e-9, 1e-7, 1e-6, 3e-6)])
    got = centered_max_radial_grid(m, f, cs, CRITERION9)
    v = f.value_at(cs)
    assert np.all(got >= v * (1.0 - CRITERION9.quad.tol)), (cs, got / v)
    # the dense oracle at the nearest and the farthest offsets
    for c, M in zip(cs.reshape(4, 4)[:, ::3].ravel(), got.reshape(4, 4)[:, ::3].ravel()):
        want = _dense_oracle_max(m, f, c, n=801)
        assert abs(M - want) <= 1e-9 * want, (c, M, want)


def test_max_inside_top_piece_is_max_value(monkeypatch):
    # no average exceeds max f and small balls inside the top piece attain
    # it, so no quadrature runs; c = 0 sees only the first piece, and on a
    # breakpoint between two pieces of value max f small balls average max f
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature run")

    monkeypatch.setattr(measure, "log_integrate_batch", no_quadrature)
    m = PowerLawMeasure(5, 2.0)
    f = RadialProfile((0.0, 0.5, 1.5, 2.0), (2.5, 0.5, 1.0))
    got = centered_max_radial_grid(m, f, [0.0, 1e-9, 0.2, 0.4999], FAST)
    assert np.all(got == max(f.values))
    f = RadialProfile((0.0, 0.5, 1.0, 2.0), (2.5, 2.5, 1.0))
    assert centered_max_radial(m, f, 0.5, FAST) == 2.5


@pytest.mark.parametrize("d,beta", [(2, 0.5), (5, 2.0), (12, 3.0)])
def test_small_ball_limit_matches_small_averages(d, beta):
    # interior points, breakpoints and c = 0, on a profile that starts at 0
    # and on one that starts at 0.3 (where balls at c = 0 miss it)
    m = PowerLawMeasure(d, beta)
    for f in (RadialProfile((0.0, 0.5, 1.5, 2.0), (2.5, 0.5, 1.0)),
              RadialProfile((0.3, 0.8, 1.4), (1.2, 0.7))):
        cs = [0.0, 0.2, 0.3, 0.5, 0.8, 1.0, 1.4, 1.5, 1.7, 2.0, 2.6]
        rho, limit = radial._small_balls(f, cs)
        assert np.array_equal(rho == 0, np.isin(cs, [t for t in f.breakpoints if t > 0]))
        want = [ball_average(m, f, c, 1e-7, FAST) for c in cs]
        assert limit == pytest.approx(want, rel=1e-5, abs=0.0), (f, cs)


def test_profile_without_mass_warns_and_gives_zero():
    m = PowerLawMeasure(4, 1.0)
    f = RadialProfile((0.0, 0.5, 1.0), (0.0, 0.0))
    with pytest.warns(RuntimeWarning, match="M_mu f = 0 everywhere"):
        got = centered_max_radial_grid(m, f, [0.0, 0.5, 2.0], FAST)
    assert np.array_equal(got, np.zeros(3))


def test_max_on_top_piece_breakpoint_is_below_max():
    # at c = 0.5 every ball straddles the pieces of value 2.5 and 0.5
    m = PowerLawMeasure(5, 2.0)
    f = RadialProfile((0.0, 0.5, 1.5, 2.0), (2.5, 0.5, 1.0))
    assert 0.5 < centered_max_radial(m, f, 0.5, FAST) < 2.5


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
    # from 1e-6 r_hi spent 809-813, the kink-bracket search at most 24),
    # identical across reruns; c = 0.004 on a breakpoint of indicator(0.004)
    # gets its lowest bracket like any other point (the log grid spent 289)
    counted = []
    batch = radial._ball_averages_batch

    def counting(m, f, cs, Rs, quad, slopes=False):
        counted[-1] += len(Rs)
        return batch(m, f, cs, Rs, quad, slopes)

    monkeypatch.setattr(radial, "_ball_averages_batch", counting)
    cases = [(PowerLawMeasure(d, beta), f, c, CRITERION9) for d, beta, c, f in BENCH_CASES]
    cases += [(PowerLawMeasure(12, 3.0), RadialProfile.indicator(0.004), 0.004, CRITERION10)]
    runs = []
    for _ in range(2):
        per_point = []
        for m, f, c, cfg in cases:
            counted.append(0)
            centered_max_radial(m, f, c, cfg)
            per_point.append(counted[-1])
        runs.append(per_point)
    assert runs[0] == runs[1]
    assert max(runs[0]) <= 24, runs[0]


def test_one_kink_rounded_two_ways_is_one_radius(monkeypatch):
    # at c = 1, |c - 0.6| and |c - 1.4| round to 0.4 and 0.39999999999999991:
    # kept apart, they bounded an empty bracket, and the search probed it up
    # to its round cap (6 rounds, 20 averages)
    f = RadialProfile((0.0, 0.6, 1.4, 2.5), (3.2128239280300233, 0.12230552253144772,
                                             1.1906054610444206))
    R = radial._kink_radii(f, 1.0, radial._small_balls(f, [1.0])[0][0])
    assert np.all(R[1:] > R[:-1] * (1.0 + 1e-9)), R
    sizes = []
    batch = radial._ball_averages_batch

    def counting(m, f, cs, Rs, quad, slopes=False):
        sizes.append(len(Rs))
        return batch(m, f, cs, Rs, quad, slopes)

    monkeypatch.setattr(radial, "_ball_averages_batch", counting)
    centered_max_radial(PowerLawMeasure(4, 1.0), f, 1.0, CRITERION9)
    assert len(sizes) <= 4 and sum(sizes) <= 14, sizes


# ---------------------------------------------------------------------------
# domination by the 1D uncentered operator
# ---------------------------------------------------------------------------

def test_domination_lebesgue_c_one(rng):
    m = PowerLawMeasure(3, 0.0)
    for _ in range(4):
        f = random_profile(rng, max_pieces=4)
        c = float(rng.uniform(0.2, 2.0))
        lhs = centered_max_radial(m, f, c, FAST)
        rhs = (1.0 + 1.0) * uncentered_max(m, f, c)
        assert lhs <= rhs * (1.0 + 1e-6), (lhs, rhs, c)


def test_domination_power_law(rng):
    for _ in range(6):
        d = int(rng.integers(2, 13))
        alpha = float(rng.uniform(0.2, d / 2))
        m = PowerLawMeasure(d, alpha)
        f = random_profile(rng, max_pieces=5)
        c = float(rng.uniform(0.1, 2.5))
        lhs = centered_max_radial(m, f, c, FAST)
        rhs = (certified_shift_constant(m) + 1.0) * uncentered_max(m, f, c)
        assert lhs <= rhs * (1.0 + 1e-6), (d, alpha, c, lhs, rhs)


def test_domination_far_support_zero():
    m = PowerLawMeasure(4, 1.0)
    f = RadialProfile((5.0, 6.0), (1.0,))
    # both sides positive but tiny far from the support; at the support they match
    assert uncentered_max(m, f, 5.5) == pytest.approx(1.0, rel=1e-12)
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
    cfg = MaximalConfig(quad=QuadratureConfig(tol=1e-6), level_grid=GridConfig(points=128))
    q = weak_type_quotient_radial(PowerLawMeasure(400, 0.0), RadialProfile.indicator(10.0),
                                  [0.5], cfg)
    assert math.isfinite(q)
    assert 0.499 <= q <= 4.0


def _criterion_10_levels(m, r0):
    f = RadialProfile.indicator(r0)
    lam_star = math.exp(log_ball_centered(m, r0).log
                        - log_ball_offcenter(m, BallSpec(1.0, 1.0 + r0)).log)
    return f, np.geomspace(0.25 * lam_star, 1.02 * lam_star, 10)


def test_crossing_search_on_criterion_10(monkeypatch):
    # criterion 10's d = 12, beta = 3, r0 = 0.004 case: lockstep bisection
    # of its 10 crossings takes 17 rounds, the interpolating search in ln t
    # 3 (at most 4 here), at criterion 10's tol 1e-6 and at the default
    # 1e-8 alike.  The brackets close to the quadrature's tol, which moves
    # each end by at most tol relative, so gamma0 and the quotient by about
    # (p + 1) tol against a reference at tol 1e-10.  The grid stage
    # radius-searches only the points the lower bound leaves unsettled and
    # their neighbours (162 points without the bound), and the work repeats
    # exactly
    d, beta, r0 = 12, 3.0, 0.004
    m = PowerLawMeasure(d, beta)
    f, lams = _criterion_10_levels(m, r0)
    sizes = []
    grid_max = radial._log_centered_max_grid

    def counted(m, f, ts, cfg):
        sizes.append(len(ts))
        return grid_max(m, f, ts, cfg)

    monkeypatch.setattr(radial, "_log_centered_max_grid", counted)
    q = weak_type_quotient_radial(m, f, lams, CRITERION10)
    first = list(sizes)
    rounds = len(sizes) - 1
    assert rounds <= 4, sizes
    assert sizes[0] <= 12, sizes
    sizes.clear()
    assert weak_type_quotient_radial(m, f, lams, CRITERION10) == q
    assert sizes == first
    ref = weak_type_quotient_radial(
        m, f, lams, dataclasses.replace(CRITERION10, quad=QuadratureConfig(tol=1e-10)))
    assert abs(q - ref) <= (d - beta + 1) * 1e-6 * ref, (q, ref)
    sizes.clear()
    q_default = weak_type_quotient_radial(m, f, lams, MaximalConfig())
    assert len(sizes) - 1 <= 4, sizes
    assert abs(q_default - ref) <= (d - beta + 1) * 1e-8 * ref, (q_default, ref)


def test_crossing_search_beside_a_steep_breakpoint(monkeypatch):
    # the radial-decreasing sweep's d = 12, beta = 1 case with values
    # (1, 0.5, 0.1): past the breakpoint 0.4, M_mu f falls from the mean
    # 0.75 like sqrt(t - 0.4), and one level crosses at t = 0.42249, where
    # an interpolating search in ln t misses.  The whole case takes at most
    # 13 max_fn calls, the grid's and one per round, and its quotient is
    # within (p + 1) tol of the same case at tol 1e-11
    m = PowerLawMeasure(12, 1.0)
    f = RadialProfile((0.0, 0.4, 1.1, 2.0), (1.0, 0.5, 0.1))
    log_lams = np.log(default_lambda_grid(m, f, 12))
    cfg = MaximalConfig(level_grid=GridConfig(points=128))
    sizes = []
    grid_max = radial._log_centered_max_grid

    def counted(m, f, ts, cfg):
        sizes.append(len(ts))
        return grid_max(m, f, ts, cfg)

    monkeypatch.setattr(radial, "_log_centered_max_grid", counted)
    q = radial._weak_type_quotient_logs(m, f, log_lams, cfg)
    assert len(sizes) <= 13, sizes
    ref = radial._weak_type_quotient_logs(
        m, f, log_lams, dataclasses.replace(cfg, quad=QuadratureConfig(tol=1e-11)))
    assert abs(q - ref) <= (m.homogeneity + 1.0) * cfg.quad.tol * ref, (q, ref)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_centered_max_dominates_the_piece_value_beside_each_breakpoint(seed):
    # M_mu f >= v_k on the open piece (t_{k-1}, t_k), right up to its ends,
    # which the crossing search's jump rule assumes: centres
    # t_k (1 -+ 10^-U(1, 10)) on each side of every t_k > 0, on profiles
    # with zero pieces and t_0 > 0, at d from 2 to 60
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 61))
    m = PowerLawMeasure(d, float(rng.uniform(-2.0, d - 0.05)))
    f = random_profile(rng)
    bp = np.asarray(f.breakpoints)
    t = bp[bp > 0]
    eps = 10.0 ** -rng.uniform(1.0, 10.0, (2, len(t)))
    xs = np.concatenate([t * (1.0 - eps[0]), t * (1.0 + eps[1])])
    # x lies in the piece k = (t_{k-1}, t_k], with v = 0 below t_0 and past t_n
    k = np.searchsorted(bp, xs, side="left")
    inside = ~np.isin(xs, bp)
    v = np.concatenate([[0.0], f.values, [0.0]])[k]
    got = centered_max_radial_grid(m, f, xs, FAST)
    assert np.all((got >= v * (1.0 - FAST.quad.tol))[inside]), (m, f, xs, got, v)


def test_crossing_settings_of_the_level_grid_change_no_quotient():
    # the crossing search takes its tolerance and round cap from quad.tol;
    # GridConfig's bisect_rel_tol and max_bisect are inert
    m = PowerLawMeasure(12, 3.0)
    f, lams = _criterion_10_levels(m, 0.004)
    bare = dataclasses.replace(CRITERION10, level_grid=GridConfig(points=128))
    assert CRITERION10.level_grid == GridConfig(128, 1e-6, 30)
    q = weak_type_quotient_radial(m, f, lams, CRITERION10)
    assert weak_type_quotient_radial(m, f, lams, bare).hex() == q.hex()


@pytest.mark.parametrize("d,beta", [(100, 2.0), (100, 25.0), (400, 2.0), (400, 100.0)])
def test_weak_type_sandwich_with_levels_below_the_double_range(d, beta):
    # at r0 = 2e-4, ln lambda* = ln mu(B(0, r0)) - ln mu(B(e1, 1 + r0)) is
    # -834, -631, -3389 and -2524, three of them below the double range
    # (about -745), and the levels are built from ln lambda*.  The measured
    # quotient lands between the point-mass certificate Delta(d, beta)
    # (q / Delta is 0.987-0.994) and the ceiling 2(C+1)
    r0 = 2e-4
    m = PowerLawMeasure(d, beta)
    log_lam = (log_ball_centered(m, r0).log
               - log_ball_offcenter(m, BallSpec(1.0, 1.0 + r0)).log)
    cfg = MaximalConfig(quad=QuadratureConfig(tol=1e-8), level_grid=GridConfig(points=128))
    q = radial._weak_type_quotient_logs(m, RadialProfile.indicator(r0),
                                        log_lam + np.log(np.geomspace(0.25, 1.02, 12)), cfg)
    lower = delta_lower_bound(d, beta).value
    assert 0.95 * lower <= q <= 2.0 * (certified_shift_constant(m) + 1.0), (q, lower)


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
        fns.append(args[5:8])
        return grid_logs(*args)

    monkeypatch.setattr(radial, "_grid_level_logs", spy)
    q = weak_type_quotient_radial(m, f, lams, CRITERION10)
    # the bound never exceeds the searched maximum, and far out, where the
    # best ball nearly holds all of f, it is within 1 % of it (both in logs)
    max_fn, _, lower_fn = fns[0]
    ts = np.geomspace(1e-3, 3.0, 25)
    lower, upper = lower_fn(ts), max_fn(ts)
    assert np.all(lower <= upper)
    assert lower[-1] > math.log(0.99) + upper[-1]
    monkeypatch.setattr(radial, "_grid_level_logs", lambda *args: grid_logs(*args[:7]))
    assert weak_type_quotient_radial(m, f, lams, CRITERION10) == q


def test_weak_type_radial_empty_lambda():
    m = PowerLawMeasure(3, 0.0)
    with pytest.raises(ValueError):
        weak_type_quotient_radial(m, RadialProfile.indicator(1.0), [], FAST)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            weak_type_quotient_radial(m, RadialProfile.indicator(1.0), [0.5, bad], FAST)


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


@pytest.mark.parametrize("beta", [10.8, 11.5])
def test_search_with_slopes_at_r_equal_c_matches_a_dense_sweep(monkeypatch, beta):
    # the breakpoint 1.4 = 2c puts the kink |c - 1.4| at R = c, a ball
    # through the origin, where the sphere riders read low for 1 < p < 2 and
    # diverge for p <= 1 (p = 1.2 and 0.5 here); the search takes slopes
    # there, and only their sign steers it, so it still finds the sup of a
    # dense sweep of averages (no riders), refined around its best radius
    m = PowerLawMeasure(12, beta)
    f = RadialProfile((0.0, 0.3, 0.5, 1.4, 1.75), (2.0, 0.5, 1.5, 3.0))
    c, quad = 0.7, QuadratureConfig(tol=1e-8)
    sloped = []
    batch = radial._ball_averages_batch

    def recording(m, f, cs, Rs, quad, slopes=False):
        if slopes:
            sloped.extend(Rs)
        return batch(m, f, cs, Rs, quad, slopes)

    monkeypatch.setattr(radial, "_ball_averages_batch", recording)
    got = centered_max_radial(m, f, c, MaximalConfig(quad=quad))
    assert c in sloped
    kinks = radial._kink_radii(f, c, radial._small_balls(f, [c])[0][0])
    R = np.unique(np.concatenate([np.geomspace(kinks[0], kinks[-1], 10_000), kinks]))
    want = 0.0
    for _ in range(5):
        A = np.exp(batch(m, f, np.full(len(R), c), R, quad))
        k = int(A.argmax())
        want = max(want, float(A[k]))
        R = np.linspace(R[max(k - 1, 0)], R[min(k + 1, len(R) - 1)], 64)
    assert want * (1.0 - quad.tol) <= got <= want * (1.0 + 1e-7), (got, want)
