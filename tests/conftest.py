"""Shared helpers: random profile factory, acceptance report, and the test oracles.

The oracles share no code with what they check: Monte Carlo ball
averages, a golden-section maximizer of the spike profile, the dense-grid
M^u (searched on convex hulls, and checked against its own brute force),
an mpmath pair search for M^u over every breakpoint, composite Simpson,
the unit-ball volume from math.lgamma, and mpmath integrals over a ball's
sphere.  One reference is not an oracle: the rectangular all-pairs M^u,
which shares the library's log-space primitives so that the library's
pruned pair list can be checked against it bit for bit.
"""

import math

import numpy as np
import pytest

from radialmax.bounds import g_eval
from radialmax.maximal1d import RadialProfile
from radialmax.measure import PowerLawMeasure
from radialmax.specfun import NEG_INF, _log_piece_table, _log_power_interval, _step_terms

# one line per acceptance criterion, echoed after the run (see
# pytest_terminal_summary below); capture would otherwise swallow them
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_profile(rng, max_pieces=12, t_max=3.0, allow_zero_pieces=True):
    n = int(rng.integers(1, max_pieces + 1))
    bp = np.concatenate([[rng.uniform(0, 0.3) if rng.random() < 0.4 else 0.0],
                         np.sort(rng.uniform(0.05, t_max, n))])
    bp = np.unique(bp)
    while len(bp) < n + 1:
        bp = np.unique(np.concatenate([bp, rng.uniform(0.05, t_max, n + 1 - len(bp))]))
    vals = rng.uniform(0.0, 4.0, n)
    if not allow_zero_pieces or vals.max() == 0:
        vals = np.maximum(vals, 0.05)
    if vals.max() == 0:
        vals[0] = 1.0
    return RadialProfile(tuple(np.sort(bp)[: n + 1]), tuple(vals))


def random_line_measure(rng, d_max=50):
    d = int(rng.integers(1, d_max + 1))
    # spread beta over (-2, d): covers heavy weights and near-degenerate ones
    beta = float(rng.uniform(-2.0, d - 0.05))
    return PowerLawMeasure(d, beta)


def profile_mass(p, f, t):
    """int_0^t f d(gamma0) in closed form, sum_k v_k (clip(t, t_{k-1}, t_k)^p - t_{k-1}^p)/p,
    with gamma0 = t^(p-1) dt; linear-space powers, so for moderate d and t only."""
    bp = np.asarray(f.breakpoints)
    v = np.asarray(f.values)
    t = np.asarray(t, dtype=float)[..., None]
    return (v * (np.clip(t, bp[:-1], bp[1:]) ** p - bp[:-1] ** p)).sum(axis=-1) / p


def _convex_hull(G, N, lower: bool):
    """Indices of the lower (or upper) convex hull of the points (G_i, N_i), G
    ascending, by Andrew's monotone chain, each widened by its two neighbours
    so that rounding in the turn test drops no near-hull point."""
    G, N = G.tolist(), N.tolist()
    hull = []
    for i, (g, n) in enumerate(zip(G, N)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            turn = (G[a] - G[o]) * (n - N[o]) - (N[a] - N[o]) * (g - G[o])
            if (turn > 0) if lower else (turn < 0):
                break
            hull.pop()
        hull.append(i)
    hull = np.array(hull)
    return np.unique(np.clip(np.concatenate([hull - 1, hull, hull + 1]), 0, len(G) - 1))


def oracle_uncentered_max(m, f, x, n_grid=10_000, t_hi=None, reduce=True):
    """Exhaustive interval search on a dense endpoint grid (plus breakpoints).

    The average over (a, b) is the slope (N(b) - N(a)) / (G(b) - G(a)) of the
    points (G, N) = (gamma0(0, t), int_0^t f d(gamma0)).  For a fixed b the
    best a lies on the lower convex hull of the left points, and for a fixed
    a the best b on the upper hull of the right points (the maximum-density
    segment argument of Goldwasser, Kao and Lu, J. Comput. Syst. Sci. 2005),
    so with reduce the brute force runs on the hulls only: the same maximum
    over the same grid.  reduce=False searches every pair, the check on the
    reduction itself.
    """
    p = m.d - m.beta
    bp = np.asarray(f.breakpoints)
    if t_hi is None:
        t_hi = max(x, bp[-1]) * 1.5
    left = np.unique(np.concatenate(
        [np.linspace(0.0, x, n_grid // 2), bp[bp <= x], [x]]))
    right = np.unique(np.concatenate(
        [np.linspace(x, t_hi, n_grid // 2), bp[bp >= x], [x]]))
    Na, Ga = profile_mass(p, f, left), left ** p / p
    Nb, Gb = profile_mass(p, f, right), right ** p / p
    if reduce:
        a, b = _convex_hull(Ga, Na, lower=True), _convex_hull(Gb, Nb, lower=False)
        Na, Ga, Nb, Gb = Na[a], Ga[a], Nb[b], Gb[b]
    best = -np.inf
    chunk = 2000
    for i in range(0, len(Na), chunk):
        num = Nb[None, :] - Na[i:i + chunk, None]
        den = Gb[None, :] - Ga[i:i + chunk, None]
        # only the degenerate pair a = b = x has den <= 0, and there num = 0,
        # so clamping den leaves the maximum untouched
        np.maximum(den, 1e-300, out=den)
        num /= den
        best = max(best, float(num.max()))
    return best


def rect_log_uncentered_max(m, f, xs):
    """ln M^u f at many points over the rectangular (points x left x right)
    tensor of candidate pairs, every step-up left end against every
    step-down right end whatever side of x they lie on.

    Left ends are capped at x and right ends floored at it, so an end on
    the wrong side becomes an exact duplicate of the end at x (its mass and
    measure read -inf).  The same candidates, split at x and joined with
    the same log-space primitives as maximal1d._log_uncentered_max_grid,
    which forms the live pairs only: its result must match bit for bit.
    """
    xs = np.asarray(xs, dtype=float)
    p = m.homogeneity
    _, lt, v, lv, _, _, _, _ = _step_terms(p, f.breakpoints, f.values)
    n = len(f.values)
    table = _log_piece_table(p, f.breakpoints, f.values)
    left = np.flatnonzero(v[:-1] <= v[1:])
    right = np.flatnonzero(v[:-1] >= v[1:])
    q = np.searchsorted(f.breakpoints, xs, side="right")[:, None]
    lx = np.log(xs)[:, None]
    lt_q = np.concatenate([[NEG_INF], lt, [np.inf]])
    lv_q = lv[q]
    la = np.minimum(lt[left], lx)
    lb = np.maximum(lt[right], lx)
    empty = np.full((len(xs), 1), NEG_INF)
    with np.errstate(invalid="ignore"):
        cut_left = lv_q + _log_power_interval(p, lx, lt_q[q] - lx)
        cut_right = np.where(q <= n, lv_q + _log_power_interval(p, lt_q[q + 1], lx - lt_q[q + 1]),
                             NEG_INF)
        mass_a = np.where(left < q, np.logaddexp(table[left, np.maximum(q - 1, 0)], cut_left),
                          NEG_INF)
        mass_b = np.where(right >= q, np.logaddexp(cut_right, table[np.minimum(q, n), right]),
                          NEG_INF)
        gamma_a = _log_power_interval(p, lx, la - lx)
        gamma_b = _log_power_interval(p, lb, lx - lb)
        num = np.logaddexp(np.concatenate([empty, mass_a], axis=1)[:, :, None],
                           np.concatenate([empty, mass_b], axis=1)[:, None, :])
        den = np.logaddexp(np.concatenate([empty, gamma_a], axis=1)[:, :, None],
                           np.concatenate([empty, gamma_b], axis=1)[:, None, :])
        log_avg = np.where(den > NEG_INF, num - den, NEG_INF)
    return log_avg.max(axis=(1, 2))


def mp_log_uncentered_max(d, beta, breakpoints, values, x):
    """ln M^u f(x) by mpmath at 40 digits: the largest average of f over (a, b)
    with 0 <= a <= x <= b, every pair of ends from 0, the breakpoints and x.

    The average is (N(b) - N(a)) / (G(b) - G(a)) with G(t) = t^p/p and
    N(t) = sum_k v_k (clip(t, t_{k-1}, t_k)^p - t_{k-1}^p)/p, p = d - beta,
    each in closed form.  A step profile's interval optima sit at these
    ends, so the pair search is the exact maximum; no pair is pruned.
    """
    from mpmath import mp
    with mp.workdps(40):
        p = mp.mpf(d) - mp.mpf(beta)
        bps = [mp.mpf(t) for t in breakpoints]
        vals = [mp.mpf(v) for v in values]
        x = mp.mpf(x)

        def G(t):
            return t ** p / p

        def N(t):
            return sum(v * (G(min(max(t, a), b)) - G(a)) for a, b, v in zip(bps, bps[1:], vals))

        ends = sorted({mp.mpf(0), x, *bps})
        left = [(G(t), N(t)) for t in ends if t <= x]
        right = [(G(t), N(t)) for t in ends if t >= x]
        best = max((nb - na) / (gb - ga) for ga, na in left for gb, nb in right if gb > ga)
        return float(mp.log(best))


def simpson(f, a, b, n=4001):
    """Composite Simpson oracle; n must be odd."""
    if n % 2 == 0:
        n += 1
    xs = np.linspace(a, b, n)
    ys = f(xs)
    h = (b - a) / (n - 1)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum()))


def log_unit_ball_volume(d):
    """ln of the Lebesgue volume of the unit ball: ln(pi^{d/2} / Gamma(d/2 + 1))."""
    return 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)


def mp_log_sphere_integrals(d, beta, c, R, breakpoints, values):
    """(ln sigma, ln sigma_f): the integrals of |y|^(-beta) and of
    f(|y|) |y|^(-beta) over the sphere |y - c e1| = R, by mpmath at 30 digits.

    f is values[k] on (breakpoints[k], breakpoints[k + 1]] and 0 elsewhere.
    By co-area these are the R-derivatives of the ball's measure and of f's
    mass in it.  Polar coordinates about the centre, y = c e1 + R (cos psi e1
    + sin psi u) with u on the unit sphere of R^(d-1), give
    dS = R^(d-1) sin^(d-2)(psi) dpsi du and, with s = pi - psi,
    |y|^2 = (c - R)^2 + 4cR sin^2(s/2).  |y| turns over s ~ |c - R|/sqrt(cR),
    so the range of s is cut geometrically from there, and where |y| meets a
    breakpoint, which keeps f constant on each cut.
    """
    from mpmath import mp
    mp.dps = 30
    c, R = mp.mpf(c), mp.mpf(R)
    bps = [mp.mpf(t) for t in breakpoints]
    gap2 = (c - R) ** 2

    def radius(s):
        return mp.sqrt(gap2 + 4 * c * R * mp.sin(s / 2) ** 2)

    cuts = {mp.mpf(0), mp.pi}
    s = max(abs(c - R) / mp.sqrt(c * R), mp.mpf(10) ** -30)
    while s < mp.pi:
        cuts.add(s)
        s *= 4
    for t in bps:
        if abs(c - R) < t < c + R:
            cuts.add(2 * mp.asin(mp.sqrt((t * t - gap2) / (4 * c * R))))
    cuts = sorted(cuts)

    def value(r):
        for a, b, v in zip(bps, bps[1:], values):
            if a < r <= b:
                return mp.mpf(v)
        return mp.mpf(0)

    area = mass = mp.mpf(0)
    for a, b in zip(cuts, cuts[1:]):
        part = mp.quad(lambda s: mp.sin(s) ** (d - 2) * radius(s) ** (-mp.mpf(beta)), [a, b])
        area += part
        mass += value(radius((a + b) / 2)) * part
    log_area = (mp.log(2) + mp.mpf(d - 1) / 2 * mp.log(mp.pi) - mp.loggamma(mp.mpf(d - 1) / 2)
                + (d - 1) * mp.log(R))
    return float(log_area + mp.log(area)), float(log_area + mp.log(mass)) if mass else -math.inf


def mc_ball_average(m, f, c, R, n_samples=10 ** 6, seed=0):
    """Monte Carlo ball average of f over B(c e1, R) in low dimension.

    Rejection-samples uniform points of B(c e1, R) from its bounding cube,
    weights them by the power-law density, and returns the ratio estimate
    with a linearized standard error.  Meant for d = 2, 3 cross-checks.
    """
    if m.d > 4:
        raise ValueError("Monte Carlo oracle is for low dimensions")
    rng = np.random.default_rng(seed)
    got = 0
    radii = np.empty(n_samples)
    while got < n_samples:
        draw = int((n_samples - got) * 2.2) + 64
        u = rng.uniform(-R, R, size=(draw, m.d))
        u = u[(u * u).sum(axis=1) <= R * R]
        take = min(len(u), n_samples - got)
        y = u[:take]
        y[:, 0] += c
        radii[got:got + take] = np.sqrt((y * y).sum(axis=1))
        got += take
    w = radii ** (-m.beta)
    fw = f.value_at(radii) * w
    mean_w = w.mean()
    ratio = fw.mean() / mean_w
    resid = fw - ratio * w
    se = math.sqrt(float((resid * resid).mean()) / n_samples) / mean_w
    return ratio, se


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi ~ 0.618


def numeric_g_maximizer(alpha, lo, hi):
    """Golden-section maximizer of the spike profile g on [lo, hi], derivative-polished.

    Golden section (one g evaluation reused per step) brackets the maximum
    to width 1e-6 in about 32 steps on the slice window, but value
    comparisons stall once g flattens below rounding noise, around
    |t - t*| ~ 1e-8.  The sign of the Richardson five-point derivative with
    step h = 1e-4 max(t, 0.1) stays readable down to a few 1e-12, so
    bisecting it on [t - h, t + h] to width 1e-11 (about 26 steps) brings
    the located maximum within ~1e-11 of the true root, an oracle
    independent of the closed-form quadratic solution.
    """
    g = lambda t: g_eval(alpha, t)
    a, b = lo, hi
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    gc, gd = g(c), g(d)
    while b - a > 1e-6:
        if gc > gd:
            b, d, gd = d, c, gc
            c = b - _INVPHI * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _INVPHI * (b - a)
            gd = g(d)
    t = 0.5 * (a + b)
    h = 1e-4 * max(t, 0.1)

    def dsign(x):  # ~ 12 h g'(x), O(h^5) truncation
        return 8.0 * (g(x + h) - g(x - h)) - (g(x + 2 * h) - g(x - 2 * h))

    a, b = t - h, t + h
    if not dsign(a) > 0.0 > dsign(b):
        return t
    while b - a > 1e-11:
        mid = 0.5 * (a + b)
        s = dsign(mid)
        if s > 0.0:
            a = mid
        elif s < 0.0:
            b = mid
        else:
            return mid
    return 0.5 * (a + b)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
