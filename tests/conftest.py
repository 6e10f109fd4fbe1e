"""Shared helpers: random profile factory, quadrature oracles, acceptance report."""

import numpy as np
import pytest

from radialmax.maximal1d import RadialProfile, WeightedLineMeasure

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
    return WeightedLineMeasure(d, beta)


def profile_mass(p, f, t):
    """int_0^t f d(gamma0) in closed form, sum_k v_k (clip(t, t_{k-1}, t_k)^p - t_{k-1}^p)/p,
    with gamma0 = t^(p-1) dt; linear-space powers, so for moderate d and t only."""
    bp = np.asarray(f.breakpoints)
    v = np.asarray(f.values)
    t = np.asarray(t, dtype=float)[..., None]
    return (v * (np.clip(t, bp[:-1], bp[1:]) ** p - bp[:-1] ** p)).sum(axis=-1) / p


def oracle_uncentered_max(m, f, x, n_grid=10_000, t_hi=None):
    """Exhaustive interval search on a dense endpoint grid (plus breakpoints)."""
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
    best = -np.inf
    chunk = 2000
    for i in range(0, len(left), chunk):
        num = Nb[None, :] - Na[i:i + chunk, None]
        den = Gb[None, :] - Ga[i:i + chunk, None]
        # only the degenerate pair a = b = x has den <= 0, and there num = 0,
        # so clamping den leaves the maximum untouched
        np.maximum(den, 1e-300, out=den)
        num /= den
        best = max(best, float(num.max()))
    return best


def simpson(f, a, b, n=4001):
    """Composite Simpson oracle; n must be odd."""
    if n % 2 == 0:
        n += 1
    xs = np.linspace(a, b, n)
    ys = f(xs)
    h = (b - a) / (n - 1)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum()))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
