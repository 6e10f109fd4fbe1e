"""Centered maximal operator of radial profiles under power-law measures.

The average over B(c e1, R) of a radial step profile is one ray
quadrature of the measure module with two components on shared nodes,
the ball's measure and the profile's mass, so evaluating the radius
supremum at one point, or along a whole grid of points, is a single
batched quadrature run.  Level sets in R^d are taken through the radial
section: the angular factor cancels from the weak-type quotient, and
maximal1d._grid_level_logs samples this module's maximal function on a
bracketing grid and closes its crossings with a safeguarded secant in
ln t, with every measure in logs.  The average over B(t e1, t + t_n),
which holds all of f, bounds M(t) from below and settles the grid points
that lie above every level without a radius search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .maximal1d import (
    GridConfig,
    RadialProfile,
    WeightedLineMeasure,
    _check_levels,
    _grid_level_logs,
    _log_l1,
    uncentered_max,
)
from .measure import (
    PowerLawMeasure,
    _batched_shell_logs,
    shift_condition_ratios,
)
from .quadrature import QuadratureConfig
from .specfun import NEG_INF

__all__ = [
    "MaximalConfig",
    "DominationCheck",
    "ball_average",
    "centered_max_radial",
    "centered_max_radial_grid",
    "pointwise_domination_check",
    "weak_type_quotient_radial",
    "certified_shift_constant",
    "mc_ball_average",
]

# radius-grid ceiling and samples per refine round (see MaximalConfig)
_MAX_RADII = 4096
_REFINE_POINTS = 17


@dataclass(frozen=True)
class MaximalConfig:
    """Radius-search and quadrature settings for the centered operator.

    The radius grid holds radii_per_decade log-spaced radii per decade
    (clipped to [min_radii, _MAX_RADII]) from the floor max(distance to the
    support, rho(c)) up to c + t_n, where rho(c) is the distance from c to
    the nearest breakpoint t > 0; below rho(c) the average is the value of
    c's own piece, known without a grid.  Each of the refine_rounds then
    samples _REFINE_POINTS radii across the bracket around the best one,
    and one parabolic step through the best radius and its two neighbours
    from the last stage closes the search.
    Points strictly inside a piece of value max f skip it: there
    M_mu f = max f exactly.
    """

    radii_per_decade: int = 512
    min_radii: int = 48
    refine_rounds: int = 3
    quad: QuadratureConfig = field(default_factory=lambda: QuadratureConfig(tol=1e-8))
    level_grid: GridConfig = field(default_factory=GridConfig)


DEFAULT_MAXIMAL = MaximalConfig()


def _positive_pieces(f: RadialProfile):
    bp = f.breakpoints
    return [
        (bp[i], bp[i + 1], v) for i, v in enumerate(f.values) if v > 0
    ]


def _ball_averages_batch(m: PowerLawMeasure, f: RadialProfile, cs, Rs,
                         quad: QuadratureConfig) -> np.ndarray:
    """Averages of f over B(c_i e1, R_i) for many balls, one quadrature pass each.

    The ball's measure and its f-mass are two components on shared nodes
    (measure._batched_shell_logs).  Node by node the f-mass is at most
    max f times the measure, so the clamp to max f only guards rounding.
    """
    with np.errstate(divide="ignore"):
        log_v = np.log(f.values)
    logs = _batched_shell_logs(m, cs, Rs, f.breakpoints, log_v, quad, with_chord=True)
    return np.minimum(np.exp(logs[:, 1] - logs[:, 0]), max(f.values))


def ball_average(m: PowerLawMeasure, f: RadialProfile, c: float, R: float,
                 cfg: MaximalConfig = DEFAULT_MAXIMAL) -> float:
    """Average of the radial profile over the ball B(c e1, R)."""
    if R <= 0:
        raise ValueError("radius must be > 0")
    return float(_ball_averages_batch(m, f, [c], [R], cfg.quad)[0])


def _own_piece(f: RadialProfile, c: float) -> tuple[float, float]:
    """(rho, v): rho = min |c - t_i| over breakpoints t_i > 0, and the value v
    that f takes on every ball B(c e1, R) with R < rho.

    Such a ball stays inside one constancy piece up to the origin, which
    has measure zero (hence t = 0 is left out, and c = 0 sees the first
    piece when it starts at 0).  rho = 0 when c sits on a breakpoint
    t > 0, and then every ball straddles two pieces.
    """
    rho = min(abs(c - t) for t in f.breakpoints if t > 0)
    return rho, (f.value_at(c + 0.5 * rho) if rho > 0 else 0.0)


def _radius_grid(f: RadialProfile, c: float, cfg: MaximalConfig) -> np.ndarray:
    """Candidate radii for the supremum at center distance c.

    Log-spaced from the floor max(distance to the support, rho(c)) up to
    c + t_n, plus the kink radii |c - t_i| and c + t_i where the ball
    boundary crosses a breakpoint.  Below rho(c) the ball lies inside c's
    own piece and the average is that piece's value exactly, so one radius
    0.5 rho(c) stands for the whole R -> 0 side.
    """
    pieces = _positive_pieces(f)
    t_hi = max(p[1] for p in pieces)
    r_hi = c + t_hi
    dist_pos = min(max(p[0] - c, c - p[1], 0.0) for p in pieces)
    rho, own = _own_piece(f, c)
    floor = max(dist_pos, rho, 1e-6 * r_hi)
    if floor >= r_hi:
        floor = 0.5 * r_hi
    n = int(np.clip(math.ceil(math.log10(r_hi / floor) * cfg.radii_per_decade),
                    cfg.min_radii, _MAX_RADII))
    grid = np.geomspace(floor, r_hi, n)
    specials = [r_hi]
    for t in f.breakpoints:
        for cand in (abs(c - t), c + t):
            if floor < cand <= r_hi:
                specials.append(cand)
    if own > 0:
        specials.append(0.5 * rho)
    return np.unique(np.concatenate([grid, specials]))


def _best_three(R: np.ndarray, A: np.ndarray):
    """Per row: the best average and the radii/averages at argmax-1, argmax, argmax+1.

    Neighbours are clipped at the row ends, so an edge maximum repeats its
    own radius and gets no parabola.
    """
    k = A.argmax(axis=1)
    row = np.arange(len(R))
    idx = (np.maximum(k - 1, 0), k, np.minimum(k + 1, R.shape[1] - 1))
    return A[row, k], [R[row, j] for j in idx], [A[row, j] for j in idx]


def _parabola_vertex(x, y):
    """Vertex of the parabola through three points, clipped to [x0, x2]; NaN
    where the points are not strictly ordered or not strictly concave."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    with np.errstate(divide="ignore", invalid="ignore"):
        s0 = (y1 - y0) / (x1 - x0)
        s2 = (y2 - y1) / (x2 - x1)
        v = x1 + 0.5 * ((x1 - x0) * s2 + (x2 - x1) * s0) / (s0 - s2)
    ok = (x0 < x1) & (x1 < x2) & (s2 < s0)
    return np.where(ok, np.clip(v, x0, x2), np.nan)


def centered_max_radial_grid(m: PowerLawMeasure, f: RadialProfile, cs,
                             cfg: MaximalConfig = DEFAULT_MAXIMAL) -> np.ndarray:
    """M_mu f at many center distances, sharing one batched radius search.

    Where every small ball around c lies in a piece of value max f (c
    strictly inside that piece, see _own_piece), M_mu f(c) = max f
    exactly, since no average exceeds max f; those points skip the search.  The others get
    one batched stage for the radius grid (see _radius_grid), one per
    refine round on the interior of the bracket around the best radius
    (its two ends keep the averages they already have), and a last stage
    at the vertex of the parabola through the best radius and its two
    neighbours, taken only where those three averages are concave.  Each
    stage can only raise the running best.
    """
    cs = np.asarray(cs, dtype=float)
    if f.positive_support() is None:
        warnings.warn("profile carries no mass: empty radius window, returning 0",
                      RuntimeWarning)
        return np.zeros(len(cs))
    vmax = max(f.values)
    out = np.full(len(cs), vmax)
    todo = np.flatnonzero([_own_piece(f, c)[1] < vmax for c in cs])
    if len(todo) == 0:
        return out
    cs = cs[todo]
    grids = [_radius_grid(f, c, cfg) for c in cs]
    width = max(len(g) for g in grids)
    # ragged grids padded with their last radius; pads average -inf
    R = np.stack([np.pad(g, (0, width - len(g)), mode="edge") for g in grids])
    real = np.arange(width)[None, :] < np.array([len(g) for g in grids])[:, None]
    A = np.full(R.shape, NEG_INF)
    A[real] = _ball_averages_batch(m, f, np.broadcast_to(cs[:, None], R.shape)[real],
                                   R[real], cfg.quad)
    best, x, y = _best_three(R, A)
    # a maximum at a row's last real radius has its right neighbour on a
    # pad, which repeats that radius: its average is the maximum itself
    y[2] = np.where(y[2] == NEG_INF, y[1], y[2])

    inner = _REFINE_POINTS - 2
    for _ in range(cfg.refine_rounds):
        # linspace reproduces both ends, whose averages are y[0] and y[2]
        R = np.linspace(x[0], x[2], _REFINE_POINTS, axis=1)  # (n, _REFINE_POINTS)
        A = np.column_stack([y[0], _ball_averages_batch(
            m, f, np.repeat(cs, inner), R[:, 1:-1].ravel(), cfg.quad).reshape(len(cs), inner),
            y[2]])
        a, x, y = _best_three(R, A)
        best = np.maximum(best, a)

    v = _parabola_vertex(x, y)
    ok = ~np.isnan(v)
    if ok.any():
        best[ok] = np.maximum(best[ok], _ball_averages_batch(m, f, cs[ok], v[ok], cfg.quad))
    out[todo] = best
    return out


def centered_max_radial(m: PowerLawMeasure, f: RadialProfile, c: float,
                        cfg: MaximalConfig = DEFAULT_MAXIMAL) -> float:
    """sup over R > 0 of the ball average of f at center distance c >= 0."""
    return float(centered_max_radial_grid(m, f, np.array([float(c)]), cfg)[0])


@dataclass(frozen=True)
class DominationCheck:
    lhs: float
    rhs: float
    ok: bool


def pointwise_domination_check(m: PowerLawMeasure, f: RadialProfile, c: float, C: float,
                               cfg: MaximalConfig = DEFAULT_MAXIMAL) -> DominationCheck:
    """Check M_mu f(c) <= (C+1) M^u_{gamma0} f0(c) for a supplied shift constant C."""
    line = WeightedLineMeasure(m.d, m.beta)
    lhs = centered_max_radial(m, f, c, cfg)
    rhs = (C + 1.0) * uncentered_max(line, f, c)
    return DominationCheck(lhs, rhs, lhs <= rhs * (1.0 + 1e-6))


def _shift_constants(beta: float) -> tuple[float, float]:
    """(4 * 6^(beta/2), 2 * 6^(beta/2)): the shift constant for all r and for r <= 1/sqrt(5)."""
    return 4.0 * 6.0 ** (beta / 2.0), 2.0 * 6.0 ** (beta / 2.0)


def certified_shift_constant(m: PowerLawMeasure) -> float:
    """The certified shift constant for power laws.

    Radial non-decreasing measures (beta <= 0) shift toward the origin
    without growing, so C = 1.  For 0 < beta <= d/2 the constant
    4 * 6^(beta/2) works.  Beyond beta = d/2 there is no certificate here
    and a measured bound must be used instead.
    """
    if m.beta <= 0:
        return 1.0
    if m.beta <= m.d / 2:
        return _shift_constants(m.beta)[0]
    raise ValueError("no certified shift constant for beta > d/2")


def _window_shift_constant(m: PowerLawMeasure, quad: QuadratureConfig) -> float:
    try:
        return certified_shift_constant(m)
    except ValueError:
        # measured stand-in: grid supremum of the shift ratio with headroom
        sup = float(shift_condition_ratios(m, np.linspace(1e-3, 1.0, 64), quad).max())
        return 1.5 * sup


def weak_type_quotient_radial(m: PowerLawMeasure, f: RadialProfile, lambdas,
                              cfg: MaximalConfig = DEFAULT_MAXIMAL) -> float:
    """max over the lambda grid of lambda * mu{M_mu f > lambda} / ||f||_1.

    Level sets of M_mu f are radial, so mu{...} = omega_{d-1} *
    gamma0{c : M(c) > lambda} and the sphere area cancels against the one
    in ||f||_1; everything happens on the radial section, and the quotient
    is formed in logs, so it stays finite where gamma0 overflows a double.
    """
    line = WeightedLineMeasure(m.d, m.beta)
    lambdas = _check_levels(line, f, lambdas)
    # bracketing window via the 1D control: M_mu f <= (C+1) M^u f0
    C = _window_shift_constant(m, cfg.quad)
    max_fn = lambda ts: centered_max_radial_grid(m, f, ts, cfg)
    # B(t e1, t + t_n) holds all of f, and its radius is the last one of the
    # radius search (_radius_grid), so M(t) is at least its average, which
    # is the search's own value there: averages do not depend on the batch
    t_n = f.positive_support()[1]
    lower_fn = lambda ts: _ball_averages_batch(m, f, ts, ts + t_n, cfg.quad)
    log_mu, _ = _grid_level_logs(line, f, lambdas, cfg.level_grid, max_fn, C + 1.0, lower_fn)
    return math.exp(float((np.log(lambdas) + log_mu).max()) - _log_l1(line, f))


def mc_ball_average(m: PowerLawMeasure, f: RadialProfile, c: float, R: float,
                    n_samples: int = 10 ** 6, seed: int = 0):
    """Monte Carlo oracle for ball_average in low dimension.

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
        keep = (u * u).sum(axis=1) <= R * R
        u = u[keep]
        take = min(len(u), n_samples - got)
        y = u[:take]
        y[:, 0] += c
        radii[got:got + take] = np.sqrt((y * y).sum(axis=1))
        got += take
    w = radii ** (-m.beta)
    fw = f.value_at(radii) * w
    mean_w = w.mean()
    mean_fw = fw.mean()
    ratio = mean_fw / mean_w
    resid = fw - ratio * w
    se = math.sqrt(float((resid * resid).mean()) / n_samples) / mean_w
    return ratio, se
