"""Centered maximal operator of radial profiles under power-law measures.

The average over B(c e1, R) of a radial step profile is one ray
quadrature of the measure module with two components on shared nodes,
the ball's measure and the profile's mass, and its slope in R rides on
the same nodes.  The radius supremum is a bracketed search on the sign
of that slope between the kink radii, run in lockstep for a whole grid
of points as a few batched quadrature runs.  Level sets in R^d are taken
through the radial section: the angular factor cancels from the weak-type quotient, and
maximal1d._grid_level_logs samples this module's maximal function on a
bracketing grid and closes its crossings in ln t by Chandrupatla's rule
inside ITP's minmax radius; a crossing at a breakpoint where M jumps
closes there at once, since M >= v_k on the open piece (t_{k-1}, t_k) of
value v_k: every ball smaller than the distance to the piece's ends lies
in it, which is why the radius search starts from the small-ball limit
at every point.  From the ball average
to the quotient every number is a log, so levels below the double range
still count; linear values exist only at the public functions.  The
average over B(t e1, t + t_n), which holds all of f, bounds M(t) from
below and settles the grid points that lie above every level without a
radius search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .maximal1d import (
    GridConfig,
    RadialProfile,
    _check_levels,
    _grid_level_logs,
    _log_l1,
)
from .measure import (
    BallSpec,
    PowerLawMeasure,
    _batched_shell_logs,
    _grid_points,
    shift_condition_ratios,
)
from .quadrature import QuadratureConfig
from .specfun import NEG_INF, _step_terms

__all__ = [
    "MaximalConfig",
    "ball_average",
    "centered_max_radial",
    "centered_max_radial_grid",
    "weak_type_quotient_radial",
    "certified_shift_constant",
]

# the bracketed search for the radius supremum (_radius_supremum)
_SEARCH_ROUNDS = 12  # round cap
_GAIN_SHARE = 0.001  # share of quad.tol to which a bracket's tangents bound its gain
_EDGE = 0.02         # least share of a bracket between a trial radius and an end,
_EDGE_NEW = 0.005    # and next to the end that the last round placed
_MERGE = 1e-9        # relative distance below which two kink radii are one
# floating-point flags its bracket algebra raises on purpose (ln 0 = -inf,
# and inf - inf = NaN at a bracket end where A = 0)
_QUIET = dict(divide="ignore", invalid="ignore", over="ignore")


@dataclass(frozen=True)
class MaximalConfig:
    """Radius-search and quadrature settings for the centered operator.

    The radius supremum is searched in the brackets between the kink
    radii, where the ball's boundary meets a breakpoint sphere (see
    _radius_supremum); its quad sets the accuracy of every average and,
    through it, when a radius or level-set crossing bracket stops.
    radii_per_decade, min_radii and refine_rounds steered an earlier radius
    grid and change no result; existing callers still pass them.
    A point skips the search where lim_{R -> 0} A = max f: there
    M_mu f = max f exactly.
    """

    radii_per_decade: int = 512
    min_radii: int = 48
    refine_rounds: int = 3
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)
    level_grid: GridConfig = field(default_factory=GridConfig)


_DEFAULT_MAXIMAL = MaximalConfig()


def _ball_averages_batch(m: PowerLawMeasure, f: RadialProfile, cs, Rs,
                         quad: QuadratureConfig, slopes: bool = False):
    """ln of the averages of f over B(c_i e1, R_i), one quadrature pass each ball.

    The ball's measure and its f-mass are two components on shared nodes
    (measure._batched_shell_logs).  Node by node the f-mass is at most
    max f times the measure, so the clamp to ln max f only guards rounding.
    With slopes, returns (ln A, d ln A / d ln R): by co-area the derivatives
    of the measure and the mass are the weighted area sigma(R) of the
    ball's sphere and f's mass on it, sigma S, which ride on the same
    nodes, and R (sigma S / F - sigma / mu) = (R sigma / mu)(S / A - 1).
    The slope is +inf where the ball misses f (A = 0).
    """
    logs = _batched_shell_logs(m, cs, Rs, f.breakpoints, f.values, quad, parts=4 if slopes else 2)
    log_vmax = _step_terms(m.homogeneity, f.breakpoints, f.values).log_v.max()
    log_avg = np.minimum(logs[:, 1] - logs[:, 0], log_vmax)
    if not slopes:
        return log_avg
    with np.errstate(invalid="ignore", over="ignore"):
        slope = np.asarray(Rs) * (np.exp(logs[:, 3] - logs[:, 1]) - np.exp(logs[:, 2] - logs[:, 0]))
    return log_avg, np.where(logs[:, 1] == NEG_INF, np.inf, slope)


def ball_average(m: PowerLawMeasure, f: RadialProfile, c: float, R: float,
                 cfg: MaximalConfig = _DEFAULT_MAXIMAL) -> float:
    """Average of the radial profile over the ball B(c e1, R)."""
    BallSpec(c, R)  # checks c and R, naming the bad one
    return math.exp(_ball_averages_batch(m, f, [c], [R], cfg.quad)[0])


def _small_balls(f: RadialProfile, cs) -> tuple[np.ndarray, np.ndarray]:
    """(rho, limit) per center distance c: how far small balls B(c e1, R)
    stay inside one piece, and lim_{R -> 0} of their average.

    rho = min |c - t_i| over breakpoints t_i > 0.  A ball with R < rho lies
    in c's own piece up to the origin, which has measure zero (hence t = 0
    is left out, and c = 0 sees the first piece when it starts at 0), so
    the limit is that piece's value.  rho = 0 when c sits on a breakpoint
    t > 0: the sphere |y| = t halves small balls, and the weight is flat
    across them, so the limit is the mean of the two pieces beside it.
    """
    cs = np.asarray(cs, dtype=float)
    bp = np.asarray(f.breakpoints)
    rho = np.abs(cs[:, None] - bp[bp > 0]).min(axis=1)
    vals = np.array((0.0, *f.values, 0.0))
    k = np.searchsorted(bp, cs, side="right")
    return rho, np.where(rho == 0, 0.5 * (vals[k - 1] + vals[k]), vals[k])


def _kink_radii(f: RadialProfile, c: float, rho: float) -> np.ndarray:
    """The radii that split the search at center distance c, ascending.

    The floor max(distance to the support, rho of _small_balls), below
    which the ball misses f or stays in c's own piece (a point on a
    breakpoint, rho = 0, starts at 1e-6 r_hi); the kink radii |c - t_i| and
    c + t_i, where the ball's boundary meets a breakpoint sphere t_i > 0;
    and r_hi = c + t_n, past which the ball holds all of f and its average
    falls.  A kink within _MERGE (relative) of a radius below it, or of
    r_hi, is the same kink formed by another rounding (|1 - 0.6| and
    |1 - 1.4|, say), and is left out: the bracket between them would be
    empty.
    """
    bp = f.breakpoints
    pieces = [(a, b) for a, b, v in zip(bp, bp[1:], f.values) if v > 0]
    r_hi = c + max(b for _, b in pieces)
    dist_pos = min(max(a - c, c - b, 0.0) for a, b in pieces)
    floor = max(dist_pos, rho, 1e-6 * r_hi)
    if floor >= r_hi:
        floor = 0.5 * r_hi
    radii = [floor]
    for r in sorted(r for t in f.breakpoints if t > 0 for r in (abs(c - t), c + t)):
        if radii[-1] * (1.0 + _MERGE) < r < r_hi * (1.0 - _MERGE):
            radii.append(r)
    return np.array(radii + [r_hi])


# the bracket helpers below run under np.errstate(**_QUIET)

# rows of _radius_supremum's bracket state: the ends ua < ub in u = ln R, ln A
# and its slope at each, the end that the last round replaced (u_old, s_old),
# and the round's trial point (ut, yt, st)
_BRACKET_ROWS = _UA, _UB, _YA, _YB, _SA, _SB, _UO, _SO, _UT, _YT, _ST = range(11)
# the state after a round that keeps the half above the trial, or below it
_HALF_HI = np.array([_UT, _UB, _YT, _YB, _ST, _SB, _UA, _SA])
_HALF_LO = np.array([_UA, _UT, _YA, _YT, _SA, _ST, _UB, _SB])
# (ya, yb, sa, sb) of the lower half, then the upper, for one _holds_max call
_HALVES = np.array([[_YA, _YT], [_YT, _YB], [_SA, _ST], [_ST, _SB]])


def _holds_max(ya, yb, sa, sb):
    """Brackets whose end data force an interior maximum of ln A.

    The slope goes from + (or 0) to -, or both slopes have one sign while
    the ends step the other way, so that ln A rises and then falls in
    between.  A NaN slope counts as either sign.
    """
    dy = yb - ya
    falls = sa < 0
    return (~(falls | (sb >= 0)) | (falls & (sb < 0) & (dy > 0))
            | ((sa > 0) & (sb > 0) & (dy < 0)))


def _tangent_gain(ua, ub, ya, yb, sa, sb):
    """Bound on max ln A over [ua, ub] from the end tangents of ln A in u = ln R.

    The peak of min(ya + sa (u - ua), yb + sb (u - ub)), which bounds a
    concave ln A; +inf where the end data do not fit a concave ln A, that
    is unless sa >= secant >= sb, all finite.
    """
    dy = yb - ya
    u = np.clip((dy + sa * ua - sb * ub) / (sa - sb), ua, ub)
    peak = np.minimum(ya + sa * (u - ua), yb + sb * (u - ub))
    secant = dy / (ub - ua)
    concave = (sa >= secant) & (secant >= sb) & np.isfinite(ya + yb + sa + sb)
    return np.where(concave, peak, np.inf)


def _trial_point(ua, ub, ya, yb, sa, sb, u_old, s_old):
    """Next radius (in u = ln R) inside brackets that hold a maximum.

    The local maximizer of the cubic Hermite interpolant of ln A on the
    bracket, kept off its ends by _EDGE of it, or by _EDGE_NEW next to the
    end that the last round placed, which lies near the root once the steps
    close in; where an end value is not finite (A = 0), the root of the
    secant of the slopes, or the midpoint where that is not inside either.
    Where the end that the last round replaced, (u_old, s_old), lies
    closer to the newer end than the other end does, the secant of their
    slopes extrapolates to the root instead, as long as it lands inside
    the bracket: a far end, past a kink's convex start or a steep fall,
    then no longer steers the step.
    """
    w = ub - ua
    # p'(x) = a x^2 + b x + c0 on x in [0, 1]; its root with p'' < 0
    dy6 = 6.0 * (yb - ya)
    a = 3.0 * w * (sa + sb) - dy6
    b = dy6 - 2.0 * w * (2.0 * sa + sb)
    c0 = w * sa
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * c0, 0.0)), b))
    # the roots q / a and c0 / q, one row each
    r = np.empty((2, len(q)))
    np.divide(q, a, out=r[0])
    np.divide(c0, q, out=r[1])
    peak = (r > 0) & (r < 1) & (2.0 * a * r + b < 0)
    hermite = np.where(peak[1], r[1], np.where(peak[0], r[0], np.nan))
    secant = sa / (sa - sb)
    x = np.where(np.isfinite(ya + yb + sa + sb + hermite), hermite,
                 np.where((secant > 0) & (secant < 1), secant, 0.5))
    left, right = u_old < ua, u_old > ub  # the end the last round placed
    # x lies in (0, 1) here, so this is np.clip without its wrapper
    x = np.minimum(np.maximum(x, np.where(left, _EDGE_NEW, _EDGE)),
                   1.0 - np.where(right, _EDGE_NEW, _EDGE))
    u = ua + w * x
    newer, s_new = np.where(left, ua, ub), np.where(left, sa, sb)
    step = newer - u_old
    extra = newer - s_new * step / (s_new - s_old)
    margin = _EDGE * w
    use = (np.abs(step) < w) & (extra > ua + margin) & (extra < ub - margin)
    return np.where(use, extra, u)


def _radius_supremum(m: PowerLawMeasure, f: RadialProfile, cs, rho, limit,
                     quad: QuadratureConfig):
    """(ln sup_R A(c, R), ln-gap bound) per center distance c, given its
    _small_balls (rho, limit).

    Between consecutive kink radii (_kink_radii) the average is smooth and
    A'(R) = sigma(R) / mu(B_R) (S(R) - A(R)), S the sphere average, so an
    interior maximum shows as a sign change of the slope (_holds_max).  All
    points share one batched stage at their kink radii and the geometric
    midpoint of every bracket between them; then, in lockstep, every
    bracket that holds a maximum takes one average per round at
    _trial_point, for at most _SEARCH_ROUNDS rounds, and keeps the half
    that still holds one (the one with the higher end, if both do).  A
    bracket stops once the tangents at its ends bound its gain over the
    point's best average by _GAIN_SHARE quad.tol in ln A.  The gap is the
    largest such bound left per point (0 where every bracket closed).

    At the floor rho (_small_balls) the ball touches a breakpoint sphere
    from inside c's own piece: S = A there and the slope is 0, and it
    counts as + so that a rise and fall right past the contact is searched.
    Every point's best starts at its limit R -> 0 (on a breakpoint, rho = 0,
    the mean of the two pieces beside it): the radii start at 1e-6 r_hi or
    above, so a point nearer than that to a breakpoint has no searched
    ball inside its own piece.
    """
    # Python floats: _kink_radii's scalar arithmetic is slower on numpy's
    kinks = [_kink_radii(f, c, r) for c, r in zip(cs.tolist(), rho.tolist())]
    radii = [np.sort(np.concatenate([k, np.sqrt(k[:-1] * k[1:])])) for k in kinks]
    sizes = np.array([len(r) for r in radii])
    first = np.cumsum(sizes) - sizes
    pt = np.repeat(np.arange(len(cs)), sizes)
    R = np.concatenate(radii)
    y, slope = _ball_averages_batch(m, f, cs[pt], R, quad, slopes=True)
    with np.errstate(**_QUIET):
        slope[first[(R[first] == rho) & (y[first] > NEG_INF)]] = 0.0
        best = np.log(limit)
        np.maximum.at(best, pt, y)
        # brackets between consecutive radii of a point, one column each, and
        # the point p of each
        left = np.flatnonzero(np.arange(len(R)) + 1 < (first + sizes)[pt])
        br = np.full((len(_BRACKET_ROWS), len(left)), np.nan)
        br[:_UO] = np.stack([np.log(R), y, slope])[:, [left, left + 1]].reshape(_UO, -1)
        keep = _holds_max(*br[_YA:_UO])
        p, br = pt[left[keep]], br[:, keep]
    gain_tol = _GAIN_SHARE * quad.tol
    for _ in range(_SEARCH_ROUNDS):
        with np.errstate(**_QUIET):
            gain = _tangent_gain(*br[:_UO]) - best[p]
            open_ = gain > gain_tol
            if not open_.any():
                break
            p, br = p[open_], br[:, open_]
            br[_UT] = _trial_point(*br[:_UT])
        br[_YT], br[_ST] = _ball_averages_batch(m, f, cs[p], np.exp(br[_UT]), quad, slopes=True)
        np.maximum.at(best, p, br[_YT])
        with np.errstate(**_QUIET):
            # keep the half that holds a maximum, the one with the higher end
            # if both do, or else the one next to the higher end
            in_lo, in_hi = _holds_max(*br[_HALVES])
        hi = np.where(in_lo == in_hi, br[_YB] > br[_YA], in_hi)
        br[:_UT] = np.where(hi, br[_HALF_HI], br[_HALF_LO])
    else:
        with np.errstate(**_QUIET):
            gain = _tangent_gain(*br[:_UO]) - best[p]
    log_gap = np.zeros(len(cs))
    np.maximum.at(log_gap, p, gain)
    return best, log_gap


def _log_centered_max_grid(m: PowerLawMeasure, f: RadialProfile, cs,
                           cfg: MaximalConfig) -> np.ndarray:
    """ln M_mu f at many center distances, sharing one batched radius search.

    Where lim_{R -> 0} A(c, R) = max f (_small_balls), M_mu f(c) = max f
    exactly, since no average exceeds max f; those points skip the search.
    The others share the kink-bracket search of _radius_supremum.
    """
    cs = _grid_points(cs, m, "M_mu f", "c", with_zero=True)
    if f.positive_support() is None:
        warnings.warn("profile carries no mass: M_mu f = 0 everywhere", RuntimeWarning)
        return np.full(len(cs), NEG_INF)
    vmax = max(f.values)
    out = np.full(len(cs), _step_terms(m.homogeneity, f.breakpoints, f.values).log_v.max())
    rho, limit = _small_balls(f, cs)
    todo = limit < vmax
    if todo.any():
        out[todo] = _radius_supremum(m, f, cs[todo], rho[todo], limit[todo], cfg.quad)[0]
    return out


def centered_max_radial_grid(m: PowerLawMeasure, f: RadialProfile, cs,
                             cfg: MaximalConfig = _DEFAULT_MAXIMAL) -> np.ndarray:
    """M_mu f at many center distances (see _log_centered_max_grid)."""
    return np.exp(_log_centered_max_grid(m, f, cs, cfg))


def centered_max_radial(m: PowerLawMeasure, f: RadialProfile, c: float,
                        cfg: MaximalConfig = _DEFAULT_MAXIMAL) -> float:
    """sup over R > 0 of the ball average of f at center distance c >= 0."""
    return float(centered_max_radial_grid(m, f, np.array([float(c)]), cfg)[0])


def _shift_constants(beta: float) -> tuple[float, float]:
    """(4 * 6^(beta/2), 2 * 6^(beta/2)): the shift constant for all r and for r <= 1/sqrt(5);
    past the double range, an OverflowError naming beta and the log, without commas."""
    try:
        c = 4.0 * 6.0 ** (beta / 2.0)
    except OverflowError:  # the power raises; 4 times a double rounds to inf
        c = math.inf
    if c == math.inf:
        log_c = math.log(4.0) + beta / 2.0 * math.log(6.0)
        raise OverflowError(f"the shift constant 4 * 6^(beta/2) = exp({log_c:.6g}) at beta = "
                            f"{beta} is past the double range")
    return c, 2.0 * 6.0 ** (beta / 2.0)


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
    raise ValueError(f"no certified shift constant for beta > d/2: got beta = {m.beta} "
                     f"at d = {m.d}")


def _window_shift_constant(m: PowerLawMeasure, quad: QuadratureConfig) -> float:
    try:
        return certified_shift_constant(m)
    except ValueError:
        # measured stand-in: grid supremum of the shift ratio with headroom
        sup = float(shift_condition_ratios(m, np.linspace(1e-3, 1.0, 64), quad).max())
        return 1.5 * sup


def weak_type_quotient_radial(m: PowerLawMeasure, f: RadialProfile, lambdas,
                              cfg: MaximalConfig = _DEFAULT_MAXIMAL) -> float:
    """max over the lambda grid of lambda * mu{M_mu f > lambda} / ||f||_1.

    Level sets of M_mu f are radial, so mu{...} = omega_{d-1} *
    gamma0{c : M(c) > lambda} and the sphere area cancels against the one
    in ||f||_1; everything happens on the radial section, and the quotient
    is formed in logs, so it stays finite where gamma0 overflows a double.
    """
    lambdas, _ = _check_levels(m, f, lambdas)
    return _weak_type_quotient_logs(m, f, np.log(lambdas), cfg)


def _weak_type_quotient_logs(m: PowerLawMeasure, f: RadialProfile, log_lambdas,
                             cfg: MaximalConfig) -> float:
    """weak_type_quotient_radial on the levels' logs, which stay finite
    where the levels themselves underflow a double."""
    # bracketing window via the 1D control: M_mu f <= (C+1) M^u f0
    C = _window_shift_constant(m, cfg.quad)
    max_fn = lambda ts: _log_centered_max_grid(m, f, ts, cfg)
    # B(t e1, t + t_n) holds all of f, and its radius is r_hi of the radius
    # search (_kink_radii), so M(t) is at least its average, which is the
    # search's own value there: averages do not depend on the batch, and
    # the slopes ride on the nodes the average chooses.  Where small balls
    # average max f, M(t) = max f, with no quadrature.
    t_n = f.positive_support()[1]
    vmax = max(f.values)
    log_vmax = _step_terms(m.homogeneity, f.breakpoints, f.values).log_v.max()

    def lower_fn(ts):
        out = np.full(len(ts), log_vmax)
        todo = _small_balls(f, ts)[1] < vmax
        out[todo] = _ball_averages_batch(m, f, ts[todo], ts[todo] + t_n, cfg.quad)
        return out

    log_mu, _ = _grid_level_logs(m, f, log_lambdas, cfg.level_grid.points, cfg.quad.tol,
                                 max_fn, C + 1.0, lower_fn)
    return math.exp(float((log_lambdas + log_mu).max()) - _log_l1(m, f))

