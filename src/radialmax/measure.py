"""Ball measures under radial power-law densities d(mu) = |y|^(-beta) dy.

Rotational symmetry reduces every ball to (center distance c, radius R).
In polar coordinates about the origin, each ray meets the ball in one
interval, so the measure of the ball inside a shell r_in <= |y| <= r_out is
a one-dimensional integral over the ray angle of elementary functions,
which goes to the adaptive log-space quadrature.  Everything returns logs
since the quantities overflow doubles once d reaches the low hundreds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, QuadratureError, log_integrate_batch
from .specfun import NEG_INF, LogValue, _log_power_interval, log_beta, log_gamma, log_sphere_area

__all__ = [
    "PowerLawMeasure",
    "BallSpec",
    "QuadratureConfig",
    "QuadratureError",
    "log_ball_centered",
    "log_ball_offcenter",
    "log_ball_offcenter_unit_closed",
    "log_ball_offcenter_shell",
    "log_intersection_with_centered",
    "log_unit_ball_volume",
    "shift_condition_ratio",
    "shift_condition_ratios",
]


@dataclass(frozen=True)
class PowerLawMeasure:
    """The measure |y|^(-beta) dy on R^d; locally finite only for beta < d."""

    d: int
    beta: float = 0.0

    def __post_init__(self):
        if self.d < 1 or int(self.d) != self.d:
            raise ValueError("dimension d must be an integer >= 1")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got beta = {self.beta} at d = {self.d}")
        if not self.beta < self.d:
            raise ValueError(
                f"beta={self.beta} >= d={self.d}: measure is not locally finite at the origin"
            )

    @property
    def homogeneity(self) -> float:
        """Scaling degree: mu(lambda A) = lambda^(d - beta) mu(A)."""
        return self.d - self.beta


@dataclass(frozen=True)
class BallSpec:
    """A closed euclidean ball reduced by rotation invariance.

    center_distance == 0 denotes a centered ball.
    """

    center_distance: float
    radius: float

    def __post_init__(self):
        if self.center_distance < 0:
            raise ValueError("center_distance must be >= 0")
        if not self.radius > 0:
            raise ValueError("radius must be > 0")


def log_unit_ball_volume(d: int) -> float:
    """ln of the Lebesgue volume of the unit ball: ln(pi^{d/2} / Gamma(d/2 + 1))."""
    return 0.5 * d * math.log(math.pi) - log_gamma(0.5 * d + 1.0)


def log_ball_centered(m: PowerLawMeasure, rho: float) -> LogValue:
    """mu(B(0, rho)) = omega_{d-1} rho^{d-beta} / (d - beta), in log form."""
    if not rho > 0:
        raise ValueError("radius must be > 0")
    p = m.homogeneity
    return LogValue(log_sphere_area(m.d) + p * math.log(rho) - math.log(p))


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _crossing_angles(c, R, r, tangent: bool):
    """Ray variable at which the sphere |y| = r meets the boundary of B(c e1, R).

    Returns theta (the angle from e1) or, for the tangent form, phi with
    c sin(theta) = R sin(phi); spheres outside (|c - R|, c + R) never cross
    and get 0, an empty split.  The factored products
        q_minus = 2cr(1 - cos theta),  q_plus = 2cr(1 + cos theta)
    keep the cosine law exact near tangency, with c + R and c - R carried
    exactly as two-term sums.
    """
    S, eS = _two_sum(c, R)
    D, eD = _two_sum(c, -R)
    with np.errstate(invalid="ignore"):
        q_minus = ((r - D) - eD) * ((S - r) + eS)
        q_plus = ((r + D) + eD) * (r + S)
        root = np.sqrt(np.maximum(q_minus * q_plus, 0.0))  # 2cr sin(theta) = 2rR sin(phi)
        if tangent:
            x = np.arctan2(root, np.abs(r * r - D * S))
        else:
            x = np.arctan2(root, 0.5 * (q_plus - q_minus))
    return np.where((q_minus > 0) & (q_plus > 0), x, 0.0)


def _ray_log_integrand(m: PowerLawMeasure, C, RR, R_IN, R_OUT, tangent: bool):
    """ln of omega_{d-2} sin^{d-2}(theta) (b^p - a^p)/p per ray, batched over balls.

    The ray at angle theta from e1 meets B(c e1, R) in [t-, t+]; the ball's
    share of the shell is a = max(t-, r_in) to b = min(t+, r_out), p = d - beta.
    With the origin inside the ball (c < R) the variable is theta in [0, pi]
    and t- = 0.  Otherwise it is phi in [0, pi/2] with c sin(theta) =
    R sin(phi): the chord is exactly 2R cos(phi), with no square-root
    endpoint at the tangent ray, and the jacobian is (R/c) cos(phi)/cos(theta).
    Each gap b - a is formed from the distances d+ = c + R - t+ and
    d- = t- - (c - R) (d- = t- = 0 around the origin) and the exact
    per-ball distances c + R - r_in and r_out - (c - R), so tiny balls and
    tangent shells keep their digits.
    """
    lw = log_sphere_area(m.d - 1)
    p = m.homogeneity
    d = m.d
    S, eS = _two_sum(C, RR)
    D, eD = _two_sum(C, -RR)
    FAR_IN = (S - R_IN) + eS
    NEAR_OUT = (R_OUT - D) - eD if tangent else R_OUT

    def log_f(seg, x):
        c, R, r_in, r_out = C[seg], RR[seg], R_IN[seg], R_OUT[seg]
        sx, cx = np.sin(x), np.cos(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            if tangent:
                k = R / c
                cos_t = np.sqrt(cx * cx + (c - R) * (c + R) / (c * c) * sx * sx)
                t_plus = c * cos_t + R * cx
                d_plus = R * sx * sx * (k / (1.0 + cos_t) + 1.0 / (1.0 + cx))
                t_minus = (c - R) * (c + R) / t_plus
                d_minus = (c - R) * d_plus / t_plus
                chord = 2.0 * R * cx
                log_w = (d - 2) * np.log(k * sx) + np.log(k * cx / cos_t)
            else:
                root = np.sqrt((R - c * sx) * (R + c * sx))
                t_plus = np.where(cx >= 0, c * cx + root, (R - c) * (R + c) / (root - c * cx))
                one_minus_cos = np.where(cx >= 0, sx * sx / (1.0 + cx), 1.0 - cx)
                d_plus = c * one_minus_cos + (c * sx) ** 2 / (R + root)
                t_minus = d_minus = 0.0
                chord = t_plus
                log_w = (d - 2) * np.log(sx)
            b_ray = t_plus <= r_out
            a_ray = t_minus >= r_in
            gap = np.where(b_ray,
                           np.where(a_ray, chord, FAR_IN[seg] - d_plus),
                           np.where(a_ray, NEAR_OUT[seg] - d_minus, r_out - r_in))
            b = np.minimum(t_plus, r_out)
            log_ratio = np.log1p(-np.minimum(gap, b) / b)
            log_b = np.log(b)
        # the node arrays are (panels, 21) each: dropping these two before
        # the power interval lowers the peak memory of large batches
        del gap, b
        return lw + log_w + _log_power_interval(p, log_b, log_ratio)

    return log_f


def _batched_shell_logs(m: PowerLawMeasure, cs, Rs, r_ins, r_outs,
                        quad: QuadratureConfig) -> np.ndarray:
    """log mu(B(c_i e1, R_i) intersect {r_in_i <= |y| <= r_out_i}) for many balls.

    Integrates along rays from the origin, one batched quadrature run for
    the balls around the origin and one for the rest, which is what keeps
    parameter sweeps (shift ratios, radius grids, level sets) fast.  Each
    ball starts from the pieces between the angles where its ball boundary
    crosses the two shell spheres; pieces outside the shell are dropped.
    """
    if m.d < 2:
        raise ValueError("off-center ball measures require d >= 2")
    cs = np.asarray(cs, dtype=float)
    Rs = np.asarray(Rs, dtype=float)
    r_ins = np.asarray(r_ins, dtype=float)
    r_outs = np.asarray(r_outs, dtype=float)
    out = np.full(len(cs), NEG_INF)
    origin_inside = cs < Rs
    for tangent, top in ((False, math.pi), (True, 0.5 * math.pi)):
        idx = np.nonzero(origin_inside != tangent)[0]
        if idx.size == 0:
            continue
        c, R, r_in, r_out = cs[idx], Rs[idx], r_ins[idx], r_outs[idx]
        log_f = _ray_log_integrand(m, c, R, r_in, r_out, tangent)
        edges = np.sort(np.stack([
            np.zeros(idx.size),
            _crossing_angles(c, R, r_in, tangent),
            _crossing_angles(c, R, r_out, tangent),
            np.full(idx.size, top),
        ], axis=1), axis=1)
        lo, hi = edges[:, :-1], edges[:, 1:]
        rows = np.repeat(np.arange(idx.size), lo.shape[1])
        inside = log_f(rows, 0.5 * (lo + hi).ravel()).reshape(lo.shape) > NEG_INF
        hi = np.where(inside, hi, lo)
        try:
            out[idx], _ = log_integrate_batch(log_f, lo, hi, quad)
        except QuadratureError as exc:
            i = idx[exc.segment]
            err = QuadratureError(
                # no commas: the CLI writes this message into a CSV cell
                f"shell measure did not reach tol {quad.tol:g} for the ball d={m.d} "
                f"beta={m.beta!r} c={float(cs[i])!r} R={float(Rs[i])!r} "
                f"r_in={float(r_ins[i])!r} r_out={float(r_outs[i])!r}",
                exc.achieved,
            )
            err.segment = int(i)
            raise err from exc
    return out


def log_ball_offcenter_shell(m: PowerLawMeasure, ball: BallSpec, r_in: float, r_out: float,
                             quad: QuadratureConfig = DEFAULT_QUADRATURE) -> LogValue:
    """mu(B(c e1, R) intersect {r_in <= |y| <= r_out}) by ray quadrature."""
    out = _batched_shell_logs(m, [ball.center_distance], [ball.radius], [r_in], [r_out], quad)
    return LogValue(float(out[0]))


def log_ball_offcenter(m: PowerLawMeasure, ball: BallSpec,
                       quad: QuadratureConfig = DEFAULT_QUADRATURE) -> LogValue:
    """mu(B(c e1, R)) for any center distance c >= 0."""
    if ball.center_distance == 0.0:
        return log_ball_centered(m, ball.radius)
    return log_ball_offcenter_shell(m, ball, 0.0, math.inf, quad)


def log_intersection_with_centered(m: PowerLawMeasure, ball: BallSpec, r: float,
                                   quad: QuadratureConfig = DEFAULT_QUADRATURE) -> LogValue:
    """mu(B(c e1, R) intersect B(0, r)); zero when r <= c - R (disjoint)."""
    if r <= max(0.0, ball.center_distance - ball.radius):
        return LogValue(NEG_INF)
    return log_ball_offcenter_shell(m, ball, 0.0, r, quad)


def log_ball_offcenter_unit_closed(m: PowerLawMeasure) -> LogValue:
    """mu(B(e1, 1)) in closed form, no quadrature.

    The ray at angle theta from e1 meets the ball in [0, 2 cos(theta)], so
    the ray integral over theta in [0, pi/2] gives
        mu(B(e1,1)) = 2^{d-beta-1} omega_{d-2} B((d-beta+1)/2, (d-1)/2) / (d-beta).
    """
    if m.d < 2:
        raise ValueError("closed off-center form requires d >= 2")
    p = m.homogeneity
    return LogValue(
        (p - 1.0) * math.log(2.0)
        + log_sphere_area(m.d - 1)
        + log_beta(0.5 * (p + 1.0), 0.5 * (m.d - 1))
        - math.log(p)
    )


def shift_condition_ratios(m: PowerLawMeasure, rs,
                           quad: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """Measure ratio of the origin-shifted ball to the original, per r.

    ratio(r) = mu(B(sqrt(1-r^2) e1, r)) / mu(B(e1, r)) evaluated at unit
    center norm; by homogeneity the ratio at any x depends only on r.  At
    r = 1 the numerator ball is centered and the ratio becomes
    mu(B(0,1)) / mu(B(e1,1)).
    """
    rs = np.asarray(rs, dtype=float)
    if np.any((rs <= 0) | (rs > 1)):
        raise ValueError("shift condition is defined for 0 < r <= 1")
    shifted_c = np.sqrt(np.maximum(0.0, 1.0 - rs * rs))
    cs = np.concatenate([shifted_c, np.ones_like(rs)])
    RR = np.concatenate([rs, rs])
    inner = np.zeros_like(cs)
    outer = np.full_like(cs, math.inf)
    logs = _batched_shell_logs(m, cs, RR, inner, outer, quad)
    k = len(rs)
    return np.exp(logs[:k] - logs[k:])


def shift_condition_ratio(m: PowerLawMeasure, r: float,
                          quad: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    return float(shift_condition_ratios(m, [r], quad)[0])
