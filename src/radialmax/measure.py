"""Ball measures under radial power-law densities d(mu) = |y|^(-beta) dy.

Rotational symmetry reduces every ball to (center distance c, radius R).
In polar coordinates about the origin, each ray meets the ball in one
interval, so the measure of the ball inside a shell r_in <= |y| <= r_out,
or the mass in the ball of a radial step profile (a stack of shells), is
a one-dimensional integral over the ray angle of elementary functions,
which goes to the adaptive log-space quadrature.  Everything returns logs
since the quantities overflow doubles once d reaches the low hundreds.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=64)
def _whole_piece_table(p: float, bp: tuple, log_v: tuple):
    """table[i, j] = ln of the mass of the whole pieces i < k < j, of
    gamma0-mass times value exp(log_v[k - 1]) for the piece (t_{k-1}, t_k]
    of the breakpoints bp, k = 1..K; pieces 0 (below t_0) and K + 1 (past
    t_K) are zero.  A piece thinner than half its outer radius takes ln(a/b)
    from the exact gap b - a (Sterbenz), a wider one from ln a - ln b, where
    b - a would round a away.  Cached per profile, read-only, since a
    radius search asks for it in every round.
    """
    bp, log_v = np.array(bp), np.array(log_v)
    a, b = bp[:-1], bp[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(a > 0.5 * b, np.log1p((a - b) / b), np.log(a) - np.log(b))
        w = log_v + _log_power_interval(p, np.log(b), log_ratio)
    table = np.full((len(bp) + 1, len(bp) + 1), NEG_INF)
    for j in range(2, len(bp) + 1):
        # piece j - 1 joins every run that starts below it
        table[:j - 1, j] = np.logaddexp(table[:j - 1, j - 1], w[j - 2])
    table.flags.writeable = False
    return table


def _ray_log_integrand(m: PowerLawMeasure, C, RR, bp, log_v, tangent: bool, parts: int):
    """Log ray integrand of the f-mass of B(c e1, R), batched over balls.

    f is the step function with value v_k = exp(log_v[k - 1]) on the piece
    (t_{k-1}, t_k] of the breakpoints bp = (t_0, .., t_K), and 0 below t_0
    and past t_K; a shell r_in <= |y| <= r_out is the one piece (r_in, r_out]
    of value 1.  The ray at angle theta from e1 meets B(c e1, R) in
    [t-, t+], and its integrand is omega_{d-2} sin^{d-2}(theta) times the
    f-mass of the chord, the sum of v_k (b^p - a^p)/p over its overlap
    [a, b] with each piece, p = d - beta.  Only the pieces holding t- and
    t+ are clipped; the whole pieces between them come from a table.  With
    parts = 2 the integrand has a second component ahead of it, the
    measure (t+^p - t-^p)/p of the whole chord, in shape (m, 2, 21); with
    parts = 4 two more follow, the R-derivatives of those two (by co-area,
    the weighted area of the sphere |y - c e1| = R and f's mass on it):
    v(t+) t+^(p-1) dt+/dR + v(t-) t-^(p-1) |dt-/dR| with v = 1 for the chord,
    that is (R/c)/cos(theta) times the sum in the tangent form, and
    R/sqrt(R^2 - c^2 sin^2 theta) v(t+) t+^(p-1) around the origin.

    With the origin inside the ball (c < R) the variable is theta in
    [0, pi] and t- = 0.  Otherwise it is phi in [0, pi/2] with
    c sin(theta) = R sin(phi): the chord is exactly 2R cos(phi), with no
    square-root endpoint at the tangent ray, and the jacobian is
    (R/c) cos(phi)/cos(theta).  Each clipped gap is formed from the
    distances d+ = c + R - t+ and d- = t- - (c - R) (d- = t- = 0 around the
    origin) and the exact per-ball distances c + R - t_k and t_k - (c - R),
    so tiny balls and thin pieces keep their digits.
    """
    lw = log_sphere_area(m.d - 1)
    p = m.homogeneity
    d = m.d
    bp = np.asarray(bp, dtype=float)
    # every chord starts at or beyond |y| = 0 and ends short of infinity:
    # o breakpoints lie at the origin, and the spheres a chord can cross
    # are t_cross = bp[o:o + n]; with none, no chord is clipped
    o = int(np.count_nonzero(bp <= 0.0))
    t_cross = bp[(bp > 0.0) & (bp < math.inf)]
    n = len(t_cross)
    log_v = np.asarray(log_v, dtype=float)
    lv = np.concatenate([[NEG_INF], log_v, [NEG_INF]])  # ln v_k on pieces 0..K + 1
    table = _whole_piece_table(p, tuple(bp), tuple(log_v)) if n else None
    S, eS = _two_sum(C, RR)
    D, eD = _two_sum(C, -RR)
    FAR = (S[:, None] - t_cross) + eS[:, None]
    NEAR = (t_cross - D[:, None]) - eD[:, None]

    def pw(log_t):
        # ln t^(p-1); p = 1 gives 1 even at t = 0
        return (p - 1.0) * log_t if p != 1.0 else np.zeros_like(log_t)

    def log_cut(log_b, b, gap):
        return _log_power_interval(p, log_b, np.log1p(-np.minimum(gap, b) / b))

    def log_f(seg, x):
        c, R = C[seg], RR[seg]
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
                log_sin = (d - 2) * np.log(k * sx)
                log_w = log_sin + np.log(k * cx / cos_t)
            else:
                root = np.sqrt((R - c * sx) * (R + c * sx))
                t_plus = np.where(cx >= 0, c * cx + root, (R - c) * (R + c) / (root - c * cx))
                one_minus_cos = np.where(cx >= 0, sx * sx / (1.0 + cx), 1.0 - cx)
                d_plus = c * one_minus_cos + (c * sx) ** 2 / (R + root)
                chord = t_plus
                log_w = (d - 2) * np.log(sx)
            log_tp = np.log(t_plus)
            whole = log_cut(log_tp, t_plus, chord)
            # t- lies in [t_{q-1}, t_q) and t+ in (t_{q-1}, t_q] for q = lo, hi,
            # both decided by the exact distances, as the gaps are
            hi = sum((FAR[seg, j] > d_plus for j in range(n)), o)
            lo = sum((NEAR[seg, j] <= d_minus for j in range(n)), o) if tangent else o
            mass = lv[hi] + whole
            # flat indices of the chords that cross a sphere, whose end
            # pieces are clipped; t_{hi-1} and t_lo lie in t_cross
            cut = np.flatnonzero(lo < hi) if n else ()
            if len(cut):
                s = np.broadcast_to(seg, x.shape).ravel()[cut] * n - o
                r = hi.ravel()[cut]
                # around the origin t- = 0, and every piece below t+'s is whole
                q = lo.ravel()[cut] if tangent else 0
                terms = [table[q, r],
                         lv[r] + log_cut(log_tp.ravel()[cut], t_plus.ravel()[cut],
                                         FAR.ravel()[s + r - 1] - d_plus.ravel()[cut])]
                if tangent:
                    b = bp[q]
                    terms.append(lv[q] + log_cut(np.log(b), b,
                                                 NEAR.ravel()[s + q] - d_minus.ravel()[cut]))
                top = np.maximum.reduce(terms)
                top = np.where(top > NEG_INF, top, 0.0)
                np.put(mass, cut, top + np.log(sum(np.exp(t - top) for t in terms)))
            if parts == 4:
                # sphere terms v t^(p-1); t- = 0 only on a sphere through
                # the origin, which every ray then meets once, at t+
                ends = [(lv[hi], pw(log_tp))]
                if tangent:
                    ends.append((lv[lo], np.where(t_minus > 0, pw(np.log(t_minus)), NEG_INF)))
                    log_dw = lw + log_sin + np.log(k / cos_t)
                else:
                    log_dw = lw + log_w + np.log(R / root)
                sphere = [np.logaddexp.reduce([e[1] for e in ends]),
                          np.logaddexp.reduce([v + e for v, e in ends])]
        base = lw + log_w
        # the node arrays are (panels, 21) each: dropping these before the
        # result is formed lowers the peak memory of large batches
        del sx, cx, t_plus, d_plus, chord, log_tp
        if parts == 1:
            return mass + base
        out = [whole + base, mass + base]
        if parts == 4:
            out += [s + log_dw for s in sphere]
        return np.stack(out, axis=1)

    return log_f


def _batched_shell_logs(m: PowerLawMeasure, cs, Rs, bp, log_v, quad: QuadratureConfig,
                        parts: int = 1) -> np.ndarray:
    """ln of the f-mass of B(c_i e1, R_i) for many balls, f a stack of shells.

    f is v_k = exp(log_v[k - 1]) on the shell t_{k-1} < |y| <= t_k of the
    breakpoints bp (see _ray_log_integrand); bp = (r_in, r_out) with
    log_v = (0,) gives mu(B intersect {r_in <= |y| <= r_out}).  Integrates
    along rays from the origin, one batched quadrature run for the balls
    around the origin and one for the rest, which is what keeps parameter
    sweeps (shift ratios, radius searches, level sets) fast.  Each ball starts
    from the pieces between the angles where its boundary crosses the
    spheres |y| = t_k.  Returns shape (n,), or (n, parts) with parts = 2
    (the ball's measure ahead of its f-mass) or 4 (then their derivatives in
    R, which ride on the nodes the first two choose; see
    _ray_log_integrand).  With parts = 1, pieces where the integrand
    vanishes are dropped.
    """
    cs = np.asarray(cs, dtype=float)
    Rs = np.asarray(Rs, dtype=float)
    if m.d < 2:
        c, R = (float(cs[0]), float(Rs[0])) if len(cs) else (None, None)
        raise ValueError(f"off-center ball measures require d >= 2, got d={m.d} "
                         f"beta={m.beta!r} for the ball c={c!r} R={R!r}")
    bp = np.asarray(bp, dtype=float)
    out = np.full((len(cs), parts) if parts > 1 else len(cs), NEG_INF)
    origin_inside = cs < Rs
    # the two derivatives ride on the nodes the measure and the mass choose
    riders = {"riders": 2} if parts == 4 else {}
    for tangent, top in ((False, math.pi), (True, 0.5 * math.pi)):
        idx = np.nonzero(origin_inside != tangent)[0]
        if idx.size == 0:
            continue
        c, R = cs[idx], Rs[idx]
        log_f = _ray_log_integrand(m, c, R, bp, log_v, tangent, parts)
        edges = np.sort(np.column_stack([
            np.zeros(idx.size),
            _crossing_angles(c[:, None], R[:, None], bp, tangent),
            np.full(idx.size, top),
        ]), axis=1)
        lo, hi = edges[:, :-1], edges[:, 1:]
        if parts == 1:
            rows = np.repeat(np.arange(idx.size), lo.shape[1])
            inside = log_f(rows, 0.5 * (lo + hi).ravel()).reshape(lo.shape) > NEG_INF
            hi = np.where(inside, hi, lo)
        try:
            out[idx], _ = log_integrate_batch(log_f, lo, hi, quad, **riders)
        except QuadratureError as exc:
            i = idx[exc.segment]
            err = QuadratureError(
                # no commas: the CLI writes this message into a CSV cell
                f"shell measure did not reach tol {quad.tol:g} for the ball d={m.d} "
                f"beta={m.beta!r} c={float(cs[i])!r} R={float(Rs[i])!r} "
                f"r_in={float(bp[0])!r} r_out={float(bp[-1])!r}",
                exc.achieved,
            )
            err.segment = int(i)
            raise err from exc
    return out


def log_ball_offcenter_shell(m: PowerLawMeasure, ball: BallSpec, r_in: float, r_out: float,
                             quad: QuadratureConfig = DEFAULT_QUADRATURE) -> LogValue:
    """mu(B(c e1, R) intersect {r_in <= |y| <= r_out}) by ray quadrature."""
    out = _batched_shell_logs(m, [ball.center_distance], [ball.radius], [r_in, r_out], [0.0],
                              quad)
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
    logs = _batched_shell_logs(m, cs, RR, [0.0, math.inf], [0.0], quad)
    k = len(rs)
    return np.exp(logs[:k] - logs[k:])


def shift_condition_ratio(m: PowerLawMeasure, r: float,
                          quad: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    return float(shift_condition_ratios(m, [r], quad)[0])
