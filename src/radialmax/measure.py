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

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, QuadratureError, log_integrate_batch
from .specfun import (NEG_INF, LogValue, _log_piece_table, _log_power_interval, _log_ratio,
                      _step_terms, log_beta, log_sphere_area)

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
    "shift_condition_ratio",
    "shift_condition_ratios",
]


@dataclass(frozen=True)
class PowerLawMeasure:
    """The measure |y|^(-beta) dy on R^d, locally finite only for beta < d, and
    its radial trace d(gamma0) = t^(d-1-beta) dt on (0, inf), maximal1d's measure."""

    d: int
    beta: float = 0.0

    def __post_init__(self):
        # no commas: the CLI writes these messages into a CSV cell
        got = f"got beta = {self.beta} at d = {self.d}"
        if not (self.d >= 1 and float(self.d).is_integer()):
            raise ValueError(f"dimension d must be an integer >= 1: {got}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite: {got}")
        if not self.beta < self.d:
            raise ValueError(f"beta must be < d for a locally finite measure: {got}")

    @property
    def homogeneity(self) -> float:
        """p = d - beta: mu(lambda A) = lambda^p mu(A), and gamma0(0, t) = t^p / p."""
        return self.d - self.beta


def _grid_points(x, m: PowerLawMeasure, what: str, symbol: str, with_zero: bool = False,
                 top: float = math.inf) -> np.ndarray:
    """x as a 1-D float array of finite values above 0 (from 0 on with
    with_zero) and at most top; else a ValueError naming the symbol, its
    shape or first bad value, d and beta, without commas for a CSV cell."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        closed = top < math.inf
        ok = (x >= 0 if with_zero else x > 0) & (x <= top if closed else x < top)
        if ok.all():
            return x
        rule = f"0 {'<=' if with_zero else '<'} {symbol} {'<=' if closed else '<'} {top:g}"
        got = f"{what} is defined for {rule}: got {symbol} = {float(x[~ok][0])!r}"
    else:
        got = f"{symbol} must be a 1-D array: got shape {x.shape}"
    raise ValueError(f"{got} at d = {m.d} beta = {m.beta}")


@dataclass(frozen=True)
class BallSpec:
    """A closed euclidean ball reduced by rotation invariance.

    center_distance == 0 denotes a centered ball.
    """

    center_distance: float
    radius: float

    def __post_init__(self):
        if not 0 <= self.center_distance < math.inf:
            raise ValueError(
                f"center_distance must be finite and >= 0, got {self.center_distance}")
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be finite and > 0, got {self.radius}")


def log_ball_centered(m: PowerLawMeasure, rho: float) -> LogValue:
    """mu(B(0, rho)) = omega_{d-1} rho^{d-beta} / (d - beta), in log form."""
    if not 0 < rho < math.inf:
        raise ValueError(f"radius must be finite and > 0, got {rho}")
    p = m.homogeneity
    return LogValue(log_sphere_area(m.d) + p * math.log(rho) - math.log(p))


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _crossing_angles(c, R, r, tangent: bool):
    """(x, far, near): where the sphere |y| = r meets the boundary of B(c e1, R).

    x is theta (the angle from e1) or, for the tangent form, phi with
    c sin(theta) = R sin(phi); spheres outside (|c - R|, c + R) never cross
    and get 0, an empty split.  far = c + R - r and near = r - (c - R), from
    c + R and c - R as exact two-term sums, make q_minus = near far =
    2cr(1 - cos theta) and q_plus = 2cr(1 + cos theta) exact near tangency.
    """
    S, eS = _two_sum(c, R)
    D, eD = _two_sum(c, -R)
    far, near = (S - r) + eS, (r - D) - eD
    with np.errstate(invalid="ignore"):
        q_minus = near * far
        q_plus = ((r + D) + eD) * (r + S)
        root = np.sqrt(np.maximum(q_minus * q_plus, 0.0))  # 2cr sin(theta) = 2rR sin(phi)
        if tangent:
            x = np.arctan2(root, np.abs(r * r - D * S))
        else:
            x = np.arctan2(root, 0.5 * (q_plus - q_minus))
    return np.where((q_minus > 0) & (q_plus > 0), x, 0.0), far, near


def _ray_log_integrand(m: PowerLawMeasure, C, RR, bp, values, tangent: bool, parts: int):
    """(log_f, angles): the log ray integrand of the f-mass of B(c e1, R),
    batched over balls, and the _crossing_angles angles of bp in (0, inf).

    f is the step function of value v_k = values[k - 1], not its log, on the
    piece (t_{k-1}, t_k] of the breakpoints bp = (t_0, .., t_K), and 0 below
    t_0 and past t_K; its logs come from specfun._step_terms.  A shell r_in
    <= |y| <= r_out is the one piece (r_in, r_out] of value 1.  The ray at
    angle theta from e1 meets B(c e1, R) in [t-, t+], and its integrand is
    omega_{d-2} sin^{d-2}(theta) times the f-mass of the chord, the sum of
    v_k (b^p - a^p)/p over its overlap [a, b] with each piece, p = d - beta.
    Only the pieces holding t- and t+ are clipped; the whole pieces between
    them come from a table.  The integrand has shape (m, parts, 21).  With
    parts = 2 the measure (t+^p - t-^p)/p of the whole chord comes ahead of
    it; with parts = 4 two more follow, their R-derivatives (by co-area, the
    weighted area of the sphere |y - c e1| = R and f's mass on it):
    v(t+) t+^(p-1) dt+/dR + v(t-) t-^(p-1) |dt-/dR| with v = 1 for the chord,
    that is (R/c)/cos(theta) times the sum in the tangent form, and
    R/sqrt(R^2 - c^2 sin^2 theta) v(t+) t+^(p-1) around the origin.

    With the origin inside the ball (c < R) the variable is theta in
    [0, pi] and t- = 0.  Otherwise it is phi in [0, pi/2] with
    c sin(theta) = R sin(phi): the chord is exactly 2R cos(phi), with no
    square-root endpoint at the tangent ray, and the jacobian is
    (R/c) cos(phi)/cos(theta).  Around the origin the chord [0, t+] holds
    t+^p/p; the tangent chord and the clipped ends take ln(a/b) from
    specfun._log_ratio: the chord's gap is 2R cos(phi), and each clipped gap
    is formed from the distances d+ = c + R - t+ and d- = t- - (c - R)
    (d- = t- = 0 around the origin) and the exact per-ball distances
    c + R - t_k and t_k - (c - R) that come with the angles; a whole ball
    has neither.
    """
    lw = log_sphere_area(m.d - 1)
    p = m.homogeneity
    d = m.d
    key = (p, bp, values)
    bp, log_bp, _, lv, o, t_cross, _ = _step_terms(*key)
    n = len(t_cross)
    table = _log_piece_table(*key) if n else None
    angles, FAR, NEAR = (_crossing_angles(C[:, None], RR[:, None], t_cross, tangent) if n
                         else (np.zeros((len(C), 0)), None, None))

    def pw(log_t):
        # ln t^(p-1); p = 1 gives 1 even at t = 0
        return (p - 1.0) * log_t if p != 1.0 else np.zeros_like(log_t)

    def log_cut(log_a, b, log_b, gap):
        return _log_power_interval(p, log_b, _log_ratio(log_a, b, log_b, gap))

    log_p = math.log(p)

    def log_f(seg, x):
        # runs under log_integrate_batch's np.errstate (ln 0 = -inf, 0/0)
        c, R = C[seg], RR[seg]
        sx, cx = np.sin(x), np.cos(x)
        if tangent:
            k = R / c
            e = (c - R) * (c + R)
            cos_t = np.sqrt(cx * cx + e / (c * c) * sx * sx)
            t_plus = c * cos_t + R * cx
            log_sin = (d - 2) * np.log(k * sx)
            log_w = log_sin + np.log(k * cx / cos_t)
            log_tp = np.log(t_plus)
            # t- = e / t+ is 0 on every node when each ball has c = R: then the
            # chord is [0, t+] as around the origin, and no log of zeros is taken
            cut_low = np.count_nonzero(e) > 0
            t_low = e / t_plus if cut_low else 0.0
            log_tm = np.log(t_low) if cut_low else NEG_INF
            whole = log_cut(log_tm, t_plus, log_tp, 2.0 * R * cx) if cut_low else p * log_tp - log_p
        else:
            csx, ccx = c * sx, c * cx
            root = np.sqrt((R - csx) * (R + csx))
            fwd = cx >= 0
            t_plus = np.where(fwd, ccx + root, (R - c) * (R + c) / (root - ccx))
            log_w = (d - 2) * np.log(sx)
            log_tp = np.log(t_plus)
            # the chord [0, t+] holds t+^p / p, the power interval with a = 0
            whole = p * log_tp - log_p
        if not n:
            # no sphere to cross: every chord lies in piece o
            hi = lo = o
        else:
            # t- lies in [t_{q-1}, t_q) and t+ in (t_{q-1}, t_q] for q = lo, hi,
            # both decided by the exact distances, as the gaps are
            if tangent:
                d_plus = R * sx * sx * (k / (1.0 + cos_t) + 1.0 / (1.0 + cx))
                d_minus = (c - R) * d_plus / t_plus
            else:
                one_minus_cos = np.where(fwd, sx * sx / (1.0 + cx), 1.0 - cx)
                d_plus = c * one_minus_cos + csx ** 2 / (R + root)
            far = FAR[seg[:, 0]]
            hi = sum((far[:, j, None] > d_plus for j in range(n)), o)
            lo = o
            if tangent:
                near = NEAR[seg[:, 0]]
                lo = sum((near[:, j, None] <= d_minus for j in range(n)), o)
        lv_hi = lv[hi]
        mass = lv_hi + whole
        if n:
            # flat indices of the chords that cross a sphere, whose end
            # pieces are clipped; t_{hi-1} and t_lo lie in t_cross
            cut = np.flatnonzero(lo < hi)
            if len(cut):
                row = cut // x.shape[1]
                r = hi.ravel()[cut]
                below = r - 1
                # around the origin t- = 0, and every piece below t+'s is whole;
                # both ends are clipped in one pass, t+'s first
                q = lo.ravel()[cut] if tangent else 0
                ends = (log_bp[below], t_plus.ravel()[cut], log_tp.ravel()[cut],
                        far[row, below - o] - d_plus.ravel()[cut])
                if tangent:
                    log_a = (log_tm.ravel()[cut] if cut_low
                             else np.full(len(cut), NEG_INF))
                    ends = [np.concatenate(e) for e in zip(ends, (
                        log_a, bp[q], log_bp[q],
                        near[row, q - o] - d_minus.ravel()[cut]))]
                clip = log_cut(*ends)
                terms = [table[q, below], lv[r] + clip[:len(cut)]]
                if tangent:
                    terms.append(lv[q] + clip[len(cut):])
                top = np.maximum(terms[0], terms[1])
                if tangent:
                    top = np.maximum(top, terms[2])
                top = np.where(top > NEG_INF, top, 0.0)
                total = np.exp(terms[0] - top) + np.exp(terms[1] - top)
                if tangent:
                    total = total + np.exp(terms[2] - top)
                np.put(mass, cut, top + np.log(total))
            del d_plus  # a node array, like those dropped below
        base = lw + log_w
        if parts == 4:
            # sphere terms v t^(p-1); t- = 0 only on a sphere through
            # the origin, which every ray then meets once, at t+
            end = pw(log_tp)
            sphere = [end, lv_hi + end]
            if tangent:
                start = np.where(t_low > 0, pw(log_tm), NEG_INF)
                sphere = [np.logaddexp(end, start), np.logaddexp(sphere[1], lv[lo] + start)]
                log_dw = lw + log_sin + np.log(k / cos_t)
            else:
                log_dw = base + np.log(R / root)
        # the node arrays are (panels, 21) each: dropping these before the
        # result is formed lowers the peak memory of large batches
        del sx, cx, t_plus, log_tp
        if parts == 1:
            return (mass + base)[:, None]
        out = np.empty((len(x), parts, x.shape[1]))
        np.add(whole, base, out=out[:, 0])
        np.add(mass, base, out=out[:, 1])
        if parts == 4:
            np.add(sphere[0], log_dw, out=out[:, 2])
            np.add(sphere[1], log_dw, out=out[:, 3])
        return out

    return log_f, angles


# the widest layer at pi/2 that gets graded first panels
_LAYER_MAX = math.pi / 32
# first panels are at most _spike_width(d, tol) wide: the ray integrand's factor
# sin^(d-2) is a spike of width ~ 1/sqrt(d), on B(c e1, c) sigma = 1/sqrt(2(d - 2 + p))
_SPIKE_WIDE, _SPIKE_NARROW = 4.0, 2.5


def _spike_width(d: int, tol: float) -> float:
    """The first-panel cap, _SPIKE_WIDE/sqrt(d) at tol >= 1e-7 and _SPIKE_NARROW/sqrt(d)
    at tol <= 1e-8, geometric in tol between.

    At tol >= 1e-7 every radial run converges on the wide panels, and narrower
    ones only add evaluations; at 1e-8 a lone ball B(c e1, c) took 2.04 rounds on
    them.  2.5/sqrt(d) is 5 sigma of the narrowest spike, p ~ d, where GK21's
    |G10 - K21| on a Gaussian is at worst 1.7e-8 of its integral (4e-5 at 8
    sigma), and those balls converge on their first panels.  A function of
    (d, tol) alone, so a ball keeps its bits in any batch.
    """
    s = 0.0 if tol >= 1e-7 else 1.0 if tol <= 1e-8 else math.log10(1e-7 / tol)
    return _SPIKE_WIDE * (_SPIKE_NARROW / _SPIKE_WIDE) ** s / math.sqrt(d)


# a layer is graded where it holds _LAYER_SHARE tol of the panel next to pi/2 (at
# tol 1e-8, 3 x 480 random thin balls erred up to 1.0e-8 with tol, 1.8e-9 with tol/16)
# or that panel is at most _LAYER_NEAR eps wide (else a d = 200 quotient moved 5.7e-14)
_LAYER_SHARE = 1.0 / 16.0
_LAYER_NEAR = 4.0


def _layer_edges(c, R, angles, tangent: bool, tol: float, q: float, width: float):
    """Panel edges graded into the ray integrand's layer at pi/2, per ball.

    With eps = sqrt|c^2 - R^2| / c, the tangent form has
    cos(theta) = sqrt(cos^2 phi + eps^2 sin^2 phi) and the origin form
    sqrt(R^2 - c^2 sin^2 theta) = c sqrt(eps^2 + cos^2 theta): both change
    over a width eps at pi/2, which bisection reaches one halving per round.
    The integrand of eps = 0 going like u^(q - 1) at a distance u, the layer
    holds about (eps/U)^q of the panel next to pi/2, U wide: the first-panel
    cap width, or the distance of the nearest crossing angle.  A ball with
    tol <= eps < pi/32 gets edges at pi/2 -+ eps 2^j up to pi/4 away where
    that share reaches _LAYER_SHARE tol or U <= _LAYER_NEAR eps.  The other
    balls get edges at 0 or at the top of their range, zero-width pieces
    with no panel, so their panels and bits do not change; with none to
    grade, shape (n, 0).
    """
    e2 = np.abs((c - R) * (c + R))  # (eps c)^2, no division at c = 0
    thin = (e2 < (_LAYER_MAX * c) ** 2) & (e2 >= (tol * c) ** 2)
    if np.count_nonzero(thin):
        eps = np.sqrt(e2[thin]) / c[thin]
        U = np.min(np.abs(angles[thin] - 0.5 * math.pi), axis=1, initial=width)
        share = (_LAYER_SHARE * tol) ** (1.0 / q) if q > 0 else 0.0
        keep = eps >= U * min(1.0 / _LAYER_NEAR, share)
        thin[thin] = keep
        eps = eps[keep]
    if not np.count_nonzero(thin):
        return np.zeros((len(c), 0))
    w = eps[:, None] * 2.0 ** np.arange(math.ceil(math.log2(0.25 * math.pi / eps.min())))
    w = np.where(w < 0.25 * math.pi, w, 0.5 * math.pi)
    sides = [0.5 * math.pi - w] if tangent else [0.5 * math.pi - w, 0.5 * math.pi + w]
    extra = np.zeros((len(c), len(sides) * w.shape[1]))
    extra[thin] = np.concatenate(sides, axis=1)
    return extra


def _spike_panels(edges, h: float):
    """First panels (at, lo, hi) from sorted piece edges, none wider than h.

    Each piece [a, b] of row r is cut into k = ceil((b - a)/h) equal panels
    of integral r starting at a + (b - a) i/k, the last one ending at b
    exactly; a zero-width piece gets none.  The panels of a row come in
    order, and their bits do not depend on the other rows.
    """
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    w = b - a
    k = np.ceil(w / h)
    # per panel: its piece, its place i in the piece (a float, as k is), and
    # the piece's values
    piece = np.arange(len(a)).repeat(k.astype(np.intp))
    i = np.arange(len(piece), dtype=float) - (np.add.accumulate(k) - k)[piece]
    k = k[piece]
    lo = a[piece] + w[piece] * (i / k)
    # a panel ends where the next one of its piece starts, the last one at b
    hi = np.where(i + 1.0 < k, np.concatenate([lo[1:], b[-1:]]), b[piece])
    return piece // (edges.shape[1] - 1), lo, hi


def _batched_shell_logs(m: PowerLawMeasure, cs, Rs, bp, values, quad: QuadratureConfig,
                        parts: int = 1) -> np.ndarray:
    """ln of the f-mass of B(c_i e1, R_i) for many balls, f a stack of shells.

    f is v_k = values[k - 1], not its log, on the shell t_{k-1} < |y| <= t_k
    of the breakpoints bp (see _ray_log_integrand); bp = (r_in, r_out) with
    values = (1,) gives mu(B intersect {r_in <= |y| <= r_out}).  Integrates
    along rays from the origin, one batched quadrature run for the balls
    around the origin and one for the rest, which keeps parameter sweeps
    fast.  Each ball starts from the pieces between the angles where its
    boundary crosses the spheres |y| = t_k, and from panels graded into the
    layer at pi/2 where its boundary passes close to the origin and that
    layer carries weight (see _layer_edges); pieces wider than the
    sin^(d-2) spike, _spike_width(d, tol), are cut into equal panels no
    wider (see _spike_panels).  Returns shape (n,), or (n, parts) with parts = 2
    (the ball's measure ahead of its f-mass) or 4 (then their R-derivatives,
    which ride on the nodes the first two choose).
    """
    cs = np.asarray(cs, dtype=float)
    Rs = np.asarray(Rs, dtype=float)
    if m.d < 2:
        c, R = (float(cs[0]), float(Rs[0])) if len(cs) else (None, None)
        raise ValueError(f"off-center ball measures require d >= 2, got d={m.d} "
                         f"beta={m.beta!r} for the ball c={c!r} R={R!r}")
    bp, values = tuple(bp), tuple(values)
    out = np.empty((len(cs), parts))
    origin_inside = cs < Rs
    n_inside = np.count_nonzero(origin_inside)
    # the two derivatives ride on the nodes the measure and the mass choose
    riders = 2 if parts == 4 else 0
    # the layer at pi/2 holds eps^q (see _layer_edges): p + 1 of the measure and
    # the f-mass (2p below p = 1, chords past pi/2 ending eps^2 away), p - 1 of riders
    p = m.homogeneity
    q = p - 1.0 if parts == 4 else min(p + 1.0, 2.0 * p)
    width = _spike_width(m.d, quad.tol)
    for tangent, top, count in ((False, math.pi, n_inside),
                                (True, 0.5 * math.pi, len(cs) - n_inside)):
        if count == 0:
            continue
        # a form that holds every ball takes the arrays as they are
        idx = slice(None) if count == len(cs) else np.flatnonzero(origin_inside != tangent)
        c, R = cs[idx], Rs[idx]
        log_f, angles = _ray_log_integrand(m, c, R, bp, values, tangent, parts)
        edges = np.concatenate([np.full((count, 2), (0.0, top)), angles,
                                _layer_edges(c, R, angles, tangent, quad.tol, q, width)], axis=1)
        edges.sort(axis=1)
        at, lo, hi = _spike_panels(edges, width)
        try:
            out[idx], _ = log_integrate_batch(log_f, at, lo, hi, count, quad, riders=riders)
        except QuadratureError as exc:
            i = np.arange(len(cs))[idx][exc.segment]
            raise QuadratureError(
                # no commas: the CLI writes this message into a CSV cell
                f"shell measure did not reach tol {quad.tol:g} for the ball d={m.d} "
                f"beta={m.beta!r} c={float(cs[i])!r} R={float(Rs[i])!r} "
                f"r_in={float(bp[0])!r} r_out={float(bp[-1])!r}",
                exc.achieved, segment=int(i),
            ) from exc
    return out[:, 0] if parts == 1 else out


def log_ball_offcenter_shell(m: PowerLawMeasure, ball: BallSpec, r_in: float, r_out: float,
                             quad: QuadratureConfig = DEFAULT_QUADRATURE) -> LogValue:
    """mu(B(c e1, R) intersect {r_in <= |y| <= r_out}) by ray quadrature."""
    if not 0 <= r_in <= r_out:
        raise ValueError(f"need 0 <= r_in <= r_out, got r_in = {r_in} r_out = {r_out}")
    out = _batched_shell_logs(m, [ball.center_distance], [ball.radius], [r_in, r_out], [1.0],
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
        raise ValueError(f"closed off-center form requires d >= 2: got d = {m.d} beta = {m.beta}")
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
    rs = _grid_points(rs, m, "shift condition", "r", top=1.0)
    shifted_c = np.sqrt(np.maximum(0.0, 1.0 - rs * rs))
    cs = np.concatenate([shifted_c, np.ones_like(rs)])
    RR = np.concatenate([rs, rs])
    logs = _batched_shell_logs(m, cs, RR, [0.0, math.inf], [1.0], quad)
    k = len(rs)
    return np.exp(logs[:k] - logs[k:])


def shift_condition_ratio(m: PowerLawMeasure, r: float,
                          quad: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """mu(B(sqrt(1-r^2) e1, r)) / mu(B(e1, r)) at one r in (0, 1] (see shift_condition_ratios)."""
    return float(shift_condition_ratios(m, [r], quad)[0])
