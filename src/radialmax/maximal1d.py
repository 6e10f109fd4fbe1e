"""Uncentered maximal operator on (0, infinity) for weighted line measures.

The measure is d(gamma0) = t^{d-1-beta} dt, the radial trace of the
measure.PowerLawMeasure that serves here too, with gamma0(0, t) = G(t) =
t^p/p, p = d - beta (its homogeneity).  Every interval measure comes from
the ball measures' log-space primitives in specfun (_log_power_interval,
_log_ratio, _log_piece_table), so averages are differences of logs and
nothing overflows at d in the hundreds.

Drag argument.  Moving an endpoint of an interval across a constancy piece
of value v drags the running average monotonically toward v (and freezes
it on contact).  Two exact reductions follow on step profiles:

* M^u f(x): interval optima sit at profile breakpoints or at x, so the
  supremum is a maximum over a finite candidate set; a dense-grid oracle
  guards the claim in the tests.
* {M^u f > lam} is the union of the open intervals with positive excess
  e(a, b) = int_a^b (f - lam) d(gamma0).  Pushing an end of such an
  interval through a piece of value > lam raises e, so it grows into one
  whose ends are breakpoints or lie in pieces of value <= lam; then its
  first and last inner breakpoints t_i <= t_j split it as (a, t_j) and
  (t_i, b), both of positive excess.  Hence, up to a null set, the level
  set is the union over breakpoints t_i of (L_i, R_i), with
  R_i = sup{b : e(t_i, b) > 0} and L_i = inf{a : e(a, t_i) > 0}.  On each
  piece e is linear in G, so each extent is one closed-form root: this is
  the rising-sun set of F. Riesz (1932), with no grid and no bisection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .measure import PowerLawMeasure
from .specfun import NEG_INF, _log_piece_table, _log_power_interval, _log_ratio

__all__ = [
    "WeightedLineMeasure",
    "RadialProfile",
    "GridConfig",
    "LevelSetResult",
    "gamma0_interval",
    "profile_l1_norm",
    "uncentered_max",
    "uncentered_max_grid",
    "level_sets",
    "weak_type_quotient_1d",
    "default_lambda_grid",
]


# the old name of the record, which perfbench/workloads.py and the acceptance tests construct
WeightedLineMeasure = PowerLawMeasure


@dataclass(frozen=True)
class RadialProfile:
    """Nonnegative step function: value v_i on (t_{i-1}, t_i], zero outside."""

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bp = tuple(float(t) for t in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(bp) != len(vals) + 1:
            raise ValueError("need one more breakpoint than values")
        if len(vals) < 1:
            raise ValueError("profile needs at least one piece")
        if not all(math.isfinite(x) for x in bp + vals):
            raise ValueError("breakpoints and values must be finite")
        if bp[0] < 0:
            raise ValueError("breakpoints must be >= 0")
        if any(b >= c for b, c in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly ascending")
        if any(v < 0 for v in vals):
            raise ValueError("profile values must be nonnegative")

    @classmethod
    def indicator(cls, r: float) -> "RadialProfile":
        """Characteristic function of (0, r]."""
        return cls((0.0, float(r)), (1.0,))

    @classmethod
    def from_pairs(cls, pairs) -> "RadialProfile":
        """Build from (t_i, v_i) rows: v_i holds on (t_{i-1}, t_i], t_0 = 0."""
        bp = [0.0]
        vals = []
        for t, v in pairs:
            bp.append(float(t))
            vals.append(float(v))
        return cls(tuple(bp), tuple(vals))

    @classmethod
    def from_text(cls, text: str) -> "RadialProfile":
        pairs = []
        for ln in text.splitlines():
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"profile line needs 't v', got: {ln!r}")
            pairs.append((float(parts[0]), float(parts[1])))
        if not pairs:
            raise ValueError("empty profile file")
        return cls.from_pairs(pairs)

    def value_at(self, t):
        """f0(t), vectorized; pieces are left-open right-closed."""
        t = np.asarray(t, dtype=float)
        bp = np.asarray(self.breakpoints)
        vals = np.asarray(self.values)
        k = np.searchsorted(bp, t, side="left") - 1
        inside = (k >= 0) & (k < len(vals)) & (t > bp[0])
        out = np.where(inside, vals[np.clip(k, 0, len(vals) - 1)], 0.0)
        return float(out) if out.ndim == 0 else out

    def positive_support(self):
        """(start, end) of the region where the profile is positive, or None."""
        lo = None
        hi = None
        for i, v in enumerate(self.values):
            if v > 0:
                if lo is None:
                    lo = self.breakpoints[i]
                hi = self.breakpoints[i + 1]
        if lo is None:
            return None
        return lo, hi

    def scaled(self, factor: float) -> "RadialProfile":
        return RadialProfile(self.breakpoints, tuple(factor * v for v in self.values))


@functools.lru_cache(maxsize=64)
def _log_pieces(m: PowerLawMeasure, f: RadialProfile):
    """(ln t_k, k = 0..n; ln g_k = ln gamma0(t_{k-1}, t_k), ln v_k, k = 1..n), read-only."""
    bp = np.asarray(f.breakpoints)
    with np.errstate(divide="ignore"):
        lt = np.log(bp)
        lv = np.log(np.asarray(f.values))
    lg = _log_power_interval(m.homogeneity, lt[1:],
                             _log_ratio(bp[:-1], bp[1:], lt[1:], np.diff(bp)))
    for x in (lt, lg, lv):
        x.flags.writeable = False
    return lt, lg, lv


def _log_l1(m: PowerLawMeasure, f: RadialProfile) -> float:
    """ln of the profile's L1 norm under gamma0; -inf for an a.e. zero profile."""
    _, lg, lv = _log_pieces(m, f)
    return float(np.logaddexp.reduce(lv + lg, axis=0))


def _linear(log_value, m: PowerLawMeasure, what: str) -> float:
    """exp(log_value); past the double range, an OverflowError naming the inputs."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise OverflowError(f"{what} = exp({float(log_value):.6g}) at d = {m.d}, beta = {m.beta} "
                            "is past the double range; weak_type_quotient_* work in logs"
                            ) from None


def gamma0_interval(m: PowerLawMeasure, a: float, b: float) -> float:
    """gamma0(a, b) = (b^p - a^p)/p with p = d - beta; 0 when a == b."""
    if not 0 <= a <= b < math.inf:
        raise ValueError(f"need 0 <= a <= b < inf, got a = {a} b = {b}")
    lb = math.log(b) if b > 0 else NEG_INF
    return _linear(float(_log_power_interval(m.homogeneity, lb, _log_ratio(a, b, lb, b - a))), m,
                   f"gamma0({a}, {b})")


def profile_l1_norm(m: PowerLawMeasure, f: RadialProfile) -> float:
    """L1 norm of the profile under gamma0."""
    return _linear(_log_l1(m, f), m,
                   f"||f||_1 on ({f.breakpoints[0]}, {f.breakpoints[-1]})")


def uncentered_max_grid(m: PowerLawMeasure, f: RadialProfile, xs) -> np.ndarray:
    """M^u f at many points: exp of _log_uncentered_max_grid, which stays
    finite where a value lies below the double range and reads 0 here."""
    return np.exp(_log_uncentered_max_grid(m, f, xs))


def _log_uncentered_max_grid(m: PowerLawMeasure, f: RadialProfile, xs) -> np.ndarray:
    """ln M^u f at many points, by exact candidate enumeration in logs (vectorized).

    Candidate left endpoints: the breakpoints capped at x; right endpoints:
    the breakpoints floored at x, and x.  Capping and flooring turn
    out-of-side candidates into duplicates of x, which cost nothing; 0 is
    no candidate, since f = 0 on (0, t_0].  Each candidate (a, b) is split
    at x, so its mass and its gamma0-measure are each a sum of two positive
    terms, one per side, joined with logaddexp: whole pieces between
    breakpoints come from a per-profile table, and only the piece holding x
    is cut.  No power of t is formed, so nothing overflows.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs > 0) & (xs < math.inf)):
        raise ValueError("evaluation points must be positive and finite")
    p = m.homogeneity
    lt, lg, lv = _log_pieces(m, f)
    n = len(lg)
    i = np.arange(n + 1)
    table = _log_piece_table(p, f.breakpoints, tuple(lv))
    # x lies in piece q = (t_{q-1}, t_q], with t_{-1} = 0, t_{n+1} = inf and
    # f = 0 on pieces 0 and n + 1
    q = np.searchsorted(f.breakpoints, xs, side="right")
    lx = np.log(xs)
    lt_q = np.concatenate([[NEG_INF], lt, [np.inf]])
    lv_q = np.concatenate([[NEG_INF], lv, [NEG_INF]])[q]
    la = np.minimum(lt, lx[:, None])
    lb = np.maximum(lt, lx[:, None])
    with np.errstate(invalid="ignore"):
        cut_left = lv_q + _log_power_interval(p, lx, lt_q[q] - lx)
        cut_right = np.where(q <= n, lv_q + _log_power_interval(p, lt_q[q + 1], lx - lt_q[q + 1]),
                             NEG_INF)
        mass_a = np.where(i < q[:, None], np.logaddexp(
            table[i, np.maximum(q - 1, 0)[:, None]], cut_left[:, None]), NEG_INF)
        mass_b = np.where(i >= q[:, None], np.logaddexp(
            cut_right[:, None], table[np.minimum(q, n)[:, None], i]), NEG_INF)
        gamma_a = _log_power_interval(p, lx[:, None], la - lx[:, None])
        gamma_b = _log_power_interval(p, lb, lx[:, None] - lb)
        # the right endpoint b = x adds nothing on its side
        empty = np.full((len(xs), 1, 1), NEG_INF)
        num = np.logaddexp(mass_a[:, :, None],
                           np.concatenate([empty, mass_b[:, None, :]], axis=2))
        den = np.logaddexp(gamma_a[:, :, None],
                           np.concatenate([empty, gamma_b[:, None, :]], axis=2))
        log_avg = np.where(den > NEG_INF, num - den, NEG_INF)
    return log_avg.max(axis=(1, 2))


def uncentered_max(m: PowerLawMeasure, f: RadialProfile, x: float) -> float:
    """Uncentered maximal function of the profile at a single point x > 0."""
    return float(uncentered_max_grid(m, f, np.array([float(x)]))[0])


def _level_extents(m: PowerLawMeasure, f: RadialProfile, lambdas):
    """ln L_i and ln R_i, shape (levels, n + 1): {M^u f > lam} = U_i (L_i, R_i).

    R_i = sup{b : e(t_i, b) > 0} and L_i = inf{a : e(a, t_i) > 0} for the
    excess e(a, b) = int_a^b (f - lam) d(gamma0) (see the module docstring).
    Excesses between breakpoints are normalised by G(t) = t^p/p at their
    right end, so every piece weight g_k / G(t_r), k <= r, is at most 1.
    On the piece past the last positive excess e (right) or before the
    first one (left), e is linear in G, and its root is the extent:
        R = t_j (1 + e/(lam - v_{j+1}))^(1/p),
        (L/t_i)^p = (t_j/t_i)^p - e/(lam - v_j),   L = 0 below zero,
    with v = 0 on (0, t_0] and past t_n.  An anchor with no positive
    excess on a side is its own extent there.
    """
    p = m.homogeneity
    lam = np.asarray(lambdas, dtype=float)[:, None]
    lt, lg, _ = _log_pieces(m, f)
    n = len(lg)
    v = np.concatenate([[0.0], f.values, [0.0]])    # v[k] on piece k; 0 on pieces 0, n + 1
    r = np.arange(n + 1)[:, None]
    k = np.arange(1, n + 1)[None, :]
    lG = _log_power_interval(p, lt, NEG_INF)
    with np.errstate(invalid="ignore", over="ignore"):
        W = np.where(k <= r, np.exp(lg - lG[:, None]), 0.0)   # (n + 1, n)
    # S[l, r, s] = sum over s < k <= r of (v_k - lam) g_k / G(t_r): the
    # excess on (t_s, t_r) in units of G(t_r)
    S = ((v[1:-1] - lam[..., None]) * W) @ (k > r).T
    anchor = np.broadcast_to(r.T, S.shape[:2])
    # the slack <= 0 branches only catch rounding: past the last positive
    # excess (before the first) the next piece's value is below lam
    with np.errstate(divide="ignore", invalid="ignore"):
        # right: last j with e(t_i, t_j) = S[l, j, i] > 0
        right = S.transpose(0, 2, 1)
        pos = right > 0
        j = np.where(pos.any(axis=2), n - np.argmax(pos[:, :, ::-1], axis=2), anchor)
        e = np.take_along_axis(right, j[..., None], axis=2)[..., 0]
        slack = lam - v[j + 1]
        log_r = np.where(e > 0, np.where(slack > 0, lt[j] + np.log1p(e / slack) / p,
                                         lt[np.minimum(j + 1, n)]), lt[j])
        # left: first j with e(t_j, t_i) = S[l, i, j] > 0
        pos = S > 0
        j = np.where(pos.any(axis=2), np.argmax(pos, axis=2), anchor)
        e = np.take_along_axis(S, j[..., None], axis=2)[..., 0]
        slack = lam - v[j]
        rest = np.exp(p * (lt[j] - lt[anchor])) - e / slack
        log_l = np.where(e > 0, np.where(slack > 0, lt[anchor] + np.log(np.maximum(rest, 0.0)) / p,
                                         lt[np.maximum(j - 1, 0)]), lt[anchor])
    return log_l, log_r


def _level_set_logs(m: PowerLawMeasure, f: RadialProfile, lambdas):
    """(ln gamma0{M^u f > lam}, ln sup{M^u f > lam}) per level; -inf when empty.

    The extents are sorted by their left end; each adds the part of itself
    beyond the running right end, so the parts are disjoint and their
    measures, each from ln a - ln b, sum to the measure of the union.
    """
    log_l, log_r = _level_extents(m, f, lambdas)
    order = np.argsort(log_l, axis=1)
    log_l = np.take_along_axis(log_l, order, axis=1)
    log_r = np.take_along_axis(log_r, order, axis=1)
    reach = np.maximum.accumulate(log_r, axis=1)
    covered = np.concatenate([np.full((len(reach), 1), NEG_INF), reach[:, :-1]], axis=1)
    lo = np.maximum(log_l, covered)
    hi = np.maximum(log_r, covered)
    with np.errstate(invalid="ignore"):
        parts = _log_power_interval(m.homogeneity, hi, lo - hi)
    sup = np.where(log_r > log_l, log_r, NEG_INF).max(axis=1)
    return np.logaddexp.reduce(parts, axis=1), sup


# ITP constants (Oliveira & Takahashi 2021) for _grid_level_logs: the
# truncation is kappa_1 w^2 with kappa_1 = _ITP_K1 / w_0 for the initial
# bracket width w_0, and _ITP_N0 rounds of slack over bisection.  The
# minmax radius steers toward _ITP_AIM * 2 eps rather than 2 eps itself,
# so a bracket held on the radius (a step-like g) ends clear of the
# stopping rule's edge, where rounding in t could cost one more round
_ITP_K1 = 0.2
_ITP_N0 = 1
_ITP_AIM = 0.875


@dataclass(frozen=True)
class GridConfig:
    """Level-set grid for a caller-supplied max_fn (_grid_level_logs).

    points sets the sampling grid; the crossing search closes each bracket
    to MaximalConfig.quad's tol, so a level set's gamma0 is resolved to
    about p tol.  bisect_rel_tol and max_bisect change no result; they stay
    so that existing callers keep constructing.
    """

    points: int = 1024
    bisect_rel_tol: float = 1e-10
    max_bisect: int = 64


@dataclass(frozen=True)
class LevelSetResult:
    """gamma0-measure of a level set and its supremum, the window beyond
    which the maximal function is at most the level."""

    measure: float
    window: float


def _check_levels(m: PowerLawMeasure, f: RadialProfile, lambdas) -> np.ndarray:
    """The levels as an array, after checking them and the profile."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        raise ValueError("need at least one lambda")
    if not np.all((lambdas > 0) & (lambdas < math.inf)):
        raise ValueError("levels must be positive and finite")
    if _log_l1(m, f) == NEG_INF:
        raise ValueError("profile is a.e. zero")
    return lambdas


def level_sets(m: PowerLawMeasure, f: RadialProfile, lambdas) -> list[LevelSetResult]:
    """gamma0-measure of {M^u f > lambda} for several lambdas at once.

    Each level set is exact, a union of breakpoint-anchored extents (see
    _level_extents).  A measure past the double range raises OverflowError;
    weak_type_quotient_1d stays finite there.
    """
    lambdas = _check_levels(m, f, lambdas)
    log_mu, log_sup = _level_set_logs(m, f, lambdas)
    return [LevelSetResult(_linear(a, m, f"gamma0{{M^u f > {lam:g}}}"),
                           _linear(b, m, f"sup{{M^u f > {lam:g}}}"))
            for lam, a, b in zip(lambdas, log_mu, log_sup)]


def _grid_level_logs(m: PowerLawMeasure, f: RadialProfile, log_lambdas, points: int,
                     tol: float, max_fn, window_scale: float, lower_fn=None):
    """(ln gamma0{M > lam}, ln gamma0-width of its unresolved brackets) per ln lam.

    For any vectorized c -> ln M(c) with M <= window_scale * M^u f (radial's
    centered operator, with C + 1): M on one grid shared by all levels up to
    the window T, gamma0(t_n, T) = window_scale ||f||_1 / min lam, then a
    lockstep ITP search (Oliveira & Takahashi 2021) of every crossing: each
    round is one max_fn call at the regula-falsi points of
    g = ln M - ln lam in u = ln t, truncated toward each bracket's midpoint
    and kept within the minmax radius, so g near a power law closes in a
    few rounds and a step function takes at most _ITP_N0 more than
    bisection.  Measures come from ln a - ln b of bracket midpoints.  A
    bracket (a, b) closes once b - a <= tol b, tol being max_fn's accuracy
    (radial's quad.tol): gamma0 = t^p / p is resolved to about p tol.

    lower_fn, a vectorized c -> lower bound of ln M(c), settles a grid point
    whose bound exceeds the top level: it lies in every level set.  max_fn
    then runs only on the unsettled points and their settled neighbours,
    the only points that can end a bracket, so the search reads the same
    values as without the bound.
    """
    log_lambdas = np.asarray(log_lambdas, dtype=float)
    p = m.homogeneity
    t_n = f.breakpoints[-1]
    log_T = (np.logaddexp(p * math.log(t_n), math.log(p * window_scale) + _log_l1(m, f)
                          - log_lambdas.min()) / p + math.log1p(1e-12))
    T = _linear(log_T, m, f"the level-set window for ln lambda = {log_lambdas.min():g}")
    # geometric grid down to where the cumulative gamma0-mass is negligible
    # (t^p dies slowly for small p = d - beta, so the depth is mass-aware),
    # plus linear coverage of the profile's own scale
    decades_down = min(max(9.0 / p, 4.0), 300.0)
    geo = np.geomspace(T * 10.0 ** (-decades_down), T,
                       max(points, int(8 * decades_down)))
    lin = np.linspace(0.0, min(2.0 * t_n, T), points // 4 + 2)[1:]
    bp = np.asarray(f.breakpoints)
    xs = np.unique(np.concatenate([geo, lin, bp[(bp > 0) & (bp < T)]]))
    if lower_fn is None:
        lM = max_fn(xs)
    else:
        # a settled point reads +inf: above every level, and never a bracket end
        settled = lower_fn(xs) > log_lambdas.max()
        need = ~settled
        need[1:] |= ~settled[:-1]
        need[:-1] |= ~settled[1:]
        lM = np.full(len(xs), np.inf)
        lM[need] = max_fn(xs[need])

    # edge k of a level's zero-padded mask is a crossing in (x_{k-1}, x_k);
    # row-major, each level's edges alternate entering and leaving, and a run
    # from the first grid point or to the last gets a zero-width bracket at 0 or T
    above = np.pad(lM[None, :] > log_lambdas[:, None], ((0, 0), (1, 1)))
    edges = np.diff(above.astype(np.int8), axis=1)
    level, k = np.nonzero(edges)
    entering = edges[level, k] > 0
    bl = np.concatenate([[0.0], xs])[k]
    bh = np.where(k == 0, 0.0, np.concatenate([xs, xs[-1:]])[k])
    # g = ln M - ln lam at the bracket ends, from the grid values; the
    # zero-width brackets at 0 and T start (and stay) converged
    log_lam = log_lambdas[level]
    with np.errstate(divide="ignore", invalid="ignore"):
        g_lo = np.concatenate([[np.nan], lM])[k] - log_lam
        g_hi = np.concatenate([lM, [np.nan]])[k] - log_lam
        w0 = np.log(bh) - np.log(bl)
        # ITP in u = ln t: width <= 2 eps meets the stopping rule below, within
        # n_max rounds (_ITP_N0 beyond bisection); one more for rounding in t
        eps = 0.5 * math.log1p(tol)
        n_max = np.ceil(np.log2(w0 / (2.0 * eps))) + _ITP_N0
    # stop per-bracket relative to its own location, not the window;
    # converged brackets drop out of the (possibly expensive) max_fn
    unresolved = lambda: bh - bl > tol * np.maximum(bh, 1e-300)
    for j in range(int(n_max[unresolved()].max(initial=-1.0)) + 1):
        active = unresolved()
        if not active.any():
            break
        ul, uh = np.log(bl[active]), np.log(bh[active])
        gl, gh = g_lo[active], g_hi[active]
        w = uh - ul
        mid = 0.5 * (ul + uh)
        # regula falsi, truncated toward the midpoint by kappa_1 w^2 and
        # projected into the minmax radius r around it; a non-finite end
        # value (or equal ones) falls back to the midpoint
        with np.errstate(divide="ignore", invalid="ignore"):
            falsi = ul - gl * w / (gh - gl)
        falsi = np.where(np.isfinite(gl) & np.isfinite(gh) & np.isfinite(falsi), falsi, mid)
        sigma = np.sign(mid - falsi)
        delta = _ITP_K1 * w * w / w0[active]
        trunc = np.where(delta <= np.abs(mid - falsi), falsi + sigma * delta, mid)
        r = np.maximum(_ITP_AIM * eps * 2.0 ** (n_max[active] - j) - 0.5 * w, 0.0)
        u = np.where(np.abs(trunc - mid) <= r, trunc, mid - sigma * r)
        t = np.exp(u)
        g = max_fn(t) - log_lam[active]
        up = g > 0
        # entering brackets have the above-level state on their hi side,
        # leaving ones on their lo side
        move_hi = np.where(entering[active], up, ~up)
        bh[active] = np.where(move_hi, t, bh[active])
        g_hi[active] = np.where(move_hi, g, gh)
        bl[active] = np.where(move_hi, bl[active], t)
        g_lo[active] = np.where(move_hi, gl, g)

    with np.errstate(divide="ignore", invalid="ignore"):
        ends = np.log(0.5 * (bl + bh))
        lo, hi = np.log(bl), np.log(bh)
        runs = _log_power_interval(p, ends[1::2], ends[::2] - ends[1::2])
        widths = _log_power_interval(p, hi, lo - hi)
    log_mu = np.full(len(log_lambdas), NEG_INF)
    np.logaddexp.at(log_mu, level[::2], runs)
    log_width = np.full(len(log_lambdas), NEG_INF)
    np.logaddexp.at(log_width, level, widths)
    return log_mu, log_width


def weak_type_quotient_1d(m: PowerLawMeasure, f: RadialProfile, lambdas,
                          grid: GridConfig | None = None) -> float:
    """max over the lambda grid of lambda * gamma0{M^u f > lambda} / ||f||_1.

    Exact level sets (grid is unused); the quotient is formed in logs, so
    it stays finite where gamma0 of the level set overflows a double.
    """
    lambdas = _check_levels(m, f, lambdas)
    log_mu, _ = _level_set_logs(m, f, lambdas)
    return math.exp(float((np.log(lambdas) + log_mu).max()) - _log_l1(m, f))


def default_lambda_grid(m: PowerLawMeasure, f: RadialProfile, n: int = 32) -> np.ndarray:
    """Geometric lambda grid from 1e-3 max f (deep engulfing) up to 1.1 max f."""
    vmax = max(f.values)
    if vmax <= 0:
        raise ValueError("profile is a.e. zero")
    if not 0 < 1e-3 * vmax < 1.1 * vmax < math.inf:
        raise ValueError(f"max f = {vmax!r} at d = {m.d}, beta = {m.beta}: its levels "
                         "1e-3 max f .. 1.1 max f leave the double range")
    return np.geomspace(1e-3 * vmax, 1.1 * vmax, n)
