"""Uncentered maximal operator on (0, infinity) for weighted line measures.

The measure is d(gamma0) = t^{d-1-beta} dt, the radial trace of a power-law
measure on R^d, with gamma0(0, t) = G(t) = t^p/p, p = d - beta.  Every
interval measure comes from one log-space primitive
(specfun._log_power_interval), so averages are differences of logs and
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

import math
from dataclasses import dataclass

import numpy as np

from .specfun import NEG_INF, _log_power_interval

__all__ = [
    "WeightedLineMeasure",
    "RadialProfile",
    "GridConfig",
    "LevelSetResult",
    "gamma0_interval",
    "uncentered_max",
    "uncentered_max_grid",
    "level_set_measure",
    "level_sets",
    "weak_type_quotient_1d",
    "default_lambda_grid",
]


@dataclass(frozen=True)
class WeightedLineMeasure:
    """gamma0 on (0, inf) with density t^(d-1-beta); requires beta < d."""

    d: int
    beta: float = 0.0

    def __post_init__(self):
        if self.d < 1 or int(self.d) != self.d:
            raise ValueError("dimension d must be an integer >= 1")
        if not self.beta < self.d:
            raise ValueError("beta must be < d for gamma0 to be locally finite")

    @property
    def power(self) -> float:
        """gamma0(0, t) = t^power / power."""
        return self.d - self.beta


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


def _log_pieces(m: WeightedLineMeasure, f: RadialProfile):
    """(ln t_k for k = 0..n, ln g_k = ln gamma0(t_{k-1}, t_k) for k = 1..n, ln v_k)."""
    with np.errstate(divide="ignore"):
        lt = np.log(np.asarray(f.breakpoints))
        lv = np.log(np.asarray(f.values))
    return lt, _log_power_interval(m.power, lt[1:], lt[:-1] - lt[1:]), lv


def _log_l1(m: WeightedLineMeasure, f: RadialProfile) -> float:
    """ln of the profile's L1 norm under gamma0; -inf for an a.e. zero profile."""
    _, lg, lv = _log_pieces(m, f)
    return float(np.logaddexp.reduce(lv + lg, axis=0))


def gamma0_interval(m: WeightedLineMeasure, a: float, b: float) -> float:
    """gamma0(a, b) = (b^p - a^p)/p with p = d - beta; 0 when a == b."""
    if a < 0 or b < a:
        raise ValueError("need 0 <= a <= b")
    with np.errstate(divide="ignore"):
        la, lb = np.log(a), np.log(b)
    return math.exp(float(_log_power_interval(m.power, lb, la - lb)))


def profile_l1_norm(m: WeightedLineMeasure, f: RadialProfile) -> float:
    """L1 norm of the profile under gamma0."""
    return math.exp(_log_l1(m, f))


def uncentered_max_grid(m: WeightedLineMeasure, f: RadialProfile, xs) -> np.ndarray:
    """M^u f at many points, by exact candidate enumeration in logs (vectorized).

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
    if np.any(xs <= 0):
        raise ValueError("evaluation points must be > 0")
    p = m.power
    lt, lg, lv = _log_pieces(m, f)
    n = len(lg)
    k = np.arange(1, n + 1)
    i = np.arange(n + 1)
    # table[i, j] = ln of the mass on (t_i, t_j], pieces i < k <= j
    table = np.logaddexp.reduce(
        np.where((i[:, None, None] < k) & (k <= i[None, :, None]), lv + lg, NEG_INF), axis=2)
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
    return np.exp(log_avg.max(axis=(1, 2)))


def uncentered_max(m: WeightedLineMeasure, f: RadialProfile, x: float) -> float:
    """Uncentered maximal function of the profile at a single point x > 0."""
    return float(uncentered_max_grid(m, f, np.array([float(x)]))[0])


def _level_extents(m: WeightedLineMeasure, f: RadialProfile, lambdas):
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
    p = m.power
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


def _level_set_logs(m: WeightedLineMeasure, f: RadialProfile, lambdas):
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
        parts = _log_power_interval(m.power, hi, lo - hi)
    sup = np.where(log_r > log_l, log_r, NEG_INF).max(axis=1)
    return np.logaddexp.reduce(parts, axis=1), sup


@dataclass(frozen=True)
class GridConfig:
    """Resolution knobs for level-set measurement of a caller-supplied max_fn."""

    points: int = 1024
    bisect_rel_tol: float = 1e-10
    max_bisect: int = 64


DEFAULT_GRID = GridConfig()


@dataclass(frozen=True)
class LevelSetResult:
    """gamma0-measure of a level set, the gamma0-width of its unresolved
    crossing brackets (0 when exact), and a window T beyond which the
    maximal function is at most the level (the set's supremum when exact)."""

    measure: float
    resolution_error: float
    window: float


def _bracket_window(m: WeightedLineMeasure, f: RadialProfile, lam: float) -> float:
    """T with M^u f < lam beyond T: gamma0(t_n, T) = ||f||_1 / lam."""
    p = m.power
    t_n = f.breakpoints[-1]
    l1 = profile_l1_norm(m, f)
    return (t_n ** p + p * l1 / lam) ** (1.0 / p) * (1.0 + 1e-12)


def _check_levels(m: WeightedLineMeasure, f: RadialProfile, lambdas) -> np.ndarray:
    """The levels as an array, after checking them and the profile."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        raise ValueError("need at least one lambda")
    if np.any(lambdas <= 0):
        raise ValueError("levels must be > 0")
    if _log_l1(m, f) == NEG_INF:
        raise ValueError("profile is a.e. zero")
    return lambdas


def level_sets(m: WeightedLineMeasure, f: RadialProfile, lambdas,
               grid: GridConfig = DEFAULT_GRID, max_fn=None,
               window_scale: float = 1.0) -> list[LevelSetResult]:
    """gamma0-measure of {M f > lambda} for several lambdas at once.

    With max_fn None, M is the 1D operator and each level set is exact, a
    union of breakpoint-anchored extents (see _level_extents): grid is
    unused and resolution_error is 0.  A caller-supplied max_fn, any
    vectorized c -> M(c) map, gets the grid path instead: M on a bracketing
    grid shared by all levels, then lockstep bisection of each level's
    up/down crossings.  The radial module uses it for level sets in R^d,
    passing window_scale = C + 1 because its maximal function exceeds the
    1D one by that factor.
    """
    lambdas = _check_levels(m, f, lambdas)
    if max_fn is None:
        log_mu, log_sup = _level_set_logs(m, f, lambdas)
        return [LevelSetResult(math.exp(a), 0.0, math.exp(b))
                for a, b in zip(log_mu, log_sup)]

    T = max(_bracket_window(m, f, float(l) / window_scale) for l in lambdas)
    if not math.isfinite(T):
        raise ValueError("level-set window overflowed; raise the smallest lambda")
    # geometric grid down to where the cumulative gamma0-mass is negligible
    # (t^p dies slowly for small p = d - beta, so the depth is mass-aware),
    # plus linear coverage of the profile's own scale
    p = m.power
    decades_down = min(max(9.0 / p, 4.0), 300.0)
    geo = np.geomspace(T * 10.0 ** (-decades_down), T,
                       max(grid.points, int(8 * decades_down)))
    t_n = f.breakpoints[-1]
    lin = np.linspace(0.0, min(2.0 * t_n, T), grid.points // 4 + 2)[1:]
    bp = np.asarray([t for t in f.breakpoints if 0 < t < T])
    xs = np.unique(np.concatenate([geo, lin, bp]))
    Mg = max_fn(xs)

    # collect crossing brackets for every level, then bisect them together;
    # entering brackets have the above-level state on their hi side, exit
    # brackets on their lo side
    br_lo, br_hi, br_lam, br_entering = [], [], [], []
    runs_per_level = []
    for lam in lambdas:
        # runs of grid points above the level: [i, j] from the rising and
        # falling edges of the zero-padded mask
        edges = np.diff(np.concatenate([[0], (Mg > lam).astype(np.int8), [0]]))
        runs = []
        for i, j in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1):
            # left edge: 0 if the first grid point is already above
            if i == 0:
                left = ("fixed", 0.0)
            else:
                left = ("bracket", len(br_lo))
                br_lo.append(xs[i - 1]); br_hi.append(xs[i]); br_lam.append(lam)
                br_entering.append(True)
            if j == len(xs) - 1:
                right = ("fixed", xs[-1])
            else:
                right = ("bracket", len(br_lo))
                br_lo.append(xs[j]); br_hi.append(xs[j + 1]); br_lam.append(lam)
                br_entering.append(False)
            runs.append((left, right))
        runs_per_level.append(runs)

    bl = np.asarray(br_lo, dtype=float)
    bh = np.asarray(br_hi, dtype=float)
    bv = np.asarray(br_lam, dtype=float)
    entering = np.asarray(br_entering, dtype=bool)
    if len(bl) > 0:
        for _ in range(grid.max_bisect):
            # stop per-bracket relative to its own location, not the window;
            # converged brackets drop out of the (possibly expensive) max_fn
            active = bh - bl > grid.bisect_rel_tol * np.maximum(bh, 1e-300)
            if not active.any():
                break
            mid = 0.5 * (bl[active] + bh[active])
            above_mid = max_fn(mid) > bv[active]
            # replace the endpoint whose side matches the midpoint's state
            move_hi = np.where(entering[active], above_mid, ~above_mid)
            bh[active] = np.where(move_hi, mid, bh[active])
            bl[active] = np.where(move_hi, bl[active], mid)

    p = m.power
    gamma_from_zero = lambda t: t ** p / p

    def resolve(tag_val):
        tag, val = tag_val
        if tag == "fixed":
            return val, 0.0
        k = val
        return 0.5 * (bl[k] + bh[k]), abs(gamma_from_zero(bh[k]) - gamma_from_zero(bl[k]))

    out = []
    for li, lam in enumerate(lambdas):
        total = 0.0
        err = 0.0
        for left, right in runs_per_level[li]:
            a, ea = resolve(left)
            b, eb = resolve(right)
            total += max(0.0, gamma_from_zero(b) - gamma_from_zero(a))
            err += ea + eb
        out.append(LevelSetResult(total, err, T))
    return out


def level_set_measure(m: WeightedLineMeasure, f: RadialProfile, lam: float,
                      grid: GridConfig = DEFAULT_GRID) -> LevelSetResult:
    """gamma0{t : M^u f(t) > lam}, exact (grid is unused, resolution_error is 0)."""
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    return level_sets(m, f, [lam], grid)[0]


def weak_type_quotient_1d(m: WeightedLineMeasure, f: RadialProfile, lambdas,
                          grid: GridConfig = DEFAULT_GRID) -> float:
    """max over the lambda grid of lambda * gamma0{M^u f > lambda} / ||f||_1.

    Exact level sets (grid is unused); the quotient is formed in logs, so
    it stays finite where gamma0 of the level set overflows a double.
    """
    lambdas = _check_levels(m, f, lambdas)
    log_mu, _ = _level_set_logs(m, f, lambdas)
    return math.exp(float((np.log(lambdas) + log_mu).max()) - _log_l1(m, f))


def default_lambda_grid(m: WeightedLineMeasure, f: RadialProfile, n: int = 32,
                        lo_frac: float = 1e-3, hi_frac: float = 1.1) -> np.ndarray:
    """Geometric lambda grid spanning from deep engulfing up past max f."""
    vmax = max(f.values)
    if vmax <= 0:
        raise ValueError("profile is a.e. zero")
    return np.geomspace(lo_frac * vmax, hi_frac * vmax, n)
