"""Uncentered maximal operator on (0, infinity) for weighted line measures.

The measure is d(gamma0) = t^{d-1-beta} dt, the radial trace of the
measure.PowerLawMeasure that serves here too, with gamma0(0, t) = G(t) =
t^p/p, p = d - beta (its homogeneity).  Interval measures come from the
ball measures' log-space primitives in specfun, and the profile's logs from
the record the ray integrand reads too (specfun._step_terms), so averages
are differences of logs and nothing overflows at d in the hundreds.

Drag argument.  Moving an endpoint of an interval across a constancy piece
of value v drags the running average monotonically toward v (and freezes
it on contact).  Two exact reductions follow on step profiles:

* M^u f(x): write v_k for the value on piece k, with v = 0 on (0, t_0]
  and past t_n, so that t_k lies between pieces k and k + 1.  An optimal
  interval (a, b) around x has a = x or a left end t_k where f steps up
  (v_k <= v_{k+1}), and b = x or a right end t_k where f steps down
  (v_k >= v_{k+1}): at any other left end t_k, either v_k > avg and a
  moving to t_{k-1} raises the average, or v_{k+1} < v_k <= avg and a
  moving to min(t_{k+1}, x) raises it (right ends alike).  The supremum
  is a maximum over these pairs; a dense-grid oracle and an mpmath search
  over every pair of breakpoints guard the claim in the tests.
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

from .measure import PowerLawMeasure, _grid_points
from .specfun import NEG_INF, _log_piece_table, _log_power_interval, _log_ratio, _step_terms

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
            raise ValueError(f"need one more breakpoint than values: got {len(bp)} breakpoints "
                             f"for {len(vals)} values")
        if len(vals) < 1:
            raise ValueError(f"profile needs at least one piece: got t_0 = {bp[0]!r} alone")
        bad = [x for x in bp + vals if not math.isfinite(x)]
        if bad:
            raise ValueError(f"breakpoints and values must be finite: got {bad[0]!r}")
        if bp[0] < 0:
            raise ValueError(f"breakpoints must be >= 0: got t_0 = {bp[0]!r}")
        k = next((k for k in range(len(vals)) if bp[k] >= bp[k + 1]), None)
        if k is not None:
            raise ValueError(f"breakpoints must be strictly ascending: got t_{k} = {bp[k]!r} "
                             f"then t_{k + 1} = {bp[k + 1]!r}")
        k = next((k for k, v in enumerate(vals, 1) if v < 0), None)
        if k is not None:
            raise ValueError(f"profile values must be nonnegative: got v_{k} = {vals[k - 1]!r}")

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


def _log_l1(m: PowerLawMeasure, f: RadialProfile) -> float:
    """ln of the profile's L1 norm under gamma0; -inf for an a.e. zero profile."""
    terms = _step_terms(m.homogeneity, f.breakpoints, f.values)
    return float(np.logaddexp.reduce(terms.log_v[1:-1] + terms.log_g, axis=0))


def _linear(log_value, m: PowerLawMeasure, what: str,
            hint: str = "; weak_type_quotient_* work in logs") -> float:
    """exp(log_value); past the double range, an OverflowError naming the
    inputs without commas, then the hint."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise OverflowError(f"{what} = exp({float(log_value):.6g}) at d = {m.d} beta = {m.beta} "
                            f"is past the double range{hint}") from None


def gamma0_interval(m: PowerLawMeasure, a: float, b: float) -> float:
    """gamma0(a, b) = (b^p - a^p)/p with p = d - beta; 0 when a == b."""
    if not 0 <= a <= b < math.inf:
        raise ValueError(f"need 0 <= a <= b < inf, got a = {a} b = {b}")
    la = math.log(a) if a > 0 else NEG_INF
    lb = math.log(b) if b > 0 else NEG_INF
    return _linear(float(_log_power_interval(m.homogeneity, lb, _log_ratio(la, b, lb, b - a))), m,
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

    Candidate left ends: x and the breakpoints below x where f steps up;
    right ends: x and the breakpoints from x on where f steps down (the drag
    argument in the module docstring; ties stay on both sides); 0 is no
    candidate, since f = 0 on (0, t_0].  For x in piece q these are a prefix
    of the step-up breakpoints and a suffix of the step-down ones, so only
    live pairs (a, b) are formed.  Each is split at x, so its mass and its
    gamma0-measure are each a sum of two terms, one per side: whole pieces
    between breakpoints come from a per-profile table, and only the piece
    holding x is cut.  The per-end terms, formed over live (point, end)
    entries only, are the pairs with an end at x; those with both ends at
    breakpoints join them with logaddexp.  Each kind is a flat list of runs,
    one per point, each reduced to its maximum.  No power of t is formed.
    """
    xs = _grid_points(xs, m, "M^u f", "x")
    p = m.homogeneity
    _, lt, v, lv, _, _, _ = _step_terms(p, f.breakpoints, f.values)
    n = len(f.values)
    table = _log_piece_table(p, f.breakpoints, f.values)
    # t_k lies between pieces k and k + 1; by the drag argument a left end
    # needs f to step up there and a right end needs it to step down; the
    # right ends run downward, so that those from x on are a prefix too
    left = np.flatnonzero(v[:-1] <= v[1:])
    right = np.flatnonzero(v[:-1] >= v[1:])[::-1]
    # x lies in piece q = (t_{q-1}, t_q], with t_{-1} = 0, t_{n+1} = inf, f = 0 on pieces
    # 0 and n + 1; its nl live ends below t_q (nr from t_q on) run from start_l (start_r)
    q = np.searchsorted(f.breakpoints, xs, side="right")
    il, ka = np.nonzero(left < q[:, None])
    ir, kb = np.nonzero(right >= q[:, None])
    ta, tb = left[ka], right[kb]
    nl, nr = np.bincount(il, minlength=len(xs)), np.bincount(ir, minlength=len(xs))
    start_l, start_r = np.cumsum(nl) - nl, np.cumsum(nr) - nr
    lx = np.log(xs)
    lt_q = np.concatenate([[NEG_INF], lt, [np.inf]])
    lv_q = lv[q]
    # per live entry, the mass and measure between the end and x
    with np.errstate(invalid="ignore"):
        cut_left = lv_q + _log_power_interval(p, lx, lt_q[q] - lx)
        cut_right = lv_q + _log_power_interval(p, lt_q[q + 1], lx - lt_q[q + 1])
        mass_a = np.logaddexp(table[ta, np.maximum(q - 1, 0)[il]], cut_left[il])
        mass_b = np.logaddexp(cut_right[ir], table[np.minimum(q, n)[ir], tb])
        gamma_a = _log_power_interval(p, lx[il], lt[ta] - lx[il])
        gamma_b = _log_power_interval(p, lt[tb], lx[ir] - lt[tb])
        # the pairs (a, x) and (x, b), whose end at x adds nothing
        single_a = np.where(gamma_a > NEG_INF, mass_a - gamma_a, NEG_INF)
        single_b = np.where(gamma_b > NEG_INF, mass_b - gamma_b, NEG_INF)
    # the pairs with both ends at breakpoints: point i has nl by nr of them,
    # row-major in one flat list, where it takes a run of nl nr
    size = nl * nr
    start = np.cumsum(size) - size
    i = np.repeat(np.arange(len(xs)), size)
    k = np.arange(len(i)) - start[i]
    a = k // nr[i]
    ia = start_l[i] + a
    ib = start_r[i] + (k - a * nr[i])
    # b > x, so every such pair has a positive measure
    log_avg = (np.logaddexp(mass_a[ia], mass_b[ib])
               - np.logaddexp(gamma_a[ia], gamma_b[ib]))
    # the three lists end to end; an empty run reads the next's first entry or the -inf
    starts = np.concatenate([start_l, len(il) + start_r, len(il) + len(ir) + start])
    runs = np.maximum.reduceat(np.concatenate([single_a, single_b, log_avg, [NEG_INF]]), starts)
    return np.where(np.concatenate([nl, nr, size]) > 0, runs, NEG_INF).reshape(3, -1).max(axis=0)


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
    with v = 0 on (0, t_0] and past t_n.  Each anchor's own excess, e = 0,
    counts as positive, so an anchor with no positive excess on a side is
    its own extent there (j = i, where both roots read t_i), and the last
    and first positive excesses are one argmax each.
    """
    p = m.homogeneity
    lam = np.asarray(lambdas, dtype=float)[:, None]
    _, lt, v, _, _, _, lg = _step_terms(p, f.breakpoints, f.values)  # v[k] on piece k
    n = len(lg)
    anchor = np.arange(n + 1)
    r = anchor[:, None]
    k = anchor[None, 1:]
    level = np.arange(len(lam))[:, None]
    # where the formula's slack lam - v <= 0, which past the last positive
    # excess (before the first) only rounding makes, the extent ends at the
    # next breakpoint out, which v > 0 there puts in range; at j = i it stays at t_i
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # G(t_r) = t_r^p / p
        W = np.where(k <= r, np.exp(lg - (p * lt - math.log(p))[:, None]), 0.0)   # (n + 1, n)
        # S[l, r, s] = sum over s < k <= r of (v_k - lam) g_k / G(t_r): the
        # excess on (t_s, t_r) in units of G(t_r); 0 on and above the diagonal
        S = ((v[1:-1] - lam[..., None]) * W) @ (k > r).T
        pos = S > 0
        pos[:, anchor, anchor] = True
        # right: last j with e(t_i, t_j) = S[l, j, i] > 0
        j = n - np.argmax(pos[:, ::-1, :], axis=1)
        slack = lam - v[1:][j]
        log_r = lt[j] + np.log1p(S[level, j, anchor] / slack) / p
        if (out := slack <= 0).any():
            log_r[out] = lt[(j + (j > anchor))[out]]
        # left: first j with e(t_j, t_i) = S[l, i, j] > 0; at j = i the
        # rest reads 1, or NaN at t_0 = 0, which fmax takes to L = 0 = t_0
        j = np.argmax(pos, axis=2)
        slack = lam - v[j]
        rest = np.exp(p * (lt[j] - lt)) - S[level, anchor, j] / slack
        log_l = lt + np.log(np.fmax(rest, 0.0)) / p
        if (out := slack <= 0).any():
            log_l[out] = lt[(j - (j < anchor))[out]]
    return log_l, log_r


def _log_union(p: float, log_l, log_r) -> np.ndarray:
    """ln gamma0 of the union of the extents (L_i, R_i) of each row; -inf when empty.

    The extents are sorted by their left end; each adds the part of itself
    beyond the running right end, so the parts are disjoint and their
    measures, each from ln a - ln b, sum to the measure of the union.
    """
    rows = np.arange(len(log_l))[:, None]
    order = np.argsort(log_l, axis=1)
    log_l = log_l[rows, order]
    # the running right end, which is also each part's right end
    reach = np.maximum.accumulate(log_r[rows, order], axis=1)
    np.maximum(log_l[:, 1:], reach[:, :-1], out=log_l[:, 1:])
    with np.errstate(invalid="ignore"):
        parts = _log_power_interval(p, reach, log_l - reach)
    return np.logaddexp.reduce(parts, axis=1)


def _level_set_logs(m: PowerLawMeasure, f: RadialProfile, lambdas) -> np.ndarray:
    """ln gamma0{M^u f > lam} per level; -inf when empty."""
    return _log_union(m.homogeneity, *_level_extents(m, f, lambdas))


# rounds of slack that ITP's minmax radius allows the crossing search of
# _grid_level_logs over bisection
_CROSS_N0 = 4


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


def _check_levels(m: PowerLawMeasure, f: RadialProfile, lambdas) -> tuple[np.ndarray, float]:
    """(the levels as an array, ln ||f||_1), after checking them and the profile."""
    lambdas = _grid_points(lambdas, m, "a level set", "lambda")
    if lambdas.size == 0:
        raise ValueError(f"need at least one lambda at d = {m.d}, beta = {m.beta}")
    log_l1 = _log_l1(m, f)
    if log_l1 == NEG_INF:
        raise ValueError(f"profile is a.e. zero: got max f = {max(f.values)!r} "
                         f"at d = {m.d} beta = {m.beta}")
    return lambdas, log_l1


def level_sets(m: PowerLawMeasure, f: RadialProfile, lambdas) -> list[LevelSetResult]:
    """gamma0-measure of {M^u f > lambda} for several lambdas at once.

    Each level set is exact, a union of breakpoint-anchored extents (see
    _level_extents).  A measure past the double range raises OverflowError;
    weak_type_quotient_1d stays finite there.
    """
    lambdas, _ = _check_levels(m, f, lambdas)
    log_l, log_r = _level_extents(m, f, lambdas)
    log_mu = _log_union(m.homogeneity, log_l, log_r)
    log_sup = np.where(log_r > log_l, log_r, NEG_INF).max(axis=1)
    return [LevelSetResult(_linear(a, m, f"gamma0{{M^u f > {lam:g}}}"),
                           _linear(b, m, f"sup{{M^u f > {lam:g}}}"))
            for lam, a, b in zip(lambdas, log_mu, log_sup)]


def _grid_level_logs(m: PowerLawMeasure, f: RadialProfile, log_lambdas, points: int,
                     tol: float, max_fn, window_scale: float, lower_fn=None):
    """(ln gamma0{M > lam}, ln gamma0-width of its unresolved brackets) per ln lam.

    For any vectorized c -> ln M(c) with M <= window_scale * M^u f (radial's
    centered operator, with C + 1) and M >= v_k on every open piece
    (t_{k-1}, t_k) of f (true of both operators here): M on one grid shared
    by all levels up to the window T, gamma0(t_n, T) = window_scale
    ||f||_1 / min lam, then a lockstep search of every crossing of
    g = ln M - ln lam in u = ln t.  A bracket inside a piece of value above
    its level whose end below the level is a breakpoint (a grid point)
    crosses exactly there, where M jumps, and closes at once.  Each round
    is one max_fn call at a trial point per open bracket, by Chandrupatla's
    rule (1997): regula falsi in the first round, then inverse quadratic
    interpolation through both ends and the end last replaced where those
    three points admit it, and bisection elsewhere.  No trial lies within
    eps/2 of an end, where 2 eps = ln(1 + tol) is the width in u at which a
    bracket closes, so a trial beside the root crosses it and closes the
    bracket.  ITP's minmax radius (Oliveira & Takahashi 2021) keeps every
    search within _CROSS_N0 rounds of bisection: g near a power law closes
    in about three rounds, a step function bisects, and a crossing where M
    falls like a square root past a breakpoint takes about nine at tol
    1e-8 to 1e-11.  A bracket (a, b) closes once b - a <= tol b, tol being
    max_fn's accuracy (radial's quad.tol), and its crossing is read at the
    regula-falsi point between its ends: gamma0 = t^p / p is resolved to
    within p tol, and to far less where g is smooth.

    lower_fn, a vectorized c -> lower bound of ln M(c), settles a grid point
    whose bound exceeds the top level: it lies in every level set.  max_fn
    then runs only on the unsettled points and their settled neighbours,
    the only points that can end a bracket, so the search reads the same
    values as without the bound.
    """
    log_lambdas = np.asarray(log_lambdas, dtype=float)
    p = m.homogeneity
    terms = _step_terms(p, f.breakpoints, f.values)
    t_n = f.breakpoints[-1]
    log_T = (np.logaddexp(p * terms.log_t[-1], math.log(p * window_scale) + _log_l1(m, f)
                          - log_lambdas.min()) / p + math.log1p(1e-12))
    T = _linear(log_T, m, f"the level-set window for ln lambda = {log_lambdas.min():g}", hint="")
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
    log_lam = log_lambdas[level]
    # every breakpoint is a grid point, so a bracket lies in the piece of its midpoint
    below = np.where(entering, bl, bh)
    log_f = terms.log_v[np.searchsorted(bp, 0.5 * (bl + bh), side="left")]
    jump = np.isin(below, bp) & (log_f > log_lam)
    bl[jump] = bh[jump] = below[jump]
    # g = ln M - ln lam at the bracket ends, from the grid values; the
    # zero-width brackets at 0 and T start (and stay) converged
    with np.errstate(divide="ignore", invalid="ignore"):
        g_lo = np.concatenate([[np.nan], lM])[k] - log_lam
        g_hi = np.concatenate([lM, [np.nan]])[k] - log_lam
        w0 = np.log(bh) - np.log(bl)
        # in u = ln t, width <= 2 eps meets the stopping rule below, within
        # n_max rounds (_CROSS_N0 beyond bisection); one more for rounding in t
        eps = 0.5 * math.log1p(tol)
        n_max = np.ceil(np.log2(w0 / (2.0 * eps))) + _CROSS_N0
    # stop per-bracket relative to its own location, not the window;
    # converged brackets drop out of the (possibly expensive) max_fn
    unresolved = lambda: bh - bl > tol * np.maximum(bh, 1e-300)
    # Chandrupatla's x3, the end the last round replaced, and its g; the
    # end it placed, x1, is the one next to x3
    t3 = np.full(len(bl), np.nan)
    g3 = np.full(len(bl), np.nan)
    for j in range(int(n_max[unresolved()].max(initial=-1.0)) + 1):
        active = unresolved()
        if not active.any():
            break
        ul, uh = np.log(bl[active]), np.log(bh[active])
        gl, gh = g_lo[active], g_hi[active]
        lo_new = t3[active] < bl[active]
        x1, x2 = np.where(lo_new, ul, uh), np.where(lo_new, uh, ul)
        f1, f2 = np.where(lo_new, gl, gh), np.where(lo_new, gh, gl)
        x3, f3 = np.log(t3[active]), g3[active]
        w = uh - ul
        # the trial is x1 + s (x2 - x1): regula falsi in the first round,
        # then inverse quadratic interpolation where the three points admit
        # it, and bisection elsewhere or where a value is not finite
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if j == 0:
                s = f1 / (f1 - f2)
            else:
                xi = (x1 - x2) / (x3 - x2)
                phi = (f1 - f2) / (f3 - f2)
                s = np.where((1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi)),
                             f1 / (f2 - f1) * f3 / (f2 - f3)
                             + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2), 0.5)
            # eps/2 or more from either end, so that a trial beside the root
            # crosses it and closes the bracket, and g = 0 at an end stalls nothing
            s_min = 0.5 * eps / w
            s = np.clip(np.where(np.isfinite(s), s, 0.5), s_min, 1.0 - s_min)
        est = x1 + s * (x2 - x1)
        # ITP's projection into the minmax radius r around the midpoint
        mid = 0.5 * (ul + uh)
        r = np.maximum(eps * 2.0 ** (n_max[active] - j) - 0.5 * w, 0.0)
        t = np.exp(np.where(np.abs(est - mid) <= r, est, mid + np.sign(est - mid) * r))
        g = max_fn(t) - log_lam[active]
        # entering brackets have the above-level state on their hi side,
        # leaving ones on their lo side
        up = g > 0
        move_hi = np.where(entering[active], up, ~up)
        t3[active] = np.where(move_hi, bh[active], bl[active])
        g3[active] = np.where(move_hi, gh, gl)
        bh[active] = np.where(move_hi, t, bh[active])
        g_hi[active] = np.where(move_hi, g, gh)
        bl[active] = np.where(move_hi, bl[active], t)
        g_lo[active] = np.where(move_hi, gl, g)

    with np.errstate(divide="ignore", invalid="ignore"):
        # each crossing at the regula-falsi point of its closed bracket, or
        # at the midpoint where an end value is not finite
        lo, hi = np.log(bl), np.log(bh)
        ends = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        ends = np.where(np.isfinite(g_lo + g_hi) & (ends >= lo) & (ends <= hi), ends,
                        np.log(0.5 * (bl + bh)))
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
    lambdas, log_l1 = _check_levels(m, f, lambdas)
    log_mu = _level_set_logs(m, f, lambdas)
    return math.exp(float((np.log(lambdas) + log_mu).max()) - log_l1)


def default_lambda_grid(m: PowerLawMeasure, f: RadialProfile, n: int = 32) -> np.ndarray:
    """Geometric lambda grid from 1e-3 max f (deep engulfing) up to 1.1 max f."""
    vmax = max(f.values)
    if vmax <= 0:
        raise ValueError(f"profile is a.e. zero: got max f = {vmax!r} at d = {m.d} beta = {m.beta}")
    if not 0 < 1e-3 * vmax < 1.1 * vmax < math.inf:
        raise ValueError(f"max f = {vmax!r} at d = {m.d}, beta = {m.beta}: its levels "
                         "1e-3 max f .. 1.1 max f leave the double range")
    return np.geomspace(1e-3 * vmax, 1.1 * vmax, n)
