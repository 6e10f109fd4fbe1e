"""Uncentered maximal operator on (0, infinity) for weighted line measures.

The measure is d(gamma0) = t^{d-1-beta} dt, the radial trace of a power-law
measure on R^d.  On piecewise-constant profiles the supremum over intervals
is attained with both endpoints in a finite candidate set: moving an
endpoint across a constancy piece drags the running average monotonically
toward that piece's value (and freezes it on contact), so interval optima
sit at profile breakpoints, at the evaluation point, or at 0.  This makes
the operator exact up to float arithmetic; a dense-grid oracle guards the
claim in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def gamma0_interval(m: WeightedLineMeasure, a: float, b: float) -> float:
    """gamma0(a, b) = (b^p - a^p)/p with p = d - beta; 0 when a == b."""
    if a < 0 or b < a:
        raise ValueError("need 0 <= a <= b")
    p = m.power
    return (b ** p - a ** p) / p


def profile_l1_norm(m: WeightedLineMeasure, f: RadialProfile) -> float:
    """L1 norm of the profile under gamma0."""
    bp = np.asarray(f.breakpoints)
    vals = np.asarray(f.values)
    p = m.power
    masses = np.diff(bp ** p) / p
    return float((vals * masses).sum())


class _ProfileMass:
    """Precomputed cumulative gamma0-mass of a profile for fast averages."""

    def __init__(self, m: WeightedLineMeasure, f: RadialProfile):
        self.m = m
        self.f = f
        self.p = m.power
        self.bp = np.asarray(f.breakpoints)
        self.vals = np.asarray(f.values)
        self.cum_gamma = self.bp ** self.p / self.p
        piece_mass = self.vals * np.diff(self.cum_gamma)
        self.cum_mass = np.concatenate([[0.0], np.cumsum(piece_mass)])
        self.total = float(self.cum_mass[-1])

    def gamma(self, t):
        return np.asarray(t, dtype=float) ** self.p / self.p

    def mass(self, t):
        """integral of f d(gamma0) over (0, t], vectorized."""
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.bp, t, side="right") - 1, 0, len(self.vals))
        kk = np.clip(k, 0, len(self.vals) - 1)
        below = t <= self.bp[0]
        partial = self.vals[kk] * (self.gamma(np.maximum(t, self.bp[0])) - self.cum_gamma[kk])
        out = np.where(
            k >= len(self.vals),
            self.total,
            self.cum_mass[np.minimum(k, len(self.vals) - 1)] + partial,
        )
        return np.where(below, 0.0, out)


def uncentered_max_grid(m: WeightedLineMeasure, f: RadialProfile, xs) -> np.ndarray:
    """M^u f at many points, by exact candidate enumeration (vectorized).

    Candidate left endpoints: 0, breakpoints clipped up at x, and x itself;
    right endpoints: breakpoints clipped down at x, and x.  Clipping turns
    out-of-side candidates into duplicates of x, which cost nothing.
    """
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0):
        raise ValueError("evaluation points must be > 0")
    pm = _ProfileMass(m, f)
    bp = pm.bp
    a_cand = np.concatenate(
        [np.minimum(bp[None, :], xs[:, None]), np.zeros((len(xs), 1))], axis=1
    )
    b_cand = np.concatenate(
        [np.maximum(bp[None, :], xs[:, None]), xs[:, None]], axis=1
    )
    Na, Ga = pm.mass(a_cand), pm.gamma(a_cand)
    Nb, Gb = pm.mass(b_cand), pm.gamma(b_cand)
    num = Nb[:, None, :] - Na[:, :, None]
    den = Gb[:, None, :] - Ga[:, :, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        avg = np.where(den > 0, num / den, -np.inf)
    return avg.max(axis=(1, 2))


def uncentered_max(m: WeightedLineMeasure, f: RadialProfile, x: float) -> float:
    """Uncentered maximal function of the profile at a single point x > 0."""
    return float(uncentered_max_grid(m, f, np.array([float(x)]))[0])


@dataclass(frozen=True)
class GridConfig:
    """Resolution knobs for level-set measurement."""

    points: int = 1024
    bisect_rel_tol: float = 1e-10
    max_bisect: int = 64


DEFAULT_GRID = GridConfig()


@dataclass(frozen=True)
class LevelSetResult:
    measure: float
    resolution_error: float
    window: float


def _bracket_window(m: WeightedLineMeasure, f: RadialProfile, lam: float) -> float:
    """T with M^u f < lam beyond T: gamma0(t_n, T) = ||f||_1 / lam."""
    p = m.power
    t_n = f.breakpoints[-1]
    l1 = profile_l1_norm(m, f)
    return (t_n ** p + p * l1 / lam) ** (1.0 / p) * (1.0 + 1e-12)


def level_sets(m: WeightedLineMeasure, f: RadialProfile, lambdas,
               grid: GridConfig = DEFAULT_GRID, max_fn=None,
               window_scale: float = 1.0) -> list[LevelSetResult]:
    """gamma0-measure of {M f > lambda} for several lambdas at once.

    The expensive part, evaluating the maximal function on the bracketing
    grid, is shared across all levels; each level then refines its own
    up/down crossings by lockstep bisection.  max_fn defaults to the exact
    1D evaluator but can be any vectorized c -> M(c) map (the radial
    module reuses this for level sets in R^d, passing window_scale = C+1
    because its maximal function exceeds the 1D one by that factor).
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        raise ValueError("need at least one lambda")
    if np.any(lambdas <= 0):
        raise ValueError("levels must be > 0")
    if profile_l1_norm(m, f) <= 0:
        raise ValueError("profile is a.e. zero")
    if max_fn is None:
        max_fn = lambda ts: uncentered_max_grid(m, f, ts)

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
    """gamma0{t : M^u f(t) > lam} with a resolution-error report."""
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    return level_sets(m, f, [lam], grid)[0]


def weak_type_quotient_1d(m: WeightedLineMeasure, f: RadialProfile, lambdas,
                          grid: GridConfig = DEFAULT_GRID) -> float:
    """max over the lambda grid of lambda * gamma0{M f > lambda} / ||f||_1."""
    l1 = profile_l1_norm(m, f)
    if l1 <= 0:
        raise ValueError("profile is a.e. zero")
    results = level_sets(m, f, lambdas, grid)
    lambdas = np.asarray(lambdas, dtype=float)
    return float(max(l * r.measure / l1 for l, r in zip(lambdas, results)))


def default_lambda_grid(m: WeightedLineMeasure, f: RadialProfile, n: int = 32,
                        lo_frac: float = 1e-3, hi_frac: float = 1.1) -> np.ndarray:
    """Geometric lambda grid spanning from deep engulfing up past max f."""
    vmax = max(f.values)
    if vmax <= 0:
        raise ValueError("profile is a.e. zero")
    return np.geomspace(lo_frac * vmax, hi_frac * vmax, n)
