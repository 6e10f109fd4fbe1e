"""Log-space special functions behind high-dimensional ball measures.

Everything downstream lives in logarithms: sphere areas, gamma values and
ball measures overflow double precision long before the dimension reaches
a few hundred.  The primitives here therefore return natural logs, and
:class:`LogValue` is the record in which the measure functions return them.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "LogValue",
    "log_gamma",
    "log_beta",
    "stirling_bounds",
    "log_sphere_area",
]

_LOG_2PI = math.log(2.0 * math.pi)
NEG_INF = float("-inf")


@dataclass(frozen=True)
class LogValue:
    """A nonnegative quantity stored as its natural log; -inf encodes zero."""

    log: float


_lgamma = np.vectorize(math.lgamma, otypes=[float])


def log_gamma(x):
    """Natural log of the Gamma function for x > 0 (scalar or ndarray)."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError(f"log_gamma requires x > 0, got x = {x[~(x > 0)].flat[0]}")
    out = _lgamma(x)
    return float(out) if out.ndim == 0 else out


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def stirling_bounds(x: float) -> tuple[float, float]:
    """Two-sided Stirling bracket for ln Gamma(x+1), x > 0.

    Returns (lower, upper) with
        lower = ln[sqrt(2 pi) x^{x+1/2} e^{-x}],   upper = lower + 1/(12 x),
    so lower <= ln Gamma(x+1) <= upper always, with gap exactly 1/(12 x).
    """
    if not 0 < x < math.inf:
        raise ValueError(f"stirling_bounds requires finite x > 0, got x = {x!r}")
    lower = 0.5 * _LOG_2PI + (x + 0.5) * math.log(x) - x
    return lower, lower + 1.0 / (12.0 * x)


def _log_ratio(log_a, b, log_b, gap):
    """ln(a/b) for 0 <= a <= b from ln a, ln b and the gap b - a formed exactly
    (by Sterbenz where a >= b/2, or from a caller's two-term distances).  A
    thin interval, gap < b/2, takes log1p(-gap/b), so that b - a never
    cancels; a wide one takes ln a - ln b, where gap/b would round a away."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.divide(gap, b)
        wide = log_a - log_b
        thin = x < 0.5
        # clamped, a wide entry's unused log1p takes no slow path
        return np.where(thin, np.log1p(-np.minimum(x, 0.5)), wide) if thin.any() else wide


def _log_power_interval(p: float, log_b, log_ratio):
    """ln((b^p - a^p)/p) for 0 <= a <= b and p > 0, from ln b and ln(a/b) <= 0.

    The one power-interval primitive of the ball measures and the 1D
    operator; -inf where the interval is empty (log_ratio is 0 or NaN).
    Intervals with both ends at hand take log_ratio from _log_ratio; the
    1D level sets, which carry only ln a and ln b, pass ln a - ln b.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = p * log_b + np.log(-np.expm1(p * log_ratio)) - math.log(p)
    return np.where(log_ratio < 0, out, NEG_INF)


class _StepTerms(NamedTuple):
    """_step_terms of f = v_k on (t_{k-1}, t_k], k = 1..K, of bp = (t_0, .., t_K), 0 elsewhere."""
    bp: np.ndarray
    log_t: np.ndarray           # ln t_k, k = 0..K
    v: np.ndarray               # v_k on the pieces 0..K + 1, 0 on pieces 0 and K + 1
    log_v: np.ndarray           # ln v_k on the pieces 0..K + 1
    o: int                      # the breakpoints at the origin
    t_cross: np.ndarray         # the breakpoints in (0, inf), bp[o:o + len(t_cross)]
    log_g: np.ndarray | None    # ln gamma0(t_{k-1}, t_k), k = 1..K; None with no t_cross


# Both record caches hold 64 profiles, enough for the reuse inside one case and across
# a radius or crossing search, which ask for one profile round after round.  perfbench's
# line-weaktype pass cycles through 356 profiles and misses by design; a larger cache
# would only speed up the benchmark's repeated passes, and no real sweep repeats so.
@functools.lru_cache(maxsize=64)
def _step_terms(p: float, bp: tuple, values: tuple) -> _StepTerms:
    """The one place where a step function's ln t_k, ln v_k and piece measures
    ln gamma0(t_{k-1}, t_k) = ln((t_k^p - t_{k-1}^p)/p) are formed, the last only
    with a breakpoint in (0, inf).  Read-only: the cache hands every call the same arrays."""
    # bp and the zero-padded values share one array, and their logs another
    k = len(bp)
    both = np.array((*bp, 0.0, *values, 0.0))
    with np.errstate(divide="ignore"):
        logs = np.log(both)
    both.setflags(write=False)
    logs.setflags(write=False)
    # bp ascends, so the breakpoints at the origin and those in (0, inf) are two runs
    o, end = bisect.bisect_right(bp, 0.0), bisect.bisect_left(bp, math.inf)
    bp, log_t = both[:k], logs[:k]
    log_g = None
    if end > o:
        b, log_b = bp[1:], log_t[1:]
        log_g = _log_power_interval(p, log_b, _log_ratio(log_t[:-1], b, log_b, b - bp[:-1]))
        log_g.setflags(write=False)
    return _StepTerms(bp, log_t, both[k:], logs[k:], o, bp[o:end], log_g)


@functools.lru_cache(maxsize=64)
def _log_piece_table(p: float, bp: tuple, values: tuple):
    """T[i, j] = ln of the mass of the pieces i < k <= j (-inf for j <= i) of the
    step function of _step_terms, piece k = 1..K of mass v_k gamma0(t_{k-1}, t_k);
    read-only.  Apart from that record, since only M^u and clipped chords read it."""
    terms = _step_terms(p, bp, values)
    k = np.arange(len(bp))
    with np.errstate(invalid="ignore"):
        w = terms.log_v[1:-1] + terms.log_g
        table = np.logaddexp.accumulate(
            np.where(k[:, None] < k, np.append(NEG_INF, w), NEG_INF), axis=1)
    table.setflags(write=False)
    return table


def log_sphere_area(d: int) -> float:
    """ln of the surface area of the unit sphere in R^d: ln(2 pi^{d/2} / Gamma(d/2))."""
    if d < 1 or int(d) != d:
        raise ValueError(f"log_sphere_area requires an integer d >= 1: got d = {d!r}")
    d = int(d)
    return math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)
