"""Batched adaptive Gauss-Legendre quadrature on log-scale integrands.

The integrands this package meets are sharp positive spikes (relative
width ~ 1/sqrt(d)) whose magnitudes overflow doubles, so integration is
done entirely in log space: panels accumulate with log-sum-exp, and the
two-order error estimate compares log values.  Many integrals with the
same integrand family are refined together so the integrand evaluations
stay vectorized; each integral may start from several panels, split where
its integrand has kinks, and is judged against its own total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .optimize import golden_section_max_batch

NEG_INF = float("-inf")


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for the ray quadrature.

    tol is relative; exceeding max_panels on any single integral raises
    QuadratureError rather than returning a silently degraded value.
    """

    tol: float = 1e-8
    max_panels: int = 2 ** 14
    nodes_low: int = 12
    nodes_high: int = 24
    max_rounds: int = 60


DEFAULT_QUADRATURE = QuadratureConfig()


class QuadratureError(RuntimeError):
    """Adaptive refinement ran out of budget; carries the achieved estimate.

    segment is the index of the integral that failed, when known.
    """

    segment = None

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved relative error estimate {achieved:.3e})")
        self.achieved = achieved


@lru_cache(maxsize=16)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, np.log(w / 2.0)


def _panel_logs(log_f, seg, lo, hi, n):
    """Log integrals of panels [lo, hi] using an n-point Gauss-Legendre rule."""
    x01, logw = _gl_nodes(n)
    width = hi - lo
    nodes = lo[:, None] + width[:, None] * x01[None, :]
    seg_rep = np.repeat(seg, n)
    lf = log_f(seg_rep, nodes.ravel()).reshape(len(lo), n)
    shifted = lf + logw[None, :]
    m = shifted.max(axis=1)
    safe_m = np.where(m == NEG_INF, 0.0, m)
    sums = np.exp(shifted - safe_m[:, None]).sum(axis=1)
    with np.errstate(divide="ignore"):
        return np.where(
            m == NEG_INF,
            NEG_INF,
            safe_m + np.log(np.maximum(sums, 1e-300)) + np.log(np.maximum(width, 1e-300)),
        )


def _log_abs_diff(la, lb):
    """log|exp(la) - exp(lb)| elementwise, tolerant of -inf."""
    big = np.maximum(la, lb)
    small = np.minimum(la, lb)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(np.expm1(small - big))
        out = np.where(big == NEG_INF, NEG_INF, big + np.log(rel))
    out = np.where(small == NEG_INF, big, out)
    out = np.where((small == NEG_INF) & (big == NEG_INF), NEG_INF, out)
    return out


def _segment_lse(values, seg_ids, n_seg):
    """Per-segment log-sum-exp of panel values."""
    m = np.full(n_seg, NEG_INF)
    np.maximum.at(m, seg_ids, values)
    acc = np.zeros(n_seg)
    safe_m = np.where(m == NEG_INF, 0.0, m)
    np.add.at(acc, seg_ids, np.where(values == NEG_INF, 0.0, np.exp(values - safe_m[seg_ids])))
    with np.errstate(divide="ignore"):
        return np.where(m == NEG_INF, NEG_INF, safe_m + np.log(np.maximum(acc, 1e-300)))


def log_integrate_batch(log_f, lo, hi, cfg: QuadratureConfig = DEFAULT_QUADRATURE):
    """Integrate exp(log_f) for many integrals at once.

    lo and hi have shape (n,) or (n, k): row i holds the k initial panels
    of integral i, and empty panels (hi <= lo) are skipped.  log_f(seg_idx,
    s) takes parallel arrays (integral index per abscissa) and returns the
    log integrand.  Returns (log_integrals, log_error estimates), one per
    integral.  Each integral is refined until its summed error estimate is
    within cfg.tol of its own total, so a panel that carries only rounding
    noise cannot hold it back.  Raises QuadratureError, with .segment set to
    the failing integral, if any integral needs more than cfg.max_panels
    panels.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim == 1:
        lo, hi = lo[:, None], hi[:, None]
    n_seg = len(lo)
    live = hi > lo
    if not np.any(live):
        return np.full(n_seg, NEG_INF), np.full(n_seg, NEG_INF)
    idx = np.nonzero(live)[0]
    lo, hi = lo[live], hi[live]

    # split each panel at its spike before refining: a panel boundary at
    # the max keeps the two-order estimate honest on the steep flanks
    peaks = golden_section_max_batch(lambda x: log_f(idx, x), lo, hi, rel_tol=1e-3, maxit=48)
    eps = 1e-12 * (hi - lo)
    peaks = np.clip(peaks, lo + eps, hi - eps)

    p_seg = np.repeat(idx, 2)
    p_lo = np.stack([lo, peaks], axis=1).ravel()
    p_hi = np.stack([peaks, hi], axis=1).ravel()
    p_low = _panel_logs(log_f, p_seg, p_lo, p_hi, cfg.nodes_low)
    p_high = _panel_logs(log_f, p_seg, p_lo, p_hi, cfg.nodes_high)
    p_err = _log_abs_diff(p_low, p_high)

    log_tol = math.log(cfg.tol)
    for _ in range(cfg.max_rounds):
        seg_total = _segment_lse(p_high, p_seg, n_seg)
        seg_err = _segment_lse(p_err, p_seg, n_seg)
        with np.errstate(invalid="ignore"):
            bad = seg_err > seg_total + log_tol
        bad &= seg_total != NEG_INF
        if not np.any(bad):
            return seg_total, seg_err

        # split every panel within a factor 16 of its integral's worst panel
        worst = np.full(n_seg, NEG_INF)
        np.maximum.at(worst, p_seg, p_err)
        split = bad[p_seg] & (p_err >= worst[p_seg] - math.log(16.0))
        keep = ~split

        counts = np.bincount(p_seg, minlength=n_seg) + np.bincount(
            p_seg[split], minlength=n_seg
        )
        if np.any(counts > cfg.max_panels):
            over = int(counts.argmax())
            ach = float(np.exp(seg_err[over] - seg_total[over]))
            err = QuadratureError(
                f"quadrature panel budget {cfg.max_panels} exceeded on segment {over}", ach
            )
            err.segment = over
            raise err

        mid = 0.5 * (p_lo[split] + p_hi[split])
        c_seg = np.concatenate([p_seg[split], p_seg[split]])
        c_lo = np.concatenate([p_lo[split], mid])
        c_hi = np.concatenate([mid, p_hi[split]])
        c_low = _panel_logs(log_f, c_seg, c_lo, c_hi, cfg.nodes_low)
        c_high = _panel_logs(log_f, c_seg, c_lo, c_hi, cfg.nodes_high)
        c_err = _log_abs_diff(c_low, c_high)

        p_seg = np.concatenate([p_seg[keep], c_seg])
        p_lo = np.concatenate([p_lo[keep], c_lo])
        p_hi = np.concatenate([p_hi[keep], c_hi])
        p_low = np.concatenate([p_low[keep], c_low])
        p_high = np.concatenate([p_high[keep], c_high])
        p_err = np.concatenate([p_err[keep], c_err])

    seg_total = _segment_lse(p_high, p_seg, n_seg)
    seg_err = _segment_lse(p_err, p_seg, n_seg)
    with np.errstate(invalid="ignore"):
        rel = np.where(seg_total != NEG_INF, np.exp(seg_err - seg_total), 0.0)
    over = int(rel.argmax())
    err = QuadratureError("quadrature did not converge within the round budget",
                          float(rel[over]))
    err.segment = over
    raise err
