"""Batched adaptive Gauss-Kronrod 10/21 quadrature on log-scale integrands.

The integrands this package meets are sharp positive spikes (relative
width ~ 1/sqrt(d)) whose magnitudes overflow doubles, so integration is
done entirely in log space: panels accumulate with log-sum-exp, and the
error estimate compares the log Gauss-10 and Kronrod-21 values, both read
off the same 21 integrand evaluations per panel.  Many integrals with the
same integrand family are refined together so the integrand evaluations
stay vectorized; each integral starts from the panels its caller passes
(split where its integrand has kinks), is refined by bisection alone, and
is judged against its own total.  An integrand may return several
components per node (a ball's measure and a profile's mass over it, say);
they share every node, and each is judged against its own total, except
trailing riders (their derivatives, say), which are summed on the panels
the judged components choose.  Every integrand call is a panel call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import NEG_INF


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for the ray quadrature.

    tol is relative, in (0, 1); exceeding max_panels on any single integral
    raises QuadratureError rather than returning a silently degraded value.
    """

    tol: float = 1e-8
    max_panels: int = 2 ** 14
    max_rounds: int = 60

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:  # NaN fails the comparison too
            raise ValueError(f"QuadratureConfig.tol must satisfy 0 < tol < 1, got {self.tol!r}")
        for name in ("max_panels", "max_rounds"):
            if getattr(self, name) < 1:
                raise ValueError(f"QuadratureConfig.{name} must be at least 1, "
                                 f"got {getattr(self, name)!r}")


DEFAULT_QUADRATURE = QuadratureConfig()


class QuadratureError(RuntimeError):
    """Adaptive refinement ran out of budget; carries the achieved estimate.

    segment is the index of the integral that failed, when known.
    """

    segment = None

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved relative error estimate {achieved:.3e})")
        self.achieved = achieved


# Gauss-Kronrod 10/21 on [-1, 1] (QUADPACK qk21): the 11 non-negative
# Kronrod nodes, their weights, and the Gauss-10 weights of nodes 1, 3, .., 9
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the rule on [0, 1], nodes ascending; the Gauss nodes are columns 1, 3, .., 19
_X01 = 0.5 + 0.5 * np.concatenate([-_XK, _XK[-2::-1]])
_W01_K = 0.5 * np.concatenate([_WK, _WK[-2::-1]])
_W01_G = 0.5 * np.concatenate([_WG, _WG[::-1]])


def _panel_logs(log_f, seg, lo, hi):
    """(log Gauss-10, log Kronrod-21) integrals of panels [lo, hi].

    One log_f call per batch: seg[:, None] against the (m, 21) nodes.  The
    result has log_f's shape less its node axis, (m,) or (m, k).  A panel
    where exp(log_f) vanishes sums to 0 and gets -inf.  The weighted sums
    are einsum loops, not BLAS products, so a panel's value does not depend
    on where it sits in the batch.
    """
    width = hi - lo
    lf = log_f(seg[:, None], lo[:, None] + width[:, None] * _X01)
    if lf.ndim == 3:
        width = width[:, None]
    top = lf.max(axis=-1)
    safe = np.where(top == NEG_INF, 0.0, top)
    e = np.exp(lf - safe[..., None])
    with np.errstate(divide="ignore"):
        scale = safe + np.log(width)
        return (np.log(np.einsum("...j,j->...", e[..., 1::2], _W01_G)) + scale,
                np.log(np.einsum("...j,j->...", e, _W01_K)) + scale)


def _log_abs_diff(la, lb):
    """log|exp(la) - exp(lb)| elementwise, tolerant of -inf."""
    big = np.maximum(la, lb)
    small = np.minimum(la, lb)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = big + np.log(np.abs(np.expm1(small - big)))
    return np.where(small == NEG_INF, big, out)


def _segment_lse(values, ids, n_out):
    """Log-sum-exp of the values that share an id, for ids 0 .. n_out - 1."""
    m = np.full(n_out, NEG_INF)
    np.maximum.at(m, ids, values)
    acc = np.zeros(n_out)
    safe_m = np.where(m == NEG_INF, 0.0, m)
    np.add.at(acc, ids, np.where(values == NEG_INF, 0.0, np.exp(values - safe_m[ids])))
    with np.errstate(divide="ignore"):
        return np.where(m == NEG_INF, NEG_INF, safe_m + np.log(np.maximum(acc, 1e-300)))


def log_integrate_batch(log_f, lo, hi, cfg: QuadratureConfig = DEFAULT_QUADRATURE,
                        riders: int = 0):
    """Integrate exp(log_f) for many integrals at once.

    lo and hi have shape (n,) or (n, k): row i holds the k initial panels
    of integral i, and empty panels (hi <= lo) are skipped.  log_f(seg, s)
    gets the integral index, shape (m, 1), and the abscissae of m panels,
    shape (m, 21), and returns the log integrand in s's shape, or with a
    component axis, shape (m, c, 21), for c integrands on shared nodes.
    Returns (log_integrals, log_error estimates), shape (n,) or (n, c);
    with no live panel at all, shape (n,) of -inf.
    Each integral is refined until, in every component, its summed
    Gauss/Kronrod error estimate is within cfg.tol of its own Kronrod
    total, so a panel that carries only rounding noise cannot hold it back.
    The last `riders` components are summed but never judged: they do not
    change a panel split, so the judged integrals are the same bits with or
    without them, and their error estimates read -inf.
    Raises QuadratureError, with .segment set to the failing integral, if
    any integral needs more than cfg.max_panels panels.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim == 1:
        lo, hi = lo[:, None], hi[:, None]
    n_seg = len(lo)
    live = hi > lo
    if not np.any(live):
        return np.full(n_seg, NEG_INF), np.full(n_seg, NEG_INF)
    p_seg = np.nonzero(live)[0]
    p_lo, p_hi = lo[live], hi[live]
    # the judged components; riders get no error estimate
    judged = slice(None, -riders) if riders else slice(None)
    p_low, p_high = _panel_logs(log_f, p_seg, p_lo, p_hi)
    p_err = _log_abs_diff(p_low[..., judged], p_high[..., judged])
    # the component axis, () or (c,): sums per (integral, component) go
    # through flat ids, which keeps the one-dimensional fast path of ufunc.at
    comp = p_err.shape[1:]
    k = comp[0] if comp else 1

    def flat(values, seg):
        if values.ndim == 1:
            return values, seg
        w = values.shape[1]
        return values.ravel(), (seg[:, None] * w + np.arange(w)).ravel()

    def per_segment(values, seg):
        return _segment_lse(*flat(values, seg), n_seg * values[0].size).reshape(
            (n_seg,) + values.shape[1:])

    log_tol = math.log(cfg.tol)
    for _ in range(cfg.max_rounds):
        seg_total = per_segment(p_high[..., judged], p_seg)
        seg_err = per_segment(p_err, p_seg)
        with np.errstate(invalid="ignore"):
            bad = seg_err > seg_total + log_tol
        bad &= seg_total != NEG_INF
        if not np.any(bad):
            if riders:
                seg_total = np.concatenate([seg_total, per_segment(p_high[:, -riders:], p_seg)], 1)
                seg_err = np.pad(seg_err, ((0, 0), (0, riders)), constant_values=NEG_INF)
            return seg_total, seg_err

        # split every panel within a factor 16 of its integral's worst panel
        # in a component that has not converged
        values, ids = flat(p_err, p_seg)
        worst = np.full(n_seg * k, NEG_INF)
        np.maximum.at(worst, ids, values)
        split = bad[p_seg] & (p_err >= worst.reshape((n_seg,) + comp)[p_seg] - math.log(16.0))
        if comp:
            split = split.any(axis=1)
        keep = ~split

        counts = (np.bincount(p_seg, minlength=n_seg)
                  + np.bincount(p_seg[split], minlength=n_seg))
        if np.any(counts > cfg.max_panels):
            over = int(counts.argmax())
            ach = float(np.exp(seg_err[over] - seg_total[over]).max())
            msg = f"quadrature panel budget {cfg.max_panels} exceeded on segment {over}"
            err = QuadratureError(msg, ach)
            err.segment = over
            raise err

        mid = 0.5 * (p_lo[split] + p_hi[split])
        c_seg = np.concatenate([p_seg[split], p_seg[split]])
        c_lo = np.concatenate([p_lo[split], mid])
        c_hi = np.concatenate([mid, p_hi[split]])
        c_low, c_high = _panel_logs(log_f, c_seg, c_lo, c_hi)
        c_err = _log_abs_diff(c_low[..., judged], c_high[..., judged])

        p_seg = np.concatenate([p_seg[keep], c_seg])
        p_lo = np.concatenate([p_lo[keep], c_lo])
        p_hi = np.concatenate([p_hi[keep], c_hi])
        p_high = np.concatenate([p_high[keep], c_high])
        p_err = np.concatenate([p_err[keep], c_err])

    seg_total = per_segment(p_high[..., judged], p_seg)
    seg_err = per_segment(p_err, p_seg)
    with np.errstate(invalid="ignore"):
        rel = np.where(seg_total != NEG_INF, np.exp(seg_err - seg_total), 0.0)
    if comp:
        rel = rel.max(axis=1)
    over = int(rel.argmax())
    err = QuadratureError("quadrature did not converge within the round budget",
                          float(rel[over]))
    err.segment = over
    raise err
