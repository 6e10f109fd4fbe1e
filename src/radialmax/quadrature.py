"""Batched adaptive Gauss-Kronrod 10/21 quadrature on log-scale integrands.

The integrands this package meets are sharp positive spikes (relative
width ~ 1/sqrt(d)) whose magnitudes overflow doubles, so integration is
done entirely in log space: panels accumulate with log-sum-exp, and the
error estimate compares the log Gauss-10 and Kronrod-21 values, both read
off the same 21 integrand evaluations per panel.  Many integrals with the
same integrand family are refined together so the integrand evaluations
stay vectorized; they come as one flat list of panels, each tagged with
its integral.  Each integral starts from the panels its caller passes
(split where its integrand has kinks, graded toward layers the caller
knows of, and no wider than its spike, since bisection spends a round per
halving to reach it), is refined by bisection alone, and is judged against
its own total.  An integrand may return several components per node (a
ball's measure and a profile's mass over it, say); they share every node,
and each is judged against its own total, except trailing riders (their
derivatives, say), which are summed on the panels the judged components
choose.  Every integrand call is a panel call.  A round is one reduction
over the panels of the integrals still refined, giving each its totals,
errors and worst panel; an integral leaves in the round it converges, with
that round's sums, so its value is the same bits whatever the rest of the
batch does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import NEG_INF


@dataclass(frozen=True)
class QuadratureConfig:
    """The ray quadrature's relative tolerance tol, in (0, 1).

    An integral past its budget of _MAX_PANELS panels or _MAX_ROUNDS rounds
    raises QuadratureError rather than returning a degraded value.
    """

    tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:  # NaN fails the comparison too
            raise ValueError(f"QuadratureConfig.tol must satisfy 0 < tol < 1, got {self.tol!r}")


DEFAULT_QUADRATURE = QuadratureConfig()
_MAX_PANELS = 2 ** 14
_MAX_ROUNDS = 60


class QuadratureError(RuntimeError):
    """Adaptive refinement ran out of budget; carries the achieved estimate
    and the index of the integral that failed, segment."""

    def __init__(self, message: str, achieved: float, segment: int):
        super().__init__(f"{message} (achieved relative error estimate {achieved:.3e})")
        self.achieved = achieved
        self.segment = segment


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
# logs are shifted by their row's top before exp; a row of -inf, whose own top
# would give -inf - (-inf) = NaN, takes this floor and stays -inf
_LOWEST = -np.finfo(float).max


def _panel_logs(log_f, seg, lo, hi, riders: int = 0):
    """(log Gauss-10, log Kronrod-21) integrals of panels [lo, hi], shapes
    (m, c - riders) and (m, c): the last `riders` components get no error
    estimate, so no Gauss-10 sum either.

    One log_f call per batch: seg[:, None] against the (m, 21) nodes,
    returning (m, c, 21).  A panel where exp(log_f) vanishes sums to 0 and
    gets -inf.  The weighted sums are einsum loops, not BLAS products, so a
    panel's value does not depend on where it sits in the batch.  Runs, with
    log_f, under log_integrate_batch's np.errstate.
    """
    width = hi - lo
    lf = log_f(seg[:, None], lo[:, None] + width[:, None] * _X01)
    k = lf.shape[1] - riders
    safe = np.maximum(np.maximum.reduce(lf, axis=-1), _LOWEST)
    e = np.exp(lf - safe[..., None])
    scale = safe + np.log(width)[:, None]
    return (np.log(np.einsum("...j,j->...", e[:, :k, 1::2], _W01_G)) + scale[:, :k],
            np.log(np.einsum("...j,j->...", e, _W01_K)) + scale)


def _log_abs_diff(la, lb):
    """log|exp(la) - exp(lb)| elementwise, tolerant of -inf."""
    big = np.maximum(la, lb)
    out = big + np.log(np.abs(np.expm1(np.minimum(la, lb) - big)))
    # out <= big, and out is NaN only where both are -inf: fmin gives big there
    return np.fmin(out, big)


def _segment_reduce(values, ids, n_out):
    """Per-id (log-sum-exp, max) of the rows of values, for ids 0 .. n_out - 1.

    values has shape (m, w): each column of an id is reduced alone, in row
    order, so an id's result depends on its own rows only.  The sums go
    through flat ids: bincount adds in row order, as ufunc.at does.
    Runs under log_integrate_batch's np.errstate (ln 0 = -inf).
    """
    w = values.shape[1]
    flat_ids = ((ids * w)[:, None] + np.arange(w)).ravel()
    flat = values.ravel()
    top = np.empty(n_out * w)
    top.fill(NEG_INF)
    np.maximum.at(top, flat_ids, flat)
    safe = np.maximum(top, _LOWEST)
    # a -inf row adds exp(-inf) = 0; an id's top row adds 1, so only an id
    # with no finite row sums to 0, and its ln 0 = -inf
    lse = safe + np.log(np.bincount(flat_ids, np.exp(flat - safe[flat_ids]), n_out * w))
    return lse.reshape(n_out, w), top.reshape(n_out, w)


@np.errstate(divide="ignore", invalid="ignore")
def log_integrate_batch(log_f, at, lo, hi, n: int, cfg: QuadratureConfig = DEFAULT_QUADRATURE,
                        riders: int = 0):
    """Integrate exp(log_f) for n integrals at once.

    Panel j is [lo[j], hi[j]] of integral at[j]; each integral's panels come
    in the order given, and an integral with no panel integrates to -inf.
    log_f(seg, s) gets the integral index, shape (m, 1), and the abscissae
    of m panels, shape (m, 21), and returns the log integrand of c
    components on those shared nodes, shape (m, c, 21).
    Returns (log_integrals, log_error estimates), each of shape (n, c).
    Each integral is refined until, in every component, its summed
    Gauss/Kronrod error estimate is within cfg.tol of its own Kronrod
    total, so a panel that carries only rounding noise cannot hold it back.
    The last `riders` components are summed but never judged: they do not
    change a panel split, so the judged integrals are the same bits with or
    without them, and their error estimates read -inf.
    An integral leaves in the round it converges, with that round's sums:
    its panels would never change again.
    Raises QuadratureError, with .segment set to the failing integral, if
    any integral needs more than _MAX_PANELS panels or more than
    _MAX_ROUNDS rounds of bisection.
    Runs, with log_f and the helpers above, under one np.errstate: ln 0 is
    -inf and a difference of two -inf is NaN, both without a warning.
    """
    # the integrals still refined, and for each panel its integral's place
    # among them
    active = np.arange(n)
    p_at = np.asarray(at, dtype=np.intp)
    p_lo = np.asarray(lo, dtype=float)
    p_hi = np.asarray(hi, dtype=float)
    low, high = _panel_logs(log_f, p_at, p_lo, p_hi, riders)
    n_comp = high.shape[1]
    k = n_comp - riders  # the judged components; riders get no error estimate

    def with_errors(low, high):
        # per panel, the Kronrod values of every component, then the error
        # estimates of the judged ones
        return np.concatenate([high, _log_abs_diff(low, high[:, :k])], axis=1)

    p_val = with_errors(low, high)
    log_tol = math.log(cfg.tol)
    for rounds in range(_MAX_ROUNDS + 1):
        sums, tops = _segment_reduce(p_val, p_at, len(active))
        seg_total, seg_err = sums[:, :n_comp], sums[:, n_comp:]
        judged_total = seg_total[:, :k]
        bad = (seg_err > judged_total + log_tol) & (judged_total != NEG_INF)
        if rounds:
            # an integral still refined is written again when it leaves
            total[active] = seg_total
            error[active, :k] = seg_err
        else:
            # round 0 reduces every integral, in order: its sums are the results
            total = seg_total
            error = (np.concatenate([seg_err, np.full((n, riders), NEG_INF)], axis=1)
                     if riders else seg_err)
        if not np.count_nonzero(bad):
            return total, error
        still = bad.any(axis=1)
        if rounds == _MAX_ROUNDS:
            rel = np.where(judged_total != NEG_INF, np.exp(seg_err - judged_total), 0.0)
            rel = rel.max(axis=1)
            over = int(rel.argmax())
            raise QuadratureError("quadrature did not converge within the round budget",
                                  float(rel[over]), segment=int(active[over]))

        # split every panel within a factor 16 of its integral's worst panel
        # in a component that has not converged
        split = bad[p_at] & (p_val[:, n_comp:] >= tops[p_at, n_comp:] - math.log(16.0))
        split = split.any(axis=1)
        counts = (np.bincount(p_at, minlength=len(active))
                  + np.bincount(p_at[split], minlength=len(active)))
        if (counts > _MAX_PANELS).any():
            over = int(counts.argmax())
            ach = float(np.exp(seg_err[over] - judged_total[over]).max())
            msg = f"quadrature panel budget {_MAX_PANELS} exceeded on segment {active[over]}"
            raise QuadratureError(msg, ach, segment=int(active[over]))

        mid = 0.5 * (p_lo[split] + p_hi[split])
        c_at = np.concatenate([p_at[split], p_at[split]])
        c_lo = np.concatenate([p_lo[split], mid])
        c_hi = np.concatenate([mid, p_hi[split]])
        c_val = with_errors(*_panel_logs(log_f, active[c_at], c_lo, c_hi, riders))

        keep = still[p_at] & ~split
        p_at = (np.cumsum(still) - 1)[np.concatenate([p_at[keep], c_at])]
        active = active[still]
        p_lo = np.concatenate([p_lo[keep], c_lo])
        p_hi = np.concatenate([p_hi[keep], c_hi])
        p_val = np.concatenate([p_val[keep], c_val])
