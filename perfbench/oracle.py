"""Log-space dense-grid oracle for the uncentered 1D maximal operator.

Shares no code with radialmax: every interval measure is computed as
ln((b^p - a^p)/p) directly, so it stays finite where t^p overflows a
double (d in the hundreds, support radii up to 100).  The endpoint grid
holds the operator's own candidate set (0, the breakpoints and x) plus a
dense linear grid on each side of x, so the oracle can only match or
undershoot the true supremum, and any interior endpoint that beats the
candidates shows up as a deviation.
"""

from __future__ import annotations

import math

import numpy as np

# below this the true value is not representable as a normal double
LOG_TINY = math.log(1e-280)


def log_power_interval(p: float, a, b):
    """ln((b^p - a^p)/p) elementwise for 0 <= a <= b and p > 0; -inf where a == b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lb = np.log(b)
        rel = -np.expm1(p * (np.log(a) - lb))  # 1 - (a/b)^p, exactly 1 at a = 0
        out = p * lb + np.log(rel) - math.log(p)
    return np.where(b > a, out, -np.inf)


def log_uncentered_max(d: int, beta: float, breakpoints, values, x: float,
                       n_grid: int = 64) -> float:
    """ln of sup over a <= x <= b (a < b) of the gamma0-average of the profile on (a, b)."""
    p = d - beta
    bp = np.asarray(breakpoints, dtype=float)
    vals = np.asarray(values, dtype=float)
    t_hi = 1.5 * max(x, bp[-1])
    left = np.unique(np.concatenate([np.linspace(0.0, x, n_grid), bp[bp <= x], [x]]))
    right = np.unique(np.concatenate([np.linspace(x, t_hi, n_grid), bp[bp >= x], [x]]))
    A = left[:, None, None]
    B = right[None, :, None]
    lo = np.maximum(A, bp[None, None, :-1])
    hi = np.maximum(np.minimum(B, bp[None, None, 1:]), lo)
    with np.errstate(divide="ignore"):
        log_v = np.log(vals)[None, None, :]
    terms = log_v + log_power_interval(p, lo, hi)
    top = terms.max(axis=2)
    safe = np.where(np.isfinite(top), top, 0.0)
    log_den = log_power_interval(p, left[:, None], right[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_num = np.where(np.isfinite(top),
                           safe + np.log(np.exp(terms - safe[..., None]).sum(axis=2)), -np.inf)
        avg = np.where(np.isfinite(log_den), log_num - log_den, -np.inf)
    return float(avg.max())
