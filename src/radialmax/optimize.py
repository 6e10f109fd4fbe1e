"""One-dimensional search helpers: golden-section maximization and its polish."""

from __future__ import annotations

import math

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi ~ 0.618


def golden_section_max(f, a: float, b: float, tol: float = 1e-12, maxit: int = 200):
    """Maximize a unimodal f on [a, b]; returns (argmax, max).

    tol is absolute on the bracketing interval.  One f evaluation is reused
    per step, the classic golden-section economy.
    """
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(maxit):
        if b - a <= tol:
            break
        if fc > fd:
            b = d
            d, fd = c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a = c
            c, fc = d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def refine_max_by_derivative_sign(f, t: float, half_width: float,
                                  xtol: float = 1e-11, maxit: int = 80) -> float:
    """Polish a smooth interior maximum past the sqrt(eps) comparison floor.

    Pure value comparisons (golden section) stall once f flattens below
    rounding noise, around |t - t*| ~ 1e-8.  The sign of the Richardson
    five-point derivative stays readable down to a few 1e-12, so bisecting
    it recovers the extra digits.
    """
    h = 1e-4 * max(abs(t), 1e-1)

    def dsign(x: float) -> float:
        d1 = f(x + h) - f(x - h)
        d2 = f(x + 2 * h) - f(x - 2 * h)
        return 8.0 * d1 - d2  # ~ 12 h f'(x), O(h^5) truncation

    lo, hi = t - half_width, t + half_width
    if not (dsign(lo) > 0.0 > dsign(hi)):
        return t
    for _ in range(maxit):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        s = dsign(mid)
        if s > 0.0:
            lo = mid
        elif s < 0.0:
            hi = mid
        else:
            return mid
    return 0.5 * (lo + hi)

