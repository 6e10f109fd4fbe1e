"""Lower-bound certificates for weak-type and (p,p) maximal constants.

Two independent mechanisms:

* the delta-discretization bound: replacing the test function by a point
  mass at the origin turns the weak (1,1) constant into the measure ratio
  of the centered unit ball to the unit ball touching the origin, which
  collapses to a gamma-function quotient, bracketed by Stirling bounds and
  by a clean closed exponential;

* the eccentric-cap bound: a ball near the unit sphere is compared to its
  intersection with a centered ball of optimally chosen radius; the slice
  integrand's spike location comes from an explicit quadratic root, and the
  resulting quotient times a measure ratio lower-bounds every c_{p,d}.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

from .measure import (
    BallSpec,
    PowerLawMeasure,
    log_ball_offcenter,
    log_intersection_with_centered,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .specfun import log_gamma, stirling_bounds

__all__ = [
    "BoundMethod",
    "BoundCertificate",
    "Part1Geometry",
    "delta_lower_bound",
    "part1_geometry",
    "g_eval",
    "g_prime_eval",
    "cp_lower_bound",
]

_LOG_HALF_PI = 0.5 * math.log(math.pi)


class BoundMethod(enum.Enum):
    DELTA_EXACT = "DeltaExact"
    PART1_QUOTIENT = "Part1Quotient"


@dataclass(frozen=True)
class BoundCertificate:
    """A computed lower bound on c_{p,d}, stored in log form with its workings."""

    d: int
    p: float
    exponent: float
    log_value: float
    method: BoundMethod
    intermediates: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.log_value):
            raise ValueError("certificate value must be positive and finite")

    @property
    def value(self) -> float:
        try:
            return math.exp(self.log_value)
        except OverflowError:  # no commas: the CLI writes this into a CSV cell
            raise OverflowError(f"the {self.method.value} certificate = exp({self.log_value:.6g}) "
                                f"at d = {self.d} beta = {self.exponent} is past the double range"
                                ) from None


def _log_delta_exact(d: int, alpha_d: float) -> float:
    """Gamma-quotient form of the centered/touching unit-ball measure ratio."""
    return (
        _LOG_HALF_PI
        + log_gamma(0.5 * (2 * d - alpha_d))
        - (d - alpha_d - 1.0) * math.log(2.0)
        - log_gamma(0.5 * d)
        - log_gamma(0.5 * (d - alpha_d + 1.0))
    )


def _log_delta_stirling_chain(d: int, alpha_d: float) -> float:
    """The same ratio with each Gamma replaced by its Stirling bracket side.

    The numerator Gamma takes the plain lower bound; the two denominator
    Gammas take upper bounds with the correction factor frozen at e^{1/6}
    (argument >= 1/2 needs d >= 3) and e^{1/3} (argument >= 1/4 needs
    alpha_d <= d - 3/2).
    """
    sl_num = stirling_bounds(0.5 * (2 * d - alpha_d - 2.0))[0]
    sl_den1 = stirling_bounds(0.5 * (d - 2.0))[0] + 1.0 / 6.0
    sl_den2 = stirling_bounds(0.5 * (d - alpha_d - 1.0))[0] + 1.0 / 3.0
    return _LOG_HALF_PI + sl_num - (d - alpha_d - 1.0) * math.log(2.0) - sl_den1 - sl_den2


def _closed_chain_predicate(d: int, alpha_d: float) -> bool:
    """Arithmetic step behind the closed bound, re-checked rather than trusted."""
    return 4.0 * (4.0 * (d - alpha_d - 1.0)) >= 5.0 * (2.0 * d - alpha_d - 2.0)


def delta_lower_bound(d: int, alpha_d: float) -> BoundCertificate:
    """Lower bound on c_{1,d} from the point-mass discretization.

    Returns the exact gamma-quotient certificate; the Stirling-chain value
    and, on its validity window (d >= 12, alpha_d <= d/2), the closed bound
    (1/2e)(5/4)^{alpha_d/2} ride along in the intermediates.  The chain
    exact >= stirling >= closed holds whenever all are defined.
    """
    if d < 2 or int(d) != d:
        raise ValueError(f"delta_lower_bound requires an integer d >= 2: got d = {d!r}")
    if not 0 <= alpha_d < d:
        raise ValueError(f"exponent must satisfy 0 <= alpha_d < d: got alpha_d = {alpha_d!r} "
                         f"at d = {d!r}")
    d = int(d)
    inter: dict = {}
    if d >= 3 and alpha_d <= d - 1.5:
        inter["log_stirling_chain"] = _log_delta_stirling_chain(d, alpha_d)
    inter["closed_predicate_ok"] = _closed_chain_predicate(d, alpha_d)
    if d >= 12 and alpha_d <= d / 2 and inter["closed_predicate_ok"]:
        inter["log_closed"] = -math.log(2.0) - 1.0 + 0.5 * alpha_d * math.log(1.25)
    return BoundCertificate(
        d=d,
        p=1.0,
        exponent=float(alpha_d),
        log_value=_log_delta_exact(d, alpha_d),
        method=BoundMethod.DELTA_EXACT,
        intermediates=inter,
    )


@dataclass(frozen=True)
class Part1Geometry:
    """Eccentric-cap construction data for a growth exponent alpha in (1/2, 1).

    R is the off-center ball radius, t0/t1 the roots of the spike
    criterion, s0 = sqrt(t0) the optimal centered-ball radius.
    """

    alpha: float
    R: float
    t0: float
    t1: float
    s0: float


def g_eval(alpha: float, t: float) -> float:
    """Spike profile g(t) = [-16(a-1)^4 + (-4+16a-8a^2) t - t^2] t^(-a).

    Equals 4 F_R(sqrt(t)) where F_R(s) = (s sin(beta_s))^2 s^(-2 alpha) is
    the squared slice amplitude of the ball B(e1, R) at slice radius s.
    """
    if not (math.isfinite(alpha) and 0 < t < math.inf):
        raise ValueError(f"g needs finite alpha and t > 0, got alpha = {alpha!r} t = {t!r}")
    a = alpha
    bracket = -16.0 * (a - 1.0) ** 4 + (-4.0 + 16.0 * a - 8.0 * a * a) * t - t * t
    return bracket * t ** (-a)


def g_prime_eval(alpha: float, t: float) -> float:
    """Derivative of the spike profile; zeros match its numerator's roots."""
    if not (math.isfinite(alpha) and 0 < t < math.inf):
        raise ValueError(f"g' needs finite alpha and t > 0, got alpha = {alpha!r} t = {t!r}")
    a = alpha
    num = (
        16.0 * (a - 1.0) ** 4 * a
        + (-4.0 + 20.0 * a - 24.0 * a * a + 8.0 * a ** 3) * t
        + (a - 2.0) * t * t
    )
    return num / t ** (1.0 + a)


def part1_geometry(alpha: float) -> Part1Geometry:
    """Closed-form cap geometry: R, the quadratic roots t0 > 0 > t1, s0 = sqrt(t0).

    Valid for alpha strictly inside (1/2, 1); near the endpoints the
    derived constants degenerate, so alphas outside [0.55, 0.95] get a
    warning.  The returned t0 is verified on the spot to be a stationary
    point of g.
    """
    if not 0.5 < alpha < 1.0:
        raise ValueError(f"growth exponent must satisfy 1/2 < alpha < 1: got alpha = {alpha!r}")
    if not 0.55 <= alpha <= 0.95:
        warnings.warn(
            "cap geometry degenerates toward the endpoints of (1/2, 1); "
            f"alpha={alpha} is outside [0.55, 0.95]",
            RuntimeWarning,
        )
    R = math.sqrt(1.0 - 4.0 * (1.0 - alpha) ** 2)
    t0 = 4.0 * (alpha - alpha * alpha)
    t1 = 4.0 * (alpha - 1.0) ** 3 / (2.0 - alpha)
    s0 = math.sqrt(t0)
    if abs(g_prime_eval(alpha, t0)) > 1e-9:
        raise RuntimeError("stationarity check failed at the closed-form root")
    return Part1Geometry(alpha=alpha, R=R, t0=t0, t1=t1, s0=s0)


def cp_lower_bound(d: int, alpha: float, p: float = 1.0,
                   quad: QuadratureConfig = DEFAULT_QUADRATURE) -> BoundCertificate:
    """Lower bound on c_{p,d} for the measure |y|^(-alpha d) dy.

    Q1 = mu(B(e1,R) cap B_{s0}) / mu(B(e1,R)) by ray quadrature,
    Q2 = (mu(B_1)/mu(B_{s0}))^{1/p} = s0^{-(1-alpha)d/p} in closed form;
    the certificate value is Q1 * Q2.  Q1*sqrt(d) rides along for the
    spike-width regression band.

    The API takes one alpha per call; dimension-dependent exponents are
    fine as long as they stay in a compact subinterval of (1/2, 1), since
    the geometry degenerates at both endpoints (see part1_geometry).
    """
    if not p >= 1:
        raise ValueError(f"p must be >= 1: got p = {p} at d = {d} alpha = {alpha}")
    if d < 2 or int(d) != d:
        raise ValueError(f"need an integer d >= 2: got d = {d!r} (alpha = {alpha})")
    d = int(d)
    geo = part1_geometry(alpha)
    m = PowerLawMeasure(d, alpha * d)
    ball = BallSpec(1.0, geo.R)
    log_inter = log_intersection_with_centered(m, ball, geo.s0, quad).log
    log_ball = log_ball_offcenter(m, ball, quad).log
    log_q1 = log_inter - log_ball
    log_q2 = -(1.0 - alpha) * d / p * math.log(geo.s0)
    q1 = math.exp(log_q1)
    return BoundCertificate(
        d=d,
        p=float(p),
        exponent=alpha * d,
        log_value=log_q1 + log_q2,
        method=BoundMethod.PART1_QUOTIENT,
        intermediates={
            "Q1": q1,
            "log_Q2": log_q2,
            "q1_sqrt_d": q1 * math.sqrt(d),
            "R": geo.R,
            "s0": geo.s0,
            "t0": geo.t0,
            "t1": geo.t1,
        },
    )
