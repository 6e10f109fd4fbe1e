"""Numerical laboratory for centered maximal operators under radial power-law measures."""

from .bounds import (
    BoundCertificate,
    BoundMethod,
    Part1Geometry,
    cp_lower_bound,
    delta_lower_bound,
    g_eval,
    part1_geometry,
)
from .maximal1d import (
    GridConfig,
    LevelSetResult,
    RadialProfile,
    WeightedLineMeasure,
    gamma0_interval,
    uncentered_max,
    weak_type_quotient_1d,
)
from .measure import (
    BallSpec,
    PowerLawMeasure,
    QuadratureConfig,
    QuadratureError,
    log_ball_centered,
    log_ball_offcenter,
    log_ball_offcenter_shell,
    log_ball_offcenter_unit_closed,
    log_intersection_with_centered,
    shift_condition_ratio,
    shift_condition_ratios,
)
from .radial import (
    MaximalConfig,
    ball_average,
    centered_max_radial,
    weak_type_quotient_radial,
)
from .specfun import (
    LogValue,
    log_gamma,
    log_sphere_area,
    stirling_bounds,
)

__version__ = "0.1.0"
