"""The public surface: each module's __all__ lists exactly it, and its
ValueErrors name the inputs they reject."""

import ast
import importlib
import math
from pathlib import Path

import pytest

from radialmax import bounds, maximal1d, measure, radial, specfun
from radialmax.maximal1d import RadialProfile
from radialmax.measure import PowerLawMeasure

SRC = Path(__file__).resolve().parents[1] / "src" / "radialmax"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if "\n__all__ = [" in p.read_text())


def test_modules_with_all_are_found():
    assert {"bounds", "maximal1d", "measure", "radial", "specfun"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_the_public_surface(name):
    mod = importlib.import_module(f"radialmax.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, missing
    defined = [n.name for n in ast.parse((SRC / f"{name}.py").read_text()).body
               if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")]
    unlisted = [n for n in defined if n not in mod.__all__]
    assert not unlisted, unlisted


ZERO = RadialProfile((0.0, 1.0), (0.0,))
# (call, today's wording, the part that names the bad input)
BAD_INPUTS = [
    (lambda: bounds.delta_lower_bound(1, 0.0),
     "delta_lower_bound requires an integer d >= 2", "got d = 1"),
    (lambda: bounds.delta_lower_bound(4, 5.0),
     "exponent must satisfy 0 <= alpha_d < d", "got alpha_d = 5.0 at d = 4"),
    (lambda: bounds.part1_geometry(0.3),
     "growth exponent must satisfy 1/2 < alpha < 1", "got alpha = 0.3"),
    (lambda: bounds.cp_lower_bound(1, 0.7), "need an integer d >= 2", "got d = 1"),
    (lambda: measure.log_ball_offcenter_unit_closed(PowerLawMeasure(1, 0.5)),
     "closed off-center form requires d >= 2", "got d = 1 beta = 0.5"),
    (lambda: measure.shift_condition_ratios(PowerLawMeasure(3, 1.0), [0.5, 1.5]),
     "shift condition is defined for 0 < r <= 1", "got r = 1.5"),
    (lambda: radial.certified_shift_constant(PowerLawMeasure(4, 3.0)),
     "no certified shift constant for beta > d/2", "got beta = 3.0 at d = 4"),
    (lambda: specfun.log_sphere_area(0), "log_sphere_area requires an integer d >= 1",
     "got d = 0"),
    (lambda: maximal1d.weak_type_quotient_1d(PowerLawMeasure(3, 0.5), ZERO, [1.0]),
     "profile is a.e. zero", "got max f = 0.0 at d = 3 beta = 0.5"),
    (lambda: maximal1d.default_lambda_grid(PowerLawMeasure(3, 0.5), ZERO),
     "profile is a.e. zero", "got max f = 0.0 at d = 3 beta = 0.5"),
    (lambda: RadialProfile((0.0, 1.0, 2.0), (1.0, 2.0, 3.0)),
     "need one more breakpoint than values", "got 3 breakpoints for 3 values"),
    (lambda: RadialProfile((1.0,), ()), "profile needs at least one piece", "got t_0 = 1.0"),
    (lambda: RadialProfile((0.0, math.nan), (1.0,)),
     "breakpoints and values must be finite", "got nan"),
    (lambda: RadialProfile((-1.0, 1.0), (1.0,)), "breakpoints must be >= 0", "got t_0 = -1.0"),
    (lambda: RadialProfile((0.0, 2.0, 1.0), (1.0, 1.0)),
     "breakpoints must be strictly ascending", "got t_1 = 2.0 then t_2 = 1.0"),
    (lambda: RadialProfile((0.0, 1.0, 2.0), (1.0, -0.5)),
     "profile values must be nonnegative", "got v_2 = -0.5"),
]


@pytest.mark.parametrize("call,wording,named", BAD_INPUTS, ids=[b[1] for b in BAD_INPUTS])
def test_errors_name_their_inputs(call, wording, named):
    # comma-free, since the CLI writes these messages into CSV cells
    with pytest.raises(ValueError) as exc:
        call()
    msg = str(exc.value)
    assert msg.startswith(wording) and named in msg and "," not in msg, msg
