import math

import numpy as np
import pytest
from scipy.special import gammaln as sp_gammaln

from radialmax.bounds import g_eval, g_prime_eval
from radialmax.quadrature import QuadratureConfig, log_integrate_batch
from radialmax.specfun import (
    _log_piece_table,
    _log_power_interval,
    _log_ratio,
    _step_terms,
    log_gamma,
    log_sphere_area,
    stirling_bounds,
)

from conftest import simpson


# ---------------------------------------------------------------------------
# log_gamma
# ---------------------------------------------------------------------------

def test_log_gamma_known_values():
    assert abs(log_gamma(1.0)) < 1e-14
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14


def test_log_gamma_factorial_oracle():
    # Gamma(10) = 9!, built by integer product
    fact = 1
    for k in range(2, 10):
        fact *= k
    assert abs(log_gamma(10.0) - math.log(fact)) < 1e-13 * math.log(fact)


def test_log_gamma_accuracy_range():
    xs = np.geomspace(1e-3, 1e6, 400)
    ref = sp_gammaln(xs)
    rel = np.abs(log_gamma(xs) - ref) / np.maximum(np.abs(ref), 1.0)
    assert rel.max() < 1e-12


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
def test_log_gamma_domain(bad):
    with pytest.raises(ValueError):
        log_gamma(bad)


def test_duplication_identity(rng):
    # Legendre: Gamma(2z) = 2^(2z-1) Gamma(z) Gamma(z+1/2) / sqrt(pi)
    z = rng.uniform(1e-3, 50.0, 100)
    lhs = log_gamma(2 * z)
    rhs = log_gamma(z) + log_gamma(z + 0.5) + (2 * z - 1) * math.log(2.0) \
        - 0.5 * math.log(math.pi)
    assert np.abs(lhs - rhs).max() < 1e-10


# ---------------------------------------------------------------------------
# stirling bounds
# ---------------------------------------------------------------------------

def test_stirling_brackets_and_gap(rng):
    xs = np.concatenate([rng.uniform(0.05, 100.0, 200), [1.0, 5.0]])
    for x in xs:
        lo, hi = stirling_bounds(float(x))
        lg = log_gamma(x + 1.0)
        assert lo <= lg <= hi
        # gap is 1/(12x) by construction; reconstruction noise scales with |lo|
        assert abs((hi - lo) - 1.0 / (12.0 * x)) < 1e-12 * max(1.0, abs(lo))


def test_stirling_x1_brackets_zero():
    lo, hi = stirling_bounds(1.0)
    assert lo <= 0.0 <= hi


def test_stirling_x5_values():
    # sqrt(2 pi) 5^5.5 e^-5 = 118.0192, and e^(1/60) pulls it above 5! = 120
    lo, hi = stirling_bounds(5.0)
    assert abs(math.exp(lo) - 118.01916795758994) < 1e-9
    assert hi - lo == pytest.approx(1.0 / 60.0, abs=1e-15)
    assert lo <= math.log(120.0) <= hi


def test_stirling_matches_fixed_sixth_factor():
    # with x = (d-2)/2 at d = 12, lower + 1/6 is the e^(1/6) sqrt(2pi) x^(x+1/2) e^(-x) bound
    x = 5.0
    lo, _ = stirling_bounds(x)
    direct = math.log(
        math.exp(1.0 / 6.0) * math.sqrt(2 * math.pi) * x ** 5.5 * math.exp(-x)
    )
    assert lo + 1.0 / 6.0 == pytest.approx(direct, abs=1e-12)


def test_stirling_domain():
    with pytest.raises(ValueError):
        stirling_bounds(0.0)


@pytest.mark.parametrize("fn, args, named", [
    (log_gamma, (math.nan,), "x = nan"),
    (log_gamma, (np.array([1.0, math.nan]),), "x = nan"),
    (stirling_bounds, (math.nan,), "x = nan"),
    (stirling_bounds, (math.inf,), "x = inf"),
    (g_eval, (0.7, math.nan), "t = nan"),
    (g_eval, (0.7, math.inf), "t = inf"),
    (g_eval, (math.nan, 1.0), "alpha = nan"),
    (g_eval, (math.inf, 1.0), "alpha = inf"),
    (g_prime_eval, (0.7, math.nan), "t = nan"),
    (g_prime_eval, (math.nan, 1.0), "alpha = nan"),
])
def test_non_finite_inputs_raise_naming_the_input(fn, args, named):
    # a NaN passes an "x <= 0" guard; each of these used to return NaN
    with pytest.raises(ValueError, match=named):
        fn(*args)


# ---------------------------------------------------------------------------
# the power-interval primitive and its digits rule
# ---------------------------------------------------------------------------

def _ratio_cases():
    for b in (0.7, 37.0):
        for k in (4, 8, 11):
            yield b * (1.0 - 10.0 ** -k), b    # thin: gap = b - a is exact
        for k in (1, 8, 300):
            yield b * 10.0 ** -k, b            # wide
        yield 0.0, b
        yield b, b


def _ln(x):
    return math.log(x) if x > 0 else -math.inf


@pytest.mark.parametrize("p", [1e-6, 0.1, 1.0, 400.0])
def test_log_ratio_and_power_interval_vs_mpmath(p):
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        for a, b in _ratio_cases():
            lr = _log_ratio(_ln(a), b, math.log(b), b - a)
            got = float(_log_power_interval(p, math.log(b), lr))
            if a == b:
                assert lr == 0.0 and got == -math.inf
                continue
            ma, mb = mp.mpf(a), mp.mpf(b)
            if a == 0.0:
                assert lr == -math.inf
            else:
                ref = mp.log(ma / mb)
                assert abs(lr - ref) <= 1e-15 * abs(ref), (a, b)
            ref = mp.log((mb ** p - ma ** p) / p)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (p, a, b)


def test_log_ratio_mixed_batch_matches_each_entry():
    cases = list(_ratio_cases())
    a, b = np.array(cases).T
    with np.errstate(divide="ignore"):
        batch = _log_ratio(np.log(a), b, np.log(b), b - a)
    assert batch.tolist() == [float(_log_ratio(_ln(x), y, math.log(y), y - x)) for x, y in cases]


# ---------------------------------------------------------------------------
# sphere areas
# ---------------------------------------------------------------------------

def test_sphere_area_small_d():
    assert log_sphere_area(2) == pytest.approx(math.log(2 * math.pi), abs=1e-14)
    assert log_sphere_area(3) == pytest.approx(math.log(4 * math.pi), abs=1e-14)
    assert log_sphere_area(1) == pytest.approx(math.log(2.0), abs=1e-14)


def test_sphere_area_high_d_stays_finite():
    v = log_sphere_area(200)
    assert math.isfinite(v)
    # identity against the log-gamma form for 2 pi^100 / Gamma(100)
    direct = math.log(2.0) + 100.0 * math.log(math.pi) - log_gamma(100.0)
    assert v == pytest.approx(direct, rel=1e-14)
    # past d = 342 the naive route dies: Gamma(d/2) overflows a double
    with np.errstate(over="ignore"):
        assert math.isinf(np.exp(log_gamma(200.0)))
    assert math.isfinite(log_sphere_area(400))


def test_sphere_area_domain():
    with pytest.raises(ValueError):
        log_sphere_area(0)


# ---------------------------------------------------------------------------
# sin-power integrals: the ray form's angular weight, by batched quadrature
# ---------------------------------------------------------------------------

def _log_sin_power(lo, hi, m, at=None, cfg=QuadratureConfig(tol=1e-13)):
    """ln of int sin^m over each integral's panels [lo, hi]; panel j belongs
    to integral at[j], by default integral j."""
    at = np.arange(len(lo)) if at is None else np.asarray(at)
    out, _ = log_integrate_batch(lambda seg, x: (m * np.log(np.sin(x)))[:, None],
                                 at, lo, hi, int(at.max()) + 1, cfg)
    return out[:, 0]


def test_sin_power_trivial_cases():
    got = np.exp(_log_sin_power([0.0, 0.0], [math.pi / 2, math.pi / 2], 0))
    assert got[0] == pytest.approx(math.pi / 2, rel=1e-14)
    assert np.exp(_log_sin_power([0.0], [math.pi / 2], 1))[0] == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("phi,m", [(1.0, 10), (0.3, 4), (2.2, 7), (3.05, 40), (1.7, 0)])
def test_sin_power_quadrature_oracle(phi, m):
    ref = simpson(lambda t: np.sin(t) ** m, 0.0, phi, 40001)
    got = math.exp(_log_sin_power([0.0], [phi], m)[0])
    assert got == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("m", [0, 1, 2, 9, 50])
def test_sin_power_symmetry(m):
    # integral 0 runs over both halves of [0, pi], integral 1 only the
    # first; over [0, pi] the weight integrates to the sphere-area ratio
    # omega_{m+1} / omega_m
    lo = np.array([0.0, math.pi / 2, 0.0])
    hi = np.array([math.pi / 2, math.pi, math.pi / 2])
    full, half = _log_sin_power(lo, hi, m, at=[0, 0, 1])
    assert full == pytest.approx(half + math.log(2.0), abs=1e-12)
    assert full == pytest.approx(log_sphere_area(m + 2) - log_sphere_area(m + 1), abs=1e-12)


# ---------------------------------------------------------------------------
# the per-profile record
# ---------------------------------------------------------------------------

def test_step_records_are_read_only_and_shared():
    # every reader gets the same cached arrays, so one in-place write would
    # corrupt every later call
    p, bp, values = 2.5, (0.0, 0.5, 1.0, 2.0), (1.0, 0.0, 3.0)
    terms = _step_terms(p, bp, values)
    table = _log_piece_table(p, bp, values)
    shell = _step_terms(p, (0.0, math.inf), (1.0,))
    arrays = [a for a in (*terms, table, *shell) if isinstance(a, np.ndarray)]
    assert len(arrays) == 6 + 1 + 5
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    # equal keys, not the same objects, find the same record
    assert _step_terms(p, tuple(np.array(bp)), tuple(list(values))) is terms
    assert _log_piece_table(p, tuple(list(bp)), tuple(np.array(values))) is table
    assert _step_terms(p, (0.0, math.inf), (1.0,)) is shell
    # the shell around the origin crosses no sphere, so it has no piece measure
    assert shell.log_g is None and shell.t_cross.size == 0 and shell.o == 1
    assert terms.o == 1 and terms.t_cross.tolist() == [0.5, 1.0, 2.0]
    assert terms.v.tolist() == [0.0, 1.0, 0.0, 3.0, 0.0]
