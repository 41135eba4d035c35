import math

import numpy as np
import pytest
from scipy.integrate import quad

from vasicek_barrier import QuadratureError, integrate
from vasicek_barrier.quadrature import _ABS_TOL, _REL_TOL


def test_polynomial_exactness():
    val, err = integrate(lambda x: x * x, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)
    # degree 29 is the cap of the 15-point rule; a single panel is exact
    val, _ = integrate(lambda x: 30.0 * x**29, 0.0, 1.0)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_gaussian_tail():
    val, _ = integrate(lambda x: np.exp(-x * x), 0.0, 40.0)
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)


def test_error_estimate_within_tolerance():
    val, err = integrate(lambda x: np.sin(3 * x) * np.exp(x), 0.0, 2.0)
    ref, _ = quad(lambda x: math.sin(3 * x) * math.exp(x), 0.0, 2.0, epsabs=1e-14)
    assert val == pytest.approx(ref, rel=1e-11)
    assert err <= max(_ABS_TOL, _REL_TOL * abs(val))


def test_additivity_over_adjacent_intervals():
    f = lambda x: np.cos(2.3 * x) + x * x
    whole, _ = integrate(f, 0.0, 3.0)
    parts = integrate(f, 0.0, 1.1)[0] + integrate(f, 1.1, 3.0)[0]
    assert parts == pytest.approx(whole, rel=1e-13)


def test_narrow_bump_is_found():
    # bump occupying ~0.03% of the domain; forced minimum subdivision
    # depth must locate it
    f = lambda x: np.exp(-((x - 24.7) / 0.01) ** 2)
    val, _ = integrate(f, 0.0, 40.0)
    assert val == pytest.approx(0.01 * math.sqrt(math.pi), rel=1e-9)


def test_empty_interval():
    assert integrate(lambda x: x, 2.0, 2.0) == (0.0, 0.0)


def test_reversed_bounds_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)


def test_budget_exhaustion_carries_best_estimate():
    # 200 kinks, each bisected down to about 1e-10 wide, need more than the
    # 4096-panel budget; the integral is exactly 2
    with pytest.raises(QuadratureError, match="within 4096 panels") as info:
        integrate(lambda x: np.abs(np.sin(200.0 * x)), 0.0, math.pi)
    assert info.value.estimate == pytest.approx(2.0, rel=1e-3)
    assert info.value.err_estimate > 0.0


def test_non_finite_integrand_fails_fast():
    calls = []

    def nan_everywhere(x):
        calls.append(x.size)
        return np.full_like(x, np.nan)

    with pytest.raises(QuadratureError, match=r"not finite on the panel \[0\.0, 2\.0\]"):
        integrate(nan_everywhere, 0.0, 2.0)
    assert len(calls) <= 3


def test_infinite_on_part_of_the_domain_fails_fast():
    calls = []

    def blows_up_past_one_and_a_half(x):
        calls.append(x.size)
        return np.where(x > 1.5, np.inf, x)

    with pytest.raises(QuadratureError, match="not finite on the panel"):
        integrate(blows_up_past_one_and_a_half, 0.0, 2.0)
    assert len(calls) <= 3
