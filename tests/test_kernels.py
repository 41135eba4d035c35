import math

import numpy as np
import pytest
from scipy.integrate import quad

from vasicek_barrier import barrier_kernel, double_barrier_kernel, free_kernel, series_terms
from vasicek_barrier.kernels import _SERIES_TOL

B_LOW = math.log(100.0)
B_UP = math.log(130.0)


class TestFreeKernel:
    def test_point_value(self):
        assert free_kernel(0.0, 0.0, 1.0) == pytest.approx(
            math.exp(-0.125) / math.sqrt(2.0 * math.pi), rel=1e-15)

    def test_normalization(self):
        for x, v in ((0.0, 1.0), (2.0, 0.3), (-1.5, 4.0)):
            lo, hi = x - 14 * math.sqrt(v), x + 14 * math.sqrt(v)
            mass, _ = quad(lambda xp: free_kernel(x, xp, v), lo, hi, epsabs=1e-13)
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_martingale_property(self):
        for x, v in ((0.0, 1.0), (1.2, 0.25)):
            lo, hi = x - 16 * math.sqrt(v), x + 16 * math.sqrt(v)
            fwd, _ = quad(lambda xp: free_kernel(x, xp, v) * math.exp(xp), lo, hi,
                          epsabs=1e-13, limit=200)
            assert fwd == pytest.approx(math.exp(x), rel=1e-12)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            free_kernel(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            free_kernel(0.0, 0.0, -1.0)


class TestBarrierKernel:
    def test_vanishes_on_the_wall(self):
        assert barrier_kernel(4.5, B_UP, 0.14, B_UP) == 0.0
        assert barrier_kernel(B_UP, 4.8, 0.14, B_UP) == 0.0
        assert barrier_kernel(4.5, B_UP + 0.01, 0.14, B_UP) == 0.0

    def test_far_barrier_reduces_to_free(self):
        v = 0.2
        x = 0.3
        far = x + 40.0 * math.sqrt(v)
        for xp in np.linspace(x - 3 * math.sqrt(v), x + 3 * math.sqrt(v), 7):
            assert barrier_kernel(x, xp, v, far) == pytest.approx(
                free_kernel(x, xp, v), abs=1e-15)

    def test_chapman_kolmogorov(self):
        v1, v2 = 0.06, 0.08
        v = v1 + v2
        lo = B_UP - 12.0 * math.sqrt(v)
        for x, xp in ((4.70, 4.75), (4.5, 4.85), (4.8, 4.6)):
            lhs, _ = quad(lambda z: barrier_kernel(x, z, v1, B_UP)
                          * barrier_kernel(z, xp, v2, B_UP), lo, B_UP,
                          epsabs=1e-12, limit=200)
            assert lhs == pytest.approx(barrier_kernel(x, xp, v, B_UP), abs=1e-8)

    def test_prefactor_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x, xp = B_UP - rng.uniform(0.01, 2.0, 2)
            v = rng.uniform(0.01, 1.0)
            lhs = barrier_kernel(x, xp, v, B_UP) * math.exp(-0.5 * (x - xp))
            rhs = barrier_kernel(xp, x, v, B_UP) * math.exp(-0.5 * (xp - x))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_non_negative_inside(self):
        rng = np.random.default_rng(4)
        x = B_UP - 0.3
        xp = B_UP - rng.uniform(0.0, 3.0, 200)
        assert np.all(barrier_kernel(x, xp, 0.2, B_UP) >= 0.0)

    def test_mass_loss_under_absorption(self):
        # weight e^{(x'-x)/2} e^{v/8} strips the prefactor; the absorbed
        # density must integrate below one, approaching one as B recedes
        x, v = 0.0, 0.25

        def survival(barrier):
            val, _ = quad(lambda xp: barrier_kernel(x, xp, v, barrier)
                          * math.exp(0.5 * (xp - x) + v / 8.0),
                          x - 14 * math.sqrt(v), barrier, epsabs=1e-13, limit=200)
            return val

        near = survival(x + 0.5 * math.sqrt(v))
        mid = survival(x + 2.0 * math.sqrt(v))
        far = survival(x + 12.0 * math.sqrt(v))
        assert near < mid < far < 1.0
        assert far == pytest.approx(1.0, abs=1e-9)

    def test_knocked_out_start_rejected(self):
        with pytest.raises(ValueError):
            barrier_kernel(B_UP + 0.01, 4.5, 0.1, B_UP)


class TestDoubleBarrierKernel:
    def test_vanishes_on_both_walls(self):
        x = 0.5 * (B_LOW + B_UP)
        assert double_barrier_kernel(x, B_LOW, 0.14, B_LOW, B_UP) == 0.0
        assert double_barrier_kernel(x, B_UP, 0.14, B_LOW, B_UP) == 0.0

    def test_far_lower_wall_matches_image_kernel(self):
        v = 0.15
        rv = math.sqrt(v)
        xs = B_UP - np.array([0.3, 0.8, 1.5]) * rv
        for x in xs:
            for xp in B_UP - np.array([0.2, 1.0, 2.2]) * rv:
                lower = B_UP - 20.0 * rv - abs(x - B_UP) - abs(xp - B_UP)
                val = double_barrier_kernel(float(x), float(xp), v, lower, B_UP)
                assert val == pytest.approx(
                    barrier_kernel(float(x), float(xp), v, B_UP), abs=1e-8)

    def test_no_lower_wall_is_the_up_and_out(self):
        xp = np.linspace(B_UP - 2.0, B_UP + 0.5, 51)
        for v in (1e-8, 0.14, 5.0):
            assert np.array_equal(double_barrier_kernel(4.7, xp, v, -math.inf, B_UP),
                                  barrier_kernel(4.7, xp, v, B_UP))

    def test_chapman_kolmogorov(self):
        v1, v2 = 0.05, 0.09
        for x, xp in ((4.65, 4.80), (4.62, 4.70), (4.85, 4.63)):
            lhs, _ = quad(lambda z: double_barrier_kernel(x, z, v1, B_LOW, B_UP)
                          * double_barrier_kernel(z, xp, v2, B_LOW, B_UP),
                          B_LOW, B_UP, epsabs=1e-12, limit=200)
            assert lhs == pytest.approx(
                double_barrier_kernel(x, xp, v1 + v2, B_LOW, B_UP), abs=1e-8)

    def test_prefactor_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            x, xp = rng.uniform(B_LOW, B_UP, 2)
            v = rng.uniform(0.01, 0.5)
            lhs = double_barrier_kernel(x, xp, v, B_LOW, B_UP) * math.exp(-0.5 * (x - xp))
            rhs = double_barrier_kernel(xp, x, v, B_LOW, B_UP) * math.exp(-0.5 * (xp - x))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)

    def test_non_negative_within_tolerance(self):
        x = 0.5 * (B_LOW + B_UP)
        xp = np.linspace(B_LOW, B_UP, 101)
        vals = double_barrier_kernel(x, xp, 0.02, B_LOW, B_UP)
        assert np.all(vals >= -_SERIES_TOL)

    def test_truncation_insensitivity(self):
        # the kernel, by whichever series it sums, against the image series
        # summed over 40 groups each way, differs by less than the series
        # tolerance times the prefactor's largest value, e^{L/2}; v runs from
        # the image branch (1e-6) to the sine branch (0.5)
        rng = np.random.default_rng(6)
        width = B_UP - B_LOW
        for _ in range(100):
            x, xp = rng.uniform(B_LOW, B_UP, 2)
            v = math.exp(rng.uniform(math.log(1e-6), math.log(0.5)))
            shifts = 2.0 * width * np.arange(-40, 41)
            images = np.exp(-(x - xp + shifts) ** 2 / (2.0 * v)) \
                - np.exp(-(x + xp - 2.0 * B_UP + shifts) ** 2 / (2.0 * v))
            fine = math.exp(0.5 * (x - xp) - v / 8.0) * math.fsum(images) \
                / math.sqrt(2.0 * math.pi * v)
            delta = abs(double_barrier_kernel(x, xp, v, B_LOW, B_UP) - fine)
            assert delta < _SERIES_TOL * math.exp(0.5 * width)

    def test_term_budget_error_names_the_variance(self):
        # at v = 1e-12 the series needs about 6e5 modes, past the fixed cap
        with pytest.raises(ValueError, match=r"v=1e-12 needs more than 100000 modes"):
            series_terms(1e-12, B_LOW, B_UP)
        # the kernel sums its images there instead: far from the lower wall,
        # the up-and-out's two Gaussians, to the last bit
        xp = np.linspace(4.7 - 1e-5, 4.7 + 1e-5, 41)
        assert np.array_equal(double_barrier_kernel(4.7, xp, 1e-12, B_LOW, B_UP),
                              barrier_kernel(4.7, xp, 1e-12, B_UP))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            double_barrier_kernel(4.7, 4.72, -0.1, B_LOW, B_UP)
        with pytest.raises(ValueError):
            double_barrier_kernel(4.7, 4.72, 0.1, B_UP, B_LOW)


class TestDiracLimit:
    def test_small_variance_recovers_test_function(self):
        v = 1e-6

        def f(xp):
            return np.exp(-40.0 * (xp - 4.72) ** 2) * np.cos(xp)

        x = 4.72
        val, _ = quad(lambda xp: barrier_kernel(x, xp, v, B_UP) * f(xp),
                      x - 0.01, x + 0.01, epsabs=1e-12)
        assert val == pytest.approx(f(x), abs=1e-3)

        val, _ = quad(lambda xp: double_barrier_kernel(x, xp, v, B_LOW, B_UP) * f(xp),
                      x - 0.01, x + 0.01, epsabs=1e-12, limit=400)
        assert val == pytest.approx(f(x), abs=1e-3)
