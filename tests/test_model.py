import math
import time
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from vasicek_barrier import (VasicekParams, b_factor, bond_price,
                             bond_price_from_ode, effective_vol_sq,
                             integrated_variance, log_bond_price)

REF = VasicekParams(a=1.0, theta=0.04, sigma1=0.3, sigma2=0.3, rho=0.5, r0=0.05)

# integral of effective_vol_sq over [0, 1] at REF params, frozen from
# scipy.integrate.quad(epsabs=1e-14); the live quadrature below re-derives it.
REF_TOTAL_VARIANCE = 0.138237361370642

# mean-reversion speeds where the closed forms in a alone cancel, and horizons
# from a day to 30 years, so that a u runs from 3e-10 to 0.3
SMALL_AS = [1e-7, 1e-6, 2e-6, 1e-5, 1e-4, 1e-3, 1e-2]
HORIZONS = [1.0 / 365.0, 1.0, 10.0, 30.0]


def _mp_b_integrals(u, a):
    """(B(u), int_0^u B, int_0^u B^2) in the working precision, from the closed forms."""
    if a == 0:
        return u, u * u / 2, u ** 3 / 3
    b = -mpmath.expm1(-a * u) / a
    return b, (u - b) / a, (u - 2 * b - mpmath.expm1(-2 * a * u) / (2 * a)) / (a * a)


def mp_integrated_variance(t0, t1, tau, p):
    with mpmath.workdps(50):
        a, s1, s2 = mpmath.mpf(p.a), mpmath.mpf(p.sigma1), mpmath.mpf(p.sigma2)
        _, ib0, ib20 = _mp_b_integrals(mpmath.mpf(tau) - mpmath.mpf(t0), a)
        _, ib1, ib21 = _mp_b_integrals(mpmath.mpf(tau) - mpmath.mpf(t1), a)
        return float(s1 * s1 * (mpmath.mpf(t1) - mpmath.mpf(t0))
                     + 2 * mpmath.mpf(p.rho) * s1 * s2 * (ib0 - ib1) + s2 * s2 * (ib20 - ib21))


def mp_log_bond_price(r, t, tau, p):
    with mpmath.workdps(50):
        u = mpmath.mpf(tau) - mpmath.mpf(t)
        b, _, ib2 = _mp_b_integrals(u, mpmath.mpf(p.a))
        return float(p.theta * (b - u) + mpmath.mpf(p.sigma2) ** 2 / 2 * ib2 - r * b)


def _mp_digits(a, u, d):
    """Working digits for 50 after the closed forms' cancellation: about
    three per decade of 1 / |a u| below 1 (int B^2 divides by a^3), and one
    per decade of u / d for a sub-interval of length d at horizon u."""
    lost = 3 * max(0.0, -math.log10(abs(a)) - math.log10(u)) if a else 0.0
    return 55 + int(lost + math.log10(u / d))


def mp_closed_forms(r, t0, t1, tau, p):
    """((value, scale) of B(t0), log P(r, t0; tau) and int_t0^t1 of the
    forward variance), each scale the sum of its terms' sizes, so that a
    value near 0 by cancellation is held to its terms' rounding."""
    with mpmath.workdps(_mp_digits(p.a, tau - t0, t1 - t0)):
        a, s1, s2, rho, theta = (mpmath.mpf(x) for x in (p.a, p.sigma1, p.sigma2, p.rho, p.theta))
        d = mpmath.mpf(t1) - mpmath.mpf(t0)
        b0, ib0, ib20 = _mp_b_integrals(mpmath.mpf(tau) - mpmath.mpf(t0), a)
        _, ib1, ib21 = _mp_b_integrals(mpmath.mpf(tau) - mpmath.mpf(t1), a)
        u0 = mpmath.mpf(tau) - mpmath.mpf(t0)
        bond = [theta * (b0 - u0), s2 * s2 / 2 * ib20, -r * b0]
        var = [s1 * s1 * d, 2 * rho * s1 * s2 * (ib0 - ib1), s2 * s2 * (ib20 - ib21)]
        return [(float(sum(terms)), float(sum(abs(x) for x in terms)))
                for terms in ([b0], bond, var)]


@st.composite
def switch_cases(draw):
    """(p, tau, t0, t1): a in [-5, 50], tau from a day to 30 years, and a
    sub-interval [t0, t1].  Half the draws take |a| tau log-uniform in
    [1e-4, 10], a fifth of those within 1.2% of the switch at 1."""
    tau = math.exp(draw(st.floats(math.log(1.0 / 365.0), math.log(30.0))))
    decades = st.one_of(st.floats(-4.0, 1.0), st.floats(-0.005, 0.005))
    scaled = st.tuples(st.sampled_from([-1.0, 1.0]), decades).map(
        lambda sd: min(max(sd[0] * 10.0 ** sd[1] / tau, -5.0), 50.0))
    a = draw(st.one_of(st.floats(-5.0, 50.0), scaled))
    lo, span = draw(st.floats(0.0, 1.0)), draw(st.floats(1e-6, 1.0))
    t0 = lo * (1.0 - span) * tau
    p = VasicekParams(a=a, theta=draw(st.floats(-0.05, 0.2)), sigma1=draw(st.floats(0.0, 1.0)),
                      sigma2=draw(st.floats(0.0, 1.0)), rho=draw(st.floats(-1.0, 1.0)),
                      r0=draw(st.floats(-0.05, 0.2)))
    return p, tau, t0, min(t0 + span * tau, tau)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=switch_cases())
def test_float_closed_forms_match_mpmath_across_the_series_switch(case):
    p, tau, t0, t1 = case
    for t_lo, t_hi in ((0.0, tau), (t0, t1)):
        want = mp_closed_forms(p.r0, t_lo, t_hi, tau, p)
        got = [b_factor(t_lo, tau, p.a), log_bond_price(p.r0, t_lo, tau, p),
               integrated_variance(t_lo, t_hi, tau, p)]
        for value, (exact, scale) in zip(got, want):
            assert abs(value - exact) <= 1e-12 * scale, (value, exact, scale)


def test_params_validation():
    with pytest.raises(ValueError):
        VasicekParams(a=1.0, theta=0.04, sigma1=-0.1, sigma2=0.3, rho=0.5, r0=0.05)
    with pytest.raises(ValueError):
        VasicekParams(a=1.0, theta=0.04, sigma1=0.3, sigma2=-1e-9, rho=0.5, r0=0.05)
    with pytest.raises(ValueError):
        VasicekParams(a=1.0, theta=0.04, sigma1=0.3, sigma2=0.3, rho=1.2, r0=0.05)


class TestBFactor:
    def test_vanishes_at_maturity(self):
        assert b_factor(1.0, 1.0, 1.0) == 0.0

    def test_small_a_limit_is_horizon(self):
        assert b_factor(0.0, 1.0, 1e-9) == pytest.approx(1.0, rel=1e-9)
        assert b_factor(0.0, 1.0, 0.0) == 1.0

    def test_unit_speed_value(self):
        assert b_factor(0.0, 1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)

    def test_rejects_t_past_maturity(self):
        with pytest.raises(ValueError):
            b_factor(1.5, 1.0, 1.0)

    def test_branch_continuity_at_threshold(self):
        # series branch just below |a u| = 1, closed form just above
        for tau in (0.5, 1.0, 10.0):
            for sign in (1.0, -1.0):
                below = b_factor(0.0, tau, sign / tau * (1 - 1e-12))
                above = b_factor(0.0, tau, sign / tau * (1 + 1e-12))
                assert below == pytest.approx(above, rel=1e-11)

    def test_float_at_each_time(self):
        for t in np.linspace(0.0, 1.0, 5):
            val = b_factor(t, 1.0, 2.0)
            assert type(val) is float
            assert val == pytest.approx(-math.expm1(-2.0 * (1.0 - t)) / 2.0, rel=1e-15)
        assert b_factor(1.0, 1.0, 2.0) == 0.0


class TestBondPrice:
    def test_exp_of_log_form(self):
        for t in (0.0, 0.3, 0.9):
            assert bond_price(0.05, t, 1.0, REF) == math.exp(log_bond_price(0.05, t, 1.0, REF))
        assert log_bond_price(0.05, 1.0, 1.0, REF) == 0.0

    def test_log_form_finite_where_price_overflows(self):
        explosive = replace(REF, a=-2.0)
        log_p = log_bond_price(0.05, 0.0, 30.0, explosive)
        assert math.isfinite(log_p) and log_p > math.log(np.finfo(float).max)

    def test_unity_at_maturity(self):
        for r in (-0.02, 0.0, 0.05, 0.2):
            assert bond_price(r, 1.0, 1.0, REF) == 1.0

    def test_deterministic_rate_reduction(self):
        p = VasicekParams(a=1.0, theta=0.05, sigma1=0.3, sigma2=0.0, rho=0.5, r0=0.05)
        # with sigma2 = 0 and r0 = theta the rate never moves
        assert bond_price(0.05, 0.0, 1.0, p) == pytest.approx(math.exp(-0.05), rel=1e-12)
        assert bond_price(0.05, 0.25, 1.0, p) == pytest.approx(math.exp(-0.05 * 0.75), rel=1e-12)

    def test_matches_ode_solution(self):
        cases = [
            (0.05, 0.0, 1.0, REF),
            (0.03, 0.2, 2.5, VasicekParams(0.7, 0.06, 0.2, 0.15, -0.3, 0.03)),
            (0.08, 0.0, 5.0, VasicekParams(2.5, 0.02, 0.1, 0.4, 0.9, 0.08)),
        ]
        for r, t, tau, p in cases:
            assert bond_price(r, t, tau, p) == pytest.approx(
                bond_price_from_ode(r, t, tau, p), rel=1e-8)

    def test_reference_value_frozen(self):
        # pinned against the ODE oracle above
        assert bond_price(0.05, 0.0, 1.0, REF) == pytest.approx(0.9619843470027912, rel=1e-12)

    def test_small_a_against_ode(self):
        p = VasicekParams(a=1e-8, theta=0.04, sigma1=0.2, sigma2=0.3, rho=0.0, r0=0.05)
        assert bond_price(0.05, 0.0, 2.0, p) == pytest.approx(
            bond_price_from_ode(0.05, 0.0, 2.0, p), rel=1e-8)

    @pytest.mark.parametrize("a", SMALL_AS)
    @pytest.mark.parametrize("tau", HORIZONS)
    def test_small_a_log_bond_against_mpmath(self, a, tau):
        # the closed form cancelled to 8.6e-6 absolute at a = 2e-6 over 30 years
        p = VasicekParams(a=a, theta=0.04, sigma1=0.01, sigma2=0.14, rho=1.0, r0=0.07)
        want = mp_log_bond_price(0.07, 0.0, tau, p)
        assert log_bond_price(0.07, 0.0, tau, p) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("price", [bond_price, log_bond_price, bond_price_from_ode])
    def test_explosive_model_raises_naming_a(self, price):
        # at a = -80 over 10 years log A is inf - inf; no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"maturity 10\.0 is not finite.*a=-80\.0"):
                price(0.05, 0.0, 10.0, replace(REF, a=-80.0))

    def test_a_zero_coefficient_term_adds_zero(self):
        # at a = -2 the integrals of B pass the float range well before B
        # does, and B before e^{-a tau}; with theta = sigma2 = 0 only -r B is left
        p = VasicekParams(a=-2.0, theta=0.0, sigma1=0.3, sigma2=0.0, rho=0.5, r0=0.0)
        assert log_bond_price(0.05, 0.0, 178.0, p) == -0.05 * b_factor(0.0, 178.0, -2.0)
        # and at r = 0 nothing: the rate stays 0
        assert bond_price(0.0, 0.0, 400.0, p) == 1.0

    def test_ode_stops_where_its_solution_leaves_the_float_range(self):
        # it ran to maturity before, 2.3 s at a = -80 over 10 years
        bond_price_from_ode(0.05, 0.0, 1.0, REF)  # imports scipy outside the timing
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"maturity 10\.0 is not finite.*a=-80\.0"):
            bond_price_from_ode(0.05, 0.0, 10.0, replace(REF, a=-80.0))
        assert time.perf_counter() - t0 < 0.2


class TestEffectiveVolSq:
    def test_equals_stock_variance_at_maturity(self):
        assert effective_vol_sq(1.0, 1.0, REF) == pytest.approx(0.09, rel=1e-14)

    def test_degenerate_rate_vol(self):
        # at a = -2 over 400 years B passes the float range, but sigma2 = 0 adds nothing
        for a, tau in ((1.0, 1.0), (-2.0, 400.0)):
            p = VasicekParams(a=a, theta=0.04, sigma1=0.3, sigma2=0.0, rho=0.5, r0=0.05)
            for t in (0.0, 0.3 * tau, 0.9 * tau):
                assert effective_vol_sq(t, tau, p) == pytest.approx(0.09, rel=1e-14)
            with pytest.raises(ValueError, match="exceeds maturity"):
                effective_vol_sq(tau + 1.0, tau, p)

    def test_quadratic_form_recomputation(self):
        # recompute via B(t) and the plain quadratic, independent of the
        # sum-of-squares arrangement used inside
        b = (1.0 - math.exp(-1.0)) / 1.0
        expected = 0.09 + 2 * 0.5 * 0.09 * b + 0.09 * b * b
        assert effective_vol_sq(0.0, 1.0, REF) == pytest.approx(expected, rel=1e-14)

    def test_non_negative_at_extreme_correlation(self):
        rng = np.random.default_rng(7)
        for rho in (-1.0, 1.0):
            for _ in range(50):
                p = VasicekParams(a=rng.uniform(0.01, 5), theta=0.04,
                                  sigma1=rng.uniform(0, 1), sigma2=rng.uniform(0, 1),
                                  rho=rho, r0=0.05)
                assert effective_vol_sq(rng.uniform(0, 1), 1.0, p) >= 0.0


class TestIntegratedVariance:
    def test_constant_integrand(self):
        p = VasicekParams(a=1.0, theta=0.04, sigma1=0.3, sigma2=0.0, rho=0.5, r0=0.05)
        assert integrated_variance(0.0, 1.0, 1.0, p) == pytest.approx(0.09, rel=1e-14)

    def test_reference_params_against_adaptive_quadrature(self):
        val = integrated_variance(0.0, 1.0, 1.0, REF)
        assert val == pytest.approx(REF_TOTAL_VARIANCE, rel=1e-12)
        ref, _ = quad(lambda t: effective_vol_sq(t, 1.0, REF), 0.0, 1.0,
                      epsabs=1e-14, epsrel=1e-13)
        assert val == pytest.approx(ref, rel=1e-10)

    def test_additivity(self):
        whole = integrated_variance(0.0, 1.0, 1.0, REF)
        parts = integrated_variance(0.0, 0.4, 1.0, REF) + integrated_variance(0.4, 1.0, 1.0, REF)
        assert parts == pytest.approx(whole, rel=1e-12)

    def test_random_draws_against_quadrature(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            p = VasicekParams(a=rng.uniform(0.01, 5.0), theta=0.04,
                              sigma1=rng.uniform(0.0, 1.0), sigma2=rng.uniform(0.0, 1.0),
                              rho=rng.uniform(-1.0, 1.0), r0=0.05)
            tau = rng.uniform(0.1, 10.0)
            val = integrated_variance(0.0, tau, tau, p)
            ref, _ = quad(lambda t: effective_vol_sq(t, tau, p), 0.0, tau,
                          epsabs=1e-14, epsrel=1e-13, limit=200)
            assert val == pytest.approx(ref, rel=1e-10, abs=1e-14)

    def test_small_a_branch_against_quadrature(self):
        p = VasicekParams(a=5e-7, theta=0.04, sigma1=0.3, sigma2=0.3, rho=0.5, r0=0.05)
        val = integrated_variance(0.0, 2.0, 2.0, p)
        ref, _ = quad(lambda t: effective_vol_sq(t, 2.0, p), 0.0, 2.0,
                      epsabs=1e-14, epsrel=1e-13)
        assert val == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("a", SMALL_AS)
    @pytest.mark.parametrize("tau", HORIZONS)
    def test_small_a_against_mpmath(self, a, tau):
        # the closed form cancelled to 4.5e-5 relative at a = 2e-6 over 30
        # years, and gave negative steps down to -2.5 at a = 1e-6
        p = VasicekParams(a=a, theta=0.0, sigma1=0.01, sigma2=0.14, rho=1.0, r0=0.07)
        assert integrated_variance(0.0, tau, tau, p) == pytest.approx(
            mp_integrated_variance(0.0, tau, tau, p), rel=1e-12, abs=0.0)
        grid = np.linspace(0.0, tau, 241)
        steps = [integrated_variance(t0, t1, tau, p) for t0, t1 in zip(grid[:-1], grid[1:])]
        for j in (0, 120, 239):
            assert steps[j] == pytest.approx(mp_integrated_variance(grid[j], grid[j + 1], tau, p),
                                             rel=1e-12, abs=0.0)
        assert min(steps) > 0.0

    def test_zero_rate_volatility_leaves_the_stock_variance(self):
        # at a = -2 over 200 years the integrals of B pass the float range
        p = VasicekParams(a=-2.0, theta=0.0, sigma1=0.3, sigma2=0.0, rho=0.5, r0=0.0)
        assert integrated_variance(0.0, 200.0, 200.0, p) == 0.3 * 0.3 * 200.0

    def test_ordering_violation_rejected(self):
        with pytest.raises(ValueError):
            integrated_variance(0.6, 0.4, 1.0, REF)
        with pytest.raises(ValueError):
            integrated_variance(0.0, 1.2, 1.0, REF)
