import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from vasicek_barrier import (MarketState, OptionSpec, PriceResult, VasicekParams,
                             bond_price, free_kernel, integrated_variance, log_forward,
                             price, price_curve, price_double_barrier,
                             price_single_barrier, up_and_out_call_constant_rate,
                             vanilla_call_forward)
from vasicek_barrier.pricer import _sine_sum, series_counts

REF = VasicekParams(a=1.0, theta=0.04, sigma1=0.3, sigma2=0.3, rho=0.5, r0=0.05)
B_LOW = math.log(100.0)
B_UP = math.log(130.0)
SINGLE = OptionSpec.single_up(100.0, 1.0, B_UP)
CORRIDOR = OptionSpec.double(100.0, 1.0, B_LOW, B_UP)


def brute_up_and_out(spot, strike, barrier, rate, sigma, tau, q=0.0):
    """Reflection-density integral; independent algebra for the closed form."""
    nu = rate - q - 0.5 * sigma * sigma
    h = math.log(barrier / spot)
    k = math.log(strike / spot)
    sd = sigma * math.sqrt(tau)

    def f(w):
        main = norm.pdf(w, nu * tau, sd)
        image = math.exp(2 * nu * h / sigma**2) * norm.pdf(w, 2 * h + nu * tau, sd)
        return (spot * math.exp(w) - strike) * (main - image)

    val, _ = quad(f, k, h, epsabs=1e-14, epsrel=1e-12, limit=400)
    return math.exp(-rate * tau) * val


class TestOptionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptionSpec.single_up(-5.0, 1.0, B_UP)
        with pytest.raises(ValueError):
            OptionSpec.single_up(100.0, 0.0, B_UP)
        with pytest.raises(ValueError):
            OptionSpec.double(100.0, 1.0, B_UP, B_LOW)
        with pytest.raises(ValueError):
            OptionSpec(100.0, 1.0, "american", (B_UP,))
        with pytest.raises(ValueError):
            MarketState(spot=-1.0, rate=0.05)

    def test_walls(self):
        assert SINGLE.walls == (-math.inf, B_UP)
        assert CORRIDOR.walls == (B_LOW, B_UP)


class TestPrice:
    def test_dispatches_on_the_barrier_kind(self):
        for spot in (90.0, 110.0, 129.0):
            state = MarketState(spot=spot, rate=0.05)
            assert price(state, SINGLE, REF) == price_single_barrier(state, SINGLE, REF)
            assert price(state, CORRIDOR, REF) == price_double_barrier(state, CORRIDOR, REF)

    def test_calls_the_pricer_bound_at_call_time(self, monkeypatch):
        # a replaced module-level pricer is what `price` and `price_curve` call
        marked = PriceResult(-1.0)
        monkeypatch.setattr("vasicek_barrier.pricer.price_double_barrier",
                            lambda *a, **k: marked)
        state = MarketState(spot=110.0, rate=0.05)
        assert price(state, CORRIDOR, REF) is marked
        assert price(state, SINGLE, REF).price > 0.0
        assert np.all(price_curve([105.0, 110.0], CORRIDOR, REF).prices == -1.0)


class TestLogForward:
    def test_spot_equal_to_bond_gives_zero(self):
        p_bond = bond_price(0.05, 0.0, 1.0, REF)
        state = MarketState(spot=p_bond, rate=0.05, time=0.0)
        assert log_forward(state, SINGLE, REF) == pytest.approx(0.0, abs=1e-15)

    def test_at_maturity_equals_log_spot(self):
        state = MarketState(spot=123.0, rate=0.07, time=1.0)
        assert log_forward(state, SINGLE, REF) == pytest.approx(math.log(123.0), rel=1e-15)

    def test_composition(self):
        state = MarketState(spot=100.0, rate=0.05, time=0.0)
        expected = math.log(100.0 / bond_price(0.05, 0.0, 1.0, REF))
        assert log_forward(state, SINGLE, REF) == pytest.approx(expected, rel=1e-15)


class TestConstantRateClosedForm:
    def test_against_reflection_integral(self):
        cases = [
            (100.0, 100.0, 130.0, 0.05, 0.25, 1.0, 0.0, 2.223538991350),
            (110.0, 100.0, 130.0, 0.05, 0.25, 1.0, 0.05, 1.777811930052),
            (95.0, 100.0, 130.0, 0.05, 0.25, 1.0, 0.02, 2.058627447916),
        ]
        for spot, k, h, r, sig, tau, q, frozen in cases:
            val = up_and_out_call_constant_rate(spot, k, h, r, sig, tau, q)
            assert val == pytest.approx(frozen, rel=1e-10)
            assert val == pytest.approx(
                brute_up_and_out(spot, k, h, r, sig, tau, q), rel=1e-10)

    def test_knocked_and_degenerate(self):
        assert up_and_out_call_constant_rate(135.0, 100.0, 130.0, 0.05, 0.3, 1.0) == 0.0
        assert up_and_out_call_constant_rate(110.0, 131.0, 130.0, 0.05, 0.3, 1.0) == 0.0


class TestVanillaForward:
    def test_against_kernel_integral(self):
        x, strike, v = 0.1, 1.05, 0.2
        hi = x + 16 * math.sqrt(v)
        ref, _ = quad(lambda xp: free_kernel(x, xp, v) * (math.exp(xp) - strike),
                      math.log(strike), hi, epsabs=1e-13, limit=200)
        assert vanilla_call_forward(x, strike, v) == pytest.approx(ref, rel=1e-10)

    def test_zero_variance_is_intrinsic(self):
        assert vanilla_call_forward(0.2, 1.0, 0.0) == pytest.approx(math.exp(0.2) - 1.0)
        assert vanilla_call_forward(-0.2, 1.0, 0.0) == 0.0


class TestSingleBarrier:
    def test_empty_payoff_region(self):
        spec = OptionSpec.single_up(135.0, 1.0, B_UP)
        state = MarketState(spot=110.0, rate=0.05)
        res = price_single_barrier(state, spec, REF)
        assert res.price == 0.0 and not res.knocked_out

    def test_knocked_out_at_inception(self):
        state = MarketState(spot=135.0, rate=0.05)
        res = price_single_barrier(state, SINGLE, REF)
        assert res.price == 0.0 and res.knocked_out

    def test_constant_rate_reduction(self):
        const = VasicekParams(a=1.0, theta=0.05, sigma1=0.3, sigma2=0.0, rho=0.5, r0=0.05)
        disc = math.exp(-0.05)
        for spot in (80.0, 95.0, 110.0, 122.0):
            ours = price_single_barrier(MarketState(spot=spot, rate=0.05), SINGLE, const)
            ref = up_and_out_call_constant_rate(spot / disc, 100.0, 130.0, 0.05,
                                                0.3, 1.0, dividend_yield=0.05)
            assert ours.price == pytest.approx(ref, rel=1e-10)

    def test_far_barrier_recovers_vanilla(self):
        state = MarketState(spot=110.0, rate=0.05)
        v = integrated_variance(0.0, 1.0, 1.0, REF)
        x = log_forward(state, SINGLE, REF)
        spec = OptionSpec.single_up(100.0, 1.0, x + 40.0 * math.sqrt(v))
        res = price_single_barrier(state, spec, REF)
        disc = bond_price(0.05, 0.0, 1.0, REF)
        assert res.price == pytest.approx(
            disc * vanilla_call_forward(x, 100.0, v), rel=1e-10)

    def test_bounded_by_vanilla_strictly_near_barrier(self):
        state = MarketState(spot=110.0, rate=0.05)
        v = integrated_variance(0.0, 1.0, 1.0, REF)
        x = log_forward(state, SINGLE, REF)
        vanilla = bond_price(0.05, 0.0, 1.0, REF) * vanilla_call_forward(x, 100.0, v)
        res = price_single_barrier(state, SINGLE, REF)
        assert 0.0 < res.price < vanilla

    def test_valuation_at_maturity_is_intrinsic(self):
        state = MarketState(spot=110.0, rate=0.05, time=1.0)
        res = price_single_barrier(state, SINGLE, REF)
        assert res.price == pytest.approx(10.0, rel=1e-12)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            price_single_barrier(MarketState(spot=110.0, rate=0.05), CORRIDOR, REF)


class TestDoubleBarrier:
    def test_knocked_out_both_sides(self):
        low_state = MarketState(spot=90.0, rate=0.05)
        res = price_double_barrier(low_state, CORRIDOR, REF)
        assert res.price == 0.0 and res.knocked_out
        high_state = MarketState(spot=129.0, rate=0.05)
        res = price_double_barrier(high_state, CORRIDOR, REF)
        assert res.price == 0.0 and res.knocked_out

    def test_price_vanishes_monotonically_at_walls(self):
        # approach each wall over the last 1% of the corridor (in spot terms)
        disc = bond_price(0.05, 0.0, 1.0, REF)
        lo_spot = disc * math.exp(B_LOW)
        hi_spot = disc * math.exp(B_UP)
        width = hi_spot - lo_spot
        up_leg = [price_double_barrier(
            MarketState(spot=hi_spot - f * 0.01 * width, rate=0.05), CORRIDOR, REF).price
            for f in (1.0, 0.5, 0.25, 0.1, 0.02)]
        assert all(a > b for a, b in zip(up_leg, up_leg[1:]))
        assert up_leg[-1] < 1e-4
        down_leg = [price_double_barrier(
            MarketState(spot=lo_spot + f * 0.01 * width, rate=0.05), CORRIDOR, REF).price
            for f in (1.0, 0.5, 0.25, 0.1, 0.02)]
        assert all(a > b for a, b in zip(down_leg, down_leg[1:]))
        assert down_leg[-1] < 1e-4

    def test_far_lower_wall_recovers_single_barrier(self):
        spec = OptionSpec.double(100.0, 1.0, B_UP - 25.0, B_UP)
        for spot in (95.0, 110.0, 122.0):
            state = MarketState(spot=spot, rate=0.05)
            d = price_double_barrier(state, spec, REF)
            s = price_single_barrier(state, SINGLE, REF)
            assert d.price == pytest.approx(s.price, rel=1e-6)

    @pytest.mark.parametrize("upper", [27.0, 40.0, 60.0, 80.0, 700.0])
    def test_wide_corridor_is_the_down_and_out(self, upper):
        # one image prices it: the sine series would cancel terms of size
        # e^{upper/2}, which read -2388.55 at 80 and -1.19e137 at 700
        lower = 4.6
        state = MarketState(spot=110.0, rate=0.05)
        got = price_double_barrier(state, OptionSpec.double(100.0, 1.0, lower, upper), REF)
        x = log_forward(state, SINGLE, REF)
        v = integrated_variance(0.0, 1.0, 1.0, REF)
        down_and_out = (vanilla_call_forward(x, 100.0, v) - math.exp(x - lower)
                        * vanilla_call_forward(2.0 * lower - x, 100.0, v))
        assert math.isfinite(got.price)
        assert got.price == pytest.approx(bond_price(0.05, 0.0, 1.0, REF) * down_and_out,
                                          rel=1e-10)

    def test_sine_series_of_a_wide_corridor_raises_naming_the_upper_wall(self):
        # the images price this corridor; summed as sines instead, its terms
        # cancel past float accuracy, and the rounding bound says so
        x = log_forward(MarketState(spot=110.0, rate=0.05), SINGLE, REF)
        v = integrated_variance(0.0, 1.0, 1.0, REF)
        n_images, n_sines = series_counts(x, 100.0, 4.6, 80.0, v)
        assert n_images == 1 < n_sines
        with pytest.raises(ValueError, match=re.escape("log_barriers[1] = 80.0")
                           + ".*loses its accuracy"):
            _sine_sum(x, 100.0, 4.6, 80.0, v, int(n_sines))

    def test_wide_corridor_within_the_rounding_bound_still_prices(self):
        # an upper wall far above the forward leaves the price where it was
        state = MarketState(spot=110.0, rate=0.05)
        wide, narrow = (price_double_barrier(state, OptionSpec.double(100.0, 1.0, 4.6, upper),
                                             REF).price for upper in (20.0, 12.0))
        assert wide == pytest.approx(narrow, rel=1e-10)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 9: the lower reflection cancels "
                                           "the direct image, and the sum keeps 6 digits")
    def test_a_forward_just_above_a_lower_wall_at_the_strike_keeps_its_precision(self):
        # at maturity 1e-9 the log forward sits 5e-11 above the lower wall,
        # which is ln K, with v = 9e-11; the reference is the image sum at
        # 50 digits on the pricer's own float x, v and walls (mpmath), which
        # `price_by_quadrature` meets within 1.9e-12, and the pricer reads
        # 4.99998975531082e-09, 2.1e-6 below it
        spec = OptionSpec.double(100.0, 1e-9, B_LOW, B_UP)
        got = price_double_barrier(MarketState(spot=100.0, rate=0.05), spec, REF).price
        assert got == pytest.approx(5.00000041375943e-09, rel=1e-9, abs=0.0)

    def test_dominated_by_single_barrier(self):
        for spot in (98.0, 105.0, 112.0, 120.0):
            state = MarketState(spot=spot, rate=0.05)
            d = price_double_barrier(state, CORRIDOR, REF).price
            s = price_single_barrier(state, SINGLE, REF).price
            assert d <= s + 1e-15


class TestPriceCurve:
    def test_all_knocked_out_grid(self):
        spots = np.array([130.0, 140.0, 150.0])
        curve = price_curve(spots, SINGLE, REF)
        assert np.all(curve.prices == 0.0)
        assert all(e is None for e in curve.errors)

    def test_continuity_across_grid(self):
        spots = np.linspace(85.0, 128.0, 80)
        curve = price_curve(spots, SINGLE, REF)
        steps = np.abs(np.diff(curve.prices))
        # no jump wildly exceeding its neighbours' scale
        for i in range(1, len(steps) - 1):
            local = max(steps[i - 1], steps[i + 1], 1e-6)
            assert steps[i] <= 4.0 * local

    def test_prices_non_negative(self):
        spots = np.linspace(85.0, 128.0, 25)
        for spec in (SINGLE, CORRIDOR):
            curve = price_curve(spots, spec, REF)
            assert np.all(curve.prices >= 0.0)

    def test_per_row_error_capture(self):
        # a < 0 over 30 years: the bond price overflows, a ValueError that
        # each row records by name
        corridor = OptionSpec.double(100.0, 30.0, B_LOW, B_UP)
        curve = price_curve(np.array([105.0, 110.0]), corridor, replace(REF, a=-2.0))
        assert all(e is not None and e.startswith("ValueError: ") and "a=-2.0" in e
                   and "maturity 30.0" in e for e in curve.errors)
        assert np.all(np.isnan(curve.prices))

    def test_near_zero_variance_corridor_is_intrinsic(self):
        # total variance 1e-18 in a corridor 0.27 wide: the forward cannot
        # move, so both knock-outs pay S - K P
        frozen = replace(REF, sigma1=1e-9, sigma2=0.0)
        assert integrated_variance(0.0, 1.0, 1.0, frozen) == pytest.approx(1e-18, rel=1e-12)
        intrinsic = 110.0 - 100.0 * bond_price(0.05, 0.0, 1.0, frozen)
        curve = price_curve(np.array([105.0, 110.0]), OptionSpec.double(100.0, 1.0, 4.6, 4.87),
                            frozen)
        assert curve.errors == (None, None)
        assert curve.prices[1] == pytest.approx(intrinsic, rel=1e-14)
        single = price_single_barrier(MarketState(spot=110.0, rate=0.05),
                                      OptionSpec.single_up(100.0, 1.0, 4.87), frozen)
        assert single.price == curve.prices[1]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            price_curve(np.array([100.0, 100.0]), SINGLE, REF)
        with pytest.raises(ValueError):
            price_curve(np.array([]), SINGLE, REF)


_FINITE_FIELDS = {
    "a": lambda bad: replace(REF, a=bad),
    "theta": lambda bad: replace(REF, theta=bad),
    "sigma1": lambda bad: replace(REF, sigma1=bad),
    "sigma2": lambda bad: replace(REF, sigma2=bad),
    "rho": lambda bad: replace(REF, rho=bad),
    "r0": lambda bad: replace(REF, r0=bad),
    "spot": lambda bad: MarketState(spot=bad, rate=0.05),
    "rate": lambda bad: MarketState(spot=110.0, rate=bad),
    "time": lambda bad: MarketState(spot=110.0, rate=0.05, time=bad),
    "strike": lambda bad: OptionSpec.single_up(bad, 1.0, B_UP),
    "maturity": lambda bad: OptionSpec.single_up(100.0, bad, B_UP),
    "log_barriers[0]": lambda bad: OptionSpec.double(100.0, 1.0, bad, B_UP),
    "log_barriers[1]": lambda bad: OptionSpec.double(100.0, 1.0, B_LOW, bad),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", sorted(_FINITE_FIELDS))
def test_non_finite_input_rejected_by_name(field, bad):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be finite")):
        _FINITE_FIELDS[field](bad)


class TestExplosiveModel:
    # with a < 0 the bond price overflows over a long horizon
    EXPLOSIVE = replace(REF, a=-2.0)
    STATE = MarketState(spot=110.0, rate=0.05)

    @pytest.mark.parametrize("option, pricer", [
        (OptionSpec.single_up(100.0, 30.0, B_UP), price_single_barrier),
        (OptionSpec.double(100.0, 30.0, B_LOW, B_UP), price_double_barrier),
    ], ids=["single", "double"])
    def test_price_raises_naming_a_and_maturity(self, option, pricer):
        with pytest.raises(ValueError, match=r"maturity 30\.0.*a=-2\.0"):
            pricer(self.STATE, option, self.EXPLOSIVE)
        with pytest.raises(ValueError, match=r"maturity 30\.0.*a=-2\.0"):
            log_forward(self.STATE, option, self.EXPLOSIVE)

    def test_curve_records_every_row(self):
        curve = price_curve([100.0, 110.0], OptionSpec.single_up(100.0, 30.0, B_UP),
                            self.EXPLOSIVE)
        assert np.all(np.isnan(curve.prices))
        assert all(e is not None and "a=-2.0" in e for e in curve.errors)


@pytest.mark.parametrize("option, pricer, field", [
    (OptionSpec.single_up(100.0, 1.0, 1500.0), price_single_barrier, "log_barriers[0]"),
    (OptionSpec.double(100.0, 1.0, B_LOW, 1000.0), price_double_barrier, "log_barriers[1]"),
], ids=["single", "double"])
def test_barrier_level_overflow_raises_naming_the_barrier(option, pricer, field):
    # e^1500 and e^1000 are beyond the largest float
    with pytest.raises(ValueError, match=re.escape(field) + ".*overflows"):
        pricer(MarketState(spot=110.0, rate=0.05), option, REF)
