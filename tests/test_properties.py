"""Properties of the closed-form pricers and the Monte Carlo oracles over random inputs.

Hypothesis draws the models, contracts and spots; every run is derandomized,
so CI sees the same cases each time.  A drawn case either prices to a finite
number or raises a ValueError that names its cause (here: an explosive
model, named by ``a`` and the maturity).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vasicek_barrier import (MCConfig, MarketState, OptionSpec, VasicekParams, bond_mc,
                             bond_price, integrated_variance, log_forward, price,
                             price_barrier_mc, price_barrier_mc_two_factor,
                             price_by_quadrature, vanilla_call_forward)
from vasicek_barrier.pricer import _image_sum, _sine_sum, series_counts

REF = VasicekParams(a=1.0, theta=0.04, sigma1=0.3, sigma2=0.3, rho=0.5, r0=0.05)
B_LOW = math.log(100.0)
B_UP = math.log(130.0)


def derandomized(examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples)


_fields_but_a = dict(
    theta=st.floats(-0.02, 0.1),
    sigma1=st.floats(0.01, 0.6),
    sigma2=st.floats(0.0, 0.2),
    rho=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
    r0=st.floats(-0.02, 0.1),
)
params = st.builds(VasicekParams, a=st.one_of(st.floats(-1.5, -0.05), st.floats(0.05, 3.0)),
                   **_fields_but_a)
# mean reversion from explosive to stiff, for the Monte Carlo oracles
wild_params = st.builds(VasicekParams, a=st.floats(-80.0, 800.0), **_fields_but_a)
maturities = st.floats(math.log(1.0 / 365.0), math.log(30.0)).map(math.exp)


def _priced(state, option, p):
    """The price, or None for an explosive model, which must say so by name."""
    try:
        return price(state, option, p).price
    except ValueError as exc:
        assert f"a={p.a!r}" in str(exc) and f"maturity {option.maturity!r}" in str(exc)
        return None


@derandomized(150)
@given(p=params, tau=maturities, spot=st.floats(70.0, 150.0), strike=st.floats(60.0, 140.0),
       upper=st.floats(math.log(95.0), math.log(170.0)), width=st.floats(0.01, 1.5))
def test_corridor_below_up_and_out_below_vanilla(p, tau, spot, strike, upper, width):
    state = MarketState(spot=spot, rate=p.r0)
    corridor = _priced(state, OptionSpec.double(strike, tau, upper - width, upper), p)
    if corridor is None:
        return
    single = price(state, OptionSpec.single_up(strike, tau, upper), p).price
    x = log_forward(state, OptionSpec.single_up(strike, tau, upper), p)
    v = integrated_variance(0.0, tau, tau, p)
    capped = bond_price(p.r0, 0.0, tau, p) * vanilla_call_forward(x, strike, v)
    slack = 1e-12 * math.exp(x)
    assert math.isfinite(corridor) and math.isfinite(single)
    assert 0.0 <= corridor <= single + slack
    assert single <= capped + slack


def _bond(p, tau):
    """P(r0, 0; tau), or None for a model that explodes over tau."""
    with np.errstate(over="ignore", invalid="ignore"):
        disc = bond_price(p.r0, 0.0, tau, p)
    return disc if 0.0 < disc < math.inf else None


def _option(strike, tau, lower, upper):
    return (OptionSpec.single_up(strike, tau, upper) if lower == -math.inf
            else OptionSpec.double(strike, tau, lower, upper))


@derandomized(150)
@given(p=params, tau=maturities, strike=st.floats(60.0, 140.0),
       upper=st.floats(math.log(95.0), math.log(170.0)), width=st.floats(0.01, 1.5),
       wall=st.sampled_from(["up-and-out", "corridor lower", "corridor upper"]),
       depth=st.floats(1e-9, 1e-3))
def test_price_tends_to_zero_at_each_wall(p, tau, strike, upper, width, wall, depth):
    # a start d from a wall survives it, with the forward's drift -1/2 in
    # variance time, with probability at most d (1 + sqrt(2 / (pi v))), and a
    # surviving path pays less than e^u
    disc = _bond(p, tau)
    if disc is None:
        return
    lower = -math.inf if wall == "up-and-out" else upper - width
    v = integrated_variance(0.0, tau, tau, p)
    d = depth * math.sqrt(v)
    x = lower + d if wall == "corridor lower" else upper - d
    got = price(MarketState(spot=disc * math.exp(x), rate=p.r0),
                _option(strike, tau, lower, upper), p).price
    bound = disc * math.exp(upper) * d * (1.0 + math.sqrt(2.0 / (math.pi * v)))
    slack = 1e-12 * disc * math.exp(upper)
    assert -slack <= got <= bound + slack


@derandomized(150)
@given(p=params, tau=maturities, strike=st.floats(60.0, 140.0),
       upper=st.floats(math.log(95.0), math.log(170.0)), width=st.floats(0.01, 1.5),
       at=st.floats(0.02, 0.98), raise_by=st.floats(0.0, 0.5), lower_by=st.floats(0.0, 0.5),
       corridor=st.booleans())
def test_price_is_monotone_in_each_barrier_level(p, tau, strike, upper, width, at,
                                                 raise_by, lower_by, corridor):
    disc = _bond(p, tau)
    if disc is None:
        return
    lower = upper - width if corridor else -math.inf
    state = MarketState(spot=disc * math.exp(upper - at * width), rate=p.r0)

    def value(lo, hi):
        return price(state, _option(strike, tau, lo, hi), p).price

    here = value(lower, upper)
    slack = 1e-12 * disc * math.exp(upper + raise_by)
    assert here <= value(lower, upper + raise_by) + slack
    assert here <= value(lower - lower_by, upper) + slack


@derandomized(150)
@given(p=params, tau=maturities, strike=st.floats(60.0, 140.0), more=st.floats(0.0, 40.0),
       upper=st.floats(math.log(95.0), math.log(170.0)), width=st.floats(0.01, 1.5),
       at=st.floats(0.02, 0.98), corridor=st.booleans())
def test_price_is_non_increasing_in_the_strike(p, tau, strike, more, upper, width, at,
                                               corridor):
    disc = _bond(p, tau)
    if disc is None:
        return
    lower = upper - width if corridor else -math.inf
    state = MarketState(spot=disc * math.exp(upper - at * width), rate=p.r0)
    low_strike = price(state, _option(strike, tau, lower, upper), p).price
    high_strike = price(state, _option(strike + more, tau, lower, upper), p).price
    assert high_strike <= low_strike + 1e-12 * disc * math.exp(upper)


@derandomized(100)
@given(tau=maturities, spot=st.floats(80.0, 125.0), strike=st.floats(60.0, 125.0),
       depth=st.floats(40.0, 200.0))
def test_far_lower_wall_gives_the_up_and_out(tau, spot, strike, depth):
    state = MarketState(spot=spot, rate=REF.r0)
    single = OptionSpec.single_up(strike, tau, B_UP)
    x = log_forward(state, single, REF)
    v = integrated_variance(0.0, tau, tau, REF)
    lower = x - depth * math.sqrt(v) - v  # beyond any excursion the kernel sees
    corridor = price(state, OptionSpec.double(strike, tau, lower, B_UP), REF).price
    assert corridor == pytest.approx(price(state, single, REF).price, rel=1e-10, abs=1e-13)


@derandomized(100)
@given(tau=maturities, spot=st.floats(80.0, 160.0), strike=st.floats(100.0, 160.0),
       height=st.floats(40.0, 200.0))
def test_far_upper_wall_gives_the_down_and_out(tau, spot, strike, height):
    state = MarketState(spot=spot, rate=REF.r0)
    x = log_forward(state, OptionSpec.single_up(strike, tau, 700.0), REF)
    v = integrated_variance(0.0, tau, tau, REF)
    upper = min(x + height * math.sqrt(v) + v, 700.0)
    if not B_LOW < x:
        return
    corridor = price(state, OptionSpec.double(strike, tau, B_LOW, upper), REF).price
    # C(x) - e^{x - l} C(2l - x), the reflection across the lower wall alone,
    # for a strike at or above that wall
    down_and_out = bond_price(REF.r0, 0.0, tau, REF) * (
        vanilla_call_forward(x, strike, v)
        - math.exp(x - B_LOW) * vanilla_call_forward(2.0 * B_LOW - x, strike, v))
    assert corridor == pytest.approx(down_and_out, rel=1e-10, abs=1e-13)


@derandomized(200)
@given(lower=st.floats(-2.0, 6.0), width=st.floats(0.05, 2.0), at=st.floats(0.02, 0.98),
       strike_at=st.floats(-1.0, 0.95), ratio=st.floats(math.log(0.01), 0.0))
def test_image_and_sine_series_agree(lower, width, at, strike_at, ratio):
    # v / L^2 from 0.01 to 1: the images need at most 10 groups and the
    # sines at most 30 modes, and neither cancels beyond 1e-13 of e^x
    upper = lower + width
    x = lower + at * width
    strike = math.exp(lower + strike_at * width)
    v = width * width * math.exp(ratio)
    n_images, n_sines = series_counts(x, strike, lower, upper, v)
    assert n_images <= 10 and n_sines <= 30
    images = _image_sum(x, strike, lower, upper, v, int(n_images))
    sines = _sine_sum(x, strike, lower, upper, v, int(n_sines))
    assert images == pytest.approx(sines, rel=1e-10, abs=1e-13 * math.exp(x))


@derandomized(150)
@given(p=params, tau=maturities, spot=st.floats(80.0, 130.0), strike=st.floats(70.0, 125.0),
       upper=st.floats(math.log(110.0), math.log(150.0)),
       width=st.one_of(st.floats(0.01, 0.05), st.floats(0.05, 1.0)), corridor=st.booleans())
def test_closed_forms_match_kernel_quadrature(p, tau, spot, strike, upper, width, corridor):
    option = (OptionSpec.double(strike, tau, upper - width, upper) if corridor
              else OptionSpec.single_up(strike, tau, upper))
    state = MarketState(spot=spot, rate=p.r0)
    ours = _priced(state, option, p)
    if ours is None:
        return
    quad = price_by_quadrature(state, option, p).price
    assert math.isfinite(ours)
    assert ours == pytest.approx(quad, rel=1e-9, abs=1e-12)


@derandomized(1200)
@given(p=wild_params, tau=maturities, spot=st.floats(70.0, 150.0),
       strike=st.floats(60.0, 140.0), upper=st.floats(math.log(95.0), math.log(170.0)),
       width=st.floats(0.01, 1.5), corridor=st.booleans())
def test_mc_oracles_are_finite_or_fail_by_name(p, tau, spot, strike, upper, width, corridor):
    # the named causes: an explosive bond, OU paths past the float range or
    # a negative step variance (each names a), and payoffs that leave it
    option = (OptionSpec.double(strike, tau, upper - width, upper) if corridor
              else OptionSpec.single_up(strike, tau, upper))
    state = MarketState(spot=spot, rate=p.r0)
    cfg = MCConfig(n_paths=64, n_steps=8, seed=1)
    for estimate in (lambda: price_barrier_mc(state, option, p, cfg),
                     lambda: price_barrier_mc_two_factor(state, option, p, cfg),
                     lambda: bond_mc(p.r0, tau, p, cfg)):
        try:
            est = estimate()
        except ValueError as exc:
            assert f"a={p.a!r}" in str(exc) or "are not finite" in str(exc), str(exc)
        else:
            assert math.isfinite(est.mean) and math.isfinite(est.std_error)


def _test_corridors():
    """(maturity, lower, upper, model) of every corridor the tests price."""
    sweep = [(float(tau), math.log(108.0 - 13.0 * f), math.log(112.0 + 18.0 * f), REF)
             for tau in np.geomspace(1.0 / 365.0, 10.0, 8) for f in np.linspace(0.0, 1.0, 6)]
    frozen = VasicekParams(a=1.0, theta=0.04, sigma1=1e-9, sigma2=0.0, rho=0.5, r0=0.05)
    others = [(1.0, B_LOW, B_UP, REF), (0.25, B_LOW, B_UP, REF), (0.25, math.log(90.0), B_UP, REF),
              (1.0, B_UP - 25.0, B_UP, REF), (1.0, 4.6, 4.87, frozen)]
    others += [(1.0, B_LOW + s, B_UP - s, REF) for s in (0.02, 0.04)]
    others += [(1.0, 4.6, u, REF) for u in (12.0, 20.0, 27.0, 30.0, 40.0, 60.0, 80.0, 700.0)]
    others += [(1.0, B_LOW, B_UP, VasicekParams(**{**REF.__dict__, name: value}))
               for name, values in (("a", (0.5, 2.0)), ("theta", (0.02, 0.08)),
                                    ("rho", (-0.5, 0.0))) for value in values]
    return sweep + others


@pytest.mark.parametrize("tau, lower, upper, p", _test_corridors())
def test_the_chosen_series_is_at_most_five_terms(tau, lower, upper, p):
    v = integrated_variance(0.0, tau, tau, p)
    disc = bond_price(p.r0, 0.0, tau, p)
    spots = np.concatenate([np.linspace(85.0, 128.0, 25),
                            disc * np.exp(lower + np.array([0.02, 0.3, 0.5, 0.7, 0.98])
                                          * min(upper - lower, 1.0))])
    for spot in spots:
        x = math.log(spot / disc)
        if lower < x < upper:
            assert min(series_counts(x, 100.0, lower, upper, v)) <= 5
