"""The deterministic references that check the closed forms of the core.

Nothing on the production path calls this module; `verify`, the tests and
the demos hold the core to it.  It holds:

* `price_by_quadrature`, the independent check on the closed forms in
  `pricer`.  It maps spot to the log forward and accumulates the variance
  as the pricer does, then integrates `double_barrier_kernel` (lower =
  -inf for the up-and-out) against the call payoff with
  `quadrature.integrate` instead of using the pricer's closed-form image
  and sine sums.  It has no settings: the kernel picks its series and term
  count from v and the width, and the quadrature works to its fixed
  tolerances (1e-10 relative, 1e-12 absolute, 4096 panels);
* `bond_price_from_ode`, the bond price by integrating its affine ODEs
  with scipy, which loads on its first call;
* `effective_vol_sq`, the variance rate whose integral
  `model.integrated_variance` gives in closed form;
* `up_and_out_call_constant_rate`, the textbook reflection formula under
  a constant rate, and `vanilla_call_forward`, the barrier-free call that
  knock-out prices stay below.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import double_barrier_kernel
from .model import (_BOND_INPUTS, _LOG_FLOAT_MAX, VasicekParams, _check_order, _finite,
                    b_factor, bond_price, integrated_variance)
from .pricer import MarketState, OptionSpec, PriceResult, log_forward
from .quadrature import integrate

_SQRT_HALF = math.sqrt(0.5)

# The kernel lies under the free one, a Gaussian of variance v centred at
# x - v/2 (at x + v/2 once weighted by e^{x'}); beyond x -+ (v/2 + this many
# standard deviations) the payoff-weighted kernel holds less than
# 2 Phi(-12) e^x, about 4e-33 e^x, so the window is clipped there.
_TAIL_SDS = 12.0


def price_by_quadrature(state: MarketState, spec: OptionSpec,
                        p: VasicekParams) -> PriceResult:
    """P times the integral of kernel(x, x', v) * (e^{x'} - K) over the payoff region.

    Both kinds integrate `double_barrier_kernel` over one window,
    max(ln K, l, x - r) < x' < min(u, x + r) with r = v/2 + 12 sqrt(v), or
    price 0 where it is empty.  Knock-out and empty-payoff cases price as
    in `pricer`.  Raises `QuadratureError` when `integrate` does not converge.
    """
    x = log_forward(state, spec, p)
    lower, upper = spec.walls
    if not lower < x < upper:
        return PriceResult(0.0, knocked_out=True)
    disc = bond_price(state.rate, state.time, spec.maturity, p)
    log_k = math.log(spec.strike)
    if max(log_k, lower) >= upper:
        return PriceResult(0.0)
    v = integrated_variance(state.time, spec.maturity, spec.maturity, p)
    if v == 0.0:
        return PriceResult(disc * max(math.exp(x) - spec.strike, 0.0))
    reach = 0.5 * v + _TAIL_SDS * math.sqrt(v)
    lo, hi = max(log_k, lower, x - reach), min(upper, x + reach)
    val, _ = integrate(lambda xp: double_barrier_kernel(x, xp, v, lower, upper)
                       * (np.exp(xp) - spec.strike), lo, max(lo, hi))
    return PriceResult(disc * val)


def bond_price_from_ode(r: float, t: float, tau: float, p: VasicekParams) -> float:
    """Bond price via numerical integration of the affine ODE system.

    Solves B' = a*B - 1 and f' = a*theta*B - sigma2^2*B^2/2 backwards from
    the terminal condition B(tau) = f(tau) = 0, then returns exp(f - r*B).
    Exists purely to cross-check `bond_price` by an independent route.
    Where the log price f - r*B passes the log of the largest float on the
    way (an explosive model), a terminal event stops the solver there, and
    this raises a ValueError naming a, as `bond_price` does.
    """
    from scipy.integrate import solve_ivp

    r, t, tau = float(r), float(t), float(tau)
    _check_order(t, tau)
    if t == tau:
        return 1.0

    def rhs(s, y):
        B, _ = y
        return [p.a * B - 1.0, p.a * p.theta * B - 0.5 * p.sigma2**2 * B * B]

    def overflow(s, y):
        return _LOG_FLOAT_MAX - (y[1] - r * y[0])
    overflow.terminal = True

    sol = solve_ivp(rhs, (tau, t), [0.0, 0.0], rtol=1e-12, atol=1e-14,
                    dense_output=False, method="RK45", events=overflow)
    log_p = math.inf if sol.status == 1 else float(sol.y[1, -1] - r * sol.y[0, -1])
    out = _finite("ODE bond price", tau, p.a, math.exp, log_p, p=p, names=_BOND_INPUTS)
    if not sol.success:
        raise RuntimeError(f"bond ODE integration failed: {sol.message}")
    return out


def effective_vol_sq(t: float, tau: float, p: VasicekParams) -> float:
    """Instantaneous variance rate of the forward price S / P(r, t; tau).

    Equals sigma1^2 + 2*rho*sigma1*sigma2*B(t) + sigma2^2*B(t)^2, evaluated
    here in the manifestly non-negative form
    (sigma1 + rho*sigma2*B)^2 + (1 - rho^2)*(sigma2*B)^2.
    """
    if p.sigma2:
        sB = p.sigma2 * b_factor(t, tau, p.a)
    else:  # the rate terms add 0, however large B
        _check_order(float(t), float(tau))
        sB = 0.0
    q = p.sigma1 + p.rho * sB
    return q * q + (1.0 - p.rho * p.rho) * sB * sB


def _norm_cdf(z: float) -> float:
    """Standard normal distribution function, accurate in both tails."""
    return 0.5 * math.erfc(-z * _SQRT_HALF)


def vanilla_call_forward(x: float, strike: float, v: float) -> float:
    """Forward-units value of a plain call on a driftless lognormal forward.

    e^x * N(d1) - K * N(d2) with d1 = (x - ln K + v/2)/sqrt(v); multiplying
    by the bond price gives the cash value.  Used as the barrier-free
    reference that knock-out prices must stay below.
    """
    if strike <= 0:
        raise ValueError("strike must be positive")
    if v < 0:
        raise ValueError("variance must be non-negative")
    if v == 0:
        return max(math.exp(x) - strike, 0.0)
    rv = math.sqrt(v)
    d1 = (x - math.log(strike) + 0.5 * v) / rv
    return math.exp(x) * _norm_cdf(d1) - strike * _norm_cdf(d1 - rv)


def up_and_out_call_constant_rate(spot: float, strike: float, barrier: float,
                                  rate: float, sigma: float, maturity: float,
                                  dividend_yield: float = 0.0) -> float:
    """Closed-form up-and-out call under a constant rate (spot-monitored).

    Standard reflection formula in terms of normal CDFs.  With
    ``dividend_yield == rate`` the carry is zero, which prices a barrier
    option on a driftless forward: that is the constant-rate limit of the
    stochastic-rate pricer when called with the forward as "spot".  An
    oracle only: the pricers do not call it, and `verify` and the tests
    hold `knockout_call_forward` to it.

    Parameters
    ----------
    spot, strike, barrier : float
        Price-units inputs; requires strike < barrier for a non-empty payoff
        region, else the value is 0.  A spot at or above the barrier is
        knocked out.
    rate : float
        Continuously compounded discount rate.
    sigma : float
        Lognormal volatility.
    maturity : float
        Years to expiry.
    dividend_yield : float
        Continuous yield; the risk-neutral drift is rate - dividend_yield.
    """
    if spot <= 0 or strike <= 0 or barrier <= 0:
        raise ValueError("spot, strike and barrier must be positive")
    if maturity <= 0 or sigma <= 0:
        raise ValueError("maturity and sigma must be positive")
    if spot >= barrier or strike >= barrier:
        return 0.0
    b = rate - dividend_yield
    srt = sigma * math.sqrt(maturity)
    mu = (b - 0.5 * sigma * sigma) / (sigma * sigma)
    x1 = math.log(spot / strike) / srt + (1.0 + mu) * srt
    x2 = math.log(spot / barrier) / srt + (1.0 + mu) * srt
    y1 = math.log(barrier * barrier / (spot * strike)) / srt + (1.0 + mu) * srt
    y2 = math.log(barrier / spot) / srt + (1.0 + mu) * srt
    df = math.exp(-rate * maturity)
    gf = math.exp((b - rate) * maturity)
    hs = barrier / spot
    term_a = spot * gf * _norm_cdf(x1) - strike * df * _norm_cdf(x1 - srt)
    term_b = spot * gf * _norm_cdf(x2) - strike * df * _norm_cdf(x2 - srt)
    term_c = spot * gf * hs ** (2.0 * (mu + 1.0)) * _norm_cdf(-y1) \
        - strike * df * hs ** (2.0 * mu) * _norm_cdf(-y1 + srt)
    term_d = spot * gf * hs ** (2.0 * (mu + 1.0)) * _norm_cdf(-y2) \
        - strike * df * hs ** (2.0 * mu) * _norm_cdf(-y2 + srt)
    return max(term_a - term_b + term_c - term_d, 0.0)
