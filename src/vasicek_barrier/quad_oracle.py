"""Knock-out prices by adaptive quadrature of the transition kernel.

The independent check on the closed forms in `pricer`.  It maps spot to the
log forward and accumulates the variance as the pricer does, then
integrates `double_barrier_kernel` (lower = -inf for the up-and-out)
against the call payoff with `quadrature.integrate` instead of using the
pricer's closed-form image and sine sums.  It has no settings: the kernel
picks its series and term count from v and the width, and the quadrature
works to its fixed tolerances (1e-10 relative, 1e-12 absolute, 4096
panels).  `verify` and the tests hold the production prices to this result;
nothing on the production path calls it.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import double_barrier_kernel
from .model import VasicekParams, bond_price, integrated_variance
from .pricer import MarketState, OptionSpec, PriceResult, log_forward
from .quadrature import integrate

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
