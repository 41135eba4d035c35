"""Knock-out prices by adaptive quadrature of the transition kernels.

The independent check on the closed forms in `pricer`.  It maps spot to the
log forward and accumulates the variance as the pricer does, then
integrates `barrier_kernel` or `double_barrier_kernel` against the call
payoff with `quadrature.integrate` instead of using the reflection formula
or the integrated sine series.  It has no settings: the kernel's mode count
follows from v and the width, and the quadrature works to its fixed
tolerances (1e-10 relative, 1e-12 absolute, 4096 panels).  `verify` and the
tests hold the production prices to this result; nothing on the production
path calls it.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import barrier_kernel, double_barrier_kernel
from .model import VasicekParams, bond_price, integrated_variance
from .pricer import MarketState, OptionSpec, PriceResult, log_forward
from .quadrature import integrate

# The image kernel carries no mass beyond this many standard deviations
# below the start; the up-and-out domain is clipped there, which changes the
# value by less than exp(-72).
_TAIL_SDS = 12.0


def price_by_quadrature(state: MarketState, spec: OptionSpec,
                        p: VasicekParams) -> PriceResult:
    """P times the integral of kernel(x, x', v) * (e^{x'} - K) over the payoff region.

    The up-and-out integrates `barrier_kernel` over max(ln K, x - v/2 -
    12 sqrt(v)) < x' < B; the corridor integrates `double_barrier_kernel`
    over max(ln K, lower) < x' < upper.  Knock-out and empty-payoff cases
    price as in `pricer`.  Raises `QuadratureError` when `integrate` does
    not converge, and ValueError when the corridor kernel cannot be
    evaluated at v.
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
    if lower == -math.inf:
        lo = max(log_k, x - 0.5 * v - _TAIL_SDS * math.sqrt(v))

        def kernel(xp):
            return barrier_kernel(x, xp, v, upper)
    else:
        lo = max(log_k, lower)

        def kernel(xp):
            return double_barrier_kernel(x, xp, v, lower, upper)
    val, _ = integrate(lambda xp: kernel(xp) * (np.exp(xp) - spec.strike), lo, upper)
    return PriceResult(disc * val)
