"""Knock-out barrier option pricing under Vasicek stochastic interest rates.

The package prices up-and-out and corridor (double knock-out) calls in closed
form: the integral of an absorbing-boundary transition kernel of the log
forward price against the call payoff is a short sum of images (the
reflection formula, for one wall) or of integrated sine modes, whichever is
shorter at the accumulated variance.  Kernel quadrature, two
independent Monte Carlo oracles and a constant-rate closed form verify every
number it produces.
"""

from .kernels import barrier_kernel, double_barrier_kernel, free_kernel, series_terms
from .mc_oracle import (MCConfig, MCEstimate, bond_mc, price_barrier_mc,
                        price_barrier_mc_two_factor)
from .model import (VasicekParams, b_factor, bond_price, bond_price_from_ode,
                    effective_vol_sq, integrated_variance, log_bond_price)
from .pricer import (MarketState, OptionSpec, PriceCurve, PriceResult,
                     knockout_call_forward, log_forward, price, price_curve,
                     price_double_barrier, price_single_barrier,
                     up_and_out_call_constant_rate, vanilla_call_forward)
from .quad_oracle import price_by_quadrature
from .quadrature import QuadratureError, integrate

__version__ = "0.1.0"

__all__ = [
    "MCConfig",
    "MCEstimate",
    "MarketState",
    "OptionSpec",
    "PriceCurve",
    "PriceResult",
    "QuadratureError",
    "VasicekParams",
    "b_factor",
    "barrier_kernel",
    "bond_mc",
    "bond_price",
    "bond_price_from_ode",
    "double_barrier_kernel",
    "effective_vol_sq",
    "free_kernel",
    "integrate",
    "integrated_variance",
    "knockout_call_forward",
    "log_bond_price",
    "log_forward",
    "price_barrier_mc",
    "price_barrier_mc_two_factor",
    "price",
    "price_by_quadrature",
    "price_curve",
    "price_double_barrier",
    "price_single_barrier",
    "series_terms",
    "up_and_out_call_constant_rate",
    "vanilla_call_forward",
]
