"""Knock-out barrier option pricing under Vasicek stochastic interest rates.

The package prices up-and-out and corridor (double knock-out) calls in closed
form: the integral of an absorbing-boundary transition kernel of the log
forward price against the call payoff is a short sum of images (the
reflection formula, for one wall) or of integrated sine modes, whichever is
shorter at the accumulated variance.  Kernel quadrature, two
independent Monte Carlo oracles and a constant-rate closed form verify every
number it produces.

Importing the package loads the production core (`model`, `pricer`) and the
standard library only.  The numpy-backed oracles (`kernels`, `quadrature`,
`quad_oracle`, `mc_oracle`) and their names load on first use (PEP 562);
the deterministic references (the ODE bond, the variance rate, the
constant-rate and vanilla calls) are `quad_oracle`'s.
"""

import importlib

from .model import VasicekParams, b_factor, bond_price, integrated_variance, log_bond_price
from .pricer import (MarketState, OptionSpec, PriceCurve, PriceResult,
                     knockout_call_forward, log_forward, price, price_curve,
                     price_double_barrier, price_single_barrier)

__version__ = "0.1.0"

# the oracles' public names, by the submodule that defines them
_LAZY = {
    "kernels": ("barrier_kernel", "double_barrier_kernel", "free_kernel", "series_terms"),
    "mc_oracle": ("MCConfig", "MCEstimate", "bond_mc", "price_barrier_mc",
                  "price_barrier_mc_two_factor"),
    "quad_oracle": ("bond_price_from_ode", "effective_vol_sq", "price_by_quadrature",
                    "up_and_out_call_constant_rate", "vanilla_call_forward"),
    "quadrature": ("QuadratureError", "integrate"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

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


def __getattr__(name):
    """Import an oracle submodule, or the one that defines ``name``, on first use."""
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
