"""Set-up probe: import the engine and price once, in a fresh interpreter.

`run.py` times this script from spawn to exit; that wall time is the
benchmark's `setup_s`.
"""

import math

import engine

engine.limit_threads()
vb = engine.load()
params = vb.VasicekParams(a=1.0, theta=0.04, sigma1=0.3, sigma2=0.3, rho=0.5, r0=0.05)
option = vb.OptionSpec.single_up(100.0, 1.0, math.log(130.0))
vb.price_single_barrier(vb.MarketState(spot=110.0, rate=0.05), option, params)
