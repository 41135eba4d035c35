"""Cross-check the analytic prices against both Monte Carlo oracles.

Runs a medium-scale version of the verification battery: bond price vs path
simulation, knock-out prices vs the forward-measure and joint two-factor
estimators, and the bridge-corrected barrier monitor on coarse and fine
grids: it prices the continuously monitored barrier at every resolution.
"""

import math
import time

from vasicek_barrier import (MCConfig, MarketState, OptionSpec, VasicekParams,
                             bond_mc, bond_price, price_barrier_mc,
                             price_barrier_mc_two_factor, price_double_barrier,
                             price_single_barrier)

params = VasicekParams(a=1.0, theta=0.04, sigma1=0.3, sigma2=0.3, rho=0.5, r0=0.05)
state = MarketState(spot=110.0, rate=0.05)
single = OptionSpec.single_up(100.0, 1.0, math.log(130.0))
corridor = OptionSpec.double(100.0, 1.0, math.log(100.0), math.log(130.0))
cfg = MCConfig(n_paths=200_000, n_steps=512, seed=2024)

t0 = time.time()
bond = bond_price(params.r0, 0.0, 1.0, params)
est = bond_mc(params.r0, 1.0, params, cfg)
print(f"bond:   analytic {bond:.6f}   mc {est.mean:.6f} +- {est.std_error:.6f}"
      f"   z={(est.mean - bond) / est.std_error:+.2f}")

ana = price_single_barrier(state, single, params).price
fwd = price_barrier_mc(state, single, params, cfg)
two = price_barrier_mc_two_factor(state, single, params, cfg)
print(f"single: analytic {ana:.6f}")
print(f"        forward-measure mc {fwd.mean:.6f} +- {fwd.std_error:.6f}"
      f"   z={(fwd.mean - ana) / fwd.std_error:+.2f}")
print(f"        two-factor mc      {two.mean:.6f} +- {two.std_error:.6f}"
      f"   z={(two.mean - ana) / two.std_error:+.2f}")

anad = price_double_barrier(state, corridor, params).price
fwdd = price_barrier_mc(state, corridor, params, cfg)
print(f"double: analytic {anad:.6e}   mc {fwdd.mean:.6e} +- {fwdd.std_error:.2e}"
      f"   z={(fwdd.mean - anad) / fwdd.std_error:+.2f}")

print(f"\nbridge-corrected monitor by grid (single barrier, 50k paths; analytic {ana:.4f}):")
for steps in (64, 256, 1024):
    b = price_barrier_mc(state, single, params, MCConfig(50_000, steps, 9))
    print(f"  {steps:5d} steps/yr: {b.mean:.4f} +- {b.std_error:.4f}"
          f"   z={(b.mean - ana) / b.std_error:+.2f}")
print(f"\ntotal {time.time() - t0:.0f}s")
