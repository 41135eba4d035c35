"""Tour of the knock-out transition kernels.

Shows the image-method kernel against its barrier-free limit, the series
the corridor kernel sums across variance scales, the absorption of
probability mass at the walls, and the composition law that makes a single
evaluation at the total accumulated variance exact.
"""

import math

import numpy as np
from scipy.integrate import quad

from vasicek_barrier import (barrier_kernel, double_barrier_kernel, free_kernel,
                             series_terms)
from vasicek_barrier.kernels import _term_counts

B_LOW, B_UP = math.log(100.0), math.log(130.0)
v = 0.138  # a representative one-year accumulated variance
x = 4.74   # log forward of a spot near 110

print("terminal densities from x=4.74 (columns: x', free, up-and-out, corridor):")
for xp in np.linspace(B_LOW + 0.01, B_UP - 0.01, 9):
    print(f"  {xp:.4f}  {free_kernel(x, xp, v):8.5f}"
          f"  {barrier_kernel(x, xp, v, B_UP):8.5f}"
          f"  {double_barrier_kernel(x, xp, v, B_LOW, B_UP):10.3e}")

print("\nsurvival mass under the upper wall (1 = no absorption):")
for mult in (0.5, 1.0, 2.0, 4.0, 8.0):
    b = x + mult * math.sqrt(v)
    mass, _ = quad(lambda xp: barrier_kernel(x, xp, v, b)
                   * math.exp(0.5 * (xp - x) + v / 8.0),
                   x - 14 * math.sqrt(v), b, limit=200)
    print(f"  barrier at x + {mult:3.1f} sd  ->  {mass:.6f}")

print("\nthe series the corridor kernel sums (the shorter, each to a tail of 1e-12):")
for vv in (1e-12, 1e-4, 1e-3, 1e-2, 0.138, 1.0):
    groups, modes = _term_counts(vv, B_UP - B_LOW)
    series, terms = (("images", 4 * groups + 3) if 4 * groups + 3 <= modes
                     else ("sines", series_terms(vv, B_LOW, B_UP)))
    print(f"  v={vv:7.1e}  {series:6s} terms={terms}")

print("\ncomposition check: splitting the variance and re-integrating")
v1, v2 = 0.06, 0.078
lhs, _ = quad(lambda z: barrier_kernel(x, z, v1, B_UP)
              * barrier_kernel(4.70, z, v2, B_UP) * math.exp(z - 4.70),
              B_UP - 12 * math.sqrt(v1 + v2), B_UP, limit=200)
rhs = barrier_kernel(x, 4.70, v1 + v2, B_UP)
print(f"  integral of k(x,z;v1) k(z,x';v2) dz = {lhs:.12f}")
print(f"  k(x,x';v1+v2)                       = {rhs:.12f}")
