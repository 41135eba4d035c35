"""Transition kernels for knock-out pricing in log-forward coordinates.

Let x = ln(S/P) be the log forward price and v the variance accumulated
between valuation and maturity.  The kernels below give the (sub-)density of
the terminal log forward x' given x, with absorption at the barriers:

* `free_kernel` - no barrier; the lognormal transition density.
* `barrier_kernel` - one absorbing upper wall.
* `double_barrier_kernel` - an absorbing corridor; lower = -inf is the
  up-and-out.

Both absorbed kernels are one function, `_absorbed`.  The kernel of the
well has two exact expansions (Kunitomo and Ikeda 1992): the images, a
signed sum of Gaussians that converges fast at short variance, and the sine
eigenmodes, fast at long variance.  Closed-form bounds truncate each at a
tail of 1e-12, and `_absorbed` sums the shorter.  An infinite width leaves
the free Gaussian and its mirror across the wall: the up-and-out's images.

Each kernel carries the common prefactor exp((x - x')/2 - v/8) that converts
the symmetric heat kernel into the martingale transition density.  Time never
appears: composing any of these kernels over sub-intervals of accumulated
variance reproduces the kernel at the total variance (Chapman-Kolmogorov), so
a single evaluation at v = integrated_variance(t, tau) prices the whole path.

These kernels are oracles: the production pricer (`pricer`) integrates the
two series in closed form, and `quad_oracle` integrates these pointwise sums
numerically to check it.  Nothing on the production path calls them, and
this module imports nothing from the package.
"""

from __future__ import annotations

import math

import numpy as np

# Each series keeps terms until its tail bound, without the prefactor, is below this.
_SERIES_TOL = 1e-12
# `series_terms` counts at most this many modes; the kernels take the images there.
_MAX_MODES = 100_000


def _check_variance(v: float):
    if v <= 0:
        raise ValueError(f"accumulated variance must be positive, got {v}")


def _term_counts(v: float, width: float) -> tuple[int, float]:
    """(J, n): image groups and sine modes that put each series' tail below the tolerance.

    Every image past group J lies z = (2J + 1) L or more from 0, on four
    combs of spacing 2L, so they sum to at most 4 phi(z) / (1 - e^{-2L^2/v}),
    phi the N(0, v) density.  The modes from n on sum to at most
    (2/L) e^{-c n^2} / (1 - e^{-3c}), c = pi^2 v / 2L^2.  An infinite width
    needs no image group and infinitely many modes.
    """
    reach = (math.log(4.0 / (_SERIES_TOL * math.sqrt(2.0 * math.pi * v)))
             - math.log(-math.expm1(-2.0 * width * width / v)))
    groups = max(0, math.ceil(0.5 * (math.sqrt(2.0 * v * max(reach, 0.0)) / width - 1.0)))
    c = 0.5 * math.pi**2 * v / (width * width)
    if c == 0.0:
        return groups, math.inf
    reach = math.log(2.0 / (width * _SERIES_TOL)) - math.log(-math.expm1(-3.0 * c))
    return groups, max(1.0, math.ceil(math.sqrt(max(reach, 0.0) / c)))


def series_terms(v: float, lower: float, upper: float) -> int:
    """Number of sine eigenmodes the corridor series needs at variance v.

    Raises ValueError, naming v, past 100000 modes.
    """
    _check_variance(v)
    modes = _term_counts(v, upper - lower)[1]
    if modes > _MAX_MODES:
        raise ValueError(f"corridor series at variance v={v!r} needs more than "
                         f"{_MAX_MODES} modes")
    return int(modes)


def free_kernel(x: float, x_prime, v: float):
    """Barrier-free transition density exp((x-x')/2 - v/8) * N(x-x'; 0, v).

    Algebraically identical to the lognormal density
    (2*pi*v)**-0.5 * exp(-(x' - x + v/2)**2 / (2*v)), so it integrates to one
    and satisfies the martingale property int e^{x'} k dx' = e^x.
    """
    _check_variance(v)
    d = x - np.asarray(x_prime, dtype=float)
    out = np.exp(0.5 * d - v / 8.0 - d * d / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)
    return out if out.ndim else float(out)


def _absorbed(x: float, x_prime, v: float, lower: float, upper: float):
    """The kernel absorbed at lower < upper, by the shorter of its two series.

    With d = x - x', L = u - l, phi the N(0, v) density and p_n = n pi / L,
    exp(d/2 - v/8) times either

    * images: sum_k phi(d + 2kL) - phi((x - u) + (x' - u) - 2kL), as the
      free Gaussian, the reflections across u and l, then pairs k = +-j; or
    * sines: (2/L) sum_n exp(-p_n^2 v/2) sin(p_n (x - l)) sin(p_n (x' - l)),

    truncated by `_term_counts`; the images' 4J + 3 Gaussians win a tie
    against the n modes.  Zero unless l < x, x' < u.
    """
    _check_variance(v)
    width = upper - lower
    xp = np.asarray(x_prime, dtype=float)
    groups, modes = _term_counts(v, width)
    if 4 * groups + 3 <= modes:
        d = x - xp
        base = 0.5 * d - v / 8.0

        def gauss(z):
            return np.exp(base - z * z / (2.0 * v))
        # reflections built from wall-relative offsets, so that an image
        # cancels its source exactly when either argument sits on its wall
        up, low = (x - upper) + (xp - upper), (x - lower) + (xp - lower)
        total = gauss(d) - gauss(up) - gauss(low)
        for j in range(1, groups + 1):
            shift = 2.0 * j * width
            total += gauss(d + shift) + gauss(d - shift) - gauss(up - shift) - gauss(low + shift)
        kernel = total / np.sqrt(2.0 * np.pi * v)
    else:
        pn = np.pi * np.arange(1, int(modes) + 1) / width
        weights = np.exp(-0.5 * pn * pn * v) * np.sin(pn * (x - lower))
        series = (2.0 / width) * (weights @ np.sin(np.outer(pn, xp - lower))).reshape(xp.shape)
        kernel = np.exp(0.5 * (x - xp) - v / 8.0) * series
    out = np.where((xp > lower) & (xp < upper) & (lower < x < upper), kernel, 0.0)
    return out if out.ndim else float(out)


def barrier_kernel(x: float, x_prime, v: float, barrier: float):
    """Transition density absorbed at an upper wall B, by the method of images.

    exp((x-x')/2 - v/8) / sqrt(2*pi*v) *
        [exp(-(x-x')^2/(2v)) - exp(-(x+x'-2B)^2/(2v))]

    for x' < B, and 0 at and past B.  The start x must satisfy x <= B
    (beyond it the option is knocked out); v is positive.
    """
    if x > barrier:
        raise ValueError(f"start x={x} lies beyond the barrier {barrier}: knocked out")
    return _absorbed(x, x_prime, v, -math.inf, barrier)


def double_barrier_kernel(x: float, x_prime, v: float, lower: float, upper: float):
    """Transition density absorbed at both walls of a corridor lower < upper.

    The image or the sine series of `_absorbed`, whichever is shorter at v;
    zero unless lower < x, x' < upper.  lower = -inf gives `barrier_kernel`.
    """
    if not lower < upper:
        raise ValueError(f"corridor is empty: [{lower}, {upper}]")
    return _absorbed(x, x_prime, v, lower, upper)
