"""Transition kernels for knock-out pricing in log-forward coordinates.

Let x = ln(S/P) be the log forward price and v the variance accumulated
between valuation and maturity.  The kernels below give the (sub-)density of
the terminal log forward x' given x, with absorption at the barriers:

* `free_kernel` - no barrier; the lognormal transition density.
* `barrier_kernel` - one absorbing upper wall, built by the method of
  images: the free Gaussian minus its mirror image across the barrier.
* `double_barrier_kernel` - absorbing corridor, expanded in the sine
  eigenmodes of the corridor.

Each kernel carries the common prefactor exp((x - x')/2 - v/8) that converts
the symmetric heat kernel into the martingale transition density.  Time never
appears: composing any of these kernels over sub-intervals of accumulated
variance reproduces the kernel at the total variance (Chapman-Kolmogorov), so
a single evaluation at v = integrated_variance(t, tau) prices the whole path.

These kernels are oracles: the production pricer (`pricer`) integrates them
in closed form, and `quad_oracle` integrates them numerically to check it.
The sine series of the corridor kernel keeps the modes that `series_terms`
counts from v and the width, to a fixed tail bound of 1e-12 and at most
100000 modes; nothing on the production path calls it, and this module
imports nothing from the package.
"""

from __future__ import annotations

import numpy as np

# The corridor series keeps modes until its tail bound is below this.
_SERIES_TOL = 1e-12
# At most this many modes, which bounds the (modes x points) array of
# `double_barrier_kernel`; a smaller variance cannot be valued.
_MAX_MODES = 100_000


def series_terms(v: float, lower: float, upper: float) -> int:
    """Number of eigenmodes the corridor series keeps at variance v.

    Sets the mode count of `double_barrier_kernel`.

    Returns the smallest n at which the geometric tail bound
    (2/L) * exp(-p_n^2 v / 2) / (1 - exp(-(2n+1) pi^2 v / (2 L^2)))
    drops below 1e-12.  Raises ValueError, naming v, when 100000 modes do
    not suffice.
    """
    _check_variance(v)
    width = upper - lower
    c = np.pi**2 * v / (2.0 * width**2)  # p_n^2 v/2 = c * n^2
    n = 0
    chunk = 1024
    while n < _MAX_MODES:
        hi = min(n + chunk, _MAX_MODES)
        ns = np.arange(n + 1, hi + 1, dtype=float)
        bounds = (2.0 / width) * np.exp(-c * ns * ns) / (-np.expm1(-(2.0 * ns + 1.0) * c))
        ok = np.nonzero(bounds < _SERIES_TOL)[0]
        if ok.size:
            return int(ns[ok[0]])
        n = hi
    raise ValueError(f"corridor series at variance v={v!r} needs more than "
                     f"{_MAX_MODES} modes")


def _check_variance(v: float):
    if v <= 0:
        raise ValueError(f"accumulated variance must be positive, got {v}")


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


def barrier_kernel(x: float, x_prime, v: float, barrier: float):
    """Transition density absorbed at an upper wall, by the method of images.

    exp((x-x')/2 - v/8) / sqrt(2*pi*v) *
        [exp(-(x-x')^2/(2v)) - exp(-(x+x'-2B)^2/(2v))]

    Parameters
    ----------
    x : float
        Starting log forward, must satisfy x <= barrier (beyond it the
        option is knocked out and the kernel is undefined).
    x_prime : float or ndarray
        Terminal log forward(s); the kernel vanishes at x_prime = barrier.
    v : float
        Accumulated variance, positive.
    barrier : float
        Log-barrier level B.
    """
    _check_variance(v)
    if x > barrier:
        raise ValueError(f"start x={x} lies beyond the barrier {barrier}: knocked out")
    xp = np.asarray(x_prime, dtype=float)
    d = x - xp
    # image distance built from wall-relative offsets so the two Gaussians
    # cancel exactly when either argument sits on the barrier
    m = (x - barrier) + (xp - barrier)
    base = 0.5 * d - v / 8.0
    out = (np.exp(base - d * d / (2.0 * v)) - np.exp(base - m * m / (2.0 * v))) \
        / np.sqrt(2.0 * np.pi * v)
    return out if out.ndim else float(out)


def double_barrier_kernel(x: float, x_prime, v: float, lower: float, upper: float):
    """Transition density absorbed at both walls of a corridor.

    exp((x-x')/2 - v/8) * sum_n exp(-p_n^2 v/2) phi_n(x) phi_n(x'), truncated
    at the mode count of `series_terms`.

    Parameters
    ----------
    x : float
        Starting log forward, lower < x < upper.
    x_prime : float or ndarray
        Terminal log forward(s) in [lower, upper]; the kernel vanishes at
        both walls.
    v : float
        Accumulated variance, positive.
    lower, upper : float
        Log-barrier levels with lower < upper.
    """
    if not lower < upper:
        raise ValueError(f"corridor is empty: [{lower}, {upper}]")
    _check_variance(v)
    width = upper - lower
    n_star = series_terms(v, lower, upper)
    pn = np.pi * np.arange(1, n_star + 1) / width
    weights = np.exp(-0.5 * pn * pn * v) * np.sin(pn * (x - lower))

    xp = np.asarray(x_prime, dtype=float)
    inside = (xp > lower) & (xp < upper)
    sines = np.sin(np.outer(pn, xp - lower))  # (n_star, m)
    series = (2.0 / width) * (weights @ sines).reshape(xp.shape)
    out = np.where(inside, np.exp(0.5 * (x - xp) - v / 8.0) * series, 0.0)
    if not (lower < x < upper):
        out = np.zeros_like(out)
    return out if out.ndim else float(out)
