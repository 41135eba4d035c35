"""Closed forms the benchmark checks the engine against.

Everything here is written from the textbook formulas and uses only the
standard library, so a fault in the engine's model, kernels, quadrature or
normal CDF cannot leak into the reference values:

* `bond_price` - the Vasicek zero-coupon bond P = A exp(-B r);
* `forward_variance` - the variance of ln(S/P) accumulated to maturity;
* `up_and_out_forward` - the reflection formula for an up-and-out call on a
  driftless lognormal forward, with sigma*sqrt(T) replaced by sqrt(v);
* `corridor_forward` - the corridor (double knock-out) call, summed either
  as the Kunitomo-Ikeda image series or as the sine-mode series of the
  absorbing well, whichever the a-priori term bound says is shorter.

Option values are in forward units; multiply by the bond price for cash.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)
# Absolute truncation target of both corridor series, as a share of the
# largest payoff scale e^u + K.
SERIES_TOL = 1e-15
_MAX_TERMS = 1_000_000


def norm_mass(lo: float, hi: float) -> float:
    """P(lo < Z < hi) for a standard normal Z, accurate in either tail."""
    if not lo < hi:
        return 0.0
    if lo >= 0.0:
        return 0.5 * (math.erfc(lo / _SQRT2) - math.erfc(hi / _SQRT2))
    if hi <= 0.0:
        return 0.5 * (math.erfc(-hi / _SQRT2) - math.erfc(-lo / _SQRT2))
    return 1.0 - 0.5 * (math.erfc(hi / _SQRT2) + math.erfc(-lo / _SQRT2))


def duration(a: float, tau: float) -> float:
    """B(tau) = (1 - exp(-a tau)) / a, the bond's rate sensitivity (a != 0)."""
    return -math.expm1(-a * tau) / a


def bond_price(r: float, tau: float, a: float, theta: float, sigma2: float) -> float:
    """Vasicek zero-coupon bond, P = exp[(theta - s^2/2a^2)(B - tau) - s^2 B^2/4a - B r].

    Requires a != 0 (the benchmark only uses a > 0).
    """
    if a == 0.0:
        raise ValueError("the textbook bond formula needs a != 0")
    b = duration(a, tau)
    s2 = sigma2 * sigma2
    log_a = (theta - s2 / (2.0 * a * a)) * (b - tau) - s2 * b * b / (4.0 * a)
    return math.exp(log_a - b * r)


def forward_variance(tau: float, a: float, sigma1: float, sigma2: float,
                     rho: float) -> float:
    """Integral over [0, tau] of sigma1^2 + 2 rho sigma1 sigma2 B + sigma2^2 B^2.

    With u the time to maturity, int B du = (tau - B)/a and
    int B^2 du = (tau - 2B + (1 - e^{-2 a tau})/(2a)) / a^2.
    """
    if a == 0.0:
        raise ValueError("the closed-form variance needs a != 0")
    b = duration(a, tau)
    int_b = (tau - b) / a
    int_b2 = (tau - 2.0 * b - math.expm1(-2.0 * a * tau) / (2.0 * a)) / (a * a)
    return sigma1 * sigma1 * tau + 2.0 * rho * sigma1 * sigma2 * int_b \
        + sigma2 * sigma2 * int_b2


def vanilla_forward(x: float, log_k: float, v: float) -> float:
    """Black call e^x N(d1) - K N(d2) on a driftless forward."""
    sv = math.sqrt(v)
    d1 = (x - log_k) / sv + 0.5 * sv
    return math.exp(x) * norm_mass(-math.inf, d1) \
        - math.exp(log_k) * norm_mass(-math.inf, d1 - sv)


def _gauss_pair(x: float, c: float, v: float, lo: float, hi: float,
                strike: float) -> float:
    """int_lo^hi e^{(x-x')/2 - v/8} phi_v(x' - c) (e^{x'} - K) dx'.

    Completing the square turns both payoff legs into normal masses:
    e^{(x+c)/2} N-mass around c + v/2 minus K e^{(x-c)/2} N-mass around c - v/2.
    """
    sv = math.sqrt(v)
    up = c + 0.5 * v
    down = c - 0.5 * v
    return math.exp(0.5 * (x + c)) * norm_mass((lo - up) / sv, (hi - up) / sv) \
        - strike * math.exp(0.5 * (x - c)) * norm_mass((lo - down) / sv, (hi - down) / sv)


def up_and_out_forward(x: float, v: float, log_k: float, upper: float) -> float:
    """Up-and-out call on a driftless forward: reflection formula.

    The free Gaussian minus its mirror image across the wall, integrated
    against the payoff on [ln K, u]; zero when x or ln K is at or beyond u.
    """
    if x >= upper or log_k >= upper:
        return 0.0
    strike = math.exp(log_k)
    return _gauss_pair(x, x, v, log_k, upper, strike) \
        - _gauss_pair(x, 2.0 * upper - x, v, log_k, upper, strike)


def image_terms(v: float, lower: float, upper: float, strike: float,
                tol: float = SERIES_TOL) -> int:
    """Images per side so that the omitted image pairs sum below tol.

    Image pair n has its Gaussians at least (2|n| - 2) L - v/2 away from the
    corridor and a payoff weight below (e^u + K) e^{|n| L}.
    """
    width = upper - lower
    scale = math.exp(upper) + strike
    for n in range(1, _MAX_TERMS):
        gap = 2.0 * n * width - 0.5 * v
        if gap > 0.0:
            bound = 4.0 * scale * math.exp((n + 1) * width - gap * gap / (2.0 * v))
            if bound < tol * scale:
                return n
    raise ValueError("image series does not converge within the term cap")


def sine_terms(v: float, x: float, lower: float, upper: float, strike: float,
               tol: float = SERIES_TOL) -> int:
    """Sine modes so that the omitted modes sum below tol.

    Mode n is at most 2 e^{x/2} (e^{u/2} + K e^{-l/2}) e^{-c n^2} with
    c = pi^2 v / (2 L^2); the tail is bounded geometrically.
    """
    width = upper - lower
    c = math.pi ** 2 * v / (2.0 * width * width)
    weight = 2.0 * math.exp(0.5 * x) * (math.exp(0.5 * upper) + strike * math.exp(-0.5 * lower))
    scale = math.exp(upper) + strike
    # start near the solution of weight * e^{-c n^2} = tol * scale
    n = max(1, int(math.sqrt(max(math.log(weight / (tol * scale)), 0.0) / c)) - 2)
    while n < _MAX_TERMS:
        m = n + 1
        tail = weight * math.exp(-c * m * m) / -math.expm1(-c * (2 * m + 1))
        if tail < tol * scale:
            return n
        n += 1
    raise ValueError("sine series does not converge within the term cap")


def _corridor_images(x, v, lo, lower, upper, strike, n_img):
    width = upper - lower
    total = 0.0
    for n in range(-n_img, n_img + 1):
        shift = 2.0 * n * width
        total += _gauss_pair(x, x + shift, v, lo, upper, strike) \
            - _gauss_pair(x, 2.0 * lower - x + shift, v, lo, upper, strike)
    return total


def _corridor_sines(x, v, lo, lower, upper, strike, n_sin):
    width = upper - lower

    def sine_integral(beta, p):
        # int_lo^upper e^{beta x'} sin(p (x' - lower)) dx'
        def prim(y):
            return math.exp(beta * y) * (beta * math.sin(p * y) - p * math.cos(p * y)) \
                / (beta * beta + p * p)
        return math.exp(beta * lower) * (prim(width) - prim(lo - lower))

    total = 0.0
    for n in range(1, n_sin + 1):
        p = n * math.pi / width
        payoff = sine_integral(0.5, p) - strike * sine_integral(-0.5, p)
        total += math.exp(-0.5 * p * p * v) * math.sin(p * (x - lower)) * payoff
    return (2.0 / width) * math.exp(0.5 * x - v / 8.0) * total


def corridor_forward(x: float, v: float, log_k: float, lower: float,
                     upper: float) -> float:
    """Corridor (double knock-out) call on a driftless forward.

    Sums the image series (Kunitomo & Ikeda 1992) when its term bound is no
    longer than the sine series' bound, else the sine modes; short
    maturities and wide corridors take few images, long maturities few
    modes, and the image series cancels badly at large v.
    """
    if not lower < x < upper:
        return 0.0
    lo = max(log_k, lower)
    if lo >= upper:
        return 0.0
    strike = math.exp(log_k)
    n_img = image_terms(v, lower, upper, strike)
    n_sin = sine_terms(v, x, lower, upper, strike)
    if 2 * n_img + 1 <= n_sin:
        return _corridor_images(x, v, lo, lower, upper, strike, n_img)
    return _corridor_sines(x, v, lo, lower, upper, strike, n_sin)


class Reference:
    """Oracle prices in cash for one parameter set and maturity."""

    def __init__(self, a, theta, sigma1, sigma2, rho, r0, strike, maturity):
        self.strike = strike
        self.log_k = math.log(strike)
        self.bond = bond_price(r0, maturity, a, theta, sigma2)
        self.v = forward_variance(maturity, a, sigma1, sigma2, rho)

    def log_forward(self, spot: float) -> float:
        return math.log(spot) - math.log(self.bond)

    def up_and_out(self, spot: float, upper: float) -> float:
        return self.bond * up_and_out_forward(self.log_forward(spot), self.v,
                                              self.log_k, upper)

    def corridor(self, spot: float, lower: float, upper: float) -> float:
        return self.bond * corridor_forward(self.log_forward(spot), self.v,
                                            self.log_k, lower, upper)

    def vanilla(self, spot: float) -> float:
        return self.bond * vanilla_forward(self.log_forward(spot), self.log_k, self.v)


# Analytic prices must match the oracle to ABS_TOL + REL_TOL * |oracle|
# (cash units).  The engine's quadrature runs at rel 1e-10, abs 1e-12.
ABS_TOL = 1e-9
REL_TOL = 1e-8
# A Monte Carlo estimate must lie within Z_MAX standard errors of its oracle
# (a false alarm has probability 5.7e-7 per check under the normal law), or
# within the rule-of-three bound 3 * cap / n, whichever is wider.
Z_MAX = 5.0


def close(value: float, ref: float) -> bool:
    """Analytic agreement within the stated absolute-plus-relative tolerance."""
    return abs(value - ref) <= ABS_TOL + REL_TOL * abs(ref)


def mc_bound(std_error: float, n_paths: int, payoff_cap: float) -> float:
    """Largest gap between an n-path estimate and its target that passes.

    The rule of three bounds the probability of an event unseen in n paths
    by 3/n, and the payoff cap turns that into a bound on the gap.  It
    stands in for the z-bound when the standard error is 0, as
    `cli._mc_check` does.  A price near 3·cap/n is not checkable this way:
    an estimate of 0 would pass.
    """
    return max(Z_MAX * std_error, 3.0 / n_paths * payoff_cap)


def mc_agrees(ref: float, mean: float, std_error: float, n_paths: int,
              payoff_cap: float) -> bool:
    """Whether an estimate is consistent with its oracle value (see `mc_bound`)."""
    return abs(mean - ref) <= mc_bound(std_error, n_paths, payoff_cap)
