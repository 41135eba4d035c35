"""Closed-form quantities for the Vasicek short-rate model.

The short rate follows dr = a*(theta - r)*dt + sigma2*dW2 while the stock
follows dS/S = r*dt + sigma1*dW1 with Cov(dW1, dW2) = rho*dt.  Everything the
pricing layer needs from the rate model reduces to three closed forms:

* the zero-coupon bond price P(r, t; tau) = A(t) * exp(-r * B(t)),
* the instantaneous variance of the forward price S/P, and
* its integral over a time interval (the number that drives the kernels).

All functions are pure; scalar arguments broadcast against numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this mean-reversion speed B's closed form divides a cancelled
# difference by a, so its series takes over.
SMALL_A = 1e-6

# Taylor coefficients in x = a u, highest power first, of the scaled integrals
# of B (`_b_integrals`):
#   f(x) = (e^-x - 1 + x) / x^2             = sum_n (-x)^n / (n+2)!
#   g(x) = (2x - 3 + 4 e^-x - e^-2x) / (2 x^3) = sum_n (-x)^n (2^(n+2) - 2) / (n+3)!
# Below |x| = 1, 22 terms leave a tail under 1e-17 relative.
_F_SERIES = tuple((-1) ** n / math.factorial(n + 2) for n in reversed(range(22)))
_G_SERIES = tuple((-1) ** n * (2 ** (n + 2) - 2) / math.factorial(n + 3)
                  for n in reversed(range(22)))


def _require_finite(**fields) -> None:
    """Raise ValueError naming the first field that is NaN or infinite."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class VasicekParams:
    """Model parameters plus the initial short rate, all six finite.

    Attributes
    ----------
    a : float
        Mean-reversion speed (1/year).  May be any real; where |a| times
        the horizon is small, series expansions replace the closed forms.
    theta : float
        Long-term mean rate (1/year).
    sigma1 : float
        Stock volatility (1/sqrt(year)), non-negative.
    sigma2 : float
        Short-rate volatility (1/sqrt(year)), non-negative.
    rho : float
        Instantaneous correlation between the stock and rate drivers,
        in [-1, 1].
    r0 : float
        Short rate at valuation time (1/year).
    """

    a: float
    theta: float
    sigma1: float
    sigma2: float
    rho: float
    r0: float

    def __post_init__(self):
        _require_finite(a=self.a, theta=self.theta, sigma1=self.sigma1,
                        sigma2=self.sigma2, rho=self.rho, r0=self.r0)
        if self.sigma1 < 0:
            raise ValueError(f"sigma1 must be non-negative, got {self.sigma1}")
        if self.sigma2 < 0:
            raise ValueError(f"sigma2 must be non-negative, got {self.sigma2}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")


def _check_order(t, tau):
    if (np.asarray(t) > tau).any():
        raise ValueError(f"valuation time t={t} exceeds maturity tau={tau}")


def _horner(coeffs, x):
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def _closed_f_g(x):
    """f and g of `_F_SERIES` in closed form, from e^-x - 1 alone.

    e^-2x - 1 = (e^-x - 1)(e^-x + 1) turns the numerator of g into
    2x + 2 (e^-x - 1) - (e^-x - 1)^2.
    """
    em1 = np.expm1(-x)
    return (em1 + x) / (x * x), (2.0 * x + em1 * (2.0 - em1)) / (2.0 * x * x * x)


def _b_integrals(u, a: float):
    """(int_0^u B ds, int_0^u B^2 ds) for B(s) = (1 - e^{-a s}) / a.

    They are u^2 f(a u) and u^3 g(a u) with f, g as at `_F_SERIES`.  The
    closed forms of f and g cancel to a relative error of about
    eps / |a u|^3 for small |a u|, so their series serve below |a u| = 1:
    the switch is on a u, not on a alone, because a small a over a long
    horizon is far from the series' range.  Either way the relative error
    is a few eps.  Past the float range (a u below about -354) they are
    inf, with numpy's overflow warning left to the caller.
    """
    x = a * u
    if np.ndim(x) == 0:
        x = float(x)
        if abs(x) < 1.0:
            f, g = _horner(_F_SERIES, x), _horner(_G_SERIES, x)
        else:
            f, g = _closed_f_g(x)
    else:
        small = np.abs(x) < 1.0
        f, g = _closed_f_g(np.where(small, 1.0, x))
        f[small], g[small] = _horner(_F_SERIES, x[small]), _horner(_G_SERIES, x[small])
    return u * u * f, u * u * u * g


def _finite(out, quantity: str, tau: float, a: float):
    """out as a float or an array, or a ValueError naming a where it is not finite."""
    if not np.isfinite(out).all():
        raise ValueError(f"{quantity} over maturity {tau!r} is not finite: the rate model "
                         f"with a={a!r} explodes over this horizon")
    return out if np.ndim(out) else float(out)


def b_factor(t, tau: float, a: float):
    """Bond duration factor B(t) = (1 - exp(-a*(tau - t))) / a.

    Parameters
    ----------
    t : float or ndarray
        Valuation time(s), must satisfy t <= tau.
    tau : float
        Maturity time.
    a : float
        Mean-reversion speed.  For |a| < SMALL_A the three-term series
        u - a*u**2/2 + a**2*u**3/6 (u = tau - t) is used instead.
    """
    _check_order(t, tau)
    out = _b(tau - np.asarray(t, dtype=float), a)
    return out if out.ndim else float(out)


def _b(u, a: float):
    """B at u = tau - t, without `b_factor`'s checks."""
    if abs(a) < SMALL_A:
        return u - a * u**2 / 2.0 + a**2 * u**3 / 6.0
    return -np.expm1(-a * u) / a


def _log_bond(r, t, tau: float, p: VasicekParams):
    _check_order(t, tau)
    u = tau - np.asarray(t, dtype=float)
    int_b, int_b2 = _b_integrals(u, p.a)
    return 0.5 * p.sigma2 * p.sigma2 * int_b2 - p.theta * p.a * int_b \
        - np.asarray(r, dtype=float) * _b(u, p.a)


def log_bond_price(r, t, tau: float, p: VasicekParams):
    """Log of the zero-coupon bond price, log A(t) - r * B(t).

    log A = -theta * int_0^u (1 - e^{-a s}) ds + sigma2^2 / 2 * int_0^u B^2 ds
    with u = tau - t, the affine solution of the bond PDE with P(tau) = 1;
    the first integral is a * int_0^u B ds (`_b_integrals`).  Parameters
    are those of `bond_price`.  For a negative mean-reversion speed over a
    long horizon the bond price itself overflows while its log is still
    finite; past that, where the log is not finite either, this raises a
    ValueError naming a.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = _log_bond(r, t, tau, p)
    return _finite(out, "log bond price", tau, p.a)


def bond_price(r, t, tau: float, p: VasicekParams):
    """Zero-coupon bond price P(r, t; tau) = A(t) * exp(-r * B(t)).

    Parameters
    ----------
    r : float or ndarray
        Short rate at time t.
    t : float or ndarray
        Valuation time, t <= tau.
    tau : float
        Maturity; P(r, tau; tau) = 1 for every r.
    p : VasicekParams
        Model parameters (only a, theta, sigma2 enter).

    Raises ValueError naming a where the price is not finite: an explosive
    model (a < 0) over a long horizon.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(_log_bond(r, t, tau, p))
    return _finite(out, "bond price", tau, p.a)


def effective_vol_sq(t, tau: float, p: VasicekParams):
    """Instantaneous variance rate of the forward price S / P(r, t; tau).

    Equals sigma1^2 + 2*rho*sigma1*sigma2*B(t) + sigma2^2*B(t)^2, evaluated
    here in the manifestly non-negative form
    (sigma1 + rho*sigma2*B)^2 + (1 - rho^2)*(sigma2*B)^2.
    """
    _check_order(t, tau)
    sB = p.sigma2 * b_factor(t, tau, p.a)
    out = (p.sigma1 + p.rho * sB) ** 2 + (1.0 - p.rho**2) * sB**2
    return out if np.ndim(out) else float(out)


def integrated_variance(t0, t1, tau: float, p: VasicekParams):
    """Integral of `effective_vol_sq` over [t0, t1], in closed form.

    For (t0, t1) = (0, tau) this is
    (s1^2 + 2*rho*s1*s2/a + s2^2/a^2)*tau
    - (2*s2/a^2)*(rho*s1 + s2/a)*(1 - exp(-a*tau))
    + s2^2/(2*a^3)*(1 - exp(-2*a*tau)),
    evaluated as s1^2 d + 2 rho s1 s2 int B + s2^2 int B^2 with the
    integrals of `_b_integrals`, which switch to series where |a| d is
    small (d = t1 - t0); a sub-interval shifts them by
    B(u1 + s) = B(u1) + e^{-a u1} B(s), u1 = tau - t1.  This total variance
    is the only statistic of the rate path that the pricing kernels consume.

    Parameters
    ----------
    t0, t1 : float or ndarray
        Interval bounds with t0 <= t1 <= tau.
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    if np.any(t0 > t1):
        raise ValueError("interval bounds must satisfy t0 <= t1")
    _check_order(t1, tau)
    a, s1, s2, rho = p.a, p.sigma1, p.sigma2, p.rho
    d = t1 - t0
    # B(u1 + s) = B(u1) + e^{-a u1} B(s) on [u1, u0], u = tau - t, so both
    # integrals are sums of non-negative terms, free of cancellation
    u1 = tau - t1
    b1, e1 = _b(u1, a), np.exp(-a * u1)
    int_b, int_b2 = _b_integrals(d, a)
    int_b2 = d * b1 * b1 + e1 * (2.0 * b1 * int_b + e1 * int_b2)
    int_b = d * b1 + e1 * int_b
    out = s1 * s1 * d + 2.0 * rho * s1 * s2 * int_b + s2 * s2 * int_b2
    return out if out.ndim else float(out)


def bond_price_from_ode(r: float, t: float, tau: float, p: VasicekParams) -> float:
    """Bond price via numerical integration of the affine ODE system.

    Solves B' = a*B - 1 and f' = a*theta*B - sigma2^2*B^2/2 backwards from
    the terminal condition B(tau) = f(tau) = 0, then returns exp(f - r*B).
    Exists purely to cross-check `bond_price` by an independent route.
    Raises ValueError naming a where the solution leaves the float range
    (an explosive model), as `bond_price` does.
    """
    from scipy.integrate import solve_ivp

    _check_order(t, tau)
    if t == tau:
        return 1.0

    def rhs(s, y):
        B, _ = y
        return [p.a * B - 1.0, p.a * p.theta * B - 0.5 * p.sigma2**2 * B * B]

    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (tau, t), [0.0, 0.0], rtol=1e-12, atol=1e-14,
                        dense_output=False, method="RK45")
        B_end, f_end = sol.y[0, -1], sol.y[1, -1]
        out = _finite(np.exp(f_end - r * B_end), "ODE bond price", tau, p.a)
    if not sol.success:
        raise RuntimeError(f"bond ODE integration failed: {sol.message}")
    return out
