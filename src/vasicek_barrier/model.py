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

# Below this mean-reversion speed the closed forms in `a` suffer catastrophic
# cancellation, so series expansions take over.
SMALL_A = 1e-6


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
        Mean-reversion speed (1/year).  May be any real; values below
        ``SMALL_A`` in magnitude are handled by series expansions.
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
    if np.any(np.asarray(t) > tau):
        raise ValueError(f"valuation time t={t} exceeds maturity tau={tau}")


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
    u = tau - np.asarray(t, dtype=float)
    if abs(a) < SMALL_A:
        out = u - a * u**2 / 2.0 + a**2 * u**3 / 6.0
    else:
        out = -np.expm1(-a * u) / a
    return out if out.ndim else float(out)


def log_bond_price(r, t, tau: float, p: VasicekParams):
    """Log of the zero-coupon bond price, log A(t) - r * B(t).

    log A is the affine solution of the bond PDE with P(tau) = 1.
    Parameters are those of `bond_price`.  For a negative mean-reversion
    speed over a long horizon the bond price itself overflows while its log
    is still finite.
    """
    _check_order(t, tau)
    a = p.a
    u = tau - np.asarray(t, dtype=float)
    B = b_factor(t, tau, a)
    s2 = p.sigma2 * p.sigma2
    if abs(a) < SMALL_A:
        # theta*(B - u) + s2*(u^3/6 - a*u^4/8) to O(a^2)
        log_a = p.theta * (-a * u**2 / 2.0 + a**2 * u**3 / 6.0) \
            + s2 * (u**3 / 6.0 - a * u**4 / 8.0)
    else:
        log_a = (B - u) * (a * a * p.theta - s2 / 2.0) / (a * a) - s2 * B * B / (4.0 * a)
    out = log_a - np.asarray(r, dtype=float) * B
    return out if np.ndim(out) else float(out)


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
    """
    out = np.exp(log_bond_price(r, t, tau, p))
    return out if out.ndim else float(out)


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
    + s2^2/(2*a^3)*(1 - exp(-2*a*tau));
    general sub-intervals use the same primitives shifted to
    u = tau - t.  This total variance is the only statistic of the rate
    path that the pricing kernels consume.

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
    u0 = tau - t0
    u1 = tau - t1
    d = t1 - t0
    if abs(a) < SMALL_A:
        # term-wise integrals of the small-a series for B and B^2
        int_b = (u0**2 - u1**2) / 2.0 - a * (u0**3 - u1**3) / 6.0 \
            + a**2 * (u0**4 - u1**4) / 24.0
        int_b2 = (u0**3 - u1**3) / 3.0 - a * (u0**4 - u1**4) / 4.0 \
            + 7.0 * a**2 * (u0**5 - u1**5) / 60.0
    else:
        e0 = np.exp(-a * u0)
        e1 = np.exp(-a * u1)
        int_b = d / a + (e0 - e1) / a**2
        int_b2 = (d + 2.0 * (e0 - e1) / a - (e0 * e0 - e1 * e1) / (2.0 * a)) / a**2
    out = s1 * s1 * d + 2.0 * rho * s1 * s2 * int_b + s2 * s2 * int_b2
    return out if out.ndim else float(out)


def bond_price_from_ode(r: float, t: float, tau: float, p: VasicekParams) -> float:
    """Bond price via numerical integration of the affine ODE system.

    Solves B' = a*B - 1 and f' = a*theta*B - sigma2^2*B^2/2 backwards from
    the terminal condition B(tau) = f(tau) = 0, then returns exp(f - r*B).
    Exists purely to cross-check `bond_price` by an independent route.
    """
    from scipy.integrate import solve_ivp

    _check_order(t, tau)
    if t == tau:
        return 1.0

    def rhs(s, y):
        B, _ = y
        return [p.a * B - 1.0, p.a * p.theta * B - 0.5 * p.sigma2**2 * B * B]

    sol = solve_ivp(rhs, (tau, t), [0.0, 0.0], rtol=1e-12, atol=1e-14,
                    dense_output=False, method="RK45")
    if not sol.success:
        raise RuntimeError(f"bond ODE integration failed: {sol.message}")
    B_end, f_end = sol.y[0, -1], sol.y[1, -1]
    return float(np.exp(f_end - r * B_end))
