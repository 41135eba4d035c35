"""Closed-form quantities for the Vasicek short-rate model.

The short rate follows dr = a*(theta - r)*dt + sigma2*dW2 while the stock
follows dS/S = r*dt + sigma1*dW1 with Cov(dW1, dW2) = rho*dt.  Everything the
pricing layer needs from the rate model reduces to two closed forms:

* the zero-coupon bond price P(r, t; tau) = A(t) * exp(-r * B(t)), and
* the integral over a time interval of the instantaneous variance of the
  forward price S/P (the number that drives the kernels).

All functions are pure and each is written once, on Python floats with
`math`: they take floats (a numpy scalar is converted once) and return
floats.  The Monte Carlo oracle maps them over its time grid.  This is
production code only: the references that check it (the bond by its ODE,
the variance rate itself) are in `quad_oracle`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp() overflows above this
_BOND_INPUTS = ("theta", "sigma2")  # with a, the parameters of the bond price

# Taylor coefficients in x = a u, highest power first, of B and its scaled
# integrals (`_b`, `_b_integrals`):
#   h(x) = (1 - e^-x) / x                   = sum_n (-x)^n / (n+1)!
#   f(x) = (e^-x - 1 + x) / x^2             = sum_n (-x)^n / (n+2)!
#   g(x) = (2x - 3 + 4 e^-x - e^-2x) / (2 x^3) = sum_n (-x)^n (2^(n+2) - 2) / (n+3)!
# Below |x| = 1, 22 terms leave a tail under 1e-17 relative.
_H_SERIES = tuple((-1) ** n / math.factorial(n + 1) for n in reversed(range(22)))
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


def _check_order(t: float, tau: float) -> None:
    if t > tau:
        raise ValueError(f"valuation time t={t} exceeds maturity tau={tau}")


def _finite(quantity: str, tau: float, a: float, f, *args, p=None, names=()) -> float:
    """f(*args), or a ValueError where it overflows (OverflowError from `math`,
    inf or NaN from float arithmetic): an explosive model where e^{-a tau}
    itself passes the float range, and otherwise a float overflow at a and
    the fields ``names`` of ``p``."""
    try:
        out = f(*args)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        inputs = "".join(f", {n}={getattr(p, n)!r}" for n in names)
        explodes = -a * tau > _LOG_FLOAT_MAX
        cause = (f"the rate model with a={a!r} explodes over this horizon" if explodes
                 else f"a float overflows at a={a!r}{inputs}")
        raise ValueError(f"{quantity} over maturity {tau!r} is not finite: {cause}")
    return out


def _horner(coeffs, x: float) -> float:
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def _b(u: float, a: float) -> float:
    """B(u) = (1 - e^{-a u}) / a = u h(a u), by its series below |a u| = 1."""
    x = a * u
    if abs(x) < 1.0:
        return u * _horner(_H_SERIES, x)
    return -math.expm1(-x) / a


def _b_integrals(u: float, a: float) -> tuple[float, float]:
    """(int_0^u B ds, int_0^u B^2 ds) for B(s) = (1 - e^{-a s}) / a.

    They are u^2 f(a u) and u^3 g(a u) with f, g as at `_F_SERIES`.  The
    closed forms of f and g cancel to a relative error of about
    eps / |a u|^3 for small |a u|, so their series serve below |a u| = 1:
    the switch is on a u, not on a alone, because a small a over a long
    horizon is far from the series' range.  Either way the relative error
    is a few eps.  In the closed form, e^-2x - 1 = (e^-x - 1)(e^-x + 1)
    turns the numerator of g into 2x + 2 (e^-x - 1) - (e^-x - 1)^2.
    """
    x = a * u
    if abs(x) < 1.0:
        f, g = _horner(_F_SERIES, x), _horner(_G_SERIES, x)
    else:
        em1 = math.expm1(-x)
        f, g = (em1 + x) / (x * x), (2.0 * x + em1 * (2.0 - em1)) / (2.0 * x * x * x)
    return u * u * f, u * u * u * g


def b_factor(t: float, tau: float, a: float) -> float:
    """Bond duration factor B(t) = (1 - exp(-a*(tau - t))) / a.

    Parameters
    ----------
    t : float
        Valuation time, must satisfy t <= tau.
    tau : float
        Maturity time.
    a : float
        Mean-reversion speed.  Below |a*(tau - t)| = 1 the Taylor series
        of B replaces the closed form, which cancels there.
    """
    t, tau = float(t), float(tau)
    _check_order(t, tau)
    return _finite("bond factor B", tau, a, _b, tau - t, a)


def _log_bond(r: float, t: float, tau: float, p: VasicekParams) -> float:
    _check_order(t, tau)
    u, a = tau - t, p.a
    c2, c1 = 0.5 * p.sigma2 * p.sigma2, p.theta * a
    # a term with a zero coefficient adds 0, not 0 * inf: its integral may
    # pass the float range where the bond does not, and is not evaluated
    int_b, int_b2 = _b_integrals(u, a) if c1 or c2 else (0.0, 0.0)
    return ((c2 * int_b2 if c2 else 0.0) - (c1 * int_b if c1 else 0.0)
            - (r * _b(u, a) if r else 0.0))


def log_bond_price(r: float, t: float, tau: float, p: VasicekParams) -> float:
    """Log of the zero-coupon bond price, log A(t) - r * B(t).

    log A = -theta * int_0^u (1 - e^{-a s}) ds + sigma2^2 / 2 * int_0^u B^2 ds
    with u = tau - t, the affine solution of the bond PDE with P(tau) = 1;
    the first integral is a * int_0^u B ds (`_b_integrals`).  Parameters
    are those of `bond_price`.  For a negative mean-reversion speed over a
    long horizon the bond price itself overflows while its log is still
    finite; past that, where the log is not finite either, this raises a
    ValueError naming a (for a >= 0 also theta and sigma2).
    """
    return _finite("log bond price", tau, p.a, _log_bond, float(r), float(t), float(tau), p,
                   p=p, names=_BOND_INPUTS)


def bond_price(r: float, t: float, tau: float, p: VasicekParams) -> float:
    """Zero-coupon bond price P(r, t; tau) = A(t) * exp(-r * B(t)).

    Parameters
    ----------
    r : float
        Short rate at time t.
    t : float
        Valuation time, t <= tau.
    tau : float
        Maturity; P(r, tau; tau) = 1 for every r.
    p : VasicekParams
        Model parameters (only a, theta, sigma2 enter).

    Raises ValueError naming a where the price is not finite: an explosive
    model (a < 0) over a long horizon, or, naming theta and sigma2 too, a
    theta or sigma2 that overflows the float range.  A price below the
    float range underflows to 0.
    """
    return _finite("bond price", tau, p.a, math.exp, log_bond_price(r, t, tau, p),
                   p=p, names=_BOND_INPUTS)


def _variance(t0: float, t1: float, tau: float, p: VasicekParams) -> float:
    a, s1, s2, rho = p.a, p.sigma1, p.sigma2, p.rho
    d = t1 - t0
    if not s2:  # both rate terms add 0, however large their integrals
        return s1 * s1 * d
    # B(u1 + s) = B(u1) + e^{-a u1} B(s) on [u1, u0], u = tau - t, so both
    # integrals are sums of non-negative terms, free of cancellation
    u1 = tau - t1
    b1, e1 = _b(u1, a), math.exp(-a * u1)
    int_b, int_b2 = _b_integrals(d, a)
    int_b2 = d * b1 * b1 + e1 * (2.0 * b1 * int_b + e1 * int_b2)
    int_b = d * b1 + e1 * int_b
    return s1 * s1 * d + 2.0 * rho * s1 * s2 * int_b + s2 * s2 * int_b2


def integrated_variance(t0: float, t1: float, tau: float, p: VasicekParams) -> float:
    """Integral of `quad_oracle.effective_vol_sq` over [t0, t1], in closed form.

    For (t0, t1) = (0, tau) this is
    (s1^2 + 2*rho*s1*s2/a + s2^2/a^2)*tau
    - (2*s2/a^2)*(rho*s1 + s2/a)*(1 - exp(-a*tau))
    + s2^2/(2*a^3)*(1 - exp(-2*a*tau)),
    evaluated as s1^2 d + 2 rho s1 s2 int B + s2^2 int B^2 with the
    integrals of `_b_integrals`, which switch to series where |a| d is
    small (d = t1 - t0); a sub-interval shifts them by
    B(u1 + s) = B(u1) + e^{-a u1} B(s), u1 = tau - t1.  This total variance
    is the only statistic of the rate path that the pricing kernels consume.
    Raises ValueError naming a where it is not finite (an explosive model,
    or, naming sigma1, sigma2 and rho too, a volatility past the float range).

    Parameters
    ----------
    t0, t1 : float
        Interval bounds with t0 <= t1 <= tau.
    """
    t0, t1, tau = float(t0), float(t1), float(tau)
    if t0 > t1:
        raise ValueError("interval bounds must satisfy t0 <= t1")
    _check_order(t1, tau)
    return _finite("integrated variance", tau, p.a, _variance, t0, t1, tau, p,
                   p=p, names=("sigma1", "sigma2", "rho"))
