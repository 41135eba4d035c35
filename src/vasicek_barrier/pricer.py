"""Option valuation in closed form on the log forward price.

The valuation recipe for a knock-out call struck at K:

1. map spot to the log forward x = ln(S / P(r, t; tau)),
2. accumulate the forward variance v = integrated_variance(t, tau),
3. value the knock-out call on the driftless forward, in forward units,
4. multiply by the bond price P to return from forward to cash units.

Step 3 is the integral of an absorbing transition kernel against the payoff
(e^{x'} - K), and for both products that integral is elementary:

* up-and-out: the image kernel integrates to the reflection formula on a
  zero-carry forward with sigma*sqrt(T) replaced by sqrt(v), that is
  `up_and_out_call_constant_rate(e^x, K, e^B, rate=0, sigma=sqrt(v),
  maturity=1)`;
* corridor: each sine mode of the eigenmode kernel integrates against
  e^{x'/2} and e^{-x'/2} in closed form, so the price is a finite sum over
  the modes that `series_terms` keeps (`corridor_call_forward`).

This is the production path, and with `model.py` it imports no other module
of the package.  The kernels of `kernels.py` and the adaptive quadrature of
`quadrature.py` do not run on it: `quad_oracle` integrates the kernels
numerically, and `verify` and the tests hold the closed forms to that
independent result.  The oracles import from here, never the reverse.

Barriers are levels on the forward price, which is where the knock-out
condition of the underlying derivation lives; a spot is knocked out at
inception exactly when its log forward is outside the barrier set.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (VasicekParams, _require_finite, bond_price,
                    integrated_variance)

SINGLE_UP = "single_up"
DOUBLE = "double"

_SQRT_HALF = math.sqrt(0.5)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp() overflows above this
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class OptionSpec:
    """Contract terms of a knock-out call.

    ``log_barriers`` holds one level for an up-and-out option or the
    (lower, upper) pair for a corridor option, in log forward-price units.
    Every number is finite.
    """

    strike: float
    maturity: float
    barrier_kind: str
    log_barriers: tuple[float, ...]

    def __post_init__(self):
        _require_finite(strike=self.strike, maturity=self.maturity,
                        **{f"log_barriers[{i}]": b for i, b in enumerate(self.log_barriers)})
        if self.strike <= 0:
            raise ValueError(f"strike must be positive, got {self.strike}")
        if self.maturity <= 0:
            raise ValueError(f"maturity must be positive, got {self.maturity}")
        if self.barrier_kind == SINGLE_UP:
            if len(self.log_barriers) != 1:
                raise ValueError("single_up takes exactly one log-barrier level")
        elif self.barrier_kind == DOUBLE:
            if len(self.log_barriers) != 2 or not self.log_barriers[0] < self.log_barriers[1]:
                raise ValueError("double barrier needs levels (lower, upper) with lower < upper")
        else:
            raise ValueError(f"unknown barrier kind: {self.barrier_kind!r}")

    @property
    def walls(self) -> tuple[float, float]:
        """Knock-out levels (lower, upper) on the log forward; lower is -inf for the up-and-out."""
        if self.barrier_kind == SINGLE_UP:
            return -math.inf, self.log_barriers[0]
        lower, upper = self.log_barriers
        return lower, upper

    @classmethod
    def single_up(cls, strike: float, maturity: float, log_barrier: float) -> "OptionSpec":
        return cls(strike, maturity, SINGLE_UP, (log_barrier,))

    @classmethod
    def double(cls, strike: float, maturity: float, lower: float, upper: float) -> "OptionSpec":
        return cls(strike, maturity, DOUBLE, (lower, upper))


@dataclass(frozen=True)
class MarketState:
    """Spot, short rate and clock at valuation, all finite."""

    spot: float
    rate: float
    time: float = 0.0

    def __post_init__(self):
        _require_finite(spot=self.spot, rate=self.rate, time=self.time)
        if self.spot <= 0:
            raise ValueError(f"spot must be positive, got {self.spot}")


@dataclass(frozen=True)
class PriceResult:
    """Valuation output; ``knocked_out`` flags a spot outside the barriers."""

    price: float
    knocked_out: bool = False


@dataclass(frozen=True)
class PriceCurve:
    """Prices over a spot grid with the generating parameters attached."""

    spots: np.ndarray
    prices: np.ndarray
    errors: tuple
    params: VasicekParams
    option: OptionSpec


class _Valuation:
    """The spot-independent part of a valuation at one short rate and time.

    Holds the bond price P and, each computed on first use, the forward
    variance v and the corridor's mode count.  `price_curve` builds one per
    curve, so a curve evaluates each of them once rather than once per spot.
    """

    def __init__(self, spec: OptionSpec, p: VasicekParams, rate: float, time: float):
        self.spec, self.p, self.time = spec, p, time
        with np.errstate(over="ignore"):  # an overflow is reported by log_forward
            self.disc = bond_price(rate, time, spec.maturity, p)

    @cached_property
    def v(self) -> float:
        return integrated_variance(self.time, self.spec.maturity, self.spec.maturity, self.p)

    @cached_property
    def n_modes(self) -> int:
        lower, upper = self.spec.walls
        return series_terms(self.v, lower, upper)

    def log_forward(self, spot: float) -> float:
        if not 0.0 < self.disc < math.inf:
            raise ValueError(
                f"bond price {self.disc!r} over maturity {self.spec.maturity!r} is not a "
                f"positive finite number: the rate model with a={self.p.a!r} explodes "
                f"over this horizon")
        return math.log(spot / self.disc)

    def price(self, spot: float) -> PriceResult:
        spec = self.spec
        x = self.log_forward(spot)
        lower, upper = spec.walls
        if not lower < x < upper:
            return PriceResult(0.0, knocked_out=True)
        if max(math.log(spec.strike), lower) >= upper:
            return PriceResult(0.0)
        if upper > _LOG_FLOAT_MAX:
            raise ValueError(
                f"log_barriers[{len(spec.log_barriers) - 1}] = {upper!r}: the barrier "
                f"level exp({upper!r}) overflows a float")
        v = self.v
        if v == 0.0:
            return PriceResult(self.disc * max(math.exp(x) - spec.strike, 0.0))
        if lower == -math.inf:
            value = up_and_out_call_constant_rate(math.exp(x), spec.strike, math.exp(upper),
                                                  rate=0.0, sigma=math.sqrt(v), maturity=1.0)
        else:
            value = corridor_call_forward(x, spec.strike, v, lower, upper, self.n_modes)
        return PriceResult(self.disc * value)


def log_forward(state: MarketState, spec: OptionSpec, p: VasicekParams) -> float:
    """Log forward price x = ln(S / P(r, t; tau)).

    Raises ValueError, naming ``a`` and the maturity, when the bond price
    is not a positive finite number (an explosive model, ``a < 0`` over a
    long horizon).
    """
    return _Valuation(spec, p, state.rate, state.time).log_forward(state.spot)


def _norm_cdf(z: float) -> float:
    """Standard normal distribution function, accurate in both tails."""
    return 0.5 * math.erfc(-z * _SQRT_HALF)


def vanilla_call_forward(x: float, strike: float, v: float) -> float:
    """Forward-units value of a plain call on a driftless lognormal forward.

    e^x * N(d1) - K * N(d2) with d1 = (x - ln K + v/2)/sqrt(v); multiplying
    by the bond price gives the cash value.  Used as the barrier-free
    reference that knock-out prices must stay below.
    """
    if strike <= 0:
        raise ValueError("strike must be positive")
    if v < 0:
        raise ValueError("variance must be non-negative")
    if v == 0:
        return max(math.exp(x) - strike, 0.0)
    rv = math.sqrt(v)
    d1 = (x - math.log(strike) + 0.5 * v) / rv
    return math.exp(x) * _norm_cdf(d1) - strike * _norm_cdf(d1 - rv)


@dataclass(frozen=True)
class SeriesTruncation:
    """Truncation control for the double-barrier eigenmode series."""

    tol: float = 1e-12
    max_terms: int = 100_000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("truncation tolerance must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


class SeriesTruncationError(ValueError):
    """Raised when the eigenmode series cannot reach the requested tolerance.

    A ValueError: the corridor cannot be valued at these inputs, as for any
    other pricing error.
    """

    def __init__(self, message: str, achieved_bound: float):
        super().__init__(message)
        self.achieved_bound = achieved_bound


def series_terms(v: float, lower: float, upper: float,
                 trunc: SeriesTruncation = SeriesTruncation()) -> int:
    """Number of eigenmodes the corridor series keeps at variance v.

    Sets the mode count of `corridor_call_forward` and of the oracle kernel
    `kernels.double_barrier_kernel`.

    Returns the smallest n at which the geometric tail bound
    (2/L) * exp(-p_n^2 v / 2) / (1 - exp(-(2n+1) pi^2 v / (2 L^2)))
    drops below ``trunc.tol``.  Raises `SeriesTruncationError` when
    ``trunc.max_terms`` modes do not suffice.
    """
    if v <= 0:
        raise ValueError(f"accumulated variance must be positive, got {v}")
    width = upper - lower
    c = np.pi**2 * v / (2.0 * width**2)  # p_n^2 v/2 = c * n^2
    n = 0
    chunk = 1024
    while n < trunc.max_terms:
        hi = min(n + chunk, trunc.max_terms)
        ns = np.arange(n + 1, hi + 1, dtype=float)
        bounds = (2.0 / width) * np.exp(-c * ns * ns) / (-np.expm1(-(2.0 * ns + 1.0) * c))
        ok = np.nonzero(bounds < trunc.tol)[0]
        if ok.size:
            return int(ns[ok[0]])
        n = hi
    last = float((2.0 / width) * np.exp(-c * trunc.max_terms**2)
                 / (-np.expm1(-(2.0 * trunc.max_terms + 1.0) * c)))
    raise SeriesTruncationError(
        f"corridor series needs more than {trunc.max_terms} modes "
        f"(tail bound {last:.3e} > tol {trunc.tol:.3e})", achieved_bound=last)


def corridor_call_forward(x: float, strike: float, v: float, lower: float, upper: float,
                          n_modes: int) -> float:
    """Forward-units value of a call knocked out at either wall of a corridor.

    The eigenmode kernel of `double_barrier_kernel` integrated against the
    payoff, mode by mode and in closed form:

        (2/L) e^{x/2 - v/8} sum_n e^{-p_n^2 v/2} sin(p_n (x - l)) [G(1/2) - K G(-1/2)]

    with L = u - l, p_n = n pi / L and

        G(alpha) = int_lo^u e^{alpha y} sin(p_n (y - l)) dy
                 = [e^{alpha y} (alpha sin(p_n (y - l)) - p_n cos(p_n (y - l)))
                    / (alpha^2 + p_n^2)] from lo = max(ln K, l) to u,

    where at y = u the sine is 0 and the cosine (-1)^n.  ``n_modes`` is the
    mode count of `series_terms`; the caller has checked l < x < u.

    A wide corridor's terms grow like e^{u/2} and cancel in the sum.  The
    sum's rounding error is bounded by about 4 eps sum_n |term_n|; when that
    bound exceeds 1e-10 of the value plus 1e-12, a ValueError names the
    upper wall instead of returning a wrong price.
    """
    width = upper - lower
    n = np.arange(1, n_modes + 1)
    pn = np.pi * n / width
    lo = max(math.log(strike), lower)
    sin_lo = np.sin(pn * (lo - lower))
    cos_lo = np.cos(pn * (lo - lower))
    cos_up = np.where(n % 2 == 1, -1.0, 1.0)

    def g(alpha):
        at_up = -math.exp(alpha * upper) * pn * cos_up
        at_lo = math.exp(alpha * lo) * (alpha * sin_lo - pn * cos_lo)
        return (at_up - at_lo) / (alpha * alpha + pn * pn)

    modes = np.exp(-0.5 * v * pn * pn) * np.sin(pn * (x - lower))
    coeffs = g(0.5) - strike * g(-0.5)
    scale = 2.0 / width * math.exp(0.5 * x - v / 8.0)
    value = scale * float(modes @ coeffs)
    rounding = 4.0 * _EPS * scale * float(np.abs(modes) @ np.abs(coeffs))
    if not rounding <= 1e-10 * abs(value) + 1e-12:
        raise ValueError(
            f"log_barriers[1] = {upper!r}: the corridor's sine series loses its "
            f"accuracy (rounding bound {rounding:.3g} on a value of {value:.6g}); "
            f"the corridor is too wide for this series")
    return value


def price_single_barrier(state: MarketState, spec: OptionSpec, p: VasicekParams, *,
                         terms: _Valuation | None = None) -> PriceResult:
    """Value an up-and-out call under stochastic rates.

    Returns P(r, t; tau) times the reflection formula for an up-and-out
    call on the zero-carry forward e^x with barrier e^B and total variance
    v accumulated over [t, tau]: `up_and_out_call_constant_rate(e^x, K,
    e^B, rate=0, sigma=sqrt(v), maturity=1)`.  That is the integral of
    `barrier_kernel(x, x', v, B) * (e^{x'} - K)` over ln K < x' < B, which
    `quad_oracle.price_by_quadrature` evaluates numerically.

    A spot whose log forward is at or beyond the barrier prices to zero and
    is flagged as knocked out; a strike at or above the barrier leaves no
    payoff region and also prices to zero.  ``terms``, the spot-independent
    part at the state's rate and time, is passed by `price_curve`; other
    callers leave it unset.
    """
    if spec.barrier_kind != SINGLE_UP:
        raise ValueError(f"expected a single_up option, got {spec.barrier_kind!r}")
    if terms is None:
        terms = _Valuation(spec, p, state.rate, state.time)
    return terms.price(state.spot)


def price_double_barrier(state: MarketState, spec: OptionSpec, p: VasicekParams, *,
                         terms: _Valuation | None = None) -> PriceResult:
    """Value a knock-out call inside an absorbing corridor.

    Returns P times `corridor_call_forward`: the integral of
    `double_barrier_kernel(x, x', v, lower, upper)` against (e^{x'} - K)
    over max(ln K, lower) < x' < upper, summed in closed form over the
    modes that `series_terms` keeps.  ``terms`` is as for
    `price_single_barrier`.
    """
    if spec.barrier_kind != DOUBLE:
        raise ValueError(f"expected a double option, got {spec.barrier_kind!r}")
    if terms is None:
        terms = _Valuation(spec, p, state.rate, state.time)
    return terms.price(state.spot)


def price(state: MarketState, spec: OptionSpec, p: VasicekParams, *,
          terms: _Valuation | None = None) -> PriceResult:
    """Value a knock-out call of either kind.

    The one place that picks the pricer for ``spec.barrier_kind``:
    `price_single_barrier` or `price_double_barrier`, looked up when called.
    """
    fn = price_single_barrier if spec.barrier_kind == SINGLE_UP else price_double_barrier
    return fn(state, spec, p, terms=terms)


def price_curve(spots, spec: OptionSpec, p: VasicekParams) -> PriceCurve:
    """Price the option over a strictly increasing spot grid at t=0, r=r0.

    The bond price, the variance and the corridor's mode count do not
    depend on spot and are computed once for the curve.  Knocked-out spots
    price to zero.  A row that fails with a ValueError (a bad spot, an
    explosive model, a corridor series past its mode budget) is recorded in
    ``errors`` for that row, with the price set to NaN, and does not abort
    the rest of the curve; any other exception propagates.
    """
    spots = np.asarray(spots, dtype=float)
    if spots.size == 0:
        raise ValueError("spot grid must be non-empty")
    if np.any(np.diff(spots) <= 0):
        raise ValueError("spot grid must be strictly increasing")
    terms = _Valuation(spec, p, p.r0, 0.0)
    prices = np.empty_like(spots)
    errors: list = [None] * spots.size
    for i, s in enumerate(spots):
        try:
            prices[i] = price(MarketState(spot=float(s), rate=p.r0), spec, p, terms=terms).price
        except ValueError as exc:  # per-row capture
            prices[i] = np.nan
            errors[i] = f"{type(exc).__name__}: {exc}"
    return PriceCurve(spots=spots, prices=prices, errors=tuple(errors),
                      params=p, option=spec)


def up_and_out_call_constant_rate(spot: float, strike: float, barrier: float,
                                  rate: float, sigma: float, maturity: float,
                                  dividend_yield: float = 0.0) -> float:
    """Closed-form up-and-out call under a constant rate (spot-monitored).

    Standard reflection formula in terms of normal CDFs.  With
    ``dividend_yield == rate`` the carry is zero, which prices a barrier
    option on a driftless forward: that is the constant-rate limit of the
    stochastic-rate pricer when called with the forward as "spot".

    Parameters
    ----------
    spot, strike, barrier : float
        Price-units inputs; requires strike < barrier for a non-empty payoff
        region, else the value is 0.  A spot at or above the barrier is
        knocked out.
    rate : float
        Continuously compounded discount rate.
    sigma : float
        Lognormal volatility.
    maturity : float
        Years to expiry.
    dividend_yield : float
        Continuous yield; the risk-neutral drift is rate - dividend_yield.
    """
    if spot <= 0 or strike <= 0 or barrier <= 0:
        raise ValueError("spot, strike and barrier must be positive")
    if maturity <= 0 or sigma <= 0:
        raise ValueError("maturity and sigma must be positive")
    if spot >= barrier or strike >= barrier:
        return 0.0
    b = rate - dividend_yield
    srt = sigma * math.sqrt(maturity)
    mu = (b - 0.5 * sigma * sigma) / (sigma * sigma)
    x1 = math.log(spot / strike) / srt + (1.0 + mu) * srt
    x2 = math.log(spot / barrier) / srt + (1.0 + mu) * srt
    y1 = math.log(barrier * barrier / (spot * strike)) / srt + (1.0 + mu) * srt
    y2 = math.log(barrier / spot) / srt + (1.0 + mu) * srt
    df = math.exp(-rate * maturity)
    gf = math.exp((b - rate) * maturity)
    hs = barrier / spot
    term_a = spot * gf * _norm_cdf(x1) - strike * df * _norm_cdf(x1 - srt)
    term_b = spot * gf * _norm_cdf(x2) - strike * df * _norm_cdf(x2 - srt)
    term_c = spot * gf * hs ** (2.0 * (mu + 1.0)) * _norm_cdf(-y1) \
        - strike * df * hs ** (2.0 * mu) * _norm_cdf(-y1 + srt)
    term_d = spot * gf * hs ** (2.0 * (mu + 1.0)) * _norm_cdf(-y2) \
        - strike * df * hs ** (2.0 * mu) * _norm_cdf(-y2 + srt)
    return max(term_a - term_b + term_c - term_d, 0.0)
