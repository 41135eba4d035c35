"""Option valuation in closed form on the log forward price.

The valuation recipe for a knock-out call struck at K:

1. map spot to the log forward x = ln(S / P(r, t; tau)),
2. accumulate the forward variance v = integrated_variance(t, tau),
3. value the knock-out call on the driftless forward, in forward units,
4. multiply by the bond price P to return from forward to cash units.

Steps 1 and 2 are the float closed forms of `model.py`, a few microseconds
each, so every price evaluates them afresh: `price_curve` prices each spot
by `price`, and nothing is cached between calls.

Step 3 is the integral of an absorbing transition kernel against the payoff
(e^{x'} - K), and one scalar helper, `knockout_call_forward`, does it for
both products.  The kernel of the well has two exact expansions (Kunitomo
and Ikeda 1992), and each integrates against the payoff in closed form:

* images: a signed sum of Gaussians, each a pair of normal masses; it
  converges fast at short variance;
* sines: the eigenmodes of the well, each an elementary integral; it
  converges fast at long variance.

`series_counts` bounds both term counts in closed form, from v, the width
L = u - l and the payoff scale e^u + K, and the helper sums whichever series
is shorter: a few terms at any variance.  The up-and-out (l = -inf) is the
images' single-reflection case, the reflection formula.

This is the production path, and with `model.py` it imports no other module
of the package, and no numpy outside `price_curve`.  The kernels of
`kernels.py`, summed pointwise with their own term counts, and the
adaptive quadrature of `quadrature.py` do not run on it: `quad_oracle`
integrates the kernels numerically, and `verify` and the tests hold the
closed forms to that independent result and to the textbook constant-rate
formula `quad_oracle.up_and_out_call_constant_rate`.  The oracles import
from here, never the reverse.

Barriers are levels on the forward price, which is where the knock-out
condition of the underlying derivation lives; a spot is knocked out at
inception exactly when its log forward is outside the barrier set.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import (_LOG_FLOAT_MAX, VasicekParams, _require_finite, bond_price,
                    integrated_variance)

if TYPE_CHECKING:  # annotations only: numpy loads with the first `price_curve`
    import numpy as np

SINGLE_UP = "single_up"
DOUBLE = "double"

_SQRT_HALF = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LN2 = math.log(2.0)
_LN_4_OVER_PI = math.log(4.0 / math.pi)
_PI2_HALF = 0.5 * math.pi**2
_EPS = sys.float_info.epsilon
# Truncation target of both corridor series, as a share of the forward e^x.
_SERIES_TOL = 1e-16
_LN_SERIES_TOL = -math.log(_SERIES_TOL)


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
                raise ValueError(f"log_barriers of a double barrier must be (lower, upper) "
                                 f"with lower < upper, got {self.log_barriers}")
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


def _discount_and_log_forward(state: MarketState, spec: OptionSpec,
                              p: VasicekParams) -> tuple[float, float]:
    """(P, x): the bond price P(r, t; tau) and the log forward x = ln(S / P)."""
    disc = bond_price(state.rate, state.time, spec.maturity, p)
    if not state.spot < disc * sys.float_info.max:  # S / P overflows, or P is 0
        raise ValueError(
            f"bond price {disc!r} over maturity {spec.maturity!r} underflows: the forward "
            f"price spot / bond is past the float range for the rate model with "
            f"a={p.a!r}, theta={p.theta!r}, sigma2={p.sigma2!r}")
    return disc, math.log(state.spot / disc)


def log_forward(state: MarketState, spec: OptionSpec, p: VasicekParams) -> float:
    """Log forward price x = ln(S / P(r, t; tau)).

    Raises ValueError, naming ``a`` and the maturity, when the bond price
    is not finite (an explosive model, ``a < 0`` over a long horizon) or
    underflows to zero.
    """
    return _discount_and_log_forward(state, spec, p)[1]


def _log_upper_tail(z: float) -> float:
    """ln P(Z > z) for a standard normal Z and z >= 0, finite for every finite z.

    Below z = 30 the complementary error function is a normal float; beyond
    it the asymptotic series of the Mills ratio, cut after the z^-12 term,
    is exact to 3e-16 relative.
    """
    if z < 30.0:
        return math.log(0.5 * math.erfc(z * _SQRT_HALF))
    w = 1.0 / (z * z)
    mills = 1.0 - w * (1.0 - 3.0 * w * (1.0 - 5.0 * w * (1.0 - 7.0 * w * (
        1.0 - 9.0 * w * (1.0 - 11.0 * w)))))
    return -0.5 * z * z - math.log(z) - _LOG_SQRT_2PI + math.log(mills)


def _weighted_mass(log_w: float, lo: float, hi: float) -> float:
    """e^{log_w} * P(lo < Z < hi) for a standard normal Z, with lo < hi.

    A mass in one tail is the difference of two upper tails.  Past 30
    standard deviations, or under a weight e^{log_w} that is no float, it
    is taken in logs, so a large weight times a tail too small for a float
    neither overflows nor reads as 0 * inf.  A tail whose log is past the
    float range too (a corridor's reflection across a wall at -1e200) is 0.
    """
    if hi <= 0.0:
        lo, hi = -hi, -lo
    if lo < 0.0:
        return math.exp(log_w) * 0.5 * (math.erfc(-hi * _SQRT_HALF) - math.erfc(-lo * _SQRT_HALF))
    if lo < 30.0 and log_w < 700.0:
        return math.exp(log_w) * 0.5 * (math.erfc(lo * _SQRT_HALF) - math.erfc(hi * _SQRT_HALF))
    a = _log_upper_tail(lo)
    if a == -math.inf:
        return 0.0
    return math.exp(log_w + a) * -math.expm1(_log_upper_tail(hi) - a)


def series_counts(x: float, strike: float, lower: float, upper: float,
                  v: float) -> tuple[float, float]:
    """A-priori term counts (images, sines) of `knockout_call_forward`.

    Each count truncates its series with a tail below _SERIES_TOL * e^x,
    bounded in closed form by the payoff scale S = e^u + K, the width
    L = u - l and the variance v:

    * images: every image whose centre lies (m + 1) L or more beyond the
      corridor is at most S/2 e^{-((m+1) L - v/2)^2 / 2v}, so m + 1 =
      ceil((t sqrt(v) + v/2) / L) groups suffice with t^2 = 2 ln(2 S /
      (tol e^x)), once L t >= sqrt(v) ln 2;
    * sines: mode n is at most 4/(n pi) S e^{(x-u)/2 - v/8 - c n^2}, with
      c = pi^2 v / 2L^2, so n = ceil(sqrt(T / c)) - 1 modes suffice with
      T = ln(4 S e^{-(x+u)/2} / (pi tol)) - v/8 - ln(1 - e^{-3c}).

    A count that the bound cannot give is inf.  Their product stays near
    2 ln(1/tol)/pi, so the smaller is a few terms at any variance.
    """
    log_scale = upper - x + math.log1p(math.exp(math.log(strike) - upper))  # ln(S / e^x)
    width = upper - lower
    sv = math.sqrt(v)
    t = math.sqrt(2.0 * (_LN2 + log_scale + _LN_SERIES_TOL))
    if width * t < _LN2 * sv:
        n_images = math.inf
    else:
        n_images = float(max(1, math.ceil((t * sv + 0.5 * v) / width)))
    c = _PI2_HALF * v / (width * width)
    if c == 0.0:
        n_sines = math.inf
    else:
        reach = (_LN_4_OVER_PI + log_scale - 0.5 * (upper - x) - 0.125 * v + _LN_SERIES_TOL
                 - math.log(-math.expm1(-3.0 * c)))
        modes = math.sqrt(max(reach, 0.0) / c)
        n_sines = max(1.0, math.ceil(modes) - 1.0) if modes < math.inf else math.inf
    return n_images, n_sines


def _image_sum(x: float, strike: float, lower: float, upper: float, v: float,
               groups: int) -> float:
    """The knock-out call by the method of images, over ``groups`` image groups.

    The drifted kernel absorbed at both walls is a signed sum of Gaussians
    e^g phi_v(y - m): the direct images at x + 2kL and the reflected ones at
    2u - x + 2kL, k in Z, with m their centres shifted by -v/2 and e^g the
    drift's weight.  Against (e^y - K) on the payoff window [lo, u], each
    is two normal masses:

        e^{g + m + v/2} P(N(m + v, v) in W) - K e^g P(N(m, v) in W).

    Group 0 holds the wall reflections R_0 (upper) and R_{-1} (lower),
    group 2k - 1 the direct pair A_{+-k}, and group 2j the reflections
    R_j and R_{-j-1}.  With no lower wall (l = -inf) only A_0 - R_0 is left:
    the reflection formula of the up-and-out.
    """
    sv = math.sqrt(v)
    lo = max(math.log(strike), lower)
    width = upper - lower

    def image(g, m):
        return (_weighted_mass(g + m + 0.5 * v, (lo - m - v) / sv, (upper - m - v) / sv)
                - strike * _weighted_mass(g, (lo - m) / sv, (upper - m) / sv))

    to_up, to_lo = upper - x, x - lower
    total = image(0.0, x - 0.5 * v)
    for group in range(groups):
        j = group // 2
        if group % 2:  # direct pair A_{+-k}, k = j + 1
            shift = (j + 1) * width
            total += image(-shift, x + 2.0 * shift - 0.5 * v)
            total += image(shift, x - 2.0 * shift - 0.5 * v)
        else:  # reflections R_j and R_{-j-1}
            shift = j * width if j else 0.0  # the width is inf for the up-and-out
            total -= image(-to_up - shift, upper + to_up + 2.0 * shift - 0.5 * v)
            if lower > -math.inf:
                total -= image(to_lo + shift, lower - to_lo - 2.0 * shift - 0.5 * v)
    return total


def _sine_sum(x: float, strike: float, lower: float, upper: float, v: float,
              modes: int) -> float:
    """The corridor call by the sine eigenmodes of the well, over ``modes`` modes.

    (2/L) e^{x/2 - v/8} sum_n e^{-p_n^2 v/2} sin(p_n (x - l)) [G(1/2) - K G(-1/2)]

    with p_n = n pi / L and G(alpha) the integral of e^{alpha y} sin(p_n (y - l))
    over [lo, u], lo = max(ln K, l), which is elementary.  The terms of a wide
    corridor grow like e^{u/2} and cancel; when the sum's rounding bound,
    4 eps sum_n |term_n|, exceeds 1e-10 of the value plus 1e-12, a
    ValueError names the upper wall rather than return a wrong price.
    """
    width = upper - lower
    lo = max(math.log(strike), lower)
    e_up, e_lo = math.exp(0.5 * upper), math.exp(0.5 * lo)
    k_up, k_lo = strike / e_up, strike / e_lo
    total = size = 0.0
    for n in range(1, modes + 1):
        p = math.pi * n / width
        s_lo, c_lo = math.sin(p * (lo - lower)), math.cos(p * (lo - lower))
        at_up = p * (e_up - k_up) if n % 2 else -p * (e_up - k_up)  # -p cos(n pi) (...)
        coeff = (at_up - 0.5 * s_lo * (e_lo + k_lo) + p * c_lo * (e_lo - k_lo)) / (p * p + 0.25)
        term = math.exp(-0.5 * v * p * p) * math.sin(p * (x - lower)) * coeff
        total += term
        size += abs(term)
    scale = 2.0 / width * math.exp(0.5 * x - 0.125 * v)
    value = scale * total
    rounding = 4.0 * _EPS * scale * size
    if not rounding <= 1e-10 * abs(value) + 1e-12:
        raise ValueError(
            f"log_barriers[1] = {upper!r}: the corridor's sine series loses its "
            f"accuracy (rounding bound {rounding:.3g} on a value of {value:.6g}); "
            f"the corridor is too wide for this series")
    return value


def knockout_call_forward(x: float, strike: float, lower: float, upper: float,
                          v: float) -> float:
    """Forward-units value of a call knocked out at the walls (lower, upper).

    The absorbed kernel integrated against the payoff (e^{x'} - K) over
    max(ln K, l) < x' < u, by the image or the sine series, whichever
    `series_counts` finds shorter; ties go to the images, which do not
    cancel.  ``lower`` is -inf for the up-and-out, which is the images'
    single-reflection case.  The caller has checked l < x < u, v > 0,
    max(ln K, l) < u and that e^u is a float.
    """
    if lower == -math.inf:  # one reflection, as `series_counts` would find
        return _image_sum(x, strike, lower, upper, v, 1)
    n_images, n_sines = series_counts(x, strike, lower, upper, v)
    if n_images <= n_sines:
        return _image_sum(x, strike, lower, upper, v, int(n_images))
    return _sine_sum(x, strike, lower, upper, v, int(n_sines))


def _price(state: MarketState, spec: OptionSpec, p: VasicekParams) -> PriceResult:
    """P times `knockout_call_forward` at the state's log forward, for either kind."""
    disc, x = _discount_and_log_forward(state, spec, p)
    lower, upper = spec.walls
    if not lower < x < upper:
        return PriceResult(0.0, knocked_out=True)
    if max(math.log(spec.strike), lower) >= upper:
        return PriceResult(0.0)
    if upper > _LOG_FLOAT_MAX:
        raise ValueError(
            f"log_barriers[{len(spec.log_barriers) - 1}] = {upper!r}: the barrier "
            f"level exp({upper!r}) overflows a float")
    v = integrated_variance(state.time, spec.maturity, spec.maturity, p)
    if v == 0.0:
        return PriceResult(disc * max(math.exp(x) - spec.strike, 0.0))
    return PriceResult(disc * knockout_call_forward(x, spec.strike, lower, upper, v))


def price_single_barrier(state: MarketState, spec: OptionSpec, p: VasicekParams) -> PriceResult:
    """Value an up-and-out call under stochastic rates.

    Returns P(r, t; tau) times `knockout_call_forward(x, K, -inf, B, v)`,
    the reflection formula for an up-and-out call on the zero-carry forward
    e^x with barrier e^B and total variance v accumulated over [t, tau].
    That is the integral of `barrier_kernel(x, x', v, B) * (e^{x'} - K)`
    over ln K < x' < B, which `quad_oracle.price_by_quadrature` evaluates
    numerically.

    A spot whose log forward is at or beyond the barrier prices to zero and
    is flagged as knocked out; a strike at or above the barrier leaves no
    payoff region and also prices to zero.
    """
    if spec.barrier_kind != SINGLE_UP:
        raise ValueError(f"expected a single_up option, got {spec.barrier_kind!r}")
    return _price(state, spec, p)


def price_double_barrier(state: MarketState, spec: OptionSpec, p: VasicekParams) -> PriceResult:
    """Value a knock-out call inside an absorbing corridor.

    Returns P times `knockout_call_forward(x, K, lower, upper, v)`: the
    integral of `double_barrier_kernel(x, x', v, lower, upper)` against
    (e^{x'} - K) over max(ln K, lower) < x' < upper, summed in closed form
    over the shorter of the image and the sine series.
    """
    if spec.barrier_kind != DOUBLE:
        raise ValueError(f"expected a double option, got {spec.barrier_kind!r}")
    return _price(state, spec, p)


def price(state: MarketState, spec: OptionSpec, p: VasicekParams) -> PriceResult:
    """Value a knock-out call of either kind.

    The one place that picks the pricer for ``spec.barrier_kind``:
    `price_single_barrier` or `price_double_barrier`, looked up when called.
    """
    fn = price_single_barrier if spec.barrier_kind == SINGLE_UP else price_double_barrier
    return fn(state, spec, p)


def price_curve(spots, spec: OptionSpec, p: VasicekParams) -> PriceCurve:
    """Price the option over a strictly increasing spot grid at t=0, r=r0.

    Each spot is priced by `price`.  Knocked-out spots price to zero.  A
    row that fails with a ValueError (an explosive model, a barrier level
    that overflows a float) is recorded in ``errors`` for that row, with
    the price set to NaN, and does not abort the rest of the curve; any
    other exception propagates.
    """
    import numpy as np

    spots = np.asarray(spots, dtype=float)
    if spots.size == 0:
        raise ValueError("spot grid must be non-empty")
    if np.any(np.diff(spots) <= 0):
        raise ValueError("spot grid must be strictly increasing")
    prices = np.empty_like(spots)
    errors: list = [None] * spots.size
    for i, s in enumerate(spots.tolist()):
        try:
            prices[i] = price(MarketState(spot=s, rate=p.r0), spec, p).price
        except ValueError as exc:  # per-row capture
            prices[i] = np.nan
            errors[i] = f"{type(exc).__name__}: {exc}"
    return PriceCurve(spots=spots, prices=prices, errors=tuple(errors),
                      params=p, option=spec)
