"""Monte Carlo verification engines for bonds and knock-out options.

Two independent estimators exist for every option price:

* `price_barrier_mc` simulates the log forward alone.  Under the bond
  numeraire the forward is driftless with per-step variance given exactly by
  `integrated_variance`, so each step is an exact Gaussian draw with no
  discretization bias in the terminal law.
* `price_barrier_mc_two_factor` simulates (ln S, r) jointly under the cash
  measure: Euler for ln S, exact Ornstein-Uhlenbeck transitions for r,
  correlated increments, explicit path discounting.  It exists to check the
  numeraire-change reasoning behind the first estimator.

Both, and the bond estimator `bond_mc`, run on one block loop, `_simulate`.
Each estimator supplies only its path builder: the forward, the (ln S, r)
pair with its path discount, or the OU rate paths.  The loop owns the rest:
the per-block streams, the buffers, the knock monitor (`_Walls.knock`), the
payoff (`_payoff_stats`) and the reduction.

Barrier monitoring is either ``discrete`` (grid points only) or
``bridge_corrected``.  Both knock a path out when a grid point touches a
wall.  The bridge correction then weights each surviving path's payoff by
its survival probability between grid points, prod_j (1 - p_j) with p_j the
Brownian-bridge crossing probability of step j; for the corridor, 1 - p_j is
the reflection series (Glasserman 2004, §6.4) over images |k| <= 1 +
sqrt(375 v)/L at the largest step variance v, beyond which every term
underflows, and exactly 0 where the lowest eigenmode bounds it below 2^-57
(`_corridor_stay_prob_into`).  This is unbiased, draws no uniforms and has
a lower variance than knocking out with probability p_j.  p_j is evaluated
only on steps near a wall (`_weigh_near_walls`); on every other step
1 - p_j rounds to exactly 1.0.

Antithetic pairs: a block of m paths draws normals for its first
h = ceil(m/2) paths only, and path h + i is the antithetic partner of path
i, the path of its normals negated (the two-factor estimator negates both
of its normal sets).  Every builder is affine in its normals, so that
partner is the reflection 2 x0 - x_i about the zero-noise path x0:
`_simulate` builds x0 once per call and writes rows h.. of each block as
reflections, so the builders do their per-step arithmetic on the drawn rows
alone.  The mean is taken over all paths; the standard error over units,
each pair (i, h + i) one unit and the unpaired row h - 1 of an odd block a
unit of its own (`_payoff_stats`, `_reduce`).  With only pairs it is the
sample standard deviation of the pair means over the square root of the
number of pairs.  Pairs are unbiased and halve the draws (Glasserman 2004,
§4.2).

Determinism contract: paths are generated in fixed blocks of 2**11 using the
SFC64 generator keyed by (seed, block index).  Each block draws only
normals, for its first h rows, laid out path-major, so the random numbers
consumed by (path i, step j) depend only on the seed; row h + i is a
function of row i and the zero-noise path.  Each path's weight is a
function of its own path.  Blocks run on one thread per usable core, at
most one per block (`_workers`).  Each block's partial sums are kept by
block index and combined in block order with pairwise summation, so
estimates are bit-identical across runs and across thread counts for
identical (seed, n_paths, n_steps).

The inner loops write into buffers that each thread allocates once; at the
default resolution a path array is 8 MB (2**11 paths x 512 steps) and the
arrays of the drawn rows half that, and avoiding temporaries roughly
triples throughput.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import VasicekParams, b_factor, integrated_variance, log_bond_price
from .pricer import MarketState, OptionSpec, log_forward

BRIDGE = "bridge_corrected"
DISCRETE = "discrete"

_BLOCK = 1 << 11
# A bridge step is evaluated only where its crossing series can exceed
# exp(-_SCREEN): exp(-40) < 2**-57, so elsewhere 1 - p rounds to exactly 1.0.
_SCREEN = 40.0
# exp() underflows to zero below roughly -745; provably smaller series terms
# are skipped without changing the float64 sum.
_EXP_UNDERFLOW = -750.0
# A corridor step whose lowest eigenmode decays by exp(-_FLOOR_MODE) or more
# stays with probability below 2**-57 and is given exactly 0.
_FLOOR_MODE = 50.0
# Exponents are floored here before exp(): the result (~1e-304) is
# indistinguishable from zero for knock decisions and sums, and flooring keeps
# exp() off its near-underflow slow path, which is two orders of magnitude
# slower on this libm.
_EXP_FLOOR = -700.0
# The OU paths scale by decay^{+-j}, up to e^{|a| tau}; past e^700 the
# cumulative sum can leave the float range (max ~ e^709.8).
_OU_RANGE = 700.0


@dataclass(frozen=True)
class MCConfig:
    """Simulation scale and monitoring mode.

    ``n_steps`` is a per-year resolution: a horizon of tau years uses
    ceil(tau * n_steps) uniform steps.
    """

    n_paths: int = 1_000_000
    n_steps: int = 512
    seed: int = 0
    monitoring: str = BRIDGE

    def __post_init__(self):
        for name in ("n_paths", "n_steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be at least 1, got {self.n_paths}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")
        if self.monitoring not in (BRIDGE, DISCRETE):
            raise ValueError(f"unknown monitoring mode: {self.monitoring!r}")


@dataclass(frozen=True)
class MCEstimate:
    """Point estimate with its standard error and the scale that produced it."""

    mean: float
    std_error: float
    n_paths: int
    n_steps: int
    seed: int


def _block_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed % 2**64, index])))


def _blocks(n_paths: int):
    done = 0
    index = 0
    while done < n_paths:
        yield index, min(_BLOCK, n_paths - done)
        done += _BLOCK
        index += 1


def _drawn(m):
    """Rows of a block of m paths built from drawn normals: h = ceil(m/2)."""
    return m - m // 2


class _Zeros:
    """Stands in for a block's generator with every normal 0: a builder run
    on it returns the zero-noise path."""

    @staticmethod
    def standard_normal(*, out):
        out.fill(0.0)
        return out


def _reduce(stats: list, sizes: np.ndarray, n_steps: int, seed: int) -> MCEstimate:
    """Combine per-block `_payoff_stats` in block order into the estimate.

    The variance of the mean is the cluster estimator over the units of
    `_payoff_stats`: K / (K - 1) * sum_k (U_k - n_k mean)^2 / n^2 for K units
    of payoff total U_k and size n_k.  Each block's moments about its own
    mean are shifted to the overall mean (Chan, Golub & LeVeque 1983), which
    avoids the cancellation of a raw sum of squares.
    """
    sums, dev2, dev1 = (np.asarray(column) for column in zip(*stats))
    n = int(sizes.sum())
    mean = float(np.sum(sums)) / n
    shift = sums / sizes - mean
    size2 = 2 * sizes - sizes % 2  # sum_k n_k^2: pairs, and one single if m is odd
    dev = float(np.sum(dev2 + shift * (2.0 * dev1 + shift * size2)))
    units = int(np.sum(_drawn(sizes)))
    var = dev / (units - 1) * units / n / n if units > 1 else 0.0
    return MCEstimate(mean=mean, std_error=math.sqrt(var), n_paths=n,
                      n_steps=n_steps, seed=seed)


class _Buffers:
    """Block scratch arrays by name, each allocated once.

    ``buf(name, m)`` returns the first m rows of a (rows, n_steps + extra)
    array, and ``buf.column(name, m)`` the first m entries of a (rows,)
    vector: a block's paths.  ``buf.drawn(name, m)`` returns the first
    ceil(m/2) rows of a (ceil(rows/2), n_steps + extra) array: the normals
    and the work on the rows built from them.  A partial final block reuses
    the same memory.
    """

    def __init__(self, rows: int, n_steps: int, dtype=float):
        self._shape = (rows, n_steps)
        self._dtype = dtype
        self._arrays: dict[str, np.ndarray] = {}

    def _array(self, name: str, shape: tuple) -> np.ndarray:
        a = self._arrays.get(name)
        if a is None:
            a = self._arrays[name] = np.empty(shape, self._dtype)
        return a

    def __call__(self, name: str, m: int, extra: int = 0) -> np.ndarray:
        rows, n = self._shape
        return self._array(name, (rows, n + extra))[:m]

    def drawn(self, name: str, m: int, extra: int = 0) -> np.ndarray:
        """The first ceil(m/2) rows of an array with one row per drawn path."""
        rows, n = self._shape
        return self._array(name, (_drawn(rows), n + extra))[:_drawn(m)]

    def column(self, name: str, m: int) -> np.ndarray:
        """The first m entries of a vector with one entry per row."""
        return self._array(name, (self._shape[0],))[:m]


def _workers(n_blocks: int) -> int:
    """Threads for a run of n_blocks blocks: one per usable core, at most one per block."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # no affinity masks on this platform
        cores = os.cpu_count() or 1
    return min(cores, n_blocks)


def _simulate(cfg: MCConfig, n: int, build, strike: float,
              walls: _Walls | None = None) -> MCEstimate:
    """Run every block through ``build``, the knock monitor and the payoff.

    ``build(rng, buf, m)`` builds the first h = ceil(m/2) paths of a block
    of m from normals drawn from ``rng``, in buffers taken from ``buf``, and
    returns (x, log_disc): the paths x (m, k), whose last column is the log
    of the payoff variable at maturity, and the log discount factor, per
    path (m,) or common to all.  Paths pay
    (e^{x_T} - strike)^+ * e^log_disc, times their bridge survival weight,
    and 0 where ``walls`` knocks them out on the grid; with no walls nothing
    is monitored.

    Antithetic pairs by reflection: every builder is affine in its normals,
    so the path driven by the negated normals of path i is 2 x0 - x_i, where
    x0 is the path driven by zero normals.  ``build`` runs once on `_Zeros`,
    in extended precision, for x0, and each block's row h + i becomes
    2 x0 - row i, in x and in a per-path log discount (before its exp).
    The unpaired row h - 1 of an odd block stays as built.

    Float range: the block arithmetic runs with numpy's overflow and
    invalid-value warnings off, and a block whose payoff moments are not
    finite raises a ValueError instead, so a model whose paths leave the
    float range fails by name instead of returning NaN.

    Blocks run on `_workers` threads, each with its own buffers; numpy
    releases the interpreter lock inside its fills and ufuncs.  The
    per-block payoff moments are reduced in block order, so the estimate
    does not depend on the thread count.
    """
    from concurrent.futures import ThreadPoolExecutor  # ~11 ms, so not at import

    blocks = list(_blocks(cfg.n_paths))
    rows = min(_BLOCK, cfg.n_paths)
    local = threading.local()
    with np.errstate(over="ignore", invalid="ignore"):
        # 2 x0; extended precision keeps the rounding of x0's cumulative
        # sums, about 1e-13 over 512 steps, from biasing every reflected row
        twice = [np.asarray(2.0 * a[0], dtype=float) if np.ndim(a) else None
                 for a in build(_Zeros(), _Buffers(1, n, np.longdouble), 1)]

    def run(block):
        index, m = block
        if not hasattr(local, "buf"):
            local.buf = _Buffers(rows, n)
        with np.errstate(over="ignore", invalid="ignore"):
            x, log_disc = build(_block_rng(cfg.seed, index), local.buf, m)
            h = _drawn(m)
            for paths, mirror in zip((x, log_disc), twice):
                if mirror is not None:
                    np.subtract(mirror, paths[:m - h], out=paths[h:])
            scale = np.exp(log_disc)
            knocked = None
            if walls is not None:
                knocked, weight = walls.knock(x, local.buf, m)
                if weight is not None:
                    scale = np.multiply(weight, scale, out=weight)
            stats = _payoff_stats(x[:, -1], strike, knocked, scale)
        if not np.isfinite(stats).all():
            raise ValueError(f"the payoffs of block {index} are not finite (sum "
                             f"{float(stats[0])!r}): the simulated paths leave the float range")
        return stats

    pool = ThreadPoolExecutor(_workers(len(blocks)))
    try:
        stats = list(pool.map(run, blocks))
    finally:  # on an error or an interrupt, drop the blocks not yet started
        pool.shutdown(cancel_futures=True)
    return _reduce(stats, np.array([m for _, m in blocks]), n, cfg.seed)


def _ou_step_coeffs(dt: float, p: VasicekParams) -> tuple[float, float]:
    """(decay, shock sd) of the exact OU transition over one step."""
    z = 2.0 * p.a * dt
    var_scale = dt if z == 0.0 else dt * (-math.expm1(-z) / z)
    return math.exp(-p.a * dt), p.sigma2 * math.sqrt(var_scale)


def _ou_paths_into(r: np.ndarray, z: np.ndarray, work: np.ndarray, r0: float,
                   dt: float, p: VasicekParams) -> None:
    """Fill r (m, n+1) with exact OU paths driven by the normals z (m, n).

    Uses r_j = theta + decay^j * (r0 - theta + shock * sum_{k<j} decay^{-k-1} z_k),
    which turns the step recursion into one cumulative sum.  ``work`` is an
    (m, n) scratch buffer; z is left untouched.  decay^{+-n} = e^{-+a tau}
    must stay in the float range, so |a| tau past _OU_RANGE raises a
    ValueError naming a.
    """
    n = z.shape[1]
    if abs(p.a) * dt * n > _OU_RANGE:
        raise ValueError(f"a={p.a!r} over {dt * n:g} years: the OU paths need "
                         f"e^(|a| tau) = e^{abs(p.a) * dt * n:.4g}, past the float "
                         f"range (|a| tau <= {_OU_RANGE:g})")
    decay, shock = _ou_step_coeffs(dt, p)
    j = np.arange(1, n + 1)
    np.multiply(z, decay**(-j), out=work)
    np.cumsum(work, axis=1, out=work)
    np.multiply(work, shock * decay**j, out=work)
    r[:, 0] = r0
    np.add(work, p.theta + decay**j * (r0 - p.theta), out=r[:, 1:])


def _log_discount_into(out: np.ndarray, r: np.ndarray, dt: float) -> None:
    """Fill out with -integral of r dt per path, trapezoidal rule over the grid."""
    r[:, 1:-1].sum(axis=1, out=out)
    out += 0.5 * (r[:, 0] + r[:, -1])
    out *= -dt


def bond_mc(r0: float, tau: float, p: VasicekParams, cfg: MCConfig) -> MCEstimate:
    """Estimate the bond price E[exp(-int_0^tau r dt)] by simulation.

    Uses the exact OU transition per step and trapezoidal accumulation of
    the rate integral.  The bond is the block loop's payoff struck at zero
    on the log discount, a one-column path, with no barrier.
    """
    n = math.ceil(tau * cfg.n_steps)
    dt = tau / n

    def build(rng, buf, m):
        z, r, work = buf.drawn("z", m), buf.drawn("r", m, 1), buf.drawn("work", m)
        log_disc = buf.column("log_disc", m)
        rng.standard_normal(out=z)
        _ou_paths_into(r, z, work, r0, dt, p)
        _log_discount_into(log_disc[:z.shape[0]], r, dt)
        return log_disc[:, None], 0.0
    return _simulate(cfg, n, build, 0.0)


def _weigh_near_walls(x, gap, knocked, inv_v, w, dist, stay):
    """Fill w with each path's bridge survival weight: 0 if knocked, else prod_j stay_j.

    ``stay(left, right, inv_v)`` returns 1 - p_j of the steps it is given,
    as 1-D arrays.  It is called only on the steps near a wall.  A step
    whose endpoints lie at distances a, b from the nearer wall (``dist``)
    has every term of its crossing series at most exp(-2 a b / v); below
    exp(-_SCREEN) its 1 - p_j rounds to exactly 1.0, so it is skipped.
    Rows whose closest approach ``gap`` to a wall, over every point, is at
    least sqrt(_SCREEN/2 * max v) hold no other step.
    """
    np.subtract(1.0, knocked, out=w)
    reach = math.sqrt(0.5 * _SCREEN / float(inv_v.min()))
    rows = np.flatnonzero(~knocked & (gap < reach))
    near = x[rows]
    a = dist(near)
    i, j = np.nonzero(a[:, :-1] * a[:, 1:] * inv_v < 0.5 * _SCREEN)
    if i.size:
        factors = stay(near[i, j], near[i, j + 1], inv_v[j])
        rows = rows[i]  # one entry per step, in row order
        starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
        w[rows[starts]] *= np.multiply.reduceat(factors, starts)


def _single_bridge_knockout(x, upper, inv_v, w):
    """Grid knock mask for an upper barrier; the bridge survival weights go to w.

    w gets prod_j (1 - p_j) per path, where p_j = exp(-2 (B - x_j)(B - x_{j+1}) / v_j)
    is the Brownian-bridge crossing probability of step j, and 0 on the paths
    knocked out on the grid (`_weigh_near_walls`).
    """
    top = x[:, 1:].max(axis=1)
    knocked = top >= upper

    def stay(left, right, iv):
        t = (upper - left) * (upper - right) * (-2.0 * iv)
        np.clip(t, _EXP_FLOOR, 0.0, out=t)
        np.exp(t, out=t)
        return np.subtract(1.0, t, out=t)
    _weigh_near_walls(x, upper - np.maximum(top, x[:, 0]), knocked, inv_v, w,
                      lambda y: upper - y, stay)
    return knocked


def _corridor_stay_prob_into(acc, left, right, lower, upper, inv_v):
    """Fill acc with the bridge stay probabilities of steps inside a corridor.

    The steps run from ``left`` to ``right`` with reciprocal variances
    ``inv_v``, all 1-D.  Reflection series over images |k| <= K:
    sum_k exp(-2 kL (kL + d)/v) - exp(-2 (kL + a)(kL + b)/v) with
    a, b the endpoint distances to the lower wall and d = b - a the step
    increment.  For endpoints inside the corridor both exponents of image k
    are at most -2 (|k| - 1)^2 L^2 / v, so every term beyond
    K = 1 + floor(sqrt(375 v) / L), at the largest v of the steps, lies
    below exp(-750) and is skipped without changing the float64 sum.

    A step whose stay probability is provably below 2^-57 gets exactly 0,
    as `_weigh_near_walls` gives a step far from both walls exactly 1.  The
    stay probability is the corridor heat kernel over the free one.  With
    c = pi^2 v / (2 L^2), |d| <= L and
    sum_{n>=1} exp(-n^2 c) <= exp(-c) / (1 - exp(-3c)), the lowest
    eigenmode bounds it by
        4 sqrt(c / pi) exp(pi^2 / (4c) - c) / (1 - exp(-3c)),
    which falls with c and is 3.2e-21 < 2^-57 at c = _FLOOR_MODE = 50.
    Steps at c >= 50 are floored, so the series serves only
    v < 100 L^2 / pi^2, which caps K at 62.

    Exponents are clipped at zero; the result is meaningful only where both
    endpoints lie inside (outside steps are handled by the grid check).
    """
    width = upper - lower
    v_floor = 2.0 * _FLOOR_MODE * width * width / np.pi**2
    vmax = 1.0 / float(np.min(inv_v))
    images = 1 + int(math.sqrt(-0.5 * _EXP_UNDERFLOW * min(vmax, v_floor)) / width)
    d = right - left
    t, t2 = np.empty_like(acc), np.empty_like(acc)
    acc.fill(0.0)
    for k in range(-images, images + 1):
        kl = k * width
        if k == 0:
            acc += 1.0
        else:
            np.add(d, kl, out=t)
            np.multiply(t, inv_v, out=t)
            np.multiply(t, -2.0 * kl, out=t)
            np.clip(t, _EXP_FLOOR, 0.0, out=t)
            np.exp(t, out=t)
            np.add(acc, t, out=acc)
        np.add(left, kl - lower, out=t)
        np.add(right, kl - lower, out=t2)
        np.multiply(t, t2, out=t)
        np.multiply(t, inv_v, out=t)
        np.multiply(t, -2.0, out=t)
        np.clip(t, _EXP_FLOOR, 0.0, out=t)
        np.exp(t, out=t)
        np.subtract(acc, t, out=acc)
    np.clip(acc, 0.0, 1.0, out=acc)
    if vmax >= v_floor:
        acc[inv_v <= 1.0 / v_floor] = 0.0


def _double_bridge_knockout(x, lower, upper, inv_v, w):
    """Grid knock mask for a corridor; the bridge survival weights go to w.

    w gets the product over steps of the corridor stay probability
    (`_corridor_stay_prob_into`), and 0 on the paths knocked out on the
    grid (`_weigh_near_walls`).
    """
    bottom = x[:, 1:].min(axis=1)
    top = x[:, 1:].max(axis=1)
    knocked = (bottom <= lower) | (top >= upper)
    gap = np.minimum(np.minimum(bottom, x[:, 0]) - lower,
                     upper - np.maximum(top, x[:, 0]))

    def stay(left, right, iv):
        acc = np.empty_like(left)
        _corridor_stay_prob_into(acc, left, right, lower, upper, iv)
        return acc
    _weigh_near_walls(x, gap, knocked, inv_v, w,
                      lambda y: np.minimum(y - lower, upper - y), stay)
    return knocked


@dataclass(frozen=True)
class _Walls:
    """Knock-out walls on the log forward, and the one monitor that applies them.

    ``lower`` is -inf for the up-and-out; ``inv_v`` holds the reciprocal
    per-step forward variances of the grid.
    """

    lower: float
    upper: float
    inv_v: np.ndarray
    bridge: bool

    def knock(self, x, buf, m):
        """(knocked, weights) of the m paths in x.

        ``knocked`` masks the paths knocked out on the grid; ``weights``
        holds each path's bridge survival weight, or is None for discrete
        monitoring.
        """
        if not self.bridge:
            knocked = x[:, 1:].max(axis=1) >= self.upper
            if self.lower > -math.inf:
                knocked |= x[:, 1:].min(axis=1) <= self.lower
            return knocked, None
        w = buf.column("w", m)
        if self.lower == -math.inf:
            return _single_bridge_knockout(x, self.upper, self.inv_v, w), w
        return _double_bridge_knockout(x, self.lower, self.upper, self.inv_v, w), w


def _payoff_stats(x_final, strike, knocked, scale):
    """Moments of one block's payoffs (e^x_final - strike)^+ * scale, 0 where knocked.

    The block's m paths form units k of U_k total payoff and n_k paths: each
    antithetic pair (i, h + i), h = ceil(m/2), and for odd m the unpaired row
    h - 1.  With mu the block's mean payoff, returns the payoff sum,
    sum_k (U_k - n_k mu)^2 and sum_k n_k (U_k - n_k mu).
    """
    pay = np.exp(x_final)
    pay -= strike
    np.maximum(pay, 0.0, out=pay)
    if knocked is not None:
        pay[knocked] = 0.0
    pay *= scale
    m = pay.size
    h = _drawn(m)
    total = pay.sum()
    mu = total / m
    dev = pay[:m - h] + pay[h:]
    dev -= 2.0 * mu
    dev2, dev1 = (dev * dev).sum(), 2.0 * dev.sum()
    if m % 2:
        single = pay[h - 1] - mu
        dev2, dev1 = dev2 + single * single, dev1 + single
    return total, dev2, dev1


def _option_mc(state: MarketState, spec: OptionSpec, p: VasicekParams, cfg: MCConfig,
               paths) -> MCEstimate:
    """The alive check, grid and walls that both option estimators share.

    ``paths(x0, grid, v)`` returns the estimator's block builder for
    `_simulate`, given the start x0 of the log forward, the time grid and
    its per-step forward variances v.  A start outside the barrier region
    returns the knocked-out estimate (0, 0).  A negative step variance (the
    closed form's cancellation at some small |a|) raises a ValueError naming
    a.
    """
    x0 = log_forward(state, spec, p)
    lower, upper = spec.walls
    n = math.ceil((spec.maturity - state.time) * cfg.n_steps)
    if not lower < x0 < upper:
        return MCEstimate(0.0, 0.0, cfg.n_paths, n, cfg.seed)
    grid = np.linspace(state.time, spec.maturity, n + 1)
    v = integrated_variance(grid[:-1], grid[1:], spec.maturity, p)
    if not np.all(v >= 0.0):
        raise ValueError(f"a={p.a!r}: integrated_variance gives a step variance of "
                         f"{v.min():.3g} on the {n}-step grid, below 0")
    walls = _Walls(lower, upper, 1.0 / v, cfg.monitoring == BRIDGE)
    return _simulate(cfg, n, paths(x0, grid, v), spec.strike, walls)


def price_barrier_mc(state: MarketState, spec: OptionSpec, p: VasicekParams,
                     cfg: MCConfig) -> MCEstimate:
    """Forward-measure Monte Carlo price of a knock-out call.

    Simulates the log forward x with exact per-step Gaussian increments of
    variance v_j = integrated_variance(t_j, t_{j+1}), applies the knockout
    monitor, pays (e^{x(tau)} - K)^+ on surviving paths and multiplies by
    the bond price.  A start outside the barrier region returns the
    knocked-out estimate (0, 0).
    """
    def forward_paths(x0, grid, v):
        log_disc = log_bond_price(state.rate, state.time, spec.maturity, p)
        sd = np.sqrt(v)

        def build(rng, buf, m):
            z, x = buf.drawn("z", m), buf("x", m, 1)
            rng.standard_normal(out=z)
            h = z.shape[0]
            np.multiply(z, sd, out=z)
            np.subtract(z, 0.5 * v, out=z)  # z now holds the x-increments
            z[:, 0] += x0  # so the cumulative sum starts from x0
            np.cumsum(z, axis=1, out=x[:h, 1:])
            x[:h, 0] = x0
            return x, log_disc
        return build
    return _option_mc(state, spec, p, cfg, forward_paths)


def price_barrier_mc_two_factor(state: MarketState, spec: OptionSpec,
                                p: VasicekParams, cfg: MCConfig) -> MCEstimate:
    """Joint (ln S, r) Monte Carlo price of a knock-out call.

    Euler steps for ln S with drift r - sigma1^2/2, exact OU transitions for
    r with per-step correlation rho, discounting by the trapezoidal rate
    integral; the drift integrates r by the same trapezoid rule.  The
    barrier is monitored on the log forward ln(S_t / P(r_t, t; tau)), with
    the same per-step bridge correction as the forward-measure estimator
    (the forward's instantaneous variance is the same under both measures).
    """
    def joint_paths(x0, grid, v):
        tau = spec.maturity
        dt = (tau - state.time) / (grid.size - 1)
        # log A (the log bond price at r = 0, so 0 at maturity) plus the Ito
        # drift s1^2/2 t of ln S, both taken off ln S + r B in one pass
        shift = log_bond_price(0.0, grid, tau, p) \
            + 0.5 * p.sigma1**2 * dt * np.arange(grid.size)
        b_fac = b_factor(grid, tau, p.a)
        rho_c = math.sqrt(1.0 - p.rho**2)
        log_s0 = math.log(state.spot)

        def build(rng, buf, m):
            z1, z2 = buf.drawn("z", m), buf.drawn("z2", m)
            rng.standard_normal(out=z1)
            rng.standard_normal(out=z2)
            work, r = buf.drawn("work", m), buf.drawn("r", m, 1)
            h = z1.shape[0]
            x, log_disc = buf("x", m, 1), buf.column("log_disc", m)
            np.multiply(z2, rho_c, out=z2)
            np.multiply(z1, p.rho, out=work)
            np.add(z2, work, out=z2)
            _ou_paths_into(r, z2, work, state.rate, dt, p)
            _log_discount_into(log_disc[:h], r, dt)
            # Euler log-stock increments: ((r_j + r_{j+1})/2 - s1^2/2) dt + s1 sqrt(dt) Z1,
            # the drift s1^2/2 dt left to `shift`; the rate term cancels the
            # path discount's, so the discounted stock is an exact martingale
            np.multiply(z1, p.sigma1 * math.sqrt(dt), out=z1)
            np.add(r[:, :-1], r[:, 1:], out=work)
            np.multiply(work, 0.5 * dt, out=work)
            np.add(z1, work, out=z1)
            z1[:, 0] += log_s0  # so the cumulative sum starts from ln S0
            np.cumsum(z1, axis=1, out=x[:h, 1:])
            x[:h, 0] = log_s0
            # switch x to the log forward: x = ln S - ln A + r B
            np.multiply(r, b_fac, out=r)   # r now holds r*B; r itself is done with
            x[:h] += r
            x[:h] -= shift
            # at maturity B = 0 and shift holds only the drift, so x_T = ln S_T
            return x, log_disc
        return build
    return _option_mc(state, spec, p, cfg, joint_paths)
