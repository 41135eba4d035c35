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
pair with its path discount, or the bond's log discount.  The loop owns the rest:
the per-block streams, the buffers, the knock monitor (`_Walls.knock`), the
payoff (`_payoff_stats`) and the reduction.

One bridge monitor serves both wall sets (`_bridge_knockout`); the
up-and-out is the corridor with its lower wall at -inf.  It knocks a path
out when a grid point touches a wall, and weights each surviving path's
payoff by its survival probability between grid points, prod_j (1 - p_j)
with p_j the Brownian-bridge crossing probability of step j.  1 - p_j is
one reflection series (Glasserman 2004, §6.4, `_corridor_stay_prob_into`):
1 - exp(-2 (u - x_j)(u - x_{j+1}) / v_j) for one wall.  This is unbiased,
draws no uniforms and has a lower variance than knocking out with
probability p_j.  p_j is evaluated only on steps near a wall; on every
other step 1 - p_j rounds to exactly 1.0.

Antithetic pairs: a block of m paths draws normals for its first
h = ceil(m/2) paths only, and path h + i is the antithetic partner of path
i, the path of its normals negated (the two-factor estimator negates both
of its normal sets).  Every builder is affine in its normals, so that
partner is the reflection 2 x0 - x_i about the zero-noise path x0:
`_simulate` builds x0 once per call.  A builder yields its h drawn rows a
row chunk at a time; for each chunk `_simulate` records the final points,
discounts and monitor weights, then reflects the chunk's partnered rows
(those of 0..m-h-1) in place and records them again as rows h + i, so the
builders do their per-step arithmetic on the drawn rows alone.  The mean
is taken over all paths; the standard error over units, each pair
(i, h + i) one unit and the unpaired row h - 1 of an odd block a unit of
its own (`_payoff_stats`, `_reduce`).  With only pairs it is the sample
standard deviation of the pair means over the square root of the number
of pairs.  Pairs are unbiased and halve the draws (Glasserman 2004, §4.2).

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

The inner loops write into buffers that each thread allocates once.  The
forward and the bond draw and build their rows in chunks of about
_PATH_CHUNK elements (2 MB), at any resolution; only the two-factor
estimator still keeps one block-sized array, with one row per drawn path
(4 MB at 2**10 rows x 512 steps), because its stream draws every first
normal of a block before any second one.  Paths hold no start column,
since every path of a call starts at the same point; the builder yields
that point.  The forward turns its normals into increments and their
cumulative sum in place; the two-factor estimator turns its first normals
into ln S and then the log forward, and draws its second normals a row
chunk at a time into a chunk-sized scratch, where they become that
chunk's rates and rate terms; the bond needs only its normals, since its
log discount is one weighted sum of them.  The knock monitor works
through the rows near a wall in chunks of about _CHUNK elements, so its
temporaries stay small.  Avoiding temporaries roughly triples
throughput.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import VasicekParams, b_factor, integrated_variance, log_bond_price
from .pricer import MarketState, OptionSpec, log_forward

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
# The OU paths scale by decay^{+-j}, up to e^{|a| tau}, and the bond's
# discount weights by up to e^{-a tau}; past e^700 they can leave the float
# range (max ~ e^709.8).
_OU_RANGE = 700.0
# Steps a path, checked before anything is allocated: the two-factor
# estimator's block-sized array of 2**10 drawn rows, the one such array
# left, then stays within 128 MB a worker.
_MAX_STEPS = 1 << 14
# Paths a run, checked by `MCConfig`.  `_simulate` holds at most two blocks
# a worker in flight, so its futures do not grow with the run;
# `_require_samplable` sizes its refusal by this limit.
_MAX_PATHS = 1 << 24
# Elements per chunk of the loops that work through a block's rows in chunks
# (the knock monitor's near-wall rows, the two-factor's rates and rate
# terms): bounds their temporaries at about 0.5 MB each.  A 32-step block is
# one chunk.
_CHUNK = 1 << 16
# Elements per row chunk that the forward and bond builders draw and build
# before `_simulate` monitors and mirrors it: 2 MB at any resolution.  A
# smaller chunk costs more numpy calls a block, which slowed two workers
# by 18% (2**17) and 35% (2**16); half a 32-step block is one chunk.
_PATH_CHUNK = 1 << 18


@dataclass(frozen=True)
class MCConfig:
    """Simulation scale: paths, steps a year and seed.

    ``n_steps`` is a per-year resolution: a horizon of tau years uses
    ceil(tau * n_steps) uniform steps.
    """

    n_paths: int = 1_000_000
    n_steps: int = 512
    seed: int = 0

    def __post_init__(self):
        for name in ("n_paths", "n_steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be at least 1, got {self.n_paths}")
        if self.n_paths > _MAX_PATHS:
            raise ValueError(f"paths: {self.n_paths} paths a run, past the limit of {_MAX_PATHS}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")


@dataclass(frozen=True)
class MCEstimate:
    """Point estimate with its standard error and the scale that produced it."""

    mean: float
    std_error: float
    n_paths: int
    n_steps: int
    seed: int


def _n_steps(cfg: MCConfig, tau: float) -> int:
    """ceil(tau * n_steps), or a ValueError naming steps and maturity past _MAX_STEPS."""
    n = math.ceil(tau * cfg.n_steps)
    if n > _MAX_STEPS:
        raise ValueError(f"steps: {cfg.n_steps} steps a year over maturity {tau:g} make "
                         f"{n} steps a path, past the limit of {_MAX_STEPS}")
    return n


def _on_grid(f, *columns) -> np.ndarray:
    """f mapped over the grid columns: a float closed form of `model` per point or step."""
    return np.fromiter(map(f, *columns), float, len(columns[0]))


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

    ``buf.drawn(name, m)`` returns the first ceil(m/2) rows of a
    (ceil(rows/2), n_steps) array: one row per drawn path, which
    `_simulate` reflects in place once those rows are recorded.  Only the
    two-factor estimator still keeps this h x n array.
    ``buf.chunks(name, m, size)`` splits the ceil(m/2) drawn rows into
    slices of about ``size`` elements and returns them with an array for
    one slice: the forward and the bond draw and build their rows in it.
    ``buf.column(name, m)`` returns the first m entries of a (rows,)
    vector.  A partial final block reuses the same memory.
    """

    def __init__(self, rows: int, n_steps: int, dtype=float):
        self._shape = (rows, n_steps)
        self.dtype = dtype
        self._arrays: dict[str, np.ndarray] = {}

    def _array(self, name: str, shape: tuple) -> np.ndarray:
        a = self._arrays.get(name)
        if a is None:
            a = self._arrays[name] = np.empty(shape, self.dtype)
        return a

    def drawn(self, name: str, m: int) -> np.ndarray:
        """The first ceil(m/2) rows of an array with one row per drawn path."""
        rows, n = self._shape
        return self._array(name, (_drawn(rows), n))[:_drawn(m)]

    def chunks(self, name: str, m: int, size: int) -> tuple[list, np.ndarray]:
        """Slices of the ceil(m/2) drawn rows, each of about ``size`` elements
        (at least a row), and an array with the rows of the largest."""
        rows, n = self._shape
        per = min(max(1, size // n), _drawn(rows))
        h = _drawn(m)
        return [slice(i, min(i + per, h)) for i in range(0, h, per)], self._array(name, (per, n))

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
    of m from normals drawn from ``rng``, in buffers taken from ``buf``.
    It is a generator over row chunks of those h rows, in row order, and
    yields (x, log_disc, start) for each: the chunk's paths x (k, n) past
    their start, whose last column is the log of the payoff variable at
    maturity, the log discount factor, common to all paths or one per row
    of the chunk (k,), and the start that every path shares.  Paths pay
    (e^{x_T} - strike)^+ * e^log_disc, times the bridge survival weight that
    ``walls`` gives them, and 0 where ``walls`` knocks them out on the grid;
    with no walls (the bond) nothing is monitored.  Each chunk is recorded
    and mirrored before the next is built, so a builder may reuse one
    chunk's memory for the next.

    Antithetic pairs by reflection: every builder is affine in its normals,
    so the path driven by the negated normals of path i is 2 x0 - x_i, where
    x0 is the path driven by zero normals.  ``build`` runs once on `_Zeros`,
    in extended precision and one row, for x0.  For each chunk of rows
    i..i+k-1 the block records their final points, discounts and monitor,
    then overwrites the rows among them that have a partner (rows below
    m - h) with 2 x0 - row, starting from 2 x0's start less the start, and
    records them as rows h + i..; a per-path log discount is reflected
    likewise (before its exp).  The unpaired row h - 1 of an odd block
    stays as built.

    Float range: the block arithmetic runs with numpy's overflow and
    invalid-value warnings off, and a block whose payoff moments are not
    finite raises a ValueError instead, so a model whose paths leave the
    float range fails by name instead of returning NaN.

    Blocks run on `_workers` threads, each with its own buffers; numpy
    releases the interpreter lock inside its fills and ufuncs.  At most two
    blocks a worker are in flight, and their payoff moments are taken and
    reduced in block order, so the estimate does not depend on the thread
    count.
    """
    from concurrent.futures import ThreadPoolExecutor  # ~11 ms, so not at import

    blocks = list(_blocks(cfg.n_paths))
    rows = min(_BLOCK, cfg.n_paths)
    local = threading.local()
    with np.errstate(over="ignore", invalid="ignore"):
        # 2 x0; extended precision keeps the rounding of x0's cumulative
        # sums, about 1e-13 over 512 steps, from biasing every reflected row
        (x0, disc0, start0), = build(_Zeros(), _Buffers(1, n, np.longdouble), 1)
        twice_x = np.asarray(2.0 * x0[0], dtype=float)
        twice_disc = np.asarray(2.0 * disc0[0], dtype=float) if np.ndim(disc0) else None
        twice_start = float(2.0 * start0)

    def run(block):
        index, m = block
        if not hasattr(local, "buf"):
            local.buf = _Buffers(rows, n)
        buf = local.buf
        with np.errstate(over="ignore", invalid="ignore"):
            h = _drawn(m)
            x_final, log_disc = buf.column("x_final", m), buf.column("log_disc", m)
            knocked = None if walls is None else np.empty(m, bool)
            weight = None if walls is None else buf.column("weight", m)

            def record(rows, paths, disc, start):  # final points, discounts, knock mask and weights
                x_final[rows] = paths[:, -1]
                log_disc[rows] = disc
                if walls is not None:
                    knocked[rows] = walls.knock(paths, start, weight[rows])
            first = 0  # the chunk's first row
            for x, disc, start in build(_block_rng(cfg.seed, index), buf, m):
                k = x.shape[0]
                record(slice(first, first + k), x, disc, start)
                paired = min(first + k, m - h) - first  # the chunk's rows with a partner
                mirrored = x[:paired]
                np.subtract(twice_x, mirrored, out=mirrored)
                if twice_disc is not None:
                    disc = np.subtract(twice_disc, disc[:paired])
                record(slice(h + first, h + first + paired), mirrored, disc, twice_start - start)
                first += k
            scale = np.exp(log_disc, out=log_disc)
            if weight is not None:
                scale = np.multiply(weight, scale, out=weight)
            stats = _payoff_stats(x_final, strike, knocked, scale)
        if not np.isfinite(stats).all():
            raise ValueError(f"the payoffs of block {index} are not finite (sum "
                             f"{float(stats[0])!r}): the simulated paths leave the float range")
        return stats

    workers = _workers(len(blocks))
    pool = ThreadPoolExecutor(workers)
    try:  # at most 2 blocks a worker in flight, their results taken in block order
        stats, ahead = [], collections.deque()
        for block in blocks:
            if len(ahead) == 2 * workers:
                stats.append(ahead.popleft().result())
            ahead.append(pool.submit(run, block))
        stats.extend(future.result() for future in ahead)
    finally:  # on an error or an interrupt, drop the blocks not yet started
        pool.shutdown(cancel_futures=True)
    return _reduce(stats, np.array([m for _, m in blocks]), n, cfg.seed)


def _ou_step_coeffs(dt: float, p: VasicekParams) -> tuple[float, float]:
    """(decay, shock sd) of the exact OU transition over one step."""
    z = 2.0 * p.a * dt
    var_scale = dt if z == 0.0 else dt * (-math.expm1(-z) / z)
    return math.exp(-p.a * dt), p.sigma2 * math.sqrt(var_scale)


def _ou_range_error(a: float, tau: float, growth: float, what: str) -> ValueError:
    return ValueError(f"a={a!r} over {tau:g} years: {what} need e^{growth:.4g}, past the "
                      f"float range (exponent <= {_OU_RANGE:g})")


def _ou_paths_into(z: np.ndarray, r0: float, dt: float, p: VasicekParams) -> None:
    """Turn the normals z (m, n) in place into exact OU paths r_1..r_n from r0.

    Uses r_j = theta + decay^j * (r0 - theta + shock * sum_{k<j} decay^{-k-1} z_k),
    which turns the step recursion into one cumulative sum.
    decay^{+-n} = e^{-+a tau} must stay in the float range, so |a| tau past
    _OU_RANGE raises a ValueError naming a.
    """
    n = z.shape[1]
    if abs(p.a) * dt * n > _OU_RANGE:
        raise _ou_range_error(p.a, dt * n, abs(p.a) * dt * n, "the OU paths")
    decay, shock = _ou_step_coeffs(dt, p)
    j = np.arange(1, n + 1)
    np.multiply(z, decay**(-j), out=z)
    np.cumsum(z, axis=1, out=z)
    np.multiply(z, shock * decay**j, out=z)
    np.add(z, p.theta + decay**j * (r0 - p.theta), out=z)


def _bond_log_discount_weights(r0: float, tau: float, n: int,
                               p: VasicekParams) -> tuple[float, np.ndarray]:
    """(const, c): the trapezoid log discount of an n-step OU path as const + c . z.

    The exact OU recursion r_{j+1} = theta + decay (r_j - theta) + shock z_j
    is affine in the normals z, and so is -dt sum_j w_j r_j with the
    trapezoid weights w (1/2 at both ends, else 1) (Glasserman 2004, §3.3):
    c_k = -dt shock S_k with S_{n-1} = w_n and S_k = w_{k+1} + decay S_{k+1},
    and const = -dt (n theta + (r0 - theta)(1/2 + decay S_0)), the
    zero-noise path's.  S_0 grows like e^{-a tau}, so -a tau past
    _OU_RANGE raises a ValueError naming a.
    """
    dt = tau / n
    if -p.a * tau > _OU_RANGE:
        raise _ou_range_error(p.a, tau, -p.a * tau, "the discount weights")
    decay, shock = _ou_step_coeffs(dt, p)
    w = itertools.chain((0.5,), itertools.repeat(1.0, n - 1))  # w_n, ..., w_1
    s = np.fromiter(itertools.accumulate(w, lambda acc, wk: wk + decay * acc), float, n)
    const = -dt * (n * p.theta + (r0 - p.theta) * (0.5 + decay * s[-1]))
    return const, s[::-1] * (-dt * shock)


def _require_samplable(weights: np.ndarray, a: float, tau: float, what: str) -> None:
    """Raise a ValueError naming a where no run can sample a path discount's mean.

    A log discount const + weights . z of iid standard normals z is
    N(const, s^2) with s^2 = weights . weights.  Half the mean of its exp is
    carried by the paths past const + s^2, the centre of that law tilted by
    e^{log discount}, and a share Phi(-s) of all paths lies there.  Where
    that share is below one path in _MAX_PATHS, no run can sample them and
    the estimate falls short by orders of magnitude (s^2 past about 28).
    The bound takes the largest run, so that a run of one or two paths
    still prices where a larger one could.
    """
    with np.errstate(over="ignore"):
        spread = float(weights @ weights)
    if _MAX_PATHS * 0.5 * math.erfc(math.sqrt(spread / 2.0)) < 1.0:
        raise ValueError(f"a={a!r} over {tau:g} years: the log discount's variance "
                         f"{spread:.4g} puts {what} where fewer than one path in "
                         f"{_MAX_PATHS} falls")


def bond_mc(r0: float, tau: float, p: VasicekParams, cfg: MCConfig) -> MCEstimate:
    """Estimate the bond price E[exp(-int_0^tau r dt)] by simulation.

    Uses the exact OU transition per step and trapezoidal accumulation of
    the rate integral.  That log discount is affine in the normals, so each
    path's is one weighted sum of its normals
    (`_bond_log_discount_weights`), and no rate path is built.  The bond is
    the block loop's payoff struck at zero on the log discount, a
    one-column path from 0, with no barrier.  A log discount so spread that
    no run can sample the bond's mean raises a ValueError naming a
    (`_require_samplable`).  At maturity no step is left and the estimate
    is exactly 1; a negative tau raises a ValueError.
    """
    if tau < 0.0:
        raise ValueError(f"maturity tau={tau} is below 0")
    n = _n_steps(cfg, tau)
    if n == 0:
        return MCEstimate(1.0, 0.0, cfg.n_paths, 0, cfg.seed)
    const, weights = _bond_log_discount_weights(r0, tau, n, p)
    _require_samplable(weights, p.a, tau, "the bond's mean")

    def build(rng, buf, m):
        chunks, z = buf.chunks("z", m, _PATH_CHUNK)
        paths = buf.column("paths", m)
        for rows in chunks:
            zc, drawn = z[:rows.stop - rows.start], paths[rows]
            rng.standard_normal(out=zc)
            np.einsum("ij,j->i", zc, weights, out=drawn)  # BLAS-free: no thread pool of its own
            drawn += const
            yield drawn[:, None], 0.0, 0.0
    return _simulate(cfg, n, build, 0.0)


def _corridor_stay_prob_into(acc, left, right, lower, upper, inv_v):
    """Fill acc with the bridge stay probabilities of steps between the walls.

    The steps run from ``left`` to ``right`` with reciprocal variances
    ``inv_v``, all 1-D.  With p, q the endpoint distances to the upper
    wall, a, b those to the lower, d = b - a and L the width, the series is
        1 - R_u(0) - R_l(0) + sum_{j=1..K} A(+j) + A(-j) - R_u(j) - R_l(j),
    A(+-j) = exp(-2 jL (jL +- d)/v), R_u(j) = exp(-2 (p + jL)(q + jL)/v)
    and R_l(j) likewise from a, b, built from wall-relative offsets as
    `kernels._absorbed` builds the kernel.  Lower = -inf leaves the one-wall
    factor 1 - R_u(0): no lower reflection, no pair and no floor.  Inside a
    corridor every exponent of group j is at most -2 (j - 1)^2 L^2 / v, so
    the groups beyond K = 1 + floor(sqrt(375 v) / L), at the largest v of
    the steps, lie below exp(-750) and are skipped.

    A corridor step whose stay probability is provably below 2^-57 gets
    exactly 0, as `_bridge_knockout` gives a step far from both walls
    exactly 1.  The stay probability is the corridor heat kernel over the
    free one.  With c = pi^2 v / (2 L^2), |d| <= L and
    sum_{n>=1} exp(-n^2 c) <= exp(-c) / (1 - exp(-3c)), the lowest
    eigenmode bounds it by
        4 sqrt(c / pi) exp(pi^2 / (4c) - c) / (1 - exp(-3c)),
    which falls with c and is 3.2e-21 < 2^-57 at c = _FLOOR_MODE = 50.
    Steps at c >= 50 are floored, so the series serves only
    v < 100 L^2 / pi^2, which caps K at 62.

    Exponents are clipped at zero; the result is meaningful only where both
    endpoints lie inside (outside steps are handled by the grid check).
    """
    t = np.empty_like(acc)

    def decay(p, q):  # exp(-2 p q / v), the exponent clipped to [_EXP_FLOOR, 0]
        np.multiply(p, q, out=t)
        np.multiply(t, inv_v, out=t)
        np.multiply(t, -2.0, out=t)
        np.clip(t, _EXP_FLOOR, 0.0, out=t)
        return np.exp(t, out=t)
    to_up, to_up2 = upper - left, upper - right
    np.subtract(1.0, decay(to_up, to_up2), out=acc)
    if lower == -math.inf:
        return
    width = upper - lower
    v_floor = 2.0 * _FLOOR_MODE * width * width / np.pi**2
    vmax = 1.0 / float(np.min(inv_v))
    groups = 1 + int(math.sqrt(-0.5 * _EXP_UNDERFLOW * min(vmax, v_floor)) / width)
    to_lo, to_lo2 = left - lower, right - lower
    acc -= decay(to_lo, to_lo2)
    d = right - left
    for j in range(1, groups + 1):
        shift = j * width
        acc += decay(shift, shift + d)
        acc += decay(shift, shift - d)
        acc -= decay(to_up + shift, to_up2 + shift)
        acc -= decay(to_lo + shift, to_lo2 + shift)
    np.clip(acc, 0.0, 1.0, out=acc)
    if vmax >= v_floor:
        acc[inv_v <= 1.0 / v_floor] = 0.0


def _bridge_knockout(x, start, lower, upper, inv_v, w):
    """Grid knock mask for the walls lower < upper; the bridge survival weights go to w.

    The paths run from ``start`` through the points of x; lower = -inf is
    the up-and-out, and its lower wall costs nothing.  w gets 0 on the paths
    knocked out on the grid, and prod_j (1 - p_j) on the others, with 1 - p_j
    the stay probability of step j (`_corridor_stay_prob_into`).  That is
    evaluated only on the steps near a wall.  A step whose endpoints lie at
    distances a, b from the nearer wall has every term of its crossing
    series at most exp(-2 a b / v); below exp(-_SCREEN) its 1 - p_j rounds
    to exactly 1.0, so it is skipped.  Rows whose closest approach to a
    wall, over every point and the start, is at least
    sqrt(_SCREEN/2 * max v) hold no other step.  The other rows are copied,
    behind their start, in chunks of about _CHUNK elements; a row is never
    split, so its factors and their product do not depend on the chunking.
    """
    top = x.max(axis=1)
    knocked = top >= upper
    gap = upper - np.maximum(top, start)
    one_wall = lower == -math.inf
    if not one_wall:
        bottom = x.min(axis=1)
        knocked |= bottom <= lower
        np.minimum(np.minimum(bottom, start) - lower, gap, out=gap)
    np.subtract(1.0, knocked, out=w)
    reach = math.sqrt(0.5 * _SCREEN / float(inv_v.min()))
    rows = np.flatnonzero(~knocked & (gap < reach))
    per = max(1, _CHUNK // inv_v.size)
    for first in range(0, rows.size, per):
        chunk = rows[first:first + per]
        near = np.empty((chunk.size, inv_v.size + 1))
        near[:, 0] = start
        near[:, 1:] = x[chunk]
        a = upper - near  # each point's distance to the nearer wall
        if not one_wall:
            np.minimum(near - lower, a, out=a)
        i, j = np.nonzero(a[:, :-1] * a[:, 1:] * inv_v < 0.5 * _SCREEN)
        if i.size:
            factors = np.empty(i.size)
            _corridor_stay_prob_into(factors, near[i, j], near[i, j + 1], lower, upper,
                                     inv_v[j])
            hit = chunk[i]  # one entry per step, in row order
            starts = np.flatnonzero(np.concatenate(([True], hit[1:] != hit[:-1])))
            w[hit[starts]] *= np.multiply.reduceat(factors, starts)
    return knocked


def _single_bridge_knockout(x, start, upper, inv_v, w):
    """`_bridge_knockout` for an upper wall alone."""
    return _bridge_knockout(x, start, -math.inf, upper, inv_v, w)


def _double_bridge_knockout(x, start, lower, upper, inv_v, w):
    """`_bridge_knockout` for a corridor."""
    return _bridge_knockout(x, start, lower, upper, inv_v, w)


@dataclass(frozen=True)
class _Walls:
    """Knock-out walls on the log forward, and the bridge monitor that applies them.

    ``lower`` is -inf for the up-and-out; ``inv_v`` holds the reciprocal
    per-step forward variances of the grid.
    """

    lower: float
    upper: float
    inv_v: np.ndarray

    def knock(self, x, start, w):
        """The mask of the paths from ``start`` through x knocked out on the
        grid; w gets each path's bridge survival weight."""
        if self.lower == -math.inf:
            return _single_bridge_knockout(x, start, self.upper, self.inv_v, w)
        return _double_bridge_knockout(x, start, self.lower, self.upper, self.inv_v, w)


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
    `_simulate`, given the start x0 of the log forward, the time grid (a
    list of floats) and its per-step forward variances v.  A start outside the barrier region
    returns the knocked-out estimate (0, 0).  At maturity no step is left,
    and a start inside returns the exact payoff (e^x0 - strike)^+ times the
    bond price, with standard error 0.  A negative step variance (the
    closed form's cancellation at some small |a|) raises a ValueError naming
    a.
    """
    n = _n_steps(cfg, spec.maturity - state.time)
    x0 = log_forward(state, spec, p)
    lower, upper = spec.walls
    if not lower < x0 < upper:
        return MCEstimate(0.0, 0.0, cfg.n_paths, n, cfg.seed)
    if n == 0:
        payoff = max(math.exp(x0) - spec.strike, 0.0)
        disc = math.exp(log_bond_price(state.rate, state.time, spec.maturity, p))
        return MCEstimate(payoff * disc, 0.0, cfg.n_paths, 0, cfg.seed)
    grid = np.linspace(state.time, spec.maturity, n + 1).tolist()
    v = _on_grid(lambda t0, t1: integrated_variance(t0, t1, spec.maturity, p),
                 grid[:-1], grid[1:])
    if not np.all(v >= 0.0):
        raise ValueError(f"a={p.a!r}: integrated_variance gives a step variance of "
                         f"{v.min():.3g} on the {n}-step grid, below 0")
    walls = _Walls(lower, upper, 1.0 / v)
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
        sd, drift = np.sqrt(v), 0.5 * v

        def build(rng, buf, m):
            chunks, x = buf.chunks("x", m, _PATH_CHUNK)
            for rows in chunks:
                xc = x[:rows.stop - rows.start]
                rng.standard_normal(out=xc)
                np.multiply(xc, sd, out=xc)
                np.subtract(xc, drift, out=xc)  # xc now holds the increments
                xc[:, 0] += x0  # so the cumulative sum starts from x0
                np.cumsum(xc, axis=1, out=xc)
                yield xc, log_disc, x0
        return build
    return _option_mc(state, spec, p, cfg, forward_paths)


def price_barrier_mc_two_factor(state: MarketState, spec: OptionSpec,
                                p: VasicekParams, cfg: MCConfig) -> MCEstimate:
    """Joint (ln S, r) Monte Carlo price of a knock-out call.

    Euler steps for ln S with drift r - sigma1^2/2, exact OU transitions for
    r with per-step correlation rho, discounting by the trapezoidal rate
    integral, whose per-step terms are also the drift's rate terms.  The
    barrier is monitored on the log forward ln(S_t / P(r_t, t; tau)), with
    the same per-step bridge correction as the forward-measure estimator
    (the forward's instantaneous variance is the same under both measures).

    The rate normals rho Z1 + sqrt(1 - rho^2) Z2 are iid standard normals,
    so the path's log discount has the bond's weights over the horizon; a
    log discount so spread that no run can sample the price's mean raises
    a ValueError naming a (`_require_samplable`).
    """
    def joint_paths(x0, grid, v):
        tau = spec.maturity
        n = len(grid) - 1
        dt = (tau - state.time) / n
        _require_samplable(_bond_log_discount_weights(state.rate, tau - state.time, n, p)[1],
                           p.a, tau - state.time, "the price's mean")
        # log A (the log bond price at r = 0, so 0 at maturity) plus the Ito
        # drift s1^2/2 t of ln S, both taken off ln S + r B in one pass
        shift = _on_grid(lambda s: log_bond_price(0.0, s, tau, p), grid) \
            + 0.5 * p.sigma1**2 * dt * np.arange(n + 1)
        b_fac = _on_grid(lambda s: b_factor(s, tau, p.a), grid)
        rho_c = math.sqrt(1.0 - p.rho**2)
        log_s0 = math.log(state.spot)

        def build(rng, buf, m):
            # every Z1 row of the block is drawn before any Z2 row, so the
            # paths are built whole and yielded as one chunk
            x = buf.drawn("x", m)
            rng.standard_normal(out=x)
            log_disc = buf.column("path_disc", m)
            chunks, terms = buf.chunks("terms", m, _CHUNK)
            _, r = buf.chunks("r", m, _CHUNK)
            # the Z2 rows a chunk at a time, in row order: the same stream
            # as one draw of the whole block
            for rows in chunks:
                k = rows.stop - rows.start
                t, xc, rc = terms[:k], x[rows], r[:k]
                rng.standard_normal(out=rc)
                # the rate normals rho Z1 + rho_c Z2, in rc
                np.multiply(xc, p.rho, out=t)
                np.multiply(rc, rho_c, out=rc)
                np.add(rc, t, out=rc)
                _ou_paths_into(rc, state.rate, dt, p)  # rc now holds r_1..r_n
                # Euler log-stock increments: ((r_j + r_{j+1})/2 - s1^2/2) dt + s1 sqrt(dt) Z1,
                # the drift s1^2/2 dt left to `shift`; the path's log discount is
                # minus the sum of the same trapezoid rate terms, so the
                # discounted stock is an exact martingale
                np.add(rc[:, 0], state.rate, out=t[:, 0])
                np.add(rc[:, :-1], rc[:, 1:], out=t[:, 1:])
                np.multiply(t, 0.5 * dt, out=t)
                np.sum(t, axis=1, out=log_disc[rows])
                np.negative(log_disc[rows], out=log_disc[rows])
                np.multiply(xc, p.sigma1 * math.sqrt(dt), out=xc)
                np.add(xc, t, out=xc)
                xc[:, 0] += log_s0  # so the cumulative sum starts from ln S0
                np.cumsum(xc, axis=1, out=xc)
                # switch x to the log forward: x = ln S - ln A + r B
                np.multiply(rc, b_fac[1:], out=rc)
                np.add(xc, rc, out=xc)
                np.subtract(xc, shift[1:], out=xc)
            # every path's start ln S0 + r0 B(0) - shift_0, in the buffers'
            # precision (extended for the zero-noise path)
            start = buf.dtype(log_s0) + buf.dtype(state.rate) * b_fac[0] - shift[0]
            # at maturity B = 0 and shift holds only the drift, so x_T = ln S_T
            yield x, log_disc[:x.shape[0]], start
        return build
    return _option_mc(state, spec, p, cfg, joint_paths)
