"""The benchmark's workloads: inputs from a seed, whole rounds, checked outputs.

A workload is built once from the seed.  Each round then calls the engine,
times every engine call on its own (the checks are not timed), and checks
every output against `oracles`; an output that fails any check counts as
one failed operation.  Round ``index`` draws its Monte
Carlo seed from (seed, index) unless the workload fixes it, so a round can be
rerun bit for bit.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import oracles
from engine import OUT

REF = {"a": 1.0, "theta": 0.04, "sigma1": 0.3, "sigma2": 0.3, "rho": 0.5, "r0": 0.05}
STRIKE = 100.0
MATURITY = 1.0
UPPER = math.log(130.0)
LOWER = math.log(100.0)
# The reference figures: the CLI's default spot grid 85:128:25, swept in
# a, theta and rho, for the up-and-out and the corridor.
GRID = np.linspace(85.0, 128.0, 25)
SWEEPS = (("a", (0.5, 1.0, 2.0)), ("theta", (0.02, 0.04, 0.08)), ("rho", (-0.5, 0.0, 0.5)))
# The corridor sweep: one day to ten years, corridors from [108, 112] to
# [95, 130] in forward price.
SWEEP_MATURITIES = np.geomspace(1.0 / 365.0, 10.0, 8)
SWEEP_WALLS = [(math.log(108.0 - 13.0 * f), math.log(112.0 + 18.0 * f))
               for f in np.linspace(0.0, 1.0, 6)]
MC_BLOCK = 1 << 14  # paths per block in the engine's Monte Carlo


@dataclass
class Round:
    """What one round did: engine time, latencies, outputs and failed checks."""

    wall: float = 0.0  # seconds spent inside engine calls
    prices: int = 0
    single_ms: list = field(default_factory=list)  # (spot, ms)
    double_ms: list = field(default_factory=list)
    mc: list = field(default_factory=list)  # (wall_s, path_steps, std_error, is_option)
    outputs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def call(self, fn, *args):
        """Run one engine call, adding its duration to the round; (result, seconds)."""
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        self.wall += dt
        return out, dt

    def operation(self, checks: dict, detail: str) -> None:
        """Record one engine output with its named checks."""
        self.attempted += 1
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            self.failed += 1
            self.failures.extend(bad)
            print(f"check failed [{', '.join(bad)}]: {detail}", file=sys.stderr)


def mc_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % 2**63


def _below(value: float, cap: float) -> bool:
    """value <= cap up to the analytic tolerance."""
    return value <= cap + oracles.ABS_TOL + oracles.REL_TOL * abs(cap)


def _require_detectable(want: float, paths: int, cap: float) -> None:
    """Refuse an MC case whose oracle price is near the rule-of-three floor.

    There an estimate of 0, from an estimator that knocks out every path,
    would pass `oracles.mc_agrees`.
    """
    floor = oracles.mc_bound(0.0, paths, cap)
    if not want > 3.0 * floor:
        raise ValueError(f"oracle price {want!r} is within 3x the rule-of-three floor "
                         f"{floor!r} at {paths} paths: a zero estimate would pass")


class _Workload:
    """Shared set-up: reference parameters, the two contracts, oracle values."""

    def __init__(self, vb, seed: int):
        self.vb = vb
        self.seed = seed
        self.params = vb.VasicekParams(**REF)
        self.single = vb.OptionSpec.single_up(STRIKE, MATURITY, UPPER)
        self.double = vb.OptionSpec.double(STRIKE, MATURITY, LOWER, UPPER)
        self.ref = oracles.Reference(**REF, strike=STRIKE, maturity=MATURITY)

    def _state(self, spot: float):
        return self.vb.MarketState(spot=float(spot), rate=REF["r0"])

    def _analytic_pair(self, rnd: Round, spot: float, reps: int) -> None:
        """Up-and-out and corridor prices at one spot, each `reps` times, checked."""
        vb, ref = self.vb, self.ref
        state = self._state(spot)
        x = ref.log_forward(spot)
        want_s = ref.up_and_out(spot, UPPER)
        want_d = ref.corridor(spot, LOWER, UPPER)
        pv = ref.vanilla(spot)
        for _ in range(reps):
            single, dt_s = rnd.call(vb.pricer.price_single_barrier, state, self.single, self.params)
            double, dt_d = rnd.call(vb.pricer.price_double_barrier, state, self.double, self.params)
            rnd.single_ms.append((spot, dt_s * 1e3))
            rnd.double_ms.append((spot, dt_d * 1e3))
            rnd.prices += 2
            rnd.outputs += [single.price, double.price]
            for got, want, out in ((single, want_s, x >= UPPER),
                                   (double, want_d, not LOWER < x < UPPER)):
                rnd.operation({
                    "oracle": oracles.close(got.price, want),
                    "knocked_out": got.knocked_out == out and (got.price == 0.0 or not out),
                }, f"analytic price at S={spot:g}: {got.price!r} vs oracle {want!r}")
            rnd.operation({"ordering": 0.0 <= double.price and _below(double.price, single.price)
                           and _below(single.price, pv)},
                          f"0 <= corridor {double.price!r} <= up-and-out {single.price!r}"
                          f" <= P*vanilla {pv!r} at S={spot:g}")

    def _mc(self, rnd: Round, fn, args, want: float, cap: float, label: str,
            is_option: bool = True):
        est, dt = rnd.call(fn, *args)
        rnd.mc.append((dt, est.n_paths * est.n_steps, est.std_error, is_option))
        rnd.prices += 1
        rnd.outputs.append((est.mean, est.std_error))
        rnd.operation({"mc_oracle": oracles.mc_agrees(want, est.mean, est.std_error,
                                                     est.n_paths, cap)},
                      f"{label}: {est.mean!r} +- {est.std_error!r} vs oracle {want!r}")
        return est


class Analytic(_Workload):
    """The six reference figures via the CLI, a corridor sweep, single prices.

    Four `price --verify` calls at smoke scale per round are the workload's
    only Monte Carlo (about 4% of its time); they keep every end-to-end
    metric defined here.
    """

    name = "analytic"
    PRICE_REPS = 2
    VERIFY_CALLS = 4
    VERIFY_PATHS = MC_BLOCK
    VERIFY_STEPS = 32

    def __init__(self, vb, seed: int):
        super().__init__(vb, seed)
        rng = np.random.default_rng(seed)
        self.order = rng.permutation(GRID.size)
        self.fig_dir = OUT / "figures"
        self.fig_dir.mkdir(parents=True, exist_ok=True)
        # per sweep value: oracle up-and-out, corridor, P*vanilla and knock flags on GRID
        self.figure_refs = {}
        for name, values in SWEEPS:
            for value in values:
                r = oracles.Reference(**{**REF, name: value}, strike=STRIKE, maturity=MATURITY)
                x = np.array([r.log_forward(s) for s in GRID])
                self.figure_refs[name, value] = {
                    "single": [r.up_and_out(s, UPPER) for s in GRID],
                    "double": [r.corridor(s, LOWER, UPPER) for s in GRID],
                    "vanilla": [r.vanilla(s) for s in GRID],
                    "single_out": list(x >= UPPER),
                    "double_out": list((x <= LOWER) | (x >= UPPER)),
                }
        # corridor sweep: the spot sits at a seeded point of the corridor's middle
        self.corridors = []
        for tau in SWEEP_MATURITIES:
            r = oracles.Reference(**REF, strike=STRIKE, maturity=float(tau))
            for lower, upper in SWEEP_WALLS:
                spot = r.bond * math.exp(lower + rng.uniform(0.3, 0.7) * (upper - lower))
                self.corridors.append((float(tau), lower, upper, spot,
                                       r.corridor(spot, lower, upper), r.vanilla(spot)))

    @staticmethod
    def _figure_argv(name, values, kind, path):
        argv = ["curve", "--grid", "85:128:25", "--sweep",
                f"{name}=" + ",".join(repr(v) for v in values),
                "--format", path.suffix[1:], "--out", str(path)]
        if kind == "double":
            argv += ["--barrier-low", repr(LOWER), "--barrier-high", repr(UPPER)]
        return argv

    def run_round(self, index: int) -> Round:
        rnd = Round()
        # The single prices and the verify calls are spread between the figure
        # jobs, so that they sample the whole round: this host's speed drifts
        # by up to a third from one second to the next.
        jobs = 4 * len(SWEEPS)
        slices = iter(np.array_split(np.tile(GRID[self.order], self.PRICE_REPS), jobs))
        verify = iter(range(self.VERIFY_CALLS * index, self.VERIFY_CALLS * (index + 1)))
        step = jobs // self.VERIFY_CALLS

        def between(job):
            for spot in next(slices):
                self._analytic_pair(rnd, spot, reps=1)
            if job % step == 0:
                self._price_verify(rnd, mc_seed(self.seed, next(verify)))

        self._figures(rnd, between)
        self._corridor_sweep(rnd)
        return rnd

    def _figures(self, rnd: Round, between=lambda job: None) -> None:
        """The 12 figure jobs, calling `between(job index)` after each."""
        cli = self.vb.cli
        job = 0
        for name, values in SWEEPS:
            csv = {}
            for kind in ("single", "double"):
                for fmt in ("csv", "svg"):
                    path = self.fig_dir / f"{kind}_{name}.{fmt}"
                    path.unlink(missing_ok=True)  # a failed call must not leave last round's file
                    argv = self._figure_argv(name, values, kind, path)
                    code, _ = rnd.call(cli.main, argv)
                    rnd.prices += len(values) * GRID.size
                    text = path.read_text(encoding="utf-8") if path.exists() else ""
                    rnd.outputs.append(text)
                    checks = {"exit_code": code == 0}
                    if fmt == "svg":
                        checks["svg"] = (text.startswith("<svg") and text.endswith("</svg>\n")
                                         and text.count("<polyline") == len(values))
                    else:
                        csv[kind] = text
                    rnd.operation(checks, f"vasicek-barrier {' '.join(argv)} -> exit {code}")
                    between(job)
                    job += 1
            self._check_csv(rnd, name, values, csv)

    def _check_csv(self, rnd: Round, name, values, csv: dict) -> None:
        header = ["spot"] + [f"{name}={v:g}" for v in values]
        tables = {}
        for kind, text in csv.items():
            lines = text.splitlines() or [""]
            rows = [line.split(",") for line in lines[1:]]
            table = None
            if lines[0].split(",") == header and len(rows) == GRID.size \
                    and all(len(row) == len(header) for row in rows):
                try:
                    table = np.array(rows, dtype=float)
                except ValueError:  # a cell that is not a number
                    pass
            rnd.operation({"csv_shape": table is not None}, f"{kind}_{name}.csv header/shape")
            tables[kind] = table
        single = tables.get("single")
        for kind, table in tables.items():
            if table is None:
                continue
            for j, value in enumerate(values):
                want = self.figure_refs[name, value]
                for i, spot in enumerate(GRID):
                    got = table[i, j + 1]
                    checks = {
                        "no_nan": not math.isnan(got),
                        "oracle": oracles.close(got, want[kind][i]),
                        "knocked_out": got == 0.0 or not want[f"{kind}_out"][i],
                    }
                    if kind == "double" and single is not None:
                        checks["ordering"] = 0.0 <= got and _below(got, single[i, j + 1])
                    if kind == "single":
                        checks["ordering"] = 0.0 <= got and _below(got, want["vanilla"][i])
                    rnd.operation(checks, f"{kind}_{name}.csv {name}={value:g} S={spot:g}: "
                                          f"{got!r} vs oracle {want[kind][i]!r}")

    def _corridor_sweep(self, rnd: Round) -> None:
        vb = self.vb
        for tau, lower, upper, spot, want, pv in self.corridors:
            spec = vb.OptionSpec.double(STRIKE, tau, lower, upper)
            got, _ = rnd.call(vb.pricer.price_double_barrier, self._state(spot), spec, self.params)
            rnd.prices += 1
            rnd.outputs.append(got.price)
            rnd.operation({"oracle": oracles.close(got.price, want),
                           "knocked_out": not got.knocked_out,
                           "ordering": 0.0 <= got.price and _below(got.price, pv)},
                          f"corridor tau={tau:.5g} [{lower:.5f}, {upper:.5f}] S={spot:.6g}: "
                          f"{got.price!r} vs oracle {want!r}")

    def _price_verify(self, rnd: Round, seed: int) -> None:
        argv = ["price", "--spot", "110", "--verify", "--paths", str(self.VERIFY_PATHS),
                "--steps", str(self.VERIFY_STEPS), "--seed", str(seed)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, dt = rnd.call(self.vb.cli.main, argv)
        try:
            _, price, mean, se = (float(f) for f in out.getvalue().split(","))
        except ValueError:  # not the four numbers spot,price,mean,std_error
            price = mean = se = math.nan
        want = self.ref.up_and_out(110.0, UPPER)
        rnd.prices += 2
        rnd.outputs.append(out.getvalue())
        path_steps = self.VERIFY_PATHS * math.ceil(MATURITY * self.VERIFY_STEPS)
        rnd.mc.append((dt, path_steps, se, True))
        rnd.operation({"exit_code": code == 0,
                       "oracle": oracles.close(price, want),
                       "mc_oracle": oracles.mc_agrees(want, mean, se, self.VERIFY_PATHS,
                                                      math.exp(UPPER) - STRIKE)},
                      f"vasicek-barrier {' '.join(argv)} -> exit {code}: {out.getvalue()!r}")


class MCSingle(_Workload):
    """Bridge-corrected forward MC of the up-and-out at spots 90..120."""

    name = "mc-single"
    SPOTS = (90.0, 100.0, 110.0, 120.0)
    ANALYTIC_REPS = 4

    def __init__(self, vb, seed: int, paths: int = 2 * MC_BLOCK, steps: int = 512):
        super().__init__(vb, seed)
        self.paths, self.steps = paths, steps
        self.want = {s: self.ref.up_and_out(s, UPPER) for s in self.SPOTS}
        for want in self.want.values():
            _require_detectable(want, paths, math.exp(UPPER) - STRIKE)

    def run_round(self, index: int) -> Round:
        vb = self.vb
        rnd = Round()
        cfg = vb.MCConfig(n_paths=self.paths, n_steps=self.steps, seed=mc_seed(self.seed, index))
        for spot in self.SPOTS:
            self._analytic_pair(rnd, spot, self.ANALYTIC_REPS)
            self._mc(rnd, vb.mc_oracle.price_barrier_mc,
                     (self._state(spot), self.single, self.params, cfg), self.want[spot],
                     math.exp(UPPER) - STRIKE, f"forward MC up-and-out S={spot:g}")
        return rnd


class MCCorridor(_Workload):
    """Forward and two-factor MC of the corridor at spot 110, plus the bond.

    The corridor estimates run at a quarter-year maturity, where about a
    fifth of the paths survive and the price (2.68) is about a thousand
    times the rule-of-three floor, so an estimator that knocks out too many
    paths fails its check.  At the acceptance gate's one-year maturity the
    price is 8.4e-4: 32768 paths keep about three survivors, and an
    estimate of 0 would pass.  `steps` counts steps per path; the bond runs
    over one year.
    """

    name = "mc-corridor"
    SPOT = 110.0
    CORRIDOR_MATURITY = 0.25
    ANALYTIC_REPS = 2  # before each of the three estimates

    def __init__(self, vb, seed: int, paths: int = 2 * MC_BLOCK, steps: int = 512):
        super().__init__(vb, seed)
        self.paths, self.steps = paths, steps
        self.corridor = vb.OptionSpec.double(STRIKE, self.CORRIDOR_MATURITY, LOWER, UPPER)
        ref = oracles.Reference(**REF, strike=STRIKE, maturity=self.CORRIDOR_MATURITY)
        self.want = ref.corridor(self.SPOT, LOWER, UPPER)
        _require_detectable(self.want, paths, math.exp(UPPER) - STRIKE)

    def run_round(self, index: int) -> Round:
        vb = self.vb
        rnd = Round()
        seed = mc_seed(self.seed, index)
        cfg = vb.MCConfig(n_paths=self.paths, n_steps=round(self.steps / self.CORRIDOR_MATURITY),
                          seed=seed)
        args = (self._state(self.SPOT), self.corridor, self.params, cfg)
        cap = math.exp(UPPER) - STRIKE
        self._analytic_pair(rnd, self.SPOT, self.ANALYTIC_REPS)
        fwd = self._mc(rnd, vb.mc_oracle.price_barrier_mc, args, self.want, cap,
                       "forward MC corridor S=110")
        self._analytic_pair(rnd, self.SPOT, self.ANALYTIC_REPS)
        two = self._mc(rnd, vb.mc_oracle.price_barrier_mc_two_factor, args, self.want, cap,
                       "two-factor MC corridor S=110")
        bound = oracles.mc_bound(math.hypot(fwd.std_error, two.std_error), self.paths, cap)
        rnd.operation({"mc_cross": abs(fwd.mean - two.mean) <= bound},
                      f"forward {fwd.mean!r} vs two-factor {two.mean!r} (bound {bound!r})")
        bond_cfg = vb.MCConfig(n_paths=self.paths, n_steps=self.steps, seed=seed)
        self._analytic_pair(rnd, self.SPOT, self.ANALYTIC_REPS)
        self._mc(rnd, vb.mc_oracle.bond_mc, (REF["r0"], MATURITY, self.params, bond_cfg),
                 self.ref.bond, 1.0, "bond MC", is_option=False)
        return rnd


WORKLOADS = {w.name: w for w in (Analytic, MCSingle, MCCorridor)}
