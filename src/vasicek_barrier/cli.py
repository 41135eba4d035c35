"""Command-line front end: price, curve and verify jobs.

Configuration is resolved in three layers (later wins): built-in defaults
matching the reference figure parameters, a flat key=value config file given
with --config, and command-line flags.  One argparse parser reads all three:
the command is its positional argument, a flag may come before or after it,
and each line of the file is a --key=value flag read ahead of the command
line.  `--verify` is `price`'s alone.  The library's types (`VasicekParams`,
`MarketState`, `OptionSpec`) then validate the values, and a value they
reject is a configuration error that names its field.  Outputs (CSV or SVG)
are byte-identical for identical resolved configurations.

`price` imports only the standard library and the production core; numpy
and the oracle modules load inside the functions that use them (`curve`
through `pricer.price_curve`, `verify`, `price --verify`).

`verify` computes every production value it compares first, then runs one
table of named oracle checks, one output line per row; its loop's one
failure path FAILs the row of an oracle that cannot evaluate the inputs.

Exit codes: 0 success, 1 configuration error, 2 price requested for a
knocked-out spot, 3 verification failure, 4 a curve row failed to price
(each failed row is reported on stderr), 5 a pricing error: the model or
the option cannot be valued (an explosive model, a barrier level that
overflows a float), reported as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from . import model, pricer

if TYPE_CHECKING:  # annotations only
    from . import mc_oracle

DEFAULTS = {
    "spot": 110.0,
    "strike": 100.0,
    "maturity": 1.0,
    "barrier": math.log(130.0),
    "barrier_low": None,
    "barrier_high": None,
    "a": 1.0,
    "theta": 0.04,
    "rho": 0.5,
    "sigma1": 0.3,
    "sigma2": 0.3,
    "r0": 0.05,
    "sweep": None,
    "grid": "85:128:25",
    "paths": 1_000_000,
    "steps": 512,
    "seed": 2024,
    "out": None,
    "format": "csv",
}

_FLOAT_KEYS = ("spot", "strike", "maturity", "barrier", "barrier_low",
               "barrier_high", "a", "theta", "rho", "sigma1", "sigma2", "r0")
_INT_KEYS = ("paths", "steps", "seed")

_SWEEPABLE = ("a", "theta", "rho")

# the most spots a curve prices: a 10^5-point grid takes about 2 s a column
_MAX_GRID = 100_000

# spots at which verify compares a pricer with a closed form or with quadrature
_VERIFY_SPOTS = (80.0, 90.0, 100.0, 110.0, 120.0, 125.0)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")


class ConfigError(ValueError):
    """Configuration problem; the message names the offending key."""


@dataclass(frozen=True)
class JobConfig:
    """A resolved job: the library's validated inputs and the run settings.

    ``option`` is the job's option: the corridor when both corridor walls
    are given, else ``single``, the up-and-out at ``--barrier``, which
    `verify` checks beside the corridor.
    """

    command: str
    state: pricer.MarketState
    params: model.VasicekParams
    option: pricer.OptionSpec
    single: pricer.OptionSpec
    sweep_name: str | None
    sweep_params: tuple  # one VasicekParams per sweep value
    grid: tuple  # the curve's spots
    paths: int
    steps: int
    seed: int
    out: str | None
    format: str
    verify_mc: bool = False

    @property
    def mc_config(self) -> mc_oracle.MCConfig:
        from . import mc_oracle

        return mc_oracle.MCConfig(n_paths=self.paths, n_steps=self.steps, seed=self.seed)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's negative-number pattern has no exponent, so "--a -5e-1"
        # read "-5e-1" as a flag; no flag looks like a number
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):  # argparse would exit(2); remap to config error
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vasicek-barrier",
                     description="Knock-out barrier option pricing under Vasicek rates")
    parser.add_argument("command", choices=("price", "curve", "verify"),
                        help="price one option, a curve over a spot grid, or run the checks")
    parser.add_argument("--config", help="flat key=value file; each line reads as a "
                                          "--key=value flag ahead of the command line")
    for key in _FLOAT_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", type=float, default=DEFAULTS[key])
    parser.add_argument("--sweep", default=DEFAULTS["sweep"], metavar="NAME=V1,V2,...",
                        help="sweep a, theta or rho over listed values (curve)")
    parser.add_argument("--grid", default=DEFAULTS["grid"], metavar="MIN:MAX:N",
                        help="spot grid (curve)")
    for key in _INT_KEYS:
        parser.add_argument(f"--{key}", type=int, default=DEFAULTS[key])
    parser.add_argument("--out", default=DEFAULTS["out"], help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "svg"), default=DEFAULTS["format"])
    parser.add_argument("--verify", action="store_true",
                        help="also report a Monte Carlo estimate (price)")
    return parser


def _config_flags(path: str) -> list:
    """The ``--key=value`` flag of each ``key=value`` line of a config file."""
    flags = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if key not in DEFAULTS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        flags.append(f"--{key.replace('_', '-')}={value.strip()}")
    return flags


def _parse_args(parser: _Parser, argv: list) -> argparse.Namespace:
    """Parse argv, reading a config file's flags ahead of it, so that the
    file overrides the defaults and the command line overrides the file."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    return parser.parse_args([*_config_flags(args.config), *argv])


def _parse_sweep(text: str | None) -> tuple[str | None, tuple]:
    if text is None:
        return None, ()
    if "=" not in text:
        raise ConfigError(f"sweep: expected NAME=V1,V2,..., got {text!r}")
    name, _, rest = text.partition("=")
    name = name.strip().lower()
    if name not in _SWEEPABLE:
        raise ConfigError(f"sweep: parameter must be one of {_SWEEPABLE}, got {name!r}")
    try:
        values = tuple(float(v) for v in rest.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"sweep: bad value list {rest!r}") from exc
    if not values:
        raise ConfigError("sweep: value list is empty")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"sweep: values must be finite numbers, got {rest!r}")
    return name, values


def _parse_grid(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid: expected MIN:MAX:N, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"grid: bad component in {text!r}") from exc
    if n < 2:
        raise ConfigError(f"grid: need at least 2 points, got {n}")
    if n > _MAX_GRID:
        raise ConfigError(f"grid: {n} points, past the limit of {_MAX_GRID}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"grid: MIN and MAX must be finite, got {text!r}")
    if not lo < hi:
        raise ConfigError(f"grid: need MIN < MAX, got {text!r}")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"grid: the span MAX - MIN of {text!r} is past the float range")
    # the curve's spots, the floats np.linspace makes: MIN + i * step, then MAX
    step = (hi - lo) / (n - 1)
    spots = [lo + i * step for i in range(n - 1)] + [hi]
    if not all(s < t for s, t in zip(spots, spots[1:])):
        raise ConfigError(f"grid: the {n} points of {text!r} are not strictly increasing: "
                          f"the span is too narrow for {n} distinct floats")
    return tuple(spots)


def _resolve(args: argparse.Namespace) -> JobConfig:
    """Check what the library cannot, then build its objects, which check the rest.

    A value the library rejects (a non-finite number, a negative strike,
    reversed walls, rho = 2) is a configuration error, named by the field
    in the library's message.
    """
    if args.verify and args.command != "price":
        raise ConfigError(f"verify: --verify is a price flag, not a {args.command} one")
    if (args.barrier_low is None) != (args.barrier_high is None):
        raise ConfigError("barrier_low/barrier_high: both are needed for a double barrier")
    try:
        params = model.VasicekParams(a=args.a, theta=args.theta, sigma1=args.sigma1,
                                     sigma2=args.sigma2, rho=args.rho, r0=args.r0)
        state = pricer.MarketState(spot=args.spot, rate=args.r0)
        single = pricer.OptionSpec.single_up(args.strike, args.maturity, args.barrier)
        option = single if args.barrier_low is None else pricer.OptionSpec.double(
            args.strike, args.maturity, args.barrier_low, args.barrier_high)
    except ValueError as exc:
        raise ConfigError(exc) from exc
    for key in ("paths", "steps"):  # MCConfig checks them too, but loads numpy
        if getattr(args, key) < 1:
            raise ConfigError(f"{key}: must be at least 1, got {getattr(args, key)}")
    sweep_name, sweep_values = _parse_sweep(args.sweep)
    grid = _parse_grid(args.grid)
    try:  # a sweep value the model rejects, such as rho=2
        variants = tuple(replace(params, **{sweep_name: v}) for v in sweep_values)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    return JobConfig(command=args.command, state=state, params=params, option=option,
                     single=single, sweep_name=sweep_name, sweep_params=variants, grid=grid,
                     paths=args.paths, steps=args.steps, seed=args.seed, out=args.out,
                     format=args.format, verify_mc=args.verify)


def _fmt(x: float) -> str:
    """Shortest decimal representation that round-trips."""
    return repr(float(x))


def run_price(cfg: JobConfig) -> int:
    """Price one option; one CSV-formatted line on stdout."""
    result = pricer.price(cfg.state, cfg.option, cfg.params)
    fields = [_fmt(cfg.state.spot), _fmt(result.price)]
    if cfg.verify_mc:
        from . import mc_oracle

        est = mc_oracle.price_barrier_mc(cfg.state, cfg.option, cfg.params, cfg.mc_config)
        fields += [_fmt(est.mean), _fmt(est.std_error)]
    print(",".join(fields))
    return 2 if result.knocked_out else 0


def _curve_columns(cfg: JobConfig) -> tuple[list, tuple, list, list]:
    """Labels, spots, one price column per sweep value, and the failed rows.

    Each failed row is a (label, spot, error message) triple.
    """
    spots = cfg.grid
    if cfg.sweep_name is None:
        labels = ["price"]
        variants = [cfg.params]
    else:
        variants = cfg.sweep_params
        labels = [f"{cfg.sweep_name}={getattr(q, cfg.sweep_name):g}" for q in variants]
    curves = [pricer.price_curve(spots, cfg.option, p) for p in variants]
    failed = [(label, s, err) for label, curve in zip(labels, curves)
              for s, err in zip(spots, curve.errors) if err is not None]
    return labels, spots, [curve.prices for curve in curves], failed


def _render_csv(labels, spots, columns) -> str:
    lines = ["spot," + ",".join(labels)]
    for i, s in enumerate(spots):
        lines.append(",".join([_fmt(s)] + [_fmt(col[i]) for col in columns]))
    return "\n".join(lines) + "\n"


def _render_svg(labels, spots, columns) -> str:
    width, height = 720.0, 480.0
    ml, mr, mt, mb = 70.0, 24.0, 24.0, 56.0
    x0, x1 = spots[0], spots[-1]
    top = max((v for c in columns for v in c if math.isfinite(v)), default=0.0)
    y1 = 1.05 * (top if top > 0 else 1.0)

    def sx(v):
        return ml + (v - x0) / (x1 - x0) * (width - ml - mr)

    def sy(v):
        return height - mb - v / y1 * (height - mt - mb)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
             f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
             '<rect width="100%" height="100%" fill="white"/>']
    axis = f'stroke="black" stroke-width="1"'
    parts.append(f'<line x1="{ml:g}" y1="{height - mb:g}" x2="{width - mr:g}" '
                 f'y2="{height - mb:g}" {axis}/>')
    parts.append(f'<line x1="{ml:g}" y1="{mt:g}" x2="{ml:g}" y2="{height - mb:g}" {axis}/>')
    for i in range(6):
        xv = x0 + (x1 - x0) * i / 5.0
        yv = y1 * i / 5.0
        parts.append(f'<line x1="{sx(xv):.2f}" y1="{height - mb:g}" x2="{sx(xv):.2f}" '
                     f'y2="{height - mb + 5:g}" {axis}/>')
        parts.append(f'<text x="{sx(xv):.2f}" y="{height - mb + 20:g}" font-size="12" '
                     f'text-anchor="middle">{xv:.6g}</text>')
        parts.append(f'<line x1="{ml - 5:g}" y1="{sy(yv):.2f}" x2="{ml:g}" '
                     f'y2="{sy(yv):.2f}" {axis}/>')
        parts.append(f'<text x="{ml - 9:g}" y="{sy(yv):.2f}" font-size="12" '
                     f'text-anchor="end" dominant-baseline="middle">{yv:.6g}</text>')
    parts.append(f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 12:g}" '
                 f'font-size="13" text-anchor="middle">spot</text>')
    for k, (label, col) in enumerate(zip(labels, columns)):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{sx(s):.2f},{sy(v):.2f}"
                       for s, v in zip(spots, col) if math.isfinite(v))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = mt + 16 + 18 * k
        parts.append(f'<line x1="{width - mr - 150:g}" y1="{ly:g}" '
                     f'x2="{width - mr - 122:g}" y2="{ly:g}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - mr - 116:g}" y="{ly + 4:g}" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"out: cannot write {out}: {exc}") from exc


def run_curve(cfg: JobConfig) -> int:
    """Write the price curve as CSV (or an SVG line chart).

    Failed rows are written as NaN and reported on stderr; the exit code is
    then 4.
    """
    labels, spots, columns, failed = _curve_columns(cfg)
    if cfg.format == "svg":
        _write_out(_render_svg(labels, spots, columns), cfg.out)
    else:
        _write_out(_render_csv(labels, spots, columns), cfg.out)
    for label, spot, err in failed:
        print(f"error: {label} at spot {_fmt(spot)}: {err}", file=sys.stderr)
    return 4 if failed else 0


def _mc_check(analytic: float, est: mc_oracle.MCEstimate,
              payoff_cap: float) -> tuple[bool, str]:
    """Three-sigma consistency of an analytic value with an MC estimate.

    A NaN or infinite estimate or standard error fails as such.  The
    z-test's scale is the standard error floored at 4 eps |analytic|, the
    rounding of the two values, so a near-deterministic model whose
    antithetic pairs cancel its noise is not held to a standard error below
    float resolution.  A zero standard error means every sampled path paid
    the same amount (typically zero survivors at smoke scale); the rule of
    three then bounds the unobserved event probability by 3/n, and the
    payoff cap turns that into a bound on the estimator gap.
    """
    if not (math.isfinite(est.mean) and math.isfinite(est.std_error)):
        return False, (f"non-finite estimate: mc {est.mean!r} +- {est.std_error!r} "
                       f"(analytic {analytic:.6g})")
    if est.std_error > 0.0:
        scale = max(est.std_error, 4.0 * sys.float_info.epsilon * abs(analytic))
        z = abs(analytic - est.mean) / scale
        return z <= 3.0, (f"|z|={z:.2f} (analytic {analytic:.6g}, "
                          f"mc {est.mean:.6g} +- {est.std_error:.2e})")
    bound = 3.0 / est.n_paths * payoff_cap
    return abs(analytic - est.mean) <= bound, (
        f"degenerate sample: |diff|={abs(analytic - est.mean):.3e} "
        f"<= rule-of-three bound {bound:.3e}")


def _bond_ode_check(analytic_bond: float, ode_bond: float) -> tuple[bool, str]:
    """The closed-form bond against the ODE's."""
    rel = abs(analytic_bond - ode_bond) / abs(ode_bond)
    return rel <= 1e-8, f"rel={rel:.2e} (analytic {analytic_bond:.10g}, ode {ode_bond:.10g})"


def _rel_check(ours, oracle, over: str) -> tuple[bool, str]:
    """Production prices against an oracle's, to 1e-9 relative (floored at 1e-12)."""
    worst = max(abs(o - q) / max(abs(q), 1e-12) for o, q in zip(ours, oracle))
    return worst <= 1e-9, f"max rel={worst:.2e} over {over}"


def _composition_check(kernel, draw, lo: float, hi: float, split: float,
                       total: float) -> tuple[bool, str]:
    """Chapman-Kolmogorov over (lo, hi) at ten start pairs (x, x') = draw().

    The integral is clipped to 12 standard deviations of the total variance
    beyond the pair, where each kernel factor is below e^-72 of its peak,
    so that the panels do not miss a kernel far narrower than (lo, hi).

    The second factor of kernel(x, x', v) is evaluated with its arguments
    swapped via the prefactor symmetry k(z, y) = e^{z-y} k(y, z), which
    keeps the vectorized argument in the x' slot; where e^{z-y} overflows,
    the quadrature raises on the non-finite integrand, with no numpy warning.
    Where every kernel value and integral is exactly 0 (a kernel that
    underflows), the row compares nothing and FAILs by that cause.
    """
    import numpy as np

    from . import quadrature

    reach = 12.0 * math.sqrt(total)
    worst = largest = 0.0
    for _ in range(10):
        x, xp = draw()
        with np.errstate(over="ignore", invalid="ignore"):
            val, _ = quadrature.integrate(
                lambda z: kernel(x, z, split) * kernel(xp, z, total - split) * np.exp(z - xp),
                max(lo, min(x, xp) - reach), min(hi, max(x, xp) + reach))
        direct = kernel(x, xp, total)
        worst = max(worst, abs(val - direct))
        largest = max(largest, abs(val), abs(direct))
    if largest == 0.0:
        return False, (f"every kernel value and integral is 0 over 10 pairs at v={total:.3g}: "
                       f"the kernel underflows, so nothing is compared")
    return worst <= 1e-8, f"max abs={worst:.2e} over 10 pairs"


def _verify_checks(cfg: JobConfig):
    """Yield (name, passed, detail) for each oracle cross-check.

    Production values of the user's model come first, so that an error in
    production code (an explosive model, a barrier level past the float
    range) raises its ValueError before any check and is never taken for an
    oracle's.  Then one table row per check, (name, check), in output order:
    each check runs its oracle and returns (passed, detail).  One loop runs
    the table, and its one failure path FAILs by name a check whose oracle
    cannot evaluate the inputs (ValueError or QuadratureError: a quadrature
    past its panel budget, MC paths or the bond ODE past the float range, a
    bond MC whose log discount no run can sample).  The constant-rate
    reduction prices a model of its own (theta = r0, sigma2 = 0) inside its
    row, so an input that model cannot value FAILs that row alone.
    """
    import numpy as np

    from . import kernels, mc_oracle, quad_oracle, quadrature

    p, state, single, mc_cfg = cfg.params, cfg.state, cfg.single, cfg.mc_config
    strike, tau, barrier = single.strike, single.maturity, single.log_barriers[0]
    # no corridor given: [ln 100, barrier], or one as wide below a barrier at or under ln 100
    below = math.log(100.0) if math.log(100.0) < barrier else barrier - math.log(1.3)
    double = (cfg.option if cfg.option.barrier_kind == pricer.DOUBLE
              else pricer.OptionSpec.double(strike, tau, below, barrier))
    low, high = double.walls
    const = replace(p, theta=p.r0, sigma2=0.0)
    spot_states = [pricer.MarketState(spot=s, rate=p.r0, time=0.0) for s in _VERIFY_SPOTS]
    cases = [(st, option) for st in spot_states for option in (single, double)]

    pricer.log_forward(state, single, p)  # raises on an explosive model, by name
    bond = model.bond_price(p.r0, 0.0, tau, p)
    ana_s = pricer.price_single_barrier(state, single, p).price
    ana_d = pricer.price_double_barrier(state, double, p).price
    ours = [pricer.price(st, option, p).price for st, option in cases]
    sig = model.integrated_variance(0.0, tau, tau, p)
    split = model.integrated_variance(0.0, 0.4 * tau, tau, p)

    cap_single = max(math.exp(barrier) - strike, 0.0)
    disc = math.exp(-p.r0 * tau)
    rng = np.random.default_rng(1234)

    # start pairs where the kernels are not 0: both within 3 sd of the
    # barrier, or x' within 3 sd of x inside the corridor
    def near_the_wall():
        return tuple(barrier - rng.uniform(0.05, 3.0) * math.sqrt(sig) for _ in range(2))

    def inside_corridor():
        inner = (low + 0.05 * (high - low), high - 0.05 * (high - low))
        x = rng.uniform(*inner)
        return x, min(max(x + rng.uniform(-3.0, 3.0) * math.sqrt(sig), inner[0]), inner[1])
    checks = (
        ("bond vs monte carlo",
         lambda: _mc_check(bond, mc_oracle.bond_mc(p.r0, tau, p, mc_cfg), 1.0)),
        ("bond vs ode solution",
         lambda: _bond_ode_check(bond, quad_oracle.bond_price_from_ode(p.r0, 0.0, tau, p))),
        ("single barrier vs forward-measure mc",
         lambda: _mc_check(ana_s, mc_oracle.price_barrier_mc(state, single, p, mc_cfg),
                           cap_single)),
        ("single barrier vs two-factor mc",
         lambda: _mc_check(ana_s, mc_oracle.price_barrier_mc_two_factor(
             state, single, p, mc_cfg), cap_single)),
        ("double barrier vs forward-measure mc",
         lambda: _mc_check(ana_d, mc_oracle.price_barrier_mc(state, double, p, mc_cfg),
                           max(math.exp(high) - strike, 0.0))),
        ("constant-rate closed-form reduction",
         lambda: _rel_check(
             [pricer.price_single_barrier(st, single, const).price for st in spot_states],
             [quad_oracle.up_and_out_call_constant_rate(
                 s / disc, strike, math.exp(barrier), p.r0, p.sigma1, tau,
                 dividend_yield=p.r0) for s in _VERIFY_SPOTS],
             "6 spots; holds the production image sum, the bond and the variance mapping "
             "to the textbook constant-rate reflection formula")),
        ("closed form vs kernel quadrature",
         lambda: _rel_check(ours, [quad_oracle.price_by_quadrature(st, option, p).price
                                   for st, option in cases],
                            "6 spots, both barrier kinds")),
        ("chapman-kolmogorov (single kernel)",
         lambda: _composition_check(
             lambda x, xp, v: kernels.barrier_kernel(x, xp, v, barrier),
             near_the_wall,
             barrier - 12.0 * math.sqrt(sig), barrier, split, sig)),
        ("chapman-kolmogorov (double kernel)",
         lambda: _composition_check(
             lambda x, xp, v: kernels.double_barrier_kernel(x, xp, v, low, high),
             inside_corridor,
             low, high, split, sig)),
    )
    for name, check in checks:
        try:
            passed, detail = check()
        except (ValueError, quadrature.QuadratureError) as exc:
            passed, detail = False, (f"oracle cannot evaluate these inputs: "
                                     f"{type(exc).__name__}: {exc}")
        yield name, passed, detail


def run_verify(cfg: JobConfig) -> int:
    """Run the oracle cross-checks; exit 3 if any fails."""
    failures = 0
    for name, passed, detail in _verify_checks(cfg):
        print(f"{'PASS' if passed else 'FAIL'}  {name:42s} {detail}")
        failures += 0 if passed else 1
    if failures:
        print(f"{failures} check(s) failed")
        return 3
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        cfg = _resolve(_parse_args(parser, sys.argv[1:] if argv is None else list(argv)))
        if cfg.command == "price":
            return run_price(cfg)
        if cfg.command == "curve":
            return run_curve(cfg)
        return run_verify(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a valid configuration the pricers cannot value
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
