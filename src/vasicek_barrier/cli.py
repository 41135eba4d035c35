"""Command-line front end: price, curve and verify jobs.

Configuration is resolved in three layers (later wins): built-in defaults
matching the reference figure parameters, a flat key=value config file given
with --config, and command-line flags.  Outputs (CSV or SVG) are
byte-identical for identical resolved configurations.

Exit codes: 0 success, 1 configuration error, 2 price requested for a
knocked-out spot, 3 verification failure, 4 a curve row failed to price
(each failed row is reported on stderr), 5 a pricing error: the model or
the option cannot be valued (an explosive model, a barrier level that
overflows a float), reported as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import kernels, mc_oracle, model, pricer, quad_oracle, quadrature

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

# spots at which verify compares a pricer with a closed form or with quadrature
_VERIFY_SPOTS = (80.0, 90.0, 100.0, 110.0, 120.0, 125.0)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")


class ConfigError(ValueError):
    """Configuration problem; the message names the offending key."""


@dataclass(frozen=True)
class JobConfig:
    command: str
    spot: float
    strike: float
    maturity: float
    barrier: float
    barrier_low: float | None
    barrier_high: float | None
    a: float
    theta: float
    rho: float
    sigma1: float
    sigma2: float
    r0: float
    sweep_name: str | None
    sweep_values: tuple
    grid: tuple
    paths: int
    steps: int
    seed: int
    out: str | None
    format: str
    verify_mc: bool = False

    @property
    def params(self) -> model.VasicekParams:
        return model.VasicekParams(a=self.a, theta=self.theta, sigma1=self.sigma1,
                                   sigma2=self.sigma2, rho=self.rho, r0=self.r0)

    @property
    def option(self) -> pricer.OptionSpec:
        if self.barrier_low is not None:
            return pricer.OptionSpec.double(self.strike, self.maturity,
                                            self.barrier_low, self.barrier_high)
        return pricer.OptionSpec.single_up(self.strike, self.maturity, self.barrier)

    @property
    def mc_config(self) -> mc_oracle.MCConfig:
        return mc_oracle.MCConfig(n_paths=self.paths, n_steps=self.steps, seed=self.seed)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to config error
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vasicek-barrier",
                     description="Knock-out barrier option pricing under Vasicek rates")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "price": "price one option at one spot",
        "curve": "price over a spot grid, optionally sweeping a parameter",
        "verify": "run the oracle cross-checks",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="flat key=value config file")
        for key in _FLOAT_KEYS:
            sp.add_argument(f"--{key.replace('_', '-')}", type=float, default=None)
        sp.add_argument("--sweep", default=None, metavar="NAME=V1,V2,...",
                        help="sweep a, theta or rho over listed values (curve)")
        sp.add_argument("--grid", default=None, metavar="MIN:MAX:N",
                        help="spot grid (curve)")
        sp.add_argument("--paths", type=int, default=None)
        sp.add_argument("--steps", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", dest="fmt", choices=("csv", "svg"), default=None)
        if name == "price":
            sp.add_argument("--verify", action="store_const", const=True, default=None,
                            help="also report a Monte Carlo estimate")
    return parser


def _parse_config_file(path: str) -> dict:
    values = {}
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
        value = value.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _coerce(key: str, value):
    if value is None or not isinstance(value, str):
        return value
    if key in _FLOAT_KEYS:
        try:
            return float(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: not a number: {value!r}") from exc
    if key in _INT_KEYS:
        try:
            return int(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: not an integer: {value!r}") from exc
    return value


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
    if not lo < hi:
        raise ConfigError(f"grid: need MIN < MAX, got {text!r}")
    return lo, hi, n


def _resolve(args: argparse.Namespace) -> JobConfig:
    values = dict(DEFAULTS)
    if args.config:
        values.update(_parse_config_file(args.config))
    for key in (*_FLOAT_KEYS, *_INT_KEYS, "sweep", "grid", "out"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "fmt", None) is not None:
        values["format"] = args.fmt
    values = {k: _coerce(k, v) for k, v in values.items()}

    for key in _FLOAT_KEYS:
        if values[key] is not None and not math.isfinite(values[key]):
            raise ConfigError(f"{key}: must be a finite number, got {values[key]}")
    for key in ("spot", "strike", "maturity"):
        if values[key] is None or values[key] <= 0:
            raise ConfigError(f"{key}: must be a positive number, got {values[key]}")
    if (values["barrier_low"] is None) != (values["barrier_high"] is None):
        raise ConfigError("barrier_low/barrier_high: both are needed for a double barrier")
    if values["barrier_low"] is not None and not values["barrier_low"] < values["barrier_high"]:
        raise ConfigError("barrier_low: must lie below barrier_high")
    for key in ("sigma1", "sigma2"):
        if values[key] < 0:
            raise ConfigError(f"{key}: must be non-negative, got {values[key]}")
    if not -1.0 <= values["rho"] <= 1.0:
        raise ConfigError(f"rho: must lie in [-1, 1], got {values['rho']}")
    for key in ("paths", "steps"):
        if values[key] < 1:
            raise ConfigError(f"{key}: must be at least 1, got {values[key]}")
    if values["format"] not in ("csv", "svg"):
        raise ConfigError(f"format: must be csv or svg, got {values['format']!r}")
    sweep_name, sweep_values = _parse_sweep(values["sweep"])
    grid = _parse_grid(values["grid"])

    return JobConfig(
        command=args.command,
        spot=values["spot"], strike=values["strike"], maturity=values["maturity"],
        barrier=values["barrier"], barrier_low=values["barrier_low"],
        barrier_high=values["barrier_high"],
        a=values["a"], theta=values["theta"], rho=values["rho"],
        sigma1=values["sigma1"], sigma2=values["sigma2"], r0=values["r0"],
        sweep_name=sweep_name, sweep_values=sweep_values, grid=grid,
        paths=values["paths"], steps=values["steps"], seed=values["seed"],
        out=values["out"], format=values["format"],
        verify_mc=bool(getattr(args, "verify", None)),
    )


def _fmt(x: float) -> str:
    """Shortest decimal representation that round-trips."""
    return repr(float(x))


def run_price(cfg: JobConfig) -> int:
    """Price one option; one CSV-formatted line on stdout."""
    state = pricer.MarketState(spot=cfg.spot, rate=cfg.r0, time=0.0)
    result = pricer.price(state, cfg.option, cfg.params)
    fields = [_fmt(cfg.spot), _fmt(result.price)]
    if cfg.verify_mc:
        est = mc_oracle.price_barrier_mc(state, cfg.option, cfg.params, cfg.mc_config)
        fields += [_fmt(est.mean), _fmt(est.std_error)]
    print(",".join(fields))
    return 2 if result.knocked_out else 0


def _curve_columns(cfg: JobConfig) -> tuple[list, np.ndarray, list, list]:
    """Labels, spots, one price column per sweep value, and the failed rows.

    Each failed row is a (label, spot, error message) triple.
    """
    spots = np.linspace(cfg.grid[0], cfg.grid[1], cfg.grid[2])
    if cfg.sweep_name is None:
        labels = ["price"]
        variants = [cfg.params]
    else:
        labels = [f"{cfg.sweep_name}={v:g}" for v in cfg.sweep_values]
        variants = [replace(cfg.params, **{cfg.sweep_name: v}) for v in cfg.sweep_values]
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
    x0, x1 = float(spots[0]), float(spots[-1])
    finite = np.concatenate([c[np.isfinite(c)] for c in columns])
    y1 = float(finite.max()) if finite.size and finite.max() > 0 else 1.0
    y1 *= 1.05

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
                       for s, v in zip(spots, col) if np.isfinite(v))
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


def _oracle_failure(exc: Exception) -> tuple[bool, str]:
    """(passed, detail) of a check whose oracle cannot evaluate the inputs."""
    return False, f"oracle cannot evaluate these inputs: {type(exc).__name__}: {exc}"


def _mc_oracle_check(analytic: float, estimate, payoff_cap: float) -> tuple[bool, str]:
    """`_mc_check` of the estimate ``estimate()``, or the failure of an MC
    oracle that cannot evaluate the inputs (paths past the float range)."""
    try:
        est = estimate()
    except ValueError as exc:
        return _oracle_failure(exc)
    return _mc_check(analytic, est, payoff_cap)


def _verify_checks(cfg: JobConfig):
    """Yield (name, passed, detail) for each oracle cross-check.

    A model that cannot be valued over the maturity (an explosive bond
    price) raises its ValueError before the first check.  An oracle that
    cannot evaluate the inputs (a corridor kernel past its mode budget, a
    quadrature past its panel budget, MC paths past the float range) fails
    its own check by name.
    """
    p = cfg.params
    tau = cfg.maturity
    mc_cfg = cfg.mc_config
    state = pricer.MarketState(spot=cfg.spot, rate=p.r0, time=0.0)
    single = pricer.OptionSpec.single_up(cfg.strike, tau, cfg.barrier)
    pricer.log_forward(state, single, p)  # raises on an explosive model, by name

    analytic_bond = model.bond_price(p.r0, 0.0, tau, p)
    yield ("bond vs monte carlo",
           *_mc_oracle_check(analytic_bond, lambda: mc_oracle.bond_mc(p.r0, tau, p, mc_cfg),
                             payoff_cap=1.0))

    ode_bond = model.bond_price_from_ode(p.r0, 0.0, tau, p)
    rel = abs(analytic_bond - ode_bond) / abs(ode_bond)
    yield ("bond vs ode solution", rel <= 1e-8,
           f"rel={rel:.2e} (analytic {analytic_bond:.10f}, ode {ode_bond:.10f})")

    ana_s = pricer.price_single_barrier(state, single, p).price
    cap_single = max(math.exp(cfg.barrier) - cfg.strike, 0.0)
    for label, fn in (("forward-measure mc", mc_oracle.price_barrier_mc),
                      ("two-factor mc", mc_oracle.price_barrier_mc_two_factor)):
        yield (f"single barrier vs {label}",
               *_mc_oracle_check(ana_s, lambda: fn(state, single, p, mc_cfg), cap_single))

    low = cfg.barrier_low if cfg.barrier_low is not None else math.log(100.0)
    high = cfg.barrier_high if cfg.barrier_high is not None else cfg.barrier
    double = pricer.OptionSpec.double(cfg.strike, tau, low, high)
    ana_d = pricer.price_double_barrier(state, double, p).price
    yield ("double barrier vs forward-measure mc",
           *_mc_oracle_check(ana_d, lambda: mc_oracle.price_barrier_mc(state, double, p, mc_cfg),
                             max(math.exp(high) - cfg.strike, 0.0)))

    worst = 0.0
    const = model.VasicekParams(a=p.a, theta=p.r0, sigma1=p.sigma1, sigma2=0.0,
                                rho=p.rho, r0=p.r0)
    disc = math.exp(-p.r0 * tau)
    for s in _VERIFY_SPOTS:
        ours = pricer.price_single_barrier(
            pricer.MarketState(spot=s, rate=p.r0, time=0.0), single, const).price
        closed = pricer.up_and_out_call_constant_rate(
            s / disc, cfg.strike, math.exp(cfg.barrier), p.r0, p.sigma1, tau,
            dividend_yield=p.r0)
        denom = max(abs(closed), 1e-12)
        worst = max(worst, abs(ours - closed) / denom)
    yield ("constant-rate closed-form reduction", worst <= 1e-9,
           f"max rel={worst:.2e} over 6 spots; holds the production image sum, the bond "
           f"and the variance mapping to the textbook constant-rate reflection formula")

    cases = [(pricer.MarketState(spot=s, rate=p.r0, time=0.0), option)
             for s in _VERIFY_SPOTS for option in (single, double)]
    ours = [pricer.price(state, option, p).price for state, option in cases]
    try:
        quads = [quad_oracle.price_by_quadrature(state, option, p).price
                 for state, option in cases]
    except (ValueError, quadrature.QuadratureError) as exc:
        yield ("closed form vs kernel quadrature", *_oracle_failure(exc))
    else:
        worst = max(abs(o - q) / max(abs(q), 1e-12) for o, q in zip(ours, quads))
        yield ("closed form vs kernel quadrature", worst <= 1e-9,
               f"max rel={worst:.2e} over 6 spots, both barrier kinds")

    # kernel composition: the second factor is evaluated with its arguments
    # swapped via the prefactor symmetry k(z, y) = e^{z-y} k(y, z), which
    # keeps the vectorized argument in the x' slot
    rng = np.random.default_rng(1234)
    sig = model.integrated_variance(0.0, tau, tau, p)
    split = model.integrated_variance(0.0, 0.4 * tau, tau, p)
    upper = cfg.barrier
    worst = 0.0
    try:
        for _ in range(10):
            x = upper - rng.uniform(0.05, 3.0) * math.sqrt(sig)
            xp = upper - rng.uniform(0.05, 3.0) * math.sqrt(sig)
            lo = upper - 12.0 * math.sqrt(sig)
            val, _ = quadrature.integrate(
                lambda z: kernels.barrier_kernel(x, z, split, upper)
                * kernels.barrier_kernel(xp, z, sig - split, upper) * np.exp(z - xp),
                lo, upper)
            worst = max(worst, abs(val - kernels.barrier_kernel(x, xp, sig, upper)))
    except (ValueError, quadrature.QuadratureError) as exc:
        yield ("chapman-kolmogorov (single kernel)", *_oracle_failure(exc))
    else:
        yield ("chapman-kolmogorov (single kernel)", worst <= 1e-8,
               f"max abs={worst:.2e} over 10 pairs")

    worst = 0.0
    try:
        for _ in range(10):
            x = rng.uniform(low + 0.05 * (high - low), high - 0.05 * (high - low))
            xp = rng.uniform(low + 0.05 * (high - low), high - 0.05 * (high - low))
            val, _ = quadrature.integrate(
                lambda z: kernels.double_barrier_kernel(x, z, split, low, high)
                * kernels.double_barrier_kernel(xp, z, sig - split, low, high)
                * np.exp(z - xp), low, high)
            worst = max(worst, abs(val - kernels.double_barrier_kernel(x, xp, sig, low, high)))
    except (ValueError, quadrature.QuadratureError) as exc:
        yield ("chapman-kolmogorov (double kernel)", *_oracle_failure(exc))
    else:
        yield ("chapman-kolmogorov (double kernel)", worst <= 1e-8,
               f"max abs={worst:.2e} over 10 pairs")


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
        args = parser.parse_args(argv)
        cfg = _resolve(args)
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
