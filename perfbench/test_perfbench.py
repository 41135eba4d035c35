"""Tests of the benchmark itself: oracles, checks and tracing.

    python3 -m pytest perfbench -q

Each oracle is checked against brute-force `scipy.integrate.quad` of the
textbook density.  Each check the workloads apply has a negative control:
the engine's output is perturbed with monkeypatch and the check must fail.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import engine
import oracles
import workloads
from tracer import Tracer
from workloads import LOWER, UPPER, Round

vb = engine.load()


def _phi(z, v):
    return math.exp(-z * z / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)


def _quad(f, lo, hi):
    return quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=400)[0]


# -- oracles against brute force ----------------------------------------------

@pytest.mark.parametrize("a,tau", [(0.5, 0.5), (1.0, 1.0), (2.0, 5.0), (1.0, 10.0)])
def test_bond_is_the_expected_discount_of_the_gaussian_rate_integral(a, tau):
    theta, s2, r0 = 0.04, 0.3, 0.05
    b = oracles.duration(a, tau)
    mean = theta * tau + (r0 - theta) * b
    var = s2 * s2 * _quad(lambda u: ((1.0 - math.exp(-a * u)) / a) ** 2, 0.0, tau)
    sd = math.sqrt(var)
    brute = _quad(lambda y: math.exp(-y) * _phi(y - mean, var), mean - 12 * sd, mean + 12 * sd)
    assert oracles.bond_price(r0, tau, a, theta, s2) == pytest.approx(brute, rel=1e-10)


@pytest.mark.parametrize("a,tau,rho", [(0.5, 1.0, 0.5), (2.0, 3.0, -0.5), (1.0, 1 / 365, 0.0)])
def test_forward_variance_integrates_the_instantaneous_variance(a, tau, rho):
    s1 = s2 = 0.3

    def inst(t):
        b = (1.0 - math.exp(-a * (tau - t))) / a
        return s1 * s1 + 2 * rho * s1 * s2 * b + s2 * s2 * b * b
    assert oracles.forward_variance(tau, a, s1, s2, rho) == pytest.approx(
        _quad(inst, 0.0, tau), rel=1e-11)


def _up_and_out_brute(x, v, log_k, u):
    mu = -0.5  # drift of ln(forward) per unit variance

    def density(y):  # killed drifted Brownian motion, reflection principle
        return _phi(y - x - mu * v, v) - math.exp(2 * mu * (u - x)) * _phi(y - 2 * u + x - mu * v, v)
    return _quad(lambda y: density(y) * (math.exp(y) - math.exp(log_k)), log_k, u)


@pytest.mark.parametrize("spot,v", [(90.0, 0.14), (110.0, 0.14), (124.0, 0.14),
                                    (110.0, 0.002), (110.0, 1.5)])
def test_up_and_out_matches_quadrature_of_the_killed_density(spot, v):
    x = math.log(spot / 0.96)
    want = _up_and_out_brute(x, v, math.log(100.0), UPPER)
    got = oracles.up_and_out_forward(x, v, math.log(100.0), UPPER)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def _corridor_brute(x, v, log_k, lower, upper, images=40):
    mu, width = -0.5, upper - lower

    def density(y):  # Kunitomo-Ikeda image density of killed drifted BM
        total = 0.0
        for n in range(-images, images + 1):
            total += math.exp(2 * mu * n * width) * _phi(y - x - 2 * n * width - mu * v, v)
            total -= math.exp(2 * mu * (n * width + lower - x)) \
                * _phi(y - 2 * lower + x - 2 * n * width - mu * v, v)
        return total
    lo = max(log_k, lower)
    return _quad(lambda y: density(y) * (math.exp(y) - math.exp(log_k)), lo, upper)


CORRIDOR_CASES = [  # (v, lower, upper, position in the corridor)
    (0.14, LOWER, UPPER, 0.5), (0.14, LOWER, UPPER, 0.9), (0.0003, math.log(95), UPPER, 0.4),
    (0.0003, math.log(108), math.log(112), 0.5), (0.02, math.log(108), math.log(112), 0.3),
    (1.0, math.log(95), UPPER, 0.6), (0.05, math.log(90), math.log(104), 0.5),
]


@pytest.mark.parametrize("v,lower,upper,pos", CORRIDOR_CASES)
def test_corridor_matches_quadrature_of_the_image_density(v, lower, upper, pos):
    x = lower + pos * (upper - lower)
    want = _corridor_brute(x, v, math.log(100.0), lower, upper)
    got = oracles.corridor_forward(x, v, math.log(100.0), lower, upper)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("v,lower,upper,pos", CORRIDOR_CASES[:2] + CORRIDOR_CASES[4:])
def test_image_and_sine_series_agree(v, lower, upper, pos):
    x = lower + pos * (upper - lower)
    lo = max(math.log(100.0), lower)
    n_img = oracles.image_terms(v, lower, upper, 100.0)
    n_sin = oracles.sine_terms(v, x, lower, upper, 100.0)
    images = oracles._corridor_images(x, v, lo, lower, upper, 100.0, n_img)
    sines = oracles._corridor_sines(x, v, lo, lower, upper, 100.0, n_sin)
    assert images == pytest.approx(sines, rel=1e-10, abs=1e-12)


def test_series_choice_follows_the_term_bounds():
    x = 0.5 * (LOWER + UPPER)
    short = (oracles.image_terms(1e-4, LOWER, UPPER, 100.0),
             oracles.sine_terms(1e-4, x, LOWER, UPPER, 100.0))
    long = (oracles.image_terms(2.0, LOWER, UPPER, 100.0),
            oracles.sine_terms(2.0, x, LOWER, UPPER, 100.0))
    assert short[0] < short[1] and long[1] < long[0]


def test_corridor_is_below_up_and_out_is_below_vanilla():
    for spot in np.linspace(100.0, 128.0, 8):
        x = math.log(spot / 0.96)
        c = oracles.corridor_forward(x, 0.14, math.log(100.0), LOWER, UPPER)
        u = oracles.up_and_out_forward(x, 0.14, math.log(100.0), UPPER)
        assert 0.0 <= c <= u <= oracles.vanilla_forward(x, math.log(100.0), 0.14)


def test_rule_of_three_covers_zero_and_few_survivors():
    # 3 / 1e5 * 30 = 9e-4
    assert oracles.mc_agrees(0.0008, 0.0, 0.0, 100_000, payoff_cap=30.0)
    assert oracles.mc_agrees(0.0008, 1e-6, 1e-6, 100_000, payoff_cap=30.0)
    assert not oracles.mc_agrees(0.001, 0.0, 0.0, 100_000, payoff_cap=30.0)
    assert not oracles.mc_agrees(0.5, 0.45, 0.009, 100_000, payoff_cap=30.0)


# -- the workloads' checks: clean runs pass, perturbed engines fail ------------

@pytest.fixture
def analytic():
    return workloads.Analytic(vb, seed=3)


def _failures(step, *args):
    rnd = Round()
    step(rnd, *args)
    return rnd


def test_clean_analytic_pieces_pass(analytic):
    for step, args in ((analytic._analytic_pair, (110.0, 1)), (analytic._corridor_sweep, ()),
                       (analytic._figures, ()), (analytic._price_verify, (5,))):
        rnd = _failures(step, *args)
        assert rnd.attempted > 0 and rnd.failed == 0, rnd.failures


def test_oracle_check_fails_on_a_perturbed_bond(analytic, monkeypatch):
    bond = vb.pricer.bond_price
    monkeypatch.setattr(vb.pricer, "bond_price", lambda *a, **k: bond(*a, **k) * (1 + 1e-7))
    assert "oracle" in _failures(analytic._analytic_pair, 110.0, 1).failures


def test_oracle_check_fails_on_a_perturbed_curve(analytic, monkeypatch):
    curve = vb.pricer.price_curve

    def scaled(*args, **kwargs):
        res = curve(*args, **kwargs)
        return replace(res, prices=res.prices * (1 + 1e-6))
    monkeypatch.setattr(vb.pricer, "price_curve", scaled)
    assert "oracle" in _failures(analytic._figures).failures


def test_oracle_check_fails_on_a_perturbed_corridor(analytic, monkeypatch):
    price = vb.pricer.price_double_barrier

    def shifted(*args, **kwargs):
        res = price(*args, **kwargs)
        return replace(res, price=res.price * (1 + 1e-6) + 1e-8)
    monkeypatch.setattr(vb.pricer, "price_double_barrier", shifted)
    assert "oracle" in _failures(analytic._corridor_sweep).failures


def test_ordering_check_fails_when_the_corridor_exceeds_the_up_and_out(analytic, monkeypatch):
    single = vb.pricer.price_single_barrier

    def above(state, option, params, *args):
        up = vb.OptionSpec.single_up(option.strike, option.maturity, option.log_barriers[1])
        res = single(state, up, params)
        return replace(res, price=res.price * 1.01)
    monkeypatch.setattr(vb.pricer, "price_double_barrier", above)
    assert "ordering" in _failures(analytic._analytic_pair, 110.0, 1).failures


def test_knocked_out_check_fails_on_a_tiny_nonzero_price(analytic, monkeypatch):
    single = vb.pricer.price_single_barrier

    def leaky(*args, **kwargs):
        res = single(*args, **kwargs)
        return vb.PriceResult(1e-12, knocked_out=False) if res.knocked_out else res
    monkeypatch.setattr(vb.pricer, "price_single_barrier", leaky)
    rnd = _failures(analytic._analytic_pair, 128.0, 1)
    assert "knocked_out" in rnd.failures and "oracle" not in rnd.failures
    assert "knocked_out" in _failures(analytic._figures).failures


def test_no_nan_check_fails_on_a_nan_row(analytic, monkeypatch):
    curve = vb.pricer.price_curve

    def holed(*args, **kwargs):
        res = curve(*args, **kwargs)
        prices = res.prices.copy()
        prices[3] = np.nan
        return replace(res, prices=prices)
    monkeypatch.setattr(vb.pricer, "price_curve", holed)
    assert "no_nan" in _failures(analytic._figures).failures


def test_exit_code_check_fails_on_a_nonzero_exit(analytic, monkeypatch):
    monkeypatch.setattr(vb.cli, "run_curve", lambda cfg: 3)
    assert "exit_code" in _failures(analytic._figures).failures


def test_csv_shape_and_svg_checks_fail_on_truncated_output(analytic, monkeypatch):
    csv, svg = vb.cli._render_csv, vb.cli._render_svg
    monkeypatch.setattr(vb.cli, "_render_csv", lambda *a: csv(*a).split("\n", 1)[1])
    monkeypatch.setattr(vb.cli, "_render_svg", lambda *a: svg(*a)[:-8])
    failures = _failures(analytic._figures).failures
    assert "csv_shape" in failures and "svg" in failures


def _shifted(fn, shift):
    """An estimator whose mean is moved by `shift` standard errors."""
    def est(*args, **kwargs):
        res = fn(*args, **kwargs)
        return replace(res, mean=res.mean + shift * res.std_error)
    return est


def test_clean_mc_rounds_pass():
    for cls in (workloads.MCSingle, workloads.MCCorridor):
        rnd = cls(vb, seed=3, paths=2048, steps=32).run_round(0)
        assert rnd.attempted > 0 and rnd.failed == 0, rnd.failures


def test_mc_check_fails_on_a_shifted_estimate(monkeypatch):
    monkeypatch.setattr(vb.mc_oracle, "price_barrier_mc",
                        _shifted(vb.mc_oracle.price_barrier_mc, 8.0))
    rnd = workloads.MCSingle(vb, seed=3, paths=2048, steps=32).run_round(0)
    assert rnd.failures.count("mc_oracle") == 4


def test_mc_check_fails_on_a_perturbed_bond_estimate(monkeypatch):
    monkeypatch.setattr(vb.mc_oracle, "bond_mc", _shifted(vb.mc_oracle.bond_mc, -8.0))
    rnd = workloads.MCCorridor(vb, seed=3, paths=2048, steps=32).run_round(0)
    assert rnd.failures == ["mc_oracle"]


def _over_knocking(monkeypatch, extra):
    """Make the corridor monitor also knock out the paths that `extra` marks."""
    knockout = vb.mc_oracle._double_bridge_knockout

    def knocks_more(*args):
        knocked = knockout(*args)  # still draws its uniforms: the stream is unchanged
        return knocked | extra(np.arange(knocked.size))
    monkeypatch.setattr(vb.mc_oracle, "_double_bridge_knockout", knocks_more)


@pytest.mark.parametrize("extra", [lambda i: np.ones(i.size, dtype=bool),  # every path
                                   lambda i: i % 10 == 0],  # one path in ten
                         ids=["all", "tenth"])
def test_corridor_checks_fail_on_an_over_knocking_monitor_at_full_scale(monkeypatch, extra):
    work = workloads.MCCorridor(vb, seed=3)  # the workload's own paths and steps
    _over_knocking(monkeypatch, extra)
    rnd = work.run_round(0)
    assert rnd.failures.count("mc_oracle") == 2, rnd.failures


def test_a_case_where_a_zero_estimate_would_pass_is_refused():
    # the one-year corridor at spot 110: 8.4e-4 against a floor of 3 * 30 / 32768
    with pytest.raises(ValueError, match="zero estimate"):
        workloads._require_detectable(8.4e-4, 2 * workloads.MC_BLOCK, math.exp(UPPER) - 100.0)
    with pytest.raises(ValueError, match="zero estimate"):
        workloads.MCCorridor(vb, seed=3, paths=64, steps=32)


def test_cross_check_fails_when_the_two_estimators_part(monkeypatch):
    work = workloads.MCCorridor(vb, seed=3, paths=2048, steps=32)

    def pinned(fn, side):  # each estimate just inside its own bound, on opposite sides
        def est(*a, **k):
            res = fn(*a, **k)
            bound = oracles.mc_bound(res.std_error, res.n_paths, math.exp(UPPER) - 100.0)
            return replace(res, mean=work.want + side * 0.9 * bound)
        return est
    monkeypatch.setattr(vb.mc_oracle, "price_barrier_mc",
                        pinned(vb.mc_oracle.price_barrier_mc, 1.0))
    monkeypatch.setattr(vb.mc_oracle, "price_barrier_mc_two_factor",
                        pinned(vb.mc_oracle.price_barrier_mc_two_factor, -1.0))
    assert work.run_round(0).failures == ["mc_cross"]


# -- tracing -------------------------------------------------------------------

def test_traced_rounds_are_bit_identical_and_report_every_layer():
    tracer = Tracer(vb)
    for work in (workloads.MCSingle(vb, seed=4, paths=2048, steps=32),
                 workloads.MCCorridor(vb, seed=4, paths=2048, steps=32)):
        plain = work.run_round(0)
        with tracer.installed():
            traced = work.run_round(0)
        assert traced.outputs == plain.outputs
    assert vb.mc_oracle.price_barrier_mc.__module__ == "vasicek_barrier.mc_oracle"
    metrics = tracer.per_layer(2)
    assert metrics["mc_oracle.blocks"]["value"] == (4 + 3) / 2
    for stage in ("normals", "uniforms", "single_knock", "corridor_stay", "ou_paths", "payoff"):
        assert metrics[f"mc_oracle.{stage}_ms_per_block"]["value"] > 0.0
    assert 0.0 < metrics["mc_oracle.survivor_share"]["value"] < 1.0
    assert metrics["kernels.double_barrier_kernel.calls"]["value"] > 0.0


def test_a_renamed_helper_reads_as_missing(monkeypatch):
    monkeypatch.delattr(vb.mc_oracle, "_payoff_stats")
    tracer = Tracer(vb)
    assert tracer.missing == ["mc_oracle._payoff_stats"]
    with tracer.span("mc_oracle._block_rng"):
        pass
    metrics = tracer.per_layer(1)
    assert "mc_oracle.payoff_ms_per_block" not in metrics
    assert "mc_oracle.rest_ms_per_block" not in metrics
    assert "mc_oracle.normals_ms_per_block" in metrics


# -- the command ----------------------------------------------------------------

def test_run_fails_without_a_result_when_the_engine_is_absent(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(engine.HERE, bare / engine.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(engine.ROOT / "BENCHMARK.json", bare)
    cmd = json.loads((bare / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([sys.executable] + cmd[1:] + ["--workload", "analytic", "--seed", "1",
                                                        "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
