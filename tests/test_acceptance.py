"""Acceptance gate: every criterion at its stated tolerance and scale.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
the assertion carries the same detail.  The heavy Monte Carlo criteria run at
their full stated scale, so this module takes a few minutes.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from vasicek_barrier import (MCConfig, MarketState, OptionSpec, VasicekParams,
                             barrier_kernel, bond_mc, bond_price,
                             bond_price_from_ode, double_barrier_kernel,
                             effective_vol_sq, integrate, integrated_variance,
                             price_barrier_mc, price_barrier_mc_two_factor,
                             price_curve, price_double_barrier,
                             price_single_barrier,
                             up_and_out_call_constant_rate)

REF = VasicekParams(a=1.0, theta=0.04, sigma1=0.3, sigma2=0.3, rho=0.5, r0=0.05)
B_UP = math.log(130.0)
B_LOW = math.log(100.0)
SINGLE = OptionSpec.single_up(100.0, 1.0, B_UP)
CORRIDOR = OptionSpec.double(100.0, 1.0, B_LOW, B_UP)
GRID_85_128 = np.linspace(85.0, 128.0, 25)
SEED = 7


def report(name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_constant_rate_reduction():
    t0 = time.time()
    const = VasicekParams(a=1.0, theta=0.05, sigma1=0.3, sigma2=0.0, rho=0.5, r0=0.05)
    disc = math.exp(-0.05)
    worst = 0.0
    for s in range(80, 126, 5):
        ours = price_single_barrier(MarketState(spot=float(s), rate=0.05),
                                    SINGLE, const).price
        ref = up_and_out_call_constant_rate(s / disc, 100.0, 130.0, 0.05, 0.3, 1.0,
                                            dividend_yield=0.05)
        worst = max(worst, abs(ours - ref) / max(abs(ref), 1e-12))
    elapsed = time.time() - t0
    report("constant-rate reduction",
           worst <= 1e-6 and elapsed < 1.0,
           f"max rel diff {worst:.2e} (tol 1e-6) over S in 80..125, {elapsed:.2f}s (<1s)")


def test_mc_agreement_single_barrier():
    t0 = time.time()
    cfg = MCConfig(n_paths=1_000_000, n_steps=512, seed=SEED)
    worst = 0.0
    details = []
    for s in (90.0, 100.0, 110.0, 120.0):
        state = MarketState(spot=s, rate=0.05)
        ana = price_single_barrier(state, SINGLE, REF).price
        est = price_barrier_mc(state, SINGLE, REF, cfg)
        z = abs(est.mean - ana) / est.std_error
        worst = max(worst, z)
        details.append(f"S={s:g}:|z|={z:.2f}")
    elapsed = time.time() - t0
    report("mc agreement (single barrier)",
           worst <= 3.0 and elapsed < 120.0,
           f"{' '.join(details)} (tol 3), {elapsed:.0f}s (<120s)")


def test_mc_agreement_double_barrier():
    t0 = time.time()
    cfg = MCConfig(n_paths=1_000_000, n_steps=512, seed=SEED)
    state = MarketState(spot=110.0, rate=0.05)
    ana = price_double_barrier(state, CORRIDOR, REF).price
    fwd = price_barrier_mc(state, CORRIDOR, REF, cfg)
    two = price_barrier_mc_two_factor(state, CORRIDOR, REF, cfg)
    z_fwd = abs(fwd.mean - ana) / fwd.std_error
    z_two = abs(two.mean - ana) / two.std_error
    z_cross = abs(fwd.mean - two.mean) / math.hypot(fwd.std_error, two.std_error)
    elapsed = time.time() - t0
    report("mc agreement (double barrier)",
           max(z_fwd, z_two, z_cross) <= 3.0 and elapsed < 300.0,
           f"forward |z|={z_fwd:.2f}, two-factor |z|={z_two:.2f}, "
           f"cross |z|={z_cross:.2f} (tol 3), {elapsed:.0f}s (<300s)")


@pytest.mark.parametrize("kind,spec", [("single", SINGLE), ("double", CORRIDOR)])
def test_monotone_increasing_in_mean_reversion(kind, spec):
    t0 = time.time()
    cols = [price_curve(GRID_85_128, spec, replace(REF, a=v)).prices
            for v in (0.5, 1.0, 2.0)]
    worst = min(float(np.min(cols[1] - cols[0])), float(np.min(cols[2] - cols[1])))
    elapsed = time.time() - t0
    report(f"monotonicity in a ({kind} barrier)",
           worst >= -1e-12 and elapsed < 60.0,
           f"min pointwise increase {worst:+.3e} (needs >= 0) over "
           f"a in {{0.5, 1, 2}}, S grid 85..128x25, {elapsed:.1f}s (<60s)")


@pytest.mark.parametrize("kind,spec", [("single", SINGLE), ("double", CORRIDOR)])
def test_monotone_decreasing_in_long_term_mean(kind, spec):
    t0 = time.time()
    cols = [price_curve(GRID_85_128, spec, replace(REF, theta=v)).prices
            for v in (0.02, 0.04, 0.08)]
    worst = max(float(np.max(cols[1] - cols[0])), float(np.max(cols[2] - cols[1])))
    elapsed = time.time() - t0
    report(f"monotonicity in theta ({kind} barrier)",
           worst <= 1e-12 and elapsed < 60.0,
           f"max pointwise increase {worst:+.3e} (needs <= 0) over "
           f"theta in {{0.02, 0.04, 0.08}}, S grid 85..128x25, {elapsed:.1f}s (<60s)")


def test_chapman_kolmogorov_composition():
    t0 = time.time()
    rng = np.random.default_rng(20240)
    sig = integrated_variance(0.0, 1.0, 1.0, REF)
    worst_single = worst_double = 0.0
    for _ in range(50):
        # split the total variance at a random intermediate date
        ts = rng.uniform(0.2, 0.8)
        v1 = integrated_variance(0.0, ts, 1.0, REF)
        v2 = integrated_variance(ts, 1.0, 1.0, REF)

        x, xp = B_UP - rng.uniform(0.05, 3.0, 2) * math.sqrt(sig)
        lo = B_UP - 12.0 * math.sqrt(sig)
        val, _ = integrate(lambda z: barrier_kernel(x, z, v1, B_UP)
                           * barrier_kernel(xp, z, v2, B_UP) * np.exp(z - xp),
                           lo, B_UP)
        worst_single = max(worst_single, abs(val - barrier_kernel(x, xp, sig, B_UP)))

        y, yp = rng.uniform(B_LOW + 0.013, B_UP - 0.013, 2)
        val, _ = integrate(lambda z: double_barrier_kernel(y, z, v1, B_LOW, B_UP)
                           * double_barrier_kernel(yp, z, v2, B_LOW, B_UP)
                           * np.exp(z - yp), B_LOW, B_UP)
        worst_double = max(worst_double,
                           abs(val - double_barrier_kernel(y, yp, sig, B_LOW, B_UP)))
    elapsed = time.time() - t0
    report("chapman-kolmogorov composition",
           max(worst_single, worst_double) <= 1e-8 and elapsed < 30.0,
           f"max abs deviation single {worst_single:.2e}, double {worst_double:.2e} "
           f"(tol 1e-8) over 50 pairs, {elapsed:.1f}s (<30s)")


def test_integrated_variance_matches_quadrature():
    t0 = time.time()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        p = VasicekParams(a=rng.uniform(0.01, 5.0), theta=0.04,
                          sigma1=rng.uniform(0.0, 1.0), sigma2=rng.uniform(0.0, 1.0),
                          rho=rng.uniform(-1.0, 1.0), r0=0.05)
        tau = rng.uniform(0.1, 10.0)
        closed = integrated_variance(0.0, tau, tau, p)
        ref, _ = quad(lambda t: effective_vol_sq(t, tau, p), 0.0, tau,
                      epsabs=1e-14, epsrel=1e-13, limit=200)
        if ref > 0:
            worst = max(worst, abs(closed - ref) / ref)
    elapsed = time.time() - t0
    report("integrated variance closed form vs quadrature",
           worst <= 1e-10 and elapsed < 5.0,
           f"max rel {worst:.2e} (tol 1e-10) over 100 draws, {elapsed:.1f}s (<5s)")


def test_bond_formula():
    t0 = time.time()
    cfg = MCConfig(n_paths=1_000_000, n_steps=512, seed=SEED)
    analytic = bond_price(0.05, 0.0, 1.0, REF)
    est = bond_mc(0.05, 1.0, REF, cfg)
    z = abs(est.mean - analytic) / est.std_error
    ode_rel = abs(analytic - bond_price_from_ode(0.05, 0.0, 1.0, REF)) / analytic
    elapsed = time.time() - t0
    report("bond formula",
           z <= 3.0 and ode_rel <= 1e-8 and elapsed < 60.0,
           f"mc |z|={z:.2f} (tol 3), ode rel {ode_rel:.2e} (tol 1e-8), "
           f"{elapsed:.0f}s (<60s)")


def test_double_to_single_barrier_limit():
    t0 = time.time()
    wide = OptionSpec.double(100.0, 1.0, B_UP - 25.0, B_UP)
    worst = 0.0
    for s in (90.0, 100.0, 110.0, 120.0, 125.0):
        state = MarketState(spot=s, rate=0.05)
        d = price_double_barrier(state, wide, REF).price
        si = price_single_barrier(state, SINGLE, REF).price
        worst = max(worst, abs(d - si) / max(si, 1e-12))
    elapsed = time.time() - t0
    report("double-to-single barrier limit",
           worst <= 1e-6 and elapsed < 5.0,
           f"max rel diff {worst:.2e} (tol 1e-6) with lower wall 25 below upper, "
           f"{elapsed:.1f}s (<5s)")
