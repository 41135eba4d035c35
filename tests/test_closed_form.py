"""The closed-form pricers against kernel quadrature and the committed figures.

`price_single_barrier` and `price_double_barrier` sum the shorter of the
image and the integrated sine series; `price_by_quadrature` integrates the
image and eigenmode kernels numerically.  The two must agree wherever the figures,
the maturity sweep and the wide corridor take them.
"""

import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vasicek_barrier import (MarketState, OptionSpec, VasicekParams, bond_price,
                             price, price_by_quadrature)
from vasicek_barrier.cli import main

ROOT = Path(__file__).resolve().parents[1]
REF = VasicekParams(a=1.0, theta=0.04, sigma1=0.3, sigma2=0.3, rho=0.5, r0=0.05)
B_LOW = math.log(100.0)
B_UP = math.log(130.0)
GRID = np.linspace(85.0, 128.0, 25)
SWEEPS = {"a": (0.5, 1.0, 2.0), "theta": (0.02, 0.04, 0.08), "rho": (-0.5, 0.0, 0.5)}
MATURITIES = np.geomspace(1.0 / 365.0, 10.0, 8)
# corridors from [108, 112] to [95, 130] in forward price
WALLS = [(math.log(108.0 - 13.0 * f), math.log(112.0 + 18.0 * f))
         for f in np.linspace(0.0, 1.0, 6)]
REL_TOL = 1e-10
ABS_TOL = 1e-12  # near the walls, where the prices themselves vanish


def _worst_excess(cases):
    """Largest |closed - quadrature| over the tolerance; <= 1 passes."""
    worst, where = 0.0, None
    for state, option, p in cases:
        ours = price(state, option, p)
        quad = price_by_quadrature(state, option, p)
        assert ours.knocked_out == quad.knocked_out
        excess = abs(ours.price - quad.price) / (ABS_TOL + REL_TOL * abs(quad.price))
        if excess > worst:
            worst, where = excess, (state.spot, option, p, ours.price, quad.price)
    return worst, where


@pytest.mark.parametrize("name", sorted(SWEEPS))
@pytest.mark.parametrize("option", [OptionSpec.single_up(100.0, 1.0, B_UP),
                                    OptionSpec.double(100.0, 1.0, B_LOW, B_UP)],
                         ids=["single", "double"])
def test_figure_grids_match_quadrature(name, option):
    cases = [(MarketState(spot=float(s), rate=REF.r0), option, replace(REF, **{name: v}))
             for v in SWEEPS[name] for s in GRID]
    worst, where = _worst_excess(cases)
    assert worst <= 1.0, where


def test_maturities_one_day_to_ten_years_match_quadrature():
    cases = []
    for tau in MATURITIES:
        disc = bond_price(REF.r0, 0.0, float(tau), REF)
        single = OptionSpec.single_up(100.0, float(tau), B_UP)
        cases += [(MarketState(spot=disc * f, rate=REF.r0), single, REF)
                  for f in (95.0, 105.0, 115.0, 125.0, 129.0)]
        for lower, upper in WALLS:
            corridor = OptionSpec.double(100.0, float(tau), lower, upper)
            cases += [(MarketState(spot=disc * math.exp(lower + w * (upper - lower)),
                                   rate=REF.r0), corridor, REF) for w in (0.02, 0.3, 0.5, 0.7)]
    worst, where = _worst_excess(cases)
    assert worst <= 1.0, where


def test_wide_corridor_matches_quadrature():
    corridor = OptionSpec.double(100.0, 1.0, B_UP - 25.0, B_UP)
    worst, where = _worst_excess([(MarketState(spot=float(s), rate=REF.r0), corridor, REF)
                                  for s in GRID])
    assert worst <= 1.0, where


@pytest.mark.parametrize("figure", ["single_a", "single_theta", "single_rho",
                                    "double_a", "double_theta", "double_rho"])
def test_reference_figures_regenerate(figure, tmp_path, capsys):
    kind, name = figure.split("_")
    argv = ["curve", "--sweep", f"{name}=" + ",".join(f"{v:g}" for v in SWEEPS[name]),
            "--out", str(tmp_path / f"{figure}.csv")]
    if kind == "double":
        argv += ["--barrier-low", repr(B_LOW), "--barrier-high", repr(B_UP)]
    assert main(argv) == 0
    got = (tmp_path / f"{figure}.csv").read_text().splitlines()
    want = (ROOT / "out" / f"{figure}.csv").read_text().splitlines()
    assert got[0] == want[0]
    got_rows = np.array([line.split(",") for line in got[1:]], dtype=float)
    want_rows = np.array([line.split(",") for line in want[1:]], dtype=float)
    np.testing.assert_array_equal(got_rows[:, 0], want_rows[:, 0])
    np.testing.assert_allclose(got_rows[:, 1:], want_rows[:, 1:], rtol=REL_TOL, atol=0.0)


def test_package_import_does_not_load_scipy():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import vasicek_barrier; "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "print(loaded); sys.exit(1 if loaded else 0)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
