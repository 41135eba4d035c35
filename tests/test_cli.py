import io
import math
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vasicek_barrier import cli, kernels, mc_oracle, pricer, quad_oracle
from vasicek_barrier.cli import main
from vasicek_barrier.quadrature import QuadratureError

SMOKE = ["--paths", "2000", "--steps", "64", "--seed", "5"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPriceCommand:
    def test_default_single_barrier_line(self, capsys):
        code, out, _ = run(capsys, "price")
        assert code == 0
        spot, price = out.strip().split(",")
        assert spot == "110.0"
        assert float(price) == pytest.approx(0.5328242508711754, rel=1e-9)

    def test_knocked_out_at_inception(self, capsys):
        code, out, _ = run(capsys, "price", "--spot", "135")
        assert code == 2
        assert out.strip() == "135.0,0.0"

    def test_double_barrier_price(self, capsys):
        code, out, _ = run(capsys, "price", "--barrier-low", str(math.log(100.0)),
                           "--barrier-high", str(math.log(130.0)))
        assert code == 0
        assert float(out.strip().split(",")[1]) == pytest.approx(8.390945e-4, rel=1e-5)

    def test_verify_flag_appends_mc_columns(self, capsys):
        code, out, _ = run(capsys, "price", "--verify", *SMOKE)
        fields = out.strip().split(",")
        assert code == 0 and len(fields) == 4
        mc, se = float(fields[2]), float(fields[3])
        assert abs(mc - 0.5328) <= 4.0 * se

    @pytest.mark.parametrize("command", ["curve", "verify"])
    def test_verify_flag_is_for_price_only(self, capsys, command):
        for argv in ([command, "--verify"], ["--verify", command, *SMOKE]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err == f"error: verify: --verify is a price flag, not a {command} one\n"

    def test_missing_strike_value(self, capsys):
        code, _, err = run(capsys, "price", "--strike")
        assert code == 1
        assert "strike" in err

    def test_nonpositive_strike(self, capsys):
        code, _, err = run(capsys, "price", "--strike", "-5")
        assert code == 1
        assert "strike" in err

    def test_half_specified_corridor(self, capsys):
        code, _, err = run(capsys, "price", "--barrier-low", "4.6")
        assert code == 1
        assert "barrier" in err

    # the bond overflows at a = -2 over 30 years; at a = -80 over 10 years
    # log A is inf - inf
    @pytest.mark.parametrize("a, maturity", [("-2", "30"), ("-80", "10")])
    def test_explosive_model_is_a_pricing_error(self, capsys, a, maturity):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way to the error
            code, out, err = run(capsys, "price", f"--a={a}", "--maturity", maturity)
        assert code == 5 and out == ""
        assert err.startswith("error: ") and f"a={float(a)!r}" in err
        assert f"maturity {float(maturity)!r}" in err and len(err.splitlines()) == 1

    def test_underflowing_bond_is_a_pricing_error_named_as_such(self, capsys):
        # theta = 1e300 discounts the bond to 0: nothing explodes
        code, out, err = run(capsys, "price", "--theta", "1e300")
        assert code == 5 and out == ""
        assert err.startswith("error: bond price 0.0 over maturity 1.0 underflows")
        assert "a=1.0, theta=1e+300, sigma2=0.3" in err and "explode" not in err

    @pytest.mark.parametrize("flag, quantity, field", [
        ("--sigma2=1e200", "log bond price", "sigma2=1e+200"),
        ("--sigma1=1e200", "integrated variance", "sigma1=1e+200"),
        ("--theta=-1e300", "bond price", "theta=-1e+300"),
    ])
    def test_overflow_names_the_parameters_and_not_an_explosion(self, capsys, flag,
                                                                quantity, field):
        # a = 1 does not explode: the float arithmetic of one input overflows
        code, out, err = run(capsys, "price", flag)
        assert code == 5 and out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {quantity} over maturity 1.0 is not finite: "
                              f"a float overflows at a=1.0, ")
        assert field in err and "explode" not in err

    def test_overflow_at_a_negative_a_names_the_parameters(self, capsys):
        # nor does a = -0.1 over a year: sigma2 overflows
        code, out, err = run(capsys, "price", "--a=-0.1", "--sigma2=1e200")
        assert code == 5 and out == ""
        assert err == ("error: log bond price over maturity 1.0 is not finite: a float "
                       "overflows at a=-0.1, theta=0.04, sigma2=1e+200\n")

    def test_lower_wall_past_the_float_range_prices_the_up_and_out(self, capsys):
        _, single, _ = run(capsys, "price", "--barrier", "5")
        code, out, err = run(capsys, "price", "--barrier-low=-1e300", "--barrier-high", "5")
        assert code == 0 and err == ""
        assert out == single == "110.0,2.871919821940932\n"

    @pytest.mark.parametrize("scale, message", [
        (["--paths", "2", "--steps", "100000000"],
         "steps: 100000000 steps a year over maturity 1 "),
        (["--paths", "1000000000000"], "paths: 1000000000000 paths a run, past the limit "),
    ], ids=["steps", "paths"])
    def test_mc_run_past_the_working_set_limit_is_named_before_allocating(
            self, capsys, scale, message):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "price", "--verify", *scale)
        assert time.perf_counter() - t0 < 1.0
        assert code == 5 and out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("flag", [key.replace("_", "-") for key in cli._FLOAT_KEYS])
    def test_every_float_flag_takes_a_negative_exponent_form(self, flag):
        for argv in (["curve", f"--{flag}", "-5e-1"], [f"--{flag}", "-5e-1", "curve"]):
            args = cli._build_parser().parse_args(argv)
            assert args.command == "curve" and getattr(args, flag.replace("-", "_")) == -0.5

    def test_negative_exponent_form_prices_as_the_equals_form(self, capsys):
        spaced = run(capsys, "price", "--a", "-5e-1")
        assert spaced[0] == 0 and spaced == run(capsys, "price", "--a=-5e-1")

    def test_overflowing_barrier_level_is_a_pricing_error(self, capsys):
        code, out, err = run(capsys, "price", "--barrier", "1500")
        assert code == 5 and out == ""
        assert err.startswith("error: ") and "log_barriers[0] = 1500.0" in err

    def test_near_zero_variance_corridor_prices(self, capsys):
        # total variance 1e-18 in a corridor 0.27 wide: the intrinsic S - K P
        code, out, err = run(capsys, "price", "--sigma1", "1e-9", "--sigma2", "0",
                             "--barrier-low", "4.6", "--barrier-high", "4.87")
        assert code == 0 and err == ""
        assert float(out.strip().split(",")[1]) == pytest.approx(14.5264753362576, rel=1e-12)

    def test_a_rate_identically_zero_prices_at_any_a(self, capsys):
        # theta = sigma2 = r0 = 0: the bond is 1 and the variance sigma1^2 tau,
        # though the integrals of B pass the float range at a = -2 over 200 years
        zero = ["--maturity", "200", "--sigma2", "0", "--theta", "0", "--r0", "0"]
        code, out, err = run(capsys, "price", "--a=-2", *zero)
        assert code == 0 and err == ""
        assert (code, out, err) == run(capsys, "price", "--a=2", *zero)

    @pytest.mark.parametrize("upper", ["27", "40", "60", "80", "700"])
    def test_wide_corridor_prices_as_the_down_and_out(self, capsys, upper):
        code, out, err = run(capsys, "price", "--barrier-low", "4.6", "--barrier-high", upper)
        assert code == 0 and err == ""
        assert float(out.strip().split(",")[1]) == pytest.approx(14.1764971776479, rel=1e-12)

class TestConfigFile:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("# pricing job\nspot = 120\ntheta=0.08\n")
        code, out, _ = run(capsys, "price", "--config", str(cfg))
        assert code == 0
        assert out.startswith("120.0,")
        code, out, _ = run(capsys, "price", "--config", str(cfg), "--spot", "95")
        assert out.startswith("95.0,")

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("notional=5\n")
        code, _, err = run(capsys, "price", "--config", str(cfg))
        assert code == 1
        assert "notional" in err

    def test_bad_number_named(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("maturity=one year\n")
        code, _, err = run(capsys, "price", "--config", str(cfg))
        assert code == 1
        assert "maturity" in err

    def test_non_finite_value_named(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("theta=inf\n")
        code, _, err = run(capsys, "price", "--config", str(cfg))
        assert code == 1
        assert "theta" in err and "finite" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "price", "--config", "/nonexistent/path.cfg")
        assert code == 1
        assert "config" in err

    # per key: the command it runs in, a file value other than the default,
    # and a flag value that overrides it (some of them errors)
    CASES = {
        "spot": (["price"], "120", "95"),
        "strike": (["price"], "95", "-5"),
        "maturity": (["price"], "0.5", "one year"),
        "barrier": (["price"], "4.8", "inf"),
        "barrier_low": (["price"], "4.6", "4.5"),
        "barrier_high": (["price", "--barrier-low=4.6"], "4.9", "4.5"),
        "a": (["price"], "-5e-1", "2"),
        "theta": (["price"], "0.08", "inf"),
        "rho": (["price"], "-1", "2"),
        "sigma1": (["price"], "0.2", "nan"),
        "sigma2": (["price"], "0", "0.1"),
        "r0": (["price"], "0.02", "0.1"),
        "sweep": (["curve", "--grid=100:110:3"], "a=0.5,1", "rho=0,2"),
        "grid": (["curve"], "100:110:3", "90:80:5"),
        "paths": (["price", "--verify", "--steps=8"], "300", "0"),
        "steps": (["price", "--verify", "--paths=256"], "8", "1.5"),
        "seed": (["price", "--verify", "--paths=256", "--steps=8"], "3", "-1"),
        "out": (["curve", "--grid=100:110:3"], "a.csv", "b.csv"),
        "format": (["curve", "--grid=100:110:3"], "svg", "pdf"),
    }

    def test_every_key_has_a_case(self):
        assert sorted(self.CASES) == sorted(cli.DEFAULTS)

    @pytest.mark.parametrize("key", sorted(CASES))
    def test_a_file_value_resolves_as_its_flag_and_a_later_flag_wins(self, key, tmp_path,
                                                                     capsys):
        command, value, override = self.CASES[key]
        if key == "out":
            value, override = str(tmp_path / value), str(tmp_path / override)

        def job(before, after):  # exit code, stdout, stderr and the files written
            result = run(capsys, *before, *command, *after)
            written = {f.name: f.read_text() for f in tmp_path.glob("*.csv")}
            for name in written:
                (tmp_path / name).unlink()
            return result, written

        flag = f"--{key.replace('_', '-')}"
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"{key} = {value}\n")
        file, given, overriding = ["--config", str(cfg)], f"{flag}={value}", f"{flag}={override}"
        # a flag reads the same on either side of the command, and overrides
        # the file from either side
        assert job([], file) == job([], [given]) == job([given], [])
        assert (job([], [*file, overriding]) == job([overriding], file)
                == job([], [overriding]) == job([overriding], []))


class TestCurveCommand:
    def test_lower_wall_past_the_float_range_writes_the_up_and_out(self, capsys):
        _, single, _ = run(capsys, "curve", "--barrier", "5", "--grid", "100:120:3")
        code, out, err = run(capsys, "curve", "--barrier-low=-1e300", "--barrier-high", "5",
                             "--grid", "100:120:3")
        assert code == 0 and err == "" and out == single and "nan" not in out

    def test_sweep_a_columns_increase(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "curve", "--sweep", "a=0.5,1,2",
                         "--grid", "90:120:7", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "spot,a=0.5,a=1,a=2"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape == (7, 4)
        assert np.all(rows[:, 2] >= rows[:, 1])
        assert np.all(rows[:, 3] >= rows[:, 2])

    def test_sweep_theta_columns_decrease(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "curve", "--sweep", "theta=0.02,0.04,0.08",
                         "--grid", "85:128:25", "--out", str(out_path))
        assert code == 0
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out_path.read_text().splitlines()[1:]])
        assert np.all(rows[:, 2] <= rows[:, 1] + 1e-12)
        assert np.all(rows[:, 3] <= rows[:, 2] + 1e-12)

    def test_sweep_rho_three_columns_no_ordering(self, capsys):
        code, out, _ = run(capsys, "curve", "--sweep", "rho=-0.5,0,0.5",
                           "--grid", "100:120:3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "spot,rho=-0.5,rho=0,rho=0.5"
        assert len(lines) == 4

    def test_no_sweep_header(self, capsys):
        code, out, _ = run(capsys, "curve", "--grid", "100:110:2")
        assert code == 0
        assert out.splitlines()[0] == "spot,price"

    def test_csv_bytes_deterministic(self, tmp_path, capsys):
        args = ("curve", "--sweep", "a=0.5,1,2", "--grid", "95:125:9")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(p1))[0] == 0
        assert run(capsys, *args, "--out", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_svg_output(self, tmp_path, capsys):
        p1 = tmp_path / "fig.svg"
        p2 = tmp_path / "fig2.svg"
        args = ("curve", "--sweep", "theta=0.02,0.04,0.08", "--grid", "90:125:9",
                "--format", "svg")
        assert run(capsys, *args, "--out", str(p1))[0] == 0
        assert run(capsys, *args, "--out", str(p2))[0] == 0
        svg = p1.read_text()
        assert svg.startswith("<svg ") or svg.startswith("<svg\n")
        assert svg.count("<polyline") == 3
        for label in ("theta=0.02", "theta=0.04", "theta=0.08"):
            assert label in svg
        assert p1.read_bytes() == p2.read_bytes()

    def test_double_barrier_curve(self, tmp_path, capsys):
        out_path = tmp_path / "d.csv"
        code, _, _ = run(capsys, "curve", "--barrier-low", str(math.log(100.0)),
                         "--barrier-high", str(math.log(130.0)),
                         "--grid", "100:125:6", "--out", str(out_path))
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        assert all(float(r[1]) >= 0.0 for r in rows)

    def test_unwritable_out(self, capsys):
        code, _, err = run(capsys, "curve", "--grid", "100:110:2",
                           "--out", "/nonexistent/dir/x.csv")
        assert code == 1
        assert "out" in err

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "curve", "--grid", "110:100:5")
        assert code == 1 and "grid" in err
        code, _, err = run(capsys, "curve", "--grid", "100:110:1")
        assert code == 1 and "grid" in err
        # a non-finite end once priced nan and inf rows, and a span past the
        # float range, or too narrow for N distinct spots, once failed the
        # library's grid check
        for grid, message in [("80:inf:5", "must be finite"), ("nan:100:5", "must be finite"),
                              ("-1e308:1e308:3", "past the float range"),
                              ("100:100.00000000000003:50", "not strictly increasing")]:
            code, out, err = run(capsys, "curve", f"--grid={grid}")
            assert (code, out) == (1, "")
            assert err.startswith("error: grid: ") and message in err

    def test_grid_past_the_limit_is_named_before_allocating(self, capsys):
        # 10^11 spots once ended in a numpy MemoryError traceback
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "curve", "--grid", "85:128:100000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert err == "error: grid: 100000000000 points, past the limit of 100000\n"
        assert peak < 100_000  # a grid just past the limit takes 800 kB
        assert cli._parse_grid("85:128:100000") == (85.0, 128.0, cli._MAX_GRID)

    def test_bad_sweep(self, capsys):
        code, _, err = run(capsys, "curve", "--sweep", "sigma1=0.1,0.2")
        assert code == 1 and "sweep" in err
        # a value the model rejects is a configuration error, as --rho 2 is
        code, out, err = run(capsys, "curve", "--sweep", "rho=0.5,2")
        assert code == 1 and out == ""
        assert err == "error: sweep: rho must lie in [-1, 1], got 2.0\n"
        code, _, err = run(capsys, "curve", "--sweep", "a=")
        assert code == 1 and "sweep" in err
        code, _, err = run(capsys, "curve", "--sweep", "a=1,nan")
        assert code == 1 and "sweep" in err

    def test_non_finite_flag_named(self, capsys):
        code, out, err = run(capsys, "curve", "--sigma1", "nan")
        assert code == 1
        assert "sigma1" in err and out == ""

    def test_failed_rows_reported_with_exit_4(self, capsys):
        # a < 0 over 30 years: the bond price overflows at every spot
        code, out, err = run(capsys, "curve", "--a=-2", "--maturity", "30",
                             "--grid", "100:110:2")
        assert code == 4
        assert out.splitlines()[1:] == ["100.0,nan", "110.0,nan"]
        reported = err.strip().splitlines()
        assert len(reported) == 2
        assert all("a=-2.0" in line and "maturity 30.0" in line for line in reported)
        assert "spot 100.0" in reported[0] and "spot 110.0" in reported[1]


class TestVerifyCommand:
    def test_smoke_run_passes(self, capsys):
        # a barrier at or below ln 100 checks a corridor ln 1.3 wide below
        # it, not the reversed [ln 100, barrier]
        for barrier in ([], ["--barrier", "4.6"]):
            code, out, err = run(capsys, "verify", *barrier, "--paths", "1000", "--steps", "64")
            assert code == 0 and err == ""
            lines = out.strip().splitlines()
            assert lines[-1] == "all checks passed"
            assert all(line.startswith("PASS") for line in lines[:-1])
            assert len(lines) == 10

    # the oracle behind each check, in output order: module, name, the
    # option kind it fails for where two checks share it, and what it raises
    ORACLES = {
        "bond vs monte carlo": (mc_oracle, "bond_mc", None, ValueError("paths")),
        "bond vs ode solution": (quad_oracle, "bond_price_from_ode", None, ValueError("ode")),
        "single barrier vs forward-measure mc": (mc_oracle, "price_barrier_mc", "single",
                                                 ValueError("single")),
        "single barrier vs two-factor mc": (mc_oracle, "price_barrier_mc_two_factor", None,
                                            ValueError("two-factor")),
        "double barrier vs forward-measure mc": (mc_oracle, "price_barrier_mc", "double",
                                                 ValueError("corridor")),
        "constant-rate closed-form reduction": (quad_oracle, "up_and_out_call_constant_rate",
                                                None, ValueError("textbook")),
        "closed form vs kernel quadrature": (quad_oracle, "price_by_quadrature", None,
                                             QuadratureError("panels", math.nan, math.nan)),
        "chapman-kolmogorov (single kernel)": (kernels, "barrier_kernel", None,
                                               QuadratureError("images", math.nan, math.nan)),
        "chapman-kolmogorov (double kernel)": (kernels, "double_barrier_kernel", None,
                                               QuadratureError("modes", math.nan, math.nan)),
    }

    @pytest.mark.parametrize("name", ORACLES)
    def test_an_oracle_that_raises_fails_only_its_own_check(self, name, monkeypatch, capsys):
        module, attr, kind, error = self.ORACLES[name]
        exact = getattr(module, attr)

        def failing(*args, **kwargs):
            if kind is None or (args[1].walls[0] == -math.inf) == (kind == "single"):
                raise error
            return exact(*args, **kwargs)
        monkeypatch.setattr(module, attr, failing)
        code, out, err = run(capsys, "verify", "--paths", "1000", "--steps", "64")
        lines = out.splitlines()
        assert code == 3 and err == "" and lines[-1] == "1 check(s) failed"
        assert [line[6:48].strip() for line in lines[:-1]] == list(self.ORACLES)
        failed = [line for line in lines if line.startswith("FAIL")]
        assert failed == [f"FAIL  {name:42s} oracle cannot evaluate these inputs: "
                          f"{type(error).__name__}: {error}"]

    def test_a_production_error_stops_the_run_before_any_check(self, capsys):
        # exp(1500) overflows in the production pricer: no check is run
        code, out, err = run(capsys, "verify", "--barrier", "1500", "--paths", "1000",
                             "--steps", "4")
        assert code == 5 and out == ""
        assert err.startswith("error: log_barriers[0] = 1500.0") and len(err.splitlines()) == 1

    def test_constant_rate_model_that_cannot_price_fails_its_own_row(self, capsys):
        # verify's constant-rate model (theta = r0 = 800, sigma2 = 0) discounts
        # its bond to 0; the user's model prices, and the other eight checks run
        code, out, err = run(capsys, "verify", "--r0", "800", "--paths", "256", "--steps", "8")
        lines = out.splitlines()
        assert code == 3 and err == "" and len(lines) == 10 and lines[-1] == "1 check(s) failed"
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 1
        assert failed[0].startswith(
            "FAIL  constant-rate closed-form reduction        oracle cannot evaluate these "
            "inputs: ValueError: bond price 0.0 over maturity 1.0 underflows")
        assert failed[0].endswith("a=1.0, theta=800.0, sigma2=0.0")

    def test_tampered_bond_factor_fails(self, monkeypatch, capsys):
        def regrouped_bond_price(r, t, tau, p):
            # the A-factor with its brackets regrouped,
            # exp[(B^2-u)*(a^2*theta - s^2/2 - s^2*B^2/(4a))/a^2]: the same
            # symbols, but it does not satisfy the bond PDE
            u = tau - t
            b = cli.model.b_factor(t, tau, p.a)
            s2 = p.sigma2 ** 2
            log_a = (b * b - u) * (p.a**2 * p.theta - s2 / 2.0 - s2 * b * b / (4.0 * p.a)) / p.a**2
            return math.exp(log_a - r * b)

        ref = cli.model.VasicekParams(a=1.0, theta=0.04, sigma1=0.3, sigma2=0.3,
                                      rho=0.5, r0=0.05)
        assert regrouped_bond_price(0.05, 0.0, 1.0, ref) == pytest.approx(0.97706136, rel=1e-8)
        monkeypatch.setattr(cli.model, "bond_price", regrouped_bond_price)
        code, out, _ = run(capsys, "verify", "--paths", "20000", "--steps", "64")
        assert code == 3
        lines = out.strip().splitlines()
        assert any(line.startswith("FAIL") and "bond vs monte carlo" in line
                   for line in lines)
        assert any(line.startswith("FAIL") and "ode" in line for line in lines)

    @pytest.mark.parametrize("a, maturity", [("-2", "30"), ("-80", "10")])
    def test_explosive_model_fails_before_any_check(self, capsys, a, maturity):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way to the error
            code, out, err = run(capsys, "verify", f"--a={a}", "--maturity", maturity,
                                 "--paths", "1000", "--steps", "4")
        assert code == 5 and out == ""
        assert err.startswith("error: ") and f"a={float(a)!r}" in err
        assert f"maturity {float(maturity)!r}" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("module, closed_form, checks", [
        (pricer, "knockout_call_forward", ["constant-rate closed-form reduction",
                                           "closed form vs kernel quadrature"]),
        (quad_oracle, "up_and_out_call_constant_rate", ["constant-rate closed-form reduction"]),
    ], ids=["production", "constant-rate oracle"])
    def test_perturbed_closed_form_fails(self, module, closed_form, checks, monkeypatch,
                                         capsys):
        exact = getattr(module, closed_form)
        monkeypatch.setattr(module, closed_form,
                            lambda *a, **k: exact(*a, **k) * (1.0 + 1e-5))
        code, out, _ = run(capsys, "verify", "--paths", "1000", "--steps", "64")
        assert code == 3
        failed = [line[6:48].strip() for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == checks

    def test_the_double_kernel_composition_sees_a_kernel_far_narrower_than_the_corridor(
            self, capsys):
        # at total variance 1e-12 the kernel is 1e-6 wide in a corridor 0.26
        # wide: pairs drawn within 3 sd of each other and a window 12 sd past
        # them compare kernels near their peak of 4e5, not 0 with 0
        code, out, err = run(capsys, "verify", "--sigma1", "1e-6", "--sigma2", "0",
                             "--paths", "256", "--steps", "8")
        row = next(line for line in out.splitlines()
                   if "chapman-kolmogorov (double kernel)" in line)
        worst = float(row.split("max abs=")[1].split()[0])
        assert 0.0 < worst < 1e-6 * 4e5, row

    def test_near_deterministic_model_reaches_every_check(self, capsys):
        # total variance 1e-18: the forward-measure estimates agree with the
        # closed form to rounding, and each oracle that cannot evaluate the
        # inputs fails its own check by name instead of ending the run
        code, out, err = run(capsys, "verify", "--sigma1", "1e-9", "--sigma2", "0",
                             "--paths", "1000")
        lines = out.strip().splitlines()
        assert err == "" and code == 3
        assert len(lines) == 10 and lines[-1].endswith("check(s) failed")
        verdicts = {line[6:48].strip(): line[:4] for line in lines[:-1]}
        for name in ("single barrier vs forward-measure mc",
                     "double barrier vs forward-measure mc",
                     "constant-rate closed-form reduction", "bond vs ode solution"):
            assert verdicts[name] == "PASS", out
        oracle_failures = [line for line in lines if "oracle cannot evaluate" in line]
        assert oracle_failures and all(line.startswith("FAIL") for line in oracle_failures)
        # the quadrature either agrees or cannot resolve a kernel 1e-9 wide;
        # it never returns a wrong price
        quadrature = next(line for line in lines if "closed form vs kernel quadrature" in line)
        assert quadrature.startswith("PASS") or "oracle cannot evaluate" in quadrature, out

    def test_mc_oracle_past_the_float_range_fails_its_own_checks_by_name(self, capsys):
        # a = 800 over a year: the OU paths need e^800, so the two-factor
        # estimator fails by name and the other checks still run.  The bond
        # needs no rate paths and prices; at 16 steps its trapezoid discount
        # is far off for a rate that reverts in 1/800 of a year
        code, out, err = run(capsys, "verify", "--a", "800", "--paths", "2000",
                             "--steps", "16")
        lines = out.strip().splitlines()
        assert err == "" and code == 3 and len(lines) == 10
        failed = {line[6:48].strip(): line for line in lines if line.startswith("FAIL")}
        assert sorted(failed) == ["bond vs monte carlo", "single barrier vs two-factor mc"]
        assert "|z|=" in failed["bond vs monte carlo"]
        two_factor = failed["single barrier vs two-factor mc"]
        assert "oracle cannot evaluate" in two_factor and "a=800.0" in two_factor

    def test_a_bond_no_run_can_sample_fails_its_own_row(self, capsys):
        # a = -1 over 5 years: the log discount has variance 968, so the bond
        # MC and the two-factor MC, whose path discount has the bond's
        # weights, give up by name; the ODE row prints the 6.8e208 bonds in
        # short.  At that variance the corridor kernel underflows to 0, so
        # its composition row compares nothing and says so
        code, out, err = run(capsys, "verify", "--a=-1", "--maturity", "5", "--paths", "256",
                             "--steps", "8")
        lines = out.strip().splitlines()
        assert err == "" and code == 3 and len(lines) == 10
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 3
        for line, (row, mean) in zip(failed, [("bond vs monte carlo", "the bond's mean"),
                                              ("single barrier vs two-factor mc",
                                               "the price's mean")]):
            assert line.startswith(
                f"FAIL  {row:42s} oracle cannot evaluate these inputs: ValueError: a=-1.0 "
                f"over 5 years: the log discount's variance 967.6 puts {mean} where "), out
        assert failed[2].startswith(f"FAIL  {'chapman-kolmogorov (double kernel)':42s} every "
                                    f"kernel value and integral is 0 over 10 pairs at v=978")
        assert "(analytic 6.813903316e+208, ode 6.81390332" in lines[1]

    def test_an_ode_bond_past_the_float_range_fails_its_own_check(self, capsys, monkeypatch):
        # the ODE oracle raises by name where its solution leaves the float
        # range (a = -80 over 10 years); the closed form's own error stops
        # such a run before any check, so that error stands in for it here
        def ode(r, t, tau, p, solve=quad_oracle.bond_price_from_ode):
            return solve(r, t, tau, replace(p, a=-80.0))
        monkeypatch.setattr(quad_oracle, "bond_price_from_ode", ode)
        code, out, err = run(capsys, "verify", "--paths", "2000", "--steps", "16",
                             "--maturity", "10")
        lines = out.strip().splitlines()
        assert err == "" and code == 3 and len(lines) == 10
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 1 and "bond vs ode solution" in failed[0]
        assert "oracle cannot evaluate" in failed[0] and "a=-80.0" in failed[0]

    def test_one_step_corridor_much_narrower_than_its_variance_passes_its_mc_check(
            self, capsys):
        # a corridor 0.05 wide at one step of variance 0.138 (v / L^2 = 55):
        # every path's stay probability is below 2^-57, as the closed form's
        # 7.5e-119 requires
        code, out, _ = run(capsys, "verify", "--spot", "98", "--barrier-low", "4.6",
                           "--barrier-high", "4.65", "--paths", "20000", "--steps", "1",
                           "--seed", "3")
        verdicts = {line[6:48].strip(): line for line in out.splitlines()}
        assert verdicts["double barrier vs forward-measure mc"].startswith("PASS"), out


def _estimate(mean, std_error, n_paths=1000):
    return mc_oracle.MCEstimate(mean=mean, std_error=std_error, n_paths=n_paths,
                                n_steps=8, seed=0)


class TestMCCheck:
    @pytest.mark.parametrize("mean, std_error", [(math.nan, 0.1), (1.0, math.nan),
                                                 (math.inf, 0.1), (1.0, math.inf),
                                                 (math.nan, 0.0)])
    def test_non_finite_estimate_fails_as_such(self, mean, std_error):
        passed, detail = cli._mc_check(1.0, _estimate(mean, std_error), payoff_cap=10.0)
        assert not passed and detail.startswith("non-finite estimate")

    def test_scale_floored_at_rounding_of_the_analytic_value(self):
        # a standard error below float resolution: 3.5e-15 apart at 14.53 is
        # |z| 22 on the standard error, 0.27 on the rounding floor
        analytic = 14.52647533625759
        passed, detail = cli._mc_check(analytic, _estimate(analytic + 3.5e-15, 1.59e-16),
                                       payoff_cap=30.0)
        assert passed and detail.startswith("|z|=0.2")
        passed, _ = cli._mc_check(analytic, _estimate(analytic + 1e-12, 1.59e-16),
                                  payoff_cap=30.0)
        assert not passed

    def test_zero_standard_error_uses_the_rule_of_three(self):
        passed, detail = cli._mc_check(8.4e-4, _estimate(0.0, 0.0), payoff_cap=30.0)
        assert passed and detail.startswith("degenerate sample")
        passed, _ = cli._mc_check(0.5, _estimate(0.0, 0.0), payoff_cap=30.0)
        assert not passed


def test_unknown_command_is_config_error(capsys):
    code, _, err = run(capsys, "inspect")
    assert code == 1


# Flag values for the argv grammar property: valid ones at smoke scale,
# and ones that must fail by name (out of range, non-finite, past the float
# range or the run limits, not a number)
_NUMBERS = st.one_of(st.sampled_from(["0.3", "1e-9", "-5e-1", "4.6", "4.87", "10", "110"]),
                     st.sampled_from(["0", "800", "-80", "1e200", "-1e300"]),
                     st.sampled_from(["-1", "nan", "inf", "x", ""]))
_FLAG_VALUES = {
    **{f"--{key.replace('_', '-')}": _NUMBERS for key in cli._FLOAT_KEYS},
    "--paths": st.sampled_from(["0", "1", "7", "64", "1000000000000", "1.5", "x"]),
    "--steps": st.sampled_from(["0", "1", "3", "16", "100000000", "x"]),
    "--seed": st.sampled_from(["0", "-1", "18446744073709551617", "x"]),
    "--sweep": st.sampled_from(["a=0.5,1", "rho=0.5,2", "theta=-1e300,0.04", "sigma1=1",
                                "a=", "rho=nan", "a=-80,800"]),
    "--grid": st.sampled_from(["100:110:3", "110:100:3", "90:130:1", "-5:5:3",
                               "1:1e300:3", "a:b:c"]),
    "--format": st.sampled_from(["csv", "svg", "pdf"]),
}
_flag_pairs = st.sampled_from(sorted(_FLAG_VALUES)).flatmap(
    lambda flag: _FLAG_VALUES[flag].map(lambda value: [flag, value]))
_ARGV_SECONDS = 5.0  # per invocation, at the smoke scale below


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(before=st.lists(_flag_pairs, max_size=2),
       command=st.sampled_from(["price", "curve", "verify"]),
       pairs=st.lists(_flag_pairs, max_size=4),
       extra=st.sampled_from([[], [], [], ["--verify"], ["--bogus"], ["7"]]))
# one case for each exit code that the draws may miss: 2, 3, 4 and 5
@example(before=[], command="price", pairs=[["--spot", "135"]], extra=[])
@example(before=[["--a", "800"]], command="verify", pairs=[], extra=[])
@example(before=[["--grid=-5:5:3"]], command="curve", pairs=[["--sweep", "a=-80,1"],
                                                             ["--maturity", "10"]], extra=[])
@example(before=[], command="price", pairs=[["--sigma2", "1e200"]], extra=[])
def test_argv_grammar_exits_by_code_without_a_traceback_or_warning(before, command, pairs,
                                                                   extra):
    # later flags win, so a drawn --paths or --steps, before or after the
    # command, replaces the smoke scale
    argv = ["--paths", "256", "--steps", "8", *sum(before, []), command, *sum(pairs, []),
            *extra]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert time.perf_counter() - t0 < _ARGV_SECONDS, argv
    assert 0 <= code <= 5, argv
    errors = err.getvalue().splitlines()
    assert all(line.startswith("error: ") for line in errors), argv
    if code in (1, 5):
        assert len(errors) == 1 and out.getvalue() == "", argv
    if command == "curve" and code in (0, 4) and out.getvalue().startswith("spot,"):
        # a nan is written only on a row that stderr reports
        reported = {line.split(": ")[1] for line in errors}
        lines = out.getvalue().splitlines()
        for line in lines[1:]:
            spot, *prices = line.split(",")
            for label, value in zip(lines[0].split(",")[1:], prices):
                assert value != "nan" or f"{label} at spot {spot}" in reported, argv
