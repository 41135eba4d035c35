import math
import warnings

import numpy as np
import pytest

from vasicek_barrier import cli, pricer
from vasicek_barrier.cli import main

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


class TestCurveCommand:
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

    def test_bad_sweep(self, capsys):
        code, _, err = run(capsys, "curve", "--sweep", "sigma1=0.1,0.2")
        assert code == 1 and "sweep" in err
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
        code, out, _ = run(capsys, "verify", "--paths", "1000", "--steps", "64")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "all checks passed"
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert len(lines) == 10

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

    @pytest.mark.parametrize("closed_form, checks", [
        ("knockout_call_forward", ["constant-rate closed-form reduction",
                                   "closed form vs kernel quadrature"]),
        ("up_and_out_call_constant_rate", ["constant-rate closed-form reduction"]),
    ], ids=["production", "constant-rate oracle"])
    def test_perturbed_closed_form_fails(self, closed_form, checks, monkeypatch, capsys):
        exact = getattr(pricer, closed_form)
        monkeypatch.setattr(pricer, closed_form,
                            lambda *a, **k: exact(*a, **k) * (1.0 + 1e-5))
        code, out, _ = run(capsys, "verify", "--paths", "1000", "--steps", "64")
        assert code == 3
        failed = [line[6:48].strip() for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == checks

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

    def test_mc_oracle_past_the_float_range_fails_its_own_checks_by_name(self, capsys):
        # a = 800 over a year: the OU paths need e^800, so the bond and the
        # two-factor estimators fail by name and the other checks still run
        code, out, err = run(capsys, "verify", "--a", "800", "--paths", "2000",
                             "--steps", "16")
        lines = out.strip().splitlines()
        assert err == "" and code == 3 and len(lines) == 10
        failed = {line[6:48].strip(): line for line in lines if line.startswith("FAIL")}
        assert sorted(failed) == ["bond vs monte carlo", "single barrier vs two-factor mc"]
        assert all("oracle cannot evaluate" in line and "a=800.0" in line
                   for line in failed.values())

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
    return cli.mc_oracle.MCEstimate(mean=mean, std_error=std_error, n_paths=n_paths,
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
