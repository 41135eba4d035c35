import math
import sys

import numpy as np
import pytest

from vasicek_barrier import mc_oracle
from vasicek_barrier import (MCConfig, MarketState, OptionSpec, VasicekParams,
                             bond_mc, bond_price, integrated_variance,
                             log_forward, price_barrier_mc,
                             price_barrier_mc_two_factor, price_double_barrier,
                             price_single_barrier, up_and_out_call_constant_rate,
                             vanilla_call_forward)

REF = VasicekParams(a=1.0, theta=0.04, sigma1=0.3, sigma2=0.3, rho=0.5, r0=0.05)
CONST = VasicekParams(a=1.0, theta=0.05, sigma1=0.3, sigma2=0.0, rho=0.5, r0=0.05)
B_UP = math.log(130.0)
B_LOW = math.log(100.0)
SINGLE = OptionSpec.single_up(100.0, 1.0, B_UP)
CORRIDOR = OptionSpec.double(100.0, 1.0, B_LOW, B_UP)
STATE = MarketState(spot=110.0, rate=0.05, time=0.0)

ESTIMATORS = {
    "forward-single": lambda cfg: price_barrier_mc(STATE, SINGLE, REF, cfg),
    "forward-corridor": lambda cfg: price_barrier_mc(STATE, CORRIDOR, REF, cfg),
    "two-factor-single": lambda cfg: price_barrier_mc_two_factor(STATE, SINGLE, REF, cfg),
    "two-factor-corridor": lambda cfg: price_barrier_mc_two_factor(STATE, CORRIDOR, REF, cfg),
    "bond": lambda cfg: bond_mc(0.05, 1.0, REF, cfg),
}


def z_score(est, reference):
    return abs(est.mean - reference) / est.std_error


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MCConfig(n_paths=0)
        with pytest.raises(ValueError):
            MCConfig(n_steps=0)
        with pytest.raises(ValueError):
            MCConfig(monitoring="exact")
        # scales and seed must be ints, not bools; the error names the field
        for field, bad in [("n_paths", math.nan), ("n_paths", True), ("n_paths", 1.5),
                           ("n_paths", 1000.0), ("n_paths", -3), ("n_steps", False),
                           ("n_steps", 64.0), ("n_steps", 0), ("seed", 1.5),
                           ("seed", None), ("seed", True)]:
            with pytest.raises(ValueError, match=field):
                MCConfig(**{field: bad})

    def test_steps_are_per_year(self):
        spec = OptionSpec.single_up(100.0, 0.5, B_UP)
        est = price_barrier_mc(STATE, spec, REF, MCConfig(1000, 512, 1))
        assert est.n_steps == 256
        est = bond_mc(0.05, 2.0, REF, MCConfig(1000, 100, 1))
        assert est.n_steps == 200


class TestBondMC:
    def test_deterministic_rate_has_only_trapezoid_bias(self):
        est = bond_mc(0.05, 1.0, CONST, MCConfig(n_paths=4, n_steps=10_000, seed=1))
        assert est.std_error == 0.0
        assert est.mean == pytest.approx(math.exp(-0.05), abs=1e-6)

    def test_agrees_with_closed_form(self):
        est = bond_mc(0.05, 1.0, REF, MCConfig(n_paths=200_000, n_steps=512, seed=4))
        assert z_score(est, bond_price(0.05, 0.0, 1.0, REF)) <= 3.0

    @staticmethod
    def trapezoid_expectation(r0, tau, p, n):
        """Exact E[exp(-dt w'r)] of the estimator: trapezoid weights w on n steps.

        r on the grid is Gaussian with the OU mean m and covariance C, so the
        expectation is exp(-dt w'm + dt^2 w'Cw / 2).
        """
        dt = tau / n
        t = np.linspace(0.0, tau, n + 1)
        w = np.ones(n + 1)
        w[[0, -1]] = 0.5
        mean = p.theta + (r0 - p.theta) * np.exp(-p.a * t)
        cov = p.sigma2**2 / (2.0 * p.a) * (np.exp(-p.a * np.abs(t[:, None] - t[None, :]))
                                            - np.exp(-p.a * (t[:, None] + t[None, :])))
        return math.exp(-dt * (w @ mean) + 0.5 * dt * dt * (w @ cov @ w))

    def test_agrees_with_the_exact_trapezoid_expectation(self):
        # the exact target of each estimate, so the check needs no second
        # estimate to compare with; the trapezoid rule's own error is
        # checked against the closed form apart from the sampling
        exact_512 = self.trapezoid_expectation(0.05, 1.0, REF, 512)
        assert abs(exact_512 - bond_price(0.05, 0.0, 1.0, REF)) <= 1e-6
        for steps in (256, 512):
            est = bond_mc(0.05, 1.0, REF, MCConfig(200_000, steps, 3))
            assert z_score(est, self.trapezoid_expectation(0.05, 1.0, REF, steps)) <= 3.0


class TestFloatRange:
    """Paths that leave the float range raise a ValueError by name, not NaN."""

    @staticmethod
    def model(a):
        return VasicekParams(**{**REF.__dict__, "a": a})

    def test_ou_paths_past_the_float_range_name_a(self):
        with pytest.raises(ValueError, match=r"a=-80\.0 over 10 years"):
            bond_mc(0.05, 10.0, self.model(-80.0), MCConfig(1000, 8, 1))
        single = OptionSpec.single_up(100.0, 1.0, B_UP)
        with pytest.raises(ValueError, match=r"a=800\.0 over 1 years"):
            price_barrier_mc_two_factor(STATE, single, self.model(800.0), MCConfig(1000, 8, 1))

    def test_non_finite_payoffs_raise(self):
        # |a| tau = 600 stays in range, but the rates grow like e^600
        with pytest.raises(ValueError, match="payoffs of block 0 are not finite"):
            bond_mc(0.05, 10.0, self.model(-60.0), MCConfig(1000, 8, 1))

    def test_negative_step_variance_names_a(self):
        # just above SMALL_A the closed-form integrated variance cancels
        with pytest.raises(ValueError, match=r"a=1e-06: integrated_variance"):
            price_barrier_mc(STATE, SINGLE, VasicekParams(1e-6, 0.0, 0.01, 0.14, 1.0, 0.07),
                             MCConfig(1000, 8, 1))


class TestDeterminism:
    def test_bit_identical_repeat(self):
        cfg = MCConfig(n_paths=50_000, n_steps=64, seed=17)
        assert price_barrier_mc(STATE, SINGLE, REF, cfg) == \
            price_barrier_mc(STATE, SINGLE, REF, cfg)
        assert price_barrier_mc_two_factor(STATE, CORRIDOR, REF, cfg) == \
            price_barrier_mc_two_factor(STATE, CORRIDOR, REF, cfg)
        assert bond_mc(0.05, 1.0, REF, cfg) == bond_mc(0.05, 1.0, REF, cfg)

    def test_partial_final_block(self):
        # n_paths straddling a block boundary still reduces deterministically
        cfg = MCConfig(n_paths=40_000, n_steps=32, seed=9)
        est1 = price_barrier_mc(STATE, SINGLE, REF, cfg)
        est2 = price_barrier_mc(STATE, SINGLE, REF, cfg)
        assert est1 == est2

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    @pytest.mark.parametrize("monitoring", ["bridge_corrected", "discrete"])
    def test_thread_count_leaves_the_estimate_bit_identical(self, estimator, monitoring,
                                                             monkeypatch):
        # five full blocks and a partial one, on 1 thread and on 3 (more than
        # the cores of a small machine), with frequent thread switches
        cfg = MCConfig(n_paths=5 * mc_oracle._BLOCK + 77, n_steps=16, seed=41,
                       monitoring=monitoring)
        monkeypatch.setattr(mc_oracle, "_workers", lambda n_blocks: 1)
        estimate = ESTIMATORS[estimator]
        serial = estimate(cfg)
        monkeypatch.setattr(mc_oracle, "_workers", lambda n_blocks: 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = estimate(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_seed_changes_estimate(self):
        a = price_barrier_mc(STATE, SINGLE, REF, MCConfig(50_000, 64, 1))
        b = price_barrier_mc(STATE, SINGLE, REF, MCConfig(50_000, 64, 2))
        assert a.mean != b.mean


class TestForwardMeasureMC:
    def test_unreachable_barrier_matches_vanilla(self):
        v = integrated_variance(0.0, 1.0, 1.0, REF)
        x = log_forward(STATE, SINGLE, REF)
        cfg = MCConfig(100_000, 64, 21)
        far = price_barrier_mc(
            STATE, OptionSpec.single_up(100.0, 1.0, x + 40.0 * math.sqrt(v)), REF, cfg)
        farther = price_barrier_mc(
            STATE, OptionSpec.single_up(100.0, 1.0, x + 45.0 * math.sqrt(v)), REF, cfg)
        # the barrier is unreachable in both runs: identical draws, identical result
        assert far == farther
        vanilla = bond_price(0.05, 0.0, 1.0, REF) * vanilla_call_forward(x, 100.0, v)
        assert z_score(far, vanilla) <= 3.0

    def test_constant_rate_single_barrier_vs_closed_form(self):
        disc = math.exp(-0.05)
        ref = up_and_out_call_constant_rate(110.0 / disc, 100.0, 130.0, 0.05, 0.3,
                                            1.0, dividend_yield=0.05)
        est = price_barrier_mc(STATE, SINGLE, CONST, MCConfig(200_000, 512, 5))
        assert z_score(est, ref) <= 3.0

    def test_knocked_out_start(self):
        state = MarketState(spot=140.0, rate=0.05)
        est = price_barrier_mc(state, SINGLE, REF, MCConfig(1000, 16, 1))
        assert (est.mean, est.std_error) == (0.0, 0.0)

    def test_double_barrier_agrees_with_series_price(self):
        est = price_barrier_mc(STATE, CORRIDOR, REF, MCConfig(400_000, 512, 11))
        ana = price_double_barrier(STATE, CORRIDOR, REF).price
        assert z_score(est, ana) <= 3.0


class TestMonitoring:
    def test_bridge_never_exceeds_discrete_same_seed(self):
        for spec in (SINGLE, CORRIDOR):
            d = price_barrier_mc(STATE, spec, REF, MCConfig(100_000, 128, 5, "discrete"))
            b = price_barrier_mc(STATE, spec, REF, MCConfig(100_000, 128, 5,
                                                            "bridge_corrected"))
            assert b.mean <= d.mean

    def test_discrete_estimates_converge_downward_to_bridge(self):
        bridge = price_barrier_mc(STATE, SINGLE, REF, MCConfig(50_000, 4000, 13))
        discrete = [price_barrier_mc(STATE, SINGLE, REF,
                                     MCConfig(50_000, n, 13, "discrete"))
                    for n in (250, 1000, 4000)]
        means = [e.mean for e in discrete]
        assert means[0] > means[1] > means[2]
        # discrete monitoring misses crossings, so it stays above the
        # continuously corrected estimate
        assert means[2] >= bridge.mean - discrete[2].std_error

    def test_lowering_barrier_never_unknocks(self):
        cfg = MCConfig(50_000, 128, 19)
        means = [price_barrier_mc(
            STATE, OptionSpec.single_up(100.0, 1.0, b), REF, cfg).mean
            for b in (math.log(126.0), math.log(130.0), math.log(136.0))]
        assert means[0] <= means[1] <= means[2]

    def test_narrowing_corridor_never_unknocks(self):
        cfg = MCConfig(50_000, 128, 23)
        means = [price_barrier_mc(
            STATE, OptionSpec.double(100.0, 1.0, B_LOW + shrink, B_UP - shrink),
            REF, cfg).mean for shrink in (0.04, 0.02, 0.0)]
        assert means[0] <= means[1] <= means[2]


def dense_weights(x, lower, upper, inv_v):
    """Bridge survival weights from every step of every row of x.

    The reference for the monitor, which evaluates only the steps near a
    wall.  Each factor is computed in the monitor's order of operations, so
    the two differ only in the order of each row's product.  It sums images
    |k| <= 10, more than any grid it is given needs.
    """
    left, right = x[:, :-1], x[:, 1:]
    knocked = (right >= upper).any(axis=1) | (right <= lower).any(axis=1)
    if lower == -math.inf:
        t = (upper - left) * (upper - right) * (-2.0 * inv_v)
        factors = 1.0 - np.exp(np.clip(t, -700.0, 0.0))
    else:
        width, d = upper - lower, right - left
        factors = np.zeros_like(left)
        for k in range(-10, 11):
            kl = k * width
            if k == 0:
                factors += 1.0
            else:
                factors += np.exp(np.clip((d + kl) * inv_v * (-2.0 * kl), -700.0, 0.0))
            image = (left + (kl - lower)) * (right + (kl - lower)) * inv_v * -2.0
            factors -= np.exp(np.clip(image, -700.0, 0.0))
        np.clip(factors, 0.0, 1.0, out=factors)
    return np.where(knocked, 0.0, factors.prod(axis=1))


def record_monitor(monkeypatch):
    """Record (x, lower, upper, inv_v, weights, mask) of every bridge-monitored block."""
    blocks = []
    for name in ("_single_bridge_knockout", "_double_bridge_knockout"):
        def recording(x, *args, monitor=getattr(mc_oracle, name)):
            knocked = monitor(x, *args)
            *walls, inv_v, w = args
            lower, upper = walls if len(walls) == 2 else (-math.inf, walls[0])
            blocks.append((x.copy(), lower, upper, inv_v, w.copy(), knocked.copy()))
            return knocked
        monkeypatch.setattr(mc_oracle, name, recording)
    return blocks


class TestBridgeScreen:
    # the benchmark's quarter-year maturity; every spot starts inside both
    # barrier regions, and spots 90 and 125 start within sqrt(20 max v) of a
    # wall at 512 steps per year
    SPECS = {"single": OptionSpec.single_up(100.0, 0.25, B_UP),
             "corridor": OptionSpec.double(100.0, 0.25, math.log(90.0), B_UP)}

    @pytest.mark.parametrize("kind", sorted(SPECS))
    @pytest.mark.parametrize("steps", [32, 512])
    def test_screened_weights_match_the_dense_monitor(self, kind, steps, monkeypatch):
        blocks = record_monitor(monkeypatch)
        spec = self.SPECS[kind]
        cfg = MCConfig(n_paths=mc_oracle._BLOCK + 300, n_steps=steps, seed=53)
        for spot in (90.0, 110.0, 120.0, 125.0):
            state = MarketState(spot=spot, rate=0.05)
            price_barrier_mc(state, spec, REF, cfg)
            price_barrier_mc_two_factor(state, spec, REF, cfg)
        assert len(blocks) == 4 * 2 * 2
        near_start = 0
        for x, lower, upper, inv_v, w, knocked in blocks:
            reach = math.sqrt(20.0 / inv_v.min())
            near_start += min(x[0, 0] - lower, upper - x[0, 0]) < reach
            assert np.all((w >= 0.0) & (w <= 1.0))
            assert np.all(w[knocked] == 0.0)
            np.testing.assert_allclose(w, dense_weights(x, lower, upper, inv_v),
                                       rtol=1e-14, atol=0.0)
            assert np.any((w > 0.0) & (w < 1.0))  # some paths do pass near a wall
        assert near_start >= 2 * 2

    @pytest.mark.parametrize("lower", [-math.inf, B_LOW])
    def test_a_start_near_a_wall_is_monitored(self, lower):
        # only the start lies within reach of the upper wall: the first step
        # still carries a crossing probability
        inv_v = np.full(4, 1e4)
        x = np.full((2, 5), B_UP - 0.1)
        x[0, 0] = B_UP - 1e-3
        w = np.empty(2)
        if lower == -math.inf:
            knocked = mc_oracle._single_bridge_knockout(x, B_UP, inv_v, w)
        else:
            knocked = mc_oracle._double_bridge_knockout(x, lower, B_UP, inv_v, w)
        assert not knocked.any()
        assert w[0] < 1.0 and w[1] == 1.0
        np.testing.assert_allclose(w, dense_weights(x, lower, B_UP, inv_v),
                                   rtol=1e-14, atol=0.0)


class TestCorridorStaySeries:
    # (a, b, v) on the corridor [0, 1]: from a short step near a wall to
    # steps whose variance is many times the squared width
    CASES = [(0.05, 0.08, 0.01), (0.2, 0.6, 0.3), (0.5, 0.4, 2.0), (0.5, 0.5, 5.0),
             (0.5, 0.5, 8.0), (0.1, 0.9, 9.0), (0.5, 0.5, 28.0)]

    @pytest.mark.parametrize("a, b, v", CASES)
    def test_matches_the_sine_series(self, a, b, v):
        # the corridor heat kernel over the free one, by its sine eigenmodes
        pn = np.pi * np.arange(1, 201)
        modes = np.exp(-0.5 * pn * pn * v) * np.sin(pn * a) * np.sin(pn * b)
        want = math.sqrt(2.0 * math.pi * v) * math.exp((b - a) ** 2 / (2.0 * v)) \
            * 2.0 * math.fsum(modes)
        acc = np.empty(1)
        mc_oracle._corridor_stay_prob_into(acc, np.array([a]), np.array([b]), 0.0, 1.0,
                                           np.array([1.0 / v]))
        assert acc[0] == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_a_step_far_wider_than_the_corridor_stays_below_2_to_the_minus_57(self):
        # v / L^2 = 28: each stay probability is below 3e-59, which images
        # |k| <= 10 alone put near 1e-4
        left, right = np.array([0.5, 0.3, 0.9, 0.01]), np.array([0.5, 0.6, 0.1, 0.99])
        acc = np.empty(4)
        mc_oracle._corridor_stay_prob_into(acc, 4.6 + 0.05 * left, 4.6 + 0.05 * right,
                                           4.6, 4.65, np.full(4, 1.0 / (28.0 * 0.05**2)))
        assert np.all((acc >= 0.0) & (acc <= 2.0**-57))


class TestMonitorContract:
    def test_bridge_monitoring_draws_only_normals(self, monkeypatch):
        used = set()

        class Recording:
            def __init__(self, gen):
                self._gen = gen

            def __getattr__(self, name):
                used.add(name)
                return getattr(self._gen, name)
        block_rng = mc_oracle._block_rng
        monkeypatch.setattr(mc_oracle, "_block_rng",
                            lambda seed, index: Recording(block_rng(seed, index)))
        cfg = MCConfig(n_paths=mc_oracle._BLOCK + 77, n_steps=32, seed=3)
        for estimate in ESTIMATORS.values():
            estimate(cfg)
        assert used == {"standard_normal"}

    @pytest.mark.parametrize("estimator, sets", [("forward-single", 1), ("forward-corridor", 1),
                                                 ("two-factor-single", 2),
                                                 ("two-factor-corridor", 2), ("bond", 1)])
    def test_each_block_draws_half_its_rows_and_mirrors_the_rest(self, estimator, sets,
                                                                  monkeypatch):
        # row h + i of a block is the path of row i's normals negated: checked
        # against the estimator's own builder run on normals negated here
        draws, builds, built, blocks = {}, [], [], []

        class Recording:
            def __init__(self, gen, index):
                self._gen, self._index = gen, index

            def standard_normal(self, *, out):
                self._gen.standard_normal(out=out)
                draws.setdefault(self._index, []).append(out.copy())
                return out

        class Replay:
            """Fills one block's recorded normal sets in turn, times ``sign``."""

            def __init__(self, normals, sign):
                self._normals, self._sign = iter(normals), sign

            def standard_normal(self, *, out):
                return np.multiply(next(self._normals), self._sign, out=out)
        block_rng = mc_oracle._block_rng
        monkeypatch.setattr(mc_oracle, "_block_rng",
                            lambda seed, index: Recording(block_rng(seed, index), index))
        simulate, payoff_stats = mc_oracle._simulate, mc_oracle._payoff_stats

        def recording_simulate(cfg, n, build, *args):
            def recording_build(rng, buf, m):
                built.append(build(rng, buf, m))
                return built[-1]
            builds.append((build, n))
            return simulate(cfg, n, recording_build, *args)

        def recording_stats(*args):  # the block's paths, after the mirroring
            blocks.append(tuple(np.array(a, copy=True) for a in built[-1]))
            return payoff_stats(*args)
        monkeypatch.setattr(mc_oracle, "_simulate", recording_simulate)
        monkeypatch.setattr(mc_oracle, "_payoff_stats", recording_stats)
        monkeypatch.setattr(mc_oracle, "_workers", lambda n_blocks: 1)  # blocks in order
        # a full block and an odd partial one
        cfg = MCConfig(n_paths=mc_oracle._BLOCK + 77, n_steps=32, seed=3)
        ESTIMATORS[estimator](cfg)
        shapes = {index: [z.shape for z in normals] for index, normals in draws.items()}
        assert shapes == {0: [(mc_oracle._BLOCK // 2, 32)] * sets, 1: [(39, 32)] * sets}
        (build, n), = builds
        assert [x.shape[0] for x, _ in blocks] == [mc_oracle._BLOCK, 77]
        for index, (x, log_disc) in enumerate(blocks):
            m, h = x.shape[0], (x.shape[0] + 1) // 2
            own = build(Replay(draws[index], 1.0), mc_oracle._Buffers(m, n), m)
            negated = build(Replay(draws[index], -1.0), mc_oracle._Buffers(m, n), m)
            for got, drawn, mirror in zip((x, log_disc), own, negated):
                if got.ndim == 0:  # a discount common to all paths
                    assert got == drawn == mirror
                    continue
                assert np.array_equal(got[:h], drawn[:h])
                np.testing.assert_allclose(got[h:], mirror[:m - h], rtol=1e-12, atol=0.0)
            if m % 2:  # row h - 1 is built from its own normals and has no partner
                assert m - h == h - 1
                assert np.array_equal(x[h - 1], own[0][h - 1])

    def test_a_monitor_that_knocks_every_path_zeroes_the_corridor(self, monkeypatch):
        # the benchmark's over-knocking control: the returned mask, not the
        # weights, decides which paths pay nothing
        knockout = mc_oracle._double_bridge_knockout
        monkeypatch.setattr(mc_oracle, "_double_bridge_knockout",
                            lambda *args: knockout(*args) | True)
        cfg = MCConfig(n_paths=mc_oracle._BLOCK + 77, n_steps=32, seed=3)
        for estimator in ("forward-corridor", "two-factor-corridor"):
            est = ESTIMATORS[estimator](cfg)
            assert (est.mean, est.std_error) == (0.0, 0.0)
        assert ESTIMATORS["forward-single"](cfg).mean > 0.0


class TestStdErrorOverPairs:
    @staticmethod
    def cluster_estimate(blocks):
        """Mean and standard error from each block's per-path payoffs, by brute force.

        Units are the pairs (i, h + i) of each block, h = ceil(m/2), and the
        unpaired row h - 1 of an odd block; the variance of the mean is
        K/(K-1) * sum_k (U_k - n_k mean)^2 / n^2 over K units.
        """
        units = []
        for pay in blocks:
            m, h = pay.size, (pay.size + 1) // 2
            units += [(pay[i] + pay[h + i], 2) for i in range(m - h)]
            if m % 2:
                units.append((pay[h - 1], 1))
        n = sum(size for _, size in units)
        mean = math.fsum(total for total, _ in units) / n
        k = len(units)
        if k == 1:
            return mean, 0.0
        dev = math.fsum((total - size * mean) ** 2 for total, size in units)
        return mean, math.sqrt(dev / (k - 1) * k / n / n)

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    @pytest.mark.parametrize("n_paths", [1, 2, 3, 2 * mc_oracle._BLOCK + 5])
    def test_standard_error_matches_the_cluster_estimator(self, estimator, n_paths,
                                                         monkeypatch):
        blocks = []
        payoff_stats = mc_oracle._payoff_stats

        def recording(x_final, strike, knocked, scale):
            pay = np.maximum(np.exp(x_final) - strike, 0.0)
            if knocked is not None:
                pay[knocked] = 0.0
            blocks.append(pay * scale)
            return payoff_stats(x_final, strike, knocked, scale)
        monkeypatch.setattr(mc_oracle, "_payoff_stats", recording)
        monkeypatch.setattr(mc_oracle, "_workers", lambda n_blocks: 1)  # blocks in order
        est = ESTIMATORS[estimator](MCConfig(n_paths=n_paths, n_steps=64, seed=47))
        assert sum(pay.size for pay in blocks) == n_paths
        mean, std_error = self.cluster_estimate(blocks)
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0.0)
        if n_paths > 3:
            assert est.std_error > 0.0


class TestStdErrorScaling:
    def test_inverse_sqrt_paths(self):
        ses = []
        for n in (10_000, 100_000, 1_000_000):
            est = price_barrier_mc(STATE, SINGLE, REF, MCConfig(n, 64, 29))
            ses.append(est.std_error)
        slope = np.polyfit(np.log10([1e4, 1e5, 1e6]), np.log10(ses), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)


class TestTwoFactorMC:
    def test_decoupled_deterministic_rate_reduction(self):
        p = VasicekParams(a=1.0, theta=0.05, sigma1=0.3, sigma2=0.0, rho=0.0, r0=0.05)
        disc = math.exp(-0.05)
        ref = up_and_out_call_constant_rate(110.0 / disc, 100.0, 130.0, 0.05, 0.3,
                                            1.0, dividend_yield=0.05)
        est = price_barrier_mc_two_factor(STATE, SINGLE, p, MCConfig(200_000, 512, 31))
        assert z_score(est, ref) <= 3.0

    def test_near_deterministic_model_prices_without_bias(self):
        # with sigma1 = 1e-9 and sigma2 = 0 the estimate is the discounted
        # stock less K times the path discount; drift and discount integrate
        # the rate by the same rule, so only the discount's O(dt^2) error is left
        p = VasicekParams(a=1.0, theta=0.04, sigma1=1e-9, sigma2=0.0, rho=0.5, r0=0.05)
        est = price_barrier_mc_two_factor(STATE, SINGLE, p, MCConfig(1000, 512, 1))
        ana = price_single_barrier(STATE, SINGLE, p).price
        assert abs(est.mean - ana) <= 1e-6 * ana

    def test_agrees_with_forward_measure_oracle(self):
        cfg = MCConfig(200_000, 512, 37)
        fwd = price_barrier_mc(STATE, SINGLE, REF, cfg)
        two = price_barrier_mc_two_factor(STATE, SINGLE, REF, cfg)
        combined = math.hypot(fwd.std_error, two.std_error)
        assert abs(fwd.mean - two.mean) <= 3.0 * combined

    def test_step_doubling_within_one_std_error(self):
        # the two runs are independent samples, so the 1-sigma yardstick for
        # "no detectable bias" is the combined standard error
        coarse = price_barrier_mc_two_factor(STATE, SINGLE, REF, MCConfig(100_000, 256, 43))
        fine = price_barrier_mc_two_factor(STATE, SINGLE, REF, MCConfig(100_000, 512, 43))
        assert abs(fine.mean - coarse.mean) <= math.hypot(coarse.std_error,
                                                          fine.std_error)

    def test_knocked_out_start(self):
        state = MarketState(spot=95.0, rate=0.05)
        est = price_barrier_mc_two_factor(state, CORRIDOR, REF, MCConfig(1000, 16, 1))
        assert (est.mean, est.std_error) == (0.0, 0.0)
