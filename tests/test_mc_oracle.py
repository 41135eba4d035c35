import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from vasicek_barrier import mc_oracle
from vasicek_barrier import (MCConfig, MarketState, OptionSpec, VasicekParams,
                             b_factor, bond_mc, bond_price, integrated_variance,
                             log_bond_price, log_forward, price_barrier_mc,
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
        # scales and seed must be ints, not bools; the error names the field
        for field, bad in [("n_paths", math.nan), ("n_paths", True), ("n_paths", 1.5),
                           ("n_paths", 1000.0), ("n_paths", -3), ("n_steps", False),
                           ("n_steps", 64.0), ("n_steps", 0), ("seed", 1.5),
                           ("seed", None), ("seed", True)]:
            with pytest.raises(ValueError, match=field):
                MCConfig(**{field: bad})

    def test_scale_and_seed_are_the_only_fields(self):
        # the barrier is always monitored by the bridge correction
        assert [f.name for f in dataclasses.fields(MCConfig)] == ["n_paths", "n_steps", "seed"]

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
        # rates from -1000 discount by about e^865 over two years: the
        # weights stay in range, but every payoff overflows
        with pytest.raises(ValueError, match="payoffs of block 0 are not finite"):
            bond_mc(-1000.0, 2.0, REF, MCConfig(1000, 8, 1))

    @pytest.mark.parametrize("a, tau, spread", [(-1.0, 5.0, r"967\.6"), (-60.0, 10.0, "inf")])
    def test_a_log_discount_no_run_can_sample_names_a(self, a, tau, spread):
        # a = -1 over 5 years spreads the log discount to variance 968 (0.015
        # for the reference model); at a = -60 the rates grow like e^600 and
        # the variance overflows.  Either fails by name before any path
        with pytest.raises(ValueError, match=rf"a={a!r} over {tau:g} years: the log "
                                             rf"discount's variance {spread} "):
            bond_mc(0.05, tau, self.model(a), MCConfig(256, 8, 1))

    def test_a_path_discount_no_run_can_sample_names_a(self):
        # the two-factor estimator's rate normals are iid standard normals, so
        # its path discount is the bond's over the option's horizon; at a = -60
        # the log forward overflows first, in production code
        spec = OptionSpec.single_up(100.0, 5.0, B_UP)
        with pytest.raises(ValueError, match=r"a=-1\.0 over 5 years: the log discount's "
                                             r"variance 967\.6 puts the price's mean where"):
            price_barrier_mc_two_factor(STATE, spec, self.model(-1.0), MCConfig(256, 8, 1))

    def test_negative_step_variance_names_a(self, monkeypatch):
        # integrated_variance no longer cancels below zero at small a (it once
        # gave -2.5 at a = 1e-6), so a cancelling one stands in for it
        monkeypatch.setattr(mc_oracle, "integrated_variance",
                            lambda *args: integrated_variance(*args) - 1e-3)
        with pytest.raises(ValueError, match=r"a=1e-06: integrated_variance"):
            price_barrier_mc(STATE, SINGLE, VasicekParams(1e-6, 0.0, 0.01, 0.14, 1.0, 0.07),
                             MCConfig(1000, 8, 1))

    def test_the_bond_prices_where_only_the_rate_paths_overflow(self):
        # a = 800 over a year: decay^-j would reach e^800, but the bond's
        # discount weights only decay
        est = bond_mc(0.05, 1.0, self.model(800.0), MCConfig(1000, 512, 1))
        assert math.isfinite(est.mean) and 0.0 < est.std_error < 1e-6


def _ou_log_discount(z, r0, tau, p):
    """The trapezoid log discount of each row's OU path, by the step recursion,
    and the same rule applied to |r|: the scale of its rounding."""
    n = z.shape[1]
    dt = tau / n
    decay = math.exp(-p.a * dt)
    shock = p.sigma2 * math.sqrt(-math.expm1(-2.0 * p.a * dt) / (2.0 * p.a))
    r = np.empty((z.shape[0], n + 1))
    r[:, 0] = r0
    for j in range(n):
        r[:, j + 1] = p.theta + decay * (r[:, j] - p.theta) + shock * z[:, j]
    w = np.full(n + 1, dt)
    w[[0, -1]] *= 0.5
    return np.array([-math.fsum(w * row) for row in r]), np.abs(r) @ w


class TestRunLimits:
    """A run past the stated size fails by name before it allocates."""

    @pytest.mark.parametrize("estimate, message", [
        (lambda: price_barrier_mc(STATE, SINGLE, REF, MCConfig(2, 100_000_000, 1)),
         "steps: 100000000 steps a year over maturity 1 make 100000000 steps a path"),
        (lambda: price_barrier_mc_two_factor(
            STATE, OptionSpec.single_up(100.0, 40.0, B_UP), REF, MCConfig(2, 512, 1)),
         "steps: 512 steps a year over maturity 40 make 20480 steps a path"),
        (lambda: bond_mc(0.05, 2.0, REF, MCConfig(1_000_000, 10_000, 1)),
         "steps: 10000 steps a year over maturity 2 make 20000 steps a path"),
        (lambda: price_barrier_mc(STATE, SINGLE, REF, MCConfig(10**12, 512, 1)),
         "paths: 1000000000000 paths a run"),
    ], ids=["steps", "maturity", "bond", "paths"])
    def test_rejected_by_name_without_allocating(self, estimate, message):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{message}, past the limit"):
                estimate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_the_longest_run_in_the_limit_is_accepted(self):
        # every configuration in tests/ and demos/ runs: at most 15360 steps
        # and the CLI's default of 10**6 paths, the most that any of them use
        assert mc_oracle._n_steps(MCConfig(2, 512, 1), 30.0) == 15360
        assert mc_oracle._n_steps(MCConfig(2, 1 << 12, 1), 4.0) == mc_oracle._MAX_STEPS
        assert MCConfig(mc_oracle._MAX_PATHS, 512, 1).n_paths > 10**6


def test_grid_helper_equals_per_element_calls():
    p = VasicekParams(a=0.7, theta=0.04, sigma1=0.3, sigma2=0.3, rho=-0.4, r0=0.05)
    grid = np.linspace(0.0, 3.0, 1537)  # |a| u crosses the series switch at 1
    t = grid.tolist()
    v = mc_oracle._on_grid(lambda t0, t1: integrated_variance(t0, t1, 3.0, p), t[:-1], t[1:])
    log_a = mc_oracle._on_grid(lambda s: log_bond_price(0.0, s, 3.0, p), t)
    b = mc_oracle._on_grid(lambda s: b_factor(s, 3.0, p.a), t)
    assert v.dtype == log_a.dtype == b.dtype == np.float64
    assert v.tolist() == [integrated_variance(t0, t1, 3.0, p)
                          for t0, t1 in zip(grid[:-1], grid[1:])]
    assert log_a.tolist() == [log_bond_price(0.0, s, 3.0, p) for s in grid]
    assert b.tolist() == [b_factor(s, 3.0, p.a) for s in grid]


class TestWorkingSet:
    """Each worker keeps one array a drawn row and only the scratch its estimator needs."""

    # peak bytes traced for two 2048 x 512 blocks on one worker: each
    # estimator keeps one block-sized array of its 1024 drawn rows (4.2 MB).
    # The forward builds its paths in its normals, the two-factor builds
    # them in its first normals and draws its second a row chunk at a time,
    # and the bond keeps only its normals; the rest is the monitor's and the
    # rate chunks
    PEAK_MB = {"forward-single": 8, "forward-corridor": 8, "two-factor-single": 8,
               "two-factor-corridor": 8, "bond": 5}

    @pytest.mark.parametrize("estimator", sorted(PEAK_MB))
    def test_peak_traced_memory(self, estimator, monkeypatch):
        monkeypatch.setattr(mc_oracle, "_workers", lambda n_blocks: 1)
        cfg = MCConfig(n_paths=2 * mc_oracle._BLOCK, n_steps=512, seed=3)
        ESTIMATORS[estimator](cfg)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            ESTIMATORS[estimator](cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_MB[estimator] * 1e6

    @pytest.mark.parametrize("a", [-5.0, 1e-7, 1.0, 800.0])
    def test_bond_weighted_sum_matches_the_ou_paths(self, a):
        p = VasicekParams(**{**REF.__dict__, "a": a})
        z = np.random.default_rng(5).standard_normal((64, 512))
        const, weights = mc_oracle._bond_log_discount_weights(0.05, 1.0, 512, p)
        want, scale = _ou_log_discount(z, 0.05, 1.0, p)
        assert np.all(np.abs(const + z @ weights - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("kind", ["single", "corridor"])
    def test_monitor_weights_do_not_depend_on_the_chunk_size(self, kind, monkeypatch):
        # one row per chunk, the default (512 of these 128-step rows), and the
        # whole block as one chunk; the two-factor draws its rate normals and
        # builds its rates through the same chunks
        spec = TestBridgeScreen.SPECS[kind]
        weights, estimates = [], []
        # one worker, so the monitor records the blocks in block order
        monkeypatch.setattr(mc_oracle, "_workers", lambda n_blocks: 1)
        cfg = MCConfig(mc_oracle._BLOCK + 77, 512, 7)
        for chunk in (1, mc_oracle._CHUNK, 1 << 30):
            monkeypatch.setattr(mc_oracle, "_CHUNK", chunk)
            blocks = record_monitor(monkeypatch)
            price_barrier_mc(STATE, spec, REF, cfg)
            weights.append([w for *_, w, _ in blocks])
            estimates.append(price_barrier_mc_two_factor(STATE, spec, REF, cfg))
        assert len(weights[0]) == 2 * 2  # the drawn and the mirrored half of two blocks
        for w1, w_default, w_block in zip(*weights):
            assert np.array_equal(w1, w_default) and np.array_equal(w1, w_block)
            assert np.any((w1 > 0.0) & (w1 < 1.0))
        assert estimates[0] == estimates[1] == estimates[2]


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
    def test_thread_count_leaves_the_estimate_bit_identical(self, estimator, monkeypatch):
        # five full blocks and a partial one, on 1 thread and on 3 (more than
        # the cores of a small machine), with frequent thread switches
        cfg = MCConfig(n_paths=5 * mc_oracle._BLOCK + 77, n_steps=16, seed=41)
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

    # (mean, standard error) at MCConfig(2 * _BLOCK + 77, 64, 5), recorded
    # with numpy 2.4 on x86-64: a change to how a builder lays out or draws
    # its normals must consume the same stream and keep every estimate the
    # same float
    PINNED = {"forward-single": (0.4849779643050668, 0.035283223296834004),
              "forward-corridor": (0.00104811356013619, 0.0008450525802364397),
              "two-factor-single": (0.569137393364761, 0.04003486855500009),
              "two-factor-corridor": (0.00019470987049656846, 0.00016795098945125491),
              "bond": (0.9616679044146689, 0.0002226243964823119)}

    @pytest.mark.parametrize("estimator", sorted(PINNED))
    def test_estimates_are_pinned_across_versions(self, estimator):
        est = ESTIMATORS[estimator](MCConfig(2 * mc_oracle._BLOCK + 77, 64, 5))
        assert (est.mean, est.std_error) == self.PINNED[estimator]

    def test_blocks_in_flight_are_bounded(self, monkeypatch):
        # 3001 blocks of 8 paths on 3 workers: at most two blocks a worker
        # are submitted and not yet taken, and the estimate is the
        # one-worker run's
        import concurrent.futures
        monkeypatch.setattr(mc_oracle, "_BLOCK", 8)
        cfg = MCConfig(n_paths=8 * 3000 + 5, n_steps=16, seed=43)
        estimate = ESTIMATORS["two-factor-corridor"]
        monkeypatch.setattr(mc_oracle, "_workers", lambda n_blocks: 1)
        serial = estimate(cfg)
        outstanding = most = submitted = 0

        class Taken:  # a future that counts when its result is taken
            def __init__(self, future):
                self.future = future

            def __getattr__(self, name):
                return getattr(self.future, name)

            def result(self, timeout=None):
                nonlocal outstanding
                outstanding -= 1
                return self.future.result(timeout)

        class Counting(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                nonlocal outstanding, most, submitted
                outstanding += 1
                submitted += 1
                most = max(most, outstanding)
                return Taken(super().submit(fn, *args, **kwargs))

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counting)
        monkeypatch.setattr(mc_oracle, "_workers", lambda n_blocks: 3)
        assert estimate(cfg) == serial
        assert submitted == 3001 and outstanding == 0
        assert 0 < most <= 2 * 3

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
    """Record (x, lower, upper, inv_v, weights, mask) of every bridge-monitored half block.

    The monitor sees a block's drawn rows, then its mirrored rows, each
    without their shared start; x puts that start back in front.
    """
    blocks = []
    for name in ("_single_bridge_knockout", "_double_bridge_knockout"):
        def recording(x, start, *args, monitor=getattr(mc_oracle, name)):
            knocked = monitor(x, start, *args)
            *walls, inv_v, w = args
            lower, upper = walls if len(walls) == 2 else (-math.inf, walls[0])
            paths = np.column_stack([np.full(x.shape[0], start), x])
            blocks.append((paths, lower, upper, inv_v, w.copy(), knocked.copy()))
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
        assert len(blocks) == 4 * 2 * 2 * 2  # spots, estimators, blocks, halves
        near_start = 0
        for x, lower, upper, inv_v, w, knocked in blocks:
            reach = math.sqrt(20.0 / inv_v.min())
            near_start += min(x[0, 0] - lower, upper - x[0, 0]) < reach
            assert np.all((w >= 0.0) & (w <= 1.0))
            assert np.all(w[knocked] == 0.0)
            np.testing.assert_allclose(w, dense_weights(x, lower, upper, inv_v),
                                       rtol=1e-14, atol=0.0)
            assert np.any((w > 0.0) & (w < 1.0))  # some paths do pass near a wall
        assert near_start >= 2 * 2 * 2

    @pytest.mark.parametrize("lower", [-math.inf, B_LOW, B_UP - 1.0])
    def test_a_start_near_a_wall_is_monitored(self, lower):
        # only the start lies within reach of the upper wall: the first step
        # still carries a crossing probability.  The lower wall, where there
        # is one, lies out of reach, so the weights are the up-and-out's
        inv_v = np.full(4, 1e4)
        x = np.full((2, 4), B_UP - 0.1)
        w, one_wall = np.empty((2, 2)), np.empty((2, 2))
        for row, start in enumerate((B_UP - 1e-3, B_UP - 0.1)):
            assert not mc_oracle._bridge_knockout(x, start, lower, B_UP, inv_v, w[row]).any()
            assert not mc_oracle._single_bridge_knockout(x, start, B_UP, inv_v,
                                                         one_wall[row]).any()
            paths = np.column_stack([np.full(2, start), x])
            np.testing.assert_allclose(w[row], dense_weights(paths, lower, B_UP, inv_v),
                                       rtol=1e-14, atol=0.0)
        assert np.all(w[0] < 1.0) and np.all(w[1] == 1.0)
        np.testing.assert_allclose(w, one_wall, rtol=1e-15, atol=0.0)


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

    @pytest.mark.parametrize("a, b, v", CASES + [(0.999, 0.9995, 1e-6), (0.3, 0.7, 1e-4)])
    def test_one_wall_is_the_single_reflection(self, a, b, v):
        # lower = -inf: no lower reflection, no image pair and no floor, so
        # the series is the up-and-out's factor to the last bit, here against
        # the wall at 1, with the exponent floored where it would underflow
        left, right = np.array([a, b, 1.0 - 1e-12]), np.array([b, a, 0.5])
        inv_v = np.full(3, 1.0 / v)
        acc = np.empty(3)
        mc_oracle._corridor_stay_prob_into(acc, left, right, -math.inf, 1.0, inv_v)
        want = 1.0 - np.exp(np.clip((1.0 - left) * (1.0 - right) * (-2.0 * inv_v), -700.0, 0.0))
        assert np.array_equal(acc, want)

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

        def copied(paths):
            return tuple(np.array(a, copy=True) for a in paths)
        block_rng = mc_oracle._block_rng
        monkeypatch.setattr(mc_oracle, "_block_rng",
                            lambda seed, index: Recording(block_rng(seed, index), index))
        simulate, payoff_stats = mc_oracle._simulate, mc_oracle._payoff_stats

        def recording_simulate(cfg, n, build, *args):
            def recording_build(rng, buf, m):
                out = build(rng, buf, m)
                built.append((copied(out), out))  # the drawn rows, and the arrays
                return out
            builds.append((build, n))
            return simulate(cfg, n, recording_build, *args)

        def recording_stats(x_final, *args):  # the block's rows, after the mirroring
            drawn, out = built[-1]
            blocks.append((drawn, copied(out), x_final.copy()))
            return payoff_stats(x_final, *args)
        monkeypatch.setattr(mc_oracle, "_simulate", recording_simulate)
        monkeypatch.setattr(mc_oracle, "_payoff_stats", recording_stats)
        monkeypatch.setattr(mc_oracle, "_workers", lambda n_blocks: 1)  # blocks in order
        # a full block and an odd partial one
        cfg = MCConfig(n_paths=mc_oracle._BLOCK + 77, n_steps=32, seed=3)
        ESTIMATORS[estimator](cfg)
        shapes = {index: [z.shape for z in normals] for index, normals in draws.items()}
        assert shapes == {0: [(mc_oracle._BLOCK // 2, 32)] * sets, 1: [(39, 32)] * sets}
        (build, n), = builds
        assert [x_final.size for *_, x_final in blocks] == [mc_oracle._BLOCK, 77]
        for index, (drawn, (x, log_disc, start), x_final) in enumerate(blocks):
            m = x_final.size
            h = (m + 1) // 2
            own = build(Replay(draws[index], 1.0), mc_oracle._Buffers(m, n), m)
            negated = build(Replay(draws[index], -1.0), mc_oracle._Buffers(m, n), m)
            assert x.shape[0] == h and np.array_equal(drawn[0], own[0])
            assert start == drawn[2] == own[2] == negated[2]  # the start draws no normals
            # rows 0..m-h-1 now hold the mirrored paths, each recorded as row h + i
            np.testing.assert_allclose(x[:m - h], negated[0][:m - h], rtol=1e-12, atol=0.0)
            assert np.array_equal(x_final, np.concatenate([drawn[0][:, -1], x[:m - h, -1]]))
            if log_disc.ndim == 0:  # a discount common to all paths
                assert log_disc == drawn[1] == own[1] == negated[1]
            else:
                assert np.array_equal(log_disc[:h], own[1][:h])
                np.testing.assert_allclose(log_disc[h:], negated[1][:m - h], rtol=1e-12,
                                           atol=0.0)
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
