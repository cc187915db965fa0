import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

import recurtest as rt
from recurtest import InvalidInputError, ScenarioConfig, simulate, streams
from recurtest.simulate import _fbm_path, _lfilter


def rng_of(*key):
    return np.random.default_rng(key)


class UnitDraw:
    """Generator stand-in whose draws are all zero except draw number k."""

    def __init__(self, k):
        self.k = k
        self.used = 0

    def standard_normal(self, size):
        out = np.zeros(size)
        if self.used <= self.k < self.used + size:
            out[self.k - self.used] = 1.0
        self.used += size
        return out


def linear_map(sample):
    """Matrix A with sample(rng) = A @ draws, one column per draw."""
    columns = []
    while True:
        rng = UnitDraw(len(columns))
        columns.append(sample(rng))
        if len(columns) == rng.used:
            return np.array(columns).T


def fbm_cov(times, hurst):
    h2 = 2.0 * hurst
    at = np.abs(times) ** h2
    return 0.5 * (at[:, None] + at[None, :] - np.abs(times[:, None] - times[None, :]) ** h2)


class TestWhiteNoise:
    def test_moments(self):
        draws = rt.gen_white_noise(10**6, rng_of(1))
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var() - 1.0) < 0.01

    def test_deterministic(self):
        a = rt.gen_white_noise(50, rng_of(2))
        b = rt.gen_white_noise(50, rng_of(2))
        assert np.array_equal(a, b)

    def test_length_guard(self):
        with pytest.raises(InvalidInputError):
            rt.gen_white_noise(0, rng_of(3))


def arma_variance_oracle(phi, theta, terms=4000):
    """Stationary variance via the moving-average expansion weights."""
    phi = tuple(phi)
    psi = [1.0]
    for j in range(1, terms):
        val = theta if j == 1 else 0.0
        for i, p in enumerate(phi, start=1):
            if j - i >= 0:
                val += p * psi[j - i]
        psi.append(val)
    return float(np.sum(np.square(psi)))


class TestLfilter:
    """``_lfilter`` against ``scipy.signal.lfilter``, bit for bit."""

    @pytest.mark.parametrize(
        "b, a",
        [
            ((1.0, 0.0), (1.0, -0.6)),  # ARMA(1, 0)
            ((1.0, 0.2), (1.0, -0.2, -0.5)),  # ARMA(2, 1)
            ((0.97,), (1.0, -0.97)),  # first order, as the long-memory kernel sum
        ],
    )
    def test_matches_scipy(self, b, a):
        x = rng_of(60, len(a)).standard_normal(5000) * 10.0 ** rng_of(61).integers(-3, 4, 5000)
        assert np.array_equal(_lfilter(b, a, x.tolist()), lfilter(b, a, x))

    def test_matches_scipy_from_a_state(self):
        x = rng_of(62).standard_normal(3000)
        zi = float(rng_of(63).standard_normal())
        want = lfilter((1.0,), (1.0, -0.9), x, zi=np.array([zi]))[0]
        assert np.array_equal(_lfilter((1.0,), (1.0, -0.9), x.tolist(), (zi,)), want)

    def test_rows_step_together_and_skip(self):
        x = rng_of(64).standard_normal((5, 400))
        got = _lfilter((1.0, 0.2), (1.0, -0.2, -0.5), x.T, skip=150).T
        assert got.shape == (5, 250)
        for row, steps in zip(got, x):
            assert np.array_equal(row, lfilter((1.0, 0.2), (1.0, -0.2, -0.5), steps)[150:])


class TestArArma:
    def test_degenerate_coefficients_give_white_noise(self):
        series = rt.gen_ar_arma(1000, (0.0,), 0.0, rng_of(4))
        noise = rng_of(4).standard_normal(1500)[500:]
        assert np.allclose(series, noise)

    def test_ar1_lag_one_autocorrelation(self):
        series = rt.gen_ar_arma(10**6, (0.1,), 0.0, rng_of(5))
        acf1 = np.corrcoef(series[:-1], series[1:])[0, 1]
        assert acf1 == pytest.approx(0.1, abs=0.01)

    def test_arma21_variance_matches_expansion(self):
        phi, theta = (0.2, 0.5), 0.2
        series = rt.gen_ar_arma(10**6, phi, theta, rng_of(6))
        assert series.var() == pytest.approx(arma_variance_oracle(phi, theta), rel=0.02)

    def test_nonstationary_rejected(self):
        with pytest.raises(InvalidInputError):
            rt.gen_ar_arma(100, (1.0,), 0.0, rng_of(7))
        with pytest.raises(InvalidInputError):
            rt.gen_ar_arma(100, (0.7, 0.5), 0.0, rng_of(7))

    def test_study_parameters_accepted(self):
        rt.gen_ar_arma(100, (0.2, 0.5), 0.2, rng_of(8))
        rt.gen_ar_arma(100, (0.9,), 0.0, rng_of(8))

    def test_stationary_sd_matches_expansion_oracle(self):
        for phi, theta in [((0.1,), 0.0), ((0.2, 0.5), 0.2), ((0.9,), 0.0), ((0.0,), 0.0)]:
            want = np.sqrt(arma_variance_oracle(phi, theta))
            assert rt.arma_stationary_sd(phi, theta) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 4])
    def test_discrete_batch_equals_single_series(self, n):
        cfg = ScenarioConfig(scenario="D3", n=n, length=30, phi=(0.2, 0.5), theta=0.2, seed=65)
        xs, _ = rt.gen_scenario(cfg)
        sd = rt.arma_stationary_sd(cfg.phi, cfg.theta)
        for k in range(n):
            rng = streams.substream(cfg.seed, streams.SCENARIO, k)
            assert np.array_equal(xs[k], rt.gen_ar_arma(cfg.length, cfg.phi, cfg.theta, rng) / sd)

    def test_discrete_batch_blocks_do_not_change_draws(self, monkeypatch):
        cfg = ScenarioConfig(scenario="D1", n=7, length=30, phi=(0.2, 0.5), theta=0.2, seed=66)
        whole = rt.gen_scenario(cfg)
        monkeypatch.setattr(simulate, "_ARMA_BLOCK", 3)  # rows step as 3 + 3 + 1
        blocked = rt.gen_scenario(cfg)
        assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))

    def test_discrete_scenarios_use_unit_variance_series(self):
        cfg = ScenarioConfig(scenario="D1", n=400, length=100, phi=(0.2, 0.5), theta=0.2, seed=90)
        xs, _ = rt.gen_scenario(cfg)
        assert xs.var() == pytest.approx(1.0, rel=0.05)


class TestFbm:
    def test_starts_at_zero_and_deterministic(self):
        a = rt.gen_fbm(100, 0.7, rng_of(9))
        b = rt.gen_fbm(100, 0.7, rng_of(9))
        assert a[0] == 0.0
        assert np.array_equal(a, b)

    def test_hurst_guard(self):
        for h in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(InvalidInputError):
                rt.gen_fbm(10, h, rng_of(10))

    @pytest.mark.parametrize("hurst", [0.05, 0.3, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("length", [2, 3, 7, 16])
    def test_exact_covariance(self, hurst, length):
        a = linear_map(lambda rng: rt.gen_fbm(length, hurst, rng))
        times = np.arange(length) / length
        assert np.abs(a @ a.T - fbm_cov(times, hurst)).max() < 1e-12

    @pytest.mark.parametrize("hurst", [0.05, 0.3, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("length, pre_steps", [(2, 1), (5, 3), (6, 11)])
    def test_exact_covariance_with_negative_times(self, hurst, length, pre_steps):
        a = linear_map(lambda rng: _fbm_path(length, hurst, pre_steps, rng))
        times = (np.arange(pre_steps + length) - pre_steps) / length
        assert np.abs(a @ a.T - fbm_cov(times, hurst)).max() < 1e-12

    def test_brownian_variance_near_end(self):
        last = np.array([rt.gen_fbm(100, 0.5, rng_of(11, k))[-1] for k in range(40000)])
        # last grid point is t = 0.99
        assert last.var() == pytest.approx(0.99, abs=0.02)

    def test_brownian_disjoint_increments_uncorrelated(self):
        paths = np.array([rt.gen_fbm(100, 0.5, rng_of(12, k)) for k in range(80000)])
        inc1 = paths[:, 30] - paths[:, 20]
        inc2 = paths[:, 60] - paths[:, 50]
        assert abs(np.corrcoef(inc1, inc2)[0, 1]) < 0.01

    def test_long_memory_variance_law(self):
        mid = np.array([rt.gen_fbm(100, 0.7, rng_of(13, k))[50] for k in range(40000)])
        assert mid.var() == pytest.approx(0.5**1.4, rel=0.02)

    def test_covariance_probes(self):
        paths = np.array([rt.gen_fbm(100, 0.7, rng_of(14, k)) for k in range(80000)])
        for i, j in [(20, 70), (10, 30), (50, 99), (5, 95), (40, 60)]:
            s, t = i / 100, j / 100
            want = 0.5 * (s**1.4 + t**1.4 - abs(t - s) ** 1.4)
            got = float(np.mean(paths[:, i] * paths[:, j]))
            assert got == pytest.approx(want, rel=0.03)


class TestFou:
    def test_shapes_and_determinism(self):
        xa, ya = rt.gen_fou(100, 0.5, 0.3, 1.0, rng_of(15))
        xb, yb = rt.gen_fou(100, 0.5, 0.3, 1.0, rng_of(15))
        assert xa.shape == ya.shape == (100,)
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb)

    def test_stationary_variance(self):
        lam = 0.3
        pooled = np.concatenate(
            [rt.gen_fou(100, 0.5, lam, 1.0, rng_of(16, k))[1] for k in range(50000)]
        )
        assert pooled.var() == pytest.approx(1.0 / (2.0 * lam), rel=0.02)

    def test_lag_one_autocorrelation(self):
        lam = 0.3
        paths = np.array([rt.gen_fou(100, 0.5, lam, 1.0, rng_of(17, k))[1] for k in range(2000)])
        acf = np.corrcoef(paths[:, :-1].ravel(), paths[:, 1:].ravel())[0, 1]
        assert acf == pytest.approx(np.exp(-lam / 100), abs=0.02)

    def test_fast_reversion_kills_autocorrelation(self):
        lam = 1000.0
        paths = np.array([rt.gen_fou(100, 0.5, lam, 1.0, rng_of(18, k))[1] for k in range(2000)])
        acf = np.corrcoef(paths[:, :-1].ravel(), paths[:, 1:].ravel())[0, 1]
        assert acf == pytest.approx(np.exp(-lam / 100), abs=0.02)

    def test_parameter_guards(self):
        with pytest.raises(InvalidInputError):
            rt.gen_fou(100, 0.5, 0.0, 1.0, rng_of(19))
        with pytest.raises(InvalidInputError):
            rt.gen_fou(100, 0.5, 0.3, -1.0, rng_of(19))

    def test_long_memory_smoke(self):
        x, y = rt.gen_fou(50, 0.7, 2.0, 1.0, rng_of(24))
        assert x.shape == y.shape == (50,)
        assert np.isfinite(x).all() and np.isfinite(y).all()


class TestFou2:
    def test_weights_example(self):
        assert rt.fou_pair_weights(0.3, 0.8) == pytest.approx((-0.6, 1.6))

    def test_equal_rates_rejected(self):
        with pytest.raises(InvalidInputError):
            rt.fou_pair_weights(0.5, 0.5)
        with pytest.raises(InvalidInputError):
            rt.gen_fou2(50, 0.5, 0.5, 0.5, 1.0, rng_of(25))

    def test_linearity_exact(self):
        # X-OU-Y-OU returns the two components that gen_fou2 combines
        y1, y2 = rt.gen_scenario(ScenarioConfig(scenario="X-OU-Y-OU", n=3, length=100, seed=27))
        w1, w2 = rt.fou_pair_weights(0.3, 0.8)
        for k in range(3):
            rng = streams.substream(27, streams.SCENARIO, k)
            _, combo = rt.gen_fou2(100, 0.5, 0.3, 0.8, 1.0, rng)
            assert np.abs(combo - (w1 * y1[k] + w2 * y2[k])).max() < 1e-12

    def test_deterministic(self):
        a = rt.gen_fou2(60, 0.5, 0.3, 0.8, 1.0, rng_of(28))
        b = rt.gen_fou2(60, 0.5, 0.3, 0.8, 1.0, rng_of(28))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_long_memory_smoke(self):
        x, y = rt.gen_fou2(40, 0.7, 2.0, 4.0, 1.0, rng_of(29))
        assert x.shape == y.shape == (40,)


class TestScenarios:
    @pytest.mark.parametrize(
        "sid", ["null", "D1", "D2", "D3", "C1", "C2", "C3", "C4", "C6", "X-OU-Y-OU"]
    )
    def test_shapes_and_determinism(self, sid):
        cfg = ScenarioConfig(scenario=sid, n=4, length=40, seed=31)
        xs, ys = rt.gen_scenario(cfg)
        assert xs.shape == ys.shape == (4, 40)
        xs2, ys2 = rt.gen_scenario(cfg)
        assert np.array_equal(xs, xs2) and np.array_equal(ys, ys2)

    @pytest.mark.parametrize("sid", ["C5", "C7", "X-FOU-Y-FOU"])
    def test_long_memory_scenarios_small(self, sid):
        cfg = ScenarioConfig(scenario=sid, n=2, length=25, lam=2.0, lam1=2.0, lam2=4.0, seed=32)
        xs, ys = rt.gen_scenario(cfg)
        assert xs.shape == ys.shape == (2, 25)

    def test_unknown_scenario(self):
        with pytest.raises(InvalidInputError):
            rt.gen_scenario(ScenarioConfig(scenario="nope", n=2))

    # SHA-256 of the bytes of gen_scenario's (xs, ys) at n = 3, over seeds
    # 0, 1, 7, 42, 901 and len 2, 25, 100 with default parameters: seeded
    # data must not change with the implementation of its filters or samplers.
    DRAW_DIGESTS = {
        "null": "e6dcc9391bb26f246424706db0b8134fb7adc4f5631d44589b9ff1e21830722b",
        "D1": "46e1446b8c46e183b5a9471f39c3809426079fca78ba01c4404f250f64e4f4eb",
        "D2": "20fbaff5874e1e2e9e18143933184e79ddc536eec74063d57915a0ee3ab96c8d",
        "D3": "1546d24f210cc23d73a4cb39c7d6ad048dafd6a968460dfec0435c97e43ed3ff",
        "C1": "cbcb4df362fa8066ae3905fc103a728f88c3961b3714c3a124ce15da918878d0",
        "C2": "7cb3956151f0a9920259364b326cc6929db92661ecc7621330a867972f52eff4",
        "C3": "0857bf2d0542d2b11e898a24d9a0b59f82f8ccd1db62f6e8b19fbf98dbd2e92b",
        "C4": "5b407191a71fda4b1447b6d5bba7611c46f3ccbf60648a0f64a6ea08ccc15c9f",
        "C5": "2abe3538afd892b5a2a630988ef283ccb741b17e96cfd32e23e5fa02a70ae05a",
        "C6": "37574f3030c739978e4b5ef37e77363e3263e429cf1ccdd68cb6dbe826097bce",
        "C7": "bca8454d11fa55e3b6d30073e307e95301be5b70b66d2d11961046d003bfc05d",
        "X-OU-Y-OU": "635caa476a8fa10700f433845ba5fbfb19dd62ba891497643b8b83e92494b494",
        "X-FOU-Y-FOU": "8d3e038173adb5aa81334f008db9bfea08808c614990dd6ce884fcff348fe0a8",
    }

    @pytest.mark.parametrize("sid", sorted(DRAW_DIGESTS))
    def test_seeded_draws_are_pinned(self, sid):
        digest = hashlib.sha256()
        for seed in (0, 1, 7, 42, 901):
            for length in (2, 25, 100):
                xs, ys = rt.gen_scenario(ScenarioConfig(scenario=sid, n=3, length=length, seed=seed))
                digest.update(xs.tobytes())
                digest.update(ys.tobytes())
        assert digest.hexdigest() == self.DRAW_DIGESTS[sid]

    def test_replication_streams_are_stable(self):
        # replication k depends only on (seed, k): growing n keeps a prefix
        small = rt.gen_scenario(ScenarioConfig(scenario="D1", n=3, length=30, seed=33))
        large = rt.gen_scenario(ScenarioConfig(scenario="D1", n=5, length=30, seed=33))
        assert np.array_equal(small[0], large[0][:3])
        assert np.array_equal(small[1], large[1][:3])

    def test_multiplicative_noise_uncorrelated_but_dependent(self):
        cfg = ScenarioConfig(scenario="D3", n=300, length=100, phi=(0.1,), seed=34)
        xs, ys = rt.gen_scenario(cfg)
        corr = np.corrcoef(xs.ravel(), ys.ravel())[0, 1]
        assert abs(corr) < 0.01
        # squared series correlate: the dependence is in the scale
        corr_sq = np.corrcoef((xs**2).ravel(), (ys**2).ravel())[0, 1]
        assert corr_sq > 0.1

    def test_quadratic_alternative_variance(self):
        cfg = ScenarioConfig(scenario="C1", n=20000, length=100, seed=35)
        _, ys = rt.gen_scenario(cfg)
        # at the last grid point t = 0.99: Var(X_t^2) + 9 = 2 t^4 + 9
        t = 0.99
        assert ys[:, -1].var() == pytest.approx(2.0 * t**4 + 9.0, rel=0.03)

    def test_noise_scale_in_root_alternative(self):
        cfg = ScenarioConfig(scenario="D2", n=200, length=100, phi=(0.1,), seed=36)
        xs, ys = rt.gen_scenario(cfg)
        root = np.sqrt(np.abs(xs))
        resid = ys - root
        # residual noise is scaled to the pooled spread of sqrt(|x|)
        assert resid.std() == pytest.approx(root.std(), rel=0.02)

    def test_long_memory_slow_reversion_bounded_memory(self):
        # the burn-in grid has 10 / (lam * delta) = 100,000 points
        cfg = ScenarioConfig(scenario="C5", n=2, length=100, lam=0.01, seed=38)
        tracemalloc.start()
        try:
            xs, ys = rt.gen_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(xs).all() and np.isfinite(ys).all()
        assert (xs[:, 0] == 0.0).all()
        assert peak < 64 * 2**20

    def test_size_cap_counts_output_values_only(self):
        # the D1-D3 burn-in steps are not counted: they run a block at a time
        simulate._check_scenario(ScenarioConfig(scenario="D1", n=30000, length=60))
        simulate._check_scenario(ScenarioConfig(scenario="D3", n=2**12, length=2**12))
        with pytest.raises(InvalidInputError, match="need 16781312 values per matrix, more than"):
            simulate._check_scenario(ScenarioConfig(scenario="D3", n=2**12, length=2**12 + 1))

    def test_long_memory_burn_in_capped(self):
        # 10 / (lam * delta) = 1e10 burn-in points: rejected before any allocation
        cfg = ScenarioConfig(scenario="C5", n=2, length=100, lam=1e-7, seed=38)
        tracemalloc.start()
        try:
            # 10 * len / 2**21 is the smallest rate with at most 2**21 burn-in points
            with pytest.raises(InvalidInputError, match=r"lambda 1e-07 .* len 100: .* 0\.000476837158203125$"):
                rt.gen_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_shared_driver_rates_are_dependent(self):
        cfg = ScenarioConfig(scenario="X-OU-Y-OU", n=200, length=50, seed=37)
        xs, ys = rt.gen_scenario(cfg)
        corr = np.corrcoef(xs.ravel(), ys.ravel())[0, 1]
        assert corr > 0.5
