import hashlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import lfilter

import recurtest as rt
from recurtest import InternalConsistencyError, InvalidInputError, ScenarioConfig, simulate, streams
from recurtest.simulate import (
    _arma,
    _blocks,
    _fbm_path,
    _fbm_sampler,
    _fgn_autocovariance,
    _fgn_eigenvalues,
    _fgn_scale,
    _flows,
    _lfilter,
    _smooth_length,
)

from oracles import fgn_autocovariance_exact, five_smooth_at_least, flows_one_replication


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


def flows(length, hurst, lams, n, rng):
    """``_flows``'s ``(x, y)`` at sigma 1 of n replications, the k-th drawing
    from ``rng(k)``, in blocks as ``gen_scenario`` forms them."""
    values, step = _flows(length, hurst, lams, 1.0)
    blocks = [step(len(block), map(rng, block)) for block in _blocks(n, values)]
    return np.concatenate([x for x, _ in blocks]), np.concatenate([y for _, y in blocks], axis=1)


class TestWhiteNoise:
    def test_moments(self):
        xs, ys = rt.gen_scenario(ScenarioConfig(scenario="null", n=10_000, length=100, seed=1))
        for draws in (xs, ys):
            assert abs(draws.mean()) < 0.005
            assert abs(draws.var() - 1.0) < 0.01

    def test_deterministic(self):
        cfg = ScenarioConfig(scenario="null", n=2, length=50, seed=2)
        a, b = rt.gen_scenario(cfg), rt.gen_scenario(cfg)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        rng = streams.substream(2, streams.SCENARIO, 1)
        assert np.array_equal(a[0][1], rng.standard_normal(50))

    def test_length_guard(self):
        with pytest.raises(InvalidInputError, match="^series length must be >= 1, got 0$"):
            rt.gen_scenario(ScenarioConfig(scenario="null", n=2, length=0))


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


    @pytest.mark.parametrize("row_columns", [1, 10**9], ids=["numpy-rows", "floats"])
    @pytest.mark.parametrize("steps_row", [(3, 8), (8,)], ids=["full-rows", "broadcast-rows"])
    def test_positions_take_their_own_coefficients_and_state(self, steps_row, row_columns, monkeypatch):
        # outputs of shape (3, 8): coefficients and states per row of it or per position
        monkeypatch.setattr(simulate, "_ROW_COLUMNS", row_columns)
        row = (3, 8)
        x = rng_of(66).standard_normal((300, *steps_row))
        b = (rng_of(67).uniform(0.5, 1.5, (3, 1)), 0.2)
        a = (1.0, rng_of(68).uniform(-0.4, 0.4, row), -0.3)
        state = (rng_of(69).standard_normal(row), rng_of(70).standard_normal((3, 1)))
        got = _lfilter(b, a, x, state, skip=40)
        assert got.shape == (260, *row)
        for at in np.ndindex(row):
            def pick(coefficients):
                return [np.broadcast_to(c, row)[at] for c in coefficients]

            column = x[:, at[0], at[1]] if x.ndim == 3 else x[:, at[1]]
            want = lfilter(pick(b), pick(a), column, zi=pick(state))[0][40:]
            assert np.array_equal(got[(slice(None), *at)], want)


def arma_series(length, phi, theta, rng):
    """An ARMA series as D1-D3 draw it, before scaling to unit variance."""
    return _arma(phi, theta, rng.standard_normal(500 + length), 500)


class TestArArma:
    def test_degenerate_coefficients_give_white_noise(self):
        series = arma_series(1000, (0.0,), 0.0, rng_of(4))
        noise = rng_of(4).standard_normal(1500)[500:]
        assert np.allclose(series, noise)

    def test_ar1_lag_one_autocorrelation(self):
        series = arma_series(10**6, (0.1,), 0.0, rng_of(5))
        acf1 = np.corrcoef(series[:-1], series[1:])[0, 1]
        assert acf1 == pytest.approx(0.1, abs=0.01)

    def test_arma21_variance_matches_expansion(self):
        phi, theta = (0.2, 0.5), 0.2
        series = arma_series(10**6, phi, theta, rng_of(6))
        assert series.var() == pytest.approx(arma_variance_oracle(phi, theta), rel=0.02)

    def test_nonstationary_rejected(self):
        for phi in ((1.0,), (0.7, 0.5)):
            with pytest.raises(InvalidInputError, match=re.escape(f"coefficients {phi} are not stationary")):
                simulate.scenario_config("D1", 2, {"phi": phi, "len": 100})

    def test_study_parameters_accepted(self):
        cfg = simulate.scenario_config("D3", 2, {"phi": [0.2, 0.5], "theta": 0.2, "len": 100})
        assert (cfg.phi, cfg.theta) == ((0.2, 0.5), 0.2)
        assert simulate.scenario_config("D1", 2, {"phi": "0.9", "len": 100}).phi == (0.9,)

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
            assert np.array_equal(xs[k], arma_series(cfg.length, cfg.phi, cfg.theta, rng) / sd)

    def test_discrete_batch_blocks_do_not_change_draws(self, monkeypatch):
        cfg = ScenarioConfig(scenario="D1", n=7, length=30, phi=(0.2, 0.5), theta=0.2, seed=66)
        whole = rt.gen_scenario(cfg)
        monkeypatch.setattr(simulate, "_BLOCK_VALUES", 3 * 500)  # rows step as 3 + 3 + 1
        blocked = rt.gen_scenario(cfg)
        assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))

    def test_discrete_scenarios_use_unit_variance_series(self):
        cfg = ScenarioConfig(scenario="D1", n=400, length=100, phi=(0.2, 0.5), theta=0.2, seed=90)
        xs, _ = rt.gen_scenario(cfg)
        assert xs.var() == pytest.approx(1.0, rel=0.05)


class TestFbm:
    def test_single_point_is_zero(self):
        assert _fbm_sampler(1, 0.7)(rng_of(9)).tolist() == [0.0]

    def test_starts_at_zero_and_deterministic(self):
        draw = _fbm_sampler(100, 0.7)
        a = draw(rng_of(9))
        b = draw(rng_of(9))
        assert a[0] == 0.0
        assert np.array_equal(a, b)

    def test_hurst_guard(self):
        for h in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(InvalidInputError, match=re.escape(f"Hurst exponent must be in (0, 1), got {h}")):
                simulate.scenario_config("C1", 2, {"len": 10, "hurst": h})

    # Lengths 8, 12, 14 and 98 have 7, 11, 13 and 97 steps, none 5-smooth:
    # their circulants are longer than twice the steps.
    @pytest.mark.parametrize("hurst", [0.05, 0.3, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("length", [2, 3, 7, 8, 12, 14, 16, 98])
    def test_exact_covariance(self, hurst, length):
        a = linear_map(_fbm_sampler(length, hurst))
        times = np.arange(length) / length
        assert np.abs(a @ a.T - fbm_cov(times, hurst)).max() < 1e-12

    @pytest.mark.parametrize("hurst", [0.05, 0.3, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("length, pre_steps", [(2, 1), (5, 3), (6, 11), (2, 10), (4, 10), (10, 88)])
    def test_exact_covariance_with_negative_times(self, hurst, length, pre_steps):
        scale = _fgn_scale(hurst, pre_steps + length - 1)
        a = linear_map(lambda rng: _fbm_path(length, hurst, pre_steps, rng, scale))
        times = (np.arange(pre_steps + length) - pre_steps) / length
        assert np.abs(a @ a.T - fbm_cov(times, hurst)).max() < 1e-12

    def test_smooth_length_is_the_first_five_smooth_count(self):
        assert [_smooth_length(steps) for steps in range(1, 10_001)] == [
            five_smooth_at_least(steps) for steps in range(1, 10_001)
        ]

    @pytest.mark.parametrize("hurst", [0.05, 0.3, 0.7, 0.95, 0.99])
    def test_autocovariance_is_accurate_at_large_lags(self, hurst):
        count = 2**21 + 101
        acov = _fgn_autocovariance(hurst, count)
        for k in (0, 1, 2, 3, 10, 1000, 10**5, 10**6, 2 * 10**6, count - 1):
            want = fgn_autocovariance_exact(hurst, k)
            assert abs(acov[k] - want) <= 1e-8 * abs(want), k

    @pytest.mark.parametrize("hurst", [0.05, 0.95, 0.99])
    def test_eigenvalues_at_the_burn_in_cap_are_nonnegative(self, hurst):
        # len 100 at the smallest lambda: a burn-in of _MAX_BURN_IN grid points
        eig = _fgn_eigenvalues(hurst, simulate._MAX_BURN_IN + 100 - 1)
        assert eig.size == 2 * 2_099_520
        assert eig.min() >= 0.0

    def test_negative_eigenvalues_beyond_round_off_raise(self, monkeypatch):
        # the 2M-point circulant's row is 1, 1, 0, ..., 0, 1: eigenvalues 1 + 2 cos(pi j / M)
        def covariance(hurst, count):
            return np.array([1.0, 1.0, *[0.0] * (count - 2)])

        monkeypatch.setattr(simulate, "_fgn_autocovariance", covariance)
        with pytest.raises(InternalConsistencyError, match="below the round-off floor of -1e-10 times"):
            _fgn_scale(0.7, 16)

    def test_eigenvalues_within_round_off_are_clipped(self, monkeypatch):
        def eigenvalues(hurst, steps):
            return np.array([4.0, -1e-11, 1.0, 0.0])

        monkeypatch.setattr(simulate, "_fgn_eigenvalues", eigenvalues)
        assert _fgn_scale(0.7, 2).tolist() == [1.0, 0.0, 0.5, 0.0]

    def test_brownian_variance_near_end(self):
        draw = _fbm_sampler(100, 0.5)
        last = np.array([draw(rng_of(11, k))[-1] for k in range(40000)])
        # last grid point is t = 0.99
        assert last.var() == pytest.approx(0.99, abs=0.02)

    def test_brownian_disjoint_increments_uncorrelated(self):
        draw = _fbm_sampler(100, 0.5)
        paths = np.array([draw(rng_of(12, k)) for k in range(80000)])
        inc1 = paths[:, 30] - paths[:, 20]
        inc2 = paths[:, 60] - paths[:, 50]
        assert abs(np.corrcoef(inc1, inc2)[0, 1]) < 0.01

    def test_long_memory_variance_law(self):
        draw = _fbm_sampler(100, 0.7)
        mid = np.array([draw(rng_of(13, k))[50] for k in range(40000)])
        assert mid.var() == pytest.approx(0.5**1.4, rel=0.02)

    def test_covariance_probes(self):
        draw = _fbm_sampler(100, 0.7)
        paths = np.array([draw(rng_of(14, k)) for k in range(80000)])
        for i, j in [(20, 70), (10, 30), (50, 99), (5, 95), (40, 60)]:
            s, t = i / 100, j / 100
            want = 0.5 * (s**1.4 + t**1.4 - abs(t - s) ** 1.4)
            got = float(np.mean(paths[:, i] * paths[:, j]))
            assert got == pytest.approx(want, rel=0.03)


class TestFou:
    def test_shapes_and_determinism(self):
        x, y = flows(100, 0.5, (0.3,), 2, lambda k: rng_of(15))
        assert x.shape == (2, 100) and y.shape == (1, 2, 100)
        assert np.array_equal(x[0], x[1]) and np.array_equal(y[0, 0], y[0, 1])

    def test_stationary_variance(self):
        lam = 0.3
        _, y = flows(100, 0.5, (lam,), 50000, lambda k: rng_of(16, k))
        assert y.var() == pytest.approx(1.0 / (2.0 * lam), rel=0.02)

    def test_lag_one_autocorrelation(self):
        lam = 0.3
        paths = flows(100, 0.5, (lam,), 2000, lambda k: rng_of(17, k))[1][0]
        acf = np.corrcoef(paths[:, :-1].ravel(), paths[:, 1:].ravel())[0, 1]
        assert acf == pytest.approx(np.exp(-lam / 100), abs=0.02)

    def test_fast_reversion_kills_autocorrelation(self):
        lam = 1000.0
        paths = flows(100, 0.5, (lam,), 2000, lambda k: rng_of(18, k))[1][0]
        acf = np.corrcoef(paths[:, :-1].ravel(), paths[:, 1:].ravel())[0, 1]
        assert acf == pytest.approx(np.exp(-lam / 100), abs=0.02)

    def test_parameter_guards(self):
        for lam, sigma in ((0.0, 1.0), (0.3, -1.0)):
            with pytest.raises(InvalidInputError, match=re.escape(f"; got lambda {lam}, sigma {sigma}")):
                simulate.scenario_config("C4", 2, {"len": 100, "lambda": lam, "sigma": sigma})

    def test_long_memory_smoke(self):
        x, y = flows(50, 0.7, (2.0,), 1, lambda k: rng_of(24))
        assert x.shape == (1, 50) and y.shape == (1, 1, 50)
        assert np.isfinite(x).all() and np.isfinite(y).all()


class TestFou2:
    def test_weights_example(self):
        assert rt.fou_pair_weights(0.3, 0.8) == pytest.approx((-0.6, 1.6))

    def test_equal_rates_rejected(self):
        with pytest.raises(InvalidInputError):
            rt.fou_pair_weights(0.5, 0.5)
        with pytest.raises(InvalidInputError, match="^the two mean-reversion rates must differ$"):
            simulate.scenario_config("C6", 2, {"len": 50, "lambda1": 0.5, "lambda2": 0.5})

    def test_linearity_exact(self):
        # C6 combines the two components that X-OU-Y-OU returns, and each
        # component is the one-rate average of the same draws
        y1, y2 = rt.gen_scenario(ScenarioConfig(scenario="X-OU-Y-OU", n=3, length=100, seed=27))
        _, combo = rt.gen_scenario(ScenarioConfig(scenario="C6", n=3, length=100, seed=27))
        w1, w2 = rt.fou_pair_weights(0.3, 0.8)
        assert np.abs(combo - (w1 * y1 + w2 * y2)).max() < 1e-12
        for lam, want in ((0.3, y1), (0.8, y2)):
            _, y = flows(100, 0.5, (lam,), 3, lambda k: streams.substream(27, streams.SCENARIO, k))
            assert np.abs(y[0] - want).max() < 1e-12

    def test_deterministic(self):
        x, y = flows(60, 0.5, (0.3, 0.8), 2, lambda k: rng_of(28))
        assert np.array_equal(x[0], x[1]) and np.array_equal(y[:, 0], y[:, 1])

    def test_long_memory_smoke(self):
        x, y = flows(40, 0.7, (2.0, 4.0), 1, lambda k: rng_of(29))
        assert x.shape == (1, 40) and y.shape == (2, 1, 40)


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda: simulate.scenario_config("D1", 2, {"len": 0}), "series length must be >= 1, got 0"),
        (lambda: simulate.scenario_config("C1", 2, {"len": 0}), "series length must be >= 1, got 0"),
        (lambda: simulate.scenario_config("C4", 2, {"len": 1}), "length must be >= 2, got 1"),
        (lambda: simulate.scenario_config("null", 0, {}), "replication count must be >= 1, got 0"),
        (lambda: simulate.scenario_config("null", 2, {"len": 0}), "series length must be >= 1, got 0"),
    ],
    ids=["arma-len", "fbm-len", "fou-len", "config-n", "config-len"],
)
def test_too_short_rejected(draw, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        draw()


class TestScenarios:
    FLOWS = ("C4", "C5", "C6", "C7", "X-OU-Y-OU", "X-FOU-Y-FOU")

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

    @pytest.mark.parametrize("seed", [2.9, "2", True], ids=["fraction", "text", "bool"])
    def test_seed_must_be_an_integer(self, seed):
        # Each would otherwise draw some integer seed's data.
        with pytest.raises(InvalidInputError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            rt.gen_scenario(ScenarioConfig(scenario="D1", n=2, seed=seed))

    def test_numpy_integer_seed_keeps_its_streams(self):
        xs, ys = rt.gen_scenario(ScenarioConfig(scenario="D1", n=3, seed=np.int64(7)))
        want_x, want_y = rt.gen_scenario(ScenarioConfig(scenario="D1", n=3, seed=7))
        assert xs.tobytes() == want_x.tobytes() and ys.tobytes() == want_y.tobytes()

    # SHA-256 of the bytes of gen_scenario's (xs, ys) at n = 3, over seeds
    # 0, 1, 7, 42, 901 and len 2, 25, 100 with default parameters: seeded
    # data must not change with the implementation of its filters or samplers.
    # The fBm scenarios (C1-C3, C5, C7, X-FOU-Y-FOU) were re-recorded once,
    # when the fBm circulant took its 5-smooth length and the autocovariance
    # its expm1/log1p form.
    DRAW_DIGESTS = {
        "null": "e6dcc9391bb26f246424706db0b8134fb7adc4f5631d44589b9ff1e21830722b",
        "D1": "46e1446b8c46e183b5a9471f39c3809426079fca78ba01c4404f250f64e4f4eb",
        "D2": "20fbaff5874e1e2e9e18143933184e79ddc536eec74063d57915a0ee3ab96c8d",
        "D3": "1546d24f210cc23d73a4cb39c7d6ad048dafd6a968460dfec0435c97e43ed3ff",
        "C1": "db2d4c796f65f155f5aff37abe1106b91c150c2b14c5c67e6924ec745aaa028a",
        "C2": "1b996e3ca4ed84dd427dcb7dbf495e2e2fa044fcde01046c23a7d76d226df126",
        "C3": "520cf035adab28151b23150966d13db0a96a2f7dc2af154adfc132514f5abf82",
        "C4": "5b407191a71fda4b1447b6d5bba7611c46f3ccbf60648a0f64a6ea08ccc15c9f",
        "C5": "b698e2f0ab99a7735b4beec6d08ea09b53943226c99c6d5dc10000ff680f062b",
        "C6": "37574f3030c739978e4b5ef37e77363e3263e429cf1ccdd68cb6dbe826097bce",
        "C7": "c73281dda44256151d653c4fe5f5697b3ab81434974347c8946ef4327c5e69ec",
        "X-OU-Y-OU": "635caa476a8fa10700f433845ba5fbfb19dd62ba891497643b8b83e92494b494",
        "X-FOU-Y-FOU": "61118314f5bea1d11369541595be4ef72ae3ab18ea6ea57e5a4f5d3cdb443dad",
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

    # The same digest at n = 40, len 100, seeds 0 and 7, default parameters:
    # at n = 40 a block of D1-D3 or of the smoothed-driver scenarios is wide
    # enough to step as numpy rows.  The smoothed-driver digests were recorded
    # when each replication ran its own recursion, the others when null and
    # C1-C3 were generated one replication at a time and D1-D3 as whole
    # matrices; the fBm ones were re-recorded with DRAW_DIGESTS'.
    WIDE_DIGESTS = {
        "null": "909a2c7628c1dbdfccfbc8a71352ca8ab60d0c7bbb476f9939a32a479cf45882",
        "D1": "8ae18d92e44d9fb630b4f20e89a379aaa96023f02856f56d006ddf71b311efab",
        "D2": "d24412c51954a51684ada3194b53166cdbca69c65a65b5ea6778a868383e0fa5",
        "D3": "fb07f4334a2f696cbdb149783171af3e180a24f3e0780984cdc491217c4e6a2f",
        "C1": "a3d47cf96ef611ea244e52cb60b36c485de6c8247916a2b8645bec06c38045ac",
        "C2": "20b9033d0ca8f6edec783cb9f031d52fff7e758f68ca3f05108d2f05acec6a1d",
        "C3": "5f956048f484f3338f5a16f7d099b1c6792bee52cd7c567af87ca74312c09243",
        "C4": "fce1a01bcc94caac6cd0e1e6a07d25a10ee78d7a7958691827d5a663bb1d45d9",
        "C5": "ddf7977cdced21c23711d7a964c7117861954fc772a3d75563846a8b61e3a46b",
        "C6": "4016bafdb7e729314b5e0806bdd44a414ccd015e39a6c819fa09b2a1c7af163f",
        "C7": "67a2b05a251ed476e28ef6fe2bf3a2d9548704d70e5a210d1cc426d814027839",
        "X-OU-Y-OU": "51eee2a278db8ed601088114b1ce0ce2d07a16b61fd38e9b1fced90b45190bc7",
        "X-FOU-Y-FOU": "bd1c77ac518dd7c3343b0b7ae18f989faf7307e07d1001afdb79dda260e762fa",
    }

    @pytest.mark.parametrize("sid", sorted(WIDE_DIGESTS))
    def test_wide_batch_draws_are_pinned(self, sid):
        digest = hashlib.sha256()
        for seed in (0, 7):
            xs, ys = rt.gen_scenario(ScenarioConfig(scenario=sid, n=40, length=100, seed=seed))
            digest.update(xs.tobytes())
            digest.update(ys.tobytes())
        assert digest.hexdigest() == self.WIDE_DIGESTS[sid]

    @pytest.mark.parametrize("sid", sorted(FLOWS))
    @pytest.mark.parametrize(
        "width, row_columns",
        [(7, 20), (7, 2), (3, 4), (1, 20)],
        ids=["one-block-floats", "one-block-rows", "mixed-blocks", "single-blocks"],
    )
    def test_flow_rows_equal_one_replication(self, sid, width, row_columns, monkeypatch):
        # n = 7 in blocks of `width` replications; a block steps as numpy rows
        # once its replications times rates reach `row_columns`
        length, seed = 25, 71
        hurst = 0.5 if sid in ("C4", "C6", "X-OU-Y-OU") else 0.7
        lams = (2.0,) if sid in ("C4", "C5") else (2.0, 4.0)
        split, sizes = simulate._blocks, []

        def blocks(n, values):
            # a budget of `width` replications' values
            monkeypatch.setattr(simulate, "_BLOCK_VALUES", width * values)
            for block in split(n, values):
                sizes.append(len(block))
                yield block

        monkeypatch.setattr(simulate, "_blocks", blocks)
        monkeypatch.setattr(simulate, "_ROW_COLUMNS", row_columns)
        cfg = ScenarioConfig(scenario=sid, n=7, length=length, lam=2.0, lam1=2.0, lam2=4.0, seed=seed)
        xs, ys = rt.gen_scenario(cfg)
        assert sizes == [width] * (7 // width) + [7 % width] * (7 % width > 0)
        w1, w2 = rt.fou_pair_weights(2.0, 4.0)
        for k in range(7):
            x, *ys_k = flows_one_replication(length, hurst, lams, 1.0, streams.substream(seed, streams.SCENARIO, k))
            if sid in ("C4", "C5"):
                x_k, y_k = x, ys_k[0]
            elif sid in ("C6", "C7"):
                x_k, y_k = x, w1 * ys_k[0] + w2 * ys_k[1]
            else:
                x_k, y_k = ys_k
            assert xs[k].tobytes() == x_k.tobytes() and ys[k].tobytes() == y_k.tobytes()

    @pytest.mark.parametrize("sid", sorted(DRAW_DIGESTS))
    def test_replication_streams_are_stable(self, sid, monkeypatch):
        # replication k depends only on (seed, k): growing n keeps a prefix,
        # and blocks of one replication give the same rows as one block
        def draw(n):
            return rt.gen_scenario(ScenarioConfig(scenario=sid, n=n, length=25, seed=33))

        xs, ys = draw(7)
        small_xs, small_ys = draw(5)
        monkeypatch.setattr(simulate, "_BLOCK_VALUES", 1)
        single_xs, single_ys = draw(7)
        assert xs[:5].tobytes() == small_xs.tobytes()
        assert xs.tobytes() == single_xs.tobytes()
        assert ys.tobytes() == single_ys.tobytes()
        if sid not in ("D2", "C2"):  # whose noise scale is pooled over the batch
            assert ys[:5].tobytes() == small_ys.tobytes()

    @pytest.mark.parametrize("sid", sorted(DRAW_DIGESTS))
    @pytest.mark.parametrize("width", [None, 5], ids=["one-block", "blocks-of-5"])
    def test_seeds_drawn_together_are_drawn_alone(self, sid, width, monkeypatch):
        # 7 seeds of 3 series: alone a seed's block steps as floats (fewer
        # than _ROW_COLUMNS positions), together its series step as numpy
        # rows, in one block or in blocks of 5 that split seeds and span them
        cfg = ScenarioConfig(scenario=sid, n=3, length=25, lam=2.0, lam1=2.0, lam2=4.0)
        seeds = [0, 5, 2**64 - 1, 7, -3, 12, 99]
        alone = [rt.gen_scenario(replace(cfg, seed=seed)) for seed in seeds]
        if width is not None:
            values, _ = simulate._scenario_step(simulate._check_scenario(cfg))
            monkeypatch.setattr(simulate, "_BLOCK_VALUES", width * values)
        together = list(rt.gen_scenarios(cfg, seeds))
        assert len(together) == len(seeds)
        for (xs, ys), (want_xs, want_ys) in zip(together, alone):
            assert xs.tobytes() == want_xs.tobytes() and ys.tobytes() == want_ys.tobytes()

    @pytest.mark.parametrize("sid", ["C1", "C2", "C3", "C5", "C7", "X-FOU-Y-FOU"])
    def test_eigenvalues_computed_once_per_call(self, sid, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _fgn_scale(*args)

        monkeypatch.setattr(simulate, "_fgn_scale", counted)
        monkeypatch.setattr(simulate, "_BLOCK_VALUES", 1)  # blocks of one replication
        rt.gen_scenario(ScenarioConfig(scenario=sid, n=5, length=25, hurst=0.7, lam=2.0, lam1=2.0, lam2=4.0))
        assert len(calls) == 1

    @pytest.mark.parametrize("field, name", [("n", "replication count"), ("length", "series length")])
    @pytest.mark.parametrize(
        "value, message",
        [(2.5, "must be a positive integer, got 2.5"), (True, "must be a positive integer, got True"),
         (0, "must be >= 1, got 0")],
        ids=["fraction", "bool", "zero"],
    )
    def test_counts_must_be_positive_integers(self, field, name, value, message):
        cfg = ScenarioConfig(**{"scenario": "null", "n": 3, field: value})
        with pytest.raises(InvalidInputError, match=f"^{name} {message}$"):
            rt.gen_scenario(cfg)

    def test_numpy_integer_counts_accepted(self):
        xs, ys = rt.gen_scenario(ScenarioConfig(scenario="D1", n=np.int64(3), length=np.int64(25), seed=5))
        want = rt.gen_scenario(ScenarioConfig(scenario="D1", n=3, length=25, seed=5))
        assert xs.tobytes() == want[0].tobytes() and ys.tobytes() == want[1].tobytes()

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
