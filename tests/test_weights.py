import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import recurtest as rt
from recurtest import DegenerateWeightError, GaussianWeight, InvalidInputError


def test_two_point_example():
    w = rt.estimate_weight([1.0, 3.0])
    assert w.mu == 2.0 and w.sigma == 1.0


def test_three_pair_example():
    w = rt.estimate_weight([1.0, 3.0, 2.0])
    assert w.mu == pytest.approx(2.0)
    assert w.sigma == pytest.approx(math.sqrt(2.0 / 3.0))


def test_constant_distances_degenerate():
    with pytest.raises(DegenerateWeightError):
        rt.estimate_weight([0.7] * 10)


def test_empty_list_invalid():
    with pytest.raises(InvalidInputError):
        rt.estimate_weight([])


def test_non_finite_invalid():
    with pytest.raises(InvalidInputError):
        rt.estimate_weight([1.0, np.inf])


def test_unordered_equals_ordered_multiset():
    rng = np.random.default_rng(0)
    d = rng.uniform(0, 5, size=21)
    w1 = rt.estimate_weight(d)
    w2 = rt.estimate_weight(np.tile(d, 2))
    assert w1.mu == pytest.approx(w2.mu, rel=1e-14)
    assert w1.sigma == pytest.approx(w2.sigma, rel=1e-14)


class TestWeightCdf:
    def test_at_mean(self):
        assert rt.weight_cdf(GaussianWeight(3.7, 2.0), 3.7) == 0.5

    def test_one_sigma(self):
        assert rt.weight_cdf(GaussianWeight(2.0, 1.0), 3.0) == pytest.approx(
            0.8413447460685429, abs=1e-13
        )

    def test_tail_limits(self):
        w = GaussianWeight(1.0, 0.5)
        assert rt.weight_cdf(w, 1e9) == 1.0
        assert rt.weight_cdf(w, -1e9) == 0.0

    def test_matches_erf_formula(self):
        w = GaussianWeight(0.8, 1.7)
        for z in np.linspace(-6, 8, 29):
            want = 0.5 * (1.0 + math.erf((z - w.mu) / (w.sigma * math.sqrt(2.0))))
            assert rt.weight_cdf(w, z) == pytest.approx(want, abs=1e-12)

    def test_monotone(self):
        w = GaussianWeight(2.0, 0.3)
        grid = np.linspace(-5, 9, 400)
        vals = rt.weight_cdf(w, grid)
        assert np.all(np.diff(vals) >= 0)

    def test_vectorized(self):
        w = GaussianWeight(0.0, 1.0)
        out = rt.weight_cdf(w, np.array([0.0, 1.0]))
        assert out.shape == (2,) and out[0] == 0.5

    def test_scalar_gives_float(self):
        w = GaussianWeight(0.0, 1.0)
        assert type(rt.weight_cdf(w, 0.3)) is float
        assert type(rt.weight_cdf(w, np.float64(0.3))) is float

    def test_matches_scipy_ndtr(self):
        x = np.linspace(-38.0, 38.0, 200001)
        got = rt.weight_cdf(GaussianWeight(0.0, 1.0), x)
        assert np.max(np.abs(got - ndtr(x))) <= 2.3e-16


@settings(max_examples=60, deadline=None)
@given(
    # keep the spread well above the scale where the variance underflows
    st.lists(st.floats(0.0, 100.0), min_size=2, max_size=30).filter(
        lambda d: max(d) - min(d) > 1e-6
    ),
    st.floats(1e-3, 1e3),
    st.floats(0.0, 100.0),
)
def test_scale_equivariance(distances, scale, probe):
    base = rt.estimate_weight(distances)
    scaled = rt.estimate_weight([scale * d for d in distances])
    assert scaled.mu == pytest.approx(scale * base.mu, rel=1e-12, abs=1e-300)
    assert scaled.sigma == pytest.approx(scale * base.sigma, rel=1e-9)
    assert rt.weight_cdf(scaled, scale * probe) == pytest.approx(
        rt.weight_cdf(base, probe), abs=1e-12
    )


def test_sigma_must_be_positive():
    with pytest.raises(DegenerateWeightError):
        GaussianWeight(1.0, 0.0)


def test_subnormal_spread_is_degenerate():
    # distinct values whose variance underflows in double precision still
    # surface as an uncalibratable weight rather than a zero-scale normal
    with pytest.raises(DegenerateWeightError):
        rt.estimate_weight([0.0, 9.2e-215])


@pytest.mark.parametrize("mu, sigma", [(np.nan, 1.0), (0.0, np.inf)], ids=["mu-nan", "sigma-inf"])
def test_parameters_must_be_finite(mu, sigma):
    with pytest.raises(InvalidInputError, match="weight parameters must be finite"):
        GaussianWeight(mu, sigma)


@pytest.mark.parametrize(
    "metric, message",
    [
        (rt.Metric.L1, "pairwise distance spread overflowed to infinity"),
        (rt.Metric.LINF, "pairwise distance spread overflowed to infinity"),
        # the squares of the coordinate differences overflow first
        (rt.Metric.L2, "pairwise distances contain non-finite values"),
    ],
    ids=["l1", "linf", "l2"],
)
@pytest.mark.parametrize("functional", [rt.Functional.L1, rt.Functional.L2], ids=["l1", "l2"])
def test_overflowing_spread_raises_without_warning(functional, metric, message):
    # Every distance is finite under L1 and Linf, but their squared
    # deviations from the mean are not.
    x = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1.0], [3.0, 3.0]])
    spec = rt.StatisticSpec(functional, metric, metric)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            rt.statistic(x, x, spec)
