"""Kernel values against direct evaluations of the statistic definitions."""

from fractions import Fraction

import numpy as np
import pytest

import recurtest as rt
from recurtest import Functional, Metric, StatisticSpec

from oracles import (
    exact_integral_l1,
    exact_integral_l2,
    exhaustive_sup,
    identity_statistic,
    l2_statistic_exact,
    l2_statistic_naive,
    pair_index,
    quadrature_l1,
    quadrature_l2,
)

METRIC_PAIRS = [(mx, my) for mx in Metric for my in Metric]


def instance(i):
    n = 4 + i % 7
    rng = np.random.default_rng(1000 + i)
    x = rng.standard_normal((n, 3))
    y = rng.standard_normal((n, 2))
    mx, my = METRIC_PAIRS[i % 9]
    pd = rt.paired_distances(x, y, mx, my)
    return pd, rt.estimate_weight(pd.z), rt.estimate_weight(pd.t)


@pytest.mark.parametrize("i", range(12))
def test_l2_matches_exact_integral(i):
    pd, wx, wy = instance(i)
    assert identity_statistic(pd, Functional.L2) == pytest.approx(
        exact_integral_l2(pd, wx, wy), rel=1e-11
    )


@pytest.mark.parametrize("i", range(12))
def test_exact_cell_sum_matches_literal_sum(i):
    # the rational oracle itself, on tied data small enough for the literal sum
    pd, wx, wy = instance(i)
    pd = rt.PairedDistances(pd.n, np.round(pd.z), np.round(2 * pd.t))
    assert float(l2_statistic_exact(pd, wx, wy)) == pytest.approx(
        l2_statistic_naive(pd, wx, wy), rel=1e-10, abs=1e-14
    )


def test_l2_matches_exact_cell_sum_on_integer_data():
    # Integer samples under Linf, as in the tie-heavy benchmark: few distinct
    # distances, and a statistic about 1e-5 of the closed form's terms.
    rng = np.random.default_rng(100)
    n = 100
    x = rng.standard_normal((n, 100))
    y = np.round(x**2 + 3.0 * rng.standard_normal((n, 100)))
    x = np.round(x)
    pd = rt.paired_distances(x, y, Metric.LINF, Metric.LINF)
    wx, wy = rt.estimate_weight(pd.z), rt.estimate_weight(pd.t)
    # The kernel keeps the weights of the unpermuted sample, as the oracle does.
    evaluate = rt.prepare(pd, Functional.L2)
    for k in range(4):
        perm = np.arange(n) if k == 0 else rng.permutation(n)
        pdk = rt.paired_distances(x, y[perm], Metric.LINF, Metric.LINF)
        want = l2_statistic_exact(pdk, wx, wy)
        got = Fraction(float(evaluate(pair_index(n, perm[None]))[0]))
        assert abs(got - want) <= Fraction(1, 10**12) * want


@pytest.mark.parametrize("i", range(12))
def test_l1_matches_exact_integral(i):
    pd, wx, wy = instance(i)
    assert identity_statistic(pd, Functional.L1) == pytest.approx(
        exact_integral_l1(pd, wx, wy), rel=1e-11
    )


@pytest.mark.parametrize("i", range(12))
def test_sup_matches_exhaustive_grid(i):
    pd, _, _ = instance(i)
    assert identity_statistic(pd, Functional.SUP) == pytest.approx(exhaustive_sup(pd), abs=1e-12)


def test_sup_spec_example_n6():
    rng = np.random.default_rng(60)
    x = rng.standard_normal((6, 3))
    y = rng.standard_normal((6, 3))
    pd = rt.paired_distances(x, y, Metric.L2, Metric.L2)
    assert identity_statistic(pd, Functional.SUP) == pytest.approx(exhaustive_sup(pd), abs=1e-12)


@pytest.mark.parametrize("i", [0, 4, 8])
def test_midpoint_quadrature_resolution(i):
    # The uniform 2000^2 midpoint rule resolves the step integrand only to a
    # few parts in a thousand (jump-straddling cells); the kernels must sit
    # within that envelope of the grid value and essentially on top of the
    # exact integral (asserted above).
    pd, wx, wy = instance(i)
    assert identity_statistic(pd, Functional.L2) == pytest.approx(
        quadrature_l2(pd, wx, wy), rel=2.5e-2
    )
    assert identity_statistic(pd, Functional.L1) == pytest.approx(
        quadrature_l1(pd, wx, wy), rel=2.5e-2
    )


def test_end_to_end_statistic_matches_oracles():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((7, 4))
    y = rng.standard_normal((7, 4))
    pd = rt.paired_distances(x, y, Metric.L1, Metric.L1)
    wx, wy = rt.estimate_weight(pd.z), rt.estimate_weight(pd.t)
    spec_l2 = StatisticSpec(Functional.L2, Metric.L1, Metric.L1)
    spec_l1 = StatisticSpec(Functional.L1, Metric.L1, Metric.L1)
    spec_sup = StatisticSpec(Functional.SUP, Metric.L1, Metric.L1)
    assert rt.statistic(x, y, spec_l2) == pytest.approx(exact_integral_l2(pd, wx, wy), rel=1e-11)
    assert rt.statistic(x, y, spec_l1) == pytest.approx(exact_integral_l1(pd, wx, wy), rel=1e-11)
    assert rt.statistic(x, y, spec_sup) == pytest.approx(exhaustive_sup(pd), abs=1e-12)
