"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy Monte-Carlo criteria are marked ``slow``; the whole module is expected
to run in well under the stated per-criterion budgets on a desktop machine.
"""

import numpy as np
import pytest

import recurtest as rt
from recurtest import (
    Functional,
    Metric,
    PairedDistances,
    PowerStudySpec,
    ScenarioConfig,
    StatisticSpec,
)

from oracles import (
    exact_integral_l1,
    exact_integral_l2,
    exhaustive_sup,
    l1_statistic_naive,
    l2_statistic_naive,
    quadrature_l1,
    quadrature_l2,
    sup_statistic_naive,
)

T2_L1 = StatisticSpec(Functional.L2, Metric.L1, Metric.L1)
T2_L2 = StatisticSpec(Functional.L2, Metric.L2, Metric.L2)
T2_LINF = StatisticSpec(Functional.L2, Metric.LINF, Metric.LINF)

METRIC_PAIRS = [(mx, my) for mx in Metric for my in Metric]

# The uniform 2000^2 midpoint rule only resolves the piecewise-constant
# integrand to a few parts per thousand (cells straddling the jump lines),
# measured at 6.6e-3 worst over this instance set; the 1e-3 agreement bound
# is therefore asserted against the exact piecewise integral of the
# definition, and the midpoint grid is checked within its own resolution.
MIDPOINT_RESOLUTION = 2.5e-2


def emit(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def oracle_instances():
    """50 fixed-seed instances, n cycling 4..10, metric pairs cycling all 9."""
    for i in range(50):
        n = 4 + i % 7
        rng = np.random.default_rng(1000 + i)
        x = rng.standard_normal((n, 3))
        y = rng.standard_normal((n, 2))
        mx, my = METRIC_PAIRS[i % 9]
        pd = rt.paired_distances(x, y, mx, my)
        yield pd, rt.estimate_weight(pd.z), rt.estimate_weight(pd.t)


def test_criterion_1_quadratic_oracle_equivalence():
    worst_naive = worst_exact = worst_grid = 0.0
    for pd, wx, wy in oracle_instances():
        fast = rt.l2_statistic(pd, wx, wy)
        naive = l2_statistic_naive(pd, wx, wy)
        exact = exact_integral_l2(pd, wx, wy)
        grid = quadrature_l2(pd, wx, wy)
        worst_naive = max(worst_naive, abs(fast - naive) / abs(naive))
        worst_exact = max(worst_exact, abs(fast - exact) / abs(exact))
        worst_grid = max(worst_grid, abs(fast - grid) / abs(grid))
    ok = worst_naive <= 1e-10 and worst_exact <= 1e-3 and worst_grid <= MIDPOINT_RESOLUTION
    emit(
        1,
        ok,
        f"quadratic: fast vs literal sums {worst_naive:.2e} <= 1e-10; "
        f"vs exact integral {worst_exact:.2e} <= 1e-3; "
        f"vs 2000^2 midpoint grid {worst_grid:.2e} within resolution {MIDPOINT_RESOLUTION}",
    )
    assert worst_naive <= 1e-10
    assert worst_exact <= 1e-3
    assert worst_grid <= MIDPOINT_RESOLUTION


def test_criterion_2_absolute_and_sup_oracle_equivalence():
    worst_naive1 = worst_exact1 = worst_grid1 = worst_sup = worst_sup_naive = 0.0
    for pd, wx, wy in oracle_instances():
        fast1 = rt.l1_statistic(pd, wx, wy)
        worst_naive1 = max(
            worst_naive1, abs(fast1 - l1_statistic_naive(pd, wx, wy)) / fast1
        )
        worst_exact1 = max(worst_exact1, abs(fast1 - exact_integral_l1(pd, wx, wy)) / fast1)
        worst_grid1 = max(worst_grid1, abs(fast1 - quadrature_l1(pd, wx, wy)) / fast1)
        sup = rt.sup_statistic(pd)
        worst_sup = max(worst_sup, abs(sup - exhaustive_sup(pd)))
        worst_sup_naive = max(worst_sup_naive, abs(sup - sup_statistic_naive(pd)))
    ok = (
        worst_naive1 <= 1e-10
        and worst_exact1 <= 1e-3
        and worst_grid1 <= MIDPOINT_RESOLUTION
        and worst_sup <= 1e-12
        and worst_sup_naive <= 1e-12
    )
    emit(
        2,
        ok,
        f"absolute: vs literal {worst_naive1:.2e}, vs exact integral {worst_exact1:.2e} <= 1e-3, "
        f"vs midpoint grid {worst_grid1:.2e}; supremum: vs exhaustive grid {worst_sup:.2e} <= 1e-12, "
        f"vs dominance counts {worst_sup_naive:.2e}",
    )
    assert worst_naive1 <= 1e-10
    assert worst_exact1 <= 1e-3
    assert worst_grid1 <= MIDPOINT_RESOLUTION
    assert worst_sup <= 1e-12
    assert worst_sup_naive <= 1e-12


def test_criterion_3_structural_identities():
    rng = np.random.default_rng(77)
    worst_sorted = worst_factored = 0.0
    for _ in range(10):
        m = int(rng.integers(2, 61))
        v = np.sort(np.round(rng.uniform(0, 3, size=m), 1))  # forced ties
        w = rt.GaussianWeight(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.3, 1.5)))
        g = rt.weight_cdf(w, v)
        double = float(sum(g[max(i, j)] for i in range(m) for j in range(m)))
        odd = float(np.dot(2.0 * np.arange(1, m + 1) - 1.0, g))
        worst_sorted = max(worst_sorted, abs(double - odd) / max(abs(double), 1.0))

        z = np.round(rng.uniform(0, 2, size=m), 1)
        t = np.round(rng.uniform(0, 2, size=m), 1)
        f1 = rt.weight_cdf(w, np.maximum.outer(z, z))
        f2 = rt.weight_cdf(w, np.maximum.outer(t, t))
        triple = float((f1[:, :, None] * f2[:, None, :]).sum())
        factored = float(np.dot(f1.sum(axis=1), f2.sum(axis=1)))
        worst_factored = max(worst_factored, abs(triple - factored) / abs(factored))

    worst_dup = 0.0
    for seed in range(6):
        g = np.random.default_rng(300 + seed)
        n = int(g.integers(4, 13))
        x = np.round(g.standard_normal((n, 3)), 1)
        y = np.round(g.standard_normal((n, 2)), 1)
        pd = rt.paired_distances(x, y, Metric.L2, Metric.L1)
        dup = PairedDistances(n=n, z=np.tile(pd.z, 2), t=np.tile(pd.t, 2))
        wx, wy = rt.estimate_weight(pd.z), rt.estimate_weight(pd.t)
        for fast, args in (
            (rt.l2_statistic, (wx, wy)),
            (rt.l1_statistic, (wx, wy)),
            (rt.sup_statistic, ()),
        ):
            a, b = fast(pd, *args), fast(dup, *args)
            worst_dup = max(worst_dup, abs(a - b) / max(abs(a), 1e-30))

    g = np.random.default_rng(9)
    x2, y2 = g.standard_normal((2, 4)), g.standard_normal((2, 4))
    zeros_ok = all(
        rt.statistic(x2, y2, StatisticSpec(f, Metric.L2, Metric.L2)) == 0.0
        for f in Functional
    )

    x = g.standard_normal((8, 3))
    y = g.standard_normal((8, 3))
    worst_scale = 0.0
    for spec in (T2_L2, StatisticSpec(Functional.L1, Metric.L1, Metric.LINF),
                 StatisticSpec(Functional.SUP, Metric.LINF, Metric.L1)):
        base = rt.statistic(x, y, spec)
        for cx in (0.01, 1.0, 100.0):
            for cy in (0.01, 1.0, 100.0):
                scaled = rt.statistic(cx * x, cy * y, spec)
                worst_scale = max(worst_scale, abs(scaled - base) / base)

    ok = (
        worst_sorted <= 1e-12
        and worst_factored <= 1e-12
        and worst_dup <= 1e-12
        and zeros_ok
        and worst_scale <= 1e-9
    )
    emit(
        3,
        ok,
        f"sorted-form identity {worst_sorted:.2e} <= 1e-12; factorization {worst_factored:.2e} <= 1e-12; "
        f"ordered/unordered {worst_dup:.2e} <= 1e-12; n=2 zeros {zeros_ok}; "
        f"scale invariance {worst_scale:.2e} <= 1e-9",
    )
    assert worst_sorted <= 1e-12
    assert worst_factored <= 1e-12
    assert worst_dup <= 1e-12
    assert zeros_ok
    assert worst_scale <= 1e-9


def ks_distance_from_uniform(p_values):
    p = np.sort(np.asarray(p_values))
    n = p.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(p - grid_hi)), np.max(np.abs(p - grid_lo))))


@pytest.mark.slow
def test_criterion_4_level_and_pvalue_uniformity():
    study = PowerStudySpec(
        scenario=ScenarioConfig(scenario="null", n=30, length=5, seed=0),
        specs=(T2_L2,),
        reps=500,
        m=199,
        alpha=0.05,
        seed=2024,
    )
    result = rt.run_power(study)
    rate = result.rows[0].rate
    ks = ks_distance_from_uniform(result.p_values[:, 0])
    ok = 0.03 <= rate <= 0.08 and ks <= 0.08
    emit(4, ok, f"null rejection rate {rate:.3f} in [0.03, 0.08]; p-value ECDF KS {ks:.3f} <= 0.08")
    assert 0.03 <= rate <= 0.08
    assert ks <= 0.08


def power_rate(scenario, spec, seed, reps=200, m=100):
    study = PowerStudySpec(scenario=scenario, specs=(spec,), reps=reps, m=m, alpha=0.05, seed=seed)
    return rt.run_power(study).rows[0].rate


@pytest.mark.slow
def test_criterion_5_power_reproduction():
    rate_a = power_rate(
        ScenarioConfig(scenario="D3", n=50, length=100, phi=(0.1,), seed=0), T2_L1, seed=51
    )
    rate_b = power_rate(
        ScenarioConfig(scenario="D3", n=30, length=100, phi=(0.1,), seed=0), T2_L1, seed=52
    )
    rate_c = power_rate(
        ScenarioConfig(scenario="C4", n=30, length=100, lam=0.3, sigma=1.0, seed=0),
        T2_LINF,
        seed=53,
    )
    rate_d = power_rate(
        ScenarioConfig(scenario="D1", n=30, length=100, phi=(0.2, 0.5), theta=0.2, seed=0),
        T2_L2,
        seed=54,
    )
    trend_ok = rate_a >= rate_b - 0.05
    ok = (
        rate_a >= 0.95
        and 0.79 <= rate_b <= 0.95
        and 0.88 <= rate_c <= 1.0
        and 0.70 <= rate_d <= 0.87
        and trend_ok
    )
    emit(
        5,
        ok,
        f"multiplicative-noise n=50 quadratic/L1 rate {rate_a:.3f} >= 0.95 (reference 1.00); "
        f"n=30 rate {rate_b:.3f} in [0.79, 0.95] (reference 0.87); "
        f"Brownian/smoothed n=30 quadratic/Linf rate {rate_c:.3f} in [0.88, 1.00] (reference 0.96); "
        f"ARMA quadratic-alternative n=30 quadratic/L2 rate {rate_d:.3f} in [0.70, 0.87] (reference 0.785); "
        f"monotone trend in n holds: {trend_ok}",
    )
    assert rate_a >= 0.95
    assert 0.79 <= rate_b <= 0.95
    assert 0.88 <= rate_c <= 1.0
    assert 0.70 <= rate_d <= 0.87
    assert trend_ok


@pytest.mark.slow
def test_criterion_6_metric_ordering_on_root_alternative():
    scenario = ScenarioConfig(scenario="D2", n=50, length=100, phi=(0.1,), seed=0)
    study = PowerStudySpec(
        scenario=scenario, specs=(T2_L1, T2_LINF), reps=200, m=100, alpha=0.05, seed=61
    )
    result = rt.run_power(study)
    rate_l1, rate_linf = result.rows[0].rate, result.rows[1].rate
    gap = rate_l1 - rate_linf
    ok = gap >= 0.2
    emit(
        6,
        ok,
        f"root alternative n=50: quadratic/L1 rate {rate_l1:.3f} vs quadratic/Linf rate "
        f"{rate_linf:.3f}; gap {gap:.3f} >= 0.2 (reference 0.97 vs 0.16)",
    )
    assert gap >= 0.2


def test_criterion_7_out_of_scope_exclusions_documented():
    # Competitor tests, bundled real datasets and exact table-cell
    # reproduction are explicitly out of scope; the oracle and property
    # suites above stand in for them.  Nothing to execute.
    emit(7, True, "competitor columns / real-data figures excluded by design; property suites substitute")
