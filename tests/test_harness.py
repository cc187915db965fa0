import re

import numpy as np
import pytest

import recurtest as rt
from recurtest import harness
from recurtest import (
    Functional,
    InvalidInputError,
    Metric,
    PowerStudySpec,
    ScenarioConfig,
    StatisticSpec,
)

SPEC22 = StatisticSpec(Functional.L2, Metric.L2, Metric.L2)
SPEC_SUP = StatisticSpec(Functional.SUP, Metric.L1, Metric.L1)


def tiny_study(**overrides):
    kwargs = dict(
        scenario=ScenarioConfig(scenario="null", n=8, length=3, seed=0),
        specs=(SPEC22, SPEC_SUP),
        reps=12,
        m=19,
        alpha=0.05,
        seed=5,
    )
    kwargs.update(overrides)
    return PowerStudySpec(**kwargs)


def test_reproducible():
    a = rt.run_power(tiny_study())
    b = rt.run_power(tiny_study())
    assert np.array_equal(a.p_values, b.p_values)
    assert [r.rate for r in a.rows] == [r.rate for r in b.rows]


def test_result_shape_and_summaries():
    result = rt.run_power(tiny_study())
    assert result.p_values.shape == (12, 2)
    for j, row in enumerate(result.rows):
        count = int(np.sum(result.p_values[:, j] <= 0.05))
        assert row.rejections == count
        assert row.rate == pytest.approx(count / 12)
        assert row.se == pytest.approx(np.sqrt(row.rate * (1 - row.rate) / 12))
        assert row.seconds >= 0


def test_rates_monotone_in_alpha():
    result = rt.run_power(tiny_study(reps=30))
    alphas = [0.01, 0.05, 0.10, 0.25, 0.5]
    for j in range(2):
        rates = [result.rates_at(a)[j] for a in alphas]
        assert all(lo <= hi for lo, hi in zip(rates, rates[1:]))


def test_dependent_scenario_has_higher_power_than_null():
    dependent = rt.run_power(
        tiny_study(
            scenario=ScenarioConfig(scenario="D3", n=20, length=30, phi=(0.1,), seed=2),
            specs=(SPEC22,),
            reps=20,
            m=39,
        )
    )
    null = rt.run_power(
        tiny_study(
            scenario=ScenarioConfig(scenario="null", n=20, length=30, seed=2),
            specs=(SPEC22,),
            reps=20,
            m=39,
        )
    )
    assert dependent.rows[0].rate > null.rows[0].rate


def test_validation():
    with pytest.raises(InvalidInputError):
        rt.run_power(tiny_study(reps=0))
    with pytest.raises(InvalidInputError):
        rt.run_power(tiny_study(m=5))  # too few permutations for alpha=0.05
    with pytest.raises(InvalidInputError):
        rt.run_power(tiny_study(specs=()))


@pytest.mark.parametrize("field, name", [("reps", "replication count"), ("m", "permutation count")])
@pytest.mark.parametrize(
    "value, message",
    [(0, "must be >= 1, got 0"), (2.5, "must be a positive integer, got 2.5"),
     (True, "must be a positive integer, got True")],
    ids=["zero", "fraction", "bool"],
)
def test_counts_must_be_positive_integers(field, name, value, message):
    with pytest.raises(InvalidInputError, match=f"^{name} {message}$"):
        rt.run_power(tiny_study(**{field: value}))


def test_numpy_integer_counts_accepted():
    # A numpy integer seed draws the streams of the same Python integer.
    result = rt.run_power(tiny_study(reps=np.int64(12), m=np.int64(19), seed=np.int64(5)), jobs=1)
    assert type(result.study.reps) is int and type(result.study.m) is int
    assert result.p_values.tobytes() == rt.run_power(tiny_study(), jobs=1).p_values.tobytes()


@pytest.mark.parametrize("seed", [5.5, "5", True], ids=["fraction", "text", "bool"])
def test_seed_must_be_an_integer(seed):
    # checked before any replication runs, or any worker starts
    for jobs in (1, None):
        with pytest.raises(InvalidInputError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            rt.run_power(tiny_study(seed=seed), jobs=jobs)


def test_failed_replication_names_index():
    bad = tiny_study(scenario=ScenarioConfig(scenario="null", n=2, length=3, seed=0))
    # n=2 violates the permutation-test precondition inside replication 0
    with pytest.raises(InvalidInputError, match="replication 0"):
        rt.run_power(bad)


def test_failed_replication_keeps_exception_type(monkeypatch):
    class TwoArgumentError(Exception):
        def __init__(self, code, detail):
            super().__init__(code, detail)
            self.code = code

    def fail(cfg, seeds):
        raise TwoArgumentError(7, "generator broke")

    monkeypatch.setattr(harness, "gen_scenarios", fail)
    with pytest.raises(TwoArgumentError) as info:
        rt.run_power(tiny_study())
    assert "replication 0" in str(info.value)
    assert "generator broke" in str(info.value)
    assert info.value.code == 7
    assert isinstance(info.value.__cause__, TwoArgumentError)
