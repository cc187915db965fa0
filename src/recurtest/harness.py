"""Monte-Carlo power studies: rejection rates of the tests under a scenario."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from math import sqrt

import numpy as np

from . import streams
from ._workers import run_units
from .exceptions import InvalidInputError, positive_count
from .inference import check_levels, permutation_test
from .simulate import ScenarioConfig, gen_scenario
from .stats_core import StatisticSpec


@dataclass(frozen=True)
class PowerStudySpec:
    """One scenario crossed with a list of statistics.

    Defaults are sized for desk runtime (200 replications instead of the
    study-table 500); every replication reuses the same generated data for
    all statistics.
    """

    scenario: ScenarioConfig
    specs: tuple[StatisticSpec, ...]
    reps: int = 200
    m: int = 100
    alpha: float = 0.05
    seed: int = 0


@dataclass(frozen=True)
class PowerRow:
    spec: StatisticSpec
    rejections: int
    rate: float
    se: float
    seconds: float


@dataclass(frozen=True)
class PowerResult:
    """Per-statistic rejection summaries plus all per-replication p-values."""

    study: PowerStudySpec
    rows: tuple[PowerRow, ...]
    p_values: np.ndarray = field(repr=False)  # shape (reps, len(specs))

    def rates_at(self, alpha: float) -> list[float]:
        """Rejection rates re-evaluated post hoc at another level."""
        return [float(np.mean(self.p_values[:, j] <= alpha)) for j in range(len(self.rows))]


def _replication(study: PowerStudySpec, jobs, k: int):
    """Replication ``k``: its p-value and test time under each statistic,
    each test run over up to ``jobs`` processes."""
    try:
        data_seed = streams.derive_seed(study.seed, streams.POWER_REP, k, 0)
        xs, ys = gen_scenario(replace(study.scenario, seed=data_seed))
        reports = []
        for j, spec in enumerate(study.specs):
            test_seed = streams.derive_seed(study.seed, streams.POWER_REP, k, 1 + j)
            reports.append(permutation_test(xs, ys, spec, study.m, test_seed, jobs=jobs))
        return [r.p_value for r in reports], [r.elapsed for r in reports]
    except Exception as err:
        # Same type (the CLI's exit code depends on it), built without
        # calling a constructor whose signature is unknown.
        wrapped = type(err).__new__(type(err), f"power replication {k} failed: {err}")
        wrapped.__dict__.update(vars(err))
        raise wrapped from err


def run_power(study: PowerStudySpec, *, jobs: int | None = None) -> PowerResult:
    """Run the study; deterministic given its seed.

    ``jobs`` bounds the processes, this one and forked workers, that the
    call uses (default: every usable CPU; ``jobs=1`` starts none).  Each
    process holds one replication at a time, so peak memory grows with the
    process count.  Every output but the wall-clock ``seconds`` of each row,
    the test time summed over replications, is the same for every ``jobs``,
    and so is the error a failing replication raises: that of the lowest
    failing index.
    """
    reps, m = positive_count(study.reps, "replication count"), positive_count(study.m, "permutation count")
    study = replace(study, reps=reps, m=m)
    check_levels([study.alpha], study.m)
    if not study.specs:
        raise InvalidInputError("at least one statistic spec is required")

    test_jobs = jobs if study.reps == 1 else 1
    outcomes = run_units(partial(_replication, study, test_jobs), study.reps, jobs)
    p_values = np.array([p for p, _ in outcomes])
    seconds = np.sum([s for _, s in outcomes], axis=0)

    rows = []
    for j, spec in enumerate(study.specs):
        rejections = int(np.count_nonzero(p_values[:, j] <= study.alpha))
        rate = rejections / study.reps
        rows.append(
            PowerRow(
                spec=spec,
                rejections=rejections,
                rate=rate,
                se=sqrt(rate * (1.0 - rate) / study.reps),
                seconds=float(seconds[j]),
            )
        )
    return PowerResult(study=study, rows=tuple(rows), p_values=p_values)
