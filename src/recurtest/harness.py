"""Monte-Carlo power studies: rejection rates of the tests under a scenario."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from math import sqrt

import numpy as np

from . import streams
from .exceptions import InvalidInputError
from .inference import check_level, permutation_test
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


def run_power(study: PowerStudySpec) -> PowerResult:
    """Run the study; deterministic given its seed."""
    if study.reps < 1:
        raise InvalidInputError(f"replication count must be >= 1, got {study.reps}")
    check_level(study.alpha, study.m)
    if not study.specs:
        raise InvalidInputError("at least one statistic spec is required")

    n_specs = len(study.specs)
    p_values = np.empty((study.reps, n_specs))
    seconds = np.zeros(n_specs)
    for k in range(study.reps):
        try:
            data_seed = streams.derive_seed(study.seed, streams.POWER_REP, k, 0)
            xs, ys = gen_scenario(replace(study.scenario, seed=data_seed))
            for j, spec in enumerate(study.specs):
                test_seed = streams.derive_seed(study.seed, streams.POWER_REP, k, 1 + j)
                t0 = time.perf_counter()
                report = permutation_test(xs, ys, spec, study.m, test_seed)
                seconds[j] += time.perf_counter() - t0
                p_values[k, j] = report.p_value
        except Exception as err:
            # Same type (the CLI's exit code depends on it), built without
            # calling a constructor whose signature is unknown.
            wrapped = type(err).__new__(type(err), f"power replication {k} failed: {err}")
            wrapped.__dict__.update(vars(err))
            raise wrapped from err

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
