"""Independence tests between two samples of random elements in metric
spaces, based on recurrence rates, with permutation calibration, process
simulators and a Monte-Carlo power harness."""

__version__ = "0.1.0"

from .exceptions import (
    DegenerateWeightError,
    InternalConsistencyError,
    InvalidInputError,
)
from .harness import PowerResult, PowerRow, PowerStudySpec, run_power
from .inference import (
    Dependogram,
    DependogramEntry,
    TestReport,
    critical_values,
    dependogram,
    min_permutations,
    permutation_test,
)
from .metrics import (
    Metric,
    PairedDistances,
    distance,
    ensure_sample,
    paired_distances,
)
from .simulate import (
    ScenarioConfig,
    arma_stationary_sd,
    fou_pair_weights,
    gen_scenario,
)
from .stats_core import (
    Functional,
    StatisticSpec,
    l1_statistic,
    l2_statistic,
    statistic,
    prepare,
    sup_statistic,
)
from .weights import GaussianWeight, estimate_weight, weight_cdf

__all__ = [
    "__version__",
    "DegenerateWeightError",
    "InternalConsistencyError",
    "InvalidInputError",
    "PowerResult",
    "PowerRow",
    "PowerStudySpec",
    "run_power",
    "Dependogram",
    "DependogramEntry",
    "TestReport",
    "critical_values",
    "dependogram",
    "min_permutations",
    "permutation_test",
    "Metric",
    "PairedDistances",
    "distance",
    "ensure_sample",
    "paired_distances",
    "ScenarioConfig",
    "arma_stationary_sd",
    "fou_pair_weights",
    "gen_scenario",
    "Functional",
    "StatisticSpec",
    "l1_statistic",
    "l2_statistic",
    "statistic",
    "prepare",
    "sup_statistic",
    "GaussianWeight",
    "estimate_weight",
    "weight_cdf",
]
