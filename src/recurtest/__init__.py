"""Independence tests between two samples of random elements in metric
spaces, based on recurrence rates, with permutation calibration, process
simulators and a Monte-Carlo power harness.

The public names are imported from their modules on first use (PEP 562), so
a command or script loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it.
_EXPORTS = {
    "DegenerateWeightError": "exceptions",
    "InternalConsistencyError": "exceptions",
    "InvalidInputError": "exceptions",
    "PowerResult": "harness",
    "PowerRow": "harness",
    "PowerStudySpec": "harness",
    "run_power": "harness",
    "Dependogram": "inference",
    "DependogramEntry": "inference",
    "TestReport": "inference",
    "critical_values": "inference",
    "dependogram": "inference",
    "min_permutations": "inference",
    "permutation_test": "inference",
    "Metric": "choices",
    "PairedDistances": "metrics",
    "ensure_sample": "metrics",
    "paired_distances": "metrics",
    "ScenarioConfig": "simulate",
    "arma_stationary_sd": "simulate",
    "fou_pair_weights": "simulate",
    "gen_scenario": "simulate",
    "gen_scenarios": "simulate",
    "Functional": "choices",
    "StatisticSpec": "stats_core",
    "statistic": "stats_core",
    "prepare": "stats_core",
    "GaussianWeight": "weights",
    "estimate_weight": "weights",
    "weight_cdf": "weights",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    # Looked up on every use, never stored here, so a rebinding of the
    # module attribute (a tracer's wrapper, a test's patch) is seen.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
