"""Command-line interface: test, power, dependogram, simulate.

Exit codes: 0 success, 2 invalid input, 1 internal error.  Every command is a
deterministic function of its flags and input file bytes, except for the
wall-clock fields: elapsed_ms of test reports and the seconds column of power
tables.  A command imports the modules it runs when it runs, so ``simulate``
loads none of the test, power or kernel modules.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, fileio
from .choices import Functional, Metric
from .exceptions import InvalidInputError
from .simulate import SCENARIO_PARAMETERS, gen_scenario, scenario_config

_METRIC_CHOICES = [m.value for m in Metric]
_FUNCTIONAL_CHOICES = [f.value for f in Functional]
_JOBS_HELP = (
    "processes to use (default: every usable CPU; 1 starts no worker); "
    "the output does not depend on it"
)
_SCENARIO_HELP = {"len": "series length (columns)", "phi": "comma-separated autoregressive coefficients"}


def _parse_levels(text: str) -> list[float]:
    try:
        levels = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise InvalidInputError(f"levels must be a comma-separated float list, got {text!r}") from None
    if not levels:
        raise InvalidInputError("at least one level is required")
    return levels


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with fileio.open_text(path, "w") as fh:
            fh.write(text)


def _cmd_test(args) -> int:
    from .inference import check_levels, permutation_test
    from .stats_core import StatisticSpec

    spec = StatisticSpec.parse(args.functional, args.metric_x, args.metric_y)
    levels = check_levels(_parse_levels(args.levels), args.perms)
    x = fileio.read_dataset(args.x)
    y = fileio.read_dataset(args.y)
    if x.shape[0] != y.shape[0]:
        raise InvalidInputError(
            f"row counts differ: {args.x} has {x.shape[0]}, {args.y} has {y.shape[0]}"
        )
    report = permutation_test(x, y, spec, args.perms, args.seed, jobs=args.jobs)
    _write_text(args.out, fileio.report_to_json(report, levels, __version__))
    return 0


def _cmd_power(args) -> int:
    from .harness import run_power

    study = fileio.read_power_config(args.config)
    result = run_power(study, jobs=args.jobs)
    _write_text(args.out, fileio.power_result_to_csv(result))
    return 0


def _cmd_dependogram(args) -> int:
    from .inference import check_levels, dependogram
    from .stats_core import StatisticSpec

    spec = StatisticSpec.parse(args.functional, args.metric, args.metric)
    levels = check_levels(_parse_levels(args.levels), args.perms)
    data = fileio.read_dataset(args.data)
    groups = fileio.parse_groups(args.groups, data.shape[1])
    samples = [data[:, g.start : g.stop] for g in groups]
    dep = dependogram(
        samples,
        spec,
        args.perms,
        args.seed,
        levels,
        labels=[g.name for g in groups],
        jobs=args.jobs,
    )
    _write_text(args.out, fileio.dependogram_to_csv(dep))
    return 0


def _cmd_simulate(args) -> int:
    # The scenario flags carry the parameters' external names; unset ones keep the defaults.
    params = {k: v for k, v in vars(args).items() if k in SCENARIO_PARAMETERS and v is not None}
    xs, ys = gen_scenario(scenario_config(args.scenario, args.n, params, args.seed))
    fileio.write_dataset(args.out_x, xs)
    fileio.write_dataset(args.out_y, ys)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recurtest",
        description="Recurrence-rate independence tests between samples in metric spaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="permutation independence test between two CSV samples")
    p_test.add_argument("--x", required=True, help="CSV file of the first sample")
    p_test.add_argument("--y", required=True, help="CSV file of the second sample")
    p_test.add_argument("--functional", required=True, choices=_FUNCTIONAL_CHOICES)
    p_test.add_argument("--metric-x", required=True, choices=_METRIC_CHOICES)
    p_test.add_argument("--metric-y", required=True, choices=_METRIC_CHOICES)
    p_test.add_argument("--perms", required=True, type=int, help="number of permutations")
    p_test.add_argument("--seed", required=True, type=int)
    p_test.add_argument("--out", help="write the JSON report here (default: stdout)")
    p_test.add_argument("--levels", default="0.05,0.1", help="comma-separated decision levels")
    p_test.add_argument("--jobs", type=int, help=_JOBS_HELP)
    p_test.set_defaults(func=_cmd_test)

    p_power = sub.add_parser("power", help="Monte-Carlo power study from a JSON config")
    p_power.add_argument("--config", required=True, help="JSON study config")
    p_power.add_argument("--out", help="write the CSV table here (default: stdout)")
    p_power.add_argument("--jobs", type=int, help=_JOBS_HELP)
    p_power.set_defaults(func=_cmd_power)

    p_dep = sub.add_parser("dependogram", help="pairwise tests between column groups of one CSV")
    p_dep.add_argument("--data", required=True, help="CSV data file")
    p_dep.add_argument("--groups", required=True, help='column partition "name=c0:c1;name=c2:c3;..." (half-open)')
    p_dep.add_argument("--functional", required=True, choices=_FUNCTIONAL_CHOICES)
    p_dep.add_argument("--metric", required=True, choices=_METRIC_CHOICES, help="metric used for every group")
    p_dep.add_argument("--perms", required=True, type=int)
    p_dep.add_argument("--levels", default="0.05,0.1")
    p_dep.add_argument("--seed", required=True, type=int)
    p_dep.add_argument("--out", help="write the CSV table here (default: stdout)")
    p_dep.add_argument("--jobs", type=int, help=_JOBS_HELP)
    p_dep.set_defaults(func=_cmd_dependogram)

    p_sim = sub.add_parser("simulate", help="emit synthetic scenario data as two CSV files")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--n", required=True, type=int, help="number of replications (rows)")
    p_sim.add_argument("--seed", required=True, type=int)
    p_sim.add_argument("--out-x", required=True)
    p_sim.add_argument("--out-y", required=True)
    # One flag per scenario parameter; phi is parsed from its text.
    for name, (_, kind) in SCENARIO_PARAMETERS.items():
        p_sim.add_argument(f"--{name}", type=str if kind is tuple else kind,
                           required=name == "len", help=_SCENARIO_HELP.get(name))
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on flag errors, 0 on --help/--version
        return int(err.code or 0)
    try:
        return args.func(args)
    except InvalidInputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - contract: unexpected failure -> 1
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
