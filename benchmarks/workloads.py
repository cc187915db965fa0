"""The four benchmark workloads: inputs, operations and output checks.

Every workload is a single-process closed loop: one caller runs the
operations of a pass one after another, each starting when the previous one
has returned.  Inputs come from numpy generators seeded by the workload seed
and the pass index, so the library receives only the generated inputs.

Only the public surface is used: ``permutation_test(x, y, spec, m=, seed=)``,
``statistic(x, y, spec)``, ``run_power``/``PowerStudySpec``/``ScenarioConfig``,
``fileio.read_dataset`` and the ``recurtest simulate`` flags.  No call passes
``threads=``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import recurtest as rt
from recurtest import cli, fileio

WORKLOADS = ("test-paper", "test-ties", "power-study", "simulate-longmem")
DEFAULT_SEED = 0
ALPHA = 0.05
FUNCTIONALS = ("l2", "l1", "sup")
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one pass.  ``FULL`` is the benchmark; ``SMALL`` is
    for the self-test only."""

    paper_n: tuple[int, ...] = (30, 50)
    ties_n: tuple[int, ...] = (50, 100)
    dim: int = 100
    m: int = 100
    power_n: tuple[int, ...] = (50, 30, 30, 30)
    power_reps: int = 10
    check_reps: int = 2
    sim_n: int = 30
    sim_len: int = 100


FULL = Sizes()
SMALL = Sizes(
    paper_n=(8, 10),
    ties_n=(10, 12),
    dim=20,
    m=19,
    power_n=(10, 8, 8, 8),
    power_reps=1,
    check_reps=1,
    sim_n=4,
    sim_len=20,
)
SIZES = {"full": FULL, "small": SMALL}


class CheckError(Exception):
    """An operation returned an output that failed its check."""


@dataclass
class Op:
    """One operation of a pass.

    ``call`` runs it and returns its output; ``check`` raises ``CheckError``
    on a wrong output; ``digest`` reduces the output to plain values that
    must be identical between a traced and an untraced run of the same
    inputs, and that the reference check compares.
    """

    label: str
    group: str  # functional name, "power" or "cli"
    call: Callable[[], object]
    check: Callable[[object], None]
    digest: Callable[[object], object]
    work: dict = field(default_factory=dict)


def seed_for(*path: int) -> int:
    """A 64-bit seed folded from the workload seed and a path of indices."""
    return int(np.random.SeedSequence([abs(int(p)) for p in path]).generate_state(1)[0])


def spec_of(functional: str, metric: str):
    return rt.StatisticSpec(
        rt.Functional.parse(functional), rt.Metric.parse(metric), rt.Metric.parse(metric)
    )


# ---------------------------------------------------------------------------
# Permutation tests


def test_data(rng: np.random.Generator, n: int, dim: int, ties: bool):
    """Y = X**2 + 3 noise; rounded to integers for the tie-heavy workload."""
    x = rng.standard_normal((n, dim))
    y = x**2 + 3.0 * rng.standard_normal((n, dim))
    if ties:
        return np.round(x), np.round(y)
    return x, y


def same_statistic(functional: str, got: float, want: float) -> bool:
    """Sup is exact; the integral functionals agree to 1e-10 relative."""
    if functional == "sup":
        return got == want
    return abs(got - want) <= 1e-10 * max(abs(want), 1e-300)


def _check_p_value(p: float, m: int) -> None:
    k = p * (m + 1)
    if not (1.0 / (m + 1) <= p <= 1.0 and abs(k - round(k)) < 1e-9):
        raise CheckError(f"p-value {p!r} is not of the form k/(m+1) with m={m}")


def _test_op(x, y, functional: str, metric: str, m: int, seed: int) -> Op:
    spec = spec_of(functional, metric)
    n = x.shape[0]

    def call():
        return rt.permutation_test(x, y, spec, m=m, seed=seed)

    def check(report):
        if report.n != n or report.m != m:
            raise CheckError(f"report has n={report.n}, m={report.m}; expected {n}, {m}")
        _check_p_value(report.p_value, m)
        direct = rt.statistic(x, y, spec)
        if not same_statistic(functional, report.observed, direct):
            raise CheckError(f"observed {report.observed!r} != statistic() {direct!r}")

    pairs = n * (n - 1) // 2
    return Op(
        label=f"{functional} n={n}",
        group=functional,
        call=call,
        check=check,
        digest=lambda r: [functional, r.observed, r.p_value],
        work={"tests": 1, "pairs": pairs, "perms": m, "pair_evals": pairs * (m + 1)},
    )


def test_pass(seed: int, pass_index: int, ns, sizes: Sizes, ties: bool) -> list[Op]:
    metric = "linf" if ties else "l1"
    ops = []
    for n in ns:
        rng = np.random.default_rng([seed, pass_index, n])
        x, y = test_data(rng, n, sizes.dim, ties)
        perm_seed = seed_for(seed, pass_index, n)
        ops += [_test_op(x, y, f, metric, sizes.m, perm_seed) for f in FUNCTIONALS]
    return ops


# ---------------------------------------------------------------------------
# Power studies (the four sub-studies of acceptance criterion 5)


def power_scenarios(sizes: Sizes):
    """(scenario, metric) of each sub-study; every spec is the l2 functional."""
    a, b, c, d = sizes.power_n
    length = sizes.dim
    return [
        (rt.ScenarioConfig(scenario="D3", n=a, length=length, phi=(0.1,)), "l1"),
        (rt.ScenarioConfig(scenario="D3", n=b, length=length, phi=(0.1,)), "l1"),
        (rt.ScenarioConfig(scenario="C4", n=c, length=length, lam=0.3, sigma=1.0), "linf"),
        (rt.ScenarioConfig(scenario="D1", n=d, length=length, phi=(0.2, 0.5), theta=0.2), "l2"),
    ]


def _power_op(scenario, metric: str, reps: int, m: int, seed: int) -> Op:
    study = rt.PowerStudySpec(
        scenario=scenario, specs=(spec_of("l2", metric),), reps=reps, m=m, alpha=ALPHA, seed=seed
    )

    def check(result):
        p = np.asarray(result.p_values)
        if p.shape != (reps, 1):
            raise CheckError(f"p_values shape {p.shape}, expected {(reps, 1)}")
        for value in p.ravel():
            _check_p_value(float(value), m)
        row = result.rows[0]
        rejections = int(np.count_nonzero(p[:, 0] <= ALPHA))
        if row.rejections != rejections or row.rate != rejections / reps:
            raise CheckError(f"row {row.rejections}/{row.rate} disagrees with its p-values")

    pairs = scenario.n * (scenario.n - 1) // 2
    return Op(
        label=f"{scenario.scenario} n={scenario.n} l2/{metric}",
        group="power",
        call=lambda: rt.run_power(study),
        check=check,
        digest=lambda r: np.asarray(r.p_values).ravel().tolist(),
        work={"reps": reps, "tests": reps, "pairs": reps * pairs, "perms": reps * m,
              "pair_evals": reps * pairs * (m + 1)},
    )


def _power_pass(seed: int, pass_index: int, sizes: Sizes, reps: int) -> list[Op]:
    return [
        _power_op(scenario, metric, reps, sizes.m, seed_for(seed, pass_index, i))
        for i, (scenario, metric) in enumerate(power_scenarios(sizes))
    ]


# ---------------------------------------------------------------------------
# Cold CLI simulation of the long-memory scenarios

# (scenario, extra CLI flags, the same settings as ScenarioConfig fields)
SIM_CALLS = (
    ("C5", [], {}),
    ("C7", ["--lambda1", "0.3", "--lambda2", "0.8"], {"lam1": 0.3, "lam2": 0.8}),
    ("X-FOU-Y-FOU", ["--lambda1", "0.3", "--lambda2", "0.8"], {"lam1": 0.3, "lam2": 0.8}),
    ("C1", ["--hurst", "0.7"], {"hurst": 0.7}),
)


def sim_scenarios(sizes: Sizes):
    """The in-process ScenarioConfig equal to each CLI call."""
    return [rt.ScenarioConfig(scenario=scenario, n=sizes.sim_n, length=sizes.sim_len, **fields)
            for scenario, _flags, fields in SIM_CALLS]


@dataclass(frozen=True)
class Env:
    """Where the benchmark runs: the checkout's source tree and an output
    directory inside the checkout."""

    src: Path
    out: Path
    bench: Path

    @classmethod
    def at(cls, root: Path) -> "Env":
        return cls(src=root / "src", out=root / "bench-out", bench=root / "benchmarks")

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        return env


def run_cli(env: Env, argv: list[str], trace_to: Path | None = None):
    """``recurtest <argv>`` in a fresh interpreter; traced through the
    benchmark's child script when ``trace_to`` is given."""
    if trace_to is None:
        command = [sys.executable, "-m", "recurtest.cli", *argv]
    else:
        command = [sys.executable, str(env.bench / "cli_child.py"), str(trace_to), *argv]
    return subprocess.run(command, env=env.child_env(), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)


def _sim_op(env: Env, index: int, scenario: str, flags, sizes: Sizes, seed: int,
            trace_to: Path | None) -> Op:
    out_x = env.out / f"sim{index}_x.csv"
    out_y = env.out / f"sim{index}_y.csv"
    argv = ["simulate", "--scenario", scenario, "--n", str(sizes.sim_n),
            "--len", str(sizes.sim_len), "--seed", str(seed),
            "--out-x", str(out_x), "--out-y", str(out_y), *flags]

    def call():
        for path in (out_x, out_y):
            path.unlink(missing_ok=True)
        return run_cli(env, argv, trace_to)

    def check(proc):
        if proc.returncode != 0:
            raise CheckError(f"exit code {proc.returncode}: {proc.stderr.strip()}")
        data = {}
        for path in (out_x, out_y):
            try:
                data[path] = fileio.read_dataset(str(path))
            except rt.InvalidInputError as err:
                raise CheckError(f"CSV round trip failed: {err}") from None
            if data[path].shape != (sizes.sim_n, sizes.sim_len):
                raise CheckError(f"{path.name} has shape {data[path].shape}")
            if not np.all(np.isfinite(data[path])):
                raise CheckError(f"{path.name} has non-finite values")
        if scenario == "C5" and not np.all(data[out_x][:, 0] == 0.0):
            raise CheckError("C5 driver is not pinned at 0 in column 0")

    def digest(proc):
        hashes = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (out_x, out_y)]
        return [proc.returncode, *hashes]

    return Op(label=f"simulate {scenario}", group="cli", call=call, check=check,
              digest=digest, work={"cli_calls": 1})


def _sim_pass(env: Env, seed: int, pass_index: int, sizes: Sizes,
              trace_dir: Path | None) -> list[Op]:
    ops = []
    for i, (scenario, flags, _fields) in enumerate(SIM_CALLS):
        trace_to = None if trace_dir is None else trace_dir / f"cli{i}.json"
        ops.append(_sim_op(env, i, scenario, flags, sizes,
                           seed_for(seed, pass_index, i) % (1 << 31), trace_to))
    return ops


# ---------------------------------------------------------------------------
# Entry points used by the runner


def build_pass(workload: str, env: Env, sizes: Sizes, seed: int, pass_index: int,
               trace_dir: Path | None = None) -> list[Op]:
    """The operations of one timed pass."""
    if workload == "test-paper":
        return test_pass(seed, pass_index, sizes.paper_n, sizes, ties=False)
    if workload == "test-ties":
        return test_pass(seed, pass_index, sizes.ties_n, sizes, ties=True)
    if workload == "power-study":
        return _power_pass(seed, pass_index, sizes, sizes.power_reps)
    if workload == "simulate-longmem":
        return _sim_pass(env, seed, pass_index, sizes, trace_dir)
    raise ValueError(f"unknown workload {workload!r}")


def reference_ops(workload: str, env: Env, sizes: Sizes) -> list[Op]:
    """Operations at the default seed whose outputs are compared with the
    recorded references: the smallest test size, or every power sub-study
    at a few replications.  The simulation draws are not compared (a change
    of sampler changes them on purpose); its checks are draw-free."""
    if workload == "test-paper":
        return test_pass(DEFAULT_SEED, 0, sizes.paper_n[:1], sizes, ties=False)
    if workload == "test-ties":
        return test_pass(DEFAULT_SEED, 0, sizes.ties_n[:1], sizes, ties=True)
    if workload == "power-study":
        return _power_pass(DEFAULT_SEED, 0, sizes, sizes.check_reps)
    return []


def matches_reference(workload: str, got, want) -> bool:
    """P-values exactly; sup statistics exactly; l1/l2 to 1e-10 relative."""
    if workload == "power-study":
        return got == want
    functional, observed, p_value = got
    return (
        functional == want[0]
        and p_value == want[2]
        and same_statistic(functional, observed, want[1])
    )


def warm_up(workload: str, env: Env) -> None:
    """A small call of the workload's kind, run before anything is timed."""
    if workload in ("test-paper", "test-ties"):
        rng = np.random.default_rng(DEFAULT_SEED)
        x, y = test_data(rng, 10, 20, ties=workload == "test-ties")
        metric = "linf" if workload == "test-ties" else "l1"
        for functional in FUNCTIONALS:
            rt.permutation_test(x, y, spec_of(functional, metric), m=19, seed=1)
    elif workload == "power-study":
        for scenario, metric in power_scenarios(SMALL):
            study = rt.PowerStudySpec(scenario=scenario, specs=(spec_of("l2", metric),),
                                      reps=1, m=19, alpha=ALPHA, seed=1)
            rt.run_power(study)
    elif workload == "simulate-longmem":
        # In-process: every timed call pays its own interpreter start.
        env.out.mkdir(parents=True, exist_ok=True)
        code = cli.main(["simulate", "--scenario", "C5", "--n", "2", "--len", "10",
                         "--seed", "1", "--out-x", str(env.out / "warm_x.csv"),
                         "--out-y", str(env.out / "warm_y.csv")])
        if code != 0:
            raise CheckError(f"warm-up CLI call exited {code}")
    else:
        raise ValueError(f"unknown workload {workload!r}")
