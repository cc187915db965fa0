#!/usr/bin/env python3
"""Benchmark of recurtest: permutation tests, power studies and simulation.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``test-paper``, ``test-ties``,
``power-study`` and ``simulate-longmem``.  Each is a single-process closed
loop; passes of the workload run one after another for about ``--seconds``
(a pass that would overrun by more than half of itself is not started).

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` (median of three fresh interpreters that import recurtest and run
the workload's warm-up call), ``wall_s`` (median pass time) and
``peak_rss_mb``.  It also prints ``test_s.<functional>``, ``reps_per_s`` and
``error_rate`` where they apply.

``--trace 1`` alternates untraced and traced passes on the same inputs and
reports per-layer metrics: calls and self time of every public function of
every recurtest module (wrapped from outside by ``tracer.py``), work counts,
tracemalloc peaks, per-module import times, a large-n kernel probe
(test-paper only) and the tracing overhead.  Self times plus
``trace.untraced_s`` add up to ``trace.wall_s``.

Every run checks outputs: invariants on every operation, recorded reference
values at the default seed (``reference.json``), and, when traced, equality
of traced and untraced outputs.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units are those listed in ``BENCHMARK.json``.  Full results, the
machine fingerprint and the spans are written under ``bench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
PROBE_N = (100, 200)
CHILD_TIMEOUT_S = 120

# Import recurtest from this checkout's src/ and nowhere else; without it the
# benchmark exits non-zero before printing a result.
if not (SRC / "recurtest" / "__init__.py").is_file():
    sys.exit(f"error: no recurtest package under {SRC}")
sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402
import recurtest as rt  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

if Path(rt.__file__).resolve().parent != (SRC / "recurtest").resolve():
    sys.exit(f"error: recurtest imported from {rt.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="problem sizes; 'small' is for the self-test only")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Running passes


@dataclass
class PassResult:
    wall: float = 0.0
    by_group: dict = field(default_factory=lambda: defaultdict(float))
    digests: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    work: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0


def report_failure(label: str, err: BaseException) -> None:
    print(f"FAILED {label}: {type(err).__name__}: {err}", file=sys.stderr)
    if not isinstance(err, wl.CheckError):
        traceback.print_exception(err, file=sys.stderr)


def run_ops(ops, tracer=None) -> PassResult:
    """Run operations one after another, timing each call and checking its
    output outside the timed (and traced) region."""
    res = PassResult()
    for op in ops:
        res.attempted += 1
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as err:  # a failed operation is counted, not fatal
            res.wall += time.perf_counter() - start
            res.failed += 1
            res.digests.append(None)
            report_failure(op.label, err)
            continue
        elapsed = time.perf_counter() - start
        res.wall += elapsed
        res.op_s.append(elapsed)
        res.by_group[op.group] += elapsed
        res.work.update(op.work)
        try:
            with tracer.paused() if tracer else nullcontext():
                op.check(out)
                res.digests.append(op.digest(out))
        except Exception as err:
            res.failed += 1
            res.digests.append(None)
            report_failure(op.label, err)
    return res


class Tally:
    """Operations attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, res: PassResult) -> PassResult:
        self.attempted += res.attempted
        self.failed += res.failed
        return res

    def fail(self, label: str, err: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        report_failure(label, err)


def reference_check(workload: str, env, sizes_name: str, tally: Tally) -> None:
    """Compare default-seed outputs with the values in reference.json."""
    ops = wl.reference_ops(workload, env, wl.SIZES[sizes_name])
    if not ops:
        return
    want = json.loads((BENCH / "reference.json").read_text())[sizes_name][workload]
    res = tally.add(run_ops(ops))
    if len(want) != len(ops):
        tally.fail("reference", wl.CheckError(f"{len(want)} references for {len(ops)} ops"))
        return
    for op, got, ref in zip(ops, res.digests, want):
        if got is not None and not wl.matches_reference(workload, got, ref):
            tally.failed += 1
            report_failure(f"reference {op.label}",
                           wl.CheckError(f"got {got!r}, recorded {ref!r}"))


def measure_setup(workload: str, env, tally: Tally) -> float:
    """Median time from a fresh interpreter to recurtest imported and the
    workload's warm-up call returned."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(ROOT)],
            env=env.child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            tally.fail("setup probe", wl.CheckError(proc.stderr.strip()[-500:]))
        else:
            tally.attempted += 1
    return statistics.median(times)


def peak_rss_mb(workload: str) -> float:
    """Peak resident set from rusage (kilobytes on Linux): of this process,
    or of the largest child for the CLI workload."""
    who = resource.RUSAGE_CHILDREN if workload == "simulate-longmem" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def group_times(results, group: str) -> float:
    return statistics.median(r.by_group.get(group, 0.0) for r in results)


def reps_per_s(results) -> float:
    rates = [r.work["reps"] / r.by_group["power"] for r in results if r.by_group.get("power")]
    return statistics.median(rates) if rates else 0.0


def end_to_end(workload: str, results) -> dict:
    """Every end-to-end figure that applies to the workload (values, units)."""
    out = {"wall_s": (statistics.median(r.wall for r in results), "s")}
    if workload in ("test-paper", "test-ties"):
        for functional in wl.FUNCTIONALS:
            out[f"test_s.{functional}"] = (group_times(results, functional), "s")
    if workload == "power-study":
        out["reps_per_s"] = (reps_per_s(results), "1/s")
    return out


# ---------------------------------------------------------------------------
# Traced run


def import_times(env) -> dict:
    """Cumulative import time of every recurtest module and scipy.signal,
    from ``python -X importtime`` in fresh interpreters (median of runs)."""
    samples = defaultdict(list)
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import recurtest, recurtest.cli"],
            env=env.child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = (part.strip() for part in line[12:].split("|"))
            if name == "scipy.signal" or name.split(".")[0] == "recurtest":
                samples[name].append(int(cumulative) / 1e6)
    return {f"import.{name}_s": statistics.median(v) for name, v in samples.items()}


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def peaks(workload: str, sizes, seed: int) -> dict:
    """tracemalloc peaks of permutation_test (each functional at the
    workload's smallest test size, or one test per power sub-study) and of
    gen_scenario (each scenario the workload generates)."""
    test_peak = scen_peak = 0.0
    if workload in ("test-paper", "test-ties"):
        ns = sizes.paper_n if workload == "test-paper" else sizes.ties_n
        ties = workload == "test-ties"
        for op in wl.test_pass(seed, 0, ns[:1], sizes, ties):
            test_peak = max(test_peak, traced_peak_mb(op.call))
    elif workload == "power-study":
        for i, (scenario, metric) in enumerate(wl.power_scenarios(sizes)):
            cfg = replace(scenario, seed=wl.seed_for(seed, i))
            scen_peak = max(scen_peak, traced_peak_mb(lambda: rt.gen_scenario(cfg)))
            x, y = rt.gen_scenario(cfg)
            spec = wl.spec_of("l2", metric)
            test_peak = max(test_peak, traced_peak_mb(
                lambda: rt.permutation_test(x, y, spec, m=sizes.m, seed=1)))
    else:
        for cfg in wl.sim_scenarios(sizes):
            scen_peak = max(scen_peak, traced_peak_mb(
                lambda: rt.gen_scenario(replace(cfg, seed=seed))))
    return {"inference.permutation_test.peak_mb": test_peak,
            "simulate.gen_scenario.peak_mb": scen_peak}


def kernel_probe(seed: int, tally: Tally) -> dict:
    """One statistic() evaluation per functional at n = 100 and 200 on
    test-paper data; kept out of the timed passes."""
    out = {}
    for n in PROBE_N:
        rng = np.random.default_rng([seed, 1 << 20, n])
        x, y = wl.test_data(rng, n, wl.FULL.dim, ties=False)
        for functional in wl.FUNCTIONALS:
            start = time.perf_counter()
            value = rt.statistic(x, y, wl.spec_of(functional, "l1"))
            out[f"stats_core.{functional}.eval_s.n{n}"] = time.perf_counter() - start
            if np.isfinite(value) and value >= 0.0:
                tally.attempted += 1
            else:
                tally.fail(f"probe {functional} n={n}", wl.CheckError(f"value {value!r}"))
    return out


def traced_run(workload, env, sizes, seed, seconds, tally):
    """Alternate untraced and traced passes on the same inputs until
    ``seconds`` have passed.  Returns the per-layer metrics (per traced
    pass), the traced pass results, the public functions found and the
    spans of the last traced pass, one list per process."""
    tracer = Tracer()
    calls, self_s, counts = Counter(), defaultdict(float), Counter()
    untraced, traced, overheads = [], [], []
    trace_dir = env.out / "cli-trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    pass_index = 0
    while True:
        pair_start = time.perf_counter()
        plain = tally.add(run_ops(wl.build_pass(workload, env, sizes, seed, pass_index)))
        ops = wl.build_pass(workload, env, sizes, seed, pass_index,
                            trace_dir if workload == "simulate-longmem" else None)
        tracer.reset()
        tracer.install()
        try:
            res = tally.add(run_ops(ops, tracer))
        finally:
            tracer.uninstall()
        snaps = [tracer.snapshot()]
        if workload == "simulate-longmem":
            snaps += [json.loads(p.read_text()) for p in sorted(trace_dir.glob("cli*.json"))]
            for p in trace_dir.glob("cli*.json"):
                p.unlink()
        for snap in snaps:
            calls.update(snap["calls"])
            counts.update(snap["counts"])
            for name, value in snap["self_s"].items():
                self_s[name] += value
        spans = [s["spans"] for s in snaps]
        if plain.digests != res.digests:
            tally.fail(f"pass {pass_index}",
                       wl.CheckError("traced outputs differ from untraced outputs"))
        untraced.append(plain)
        traced.append(res)
        overheads.append(res.wall - plain.wall)
        pass_index += 1
        now = time.perf_counter()
        if now - start + (now - pair_start) / 2 >= seconds:
            break

    k = len(traced)
    metrics = {}
    for name in sorted(calls):
        metrics[f"{name}.calls"] = calls[name] / k
        metrics[f"{name}.self_s"] = self_s[name] / k
    for name, value in counts.items():
        metrics[name] = value / k
    wall = statistics.mean(r.wall for r in traced)
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_s"] = wall - sum(self_s.values()) / k
    metrics["trace.overhead_s"] = statistics.median(overheads)
    for name, (value, _unit) in end_to_end(workload, untraced).items():
        if name != "wall_s":
            metrics[name] = value
    metrics.update(peaks(workload, sizes, seed))
    if workload == "test-paper":
        metrics.update(kernel_probe(seed, tally))
    metrics.update(import_times(env))
    return metrics, traced, set(tracer.functions), spans


# ---------------------------------------------------------------------------
# Output


def fingerprint() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "recurtest": rt.__version__,
    }


def unit_of(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".elems") or name.endswith(".pairs"):
        return "count"
    if name.endswith("_mb"):
        return "MB"
    if name == "reps_per_s":
        return "1/s"
    return "s"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    sizes = wl.SIZES[args.size]
    env = wl.Env.at(ROOT)
    env.out.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    info = fingerprint()
    print("fingerprint: " + " ".join(f"{k}={v}" for k, v in info.items()))

    try:
        wl.warm_up(args.workload, env)
    except Exception as err:
        tally.fail("warm-up", err)
    reference_check(args.workload, env, args.size, tally)

    if args.trace:
        metrics, results, functions, spans = traced_run(
            args.workload, env, sizes, args.seed, args.seconds, tally)
        wanted = manifest["per_layer"]
        listed = {m["name"][: -len(".calls")] for m in wanted if m["name"].endswith(".calls")}
        not_reached = sorted(functions - {n[: -len(".calls")] for n in metrics
                                          if n.endswith(".calls")})
        absent = sorted(listed - functions)
    else:
        setup_s = measure_setup(args.workload, env, tally)
        results = []
        start = time.perf_counter()
        # Stop where the run comes closest to --seconds: before a pass that
        # would overrun by more than half of itself.
        while not results or time.perf_counter() - start + results[-1].wall / 2 < args.seconds:
            ops = wl.build_pass(args.workload, env, sizes, args.seed, len(results))
            results.append(tally.add(run_ops(ops)))
        metrics = {name: value for name, (value, _u) in end_to_end(args.workload, results).items()}
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb(args.workload)
        not_reached, absent, spans = [], [], []
        wanted = manifest["end_to_end"]

    work = dict(results[0].work)
    first_ops = wl.build_pass(args.workload, env, sizes, args.seed, 0)
    work["pairs_per_test"] = sorted({op.work["pairs"] // op.work["tests"]
                                     for op in first_ops if "tests" in op.work})
    error_rate = tally.failed / max(tally.attempted, 1)
    print(f"workload: {args.workload} seed={args.seed} passes={len(results)} "
          f"trace={args.trace} size={args.size}")
    print("work per pass: " + " ".join(f"{k}={v}" for k, v in sorted(work.items())))
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {unit_of(name)}")
    print(f"  error_rate = {error_rate:.6g} ({tally.failed} failed / {tally.attempted} attempted)")
    if not_reached:
        print("public functions not reached: " + ", ".join(not_reached))
    if absent:
        print("absent (listed in BENCHMARK.json, no longer in recurtest): " + ", ".join(absent))

    emitted = {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print("listed metrics without a value here (reported as 0): " + ", ".join(missing))
    record = {"fingerprint": info, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "passes": len(results), "work_per_pass": work,
              "metrics": metrics, "absent": absent, "error_rate": error_rate,
              "pass_wall_s": [r.wall for r in results], "op_s": [r.op_s for r in results],
              "first_pass_digests": results[0].digests, "spans": spans}
    out_file = env.out / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    out_file.write_text(json.dumps(record))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": emitted}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
