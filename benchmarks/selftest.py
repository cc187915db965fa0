"""Small-size self-test of the benchmark.

Usage, from the root of a checkout:

    python3 benchmarks/selftest.py

Runs every workload at the small sizes, untraced and traced, and checks:

* the last stdout line is the result object, with every metric listed in
  BENCHMARK.json and its unit, and no failed operation (error_rate 0);
* the end-to-end figures of each workload are printed by name with a unit;
* the traced run's outputs equal the untraced run's on the same inputs;
* self times plus ``trace.untraced_s`` add up to ``trace.wall_s``;
* in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench-out"
SEED = 11
PRINTED = {
    "test-paper": ["setup_s", "wall_s", "test_s.l2", "test_s.l1", "test_s.sup", "peak_rss_mb"],
    "test-ties": ["setup_s", "wall_s", "test_s.l2", "test_s.l1", "test_s.sup", "peak_rss_mb"],
    "power-study": ["setup_s", "wall_s", "reps_per_s", "peak_rss_mb"],
    "simulate-longmem": ["setup_s", "wall_s", "peak_rss_mb"],
}
LINE = re.compile(r"^  (\S+) = (\S+) (\S+)")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_run(workload: str, trace: int, manifest: dict) -> dict:
    proc = run(ROOT, workload, trace)
    tag = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{tag}: exit code 0 (got {proc.returncode}) {proc.stderr[-300:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    expect(result.get("correct") is True and result.get("failed") == 0
           and result.get("attempted", 0) >= 1, f"{tag}: correct, error_rate 0")
    wanted = manifest["per_layer" if trace else "end_to_end"]
    emitted = result.get("metrics", {})
    expect(set(emitted) == {m["name"] for m in wanted}, f"{tag}: every listed metric emitted")
    expect(all(emitted.get(m["name"], {}).get("unit") == m["unit"] for m in wanted),
           f"{tag}: every unit as listed")
    printed = {m.group(1): m.group(3) for m in map(LINE.match, lines) if m}
    if not trace:
        names = PRINTED[workload] + ["error_rate"]
        expect(all(n in printed for n in names), f"{tag}: prints {', '.join(names)}")
        expect("error_rate = 0 " in proc.stdout, f"{tag}: error_rate = 0")
    return json.loads((OUT / f"{workload}-trace{trace}-seed{SEED}.json").read_text())


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in PRINTED:
        plain = check_run(workload, 0, manifest)
        traced = check_run(workload, 1, manifest)
        expect(plain["first_pass_digests"] == traced["first_pass_digests"],
               f"{workload}: traced outputs equal untraced outputs")
        metrics = traced["metrics"]
        self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        total = self_total + metrics["trace.untraced_s"]
        expect(abs(total - metrics["trace.wall_s"]) <= 1e-9 * max(1.0, total),
               f"{workload}: self times + trace.untraced_s == trace.wall_s")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in manifest["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "test-paper", 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and '"correct"' not in last[0],
           "bare directory: non-zero exit and no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
