"""Record the default-seed outputs that every benchmark run compares with.

Usage, from the root of a checkout:

    python3 benchmarks/record_reference.py

Writes ``benchmarks/reference.json``.  Re-record only for a change whose
purpose is to change these outputs, and say so with the change.
"""

import json

import run
import workloads as wl


def main() -> None:
    env = wl.Env.at(run.ROOT)
    env.out.mkdir(parents=True, exist_ok=True)
    reference = {}
    for size_name, sizes in wl.SIZES.items():
        reference[size_name] = {}
        for workload in wl.WORKLOADS:
            ops = wl.reference_ops(workload, env, sizes)
            if not ops:
                continue
            res = run.run_ops(ops)
            if res.failed:
                raise SystemExit(f"{workload} ({size_name}): {res.failed} operations failed")
            reference[size_name][workload] = res.digests
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
