"""Run the recurtest CLI with the benchmark tracer installed.

Usage: python cli_child.py TRACE_JSON ARGS...

Runs ``recurtest ARGS...`` in this fresh interpreter, writes the trace
(call counts, self times, work counts and spans) to TRACE_JSON and exits
with the CLI's exit code.  The runner uses it for the traced pass of the
simulate-longmem workload; the untraced pass runs ``python -m recurtest.cli``.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = tracer.modules["cli"]
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
