"""Set-up probe: import recurtest in a fresh interpreter and run the
workload's warm-up call.

Usage: python setup_probe.py WORKLOAD CHECKOUT_ROOT

The runner times this process from start to exit several times and reports
the median as ``setup_s``.
"""

import sys
from pathlib import Path

from workloads import Env, warm_up

if __name__ == "__main__":
    warm_up(sys.argv[1], Env.at(Path(sys.argv[2])))
