"""Time one workload's set-up in a fresh process.

Usage (from the checkout root)::

    python3 perfbench/setup_probe.py --workload dse --seed 1

Imports the program, builds the workload's session, server or pool exactly
as a measured run does, tears it down and prints the seconds from this
process's start to ready.  ``run.py`` takes the median of these probes and
its own set-up as ``setup_s``.
"""

from __future__ import annotations

import argparse
import sys

import harness
from run import WORKLOADS, load_workload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    harness.repo_root()
    workload = load_workload(args.workload, args.seed)
    try:
        workload.setup()
        ready = harness.process_age_s()
    finally:
        workload.teardown()
    print(ready)
    return 0


if __name__ == "__main__":
    sys.exit(main())
