"""Set-up probe: time from a fresh interpreter to the first job's result.

Started by run.py once per set-up sample.  The clock starts before any
import, so the time covers NumPy, ``import algdiff`` (and ``algdiff.cli``
for CLI workloads) and the workload's first, untimed job.  Prints seconds.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args()
    cls = workloads.CLASSES[args.workload]
    wl = cls(workloads.load_algdiff(Path(args.src), cls.uses_cli), args.seed)
    wl.call(0)()
    print(repr(time.perf_counter() - _START))
    return 0


if __name__ == "__main__":
    sys.exit(main())
