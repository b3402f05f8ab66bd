"""Run alternating pairs of benchmark runs on two source trees, then compare.

    python3 perfbench/pairs.py --parent ../algdiff-parent --change . --out results/

Ten pairs per workload, each run for BENCHMARK.json's ``run_seconds``.  Pair
i runs both sides with seed ``--seed + i``; even pairs run the parent first,
odd pairs the change.  Both sides use this copy of the benchmark, so
the benchmark code and settings are identical.  Records go to
``OUT/parent.jsonl`` and ``OUT/change.jsonl``; the verdicts of
`compare.py` follow.  Giving one tree as both sides measures the
benchmark's own steadiness.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
PAIRS = 10  # the fewest the verdict rule resolves (`measure.verdict`)


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--out", required=True, help="directory for the record files")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for workload in args.workloads.split(","):
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(args.seed + i), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace), "--src", str(sides[side] / "src"),
                       "--record", str(out / f"{side}.jsonl")]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    return proc.returncode
                print(f"{workload} pair {i} {side}: {proc.stdout.splitlines()[-1][:100]}")
    verdicts = compare.compare(out / "parent.jsonl", out / "change.jsonl")
    return 1 if any(v == "regressed" for v in verdicts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
