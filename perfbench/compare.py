"""Compare result sets recorded by ``run.py --record``.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
        one verdict per (workload, metric): improved, no worse, regressed or
        unresolved (see `measure.verdict`).  Records pair up in the order they
        were written, which `pairs.py` alternates between the two sides.

    python3 perfbench/compare.py RUNS.jsonl
        steadiness of one set: median, quartiles and the interquartile spread
        as a share of the median, against each metric's bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                groups[record["workload"], record["trace"]].append(record)
    return groups


def declared(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _quartiles(values) -> str:
    med, q1, q3 = measure.spread(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(parent_path, change_path, out=sys.stdout) -> dict:
    parent, change = load(parent_path), load(change_path)
    verdicts = {}
    for key in sorted(parent.keys() & change.keys()):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        out.write(f"\n{workload} (trace {trace}): {min(len(p_runs), len(c_runs))} pairs, "
                  f"failed {p_failed} -> {c_failed}\n")
        out.write(f"  {'metric':<42} {'parent median [q1, q3]':>34} "
                  f"{'change median [q1, q3]':>34}  verdict\n")
        for metric in declared(trace):
            name = metric["name"]
            p = [r["metrics"][name] for r in p_runs]
            c = [r["metrics"][name] for r in c_runs]
            if len(p) < 2 or len(c) < 2:
                continue
            v = measure.verdict(p, c, metric["better"], metric.get("bound"))
            if v == "improved" and c_failed > p_failed:
                v = "no worse (gain void: more failures)"
            verdicts[workload, name] = v
            out.write(f"  {name:<42} {_quartiles(p):>34} {_quartiles(c):>34}  {v}\n")
    return verdicts


def steadiness(path, out=sys.stdout) -> bool:
    """Print each metric's spread; False when one exceeds its bound."""
    steady = True
    for (workload, trace), runs in sorted(load(path).items()):
        out.write(f"\n{workload} (trace {trace}): {len(runs)} runs, "
                  f"seeds {sorted(r['seed'] for r in runs)}\n")
        for metric in declared(trace):
            values = [r["metrics"][metric["name"]] for r in runs]
            if len(values) < 2:
                continue
            med, q1, q3 = measure.spread(values)
            share = (q3 - q1) / abs(med) if med else 0.0
            bound = metric.get("bound")
            note = ""
            if bound is not None:
                if share < bound / 3:
                    note = f"below a third of bound {bound}"
                elif share <= bound:
                    note = f"within bound {bound}"
                else:
                    note = f"WIDER than bound {bound}"
                    steady = False
            out.write(f"  {metric['name']:<42} {_quartiles(values):>34}  spread {share:.4f}  {note}\n")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+", help="one file (steadiness) or two (parent, change)")
    args = parser.parse_args(argv)
    if len(args.records) == 1:
        return 0 if steadiness(args.records[0]) else 1
    if len(args.records) == 2:
        verdicts = compare(*args.records)
        return 1 if any(v == "regressed" for v in verdicts.values()) else 0
    parser.error("give one or two record files")


if __name__ == "__main__":
    sys.exit(main())
