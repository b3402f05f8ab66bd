"""Record the `presets` reference values: total_error per preset and seed.

    python3 perfbench/record_reference.py > perfbench/preset_reference.json

The committed file was recorded from the sources at commit c897571 with
Python 3.11.7 and NumPy 2.4.6.  Re-record only when a change to the numbers
is intended and explained; the `presets` check compares against this file.
"""

import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    ad = workloads.load_algdiff(Path(__file__).resolve().parent.parent / "src", True)
    table = {}
    for preset in workloads.PRESET_NAMES:
        rows = []
        for seed in range(workloads.PRESET_SEEDS):
            rc, text = workloads.run_cli(ad, ["experiment", preset, "--seed", str(seed)])
            if rc != 0:
                raise RuntimeError(f"{preset} --seed {seed} exited {rc}")
            rows.append([run["total_error"] for run in json.loads(text)["runs"]])
        table[preset] = rows
    body = ",\n".join(f"  {json.dumps(p)}: {json.dumps(r)}" for p, r in table.items())
    sys.stdout.write('{"total_error": {\n' + body + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
