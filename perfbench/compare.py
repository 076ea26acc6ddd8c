#!/usr/bin/env python3
"""Compare two saved outputs of run.py, metric by metric.

    python3 perfbench/run.py --workload decide --seed 1 > before.txt
    python3 perfbench/run.py --workload decide --seed 1 > after.txt
    python3 perfbench/compare.py before.txt after.txt

Refuses (exit 1) to compare runs of different workloads or trace modes,
or runs whose kernel backend differs: the compiled kernels are 4 to 400
times faster than the pure ones, so such a difference says nothing about
a change.  Marks each end-to-end metric that got worse by more than its
bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load(path: str) -> tuple[dict, dict]:
    lines = Path(path).read_text().splitlines()
    info = next(json.loads(line)["perfbench"] for line in lines if line.startswith('{"perfbench"'))
    return info, json.loads(lines[-1])


def main(argv) -> int:
    (a_info, a), (b_info, b) = load(argv[1]), load(argv[2])
    for what, x, y in (
        ("workload", a_info["workload"], b_info["workload"]),
        ("trace mode", a_info["trace"], b_info["trace"]),
        ("kernel backend", a_info["environment"]["backend"], b_info["environment"]["backend"]),
    ):
        if x != y:
            print(f"refusing to compare: {what} differs ({x} vs {y})", file=sys.stderr)
            return 1
    if a_info["inputs_sha256"] != b_info["inputs_sha256"]:
        print("note: the two runs had different inputs")
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    for name, va in a["metrics"].items():
        x, y = va["value"], b["metrics"][name]["value"]
        spec = specs[name]
        change = (y - x) / abs(x) if x else 0.0
        worse = -change if spec["better"] == "higher" else change
        flag = "  WORSE THAN BOUND" if "bound" in spec and worse > spec["bound"] else ""
        print(f"{name:44s} {x:14.6g} {y:14.6g} {va['unit']:9s} {change:+8.1%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
