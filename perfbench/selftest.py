#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload, runs one operation of each kind from the seed-0 pool,
untraced and traced, and requires that every report passes its check,
that the traced pass reports exactly the per-layer metrics declared in
BENCHMARK.json, and that a corrupted report fails its check: one dropped
solution (solve), one flipped verdict (decide), one wrong permanent
(signmat), one flipped classification and one moved witness (edge).  It
also checks the benchmark's own oracles against prodvec's reference
implementations on small inputs.  Exits 1 on the first failed claim.
"""

from __future__ import annotations

import itertools
import json
import re
import sys

import run
import numpy as np
from checks import CHECKS, CheckFailure
from oracles import glynn_permanent, top_coefficient_fd


def claim(cond: bool, message: str) -> None:
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        sys.exit(1)


def drop_solution(report: str) -> str:
    """Remove the last solution and keep the counts consistent with the rest."""
    lines = report.splitlines()
    start = max(i for i, line in enumerate(lines) if line.startswith("solution "))
    end = start + 1
    while end < len(lines) and lines[end].startswith("  "):
        end += 1
    del lines[start:end]
    return re.sub(r"^(solutions|distinct_count): (\d+)$",
                  lambda m: f"{m.group(1)}: {int(m.group(2)) - 1}",
                  "\n".join(lines) + "\n", flags=re.M)


def flip_verdict(report: str) -> str:
    kind = re.search(r"^kind: (.*)$", report, re.M).group(1)
    other = "exists-nonzero" if kind == "generically-empty" else "generically-empty"
    return report.replace(f"kind: {kind}", f"kind: {other}")


def wrong_permanent(report: str) -> str:
    return re.sub(r"^permanent: (-?\d+)$", lambda m: f"permanent: {int(m.group(1)) + 2}",
                  report, flags=re.M)


def flip_classification(report: str) -> str:
    swap = {"not-edge": "candidate-edge", "not-applicable": "not-edge"}
    return re.sub(r"^classification: (.*)$", lambda m: f"classification: {swap[m.group(1)]}",
                  report, flags=re.M)


def move_witness(report: str) -> str:
    """Replace the witness's first factor by a fixed unit vector."""
    lines = report.splitlines()
    at = lines.index("witness:") + 1
    d = len(lines[at].split(": ", 1)[1].split())
    lines[at] = "  factor 1: " + " ".join(["1.0+0.0i"] + ["0.0+0.0i"] * (d - 1))
    return "\n".join(lines) + "\n"


CORRUPTIONS = {
    "solve": [("dropped solution", lambda op: op.expect["regime"] == "counted", drop_solution)],
    "decide": [("flipped verdict", lambda op: True, flip_verdict)],
    "signmat": [("wrong permanent", lambda op: op.argv[0] == "permanent", wrong_permanent)],
    "edge": [
        ("flipped classification", lambda op: True, flip_classification),
        ("moved witness", lambda op: op.expect["kind"] == "separable", move_witness),
    ],
}


def one_of_each_kind(ops):
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    return list(first.values())


def main() -> int:
    pv = run.import_program()
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in declared["per_layer"]}

    g = np.random.default_rng(7)
    for n in range(1, 9):
        m = (2 * g.integers(0, 2, size=(n, n)) - 1).tolist()
        claim(glynn_permanent(m) == pv.permanent_naive(pv.sign_matrix(m)),
              f"Glynn permanent equals permanent_naive at n = {n}")
    for dims in [(2, 2, 2), (2, 3), (3, 3), (2, 2, 3)]:
        n_u = sum(d - 1 for d in dims)
        n = len(dims)
        subsets = [s for k in range(n + 1) for s in itertools.combinations(range(1, n + 1), k)]
        for split in [(n_u,), (1, n_u - 1)]:
            for chosen in itertools.combinations(subsets, len(split)):
                cons = list(zip(chosen, split))
                sigma = [[-1 if j + 1 in s else 1 for j in range(n)] for s, _ in cons]
                want = pv.coefficient_direct(sigma, list(split), [d - 1 for d in dims])
                if top_coefficient_fd(dims, cons) != want:
                    claim(False, f"identity disagrees with coefficient_direct on {dims} {cons}")
        claim(True, f"finite-difference identity equals coefficient_direct on {dims}")

    for workload in run.WORKLOADS:
        ops = one_of_each_kind(run.BUILDERS[workload](0))
        with run.work_dir(ops):
            runs = [(idx, *run.run_op(pv.cli, op.argv)) for idx, op in enumerate(ops)]
            traced_runs, metrics, missing = run.traced_pass(pv, workload, ops, 0)
        attempted, failed, reasons, _ = run.judge(workload, pv, ops, runs)
        claim(failed == 0, f"{workload}: {attempted} operations of {len(ops)} kinds pass {reasons}")
        _, failed, reasons, _ = run.judge(workload, pv, ops, traced_runs)
        claim(failed == 0, f"{workload}: traced reports equal the untraced ones {reasons}")
        claim(not missing, f"{workload}: every expected span fired {missing}")
        claim(set(metrics) == layer_names, f"{workload}: traced run gives every per-layer metric")
        idx, rc, text = runs[0]
        _, failed, _, _ = run.judge(workload, pv, ops, [runs[0], (idx, rc, text + " ")])
        claim(failed == 1, f"{workload}: a repeat that differs from the first report fails")
        for label, applies, corrupt in CORRUPTIONS[workload]:
            hits = 0
            for (idx, rc, text), op in zip(runs, ops):
                if not applies(op):
                    continue
                try:
                    CHECKS[workload](op, corrupt(text), pv)
                except CheckFailure:
                    hits += 1
                else:
                    claim(False, f"{workload}: {label} in {op.kind} went unnoticed")
            claim(hits > 0, f"{workload}: {label} fails the check ({hits} reports)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
