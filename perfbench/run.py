#!/usr/bin/env python3
"""Benchmark of the ``prodvec`` command, end to end and per layer.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N [--seconds S] [--trace 0|1]

WORKLOAD is solve, decide, signmat or edge; ``all`` runs the four one after
another, each in its own process.  prodvec is imported from ``src/`` of the
source tree that holds this directory.

Every operation is one CLI command, ``prodvec.cli.main(argv)`` called in
this process on input files generated from ``--seed`` (workloads.py).
That is the path of the ``prodvec`` command minus interpreter start-up,
which is measured on its own as ``setup_s``.  Load is closed-loop: one
caller, one operation at a time, no extra threads.

A run cycles through the seed's pool of operations in whole passes, as
many as fit in ``--seconds`` and at least 100 operations.  Every
report of the first pass is checked (checks.py) after the timed region;
later passes must reproduce those reports byte for byte.  An operation
that raises, exits non-zero or fails its check counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass,
each operation once untraced and once with spans around the public API
(trace.py), and prints the per-layer metrics; their counts depend only on
the seed.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it records the environment and digests of the inputs and of the reports.
"""

from __future__ import annotations

import os

# BLAS runs on one thread, set before numpy is imported.  With two
# OpenBLAS threads on a shared 2-CPU machine, the small eigh calls of
# range_complement ran 15 to 40 times slower whenever another process
# held the second CPU, which made every edge figure depend on neighbours.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from checks import CHECKS, CheckFailure  # noqa: E402
from trace import EXPECTED, Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("solve", "decide", "signmat", "edge")
BUILDERS = {
    "solve": workloads.build_solve,
    "decide": workloads.build_decide,
    "signmat": workloads.build_signmat,
    "edge": workloads.build_edge,
}
MIN_OPS = 100  # so that ten samples lie beyond the p90
MAX_MEASURE_S = 100.0
SETUP_SPAWNS = 7
REFERENCE_S = 1e-3
_REFERENCE_MATRIX = np.add.outer(np.arange(24.0), np.arange(24.0)) % 7.0
KERNEL_METRICS = (
    "signmat.kernel.permanent_12x12_ms",
    "signmat.kernel.batch_permanent_20000x8x8_ms",
    "signmat.kernel.sweep_n4_ms",
    "signmat.kernel.sweep_n5_normalized_ms",
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "prodvec" / "__init__.py").is_file():
        fail(f"no prodvec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import prodvec
    import prodvec.cli

    if Path(prodvec.__file__).resolve().parent != (SRC / "prodvec").resolve():
        fail(f"imported prodvec from {prodvec.__file__}, not from {SRC}")
    return prodvec


def environment(pv) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "backend": pv.BACKEND,
        "prodvec_pure": bool(os.environ.get("PRODVEC_PURE")),
    }


@contextlib.contextmanager
def work_dir(ops):
    """A fresh directory inside the source tree holding the operations'
    input files, made the current directory for the duration."""
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    here = os.getcwd()
    try:
        for op in ops:
            for name, text in op.files.items():
                (work / name).write_text(text)
        os.chdir(work)
        yield work
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)


def reference_time() -> float:
    """Wall time of a fixed routine that does not touch prodvec: tuple-keyed
    dict updates and small symmetric eigendecompositions, the two kinds of
    work that dominate the program."""
    t0 = time.perf_counter()
    acc: dict[tuple[int, int, int], int] = {}
    for a in range(40):
        for b in range(40):
            key = (a, b, a ^ b)
            acc[key] = acc.get(key, 0) + a * b
    for _ in range(3):
        np.linalg.eigh(_REFERENCE_MATRIX)
    return time.perf_counter() - t0


class ReferenceClock:
    """Times calls in wall seconds and in seconds at reference speed.

    On a shared 2-CPU virtual machine the speed of one process swung by up
    to 1.7x within seconds as other tenants came and went, so raw wall
    times of identical runs spread by 20-35% between runs.  The clock times ``reference_time`` before and after every call
    and scales the call's wall time by REFERENCE_S over the mean of the two:
    the result is the call's time on a machine on which the reference
    routine takes REFERENCE_S.  A change to prodvec moves scaled times as
    it moves wall times; a change of machine state moves both the call and
    the reference, and cancels.
    """

    def __init__(self):
        self.last = reference_time()
        self.references: list[float] = []

    def time(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        ref = reference_time()
        mean_ref = (self.last + ref) / 2
        self.last = ref
        self.references.append(mean_ref)
        return out, wall, wall * REFERENCE_S / mean_ref


def measure_setup(clock) -> tuple[float, float]:
    """Median time, scaled and wall, for a fresh interpreter to import the
    CLI and build its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import prodvec.cli as c; c.build_parser()"]
    spawn = functools.partial(subprocess.run, cmd, env=env, cwd=ROOT, check=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    spawn()  # warms the file cache
    times = [clock.time(spawn)[1:] for _ in range(SETUP_SPAWNS)]
    return statistics.median(s for _, s in times), statistics.median(w for w, _ in times)


def run_op(cli, argv) -> tuple[int, str]:
    """Exit status and report (or error text) of ``prodvec <argv>``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an operation that raises counts as failed
            return -1, traceback.format_exc()
    return rc, out.getvalue() if rc == 0 else err.getvalue()


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode())
        h.update(b"\0")
    return h.hexdigest()


def inputs_digest(ops) -> str:
    return digest(
        [json.dumps([op.kind, op.argv]) for op in ops]
        + [f"{name}\0{text}" for op in ops for name, text in sorted(op.files.items())]
    )


def judge(workload, pv, ops, runs) -> tuple[int, int, list[str], str]:
    """Check every operation run; ``runs`` holds (pool index, status, report).

    The first report of each input is checked in full; every later run of
    that input must reproduce it byte for byte.  Returns (attempted,
    failed, reasons, digest of the first reports).
    """
    first: dict[int, tuple[int, str]] = {}
    for idx, rc, text in runs:
        first.setdefault(idx, (rc, text))
    bad: dict[int, str] = {}
    for idx, (rc, text) in first.items():
        if rc != 0:
            bad[idx] = f"exit status {rc}: {text.strip()[-300:]}"
            continue
        try:
            CHECKS[workload](ops[idx], text, pv)
        except CheckFailure as exc:
            bad[idx] = str(exc)
    failed = 0
    reasons = []
    for idx, rc, text in runs:
        reason = bad.get(idx)
        if reason is None and (rc, text) != first[idx]:
            reason = "report differs from an earlier run of the same input"
        if reason is not None:
            failed += 1
            if len(reasons) < 10:
                reasons.append(f"{ops[idx].kind} [{' '.join(ops[idx].argv)}]: {reason}")
    reports = digest(f"{rc}\0{text}" for _, (rc, text) in sorted(first.items()))
    return len(runs), failed, reasons, reports


def measure(clock, cli, ops, seconds):
    """Whole passes over ``ops``: as many as fit in ``seconds`` at the speed
    of the first, and at least MIN_OPS operations.  Returns the runs, the
    wall and the scaled time of each operation, and the peak RSS in MB."""
    runs, wall, scaled = [], [], []
    t_begin = time.perf_counter()
    passes = done = 1
    while done <= passes:
        for idx, op in enumerate(ops):
            (rc, text), w, s = clock.time(run_op, cli, op.argv)
            runs.append((idx, rc, text))
            wall.append(w)
            scaled.append(s)
        if done == 1:
            one = time.perf_counter() - t_begin
            passes = max(int(seconds / one), math.ceil(MIN_OPS / len(ops)))
            passes = max(1, min(passes, int(MAX_MEASURE_S / one)))
        done += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return runs, wall, scaled, peak_mb


def latency_metrics(times, setup) -> dict[str, float]:
    return {
        "setup_s": setup,
        "ops_per_s": len(times) / sum(times),
        "latency_p50_ms": 1e3 * statistics.median(times),
        "latency_p90_ms": 1e3 * statistics.quantiles(times, n=10, method="inclusive")[8],
    }


def kernel_timings(pv, tracer, seed) -> dict[str, float]:
    """The four timings of benchmarks/bench_kernels.py, taken through the
    public API so that they survive a change of kernel backend: one 12x12
    permanent, a survey of 20000 8x8 matrices (batched permanents), and
    the self time of the exhaustive n = 4 and normalized n = 5 sweeps."""
    g = np.random.default_rng([seed, 12])
    m12 = pv.sign_matrix((2 * g.integers(0, 2, size=(12, 12)) - 1).tolist())
    per_call = []
    for _ in range(5):
        t0 = time.perf_counter()
        pv.permanent(m12)
        per_call.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    rc, text = run_op(pv.cli, ["survey", "--n", "8", "--samples", "20000", "--seed", str(seed)])
    survey = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"survey failed: {text}")
    start = len(tracer.spans)
    tracer.install()
    try:
        pv.classify_vanishing(4, "exhaustive")
        pv.classify_vanishing(5, "normalized-search", 1)
    finally:
        tracer.remove()
    sweeps = [s for s in tracer.spans[start:] if s.label == "signmat.classify_vanishing"]
    del tracer.spans[start:]
    values = (statistics.median(per_call), survey, sweeps[0].self_time, sweeps[1].self_time)
    return {name: 1e3 * v for name, v in zip(KERNEL_METRICS, values)}


def traced_pass(pv, workload, ops, seed):
    """One pass, each operation untraced and traced, in alternating order.

    Returns the runs (both reports of every operation), the per-layer
    metrics and the expected spans that never fired."""
    tracer = Tracer(pv)
    runs, spent = [], {False: 0.0, True: 0.0}
    for idx, op in enumerate(ops):
        tracer.op = idx
        for traced in ((False, True) if idx % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                rc, text = run_op(pv.cli, op.argv)
            finally:
                spent[traced] += time.perf_counter() - t0
                tracer.remove()
            runs.append((idx, rc, text))  # tracing must not change the report
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = spent[True] / spent[False] - 1.0
    if workload == "signmat":
        metrics.update(kernel_timings(pv, tracer, seed))
    else:
        metrics.update(dict.fromkeys(KERNEL_METRICS, 0.0))
    missing = [label for label in EXPECTED[workload] if label not in tracer.fired()]
    return runs, metrics, missing


def run_workload(args) -> int:
    pv = import_program()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    ops = BUILDERS[args.workload](args.seed)
    missing = []
    wall_metrics = {}
    with work_dir(ops):
        if args.trace:
            runs, metrics, missing = traced_pass(pv, args.workload, ops, args.seed)
        else:
            clock = ReferenceClock()
            setup, setup_wall = measure_setup(clock)
            runs, wall, scaled, peak_mb = measure(clock, pv.cli, ops, args.seconds)
            metrics = latency_metrics(scaled, setup)
            metrics["peak_rss_mb"] = peak_mb
            wall_metrics = latency_metrics(wall, setup_wall)
            wall_metrics["reference_ms"] = 1e3 * statistics.median(clock.references)
        attempted, failed, reasons, reports = judge(args.workload, pv, ops, runs)
    if set(units) != set(metrics):
        fail(f"metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json")
    reasons += [f"expected span never fired: {label}" for label in missing]
    for name, value in metrics.items():
        print(f"{args.workload:8s} {name:44s} {value:14.6g} {units[name]}")
    print(f"{args.workload:8s} {'failed_frac':44s} {failed / attempted:14.6g} fraction")
    for reason in reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"perfbench": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(pv),
        "inputs_sha256": inputs_digest(ops),
        "reports_sha256": reports,
        "pool": len(ops),
        "wall_clock": wall_metrics,
        "failed_frac": failed / attempted,
        "failures": reasons,
    }}))
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]), flush=True)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
