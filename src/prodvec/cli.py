"""Command-line front-end.

Commands: verdict, solve, permanent, invariants, classify, equivalent,
edge, survey.  Reports are plain deterministic text on stdout (or --out)
with a leading schema-version line; stochastic commands always echo
their seed.  Exit status: 0 success, 1 domain error (e.g. unsupported
size), 2 parse/usage error.

Problem-instance files are JSON:

    {
      "dims": [2, 2],
      "constraints": [
        {"subset": [2], "codim": 1},
        {"subset": [], "complement_basis": [["0.5+0.5i", "0+0i",
                                             "0+0i", "0.5-0.5i"]]}
      ]
    }

``subset`` lists 1-based party indices to conjugate.  ``codim`` may be
omitted when an explicit ``complement_basis`` (list of vectors over the
full product space, complex literals ``a+bi``) is given; when both are
present they must agree.  Duplicate or complementary subsets are
accepted: ``verdict`` merges them before counting, and ``solve`` takes
them as given, since merging parallel constraints does not move the set
of product vectors that satisfy them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import stat
import sys
from collections.abc import Sequence
from typing import TextIO

import numpy as np

from . import BACKEND, __version__, mpstate, signmat, solvability, solver
from .errors import ParseError, UnsupportedSizeError

SCHEMA = "prodvec-report/10"
# Largest samples * 2^(n-1) Glynn steps one survey runs, checked before any
# draw.  On a 2-CPU Xeon host (one BLAS thread) a step costs 7 to 13 ns
# at n >= 10 and 21 to 33 ns at n <= 2, each chunk tallied by np.unique;
# `prodvec survey` at the limit, start-up included, took 1.6 to 2.3 s at
# n = 1, 1.7 to 2.4 s at n = 2, 0.7 to 1.0 s at n = 10, 0.7 to 1.1 s at
# n = 13 and 0.7 s at n = 16.
SURVEY_MAX_STEPS = 1 << 26

_FLOAT = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^({_FLOAT})({_FLOAT})i$")


def parse_complex(text: str) -> complex:
    """Parse the ``a+bi`` literal form (both parts required, decimal literals)."""
    if not isinstance(text, str):
        raise ParseError(f"invalid complex literal {text!r} (expected a string)")
    m = _COMPLEX_RE.match(text.strip())
    if not m or m.group(2)[0] not in "+-":
        raise ParseError(f"invalid complex literal {text!r} (expected a+bi)")
    return complex(float(m.group(1)), float(m.group(2)))


def format_complex(z: complex) -> str:
    re_s = repr(float(z.real))
    im_s = repr(float(z.imag))
    if not im_s.startswith("-"):
        im_s = "+" + im_s
    return f"{re_s}{im_s}i"


# -- problem-instance files ----------------------------------------------------


def parse_spec_text(
    text: str,
) -> tuple[solvability.ProblemSpec, list[solver.SubspaceConstraint] | None]:
    """Parse an instance document; returns the spec and explicit constraints, if any."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise ParseError("arrays or objects nested too deep") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    if "dims" not in doc:
        raise ParseError("missing field 'dims'")
    dims = doc["dims"]
    if (
        not isinstance(dims, list)
        or not dims
        or not all(type(d) is int and d >= 2 for d in dims)
    ):
        raise ParseError("'dims' must be a list of integers >= 2")
    n = len(dims)
    d_total = math.prod(dims)
    raw = doc.get("constraints")
    if not isinstance(raw, list):
        raise ParseError("'constraints' must be a list")
    constraints = []
    bases: list[np.ndarray | None] = []
    for idx, rec in enumerate(raw):
        where = f"constraints[{idx}]"
        if not isinstance(rec, dict):
            raise ParseError(f"{where} must be an object")
        subset = rec.get("subset", [])
        if not isinstance(subset, list) or not all(type(j) is int for j in subset):
            raise ParseError(f"{where}.subset must be a list of integers")
        for j in subset:
            if not 1 <= j <= n:
                raise ParseError(f"{where}.subset: index {j} outside 1..{n}")
        basis = None
        if "complement_basis" in rec:
            rows = rec["complement_basis"]
            if not isinstance(rows, list):
                raise ParseError(f"{where}.complement_basis must be a list of vectors")
            parsed_rows = []
            for r_idx, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != d_total:
                    raise ParseError(
                        f"{where}.complement_basis[{r_idx}] must be a list of"
                        f" {d_total} complex literals"
                    )
                try:
                    parsed_rows.append([parse_complex(x) for x in row])
                except ParseError as exc:
                    raise ParseError(f"{where}.complement_basis[{r_idx}]: {exc}") from None
            basis = np.array(parsed_rows, dtype=complex).reshape(len(parsed_rows), d_total)
        codim = rec.get("codim")
        if codim is None:
            if basis is None:
                raise ParseError(f"{where}: needs 'codim' or 'complement_basis'")
            codim = basis.shape[0]
        if type(codim) is not int or codim < 0:
            raise ParseError(f"{where}.codim must be a non-negative integer")
        if codim > d_total:
            raise ParseError(f"{where}.codim {codim} outside 0..{d_total}")
        if basis is not None and basis.shape[0] != codim:
            raise ParseError(
                f"{where}: codim {codim} does not match basis rows {basis.shape[0]}"
            )
        constraints.append((subset, codim))
        bases.append(basis)
    spec = solvability.problem_spec(dims, constraints)
    if all(b is None for b in bases):
        return spec, None
    if any(b is None for b in bases):
        raise ParseError("either all constraints or none must carry complement_basis")
    explicit = []
    for c, b in zip(spec.constraints, bases):
        try:
            explicit.append(solver.SubspaceConstraint(c.subset, b))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return spec, explicit


# -- report rendering -----------------------------------------------------------


def _open_out(path: str) -> TextIO:
    """``--out``, opened before the command runs so that an unwritable path
    is refused at once.  Append mode leaves an existing file's bytes as they
    are until ``_emit`` replaces them: a failing command truncates nothing,
    and a command may read its input from the same path.  Only a regular
    file is emptied first; a device or a pipe, such as /dev/stdout, is
    written as it is."""
    try:
        return open(path, "a")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}") from None


def _emit(lines: list[str], out: TextIO | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate(0)
        out.write(text)
        out.close()  # a failed flush closes the file too
    except OSError as exc:
        raise ParseError(f"cannot write {out.name}: {exc.strerror}") from None


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from None


def _unreadable(path: str, exc: OSError | UnicodeDecodeError) -> ParseError:
    reason = f"not {exc.encoding} text" if isinstance(exc, UnicodeDecodeError) else exc.strerror
    return ParseError(f"cannot read {path}: {reason}")


def _subset_str(subset) -> str:
    return "{" + ",".join(str(j) for j in sorted(subset)) + "}"


def _verdict_lines(v: solvability.Verdict) -> list[str]:
    return [
        f"kind: {v.kind}",
        f"basis: {v.basis or '-'}",
        f"generic: {'true' if v.generic else 'false'}",
        f"equations: {v.n_equations}",
        f"unknowns: {v.n_unknowns}",
        f"sigma_rank: {v.sigma_rank}",
        f"top_coefficient: {v.top_coefficient}",
        f"product_vanishes: {'true' if v.product_vanishes else 'false'}",
    ]


def _count_lines(report: solver.SolveReport) -> list[str]:
    return [
        f"seed: {report.seed}",
        f"restarts: {report.restarts_used}",
        f"stopped: {report.stopped}",
        f"distinct_count: {report.distinct_count}",
        f"residual_floor: {float(report.residual_floor)!r}",
        f"solutions: {len(report.solutions)}",
    ]


def _solve_lines(report: solver.SolveReport) -> list[str]:
    lines = _count_lines(report)
    for idx, sol in enumerate(report.solutions):
        lines.append(f"solution {idx}: residual {float(sol.residual)!r}")
        lines.extend(_factor_lines(sol.vector))
    return lines


def _factor_lines(vector: solver.ProductVector) -> list[str]:
    return [
        f"  factor {j + 1}: " + " ".join(format_complex(z) for z in f.tolist())
        for j, f in enumerate(vector.factors)
    ]


def _profile_lines(profile: mpstate.RankProfile) -> list[str]:
    lines = []
    for rec in profile.records:
        lines.append(
            f"subset {_subset_str(rec.subset)}: rank {rec.rank}"
            f" min_eig {rec.min_eigenvalue:.3e}"
            f" cut_gap {rec.gap_below:.3e}/{rec.gap_above:.3e}"
        )
    lines.append(f"sum_of_ranks: {profile.sum_of_ranks}")
    lines.append(f"bound: {profile.bound}")
    return lines


# -- commands ---------------------------------------------------------------------


def _cmd_verdict(args) -> list[str]:
    spec, _ = parse_spec_text(_read(args.spec))
    return ["command: verdict"] + _verdict_lines(solvability.verdict(spec))


def _solver_config(args) -> solver.SolverConfig:
    kwargs = {"seed": args.seed, "restarts": args.restarts}
    if getattr(args, "tol", None) is not None:
        kwargs["accept_threshold"] = args.tol
    return solver.SolverConfig(**kwargs)


def _cmd_solve(args) -> list[str]:
    spec, explicit = parse_spec_text(_read(args.spec))
    lines = ["command: solve"]
    config = _solver_config(args)
    if explicit is None:
        solver.restart_count(spec, config)  # refuse before drawing the instance
        constraints = solver.random_instance(spec, args.seed)
        lines.append("instance: random")
    else:
        constraints = explicit
        lines.append("instance: explicit")
    report = solver.solve(constraints, spec.dims, config)
    return lines + _solve_lines(report)


def _cmd_permanent(args) -> list[str]:
    m = signmat.parse_matrix_text(_read(args.matrix))
    return ["command: permanent", f"permanent: {signmat.permanent(m)}"]


def _cmd_invariants(args) -> list[str]:
    m = signmat.parse_matrix_text(_read(args.matrix))
    p = signmat.invariants(m)
    return [
        "command: invariants",
        f"shape: {m.rows}x{m.cols}",
        f"mu: {p.mu}",
        f"row_minus: {' '.join(map(str, p.row_minus))}",
        f"col_minus: {' '.join(map(str, p.col_minus))}",
        f"pi_r: {p.pi_r}",
        f"pi_c: {p.pi_c}",
        f"rank: {p.rank}",
        f"abs_det: {p.abs_det if p.abs_det is not None else '-'}",
        f"abs_per: {p.abs_per if p.abs_per is not None else '-'}",
        f"row_gram_is_scalar: {'true' if p.row_gram_is_scalar else 'false'}",
    ]


def _cmd_classify(args) -> list[str]:
    classes = signmat.classify_vanishing(args.n, args.mode, args.budget)
    lines = ["command: classify", f"n: {args.n}", f"mode: {args.mode}"]
    for m in classes:
        lines.append("")
        lines.extend(signmat.format_matrix(m).splitlines())
    lines.append("")
    lines.append(f"classes: {len(classes)}")
    return lines


def _cmd_equivalent(args) -> list[str]:
    a = signmat.parse_matrix_text(_read(args.first))
    b = signmat.parse_matrix_text(_read(args.second))
    eq = signmat.equivalent(a, b)
    return ["command: equivalent", f"equivalent: {'true' if eq else 'false'}"]


def _cmd_edge(args) -> list[str]:
    # read_state takes the open file, so a refused header stops the read
    try:
        with open(args.state) as fh:
            rho = mpstate.read_state(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(args.state, exc) from None
    report = mpstate.edge_analysis(
        rho, _solver_config(args), rank_tol=args.rank_tol
    )
    lines = [
        "command: edge",
        f"seed: {solver.stream_seed(args.seed)}",
        f"ppt: {'true' if report.ppt else 'false'}",
        f"classification: {report.classification}",
    ]
    if not report.ppt:
        worst = min(report.min_eigenvalues.values())
        lines.append(f"min_eigenvalue: {worst:.6e}")
        return lines
    lines.extend(_profile_lines(report.profile))
    lines.append(
        f"rank_inequality_satisfied: {'true' if report.inequality_satisfied else 'false'}"
    )
    if report.classification == mpstate.INCONSISTENT:
        lines.append(
            "warning: no compatible product vector found although the rank sum"
            " reaches the bound; treat with suspicion (the verdict is"
            " inconclusive, so the bound is open here)"
        )
    lines.append("decision:")
    lines.extend("  " + s for s in _verdict_lines(report.decision))
    lines.append("numerical:")
    lines.extend("  " + s for s in _count_lines(report.solve_report))
    if report.witness is not None:
        lines.append("witness:")
        lines.extend(_factor_lines(report.witness))
    elif report.classification == mpstate.NOT_EDGE:
        lines.append(f"witness: none; {report.decision.basis} certifies one")
    return lines


def _cmd_survey(args) -> list[str]:
    """Empirical distribution of |permanent| over random sign matrices.

    Exploration plumbing only; no asymptotic claims are made or checked.
    """
    n, samples = args.n, args.samples
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    if n > signmat.MAX_UINT64_N:
        raise UnsupportedSizeError(f"survey supports n <= {signmat.MAX_UINT64_N}")
    if samples < 1:
        raise ValueError("--samples must be positive")
    if samples << (n - 1) > SURVEY_MAX_STEPS:
        raise UnsupportedSizeError(
            f"survey of {samples} samples at n = {n} takes {samples << (n - 1)} kernel"
            f" steps; at most {SURVEY_MAX_STEPS} are supported"
        )
    rng = solver.philox_stream(args.seed, 0)
    hist: dict[int, int] = {}
    chunk = 1 << 12
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        mats = (2 * rng.integers(0, 2, size=(b, n, n)) - 1).astype(np.int8)
        values, counts = np.unique(np.abs(signmat.batch_permanent(mats)), return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
            hist[value] = hist.get(value, 0) + count
        done += b
    lines = [
        "command: survey",
        f"n: {n}",
        f"samples: {samples}",
        f"seed: {solver.stream_seed(args.seed)}",
        f"vanishing_fraction: {hist.get(0, 0) / samples!r}",
        "abs_permanent_histogram:",
    ]
    for value in sorted(hist):
        lines.append(f"  {value}: {hist[value]}")
    return lines


def _rank_tol(text: str) -> float:
    """``edge --tol``: a relative rank cut strictly between 0 and 1."""
    x = float(text)
    if not 0 < x < 1:
        raise argparse.ArgumentTypeError(f"must satisfy 0 < tol < 1, got {text}")
    return x


def _positive_tol(text: str) -> float:
    """``solve --tol``: a finite acceptance threshold above 0."""
    x = float(text)
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return x


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="prodvec",
        description="Product vectors in prescribed subspaces, sign-matrix"
        " permanents, and PPT edge-state analysis",
    )
    parser.add_argument(
        "--version", action="version", version=f"prodvec {__version__} (kernels: {BACKEND})"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", metavar="PATH", help="write the report to PATH instead of stdout")

    p = sub.add_parser("verdict", help="decide solvability of an instance file")
    p.add_argument("spec", help="problem-instance JSON file")
    add_out(p)
    p.set_defaults(func=_cmd_verdict)

    p = sub.add_parser("solve", help="numerically search an instance for product vectors")
    p.add_argument("spec", help="problem-instance JSON file")
    p.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    p.add_argument("--restarts", type=int, default=None, help="most restarts to run (a cap)")
    p.add_argument(
        "--tol", type=_positive_tol, default=None, help="acceptance threshold on the residual"
    )
    add_out(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("permanent", help="exact permanent of a sign-matrix file")
    p.add_argument("matrix", help="matrix file (+/- rows)")
    add_out(p)
    p.set_defaults(func=_cmd_permanent)

    p = sub.add_parser("invariants", help="equivalence invariants of a sign-matrix file")
    p.add_argument("matrix", help="matrix file (+/- rows)")
    add_out(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("classify", help="classify vanishing-permanent matrices")
    p.add_argument("--n", type=int, required=True, help="matrix size")
    p.add_argument(
        "--mode",
        choices=["exhaustive", "normalized-search"],
        default="exhaustive",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="normalized-search: stop after this many vanishing matrices",
    )
    add_out(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("equivalent", help="decide equivalence of two sign-matrix files")
    p.add_argument("first")
    p.add_argument("second")
    add_out(p)
    p.set_defaults(func=_cmd_equivalent)

    p = sub.add_parser("edge", help="edge-state analysis of a density-matrix file")
    p.add_argument("state", help="density-matrix file")
    p.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    p.add_argument("--restarts", type=int, default=None, help="most restarts to run (a cap)")
    p.add_argument("--tol", dest="rank_tol", type=_rank_tol, default=mpstate.DEFAULT_RANK_TOL,
                   help="relative rank tolerance, 0 < tol < 1 (default %(default)g)")
    add_out(p)
    p.set_defaults(func=_cmd_edge)

    p = sub.add_parser("survey", help="sample random sign matrices and tabulate |permanent|")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(func=_cmd_survey)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _open_out(args.out) if args.out else contextlib.nullcontext() as out:
            _emit([f"schema: {SCHEMA}"] + args.func(args), out)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, UnsupportedSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
