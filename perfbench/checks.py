"""Correctness checks on CLI reports, run after each operation's timer stops.

Every check raises ``CheckFailure`` with a reason.  The oracles are the
benchmark's own (oracles.py), except for prodvec's public reference
functions ``permanent_naive`` and ``coefficient_direct``, and
``random_instance`` and ``residual``, which rebuild a solve instance from
its seed and measure a solution against it.
"""

from __future__ import annotations

import re

import numpy as np

from oracles import (
    canonical_subset,
    glynn_permanent,
    merge_parallel,
    partial_transpose,
    top_coefficient_fd,
)

_FLOAT = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX = re.compile(rf"^({_FLOAT})({_FLOAT})i$")


class CheckFailure(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def fields(report: str) -> dict[str, str]:
    """First occurrence of every unindented ``key: value`` line."""
    out: dict[str, str] = {}
    for line in report.splitlines():
        if line and not line[0].isspace() and ": " in line:
            key, value = line.split(": ", 1)
            out.setdefault(key, value)
    return out


def _field(f: dict[str, str], key: str) -> str:
    require(key in f, f"report lacks '{key}'")
    return f[key]


def _complex_vector(text: str) -> np.ndarray:
    vals = []
    for tok in text.split():
        m = _COMPLEX.match(tok)
        require(m is not None, f"bad complex literal {tok!r}")
        vals.append(complex(float(m.group(1)), float(m.group(2))))
    return np.array(vals)


def _factor_blocks(report: str, header: str) -> list[list[np.ndarray]]:
    """Factor lists under each line starting with ``header``."""
    blocks: list[list[np.ndarray]] = []
    current = None
    for line in report.splitlines():
        stripped = line.strip()
        if line.startswith(header):
            current = []
            blocks.append(current)
        elif current is not None and stripped.startswith("factor "):
            current.append(_complex_vector(stripped.split(": ", 1)[1]))
        elif current is not None and not line.startswith(" "):
            current = None
    return blocks


# -- per-workload checks ------------------------------------------------------------


def check_solve(op, report: str, pv) -> None:
    f = fields(report)
    e = op.expect
    require(_field(f, "command") == "solve", "wrong command")
    require(_field(f, "instance") == "random", "instance not drawn from the seed")
    require(int(_field(f, "seed")) == e["seed"], "seed not echoed")
    sols = _factor_blocks(report, "solution ")
    require(int(_field(f, "solutions")) == len(sols), "solution count mismatch")
    require(int(_field(f, "distinct_count")) == len(sols), "distinct_count mismatch")
    spec = pv.problem_spec(e["dims"], e["constraints"])
    instance = pv.random_instance(spec, e["seed"])
    for factors in sols:
        require(len(factors) == len(e["dims"]), "wrong number of factors")
        res = pv.residual(pv.product_vector(factors), instance)
        require(res < 1e-10, f"solution residual {res:.3e} >= 1e-10")
    if e["regime"] == "counted":
        require(len(sols) == e["count"], f"{len(sols)} solutions, generic count {e['count']}")
    elif e["regime"] == "mixed":
        require(len(sols) >= 1, "critical mixed instance without a solution")
    else:
        require(not sols, "overdetermined instance with a solution")


def check_verdict(op, report: str, pv) -> None:
    f = fields(report)
    dims = op.expect["dims"]
    red = merge_parallel(dims, op.expect["constraints"])
    n_e = sum(k for _, k in red)
    n_u = sum(d - 1 for d in dims)
    require(_field(f, "command") == "verdict", "wrong command")
    require(int(_field(f, "equations")) == n_e, "equation count")
    require(int(_field(f, "unknowns")) == n_u, "unknown count")
    top = top_coefficient_fd(dims, red)
    if n_e == n_u and n_u <= 6:
        sigma = [[-1 if j + 1 in s else 1 for j in range(len(dims))] for s, _ in red]
        direct = pv.coefficient_direct(sigma, [k for _, k in red], [d - 1 for d in dims])
        require(direct == top, "coefficient_direct disagrees with the identity")
    require(int(_field(f, "top_coefficient")) == top,
            f"top_coefficient {f['top_coefficient']} != oracle {top}")
    sigma = np.array([[-1 if j + 1 in s else 1 for j in range(len(dims))] for s, _ in red])
    require(int(_field(f, "sigma_rank")) == np.linalg.matrix_rank(sigma), "sigma_rank")
    kind, basis = _field(f, "kind"), _field(f, "basis")
    if n_e > n_u:
        require(kind == "generically-empty", f"overdetermined spec gave {kind}")
    elif n_e == n_u and top:
        require(kind == "exists-nonzero" and basis == "critical-top-coefficient",
                f"nonzero top coefficient but {kind}/{basis}")
        require(_field(f, "product_vanishes") == "false", "product_vanishes with top != 0")
    else:
        require(kind in ("exists-nonzero", "infinitely-many", "inconclusive"),
                f"unexpected kind {kind}")
        require(basis not in ("critical-top-coefficient", "overdetermined-generic"),
                f"basis {basis} does not fit the counts")


def _matrices(report: str) -> list[np.ndarray]:
    blocks, cur = [], []
    for line in report.splitlines() + [""]:
        if line and set(line) <= {"+", "-"}:
            cur.append([1 if c == "+" else -1 for c in line])
        elif cur:
            blocks.append(np.array(cur))
            cur = []
    return blocks


def check_signmat(op, report: str, pv) -> None:
    f = fields(report)
    e = op.expect
    cmd = op.argv[0]
    require(_field(f, "command") == cmd, "wrong command")
    if cmd == "permanent":
        m = e["matrix"]
        if m.shape[0] <= 9:
            want = pv.permanent_naive(pv.sign_matrix(m.tolist()))
        else:
            want = glynn_permanent(m)
        require(int(_field(f, "permanent")) == want, "wrong permanent")
    elif cmd == "invariants":
        m = e["matrix"]
        n = m.shape[0]
        minus = m < 0
        rows = minus.sum(axis=1).tolist()
        cols = minus.sum(axis=0).tolist()
        require(_field(f, "shape") == f"{n}x{n}", "shape")
        require(int(_field(f, "mu")) == int(minus.sum()), "mu")
        require(_field(f, "row_minus") == " ".join(map(str, rows)), "row_minus")
        require(_field(f, "col_minus") == " ".join(map(str, cols)), "col_minus")
        par = lambda c: sum(1 if x % 2 == 0 else -1 for x in c)  # noqa: E731
        require(int(_field(f, "pi_r")) == par(rows) and int(_field(f, "pi_c")) == par(cols),
                "parity differences")
        require(int(_field(f, "rank")) == np.linalg.matrix_rank(m), "rank")
        require(int(_field(f, "abs_det")) == round(abs(np.linalg.det(m))), "abs_det")
        require(int(_field(f, "abs_per")) == abs(glynn_permanent(m)), "abs_per")
        gram = m @ m.T
        scalar = bool(np.array_equal(gram, n * np.eye(n, dtype=gram.dtype)))
        require(_field(f, "row_gram_is_scalar") == ("true" if scalar else "false"), "gram")
    elif cmd == "equivalent":
        want = "true" if e["same"] else "false"
        require(_field(f, "equivalent") == want, f"equivalent should be {want}")
    elif cmd == "classify":
        mats = _matrices(report)
        k = int(_field(f, "classes"))
        require(k == len(mats), "class count does not match the listed matrices")
        if e["mode"] == "exhaustive":
            want = {3: 0, 4: 5}[e["n"]]
            require(k == want, f"n = {e['n']} gave {k} classes, expected {want}")
        else:
            require(1 <= k <= e["budget"], f"{k} classes for budget {e['budget']}")
        for mat in mats:
            require(mat.shape == (e["n"], e["n"]), "representative of the wrong size")
            require(glynn_permanent(mat) == 0, "representative with nonzero permanent")
    else:
        n, samples = e["n"], e["samples"]
        hist = {}
        for line in report.splitlines():
            if line.startswith("  "):
                value, count = line.split(":")
                hist[int(value)] = int(count)
        require(sum(hist.values()) == samples, "histogram does not sum to the samples")
        require(float(_field(f, "vanishing_fraction")) == hist.get(0, 0) / samples,
                "vanishing_fraction")
        # per(A) of an n x n sign matrix is divisible by 2^(n - floor(log2 n) - 1)
        unit = 1 << (n - n.bit_length())
        require(all(v % unit == 0 for v in hist), "histogram value with wrong 2-adic order")


def check_edge(op, report: str, pv) -> None:
    f = fields(report)
    e = op.expect
    require(_field(f, "command") == "edge", "wrong command")
    if e["kind"] == "npt":
        require(_field(f, "ppt") == "false", "NPT state reported PPT")
        require(_field(f, "classification") == "not-applicable", "NPT state not not-applicable")
        require(float(_field(f, "min_eigenvalue")) < 0, "NPT min eigenvalue not negative")
        return
    require(_field(f, "ppt") == "true", "PPT state reported NPT")
    require(_field(f, "classification") == "not-edge", f"{e['kind']} state not not-edge")
    witness = _factor_blocks(report, "witness:")
    require(len(witness) == 1 and len(witness[0]) == len(e["dims"]), "missing witness")
    dims, mat, factors = e["dims"], e["matrix"], witness[0]
    n = len(dims)
    for mask in range(1 << (n - 1)):
        subset = canonical_subset(n, mask)
        w, v = np.linalg.eigh(partial_transpose(mat, dims, subset))
        kernel = v[:, np.abs(w) <= 1e-9 * np.abs(w).max()]
        psi = np.ones(1, dtype=complex)
        for j, fac in enumerate(factors):
            psi = np.kron(psi, fac.conj() if j + 1 in subset else fac)
        off = np.linalg.norm(kernel.conj().T @ psi) / np.linalg.norm(psi)
        require(off < 1e-6, f"witness leaves the range of the transpose over {subset}")


CHECKS = {
    "solve": check_solve,
    "decide": check_verdict,
    "signmat": check_signmat,
    "edge": check_edge,
}
