"""Seeded inputs for the four workloads.

Each builder returns the operations of one *pass*: a fixed menu of
operation classes whose random content (subsets, subspaces, matrices,
states) is drawn from the seed.  The menu is what keeps runs on different
seeds comparable: the seed changes the instances, never the mix of sizes.

An operation is one ``prodvec`` command line plus the input files it reads
and the facts its check needs.  Nothing here calls into prodvec; the
program only ever sees the generated files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

from oracles import canonical_subset, glynn_permanent, partial_transpose

# Largest state dimension prod(dims) a generated state file may declare.
# read_state allocates d x d complex entries from the header before it
# reads any line, so the generator refuses anything larger.
MAX_STATE_DIM = 64
# Largest n for which a generated command canonicalizes n x n matrices.
MAX_CANONICAL_N = 5


@dataclass
class Op:
    """One CLI invocation: ``prodvec <argv>`` run in the work directory,
    the input files it reads, and the facts its check needs."""

    kind: str
    argv: list[str]
    files: dict[str, str]
    expect: dict


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _np_rng(r: random.Random) -> np.random.Generator:
    return np.random.default_rng(r.getrandbits(64))


def _spec_text(dims, constraints) -> str:
    doc = {
        "dims": list(dims),
        "constraints": [{"subset": list(s), "codim": k} for s, k in constraints],
    }
    return json.dumps(doc, indent=2) + "\n"


def _subset(r: random.Random, n: int) -> tuple[int, ...]:
    return tuple(j for j in range(1, n + 1) if r.random() < 0.5)


def _complement(s, n: int) -> tuple[int, ...]:
    return tuple(j for j in range(1, n + 1) if j not in s)


# -- solve ----------------------------------------------------------------------

# (label, dims, codimension total, regime, restarts, copies per pass).
# "counted": one constraint whose subset is empty or full, so the generic
# solution count is the multinomial N_U! / prod (d_j - 1)!.
# "mixed": three codim-1 constraints on (2,2,2), at least one subset
# proper; the verdict is exists-nonzero.  "over": two codim-2 constraints
# on (2,2,2), generically empty.  Restarts leave at least twice the
# margin the solver needed: the last new solution came by restart 12 for
# (2,2) and 20 for (2,3) on 750 instances each, by 56 for (3,3) and 65
# for (2,2,2) on 4000 instances each; on 300 mixed instances the first
# solution came by restart 12.  The cost of a mixed or overdetermined
# instance varies by 3x with the seed, that of a counted one by 10%, so
# as many operations cost less than the (3,3) class as cost more: the
# median then falls among the (3,3) operations and stays put across seeds.
SOLVE_MENU = [
    ("count-2x2", (2, 2), 2, "counted", 30, 6),
    ("count-2x3", (2, 3), 3, "counted", 40, 6),
    ("over-2x2x2", (2, 2, 2), 4, "over", 8, 6),
    ("count-3x3", (3, 3), 4, "counted", 120, 14),
    ("count-2x2x2", (2, 2, 2), 3, "counted", 120, 8),
    ("mixed-2x2x2", (2, 2, 2), 3, "mixed", 40, 10),
]


def _solve_constraints(r: random.Random, dims, total: int, regime: str):
    n = len(dims)
    full = tuple(range(1, n + 1))
    if regime == "counted":
        return [(r.choice([(), full]), total)]
    if regime == "over":
        return [(_subset(r, n), 2), (_subset(r, n), 2)]
    while True:
        subsets = [_subset(r, n) for _ in range(total)]
        if any(s not in ((), full) for s in subsets):
            return [(s, 1) for s in subsets]


def build_solve(seed: int) -> list[Op]:
    r = _rng("solve", seed)
    ops = []
    for label, dims, total, regime, restarts, copies in SOLVE_MENU:
        for _ in range(copies):
            name = f"spec{len(ops):03d}.json"
            cons = _solve_constraints(r, dims, total, regime)
            inst_seed = r.getrandbits(32)
            count = None
            if regime == "counted":
                count = math.factorial(total)
                for d in dims:
                    count //= math.factorial(d - 1)
            ops.append(
                Op(
                    f"solve:{label}",
                    ["solve", name, "--seed", str(inst_seed), "--restarts", str(restarts)],
                    {name: _spec_text(dims, cons)},
                    {"dims": dims, "constraints": cons, "seed": inst_seed,
                     "regime": regime, "count": count},
                )
            )
    return ops


# -- decide ---------------------------------------------------------------------

# (dims, codims, parallel, copies per pass).  The last ``parallel``
# constraints repeat an earlier subset or its complement, so reduce()
# has pairs to merge; the other subsets are pairwise non-parallel.
# Critical specs have sum(codims) = N_U, under-determined fewer,
# overdetermined more.  A fixed codimension profile keeps the cost of
# one expansion within about 10% across seeds; the seed picks subsets.
DECIDE_MENU = [
    ((2,) * 5, (2, 3), 0, 3),
    ((2,) * 5, (1, 1, 1, 1, 1, 1), 1, 3),
    ((2,) * 5, (1, 1, 1), 0, 3),
    ((2,) * 6, (2, 2, 2), 0, 3),
    ((2,) * 6, (1, 1, 1, 1, 1, 1, 1), 2, 3),
    ((2,) * 6, (1, 1, 1, 1), 1, 3),
    ((3,) * 5, (3, 3, 4), 0, 3),
    ((3,) * 5, (2, 2, 2, 2, 1, 1), 2, 3),
    ((3,) * 5, (4, 4), 0, 2),
    ((3,) * 5, (4, 4, 4), 1, 2),
    ((3,) * 6, (3, 3, 3, 3), 0, 3),
    ((3,) * 6, (3, 3, 3), 1, 2),
    ((4,) * 5, (3, 3, 3, 3, 3), 0, 3),
    ((4,) * 5, (4, 4, 4), 0, 1),
    ((5,) * 5, (7, 7, 6), 0, 6),
    ((4,) * 6, (6, 6, 6), 0, 1),
    ((4,) * 6, (7, 7, 7), 0, 1),
    ((6,) * 5, (9, 8, 8), 0, 1),
]


def _decide_constraints(r: random.Random, n: int, codims, parallel: int):
    base = len(codims) - parallel
    subsets: list[tuple[int, ...]] = []
    keys = set()
    while len(subsets) < base:
        s = _subset(r, n)
        key = min(s, _complement(s, n))
        if key not in keys:
            keys.add(key)
            subsets.append(s)
    for _ in range(parallel):
        s = r.choice(subsets[:base])
        subsets.append(s if r.random() < 0.5 else _complement(s, n))
    cons = list(zip(subsets, codims))
    r.shuffle(cons)
    return cons


def build_decide(seed: int) -> list[Op]:
    r = _rng("decide", seed)
    ops = []
    for dims, codims, parallel, copies in DECIDE_MENU:
        for _ in range(copies):
            name = f"spec{len(ops):03d}.json"
            cons = _decide_constraints(r, len(dims), codims, parallel)
            ops.append(
                Op(
                    f"verdict:{dims[0]}^{len(dims)}/{sum(codims)}",
                    ["verdict", name],
                    {name: _spec_text(dims, cons)},
                    {"dims": dims, "constraints": cons},
                )
            )
    return ops


# -- signmat --------------------------------------------------------------------


def _sign_text(m: np.ndarray) -> str:
    return "\n".join("".join("+" if x > 0 else "-" for x in row) for row in m) + "\n"


def _random_sign(g: np.random.Generator, n: int) -> np.ndarray:
    return (2 * g.integers(0, 2, size=(n, n)) - 1).astype(np.int64)


def _scramble(g: np.random.Generator, m: np.ndarray) -> np.ndarray:
    """Apply random row/column permutations and negations."""
    n = m.shape[0]
    out = m[g.permutation(n)][:, g.permutation(n)]
    out = out * (2 * g.integers(0, 2, size=(n, 1)) - 1)
    return out * (2 * g.integers(0, 2, size=(1, n)) - 1)


# Classes per pass: permanent at every n from 6 to 14 (straddling the
# int64 limit at 13), invariants, equivalence of 4x4 and 5x5 pairs,
# classification (exhaustive n = 3, 4; normalized n = 5 with a budget),
# and survey.
PERMANENT_NS = tuple(range(6, 15)) * 2
INVARIANT_NS = (4, 6, 8, 10, 12, 13) * 2
EQUIVALENT_NS = (4, 5) * 8
SURVEYS = ((6, 2000), (8, 1000), (10, 500)) * 2
CLASSIFY = (
    (3, "exhaustive", None),
    (4, "exhaustive", None),
    (4, "exhaustive", None),
    (5, "normalized-search", 2),
    (5, "normalized-search", 3),
)


def build_signmat(seed: int) -> list[Op]:
    r = _rng("signmat", seed)
    g = _np_rng(r)
    ops = []

    def add(kind, argv, files=None, **expect):
        ops.append(Op(kind, argv, files or {}, expect))

    for n in PERMANENT_NS:
        m = _random_sign(g, n)
        name = f"m{len(ops):03d}.txt"
        add(f"permanent:{n}", ["permanent", name], {name: _sign_text(m)}, matrix=m)
    for n in INVARIANT_NS:
        m = _random_sign(g, n)
        name = f"m{len(ops):03d}.txt"
        add(f"invariants:{n}", ["invariants", name], {name: _sign_text(m)}, matrix=m)
    for idx, n in enumerate(EQUIVALENT_NS):
        a = _random_sign(g, n)
        same = idx % 4 < 2
        if same:
            b = _scramble(g, a)
        else:
            b = _random_sign(g, n)
            while abs(glynn_permanent(b)) == abs(glynn_permanent(a)):
                b = _random_sign(g, n)
        na, nb = f"m{len(ops):03d}a.txt", f"m{len(ops):03d}b.txt"
        add(f"equivalent:{n}", ["equivalent", na, nb],
            {na: _sign_text(a), nb: _sign_text(b)}, same=same)
    for n, mode, budget in CLASSIFY:
        if n > MAX_CANONICAL_N:
            raise ValueError(f"classify --n {n} is beyond the benchmark's bound")
        argv = ["classify", "--n", str(n), "--mode", mode]
        if mode == "normalized-search":
            # without a budget n = 5 canonicalizes every vanishing matrix
            argv += ["--budget", str(budget)]
        add(f"classify:{n}:{mode}", argv, n=n, mode=mode, budget=budget)
    for n, samples in SURVEYS:
        s = r.getrandbits(32)
        add(f"survey:{n}", ["survey", "--n", str(n), "--samples", str(samples),
                            "--seed", str(s)], n=n, samples=samples)
    return ops


# -- edge -----------------------------------------------------------------------


def _state_text(dims, mat: np.ndarray) -> str:
    d = mat.shape[0]
    if d > MAX_STATE_DIM:
        raise ValueError(f"state dimension {d} above the benchmark's bound {MAX_STATE_DIM}")
    lines = ["dims: " + " ".join(map(str, dims))]
    for i in range(d):
        for j in range(d):
            z = mat[i, j]
            lines.append(f"{i} {j} {float(z.real)!r} {float(z.imag)!r}")
    return "\n".join(lines) + "\n"


def _unit(g: np.random.Generator, d: int) -> np.ndarray:
    v = g.standard_normal(d) + 1j * g.standard_normal(d)
    return v / np.linalg.norm(v)


def _hermitian_trace_one(m: np.ndarray) -> np.ndarray:
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def _min_pt_eigenvalue(mat: np.ndarray, dims) -> float:
    n = len(dims)
    return min(
        np.linalg.eigvalsh(partial_transpose(mat, dims, canonical_subset(n, mask)))[0]
        for mask in range(1 << (n - 1))
    )


def _separable(g, dims, k):
    mat = 0
    w = g.random(k) + 0.5
    for wi in w / w.sum():
        v = np.ones(1, dtype=complex)
        for d in dims:
            v = np.kron(v, _unit(g, d))
        mat = mat + wi * np.outer(v, v.conj())
    return _hermitian_trace_one(mat)


def _full_rank_ppt(g, dims):
    """(1-p) I/d + p sigma with p/(1-p) = 1/d: PPT by construction, full rank."""
    d = math.prod(dims)
    a = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    sigma = _hermitian_trace_one(a @ a.conj().T)
    p = 1.0 / (d + 1)
    return _hermitian_trace_one((1 - p) * np.eye(d) / d + p * sigma)


def _npt(g, dims):
    """A random pure state with a little white noise, resampled until
    some partial transpose has an eigenvalue below -1e-3."""
    d = math.prod(dims)
    while True:
        v = _unit(g, d)
        mat = _hermitian_trace_one(0.9 * np.outer(v, v.conj()) + 0.1 * np.eye(d) / d)
        if _min_pt_eigenvalue(mat, dims) < -1e-3:
            return mat


# (kind, dims, rank for separable states, restarts, copies per pass)
EDGE_MENU = [
    ("separable", (2, 2, 2), 4, 40, 5),
    ("separable", (2, 2, 2), 3, 40, 5),
    ("separable", (2, 2, 3), 5, 40, 4),
    ("separable", (2, 3), 3, 40, 4),
    ("full-rank-ppt", (2, 2, 2, 2), None, 40, 6),
    ("full-rank-ppt", (3, 3, 3), None, 40, 6),
    ("full-rank-ppt", (2, 2, 2, 2, 2), None, 40, 2),
    ("npt", (2, 2), None, 40, 4),
    ("npt", (2, 2, 2), None, 40, 4),
    ("npt", (3, 3), None, 40, 4),
]


def build_edge(seed: int) -> list[Op]:
    r = _rng("edge", seed)
    g = _np_rng(r)
    ops = []
    for kind, dims, rank, restarts, copies in EDGE_MENU:
        for _ in range(copies):
            if kind == "separable":
                mat = _separable(g, dims, rank)
            elif kind == "full-rank-ppt":
                mat = _full_rank_ppt(g, dims)
            else:
                mat = _npt(g, dims)
            name = f"state{len(ops):03d}.txt"
            s = r.getrandbits(32)
            ops.append(
                Op(
                    f"edge:{kind}:{'x'.join(map(str, dims))}",
                    ["edge", name, "--seed", str(s), "--restarts", str(restarts)],
                    {name: _state_text(dims, mat)},
                    {"kind": kind, "dims": dims, "matrix": mat},
                )
            )
    return ops
