"""Multipartite density matrices: partial transposes, rank profiles, edge analysis.

Tensor index convention is row-major with party 1 slowest: on 2 (x) 2 the
basis order is |00>, |01>, |10>, |11>, so the flat index of (i_1, i_2) is
2*i_1 + i_2.  Partial transposition over a party subset S exchanges the
row and column indices of exactly the parties in S.

Since the spectrum of a partial transpose over S equals that over the
complement of S (they are full transposes of each other), positivity and
ranks only need the 2^(n-1) subsets not containing party 1; these
"canonical" subsets are enumerated in binary order with party 2 as the
least significant bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, UnsupportedSizeError
from .solvability import Verdict, verdict
from .solver import (
    DEFAULT_RESTARTS,
    MAX_SPACE_DIM,
    ProductVector,
    SolveReport,
    SolverConfig,
    SubspaceConstraint,
    check_restart_bounds,
    philox_stream,
    solve,
    spec_of_constraints,
)

DEFAULT_RANK_TOL = 1e-9
POSITIVITY_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """d x d Hermitian trace-one matrix with tensor factor dimensions attached."""

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self):
        d = math.prod(self.dims)
        if self.mat.shape != (d, d):
            raise ValueError(f"matrix shape {self.mat.shape} does not match dims {self.dims}")

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def density_matrix(dims: Sequence[int], mat) -> DensityMatrix:
    """Validating constructor: checks finite, Hermitian entries, symmetrizes, normalizes the trace.

    Rescaling is skipped when the trace is already 1 to within 1e-12, so
    ingesting a state written by :func:`write_state` reproduces it bit
    for bit.
    """
    dims = tuple(int(d) for d in dims)
    mat = np.asarray(mat, dtype=complex)
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    if np.abs(mat - mat.conj().T).max() > 1e-10:
        raise ValueError("matrix is not Hermitian within 1e-10")
    mat = (mat + mat.conj().T) / 2.0
    tr = float(np.trace(mat).real)
    # a negative trace would flip the sign of every eigenvalue
    if tr < 1e-12:
        raise ValueError(f"matrix trace {tr:.3e} is not positive")
    if abs(tr - 1.0) > 1e-12:
        mat = mat / tr
    return DensityMatrix(dims, mat)


def maximally_mixed(dims: Sequence[int]) -> DensityMatrix:
    d = math.prod(dims)
    return DensityMatrix(tuple(int(x) for x in dims), np.eye(d, dtype=complex) / d)


def random_state(dims: Sequence[int], seed: int, rank: int | None = None) -> DensityMatrix:
    """Wishart-style random state, deterministic in ``seed``."""
    dims = tuple(int(d) for d in dims)
    d = math.prod(dims)
    rank = d if rank is None else int(rank)
    rng = philox_stream(seed, 0)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return density_matrix(dims, g @ g.conj().T)


def partial_transpose(rho: DensityMatrix, subset: Sequence[int] | frozenset[int]) -> DensityMatrix:
    """Transpose the tensor factors at the 1-based positions in ``subset``."""
    n = rho.n_parties
    s = set(int(j) for j in subset)
    if any(not 1 <= j <= n for j in s):
        raise ValueError(f"subset {sorted(s)} out of range 1..{n}")
    t = rho.mat.reshape(rho.dims + rho.dims)
    for j in s:
        t = np.swapaxes(t, j - 1, n + j - 1)
    d = rho.dim
    return DensityMatrix(rho.dims, np.ascontiguousarray(t.reshape(d, d)))


def canonical_subsets(n: int) -> list[frozenset[int]]:
    """All subsets of {1..n} without party 1, in binary order (party 2 = bit 0)."""
    out = []
    for mask in range(1 << (n - 1)):
        out.append(frozenset(j + 2 for j in range(n - 1) if (mask >> j) & 1))
    return out


def is_ppt(rho: DensityMatrix) -> tuple[bool, dict[frozenset[int], float]]:
    """Positivity of every partial transpose, checked on the canonical subsets:
    no eigenvalue below -POSITIVITY_TOL."""
    min_eigs: dict[frozenset[int], float] = {}
    ok = True
    for s in canonical_subsets(rho.n_parties):
        w = np.linalg.eigvalsh(partial_transpose(rho, s).mat)
        min_eigs[s] = float(w[0])
        if w[0] < -POSITIVITY_TOL:
            ok = False
    return ok, min_eigs


@dataclass(frozen=True)
class SubsetRank:
    subset: frozenset[int]
    rank: int
    min_eigenvalue: float
    gap_below: float  # largest |eigenvalue| below the rank cut (0.0 if full rank)
    gap_above: float  # smallest |eigenvalue| counted into the rank
    # orthonormal rows spanning the complement of the range, from the same eigh
    complement: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class RankProfile:
    records: tuple[SubsetRank, ...]
    sum_of_ranks: int
    bound: int  # 2^(n-1) * prod(dims) - sum(dims - 1)


def _in_range(w: np.ndarray, tol: float) -> np.ndarray:
    """The rank cut: eigenvalues with |w| > tol * max|w| (> tol if max|w| is 0)."""
    sv = np.abs(w)
    top = sv.max()
    return sv > (tol * top if top > 0 else tol)


def rank_profile(
    rho: DensityMatrix, tol: float = DEFAULT_RANK_TOL, restarts: int | None = None
) -> RankProfile:
    """Ranks and range complements of all canonical partial transposes, and the edge bound.

    The rank cut is at ``tol`` (relative to the largest singular value);
    each record carries the singular values on both sides of the cut so
    the cliff is visible in reports, and the complement of the range
    taken from the same decomposition, so rank + codimension = dim.
    With ``restarts``, the fewest a solve on these ranges will run, the
    solver's bounds are checked on the codimensions so far after each
    rank, so a state whose solve would be refused is refused before its
    next eigendecomposition and before its complements pile up.
    """
    records = []
    codims = []
    total = 0
    for s in canonical_subsets(rho.n_parties):
        w, v = np.linalg.eigh(partial_transpose(rho, s).mat)
        keep = _in_range(w, tol)
        sv = np.abs(w)
        rank = int(keep.sum())
        records.append(
            SubsetRank(
                subset=s,
                rank=rank,
                min_eigenvalue=float(w[0]),
                gap_below=float(sv[~keep].max()) if rank < sv.size else 0.0,
                gap_above=float(sv[keep].min()) if rank else 0.0,
                complement=np.ascontiguousarray(v[:, ~keep].T),
            )
        )
        total += rank
        codims.append(rho.dim - rank)
        if restarts is not None and any(codims):
            check_restart_bounds(restarts, rho.dims, codims)
    n = rho.n_parties
    bound = (1 << (n - 1)) * math.prod(rho.dims) - sum(d - 1 for d in rho.dims)
    return RankProfile(tuple(records), total, bound)


def range_complement(rho: DensityMatrix) -> np.ndarray:
    """Orthonormal rows spanning the orthogonal complement of the range,
    cut at DEFAULT_RANK_TOL."""
    w, v = np.linalg.eigh(rho.mat)
    return np.ascontiguousarray(v[:, ~_in_range(w, DEFAULT_RANK_TOL)].T)


def build_separable(vectors: Sequence[ProductVector], weights: Sequence[float]) -> DensityMatrix:
    """Convex combination of the pure product states |psi><psi|."""
    weights = [float(w) for w in weights]
    if len(weights) != len(vectors):
        raise ValueError("one weight per vector required")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    if abs(sum(weights) - 1.0) > 1e-10:
        raise ValueError("weights must sum to 1 within 1e-10")
    dims = vectors[0].dims
    d = math.prod(dims)
    mat = np.zeros((d, d), dtype=complex)
    for v, w in zip(vectors, weights):
        if v.dims != dims:
            raise ValueError("all product vectors must share the same dims")
        full = v.full_vector()
        mat += w * np.outer(full, full.conj())
    return density_matrix(dims, mat)


NOT_APPLICABLE = "not-applicable"
NOT_EDGE = "not-edge"
CANDIDATE_EDGE = "candidate-edge"
INCONSISTENT = "inconsistent-with-rank-bound"


@dataclass(frozen=True)
class EdgeReport:
    """Outcome of the edge-state analysis.

    ``classification`` is one of: ``not-applicable`` (input not PPT),
    ``not-edge`` (a product vector compatible with all ranges was found;
    ``witness`` holds it), ``candidate-edge`` (no vector found and the
    rank-sum inequality holds), or ``inconsistent-with-rank-bound`` (no
    vector found although the rank sum meets or exceeds the bound; the
    bound's validity is open in some systems, so this is flagged rather
    than treated as an error).
    """

    classification: str
    ppt: bool
    min_eigenvalues: dict[frozenset[int], float]
    profile: RankProfile | None
    decision: Verdict | None
    solve_report: SolveReport | None
    inequality_satisfied: bool | None
    witness: ProductVector | None


def edge_analysis(
    rho: DensityMatrix,
    config: SolverConfig | None = None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> EdgeReport:
    """Search for a product vector compatible with all partial-transpose ranges.

    Builds one membership constraint per canonical subset S (the
    conjugated product vector must lie in the range of the transposed
    state), runs the exact decision engine on the codimension profile
    and the numerical solver on the explicit ranges, and evaluates the
    rank-sum inequality.  The solver's bounds are checked after each
    rank at the fewest restarts the solve can run, so a state whose solve
    would be refused raises UnsupportedSizeError before the remaining
    eigendecompositions.
    """
    config = config or SolverConfig()
    ppt, min_eigs = is_ppt(rho)
    if not ppt:
        return EdgeReport(NOT_APPLICABLE, False, min_eigs, None, None, None, None, None)
    # once a codimension is nonzero, the solve runs at least this many restarts
    least = DEFAULT_RESTARTS if config.restarts is None else config.restarts
    profile = rank_profile(rho, rank_tol, least)
    constraints = [SubspaceConstraint(r.subset, r.complement) for r in profile.records]
    spec = spec_of_constraints(rho.dims, constraints)
    decision = verdict(spec)
    report = solve(constraints, rho.dims, config)
    inequality = profile.sum_of_ranks < profile.bound
    if report.solutions:
        witness = report.solutions[0].vector
        cls = NOT_EDGE
    else:
        witness = None
        cls = CANDIDATE_EDGE if inequality else INCONSISTENT
    return EdgeReport(cls, True, min_eigs, profile, decision, report, inequality, witness)


# -- state file format -------------------------------------------------------


def write_state(rho: DensityMatrix) -> str:
    """Header ``dims: d1 d2 ...`` then one ``row col re im`` line per entry."""
    lines = ["dims: " + " ".join(str(d) for d in rho.dims)]
    d = rho.dim
    for i in range(d):
        for j in range(d):
            z = rho.mat[i, j]
            lines.append(f"{i} {j} {float(z.real)!r} {float(z.imag)!r}")
    return "\n".join(lines) + "\n"


def read_state(text: str) -> DensityMatrix:
    lines = text.splitlines()
    header = None
    start = 0
    for idx, line in enumerate(lines):
        if line.strip():
            header = line.strip()
            start = idx + 1
            break
    if header is None or not header.startswith("dims:"):
        raise ParseError("expected header 'dims: d1 d2 ...'", 1)
    try:
        dims = tuple(int(x) for x in header[len("dims:") :].split())
    except ValueError:
        raise ParseError("invalid dims header", start) from None
    if not dims or any(d < 2 for d in dims):
        raise ParseError("dims must be integers >= 2", start)
    d = math.prod(dims)
    # The header alone fixes the d x d allocation, before any entry is
    # read; the edge analysis makes further d x d copies.
    if d > MAX_SPACE_DIM:
        raise UnsupportedSizeError(
            f"state dimension {d} exceeds the supported {MAX_SPACE_DIM}"
        )
    mat = np.zeros((d, d), dtype=complex)
    for lineno, line in enumerate(lines[start:], start=start + 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError("expected 'row col re im'", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
            re, im = float(parts[2]), float(parts[3])
        except ValueError:
            raise ParseError("invalid numeric field", lineno) from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ParseError("non-finite entry", lineno)
        if not (0 <= i < d and 0 <= j < d):
            raise ParseError(f"index ({i}, {j}) outside 0..{d - 1}", lineno)
        mat[i, j] = re + 1j * im
    try:
        return density_matrix(dims, mat)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
