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

import io
import math
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .errors import ParseError, UnsupportedSizeError
from .solvability import EXISTS_NONZERO, INFINITELY_MANY, Verdict, verdict
from .solver import (
    WITNESS,
    ProductVector,
    SolveReport,
    SolverConfig,
    SubspaceConstraint,
    philox_stream,
    restart_count,
    solve,
    spec_of_constraints,
)

DEFAULT_RANK_TOL = 1e-9
POSITIVITY_TOL = 1e-10
# Largest 2^(n-1) * D^3 one edge analysis runs, D = prod(dims), checked on
# the dims before any eigendecomposition.  The unit is one eigvalsh of a
# D x D partial transpose per canonical subset, plus one eigh per subset
# whose range has a complement: the two stages of rank_profile's
# decomposition, which is_ppt reads, 0.3-1.2 ns and 1.2-2.6 ns per unit at
# D = 64 to 812.  Since D >= 2^n, it also caps a profile's 2^(n-1) D^2
# complement entries below 2^21.5 (50 MB).  `prodvec edge`, parsing
# included (2-CPU Xeon host, one BLAS thread): a dense full-rank (812,)
# file with --restarts 3 took 0.8-1.5 s, 0.55-0.75 s of it parsing; a
# full-rank PPT (8, 8, 8) file, at the limit, 0.5-1.0 s; a rank-8
# separable (8, 8, 8) file, every transpose decomposed twice, 1.2-1.9 s
# before the solver's work bound refused it at --restarts 2.  Two-line
# product-state files end in under 1 s on either side.
MAX_EDGE_WORK = 1 << 29


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
    mat = np.ascontiguousarray(mat, dtype=complex)
    # the largest modulus of a real or imaginary part; NaN or inf when an
    # entry is not finite
    top = np.abs(mat.view(float)).max()
    if not np.isfinite(top):
        raise ValueError("matrix has non-finite entries")
    # entries so large that the symmetrization or the trace below would
    # overflow are scaled down by a power of two, which is exact; the trace
    # test and its error still speak of the matrix as given
    limit = np.finfo(float).max / (4 * mat.size)
    scale = math.ldexp(1.0, -math.frexp(top / limit)[1]) if top > limit else 1.0
    mat = mat * scale
    if np.abs(mat - mat.conj().T).max() > 1e-10:
        raise ValueError("matrix is not Hermitian within 1e-10")
    mat = (mat + mat.conj().T) / 2.0
    tr = float(np.trace(mat).real)
    # a negative trace would flip the sign of every eigenvalue
    if tr < 1e-12 * scale:
        raise ValueError(f"matrix trace {tr / scale:.3e} is not positive")
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
    """The rank cut along the last axis: eigenvalues with |w| > tol * max|w|
    (> tol if max|w| is 0)."""
    sv = np.abs(w)
    top = sv.max(axis=-1, keepdims=True)
    return sv > np.where(top > 0, tol * top, tol)


def rank_profile(rho: DensityMatrix, tol: float = DEFAULT_RANK_TOL) -> RankProfile:
    """Ranks and range complements of all canonical partial transposes, and the edge bound.

    The rank cut is at ``tol`` (relative to the largest singular value);
    each record carries the singular values on both sides of the cut so
    the cliff is visible in reports, and the complement of the range
    taken from the same decomposition, so rank + codimension = dim.

    Two stages.  One stacked eigvalsh of every transpose gives the
    eigenvalues.  A transpose with an eigenvalue at or below the cut is
    deficient; one stacked eigh of the deficient ones replaces their
    eigenvalues, so each transpose's rank, values and complement come
    from one decomposition.  A full-rank transpose keeps its eigvalsh
    values and gets an empty (0, D) complement.  numpy decomposes each
    matrix of a stack alone, so every record gets the bits its own
    eigvalsh or eigh would.  The 2^(n-1) D^2 complement entries are
    bounded only by ``edge_analysis``'s MAX_EDGE_WORK check.
    """
    subsets = canonical_subsets(rho.n_parties)
    d = rho.dim
    stack = np.empty((len(subsets), d, d), dtype=complex)
    for k, s in enumerate(subsets):
        stack[k] = partial_transpose(rho, s).mat
    w = np.linalg.eigvalsh(stack)
    keep = _in_range(w, tol)
    complements = [np.empty((0, d), dtype=complex)] * len(subsets)
    deficient = np.flatnonzero(~keep.all(axis=1))
    if deficient.size:
        # a slice takes no copy of the stack when every transpose is deficient
        rows = slice(None) if deficient.size == len(w) else deficient
        w[rows], v = np.linalg.eigh(stack[rows])
        keep[rows] = _in_range(w[rows], tol)
        for k, vk in zip(deficient, v):
            complements[k] = np.ascontiguousarray(vk[:, ~keep[k]].T)
    sv = np.abs(w)
    records = []
    for s, wk, svk, kk, complement in zip(subsets, w, sv, keep, complements):
        rank = int(kk.sum())
        records.append(
            SubsetRank(
                subset=s,
                rank=rank,
                min_eigenvalue=float(wk[0]),
                gap_below=float(svk[~kk].max()) if rank < d else 0.0,
                gap_above=float(svk[kk].min()) if rank else 0.0,
                complement=complement,
            )
        )
    bound = len(subsets) * d - sum(k - 1 for k in rho.dims)
    return RankProfile(tuple(records), sum(r.rank for r in records), bound)


def is_ppt(
    rho: DensityMatrix, profile: RankProfile | None = None
) -> tuple[bool, dict[frozenset[int], float]]:
    """Positivity of every partial transpose, checked on the canonical subsets:
    no eigenvalue below -POSITIVITY_TOL.  Reads the least eigenvalue of each
    record of ``profile``, by default ``rank_profile(rho)``."""
    profile = rank_profile(rho) if profile is None else profile
    min_eigs = {r.subset: r.min_eigenvalue for r in profile.records}
    return not any(v < -POSITIVITY_TOL for v in min_eigs.values()), min_eigs


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
    ``not-edge`` (a product vector compatible with all ranges was found,
    and ``witness`` holds it, or the verdict certifies that one exists,
    and ``witness`` is None), ``candidate-edge`` (no vector found and the
    rank-sum inequality holds: the verdict's N_E > N_U), or
    ``inconsistent-with-rank-bound`` (no vector found, N_E <= N_U and the
    verdict inconclusive; only there is the bound open, so this is
    flagged rather than treated as an error).
    """

    classification: str
    ppt: bool
    min_eigenvalues: dict[frozenset[int], float]
    profile: RankProfile | None
    decision: Verdict | None
    solve_report: SolveReport | None
    inequality_satisfied: bool | None
    witness: ProductVector | None


def _check_edge_work(dims: Sequence[int]) -> None:
    """Raise UnsupportedSizeError when 2^(n-1) D^3 exceeds MAX_EDGE_WORK."""
    subsets = 1 << (len(dims) - 1)
    d = math.prod(dims)
    work = subsets * d**3
    if work > MAX_EDGE_WORK:
        raise UnsupportedSizeError(
            f"dims {' x '.join(map(str, dims))} ask {subsets} * {d}^3 ="
            f" {work} units of work; at most {MAX_EDGE_WORK} are supported"
        )


def edge_analysis(
    rho: DensityMatrix,
    config: SolverConfig | None = None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> EdgeReport:
    """Search for a product vector compatible with all partial-transpose ranges.

    Builds one membership constraint per canonical subset S (the
    conjugated product vector must lie in the range of the transposed
    state), runs the exact decision engine on the codimension profile
    and the numerical solver on the explicit ranges, stopping at the
    first round of restarts that holds a witness (restart 0 alone, then
    rounds of 16, 32, ... restarts), and reads the rank-sum inequality
    sum rank < ``profile.bound`` off the verdict as N_E > N_U.  The two
    agree: sum rank = 2^(n-1) D - N_E and the bound is 2^(n-1) D - N_U,
    and ``reduce`` keeps these constraints as they
    are, since no canonical subset contains party 1 (so no two are equal
    or complementary) and every codim is at most D.  A state whose
    2^(n-1) D^3 exceeds MAX_EDGE_WORK, or whose cheapest solve (no
    constraints at all) ``restart_count`` refuses, raises
    UnsupportedSizeError before any eigendecomposition, PPT or not; an
    admitted state whose solve is too large is refused by ``solve``.
    One ``rank_profile`` at ``rank_tol`` serves both: ``is_ppt`` reads
    its least eigenvalues, and the constraints its complements.
    """
    config = config or SolverConfig()
    _check_edge_work(rho.dims)
    restart_count(spec_of_constraints(rho.dims, []), config)
    profile = rank_profile(rho, rank_tol)
    ppt, min_eigs = is_ppt(rho, profile=profile)
    if not ppt:
        return EdgeReport(NOT_APPLICABLE, False, min_eigs, None, None, None, None, None)
    constraints = [SubspaceConstraint(r.subset, r.complement) for r in profile.records]
    spec = spec_of_constraints(rho.dims, constraints)
    decision = verdict(spec)
    report = solve(constraints, rho.dims, config, target=WITNESS)
    inequality = decision.n_equations > decision.n_unknowns
    witness = report.solutions[0].vector if report.solutions else None
    if witness is not None or decision.kind in (EXISTS_NONZERO, INFINITELY_MANY):
        cls = NOT_EDGE
    else:
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


# numpy's C reader parses entry lines with a row of this dtype per line.
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("re", np.float64), ("im", np.float64)])


def read_state(source: str | TextIO) -> DensityMatrix:
    """Parse a state file, given as its text or as a text stream.

    A text's lines end at LF, CRLF or CR, as in a file opened in text
    mode; a stream's are the lines it yields.  The ``dims:`` header is
    the first non-blank line; it is checked, the edge work bound
    included, before any entry line is read.  The entry lines go to
    numpy's C reader.  When it refuses them, or a row holds a non-finite
    value or an index out of range, the entry lines are read again one
    at a time: that loop either raises the ParseError of the first bad
    line or accepts the file (Python's ``int`` and ``float`` also take
    ``1_0`` and non-ASCII digits).  A stream must be seekable for that
    second reading; any other stream is read whole first.
    """
    if isinstance(source, str) or not source.seekable():
        source = io.StringIO(source if isinstance(source, str) else source.read(), newline=None)
    dims, header_line = _read_header(source)
    body = source.tell()
    # The header alone fixes the d x d allocation and the d^2 entry lines,
    # so the edge work bound, which admits d <= 812, is checked first.
    _check_edge_work(dims)
    d = math.prod(dims)
    mat = _read_entries(source, d)
    if mat is None:
        source.seek(body)
        mat = _read_entry_lines(source, d, header_line)
    try:
        return density_matrix(dims, mat)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _read_header(stream: TextIO) -> tuple[tuple[int, ...], int]:
    """The dims of the first non-blank line, and its line number, which
    errors name; an all-blank stream's errors name line 1."""
    for lineno, line in enumerate(iter(stream.readline, ""), start=1):
        header = line.strip()
        if header:
            break
    else:
        header, lineno = "", 1
    if not header.startswith("dims:"):
        raise ParseError("expected header 'dims: d1 d2 ...'", lineno)
    try:
        dims = tuple(int(x) for x in header[len("dims:") :].split())
    except ValueError:
        raise ParseError("invalid dims header", lineno) from None
    if not dims or any(d < 2 for d in dims):
        raise ParseError("dims must be integers >= 2", lineno)
    return dims, lineno


def _read_entries(stream: TextIO, d: int) -> np.ndarray | None:
    """The d x d matrix of the entry lines through numpy's C reader, or
    None when a line needs ``_read_entry_lines`` to accept or refuse it."""
    with warnings.catch_warnings():
        # an empty body is a zero matrix, refused on its trace
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        # older numpy parses an integer field such as "0.9" via a float
        # and truncates it, with only a DeprecationWarning; as an error the
        # C reader refuses the line, and the line loop refuses it too
        warnings.simplefilter("error", DeprecationWarning)
        try:
            rows = np.loadtxt(stream, dtype=_ENTRY, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None
    i, j, re, im = (rows[name] for name in _ENTRY.names)
    inside = (i >= 0) & (i < d) & (j >= 0) & (j < d)
    if not (inside.all() and np.isfinite(re).all() and np.isfinite(im).all()):
        return None
    # the last line of a repeated (i, j) wins, as in the line loop; numpy
    # leaves the order of repeated fancy-index assignment open, but
    # maximum.at gives each cell the largest row that names it
    cell = i * d + j
    owner = np.full(d * d, -1)
    np.maximum.at(owner, cell, np.arange(rows.size))
    hit = owner >= 0
    last = owner[hit]
    mat = np.zeros(d * d, dtype=complex)
    mat[hit] = re[last] + 1j * im[last]
    return mat.reshape(d, d)


def _read_entry_lines(lines: Iterable[str], d: int, header_line: int) -> np.ndarray:
    """The d x d matrix of the entry lines after the header, one line at a time."""
    mat = np.zeros((d, d), dtype=complex)
    for lineno, line in enumerate(lines, start=header_line + 1):
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
    return mat
