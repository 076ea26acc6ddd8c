"""Numerical search for partially-conjugated product vectors in subspaces.

Independent of the exact decision engine: membership of the conjugated
product vector in each prescribed subspace is recast as a smooth real
least-squares problem over the product of unit spheres, attacked by
multi-start damped Gauss-Newton (Levenberg-Marquardt) on the stacked
real and imaginary parts of the basis inner products.  All restarts
draw their starts, in restart order, from one Philox stream keyed by
(seed, 1): restart i (from 0) takes the i-th row of standard normals in
the real parameter layout, so its start depends only on (seed, i);
random_instance draws from (seed, 0).  Restarts run as batches of rows,
and every row's arithmetic is its own, so a restart ends at the same
point alone or in any batch: results do not depend on batching.

A small residual certifies a solution (membership can be checked
directly); a large residual floor across many restarts is *evidence* of
nonexistence, never proof - the conjugations make the system real
rather than complex-algebraic, so no root-count certificate applies.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedSizeError
from .solvability import ProblemSpec, generic_count, problem_spec

_PHASE_EPS = 1e-12
# Largest product-space dimension prod(dims) for which a d x d state or a
# d x codim random basis is allocated; a d x d complex matrix at 4096
# takes 256 MB.  Checked before allocation.
MAX_SPACE_DIM = 4096
# Largest B * (2 * codim + p) * p float64 entries, for the widest
# constraint's Jacobian block and the B normal matrices of one batch of
# B restarts with p real parameters (1 MiB).  Restarts run in batches
# of at most this size, checked before allocation; a restart whose own
# share exceeds it runs alone.
MAX_BATCH_ENTRIES = 1 << 17
# Largest restarts * entries_per_start one solve runs, checked before any
# draw.  On a 2-CPU Xeon host a restart costs 0.7 to 2.7 us per entry for
# product dimensions up to 256 ((2, 2) to (4, 4, 4, 4)), so the limit is
# 6 to 23 s of restarts there.  The count does not see the product
# dimension; MAX_RESTART_WORK does.
MAX_RESTART_ENTRIES = 1 << 23
# Largest restarts * max_iterations * sum of codims * prod(dims) one solve
# runs, checked before any draw: an LM iteration contracts each complement
# basis (codim x prod(dims) entries) once per party.  At the limit, solves
# took 0.3 to 1.1 s on (16,16) to (64,64) and on (4,)^4, 2.7 to 5.6 s on
# (2,)^8 and (2,)^10, and up to 13.3 s on (2,)^12 (2-CPU Xeon host, one
# BLAS thread): qubits have the most parties per dimension.  The largest
# solves asked: tier-1 7.7e7, benchmark 1.6e6.
MAX_RESTART_WORK = 1 << 27
# What every solve passes to _minimize_batch and _dedupe: the LM steps a
# restart takes at most, the cost above which a stalled restart retires as
# stagnated, and the overlap tolerance of one projective class.
MAX_ITERATIONS = 120
REJECT_THRESHOLD = 1e-8
DEDUPE_TOLERANCE = 1e-6

# Why a restart stopped; SolveReport.exit_reasons counts them.
EXIT_REASONS = ("converged", "flat-gradient", "no-step", "stagnated", "max-iterations")
_CONVERGED, _FLAT_GRADIENT, _NO_STEP, _STAGNATED, _MAX_ITERATIONS = range(len(EXIT_REASONS))


@dataclass(frozen=True)
class ProductVector:
    """Tuple of unit-norm complex factors, phases fixed for uniqueness.

    The convention: the first component of each factor whose modulus
    exceeds 1e-12 is made real and non-negative.
    """

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        for f in self.factors:
            if abs(np.linalg.norm(f) - 1.0) > 1e-12:
                raise ValueError("factors must be unit vectors")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.size for f in self.factors)

    def full_vector(self) -> np.ndarray:
        out = np.ones(1, dtype=complex)
        for f in self.factors:
            out = np.kron(out, f)
        return out


def _canonical(factors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """ProductVector's convention on each row of (B, d_j) factor stacks, bit for
    bit as on one row alone: norms use 1-d np.linalg.norm's dot products, and
    phases are numpy-scalar quotients (array division differs in the last bit)."""
    out = []
    for f in factors:
        re, im = f.real, f.imag
        norm = np.sqrt((re[:, None] @ re[:, :, None] + im[:, None] @ im[:, :, None])[:, 0, 0])
        if (norm < _PHASE_EPS).any():
            raise ValueError("zero factor")
        f = f / norm[:, None]
        a = f[np.arange(len(f)), (np.abs(f) > _PHASE_EPS).argmax(axis=1)]
        phase = np.array([z.conjugate() / abs(z) for z in a], dtype=complex)
        out.append(f * phase[:, None])
    return out


def product_vector(factors: Sequence[np.ndarray]) -> ProductVector:
    """Normalize factors, apply the phase convention, and wrap."""
    rows = _canonical([np.asarray(f, dtype=complex).ravel()[None] for f in factors])
    return ProductVector(tuple(f[0] for f in rows))


def partial_conjugate(psi: ProductVector, subset: Sequence[int] | frozenset[int]) -> ProductVector:
    """Conjugate the factors at the 1-based positions in ``subset``."""
    s = set(subset)
    return product_vector(
        [f.conj() if (j + 1) in s else f for j, f in enumerate(psi.factors)]
    )


@dataclass(frozen=True)
class SubspaceConstraint:
    """Require the subset-conjugated product vector to lie in a subspace.

    ``complement_basis`` holds orthonormal rows spanning the orthogonal
    complement; membership is equivalent to all inner products with
    these rows vanishing.  ``codim`` 0 (an empty basis) is a vacuous
    constraint.
    """

    subset: frozenset[int]
    complement_basis: np.ndarray  # (codim, prod dims), complex

    def __post_init__(self):
        b = self.complement_basis
        if b.ndim != 2:
            raise ValueError("complement_basis must be a 2-d array")
        if b.shape[0]:
            g = b.conj() @ b.T
            if not np.allclose(g, np.eye(b.shape[0]), atol=1e-10):
                raise ValueError("complement_basis rows must be orthonormal")

    @property
    def codim(self) -> int:
        return self.complement_basis.shape[0]


def subspace_constraint(subset, basis) -> SubspaceConstraint:
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim == 1:
        basis = basis[None, :]
    return SubspaceConstraint(frozenset(int(j) for j in subset), basis)


def philox_stream(seed: int, stream: int) -> np.random.Generator:
    """The Philox generator keyed by (seed mod 2^64, stream).

    The key is a uint64 array: as a list, a seed at or above 2^63 would
    pass through float64 and lose its low bits.
    """
    key = np.array([int(seed) & (2**64 - 1), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_instance(spec: ProblemSpec, seed: int) -> list[SubspaceConstraint]:
    """Draw one random subspace per constraint, deterministically from ``seed``.

    Each complement basis starts as independent standard complex
    Gaussians and is orthonormalized; 'generic' in the verdicts is
    realized by such draws.
    """
    d = math.prod(spec.dims)
    if d > MAX_SPACE_DIM:
        raise UnsupportedSizeError(
            f"product dimension {d} exceeds the supported {MAX_SPACE_DIM}"
        )
    rng = philox_stream(seed, 0)
    out = []
    for c in spec.constraints:
        z = rng.standard_normal((d, c.codim)) + 1j * rng.standard_normal((d, c.codim))
        q, _ = np.linalg.qr(z)
        out.append(SubspaceConstraint(c.subset, np.ascontiguousarray(q.T)))
    return out


def spec_of_constraints(dims: Sequence[int], constraints: Sequence[SubspaceConstraint]) -> ProblemSpec:
    return problem_spec(dims, [(c.subset, c.codim) for c in constraints])


def residual(psi: ProductVector, constraints: Sequence[SubspaceConstraint]) -> float:
    """Sum of squared moduli of all basis inner products; zero iff all memberships hold."""
    total = 0.0
    for c in constraints:
        if not c.codim:
            continue
        # conjugation keeps psi's unit factors unit and its phase convention,
        # so the factors need no re-normalization
        w = ProductVector(
            tuple(f.conj() if j + 1 in c.subset else f for j, f in enumerate(psi.factors))
        ).full_vector()
        z = c.complement_basis.conj() @ w
        total += float(np.vdot(z, z).real)
    return total


# -- the optimizer -----------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    restarts: int | None = None  # None: max(500, 50 * generic count) when defined
    accept_threshold: float = 1e-14
    seed: int = 0


@dataclass(frozen=True)
class Solution:
    vector: ProductVector
    residual: float


@dataclass(frozen=True)
class SolveReport:
    solutions: tuple[Solution, ...]
    distinct_count: int
    residual_floor: float
    restarts_used: int
    seed: int
    # restarts per reason in EXIT_REASONS; not printed in the CLI report
    exit_reasons: dict[str, int] = field(default_factory=dict)


def _entries_per_start(n_params: int, max_codim: int) -> int:
    """float64 entries one start adds to a constraint's Jacobian block and JᵀJ."""
    return (2 * max_codim + n_params) * n_params


class _Problem:
    """Residuals and normal equations of B starts at once, in real-ified coordinates.

    Factors are held as (B, d_j) complex arrays; parameters are the
    stacked real and imaginary parts of all factors, party by party.
    The residual vector stacks Re/Im of every basis inner product plus
    one norm penalty (|psi_j|^2 - 1) per factor, which pins the scale
    gauge without moving the zero set off the unit spheres.  Every
    operation acts on each row alone, so a row's results do not depend
    on which other rows share its batch.
    """

    def __init__(self, dims: Sequence[int], constraints: Sequence[SubspaceConstraint]):
        self.dims = tuple(int(d) for d in dims)
        n = len(self.dims)
        if n > 25:
            raise ValueError("at most 25 parties supported")
        live = [c for c in constraints if c.codim]
        self.constraints = [
            (
                tuple((j + 1) in c.subset for j in range(n)),
                c.complement_basis.conj().reshape((c.codim,) + self.dims),
            )
            for c in live
        ]
        self.max_codim = max((c.codim for c in live), default=0)
        self.offsets = np.cumsum([0] + [2 * d for d in self.dims])
        self.n_params = int(self.offsets[-1])
        # "Z" indexes the batch, "z" the basis rows, a..y the parties
        letters = "abcdefghijklmnopqrstuvwxy"[:n]
        factors = ["Z" + a for a in letters]
        self.einsum_full = ",".join(["z" + letters] + factors) + "->Zz"
        self.einsum_partial = [
            ",".join(["z" + letters] + factors[:j] + factors[j + 1 :]) + "->Zz" + letters[j]
            for j in range(n)
        ]

    @property
    def entries_per_start(self) -> int:
        return _entries_per_start(self.n_params, self.max_codim)

    @staticmethod
    def _sq_norms(f: np.ndarray) -> np.ndarray:
        return (f.real**2 + f.imag**2).sum(axis=1)

    @staticmethod
    def _conjugated(factors, conj):
        return [f.conj() if c else f for f, c in zip(factors, conj)]

    def renormalize(self, factors: Sequence[np.ndarray]) -> list[np.ndarray]:
        out = []
        for f in factors:
            norm = np.sqrt(self._sq_norms(f))
            tiny = norm < 1e-150
            f = f / np.where(tiny, 1.0, norm)[:, None]
            f[tiny] = 0.0
            f[tiny, 0] = 1.0
            out.append(f)
        return out

    def complex_factors(self, x: np.ndarray) -> list[np.ndarray]:
        """(B, d_j) complex factors of (B, n_params) rows in real parameter layout."""
        return [
            x[:, lo : lo + d] + 1j * x[:, lo + d : lo + 2 * d]
            for lo, d in zip(self.offsets, self.dims)
        ]

    def step(self, factors: Sequence[np.ndarray], delta: np.ndarray) -> list[np.ndarray]:
        """Renormalized factors + delta, with delta in real parameter layout."""
        return self.renormalize([f + u for f, u in zip(factors, self.complex_factors(delta))])

    def cost(self, factors: Sequence[np.ndarray], penalty: bool = True) -> np.ndarray:
        """Squared residual norm of each row, with or without the norm penalties."""
        total = np.zeros(len(factors[0]))
        for conj, t in self.constraints:
            z = np.einsum(self.einsum_full, t, *self._conjugated(factors, conj))
            total += self._sq_norms(z)
        if penalty:
            for f in factors:
                total += (self._sq_norms(f) - 1.0) ** 2
        return total

    def normal_equations(self, factors: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """JᵀJ (B, p, p) and Jᵀr (B, p), accumulated one constraint block at a time."""
        b, p = len(factors[0]), self.n_params
        jtj = np.zeros((b, p, p))
        g = np.zeros((b, p, 1))
        for conj, t in self.constraints:
            phi = self._conjugated(factors, conj)
            z = np.einsum(self.einsum_full, t, *phi)
            k = z.shape[1]
            block = np.empty((b, 2 * k, p))
            for j, (lo, d) in enumerate(zip(self.offsets, self.dims)):
                m = np.einsum(self.einsum_partial[j], t, *phi[:j], *phi[j + 1 :])
                sgn = -1.0 if conj[j] else 1.0
                block[:, :k, lo : lo + d] = m.real
                block[:, :k, lo + d : lo + 2 * d] = -sgn * m.imag
                block[:, k:, lo : lo + d] = m.imag
                block[:, k:, lo + d : lo + 2 * d] = sgn * m.real
            r = np.concatenate([z.real, z.imag], axis=1)[:, :, None]
            jt = block.transpose(0, 2, 1)
            jtj += jt @ block
            g += jt @ r
        # norm penalties: one row per factor
        pen = np.zeros((b, len(self.dims), p))
        for j, (f, lo, d) in enumerate(zip(factors, self.offsets, self.dims)):
            pen[:, j, lo : lo + d] = 2.0 * f.real
            pen[:, j, lo + d : lo + 2 * d] = 2.0 * f.imag
        r = np.stack([self._sq_norms(f) - 1.0 for f in factors], axis=1)[:, :, None]
        jt = pen.transpose(0, 2, 1)
        jtj += jt @ pen
        g += jt @ r
        return jtj, g[:, :, 0]


def _solve_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the stacked systems a x = b; returns (x, solved mask).

    A stacked solve fails as a whole when one system is singular; then
    every row is solved alone (as a one-row stack, so the arithmetic is
    the same) and only the singular rows are marked unsolved.
    """
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        ok = np.ones(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                x[i] = np.linalg.solve(a[i : i + 1], b[i : i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                ok[i] = False
        return x, ok


def _minimize_batch(
    problem: _Problem,
    factors: Sequence[np.ndarray],
    max_iterations: int,
    reject_threshold: float,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Damped Gauss-Newton from B starts at once, one damping λ per start.

    Returns the final factors, the cost without penalty and the index
    into ``EXIT_REASONS`` of every start.  A start retires when its cost
    falls below 1e-30 (converged), its gradient norm below 1e-15
    (flat-gradient), no step lowers its cost within 25 λ tries or before
    λ exceeds 1e10 (no-step), an accepted step gains less than a
    relative 1e-9 while its cost is above ``reject_threshold``
    (stagnated), or after ``max_iterations`` steps.
    """
    factors = problem.renormalize(factors)
    n_starts = len(factors[0])
    out_factors = [np.empty_like(f) for f in factors]
    out_reason = np.empty(n_starts, dtype=np.intp)
    rows = np.arange(n_starts)  # the input row of every live start
    cost = problem.cost(factors)
    lam = np.full(n_starts, 1e-3)

    def retire(mask, reason):
        nonlocal factors, rows, cost, lam
        done = rows[mask]
        for out, f in zip(out_factors, factors):
            out[done] = f[mask]
        out_reason[done] = reason
        keep = ~mask
        factors = [f[keep] for f in factors]
        rows, cost, lam = rows[keep], cost[keep], lam[keep]

    diag = np.arange(problem.n_params)
    for _ in range(max_iterations):
        retire(cost < 1e-30, _CONVERGED)
        if not rows.size:
            break
        jtj, g = problem.normal_equations(factors)
        flat = np.sqrt((g * g).sum(axis=1)) < 1e-15
        jtj, g = jtj[~flat], g[~flat]
        retire(flat, _FLAT_GRADIENT)
        stepped = np.zeros(rows.size, dtype=bool)
        searching = np.ones(rows.size, dtype=bool)
        rel = np.zeros(rows.size)
        for _ in range(25):
            trying = np.flatnonzero(searching)
            if not trying.size:
                break
            damped = jtj[trying]
            damped[:, diag, diag] += lam[trying, None]
            delta, ok = _solve_rows(damped, -g[trying])
            lam[trying[~ok]] *= 10.0
            tried = trying[ok]
            trial = problem.step([f[tried] for f in factors], delta[ok])
            trial_cost = problem.cost(trial)
            better = trial_cost < cost[tried]
            won = tried[better]
            rel[won] = (cost[won] - trial_cost[better]) / np.maximum(cost[won], 1e-300)
            for f, tf in zip(factors, trial):
                f[won] = tf[better]
            cost[won] = trial_cost[better]
            lam[won] = np.maximum(lam[won] / 3.0, 1e-14)
            stepped[won] = True
            searching[won] = False
            lost = tried[~better]
            lam[lost] *= 10.0
            searching[lost[lam[lost] > 1e10]] = False
        retire(~stepped, _NO_STEP)
        rel = rel[stepped]
        retire((rel < 1e-9) & (cost > reject_threshold), _STAGNATED)
    retire(np.ones(rows.size, dtype=bool), _MAX_ITERATIONS)
    return out_factors, problem.cost(out_factors, penalty=False), out_reason


def count_distinct(solutions: Sequence[ProductVector], tol: float) -> int:
    """Number of projective classes: vectors are identified when the product
    of factor overlap moduli exceeds 1 - tol."""
    factors = [np.stack(fs) for fs in zip(*(s.factors for s in solutions))]
    return len(_dedupe(factors, np.zeros(len(solutions)), tol))


def _dedupe(factors: Sequence[np.ndarray], costs: np.ndarray, tol: float) -> list[int]:
    """Row of one representative per projective class, in order of first appearance.

    Classes are built one at a time: the first unplaced row takes every
    unplaced row whose product of factor overlap moduli with it exceeds
    1 - tol, and the class's lowest-cost row (the first on ties)
    represents it.
    """
    unplaced = np.arange(len(costs))
    reps = []
    while unplaced.size:
        overlap = np.ones(unplaced.size)
        for f in factors:
            overlap *= np.abs(f[unplaced].conj() @ f[unplaced[0]])
        member = overlap > 1.0 - tol
        member[0] = True  # whatever the rounding of its self-overlap
        cls = unplaced[member]
        reps.append(int(cls[np.argmin(costs[cls])]))
        unplaced = unplaced[~member]
    return reps


def restart_count(spec: ProblemSpec, config: SolverConfig) -> int:
    """Restarts ``solve`` runs on an instance of ``spec``.

    ``config.restarts``, by default max(500, 50 * generic count) when that
    count is defined and 500 otherwise; at most 8 when every constraint
    is vacuous.  Raises UnsupportedSizeError when restarts times the
    entries per start exceeds MAX_RESTART_ENTRIES, or restarts times
    MAX_ITERATIONS times the sum of codims times prod(dims) exceeds
    MAX_RESTART_WORK.
    """
    restarts = config.restarts
    if restarts is not None and restarts < 0:
        raise ValueError(f"restarts must be non-negative, got {restarts}")
    max_codim = max((c.codim for c in spec.constraints), default=0)
    per_start = _entries_per_start(2 * sum(spec.dims), max_codim)
    if restarts is None:
        # The entries bound caps sum(dims), and with it the multinomial of
        # the generic count: check it at the least default before counting.
        _check_entries(500 if max_codim else 8, per_start)
        expected = generic_count(spec)
        restarts = max(500, 50 * expected) if expected else 500
    if not max_codim:
        restarts = min(restarts, 8)
    _check_entries(restarts, per_start)
    codims, d = sum(c.codim for c in spec.constraints), math.prod(spec.dims)
    work = restarts * MAX_ITERATIONS * codims * d
    if work > MAX_RESTART_WORK:
        raise UnsupportedSizeError(
            f"{restarts} restarts of {MAX_ITERATIONS} iterations on codimension"
            f" {codims} in dimension {d} ask {work} units of work; at most"
            f" {MAX_RESTART_WORK} are supported"
        )
    return restarts


def _check_entries(restarts: int, per_start: int) -> None:
    if restarts * per_start > MAX_RESTART_ENTRIES:
        raise UnsupportedSizeError(
            f"{restarts} restarts of {per_start} entries each exceed"
            f" the supported {MAX_RESTART_ENTRIES}"
        )


def solve(
    constraints: Sequence[SubspaceConstraint],
    dims: Sequence[int],
    config: SolverConfig | None = None,
) -> SolveReport:
    """Multi-start minimization of the membership residual.

    The constraints are taken as given: parallel ones are not merged,
    which leaves the zero set unchanged.  Every restart below
    ``accept_threshold`` is a candidate, and each projective class of
    candidates gives one solution (see ``_dedupe``).  One stream keyed
    by (seed, 1) supplies every start in restart order, so restart i
    (from 0) starts from the same point whatever the batching and
    however many restarts follow it.  When all constraints are vacuous
    the residual is identically zero and only a handful of restarts are
    run, each returning its start point.
    """
    config = config or SolverConfig()
    dims = tuple(int(d) for d in dims)
    problem = _Problem(dims, constraints)
    restarts = restart_count(spec_of_constraints(dims, constraints), config)
    seed = int(config.seed) & (2**64 - 1)

    found = [np.empty((0, d), dtype=complex) for d in dims]
    found_costs = np.empty(0)
    floor = math.inf
    reasons = np.zeros(len(EXIT_REASONS), dtype=np.int64)
    rng = philox_stream(seed, 1)
    batch = max(1, MAX_BATCH_ENTRIES // problem.entries_per_start)
    for lo in range(0, restarts, batch):
        rows = min(batch, restarts - lo)
        starts = problem.complex_factors(rng.standard_normal((rows, problem.n_params)))
        factors, costs, why = _minimize_batch(problem, starts, MAX_ITERATIONS, REJECT_THRESHOLD)
        floor = min(floor, float(costs.min()))
        reasons += np.bincount(why, minlength=len(EXIT_REASONS))
        ok = costs < config.accept_threshold
        found = [np.concatenate([a, f[ok]]) for a, f in zip(found, factors)]
        found_costs = np.concatenate([found_costs, costs[ok]])

    # restarts are appended in restart order whatever the batching; this
    # sort fixes the printed order and which member represents a class
    found = _canonical(found)
    keys = np.round(np.concatenate([f.view(float) for f in found], axis=1), 9)
    order = np.lexsort(keys.T[::-1])
    found, found_costs = [f[order] for f in found], found_costs[order]
    solutions = tuple(
        Solution(ProductVector(tuple(f[i] for f in found)), float(found_costs[i]))
        for i in _dedupe(found, found_costs, DEDUPE_TOLERANCE)
    )
    return SolveReport(
        solutions=solutions,
        distinct_count=len(solutions),
        residual_floor=floor if restarts else math.inf,
        restarts_used=restarts,
        seed=seed,
        exit_reasons=dict(zip(EXIT_REASONS, reasons.tolist())),
    )
