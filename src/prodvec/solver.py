"""Numerical search for partially-conjugated product vectors in subspaces.

Independent of the exact decision engine: membership of the conjugated
product vector in each prescribed subspace is recast as a smooth real
least-squares problem over the product of unit spheres, attacked by
multi-start damped Gauss-Newton (Levenberg-Marquardt) on one packed
array per batch of restarts, with normal equations from complex Gram
matrices (``_Problem``) and basis contractions taken one party at a time
as stacked matrix-vector products (``_contract``).  All restarts draw
their starts, in restart order, from one Philox stream keyed by (seed,
1): restart i (from 0) takes the i-th row of standard normals, so its
start depends only on (seed, i); random_instance draws from (seed, 0).
Every row's arithmetic is its own, so a restart ends at the same point
alone or in any batch: results do not depend on batching.

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
# Largest B * (2k + p) * p float64 entries (1 MiB) one batch of B restarts
# with p real parameters counts, k the widest codim.  Per start the kernel
# holds A (k x Σd complex, kp entries), G (Σd x Σd complex, p²/2) and JᵀJ
# (p x p), between 1/2 and 3/2 of that count.  Batches are split to fit,
# checked before allocation; a restart whose own share exceeds it runs alone.
MAX_BATCH_ENTRIES = 1 << 17
# Largest restarts * entries_per_start one solve runs, checked before any
# draw.  On a 2-CPU Xeon host a restart costs 0.7 to 2.7 us per entry for
# product dimensions up to 256 ((2, 2) to (4, 4, 4, 4)), so the limit is
# 6 to 23 s of restarts there.  The count does not see the product
# dimension; MAX_RESTART_WORK does.
MAX_RESTART_ENTRIES = 1 << 23
# Largest restarts * max_iterations * sum of codims * prod(dims) one solve
# runs, checked before any draw.  The unit is one pass over a complement
# basis (codim x prod(dims) entries); an LM iteration makes one per party
# and per λ try, a factor the unit omits.  At the limit (one constraint on
# {1} of codim Σ(d_j - 1), seed 1) solves took 0.5-0.9 s on (16,16),
# (64,64), (4,)^4 and (8,8,8), 1.3-1.5 s on (2,)^8 to (2,)^12, and 2.9 s on
# (2,)^12 at codim 13, 20 of 21 restarts stagnating (2-CPU Xeon host, one
# BLAS thread).  The largest solves asked: tier-1 7.7e7, benchmark 1.6e6.
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


def stream_seed(seed: int) -> int:
    """The seed a stream keyed by ``seed`` uses, and reports echo: seed mod 2^64."""
    return int(seed) & (2**64 - 1)


def philox_stream(seed: int, stream: int) -> np.random.Generator:
    """The Philox generator keyed by (stream_seed(seed), stream).

    The key is a uint64 array: as a list, a seed at or above 2^63 would
    pass through float64 and lose its low bits.
    """
    key = np.array([stream_seed(seed), stream], dtype=np.uint64)
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
    """float64 entries one start counts against MAX_BATCH_ENTRIES."""
    return (2 * max_codim + n_params) * n_params


class _Problem:
    """Residuals and normal equations of B starts at once, on one packed array.

    A batch's factors are one (B, Σd) complex array x, party after party;
    its float view (B, p), p = 2Σd, re and im side by side, is the
    parameter vector.  The residual stacks Re/Im of every basis inner
    product plus one norm penalty (|psi_j|^2 - 1) per factor, which pins
    the scale gauge without moving the zero set off the unit spheres.  A
    constraint's k inner products are z = M_j φ_j for every party j, φ_j
    being x_j or its conjugate, and A = [M_1 ... M_n] is their (B, k, Σd)
    block: the complex Gram G = AᴴA and h = Aᴴz give JᵀJ and Jᵀr.  The
    conjugated basis t, (k, d_1, ..., d_n), meets the factors one party at
    a time from its last axis (``_contract``): every party for z, and for
    M_j every other party with j's axis moved next to k's, about k Πd
    multiplies per row each.  Every operation acts on each row alone, so a
    row's results do not depend on which other rows share its batch.
    """

    def __init__(self, dims: Sequence[int], constraints: Sequence[SubspaceConstraint]):
        self.dims = tuple(int(d) for d in dims)
        n = len(self.dims)
        live = [c for c in constraints if c.codim]
        self.max_codim = max((c.codim for c in live), default=0)
        self.n_params = 2 * sum(self.dims)
        self.starts = np.cumsum((0,) + self.dims[:-1])
        self.parties = [slice(lo, lo + d) for lo, d in zip(self.starts, self.dims)]
        self.first = np.isin(np.arange(self.n_params // 2), self.starts).astype(complex)
        self.param_dims = 2 * np.array(self.dims)
        party = np.repeat(np.arange(n), self.param_dims)
        self.penalty_mask = 4.0 * (party[:, None] == party[None, :])
        self.constraints = []
        for c in live:
            conj = tuple((j + 1) in c.subset for j in range(n))
            s = np.repeat([-1.0 if cj else 1.0 for cj in conj], self.dims)
            # per coordinate, interleaved: (1, -s) turns G into Ĝ, (1, s) h into Jᵀr
            w_g, w_h = (np.stack([np.ones_like(s), v], axis=1).ravel() for v in (-s, s))
            t = c.complement_basis.conj().reshape((c.codim,) + self.dims)
            # views of t with party j's axis next to k's; moved[0] is t
            moved = [np.moveaxis(t, 1 + j, 1) for j in range(n)]
            self.constraints.append((conj, moved, w_g, w_h, 1j * np.outer(s, s)))

    @property
    def entries_per_start(self) -> int:
        return _entries_per_start(self.n_params, self.max_codim)

    def sq_norms(self, x: np.ndarray) -> np.ndarray:
        """(B, n) squared norms of the factors."""
        return np.add.reduceat(np.square(x.view(float)), 2 * self.starts, axis=1)

    def renormalize(self, x: np.ndarray) -> np.ndarray:
        """Unit factors; a factor of norm below 1e-150 becomes the first basis vector."""
        norm = np.sqrt(self.sq_norms(x))
        tiny = norm < 1e-150
        out = x.view(float) / np.repeat(np.where(tiny, 1.0, norm), self.param_dims, axis=1)
        out = out.view(complex)
        if tiny.any():
            out = np.where(np.repeat(tiny, self.dims, axis=1), self.first, out)
        return out

    def complex_factors(self, x: np.ndarray) -> list[np.ndarray]:
        """(B, d_j) complex factors of (B, n_params) standard normals in the
        draw's layout: each party's real parts, then its imaginary parts."""
        lo = 2 * self.starts
        return [x[:, a : a + d] + 1j * x[:, a + d : a + 2 * d] for a, d in zip(lo, self.dims)]

    def step(self, x: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Renormalized x + delta, with delta in the parameter layout."""
        return self.renormalize((x.view(float) + delta).view(complex))

    def _phi(self, x, xc, conj):
        return [xc[:, p, None] if c else x[:, p, None] for p, c in zip(self.parties, conj)]

    def cost(self, x: np.ndarray, penalty: bool = True) -> np.ndarray:
        """Squared residual norm of each row, with or without the norm penalties."""
        total = np.zeros(len(x))
        xc = x.conj()
        for conj, moved, *_ in self.constraints:
            z = _contract(moved[0], self._phi(x, xc, conj)).view(float)
            total += (z * z).sum(axis=1)
        if penalty:
            total += ((self.sq_norms(x) - 1.0) ** 2).sum(axis=1)
        return total

    def normal_equations(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """JᵀJ (B, p, p) and Jᵀr (B, p): 4 x xᵀ within each party for the norm
        penalties, and per constraint, with s = -1 on conjugated coordinates
        and +1 elsewhere, Ĝ_ef = (Re G_ef, -s_f Im G_ef) and i s_e s_f Ĝ_ef =
        (s_e Im G_ef, s_e s_f Re G_ef) on the rows of coordinate e's (re, im)
        parameters, and (Re h_e, s_e Im h_e) on Jᵀr."""
        b, size = x.shape
        xf = x.view(float)
        jtj = np.einsum("Zi,Zj->Zij", xf, xf)
        jtj *= self.penalty_mask
        g = xf * np.repeat(2.0 * (self.sq_norms(x) - 1.0), self.param_dims, axis=1)
        blocks = jtj.reshape(b, size, 2, 2 * size)
        xc = x.conj()
        for conj, moved, w_g, w_h, iss in self.constraints:
            phi = self._phi(x, xc, conj)
            a = np.empty((b, len(moved[0]), size + 1), dtype=complex)
            for j, (p, t) in enumerate(zip(self.parties, moved)):
                a[:, :, p] = _contract(t, phi[:j] + phi[j + 1 :])
            # z = M_1 φ_1 in A's last column, so that one product gives G and h
            a[:, :, size] = (a[:, :, self.parties[0]] @ phi[0])[:, :, 0]
            gram = (a.conj().transpose(0, 2, 1)[:, :size] @ a).view(float)
            g_hat = gram[:, :, : 2 * size] * w_g
            blocks[:, :, 0] += g_hat
            blocks[:, :, 1].view(complex)[:] += g_hat.view(complex) * iss
            g += gram[:, :, 2 * size :].reshape(b, 2 * size) * w_h
        return jtj, g


def _contract(t: np.ndarray, phi: Sequence[np.ndarray]) -> np.ndarray:
    """Σ over t's last len(phi) axes against the (B, d, 1) columns phi, last
    axis first: one stacked matrix-vector product per party, the first on t
    itself, each row's product its own.  Returns (B, *t's other axes), with
    B = 1 when phi is empty."""
    y = t[None]
    for f in reversed(phi):
        y = y.reshape(len(y), -1, f.shape[1]) @ f
    return y.reshape(len(y), *t.shape[: t.ndim - len(phi)])


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
    x = problem.renormalize(np.concatenate(factors, axis=1))
    out_x, out_reason = np.empty_like(x), np.empty(len(x), dtype=np.intp)
    rows = np.arange(len(x))  # the input row of every live start
    cost = problem.cost(x)
    lam = np.full(len(x), 1e-3)

    def retire(mask, reason):
        nonlocal x, rows, cost, lam
        if not mask.any():
            return
        done = rows[mask]
        out_x[done] = x[mask]
        out_reason[done] = reason
        keep = ~mask
        x, rows, cost, lam = x[keep], rows[keep], cost[keep], lam[keep]

    diag = np.arange(problem.n_params)
    for _ in range(max_iterations):
        retire(cost < 1e-30, _CONVERGED)
        if not rows.size:
            break
        jtj, g = problem.normal_equations(x)
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
            trial = problem.step(x[tried], delta[ok])
            trial_cost = problem.cost(trial)
            better = trial_cost < cost[tried]
            won = tried[better]
            rel[won] = (cost[won] - trial_cost[better]) / np.maximum(cost[won], 1e-300)
            x[won] = trial[better]
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
    factors = [out_x[:, p] for p in problem.parties]
    return factors, problem.cost(out_x, penalty=False), out_reason


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
    seed = stream_seed(config.seed)

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
