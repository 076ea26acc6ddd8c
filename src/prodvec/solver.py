"""Numerical search for partially-conjugated product vectors in subspaces.

Independent of the exact decision engine: membership of the conjugated
product vector in each prescribed subspace is recast as a smooth real
least-squares problem over the product of unit spheres, attacked by
multi-start damped Gauss-Newton (Levenberg-Marquardt) on the stacked
real and imaginary parts of the basis inner products.  Restart i draws
its starting point from a counter-based generator keyed by
(seed, i), so runs are reproducible regardless of scheduling.

A small residual certifies a solution (membership can be checked
directly); a large residual floor across many restarts is *evidence* of
nonexistence, never proof - the conjugations make the system real
rather than complex-algebraic, so no root-count certificate applies.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedSizeError
from .solvability import ProblemSpec, generic_count, parallel_groups, problem_spec

_PHASE_EPS = 1e-12
# Largest product-space dimension prod(dims) for which a d x d state or a
# d x codim random basis is allocated; a d x d complex matrix at 4096
# takes 256 MB.  Checked before allocation.
MAX_SPACE_DIM = 4096


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


def _fix_phase(v: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(np.abs(v) > _PHASE_EPS)
    if nz.size:
        a = v[nz[0]]
        v = v * (a.conjugate() / abs(a))
    return v


def product_vector(factors: Sequence[np.ndarray]) -> ProductVector:
    """Normalize factors, apply the phase convention, and wrap."""
    fixed = []
    for f in factors:
        f = np.asarray(f, dtype=complex).ravel()
        norm = np.linalg.norm(f)
        if norm < _PHASE_EPS:
            raise ValueError("zero factor")
        fixed.append(_fix_phase(f / norm))
    return ProductVector(tuple(fixed))


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
    rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), 0]))
    out = []
    for c in spec.constraints:
        z = rng.standard_normal((d, c.codim)) + 1j * rng.standard_normal((d, c.codim))
        q, _ = np.linalg.qr(z)
        out.append(SubspaceConstraint(c.subset, np.ascontiguousarray(q.T)))
    return out


def spec_of_constraints(dims: Sequence[int], constraints: Sequence[SubspaceConstraint]) -> ProblemSpec:
    return problem_spec(dims, [(c.subset, c.codim) for c in constraints])


def reduce_instance(
    dims: Sequence[int], constraints: Sequence[SubspaceConstraint]
) -> list[SubspaceConstraint]:
    """Merge constraints with equal or complementary subsets, combining subspaces.

    An equal-subset pair intersects the two subspaces; a complementary
    pair intersects with the entrywise conjugate of the second (the
    conjugated membership relation rewritten over the kept subset).  The
    merged complement basis is re-orthonormalized, with its rank as the
    new codimension.
    """
    out = []
    for subset, members in parallel_groups([c.subset for c in constraints], len(dims)):
        if len(members) == 1:
            out.append(SubspaceConstraint(subset, constraints[members[0]].complement_basis))
            continue
        rows = []
        for i in members:
            c = constraints[i]
            b = c.complement_basis
            rows.append(b if frozenset(c.subset) == subset else b.conj())
        stacked = np.vstack([r for r in rows if r.shape[0]])
        if stacked.shape[0] == 0:
            basis = np.zeros((0, math.prod(dims)), dtype=complex)
        else:
            _, sv, vh = np.linalg.svd(stacked, full_matrices=False)
            keep = sv > 1e-10 * max(sv[0], 1.0)
            basis = np.ascontiguousarray(vh[keep])
        out.append(SubspaceConstraint(subset, basis))
    return out


def residual(psi: ProductVector, constraints: Sequence[SubspaceConstraint]) -> float:
    """Sum of squared moduli of all basis inner products; zero iff all memberships hold."""
    total = 0.0
    for c in constraints:
        if not c.codim:
            continue
        w = partial_conjugate(psi, c.subset).full_vector()
        z = c.complement_basis.conj() @ w
        total += float(np.vdot(z, z).real)
    return total


# -- the optimizer -----------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    restarts: int | None = None  # None: max(500, 50 * generic count) when defined
    max_iterations: int = 120
    accept_threshold: float = 1e-14
    reject_threshold: float = 1e-8
    dedupe_tolerance: float = 1e-6
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


class _Objective:
    """Residuals and Jacobian in real-ified coordinates for fixed constraints.

    Parameters are the stacked real and imaginary parts of all factors;
    the residual vector stacks Re/Im of every basis inner product plus
    one norm penalty (|psi_j|^2 - 1) per factor, which pins the scale
    gauge without moving the zero set off the unit spheres.
    """

    def __init__(self, dims: Sequence[int], constraints: Sequence[SubspaceConstraint]):
        self.dims = tuple(int(d) for d in dims)
        self.constraints = [c for c in constraints if c.codim]
        n = len(self.dims)
        self.n = n
        self.offsets = np.cumsum([0] + [2 * d for d in self.dims])
        self.n_params = int(self.offsets[-1])
        self.tensors = [
            c.complement_basis.conj().reshape((c.codim,) + self.dims)
            for c in self.constraints
        ]
        if n > 25:
            raise ValueError("at most 25 parties supported")
        letters = "abcdefghijklmnopqrstuvwxy"[:n]
        self.full_sub = ["z" + letters] + list(letters)
        self.partial_subs = []
        for j in range(n):
            ops = ["z" + letters] + [letters[l] for l in range(n) if l != j]
            self.partial_subs.append(",".join(ops) + "->z" + letters[j])
        self.einsum_full = ",".join(self.full_sub) + "->z"

    def unpack(self, x: np.ndarray) -> list[np.ndarray]:
        out = []
        for j, d in enumerate(self.dims):
            seg = x[self.offsets[j] : self.offsets[j + 1]]
            out.append(seg[:d] + 1j * seg[d:])
        return out

    def pack(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        parts = []
        for f in factors:
            parts.append(f.real)
            parts.append(f.imag)
        return np.concatenate(parts)

    def renormalize(self, x: np.ndarray) -> np.ndarray:
        factors = self.unpack(x)
        for f in factors:
            norm = np.linalg.norm(f)
            if norm < 1e-150:
                f[:] = 0.0
                f[0] = 1.0
            else:
                f /= norm
        return self.pack(factors)

    def _conjugated(self, factors, subset):
        return [f.conj() if (j + 1) in subset else f for j, f in enumerate(factors)]

    def cost(self, x: np.ndarray) -> float:
        factors = self.unpack(x)
        total = 0.0
        for c, t in zip(self.constraints, self.tensors):
            phi = self._conjugated(factors, c.subset)
            z = np.einsum(self.einsum_full, t, *phi)
            total += float(np.vdot(z, z).real)
        for f in factors:
            total += (float(np.vdot(f, f).real) - 1.0) ** 2
        return total

    def residuals_jacobian(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        factors = self.unpack(x)
        n = self.n
        rows = []
        jac_blocks = []
        for c, t in zip(self.constraints, self.tensors):
            phi = self._conjugated(factors, c.subset)
            z = np.einsum(self.einsum_full, t, *phi)
            rows.append(z.real)
            rows.append(z.imag)
            block = np.zeros((2 * z.size, self.n_params))
            for j in range(n):
                others = [phi[l] for l in range(n) if l != j]
                m = np.einsum(self.partial_subs[j], t, *others)
                sgn = -1.0 if (j + 1) in c.subset else 1.0
                lo, d = self.offsets[j], self.dims[j]
                block[: z.size, lo : lo + d] = m.real
                block[: z.size, lo + d : lo + 2 * d] = -sgn * m.imag
                block[z.size :, lo : lo + d] = m.imag
                block[z.size :, lo + d : lo + 2 * d] = sgn * m.real
            jac_blocks.append(block)
        # norm penalties: one row per factor
        pen = np.zeros((n, self.n_params))
        pen_rows = np.zeros(n)
        for j, f in enumerate(factors):
            pen_rows[j] = np.vdot(f, f).real - 1.0
            lo, d = self.offsets[j], self.dims[j]
            pen[j, lo : lo + d] = 2.0 * f.real
            pen[j, lo + d : lo + 2 * d] = 2.0 * f.imag
        rows.append(pen_rows)
        jac_blocks.append(pen)
        return np.concatenate(rows), np.vstack(jac_blocks)


def _minimize(
    obj: _Objective, x0: np.ndarray, max_iterations: int, reject_threshold: float
) -> tuple[np.ndarray, float]:
    """Damped Gauss-Newton from one start; returns (point, cost without penalty)."""
    x = obj.renormalize(x0)
    cost = obj.cost(x)
    lam = 1e-3
    for _ in range(max_iterations):
        if cost < 1e-30:
            break
        r, jac = obj.residuals_jacobian(x)
        jtj = jac.T @ jac
        g = jac.T @ r
        if np.linalg.norm(g) < 1e-15:
            break
        stepped = False
        for _ in range(25):
            try:
                delta = np.linalg.solve(jtj + lam * np.eye(obj.n_params), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = obj.renormalize(x + delta)
            cost_new = obj.cost(x_new)
            if cost_new < cost:
                rel = (cost - cost_new) / max(cost, 1e-300)
                x, cost = x_new, cost_new
                lam = max(lam / 3.0, 1e-14)
                stepped = True
                break
            lam *= 10.0
            if lam > 1e10:
                break
        if not stepped:
            break
        if rel < 1e-9 and cost > reject_threshold:
            break  # stagnated well above the solution floor: hopeless restart
    # penalty is zero at renormalized points, so cost is the true residual
    return x, cost


def count_distinct(solutions: Sequence[ProductVector], tol: float) -> int:
    """Number of projective classes: vectors are identified when the product
    of factor overlap moduli exceeds 1 - tol."""
    return len(_dedupe([(s, 0.0) for s in solutions], tol))


def _dedupe(
    entries: Sequence[tuple[ProductVector, float]], tol: float
) -> list[tuple[ProductVector, float]]:
    """One (vector, cost) per projective class, in order of first appearance.

    A vector joins the first representative it overlaps by more than
    1 - tol, and replaces it when its cost is lower.
    """
    reps: list[tuple[ProductVector, float]] = []
    for vec, cost in entries:
        hit = next(
            (idx for idx, (rvec, _) in enumerate(reps) if _overlap(vec, rvec) > 1.0 - tol),
            None,
        )
        if hit is None:
            reps.append((vec, cost))
        elif cost < reps[hit][1]:
            reps[hit] = (vec, cost)
    return reps


def _overlap(a: ProductVector, b: ProductVector) -> float:
    out = 1.0
    for fa, fb in zip(a.factors, b.factors):
        out *= abs(np.vdot(fa, fb))
    return out


def solve(
    constraints: Sequence[SubspaceConstraint],
    dims: Sequence[int],
    config: SolverConfig | None = None,
) -> SolveReport:
    """Multi-start minimization of the membership residual.

    Every restart below ``accept_threshold`` contributes a solution;
    restarts are deterministic given ``config.seed`` (restart i draws
    from a counter-based stream keyed by (seed, i)).  When all
    constraints are vacuous the residual is identically zero and only a
    handful of restarts are run, each returning its start point.
    """
    config = config or SolverConfig()
    if config.restarts is not None and config.restarts < 0:
        raise ValueError(f"restarts must be non-negative, got {config.restarts}")
    dims = tuple(int(d) for d in dims)
    obj = _Objective(dims, constraints)
    restarts = config.restarts
    if restarts is None:
        expected = generic_count(spec_of_constraints(dims, constraints))
        restarts = max(500, 50 * expected) if expected else 500
    if not obj.constraints:
        restarts = min(restarts, 8)
    seed = int(config.seed) & (2**64 - 1)

    found: list[tuple[np.ndarray, float]] = []
    floor = math.inf
    for i in range(restarts):
        rng = np.random.Generator(np.random.Philox(key=[seed, i + 1]))
        start = []
        for d in dims:
            start.append(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        x0 = obj.pack([f / np.linalg.norm(f) for f in start])
        x, cost = _minimize(obj, x0, config.max_iterations, config.reject_threshold)
        floor = min(floor, cost)
        if cost < config.accept_threshold:
            found.append((x, cost))

    # canonical order before dedupe, so the report does not depend on
    # restart scheduling
    entries = []
    for x, cost in found:
        vec = product_vector(obj.unpack(x))
        key = tuple(np.round(np.concatenate([f.view(float) for f in vec.factors]), 9))
        entries.append((key, vec, cost))
    entries.sort(key=lambda e: e[0])

    reps = _dedupe([(vec, cost) for _, vec, cost in entries], config.dedupe_tolerance)
    solutions = tuple(Solution(v, c) for v, c in reps)
    return SolveReport(
        solutions=solutions,
        distinct_count=len(solutions),
        residual_floor=floor if restarts else math.inf,
        restarts_used=restarts,
        seed=seed,
    )
