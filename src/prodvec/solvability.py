"""Decision engine for partially-conjugated product-vector existence.

A problem instance prescribes, for each constraint i, a subset S_i of
parties whose factors are conjugated and the codimension k_i of the
subspace the conjugated product vector must lie in.  The engine compares
the equation count N_E = sum k_i with the unknown count
N_U = sum (d_j - 1), examines the sign product polynomial in the
truncated ring, and returns the strongest verdict the underlying theory
licenses, or ``inconclusive`` when none applies.

Verdict basis tags (one fixed rule per tag):

- ``overdetermined-generic``: N_E > N_U; no solution for generic subspaces
  (individual instances may still have solutions - the verdict carries
  ``generic=True``).
- ``critical-top-coefficient``: N_E = N_U and the coefficient of the
  maximal monomial prod_j a_j^{d_j-1} is nonzero; a solution exists.
  The product is then that monomial alone, and its coefficient is the
  top cell of ``truncpoly.expand_product``'s layer walk.
- ``underdetermined-nonvanishing``: N_E < N_U and the sign product is
  nonzero in the truncated ring; infinitely many solutions.
- ``underdetermined-full-rank``: N_E < N_U and the reduced sign matrix
  has full row rank; infinitely many solutions.
- ``small-system``: N_E < N_U with two parties, or with all qubit factors
  and at most four parties; infinitely many solutions.
- ``qubit-solvable-count``: all qubit factors with party count one less
  than a power of two and N_E <= n; a solution exists (no square sign
  matrix of that order has vanishing permanent).

A zero sign product never certifies nonexistence: whether nonexistence
can follow from vanishing alone is open, so the engine answers
``inconclusive`` there.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from . import truncpoly
from .signmat import associated_matrix, integer_rank

GENERICALLY_EMPTY = "generically-empty"
EXISTS_NONZERO = "exists-nonzero"
INFINITELY_MANY = "infinitely-many"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Constraint:
    """One membership constraint: conjugate the parties in ``subset`` (1-based)."""

    subset: frozenset[int]
    codim: int


@dataclass(frozen=True)
class ProblemSpec:
    dims: tuple[int, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if not self.dims or any(d < 2 for d in self.dims):
            raise ValueError("dims must be integers >= 2")
        n = len(self.dims)
        full = math.prod(self.dims)
        for c in self.constraints:
            if any(not 1 <= j <= n for j in c.subset):
                raise ValueError(f"subset {sorted(c.subset)} out of range 1..{n}")
            if not 0 <= c.codim <= full:
                raise ValueError(f"codim {c.codim} outside 0..{full}")

    @property
    def n_parties(self) -> int:
        return len(self.dims)


def problem_spec(
    dims: Sequence[int], constraints: Iterable[tuple[Iterable[int], int]]
) -> ProblemSpec:
    """Convenience constructor from (subset, codim) pairs."""
    return ProblemSpec(
        tuple(int(d) for d in dims),
        tuple(Constraint(frozenset(int(j) for j in s), int(k)) for s, k in constraints),
    )


def counts(spec: ProblemSpec) -> tuple[int, int]:
    """(N_E, N_U) for the spec as given, without reduction."""
    n_e = sum(c.codim for c in spec.constraints)
    n_u = sum(d - 1 for d in spec.dims)
    return n_e, n_u


def reduce(spec: ProblemSpec) -> ProblemSpec:
    """Merge constraints whose subsets are equal or complementary.

    Groups come in order of first appearance.  The merged constraint
    keeps the lexicographically smallest sorted subset among its members
    and the sum of the codimensions, saturated at prod(dims) (a
    complement's dimension cannot exceed the ambient space).  The result
    has pairwise non-parallel subsets and is a fixed point of this
    function.
    """
    n, full = spec.n_parties, math.prod(spec.dims)
    groups: dict[tuple[int, ...], list[Constraint]] = {}
    for c in spec.constraints:
        s = tuple(sorted(c.subset))
        comp = tuple(j for j in range(1, n + 1) if j not in c.subset)
        groups.setdefault(min(s, comp), []).append(c)
    merged = tuple(
        Constraint(min((c.subset for c in g), key=sorted), min(sum(c.codim for c in g), full))
        for g in groups.values()
    )
    return ProblemSpec(spec.dims, merged)


@dataclass(frozen=True)
class Verdict:
    """Outcome of the decision procedure plus the evidence it rests on.

    ``generic`` marks conclusions that hold only outside a measure-zero
    set of subspace choices; only ``generically-empty`` carries it, and
    such a verdict is *not* instance-level nonexistence evidence (that
    is the numerical solver's job).
    """

    kind: str
    basis: str | None
    generic: bool
    n_equations: int
    n_unknowns: int
    sigma_rank: int
    top_coefficient: int
    product_vanishes: bool


def verdict(spec: ProblemSpec) -> Verdict:
    """Strongest licensed conclusion for the (internally reduced) spec.

    The decision rules are tried in a fixed order so that the strongest
    conclusion wins in the under-determined case; see the module
    docstring for the tag glossary.
    """
    red = reduce(spec)
    n_e, n_u = counts(red)
    n = red.n_parties
    r = len(red.constraints)
    # The sign product prod_i (sigma_i . a)^{k_i} in the truncated ring is
    # homogeneous of degree n_e, and no monomial above degree n_u (>= 1)
    # survives: n_e > n_u makes it 0 unexpanded, n_e = n_u leaves the top
    # monomial alone, and n_e < n_u leaves the top coefficient 0 (with no
    # constraints the product is the unit).
    top, vanishes, rank = 0, n_e > n_u, 0
    if r:
        sigma = associated_matrix([c.subset for c in red.constraints], n)
        rank = integer_rank(sigma.entries)
        if not vanishes:
            product = truncpoly.expand_product(sigma, [c.codim for c in red.constraints], red.dims)
            top, vanishes = product.top_coefficient(), product.is_zero()

    def make(kind, basis, generic=False):
        return Verdict(
            kind=kind,
            basis=basis,
            generic=generic,
            n_equations=n_e,
            n_unknowns=n_u,
            sigma_rank=rank,
            top_coefficient=top,
            product_vanishes=vanishes,
        )

    all_qubits = all(d == 2 for d in red.dims)
    if n_e > n_u:
        return make(GENERICALLY_EMPTY, "overdetermined-generic", generic=True)
    if n_e == n_u and top != 0:
        return make(EXISTS_NONZERO, "critical-top-coefficient")
    if n_e < n_u and not vanishes:
        return make(INFINITELY_MANY, "underdetermined-nonvanishing")
    if n_e < n_u and rank == r:
        return make(INFINITELY_MANY, "underdetermined-full-rank")
    if n_e < n_u and (n == 2 or (all_qubits and n in (3, 4))):
        return make(INFINITELY_MANY, "small-system")
    if all_qubits and n >= 3 and (n + 1) & n == 0 and n_e <= n:
        return make(EXISTS_NONZERO, "qubit-solvable-count")
    return make(INCONCLUSIVE, None)


def generic_count(spec: ProblemSpec) -> int | None:
    """Number of distinct solutions for generic subspaces, in the settled case.

    Defined when, after reduction, the constraints collapse to a single
    one with nothing conjugated (or everything, which is the same
    problem) and the instance is critical; the count is then the
    multinomial (sum (d_j - 1))! / prod (d_j - 1)!.  Returns None
    otherwise.
    """
    red = reduce(spec)
    n_e, n_u = counts(red)
    if n_e != n_u or len(red.constraints) != 1:
        return None
    subset = red.constraints[0].subset
    if subset and subset != frozenset(range(1, red.n_parties + 1)):
        return None
    return truncpoly._multinomial_count([d - 1 for d in red.dims])
