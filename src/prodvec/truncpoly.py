"""Sign products in the truncated integer polynomial ring.

The ring is Z[a_1, ..., a_n] / (a_1^{d_1}, ..., a_n^{d_n}): ordinary
integer polynomials in which any monomial with a_j raised to d_j or
higher is identically zero.  :func:`expand_product` expands a product of
signed linear forms there; the result is kept in canonical sparse form,
a map from exponent tuples to nonzero arbitrary-precision integers, so
the zero/nonzero question is always exact.  :func:`coefficient_direct`
is an independent oracle for single coefficients.

The expansion walks one homogeneous layer.  After s factors the product
is homogeneous of degree s, so the exponent of one party, a largest one,
is implied: m_last = s - sum_{j != last} m_j.  The layer is a dense array
over the other parties' exponents, prod_{j != last} d_j cells.  With
sigma_i,last factored out of row i, one step copies the layer (the a_last
term), adds it shifted by one along each other party's axis with sign
sigma_i,j * sigma_i,last (dropping m_j = d_j - 1), and zeroes the cells
whose implied m_last has reached d_last.  A coefficient of a^m is a signed
count of the deg! / prod m_j! words that spell m, so the largest such
multinomial on the ring bounds it.  While twice that bound is below 2^64
the walk adds in uint64 modulo 2^64 and reads the coefficients back as
int64.  Above it, the layer carries one residue row per prime from
``signmat._primes_over``: each step adds n * q before reducing modulo q,
as the true sum lies in (-nq, nq), and CRT over [2^64, *primes] rebuilds
each coefficient, as ``signmat.permanent`` does.

A critical product (sum k_i = sum_j (d_j - 1)) is its top monomial alone:
the walk's last layer is zero but for the top cell, per(M) / prod_j
(d_j - 1)!, where M repeats sign row i k_i times and column j d_j - 1
times.

Exponent vectors are plain tuples of non-negative ints, one entry per
variable.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedSizeError
from .signmat import SignMatrix, _crt, _primes_over, sign_matrix

Exponents = tuple[int, ...]

# Largest ring prod(dims) accepted, checked before any work.  At 2^20
# cells on a 2-CPU Xeon host, a critical verdict's layer walk takes 0.3 s
# on (2,)^20 (20 rows), (4,)^10, (16,)^5 and (32,)^4, 0.4 s on (101,)^3,
# 1.0 s on (1024, 1024) (64 primes) and 1.8 s on (2^19, 2), the slowest
# verdict admitted: 2^19 steps on a layer of two cells.  (2^20,) has no
# layer to walk.  An underdetermined verdict takes about as long as a
# critical one on the same ring.
MAX_RING_CELLS = 1 << 20


@dataclass(frozen=True)
class TruncatedPolynomial:
    """Immutable element of Z[a_1..a_n]/(a_j^{d_j}) in canonical sparse form."""

    dims: Sequence[int]
    coeffs: dict[Exponents, int] | None = None

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("dims must be a non-empty sequence of positive integers")
        clean: dict[Exponents, int] = {}
        for m, c in (self.coeffs or {}).items():
            m = tuple(int(e) for e in m)
            if len(m) != len(dims):
                raise ValueError(f"exponent vector {m} has wrong length for {len(dims)} variables")
            if any(e < 0 for e in m):
                raise ValueError(f"negative exponent in {m}")
            if c == 0 or any(e >= d for e, d in zip(m, dims)):
                continue
            clean[m] = int(c)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _trusted(cls, dims: tuple[int, ...], coeffs: dict[Exponents, int]):
        """An element from in-range exponent tuples and nonzero int
        coefficients, taken as they are, without the checks of __init__."""
        self = object.__new__(cls)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exponents: Sequence[int]) -> int:
        """Coefficient of a^m; 0 for absent or out-of-bounds monomials."""
        m = tuple(int(e) for e in exponents)
        if len(m) != len(self.dims):
            raise ValueError("exponent vector has wrong length")
        return self.coeffs.get(m, 0)

    def top_coefficient(self) -> int:
        """Coefficient of prod_j a_j^{d_j - 1}, the maximal monomial of the ring."""
        return self.coeffs.get(tuple(d - 1 for d in self.dims), 0)

    def __hash__(self):
        return hash((self.dims, frozenset(self.coeffs.items())))

    def __repr__(self):
        if self.is_zero():
            return f"TruncatedPolynomial(dims={self.dims}, 0)"
        terms = ", ".join(f"{m}: {c}" for m, c in sorted(self.coeffs.items()))
        return f"TruncatedPolynomial(dims={self.dims}, {{{terms}}})"


def _checked(sigma, powers: Sequence[int], dims: Sequence[int]):
    """(rows, powers, dims); refuses large rings before reading the rows."""
    dims = tuple(int(d) for d in dims)
    if math.prod(dims) > MAX_RING_CELLS:
        raise UnsupportedSizeError(
            f"ring of {math.prod(dims)} cells exceeds the supported {MAX_RING_CELLS}"
        )
    if any(d < 1 for d in dims):
        raise ValueError("dims must be positive integers")
    rows = (sigma if isinstance(sigma, SignMatrix) else sign_matrix(sigma)).entries
    powers = tuple(int(k) for k in powers)
    if len(powers) != len(rows):
        raise ValueError(f"{len(rows)} rows but {len(powers)} powers")
    if len(dims) != len(rows[0]):
        raise ValueError(f"{len(rows[0])} columns but {len(dims)} dims")
    if any(k < 0 for k in powers):
        raise ValueError("powers must be non-negative")
    return rows, powers, dims


@functools.lru_cache(maxsize=8)
def _layer(shape: tuple[int, ...]):
    """For a layer of ``shape``: the degree of each cell (flat, read-only;
    at most 2^19 cells, so 4 MB), and for each axis the index of the cells
    one above its first and those one below its last, behind one leading
    residue axis."""
    level = functools.reduce(np.add.outer, map(np.arange, shape)).ravel()
    level.flags.writeable = False
    ends = [(slice(None),) * (j + 1) for j in range(len(shape))]
    return level, tuple((e + (slice(1, None),), e + (slice(None, -1),)) for e in ends)


def expand_product(sigma, powers: Sequence[int], dims: Sequence[int]) -> TruncatedPolynomial:
    """Expand prod_i (sum_j sigma[i][j] * a_j)^{powers[i]} in the truncated ring.

    ``sigma`` is an r x n matrix of +-1 signs: a SignMatrix, taken as it
    is, or rows that ``sign_matrix`` accepts.  ``powers`` has one
    non-negative exponent per row and ``dims`` one truncation degree per
    variable.  All arithmetic is exact.  Rings of more than MAX_RING_CELLS
    cells are refused before the rows are read.
    """
    rows, powers, dims = _checked(sigma, powers, dims)
    n, deg = len(dims), sum(powers)
    if deg > sum(dims) - n:  # every monomial of degree deg is cut off
        return TruncatedPolynomial._trusted(dims, {})
    # The last party, a largest one, keeps the layer smallest.  Factoring
    # sigma_i,last out of row i, each step multiplies by a_last + sum_j
    # s_j a_j with s_j = sigma_i,j * sigma_i,last; a_j = 0 when d_j = 1.
    last = dims.index(max(dims))
    axes = [j for j in range(n) if j != last and dims[j] > 1]
    sign = (-1) ** sum(k for row, k in zip(rows, powers) if row[last] < 0)
    if not axes:
        return TruncatedPolynomial._trusted(dims, {tuple(deg * (j == last) for j in range(n)): sign})
    # twice the largest multinomial on the ring bounds twice any
    # coefficient; below 2^64 the uint64 walk alone is exact, with no primes
    primes = _primes_over(2 * _coefficient_bound(deg, dims) >> 64)
    shape = tuple(dims[j] for j in axes)
    level, shifts = _layer(shape)
    bufs = [np.zeros((1 + len(primes), *shape), dtype=np.uint64) for _ in range(2)]
    flats = [b.reshape(1 + len(primes), -1) for b in bufs]
    flats[0][:, 0] = [sign % (1 << 64), *(sign % q for q in primes)]
    views = [[(b[up], b[down]) for up, down in shifts] for b in bufs]
    if primes:
        q = np.array(primes, dtype=np.uint64)[:, None]
        nq = n * q
    s = 0
    for row, k in zip(rows, powers):
        ops = [np.add if row[j] == row[last] else np.subtract for j in axes]
        for _ in range(k):
            cur, nxt = s & 1, ~s & 1
            s += 1
            if s >= dims[last]:  # a_last times a cell at level s - d_last is cut off
                np.multiply(flats[cur], level != s - dims[last], out=flats[nxt])
            else:
                np.copyto(flats[nxt], flats[cur])
            for op, (dst, _), (_, src) in zip(ops, views[nxt], views[cur]):
                op(dst, src, out=dst)
            if primes:
                res = flats[nxt][1:]
                res += nq  # the true sum lies in (-nq, nq): undo the wrap
                res %= q
    flat = flats[s & 1]
    cells = np.flatnonzero(flat.any(axis=0))
    if primes:
        moduli = [1 << 64, *primes]
        values = [_crt(r, moduli) for r in flat[:, cells].T.tolist()]
    else:
        values = flat[0, cells].view(np.int64).tolist()
    exps = dict(zip(axes, np.unravel_index(cells, shape)))
    exps[last] = deg - level[cells]
    zero = [0] * len(cells)
    keys = zip(*(exps[j].tolist() if j in exps else zero for j in range(n)))
    return TruncatedPolynomial._trusted(dims, dict(zip(keys, values)))


def _multinomial_count(parts: Sequence[int]) -> int:
    """(sum parts)! / prod parts! for non-negative parts, as a product of
    binomials, which math.comb computes far faster than the factorials."""
    return math.prod(math.comb(s, k) for s, k in zip(itertools.accumulate(parts), parts))


@functools.lru_cache(maxsize=256)
def _coefficient_bound(deg: int, dims: tuple[int, ...]) -> int:
    """The largest deg! / prod m_j! over exponents m of degree deg with
    m_j < d_j, for deg <= sum (d_j - 1): the m that fills the smallest
    caps first and splits the rest evenly, as log m! is convex."""
    caps, m = sorted(d - 1 for d in dims), []
    for i, c in enumerate(caps):
        share, extra = divmod(deg - sum(m), len(caps) - i)
        if c > share:
            m += [share + 1] * extra + [share] * (len(caps) - i - extra)
            break
        m.append(c)
    return _multinomial_count(m)


def _bounded_compositions(total: int, bounds: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """All ways to write ``total`` as a sum over positions, entry j at most bounds[j]."""
    n = len(bounds)

    def rec(j: int, remaining: int, prefix: tuple[int, ...]):
        if j == n - 1:
            if remaining <= bounds[j]:
                yield prefix + (remaining,)
            return
        for c in range(min(remaining, bounds[j]) + 1):
            yield from rec(j + 1, remaining - c, prefix + (c,))

    if n:
        yield from rec(0, total, ())


def coefficient_direct(sigma, powers: Sequence[int], exponents: Sequence[int]) -> int:
    """Untruncated coefficient of a^m in prod_i (sigma_i . a)^{k_i}, by direct expansion.

    Sums over all splittings m_j = sum_i c_{i,j} with sum_j c_{i,j} = k_i
    of prod_i multinomial(k_i; c_i) * prod_j sigma[i][j]^{c_{i,j}}, with
    ``sigma`` read as in :func:`expand_product`.  This is the slow
    independent cross-check for :func:`expand_product`, valid for any m
    with |m| = |k| (including exponents at or beyond the truncation
    bounds, where the ring coefficient is defined as 0).
    """
    rows = (sigma if isinstance(sigma, SignMatrix) else sign_matrix(sigma)).entries
    powers = tuple(int(k) for k in powers)
    m = tuple(int(e) for e in exponents)
    if len(powers) != len(rows):
        raise ValueError(f"{len(rows)} rows but {len(powers)} powers")
    if len(m) != len(rows[0]):
        raise ValueError("exponent vector has wrong length")
    if sum(powers) != sum(m):
        raise ValueError(f"|exponents| = {sum(m)} must equal |powers| = {sum(powers)}")
    if any(k < 0 for k in powers) or any(e < 0 for e in m):
        return 0

    r = len(rows)

    def rec(i: int, remaining: tuple[int, ...]) -> int:
        if i == r:
            return 1 if all(v == 0 for v in remaining) else 0
        total = 0
        for comp in _bounded_compositions(powers[i], remaining):
            weight = _multinomial_count(comp)
            for s, c in zip(rows[i], comp):
                if c and s < 0 and c % 2:
                    weight = -weight
            rest = tuple(v - c for v, c in zip(remaining, comp))
            total += weight * rec(i + 1, rest)
        return total

    return rec(0, m)
