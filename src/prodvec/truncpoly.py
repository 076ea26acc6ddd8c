"""Sign products in the truncated integer polynomial ring.

The ring is Z[a_1, ..., a_n] / (a_1^{d_1}, ..., a_n^{d_n}): ordinary
integer polynomials in which any monomial with a_j raised to d_j or
higher is identically zero.  :func:`expand_product` expands a product of
signed linear forms there; the result is kept in canonical sparse form,
a map from exponent tuples to nonzero arbitrary-precision integers, so
the zero/nonzero question is always exact.  :func:`coefficient_direct`
is an independent oracle for single coefficients.

A critical product (sum k_i = N = sum m_j, m_j = d_j - 1) is its top
monomial prod_j a_j^{m_j} alone, with coefficient per(M) / prod m_j!,
where M repeats sign row i k_i times and column j m_j times.  Ryser's
formula with column multiplicities makes it one signed sum over the
ring's points t: top = sum_t prod_j (-1)^(m_j - t_j) C(m_j, t_j) / m_j!
* prod_i (sigma_i . t)^(k_i).  ``_critical_top`` evaluates it in int64
modulo primes below 2^31 whose product exceeds 2 N! / prod m_j! >= 2|top|
and rebuilds the exact integer by the Chinese remainder theorem.

Exponent vectors are plain tuples of non-negative ints, one entry per
variable.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import UnsupportedSizeError

Exponents = tuple[int, ...]

# Largest ring prod(dims) accepted, checked before any work.  At 2^20
# cells on a 2-CPU Xeon host, the critical top sum takes 0.6 s on (32,)^4,
# 0.8 s on (4,)^10 and (101,)^3, 1.9 s on (2,)^20 (20 rows), 2.2 s on
# (1024, 1024) (66 primes) and 2.6 s on (2^20,); the expansion, now for
# underdetermined specs only, 4.5 s on (32,)^4, 10 s on (4,)^10 and 18 s
# on (2,)^20.
MAX_RING_CELLS = 1 << 20
# Ring points per step of the critical top sum; bounds its temporaries.
_TOP_BLOCK = 1 << 11
# Primes below 2^31, largest first, extended as needed; 2^31 - 1 is prime.
_PRIMES = [(1 << 31) - 1]


def _sign_rows(sigma) -> tuple[tuple[int, ...], ...]:
    """Accept a SignMatrix-like object (``.entries``) or a plain row sequence."""
    rows = getattr(sigma, "entries", sigma)
    out = tuple(tuple(int(x) for x in row) for row in rows)
    if not out:
        raise ValueError("sign matrix must have at least one row")
    n = len(out[0])
    if n == 0 or any(len(row) != n for row in out):
        raise ValueError("sign matrix rows must all have the same positive length")
    if any(x not in (-1, 1) for row in out for x in row):
        raise ValueError("sign matrix entries must be +1 or -1")
    return out


class TruncatedPolynomial:
    """Immutable element of Z[a_1..a_n]/(a_j^{d_j}) in canonical sparse form."""

    __slots__ = ("dims", "coeffs")

    def __init__(self, dims: Sequence[int], coeffs: dict[Exponents, int] | None = None):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("dims must be a non-empty sequence of positive integers")
        clean: dict[Exponents, int] = {}
        for m, c in (coeffs or {}).items():
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

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedPolynomial is immutable")

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

    def __eq__(self, other):
        if not isinstance(other, TruncatedPolynomial):
            return NotImplemented
        return self.dims == other.dims and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dims, frozenset(self.coeffs.items())))

    def __repr__(self):
        if self.is_zero():
            return f"TruncatedPolynomial(dims={self.dims}, 0)"
        terms = ", ".join(f"{m}: {c}" for m, c in sorted(self.coeffs.items()))
        return f"TruncatedPolynomial(dims={self.dims}, {{{terms}}})"


def _checked(sigma, powers: Sequence[int], dims: Sequence[int]):
    """(rows, powers, dims) as int tuples; refuses large rings before reading the rows."""
    dims = tuple(int(d) for d in dims)
    if math.prod(dims) > MAX_RING_CELLS:
        raise UnsupportedSizeError(
            f"ring of {math.prod(dims)} cells exceeds the supported {MAX_RING_CELLS}"
        )
    rows = _sign_rows(sigma)
    powers = tuple(int(k) for k in powers)
    if len(powers) != len(rows):
        raise ValueError(f"{len(rows)} rows but {len(powers)} powers")
    if len(dims) != len(rows[0]):
        raise ValueError(f"{len(rows[0])} columns but {len(dims)} dims")
    if any(k < 0 for k in powers):
        raise ValueError("powers must be non-negative")
    return rows, powers, dims


def expand_product(sigma, powers: Sequence[int], dims: Sequence[int]) -> TruncatedPolynomial:
    """Expand prod_i (sum_j sigma[i][j] * a_j)^{powers[i]} in the truncated ring.

    ``sigma`` is an r x n matrix of +-1 signs (a SignMatrix or any row
    sequence); ``powers`` has one non-negative exponent per row and
    ``dims`` one truncation degree per variable.  All arithmetic is exact.
    Rings of more than MAX_RING_CELLS cells are refused.
    """
    rows, powers, dims = _checked(sigma, powers, dims)
    # Multiply by one linear factor at a time: a term c * a^m spreads to
    # s_j * c at m + e_j for every party j whose exponent may still grow.
    n = len(dims)
    coeffs: dict[Exponents, int] = {(0,) * n: 1}
    for row, k in zip(rows, powers):
        for _ in range(k):
            step: dict[Exponents, int] = {}
            for m, c in coeffs.items():
                for j in range(n):
                    if m[j] + 1 < dims[j]:
                        m2 = m[:j] + (m[j] + 1,) + m[j + 1 :]
                        step[m2] = step.get(m2, 0) + row[j] * c
            coeffs = {m: c for m, c in step.items() if c}
            if not coeffs:
                return TruncatedPolynomial(dims)
    return TruncatedPolynomial(dims, coeffs)


def _multinomial_count(parts: Sequence[int]) -> int:
    """(sum parts)! / prod parts! for non-negative parts, as a product of
    binomials, which math.comb computes far faster than the factorials."""
    return math.prod(math.comb(s, k) for s, k in zip(itertools.accumulate(parts), parts))


def _primes_over(bound: int) -> list[int]:
    """The leading primes below 2^31, largest first, whose product exceeds
    ``bound``.  New ones are found walking down the odd numbers with
    Miller-Rabin on bases 2, 7 and 61, which is exact below 4.7e9."""
    q = _PRIMES[-1]
    while math.prod(_PRIMES) <= bound:
        q -= 2
        s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = d * 2^s with d odd
        chains = [[pow(a, (q - 1) >> s << i, q) for i in range(s)] for a in (2, 7, 61)]
        if all(c[0] == 1 or q - 1 in c for c in chains):
            _PRIMES.append(q)
    count = next(i for i in range(1, len(_PRIMES) + 1) if math.prod(_PRIMES[:i]) > bound)
    return _PRIMES[:count]


def _difference_weights(m: int, q: int) -> list[int]:
    """(-1)^(m - t) C(m, t) / m! = (-1)^(m - t) / (t! (m - t)!) mod q, t = 0..m, prime q > m."""
    fact = list(itertools.accumulate(range(1, m + 1), lambda f, t: f * t % q, initial=1))
    inv = [0] * m + [pow(fact[m], -1, q)]  # inv[t] = 1/t!, filled from t = m down
    for t in range(m, 0, -1):
        inv[t - 1] = inv[t] * t % q
    return [(-1) ** (m - t) * inv[t] * inv[m - t] % q for t in range(m + 1)]


def _critical_top(sigma, powers: Sequence[int], dims: Sequence[int]) -> int:
    """Top coefficient of prod_i (sigma_i . a)^{k_i} when sum k_i = sum (d_j - 1),
    by the module docstring's sum; checks and size limit as :func:`expand_product`."""
    rows, powers, dims = _checked(sigma, powers, dims)
    m = [d - 1 for d in dims]
    big_n = sum(m)
    if sum(powers) != big_n:
        raise ValueError(f"|powers| = {sum(powers)} must equal sum(dims) - n = {big_n}")
    primes = _primes_over(2 * _multinomial_count(m))
    p = np.array(primes, dtype=np.int64)[:, None]
    weights = [np.array([_difference_weights(mj, q) for q in primes]) for mj in m]
    # v^k_i mod p for v = -N..N, one table per row, by square and multiply
    values, tables = np.arange(-big_n, big_n + 1) % p, []
    for k in powers:
        base, table = values, np.ones_like(values)
        while k:
            if k & 1:
                table = table * base % p
            base, k = base * base % p, k >> 1
        tables.append(table)
    # Residues are below 2^31, so each product is below 2^62 and a block
    # sum of _TOP_BLOCK = 2^11 residues below 2^42: int64 never overflows.
    total = np.zeros(len(primes), dtype=np.int64)
    cells = math.prod(dims)
    for start in range(0, cells, _TOP_BLOCK):
        t = np.unravel_index(np.arange(start, min(start + _TOP_BLOCK, cells)), dims)
        term = weights[0].take(t[0], axis=1)
        for w, tj in zip(weights[1:], t[1:]):
            term = term * w.take(tj, axis=1) % p
        for row, table in zip(rows, tables):  # table column v + N holds v^k_i
            v = sum((tj if s > 0 else -tj for s, tj in zip(row, t)), big_n)
            term = term * table.take(v, axis=1) % p
        total = (total + term.sum(axis=1)) % p[:, 0]
    top, mod = 0, 1
    for q, res in zip(primes, total.tolist()):
        top += mod * ((res - top) * pow(mod, -1, q) % q)
        mod *= q
    return top - mod if 2 * top > mod else top


def _multinomial(k: int, parts: Sequence[int]) -> int:
    if any(c < 0 for c in parts):
        return 0
    out = math.factorial(k)
    for c in parts:
        out //= math.factorial(c)
    return out


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
    of prod_i multinomial(k_i; c_i) * prod_j sigma[i][j]^{c_{i,j}}; a
    multinomial with a negative entry counts as 0.  This is the slow
    independent cross-check for :func:`expand_product`, valid for any m
    with |m| = |k| (including exponents at or beyond the truncation
    bounds, where the ring coefficient is defined as 0).
    """
    rows = _sign_rows(sigma)
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
            weight = _multinomial(powers[i], comp)
            for s, c in zip(rows[i], comp):
                if c and s < 0 and c % 2:
                    weight = -weight
            rest = tuple(v - c for v, c in zip(remaining, comp))
            total += weight * rec(i + 1, rest)
        return total

    return rec(0, m)
