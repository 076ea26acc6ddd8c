"""The benchmark's own exact oracles, independent of prodvec's code."""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def glynn_permanent(m) -> int:
    """Exact permanent by Glynn's formula with Gray-code updates, Python ints."""
    a = [[int(x) for x in row] for row in m]
    n = len(a)
    sums = [sum(a[i][j] for i in range(n)) for j in range(n)]  # all delta = +1
    delta = [1] * n
    total = 0
    sign = 1
    for k in range(1 << (n - 1)):
        if k:
            i = (k & -k).bit_length()  # flip delta_i, i in 1..n-1
            delta[i] = -delta[i]
            sign = -sign
            row = a[i]
            for j in range(n):
                sums[j] += 2 * delta[i] * row[j]
        prod = sign
        for s in sums:
            prod *= s
        total += prod
    return total >> (n - 1)


def merge_parallel(dims, constraints):
    """Merge equal or complementary subsets; keep the smaller subset and sum codims."""
    n = len(dims)
    full = math.prod(dims)
    merged: dict[tuple, list] = {}
    for s, k in constraints:
        s = tuple(sorted(s))
        comp = tuple(j for j in range(1, n + 1) if j not in s)
        key = min(s, comp)
        if key in merged:
            merged[key][0] = min(merged[key][0], s)
            merged[key][1] += k
        else:
            merged[key] = [s, k]
    return [(s, min(k, full)) for s, k in merged.values()]


def top_coefficient_fd(dims, constraints) -> int:
    """Coefficient of prod a_j^(d_j - 1) in prod_i (sigma_i . a)^(k_i).

    Finite-difference identity, with m_j = d_j - 1 and N = sum m_j:
    top = (1 / prod m_j!) sum_{0<=t<=m} (-1)^(N-|t|) prod_j C(m_j, t_j)
    prod_i (sigma_i . t)^(k_i).  Valid when sum k_i = N; the coefficient
    is 0 otherwise, since the product is homogeneous of degree sum k_i.
    """
    m = [d - 1 for d in dims]
    big_n = sum(m)
    if sum(k for _, k in constraints) != big_n:
        return 0
    n = len(dims)
    rows = [([-1 if j + 1 in s else 1 for j in range(n)], k) for s, k in constraints if k]
    total = 0
    for t in itertools.product(*(range(d) for d in dims)):
        term = 1
        for mj, tj in zip(m, t):
            term *= math.comb(mj, tj)
        for sigma, k in rows:
            term *= sum(s * x for s, x in zip(sigma, t)) ** k
        total += -term if (big_n - sum(t)) & 1 else term
    denom = 1
    for mj in m:
        denom *= math.factorial(mj)
    if total % denom:
        raise ArithmeticError("finite-difference sum not divisible by prod m_j!")
    return total // denom


def partial_transpose(mat: np.ndarray, dims, subset) -> np.ndarray:
    """Transpose the parties in ``subset`` (1-based), party 1 slowest."""
    n = len(dims)
    t = mat.reshape(tuple(dims) * 2)
    for j in subset:
        t = np.swapaxes(t, j - 1, n + j - 1)
    return t.reshape(mat.shape)


def canonical_subset(n: int, mask: int) -> list[int]:
    """Subset of parties 2..n selected by ``mask`` (party 2 = bit 0); the
    2^(n-1) masks cover every partial transpose up to a full transpose."""
    return [j + 2 for j in range(n - 1) if mask >> j & 1]


@functools.cache
def vanishing_count(n: int, normalized: bool) -> int:
    """Number of n x n sign matrices with zero permanent among all of them,
    or among those whose first row and column are +1 (``normalized``)."""
    free = [(i, j) for i in range(n) for j in range(n) if not normalized or (i and j)]
    bits = np.arange(1 << len(free), dtype=np.int64)
    mats = np.ones((bits.size, n, n), dtype=np.int64)
    for b, (i, j) in enumerate(free):
        mats[:, i, j] = 2 * ((bits >> b) & 1) - 1
    per = np.zeros(bits.size, dtype=np.int64)
    for k in range(1, n + 1):  # Ryser's formula over column subsets
        for cols in itertools.combinations(range(n), k):
            term = mats[:, :, list(cols)].sum(axis=2).prod(axis=1)
            per += term if (n - k) % 2 == 0 else -term
    return int(np.count_nonzero(per == 0))
