"""Independent references for the sign-matrix tests: the brute vanishing
sweep, the permanent of a sum by complementary minors, and classification
by one ``canonical_form`` per vanishing candidate."""

import itertools
from collections.abc import Sequence

import numpy as np

from prodvec import signmat
from prodvec.errors import UnsupportedSizeError

ADDITION_MAX_N = 8


def find_vanishing(n: int, normalized: bool) -> np.ndarray:
    """Encoded patterns of n x n sign matrices with permanent zero.

    Exhaustive mode sweeps all 2^(n^2) matrices; normalized mode fixes the
    first row and column to +1 and sweeps the 2^((n-1)^2) interior
    patterns.  Returns an int64 array of full-matrix encodings in
    ascending order: chunks are swept in order, and a fixed +1 border
    keeps the order of interior patterns.
    """
    # full-matrix encodings take n^2 bits in either mode, and the sweep
    # counts patterns in int64
    if n * n > 62:
        raise UnsupportedSizeError(
            f"sign patterns of n = {n} need {n * n} bits; the int64 sweep supports at most 62"
        )
    side = n - 1 if normalized else n
    total = 1 << (side * side)
    chunk = signmat._SWEEP_CHUNK
    found = []
    for start in range(0, total, chunk):
        raw = np.arange(start, min(start + chunk, total), dtype=np.int64)
        mats = signmat._unpack(raw, side * side).reshape(len(raw), side, side)
        if normalized:
            mats = np.pad(mats, ((0, 0), (1, 0), (1, 0)), constant_values=1)
        vanishing = mats[signmat.batch_permanent(mats) == 0]
        found.append(signmat._pack(vanishing.reshape(len(vanishing), n * n)))
    return np.concatenate(found)


def _minor_permanents(a: list[list[int]]) -> dict[tuple[int, int], int]:
    """per(a[S|T]) for all equal-size row and column bitmasks S, T, size by
    size, expanding along the lowest row of S (the empty minor has permanent 1)."""
    n = len(a)
    per = {(0, 0): 1}
    for _, same in itertools.groupby(sorted(range(1, 1 << n), key=int.bit_count), int.bit_count):
        same = list(same)
        for s, t in itertools.product(same, same):
            row, rest = a[(s & -s).bit_length() - 1], s & (s - 1)
            per[s, t] = sum(row[j] * per[rest, t ^ 1 << j] for j in range(n) if t >> j & 1)
    return per


def permanent_addition(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> int:
    """per(a + b) evaluated through the expansion over complementary minors.

    Sums per(a[S|T]) * per(b(S|T)) over all index subsets S, T of equal
    size, where a[S|T] keeps rows S / columns T and b(S|T) deletes them;
    the empty minor has permanent 1.  Exact, and equal to the permanent
    of the entrywise sum.
    """
    a = [list(map(int, row)) for row in a]
    b = [list(map(int, row)) for row in b]
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n or any(len(row) != n for row in b):
        raise ValueError("matrices must be square and of equal size")
    if n > ADDITION_MAX_N:
        raise ValueError(f"permanent_addition supports n <= {ADDITION_MAX_N}")
    per_a, per_b = _minor_permanents(a), _minor_permanents(b)
    full = (1 << n) - 1
    return sum(v * per_b[full ^ s, full ^ t] for (s, t), v in per_a.items())


def canonical_codes(n: int, count: int | None = None) -> list[int]:
    """Classification by one ``canonical_form`` per candidate: the encoded
    canonical forms of the first ``count`` (all for None) vanishing
    sorted-row candidates, in the sweep's order.  The classes of a budget
    b are the distinct codes among the first b."""
    mats = np.concatenate(list(signmat._sorted_rows(n)))
    vanishing = mats[signmat.batch_permanent(mats) == 0][:count].tolist()
    forms = (signmat.canonical_form(signmat.sign_matrix(m)) for m in vanishing)
    return [signmat.encode_pattern(f) for f in forms]
