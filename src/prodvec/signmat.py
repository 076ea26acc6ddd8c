"""(+1, -1) matrix algebra: permanents, equivalence, classification.

Two sign matrices are *equivalent* when one is obtained from the other by
row/column swaps and row/column negations (transpose is deliberately not
an allowed operation).  Equivalence is decided through a canonical form:
the orbit-minimal matrix under the row-major entry order with -1 < +1.

The module also computes the standard equivalence invariants (minus-sign
counts, parity differences, exact rank, |det|, |per|, scalar row Gram)
and classifies the n x n matrices with vanishing permanent, n <= 6: it
sweeps the candidates whose first row is +1 and whose other rows are
sorted, and closes each class over its orbit, so every class costs one
orbit build.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UnsupportedSizeError
from .truncpoly import _crt, _primes_over

# Glynn's sum doubles with each n: on a 2-CPU Xeon host, `prodvec
# permanent` takes 0.9 to 1.3 s on a random 24 x 24 sign matrix, the slowest
# input admitted.
PERMANENT_MAX_N = 24
# Glynn's signed total is 2^(n-1) * per(a), at most 2^(n-1) * n! < 2^63 in
# modulus while n <= 16.  Up to there the walk multiplies and sums in uint64,
# modulo 2^64, and the total read back as int64 is exact: the partial sums are
# not bounded, only the full total.  Above it, walks modulo primes below 2^31
# give the rest and the Chinese remainder theorem rebuilds the total.
MAX_UINT64_N = 16
# Largest B * 2^(n-1) Glynn terms one batch_permanent call walks, checked
# before any allocation: 3.4 to 3.7 s on a 2-CPU Xeon host at n = 16.
BATCH_MAX_TERMS = 1 << 27
NAIVE_MAX_N = 9
CANONICAL_MAX_SIZE = 6
# invariants' Python-int Bareiss grows about as size^4.4: on a 2-CPU Xeon
# host, 0.26 s for a random 128 x 128 matrix against 37 s for a random
# 400 x 400 one.  Larger inputs are refused before any work.  Square inputs
# up to PERMANENT_MAX_N also pay the Glynn permanent, so the slowest input
# admitted is a random 24 x 24 one: 1.0 s for `prodvec invariants`.
INVARIANTS_MAX_SIZE = 128
# Row sums per row that the Glynn walk steps at once: the last e signs are
# enumerated into 2^e stack slices of B matrices while 2^e * B fits.
_STACK_WIDTH = 1 << 13
# Most candidate matrices one classification sweep builds and walks at once.
_SWEEP_CHUNK = 1 << 16


@dataclass(frozen=True)
class SignMatrix:
    """Immutable r x n matrix with entries +1/-1."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ValueError("sign matrix must have at least one row and one column")
        n = len(self.entries[0])
        for row in self.entries:
            if len(row) != n:
                raise ValueError("rows must all have the same length")
            for x in row:
                if x not in (-1, 1):
                    raise ValueError(f"entries must be +1 or -1, got {x!r}")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "SignMatrix":
        return SignMatrix(tuple(zip(*self.entries)))

    def to_numpy(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int8)

    def __str__(self) -> str:
        return format_matrix(self)


def sign_matrix(rows: Iterable) -> SignMatrix:
    """Build a SignMatrix from rows of +-1 ints or from strings like '-++'."""
    out = []
    for row in rows:
        if isinstance(row, str):
            out.append(tuple(_char_sign(ch) for ch in row))
        else:
            out.append(tuple(int(x) for x in row))
    return SignMatrix(tuple(out))


def _char_sign(ch: str) -> int:
    if ch == "+":
        return 1
    if ch == "-":
        return -1
    raise ValueError(f"invalid sign character {ch!r}")


# -- text format -----------------------------------------------------------


def format_matrix(m: SignMatrix) -> str:
    """One row per line, '+'/'-' characters, no separators."""
    return "\n".join("".join("+" if x > 0 else "-" for x in row) for row in m.entries)


def parse_matrix_text(text: str) -> SignMatrix:
    """One matrix; blank lines may lead or trail it, but not split it."""
    rows = []
    width = None
    lineno = 0
    ended_at = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            if rows and ended_at is None:
                ended_at = lineno
            continue
        if ended_at is not None:
            raise ParseError(f"row follows blank line {ended_at}, which ends the matrix", lineno)
        for col, ch in enumerate(line, start=1):
            if ch not in "+-":
                raise ParseError(f"invalid character {ch!r} in matrix", lineno, col)
        if width is None:
            width = len(line)
        elif len(line) != width:
            raise ParseError(f"row has {len(line)} entries, expected {width}", lineno)
        rows.append(tuple(1 if ch == "+" else -1 for ch in line))
    if not rows:
        raise ParseError("no matrix rows found", lineno or 1)
    return SignMatrix(tuple(rows))


# -- construction from constraint subsets ------------------------------------


def associated_matrix(subsets: Sequence[Iterable[int]], n: int) -> SignMatrix:
    """Row i has -1 exactly at the (1-based) positions listed in subsets[i]."""
    rows = []
    for i, subset in enumerate(subsets):
        s = set(subset)
        for j in s:
            if not 1 <= j <= n:
                raise ValueError(f"subset {i}: index {j} out of range 1..{n}")
        rows.append(tuple(-1 if j in s else 1 for j in range(1, n + 1)))
    return SignMatrix(tuple(rows))


# -- permanents --------------------------------------------------------------


@functools.cache
def _stack_signs(e: int) -> np.ndarray:
    """(-1)^(set bits of s) for the 2^e stack slices s, shared by every call."""
    return np.array([(-1) ** s.bit_count() for s in range(1 << e)], dtype=np.int64)


def _glynn(mats: np.ndarray, q: int | None = None) -> np.ndarray:
    """Glynn's signed total sum over d in {+-1}^n with d_0 = +1 of
    (prod_k d_k) * prod_i (a d)_i for each a of a (B, n, n) stack.

    Row sums are exact int64 (|(a d)_i| <= n), kept as (n, 2^e, B): the
    last e signs are enumerated into the stack, e as large as 2^e * B <=
    ``_STACK_WIDTH`` and e <= n - 1 allow, and signs 1..n-1-e are walked in
    Gray-code order, each step moving every row sum by twice one column.
    With q None the rows multiply in turn and the terms sum in uint64,
    modulo 2^64; with a prime q < 2^31, in int64 residues reduced after
    twelve rows and then every six: 24^12 and 24^6 * q are below 2^63.
    """
    b, n, _ = mats.shape
    e = 0
    while e < n - 1 and b << (e + 1) <= _STACK_WIDTH:
        e += 1
    w = n - 1 - e
    cols = mats.transpose(2, 1, 0).astype(np.int64, order="C")  # cols[j, i] = a[:, i, j]
    twice = 2 * cols[:, :, None]
    rowsums = np.empty((n, 1 << e, b), dtype=np.int64)
    cols.sum(axis=0, out=rowsums[:, 0])
    for j in range(e):  # slice s has d = -1 at the enumerated signs of its set bits
        np.subtract(rowsums[:, : 1 << j], twice[w + 1 + j], out=rowsums[:, 1 << j : 2 << j])
    signs = _stack_signs(e)
    if q is None:
        rows, signs = rowsums.view(np.uint64), signs.view(np.uint64)  # two's complement
    total = np.zeros(rowsums.shape[1:], dtype=np.uint64 if q is None else np.int64)
    term = np.empty_like(total)
    for k in range(1 << w):
        if k:  # flip sign t + 1: d goes to -1 where bit t of the Gray code is set
            t = (k & -k).bit_length() - 1
            step = np.subtract if (k ^ (k >> 1)) >> t & 1 else np.add
            step(rowsums, twice[t + 1], out=rowsums)
        if q is None:
            np.prod(rows, axis=0, out=term)
        else:
            np.prod(rowsums[:12], axis=0, out=term)
            for i in range(12, n, 6):
                term %= q
                term *= rowsums[i : i + 6].prod(axis=0)
            term %= q
        (np.subtract if k & 1 else np.add)(total, term, out=total)
    return signs @ total if q is None else signs @ total % q


def permanent(m: SignMatrix) -> int:
    """Exact permanent by Glynn's formula (Glynn 2010, Eur. J. Combin. 31):
    per(a) = 2^-(n-1) * sum over d in {+-1}^n with d_0 = +1 of
    (prod_k d_k) * prod_i (a d)_i, the one-matrix case of ``_glynn``.  Up
    to MAX_UINT64_N the walk modulo 2^64 gives the total; above it, walks
    modulo primes from ``truncpoly._primes_over`` give the rest.
    """
    if not m.is_square:
        raise ValueError("permanent requires a square matrix")
    n = m.rows
    if n > PERMANENT_MAX_N:
        raise ValueError(f"permanent supports n <= {PERMANENT_MAX_N}")
    a = np.array(m.entries, dtype=np.int8)[None]
    # 2^64 * prod(primes) must exceed 2^n * n! >= 2 * |Glynn total|
    primes = _primes_over((math.factorial(n) << n) >> 64) if n > MAX_UINT64_N else []
    residues = [int(_glynn(a)[0])] + [int(_glynn(a, q)[0]) for q in primes]
    return _crt(residues, [1 << 64, *primes]) >> (n - 1)


def batch_permanent(mats: np.ndarray) -> np.ndarray:
    """int64 permanents of a (B, n, n) stack of sign matrices, n <=
    MAX_UINT64_N, by ``_glynn`` modulo 2^64."""
    mats = np.asarray(mats)
    b, n, n2 = mats.shape
    if n != n2:
        raise ValueError("matrices must be square")
    if n < 1:
        raise ValueError(f"matrix size must be at least 1, got {n}")
    if n > MAX_UINT64_N:
        raise ValueError(f"batch_permanent supports n <= {MAX_UINT64_N}")
    if b << (n - 1) > BATCH_MAX_TERMS:
        raise UnsupportedSizeError(f"{b} permanents at n = {n} take {b << (n - 1)} Glynn"
                                   f" terms; at most {BATCH_MAX_TERMS} are supported")
    # chunks of _STACK_WIDTH matrices bound the walk's int64 copies
    totals = [_glynn(mats[i : i + _STACK_WIDTH]) for i in range(0, max(b, 1), _STACK_WIDTH)]
    return np.concatenate(totals).view(np.int64) >> (n - 1)


def permanent_naive(m: SignMatrix) -> int:
    """Permanent by direct sum over all permutations; the small-n oracle."""
    if not m.is_square:
        raise ValueError("permanent requires a square matrix")
    n = m.rows
    if n > NAIVE_MAX_N:
        raise ValueError(f"permanent_naive supports n <= {NAIVE_MAX_N}")
    e = m.entries
    total = 0
    for perm in itertools.permutations(range(n)):
        p = 1
        for i in range(n):
            p *= e[i][perm[i]]
        total += p
    return total


# -- exact rank / determinant -------------------------------------------------


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int | None]:
    """Fraction-free elimination; returns (rank, det) with det only for square input."""
    m = [list(map(int, row)) for row in rows]
    nr = len(m)
    nc = len(m[0])
    prev = 1
    sign = 1
    rank = 0
    for col in range(nc):
        if rank == nr:
            break
        piv = next((r for r in range(rank, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        for r in range(rank + 1, nr):
            for c in range(col + 1, nc):
                m[r][c] = (m[r][c] * m[rank][col] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
    det = None
    if nr == nc:
        det = sign * prev if rank == nr else 0
    return rank, det


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix over the rationals."""
    return _bareiss(rows)[0]


# -- invariants ---------------------------------------------------------------


@dataclass(frozen=True)
class InvariantProfile:
    """Equivalence invariants of a sign matrix.

    ``pi_r``/``pi_c`` count rows/columns with an even number of minus
    signs, minus those with an odd number.  For even n, swaps and row
    negations preserve ``pi_r`` while each column negation flips every
    row parity (so only |pi_r| is an orbit invariant, and likewise
    |pi_c|); for odd n not even that holds.  ``abs_det``/``abs_per`` are
    None for non-square matrices.  The profile is sound but not
    complete: equivalence decisions must go through
    :func:`canonical_form`.
    """

    mu: int
    row_minus: tuple[int, ...]
    col_minus: tuple[int, ...]
    pi_r: int
    pi_c: int
    rank: int
    abs_det: int | None
    abs_per: int | None
    row_gram_is_scalar: bool


def _parity_difference(counts: Sequence[int]) -> int:
    even = sum(1 for c in counts if c % 2 == 0)
    return even - (len(counts) - even)


def invariants(m: SignMatrix) -> InvariantProfile:
    if m.rows > INVARIANTS_MAX_SIZE or m.cols > INVARIANTS_MAX_SIZE:
        raise UnsupportedSizeError(
            f"invariants supports at most {INVARIANTS_MAX_SIZE} rows/columns"
        )
    a = m.to_numpy()
    minus = a < 0
    row_minus = tuple(minus.sum(axis=1).tolist())
    col_minus = tuple(minus.sum(axis=0).tolist())
    rank, det = _bareiss(m.entries)
    abs_per = None
    if m.is_square and m.rows <= PERMANENT_MAX_N:
        abs_per = abs(permanent(m))
    # entries are +-1 and there are at most INVARIANTS_MAX_SIZE columns, so
    # the int64 Gram cannot overflow
    a = a.astype(np.int64)
    gram_scalar = bool((a @ a.T == m.cols * np.eye(m.rows, dtype=np.int64)).all())
    return InvariantProfile(
        mu=sum(row_minus),
        row_minus=row_minus,
        col_minus=col_minus,
        pi_r=_parity_difference(row_minus),
        pi_c=_parity_difference(col_minus),
        rank=rank,
        abs_det=abs(det) if det is not None else None,
        abs_per=abs_per,
        row_gram_is_scalar=gram_scalar,
    )


# -- equivalence operations ----------------------------------------------------

OP_KINDS = ("swap-rows", "swap-cols", "negate-row", "negate-col")


@dataclass(frozen=True)
class EquivalenceOp:
    """One generator of the equivalence group; indices are 0-based."""

    kind: str
    i: int
    j: int | None = None

    def __post_init__(self):
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.kind.startswith("swap") and self.j is None:
            raise ValueError(f"{self.kind} needs two indices")


def apply_op(m: SignMatrix, op: EquivalenceOp) -> SignMatrix:
    rows = [list(row) for row in m.entries]
    if op.kind == "swap-rows":
        _check_index(op.i, m.rows)
        _check_index(op.j, m.rows)
        rows[op.i], rows[op.j] = rows[op.j], rows[op.i]
    elif op.kind == "swap-cols":
        _check_index(op.i, m.cols)
        _check_index(op.j, m.cols)
        for row in rows:
            row[op.i], row[op.j] = row[op.j], row[op.i]
    elif op.kind == "negate-row":
        _check_index(op.i, m.rows)
        rows[op.i] = [-x for x in rows[op.i]]
    else:
        _check_index(op.i, m.cols)
        for row in rows:
            row[op.i] = -row[op.i]
    return SignMatrix(tuple(tuple(row) for row in rows))


def _check_index(i: int | None, bound: int) -> None:
    if i is None or not 0 <= i < bound:
        raise IndexError(f"index {i} out of range 0..{bound - 1}")


# -- packed sign patterns ------------------------------------------------------


def _pack(a: np.ndarray) -> np.ndarray:
    """int64 codes of the last axis of k <= 62 entries +-1: bit k-1-j is set
    iff entry j is +1, so integer order is the entry order with -1 < +1."""
    k = a.shape[-1]
    return (a > 0) @ (1 << np.arange(k - 1, -1, -1, dtype=np.int64))


def _unpack(codes, k: int) -> np.ndarray:
    """Inverse of ``_pack``: (..., k) int64 entries +-1 of k-bit codes."""
    bits = (np.asarray(codes, dtype=np.int64)[..., None] >> np.arange(k - 1, -1, -1)) & 1
    return 2 * bits - 1


def encode_pattern(m: SignMatrix) -> int:
    """``_pack`` of the row-major entries, so comparing encodings orders
    matrices as the canonical form does."""
    return int(_pack(m.to_numpy().ravel()))


def decode_pattern(p: int, n: int) -> SignMatrix:
    return SignMatrix(tuple(map(tuple, _unpack(p, n * n).reshape(n, n).tolist())))


# -- canonical form --------------------------------------------------------------


@functools.cache
def _column_perms(n: int) -> np.ndarray:
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    perms.flags.writeable = False  # shared by every call
    return perms


def _row_major(rows: np.ndarray, n: int) -> np.ndarray:
    """One code per stack of r packed n-bit rows, its first row highest: the
    row-major r*n-bit ``_pack`` of the matrix those rows make."""
    r = rows.shape[-1]
    return (rows << (n * np.arange(r - 1, -1, -1, dtype=np.int64))).sum(axis=-1)


def _orbit_rows(a: np.ndarray) -> np.ndarray:
    """(n!, r, r) packed rows spanning the orbit of an r x n matrix a.

    Entry [q, s] holds the rows of a with its columns permuted by q, under
    the column signs that make row s all -1 and the row signs that make
    column 1 all -1, sorted ascending, so row s (code 0) comes first.
    Every orbit member with an all -1 row and column 1 all -1 is, up to
    its row order, one of these n! * r matrices: the column permutation
    and the row made all -1 fix both sets of signs.  With codes p_i of
    the permuted rows, row i under the signs of row s differs from all
    -1 where p_s ^ p_i is set, and its row sign takes the smaller of that
    code and its complement.
    """
    r, n = a.shape
    codes = _pack(a[:, _column_perms(n)]).T  # (n!, r): columns permuted
    x = codes[:, :, None] ^ codes[:, None, :]
    return np.sort(np.minimum(x, x ^ ((1 << n) - 1)), axis=-1)


def _canonical_entries(m: SignMatrix) -> tuple[tuple[int, ...], ...]:
    """Orbit-minimal entry tuple under swaps and negations.

    For a fixed column configuration the optimal row operations are
    forced: take the smaller of each row and its negation, then sort the
    rows.  The column signs are forced too.  Column negations can make
    any row constant, so the orbit minimum's first row is all -1, and the
    minimizing signs are +-(some row of the column-permuted matrix); s
    and -s give the same normalized rows.  So each column permutation
    tries r sign vectors, and the search is the n! * r matrices of
    ``_orbit_rows`` instead of the full orbit.
    """
    r, n = m.rows, m.cols
    keys = _row_major(_orbit_rows(m.to_numpy()), n)
    return tuple(map(tuple, _unpack(keys.min(), r * n).reshape(r, n).tolist()))


def canonical_form(m: SignMatrix) -> SignMatrix:
    """Orbit-minimal representative; two matrices are equivalent iff equal forms.

    Matrices are ordered by their row-major entry sequence with -1 < +1.
    Exact mode is bounded at CANONICAL_MAX_SIZE = 6 rows/columns (about
    2 ms for a random 6 x 6 matrix on a 2-CPU Xeon host); larger inputs
    raise rather than silently approximating.
    """
    if m.rows > CANONICAL_MAX_SIZE or m.cols > CANONICAL_MAX_SIZE:
        raise UnsupportedSizeError(
            f"canonical_form exact mode supports at most {CANONICAL_MAX_SIZE} rows/columns"
        )
    return SignMatrix(_canonical_entries(m))


def equivalent(a: SignMatrix, b: SignMatrix) -> bool:
    """Whether b is reachable from a by row/column swaps and negations."""
    if a.rows != b.rows or a.cols != b.cols:
        return False
    return canonical_form(a).entries == canonical_form(b).entries


# -- classification --------------------------------------------------------------


def _sorted_rows(n: int) -> Iterator[np.ndarray]:
    """The n x n candidates of the classification sweep, in lexicographic
    order, as (B, n, n) int8 chunks: 64 candidates first, each chunk four
    times the last up to ``_SWEEP_CHUNK``, so a sweep that a small budget
    stops walks few candidates.

    Row 1 is all +1.  Rows 2..n are a non-decreasing sequence of indices
    into the 2^(n-1) rows that start with +1, in packed-code order, so
    each candidate is a multiset of rows: C(2^(n-1) + n - 2, n - 1) of
    them, 3,876 at n = 5 against 2^16 normalized matrices.  Negations
    alone give every class a member whose first row and column are +1,
    and permuting its rows 2..n keeps it so and in its class: some
    candidate meets every class.  Indices are uint8, so n <= 9.  The
    sequences are built one first index at a time, so a sweep that
    stops early builds only the chunks it walks.
    """
    if n == 1:
        yield np.ones((1, 1, 1), dtype=np.int8)
        return
    r, k = 1 << (n - 1), n - 2
    # every non-decreasing k-index sequence, in lexicographic order
    tails = np.zeros((1, 0), dtype=np.uint8)
    last = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        # extend each sequence, in order, by every index from its last one up
        counts = r - last
        ends = np.cumsum(counts)
        last = np.arange(ends[-1]) - np.repeat(ends - counts - last, counts)
        tails = np.repeat(tails, counts, axis=0)
        tails = np.concatenate([tails, last[:, None].astype(np.uint8)], axis=1)
    rows = _unpack(np.arange(r, 2 * r), n).astype(np.int8)
    pending = np.zeros((0, n - 1), dtype=np.uint8)
    size = min(64, _SWEEP_CHUNK)
    for i in range(r):
        # the tails whose entries are all >= i are the last C(r - i + k - 1, k)
        tail = tails[len(tails) - math.comb(r - i + k - 1, k) :]
        head = np.full((len(tail), 1), i, dtype=np.uint8)
        pending = np.concatenate([pending, np.concatenate([head, tail], axis=1)])
        while len(pending) >= size or (i == r - 1 and len(pending)):
            part, pending = pending[:size], pending[size:]
            mats = np.ones((len(part), n, n), dtype=np.int8)
            mats[:, 1:] = rows[part]
            yield mats
            size = min(4 * size, _SWEEP_CHUNK)


def _closure(a: np.ndarray) -> tuple[int, np.ndarray]:
    """The class of a square sign matrix from one ``_orbit_rows`` array:
    the code of its canonical form, the array's minimum, and the codes of
    its n! * n images in sorted-row candidate form (row 1 and column 1 all
    +1, rows 2..n ascending), some of them equal."""
    n = len(a)
    rows = _orbit_rows(a)
    # negated, row s is all +1 and goes first, the others ascending
    images = ((1 << n) - 1) - np.concatenate([rows[..., :1], rows[..., :0:-1]], axis=-1)
    return int(_row_major(rows, n).min()), _row_major(images, n).ravel()


def classify_vanishing(
    n: int, mode: str = "exhaustive", budget: int | None = None
) -> list[SignMatrix]:
    """Canonical representatives of n x n sign matrices with permanent zero.

    Both modes sweep the sorted-row candidates of ``_sorted_rows``, which
    meet every class, and close each class over its orbit: the first
    vanishing candidate not yet seen starts a class, and ``_closure``
    gives both its representative, which ``canonical_form`` would give,
    and its images in candidate form, which are all marked seen.  So
    each class costs one orbit build, not one per vanishing candidate.
    ``exhaustive`` (n <= 4) runs the whole sweep and ignores ``budget``,
    so the result is the full list of classes.  ``normalized-search``
    (n <= 6) runs the whole sweep too unless
    ``budget`` caps the number of vanishing matrices collected, in the
    sweep's order (None or 0 means no cap): uncapped, its class list is
    complete; capped, it holds the classes of the first ``budget``
    vanishing candidates, the sweep stops after the chunk that reaches
    the cap, and the list may be partial.  Uncapped, n = 6 sweeps
    376,992 candidates and closes 86 classes over their 92,706 vanishing
    ones in about half a second on a 2-CPU Xeon host.
    """
    if n < 1:
        raise ValueError(f"matrix size must be at least 1, got {n}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if mode == "exhaustive":
        if n > 4:
            raise UnsupportedSizeError("exhaustive classification supports n <= 4")
        budget = None
    elif mode == "normalized-search":
        if n > 6:
            raise UnsupportedSizeError("normalized search supports n <= 6")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    seen, reps, count = set(), [], 0
    for mats in _sorted_rows(n):
        vanishing = mats[batch_permanent(mats) == 0][: budget - count if budget else None]
        count += len(vanishing)
        for i, key in enumerate(_row_major(_pack(vanishing), n).tolist()):
            if key not in seen:
                rep, images = _closure(vanishing[i])
                reps.append(rep)
                seen.update(images.tolist())
        if budget and count >= budget:
            break
    return [decode_pattern(p, n) for p in sorted(reps)]
