"""The stacked Glynn permanent kernel and the vanishing-permanent sweeps."""

import itertools
import math
import random

import numpy as np
import pytest

from prodvec import signmat
from prodvec.errors import UnsupportedSizeError
from prodvec.signmat import (
    batch_permanent,
    find_vanishing,
    permanent,
    permanent_addition,
    permanent_naive,
    sign_matrix,
)


def naive_permanent(m):
    n = len(m)
    return sum(
        math.prod(m[i][p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


def ryser_reference(rows):
    """Gray-code Ryser with Python ints; exact for any size, independent of Glynn."""
    n = len(rows)
    rowsums = [0] * n
    total = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        gray = k ^ (k >> 1)
        if (gray >> j) & 1:
            for i in range(n):
                rowsums[i] += rows[i][j]
        else:
            for i in range(n):
                rowsums[i] -= rows[i][j]
        prod = 1
        for v in rowsums:
            prod *= v
            if prod == 0:
                break
        if gray.bit_count() & 1:
            total -= prod
        else:
            total += prod
    return -total if n & 1 else total


def random_signs(rng, shape):
    return (2 * rng.integers(0, 2, size=shape) - 1).astype(np.int8)


class TestNonGlynnOracles:
    """The Glynn walk, for one matrix and for a stack, against Ryser's and
    the permutation sum."""

    def test_permanent_matches_ryser_beyond_naive_limit(self):
        rng = np.random.Generator(np.random.Philox(key=[10, 0]))
        for n in range(10, 17):
            m = random_signs(rng, (n, n))
            assert permanent(sign_matrix(m)) == ryser_reference(m.tolist())

    def test_every_matrix_of_size_one_and_two(self):
        for n in (1, 2):
            for bits in range(1 << (n * n)):
                m = np.array([1 - 2 * ((bits >> i) & 1) for i in range(n * n)]).reshape(n, n)
                expected = permanent_naive(sign_matrix(m))
                assert ryser_reference(m.tolist()) == expected
                assert permanent(sign_matrix(m)) == expected
                assert int(batch_permanent(m[None])[0]) == expected

    def test_batch_all_ones_at_the_uint64_limit(self):
        # |per| = 16! needs the whole 2^15 * 16! < 2^63 bound of the total
        # read back as int64
        ones = np.ones((2, 16, 16), dtype=np.int8)
        ones[1, 0] = -1
        expected = [math.factorial(16), -math.factorial(16)]
        assert batch_permanent(ones).tolist() == expected
        assert [permanent(sign_matrix(m)) for m in ones] == expected

    def test_all_ones_above_the_uint64_limit(self):
        # from n = 17 the total 2^(n-1) * n! no longer fits modulo 2^64, and
        # from n = 23 one prime below 2^31 no longer makes up the rest
        for n in range(14, 25):
            ones = np.ones((n, n), dtype=np.int8)
            ones[n // 2] = (-1) ** n  # odd n: one row negated, so per = -n!
            assert permanent(sign_matrix(ones)) == (-1) ** n * math.factorial(n)

    def test_residues_match_ryser_above_16(self):
        # Ryser's Python-int loop doubles with each n: about 0.3 s at n = 17
        # and 3 s at n = 20, so only the first residue size runs here
        rng = np.random.Generator(np.random.Philox(key=[17, 0]))
        for n in (17,):
            m = random_signs(rng, (n, n))
            assert permanent(sign_matrix(m)) == ryser_reference(m.tolist())

    def test_walk_in_uint64_through_16(self, monkeypatch):
        # random matrices on the modular path against Ryser in Python ints;
        # the walk must stay modulo 2^64 up to n = 16 and add walks modulo
        # a prime at 17
        moduli = []
        walk = signmat._glynn

        def spy(mats, q=None):
            moduli.append(q)
            totals = walk(mats, q)
            assert totals.dtype == (np.uint64 if q is None else np.int64)
            return totals

        monkeypatch.setattr(signmat, "_glynn", spy)
        rng = np.random.Generator(np.random.Philox(key=[14, 0]))
        for n in (14, 15):
            m = random_signs(rng, (n, n))
            assert permanent(sign_matrix(m)) == ryser_reference(m.tolist())
        for n in (16, 17):
            assert permanent(sign_matrix(np.ones((n, n), dtype=np.int8))) == math.factorial(n)
        assert moduli[:4] == [None] * 4 and len(moduli) == 5 and moduli[4] > 1 << 30

    @pytest.mark.parametrize("chunk", [1, 2, 8])
    def test_every_split_of_enumerated_and_walked_signs(self, monkeypatch, chunk):
        monkeypatch.setattr(signmat, "_STACK_WIDTH", chunk)
        rng = np.random.Generator(np.random.Philox(key=[13, chunk]))
        for n in range(1, 13):
            m = random_signs(rng, (n, n))
            expected = permanent_naive(sign_matrix(m)) if n <= 8 else ryser_reference(m.tolist())
            assert permanent(sign_matrix(m)) == expected

    def test_batches_straddling_the_stack_width(self, monkeypatch):
        # one pool of matrices per n; every width sees batches of 1, 3,
        # width - 1, width and width + 1 of them, and a column-strided view
        rng = np.random.Generator(np.random.Philox(key=[15, 0]))
        for n in range(1, 11):
            wide = random_signs(rng, (9, n, 2 * n))
            pool = wide[:, :, ::2]
            expected = [
                permanent_naive(sign_matrix(m)) if n <= 8 else ryser_reference(m.tolist())
                for m in pool
            ]
            for width in (1, 2, 8):
                monkeypatch.setattr(signmat, "_STACK_WIDTH", width)
                for b in (1, 3, width - 1, width, width + 1):
                    assert batch_permanent(pool[:b]).tolist() == expected[:b]
                    assert batch_permanent(np.ascontiguousarray(pool[:b])).tolist() == expected[:b]

    def test_batch_matches_naive_and_permanent(self):
        rng = np.random.Generator(np.random.Philox(key=[11, 0]))
        for n in range(1, 17):
            mats = random_signs(rng, (6 if n <= 8 else 2, n, n))
            oracle = permanent_naive if n <= 8 else permanent
            expected = [oracle(sign_matrix(m)) for m in mats]
            assert batch_permanent(mats).tolist() == expected

    def test_addition_with_huge_entries_matches_ryser(self):
        rng = random.Random(12)
        big = 10**21
        for n in range(1, 6):
            a = [[rng.choice((-big, big)) + rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            b = [[rng.choice((-big, big, 1, -1)) for _ in range(n)] for _ in range(n)]
            total = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
            assert permanent_addition(a, b) == ryser_reference(total)


class TestKernel:
    def test_ryser_matches_naive(self):
        rng = random.Random(3)
        for _ in range(120):
            n = rng.randint(1, 7)
            rows = [[rng.choice((-1, 1)) for _ in range(n)] for _ in range(n)]
            a = np.array([rows], dtype=np.int8)
            assert int(batch_permanent(a)[0]) == naive_permanent(rows)

    def test_batch_matches_single(self):
        rng = np.random.Generator(np.random.Philox(key=[8, 0]))
        mats = (2 * rng.integers(0, 2, size=(64, 5, 5)) - 1).astype(np.int8)
        batch = batch_permanent(mats)
        for i in range(64):
            assert int(batch[i]) == permanent(sign_matrix(mats[i]))

    def test_size_guard(self):
        a = np.ones((1, 17, 17), dtype=np.int8)
        with pytest.raises(ValueError):
            batch_permanent(a)

    def test_work_guard_before_any_allocation(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("walked before checking the work")

        monkeypatch.setattr(signmat, "_glynn", no_walk)
        b = (signmat.BATCH_MAX_TERMS >> 15) + 1
        with pytest.raises(UnsupportedSizeError, match=f"at most {signmat.BATCH_MAX_TERMS}"):
            batch_permanent(np.broadcast_to(np.ones((1, 1, 1), dtype=np.int8), (b, 16, 16)))

    def test_refuses_empty_matrices(self):
        # the 0 x 0 permanent is 1, but the kernel's Ryser sum would give 0
        with pytest.raises(ValueError):
            batch_permanent(np.ones((3, 0, 0), dtype=np.int8))

    def test_permanent_matches_batch_above_naive_limit(self):
        rng = np.random.Generator(np.random.Philox(key=[9, 0]))
        for n in range(9, 17):
            mats = (2 * rng.integers(0, 2, size=(3, n, n)) - 1).astype(np.int8)
            for m, p in zip(mats, batch_permanent(mats)):
                assert permanent(sign_matrix(m)) == int(p)

    def test_find_vanishing_small(self):
        assert find_vanishing(1, False).size == 0
        v2 = find_vanishing(2, False)
        assert v2.size == 8  # 2x2: per = 0 iff exactly one or three minus entries... enumerated
        v3 = find_vanishing(3, False)
        assert v3.size == 0

    def test_normalized_patterns_have_plus_border(self):
        out = find_vanishing(4, True)
        n = 4
        for p in out[:50]:
            p = int(p)
            for j in range(n):
                assert (p >> (n * n - 1 - j)) & 1  # first row +
            for i in range(n):
                assert (p >> (n * n - 1 - i * n)) & 1  # first column +
