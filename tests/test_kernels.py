"""The batched int64 permanent kernel and the vanishing-permanent sweeps."""

import itertools
import math
import random

import numpy as np
import pytest

from prodvec import signmat
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

    def test_batch_all_ones_at_the_int64_limit(self):
        # |per| = 13! needs the whole 2^12 * 13^13 bound of the int64 sum
        ones = np.ones((2, 13, 13), dtype=np.int8)
        ones[1, 0] = -1
        expected = [math.factorial(13), -math.factorial(13)]
        assert batch_permanent(ones).tolist() == expected
        assert [permanent(sign_matrix(m)) for m in ones] == expected

    def test_all_ones_above_the_int64_limit(self):
        # from n = 15 part of the signs are walked.  The walk wraps modulo
        # 2^64 up to n = 16, and only 2^(n-1) * n! >= 2^63 (n >= 17) would
        # make a wrapped total wrong here
        for n in (14, 15, 16, 17):
            assert permanent(sign_matrix(np.ones((n, n), dtype=np.int8))) == math.factorial(n)

    def test_walk_in_uint64_through_16(self, monkeypatch):
        # random matrices on the modular path against Ryser in Python ints;
        # the walk must stay in uint64 up to n = 16 and leave it at 17
        dtypes = []
        walk = signmat._gray_walk

        def spy(rowsums, cols):
            dtypes.append(rowsums.dtype)
            return walk(rowsums, cols)

        monkeypatch.setattr(signmat, "_gray_walk", spy)
        rng = np.random.Generator(np.random.Philox(key=[14, 0]))
        for n in (14, 15):
            m = random_signs(rng, (n, n))
            assert permanent(sign_matrix(m)) == ryser_reference(m.tolist())
        for n in (16, 17):
            assert permanent(sign_matrix(np.ones((n, n), dtype=np.int8))) == math.factorial(n)
        assert dtypes == [np.uint64] * 3 + [np.int64]

    @pytest.mark.parametrize("chunk", [1, 2, 8])
    def test_every_split_of_enumerated_and_walked_signs(self, monkeypatch, chunk):
        monkeypatch.setattr(signmat, "_GLYNN_CHUNK", chunk)
        rng = np.random.Generator(np.random.Philox(key=[13, chunk]))
        for n in range(1, 13):
            m = random_signs(rng, (n, n))
            expected = permanent_naive(sign_matrix(m)) if n <= 8 else ryser_reference(m.tolist())
            assert permanent(sign_matrix(m)) == expected

    def test_batch_matches_naive_and_permanent(self):
        rng = np.random.Generator(np.random.Philox(key=[11, 0]))
        for n in range(1, 14):
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
        a = np.ones((1, 14, 14), dtype=np.int8)
        with pytest.raises(ValueError):
            batch_permanent(a)

    def test_refuses_empty_matrices(self):
        # the 0 x 0 permanent is 1, but the kernel's Ryser sum would give 0
        with pytest.raises(ValueError):
            batch_permanent(np.ones((3, 0, 0), dtype=np.int8))

    def test_permanent_matches_batch_above_naive_limit(self):
        rng = np.random.Generator(np.random.Philox(key=[9, 0]))
        for n in range(9, 14):
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
