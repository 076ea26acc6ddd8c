"""The batched int64 permanent kernel and the vanishing-permanent sweeps."""

import itertools
import math
import random

import numpy as np
import pytest

from prodvec.signmat import batch_permanent, find_vanishing, permanent, sign_matrix


def naive_permanent(m):
    n = len(m)
    return sum(
        math.prod(m[i][p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


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
