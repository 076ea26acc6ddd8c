"""Exact truncated-ring arithmetic against independent expansion oracles."""

import itertools
import random

import pytest

from prodvec.signmat import permanent, sign_matrix
from prodvec.truncpoly import TruncatedPolynomial, coefficient_direct, expand_product


def brute_expand(rows, powers, dims=None):
    """Multiply the sign product out one linear factor at a time (dict form).

    Independent of expand_product: the full untruncated polynomial is
    kept throughout, and truncation (when dims given) is applied once at
    the end.
    """
    n = len(rows[0])
    coeffs = {(0,) * n: 1}
    for row, k in zip(rows, powers):
        for _ in range(k):
            new = {}
            for m, c in coeffs.items():
                for j in range(n):
                    m2 = m[:j] + (m[j] + 1,) + m[j + 1 :]
                    new[m2] = new.get(m2, 0) + c * row[j]
            coeffs = new
    if dims is not None:
        coeffs = {
            m: c for m, c in coeffs.items() if all(e < d for e, d in zip(m, dims))
        }
    return {m: c for m, c in coeffs.items() if c}


def random_rows(rng, r, n):
    return [[rng.choice((-1, 1)) for _ in range(n)] for _ in range(r)]


FIVE_QUBIT_1 = ["-++--", "+-+++", "++-++", "+++++"]
FIVE_QUBIT_2 = ["-++-+", "+-++-", "++-++", "+++++"]
EX25_ROWS = ["-++", "+-+", "++-", "+++"]


class TestExpandProduct:
    def test_underdetermined_product_can_vanish(self):
        p = expand_product(sign_matrix(EX25_ROWS), [1, 1, 1, 1], (2, 2, 4))
        assert p.is_zero()

    def test_single_row_cube_all_qubits(self):
        p = expand_product([[1, 1, 1]], [3], (2, 2, 2))
        assert p.coeffs == {(1, 1, 1): 6}

    def test_five_qubit_pair(self):
        p1 = expand_product(sign_matrix(FIVE_QUBIT_1), [1] * 4, (2,) * 5)
        p2 = expand_product(sign_matrix(FIVE_QUBIT_2), [1] * 4, (2,) * 5)
        assert p1.is_zero()
        assert not p2.is_zero()
        # exactly one monomial survives; frozen from the brute expansion
        # over all 5^4 factor picks
        assert p2.coeffs == {(1, 1, 0, 1, 1): 8}

    def test_matches_brute_expansion(self):
        rng = random.Random(1234)
        # (cases, max rows, max parties, max dim): small shapes, then up
        # to five parties of dimension four under four rows
        for cases, max_r, max_n, max_d in ((120, 3, 3, 3), (40, 4, 5, 4)):
            for _ in range(cases):
                r = rng.randint(1, max_r)
                n = rng.randint(1, max_n)
                rows = random_rows(rng, r, n)
                powers = [rng.randint(0, 3) for _ in range(r)]
                dims = tuple(rng.randint(1, max_d) for _ in range(n))
                p = expand_product(rows, powers, dims)
                assert p.coeffs == brute_expand(rows, powers, dims)

    def test_lopsided_dims(self):
        # degree 3 far below every truncation bound: no term is cut off,
        # so every degree-3 monomial must match the direct expansion
        rows = [[1, -1, 1], [-1, -1, 1]]
        p = expand_product(rows, [2, 1], (40, 40, 40))
        assert p.coeffs
        for m in itertools.product(range(4), repeat=3):
            if sum(m) == 3:
                assert p.coefficient(m) == coefficient_direct(rows, [2, 1], m)

    def test_degree_homogeneity(self):
        rng = random.Random(99)
        for _ in range(60):
            r, n = rng.randint(1, 3), rng.randint(1, 3)
            rows = random_rows(rng, r, n)
            powers = [rng.randint(0, 3) for _ in range(r)]
            dims = tuple(rng.randint(2, 4) for _ in range(n))
            p = expand_product(rows, powers, dims)
            assert {sum(m) for m in p.coeffs} <= {sum(powers)}

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expand_product([[1, -1]], [1, 1], (2, 2))
        with pytest.raises(ValueError):
            expand_product([[1, -1]], [1], (2, 2, 2))


class TestCoefficient:
    def test_binomial_square(self):
        p = expand_product([[1, 1]], [2], (2, 2))
        assert p.coefficient((1, 1)) == 2

    def test_difference_of_squares(self):
        p = expand_product([[1, -1], [1, 1]], [1, 1], (2, 2))
        assert p.coefficient((1, 1)) == 0

    def test_three_qubit_mixed_coefficient(self):
        # frozen from the brute-force expansion over all 3^3 monomial choices
        p = expand_product([[-1, 1, 1], [1, -1, 1], [1, 1, -1]], [1, 1, 1], (2, 2, 2))
        assert p.coefficient((1, 1, 1)) == -2

    def test_out_of_bounds_reads_zero(self):
        p = expand_product([[1, 1]], [2], (3, 3))
        assert p.coefficient((2, 0)) == 1
        assert p.coefficient((5, 0)) == 0
        assert TruncatedPolynomial((2, 2), {(1, 0): 3}).coefficient((1, 1)) == 0


class TestTopCoefficient:
    def test_all_qubit_cube(self):
        assert expand_product([[1, 1, 1]], [3], (2, 2, 2)).top_coefficient() == 6

    def test_vanishing_instance(self):
        p = expand_product(sign_matrix(EX25_ROWS), [1, 1, 1, 1], (2, 2, 4))
        assert p.top_coefficient() == 0

    def test_binomial_fourth_power(self):
        assert expand_product([[1, 1]], [4], (3, 3)).top_coefficient() == 6


class TestCoefficientDirect:
    def test_single_row(self):
        assert coefficient_direct([[1, 1]], [2], (1, 1)) == 2

    def test_untruncated_square_term(self):
        assert coefficient_direct([[1, -1], [1, 1]], [1, 1], (2, 0)) == 1

    def test_three_qubit(self):
        rows = [[-1, 1, 1], [1, -1, 1], [1, 1, -1]]
        assert coefficient_direct(rows, [1, 1, 1], (1, 1, 1)) == -2

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coefficient_direct([[1, 1]], [2], (1, 0))

    def test_agrees_with_ring_expansion(self):
        rng = random.Random(4321)
        for _ in range(200):
            r, n = rng.randint(1, 3), rng.randint(1, 3)
            rows = random_rows(rng, r, n)
            powers = [rng.randint(0, 3) for _ in range(r)]
            dims = tuple(rng.randint(1, 3) for _ in range(n))
            p = expand_product(rows, powers, dims)
            for m in p.coeffs:
                assert p.coefficient(m) == coefficient_direct(rows, powers, m)


class TestDerivativeRecurrence:
    def test_recurrence_on_random_instances(self):
        # m_j * A(k, m) equals sum_i k_i sigma_{i,j} A(k - e_i, m - e_j)
        # over ring coefficients, with out-of-range terms reading 0.
        rng = random.Random(777)
        checked = 0
        for _ in range(80):
            r, n = rng.randint(1, 3), rng.randint(1, 3)
            rows = random_rows(rng, r, n)
            powers = [rng.randint(1, 3) for _ in range(r)]
            dims = tuple(rng.randint(2, 4) for _ in range(n))
            p = expand_product(rows, powers, dims)
            subs = {
                i: expand_product(rows, powers[:i] + [powers[i] - 1] + powers[i + 1 :], dims)
                for i in range(r)
            }
            for m in list(p.coeffs) + [tuple(0 for _ in range(n))]:
                for j in range(n):
                    if m[j] == 0:
                        continue
                    m_down = m[:j] + (m[j] - 1,) + m[j + 1 :]
                    rhs = sum(
                        powers[i] * rows[i][j] * subs[i].coefficient(m_down)
                        for i in range(r)
                    )
                    assert m[j] * p.coefficient(m) == rhs
                    checked += 1
        assert checked > 200


class TestRingAlgebra:
    def test_canonical_form_drops_zeros_and_truncates(self):
        p = TruncatedPolynomial((2, 2), {(0, 0): 0, (1, 1): 2, (2, 0): 7})
        assert p.coeffs == {(1, 1): 2}


class TestIsZero:
    def test_zero(self):
        assert TruncatedPolynomial((2, 2)).is_zero()

    def test_difference_of_squares_truncates_to_zero(self):
        assert expand_product([[1, -1], [1, 1]], [1, 1], (2, 2)).is_zero()

    def test_square_survives(self):
        assert not expand_product([[1, 1]], [2], (2, 2)).is_zero()


class TestQubitBridge:
    def test_top_coefficient_is_permanent(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(1, 6)
            rows = random_rows(rng, n, n)
            m = sign_matrix(rows)
            p = expand_product(m, [1] * n, (2,) * n)
            assert p.top_coefficient() == permanent(m)
