"""Exact truncated-ring arithmetic against independent expansion oracles."""

import itertools
import math
import random

import numpy as np
import pytest

from prodvec import truncpoly
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


@pytest.fixture
def primes_taken(monkeypatch):
    """The prime lists truncpoly._primes_over hands out, in call order."""
    taken = []
    primes_over = truncpoly._primes_over

    def spy(bound):
        taken.append(primes_over(bound))
        return taken[-1]

    monkeypatch.setattr(truncpoly, "_primes_over", spy)
    return taken


class TestLayerWalk:
    """expand_product walks one homogeneous layer over all parties but a
    largest one, in uint64 while twice the largest multinomial on the ring
    is below 2^64 and with residue rows modulo primes above that."""

    def test_random_specs_match_both_oracles(self):
        rng = random.Random(2026)
        for _ in range(150):
            n = rng.randint(1, 5)
            dims = tuple(rng.randint(1, 5) for _ in range(n))
            rows = random_rows(rng, rng.randint(1, 4), n)
            powers = [rng.randint(0, 4) for _ in rows]
            p = expand_product(rows, powers, dims)
            assert p.coeffs == brute_expand(rows, powers, dims)
            for m, c in itertools.islice(p.coeffs.items(), 3):
                assert c == coefficient_direct(rows, powers, m)

    def test_one_party(self):
        for d in range(1, 7):
            for s in (1, -1):
                for k in range(9):
                    p = expand_product([[s], [-s]], [k, 1], (d,))
                    assert p.coeffs == ({(k + 1,): -(s ** (k + 1))} if k + 1 < d else {})

    @pytest.mark.parametrize("dims", [(3, 2, 6), (6, 2, 3), (2, 6, 3), (4, 5, 3, 5)])
    def test_last_party_saturates(self, dims):
        # the largest party's exponent is implied by the degree; here the
        # untruncated product reaches it, so the walk must cut those cells
        rng = random.Random(sum(dims))
        last = dims.index(max(dims))
        deg = sum(dims) - len(dims) - 1
        for _ in range(10):
            rows = random_rows(rng, 3, len(dims))
            powers = [deg - deg // 3 * 2, deg // 3, deg // 3]
            full = brute_expand(rows, powers)
            assert any(m[last] >= dims[last] for m in full)
            p = expand_product(rows, powers, dims)
            assert p.coeffs == brute_expand(rows, powers, dims)

    @pytest.mark.parametrize("rows", [EX25_ROWS, FIVE_QUBIT_1])
    def test_vanishing_products_stay_zero_under_relabeling(self, rows):
        # every order of the parties, so that each takes the implied place
        sigma = sign_matrix(rows).entries
        dims = (2, 2, 4) if rows is EX25_ROWS else (2,) * 5
        for perm in itertools.permutations(range(len(dims))):
            permuted = [[row[j] for j in perm] for row in sigma]
            pdims = tuple(dims[j] for j in perm)
            assert expand_product(permuted, [1] * 4, pdims).is_zero()
            assert brute_expand(permuted, [1] * 4, pdims) == {}

    def test_residues_at_97_bits(self, primes_taken):
        # 2 * 89! / (30! 30! 29!) > 2^64 * q^2, so three primes are taken;
        # the coefficients of ((a + c)^2 - b^2)^44 (a + b + c) reach 97 bits
        rows, powers, dims = [[1, 1, 1], [1, -1, 1]], [45, 44], (40, 40, 40)
        p = expand_product(rows, powers, dims)
        assert [len(t) for t in primes_taken] == [3]
        assert p.coeffs == brute_expand(rows, powers, dims)
        assert max(abs(c) for c in p.coeffs.values()).bit_length() == 97
        for m in [(39, 11, 39), (20, 30, 39)]:
            assert p.coefficient(m) == coefficient_direct(rows, powers, m)

    @pytest.mark.parametrize("deg, count", [(39, 0), (44, 1), (64, 2)])
    def test_all_plus_rows_need_every_prime(self, primes_taken, deg, count):
        # (a + b + c)^deg untruncated: each coefficient is a multinomial,
        # and the largest needs all of the moduli 2^64 and the primes taken
        dims = (deg + 1,) * 3
        for row in ([1, 1, 1], [-1, 1, -1]):
            p = expand_product([row], [deg], dims)
            assert len(p.coeffs) == (deg + 1) * (deg + 2) // 2
            for m, c in p.coeffs.items():
                assert c == truncpoly._multinomial_count(m) * math.prod(s**e for s, e in zip(row, m))
        assert [len(t) for t in primes_taken] == ([count] * 2 if count else [])
        top = max(abs(c) for c in p.coeffs.values())
        if count:
            assert 2 * top > (1 << 64) * math.prod(primes_taken[0][:-1])
        else:
            assert 2 * top < 1 << 64


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


def top_bound(dims):
    """N! / prod (d_j - 1)!, which bounds |top| on the ring of ``dims``."""
    m = [d - 1 for d in dims]
    return math.factorial(sum(m)) // math.prod(math.factorial(mj) for mj in m)


def permanent_top(rows, powers, dims):
    """per(M) / prod m_j!, m_j = d_j - 1, where M repeats row i powers[i]
    times and column j m_j times: the top coefficient of a critical
    product, by signmat.permanent and without the layer walk."""
    m = [d - 1 for d in dims]
    cols = [j for j, mj in enumerate(m) for _ in range(mj)]
    big_m = [[row[j] for j in cols] for row, k in zip(rows, powers) for _ in range(k)]
    per = permanent(sign_matrix(big_m))
    scale = math.prod(math.factorial(mj) for mj in m)
    assert per % scale == 0
    return per // scale


def random_critical(rng, max_n, max_d, max_r):
    """Random rows and powers with sum(powers) = sum(dims) - n."""
    n = rng.randint(1, max_n)
    dims = tuple(rng.randint(2, max_d) for _ in range(n))
    rows = random_rows(rng, rng.randint(1, max_r), n)
    powers = [0] * len(rows)
    for _ in range(sum(d - 1 for d in dims)):
        powers[rng.randrange(len(rows))] += 1
    return rows, powers, dims


class TestCriticalTop:
    """A critical product (sum k_i = sum (d_j - 1)) is its top monomial
    alone; verdicts read its coefficient from the layer walk's top cell."""

    def test_matches_expansion_and_direct_coefficient(self):
        rng = random.Random(4242)
        for _ in range(120):
            rows, powers, dims = random_critical(rng, 6, 5, 4)
            big_n = sum(powers)
            p = expand_product(rows, powers, dims)
            top = p.top_coefficient()
            assert set(p.coeffs) <= {tuple(d - 1 for d in dims)}
            if big_n <= 12:
                assert top == coefficient_direct(rows, powers, [d - 1 for d in dims])
            if big_n <= 16:
                assert top == permanent_top(rows, powers, dims)

    def test_top_is_a_permanent(self):
        # per(M) / prod m_j! through signmat's Glynn walk, no ring involved;
        # up to 16 rows of M, where permanent stays in uint64
        rng = random.Random(5151)
        checked = 0
        while checked < 150:
            rows, powers, dims = random_critical(rng, 6, 6, 5)
            if sum(powers) > 16:
                continue
            top = expand_product(rows, powers, dims).top_coefficient()
            assert top == permanent_top(rows, powers, dims)
            checked += 1

    @pytest.mark.parametrize("rows", [EX25_ROWS, FIVE_QUBIT_1, FIVE_QUBIT_2])
    def test_ex25_and_five_qubit_coefficients_as_tops(self, rows):
        # the ring with dims m + 1 has a^m as its top monomial, so each
        # degree-4 coefficient of these products is one top: all zero but
        # the single surviving monomial of FIVE_QUBIT_2
        sigma = sign_matrix(rows)
        dims = (2, 2, 4) if rows is EX25_ROWS else (2,) * 5
        p = expand_product(sigma, [1] * 4, dims)
        tops = {}
        for m in itertools.product(*(range(d) for d in dims)):
            if sum(m) == 4:
                tops[m] = expand_product(sigma, [1] * 4, [e + 1 for e in m]).top_coefficient()
                assert tops[m] == p.coefficient(m) == coefficient_direct(sigma, [1] * 4, m)
        nonzero = {m: c for m, c in tops.items() if c}
        assert nonzero == ({(1, 1, 0, 1, 1): 8} if rows is FIVE_QUBIT_2 else {})

    def test_all_plus_rows_reach_the_bound(self, primes_taken):
        # (sum_j a_j)^35 on (8,)^5: the top is the multinomial B itself, near
        # 2^71, and B is also the largest multinomial on the ring, so the walk
        # needs 2^64 and one prime; negated rows give -B
        dims = (8,) * 5
        bound = top_bound(dims)
        assert 2**71 < bound < 2**72
        assert truncpoly._coefficient_bound(35, dims) == bound
        for sign in (1, -1):
            rows = [[sign] * 5] * 3
            assert expand_product(rows, [12, 12, 11], dims).top_coefficient() == sign * bound
        assert [len(primes) for primes in primes_taken] == [1, 1]
        for primes in primes_taken:
            assert (1 << 64) * math.prod(primes) > 2 * bound >= 1 << 64

    def test_two_parties_past_2_to_300(self):
        dims = (160, 160)
        assert top_bound(dims) > 2**300
        rows, powers = [[1, 1], [1, -1]], [300, 18]
        top = expand_product(rows, powers, dims).top_coefficient()
        assert top == coefficient_direct(rows, powers, (159, 159))
        assert -(2**265) < top < -(2**264)

    def test_primes(self):
        bound = 2 * top_bound((1024, 1024))
        primes = truncpoly._primes_over(bound)
        assert math.prod(primes) > bound >= math.prod(primes[:-1])
        assert primes == sorted(set(primes), reverse=True)
        assert primes[0] == 2**31 - 1
        odd = np.arange(3, math.isqrt(2**31) + 1, 2)
        for q in primes:
            assert q < 2**31 and q % 2
            assert np.all(q % odd)
