"""Sign-matrix algebra: permanents, invariants, equivalence, classification."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from prodvec import signmat
from prodvec.errors import ParseError, UnsupportedSizeError
from prodvec.signmat import (
    EquivalenceOp,
    SignMatrix,
    apply_op,
    associated_matrix,
    canonical_form,
    classify_vanishing,
    decode_pattern,
    encode_pattern,
    equivalent,
    format_matrix,
    integer_rank,
    invariants,
    parse_matrix_text,
    permanent,
    permanent_naive,
    sign_matrix,
)
from signmat_oracles import canonical_codes, find_vanishing, permanent_addition

SIGMA_1 = sign_matrix(["--++", "++++", "++++", "++++"])
SIGMA_2 = sign_matrix(["--++", "+--+", "++++", "++++"])
SIGMA_3 = sign_matrix(["--++", "+-++", "++-+", "++++"])
SIGMA_4 = sign_matrix(["--++", "++-+", "+++-", "++++"])
THREE_QUBIT = sign_matrix(["-++", "+-+", "++-"])


def random_sign_matrix(rng, r, n):
    return sign_matrix([[rng.choice((-1, 1)) for _ in range(n)] for _ in range(r)])


def random_op(rng, m):
    kind = rng.choice(["swap-rows", "swap-cols", "negate-row", "negate-col"])
    if kind == "swap-rows":
        return EquivalenceOp(kind, rng.randrange(m.rows), rng.randrange(m.rows))
    if kind == "swap-cols":
        return EquivalenceOp(kind, rng.randrange(m.cols), rng.randrange(m.cols))
    bound = m.rows if kind == "negate-row" else m.cols
    return EquivalenceOp(kind, rng.randrange(bound))


def orbit_minimum(m):
    """Reference canonical form: brute minimum over the whole group orbit."""
    best = None
    r, n = m.rows, m.cols
    for rowperm in itertools.permutations(range(r)):
        for colperm in itertools.permutations(range(n)):
            for rowsigns in itertools.product((1, -1), repeat=r):
                for colsigns in itertools.product((1, -1), repeat=n):
                    cand = tuple(
                        tuple(
                            m.entries[rowperm[i]][colperm[j]] * rowsigns[i] * colsigns[j]
                            for j in range(n)
                        )
                        for i in range(r)
                    )
                    if best is None or cand < best:
                        best = cand
    return best


def full_sign_minimum(m):
    """Reference canonical form: every column permutation with all 2^n column-sign vectors.

    Row operations are forced as in ``canonical_form``; the column signs
    are not, so this checks the forced-sign argument.
    """
    best = None
    n = m.cols
    for colperm in itertools.permutations(range(n)):
        permuted = [tuple(row[c] for c in colperm) for row in m.entries]
        for signs in itertools.product((1, -1), repeat=n):
            rows = []
            for row in permuted:
                srow = tuple(x * s for x, s in zip(row, signs))
                rows.append(min(srow, tuple(-x for x in srow)))
            cand = tuple(sorted(rows))
            if best is None or cand < best:
                best = cand
    return best


def minus_counts_and_gram(m):
    """Reference row/column minus counts and scalar-Gram flag, entry by entry."""
    row_minus = tuple(sum(1 for x in row if x < 0) for row in m.entries)
    col_minus = tuple(sum(1 for row in m.entries if row[j] < 0) for j in range(m.cols))
    gram_scalar = True
    n = m.cols
    for i, ri in enumerate(m.entries):
        for k, rk in enumerate(m.entries):
            dot = sum(x * y for x, y in zip(ri, rk))
            if dot != (n if i == k else 0):
                gram_scalar = False
                break
        if not gram_scalar:
            break
    return row_minus, col_minus, gram_scalar


def sylvester_hadamard(n):
    rows = [[1]]
    while len(rows) < n:
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    return sign_matrix(rows)


def sorted_row_candidates(n):
    """Reference for the classification sweep's candidates: row 1 all +1,
    rows 2..n a sorted multiset of the rows that start with +1 (in
    entry order, -1 < +1), multisets in lexicographic order."""
    rows = [(1,) + r for r in itertools.product((-1, 1), repeat=n - 1)]
    return [((1,) * n,) + rest for rest in itertools.combinations_with_replacement(rows, n - 1)]


def orbit_walk(start, n):
    """Full equivalence orbit of an encoded n x n pattern (breadth-first over generators)."""
    nn = n * n
    row_masks = [((1 << n) - 1) << (n * (n - 1 - i)) for i in range(n)]
    col_masks = [sum(1 << (nn - 1 - i * n - j) for i in range(n)) for j in range(n)]

    def neighbors(p):
        for i in range(n - 1):  # swap rows i, i+1
            hi, lo = n * (n - 1 - i), n * (n - 2 - i)
            d = ((p >> hi) ^ (p >> lo)) & ((1 << n) - 1)
            yield p ^ ((d << hi) | (d << lo))
        for j in range(n - 1):  # swap cols j, j+1
            d = ((p >> 1) ^ p) & col_masks[j + 1]
            yield p ^ (d | (d << 1))
        for mask in row_masks + col_masks:
            yield p ^ mask

    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for q in neighbors(p):
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


class TestConstruction:
    def test_associated_matrix_singletons(self):
        m = associated_matrix([{1}, {2}, {3}, set()], 3)
        assert m.entries == sign_matrix(["-++", "+-+", "++-", "+++"]).entries

    def test_associated_matrix_empty_subsets(self):
        m = associated_matrix([set(), set()], 4)
        assert all(x == 1 for row in m.entries for x in row)

    def test_associated_matrix_two_qubit_example(self):
        m = associated_matrix([{2}, set()], 2)
        assert m.entries == ((1, -1), (1, 1))

    def test_out_of_range_subset(self):
        with pytest.raises(ValueError):
            associated_matrix([{4}], 3)
        with pytest.raises(ValueError):
            associated_matrix([{0}], 3)

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            SignMatrix(((1, 0),))
        with pytest.raises(ValueError):
            SignMatrix(((1, 1), (1,)))


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(25):
            m = random_sign_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert parse_matrix_text(format_matrix(m)).entries == m.entries

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_matrix_text("++\n+x\n")
        assert err.value.line == 2
        assert err.value.column == 2

    def test_ragged_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix_text("++\n+++\n")

    def test_rows_after_blank_line_rejected(self):
        # a blank line ends the matrix; rows after it must not be dropped silently
        with pytest.raises(ParseError) as err:
            parse_matrix_text("+-\n\n-+\n")
        assert err.value.line == 3

    def test_leading_and_trailing_blank_lines_accepted(self):
        m = parse_matrix_text("\n  \n+-\n-+\n\n \n")
        assert m.entries == ((1, -1), (-1, 1))


class TestPermanent:
    def test_all_ones(self):
        assert permanent(sign_matrix(["+++", "+++", "+++"])) == 6

    def test_two_qubit_vanishing(self):
        assert permanent(sign_matrix(["+-", "++"])) == 0

    def test_sigma2_vanishes(self):
        assert permanent(SIGMA_2) == 0

    def test_naive_trivials(self):
        assert permanent_naive(sign_matrix(["-"])) == -1
        assert permanent_naive(sign_matrix(["++", "++"])) == 2
        assert permanent_naive(THREE_QUBIT) == -2

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            permanent(sign_matrix(["++-", "+++"]))
        with pytest.raises(ValueError):
            permanent_naive(sign_matrix(["++-", "+++"]))

    def test_ryser_equals_naive_random(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 8)
            m = random_sign_matrix(rng, n, n)
            assert permanent(m) == permanent_naive(m)

    def test_transpose_invariance(self):
        rng = random.Random(12)
        for _ in range(50):
            n = rng.randint(1, 7)
            m = random_sign_matrix(rng, n, n)
            assert permanent(m) == permanent(m.transpose())

    def test_swap_invariance_negation_sign(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(2, 6)
            m = random_sign_matrix(rng, n, n)
            p = permanent(m)
            i, j = rng.randrange(n), rng.randrange(n)
            assert permanent(apply_op(m, EquivalenceOp("swap-rows", i, j))) == p
            assert permanent(apply_op(m, EquivalenceOp("swap-cols", i, j))) == p
            assert permanent(apply_op(m, EquivalenceOp("negate-row", i))) == -p
            assert permanent(apply_op(m, EquivalenceOp("negate-col", j))) == -p

    def test_big_int_path_beyond_int64_bound(self):
        # per = 14!, whose Glynn total 2^13 * 14! < 2^63 is exact modulo 2^64
        m = sign_matrix(["+" * 14] * 14)
        import math

        assert permanent(m) == math.factorial(14)


class TestPermanentAddition:
    def test_opposite_all_ones(self):
        j2 = [[1, 1], [1, 1]]
        assert permanent_addition(j2, [[-1, -1], [-1, -1]]) == 0

    def test_zero_second_term(self):
        rng = random.Random(21)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            z = [[0] * n for _ in range(n)]
            assert permanent_addition(a, z) == permanent_naive_int(a)

    def test_all_ones_minus_01_pattern(self):
        rng = random.Random(22)
        for _ in range(30):
            n = rng.randint(1, 4)
            j = [[1] * n for _ in range(n)]
            p = [[-2 * rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            total = [[j[i][k] + p[i][k] for k in range(n)] for i in range(n)]
            assert permanent_addition(j, p) == permanent_naive_int(total)

    def test_random_pairs_match_naive(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(1, 4)
            a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            total = [[a[i][k] + b[i][k] for k in range(n)] for i in range(n)]
            assert permanent_addition(a, b) == permanent_naive_int(total)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            permanent_addition([[1]], [[1, 1], [1, 1]])


def permanent_naive_int(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        p = 1
        for i in range(n):
            p *= rows[i][perm[i]]
        total += p
    return total


class TestInvariants:
    def test_sigma1_profile(self):
        p = invariants(SIGMA_1)
        assert p.mu == 2
        assert p.pi_r == 4
        assert p.rank == 2

    def test_hadamard_profile(self):
        b = sign_matrix(["++++", "+-+-", "++--", "+--+"])
        p = invariants(b)
        assert p.abs_per == 8
        assert p.abs_det == 16
        assert p.rank == 4
        assert p.pi_r == p.pi_c == 4
        assert p.row_gram_is_scalar

    def test_all_ones_profile(self):
        p = invariants(sign_matrix(["++++"] * 4))
        assert p.mu == 0
        assert p.pi_r == 4
        assert p.rank == 1
        assert p.abs_per == 24

    def test_nonsquare_absent_fields(self):
        p = invariants(sign_matrix(["++-", "+++"]))
        assert p.abs_det is None
        assert p.abs_per is None
        assert p.mu == 1

    def test_mu_consistency(self):
        rng = random.Random(31)
        for _ in range(40):
            m = random_sign_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            p = invariants(m)
            minus = sum(1 for row in m.entries for x in row if x < 0)
            assert p.mu == sum(p.row_minus) == sum(p.col_minus) == minus

    def test_size_bound(self, monkeypatch):
        bound = signmat.INVARIANTS_MAX_SIZE
        assert invariants(sign_matrix(["+" * bound])).rank == 1
        assert invariants(sign_matrix(["-"] * bound)).rank == 1

        def no_elimination(rows):
            raise AssertionError("eliminated before refusing")

        monkeypatch.setattr(signmat, "_bareiss", no_elimination)
        for rows in (["+" * (bound + 1)], ["-"] * (bound + 1)):
            with pytest.raises(UnsupportedSizeError):
                invariants(sign_matrix(rows))

    def test_counts_and_gram_match_entrywise_reference(self):
        rng = random.Random(35)
        cases = [random_sign_matrix(rng, rng.randint(1, 9), rng.randint(1, 9)) for _ in range(60)]
        cases += [sylvester_hadamard(n) for n in (4, 8, 16, 128)]
        flipped = [list(row) for row in sylvester_hadamard(16).entries]
        flipped[5][11] = -flipped[5][11]
        cases.append(sign_matrix(flipped))
        grams = []
        for m in cases:
            p = invariants(m)
            assert (p.row_minus, p.col_minus, p.row_gram_is_scalar) == minus_counts_and_gram(m)
            grams.append(p.row_gram_is_scalar)
        assert grams[-5:] == [True, True, True, True, False]

    def test_rank_matches_float_rank(self):
        import numpy as np

        rng = random.Random(32)
        for _ in range(40):
            m = random_sign_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert invariants(m).rank == np.linalg.matrix_rank(m.to_numpy().astype(float))

    def test_invariance_under_ops(self):
        rng = random.Random(33)
        for _ in range(60):
            n = rng.choice((2, 4))  # parity differences are invariants for even n only
            m = random_sign_matrix(rng, n, n)
            t = apply_op(m, random_op(rng, m))
            pm, pt = invariants(m), invariants(t)
            assert pm.rank == pt.rank
            assert pm.abs_det == pt.abs_det
            assert pm.abs_per == pt.abs_per
            # a single negation flips every opposite-axis parity, so the
            # orbit invariant is the absolute parity difference
            assert abs(pm.pi_r) == abs(pt.pi_r)
            assert abs(pm.pi_c) == abs(pt.pi_c)
            assert pm.row_gram_is_scalar == pt.row_gram_is_scalar

    def test_swaps_preserve_signed_parity_differences(self):
        rng = random.Random(34)
        for _ in range(40):
            n = rng.randint(2, 5)
            m = random_sign_matrix(rng, n, n)
            i, j = rng.randrange(n), rng.randrange(n)
            for op in (EquivalenceOp("swap-rows", i, j), EquivalenceOp("swap-cols", i, j)):
                t = apply_op(m, op)
                assert invariants(t).pi_r == invariants(m).pi_r
                assert invariants(t).pi_c == invariants(m).pi_c


class TestApplyOp:
    def test_negate_row(self):
        m = apply_op(SIGMA_1, EquivalenceOp("negate-row", 0))
        assert m.entries[0] == (1, 1, -1, -1)

    def test_swap_cols(self):
        m = apply_op(sign_matrix(["+-", "-+"]), EquivalenceOp("swap-cols", 0, 1))
        assert m.entries == ((-1, 1), (1, -1))

    def test_negate_col_involution(self):
        rng = random.Random(41)
        m = random_sign_matrix(rng, 3, 4)
        op = EquivalenceOp("negate-col", 2)
        assert apply_op(apply_op(m, op), op).entries == m.entries

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            apply_op(SIGMA_1, EquivalenceOp("negate-row", 7))


class TestCanonicalForm:
    def test_sigma4_equivalent_to_sigma2_transpose(self):
        assert canonical_form(SIGMA_4) == canonical_form(SIGMA_2.transpose())

    def test_sigma3_transpose_self_equivalent(self):
        assert canonical_form(SIGMA_3.transpose()) == canonical_form(SIGMA_3)

    def test_orbit_invariance(self):
        rng = random.Random(51)
        for _ in range(40):
            m = random_sign_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            t = m
            for _ in range(rng.randint(1, 5)):
                t = apply_op(t, random_op(rng, t))
            assert canonical_form(m) == canonical_form(t)

    def test_matches_full_orbit_reference(self):
        rng = random.Random(52)
        for _ in range(15):
            m = random_sign_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
            assert canonical_form(m).entries == orbit_minimum(m)

    def test_forced_signs_match_full_sign_search(self):
        rng = random.Random(53)
        for r in range(1, 6):
            for c in range(1, 6):
                for _ in range(3):
                    m = random_sign_matrix(rng, r, c)
                    assert canonical_form(m).entries == full_sign_minimum(m)
        for _ in range(3):
            m = random_sign_matrix(rng, 6, 6)
            assert canonical_form(m).entries == full_sign_minimum(m)

    def test_forced_signs_match_full_sign_search_on_six_wide_and_tall(self):
        rng = random.Random(54)
        for k in range(1, 6):
            for r, c in ((k, 6), (6, k)):
                m = random_sign_matrix(rng, r, c)
                assert canonical_form(m).entries == full_sign_minimum(m)

    def test_structured_cases_match_full_sign_search(self):
        hadamard = sign_matrix(["++++", "+-+-", "++--", "+--+"])
        cases = [SIGMA_1, SIGMA_2, SIGMA_3, SIGMA_4, hadamard, THREE_QUBIT]
        cases += [sign_matrix(["+" * c] * r) for r, c in ((1, 1), (3, 3), (2, 5), (5, 2))]
        cases += [sign_matrix(["+-+--"]), sign_matrix(["+", "-", "-", "+", "+"])]
        for m in cases:
            assert canonical_form(m).entries == full_sign_minimum(m)

    def test_size_bound(self):
        with pytest.raises(UnsupportedSizeError):
            canonical_form(sign_matrix(["+++++++"] * 7))


class TestEquivalent:
    def test_sigma1_not_equivalent_to_transpose(self):
        assert not equivalent(SIGMA_1, SIGMA_1.transpose())

    def test_op_orbit_is_equivalent(self):
        rng = random.Random(61)
        m = random_sign_matrix(rng, 4, 4)
        assert equivalent(m, apply_op(m, EquivalenceOp("negate-row", 1)))

    def test_distinct_shapes_inequivalent(self):
        assert not equivalent(sign_matrix(["++"]), sign_matrix(["++", "++"]))


class TestClassifyVanishing:
    def test_no_vanishing_3x3(self):
        assert classify_vanishing(3, "exhaustive") == []

    def test_exactly_five_classes_4x4(self):
        classes = classify_vanishing(4, "exhaustive")
        expected = {
            canonical_form(x).entries
            for x in (SIGMA_1, SIGMA_1.transpose(), SIGMA_2, SIGMA_2.transpose(), SIGMA_3)
        }
        assert {c.entries for c in classes} == expected
        for c in classes:
            assert permanent(c) == 0

    def test_normalized_search_five(self):
        found = classify_vanishing(5, "normalized-search", budget=5)
        assert found
        for m in found:
            assert permanent(m) == 0

    def test_budget_matches_truncated_full_sweep(self):
        # the budget stops the sweep early; the classes must be those of
        # the first K vanishing matrices in sorted-row order.  At K = 200
        # the first K of the brute normalized sweep give other classes
        candidates = sorted_row_candidates(5)
        pers = signmat.batch_permanent(np.array(candidates))
        vanishing = [m for m, p in zip(candidates, pers) if p == 0]
        for budget in (2, 3, 200):
            expected = {canonical_form(sign_matrix(m)).entries for m in vanishing[:budget]}
            found = classify_vanishing(5, "normalized-search", budget)
            assert {c.entries for c in found} == expected
        brute = find_vanishing(5, True)[:200]
        assert {canonical_form(decode_pattern(int(p), 5)).entries for p in brute} != expected

    def test_sorted_rows_against_the_normalized_sweep(self):
        # the sweep's candidates are the reference multisets in order; each
        # stands for its distinct orders of rows 2..n, so weighted by them
        # the vanishing ones count the brute normalized sweep, and sorting
        # rows 2..n of every brute matrix gives a vanishing candidate
        for n in range(1, 6):
            mats = np.concatenate(list(signmat._sorted_rows(n)))
            assert mats.tolist() == [list(map(list, m)) for m in sorted_row_candidates(n)]
            vanishing = {
                tuple(map(tuple, m)) for m in mats[signmat.batch_permanent(mats) == 0].tolist()
            }
            weight = sum(
                math.factorial(n - 1) // math.prod(map(math.factorial, Counter(m[1:]).values()))
                for m in vanishing
            )
            brute = signmat._unpack(find_vanishing(n, True), n * n).reshape(-1, n, n)
            brute = [tuple(map(tuple, m)) for m in brute.tolist()]
            assert weight == len(brute)
            assert {m[:1] + tuple(sorted(m[1:])) for m in brute} == vanishing
            classes = {canonical_form(sign_matrix(m)).entries for m in vanishing}
            if n <= 4:
                assert {canonical_form(sign_matrix(m)).entries for m in brute} == classes
            found = classify_vanishing(n, "normalized-search")
            assert {c.entries for c in found} == classes

    def test_sorted_rows_chunks_across_first_indices(self, monkeypatch):
        # chunks are cut across the blocks of one first index: with a chunk
        # of 7 the n = 5 candidates still come whole and in order
        monkeypatch.setattr(signmat, "_SWEEP_CHUNK", 7)
        chunks = list(signmat._sorted_rows(5))
        assert [len(c) for c in chunks[:-1]] == [7] * (len(chunks) - 1)
        mats = np.concatenate(chunks)
        assert mats.tolist() == [list(map(list, m)) for m in sorted_row_candidates(5)]
        monkeypatch.undo()
        # chunks start at 64 candidates and grow fourfold up to _SWEEP_CHUNK
        chunks = list(signmat._sorted_rows(6))
        growing = [64 << 2 * j for j in range(5)]
        rest = 376_992 - sum(growing) - 5 * (1 << 16)
        assert [len(c) for c in chunks] == growing + [1 << 16] * 5 + [rest]
        codes = signmat._pack(np.concatenate(chunks).reshape(-1, 36).astype(np.int64))
        assert (np.diff(codes) > 0).all()

    def test_closure_matches_one_canonical_form_per_candidate(self):
        # the oracle canonicalizes every vanishing candidate; the closure
        # must give its classes at every budget, and uncapped or at 0
        for n in range(1, 6):
            codes = canonical_codes(n)
            classes = [decode_pattern(p, n) for p in sorted(set(codes))]
            modes = ["normalized-search"] + (["exhaustive"] if n <= 4 else [])
            for mode in modes:
                assert classify_vanishing(n, mode) == classes
            assert classify_vanishing(n, "normalized-search", 0) == classes
            for budget in range(1, len(codes) + 1):
                expected = [decode_pattern(p, n) for p in sorted(set(codes[:budget]))]
                assert classify_vanishing(n, "normalized-search", budget) == expected
        codes = canonical_codes(6, 5000)
        for budget in (1, 5, 700, 5000):
            expected = [decode_pattern(p, 6) for p in sorted(set(codes[:budget]))]
            assert classify_vanishing(6, "normalized-search", budget) == expected

    def test_closure_partitions_the_vanishing_candidates(self):
        # every class's images are vanishing candidates, the classes are
        # disjoint and cover them, and weighted by the distinct orders of
        # rows 2..n they count the brute normalized sweep; each class then
        # holds 2 (n!)^2 / |Stab| normalized matrices, so (n!)^2 / W_c is
        # |Stab| / 2, which the full orbit gives at n <= 4
        for n in range(1, 6):
            mats = np.concatenate(list(signmat._sorted_rows(n)))
            vanishing = mats[signmat.batch_permanent(mats) == 0]
            keys = set(signmat._row_major(signmat._pack(vanishing), n).tolist())
            covered, total = set(), 0
            for c in classify_vanishing(n, "normalized-search"):
                rep, images = signmat._closure(c.to_numpy())
                assert rep == encode_pattern(c)
                images = set(images.tolist())
                assert images <= keys
                assert not images & covered
                covered |= images
                weight = 0
                for key in images:
                    rows = [key >> n * (n - 1 - i) & (1 << n) - 1 for i in range(1, n)]
                    orders = math.prod(map(math.factorial, Counter(rows).values()))
                    weight += math.factorial(n - 1) // orders
                assert math.factorial(n) ** 2 % weight == 0
                if n <= 4:
                    orbit = orbit_walk(encode_pattern(c), n)
                    aut = math.factorial(n) ** 2 * 2 ** (2 * n - 1) // len(orbit)
                    assert math.factorial(n) ** 2 // weight == aut
                total += weight
            assert covered == keys
            assert total == len(find_vanishing(n, True))

    def test_exhaustive_matches_orbit_enumeration(self):
        # reference: walk the whole orbit of every vanishing matrix and keep
        # each orbit's minimum encoding
        for n in range(1, 5):
            patterns = {int(p) for p in find_vanishing(n, False)}
            minima = []
            while patterns:
                orbit = orbit_walk(next(iter(patterns)), n)
                minima.append(min(orbit))
                patterns -= orbit
            classes = classify_vanishing(n, "exhaustive")
            assert [encode_pattern(c) for c in classes] == sorted(minima)

    def test_sizes_below_one_refused(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept before refusing")

        monkeypatch.setattr(signmat, "_sorted_rows", no_sweep)
        for n in (0, -1):
            for mode in ("exhaustive", "normalized-search"):
                with pytest.raises(ValueError):
                    classify_vanishing(n, mode)

    def test_exhaustive_bound(self):
        with pytest.raises(UnsupportedSizeError):
            classify_vanishing(5, "exhaustive")

    def test_n6_normalized_search_without_budget_is_complete(self):
        # no budget and a budget of 0 both sweep all 376,992 candidates
        # and close the 86 classes of their 92,706 vanishing ones
        classes = classify_vanishing(6, "normalized-search")
        assert len(classes) == 86
        assert classify_vanishing(6, "normalized-search", 0) == classes
        for c in classes:
            assert permanent(c) == 0
            assert canonical_form(c) == c

    def test_find_vanishing_refuses_past_62_bits(self, monkeypatch):
        # n^2 = 64-bit encodings overflow int64: refuse before the first
        # chunk is allocated or swept
        def no_work(*args, **kwargs):
            raise AssertionError("allocated or swept before refusing")

        monkeypatch.setattr(signmat.np, "arange", no_work)
        monkeypatch.setattr(signmat, "batch_permanent", no_work)
        monkeypatch.setattr(signmat, "_unpack", no_work)
        for n, normalized in ((8, False), (8, True), (9, True)):
            with pytest.raises(UnsupportedSizeError):
                find_vanishing(n, normalized)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            classify_vanishing(3, "monte-carlo")


class TestPatternEncoding:
    def test_round_trip_and_order(self):
        rng = random.Random(81)
        pairs = []
        for _ in range(30):
            m = random_sign_matrix(rng, 3, 3)
            p = encode_pattern(m)
            assert decode_pattern(p, 3).entries == m.entries
            pairs.append((p, m.entries))
        # integer order on encodings == row-major entry order with -1 < +1
        for (p1, e1), (p2, e2) in itertools.combinations(pairs, 2):
            assert (p1 < p2) == (e1 < e2)

    def test_round_trip_and_order_n1_to_6(self):
        # up to 36-bit codes; bit n*n - 1 - (n*i + j) is set iff entry (i, j) is +1
        rng = random.Random(82)
        for n in range(1, 7):
            pairs = []
            for _ in range(20):
                m = random_sign_matrix(rng, n, n)
                p = encode_pattern(m)
                bits = [(p >> (n * n - 1 - (n * i + j))) & 1 for i in range(n) for j in range(n)]
                assert bits == [int(x > 0) for row in m.entries for x in row]
                assert p < 1 << (n * n)
                assert decode_pattern(p, n).entries == m.entries
                pairs.append((p, m.entries))
            for (p1, e1), (p2, e2) in itertools.combinations(pairs, 2):
                assert (p1 < p2) == (e1 < e2)


class TestIntegerRank:
    def test_known_ranks(self):
        assert integer_rank(SIGMA_1.entries) == 2
        assert integer_rank(SIGMA_2.entries) == 3
        assert integer_rank(SIGMA_3.entries) == 4
        assert integer_rank([[2, 4], [1, 2]]) == 1
