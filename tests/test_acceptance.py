"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import itertools
import math
import random
import time

import numpy as np

from prodvec.mpstate import (
    NOT_EDGE,
    canonical_subsets,
    edge_analysis,
    maximally_mixed,
    partial_transpose,
    random_state,
    rank_profile,
)
from prodvec.signmat import (
    EquivalenceOp,
    apply_op,
    canonical_form,
    classify_vanishing,
    decode_pattern,
    encode_pattern,
    equivalent,
    find_vanishing,
    invariants,
    permanent,
    permanent_addition,
    permanent_naive,
    sign_matrix,
)
from prodvec.solvability import (
    EXISTS_NONZERO,
    GENERICALLY_EMPTY,
    generic_count,
    problem_spec,
    verdict,
)
from prodvec.solver import (
    SolverConfig,
    random_instance,
    solve,
    subspace_constraint,
)
from prodvec.truncpoly import coefficient_direct, expand_product


class criterion:
    """Context manager printing one pass/fail line per criterion."""

    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        elapsed = time.monotonic() - self.start
        print(f"criterion {self.number}: {status} ({self.description}; {elapsed:.1f}s)")
        return False


SIGMA_1 = sign_matrix(["--++", "++++", "++++", "++++"])
SIGMA_2 = sign_matrix(["--++", "+--+", "++++", "++++"])
SIGMA_3 = sign_matrix(["--++", "+-++", "++-+", "++++"])

BELL_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def random_sign_rows(rng, r, n):
    return [[rng.choice((-1, 1)) for _ in range(n)] for _ in range(r)]


def test_criterion_1_no_3x3_vanishing():
    with criterion(1, "exhaustive 3x3 sweep finds no vanishing permanent"):
        t0 = time.monotonic()
        assert classify_vanishing(3, "exhaustive") == []
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_4x4_classification():
    with criterion(2, "4x4 sweep: even mu and exactly the five classes"):
        t0 = time.monotonic()
        vanishing = find_vanishing(4, False)
        assert vanishing.size > 0
        for p in vanishing:
            minus = 16 - int(p).bit_count()
            assert minus % 2 == 0
        classes = classify_vanishing(4, "exhaustive")
        expected = {
            canonical_form(m).entries
            for m in (
                SIGMA_1,
                SIGMA_1.transpose(),
                SIGMA_2,
                SIGMA_2.transpose(),
                SIGMA_3,
            )
        }
        assert {c.entries for c in classes} == expected
        assert len(classes) == 5
        assert time.monotonic() - t0 < 60.0


def row_dot_multiset(m):
    """Sorted |r_i . r_k| over row pairs i < k.

    Column swaps and negations leave every row dot product unchanged, a
    row negation only flips signs and a row swap permutes the pairs, so
    the multiset is an equivalence invariant outside ``InvariantProfile``.
    """
    return sorted(
        abs(sum(x * y for x, y in zip(ri, rk)))
        for ri, rk in itertools.combinations(m.entries, 2)
    )


def test_criterion_3_final_example_invariants():
    """The final-example pair shares every invariant and is equivalent.

    A and B have permanent 8, |det| 16, rank 4 and pi_r = pi_c = 4, and
    B has a scalar row Gram matrix.  |det| = 16 = 4^(4/2) meets
    Hadamard's bound, which forces pairwise orthogonal rows, so both are
    Hadamard matrices; all 4x4 Hadamard matrices form one orbit (of 768
    matrices) under row/column swaps and negations.  The test checks
    that equivalence twice: through ``equivalent`` and through an
    explicit witness, five ``apply_op`` steps that carry A onto B.

    At n = 4 no inequivalent pair can share this profile: an orbit
    enumeration over all 2^16 4x4 sign matrices, independent of
    ``canonical_form``, finds 12 orbits, and (|per|, |det|, rank,
    |pi_r|, |pi_c|, row_gram_is_scalar) takes a different value on each.
    The inequivalence half therefore uses a 5x5 pair, where the profile
    is sound but not complete: C and D share |per| 16, |det| 0 and
    rank 4, neither has a scalar row Gram matrix, and they are told
    apart both by ``equivalent`` and by the multiset of |r_i . r_k|.
    """
    with criterion(3, "final-example invariants and inequivalence"):
        a = sign_matrix(["--++", "+--+", "-+-+", "++++"])
        b = sign_matrix(["++++", "+-+-", "++--", "+--+"])
        pa, pb = invariants(a), invariants(b)
        assert permanent(a) == permanent(b) == 8
        assert pa.abs_det == pb.abs_det == 16
        assert pa.rank == pb.rank == 4
        assert pa.pi_r == pa.pi_c == pb.pi_r == pb.pi_c == 4
        assert pb.row_gram_is_scalar
        witness = [
            EquivalenceOp("swap-cols", 1, 3),
            EquivalenceOp("negate-row", 1),
            EquivalenceOp("negate-row", 3),
            EquivalenceOp("negate-col", 0),
            EquivalenceOp("negate-col", 3),
        ]
        image = a
        for op in witness:
            image = apply_op(image, op)
        assert image.entries == b.entries
        assert equivalent(a, b) is True

        c = sign_matrix(["-+-+-", "---+-", "---++", "--+++", "-+-+-"])
        d = sign_matrix(["+-+--", "-++--", "++---", "+++++", "++---"])
        pc, pd = invariants(c), invariants(d)
        assert pc.abs_per == pd.abs_per == 16
        assert pc.abs_det == pd.abs_det == 0
        assert pc.rank == pd.rank == 4
        assert not pc.row_gram_is_scalar and not pd.row_gram_is_scalar
        assert row_dot_multiset(c) == [1, 1, 1, 1, 1, 3, 3, 3, 3, 5]
        assert row_dot_multiset(d) == [1, 1, 1, 1, 1, 1, 1, 1, 1, 5]
        assert equivalent(c, d) is False


def test_criterion_4_normalized_search_n5():
    with criterion(4, "normalized search finds a vanishing 5x5 matrix"):
        t0 = time.monotonic()
        found = classify_vanishing(5, "normalized-search", budget=4)
        assert found
        for m in found:
            assert permanent(m) == 0
        assert time.monotonic() - t0 < 120.0


def test_criterion_5_ring_expansions():
    with criterion(5, "ring expansions: vanishing product instances"):
        p = expand_product(
            sign_matrix(["-++", "+-+", "++-", "+++"]), [1, 1, 1, 1], (2, 2, 4)
        )
        assert p.is_zero()
        five_1 = sign_matrix(["-++--", "+-+++", "++-++", "+++++"])
        five_2 = sign_matrix(["-++-+", "+-++-", "++-++", "+++++"])
        p1 = expand_product(five_1, [1, 1, 1, 1], (2,) * 5)
        p2 = expand_product(five_2, [1, 1, 1, 1], (2,) * 5)
        assert p1.is_zero()
        assert not p2.is_zero()
        assert invariants(five_1).rank == 3
        assert invariants(five_2).rank == 3


def test_criterion_6_permanent_oracles():
    with criterion(6, "Ryser = naive (500); addition formula = naive (100)"):
        rng = random.Random(606)
        for _ in range(500):
            n = rng.randint(1, 8)
            m = sign_matrix(random_sign_rows(rng, n, n))
            assert permanent(m) == permanent_naive(m)
        for _ in range(100):
            n = rng.randint(1, 6)
            a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            total = [[a[i][j] + b[i][j] for j in range(n)] for i in range(n)]
            naive = sum(
                math.prod(total[i][p[i]] for i in range(n))
                for p in itertools.permutations(range(n))
            )
            assert permanent_addition(a, b) == naive


def test_criterion_7_coefficient_oracles():
    with criterion(7, "coefficients = direct expansion; derivative recurrence"):
        rng = random.Random(707)
        instances = 0
        while instances < 200:
            r, n = rng.randint(1, 3), rng.randint(1, 3)
            rows = random_sign_rows(rng, r, n)
            powers = [rng.randint(1, 3) for _ in range(r)]
            dims = tuple(rng.randint(2, 3) for _ in range(n))
            instances += 1
            p = expand_product(rows, powers, dims)
            for m in p.coeffs:
                assert p.coefficient(m) == coefficient_direct(rows, powers, m)
            subs = [
                expand_product(
                    rows, powers[:i] + [powers[i] - 1] + powers[i + 1 :], dims
                )
                for i in range(r)
            ]
            for m in p.coeffs:
                for j in range(n):
                    if m[j] == 0:
                        continue
                    m_down = m[:j] + (m[j] - 1,) + m[j + 1 :]
                    rhs = sum(
                        powers[i] * rows[i][j] * subs[i].coefficient(m_down)
                        for i in range(r)
                    )
                    assert m[j] * p.coefficient(m) == rhs


def test_criterion_8_generic_solution_counts():
    with criterion(8, "generic instances: 2 / 6 / 6 distinct solutions"):
        cases = [
            ((2, 2), [((), 2)], 2),
            ((3, 3), [((), 4)], 6),
            ((2, 2, 2), [((), 1), ((), 1), ((), 1)], 6),
        ]
        for dims, cons, expected in cases:
            spec = problem_spec(dims, cons)
            assert generic_count(spec) == expected
            for seed in (1, 2, 3, 4, 5):
                t0 = time.monotonic()
                report = solve(
                    random_instance(spec, seed), dims, SolverConfig(seed=seed)
                )
                assert report.distinct_count == expected
                assert all(s.residual < 1e-10 for s in report.solutions)
                assert time.monotonic() - t0 < 60.0


def test_criterion_9_nonexistence_evidence():
    with criterion(9, "infeasible two- and four-qubit instances: high floors"):
        two_qubit = [
            subspace_constraint({2}, BELL_PLUS),
            subspace_constraint((), SINGLET),
        ]
        report = solve(
            two_qubit, (2, 2), SolverConfig(restarts=10**4, seed=909)
        )
        assert not report.solutions
        assert report.residual_floor > 1e-3
        assert report.restarts_used >= 10**4

        four_qubit = [
            subspace_constraint({2, 4}, np.kron(BELL_PLUS, BELL_PLUS)),
            subspace_constraint({2}, np.kron(BELL_PLUS, SINGLET)),
            subspace_constraint({4}, np.kron(SINGLET, BELL_PLUS)),
            subspace_constraint((), np.kron(SINGLET, SINGLET)),
        ]
        report = solve(
            four_qubit, (2, 2, 2, 2), SolverConfig(restarts=10**4, seed=909)
        )
        assert not report.solutions
        assert report.residual_floor > 1e-3
        assert report.restarts_used >= 10**4


def test_criterion_10_verdict_solver_consistency():
    with criterion(10, "verdicts vs solver on random critical/overdetermined"):
        rng = np.random.Generator(np.random.Philox(key=[99, 0]))
        for trial in range(100):
            r = int(rng.integers(1, 5))
            subsets = [
                frozenset(int(j) + 1 for j in np.flatnonzero(rng.integers(0, 2, 3)))
                for _ in range(r)
            ]
            codims = [0] * r
            for _ in range(3):
                codims[int(rng.integers(0, r))] += 1
            spec = problem_spec((2, 2, 2), list(zip(subsets, codims)))
            v = verdict(spec)
            assert v.kind == EXISTS_NONZERO
            report = solve(
                random_instance(spec, 1000 + trial),
                (2, 2, 2),
                SolverConfig(restarts=100, seed=trial),
            )
            assert report.solutions
        for trial in range(20):
            subsets = [
                frozenset(int(j) + 1 for j in np.flatnonzero(rng.integers(0, 2, 3)))
                for _ in range(2)
            ]
            spec = problem_spec((2, 2, 2), list(zip(subsets, [2, 2])))
            assert verdict(spec).kind == GENERICALLY_EMPTY
            report = solve(
                random_instance(spec, 2000 + trial),
                (2, 2, 2),
                SolverConfig(restarts=300, seed=trial),
            )
            assert not report.solutions


def test_criterion_11_partial_transpose_properties():
    with criterion(11, "partial-transpose property suite on 50 random states"):
        dims_pool = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (2, 2, 2), (2, 2, 3)]
        rng = random.Random(1111)
        for count in range(50):
            dims = dims_pool[count % len(dims_pool)]
            assert math.prod(dims) <= 12
            n = len(dims)
            rho = random_state(dims, 5000 + count)
            all_parties = frozenset(range(1, n + 1))
            s1 = frozenset(j for j in all_parties if rng.random() < 0.5)
            s2 = frozenset(j for j in all_parties if rng.random() < 0.5)
            pt = partial_transpose(rho, s1)
            assert np.abs(partial_transpose(pt, s1).mat - rho.mat).max() <= 1e-12
            chained = partial_transpose(pt, s2).mat
            assert np.abs(chained - partial_transpose(rho, s1 ^ s2).mat).max() <= 1e-12
            assert abs(np.trace(pt.mat) - 1) <= 1e-12
            assert np.abs(pt.mat - pt.mat.conj().T).max() <= 1e-12
            w1 = np.linalg.eigvalsh(pt.mat)
            w2 = np.linalg.eigvalsh(partial_transpose(rho, all_parties - s1).mat)
            assert np.abs(w1 - w2).max() <= 1e-12


def test_criterion_12_three_qubit_bound():
    with criterion(12, "three-qubit bound arithmetic and mixed-state analysis"):
        mixed = maximally_mixed((2, 2, 2))
        profile = rank_profile(mixed)
        assert profile.bound == 29
        assert profile.sum_of_ranks == 32
        report = edge_analysis(mixed, SolverConfig(seed=12))
        assert report.classification == NOT_EDGE
        assert report.witness is not None
        assert report.solve_report.solutions[0].residual < 1e-10
