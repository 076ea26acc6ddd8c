"""Density-matrix operations: partial transposes, PPT, ranks, edge analysis."""

import itertools

import numpy as np
import pytest

from prodvec import mpstate
from prodvec.errors import ParseError
from prodvec.mpstate import (
    INCONSISTENT,
    NOT_APPLICABLE,
    NOT_EDGE,
    build_separable,
    canonical_subsets,
    density_matrix,
    edge_analysis,
    is_ppt,
    maximally_mixed,
    partial_transpose,
    random_state,
    range_complement,
    rank_profile,
    read_state,
    write_state,
)
from prodvec.solver import SolverConfig, product_vector, residual

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def bell_state():
    return density_matrix((2, 2), np.outer(BELL, BELL.conj()))


def state_at_cut(seed):
    """Separable 2 (x) 2 state (U1 (x) U2) diag(lam) (U1 (x) U2)^+ whose smallest
    eigenvalue sits within 2e-7 (relative) of the default 1e-9 rank cut."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    us = []
    for _ in range(2):
        q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        us.append(q * (np.diag(r) / np.abs(np.diag(r))))
    lam = rng.uniform(0.5, 1.0, 4)
    lam[-1] = lam.max() * 1e-9 * (1 + rng.uniform(-2e-7, 2e-7))
    u = np.kron(us[0], us[1])
    return density_matrix((2, 2), u @ np.diag(lam) @ u.conj().T)


def random_vectors(seed, dims, count):
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    return [
        product_vector([rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims])
        for _ in range(count)
    ]


RANDOM_DIMS = [(2, 2), (2, 3), (3, 4), (2, 2, 2), (2, 2, 3), (12,), (2, 5)]


class TestPartialTranspose:
    def test_empty_subset_identity(self):
        rho = random_state((2, 3), 1)
        assert np.array_equal(partial_transpose(rho, ()).mat, rho.mat)

    def test_full_subset_is_transpose(self):
        rho = random_state((2, 2, 2), 2)
        out = partial_transpose(rho, {1, 2, 3})
        assert np.array_equal(out.mat, rho.mat.T)

    def test_bell_spectrum(self):
        out = partial_transpose(bell_state(), {2})
        w = np.linalg.eigvalsh(out.mat)
        assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_known_single_swap_layout(self):
        # worked 2x2 example for the row-major index convention
        rho = density_matrix((2, 2), np.eye(4) / 4 + 0j)
        m = np.arange(16, dtype=float).reshape(4, 4)
        m = (m + m.T) / 2
        rho = density_matrix((2, 2), m / np.trace(m))
        out = partial_transpose(rho, {2})
        r = rho.mat
        expected = np.empty((4, 4), dtype=complex)
        for i1, i2, j1, j2 in itertools.product(range(2), repeat=4):
            expected[2 * i1 + i2, 2 * j1 + j2] = r[2 * i1 + j2, 2 * j1 + i2]
        assert np.allclose(out.mat, expected, atol=0)

    def test_property_suite(self):
        # involution, composition, trace/hermiticity/frobenius, mirror spectrum
        count = 0
        for seed, dims in enumerate(RANDOM_DIMS * 8):
            if count >= 50:
                break
            count += 1
            n = len(dims)
            rho = random_state(dims, 1000 + seed)
            subsets = [
                frozenset(
                    j + 1 for j in range(n) if (seed >> j) & 1
                ),
                frozenset({1}) if n >= 1 else frozenset(),
            ]
            for s in subsets:
                pt = partial_transpose(rho, s)
                back = partial_transpose(pt, s)
                assert np.abs(back.mat - rho.mat).max() < 1e-14
                assert abs(np.trace(pt.mat) - 1) < 1e-12
                assert np.abs(pt.mat - pt.mat.conj().T).max() < 1e-12
                assert abs(
                    np.linalg.norm(pt.mat) - np.linalg.norm(rho.mat)
                ) < 1e-12
                comp = frozenset(range(1, n + 1)) - s
                w1 = np.linalg.eigvalsh(pt.mat)
                w2 = np.linalg.eigvalsh(partial_transpose(rho, comp).mat)
                assert np.allclose(w1, w2, atol=1e-12)
            s1 = subsets[0]
            s2 = frozenset({1, min(n, 2)})
            chained = partial_transpose(partial_transpose(rho, s1), s2)
            direct = partial_transpose(rho, s1 ^ s2)
            assert np.abs(chained.mat - direct.mat).max() < 1e-14


class TestCanonicalSubsets:
    def test_excludes_first_party_binary_order(self):
        subs = canonical_subsets(3)
        assert subs == [
            frozenset(),
            frozenset({2}),
            frozenset({3}),
            frozenset({2, 3}),
        ]
        assert all(1 not in s for s in canonical_subsets(4))
        assert len(canonical_subsets(4)) == 8


class TestIsPpt:
    def test_maximally_mixed(self):
        ok, eigs = is_ppt(maximally_mixed((2, 2, 2)))
        assert ok
        assert len(eigs) == 4

    def test_bell_fails(self):
        ok, eigs = is_ppt(bell_state())
        assert not ok
        assert min(eigs.values()) == pytest.approx(-0.5, abs=1e-12)

    def test_separable_is_ppt(self):
        state = build_separable(random_vectors(3, (2, 2), 4), [0.25] * 4)
        assert is_ppt(state)[0]


class TestRankProfile:
    def test_pure_product_all_ranks_one(self):
        v = random_vectors(5, (2, 2, 2), 1)
        state = build_separable(v, [1.0])
        prof = rank_profile(state)
        assert [r.rank for r in prof.records] == [1, 1, 1, 1]

    def test_maximally_mixed_three_qubit(self):
        prof = rank_profile(maximally_mixed((2, 2, 2)))
        assert [r.rank for r in prof.records] == [8, 8, 8, 8]
        assert prof.sum_of_ranks == 32
        assert prof.bound == 29

    def test_bell_ranks(self):
        prof = rank_profile(bell_state())
        assert [r.rank for r in prof.records] == [1, 4]
        assert prof.bound == 2 * 4 - 2

    def test_rank_and_complement_agree_at_the_cut(self):
        # rank and range come from one eigh, so they cannot disagree about
        # an eigenvalue next to the cut, and the decision counts the same
        # complement dimensions as the profile
        for seed in range(40):
            report = edge_analysis(state_at_cut(seed), SolverConfig(seed=0, restarts=4))
            for r in report.profile.records:
                assert r.rank + r.complement.shape[0] == 4
            codims = sum(4 - r.rank for r in report.profile.records)
            assert report.decision.n_equations == codims

    def test_complement_spans_the_kernel(self):
        rho = random_state((2, 3), 9, rank=3)
        for r in rank_profile(rho).records:
            pt = partial_transpose(rho, r.subset).mat
            assert np.allclose(r.complement.conj() @ r.complement.T, np.eye(6 - r.rank))
            assert np.linalg.norm(pt @ r.complement.T) < 1e-9
            assert np.array_equal(r.complement, range_complement(partial_transpose(rho, r.subset)))

    def test_nan_tolerance_counts_every_dimension_once(self):
        for r in rank_profile(maximally_mixed((2, 2)), tol=float("nan")).records:
            assert r.rank + r.complement.shape[0] == 4

    def test_rank_complement_symmetry(self):
        rho = random_state((2, 3), 9, rank=3)
        for s in canonical_subsets(2):
            pt = partial_transpose(rho, s)
            ptc = partial_transpose(rho, frozenset({1, 2}) - s)
            sv1 = np.abs(np.linalg.eigvalsh(pt.mat))
            sv2 = np.abs(np.linalg.eigvalsh(ptc.mat))
            assert np.allclose(np.sort(sv1), np.sort(sv2), atol=1e-12)


class TestRangeComplement:
    def test_full_rank_empty(self):
        assert range_complement(maximally_mixed((2, 2))).shape == (0, 4)

    def test_pure_state(self):
        basis = range_complement(bell_state())
        assert basis.shape == (3, 4)
        assert np.allclose(basis.conj() @ basis.T, np.eye(3), atol=1e-12)
        assert np.abs(basis.conj() @ BELL).max() < 1e-12

    def test_rank_two_state(self):
        rho = random_state((2, 2), 13, rank=2)
        basis = range_complement(rho)
        assert basis.shape == (2, 4)
        for v in basis:
            assert np.linalg.norm(rho.mat @ v) < 1e-9


class TestBuildSeparable:
    def test_single_vector_pure(self):
        (v,) = random_vectors(15, (2, 2), 1)
        state = build_separable([v], [1.0])
        w = v.full_vector()
        assert np.allclose(state.mat, np.outer(w, w.conj()), atol=1e-12)

    def test_uniform_computational_mixture_diagonal(self):
        vecs = [
            product_vector([e1, e2])
            for e1 in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            for e2 in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        ]
        state = build_separable(vecs, [0.25] * 4)
        assert np.allclose(state.mat, np.eye(4) / 4, atol=1e-14)
        assert is_ppt(state)[0]
        assert [r.rank for r in rank_profile(state).records] == [4, 4]

    def test_outputs_always_ppt(self):
        for seed in range(5):
            vecs = random_vectors(20 + seed, (2, 2), 3)
            state = build_separable(vecs, [0.5, 0.25, 0.25])
            assert is_ppt(state, tol=1e-10)[0]

    def test_weight_validation(self):
        (v,) = random_vectors(25, (2, 2), 1)
        with pytest.raises(ValueError):
            build_separable([v], [0.9])


class TestEdgeAnalysis:
    def test_maximally_mixed_not_edge(self):
        report = edge_analysis(maximally_mixed((2, 2)), SolverConfig(seed=1))
        assert report.classification == NOT_EDGE
        assert report.witness is not None
        assert report.solve_report.solutions[0].residual < 1e-10

    def test_separable_state_not_edge(self):
        from prodvec.solver import SubspaceConstraint

        state = build_separable(random_vectors(33, (2, 2), 3), [1 / 3] * 3)
        report = edge_analysis(state, SolverConfig(seed=2, restarts=200))
        assert report.classification == NOT_EDGE
        # the witness satisfies the range conditions, rebuilt independently
        constraints = [
            SubspaceConstraint(s, range_complement(partial_transpose(state, s)))
            for s in canonical_subsets(2)
        ]
        assert residual(report.witness, constraints) < 1e-10
        assert report.inequality_satisfied is not None

    def test_three_qubit_separable_not_edge(self):
        state = build_separable(random_vectors(77, (2, 2, 2), 4), [0.25] * 4)
        report = edge_analysis(state, SolverConfig(seed=5, restarts=150))
        assert report.classification == NOT_EDGE
        assert report.witness is not None
        assert report.profile.sum_of_ranks == 16
        assert report.profile.bound == 29
        assert report.inequality_satisfied

    def test_non_ppt_not_applicable(self):
        report = edge_analysis(bell_state())
        assert report.classification == NOT_APPLICABLE
        assert report.profile is None

    def test_ranges_taken_from_the_profile(self, monkeypatch):
        # one partial transpose per canonical subset for is_ppt and one for
        # rank_profile; the constraints reuse the profile's complements
        calls = []
        transpose = mpstate.partial_transpose

        def counting(rho, subset):
            calls.append(subset)
            return transpose(rho, subset)

        def no_complement(*args, **kwargs):
            raise AssertionError("edge_analysis decomposed a partial transpose again")

        monkeypatch.setattr(mpstate, "partial_transpose", counting)
        monkeypatch.setattr(mpstate, "range_complement", no_complement)
        state = build_separable(random_vectors(77, (2, 2, 2), 4), [0.25] * 4)
        report = edge_analysis(state, SolverConfig(seed=5, restarts=20))
        assert len(calls) == 2 * 4
        assert report.decision.n_equations == sum(8 - r.rank for r in report.profile.records)

    def test_rank_sum_at_bound_forces_witness_or_flag(self):
        report = edge_analysis(maximally_mixed((2, 2, 2)), SolverConfig(seed=3))
        assert report.profile.sum_of_ranks == 32 >= report.profile.bound
        assert report.classification in (NOT_EDGE, INCONSISTENT)
        assert report.classification == NOT_EDGE  # full ranges: witness exists


class TestStateFiles:
    def test_round_trip_exact(self):
        for seed, dims in [(1, (2, 2)), (2, (2, 3)), (3, (2, 2, 2))]:
            rho = random_state(dims, seed)
            text = write_state(rho)
            back = read_state(text)
            assert back.dims == rho.dims
            assert np.array_equal(back.mat, rho.mat)
            assert write_state(back) == text

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError):
            read_state("nonsense\n")
        try:
            read_state("dims: 2 2\n0 0 1.0 oops\n")
        except ParseError as exc:
            assert exc.line == 2
        else:
            raise AssertionError("expected ParseError")

    def test_index_bounds_checked(self):
        with pytest.raises(ParseError):
            read_state("dims: 2\n5 0 1.0 0.0\n")

    def test_non_hermitian_rejected(self):
        with pytest.raises(ParseError):
            read_state("dims: 2\n0 1 1.0 0.0\n1 0 0.5 0.0\n0 0 0.5 0.0\n1 1 0.5 0.0\n")

    def test_non_finite_entries_rejected(self):
        for bad in ("nan 0", "0 nan", "inf 0", "0 -inf", "-inf 0"):
            with pytest.raises(ParseError) as exc:
                read_state(f"dims: 2\n0 0 0.5 0\n1 1 0.5 0\n0 1 {bad}\n")
            assert exc.value.line == 4


class TestDensityMatrix:
    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf, 1j * np.nan):
            mat = np.eye(4, dtype=complex) / 4
            mat[1, 2] = mat[2, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                density_matrix((2, 2), mat)
            mat = np.eye(4, dtype=complex) / 4
            mat[3, 3] = bad
            with pytest.raises(ValueError, match="non-finite"):
                density_matrix((2, 2), mat)

    def test_non_positive_trace_rejected(self):
        # dividing by a negative trace would turn -I/4 into the mixed state
        for scale in (-1.0, -1e-3, 0.0, 1e-13):
            with pytest.raises(ValueError, match="not positive"):
                density_matrix((2, 2), scale * np.eye(4, dtype=complex) / 4)
        assert density_matrix((2, 2), 2e-12 * np.eye(4, dtype=complex)).mat[0, 0] == 0.25
