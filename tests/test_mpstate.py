"""Density-matrix operations: partial transposes, PPT, ranks, edge analysis."""

import io
import itertools
import math
import os
import warnings

import numpy as np
import pytest

from prodvec import mpstate, solver
from prodvec.errors import ParseError, UnsupportedSizeError
from prodvec.mpstate import (
    CANDIDATE_EDGE,
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
from prodvec.solvability import reduce, verdict
from prodvec.solver import (
    BUDGET,
    MAX_RESTART_ENTRIES,
    WITNESS,
    SolverConfig,
    SubspaceConstraint,
    product_vector,
    residual,
    solve,
    spec_of_constraints,
)

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


def rank_three_state():
    """(I - |psi><psi|) / 3 on (2, 2), psi a product vector: both ranges have
    codim 1, N_E = N_U = 2, and the top coefficient of (a1 + a2)(a1 - a2)
    vanishes, so its verdict is inconclusive."""
    psi = product_vector([np.array([1, 1j]), np.array([2, 1 - 1j])]).full_vector()
    return density_matrix((2, 2), (np.eye(4) - np.outer(psi, psi.conj())) / 3)


def random_vectors(seed, dims, count):
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    return [
        product_vector([rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims])
        for _ in range(count)
    ]


RANDOM_DIMS = [(2, 2), (2, 3), (3, 4), (2, 2, 2), (2, 2, 3), (12,), (2, 5)]


def no_eig(*args, **kwargs):
    raise AssertionError("eigendecomposed before checking the bounds")


def symmetric_times_mixed():
    """(P_sym / 3) (x) (I / 2) on 2 (x) 2 (x) 2: separable, so PPT.  Its
    transposes over {} and {3} have rank 6, and those over {2} and {2, 3}
    full rank, since the partial transpose of P_sym = (I + F) / 2 is
    (I + 2 |Phi+><Phi+|) / 2."""
    sym = (np.eye(4) + np.eye(4)[[0, 2, 1, 3]]) / 2
    return density_matrix((2, 2, 2), np.kron(sym / 3, np.eye(2) / 2) + 0j)


def tiles_upb():
    """The Tiles UPB state on 3 (x) 3, (I - sum_i |psi_i><psi_i|) / 4 (Bennett
    et al., PRL 82, 5385, 1999).  Its range holds no product vector, nor does
    that of its partial transpose: a PPT entangled edge state."""
    e = np.eye(3)
    psi = [
        np.kron(e[0], e[0] - e[1]) / np.sqrt(2),
        np.kron(e[0] - e[1], e[2]) / np.sqrt(2),
        np.kron(e[2], e[1] - e[2]) / np.sqrt(2),
        np.kron(e[1] - e[2], e[0]) / np.sqrt(2),
        np.kron(e.sum(0), e.sum(0)) / 3,
    ]
    return density_matrix((3, 3), (np.eye(9) - sum(np.outer(p, p) for p in psi)) / 4 + 0j)


def recording(monkeypatch, names):
    """Wrap the numpy.linalg functions in ``names``; the returned list gets
    (name, copy of the argument) per call, in call order."""
    seen = []
    for name in names:
        real = getattr(np.linalg, name)

        def wrapped(a, *args, _name=name, _real=real, **kwargs):
            seen.append((_name, np.array(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(mpstate.np.linalg, name, wrapped)
    return seen


def not_ppt_profile(calls):
    """Stand-in for mpstate.rank_profile: every partial transpose has -1 as
    its least eigenvalue, so the state is not PPT; records the dims it sees."""

    def profile(rho, tol):
        assert tol == mpstate.DEFAULT_RANK_TOL
        calls.append(rho.dims)
        records = tuple(
            mpstate.SubsetRank(s, 1, -1.0, 0.0, 1.0, None)
            for s in canonical_subsets(rho.n_parties)
        )
        return mpstate.RankProfile(records, len(records), 0)

    return profile


class TestPartialTranspose:
    def test_empty_subset_identity(self):
        rho = random_state((2, 3), 1)
        assert np.array_equal(partial_transpose(rho, ()).mat, rho.mat)

    @pytest.mark.parametrize("subset", [{0}, {3}])
    def test_subset_out_of_range_rejected(self, subset):
        with pytest.raises(ValueError, match=r"out of range 1\.\.2"):
            partial_transpose(random_state((2, 3), 1), subset)

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


class TestRandomState:
    @pytest.mark.parametrize("a, b", [(-1, 0), (2**63, 2**63 + 1)])
    def test_wide_seeds_draw_their_own_streams(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ra, rb = random_state((2, 2), a), random_state((2, 2), b)
        assert not np.allclose(ra.mat, rb.mat)


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
            assert is_ppt(state)[0]

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

    @pytest.mark.parametrize(
        "dims, count", [((2, 2), 3), ((2, 3), 4), ((2, 2, 2), 4), ((2, 2, 3), 5)]
    )
    def test_separable_states_stop_at_a_witness(self, dims, count):
        # at the default cap of 500 restarts, restart 0 alone holds one
        state = build_separable(random_vectors(count, dims, count), [1 / count] * count)
        report = edge_analysis(state, SolverConfig(seed=1))
        assert report.classification == NOT_EDGE
        assert report.witness is not None
        assert (report.solve_report.restarts_used, report.solve_report.stopped) == (1, WITNESS)

    @pytest.mark.parametrize("dims, seed", [((2, 2, 2), 3), ((2, 3), 5)])
    def test_witness_is_restart_zero_bit_for_bit(self, dims, seed):
        # the witness stop moves only where a solve stops: the witness is
        # restart 0's accepted point, as a solve of that one restart finds
        # it and as row 0 of a batch of 16 ends
        state = build_separable(random_vectors(seed, dims, 4), [0.25] * 4)
        report = edge_analysis(state, SolverConfig(restarts=40, seed=seed))
        assert report.solve_report.restarts_used == 1
        constraints = [SubspaceConstraint(r.subset, r.complement) for r in report.profile.records]
        (alone,) = solve(constraints, dims, SolverConfig(restarts=1, seed=seed)).solutions
        problem = solver._Problem(dims, constraints)
        rng = solver.philox_stream(seed, 1)
        starts = problem.complex_factors(rng.standard_normal((16, problem.n_params)))
        factors, costs, _ = solver._minimize_batch(problem, starts)
        assert costs[0] < SolverConfig().accept_threshold
        row0 = solver._canonical([f[:1] for f in factors])
        for w, a, b in zip(report.witness.factors, alone.vector.factors, row0):
            assert np.array_equal(w, a)
            assert np.array_equal(w, b[0])

    def test_no_witness_classified_from_the_verdict(self):
        # without restarts, a verdict that certifies existence gives not-edge
        # with no witness, and only an inconclusive one leaves the bound open
        none = SolverConfig(restarts=0)
        report = edge_analysis(maximally_mixed((2, 2)), none)
        assert (report.decision.basis, report.classification) == (
            "underdetermined-nonvanishing", NOT_EDGE
        )
        assert report.witness is None
        rank3 = rank_three_state()
        report = edge_analysis(rank3, none)
        assert (report.decision.kind, report.classification) == ("inconclusive", INCONSISTENT)
        assert edge_analysis(rank3, SolverConfig(seed=1)).classification == NOT_EDGE

    def test_non_ppt_not_applicable(self):
        report = edge_analysis(bell_state())
        assert report.classification == NOT_APPLICABLE
        assert report.profile is None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiles_upb_state_is_a_candidate_edge(self, seed):
        # no restart reaches a product vector, and N_E = 10 > N_U = 4
        report = edge_analysis(tiles_upb(), SolverConfig(seed=seed))
        assert report.ppt
        assert report.classification == CANDIDATE_EDGE
        # with no witness, every round of the default cap runs
        assert (report.solve_report.restarts_used, report.solve_report.stopped) == (500, BUDGET)
        assert [r.rank for r in report.profile.records] == [4, 4]
        assert (report.decision.n_equations, report.decision.n_unknowns) == (10, 4)
        assert report.inequality_satisfied
        assert report.witness is None
        assert report.solve_report.solutions == ()
        assert report.solve_report.residual_floor > 1e-2

    def test_ranges_taken_from_the_profile(self, monkeypatch):
        # one eigvalsh of every canonical transpose, then one eigh of the
        # deficient ones, all four here, shared by is_ppt and rank_profile;
        # the constraints reuse the profile's complements
        calls = []
        transpose = mpstate.partial_transpose

        def counting(rho, subset):
            calls.append(subset)
            return transpose(rho, subset)

        def no_complement(*args, **kwargs):
            raise AssertionError("edge_analysis decomposed a partial transpose again")

        monkeypatch.setattr(mpstate, "partial_transpose", counting)
        seen = recording(monkeypatch, ["eigvalsh", "eigh"])
        monkeypatch.setattr(mpstate, "range_complement", no_complement)
        state = build_separable(random_vectors(77, (2, 2, 2), 4), [0.25] * 4)
        report = edge_analysis(state, SolverConfig(seed=5, restarts=20))
        assert calls == canonical_subsets(3)
        assert [(name, a.shape) for name, a in seen] == [("eigvalsh", (4, 8, 8)), ("eigh", (4, 8, 8))]
        assert np.array_equal(seen[1][1], seen[0][1])
        assert report.ppt
        assert [r.rank for r in report.profile.records] == [4, 4, 4, 4]
        assert report.decision.n_equations == sum(8 - r.rank for r in report.profile.records)

    def test_eigenvectors_only_of_deficient_transposes(self, monkeypatch):
        # the eigh takes exactly the transposes whose range has a complement
        rho = symmetric_times_mixed()
        seen = recording(monkeypatch, ["eigvalsh", "eigh"])
        report = edge_analysis(rho, SolverConfig(seed=1, restarts=4))
        monkeypatch.undo()
        assert [r.rank for r in report.profile.records] == [6, 8, 6, 8]
        (_, values), (name, vectors) = seen
        assert name == "eigh"
        assert np.array_equal(vectors, values[[0, 2]])
        for r in report.profile.records:
            assert r.complement.shape == (8 - r.rank, 8)

    @pytest.mark.parametrize(
        "rho",
        [density_matrix((2, 2), 0.9 * bell_state().mat + 0.1 * np.eye(4) / 4),
         random_state((2, 2, 2), 5),
         maximally_mixed((2, 2, 2)), density_matrix((2, 2), np.diag([0.4, 0.3, 0.2, 0.1]))],
        ids=["noisy-bell", "npt-full-rank", "maximally-mixed", "full-rank-diagonal"],
    )
    def test_no_eigenvectors_unless_a_range_has_a_complement(self, monkeypatch, rho):
        # a state whose transposes all have full rank, PPT or not, stops at
        # its eigenvalues: no range has a complement
        def no_eigh(*args, **kwargs):
            raise AssertionError("took eigenvectors that the report never reads")

        monkeypatch.setattr(mpstate.np.linalg, "eigh", no_eigh)
        report = edge_analysis(rho, SolverConfig(seed=1, restarts=4))
        if report.ppt:
            assert report.classification == NOT_EDGE
            assert all(r.rank == rho.dim for r in report.profile.records)
        else:
            assert report.classification == NOT_APPLICABLE

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (2, 2, 3), (12,)])
    def test_stacked_transposes_bit_for_bit(self, monkeypatch, dims):
        # every slice of the stack is the partial transpose; each record is
        # read off a separate eigvalsh of it, or for a deficient transpose
        # off a separate eigh, with the complement of that eigh's range
        tol = mpstate.DEFAULT_RANK_TOL
        d = math.prod(dims)
        states = [
            random_state(dims, 11),
            random_state(dims, 11, rank=2),
            build_separable(random_vectors(11, dims, 2), [0.5, 0.5]),
        ]
        for rho in states:
            seen = recording(monkeypatch, ["eigvalsh", "eigh"])
            profile = rank_profile(rho, tol)
            monkeypatch.undo()
            stack = seen[0][1]
            assert seen[0][0] == "eigvalsh"
            assert [r.subset for r in profile.records] == canonical_subsets(len(dims))
            deficient = []
            for k, r in enumerate(profile.records):
                pt = partial_transpose(rho, r.subset).mat
                assert np.array_equal(stack[k], pt)
                w = np.linalg.eigvalsh(pt)
                keep = mpstate._in_range(w, tol)
                if not keep.all():
                    deficient.append(k)
                    w, v = np.linalg.eigh(pt)
                    keep = mpstate._in_range(w, tol)
                    assert np.array_equal(r.complement, v[:, ~keep].T)
                else:
                    assert r.complement.shape == (0, d)
                sv = np.abs(w)
                rank = int(keep.sum())
                below = sv[~keep].max() if rank < d else 0.0
                above = sv[keep].min() if rank else 0.0
                assert r.rank == rank
                assert [x.hex() for x in (r.min_eigenvalue, r.gap_below, r.gap_above)] == [
                    float(x).hex() for x in (w[0], below, above)
                ]
            if deficient:
                assert [name for name, _ in seen] == ["eigvalsh", "eigh"]
                assert np.array_equal(seen[1][1], stack[deficient])
            else:
                assert [name for name, _ in seen] == ["eigvalsh"]

    def test_is_ppt_reads_the_profile_spectrum(self):
        rho = random_state((2, 3), 4, rank=3)
        ok, eigs = is_ppt(rho)
        prof = rank_profile(rho)
        assert eigs == {r.subset: r.min_eigenvalue for r in prof.records}
        assert ok == edge_analysis(rho, SolverConfig(seed=1, restarts=4)).ppt
        # and on a PPT state
        rho = build_separable(random_vectors(4, (2, 3), 3), [0.5, 0.25, 0.25])
        ok, eigs = is_ppt(rho)
        prof = rank_profile(rho)
        assert ok
        assert eigs == {r.subset: r.min_eigenvalue for r in prof.records}
        assert ok == edge_analysis(rho, SolverConfig(seed=1, restarts=4)).ppt

    @pytest.mark.parametrize(
        "dims, admitted",
        [((8, 8, 8), True), ((2, 2, 128), True), ((812,), True),
         ((2, 323), False), ((813,), False), ((2,) * 8, False)],
    )
    def test_work_bound_before_any_eigendecomposition(self, monkeypatch, dims, admitted):
        # (8, 8, 8) and (2, 2, 128) sit exactly at MAX_EDGE_WORK = 4 * 512^3
        # and (812,) just below it; the refused shapes sit just above it.
        # Three restarts keep (812,) within the solver's entries floor.
        calls = []
        monkeypatch.setattr(mpstate.np.linalg, "eigvalsh", no_eig)
        monkeypatch.setattr(mpstate.np.linalg, "eigh", no_eig)
        monkeypatch.setattr(mpstate, "rank_profile", not_ppt_profile(calls))
        rho = maximally_mixed(dims)
        work = 2 ** (len(dims) - 1) * rho.dim**3
        assert (work <= mpstate.MAX_EDGE_WORK) == admitted
        config = SolverConfig(restarts=3)
        if admitted:
            assert edge_analysis(rho, config).classification == NOT_APPLICABLE
            assert calls == [dims]
        else:
            with pytest.raises(UnsupportedSizeError, match=f"at most {mpstate.MAX_EDGE_WORK}"):
                edge_analysis(rho, config)
            assert calls == []

    @pytest.mark.parametrize(
        "dims, restarts, admitted",
        [((512,), None, True), ((513,), None, False), ((645,), None, False),
         ((645,), 3, True), ((724,), 4, True), ((725,), 4, False), ((812,), 0, True),
         ((812,), 9, False), ((2, 322), None, True)],
    )
    def test_solver_floor_before_any_eigendecomposition(
        self, monkeypatch, dims, restarts, admitted
    ):
        # at least max(min(restarts, 8), 1) restarts of (2 sum(dims))^2
        # entries each, 8 by default: 8 * 1024^2 is exactly MAX_RESTART_ENTRIES.
        # Only one-party states reach it: (2, 322) is the widest two-party
        # state within MAX_EDGE_WORK.
        calls = []
        monkeypatch.setattr(mpstate.np.linalg, "eigvalsh", no_eig)
        monkeypatch.setattr(mpstate.np.linalg, "eigh", no_eig)
        monkeypatch.setattr(mpstate, "rank_profile", not_ppt_profile(calls))
        rho = maximally_mixed(dims)
        config = SolverConfig(restarts=restarts)
        if admitted:
            assert edge_analysis(rho, config).classification == NOT_APPLICABLE
            assert calls == [dims]
        else:
            with pytest.raises(UnsupportedSizeError, match=f"the supported {MAX_RESTART_ENTRIES}"):
                edge_analysis(rho, config)
            assert calls == []

    def test_rank_inequality_is_the_verdict_count(self):
        # sum rank = 2^(n-1) D - N_E and bound = 2^(n-1) D - N_U, and reduce
        # keeps the canonical constraints as they are, so edge_analysis
        # reads the inequality off its verdict
        seen = set()
        for dims in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 4), (2, 2, 2, 2)]:
            d = math.prod(dims)
            for seed, rank in itertools.product((1, 2, 3), range(1, d + 1)):
                profile = rank_profile(random_state(dims, seed, rank))
                constraints = [SubspaceConstraint(r.subset, r.complement) for r in profile.records]
                spec = spec_of_constraints(dims, constraints)
                assert reduce(spec) == spec
                v = verdict(spec)
                inequality = profile.sum_of_ranks < profile.bound
                assert inequality == (v.n_equations > v.n_unknowns)
                seen.add(inequality)
        assert seen == {True, False}
        # separable 2 (x) 2 states of 2, 3 and 4 product vectors: above, at
        # and below the critical count N_E = N_U = 2
        for count, n_e in [(2, 4), (3, 2), (4, 0)]:
            state = build_separable(random_vectors(count, (2, 2), count), [1 / count] * count)
            report = edge_analysis(state, SolverConfig(seed=1, restarts=2))
            assert report.decision.n_equations == n_e
            profile = report.profile
            assert report.inequality_satisfied == (profile.sum_of_ranks < profile.bound) == (n_e > 2)

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

    def test_bad_header_names_its_line(self):
        # the header is the first non-blank line, wherever it is; a file of
        # blank lines alone has its error on line 1
        for text in ("\n\ndimz: 2\n", "\n\ndims: x\n", "\n \ndims: 1\n"):
            with pytest.raises(ParseError) as exc:
                read_state(text)
            assert exc.value.line == 3
        for text in ("", "\n\n"):
            with pytest.raises(ParseError, match="line 1: expected header"):
                read_state(text)

    def test_index_bounds_checked(self):
        with pytest.raises(ParseError):
            read_state("dims: 2\n5 0 1.0 0.0\n")

    def test_non_hermitian_rejected(self):
        with pytest.raises(ParseError):
            read_state("dims: 2\n0 1 1.0 0.0\n1 0 0.5 0.0\n0 0 0.5 0.0\n1 1 0.5 0.0\n")

    @pytest.mark.parametrize(
        "text",
        [
            # the symmetrization overflowed to NaN ranks
            "dims: 2\n0 0 1.5e308 0\n1 1 1.5e308 0\n",
            # only the trace overflowed, and the matrix became zero
            "dims: 2 2\n" + "".join(f"{i} {i} 6e307 0\n" for i in range(4)),
        ],
        ids=["symmetrization", "trace"],
    )
    def test_huge_finite_entries_read_as_the_state(self, text):
        rho = read_state(text)
        assert np.array_equal(rho.mat, maximally_mixed(rho.dims).mat)
        report = edge_analysis(rho, SolverConfig(seed=1, restarts=2))
        assert report.classification == NOT_EDGE

    def test_non_finite_entries_rejected(self):
        for bad in ("nan 0", "0 nan", "inf 0", "0 -inf", "-inf 0"):
            with pytest.raises(ParseError) as exc:
                read_state(f"dims: 2\n0 0 0.5 0\n1 1 0.5 0\n0 1 {bad}\n")
            assert exc.value.line == 4


# A state file's entry lines; "H" is a Hermitian trace-one (2,) body.
H = "0 0 0.5 0\n1 1 0.5 0\n0 1 0.25 0.125\n1 0 0.25 -0.125\n"

# (text, whether numpy's C reader takes the entry lines itself)
PARSER_CORPUS = [
    ("dims: 2\n" + H, True),
    ("dims: 2\n+0 +0 +0.5 -0\n+1 1 0.5 0\n0 1 .25 0.125\n1 0 0.25 -0.125\n", True),
    ("dims: 2\n0 0 0.5 -0.0\n1 1 0.5 0.0\n0 1 -0.0 -0.0\n1 0 -0.0 0.0\n", True),
    ("dims: 2\n0 0 0.5 0\n1_0 1 0.5 0\n", False),
    ("dims: 2\n0 0 0.5 0\n0_1 1 0.5 0\n", False),
    ("dims: 2\n0 0 0.5 0\n1 1 0.5_0 0\n", False),
    ("dims: 2\n0 0 0.5 0\n\u0661 \u0661 0.\u0665 0\n", False),
    ("dims: 2\n" + H + "0 1 nan 0\n", False),
    ("dims: 2\n" + H + "0 1 0 -inf\n", False),
    ("dims: 2\n" + H + "1 0 Infinity 0\n", False),
    ("dims: 2\n" + H + "0 1 0.25\n", False),
    ("dims: 2\n" + H + "0 1 0.25 0.125 0\n", False),
    ("dims: 2\n" + H + "2 0 0.25 0.125\n", False),
    ("dims: 2\n" + H + "0 -1 0.25 0.125\n", False),
    ("dims: 2\n" + H + "0 1 nan 0\n0 1 0.25\n", False),
    ("dims: 2\n" + H + "0 1 0.25\n0 1 nan 0\n", False),
    ("dims: 2\n" + H + "0 1 0.25 0.125 # note\n", False),
    ("dims: 2\n" + H + "1.0 1 0.5 0\n", False),
    ("dims: 2\n" + H + "0.9 0 0.5 0\n", False),
    ("dims: 2\n" + H + "0 2.5 0.5 0\n", False),
    ("\n  \ndims: 2\n\n" + H.replace("\n", "  \n\n"), True),
    ("dims: 2\r\n" + H.replace("\n", "\r\n"), True),
    ("dims: 2\r" + H.replace("\n", "\r"), True),
    ("dims: 2\n\t0\t0 0.5 0\n1 1\x0c0.5 0\n" + H[20:], True),
    ("dims: 2\n0 1 9 9\n" + H + "0 0 7 0\n0 0 0.5 0\n", True),
    ("dims: 2\n" + H.rstrip("\n"), True),
    ("dims: 2\n", True),
    ("dims: 2", True),
    ("dims: 2\n0 1 0.5 0\n1 0 0.25 0\n0 0 0.5 0\n1 1 0.5 0\n", True),
    ("dims: 2 3\n0 0 1 0\n5 5 1 0\n", True),
]


class TestParserPaths:
    """numpy's C reader and the line loop read one corpus alike: the same
    bits, or the same ParseError (message and line)."""

    @staticmethod
    def outcome(text, stream=False):
        try:
            rho = read_state(io.StringIO(text, newline="") if stream else text)
        except ParseError as exc:
            return "error", str(exc), exc.line
        return "state", rho.dims, rho.mat.view(np.uint64).tolist()

    @pytest.mark.parametrize("text, fast", PARSER_CORPUS)
    def test_paths_agree(self, monkeypatch, text, fast):
        taken = []
        read_entries = mpstate._read_entries

        def recording(*args):
            mat = read_entries(*args)
            taken.append(mat is not None)
            return mat

        monkeypatch.setattr(mpstate, "_read_entries", recording)
        both = self.outcome(text)
        assert taken == [fast]
        assert self.outcome(text, stream=True) == both
        monkeypatch.setattr(mpstate, "_read_entries", lambda *args: None)
        assert self.outcome(text) == both
        assert self.outcome(text, stream=True) == both

    def test_unseekable_stream_read_whole(self):
        # a pipe, as from `prodvec edge <(...)`, cannot be read twice
        for text in ("dims: 2\n" + H, "dims: 2\n" + H.replace("0 1 ", "0_0 1 ")):
            r, w = os.pipe()
            with os.fdopen(w, "w") as fh:
                fh.write(text)
            with os.fdopen(r) as fh:
                assert not fh.seekable()
                rho = read_state(fh)
            assert np.array_equal(rho.mat, read_state(text).mat)

    def test_integer_via_float_warning_falls_back(self, monkeypatch):
        # numpy from 1.23, until the deprecation expired, reads "0.9" in an
        # integer field as 0 with only a warning; as an error it refuses
        # the line, and the line loop names it
        good = read_state("dims: 2\n" + H)
        loadtxt = np.loadtxt

        def truncating(stream, dtype, **kwargs):
            flat = loadtxt(stream, **{**kwargs, "ndmin": 2})
            if (flat[:, :2] != np.trunc(flat[:, :2])).any():
                message = "loadtxt(): Parsing an integer via a float is deprecated"
                warnings.warn(message, DeprecationWarning)
            rows = np.empty(len(flat), dtype)
            for k, name in enumerate(dtype.names):
                rows[name] = flat[:, k]
            return rows

        monkeypatch.setattr(mpstate.np, "loadtxt", truncating)
        with pytest.raises(ParseError, match="line 6: invalid numeric field"):
            read_state("dims: 2\n" + H + "0.9 0 0.5 0\n")
        assert np.array_equal(read_state("dims: 2\n" + H).mat, good.mat)

    def test_last_repeated_entry_wins(self):
        text = "dims: 2\n0 1 9 9\n" + H + "0 0 7 0\n0 0 0.5 0\n0 1 8 8\n0 1 0.25 0.125\n"
        rho = read_state(text)
        assert rho.mat[0, 1] == 0.25 + 0.125j
        assert rho.mat[0, 0] == 0.5

    def test_errors_name_the_first_bad_line(self):
        with pytest.raises(ParseError, match="line 7: non-finite entry"):
            read_state("dims: 2\n" + H + "\n0 1 nan 0\n0 1 0.25\n")
        with pytest.raises(ParseError, match="line 6: expected 'row col re im'"):
            read_state("dims: 2\n" + H + "0 1 0.25\n0 1 nan 0\n")
        with pytest.raises(ParseError, match=r"line 3: index \(2, 0\) outside 0..1"):
            read_state("\r\ndims: 2\r\n2 0 0.25 0.125\r\n" + H)


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

    def test_huge_entries_refused_as_given(self):
        # scaled down by a power of two before the checks, whose errors
        # still speak of the matrix as given
        with pytest.raises(ValueError, match="not Hermitian"):
            density_matrix((2,), np.array([[1.0, 1e308], [-1e308, 1.0]]))
        with pytest.raises(ValueError, match=r"trace -4\.000e\+307 is not positive"):
            density_matrix((2, 2), -1e307 * np.eye(4))

    def test_non_positive_trace_rejected(self):
        # dividing by a negative trace would turn -I/4 into the mixed state
        for scale in (-1.0, -1e-3, 0.0, 1e-13):
            with pytest.raises(ValueError, match="not positive"):
                density_matrix((2, 2), scale * np.eye(4, dtype=complex) / 4)
        assert density_matrix((2, 2), 2e-12 * np.eye(4, dtype=complex)).mat[0, 0] == 0.25
