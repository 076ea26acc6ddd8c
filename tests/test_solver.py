"""Numerical product-vector search: residuals, restarts, dedupe, determinism."""

import warnings

import numpy as np
import pytest

from prodvec import solver
from prodvec.solvability import problem_spec
from prodvec.solver import (
    EXIT_REASONS,
    SolverConfig,
    count_distinct,
    partial_conjugate,
    product_vector,
    random_instance,
    residual,
    solve,
    subspace_constraint,
)

BELL_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


def random_product_vector(rng, dims):
    return product_vector(
        [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
    )


def two_qubit_infeasible():
    return [subspace_constraint({2}, BELL_PLUS), subspace_constraint((), SINGLET)]


def restart_starts(dims, seed, count):
    """The start factors of restarts 0..count-1, drawn as ``solve`` draws them:
    one (seed, 1) stream, one row per restart holding the real then the
    imaginary parts of each factor, party by party."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    out = []
    for row in rng.standard_normal((count, 2 * sum(dims))):
        factors, lo = [], 0
        for d in dims:
            factors.append(row[lo : lo + d] + 1j * row[lo + d : lo + 2 * d])
            lo += 2 * d
        out.append(factors)
    return out


def assert_same_report(a, b):
    assert a.distinct_count == b.distinct_count
    assert a.residual_floor == b.residual_floor
    assert a.restarts_used == b.restarts_used
    assert a.seed == b.seed
    assert a.exit_reasons == b.exit_reasons
    assert len(a.solutions) == len(b.solutions)
    for sa, sb in zip(a.solutions, b.solutions):
        assert sa.residual == sb.residual
        for fa, fb in zip(sa.vector.factors, sb.vector.factors):
            assert np.array_equal(fa, fb)


class TestProductVector:
    def test_normalization_and_phase(self):
        v = product_vector([np.array([0, 2j]), np.array([3, 4j])])
        for f in v.factors:
            assert abs(np.linalg.norm(f) - 1) < 1e-12
            first = f[np.flatnonzero(np.abs(f) > 1e-12)[0]]
            assert abs(first.imag) < 1e-12 and first.real > 0

    def test_full_vector_kron_order(self):
        v = product_vector([np.array([1, 0]), np.array([0, 1])])
        assert np.allclose(v.full_vector(), [0, 1, 0, 0])  # party 1 slowest

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            product_vector([np.zeros(2), np.array([1, 0])])

    def test_stacked_rows_match_one_vector_reference(self):
        def reference(v):
            v = v / np.linalg.norm(v)
            a = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
            return v * (a.conjugate() / abs(a))

        rng = rng_for(19)
        stack = rng.standard_normal((300, 4)) + 1j * rng.standard_normal((300, 4))
        stack[::3, :2] = 0  # rows whose first components are zero
        stack *= 10.0 ** rng.integers(-6, 6, size=(300, 1))
        (rows,) = solver._canonical([stack])
        expected = np.stack([reference(v) for v in stack])
        assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64))


class TestPartialConjugate:
    def test_empty_subset_identity(self):
        v = random_product_vector(rng_for(1), (2, 3))
        w = partial_conjugate(v, ())
        for a, b in zip(v.factors, w.factors):
            assert np.allclose(a, b)

    def test_involution(self):
        v = random_product_vector(rng_for(2), (2, 2, 3))
        w = partial_conjugate(partial_conjugate(v, {1, 3}), {1, 3})
        for a, b in zip(v.factors, w.factors):
            assert np.allclose(a, b)

    def test_real_vectors_fixed(self):
        v = product_vector([np.array([1.0, 2.0]), np.array([3.0, 1.0])])
        w = partial_conjugate(v, {1, 2})
        for a, b in zip(v.factors, w.factors):
            assert np.allclose(a, b)


class TestRandomInstance:
    def test_deterministic(self):
        spec = problem_spec((2, 3), [({1}, 2), ((), 1)])
        a = random_instance(spec, 99)
        b = random_instance(spec, 99)
        for x, y in zip(a, b):
            assert np.array_equal(x.complement_basis, y.complement_basis)

    def test_codim_zero_empty_basis(self):
        spec = problem_spec((2, 2), [((), 0)])
        (c,) = random_instance(spec, 1)
        assert c.complement_basis.shape == (0, 4)

    def test_shapes_and_orthonormality(self):
        spec = problem_spec((2, 2), [((), 2)])
        (c,) = random_instance(spec, 5)
        assert c.complement_basis.shape == (2, 4)
        g = c.complement_basis.conj() @ c.complement_basis.T
        assert np.allclose(g, np.eye(2), atol=1e-12)


class TestSeeds:
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 + 7, 2**63 - 1])
    def test_streams_below_2_63_unchanged(self, seed):
        for k in (0, 1):
            old = np.random.Generator(np.random.Philox(key=[seed, k]))
            new = solver.philox_stream(seed, k)
            assert np.array_equal(new.standard_normal(16), old.standard_normal(16))

    @pytest.mark.parametrize("a, b", [(-1, 0), (2**63, 2**63 + 1)])
    def test_wide_seeds_draw_their_own_streams(self, a, b):
        spec = problem_spec((2, 2), [((), 2)])
        vacuous = random_instance(problem_spec((2, 3), [((), 0)]), 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (ca,), (cb,) = random_instance(spec, a), random_instance(spec, b)
            # a vacuous solve returns its start points
            ra, rb = (solve(vacuous, (2, 3), SolverConfig(seed=s)) for s in (a, b))
        assert not np.allclose(ca.complement_basis, cb.complement_basis)
        assert ra.seed == a % 2**64 and rb.seed == b % 2**64
        assert ra.solutions and len(ra.solutions) == len(rb.solutions)
        for sa, sb in zip(ra.solutions, rb.solutions):
            assert not np.allclose(sa.vector.full_vector(), sb.vector.full_vector())


class TestResidual:
    def test_member_gives_zero(self):
        rng = rng_for(7)
        dims = (2, 3)
        psi = random_product_vector(rng, dims)
        # build a constraint that contains psi^Gamma(S) by construction
        subset = frozenset({2})
        w = partial_conjugate(psi, subset).full_vector()
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        z -= np.vdot(w, z) / np.vdot(w, w) * w  # orthogonal to the member
        c = subspace_constraint(subset, z / np.linalg.norm(z))
        assert residual(psi, [c]) < 1e-24

    def test_projection_magnitude(self):
        psi = product_vector([np.array([1, 0]), np.array([1, 0])])
        c = subspace_constraint((), np.array([1, 0, 0, 0], dtype=complex))
        assert abs(residual(psi, [c]) - 1.0) < 1e-14

    def test_two_qubit_orthogonality_form(self):
        rng = rng_for(8)
        c = subspace_constraint({2}, BELL_PLUS)
        for _ in range(20):
            psi = random_product_vector(rng, (2, 2))
            overlap = np.vdot(psi.factors[1], psi.factors[0])
            assert abs(residual(psi, [c]) - abs(overlap) ** 2 / 2) < 1e-12

    def test_conjugation_covariance(self):
        rng = rng_for(9)
        spec = problem_spec((2, 2, 2), [({1}, 1), ({2, 3}, 1), ((), 1)])
        constraints = random_instance(spec, 44)
        n = 3
        for _ in range(10):
            psi = random_product_vector(rng, (2, 2, 2))
            s = frozenset({j for j in range(1, n + 1) if rng.random() < 0.5})
            shifted = [
                subspace_constraint(c.subset ^ s, c.complement_basis)
                for c in constraints
            ]
            a = residual(psi, constraints)
            b = residual(partial_conjugate(psi, s), shifted)
            assert abs(a - b) < 1e-12

    def test_unit_scalar_invariance(self):
        rng = rng_for(10)
        spec = problem_spec((2, 3), [({1}, 1), ((), 2)])
        constraints = random_instance(spec, 3)
        psi = random_product_vector(rng, (2, 3))
        phases = [np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(2)]
        scaled = product_vector(
            [p * f for p, f in zip(phases, psi.factors)]
        )
        assert abs(residual(psi, constraints) - residual(scaled, constraints)) < 1e-12

    def test_does_not_recanonicalize(self, monkeypatch):
        spec = problem_spec((2, 3), [({1}, 1), ({2}, 2), ((), 1)])
        constraints = random_instance(spec, 5)
        psi = random_product_vector(rng_for(11), (2, 3))

        def no_canonical(factors):
            raise AssertionError("conjugated vector re-canonicalized")

        monkeypatch.setattr(solver, "product_vector", no_canonical)
        assert residual(psi, constraints) > 0

    def test_matches_partial_conjugate_path(self):
        def former(psi, constraints):
            # each conjugated vector re-canonicalized through product_vector
            total = 0.0
            for c in constraints:
                if c.codim:
                    w = partial_conjugate(psi, c.subset).full_vector()
                    z = c.complement_basis.conj() @ w
                    total += float(np.vdot(z, z).real)
            return total

        rng = rng_for(12)
        spec = problem_spec((2, 2, 2), [({2}, 1), ((), 1), ({3}, 1), ({1, 2}, 0)])
        for seed in (31, 32, 33):
            constraints = random_instance(spec, seed)
            for _ in range(20):
                psi = random_product_vector(rng, (2, 2, 2))
                expected = former(psi, constraints)
                assert abs(residual(psi, constraints) - expected) <= 1e-12 * expected
            # at solutions both values are rounding noise of order 1e-32
            report = solve(constraints, (2, 2, 2), SolverConfig(restarts=120, seed=2))
            assert report.solutions
            for sol in report.solutions:
                assert abs(residual(sol.vector, constraints) - former(sol.vector, constraints)) < 1e-28


def merged_by_hand(constraints):
    """One constraint for a list of parallel ones: the first subset, with the
    rows of every complementary member conjugated and the stack
    re-orthonormalized."""
    first = constraints[0].subset
    rows = np.vstack(
        [c.complement_basis if c.subset == first else c.complement_basis.conj() for c in constraints]
    )
    _, sv, vh = np.linalg.svd(rows, full_matrices=False)
    return [subspace_constraint(first, vh[sv > 1e-10 * sv[0]])]


class TestParallelConstraints:
    """``solve`` takes parallel constraints as given; merging them would not
    move the zero set."""

    @pytest.mark.parametrize(
        "cons",
        [
            [({2}, 1), ({1}, 1)],  # complementary on two parties
            [({2}, 1), ({2}, 1)],  # equal
        ],
    )
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_unmerged_pair_matches_merged(self, cons, seed):
        constraints = random_instance(problem_spec((2, 2), cons), seed)
        merged = merged_by_hand(constraints)
        assert merged[0].codim == 2
        cfg = SolverConfig(restarts=200, seed=seed)
        report = solve(constraints, (2, 2), cfg)
        assert report.solutions
        for sol in report.solutions:
            assert residual(sol.vector, constraints) < 1e-14
            assert residual(sol.vector, merged) < 1e-14
        assert report.distinct_count == solve(merged, (2, 2), cfg).distinct_count


class TestSolve:
    def test_two_qubit_infeasible_floor(self):
        report = solve(
            two_qubit_infeasible(), (2, 2), SolverConfig(restarts=300, seed=5)
        )
        assert not report.solutions
        # the residual is identically 1/2 on the whole search space
        assert abs(report.residual_floor - 0.5) < 1e-9

    def test_generic_two_qubit_pair_count(self):
        spec = problem_spec((2, 2), [((), 2)])
        report = solve(random_instance(spec, 12), (2, 2), SolverConfig(seed=12))
        assert report.distinct_count == 2
        assert all(s.residual < 1e-12 for s in report.solutions)

    def test_solutions_satisfy_membership(self):
        spec = problem_spec((2, 2, 2), [({2}, 1), ((), 1), ({3}, 1)])
        constraints = random_instance(spec, 31)
        report = solve(constraints, (2, 2, 2), SolverConfig(restarts=120, seed=2))
        assert report.solutions
        for sol in report.solutions:
            for c in constraints:
                w = partial_conjugate(sol.vector, c.subset).full_vector()
                assert np.abs(c.complement_basis.conj() @ w).max() < 1e-5

    def test_deterministic_given_seed(self):
        spec = problem_spec((2, 2), [((), 2)])
        constraints = random_instance(spec, 3)
        cfg = SolverConfig(restarts=60, seed=77)
        r1 = solve(constraints, (2, 2), cfg)
        r2 = solve(constraints, (2, 2), cfg)
        assert r1.residual_floor == r2.residual_floor
        assert r1.distinct_count == r2.distinct_count
        for a, b in zip(r1.solutions, r2.solutions):
            assert a.residual == b.residual
            for fa, fb in zip(a.vector.factors, b.vector.factors):
                assert np.array_equal(fa, fb)

    def test_distinct_count_across_seeds(self):
        # optimizer misses are allowed on rare seeds; require 4 of 5
        spec = problem_spec((2, 2, 2), [((), 1), ((), 1), ((), 1)])
        hits = 0
        for seed in (101, 102, 103, 104, 105):
            report = solve(
                random_instance(spec, seed), (2, 2, 2), SolverConfig(seed=seed)
            )
            hits += report.distinct_count == 6
        assert hits >= 4

    def test_vacuous_instance_returns_witnesses(self):
        spec = problem_spec((2, 2), [((), 0)])
        report = solve(random_instance(spec, 4), (2, 2), SolverConfig(seed=4))
        assert report.solutions
        assert report.residual_floor == 0.0
        assert report.restarts_used <= 8

    def test_exit_reasons_count_every_restart(self):
        report = solve(
            two_qubit_infeasible(), (2, 2), SolverConfig(restarts=300, seed=5)
        )
        assert tuple(report.exit_reasons) == EXIT_REASONS
        assert sum(report.exit_reasons.values()) == report.restarts_used
        # the floor is 1/2 everywhere, so no restart reaches cost 1e-30
        assert report.exit_reasons["converged"] == 0

        spec = problem_spec((2, 2), [((), 2)])
        report = solve(random_instance(spec, 12), (2, 2), SolverConfig(restarts=40, seed=12))
        assert sum(report.exit_reasons.values()) == 40
        assert report.exit_reasons["converged"] > 0

    def test_vectors_built_only_for_representatives(self, monkeypatch):
        built = []
        real = solver.ProductVector

        def counting(factors):
            built.append(factors)
            return real(factors)

        monkeypatch.setattr(solver, "ProductVector", counting)
        spec = problem_spec((2, 2), [((), 2)])
        report = solve(random_instance(spec, 12), (2, 2), SolverConfig(restarts=40, seed=12))
        assert report.distinct_count == 2
        assert len(built) <= report.distinct_count

    def test_report_invariants(self):
        spec = problem_spec((2, 2), [({2}, 1), ((), 1)])
        report = solve(random_instance(spec, 8), (2, 2), SolverConfig(restarts=80, seed=8))
        for sol in report.solutions:
            assert sol.residual < SolverConfig().accept_threshold
            assert report.residual_floor <= sol.residual


# the (3,3)/4 critical, a mixed (2,2,2) and an overdetermined (2,2,2) shape
BATCH_SHAPES = [
    ((3, 3), [((), 4)]),
    ((2, 2, 2), [({1}, 1), ({2, 3}, 1), ((), 1)]),
    ((2, 2, 2), [({1}, 2), ({2}, 2)]),
]


class TestBatching:
    @pytest.mark.parametrize("dims,cons", BATCH_SHAPES)
    def test_restart_independent_of_batch(self, dims, cons):
        constraints = random_instance(problem_spec(dims, cons), 21)
        problem = solver._Problem(dims, constraints)
        starts = restart_starts(dims, 21, 40)
        factors, costs, reasons = solver._minimize_batch(
            problem, [np.array(f) for f in zip(*starts)], 120, 1e-8
        )
        for i, start in enumerate(starts):
            one, cost, reason = solver._minimize_batch(
                problem, [f[None] for f in start], 120, 1e-8
            )
            assert cost[0] == costs[i]
            assert reason[0] == reasons[i]
            for a, b in zip(one, factors):
                assert np.array_equal(a[0], b[i])

    def test_chunked_report_equals_unchunked(self, monkeypatch):
        dims = (2, 2, 2)
        constraints = random_instance(problem_spec(dims, [((), 1)] * 3), 101)
        cfg = SolverConfig(restarts=150, seed=101)
        per_start = solver._Problem(dims, constraints).entries_per_start
        assert 150 * per_start <= solver.MAX_BATCH_ENTRIES
        whole = solve(constraints, dims, cfg)

        calls = []
        minimize = solver._minimize_batch

        def counting(problem, factors, *args):
            calls.append(len(factors[0]))
            return minimize(problem, factors, *args)

        monkeypatch.setattr(solver, "_minimize_batch", counting)
        monkeypatch.setattr(solver, "MAX_BATCH_ENTRIES", 7 * per_start)
        chunked = solve(constraints, dims, cfg)
        assert calls == [7] * 21 + [3]
        assert_same_report(whole, chunked)

    def test_singular_row_marked_unsolved(self):
        rng = rng_for(16)
        a = rng.standard_normal((4, 3, 3))
        a[2] = 0.0
        b = rng.standard_normal((4, 3))
        x, ok = solver._solve_rows(a, b)
        assert ok.tolist() == [True, True, False, True]
        for i in (0, 1, 3):
            assert np.array_equal(x[i], np.linalg.solve(a[i : i + 1], b[i : i + 1, :, None])[0, :, 0])

    def test_singular_stack_falls_back_per_row(self, monkeypatch):
        spec = problem_spec((2, 2), [((), 2)])
        constraints = random_instance(spec, 12)
        cfg = SolverConfig(restarts=60, seed=12)
        expected = solve(constraints, (2, 2), cfg)

        stacked_calls = []
        real_solve = np.linalg.solve

        def raise_once(a, b):
            if a.ndim == 3 and len(a) > 1:
                stacked_calls.append(len(a))
                if len(stacked_calls) == 1:
                    raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(solver.np.linalg, "solve", raise_once)
        report = solve(constraints, (2, 2), cfg)
        assert len(stacked_calls) > 1
        assert report.distinct_count == expected.distinct_count == 2
        assert_same_report(report, expected)


class TestOneStream:
    SHAPE = ((3, 3), [((), 4)])

    def captured_starts(self, monkeypatch, restarts, batch_rows=None):
        dims, cons = self.SHAPE
        constraints = random_instance(problem_spec(dims, cons), 9)
        if batch_rows is not None:
            per_start = solver._Problem(dims, constraints).entries_per_start
            monkeypatch.setattr(solver, "MAX_BATCH_ENTRIES", batch_rows * per_start)
        starts = []
        minimize = solver._minimize_batch

        def capturing(problem, factors, *args):
            starts.append([f.copy() for f in factors])
            return minimize(problem, factors, *args)

        monkeypatch.setattr(solver, "_minimize_batch", capturing)
        solve(constraints, dims, SolverConfig(restarts=restarts, seed=9))
        monkeypatch.undo()
        return [np.concatenate(fs) for fs in zip(*starts)]

    def test_leading_starts_do_not_depend_on_restart_count(self, monkeypatch):
        few = self.captured_starts(monkeypatch, 5)
        many = self.captured_starts(monkeypatch, 300)
        chunked = self.captured_starts(monkeypatch, 300, batch_rows=7)
        for a, b, c in zip(few, many, chunked):
            assert a.shape[0] == 5 and b.shape[0] == c.shape[0] == 300
            assert np.array_equal(a, b[:5])
            assert np.array_equal(b, c)

    def test_starts_are_rows_of_the_seeded_stream(self, monkeypatch):
        got = self.captured_starts(monkeypatch, 40, batch_rows=7)
        expected = [np.stack(fs) for fs in zip(*restart_starts(self.SHAPE[0], 9, 40))]
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)

    def test_one_generator_per_solve(self, monkeypatch):
        dims, cons = self.SHAPE
        constraints = random_instance(problem_spec(dims, cons), 9)
        per_start = solver._Problem(dims, constraints).entries_per_start
        monkeypatch.setattr(solver, "MAX_BATCH_ENTRIES", 7 * per_start)
        built = []
        real = np.random.Generator

        def counting(bit_generator):
            built.append(bit_generator)
            return real(bit_generator)

        monkeypatch.setattr(solver.np.random, "Generator", counting)
        report = solve(constraints, dims, SolverConfig(restarts=60, seed=9))
        assert report.restarts_used == 60
        assert len(built) == 1


class TestCountDistinct:
    def test_repeats_collapse(self):
        v = random_product_vector(rng_for(13), (2, 2))
        assert count_distinct([v, v, v], 1e-6) == 1

    def test_projective_identification(self):
        rng = rng_for(14)
        v = random_product_vector(rng, (2, 3))
        w = product_vector([np.exp(0.7j) * f for f in v.factors])
        assert count_distinct([v, w], 1e-6) == 1

    def test_distinct_stay_distinct(self):
        rng = rng_for(15)
        vs = [random_product_vector(rng, (2, 2)) for _ in range(6)]
        assert count_distinct(vs, 1e-6) == 6

    def test_empty(self):
        assert count_distinct([], 1e-6) == 0


class TestDedupe:
    @staticmethod
    def stacks(vectors):
        return [np.stack(fs) for fs in zip(*(v.factors for v in vectors))]

    def test_lowest_cost_member_represents(self):
        v = random_product_vector(rng_for(16), (2, 3))
        w = product_vector([np.exp(0.3j) * f for f in v.factors])
        costs = np.array([2e-15, 1e-15])
        assert solver._dedupe(self.stacks([v, w]), costs, 1e-6) == [1]

    def test_first_on_equal_costs(self):
        v = random_product_vector(rng_for(17), (2, 2))
        assert solver._dedupe(self.stacks([v, v, v]), np.zeros(3), 1e-6) == [0]

    def test_classes_in_order_of_first_appearance(self):
        rng = rng_for(18)
        a, b, c = (random_product_vector(rng, (2, 2)) for _ in range(3))
        costs = np.array([1e-15, 3e-15, 1e-15, 1e-15, 2e-15])
        reps = solver._dedupe(self.stacks([a, b, a, c, b]), costs, 1e-6)
        # b's class comes second although its representative is row 4
        assert reps == [0, 4, 3]
