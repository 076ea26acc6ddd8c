"""Decision engine: reduction, counting, verdicts, generic counts."""

import itertools
import random

import pytest
from test_truncpoly import brute_expand

from prodvec import solvability
from prodvec.signmat import associated_matrix, permanent, sign_matrix
from prodvec.solvability import (
    EXISTS_NONZERO,
    GENERICALLY_EMPTY,
    INCONCLUSIVE,
    INFINITELY_MANY,
    Verdict,
    counts,
    generic_count,
    problem_spec,
    reduce,
    verdict,
)
from prodvec.solver import SolverConfig, random_instance, residual, solve
from prodvec.truncpoly import expand_product

EX25 = problem_spec((2, 2, 4), [({1}, 1), ({2}, 1), ({3}, 1), ((), 1)])


def random_spec(rng, dims, r, max_codim=2):
    n = len(dims)
    cons = []
    for _ in range(r):
        subset = {j for j in range(1, n + 1) if rng.random() < 0.5}
        cons.append((subset, rng.randint(0, max_codim)))
    return problem_spec(dims, cons)


class TestCounts:
    def test_underdetermined_example(self):
        assert counts(EX25) == (4, 5)

    def test_two_qubit_critical(self):
        assert counts(problem_spec((2, 2), [({2}, 1), ((), 1)])) == (2, 2)

    def test_two_qutrit(self):
        assert counts(problem_spec((3, 3), [((), 4)])) == (4, 4)

    def test_counts_not_reduced(self):
        spec = problem_spec((2, 2), [((), 1), ((), 1), ({1, 2}, 1)])
        assert counts(spec) == (3, 2)


class TestReduce:
    def test_complementary_merge(self):
        spec = problem_spec((2, 2, 2), [({1}, 1), ({2, 3}, 1)])
        red = reduce(spec)
        assert len(red.constraints) == 1
        assert red.constraints[0].subset == frozenset({1})
        assert red.constraints[0].codim == 2

    def test_equal_merge(self):
        spec = problem_spec((3, 3), [((), 2), ((), 3)])
        red = reduce(spec)
        assert len(red.constraints) == 1
        assert red.constraints[0].codim == 5

    def test_codim_saturates_at_ambient_dimension(self):
        spec = problem_spec((2, 2), [((), 3), ((), 3)])
        assert reduce(spec).constraints[0].codim == 4

    def test_non_parallel_family_unchanged(self):
        spec = problem_spec((2, 2, 2), [({1}, 1), ({2}, 1), ({3}, 2)])
        assert reduce(spec) == spec

    def test_idempotent(self):
        rng = random.Random(17)
        for _ in range(50):
            dims = tuple(rng.choice((2, 3)) for _ in range(rng.randint(1, 3)))
            spec = random_spec(rng, dims, rng.randint(0, 5))
            red = reduce(spec)
            assert reduce(red) == red
            keys = [frozenset(c.subset) for c in red.constraints]
            full = frozenset(range(1, len(dims) + 1))
            for i, a in enumerate(keys):
                for b in keys[i + 1 :]:
                    assert a != b and a != full - b


class TestVerdict:
    def test_underdetermined_vanishing_is_inconclusive(self):
        v = verdict(EX25)
        assert v.kind == INCONCLUSIVE
        assert v.basis is None
        assert v.n_equations == 4 and v.n_unknowns == 5
        assert v.sigma_rank == 3
        assert v.product_vanishes

    def test_three_qubit_never_inconclusive(self):
        rng = random.Random(23)
        subsets = [{1}, {2}, {3}, set()]
        for _ in range(60):
            codims = [0, 0, 0, 0]
            for _ in range(rng.randint(0, 3)):
                codims[rng.randrange(4)] += 1
            spec = problem_spec((2, 2, 2), list(zip(subsets, codims)))
            v = verdict(spec)
            assert v.kind in (EXISTS_NONZERO, INFINITELY_MANY)

    def test_overdetermined(self):
        v = verdict(problem_spec((2, 2, 2), [((), 4)]))
        assert v.kind == GENERICALLY_EMPTY
        assert v.generic
        assert v.basis == "overdetermined-generic"

    def test_overdetermined_skips_the_expansion(self, monkeypatch):
        # the sign product has degree n_e > n_u, so it is 0 unexpanded
        def fail(*args):
            raise AssertionError("expand_product called")

        monkeypatch.setattr(solvability.truncpoly, "expand_product", fail)
        spec = problem_spec((2, 2, 3), [({1}, 2), ({2}, 2), ((), 1)])
        assert verdict(spec) == Verdict(
            kind=GENERICALLY_EMPTY,
            basis="overdetermined-generic",
            generic=True,
            n_equations=5,
            n_unknowns=4,
            sigma_rank=3,
            top_coefficient=0,
            product_vanishes=True,
        )

    def test_critical_expands_once(self, monkeypatch):
        # the critical product is its top monomial alone, read from one
        # expansion
        calls = []
        expand_product = solvability.truncpoly.expand_product

        def counted(*args):
            calls.append(args)
            return expand_product(*args)

        monkeypatch.setattr(solvability.truncpoly, "expand_product", counted)
        spec = problem_spec((3, 4, 2), [({1}, 2), ({2}, 1), ((), 2), ({3}, 1)])
        assert verdict(spec) == Verdict(
            kind=EXISTS_NONZERO,
            basis="critical-top-coefficient",
            generic=False,
            n_equations=6,
            n_unknowns=6,
            sigma_rank=3,
            top_coefficient=4,
            product_vanishes=False,
        )
        assert len(calls) == 1

    def test_critical_top_coefficient(self):
        v = verdict(problem_spec((3, 3), [((), 4)]))
        assert v.kind == EXISTS_NONZERO
        assert v.basis == "critical-top-coefficient"
        assert v.top_coefficient == 6

    def test_underdetermined_nonvanishing(self):
        v = verdict(problem_spec((2, 2, 4), [({1}, 1), ({2}, 1)]))
        assert v.kind == INFINITELY_MANY
        assert v.basis == "underdetermined-nonvanishing"

    def test_five_qubit_vanishing_family_is_inconclusive(self):
        # the vanishing five-qubit family: product zero, rank 3 < 4 rows
        # -> inconclusive
        spec = problem_spec(
            (2,) * 5,
            [({1, 4, 5}, 1), ({2}, 1), ({3}, 1), ((), 1)],
        )
        v = verdict(spec)
        assert v.product_vanishes and v.sigma_rank == 3
        assert v.kind == INCONCLUSIVE

    def test_five_qubit_nonvanishing_sibling(self):
        # same rank-three shape as the vanishing family but with a
        # nonzero product: under-determined nonvanishing wins
        spec = problem_spec(
            (2,) * 5,
            [({1, 4}, 1), ({2, 5}, 1), ({3}, 1), ((), 1)],
        )
        v = verdict(spec)
        assert not v.product_vanishes
        assert v.sigma_rank == 3
        assert v.kind == INFINITELY_MANY
        assert v.basis == "underdetermined-nonvanishing"

    def test_seven_qubit_padding_breaks_the_cancellation(self):
        # Complete search: no seven-qubit system with at most six expanded
        # equations has a vanishing sign product (all column multisets for
        # 1-4 rows; all, up to equivalence, for 5-6 rows), so the
        # under-determined cases always resolve via the nonvanishing rule.
        # The vanishing five-qubit family padded to seven parties
        # illustrates this: the extra variables break the cancellation.
        spec = problem_spec(
            (2,) * 7,
            [({1, 4, 5}, 1), ({2}, 1), ({3}, 1), ((), 1)],
        )
        v = verdict(spec)
        assert not v.product_vanishes
        assert v.sigma_rank == 4
        assert v.kind == INFINITELY_MANY
        assert v.basis == "underdetermined-nonvanishing"

    def test_small_systems_never_vanish(self):
        # With two parties, or with three or four qubits, no underdetermined
        # sign product vanishes (see the module docstring), so the
        # nonvanishing rule settles every reduced spec there: 838 of them
        # with two parties up to (7, 7), three qubits and four qubits.
        shapes = [(a, b) for b in range(2, 8) for a in range(2, b + 1)] + [(2,) * 3, (2,) * 4]
        specs = 0
        for dims in shapes:
            n, n_u = len(dims), sum(d - 1 for d in dims)
            # the subsets without party 1 stand for the classes modulo complement
            classes = [s for r in range(n) for s in itertools.combinations(range(2, n + 1), r)]
            for codims in itertools.product(range(n_u), repeat=len(classes)):
                if sum(codims) < n_u:
                    spec = problem_spec(dims, [(s, k) for s, k in zip(classes, codims) if k])
                    assert verdict(spec).basis == "underdetermined-nonvanishing", spec
                    specs += 1
        assert specs == 838

    def test_inconclusive_gap_is_pinned_and_solvable(self):
        # Every set of four pairwise non-parallel codim-1 constraints on
        # (2,2,2,3) and on (2,)^5: the verdict is inconclusive for 6 of 70
        # and 40 of 1,820, each of rank 3 with one unknown to spare and a
        # vanishing product.  A vanishing product is not evidence of
        # nonexistence: a seeded solve finds solutions on one of them.
        gap = {}
        for dims, total in (((2, 2, 2, 3), 70), ((2,) * 5, 1820)):
            n = len(dims)
            # the subsets without party 1 stand for the classes modulo complement
            classes = [s for r in range(n) for s in itertools.combinations(range(2, n + 1), r)]
            sets = list(itertools.combinations(classes, 4))
            assert len(sets) == total
            for four in sets:
                v = verdict(problem_spec(dims, [(s, 1) for s in four]))
                if v.kind == INCONCLUSIVE:
                    gap.setdefault(dims, []).append(four)
                    assert (v.n_equations, v.n_unknowns, v.sigma_rank) == (4, 5, 3), four
                    assert v.product_vanishes and v.top_coefficient == 0, four
        assert {d: len(found) for d, found in gap.items()} == {(2, 2, 2, 3): 6, (2,) * 5: 40}
        assert ((), (2,), (3,), (2, 3)) in gap[(2, 2, 2, 3)]
        spec = problem_spec((2, 2, 2, 3), [((), 1), ({2}, 1), ({3}, 1), ({2, 3}, 1)])
        constraints = random_instance(spec, 1)
        config = SolverConfig(restarts=20, seed=1)
        report = solve(constraints, spec.dims, config)
        assert report.distinct_count > 0
        for s in report.solutions:
            assert residual(s.vector, constraints) < config.accept_threshold

    def test_qubit_square_permanent_dichotomy(self):
        # a square qubit system is critical: a nonvanishing permanent
        # settles existence and a vanishing one leaves it open
        rng = random.Random(29)
        vanishing = set()
        for _ in range(80):
            n = rng.randint(2, 5)
            subsets = []
            for _ in range(n):
                subsets.append({j for j in range(1, n + 1) if rng.random() < 0.5})
            spec = problem_spec((2,) * n, [(s, 1) for s in subsets])
            red_subsets = [c.subset for c in reduce(spec).constraints]
            if len(red_subsets) != n:
                continue  # merged: no longer a square associated matrix
            sigma = sign_matrix(
                [[-1 if j in s else 1 for j in range(1, n + 1)] for s in subsets]
            )
            v = verdict(spec)
            if permanent(sigma) != 0:
                assert v.kind == EXISTS_NONZERO
            else:
                # no +-1 matrix of order 2^m - 1 has a vanishing permanent
                # (Wanless 2005)
                assert n != 3
                assert v.kind == INCONCLUSIVE
                vanishing.add(n)
        assert vanishing == {2, 4, 5}

    def test_power_of_two_qubit_counts_settled_by_the_product(self):
        # On n = 2^m - 1 qubits with N_E <= n, P * l_+^(n - N_E) has per(M)
        # as its top coefficient, M the n x n matrix of the rows with their
        # powers, and no such permanent vanishes (Wanless 2005); so P != 0
        # and the critical or nonvanishing rule decides.  Every reduced spec
        # on (2,)^3 with codims 0-3, and a seeded sample on (2,)^7.
        settled = {"critical-top-coefficient", "underdetermined-nonvanishing"}
        # the subsets without party 1 stand for the classes modulo complement
        classes3 = [(), (2,), (3,), (2, 3)]
        specs = [
            (3, [(s, k) for s, k in zip(classes3, codims) if k is not None])
            for codims in itertools.product((None, 0, 1, 2, 3), repeat=4)
        ]
        rng = random.Random(67)
        classes7 = [s for r in range(7) for s in itertools.combinations(range(2, 8), r)]
        specs += [
            (7, [(s, rng.randint(0, 3)) for s in rng.sample(classes7, rng.randint(1, 5))])
            for _ in range(300)
        ]
        seen = set()
        for n, cons in specs:
            spec = problem_spec((2,) * n, cons)
            assert reduce(spec) == spec
            v = verdict(spec)
            seen.add((n, v.basis))
            if v.n_equations > n:
                assert v.basis == "overdetermined-generic"
                continue
            assert v.basis in settled, spec
            rows = [[-1 if j in s else 1 for j in range(1, n + 1)] for s, _ in cons]
            powers = [k for _, k in cons]
            plus = n - v.n_equations
            m = [r for r, k in zip(rows, powers) for _ in range(k)] + [[1] * n] * plus
            top = expand_product(rows + [[1] * n], powers + [plus], (2,) * n).top_coefficient()
            assert top == permanent(sign_matrix(m)) != 0
        assert len(seen) == 6, seen

    def test_kind_count_guards(self):
        rng = random.Random(31)
        for _ in range(100):
            dims = tuple(rng.choice((2, 3)) for _ in range(rng.randint(1, 3)))
            spec = random_spec(rng, dims, rng.randint(1, 4))
            n_e, n_u = counts(reduce(spec))
            v = verdict(spec)
            if v.kind == GENERICALLY_EMPTY:
                assert n_e > n_u
            if v.kind in (EXISTS_NONZERO, INFINITELY_MANY):
                assert n_e <= n_u

    def test_invariance_under_constraint_permutation_and_complement(self):
        rng = random.Random(37)
        for _ in range(60):
            dims = tuple(rng.choice((2, 3, 4)) for _ in range(rng.randint(1, 3)))
            n = len(dims)
            spec = random_spec(rng, dims, rng.randint(1, 4))
            base = verdict(spec).kind
            cons = [(set(c.subset), c.codim) for c in spec.constraints]
            rng.shuffle(cons)
            assert verdict(problem_spec(dims, cons)).kind == base
            flipped = [
                (set(range(1, n + 1)) - s if rng.random() < 0.5 else s, k)
                for s, k in cons
            ]
            assert verdict(problem_spec(dims, flipped)).kind == base

    def test_invariance_under_party_relabeling(self):
        rng = random.Random(41)
        for _ in range(40):
            dims = tuple(rng.choice((2, 3)) for _ in range(3))
            spec = random_spec(rng, dims, rng.randint(1, 4))
            perm = list(range(1, 4))
            rng.shuffle(perm)
            pdims = tuple(dims[perm[j] - 1] for j in range(3))
            pcons = [
                ({perm.index(j) + 1 for j in c.subset}, c.codim)
                for c in spec.constraints
            ]
            assert verdict(problem_spec(pdims, pcons)).kind == verdict(spec).kind

    def test_critical_product_vanishes_iff_top_is_zero(self):
        # a critical sign product is homogeneous of the top degree, so no
        # rule after critical-top-coefficient can see it nonzero
        rng = random.Random(43)
        seen = set()
        for _ in range(150):
            dims = tuple(rng.choice((2, 2, 3)) for _ in range(rng.randint(2, 5)))
            n = len(dims)
            n_u = sum(d - 1 for d in dims)
            codims = [0] * rng.randint(1, n_u)
            for _ in range(n_u):
                codims[rng.randrange(len(codims))] += 1
            subsets = [{j for j in range(1, n + 1) if rng.random() < 0.5} for _ in codims]
            v = verdict(problem_spec(dims, list(zip(subsets, codims))))
            assert v.n_equations == v.n_unknowns
            assert v.product_vanishes == (v.top_coefficient == 0)
            assert (v.basis == "critical-top-coefficient") == (not v.product_vanishes)
            seen.add(v.product_vanishes)
        assert seen == {True, False}

    def test_underdetermined_product_vanishes_matches_brute_expansion(self):
        # below the critical count the benchmark's checks never read
        # product_vanishes, so this is its only oracle; the shapes with four
        # unit codimensions are where vanishing products turn up
        rng = random.Random(61)
        shapes = [((2,) * 5, 4), ((2, 2, 4), 4), ((2, 2, 2, 3), 4), ((3, 3, 2), 4), ((2,) * 4, 3)]
        seen = set()
        for _ in range(300):
            dims, r = rng.choice(shapes)
            n, n_u = len(dims), sum(d - 1 for d in dims)
            codims = [1] * r
            for _ in range(rng.randint(0, n_u - 1 - r)):
                codims[rng.randrange(r)] += 1
            subsets = [{j for j in range(1, n + 1) if rng.random() < 0.5} for _ in codims]
            spec = problem_spec(dims, list(zip(subsets, codims)))
            v = verdict(spec)
            assert v.n_equations < v.n_unknowns
            red = reduce(spec)
            rows = associated_matrix([c.subset for c in red.constraints], n).entries
            product = brute_expand(rows, [c.codim for c in red.constraints], red.dims)
            assert v.product_vanishes == (product == {})
            seen.add(v.product_vanishes)
        assert seen == {True, False}


class TestGenericCount:
    def test_two_qutrit(self):
        assert generic_count(problem_spec((3, 3), [((), 4)])) == 6

    def test_two_qubit(self):
        assert generic_count(problem_spec((2, 2), [((), 2)])) == 2

    def test_three_qubit(self):
        assert generic_count(problem_spec((2, 2, 2), [((), 1), ((), 2)])) == 6

    def test_full_subset_counts_like_empty(self):
        assert generic_count(problem_spec((2, 2), [({1, 2}, 2)])) == 2

    def test_absent_when_conjugations_remain(self):
        assert generic_count(problem_spec((2, 2), [({2}, 1), ((), 1)])) is None

    def test_absent_when_not_critical(self):
        assert generic_count(problem_spec((3, 3), [((), 3)])) is None


class TestValidation:
    def test_dims_validated(self):
        with pytest.raises(ValueError):
            problem_spec((1, 2), [((), 1)])

    def test_subset_range_validated(self):
        with pytest.raises(ValueError):
            problem_spec((2, 2), [({3}, 1)])

    def test_codim_bounds(self):
        with pytest.raises(ValueError):
            problem_spec((2, 2), [((), 5)])
        with pytest.raises(ValueError):
            problem_spec((2, 2), [((), -1)])
