"""CLI: parsing, reports, exit codes, determinism."""

import hashlib
import json
import time
import warnings

import numpy as np
import pytest

import prodvec
from prodvec import cli, mpstate, signmat, solver, truncpoly
from prodvec.errors import ParseError
from prodvec.mpstate import build_separable, maximally_mixed, write_state
from prodvec.solvability import problem_spec
from prodvec.solver import product_vector, random_instance

EX25_DOC = {
    "dims": [2, 2, 4],
    "constraints": [
        {"subset": [1], "codim": 1},
        {"subset": [2], "codim": 1},
        {"subset": [3], "codim": 1},
        {"subset": [], "codim": 1},
    ],
}


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestComplexLiterals:
    def test_parse_forms(self):
        assert cli.parse_complex("0.5+0.5i") == 0.5 + 0.5j
        assert cli.parse_complex("-1.25-3e-2i") == -1.25 - 0.03j
        assert cli.parse_complex("0+0i") == 0j

    def test_round_trip(self):
        rng = np.random.Generator(np.random.Philox(key=[3, 0]))
        for _ in range(100):
            z = complex(rng.standard_normal(), rng.standard_normal()) * 10 ** int(
                rng.integers(-12, 3)
            )
            assert cli.parse_complex(cli.format_complex(z)) == z

    def test_rejects_malformed(self):
        for bad in ("1.0", "1+i", "i", "1.0+2.0j", "1.0 + 2.0i", "++2i"):
            with pytest.raises(ParseError):
                cli.parse_complex(bad)


class TestSpecFiles:
    def test_parse_minimal(self, tmp_path):
        doc = {"dims": [2, 2], "constraints": [{"subset": [], "codim": 1}]}
        spec, explicit = cli.parse_spec_text(json.dumps(doc))
        assert spec.dims == (2, 2)
        assert explicit is None

    def test_subset_range_error(self):
        doc = {"dims": [2, 2], "constraints": [{"subset": [0], "codim": 1}]}
        with pytest.raises(ParseError):
            cli.parse_spec_text(json.dumps(doc))
        doc = {"dims": [2, 2], "constraints": [{"subset": [3], "codim": 1}]}
        with pytest.raises(ParseError):
            cli.parse_spec_text(json.dumps(doc))

    def test_complex_basis_parsed_exactly(self):
        basis_row = ["0.5+0.5i", "0+0i", "0+0i", "0.5-0.5i"]
        doc = {
            "dims": [2, 2],
            "constraints": [{"subset": [2], "complement_basis": [basis_row]}],
        }
        spec, explicit = cli.parse_spec_text(json.dumps(doc))
        assert spec.constraints[0].codim == 1
        assert explicit[0].complement_basis[0, 0] == 0.5 + 0.5j
        assert explicit[0].complement_basis[0, 3] == 0.5 - 0.5j

    def test_json_error_position(self):
        try:
            cli.parse_spec_text('{"dims": [2, 2,\n  "constraints": }')
        except ParseError as exc:
            assert exc.line == 2
        else:
            raise AssertionError("expected ParseError")

    def test_round_trip_with_bases(self):
        spec = problem_spec((2, 2), [({2}, 1), ((), 2)])
        explicit = random_instance(spec, 21)
        text = cli.format_spec_text(spec, explicit)
        spec2, explicit2 = cli.parse_spec_text(text)
        assert spec2 == spec
        for a, b in zip(explicit, explicit2):
            assert a.subset == b.subset
            assert np.array_equal(a.complement_basis, b.complement_basis)
        assert cli.format_spec_text(spec2, explicit2) == text


class TestCommands:
    def test_verdict_example(self, capsys, tmp_path):
        path = tmp_path / "ex25.json"
        path.write_text(json.dumps(EX25_DOC))
        rc, out, _ = run(capsys, ["verdict", str(path)])
        assert rc == 0
        assert out.startswith(f"schema: {cli.SCHEMA}\n")
        assert "kind: inconclusive" in out
        assert "equations: 4" in out
        assert "unknowns: 5" in out
        assert "sigma_rank: 3" in out

    def test_permanent_report(self, capsys, tmp_path):
        path = tmp_path / "sigma2.mat"
        path.write_text("--++\n+--+\n++++\n++++\n")
        rc, out, _ = run(capsys, ["permanent", str(path)])
        assert rc == 0
        assert "permanent: 0" in out

    def test_invariants_report(self, capsys, tmp_path):
        path = tmp_path / "b.mat"
        path.write_text("++++\n+-+-\n++--\n+--+\n")
        rc, out, _ = run(capsys, ["invariants", str(path)])
        assert rc == 0
        assert "abs_per: 8" in out
        assert "abs_det: 16" in out
        assert "row_gram_is_scalar: true" in out

    def test_classify_report(self, capsys):
        rc, out, _ = run(capsys, ["classify", "--n", "4", "--mode", "exhaustive"])
        assert rc == 0
        assert out.rstrip().endswith("classes: 5")
        blocks = [b for b in out.split("\n\n") if b.strip() and "+" in b]
        assert len(blocks) == 5

    def test_equivalent_command(self, capsys, tmp_path):
        a = tmp_path / "a.mat"
        b = tmp_path / "b.mat"
        a.write_text("--++\n++++\n++++\n++++\n")
        b.write_text("++--\n++++\n++++\n++++\n")
        rc, out, _ = run(capsys, ["equivalent", str(a), str(b)])
        assert rc == 0 and "equivalent: true" in out

    def test_equivalent_6x6_scrambled_pair(self, capsys, tmp_path):
        a_rows = ["+-+--+", "++-+--", "-+++-+", "+--+++", "--+-++", "+++---"]
        # b is a with columns 0 and 4 swapped, rows 1 and 5 swapped,
        # row 2 and column 3 negated
        b_rows = ["--++++", "-++++-", "+--++-", "+---++", "+-++-+", "-+--+-"]
        a = tmp_path / "a.mat"
        b = tmp_path / "b.mat"
        a.write_text("\n".join(a_rows) + "\n")
        b.write_text("\n".join(b_rows) + "\n")
        rc, out, _ = run(capsys, ["equivalent", str(a), str(b)])
        assert rc == 0
        assert "equivalent: true" in out

    def test_solve_prints_seed_and_solutions(self, capsys, tmp_path):
        path = tmp_path / "crit.json"
        path.write_text(
            json.dumps({"dims": [2, 2], "constraints": [{"subset": [], "codim": 2}]})
        )
        rc, out, _ = run(capsys, ["solve", str(path), "--seed", "5", "--restarts", "80"])
        assert rc == 0
        assert "seed: 5" in out
        assert "distinct_count: 2" in out
        assert "instance: random" in out

    def test_solve_explicit_instance(self, capsys, tmp_path):
        # the infeasible two-qubit pair, supplied as explicit bases: the
        # residual is constant 1/2 on the whole search space
        b1 = np.array([1, 0, 0, 1]) / np.sqrt(2)
        b2 = np.array([0, 1, -1, 0]) / np.sqrt(2)
        doc = {
            "dims": [2, 2],
            "constraints": [
                {"subset": [2], "complement_basis": [[cli.format_complex(z) for z in b1]]},
                {"subset": [], "complement_basis": [[cli.format_complex(z) for z in b2]]},
            ],
        }
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(doc))
        rc, out, _ = run(capsys, ["solve", str(path), "--seed", "4", "--restarts", "300"])
        assert rc == 0
        assert "instance: explicit" in out
        assert "distinct_count: 0" in out
        floor = float(out.split("residual_floor: ")[1].splitlines()[0])
        assert abs(floor - 0.5) < 1e-9

    def test_solve_rejects_non_orthonormal_basis(self, capsys, tmp_path):
        doc = {
            "dims": [2, 2],
            "constraints": [
                {
                    "subset": [],
                    "complement_basis": [["1.0+0.0i", "1.0+0.0i", "0.0+0.0i", "0.0+0.0i"]],
                }
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc, _, err = run(capsys, ["solve", str(path)])
        assert rc == 2
        assert "orthonormal" in err

    def test_solve_deterministic_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "crit.json"
        path.write_text(
            json.dumps({"dims": [2, 2], "constraints": [{"subset": [], "codim": 2}]})
        )
        argv = ["solve", str(path), "--seed", "9", "--restarts", "60"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_edge_report(self, capsys, tmp_path):
        path = tmp_path / "mixed.state"
        path.write_text(write_state(maximally_mixed((2, 2))))
        rc, out, _ = run(capsys, ["edge", str(path), "--seed", "3"])
        assert rc == 0
        assert "classification: not-edge" in out
        assert "witness:" in out

    def test_survey_deterministic(self, capsys):
        argv = ["survey", "--n", "4", "--samples", "500", "--seed", "11"]
        rc, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert rc == 0
        assert out1 == out2
        assert "vanishing_fraction:" in out1

    @pytest.mark.parametrize(
        "n, samples, seed, digest",
        [
            (6, 2000, 1, "da8e476de6b99fa55654da39ef81b0baa4e9019b635b7ed21c8b867eff40253f"),
            (8, 1000, 2, "fdf4ae363d9a0561e641586d86ef3e8e6185a7221a9fda49d9a99f97d37ed0ae"),
            (10, 500, 3, "e43006e696e994e2b8ccf17f3a139064455d0264f490188ff9c3e39dd8dc92c4"),
            (13, 300, 4, "fb85f9d2ffaecf501df63328070f66145d91bbb5b4a225b64b2c16f40ed9ebbc"),
        ],
        ids=["n6", "n8", "n10", "n13"],
    )
    def test_survey_reports_are_pinned(self, capsys, n, samples, seed, digest):
        # the benchmark's survey shapes and n = 13, against the bytes of the
        # reports before the stacked Glynn walk under schema /8 (only the
        # schema line differs from /6 and /7): no kernel change may move a
        # histogram
        argv = ["survey", "--n", str(n), "--samples", str(samples), "--seed", str(seed)]
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_solver_reports_are_pinned(self, capsys, tmp_path):
        # the bytes of one seeded solve and one seeded edge report under the
        # one-party-at-a-time contractions (schema /8); a change to the
        # solver's arithmetic moves their last digits and has to bump
        # cli.SCHEMA.
        # Printed floats come from numpy's BLAS and LAPACK kernels, so
        # another numpy build may print other last digits.
        crit = tmp_path / "crit.json"
        crit.write_text(json.dumps({"dims": [2, 2], "constraints": [{"subset": [], "codim": 2}]}))
        rng = np.random.Generator(np.random.Philox(key=[7, 0]))
        vectors = [
            product_vector([rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)])
            for _ in range(4)
        ]
        state = tmp_path / "sep.state"
        state.write_text(write_state(build_separable(vectors, [0.25] * 4)))
        for argv, digest in (
            (
                ["solve", str(crit), "--seed", "9", "--restarts", "60"],
                "a55afb361d2cd968ce491a3610d2cc9c3d48526cc9cba6df3ec3505122cf8ea1",
            ),
            (
                ["edge", str(state), "--seed", "5", "--restarts", "40"],
                "14774f392d2d015532bd2360de679a73535bb33c11d196f3baabfc9466fc4cfb",
            ),
        ):
            rc, out, _ = run(capsys, argv)
            assert rc == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_edge_default_tol_is_the_rank_cut(self, capsys, tmp_path):
        path = tmp_path / "mixed.state"
        path.write_text(write_state(maximally_mixed((2, 2))))
        argv = ["edge", str(path), "--seed", "3", "--restarts", "20"]
        rc, default, _ = run(capsys, argv)
        _, explicit, _ = run(capsys, argv + ["--tol", "1e-9"])
        assert rc == 0
        assert default == explicit

    @pytest.mark.parametrize("a, b", [(-1, 0), (2**63, 2**63 + 1)])
    def test_wide_seeds_draw_their_own_streams(self, capsys, tmp_path, a, b):
        path = tmp_path / "crit.json"
        path.write_text(
            json.dumps({"dims": [2, 2], "constraints": [{"subset": [], "codim": 2}]})
        )
        commands = (
            ["solve", str(path), "--restarts", "40"],
            ["survey", "--n", "4", "--samples", "500"],
        )
        for argv in commands:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                reports = [run(capsys, argv + ["--seed", str(s)]) for s in (a, b)]
            (rc_a, out_a, err_a), (rc_b, out_b, _) = reports
            assert rc_a == rc_b == 0 and err_a == ""
            unseeded = [
                [x for x in out.splitlines() if not x.startswith("seed:")] for out in (out_a, out_b)
            ]
            assert unseeded[0] != unseeded[1]

    def test_reports_echo_the_seed_their_stream_uses(self, capsys, tmp_path):
        # a stream keys on the seed mod 2^64, and each report names that seed once
        path = tmp_path / "mixed.state"
        path.write_text(write_state(maximally_mixed((2, 2))))
        commands = (
            ["edge", str(path), "--restarts", "20"],
            ["survey", "--n", "4", "--samples", "50"],
        )
        for argv in commands:
            rc, out, _ = run(capsys, argv + ["--seed", "-1"])
            assert rc == 0
            seeds = {x.strip() for x in out.splitlines() if x.strip().startswith("seed:")}
            assert seeds == {f"seed: {2**64 - 1}"}

    def test_out_flag_writes_file(self, capsys, tmp_path):
        src = tmp_path / "m.mat"
        src.write_text("++\n++\n")
        dst = tmp_path / "report.txt"
        rc, out, _ = run(capsys, ["permanent", str(src), "--out", str(dst)])
        assert rc == 0
        assert out == ""
        assert "permanent: 2" in dst.read_text()


class TestExitCodes:
    def test_parse_error_is_2(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("+x\n")
        rc, _, err = run(capsys, ["permanent", str(path)])
        assert rc == 2
        assert "line 1" in err

    def test_missing_file_is_2(self, capsys):
        rc, _, err = run(capsys, ["permanent", "/nonexistent/m.mat"])
        assert rc == 2

    def test_domain_error_is_1(self, capsys, tmp_path):
        path = tmp_path / "wide.mat"
        path.write_text("+++\n+++\n")
        rc, _, err = run(capsys, ["permanent", str(path)])
        assert rc == 1
        assert "square" in err

    def test_unsupported_size_is_1(self, capsys):
        rc, _, err = run(capsys, ["classify", "--n", "5", "--mode", "exhaustive"])
        assert rc == 1

    def test_classify_n6_without_budget_is_1(self, capsys, monkeypatch):
        def no_sweep(n):
            raise AssertionError("swept before refusing")

        monkeypatch.setattr(signmat, "_sorted_rows", no_sweep)
        rc, _, err = run(capsys, ["classify", "--n", "6", "--mode", "normalized-search"])
        assert rc == 1
        assert "budget" in err

    def test_sizes_below_one_are_1(self, capsys, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept before refusing")

        monkeypatch.setattr(signmat, "_sorted_rows", no_sweep)
        monkeypatch.setattr(signmat, "batch_permanent", no_sweep)
        for n in ("0", "-1"):
            for argv in (["classify", "--n", n], ["survey", "--n", n, "--samples", "10"]):
                rc, out, err = run(capsys, argv)
                assert rc == 1
                assert out == ""
                assert "at least 1" in err

    def test_equivalent_7x7_is_1(self, capsys, tmp_path, monkeypatch):
        def no_search(m):
            raise AssertionError("searched before refusing")

        monkeypatch.setattr(signmat, "_canonical_entries", no_search)
        a = tmp_path / "a.mat"
        a.write_text("+++++++\n" * 7)
        rc, _, err = run(capsys, ["equivalent", str(a), str(a)])
        assert rc == 1
        assert "at most 6" in err

    def test_matrix_split_by_blank_line_is_2(self, capsys, tmp_path):
        a = tmp_path / "a.mat"
        a.write_text("+-\n\n-+\n")
        for argv in (["invariants", str(a)], ["equivalent", str(a), str(a)]):
            rc, out, err = run(capsys, argv)
            assert rc == 2
            assert out == ""
            assert "line 3" in err

    def test_classify_negative_budget_is_1(self, capsys, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept before refusing")

        monkeypatch.setattr(signmat, "_sorted_rows", no_sweep)
        for n in ("5", "6"):
            argv = ["classify", "--n", n, "--mode", "normalized-search", "--budget", "-1"]
            rc, _, err = run(capsys, argv)
            assert rc == 1
            assert "budget" in err

    def test_classify_n6_budget_sweeps_one_chunk(self, capsys, monkeypatch):
        # the first 65,536-candidate chunk of the sorted-row sweep at n = 6
        # already holds 15,242 vanishing matrices, so a budget of 5 must
        # stop the sweep there
        calls = []
        kernel = signmat.batch_permanent

        def counting(batch):
            calls.append(len(batch))
            return kernel(batch)

        monkeypatch.setattr(signmat, "batch_permanent", counting)
        argv = ["classify", "--n", "6", "--mode", "normalized-search", "--budget", "5"]
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        assert calls == [1 << 16]
        assert 1 <= int(out.rsplit("classes: ", 1)[1]) <= 5

    def test_solve_negative_restarts_is_1(self, capsys, tmp_path, monkeypatch):
        def no_restart(*args, **kwargs):
            raise AssertionError("ran a restart before refusing")

        monkeypatch.setattr(solver, "_minimize_batch", no_restart)
        path = tmp_path / "ex.json"
        path.write_text(json.dumps(EX25_DOC))
        rc, out, err = run(capsys, ["solve", str(path), "--restarts", "-3"])
        assert rc == 1
        assert "restarts" in err
        assert out == ""

    def test_solve_oversized_instance_is_1(self, capsys, tmp_path, monkeypatch):
        # a random instance on 2^13 = 8192 dimensions is refused before drawing
        class NoDraw:
            def __init__(self, *args, **kwargs):
                pass

            def standard_normal(self, *args, **kwargs):
                raise AssertionError("drew before checking the instance size")

        monkeypatch.setattr(solver.np.random, "Generator", NoDraw)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dims": [2] * 13, "constraints": [{"subset": [], "codim": 1}]}))
        rc, _, err = run(capsys, ["solve", str(path)])
        assert rc == 1
        assert "8192" in err

    def test_solve_restart_work_over_the_bound_is_1(self, capsys, tmp_path, monkeypatch):
        # the default rule asks 50 * 369,600 restarts of a generic count of
        # 369,600; an explicit --restarts may ask as many; refuse before drawing
        class NoDraw:
            def __init__(self, *args, **kwargs):
                raise AssertionError("drew before checking the restart work")

        monkeypatch.setattr(solver.np.random, "Generator", NoDraw)
        path = tmp_path / "many.json"
        path.write_text(json.dumps({"dims": [4] * 4, "constraints": [{"subset": [], "codim": 12}]}))
        ex25 = tmp_path / "ex.json"
        ex25.write_text(json.dumps(EX25_DOC))
        for argv in (["solve", str(path)], ["solve", str(ex25), "--restarts", "100000000"]):
            rc, out, err = run(capsys, argv)
            assert rc == 1
            assert out == ""
            assert f"the supported {solver.MAX_RESTART_ENTRIES}" in err

    def test_solve_huge_critical_spec_is_1_before_counting(self, capsys, tmp_path, monkeypatch):
        # its generic count is a multinomial of 2 * 10^6 - 2 over two
        # factorials of 10^6 - 1; even 500 restarts exceed the entries bound
        def no_count(spec):
            raise AssertionError("counted before checking the restart bounds")

        monkeypatch.setattr(solver, "generic_count", no_count)
        path = tmp_path / "huge.json"
        doc = {"dims": [10**6] * 2, "constraints": [{"subset": [], "codim": 2 * 10**6 - 2}]}
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        rc, out, err = run(capsys, ["solve", str(path)])
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        assert out == ""
        assert f"the supported {solver.MAX_RESTART_ENTRIES}" in err
        assert len(err) < 120

    def test_solve_restart_work_in_the_product_dimension_is_1(self, capsys, tmp_path, monkeypatch):
        # 500 restarts on (2,)^12 fit the entries bound (3,456 entries each)
        # but ask 500 * 120 * 12 * 4096 units of work; refuse before drawing
        class NoDraw:
            def __init__(self, *args, **kwargs):
                raise AssertionError("drew before checking the restart work")

        def no_restart(*args, **kwargs):
            raise AssertionError("ran a restart before refusing")

        monkeypatch.setattr(solver.np.random, "Generator", NoDraw)
        monkeypatch.setattr(solver, "_minimize_batch", no_restart)
        path = tmp_path / "qubits.json"
        path.write_text(json.dumps({"dims": [2] * 12, "constraints": [{"subset": [1], "codim": 12}]}))
        rc, out, err = run(capsys, ["solve", str(path)])
        assert rc == 1
        assert out == ""
        assert f"at most {solver.MAX_RESTART_WORK}" in err

    def test_survey_work_over_the_bound_is_1(self, capsys, monkeypatch):
        class NoDraw:
            def __init__(self, *args, **kwargs):
                raise AssertionError("drew before checking the survey work")

        monkeypatch.setattr(cli.np.random, "Generator", NoDraw)
        over = {"16": str((cli.SURVEY_MAX_STEPS >> 15) + 1), "1": str(cli.SURVEY_MAX_STEPS + 1)}
        for n, samples in over.items():
            rc, out, err = run(capsys, ["survey", "--n", n, "--samples", samples])
            assert rc == 1
            assert out == ""
            assert f"at most {cli.SURVEY_MAX_STEPS}" in err
        rc, out, err = run(capsys, ["survey", "--n", "17", "--samples", "1"])
        assert rc == 1
        assert out == ""
        assert f"n <= {signmat.MAX_UINT64_N}" in err

    def test_oversized_ring_is_1(self, capsys, tmp_path, monkeypatch):
        # (12,)^6 has 2,985,984 cells; 60 equations keep the spec below the
        # 66 unknowns, so verdict would expand it
        def no_rows(sigma):
            raise AssertionError("read the sign rows before checking the ring size")

        monkeypatch.setattr(truncpoly, "_sign_rows", no_rows)
        cons = [{"subset": s, "codim": 12} for s in ([], [1], [2], [3], [1, 2])]
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({"dims": [12] * 6, "constraints": cons}))
        rc, out, err = run(capsys, ["verdict", str(path)])
        assert rc == 1
        assert out == ""
        assert "2985984 cells" in err

    def test_oversized_critical_ring_is_1(self, capsys, tmp_path, monkeypatch):
        # (12,)^6 again, now with 66 equations for the 66 unknowns: verdict
        # reads the top coefficient from the expansion, which must refuse
        # before it reads the rows or walks the ring
        def fail(*args, **kwargs):
            raise AssertionError("read the rows or walked the ring before checking its size")

        monkeypatch.setattr(truncpoly, "_sign_rows", fail)
        monkeypatch.setattr(truncpoly.np, "arange", fail)
        monkeypatch.setattr(truncpoly.np, "unravel_index", fail)
        codims = (12, 12, 12, 12, 18)
        cons = [
            {"subset": s, "codim": k}
            for s, k in zip(([], [1], [2], [3], [1, 2]), codims)
        ]
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({"dims": [12] * 6, "constraints": cons}))
        rc, out, err = run(capsys, ["verdict", str(path)])
        assert rc == 1
        assert out == ""
        assert "2985984 cells" in err

    def test_oversized_overdetermined_ring_is_0(self, capsys, tmp_path, monkeypatch):
        # (12,)^6 with 70 equations for the 66 unknowns: the sign product is
        # 0 by its degree alone, so verdict answers without the ring
        def no_rows(sigma):
            raise AssertionError("read the sign rows of an overdetermined spec")

        monkeypatch.setattr(truncpoly, "_sign_rows", no_rows)
        cons = [{"subset": s, "codim": 14} for s in ([], [1], [2], [3], [1, 2])]
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({"dims": [12] * 6, "constraints": cons}))
        rc, out, err = run(capsys, ["verdict", str(path)])
        assert rc == 0
        assert err == ""
        assert "kind: generically-empty" in out
        assert "equations: 70" in out

    def test_oversized_state_is_1(self, capsys, tmp_path, monkeypatch):
        # the header alone asks for a 10^6 x 10^6 matrix; refuse before allocating
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before checking the state size")

        monkeypatch.setattr(mpstate.np, "zeros", no_alloc)
        path = tmp_path / "huge.state"
        path.write_text("dims: 100 100 100\n")
        rc, _, err = run(capsys, ["edge", str(path)])
        assert rc == 1
        assert "1000000" in err

    def test_bad_tolerances_are_2(self, capsys, tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("analysed before rejecting the flag")

        monkeypatch.setattr(mpstate, "read_state", no_work)
        monkeypatch.setattr(cli, "parse_spec_text", no_work)
        state = tmp_path / "mixed.state"
        state.write_text(write_state(maximally_mixed((2, 2))))
        spec = tmp_path / "ex.json"
        spec.write_text(json.dumps(EX25_DOC))
        cases = [["edge", str(state), "--tol", t] for t in ("nan", "0", "-1", "inf", "1")]
        cases += [["solve", str(spec), "--tol", t] for t in ("nan", "-1", "0", "inf")]
        for argv in cases:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "--tol" in capsys.readouterr().err

    def test_non_finite_state_is_2(self, capsys, tmp_path):
        path = tmp_path / "nan.state"
        path.write_text("dims: 2 2\n0 0 nan 0\n")
        rc, out, err = run(capsys, ["edge", str(path)])
        assert rc == 2
        assert out == ""
        assert "line 2" in err

    def test_negative_trace_state_is_2(self, capsys, tmp_path):
        path = tmp_path / "minus.state"
        path.write_text("dims: 2 2\n" + "".join(f"{i} {i} -0.25 0\n" for i in range(4)))
        rc, out, err = run(capsys, ["edge", str(path)])
        assert rc == 2
        assert out == ""
        assert "not positive" in err

    def test_party_of_dimension_one_is_2(self, capsys, tmp_path, monkeypatch):
        def no_alloc(*args, **kwargs):
            raise AssertionError("read entries before refusing the header")

        monkeypatch.setattr(mpstate.np, "zeros", no_alloc)
        path = tmp_path / "one.state"
        path.write_text("\ndims: 1 2\n0 0 0.5 0\n1 1 0.5 0\n")
        rc, out, err = run(capsys, ["edge", str(path)])
        assert rc == 2
        assert out == ""
        assert "line 2" in err and ">= 2" in err

    def test_oversized_invariants_is_1(self, capsys, tmp_path, monkeypatch):
        def no_elimination(rows):
            raise AssertionError("eliminated before refusing")

        monkeypatch.setattr(signmat, "_bareiss", no_elimination)
        n = signmat.INVARIANTS_MAX_SIZE + 1
        for text in (("+" * n + "\n") * 2, "+\n" * n):
            path = tmp_path / "big.mat"
            path.write_text(text)
            rc, out, err = run(capsys, ["invariants", str(path)])
            assert rc == 1
            assert out == ""
            assert f"at most {n - 1}" in err

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_version_names_package_version_and_kernels(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"prodvec {prodvec.__version__} (kernels: pure)\n"

    def test_unknown_flag_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["permanent", "x.mat", "--frobnicate"])
        assert exc.value.code == 2
