"""CLI: parsing, reports, exit codes, determinism."""

import hashlib
import itertools
import json
import os
import random
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
from test_mpstate import rank_three_state, tiles_upb

EX25_DOC = {
    "dims": [2, 2, 4],
    "constraints": [
        {"subset": [1], "codim": 1},
        {"subset": [2], "codim": 1},
        {"subset": [3], "codim": 1},
        {"subset": [], "codim": 1},
    ],
}

# a unit complement basis row on 2 (x) 2
UNIT_ROW = ["1+0i", "0+0i", "0+0i", "0+0i"]


def format_spec_text(spec, constraints=None):
    """The spec file ``cli.parse_spec_text`` reads back as ``spec`` and,
    when given, the explicit ``constraints``."""
    recs = []
    for idx, c in enumerate(spec.constraints):
        rec = {"subset": sorted(c.subset), "codim": c.codim}
        if constraints is not None:
            basis = constraints[idx].complement_basis
            rec["complement_basis"] = [[cli.format_complex(z) for z in row] for row in basis]
        recs.append(rec)
    doc = {"dims": list(spec.dims), "constraints": recs}
    return json.dumps(doc, indent=2) + "\n"


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

    @pytest.mark.parametrize(
        "constraints, message",
        [
            ([{"complement_basis": [[1] + UNIT_ROW[1:]]}],
             "constraints[0].complement_basis[0]: invalid complex literal 1 (expected a string)"),
            (None, "top-level value must be an object"),
            ([1], "constraints[0] must be an object"),
            ([{"subset": ["2"], "codim": 1}], "constraints[0].subset must be a list of integers"),
            ([{"complement_basis": "1+0i"}],
             "constraints[0].complement_basis must be a list of vectors"),
            ([{"complement_basis": [UNIT_ROW[:2]]}],
             "constraints[0].complement_basis[0] must be a list of 4 complex literals"),
            ([{"complement_basis": [["1+0j"] + UNIT_ROW[1:]]}],
             "constraints[0].complement_basis[0]: invalid complex literal '1+0j' (expected a+bi)"),
            ([{"subset": [], "codim": -1}], "constraints[0].codim must be a non-negative integer"),
            ([{"subset": [], "codim": 5}], "constraints[0].codim 5 outside 0..4"),
            ([{"complement_basis": [UNIT_ROW] * 5}], "constraints[0].codim 5 outside 0..4"),
            ([{"complement_basis": [UNIT_ROW], "codim": 2}],
             "constraints[0]: codim 2 does not match basis rows 1"),
            ([{"complement_basis": [UNIT_ROW]}, {"subset": [2], "codim": 1}],
             "either all constraints or none must carry complement_basis"),
        ],
        ids=["non-string-literal", "top-level", "constraint", "subset", "basis-type",
             "row-length", "bad-literal", "codim-type", "codim-bound", "basis-rows-bound",
             "codim-rows", "mixed-bases"],
    )
    def test_refusals_exit_2(self, capsys, tmp_path, constraints, message):
        # a top level that is a list, not an object, when constraints is None
        doc = [] if constraints is None else {"dims": [2, 2], "constraints": constraints}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run(capsys, ["verdict", str(path)])
        assert (rc, out, err) == (2, "", f"error: {message}\n")

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
        text = format_spec_text(spec, explicit)
        spec2, explicit2 = cli.parse_spec_text(text)
        assert spec2 == spec
        for a, b in zip(explicit, explicit2):
            assert a.subset == b.subset
            assert np.array_equal(a.complement_basis, b.complement_basis)
        assert format_spec_text(spec2, explicit2) == text


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
            (6, 2000, 1, "6fa9e5054ebc9bcb456df568461b18fd1ed2eda08e58f182d0ef7d1620f16f9a"),
            (8, 1000, 2, "2f91884489b68ba6d63e69511e68529caf5f36cd0478ff8c8b990d50d18cc53f"),
            (10, 500, 3, "497f93810e36fd29d4c9d42edb57cfbd3107505e4e77c57ac675c1c6c8dcdcb7"),
            (13, 300, 4, "ad082790163d4d0761b61e9f1a436b6bf18de88e5fa6e9715efa31b2395fcb38"),
        ],
        ids=["n6", "n8", "n10", "n13"],
    )
    def test_survey_reports_are_pinned(self, capsys, n, samples, seed, digest):
        # the benchmark's survey shapes and n = 13, against the bytes of the
        # reports before the stacked Glynn walk under schema /10 (only the
        # schema line differs from /6 to /9): no kernel change may move a
        # histogram
        argv = ["survey", "--n", str(n), "--samples", str(samples), "--seed", str(seed)]
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_solver_reports_are_pinned(self, capsys, tmp_path):
        # the bytes of one seeded solve and one seeded edge report under the
        # one-party-at-a-time contractions and the stop rules, a witness
        # search trying restart 0 alone first (schema /10); a change to the
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
                "93994210d50ce6ffaa6137039db415c1f33e95674d94bc0bbb4630cf9bb3ea13",
            ),
            (
                ["edge", str(state), "--seed", "5", "--restarts", "40"],
                "833d2a79c80eb3c6be31b728c1e15b7d6088dc3182f5902b260dad2c9ec06425",
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

    def test_solve_default_tol_is_the_accept_threshold(self, capsys, tmp_path):
        path = tmp_path / "ex25.json"
        path.write_text(json.dumps(EX25_DOC))
        argv = ["solve", str(path), "--seed", "3", "--restarts", "20"]
        rc, default, _ = run(capsys, argv)
        _, explicit, _ = run(capsys, argv + ["--tol", "1e-14"])
        assert rc == 0
        assert default == explicit

    def test_edge_candidate_on_the_tiles_upb_state(self, capsys, tmp_path):
        path = tmp_path / "tiles.state"
        path.write_text(write_state(tiles_upb()))
        rc, out, err = run(capsys, ["edge", str(path), "--seed", "1"])
        assert (rc, err) == (0, "")
        lines = out.splitlines()
        assert "classification: candidate-edge" in lines
        assert [line.split()[2:4] for line in lines if line.startswith("subset ")] == [
            ["rank", "4"], ["rank", "4"]
        ]
        assert "rank_inequality_satisfied: true" in lines
        for line in ("  equations: 10", "  unknowns: 4", "  restarts: 500", "  stopped: budget",
                     "  solutions: 0"):
            assert line in lines
        assert not any(line.startswith("warning:") for line in lines)
        assert "witness:" not in lines

    def test_edge_without_restarts_is_not_edge_by_the_verdict(self, capsys, tmp_path):
        # no restart runs, so no witness, but N_E = 0 < N_U = 2 and the
        # nonvanishing product certify that one exists
        path = tmp_path / "mixed.state"
        path.write_text(write_state(maximally_mixed((2, 2))))
        rc, out, err = run(capsys, ["edge", str(path), "--restarts", "0"])
        assert (rc, err) == (0, "")
        assert out == (
            "schema: prodvec-report/10\n"
            "command: edge\n"
            "seed: 0\n"
            "ppt: true\n"
            "classification: not-edge\n"
            "subset {}: rank 4 min_eig 2.500e-01 cut_gap 0.000e+00/2.500e-01\n"
            "subset {2}: rank 4 min_eig 2.500e-01 cut_gap 0.000e+00/2.500e-01\n"
            "sum_of_ranks: 8\n"
            "bound: 6\n"
            "rank_inequality_satisfied: false\n"
            "decision:\n"
            "  kind: infinitely-many\n"
            "  basis: underdetermined-nonvanishing\n"
            "  generic: false\n"
            "  equations: 0\n"
            "  unknowns: 2\n"
            "  sigma_rank: 2\n"
            "  top_coefficient: 0\n"
            "  product_vanishes: false\n"
            "numerical:\n"
            "  seed: 0\n"
            "  restarts: 0\n"
            "  stopped: budget\n"
            "  distinct_count: 0\n"
            "  residual_floor: inf\n"
            "  solutions: 0\n"
            "witness: none; underdetermined-nonvanishing certifies one\n"
        )

    def test_edge_without_restarts_on_an_inconclusive_verdict_is_inconsistent(
        self, capsys, tmp_path
    ):
        # an inconclusive verdict and no restart run leave no witness, and
        # the report flags it
        path = tmp_path / "rank3.state"
        path.write_text(write_state(rank_three_state()))
        rc, out, err = run(capsys, ["edge", str(path), "--restarts", "0"])
        assert (rc, err) == (0, "")
        lines = out.splitlines()
        assert "classification: inconsistent-with-rank-bound" in lines
        assert "warning: no compatible product vector found although the rank sum" \
            " reaches the bound; treat with suspicion (the verdict is" \
            " inconclusive, so the bound is open here)" in lines
        for line in ("  kind: inconclusive", "  equations: 2", "  unknowns: 2",
                     "  top_coefficient: 0", "  restarts: 0", "  solutions: 0"):
            assert line in lines
        assert not any(line.startswith("witness") for line in lines)
        # at the default cap restart 0 alone holds a witness
        rc, out, _ = run(capsys, ["edge", str(path)])
        lines = out.splitlines()
        assert "classification: not-edge" in lines
        assert "  restarts: 1" in lines and "  stopped: witness" in lines
        assert "witness:" in lines

    @pytest.mark.parametrize("command", ["solve", "edge"])
    def test_stop_does_not_depend_on_the_batch_bound(self, capsys, tmp_path, monkeypatch, command):
        # the stop rule is checked between rounds only, so batches of seven
        # restarts stop where one batch per round does, byte for byte; the
        # (3, 3) count of 6 is reached in the second round at seed 2, and
        # the witness of this rank-7 separable (2, 2, 2) state, whose restart
        # 0 fails at seed 2, in its second round (restarts 1 to 16), which
        # the batch bound splits in three
        if command == "solve":
            path = tmp_path / "count.json"
            path.write_text(json.dumps({"dims": [3, 3], "constraints": [{"subset": [], "codim": 4}]}))
            expected = ("restarts: 48", "stopped: generic-count")
            codim, batches = 4, [7, 7, 2, 7, 7, 7, 7, 4]
        else:
            rng = np.random.Generator(np.random.Philox(key=[48, 0]))
            vectors = [
                product_vector([rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)])
                for _ in range(7)
            ]
            path = tmp_path / "sep.state"
            path.write_text(write_state(build_separable(vectors, [1 / 7] * 7)))
            expected = ("  restarts: 17", "  stopped: witness")
            codim, batches = 1, [1, 7, 7, 2]
        argv = [command, str(path), "--seed", "2"]
        rc, whole, _ = run(capsys, argv)
        assert rc == 0
        lines = whole.splitlines()
        assert expected == tuple(lines[lines.index(expected[0]) :][:2])

        # both instances have 12 real parameters
        rows, minimize = [], solver._minimize_batch

        def counting(problem, factors):
            rows.append(len(factors[0]))
            return minimize(problem, factors)

        monkeypatch.setattr(solver, "_minimize_batch", counting)
        monkeypatch.setattr(solver, "MAX_BATCH_ENTRIES", 7 * solver._entries_per_start(12, codim))
        rc, chunked, _ = run(capsys, argv)
        assert rc == 0
        assert rows == batches
        assert chunked == whole

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

    def test_out_may_name_the_input(self, capsys, tmp_path):
        # the spec is read whole before the report replaces it; the padding
        # makes the spec longer than the report, so no old byte may remain
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(EX25_DOC) + " " * 2000)
        _, expected, _ = run(capsys, ["verdict", str(path)])
        rc, out, err = run(capsys, ["verdict", str(path), "--out", str(path)])
        assert (rc, out, err) == (0, "", "")
        assert path.read_text() == expected

    def test_out_may_name_a_device(self, capsys, tmp_path):
        # a device cannot be truncated; it is written as it is
        src = tmp_path / "m.mat"
        src.write_text("++\n++\n")
        rc, out, err = run(capsys, ["permanent", str(src), "--out", os.devnull])
        assert (rc, out, err) == (0, "", "")


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

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_2(self, capsys, tmp_path, monkeypatch, where):
        # every command starts by reading its input; --out is refused first
        def no_work(path):
            raise AssertionError("ran the command before opening --out")

        monkeypatch.setattr(cli, "_read", no_work)
        src = tmp_path / "m.mat"
        src.write_text("++\n++\n")
        dst = tmp_path / "no" / "report.txt" if where == "missing-dir" else tmp_path
        rc, out, err = run(capsys, ["permanent", str(src), "--out", str(dst)])
        reason = "No such file or directory" if where == "missing-dir" else "Is a directory"
        assert (rc, out, err) == (2, "", f"error: cannot write {dst}: {reason}\n")

    @pytest.mark.parametrize("text, code", [("+x\n", 2), ("+++\n+++\n", 1)], ids=["parse", "domain"])
    def test_failed_command_keeps_the_out_file(self, capsys, tmp_path, text, code):
        src = tmp_path / "m.mat"
        src.write_text(text)
        dst = tmp_path / "report.txt"
        dst.write_bytes(b"an earlier report\n")
        rc, out, _ = run(capsys, ["permanent", str(src), "--out", str(dst)])
        assert (rc, out) == (code, "")
        assert dst.read_bytes() == b"an earlier report\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "BIG", "--restarts", "1"], "product dimension 8192 exceeds the supported 4096"),
            (["survey", "--n", "4", "--samples", "0"], "--samples must be positive"),
            (["classify", "--n", "7", "--mode", "normalized-search"],
             "normalized search supports n <= 6"),
        ],
        ids=["solve-2^13-one-restart", "survey-no-samples", "classify-n7"],
    )
    def test_refusals_are_1(self, capsys, tmp_path, argv, message):
        # one codim-1 constraint on 2^13 dimensions at one restart passes
        # restart_count; drawing the instance refuses it
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dims": [2] * 13, "constraints": [{"subset": [], "codim": 1}]}))
        rc, out, err = run(capsys, [str(path) if a == "BIG" else a for a in argv])
        assert (rc, out, err) == (1, "", f"error: {message}\n")

    def test_deep_nesting_is_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        rc, out, err = run(capsys, ["verdict", str(path)])
        assert (rc, out, err) == (2, "", "error: arrays or objects nested too deep\n")

    @pytest.mark.parametrize(
        "command,raw",
        [
            ("verdict", b'\xff{"dims": [2, 2]}'),
            ("permanent", b"\xff++\n++\n"),
            ("edge", b"\xffdims: 2 2\n0 0 1 0\n"),
            ("edge", b"dims: 2 2\n0 0 1 0\n\xff"),
        ],
        ids=["verdict", "permanent", "edge", "edge-body"],
    )
    def test_non_utf8_input_is_2(self, capsys, tmp_path, command, raw):
        path = tmp_path / "bad.txt"
        path.write_bytes(raw)
        rc, out, err = run(capsys, [command, str(path)])
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: not ")
        assert err.count("\n") == 1

    def test_domain_error_is_1(self, capsys, tmp_path):
        path = tmp_path / "wide.mat"
        path.write_text("+++\n+++\n")
        rc, _, err = run(capsys, ["permanent", str(path)])
        assert rc == 1
        assert "square" in err

    def test_unsupported_size_is_1(self, capsys):
        rc, _, err = run(capsys, ["classify", "--n", "5", "--mode", "exhaustive"])
        assert rc == 1

    def test_classify_n6_without_budget_is_0(self, capsys):
        # uncapped, n = 6 closes all 86 classes of vanishing permanents
        rc, out, _ = run(capsys, ["classify", "--n", "6", "--mode", "normalized-search"])
        assert rc == 0
        assert out.endswith("classes: 86\n")

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
        # the first 64-candidate chunk of the sorted-row sweep at n = 6
        # already holds 6 vanishing matrices, so a budget of 5 must stop
        # the sweep there
        calls = []
        kernel = signmat.batch_permanent

        def counting(batch):
            calls.append(len(batch))
            return kernel(batch)

        monkeypatch.setattr(signmat, "batch_permanent", counting)
        argv = ["classify", "--n", "6", "--mode", "normalized-search", "--budget", "5"]
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        assert calls == [64]
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
        def fail(*args):
            raise AssertionError("worked on the ring before checking its size")

        monkeypatch.setattr(truncpoly, "_coefficient_bound", fail)
        monkeypatch.setattr(truncpoly, "_layer", fail)
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
        # before it bounds its coefficients or walks the ring
        def fail(*args, **kwargs):
            raise AssertionError("worked on the ring before checking its size")

        monkeypatch.setattr(truncpoly, "_coefficient_bound", fail)
        monkeypatch.setattr(truncpoly, "_layer", fail)
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
        def fail(*args):
            raise AssertionError("expanded the sign product of an overdetermined spec")

        monkeypatch.setattr(truncpoly, "expand_product", fail)
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

    def test_state_over_the_work_bound_is_1_before_its_entries(self, capsys, tmp_path):
        # the header alone puts (1025,) above MAX_EDGE_WORK, so the entry
        # lines, here a malformed one, are never parsed
        path = tmp_path / "dense.state"
        path.write_text("dims: 1025\n0 0 oops\n")
        rc, out, err = run(capsys, ["edge", str(path)])
        assert rc == 1
        assert out == ""
        assert f"at most {mpstate.MAX_EDGE_WORK}" in err

    def test_low_rank_edge_is_1_after_its_profile(self, capsys, tmp_path):
        # |0...0> on seven qubits is PPT and within MAX_EDGE_WORK; its 64
        # partial transposes have codimension 127 each, so 500 restarts ask
        # 500 * 120 * 8128 * 128 units of solver work
        path = tmp_path / "product.state"
        path.write_text("dims: 2 2 2 2 2 2 2\n0 0 1 0\n")
        rc, out, err = run(capsys, ["edge", str(path)])
        assert rc == 1
        assert out == ""
        assert f"at most {solver.MAX_RESTART_WORK}" in err

    def test_edge_over_the_work_bound_is_1_before_any_eigendecomposition(
        self, capsys, tmp_path, monkeypatch
    ):
        # |0...0> on nine qubits would take about 14 s of eigvalsh alone;
        # D = 646 is the smallest two-party dimension with 2 D^3 above 2^29
        def no_eig(*args, **kwargs):
            raise AssertionError("eigendecomposed before checking the work bound")

        monkeypatch.setattr(mpstate.np.linalg, "eigvalsh", no_eig)
        monkeypatch.setattr(mpstate.np.linalg, "eigh", no_eig)
        for dims in ("2 2 2 2 2 2 2 2 2", "2 323"):
            path = tmp_path / "product.state"
            path.write_text(f"dims: {dims}\n0 0 1 0\n")
            start = time.perf_counter()
            rc, out, err = run(capsys, ["edge", str(path)])
            assert time.perf_counter() - start < 1.0
            assert rc == 1
            assert out == ""
            assert f"at most {mpstate.MAX_EDGE_WORK}" in err

    def test_edge_under_the_solver_floor_is_1_before_any_eigendecomposition(
        self, capsys, tmp_path, monkeypatch
    ):
        # one party of dimension 645: even eight restarts of a vacuous
        # constraint count 8 * 1290^2 entries, above MAX_RESTART_ENTRIES;
        # three restarts fit, and the analysis goes on
        decomposed = []

        def no_eig(*args, **kwargs):
            decomposed.append(args[0].shape)
            raise AssertionError("eigendecomposed before checking the solver floor")

        monkeypatch.setattr(mpstate.np.linalg, "eigh", no_eig)
        path = tmp_path / "product.state"
        path.write_text("dims: 645\n0 0 1 0\n")
        rc, out, err = run(capsys, ["edge", str(path)])
        assert rc == 1
        assert out == ""
        assert f"the supported {solver.MAX_RESTART_ENTRIES}" in err
        assert decomposed == []
        with pytest.raises(AssertionError, match="solver floor"):
            cli.main(["edge", str(path), "--restarts", "3"])
        assert decomposed == [(1, 645, 645)]

    def test_edge_negative_restarts_is_1_even_when_not_ppt(self, capsys, tmp_path):
        # the solver floor counts the restarts before the PPT check, so an
        # invalid count is refused on a Bell state too
        path = tmp_path / "bell.state"
        path.write_text("dims: 2 2\n0 0 0.5 0\n3 3 0.5 0\n0 3 0.5 0\n3 0 0.5 0\n")
        rc, out, err = run(capsys, ["edge", str(path), "--restarts", "-1"])
        assert rc == 1
        assert out == ""
        assert "restarts must be non-negative" in err
        rc, out, _ = run(capsys, ["edge", str(path)])
        assert rc == 0
        assert "not-applicable" in out

    def test_solve_zero_restarts_over_the_bound_is_1(self, capsys, tmp_path, monkeypatch):
        # three codim-2048 constraints over (64, 64), 134 MB of basis each:
        # zero restarts count as one, which asks 120 * 6144 * 4096 units
        class NoDraw:
            def __init__(self, *args, **kwargs):
                raise AssertionError("drew before checking the restart work")

        monkeypatch.setattr(solver.np.random, "Generator", NoDraw)
        cons = [{"subset": s, "codim": 2048} for s in ([], [1], [2])]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"dims": [64, 64], "constraints": cons}))
        rc, out, err = run(capsys, ["solve", str(path), "--restarts", "0"])
        assert rc == 1
        assert out == ""
        assert f"at most {solver.MAX_RESTART_WORK}" in err

    def test_solve_refuses_before_building_the_problem(self, capsys, tmp_path, monkeypatch):
        # one party of dimension 4096: one start counts (2 + 8192) * 8192
        # entries, and _Problem would allocate an 8192 x 8192 penalty mask
        def no_problem(*args, **kwargs):
            raise AssertionError("built the problem before checking the restart bounds")

        monkeypatch.setattr(solver, "_Problem", no_problem)
        row = ["1+0i"] + ["0+0i"] * 4095
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(
            {"dims": [4096], "constraints": [{"subset": [], "complement_basis": [row]}]}
        ))
        rc, out, err = run(capsys, ["solve", str(path), "--restarts", "1"])
        assert rc == 1
        assert out == ""
        assert f"the supported {solver.MAX_RESTART_ENTRIES}" in err

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


class TestSeededFuzz:
    """Seeded random spec, state and sign-matrix files, valid and broken,
    through ``cli.main`` in process: every call exits 0, 1 or 2, with no
    uncaught exception and no RuntimeWarning; a refusal writes one
    ``error:`` line to stderr, and a success prints the same bytes again."""

    @staticmethod
    def corrupt(rng, text):
        """``text`` unchanged, truncated, or with one character or line replaced."""
        roll = rng.random()
        if roll < 0.6 or not text:
            return text
        k = rng.randrange(len(text))
        if roll < 0.7:
            return text[:k]
        if roll < 0.85:
            return text[:k] + rng.choice("x-+.e:[]{}\n 0") + text[k + 1 :]
        lines = text.splitlines()
        lines[rng.randrange(len(lines))] = rng.choice(["", "0 0 nan 0", "9 9 1 0", "dims: 2", "x"])
        return "\n".join(lines) + "\n"

    def spec_text(self, rng):
        n = rng.randint(1, 3)
        dims = [rng.choice((2, 2, 3, 4)) for _ in range(n)]
        cons = [
            (sorted(rng.sample(range(1, n + 1), rng.randint(0, n))), rng.randint(0, 3))
            for _ in range(rng.randint(0, 4))
        ]
        if rng.random() < 0.3:
            spec = problem_spec(dims, cons)
            return format_spec_text(spec, random_instance(spec, rng.randrange(2**32)))
        if rng.random() < 0.1:
            dims[0] = rng.choice((0, 1, -2, 2**40))
        doc = {"dims": dims, "constraints": [{"subset": s, "codim": k} for s, k in cons]}
        return self.corrupt(rng, json.dumps(doc))

    def state_text(self, rng):
        dims = tuple(rng.choice((2, 2, 3)) for _ in range(rng.randint(1, 3)))
        d = int(np.prod(dims))
        roll = rng.random()
        if roll < 0.3:
            rank = rng.randint(1, d)
            return self.corrupt(rng, write_state(mpstate.random_state(dims, rng.randrange(99), rank)))
        if roll < 0.5:
            vectors = [
                product_vector([np.exp(2j * np.pi * np.arange(k) * rng.random()) for k in dims])
                for _ in range(rng.randint(1, 3))
            ]
            rho = build_separable(vectors, [1 / len(vectors)] * len(vectors))
            return self.corrupt(rng, write_state(rho))
        # entries up to the largest float: a trace-one state scaled up, or
        # Hermitian or arbitrary entries near 1e308
        head = "dims: " + " ".join(map(str, dims)) + "\n"
        if roll < 0.7:
            scale = rng.choice((6e307, 1.5e308, 1.79e308))
            mat = mpstate.random_state(dims, rng.randrange(99)).mat * scale
        else:
            re = np.array([[rng.uniform(-1, 1) * 1.7e308 for _ in range(d)] for _ in range(d)])
            mat = re + 0j
            if roll < 0.85:
                mat = np.triu(mat) + np.triu(mat, 1).T
        body = "".join(
            f"{i} {j} {float(z.real)!r} {float(z.imag)!r}\n" for (i, j), z in np.ndenumerate(mat)
        )
        return head + body

    def matrix_text(self, rng, rows, cols):
        text = "\n".join("".join(rng.choice("+-") for _ in range(cols)) for _ in range(rows))
        return self.corrupt(rng, text + "\n")

    def test_seeded_files_exit_cleanly(self, tmp_path, capsys):
        rng = random.Random(27)
        files = itertools.count()

        def path(text):
            p = tmp_path / f"f{next(files)}"
            p.write_text(text)
            return str(p)

        calls = []
        for _ in range(60):
            spec = path(self.spec_text(rng))
            calls += [["verdict", spec], ["solve", spec, "--restarts", "2"]]
        for _ in range(60):
            calls.append(["edge", path(self.state_text(rng)), "--restarts", "2"])
        for _ in range(60):
            n = rng.randint(1, 7) if rng.random() < 0.8 else rng.choice((25, 129))
            m = path(self.matrix_text(rng, n, n if rng.random() < 0.8 else rng.randint(1, 7)))
            calls += [["invariants", m], ["permanent", m]]
        pairs = []
        for _ in range(60):
            n = rng.randint(1, 7)
            a = signmat.sign_matrix(["".join(rng.choice("+-") for _ in range(n)) for _ in range(n)])
            b = a
            for _ in range(rng.randint(0, 8)):
                kind = rng.choice(signmat.OP_KINDS)
                b = signmat.apply_op(b, signmat.EquivalenceOp(kind, rng.randrange(n), rng.randrange(n)))
            if rng.random() < 0.3:
                b_text = self.matrix_text(rng, n, n)
            else:
                b_text = signmat.format_matrix(b) + "\n"
                pairs.append(len(calls))
            calls.append(["equivalent", path(signmat.format_matrix(a) + "\n"), path(b_text)])
        exits, passed = {}, {}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for k, argv in enumerate(calls):
                rc, out, err = run(capsys, argv)
                assert rc in (0, 1, 2), argv
                exits.setdefault(argv[0], set()).add(rc)
                if rc:
                    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
                    assert err.endswith("\n") and "Traceback" not in err, (argv, err)
                else:
                    passed.setdefault(argv[0], (argv, out))
                if k in pairs and rc == 0:
                    assert out.endswith("equivalent: true\n")
            # the first success of each command, run again, prints the same bytes
            for argv, out in passed.values():
                assert run(capsys, argv) == (0, out, ""), argv
        assert all(0 in codes for codes in exits.values()), exits
        assert {rc for codes in exits.values() for rc in codes} == {0, 1, 2}
