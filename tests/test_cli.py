"""Command line interface: formats, exit codes, determinism, schemas."""

from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from serendipity import assembly, cli, decomp, dofs, spaces
from serendipity.cli import main
from serendipity.cubegeom import Face, full_cube
from serendipity.exactpoly import Polynomial
from serendipity.spaces import dim_S_formula, face_monomials


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestTable1:
    def test_default_grid_contains_all_published_values(self, capsys):
        code, out = run_cli(capsys, "table1")
        assert code == 0
        rows = {
            1: [2, 3, 4, 5, 6, 7, 8, 9],
            2: [4, 8, 12, 17, 23, 30, 38, 47],
            3: [8, 20, 32, 50, 74, 105, 144, 192],
            4: [16, 48, 80, 136, 216, 328, 480, 681],
            5: [32, 112, 192, 352, 592, 952, 1472, 2202],
        }
        lines = [ln.split() for ln in out.strip().splitlines()[2:]]
        assert len(lines) == 5
        for line in lines:
            n = int(line[0])
            assert [int(v) for v in line[1:]] == rows[n]

    def test_json_schema(self, capsys):
        code, out = run_cli(capsys, "table1", "--format", "json")
        data = json.loads(out)
        assert data["command"] == "table1"
        assert data["r_values"] == list(range(1, 9))
        assert data["rows"][2] == {"n": 3, "dims": [8, 20, 32, 50, 74, 105, 144, 192]}

    def test_csv_round_trip(self, capsys):
        code, out = run_cli(capsys, "table1", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n"] + [f"r={r}" for r in range(1, 9)]
        assert rows[5] == ["5", "32", "112", "192", "352", "592", "952", "1472", "2202"]

    def test_subgrid_selection(self, capsys):
        code, out = run_cli(
            capsys, "table1", "--n", "2", "--n-max", "3", "--r", "4", "--r-max", "6",
            "--format", "json",
        )
        data = json.loads(out)
        assert [row["n"] for row in data["rows"]] == [2, 3]
        assert data["rows"][1]["dims"] == [50, 74, 105]

    def test_byte_identical_across_runs(self, capsys):
        _, first = run_cli(capsys, "table1", "--format", "json")
        _, second = run_cli(capsys, "table1", "--format", "json")
        assert first == second


class TestDims:
    def test_single_cell(self, capsys):
        code, out = run_cli(capsys, "dims", "--n", "2", "--r", "3", "--format", "json")
        row = json.loads(out)["rows"][0]
        assert row == {"n": 2, "r": 3, "dim_P": 10, "dim_S": 12, "dim_Q": 16}

    def test_ordering_p_s_q(self, capsys):
        code, out = run_cli(
            capsys, "dims", "--n-max", "3", "--r-max", "5", "--format", "json"
        )
        for row in json.loads(out)["rows"]:
            assert row["dim_P"] <= row["dim_S"] <= row["dim_Q"]


class TestBasis:
    def test_serendipity_card(self, capsys):
        code, out = run_cli(capsys, "basis", "--n", "2", "--r", "2", "--format", "json")
        basis = json.loads(out)["basis"]
        assert basis["family"] == "S"
        assert basis["dim"] == 8
        assert basis["monomials"][0] == [0, 0]
        assert len(basis["monomials"]) == 8

    def test_families(self, capsys):
        for family, dim in (("S", 12), ("Q", 16), ("P", 10)):
            code, out = run_cli(
                capsys, "basis", "--n", "2", "--r", "3",
                "--family", family, "--format", "json",
            )
            assert json.loads(out)["basis"]["dim"] == dim

    def test_csv_has_exponent_columns(self, capsys):
        code, out = run_cli(capsys, "basis", "--n", "3", "--r", "1", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["index", "e1", "e2", "e3", "monomial"]
        assert len(rows) == 1 + 8


class TestDofsCommand:
    def test_layout_counts(self, capsys):
        code, out = run_cli(capsys, "dofs", "--n", "3", "--r", "4", "--format", "json")
        data = json.loads(out)
        layout = data["layout"]
        assert layout["total"] == 50
        subtotals = {row["face_dim"]: row["subtotal"] for row in layout["rows"]}
        assert subtotals == {0: 8, 1: 36, 2: 6, 3: 0}
        assert len(data["functionals"]) == 50

    def test_tensor_family_layout(self, capsys):
        code, out = run_cli(
            capsys, "dofs", "--n", "2", "--r", "3", "--family", "Q", "--format", "json"
        )
        assert json.loads(out)["layout"]["total"] == 16

    def test_text_output_lists_every_functional(self, capsys):
        code, out = run_cli(capsys, "dofs", "--n", "2", "--r", "2")
        assert out.count("dof ") == dim_S_formula(2, 2)

    @pytest.mark.parametrize("r, accepted", [(9, True), (10, False), (12, False)])
    @pytest.mark.parametrize(
        "argv",
        [["dofs"], ["dofs", "--format", "json"], ["export", "--what", "dofs"],
         ["basis"], ["basis", "--format", "csv"], ["basis", "--format", "json"],
         ["export", "--what", "basis"]],
    )
    def test_q_listing_cap_counts_every_functional(self, monkeypatch, argv, r, accepted):
        # parsed and validated only: (r + 1)^6 is exactly 10^6 at r = 9
        monkeypatch.setattr(cli, "dofs_Q", None)
        monkeypatch.setattr(cli, "basis_Q", None)
        args = cli.build_parser().parse_args([*argv, "--family", "Q", "--n", "6", "--r", str(r)])
        assert ((r + 1) ** 6 <= cli.MAX_LISTED) == accepted
        if accepted:
            cli._config_from_args(args.command_parser, args)
        else:
            with pytest.raises(SystemExit):
                cli._config_from_args(args.command_parser, args)

    @pytest.mark.parametrize(
        "argv, r, listing",
        [
            pytest.param(argv, r, listing, id=name if r == 12 else f"{name}-{r}")
            for name, argv, listing in (
                ("dofs", ["dofs"], "DOF listing would build {} functionals"),
                ("export", ["export", "--what", "dofs"], "DOF listing would build {} functionals"),
                ("basis-text", ["basis"], "basis listing would build {} monomials"),
                ("basis-csv", ["basis", "--format", "csv"], "basis listing would build {} monomials"),
                ("basis-json", ["basis", "--format", "json"], "basis listing would build {} monomials"),
                ("export-basis", ["export", "--what", "basis"], "basis listing would build {} monomials"),
            )
            for r in (12, 10)
        ],
    )
    def test_q_listing_above_the_cap_is_usage_error(self, capsys, monkeypatch, argv, r, listing):
        # rejected before any DOF or monomial is built
        monkeypatch.setattr(cli, "dofs_Q", None)
        monkeypatch.setattr(cli, "basis_Q", None)
        with pytest.raises(SystemExit) as err:
            main([*argv, "--family", "Q", "--n", "6", "--r", str(r)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        command = argv[0]
        assert captured.err.startswith(f"usage: serendipity {command} ")
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [
            f"serendipity {command}: error: the Q {listing.format((r + 1) ** 6)}, "
            "more than the cap of 1000000"
        ]

    def test_csv_layout_is_not_capped(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "dofs_Q", None)
        code, out = run_cli(capsys, "dofs", "--n", "6", "--r", "12", "--family", "Q", "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1] == f"6,1,{11**6},{11**6}"


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--n", "1", "--n-max", "2", "--r", "1", "--r-max", "3",
            "--jobs", "1", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["all_ok"] is True
        assert len(data["results"]) == 6 * 6
        assert data["seed"] == 0

    def test_capped_grid_builds_no_basis(self, capsys, monkeypatch, fresh_caches):
        # every check reads the index and the certificates: with the S basis,
        # its enumeration, the P basis and every total-degree list made to
        # raise once the index is built, the capped grid writes what it
        # writes unpatched
        args = ("verify", "--n", "1", "--n-max", "6", "--r", "1", "--r-max", "12",
                "--format", "json")
        code, plain = run_cli(capsys, *args)
        assert code == 0
        fresh_caches()
        for n in range(1, 7):
            for r in range(1, 13):
                face_monomials(n, r)  # the index, read off P_{r-2d} on each face's axes

        def refused(*cell):
            raise AssertionError(f"built a basis at {cell}")

        for module in (spaces, decomp, dofs, assembly, cli):
            for name in ("basis_S", "basis_P", "serendipity_exponents", "monomials_total_degree_at_most"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refused)
        code, patched = run_cli(capsys, *args)
        assert code == 0
        assert patched == plain

    def test_parallel_matches_serial(self, capsys):
        args = ("verify", "--n", "2", "--r", "2", "--format", "json")
        _, serial = run_cli(capsys, *args, "--jobs", "1")
        _, parallel = run_cli(capsys, *args, "--jobs", "2")
        assert serial == parallel

    @pytest.mark.parametrize(
        "jobs, cpus",
        [
            # ids are jobs-cpus-workers, workers being the pool size a cap by
            # cells and CPUs would pick; verify starts no pool at any of them
            pytest.param("5000", 8, id="5000-8-4"),
            pytest.param("5000", 3, id="5000-3-3"),
            pytest.param("2", 8, id="2-8-2"),
            pytest.param("5000", None, id="5000-None-None"),
            pytest.param("0", 1, id="0-1-None"),
        ],
    )
    def test_pool_capped_by_cells_and_cpus(self, capsys, monkeypatch, jobs, cpus):
        # cpus is the affinity set's size, under a host that has 8 CPUs; None
        # is a platform without affinity whose CPU count is unknown
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        if cpus is None:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(
                cli.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
            )
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        args = ("verify", "--n", "2", "--r", "2", "--r-max", "3",
                "--checks", "dimension,inclusion", "--format", "json")
        code, pooled = run_cli(capsys, *args, "--jobs", jobs)
        assert code == 0
        assert started == []
        _, serial = run_cli(capsys, *args, "--jobs", "1")
        assert pooled == serial

    def test_import_loads_no_process_pool(self):
        # --help and every command run in one process
        probe = (
            "import sys, serendipity.cli; "
            "print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n"

    def test_import_loads_no_start_up_weight(self):
        # python -S preloads nothing, so each module seen here is the package's
        probe = (
            "import sys, serendipity.cli; print(sorted(m for m in sys.modules if m in "
            "('dataclasses', 'inspect', 'typing', 'csv', 'traceback')))"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        out = subprocess.run(
            [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True,
            check=True,
        ).stdout
        assert out == "[]\n"

    def test_no_command_loads_a_process_pool(self):
        # --jobs is accepted and selects nothing: every check runs in this process
        runs = [
            ["table1"], ["dims"], ["basis", "--n", "2", "--r", "2"],
            ["dofs", "--n", "2", "--r", "2"], ["verify", "--jobs", "0"],
            ["verify", "--n-max", "2", "--r-max", "3", "--jobs", "2"],
            ["decompose", "--n", "2", "--r", "2"], ["continuity", "--n", "2", "--r", "2"],
            ["export", "--what", "evalgrid", "--n", "2", "--r", "2", "--points", "3"],
        ]
        probe = (
            "import contextlib, io, sys; from serendipity.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'multiprocessing')))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n"

    def test_negative_jobs_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--jobs", "-1"])
        assert err.value.code == 2
        assert "jobs must be >= 0" in capsys.readouterr().err

    def test_check_subset(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--n", "2", "--r", "4", "--checks",
            "dimension,facet-kernel", "--format", "json",
        )
        data = json.loads(out)
        assert {res["check"] for res in data["results"]} == {
            "dimension", "facet-kernel",
        }
        assert code == 0

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--n", "2", "--r", "2", "--checks", "bogus"])
        assert err.value.code == 2


class TestDecompose:
    def test_monomial_example(self, capsys):
        code, out = run_cli(
            capsys, "decompose", "--n", "2", "--r", "3", "--alpha", "1,3"
        )
        assert code == 0
        data = json.loads(out)
        assert data["sum_matches"] is True
        assert data["methods_agree"] is True
        dims = sorted(
            len(comp["face"]["fixed"]) for comp in data["components"]
        )
        assert dims == [1, 1, 2, 2, 2, 2]  # two edges, four vertices

    def test_reconstruction_from_payload(self, capsys):
        code, out = run_cli(
            capsys, "decompose", "--n", "2", "--r", "2", "--alpha", "2,1"
        )
        data = json.loads(out)
        total = Polynomial.zero(2)
        for comp in data["components"]:
            total = total + Polynomial.from_json_obj(2, comp["component"])
        assert total == Polynomial.from_monomial((2, 1))

    def test_polynomial_from_file(self, capsys, tmp_path):
        poly = 3 * Polynomial.from_monomial((1, 2)) - Polynomial.one(2)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(poly.to_json_obj()))
        code, out = run_cli(
            capsys, "decompose", "--n", "2", "--r", "2", "--poly", str(path)
        )
        assert code == 0
        assert json.loads(out)["sum_matches"] is True

    def test_single_method_flag(self, capsys):
        code, out = run_cli(
            capsys, "decompose", "--n", "1", "--r", "2", "--alpha", "2",
            "--method", "construct",
        )
        data = json.loads(out)
        assert data["method"] == "construct"
        assert data["sum_matches"] is True

    def test_alpha_must_match_n(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["decompose", "--n", "2", "--r", "2", "--alpha", "1,2,3"])
        assert err.value.code == 2


class TestContinuityCommand:
    def test_pass_and_seed_recorded(self, capsys):
        code, out = run_cli(
            capsys, "continuity", "--n", "2", "--r", "2", "--trials", "5",
            "--seed", "17", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["seed"] == 17
        assert data["ok"] is True
        assert data["axis"] == 1

    def test_axis_flag_is_one_based(self, capsys):
        code, out = run_cli(
            capsys, "continuity", "--n", "3", "--r", "2", "--axis", "3",
            "--trials", "3", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["axis"] == 3

    def test_invalid_axis_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["continuity", "--n", "2", "--r", "2", "--axis", "3"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["continuity", "verify"])
    def test_trials_above_the_cap_is_usage_error(self, capsys, monkeypatch, command):
        # rejected before any check runs, so nothing is allocated per trial
        monkeypatch.setattr(cli, "check_continuity", None)
        with pytest.raises(SystemExit) as err:
            main([command, "--n", "2", "--r", "2", "--trials", str(cli.MAX_TRIALS + 1)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [f"serendipity {command}: error: trials must be <= 1000000"]
        assert captured.err.startswith(f"usage: serendipity {command} [-h]")

    def test_trials_at_the_cap_is_accepted(self, capsys, monkeypatch):
        # the check sees the full count; it runs one trial, not 10^6
        seen = []

        def recording(n, r, axis, trials, seed):
            seen.append(trials)
            return assembly.check_continuity(n, r, axis, 1, seed)

        monkeypatch.setattr(cli, "check_continuity", recording)
        code, _ = run_cli(capsys, "continuity", "--n", "2", "--r", "2", "--trials", str(cli.MAX_TRIALS))
        assert code == 0 and seen == [cli.MAX_TRIALS]


class TestExport:
    def test_nodal_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "nodal.json"
        code, _ = run_cli(
            capsys, "export", "--what", "nodal", "--n", "2", "--r", "1",
            "--out", str(out_path),
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert len(data["polynomials"]) == 4
        assert len(data["functionals"]) == 4
        phi0 = Polynomial.from_json_obj(2, data["polynomials"][0])
        assert phi0.evaluate((-1, -1)) == 1

    def test_evalgrid_values_match_exact_evaluation(self, capsys):
        code, out = run_cli(
            capsys, "export", "--what", "evalgrid", "--n", "1", "--r", "3",
            "--points", "9",
        )
        data = json.loads(out)
        assert len(data["grid"]) == 9
        from serendipity.dofs import nodal_basis

        phis = nodal_basis(1, 3)
        for phi, samples in zip(phis, data["values"]):
            for x, sample in zip(data["grid"], samples):
                exact = phi.evaluate((Fraction(x),))
                assert abs(sample - float(exact)) <= 1e-12 * max(1.0, abs(float(exact)))

    def test_evalgrid_above_the_value_cap_is_usage_error(self, capsys, monkeypatch):
        # rejected before any grid or basis is built
        monkeypatch.setattr(cli, "nodal_functions", None)
        with pytest.raises(SystemExit) as err:
            main(["export", "--what", "evalgrid", "--n", "2", "--r", "2", "--points", "100000000"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [
            "serendipity export: error: evalgrid would write points^n * dim S = "
            f"{10**16 * dim_S_formula(2, 2)} values, more than the cap of 1000000"
        ]

    @pytest.mark.parametrize("points, accepted", [(500_000, True), (500_001, False)])
    def test_evalgrid_value_cap_counts_every_value(self, points, accepted):
        # parsed and validated only: at (1, 1) the cap is 500,000 points of 2 functions
        args = cli.build_parser().parse_args(
            ["export", "--what", "evalgrid", "--n", "1", "--r", "1", "--points", str(points)]
        )
        assert (points * dim_S_formula(1, 1) <= cli.MAX_EVALGRID_VALUES) == accepted
        if accepted:
            cli._config_from_args(args.command_parser, args)
        else:
            with pytest.raises(SystemExit):
                cli._config_from_args(args.command_parser, args)

    def test_decomposition_export(self, capsys, tmp_path):
        out_path = tmp_path / "dec.json"
        code, _ = run_cli(
            capsys, "export", "--what", "decomposition", "--n", "2", "--r", "2",
            "--alpha", "2,0", "--out", str(out_path),
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["what"] == "decomposition"
        assert data["sum_matches"] is True

    def test_basis_export_is_deterministic(self, capsys):
        args = ("export", "--what", "basis", "--n", "2", "--r", "4")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("what, family", [("nodal", "Q"), ("dofs", "P")])
    def test_family_checked_against_what(self, capsys, what, family):
        code = main(["export", "--what", what, "--family", family, "--n", "2", "--r", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"--what {what}" in captured.err


class TestUsageErrors:
    def test_caps_enforced(self):
        for argv in (
            ["table1", "--n", "7"],
            ["table1", "--r", "13"],
            ["basis", "--n", "0", "--r", "2"],
            ["dims", "--r", "-1"],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2

    def test_commands_requiring_cell_arguments(self):
        for command in ("basis", "dofs", "decompose", "continuity", "export"):
            with pytest.raises(SystemExit) as err:
                main([command])
            assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["basis", "--n", "1", "--n-max", "2", "--r", "2"],
            ["dofs", "--n", "2", "--r", "2", "--r-max", "3"],
            ["decompose", "--n", "2", "--r", "1", "--r-max", "2"],
            ["continuity", "--n", "1", "--n-max", "2", "--r", "2"],
            ["export", "--n", "1", "--n-max", "2", "--r", "1", "--r-max", "3"],
        ],
    )
    def test_single_cell_commands_reject_ranges(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "range" in errors[0] and argv[0] in errors[0]

    def test_one_value_range_is_a_single_cell(self, capsys):
        code, out = run_cli(capsys, "basis", "--n", "2", "--n-max", "2", "--r", "2")
        assert code == 0
        assert out == run_cli(capsys, "basis", "--n", "2", "--r", "2")[1]

    def test_missing_command(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["export", "--what", "basis", "--n", "1", "--r", "1"],
            ["continuity", "--n", "1", "--r", "1"],
            ["decompose", "--n", "1", "--r", "1", "--alpha", "1"],
        ],
    )
    def test_format_limited_to_what_the_command_writes(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--format", "csv"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'csv'" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--n", "2", "--r", "2"],
            ["export", "--what", "decomposition", "--n", "2", "--r", "2"],
        ],
    )
    def test_alpha_and_poly_exclusive(self, capsys, tmp_path, argv):
        path = tmp_path / "input.json"
        path.write_text(json.dumps([{"exponents": [1, 0], "coeff": "1"}]))
        with pytest.raises(SystemExit) as err:
            main(argv + ["--poly", str(path), "--alpha", "2,0"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [
            f"serendipity {argv[0]}: error: argument --alpha: not allowed with argument --poly"
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table1", "--n", "7"], "n=7 outside the supported range 1..6"),
            (["dims", "--r", "3", "--r-max", "2"], "empty r range"),
            (["basis", "--n", "2"], "basis requires --n and --r"),
            (["verify", "--jobs", "-1"], "jobs must be >= 0"),
            (["verify", "--checks", ","], "no checks selected"),
            (["continuity", "--n", "2", "--r", "2", "--axis", "3"], "axis must be in 1..2"),
            (["continuity", "--n", "2", "--r", "2", "--trials", "0"], "trials must be >= 1"),
            (["decompose", "--n", "2", "--r", "2", "--alpha", "1,x"],
             "cannot parse exponents from '1,x'"),
            (["export", "--what", "evalgrid", "--n", "2", "--r", "2", "--points", "1"],
             "evalgrid needs at least 2 points per axis"),
        ],
    )
    def test_checks_after_parsing_print_the_subcommand_usage(self, capsys, argv, message):
        # as argparse's own errors in a subcommand do
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: serendipity {argv[0]} [-h]")
        assert captured.err.endswith(f"\nserendipity {argv[0]}: error: {message}\n")


class TestHelp:
    """--help says what each command accepts: one cell or a grid, and a
    seed that drives trials only where there are trials."""

    @staticmethod
    def help_text(capsys, command: str) -> str:
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        return " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("command", ["basis", "dofs", "decompose", "continuity", "export"])
    def test_single_cell_commands_ask_for_one_value(self, capsys, command):
        text = self.help_text(capsys, command)
        assert "range start" not in text and "range end" not in text
        for v in ("n", "r"):
            assert f"--{v} {v.upper()} the one {v} this command takes (required)" in text
            assert f"accepted only if equal to --{v}: one {v}, not a range" in text

    @pytest.mark.parametrize("command", ["table1", "dims", "verify"])
    def test_grid_commands_take_ranges(self, capsys, command):
        text = self.help_text(capsys, command)
        assert "the one n" not in text
        for v in ("n", "r"):
            assert f"single {v}, or range start with --{v}-max" in text
            assert f"range end for {v} (range starts at --{v} or 1)" in text

    @pytest.mark.parametrize(
        "command", ["table1", "dims", "basis", "dofs", "verify", "decompose", "continuity", "export"]
    )
    def test_seed_drives_trials_only_where_trials_run(self, capsys, command):
        text = self.help_text(capsys, command)
        with_trials = command in ("verify", "continuity")
        assert "seed recorded in reports" in text
        assert "random" not in text
        assert ("; trials draw nothing" in text) == with_trials
        assert (
            "--trials TRIALS number of trials reported, certified not sampled" in text
        ) == with_trials

    @pytest.mark.parametrize("command", ["dofs", "export"])
    def test_q_listing_cap_is_stated(self, capsys, command):
        assert "(r+1)^n functionals, at most 10^6" in self.help_text(capsys, command)


class TestBadInput:
    """Unusable input exits 2 with one line on stderr, never a traceback."""

    def assert_rejected(self, capsys, *argv) -> str:
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        return captured.err

    def decompose_file(self, capsys, tmp_path, text: str) -> str:
        path = tmp_path / "input.json"
        path.write_text(text)
        return self.assert_rejected(
            capsys, "decompose", "--n", "2", "--r", "2", "--poly", str(path)
        )

    def test_malformed_json(self, capsys, tmp_path):
        assert "JSONDecodeError" in self.decompose_file(capsys, tmp_path, "[{")

    def test_deeply_nested_json(self, capsys, tmp_path):
        # json.loads gives up with RecursionError: bad input, not a failed property
        err = self.decompose_file(capsys, tmp_path, "[" * 200_000)
        assert err.startswith("serendipity decompose: error: bad polynomial in ")
        assert "RecursionError" in err

    def test_exponent_notation_is_rejected_at_once(self, tmp_path):
        # Fraction would build 10^999999999 and never finish
        path = tmp_path / "input.json"
        path.write_text(json.dumps([{"exponents": [1, 0], "coeff": "1e999999999"}]))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run(
            [sys.executable, "-m", "serendipity.cli", "decompose", "--n", "2", "--r", "2",
             "--poly", str(path)],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr.count("\n") == 1
        assert "bad polynomial" in run.stderr and "1e999999999" in run.stderr

    def test_wrong_arity(self, capsys, tmp_path):
        text = json.dumps([{"exponents": [1, 0, 0], "coeff": "1"}])
        assert "length 2" in self.decompose_file(capsys, tmp_path, text)

    def test_polynomial_outside_space(self, capsys, tmp_path):
        text = json.dumps([{"exponents": [3, 0], "coeff": "1"}])
        assert "superlinear degree 3 > r = 2" in self.decompose_file(capsys, tmp_path, text)

    def test_zero_denominator(self, capsys, tmp_path):
        text = json.dumps([{"exponents": [1, 0], "coeff": "1/0"}])
        assert "ZeroDivisionError" in self.decompose_file(capsys, tmp_path, text)

    def test_missing_poly_file(self, capsys, tmp_path):
        err = self.assert_rejected(
            capsys, "decompose", "--n", "2", "--r", "2",
            "--poly", str(tmp_path / "absent.json"),
        )
        assert "cannot read --poly" in err

    def test_out_into_missing_directory(self, capsys, tmp_path):
        err = self.assert_rejected(
            capsys, "table1", "--out", str(tmp_path / "absent" / "table.txt")
        )
        assert "cannot write --out" in err

    @pytest.mark.parametrize("coeff", [0.1, 1.0, True])
    def test_float_or_bool_coefficient(self, capsys, tmp_path, coeff):
        text = json.dumps([{"exponents": [1, 0], "coeff": coeff}])
        err = self.decompose_file(capsys, tmp_path, text)
        assert err.startswith("serendipity decompose: error: bad polynomial in ")


class TestAtomicOut:
    """--out is replaced whole or not at all."""

    def test_replaces_existing_target(self, capsys, tmp_path):
        target = tmp_path / "table.txt"
        target.write_text("old")
        assert main(["table1", "--out", str(target)]) == 0
        main(["table1"])
        assert target.read_text() == capsys.readouterr().out
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_replace_keeps_target(self, capsys, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

        target = tmp_path / "table.txt"
        target.write_text("old")
        monkeypatch.setattr(cli.os, "replace", refuse)
        assert main(["table1", "--out", str(target)]) == 2
        assert "cannot write --out" in capsys.readouterr().err
        assert target.read_text() == "old"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_write_leaves_nothing(self, capsys, tmp_path, monkeypatch):
        real_fdopen = os.fdopen

        class DiskFull:
            """Writes half of the text, then fails as a full disk does."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli.os, "fdopen", lambda fd, mode: DiskFull(real_fdopen(fd, mode)))
        target = tmp_path / "nodal.json"
        code = main(["export", "--what", "nodal", "--n", "1", "--r", "2", "--out", str(target)])
        assert code == 2
        assert "No space left on device" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_symlinked_target_is_written_through_the_link(self, capsys, tmp_path):
        real = tmp_path / "real"
        real.mkdir()
        (real / "file.json").write_text("old")
        link = tmp_path / "link.json"
        link.symlink_to(os.path.join("real", "file.json"))
        argv = ["table1", "--n", "1", "--r", "1", "--format", "json"]
        assert main(argv + ["--out", str(link)]) == 0
        main(argv)
        assert link.is_symlink()
        assert (real / "file.json").read_text() == capsys.readouterr().out
        assert list(real.iterdir()) == [real / "file.json"]

    def test_existing_target_keeps_its_mode(self, tmp_path):
        target = tmp_path / "table.txt"
        target.write_text("old")
        target.chmod(0o600)
        assert main(["table1", "--out", str(target)]) == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o600

    def test_symlink_loop_is_one_line_and_exit_2(self, capsys, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.symlink_to(second)
        second.symlink_to(first)
        assert main(["table1", "--out", str(first)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot write --out" in err
        assert first.is_symlink() and second.is_symlink()

    def test_writes_a_fifo_in_place(self, capsys, tmp_path):
        # a replace would swap the FIFO for a regular file no reader sees
        fifo = tmp_path / "table.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["table1", "--out", str(fifo)]) == 0
            got = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert list(tmp_path.iterdir()) == [fifo]
        main(["table1"])
        assert got == capsys.readouterr().out.encode()


class TestStdoutPipe:
    def test_reader_closing_the_pipe_is_one_line_and_exit_2(self):
        # the (3, 8) nodal export is megabytes, far more than a pipe holds
        argv = [sys.executable, "-m", "serendipity.cli", "export", "--what", "nodal", "--n", "3", "--r", "8"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b'{\n  "comma'
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert code == 2
        assert err == b"serendipity export: error: cannot write to stdout: Broken pipe\n"


@st.composite
def polynomials(draw) -> Polynomial:
    """Up to eight terms in 1 to 6 variables, the all-zero exponent among the
    candidates, with numerators of either sign up to 10^40 and denominators
    up to 10^30."""
    n = draw(st.integers(1, 6))
    exponents = st.tuples(*[st.integers(0, 12)] * n) | st.just((0,) * n)
    coefficients = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**30))
    return Polynomial(n, draw(st.dictionaries(exponents, coefficients, max_size=8)))


class TestTermWriter:
    """The term-list text is what the JSON encoder writes for the dict form."""

    @given(polynomials(), st.sampled_from([1, 2, 3]))
    @example(Polynomial(3, {}), 2)
    @example(Polynomial(1, {(0,): Fraction(-(10**50), 7)}), 3)
    def test_matches_the_json_encoder_at_every_payload_depth(self, p, level):
        nested = p.to_json_obj()
        for _ in range(level):
            nested = [nested]
        expected = "".join(json.JSONEncoder(indent=2, sort_keys=True).iterencode(nested))
        head = "".join("[\n" + "  " * (k + 1) for k in range(level))
        tail = "".join("\n" + "  " * k + "]" for k in reversed(range(level)))
        write = cli._term_writer(level)
        assert head + write(p) + tail == expected
        # again, with every exponent tuple's text cached
        assert head + write(p) + tail == expected


class TestFloatRow:
    """An evalgrid row is written as ``json.dumps(row, indent=2)`` indented
    to depth 2, non-finite spellings and signed zeros included."""

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    @example([0.0, -0.0])
    @example([5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308])
    @example([float("inf"), float("-inf"), float("nan"), -float("nan"), 1e16, 1.5e-7])
    @example([])
    def test_matches_the_json_encoder_at_depth_2(self, row):
        expected = json.dumps(row, indent=2).replace("\n", "\n    ")
        assert cli._float_row(row) == expected


class TestJsonList:
    """A list of item texts is written as ``json.dumps(value, indent=2)``
    indented to its depth."""

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "value",
        [[], [7], [0, -3, 10**30], [1.5, float("nan"), float("inf"), float("-inf"), -0.0]],
    )
    def test_matches_json_dumps_at_every_depth(self, value, level):
        expected = json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)
        assert cli._json_list([json.dumps(v) for v in value], level) == expected


class TestVerifyFailures:
    """A failing cell names its cause; the other cells still report."""

    def test_raising_check_becomes_fail_row(self, capsys, monkeypatch):
        def boom(n, r):
            raise RuntimeError(f"no direct sum at ({n}, {r})")

        monkeypatch.setattr(cli, "verify_direct_sum", boom)
        code = main(["verify", "--n", "1", "--n-max", "2", "--r", "1", "--r-max", "2",
                     "--checks", "dimension,direct-sum", "--jobs", "1", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        rows = json.loads(captured.out)["results"]
        assert len(rows) == 8
        for row in rows:
            if row["check"] == "direct-sum":
                assert not row["ok"]
                assert row["detail"] == (
                    f"raised RuntimeError: no direct sum at ({row['n']}, {row['r']})"
                )
            else:
                assert row["ok"]
        assert "Traceback" in captured.err

    def test_certificate_failure_names_the_pair_and_dense_rank(
        self, capsys, monkeypatch, fresh_caches
    ):
        vertex = Face(2, ((0, -1), (1, -1)))
        real = decomp._bubble_factors

        def flipped(face):
            factors = real(face)
            if face != vertex:
                return factors
            c0, c1, c2 = factors[0]
            return ((c0, -c1, c2),) + factors[1:]

        monkeypatch.setattr(decomp, "_bubble_factors", flipped)
        code = main(["verify", "--n", "2", "--r", "3", "--checks",
                     "unisolvence,direct-sum,facet-kernel", "--jobs", "1", "--format", "json"])
        assert code == 1
        rows = {row["check"]: row for row in json.loads(capsys.readouterr().out)["results"]}
        culprit = (
            "bubble: along x1 the bubble of face(x1=-1, x2=-1) has the factor (1, 1, 0), "
            "not (1, -1, 0) (coefficients of 1, t, t^2)"
        )
        for row in rows.values():
            assert not row["ok"]
            assert row["detail"].endswith(f"; pairing certificate failed at {culprit}")
        # the certificate is one-sided, so no rank is reported; the dense
        # ranks, 12 for the DOFs and 11 for the components, are checked on
        # the test oracle in test_decomp
        assert rows["unisolvence"]["detail"].startswith("rank None of 12, facet kernel ok=False")
        assert rows["direct-sum"]["detail"].startswith("12 components, rank None of 12;")
        assert rows["facet-kernel"]["detail"].startswith("kernel dim None, expected 0")


def break_index_symmetry(monkeypatch) -> Face:
    """Swap the top weight x_2^2 of the edge x1=+1 at (2, 4) for x_1: the
    counts still hold, but the weight leaves the edge's free axes, so the
    index part of the certificate fails on that edge and the components
    become dependent.  Returns that edge."""
    from serendipity.spaces import face_monomials

    edge = Face(2, ((0, 1),))
    index = dict(face_monomials(2, 4))
    index[edge] = tuple((1, 0) if q == (0, 2) else q for q in index[edge])
    monkeypatch.setattr(decomp, "face_monomials", lambda n, r: index)
    return edge


def flip_vertex_bubble(monkeypatch) -> Face:
    """Use 1 - x_1 for the bubble factor of the vertex (+1, +1) along x_1."""
    vertex = Face(2, ((0, 1), (1, 1)))
    real = decomp._bubble_factors

    def flipped(face):
        factors = real(face)
        if face != vertex:
            return factors
        c0, c1, c2 = factors[0]
        return ((c0, -c1, c2),) + factors[1:]

    monkeypatch.setattr(decomp, "_bubble_factors", flipped)
    return vertex


SYMMETRY_MUTATIONS = {"index": break_index_symmetry, "bubble": flip_vertex_bubble}
PAIRING_INVERSE_COMMANDS = [
    ["export", "--what", "nodal"],
    ["export", "--what", "evalgrid", "--points", "3"],
    ["export", "--what", "decomposition", "--method", "solve"],
    ["decompose", "--method", "both"],
    ["continuity", "--axis", "2"],
]


class TestUncertifiedPairingInverse:
    """A face whose index or bubble breaks the route to X is named: a
    FAIL row in verify, one stderr line and exit 1 elsewhere."""

    @pytest.mark.parametrize("mutation", sorted(SYMMETRY_MUTATIONS))
    def test_verify_fail_row_names_the_face(self, capfd, monkeypatch, fresh_caches, mutation):
        face = SYMMETRY_MUTATIONS[mutation](monkeypatch)
        code = main(["verify", "--n", "2", "--r", "4", "--jobs", "1", "--format", "json"])
        captured = capfd.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        rows = {row["check"]: row for row in json.loads(captured.out)["results"]}
        continuity = rows["continuity"]
        assert not continuity["ok"]
        assert continuity["detail"].startswith(
            "raised SingularMatrixError: pairing at n=2, r=4 is not certified: "
        )
        assert str(face) in continuity["detail"]
        # both break the certificate, which names the same face
        for check in ("unisolvence", "direct-sum", "facet-kernel"):
            assert not rows[check]["ok"]
            assert f"; pairing certificate failed at {mutation}: " in rows[check]["detail"]
            assert str(face) in rows[check]["detail"]
        if mutation == "index":
            assert rows["direct-sum"]["detail"].startswith("17 components, rank None of 17;")

    @pytest.mark.parametrize("argv", PAIRING_INVERSE_COMMANDS, ids=lambda a: " ".join(a[:3]))
    @pytest.mark.parametrize("mutation", sorted(SYMMETRY_MUTATIONS))
    def test_command_exits_1_naming_the_face(
        self, capfd, monkeypatch, fresh_caches, mutation, argv
    ):
        face = SYMMETRY_MUTATIONS[mutation](monkeypatch)
        code = main([*argv, "--n", "2", "--r", "4"])
        captured = capfd.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(
            f"serendipity {argv[0]}: failed: pairing at n=2, r=4 is not certified: "
        )
        assert str(face) in captured.err
        assert captured.err.count("\n") == 1


class TestUncertifiedTraceCertificate:
    """A flipped bubble in the facet element of the 3-cube, at the
    square's vertex (+1, +1), fails part (iii) of the trace certificate:
    continuity names it, in a FAIL row of verify or one stderr line and
    exit 1, while the 3-cube's own pairing still holds."""

    culprit = (
        "continuity at n=3, r=4 is not certified: facet element: the pairing at "
        "n=2, r=4 is not certified: bubble: along x1 the bubble of face(x1=+1, x2=+1) "
        "has the factor (1, -1, 0), not (1, 1, 0) (coefficients of 1, t, t^2)"
    )

    def test_certificate_names_part_iii(self, monkeypatch, fresh_caches):
        flip_vertex_bubble(monkeypatch)
        assert assembly.trace_certificate(3, 4) == self.culprit.split(" is not certified: ", 1)[1]
        for axis in range(3):
            with pytest.raises(dofs.SingularMatrixError) as err:
                assembly.check_continuity(3, 4, axis=axis)
            assert str(err.value) == self.culprit

    def test_verify_fail_row_names_the_part_and_face(self, capfd, monkeypatch, fresh_caches):
        flip_vertex_bubble(monkeypatch)
        code = main(["verify", "--n", "3", "--r", "4", "--jobs", "1", "--format", "json"])
        captured = capfd.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        rows = {row["check"]: row for row in json.loads(captured.out)["results"]}
        assert [check for check, row in rows.items() if not row["ok"]] == ["continuity"]
        assert rows["continuity"]["detail"] == f"raised SingularMatrixError: {self.culprit}"

    @pytest.mark.parametrize("axis", ["1", "3"])
    def test_continuity_exits_1_naming_the_part_and_face(
        self, capfd, monkeypatch, fresh_caches, axis
    ):
        flip_vertex_bubble(monkeypatch)
        code = main(["continuity", "--n", "3", "--r", "4", "--axis", axis])
        captured = capfd.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"serendipity continuity: failed: {self.culprit}\n"


class TestCertifiedChecksSkipDenseRank:
    @pytest.mark.parametrize("n, r", [(2, 6), (3, 8)])
    def test_pass_with_rank_disabled(self, capsys, monkeypatch, fresh_caches, n, r):
        # both cells have facet-kernel candidates, whose independence
        # comes from the pairing certificate, not from a rank
        def no_rank(self):
            raise AssertionError("dense rank called")

        monkeypatch.setattr(dofs.RationalMatrix, "rank", no_rank)
        code, out = run_cli(capsys, "verify", "--n", str(n), "--r", str(r), "--checks",
                            "unisolvence,direct-sum,facet-kernel", "--jobs", "1",
                            "--format", "json")
        assert code == 0
        assert all(row["ok"] for row in json.loads(out)["results"])
        assert full_cube(n) in face_monomials(n, r)


class TestCertifiedPathEliminatesNothing:
    def test_no_bareiss_pass_and_no_dense_solve(self, capsys, monkeypatch, fresh_caches):
        # with the pairing certified, the checks, the solve decomposition,
        # interpolation and the nodal export solve by per-axis passes in
        # the 1-D basis: no elimination runs, cold caches included
        calls = []

        def spy(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(dofs, "_bareiss", spy("_bareiss", dofs._bareiss))
        monkeypatch.setattr(dofs.RationalMatrix, "solve", spy("solve", dofs.RationalMatrix.solve))
        for argv in (
            ["verify", "--n-max", "4", "--r-max", "6", "--jobs", "1"],
            ["decompose", "--n", "4", "--r", "8", "--method", "solve"],
            ["export", "--what", "nodal", "--n", "3", "--r", "6"],
        ):
            assert run_cli(capsys, *argv)[0] == 0, argv
        assembly.interpolate(list(range(dim_S_formula(5, 6))), 5, 6)
        assert calls == []


class TestDofRecordsOnlyList:
    def test_no_dof_functional_outside_the_listings(self, capsys, monkeypatch, fresh_caches):
        # the DOF order is the index: the checks, interpolation, the nodal
        # basis and both decompositions never build a DofFunctional record
        def refuse(self, *args):
            raise AssertionError("a DofFunctional was built")

        monkeypatch.setattr(dofs.DofFunctional, "__init__", refuse)
        code, out = run_cli(capsys, "verify", "--n-max", "4", "--r-max", "8", "--jobs", "1",
                            "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        assert {row["check"] for row in results} == set(cli.VERIFY_CHECKS)
        assert all(row["ok"] for row in results)
        assembly.interpolate([Fraction(k, 3) for k in range(dim_S_formula(4, 6))], 4, 6)
        assert len(list(dofs.nodal_functions(3, 5))) == dim_S_formula(3, 5)
        assert len(dofs.nodal_basis(2, 6)) == dim_S_formula(2, 6)
        member = Polynomial(3, {(2, 1, 0): Fraction(1, 2), (1, 1, 1): 3, (0, 0, 4): -1})
        assert decomp.decompose(member, 6, "solve") == decomp.decompose(member, 6, "construct")
        # the listings do build them
        with pytest.raises(AssertionError, match="DofFunctional was built"):
            dofs.dofs_S(2, 2)


class TestGoldenOutput:
    """SHA-256 of stdout, pinned so that rewrites keep every byte."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["continuity", "--n", "3", "--r", "4", "--format", "json"],
                "4f8c7f5dff4165bb88482f87c1bbd61503c3deeb1a6795b1dede1aaa3a6a86c3",
            ),
            (
                ["verify", "--jobs", "1", "--format", "json"],
                "34aaf6563fb3abb3509d88c9559ac62bf24787a1f10d61ba5da0eb72fdf6b486",
            ),
            (
                ["decompose", "--n", "2", "--r", "3"],
                "cc661f5375d5e408a98aa1dace134405292fde3049811bf289918e023a6f60bf",
            ),
            (
                ["dofs", "--n", "3", "--r", "4"],
                "3e0e7c36a2065c62ef054a22d289bdee991eb92e615f3c0874b61cf72a466157",
            ),
            (
                ["export", "--what", "dofs", "--n", "2", "--r", "3", "--family", "Q"],
                "c6ba6341da2b05c1b2cde6331906e341f68703dcc95e1e2e01466aba96eaca1a",
            ),
            (
                ["export", "--what", "decomposition", "--n", "3", "--r", "4",
                 "--method", "construct"],
                "54a79884ee849187847198cf28bd5b2ef79c91ffd0d87a4b9ae886a6f5facf98",
            ),
            (
                ["export", "--what", "nodal", "--n", "2", "--r", "3"],
                "bb076c359965c21eac1e72b6d587f2a842d7ec5b832f3ee6a2b06f9726c1e311",
            ),
            (
                ["verify", "--n", "4", "--r", "6", "--checks",
                 "unisolvence,direct-sum,facet-kernel", "--jobs", "1", "--format", "json"],
                "3806cd7251d28c47e31fcdc7e046f0e7779ccdb0d5548c13b3255587cf4e124c",
            ),
            (
                ["export", "--what", "nodal", "--n", "3", "--r", "8"],
                "06f0d8fa7ec6a7d8192925855e733ac568b1ba8cdbf95f34d9a1069f6bad012c",
            ),
            (
                ["export", "--what", "decomposition", "--n", "4", "--r", "6",
                 "--method", "solve"],
                "c577b997dce1639d747a957cc5c7267db9f40beb476305edccda65e15b8b10a8",
            ),
            (
                ["export", "--what", "evalgrid", "--n", "3", "--r", "4", "--points", "5"],
                "c5d5bd4733f002d2d1bc1a23865608cba274b4d85a36dcf967a9929936d09359",
            ),
            (
                ["basis", "--n", "3", "--r", "4"],
                "65d5b2d09d412fd6511e02abecda9f1c3648d13b74b4222e8f4e0e9d15894587",
            ),
            (
                ["basis", "--n", "2", "--r", "3", "--family", "Q", "--format", "csv"],
                "7e4e28e6c35e224b58d3c5fc1674b8f76dfd70b2d3b5ebdf8853ec8963947e91",
            ),
            (
                ["export", "--what", "basis", "--n", "3", "--r", "4", "--family", "P"],
                "16d97624dceb15fef6dd773b3757f96317bb318687aae3e598f44518ea165350",
            ),
            (
                ["basis", "--n", "3", "--r", "4", "--format", "json"],
                "85a37f8e2be50111077dc2d849b7fcbb88efe3d425cfd020f8efbc3dae90d82d",
            ),
            (
                ["dofs", "--n", "3", "--r", "4", "--format", "json"],
                "a9b793412a1906d7d85e866960f5e31d4b1b7b637bb12dcb9c261d8631762d31",
            ),
            (
                ["export", "--what", "basis", "--n", "3", "--r", "4", "--family", "S"],
                "e888b0810d5f98d4d70333a93c8043ef6eddf37193e4c05368f20b7105e24479",
            ),
            (
                ["export", "--what", "dofs", "--n", "3", "--r", "4", "--family", "S"],
                "1ebc2876ae9686b2f093bed6bad75da3c6631002ffe636a51bd354d1fe113faa",
            ),
            (
                ["decompose", "--n", "3", "--r", "4", "--method", "solve", "--format", "json"],
                "d0766e4eedb8398d5d3d947e4a6a5424724e56bf3234fb88fb5fa6061b8121c2",
            ),
            (
                ["table1", "--format", "json"],
                "f740c2b538b5a38319a8756693311f9b4b9c2fa6e5f87b2ae7cdca214af0509d",
            ),
            (
                ["dims", "--format", "csv"],
                "27e24ee12f963c1103cf2bebc4fafe011197a55ca342ecd6a917fd52dacf6f9e",
            ),
            (
                ["export", "--what", "nodal", "--n", "4", "--r", "6"],
                "be8ecb6ad36cf692b3c0fe379e2f7330a65e097f8b9552a90a54e85f37d8018e",
            ),
            (
                ["export", "--what", "decomposition", "--n", "5", "--r", "6",
                 "--method", "solve", "--alpha", "2,1,0,1,2"],
                "22b01e28b08428c3aab732246280173153caad5eaa4d34f5e776c9b9528170d6",
            ),
            (
                ["dofs", "--family", "Q", "--n", "3", "--r", "4", "--format", "json"],
                "1b7a8e269d28749b5578ec8003cb6269de1ff39dd8bba911cc7356eb198934fb",
            ),
            (
                ["decompose", "--n", "3", "--r", "6", "--format", "json", "--method", "both"],
                "8d77f14ea2911865855acc4c4e61ecb9e5d882d7dbef7440e8e70a18f51e63ef",
            ),
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
