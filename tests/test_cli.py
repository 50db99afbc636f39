"""Command line interface: formats, exit codes, determinism, schemas."""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import pytest

from serendipity.cli import main
from serendipity.exactpoly import Polynomial
from serendipity.spaces import dim_S_formula


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

    def test_parallel_matches_serial(self, capsys):
        args = ("verify", "--n", "2", "--r", "2", "--format", "json")
        _, serial = run_cli(capsys, *args, "--jobs", "1")
        _, parallel = run_cli(capsys, *args, "--jobs", "2")
        assert serial == parallel

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

    def test_missing_command(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


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
