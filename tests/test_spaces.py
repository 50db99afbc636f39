"""Polynomial families: bases, dimension formulas, equivalent definitions."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import textwrap
from math import comb
from pathlib import Path

import pytest

from serendipity.cubegeom import Face, all_faces, full_cube
from serendipity.exactpoly import grlex_key, superlinear_degree
from serendipity.spaces import (
    InclusionReport,
    basis_P,
    basis_Q,
    basis_S,
    check_inclusions,
    dim_P,
    dim_Q,
    dim_S_formula,
    face_monomials,
    has_superlinear_degree_at_most,
    is_linear_outside_degree_budget,
    monomials_max_degree_at_most,
    monomials_total_degree_at_most,
    serendipity_exponents,
)

# every (n, r) within the command line's caps
CAP_CELLS = [(n, r) for n in range(1, 7) for r in range(1, 13)]

# dimension grid frozen from the published table
DIM_TABLE = {
    1: [2, 3, 4, 5, 6, 7, 8, 9],
    2: [4, 8, 12, 17, 23, 30, 38, 47],
    3: [8, 20, 32, 50, 74, 105, 144, 192],
    4: [16, 48, 80, 136, 216, 328, 480, 681],
    5: [32, 112, 192, 352, 592, 952, 1472, 2202],
}


class TestTotalDegreeFamily:
    def test_square_quadratics(self):
        basis = basis_P(full_cube(2), 2)
        assert basis.dim == 6
        assert list(basis) == [
            (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
        ]

    def test_vertex_space_is_constants(self):
        vertex = Face(2, ((0, 1), (1, -1)))
        assert list(basis_P(vertex, 0)) == [(0, 0)]
        assert basis_P(vertex, 5).dim == 1

    def test_negative_degree_gives_empty_basis(self):
        assert basis_P(full_cube(3), -1).dim == 0
        assert dim_P(3, -2) == 0

    def test_face_basis_lives_on_free_axes(self):
        face = Face(3, ((1, 1),))
        basis = basis_P(face, 3)
        assert basis.dim == dim_P(2, 3) == 10
        assert all(m[1] == 0 for m in basis)

    @pytest.mark.parametrize("d, s", [(1, 4), (2, 3), (3, 2), (4, 5)])
    def test_dimension_formula(self, d, s):
        face = full_cube(d)
        assert basis_P(face, s).dim == comb(s + d, d) == dim_P(d, s)


class TestTensorProductFamily:
    @pytest.mark.parametrize(
        "n, r, dim", [(2, 2, 9), (2, 3, 16), (1, 5, 6), (3, 2, 27)]
    )
    def test_dimensions(self, n, r, dim):
        assert basis_Q(n, r).dim == dim == dim_Q(n, r)

    def test_every_exponent_capped(self):
        for m in basis_Q(3, 4):
            assert max(m) <= 4

    def test_max_degree_helper_matches_product_count(self):
        exps = monomials_max_degree_at_most(3, (0, 1, 2), 2)
        assert len(exps) == 27
        assert len(set(exps)) == 27


class TestSerendipityFamily:
    def test_smallest_cases_match_by_hand_lists(self):
        assert list(basis_S(2, 1)) == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]
        got = set(basis_S(2, 2))
        expected = {
            (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (1, 2), (2, 1),
        }
        assert got == expected

    def test_index_of_follows_basis_order(self):
        basis = basis_S(3, 4)
        for i, m in enumerate(basis.monomials):
            assert basis.index_of(list(m)) == i
        with pytest.raises(KeyError):
            basis.index_of((5, 0, 0))

    def test_degree_one_equals_tensor_family(self):
        for n in range(1, 5):
            assert set(basis_S(n, 1)) == set(basis_Q(n, 1))

    def test_one_dimension_equals_total_degree_family(self):
        for r in range(1, 9):
            assert list(basis_S(1, r)) == list(basis_P(full_cube(1), r))

    @pytest.mark.parametrize("n", sorted(DIM_TABLE))
    def test_dimension_table(self, n):
        for col, want in enumerate(DIM_TABLE[n], start=1):
            assert dim_S_formula(n, col) == want

    def test_enumeration_matches_formula_on_full_grid(self):
        for n in range(1, 6):
            for r in range(1, 9):
                exps = serendipity_exponents(n, r)
                assert len(exps) == dim_S_formula(n, r), (n, r)

    def test_sorted_and_distinct(self):
        basis = basis_S(3, 4)
        keys = [grlex_key(m) for m in basis]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_membership_filters_agree_with_enumeration(self):
        # exhaustive comparison against both definitional filters over the
        # box [0, r]^n, which holds every S_r monomial; then the exponent types
        cells = [(n, r) for n in range(1, 5) for r in range(1, 9)] + [(5, 8), (6, 6)]
        for n, r in cells:
            enumerated = set(serendipity_exponents(n, r))
            by_superlinear = set()
            by_linear_count = set()
            for exps in itertools.product(range(r + 1), repeat=n):
                if has_superlinear_degree_at_most(exps, r):
                    by_superlinear.add(exps)
                if is_linear_outside_degree_budget(exps, r):
                    by_linear_count.add(exps)
            assert by_superlinear == by_linear_count
            assert enumerated == by_superlinear, (n, r)
        # at every cell of the caps, the lemmas that the enumeration proves
        # from the index and does not check: both definitions admit each
        # monomial, and no monomial comes twice
        for n, r in CAP_CELLS:
            monomials = basis_S(n, r).monomials
            assert len(set(monomials)) == len(monomials), (n, r)
            for m in monomials:
                assert has_superlinear_degree_at_most(m, r), (n, r, m)
                assert is_linear_outside_degree_budget(m, r), (n, r, m)
                # a bool exponent equals 1 but is refused by Polynomial and prints as true
                assert all(type(e) is int for e in m), (n, r, m)

    def test_monotone_in_degree(self):
        for r in range(1, 8):
            lower = set(basis_S(3, r))
            upper = set(basis_S(3, r + 1))
            assert lower <= upper

    def test_total_degree_bounded_by_r_plus_n_minus_1(self):
        for n in range(1, 5):
            for r in range(1, 7):
                top = max(map(sum, basis_S(n, r)))
                # the bound is attained once some axis can go superlinear
                expected_top = r + n - 1 if r >= 2 else n
                assert top == expected_top
                assert all(sum(m) <= r + n - 1 for m in basis_S(n, r))

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            basis_S(2, 0)
        with pytest.raises(ValueError):
            dim_S_formula(2, 0)
        with pytest.raises(ValueError):
            serendipity_exponents(0, 2)


class TestInclusions:
    def test_sandwich_between_total_degree_families(self):
        # the report reads the certificate; the walks check its lemmas
        # monomial by monomial at every cell of the caps
        for n, r in CAP_CELLS:
            s_set = set(basis_S(n, r))
            p_r = monomials_total_degree_at_most(n, tuple(range(n)), r)
            lower = all(m in s_set for m in p_r)
            upper = max(map(sum, s_set)) <= r + n - 1
            assert lower and upper, (n, r)
            report = check_inclusions(n, r)
            assert report == InclusionReport(
                n, r, lower, upper, len(p_r), len(s_set), (r + 1) ** n
            )
            assert report.ok
            assert report.dim_P_r <= report.dim_S_r <= report.dim_Q_r

    def test_low_degree_cube_example(self):
        report = check_inclusions(3, 1)
        assert report.ok
        assert report.dim_S_r == 8
        # the triple product has total degree 3 but stays in the space
        assert (1, 1, 1) in set(basis_S(3, 1))

    def test_interval_spaces_all_coincide(self):
        report = check_inclusions(1, 4)
        assert report.dim_P_r == report.dim_S_r == report.dim_Q_r == 5


class TestHelperEnumerations:
    def test_total_degree_monomials_sorted(self):
        exps = monomials_total_degree_at_most(3, (0, 2), 2)
        assert exps == [
            (0, 0, 0),
            (0, 0, 1), (1, 0, 0),
            (0, 0, 2), (1, 0, 1), (2, 0, 0),
        ]
        assert monomials_total_degree_at_most(3, (2, 0), 2) == exps

    def test_negative_budget_empty(self):
        assert monomials_total_degree_at_most(2, (0, 1), -1) == []
        assert monomials_max_degree_at_most(2, (0, 1), -1) == []

    def test_empty_axis_set_gives_constant(self):
        assert monomials_total_degree_at_most(2, (), 3) == [(0, 0)]


class TestFaceMonomials:
    @pytest.mark.parametrize("n, r", [(1, 1), (2, 3), (3, 4), (3, 6), (4, 5)])
    def test_groups_follow_dof_order_and_count_the_space(self, n, r):
        index = face_monomials(n, r)
        assert list(index) == [f for f in all_faces(n) if f in index]
        assert sum(map(len, index.values())) == dim_S_formula(n, r)
        for face in all_faces(n):
            budget = r - 2 * face.dim
            assert (face in index) == (budget >= 0)
            if face in index:
                assert list(index[face]) == monomials_total_degree_at_most(
                    n, face.free_indices, budget
                )

    @pytest.mark.parametrize("n, r", [(2, 3), (4, 8), (6, 6)])
    def test_faces_on_the_same_free_axes_share_one_tuple(self, n, r):
        index = face_monomials(n, r)
        first: dict[tuple[int, ...], tuple] = {}
        for face, weights in index.items():
            assert weights is first.setdefault(face.free_indices, weights), face

    def test_square_at_degree_three(self):
        index = face_monomials(2, 3)
        assert [len(exps) for exps in index.values()] == [1, 1, 1, 1, 2, 2, 2, 2]
        assert index[Face(2, ((0, -1),))] == ((0, 0), (0, 1))
        assert full_cube(2) not in index


class TestOptimizedInterpreter:
    def test_consistency_checks_survive_dash_o(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        # moves a weight of the edge x1=+1 off its free axes; the bare
        # assert fails the run unless -O is on
        broken = textwrap.dedent(
            """
            import serendipity.decomp as d
            from serendipity.cli import main
            from serendipity.cubegeom import Face
            assert False, "asserts are live"
            edge, index = Face(2, ((0, 1),)), dict(d.face_monomials(2, 4))
            index[edge] = tuple((1, 0) if q == (0, 2) else q for q in index[edge])
            d.face_monomials = lambda n, r: index
            print("exit", main(["verify", "--n", "2", "--r", "4", "--checks", "dimension,inclusion"]))
            """
        )
        run = subprocess.run(
            [sys.executable, "-O", "-c", broken],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        culprit = "index: the weight (1, 0) of face(x1=+1) is not in P_2 of its free axes"
        lines = run.stdout.splitlines()
        assert lines[-1] == "exit 1"
        rows = [line.split() for line in lines[2:4]]
        assert [row[:4] for row in rows] == [
            ["2", "4", "dimension", "FAIL"], ["2", "4", "inclusion", "FAIL"]
        ]
        for line in lines[2:4]:
            assert line.endswith(f"; pairing certificate failed at {culprit}")
        assert lines[3].split("FAIL", 1)[1].strip().startswith("dims P/S/Q = 15/17/25;")

        verify = ["-m", "serendipity.cli", "verify", "--n", "2", "--r", "3"]
        plain, optimized = (
            subprocess.run(
                [sys.executable, *flags, *verify],
                env=env, capture_output=True, text=True, timeout=120,
            )
            for flags in ((), ("-O",))
        )
        assert plain.returncode == optimized.returncode == 0
        assert optimized.stdout == plain.stdout
