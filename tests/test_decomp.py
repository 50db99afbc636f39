"""Bubbles, face component spaces, direct sum, constructive expansion."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from serendipity.cubegeom import (
    Face,
    all_faces,
    enumerate_faces,
    face_contains,
    full_cube,
    restrict_to_face,
)
from serendipity.decomp import (
    all_components,
    bubble,
    component_matrix,
    decompose,
    expand_monomial,
    facet_kernel_check,
    recompose,
    space_V,
    verify_direct_sum,
)
from serendipity.exactpoly import Polynomial, integrate_box, variables
from serendipity.spaces import basis_S, dim_S_formula


def box_integral_oracle(p: Polynomial) -> Fraction:
    """Term-by-term full-box integral using only the 1-D moment formula."""
    total = Fraction(0)
    for exps, coeff in p.terms():
        factor = Fraction(1)
        for e in exps:
            if e % 2:
                factor = Fraction(0)
                break
            factor *= Fraction(2, e + 1)
        total += coeff * factor
    return total


def random_space_member(rng: random.Random, n: int, r: int) -> Polynomial:
    return Polynomial(
        n,
        {
            m.exponents: Fraction(rng.randint(-9, 9))
            for m in basis_S(n, r).monomials
        },
    )


class TestBubble:
    def test_interval_interior(self):
        (x,) = variables(1)
        assert bubble(full_cube(1)).poly == 1 - x**2

    def test_vertex_bubble(self):
        x, y = variables(2)
        vertex = Face(2, ((0, 1), (1, 1)))
        assert bubble(vertex).poly == (1 + x) * (1 + y)

    def test_edge_bubble(self):
        x, y = variables(2)
        edge = Face(2, ((1, -1),))
        assert bubble(edge).poly == (1 - x**2) * (1 - y)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vanishes_on_noncontaining_facets(self, n):
        for face in all_faces(n):
            b = bubble(face).poly
            for facet in enumerate_faces(n, n - 1):
                if not face_contains(facet, face):
                    assert restrict_to_face(b, facet).is_zero(), (face, facet)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_positive_on_interior_sample_grid(self, n):
        probes = (Fraction(-1, 2), Fraction(0), Fraction(1, 2))
        for face in all_faces(n):
            b = bubble(face).poly
            assert b.evaluate(face.barycenter()) > 0
            free = face.free_indices
            for combo in itertools.product(probes, repeat=len(free)):
                point = list(face.barycenter())
                for axis, value in zip(free, combo):
                    point[axis] = value
                assert b.evaluate(tuple(point)) > 0, (face, point)

    def test_superlinear_degree_is_twice_codimension_complement(self):
        # each free axis contributes a square, each pinned axis is linear
        for face in all_faces(3):
            assert bubble(face).poly.superlinear_degree() == 2 * face.dim


class TestComponentSpaces:
    def test_dimension_formula(self):
        for n in range(1, 5):
            for r in range(1, 9):
                for face in all_faces(n):
                    d = face.dim
                    expected = comb(r - d, d) if r - d >= d else 0
                    assert len(space_V(face, r)) == expected, (n, r, face)

    def test_vertex_components_at_degree_one(self):
        comps = space_V(Face(2, ((0, 1), (1, -1))), 1)
        assert len(comps) == 1
        x, y = variables(2)
        assert comps[0].component == (1 + x) * (1 - y)

    def test_interior_empty_below_threshold(self):
        assert space_V(full_cube(2), 3) == ()
        assert len(space_V(full_cube(2), 4)) == 1

    def test_membership_in_space(self):
        for n in range(1, 4):
            for r in range(1, 7):
                for fc in all_components(n, r):
                    assert fc.component.superlinear_degree() <= r
                    assert fc.coefficient.degree() <= r - 2 * fc.face.dim

    def test_component_count_equals_space_dimension(self):
        for n in range(1, 4):
            for r in range(1, 9):
                assert len(all_components(n, r)) == dim_S_formula(n, r)


class TestDirectSum:
    @pytest.mark.parametrize("n, r", [(1, 4), (2, 2), (2, 5), (3, 2), (3, 4)])
    def test_full_rank(self, n, r):
        result = verify_direct_sum(n, r)
        assert result.ok
        assert result.dims_match and result.full_rank

    def test_component_matrix_square_and_invertible(self):
        m = component_matrix(2, 3)
        assert m.rows == m.cols == 12
        assert m.rank() == 12

    def test_round_trip_random_members(self):
        rng = random.Random(30)
        for n, r in [(1, 5), (2, 3), (2, 4), (3, 2)]:
            for _ in range(5):
                p = random_space_member(rng, n, r)
                parts = decompose(p, r)
                assert recompose(parts, n) == p

    def test_methods_agree(self):
        rng = random.Random(31)
        for n, r in [(1, 4), (2, 3), (2, 5), (3, 3)]:
            p = random_space_member(rng, n, r)
            a = decompose(p, r, method="solve")
            b = decompose(p, r, method="construct")
            assert set(a) == set(b)
            for face in a:
                assert a[face].coefficient == b[face].coefficient
                assert a[face].component == b[face].component

    def test_rejects_outside_members(self):
        x, y = variables(2)
        with pytest.raises(ValueError):
            decompose(x**3 * y**2, 2)
        with pytest.raises(ValueError):
            decompose(x, 1, method="weird")


class TestExpandMonomial:
    def test_constant_splits_across_vertices(self):
        comps = expand_monomial((0,), 1)
        by_face = {fc.face: fc for fc in comps}
        plus = Face(1, ((0, 1),))
        minus = Face(1, ((0, -1),))
        assert by_face[plus].coefficient == Polynomial.constant(1, Fraction(1, 2))
        assert by_face[minus].coefficient == Polynomial.constant(1, Fraction(1, 2))
        assert len(comps) == 2

    def test_linear_splits_with_opposite_signs(self):
        comps = expand_monomial((1,), 1)
        by_face = {fc.face: fc for fc in comps}
        assert by_face[Face(1, ((0, 1),))].coefficient == Polynomial.constant(
            1, Fraction(1, 2)
        )
        assert by_face[Face(1, ((0, -1),))].coefficient == Polynomial.constant(
            1, Fraction(-1, 2)
        )

    def test_square_uses_unit_remainder(self):
        # x^2 = 1 - (1 - x^2): interior coefficient is exactly -1
        comps = expand_monomial((2,), 2)
        by_face = {fc.face: fc for fc in comps}
        interior = by_face[full_cube(1)]
        assert interior.coefficient == Polynomial.constant(1, -1)
        total = Polynomial.zero(1)
        for fc in comps:
            total = total + fc.component
        assert total == Polynomial.from_monomial((2,))

    def test_trilinear_monomial_hits_all_eight_vertices(self):
        comps = expand_monomial((1, 1, 1), 1)
        assert len(comps) == 8
        assert all(fc.face.dim == 0 for fc in comps)
        signs = {fc.face: fc.coefficient.coefficient((0, 0, 0)) for fc in comps}
        for face, value in signs.items():
            parity = 1
            for _, s in face.fixed:
                if s < 0:
                    parity = -parity
            assert value == Fraction(parity, 8)

    def test_faces_are_never_repeated(self):
        comps = expand_monomial((2, 3, 1), 6)
        faces = [fc.face for fc in comps]
        assert len(faces) == len(set(faces))

    def test_sum_reconstructs_every_basis_monomial(self):
        for n in range(1, 4):
            for r in range(1, 5):
                for m in basis_S(n, r).monomials:
                    comps = expand_monomial(m.exponents, r)
                    total = Polynomial.zero(n)
                    for fc in comps:
                        total = total + fc.component
                        # degree budget on the face
                        assert fc.coefficient.degree() <= r - 2 * fc.face.dim
                    assert total == m.as_polynomial(), (n, r, m)

    def test_rejects_monomials_outside_space(self):
        with pytest.raises(ValueError):
            expand_monomial((3, 2), 4)


class TestFacetKernel:
    def test_first_nontrivial_square_case(self):
        result = facet_kernel_check(2, 4)
        assert result.ok
        assert result.kernel_dim == result.expected_dim == 1
        assert result.gram.entry(0, 0) == Fraction(256, 225)
        # independent integral oracle for the same Gram entry
        x, y = variables(2)
        cand = (1 - x**2) * (1 - y**2)
        assert box_integral_oracle(cand * cand) == Fraction(256, 225)

    def test_empty_below_twice_dimension(self):
        for r in (1, 2, 3):
            result = facet_kernel_check(2, r)
            assert result.ok
            assert result.kernel_dim == result.expected_dim == 0

    def test_cube_case(self):
        result = facet_kernel_check(3, 6)
        assert result.ok
        assert result.kernel_dim == 1
        assert result.gram.entry(0, 0) == Fraction(4096, 3375)

    def test_growing_kernel(self):
        result = facet_kernel_check(2, 6)
        assert result.ok
        # bubble times total degree 2 in two variables
        assert result.kernel_dim == 6
        assert result.gram.rows == 6
        assert result.gram_positive_definite

    def test_gram_oracle_on_larger_case(self):
        result = facet_kernel_check(2, 5)
        assert result.ok and result.kernel_dim == 3
        x, y = variables(2)
        b = (1 - x**2) * (1 - y**2)
        cands = [b, b * x, b * y]
        for i in range(3):
            for j in range(3):
                assert result.gram.entry(i, j) == box_integral_oracle(
                    cands[i] * cands[j]
                )

    def test_kernel_members_vanish_on_all_facets(self):
        # reconstruct kernel vectors directly and verify the defining property
        result = facet_kernel_check(2, 4)
        assert result.candidates_contained and result.candidates_independent

    def test_serialization(self):
        obj = facet_kernel_check(2, 4).to_json_obj()
        assert obj["ok"] is True
        assert obj["gram"] == [["256/225"]]
