"""Face lattice of the cube: counts, order, symmetry, restriction, and the
face inclusion and face integrals of the dense test oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from dense import apply_dof, face_contains, face_moment
from serendipity.cubegeom import (
    Face,
    all_faces,
    enumerate_faces,
    face_symmetry,
    full_cube,
    restrict_to_face,
)
from serendipity.dofs import DofFunctional
from serendipity.exactpoly import Polynomial


def moment_oracle(p: Polynomial, face: Face, weight=None) -> Fraction:
    """Term by term from the 1-D rules alone: a pinned axis contributes
    sign**exponent, a free axis 2 / (exponent + 1) for even exponents."""
    weight = weight or (0,) * p.n
    pins = dict(face.fixed)
    total = Fraction(0)
    for exps, coeff in p.terms():
        term = coeff
        for i, e in enumerate(a + b for a, b in zip(exps, weight)):
            if i in pins:
                term *= pins[i] ** e
            else:
                term *= Fraction(2, e + 1) if e % 2 == 0 else 0
        total += term
    return total


def moment(p: Polynomial, face: Face, weight) -> Fraction:
    """The moment of x^weight p over a face, one face_moment per term."""
    return apply_dof(DofFunctional(face, weight, 0), p)


def random_poly(rng: random.Random, n: int, terms: int = 5, max_exp: int = 4):
    data = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(n))
        data[exps] = Fraction(rng.randint(-9, 9))
    return Polynomial(n, data)


class TestEnumeration:
    @pytest.mark.parametrize(
        "n, d, count",
        [(3, 2, 6), (3, 1, 12), (3, 0, 8), (5, 0, 32), (2, 1, 4), (4, 4, 1)],
    )
    def test_counts(self, n, d, count):
        faces = enumerate_faces(n, d)
        assert len(faces) == count
        assert len(set(faces)) == count
        assert all(f.dim == d for f in faces)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_total_face_count_is_power_of_three(self, n):
        assert len(all_faces(n)) == 3**n
        for d in range(n + 1):
            assert len(enumerate_faces(n, d)) == 2 ** (n - d) * comb(n, d)

    def test_deterministic_documented_order(self):
        faces = enumerate_faces(2, 1)
        expected = [
            Face(2, ((0, -1),)),
            Face(2, ((0, 1),)),
            Face(2, ((1, -1),)),
            Face(2, ((1, 1),)),
        ]
        assert list(faces) == expected
        assert list(enumerate_faces(2, 1)) == expected

    def test_vertices_come_first_in_all_faces(self):
        faces = all_faces(3)
        dims = [f.dim for f in faces]
        assert dims == sorted(dims)
        assert faces[-1] == full_cube(3)

    def test_dimension_out_of_range_raises(self):
        with pytest.raises(ValueError):
            enumerate_faces(3, 4)
        with pytest.raises(ValueError):
            enumerate_faces(3, -1)

    def test_face_validation(self):
        with pytest.raises(ValueError):
            Face(2, ((0, 2),))
        with pytest.raises(ValueError):
            Face(2, ((1, 1), (0, 1)))
        with pytest.raises(ValueError):
            Face(2, ((2, 1),))
        with pytest.raises(ValueError):
            Face(2, ((0, 1), (0, -1)))


class TestContainment:
    def test_examples(self):
        cube = full_cube(3)
        facet = Face(3, ((0, 1),))
        edge = Face(3, ((0, 1), (1, -1)))
        vertex = Face(3, ((0, 1), (1, -1), (2, 1)))
        other_vertex = Face(3, ((0, -1), (1, -1), (2, 1)))
        assert face_contains(cube, facet)
        assert face_contains(facet, edge)
        assert face_contains(edge, vertex)
        assert face_contains(facet, vertex)
        assert not face_contains(facet, other_vertex)
        assert not face_contains(edge, facet)

    def test_sign_conflict_blocks_containment(self):
        plus = Face(2, ((0, 1),))
        minus = Face(2, ((0, -1),))
        assert not face_contains(plus, minus)
        assert not face_contains(minus, plus)

    def test_mismatched_n_raises(self):
        with pytest.raises(ValueError):
            face_contains(full_cube(2), full_cube(3))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_partial_order_axioms_exhaustively(self, n):
        faces = all_faces(n)
        below = {
            f: {g for g in faces if face_contains(f, g)} for f in faces
        }
        for f in faces:
            assert f in below[f]
        for f in faces:
            for g in below[f]:
                if f in below[g]:
                    assert f == g
        for f in faces:
            for g in below[f]:
                for h in below[g]:
                    assert h in below[f]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_subface_counts_match_binomials(self, n):
        # a d-face has 2^(d-e) C(d,e) subfaces of dimension e
        for f in all_faces(n):
            d = f.dim
            for e in range(d + 1):
                subs = [g for g in enumerate_faces(n, e) if face_contains(f, g)]
                assert len(subs) == 2 ** (d - e) * comb(d, e)


def apply_symmetry(face: Face, perm, flips) -> Face:
    pins = ((perm[i], -s if perm[i] in flips else s) for i, s in face.fixed)
    return Face(face.n, tuple(sorted(pins)))


class TestFaceSymmetry:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_sends_the_first_face_to_each_face(self, n):
        for face in all_faces(n):
            perm, flips = face_symmetry(face)
            first = enumerate_faces(n, face.dim)[0]
            assert sorted(perm) == list(range(n))
            assert apply_symmetry(first, perm, flips) == face
            assert flips == {i for i, s in face.fixed if s > 0}
            # free axes go to free axes in order
            assert [perm[i] for i in first.free_indices] == list(face.free_indices)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_is_a_lattice_automorphism(self, n):
        faces = all_faces(n)
        for face in faces:
            perm, flips = face_symmetry(face)
            images = {f: apply_symmetry(f, perm, flips) for f in faces}
            assert sorted(images.values(), key=faces.index) == list(faces)
            for f in faces:
                for g in faces:
                    assert face_contains(f, g) == face_contains(images[f], images[g])

    def test_keeps_face_moments(self):
        # x^e over F equals sign(e') x^e' over sigma F, e'[perm[i]] = e[i]
        rng = random.Random(11)
        n = 3
        for face in all_faces(n):
            perm, flips = face_symmetry(face)
            for f in all_faces(n):
                e = tuple(rng.randint(0, 4) for _ in range(n))
                image = [0] * n
                for i, k in enumerate(perm):
                    image[k] = e[i]
                sign = -1 if sum(image[j] for j in flips) % 2 else 1
                assert face_moment(f, e) == sign * face_moment(
                    apply_symmetry(f, perm, flips), tuple(image)
                )


class TestRestriction:
    def test_substitution_examples(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = x * y**2
        assert restrict_to_face(p, Face(2, ((0, -1),))) == -(y**2)
        assert restrict_to_face(1 - x**2, Face(2, ((0, 1),))).is_zero()
        assert restrict_to_face(p, full_cube(2)) == p

    def test_vertex_restriction_is_point_value(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = 3 * x * y + x - 2
        vertex = Face(2, ((0, -1), (1, 1)))
        assert restrict_to_face(p, vertex) == Polynomial.constant(2, -6)

    def test_trace_supported_on_free_axes(self):
        rng = random.Random(0)
        for _ in range(20):
            p = random_poly(rng, 3)
            face = Face(3, ((1, -1),))
            trace = restrict_to_face(p, face)
            assert all(e[1] == 0 for e, _ in trace.terms())

    def test_restriction_composes_along_chains(self):
        rng = random.Random(1)
        facet = Face(3, ((0, 1),))
        edge = Face(3, ((0, 1), (2, -1)))
        for _ in range(25):
            p = random_poly(rng, 3)
            assert restrict_to_face(restrict_to_face(p, facet), edge) == \
                restrict_to_face(p, edge)

    def test_superlinear_degree_never_increases(self):
        rng = random.Random(2)
        faces = all_faces(3)
        for _ in range(30):
            p = random_poly(rng, 3)
            f = faces[rng.randrange(len(faces))]
            assert restrict_to_face(p, f).superlinear_degree() <= max(
                p.superlinear_degree(), -1
            )

    def test_mismatched_n_raises(self):
        with pytest.raises(ValueError):
            restrict_to_face(Polynomial.one(2), full_cube(3))


class TestFaceIntegration:
    def test_edge_moment(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        edge = Face(2, ((1, 1),))
        for p, expected in ((x**2, Fraction(2, 3)), (x * y, 0)):
            assert moment(p, edge, (0, 0)) == expected == moment_oracle(p, edge)

    def test_vertex_uses_counting_measure(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        vertex = Face(2, ((0, 1), (1, 1)))
        p = x * y + 2
        assert moment(p, vertex, (0, 0)) == 3 == moment_oracle(p, vertex)

    def test_full_cube_matches_box_integration(self):
        rng = random.Random(3)
        cube = full_cube(3)
        for _ in range(20):
            p = random_poly(rng, 3)
            for w in ((0, 0, 0), (1, 0, 2), (2, 3, 1)):
                assert moment(p, cube, w) == moment_oracle(p, cube, w)

    def test_integral_equals_restrict_then_integrate(self):
        rng = random.Random(4)
        face = Face(3, ((0, -1), (2, 1)))
        for _ in range(20):
            p = random_poly(rng, 3)
            trace = restrict_to_face(p, face)
            for w in ((0, 0, 0), (0, 2, 0), (3, 1, 2)):
                direct = moment(p, face, w)
                assert direct == moment(trace, face, w)
                assert direct == moment_oracle(p, face, w)

    def test_mismatched_n_raises(self):
        # an exponent per axis, no more and no fewer
        with pytest.raises(ValueError, match="needs 1 exponents"):
            face_moment(Face(1, ()), (2, 5))
        with pytest.raises(ValueError, match="needs 3 exponents"):
            face_moment(Face(3, ((0, 1),)), (2, 0))

    def test_face_moment_odd_free_exponent_vanishes(self):
        face = Face(3, ((0, 1),))
        assert face_moment(face, (2, 1, 0)) == 0
        # 2/3 from the squared axis, 2 from the constant axis
        assert face_moment(face, (3, 2, 0)) == Fraction(4, 3)
        assert face_moment(Face(3, ((0, -1),)), (3, 2, 0)) == Fraction(-4, 3)


class TestFaceGeometry:
    def test_index_partition(self):
        face = Face(4, ((1, 1), (3, -1)))
        assert face.fixed_indices == (1, 3)
        assert face.free_indices == (0, 2)

    def test_json_round_trip_is_one_based(self):
        face = Face(3, ((0, 1), (2, -1)))
        obj = face.to_json_obj()
        assert obj == {
            "n": 3,
            "dim": 1,
            "fixed": [{"index": 1, "sign": 1}, {"index": 3, "sign": -1}],
        }
        assert Face.from_json_obj(obj) == face
