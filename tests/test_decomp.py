"""Bubbles, face component spaces, direct sum, constructive expansion."""

from __future__ import annotations

import copy
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, prod
from operator import add

import pytest

from dense import all_components, apply_dof, component_matrix, dof_matrix, face_contains
from serendipity import cubegeom
from serendipity.cubegeom import (
    Face,
    all_faces,
    enumerate_faces,
    full_cube,
    restrict_to_face,
)
from serendipity import decomp, spaces
from serendipity.decomp import (
    bubble,
    certify_pairing,
    decompose,
    facet_kernel_check,
    recompose,
    verify_direct_sum,
)
from serendipity.assembly import interpolate
from serendipity.cli import main
from serendipity.dofs import (
    DofFunctional,
    RationalMatrix,
    SingularMatrixError,
    check_unisolvence,
    dofs_S,
    nodal_basis,
)
from serendipity.exactpoly import Polynomial
from serendipity.spaces import basis_S, check_inclusions, dim_S_formula, face_monomials


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


def superlinear_split_oracle(alpha: int) -> tuple[Fraction, Fraction, tuple[Fraction, ...]]:
    """The earlier 1-D split, kept as an oracle: (c_plus, c_minus, q) with
    t^alpha = c_plus (1 + t) + c_minus (1 - t) + (1 - t^2) q(t), q dense
    from the lowest power, checked by re-expanding."""
    half = Fraction(1, 2)
    c_minus = half if alpha % 2 == 0 else -half
    q = [Fraction(0)] * max(alpha - 1, 0)
    for k in range(alpha - 2, -1, -2):
        q[k] = Fraction(-1)
    check = [Fraction(0)] * (max(alpha, 1) + 2)
    check[0] += half + c_minus
    check[1] += half - c_minus
    for k, c in enumerate(q):
        check[k] += c
        check[k + 2] -= c
    assert check == [Fraction(int(k == alpha)) for k in range(len(check))], alpha
    return half, c_minus, tuple(q)


def stack_expand_oracle(exponents: tuple[int, ...], r: int) -> dict[Face, Polynomial]:
    """The earlier depth-first expansion, kept as an oracle: one explicit
    stack entry per partial choice of signs and quotients, the quotient
    factors merged term by term and the scalar applied at the leaf."""
    n = len(exponents)
    choice_lists = []
    for alpha in exponents:
        c_plus, c_minus, q = superlinear_split_oracle(alpha)
        choices = [(1, c_plus, None), (-1, c_minus, None)]
        if alpha >= 2:
            choices.append((0, Fraction(1), q))
        choice_lists.append(choices)
    out: dict[Face, Polynomial] = {}
    stack = [(0, [], Fraction(1), {(0,) * n: Fraction(1)})]
    while stack:
        axis, pins, scalar, coeff_terms = stack.pop()
        if axis == n:
            face = Face(n, tuple(pins))
            assert face not in out
            coeff = Polynomial(n, coeff_terms) * scalar
            assert coeff.degree() <= r - 2 * face.dim
            out[face] = coeff
            continue
        for sign, factor, q in reversed(choice_lists[axis]):
            if q is None:
                stack.append((axis + 1, pins + [(axis, sign)], scalar * factor, coeff_terms))
            else:
                merged: dict[tuple[int, ...], Fraction] = {}
                for exps, c in coeff_terms.items():
                    for k, qc in enumerate(q):
                        if qc:
                            key = exps[:axis] + (exps[axis] + k,) + exps[axis + 1 :]
                            merged[key] = merged.get(key, Fraction(0)) + c * qc
                stack.append((axis + 1, pins, scalar * factor, merged))
    return out


def constraint_kernel_dim(n: int, r: int) -> int:
    """The earlier facet-kernel dimension, kept as an oracle: the space
    dimension minus the rank of one constraint row per (facet, surviving
    monomial) pair, each requiring that trace coefficient to cancel."""
    basis = basis_S(n, r)
    row_of: dict[tuple[int, tuple[int, ...]], int] = {}
    entries: dict[tuple[int, int], Fraction] = {}
    for fi, facet in enumerate(enumerate_faces(n, n - 1)):
        axis, sign = facet.fixed[0]
        for col, exps in enumerate(basis.monomials):
            flip = -1 if (sign < 0 and exps[axis] % 2) else 1
            row = row_of.setdefault((fi, exps[:axis] + (0,) + exps[axis + 1 :]), len(row_of))
            entries[(row, col)] = entries.get((row, col), Fraction(0)) + flip
    rows = [[Fraction(0)] * basis.dim for _ in range(len(row_of))]
    for (i, j), v in entries.items():
        rows[i][j] = v
    return basis.dim - RationalMatrix(rows).rank()


def flip_bubble_sign(monkeypatch, face: Face) -> None:
    """Make the bubble of one face use 1 - c x_1 in place of 1 + c x_1."""
    real = decomp._bubble_factors

    def flipped(other):
        factors = real(other)
        if other != face:
            return factors
        c0, c1, c2 = factors[0]
        return ((c0, -c1, c2),) + factors[1:]

    monkeypatch.setattr(decomp, "_bubble_factors", flipped)


def pairing_block(outer: Face, inner: Face, r: int) -> list[list[Fraction]]:
    """The block K[F, G] of the pairing, kept as an oracle: b_G expanded
    into monomials and traced onto F, each entry a DOF applied term by
    term, once per weight sum w + q."""
    index = face_monomials(outer.n, r)
    trace = restrict_to_face(bubble(inner), outer)
    moment = cache(lambda e: apply_dof(DofFunctional(outer, e, 0), trace))
    return [[moment(tuple(map(add, w, q))) for q in index[inner]] for w in index[outer]]


def dense_inverse(block: list[list[Fraction]]) -> RationalMatrix:
    """The inverse by one Bareiss solve against the identity."""
    size = range(len(block))
    return RationalMatrix(block).solve(RationalMatrix([[int(i == j) for j in size] for i in size]))


def weight_inner(p, q) -> Fraction:
    """The integral of p q (1 - t^2) over [-1, 1], p and q given by their
    coefficients from t^0 up."""
    return sum(
        (a * b * (Fraction(2, i + j + 1) - Fraction(2, i + j + 3))
         for i, a in enumerate(p) for j, b in enumerate(q) if not (i + j) % 2),
        Fraction(0),
    )


def gram_schmidt(m: int) -> tuple[tuple, tuple]:
    """Exact Gram-Schmidt of 1, t, ..., t^m under ``weight_inner``, kept
    as an oracle: (U, lam) as ``decomp._orthogonal`` gives them, J_k =
    t^k less its projections onto J_0, ..., J_(k-1)."""
    U = []
    for k in range(m + 1):
        power = [Fraction(0)] * k + [Fraction(1)]
        J = list(power)
        for prev in U:
            c = weight_inner(power, prev) / weight_inner(prev, prev)
            J = [x - c * y for x, y in zip(J, prev + [0] * (k + 1 - len(prev)))]
        U.append(J)
    return tuple(map(tuple, U)), tuple(weight_inner(J, J) for J in U)


EDGE = Face(2, ((0, 1),))  # the edge x1=+1: weights 1, x2, x2^2 at (2, 4)


def replace_weight(old, new):
    """An index edit putting new in place of the weight old of EDGE."""
    def edit(index):
        index[EDGE] = tuple(new if q == old else q for q in index[EDGE])

    return edit


def drop_and_add(index):
    """The first edge loses its top weight and the cube gains x1."""
    first = enumerate_faces(2, 1)[0]
    index[first] = index[first][:-1]
    index[full_cube(2)] += ((1, 0),)


# mutation: (index edit at (2, 4), culprit, dense component rank or None
# when a component leaves S_4)
INDEX_MUTATIONS = {
    "moved": (
        replace_weight((0, 2), (1, 0)),
        f"index: the weight (1, 0) of {EDGE} is not in P_2 of its free axes",
        16,
    ),
    "over budget": (
        replace_weight((0, 2), (0, 3)),
        f"index: the weight (0, 3) of {EDGE} is not in P_2 of its free axes",
        None,
    ),
    "repeated": (
        replace_weight((0, 2), (0, 1)),
        f"index: the weights of {EDGE} are not distinct in graded lex order",
        16,
    ),
    "extra and dropped": (
        drop_and_add,
        "index: face(x1=-1) has 2 weights, not dim P_2 = 3",
        None,
    ),
}


def _with_norm(lam: list, k: int, value) -> list:
    return lam[:k] + [value] + lam[k + 1 :]


# mutation: (edit of the 1-D basis (U, lam) at r = 4, given as lists, and
# the culprit of part (iv)); J_2 = t^2 - 1/5 and lam_1 = 4/15
BASIS_MUTATIONS = {
    "perturbed coefficient": (
        lambda U, lam: (U[:2] + [(U[2][0] + Fraction(1, 7), *U[2][1:])], lam),
        "Gram block: <J_2, t^0> = 4/21 under 1 - t^2, not 0",
    ),
    "perturbed norm": (
        lambda U, lam: (U, _with_norm(lam, 1, lam[1] + 1)),
        "Gram block: <J_1, t^1> = 4/15 under 1 - t^2, not 19/15",
    ),
    "scaled polynomial": (
        lambda U, lam: (U[:1] + [tuple(2 * c for c in U[1])] + U[2:], lam),
        "Gram block: J_1 is not monic of degree 1",
    ),
    "zero norm": (
        lambda U, lam: (U, _with_norm(lam, 1, Fraction(0))),
        "Gram block: the norm lam_1 = 0 is not positive",
    ),
    "negated norm": (
        lambda U, lam: (U, _with_norm(lam, 1, -lam[1])),
        "Gram block: the norm lam_1 = -4/15 is not positive",
    ),
}


def random_space_member(rng: random.Random, n: int, r: int) -> Polynomial:
    return Polynomial(
        n,
        {
            m: Fraction(rng.randint(-9, 9))
            for m in basis_S(n, r).monomials
        },
    )


def mixed_space_member(rng: random.Random, n: int, r: int) -> Polynomial:
    """A member of S_r whose coefficients carry mixed denominators."""
    return Polynomial(
        n,
        {
            m: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 12)))
            for m in basis_S(n, r).monomials
        },
    )


def construct_monomial(m: tuple[int, ...], r: int) -> tuple:
    """The construct method's components of the monomial x^m."""
    return tuple(decompose(Polynomial.from_monomial(m), r, method="construct").values())


def fraction_recompose_oracle(components: dict, n: int) -> Polynomial:
    """The earlier recompose, kept as an oracle: every component formed
    as a Fraction polynomial and their terms summed."""
    return Polynomial(n, (t for fc in components.values() for t in fc.component.terms()))


class TestBubble:
    def test_interval_interior(self):
        x = Polynomial.variable(1, 0)
        assert bubble(full_cube(1)) == 1 - x**2

    def test_vertex_bubble(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        vertex = Face(2, ((0, 1), (1, 1)))
        assert bubble(vertex) == (1 + x) * (1 + y)

    def test_edge_bubble(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        edge = Face(2, ((1, -1),))
        assert bubble(edge) == (1 - x**2) * (1 - y)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vanishes_on_noncontaining_facets(self, n):
        for face in all_faces(n):
            b = bubble(face)
            for facet in enumerate_faces(n, n - 1):
                if not face_contains(facet, face):
                    assert restrict_to_face(b, facet).is_zero(), (face, facet)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_positive_on_interior_sample_grid(self, n):
        probes = (Fraction(-1, 2), Fraction(0), Fraction(1, 2))
        for face in all_faces(n):
            b = bubble(face)
            center = [Fraction(0)] * n
            for axis, sign in face.fixed:
                center[axis] = Fraction(sign)
            assert b.evaluate(center) > 0
            free = face.free_indices
            for combo in itertools.product(probes, repeat=len(free)):
                point = list(center)
                for axis, value in zip(free, combo):
                    point[axis] = value
                assert b.evaluate(tuple(point)) > 0, (face, point)

    def test_superlinear_degree_is_twice_codimension_complement(self):
        # each free axis contributes a square, each pinned axis is linear
        for face in all_faces(3):
            assert bubble(face).superlinear_degree() == 2 * face.dim


class TestComponentSpaces:
    def test_dimension_formula(self):
        for n in range(1, 5):
            for r in range(1, 9):
                comps = all_components(n, r)
                for face in all_faces(n):
                    d = face.dim
                    expected = comb(r - d, d) if r - d >= d else 0
                    got = sum(1 for fc in comps if fc.face == face)
                    assert got == expected, (n, r, face)

    def test_vertex_components_at_degree_one(self):
        vertex = Face(2, ((0, 1), (1, -1)))
        comps = [fc for fc in all_components(2, 1) if fc.face == vertex]
        assert len(comps) == 1
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        assert comps[0].component == (1 + x) * (1 - y)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_component_is_the_product_with_the_bubble(self, n):
        # the merge pass over one common denominator, against the product
        rng = random.Random(n)
        for face in all_faces(n):
            terms = {
                tuple(rng.randrange(4) if j in face.free_indices else 0 for j in range(n)):
                Fraction(rng.randint(-99, 99), rng.choice([1, 2, 3, 7, 11, 3**20, 10**15 + 37]))
                for _ in range(6)
            }
            coefficient = Polynomial(n, terms)
            component = decomp.FaceComponent(face, coefficient).component
            assert component == coefficient * bubble(face)
        assert decomp.FaceComponent(full_cube(n), Polynomial.zero(n)).component.is_zero()

    def test_interior_empty_below_threshold(self):
        for r, expected in ((3, 0), (4, 1)):
            faces = [fc.face for fc in all_components(2, r)]
            assert faces.count(full_cube(2)) == expected

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

    @pytest.mark.parametrize(
        "n, r", [(n, r) for n in range(1, 4) for r in range(1, 7)] + [(4, 6)]
    )
    def test_dofs_and_components_share_one_index(self, n, r):
        # the DOF weight and the bubble multiplier of each entry are the
        # same (face, monomial) pair, in the same order
        dofs = [(L.face, L.exponents) for L in dofs_S(n, r)]
        comps = all_components(n, r)
        assert len(dofs) == len(comps) == dim_S_formula(n, r)
        for (face, exps), fc in zip(dofs, comps):
            assert fc.face == face
            assert fc.coefficient == Polynomial.from_monomial(exps)


PAIRING_CELLS = [(n, r) for n in range(1, 4) for r in range(1, 7)]


class TestPairing:
    """The face-triangular pairing K = D C and its certificate."""

    @pytest.mark.parametrize("n, r", PAIRING_CELLS + [(4, 6)])
    def test_certificate_rank_matches_dense_ranks(self, n, r):
        dim = dim_S_formula(n, r)
        assert certify_pairing(n, r) is None
        assert check_unisolvence(n, r).rank == dim
        assert verify_direct_sum(n, r).rank == dim
        assert dof_matrix(basis_S(n, r), dofs_S(n, r)).rank() == dim
        assert component_matrix(n, r).rank() == dim

    @pytest.mark.parametrize("n, r", PAIRING_CELLS)
    def test_facet_kernel_dim_matches_constraint_rank(self, n, r):
        assert facet_kernel_check(n, r).kernel_dim == constraint_kernel_dim(n, r)

    @pytest.mark.parametrize("n, r", PAIRING_CELLS)
    def test_diagonal_blocks_equal_their_representative(self, n, r):
        index = face_monomials(n, r)
        for d in range(n + 1):
            representative = enumerate_faces(n, d)[0]
            for face in enumerate_faces(n, d):
                if face in index:
                    expected = pairing_block(representative, representative, r)
                    assert pairing_block(face, face, r) == expected, face

    @pytest.mark.parametrize("n, r", [(n, r) for n in (1, 2, 3) for r in range(1, 7)] + [(4, 8)])
    def test_blocks_match_the_bubble_trace(self, n, r):
        # the lemma of part (iv): each diagonal block is 2^(n-d) T_S lam_S
        # T_S^T, T[a][k] = <t^a, J_k> / lam_k the tensor factor over the
        # free axes, with J and lam from the Gram-Schmidt oracle
        U, lam = gram_schmidt(r - 2)
        T = [[weight_inner([0] * a + [1], J) / lam[k] for k, J in enumerate(U)] for a in range(r - 1)]
        for face, weights in face_monomials(n, r).items():
            free = face.free_indices
            factor = [[prod(T[w[j]][k[j]] for j in free) for k in weights] for w in weights]
            expected = [
                [2 ** (n - face.dim) * sum(
                    (x * y * prod(lam[k[j]] for j in free)
                     for x, y, k in zip(row, col, weights)), Fraction(0))
                 for col in factor]
                for row in factor
            ]
            assert pairing_block(face, face, r) == expected, face

    @pytest.mark.parametrize("n, r", [(1, 3), (2, 3), (2, 4), (3, 3)])
    def test_blocks_are_slices_of_dof_times_component_matrix(self, n, r):
        # K = D C by the textbook product; every block off G <= F is zero
        d = dof_matrix(basis_S(n, r), dofs_S(n, r)).to_lists()
        c = component_matrix(n, r).to_lists()
        k = [[sum(a * b for a, b in zip(row, col)) for col in zip(*c)] for row in d]
        index = face_monomials(n, r)
        start = dict(zip(index, itertools.accumulate(map(len, index.values()), initial=0)))
        for outer in index:
            rows = range(start[outer], start[outer] + len(index[outer]))
            for inner in index:
                cols = range(start[inner], start[inner] + len(index[inner]))
                block = pairing_block(outer, inner, r)
                assert block == [[k[i][j] for j in cols] for i in rows]
                if not face_contains(outer, inner):
                    assert not any(map(any, block))

    def test_flipped_bubble_sign_fails_vanishing(self, monkeypatch, fresh_caches):
        vertex = Face(2, ((0, -1), (1, -1)))
        flip_bubble_sign(monkeypatch, vertex)
        culprit = certify_pairing(2, 3)
        assert culprit == (
            f"bubble: along x1 the bubble of {vertex} has the factor (1, 1, 0), "
            "not (1, -1, 0) (coefficients of 1, t, t^2)"
        )
        # the factor no longer vanishes at x1=+1, so the block of the
        # vertex (+1, -1) against it is no longer zero
        assert pairing_block(Face(2, ((0, 1), (1, -1))), vertex, 3) == [[4]]
        result = check_unisolvence(2, 3)
        assert result.culprit == culprit and not result.unisolvent
        assert result.rank is None and verify_direct_sum(2, 3).rank is None
        # the dense ranks: the DOFs do not involve the bubbles, while the
        # flipped bubble repeats the bubble of the vertex (+1, -1)
        assert dof_matrix(basis_S(2, 3), dofs_S(2, 3)).rank() == 12
        assert component_matrix(2, 3).rank() == 11
        with pytest.raises(SingularMatrixError):
            nodal_basis(2, 3)

    def test_flipped_bubble_sign_fails_decompose_with_culprit(self, monkeypatch, fresh_caches):
        flip_bubble_sign(monkeypatch, Face(2, ((0, -1), (1, -1))))
        p = random_space_member(random.Random(32), 2, 3)
        with pytest.raises(SingularMatrixError) as err:
            decompose(p, 3, method="solve")
        assert (
            "not certified: bubble: along x1 the bubble of face(x1=-1, x2=-1) has the factor"
            in str(err.value)
        )

    def test_dropped_weight_fails_counts(self, monkeypatch, fresh_caches):
        index = dict(face_monomials(2, 3))
        edge = enumerate_faces(2, 1)[0]
        index[edge] = index[edge][:1]
        monkeypatch.setattr(decomp, "face_monomials", lambda n, r: index)
        assert certify_pairing(2, 3) == "count: 11 (face, monomial) pairs, closed form 12"

    def test_raised_bubble_degree_fails_membership(self, monkeypatch, fresh_caches):
        real = decomp._bubble_factors

        def squared(face):
            # every vertex bubble factor gains a t^2 term
            return real(face) if face.dim else tuple((c0, c1, 1) for c0, c1, _ in real(face))

        monkeypatch.setattr(decomp, "_bubble_factors", squared)
        assert certify_pairing(2, 3) == (
            "bubble: along x1 the bubble of face(x1=-1, x2=-1) has the factor (1, -1, 1), "
            "not (1, -1, 0) (coefficients of 1, t, t^2)"
        )
        with pytest.raises(AssertionError, match="escapes the space"):
            component_matrix(2, 3)

    @pytest.mark.parametrize("mutation", sorted(INDEX_MUTATIONS))
    def test_index_mutation_fails_index(self, monkeypatch, fresh_caches, mutation):
        edit, culprit, rank = INDEX_MUTATIONS[mutation]
        index = dict(face_monomials(2, 4))
        edit(index)
        monkeypatch.setattr(decomp, "face_monomials", lambda n_, r_: index)
        # the counts hold, so the index part alone catches it
        assert sum(map(len, index.values())) == dim_S_formula(2, 4)
        assert certify_pairing(2, 4) == culprit
        # and it is caught for cause: the components are dependent or leave S_r
        if rank is None:
            with pytest.raises(AssertionError, match="escapes the space"):
                component_matrix(2, 4)
        else:
            assert component_matrix(2, 4).rank() == rank

    @pytest.mark.parametrize("mutation", sorted(INDEX_MUTATIONS))
    def test_index_mutation_fails_inclusion_row(self, capsys, monkeypatch, fresh_caches, mutation):
        # the inclusions are lemmas of the certificate: when it fails they
        # are unproved, and the report and both rows name its culprit
        edit, culprit, _ = INDEX_MUTATIONS[mutation]
        index = dict(face_monomials(2, 4))
        edit(index)
        monkeypatch.setattr(decomp, "face_monomials", lambda n_, r_: index)
        report = check_inclusions(2, 4)
        assert report.culprit == culprit
        assert not (report.ok or report.contains_total_degree_r or report.within_total_degree_r_plus)
        code = main(["verify", "--n", "2", "--r", "4", "--checks", "inclusion,dimension",
                     "--format", "json"])
        rows = json.loads(capsys.readouterr().out)["results"]
        assert code == 1
        assert [(row["check"], row["ok"]) for row in rows] == [("inclusion", False), ("dimension", False)]
        assert rows[0]["detail"] == f"dims P/S/Q = 15/17/25; pairing certificate failed at {culprit}"
        assert rows[1]["detail"] == f"enumerated 17, formula 17; pairing certificate failed at {culprit}"

    def test_index_checked_once_per_shared_tuple(self, monkeypatch, fresh_caches):
        # part (ii) reads only the free axes, so the tuple that the index
        # shares among the faces on them is checked once; an equal copy is
        # not the same tuple and is checked again
        index = face_monomials(3, 4)
        seen = []
        real = decomp.grlex_key
        monkeypatch.setattr(decomp, "grlex_key", lambda e: seen.append(e) or real(e))

        def keys_read(faces):
            return sum(2 * (len(index[face]) - 1) for face in faces)

        first = {}
        for face in index:
            first.setdefault(face.free_indices, face)
        assert certify_pairing(3, 4) is None
        assert len(seen) == keys_read(first.values()) < keys_read(index)
        copies = {face: tuple(list(weights)) for face, weights in index.items()}
        monkeypatch.setattr(decomp, "face_monomials", lambda n_, r_: copies)
        fresh_caches()
        seen.clear()
        assert certify_pairing(3, 4) is None
        assert len(seen) == keys_read(index)
        # a copy that fails names its own face, the last on its free axes
        last = [face for face in copies if face.free_indices == (2,)][-1]
        copies[last] = tuple((0, 0, 3) if q == (0, 0, 2) else q for q in copies[last])
        fresh_caches()
        assert certify_pairing(3, 4) == (
            f"index: the weight (0, 0, 3) of {last} is not in P_2 of its free axes"
        )

    def test_free_factor_with_constant_two_fails_bubble(self, monkeypatch, fresh_caches):
        # 2 - 2t^2 still vanishes at both ends, so K stays triangular and
        # nonsingular, but the diagonal block of the edge doubles
        edge = Face(2, ((1, 1),))
        real = decomp._bubble_factors
        monkeypatch.setattr(
            decomp, "_bubble_factors",
            lambda face: ((2, 0, -2),) + real(face)[1:] if face == edge else real(face),
        )
        assert certify_pairing(2, 4) == (
            f"bubble: along x1 the bubble of {edge} has the factor (2, 0, -2), "
            "not (1, 0, -1) (coefficients of 1, t, t^2)"
        )
        representative = enumerate_faces(2, 1)[0]
        assert pairing_block(edge, edge, 4) != pairing_block(representative, representative, 4)
        assert component_matrix(2, 4).rank() == dim_S_formula(2, 4)

    @pytest.mark.parametrize("c", [1, -1, 2])
    def test_pinned_factor_with_a_square_fails_bubble(self, monkeypatch, fresh_caches, c):
        # (1 + c) - t - c t^2 is 0 at x1=+1 and 2 at x1=-1, but not linear
        edge = Face(2, ((0, -1),))
        real = decomp._bubble_factors
        monkeypatch.setattr(
            decomp, "_bubble_factors",
            lambda face: ((1 + c, -1, -c),) + real(face)[1:] if face == edge else real(face),
        )
        assert certify_pairing(2, 3) == (
            f"bubble: along x1 the bubble of {edge} has the factor {(1 + c, -1, -c)}, "
            "not (1, -1, 0) (coefficients of 1, t, t^2)"
        )
        with pytest.raises(AssertionError, match="escapes the space"):
            component_matrix(2, 3)

    @pytest.mark.parametrize("mutation", sorted(BASIS_MUTATIONS))
    def test_weight_basis_mutation_fails_gram(self, monkeypatch, fresh_caches, mutation):
        # part (iv) at (2, 4), where the 1-D basis runs to J_2 = t^2 - 1/5
        edit, culprit = BASIS_MUTATIONS[mutation]
        real = decomp._orthogonal
        monkeypatch.setattr(decomp, "_orthogonal", lambda m: edit(*map(list, real(m))))
        assert certify_pairing(2, 4) == culprit
        assert_uncertified(2, 4, culprit)
        # the certificate is one-sided: K itself is still nonsingular
        assert component_matrix(2, 4).rank() == dim_S_formula(2, 4)

    def test_weight_basis_check_runs_under_optimize(self):
        # the check is made of ifs, not asserts
        script = textwrap.dedent(
            """
            import serendipity.decomp as d
            assert False, "asserts are live"
            U, lam = d._orthogonal(2)
            d._orthogonal = lambda m: (U, (lam[0], -lam[1], lam[2]))
            print(d.certify_pairing(2, 4))
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == BASIS_MUTATIONS["negated norm"][1] + "\n"

    @pytest.mark.parametrize("m", [-1, 0, 1, 10])
    def test_orthogonal_matches_gram_schmidt(self, m):
        assert decomp._orthogonal(m) == gram_schmidt(m)
        assert decomp._weight_culprit(m) is None


def product(a: tuple, b: tuple, scale: int = 1) -> tuple:
    """scale times the product of two blocks given as rows, skipping zero
    factors."""
    cols = list(zip(*b))
    return tuple(
        tuple(scale * sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in cols)
        for row in a
    )


def all_columns_inverse(n: int, r: int) -> dict[Face, dict[Face, tuple]]:
    """The earlier pairing inverse X = K^-1, kept as an oracle: block
    forward substitution run for every one of the 3^n columns, no symmetry,
    X[F, H] = -K[F, F]^-1 sum over H <= G < F of K[F, G] X[G, H]."""
    index, block = face_monomials(n, r), cache(pairing_block)
    diagonal = {}
    for d in range(n + 1):
        representative = enumerate_faces(n, d)[0]
        if representative in index:
            inverse = dense_inverse(pairing_block(representative, representative, r))
            diagonal[d] = tuple(inverse.row(i) for i in range(inverse.rows))
    out = {}
    for col in index:
        column = {col: diagonal[col.dim]}
        for face in index:
            if face == col or not face_contains(face, col):
                continue
            inner = [g for g in column if face_contains(face, g)]
            blocks = [block(face, g, r) for g in inner]
            left = [sum((tuple(k[i]) for k in blocks), ()) for i in range(len(index[face]))]
            right = [row for g in inner for row in column[g]]
            column[face] = product(diagonal[face.dim], product(left, right), scale=-1)
        out[col] = column
    return out


def all_columns_nodal_basis(n: int, r: int) -> tuple[Polynomial, ...]:
    """The earlier nodal basis, kept as an oracle: every column of the
    all-columns inverse expanded into monomials through the bubbles."""
    index = face_monomials(n, r)
    polys = []
    for col, column in all_columns_inverse(n, r).items():
        for i in range(len(index[col])):
            terms = {}
            for face, block in column.items():
                for q, row in zip(index[face], block):
                    for e, c in bubble(face).terms():
                        key = tuple(a + b for a, b in zip(e, q))
                        terms[key] = terms.get(key, Fraction(0)) + c * row[i]
            polys.append(Polynomial(n, terms))
    return tuple(polys)


def unit(n: int, r: int, i: int) -> list[int]:
    """DOF values 1 on DOF i and 0 on the rest."""
    return [int(k == i) for k in range(len(dofs_S(n, r)))]


def dof_parts(n: int, r: int, values: list[int]) -> dict[tuple, dict]:
    """DOF values in DOF order as face parts keyed by pins, through the
    index ``decomp.face_monomials`` as it reads at the call."""
    cleared = iter(values)
    return {face.fixed: dict(zip(ws, cleared)) for face, ws in decomp.face_monomials(n, r).items()}


def dense_values(n: int, r: int, parts: dict[tuple, dict]) -> list:
    """Face parts read through the index in DOF order, 0 where absent."""
    return [parts.get(face.fixed, {}).get(w, 0) for face, ws in face_monomials(n, r).items() for w in ws]


def solved(n: int, r: int, values: list[int]) -> dict[tuple, dict]:
    """The solver's nonzero multipliers as Fractions, keyed by pins."""
    scale, parts = decomp._solve(n, r, 1, dof_parts(n, r, values))
    out = {pins: {q: Fraction(y, scale) for q, y in part.items() if y} for pins, part in parts.items()}
    return {pins: part for pins, part in out.items() if part}


def assert_uncertified(n: int, r: int, culprit: str) -> None:
    """The solver, the nodal basis, interpolation and the solve method all
    stop with the pairing's culprit, and the checks report it with no rank:
    the certificate is one-sided."""
    for result in (check_unisolvence(n, r), verify_direct_sum(n, r)):
        assert (result.culprit, result.rank) == (culprit, None)
    message = f"pairing at n={n}, r={r} is not certified: {culprit}"
    with pytest.raises(SingularMatrixError) as err:
        decomp._solve(n, r, 1, dof_parts(n, r, [0] * len(dofs_S(n, r))))
    assert str(err.value) == message
    for attempt in (
        lambda: nodal_basis(n, r),
        lambda: interpolate([0] * len(dofs_S(n, r)), n, r),
        lambda: decompose(random_space_member(random.Random(35), n, r), r, method="solve"),
    ):
        with pytest.raises(SingularMatrixError) as err:
            attempt()
        assert str(err.value) == message


def oracle_columns(n: int, r: int) -> list[dict[tuple, dict]]:
    """Every column of K^-1 from the all-columns substitution, in DOF
    order, as ``solved`` gives them."""
    index, oracle, out = face_monomials(n, r), all_columns_inverse(n, r), []
    for L in dofs_S(n, r):
        k = index[L.face].index(L.exponents)
        column = {
            face.fixed: {q: row[k] for q, row in zip(index[face], block) if row[k]}
            for face, block in oracle[L.face].items()
        }
        out.append({pins: part for pins, part in column.items() if part})
    return out


def legendre_eta_oracle(s: int, w: int) -> Fraction:
    """eta_s(w) = 2 s^w / c_w, c_w = (w+1)(2w+2)! / (2^(w+1) ((w+1)!)^2)
    the leading coefficient of P'_(w+1): the monic J_w is P'_(w+1) / c_w,
    whose integral against 1 + s t is [P_(w+1) + s t P_(w+1)] at +-1."""
    return Fraction(2 * s**w) * 2 ** (w + 1) * factorial(w + 1) ** 2 / ((w + 1) * factorial(2 * w + 2))


def nudge_pass(monkeypatch, stage: int, slot: int, hit) -> None:
    """Add 1 to the cleared entries f of one map of ``_pair_passes``
    (stage 0 into J weights, 1 the pairing inverse, 2 back to monomials;
    slot 1 the free map, 3 the drop map) where hit(*args, k) holds."""
    real = decomp._pair_passes

    def passes(r):
        table = [list(p) for p in real(r)]
        f = table[stage][slot]
        table[stage][slot] = lambda *args: tuple((k, c + hit(*args, k)) for k, c in f(*args))
        return tuple(map(tuple, table))

    monkeypatch.setattr(decomp, "_pair_passes", passes)


class TestPairingInverse:
    """K^-1 applied by per-axis passes in the orthogonal coordinates."""

    @pytest.mark.parametrize("n, r", PAIRING_CELLS + [(4, 6), (4, 8)])
    def test_matches_all_columns_substitution(self, n, r):
        # every column of K^-1: the solve of each unit vector
        for L, expected in zip(dofs_S(n, r), oracle_columns(n, r)):
            assert solved(n, r, unit(n, r, L.index)) == expected, L

    def test_eta_matches_the_legendre_oracle(self):
        # read back from the drop map, which holds -E eta_s(k) / (2 lam_k)
        E, _, _, drop = decomp._pair_passes(14)[1]
        _, lam = decomp._orthogonal(12)
        for s in (1, -1):
            got = [(k, -2 * lam[k] * Fraction(f, E)) for k, f in drop(s, 12, 0)]
            assert got == [(w, legendre_eta_oracle(s, w)) for w in range(13)], s

    @pytest.mark.parametrize(
        "stage, slot, hit",
        [
            (1, 3, lambda s, room, a, k: s == 1 and k == 0),
            (1, 3, lambda s, room, a, k: s == -1 and k == 3),
            (1, 1, lambda room, a, k: a == 1),
            (0, 1, lambda room, a, k: (a, k) == (0, 2)),
            (2, 1, lambda room, a, k: (a, k) == (3, 1)),
        ],
        ids=["eta_+1(0)", "eta_-1(3)", "1/lam_1", "U[2][0] into J", "U[3][1] back"],
    )
    def test_perturbed_pass_entry_changes_the_multipliers(self, monkeypatch, fresh_caches, stage, slot, hit):
        # the certificate does not read the pass tables, so the oracle must
        # see the change
        expected = oracle_columns(2, 5)
        nudge_pass(monkeypatch, stage, slot, hit)
        assert certify_pairing(2, 5) is None
        assert any(solved(2, 5, unit(2, 5, i)) != column for i, column in enumerate(expected))

    @pytest.mark.parametrize("k, a", [(k, a) for k in range(4) for a in range(k + 1)])
    def test_perturbed_weight_coefficient_fails_or_changes_the_multipliers(
        self, monkeypatch, fresh_caches, k, a
    ):
        # eta and both triangular passes come from U: every entry of U
        # up to J_3, the top at r = 5, either fails part (iv) or moves K^-1
        expected, real = oracle_columns(2, 5), decomp._orthogonal

        def nudged(m):
            U, lam = real(m)
            row = list(U[k])
            row[a] += Fraction(1, 7)
            return (*U[:k], tuple(row), *U[k + 1 :]), lam

        monkeypatch.setattr(decomp, "_orthogonal", nudged)
        culprit = certify_pairing(2, 5)
        if culprit is not None:
            assert_uncertified(2, 5, culprit)
        else:
            assert any(solved(2, 5, unit(2, 5, i)) != column for i, column in enumerate(expected))

    @pytest.mark.parametrize("n, r", [(5, 8), (6, 6)])
    def test_dense_values_round_trip_at_large_cells(self, n, r):
        # past the dense oracle: the moment passes read the DOF values of
        # the interpolant back, independently of the solve
        rng = random.Random(10 * n + r)
        values = [Fraction(rng.randint(-99, 99), rng.choice((1, 2, 3, 7, 12))) for _ in dofs_S(n, r)]
        den, got = decomp._dof_values(interpolate(values, n, r), r)
        assert [Fraction(v, den) for v in dense_values(n, r, got)] == values

    @pytest.mark.parametrize("n, r", PAIRING_CELLS)
    def test_holds_the_canonical_columns_in_dof_order(self, n, r):
        # the columns the nodal basis solves for, those of the first face of
        # each dimension: integer parts in DOF order over their least scale
        first = {enumerate_faces(n, d)[0] for d in range(n + 1)}
        index = decomp.face_monomials(n, r)
        order = [face.fixed for face in index]
        for face in first & index.keys():
            for w in index[face]:
                scale, parts = decomp._solve(n, r, 1, {face.fixed: {w: 1}})
                assert list(parts) == [pins for pins in order if pins in parts]
                numbers = [scale, *(y for part in parts.values() for y in part.values())]
                assert all(type(y) is int for y in numbers)
                assert gcd(*numbers) == 1

    @pytest.mark.parametrize("n, r", [(3, 8), (4, 6)])
    def test_nodal_basis_matches_all_columns_expansion(self, n, r):
        assert nodal_basis(n, r) == all_columns_nodal_basis(n, r)

    def test_faces_listed_out_of_dimension_order_keep_x(self, monkeypatch, fresh_caches):
        # K is nonsingular in any face order, so the certificate holds, and
        # the per-axis passes do not depend on the order of the faces
        rng = random.Random(38)
        real = face_monomials(2, 4)
        values = {(face, w): rng.randint(-9, 9) for face, ws in real.items() for w in ws}
        expected = solved(2, 4, list(values.values()))
        index = {full_cube(2): real[full_cube(2)], **real}
        monkeypatch.setattr(decomp, "face_monomials", lambda n_, r_: index)
        assert certify_pairing(2, 4) is None
        got = solved(2, 4, [values[face, w] for face, ws in index.items() for w in ws])
        assert got == expected
        assert list(got) == [face.fixed for face in index if face.fixed in got]

    def test_moved_weight_fails_index_symmetry(self, monkeypatch, fresh_caches):
        # the edge x1=+1 gives its top weight x2^2 up for x1: the counts
        # hold, but the index no longer maps onto itself under the symmetry
        index = dict(face_monomials(2, 4))
        replace_weight((0, 2), (1, 0))(index)
        monkeypatch.setattr(decomp, "face_monomials", lambda n_, r_: index)
        culprit = f"index: the weight (1, 0) of {EDGE} is not in P_2 of its free axes"
        assert certify_pairing(2, 4) == culprit
        assert_uncertified(2, 4, culprit)
        # the dense ranks agree: the components are dependent, and so are
        # the DOFs once they carry the same index
        assert component_matrix(2, 4).rank() == 16
        monkeypatch.setattr("serendipity.dofs.face_monomials", lambda n_, r_: index)
        fresh_caches()  # the DOFs were listed from the real index above
        assert dof_matrix(basis_S(2, 4), dofs_S(2, 4)).rank() == 16

    def test_flipped_bubble_fails_with_the_face(self, monkeypatch, fresh_caches):
        vertex = Face(2, ((0, 1), (1, 1)))
        flip_bubble_sign(monkeypatch, vertex)
        assert_uncertified(2, 4, (
            f"bubble: along x1 the bubble of {vertex} has the factor (1, -1, 0), "
            "not (1, 1, 0) (coefficients of 1, t, t^2)"
        ))

    def test_reordered_weights_fail_column_order(self, monkeypatch, fresh_caches):
        # a face's weights must come in graded lex order, as its first face's do
        index = dict(face_monomials(2, 4))
        edge = enumerate_faces(2, 1)[1]
        index[edge] = index[edge][::-1]
        monkeypatch.setattr(decomp, "face_monomials", lambda n_, r_: index)
        culprit = f"index: the weights of {edge} are not distinct in graded lex order"
        assert certify_pairing(2, 4) == culprit
        assert_uncertified(2, 4, culprit)


class TestDecomposeTraces:
    @pytest.mark.parametrize("n, r", [(3, 5), (5, 6)])
    def test_solve_traces_and_integrates_nothing(self, monkeypatch, n, r):
        # D p comes from the per-axis split pass: no trace, and the package
        # has no face integral to call
        p = mixed_space_member(random.Random(36), n, r)
        calls = []

        def spy(*args, real=cubegeom.restrict_to_face, **kwargs):
            calls.append("restrict_to_face")
            return real(*args, **kwargs)

        for module in (cubegeom, decomp):
            monkeypatch.setattr(module, "restrict_to_face", spy, raising=False)
        parts = decompose(p, r, method="solve")
        assert calls == []
        monkeypatch.undo()
        assert recompose(parts, n) == p

    def test_solve_runs_no_merge_pass(self, monkeypatch):
        # the components are the multipliers; only recompose sums b_F m_F
        p = mixed_space_member(random.Random(39), 3, 5)

        def refuse(n, parts):
            raise AssertionError("the solve method merged its multipliers")

        monkeypatch.setattr(decomp, "_merge", refuse)
        parts = decompose(p, 5, method="solve")
        monkeypatch.undo()
        assert recompose(parts, 3) == p

    @pytest.mark.parametrize("n, r", [(2, 4), (3, 5), (4, 6)])
    def test_matches_restriction_of_the_input(self, n, r):
        # the earlier solve: each face's moments from p itself, term by term
        p = random_space_member(random.Random(37), n, r)
        index = face_monomials(n, r)
        acc = {face: dict.fromkeys(exps, Fraction(0)) for face, exps in index.items()}
        for col, column in all_columns_inverse(n, r).items():
            values = [apply_dof(DofFunctional(col, w, 0), p) for w in index[col]]
            for face, block in column.items():
                for q, row in zip(index[face], block):
                    acc[face][q] += sum((a * b for a, b in zip(row, values)), Fraction(0))
        expected = {f: Polynomial(n, t) for f, t in acc.items() if Polynomial(n, t)}
        parts = decompose(p, r, method="solve")
        assert {f: fc.coefficient for f, fc in parts.items()} == expected
        assert list(parts) == list(expected)


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
        for n, r in [(1, 4), (2, 3), (2, 5), (3, 3), (4, 6)]:
            p = random_space_member(rng, n, r)
            a = decompose(p, r, method="solve")
            b = decompose(p, r, method="construct")
            assert set(a) == set(b)
            for face in a:
                assert a[face].coefficient == b[face].coefficient
                assert a[face].component == b[face].component

    @pytest.mark.parametrize("n, r", [(4, 6), (5, 4), (6, 2)])
    def test_methods_agree_beyond_the_certification_grid(self, n, r):
        # every column but n + 1 is mapped as it is read
        p = random_space_member(random.Random(38), n, r)
        a = decompose(p, r, method="solve")
        b = decompose(p, r, method="construct")
        assert set(a) == set(b)
        assert all(a[face].coefficient == b[face].coefficient for face in a)

    def test_solve_builds_no_component_matrix(self, monkeypatch, fresh_caches):
        def refuse(self, entries):
            raise AssertionError("decompose built a dense matrix")

        monkeypatch.setattr(RationalMatrix, "__init__", refuse)
        p = random_space_member(random.Random(33), 3, 4)
        a = decompose(p, 4, method="solve")
        b = decompose(p, 4, method="construct")
        assert set(a) == set(b)
        assert all(a[face].coefficient == b[face].coefficient for face in a)
        assert recompose(a, 3) == p

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_result_copies_and_pickles(self, clone):
        p = random_space_member(random.Random(34), 2, 3)
        parts = decompose(p, 3)
        parts[next(iter(parts))].coefficient.evaluate((0.5, -0.5))
        copied = clone(parts)
        assert copied == parts
        assert all(hash(copied[face]) == hash(parts[face]) for face in parts)
        assert recompose(copied, 2) == p

    def test_rejects_outside_members(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        with pytest.raises(ValueError):
            decompose(x**3 * y**2, 2)
        with pytest.raises(ValueError):
            decompose(x, 1, method="weird")


class TestExpandMonomial:
    def test_constant_splits_across_vertices(self):
        comps = construct_monomial((0,), 1)
        by_face = {fc.face: fc for fc in comps}
        plus = Face(1, ((0, 1),))
        minus = Face(1, ((0, -1),))
        assert by_face[plus].coefficient == Polynomial.constant(1, Fraction(1, 2))
        assert by_face[minus].coefficient == Polynomial.constant(1, Fraction(1, 2))
        assert len(comps) == 2

    def test_linear_splits_with_opposite_signs(self):
        comps = construct_monomial((1,), 1)
        by_face = {fc.face: fc for fc in comps}
        assert by_face[Face(1, ((0, 1),))].coefficient == Polynomial.constant(
            1, Fraction(1, 2)
        )
        assert by_face[Face(1, ((0, -1),))].coefficient == Polynomial.constant(
            1, Fraction(-1, 2)
        )

    def test_square_uses_unit_remainder(self):
        # x^2 = 1 - (1 - x^2): interior coefficient is exactly -1
        comps = construct_monomial((2,), 2)
        by_face = {fc.face: fc for fc in comps}
        interior = by_face[full_cube(1)]
        assert interior.coefficient == Polynomial.constant(1, -1)
        total = Polynomial.zero(1)
        for fc in comps:
            total = total + fc.component
        assert total == Polynomial.from_monomial((2,))

    def test_trilinear_monomial_hits_all_eight_vertices(self):
        comps = construct_monomial((1, 1, 1), 1)
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
        comps = construct_monomial((2, 3, 1), 6)
        faces = [fc.face for fc in comps]
        assert len(faces) == len(set(faces))

    def test_sum_reconstructs_every_basis_monomial(self):
        for n in range(1, 4):
            for r in range(1, 5):
                for m in basis_S(n, r).monomials:
                    comps = construct_monomial(m, r)
                    total = Polynomial.zero(n)
                    for fc in comps:
                        total = total + fc.component
                        # degree budget on the face
                        assert fc.coefficient.degree() <= r - 2 * fc.face.dim
                    assert total == Polynomial.from_monomial(m), (n, r, m)

    def test_matches_stack_expansion_oracle(self):
        for n in range(1, 4):
            for r in range(1, 6):
                for m in basis_S(n, r).monomials:
                    comps = construct_monomial(m, r)
                    got = {fc.face: fc.coefficient for fc in comps}
                    assert len(got) == len(comps)
                    assert got == stack_expand_oracle(m, r), (n, r, m)

    def test_rejects_monomials_outside_space(self):
        with pytest.raises(ValueError):
            construct_monomial((3, 2), 4)


class TestConstruct:
    @staticmethod
    def oracle(p: Polynomial, r: int) -> dict[Face, Polynomial]:
        """The sum over p's terms c x^e of c times the stack expansion of x^e."""
        acc: dict[Face, Polynomial] = {}
        for e, c in p.terms():
            for face, coeff in stack_expand_oracle(e, r).items():
                acc[face] = acc.get(face, Polynomial.zero(p.n)) + coeff * c
        return {face: coeff for face, coeff in acc.items() if coeff}

    @pytest.mark.parametrize(
        "n, r", [(n, r) for n in range(1, 4) for r in range(1, 7)] + [(4, 8)]
    )
    def test_matches_the_stack_oracle_term_by_term(self, n, r):
        rng = random.Random(100 * n + r)
        monomial = rng.choice(basis_S(n, r).monomials)
        for p in (
            mixed_space_member(rng, n, r),
            random_space_member(rng, n, r),
            Polynomial.from_monomial(monomial, Fraction(-5, 6)),
        ):
            parts = decompose(p, r, method="construct")
            assert all(fc.face == face for face, fc in parts.items())
            assert {face: fc.coefficient for face, fc in parts.items()} == self.oracle(p, r)

    @pytest.mark.parametrize("n, r", [(1, 1), (3, 6)])
    def test_zero_polynomial_gives_no_component(self, n, r):
        assert decompose(Polynomial.zero(n), r, method="construct") == {}

    def test_cancelling_terms_leave_no_face(self):
        # the vertex parts of 3 and -3 x^2 cancel; only the interior is left
        x = Polynomial.variable(1, 0)
        parts = decompose((1 - x**2) * 3, 2, method="construct")
        assert list(parts) == [full_cube(1)]
        assert parts[full_cube(1)].coefficient == Polynomial.constant(1, 3)

    def test_rejects_outside_members(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        with pytest.raises(ValueError):
            decompose(x**3 * y**2 + Fraction(1, 3), 4, method="construct")
        with pytest.raises(ValueError):
            decompose(x, 0, method="construct")

    def test_budget_check_raises_under_optimize(self):
        # a pass that moves every term up one power on its last axis breaks
        # the budget; the check must raise even with asserts compiled out
        broken = textwrap.dedent(
            """
            import serendipity.decomp as d
            from serendipity import Polynomial
            assert False, "asserts are live"
            split = d._split_axis

            def shifted(state, j, free, *caps):
                for pins, part in split(state, j, free, *caps):
                    yield pins, {e[:-1] + (e[-1] + 2,): c for e, c in part.items()}

            d._split_axis = shifted
            try:
                d.decompose(Polynomial.from_monomial((2, 1)), 2, method="construct")
            except AssertionError as err:
                print("raised:", err)
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run(
            [sys.executable, "-O", "-c", broken],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("raised: a coefficient on "), run.stdout
        assert "exceeds its degree budget" in run.stdout


class TestDecomposeOrder:
    """Both methods return their faces in DOF order, the index's."""

    @pytest.mark.parametrize("method", ["solve", "construct"])
    @pytest.mark.parametrize("n, r", [(2, 4), (3, 6), (4, 8)])
    def test_keys_follow_the_index(self, n, r, method):
        monomials = basis_S(n, r).monomials
        # the CLI's default member and an --alpha monomial
        for p in (Polynomial(n, dict.fromkeys(monomials, 1)), Polynomial.from_monomial(monomials[-1])):
            parts = decompose(p, r, method=method)
            assert len(parts) > 1
            assert list(parts) == [face for face in face_monomials(n, r) if face in parts]


class TestDofValues:
    @staticmethod
    def odd_members(rng: random.Random, n: int, r: int) -> list[Polynomial]:
        """Per axis, a member with mixed denominators whose every term is
        odd along that axis."""
        return [
            Polynomial(n, {m: Fraction(rng.randint(1, 9), rng.choice((1, 5, 6)))
                           for m in basis_S(n, r).monomials if m[j] % 2})
            for j in range(n)
        ]

    @pytest.mark.parametrize(
        "n, r", [(n, r) for n in range(1, 4) for r in range(1, 7)] + [(4, 8)]
    )
    def test_match_the_face_moments(self, n, r):
        # the earlier route: one face moment per (DOF, term), summed as Fraction
        rng = random.Random(300 * n + r)
        members = [mixed_space_member(rng, n, r), *self.odd_members(rng, n, r)]
        for p in members if n < 4 else members[-1:]:
            den, parts = decomp._dof_values(p, r)
            expected = [apply_dof(L, p) for L in dofs_S(n, r)]
            assert [Fraction(v, den) for v in dense_values(n, r, parts)] == expected, (n, r, p)

    @pytest.mark.parametrize(
        "n, r", [(n, r) for n in range(1, 5) for r in range(1, 9)] + [(5, 8), (6, 6)]
    )
    def test_lie_inside_the_index(self, n, r):
        # the pairing solve takes these parts as they come, without reading
        # them through the index, so no face or weight may fall outside it
        p = Polynomial(n, dict.fromkeys(basis_S(n, r).monomials, 1))
        index = {face.fixed: set(ws) for face, ws in face_monomials(n, r).items()}
        den, parts = decomp._dof_values(p, r)
        assert parts
        for pins, part in parts.items():
            assert pins in index and part.keys() <= index[pins], (pins, part)


class TestRecompose:
    @pytest.mark.parametrize("n, r", [(1, 5), (2, 4), (3, 6), (4, 5), (5, 6), (6, 4)])
    @pytest.mark.parametrize("method", ["solve", "construct"])
    def test_matches_the_fraction_sum(self, n, r, method):
        rng = random.Random(200 * n + r)
        for p in (mixed_space_member(rng, n, r), random_space_member(rng, n, r)):
            parts = decompose(p, r, method=method)
            assert recompose(parts, n) == fraction_recompose_oracle(parts, n) == p

    @pytest.mark.parametrize("n, r", [(2, 1), (3, 2), (4, 3)])
    def test_accepts_any_components(self, n, r):
        # faces outside the index, coefficients over their degree budget and
        # exponents on pinned axes: recompose sums whatever it is given
        rng = random.Random(210 * n + r)
        index = face_monomials(n, r)
        parts = {}
        for face in all_faces(n):
            terms = {tuple(rng.randint(0, 4) for _ in range(n)):
                     Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(3)}
            parts[face] = decomp.FaceComponent(face, Polynomial(n, terms))
        assert any(face not in index for face in parts)
        assert any(fc.coefficient.degree() > r for fc in parts.values())
        assert recompose(parts, n) == fraction_recompose_oracle(parts, n)

    def test_empty_is_zero(self):
        assert recompose({}, 3) == fraction_recompose_oracle({}, 3) == Polynomial.zero(3)

    def test_mixed_denominators_across_components(self):
        # components that are no decomposition of anything in particular
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        coefficients = {
            full_cube(2): x * Fraction(3, 4) - Fraction(1, 6),
            Face(2, ((0, 1),)): y * Fraction(-2, 9) + Fraction(5, 7),
            Face(2, ((0, -1), (1, 1))): Polynomial.constant(2, Fraction(11, 10)),
        }
        parts = {face: decomp.FaceComponent(face, c) for face, c in coefficients.items()}
        assert recompose(parts, 2) == fraction_recompose_oracle(parts, 2)

    def test_mismatched_n_raises(self):
        parts = decompose(random_space_member(random.Random(39), 3, 3), 3)
        with pytest.raises(ValueError):
            recompose(parts, 2)
        with pytest.raises(ValueError):
            recompose(parts, 4)
        odd = {full_cube(2): decomp.FaceComponent(full_cube(2), Polynomial.one(3))}
        with pytest.raises(ValueError):
            recompose(odd, 2)


def candidate_gram_oracle(n: int, r: int) -> RationalMatrix:
    """The Gram matrix of the cube's candidates b x^q (b the cube bubble,
    q its weights), kept as an oracle: the cube integral of each product
    of two candidates, term by term."""
    b = bubble(full_cube(n))
    candidates = [b * Polynomial.from_monomial(q) for q in face_monomials(n, r)[full_cube(n)]]
    return RationalMatrix([[box_integral_oracle(u * v) for v in candidates] for u in candidates])


def cube_weight_count(n: int, r: int) -> int:
    return len(face_monomials(n, r).get(full_cube(n), ()))


class TestFacetKernel:
    def test_first_nontrivial_square_case(self, positive_definite):
        result = facet_kernel_check(2, 4)
        assert result.ok
        assert result.kernel_dim == result.expected_dim == cube_weight_count(2, 4) == 1
        gram = candidate_gram_oracle(2, 4)
        assert gram.to_lists() == [[Fraction(256, 225)]]
        assert positive_definite(gram.to_lists())
        # independent integral oracle for the same Gram entry
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        cand = (1 - x**2) * (1 - y**2)
        assert box_integral_oracle(cand * cand) == Fraction(256, 225)

    def test_empty_below_twice_dimension(self):
        for r in (1, 2, 3):
            result = facet_kernel_check(2, r)
            assert result.ok
            assert result.kernel_dim == result.expected_dim == 0

    def test_cube_case(self, positive_definite):
        result = facet_kernel_check(3, 6)
        assert result.ok
        assert result.kernel_dim == cube_weight_count(3, 6) == 1
        gram = candidate_gram_oracle(3, 6)
        assert gram.to_lists() == [[Fraction(4096, 3375)]]
        assert positive_definite(gram.to_lists())

    def test_growing_kernel(self, positive_definite):
        result = facet_kernel_check(2, 6)
        assert result.ok
        # bubble times total degree 2 in two variables
        assert result.kernel_dim == cube_weight_count(2, 6) == 6
        gram = candidate_gram_oracle(2, 6)
        assert gram.rows == 6
        assert positive_definite(gram.to_lists())

    def test_forms_no_product_or_matrix_once_the_certificate_is_warm(
        self, fresh_caches, monkeypatch
    ):
        assert certify_pairing(2, 6) is None
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Polynomial, "__mul__", counting("mul", Polynomial.__mul__))
        monkeypatch.setattr(RationalMatrix, "__init__", counting("matrix", RationalMatrix.__init__))
        result = facet_kernel_check(2, 6)
        assert result.ok and result.kernel_dim == 6
        assert calls == []

    def test_gram_oracle_on_larger_case(self, positive_definite):
        result = facet_kernel_check(2, 5)
        assert result.ok and result.kernel_dim == cube_weight_count(2, 5) == 3
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        b = (1 - x**2) * (1 - y**2)
        cands = [b, b * x, b * y]
        gram = candidate_gram_oracle(2, 5)
        assert positive_definite(gram.to_lists())
        for i in range(3):
            for j in range(3):
                assert gram.entry(i, j) == box_integral_oracle(cands[i] * cands[j])

    def test_kernel_members_vanish_on_all_facets(self):
        # the candidates are read off the index; each restricts to zero on every facet
        for n, r in [(1, 2), (1, 5), (2, 4), (2, 7), (3, 6), (3, 8), (4, 9)]:
            weights = face_monomials(n, r)[full_cube(n)]
            assert facet_kernel_check(n, r).kernel_dim == len(weights)
            b = bubble(full_cube(n))
            for q in weights:
                member = b * Polynomial.from_monomial(q)
                for facet in enumerate_faces(n, n - 1):
                    assert restrict_to_face(member, facet).is_zero(), (n, r, q, facet)

    def test_duplicated_multiplier_is_dependent(self, fresh_caches, monkeypatch):
        # a repeated cube weight makes two candidates equal: the index no
        # longer certifies, and the check fails with the certificate's culprit
        real = spaces.monomials_total_degree_at_most

        def doubled(n, axes, s):
            found = real(n, axes, s)
            return found + found[:1] if len(axes) == n else found

        basis_S(2, 5)  # enumerated, and cached, before the index is patched
        face_monomials.cache_clear()  # the basis read the index: build it again
        monkeypatch.setattr(spaces, "monomials_total_degree_at_most", doubled)
        assert len(face_monomials(2, 5)[full_cube(2)]) == 4
        result = facet_kernel_check(2, 5)
        assert result.culprit is not None
        assert result.culprit == certify_pairing(2, 5)
        assert result.kernel_dim is None
        assert not result.ok

    def test_bubble_off_a_facet_is_not_contained(self, fresh_caches, monkeypatch):
        # the cube bubble vanishes on x1 = +-1 but along x2 its factor is
        # 1 at both ends (r = 4), 1 - t, nonzero at -1 (r = 5), or 1 + t,
        # nonzero at +1 (r = 6)
        real = decomp._bubble_factors
        leaks = {4: (1, 0, 0), 5: (1, -1, 0), 6: (1, 1, 0)}

        def leaky(face):
            if face == full_cube(face.n):
                return real(face)[:1] + (leaks[r],)
            return real(face)

        monkeypatch.setattr(decomp, "_bubble_factors", leaky)
        for r in leaks:
            result = facet_kernel_check(2, r)
            assert result.culprit == certify_pairing(2, r)
            assert result.culprit.startswith("bubble: along x2 the bubble of")
            assert result.kernel_dim is None
            assert not result.ok

    @pytest.mark.parametrize("n, r", [(2, 4), (3, 8), (4, 10)])
    def test_gram_matches_moments_of_the_squared_bubble(self, positive_definite, n, r):
        # the earlier Gram, kept as an oracle: the cube bubble expanded into
        # monomials, squared, and integrated term by term; it equals the
        # Gram of the candidates' products and is positive definite
        result = facet_kernel_check(n, r)
        b = bubble(full_cube(n))
        assert not any(restrict_to_face(b, f) for f in enumerate_faces(n, n - 1))
        weights = face_monomials(n, r)[full_cube(n)]
        assert result.ok and result.kernel_dim == len(weights)
        square = b * b
        gram = candidate_gram_oracle(n, r)
        assert gram.to_lists() == [
            [box_integral_oracle(square * Polynomial.from_monomial(tuple(map(add, w, q))))
             for q in weights]
            for w in weights
        ]
        assert positive_definite(gram.to_lists())

    def test_reads_the_certificate_on_every_cell(self):
        for n in range(1, 7):
            for r in range(1, 13):
                result = facet_kernel_check(n, r)
                assert result.ok == (certify_pairing(n, r) is None), (n, r)
                assert result.kernel_dim == cube_weight_count(n, r), (n, r)

    def test_serialization(self):
        obj = facet_kernel_check(2, 4).to_json_obj()
        assert obj == {
            "n": 2,
            "r": 4,
            "space_dim": 17,
            "kernel_dim": 1,
            "expected_dim": 1,
            "ok": True,
            "culprit": None,
        }
